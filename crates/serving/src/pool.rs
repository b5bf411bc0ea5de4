//! Replica pools: N `ModelHost` replicas behind one endpoint, with
//! least-outstanding-requests routing over lock-free per-replica counters.
//!
//! The serving front-end assembles batches (see [`crate::batcher`]) and hands each one
//! to [`ReplicaPool::dispatch`], which routes it to the live replica with the fewest
//! outstanding requests and enqueues it on that replica's worker channel. Each replica
//! owns a worker thread that executes batches against its [`ModelHost`] (spending the
//! batch compute time on the virtual clock) and sends the replies. Outstanding counts
//! are plain atomics — routing never takes a lock; the replica *list* sits behind a
//! `RwLock` only so replicas can join (scale-up) and leave (drain) at runtime.
//!
//! Scale-down is a drain, mirroring the scheduler's gang drains: [`ReplicaPool::begin_drain`]
//! marks a replica unroutable, in-flight batches complete, and [`ReplicaPool::reap_drained`]
//! removes it once idle.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use hpcml_comm::message::Message;
use hpcml_comm::queue::{WorkQueue, WorkQueueReceiver, WorkQueueSender};
use hpcml_comm::reqrep::Responder;
use hpcml_sim::clock::SharedClock;
use hpcml_sim::metrics::SharedScalarSink;

use crate::host::ModelHost;
use crate::protocol::*;
use crate::request::InferenceRequest;

/// One admitted request travelling from the batch assembler to a replica worker.
#[derive(Debug)]
pub struct BatchItem {
    /// The parsed request.
    pub request: InferenceRequest,
    /// Reply channel back to the requesting client.
    pub responder: Responder,
    /// Topic to reply on (the request message's topic).
    pub topic: String,
    /// Virtual seconds the request spent in the endpoint queue before admission
    /// (measured at admission against the client's enqueue stamp — one thread hop of
    /// real jitter, same as the pre-batching service, so the `service` component does
    /// not additionally absorb the admission→worker hop).
    pub admission_queue_secs: f64,
    /// Parsing/serialisation overhead already spent on this request, seconds.
    pub handling_secs: f64,
    /// Virtual seconds the request waited in the batch assembler before dispatch.
    pub batch_wait_secs: f64,
    /// Virtual time the batch was dispatched to a replica, seconds. The worker prices
    /// replica queueing as `max(0, previous batch's end - dispatched_secs)`, so an
    /// idle worker contributes exactly zero instead of one thread-wake of real jitter.
    pub dispatched_secs: f64,
}

/// A batch of admitted requests dispatched as one backend call.
pub type Batch = Vec<BatchItem>;

/// One replica: a host plus its worker channel and lock-free routing state.
pub struct Replica {
    id: u64,
    host: Arc<ModelHost>,
    outstanding: Arc<AtomicU64>,
    draining: Arc<AtomicBool>,
    tx: Option<WorkQueueSender<Batch>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("model", &self.host.spec().name)
            .field("outstanding", &self.outstanding())
            .field("draining", &self.is_draining())
            .finish()
    }
}

impl Replica {
    /// Stable identifier of this replica within its pool.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The replica's model host.
    pub fn host(&self) -> &Arc<ModelHost> {
        &self.host
    }

    /// Requests dispatched to this replica and not yet completed.
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Whether the replica is draining (unroutable, finishing in-flight work).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        // Close the worker channel, then wait for in-flight batches to finish so no
        // admitted request is ever dropped on scale-down or pool teardown.
        self.tx = None;
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
    }
}

/// N model replicas with least-outstanding-requests routing.
pub struct ReplicaPool {
    clock: SharedClock,
    replicas: RwLock<Vec<Arc<Replica>>>,
    sink: SharedScalarSink,
    /// EWMA of observed per-request service seconds (f64 bits), fed by the workers
    /// and read by admission control to estimate queue delay.
    est_request_secs_bits: Arc<AtomicU64>,
    next_replica_id: AtomicU64,
}

impl std::fmt::Debug for ReplicaPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaPool")
            .field("replicas", &self.replicas.read().len())
            .field("outstanding", &self.total_outstanding())
            .finish()
    }
}

impl ReplicaPool {
    /// Build a pool over pre-loaded hosts, spawning one worker thread per replica.
    pub fn new(hosts: Vec<Arc<ModelHost>>, clock: SharedClock, sink: SharedScalarSink) -> Self {
        let pool = ReplicaPool {
            clock,
            replicas: RwLock::new(Vec::new()),
            sink,
            est_request_secs_bits: Arc::new(AtomicU64::new(0f64.to_bits())),
            next_replica_id: AtomicU64::new(0),
        };
        for host in hosts {
            pool.scale_up(host);
        }
        pool
    }

    /// Add one replica to the pool (scale-up). The host should already be loaded; the
    /// runtime places the backing slot as part of the service's gang.
    pub fn scale_up(&self, host: Arc<ModelHost>) -> u64 {
        let id = self.next_replica_id.fetch_add(1, Ordering::Relaxed);
        // Replicas feed from the comm fabric's work queue; queue depth lands in the
        // serving metrics as `comm.queue.depth` alongside the serving.* series.
        let depth_sink = Arc::clone(&self.sink);
        let (tx, rx) = WorkQueue::<Batch>::unbounded(format!("serving.replica.{id}")).split();
        let tx = tx.with_sink(Arc::new(move |name: &str, value: f64| {
            depth_sink.record(name, value);
        }));
        let outstanding = Arc::new(AtomicU64::new(0));
        let draining = Arc::new(AtomicBool::new(false));
        let worker = spawn_worker(
            Arc::clone(&host),
            rx,
            Arc::clone(&outstanding),
            Arc::clone(&self.clock),
            Arc::clone(&self.sink),
            Arc::clone(&self.est_request_secs_bits),
        );
        let replica = Arc::new(Replica {
            id,
            host,
            outstanding,
            draining,
            tx: Some(tx),
            worker: Mutex::new(Some(worker)),
        });
        self.replicas.write().push(replica);
        id
    }

    /// Route to the live replica with the fewest outstanding requests (ties break on
    /// lowest replica id). `None` when every replica is draining or the pool is empty.
    pub fn route(&self) -> Option<Arc<Replica>> {
        self.replicas
            .read()
            .iter()
            .filter(|r| !r.is_draining())
            .min_by_key(|r| (r.outstanding(), r.id))
            .cloned()
    }

    /// Dispatch one batch to the least-loaded live replica and record the routing
    /// metrics. Replies with an error to every member if no replica is routable.
    pub fn dispatch(&self, batch: Batch) {
        if batch.is_empty() {
            return;
        }
        let Some(replica) = self.route() else {
            for item in batch {
                let reply = Message::new(item.topic, KIND_ERROR)
                    .with_header(HDR_ERROR, "no live replicas")
                    .with_header(HDR_REQUEST_ID, item.request.request_id);
                let _ = item.responder.reply(reply);
            }
            return;
        };
        let n = batch.len() as u64;
        let outstanding_after = replica.outstanding.fetch_add(n, Ordering::AcqRel) + n;
        self.sink.record("serving.batch.size", batch.len() as f64);
        self.sink
            .record("serving.replica.outstanding", outstanding_after as f64);
        if let Some(tx) = replica.tx.as_ref() {
            if tx.push(batch).is_err() {
                replica.outstanding.fetch_sub(n, Ordering::AcqRel);
            }
        }
    }

    /// Sum of outstanding requests across all replicas.
    pub fn total_outstanding(&self) -> u64 {
        self.replicas.read().iter().map(|r| r.outstanding()).sum()
    }

    /// Outstanding counts per replica (diagnostics and tests).
    pub fn outstanding_per_replica(&self) -> Vec<u64> {
        self.replicas
            .read()
            .iter()
            .map(|r| r.outstanding())
            .collect()
    }

    /// Number of routable (non-draining) replicas.
    pub fn live_replicas(&self) -> usize {
        self.replicas
            .read()
            .iter()
            .filter(|r| !r.is_draining())
            .count()
    }

    /// Total number of replicas, draining included.
    pub fn replica_count(&self) -> usize {
        self.replicas.read().len()
    }

    /// The first replica's host (the "primary" for spec/readiness queries).
    pub fn primary_host(&self) -> Option<Arc<ModelHost>> {
        self.replicas.read().first().map(|r| Arc::clone(&r.host))
    }

    /// EWMA of observed per-request service seconds (0 until the first batch lands).
    pub fn est_request_secs(&self) -> f64 {
        f64::from_bits(self.est_request_secs_bits.load(Ordering::Acquire))
    }

    /// Estimated queue delay for a request arriving now with `queued` requests already
    /// waiting in the assembler: backlog divided over the live replicas, priced at the
    /// observed per-request cost. Zero until a first batch calibrates the estimate.
    pub fn estimated_queue_delay_secs(&self, queued: usize) -> f64 {
        let backlog = queued as u64 + self.total_outstanding();
        let live = self.live_replicas().max(1);
        backlog as f64 * self.est_request_secs() / live as f64
    }

    /// Begin draining the replica with the given id (scale-down). Returns `false` if
    /// the id is unknown or it is the last live replica (a pool never drains itself
    /// to zero — scale to zero by dropping the pool).
    pub fn begin_drain(&self, id: u64) -> bool {
        let replicas = self.replicas.read();
        let Some(replica) = replicas.iter().find(|r| r.id == id) else {
            return false;
        };
        if replicas.iter().filter(|r| !r.is_draining()).count() <= 1 && !replica.is_draining() {
            return false;
        }
        replica.draining.store(true, Ordering::Release);
        true
    }

    /// Remove drained replicas that have finished their in-flight work, joining their
    /// workers. Returns how many replicas were reaped.
    pub fn reap_drained(&self) -> usize {
        let mut drained: Vec<Arc<Replica>> = Vec::new();
        {
            let mut replicas = self.replicas.write();
            let mut i = 0;
            while i < replicas.len() {
                if replicas[i].is_draining() && replicas[i].outstanding() == 0 {
                    drained.push(replicas.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        // Dropping the last Arc closes the channel and joins the worker (Replica::drop)
        // outside the replicas lock.
        let n = drained.len();
        drop(drained);
        n
    }

    /// Block until every dispatched request has completed (used on orderly shutdown so
    /// the serve loop never abandons admitted work). Waits in small real-time steps;
    /// the workers advance the virtual clock.
    pub fn quiesce(&self) {
        while self.total_outstanding() > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Smoothing factor of the per-request service-time EWMA.
const EST_EWMA_ALPHA: f64 = 0.3;

fn spawn_worker(
    host: Arc<ModelHost>,
    rx: WorkQueueReceiver<Batch>,
    outstanding: Arc<AtomicU64>,
    clock: SharedClock,
    sink: SharedScalarSink,
    est_request_secs_bits: Arc<AtomicU64>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // Virtual time the previous batch finished: batches dispatched while the
        // worker was busy are priced their genuine replica queueing, batches that
        // found it idle are priced zero.
        let mut busy_until_secs = f64::NEG_INFINITY;
        while let Ok(batch) = rx.pop() {
            let n = batch.len() as u64;
            let requests: Vec<InferenceRequest> =
                batch.iter().map(|item| item.request.clone()).collect();
            match host.handle_batch(&requests) {
                Ok(responses) => {
                    let batch_secs = responses.first().map(|r| r.inference_secs).unwrap_or(0.0);
                    update_estimate(
                        &est_request_secs_bits,
                        batch_secs / batch.len().max(1) as f64,
                    );
                    for (item, resp) in batch.into_iter().zip(responses) {
                        // The paper's `service` component: endpoint queueing (measured
                        // at admission), parsing overhead, the assembler wait, and
                        // replica queueing behind earlier batches. Every term is a
                        // virtual-time quantity with no idle thread-wake inside, so
                        // real dispatch jitter never scales into the decomposition.
                        let replica_wait_secs = (busy_until_secs - item.dispatched_secs).max(0.0);
                        let queue_secs =
                            item.admission_queue_secs + item.batch_wait_secs + replica_wait_secs;
                        let service_secs = queue_secs + item.handling_secs;
                        sink.record("serving.queue.delay_secs", queue_secs);
                        let reply = Message::new(item.topic, KIND_INFER_REPLY)
                            .with_header(HDR_REQUEST_ID, resp.request_id.clone())
                            .with_header(HDR_MODEL, resp.model.clone())
                            .with_f64_header(HDR_SERVICE_SECS, service_secs)
                            .with_f64_header(HDR_INFERENCE_SECS, resp.inference_secs)
                            .with_header(HDR_PROMPT_TOKENS, resp.prompt_tokens.to_string())
                            .with_header(HDR_COMPLETION_TOKENS, resp.completion_tokens.to_string())
                            .with_f64_header(HDR_BATCH_WAIT_SECS, item.batch_wait_secs)
                            .with_header(HDR_BATCH_SIZE, requests.len().to_string())
                            .with_text(&resp.text);
                        let _ = item.responder.reply(reply);
                    }
                }
                Err(err) => {
                    for item in batch {
                        let reply = Message::new(item.topic, KIND_ERROR)
                            .with_header(HDR_ERROR, err.to_string())
                            .with_header(HDR_REQUEST_ID, item.request.request_id);
                        let _ = item.responder.reply(reply);
                    }
                }
            }
            busy_until_secs = clock.now().as_secs_f64();
            outstanding.fetch_sub(n, Ordering::AcqRel);
        }
    })
}

fn update_estimate(bits: &AtomicU64, sample_secs: f64) {
    let prev = f64::from_bits(bits.load(Ordering::Acquire));
    let next = if prev == 0.0 {
        sample_secs
    } else {
        EST_EWMA_ALPHA * sample_secs + (1.0 - EST_EWMA_ALPHA) * prev
    };
    bits.store(next.to_bits(), Ordering::Release);
}
