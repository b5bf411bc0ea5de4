//! Replica pools: N `ModelHost` replicas behind one endpoint, with
//! least-outstanding-requests routing over lock-free per-replica counters — and the
//! one place where requests wait for a backend, and so where they batch.
//!
//! The serving front-end hands each admitted request to [`ReplicaPool::dispatch`],
//! which routes it to the live replica with the fewest outstanding requests. There it
//! is carried or queued, like a request at an endpoint: **a replica's queue holds only
//! requests that wait**, and a batch is what waited. A replica that frees takes
//! everything queued behind it, in dispatch order and up to `max_batch_size`, as one
//! [`Batch`] and one backend call: it never idles while a request waits, and never
//! waits for company.
//!
//! **A replica is a run, not a thread**: a [`Resume`] on the executor's [`Pool`], parked
//! while it has nothing to do. A dispatch that finds it parked takes it and, if it is
//! idle with nothing queued, *begins the request it brought* as a batch of one — the
//! backend call ([`ModelHost::begin_batch`]) and, when the batch costs no compute time
//! (NOOP), the replies too — there and then, on the dispatching thread, which for a
//! request that found its service idle is the requesting client's own. A batch that
//! costs compute time parks the replica on the pool's session-clock timer heap until it
//! ends; a worker of the pool finishes it and begins what queued meanwhile. Only behind
//! such a busy replica, or one somebody else is advancing at that moment, is a request
//! queued — and every batch, carried or queued, goes onto the backend through the same
//! `Replica::begin`. A backend call that panics fails its batch with [`KIND_ERROR`]
//! replies and nothing else.
//!
//! Outstanding counts are plain atomics — routing never takes a lock; the replica
//! *list* sits behind a `RwLock` only so replicas can join (scale-up) and leave at
//! runtime: [`ReplicaPool::begin_drain`] marks a replica unroutable, in-flight batches
//! complete, and [`ReplicaPool::reap_drained`] removes it once idle. Recorded here:
//! `serving.replica.outstanding` and `comm.queue.depth` per dispatch (the replica's
//! unanswered requests, and how many requests deep its queue was with this one — 1 for
//! a request begun at once), `serving.batch.size` per begun batch and
//! `serving.queue.delay_secs` per answered request.
//!
//! **Lock order** (continuing the executor's): front-end run → replica run (its
//! `serving` state, locked only by whoever holds the run) → leaves { replica queue |
//! host rng | reply slot | metric sink | timer heap | the quiesce lock }. A replica
//! step never reaches back into the front-end, so the front-end may dispatch — and
//! thereby advance a replica — from inside its own pass.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};

use hpcml_comm::message::Message;
use hpcml_comm::reqrep::Responder;
use hpcml_sim::clock::{SharedClock, SimTime};
use hpcml_sim::metrics::SharedScalarSink;
use hpcml_sim::pool::{panic_message, OwnLine, Pool, Resume, RunCell};

use crate::batcher::Batch;
use crate::host::{BegunBatch, ModelHost};
use crate::protocol::*;
use crate::request::InferenceRequest;

/// One admitted request on its way from admission to a replica: the request — parsed
/// once, at admission, and never copied — where its reply goes and what it has waited
/// so far. A replica's queue holds these; a batch of them is one [`Batch`].
#[derive(Debug)]
pub struct BatchItem {
    /// The parsed request.
    pub request: InferenceRequest,
    /// Reply channel back to the requesting client.
    pub responder: Responder,
    /// Topic to reply on (the request message's topic).
    pub topic: Cow<'static, str>,
    /// Virtual seconds the request spent in the endpoint queue before admission
    /// (measured at admission against the client's enqueue stamp).
    pub admission_queue_secs: f64,
    /// Parsing/serialisation overhead already spent on this request, seconds.
    pub handling_secs: f64,
    /// Virtual seconds from admission to dispatch: what the request's handling took
    /// on the clock.
    pub batch_wait_secs: f64,
    /// Virtual time the request was dispatched to a replica, seconds. The replica
    /// prices its queueing as `max(0, previous batch's end - dispatched_secs)`, so a
    /// request that found its replica idle contributes exactly zero.
    pub dispatched_secs: f64,
}

/// Answer every member of `batch` with a [`KIND_ERROR`] reply saying `why`.
fn fail(batch: Batch<BatchItem>, why: &str) {
    for item in batch {
        let reply = Message::new(item.topic, KIND_ERROR)
            .with_header(HDR_ERROR, why.to_string())
            .with_header(HDR_REQUEST_ID, item.request.request_id);
        let _ = item.responder.reply(reply);
    }
}

/// What the replicas of one pool share.
struct Shared {
    clock: SharedClock,
    sink: SharedScalarSink,
    /// Most requests a replica begins as one backend call.
    max_batch_size: usize,
    /// Files the replicas' compute timers. Weak, because a timer entry owns its
    /// replica: whoever hosts the service owns the pool.
    executor: Weak<Pool>,
    /// EWMA of observed per-request service seconds (f64 bits), fed by the replicas
    /// and read by admission control to estimate queue delay.
    est_request_secs_bits: AtomicU64,
    /// Threads in [`ReplicaPool::quiesce`]; a batch that ends with nobody there costs
    /// no condvar notify, which is a system call.
    quiescing: AtomicUsize,
    quiesce_lock: Mutex<()>,
    /// Signalled, under `quiesce_lock`, when a batch ends while someone quiesces.
    batch_ended: Condvar,
}

/// The batch on the backend: what the backend answered and when its time is up.
struct Running {
    batch: Batch<BatchItem>,
    begun: BegunBatch,
    until: SimTime,
}

/// The state of a replica's run; locked only by the thread holding the run. In
/// declaration order, so that the end of the previous batch sits beside the lock word.
#[repr(C)]
struct Serving {
    /// Virtual time the previous batch finished: requests dispatched while the replica
    /// was busy are priced their genuine replica queueing, requests that found it idle
    /// are priced zero.
    busy_until_secs: f64,
    running: Option<Running>,
}

/// One replica: a host, its request queue and lock-free routing state — a resumable
/// run.
struct Replica {
    id: u64,
    host: Arc<ModelHost>,
    draining: AtomicBool,
    shared: Arc<Shared>,
    /// What is written per batch, kept apart from what every dispatch only reads.
    hot: OwnLine<Hot>,
}

/// In declaration order: run, count and queue fill the first line, the lock word of
/// `serving` and the end of the previous batch start the second — the two lines a
/// batch that is begun and answered at once writes.
#[repr(C)]
struct Hot {
    cell: RunCell,
    outstanding: AtomicU64,
    /// Dispatched requests that wait — behind a running batch, or for whoever advances
    /// the replica right now — in dispatch order. A leaf lock.
    queue: Mutex<VecDeque<BatchItem>>,
    serving: Mutex<Serving>,
}

impl Replica {
    /// Requests dispatched to this replica and not yet completed.
    fn outstanding(&self) -> u64 {
        // SeqCst pairs with `finish` and `quiesce` (see there); routing only needs a
        // recent value.
        self.hot.outstanding.load(Ordering::SeqCst)
    }

    /// Whether the replica is draining (unroutable, finishing in-flight work).
    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Take a request dispatched at `now`: begun at once, as a batch of one, if the
    /// replica is parked, idle and has nothing queued; queued otherwise — and served,
    /// if this thread can have the run, as far as things are due. Returns how many
    /// requests deep the replica's queue was with this one (1: begun at once).
    fn accept(self: &Arc<Self>, item: BatchItem, now: SimTime) -> usize {
        let hot = &*self.hot;
        if !hot.cell.try_hold() {
            // Somebody is advancing the replica: behind what it has, and it looks again.
            let depth = self.enqueue(item);
            Pool::advance_or_wake(self);
            return depth;
        }
        let mut serving = hot.serving.lock();
        let carried = serving.running.is_none() && hot.queue.lock().is_empty();
        let depth = if carried {
            self.begin(&mut serving, Batch::One(item), now);
            1
        } else {
            self.enqueue(item)
        };
        drop(serving);
        // Nothing was queued when the run was taken, and whoever queues behind a held
        // run notifies it: after a batch begun here there is nothing to look for
        // unless that happened.
        if !(carried && hot.cell.release()) {
            hot.cell.advance_until_parked(|| self.advance());
        }
        depth
    }

    fn enqueue(&self, item: BatchItem) -> usize {
        let mut queue = self.hot.queue.lock();
        queue.push_back(item);
        queue.len()
    }

    /// Serve until there is nothing to do right now: finish the running batch if its
    /// time is up, begin what queued behind it as the next, and so on. Returns with the
    /// replica either idle (queue empty) or waiting for its timer.
    fn advance(self: &Arc<Self>) {
        let clock = &self.shared.clock;
        let mut serving = self.hot.serving.lock();
        loop {
            if let Some(running) = serving.running.take() {
                let now = clock.now();
                if now < running.until {
                    // Advanced by a dispatch, not by the timer: its entry is still filed.
                    serving.running = Some(running);
                    return;
                }
                let Running { batch, begun, .. } = running;
                self.finish(&serving, batch, Ok(begun));
                // It has kept the replica until its replies were out: the next one's
                // wait is priced up to here.
                serving.busy_until_secs = clock.now().as_secs_f64();
                continue;
            }
            // Free: whatever queued meanwhile is the next batch.
            let batch: Batch<BatchItem> = {
                let mut queue = self.hot.queue.lock();
                let n = queue.len().min(self.shared.max_batch_size);
                queue.drain(..n).collect()
            };
            if batch.is_empty() {
                return;
            }
            self.begin(&mut serving, batch, clock.now());
        }
    }

    /// Begin `batch` at `now` on the idle replica the caller holds — the one way a
    /// batch gets onto the backend, whether its dispatch carried it here or it waited
    /// in the queue: make the backend call, then answer at once if the batch costs no
    /// time, or park on the timer until its time is up.
    fn begin(self: &Arc<Self>, serving: &mut Serving, batch: Batch<BatchItem>, now: SimTime) {
        self.shared
            .sink
            .record("serving.batch.size", batch.len() as f64);
        // The backend is the one piece of foreign code on this path.
        let requests = batch.iter().map(|item| &item.request);
        let begun = catch_unwind(AssertUnwindSafe(|| self.host.begin_batch(requests)))
            .map_err(|panic| format!("backend panicked: {}", panic_message(&*panic)))
            .and_then(|begun| begun.map_err(|e| e.to_string()));
        let begun = match begun {
            Ok(begun) if begun.compute_secs > 0.0 => match self.shared.executor.upgrade() {
                Some(executor) => {
                    let until = now + Duration::from_secs_f64(begun.compute_secs);
                    serving.running = Some(Running {
                        batch,
                        begun,
                        until,
                    });
                    executor.wake_at_clock(self, until);
                    return;
                }
                None => Err("the service's executor pool is gone".to_string()),
            },
            begun => begun,
        };
        // Answered where it began: the replica was never busy with it.
        self.finish(serving, batch, begun);
        serving.busy_until_secs = now.as_secs_f64();
    }

    /// The batch's time is up (or it failed): answer every member.
    fn finish(
        &self,
        serving: &Serving,
        batch: Batch<BatchItem>,
        begun: Result<BegunBatch, String>,
    ) {
        let shared = &self.shared;
        let n = batch.len();
        match begun {
            Ok(begun) => {
                let batch_secs = begun.compute_secs;
                update_estimate(&shared.est_request_secs_bits, batch_secs / n.max(1) as f64);
                for (item, result) in batch.into_iter().zip(begun.results) {
                    // The paper's `service` component: endpoint queueing (measured
                    // at admission), parsing overhead, admission to dispatch, and
                    // replica queueing behind the previous batch. Every term is a
                    // virtual-time quantity with no thread wake-up inside, so
                    // real dispatch jitter never scales into the decomposition.
                    let replica_wait_secs =
                        (serving.busy_until_secs - item.dispatched_secs).max(0.0);
                    let queue_secs =
                        item.admission_queue_secs + item.batch_wait_secs + replica_wait_secs;
                    let service_secs = queue_secs + item.handling_secs;
                    shared.sink.record("serving.queue.delay_secs", queue_secs);
                    // In key order: each header lands at the end of the table.
                    let reply = Message::new(item.topic, KIND_INFER_REPLY)
                        .with_header_room(8)
                        .with_u64_header(HDR_BATCH_SIZE, n as u64)
                        .with_f64_header(HDR_BATCH_WAIT_SECS, item.batch_wait_secs)
                        .with_u64_header(HDR_COMPLETION_TOKENS, result.completion_tokens.into())
                        .with_f64_header(HDR_INFERENCE_SECS, batch_secs)
                        .with_header(HDR_MODEL, self.host.spec().name.clone())
                        .with_u64_header(HDR_PROMPT_TOKENS, result.prompt_tokens.into())
                        .with_header(HDR_REQUEST_ID, item.request.request_id)
                        .with_f64_header(HDR_SERVICE_SECS, service_secs)
                        .with_payload(result.text);
                    let _ = item.responder.reply(reply);
                }
            }
            Err(err) => fail(batch, &err),
        }
        // SeqCst on the count and on `quiescing`, here and in `quiesce`: of a batch
        // that ends and a thread that starts to quiesce, at least one sees the other.
        self.hot.outstanding.fetch_sub(n as u64, Ordering::SeqCst);
        if shared.quiescing.load(Ordering::SeqCst) > 0 {
            let _quiescing = shared.quiesce_lock.lock();
            shared.batch_ended.notify_all();
        }
    }
}

impl Resume for Replica {
    fn cell(&self) -> &RunCell {
        &self.hot.cell
    }

    fn resume(self: Arc<Self>) {
        // Again whenever a dispatch or the timer landed meanwhile.
        self.hot.cell.advance_until_parked(|| self.advance());
    }
}

/// N model replicas with least-outstanding-requests routing.
pub struct ReplicaPool {
    shared: Arc<Shared>,
    replicas: RwLock<Vec<Arc<Replica>>>,
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
    /// Build a pool over pre-loaded hosts whose replicas park on `executor` and begin
    /// up to `max_batch_size` waiting requests as one backend call. Spawns nothing; the
    /// pool is held weakly and must outlive the batches in flight.
    pub fn new(
        hosts: Vec<Arc<ModelHost>>,
        clock: SharedClock,
        sink: SharedScalarSink,
        executor: &Arc<Pool>,
        max_batch_size: usize,
    ) -> Self {
        let pool = ReplicaPool {
            shared: Arc::new(Shared {
                clock,
                sink,
                max_batch_size: max_batch_size.max(1),
                executor: Arc::downgrade(executor),
                est_request_secs_bits: AtomicU64::new(0f64.to_bits()),
                quiescing: AtomicUsize::new(0),
                quiesce_lock: Mutex::new(()),
                batch_ended: Condvar::new(),
            }),
            replicas: RwLock::new(Vec::new()),
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
        let replica = Arc::new(Replica {
            id,
            host,
            draining: AtomicBool::new(false),
            shared: Arc::clone(&self.shared),
            hot: OwnLine(Hot {
                cell: RunCell::parked(),
                outstanding: AtomicU64::new(0),
                queue: Mutex::new(VecDeque::new()),
                serving: Mutex::new(Serving {
                    busy_until_secs: f64::NEG_INFINITY,
                    running: None,
                }),
            }),
        });
        self.replicas.write().push(replica);
        id
    }

    /// The live replica with the fewest outstanding requests (ties break on lowest
    /// replica id). `None` when every replica is draining or the pool is empty.
    fn route(&self) -> Option<Arc<Replica>> {
        let replicas = self.replicas.read();
        let live = replicas.iter().filter(|r| !r.is_draining());
        live.min_by_key(|r| (r.outstanding(), r.id)).cloned()
    }

    /// Dispatch one request, at `now`, to the least-loaded live replica and record the
    /// routing metrics: a replica that is idle with nothing queued begins it on this
    /// thread, there and then; behind a busy one it queues and joins the batch that
    /// replica begins when it frees. Replies with an error if no replica is routable.
    /// Call with no lock held that a replica step takes (see the module docs).
    pub fn dispatch(&self, item: BatchItem, now: SimTime) {
        let Some(replica) = self.route() else {
            fail(Batch::One(item), "no live replicas");
            return;
        };
        let outstanding_after = replica.hot.outstanding.fetch_add(1, Ordering::SeqCst) + 1;
        let sink = &self.shared.sink;
        sink.record("serving.replica.outstanding", outstanding_after as f64);
        let depth = replica.accept(item, now);
        sink.record("comm.queue.depth", depth as f64);
    }

    /// Requests queued at a replica with no batch on its backend — 0 whenever every
    /// replica has parked, for a pool that never idles while a request waits. Takes
    /// each replica's `serving` lock, which otherwise only the thread holding the
    /// replica takes: a check for tests, not for the request path.
    pub fn queued_at_idle_replicas(&self) -> usize {
        let replicas = self.replicas.read();
        let idle = replicas.iter().filter_map(|r| {
            let serving = r.hot.serving.lock();
            serving.running.is_none().then(|| r.hot.queue.lock().len())
        });
        idle.sum()
    }

    /// Sum of outstanding requests across all replicas.
    pub fn total_outstanding(&self) -> u64 {
        self.replicas.read().iter().map(|r| r.outstanding()).sum()
    }

    /// Number of routable (non-draining) replicas.
    pub fn live_replicas(&self) -> usize {
        let replicas = self.replicas.read();
        replicas.iter().filter(|r| !r.is_draining()).count()
    }

    /// Total number of replicas, draining included.
    pub fn replica_count(&self) -> usize {
        self.replicas.read().len()
    }

    /// The first replica's host (the "primary" for spec/readiness queries).
    pub fn primary_host(&self) -> Option<Arc<ModelHost>> {
        self.replicas.read().first().map(|r| Arc::clone(&r.host))
    }

    /// Estimated queue delay for a request admitted behind `backlog` unanswered ones
    /// (see [`ReplicaPool::total_outstanding`]): the backlog divided over the live
    /// replicas, priced at [`ReplicaPool::estimated_request_secs`].
    pub fn estimated_queue_delay_secs(&self, backlog: u64) -> f64 {
        let live = self.live_replicas().max(1);
        backlog as f64 * self.estimated_request_secs() / live as f64
    }

    /// Observed per-request service seconds (an EWMA over answered batches, each
    /// batch's time shared by its members). Zero until a first batch calibrates it.
    pub fn estimated_request_secs(&self) -> f64 {
        f64::from_bits(self.shared.est_request_secs_bits.load(Ordering::Acquire))
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

    /// Remove drained replicas that have finished their in-flight work — only idle
    /// ones, so no admitted request is dropped. Returns how many were reaped.
    pub fn reap_drained(&self) -> usize {
        let mut replicas = self.replicas.write();
        let before = replicas.len();
        replicas.retain(|r| !(r.is_draining() && r.outstanding() == 0));
        before - replicas.len()
    }

    /// Block until every dispatched request has completed (used on orderly shutdown so
    /// the service never abandons admitted work). Parks on a condvar the replicas
    /// signal when a batch ends; the executor pool must be alive to end them.
    pub fn quiesce(&self) {
        let shared = &self.shared;
        let mut guard = shared.quiesce_lock.lock();
        shared.quiescing.fetch_add(1, Ordering::SeqCst);
        while self.total_outstanding() > 0 {
            shared.batch_ended.wait(&mut guard);
        }
        shared.quiescing.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Smoothing factor of the per-request service-time EWMA.
const EST_EWMA_ALPHA: f64 = 0.3;

fn update_estimate(bits: &AtomicU64, sample_secs: f64) {
    let prev = f64::from_bits(bits.load(Ordering::Acquire));
    let next = if prev == 0.0 {
        sample_secs
    } else {
        EST_EWMA_ALPHA * sample_secs + (1.0 - EST_EWMA_ALPHA) * prev
    };
    // An estimate that stands (NOOP: 0 for ever) is not written again: every pass, on
    // whichever core, reads the line it sits on.
    if next != prev {
        bits.store(next.to_bits(), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::shared_host;
    use crate::model::ModelSpec;
    use hpcml_comm::link::Link;
    use hpcml_comm::reqrep::ReqRepServer;
    use hpcml_sim::clock::ClockSpec;
    use hpcml_sim::metrics::MetricRegistry;
    use std::thread;

    struct Fixture {
        clock: SharedClock,
        executor: Arc<Pool>,
        pool: ReplicaPool,
        seen: Arc<MetricRegistry>,
        endpoint: ReqRepServer,
    }

    fn fixture(spec: ModelSpec, max_batch_size: usize) -> Fixture {
        let clock = ClockSpec::scaled(1000.0).build();
        let host = shared_host(spec, Arc::clone(&clock), 3);
        host.load();
        let executor = Arc::new(Pool::new(Arc::clone(&clock)));
        let seen = Arc::new(MetricRegistry::new());
        let recorder = Arc::clone(&seen);
        let sink: SharedScalarSink =
            Arc::new(move |name: &str, value: f64| recorder.record(name, value));
        let hosts = vec![host];
        let pool = ReplicaPool::new(hosts, Arc::clone(&clock), sink, &executor, max_batch_size);
        Fixture {
            clock,
            executor,
            pool,
            seen,
            endpoint: ReqRepServer::new("svc.pool"),
        }
    }

    impl Fixture {
        /// One request from a thread of its own, received here and wrapped as an item
        /// that has cost nothing so far: its `service` time is its replica wait alone.
        fn item(&self) -> (thread::JoinHandle<Message>, BatchItem) {
            let client = self.endpoint.client(Link::instant(Arc::clone(&self.clock)));
            let requester = thread::spawn(move || {
                client
                    .request(Message::new("svc.pool", KIND_INFER_REQUEST))
                    .unwrap()
            });
            let (msg, responder) = self.endpoint.recv_timeout(Duration::from_secs(5)).unwrap();
            let item = BatchItem {
                request: InferenceRequest::new("w ".repeat(40), 64),
                responder,
                topic: msg.topic,
                admission_queue_secs: 0.0,
                handling_secs: 0.0,
                batch_wait_secs: 0.0,
                dispatched_secs: self.clock.now().as_secs_f64(),
            };
            (requester, item)
        }

        /// Dispatch three requests back to back to the one LLM replica and collect the
        /// replies, in dispatch order, once every batch has ended.
        fn three_back_to_back(&self) -> Vec<Message> {
            let (requesters, items): (Vec<_>, Vec<_>) = (0..3).map(|_| self.item()).unzip();
            let ids: Vec<String> = items.iter().map(|i| i.request.request_id.clone()).collect();
            for item in items {
                self.pool.dispatch(item, self.clock.now());
            }
            assert!(self.executor.is_started(), "an LLM batch parks on a timer");
            let replies: Vec<Message> = requesters.into_iter().map(|r| r.join().unwrap()).collect();
            self.pool.quiesce();
            assert_eq!(self.pool.total_outstanding(), 0);
            for (reply, id) in replies.iter().zip(&ids) {
                assert_eq!(reply.header(HDR_REQUEST_ID), Some(id.as_str()));
            }
            // Every request recorded the wait it replied with. Batches end on different
            // threads (the dispatcher's, then pool workers) and a registry keeps order
            // per thread only, so the two are compared sorted.
            let mut waits: Vec<f64> = replies
                .iter()
                .map(|r| r.f64_header(HDR_SERVICE_SECS).unwrap())
                .collect();
            waits.sort_by(f64::total_cmp);
            let mut ended = self.seen.values("serving.queue.delay_secs");
            ended.sort_by(f64::total_cmp);
            assert_eq!(
                ended, waits,
                "the header carries the recorded number itself"
            );
            replies
        }
    }

    fn f64s(replies: &[Message], header: &str) -> Vec<f64> {
        replies
            .iter()
            .map(|r| r.f64_header(header).unwrap())
            .collect()
    }

    #[test]
    fn unbatched_a_busy_replica_serves_in_dispatch_order_and_an_idle_one_prices_zero() {
        let fx = fixture(ModelSpec::sim_llama_8b(), 1);
        let replies = fx.three_back_to_back();
        let waits = f64s(&replies, HDR_SERVICE_SECS);
        let inference = replies[0].f64_header(HDR_INFERENCE_SECS).unwrap();
        assert_eq!(waits[0], 0.0, "dispatched to an idle replica");
        assert!(
            waits[1] >= inference * 0.5,
            "the second request waited out the first: {waits:?} vs {inference}"
        );
        assert!(waits[2] > waits[1], "and the third the second: {waits:?}");
        assert_eq!(fx.seen.values("serving.batch.size"), [1.0; 3]);
        assert_eq!(
            fx.seen.values("comm.queue.depth"),
            vec![1.0, 1.0, 2.0],
            "the first request was begun by its dispatch, the others queued behind it"
        );
    }

    #[test]
    fn a_replica_that_frees_begins_everything_queued_behind_it_as_one_batch() {
        let fx = fixture(ModelSpec::sim_llama_8b(), 8);
        let replies = fx.three_back_to_back();
        let sizes: Vec<&str> = replies
            .iter()
            .map(|r| r.header(HDR_BATCH_SIZE).unwrap())
            .collect();
        assert_eq!(sizes, ["1", "2", "2"]);
        let inference = f64s(&replies, HDR_INFERENCE_SECS);
        assert_eq!(inference[1], inference[2], "one backend call for both");
        let waits = f64s(&replies, HDR_SERVICE_SECS);
        assert_eq!(waits[0], 0.0, "dispatched to an idle replica");
        assert!(
            waits[1] >= inference[0] * 0.5 && waits[2] >= inference[0] * 0.5,
            "both waited out the first batch: {waits:?} vs {inference:?}"
        );
        let mut sizes = fx.seen.values("serving.batch.size");
        sizes.sort_by(f64::total_cmp);
        assert_eq!(sizes, [1.0, 2.0], "recorded per begun batch");
        assert_eq!(fx.seen.values("comm.queue.depth"), vec![1.0, 1.0, 2.0]);
    }

    #[test]
    fn an_idle_noop_replica_answers_on_the_dispatching_thread() {
        let fx = fixture(ModelSpec::noop(), 8);
        let (requester, item) = fx.item();
        fx.pool.dispatch(item, fx.clock.now());
        // No thread but this one could have served it: the pool has none.
        assert!(!fx.executor.is_started());
        assert_eq!(
            fx.pool.total_outstanding(),
            0,
            "answered before dispatch returned"
        );
        let reply = requester.join().unwrap();
        assert_eq!(reply.kind, KIND_INFER_REPLY);
        assert_eq!(reply.f64_header(HDR_SERVICE_SECS), Some(0.0));
        fx.pool.quiesce(); // nothing outstanding: returns at once
    }

    #[test]
    fn batches_of_a_pool_whose_executor_is_gone_fail_instead_of_hanging() {
        let mut fx = fixture(ModelSpec::sim_llama_8b(), 8);
        // Replacing the only strong reference drops the pool the replicas point at.
        fx.executor = Arc::new(Pool::new(Arc::clone(&fx.clock)));
        let (requester, item) = fx.item();
        fx.pool.dispatch(item, fx.clock.now());
        let reply = requester.join().unwrap();
        assert_eq!(reply.kind, KIND_ERROR);
        assert!(reply.header(HDR_ERROR).unwrap().contains("executor"));
        fx.pool.quiesce();
    }
}
