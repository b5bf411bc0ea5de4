//! Replica pools: N `ModelHost` replicas behind one endpoint, with
//! least-outstanding-requests routing over lock-free per-replica counters — and the
//! one place where requests share a backend, and so where they batch.
//!
//! The serving front-end hands each admitted request to [`ReplicaPool::dispatch`],
//! which routes it to the live replica with the fewest outstanding requests. A replica
//! admits requests at decode-step granularity, as in Orca's iteration-level scheduling:
//! **a request dispatched to a replica with fewer than `max_batch_size` live sequences
//! joins the running batch there and then.** Every live sequence progresses at
//! [`progress_rate`] of the batch's width, in solo seconds per second, and is answered
//! when its own time is up; only requests beyond the cap queue, and each joins when a
//! sequence ends and frees its width. A replica never idles while a request waits,
//! never waits for company, and never holds a short request back for a long one.
//!
//! **A replica is a run, not a thread**: a [`Resume`] on the executor's [`Pool`], parked
//! while it has nothing to do. A dispatch that finds it parked takes it and, if its
//! batch has room and nothing is queued, *begins the request it brought* — the backend
//! call ([`ModelHost::begin`]) and, when the request costs no compute time (NOOP), the
//! reply too — there and then, on the dispatching thread, which for a request that found
//! its service idle is the requesting client's own. While sequences are live the
//! replica parks on the pool's session-clock timer heap until the earliest of them ends,
//! and files that one timer again whenever the width changes (the new entry supersedes
//! the stale one); a worker of the pool answers what ended and admits what waits. Only
//! behind a full batch, or a replica somebody else is advancing at that moment, is a
//! request queued — and every request, carried or queued, goes onto the backend through
//! the same `Replica::begin`. A backend call that panics fails its request with a
//! [`KIND_ERROR`] reply and nothing else.
//!
//! Outstanding counts are plain atomics — routing never takes a lock; the replica
//! *list* sits behind a `RwLock` only so replicas can join (scale-up) and leave at
//! runtime: [`ReplicaPool::begin_drain`] marks a replica unroutable, in-flight requests
//! complete, and [`ReplicaPool::reap_drained`] removes it once idle. Recorded here:
//! `serving.replica.outstanding` and `comm.queue.depth` per dispatch (the replica's
//! unanswered requests, and how many requests deep its queue was with this one — 1 for
//! a request begun at once), `serving.batch.size` per begun request (the width it
//! joined, itself included) — these three as counts (`ScalarSink::record_count`) —
//! and `serving.queue.delay_secs` per answered request.
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

use crate::backend::{progress_rate, BackendResult};
use crate::host::ModelHost;
use crate::protocol::*;
use crate::request::InferenceRequest;

/// One admitted request on its way from admission to a replica: the request — parsed
/// once, at admission, and never copied — where its reply goes and what it has waited
/// so far. A replica's queue holds these; a live sequence owns one.
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
    /// prices a queued request's wait as `max(0, join - dispatched_secs)`; a request
    /// that joined the batch at dispatch waited for nothing.
    pub dispatched_secs: f64,
}

/// Answer `item` with a [`KIND_ERROR`] reply saying `why`.
fn reply_error(item: BatchItem, why: &str) {
    let reply = Message::new(item.topic, KIND_ERROR)
        .with_header(HDR_ERROR, why.to_string())
        .with_header(HDR_REQUEST_ID, item.request.request_id);
    let _ = item.responder.reply(reply);
}

/// What the replicas of one pool share.
struct Shared {
    clock: SharedClock,
    sink: SharedScalarSink,
    /// Most sequences a replica runs on its backend at once.
    max_batch_size: usize,
    /// Files the replicas' compute timers. Weak, because a timer entry owns its
    /// replica: whoever hosts the service owns the pool.
    executor: Weak<Pool>,
    /// EWMA of observed per-request service seconds (f64 bits), fed by the replicas
    /// and read by admission control to estimate queue delay.
    est_request_secs_bits: AtomicU64,
    /// Threads in [`ReplicaPool::quiesce`]; a request answered with nobody there costs
    /// no condvar notify, which is a system call.
    quiescing: AtomicUsize,
    quiesce_lock: Mutex<()>,
    /// Signalled, under `quiesce_lock`, when a request is answered while someone
    /// quiesces.
    answered: Condvar,
}

/// A request on the backend: what the backend answered for it and how far along it is.
struct Sequence {
    item: BatchItem,
    result: BackendResult,
    /// Solo seconds still to compute.
    remaining_secs: f64,
    /// Virtual seconds on the backend since it joined.
    inference_secs: f64,
    /// Virtual seconds from its dispatch to its join.
    replica_wait_secs: f64,
    /// The width of the batch it joined, itself included.
    width: usize,
}

/// The state of a replica's run; locked only by the thread holding the run. In
/// declaration order, so that the live count a dispatch reads sits beside the lock word.
#[repr(C)]
struct Serving {
    /// In join order; at most `max_batch_size`.
    live: Vec<Sequence>,
    /// Virtual time the live sequences' progress is accounted up to.
    stepped_at: SimTime,
    /// The instant the replica's filed timer entry is for, if one is.
    filed: Option<SimTime>,
}

impl Serving {
    /// Advance every live sequence by `secs`, to `to`, at the rate of the width they
    /// share. `secs` is passed exactly rather than taken from the nanosecond instants,
    /// so that a sequence alone is on the backend for exactly its solo cost.
    fn progress(&mut self, secs: f64, to: SimTime) {
        let rate = progress_rate(self.live.len());
        for sequence in &mut self.live {
            sequence.remaining_secs -= secs * rate;
            sequence.inference_secs += secs;
        }
        self.stepped_at = to;
    }

    /// The live sequence that ends first, when, and in how many seconds from
    /// `stepped_at`, at the width they share now.
    fn next_end(&self) -> Option<(usize, SimTime, f64)> {
        let rate = progress_rate(self.live.len());
        let (first, sequence) = self
            .live
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.remaining_secs.total_cmp(&b.1.remaining_secs))?;
        let secs = sequence.remaining_secs.max(0.0) / rate;
        Some((first, self.stepped_at + Duration::from_secs_f64(secs), secs))
    }
}

/// One replica: a host, its request queue and lock-free routing state — a resumable
/// run.
struct Replica {
    id: u64,
    host: Arc<ModelHost>,
    draining: AtomicBool,
    shared: Arc<Shared>,
    /// What is written per request, kept apart from what every dispatch only reads.
    hot: OwnLine<Hot>,
}

/// In declaration order: run, count and queue fill the first line, the lock word of
/// `serving` and the live count start the second — the two lines a request that is
/// begun and answered at once writes.
#[repr(C)]
struct Hot {
    cell: RunCell,
    outstanding: AtomicU64,
    /// Dispatched requests that wait — for room in the batch, or for whoever advances
    /// the replica right now — in dispatch order. A leaf lock.
    queue: Mutex<VecDeque<BatchItem>>,
    serving: Mutex<Serving>,
}

impl Replica {
    /// Requests dispatched to this replica and not yet completed.
    fn outstanding(&self) -> u64 {
        // SeqCst pairs with `settle` and `quiesce` (see there); routing only needs a
        // recent value.
        self.hot.outstanding.load(Ordering::SeqCst)
    }

    /// Whether the replica is draining (unroutable, finishing in-flight work).
    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Take a request dispatched at `now`: begun at once, joining the running batch, if
    /// the replica is parked, its batch has room and nothing is queued; queued
    /// otherwise — and served, if this thread can have the run, as far as things are
    /// due. Returns how many requests deep the replica's queue was with this one (1:
    /// begun at once).
    fn accept(self: &Arc<Self>, item: BatchItem, now: SimTime) -> usize {
        let hot = &*self.hot;
        if !hot.cell.try_hold() {
            // Somebody is advancing the replica: behind what it has, and it looks again.
            let depth = self.enqueue(item);
            Pool::advance_or_wake(self);
            return depth;
        }
        let mut serving = hot.serving.lock();
        self.step(&mut serving, now);
        let carried =
            serving.live.len() < self.shared.max_batch_size && hot.queue.lock().is_empty();
        let depth = if carried {
            self.begin(&mut serving, item, now, 0.0);
            self.file_timer(&mut serving);
            1
        } else {
            self.enqueue(item)
        };
        drop(serving);
        // Nothing was queued when the run was taken, and whoever queues behind a held
        // run notifies it: after a request begun here there is nothing to look for
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

    /// Serve until there is nothing to do right now: answer every sequence whose time
    /// is up, admit what queued into the width that frees, and file the timer for the
    /// next end. Returns with the replica either idle or waiting for its timer.
    fn advance(self: &Arc<Self>) {
        let mut serving = self.hot.serving.lock();
        let now = self.shared.clock.now();
        self.step(&mut serving, now);
        while serving.live.len() < self.shared.max_batch_size {
            let Some(item) = self.hot.queue.lock().pop_front() else {
                break;
            };
            let waited_secs = (now.as_secs_f64() - item.dispatched_secs).max(0.0);
            self.begin(&mut serving, item, now, waited_secs);
        }
        self.file_timer(&mut serving);
    }

    /// Answer, in the order they end, the live sequences whose time is up by `now`:
    /// each one that ends frees its share of the backend for the rest from that instant.
    fn step(&self, serving: &mut Serving, now: SimTime) {
        while let Some((first, end, secs)) = serving.next_end() {
            if end > now {
                return;
            }
            serving.progress(secs, end);
            let ended = serving.live.remove(first);
            self.answer(ended);
        }
    }

    /// Begin `item` at `now`, after `waited_secs` in the queue, on the replica the
    /// caller holds — the one way a request gets onto the backend, whether its dispatch
    /// carried it here or it waited: make the backend call, then answer at once if the
    /// request costs no time, or join the live sequences until its time is up.
    fn begin(&self, serving: &mut Serving, item: BatchItem, now: SimTime, waited_secs: f64) {
        let width = serving.live.len() + 1;
        self.shared
            .sink
            .record_count("serving.batch.size", width as u64);
        // The backend is the one piece of foreign code on this path.
        let begun = catch_unwind(AssertUnwindSafe(|| self.host.begin(&item.request)))
            .map_err(|panic| format!("backend panicked: {}", panic_message(&*panic)))
            .and_then(|begun| begun.map_err(|e| e.to_string()));
        let result = match begun {
            Ok(result) => result,
            Err(err) => return self.fail(item, &err),
        };
        // The live sequences ran at the old width until now, and run at the new one on.
        let joined = now.max(serving.stepped_at);
        serving.progress(joined.since(serving.stepped_at).as_secs_f64(), joined);
        let sequence = Sequence {
            item,
            remaining_secs: result.compute_secs,
            result,
            inference_secs: 0.0,
            replica_wait_secs: waited_secs,
            width,
        };
        if sequence.remaining_secs > 0.0 {
            serving.live.push(sequence);
        } else {
            // Answered where it began: the backend was never busy with it.
            self.answer(sequence);
        }
    }

    /// File the replica's one timer for the earliest end of its live sequences, unless
    /// the entry filed already is for that instant. Without an executor nothing ends:
    /// the live sequences fail.
    fn file_timer(self: &Arc<Self>, serving: &mut Serving) {
        let next = serving.next_end().map(|(_, end, _)| end);
        if next == serving.filed {
            return;
        }
        serving.filed = next;
        let Some(end) = next else {
            return;
        };
        match self.shared.executor.upgrade() {
            Some(executor) => executor.wake_at_clock(self, end),
            None => {
                serving.filed = None;
                for sequence in serving.live.drain(..) {
                    self.fail(sequence.item, "the service's executor pool is gone");
                }
            }
        }
    }

    /// `sequence`'s time is up: answer it.
    fn answer(&self, sequence: Sequence) {
        let Sequence {
            item,
            result,
            inference_secs,
            replica_wait_secs,
            width,
            ..
        } = sequence;
        let shared = &self.shared;
        // What the request cost its replica: its time on the backend, shared with the
        // batch it joined.
        update_estimate(&shared.est_request_secs_bits, inference_secs / width as f64);
        // The paper's `service` component: endpoint queueing (measured at admission),
        // parsing overhead, admission to dispatch, and replica queueing until the
        // request joined the batch. Every term is a virtual-time quantity with no
        // thread wake-up inside, so real dispatch jitter never scales into the
        // decomposition.
        let queue_secs = item.admission_queue_secs + item.batch_wait_secs + replica_wait_secs;
        let service_secs = queue_secs + item.handling_secs;
        shared.sink.record("serving.queue.delay_secs", queue_secs);
        // In key order: each header lands at the end of the table.
        let reply = Message::new(item.topic, KIND_INFER_REPLY)
            .with_header_room(8)
            .with_u64_header(HDR_BATCH_SIZE, width as u64)
            .with_f64_header(HDR_BATCH_WAIT_SECS, item.batch_wait_secs)
            .with_u64_header(HDR_COMPLETION_TOKENS, result.completion_tokens.into())
            .with_f64_header(HDR_INFERENCE_SECS, inference_secs)
            .with_header(HDR_MODEL, self.host.spec().name.clone())
            .with_u64_header(HDR_PROMPT_TOKENS, result.prompt_tokens.into())
            .with_header(HDR_REQUEST_ID, item.request.request_id)
            .with_f64_header(HDR_SERVICE_SECS, service_secs)
            .with_payload(result.text);
        let _ = item.responder.reply(reply);
        self.settle();
    }

    fn fail(&self, item: BatchItem, why: &str) {
        reply_error(item, why);
        self.settle();
    }

    /// One request of this replica's is answered.
    fn settle(&self) {
        // SeqCst on the count and on `quiescing`, here and in `quiesce`: of a request
        // that is answered and a thread that starts to quiesce, at least one sees the
        // other.
        self.hot.outstanding.fetch_sub(1, Ordering::SeqCst);
        let shared = &self.shared;
        if shared.quiescing.load(Ordering::SeqCst) > 0 {
            let _quiescing = shared.quiesce_lock.lock();
            shared.answered.notify_all();
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
    /// Build a pool over pre-loaded hosts whose replicas park on `executor` and run up
    /// to `max_batch_size` requests on their backends at once. Spawns nothing; the pool
    /// is held weakly and must outlive the requests in flight.
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
                answered: Condvar::new(),
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
                    live: Vec::new(),
                    stepped_at: SimTime::ZERO,
                    filed: None,
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
    /// routing metrics: a replica whose batch has room and nothing queued begins it on
    /// this thread, there and then, in its running batch; behind a full one it queues
    /// and joins when a sequence ends. Replies with an error if no replica is routable.
    /// Call with no lock held that a replica step takes (see the module docs).
    pub fn dispatch(&self, item: BatchItem, now: SimTime) {
        let Some(replica) = self.route() else {
            reply_error(item, "no live replicas");
            return;
        };
        let outstanding_after = replica.hot.outstanding.fetch_add(1, Ordering::SeqCst) + 1;
        let sink = &self.shared.sink;
        sink.record_count("serving.replica.outstanding", outstanding_after);
        let depth = replica.accept(item, now);
        sink.record_count("comm.queue.depth", depth as u64);
    }

    /// Requests queued at a replica with fewer than `max_batch_size` live sequences —
    /// 0 whenever every replica has parked, for a pool whose batches admit what waits
    /// as soon as they have room. Takes each replica's `serving` lock, which otherwise
    /// only the thread holding the replica takes: a check for tests, not for the
    /// request path.
    pub fn queued_below_the_cap(&self) -> usize {
        let replicas = self.replicas.read();
        let open = replicas.iter().filter_map(|r| {
            let serving = r.hot.serving.lock();
            (serving.live.len() < self.shared.max_batch_size).then(|| r.hot.queue.lock().len())
        });
        open.sum()
    }

    /// The earliest instant a replica's timer is filed for: when its next live sequence
    /// ends. Takes each replica's `serving` lock like [`ReplicaPool::queued_below_the_cap`]:
    /// a check for tests that move a manual clock from one end to the next.
    pub fn next_timer(&self) -> Option<SimTime> {
        let replicas = self.replicas.read();
        replicas
            .iter()
            .filter_map(|r| r.hot.serving.lock().filed)
            .min()
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

    /// Observed per-request service seconds: an EWMA over answered requests of each
    /// one's time on the backend divided by the width of the batch it joined. Zero
    /// until a first request calibrates it.
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
    /// signal when they answer; the executor pool must be alive to end requests.
    pub fn quiesce(&self) {
        let shared = &self.shared;
        let mut guard = shared.quiesce_lock.lock();
        shared.quiescing.fetch_add(1, Ordering::SeqCst);
        while self.total_outstanding() > 0 {
            shared.answered.wait(&mut guard);
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
        /// replies, in dispatch order, once every request has ended.
        fn three_back_to_back(&self) -> Vec<Message> {
            let (requesters, items): (Vec<_>, Vec<_>) = (0..3).map(|_| self.item()).unzip();
            let ids: Vec<String> = items.iter().map(|i| i.request.request_id.clone()).collect();
            for item in items {
                self.pool.dispatch(item, self.clock.now());
            }
            assert!(
                self.executor.is_started(),
                "an LLM request parks on a timer"
            );
            let replies: Vec<Message> = requesters.into_iter().map(|r| r.join().unwrap()).collect();
            self.pool.quiesce();
            assert_eq!(self.pool.total_outstanding(), 0);
            for (reply, id) in replies.iter().zip(&ids) {
                assert_eq!(reply.header(HDR_REQUEST_ID), Some(id.as_str()));
            }
            // Every request recorded the wait it replied with. Requests end on different
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
    fn a_request_dispatched_to_a_busy_replica_joins_its_running_batch() {
        let fx = fixture(ModelSpec::sim_llama_8b(), 8);
        let replies = fx.three_back_to_back();
        let sizes: Vec<&str> = replies
            .iter()
            .map(|r| r.header(HDR_BATCH_SIZE).unwrap())
            .collect();
        assert_eq!(sizes, ["1", "2", "3"], "the width of the batch each joined");
        let waits = f64s(&replies, HDR_SERVICE_SECS);
        assert_eq!(waits, [0.0; 3], "none waited for another to end");
        // Begun one after another, all on this thread, and nothing queued.
        assert_eq!(fx.seen.values("serving.batch.size"), [1.0, 2.0, 3.0]);
        assert_eq!(fx.seen.values("comm.queue.depth"), vec![1.0, 1.0, 1.0]);
        // Each ran slower than alone while it shared the backend, but the batch of
        // three still took less than the three one after another would have.
        let inference = f64s(&replies, HDR_INFERENCE_SECS);
        let longest = inference.iter().copied().fold(0.0, f64::max);
        assert!(inference.iter().all(|&secs| secs > 0.0), "{inference:?}");
        assert!(longest < inference.iter().sum::<f64>(), "{inference:?}");
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
