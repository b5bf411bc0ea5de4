//! The bounded executor's machinery: a run queue, a fixed worker pool and one timer
//! thread with its heaps.
//!
//! A *run* is anything resumable ([`Resume`]): the pool never looks inside it. What
//! the pool owns is **who may advance a run when**. Every run embeds a [`RunCell`]
//! whose status is one of
//!
//! * `Running` — some thread holds the run and is advancing it (a run is created
//!   held by its creator);
//! * `Idle` — parked: the next wake-up enqueues it;
//! * `Queued` — on the run queue, a worker will pick it up;
//! * `Notified` — woken *while* a thread was still advancing it: that thread must
//!   advance it once more before letting go, so the wake-up is not lost;
//! * `Done` — finished; wake-ups are ignored.
//!
//! Wake-ups ([`Pool::wake`], an expired timer) only ever flip the status and push onto
//! the run queue — they never advance a run inline — so they are safe to issue under a
//! scheduler's queue lock. Duplicate wake-ups cost one enqueue. The run-queue lock
//! and the timer lock are leaves: no other lock is taken while one of them is held.
//!
//! [`Pool::advance_or_wake`] is the other verb: *the thread that makes a run runnable
//! advances it*. A parked run (`Idle`) is claimed and resumed **on the calling
//! thread**; a run somebody holds is notified exactly as [`Pool::wake`] would, so its
//! holder advances it once more. Nothing is enqueued and no thread is woken: a request
//! that finds its service's runs parked is served on the thread that sent it. It is
//! legal only where running the step is — with **no lock held that the step takes**
//! (after a mailbox push, never under a scheduler lock) — and only for runs whose
//! `resume` is happy on a foreign thread (it may not block for long: the caller is
//! waiting). The serving plane's two runs are built for it; tasks are not advanced this
//! way except by the thread that submits them, which creates them held.
//!
//! Timers are one kind: a heap of deadlines on the session clock (compute, staging and
//! backoff sleeps of tasks; inference batches of services). The timer thread sleeps to
//! the earliest through [`crate::clock::Clock::sleep_interruptibly`], so a manual clock
//! works too. An entry carries the generation its run had when the entry was made; a
//! run that has since parked on a later deadline has a newer generation, and the stale
//! entry is dropped when popped. An entry is never searched for. It owns its run: a
//! sleeping run has no other holder, and the entry is popped when the sleep ends.
//!
//! Nothing is started eagerly: the workers and the timer thread are spawned by the
//! first enqueue or timer, sized from `available_parallelism`, and
//! [`Pool::shutdown`] — or dropping the pool — joins them for good. A session that
//! never parks a run never starts them.
//!
//! **Ownership.** A session-clock timer entry owns its run, so a run that owns the
//! pool closes a cycle which only an explicit [`Pool::shutdown`] breaks (the executor
//! does that for its task runs). Runs whose host may simply be dropped — a standalone
//! service's front-end and replicas — hold the pool as a [`Weak`](std::sync::Weak)
//! and upgrade it for the length of one call; should that upgrade turn out to be the
//! last reference, the pool is dropped on one of its own threads, which `shutdown`
//! does not try to join.

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::clock::{Interrupt, SharedClock, SimTime};

const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// Something a worker can advance to its next park.
pub trait Resume: Send + Sync + 'static {
    /// The scheduling state the pool keeps for this run.
    fn cell(&self) -> &RunCell;
    /// Advance until the run parks or finishes. Called by a worker that holds the run
    /// (`Running`); must end in [`RunCell::release`] or [`RunCell::finish`], or hand
    /// the held run to another thread that will.
    fn resume(self: Arc<Self>);
}

/// `T` on a cache line of its own: aligned to one and padded to its end, so that
/// nothing else is written on the line. For the word one thread polls while another
/// works next to it (a service's turn), and for the state one holder writes per request,
/// kept together and apart from what everybody reads.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct OwnLine<T>(pub T);

impl<T> std::ops::Deref for OwnLine<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Per-run scheduling state: who holds the run, and which timer entries still count.
pub struct RunCell {
    status: AtomicU8,
    generation: AtomicU64,
}

impl RunCell {
    /// A cell for a run its creator is about to advance.
    pub fn held() -> Self {
        Self::with_status(RUNNING)
    }

    /// A cell for a run that is created parked: its first wake-up resumes it.
    pub fn parked() -> Self {
        Self::with_status(IDLE)
    }

    fn with_status(status: u8) -> Self {
        RunCell {
            status: AtomicU8::new(status),
            generation: AtomicU64::new(0),
        }
    }

    /// Register a wake-up the caller will serve itself: a parked run is taken (true: the
    /// caller holds it now and must advance it), a held one is notified, so that its
    /// holder advances it once more. What [`Pool::advance_or_wake`] does, for a caller
    /// that has the run but no `Arc` of it.
    pub fn hold_or_notify(&self) -> bool {
        self.claim(RUNNING)
    }

    /// Register a wake-up: a parked run goes to `claimed` (`Queued` for a wake-up that
    /// enqueues, `Running` for one that advances inline), a held run to `Notified`.
    /// True if the caller took the parked run and must enqueue or advance it.
    fn claim(&self, claimed: u8) -> bool {
        loop {
            let (seen, next) = match self.status.load(Ordering::Acquire) {
                IDLE => (IDLE, claimed),
                RUNNING => (RUNNING, NOTIFIED),
                _ => return false,
            };
            if self
                .status
                .compare_exchange(seen, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return next == claimed;
            }
        }
    }

    /// Take a parked run without waking it: `Idle → Running` and nothing else — a run
    /// somebody holds is left as it is, not notified. True if the caller now holds the
    /// run and must [`Resume::resume`] it. This is how a sender takes a server's turn
    /// *before* it queues its request (see `hpcml_comm::reqrep`).
    pub fn try_hold(&self) -> bool {
        // Looked at before it is written: a waiting sender polls this, and a failed
        // compare-exchange would take the holder's cache line from it every time.
        self.status.load(Ordering::Acquire) == IDLE
            && self
                .status
                .compare_exchange(IDLE, RUNNING, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
    }

    /// Let go of a parked run. False if a wake-up landed meanwhile: the caller still
    /// holds the run and must advance it again.
    pub fn release(&self) -> bool {
        let released = self
            .status
            .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if !released {
            self.status.store(RUNNING, Ordering::Release);
        }
        released
    }

    /// The body of a [`Resume::resume`] that never finishes: advance the held run with
    /// `step` until no wake-up landed during the last one, then let go of it.
    pub fn advance_until_parked(&self, mut step: impl FnMut()) {
        loop {
            step();
            if self.release() {
                return;
            }
        }
    }

    /// Mark the run finished; later wake-ups are ignored.
    pub fn finish(&self) {
        self.status.store(DONE, Ordering::Release);
    }
}

/// A session-clock timer entry, owning its run; the heap is a min-heap on `at`.
struct Timer {
    at: SimTime,
    generation: u64,
    run: Arc<dyn Resume>,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other.at.cmp(&self.at)
    }
}

#[derive(Default)]
struct RunQueue {
    runs: VecDeque<Arc<dyn Resume>>,
    /// Workers asleep on `work`.
    idle: usize,
    shutdown: bool,
}

#[derive(Default)]
struct Timers {
    /// Deadlines on the session clock; the entry owns the sleeping run.
    by_clock: BinaryHeap<Timer>,
    shutdown: bool,
}

struct Shared {
    clock: SharedClock,
    queue: Mutex<RunQueue>,
    work: Condvar,
    timers: Mutex<Timers>,
    /// Wakes the timer thread when an earlier deadline arrives or on shutdown.
    interrupt: Arc<Interrupt>,
}

/// Run queue + workers + timer thread (see the module docs).
pub struct Pool {
    shared: Arc<Shared>,
    /// Empty until the first enqueue or timer.
    threads: Mutex<Vec<JoinHandle<()>>>,
    started: AtomicBool,
}

impl Pool {
    /// Create a pool over `clock`; no thread is spawned yet.
    pub fn new(clock: SharedClock) -> Self {
        Pool {
            shared: Arc::new(Shared {
                clock,
                queue: Mutex::new(RunQueue::default()),
                work: Condvar::new(),
                timers: Mutex::new(Timers::default()),
                interrupt: Interrupt::new(),
            }),
            threads: Mutex::new(Vec::new()),
            started: AtomicBool::new(false),
        }
    }

    /// Whether the workers and the timer thread are running.
    pub fn is_started(&self) -> bool {
        self.started.load(Ordering::Acquire)
    }

    fn ensure_started(&self) {
        if self.is_started() {
            return;
        }
        let mut threads = self.threads.lock();
        if self.is_started() {
            return;
        }
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        for i in 0..workers {
            let shared = Arc::clone(&self.shared);
            threads.push(spawn(format!("executor-worker-{i}"), move || {
                shared.work_loop()
            }));
        }
        let shared = Arc::clone(&self.shared);
        threads.push(spawn("executor-timer".to_string(), move || {
            shared.timer_loop()
        }));
        self.started.store(true, Ordering::Release);
    }

    /// Wake `run`: resume it on a worker if it is parked, or make the thread that
    /// is advancing it right now advance it once more. Only enqueues — safe under a
    /// scheduler lock.
    pub fn wake<R: Resume>(&self, run: &Arc<R>) {
        if run.cell().claim(QUEUED) {
            self.ensure_started();
            self.shared.enqueue(Arc::clone(run) as Arc<dyn Resume>);
        }
    }

    /// Advance `run` on the calling thread if it is parked; otherwise as
    /// [`Pool::wake`]: the thread that is advancing it right now advances it once
    /// more. Never enqueues — which is why it needs no pool to call it on. See the
    /// module docs for when this is legal: no lock the step takes may be held.
    pub fn advance_or_wake<R: Resume>(run: &Arc<R>) {
        if run.cell().hold_or_notify() {
            Arc::clone(run).resume();
        }
    }

    /// Wake `run` once the session clock reads `at`, unless it parks anew before: a
    /// new generation of the run starts, and every older entry of it goes stale. The
    /// timer thread is interrupted if `at` is its new earliest deadline.
    pub fn wake_at_clock<R: Resume>(&self, run: &Arc<R>, at: SimTime) {
        self.ensure_started();
        let generation = run.cell().generation.fetch_add(1, Ordering::AcqRel) + 1;
        let earliest = {
            let by_clock = &mut self.shared.timers.lock().by_clock;
            let earliest = by_clock.peek().is_none_or(|head| at < head.at);
            by_clock.push(Timer {
                at,
                generation,
                run: Arc::clone(run) as Arc<dyn Resume>,
            });
            earliest
        };
        if earliest {
            self.shared.interrupt.raise();
        }
    }

    /// Stop and join the workers and the timer thread, if they were started, and
    /// drop whatever is still queued or timed. Terminal: a pool that ran does not
    /// start again.
    pub fn shutdown(&self) {
        let threads = std::mem::take(&mut *self.threads.lock());
        if threads.is_empty() {
            return;
        }
        self.shared.queue.lock().shutdown = true;
        self.shared.work.notify_all();
        self.shared.timers.lock().shutdown = true;
        self.shared.interrupt.raise();
        let this_thread = std::thread::current().id();
        for handle in threads {
            // A run that upgraded its weak handle may be the pool's last holder and
            // drop it on a worker: that worker ends by itself once the step returns.
            if handle.thread().id() != this_thread {
                let _ = handle.join();
            }
        }
        self.shared.queue.lock().runs.clear();
        self.shared.timers.lock().by_clock.clear();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What a caught panic said, for the error a failed step leaves behind: a step that
/// panics must fail its own work and not the thread — a pool worker, or a client that
/// advanced the run inline — it happened to run on.
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string())
}

fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("failed to spawn executor pool thread")
}

impl Shared {
    fn enqueue(&self, run: Arc<dyn Resume>) {
        let mut queue = self.queue.lock();
        queue.runs.push_back(run);
        if queue.idle > 0 {
            self.work.notify_one();
        }
    }

    fn work_loop(&self) {
        loop {
            let run = {
                let mut queue = self.queue.lock();
                loop {
                    if queue.shutdown {
                        return;
                    }
                    if let Some(run) = queue.runs.pop_front() {
                        break run;
                    }
                    queue.idle += 1;
                    self.work.wait(&mut queue);
                    queue.idle -= 1;
                }
            };
            run.cell().status.store(RUNNING, Ordering::Release);
            run.resume();
        }
    }

    fn timer_loop(&self) {
        loop {
            let mut due: Vec<(u64, Arc<dyn Resume>)> = Vec::new();
            let next = {
                let mut timers = self.timers.lock();
                if timers.shutdown {
                    return;
                }
                let now = self.clock.now();
                while timers.by_clock.peek().is_some_and(|t| t.at <= now) {
                    due.extend(timers.by_clock.pop().map(|t| (t.generation, t.run)));
                }
                timers.by_clock.peek().map(|t| t.at)
            };
            if due.is_empty() {
                self.clock.sleep_interruptibly(next, &self.interrupt);
                continue;
            }
            for (generation, run) in due {
                let cell = run.cell();
                if cell.generation.load(Ordering::Acquire) == generation && cell.claim(QUEUED) {
                    self.enqueue(run);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockSpec;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    /// A run that counts its resumes and parks again after each.
    struct Counter {
        cell: RunCell,
        resumed: AtomicUsize,
    }

    impl Counter {
        fn parked() -> Arc<Self> {
            Arc::new(Counter {
                cell: RunCell::parked(),
                resumed: AtomicUsize::new(0),
            })
        }

        fn wait_for(&self, resumes: usize) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.resumed.load(Ordering::Acquire) < resumes {
                assert!(Instant::now() < deadline, "run was not resumed");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    impl Resume for Counter {
        fn cell(&self) -> &RunCell {
            &self.cell
        }
        fn resume(self: Arc<Self>) {
            self.cell.advance_until_parked(|| {
                self.resumed.fetch_add(1, Ordering::AcqRel);
            });
        }
    }

    #[test]
    fn own_line_shares_its_cache_line_with_nothing() {
        use std::mem::{align_of, size_of};
        assert_eq!(align_of::<OwnLine<RunCell>>(), 64);
        assert_eq!(
            size_of::<OwnLine<RunCell>>(),
            64,
            "padded to the line's end"
        );
        assert_eq!(size_of::<OwnLine<[u8; 65]>>(), 128, "or to the next one's");
        assert!(
            OwnLine(RunCell::parked()).try_hold(),
            "reads as what it holds"
        );
    }

    #[test]
    fn nothing_starts_until_the_first_wake_and_shutdown_joins() {
        let pool = Pool::new(ClockSpec::scaled(1000.0).build());
        assert!(!pool.is_started());
        pool.shutdown(); // never started: a no-op
        let run = Counter::parked();
        pool.wake(&run);
        assert!(pool.is_started());
        run.wait_for(1);
        pool.shutdown();
        pool.shutdown(); // already joined: a no-op
    }

    #[test]
    fn a_wake_during_an_advance_causes_one_more_advance_not_an_enqueue() {
        let cell = RunCell::held();
        assert!(!cell.claim(QUEUED), "a held run is notified, not queued");
        assert!(!cell.claim(QUEUED), "duplicates collapse");
        assert!(!cell.release(), "the holder must advance again");
        assert!(cell.release(), "nothing landed since");
        assert!(
            cell.claim(QUEUED),
            "a parked run is queued by the first wake"
        );
        assert!(!cell.claim(QUEUED), "and only by the first");
        cell.finish();
        assert!(!cell.claim(QUEUED), "a finished run ignores wake-ups");
        assert!(!cell.try_hold(), "and cannot be taken");
    }

    #[test]
    fn try_hold_takes_a_parked_run_and_leaves_a_held_one_unnotified() {
        let cell = RunCell::parked();
        assert!(cell.try_hold());
        assert!(!cell.try_hold(), "held: not taken twice");
        assert!(
            cell.release(),
            "and the failed attempt left no wake-up behind"
        );
        assert!(cell.claim(QUEUED));
        assert!(
            !cell.try_hold(),
            "a queued run belongs to the worker that pops it"
        );
    }

    #[test]
    fn advance_or_wake_runs_a_parked_run_on_the_caller_and_notifies_a_held_one() {
        /// Records which thread resumed it; wakes itself once from inside the first
        /// advance, the way a request arriving mid-pass does.
        struct Inline {
            cell: RunCell,
            resumed_on: Mutex<Vec<std::thread::ThreadId>>,
        }
        impl Resume for Inline {
            fn cell(&self) -> &RunCell {
                &self.cell
            }
            fn resume(self: Arc<Self>) {
                loop {
                    let first = {
                        let mut on = self.resumed_on.lock();
                        on.push(std::thread::current().id());
                        on.len() == 1
                    };
                    if first {
                        Pool::advance_or_wake(&self); // held: notifies, does not recurse
                    }
                    if self.cell.release() {
                        return;
                    }
                }
            }
        }
        let run = Arc::new(Inline {
            cell: RunCell::parked(),
            resumed_on: Mutex::new(Vec::new()),
        });
        Pool::advance_or_wake(&run);
        let me = std::thread::current().id();
        assert_eq!(
            *run.resumed_on.lock(),
            vec![me, me],
            "advanced here, and once more for the wake-up that landed meanwhile"
        );
        // Parked again: the next call advances it again; a finished run is left alone.
        Pool::advance_or_wake(&run);
        assert_eq!(run.resumed_on.lock().len(), 3);
        run.cell.finish();
        Pool::advance_or_wake(&run);
        assert_eq!(run.resumed_on.lock().len(), 3);
    }

    #[test]
    fn a_pool_dropped_on_its_own_worker_does_not_join_itself() {
        /// Holds the pool's last strong reference and lets go of it when resumed.
        struct LastHolder {
            cell: RunCell,
            pool: Mutex<Option<Arc<Pool>>>,
            dropped: AtomicBool,
        }
        impl Resume for LastHolder {
            fn cell(&self) -> &RunCell {
                &self.cell
            }
            fn resume(self: Arc<Self>) {
                drop(self.pool.lock().take());
                self.dropped.store(true, Ordering::Release);
                self.cell.finish();
            }
        }
        let pool = Arc::new(Pool::new(ClockSpec::scaled(1000.0).build()));
        let run = Arc::new(LastHolder {
            cell: RunCell::parked(),
            pool: Mutex::new(Some(Arc::clone(&pool))),
            dropped: AtomicBool::new(false),
        });
        pool.wake(&run);
        drop(pool);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !run.dropped.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "the worker hung in its own join");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn timers_fire_in_deadline_order_and_stale_generations_are_dropped() {
        let clock = ClockSpec::scaled(1000.0).build();
        let pool = Pool::new(Arc::clone(&clock));
        let (late, early, stale) = (Counter::parked(), Counter::parked(), Counter::parked());
        pool.wake_at_clock(&late, clock.now() + Duration::from_secs(40));
        pool.wake_at_clock(&early, clock.now() + Duration::from_secs(5));
        // Superseded by a newer park of the same run: only the second entry counts.
        pool.wake_at_clock(&stale, clock.now() + Duration::from_secs(1));
        pool.wake_at_clock(&stale, clock.now() + Duration::from_secs(3_600_000));
        early.wait_for(1);
        assert_eq!(
            late.resumed.load(Ordering::Acquire),
            0,
            "40 s is not due yet"
        );
        late.wait_for(1);
        assert_eq!(stale.resumed.load(Ordering::Acquire), 0);
        pool.shutdown();
    }
}
