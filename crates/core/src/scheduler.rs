//! The scheduler: placing tasks and services onto pilot resources.
//!
//! The paper extends RADICAL-Pilot's scheduler to "enact priority relations between
//! services and tasks": services are placed before ordinary tasks competing for the same
//! resources, because workflows generally need their services up before compute tasks
//! can use them. This scheduler provides:
//!
//! * slot allocation with back-pressure: callers wait until resources free up, either
//!   blocked in [`Scheduler::allocate`] or parked and re-polled through
//!   [`Scheduler::poll_placed`] — one wait loop, two ways of sleeping,
//! * service priority (pending service placements starve ordinary tasks, not vice versa),
//! * immediate rejection of requests that could never be satisfied by the node shape,
//! * gang placement: a multi-node MPI request (`ResourceRequest::nodes > 1`) parks in
//!   the same FIFO queues and is granted atomically once enough idle nodes exist,
//! * a bounded backfill window, so that a blocked gang does not idle the pilot.
//!
//! ## Capacity changes have the head serve the window
//!
//! There is one wait queue behind one lock: a service FIFO, a task FIFO and the single
//! active backfill reservation. A request that finds nobody of its class (and no
//! service) parked tries the allocation at once; otherwise it parks in arrival order,
//! so the window below is the *only* overtaking mechanism.
//!
//! Parked waiters are placed by one walk (`serve`, placing through `place`), under the
//! queue lock and **in arrival order**: the service FIFO first, the task FIFO only when
//! no service is left parked, until [`DEFAULT_WINDOW`] waiters have been denied. A
//! waiter that fits is taken out of the queue, has its slot and [`PlacementStats`] put
//! into its `Waiter`, and is notified — a condition variable for a blocked thread, the
//! [`Waker`] of a polled placement, which must only enqueue. Equal requests of a class
//! therefore place, and their blocked callers are woken, in arrival order, and nobody
//! is woken to lose a race.
//!
//! The walk runs in the *pass* of a waiter inside the window. Whoever changes what a
//! waiter could get — [`Scheduler::release`], [`Scheduler::notify_capacity`], a waiter
//! leaving the queue, a cancelled reservation — notifies the head of the serving class
//! and places nobody itself: one wake per change, and by the time the head's owner
//! looks, what a burst of releases frees has come together (see `serve` for what
//! placing at once costs). Apart from walking, a pass takes what a walk left for its
//! waiter. A polled placement has no deadline: it waits until a walk serves it or its
//! owner cancels it. Only a caller blocked in [`Scheduler::allocate`] or
//! [`Scheduler::requeue`] has a timeout, a real-time watchdog: once it has passed, the
//! pass makes one final attempt of its own (a task only when no service waits) and
//! leaves, since a waiter outside the window must not time out while capacity that
//! fits it sits free. The blocking calls run `loop { pass; cond.wait }`, every sleep
//! starting inside the lock hold of the pass before it; [`Scheduler::poll_placed`]
//! runs one pass per call. Everything else is the same code for both.
//!
//! A placement's wait and a gang's drain are measured on the session clock — the
//! allocation's ([`Allocation::clock`]) — read when a request parks, when a drain
//! begins and when a walk or a final attempt hands a parked waiter its slot. A request
//! the fast path places reads no clock and waited 0 s.
//!
//! * **Lock-free gate.** The numbers of parked services and tasks are mirrored in two
//!   atomics that change only under the queue lock. A release reads them first and
//!   takes no lock when nobody is parked — a burst whose capacity never binds. A
//!   request that parks inside the window walks it in its first pass, under the lock
//!   hold that recorded its arrival, so a release that read "nobody parked" a moment
//!   earlier is not lost.
//! * **Lock order.** queue → allocation state.
//!
//! ## Overtakes and gang backfill
//!
//! A window alone would let a wide head be passed for as long as narrower requests
//! keep fitting. Every waiter the walk denies and then passes — a later arrival of
//! its class fitted when it did not — has its overtake counter ticked. When the head
//! is a gang whose counter exceeds [`DEFAULT_MAX_OVERTAKES`] (the walk goes back to
//! the head the moment that happens), the walk opens a backfill reservation for it
//! ([`hpcml_platform::batch::Allocation::begin_drain`]): nodes are pinned to the gang
//! as they free up, invisible to every other request, until `req.nodes` have
//! accumulated and the walk places the gang through the reservation. The window keeps
//! backfilling *around* the pinned nodes.
//!
//! Every gang placement follows a [`GangPacking`](hpcml_platform::GangPacking) policy:
//! its request's [`ResourceRequest::packing`], `Partial` when that is unset.
//! Under `Partial` a gang best-fits across partially free nodes and a drain pins a
//! node as soon as its headroom covers one member share, so sub-node churn that never
//! idles a node cannot starve a draining gang; under `Whole` members claim, and drains
//! pin, idle nodes only.
//!
//! At most one reservation is active — only the head of the serving class drains. A
//! draining gang that times out or is cancelled returns its pinned nodes, and a
//! *service* that parks cancels a task-class reservation (the task head re-opens it
//! once no service waits): pinned nodes never idle-block a service.
//!
//! ## Node failure & requeue
//!
//! When a node fails, its co-resident slots are evicted by the allocation
//! ([`hpcml_platform::batch::Allocation::fail_node`]) and their owners discover the
//! loss through [`Scheduler::slot_lost`]. A victim re-enters placement through
//! [`Scheduler::requeue`], which parks at the *front* of its class: it already waited
//! its turn once. [`Scheduler::release`] tolerates [`ResourceError::NodeFailed`] — the
//! eviction already reclaimed the resources, so the slot is retired and the head
//! notified, the error surfacing only so the caller can tell the two paths apart.
//! [`Scheduler::notify_capacity`] notifies it after an allocation grows
//! ([`hpcml_platform::batch::Allocation::expand`]), which releases no slot.
//! A request too wide for the pilot as it stands waits for an `expand` until
//! [`Scheduler::close`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::Waker;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use hpcml_platform::batch::Allocation;
use hpcml_platform::resources::{ResourceError, ResourceRequest, Slot};
use hpcml_sim::clock::SimTime;

use crate::error::RuntimeError;

/// Default overtake budget before a parked head gang flips into draining mode.
pub const DEFAULT_MAX_OVERTAKES: u32 = 16;

/// How many denied waiters of the serving class a walk looks past: on the plateau of
/// the `task_queue` sweep (1: 2 058, 2: 2 107, 3: 2 147, 4: 2 142–2 155, 8: 2 148,
/// 16: 2 150, 32: 2 146 tasks/s), and what both callers that set a width had picked.
pub const DEFAULT_WINDOW: usize = 4;

/// How a parked waiter is resumed: a thread blocked in [`Scheduler::allocate`] and
/// friends sleeps on a condition variable of its own; a polled placement
/// ([`Scheduler::poll_placed`]) has its owner's [`Waker`] called, which must only
/// enqueue — notifies are issued under the queue lock.
enum WakeSlot {
    Thread(Condvar),
    Task(Waker),
}

/// What a wait ends in.
type Placed = Result<(Slot, PlacementStats), RuntimeError>;

/// One parked placement request: what the walk needs to place it on its owner's
/// behalf, and where it leaves the outcome.
struct Waiter {
    /// The request, its gang packing resolved.
    req: ResourceRequest,
    /// When the request parked, on the session clock.
    parked_at: SimTime,
    /// Armed under the queue lock when the waiter's first pass over the wait loop comes
    /// back pending. A notify before that is a no-op: that first pass is still to come
    /// and reads, under the same lock, the state the notify announced.
    wake: OnceLock<WakeSlot>,
    /// How many later arrivals of this waiter's class were placed while it was denied.
    /// Ticked under the queue lock; atomic only because the waiter is shared.
    overtakes: AtomicU32,
    /// The outcome, from the walk that took this waiter out of the queue. Written and
    /// taken under the queue lock; a mutex only because the waiter is shared.
    served: Mutex<Option<Placed>>,
}

impl Waiter {
    fn notify(&self) {
        match self.wake.get() {
            Some(WakeSlot::Thread(cond)) => {
                cond.notify_one();
            }
            Some(WakeSlot::Task(waker)) => waker.wake_by_ref(),
            None => {}
        }
    }

    /// The condition variable a blocking owner sleeps on (arms the slot on first use).
    fn thread_cond(&self) -> &Condvar {
        match self.wake.get_or_init(|| WakeSlot::Thread(Condvar::new())) {
            WakeSlot::Thread(cond) => cond,
            WakeSlot::Task(_) => unreachable!("a polled placement never blocks"),
        }
    }
}

/// The scheduler-side record of an active backfill reservation.
struct ActiveDrain {
    /// Allocation-side drain id.
    id: u64,
    /// The draining waiter (the head of its class when the drain began).
    owner: Arc<Waiter>,
    /// Class of the owner — a parking service cancels a task-class drain.
    priority: Priority,
    /// When the drain began, on the session clock: `drain_secs` covers only an
    /// interval that ends in a reserved placement, so it goes with a cancelled
    /// reservation.
    since: SimTime,
}

/// Everything behind the queue lock: one arrival-ordered FIFO per priority class and
/// the single active backfill reservation.
#[derive(Default)]
struct QueueState {
    /// Service placements waiting for resources, in arrival order.
    services: VecDeque<Arc<Waiter>>,
    /// Task placements waiting for resources, in arrival order.
    tasks: VecDeque<Arc<Waiter>>,
    /// Mirrors the allocation's drain and is mutated only together with it.
    drain: Option<ActiveDrain>,
}

/// Priority class of a placement request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Service instances: placed first.
    Service,
    /// Ordinary compute tasks.
    Task,
}

/// How a placement was obtained, alongside the slot: the wait, overtake and drain
/// telemetry the executor turns into `task.placement_wait_secs` /
/// `task.gang.overtakes` / `task.gang.drain_secs` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlacementStats {
    /// How many later arrivals of the same class were placed while this request was
    /// parked and did not fit: ticked by the walk for the waiters it denied and then
    /// passed (and by a timed-out waiter's final attempt for those ahead of it) —
    /// never by a race between requests that would both have fitted.
    pub overtakes: u32,
    /// Session-clock seconds spent in draining mode before placing (`None` = never
    /// drained).
    pub drain_secs: Option<f64>,
    /// Session-clock seconds from parking to the walk or final attempt that placed the
    /// request; 0 for a request the fast path placed.
    pub wait_secs: f64,
}

/// A placement request in progress: what [`Scheduler::poll_placed`] advances and
/// what the blocking calls drive internally. It records the request and — once
/// parked — its place in the wait queue, so it must end in a `Ready` poll or be
/// handed to [`Scheduler::cancel_placement`]; dropped while queued it would block the
/// FIFO behind it forever.
#[must_use = "a placement must be polled to Ready or cancelled"]
pub struct Placement {
    req: ResourceRequest,
    priority: Priority,
    /// Park at the front of the class queue (node-failure requeue).
    requeue: bool,
    /// The waiter, from parking until the wait's outcome has been handed out.
    queued: Option<Arc<Waiter>>,
}

impl Placement {
    /// A fresh request, as [`Scheduler::allocate`] takes it.
    pub fn new(req: &ResourceRequest, priority: Priority) -> Self {
        Placement {
            req: *req,
            priority,
            requeue: false,
            queued: None,
        }
    }

    /// A request re-entering placement after a node failure, as
    /// [`Scheduler::requeue`] takes it: it parks at the front of its class.
    pub fn requeued(req: &ResourceRequest, priority: Priority) -> Self {
        Placement {
            requeue: true,
            ..Placement::new(req, priority)
        }
    }
}

/// What one [`Scheduler::poll_placed`] call — one pass over the wait loop — found.
#[derive(Debug)]
pub enum PlacementPoll {
    /// The wait is over: the slot with its [`PlacementStats`], or why there is none.
    Ready(Result<(Slot, PlacementStats), RuntimeError>),
    /// Still queued: poll again when woken.
    Pending,
}

/// How [`Scheduler::enter`] left a placement.
enum Entered<'a> {
    /// Served by the fast path without queueing.
    Placed((Slot, PlacementStats)),
    /// Parked; the queue is locked for the first pass.
    Parked(MutexGuard<'a, QueueState>),
}

/// Scheduler bound to one pilot allocation.
///
/// Lock order: queue → allocation state.
pub struct Scheduler {
    allocation: Arc<Allocation>,
    /// The wait queue: both class FIFOs and the active drain.
    queue: Mutex<QueueState>,
    /// Parked services and parked tasks, changed only under the queue lock and read
    /// without it by [`Scheduler::capacity_changed`] and the accessors.
    waiting_services: AtomicUsize,
    waiting_tasks: AtomicUsize,
    /// Total slots handed out and not yet released (for observability).
    outstanding: AtomicUsize,
    /// Serve window: how many denied waiters of the serving class a walk looks past.
    lookahead: usize,
    /// Overtake budget before a parked head gang flips to draining (`None` = never
    /// drain).
    max_overtakes: Option<u32>,
    /// Set by [`Scheduler::close`]: a request too wide for the pilot fails.
    closed: AtomicBool,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("free_cores", &self.allocation.free_cores())
            .field("free_gpus", &self.allocation.free_gpus())
            .field("waiting_services", &self.waiting_services())
            .field("waiting_tasks", &self.waiting_tasks())
            .field("outstanding_slots", &self.outstanding_slots())
            .field("lookahead", &self.lookahead)
            .finish()
    }
}

impl Scheduler {
    /// Create a scheduler over the given allocation, with a serve window of
    /// [`DEFAULT_WINDOW`].
    pub fn new(allocation: Arc<Allocation>) -> Self {
        Scheduler {
            allocation,
            queue: Mutex::new(QueueState::default()),
            waiting_services: AtomicUsize::new(0),
            waiting_tasks: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(0),
            lookahead: DEFAULT_WINDOW,
            max_overtakes: Some(DEFAULT_MAX_OVERTAKES),
            closed: AtomicBool::new(false),
        }
    }

    /// [`Scheduler::new`] with the serve window pinned to `lookahead` (at least 1,
    /// which is strict FIFO within a class).
    #[cfg(test)]
    fn with_lookahead(allocation: Arc<Allocation>, lookahead: usize) -> Self {
        Scheduler {
            lookahead: lookahead.max(1),
            ..Scheduler::new(allocation)
        }
    }

    /// Test-only: set the overtake budget, which is [`DEFAULT_MAX_OVERTAKES`] for
    /// every scheduler the runtime builds. A head gang overtaken more than `budget`
    /// times flips into draining mode; `None` means gangs never drain. A budget below
    /// the default makes drains reachable in a short request stream.
    #[doc(hidden)]
    pub fn with_max_overtakes(mut self, budget: Option<u32>) -> Self {
        self.max_overtakes = budget;
        self
    }

    /// The allocation this scheduler places onto.
    pub fn allocation(&self) -> &Arc<Allocation> {
        &self.allocation
    }

    /// The serve-window size.
    #[cfg(test)]
    fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// The overtake budget before a head gang drains (`None` = overtakes never
    /// trigger a drain).
    #[cfg(test)]
    fn max_overtakes(&self) -> Option<u32> {
        self.max_overtakes
    }

    /// Number of slots currently handed out.
    pub fn outstanding_slots(&self) -> usize {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Number of service placements currently waiting for resources.
    pub fn waiting_services(&self) -> usize {
        self.waiting_services.load(Ordering::Acquire)
    }

    /// Number of task placements currently waiting for resources.
    pub fn waiting_tasks(&self) -> usize {
        self.waiting_tasks.load(Ordering::Acquire)
    }

    /// The FIFO of `priority` and the atomic that mirrors its length.
    fn class<'a>(
        &'a self,
        st: &'a mut QueueState,
        priority: Priority,
    ) -> (&'a mut VecDeque<Arc<Waiter>>, &'a AtomicUsize) {
        match priority {
            Priority::Service => (&mut st.services, &self.waiting_services),
            Priority::Task => (&mut st.tasks, &self.waiting_tasks),
        }
    }

    /// Whether `waiter` — the head of the serving class, just denied — should stop
    /// plain waiting: a gang, no drain active, and its overtake budget spent.
    fn should_drain(&self, st: &QueueState, waiter: &Waiter) -> bool {
        waiter.req.is_gang()
            && st.drain.is_none()
            && self
                .max_overtakes
                .is_some_and(|budget| waiter.overtakes.load(Ordering::Relaxed) > budget)
    }

    /// Whether the pilot as it stands has too few nodes for `req`: only an `expand`
    /// could place it.
    fn too_wide(&self, req: &ResourceRequest) -> bool {
        self.allocation.check_satisfiable(req) == Err(ResourceError::InsufficientResources)
    }

    /// Cancel the active drain when `condition` holds for it, returning its pinned
    /// nodes to their headroom class, and say whether one was cancelled (capacity
    /// came back: the caller has the window served).
    fn cancel_drain_if(
        &self,
        st: &mut QueueState,
        condition: impl FnOnce(&ActiveDrain) -> bool,
    ) -> bool {
        let cancelled = st.drain.take_if(|d| condition(d));
        if let Some(active) = &cancelled {
            let _ = self.allocation.cancel_drain(active.id);
        }
        cancelled.is_some()
    }

    /// The one place a parked waiter is placed, under the queue lock: through its
    /// reservation while it owns the drain, off the free capacity otherwise; a
    /// denied `head` whose overtake budget is spent opens a reservation, which the
    /// nodes idle right now may complete outright.
    fn place(
        &self,
        st: &mut QueueState,
        waiter: &Arc<Waiter>,
        priority: Priority,
        head: bool,
    ) -> Result<(Slot, PlacementStats), ResourceError> {
        let placed = |slot: Slot, drained: Option<SimTime>| {
            let now = self.allocation.clock().now();
            let stats = PlacementStats {
                overtakes: waiter.overtakes.load(Ordering::Relaxed),
                drain_secs: drained.map(|since| now.since(since).as_secs_f64()),
                wait_secs: now.since(waiter.parked_at).as_secs_f64(),
            };
            (slot, stats)
        };
        let reserved = |st: &mut QueueState, id: u64, since: SimTime| {
            let found = self.allocation.allocate_reserved(id, &waiter.req)?;
            st.drain = None; // consumed with the placement
            Ok::<_, ResourceError>(placed(found, Some(since)))
        };
        let mine = st.drain.as_ref().filter(|d| Arc::ptr_eq(&d.owner, waiter));
        if let Some((id, since)) = mine.map(|d| (d.id, d.since)) {
            match reserved(st, id, since) {
                // Cancelled on the allocation itself (its handle is public): back to
                // plain waiting.
                Err(ResourceError::UnknownDrain(_)) => st.drain = None,
                outcome => return outcome,
            }
        }
        let denied = match self.allocation.allocate_slot(&waiter.req) {
            Ok(found) => return Ok(placed(found, None)),
            Err(e) => e,
        };
        if head && denied == ResourceError::InsufficientResources && self.should_drain(st, waiter) {
            match self.allocation.begin_drain(&waiter.req) {
                Ok(id) => {
                    let since = self.allocation.clock().now();
                    st.drain = Some(ActiveDrain {
                        id,
                        owner: Arc::clone(waiter),
                        priority,
                        since,
                    });
                    return reserved(st, id, since);
                }
                // Raced by another allocation user — or the pilot is currently too
                // small for the gang; the next walk tries again.
                Err(ResourceError::DrainActive | ResourceError::InsufficientResources) => {}
                Err(e) => return Err(e),
            }
        }
        Err(denied)
    }

    /// Serve the window, under the queue lock: in arrival order, services first and
    /// tasks only once no service is left parked, place whoever fits until `lookahead`
    /// waiters have been denied. A waiter that fits leaves the queue with its outcome
    /// and is notified (unless this is its own pass — `walker` takes the outcome when the
    /// walk is over); the ones it passed are ticked, and the walk returns to a head
    /// gang whose budget that spent, so that its reservation opens before anyone else
    /// passes it.
    ///
    /// Only the pass of a waiter inside the window walks. Whoever frees capacity
    /// notifies the head instead of placing anybody itself, and by the time the head's
    /// owner looks, what a burst of releases frees — a gang's nodes, equal tasks ending
    /// together — has come together: the head has first pick, and the allocation packs
    /// the rest instead of refilling each hole where it opened. Measured on
    /// `task_queue`, a releaser that walks the whole window itself: 2 102 tasks/s, 0.075
    /// of the slots idle, 23 overtakes per gang (the head's pass: 2 155, 0.038, 2.3; ten
    /// alternating runs); one that places only up to the first denial: no different at
    /// a window of 4, 1 901 against 2 058 at a window of 1 (one run each).
    fn serve(&self, st: &mut QueueState, walker: &Arc<Waiter>) {
        for priority in [Priority::Service, Priority::Task] {
            let mut denied = 0; // waiters looked at and left parked
            while denied < self.lookahead {
                let (queue, _) = self.class(st, priority);
                let Some(waiter) = queue.get(denied).cloned() else {
                    break;
                };
                // Whoever asks for no less than a waiter this walk has denied cannot
                // fit either — unless a release got in between (it frees its slot
                // before it takes this lock), and then the earlier one fits too and is
                // for the walk that release asks for. The owner of the reservation is
                // tried regardless: what it waits for is pinned, not free, and a
                // requeued narrower request may sit ahead of it.
                let hopeless = |d: &Arc<Waiter>| asks_no_less(&waiter.req, &d.req);
                let hopeless = queue.iter().take(denied).any(hopeless);
                let pinned = |d: &ActiveDrain| Arc::ptr_eq(&d.owner, &waiter);
                let outcome = if hopeless && !st.drain.as_ref().is_some_and(pinned) {
                    Err(ResourceError::InsufficientResources)
                } else {
                    self.place(st, &waiter, priority, denied == 0)
                };
                if matches!(outcome, Err(ResourceError::InsufficientResources)) {
                    denied += 1;
                    continue;
                }
                let outcome = outcome.map_err(RuntimeError::Resource);
                let unpinned = self.unpark(st, priority, denied);
                if outcome.is_ok() {
                    self.outstanding.fetch_add(1, Ordering::AcqRel);
                }
                if unpinned || (outcome.is_ok() && self.pass_over(st, priority, denied)) {
                    denied = 0;
                }
                *waiter.served.lock() = Some(outcome);
                if !Arc::ptr_eq(&waiter, walker) {
                    waiter.notify();
                }
            }
            if !st.services.is_empty() {
                return; // tasks never place while a service waits
            }
        }
    }

    /// Tick the first `passed` waiters of `priority`: a later arrival was just placed
    /// while they were denied. True when that spent the head's budget.
    fn pass_over(&self, st: &QueueState, priority: Priority, passed: usize) -> bool {
        let queue = match priority {
            Priority::Service => &st.services,
            Priority::Task => &st.tasks,
        };
        for waiter in queue.iter().take(passed) {
            waiter.overtakes.fetch_add(1, Ordering::Relaxed);
        }
        passed > 0 && self.should_drain(st, &queue[0])
    }

    /// Take the waiter at `position` out of its class queue; a reservation it still
    /// owns goes with it (true then: its pinned nodes are back).
    fn unpark(&self, st: &mut QueueState, priority: Priority, position: usize) -> bool {
        let (queue, waiting) = self.class(st, priority);
        let waiter = queue.remove(position).expect("position of a parked waiter");
        waiting.fetch_sub(1, Ordering::AcqRel);
        self.cancel_drain_if(st, |d| Arc::ptr_eq(&d.owner, &waiter))
    }

    /// Have the head of the serving class look: something changed that its walk has
    /// not seen.
    fn nudge(&self, st: &QueueState) {
        let serving = if st.services.is_empty() {
            &st.tasks
        } else {
            &st.services
        };
        if let Some(head) = serving.front() {
            head.notify();
        }
    }

    /// Capacity appeared. With nobody parked — every release of a burst whose
    /// capacity never binds — this takes no lock.
    fn capacity_changed(&self) {
        if self.waiting_services.load(Ordering::Acquire) == 0
            && self.waiting_tasks.load(Ordering::Acquire) == 0
        {
            return;
        }
        self.nudge(&self.queue.lock());
    }

    /// Allocate a slot, blocking (up to `timeout` of real time) until resources are
    /// available. Requests are served in FIFO order within their priority class,
    /// relaxed only by the bounded serve window; task-priority requests
    /// additionally wait while any service placement is pending, so services are
    /// never starved by a flood of tasks. A gang request (`req.nodes > 1`) waits
    /// like any other request until enough idle nodes exist, then claims them
    /// atomically — opening a backfill reservation first when it keeps being
    /// overtaken (see the module docs).
    pub fn allocate(
        &self,
        req: &ResourceRequest,
        priority: Priority,
        timeout: Duration,
    ) -> Result<Slot, RuntimeError> {
        self.block_on(Placement::new(req, priority), Some(timeout))
            .map(|(slot, _)| slot)
    }

    /// Re-enter placement after losing a slot to a node failure: parks at the
    /// *front* of the priority-class queue instead of the back, because the request
    /// already waited its turn once. Everything else — service priority, the serve
    /// window, draining, the timeout semantics — behaves exactly like
    /// [`Scheduler::allocate`].
    pub fn requeue(
        &self,
        req: &ResourceRequest,
        priority: Priority,
        timeout: Duration,
    ) -> Result<Slot, RuntimeError> {
        self.block_on(Placement::requeued(req, priority), Some(timeout))
            .map(|(slot, _)| slot)
    }

    /// Advance a [`Placement`] without blocking: enter the queue if it has not yet
    /// (validation, fast path, parking), then make one pass over the wait loop.
    /// `Ready` carries the final result and spends the placement; `Pending` means
    /// the request keeps its place in the queue and must be polled again when
    /// `waker` is called. Polling more often is harmless.
    ///
    /// `waker` is called under the queue lock, so it must only enqueue work —
    /// never poll inline. It is stored when the first poll comes back pending; a
    /// wake-up that lands while the owner is still inside a poll must make the owner
    /// poll again rather than be dropped.
    ///
    /// This is [`Scheduler::allocate`] with the thread and the timeout taken out: both
    /// run the same entry and pass, and a blocking caller is `loop { pass; cond.wait }`
    /// under the queue lock.
    pub fn poll_placed(&self, placement: &mut Placement, waker: &Waker) -> PlacementPoll {
        let mut st = match self.enter(placement) {
            Err(e) => return PlacementPoll::Ready(Err(e)),
            Ok(Entered::Placed(placed)) => return PlacementPoll::Ready(Ok(placed)),
            Ok(Entered::Parked(st)) => st,
        };
        let poll = self.pass(&mut st, placement, None);
        if let (PlacementPoll::Pending, Some(waiter)) = (&poll, &placement.queued) {
            waiter.wake.get_or_init(|| WakeSlot::Task(waker.clone()));
        }
        poll
    }

    /// Drive `placement` to its result on the calling thread, sleeping on the
    /// waiter's condition variable between passes, and return the slot with its
    /// [`PlacementStats`] — what [`Scheduler::allocate`] and [`Scheduler::requeue`]
    /// run. Every sleep begins inside the lock hold of the pass that came back
    /// pending, so a notification issued under the queue lock is never lost. A
    /// `timeout` (real time from parking; `None` = none) ends the wait with a final
    /// attempt.
    pub fn block_on(
        &self,
        mut placement: Placement,
        timeout: Option<Duration>,
    ) -> Result<(Slot, PlacementStats), RuntimeError> {
        let mut st = match self.enter(&mut placement)? {
            Entered::Placed(placed) => return Ok(placed),
            Entered::Parked(st) => st,
        };
        let deadline = timeout.and_then(|timeout| Instant::now().checked_add(timeout));
        loop {
            match self.pass(&mut st, &mut placement, deadline) {
                PlacementPoll::Ready(result) => return result,
                PlacementPoll::Pending => {
                    let waiter = placement.queued.as_ref().expect("pending means parked");
                    let cond = waiter.thread_cond();
                    match deadline {
                        Some(at) => {
                            cond.wait_until(&mut st, at);
                        }
                        None => cond.wait(&mut st),
                    }
                }
            }
        }
    }

    /// Entry of every placement: lock the queue for a request that already holds a
    /// place in it; otherwise validate it, try the fast path and park it. A parked
    /// request comes back with the queue still locked, so its first pass runs under
    /// the lock hold that recorded its arrival.
    fn enter(&self, placement: &mut Placement) -> Result<Entered<'_>, RuntimeError> {
        if placement.queued.is_some() {
            return Ok(Entered::Parked(self.queue.lock()));
        }
        // Shape mismatches fail fast without ever queueing. A request that is
        // merely too wide for the *current* node set parks instead: allocations
        // are elastic, so a pilot resize can make it placeable later.
        match self.allocation.check_satisfiable(&placement.req) {
            Ok(()) | Err(ResourceError::InsufficientResources) => {}
            Err(e) => return Err(RuntimeError::Resource(e)),
        }

        let priority = placement.priority;

        let mut st = self.queue.lock();

        // Fast path: nothing is parked ahead of this request, try immediately without
        // paying for a queue entry. Deliberately stricter than the serve window —
        // newcomers always queue when anyone of their class waits, so a stream of
        // arrivals can never rotate through the window without recording arrival
        // order.
        if st.services.is_empty() && (priority == Priority::Service || st.tasks.is_empty()) {
            match self.allocation.allocate_slot(&placement.req) {
                Ok(slot) => {
                    self.outstanding.fetch_add(1, Ordering::AcqRel);
                    return Ok(Entered::Placed((slot, PlacementStats::default())));
                }
                Err(ResourceError::InsufficientResources) => {}
                Err(e) => return Err(RuntimeError::Resource(e)),
            }
        }

        // Slow path: park in arrival order — or, for a node-failure requeue, at the
        // front of the class queue (the request already waited its turn once).
        let waiter = Arc::new(Waiter {
            req: placement.req,
            parked_at: self.allocation.clock().now(),
            wake: OnceLock::new(),
            overtakes: AtomicU32::new(0),
            served: Mutex::new(None),
        });
        let (queue, waiting) = self.class(&mut st, priority);
        if placement.requeue {
            queue.push_front(Arc::clone(&waiter));
        } else {
            queue.push_back(Arc::clone(&waiter));
        }
        // Sequentially consistent with `close`, which reads the count after setting
        // its flag: either it sees this waiter, or this waiter's first pass sees it.
        waiting.fetch_add(1, Ordering::SeqCst);
        placement.queued = Some(waiter);
        // Service priority extends to reservations: a parking service cancels a
        // task-class drain, so pinned nodes never idle-block it. The task head re-opens
        // its drain once no service waits (its overtake count is preserved).
        let unpinned = priority == Priority::Service
            && self.cancel_drain_if(&mut st, |d| d.priority == Priority::Task);
        if unpinned {
            self.nudge(&st);
        }
        Ok(Entered::Parked(st))
    }

    /// One pass of a parked placement over the wait loop, under the queue lock: from
    /// inside the window, serve it — the arrival itself or a notify is what no walk has
    /// seen yet, and a release may have read "nobody parked" since the fast path
    /// looked. Then take what a walk left for this waiter; leave when the scheduler is
    /// closed and the waiter too wide for the pilot; make the final attempt and leave
    /// once the `deadline` of a blocked caller has passed; otherwise stay parked.
    fn pass(
        &self,
        st: &mut QueueState,
        placement: &mut Placement,
        deadline: Option<Instant>,
    ) -> PlacementPoll {
        let waiter = placement.queued.as_ref().expect("pass runs while parked");
        let (queue, _) = self.class(st, placement.priority);
        let mut window = queue.iter().take(self.lookahead);
        if window.any(|w| Arc::ptr_eq(w, waiter)) {
            self.serve(st, waiter);
        }
        let served = waiter.served.lock().take();
        let result = match served {
            Some(outcome) => outcome,
            None if self.closed.load(Ordering::SeqCst) && self.too_wide(&waiter.req) => {
                self.leave(st, placement.priority, waiter, false);
                Err(RuntimeError::SessionClosed)
            }
            None if deadline.is_none_or(|at| Instant::now() < at) => {
                return PlacementPoll::Pending;
            }
            None => {
                // Capacity may have freed while this waiter sat outside the window.
                // Service priority still holds: a task tries only if no service waits.
                let last = if placement.priority == Priority::Service || st.services.is_empty() {
                    self.place(st, waiter, placement.priority, false)
                } else {
                    Err(ResourceError::InsufficientResources)
                };
                let result = match last {
                    Err(ResourceError::InsufficientResources) => Err(timed_out(&waiter.req)),
                    other => other.map_err(RuntimeError::Resource),
                };
                self.leave(st, placement.priority, waiter, result.is_ok());
                result
            }
        };
        placement.queued = None;
        PlacementPoll::Ready(result)
    }

    /// A waiter no walk served leaves the queue: its final attempt `placed` it (the
    /// waiters ahead of it are passed), it timed out, or it was cancelled. The head
    /// looks: somebody moved up into the window, or the nodes its reservation held are
    /// back.
    fn leave(&self, st: &mut QueueState, priority: Priority, waiter: &Arc<Waiter>, placed: bool) {
        let (queue, _) = self.class(st, priority);
        let position = queue
            .iter()
            .position(|w| Arc::ptr_eq(w, waiter))
            .expect("an unserved waiter is in its queue");
        self.unpark(st, priority, position);
        if placed {
            self.outstanding.fetch_add(1, Ordering::AcqRel);
            self.pass_over(st, priority, position);
        }
        self.nudge(st);
    }

    /// Abandon a [`Placement`] that may still hold a queue place (its last poll was
    /// `Pending`): it leaves the queue, and a slot a walk had already handed it goes
    /// back.
    pub fn cancel_placement(&self, mut placement: Placement) {
        let Some(waiter) = placement.queued.take() else {
            return;
        };
        let mut st = self.queue.lock();
        let served = waiter.served.lock().take();
        match served {
            None => self.leave(&mut st, placement.priority, &waiter, false),
            Some(outcome) => {
                drop(st);
                if let Ok((slot, _)) = outcome {
                    let _ = self.release(&slot);
                }
            }
        }
    }

    /// Release a previously allocated slot and have the head of the wait queue look at
    /// what it freed.
    ///
    /// A slot whose node failed ([`ResourceError::NodeFailed`]) was already reclaimed
    /// by the eviction: the scheduler still retires it from its outstanding count and
    /// notifies the head, and the error is surfaced only so the caller can tell
    /// the eviction path from an ordinary release.
    pub fn release(&self, slot: &Slot) -> Result<(), RuntimeError> {
        let result = self.allocation.release_slot(slot);
        match result {
            Ok(()) | Err(ResourceError::NodeFailed(_)) => {
                let _ = self
                    .outstanding
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                        Some(n.saturating_sub(1))
                    });
                self.capacity_changed();
                result.map_err(RuntimeError::Resource)
            }
            Err(e) => Err(RuntimeError::Resource(e)),
        }
    }

    /// Whether `slot` was evicted by a node failure and no longer backs any
    /// resources. The executor polls this while a task runs to detect that the task
    /// must be requeued.
    pub fn slot_lost(&self, slot: &Slot) -> bool {
        self.allocation.slot_evicted(slot.id)
    }

    /// Have the head of the wait queue look after capacity appeared without a release
    /// — e.g. the pilot expanded its allocation.
    pub fn notify_capacity(&self) {
        self.capacity_changed();
    }

    /// Fail every parked request the pilot as it stands is too wide for, and each
    /// such request that arrives from now on, with [`RuntimeError::SessionClosed`]:
    /// nothing will expand the pilot any more. Whatever fits still waits. Takes no
    /// lock when nobody is parked.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        if self.waiting_services.load(Ordering::SeqCst) == 0
            && self.waiting_tasks.load(Ordering::SeqCst) == 0
        {
            return;
        }
        let st = self.queue.lock();
        for waiter in st.services.iter().chain(&st.tasks) {
            if self.too_wide(&waiter.req) {
                waiter.notify();
            }
        }
    }
}

/// Whether `a` asks for at least what `b` asks for in every dimension, under the same
/// packing: whatever denies `b` denies `a`.
fn asks_no_less(a: &ResourceRequest, b: &ResourceRequest) -> bool {
    a.nodes >= b.nodes
        && a.cores >= b.cores
        && a.gpus >= b.gpus
        && a.mem_gib >= b.mem_gib
        && a.packing.unwrap_or_default() == b.packing.unwrap_or_default()
}

/// The error of a wait that ran out of time.
fn timed_out(req: &ResourceRequest) -> RuntimeError {
    let shape = format!("{} cores / {} gpus", req.cores, req.gpus);
    RuntimeError::WaitTimeout {
        entity: "scheduler".to_string(),
        awaited: if req.nodes > 1 {
            format!("{} nodes x ({shape}) gang", req.nodes)
        } else {
            shape
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcml_platform::batch::{AllocationRequest, BatchSystem};
    use hpcml_platform::resources::GangPacking;
    use hpcml_platform::PlatformId;
    use hpcml_sim::clock::ClockSpec;
    use std::thread;

    fn scheduler(platform: PlatformId, nodes: usize) -> Scheduler {
        scheduler_with_lookahead(platform, nodes, DEFAULT_WINDOW)
    }

    fn scheduler_with_lookahead(platform: PlatformId, nodes: usize, lookahead: usize) -> Scheduler {
        let batch = BatchSystem::new(platform.spec(), ClockSpec::Manual.build(), 3);
        let alloc = batch.submit(AllocationRequest::nodes(nodes)).unwrap();
        Scheduler::with_lookahead(alloc, lookahead)
    }

    fn gpus(n: u32) -> ResourceRequest {
        ResourceRequest::gpus(n).unwrap()
    }

    fn cores(n: u32) -> ResourceRequest {
        ResourceRequest::cores(n).unwrap()
    }

    /// Poll until `pred` holds (bounded at 5 s), so queue-depth assertions do not race
    /// thread start-up on a loaded host.
    fn wait_until(s: &Scheduler, what: &str, pred: impl Fn(&Scheduler) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pred(s) {
            assert!(Instant::now() < deadline, "timed out waiting for: {what}");
            thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let s = scheduler(PlatformId::Local, 1); // 8 cores, 2 gpus
        let slot = s
            .allocate(&gpus(1), Priority::Service, Duration::from_secs(1))
            .unwrap();
        assert_eq!(slot.num_gpus(), 1);
        assert_eq!(s.outstanding_slots(), 1);
        s.release(&slot).unwrap();
        assert_eq!(s.outstanding_slots(), 0);
        assert_eq!(s.allocation().free_gpus(), 2);
        assert_eq!(s.lookahead(), DEFAULT_WINDOW);
    }

    #[test]
    fn gang_wider_than_pilot_parks_and_places_after_expand() {
        // A 2-node gang against a 1-node allocation must PARK (the pilot can
        // grow), not fail fast as never-satisfiable — the elastic-pilot race
        // where submit beats resize.
        let s = Arc::new(scheduler(PlatformId::Local, 1));
        let s1 = Arc::clone(&s);
        let parked = thread::spawn(move || {
            s1.allocate(
                &cores(1).with_nodes(2),
                Priority::Task,
                Duration::from_secs(10),
            )
        });
        wait_until(&s, "too-wide gang parked", |s| s.waiting_tasks() == 1);
        s.allocation().expand(1).unwrap();
        s.notify_capacity();
        let gang = parked.join().unwrap().expect("gang places once grown");
        assert_eq!(gang.num_nodes(), 2);
        s.release(&gang).unwrap();
    }

    #[test]
    fn never_satisfiable_request_errors_immediately() {
        let s = scheduler(PlatformId::Local, 1);
        let err = s
            .allocate(&cores(1024), Priority::Task, Duration::from_secs(5))
            .unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Resource(ResourceError::NeverSatisfiable { .. })
        ));
    }

    #[test]
    fn allocation_times_out_under_pressure() {
        let s = scheduler(PlatformId::Local, 1);
        let _hold = s
            .allocate(&gpus(2), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let err = s
            .allocate(&gpus(1), Priority::Task, Duration::from_millis(30))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::WaitTimeout { .. }));
        assert_eq!(
            s.waiting_tasks(),
            0,
            "timed-out waiter must leave the queue"
        );
    }

    #[test]
    fn an_unbounded_timeout_has_no_deadline_to_overflow() {
        // `now + Duration::MAX` would panic: there is no such deadline.
        let s = Arc::new(scheduler(PlatformId::Local, 1));
        let held = s
            .allocate(&gpus(2), Priority::Task, Duration::MAX)
            .expect("free capacity: placed at once");
        let s2 = Arc::clone(&s);
        let waiter = thread::spawn(move || {
            s2.block_on(
                Placement::new(&gpus(1), Priority::Task),
                Some(Duration::MAX),
            )
        });
        wait_until(&s, "the second request to park", |s| s.waiting_tasks() == 1);
        // The wait is measured on the session clock, which only the test moves.
        let clock = s.allocation().clock().as_manual().expect("a manual clock");
        clock.advance(Duration::from_secs(20));
        s.release(&held).unwrap();
        let (slot, stats) = waiter.join().unwrap().expect("placed by the release");
        assert_eq!(stats.wait_secs, 20.0);
        s.release(&slot).unwrap();
    }

    #[test]
    fn post_timeout_final_attempt_succeeds_when_capacity_frees_late() {
        // Deterministic exercise of the explicit post-timeout attempt: one free GPU
        // exists the whole time, but the queue head (W1) needs two and never fits, so
        // the waiter behind it (W2) — outside a window of one — can obtain the free
        // GPU *only* through the final attempt at its deadline.
        let s = Arc::new(scheduler_with_lookahead(PlatformId::Local, 1, 1)); // 2 gpus
        let hold = s
            .allocate(&gpus(1), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let s1 = Arc::clone(&s);
        let head =
            thread::spawn(move || s1.allocate(&gpus(2), Priority::Task, Duration::from_secs(10)));
        // Let W1 park at the head before W2 arrives.
        thread::sleep(Duration::from_millis(50));
        assert_eq!(s.waiting_tasks(), 1);
        let s2 = Arc::clone(&s);
        let behind = thread::spawn(move || {
            s2.allocate(&gpus(1), Priority::Task, Duration::from_millis(100))
        });
        let got = behind.join().unwrap();
        assert!(
            got.is_ok(),
            "final attempt must claim the free GPU at the deadline: {got:?}"
        );
        // Unblock the head and let it finish.
        s.release(&got.unwrap()).unwrap();
        s.release(&hold).unwrap();
        let head_slot = head.join().unwrap().unwrap();
        assert_eq!(head_slot.num_gpus(), 2);
        s.release(&head_slot).unwrap();
        assert_eq!(s.outstanding_slots(), 0);
    }

    #[test]
    fn blocked_allocation_wakes_on_release() {
        let s = Arc::new(scheduler(PlatformId::Local, 1));
        let slot = s
            .allocate(&gpus(2), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let s2 = Arc::clone(&s);
        let waiter =
            thread::spawn(move || s2.allocate(&gpus(1), Priority::Task, Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        s.release(&slot).unwrap();
        let got = waiter.join().unwrap().unwrap();
        assert_eq!(got.num_gpus(), 1);
    }

    #[test]
    fn services_have_priority_over_tasks() {
        // 2 GPUs total. A task holds both; a service and a task are both waiting.
        // When the GPUs free up one by one, the service must be placed first.
        let s = Arc::new(scheduler(PlatformId::Local, 1));
        let hold_a = s
            .allocate(&gpus(1), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let hold_b = s
            .allocate(&gpus(1), Priority::Task, Duration::from_secs(1))
            .unwrap();

        let s_svc = Arc::clone(&s);
        let svc_waiter = thread::spawn(move || {
            s_svc
                .allocate(&gpus(1), Priority::Service, Duration::from_secs(5))
                .map(|slot| ("service", slot))
        });
        // Give the service waiter time to register.
        thread::sleep(Duration::from_millis(30));
        let s_task = Arc::clone(&s);
        let task_waiter = thread::spawn(move || {
            s_task
                .allocate(&gpus(1), Priority::Task, Duration::from_secs(5))
                .map(|slot| ("task", slot))
        });
        thread::sleep(Duration::from_millis(30));

        // Free exactly one GPU: only the service should obtain it.
        s.release(&hold_a).unwrap();
        let (who, _slot) = svc_waiter.join().unwrap().unwrap();
        assert_eq!(who, "service");
        // The task is still waiting; freeing the second GPU unblocks it.
        s.release(&hold_b).unwrap();
        let (who, _slot) = task_waiter.join().unwrap().unwrap();
        assert_eq!(who, "task");
    }

    #[test]
    fn waiters_are_served_in_fifo_order() {
        // Two GPUs come back together and cycle through three parked waiters: one walk
        // serves the first two at once, the third gets the first GPU to be recycled.
        // Slot ids are handed out under the queue lock, so they are the order of
        // placement. Of the two callers served together the walking one is placed
        // first and wakes the other — which the kernel may run at once, in the waker's
        // place — so which of them *returns* first is not the scheduler's to decide.
        let s = Arc::new(scheduler(PlatformId::Local, 1)); // 2 gpus
        let hold = s
            .allocate(&gpus(2), Priority::Task, Duration::from_secs(5))
            .unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut waiters = Vec::new();
        for i in 0..3 {
            let s2 = Arc::clone(&s);
            let order2 = Arc::clone(&order);
            waiters.push(thread::spawn(move || {
                let slot = s2
                    .allocate(&gpus(1), Priority::Task, Duration::from_secs(10))
                    .unwrap();
                order2.lock().push(i);
                // Hold briefly so the next waiter is definitely parked, then recycle.
                thread::sleep(Duration::from_millis(10));
                s2.release(&slot).unwrap();
                slot.id
            }));
            // Ensure arrival order i = park order.
            thread::sleep(Duration::from_millis(30));
        }
        assert_eq!(s.waiting_tasks(), 3);
        s.release(&hold).unwrap();
        let placed: Vec<u64> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
        assert!(
            placed.is_sorted(),
            "FIFO wait queue must place in arrival order: slot ids {placed:?}"
        );
        let mut returned = order.lock().clone();
        assert_eq!(
            returned.pop(),
            Some(2),
            "the third waits for a recycled GPU"
        );
        returned.sort_unstable();
        assert_eq!(returned, vec![0, 1]);
        assert_eq!(s.outstanding_slots(), 0);
    }

    #[test]
    fn gang_parks_until_enough_nodes_idle_then_claims_atomically() {
        // 2-node allocation; both nodes carry a single-node slot, so a 2-node gang
        // must park. Releasing both slots frees two idle nodes and the gang claims
        // them as a unit.
        let s = Arc::new(scheduler(PlatformId::Local, 2));
        let hold_a = s
            .allocate(&cores(1), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let hold_b = s
            .allocate(&cores(8), Priority::Task, Duration::from_secs(1))
            .unwrap();
        assert_ne!(hold_a.node_index(), hold_b.node_index());
        let s2 = Arc::clone(&s);
        let gang_waiter = thread::spawn(move || {
            s2.allocate(
                &cores(4).with_nodes(2),
                Priority::Task,
                Duration::from_secs(30),
            )
        });
        wait_until(&s, "gang parked", |s| s.waiting_tasks() == 1);
        // One idle node is not enough: the gang must remain parked. (Asserting an
        // unchanged state, so a fixed grace period is race-free — the gang's distant
        // deadline cannot remove it from the queue meanwhile.)
        s.release(&hold_a).unwrap();
        thread::sleep(Duration::from_millis(50));
        assert_eq!(s.waiting_tasks(), 1, "gang still parked on one idle node");
        s.release(&hold_b).unwrap();
        let gang = gang_waiter.join().unwrap().unwrap();
        assert_eq!(gang.num_nodes(), 2);
        assert_eq!(gang.num_cores(), 8);
        s.release(&gang).unwrap();
        assert_eq!(s.outstanding_slots(), 0);
        assert_eq!(s.allocation().idle_nodes(), 2);
    }

    #[test]
    fn lookahead_serves_fitting_tasks_behind_a_blocked_gang() {
        // Local: 2 nodes x 8 cores. Node A carries one pinned core (never released
        // during the blocking phase), node B is fully held. A Whole-packed 2-node
        // gang parks at the head (partial packing would co-locate beside the pin the
        // moment node B frees — this test needs a durably blocked head); a
        // whole-node task behind it fits node B the moment it frees.
        let s = Arc::new(scheduler_with_lookahead(PlatformId::Local, 2, 2));
        let pin = s
            .allocate(&cores(1), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let hold_b = s
            .allocate(&cores(8), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let s1 = Arc::clone(&s);
        let gang_waiter = thread::spawn(move || {
            s1.allocate(
                &cores(4).with_nodes(2).with_packing(GangPacking::Whole),
                Priority::Task,
                Duration::from_secs(30),
            )
        });
        wait_until(&s, "gang parked at the head", |s| s.waiting_tasks() == 1);
        let s2 = Arc::clone(&s);
        let narrow_waiter =
            thread::spawn(move || s2.allocate(&cores(8), Priority::Task, Duration::from_secs(30)));
        wait_until(&s, "narrow task parked behind the gang", |s| {
            s.waiting_tasks() == 2
        });
        // Free node B: the gang at the head still cannot fit (node A is pinned), but
        // the narrow task inside the lookahead window must be served.
        s.release(&hold_b).unwrap();
        let narrow = narrow_waiter.join().unwrap().unwrap();
        assert_eq!(narrow.num_cores(), 8);
        assert_eq!(s.waiting_tasks(), 1, "gang keeps its place at the head");
        // Unblock the gang: release the narrow slot and the pin.
        s.release(&narrow).unwrap();
        s.release(&pin).unwrap();
        let gang = gang_waiter.join().unwrap().unwrap();
        assert_eq!(gang.num_nodes(), 2);
        s.release(&gang).unwrap();
        assert_eq!(s.outstanding_slots(), 0);
    }

    #[test]
    fn lookahead_never_lets_tasks_overtake_waiting_services() {
        // Service priority is absolute for every window size: with lookahead 4, a
        // newcomer task that would fit must still queue behind a parked service, and
        // freed capacity goes to the service first.
        let s = Arc::new(scheduler_with_lookahead(PlatformId::Local, 1, 4)); // 2 gpus
        let hold = s
            .allocate(&gpus(2), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let s_svc = Arc::clone(&s);
        let svc = thread::spawn(move || {
            s_svc.allocate(&gpus(2), Priority::Service, Duration::from_secs(30))
        });
        wait_until(&s, "service parked", |s| s.waiting_services() == 1);
        let s_task = Arc::clone(&s);
        let task = thread::spawn(move || {
            s_task.allocate(&gpus(1), Priority::Task, Duration::from_secs(30))
        });
        wait_until(
            &s,
            "newcomer task parked while a service waits, even inside the window",
            |s| s.waiting_tasks() == 1,
        );
        s.release(&hold).unwrap();
        let svc_slot = svc.join().unwrap().unwrap();
        assert_eq!(
            svc_slot.num_gpus(),
            2,
            "service takes the freed capacity first"
        );
        s.release(&svc_slot).unwrap();
        let task_slot = task.join().unwrap().unwrap();
        s.release(&task_slot).unwrap();
        assert_eq!(s.outstanding_slots(), 0);
    }

    #[test]
    fn a_window_of_one_keeps_tasks_parked_behind_a_blocked_gang() {
        // Contrast case for the lookahead test: with the window pinned to 1, the
        // same narrow task behind a blocked (Whole-packed) gang stays parked even
        // while node B sits free — the head-of-line blocking the window is there for.
        let s = Arc::new(scheduler_with_lookahead(PlatformId::Local, 2, 1));
        let pin = s
            .allocate(&cores(1), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let hold_b = s
            .allocate(&cores(8), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let s1 = Arc::clone(&s);
        let gang_waiter = thread::spawn(move || {
            s1.allocate(
                &cores(4).with_nodes(2).with_packing(GangPacking::Whole),
                Priority::Task,
                Duration::from_secs(30),
            )
        });
        wait_until(&s, "gang parked at the head", |s| s.waiting_tasks() == 1);
        s.release(&hold_b).unwrap();
        let s2 = Arc::clone(&s);
        let narrow_waiter =
            thread::spawn(move || s2.allocate(&cores(8), Priority::Task, Duration::from_secs(30)));
        wait_until(&s, "narrow task parked behind the gang", |s| {
            s.waiting_tasks() == 2
        });
        // Both waiters' deadlines are far away, so "still parked after a grace
        // period" is a race-free way to observe that a window of one refuses to serve
        // the narrow task while node B idles behind the blocked gang.
        thread::sleep(Duration::from_millis(100));
        assert_eq!(
            s.waiting_tasks(),
            2,
            "a window of one must keep the narrow task parked behind the gang"
        );
        // Unblock in order: the gang claims both nodes, then the narrow task fits.
        s.release(&pin).unwrap();
        let gang = gang_waiter.join().unwrap().unwrap();
        assert_eq!(gang.num_nodes(), 2);
        s.release(&gang).unwrap();
        let narrow = narrow_waiter.join().unwrap().unwrap();
        s.release(&narrow).unwrap();
        assert_eq!(s.outstanding_slots(), 0);
    }

    /// Acceptance scenario, drain ON: a 4-node whole-node gang parked behind a stream
    /// of 1-node whole-node tasks places within its overtake budget once draining,
    /// because every node the stream releases is pinned to the reservation.
    #[test]
    fn draining_gang_places_within_its_overtake_budget() {
        const MAX_OVERTAKES: u32 = 3;
        let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 3);
        let alloc = batch.submit(AllocationRequest::nodes(4)).unwrap();
        let cores_per_node = alloc.node_spec().cores;
        let s =
            Arc::new(Scheduler::with_lookahead(alloc, 2).with_max_overtakes(Some(MAX_OVERTAKES)));
        let narrow = cores(cores_per_node); // whole single node
        let gang_req = cores(cores_per_node).with_nodes(4); // all four nodes, idle

        // One node busy at all times, so the gang can never place directly.
        let mut hold = Some(
            s.allocate(&narrow, Priority::Task, Duration::from_secs(1))
                .unwrap(),
        );
        let s_gang = Arc::clone(&s);
        let gang_waiter = thread::spawn(move || {
            s_gang.block_on(
                Placement::new(&gang_req, Priority::Task),
                Some(Duration::from_secs(30)),
            )
        });
        wait_until(&s, "gang parked at the head", |s| s.waiting_tasks() == 1);

        // Stream of whole-node tasks: allocate the next before releasing the
        // previous, so some node is always busy. Every successful placement
        // overtakes the parked gang once; once the budget is spent the gang drains,
        // newly idle nodes are pinned, and the stream stops fitting.
        let mut overtakes = 0u32;
        let bound = MAX_OVERTAKES + 2; // budget exceeded at MAX_OVERTAKES + 1
        for round in 0..20 {
            if overtakes > MAX_OVERTAKES {
                // The budget is spent: the head will drain on its next wakeup. Wait
                // for the reservation instead of racing it with another placement,
                // so the cutoff is deterministic under any thread scheduling.
                wait_until(&s, "gang draining after its budget was spent", |s| {
                    s.allocation().drain_status().is_some()
                });
            }
            match s.allocate(&narrow, Priority::Task, Duration::from_millis(300)) {
                Ok(next) => {
                    overtakes += 1;
                    assert!(
                        overtakes <= bound,
                        "stream still placing after {overtakes} overtakes: \
                         draining must cut it off near the budget of {MAX_OVERTAKES}"
                    );
                    s.release(&hold.take().unwrap()).unwrap();
                    hold = Some(next);
                }
                Err(e) => {
                    // The reservation has swallowed the idle nodes: release the last
                    // held node so the drain completes.
                    assert!(matches!(e, RuntimeError::WaitTimeout { .. }), "{e:?}");
                    assert!(
                        round as u32 >= MAX_OVERTAKES,
                        "stream starved before the gang's budget was even spent"
                    );
                    s.release(&hold.take().unwrap()).unwrap();
                    break;
                }
            }
        }
        assert!(hold.is_none(), "stream must hit the reservation wall");
        let (gang, stats) = gang_waiter.join().unwrap().unwrap();
        assert_eq!(gang.num_nodes(), 4);
        assert!(
            stats.overtakes > MAX_OVERTAKES,
            "drain must have been triggered by the overtake budget: {stats:?}"
        );
        assert!(
            stats.drain_secs.is_some(),
            "placement must have come through the reservation: {stats:?}"
        );
        s.release(&gang).unwrap();
        assert_eq!(s.outstanding_slots(), 0);
        assert_eq!(s.allocation().idle_nodes(), 4);
        assert_eq!(s.allocation().reserved_nodes(), 0);
    }

    /// Acceptance contrast, drain OFF: the identical scenario with draining disabled
    /// reproduces the PR-2 starvation — the stream overtakes the gang indefinitely.
    #[test]
    fn drain_off_reproduces_unbounded_overtaking() {
        let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 3);
        let alloc = batch.submit(AllocationRequest::nodes(4)).unwrap();
        let cores_per_node = alloc.node_spec().cores;
        let s = Arc::new(Scheduler::with_lookahead(alloc, 2).with_max_overtakes(None));
        assert_eq!(s.max_overtakes(), None);
        let narrow = cores(cores_per_node);
        let gang_req = cores(cores_per_node).with_nodes(4);

        let mut hold = s
            .allocate(&narrow, Priority::Task, Duration::from_secs(1))
            .unwrap();
        let s_gang = Arc::clone(&s);
        let gang_waiter = thread::spawn(move || {
            s_gang.allocate(&gang_req, Priority::Task, Duration::from_secs(30))
        });
        wait_until(&s, "gang parked at the head", |s| s.waiting_tasks() == 1);

        // Far beyond any reasonable budget: every round must keep placing.
        for _ in 0..24 {
            let next = s
                .allocate(&narrow, Priority::Task, Duration::from_secs(5))
                .expect("with draining off the stream must never be cut off");
            s.release(&hold).unwrap();
            hold = next;
        }
        assert_eq!(s.waiting_tasks(), 1, "gang still starving at the head");
        assert_eq!(
            s.allocation().reserved_nodes(),
            0,
            "no reservation ever opened"
        );
        // Stop the stream: the gang finally fits.
        s.release(&hold).unwrap();
        let gang = gang_waiter.join().unwrap().unwrap();
        assert_eq!(gang.num_nodes(), 4);
        s.release(&gang).unwrap();
        assert_eq!(s.outstanding_slots(), 0);
    }

    /// Occupy a 4-node Delta allocation with one 24-core *resident* slot per node
    /// (held for the caller to release at the end) plus one 24-core *churn* slot per
    /// node (returned for the test to cycle). Pairs land on distinct nodes because a
    /// node carrying both has only 16 free cores — too few for the next pair's
    /// resident — so every node ends up busy with 16 cores of headroom and is never
    /// fully idle while its resident runs.
    fn subnode_churn_fixture(s: &Scheduler) -> (Vec<Slot>, std::collections::VecDeque<Slot>) {
        let mut residents = Vec::new();
        let mut churn = std::collections::VecDeque::new();
        for _ in 0..4 {
            let r = s
                .allocate(&cores(24), Priority::Task, Duration::from_secs(1))
                .unwrap();
            let c = s
                .allocate(&cores(24), Priority::Task, Duration::from_secs(1))
                .unwrap();
            assert_eq!(r.node_index(), c.node_index(), "pairs share a node");
            residents.push(r);
            churn.push_back(c);
        }
        assert_eq!(s.allocation().idle_nodes(), 0);
        (residents, churn)
    }

    /// Acceptance scenario, partial packing: a draining 4-node gang under continuous
    /// sub-node churn — tasks sized so no node ever fully idles — places within its
    /// overtake budget, because each churn release frees one member share of
    /// headroom (40 ≥ 32 cores) and partial pinning captures it while the resident
    /// slots keep running.
    #[test]
    fn partial_drain_places_gang_under_subnode_churn_within_budget() {
        const MAX_OVERTAKES: u32 = 3;
        let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 3);
        let alloc = batch.submit(AllocationRequest::nodes(4)).unwrap();
        let s = Arc::new(
            Scheduler::with_lookahead(Arc::clone(&alloc), 2)
                .with_max_overtakes(Some(MAX_OVERTAKES)),
        );
        let (residents, mut churn) = subnode_churn_fixture(&s);
        // Half-node member shares: 32 ≤ 40 (free once a churn slot leaves a node),
        // but > 16 (free while both pair slots run) — the gang can never place while
        // the churn stream keeps refilling, yet any churn departure frees a share.
        let gang_req = cores(32).with_nodes(4);
        let s_gang = Arc::clone(&s);
        let gang_waiter = thread::spawn(move || {
            s_gang.block_on(
                Placement::new(&gang_req, Priority::Task),
                Some(Duration::from_secs(30)),
            )
        });
        wait_until(&s, "gang parked at the head", |s| s.waiting_tasks() == 1);

        let mut overtakes = 0u32;
        for round in 0..20 {
            // Once the last churn slot has been swallowed by the reservation the
            // gang places and consumes the drain — nothing left to cycle.
            let Some(old) = churn.pop_front() else { break };
            if overtakes > MAX_OVERTAKES {
                // Budget spent: the head drains on its next wakeup. Wait for the
                // reservation instead of racing it, so the cutoff is deterministic.
                wait_until(&s, "gang draining after its budget was spent", |s| {
                    s.allocation().drain_status().is_some()
                });
            }
            s.release(&old).unwrap();
            assert_eq!(
                alloc.idle_nodes(),
                0,
                "sub-node churn must never idle a node (residents keep running)"
            );
            match s.allocate(&cores(24), Priority::Task, Duration::from_millis(300)) {
                Ok(next) => {
                    overtakes += 1;
                    assert!(
                        overtakes <= MAX_OVERTAKES + 2,
                        "churn still placing after {overtakes} overtakes: partial \
                         draining must cut it off near the budget of {MAX_OVERTAKES}"
                    );
                    churn.push_back(next);
                }
                Err(e) => {
                    // The reservation pinned the freed headroom: the churn stream
                    // has hit the wall; keep releasing the remaining slots so the
                    // drain completes.
                    assert!(matches!(e, RuntimeError::WaitTimeout { .. }), "{e:?}");
                    assert!(
                        round as u32 >= MAX_OVERTAKES,
                        "churn starved before the gang's budget was even spent"
                    );
                }
            }
        }
        assert!(churn.is_empty(), "churn must hit the reservation wall");
        let (gang, stats) = gang_waiter.join().unwrap().unwrap();
        assert_eq!(gang.num_nodes(), 4);
        assert_eq!(
            gang.partial_nodes(),
            4,
            "every member placed beside a still-running resident slot"
        );
        assert!(
            stats.overtakes > MAX_OVERTAKES,
            "drain must have been triggered by the overtake budget: {stats:?}"
        );
        assert!(
            stats.drain_secs.is_some(),
            "drain_secs must be recorded when the drain resolves via partial pinning: {stats:?}"
        );
        assert_eq!(alloc.idle_nodes(), 0, "residents are still co-tenants");
        s.release(&gang).unwrap();
        for r in &residents {
            s.release(r).unwrap();
        }
        assert_eq!(s.outstanding_slots(), 0);
        assert_eq!(alloc.idle_nodes(), 4);
        assert_eq!(alloc.reserved_nodes(), 0);
    }

    /// Acceptance contrast, `Whole` packing: the identical sub-node churn scenario
    /// stalls the gang indefinitely — the drain opens but pins nothing, because no
    /// node ever goes fully idle (bounded-time check: the churn stream keeps placing
    /// far past the overtake budget). Stopping the churn *and* the residents finally
    /// idles the nodes and the gang places.
    #[test]
    fn whole_packing_gang_stalls_under_subnode_churn() {
        const MAX_OVERTAKES: u32 = 3;
        let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 3);
        let alloc = batch.submit(AllocationRequest::nodes(4)).unwrap();
        let s = Arc::new(
            Scheduler::with_lookahead(Arc::clone(&alloc), 2)
                .with_max_overtakes(Some(MAX_OVERTAKES)),
        );
        let (residents, mut churn) = subnode_churn_fixture(&s);
        // The task pins Whole packing (old behaviour) while the session default
        // stays Partial — the per-request override is what reproduces the delay.
        let gang_req = cores(32).with_nodes(4).with_packing(GangPacking::Whole);
        let s_gang = Arc::clone(&s);
        let gang_waiter = thread::spawn(move || {
            s_gang.block_on(
                Placement::new(&gang_req, Priority::Task),
                Some(Duration::from_secs(30)),
            )
        });
        wait_until(&s, "gang parked at the head", |s| s.waiting_tasks() == 1);

        // Far beyond the budget: every round must keep placing, because releases
        // never idle a node, so the Whole-packing drain can never pin one.
        for round in 0..12 {
            let old = churn.pop_front().unwrap();
            s.release(&old).unwrap();
            let next = s
                .allocate(&cores(24), Priority::Task, Duration::from_secs(5))
                .unwrap_or_else(|e| {
                    panic!("churn round {round} must place under Whole packing: {e:?}")
                });
            churn.push_back(next);
            assert_eq!(alloc.idle_nodes(), 0);
            assert_eq!(
                alloc.reserved_nodes(),
                0,
                "a Whole drain must not pin busy nodes"
            );
        }
        assert_eq!(s.waiting_tasks(), 1, "gang still starving at the head");
        // Stop the churn and the residents: nodes idle out, the drain (or a direct
        // idle-bucket claim) finally serves the gang.
        for slot in churn.iter().chain(residents.iter()) {
            s.release(slot).unwrap();
        }
        let (gang, _stats) = gang_waiter.join().unwrap().unwrap();
        assert_eq!(gang.num_nodes(), 4);
        assert_eq!(gang.partial_nodes(), 0, "whole members land on idle nodes");
        s.release(&gang).unwrap();
        assert_eq!(s.outstanding_slots(), 0);
        assert_eq!(alloc.reserved_nodes(), 0);
    }

    /// A draining gang that times out cancels its reservation on the way out: every
    /// pinned node returns to the idle bucket and stays placeable.
    #[test]
    fn drain_timeout_cancels_reservation_and_restores_idle_nodes() {
        let batch = BatchSystem::new(PlatformId::Local.spec(), ClockSpec::Manual.build(), 3);
        let alloc = batch.submit(AllocationRequest::nodes(2)).unwrap();
        // No overtake budget: the first arrival that passes the gang opens its drain.
        let s = Arc::new(Scheduler::with_lookahead(alloc, 2).with_max_overtakes(Some(0)));
        // One core pinned on one node: a 2-node gang can never complete, but the
        // other node gets pinned by its reservation once draining starts.
        let pin = s
            .allocate(&cores(1), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let s_gang = Arc::clone(&s);
        let gang_waiter = thread::spawn(move || {
            s_gang.allocate(
                &cores(8).with_nodes(2),
                Priority::Task,
                Duration::from_millis(300),
            )
        });
        wait_until(&s, "gang parked at the head", |s| s.waiting_tasks() == 1);
        let narrow = s
            .allocate(&cores(1), Priority::Task, Duration::from_secs(5))
            .expect("a narrow arrival passes the gang");
        assert!(
            s.allocation().drain_status().is_some(),
            "and opens its drain"
        );
        s.release(&narrow).unwrap();
        assert_eq!(
            s.allocation().reserved_nodes(),
            1,
            "the free node is pinned"
        );
        let err = gang_waiter.join().unwrap().unwrap_err();
        assert!(matches!(err, RuntimeError::WaitTimeout { .. }));
        assert_eq!(
            s.allocation().reserved_nodes(),
            0,
            "timed-out drain must not leak its pinned nodes"
        );
        assert_eq!(s.waiting_tasks(), 0);
        // The previously pinned node is placeable again.
        let whole = s
            .allocate(&cores(8), Priority::Task, Duration::from_secs(1))
            .unwrap();
        s.release(&whole).unwrap();
        s.release(&pin).unwrap();
        assert_eq!(s.allocation().idle_nodes(), 2);
        assert_eq!(s.outstanding_slots(), 0);
    }

    /// Service priority extends to reservations: a service parking while a task gang
    /// drains cancels the drain, takes the capacity first, and the gang re-opens its
    /// reservation afterwards.
    #[test]
    fn parking_service_cancels_task_drain_and_places_first() {
        let batch = BatchSystem::new(PlatformId::Local.spec(), ClockSpec::Manual.build(), 3);
        let alloc = batch.submit(AllocationRequest::nodes(2)).unwrap();
        let s = Arc::new(Scheduler::with_lookahead(alloc, 2).with_max_overtakes(Some(0)));
        let pin = s
            .allocate(&cores(1), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let s_gang = Arc::clone(&s);
        let gang_waiter = thread::spawn(move || {
            s_gang.block_on(
                Placement::new(&cores(8).with_nodes(2), Priority::Task),
                Some(Duration::from_secs(30)),
            )
        });
        wait_until(&s, "gang parked at the head", |s| s.waiting_tasks() == 1);
        // A narrow arrival passes the gang, which spends its budget and drains: once
        // the narrow slot is back, the node without the pin is pinned to the gang.
        let narrow = s
            .allocate(&cores(1), Priority::Task, Duration::from_secs(5))
            .expect("a narrow arrival passes the gang");
        s.release(&narrow).unwrap();
        assert_eq!(s.allocation().reserved_nodes(), 1, "task gang draining");
        // A whole-node service arrives: it must not be blocked by the pinned node.
        let svc = s
            .allocate(&cores(8), Priority::Service, Duration::from_secs(5))
            .expect("service must reclaim the reserved node");
        assert_eq!(
            s.allocation().reserved_nodes(),
            0,
            "task drain cancelled while the service was served"
        );
        // Release the service and the pin: the gang completes — through a re-opened
        // reservation if its head re-drained before the capacity freed, or directly
        // off the idle bucket if not. Either way the earlier *cancelled* draining
        // interval must never be reported as drain_secs (the metric covers only an
        // interval ending in a reserved placement).
        s.release(&svc).unwrap();
        s.release(&pin).unwrap();
        let (gang, _stats) = gang_waiter.join().unwrap().unwrap();
        assert_eq!(gang.num_nodes(), 2);
        s.release(&gang).unwrap();
        assert_eq!(s.outstanding_slots(), 0);
        assert_eq!(s.allocation().idle_nodes(), 2);
    }

    /// The allocator's "pin before any waiter wakes" guarantee, exercised under
    /// concurrency (and backed by a `debug_assert` in `release_slot`): when a draining
    /// gang and a parked narrow waiter race for a freed node, the drain's pin must
    /// win — the release pins the node inside its own critical section, before the
    /// scheduler can wake anyone. Seeded repeats shake the thread interleaving.
    #[test]
    fn drain_pin_wins_over_concurrent_waiter_wakeup() {
        for seed in 0..4u64 {
            let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), seed);
            let alloc = batch.submit(AllocationRequest::nodes(4)).unwrap();
            let s = Arc::new(
                Scheduler::with_lookahead(Arc::clone(&alloc), 2).with_max_overtakes(Some(0)),
            );
            // Every node busy: the gang must park, and drain once it is passed.
            let mut holds: Vec<_> = (0..4)
                .map(|_| {
                    s.allocate(&cores(64), Priority::Task, Duration::from_secs(1))
                        .unwrap()
                })
                .collect();
            let s_gang = Arc::clone(&s);
            let gang_waiter = thread::spawn(move || {
                s_gang.allocate(
                    &cores(64).with_nodes(4),
                    Priority::Task,
                    Duration::from_secs(30),
                )
            });
            wait_until(&s, "gang parked", |s| s.waiting_tasks() == 1);
            // A whole node comes back and a later arrival takes it past the gang,
            // which spends its budget of none and opens its reservation.
            s.release(&holds[3]).unwrap();
            holds[3] = s
                .allocate(&cores(64), Priority::Task, Duration::from_secs(5))
                .expect("a later arrival passes the gang");
            wait_until(&s, "gang draining", |s| {
                s.allocation().drain_status().is_some()
            });
            // A narrow task parks behind the draining gang, inside the window.
            let s_narrow = Arc::clone(&s);
            let narrow_waiter = thread::spawn(move || {
                s_narrow.allocate(&cores(1), Priority::Task, Duration::from_millis(250))
            });
            wait_until(&s, "narrow task parked", |s| s.waiting_tasks() == 2);
            // Free one node: its release wakes the narrow waiter, but the pin ran
            // first — the waiter must find nothing and eventually time out.
            s.release(&holds[0]).unwrap();
            wait_until(&s, "freed node pinned to the drain", |s| {
                s.allocation().reserved_nodes() == 1
            });
            let narrow = narrow_waiter.join().unwrap();
            assert!(
                matches!(narrow, Err(RuntimeError::WaitTimeout { .. })),
                "seed {seed}: the drain's pin must win over the woken waiter: {narrow:?}"
            );
            // Free the rest: the gang completes through its reservation.
            for hold in &holds[1..] {
                s.release(hold).unwrap();
            }
            let gang = gang_waiter.join().unwrap().unwrap();
            assert_eq!(gang.num_nodes(), 4);
            s.release(&gang).unwrap();
            assert_eq!(s.outstanding_slots(), 0);
            assert_eq!(alloc.idle_nodes(), 4);
            assert_eq!(alloc.reserved_nodes(), 0);
        }
    }

    #[test]
    fn concurrent_allocate_release_conserves_resources() {
        let s = Arc::new(scheduler(PlatformId::Delta, 2)); // 128 cores, 8 gpus
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    let slot = s
                        .allocate(&cores(4), Priority::Task, Duration::from_secs(10))
                        .unwrap();
                    s.release(&slot).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.allocation().free_cores(), 128);
        assert_eq!(s.allocation().free_gpus(), 8);
        assert_eq!(s.outstanding_slots(), 0);
        assert!(format!("{:?}", s).contains("free_cores"));
    }

    #[test]
    fn oversubscribed_churn_drains_without_starvation() {
        // More threads than capacity: every waiter must eventually be served (FIFO
        // guarantees progress for each parked request, not just the lucky ones).
        let s = Arc::new(scheduler(PlatformId::Local, 1)); // 8 cores
        let mut handles = Vec::new();
        for _ in 0..16 {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for _ in 0..20 {
                    let slot = s
                        .allocate(&cores(3), Priority::Task, Duration::from_secs(30))
                        .unwrap();
                    s.release(&slot).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.allocation().free_cores(), 8);
        assert_eq!(s.outstanding_slots(), 0);
        assert_eq!(s.waiting_tasks(), 0);
    }

    #[test]
    fn oversubscribed_gang_and_single_churn_drains_with_lookahead() {
        // Mixed widths under a lookahead window: 2-node gangs and single-node tasks
        // hammer a 2-node allocation; everything must drain with resources conserved.
        let s = Arc::new(scheduler_with_lookahead(PlatformId::Local, 2, 3));
        let mut handles = Vec::new();
        for i in 0..8 {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                let req = if i % 2 == 0 {
                    cores(2).with_nodes(2)
                } else {
                    cores(3)
                };
                for _ in 0..20 {
                    let slot = s
                        .allocate(&req, Priority::Task, Duration::from_secs(30))
                        .unwrap();
                    s.release(&slot).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.allocation().free_cores(), 16);
        assert_eq!(s.outstanding_slots(), 0);
        assert_eq!(s.waiting_tasks(), 0);
        assert_eq!(s.allocation().idle_nodes(), 2);
    }

    #[test]
    fn release_of_evicted_slot_reports_node_failed_and_retires_it() {
        let s = scheduler(PlatformId::Local, 2);
        let slot = s
            .allocate(&cores(4), Priority::Task, Duration::from_secs(1))
            .unwrap();
        assert!(!s.slot_lost(&slot));
        let victims = s.allocation().fail_node(slot.node_index()).unwrap();
        assert_eq!(victims, vec![slot.id]);
        assert!(s.slot_lost(&slot));
        let err = s.release(&slot).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Resource(ResourceError::NodeFailed(_))
        ));
        assert_eq!(
            s.outstanding_slots(),
            0,
            "an evicted slot still retires from the outstanding count"
        );
        // The eviction was reported once; a second release is an ordinary error.
        let err = s.release(&slot).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Resource(ResourceError::UnknownSlot(_))
        ));
    }

    #[test]
    fn requeued_victim_parks_at_the_front_of_its_class() {
        let s = Arc::new(scheduler(PlatformId::Local, 1)); // 8 cores
        let hold = s
            .allocate(&cores(8), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let s1 = Arc::clone(&s);
        let back =
            thread::spawn(move || s1.allocate(&cores(8), Priority::Task, Duration::from_secs(30)));
        wait_until(&s, "ordinary waiter parked", |s| s.waiting_tasks() == 1);
        let s2 = Arc::clone(&s);
        let front =
            thread::spawn(move || s2.requeue(&cores(8), Priority::Task, Duration::from_secs(30)));
        wait_until(&s, "requeued waiter parked", |s| s.waiting_tasks() == 2);
        // One whole node frees: the requeued waiter at the front must take it while
        // the earlier ordinary arrival stays parked behind it.
        s.release(&hold).unwrap();
        let front_slot = front.join().unwrap().unwrap();
        assert_eq!(
            s.waiting_tasks(),
            1,
            "the ordinary waiter is still parked behind the served requeue"
        );
        s.release(&front_slot).unwrap();
        let back_slot = back.join().unwrap().unwrap();
        s.release(&back_slot).unwrap();
        assert_eq!(s.outstanding_slots(), 0);
    }

    #[test]
    fn requeue_ahead_of_a_draining_gang_does_not_shut_it_out_of_its_reservation() {
        // Both nodes are held; the gang at the head drains as soon as a later arrival
        // passes it (a budget of no overtakes), and both nodes are pinned to it as
        // they come back — before its owner polls again, a requeued one-core victim
        // parks in front of it and finds nothing free. The gang asks for no less than
        // the victim just denied, and must be tried all the same: what it waits for is
        // pinned.
        let s = scheduler(PlatformId::Local, 2).with_max_overtakes(Some(0));
        let long = Duration::from_secs(10);
        let mut held = [(); 2].map(|()| s.allocate(&cores(8), Priority::Task, long).unwrap());
        let mut gang = Placement::new(&cores(8).with_nodes(2), Priority::Task);
        let poll = s.poll_placed(&mut gang, Waker::noop());
        assert!(matches!(poll, PlacementPoll::Pending));
        s.release(&held[1]).unwrap();
        let mut passer = Placement::new(&cores(8), Priority::Task);
        held[1] = match s.poll_placed(&mut passer, Waker::noop()) {
            PlacementPoll::Ready(Ok((slot, _))) => slot,
            other => panic!("a later arrival passes the gang: {other:?}"),
        };
        assert!(s.allocation().drain_status().is_some());
        for slot in &held {
            s.release(slot).unwrap();
        }
        let mut victim = Placement::requeued(&cores(1), Priority::Task);
        let poll = s.poll_placed(&mut victim, Waker::noop());
        assert!(
            matches!(poll, PlacementPoll::Pending),
            "every core is pinned to the gang: {poll:?}"
        );
        assert_eq!(s.waiting_tasks(), 1, "the victim's walk placed the gang");
        let gang_slot = match s.poll_placed(&mut gang, Waker::noop()) {
            PlacementPoll::Ready(Ok((slot, stats))) => {
                assert!(stats.drain_secs.is_some(), "through its reservation");
                slot
            }
            other => panic!("the gang should place: {other:?}"),
        };
        s.release(&gang_slot).unwrap();
        match s.poll_placed(&mut victim, Waker::noop()) {
            PlacementPoll::Ready(Ok((slot, _))) => s.release(&slot).unwrap(),
            other => panic!("the victim should place: {other:?}"),
        }
        assert_eq!(s.outstanding_slots(), 0);
    }

    #[test]
    fn expand_plus_notify_capacity_unblocks_a_parked_waiter() {
        let s = Arc::new(scheduler(PlatformId::Local, 1)); // one 8-core node
        let hold = s
            .allocate(&cores(8), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let s1 = Arc::clone(&s);
        let waiter =
            thread::spawn(move || s1.allocate(&cores(8), Priority::Task, Duration::from_secs(30)));
        wait_until(&s, "waiter parked", |s| s.waiting_tasks() == 1);
        // Growth releases no slot, so the pilot layer must pass the wakeup on.
        s.allocation().expand(1).unwrap();
        s.notify_capacity();
        let slot = waiter.join().unwrap().unwrap();
        assert_eq!(slot.num_cores(), 8);
        s.release(&slot).unwrap();
        s.release(&hold).unwrap();
        assert_eq!(s.outstanding_slots(), 0);
        assert_eq!(s.allocation().idle_nodes(), 2);
    }

    /// Satellite acceptance: a gang that loses a member to a node failure requeues
    /// at the front and replaces the member within its overtake budget, even against
    /// a stream of narrow competitors (seeded repeats shake the interleaving).
    #[test]
    fn failed_gang_member_requeues_and_replaces_within_overtake_budget() {
        const MAX_OVERTAKES: u32 = 3;
        for seed in 0..3u64 {
            let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), seed);
            let alloc = batch.submit(AllocationRequest::nodes(5)).unwrap();
            let cores_per_node = alloc.node_spec().cores;
            let s = Arc::new(
                Scheduler::with_lookahead(Arc::clone(&alloc), 2)
                    .with_max_overtakes(Some(MAX_OVERTAKES)),
            );
            let narrow = cores(cores_per_node);
            let gang = s
                .allocate(
                    &cores(cores_per_node).with_nodes(4),
                    Priority::Task,
                    Duration::from_secs(1),
                )
                .unwrap();
            let victim_node = gang.node_index();
            // The spare (non-member) node carries a narrow tenant, so the requeued
            // gang cannot place directly and must drain once overtaken.
            let mut hold = Some(
                s.allocate(&narrow, Priority::Task, Duration::from_secs(1))
                    .unwrap(),
            );

            let victims = alloc.fail_node(victim_node).unwrap();
            assert_eq!(victims, vec![gang.id], "seed {seed}");
            assert!(s.slot_lost(&gang));
            assert!(matches!(
                s.release(&gang),
                Err(RuntimeError::Resource(ResourceError::NodeFailed(_)))
            ));

            let s_gang = Arc::clone(&s);
            let gang_req = cores(cores_per_node).with_nodes(4);
            let gang_waiter = thread::spawn(move || {
                s_gang.block_on(
                    Placement::requeued(&gang_req, Priority::Task),
                    Some(Duration::from_secs(30)),
                )
            });
            wait_until(&s, "requeued gang parked at the head", |s| {
                s.waiting_tasks() == 1
            });

            // Narrow churn overtakes the requeued gang until its budget is spent,
            // then the drain pins freed nodes and the stream hits the wall.
            let mut overtakes = 0u32;
            for round in 0..20 {
                if overtakes > MAX_OVERTAKES {
                    wait_until(&s, "requeued gang draining", |s| {
                        s.allocation().drain_status().is_some()
                    });
                }
                match s.allocate(&narrow, Priority::Task, Duration::from_millis(300)) {
                    Ok(next) => {
                        overtakes += 1;
                        assert!(
                            overtakes <= MAX_OVERTAKES + 2,
                            "seed {seed}: churn still placing after {overtakes} overtakes"
                        );
                        s.release(&hold.take().unwrap()).unwrap();
                        hold = Some(next);
                    }
                    Err(e) => {
                        assert!(matches!(e, RuntimeError::WaitTimeout { .. }), "{e:?}");
                        assert!(
                            round as u32 >= MAX_OVERTAKES,
                            "seed {seed}: churn starved before the budget was spent"
                        );
                        s.release(&hold.take().unwrap()).unwrap();
                        break;
                    }
                }
            }
            assert!(hold.is_none(), "seed {seed}: churn must hit the drain wall");

            let (replacement, stats) = gang_waiter.join().unwrap().unwrap();
            assert_eq!(replacement.num_nodes(), 4);
            assert!(
                replacement.node_indices().all(|n| n != victim_node),
                "seed {seed}: the replacement gang must avoid the failed node"
            );
            assert!(
                stats.overtakes <= MAX_OVERTAKES + 2,
                "seed {seed}: requeue must place within its overtake budget: {stats:?}"
            );
            s.release(&replacement).unwrap();
            assert_eq!(s.outstanding_slots(), 0);
            assert_eq!(alloc.idle_nodes(), 4);
            assert_eq!(alloc.failed_nodes(), 1);
            assert_eq!(alloc.reserved_nodes(), 0);
        }
    }

    #[test]
    fn cancelled_placement_unblocks_the_waiter_behind_it() {
        let s = Arc::new(scheduler(PlatformId::Local, 1));
        let hold = s
            .allocate(&cores(8), Priority::Task, Duration::from_secs(1))
            .unwrap();
        // A polled placement parks at the head and is then abandoned.
        let mut head = Placement::new(&cores(8), Priority::Task);
        assert!(matches!(
            s.poll_placed(&mut head, Waker::noop()),
            PlacementPoll::Pending
        ));
        let s2 = Arc::clone(&s);
        let behind =
            thread::spawn(move || s2.allocate(&cores(8), Priority::Task, Duration::from_secs(10)));
        wait_until(&s, "second waiter parked behind the head", |s| {
            s.waiting_tasks() == 2
        });
        // The freed node wakes only the head, whose owner never polls again;
        // abandoning it must pass the wake-up on.
        s.release(&hold).unwrap();
        assert_eq!(s.waiting_tasks(), 2);
        s.cancel_placement(head);
        let slot = behind.join().unwrap().unwrap();
        s.release(&slot).unwrap();
        assert_eq!(s.waiting_tasks(), 0);
        assert_eq!(s.outstanding_slots(), 0);
    }

    #[test]
    fn cancelling_a_served_placement_hands_its_slot_back() {
        // Node A carries one pinned core, node B is held: a Whole-packed gang parks at
        // the head, a whole-node task behind it. Once node B is free the gang's pass
        // serves the task — whose owner abandons it without ever polling again.
        let s = scheduler(PlatformId::Local, 2);
        let long = Duration::from_secs(10);
        let pin = s.allocate(&cores(1), Priority::Task, long).unwrap();
        let hold_b = s.allocate(&cores(8), Priority::Task, long).unwrap();
        let whole_gang = cores(4).with_nodes(2).with_packing(GangPacking::Whole);
        let mut gang = Placement::new(&whole_gang, Priority::Task);
        let mut narrow = Placement::new(&cores(8), Priority::Task);
        for parked in [&mut gang, &mut narrow] {
            let poll = s.poll_placed(parked, Waker::noop());
            assert!(matches!(poll, PlacementPoll::Pending));
        }
        s.release(&hold_b).unwrap();
        assert!(matches!(
            s.poll_placed(&mut gang, Waker::noop()),
            PlacementPoll::Pending
        ));
        assert_eq!(s.waiting_tasks(), 1, "the gang's walk served the task");
        assert_eq!(s.outstanding_slots(), 2);
        s.cancel_placement(narrow);
        assert_eq!(s.outstanding_slots(), 1);
        // Both nodes idle: the gang places, so node B did come back.
        s.release(&pin).unwrap();
        match s.poll_placed(&mut gang, Waker::noop()) {
            PlacementPoll::Ready(Ok((slot, stats))) => {
                assert_eq!(stats.overtakes, 1);
                s.release(&slot).unwrap();
            }
            other => panic!("the gang should place: {other:?}"),
        }
        assert_eq!(s.outstanding_slots(), 0);
    }

    #[test]
    fn close_fails_what_is_too_wide_and_still_places_what_fits() {
        let s = Arc::new(scheduler(PlatformId::Local, 1)); // one 8-core node
        let long = Duration::from_secs(30);
        let wide = cores(1).with_nodes(2);
        let hold = s.allocate(&cores(8), Priority::Task, long).unwrap();
        let s1 = Arc::clone(&s);
        let parked_wide = thread::spawn(move || s1.allocate(&wide, Priority::Task, long));
        wait_until(&s, "too-wide gang parked", |s| s.waiting_tasks() == 1);
        let s2 = Arc::clone(&s);
        let fitting = thread::spawn(move || s2.allocate(&cores(8), Priority::Task, long));
        wait_until(&s, "fitting task parked", |s| s.waiting_tasks() == 2);

        s.close();
        let failed = parked_wide.join().unwrap();
        assert!(
            matches!(failed, Err(RuntimeError::SessionClosed)),
            "{failed:?}"
        );
        let arrived = Instant::now();
        let refused = s.allocate(&wide, Priority::Task, long);
        assert!(
            matches!(refused, Err(RuntimeError::SessionClosed)),
            "{refused:?}"
        );
        assert!(
            arrived.elapsed() < Duration::from_secs(5),
            "refused at once"
        );
        assert_eq!(s.waiting_tasks(), 1, "what fits still waits");
        s.release(&hold).unwrap();
        let slot = fitting.join().unwrap().expect("placed by the release");
        s.release(&slot).unwrap();
        assert_eq!(s.outstanding_slots(), 0);
    }
}
