//! Stateful entity records and the public handles wrapping them.
//!
//! A record is the runtime's bookkeeping for one submitted entity: what a handle can
//! still ask about once the entity's work is over — its id, its state and, for
//! failures, the reason. State transitions are validated against the state models in
//! [`crate::states`] and waiters are woken through a condition variable, which is what
//! the public `wait_*` calls of [`TaskHandle`]/[`ServiceHandle`]/[`PilotHandle`] use.
//!
//! A task record is the smallest: the id's index, the state cell, the platform and the
//! retry count (120 bytes; 136 in its `Arc`, which the allocator keeps in a 144-byte
//! chunk). The id itself — `task.000004` — is rendered from the index where it is read
//! ([`TaskHandle::id`], the task directory's `ids`, a state message's `entity`
//! header), so a finished task keeps no string. What the task needs only while it runs
//! — its [`TaskDescription`] and its slot — belongs to the executor's run and is freed
//! with it, so thousands of finished tasks keep no description between them.
//!
//! ## State is an event log
//!
//! A [`StateCell`] stores one thing: the append-only list of `(state, virtual time)`
//! entries, in the order the entity entered them. A transition appends one entry — no
//! string, no map node — and hands its stamp back, so whoever else needs the instant
//! of the event does not read the clock again. The first six entries live inside the
//! record, stored by column: six 8-byte stamps, six 1-byte states and a 1-byte count,
//! 64 bytes with the pointer below, where six `(state, stamp)` pairs would pad each
//! state to 8 bytes and take 112. The rare parts — entries past the sixth, a failure
//! reason — sit behind one pointer that only a seventh entry or a failure allocates.
//! Everything a reader asks for is derived when asked:
//!
//! | query | derived as |
//! |---|---|
//! | `current()` | the last entry's state |
//! | `entered_at(s)` | the last entry of `s` |
//! | `timestamps()` | name → seconds, last entry per state (names are rendered here and nowhere else) |
//! | `history()` | every entry, in order — `Executing → Scheduling → Executing` of a retried task keeps both attempts |

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use hpcml_platform::batch::Allocation;
use hpcml_platform::resources::Slot;
use hpcml_platform::PlatformId;
use hpcml_sim::clock::{SharedClock, SimTime};
use hpcml_sim::ids;

use crate::describe::{PilotDescription, ServiceDescription, TaskDescription};
use crate::error::RuntimeError;
use crate::pilot::PilotManager;
use crate::scheduler::Scheduler;
use crate::states::{PilotState, ServiceState, TaskState};

/// Minimal interface a state enum must offer to be tracked by a [`StateCell`].
pub trait StateModel: Copy + std::fmt::Debug + PartialEq + Send + 'static {
    /// Whether `self -> next` is legal.
    fn can_go(self, next: Self) -> bool;
    /// Whether `self` is terminal.
    fn terminal(self) -> bool;
    /// The variant's name, as `{:?}` prints it.
    fn name(self) -> &'static str;
    /// The topic this state's update is published on.
    fn topic(self) -> &'static str;
}

/// The three state enums offer the same inherent API; the trait only names it.
macro_rules! state_model {
    ($($ty:ty),+) => {$(
        impl StateModel for $ty {
            fn can_go(self, next: Self) -> bool {
                self.can_transition_to(next)
            }
            fn terminal(self) -> bool {
                self.is_final()
            }
            fn name(self) -> &'static str {
                <$ty>::name(self)
            }
            fn topic(self) -> &'static str {
                <$ty>::topic(self)
            }
        }
    )+};
}

state_model!(TaskState, ServiceState, PilotState);

/// The id namespace of tasks: a task's id is `task.` and its index, six digits at least.
pub(crate) const TASK_NAMESPACE: &str = "task";

/// Entries a [`StateCell`] holds in place: the six states of a staged task
/// (`New`, `Scheduling`, `StagingInput`, `Executing`, `StagingOutput`, `Done`).
const INLINE_EVENTS: usize = 6;

/// What few cells ever need: the log past its inline entries, and a failure reason.
struct Rare<S> {
    /// Entry `INLINE_EVENTS` and later.
    spill: Vec<(S, SimTime)>,
    error: Option<String>,
}

/// Every state an entity entered and when, in entry order, and why it failed.
/// Appending allocates only from the seventh entry on (a retried task, a service's
/// full lifecycle); a failure reason shares that one allocation. The entries held in
/// place are stored by column — six stamps, then six one-byte states — so no state is
/// padded to a stamp's width.
struct StateInner<S> {
    /// The stamps of the first `held` entries; the rest repeat the first entry's.
    at: [SimTime; INLINE_EVENTS],
    /// The states of the first `held` entries, likewise.
    states: [S; INLINE_EVENTS],
    /// Entries held in place: 1 to `INLINE_EVENTS`. Every later one is in the spill.
    held: u8,
    /// Allocated by the seventh entry or a failure, whichever comes first.
    rare: Option<Box<Rare<S>>>,
}

impl<S: Copy> StateInner<S> {
    fn new((state, at): (S, SimTime)) -> Self {
        StateInner {
            at: [at; INLINE_EVENTS],
            states: [state; INLINE_EVENTS],
            held: 1,
            rare: None,
        }
    }

    fn rare(&mut self) -> &mut Rare<S> {
        self.rare.get_or_insert_with(|| {
            Box::new(Rare {
                spill: Vec::new(),
                error: None,
            })
        })
    }

    fn push(&mut self, (state, at): (S, SimTime)) {
        let held = usize::from(self.held);
        if held < INLINE_EVENTS {
            self.states[held] = state;
            self.at[held] = at;
            self.held += 1;
        } else {
            self.rare().spill.push((state, at));
        }
    }

    fn iter(&self) -> impl DoubleEndedIterator<Item = (S, SimTime)> + '_ {
        let held = usize::from(self.held);
        let spill = self.rare.as_ref().map_or(&[][..], |rare| &rare.spill[..]);
        let states = self.states[..held].iter().copied();
        let stamps = self.at[..held].iter().copied();
        states.zip(stamps).chain(spill.iter().copied())
    }

    /// The state entered last. The log is never empty.
    fn current(&self) -> S {
        self.iter().next_back().expect("the initial entry").0
    }

    fn error(&self) -> Option<&String> {
        self.rare.as_ref()?.error.as_ref()
    }
}

/// A validated, waitable state holder: an append-only log of `(state, entry time)`
/// from which the current state, `entered_at` and `timestamps` are all derived.
pub struct StateCell<S: StateModel> {
    inner: Mutex<StateInner<S>>,
    cond: Condvar,
    clock: SharedClock,
}

impl<S: StateModel> StateCell<S> {
    /// Create a cell in the given initial state.
    pub fn new(initial: S, clock: SharedClock) -> Self {
        StateCell {
            inner: Mutex::new(StateInner::new((initial, clock.now()))),
            cond: Condvar::new(),
            clock,
        }
    }

    /// Current state.
    pub fn current(&self) -> S {
        self.inner.lock().current()
    }

    /// Failure reason, if the entity failed.
    pub fn error(&self) -> Option<String> {
        self.inner.lock().error().cloned()
    }

    /// Virtual timestamp (seconds) at which `state` was entered — the last time, for
    /// a state entered more than once — if it was.
    pub fn entered_at(&self, state: S) -> Option<f64> {
        let inner = self.inner.lock();
        let entry = inner.iter().rev().find(|(s, _)| *s == state);
        entry.map(|(_, at)| at.as_secs_f64())
    }

    /// `(state name, virtual seconds)` of every state entered; a state entered more
    /// than once reports its last entry ([`StateCell::history`] has them all).
    pub fn timestamps(&self) -> BTreeMap<String, f64> {
        let inner = self.inner.lock();
        inner
            .iter()
            .map(|(state, at)| (state.name().to_string(), at.as_secs_f64()))
            .collect()
    }

    /// Every state entered and when, in entry order: a retried task shows each
    /// attempt's `Scheduling` and `Executing`.
    pub fn history(&self) -> Vec<(S, SimTime)> {
        self.inner.lock().iter().collect()
    }

    /// Attempt a transition; appends the entry and wakes waiters. `Ok(Some(at))` is the
    /// stamp of the entry just made (the event's one clock read); `Ok(None)` means the
    /// cell already was in `next` and nothing was recorded.
    pub fn transition(&self, next: S) -> Result<Option<SimTime>, RuntimeError> {
        let mut inner = self.inner.lock();
        let current = inner.current();
        if current == next {
            return Ok(None);
        }
        if !current.can_go(next) {
            return Err(RuntimeError::InvalidState(format!(
                "illegal transition {current:?} -> {next:?}"
            )));
        }
        let at = self.clock.now();
        inner.push((next, at));
        self.cond.notify_all();
        Ok(Some(at))
    }

    /// Transition to a failure state with a reason (does not validate legality so that
    /// failures can always be recorded).
    pub fn fail(&self, failed_state: S, reason: impl Into<String>) {
        let mut inner = self.inner.lock();
        inner.rare().error = Some(reason.into());
        inner.push((failed_state, self.clock.now()));
        self.cond.notify_all();
    }

    /// Block until `predicate(state)` holds or the real-time `timeout` elapses: from
    /// the first look that has to wait, and without end if the deadline is unrepresentable.
    pub fn wait_until<F: Fn(S) -> bool>(
        &self,
        predicate: F,
        timeout: Duration,
    ) -> Result<S, RuntimeError> {
        let (mut deadline, mut timed_out) = (None, false);
        let mut inner = self.inner.lock();
        loop {
            let current = inner.current();
            if predicate(current) {
                return Ok(current);
            }
            if current.terminal() {
                // Terminal but not what the caller wanted: report failure.
                let reason = inner
                    .error()
                    .cloned()
                    .unwrap_or_else(|| format!("entity ended in {current:?}"));
                return Err(RuntimeError::Failed(reason));
            }
            if timed_out {
                return Err(RuntimeError::WaitTimeout {
                    entity: "entity".to_string(),
                    awaited: "requested state".to_string(),
                });
            }
            match *deadline.get_or_insert_with(|| Instant::now().checked_add(timeout)) {
                Some(at) => timed_out = self.cond.wait_until(&mut inner, at).timed_out(),
                None => self.cond.wait(&mut inner),
            }
        }
    }
}

/// Bootstrap time components measured for one local service instance (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BootstrapTimes {
    /// Time to launch the service executable on its target resources.
    pub launch_secs: f64,
    /// Time to load and initialise the model.
    pub init_secs: f64,
    /// Time to publish the service endpoint.
    pub publish_secs: f64,
}

impl BootstrapTimes {
    /// Total bootstrap time.
    pub fn total(&self) -> f64 {
        self.launch_secs + self.init_secs + self.publish_secs
    }
}

/// Internal record of a task: what outlives its run. The description is the run's
/// ([`crate::executor::Executor::spawn_task`]) and is freed when the run ends.
pub struct TaskRecord {
    /// Runtime-assigned index in the `task` namespace; [`TaskRecord::id`] renders it.
    pub index: u64,
    /// Validated state holder.
    pub state: StateCell<TaskState>,
    /// Platform the task runs on.
    pub platform: PlatformId,
    /// Times the task was re-run after losing its slot to a node failure.
    pub retries: AtomicU32,
}

impl TaskRecord {
    /// Create a record in the `New` state. The record keeps no description: this
    /// drops it, and a session hands its own to the run instead. It keeps the index
    /// `id` renders, not the string.
    ///
    /// # Panics
    ///
    /// If `id` is not what [`ids::format_id`]`("task", n)` renders for some `n`
    /// (`task.000004`, `task.1000000`).
    pub fn new(
        id: String,
        description: TaskDescription,
        platform: PlatformId,
        clock: SharedClock,
    ) -> Arc<Self> {
        drop(description);
        let index =
            ids::parse_id(TASK_NAMESPACE, &id).unwrap_or_else(|| panic!("{id:?} is not a task id"));
        Self::create(index, platform, clock)
    }

    /// Create a record in the `New` state.
    pub(crate) fn create(index: u64, platform: PlatformId, clock: SharedClock) -> Arc<Self> {
        Arc::new(TaskRecord {
            index,
            state: StateCell::new(TaskState::New, clock),
            platform,
            retries: AtomicU32::new(0),
        })
    }

    /// Runtime-assigned identifier (e.g. `task.000004`), rendered from the index on
    /// each call.
    pub fn id(&self) -> String {
        ids::format_id(TASK_NAMESPACE, self.index)
    }
}

/// Internal record of a service instance.
pub struct ServiceRecord {
    /// Runtime-assigned identifier (e.g. `service.000002`).
    pub id: String,
    /// The submitted description.
    pub description: ServiceDescription,
    /// Validated state holder.
    pub state: StateCell<ServiceState>,
    /// Slot the service runs on (local placement only).
    pub slot: Mutex<Option<Slot>>,
    /// Platform the service runs on.
    pub platform: PlatformId,
    /// Set to ask the serve loop to stop.
    pub stop: Arc<AtomicBool>,
    /// Measured bootstrap components (local placement only).
    pub bootstrap: Mutex<Option<BootstrapTimes>>,
    /// Requests served (snapshot updated when the serve loop exits).
    pub requests_served: Mutex<u64>,
}

impl ServiceRecord {
    /// Create a record in the `New` state.
    pub fn new(
        id: String,
        description: ServiceDescription,
        platform: PlatformId,
        clock: SharedClock,
    ) -> Arc<Self> {
        Arc::new(ServiceRecord {
            id,
            description,
            state: StateCell::new(ServiceState::New, clock),
            slot: Mutex::new(None),
            platform,
            stop: Arc::new(AtomicBool::new(false)),
            bootstrap: Mutex::new(None),
            requests_served: Mutex::new(0),
        })
    }

    /// The endpoint name this service registers under.
    pub fn endpoint_name(&self) -> String {
        self.description.endpoint_name()
    }

    /// Ask the serve loop to stop.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

/// Internal record of a pilot.
pub struct PilotRecord {
    /// Runtime-assigned identifier (e.g. `pilot.000000`).
    pub id: String,
    /// The submitted description.
    pub description: PilotDescription,
    /// Validated state holder.
    pub state: StateCell<PilotState>,
    /// The granted allocation, once active.
    pub allocation: Mutex<Option<Arc<Allocation>>>,
}

impl PilotRecord {
    /// Create a record in the `New` state.
    pub fn new(id: String, description: PilotDescription, clock: SharedClock) -> Arc<Self> {
        Arc::new(PilotRecord {
            id,
            description,
            state: StateCell::new(PilotState::New, clock),
            allocation: Mutex::new(None),
        })
    }
}

/// Public handle on a submitted task.
#[derive(Clone)]
pub struct TaskHandle {
    pub(crate) record: Arc<TaskRecord>,
}

impl std::fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskHandle")
            .field("id", &self.record.id())
            .field("state", &self.state())
            .finish()
    }
}

impl TaskHandle {
    /// Runtime-assigned identifier (e.g. `task.000004`). The record keeps only the
    /// index, so each call renders the string anew.
    pub fn id(&self) -> String {
        self.record.id()
    }

    /// Current state.
    pub fn state(&self) -> TaskState {
        self.record.state.current()
    }

    /// Failure reason, if any.
    pub fn error(&self) -> Option<String> {
        self.record.state.error()
    }

    /// Virtual timestamps of every state entered so far (the last entry of a state
    /// entered more than once).
    pub fn timestamps(&self) -> BTreeMap<String, f64> {
        self.record.state.timestamps()
    }

    /// Every state entered and when, in entry order — each attempt of a retried task.
    pub fn history(&self) -> Vec<(TaskState, SimTime)> {
        self.record.state.history()
    }

    /// Times the task was re-run after losing its slot to a node failure.
    pub fn retries(&self) -> u32 {
        self.record.retries.load(Ordering::Relaxed)
    }

    /// Block until the task reaches `Done` (default timeout: 300 s of real time).
    pub fn wait_done(&self) -> Result<TaskState, RuntimeError> {
        self.wait_done_timeout(Duration::from_secs(300))
    }

    /// Block until the task reaches `Done`, with an explicit real-time timeout.
    pub fn wait_done_timeout(&self, timeout: Duration) -> Result<TaskState, RuntimeError> {
        self.record
            .state
            .wait_until(|s| s == TaskState::Done, timeout)
    }

    /// Block until the task reaches any terminal state.
    pub fn wait_final(&self, timeout: Duration) -> Result<TaskState, RuntimeError> {
        match self.record.state.wait_until(|s| s.is_final(), timeout) {
            Ok(s) => Ok(s),
            Err(RuntimeError::Failed(_)) => Ok(self.state()),
            Err(e) => Err(e),
        }
    }
}

/// Public handle on a submitted service.
#[derive(Clone)]
pub struct ServiceHandle {
    pub(crate) record: Arc<ServiceRecord>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("id", &self.record.id)
            .field("name", &self.record.description.name)
            .field("state", &self.state())
            .finish()
    }
}

impl ServiceHandle {
    /// Runtime-assigned identifier.
    pub fn id(&self) -> &str {
        &self.record.id
    }

    /// User-facing service name.
    pub fn name(&self) -> &str {
        &self.record.description.name
    }

    /// Endpoint name the service registers under.
    pub fn endpoint_name(&self) -> String {
        self.record.endpoint_name()
    }

    /// Current state.
    pub fn state(&self) -> ServiceState {
        self.record.state.current()
    }

    /// Failure reason, if any.
    pub fn error(&self) -> Option<String> {
        self.record.state.error()
    }

    /// Measured bootstrap components (local services only; `None` until ready).
    pub fn bootstrap_times(&self) -> Option<BootstrapTimes> {
        *self.record.bootstrap.lock()
    }

    /// Virtual timestamps of every state entered so far.
    pub fn timestamps(&self) -> BTreeMap<String, f64> {
        self.record.state.timestamps()
    }

    /// Every state entered and when, in entry order.
    pub fn history(&self) -> Vec<(ServiceState, SimTime)> {
        self.record.state.history()
    }

    /// Block until the service is `Ready` (default timeout: 300 s of real time).
    pub fn wait_ready(&self) -> Result<ServiceState, RuntimeError> {
        self.wait_ready_timeout(Duration::from_secs(300))
    }

    /// Block until the service is `Ready`, with an explicit real-time timeout.
    pub fn wait_ready_timeout(&self, timeout: Duration) -> Result<ServiceState, RuntimeError> {
        self.record
            .state
            .wait_until(|s| s == ServiceState::Ready, timeout)
    }

    /// Block until the service reaches any terminal state.
    pub fn wait_final(&self, timeout: Duration) -> Result<ServiceState, RuntimeError> {
        match self.record.state.wait_until(|s| s.is_final(), timeout) {
            Ok(s) => Ok(s),
            Err(RuntimeError::Failed(_)) => Ok(self.state()),
            Err(e) => Err(e),
        }
    }

    /// Ask the service to stop serving (orderly shutdown).
    pub fn request_stop(&self) {
        self.record.request_stop();
    }
}

/// Public handle on a submitted pilot.
#[derive(Clone)]
pub struct PilotHandle {
    pub(crate) record: Arc<PilotRecord>,
    /// Resize wiring: present on handles issued by a session, absent on handles
    /// constructed directly around a record (which cannot resize).
    pub(crate) manager: Option<Arc<PilotManager>>,
    /// The scheduler to poke after growth (expansion releases no slot, so parked
    /// placements would otherwise never re-probe).
    pub(crate) scheduler: Option<Arc<Scheduler>>,
}

impl std::fmt::Debug for PilotHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PilotHandle")
            .field("id", &self.record.id)
            .field("state", &self.state())
            .finish()
    }
}

impl PilotHandle {
    /// Runtime-assigned identifier.
    pub fn id(&self) -> &str {
        &self.record.id
    }

    /// Current state.
    pub fn state(&self) -> PilotState {
        self.record.state.current()
    }

    /// Number of healthy nodes in the pilot's allocation (0 before it becomes
    /// active; failed nodes do not count).
    pub fn num_nodes(&self) -> usize {
        self.record
            .allocation
            .lock()
            .as_ref()
            .map(|a| a.num_nodes())
            .unwrap_or(0)
    }

    /// Number of failed nodes still attached to the pilot's allocation.
    pub fn failed_nodes(&self) -> usize {
        self.record
            .allocation
            .lock()
            .as_ref()
            .map(|a| a.failed_nodes())
            .unwrap_or(0)
    }

    /// Nodes the platform still charges the pilot for: healthy plus failed (a
    /// failed node stays attached until a shrink sheds it).
    pub fn attached_nodes(&self) -> usize {
        self.record
            .allocation
            .lock()
            .as_ref()
            .map(|a| a.attached_nodes())
            .unwrap_or(0)
    }

    /// Healthy nodes with no occupancy at all (free for whole-node gangs).
    pub fn idle_nodes(&self) -> usize {
        self.record
            .allocation
            .lock()
            .as_ref()
            .map(|a| a.idle_nodes())
            .unwrap_or(0)
    }

    /// Total unclaimed cores across the pilot's healthy nodes.
    pub fn free_cores(&self) -> u32 {
        self.record
            .allocation
            .lock()
            .as_ref()
            .map(|a| a.free_cores())
            .unwrap_or(0)
    }

    /// Nodes currently pinned by a drain reservation.
    pub fn reserved_nodes(&self) -> usize {
        self.record
            .allocation
            .lock()
            .as_ref()
            .map(|a| a.reserved_nodes())
            .unwrap_or(0)
    }

    /// Resize the pilot to `nodes` attached nodes: growing appends fresh healthy
    /// nodes to the allocation, shrinking retires failed nodes first and then
    /// fully idle ones (all-or-nothing — busy nodes are never revoked). Returns
    /// the attached node count after the resize. Only handles obtained from
    /// [`crate::session::Session::submit_pilot`] carry the wiring to resize.
    pub fn resize(&self, nodes: usize) -> Result<usize, RuntimeError> {
        let manager = self.manager.as_ref().ok_or_else(|| {
            RuntimeError::InvalidState("this pilot handle is not bound to a session".into())
        })?;
        let attached = manager.resize(&self.record, nodes)?;
        // Growth adds capacity without releasing a slot: pass the wakeup on so
        // parked placements re-probe the expanded allocation.
        if let Some(scheduler) = &self.scheduler {
            scheduler.notify_capacity();
        }
        Ok(attached)
    }

    /// Block until the pilot is `Active` (default timeout: 300 s of real time).
    pub fn wait_active(&self) -> Result<PilotState, RuntimeError> {
        self.record
            .state
            .wait_until(|s| s == PilotState::Active, Duration::from_secs(300))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcml_sim::clock::ClockSpec;
    use std::thread;

    fn clock() -> SharedClock {
        ClockSpec::scaled(1000.0).build()
    }

    #[test]
    fn state_cell_valid_transitions_and_timestamps() {
        let cell = StateCell::new(TaskState::New, clock());
        assert_eq!(cell.current(), TaskState::New);
        cell.transition(TaskState::Scheduling).unwrap();
        cell.transition(TaskState::Executing).unwrap();
        cell.transition(TaskState::Done).unwrap();
        assert!(cell.entered_at(TaskState::New).is_some());
        assert!(cell.entered_at(TaskState::Done).is_some());
        assert!(cell.entered_at(TaskState::StagingInput).is_none());
        assert!(cell.entered_at(TaskState::Done) >= cell.entered_at(TaskState::New));
        assert_eq!(cell.timestamps().len(), 4);
    }

    #[test]
    fn a_reentered_state_keeps_both_entries_and_reports_the_last() {
        let clock = Arc::new(hpcml_sim::clock::ManualClock::new());
        let cell = StateCell::new(TaskState::New, Arc::clone(&clock) as SharedClock);
        let mut expected = vec![(TaskState::New, 0.0)];
        for (secs, next) in [
            (1.0, TaskState::Scheduling),
            (2.0, TaskState::Executing),
            (3.0, TaskState::Scheduling),
            (4.0, TaskState::Executing),
            (5.0, TaskState::StagingOutput),
        ] {
            clock.advance(Duration::from_secs(1));
            assert!(cell.transition(next).unwrap().is_some());
            expected.push((next, secs));
        }
        // The seventh entry and later leave the inline part of the log.
        clock.advance(Duration::from_secs(1));
        assert!(cell.transition(TaskState::Done).unwrap().is_some());
        expected.push((TaskState::Done, 6.0));
        clock.advance(Duration::from_secs(1));
        cell.fail(TaskState::Failed, "late");
        expected.push((TaskState::Failed, 7.0));

        let history: Vec<(TaskState, f64)> = cell
            .history()
            .into_iter()
            .map(|(state, at)| (state, at.as_secs_f64()))
            .collect();
        assert_eq!(history, expected);
        assert_eq!(cell.current(), TaskState::Failed);
        assert_eq!(cell.entered_at(TaskState::Scheduling), Some(3.0));
        assert_eq!(cell.entered_at(TaskState::Executing), Some(4.0));
        assert_eq!(cell.entered_at(TaskState::StagingInput), None);
        let stamps = cell.timestamps();
        assert_eq!(stamps.len(), 6, "one key per distinct state: {stamps:?}");
        assert_eq!(stamps["Scheduling"], 3.0);
        assert_eq!(stamps["Executing"], 4.0);
        assert_eq!(stamps["Failed"], 7.0);
    }

    #[test]
    fn a_same_state_transition_records_nothing() {
        let cell = StateCell::new(TaskState::New, clock());
        let entered = cell.transition(TaskState::Scheduling).unwrap();
        assert_eq!(
            entered,
            cell.history().last().map(|(_, at)| *at),
            "the entry's own stamp"
        );
        assert_eq!(cell.transition(TaskState::Scheduling).unwrap(), None);
        assert_eq!(cell.history().len(), 2);
    }

    #[test]
    fn state_cell_rejects_illegal_transition() {
        let cell = StateCell::new(TaskState::New, clock());
        let err = cell.transition(TaskState::Done).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidState(_)));
        // Same-state transition is a no-op.
        cell.transition(TaskState::New).unwrap();
    }

    #[test]
    fn state_cell_fail_records_reason() {
        let cell = StateCell::new(ServiceState::Launching, clock());
        cell.fail(ServiceState::Failed, "exec not found");
        assert_eq!(cell.current(), ServiceState::Failed);
        assert_eq!(cell.error(), Some("exec not found".to_string()));
    }

    #[test]
    fn wait_until_wakes_on_transition() {
        let cell = Arc::new(StateCell::new(ServiceState::New, clock()));
        let c2 = Arc::clone(&cell);
        let waiter = thread::spawn(move || {
            c2.wait_until(|s| s == ServiceState::Ready, Duration::from_secs(5))
        });
        thread::sleep(Duration::from_millis(10));
        for s in [
            ServiceState::Scheduling,
            ServiceState::Launching,
            ServiceState::Initializing,
            ServiceState::Publishing,
            ServiceState::Ready,
        ] {
            cell.transition(s).unwrap();
        }
        assert_eq!(waiter.join().unwrap().unwrap(), ServiceState::Ready);
    }

    #[test]
    fn wait_until_reports_failure() {
        let cell = Arc::new(StateCell::new(TaskState::Executing, clock()));
        let c2 = Arc::clone(&cell);
        let waiter =
            thread::spawn(move || c2.wait_until(|s| s == TaskState::Done, Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(10));
        cell.fail(TaskState::Failed, "segfault");
        let err = waiter.join().unwrap().unwrap_err();
        assert!(matches!(err, RuntimeError::Failed(reason) if reason.contains("segfault")));
    }

    #[test]
    fn wait_until_times_out() {
        let cell = StateCell::new(TaskState::New, clock());
        let err = cell
            .wait_until(|s| s == TaskState::Done, Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::WaitTimeout { .. }));
    }

    #[test]
    fn an_unbounded_timeout_waits_without_a_deadline() {
        // `Instant::now() + Duration::MAX` would panic: there is no such deadline.
        let task = |state| TaskHandle {
            record: Arc::new(TaskRecord {
                index: 0,
                state: StateCell::new(state, clock()),
                platform: PlatformId::Local,
                retries: AtomicU32::new(0),
            }),
        };
        let done = task(TaskState::Done);
        assert_eq!(done.wait_final(Duration::MAX).unwrap(), TaskState::Done);
        let running = task(TaskState::Executing);
        let finisher = {
            let running = running.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                running.record.state.transition(TaskState::Done).unwrap();
            })
        };
        assert_eq!(running.wait_final(Duration::MAX).unwrap(), TaskState::Done);
        finisher.join().unwrap();
    }

    #[test]
    fn a_long_log_keeps_every_entry_in_order() {
        // 301 entries: six in place, 295 in the spill — past what a one-byte count
        // of every entry could hold.
        let clock = Arc::new(hpcml_sim::clock::ManualClock::new());
        let cell = StateCell::new(TaskState::New, Arc::clone(&clock) as SharedClock);
        let mut expected = vec![(TaskState::New, SimTime::ZERO)];
        for _ in 0..150 {
            for next in [TaskState::Scheduling, TaskState::Executing] {
                clock.advance(Duration::from_millis(1));
                let at = cell.transition(next).unwrap().expect("a new entry");
                expected.push((next, at));
            }
        }
        assert_eq!(expected.len(), 301);
        let history = cell.history();
        assert_eq!(history, expected);
        assert!(history.windows(2).all(|w| w[0].1 < w[1].1), "stamps grow");

        assert_eq!(cell.current(), TaskState::Executing);
        let last = |state| {
            let entry = expected.iter().rev().find(|(s, _)| *s == state);
            entry.map(|(_, at)| at.as_secs_f64())
        };
        let stamps = cell.timestamps();
        assert_eq!(stamps.len(), 3);
        for state in [TaskState::New, TaskState::Scheduling, TaskState::Executing] {
            assert_eq!(cell.entered_at(state), last(state), "{state:?}");
            assert_eq!(Some(stamps[state.name()]), last(state), "{state:?}");
        }
        assert_eq!(cell.entered_at(TaskState::Done), None);
    }

    #[test]
    fn a_task_record_keeps_only_what_outlives_its_run() {
        // Six stamps and six one-byte states in place, their count and one pointer
        // for the rare parts; the index, the clock, the platform, the retry count,
        // the cell's locks. In its `Arc`, 136 bytes: a 144-byte heap chunk.
        assert_eq!(std::mem::size_of::<StateInner<TaskState>>(), 64);
        assert_eq!(std::mem::size_of::<TaskRecord>(), 120);
    }

    #[test]
    fn a_task_record_is_made_from_a_task_id_and_renders_it_back() {
        for (id, index) in [("task.000004", 4), ("task.1000000", 1_000_000)] {
            let record = TaskRecord::new(
                id.to_string(),
                TaskDescription::new("t"),
                PlatformId::Local,
                clock(),
            );
            assert_eq!(record.index, index);
            assert_eq!(record.id(), id);
        }
    }

    #[test]
    #[should_panic(expected = "is not a task id")]
    fn a_task_record_refuses_what_is_no_task_id() {
        TaskRecord::new(
            "task.4".to_string(),
            TaskDescription::new("t"),
            PlatformId::Local,
            clock(),
        );
    }

    #[test]
    fn bootstrap_times_total() {
        let bt = BootstrapTimes {
            launch_secs: 2.0,
            init_secs: 30.0,
            publish_secs: 0.5,
        };
        assert!((bt.total() - 32.5).abs() < 1e-12);
    }

    #[test]
    fn handles_expose_record_fields() {
        let c = clock();
        let task = TaskRecord::new(
            "task.000000".into(),
            TaskDescription::new("t"),
            PlatformId::Local,
            Arc::clone(&c),
        );
        let th = TaskHandle {
            record: Arc::clone(&task),
        };
        assert_eq!(th.id(), "task.000000");
        assert_eq!(th.state(), TaskState::New);
        assert_eq!(th.retries(), 0);
        assert!(th.error().is_none());
        assert!(format!("{th:?}").contains("task.000000"));

        let svc = ServiceRecord::new(
            "service.000000".into(),
            ServiceDescription::new("llm-0"),
            PlatformId::Local,
            Arc::clone(&c),
        );
        let sh = ServiceHandle {
            record: Arc::clone(&svc),
        };
        assert_eq!(sh.name(), "llm-0");
        assert_eq!(sh.endpoint_name(), "service.llm-0");
        assert!(sh.bootstrap_times().is_none());
        sh.request_stop();
        assert!(svc.stop.load(Ordering::Acquire));

        let pilot = PilotRecord::new(
            "pilot.000000".into(),
            PilotDescription::new(PlatformId::Local),
            c,
        );
        let ph = PilotHandle {
            record: pilot,
            manager: None,
            scheduler: None,
        };
        assert_eq!(ph.num_nodes(), 0);
        assert_eq!(ph.failed_nodes(), 0);
        assert_eq!(ph.attached_nodes(), 0);
        assert_eq!(ph.state(), PilotState::New);
        assert!(format!("{ph:?}").contains("pilot.000000"));
        // An unbound handle cannot resize.
        assert!(matches!(ph.resize(2), Err(RuntimeError::InvalidState(_))));
    }
}
