//! The session: the client-facing entry point of the runtime.
//!
//! A [`Session`] owns all runtime components — pilot manager, scheduler, executor,
//! task/service/data managers, the endpoint registry, the state-update publisher, and
//! the metric recorders — and exposes the unified submission API of the paper's Fig. 2:
//! `submit_pilot`, `submit_service`, `submit_task`. Users (or third-party middleware)
//! observe entity state through the returned handles or by subscribing to the update
//! bus, exactly like flow ⑥ in the paper.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use hpcml_comm::pubsub::{Publisher, Subscriber};
use hpcml_comm::registry::EndpointRegistry;
use hpcml_platform::batch::Allocation;
use hpcml_platform::PlatformId;
use hpcml_sim::clock::{ClockSpec, Interrupt, SharedClock};
use hpcml_sim::fault::FaultPlan;
use hpcml_sim::ids;
use hpcml_sim::metrics::SharedScalarSink;

use crate::data::DataManager;
use crate::describe::{PilotDescription, ServiceDescription, ServicePlacement, TaskDescription};
use crate::error::RuntimeError;
use crate::executor::Executor;
use crate::metrics::RuntimeMetrics;
use crate::pilot::PilotManager;
use crate::records::{
    PilotHandle, PilotRecord, ServiceHandle, ServiceRecord, TaskHandle, TaskRecord, TASK_NAMESPACE,
};
use crate::scheduler::Scheduler;
use crate::service_manager::ServiceManager;
use crate::states::PilotState;
use crate::task_manager::TaskManager;

/// Session-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Session name (used in identifiers and reports).
    pub name: String,
    /// Clock specification.
    pub clock: ClockSpec,
    /// Base RNG seed (all stochastic models derive from it).
    pub seed: u64,
    /// Default platform for entities that don't specify one.
    pub platform: PlatformId,
    /// Deterministic node-failure schedule, injected against the first pilot's
    /// allocation on the session clock (times are virtual seconds after the pilot
    /// becomes active). Empty (the default) injects nothing.
    pub fault_plan: FaultPlan,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            name: "session".to_string(),
            clock: ClockSpec::default(),
            seed: 42,
            platform: PlatformId::Local,
            fault_plan: FaultPlan::new(),
        }
    }
}

/// Builder for [`Session`].
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    config: SessionConfig,
}

impl SessionBuilder {
    /// Start building a session with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SessionBuilder {
            config: SessionConfig {
                name: name.into(),
                ..SessionConfig::default()
            },
        }
    }

    /// Set the default platform.
    pub fn platform(mut self, platform: PlatformId) -> Self {
        self.config.platform = platform;
        self
    }

    /// Set the clock specification.
    pub fn clock(mut self, clock: ClockSpec) -> Self {
        self.config.clock = clock;
        self
    }

    /// Set the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Set a deterministic node-failure schedule: each [`hpcml_sim::FaultEvent`]
    /// fails its node in the first pilot's allocation once the session clock
    /// reaches the event time (measured from the moment the pilot becomes
    /// active). Co-resident slots are evicted and their tasks retry per their
    /// [`TaskDescription::max_retries`] budget. Build plans explicitly with
    /// [`FaultPlan::fail_at`] or derive them from a seed with
    /// [`FaultPlan::seeded`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.config.fault_plan = plan;
        self
    }

    /// Build the session.
    pub fn build(self) -> Result<Session, RuntimeError> {
        Ok(Session::with_config(self.config))
    }
}

/// A runtime session: the unified client API.
pub struct Session {
    config: SessionConfig,
    id: String,
    clock: SharedClock,
    metrics: Arc<RuntimeMetrics>,
    publisher: Publisher,
    pilot_manager: Arc<PilotManager>,
    task_manager: Arc<TaskManager>,
    service_manager: Arc<ServiceManager>,
    executor: Arc<Executor>,
    /// One scheduler per pilot, in submission order; new work goes to the last.
    schedulers: Mutex<Vec<Arc<Scheduler>>>,
    pilots: Mutex<Vec<Arc<PilotRecord>>>,
    closed: AtomicBool,
    /// Asks the fault-injector thread to stop firing; `close` sets it.
    fault_stop: Arc<AtomicBool>,
    /// Ends the injector's sleep toward its next event early; `close` raises it.
    fault_wake: Arc<Interrupt>,
    /// The injector thread, once the first active pilot spawned it; `close` joins it.
    fault_injector: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("platform", &self.config.platform)
            .field("tasks", &self.task_manager.len())
            .field("services", &self.service_manager.len())
            .finish()
    }
}

impl Session {
    /// Start building a session.
    pub fn builder(name: impl Into<String>) -> SessionBuilder {
        SessionBuilder::new(name)
    }

    /// Create a session from an explicit configuration.
    pub fn with_config(config: SessionConfig) -> Self {
        let clock = config.clock.build();
        let metrics = RuntimeMetrics::new();
        // State updates fan out through the comm fabric; its `comm.fanout.width`
        // counts land in the session metrics, which are the publisher's sink.
        let publisher = Publisher::new().with_sink(Arc::clone(&metrics) as SharedScalarSink);
        let data = Arc::new(DataManager::new(
            Arc::clone(&clock),
            Arc::clone(&metrics),
            config.seed ^ 0xDA7A,
        ));
        let service_manager = Arc::new(ServiceManager::new(
            Arc::new(EndpointRegistry::new()),
            Arc::clone(&clock),
        ));
        let executor = Executor::new(
            Arc::clone(&clock),
            Arc::clone(&metrics),
            Arc::clone(&service_manager),
            data,
            publisher.clone(),
            config.seed,
        );
        Session {
            id: ids::next_id(&format!("session.{}", config.name)),
            clock: Arc::clone(&clock),
            metrics,
            publisher,
            pilot_manager: Arc::new(PilotManager::new(Arc::clone(&clock), config.seed ^ 0x9107)),
            task_manager: Arc::new(TaskManager::new()),
            service_manager,
            executor,
            schedulers: Mutex::new(Vec::new()),
            pilots: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
            fault_stop: Arc::new(AtomicBool::new(false)),
            fault_wake: Interrupt::new(),
            fault_injector: Mutex::new(None),
            config,
        }
    }

    fn ensure_open(&self) -> Result<(), RuntimeError> {
        if self.closed.load(Ordering::Acquire) {
            Err(RuntimeError::SessionClosed)
        } else {
            Ok(())
        }
    }

    /// Session identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The session's virtual clock.
    pub fn clock(&self) -> SharedClock {
        Arc::clone(&self.clock)
    }

    /// Shared metric recorders (BT / RT / IT plus scalar series).
    pub fn metrics(&self) -> Arc<RuntimeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The endpoint registry services publish into.
    pub fn endpoint_registry(&self) -> Arc<EndpointRegistry> {
        Arc::clone(self.service_manager.registry())
    }

    /// The service manager (readiness, liveness, shutdown).
    pub fn service_manager(&self) -> Arc<ServiceManager> {
        Arc::clone(&self.service_manager)
    }

    /// The task manager (completion tracking).
    pub fn task_manager(&self) -> Arc<TaskManager> {
        Arc::clone(&self.task_manager)
    }

    /// Subscribe to entity state updates (topics `state.task.*`, `state.service.*`).
    pub fn subscribe_updates(&self, prefixes: &[&str]) -> Subscriber {
        self.publisher.subscribe(prefixes)
    }

    /// Submit a pilot and block until it is active (its allocation is granted).
    pub fn submit_pilot(&self, description: PilotDescription) -> Result<PilotHandle, RuntimeError> {
        self.ensure_open()?;
        let record = PilotRecord::new(ids::next_id("pilot"), description, Arc::clone(&self.clock));
        self.pilot_manager.activate(&record)?;
        let allocation =
            record.allocation.lock().clone().ok_or_else(|| {
                RuntimeError::InvalidState("pilot active without allocation".into())
            })?;
        let scheduler = Arc::new(Scheduler::new(Arc::clone(&allocation)));
        self.schedulers.lock().push(Arc::clone(&scheduler));
        self.pilots.lock().push(Arc::clone(&record));
        self.spawn_fault_injector(&allocation);
        Ok(PilotHandle {
            record,
            manager: Some(Arc::clone(&self.pilot_manager)),
            scheduler: Some(scheduler),
        })
    }

    /// Spawn the fault-injector thread on the first active pilot: it sleeps on the
    /// session clock to each scheduled event time and fails the named node in
    /// `allocation`, evicting co-resident slots. Its sleeps are interruptible on every
    /// clock — a manual one included, whose advances raise them too — so `close`
    /// stops it wherever its next event lies and joins it.
    fn spawn_fault_injector(&self, allocation: &Arc<Allocation>) {
        let mut injector = self.fault_injector.lock();
        if self.config.fault_plan.is_empty() || injector.is_some() {
            return;
        }
        let plan = self.config.fault_plan.clone();
        let clock = Arc::clone(&self.clock);
        let metrics = Arc::clone(&self.metrics);
        let stop = Arc::clone(&self.fault_stop);
        let wake = Arc::clone(&self.fault_wake);
        let allocation = Arc::clone(allocation);
        let epoch = clock.now();
        let spawned = std::thread::Builder::new()
            .name("fault-injector".into())
            .spawn(move || {
                for event in plan.events() {
                    let due = epoch + Duration::from_secs_f64(event.at_secs.max(0.0));
                    while !stop.load(Ordering::Acquire) && clock.now() < due {
                        clock.sleep_interruptibly(Some(due), &wake);
                    }
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    if let Ok(victims) = allocation.fail_node(event.node) {
                        metrics.record_scalar("node.failures", 1.0);
                        metrics.record_scalar("node.failure.victim_slots", victims.len() as f64);
                    }
                }
            });
        *injector = spawned.ok();
    }

    /// Submit a service instance. Local services require an active pilot; remote
    /// services are started on their remote platform without consuming pilot resources.
    pub fn submit_service(
        &self,
        description: ServiceDescription,
    ) -> Result<ServiceHandle, RuntimeError> {
        self.ensure_open()?;
        let platform = match description.placement {
            ServicePlacement::LocalPilot => {
                let pilots = self.pilots.lock();
                let pilot = pilots
                    .iter()
                    .find(|p| p.state.current() == PilotState::Active)
                    .ok_or_else(|| {
                        RuntimeError::InvalidState(
                            "cannot submit a local service before a pilot is active".into(),
                        )
                    })?;
                pilot.description.platform
            }
            ServicePlacement::Remote(platform) => platform,
        };
        let record = ServiceRecord::new(
            ids::next_id("service"),
            description.clone(),
            platform,
            Arc::clone(&self.clock),
        );
        self.service_manager.add(Arc::clone(&record));
        let scheduler = match description.placement {
            ServicePlacement::LocalPilot => self.scheduler(),
            ServicePlacement::Remote(_) => None,
        };
        self.executor.spawn_service(Arc::clone(&record), scheduler);
        Ok(ServiceHandle { record })
    }

    /// The scheduler of the latest pilot, if any.
    fn scheduler(&self) -> Option<Arc<Scheduler>> {
        self.schedulers.lock().last().cloned()
    }

    /// The platform tasks land on: the active pilot's, or the session default.
    fn active_platform(&self) -> PlatformId {
        let pilots = self.pilots.lock();
        pilots
            .iter()
            .find(|p| p.state.current() == PilotState::Active)
            .map(|p| p.description.platform)
            .unwrap_or(self.config.platform)
    }

    fn new_task_record(&self, platform: PlatformId) -> Arc<TaskRecord> {
        let index = ids::next_index(TASK_NAMESPACE);
        let record = TaskRecord::create(index, platform, Arc::clone(&self.clock));
        self.task_manager.add(Arc::clone(&record));
        record
    }

    /// Submit a task. Requires an active pilot. The calling thread advances the
    /// task to its first park — a task that never has to wait is already final when
    /// this returns (see [`crate::executor`]).
    pub fn submit_task(&self, description: TaskDescription) -> Result<TaskHandle, RuntimeError> {
        self.ensure_open()?;
        let record = self.new_task_record(self.active_platform());
        let scheduler = self.scheduler();
        self.executor
            .spawn_task(Arc::clone(&record), description, scheduler);
        Ok(TaskHandle { record })
    }

    /// Submit a batch of tasks: [`Session::submit_task`] for each description, in
    /// order, with the scheduler and the platform resolved once. The calling thread
    /// advances every task to its first park, so the tasks reach the scheduler's wait
    /// queue in submission order, and each is validated, placed or parked on its own —
    /// an impossible shape fails only that task, and one whose `after_services` (or
    /// inference targets) have not published parks before it asks for a slot, costing
    /// no thread, until a service event wakes it. Records the number of tasks handed
    /// in as `task.admission.batch_size`.
    pub fn submit_tasks(
        &self,
        descriptions: impl IntoIterator<Item = TaskDescription>,
    ) -> Result<Vec<TaskHandle>, RuntimeError> {
        self.ensure_open()?;
        let scheduler = self.scheduler();
        let platform = self.active_platform();
        let handles: Vec<TaskHandle> = descriptions
            .into_iter()
            .map(|description| {
                let record = self.new_task_record(platform);
                self.executor
                    .spawn_task(Arc::clone(&record), description, scheduler.clone());
                TaskHandle { record }
            })
            .collect();
        self.metrics
            .record_scalar("task.admission.batch_size", handles.len() as f64);
        Ok(handles)
    }

    /// Block until every submitted task reached a terminal state.
    pub fn wait_tasks(&self, timeout: Duration) -> Result<(), RuntimeError> {
        self.task_manager.wait_all(timeout).map(|_| ())
    }

    /// Orderly shutdown: stop and join the fault injector, stop all services, close
    /// every scheduler (a request too wide for its pilot fails: nothing will expand the
    /// pilot any more), fail every task still waiting on an unpublished service, wait
    /// until every task run has ended (a run ends after its last state message is
    /// published), stop the executor's pool if it was ever started, join the entity
    /// threads, terminate pilots. Idempotent.
    pub fn close(&self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        self.fault_stop.store(true, Ordering::Release);
        if let Some(injector) = self.fault_injector.lock().take() {
            self.fault_wake.raise();
            let _ = injector.join();
        }
        self.service_manager.stop_all();
        for scheduler in self.schedulers.lock().iter() {
            scheduler.close();
        }
        self.executor.join_all();
        for pilot in self.pilots.lock().iter() {
            let _ = self.pilot_manager.terminate(pilot);
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::TaskKind;
    use crate::states::{ServiceState, TaskState};
    use hpcml_serving::ModelSpec;

    fn session(scale: f64) -> Session {
        Session::builder("test")
            .platform(PlatformId::Local)
            .clock(ClockSpec::scaled(scale))
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn pilot_service_task_end_to_end() {
        let s = session(2000.0);
        let pilot = s
            .submit_pilot(PilotDescription::new(PlatformId::Local).nodes(2))
            .unwrap();
        assert_eq!(pilot.state(), PilotState::Active);
        assert_eq!(pilot.num_nodes(), 2);

        let svc = s
            .submit_service(
                ServiceDescription::new("noop-0")
                    .model(ModelSpec::noop())
                    .gpus(1),
            )
            .unwrap();
        svc.wait_ready().unwrap();
        assert_eq!(svc.state(), ServiceState::Ready);
        assert!(s.service_manager().probe("noop-0").unwrap());

        let task = s
            .submit_task(
                TaskDescription::new("client")
                    .kind(TaskKind::inference_client("noop-0", 5))
                    .after_service("noop-0"),
            )
            .unwrap();
        task.wait_done_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(task.state(), TaskState::Done);
        assert_eq!(s.metrics().response_count(), 5);

        s.close();
        assert_eq!(svc.state(), ServiceState::Stopped);
        // Submitting after close fails.
        assert!(matches!(
            s.submit_task(TaskDescription::new("late")),
            Err(RuntimeError::SessionClosed)
        ));
    }

    #[test]
    fn local_service_before_pilot_is_rejected() {
        let s = session(10_000.0);
        let err = s
            .submit_service(ServiceDescription::new("early"))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidState(_)));
    }

    #[test]
    fn task_without_pilot_fails_at_execution() {
        let s = session(10_000.0);
        let task = s.submit_task(TaskDescription::new("orphan")).unwrap();
        let state = task.wait_final(Duration::from_secs(10)).unwrap();
        assert_eq!(state, TaskState::Failed);
        assert!(task.error().unwrap().contains("pilot"));
    }

    #[test]
    fn remote_service_needs_no_pilot() {
        let s = session(2000.0);
        let svc = s
            .submit_service(
                ServiceDescription::new("remote-noop")
                    .model(ModelSpec::noop())
                    .remote(PlatformId::R3Cloud),
            )
            .unwrap();
        svc.wait_ready().unwrap();
        // Remote services do not contribute bootstrap samples (paper §IV).
        assert_eq!(s.metrics().bootstrap_count(), 0);
        s.close();
    }

    #[test]
    fn state_updates_are_published() {
        let s = session(5000.0);
        let updates = s.subscribe_updates(&["state.task"]);
        s.submit_pilot(PilotDescription::new(PlatformId::Local).nodes(1))
            .unwrap();
        let task = s.submit_task(TaskDescription::new("t")).unwrap();
        task.wait_done_timeout(Duration::from_secs(20)).unwrap();
        let received = updates.drain();
        assert!(!received.is_empty());
        assert!(received.iter().any(|m| m.header("state") == Some("Done")));
        s.close();
    }

    #[test]
    fn submit_tasks_batch_and_wait() {
        let s = session(10_000.0);
        s.submit_pilot(PilotDescription::new(PlatformId::Local).nodes(2))
            .unwrap();
        let handles = s
            .submit_tasks((0..6).map(|i| {
                TaskDescription::new(format!("t{i}"))
                    .kind(TaskKind::compute_secs(1.0))
                    .cores(1)
            }))
            .unwrap();
        assert_eq!(handles.len(), 6);
        s.wait_tasks(Duration::from_secs(60)).unwrap();
        assert!(handles.iter().all(|h| h.state() == TaskState::Done));
        assert!(format!("{s:?}").contains("tasks"));
        s.close();
    }

    #[test]
    fn fault_plan_evicts_a_running_task_which_retries_to_done() {
        let s = Session::builder("faulty")
            .platform(PlatformId::Local)
            .clock(ClockSpec::scaled(1000.0))
            .seed(7)
            .fault_plan(FaultPlan::new().fail_at(5.0, 0))
            .build()
            .unwrap();
        let pilot = s
            .submit_pilot(PilotDescription::new(PlatformId::Local).nodes(2))
            .unwrap();
        let task = s
            .submit_task(
                TaskDescription::new("victim")
                    .kind(TaskKind::compute_secs(60.0))
                    .cores(8)
                    .max_retries(2),
            )
            .unwrap();
        task.wait_done_timeout(Duration::from_secs(600)).unwrap();
        assert_eq!(task.state(), TaskState::Done);
        assert_eq!(task.retries(), 1, "one eviction, one retry");
        assert_eq!(s.metrics().scalar_values("node.failures"), vec![1.0]);
        assert_eq!(pilot.failed_nodes(), 1);
        assert_eq!(pilot.attached_nodes(), 2, "failed node stays attached");
        s.close();
    }

    #[test]
    fn pilot_resize_grows_and_shrinks_the_allocation() {
        let s = session(5000.0);
        let pilot = s
            .submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(2))
            .unwrap();
        let batch = s.pilot_manager.batch_system(PlatformId::Delta);
        assert_eq!(pilot.attached_nodes(), 2);
        assert_eq!(batch.nodes_in_use(), 2);
        assert_eq!(pilot.resize(4).unwrap(), 4);
        assert_eq!(pilot.attached_nodes(), 4);
        assert_eq!(batch.nodes_in_use(), 4);
        // Asking for more nodes than the platform has fails cleanly and leaves
        // the allocation untouched.
        let err = pilot.resize(100_000).unwrap_err();
        assert!(matches!(err, RuntimeError::Batch(_)));
        assert_eq!(pilot.attached_nodes(), 4);
        assert_eq!(batch.nodes_in_use(), 4);
        assert_eq!(pilot.resize(1).unwrap(), 1);
        assert_eq!(batch.nodes_in_use(), 1);
        // Work still places on the shrunken pilot.
        let task = s
            .submit_task(
                TaskDescription::new("t")
                    .kind(TaskKind::compute_secs(1.0))
                    .cores(1),
            )
            .unwrap();
        task.wait_done_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(task.state(), TaskState::Done);
        s.close();
        assert_eq!(batch.nodes_in_use(), 0, "terminate releases resized pilot");
    }

    #[test]
    fn session_config_defaults() {
        let cfg = SessionConfig::default();
        assert_eq!(cfg.platform, PlatformId::Local);
        assert_eq!(cfg.seed, 42);
        let tuned = Session::builder("tuned").seed(7).build().unwrap();
        assert_eq!(tuned.config().seed, 7);
        let s = Session::with_config(cfg.clone());
        assert_eq!(s.config(), &cfg);
        assert!(s.id().starts_with("session."));
        assert!(s.clock().scale() > 1.0);
        assert!(s.endpoint_registry().is_empty());
        assert!(s.task_manager().is_empty());
    }
}
