//! The executor: launching service instances and running tasks.
//!
//! The executor realises flows ③–⑤ of the paper's architecture (Fig. 2): it places each
//! scheduled entity on its slot and drives it through its lifecycle. All
//! hardware-bound durations — launcher start-up, model load, data staging, compute
//! kernels, network hops, token generation — are spent on the session's shared virtual
//! clock.
//!
//! ## Tasks are resumable state machines
//!
//! A task is not a thread. Its lifecycle is one state machine,
//!
//! ```text
//! Admitted → [AwaitingServices] → Scheduling → [StagingInput] → Executing(until)
//!          → [StagingOutput] → Releasing → Done
//!                 ▲                                   │ node failure, retry budget left
//!                 └────────────── Backoff(until) ◄────┘
//! ```
//!
//! and `advance` runs it on **whichever thread holds the task** until it *parks*:
//!
//! | park | waits for | resumed by |
//! |---|---|---|
//! | `Waker` | a service the task depends on to publish its endpoint, on the dependents list (`Executor::services_published`); or a slot, in the scheduler's wait queue ([`Scheduler::poll_placed`]). No deadline | the task's waker: a service became `Ready`, `Failed` or `Stopped`, or the session is closing; capacity came back, or the session closed while the pilot is too small for the task. No timer entry |
//! | `Timer(t)` | the session clock to read `t`: compute, each staging transfer, retry backoff | the timer thread |
//! | `Blocking` | the inference-client request loop, which can only be waited for by blocking | a dedicated entity thread, for that stage only — it goes on advancing the task until the next park |
//! | `Done` | — | — |
//!
//! **Who advances when.** The thread that submits a task advances it to its first
//! park itself: a NOOP task on a pilot with free capacity runs to `Done` inside
//! `Session::submit_task(s)` without touching a queue or another thread, so
//! `New → Done` latency falls with throughput instead of queueing behind a hand-off.
//! Parked tasks are resumed by a small fixed worker pool and one timer thread
//! ([`hpcml_sim::pool`]), both started by the first park and sized from
//! `available_parallelism`; a session whose runs never park — or only block — never
//! starts them. Task wakers only enqueue (they are called under a scheduler lock); a
//! per-run status makes a duplicate wake-up cost one enqueue and turns a wake-up that
//! lands mid-advance into one more advance instead of a lost one. Every stage
//! re-checks its own condition when resumed, so early or stale wake-ups are harmless.
//!
//! The same rule — *the thread that makes a run runnable advances it to its first
//! park* — serves requests. The services hosted here add two more kinds of run
//! (`hpcml_serving::{service, pool}`); the pool, handed to each service, resumes the
//! replicas:
//!
//! | run | made runnable by | advanced by | parks on |
//! |---|---|---|---|
//! | task | `submit_task(s)` | the submitting thread, then workers | its waker, timers, the client loop (above) |
//! | a service's admission front-end | a client sending a message to the endpoint | that client's thread, which takes the run and carries its message into the pass; if another thread holds the run past a bounded wait, the message queues and that one makes one more pass ([`Pool::advance_or_wake`]) | nothing: a pass ends when nothing waits |
//! | a replica | the front-end dispatching a request to it | the dispatching thread, which begins the request on an idle replica — still the client's, for a request that met no queue; whoever holds a busy replica begins what queued, in dispatch order, as its next batch | the batch's inference time: a session-clock timer, then a worker |
//!
//! so a request to an idle NOOP service is admitted, dispatched, computed and answered
//! on the requesting thread without having been queued anywhere, and one that waits
//! does so in a queue or on the timer heap.
//!
//! Thread count is therefore bounded by pool size + 1 + live services + running
//! inference clients, whatever the number of tasks — a task waiting on a service costs
//! no thread — **and whatever the replica count** (a service's one thread runs its
//! lifecycle and then sleeps in `serve`); finished entity threads are joined whenever a
//! new one is spawned.
//!
//! **Lock order:** the table in `docs/ARCHITECTURE.md` ("Lock order"). A task waker —
//! called under the scheduler's queue lock, or by a service event with no lock held —
//! touches only the run's status and the run queue; an endpoint's waker, which
//! advances the front-end inline, is called with no comm lock held.
//!
//! **`Done` means released.** The final stage releases the slot, then makes `Done`
//! observable, then publishes it: a handle that shows `Done` has its resources back
//! in the pilot, and a task gets exactly one terminal message.
//!
//! **A finished task keeps only its record.** [`Executor::spawn_task`] takes the
//! [`TaskDescription`] by value into the run, beside the slot the run holds from
//! placement to release; the stages read the run's copy. Both are freed with the run —
//! after its final advance, once no waker or timer entry refers to it — and what the
//! session keeps of the task is the [`TaskRecord`]: the id's index, state log,
//! platform, retry count.
//!
//! ## Services
//!
//! A service instance is a long-lived executable placed on specific nodes; its
//! *lifecycle* (placement, launch, init, publish, teardown) runs on an entity thread of
//! its own, which sleeps in `InferenceService::serve` while the service is up — the
//! requests themselves are served by the two runs above. For **local services** the executor measures the three
//! bootstrap components of the paper's Fig. 3 from the service's own state timestamps:
//! `launch` (Launching → Initializing), `init` (Initializing → Publishing) and
//! `publish` (Publishing → Ready). For **inference-client tasks** it records one
//! response-time sample per request, decomposed into `communication`, `service` and
//! `inference` exactly as the paper's experiments 2 and 3 do.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use hpcml_comm::link::Link;
use hpcml_comm::message::Message;
use hpcml_comm::pubsub::Publisher;
use hpcml_comm::registry::{EndpointEntry, EndpointRegistry};
use hpcml_comm::reqrep::ReqRepServer;
use hpcml_comm::CommError;
use hpcml_platform::resources::{ResourceError, Slot};
use hpcml_platform::PlatformId;
use hpcml_serving::host::ModelHost;
use hpcml_serving::protocol::{
    HDR_INFERENCE_SECS, HDR_RETRY_AFTER_SECS, HDR_SERVICE_SECS, KIND_ERROR, KIND_SHED,
};
use hpcml_serving::request::InferenceRequest;
use hpcml_serving::service::{inference_request_message, InferenceService};
use hpcml_sim::clock::{SharedClock, SimTime, Stopwatch};
use hpcml_sim::dist::Dist;
use hpcml_sim::metrics::SharedScalarSink;
use hpcml_sim::pool::{panic_message, Pool, Resume, RunCell};

use crate::data::DataManager;
use crate::describe::{
    DataDirective, ServicePlacement, ServiceSelector, TaskDescription, TaskKind,
};
use crate::error::RuntimeError;
use crate::metrics::{RuntimeMetrics, TaskRow};
use crate::records::{BootstrapTimes, ServiceRecord, StateModel, TaskRecord};
use crate::scheduler::{Placement, PlacementPoll, PlacementStats, Priority, Scheduler};
use crate::service_manager::ServiceManager;
use crate::states::{ServiceState, TaskState};

/// Metadata key under which a service's model name is published.
pub const META_MODEL: &str = "model";
/// Metadata key under which a service's platform is published.
pub const META_PLATFORM: &str = "platform";
/// Metadata key under which a service's runtime identifier is published.
pub const META_SERVICE_ID: &str = "service_id";

/// Virtual backoff before the first retry of a task evicted by a node failure;
/// doubles on every further attempt (exponential backoff on the session clock).
const RETRY_BACKOFF_BASE_SECS: f64 = 0.5;

/// How many times an inference client honours a shed reply's retry-after hint before
/// counting the request as failed.
const MAX_SHED_RETRIES: u32 = 3;

/// Where a task's lifecycle stands between two advances (see the module docs).
enum Stage {
    /// Accepted, or back from a retry backoff: nothing of this attempt has happened.
    Admitted,
    /// `Scheduling` is published: park until every service edge is met.
    AwaitingServices,
    /// Queued for a slot; the placement is created on first entry.
    Scheduling(Option<Placement>),
    /// Input directives are transferred one after the other.
    StagingInput(Staging),
    /// On its slot. `None` before the state is entered; then when execution began and
    /// when it ends on the session clock (`None` = the blocking client loop).
    Executing(Option<(SimTime, Option<SimTime>)>),
    /// Output directives are transferred one after the other.
    StagingOutput(Staging),
    /// The attempt is over with this outcome; the slot goes back before anything
    /// becomes observable.
    Releasing(Result<(), RuntimeError>),
    /// Evicted with retry budget left: re-enter scheduling once the clock reads this.
    Backoff(SimTime),
    /// Terminal state reached and published.
    Done,
}

/// Progress through a list of staging directives.
#[derive(Default)]
struct Staging {
    /// Directives fully transferred.
    next: usize,
    /// The transfer in flight: its sampled seconds and when it ends.
    transfer: Option<(f64, SimTime)>,
}

/// Why `advance` returned.
enum Park {
    /// On the dependents list or in the scheduler's queue: poll again when woken.
    Waker,
    /// Nothing to do until the session clock reads this.
    Timer(SimTime),
    /// The inference-client loop must block: continue on an entity thread.
    Blocking,
    /// The lifecycle is over.
    Done,
}

/// The mutable half of a task run; only the thread holding the run touches it.
struct RunState {
    stage: Stage,
    /// The slot this attempt holds, from placement to release: nothing else keeps it,
    /// so a finished task keeps no slot.
    slot: Option<Slot>,
    /// What this attempt has measured since it was placed, until it is recorded.
    row: Option<TaskRow>,
}

/// One task's lifecycle in flight. It owns what the task needs only while it runs —
/// the description, and (in [`RunState`]) the slot — so both are freed with the run;
/// the record keeps what outlives it.
struct TaskRun {
    executor: Arc<Executor>,
    record: Arc<TaskRecord>,
    description: TaskDescription,
    scheduler: Option<Arc<Scheduler>>,
    cell: RunCell,
    state: Mutex<RunState>,
}

impl Resume for TaskRun {
    fn cell(&self) -> &RunCell {
        &self.cell
    }

    fn resume(self: Arc<Self>) {
        let executor = Arc::clone(&self.executor);
        executor.drive(self, false);
    }
}

impl Wake for TaskRun {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.executor.pool.wake(self);
    }
}

/// The executor component.
pub struct Executor {
    clock: SharedClock,
    metrics: Arc<RuntimeMetrics>,
    registry: Arc<EndpointRegistry>,
    /// Tells an unpublished service from one that ended unpublished.
    services: Arc<ServiceManager>,
    /// Runs parked in `AwaitingServices`, woken by every service event; `None` = closed.
    /// `drained` waits on this lock too, so `join_all` closes the list under the lock it
    /// waits for the drain under, and `close` takes no lock more.
    dependents: Mutex<Option<Vec<Waker>>>,
    data: Arc<DataManager>,
    publisher: Publisher,
    concurrent_launches: Arc<AtomicU32>,
    publish_overhead: Dist,
    seed_counter: AtomicU64,
    base_seed: u64,
    /// Entity threads not yet joined: services and inference-client loops.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Resumes parked runs — tasks, and the replicas of the services hosted here;
    /// starts no thread before the first park.
    pool: Arc<Pool>,
    /// Task runs between spawn and their last publish.
    in_flight: AtomicUsize,
    /// Signalled under `dependents` by the run that brings `in_flight` to zero;
    /// `join_all` checks the count under it too, so the signal is never lost.
    drained: Condvar,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field(
                "concurrent_launches",
                &self.concurrent_launches.load(Ordering::Relaxed),
            )
            .field("entity_threads", &self.handles.lock().len())
            .field("runs_in_flight", &self.in_flight.load(Ordering::Relaxed))
            .field("pool_started", &self.pool.is_started())
            .finish()
    }
}

impl Executor {
    /// Create an executor for the services `services` tracks. Spawns nothing.
    pub fn new(
        clock: SharedClock,
        metrics: Arc<RuntimeMetrics>,
        services: Arc<ServiceManager>,
        data: Arc<DataManager>,
        publisher: Publisher,
        base_seed: u64,
    ) -> Arc<Self> {
        Arc::new(Executor {
            pool: Arc::new(Pool::new(Arc::clone(&clock))),
            clock,
            metrics,
            registry: Arc::clone(services.registry()),
            services,
            dependents: Mutex::new(Some(Vec::new())),
            data,
            publisher,
            concurrent_launches: Arc::new(AtomicU32::new(0)),
            // Endpoint publication: registry round trip plus control-channel fan-out.
            // Calibrated to stay below the launch time, as the paper observes.
            publish_overhead: Dist::normal(0.35, 0.08),
            seed_counter: AtomicU64::new(1),
            base_seed,
            handles: Mutex::new(Vec::new()),
            in_flight: AtomicUsize::new(0),
            drained: Condvar::new(),
        })
    }

    fn next_seed(&self) -> u64 {
        self.base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.seed_counter.fetch_add(1, Ordering::Relaxed))
    }

    /// Publish an entity's entry into `state`; `entity` renders the entity's id. The
    /// message — and the id in it — is built only if a subscriber's prefix matches
    /// the topic; a session nobody listens to pays one atomic load for the match and
    /// one `comm.fanout.width` count into the session metrics (a stripe lock). It may
    /// wait in an inbox until its subscriber drains, so its two headers get a `Vec` of
    /// two, not the four a `Vec` grown one push at a time would keep.
    fn publish_state<S: StateModel>(&self, entity: impl FnOnce() -> String, state: S) {
        self.publisher.publish_with(state.topic(), || {
            Message::new(state.topic(), "state.update")
                .with_header_room(2)
                .with_header("entity", entity())
                .with_header("state", state.name())
        });
    }

    /// The one place entity threads come from: services, and inference-client loops.
    /// Finished threads are joined first, so a long session with many short clients
    /// does not pile up unjoined stacks.
    fn spawn_entity(&self, name: &str, body: impl FnOnce() + Send + 'static) {
        let mut handles = self.handles.lock();
        let mut i = 0;
        while i < handles.len() {
            if handles[i].is_finished() {
                let _ = handles.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(body)
            .expect("failed to spawn entity thread");
        handles.push(handle);
    }

    /// Start the lifecycle of a service instance on an entity thread of its own.
    pub fn spawn_service(
        self: &Arc<Self>,
        record: Arc<ServiceRecord>,
        scheduler: Option<Arc<Scheduler>>,
    ) {
        let this = Arc::clone(self);
        let name = record.id.clone();
        self.spawn_entity(&name, move || this.run_service(record, scheduler));
    }

    /// Start the lifecycle of a task: the calling thread advances it to its first
    /// park (for a task that never waits, to its end); the pool resumes it from there.
    /// The run takes `description` and frees it when it ends.
    pub fn spawn_task(
        self: &Arc<Self>,
        record: Arc<TaskRecord>,
        description: TaskDescription,
        scheduler: Option<Arc<Scheduler>>,
    ) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let run = Arc::new(TaskRun {
            executor: Arc::clone(self),
            record,
            description,
            scheduler,
            cell: RunCell::held(),
            state: Mutex::new(RunState {
                stage: Stage::Admitted,
                slot: None,
                row: None,
            }),
        });
        self.drive(run, false);
    }

    /// Close the dependents list (a run still waiting on a service fails with
    /// [`RuntimeError::SessionClosed`]), wait until every task run has ended, join
    /// every entity thread (services must have been asked to stop), then stop the pool
    /// if it was started. In that order: a service on its way out waits for its
    /// replicas' batches to end, and those park on the pool's timers.
    pub fn join_all(&self) {
        let mut lock = self.dependents.lock();
        if let Some(parked) = lock.take().filter(|parked| !parked.is_empty()) {
            drop(lock);
            parked.into_iter().for_each(Waker::wake);
            lock = self.dependents.lock();
        }
        while self.in_flight.load(Ordering::Acquire) > 0 {
            self.drained.wait(&mut lock);
        }
        drop(lock);
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            let _ = h.join();
        }
        self.pool.shutdown();
    }

    // ------------------------------------------------------------------ services

    fn run_service(&self, record: Arc<ServiceRecord>, scheduler: Option<Arc<Scheduler>>) {
        if let Err(e) = self.run_service_inner(&record, scheduler) {
            if !record.state.current().is_final() {
                record.state.fail(ServiceState::Failed, e.to_string());
            }
            self.publish_state(|| record.id.clone(), ServiceState::Failed);
        }
        // `Failed` or `Stopped`: a task waiting on this service fails.
        self.wake_dependents();
    }

    /// Wake every run parked on a service edge, after a service event.
    fn wake_dependents(&self) {
        let parked = self.dependents.lock().as_mut().map(std::mem::take);
        parked.into_iter().flatten().for_each(Waker::wake);
    }

    fn run_service_inner(
        &self,
        record: &Arc<ServiceRecord>,
        scheduler: Option<Arc<Scheduler>>,
    ) -> Result<(), RuntimeError> {
        let desc = &record.description;
        let platform_spec = record.platform.spec();
        let is_local = matches!(desc.placement, ServicePlacement::LocalPilot);

        // ② scheduling / placement.
        record.state.transition(ServiceState::Scheduling)?;
        self.publish_state(|| record.id.clone(), ServiceState::Scheduling);
        let slot = if is_local {
            let scheduler = scheduler.ok_or_else(|| {
                RuntimeError::InvalidState("local service submitted without an active pilot".into())
            })?;
            let (slot, stats) =
                scheduler.block_on(Placement::new(&desc.resources, Priority::Service), None)?;
            self.metrics
                .record_scalar("service.placement_wait_secs", stats.wait_secs);
            *record.slot.lock() = Some(slot.clone());
            Some((scheduler, slot))
        } else {
            None
        };

        // ③ launch the service executable on its target resources.
        record.state.transition(ServiceState::Launching)?;
        self.publish_state(|| record.id.clone(), ServiceState::Launching);
        let mut rng = StdRng::seed_from_u64(self.next_seed());
        let launch_watch = Stopwatch::start(self.clock.as_ref());
        let in_flight = self.concurrent_launches.fetch_add(1, Ordering::AcqRel) + 1;
        let launch_model = platform_spec.launcher.model();
        let launch_duration = launch_model.sample_launch(in_flight, &mut rng);
        self.clock.sleep(launch_duration);
        let launch_secs = launch_watch.elapsed_secs();

        // ⑤ instantiate the ML capability: load + initialise the model replicas.
        record.state.transition(ServiceState::Initializing)?;
        let init_result = (|| -> Result<(Vec<Arc<ModelHost>>, f64), RuntimeError> {
            let init_watch = Stopwatch::start(self.clock.as_ref());
            let replicas = desc.serving.replicas.max(1);
            let hosts: Vec<Arc<ModelHost>> = (0..replicas)
                .map(|_| {
                    Arc::new(ModelHost::from_spec(
                        desc.model.clone(),
                        Arc::clone(&self.clock),
                        self.next_seed(),
                    ))
                })
                .collect();
            if let Some((_, slot)) = &slot {
                if slot.num_gpus() > 0 {
                    // All replicas host the same model spec; one fit check covers the
                    // whole gang (member nodes are homogeneous within a platform).
                    hosts[0]
                        .check_gpu_fit(platform_spec.node.gpu_mem_gib)
                        .map_err(|e| RuntimeError::Failed(e.to_string()))?;
                }
            }
            if hosts.len() == 1 {
                hosts[0].load();
            } else {
                // Replicas load in parallel on their gang members, so init time is the
                // slowest load, not the sum.
                let loaders: Vec<std::thread::JoinHandle<()>> = hosts
                    .iter()
                    .map(|h| {
                        let h = Arc::clone(h);
                        std::thread::spawn(move || {
                            h.load();
                        })
                    })
                    .collect();
                for loader in loaders {
                    let _ = loader.join();
                }
            }
            Ok((hosts, init_watch.elapsed_secs()))
        })();
        let (hosts, init_secs) = match init_result {
            Ok(v) => v,
            Err(e) => {
                self.concurrent_launches.fetch_sub(1, Ordering::AcqRel);
                if let Some((scheduler, slot)) = &slot {
                    let _ = scheduler.release(slot);
                }
                return Err(e);
            }
        };

        // ④ publish the service endpoint.
        record.state.transition(ServiceState::Publishing)?;
        let publish_watch = Stopwatch::start(self.clock.as_ref());
        let endpoint = ReqRepServer::new(record.endpoint_name());
        let mut metadata = BTreeMap::new();
        metadata.insert(META_MODEL.to_string(), desc.model.name.clone());
        metadata.insert(
            META_PLATFORM.to_string(),
            record.platform.short_name().to_string(),
        );
        metadata.insert(META_SERVICE_ID.to_string(), record.id.clone());
        let publish_overhead = self.publish_overhead.sample(&mut rng).max(0.0);
        self.clock.sleep(Duration::from_secs_f64(publish_overhead));
        let register_result =
            self.registry
                .register(record.endpoint_name(), endpoint.handle(), metadata);
        self.concurrent_launches.fetch_sub(1, Ordering::AcqRel);
        if let Err(e) = register_result {
            if let Some((scheduler, slot)) = &slot {
                let _ = scheduler.release(slot);
            }
            return Err(RuntimeError::Comm(e));
        }
        let publish_secs = publish_watch.elapsed_secs();

        // Record the bootstrap breakdown before announcing readiness so that waiters
        // woken by the Ready transition always observe it (local ephemeral services
        // only — remote models are persistent and are not bootstrapped per
        // application, §IV).
        let bootstrap = BootstrapTimes {
            launch_secs,
            init_secs,
            publish_secs,
        };
        *record.bootstrap.lock() = Some(bootstrap);
        if is_local {
            self.metrics.record_bootstrap(&record.id, bootstrap);
        }
        record.state.transition(ServiceState::Ready)?;
        self.publish_state(|| record.id.clone(), ServiceState::Ready);
        self.wake_dependents();

        // Serve until asked to stop. Serving-plane metrics flow into the runtime
        // metrics store, the plane's sink, alongside the task/service scalars.
        let service = InferenceService::on_executor(
            record.description.name.clone(),
            hosts,
            Arc::clone(&self.clock),
            self.next_seed(),
            desc.serving.clone(),
            Arc::clone(&self.metrics) as SharedScalarSink,
            Arc::clone(&self.pool),
        );
        let served = service.serve(&endpoint, &record.stop);
        *record.requests_served.lock() = served;

        // Orderly teardown.
        self.registry.unregister(&record.endpoint_name());
        if record.state.current() == ServiceState::Ready {
            record.state.transition(ServiceState::Stopping)?;
        }
        if record.state.current() == ServiceState::Stopping {
            record.state.transition(ServiceState::Stopped)?;
        }
        self.publish_state(|| record.id.clone(), ServiceState::Stopped);
        if let Some((scheduler, slot)) = &slot {
            scheduler.release(slot)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------ tasks

    /// Advance `run` — which the calling thread holds — until it parks, file the timer
    /// a `Timer` park needs, and let go of it; or finish it. `may_block` says the
    /// caller is an entity thread that may run the client loop itself.
    fn drive(self: &Arc<Self>, run: Arc<TaskRun>, may_block: bool) {
        loop {
            let park = {
                let mut state = run.state.lock();
                let park = self.advance(&run, &mut state, may_block);
                if let Park::Timer(at) = park {
                    self.pool.wake_at_clock(&run, at);
                }
                park
            };
            match park {
                Park::Done => {
                    run.cell.finish();
                    if self.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
                        let _lock = self.dependents.lock();
                        self.drained.notify_all();
                    }
                    return;
                }
                Park::Blocking => {
                    // The run stays held; the entity thread takes it over.
                    let this = Arc::clone(self);
                    let name = run.record.id();
                    self.spawn_entity(&name, move || this.drive(run, true));
                    return;
                }
                Park::Timer(_) | Park::Waker => {
                    if run.cell.release() {
                        return;
                    }
                    // Woken while still advancing: look again.
                }
            }
        }
    }

    /// Run the state machine until it parks. An attempt that errors takes the retry
    /// edge when a node failure caused it and budget is left, and fails the task
    /// otherwise; so does a step that panics, because the thread it ran on — a pool
    /// worker, perhaps — has other runs to resume, and `join_all` counts this one.
    fn advance(&self, run: &Arc<TaskRun>, state: &mut RunState, may_block: bool) -> Park {
        loop {
            let stepped = catch_unwind(AssertUnwindSafe(|| self.step(run, state, may_block)))
                .unwrap_or_else(|panic| {
                    let what = panic_message(&*panic);
                    Err(RuntimeError::InvalidState(format!("task panicked: {what}")))
                });
            match stepped {
                Ok(Some(park)) => return park,
                Ok(None) => {}
                Err(e) => self.attempt_failed(run, state, e),
            }
        }
    }

    /// One transition of the state machine: `Some(park)` when the current stage has
    /// to wait, `None` when it moved on.
    fn step(
        &self,
        run: &Arc<TaskRun>,
        state: &mut RunState,
        may_block: bool,
    ) -> Result<Option<Park>, RuntimeError> {
        let (record, desc) = (&run.record, &run.description);
        let RunState { stage, slot, row } = state;
        let next = match stage {
            Stage::Admitted => {
                // A retry comes back already in `Scheduling`: the retry edge entered
                // and published it when the attempt failed.
                if record.state.transition(TaskState::Scheduling)?.is_some() {
                    self.publish_state(|| record.id(), TaskState::Scheduling);
                }
                let client = matches!(desc.kind, TaskKind::InferenceClient { .. });
                if desc.after_services.is_empty() && !client {
                    Stage::Scheduling(None)
                } else {
                    Stage::AwaitingServices
                }
            }
            Stage::AwaitingServices => {
                if !self.services_published(run)? {
                    return Ok(Some(Park::Waker));
                }
                Stage::Scheduling(None)
            }
            Stage::Scheduling(pending) => {
                let scheduler = run.scheduler.as_ref().ok_or_else(|| {
                    RuntimeError::InvalidState("task submitted without an active pilot".into())
                })?;
                // A retry after a node failure re-enters the wait queue at the front:
                // the task already waited its turn before the eviction.
                let placement = pending.get_or_insert_with(|| {
                    if record.retries.load(Ordering::Relaxed) > 0 {
                        Placement::requeued(&desc.resources, Priority::Task)
                    } else {
                        Placement::new(&desc.resources, Priority::Task)
                    }
                });
                let waker = Waker::from(Arc::clone(run));
                match scheduler.poll_placed(placement, &waker) {
                    PlacementPoll::Pending => return Ok(Some(Park::Waker)),
                    PlacementPoll::Ready(result) => {
                        let (placed, stats) = result?;
                        *row = Some(TaskRow {
                            placement_wait_secs: stats.wait_secs,
                            exec_secs: f64::NAN,
                        });
                        self.record_gang_placement(&placed, &stats);
                        *slot = Some(placed);
                        if desc.stage_in.is_empty() {
                            Stage::Executing(None)
                        } else {
                            record.state.transition(TaskState::StagingInput)?;
                            Stage::StagingInput(Staging::default())
                        }
                    }
                }
            }
            Stage::StagingInput(staging) => match self.stage_next(&desc.stage_in, staging) {
                Some(until) => return Ok(Some(Park::Timer(until))),
                None => Stage::Executing(None),
            },
            Stage::Executing(None) => {
                // Execution began when the state was entered: nobody reads that twice.
                let entered = record.state.transition(TaskState::Executing)?;
                let started = entered.expect("an attempt enters `Executing` once");
                self.publish_state(|| record.id(), TaskState::Executing);
                let until = match &desc.kind {
                    TaskKind::Noop => Some(started),
                    TaskKind::Compute { duration_secs } => {
                        let mut rng = StdRng::seed_from_u64(self.next_seed());
                        Some(started + duration_secs.sample_secs(&mut rng))
                    }
                    TaskKind::InferenceClient { .. } => None,
                };
                Stage::Executing(Some((started, until)))
            }
            Stage::Executing(Some((started, until))) => {
                let result = match until {
                    // An end that is not in the future — every NOOP — is not waited for.
                    Some(until) if *until > *started && self.clock.now() < *until => {
                        return Ok(Some(Park::Timer(*until)))
                    }
                    Some(_) => Ok(()),
                    None if !may_block => return Ok(Some(Park::Blocking)),
                    None => self.run_inference_client(record, &desc.kind),
                };
                let mut row = row.take().expect("an executing task was placed");
                row.exec_secs = self.clock.now().since(*started).as_secs_f64();
                self.metrics.record_task(row);
                let held = slot.as_ref().expect("an executing task holds a slot");
                let scheduler = run.scheduler.as_ref().expect("placed by a scheduler");
                if result.is_err() {
                    Stage::Releasing(result)
                } else if scheduler.slot_lost(held) {
                    // Node-failure detection: the slot was evicted while the task
                    // ran, so the work is lost and the task must be requeued.
                    // Release retires the evicted slot and reports which node failed.
                    Stage::Releasing(Err(RuntimeError::Resource(ResourceError::NodeFailed(
                        held.node_index(),
                    ))))
                } else if desc.stage_out.is_empty() {
                    Stage::Releasing(Ok(()))
                } else {
                    record.state.transition(TaskState::StagingOutput)?;
                    Stage::StagingOutput(Staging::default())
                }
            }
            Stage::StagingOutput(staging) => match self.stage_next(&desc.stage_out, staging) {
                Some(until) => return Ok(Some(Park::Timer(until))),
                None => Stage::Releasing(Ok(())),
            },
            Stage::Releasing(outcome) => {
                let outcome = std::mem::replace(outcome, Ok(()));
                let held = slot.take().expect("a releasing task holds a slot");
                let scheduler = run.scheduler.as_ref().expect("placed by a scheduler");
                match (scheduler.release(&held), outcome) {
                    (Ok(()), Ok(())) => {}
                    // The node died after the work completed: the eviction already
                    // reclaimed the slot's resources, so the task's outcome stands.
                    (Err(RuntimeError::Resource(ResourceError::NodeFailed(_))), Ok(())) => {}
                    // A failed release outranks the attempt's own error: for an
                    // evicted slot it names the node that failed, which is what
                    // decides between retry and failure.
                    (Err(e), _) | (Ok(()), Err(e)) => return Err(e),
                }
                // Released first, observable second, published last.
                record.state.transition(TaskState::Done)?;
                self.publish_state(|| record.id(), TaskState::Done);
                Stage::Done
            }
            Stage::Backoff(until) => {
                if self.clock.now() < *until {
                    return Ok(Some(Park::Timer(*until)));
                }
                Stage::Admitted
            }
            Stage::Done => return Ok(Some(Park::Done)),
        };
        *stage = next;
        Ok(None)
    }

    /// The attempt failed with `err`: give back what it still holds, then either
    /// take the retry edge — a task that lost its slot to a node failure re-enters
    /// scheduling (at the front of its wait queue) up to `max_retries` times, with
    /// exponential backoff on the session clock between attempts — or fail the task
    /// with its one terminal message.
    fn attempt_failed(&self, run: &TaskRun, state: &mut RunState, err: RuntimeError) {
        let record = &run.record;
        if let Some(row) = state.row.take() {
            self.metrics.record_task(row);
        }
        if let Some(scheduler) = run.scheduler.as_ref() {
            if let Some(held) = state.slot.take() {
                let _ = scheduler.release(&held);
            }
            // A placement that still holds a queue place (only a panic gets here with
            // one) must leave it, or it would block the FIFO behind it forever.
            if let Stage::Scheduling(Some(pending)) =
                std::mem::replace(&mut state.stage, Stage::Done)
            {
                scheduler.cancel_placement(pending);
            }
        }
        let evicted = matches!(err, RuntimeError::Resource(ResourceError::NodeFailed(_)));
        let retries = record.retries.load(Ordering::Relaxed);
        if evicted && retries < run.description.max_retries {
            record.retries.store(retries + 1, Ordering::Relaxed);
            self.metrics.record_scalar("task.retries", 1.0);
            // The retry edge: the record is back in `Scheduling` for the whole backoff,
            // and the next attempt's `Admitted` stage finds it there.
            if matches!(record.state.transition(TaskState::Scheduling), Ok(Some(_))) {
                self.publish_state(|| record.id(), TaskState::Scheduling);
            }
            let backoff = RETRY_BACKOFF_BASE_SECS * f64::from(1u32 << retries.min(16));
            state.stage = Stage::Backoff(self.clock.now() + Duration::from_secs_f64(backoff));
            return;
        }
        if !record.state.current().is_final() {
            record.state.fail(TaskState::Failed, err.to_string());
        }
        self.publish_state(|| record.id(), TaskState::Failed);
        state.stage = Stage::Done;
    }

    fn record_gang_placement(&self, slot: &Slot, placement: &PlacementStats) {
        if slot.is_gang() {
            // Gang placements queue for multi-node capacity, so their behaviour is
            // tracked separately from single-node placement waits — including how
            // often a later arrival was placed while the gang was parked and did not
            // fit (`task.gang.overtakes`: passes the scheduler's walk made, never a
            // race between requests that both fitted), how many members landed on
            // partially free nodes (co-resident with other slots), and how long the
            // gang spent in backfill-draining mode before enough nodes were reserved
            // (recorded whether the reservation completed via idle transitions or
            // via partial-headroom pinning).
            self.metrics
                .record_scalar("task.gang.placement_wait_secs", placement.wait_secs);
            self.metrics
                .record_scalar("task.gang.nodes", slot.num_nodes() as f64);
            self.metrics
                .record_scalar("task.gang.partial_nodes", slot.partial_nodes() as f64);
            self.metrics
                .record_scalar("task.gang.overtakes", placement.overtakes as f64);
            if let Some(drain_secs) = placement.drain_secs {
                self.metrics
                    .record_scalar("task.gang.drain_secs", drain_secs);
            }
        }
    }

    /// Advance a staging stage: record the transfer that has ended, start the next.
    /// `Some(t)` = a transfer runs until `t`; `None` = every directive is staged.
    fn stage_next(&self, directives: &[DataDirective], staging: &mut Staging) -> Option<SimTime> {
        loop {
            if let Some((secs, until)) = staging.transfer {
                if self.clock.now() < until {
                    return Some(until);
                }
                self.data.record_transfer(&directives[staging.next], secs);
                staging.next += 1;
                staging.transfer = None;
            }
            let directive = directives.get(staging.next)?;
            let secs = self.data.transfer_secs(directive);
            let until = self.clock.now() + Duration::from_secs_f64(secs);
            staging.transfer = Some((secs, until));
        }
    }

    /// Whether every service edge of `run` is met: its `after_services` names, each name
    /// of a `Named` client selector, and a `ByModel` / `Any` selector (met by the first
    /// match). A name fails the task once its service ended unpublished. An unmet edge
    /// files the run's waker, under the lock every service event takes to wake the list.
    fn services_published(&self, run: &Arc<TaskRun>) -> Result<bool, RuntimeError> {
        let desc = &run.description;
        let mut dependents = self.dependents.lock();
        let (named, mut met) = match &desc.kind {
            TaskKind::InferenceClient { selector, .. } => match selector {
                ServiceSelector::Named(names) => (names.as_slice(), true),
                _ => (&[][..], self.resolve_targets(selector).is_ok()),
            },
            _ => (&[][..], true),
        };
        for name in desc.after_services.iter().chain(named) {
            if self.registry.lookup(&format!("service.{name}")).is_some() {
                continue;
            }
            met = false;
            if let Some(record) = self.services.get(name) {
                let state = record.state.current();
                if state.is_final() {
                    let reason = record.state.error().unwrap_or_else(|| state.name().into());
                    let service = name.clone();
                    return Err(RuntimeError::DependencyFailed { service, reason });
                }
            }
        }
        if met {
            return Ok(true);
        }
        let parked = dependents.as_mut().ok_or(RuntimeError::SessionClosed)?;
        parked.push(Waker::from(Arc::clone(run)));
        Ok(false)
    }

    /// The endpoints `selector` names, as the registry holds them now; never none. The
    /// task was placed only once they had published, so a missing one has gone since.
    fn resolve_targets(
        &self,
        selector: &ServiceSelector,
    ) -> Result<Vec<EndpointEntry>, RuntimeError> {
        let entries = match selector {
            ServiceSelector::Named(names) => names
                .iter()
                .map(|name| self.registry.lookup(&format!("service.{name}")))
                .collect::<Option<_>>()
                .unwrap_or_default(),
            ServiceSelector::ByModel(model) => self.registry.find_by_metadata(META_MODEL, model),
            ServiceSelector::Any => self.registry.entries(),
        };
        if entries.is_empty() {
            let missing = format!("no service for {selector:?}");
            return Err(RuntimeError::Comm(CommError::EndpointNotFound(missing)));
        }
        Ok(entries)
    }

    /// The network link between a client task and a service endpoint: intra-platform
    /// latency when both sit on the same platform, WAN latency otherwise (the paper's
    /// local vs remote deployment scenarios).
    fn client_link(&self, task_platform: PlatformId, entry: &EndpointEntry, seed: u64) -> Link {
        let spec = task_platform.spec();
        let service_platform = entry
            .metadata
            .get(META_PLATFORM)
            .map(String::as_str)
            .unwrap_or("");
        let profile = if service_platform == task_platform.short_name() {
            spec.intra_latency
        } else {
            spec.wan_latency
        };
        Link::new(
            format!("{}->{}", task_platform.short_name(), service_platform),
            Arc::clone(&self.clock),
            profile,
            seed,
        )
    }

    /// The blocking request loop of an inference-client task.
    fn run_inference_client(
        &self,
        record: &Arc<TaskRecord>,
        kind: &TaskKind,
    ) -> Result<(), RuntimeError> {
        let TaskKind::InferenceClient {
            selector,
            requests,
            prompt_words,
            max_tokens,
            think_time_secs: think_time,
        } = kind
        else {
            unreachable!("only inference clients run the request loop");
        };
        let (requests, prompt_words, max_tokens) = (*requests, *prompt_words, *max_tokens);
        let entries = self.resolve_targets(selector)?;
        let seed = self.next_seed();
        let mut rng = StdRng::seed_from_u64(seed);
        let clients: Vec<(String, hpcml_comm::ReqRepClient)> = entries
            .iter()
            .map(|entry| {
                let link = self.client_link(record.platform, entry, self.next_seed());
                (entry.name.clone(), entry.handle.connect(link))
            })
            .collect();

        let prompt: String = {
            let mut words = Vec::with_capacity(prompt_words as usize);
            for i in 0..prompt_words {
                words.push(format!("w{i}"));
            }
            words.join(" ")
        };

        // Each request goes to the target with the fewest requests in flight (those of
        // every client that talks to it), the first such from the cursor on; the cursor
        // then moves past it. With loads equal this is the paper prototype's round
        // robin (a lone closed-loop client visits its targets in strict rotation); a
        // client that finds a target busy with other clients' requests passes it by.
        let mut cursor = 0;
        let mut errors = 0u32;
        // One request, renewed per iteration: the prompt and the client id are written
        // once, and the identifier over the previous one. Each request message shares
        // it with the service, whose replica lets go of it before it answers, so the
        // renewal finds it unshared and copies nothing.
        let mut request = Arc::new(InferenceRequest {
            request_id: String::new(),
            prompt,
            max_tokens,
            client_id: record.id(),
        });
        for _ in 0..requests {
            let target = (cursor..cursor + clients.len())
                .map(|i| i % clients.len())
                .min_by_key(|&i| clients[i].1.in_flight())
                .expect("at least one target");
            cursor = target + 1;
            let (endpoint_name, client) = &clients[target];
            let request_index = Arc::make_mut(&mut request).renew_id();
            let watch = Stopwatch::start(self.clock.as_ref());
            let mut reply = client
                .request(inference_request_message(
                    endpoint_name,
                    Arc::clone(&request),
                ))
                .map_err(RuntimeError::Comm)?;
            // An overloaded service sheds instead of queueing past the deadline; honor
            // its retry-after hint a bounded number of times on the virtual clock.
            let mut shed_retries = 0u32;
            while reply.kind == KIND_SHED && shed_retries < MAX_SHED_RETRIES {
                shed_retries += 1;
                self.metrics.record_scalar("client.shed_retries", 1.0);
                let retry_after = reply
                    .f64_header(HDR_RETRY_AFTER_SECS)
                    .unwrap_or(0.1)
                    .max(0.001);
                self.clock.sleep(Duration::from_secs_f64(retry_after));
                reply = client
                    .request(inference_request_message(
                        endpoint_name,
                        Arc::clone(&request),
                    ))
                    .map_err(RuntimeError::Comm)?;
            }
            let response_secs = watch.elapsed_secs();
            if reply.kind == KIND_ERROR || reply.kind == KIND_SHED {
                errors += 1;
                self.metrics.record_scalar("client.error_replies", 1.0);
                continue;
            }
            let service_secs = reply.f64_header(HDR_SERVICE_SECS).unwrap_or(0.0);
            let inference_secs = reply.f64_header(HDR_INFERENCE_SECS).unwrap_or(0.0);
            let communication_secs = (response_secs - service_secs - inference_secs).max(0.0);
            self.metrics.record_response(
                request_index,
                communication_secs,
                service_secs,
                inference_secs,
            );
            let pause = think_time.sample_secs(&mut rng);
            if !pause.is_zero() {
                self.clock.sleep(pause);
            }
        }
        if errors == requests && requests > 0 {
            return Err(RuntimeError::Failed(format!(
                "all {requests} inference requests failed"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::ServiceDescription;
    use hpcml_platform::batch::{Allocation, AllocationRequest, BatchSystem};
    use hpcml_platform::resources::{NodeHealth, ResourceRequest};
    use hpcml_serving::ModelSpec;
    use hpcml_sim::clock::{ClockSpec, ManualClock};
    use std::time::Instant;

    struct Fixture {
        clock: SharedClock,
        metrics: Arc<RuntimeMetrics>,
        registry: Arc<EndpointRegistry>,
        services: Arc<ServiceManager>,
        executor: Arc<Executor>,
        scheduler: Arc<Scheduler>,
    }

    fn fixture(platform: PlatformId, nodes: usize, scale: f64) -> Fixture {
        fixture_on(ClockSpec::scaled(scale).build(), platform, nodes)
    }

    fn fixture_on(clock: SharedClock, platform: PlatformId, nodes: usize) -> Fixture {
        let metrics = RuntimeMetrics::new();
        let registry = Arc::new(EndpointRegistry::new());
        let data = Arc::new(DataManager::new(
            Arc::clone(&clock),
            Arc::clone(&metrics),
            1,
        ));
        let services = Arc::new(ServiceManager::new(
            Arc::clone(&registry),
            Arc::clone(&clock),
        ));
        let executor = Executor::new(
            Arc::clone(&clock),
            Arc::clone(&metrics),
            Arc::clone(&services),
            data,
            Publisher::new(),
            42,
        );
        let batch = BatchSystem::new(platform.spec(), Arc::clone(&clock), 2);
        let alloc = batch.submit(AllocationRequest::nodes(nodes)).unwrap();
        let scheduler = Arc::new(Scheduler::new(alloc));
        Fixture {
            clock,
            metrics,
            registry,
            services,
            executor,
            scheduler,
        }
    }

    /// A service record in `New`, known to the fixture's service manager.
    fn service_record(
        fx: &Fixture,
        name: &str,
        model: ModelSpec,
        platform: PlatformId,
    ) -> Arc<ServiceRecord> {
        let record = ServiceRecord::new(
            format!("service.x-{name}"),
            ServiceDescription::new(name).model(model).gpus(1),
            platform,
            Arc::clone(&fx.clock),
        );
        fx.services.add(Arc::clone(&record));
        record
    }

    /// A record in `New` with the next task index, its run started on the fixture's
    /// scheduler.
    fn spawn(fx: &Fixture, description: TaskDescription) -> Arc<TaskRecord> {
        let index = hpcml_sim::ids::next_index(crate::records::TASK_NAMESPACE);
        let record = TaskRecord::create(index, PlatformId::Local, Arc::clone(&fx.clock));
        fx.executor.spawn_task(
            Arc::clone(&record),
            description,
            Some(Arc::clone(&fx.scheduler)),
        );
        record
    }

    #[test]
    fn local_service_bootstraps_and_serves() {
        // Delta: MPI/PRRTE launcher, so launch (~2 s) clearly exceeds publish (~0.35 s).
        let fx = fixture(PlatformId::Delta, 1, 2000.0);
        let record = service_record(&fx, "llm-0", ModelSpec::sim_llama_8b(), PlatformId::Delta);
        fx.executor
            .spawn_service(Arc::clone(&record), Some(Arc::clone(&fx.scheduler)));

        // Wait for readiness.
        record
            .state
            .wait_until(|s| s == ServiceState::Ready, Duration::from_secs(30))
            .unwrap();
        let bt = record.bootstrap.lock().unwrap();
        assert!(bt.init_secs > bt.launch_secs, "init {bt:?} must dominate");
        assert!(
            bt.publish_secs < bt.launch_secs,
            "publish must stay below launch: {bt:?}"
        );
        assert_eq!(fx.metrics.bootstrap_count(), 1);
        assert!(fx.registry.lookup("service.llm-0").is_some());

        // Stop and verify teardown.
        record.request_stop();
        fx.executor.join_all();
        assert_eq!(record.state.current(), ServiceState::Stopped);
        assert!(fx.registry.lookup("service.llm-0").is_none());
        assert_eq!(fx.scheduler.outstanding_slots(), 0);
    }

    #[test]
    fn service_fails_when_model_does_not_fit_gpu() {
        let fx = fixture(PlatformId::Local, 1, 10_000.0); // local GPUs have 16 GiB
        let record = service_record(&fx, "big", ModelSpec::sim_llama_70b(), PlatformId::Local);
        fx.executor
            .spawn_service(Arc::clone(&record), Some(Arc::clone(&fx.scheduler)));
        let state = record
            .state
            .wait_until(|s| s.is_final(), Duration::from_secs(30));
        assert!(state.is_err() || state.unwrap() == ServiceState::Failed);
        assert_eq!(record.state.current(), ServiceState::Failed);
        assert!(record.state.error().unwrap().contains("GPU"));
        fx.executor.join_all();
        // The slot must have been released on failure.
        assert_eq!(fx.scheduler.outstanding_slots(), 0);
    }

    #[test]
    fn duplicate_endpoint_name_fails_second_service() {
        let fx = fixture(PlatformId::Local, 2, 10_000.0);
        let a = service_record(&fx, "dup", ModelSpec::noop(), PlatformId::Local);
        let b = service_record(&fx, "dup", ModelSpec::noop(), PlatformId::Local);
        fx.executor
            .spawn_service(Arc::clone(&a), Some(Arc::clone(&fx.scheduler)));
        a.state
            .wait_until(|s| s == ServiceState::Ready, Duration::from_secs(20))
            .unwrap();
        fx.executor
            .spawn_service(Arc::clone(&b), Some(Arc::clone(&fx.scheduler)));
        let _ = b
            .state
            .wait_until(|s| s.is_final(), Duration::from_secs(20));
        assert_eq!(b.state.current(), ServiceState::Failed);
        a.request_stop();
        fx.executor.join_all();
    }

    #[test]
    fn noop_task_and_compute_task_complete() {
        let fx = fixture(PlatformId::Local, 1, 10_000.0);
        let noop = spawn(&fx, TaskDescription::new("noop"));
        let compute = spawn(
            &fx,
            TaskDescription::new("compute")
                .kind(TaskKind::compute_secs(5.0))
                .cores(2),
        );
        fx.executor.join_all();
        assert_eq!(noop.state.current(), TaskState::Done);
        assert_eq!(compute.state.current(), TaskState::Done);
        // The compute task must have spent its virtual 5 seconds.
        let exec = fx.metrics.scalar_values("task.exec_secs");
        assert!(exec.iter().any(|v| *v >= 4.5), "exec times {exec:?}");
        assert_eq!(fx.scheduler.outstanding_slots(), 0);
    }

    #[test]
    fn task_without_pilot_fails() {
        let fx = fixture(PlatformId::Local, 1, 10_000.0);
        let t = TaskRecord::create(0, PlatformId::Local, fx.clock);
        fx.executor
            .spawn_task(Arc::clone(&t), TaskDescription::new("t"), None);
        fx.executor.join_all();
        assert_eq!(t.state.current(), TaskState::Failed);
        assert!(t.state.error().unwrap().contains("pilot"));
    }

    #[test]
    fn inference_client_records_response_breakdown() {
        let fx = fixture(PlatformId::Local, 2, 2000.0);
        let svc = service_record(&fx, "noop-0", ModelSpec::noop(), PlatformId::Local);
        fx.executor
            .spawn_service(Arc::clone(&svc), Some(Arc::clone(&fx.scheduler)));

        let client = spawn(
            &fx,
            TaskDescription::new("client")
                .kind(TaskKind::inference_client("noop-0", 10))
                .after_service("noop-0"),
        );
        client
            .state
            .wait_until(|s| s.is_final(), Duration::from_secs(60))
            .unwrap();
        assert_eq!(client.state.current(), TaskState::Done);
        assert_eq!(fx.metrics.response_count(), 10);
        let summaries = fx.metrics.response_summaries();
        // NOOP: communication dominates inference (which is zero).
        assert!(summaries["communication"].mean > summaries["inference"].mean);
        svc.request_stop();
        fx.executor.join_all();
    }

    #[test]
    fn inference_client_selects_services_by_model() {
        let fx = fixture(PlatformId::Local, 2, 2000.0);
        let a = service_record(&fx, "noop-a", ModelSpec::noop(), PlatformId::Local);
        let b = service_record(&fx, "noop-b", ModelSpec::noop(), PlatformId::Local);
        fx.executor
            .spawn_service(Arc::clone(&a), Some(Arc::clone(&fx.scheduler)));
        fx.executor
            .spawn_service(Arc::clone(&b), Some(Arc::clone(&fx.scheduler)));
        a.state
            .wait_until(|s| s == ServiceState::Ready, Duration::from_secs(30))
            .unwrap();
        b.state
            .wait_until(|s| s == ServiceState::Ready, Duration::from_secs(30))
            .unwrap();

        let entries = fx
            .executor
            .resolve_targets(&ServiceSelector::ByModel("noop".into()))
            .unwrap();
        assert_eq!(entries.len(), 2);
        let any = fx.executor.resolve_targets(&ServiceSelector::Any).unwrap();
        assert_eq!(any.len(), 2);

        a.request_stop();
        b.request_stop();
        fx.executor.join_all();
    }

    #[test]
    fn selectors_wait_for_a_service_that_registers_later() {
        let fx = fixture(PlatformId::Local, 2, 10_000.0);
        let mut any = TaskKind::inference_client_for_model("noop", 3);
        if let TaskKind::InferenceClient { selector, .. } = &mut any {
            *selector = ServiceSelector::Any;
        }
        let clients = [TaskKind::inference_client_for_model("noop", 3), any]
            .map(|kind| spawn(&fx, TaskDescription::new("client").kind(kind)));
        for client in &clients {
            assert_eq!(client.state.current(), TaskState::Scheduling);
        }
        assert_eq!(
            fx.scheduler.outstanding_slots(),
            0,
            "placed only once published"
        );
        let svc = service_record(&fx, "late", ModelSpec::noop(), PlatformId::Local);
        fx.executor
            .spawn_service(Arc::clone(&svc), Some(Arc::clone(&fx.scheduler)));
        for client in &clients {
            client
                .state
                .wait_until(|s| s.is_final(), Duration::from_secs(60))
                .unwrap();
            assert_eq!(client.state.current(), TaskState::Done);
        }
        assert_eq!(fx.metrics.response_count(), 6);
        svc.request_stop();
        fx.executor.join_all();
    }

    #[test]
    fn a_task_waiting_on_a_service_holds_no_thread_and_executes_when_it_is_ready() {
        let clock = Arc::new(ManualClock::new());
        let fx = fixture_on(Arc::clone(&clock) as SharedClock, PlatformId::Local, 2);
        let svc = service_record(&fx, "later", ModelSpec::noop(), PlatformId::Local);
        fx.executor
            .spawn_service(Arc::clone(&svc), Some(Arc::clone(&fx.scheduler)));
        let task = spawn(
            &fx,
            TaskDescription::new("after")
                .kind(TaskKind::compute_secs(5.0))
                .after_service("later"),
        );
        assert_eq!(task.state.current(), TaskState::Scheduling);
        assert_eq!(
            fx.executor.handles.lock().len(),
            1,
            "the service's lifecycle thread, and none for the waiting task"
        );
        while svc.state.current() != ServiceState::Ready {
            clock.advance_to_next();
            std::thread::yield_now();
        }
        // No deadline is pending between `Ready` and the task's execution, so the clock
        // cannot move between the two stamps.
        task.state
            .wait_until(|s| s >= TaskState::Executing, Duration::from_secs(10))
            .unwrap();
        assert_eq!(
            task.state.entered_at(TaskState::Executing),
            svc.state.entered_at(ServiceState::Ready)
        );
        while task.state.current() != TaskState::Done {
            clock.advance_to_next();
            std::thread::yield_now();
        }
        svc.request_stop();
        fx.executor.join_all();
        assert_eq!(fx.scheduler.outstanding_slots(), 0);
    }

    #[test]
    fn tasks_that_never_park_spawn_no_thread_and_finish_on_the_caller() {
        let fx = fixture(PlatformId::Local, 1, 10_000.0);
        for _ in 0..100 {
            let t = spawn(&fx, TaskDescription::new("noop"));
            assert_eq!(t.state.current(), TaskState::Done, "done on return");
            assert_eq!(fx.scheduler.outstanding_slots(), 0, "released before Done");
        }
        assert!(!fx.executor.pool.is_started());
        assert!(fx.executor.handles.lock().is_empty());
        fx.executor.join_all();
    }

    #[test]
    fn finished_blocking_stages_are_reaped_when_the_next_one_spawns() {
        let fx = fixture(PlatformId::Local, 2, 2000.0);
        let svc = service_record(&fx, "noop-r", ModelSpec::noop(), PlatformId::Local);
        fx.executor
            .spawn_service(Arc::clone(&svc), Some(Arc::clone(&fx.scheduler)));
        // Published before the clients come, so none parks on it and the pool stays off.
        svc.state
            .wait_until(|s| s == ServiceState::Ready, Duration::from_secs(30))
            .unwrap();
        for _ in 0..8 {
            let client = spawn(
                &fx,
                TaskDescription::new("client").kind(TaskKind::inference_client("noop-r", 2)),
            );
            client
                .state
                .wait_until(|s| s.is_final(), Duration::from_secs(60))
                .unwrap();
            assert_eq!(client.state.current(), TaskState::Done);
            // The service, this client's thread, and at most the previous client's
            // if it had not quite exited when this one was spawned.
            assert!(fx.executor.handles.lock().len() <= 3);
        }
        assert!(
            !fx.executor.pool.is_started(),
            "clients only block: the pool is never needed"
        );
        svc.request_stop();
        fx.executor.join_all();
        assert_eq!(fx.scheduler.outstanding_slots(), 0);
    }

    #[test]
    fn timers_follow_a_manual_clock() {
        let clock = Arc::new(hpcml_sim::clock::ManualClock::new());
        let shared: SharedClock = Arc::clone(&clock) as SharedClock;
        let fx = fixture_on(shared, PlatformId::Local, 1);
        let task = spawn(
            &fx,
            TaskDescription::new("compute").kind(TaskKind::compute_secs(30.0)),
        );
        assert_eq!(task.state.current(), TaskState::Executing);
        // The timer thread registers the deadline with the clock like any sleeper.
        while clock.pending_sleepers() < 1 {
            std::thread::yield_now();
        }
        clock.advance(Duration::from_secs(10));
        assert_eq!(task.state.current(), TaskState::Executing, "20 s to go");
        // After an advance the timer thread takes its deadline off the clock and files
        // it again; in between there is no next deadline to advance to.
        let at = loop {
            let at = clock.advance_to_next().as_secs_f64();
            if at > 10.0 {
                break at;
            }
            std::thread::yield_now();
        };
        assert!((at - 30.0).abs() < 1e-9);
        task.state
            .wait_until(|s| s == TaskState::Done, Duration::from_secs(10))
            .unwrap();
        fx.executor.join_all();
        assert_eq!(fx.metrics.scalar_values("task.exec_secs"), vec![30.0]);
    }

    /// A session clock on which time passes by being read: a read returns the number
    /// of reads before it as virtual seconds, so every stamp says how many reads came
    /// first. `task_reads` counts those made off the pool's timer thread, which polls
    /// for as long as a deadline is pending, whatever the tasks do.
    #[derive(Default)]
    struct TickingClock {
        ticks: AtomicU64,
        task_reads: AtomicUsize,
    }

    impl hpcml_sim::clock::Clock for TickingClock {
        fn now(&self) -> SimTime {
            if std::thread::current().name() != Some("executor-timer") {
                self.task_reads.fetch_add(1, Ordering::Relaxed);
            }
            SimTime::from_duration(Duration::from_secs(
                self.ticks.fetch_add(1, Ordering::Relaxed),
            ))
        }

        fn sleep(&self, _: Duration) {}

        fn sleep_interruptibly(
            &self,
            deadline: Option<SimTime>,
            interrupt: &Arc<hpcml_sim::clock::Interrupt>,
        ) {
            match deadline {
                Some(_) => std::thread::yield_now(), // look again: that is what moves time
                None => interrupt.wait_until(None),
            }
        }
    }

    #[test]
    fn a_task_reads_the_session_clock_once_per_event() {
        use TaskState::{Done, Executing, New, Scheduling};
        let ticking = Arc::new(TickingClock::default());
        let clock: SharedClock = Arc::clone(&ticking) as SharedClock;
        let fx = fixture_on(clock, PlatformId::Local, 1);
        let reads = || ticking.task_reads.load(Ordering::Relaxed);
        let secs = |history: Vec<(TaskState, SimTime)>| -> Vec<(TaskState, u64)> {
            let in_secs = |(state, at): (TaskState, SimTime)| (state, at.as_duration().as_secs());
            history.into_iter().map(in_secs).collect()
        };

        // A NOOP task: New, Scheduling, Executing, the end of execution, Done.
        let (before, t0) = (reads(), ticking.ticks.load(Ordering::Relaxed));
        let noop = spawn(&fx, TaskDescription::new("noop"));
        assert_eq!(reads() - before, 5, "one read per event of a NOOP task");
        assert_eq!(
            secs(noop.state.history()),
            [
                (New, t0),
                (Scheduling, t0 + 1),
                (Executing, t0 + 2),
                (Done, t0 + 4)
            ],
        );
        // Measured from the `Executing` stamp itself (read t0 + 2) to read t0 + 3.
        assert_eq!(fx.metrics.scalar_values("task.exec_secs"), [1.0]);

        // A 10 s compute task adds its two timer checks: one parks it, one finds it over.
        let before = reads();
        let compute = spawn(
            &fx,
            TaskDescription::new("compute").kind(TaskKind::compute_secs(10.0)),
        );
        compute
            .state
            .wait_until(|s| s == Done, Duration::from_secs(30))
            .unwrap();
        fx.executor.join_all();
        assert!(reads() - before <= 7, "{} reads", reads() - before);
        let history = secs(compute.state.history());
        assert!(history.windows(2).all(|w| w[0].1 <= w[1].1), "{history:?}");
        let exec_secs = fx.metrics.scalar_values("task.exec_secs")[1];
        let (executing, done) = (history[2].1, history[3].1);
        assert_eq!((history[2].0, history[3].0), (Executing, Done));
        assert!(
            exec_secs >= 10.0 && exec_secs < (done - executing) as f64,
            "{exec_secs} s of execution between {executing} and {done}"
        );
    }

    /// The node a task's attempt runs on, read off the allocation: the one healthy
    /// node that a probe for the task's `resources` cannot get. Only for a task that
    /// asks for a whole node and runs alone.
    fn busy_node(allocation: &Allocation, resources: &ResourceRequest) -> usize {
        let probes: Vec<Slot> =
            std::iter::from_fn(|| allocation.allocate_slot(resources).ok()).collect();
        let free: Vec<usize> = probes.iter().map(Slot::node_index).collect();
        for probe in &probes {
            allocation.release_slot(probe).unwrap();
        }
        let mut busy = (0..)
            .map_while(|node| Some(node).zip(allocation.node_health(node)))
            .filter(|(node, health)| *health == NodeHealth::Healthy && !free.contains(node))
            .map(|(node, _)| node);
        let node = busy.next().expect("the attempt holds a node");
        assert_eq!(busy.next(), None, "and only the attempt");
        node
    }

    /// Move a manual clock to the first deadline after `secs` that the pool's timer
    /// thread waits for, once it has filed one, and return it.
    fn advance_past(clock: &ManualClock, secs: f64) -> f64 {
        loop {
            let at = clock.advance_to_next().as_secs_f64();
            if at > secs {
                return at;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn task_evicted_by_node_failure_retries_and_completes() {
        // On a manual clock an attempt holds its node until the test moves time on,
        // so the node each attempt runs on can be read off the allocation.
        let clock = Arc::new(ManualClock::new());
        let fx = fixture_on(Arc::clone(&clock) as SharedClock, PlatformId::Local, 2);
        let description = TaskDescription::new("retry")
            .kind(TaskKind::compute_secs(60.0))
            .cores(8)
            .max_retries(2);
        let resources = description.resources;
        let task = spawn(&fx, description);
        assert_eq!(task.state.current(), TaskState::Executing);
        let allocation = fx.scheduler.allocation();
        let node = busy_node(allocation, &resources);
        allocation.fail_node(node).unwrap();
        // The attempt ends at 60 s and finds its slot evicted; the retry waits out its
        // 0.5 s backoff and is placed again.
        assert_eq!(advance_past(&clock, 0.0), 60.0);
        assert_eq!(advance_past(&clock, 60.0), 60.5);
        let deadline = Instant::now() + Duration::from_secs(10);
        while task
            .state
            .history()
            .iter()
            .filter(|(state, _)| *state == TaskState::Executing)
            .count()
            < 2
        {
            assert!(Instant::now() < deadline, "the retry never executed");
            std::thread::yield_now();
        }
        let placed = busy_node(allocation, &resources);
        assert_eq!(advance_past(&clock, 60.5), 120.5);
        task.state
            .wait_until(|s| s == TaskState::Done, Duration::from_secs(10))
            .unwrap();
        fx.executor.join_all();
        assert_eq!(
            task.retries.load(Ordering::Relaxed),
            1,
            "one eviction, one retry"
        );
        assert_eq!(fx.metrics.scalar_values("task.retries").len(), 1);
        assert_eq!(fx.scheduler.outstanding_slots(), 0);
        // The replacement attempt must have avoided the failed node.
        assert_ne!(placed, node);
    }

    #[test]
    fn eviction_without_retry_budget_fails_the_task() {
        let fx = fixture(PlatformId::Local, 1, 1000.0);
        let description = TaskDescription::new("noretry")
            .kind(TaskKind::compute_secs(60.0))
            .cores(8);
        let resources = description.resources;
        let task = spawn(&fx, description);
        task.state
            .wait_until(|s| s == TaskState::Executing, Duration::from_secs(10))
            .unwrap();
        let allocation = fx.scheduler.allocation();
        let node = busy_node(allocation, &resources);
        allocation.fail_node(node).unwrap();
        let _ = task
            .state
            .wait_until(|s| s.is_final(), Duration::from_secs(60));
        fx.executor.join_all();
        assert_eq!(task.state.current(), TaskState::Failed);
        assert!(
            task.state.error().unwrap().contains("failed"),
            "error must name the node failure: {:?}",
            task.state.error()
        );
        assert_eq!(task.retries.load(Ordering::Relaxed), 0);
        assert_eq!(fx.scheduler.outstanding_slots(), 0);
    }

    #[test]
    fn a_step_that_panics_on_a_worker_fails_its_task_and_nothing_else() {
        let fx = fixture(PlatformId::Local, 1, 1000.0);
        let task =
            |name: &str, kind: TaskKind| spawn(&fx, TaskDescription::new(name).kind(kind).cores(8));
        // `first` holds the whole node, so the other two park and are resumed by the
        // pool. An infinite duration does not convert to a `Duration`: that step panics.
        let first = task("first", TaskKind::compute_secs(5.0));
        let doomed = task(
            "doomed",
            TaskKind::Compute {
                duration_secs: hpcml_sim::dist::Dist::constant(f64::INFINITY),
            },
        );
        let last = task("last", TaskKind::compute_secs(5.0));
        fx.executor.join_all();
        assert_eq!(first.state.current(), TaskState::Done);
        assert_eq!(doomed.state.current(), TaskState::Failed);
        assert!(
            doomed.state.error().unwrap().contains("panicked"),
            "{:?}",
            doomed.state.error()
        );
        assert_eq!(last.state.current(), TaskState::Done, "the queue moved on");
        assert_eq!(fx.scheduler.outstanding_slots(), 0);
    }
}
