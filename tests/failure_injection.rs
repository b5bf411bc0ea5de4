//! Failure-injection integration tests: the runtime must degrade gracefully when
//! services cannot start, crash mid-run, or when workloads over-subscribe resources.

use std::time::{Duration, Instant};

use hpcml::prelude::*;
use hpcml::serving::ModelSpec;

mod common;
use common::{advance_until, wait_until};

fn session() -> Session {
    Session::builder("failures")
        .platform(PlatformId::Local)
        .clock(ClockSpec::scaled(2000.0))
        .seed(99)
        .build()
        .expect("session")
}

#[test]
fn service_fails_when_model_exceeds_gpu_memory() {
    let s = session();
    s.submit_pilot(PilotDescription::new(PlatformId::Local).nodes(1))
        .expect("pilot");
    // llama-70b (140 GiB) cannot fit the local platform's 16 GiB GPUs.
    let svc = s
        .submit_service(
            ServiceDescription::new("too-big")
                .model(ModelSpec::sim_llama_70b())
                .gpus(1),
        )
        .expect("submitted");
    let state = svc.wait_final(Duration::from_secs(60)).expect("terminal");
    assert_eq!(state, ServiceState::Failed);
    assert!(svc.error().unwrap().contains("GPU"));
    // The failed service must not leak its slot: a new, correctly sized service fits.
    let ok = s
        .submit_service(
            ServiceDescription::new("fits")
                .model(ModelSpec::noop())
                .gpus(1),
        )
        .expect("submitted");
    ok.wait_ready_timeout(Duration::from_secs(60))
        .expect("ready");
    s.close();
}

/// A task after a service that fails at init — before it publishes — fails at the
/// same virtual instant, naming the service: the failure wakes it, nothing times out.
#[test]
fn a_task_after_a_service_that_fails_before_publishing_fails_with_it() {
    let s = Session::builder("dependency-failed")
        .platform(PlatformId::Local)
        .clock(ClockSpec::Manual)
        .seed(99)
        .build()
        .expect("session");
    s.submit_pilot(PilotDescription::new(PlatformId::Local).nodes(1))
        .expect("pilot");
    // llama-70b (140 GiB) cannot fit the local platform's 16 GiB GPUs.
    let svc = s
        .submit_service(
            ServiceDescription::new("too-big")
                .model(ModelSpec::sim_llama_70b())
                .gpus(1),
        )
        .expect("service");
    let task = s
        .submit_task(
            TaskDescription::new("after-too-big")
                .kind(TaskKind::compute_secs(1.0))
                .after_service("too-big"),
        )
        .expect("task");
    assert_eq!(task.state(), TaskState::Scheduling, "waits for the service");
    let started = Instant::now();
    let clock = s.clock();
    advance_until(clock.as_manual().expect("a manual clock"), || {
        task.state().is_final()
    });
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "failed after {:?} of real time",
        started.elapsed()
    );
    assert_eq!(svc.state(), ServiceState::Failed);
    assert_eq!(task.state(), TaskState::Failed);
    let error = task.error().expect("a reason");
    assert!(error.contains("too-big"), "{error}");
    assert_eq!(
        task.history().last().map(|&(_, at)| at),
        svc.history().last().map(|&(_, at)| at),
        "the task fails when its service does"
    );
    s.close();
}

/// A task after a service nobody submits waits without a thread or a deadline until
/// `close`, which fails it at once instead of waiting with it.
#[test]
fn close_fails_a_task_after_a_service_never_submitted() {
    let s = session();
    s.submit_pilot(PilotDescription::new(PlatformId::Local).nodes(1))
        .expect("pilot");
    let task = s
        .submit_task(TaskDescription::new("orphaned").after_service("never"))
        .expect("task");
    assert_eq!(task.state(), TaskState::Scheduling);
    let started = Instant::now();
    s.close();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "close took {:?}",
        started.elapsed()
    );
    assert_eq!(task.state(), TaskState::Failed);
    let error = task.error().expect("a reason");
    assert!(error.contains("closed"), "{error}");
}

#[test]
fn crashed_service_fails_liveness_probe_and_dependent_clients() {
    let s = session();
    s.submit_pilot(PilotDescription::new(PlatformId::Local).nodes(1))
        .expect("pilot");
    let svc = s
        .submit_service(
            ServiceDescription::new("crashy")
                .model(ModelSpec::noop())
                .cores(1),
        )
        .expect("service");
    svc.wait_ready().expect("ready");
    assert!(s.service_manager().probe("crashy").unwrap());

    // Simulate a crash: stop the serve loop without going through the manager, so the
    // endpoint disappears from the registry once the loop exits.
    svc.request_stop();
    // Wait until the endpoint is gone.
    let registry = s.endpoint_registry();
    assert!(
        wait_until(&s, 120.0, || registry.lookup("service.crashy").is_none()),
        "endpoint must be unpublished"
    );

    // Probing now reports a communication error (endpoint not found).
    assert!(matches!(
        s.service_manager().probe("crashy"),
        Err(RuntimeError::Comm(_))
    ));
    s.close();
}

#[test]
fn unknown_service_dependency_fails_the_task() {
    let s = session();
    s.submit_pilot(PilotDescription::new(PlatformId::Local).nodes(1))
        .expect("pilot");
    // Oversized resource request fails fast (never satisfiable by the node shape).
    let t = s
        .submit_task(TaskDescription::new("impossible").cores(4096))
        .expect("submitted");
    let state = t.wait_final(Duration::from_secs(30)).expect("terminal");
    assert_eq!(state, TaskState::Failed);
    assert!(t.error().is_some());
    s.close();
}

#[test]
fn duplicate_service_names_fail_the_second_instance() {
    let s = session();
    s.submit_pilot(PilotDescription::new(PlatformId::Local).nodes(2))
        .expect("pilot");
    let first = s
        .submit_service(
            ServiceDescription::new("same-name")
                .model(ModelSpec::noop())
                .cores(1),
        )
        .expect("first");
    first.wait_ready().expect("ready");
    let second = s
        .submit_service(
            ServiceDescription::new("same-name")
                .model(ModelSpec::noop())
                .cores(1),
        )
        .expect("second submitted");
    let state = second
        .wait_final(Duration::from_secs(60))
        .expect("terminal");
    assert_eq!(state, ServiceState::Failed);
    assert!(second.error().unwrap().contains("already registered"));
    s.close();
}

#[test]
fn oversubscribed_gpus_serialize_but_complete() {
    let s = session();
    // 1 local node = 2 GPUs; 6 GPU tasks must still all complete by queueing.
    s.submit_pilot(PilotDescription::new(PlatformId::Local).nodes(1))
        .expect("pilot");
    let tasks: Vec<_> = (0..6)
        .map(|i| {
            s.submit_task(
                TaskDescription::new(format!("gpu-task-{i}"))
                    .kind(TaskKind::compute_secs(2.0))
                    .gpus(1),
            )
            .expect("task")
        })
        .collect();
    s.wait_tasks(Duration::from_secs(120))
        .expect("all tasks finish");
    assert!(tasks.iter().all(|t| t.state() == TaskState::Done));
    s.close();
}

/// End-to-end elasticity under a seeded fault plan: a 4-node gang on a 5-node
/// pilot loses a member mid-run, is requeued at the front of its class, and
/// completes within its retry budget; the pilot then sheds the failed node and
/// grows back to size. The occupancy oracle at the end confirms nothing leaked
/// across the eviction, requeue, shrink, and expand. `seed` drives the
/// session's stochastic models (pilot start-up, launch overheads), so it moves
/// where in the gang's run the fault lands.
fn elastic_gang_survives_node_failure(seed: u64) {
    let s = Session::builder("elastic")
        .platform(PlatformId::Delta)
        .clock(ClockSpec::scaled(200.0))
        .seed(seed)
        // Node 0 fails 5 virtual seconds after the pilot becomes active, while
        // the gang (which spans it — placement is seeded) is mid-execution.
        .fault_plan(FaultPlan::new().fail_at(5.0, 0))
        .build()
        .expect("session");
    let pilot = s
        .submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(5))
        .expect("pilot");
    let gang = s
        .submit_task(
            TaskDescription::new("gang")
                .kind(TaskKind::compute_secs(60.0))
                .nodes(4)
                .gang_packing(GangPacking::Whole)
                .max_retries(2),
        )
        .expect("gang");
    gang.wait_done_timeout(Duration::from_secs(600))
        .expect("done");
    assert_eq!(gang.state(), TaskState::Done);
    assert_eq!(gang.retries(), 1, "gang lost a member once and requeued");
    assert_eq!(s.metrics().scalar_values("node.failures"), vec![1.0]);
    assert_eq!(pilot.failed_nodes(), 1);
    assert_eq!(pilot.attached_nodes(), 5);
    // `wait_done` observes the state flip; the executor thread releases the
    // gang's slot just after. Let the release land before reading occupancy.
    assert!(
        wait_until(&s, 60.0, || pilot.idle_nodes() == 4),
        "gang slot must be released after completion"
    );

    // Shrink sheds the failed node first; growing back attaches a fresh one.
    assert_eq!(pilot.resize(4).expect("shrink"), 4);
    assert_eq!(pilot.failed_nodes(), 0);
    assert_eq!(pilot.resize(5).expect("expand"), 5);

    // Occupancy oracle: five healthy, fully idle nodes and no reservations.
    assert_eq!(pilot.num_nodes(), 5);
    assert_eq!(pilot.idle_nodes(), 5);
    assert_eq!(pilot.free_cores(), 5 * 64);
    assert_eq!(pilot.reserved_nodes(), 0);
    s.close();
}

// The two names date from the sharded allocator, which ran this scenario with
// one shard and with four. The allocator is now one lock per pilot, so the
// pair runs the scenario under two seeds instead.
#[test]
fn gang_survives_node_failure_and_pilot_resizes_single_shard() {
    elastic_gang_survives_node_failure(99);
}

#[test]
fn gang_survives_node_failure_and_pilot_resizes_four_shards() {
    elastic_gang_survives_node_failure(4);
}

/// Names of this process's threads (`/proc/self/task/*/comm`); empty elsewhere.
fn thread_names() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

/// A seeded fault plan fails the node under a running task while 50 others are
/// parked behind it. Returns the victim, the queued tasks and what the threads were
/// called the moment the victim's retry became visible (its backoff had just begun).
///
/// Time moves only when this moves it: first past the fault, then — once the node
/// has failed — from deadline to deadline, so the victim's 60 s end never comes
/// before the fault however late the fault-injector thread runs.
fn evicted_while_others_queue(max_retries: u32) -> (TaskHandle, Vec<TaskHandle>, Vec<String>) {
    let plan = FaultPlan::seeded(3, 2, 1, 20.0);
    let event = plan.events()[0];
    assert!(
        event.at_secs > 2.0,
        "the fault must land after placement, mid-execution: {event:?}"
    );
    let s = Session::builder("evicted-queued")
        .platform(PlatformId::Local)
        .clock(ClockSpec::Manual)
        .seed(99)
        .fault_plan(plan)
        .build()
        .expect("session");
    let pilot = s
        .submit_pilot(PilotDescription::new(PlatformId::Local).nodes(2))
        .expect("pilot");
    // Whole-node tasks: the first lands on node 0, the second on node 1. The victim
    // takes whichever node the plan fails; a shorter task holds the other.
    let whole_node = |name: &str, secs: f64| {
        TaskDescription::new(name)
            .kind(TaskKind::compute_secs(secs))
            .cores(8)
    };
    let victim_desc = whole_node("victim", 60.0).max_retries(max_retries);
    let holder_desc = whole_node("holder", 30.0);
    let (victim, _holder) = if event.node == 0 {
        let v = s.submit_task(victim_desc).expect("victim");
        (v, s.submit_task(holder_desc).expect("holder"))
    } else {
        let h = s.submit_task(holder_desc).expect("holder");
        (s.submit_task(victim_desc).expect("victim"), h)
    };
    // 50 one-second whole-node tasks park behind them and drain through the healthy
    // node from t = 30 s on: about 20 are still parked when the victim comes back.
    let queued = s
        .submit_tasks((0..50).map(|i| whole_node(&format!("queued-{i}"), 1.0)))
        .expect("queued");
    assert!(queued.iter().all(|h| h.state() == TaskState::Scheduling));

    // Past the fault (before t = 20 s) and short of the holder's end at 30 s.
    let clock = s.clock();
    let manual = clock.as_manual().expect("a manual clock");
    manual.advance(Duration::from_secs_f64(event.at_secs + 1.0));
    let stuck_after = Instant::now() + Duration::from_secs(120);
    while pilot.failed_nodes() == 0 {
        assert!(
            Instant::now() < stuck_after,
            "the planned fault never fired"
        );
        std::thread::sleep(Duration::from_micros(50));
    }
    assert_eq!(victim.state(), TaskState::Executing, "failed mid-execution");

    let mut names_at_retry = Vec::new();
    if max_retries > 0 {
        advance_until(manual, || {
            if victim.retries() > 0 {
                return true;
            }
            assert!(!victim.state().is_final(), "victim ended without retrying");
            false
        });
        names_at_retry = thread_names();
    }
    advance_until(manual, || {
        victim.state().is_final() && queued.iter().all(|h| h.state().is_final())
    });
    victim.wait_final(Duration::from_secs(120)).expect("final");
    for h in &queued {
        assert_eq!(
            h.wait_final(Duration::from_secs(120)).expect("final"),
            TaskState::Done
        );
    }
    assert_eq!(pilot.failed_nodes(), 1);
    assert_eq!(pilot.free_cores(), 8, "the healthy node is idle again");
    s.close();
    (victim, queued, names_at_retry)
}

#[test]
fn task_evicted_mid_timer_requeues_in_front_of_50_parked_tasks() {
    let (victim, queued, names_at_retry) = evicted_while_others_queue(2);
    assert_eq!(victim.state(), TaskState::Done);
    assert_eq!(victim.retries(), 1, "one eviction, one retry");
    // Front of its class: the retry placed ahead of tasks that were parked before it
    // came back. Requeued at the back, it would have started after all fifty.
    let restarted = victim.timestamps()["Executing"];
    let overtaken = queued
        .iter()
        .filter(|h| h.timestamps()["Executing"] > restarted)
        .count();
    assert!(
        overtaken >= 5,
        "the retry overtook only {overtaken} of the tasks parked behind it"
    );
    // The backoff is an entry on the timer heap: no thread carries the task's name
    // (an entity thread is named after its entity, 15 characters of it).
    let id: String = victim.id().chars().take(15).collect();
    assert!(
        !names_at_retry.contains(&id),
        "task {id} backs off on a thread of its own: {names_at_retry:?}"
    );
}

#[test]
fn task_evicted_mid_timer_without_retry_budget_fails_with_the_node_failure() {
    let (victim, _queued, _) = evicted_while_others_queue(0);
    assert_eq!(victim.state(), TaskState::Failed);
    assert_eq!(victim.retries(), 0);
    let reason = victim.error().expect("a failed task has a reason");
    assert!(
        reason.contains("node") && reason.contains("failed"),
        "the reason must name the node failure: {reason}"
    );
}

#[test]
fn pilot_request_larger_than_platform_fails_cleanly() {
    let s = session();
    let err = s
        .submit_pilot(PilotDescription::new(PlatformId::Local).nodes(1000))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::Batch(_)));
    // The session remains usable afterwards.
    s.submit_pilot(PilotDescription::new(PlatformId::Local).nodes(1))
        .expect("pilot");
    let t = s.submit_task(TaskDescription::new("ok")).expect("task");
    assert_eq!(
        t.wait_done_timeout(Duration::from_secs(30)).unwrap(),
        TaskState::Done
    );
    s.close();
}
