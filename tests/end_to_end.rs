//! Cross-crate integration tests: client API → runtime → platform → serving, exercising
//! the full local and remote deployment scenarios of the paper.

use std::time::Duration;

use hpcml::prelude::*;
use hpcml::serving::ModelSpec;

mod common;
use common::wait_until;

fn session(scale: f64) -> Session {
    Session::builder("e2e")
        .platform(PlatformId::Delta)
        .clock(ClockSpec::scaled(scale))
        .seed(1234)
        .build()
        .expect("session")
}

#[test]
fn full_local_llm_scenario() {
    // Gentle compression: real scheduling jitter is amplified 50x into virtual time,
    // so the per-request communication budget (~6 ms real before it rivals llama-8b
    // inference) holds even on a fully loaded CI host; 500x flaked under load.
    let s = session(50.0);
    let pilot = s
        .submit_pilot(
            PilotDescription::new(PlatformId::Delta)
                .nodes(2)
                .runtime_secs(7200.0),
        )
        .expect("pilot");
    assert_eq!(pilot.state(), PilotState::Active);

    // Two llama-8b services, one GPU each.
    let services: Vec<_> = (0..2)
        .map(|i| {
            s.submit_service(
                ServiceDescription::new(format!("llm-{i}"))
                    .model(ModelSpec::sim_llama_8b())
                    .gpus(1),
            )
            .expect("service")
        })
        .collect();
    for svc in &services {
        svc.wait_ready_timeout(Duration::from_secs(60))
            .expect("ready");
        let bt = svc.bootstrap_times().expect("bootstrap recorded");
        assert!(
            bt.init_secs > bt.launch_secs,
            "model init dominates bootstrap"
        );
        assert!(
            bt.publish_secs < bt.launch_secs,
            "publish below launch (MPI platform)"
        );
    }
    assert_eq!(s.metrics().bootstrap_count(), 2);

    // Liveness probes answer.
    assert!(s.service_manager().probe("llm-0").unwrap());
    assert!(s.service_manager().probe("llm-1").unwrap());

    // Four clients spread requests across both services.
    let tasks: Vec<_> = (0..4)
        .map(|i| {
            s.submit_task(
                TaskDescription::new(format!("client-{i}"))
                    .kind(TaskKind::inference_client_for_model("llama-8b", 4))
                    .cores(1),
            )
            .expect("task")
        })
        .collect();
    for t in &tasks {
        assert_eq!(
            t.wait_done_timeout(Duration::from_secs(300)).expect("done"),
            TaskState::Done
        );
    }

    let metrics = s.metrics();
    assert_eq!(metrics.response_count(), 16);
    let summaries = metrics.response_summaries();
    // With a real model the inference component dominates communication by orders of
    // magnitude (the paper's experiment 3 conclusion). Compared by median: the mean
    // is one host-scheduling hiccup away from a flake under a scaled clock.
    assert!(summaries["inference"].p50 > 10.0 * summaries["communication"].p50);
    assert!(summaries["inference"].mean > 0.5);

    // Orderly shutdown: services reach Stopped, slots return to the pool.
    s.close();
    for svc in &services {
        assert_eq!(svc.state(), ServiceState::Stopped);
    }
}

#[test]
fn remote_services_skip_bootstrap_accounting_but_serve_requests() {
    let s = session(2000.0);
    s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(1))
        .expect("pilot");

    let remote = s
        .submit_service(
            ServiceDescription::new("remote-llm")
                .model(ModelSpec::sim_llama_8b())
                .remote(PlatformId::R3Cloud),
        )
        .expect("remote service");
    remote
        .wait_ready_timeout(Duration::from_secs(60))
        .expect("ready");
    assert_eq!(
        s.metrics().bootstrap_count(),
        0,
        "remote models are persistent: no BT samples"
    );

    let t = s
        .submit_task(
            TaskDescription::new("remote-client").kind(TaskKind::inference_client("remote-llm", 3)),
        )
        .expect("task");
    assert_eq!(
        t.wait_done_timeout(Duration::from_secs(300)).unwrap(),
        TaskState::Done
    );
    assert_eq!(s.metrics().response_count(), 3);
    s.close();
}

#[test]
fn mixed_local_and_remote_services_with_state_updates() {
    let s = session(1000.0);
    let updates = s.subscribe_updates(&["state.service"]);
    s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(1))
        .expect("pilot");

    let local = s
        .submit_service(
            ServiceDescription::new("noop-local")
                .model(ModelSpec::noop())
                .cores(1),
        )
        .expect("local");
    let remote = s
        .submit_service(
            ServiceDescription::new("noop-remote")
                .model(ModelSpec::noop())
                .remote(PlatformId::R3Cloud),
        )
        .expect("remote");
    local.wait_ready().unwrap();
    remote.wait_ready().unwrap();

    for target in ["noop-local", "noop-remote"] {
        let t = s
            .submit_task(
                TaskDescription::new(format!("c-{target}"))
                    .kind(TaskKind::inference_client(target, 6)),
            )
            .unwrap();
        t.wait_done_timeout(Duration::from_secs(120)).unwrap();
    }

    let metrics = s.metrics();
    assert_eq!(metrics.response_count(), 12);
    // NOOP: communication dominates; inference is zero for both deployments.
    let summaries = metrics.response_summaries();
    assert!(summaries["inference"].mean < 1e-6);
    assert!(summaries["communication"].mean > summaries["service"].mean);

    // Ready state updates were published for both services.
    let msgs = updates.drain();
    let ready_updates = msgs
        .iter()
        .filter(|m| m.header("state") == Some("Ready"))
        .count();
    assert!(ready_updates >= 2, "expected Ready updates, got {msgs:?}");
    s.close();
}

#[test]
fn tasks_wait_for_their_services_and_staging_happens() {
    let s = session(5000.0);
    s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(1))
        .expect("pilot");

    // The task depends on a service submitted *after* it: the readiness relation must
    // still hold (the task blocks until the service endpoint is published).
    let task = s
        .submit_task(
            TaskDescription::new("dependent")
                .kind(TaskKind::inference_client("late-svc", 2))
                .after_service("late-svc")
                .stage_in(DataDirective::local("input.vcf", 300.0))
                .stage_out(DataDirective::local("result.csv", 1.0)),
        )
        .expect("task");
    // The task must stay non-final for virtual seconds, not just survive one
    // real-time poll: wait on the session clock and require the timeout path.
    assert!(
        !wait_until(&s, 5.0, || task.state().is_final()),
        "task must still be waiting for its service, state: {:?}",
        task.state()
    );

    let svc = s
        .submit_service(
            ServiceDescription::new("late-svc")
                .model(ModelSpec::noop())
                .cores(1),
        )
        .expect("service");
    svc.wait_ready().unwrap();
    assert_eq!(
        task.wait_done_timeout(Duration::from_secs(120)).unwrap(),
        TaskState::Done
    );

    // Staging went through the data manager.
    assert_eq!(s.metrics().scalar_values("staging.mib").len(), 2);
    s.close();
}

/// `Done` means released: once `wait_final` has reported the last task of a batch
/// `Done`, every slot is back in the pilot — read once, never polled — for seeded
/// mixes of NOOP and compute tasks that queue for a one-node pilot.
#[test]
fn done_means_the_slot_is_already_released() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    for rep in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xD0E ^ rep.wrapping_mul(0x9E37_79B9));
        let s = Session::builder("released")
            .platform(PlatformId::Delta)
            .clock(ClockSpec::scaled(5000.0))
            .seed(rep)
            .build()
            .expect("session");
        let pilot = s
            .submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(1))
            .expect("pilot");
        let (free_cores, idle_nodes) = (pilot.free_cores(), pilot.idle_nodes());
        let batch: Vec<TaskDescription> = (0..rng.gen_range(2usize..24))
            .map(|i| {
                let task = TaskDescription::new(format!("t{i}"))
                    .cores([8, 16, 32, 64][rng.gen_range(0usize..4)]);
                if rng.gen_bool(0.3) {
                    task
                } else {
                    task.kind(TaskKind::compute_secs(rng.gen_range(0.2..2.0)))
                }
            })
            .collect();
        let handles = s.submit_tasks(batch).expect("batch");
        for h in &handles {
            let state = h.wait_final(Duration::from_secs(60)).expect("final");
            assert_eq!(state, TaskState::Done, "rep {rep}: {:?}", h.error());
        }
        assert_eq!(
            (pilot.free_cores(), pilot.idle_nodes()),
            (free_cores, idle_nodes),
            "rep {rep}: a task showed Done before its slot was back"
        );
        s.close();
    }
}

/// `submit_tasks` reaches the wait queue in submission order: the submitting thread
/// advances each task to its first park before it touches the next, so on a one-node
/// pilot whole-node tasks start executing in exactly the order they were handed in
/// (the serve window places in arrival order, and passes nobody who fits), one call
/// recording one `task.admission.batch_size`.
#[test]
fn submit_tasks_executes_in_submission_order() {
    const TASKS: usize = 64;
    let s = session(2000.0);
    let updates = s.subscribe_updates(&["state.task"]);
    let pilot = s
        .submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(1))
        .expect("pilot");
    let whole_node = pilot.free_cores();
    let handles = s
        .submit_tasks((0..TASKS).map(|i| {
            TaskDescription::new(format!("t{i}"))
                .kind(TaskKind::compute_secs(1.0))
                .cores(whole_node)
        }))
        .expect("batch");
    for h in &handles {
        let state = h.wait_final(Duration::from_secs(60)).expect("final");
        assert_eq!(state, TaskState::Done, "{:?}", h.error());
    }
    let executing: Vec<String> = updates
        .drain()
        .iter()
        .filter(|m| m.header("state") == Some("Executing"))
        .map(|m| m.header("entity").expect("entity header").to_string())
        .collect();
    let submitted: Vec<String> = handles.iter().map(|h| h.id().to_string()).collect();
    assert_eq!(executing, submitted);
    assert_eq!(
        s.metrics().scalar_values("task.admission.batch_size"),
        vec![TASKS as f64]
    );
    s.close();
}

/// A blocked gang does not idle the pilot: while a long quarter-node task keeps one
/// of two nodes busy, the two-node gang submitted next parks — and the quarter-node
/// tasks behind it start at once, each passing it once. The gang places when both
/// nodes are idle. (`busy` runs for half a second of real time, so that no stall of
/// the submitting thread lets it end before the last narrow task is in.)
#[test]
fn parked_gang_lets_quarter_node_tasks_start_and_still_places() {
    const NARROW: usize = 6;
    const BUSY_SECS: f64 = 1000.0;
    let s = session(2000.0);
    let pilot = s
        .submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(2))
        .expect("pilot");
    let node = pilot.free_cores() / 2;
    let quarter = |name: String, secs: f64| {
        TaskDescription::new(name)
            .kind(TaskKind::compute_secs(secs))
            .cores(node / 4)
    };
    let mut batch = vec![
        quarter("busy".into(), BUSY_SECS),
        TaskDescription::new("gang")
            .kind(TaskKind::compute_secs(1.0))
            .nodes(2)
            .cores(node),
    ];
    batch.extend((0..NARROW).map(|i| quarter(format!("q{i}"), 1.0)));
    let handles = s.submit_tasks(batch).expect("batch");
    for h in &handles {
        let state = h.wait_final(Duration::from_secs(60)).expect("final");
        assert_eq!(state, TaskState::Done, "{:?}", h.error());
    }
    let [busy, gang, narrow @ ..] = &handles[..] else {
        panic!("one handle per description");
    };
    // The slot is back (and may be handed on) before `Done` shows.
    let busy_over = busy.timestamps()["Executing"] + BUSY_SECS;
    assert!(
        gang.timestamps()["Executing"] >= busy_over,
        "the gang needs both nodes idle"
    );
    for q in narrow {
        assert!(
            q.timestamps()["Executing"] < busy_over,
            "{} waited behind the parked gang",
            q.id()
        );
    }
    assert_eq!(
        s.metrics().scalar_values("task.gang.overtakes"),
        vec![NARROW as f64]
    );
    s.close();
}

/// Every task of a batch is validated, placed or parked on its own: an impossible
/// shape fails that task, an `after_services` of a service nobody has published yet
/// holds that task back, and the rest of the batch finishes meanwhile.
#[test]
fn submit_tasks_fails_or_delays_only_the_task_concerned() {
    let s = session(2000.0);
    s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(2))
        .expect("pilot");
    let plain = |name: &str| {
        TaskDescription::new(name)
            .kind(TaskKind::compute_secs(1.0))
            .cores(1)
    };
    let handles = s
        .submit_tasks([
            plain("a"),
            plain("impossible").cores(4096),
            plain("b"),
            plain("gated").after_service("late"),
            plain("c"),
        ])
        .expect("batch");
    let [a, impossible, b, gated, c] = &handles[..] else {
        panic!("one handle per description");
    };
    let long = Duration::from_secs(60);
    assert_eq!(
        impossible.wait_final(long).expect("final"),
        TaskState::Failed
    );
    for h in [a, b, c] {
        assert_eq!(h.wait_final(long).expect("final"), TaskState::Done);
    }
    assert_eq!(
        gated.state(),
        TaskState::Scheduling,
        "still waiting for `late`"
    );
    let late = s
        .submit_service(ServiceDescription::new("late").model(ModelSpec::noop()))
        .expect("service");
    late.wait_ready_timeout(long).expect("ready");
    assert_eq!(gated.wait_final(long).expect("final"), TaskState::Done);
    s.close();
}

#[test]
fn session_close_is_idempotent_and_rejects_new_work() {
    let s = session(5000.0);
    s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(1))
        .expect("pilot");
    s.close();
    s.close();
    assert!(matches!(
        s.submit_task(TaskDescription::new("x")),
        Err(RuntimeError::SessionClosed)
    ));
    assert!(matches!(
        s.submit_service(ServiceDescription::new("y")),
        Err(RuntimeError::SessionClosed)
    ));
    assert!(matches!(
        s.submit_pilot(PilotDescription::new(PlatformId::Delta)),
        Err(RuntimeError::SessionClosed)
    ));
}

/// A request too wide for the pilot as it stands waits for the pilot to grow. Once
/// the session closes nothing will grow it, so `close` fails it instead of waiting on
/// it forever, and still lets the work that fits run to its end.
#[test]
fn close_ends_a_wait_that_can_never_be_placed() {
    let s = session(1000.0);
    s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(1))
        .expect("pilot");
    let gang = s
        .submit_task(TaskDescription::new("too-wide").nodes(2))
        .expect("gang");
    let compute = s
        .submit_task(TaskDescription::new("fits").kind(TaskKind::compute_secs(10.0)))
        .expect("compute");
    assert_eq!(
        gang.state(),
        TaskState::Scheduling,
        "parked: the pilot could still grow"
    );
    let closing = std::time::Instant::now();
    s.close();
    assert!(
        closing.elapsed() < Duration::from_secs(10),
        "close waited {:?}",
        closing.elapsed()
    );
    assert_eq!(gang.state(), TaskState::Failed);
    let reason = gang.error().unwrap_or_default();
    assert!(reason.contains("session is closed"), "{reason:?}");
    assert_eq!(compute.state(), TaskState::Done);
}

/// Threads of this process named `fault-injector` (`/proc/self/task/*/comm`) once
/// `settled` holds of their count, or whatever it is two seconds on: a new thread
/// names itself once it runs, and the kernel may list a joined one a moment longer.
/// `None` where there is no such directory.
fn fault_injectors(settled: impl Fn(usize) -> bool) -> Option<usize> {
    let count = || {
        let tasks = std::fs::read_dir("/proc/self/task").ok()?;
        let comm = |entry: std::fs::DirEntry| std::fs::read_to_string(entry.path().join("comm"));
        let injectors = tasks
            .filter_map(|entry| comm(entry.ok()?).ok())
            .filter(|name| name.trim_end() == "fault-injector")
            .count();
        Some(injectors)
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while count().is_some_and(|n| !settled(n)) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    count()
}

/// A fault plan whose only event lies 10⁶ virtual seconds away (1 000 s of real time
/// at scale 1 000, never on a manual clock nobody advances): `close` interrupts the
/// injector's sleep and joins it, on every kind of clock. No other test in this binary
/// plans faults, so every `fault-injector` thread of the process is this test's.
#[test]
fn close_joins_a_fault_injector_sleeping_toward_a_distant_event() {
    for clock in [
        ClockSpec::Real,
        ClockSpec::scaled(1000.0),
        ClockSpec::Manual,
    ] {
        let s = Session::builder("distant-fault")
            .platform(PlatformId::Delta)
            .clock(clock)
            .seed(5)
            .fault_plan(FaultPlan::new().fail_at(1e6, 0))
            .build()
            .expect("session");
        let pilot = s
            .submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(1))
            .expect("pilot");
        let running = fault_injectors(|n| n > 0);
        assert_ne!(running, Some(0), "{clock:?}: no injector running");
        let wall = std::time::Instant::now();
        s.close();
        let took = wall.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "{clock:?}: close took {took:?}"
        );
        let left = fault_injectors(|n| n == 0).unwrap_or(0);
        assert_eq!(left, 0, "{clock:?}: the injector outlived close");
        assert_eq!(pilot.failed_nodes(), 0, "{clock:?}: the event never fired");
    }
}

/// Closing a session the moment a pipeline returns: `PipelineRunner::run` has asked
/// its services to stop, so `close` finds endpoints that are still registered but
/// that nobody serves any more and asks again. That second shutdown message must fail
/// when the endpoint goes away — not sit out its 500 ms timeout, which it did a few
/// times in twenty while a dropped endpoint kept what was queued at it.
#[test]
fn close_right_after_a_pipeline_never_waits_out_a_shutdown_timeout() {
    for round in 0..20 {
        let s = session(1000.0);
        s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(2))
            .expect("pilot");
        let pipeline = Pipeline::new("serve-then-compute")
            .stage(
                Stage::new("serve")
                    .service(ServiceDescription::new("noop-a").model(ModelSpec::noop()))
                    .service(ServiceDescription::new("noop-b").model(ModelSpec::noop()))
                    .task(
                        TaskDescription::new("client")
                            .kind(TaskKind::inference_client("noop-a", 4))
                            .cores(1),
                    )
                    .keep_services(),
            )
            .stage(
                Stage::new("compute").task(
                    TaskDescription::new("work")
                        .kind(TaskKind::compute_secs(1.0))
                        .cores(1),
                ),
            );
        let report = PipelineRunner::new(&s).run(&pipeline).expect("pipeline");
        assert!(report.all_succeeded(), "round {round}: {}", report.render());
        let closing = std::time::Instant::now();
        s.close();
        let took = closing.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "round {round}: close took {took:?}"
        );
    }
}
