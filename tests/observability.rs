//! Observability integration tests: state-update publication (paper Fig. 2 flow ⑥),
//! state-timestamp ordering, the per-entity event history across a retry, and the
//! consistency of the bootstrap breakdown with the service's recorded state transitions.

use std::time::Duration;

use hpcml::prelude::*;
use hpcml::runtime::scheduler::DEFAULT_MAX_OVERTAKES;
use hpcml::serving::ModelSpec;

mod common;
use common::{advance_until, wait_until};

fn session() -> Session {
    Session::builder("observability")
        .platform(PlatformId::Delta)
        .clock(ClockSpec::scaled(2000.0))
        .seed(321)
        .build()
        .expect("session")
}

#[test]
fn service_state_timestamps_are_ordered_and_match_bootstrap() {
    let s = session();
    s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(1))
        .expect("pilot");
    let svc = s
        .submit_service(
            ServiceDescription::new("observed")
                .model(ModelSpec::sim_llama_8b())
                .gpus(1),
        )
        .expect("service");
    svc.wait_ready_timeout(Duration::from_secs(60))
        .expect("ready");

    let ts = svc.timestamps();
    // Every lifecycle state up to Ready must be timestamped, in increasing order.
    let order = [
        "New",
        "Scheduling",
        "Launching",
        "Initializing",
        "Publishing",
        "Ready",
    ];
    let mut last = f64::MIN;
    for state in order {
        let t = *ts
            .get(state)
            .unwrap_or_else(|| panic!("missing timestamp for {state}: {ts:?}"));
        assert!(
            t >= last,
            "timestamps must be non-decreasing ({state} at {t} after {last})"
        );
        last = t;
    }

    // The bootstrap components must equal the gaps between the corresponding states.
    let bt = svc.bootstrap_times().expect("bootstrap recorded");
    let launch_gap = ts["Initializing"] - ts["Launching"];
    let init_gap = ts["Publishing"] - ts["Initializing"];
    let publish_gap = ts["Ready"] - ts["Publishing"];
    assert!(
        (bt.launch_secs - launch_gap).abs() < 0.2 * launch_gap.max(0.5),
        "launch {bt:?} vs gap {launch_gap}"
    );
    assert!(
        (bt.init_secs - init_gap).abs() < 0.2 * init_gap.max(0.5),
        "init {bt:?} vs gap {init_gap}"
    );
    assert!(
        (bt.publish_secs - publish_gap).abs() < 0.2 * publish_gap.max(0.5) + 0.2,
        "publish {bt:?} vs gap {publish_gap}"
    );
    assert!((bt.total() - (ts["Ready"] - ts["Launching"])).abs() < 1.0);

    s.close();
}

#[test]
fn task_timestamps_cover_every_phase() {
    let s = session();
    s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(1))
        .expect("pilot");
    let task = s
        .submit_task(
            TaskDescription::new("observed-task")
                .kind(TaskKind::compute_secs(3.0))
                .stage_in(DataDirective::local("in.dat", 10.0))
                .stage_out(DataDirective::local("out.dat", 1.0)),
        )
        .expect("task");
    task.wait_done_timeout(Duration::from_secs(60))
        .expect("done");

    let ts = task.timestamps();
    for state in [
        "New",
        "Scheduling",
        "StagingInput",
        "Executing",
        "StagingOutput",
        "Done",
    ] {
        assert!(ts.contains_key(state), "missing {state} in {ts:?}");
    }
    // Execution must have taken at least the requested virtual 3 seconds.
    assert!(ts["StagingOutput"] - ts["Executing"] >= 2.5);
    s.close();
}

/// A 4-node gang loses a member to a seeded node failure and retries (the scenario
/// of `failure_injection`'s elastic-gang test). Its history keeps both attempts, the
/// bus carries each entered state exactly once and in the same order, and no message
/// runs ahead of the handle.
#[test]
fn a_retried_task_keeps_both_attempts_and_publishes_each_entry_once() {
    use TaskState::*;
    let s = Session::builder("retry-history")
        .platform(PlatformId::Delta)
        .clock(ClockSpec::scaled(200.0))
        .seed(99)
        .fault_plan(FaultPlan::new().fail_at(5.0, 0))
        .build()
        .expect("session");
    let updates = s.subscribe_updates(&["state.task"]);
    s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(5))
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

    let lifecycle = [New, Scheduling, Executing, Scheduling, Executing, Done];
    for (entry, expected) in lifecycle.iter().enumerate().skip(1) {
        let msg = updates
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("no update for entry {entry} ({expected:?}): {e}"));
        assert_eq!(msg.topic, expected.topic());
        assert_eq!(msg.header("state"), Some(expected.name()));
        assert_eq!(msg.header("entity"), Some(gang.id().as_str()));
        // The transition is recorded before it is published.
        let history = gang.history();
        assert_eq!(
            history.get(entry).map(|(state, _)| state),
            Some(expected),
            "message {entry} ahead of the handle: {history:?}"
        );
    }
    gang.wait_done_timeout(Duration::from_secs(60))
        .expect("done");
    assert_eq!(gang.retries(), 1);
    s.close();
    assert_eq!(updates.pending(), 0, "one message per entry, no more");

    let history = gang.history();
    let states: Vec<TaskState> = history.iter().map(|(state, _)| *state).collect();
    assert_eq!(states, lifecycle);
    assert!(
        history.windows(2).all(|w| w[0].1 <= w[1].1),
        "entry times must not decrease: {history:?}"
    );
    // The name-keyed view reports the second attempt.
    let stamps = gang.timestamps();
    assert_eq!(stamps["Scheduling"], history[3].1.as_secs_f64());
    assert_eq!(stamps["Executing"], history[4].1.as_secs_f64());
    assert!(
        history[3].1 > history[2].1,
        "the retry edge is an event of its own"
    );
}

#[test]
fn update_bus_reports_full_service_lifecycle() {
    let s = session();
    let updates = s.subscribe_updates(&["state.service"]);
    s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(1))
        .expect("pilot");
    let svc = s
        .submit_service(
            ServiceDescription::new("bus-svc")
                .model(ModelSpec::noop())
                .cores(1),
        )
        .expect("service");
    svc.wait_ready().expect("ready");
    s.service_manager().stop("bus-svc").expect("stop");

    // Updates are published asynchronously: poll the bus on the session clock
    // until the terminal state arrives rather than leaning on close() ordering.
    let mut states: Vec<String> = Vec::new();
    let stopped = wait_until(&s, 30.0, || {
        states.extend(
            updates
                .drain()
                .into_iter()
                .filter_map(|m| m.header("state").map(str::to_string)),
        );
        states.iter().any(|s| s == "Stopped")
    });
    assert!(stopped, "missing Stopped update in {states:?}");
    for expected in ["Scheduling", "Launching", "Ready"] {
        assert!(
            states.iter().any(|s| s == expected),
            "missing {expected} update in {states:?}"
        );
    }
    s.close();
}

#[test]
fn metrics_scalars_track_task_execution() {
    let s = session();
    s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(1))
        .expect("pilot");
    for i in 0..3 {
        s.submit_task(TaskDescription::new(format!("t{i}")).kind(TaskKind::compute_secs(2.0)))
            .expect("task");
    }
    s.wait_tasks(Duration::from_secs(60)).expect("tasks");
    let exec = s.metrics().scalar_summary("task.exec_secs");
    assert_eq!(exec.count, 3);
    assert!(
        exec.mean >= 1.8,
        "execution time must reflect the 2 s compute kernels, got {}",
        exec.mean
    );
    s.close();
}

/// `task.placement_wait_secs` and `task.exec_secs` are columns of one row per placed
/// attempt; read back they are the series they were while
/// each was recorded on its own: one placement value per placed attempt — a retried
/// task's evicted attempt included — one execution time per attempt whose execution
/// ended, and the gang's own series beside them, untouched.
#[test]
fn row_backed_series_read_as_they_did_when_recorded_one_by_one() {
    use TaskState::{Executing, Scheduling};
    let s = Session::builder("rows")
        .platform(PlatformId::Delta)
        .clock(ClockSpec::scaled(200.0))
        .seed(11)
        .fault_plan(FaultPlan::new().fail_at(5.0, 0))
        .build()
        .expect("session");
    s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(4))
        .expect("pilot");
    // A three-node gang and plain tasks on the fourth node, all of them running when
    // node 0 fails: whoever holds it is evicted and retried.
    let compute = |name: &str, secs: f64| {
        TaskDescription::new(name)
            .kind(TaskKind::compute_secs(secs))
            .max_retries(2)
    };
    let mut descriptions = vec![compute("gang", 30.0)
        .nodes(3)
        .gang_packing(GangPacking::Whole)];
    descriptions.extend((0..6).map(|i| compute(&format!("plain-{i}"), 8.0 + i as f64).cores(1)));
    let handles = s.submit_tasks(descriptions).expect("tasks");
    s.wait_tasks(Duration::from_secs(120)).expect("all final");
    assert!(handles.iter().all(|h| h.state() == TaskState::Done));
    let retries: u32 = handles.iter().map(TaskHandle::retries).sum();
    assert!(retries >= 1, "node 0 failed under a running task");
    let attempts = handles.len() + retries as usize;
    let gang_attempts = 1 + handles[0].retries() as usize;

    let m = s.metrics();
    let waits = m.scalar_values("task.placement_wait_secs");
    let mut execs = m.scalar_values("task.exec_secs");
    assert_eq!(waits.len(), attempts, "one wait per placed attempt");
    assert_eq!(execs.len(), attempts, "every placed attempt ran to its end");

    // Each execution time is one attempt's `Executing` entry to just before its next
    // entry (`Done`, or `Scheduling` on the retry edge), and at least its kernel.
    let mut gaps: Vec<f64> = Vec::new();
    for h in &handles {
        let history = h.history();
        for (entry, (state, at)) in history.iter().enumerate() {
            if *state == Executing {
                let (next, until) = history[entry + 1];
                assert!(next == TaskState::Done || next == Scheduling, "{history:?}");
                gaps.push((until - *at).as_secs_f64());
            }
        }
    }
    assert_eq!(gaps.len(), attempts);
    gaps.sort_by(f64::total_cmp);
    execs.sort_by(f64::total_cmp);
    assert!(execs[0] >= 8.0, "the shortest kernel is 8 s: {execs:?}");
    for (exec, gap) in execs.iter().zip(&gaps) {
        assert!(
            exec <= gap,
            "execution {execs:?} within Executing → next {gaps:?}"
        );
    }

    // The gang's series are recorded as ever; its wait is the same number in both.
    let gang_waits = m.scalar_values("task.gang.placement_wait_secs");
    assert_eq!(gang_waits.len(), gang_attempts);
    assert_eq!(m.scalar_values("task.gang.nodes"), vec![3.0; gang_attempts]);
    assert!(
        gang_waits.iter().all(|w| waits.contains(w)),
        "{gang_waits:?}"
    );

    for name in [
        "task.placement_wait_secs",
        "task.exec_secs",
        "task.gang.nodes",
    ] {
        let values = m.scalar_values(name);
        assert_eq!(
            m.scalar_summary(name),
            hpcml::sim::stats::Summary::from_slice(&values),
            "{name}"
        );
    }
    s.close();
}

/// The time between a task's `Scheduling` and `Executing` entries, on the session
/// clock.
fn scheduling_to_executing(task: &TaskHandle) -> f64 {
    let entered = |state| {
        let history = task.history();
        let found = history.iter().find(|(s, _)| *s == state).map(|(_, at)| *at);
        found.unwrap_or_else(|| panic!("never entered {state:?}: {history:?}"))
    };
    (entered(TaskState::Executing) - entered(TaskState::Scheduling)).as_secs_f64()
}

/// A placement wait and a gang's drain are measured on the session clock, like every
/// other duration a task records: on a manual clock a task parked behind a 10 s
/// compute task waits exactly the 10 virtual seconds between its `Scheduling` and
/// `Executing` entries, and a gang that drains from its arrival on drains for exactly
/// its wait.
#[test]
fn placement_waits_and_drains_are_session_clock_differences() {
    let compute =
        |name: &str, secs: f64| TaskDescription::new(name).kind(TaskKind::compute_secs(secs));
    let session = |platform: PlatformId, nodes: usize| {
        let s = Session::builder("virtual-waits")
            .platform(platform)
            .clock(ClockSpec::Manual)
            .seed(17)
            .build()
            .expect("session");
        s.submit_pilot(PilotDescription::new(platform).nodes(nodes))
            .expect("pilot");
        s
    };

    // One slot: each task takes the pilot's one 8-core node.
    let s = session(PlatformId::Local, 1);
    let a = s.submit_task(compute("a", 10.0).cores(8)).expect("a");
    let b = s.submit_task(compute("b", 10.0).cores(8)).expect("b");
    assert_eq!(b.state(), TaskState::Scheduling, "b parks behind a");
    let clock = s.clock();
    advance_until(clock.as_manual().expect("manual"), || b.state().is_final());
    assert_eq!(a.state(), TaskState::Done);
    assert_eq!(b.state(), TaskState::Done);
    assert_eq!(scheduling_to_executing(&b), 10.0);
    let mut waits = s.metrics().scalar_values("task.placement_wait_secs");
    waits.sort_by(f64::total_cmp);
    assert_eq!(waits, [0.0, 10.0], "a placed at once, b when a released");
    s.close();

    // Two 64-core nodes: a one-core task, then a gang of both whole nodes that
    // cannot place beside it, then one-core tasks that pass the gang until its
    // overtake budget is spent — the last of them opens its drain at t = 0. The gang
    // places through the drain once the passers end at t = 20.
    let s = session(PlatformId::Delta, 2);
    s.submit_task(compute("first", 10.0)).expect("first");
    let gang = s
        .submit_task(compute("gang", 30.0).nodes(2).cores(64))
        .expect("gang");
    let passers = s
        .submit_tasks((0..=DEFAULT_MAX_OVERTAKES).map(|i| compute(&format!("pass-{i}"), 20.0)))
        .expect("passers");
    assert_eq!(gang.state(), TaskState::Scheduling);
    assert!(passers.iter().all(|p| p.state() == TaskState::Executing));
    let clock = s.clock();
    advance_until(clock.as_manual().expect("manual"), || {
        gang.state().is_final()
    });
    assert_eq!(gang.state(), TaskState::Done);
    let m = s.metrics();
    assert_eq!(scheduling_to_executing(&gang), 20.0);
    assert_eq!(m.scalar_values("task.gang.placement_wait_secs"), [20.0]);
    assert_eq!(m.scalar_values("task.gang.drain_secs"), [20.0]);
    s.close();
}
