//! Bounds of the executor: tasks are state machines resumed by a fixed pool, so one
//! session outlives the old one-thread-per-entity cap (≈32 000 entities, where the
//! process ran out of memory maps) and its thread count does not follow the number of
//! parked tasks.
//!
//! Kept in a test binary of its own: it reads the process-wide thread count, which
//! tests running beside it would disturb.

use std::time::Duration;

use hpcml::prelude::*;

mod common;
use common::{process_threads, threads_settled_at};

#[test]
fn one_session_runs_42000_tasks_on_a_bounded_number_of_threads() {
    const NOOP_WAVES: usize = 10;
    const NOOP_WAVE: usize = 4_000;
    const QUEUED: usize = 2_000;
    // Workers + the timer thread, plus slack for a thread the harness may start.
    let pool = std::thread::available_parallelism().map_or(1, |n| n.get());
    let allowance = pool + 1 + 2;

    let before = process_threads();
    let s = Session::builder("bounds")
        .platform(PlatformId::Local)
        .clock(ClockSpec::scaled(1000.0))
        .seed(5)
        .build()
        .expect("session");
    let pilot = s
        .submit_pilot(PilotDescription::new(PlatformId::Local).nodes(1))
        .expect("pilot");
    let free_cores = pilot.free_cores();
    assert_eq!(
        process_threads(),
        before,
        "building a session and activating a pilot spawn nothing"
    );

    // 40 000 NOOP tasks: none of them ever parks, so none of them costs a thread.
    for wave in 0..NOOP_WAVES {
        let handles = s
            .submit_tasks((0..NOOP_WAVE).map(|i| TaskDescription::new(format!("n{wave}-{i}"))))
            .expect("noop wave");
        assert!(
            handles.iter().all(|h| h.state() == TaskState::Done),
            "wave {wave}: a NOOP task on a free pilot is done when submit returns"
        );
    }
    assert_eq!(
        process_threads(),
        before,
        "tasks that never park never start the pool"
    );

    // 2 000 one-second tasks for 8 cores: all but 8 park in the scheduler's queue.
    let handles = s
        .submit_tasks((0..QUEUED).map(|i| {
            TaskDescription::new(format!("q{i}"))
                .kind(TaskKind::compute_secs(1.0))
                .cores(1)
        }))
        .expect("queued batch");
    let parked = handles
        .iter()
        .filter(|h| h.state() == TaskState::Scheduling)
        .count();
    assert!(
        parked > QUEUED * 9 / 10,
        "only {parked} tasks are parked when submit returns"
    );
    let mut peak = process_threads();
    for h in handles.iter().step_by(100) {
        h.wait_final(Duration::from_secs(120)).expect("final");
        peak = peak.max(process_threads());
    }
    s.wait_tasks(Duration::from_secs(120)).expect("all final");
    assert!(handles.iter().all(|h| h.state() == TaskState::Done));
    assert_eq!(pilot.free_cores(), free_cores, "every slot is back");
    if let (Some(before), Some(peak)) = (before, peak) {
        assert!(
            peak <= before + allowance,
            "{peak} threads with {parked} tasks parked; {before} before the session, \
             pool of {pool}"
        );
    }

    assert_eq!(s.task_manager().len(), NOOP_WAVES * NOOP_WAVE + QUEUED);
    s.close();
    assert_eq!(
        threads_settled_at(before),
        before,
        "close joins the pool: the thread count is back where it started"
    );

    // Here, not in a test of its own: nothing may run beside the thread counts above.
    closing_at_once_never_misses_the_last_run();
}

/// `close()` waits for the count of runs in flight to reach zero, and the run that
/// brings it there signals without having held a lock while it counted down. A close
/// that races the last runs of 200 sessions must hear every one of those signals.
fn closing_at_once_never_misses_the_last_run() {
    for round in 0..200 {
        let s = Session::builder("close-at-once")
            .platform(PlatformId::Local)
            .clock(ClockSpec::scaled(1000.0))
            .seed(round)
            .build()
            .expect("session");
        s.submit_pilot(PilotDescription::new(PlatformId::Local).nodes(1))
            .expect("pilot");
        let handles = s
            .submit_tasks(
                (0..64).map(|i| {
                    TaskDescription::new(format!("c{i}")).kind(TaskKind::compute_secs(0.5))
                }),
            )
            .expect("tasks");
        let (closed, wait) = std::sync::mpsc::channel();
        let closer = std::thread::spawn(move || {
            s.close();
            let _ = closed.send(());
        });
        wait.recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("round {round}: close() did not return within 5 s"));
        closer.join().expect("closer");
        assert!(
            handles.iter().all(|h| h.state() == TaskState::Done),
            "round {round}: close returned before every run had ended"
        );
    }
}
