//! Helpers shared across the integration-test binaries.
//!
//! Each test binary that needs them declares `mod common;` — rustc compiles this
//! module once per binary, so every helper is `#[allow(dead_code)]`: a binary
//! that uses only one of them must not trip `clippy -D warnings` for the rest.

use std::time::{Duration, Instant};

use hpcml::prelude::*;
use hpcml::sim::clock::ManualClock;

/// `Threads:` of `/proc/self/status`; `None` where there is no such file. Process-wide:
/// a binary that asserts on it holds one test.
#[allow(dead_code)]
pub fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

/// The thread count once it is back at `before`, or whatever it still is two seconds
/// on: `Session::close` has joined every thread it started, but the kernel may take a
/// moment longer to take a joined thread off the process's list.
#[allow(dead_code)]
pub fn threads_settled_at(before: Option<usize>) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(2);
    while process_threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    process_threads()
}

/// Poll `cond` on the session clock until it holds or `timeout_secs` virtual
/// seconds elapse. Sleeping on the session clock keeps the wait proportional to
/// simulated time regardless of the clock scale, instead of burning fixed
/// real-time polls.
#[allow(dead_code)]
pub fn wait_until(s: &Session, timeout_secs: f64, mut cond: impl FnMut() -> bool) -> bool {
    let clock = s.clock();
    let deadline = clock.now().as_secs_f64() + timeout_secs;
    while !cond() {
        if clock.now().as_secs_f64() >= deadline {
            return false;
        }
        clock.sleep(Duration::from_millis(50));
    }
    true
}

/// Move `clock` to each next deadline until `done` holds.
#[allow(dead_code)]
pub fn advance_until(clock: &ManualClock, mut done: impl FnMut() -> bool) {
    let stuck_after = Instant::now() + Duration::from_secs(120);
    while !done() {
        assert!(Instant::now() < stuck_after, "the session stopped moving");
        clock.advance_to_next();
        std::thread::yield_now();
    }
}
