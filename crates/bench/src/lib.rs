//! # hpcml-bench — experiment harness reproducing the paper's evaluation
//!
//! One module per paper artifact:
//!
//! * [`exp1`] — Experiment 1 / Fig. 3: scaling of local service bootstrap time (BT)
//!   on a Frontier-profile pilot, 1–640 concurrent llama-8b service instances.
//! * [`exp2`] — Experiment 2 / Figs. 4–5: strong and weak scaling of local and remote
//!   NOOP service response time (RT) on a Delta-profile pilot (+R3 for remote).
//! * [`exp3`] — Experiment 3 / Fig. 6: strong and weak scaling of local and remote
//!   llama-8b inference time (IT).
//! * [`tables`] — Tables I and II as printable data.
//! * [`report`] — shared row/series printers so every binary emits the same format.
//!
//! The binaries under `src/bin/` drive these modules and print one row per
//! configuration; `cargo bench` exercises reduced-scale versions of the same harness
//! plus micro-benchmarks of the runtime's hot paths.

#![warn(missing_docs)]

pub mod exp1;
pub mod exp2;
pub mod exp3;
pub mod report;
pub mod tables;

/// Runs the `exp1`–`exp3` unit tests one at a time: each drives whole sessions on a
/// scaled clock, and one test's 320-service bootstrap landing on another's publish
/// sleeps skews the timing shapes both assert.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that failed under the lock poisons it; the next one still runs alone.
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Returns true when the harness should run at full paper scale (set `HPCML_FULL=1`).
/// The default is a reduced scale that finishes in seconds while preserving the shapes.
pub fn full_scale() -> bool {
    std::env::var("HPCML_FULL")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false)
}
