//! # hpcml-sim — time, stochastic, and statistics substrate
//!
//! This crate provides the low-level building blocks shared by every other crate in the
//! `hpcml` workspace:
//!
//! * [`clock`] — a [`clock::Clock`] abstraction with three implementations: a wall-clock
//!   [`clock::RealClock`], a [`clock::ScaledClock`] that compresses virtual time into a
//!   fraction of real time (so 640 simulated service bootstraps or tens of thousands of
//!   inference requests finish in seconds), and a fully deterministic
//!   [`clock::ManualClock`] for unit tests.
//! * [`dist`] — seedable random distributions (constant, uniform, normal, log-normal,
//!   exponential, truncated normal) used to model launch overheads, model load times,
//!   network latencies and inference durations.
//! * [`stats`] — streaming and batch descriptive statistics (mean, standard deviation,
//!   percentiles, histograms) used to aggregate experiment samples exactly the way the
//!   paper reports them (averages, distributions, outliers, long tails).
//! * [`metrics`] — a lightweight concurrent metric registry with per-component breakdown
//!   records, used to collect Bootstrap Time (BT), Response Time (RT) and Inference Time
//!   (IT) samples across threads.
//! * [`ids`] — process-wide unique, human-readable identifiers (`task.0001`,
//!   `service.0003`, ...), mirroring the identifier scheme of pilot runtimes.
//! * [`fault`] — deterministic fault-injection plans: seeded schedules of node
//!   failures pinned to virtual clock times, so failure scenarios replay exactly.
//! * [`pool`] — the bounded executor's machinery: resumable runs ([`pool::Resume`]),
//!   a lazily started worker pool and a timer thread with session-clock and real-time
//!   heaps. It sits this low because both the runtime's tasks and the serving plane's
//!   admission front-end and replicas are runs on the same pool.
//!
//! All durations recorded through this crate are *virtual* durations: when running under
//! a [`clock::ScaledClock`] the numbers are directly comparable with the wall-clock
//! seconds reported in the paper, regardless of how much the experiment was compressed.

#![warn(missing_docs)]

pub mod clock;
pub mod dist;
pub mod fault;
pub mod ids;
pub mod metrics;
pub mod pool;
pub mod stats;

pub use clock::{
    Clock, ClockSpec, Interrupt, ManualClock, RealClock, ScaledClock, SimTime, Stopwatch,
};
pub use dist::Dist;
pub use fault::{FaultEvent, FaultPlan};
pub use metrics::{BreakdownRecorder, ComponentSample, MetricRegistry};
pub use stats::{Histogram, OnlineStats, Summary};
