//! Virtual time: clocks, time points, and stopwatches.
//!
//! The runtime performs its orchestration with real threads, but every hardware-bound
//! wait (model load, token generation, WAN latency, launcher start-up) is expressed as a
//! *virtual* sleep on a [`Clock`]. Exchanging the clock implementation lets the same code
//! run in real time (examples), compressed time (benchmarks reproducing the paper's
//! figures), or fully deterministic manual time (unit tests).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// A point in virtual time, measured from the owning clock's epoch.
///
/// `SimTime` is an absolute time stamp; differences between two stamps are
/// [`Duration`]s. All recorded experiment metrics are durations of virtual time.
///
/// A stamp is a whole number of nanoseconds in one `u64` — 8 bytes where a
/// [`Duration`] takes 16, which is what a task's state log, a timer-heap entry and a
/// [`ManualClock`] waiter each keep per stamp. It reads back through
/// [`Duration::from_nanos`], so [`SimTime::as_secs_f64`] and [`SimTime::as_duration`]
/// return exactly what the `Duration` the stamp was made from returns. Stamps saturate
/// at `u64::MAX` ns (≈ 584 virtual years): [`SimTime::from_duration`] and `+ Duration`
/// clamp there where `Duration` arithmetic would overflow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The clock epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct a time stamp from seconds since the epoch.
    pub fn from_secs_f64(secs: f64) -> Self {
        Self::from_duration(Duration::from_secs_f64(secs.max(0.0)))
    }

    /// Construct a time stamp from a duration since the epoch, saturating at
    /// `u64::MAX` ns.
    pub fn from_duration(d: Duration) -> Self {
        SimTime(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.as_duration().as_secs_f64()
    }

    /// The underlying duration since the epoch.
    pub fn as_duration(&self) -> Duration {
        Duration::from_nanos(self.0)
    }

    /// Duration elapsed since an earlier time stamp (saturating at zero).
    pub fn since(&self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    /// Saturates at `u64::MAX` ns.
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(SimTime::from_duration(rhs).0))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

/// A latched wake-up flag: the handle through which a thread sleeping in
/// [`Clock::sleep_interruptibly`] is woken early. A raise that lands before the sleeper
/// waits is not lost — the next wait returns at once and clears it.
#[derive(Debug, Default)]
pub struct Interrupt {
    raised: Mutex<bool>,
    cond: Condvar,
}

impl Interrupt {
    /// Create a lowered interrupt.
    pub fn new() -> Arc<Self> {
        Arc::new(Interrupt::default())
    }

    /// Wake the sleeper (or make its next wait return immediately).
    pub fn raise(&self) {
        *self.raised.lock() = true;
        self.cond.notify_one();
    }

    /// Block until raised or until the real-time `deadline` (if any) passes; a raise is
    /// consumed by the wait it ends.
    pub fn wait_until(&self, deadline: Option<Instant>) {
        let mut raised = self.raised.lock();
        while !*raised {
            match deadline {
                Some(at) => {
                    if self.cond.wait_until(&mut raised, at).timed_out() {
                        break;
                    }
                }
                None => self.cond.wait(&mut raised),
            }
        }
        *raised = false;
    }
}

/// A source of virtual time.
///
/// Implementations must be cheap to clone behind an [`Arc`] and safe to share across the
/// many threads of the runtime (executor workers, service threads, manager threads).
pub trait Clock: Send + Sync {
    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Block the calling thread for `d` of virtual time.
    fn sleep(&self, d: Duration);

    /// Block until the clock reads `deadline`, real time reaches `real_deadline`, or
    /// `interrupt` is raised — whichever comes first (`None` = no such bound). May
    /// return early; callers re-check their condition. This is how one timer thread
    /// sleeps to the earliest entry of a timer heap and still hears about an earlier
    /// one. The provided body serves every clock that runs off real time at a finite
    /// [`Clock::scale`] (virtual seconds per real second); a clock advanced any other
    /// way overrides it.
    fn sleep_interruptibly(
        &self,
        deadline: Option<SimTime>,
        real_deadline: Option<Instant>,
        interrupt: &Arc<Interrupt>,
    ) {
        let virtual_due =
            deadline.map(|at| Instant::now() + at.since(self.now()).div_f64(self.scale()));
        let due = match (virtual_due, real_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        interrupt.wait_until(due);
    }

    /// Virtual-to-real compression factor (1.0 for a real-time clock).
    fn scale(&self) -> f64 {
        1.0
    }

    /// Human-readable description, used in experiment metadata.
    fn describe(&self) -> String {
        format!("clock(scale={})", self.scale())
    }

    /// This clock as a [`ManualClock`], for a test that moves time itself (a session
    /// built on [`ClockSpec::Manual`] hands out only its [`SharedClock`]).
    fn as_manual(&self) -> Option<&ManualClock> {
        None
    }
}

/// Shared, dynamically dispatched clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// Declarative clock configuration, serialisable into experiment configs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClockSpec {
    /// Wall-clock time, no compression.
    Real,
    /// Compressed time: one virtual second takes `1/scale` real seconds.
    Scaled(f64),
    /// Fully manual time, advanced explicitly by the test driver.
    Manual,
}

impl ClockSpec {
    /// Convenience constructor for a scaled clock.
    pub fn scaled(scale: f64) -> Self {
        ClockSpec::Scaled(scale)
    }

    /// Build the clock described by this spec.
    pub fn build(&self) -> SharedClock {
        match *self {
            ClockSpec::Real => Arc::new(RealClock::new()),
            ClockSpec::Scaled(s) => Arc::new(ScaledClock::new(s)),
            ClockSpec::Manual => Arc::new(ManualClock::new()),
        }
    }
}

impl Default for ClockSpec {
    fn default() -> Self {
        ClockSpec::Scaled(1000.0)
    }
}

/// Wall-clock backed clock: virtual time equals real elapsed time.
#[derive(Debug)]
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// Create a real-time clock whose epoch is "now".
    pub fn new() -> Self {
        RealClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> SimTime {
        SimTime::from_duration(self.epoch.elapsed())
    }

    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }

    fn describe(&self) -> String {
        "real".to_string()
    }
}

/// Compressed clock: `scale` virtual seconds elapse per real second.
///
/// A scale of 1000 means a 30 s model load is simulated by a 30 ms real sleep while the
/// recorded virtual duration remains 30 s. Orchestration work (queueing, scheduling,
/// message passing) still takes its real time, which is also accounted in virtual time —
/// i.e. it is *scaled up*. For the experiments this is conservative: real runtime
/// overheads appear `scale`× larger, so if the reproduced overheads are still negligible
/// the paper's conclusion holds a fortiori. The harness reports both.
#[derive(Debug)]
pub struct ScaledClock {
    epoch: Instant,
    scale: f64,
}

impl ScaledClock {
    /// Create a scaled clock with the given compression factor (must be > 0).
    pub fn new(scale: f64) -> Self {
        assert!(scale > 0.0, "clock scale must be positive, got {scale}");
        ScaledClock {
            epoch: Instant::now(),
            scale,
        }
    }

    /// Virtual time after `real` since the epoch, in integer nanoseconds: monotone,
    /// exact below 2⁵³ ns, saturating at `u64::MAX` ns (≈ 584 virtual years).
    fn scaled(real: Duration, scale: f64) -> Duration {
        Duration::from_nanos((real.as_nanos() as u64 as f64 * scale) as u64)
    }
}

impl Clock for ScaledClock {
    fn now(&self) -> SimTime {
        SimTime::from_duration(Self::scaled(self.epoch.elapsed(), self.scale))
    }

    fn sleep(&self, d: Duration) {
        if d.is_zero() {
            return;
        }
        let real = Duration::from_secs_f64(d.as_secs_f64() / self.scale);
        // Sleeping less than ~50µs real time is dominated by scheduler jitter; spin
        // instead so short virtual delays stay approximately proportional.
        if real < Duration::from_micros(50) {
            let start = Instant::now();
            while start.elapsed() < real {
                std::hint::spin_loop();
            }
        } else {
            std::thread::sleep(real);
        }
    }

    fn scale(&self) -> f64 {
        self.scale
    }

    fn describe(&self) -> String {
        format!("scaled(x{})", self.scale)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Waiter {
    deadline: SimTime,
    seq: u64,
}

impl Ord for Waiter {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on deadline.
        other
            .deadline
            .cmp(&self.deadline)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Waiter {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Default)]
struct ManualState {
    now: SimTime,
    pending: BinaryHeap<Waiter>,
    next_seq: u64,
    /// Interruptible sleepers to raise whenever time moves, keyed by their `seq`.
    listeners: Vec<(u64, Arc<Interrupt>)>,
}

impl ManualState {
    fn time_moved(&self, cond: &Condvar) {
        cond.notify_all();
        for (_, listener) in &self.listeners {
            listener.raise();
        }
    }

    /// Drop sleeper `seq` from the pending heap (passed deadlines of other sleepers
    /// may remain; everything that is not `seq` is kept).
    fn forget(&mut self, seq: u64) {
        self.pending.retain(|w| w.seq != seq);
    }
}

/// Deterministic clock advanced explicitly by the test driver.
///
/// Threads calling [`Clock::sleep`] block until the driver advances time past their
/// deadline with [`ManualClock::advance`] or [`ManualClock::advance_to_next`].
#[derive(Debug, Default)]
pub struct ManualClock {
    state: Mutex<ManualState>,
    cond: Condvar,
}

impl ManualClock {
    /// Create a manual clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance virtual time by `d`, waking every sleeper whose deadline has passed.
    pub fn advance(&self, d: Duration) {
        let mut st = self.state.lock();
        st.now += d;
        st.time_moved(&self.cond);
    }

    /// Advance to the earliest pending deadline, if any. Returns the new time.
    pub fn advance_to_next(&self) -> SimTime {
        let mut st = self.state.lock();
        if let Some(w) = st.pending.peek().copied() {
            if w.deadline > st.now {
                st.now = w.deadline;
            }
        }
        let now = st.now;
        st.time_moved(&self.cond);
        now
    }

    /// Number of threads currently blocked in [`Clock::sleep`].
    pub fn pending_sleepers(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// The earliest deadline a blocked thread waits for, if any. A sleeper that an
    /// advance has woken keeps its passed deadline here until it runs again.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.state.lock().pending.peek().map(|w| w.deadline)
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        self.state.lock().now
    }

    fn sleep(&self, d: Duration) {
        if d.is_zero() {
            return;
        }
        let mut st = self.state.lock();
        let deadline = st.now + d;
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pending.push(Waiter { deadline, seq });
        while st.now < deadline {
            self.cond.wait(&mut st);
        }
        st.forget(seq);
    }

    /// Manual time has no real-time equivalent: register as a pending sleeper (so
    /// [`ManualClock::advance_to_next`] sees the deadline) and as a listener every
    /// advance raises, then wait on the interrupt alone.
    fn sleep_interruptibly(
        &self,
        deadline: Option<SimTime>,
        real_deadline: Option<Instant>,
        interrupt: &Arc<Interrupt>,
    ) {
        let seq = {
            let mut st = self.state.lock();
            if deadline.is_some_and(|at| st.now >= at) {
                return;
            }
            let seq = st.next_seq;
            st.next_seq += 1;
            if let Some(deadline) = deadline {
                st.pending.push(Waiter { deadline, seq });
            }
            st.listeners.push((seq, Arc::clone(interrupt)));
            seq
        };
        interrupt.wait_until(real_deadline);
        let mut st = self.state.lock();
        st.forget(seq);
        st.listeners.retain(|(s, _)| *s != seq);
    }

    fn scale(&self) -> f64 {
        f64::INFINITY
    }

    fn describe(&self) -> String {
        "manual".to_string()
    }

    fn as_manual(&self) -> Option<&ManualClock> {
        Some(self)
    }
}

/// Measures virtual durations against a clock it borrows: starting one per request
/// touches no reference count.
#[derive(Clone)]
pub struct Stopwatch<'a> {
    clock: &'a dyn Clock,
    start: SimTime,
}

impl<'a> Stopwatch<'a> {
    /// Start a stopwatch now.
    pub fn start(clock: &'a dyn Clock) -> Self {
        let start = clock.now();
        Stopwatch { clock, start }
    }

    /// Virtual time elapsed since the stopwatch was started.
    pub fn elapsed(&self) -> Duration {
        self.clock.now().since(self.start)
    }

    /// Virtual time elapsed, in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    /// Restart the stopwatch and return the lap duration.
    pub fn lap(&mut self) -> Duration {
        let now = self.clock.now();
        let lap = now.since(self.start);
        self.start = now;
        lap
    }

    /// The time at which the stopwatch was (re)started.
    pub fn started_at(&self) -> SimTime {
        self.start
    }
}

impl fmt::Debug for Stopwatch<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stopwatch")
            .field("start", &self.start)
            .field("elapsed", &self.elapsed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn sim_time_arithmetic() {
        let a = SimTime::from_secs_f64(1.5);
        let b = a + Duration::from_millis(500);
        assert!((b.as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(b - a, Duration::from_millis(500));
        assert_eq!(a - b, Duration::ZERO, "subtraction saturates");
        assert_eq!(b.since(a), Duration::from_millis(500));
    }

    #[test]
    fn a_stamp_is_eight_bytes_and_reads_back_as_the_duration_it_was_made_from() {
        assert_eq!(std::mem::size_of::<SimTime>(), 8);
        let sources = [
            Duration::ZERO,
            Duration::from_nanos(1),
            Duration::from_millis(1500),
            Duration::from_secs(1_000_000),
        ];
        for d in sources {
            let stamp = SimTime::from_duration(d);
            assert_eq!(stamp.as_duration(), d);
            assert_eq!(stamp.as_secs_f64().to_bits(), d.as_secs_f64().to_bits());
            assert_eq!((SimTime::ZERO + d).as_duration(), d);
        }
        for pair in sources.windows(2) {
            let (a, b) = (
                SimTime::from_duration(pair[0]),
                SimTime::from_duration(pair[1]),
            );
            assert!(a < b, "{a:?} < {b:?}");
            assert_eq!(b - a, pair[1] - pair[0]);
        }
    }

    #[test]
    fn stamps_saturate_at_u64_max_nanoseconds() {
        let last = SimTime::from_duration(Duration::from_nanos(u64::MAX));
        assert_eq!(SimTime::ZERO + Duration::MAX, last);
        assert_eq!(SimTime::from_secs_f64(1.0) + Duration::MAX, last);
        assert_eq!(SimTime::from_duration(Duration::MAX), last);
        let mut t = SimTime::from_secs_f64(2.0);
        t += Duration::MAX;
        assert_eq!(t, last);
        assert_eq!(last.since(SimTime::ZERO), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn sim_time_negative_secs_clamped() {
        let t = SimTime::from_secs_f64(-3.0);
        assert_eq!(t, SimTime::ZERO);
    }

    #[test]
    fn real_clock_advances() {
        let c = RealClock::new();
        let t0 = c.now();
        c.sleep(Duration::from_millis(5));
        let t1 = c.now();
        assert!(t1.since(t0) >= Duration::from_millis(4));
        assert_eq!(c.scale(), 1.0);
    }

    #[test]
    fn scaled_clock_compresses_time() {
        let c = ScaledClock::new(1000.0);
        let wall = Instant::now();
        c.sleep(Duration::from_secs(2)); // 2 virtual seconds == 2ms real
        let real_elapsed = wall.elapsed();
        assert!(
            real_elapsed < Duration::from_millis(500),
            "real elapsed {real_elapsed:?}"
        );
        assert!(c.now().as_secs_f64() >= 1.9);
    }

    #[test]
    fn integer_scaling_is_monotone_and_agrees_with_the_float_form() {
        let float_form =
            |real: Duration, scale: f64| Duration::from_secs_f64(real.as_secs_f64() * scale);
        let month_ns = 30 * 24 * 3600 * 1_000_000_000u64;
        for scale in [0.25f64, 1.0, 100.0, 1000.0, 6000.0] {
            // Every magnitude from nanoseconds to 30 days, a seeded spread of values in
            // between, and neighbours 1 ns apart at both ends.
            let mut reals: Vec<u64> = (0..=51).map(|bit| (1u64 << bit).min(month_ns)).collect();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..20_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                reals.push((x >> 11) % (month_ns + 1));
            }
            reals.extend((0..2_000).flat_map(|i| [i, month_ns - i]));
            reals.sort_unstable();
            let tolerance = Duration::from_nanos(scale.max(1.0) as u64);
            let mut previous = Duration::ZERO;
            for real in reals.into_iter().map(Duration::from_nanos) {
                let scaled = ScaledClock::scaled(real, scale);
                assert!(scaled >= previous, "x{scale}: not monotone at {real:?}");
                let float = float_form(real, scale);
                let apart = scaled.max(float) - scaled.min(float);
                assert!(
                    apart <= tolerance,
                    "x{scale} at {real:?}: {scaled:?} vs {float:?}"
                );
                previous = scaled;
            }
        }
        // Past what fits: saturates, where the float form panicked.
        let forever = ScaledClock::scaled(Duration::from_secs(400 * 365 * 24 * 3600), 6000.0);
        assert_eq!(forever, Duration::from_nanos(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_clock_rejects_zero_scale() {
        let _ = ScaledClock::new(0.0);
    }

    #[test]
    fn manual_clock_wakes_sleepers_in_order() {
        let c = Arc::new(ManualClock::new());
        let c1 = Arc::clone(&c);
        let c2 = Arc::clone(&c);
        let h1 = thread::spawn(move || {
            c1.sleep(Duration::from_secs(5));
            c1.now()
        });
        let h2 = thread::spawn(move || {
            c2.sleep(Duration::from_secs(10));
            c2.now()
        });
        // Wait until both sleepers registered.
        while c.pending_sleepers() < 2 {
            thread::yield_now();
        }
        c.advance(Duration::from_secs(5));
        let woke1 = h1.join().unwrap();
        assert_eq!(woke1.as_secs_f64() as u64, 5);
        assert_eq!(c.pending_sleepers(), 1);
        c.advance(Duration::from_secs(5));
        let woke2 = h2.join().unwrap();
        assert_eq!(woke2.as_secs_f64() as u64, 10);
        assert_eq!(c.pending_sleepers(), 0);
    }

    #[test]
    fn manual_clock_advance_to_next() {
        let c = Arc::new(ManualClock::new());
        let cc = Arc::clone(&c);
        let h = thread::spawn(move || cc.sleep(Duration::from_millis(1500)));
        while c.pending_sleepers() < 1 {
            thread::yield_now();
        }
        let t = c.advance_to_next();
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
        h.join().unwrap();
    }

    #[test]
    fn clock_spec_builds_expected_variants() {
        assert_eq!(ClockSpec::Real.build().scale(), 1.0);
        assert_eq!(ClockSpec::scaled(250.0).build().scale(), 250.0);
        assert!(ClockSpec::Manual.build().scale().is_infinite());
        assert!(ClockSpec::Manual.build().as_manual().is_some());
        assert!(ClockSpec::scaled(250.0).build().as_manual().is_none());
        assert_eq!(ClockSpec::default(), ClockSpec::Scaled(1000.0));
    }

    #[test]
    fn stopwatch_measures_virtual_time() {
        let clock: SharedClock = Arc::new(ScaledClock::new(1000.0));
        let mut sw = Stopwatch::start(clock.as_ref());
        clock.sleep(Duration::from_secs(3));
        assert!(sw.elapsed_secs() >= 2.9);
        let lap = sw.lap();
        assert!(lap.as_secs_f64() >= 2.9);
        assert!(sw.elapsed_secs() < 1.0);
    }

    #[test]
    fn interruptible_sleep_ends_at_the_virtual_deadline_or_on_a_raise() {
        let clock = ScaledClock::new(1000.0);
        let interrupt = Interrupt::new();
        // 20 virtual seconds == 20 ms real: the deadline ends the sleep.
        let deadline = clock.now() + Duration::from_secs(20);
        clock.sleep_interruptibly(Some(deadline), None, &interrupt);
        assert!(clock.now() >= deadline);
        // A raise that lands first is latched and ends an unbounded sleep at once.
        interrupt.raise();
        let wall = Instant::now();
        clock.sleep_interruptibly(None, None, &interrupt);
        assert!(wall.elapsed() < Duration::from_secs(5));
        // The real-time bound applies when it is the earlier one.
        let far = clock.now() + Duration::from_secs(3600 * 1000);
        let wall = Instant::now();
        clock.sleep_interruptibly(Some(far), Some(wall + Duration::from_millis(5)), &interrupt);
        assert!(wall.elapsed() >= Duration::from_millis(5));
        assert!(clock.now() < far);
    }

    #[test]
    fn manual_clock_interruptible_sleep_follows_advances() {
        let c = Arc::new(ManualClock::new());
        let interrupt = Interrupt::new();
        let (cc, ii) = (Arc::clone(&c), Arc::clone(&interrupt));
        let deadline = SimTime::from_secs_f64(7.0);
        let sleeper = thread::spawn(move || {
            while cc.now() < deadline {
                cc.sleep_interruptibly(Some(deadline), None, &ii);
            }
            cc.now()
        });
        // The deadline is visible to `advance_to_next` like any other sleeper's.
        while c.pending_sleepers() < 1 {
            thread::yield_now();
        }
        c.advance(Duration::from_secs(3)); // early return, re-registers
        while c.pending_sleepers() < 1 {
            thread::yield_now();
        }
        let t = c.advance_to_next();
        assert!((t.as_secs_f64() - 7.0).abs() < 1e-9);
        assert_eq!(sleeper.join().unwrap(), t);
        assert_eq!(c.pending_sleepers(), 0);
        // Already past the deadline: returns without registering.
        c.sleep_interruptibly(Some(deadline), None, &interrupt);
    }

    #[test]
    fn zero_sleep_returns_immediately() {
        let c = ManualClock::new();
        c.sleep(Duration::ZERO); // must not deadlock
        assert_eq!(c.pending_sleepers(), 0);
    }
}
