//! The allocation and retention budget of the task path: what a NOOP task costs the
//! heap from `Session::submit_tasks` to its terminal state, what a finished task keeps
//! — a NOOP one, and one that queued for placement — and that state messages are
//! built for the subscribers that match them and for nobody else.
//!
//! Kept in a test binary of its own, with one test: the counting allocator is
//! process-wide, and a test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

use hpcml::comm::Message;
use hpcml::prelude::*;

/// The system allocator, counting the blocks it hands out and the bytes that are live.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are relaxed statistics beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WAVES: usize = 3;
const WAVE: usize = 2_000;
const QUEUED_WAVES: usize = 2;
const QUEUED_WAVE: usize = 400;
/// Heap allocations one NOOP task may make, its description included. Measured: 7.0
/// (name, record, run, four in the platform allocator); 8.0 while the record kept
/// its id as a `String`, 9.0 while it also shared a slot with the run, and 48.2 with
/// string-keyed state cells and eagerly built messages.
const BUDGET_PER_TASK: f64 = 8.0;
/// Live bytes a finished NOOP task may keep: its record (136 bytes with the `Arc`'s
/// counts: the id's index, the state cell with six stamps and six one-byte states in
/// place, the clock, the platform, the retry count), its entry in the task directory,
/// and its metric record (one `TaskRow`) with its share of block slack; its three
/// `comm.fanout.width` records are value counts, which a width seen before does not
/// grow. Its run — with the description and the slot — is freed. Measured: 169.0,
/// debug and release; 244.0 while the record kept the id as a `String` and its state
/// log as 16-byte `(state, stamp)` pairs, 271.2 while each width was also an 8-byte
/// record, 311.2 while the state cell kept its spill and its failure reason in place,
/// 611.2 while the record kept the description and stamps were 16-byte `Duration`s,
/// 767.2 while it also kept the run's slot.
const RETAINED_PER_NOOP_TASK: f64 = 193.0;
/// Live bytes a finished task that queued for placement may keep: the NOOP task's
/// parts and nothing of its wait. Measured: 172.0 release, 177.0 debug; 246.8–252.0
/// with a `String` id and 16-byte log entries; 293–299 while each width was an 8-byte
/// record; 635–641 while the record kept the description; 1 118 while its real-time
/// timer entry pinned the run's allocation until the 120 s deadline and the record
/// kept the run's slot.
const RETAINED_PER_QUEUED_TASK: f64 = 196.0;

fn session(pilot: PilotDescription) -> Session {
    let s = Session::builder("allocs")
        .platform(pilot.platform)
        .clock(ClockSpec::scaled(1000.0))
        .seed(11)
        .build()
        .expect("session");
    s.submit_pilot(pilot).expect("pilot");
    s
}

/// The 64-node pilot NOOP tasks never wait for.
fn free_pilot() -> PilotDescription {
    PilotDescription::new(PlatformId::Frontier).nodes(64)
}

fn noop() -> TaskDescription {
    TaskDescription::new("noop").cores(1)
}

/// Run `waves` waves of `wave` tasks to their end and return the allocations made
/// and the live bytes left, per task.
fn per_task(
    s: &Session,
    waves: usize,
    wave: usize,
    task: impl Fn() -> TaskDescription,
) -> (f64, f64) {
    let (allocations, live) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    );
    for w in 0..waves {
        let handles = s.submit_tasks((0..wave).map(|_| task())).expect("wave");
        for handle in &handles {
            let state = handle.wait_final(Duration::from_secs(60)).expect("final");
            assert_eq!(state, TaskState::Done, "wave {w}");
        }
    }
    let tasks = (waves * wave) as f64;
    (
        (ALLOCATIONS.load(Ordering::Relaxed) - allocations) as f64 / tasks,
        (LIVE_BYTES.load(Ordering::Relaxed) - live) as f64 / tasks,
    )
}

#[test]
fn a_noop_task_stays_inside_its_allocation_budget() {
    // Nobody listens: no state message is built at all.
    let s = session(free_pilot());
    let (quiet, kept) = per_task(&s, WAVES, WAVE, noop);
    eprintln!("NOOP: {quiet:.1} allocations and {kept:.1} retained bytes per task");
    assert!(
        quiet <= BUDGET_PER_TASK,
        "{quiet:.1} allocations per task with no subscriber"
    );
    assert!(
        kept <= RETAINED_PER_NOOP_TASK,
        "{kept:.1} live bytes left per finished NOOP task"
    );
    s.close();

    // 10 ms tasks that take a quarter node each, four at a time on one node: all but
    // the first four of a wave queue for placement and file a real-time deadline. The
    // first wave starts the pool and is not counted. A run still on a worker when its
    // handle reads `Done` is counted: at most one per worker, a byte or so per task.
    let s = session(PilotDescription::new(PlatformId::Delta).nodes(1));
    let queued = || {
        TaskDescription::new("queued")
            .kind(TaskKind::compute_secs(10.0))
            .cores(16)
    };
    per_task(&s, 1, QUEUED_WAVE, queued);
    let (_, kept) = per_task(&s, QUEUED_WAVES, QUEUED_WAVE, queued);
    eprintln!("queued: {kept:.1} retained bytes per task");
    assert!(
        kept <= RETAINED_PER_QUEUED_TASK,
        "{kept:.1} live bytes left per finished task that queued"
    );
    s.close();

    // Somebody listens, to something else: topics are matched before a message is
    // built, so task messages still are not.
    let s = session(free_pilot());
    let services = s.subscribe_updates(&["state.service"]);
    let (unmatched, _) = per_task(&s, WAVES, WAVE, noop);
    assert!(
        unmatched <= BUDGET_PER_TASK,
        "{unmatched:.1} allocations per task with a state.service subscriber"
    );
    assert_eq!(services.pending(), 0);
    s.close();

    // Somebody listens to tasks: every message arrives, and is the message the eager
    // `Message::new(..).with_header(..)` path used to send.
    let s = session(free_pilot());
    let tasks = s.subscribe_updates(&["state.task"]);
    let handles = s.submit_tasks((0..WAVE).map(|_| noop())).expect("wave");
    s.close();
    let delivered = tasks.drain();
    assert_eq!(delivered.len(), 3 * WAVE, "three messages per task");
    for (handle, sent) in handles.iter().zip(delivered.chunks(3)) {
        let id = handle.id();
        for (msg, state) in sent.iter().zip(["Scheduling", "Executing", "Done"]) {
            let mut eager = Message::new(format!("state.task.{state}"), "state.update")
                .with_header("entity", id.clone())
                .with_header("state", state);
            // Message ids count up process-wide; everything else must match.
            eager.id = msg.id;
            assert_eq!(msg.topic, eager.topic);
            assert_eq!(msg.kind, eager.kind);
            assert_eq!(msg.header("entity"), Some(id.as_str()));
            assert_eq!(msg.header("state"), Some(state));
            assert_eq!(msg.payload, eager.payload);
            assert_eq!(msg.encoded_len(), eager.encoded_len());
            assert_eq!(**msg, eager, "no header beyond entity and state");
        }
    }
}
