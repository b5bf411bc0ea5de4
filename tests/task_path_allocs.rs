//! The allocation budget of the task path: what a NOOP task costs the heap from
//! `Session::submit_tasks` to its terminal state, and that state messages are built
//! for the subscribers that match them and for nobody else.
//!
//! Kept in a test binary of its own, with one test: the counting allocator is
//! process-wide, and a test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use hpcml::comm::Message;
use hpcml::prelude::*;

/// The system allocator, counting every block it hands out.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a relaxed statistic beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WAVES: usize = 3;
const WAVE: usize = 2_000;
/// Heap allocations one NOOP task may make, its description included. Measured: 9.0
/// (name, id, record, run, four in the platform allocator, the shared slot) where
/// string-keyed state cells and eagerly built messages made 48.2.
const BUDGET_PER_TASK: f64 = 10.0;

fn session() -> Session {
    let s = Session::builder("allocs")
        .platform(PlatformId::Frontier)
        .clock(ClockSpec::scaled(1000.0))
        .seed(11)
        .build()
        .expect("session");
    s.submit_pilot(PilotDescription::new(PlatformId::Frontier).nodes(64))
        .expect("pilot");
    s
}

/// Run the waves and return the allocations made per task.
fn allocations_per_task(s: &Session) -> f64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for wave in 0..WAVES {
        let handles = s
            .submit_tasks((0..WAVE).map(|_| TaskDescription::new("noop").cores(1)))
            .expect("wave");
        for handle in &handles {
            let state = handle.wait_final(Duration::from_secs(60)).expect("final");
            assert_eq!(state, TaskState::Done, "wave {wave}");
        }
    }
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    made as f64 / (WAVES * WAVE) as f64
}

#[test]
fn a_noop_task_stays_inside_its_allocation_budget() {
    // Nobody listens: no state message is built at all.
    let s = session();
    let quiet = allocations_per_task(&s);
    assert!(
        quiet <= BUDGET_PER_TASK,
        "{quiet:.1} allocations per task with no subscriber"
    );
    s.close();

    // Somebody listens, to something else: topics are matched before a message is
    // built, so task messages still are not.
    let s = session();
    let services = s.subscribe_updates(&["state.service"]);
    let unmatched = allocations_per_task(&s);
    assert!(
        unmatched <= BUDGET_PER_TASK,
        "{unmatched:.1} allocations per task with a state.service subscriber"
    );
    assert_eq!(services.pending(), 0);
    s.close();

    // Somebody listens to tasks: every frame arrives, and is the frame the eager
    // `Message::new(..).with_header(..)` path used to send.
    let s = session();
    let tasks = s.subscribe_updates(&["state.task"]);
    let handles = s
        .submit_tasks((0..WAVE).map(|_| TaskDescription::new("noop").cores(1)))
        .expect("wave");
    s.close();
    let frames = tasks.drain_frames();
    assert_eq!(frames.len(), 3 * WAVE, "three frames per task");
    for (handle, sent) in handles.iter().zip(frames.chunks(3)) {
        for (frame, state) in sent.iter().zip(["Scheduling", "Executing", "Done"]) {
            let mut eager = Message::new(format!("state.task.{state}"), "state.update")
                .with_header("entity", handle.id().to_string())
                .with_header("state", state);
            // Message ids count up process-wide; everything else must match to the byte.
            eager.id = Message::decode_view(frame).expect("a frame").id;
            assert_eq!(*frame, eager.encode());
        }
    }
}
