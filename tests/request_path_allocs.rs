//! The allocation and retention budget of the request path: what one NOOP inference
//! request costs the heap from the client loop's `InferenceRequest` to its recorded
//! response sample, what it leaves behind once answered, and that the samples read
//! back afterwards are the ones the eager `ComponentSample` store used to keep.
//!
//! Kept in a test binary of its own, with one test: the counting allocator is
//! process-wide, and a test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

use hpcml::prelude::*;
use hpcml::runtime::describe::ServiceSelector;
use hpcml::runtime::metrics::{C_COMMUNICATION, C_INFERENCE, C_SERVICE};
use hpcml::sim::dist::Dist;

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

const SERVICES: usize = 2;
const REQUESTS: u32 = 20_000;
/// Heap allocations one NOOP request may make, client loop to recorded sample.
/// Measured: 11.0 (debug and release) — topic, id header, payload (2) and header table
/// of the request message, its reply slot, the parsed request's three strings, the
/// reply's model name and header table — where a batch, its results and its responses
/// in a `Vec` or two each, a header table grown twice and a NOOP text copied per reply
/// made 19.0. The budget is the measurement + 2.
const ALLOCATIONS_PER_REQUEST: f64 = 13.0;
/// Live bytes one answered request may leave behind. What it must leave is 40: one
/// scalar record of 8 bytes (`serving.queue.delay_secs`) and one response row of 32
/// (the request's index and three components); the blocks that hold them add at most
/// one block of slack per series. Its four per-event widths and depths
/// (`serving.queue.depth`, `serving.batch.size`, `serving.replica.outstanding`,
/// `comm.queue.depth`) are value counts that grow only with a value not seen before.
/// Measured: 41.1 (debug and release), where those four as one 8-byte record each
/// left 74.1, and a `String`, a `Vec` and `Vec`-doubling slack per sample 254.4.
const RETAINED_BYTES_PER_REQUEST: f64 = 48.0;

#[test]
fn a_noop_request_stays_inside_its_allocation_and_retention_budget() {
    let s = Session::builder("request-allocs")
        .platform(PlatformId::Delta)
        .clock(ClockSpec::scaled(1000.0))
        .seed(20)
        .build()
        .expect("session");
    s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(4))
        .expect("pilot");
    let names: Vec<String> = (0..SERVICES).map(|i| format!("noop-{i}")).collect();
    let services: Vec<_> = names
        .iter()
        .map(|name| {
            s.submit_service(
                ServiceDescription::new(name.clone())
                    .model(ModelSpec::noop())
                    .cores(1),
            )
            .expect("service")
        })
        .collect();
    for service in &services {
        service
            .wait_ready_timeout(Duration::from_secs(120))
            .expect("ready");
    }

    let (allocations, live) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    );
    let client = s
        .submit_task(
            TaskDescription::new("client-0")
                .kind(TaskKind::InferenceClient {
                    selector: ServiceSelector::Named(names),
                    requests: REQUESTS,
                    prompt_words: 48,
                    max_tokens: 1,
                    think_time_secs: Dist::constant(0.0),
                })
                .cores(1),
        )
        .expect("client");
    let state = client.wait_final(Duration::from_secs(120)).expect("final");
    assert_eq!(state, TaskState::Done);
    let per_request = |made: f64| made / REQUESTS as f64;
    let allocations = per_request((ALLOCATIONS.load(Ordering::Relaxed) - allocations) as f64);
    let retained = per_request((LIVE_BYTES.load(Ordering::Relaxed) - live) as f64);
    eprintln!("{allocations:.1} allocations and {retained:.1} retained bytes per request");
    assert!(
        allocations <= ALLOCATIONS_PER_REQUEST,
        "{allocations:.1} allocations per request"
    );
    assert!(
        retained <= RETAINED_BYTES_PER_REQUEST,
        "{retained:.1} live bytes left per answered request"
    );

    // The samples are derived on read, and read as they always did: one per request,
    // named after it, with the paper's three components in order.
    let metrics = s.metrics();
    let samples = metrics.response_samples();
    assert_eq!(samples.len(), REQUESTS as usize);
    assert_eq!(metrics.response_count(), REQUESTS as usize);
    assert!(
        samples
            .windows(2)
            .all(|pair| pair[0].entity < pair[1].entity),
        "one client: its requests in the order it made them, each once"
    );
    for sample in &samples {
        let index = sample
            .entity
            .strip_prefix("request.")
            .expect("a request id");
        assert!(
            index.len() == 6 && index.bytes().all(|b| b.is_ascii_digit()),
            "{}",
            sample.entity
        );
        let names: Vec<&str> = sample.components.iter().map(|(n, _)| n.as_ref()).collect();
        assert_eq!(names, [C_COMMUNICATION, C_SERVICE, C_INFERENCE]);
        assert_eq!(sample.component(C_INFERENCE), Some(0.0), "NOOP");
        assert!(sample.component(C_COMMUNICATION).expect("recorded") > 0.0);
        assert!(sample.component(C_SERVICE).expect("recorded") > 0.0);
    }
    let summaries = metrics.response_summaries();
    assert_eq!(summaries[C_COMMUNICATION].count, REQUESTS as usize);
    assert_eq!(metrics.response_total_summary().count, REQUESTS as usize);
    s.close();
}
