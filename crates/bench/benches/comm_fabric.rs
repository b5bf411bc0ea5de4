//! Comm-fabric benchmark family: zero-copy fan-out vs per-subscriber cloning, and
//! registry lookup under registration churn.
//!
//! Every point measures nanoseconds of CPU work per operation. The fan-out comparison
//! is allocation-bound, so the encode-once/clone-each ratio holds on any host
//! regardless of core count.
//!
//! All results print in the harness line format (`name  time: [...]`) consumed by
//! `scripts/bench_guard.sh` and recorded in `BENCH_comm.json`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hpcml_comm::message::Message;
use hpcml_comm::pubsub::Publisher;
use hpcml_comm::registry::EndpointRegistry;
use hpcml_comm::reqrep::ReqRepServer;

/// Print one result in the bench harness line format (same shape as the criterion
/// shim: `name  time: [  value unit/iter]  samples: N`).
fn report(name: &str, secs_per_iter: f64, samples: usize) {
    let (scaled, unit) = if secs_per_iter < 1e-6 {
        (secs_per_iter * 1e9, "ns")
    } else if secs_per_iter < 1e-3 {
        (secs_per_iter * 1e6, "µs")
    } else {
        (secs_per_iter * 1e3, "ms")
    };
    println!("{name:<48} time: [{scaled:9.2} {unit}/iter]  samples: {samples}");
}

/// A representative state-update message: the header set a runtime state transition
/// carries (entity, states, placement, stamps) plus a ~1 KiB body. What a real update
/// only knows at run time — the entity, its states, where it runs — is built at run
/// time here too (`format!`), so the message owns those strings and `clone()` copies
/// them; only names that are constants of the sending code are borrowed.
fn update_message() -> Message {
    let (task, pilot, node) = (42, 1, 7);
    Message::new(format!("state.task.{}", "running"), "state.update")
        .with_header("entity", format!("task.{task:06}"))
        .with_header("state", format!("AGENT_{}", "EXECUTING"))
        .with_header("prev_state", format!("AGENT_{}", "SCHEDULING"))
        .with_header("pilot", format!("pilot.{pilot:04}"))
        .with_header("node", format!("frontier-c12n{node:02}"))
        .with_header("session", format!("session.{}", "bench"))
        .with_f64_header("at", 123.456)
        .with_f64_header("queued_at", 122.789)
        .with_text(&"task state payload ".repeat(54))
}

/// Zero-copy fan-out: encode once, hand the same frozen frame to all N subscribers.
fn bench_fanout_encode_once(subscribers: usize, iters: usize) -> f64 {
    let publisher = Publisher::new();
    let subs: Vec<_> = (0..subscribers)
        .map(|_| publisher.subscribe(&["state."]))
        .collect();
    let msg = update_message();
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let t0 = Instant::now();
        let delivered = publisher.publish(&msg);
        total += t0.elapsed();
        assert_eq!(delivered, subscribers);
        // Drain outside the timed window so queue growth never skews later iterations.
        for sub in &subs {
            sub.drain_frames();
        }
    }
    total.as_secs_f64() / iters as f64
}

/// The pre-fabric baseline, reconstructed: deep-clone the `Message` once per
/// subscriber and queue the owned copies — N clones instead of one encode. Each queue
/// has the shape of a subscriber's inbox (a locked `VecDeque`), so the two points
/// differ in what they deliver, not in how they queue it.
fn bench_fanout_clone_each(subscribers: usize, iters: usize) -> f64 {
    let queues: Vec<Mutex<VecDeque<Message>>> = (0..subscribers)
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    let msg = update_message();
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let t0 = Instant::now();
        for queue in &queues {
            queue.lock().unwrap().push_back(msg.clone());
        }
        total += t0.elapsed();
        for queue in &queues {
            queue.lock().unwrap().clear();
        }
    }
    total.as_secs_f64() / iters as f64
}

/// Registry lookups racing registration churn on other names.
fn bench_registry_lookup_churn(iters: usize) -> f64 {
    let registry = Arc::new(EndpointRegistry::new());
    let servers: Vec<ReqRepServer> = (0..64)
        .map(|i| ReqRepServer::new(format!("service.svc-{i:03}")))
        .collect();
    for s in &servers {
        registry
            .register(s.name().to_string(), s.handle(), BTreeMap::new())
            .unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let name = format!("service.churn-{}", i % 32);
                let server = ReqRepServer::new(name.clone());
                let _ = registry.register(name.clone(), server.handle(), BTreeMap::new());
                let _ = registry.unregister(&name);
                i += 1;
                thread::yield_now();
            }
        })
    };
    let t0 = Instant::now();
    for i in 0..iters {
        let name = format!("service.svc-{:03}", i % 64);
        assert!(registry.lookup(&name).is_some());
    }
    let per_iter = t0.elapsed().as_secs_f64() / iters as f64;
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
    per_iter
}

fn main() {
    // Fan-out sweep: the encode-once path must beat the clone-per-subscriber
    // baseline, and the gap must widen with subscriber count. Each point is the
    // median of seven alternating runs a side, so that a host hiccup or speed phase
    // moves neither number: the guard bounds their ratio.
    const FANOUT_ITERS: usize = 400;
    const FANOUT_RUNS: usize = 7;
    let mut points = Vec::new();
    for subscribers in [1usize, 8, 64] {
        let (mut once, mut each) = (Vec::new(), Vec::new());
        for _ in 0..FANOUT_RUNS {
            once.push(bench_fanout_encode_once(subscribers, FANOUT_ITERS));
            each.push(bench_fanout_clone_each(subscribers, FANOUT_ITERS));
        }
        for (name, mut runs) in [("encode_once", once), ("clone_each", each)] {
            runs.sort_by(f64::total_cmp);
            points.push((name, subscribers, runs[FANOUT_RUNS / 2]));
        }
    }
    points.sort_by_key(|(name, ..)| *name != "encode_once");
    for (name, subscribers, secs) in points {
        let samples = FANOUT_RUNS * FANOUT_ITERS;
        report(&format!("comm/fanout/{name}/{subscribers}"), secs, samples);
    }

    // Registry lookups stay fast while churn hammers registration on other names.
    const LOOKUP_ITERS: usize = 50_000;
    report(
        "comm/registry/lookup_churn",
        bench_registry_lookup_churn(LOOKUP_ITERS),
        LOOKUP_ITERS,
    );
}
