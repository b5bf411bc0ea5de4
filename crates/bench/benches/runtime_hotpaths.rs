//! Micro-benchmarks of the runtime's hot paths: endpoint registry lookup, scheduler
//! allocate/release, NOOP request round trip, and statistics summarisation. These are the operations that sit on the critical path of every
//! figure in the paper's evaluation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use hpcml_comm::link::Link;
use hpcml_comm::message::Message;
use hpcml_comm::registry::EndpointRegistry;
use hpcml_comm::reqrep::ReqRepServer;
use hpcml_platform::batch::{AllocationRequest, BatchSystem};
use hpcml_platform::resources::ResourceRequest;
use hpcml_platform::PlatformId;
use hpcml_runtime::prelude::{PilotDescription, Session, TaskDescription};
use hpcml_runtime::scheduler::{Priority, Scheduler};
use hpcml_runtime::RuntimeMetrics;
use hpcml_sim::clock::ClockSpec;
use hpcml_sim::stats::Summary;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn bench_registry(c: &mut Criterion) {
    let registry = EndpointRegistry::new();
    let servers: Vec<ReqRepServer> = (0..64)
        .map(|i| ReqRepServer::new(format!("service.svc-{i:03}")))
        .collect();
    for s in &servers {
        registry
            .register(s.name().to_string(), s.handle(), BTreeMap::new())
            .unwrap();
    }
    c.bench_function("registry/lookup_64", |b| {
        b.iter(|| registry.lookup(black_box("service.svc-031")).unwrap())
    });
}

/// A Frontier-shaped platform spec widened to `nodes`, so the sweep can exceed the
/// catalog's node counts without touching the catalog.
fn wide_spec(nodes: usize) -> hpcml_platform::PlatformSpec {
    let mut spec = PlatformId::Frontier.spec();
    spec.num_nodes = nodes;
    spec
}

/// The acceptance criterion of the indexed allocator: allocate+release latency must be
/// flat (within 2×) from toy pilots to thousand-node pilots, where the old
/// linear-scan placement grew with node count.
fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/allocate_release");
    for nodes in [4usize, 256, 4096] {
        let batch = BatchSystem::new(wide_spec(nodes), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(nodes)).unwrap();
        // Pre-fill every node to just over half so placement works against realistic
        // mixed occupancy (an empty allocation would let even a linear scan stop at
        // node 0). Requesting cores/2 + 1 means a second such slot can never pack onto
        // an already-touched node, so each of the `nodes` slots lands on a distinct
        // node and no node is left idle or full.
        let spec = alloc.node_spec();
        let half_fill = ResourceRequest::cores(spec.cores / 2 + 1).unwrap();
        let held: Vec<_> = (0..nodes)
            .map(|_| alloc.allocate_slot(&half_fill).unwrap())
            .collect();
        assert_eq!(alloc.idle_nodes(), 0, "pre-fill must touch every node");
        let scheduler = Scheduler::new(alloc);
        let req = ResourceRequest::cores(4).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| {
                let slot = scheduler
                    .allocate(&req, Priority::Task, Duration::from_secs(1))
                    .unwrap();
                scheduler.release(&slot).unwrap();
            })
        });
        for slot in &held {
            scheduler.allocation().release_slot(slot).unwrap();
        }
    }
    group.finish();
}

/// Gang placement cost must be O(gang size), independent of the allocation's total
/// node count: a fixed 2-node gang claimed against a half-occupied allocation must be
/// flat (within 2×) across the same 4 → 4096 node sweep as `allocate_release`.
fn bench_gang_allocate(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/gang_allocate");
    for nodes in [4usize, 256, 4096] {
        let batch = BatchSystem::new(wide_spec(nodes), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(nodes)).unwrap();
        // Occupy half the nodes with single-node slots so the idle bucket is a real
        // subset (claiming from an all-idle allocation would hide index bookkeeping).
        let spec = alloc.node_spec();
        let half_fill = ResourceRequest::cores(spec.cores / 2 + 1).unwrap();
        let held: Vec<_> = (0..nodes / 2)
            .map(|_| alloc.allocate_slot(&half_fill).unwrap())
            .collect();
        assert_eq!(alloc.idle_nodes(), nodes - nodes / 2);
        let scheduler = Scheduler::new(alloc);
        // Whole-node ranks-per-node shape: all cores and GPUs of each member node.
        let req = ResourceRequest {
            cores: spec.cores,
            gpus: spec.gpus,
            mem_gib: 0.0,
            nodes: 2,
            packing: None,
        };
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| {
                let slot = scheduler
                    .allocate(&req, Priority::Task, Duration::from_secs(1))
                    .unwrap();
                scheduler.release(&slot).unwrap();
            })
        });
        for slot in &held {
            scheduler.allocation().release_slot(slot).unwrap();
        }
    }
    group.finish();
}

/// Partial-packing gang placement must stay O(gang size + GPU levels), independent
/// of the allocation's total node count: a 2-node gang of *half-node members*
/// best-fit onto a 50%-loaded allocation (every node carries a resident slot, so no
/// node is idle and every claim goes through `find_fit`, not the idle bucket) must
/// be flat (within 2×) across the same 4 → 4096 node sweep, guarded like
/// `gang_allocate`.
fn bench_gang_partial(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/gang_partial");
    for nodes in [4usize, 256, 4096] {
        let batch = BatchSystem::new(wide_spec(nodes), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(nodes)).unwrap();
        let spec = alloc.node_spec();
        // Load every node to just over half (cores/2 + 1 cannot pack twice onto one
        // node), so the allocation is ~50% occupied with zero idle nodes and the
        // member share below must co-locate beside a resident on every claim.
        let half_fill = ResourceRequest::cores(spec.cores / 2 + 1).unwrap();
        let held: Vec<_> = (0..nodes)
            .map(|_| alloc.allocate_slot(&half_fill).unwrap())
            .collect();
        assert_eq!(alloc.idle_nodes(), 0, "load must touch every node");
        let scheduler = Scheduler::new(alloc);
        // Half-node member share (what fits beside the resident), Partial packing by
        // default: every member lands co-resident.
        let req = ResourceRequest::cores(spec.cores / 2 - 1)
            .unwrap()
            .with_nodes(2);
        let probe = scheduler
            .allocate(&req, Priority::Task, Duration::from_secs(1))
            .unwrap();
        assert_eq!(probe.partial_nodes(), 2, "members must be co-resident");
        scheduler.release(&probe).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| {
                let slot = scheduler
                    .allocate(&req, Priority::Task, Duration::from_secs(1))
                    .unwrap();
                scheduler.release(&slot).unwrap();
            })
        });
        for slot in &held {
            scheduler.allocation().release_slot(slot).unwrap();
        }
    }
    group.finish();
}

/// Backfill-reservation cycle cost must be O(gang size + pinned nodes), independent
/// of the allocation's total node count: open a drain (pinning the two idle nodes),
/// place the gang through the reservation, release it — flat (within 2×) across the
/// same 4 → 4096 node sweep, guarded like `gang_allocate`.
fn bench_gang_backfill(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/gang_backfill");
    for nodes in [4usize, 256, 4096] {
        let batch = BatchSystem::new(wide_spec(nodes), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(nodes)).unwrap();
        let spec = alloc.node_spec();
        // Occupy all but two nodes so the reservation works against a full index and
        // must pin exactly the two idle nodes each cycle.
        let half_fill = ResourceRequest::cores(spec.cores / 2 + 1).unwrap();
        let held: Vec<_> = (0..nodes - 2)
            .map(|_| alloc.allocate_slot(&half_fill).unwrap())
            .collect();
        assert_eq!(alloc.idle_nodes(), 2);
        let req = ResourceRequest {
            cores: spec.cores,
            gpus: spec.gpus,
            mem_gib: 0.0,
            nodes: 2,
            packing: None,
        };
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| {
                let id = alloc.begin_drain(&req).unwrap();
                let slot = alloc.allocate_reserved(id, &req).unwrap();
                alloc.release_slot(&slot).unwrap();
            })
        });
        for slot in &held {
            alloc.release_slot(slot).unwrap();
        }
    }
    group.finish();
}

/// Pilot-elasticity hot path: one `expand(1)` + `shrink(1)` cycle against a fully
/// loaded allocation, swept across allocation width. Every node carries a resident
/// slot, so the freshly appended node is the only idle one and each shrink retires
/// exactly it — the cycle is stationary (retired entries accumulate but the
/// no-failure shrink path never scans them). Recorded as a trajectory datapoint in
/// `BENCH_scheduler.json`; not flatness-guarded.
fn bench_resize(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/resize");
    for nodes in [4usize, 256, 4096] {
        let batch = BatchSystem::new(wide_spec(nodes), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(nodes)).unwrap();
        let spec = alloc.node_spec();
        let half_fill = ResourceRequest::cores(spec.cores / 2 + 1).unwrap();
        let held: Vec<_> = (0..nodes)
            .map(|_| alloc.allocate_slot(&half_fill).unwrap())
            .collect();
        assert_eq!(alloc.idle_nodes(), 0, "pre-fill must touch every node");
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| {
                alloc.expand(1).unwrap();
                alloc.shrink(1).unwrap();
            })
        });
        for slot in &held {
            alloc.release_slot(slot).unwrap();
        }
    }
    group.finish();
}

/// Multi-thread allocate/release churn on a 256-node allocation, swept across
/// thread counts (1/2/4/8/16). Capacity always exceeds demand, so every allocation
/// takes the queueless fast path; parked-waiter wakeups are measured separately by
/// `bench_scheduler_waitqueue`.
fn bench_scheduler_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/churn");
    group.sample_size(10);
    const NODES: usize = 256;
    // High enough that per-iteration thread spawn/join overhead does not dilute
    // the lock-contention signal.
    const OPS_PER_THREAD: usize = 1024;
    for threads in [1usize, 2, 4, 8, 16] {
        let batch = BatchSystem::new(wide_spec(NODES), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(NODES)).unwrap();
        let scheduler = Arc::new(Scheduler::new(alloc));
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut handles = Vec::new();
                    for _ in 0..threads {
                        let s = Arc::clone(&scheduler);
                        handles.push(std::thread::spawn(move || {
                            let req = ResourceRequest::cores(4).unwrap();
                            for _ in 0..OPS_PER_THREAD {
                                let slot = s
                                    .allocate(&req, Priority::Task, Duration::from_secs(10))
                                    .unwrap();
                                s.release(&slot).unwrap();
                            }
                        }));
                    }
                    for h in handles {
                        h.join().unwrap();
                    }
                })
            },
        );
    }
    group.finish();
}

/// Oversubscribed wait-queue churn: demand permanently exceeds capacity, so threads
/// genuinely park and every release performs a targeted head wakeup. This is the bench
/// that would catch a regression in the parked-waiter wake path.
fn bench_scheduler_waitqueue(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/contended_waitqueue");
    group.sample_size(10);
    // 2 Frontier nodes = 128 cores; 8 threads x 48 cores demand 384 — at most two
    // slots fit concurrently, so ~6 threads are parked at any instant.
    let batch = BatchSystem::new(wide_spec(2), ClockSpec::Manual.build(), 1);
    let alloc = batch.submit(AllocationRequest::nodes(2)).unwrap();
    let scheduler = Arc::new(Scheduler::new(alloc));
    group.bench_function("8_threads_48_cores", |b| {
        b.iter(|| {
            let mut handles = Vec::new();
            for _ in 0..8 {
                let s = Arc::clone(&scheduler);
                handles.push(std::thread::spawn(move || {
                    let req = ResourceRequest::cores(48).unwrap();
                    for _ in 0..32 {
                        let slot = s
                            .allocate(&req, Priority::Task, Duration::from_secs(30))
                            .unwrap();
                        s.release(&slot).unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        })
    });
    group.finish();
}

fn bench_noop_roundtrip(c: &mut Criterion) {
    let clock = ClockSpec::scaled(1000.0).build();
    let server = ReqRepServer::new("svc.bench");
    let client = server.client(Link::instant(Arc::clone(&clock)));
    let server_thread = std::thread::spawn(move || {
        while let Ok((msg, responder)) = server.recv_timeout(Duration::from_secs(5)) {
            if msg.kind == "stop" {
                let _ = responder.reply(Message::new("svc.bench", "bye"));
                break;
            }
            let _ = responder.reply(Message::new("svc.bench", "reply"));
        }
    });
    c.bench_function("reqrep/noop_roundtrip", |b| {
        b.iter(|| client.request(Message::new("svc.bench", "ping")).unwrap())
    });
    let _ = client.request(Message::new("svc.bench", "stop"));
    let _ = server_thread.join();
}

/// What a scalar record costs with 1, 2 and 16 threads recording at once into one live
/// `RuntimeMetrics` (the series mix of a task and a request): 16 is more recorders
/// than the registry has stripes, the paper's 16-client sweep. An iteration is every
/// thread making `RECORDS_PER_THREAD` records, thread spawn and join included.
fn bench_metrics_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics/record_scalar");
    group.sample_size(10);
    const RECORDS_PER_THREAD: usize = 20_000;
    const SERIES: [&str; 6] = [
        "task.placement_wait_secs",
        "task.gang.overtakes",
        "task.exec_secs",
        "comm.fanout.width",
        "serving.queue.depth",
        "comm.queue.depth",
    ];
    for threads in [1usize, 2, 16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let metrics = RuntimeMetrics::new();
                    std::thread::scope(|s| {
                        for _ in 0..threads {
                            s.spawn(|| {
                                for i in 0..RECORDS_PER_THREAD {
                                    metrics.record_scalar(SERIES[i % SERIES.len()], i as f64);
                                }
                            });
                        }
                    });
                    black_box(metrics.scalar_values(SERIES[0]).len())
                })
            },
        );
    }
    group.finish();
}

/// What one read of the session clock costs on this host: `real` is `clock_gettime`
/// behind an `Arc<dyn Clock>`, `scaled` adds the scaling — every timestamp a task
/// publishes is one of these.
fn bench_clock_now(c: &mut Criterion) {
    let mut group = c.benchmark_group("clock/now");
    for (name, spec) in [
        ("real", ClockSpec::Real),
        ("scaled", ClockSpec::scaled(1000.0)),
    ] {
        let clock = spec.build();
        group.bench_function(name, |b| b.iter(|| black_box(clock.now())));
    }
    group.finish();
}

/// The `task_burst` wave of the repo benchmark without its harness: 2 000 1-core NOOP
/// tasks submitted at once to a 64-node pilot that never fills, each handle then waited
/// for. Divide by 2 000 for what a NOOP task costs from `submit_tasks` to `wait_final`.
fn bench_noop_wave(c: &mut Criterion) {
    const WAVE: usize = 2000;
    let session = Session::builder("noop-wave")
        .platform(PlatformId::Frontier)
        .clock(ClockSpec::scaled(1000.0))
        .seed(42)
        .build()
        .expect("session");
    session
        .submit_pilot(PilotDescription::new(PlatformId::Frontier).nodes(64))
        .expect("pilot");
    let wave: Vec<TaskDescription> = (0..WAVE)
        .map(|i| TaskDescription::new(format!("burst-{i}")).cores(1))
        .collect();
    let mut group = c.benchmark_group("task/noop_wave");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter(WAVE), |b| {
        b.iter(|| {
            let handles = session.submit_tasks(wave.clone()).expect("wave");
            for handle in &handles {
                handle.wait_final(Duration::from_secs(60)).expect("final");
            }
            black_box(handles.len())
        })
    });
    group.finish();
    session.close();
}

fn bench_stats(c: &mut Criterion) {
    let samples: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.37).sin().abs()).collect();
    c.bench_function("stats/summary_4096", |b| {
        b.iter(|| Summary::from_slice(black_box(&samples)))
    });
}

criterion_group!(
    benches,
    bench_registry,
    bench_scheduler,
    bench_gang_allocate,
    bench_gang_partial,
    bench_gang_backfill,
    bench_resize,
    bench_scheduler_churn,
    bench_scheduler_waitqueue,
    bench_noop_roundtrip,
    bench_metrics_record,
    bench_clock_now,
    bench_noop_wave,
    bench_stats
);
criterion_main!(benches);
