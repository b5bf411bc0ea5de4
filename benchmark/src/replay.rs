//! `[R]` probes: single-threaded replays of each layer's stable public functions, in
//! isolation (no session, null sinks), so a layer's own cost can be set against the
//! end-to-end per-task cost. README lists the functions called here; a change that
//! must alter one of them needs a benchmark issue first.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpcml_comm::message::Message;
use hpcml_comm::pubsub::Publisher;
use hpcml_comm::registry::EndpointRegistry;
use hpcml_comm::reqrep::ReqRepServer;
use hpcml_platform::batch::{AllocationRequest, BatchSystem};
use hpcml_platform::{PlatformId, ResourceRequest};
use hpcml_runtime::describe::TaskDescription;
use hpcml_runtime::metrics::RuntimeMetrics;
use hpcml_runtime::records::TaskRecord;
use hpcml_runtime::scheduler::{Priority, Scheduler};
use hpcml_runtime::states::TaskState;
use hpcml_sim::clock::ClockSpec;

use crate::gen;
use crate::stats;
use crate::trace::Tracer;

/// Real sleep the clock probe asks for (10 virtual seconds at scale 1000).
const SLEEP_PROBE: Duration = Duration::from_millis(10);

/// Series a task and a request record into, in the mix a session sees them.
const RECORD_SERIES: [&str; 6] = [
    "task.placement_wait_secs",
    "task.placement.shard_probes",
    "task.exec_secs",
    "comm.fanout.width",
    "serving.queue.depth",
    "comm.queue.depth",
];

fn ns_per_op(ops: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64
}

/// Run every replay; returns `(metric name, value)` pairs.
pub fn run_all(tracer: &mut Tracer, ops: usize) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let clock = ClockSpec::scaled(1000.0).build();

    // platform.batch: BatchSystem::submit of the task_burst pilot, and
    // Allocation::{allocate_slot, release_slot} for a 1-core slot and a 2-node gang.
    let batch = BatchSystem::new(PlatformId::Frontier.spec(), Arc::clone(&clock), 1);
    let submits = (ops / 500).max(10);
    let (ns, _) = tracer.timed("replay.platform.batch.submit", || {
        ns_per_op(submits, || {
            for _ in 0..submits {
                let alloc = batch
                    .submit(AllocationRequest::nodes(gen::BURST_PILOT_NODES))
                    .expect("Frontier has 64 free nodes");
                batch.release(black_box(&alloc));
            }
        })
    });
    out.push(("platform.batch.submit_us", ns / 1e3));

    let alloc = batch
        .submit(AllocationRequest::nodes(gen::BURST_PILOT_NODES))
        .expect("Frontier has 64 free nodes");
    let one_core = ResourceRequest::cores(1).expect("non-empty request");
    let (ns, _) = tracer.timed("replay.platform.batch.alloc_release", || {
        ns_per_op(ops, || {
            for _ in 0..ops {
                let slot = alloc.allocate_slot(&one_core).expect("idle allocation");
                alloc.release_slot(black_box(&slot)).expect("live slot");
            }
        })
    });
    out.push(("platform.batch.alloc_release_ns", ns));

    let delta = BatchSystem::new(PlatformId::Delta.spec(), Arc::clone(&clock), 1);
    let delta_alloc = delta
        .submit(AllocationRequest::nodes(gen::QUEUE_PILOT_NODES))
        .expect("Delta has 8 free nodes");
    let gang = ResourceRequest::cores(gen::DELTA_NODE_CORES)
        .expect("non-empty request")
        .with_nodes(2);
    let (ns, _) = tracer.timed("replay.platform.batch.gang_alloc_release", || {
        ns_per_op(ops, || {
            for _ in 0..ops {
                let slot = delta_alloc.allocate_slot(&gang).expect("idle allocation");
                delta_alloc
                    .release_slot(black_box(&slot))
                    .expect("live slot");
            }
        })
    });
    out.push(("platform.batch.gang_alloc_release_ns", ns));

    // scheduler: Scheduler::{new, allocate, release}, uncontended.
    let scheduler = Scheduler::new(Arc::clone(&alloc));
    let (ns, _) = tracer.timed("replay.scheduler.alloc_release", || {
        ns_per_op(ops, || {
            for _ in 0..ops {
                let slot = scheduler
                    .allocate(&one_core, Priority::Task, Duration::from_secs(1))
                    .expect("idle allocation");
                scheduler.release(black_box(&slot)).expect("live slot");
            }
        })
    });
    out.push(("scheduler.alloc_release_ns", ns));

    // records: TaskRecord::new + New → Scheduling → Executing → Done.
    let description = TaskDescription::new("burst-0").cores(1);
    let (ns, _) = tracer.timed("replay.records.transition", || {
        ns_per_op(ops, || {
            for _ in 0..ops {
                let record = TaskRecord::new(
                    "task.000000".to_string(),
                    description.clone(),
                    PlatformId::Frontier,
                    Arc::clone(&clock),
                );
                for next in [TaskState::Scheduling, TaskState::Executing, TaskState::Done] {
                    record.state.transition(next).expect("legal transition");
                }
                black_box(&record);
            }
        })
    });
    out.push(("records.transition_ns", ns));

    // comm.pubsub: Publisher::{new, subscribe, publish} of one state message.
    let message = Message::new("state.task.Done", "state.update")
        .with_header("entity", "task.000000")
        .with_header("state", "Done");
    let publisher = Publisher::new();
    let (ns, _) = tracer.timed("replay.comm.pubsub.publish0", || {
        ns_per_op(ops, || {
            for _ in 0..ops {
                black_box(publisher.publish(&message));
            }
        })
    });
    out.push(("comm.pubsub.publish0_ns", ns));
    let subscriber = publisher.subscribe(&["state.task"]);
    let (ns, _) = tracer.timed("replay.comm.pubsub.publish1", || {
        ns_per_op(ops, || {
            for i in 0..ops {
                black_box(publisher.publish(&message));
                if i % 1024 == 1023 {
                    black_box(subscriber.drain_frames());
                }
            }
        })
    });
    out.push(("comm.pubsub.publish1_ns", ns));
    drop(subscriber);

    // comm.registry: EndpointRegistry::{register, lookup, unregister} beside the four
    // endpoints a campaign holds. (The registry copies its snapshot on every write,
    // so the entry is removed again rather than left to grow the map.)
    let registry = EndpointRegistry::new();
    let servers: Vec<ReqRepServer> = (0..5)
        .map(|i| ReqRepServer::new(format!("service.llm-{i}")))
        .collect();
    for s in &servers[..4] {
        registry
            .register(s.name().to_string(), s.handle(), BTreeMap::new())
            .expect("fresh name");
    }
    let name = servers[4].name().to_string();
    let handle = servers[4].handle();
    let registry_ops = (ops / 5).max(10);
    let (ns, _) = tracer.timed("replay.comm.registry.register_lookup", || {
        ns_per_op(registry_ops, || {
            for _ in 0..registry_ops {
                registry
                    .register(name.clone(), handle.clone(), BTreeMap::new())
                    .expect("fresh name");
                black_box(registry.lookup(&name));
                registry.unregister(&name);
            }
        })
    });
    out.push(("comm.registry.register_lookup_ns", ns));

    // sim.metrics: RuntimeMetrics::record_scalar into a live registry, from one
    // thread and from two at once (time per record as each thread sees it).
    let metrics = RuntimeMetrics::new();
    let record_loop = |metrics: &RuntimeMetrics| {
        for i in 0..ops {
            metrics.record_scalar(RECORD_SERIES[i % RECORD_SERIES.len()], i as f64);
        }
    };
    let (ns, _) = tracer.timed("replay.sim.metrics.record", || {
        ns_per_op(ops, || record_loop(&metrics))
    });
    out.push(("sim.metrics.record_ns", ns));
    let metrics = RuntimeMetrics::new();
    let (ns, _) = tracer.timed("replay.sim.metrics.record_contended", || {
        ns_per_op(ops, || {
            std::thread::scope(|s| {
                s.spawn(|| record_loop(&metrics));
                record_loop(&metrics);
            })
        })
    });
    out.push(("sim.metrics.record_contended_ns", ns));

    // sim.clock: how late Clock::sleep returns from a 10 ms real sleep.
    let sleeps = (ops / 1000).clamp(5, 100);
    let virtual_sleep = SLEEP_PROBE.mul_f64(clock.scale());
    let ((), _) = tracer.timed("replay.sim.clock.sleep", || {
        let overshoot_us: Vec<f64> = (0..sleeps)
            .map(|_| {
                let start = Instant::now();
                clock.sleep(virtual_sleep);
                (start.elapsed().as_secs_f64() - SLEEP_PROBE.as_secs_f64()) * 1e6
            })
            .collect();
        out.push((
            "sim.clock.sleep_overshoot_us_p50",
            stats::median(&overshoot_us),
        ));
        out.push((
            "sim.clock.sleep_overshoot_us_p99",
            stats::quantile(&overshoot_us, 0.99),
        ));
    });

    // executor reference: what a wave of bare named OS threads costs per thread,
    // spawned by one caller and joined afterwards, as the executor does.
    let wave = (ops / 50).max(10);
    let rounds = 5;
    let (ns, _) = tracer.timed("replay.executor.thread_spawn_ref", || {
        ns_per_op(wave * rounds, || {
            for _ in 0..rounds {
                let handles: Vec<_> = (0..wave)
                    .map(|i| {
                        std::thread::Builder::new()
                            .name(format!("task.{i:06}"))
                            .spawn(move || {
                                black_box(i);
                            })
                            .expect("thread spawn")
                    })
                    .collect();
                for h in handles {
                    h.join().expect("reference thread");
                }
            }
        })
    });
    out.push(("executor.thread_spawn_ref_us", ns / 1e3));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_replay_reports_a_positive_finite_cost() {
        let mut tracer = Tracer::new();
        tracer.recording = true;
        let results = run_all(&mut tracer, 200);
        assert_eq!(results.len(), 13);
        for (name, value) in &results {
            assert!(value.is_finite(), "{name} = {value}");
            // A sleep may return a hair early; every other probe is a positive cost.
            if !name.starts_with("sim.clock") {
                assert!(*value > 0.0, "{name} = {value}");
            }
        }
        assert_eq!(tracer.spans().len(), 12, "one span per replay");
    }
}
