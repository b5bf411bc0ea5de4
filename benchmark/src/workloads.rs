//! The four closed-loop workloads. Each drives the production wiring — a session
//! built with nothing but platform, clock and seed, live metric sinks, derived shard
//! counts — from one driver thread, measures it from outside (spans around public
//! calls, handle timestamps, the session's own metric series, `/proc`) and checks
//! that what came out is right.
//!
//! Times read off the session clock (handle timestamps, response and bootstrap
//! components, `serving.queue.delay_secs`, stage reports) are divided by the
//! workload's `clock_div`: the clock scale on the three real-time workloads, 1 on
//! `hybrid_campaign`, which is priced in virtual time. Driver spans, `/proc` and the
//! scheduler's `*_wait_secs` / `drain_secs` series are real time everywhere.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hpcml_comm::pubsub::Subscriber;
use hpcml_runtime::describe::{PilotDescription, TaskDescription};
use hpcml_runtime::metrics::{
    RuntimeMetrics, C_COMMUNICATION, C_INFERENCE, C_INIT, C_LAUNCH, C_PUBLISH, C_SERVICE,
};
use hpcml_runtime::records::{PilotHandle, ServiceHandle, TaskHandle};
use hpcml_runtime::session::Session;
use hpcml_runtime::states::{ServiceState, TaskState};
use hpcml_sim::clock::ClockSpec;
use hpcml_workflows::dsl::PipelineRunner;

use crate::gen::{self, Sizes};
use crate::procfs;
use crate::report::Series;
use crate::trace::Tracer;

/// Real-time budget of any single wait; hitting it is a failure, not a result.
const WAIT: Duration = Duration::from_secs(120);
/// How long a pilot may take to show every slot free again once its tasks are final
/// (`Done` is observable on the handle just before the slot is released).
const QUIESCE: Duration = Duration::from_secs(2);

/// Every scalar series a session records, for the exact sample count of
/// `sim.metrics.samples_total` (`RuntimeMetrics` does not list its series).
const SCALAR_SERIES: [&str; 26] = [
    "client.error_replies",
    "client.shed_retries",
    "comm.fanout.width",
    "comm.publish.batch_size",
    "comm.queue.depth",
    "node.failure.victim_slots",
    "node.failures",
    "service.placement_wait_secs",
    "serving.batch.size",
    "serving.queue.delay_secs",
    "serving.queue.depth",
    "serving.replica.outstanding",
    "serving.shed",
    "staging.mib",
    "staging.secs",
    "task.admission.batch_size",
    "task.admission.shard_batch",
    "task.admission.shard_wakeups",
    "task.exec_secs",
    "task.gang.drain_secs",
    "task.gang.nodes",
    "task.gang.overtakes",
    "task.gang.partial_nodes",
    "task.gang.placement_wait_secs",
    "task.placement.shard_probes",
    "task.placement_wait_secs",
];

/// What a run has gathered so far.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Tasks, requests and services submitted; and how many of them (plus how many
    /// output checks) did not come out right. Warm-up counts too.
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    // End-to-end samples, from measured sessions without tracing.
    pub setup_s: Vec<f64>,
    pub teardown_s: Vec<f64>,
    /// `VmHWM` when the first session of this (fresh) process had closed and nothing
    /// had been harvested yet: one session's footprint, free of what the allocator
    /// keeps back from earlier sessions and from the driver's own copies.
    pub peak_rss_mib: Option<f64>,
    /// Operations per second of each wave / client phase / campaign.
    pub unit_rate: Vec<f64>,
    pub latency_ms: Vec<f64>,
    /// Real seconds per unit, without and with tracing, for `trace.overhead_pct`.
    pub unit_secs_plain: Vec<f64>,
    pub unit_secs_traced: Vec<f64>,
    /// Operations completed in measured sessions, for `process.cpu_us_per_op`.
    pub ops: u64,
    /// Per-layer samples, from measured sessions with tracing.
    pub series: Series,
}

/// Run state shared by the workloads.
pub struct Ctx {
    pub seed: u64,
    pub sizes: Sizes,
    /// Inference clients of `svc_roundtrip`: two, or one on a single-CPU host.
    pub clients: usize,
    pub tracer: Tracer,
    pub out: Outcome,
    /// False during warm-up: the session runs and is checked, its numbers are dropped.
    pub measuring: bool,
    /// This session records spans and per-layer samples.
    pub traced: bool,
}

impl Ctx {
    fn sampling(&self) -> bool {
        self.measuring && self.traced
    }

    fn layer(&mut self, series: &'static str, value: f64) {
        if self.sampling() {
            self.out.series.entry(series).or_default().push(value);
        }
    }

    fn layers(&mut self, series: &'static str, values: impl IntoIterator<Item = f64>) {
        if self.sampling() {
            self.out.series.entry(series).or_default().extend(values);
        }
    }

    fn attempt(&mut self, attempted: usize, failed: usize) {
        self.out.attempted += attempted as u64;
        self.out.failed += failed as u64;
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.out.failed += 1;
            if self.out.problems.len() < 20 {
                self.out.problems.push(what());
            }
        }
    }

    /// One finished unit of `ops` operations that took `real` seconds of wall time
    /// and `clocked` seconds on the workload's clock.
    fn unit(&mut self, ops: usize, real: Duration, clocked: f64) {
        if !self.measuring {
            return;
        }
        self.out.ops += ops as u64;
        if self.traced {
            self.out.unit_secs_traced.push(real.as_secs_f64());
        } else {
            self.out.unit_secs_plain.push(real.as_secs_f64());
            self.out.unit_rate.push(ops as f64 / clocked);
        }
    }

    fn latencies(&mut self, ms: impl IntoIterator<Item = f64>) {
        if self.measuring && !self.traced {
            self.out.latency_ms.extend(ms);
        }
    }

    fn setup(&mut self, took: Duration) {
        if self.measuring && !self.traced {
            self.out.setup_s.push(took.as_secs_f64());
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// An open session with its pilot.
struct Live {
    session: Session,
    pilot: PilotHandle,
    /// `build()` + `submit_pilot`.
    setup: Duration,
    /// Waiting the workload did for entities to wind down before `close`; counted
    /// as teardown.
    wind_down: Duration,
    free_cores: u32,
    idle_nodes: usize,
    /// Session-clock seconds per second of the workload's time base.
    clock_div: f64,
}

impl Live {
    fn open(
        ctx: &mut Ctx,
        name: &str,
        scale: f64,
        clock_div: f64,
        seed: u64,
        pilot: PilotDescription,
    ) -> Live {
        ctx.tracer.session += 1;
        ctx.tracer.recording = ctx.sampling();
        let (session, built) = ctx.tracer.timed("session.build", || {
            Session::builder(name)
                .platform(pilot.platform)
                .clock(ClockSpec::scaled(scale))
                .seed(seed)
                .build()
                .expect("a session builds from platform, clock and seed")
        });
        let (pilot, activated) = ctx.tracer.timed("session.submit_pilot", || {
            session
                .submit_pilot(pilot)
                .expect("the platform has the pilot's nodes free")
        });
        ctx.layer("session.build_us", us(built));
        ctx.layer("session.submit_pilot_us", us(activated));
        Live {
            free_cores: pilot.free_cores(),
            idle_nodes: pilot.idle_nodes(),
            session,
            pilot,
            setup: built + activated,
            wind_down: Duration::ZERO,
            clock_div,
        }
    }

    /// Wait for every slot to be back; false if one leaked.
    fn quiesced(&self) -> bool {
        let deadline = Instant::now() + QUIESCE;
        loop {
            if self.pilot.free_cores() == self.free_cores
                && self.pilot.idle_nodes() == self.idle_nodes
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Close the session, then read what a finished session can tell: the leak check,
    /// the metric series and — through `after` — what the workload harvests. Nothing
    /// is harvested before `close`, so the session's memory watermark is its own.
    fn close(self, ctx: &mut Ctx, after: impl FnOnce(&mut Ctx, &Live)) {
        let ((), took) = ctx.tracer.timed("session.close", || self.session.close());
        if ctx.measuring && !ctx.traced {
            ctx.out
                .teardown_s
                .push((self.wind_down + took).as_secs_f64());
        }
        ctx.out
            .peak_rss_mib
            .get_or_insert_with(procfs::peak_rss_mib);
        ctx.check(self.quiesced(), || {
            format!(
                "pilot ended with {} of {} cores and {} of {} nodes free",
                self.pilot.free_cores(),
                self.free_cores,
                self.pilot.idle_nodes(),
                self.idle_nodes
            )
        });
        let metrics = self.session.metrics();
        let shed = metrics.scalar_values("serving.shed").len();
        ctx.check(shed == 0, || format!("{shed} requests were shed"));
        after(ctx, &self);
        if ctx.sampling() {
            self.harvest_series(ctx, &metrics);
        }
        ctx.tracer.recording = false;
    }

    /// `[M]`: the session's own scalar series, read once the session is closed.
    fn harvest_series(&self, ctx: &mut Ctx, m: &RuntimeMetrics) {
        // (per-layer series, session series, unit factor, read off the session clock)
        const SERIES: [(&str, &str, f64, bool); 13] = [
            (
                "scheduler.placement_wait_us",
                "task.placement_wait_secs",
                1e6,
                false,
            ),
            (
                "scheduler.admission_batch",
                "task.admission.batch_size",
                1.0,
                false,
            ),
            (
                "scheduler.admission_shard_wakeups",
                "task.admission.shard_wakeups",
                1.0,
                false,
            ),
            (
                "scheduler.gang_wait_ms",
                "task.gang.placement_wait_secs",
                1e3,
                false,
            ),
            (
                "scheduler.gang_overtakes",
                "task.gang.overtakes",
                1.0,
                false,
            ),
            (
                "scheduler.gang_drain_ms",
                "task.gang.drain_secs",
                1e3,
                false,
            ),
            (
                "platform.batch.shard_probes",
                "task.placement.shard_probes",
                1.0,
                false,
            ),
            ("comm.pubsub.fanout_width", "comm.fanout.width", 1.0, false),
            ("serving.queue_depth", "serving.queue.depth", 1.0, false),
            (
                "serving.queue_delay_us",
                "serving.queue.delay_secs",
                1e6,
                true,
            ),
            ("serving.batch_size", "serving.batch.size", 1.0, false),
            (
                "serving.replica_outstanding",
                "serving.replica.outstanding",
                1.0,
                false,
            ),
            ("serving.shed", "serving.shed", 1.0, false),
        ];
        for (series, source, factor, clocked) in SERIES {
            let factor = if clocked {
                factor / self.clock_div
            } else {
                factor
            };
            ctx.layers(
                series,
                m.scalar_values(source).into_iter().map(|v| v * factor),
            );
        }
        for sample in m.bootstrap_samples() {
            let part = |c: &str| sample.component(c).unwrap_or(0.0) * 1e6 / self.clock_div;
            ctx.layer("platform.launcher.launch_us", part(C_LAUNCH));
            ctx.layer("serving.host.init_us", part(C_INIT));
            ctx.layer("comm.registry.publish_us", part(C_PUBLISH));
        }
        let lengths: Vec<usize> = SCALAR_SERIES
            .iter()
            .map(|name| m.scalar_values(name).len())
            .collect();
        let samples = lengths.iter().sum::<usize>() + m.response_count() + m.bootstrap_count();
        ctx.layer("sim.metrics.samples_total", samples as f64);
        ctx.layer(
            "sim.metrics.series_count",
            lengths.iter().filter(|n| **n > 0).count() as f64,
        );
    }

    /// `[T]`: where a task's time went, from its state timestamps. Returns
    /// submission-to-`Done` in the workload's milliseconds.
    fn task_times(&self, ctx: &mut Ctx, stamps: &BTreeMap<String, f64>) -> Option<f64> {
        let at = |state: &str| stamps.get(state).copied();
        let (new, done) = (at("New")?, at("Done")?);
        if ctx.sampling() {
            if let (Some(scheduling), Some(executing)) = (at("Scheduling"), at("Executing")) {
                let span_us = |from: f64, to: f64| (to - from) * 1e6 / self.clock_div;
                ctx.layer("executor.spawn_to_scheduling_us", span_us(new, scheduling));
                ctx.layer(
                    "scheduler.scheduling_to_executing_us",
                    span_us(scheduling, executing),
                );
                ctx.layer("executor.executing_to_done_us", span_us(executing, done));
            }
        }
        Some((done - new) * 1e3 / self.clock_div)
    }

    /// Response-time decomposition of every request the session served: the
    /// components per layer, the totals as the workload's latency, and the check that
    /// each of the `expected` requests left a sample.
    fn harvest_responses(&self, ctx: &mut Ctx, expected: usize) {
        let samples = self.session.metrics().response_samples();
        ctx.attempt(expected, expected.saturating_sub(samples.len()));
        ctx.check(samples.len() == expected, || {
            format!("{} response samples for {expected} requests", samples.len())
        });
        let to_us = 1e6 / self.clock_div;
        for (series, component) in [
            ("comm.reqrep.communication_us", C_COMMUNICATION),
            ("serving.service_us", C_SERVICE),
            ("serving.inference_us", C_INFERENCE),
        ] {
            ctx.layers(
                series,
                samples
                    .iter()
                    .map(|s| s.component(component).unwrap_or(0.0) * to_us),
            );
        }
        ctx.latencies(samples.iter().map(|s| s.total() * 1e3 / self.clock_div));
    }
}

/// Submit `tasks`, wait for every handle, and return the handles with the wall time
/// of the call to `submit_tasks` and of the whole unit.
fn submit_and_wait(
    ctx: &mut Ctx,
    live: &Live,
    tasks: Vec<TaskDescription>,
) -> Option<(Vec<TaskHandle>, Duration, Duration)> {
    let n = tasks.len();
    let start = Instant::now();
    let (handles, submit) = ctx
        .tracer
        .timed("session.submit_tasks", || live.session.submit_tasks(tasks));
    let handles = match handles {
        Ok(handles) => handles,
        Err(e) => {
            ctx.attempt(n, n);
            ctx.check(false, || format!("submit_tasks failed: {e}"));
            return None;
        }
    };
    if ctx.sampling() {
        ctx.layer("executor.threads_after_submit", procfs::threads() as f64);
    }
    let mut timeouts = 0;
    ctx.tracer.scope("handles.wait_final", |t| {
        for h in &handles {
            if t.detail("handle.wait_final", || h.wait_final(WAIT))
                .is_err()
            {
                timeouts += 1;
            }
        }
    });
    let wall = start.elapsed();
    let done = handles
        .iter()
        .filter(|h| h.state() == TaskState::Done)
        .count();
    ctx.attempt(n, n - done);
    ctx.check(timeouts == 0, || format!("{timeouts} task waits timed out"));
    Some((handles, submit, wall))
}

/// One wave of a task workload: submit, drain, check, and read the handles.
/// `ideal` is the real time a perfect packer needs, where the wave has one.
fn run_wave(ctx: &mut Ctx, live: &Live, wave: usize, tasks: Vec<TaskDescription>, ideal: f64) {
    ctx.tracer.wave = Some(wave);
    let n = tasks.len();
    if let Some((handles, submit, wall)) = submit_and_wait(ctx, live, tasks) {
        ctx.check(live.quiesced(), || format!("wave {wave} leaked a slot"));
        ctx.unit(n, wall, wall.as_secs_f64());
        ctx.layer("session.submit_tasks_us_per_task", us(submit) / n as f64);
        ctx.layer("session.drain_us_per_task", us(wall - submit) / n as f64);
        if ideal > 0.0 {
            ctx.layer(
                "scheduler.slot_idle_share",
                1.0 - ideal / wall.as_secs_f64(),
            );
        }
        let turnaround: Vec<f64> = handles
            .iter()
            .filter_map(|h| live.task_times(ctx, &h.timestamps()))
            .collect();
        ctx.latencies(turnaround);
    }
    ctx.tracer.wave = None;
}

/// `task_burst`: a bag of NOOP tasks on a pilot whose capacity never binds.
pub fn task_burst(ctx: &mut Ctx, _index: usize) {
    let wave = gen::burst_wave(&ctx.sizes);
    let live = Live::open(
        ctx,
        "task_burst",
        1000.0,
        1000.0,
        ctx.seed,
        gen::burst_pilot(),
    );
    ctx.setup(live.setup);
    for w in 0..ctx.sizes.burst_waves {
        run_wave(ctx, &live, w, wave.clone(), 0.0);
    }
    live.close(ctx, |_, _| {});
}

/// `task_queue`: 10 ms tasks and whole-node gangs queueing for 32 slots, with one
/// subscriber on the state bus.
pub fn task_queue(ctx: &mut Ctx, index: usize) {
    let waves: Vec<gen::QueueWave> = (0..ctx.sizes.queue_waves)
        .map(|w| gen::queue_wave(ctx.seed, index, w, &ctx.sizes))
        .collect();
    let tasks: usize = waves.iter().map(|w| w.tasks.len()).sum();
    let live = Live::open(
        ctx,
        "task_queue",
        1000.0,
        1000.0,
        ctx.seed,
        gen::queue_pilot(),
    );
    ctx.setup(live.setup);
    let updates: Subscriber = live.session.subscribe_updates(&["state.task"]);
    let mut delivered = 0;
    for (w, wave) in waves.into_iter().enumerate() {
        run_wave(ctx, &live, w, wave.tasks, wave.ideal_secs / live.clock_div);
        delivered += ctx
            .tracer
            .timed("subscriber.drain_frames", || updates.drain_frames().len())
            .0;
    }
    // `Done` shows on a handle before `state.task.Done` is published, so the count is
    // only checked once `close` has joined every task thread.
    live.close(ctx, |ctx, _| {
        delivered += updates.drain_frames().len();
        ctx.check(delivered == 3 * tasks, || {
            format!("{delivered} state.task messages for {tasks} tasks, expected 3 each")
        });
        ctx.layer(
            "comm.pubsub.delivered_per_task",
            delivered as f64 / tasks as f64,
        );
    });
}

/// `svc_roundtrip`: closed-loop clients against NOOP services — response time is pure
/// runtime overhead.
pub fn svc_roundtrip(ctx: &mut Ctx, _index: usize) {
    let services = gen::svc_services();
    let clients = gen::svc_clients(ctx.clients, &ctx.sizes);
    let requests = clients.len() * ctx.sizes.svc_requests_per_client as usize;
    let live = Live::open(
        ctx,
        "svc_roundtrip",
        1000.0,
        1000.0,
        ctx.seed,
        gen::svc_pilot(),
    );
    let (handles, ready) = ctx.tracer.timed("services.submit_and_wait_ready", || {
        let handles: Vec<Option<ServiceHandle>> = services
            .iter()
            .map(|s| live.session.submit_service(s.clone()).ok())
            .collect();
        for h in handles.iter().flatten() {
            let _ = h.wait_ready_timeout(WAIT);
        }
        handles
    });
    let up = handles
        .iter()
        .flatten()
        .filter(|h| h.state() == ServiceState::Ready)
        .count();
    ctx.attempt(services.len(), services.len() - up);
    ctx.setup(live.setup + ready);

    if let Some((handles, _, wall)) = submit_and_wait(ctx, &live, clients) {
        ctx.unit(requests, wall, wall.as_secs_f64());
        for h in &handles {
            live.task_times(ctx, &h.timestamps());
        }
    }
    live.close(ctx, |ctx, live| {
        live.harvest_responses(ctx, requests);
        // `requests_served` is written when a serve loop exits, i.e. after `close`.
        let served: Vec<u64> = services
            .iter()
            .filter_map(|s| live.session.service_manager().get(&s.name))
            .map(|record| *record.requests_served.lock())
            .collect();
        let (min, max) = (served.iter().min(), served.iter().max());
        if let (Some(min), Some(max)) = (min, max) {
            ctx.layer("serving.served_balance", *min as f64 / (*max).max(1) as f64);
        }
    });
}

/// `hybrid_campaign`: an MPI + prep stage, then LLM services, inference clients and
/// GPU fine-tuning sharing one pilot, run through the workflow layer and priced in
/// virtual time.
pub fn hybrid_campaign(ctx: &mut Ctx, index: usize) {
    let campaign = gen::campaign(ctx.seed, index, &ctx.sizes);
    let live = Live::open(
        ctx,
        "hybrid_campaign",
        100.0,
        1.0,
        campaign.session_seed,
        campaign.pilot,
    );
    ctx.setup(live.setup);
    let (report, wall) = ctx.tracer.timed("pipeline.run", || {
        PipelineRunner::new(&live.session)
            .stage_timeout(WAIT)
            .run(&campaign.pipeline)
    });
    let metrics = live.session.metrics();
    let services = campaign.pipeline.total_services();
    ctx.attempt(services, services.saturating_sub(metrics.bootstrap_count()));
    match report {
        Ok(report) => {
            let done = report.tasks_done();
            ctx.attempt(campaign.tasks, campaign.tasks.saturating_sub(done));
            // The stage barrier waits for the slowest of the services it brings up.
            let bootstrap = metrics
                .bootstrap_samples()
                .iter()
                .map(|s| s.total())
                .fold(0.0, f64::max);
            let ideal = campaign.ideal_task_secs + bootstrap;
            let makespan = report.total_secs;
            ctx.check((ideal..=1.5 * ideal).contains(&makespan), || {
                format!(
                    "makespan {makespan:.2} outside [{ideal:.2}, {:.2}] virtual s",
                    1.5 * ideal
                )
            });
            ctx.unit(done + metrics.response_count(), wall, makespan);
            ctx.layer("workflows.dsl.makespan_over_ideal", makespan / ideal);
            ctx.layer("scheduler.slot_idle_share", 1.0 - ideal / makespan);
            let stage = |name: &str| -> f64 {
                report
                    .stages
                    .iter()
                    .find(|s| s.name == name)
                    .map_or(0.0, |s| s.duration_secs)
            };
            let (simulate, learn) = (stage(gen::STAGE_SIMULATE), stage(gen::STAGE_LEARN_INFER));
            let to_us = 1e6 / live.clock_div;
            ctx.layer("workflows.dsl.stage_simulate_us", simulate * to_us);
            ctx.layer("workflows.dsl.stage_learn_infer_us", learn * to_us);
            ctx.layer(
                "workflows.dsl.stage_gap_us",
                (makespan - simulate - learn) * to_us,
            );
        }
        Err(e) => {
            ctx.attempt(campaign.tasks, campaign.tasks);
            ctx.check(false, || format!("pipeline failed: {e}"));
        }
    }
    // `close` right after `run` can find a service the runner has just told to stop
    // still registered but no longer serving, and then stalls on its stop request for
    // a few hundred milliseconds (README, hazards). Waiting for the services to finish
    // first keeps teardown steady; the wait is part of it.
    let manager = live.session.service_manager();
    let ((), wind_down) = ctx.tracer.timed("services.wait_final", || {
        for name in manager.names() {
            if let Some(record) = manager.get(&name) {
                let _ = record.state.wait_until(|s| s.is_final(), WAIT);
            }
        }
    });
    let requests = campaign.requests;
    Live { wind_down, ..live }.close(ctx, |ctx, live| {
        live.harvest_responses(ctx, requests);
        if ctx.sampling() {
            let tasks = live.session.task_manager();
            for id in tasks.ids() {
                if let Some(record) = tasks.get(&id) {
                    live.task_times(ctx, &record.state.timestamps());
                }
            }
        }
    });
}
