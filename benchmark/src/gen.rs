//! Seeded input generator, kept apart from the system under test: it emits plain
//! `PilotDescription` / `TaskDescription` / `ServiceDescription` / `Pipeline` values
//! plus the ideal time the generated mix needs, and never touches a `Session`.
//! Sizes are counts, so two commits driven by the same seed do the same work per wave,
//! session and campaign; only the number of repetitions follows `--seconds`.

use hpcml_platform::PlatformId;
use hpcml_runtime::describe::{
    PilotDescription, ServiceDescription, ServiceSelector, TaskDescription, TaskKind,
};
use hpcml_serving::ModelSpec;
use hpcml_sim::dist::Dist;
use hpcml_workflows::dsl::{Pipeline, Stage};

/// Cores and GPUs of a Delta node (asserted against the platform catalog in the tests;
/// the ideal-time arithmetic below must not silently follow a catalog edit).
pub const DELTA_NODE_CORES: u32 = 64;
pub const DELTA_NODE_GPUS: u32 = 4;

/// One session must stay well under the ≈32 000 entities at which a session runs out
/// of memory maps (see README, hazards).
#[cfg(test)]
pub const MAX_TASKS_PER_SESSION: usize = 16_000;

/// SplitMix64: the generator's own PRNG, so generated inputs do not change when the
/// repository's `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at these sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// How much work one wave / session / campaign holds. `full()` is the benchmark;
/// `smoke()` is one twentieth of it for a seconds-long local check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    pub burst_wave: usize,
    pub burst_waves: usize,
    pub queue_wave: usize,
    pub queue_waves: usize,
    pub svc_requests_per_client: u32,
    pub campaign_finetune_tasks: usize,
    pub campaign_requests_per_client: u32,
    pub replay_ops: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            burst_wave: 2000,
            burst_waves: 8,
            queue_wave: 1000,
            queue_waves: 4,
            svc_requests_per_client: 30_000,
            campaign_finetune_tasks: 48,
            campaign_requests_per_client: 16,
            replay_ops: 100_000,
        }
    }

    pub fn smoke() -> Self {
        Sizes {
            burst_wave: 100,
            burst_waves: 2,
            queue_wave: 64,
            queue_waves: 2,
            svc_requests_per_client: 1500,
            campaign_finetune_tasks: 12,
            campaign_requests_per_client: 4,
            replay_ops: 5000,
        }
    }
}

// ------------------------------------------------------------------ task_burst

pub const BURST_PILOT_NODES: usize = 64;

pub fn burst_pilot() -> PilotDescription {
    PilotDescription::new(PlatformId::Frontier).nodes(BURST_PILOT_NODES)
}

/// One wave of 1-core NOOP tasks. Every wave is the same: nothing about a NOOP bag
/// of tasks depends on the seed.
pub fn burst_wave(sizes: &Sizes) -> Vec<TaskDescription> {
    (0..sizes.burst_wave)
        .map(|i| TaskDescription::new(format!("burst-{i}")).cores(1))
        .collect()
}

// ------------------------------------------------------------------ task_queue

pub const QUEUE_PILOT_NODES: usize = 8;
const QUEUE_TASK_CORES: u32 = 16;
const QUEUE_TASK_SECS: f64 = 10.0;
const QUEUE_GANG_NODES: usize = 2;
/// One task in this many is a whole-node gang.
const QUEUE_GANG_EVERY: usize = 16;

pub fn queue_pilot() -> PilotDescription {
    PilotDescription::new(PlatformId::Delta).nodes(QUEUE_PILOT_NODES)
}

/// A generated wave and the virtual seconds a perfect packer needs for it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueWave {
    pub tasks: Vec<TaskDescription>,
    pub ideal_secs: f64,
}

/// Wave `wave` of session `session`: quarter-node 10 s tasks with `len / 16` two-node
/// whole-node gangs at positions drawn by a seeded partial shuffle.
pub fn queue_wave(seed: u64, session: usize, wave: usize, sizes: &Sizes) -> QueueWave {
    let n = sizes.queue_wave;
    let gangs = n / QUEUE_GANG_EVERY;
    let mut rng = Rng::new(seed ^ ((session as u64) << 32) ^ ((wave as u64) << 16) ^ 0x51EE);
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..gangs {
        let j = i + rng.below(n - i);
        order.swap(i, j);
    }
    let mut is_gang = vec![false; n];
    for &p in &order[..gangs] {
        is_gang[p] = true;
    }
    let tasks = is_gang
        .iter()
        .enumerate()
        .map(|(i, gang)| {
            let t = TaskDescription::new(format!("q{wave}-{i}"))
                .kind(TaskKind::compute_secs(QUEUE_TASK_SECS));
            if *gang {
                t.nodes(QUEUE_GANG_NODES).cores(DELTA_NODE_CORES)
            } else {
                t.cores(QUEUE_TASK_CORES)
            }
        })
        .collect();
    QueueWave {
        tasks,
        ideal_secs: queue_ideal_secs(n - gangs, gangs),
    }
}

/// Node-seconds of the mix divided by the pilot's nodes: the wave time of a packer
/// that never leaves a core idle.
pub fn queue_ideal_secs(small: usize, gangs: usize) -> f64 {
    let small_node_secs =
        small as f64 * QUEUE_TASK_SECS * f64::from(QUEUE_TASK_CORES) / f64::from(DELTA_NODE_CORES);
    let gang_node_secs = gangs as f64 * QUEUE_TASK_SECS * QUEUE_GANG_NODES as f64;
    (small_node_secs + gang_node_secs) / QUEUE_PILOT_NODES as f64
}

// ------------------------------------------------------------------ svc_roundtrip

pub const SVC_PILOT_NODES: usize = 4;
pub const SVC_SERVICES: usize = 2;
/// Two closed-loop clients keep both CPUs of the reference host busy; a host with
/// fewer CPUs runs fewer, one with more still runs two so the work stays the same.
pub const SVC_MAX_CLIENTS: usize = 2;
pub const PROMPT_WORDS: u32 = 48;

pub fn svc_pilot() -> PilotDescription {
    PilotDescription::new(PlatformId::Delta).nodes(SVC_PILOT_NODES)
}

pub fn svc_services() -> Vec<ServiceDescription> {
    (0..SVC_SERVICES)
        .map(|i| {
            ServiceDescription::new(format!("noop-{i}"))
                .model(ModelSpec::noop())
                .cores(1)
        })
        .collect()
}

/// `clients` closed-loop inference clients, each sending to every service in turn.
pub fn svc_clients(clients: usize, sizes: &Sizes) -> Vec<TaskDescription> {
    let names: Vec<String> = svc_services().into_iter().map(|s| s.name).collect();
    (0..clients)
        .map(|i| {
            let mut t = TaskDescription::new(format!("client-{i}"))
                .kind(TaskKind::InferenceClient {
                    selector: ServiceSelector::Named(names.clone()),
                    requests: sizes.svc_requests_per_client,
                    prompt_words: PROMPT_WORDS,
                    max_tokens: 1,
                    think_time_secs: Dist::constant(0.0),
                })
                .cores(1);
            for n in &names {
                t = t.after_service(n.clone());
            }
            t
        })
        .collect()
}

// ------------------------------------------------------------------ hybrid_campaign

pub const CAMPAIGN_PILOT_NODES: usize = 4;
pub const CAMPAIGN_SERVICES: usize = 4;
pub const CAMPAIGN_CLIENTS: usize = 8;
const CAMPAIGN_GANGS: usize = 3;
const CAMPAIGN_GANG_CORES: u32 = 32;
const CAMPAIGN_GANG_SECS: f64 = 15.0;
const CAMPAIGN_PREP_TASKS: usize = 16;
const CAMPAIGN_PREP_CORES: u32 = 8;
const CAMPAIGN_PREP_SECS: f64 = 10.0;
const CAMPAIGN_FINETUNE_SECS: f64 = 20.0;
const CAMPAIGN_MAX_TOKENS: u32 = 64;
pub const STAGE_SIMULATE: &str = "simulate";
pub const STAGE_LEARN_INFER: &str = "learn-infer";

/// One generated campaign: its inputs, what it must complete, and its lower bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    pub session_seed: u64,
    pub pilot: PilotDescription,
    pub pipeline: Pipeline,
    pub tasks: usize,
    pub requests: usize,
    /// Virtual seconds the two stages need on an ideal packer, service bootstrap
    /// excluded (the driver adds the bootstrap the campaign actually measured).
    pub ideal_task_secs: f64,
}

/// Campaign `index`: an MPI-gang + prep `simulate` stage, then a `learn-infer` stage
/// of LLM services, inference clients and GPU fine-tune tasks. The shape is fixed; the
/// session seed (`seed + index`) drives the runtime's stochastic models.
pub fn campaign(seed: u64, index: usize, sizes: &Sizes) -> Campaign {
    let simulate = Stage::new(STAGE_SIMULATE)
        .tasks((0..CAMPAIGN_GANGS).map(|i| {
            TaskDescription::new(format!("md-{i}"))
                .kind(TaskKind::compute_secs(CAMPAIGN_GANG_SECS))
                .nodes(2)
                .cores(CAMPAIGN_GANG_CORES)
        }))
        .tasks((0..CAMPAIGN_PREP_TASKS).map(|i| {
            TaskDescription::new(format!("prep-{i}"))
                .kind(TaskKind::compute_secs(CAMPAIGN_PREP_SECS))
                .cores(CAMPAIGN_PREP_CORES)
        }));
    let names: Vec<String> = (0..CAMPAIGN_SERVICES).map(|i| format!("llm-{i}")).collect();
    let mut learn = Stage::new(STAGE_LEARN_INFER);
    for name in &names {
        learn = learn.service(
            ServiceDescription::new(name.clone())
                .model(ModelSpec::sim_llama_8b())
                .gpus(1),
        );
    }
    learn = learn
        .tasks((0..CAMPAIGN_CLIENTS).map(|i| {
            TaskDescription::new(format!("infer-{i}"))
                .kind(TaskKind::InferenceClient {
                    selector: ServiceSelector::Named(names.clone()),
                    requests: sizes.campaign_requests_per_client,
                    prompt_words: PROMPT_WORDS,
                    max_tokens: CAMPAIGN_MAX_TOKENS,
                    think_time_secs: Dist::constant(0.0),
                })
                .cores(1)
        }))
        .tasks((0..sizes.campaign_finetune_tasks).map(|i| {
            TaskDescription::new(format!("finetune-{i}"))
                .kind(TaskKind::compute_secs(CAMPAIGN_FINETUNE_SECS))
                .gpus(1)
        }));
    let pipeline = Pipeline::new(format!("campaign-{index}"))
        .stage(simulate)
        .stage(learn);
    Campaign {
        session_seed: seed.wrapping_add(index as u64),
        pilot: PilotDescription::new(PlatformId::Delta).nodes(CAMPAIGN_PILOT_NODES),
        tasks: pipeline.total_tasks(),
        requests: CAMPAIGN_CLIENTS * sizes.campaign_requests_per_client as usize,
        ideal_task_secs: campaign_ideal_task_secs(sizes.campaign_finetune_tasks),
        pipeline,
    }
}

/// Lower bound of the two stages' task time: each stage needs at least its longest
/// task and at least its resource-seconds divided by the resource it competes for
/// (cores in `simulate`; the GPUs the services leave free in `learn-infer`).
pub fn campaign_ideal_task_secs(finetune_tasks: usize) -> f64 {
    let cores = (CAMPAIGN_PILOT_NODES as u32 * DELTA_NODE_CORES) as f64;
    let simulate_core_secs =
        CAMPAIGN_GANGS as f64 * 2.0 * f64::from(CAMPAIGN_GANG_CORES) * CAMPAIGN_GANG_SECS
            + CAMPAIGN_PREP_TASKS as f64 * f64::from(CAMPAIGN_PREP_CORES) * CAMPAIGN_PREP_SECS;
    let simulate = (simulate_core_secs / cores).max(CAMPAIGN_GANG_SECS);
    let free_gpus = CAMPAIGN_PILOT_NODES * DELTA_NODE_GPUS as usize - CAMPAIGN_SERVICES;
    let finetune_rounds = finetune_tasks.div_ceil(free_gpus);
    simulate + finetune_rounds as f64 * CAMPAIGN_FINETUNE_SECS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_constants_match_the_platform_catalog() {
        let node = PlatformId::Delta.spec().node;
        assert_eq!(node.cores, DELTA_NODE_CORES);
        assert_eq!(node.gpus, DELTA_NODE_GPUS);
        assert!(PlatformId::Frontier.spec().num_nodes >= BURST_PILOT_NODES);
    }

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(43);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn queue_waves_repeat_per_seed_and_differ_across_seeds_sessions_and_waves() {
        let sizes = Sizes::full();
        let w = queue_wave(42, 0, 0, &sizes);
        assert_eq!(w, queue_wave(42, 0, 0, &sizes));
        assert_ne!(w.tasks, queue_wave(7, 0, 0, &sizes).tasks);
        assert_ne!(w.tasks, queue_wave(42, 1, 0, &sizes).tasks);
        assert_ne!(w.tasks, queue_wave(42, 0, 1, &sizes).tasks);
        assert_eq!(w.tasks.len(), 1000);
        let gangs = w.tasks.iter().filter(|t| t.resources.nodes == 2).count();
        assert_eq!(gangs, 62, "exactly len/16 gang positions, none drawn twice");
        assert!(w
            .tasks
            .iter()
            .all(|t| t.resources.cores == if t.resources.nodes == 2 { 64 } else { 16 }));
    }

    #[test]
    fn queue_ideal_is_node_seconds_over_nodes() {
        // 15 quarter-node tasks (2.5 node-s each) + 1 two-node gang (20 node-s) on 8
        // nodes: 57.5 / 8 virtual seconds per 16 tasks, i.e. ≈449 µs real per task.
        assert!((queue_ideal_secs(15, 1) - 57.5 / 8.0).abs() < 1e-12);
        let w = queue_wave(42, 0, 0, &Sizes::full());
        assert!((w.ideal_secs - (938.0 * 2.5 + 62.0 * 20.0) / 8.0).abs() < 1e-9);
        assert_eq!(queue_ideal_secs(0, 0), 0.0);
    }

    #[test]
    fn campaign_shape_counts_and_ideal() {
        let sizes = Sizes::full();
        let c = campaign(42, 3, &sizes);
        assert_eq!(c, campaign(42, 3, &sizes));
        assert_eq!(c.session_seed, 45);
        assert_eq!(campaign(7, 0, &sizes).session_seed, 7);
        assert_eq!(c.pipeline.stages.len(), 2);
        assert_eq!(c.pipeline.total_services(), 4);
        assert_eq!(c.tasks, 3 + 16 + 8 + 48);
        assert_eq!(c.requests, 128);
        // simulate: (3·2·32·15 + 16·8·10) core-s / 256 cores = 16.25 s (> the 15 s
        // gang); learn-infer: 48 tasks on 12 free GPUs = 4 rounds of 20 s.
        assert!((c.ideal_task_secs - (16.25 + 80.0)).abs() < 1e-12);
        assert!((campaign_ideal_task_secs(12) - (16.25 + 20.0)).abs() < 1e-12);
        assert!((campaign_ideal_task_secs(13) - (16.25 + 40.0)).abs() < 1e-12);
    }

    #[test]
    fn sessions_stay_under_the_entity_cap() {
        let s = Sizes::full();
        assert!(s.burst_wave * s.burst_waves <= MAX_TASKS_PER_SESSION);
        assert!(s.queue_wave * s.queue_waves <= MAX_TASKS_PER_SESSION);
        let clients = svc_clients(2, &s);
        assert_eq!(clients.len(), 2);
        assert_eq!(clients[0].after_services.len(), SVC_SERVICES);
        assert_eq!(burst_wave(&s).len(), 2000);
    }
}
