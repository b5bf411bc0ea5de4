//! The LUCID Uncertainty Quantification pipeline (paper §II-C) end to end at reduced
//! scale: a multi-node MPI ensemble-simulation stage (DeepDriveMD-style hybrid
//! MD-then-ML), a three-level hierarchy of GPU fine-tuning tasks (models × UQ methods
//! × seeds), and service-assisted post-processing.
//!
//! The example runs the pipeline twice to contrast the gang packing policies:
//!
//! 1. **whole-node members** (the paper's classic shape): each 2-node ensemble member
//!    reserves fully idle nodes;
//! 2. **half-node members under partial packing** (the default policy): each member
//!    asks for 32 of Delta's 64 cores per node, so two members — or a member and the
//!    GPU fine-tuning tasks — co-locate on the same nodes instead of serialising on
//!    idle-node availability (`task.gang.partial_nodes` counts the co-resident
//!    members).
//!
//! Run with: `cargo run --example uq_pipeline`

use std::time::Duration;

use hpcml::prelude::*;

/// Build a session + 4-node Delta pilot, run the configured UQ pipeline, and print
/// its report plus the gang-placement telemetry.
fn run_variant(label: &str, config: &UqConfig) {
    let session = Session::builder(format!("uq-{label}"))
        .platform(PlatformId::Delta)
        .clock(ClockSpec::scaled(5000.0))
        .seed(17)
        .build()
        .expect("session");
    session
        .submit_pilot(
            PilotDescription::new(PlatformId::Delta)
                .nodes(4)
                .runtime_secs(7200.0),
        )
        .expect("pilot");

    println!(
        "[{label}] UQ pipeline: {} MPI ensemble members ({}x{} ranks each) + {} GPU fine-tuning tasks",
        config.mpi_sim_tasks,
        config.mpi_sim_nodes,
        config.mpi_ranks_per_node,
        config.total_uq_tasks()
    );

    let pipeline = uncertainty_quantification_pipeline(config);
    let report = PipelineRunner::new(&session)
        .stage_timeout(Duration::from_secs(600))
        .run(&pipeline)
        .expect("pipeline run");
    print!("{}", report.render());

    let metrics = session.metrics();
    let gang_waits = metrics.scalar_values("task.gang.placement_wait_secs");
    let partial_nodes: f64 = metrics
        .scalar_values("task.gang.partial_nodes")
        .iter()
        .sum();
    println!(
        "[{label}] MPI gang placements: {} (spanning {} nodes total, {} members co-resident)",
        gang_waits.len(),
        metrics.scalar_values("task.gang.nodes").iter().sum::<f64>() as usize,
        partial_nodes as usize,
    );
    println!(
        "[{label}] post-processing LLM requests: {}",
        metrics.response_count()
    );
    session.close();
}

fn main() {
    let mut base = UqConfig::test_scale();
    base.methods = vec![
        "bayesian-lora".to_string(),
        "lora-ensemble".to_string(),
        "mc-dropout".to_string(),
    ];
    base.seeds = 3;
    base.models = vec!["llama-8b".to_string(), "mistral-7b".to_string()];
    base.finetune_secs = 20.0;

    // Variant 1 — whole-node members: three ensemble members, each an atomic gang
    // reserving 2 fully idle Delta nodes; with a 4-node pilot, two gangs simulate
    // concurrently and the third follows.
    let whole = base
        .clone()
        .with_mpi_simulation(3, 2, 15.0)
        .with_mpi_packing(GangPacking::Whole);
    run_variant("whole-node", &whole);

    // Variant 2 — half-node members under the default partial packing: the same
    // three members ask for 32 of 64 cores per node, so their gangs best-fit beside
    // each other (and beside the fine-tuning tasks) instead of waiting for idle
    // nodes — all three can simulate concurrently on the same 4-node pilot.
    let mut half = base.with_mpi_simulation(3, 2, 15.0);
    half.mpi_ranks_per_node = 32; // half of a 64-core Delta node
    run_variant("half-node", &half);
}
