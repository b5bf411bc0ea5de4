//! Quickstart: one pilot, one model service, one inference-client task.
//!
//! This is the smallest end-to-end use of the runtime's service extension: acquire
//! resources through a pilot, stand up a model service on them, send it inference
//! requests from a task, and read back the response-time metrics.
//!
//! Run with: `cargo run --example quickstart`

use std::time::Duration;

use hpcml::prelude::*;

fn main() {
    // Compress virtual time 2000x so the llama-8b load (~30 virtual seconds) and the
    // inference calls finish in well under a second of real time.
    let session = Session::builder("quickstart")
        .platform(PlatformId::Local)
        .clock(ClockSpec::scaled(2000.0))
        .seed(7)
        .build()
        .expect("session");

    // ① Acquire resources: a 2-node pilot on the local test platform.
    let pilot = session
        .submit_pilot(
            PilotDescription::new(PlatformId::Local)
                .nodes(2)
                .runtime_secs(3600.0),
        )
        .expect("pilot");
    println!(
        "pilot {} active with {} nodes",
        pilot.id(),
        pilot.num_nodes()
    );

    // ② Stand up a model service on one GPU and wait until it is ready.
    let service = session
        .submit_service(
            ServiceDescription::new("llm-0")
                .model(hpcml::serving::ModelSpec::sim_llama_8b())
                .gpus(1),
        )
        .expect("service");
    service.wait_ready().expect("service ready");
    let bootstrap = service.bootstrap_times().expect("bootstrap measured");
    println!(
        "service {} ready: launch={:.2}s init={:.2}s publish={:.2}s (virtual)",
        service.name(),
        bootstrap.launch_secs,
        bootstrap.init_secs,
        bootstrap.publish_secs
    );

    // ③ A client task sends eight inference requests through the service API.
    let task = session
        .submit_task(
            TaskDescription::new("client-0")
                .kind(TaskKind::inference_client("llm-0", 8))
                .cores(1)
                .after_service("llm-0"),
        )
        .expect("task");
    task.wait_done_timeout(Duration::from_secs(120))
        .expect("task done");

    // ④ Inspect the collected response-time decomposition.
    let metrics = session.metrics();
    println!("collected {} response samples", metrics.response_count());
    for (component, summary) in metrics.response_summaries() {
        println!(
            "  {component:<14} mean={:.4}s p95={:.4}s",
            summary.mean, summary.p95
        );
    }
    println!(
        "inference time (IT): {}",
        metrics.inference_summary().report()
    );

    session.close();
    println!("done");
}
