//! Serving-plane walkthrough: continuous micro-batching, replica pools and
//! deadline-aware admission control.
//!
//! The same llama-8b model is deployed twice — once in the paper's unbatched
//! single-replica shape, once as a batched two-replica pool — and both serve the same
//! concurrent client load. In the batched pool a request that finds its replica busy
//! joins the running batch, amortising decode cost across batch members, and the pool
//! splits the load over its replicas, so its clients finish in a fraction of the
//! unbatched wall time; the serving metrics recorded by the runtime show the batch
//! sizes and queue depths behind that difference.
//!
//! Run with: `cargo run --example serving`

use std::time::Duration;

use hpcml::prelude::*;
use hpcml::serving::ModelSpec;

fn run_clients(session: &Session, service: &str, clients: usize, requests: u32) -> f64 {
    let t0 = session.clock().now();
    let tasks: Vec<_> = (0..clients)
        .map(|i| {
            session
                .submit_task(
                    TaskDescription::new(format!("{service}-client-{i}"))
                        .kind(TaskKind::inference_client(service, requests))
                        .cores(1),
                )
                .expect("client task")
        })
        .collect();
    for t in &tasks {
        t.wait_done_timeout(Duration::from_secs(3600))
            .expect("client done");
    }
    session.clock().now().since(t0).as_secs_f64()
}

fn main() {
    let session = Session::builder("serving-walkthrough")
        .platform(PlatformId::Delta)
        .clock(ClockSpec::scaled(2000.0))
        .seed(7)
        .build()
        .expect("session");
    session
        .submit_pilot(
            PilotDescription::new(PlatformId::Delta)
                .nodes(4)
                .runtime_secs(14400.0),
        )
        .expect("pilot");

    // The paper's shape: one replica, one request per backend dispatch.
    let unbatched = session
        .submit_service(
            ServiceDescription::new("llm-unbatched")
                .model(ModelSpec::sim_llama_8b())
                .gpus(1)
                .max_batch_size(1),
        )
        .expect("unbatched service");

    // Serving plane: up to 8 waiting requests per dispatch (the default), two
    // replicas behind one endpoint with least-outstanding-requests routing.
    let batched = session
        .submit_service(
            ServiceDescription::new("llm-batched")
                .model(ModelSpec::sim_llama_8b())
                .gpus(1)
                .replicas(2),
        )
        .expect("batched service");

    unbatched.wait_ready().expect("unbatched ready");
    batched.wait_ready().expect("batched ready");

    let unbatched_secs = run_clients(&session, "llm-unbatched", 4, 4);
    let batched_secs = run_clients(&session, "llm-batched", 4, 4);

    println!("== serving plane walkthrough (virtual seconds) ==");
    println!("unbatched 1x1 service : {unbatched_secs:8.1} s for 16 requests");
    println!("batched   2x8 pool    : {batched_secs:8.1} s for 16 requests");
    println!(
        "speedup               : {:8.2}x",
        unbatched_secs / batched_secs.max(1e-9)
    );

    let metrics = session.metrics();
    let batch = metrics.scalar_summary("serving.batch.size");
    let depth = metrics.scalar_summary("serving.queue.depth");
    println!(
        "batch size            : mean {:.2}, max {:.0}",
        batch.mean, batch.max
    );
    println!(
        "unanswered requests   : mean {:.2}, max {:.0}",
        depth.mean, depth.max
    );
    println!(
        "replica outstanding   : max {:.0}",
        metrics.scalar_summary("serving.replica.outstanding").max
    );

    session.close();
}
