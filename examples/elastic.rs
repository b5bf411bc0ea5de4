//! Elastic pilots under node failures: grow a pilot while work is queued, lose a
//! node mid-gang to a seeded fault plan, watch the evicted gang requeue and
//! complete within its retry budget, then shed the failed node and grow back.
//!
//! Run with: `cargo run --example elastic`

use std::time::Duration;

use hpcml::prelude::*;

fn main() {
    // A seeded fault plan injects node failures against the first pilot's
    // allocation on the session clock: node 0 dies 5 virtual seconds after the
    // pilot becomes active, while the gang below is mid-execution.
    let session = Session::builder("elastic")
        .platform(PlatformId::Delta)
        .clock(ClockSpec::scaled(200.0))
        .seed(99)
        .fault_plan(FaultPlan::new().fail_at(5.0, 0))
        .build()
        .expect("session");

    // ① Start small: a 3-node pilot on Delta.
    let pilot = session
        .submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(3))
        .expect("pilot");
    println!(
        "pilot {} active with {} nodes",
        pilot.id(),
        pilot.num_nodes()
    );

    // ② A 4-node gang is submitted against the 3-node pilot: it parks in the
    // scheduler's wait queue because the pilot is too small for it.
    let gang = session
        .submit_task(
            TaskDescription::new("training-gang")
                .kind(TaskKind::compute_secs(60.0))
                .nodes(4)
                .gang_packing(GangPacking::Whole)
                // Budget for surviving one node failure plus one bad retry.
                .max_retries(2),
        )
        .expect("gang");

    // ③ Grow the pilot at runtime: two fresh nodes join the allocation, the
    // scheduler is nudged, and the parked gang places.
    let attached = pilot.resize(5).expect("grow");
    println!("pilot grown to {attached} nodes — parked gang can now place");

    // ④ The fault plan kills node 0 mid-run. The co-resident gang slot is
    // evicted, the task requeues at the front of its class, and the retry
    // re-places it on the healthy remainder.
    gang.wait_done_timeout(Duration::from_secs(600))
        .expect("gang done");
    println!(
        "gang finished after {} retr{} ({} node failure{} injected)",
        gang.retries(),
        if gang.retries() == 1 { "y" } else { "ies" },
        session.metrics().scalar_values("node.failures").len(),
        if session.metrics().scalar_values("node.failures").len() == 1 {
            ""
        } else {
            "s"
        },
    );
    println!(
        "pilot now: {} healthy + {} failed node(s) attached",
        pilot.num_nodes(),
        pilot.failed_nodes()
    );

    // `Done` means released: the gang's slot was back in the pilot before
    // `wait_done` returned, so the occupancy below is already quiesced.

    // ⑤ Repair the pilot: shrinking retires the failed node first, growing
    // back attaches a fresh healthy one.
    pilot.resize(4).expect("shed failed node");
    println!(
        "after shrink: {} healthy, {} failed",
        pilot.num_nodes(),
        pilot.failed_nodes()
    );
    pilot.resize(5).expect("grow back");
    println!(
        "after regrow: {} healthy, {} idle, {} free cores",
        pilot.num_nodes(),
        pilot.idle_nodes(),
        pilot.free_cores()
    );

    session.close();
    println!("done");
}
