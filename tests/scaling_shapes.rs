//! Shape tests: reduced-scale versions of the paper's experiments asserting the
//! qualitative results the figures report (who dominates, where the knees are, how
//! strong/weak scaling behaves). The full sweeps live in the `hpcml-bench` binaries.

use hpcml::serving::ModelSpec;
use hpcml_bench::exp1::{run_one as bootstrap_one, BootstrapConfig};
use hpcml_bench::exp2::{run_one as scaling_one, Deployment, ScalingConfig};
use hpcml_bench::tables::{experiment_setup_table, table1_rows};

fn noop_config(deployment: Deployment) -> ScalingConfig {
    ScalingConfig {
        service_counts: vec![],
        strong_clients: 4,
        requests_per_client: 16,
        model: ModelSpec::noop(),
        deployment,
        // Dilate time 4x (like `ScalingConfig::paper_noop`) so the simulated WAN
        // latency dominates real scheduling jitter: wall-clock hiccups leak into the
        // sim-domain component means at `clock_scale`, and a loaded single-core
        // runner can inject ~1 ms of wall noise into the local measurement.
        clock_scale: 0.25,
        max_tokens: 1,
        serving: hpcml::serving::ServingConfig::default().max_batch_size(1),
        seed: 77,
    }
}

fn llm_config(deployment: Deployment) -> ScalingConfig {
    ScalingConfig {
        service_counts: vec![],
        strong_clients: 4,
        requests_per_client: 4,
        model: ModelSpec::sim_llama_8b(),
        deployment,
        // Mild compression: real scheduling jitter on a single-core runner stays small
        // relative to the seconds of inference time being asserted on.
        clock_scale: 100.0,
        max_tokens: 64,
        serving: hpcml::serving::ServingConfig::default().max_batch_size(1),
        seed: 77,
    }
}

#[test]
fn fig3_shape_init_dominates_and_publish_stays_below_launch() {
    let config = BootstrapConfig {
        instance_counts: vec![],
        clock_scale: 3000.0,
        seed: 21,
        model: ModelSpec::sim_llama_8b(),
    };
    let r = bootstrap_one(8, &config);
    let launch = r.components["launch"].mean;
    let init = r.components["init"].mean;
    let publish = r.components["publish"].mean;
    assert!(
        init > 5.0 * launch,
        "init ({init:.1}s) dominates launch ({launch:.1}s)"
    );
    assert!(
        publish < launch,
        "publish ({publish:.2}s) stays below launch ({launch:.2}s)"
    );
}

#[test]
fn fig4_fig5_shape_remote_communication_exceeds_local() {
    let local = scaling_one(4, 4, &noop_config(Deployment::Local));
    let remote = scaling_one(4, 4, &noop_config(Deployment::Remote));
    // NOOP: inference ~ 0 everywhere; communication is the dominant component and the
    // remote deployment pays the WAN latency.
    assert!(local.components["inference"].mean < 1e-6);
    assert!(remote.components["inference"].mean < 1e-6);
    assert!(local.components["communication"].mean > local.components["service"].mean);
    assert!(
        remote.components["communication"].mean > 2.0 * local.components["communication"].mean,
        "remote {:.6} vs local {:.6}",
        remote.components["communication"].mean,
        local.components["communication"].mean
    );
}

#[test]
fn fig4_strong_scaling_reduces_queueing_for_noop() {
    // More services behind the same number of clients should never increase per-request
    // service time (queueing); totals stay in the sub-millisecond regime.
    let one = scaling_one(4, 1, &noop_config(Deployment::Local));
    let four = scaling_one(4, 4, &noop_config(Deployment::Local));
    assert!(four.components["service"].mean <= one.components["service"].mean * 1.5);
    assert!(one.total.mean < 0.05 && four.total.mean < 0.05);
}

#[test]
fn fig6_shape_inference_dominates_and_locality_is_secondary() {
    let local = scaling_one(2, 2, &llm_config(Deployment::Local));
    let remote = scaling_one(2, 2, &llm_config(Deployment::Remote));
    for r in [&local, &remote] {
        assert!(
            r.components["inference"].mean > 5.0 * r.components["communication"].mean,
            "inference must dominate communication: {:?}",
            r.components
        );
    }
    // Model locality is a secondary concern once inference dominates (paper §IV-D).
    let ratio = remote.total.mean / local.total.mean;
    assert!(
        (0.5..2.0).contains(&ratio),
        "total RT local vs remote should be comparable, ratio {ratio}"
    );
}

#[test]
fn fig6_strong_scaling_single_service_queues_requests() {
    let scarce = scaling_one(4, 1, &llm_config(Deployment::Local));
    let ample = scaling_one(4, 4, &llm_config(Deployment::Local));
    // With one single-threaded backend behind four clients the queueing (service
    // component) must be far larger than with four services.
    assert!(
        scarce.components["service"].mean > 2.0 * ample.components["service"].mean,
        "scarce {:.2}s vs ample {:.2}s",
        scarce.components["service"].mean,
        ample.components["service"].mean
    );
}

#[test]
fn tables_match_paper_dimensions() {
    assert_eq!(table1_rows().len(), 8);
    let setup = experiment_setup_table();
    assert_eq!(setup.len(), 5);
    assert!(setup
        .iter()
        .any(|r| r.platform == "Frontier" && r.models == "1-640"));
}
