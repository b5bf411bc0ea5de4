//! Criterion bench for experiment 3 (Fig. 6): llama-8b inference time through the
//! service interface, local vs remote, at a reduced request count. The full sweeps are
//! produced by the `exp3_inference` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hpcml_bench::exp2::{run_one, Deployment, ScalingConfig};
use hpcml_serving::{ModelSpec, ServingConfig};

fn config(deployment: Deployment) -> ScalingConfig {
    ScalingConfig {
        service_counts: vec![],
        strong_clients: 2,
        requests_per_client: 4,
        model: ModelSpec::sim_llama_8b(),
        deployment,
        clock_scale: 20_000.0,
        max_tokens: 64,
        serving: ServingConfig::default().max_batch_size(1),
        seed: 42,
    }
}

fn bench_inference_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("exp3_llama_inference");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(10));
    for deployment in [Deployment::Local, Deployment::Remote] {
        group.bench_with_input(
            BenchmarkId::from_parameter(deployment.label()),
            &deployment,
            |b, &d| {
                let cfg = config(d);
                b.iter(|| {
                    let r = run_one(2, 2, &cfg);
                    assert!(r.components["inference"].mean > 0.1);
                    r
                });
            },
        );
    }
    // The serving-plane variant of the same topology: up to 4 waiting requests batched
    // per backend dispatch. Amortised decode cost shows up as a lower mean inference
    // component; the guarded throughput trajectory lives in benches/serving_plane.rs.
    group.bench_function("local_batched_4", |b| {
        let mut cfg = config(Deployment::Local);
        cfg.serving = ServingConfig::default().max_batch_size(4);
        b.iter(|| {
            let r = run_one(2, 2, &cfg);
            assert!(r.components["inference"].mean > 0.1);
            r
        });
    });
    group.finish();
}

criterion_group!(benches, bench_inference_time);
criterion_main!(benches);
