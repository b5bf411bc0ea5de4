//! Experiment 3 / Fig. 6: strong and weak scaling of model inference time (IT).
//!
//! The topology is identical to experiment 2 (Delta pilot, 16 GPUs, 16 clients, local or
//! remote services) but the services host a llama-8b-class model instead of NOOP, so:
//!
//! * the `inference` component dominates the response time by orders of magnitude;
//! * the local/remote difference (sub-millisecond vs ~1 ms of communication) becomes
//!   negligible relative to seconds of inference — model locality is a secondary
//!   concern, as the paper concludes;
//! * under strong scaling with few services the single-threaded backend queues requests
//!   and the `service` (queueing) component blows up.

use crate::exp2::{run_sweep, Deployment, Scaling, ScalingConfig, ScalingResult};

/// Run the inference-time sweep for the given deployment and scaling mode.
pub fn run(scaling: Scaling, deployment: Deployment, quick: bool) -> Vec<ScalingResult> {
    let config = if quick {
        ScalingConfig::quick_llm(deployment)
    } else {
        ScalingConfig::paper_llm(deployment)
    };
    run_sweep(scaling, &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp2::run_one;
    use hpcml_serving::{ModelSpec, ServingConfig};

    fn tiny_llm(deployment: Deployment) -> ScalingConfig {
        ScalingConfig {
            service_counts: vec![1, 2],
            strong_clients: 2,
            requests_per_client: 3,
            model: ModelSpec::sim_llama_8b(),
            deployment,
            // Moderate compression keeps the (scaled-up) real scheduling jitter in the
            // communication component well below the seconds of inference time.
            clock_scale: 200.0,
            max_tokens: 64,
            serving: ServingConfig::default().max_batch_size(1),
            seed: 5,
        }
    }

    #[test]
    fn inference_dominates_response_time() {
        let _serial = crate::serial();
        let r = run_one(2, 2, &tiny_llm(Deployment::Remote));
        let inference = r.components["inference"].mean;
        let communication = r.components["communication"].mean;
        assert!(
            inference > 0.5,
            "llama-8b inference must take seconds, got {inference}"
        );
        assert!(
            inference > 10.0 * communication,
            "inference {inference} must dwarf communication {communication}"
        );
    }

    #[test]
    fn queueing_grows_when_services_are_scarce() {
        let _serial = crate::serial();
        // 2 clients hammering 1 single-threaded service vs 2 services: the queueing
        // (service) component must shrink when more services are available.
        let scarce = run_one(2, 1, &tiny_llm(Deployment::Local));
        let ample = run_one(2, 2, &tiny_llm(Deployment::Local));
        assert!(
            scarce.components["service"].mean > ample.components["service"].mean,
            "service/queue time with 1 service ({:.3}s) must exceed 2 services ({:.3}s)",
            scarce.components["service"].mean,
            ample.components["service"].mean
        );
    }

    #[test]
    fn batching_amortises_the_scarce_service_queue() {
        let _serial = crate::serial();
        // The same 2-clients-1-service crunch as above, but the service has the default
        // serving plane, where a request that finds the replica busy joins its running
        // batch: amortised decode cost must beat the paper's one-request-at-a-time path
        // end to end.
        let unbatched = run_one(2, 1, &tiny_llm(Deployment::Local));
        let mut config = tiny_llm(Deployment::Local);
        config.serving = ServingConfig::default();
        let batched = run_one(2, 1, &config);
        let margin = unbatched.total.mean - batched.total.mean;
        assert!(
            batched.total.mean < unbatched.total.mean,
            "batched RT ({:.3}s) must beat unbatched RT ({:.3}s): margin {margin:.3}s ({:.1}%)",
            batched.total.mean,
            unbatched.total.mean,
            100.0 * margin / unbatched.total.mean
        );
    }

    #[test]
    fn local_and_remote_inference_times_are_comparable() {
        let _serial = crate::serial();
        let local = run_one(1, 1, &tiny_llm(Deployment::Local));
        let remote = run_one(1, 1, &tiny_llm(Deployment::Remote));
        let ratio = remote.components["inference"].mean / local.components["inference"].mean;
        assert!(
            (0.5..2.0).contains(&ratio),
            "inference times should be comparable, ratio {ratio}"
        );
    }
}
