//! Bounds of the serving plane: the admission front-end of a service and each of its
//! replicas are resumable runs on the executor's pool, not threads, so a session's
//! thread count follows its services and clients — one lifecycle thread each, one
//! thread per blocking client — and not its replica count; and requests that never
//! wait (NOOP backends) are served on the clients' own threads without the pool ever
//! starting.
//!
//! Kept in a test binary of its own, with one test: it reads the process-wide thread
//! count, which tests running beside it would disturb.

use std::time::Duration;

use hpcml::prelude::*;

mod common;
use common::{process_threads, threads_settled_at};

const SERVICES: usize = 4;
const REPLICAS: usize = 4;
const CLIENTS: usize = 2;

/// Run `CLIENTS` closed-loop clients × `requests` against `SERVICES` services ×
/// `REPLICAS` replicas of `model`; returns the peak thread count seen while the
/// clients ran (services up, start-up loader threads gone).
fn serve(model: ModelSpec, gpus: u32, requests: u32, before: Option<usize>) -> Option<usize> {
    let s = Session::builder("serving-bounds")
        .platform(PlatformId::Delta)
        .clock(ClockSpec::scaled(1000.0))
        .seed(18)
        .build()
        .expect("session");
    s.submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(SERVICES * REPLICAS + 1))
        .expect("pilot");
    let names: Vec<String> = (0..SERVICES).map(|i| format!("svc-{i}")).collect();
    let services: Vec<_> = names
        .iter()
        .map(|name| {
            let mut desc = ServiceDescription::new(name.clone())
                .model(model.clone())
                .replicas(REPLICAS);
            if gpus > 0 {
                desc = desc.gpus(gpus);
            }
            s.submit_service(desc).expect("service")
        })
        .collect();
    for svc in &services {
        svc.wait_ready_timeout(Duration::from_secs(120))
            .expect("ready");
    }
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            s.submit_task(
                TaskDescription::new(format!("client-{i}"))
                    .kind(TaskKind::InferenceClient {
                        selector: hpcml::runtime::describe::ServiceSelector::Named(names.clone()),
                        requests,
                        prompt_words: 16,
                        max_tokens: 16,
                        think_time_secs: hpcml::sim::dist::Dist::constant(0.0),
                    })
                    .cores(1),
            )
            .expect("client")
        })
        .collect();
    let mut peak = process_threads();
    while clients.iter().any(|c| !c.state().is_final()) {
        peak = peak.max(process_threads());
        std::thread::sleep(Duration::from_micros(500));
    }
    for c in &clients {
        assert_eq!(c.state(), TaskState::Done);
    }
    assert_eq!(
        s.metrics().response_count(),
        CLIENTS * requests as usize,
        "every request left a response sample"
    );
    s.close();
    assert_eq!(
        threads_settled_at(before),
        before,
        "close joins what the session started: the thread count is back"
    );
    peak
}

#[test]
fn sixteen_replicas_cost_no_thread_and_noop_requests_never_start_the_pool() {
    let before = process_threads();
    // A lifecycle thread per service and a thread per blocking client, plus slack for
    // a thread the harness may start.
    let entities = SERVICES + CLIENTS + 2;
    let pool = std::thread::available_parallelism().map_or(1, |n| n.get()) + 1;

    let peak = serve(ModelSpec::noop(), 0, 2_000, before);
    if let (Some(before), Some(peak)) = (before, peak) {
        assert!(
            peak <= before + entities,
            "{peak} threads serving NOOP requests, {before} before the session: replicas \
             must cost none, and the executor pool ({pool} threads) must not have started"
        );
    }

    // Batches that take inference time park on the pool's timer heap: the pool runs,
    // and that is all that is added, whatever the number of replicas.
    let peak = serve(ModelSpec::sim_llama_8b(), 1, 6, before);
    if let (Some(before), Some(peak)) = (before, peak) {
        assert!(
            peak <= before + entities + pool,
            "{peak} threads serving LLM requests, {before} before the session, pool of {pool}"
        );
    }
}
