//! Serving-plane benchmark: batched vs unbatched throughput, overload tail latency
//! with shedding on vs off, and how the request path scales from one client to two.
//!
//! Unlike the hot-path benches the first two measure **virtual** durations — the
//! simulation's deterministic model of inference time — and print them in the harness
//! line format (`name  time: [...]`) so `scripts/bench_guard.sh` can parse, record and
//! guard them in `BENCH_serving.json`. Virtual measurements are immune to host-load
//! noise: the batched/unbatched ratio is a property of the serving plane's cost model,
//! not of the machine the bench runs on.
//!
//! The `serving/clients/{1,2}` pair is real time: the wall-clock nanoseconds one NOOP
//! request costs a whole session (production wiring, live `RuntimeMetrics`) when one
//! closed-loop client sends and when two do, against two services. Neither number
//! means anything across hosts; their ratio, taken within one run, is what
//! `scripts/bench_guard.sh` prints: two clients' aggregate requests per second over
//! one client's. It is reported, not bounded: ROADMAP arc 3 asks for ≥ 1.3×, enforced
//! once ten runs in a row clear it, and on two CPUs the pair reads 1.13–1.77×, four of
//! ten below 1.3, with each client sending where fewer requests are in flight, so that
//! the two seldom meet at one service (1.09–1.42× in the same host hour while they
//! alternated over both services; 0.8–1× while every request was also queued three
//! times on its way; 0.55× with a front-end that handed requests over).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use hpcml_comm::link::Link;
use hpcml_comm::reqrep::ReqRepServer;
use hpcml_platform::PlatformId;
use hpcml_runtime::describe::ServiceSelector;
use hpcml_runtime::prelude::*;
use hpcml_serving::protocol::{KIND_INFER_REPLY, KIND_SHED};
use hpcml_serving::service::{inference_request_message, inference_request_message_with_deadline};
use hpcml_serving::{InferenceRequest, InferenceService, ModelHost, ModelSpec, ServingConfig};
use hpcml_sim::clock::{ClockSpec, SharedClock};
use hpcml_sim::metrics::null_sink;

/// Compression factor: virtual seconds per real second. High enough that a full run
/// finishes in a fraction of a second of real time, low enough that real scheduling
/// jitter (tens of µs) stays small against virtual inference times — at 50 000x, 20 µs
/// of thread wake-up latency would already be a full virtual second.
const CLOCK_SCALE: f64 = 2_000.0;

/// Print one result in the bench harness line format (same shape as the criterion
/// shim: `name  time: [  value unit/iter]  samples: N`).
fn report(name: &str, virtual_secs: f64, samples: usize) {
    let (scaled, unit) = if virtual_secs < 1e-6 {
        (virtual_secs * 1e9, "ns")
    } else if virtual_secs < 1e-3 {
        (virtual_secs * 1e6, "µs")
    } else {
        (virtual_secs * 1e3, "ms")
    };
    println!("{name:<48} time: [{scaled:9.2} {unit}/iter]  samples: {samples}");
}

struct Served {
    /// Virtual response time of each request answered with an inference reply.
    response_secs: Vec<f64>,
    /// Requests shed by admission control.
    shed: usize,
    /// Virtual wall time of the whole run.
    elapsed_secs: f64,
}

/// Stand up one service and drive it with `clients` threads sending
/// `requests_per_client` sequential requests each.
fn drive(
    config: ServingConfig,
    clients: usize,
    requests_per_client: usize,
    deadline_secs: Option<f64>,
    seed: u64,
) -> Served {
    let clock: SharedClock = ClockSpec::scaled(CLOCK_SCALE).build();
    let replicas = config.replicas;
    let hosts: Vec<Arc<ModelHost>> = (0..replicas)
        .map(|i| {
            let h = Arc::new(ModelHost::from_spec(
                ModelSpec::sim_llama_8b(),
                Arc::clone(&clock),
                seed + i as u64,
            ));
            h.load();
            h
        })
        .collect();
    let service = Arc::new(InferenceService::with_config(
        "svc.bench",
        hosts,
        Arc::clone(&clock),
        seed + 100,
        config,
        null_sink(),
    ));
    let endpoint = ReqRepServer::new("svc.bench");
    let client = endpoint.client(Link::instant(Arc::clone(&clock)));
    let stop = Arc::new(AtomicBool::new(false));
    let (svc, stop2) = (Arc::clone(&service), Arc::clone(&stop));
    let serve_thread = thread::spawn(move || svc.serve(&endpoint, &stop2));

    // Calibrate the admission estimate with one uncontended request so deadline
    // shedding has a live service-time EWMA from the first flood request on.
    let warm = InferenceRequest::new("w ".repeat(40), 64);
    let _ = client.request(inference_request_message("svc.bench", warm));

    let t0 = clock.now();
    let workers: Vec<thread::JoinHandle<(Vec<f64>, usize)>> = (0..clients)
        .map(|c| {
            let client = client.clone();
            let clock = Arc::clone(&clock);
            thread::spawn(move || {
                let mut times = Vec::new();
                let mut shed = 0usize;
                for _ in 0..requests_per_client {
                    let req = InferenceRequest::new("q ".repeat(40), 64)
                        .from_client(format!("bench.{c}"));
                    let msg = match deadline_secs {
                        Some(d) => inference_request_message_with_deadline("svc.bench", req, d),
                        None => inference_request_message("svc.bench", req),
                    };
                    let sent = clock.now();
                    let reply = client.request(msg).expect("bench service reply");
                    let rt = clock.now().since(sent).as_secs_f64();
                    match &*reply.kind {
                        KIND_INFER_REPLY => times.push(rt),
                        KIND_SHED => shed += 1,
                        other => panic!("unexpected reply kind {other}"),
                    }
                }
                (times, shed)
            })
        })
        .collect();
    let mut response_secs = Vec::new();
    let mut shed = 0usize;
    for w in workers {
        let (times, s) = w.join().expect("bench client");
        response_secs.extend(times);
        shed += s;
    }
    let elapsed_secs = clock.now().since(t0).as_secs_f64();
    stop.store(true, Ordering::Release);
    serve_thread.join().expect("serve loop");
    Served {
        response_secs,
        shed,
        elapsed_secs,
    }
}

/// Wall-clock seconds per request of `clients` closed-loop inference clients ×
/// `requests` NOOP requests against two services of one session — the shape of the
/// repo benchmark's `svc_roundtrip` — and the number of response samples it left.
fn session_secs_per_request(clients: usize, requests: u32) -> (f64, usize) {
    let session = Session::builder("bench-clients")
        .platform(PlatformId::Delta)
        .clock(ClockSpec::scaled(1000.0))
        .seed(20)
        .build()
        .expect("session");
    session
        .submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(4))
        .expect("pilot");
    let names: Vec<String> = (0..2).map(|i| format!("noop-{i}")).collect();
    for name in &names {
        session
            .submit_service(
                ServiceDescription::new(name.clone())
                    .model(ModelSpec::noop())
                    .cores(1),
            )
            .expect("service")
            .wait_ready()
            .expect("ready");
    }
    let started = std::time::Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let client = TaskDescription::new(format!("client-{i}"))
                .kind(TaskKind::InferenceClient {
                    selector: ServiceSelector::Named(names.clone()),
                    requests,
                    prompt_words: 48,
                    max_tokens: 1,
                    think_time_secs: hpcml_sim::dist::Dist::constant(0.0),
                })
                .cores(1);
            session.submit_task(client).expect("client")
        })
        .collect();
    for handle in &handles {
        handle.wait_done().expect("client done");
    }
    let wall = started.elapsed().as_secs_f64();
    let samples = session.metrics().response_count();
    session.close();
    (wall / samples.max(1) as f64, samples)
}

fn p99(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if samples.is_empty() {
        return 0.0;
    }
    let idx = ((samples.len() as f64) * 0.99).ceil() as usize;
    samples[idx.min(samples.len()).saturating_sub(1)]
}

fn main() {
    // Throughput: 8 concurrent clients, 4 requests each, one replica. The unbatched
    // service serialises all 32 inferences; the default one begins whatever queued
    // behind its running batch, up to 8, as the next one, amortising decode cost.
    // Reported value: virtual seconds per request.
    let unbatched = drive(ServingConfig::default().max_batch_size(1), 8, 4, None, 1);
    report(
        "serving/unbatched",
        unbatched.elapsed_secs / unbatched.response_secs.len().max(1) as f64,
        unbatched.response_secs.len(),
    );
    let batched = drive(ServingConfig::default().max_batch_size(8), 8, 4, None, 1);
    report(
        "serving/batched/8",
        batched.elapsed_secs / batched.response_secs.len().max(1) as f64,
        batched.response_secs.len(),
    );

    // Overload tail: 24 one-shot clients flood a single replica (batch 4) at once,
    // each with a 10 s deadline. With shedding on, admission
    // rejects what it cannot serve in time and the admitted tail stays near the
    // deadline; with shedding off, the queue grows without bound and the p99 response
    // time is the whole backlog. Reported value: p99 virtual response time.
    let overload_cfg = ServingConfig::default()
        .max_batch_size(4)
        .queue_capacity(64);
    let mut shed_on = drive(
        overload_cfg.clone().shed_deadlines(true),
        24,
        1,
        Some(10.0),
        2,
    );
    report(
        "serving/overload_p99/shed_on",
        p99(&mut shed_on.response_secs),
        shed_on.response_secs.len(),
    );
    assert!(
        shed_on.shed > 0,
        "overload with deadlines must shed some of 24 requests"
    );
    let mut shed_off = drive(overload_cfg.shed_deadlines(false), 24, 1, Some(10.0), 2);
    report(
        "serving/overload_p99/shed_off",
        p99(&mut shed_off.response_secs),
        shed_off.response_secs.len(),
    );
    assert_eq!(shed_off.shed, 0, "shedding disabled must admit everything");

    // Scaling of the request path (real time; see the module docs): the median of
    // five alternating runs a side, so that one host hiccup moves neither number.
    const REQUESTS: u32 = 40_000;
    let mut runs: [Vec<(f64, usize)>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..5 {
        for clients in [1, 2] {
            runs[clients - 1].push(session_secs_per_request(clients, REQUESTS));
        }
    }
    for (clients, runs) in [1usize, 2].into_iter().zip(&mut runs) {
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (median_secs, samples) = runs[runs.len() / 2];
        assert_eq!(samples, clients * REQUESTS as usize, "a sample per request");
        report(&format!("serving/clients/{clients}"), median_secs, samples);
    }
}
