//! Serving-plane integration tests: continuous micro-batching, replica pools and
//! deadline-aware admission control, exercised end to end through the session API and
//! directly against the `hpcml::serving` crate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hpcml::comm::link::Link;
use hpcml::comm::message::Message;
use hpcml::comm::ReqRepServer;
use hpcml::prelude::*;
use hpcml::runtime::describe::ServiceSelector;
use hpcml::serving::protocol::{
    HDR_BATCH_SIZE, HDR_ERROR, HDR_REQUEST_ID, HDR_RETRY_AFTER_SECS, HDR_SERVICE_SECS,
    KIND_INFER_REPLY, KIND_SHED,
};
use hpcml::serving::service::{inference_request_message, inference_request_message_with_deadline};
use hpcml::serving::{InferenceRequest, InferenceService, ModelHost, ServingConfig};
use hpcml::sim::clock::{SharedClock, SimTime};
use hpcml::sim::dist::Dist;
use hpcml::sim::metrics::null_sink;

fn session(scale: f64) -> Session {
    Session::builder("serving-plane")
        .platform(PlatformId::Delta)
        .clock(ClockSpec::scaled(scale))
        .seed(20250)
        .build()
        .expect("session")
}

/// End to end through the runtime: a service with the default serving plane answers a
/// burst of concurrent clients, requests that wait behind its busy replica actually
/// batch, and the serving metrics show up in the runtime metrics store next to the
/// task/service scalars.
#[test]
fn batched_service_serves_concurrent_clients_through_the_session() {
    let s = session(200.0);
    s.submit_pilot(
        PilotDescription::new(PlatformId::Delta)
            .nodes(2)
            .runtime_secs(7200.0),
    )
    .expect("pilot");

    let svc = s
        .submit_service(
            ServiceDescription::new("batched-llm")
                .model(ModelSpec::sim_llama_8b())
                .gpus(1),
        )
        .expect("service");
    svc.wait_ready_timeout(Duration::from_secs(120))
        .expect("ready");

    let tasks: Vec<_> = (0..4)
        .map(|i| {
            s.submit_task(
                TaskDescription::new(format!("client-{i}"))
                    .kind(TaskKind::inference_client("batched-llm", 3))
                    .cores(1),
            )
            .expect("task")
        })
        .collect();
    for t in &tasks {
        assert_eq!(
            t.wait_done_timeout(Duration::from_secs(600)).expect("done"),
            TaskState::Done
        );
    }
    assert_eq!(s.metrics().response_count(), 12);

    // The serving plane reported its metrics through the executor sink.
    let batch_sizes = s.metrics().scalar_values("serving.batch.size");
    assert!(!batch_sizes.is_empty(), "batch sizes recorded");
    assert!(
        batch_sizes.iter().cloned().fold(0.0f64, f64::max) >= 2.0,
        "concurrent clients should batch: {batch_sizes:?}"
    );
    assert!(!s.metrics().scalar_values("serving.queue.depth").is_empty());
    s.close();
}

/// A replicated service widens its resource request to a gang and splits concurrent
/// load across replicas, halving the wall time of two simultaneous requests.
#[test]
fn replicated_service_places_a_gang_and_splits_load() {
    let s = session(200.0);
    s.submit_pilot(
        PilotDescription::new(PlatformId::Delta)
            .nodes(3)
            .runtime_secs(7200.0),
    )
    .expect("pilot");

    let desc = ServiceDescription::new("replicated-llm")
        .model(ModelSpec::sim_llama_8b())
        .gpus(1)
        .replicas(2);
    assert_eq!(desc.resources.nodes, 2, "replicas widen the gang");
    let svc = s.submit_service(desc).expect("service");
    svc.wait_ready_timeout(Duration::from_secs(120))
        .expect("ready");

    let tasks: Vec<_> = (0..2)
        .map(|i| {
            s.submit_task(
                TaskDescription::new(format!("rc-{i}"))
                    .kind(TaskKind::inference_client("replicated-llm", 2))
                    .cores(1),
            )
            .expect("task")
        })
        .collect();
    for t in &tasks {
        assert_eq!(
            t.wait_done_timeout(Duration::from_secs(600)).expect("done"),
            TaskState::Done
        );
    }
    assert_eq!(s.metrics().response_count(), 4);
    assert!(
        !s.metrics()
            .scalar_values("serving.replica.outstanding")
            .is_empty(),
        "replica routing recorded outstanding counts"
    );
    s.close();
}

/// A closed-loop client of every service in `names`, sending `requests` requests.
fn client_of(name: &str, names: &[String], requests: u32, max_tokens: u32) -> TaskDescription {
    TaskDescription::new(name)
        .kind(TaskKind::InferenceClient {
            selector: ServiceSelector::Named(names.to_vec()),
            requests,
            prompt_words: 48,
            max_tokens,
            think_time_secs: Dist::constant(0.0),
        })
        .cores(1)
}

/// Services `names` with `model`, ready.
fn ready_services(s: &Session, names: &[String], model: ModelSpec) {
    let services: Vec<_> = names
        .iter()
        .map(|name| {
            s.submit_service(
                ServiceDescription::new(name.clone())
                    .model(model.clone())
                    .gpus(1),
            )
            .expect("service")
        })
        .collect();
    for svc in &services {
        svc.wait_ready_timeout(Duration::from_secs(120))
            .expect("ready");
    }
}

fn run_to_done(s: &Session, tasks: impl IntoIterator<Item = TaskDescription>) {
    let handles: Vec<_> = tasks
        .into_iter()
        .map(|t| s.submit_task(t).expect("task"))
        .collect();
    for t in &handles {
        assert_eq!(
            t.wait_done_timeout(Duration::from_secs(600)).expect("done"),
            TaskState::Done
        );
    }
}

/// Requests each service answered; written when the service stops, so after `close`.
fn served(s: &Session, names: &[String]) -> Vec<u64> {
    names
        .iter()
        .map(|name| {
            *s.service_manager()
                .get(name)
                .expect("record")
                .requests_served
                .lock()
        })
        .collect()
}

fn names(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}-{i}")).collect()
}

/// Eight closed-loop clients over four LLM services (the serving half of the
/// `hybrid_campaign` benchmark) keep each service near the balanced two sequences:
/// every request goes to the service with the fewest requests in flight. A fixed
/// rotation per client lets closed-loop clients pile three or four onto some services
/// while others run one (mean outstanding ≈ 2.5).
#[test]
fn inference_clients_spread_requests_over_services_by_load() {
    let s = session(100.0);
    s.submit_pilot(
        PilotDescription::new(PlatformId::Delta)
            .nodes(1)
            .runtime_secs(7200.0),
    )
    .expect("pilot");
    let llms = names("llm", 4);
    ready_services(&s, &llms, ModelSpec::sim_llama_8b());
    run_to_done(
        &s,
        (0..8).map(|i| client_of(&format!("client-{i}"), &llms, 16, 64)),
    );
    let outstanding = s.metrics().scalar_values("serving.replica.outstanding");
    assert_eq!(outstanding.len(), 8 * 16, "one record per dispatch");
    let mean = outstanding.iter().sum::<f64>() / outstanding.len() as f64;
    assert!(mean <= 2.2, "mean outstanding {mean:.2}, balanced is 2.0");
    s.close();
    let served = served(&s, &llms);
    assert_eq!(served.iter().sum::<u64>(), 8 * 16);
    assert!(
        served.iter().all(|&n| n > 0),
        "every service serves: {served:?}"
    );
}

/// A lone client finds every target idle at each pick and so visits them in strict
/// rotation, the paper prototype's round robin.
#[test]
fn a_lone_client_serves_its_targets_in_strict_rotation() {
    let s = session(1000.0);
    s.submit_pilot(
        PilotDescription::new(PlatformId::Delta)
            .nodes(1)
            .runtime_secs(7200.0),
    )
    .expect("pilot");
    let noops = names("noop", 3);
    ready_services(&s, &noops, ModelSpec::noop());
    run_to_done(&s, [client_of("client", &noops, 3 * 7, 1)]);
    s.close();
    assert_eq!(served(&s, &noops), [7; 3]);
}

/// A client passes by a target busy with another client's request: the first client's
/// request is held unanswered at one endpoint, and every request of the second goes to
/// the other.
#[test]
fn a_second_client_avoids_a_service_the_first_holds_busy() {
    let s = session(1000.0);
    s.submit_pilot(
        PilotDescription::new(PlatformId::Delta)
            .nodes(1)
            .runtime_secs(7200.0),
    )
    .expect("pilot");
    // The busy endpoint is served by this test: it holds the first request it gets
    // and answers any later one at once, counting it.
    let busy = ReqRepServer::new("service.held");
    s.endpoint_registry()
        .register("service.held", busy.handle(), Default::default())
        .expect("register");
    let idle = names("idle", 1);
    ready_services(&s, &idle, ModelSpec::noop());

    let first = s
        .submit_task(client_of("first", &["held".to_string()], 1, 1))
        .expect("task");
    let (held, responder) = busy.recv_timeout(Duration::from_secs(60)).expect("held");
    let stop = AtomicBool::new(false);
    let answered = thread::scope(|scope| {
        let answerer = scope.spawn(|| {
            let mut answered = 0;
            while !stop.load(Ordering::Acquire) {
                if let Ok((msg, r)) = busy.recv_timeout(Duration::from_millis(5)) {
                    answered += 1;
                    r.reply(Message::new(msg.topic, KIND_INFER_REPLY))
                        .expect("reply");
                }
            }
            answered
        });
        let both = ["held".to_string(), idle[0].clone()];
        run_to_done(&s, [client_of("second", &both, 6, 1)]);
        stop.store(true, Ordering::Release);
        answerer.join().expect("answerer")
    });
    assert_eq!(answered, 0, "requests sent to the busy endpoint");

    responder
        .reply(Message::new(held.topic, KIND_INFER_REPLY))
        .expect("reply");
    assert_eq!(
        first
            .wait_done_timeout(Duration::from_secs(60))
            .expect("done"),
        TaskState::Done
    );
    s.endpoint_registry().unregister("service.held");
    s.close();
    assert_eq!(served(&s, &idle), [6]);
}

// ---------------------------------------------------------------- crate-level tests

fn loaded_hosts(n: usize, clock: &SharedClock, seed: u64) -> Vec<Arc<ModelHost>> {
    (0..n)
        .map(|i| {
            let h = Arc::new(ModelHost::from_spec(
                ModelSpec::sim_llama_8b(),
                Arc::clone(clock),
                seed + i as u64,
            ));
            h.load();
            h
        })
        .collect()
}

struct Harness {
    service: Arc<InferenceService>,
    stop: Arc<AtomicBool>,
    serve_thread: thread::JoinHandle<u64>,
    client: hpcml::comm::ReqRepClient,
}

fn start(clock: &SharedClock, replicas: usize, config: ServingConfig) -> Harness {
    let hosts = loaded_hosts(replicas, clock, 91);
    let service = Arc::new(InferenceService::with_config(
        "svc.plane",
        hosts,
        Arc::clone(clock),
        92,
        config,
        null_sink(),
    ));
    let endpoint = ReqRepServer::new("svc.plane");
    let client = endpoint.client(Link::instant(Arc::clone(clock)));
    let stop = Arc::new(AtomicBool::new(false));
    let (svc, stop2) = (Arc::clone(&service), Arc::clone(&stop));
    let serve_thread = thread::spawn(move || svc.serve(&endpoint, &stop2));
    Harness {
        service,
        stop,
        serve_thread,
        client,
    }
}

/// Shed-under-overload: with deadline shedding on, an overloaded service sheds the
/// requests it cannot serve in time and the requests it *does* admit still see a
/// bounded queue delay — the `service` component of every admitted reply stays within
/// a small multiple of the deadline the admission estimate promised to honour.
#[test]
fn overload_sheds_and_admitted_requests_keep_bounded_delay() {
    let clock: SharedClock = ClockSpec::scaled(500.0).build();
    let config = ServingConfig::default()
        .max_batch_size(4)
        .queue_capacity(64)
        .shed_deadlines(true);
    let h = start(&clock, 1, config);

    // Calibrate the service-time estimate with one uncontended request.
    let warm = InferenceRequest::new("w ".repeat(40), 64);
    let reply = h
        .client
        .request(inference_request_message("svc.plane", &warm))
        .unwrap();
    assert_eq!(
        reply.kind,
        KIND_INFER_REPLY,
        "{:?}",
        reply.header(HDR_ERROR)
    );

    // Flood: 24 concurrent requests, each demanding completion within one deadline.
    // A single replica at ~2-4 s per batch cannot serve them all in 10 s, so the tail
    // must shed rather than queue without bound.
    let deadline_secs = 10.0;
    let handles: Vec<_> = (0..24)
        .map(|i| {
            let client = h.client.clone();
            thread::spawn(move || {
                let req =
                    InferenceRequest::new("q ".repeat(40), 64).from_client(format!("task.{i}"));
                client
                    .request(inference_request_message_with_deadline(
                        "svc.plane",
                        &req,
                        deadline_secs,
                    ))
                    .unwrap()
            })
        })
        .collect();
    let replies: Vec<Message> = handles.into_iter().map(|t| t.join().unwrap()).collect();

    let shed: Vec<&Message> = replies.iter().filter(|r| r.kind == KIND_SHED).collect();
    let admitted: Vec<&Message> = replies
        .iter()
        .filter(|r| r.kind == KIND_INFER_REPLY)
        .collect();
    assert_eq!(shed.len() + admitted.len(), replies.len(), "{replies:?}");
    assert!(
        !shed.is_empty(),
        "an overloaded service must shed some of 24 deadline-bound requests"
    );
    assert!(!admitted.is_empty(), "some requests must still be admitted");
    for s in &shed {
        assert!(s.f64_header(HDR_RETRY_AFTER_SECS).unwrap() > 0.0);
    }
    // Bounded tail for admitted work: the admission estimate is an EWMA, so allow a
    // small multiple of the deadline, but nothing resembling the unbounded queue the
    // 24-deep flood would otherwise build (~60+ s of backlog).
    for r in &admitted {
        let service_secs = r.f64_header(HDR_SERVICE_SECS).unwrap();
        assert!(
            service_secs <= deadline_secs * 3.0,
            "admitted request queued {service_secs}s against a {deadline_secs}s deadline"
        );
    }

    h.stop.store(true, Ordering::Release);
    h.serve_thread.join().unwrap();
}

/// Per-client FIFO through the whole plane: a client that sends requests one at a time
/// observes its replies in send order (REQ/REP guarantees per-request pairing; this
/// asserts the batched path never swaps two of the same client's requests).
#[test]
fn batched_dispatch_preserves_per_client_order_and_batches() {
    let clock: SharedClock = ClockSpec::scaled(500.0).build();
    let h = start(&clock, 1, ServingConfig::default());

    let handles: Vec<_> = (0..6)
        .map(|c| {
            let client = h.client.clone();
            thread::spawn(move || {
                let mut ids = Vec::new();
                for i in 0..3 {
                    let req = InferenceRequest::new("p ".repeat(20), 32)
                        .from_client(format!("client.{c}"));
                    let sent_id = req.request_id.clone();
                    let reply = client
                        .request(inference_request_message("svc.plane", &req))
                        .unwrap();
                    assert_eq!(reply.kind, KIND_INFER_REPLY, "client {c} req {i}");
                    assert_eq!(
                        reply.header(HDR_REQUEST_ID),
                        Some(sent_id.as_str()),
                        "reply pairs with the request just sent"
                    );
                    ids.push(sent_id);
                }
                ids
            })
        })
        .collect();
    for t in handles {
        assert_eq!(t.join().unwrap().len(), 3);
    }
    assert_eq!(h.service.requests_served(), 18);

    h.stop.store(true, Ordering::Release);
    h.serve_thread.join().unwrap();
}

/// Runtime elasticity of the pool: scale a replica up, drain one down, and verify
/// routing only ever targets live replicas while in-flight work completes.
#[test]
fn pool_scale_up_and_drain_down() {
    let clock: SharedClock = ClockSpec::scaled(500.0).build();
    let config = ServingConfig::default().replicas(2);
    let h = start(&clock, 2, config);
    let pool = Arc::clone(h.service.pool());
    assert_eq!(pool.replica_count(), 2);
    assert_eq!(pool.live_replicas(), 2);

    // Scale up a third replica at runtime.
    let extra = loaded_hosts(1, &clock, 300).remove(0);
    let id3 = pool.scale_up(extra);
    assert_eq!(pool.replica_count(), 3);

    // Keep the pool busy while draining the new replica.
    let busy: Vec<_> = (0..4)
        .map(|_| {
            let client = h.client.clone();
            thread::spawn(move || {
                let req = InferenceRequest::new("d ".repeat(30), 48);
                client
                    .request(inference_request_message("svc.plane", &req))
                    .unwrap()
            })
        })
        .collect();
    assert!(pool.begin_drain(id3), "drain accepted");
    assert_eq!(pool.live_replicas(), 2, "draining replica is unroutable");
    for t in busy {
        assert_eq!(t.join().unwrap().kind, KIND_INFER_REPLY);
    }

    // Once idle, the drained replica reaps; the last live replicas never drain.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while pool.replica_count() > 2 && std::time::Instant::now() < deadline {
        pool.reap_drained();
        thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(pool.replica_count(), 2);
    assert!(!pool.begin_drain(9999), "unknown replica id refuses");

    h.stop.store(true, Ordering::Release);
    h.serve_thread.join().unwrap();
}

/// Nothing waits for company: a lone closed-loop client's every request finds the
/// replica idle and is begun alone, whatever batch size the default would allow.
#[test]
fn a_lone_closed_loop_client_is_never_batched() {
    let clock: SharedClock = ClockSpec::scaled(1000.0).build();
    let h = start(&clock, 1, ServingConfig::default());
    for _ in 0..3 {
        let req = InferenceRequest::new("one at a time", 16);
        let reply = h
            .client
            .request(inference_request_message("svc.plane", &req))
            .unwrap();
        assert_eq!(reply.kind, KIND_INFER_REPLY);
        assert_eq!(reply.header(HDR_BATCH_SIZE), Some("1"));
    }
    h.stop.store(true, Ordering::Release);
    h.serve_thread.join().unwrap();
}

/// What three requests sent to one busy LLM replica on a manual clock replied with, and
/// what the pool recorded; see the tests below.
struct ThreeRequests {
    /// In send order.
    replies: Vec<Message>,
    /// When each was dispatched, in send order.
    dispatched: Vec<SimTime>,
    /// The clock at each jump that ended a request.
    ended_at: Vec<SimTime>,
    seen: Arc<hpcml::sim::metrics::MetricRegistry>,
}

/// The request each of the three sends.
fn the_request() -> InferenceRequest {
    InferenceRequest::new("w ".repeat(40), 64)
}

impl ThreeRequests {
    /// `serving.*` / `comm.*` values, sorted: a registry groups them by thread.
    fn sorted(&self, name: &str) -> Vec<f64> {
        let mut values = self.seen.values(name);
        values.sort_by(f64::total_cmp);
        values
    }

    fn headers(&self, name: &str) -> Vec<&str> {
        self.replies
            .iter()
            .map(|r| r.header(name).unwrap())
            .collect()
    }

    /// [`ThreeRequests::assert_priced_queued`] for a replica that queued the third
    /// request behind the second.
    fn assert_priced(&self, replica_waits: [f64; 3]) {
        self.assert_priced_queued(replica_waits, [1.0, 1.0, 2.0]);
    }

    /// `service = admission queue + handling + batch wait + replica wait`, term by term,
    /// for replica waits of `replica_waits` (in send order): stamped and admitted at one
    /// virtual instant, a request has no admission queue; its batch wait is the
    /// millisecond that ended its handling sleep; and what is left is the handling.
    /// `queue_depths` are the `comm.queue.depth` values, sorted.
    fn assert_priced_queued(&self, replica_waits: [f64; 3], queue_depths: [f64; 3]) {
        use hpcml::serving::protocol::HDR_BATCH_WAIT_SECS;
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        let mut delays = Vec::new();
        for (reply, replica_wait) in self.replies.iter().zip(replica_waits) {
            assert_eq!(
                reply.kind,
                KIND_INFER_REPLY,
                "{:?}",
                reply.header(HDR_ERROR)
            );
            let batch_wait = reply.f64_header(HDR_BATCH_WAIT_SECS).unwrap();
            assert!(close(batch_wait, 0.001), "the millisecond: {batch_wait}");
            let delay = batch_wait + replica_wait;
            let handling = reply.f64_header(HDR_SERVICE_SECS).unwrap() - delay;
            assert!(
                handling > 0.0 && handling < 0.001,
                "what is left of `service` is the handling time: {handling}"
            );
            delays.push(delay);
        }
        delays.sort_by(f64::total_cmp);
        let recorded = self.sorted("serving.queue.delay_secs");
        assert_eq!(recorded.len(), 3);
        for (recorded, delay) in recorded.into_iter().zip(delays) {
            assert!(close(recorded, delay), "queue delay {recorded} vs {delay}");
        }
        // One `serving.queue.depth` per admission: the pool's unanswered requests,
        // this one included.
        assert_eq!(self.sorted("serving.queue.depth"), [1.0, 2.0, 3.0]);
        assert_eq!(self.sorted("serving.replica.outstanding"), [1.0, 2.0, 3.0]);
        assert_eq!(
            self.sorted("comm.queue.depth"),
            queue_depths,
            "how deep the replica's queue was with each request: 1 for one begun at once"
        );
        assert_eq!(self.seen.names().len(), 5, "{:?}", self.seen.names());
    }

    /// Each request ended when the rate law says, for requests that joined the batch at
    /// `joins`: from its join to its end it progressed by exactly its solo cost, at
    /// `progress_rate` of the width it shared, stretch by stretch — and it was answered
    /// the moment the clock reached that end.
    fn assert_rate_law(&self, joins: [f64; 3]) {
        use hpcml::serving::backend::progress_rate;
        use hpcml::serving::protocol::HDR_INFERENCE_SECS;
        use hpcml::serving::{ModelBackend, SimLlmBackend};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // The solo costs as the replica's host drew them: its seed, its load, then the
        // three requests in the order they were begun.
        let backend = SimLlmBackend::llama_8b();
        let mut rng = StdRng::seed_from_u64(91);
        backend.sample_load_secs(&mut rng);
        let solos = [(); 3].map(|_| backend.infer(&the_request(), &mut rng).compute_secs);

        let ends: Vec<f64> = joins
            .iter()
            .zip(&self.replies)
            .map(|(join, reply)| join + reply.f64_header(HDR_INFERENCE_SECS).unwrap())
            .collect();
        let mut instants: Vec<f64> = joins.iter().chain(&ends).copied().collect();
        instants.sort_by(f64::total_cmp);
        for (k, solo) in solos.into_iter().enumerate() {
            let progressed: f64 = instants
                .windows(2)
                .filter(|stretch| stretch[0] >= joins[k] && stretch[1] <= ends[k])
                .map(|stretch| {
                    let width = (0..3)
                        .filter(|&j| joins[j] <= stretch[0] && ends[j] >= stretch[1])
                        .count();
                    (stretch[1] - stretch[0]) * progress_rate(width)
                })
                .sum();
            assert!(
                (progressed - solo).abs() < 1e-6,
                "request {k} progressed {progressed} s of its solo {solo} s"
            );
            assert!(
                self.ended_at
                    .iter()
                    .any(|at| (at.as_secs_f64() - ends[k]).abs() < 1e-6),
                "request {k} ended at {} s, answered at {:?}",
                ends[k],
                self.ended_at
            );
        }
    }
}

/// How the test moves the clock once the three requests are dispatched.
#[derive(Clone, Copy, PartialEq)]
enum Jump {
    /// A minute at a time: each jump ends what is on the backend, late.
    Minute,
    /// To the next timer of the replica: each sequence ends, and whatever waits joins,
    /// exactly when the rate law says.
    NextEnd,
}

/// [`three_requests`], the clock moving a minute at a time.
fn three_requests_to_a_busy_replica(max_batch_size: usize) -> ThreeRequests {
    three_requests(max_batch_size, Jump::Minute)
}

/// On a manual clock, where time moves only when the test moves it: the first request
/// finds the replica idle and is begun by its own dispatch; the second and third are
/// dispatched, a virtual millisecond apart, while it computes, and join it or wait in
/// the replica's queue as `max_batch_size` allows. Then the clock moves by `jump` until
/// every request is answered.
fn three_requests(max_batch_size: usize, jump: Jump) -> ThreeRequests {
    use hpcml::sim::clock::{Clock, ManualClock};
    use hpcml::sim::metrics::{MetricRegistry, SharedScalarSink};

    let manual = Arc::new(ManualClock::new());
    let clock: SharedClock = Arc::clone(&manual) as SharedClock;
    let seen = Arc::new(MetricRegistry::new());
    let recorder = Arc::clone(&seen);
    let sink: SharedScalarSink =
        Arc::new(move |name: &str, value: f64| recorder.record(name, value));
    let wait_until = |what: &str, met: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !met() {
            assert!(std::time::Instant::now() < deadline, "never: {what}");
            thread::yield_now();
        }
    };
    // Loading sleeps the model's load time on the clock too.
    let loader = {
        let clock = Arc::clone(&clock);
        thread::spawn(move || loaded_hosts(1, &clock, 91))
    };
    wait_until("the model loads", &|| manual.pending_sleepers() == 1);
    manual.advance(Duration::from_secs(600));
    let service = Arc::new(InferenceService::with_config(
        "svc.plane",
        loader.join().unwrap(),
        Arc::clone(&clock),
        92,
        ServingConfig::default().max_batch_size(max_batch_size),
        sink,
    ));
    let endpoint = ReqRepServer::new("svc.plane");
    let client = endpoint.client(Link::instant(Arc::clone(&clock)));
    let stop = Arc::new(AtomicBool::new(false));
    let (svc, stop2) = (Arc::clone(&service), Arc::clone(&stop));
    let serve_thread = thread::spawn(move || svc.serve(&endpoint, &stop2));
    let pool = Arc::clone(service.pool());
    // Once `outstanding` requests are unanswered, the replica has filed its timer for
    // the next end and the timer thread sleeps: nothing else sleeps then, and the
    // deadline it sleeps on is still ahead and no later than the filed one. A timer
    // thread the last jump woke, and that has not run yet, still holds its passed
    // deadline; one a new, earlier entry interrupted may still hold the later one it
    // slept on. Jumping to either would end a request late, or begin the next one
    // after the clock jumped again. (An earlier deadline is an entry a join made
    // stale: the jump to it ends nothing.)
    let settled = |outstanding: u64| {
        pool.total_outstanding() == outstanding
            && (outstanding == 0
                || (manual.pending_sleepers() == 1
                    && pool.next_timer().is_some_and(|filed| {
                        manual
                            .next_deadline()
                            .is_some_and(|at| at > manual.now() && at <= filed)
                    })))
    };

    let mut dispatched = Vec::new();
    let requesters: Vec<_> = (1..=3)
        .map(|sent| {
            let client = client.clone();
            let requester = thread::spawn(move || {
                client
                    .request(inference_request_message("svc.plane", &the_request()))
                    .unwrap()
            });
            // Admission sleeps the handling time (tens of virtual µs) on the clock, on
            // the requester's thread; the millisecond that ends the sleep is the
            // request's whole wait until it is dispatched.
            wait_until("the request is in admission", &|| {
                manual.pending_sleepers() == if sent == 1 { 1 } else { 2 }
            });
            manual.advance(Duration::from_millis(1));
            // A request counts as outstanding before it reaches its replica; its
            // `comm.queue.depth` is recorded once the dispatch has returned.
            wait_until("the request is dispatched", &|| {
                settled(sent) && seen.values("comm.queue.depth").len() == sent as usize
            });
            dispatched.push(manual.now());
            requester
        })
        .collect();
    // A request takes a few virtual seconds: a jump of a minute ends whatever is on the
    // backend, 60.003 s after the first request was sent for the first jump; a jump to
    // the next timer ends the sequence it is filed for, or nothing if a join made it
    // stale.
    let mut ended_at = Vec::new();
    while pool.total_outstanding() > 0 {
        let before = pool.total_outstanding();
        let ends = match jump {
            Jump::Minute => {
                manual.advance(Duration::from_secs(60));
                0..before
            }
            Jump::NextEnd => {
                manual.advance_to_next();
                0..before + 1
            }
        };
        wait_until("a request ends and what waits begins", &|| {
            ends.clone().any(&settled)
        });
        if pool.total_outstanding() < before {
            ended_at.push(manual.now());
        }
    }
    let replies = requesters.into_iter().map(|r| r.join().unwrap()).collect();
    stop.store(true, Ordering::Release);
    assert_eq!(serve_thread.join().unwrap(), 3);
    ThreeRequests {
        replies,
        dispatched,
        ended_at,
        seen,
    }
}

/// Requests join the running batch: at the default cap the second and third requests
/// are begun by their own dispatches while the first computes, so none is priced any
/// replica wait, and every sequence ends exactly when the rate law says.
#[test]
fn requests_sent_to_a_busy_replica_join_its_running_batch() {
    let three = three_requests(8, Jump::NextEnd);
    assert_eq!(three.headers(HDR_BATCH_SIZE), ["1", "2", "3"]);
    assert_eq!(
        three.sorted("serving.batch.size"),
        [1.0, 2.0, 3.0],
        "the width each joined"
    );
    three.assert_priced_queued([0.0; 3], [1.0; 3]);
    let joins = [0, 1, 2].map(|k| three.dispatched[k].as_secs_f64());
    three.assert_rate_law(joins);
    assert_eq!(three.ended_at.len(), 3, "one end at a time");
}

/// Only requests beyond the cap queue, and only until the first sequence ends: at cap 2
/// the second request joins the first, and the third waits in the queue until the
/// moment the first of the two ends, joins there and then, and is priced exactly that
/// wait.
#[test]
fn a_request_beyond_the_cap_waits_only_until_the_first_sequence_ends() {
    let three = three_requests(2, Jump::NextEnd);
    assert_eq!(three.headers(HDR_BATCH_SIZE), ["1", "2", "2"]);
    assert_eq!(
        three.sorted("serving.batch.size"),
        [1.0, 2.0, 2.0],
        "the width each joined"
    );
    let first_end = three.ended_at[0].as_secs_f64();
    let waited = first_end - three.dispatched[2].as_secs_f64();
    three.assert_priced_queued([0.0, 0.0, waited], [1.0; 3]);
    let joins = [
        three.dispatched[0].as_secs_f64(),
        three.dispatched[1].as_secs_f64(),
        first_end,
    ];
    three.assert_rate_law(joins);
}

/// With `max_batch_size(1)` the same three requests are begun one at a time — the
/// paper's service: carried or queued, a request is priced and recorded alike.
#[test]
fn a_batch_begun_directly_and_one_that_queued_are_priced_and_recorded_alike() {
    let three = three_requests_to_a_busy_replica(1);
    assert_eq!(three.headers(HDR_BATCH_SIZE), ["1", "1", "1"]);
    assert_eq!(three.sorted("serving.batch.size"), [1.0, 1.0, 1.0]);
    // The second began when the first ended, at 60.003 s; the third when the second
    // did, a minute later.
    three.assert_priced([0.0, 60.001, 120.0]);
}
