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
use hpcml::serving::protocol::{
    HDR_BATCH_SIZE, HDR_ERROR, HDR_REQUEST_ID, HDR_RETRY_AFTER_SECS, HDR_SERVICE_SECS,
    KIND_INFER_REPLY, KIND_SHED,
};
use hpcml::serving::service::{inference_request_message, inference_request_message_with_deadline};
use hpcml::serving::{InferenceRequest, InferenceService, ModelHost, ServingConfig};
use hpcml::sim::clock::SharedClock;
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
/// what the pool recorded; see the two tests below.
struct ThreeRequests {
    /// In send order.
    replies: Vec<Message>,
    seen: Arc<hpcml::sim::metrics::MetricRegistry>,
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

    /// `service = admission queue + handling + batch wait + replica wait`, term by term,
    /// for replica waits of `replica_waits` (in send order): stamped and admitted at one
    /// virtual instant, a request has no admission queue; its batch wait is the
    /// millisecond that ended its handling sleep; and what is left is the handling.
    fn assert_priced(&self, replica_waits: [f64; 3]) {
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
            [1.0, 1.0, 2.0],
            "the first request begun by its dispatch, the others queued behind it"
        );
        assert_eq!(self.seen.names().len(), 5, "{:?}", self.seen.names());
    }
}

/// On a manual clock, where time moves only when the test moves it: the first request
/// finds the replica idle and is begun by its own dispatch; the second and third are
/// dispatched, a virtual millisecond apart, while that batch computes, and wait in the
/// replica's queue. The first batch ends when the clock jumps a minute; whatever comes
/// next is begun there and then, and every later jump ends one more batch.
fn three_requests_to_a_busy_replica(max_batch_size: usize) -> ThreeRequests {
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
    // Once `outstanding` requests are unanswered, the one batch on the backend has
    // filed its timer, and the timer thread sleeps on it: nothing else sleeps then,
    // and the deadline is still ahead. A timer thread the last jump woke, and that has
    // not run yet, still holds its passed deadline; whoever finishes the old batch
    // meanwhile must not begin the next one after the clock jumps again.
    let settled = |outstanding: u64| {
        pool.total_outstanding() == outstanding
            && (outstanding == 0
                || (manual.pending_sleepers() == 1
                    && manual.next_deadline().is_some_and(|at| at > manual.now())))
    };

    let requesters: Vec<_> = (1..=3)
        .map(|sent| {
            let client = client.clone();
            let requester = thread::spawn(move || {
                let req = InferenceRequest::new("w ".repeat(40), 64);
                client
                    .request(inference_request_message("svc.plane", &req))
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
            requester
        })
        .collect();
    // A batch takes a few virtual seconds: each jump of a minute ends the one on the
    // backend, 60.003 s after the first request was sent for the first batch.
    while pool.total_outstanding() > 0 {
        let before = pool.total_outstanding();
        manual.advance(Duration::from_secs(60));
        wait_until("a batch ends and the next begins", &|| {
            (0..before).any(&settled)
        });
    }
    let replies = requesters.into_iter().map(|r| r.join().unwrap()).collect();
    stop.store(true, Ordering::Release);
    assert_eq!(serve_thread.join().unwrap(), 3);
    ThreeRequests { replies, seen }
}

/// Requests batch where they wait: the two that queued behind the first batch are begun
/// together when it ends — one backend call, so both replies carry batch size 2 and the
/// same inference time — and both are priced their replica wait from that end.
#[test]
fn requests_queued_behind_a_busy_replica_are_begun_together_when_it_frees() {
    use hpcml::serving::protocol::HDR_INFERENCE_SECS;
    let three = three_requests_to_a_busy_replica(8);
    assert_eq!(three.headers(HDR_BATCH_SIZE), ["1", "2", "2"]);
    let inference = three.headers(HDR_INFERENCE_SECS);
    assert_eq!(inference[1], inference[2], "one backend call");
    assert_eq!(three.sorted("serving.batch.size"), [1.0, 2.0], "two begun");
    // Dispatched at 0.002 and 0.003 s; the first batch ended at 60.003 s.
    three.assert_priced([0.0, 60.001, 60.0]);
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
