//! The inference service: binds a replica pool to a REQ/REP endpoint.
//!
//! [`InferenceService::serve`] is what runs inside a *service task* once the runtime has
//! launched it. The service is an admission front-end over the serving plane:
//!
//! 1. requests are admitted in arrival order; each carries its [`InferenceRequest`] as
//!    a value shared with the client ([`inference_request_message`]), which admission
//!    reads and hands on as it is — a request message without one gets a [`KIND_ERROR`]
//!    reply;
//! 2. admission control sheds requests when `queue_capacity` requests are already
//!    admitted and unanswered, or when a request's deadline cannot be met at the
//!    current estimated queue delay ([`KIND_SHED`] + [`HDR_RETRY_AFTER_SECS`]);
//! 3. an admitted request is dispatched at once to the least-loaded replica of a
//!    [`ReplicaPool`] — where it joins the replica's running batch — which
//!    executes it and stamps the paper's `service` / `inference` time decomposition
//!    onto its reply.
//!
//! # No serve-loop thread, and queues that hold only what waits
//!
//! The front-end is a run advanced by whoever sends to it, not a loop in a thread:
//! `serve` arms the endpoint with the run as its [`Server`]
//! ([`ReqRepServer::attach`]) and then only sleeps until it is told to stop. The run's
//! [`RunCell`] is *the service's turn* — one pass at a time, so endpoint order = admission
//! order = dispatch order — which a client takes ([`RunCell::try_hold`]) to make the
//! pass on its own thread; a client that finds it taken waits a bounded number of
//! polls and then queues behind the holder (see [`hpcml_comm::reqrep`]). A request that
//! finds the turn free and the mailbox empty is *carried* into the pass, not queued;
//! an idle replica begins the request it is handed, not queues it — so an idle service
//! admits, runs and answers a request on its sender's stack under the turn alone,
//! through the same `admit` and [`ReplicaPool::dispatch`] as a request that waited at
//! either of the two. A pass never parks on anything: it ends when nothing waits.
//!
//! The turn is polled by senders that wait for it, so it has a cache line nothing else
//! is written on; what its holder writes per request (admission state, the served
//! count) shares another, apart from what every pass only reads. Lock order: front-end
//! state (locked by whoever holds the run, and by `serve` when it winds down) → replica
//! run → leaves (see [`crate::pool`]); the endpoint calls the server with no comm lock
//! held.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use hpcml_comm::message::Message;
use hpcml_comm::reqrep::{Mailbox, ReqRepServer, Responder, Server, HDR_ENQUEUED_AT};
use hpcml_sim::clock::SharedClock;
use hpcml_sim::dist::Dist;
use hpcml_sim::metrics::{null_sink, SharedScalarSink};
use hpcml_sim::pool::{OwnLine, Pool, RunCell};

use crate::config::ServingConfig;
use crate::host::ModelHost;
use crate::pool::{BatchItem, ReplicaPool};
use crate::protocol::*;
use crate::request::InferenceRequest;

/// How long `serve` sleeps before re-checking its stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// One service instance: an admission front-end over a replica pool.
pub struct InferenceService {
    front: Arc<FrontEnd>,
    /// Resumes the replicas when their batches end: the runtime executor's
    /// pool, or a private one — which starts no thread before the first park, and is
    /// joined when the service is dropped.
    _executor: Arc<Pool>,
}

/// The admission front-end: a run whose cell is the service's turn.
struct FrontEnd {
    name: String,
    /// The first replica's host, kept for readiness probes and spec queries.
    primary: Arc<ModelHost>,
    pool: Arc<ReplicaPool>,
    clock: SharedClock,
    config: ServingConfig,
    /// Request parsing/serialisation overhead (the non-queue part of `service` time).
    handling_overhead: Dist,
    sink: SharedScalarSink,
    /// The service's turn: polled by senders that wait for it, alone on its line.
    turn: OwnLine<RunCell>,
    /// What the turn's holder writes per request, on lines of its own.
    admission: OwnLine<Mutex<Admission>>,
    /// Wakes `serve`'s thread when a pass has met a shutdown message.
    shutdown_met: Condvar,
}

/// What the front-end thread's locals used to be; locked by the holder of the run. In
/// declaration order: what every admission writes shares the lock word's line.
#[repr(C)]
struct Admission {
    /// Messages handled since `serve` attached.
    handled: u64,
    /// Inference requests admitted, ever.
    served: u64,
    rng: StdRng,
    /// The endpoint being served; `None` outside `serve` and once a pass has met a
    /// shutdown message — nothing more is admitted.
    mailbox: Option<Mailbox>,
    /// A shutdown message a pass met — topic and reply handle — left for `serve`'s
    /// thread to acknowledge.
    shutdown: Option<(Cow<'static, str>, Responder)>,
}

impl std::fmt::Debug for InferenceService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceService")
            .field("name", &self.front.name)
            .field("model", &self.front.primary.spec().name)
            .field("replicas", &self.front.pool.replica_count())
            .field("max_batch_size", &self.front.config.max_batch_size)
            .field("requests_served", &self.requests_served())
            .finish()
    }
}

impl InferenceService {
    /// Create a single-replica service around one model host: `with_config` with
    /// [`ServingConfig::default`].
    pub fn new(
        name: impl Into<String>,
        host: Arc<ModelHost>,
        clock: SharedClock,
        seed: u64,
    ) -> Self {
        Self::with_config(
            name,
            vec![host],
            clock,
            seed,
            ServingConfig::default(),
            null_sink(),
        )
    }

    /// Create a service over explicit replicas with a full serving configuration, on
    /// an executor pool of its own (standalone use: tests, benches).
    ///
    /// # Panics
    /// Panics when `hosts` is empty — a service needs at least one replica.
    pub fn with_config(
        name: impl Into<String>,
        hosts: Vec<Arc<ModelHost>>,
        clock: SharedClock,
        seed: u64,
        config: ServingConfig,
        sink: SharedScalarSink,
    ) -> Self {
        let executor = Arc::new(Pool::new(Arc::clone(&clock)));
        Self::on_executor(name, hosts, clock, seed, config, sink, executor)
    }

    /// [`InferenceService::with_config`] on the given executor pool — the runtime
    /// passes the one that resumes its tasks, so a session's services add no threads
    /// to it. The pool must run on `clock`.
    pub fn on_executor(
        name: impl Into<String>,
        hosts: Vec<Arc<ModelHost>>,
        clock: SharedClock,
        seed: u64,
        config: ServingConfig,
        sink: SharedScalarSink,
        executor: Arc<Pool>,
    ) -> Self {
        assert!(!hosts.is_empty(), "a service needs at least one replica");
        let primary = Arc::clone(&hosts[0]);
        let pool = Arc::new(ReplicaPool::new(
            hosts,
            Arc::clone(&clock),
            Arc::clone(&sink),
            &executor,
            config.max_batch_size,
        ));
        let front = Arc::new(FrontEnd {
            name: name.into(),
            primary,
            pool,
            clock,
            config,
            // Parsing + reply serialisation: tens of microseconds, so the "service"
            // component stays below the network latency for NOOP calls (Figs. 4-5).
            handling_overhead: Dist::normal(0.00003, 0.00001),
            sink,
            turn: OwnLine(RunCell::parked()),
            admission: OwnLine(Mutex::new(Admission {
                handled: 0,
                served: 0,
                rng: StdRng::seed_from_u64(seed),
                mailbox: None,
                shutdown: None,
            })),
            shutdown_met: Condvar::new(),
        });
        InferenceService {
            front,
            _executor: executor,
        }
    }

    /// Service name (usually the service task id).
    pub fn name(&self) -> &str {
        &self.front.name
    }

    /// The replica pool behind this service.
    pub fn pool(&self) -> &Arc<ReplicaPool> {
        &self.front.pool
    }

    /// The serving configuration in effect.
    pub fn config(&self) -> &ServingConfig {
        &self.front.config
    }

    /// Inference requests admitted by this service.
    pub fn requests_served(&self) -> u64 {
        self.front.admission.lock().served
    }

    /// Serve `endpoint` until `stop` is set or a shutdown message arrives. Returns the
    /// number of messages handled in this invocation. On exit the pool is quiesced, so
    /// every admitted request is answered before the call returns. The calling thread
    /// serves nothing itself: it arms the endpoint with the front-end run and sleeps
    /// (see the module docs). One `serve` at a time per service.
    pub fn serve(&self, endpoint: &ReqRepServer, stop: &AtomicBool) -> u64 {
        let front = &self.front;
        {
            let mut admission = front.admission.lock();
            admission.mailbox = Some(endpoint.mailbox());
            admission.handled = 0;
        }
        // Not under the lock: attaching to a non-empty queue makes a pass right here.
        endpoint.attach(Arc::clone(front) as Arc<dyn Server>);
        let handled = {
            let mut admission = front.admission.lock();
            while admission.shutdown.is_none() && !stop.load(Ordering::Acquire) {
                front.shutdown_met.wait_for(&mut admission, POLL_INTERVAL);
            }
            // From here on no pass admits anything.
            admission.mailbox = None;
            if let Some((topic, responder)) = admission.shutdown.take() {
                let reply = Message::new(topic, KIND_PONG).with_header("stopping", "true");
                let _ = responder.reply(reply);
            }
            admission.handled
        };
        endpoint.detach();
        front.pool.quiesce();
        handled
    }
}

/// The run's cell is the service's turn: whoever holds the run makes the pass.
impl Server for FrontEnd {
    fn try_take_turn(&self) -> bool {
        self.turn.try_hold()
    }

    fn serve_turn(&self, mut carried: Option<(Message, Responder)>) {
        // Again whenever something was queued during the pass.
        self.turn.advance_until_parked(|| self.pass(carried.take()));
    }

    fn wake(&self) {
        if self.turn.hold_or_notify() {
            self.serve_turn(None);
        }
    }
}

impl FrontEnd {
    /// One pass of the front-end: admit what the caller carried or — if it carried
    /// nothing — what waits in the mailbox, in arrival order.
    fn pass(&self, mut carried: Option<(Message, Responder)>) {
        let mut admission = self.admission.lock();
        // What was carried found the mailbox empty, and whatever is queued behind the
        // turn notifies its holder: only a pass that carried nothing looks there.
        let look = carried.is_none();
        loop {
            let next = admission.mailbox.as_ref().and_then(|mailbox| {
                carried
                    .take()
                    .or_else(|| look.then(|| mailbox.try_recv()).flatten())
            });
            let Some((msg, responder)) = next else {
                break;
            };
            if msg.kind == KIND_SHUTDOWN {
                // Acknowledged by `serve`'s thread, so that whoever asked for the
                // stop gets its reply only once that thread is on its way out.
                admission.mailbox = None;
                admission.shutdown = Some((msg.topic, responder));
                self.shutdown_met.notify_one();
                break;
            }
            self.admit(msg, responder, &mut admission);
            admission.handled += 1;
        }
    }

    /// Handle one received message: control messages answer inline, inference
    /// requests pass admission control on to the replica pool.
    fn admit(&self, msg: Message, responder: Responder, admission: &mut Admission) {
        match &*msg.kind {
            KIND_PING => {
                let ready = self.primary.is_loaded();
                let reply = Message::new(msg.topic, KIND_PONG)
                    .with_header("ready", if ready { "true" } else { "false" })
                    .with_header(HDR_MODEL, self.primary.spec().name.clone());
                let _ = responder.reply(reply);
            }
            KIND_INFER_REQUEST => self.admit_inference(msg, responder, admission),
            other => {
                let why = format!("unknown message kind: {other}");
                let reply = Message::new(msg.topic, KIND_ERROR).with_header(HDR_ERROR, why);
                let _ = responder.reply(reply);
            }
        }
    }

    /// Admit one inference request, carried or queued: shed it, or spend its handling
    /// time and dispatch it.
    fn admit_inference(&self, msg: Message, responder: Responder, admission: &mut Admission) {
        let arrived_secs = self.clock.now().as_secs_f64();
        // Time already spent in the endpoint queue counts toward `service` time; the
        // client stamps its enqueue instant after link traversal.
        let admission_queue_secs = msg
            .f64_header(HDR_ENQUEUED_AT)
            .map(|enq| (arrived_secs - enq).max(0.0))
            .unwrap_or(0.0);
        let deadline = msg.f64_header(HDR_DEADLINE_SECS);

        let Some(request) = msg.payload.downcast::<InferenceRequest>() else {
            let reply = Message::new(msg.topic, KIND_ERROR)
                .with_header(HDR_ERROR, "malformed inference request: no request value");
            let _ = responder.reply(reply);
            return;
        };

        // Shed rather than admit beyond the bound on unanswered requests, and reject
        // now (cheap) rather than time out later (expensive) a request whose deadline
        // the estimated queue delay already exceeds.
        let backlog = self.pool.total_outstanding();
        let late = |deadline_secs| self.pool.estimated_queue_delay_secs(backlog) > deadline_secs;
        if backlog >= self.config.queue_capacity as u64
            || (self.config.shed_deadlines && deadline.is_some_and(late))
        {
            self.shed(msg.topic, &request.request_id, responder, backlog);
            return;
        }

        // The modelled parsing / serialisation overhead of a real service.
        let handling_secs = self.handling_overhead.sample(&mut admission.rng).max(0.0);
        self.clock.sleep(Duration::from_secs_f64(handling_secs));

        let now = self.clock.now();
        let dispatched_secs = now.as_secs_f64();
        let item = BatchItem {
            request,
            responder,
            topic: msg.topic,
            admission_queue_secs,
            handling_secs,
            batch_wait_secs: (dispatched_secs - arrived_secs).max(0.0),
            dispatched_secs,
        };
        admission.served += 1;
        // The pool's unanswered requests, this one included.
        self.sink.record_count("serving.queue.depth", backlog + 1);
        self.pool.dispatch(item, now);
    }

    fn shed(&self, topic: Cow<'static, str>, request_id: &str, responder: Responder, backlog: u64) {
        // Never zero, even on a pool no batch has calibrated yet: a retry costs at least
        // one request's service, and at least its handling.
        let retry_after_secs = self
            .pool
            .estimated_queue_delay_secs(backlog)
            .max(self.pool.estimated_request_secs())
            .max(self.handling_overhead.mean());
        let reply = Message::new(topic, KIND_SHED)
            .with_header(HDR_REQUEST_ID, request_id.to_string())
            .with_f64_header(HDR_RETRY_AFTER_SECS, retry_after_secs);
        let _ = responder.reply(reply);
        self.sink.record("serving.shed", 1.0);
    }
}

/// Build the message for an inference request (client side helper). The message
/// carries `request` itself, shared and never encoded, priced at its
/// [`InferenceRequest::wire_len`]; a client that keeps an `Arc` of it can renew it in
/// place once the reply has come (a replica lets go of it before it answers).
pub fn inference_request_message(
    endpoint: &str,
    request: impl Into<Arc<InferenceRequest>>,
) -> Message {
    let request = request.into();
    let wire_len = request.wire_len();
    Message::new(endpoint.to_string(), KIND_INFER_REQUEST)
        .with_header(HDR_REQUEST_ID, request.request_id.clone())
        .with_value(request, wire_len)
}

/// [`inference_request_message`] with a completion deadline attached: the service sheds
/// the request upfront when its estimated queue delay exceeds `deadline_secs`.
pub fn inference_request_message_with_deadline(
    endpoint: &str,
    request: impl Into<Arc<InferenceRequest>>,
    deadline_secs: f64,
) -> Message {
    inference_request_message(endpoint, request).with_f64_header(HDR_DEADLINE_SECS, deadline_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::shared_host;
    use crate::model::ModelSpec;
    use hpcml_comm::link::Link;
    use hpcml_sim::clock::ClockSpec;
    use std::thread;

    // Moderate compression: real scheduling jitter (tens of µs) stays well below the
    // virtual durations asserted on (hundreds of ms and up).
    fn clock() -> SharedClock {
        ClockSpec::scaled(1000.0).build()
    }

    fn start_service(
        spec: ModelSpec,
        clock: SharedClock,
    ) -> (
        Arc<AtomicBool>,
        thread::JoinHandle<u64>,
        hpcml_comm::ReqRepClient,
    ) {
        start_with_config(spec, clock, 1, ServingConfig::default())
    }

    fn start_with_config(
        spec: ModelSpec,
        clock: SharedClock,
        replicas: usize,
        config: ServingConfig,
    ) -> (
        Arc<AtomicBool>,
        thread::JoinHandle<u64>,
        hpcml_comm::ReqRepClient,
    ) {
        let hosts: Vec<Arc<ModelHost>> = (0..replicas.max(1))
            .map(|i| {
                let h = shared_host(spec.clone(), Arc::clone(&clock), 7 + i as u64);
                h.load();
                h
            })
            .collect();
        let service = InferenceService::with_config(
            "svc.test",
            hosts,
            Arc::clone(&clock),
            8,
            config,
            null_sink(),
        );
        let endpoint = ReqRepServer::new("svc.test");
        let client = endpoint.client(Link::instant(Arc::clone(&clock)));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = thread::spawn(move || service.serve(&endpoint, &stop2));
        (stop, handle, client)
    }

    #[test]
    fn ping_reports_readiness() {
        let c = clock();
        let (stop, handle, client) = start_service(ModelSpec::noop(), Arc::clone(&c));
        let reply = client.request(Message::new("svc.test", KIND_PING)).unwrap();
        assert_eq!(reply.kind, KIND_PONG);
        assert_eq!(reply.header("ready"), Some("true"));
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }

    #[test]
    fn noop_inference_has_negligible_inference_time() {
        let c = clock();
        let (stop, handle, client) = start_service(ModelSpec::noop(), Arc::clone(&c));
        let req = InferenceRequest::new("ping", 1).from_client("task.0");
        let reply = client
            .request(inference_request_message("svc.test", req))
            .unwrap();
        assert_eq!(reply.kind, KIND_INFER_REPLY);
        assert_eq!(reply.f64_header(HDR_INFERENCE_SECS), Some(0.0));
        assert!(reply.f64_header(HDR_SERVICE_SECS).unwrap() >= 0.0);
        assert_eq!(reply.header(HDR_MODEL), Some("noop"));
        assert_eq!(reply.header(HDR_BATCH_SIZE), Some("1"));
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }

    #[test]
    fn llm_inference_reports_dominant_inference_time() {
        let c = clock();
        let (stop, handle, client) = start_service(ModelSpec::sim_llama_8b(), Arc::clone(&c));
        let req = InferenceRequest::new("word ".repeat(60), 128).from_client("task.1");
        let reply = client
            .request(inference_request_message("svc.test", req))
            .unwrap();
        assert_eq!(reply.kind, KIND_INFER_REPLY);
        let inference = reply.f64_header(HDR_INFERENCE_SECS).unwrap();
        let service = reply.f64_header(HDR_SERVICE_SECS).unwrap();
        assert!(inference > 0.5, "inference {inference}");
        assert!(
            service < inference,
            "service {service} must be dwarfed by inference {inference}"
        );
        let tokens: u32 = reply
            .header(HDR_COMPLETION_TOKENS)
            .unwrap()
            .parse()
            .unwrap();
        assert!(tokens >= 1);
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }

    #[test]
    fn malformed_payload_yields_error_reply() {
        let c = clock();
        let (stop, handle, client) = start_service(ModelSpec::noop(), Arc::clone(&c));
        // A request message that carries no `InferenceRequest`: text, or nothing.
        for malformed in [
            Message::new("svc.test", KIND_INFER_REQUEST).with_text("not a valid payload"),
            Message::new("svc.test", KIND_INFER_REQUEST),
        ] {
            let reply = client.request(malformed).unwrap();
            assert_eq!(reply.kind, KIND_ERROR);
            assert!(reply.header(HDR_ERROR).unwrap().contains("malformed"));
        }
        // The service still answers a valid request on the same endpoint.
        let req = InferenceRequest::new("still here", 1).from_client("task.0");
        let id = req.request_id.clone();
        let reply = client
            .request(inference_request_message("svc.test", req))
            .unwrap();
        assert_eq!(reply.kind, KIND_INFER_REPLY);
        assert_eq!(reply.header(HDR_REQUEST_ID), Some(id.as_str()));
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }

    #[test]
    fn a_request_message_is_priced_at_its_hand_counted_wire_length() {
        let request = Arc::new(InferenceRequest {
            request_id: "request.000042".into(),
            prompt: "What does a low dose of radiation do to a cell?".into(),
            max_tokens: 64,
            client_id: "task.000007".into(),
        });
        // The request: version 1 + four 4-byte fields (three string lengths and
        // `max_tokens`) + "request.000042" 14 + "task.000007" 11 + the 47-byte prompt
        // = 89. The message: fixed part 29 + "svc.pin" 7 + "inference.request" 17
        //    + 8 + "svc.request_id" 14 + "request.000042" 14 + the request 89 = 178.
        let message = inference_request_message("svc.pin", Arc::clone(&request));
        assert_eq!(message.encoded_len(), 178);
        // + 8 + "svc.deadline_secs" 17 + "2.500000000" 11 = 214.
        let message = inference_request_message_with_deadline("svc.pin", request, 2.5);
        assert_eq!(message.encoded_len(), 214);
    }

    #[test]
    fn unknown_kind_yields_error_reply() {
        let c = clock();
        let (stop, handle, client) = start_service(ModelSpec::noop(), Arc::clone(&c));
        let reply = client
            .request(Message::new("svc.test", "bogus.kind"))
            .unwrap();
        assert_eq!(reply.kind, KIND_ERROR);
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_message_stops_the_loop() {
        let c = clock();
        let (_stop, handle, client) = start_service(ModelSpec::noop(), Arc::clone(&c));
        let reply = client
            .request(Message::new("svc.test", KIND_SHUTDOWN))
            .unwrap();
        assert_eq!(reply.header("stopping"), Some("true"));
        // The loop must exit on its own without the stop flag being set.
        handle.join().unwrap();
    }

    #[test]
    fn unloaded_host_reports_not_ready_and_errors() {
        let c = clock();
        let host = shared_host(ModelSpec::sim_llama_8b(), Arc::clone(&c), 9);
        // Deliberately not loaded.
        let service = InferenceService::new("svc.cold", Arc::clone(&host), Arc::clone(&c), 10);
        let endpoint = ReqRepServer::new("svc.cold");
        let client = endpoint.client(Link::instant(Arc::clone(&c)));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = thread::spawn(move || service.serve(&endpoint, &stop2));

        let pong = client.request(Message::new("svc.cold", KIND_PING)).unwrap();
        assert_eq!(pong.header("ready"), Some("false"));
        let req = InferenceRequest::new("early", 4);
        let reply = client
            .request(inference_request_message("svc.cold", req))
            .unwrap();
        assert_eq!(reply.kind, KIND_ERROR);
        assert!(reply.header(HDR_ERROR).unwrap().contains("not loaded"));

        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }

    #[test]
    fn queueing_shows_up_in_service_time_only_beyond_the_cap() {
        // A second request dispatched, a virtual millisecond after the first, while the
        // first computes on the one replica — on a manual clock, so nothing ends before
        // the test moves time. One request at a time, it waits out the first's
        // inference; under the default cap it joins the running batch instead. Returns
        // its reply.
        let second_request = |max_batch_size: usize| {
            let manual = Arc::new(hpcml_sim::clock::ManualClock::new());
            let c: SharedClock = Arc::clone(&manual) as SharedClock;
            let sleepers = |n: usize| {
                while manual.pending_sleepers() != n {
                    thread::yield_now();
                }
            };
            let host = shared_host(ModelSpec::sim_llama_8b(), Arc::clone(&c), 20);
            let loader = {
                let host = Arc::clone(&host);
                thread::spawn(move || host.load())
            };
            sleepers(1);
            manual.advance(Duration::from_secs(600));
            loader.join().unwrap();
            let config = ServingConfig::default().max_batch_size(max_batch_size);
            let service = Arc::new(InferenceService::with_config(
                "svc.q",
                vec![host],
                Arc::clone(&c),
                21,
                config,
                null_sink(),
            ));
            let endpoint = ReqRepServer::new("svc.q");
            let client = endpoint.client(Link::instant(Arc::clone(&c)));
            let stop = Arc::new(AtomicBool::new(false));
            let (svc, stop2) = (Arc::clone(&service), Arc::clone(&stop));
            let server_thread = thread::spawn(move || svc.serve(&endpoint, &stop2));
            let send = |n: u64| {
                let client = client.clone();
                let requester = thread::spawn(move || {
                    let req = InferenceRequest::new("w ".repeat(40), 64);
                    client
                        .request(inference_request_message("svc.q", req))
                        .unwrap()
                });
                // Its handling sleep, beside the first's timer if there is one.
                sleepers(n as usize);
                manual.advance(Duration::from_millis(1));
                while service.pool().total_outstanding() < n || manual.pending_sleepers() != 1 {
                    thread::yield_now();
                }
                requester
            };
            let (first, second) = (send(1), send(2));
            while !(first.is_finished() && second.is_finished()) {
                manual.advance(Duration::from_secs(60));
                thread::sleep(Duration::from_millis(1));
            }
            first.join().unwrap();
            stop.store(true, Ordering::Release);
            server_thread.join().unwrap();
            second.join().unwrap()
        };
        let queued = second_request(1);
        let waited = queued.f64_header(HDR_SERVICE_SECS).unwrap();
        let inference = queued.f64_header(HDR_INFERENCE_SECS).unwrap();
        assert!(
            waited > inference,
            "it waited out the first's inference: {waited} vs its own {inference}"
        );
        let joined = second_request(ServingConfig::default().max_batch_size);
        assert_eq!(
            joined.header(HDR_BATCH_SIZE),
            Some("2"),
            "it joined the first"
        );
        let admitted = joined.f64_header(HDR_SERVICE_SECS).unwrap();
        assert!(
            admitted < 0.002,
            "its millisecond of admission and its handling: {admitted}"
        );
    }

    #[test]
    fn concurrent_clients_batch_behind_a_busy_replica() {
        let c = clock();
        let (stop, handle, client) = start_service(ModelSpec::sim_llama_8b(), Arc::clone(&c));
        let clients: Vec<_> = (0..8).map(|_| client.clone()).collect();
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, cl)| {
                thread::spawn(move || {
                    let req =
                        InferenceRequest::new("q ".repeat(30), 64).from_client(format!("task.{i}"));
                    cl.request(inference_request_message("svc.test", req))
                        .unwrap()
                })
            })
            .collect();
        let replies: Vec<Message> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut max_batch = 0usize;
        for reply in &replies {
            assert_eq!(
                reply.kind,
                KIND_INFER_REPLY,
                "{:?}",
                reply.header(HDR_ERROR)
            );
            let b: usize = reply.header(HDR_BATCH_SIZE).unwrap().parse().unwrap();
            max_batch = max_batch.max(b);
            assert!(reply.f64_header(HDR_BATCH_WAIT_SECS).unwrap() >= 0.0);
        }
        assert!(
            max_batch >= 2,
            "concurrent requests should batch, best batch {max_batch}"
        );
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }

    #[test]
    fn capacity_overflow_sheds_with_retry_after() {
        // Room for two unanswered requests, both on the backend: the second joins the
        // first. On a manual clock neither is answered before the test moves time, so a third
        // is shed — by a pool no request has calibrated yet, with a retry-after all the
        // same.
        let manual = Arc::new(hpcml_sim::clock::ManualClock::new());
        let c: SharedClock = Arc::clone(&manual) as SharedClock;
        let sleepers = |n: usize| {
            while manual.pending_sleepers() != n {
                thread::yield_now();
            }
        };
        let host = shared_host(ModelSpec::sim_llama_8b(), Arc::clone(&c), 22);
        let loader = {
            let host = Arc::clone(&host);
            thread::spawn(move || host.load())
        };
        sleepers(1);
        manual.advance(Duration::from_secs(600));
        loader.join().unwrap();
        let config = ServingConfig::default().queue_capacity(2);
        let service = Arc::new(InferenceService::with_config(
            "svc.full",
            vec![host],
            Arc::clone(&c),
            23,
            config,
            null_sink(),
        ));
        let endpoint = ReqRepServer::new("svc.full");
        let client = endpoint.client(Link::instant(Arc::clone(&c)));
        let stop = Arc::new(AtomicBool::new(false));
        let (svc, stop2) = (Arc::clone(&service), Arc::clone(&stop));
        let server_thread = thread::spawn(move || svc.serve(&endpoint, &stop2));
        let admit = |n: u64| {
            let cl = client.clone();
            let requester = thread::spawn(move || {
                let req = InferenceRequest::new("w ".repeat(40), 64);
                cl.request(inference_request_message("svc.full", req))
                    .unwrap()
            });
            // Its handling sleep, beside the running batch's timer if there is one.
            sleepers(n as usize);
            manual.advance(Duration::from_millis(1));
            while service.pool().total_outstanding() < n || manual.pending_sleepers() != 1 {
                thread::yield_now();
            }
            requester
        };
        let (first, second) = (admit(1), admit(2));
        let req = InferenceRequest::new("x", 1);
        let shed = client
            .request(inference_request_message("svc.full", req))
            .unwrap();
        assert_eq!(shed.kind, KIND_SHED, "{:?}", shed.header(HDR_ERROR));
        assert!(shed.f64_header(HDR_RETRY_AFTER_SECS).unwrap() > 0.0);
        assert!(shed.header(HDR_REQUEST_ID).is_some());
        while !(first.is_finished() && second.is_finished()) {
            manual.advance(Duration::from_secs(60));
            thread::sleep(Duration::from_millis(1));
        }
        for requester in [first, second] {
            assert_eq!(requester.join().unwrap().kind, KIND_INFER_REPLY);
        }
        assert_eq!(service.requests_served(), 2);
        stop.store(true, Ordering::Release);
        server_thread.join().unwrap();
    }

    #[test]
    fn deadline_miss_is_shed_upfront() {
        let c = clock();
        let (stop, handle, client) = start_with_config(
            ModelSpec::sim_llama_8b(),
            Arc::clone(&c),
            1,
            ServingConfig::default(),
        );
        // Warm the service-time estimate with one completed request.
        let warm = InferenceRequest::new("w ".repeat(40), 64);
        client
            .request(inference_request_message("svc.test", warm))
            .unwrap();
        // Occupy the replica...
        let blocker = client.clone();
        let blocker_handle = thread::spawn(move || {
            let req = InferenceRequest::new("w ".repeat(40), 64);
            blocker
                .request(inference_request_message("svc.test", req))
                .unwrap()
        });
        thread::sleep(Duration::from_millis(1));
        // ...then ask for an impossible deadline: the estimated queue delay (about one
        // full inference) dwarfs a 1 ms budget, so admission sheds immediately.
        let req = InferenceRequest::new("now or never", 64);
        let reply = client
            .request(inference_request_message_with_deadline(
                "svc.test", req, 0.001,
            ))
            .unwrap();
        assert_eq!(reply.kind, KIND_SHED, "{:?}", reply.header(HDR_ERROR));
        assert!(reply.f64_header(HDR_RETRY_AFTER_SECS).unwrap() > 0.001);
        assert_eq!(blocker_handle.join().unwrap().kind, KIND_INFER_REPLY);
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }

    #[test]
    fn replicas_split_concurrent_load() {
        let c = clock();
        let config = ServingConfig::default().replicas(2);
        let (stop, handle, client) =
            start_with_config(ModelSpec::sim_llama_8b(), Arc::clone(&c), 2, config);
        let t0 = c.now();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cl = client.clone();
                thread::spawn(move || {
                    let req = InferenceRequest::new("w ".repeat(40), 64);
                    cl.request(inference_request_message("svc.test", req))
                        .unwrap()
                })
            })
            .collect();
        let replies: Vec<Message> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let elapsed = c.now().since(t0).as_secs_f64();
        let sum_inference: f64 = replies
            .iter()
            .map(|r| r.f64_header(HDR_INFERENCE_SECS).unwrap())
            .sum();
        // Two replicas serve two requests concurrently: wall time well under the
        // serial sum (the single-replica `queueing_shows_up_in_service_time` shape).
        assert!(
            elapsed < sum_inference * 0.9,
            "elapsed {elapsed} vs serial {sum_inference}"
        );
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }

    #[test]
    fn a_request_sent_before_serve_attaches_is_answered() {
        let c = clock();
        let host = shared_host(ModelSpec::noop(), Arc::clone(&c), 30);
        host.load();
        let service = InferenceService::new("svc.early", host, Arc::clone(&c), 31);
        let endpoint = ReqRepServer::new("svc.early");
        let client = endpoint.client(Link::instant(Arc::clone(&c)));
        let requester = thread::spawn(move || {
            let req = InferenceRequest::new("early bird", 1);
            client
                .request(inference_request_message("svc.early", req))
                .unwrap()
        });
        while endpoint.queue_len() == 0 {
            thread::yield_now();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = thread::spawn(move || service.serve(&endpoint, &stop2));
        assert_eq!(requester.join().unwrap().kind, KIND_INFER_REPLY);
        stop.store(true, Ordering::Release);
        assert_eq!(handle.join().unwrap(), 1);
    }

    #[test]
    fn a_request_that_finds_the_turn_held_past_its_wait_is_served_by_the_holder() {
        let c = clock();
        let host = shared_host(ModelSpec::noop(), Arc::clone(&c), 34);
        host.load();
        let service = InferenceService::new("svc.held", host, Arc::clone(&c), 35);
        let endpoint = ReqRepServer::new("svc.held");
        let client = endpoint.client(Link::instant(Arc::clone(&c)));
        let stop = AtomicBool::new(false);
        thread::scope(|scope| {
            let serving = scope.spawn(|| service.serve(&endpoint, &stop));
            // Answered, so `serve` has attached — by this thread, on a turn it took and
            // gave back, or, if the ping beat the attach, by `serve`'s thread, which may
            // still hold the turn for a moment.
            let pong = client.request(Message::new("svc.held", KIND_PING)).unwrap();
            assert_eq!(pong.kind, KIND_PONG);
            // Hold the turn the way a client in the middle of a pass does.
            while !service.front.try_take_turn() {
                thread::yield_now();
            }
            let requester = scope.spawn(|| {
                let req = InferenceRequest::new("behind the holder", 1);
                client
                    .request(inference_request_message("svc.held", req))
                    .unwrap()
            });
            // Its bounded wait runs out; it queues and notifies the holder.
            while endpoint.queue_len() == 0 {
                thread::yield_now();
            }
            assert_eq!(service.requests_served(), 0, "nobody else can pass");
            // The holder lets go: the notification makes it pass once more first.
            service.front.serve_turn(None);
            assert_eq!(service.requests_served(), 1, "served by the holder");
            assert_eq!(requester.join().unwrap().kind, KIND_INFER_REPLY);
            assert_eq!(endpoint.queue_len(), 0);
            stop.store(true, Ordering::Release);
            assert_eq!(serving.join().unwrap(), 2);
        });
    }

    #[test]
    fn the_turn_has_a_cache_line_to_itself_and_what_admission_writes_shares_another() {
        let c = clock();
        let host = shared_host(ModelSpec::noop(), Arc::clone(&c), 36);
        let service = InferenceService::new("svc.lines", host, c, 37);
        let front = &*service.front;
        fn line<T>(field: &T) -> usize {
            std::ptr::from_ref(field) as usize / 64
        }
        let turn = line::<RunCell>(&front.turn);
        let admission = front.admission.lock();
        let lock = line(&front.admission);
        let written = [
            line(&admission.handled),
            line(&admission.served),
            line(&admission.rng),
        ];
        assert_eq!(written, [lock; 3], "beside the lock word");
        let others = [
            lock,
            line(&front.name),
            line(&front.pool),
            line(&front.config),
            line(&front.handling_overhead),
            line(&front.shutdown_met),
        ];
        assert!(!others.contains(&turn), "{turn} among {others:?}");
    }

    #[test]
    fn a_request_queued_after_serve_returned_fails_when_the_endpoint_is_dropped() {
        let c = clock();
        let host = shared_host(ModelSpec::noop(), Arc::clone(&c), 32);
        host.load();
        let service = InferenceService::new("svc.late", host, Arc::clone(&c), 33);
        let endpoint = ReqRepServer::new("svc.late");
        let client = endpoint.client(Link::instant(Arc::clone(&c)));
        assert_eq!(service.serve(&endpoint, &AtomicBool::new(true)), 0);

        let requester = thread::spawn(move || {
            let req = InferenceRequest::new("too late", 1);
            client.request_timeout(
                inference_request_message("svc.late", req),
                Duration::from_secs(30),
            )
        });
        while endpoint.queue_len() == 0 {
            thread::yield_now();
        }
        // Nobody serves the endpoint any more: the request sits there...
        thread::sleep(Duration::from_millis(5));
        assert_eq!(endpoint.queue_len(), 1);
        assert_eq!(service.requests_served(), 0);
        // ...until the endpoint goes, which fails it at once, not at its timeout.
        let dropped = std::time::Instant::now();
        drop(endpoint);
        let err = requester.join().unwrap().unwrap_err();
        assert_eq!(err, hpcml_comm::CommError::Disconnected);
        assert!(dropped.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn a_lone_request_under_a_manual_clock_waits_for_no_company() {
        let manual = Arc::new(hpcml_sim::clock::ManualClock::new());
        let c: SharedClock = Arc::clone(&manual) as SharedClock;
        let (stop, handle, client) = start_service(ModelSpec::noop(), Arc::clone(&c));
        let requester = thread::spawn(move || {
            let req = InferenceRequest::new("alone in its batch", 1);
            client
                .request(inference_request_message("svc.test", req))
                .unwrap()
        });
        // Admission runs on the requester's thread and spends its handling time (tens
        // of virtual microseconds) on the clock: the one sleep on its way.
        while manual.pending_sleepers() < 1 {
            thread::yield_now();
        }
        manual.advance(Duration::from_millis(1));
        // Up to eight could batch, and nothing else moves the clock: the request is
        // answered all the same.
        let reply = requester.join().unwrap();
        assert_eq!(reply.kind, KIND_INFER_REPLY);
        assert_eq!(reply.header(HDR_BATCH_SIZE), Some("1"));
        let waited = reply.f64_header(HDR_BATCH_WAIT_SECS).unwrap();
        assert!((waited - 0.001).abs() < 1e-9, "the millisecond: {waited}");
        stop.store(true, Ordering::Release);
        assert_eq!(handle.join().unwrap(), 1);
    }

    /// A NOOP backend that panics on a poisoned prompt.
    struct Panicky(crate::backend::NoopBackend);

    impl crate::backend::ModelBackend for Panicky {
        fn spec(&self) -> &ModelSpec {
            self.0.spec()
        }
        fn sample_load_secs<'a>(&self, rng: &mut (dyn rand::RngCore + 'a)) -> f64 {
            self.0.sample_load_secs(rng)
        }
        fn infer<'a>(
            &self,
            request: &InferenceRequest,
            rng: &mut (dyn rand::RngCore + 'a),
        ) -> crate::backend::BackendResult {
            assert!(request.prompt != "boom", "backend blew up on purpose");
            self.0.infer(request, rng)
        }
    }

    #[test]
    fn a_backend_that_panics_fails_its_batch_and_nothing_else() {
        let c = clock();
        let backend = Box::new(Panicky(crate::backend::NoopBackend::new()));
        let host = Arc::new(ModelHost::new(backend, Arc::clone(&c), 40));
        host.load();
        let service = InferenceService::new("svc.panicky", host, Arc::clone(&c), 41);
        let endpoint = ReqRepServer::new("svc.panicky");
        let client = endpoint.client(Link::instant(Arc::clone(&c)));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = thread::spawn(move || service.serve(&endpoint, &stop2));
        let ask = |prompt: &str| {
            let req = InferenceRequest::new(prompt, 1);
            client
                .request(inference_request_message("svc.panicky", req))
                .unwrap()
        };
        assert_eq!(ask("fine").kind, KIND_INFER_REPLY);
        // The step runs — and panics — on this very thread, which must survive it.
        let failed = ask("boom");
        assert_eq!(failed.kind, KIND_ERROR);
        let why = failed.header(HDR_ERROR).unwrap();
        assert!(
            why.contains("panicked") && why.contains("on purpose"),
            "{why}"
        );
        assert_eq!(ask("fine again").kind, KIND_INFER_REPLY);
        stop.store(true, Ordering::Release);
        assert_eq!(
            handle.join().unwrap(),
            3,
            "serve returns: nothing is left outstanding"
        );
    }
}
