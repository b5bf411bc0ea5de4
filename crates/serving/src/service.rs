//! The inference service loop: binds a replica pool to a REQ/REP endpoint.
//!
//! [`InferenceService::serve`] is what runs inside a *service task* once the runtime has
//! launched it. The loop is an admission front-end over the serving plane:
//!
//! 1. requests are received in bursts ([`ReqRepServer::recv_batch`]) and decoded
//!    zero-copy ([`InferenceRequest::decode_view`]); malformed payloads get a typed
//!    protocol error reply;
//! 2. admission control sheds requests when the assembler queue is full or when a
//!    request's deadline cannot be met at the current estimated queue delay
//!    ([`KIND_SHED`] + [`HDR_RETRY_AFTER_SECS`]);
//! 3. admitted requests queue in a [`BatchAssembler`] which dispatches a batch when
//!    `max_batch_size` is reached or the oldest entry's latency budget expires;
//! 4. batches route to the least-loaded replica of a [`ReplicaPool`], whose worker
//!    executes them and stamps the paper's `service` / `inference` time decomposition
//!    onto each reply.
//!
//! With the default [`ServingConfig`] (1 replica, batch size 1) every request
//! dispatches immediately to a single host — the seed-era behaviour, bit for bit.
//!
//! Lock order: the serve loop owns the assembler outright (no lock); the pool's replica
//! list lock is only ever taken *after* assembler operations complete, and replica
//! workers take the host `serve_lock` without holding the replica-list lock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use hpcml_comm::message::Message;
use hpcml_comm::reqrep::{ReqRepServer, Responder, HDR_ENQUEUED_AT};
use hpcml_sim::clock::SharedClock;
use hpcml_sim::dist::Dist;
use hpcml_sim::metrics::{null_sink, SharedScalarSink};

use crate::batcher::{BatchAssembler, ServingConfig};
use crate::host::ModelHost;
use crate::pool::{BatchItem, ReplicaPool};
use crate::protocol::*;
use crate::request::InferenceRequest;

/// How long the serve loop blocks on the endpoint before re-checking its stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Floor on the batch-deadline wait, so a near-due budget never busy-spins.
const MIN_WAIT_SECS: f64 = 0.000_05;

/// The serve loop of one service instance.
pub struct InferenceService {
    name: String,
    /// The first replica's host, kept for readiness probes and spec queries.
    primary: Arc<ModelHost>,
    pool: Arc<ReplicaPool>,
    clock: SharedClock,
    config: ServingConfig,
    /// Request parsing/serialisation overhead (the non-queue part of `service` time).
    handling_overhead: Dist,
    rng: Mutex<StdRng>,
    requests_served: AtomicU64,
    sink: SharedScalarSink,
}

impl std::fmt::Debug for InferenceService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceService")
            .field("name", &self.name)
            .field("model", &self.primary.spec().name)
            .field("replicas", &self.pool.replica_count())
            .field("max_batch_size", &self.config.max_batch_size)
            .field("requests_served", &self.requests_served())
            .finish()
    }
}

impl InferenceService {
    /// Create a single-replica, unbatched service around one model host — the legacy
    /// shape, equivalent to `with_config` with [`ServingConfig::default`].
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

    /// Create a service over explicit replicas with a full serving configuration.
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
        assert!(!hosts.is_empty(), "a service needs at least one replica");
        let primary = Arc::clone(&hosts[0]);
        let pool = Arc::new(ReplicaPool::new(
            hosts,
            Arc::clone(&clock),
            Arc::clone(&sink),
        ));
        InferenceService {
            name: name.into(),
            primary,
            pool,
            clock,
            config,
            // Parsing + reply serialisation: tens of microseconds, so the "service"
            // component stays below the network latency for NOOP calls (Figs. 4-5).
            handling_overhead: Dist::normal(0.00003, 0.00001),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            requests_served: AtomicU64::new(0),
            sink,
        }
    }

    /// Service name (usually the service task id).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The primary replica's model host.
    pub fn host(&self) -> &Arc<ModelHost> {
        &self.primary
    }

    /// The replica pool behind this service.
    pub fn pool(&self) -> &Arc<ReplicaPool> {
        &self.pool
    }

    /// The serving configuration in effect.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Inference requests admitted by this service loop.
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Run the serve loop until `stop` is set or a shutdown message arrives.
    /// Returns the number of messages handled in this invocation. On exit the
    /// assembler is flushed and the pool quiesced, so every admitted request is
    /// answered before the loop returns.
    pub fn serve(&self, endpoint: &ReqRepServer, stop: &AtomicBool) -> u64 {
        let mut served = 0u64;
        let mut assembler: BatchAssembler<BatchItem> = BatchAssembler::new(
            self.config.max_batch_size,
            self.config.batch_latency_budget_secs,
        );
        let admit_chunk = self.config.max_batch_size.max(16);
        'serve: while !stop.load(Ordering::Acquire) {
            self.flush_ready(&mut assembler, false);
            match endpoint.recv_batch(admit_chunk, self.recv_timeout_for(&assembler)) {
                Ok(burst) => {
                    for (msg, responder) in burst {
                        if msg.kind == KIND_SHUTDOWN {
                            let reply = Message::new(msg.topic.clone(), KIND_PONG)
                                .with_header("stopping", "true");
                            let _ = responder.reply(reply);
                            break 'serve;
                        }
                        self.admit(msg, responder, &mut assembler);
                        served += 1;
                    }
                }
                Err(hpcml_comm::CommError::Timeout) => {
                    // Liveness valve: a manual clock (scale = ∞) never expires a
                    // virtual budget from inside this loop, so an idle wait flushes
                    // whatever is queued rather than stranding it.
                    if self.clock.scale().is_infinite() {
                        self.flush_ready(&mut assembler, true);
                    }
                }
                Err(_) => break,
            }
        }
        self.flush_ready(&mut assembler, true);
        self.pool.quiesce();
        served
    }

    /// Real-time receive timeout for the next wait: the virtual time until the oldest
    /// assembler entry's budget expires, converted through the clock scale.
    fn recv_timeout_for(&self, assembler: &BatchAssembler<BatchItem>) -> Duration {
        match assembler.secs_until_due(self.clock.now().as_secs_f64()) {
            None => POLL_INTERVAL,
            Some(due) => {
                let scale = self.clock.scale();
                let real = if scale.is_finite() && scale > 0.0 {
                    due.max(0.0) / scale
                } else {
                    0.0
                };
                Duration::from_secs_f64(real.clamp(MIN_WAIT_SECS, POLL_INTERVAL.as_secs_f64()))
            }
        }
    }

    /// Dispatch every due batch to the pool, stamping each member's assembler wait.
    fn flush_ready(&self, assembler: &mut BatchAssembler<BatchItem>, force: bool) {
        let now = self.clock.now().as_secs_f64();
        while let Some(batch) = assembler.take_ready(now, force) {
            let items: Vec<BatchItem> = batch
                .into_iter()
                .map(|d| {
                    let mut item = d.item;
                    item.batch_wait_secs = (now - d.arrival_secs).max(0.0);
                    item.dispatched_secs = now;
                    item
                })
                .collect();
            self.pool.dispatch(items);
        }
    }

    /// Handle one received message: control messages answer inline, inference
    /// requests pass admission control into the assembler.
    fn admit(&self, msg: Message, responder: Responder, assembler: &mut BatchAssembler<BatchItem>) {
        match msg.kind.as_str() {
            KIND_PING => {
                let ready = self.primary.is_loaded();
                let reply = Message::new(msg.topic.clone(), KIND_PONG)
                    .with_header("ready", if ready { "true" } else { "false" })
                    .with_header(HDR_MODEL, self.primary.spec().name.clone());
                let _ = responder.reply(reply);
            }
            KIND_INFER_REQUEST => self.admit_inference(msg, responder, assembler),
            other => {
                let reply = Message::new(msg.topic.clone(), KIND_ERROR)
                    .with_header(HDR_ERROR, format!("unknown message kind: {other}"));
                let _ = responder.reply(reply);
            }
        }
    }

    fn admit_inference(
        &self,
        msg: Message,
        responder: Responder,
        assembler: &mut BatchAssembler<BatchItem>,
    ) {
        let arrived_secs = self.clock.now().as_secs_f64();
        // Time already spent in the endpoint queue counts toward `service` time; the
        // client stamps its enqueue instant after link traversal.
        let admission_queue_secs = msg
            .f64_header(HDR_ENQUEUED_AT)
            .map(|enq| (arrived_secs - enq).max(0.0))
            .unwrap_or(0.0);

        let view = match InferenceRequest::decode_view(&msg.payload) {
            Ok(view) => view,
            Err(err) => {
                let reply = Message::new(msg.topic.clone(), KIND_ERROR)
                    .with_header(HDR_ERROR, err.to_string());
                let _ = responder.reply(reply);
                return;
            }
        };

        // Bounded admission queue: beyond capacity the request is shed, not queued.
        if assembler.len() >= self.config.queue_capacity {
            self.shed(
                msg.topic.clone(),
                view.request_id,
                responder,
                assembler.len(),
            );
            return;
        }

        // Deadline-aware shedding: reject now (cheap) rather than time out later
        // (expensive) when the estimated queue delay already exceeds the deadline.
        if self.config.shed_deadlines {
            if let Some(deadline_secs) = msg.f64_header(HDR_DEADLINE_SECS) {
                let est = self.pool.estimated_queue_delay_secs(assembler.len());
                if est > deadline_secs {
                    self.shed(
                        msg.topic.clone(),
                        view.request_id,
                        responder,
                        assembler.len(),
                    );
                    return;
                }
            }
        }

        // Parsing / deserialisation overhead.
        let handling_secs = {
            let mut rng = self.rng.lock();
            self.handling_overhead.sample(&mut *rng).max(0.0)
        };
        self.clock.sleep(Duration::from_secs_f64(handling_secs));

        let request = view.to_request();
        assembler.push(
            BatchItem {
                request,
                responder,
                topic: msg.topic.clone(),
                admission_queue_secs,
                handling_secs,
                batch_wait_secs: 0.0,
                dispatched_secs: arrived_secs,
            },
            arrived_secs,
        );
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        self.sink
            .record("serving.queue.depth", assembler.len() as f64);
    }

    fn shed(&self, topic: String, request_id: &str, responder: Responder, queued: usize) {
        let retry_after_secs = self
            .pool
            .estimated_queue_delay_secs(queued)
            .max(self.config.batch_latency_budget_secs);
        let reply = Message::new(topic, KIND_SHED)
            .with_header(HDR_REQUEST_ID, request_id)
            .with_f64_header(HDR_RETRY_AFTER_SECS, retry_after_secs);
        let _ = responder.reply(reply);
        self.sink.record("serving.shed", 1.0);
    }
}

/// Build the wire message for an inference request (client side helper).
pub fn inference_request_message(endpoint: &str, request: &InferenceRequest) -> Message {
    Message::new(endpoint, KIND_INFER_REQUEST)
        .with_header(HDR_REQUEST_ID, request.request_id.clone())
        .with_payload(request.encode_payload())
}

/// [`inference_request_message`] with a completion deadline attached: the service sheds
/// the request upfront when its estimated queue delay exceeds `deadline_secs`.
pub fn inference_request_message_with_deadline(
    endpoint: &str,
    request: &InferenceRequest,
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
            .request(inference_request_message("svc.test", &req))
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
            .request(inference_request_message("svc.test", &req))
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
        let reply = client
            .request(Message::new("svc.test", KIND_INFER_REQUEST).with_text("not a valid payload"))
            .unwrap();
        assert_eq!(reply.kind, KIND_ERROR);
        assert!(reply.header(HDR_ERROR).unwrap().contains("malformed"));
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
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
            .request(inference_request_message("svc.cold", &req))
            .unwrap();
        assert_eq!(reply.kind, KIND_ERROR);
        assert!(reply.header(HDR_ERROR).unwrap().contains("not loaded"));

        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }

    #[test]
    fn queueing_shows_up_in_service_time() {
        // One single-threaded service, two clients racing: the second's reply must
        // include queue time roughly equal to the first request's inference time.
        let c = clock();
        let host = shared_host(ModelSpec::sim_llama_8b(), Arc::clone(&c), 20);
        host.load();
        let service = Arc::new(InferenceService::new("svc.q", host, Arc::clone(&c), 21));
        let endpoint = ReqRepServer::new("svc.q");
        let client_a = endpoint.client(Link::instant(Arc::clone(&c)));
        let client_b = endpoint.client(Link::instant(Arc::clone(&c)));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let svc = Arc::clone(&service);
        let server_thread = thread::spawn(move || svc.serve(&endpoint, &stop2));

        let send = |client: hpcml_comm::ReqRepClient| {
            thread::spawn(move || {
                let req = InferenceRequest::new("w ".repeat(40), 64);
                client
                    .request(inference_request_message("svc.q", &req))
                    .unwrap()
            })
        };
        let h1 = send(client_a);
        let h2 = send(client_b);
        let r1 = h1.join().unwrap();
        let r2 = h2.join().unwrap();
        let max_service = r1
            .f64_header(HDR_SERVICE_SECS)
            .unwrap()
            .max(r2.f64_header(HDR_SERVICE_SECS).unwrap());
        // One of the two requests must have waited for the other's inference.
        assert!(
            max_service > 0.3,
            "queued request should show queue time, got {max_service}"
        );
        assert_eq!(service.requests_served(), 2);
        stop.store(true, Ordering::Release);
        server_thread.join().unwrap();
    }

    #[test]
    fn batched_service_answers_every_client_with_one_dispatch() {
        let c = clock();
        let config = ServingConfig::default()
            .max_batch_size(8)
            .batch_latency_budget_secs(0.5);
        let (stop, handle, client) =
            start_with_config(ModelSpec::sim_llama_8b(), Arc::clone(&c), 1, config);
        let clients: Vec<_> = (0..8).map(|_| client.clone()).collect();
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, cl)| {
                thread::spawn(move || {
                    let req =
                        InferenceRequest::new("q ".repeat(30), 64).from_client(format!("task.{i}"));
                    cl.request(inference_request_message("svc.test", &req))
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
        let c = clock();
        // Batch of 4 with a long budget and a 2-deep admission queue: three
        // near-simultaneous requests -> two queue, one sheds.
        let config = ServingConfig::default()
            .max_batch_size(4)
            .batch_latency_budget_secs(5.0)
            .queue_capacity(2);
        let (stop, handle, client) =
            start_with_config(ModelSpec::noop(), Arc::clone(&c), 1, config);
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let cl = client.clone();
                thread::spawn(move || {
                    let req = InferenceRequest::new("x", 1).from_client(format!("task.{i}"));
                    cl.request(inference_request_message("svc.test", &req))
                        .unwrap()
                })
            })
            .collect();
        let replies: Vec<Message> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let shed: Vec<&Message> = replies.iter().filter(|r| r.kind == KIND_SHED).collect();
        let ok = replies
            .iter()
            .filter(|r| r.kind == KIND_INFER_REPLY)
            .count();
        assert_eq!(shed.len(), 1, "exactly one of three must shed: {replies:?}");
        assert_eq!(ok, 2);
        assert!(shed[0].f64_header(HDR_RETRY_AFTER_SECS).unwrap() > 0.0);
        assert!(shed[0].header(HDR_REQUEST_ID).is_some());
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
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
            .request(inference_request_message("svc.test", &warm))
            .unwrap();
        // Occupy the replica...
        let blocker = client.clone();
        let blocker_handle = thread::spawn(move || {
            let req = InferenceRequest::new("w ".repeat(40), 64);
            blocker
                .request(inference_request_message("svc.test", &req))
                .unwrap()
        });
        thread::sleep(Duration::from_millis(1));
        // ...then ask for an impossible deadline: the estimated queue delay (about one
        // full inference) dwarfs a 1 ms budget, so admission sheds immediately.
        let req = InferenceRequest::new("now or never", 64);
        let reply = client
            .request(inference_request_message_with_deadline(
                "svc.test", &req, 0.001,
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
                    cl.request(inference_request_message("svc.test", &req))
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
}
