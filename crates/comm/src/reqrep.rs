//! Request/reply endpoints (ZeroMQ REQ/REP analogue).
//!
//! A [`ReqRepServer`] owns the receive side of an endpoint; any number of
//! [`ReqRepClient`]s can send requests to it and block for the reply. Each request
//! carries a one-shot reply slot (ZeroMQ would route the reply frame back over the
//! socket). The client traverses a [`Link`] before the request is delivered and before
//! the reply is returned, which is how local vs remote deployments differ; a hop
//! prices the message's bytes only when the link charges for them
//! ([`Link::priced_bytes`]).
//!
//! # Who serves an endpoint: carry or queue
//!
//! Either a thread that blocks in [`ReqRepServer::recv_timeout`], or — the serving
//! plane's way — nobody in particular:
//! [`ReqRepServer::attach`] arms the endpoint with a [`Server`], which admits requests
//! in *passes*, one thread at a time. Whose turn it is to pass is the server's to say
//! ([`Server::try_take_turn`]); who passes is decided by the sender, under the one
//! acquisition of the mailbox lock a delivery makes. **The mailbox holds only what
//! waits:**
//!
//! 1. **A sender that has the turn and finds the mailbox empty carries its request**
//!    into the pass ([`Server::serve_turn`]), on its own thread and warm cache; nothing
//!    is queued. Nothing older can be behind it (the mailbox was empty under the lock)
//!    and whatever comes later queues behind the turn it holds, so endpoint order is
//!    admission order by construction.
//! 2. **If the turn is taken, it waits for it — briefly.** A holder does not wait for
//!    another sender, so the turn usually comes back within one pass; the sender polls
//!    for it [`TURN_SPINS`] times (not at all on a one-CPU host, where the holder
//!    cannot run while the sender spins), then looks at the mailbox again: empty, it
//!    carries as in 1; if somebody queued meanwhile it queues behind them and passes
//!    over all of it. The wait is bounded because a holder can be slow: pre-empted, or
//!    inside a server that sleeps while it holds the turn (admission sleeps its
//!    handling time on the session clock). Waiting for the turn is queueing like any
//!    other: the arrival stamp ([`HDR_ENQUEUED_AT`]) is taken *before* it.
//! 3. **When the wait runs out** the sender queues its request and tells the server
//!    ([`Server::wake`]): the holder makes one more pass, over the mailbox, and the
//!    sender sleeps on its reply slot. Only here is a reply made by another thread than
//!    its requester's, and only this can cost a futex wake.
//!
//! The server is called with no comm lock held, through the reference a client keeps
//! from its first delivery (one count per client, not two per request). Dropping the
//! [`ReqRepServer`] closes the endpoint: what is still queued fails with
//! [`CommError::Disconnected`] at once, not at its timeout, and later sends are refused.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::CommError;
use crate::link::Link;
use crate::message::Message;

/// Header stamped on requests with the virtual time at which the request reached the
/// server's queue (after link traversal). Servers use it to compute queue time.
pub const HDR_ENQUEUED_AT: &str = "comm.enqueued_at";

/// How often a sender that finds the server's turn taken polls for it before it queues
/// behind the holder instead. A poll is ≈ 20 ns and a pass over one NOOP request
/// 1.7 µs alone, 2.5–3.2 µs when its lines come from the other core, on the reference
/// host, so the wait is bounded at ≈ 40 µs, a dozen passes; a holder that has not let
/// go by then is pre-empted or asleep. Two closed-loop clients routed by load over two
/// services (`svc_roundtrip`) seldom meet at one: a sender waits in 1 request of 67–70,
/// for ≈ 82 polls on average, and runs out of polls in 1 of 190 000–230 000.
pub const TURN_SPINS: u32 = 2_000;

/// What [`ReqRepServer::attach`] arms an endpoint with: a server that admits requests
/// one pass at a time, on whichever thread holds its turn (see the module docs).
/// [`Server::serve_turn`] and [`Server::wake`] are called with no comm lock held.
pub trait Server: Send + Sync {
    /// Take the server's turn if nobody holds it. True obliges the caller to
    /// [`Server::serve_turn`]. It is polled, and its first call is made under the
    /// mailbox lock: it must not block, lock or queue anything.
    fn try_take_turn(&self) -> bool;

    /// Admit `carried` — the request the caller brought instead of queueing it — then
    /// pass again for as long as something was queued meanwhile, then give the turn
    /// back. A pass that carried nothing drains the mailbox; one that did need not look
    /// there: it was empty when the request was carried, and whoever queues behind a
    /// held turn says so ([`Server::wake`]). A server that has stopped serving drops
    /// what it carried, which fails it. Only for the caller that took the turn.
    fn serve_turn(&self, carried: Option<(Message, Responder)>);

    /// Something was queued by a sender that does not hold the turn: if the turn is
    /// free, take it and pass; if it is held, make its holder pass once more.
    fn wake(&self);
}

/// The one-shot slot a reply travels through, shared by a requester and a
/// [`Responder`].
#[derive(Default)]
struct ReplySlot {
    /// `None` while the responder lives; then the reply, or `Some(None)` if it went
    /// without one.
    outcome: Mutex<Option<Option<Message>>>,
    filled: Condvar,
}

impl ReplySlot {
    /// Block until the reply is in, the responder is dropped without one, or real
    /// time reaches `deadline` (`None`: without a deadline).
    fn wait(&self, deadline: Option<Instant>) -> Result<Message, CommError> {
        let mut outcome = self.outcome.lock();
        loop {
            if let Some(reply) = outcome.take() {
                return reply.ok_or(CommError::Disconnected);
            }
            let timed_out = crate::wait_until(&self.filled, &mut outcome, deadline);
            if timed_out && outcome.is_none() {
                return Err(CommError::Timeout);
            }
        }
    }

    /// The responder's last word, under one acquisition of the slot's lock.
    fn close(&self, reply: Option<Message>) {
        *self.outcome.lock() = Some(reply);
        self.filled.notify_one();
    }
}

/// Handle used to reply to one received request. Dropping it without a reply fails
/// the request with [`CommError::Disconnected`].
pub struct Responder {
    /// Taken by the reply; what `Drop` still finds was never answered.
    slot: Option<Arc<ReplySlot>>,
}

impl std::fmt::Debug for Responder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Responder { .. }")
    }
}

impl Responder {
    /// Send the reply. Returns an error if the requesting client has gone away.
    pub fn reply(mut self, msg: Message) -> Result<(), CommError> {
        let slot = self.slot.take().expect("a responder replies once");
        // The requester holds the only other reference until it stops waiting.
        if Arc::strong_count(&slot) == 1 {
            return Err(CommError::Disconnected);
        }
        slot.close(Some(msg));
        Ok(())
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some(unanswered) = self.slot.take() {
            unanswered.close(None);
        }
    }
}

/// A request as it travels — the message and the handle its reply goes through — and
/// the slot its sender waits on.
fn request(msg: Message) -> ((Message, Responder), Arc<ReplySlot>) {
    let slot = Arc::new(ReplySlot::default());
    let responder = Responder {
        slot: Some(Arc::clone(&slot)),
    };
    ((msg, responder), slot)
}

#[derive(Default)]
struct Endpoint {
    state: Mutex<Inbox>,
    arrived: Condvar,
    /// Requests of every client of the endpoint between their post and the end of
    /// their wait for the reply ([`ReqRepClient::in_flight`]).
    in_flight: AtomicUsize,
}

/// One request counted in flight at its endpoint, until dropped: on the reply, a
/// timeout or a refused send alike.
struct InFlight<'a>(&'a AtomicUsize);

impl<'a> InFlight<'a> {
    fn enter(count: &'a AtomicUsize) -> Self {
        count.fetch_add(1, Ordering::Relaxed);
        InFlight(count)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Inbox {
    /// What waits: requests no pass has been made over yet.
    queue: VecDeque<(Message, Responder)>,
    /// The server is dropped: nothing more is accepted.
    closed: bool,
    /// Whoever serves this endpoint while a server is attached.
    server: Option<Arc<dyn Server>>,
}

/// The receive side of an endpoint, for a [`Server`] that makes passes over it
/// ([`ReqRepServer::attach`]) instead of blocking for it. Cloneable and `'static`, so a
/// resumable run can keep it.
#[derive(Clone, Default)]
pub struct Mailbox {
    endpoint: Arc<Endpoint>,
}

impl Mailbox {
    /// Take the oldest waiting request, if any.
    pub fn try_recv(&self) -> Option<(Message, Responder)> {
        self.endpoint.state.lock().queue.pop_front()
    }
}

/// Poll for a turn somebody else holds, [`TURN_SPINS`] times at most; on a host with
/// one CPU not at all, because the holder cannot be running while this thread is.
fn wait_for_turn(server: &dyn Server) -> bool {
    static ONE_CPU: OnceLock<bool> = OnceLock::new();
    let one_cpu = *ONE_CPU
        .get_or_init(|| std::thread::available_parallelism().map_or(true, |n| n.get() == 1));
    if one_cpu {
        return false;
    }
    for _ in 0..TURN_SPINS {
        std::hint::spin_loop();
        if server.try_take_turn() {
            return true;
        }
    }
    false
}

/// Server side of a request/reply endpoint.
pub struct ReqRepServer {
    name: String,
    mailbox: Mailbox,
}

impl std::fmt::Debug for ReqRepServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReqRepServer")
            .field("name", &self.name)
            .field("queued", &self.queue_len())
            .finish()
    }
}

impl Drop for ReqRepServer {
    fn drop(&mut self) {
        // Close the endpoint; what was queued is dropped outside the lock (each
        // responder locks its reply slot), failing those requests right away.
        let (queued, server) = {
            let mut inbox = self.mailbox.endpoint.state.lock();
            inbox.closed = true;
            (std::mem::take(&mut inbox.queue), inbox.server.take())
        };
        drop((queued, server));
    }
}

/// A cheap, cloneable connection point for a [`ReqRepServer`], suitable for storing in
/// an endpoint registry. Combine it with a [`Link`] to obtain a [`ReqRepClient`].
#[derive(Clone)]
pub struct ReqRepHandle {
    endpoint: String,
    mailbox: Mailbox,
}

impl std::fmt::Debug for ReqRepHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReqRepHandle")
            .field("endpoint", &self.endpoint)
            .finish()
    }
}

impl ReqRepHandle {
    /// Name of the endpoint.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Connect to the endpoint over the given link.
    pub fn connect(&self, link: Link) -> ReqRepClient {
        ReqRepClient {
            endpoint: self.endpoint.clone(),
            mailbox: self.mailbox.clone(),
            link,
            server: OnceLock::new(),
        }
    }
}

impl ReqRepServer {
    /// Create a new endpoint with an unbounded request queue.
    pub fn new(name: impl Into<String>) -> Self {
        ReqRepServer {
            name: name.into(),
            mailbox: Mailbox::default(),
        }
    }

    /// Endpoint name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of requests currently waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.mailbox.endpoint.state.lock().queue.len()
    }

    /// Create a client handle connected to this endpoint over the given link.
    pub fn client(&self, link: Link) -> ReqRepClient {
        self.handle().connect(link)
    }

    /// A registrable connection point for this endpoint.
    pub fn handle(&self) -> ReqRepHandle {
        ReqRepHandle {
            endpoint: self.name.clone(),
            mailbox: self.mailbox.clone(),
        }
    }

    /// The endpoint's receive side, for the server [`ReqRepServer::attach`] arms.
    pub fn mailbox(&self) -> Mailbox {
        self.mailbox.clone()
    }

    /// Serve the endpoint without blocking for it: from now on every client call has
    /// `server` admit what it sends — on the client's thread whenever the turn can be
    /// had (see the module docs). The server is woken right away if requests already
    /// wait: a client may send first.
    pub fn attach(&self, server: Arc<dyn Server>) {
        let pending = {
            let mut inbox = self.mailbox.endpoint.state.lock();
            inbox.server = Some(Arc::clone(&server));
            !inbox.queue.is_empty()
        };
        if pending {
            server.wake();
        }
    }

    /// Undo [`ReqRepServer::attach`]: deliveries stop calling the server. A call that
    /// read it just before may still be in flight.
    pub fn detach(&self) {
        let server = self.mailbox.endpoint.state.lock().server.take();
        drop(server);
    }

    /// Block until a request arrives, or until `timeout` elapses (`Duration::MAX`:
    /// without a deadline).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(Message, Responder), CommError> {
        let deadline = Instant::now().checked_add(timeout);
        let endpoint = &self.mailbox.endpoint;
        let mut inbox = endpoint.state.lock();
        loop {
            if let Some(request) = inbox.queue.pop_front() {
                return Ok(request);
            }
            let timed_out = crate::wait_until(&endpoint.arrived, &mut inbox, deadline);
            if timed_out && inbox.queue.is_empty() {
                return Err(CommError::Timeout);
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<(Message, Responder)> {
        self.mailbox.try_recv()
    }
}

/// Client side of a request/reply endpoint.
#[derive(Clone)]
pub struct ReqRepClient {
    endpoint: String,
    mailbox: Mailbox,
    link: Link,
    /// The server the first delivery found attached, kept so that calling it with the
    /// mailbox lock released counts no reference up and down per request.
    server: OnceLock<Arc<dyn Server>>,
}

impl std::fmt::Debug for ReqRepClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReqRepClient")
            .field("endpoint", &self.endpoint)
            .field("link", &self.link)
            .finish()
    }
}

impl ReqRepClient {
    /// Name of the endpoint this client talks to.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// One traversal of the link carrying `msg`, priced by its encoded bytes if the
    /// link charges for bytes.
    fn hop(&self, msg: &Message) {
        self.link
            .traverse(self.link.priced_bytes(|| msg.encoded_len()));
    }

    /// See to it that `request` is served: by this thread if it can have the attached
    /// server's turn (at once, or within the bounded wait) — carried into the pass if
    /// nothing waits in the mailbox, queued there otherwise — else queued for whoever
    /// holds the turn, or for a receiver asleep on the condvar.
    fn deliver(&self, request: (Message, Responder)) -> Result<(), CommError> {
        let endpoint = &self.mailbox.endpoint;
        let mut inbox = endpoint.state.lock();
        let attached = inbox.server.as_ref();
        let known = attached.map(|attached| self.server.get_or_init(|| Arc::clone(attached)));
        // Attached to another server since this client's first delivery: counted anew.
        let other = attached.filter(|a| known.is_some_and(|known| !Arc::ptr_eq(known, a)));
        let other = other.cloned();
        let server = other.as_ref().or(known).map(|server| &**server);
        // Taking the turn locks nothing, so the free turn, the look at the mailbox and
        // the push, if any, share one acquisition of the mailbox lock.
        let mut mine = server.is_some_and(|server| server.try_take_turn());
        if let (false, Some(server)) = (mine, server) {
            drop(inbox);
            mine = wait_for_turn(server);
            inbox = endpoint.state.lock();
        }
        let accepted = !inbox.closed;
        let mut carried = Some(request);
        if accepted && !(mine && inbox.queue.is_empty()) {
            inbox.queue.extend(carried.take());
        }
        drop(inbox);
        if !accepted {
            // Refused: its responder fails it on drop, with the mailbox lock released.
            carried = None;
        }
        match server {
            // A turn that was taken is passed, whatever became of the request.
            Some(server) if mine => server.serve_turn(carried),
            Some(server) if accepted => server.wake(),
            Some(_) => {}
            None => {
                endpoint.arrived.notify_one();
            }
        }
        if accepted {
            Ok(())
        } else {
            Err(CommError::Disconnected)
        }
    }

    /// Send `msg` and block until the reply arrives (or the server goes away).
    ///
    /// The request traverses the link (injecting the sampled one-way latency), is
    /// stamped with its arrival time and delivered; the reply traverses the link again
    /// on the way back. The virtual time spent in this call is the response time (RT)
    /// as defined in the paper. With a server attached ([`ReqRepServer::attach`]) this
    /// thread takes its turn if it can, and then finds the reply already in.
    pub fn request(&self, msg: Message) -> Result<Message, CommError> {
        self.request_timeout(msg, Duration::from_secs(3600))
    }

    /// [`ReqRepClient::request`] with an explicit real-time timeout on the reply wait
    /// (`Duration::MAX`: without a deadline).
    pub fn request_timeout(&self, msg: Message, timeout: Duration) -> Result<Message, CommError> {
        let _in_flight = InFlight::enter(&self.mailbox.endpoint.in_flight);
        let slot = self.post(msg)?;
        let reply = slot.wait(Instant::now().checked_add(timeout))?;
        self.hop(&reply);
        Ok(reply)
    }

    /// The outbound half of a request: cross the link, stamp the arrival, deliver.
    fn post(&self, msg: Message) -> Result<Arc<ReplySlot>, CommError> {
        self.hop(&msg);
        let enqueued_at = self.link.clock().now().as_secs_f64();
        let (request, slot) = request(msg.with_f64_header(HDR_ENQUEUED_AT, enqueued_at));
        self.deliver(request)?;
        Ok(slot)
    }

    /// Requests in flight at this client's endpoint, sent by this client or any other
    /// and not yet answered, timed out or refused: the endpoint's load as its senders
    /// see it. A fire-and-forget [`ReqRepClient::send`] is not counted.
    pub fn in_flight(&self) -> usize {
        self.mailbox.endpoint.in_flight.load(Ordering::Relaxed)
    }

    /// Fire-and-forget send (no reply expected). Used for control messages.
    pub fn send(&self, msg: Message) -> Result<(), CommError> {
        self.post(msg).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcml_platform::network::LatencyProfile;
    use hpcml_sim::clock::ClockSpec;
    use std::sync::Arc;
    use std::thread;

    fn instant_link() -> Link {
        Link::instant(ClockSpec::scaled(100_000.0).build())
    }

    #[test]
    fn request_reply_roundtrip() {
        let server = ReqRepServer::new("svc.echo");
        let client = server.client(instant_link());
        let handle = thread::spawn(move || {
            let (msg, responder) = server.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(msg.kind, "inference.request");
            assert!(msg.f64_header(HDR_ENQUEUED_AT).is_some());
            responder
                .reply(Message::new(msg.topic.clone(), "inference.reply").with_text("ok"))
                .unwrap();
        });
        let reply = client
            .request(Message::new("svc.echo", "inference.request").with_text("hello"))
            .unwrap();
        assert_eq!(reply.kind, "inference.reply");
        assert_eq!(reply.text(), Some("ok"));
        handle.join().unwrap();
    }

    #[test]
    fn many_clients_one_server() {
        let server = ReqRepServer::new("svc.multi");
        let clients: Vec<ReqRepClient> = (0..8).map(|_| server.client(instant_link())).collect();
        let server_thread = thread::spawn(move || {
            for _ in 0..8 {
                let (msg, responder) = server.recv_timeout(Duration::from_secs(5)).unwrap();
                let n: u64 = msg.text().unwrap().parse().unwrap();
                responder
                    .reply(Message::new("svc.multi", "reply").with_text(&(n * 2).to_string()))
                    .unwrap();
            }
        });
        let mut handles = Vec::new();
        for (i, c) in clients.into_iter().enumerate() {
            handles.push(thread::spawn(move || {
                let reply = c
                    .request(Message::new("svc.multi", "req").with_text(&i.to_string()))
                    .unwrap();
                let v: u64 = reply.text().unwrap().parse().unwrap();
                assert_eq!(v, i as u64 * 2);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        server_thread.join().unwrap();
    }

    #[test]
    fn recv_times_out_when_idle() {
        let server = ReqRepServer::new("svc.idle");
        assert_eq!(
            server.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            CommError::Timeout
        );
        assert!(server.try_recv().is_none());
        assert_eq!(server.queue_len(), 0);
        assert_eq!(server.name(), "svc.idle");
    }

    #[test]
    fn receives_and_replies_without_a_deadline_wait_for_what_comes_later() {
        // `Duration::MAX` overflows an `Instant`: it means no deadline at all.
        let server = ReqRepServer::new("svc.forever");
        let client = server.client(instant_link());
        let asker = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            client.request_timeout(Message::new("svc.forever", "req"), Duration::MAX)
        });
        let (msg, responder) = server.recv_timeout(Duration::MAX).unwrap();
        thread::sleep(Duration::from_millis(20));
        responder.reply(Message::new(msg.topic, "reply")).unwrap();
        assert_eq!(asker.join().unwrap().unwrap().kind, "reply");
    }

    #[test]
    fn request_fails_when_server_dropped() {
        let server = ReqRepServer::new("svc.gone");
        let client = server.client(instant_link());
        drop(server);
        let err = client.request(Message::new("svc.gone", "req")).unwrap_err();
        assert_eq!(err, CommError::Disconnected);
    }

    #[test]
    fn queued_request_fails_disconnected_when_the_server_is_dropped() {
        // A request nobody will ever receive must not wait out its timeout: the
        // endpoint going away fails it.
        let server = ReqRepServer::new("svc.leaving");
        let client = server.client(instant_link());
        let dropper = thread::spawn(move || {
            while server.queue_len() == 0 {
                thread::yield_now();
            }
            thread::sleep(Duration::from_millis(20));
            drop(server);
        });
        let start = std::time::Instant::now();
        let err = client
            .request_timeout(
                Message::new("svc.leaving", "req"),
                Duration::from_millis(500),
            )
            .unwrap_err();
        assert_eq!(err, CommError::Disconnected);
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "failed after {:?}, at the timeout rather than at the drop",
            start.elapsed()
        );
        dropper.join().unwrap();
        assert_eq!(
            client
                .send(Message::new("svc.leaving", "late"))
                .unwrap_err(),
            CommError::Disconnected
        );
    }

    use hpcml_sim::pool::RunCell;

    /// A server the way the serving plane builds one — its turn is the cell of a
    /// resumable run — that echoes, and counts what was asked of it.
    struct Echo {
        cell: RunCell,
        mailbox: Mailbox,
        /// Polls still to be refused: a holder that lets go after that many.
        refuse: AtomicUsize,
        polls: AtomicUsize,
        passes: AtomicUsize,
        wakes: AtomicUsize,
        /// Requests that reached a pass in the sender's hands, not through the mailbox.
        carried: AtomicUsize,
        served_on: Mutex<Vec<thread::ThreadId>>,
    }

    impl Echo {
        fn attached_to(server: &ReqRepServer) -> Arc<Self> {
            let echo = Arc::new(Echo {
                cell: RunCell::parked(),
                mailbox: server.mailbox(),
                refuse: AtomicUsize::new(0),
                polls: AtomicUsize::new(0),
                passes: AtomicUsize::new(0),
                wakes: AtomicUsize::new(0),
                carried: AtomicUsize::new(0),
                served_on: Mutex::new(Vec::new()),
            });
            server.attach(Arc::clone(&echo) as Arc<dyn Server>);
            echo
        }

        fn count(counter: &AtomicUsize) -> usize {
            counter.load(Ordering::Acquire)
        }
    }

    impl Server for Echo {
        fn try_take_turn(&self) -> bool {
            self.polls.fetch_add(1, Ordering::AcqRel);
            let refused = self
                .refuse
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                .is_ok();
            !refused && self.cell.try_hold()
        }

        fn serve_turn(&self, mut carried: Option<(Message, Responder)>) {
            self.cell.advance_until_parked(|| {
                self.passes.fetch_add(1, Ordering::AcqRel);
                let brought = carried.take().inspect(|_| {
                    self.carried.fetch_add(1, Ordering::AcqRel);
                });
                let queued = std::iter::from_fn(|| self.mailbox.try_recv());
                for (msg, responder) in brought.into_iter().chain(queued) {
                    self.served_on.lock().push(thread::current().id());
                    let mut echo = Message::new(msg.topic.clone(), "echo");
                    echo.payload = msg.payload;
                    let _ = responder.reply(echo);
                }
            });
        }

        fn wake(&self) {
            self.wakes.fetch_add(1, Ordering::AcqRel);
            if self.cell.hold_or_notify() {
                self.serve_turn(None);
            }
        }
    }

    fn ask(client: &ReqRepClient, text: &str) -> Message {
        client
            .request_timeout(
                Message::new("svc.turn", "req").with_text(text),
                Duration::from_secs(10),
            )
            .unwrap()
    }

    #[test]
    fn a_sender_that_finds_the_turn_free_serves_its_own_request_and_leaves_nothing_queued() {
        let server = ReqRepServer::new("svc.turn");
        let client = server.client(instant_link());

        // Sent before anybody serves: attaching to a non-empty queue wakes once.
        client.send(Message::new("svc.turn", "early")).unwrap();
        let echo = Echo::attached_to(&server);
        assert_eq!((Echo::count(&echo.wakes), server.queue_len()), (1, 0));

        // No other thread exists: the reply can only have been made by this one — on
        // a turn it took with its first poll, before it queued anything.
        let reply = ask(&client, "hi");
        assert_eq!((&*reply.kind, reply.text()), ("echo", Some("hi")));
        assert_eq!(*echo.served_on.lock(), [thread::current().id(); 2]);
        assert_eq!(server.queue_len(), 0);
        assert_eq!(
            (
                Echo::count(&echo.polls),
                Echo::count(&echo.passes),
                Echo::count(&echo.wakes),
                Echo::count(&echo.carried)
            ),
            (1, 2, 1, 1),
            "one poll, one pass over what it carried, nobody woken for the request"
        );

        // The next one is carried too, in a pass of its own.
        assert_eq!(ask(&client, "again").text(), Some("again"));
        assert_eq!(
            (Echo::count(&echo.passes), Echo::count(&echo.carried)),
            (3, 2)
        );

        // Detached: deliveries queue silently again.
        server.detach();
        client.send(Message::new("svc.turn", "late")).unwrap();
        assert_eq!((Echo::count(&echo.passes), server.queue_len()), (3, 1));
    }

    #[test]
    fn a_client_that_met_one_server_is_served_by_the_one_attached_now() {
        let server = ReqRepServer::new("svc.turn");
        let client = server.client(instant_link());
        let first = Echo::attached_to(&server);
        assert_eq!(ask(&client, "one").text(), Some("one"));
        // The client keeps a reference to the server it met; the endpoint decides.
        server.detach();
        client.send(Message::new("svc.turn", "nobody's")).unwrap();
        assert_eq!(server.queue_len(), 1, "detached: queued for a receiver");
        let second = Echo::attached_to(&server);
        assert_eq!(ask(&client, "two").text(), Some("two"));
        assert_eq!(
            (Echo::count(&first.carried), Echo::count(&second.carried)),
            (1, 1)
        );
        assert_eq!(
            Echo::count(&first.passes),
            1,
            "nothing since it was detached"
        );
    }

    #[test]
    fn a_sender_that_finds_the_turn_held_briefly_waits_for_it_and_serves_itself() {
        if thread::available_parallelism().map_or(true, |n| n.get() == 1) {
            eprintln!("skipped: one CPU, a sender does not wait for a turn there");
            return;
        }
        let server = ReqRepServer::new("svc.turn");
        let client = server.client(instant_link());
        let echo = Echo::attached_to(&server);
        // Somebody holds the turn and lets go of it three polls into the wait.
        echo.refuse.store(3, Ordering::Release);
        let reply = ask(&client, "patient");
        assert_eq!(reply.text(), Some("patient"));
        assert_eq!(*echo.served_on.lock(), [thread::current().id()]);
        assert_eq!(
            (
                Echo::count(&echo.polls),
                Echo::count(&echo.passes),
                Echo::count(&echo.wakes)
            ),
            (4, 1, 0),
            "taken on the fourth poll; the one pass is the sender's, nobody was woken"
        );
        assert_eq!(
            Echo::count(&echo.carried),
            1,
            "nothing was queued meanwhile: a late turn carries too"
        );
        assert_eq!(server.queue_len(), 0);
    }

    #[test]
    fn a_sender_that_finds_the_turn_held_past_the_wait_is_answered_by_the_holder() {
        let server = ReqRepServer::new("svc.turn");
        let client = server.client(instant_link());
        let echo = Echo::attached_to(&server);
        // The holder: has the turn and keeps it until a sender has given up waiting
        // and woken it — which, the turn being held, only notifies.
        assert!(echo.try_take_turn());
        let holder = {
            let echo = Arc::clone(&echo);
            thread::spawn(move || {
                while Echo::count(&echo.wakes) == 0 {
                    thread::yield_now();
                }
                let me = thread::current().id();
                echo.serve_turn(None);
                me
            })
        };
        let reply = ask(&client, "queued");
        assert_eq!(reply.text(), Some("queued"));
        let holder = holder.join().unwrap();
        assert_ne!(holder, thread::current().id());
        assert_eq!(*echo.served_on.lock(), [holder]);
        assert_eq!(
            (Echo::count(&echo.wakes), Echo::count(&echo.carried)),
            (1, 0),
            "what waits is queued"
        );
        let waited = if thread::available_parallelism().map_or(true, |n| n.get() == 1) {
            0
        } else {
            TURN_SPINS as usize
        };
        assert_eq!(
            Echo::count(&echo.polls),
            1 + 1 + waited,
            "the holder's poll, the sender's first, and the whole bounded wait"
        );
    }

    #[test]
    fn request_timeout_when_server_never_replies() {
        let server = ReqRepServer::new("svc.slow");
        let client = server.client(instant_link());
        // Server never replies: hold the request but do not respond.
        let err = client
            .request_timeout(Message::new("svc.slow", "req"), Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(err, CommError::Timeout);
        assert_eq!(server.queue_len(), 1);
    }

    #[test]
    fn in_flight_counts_each_request_from_post_to_reply_for_every_client_of_the_endpoint() {
        let server = ReqRepServer::new("svc.load");
        let clients: Vec<ReqRepClient> = (0..2).map(|_| server.client(instant_link())).collect();
        let loads = || {
            clients
                .iter()
                .map(ReqRepClient::in_flight)
                .collect::<Vec<_>>()
        };
        assert_eq!(loads(), [0, 0]);
        let mut held = Vec::new();
        let mut askers = Vec::new();
        for (n, client) in clients.iter().enumerate() {
            let client = client.clone();
            askers.push(thread::spawn(move || {
                client.request(Message::new("svc.load", "req")).unwrap()
            }));
            held.push(server.recv_timeout(Duration::from_secs(5)).unwrap());
            assert_eq!(loads(), [n + 1; 2], "received, not yet answered");
        }
        for (msg, responder) in held {
            responder.reply(Message::new(msg.topic, "reply")).unwrap();
        }
        for asker in askers {
            asker.join().unwrap();
        }
        assert_eq!(loads(), [0, 0], "answered");
    }

    #[test]
    fn in_flight_returns_to_zero_after_a_timeout_and_after_a_refused_send() {
        let server = ReqRepServer::new("svc.load");
        let client = server.client(instant_link());
        let err = client
            .request_timeout(Message::new("svc.load", "req"), Duration::from_millis(20))
            .unwrap_err();
        assert_eq!((err, client.in_flight()), (CommError::Timeout, 0));
        drop(server);
        let err = client.request(Message::new("svc.load", "req")).unwrap_err();
        assert_eq!((err, client.in_flight()), (CommError::Disconnected, 0));
        client.send(Message::new("svc.load", "late")).unwrap_err();
        assert_eq!(client.in_flight(), 0);
    }

    #[test]
    fn latency_link_adds_round_trip_time() {
        let clock = ClockSpec::scaled(10_000.0).build();
        let link = Link::new(
            "lat",
            Arc::clone(&clock),
            LatencyProfile::normal_ms(10.0, 0.0),
            5,
        );
        let server = ReqRepServer::new("svc.lat");
        let client = server.client(link);
        let handle = thread::spawn(move || {
            let (msg, r) = server.recv_timeout(Duration::from_secs(10)).unwrap();
            r.reply(Message::new(msg.topic, "reply")).unwrap();
        });
        let t0 = clock.now();
        let _ = client.request(Message::new("svc.lat", "req")).unwrap();
        let rt = clock.now().since(t0).as_secs_f64();
        // Two hops of 10 ms each => at least ~20 ms of virtual time.
        assert!(
            rt >= 0.015,
            "round trip {rt} should include both link traversals"
        );
        handle.join().unwrap();
    }

    #[test]
    fn fire_and_forget_send() {
        let server = ReqRepServer::new("svc.ctrl");
        let client = server.client(instant_link());
        client
            .send(Message::new("svc.ctrl", "control.stop"))
            .unwrap();
        let (msg, _r) = server.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.kind, "control.stop");
        assert_eq!(client.endpoint(), "svc.ctrl");
    }
}
