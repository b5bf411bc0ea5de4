//! Topic-based publish/subscribe (ZeroMQ PUB/SUB analogue).
//!
//! The runtime's `Updater` publishes entity state changes (task/service/pilot state
//! transitions) on topics; clients, dashboards, and third-party middleware subscribe to
//! the topics they care about (paper Fig. 2, flow ⑥). Subscriptions are prefix matches
//! like ZeroMQ's, so `state.task` receives `state.task.running` and `state.task.done`.
//!
//! # Shared fan-out
//!
//! Subscribers live in the publisher's process, so a publish hands them the message
//! itself, never an encoding of it: on the first match the message goes into an
//! [`Arc`] (moved by [`Publisher::publish_with`], cloned once by
//! [`Publisher::publish`]), and every matching subscriber gets a reference-count bump
//! of that `Arc` — delivery to N subscribers is one allocation plus N increments,
//! never N clones. Receives hand out the `Arc<Message>`.
//!
//! # One subscriber list, one inbox per subscriber
//!
//! The publisher keeps its subscribers in one reader-writer-locked list: a publish
//! reads it, subscribing writes it, and a subscriber that went away is pruned by the
//! next publish that finds it. Each subscriber's messages wait in an inbox of its own (a
//! queue, a condvar and a closed flag), so per-subscriber delivery order is publish
//! order for any single publisher. Either end closes the inbox: the subscriber by
//! dropping it, or the last [`Publisher`] clone by going away — after which a receive
//! that finds nothing fails with [`CommError::Disconnected`] at once.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpcml_sim::metrics::{null_sink, SharedScalarSink};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::error::CommError;
use crate::message::Message;

/// One subscriber's queue of messages, shared by the subscriber and its entry in the
/// publisher's list.
#[derive(Default)]
struct Inbox {
    messages: Mutex<VecDeque<Arc<Message>>>,
    arrived: Condvar,
    /// Set, under the `messages` lock, by whichever end goes first: the subscriber (the
    /// publisher prunes the entry) or the last publisher (receives stop waiting).
    closed: AtomicBool,
}

impl Inbox {
    fn push(&self, msg: Arc<Message>) {
        self.messages.lock().push_back(msg);
        self.arrived.notify_one();
    }

    fn close(&self) {
        let messages = self.messages.lock();
        self.closed.store(true, Ordering::Release);
        drop(messages);
        self.arrived.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// The oldest message, waiting for one until `deadline` (`None`: without a
    /// deadline).
    fn pop(&self, deadline: Option<Instant>) -> Result<Arc<Message>, CommError> {
        let mut messages = self.messages.lock();
        loop {
            if let Some(msg) = messages.pop_front() {
                return Ok(msg);
            }
            if self.is_closed() {
                return Err(CommError::Disconnected);
            }
            if crate::wait_until(&self.arrived, &mut messages, deadline) && messages.is_empty() {
                return Err(CommError::Timeout);
            }
        }
    }
}

struct SubscriberEntry {
    prefixes: Vec<String>,
    inbox: Arc<Inbox>,
}

impl SubscriberEntry {
    fn matches(&self, topic: &str) -> bool {
        self.prefixes.is_empty() || self.prefixes.iter().any(|p| topic.starts_with(p.as_str()))
    }
}

struct Inner {
    subscribers: RwLock<Vec<SubscriberEntry>>,
    /// Live subscriber count (kept exact across subscribe/close/prune).
    live: AtomicUsize,
    sink: SharedScalarSink,
}

impl Inner {
    fn new(sink: SharedScalarSink) -> Self {
        Inner {
            subscribers: RwLock::new(Vec::new()),
            live: AtomicUsize::new(0),
            sink,
        }
    }
}

impl Drop for Inner {
    /// The last publisher is gone: nothing more will arrive for anybody.
    fn drop(&mut self) {
        for sub in self.subscribers.write().iter() {
            sub.inbox.close();
        }
    }
}

/// Publishing side of a PUB/SUB channel.
#[derive(Clone)]
pub struct Publisher {
    inner: Arc<Inner>,
}

impl Default for Publisher {
    fn default() -> Self {
        Publisher::new()
    }
}

impl std::fmt::Debug for Publisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publisher")
            .field("subscribers", &self.subscriber_count())
            .finish()
    }
}

impl Publisher {
    /// Create a publisher with no subscribers.
    pub fn new() -> Self {
        Publisher {
            inner: Arc::new(Inner::new(null_sink())),
        }
    }

    /// Builder: attach a metrics sink recording `comm.fanout.width` per publish (as a
    /// [`ScalarSink::record_count`](hpcml_sim::metrics::ScalarSink::record_count)). Call
    /// at construction, before any subscriber joins — the runtime wires this in when
    /// the session is built.
    pub fn with_sink(self, sink: SharedScalarSink) -> Self {
        debug_assert_eq!(
            self.subscriber_count(),
            0,
            "attach the sink before subscribers join"
        );
        Publisher {
            inner: Arc::new(Inner::new(sink)),
        }
    }

    /// Number of live subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.inner.live.load(Ordering::Acquire)
    }

    /// Create a subscription for the given topic prefixes (empty prefix = everything).
    pub fn subscribe(&self, prefixes: &[&str]) -> Subscriber {
        let inbox = Arc::new(Inbox::default());
        let entry = SubscriberEntry {
            prefixes: prefixes.iter().map(|s| s.to_string()).collect(),
            inbox: Arc::clone(&inbox),
        };
        self.inner.subscribers.write().push(entry);
        self.inner.live.fetch_add(1, Ordering::AcqRel);
        Subscriber { inbox }
    }

    /// Publish a message to every subscriber whose prefix matches the message topic.
    ///
    /// The message is cloned once, into the `Arc` every delivery shares. Returns the
    /// number of subscribers that received it. Subscribers that closed are pruned in
    /// passing.
    pub fn publish(&self, msg: &Message) -> usize {
        self.publish_one(&msg.topic, || msg.clone())
    }

    /// [`Publisher::publish`] for a message that does not exist yet: `build` runs —
    /// once — only if a live subscriber's prefix matches `topic`, which must be the
    /// topic of the message it returns, and the message it builds moves into the
    /// shared `Arc`. Records the same `comm.fanout.width` count, matched or not: with
    /// no subscriber at all a publish is one atomic load and that one record, which
    /// in a session takes the recording thread's metric stripe lock.
    pub fn publish_with(&self, topic: &str, build: impl FnOnce() -> Message) -> usize {
        self.publish_one(topic, || {
            let msg = build();
            debug_assert_eq!(msg.topic, topic, "matched on another topic than sent");
            msg
        })
    }

    /// One message on `topic`, made by `build` on the first match, and its
    /// `comm.fanout.width` count in the sink.
    fn publish_one(&self, topic: &str, build: impl FnOnce() -> Message) -> usize {
        let delivered = self.fan_out(topic, build);
        self.inner
            .sink
            .record_count("comm.fanout.width", delivered as u64);
        delivered
    }

    /// Match every live subscriber's prefixes against `topic`, make the message with
    /// `build` on the first match (never, if nothing matches), deliver a share of it to
    /// every matching subscriber, prune closed entries. With no subscriber at all it
    /// reads one counter and takes no lock of its own; the publish around it still
    /// records its width into the sink (see [`Publisher::publish_with`]).
    fn fan_out(&self, topic: &str, build: impl FnOnce() -> Message) -> usize {
        if self.inner.live.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let (mut build, mut shared) = (Some(build), None::<Arc<Message>>);
        let mut delivered = 0;
        let mut any_closed = false;
        for sub in self.inner.subscribers.read().iter() {
            if sub.inbox.is_closed() {
                any_closed = true;
            } else if sub.matches(topic) {
                let shared =
                    shared.get_or_insert_with(|| Arc::new(build.take().expect("built once")()));
                sub.inbox.push(Arc::clone(shared));
                delivered += 1;
            }
        }
        if any_closed {
            let mut subs = self.inner.subscribers.write();
            let before = subs.len();
            subs.retain(|s| !s.inbox.is_closed());
            self.inner
                .live
                .fetch_sub(before - subs.len(), Ordering::AcqRel);
        }
        delivered
    }
}

/// Receiving side of a PUB/SUB channel. Dropping (or [`Subscriber::close`]-ing) the
/// subscriber unsubscribes it: the publisher stops delivering and prunes the entry.
pub struct Subscriber {
    inbox: Arc<Inbox>,
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        self.inbox.close();
    }
}

impl std::fmt::Debug for Subscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber")
            .field("pending", &self.pending())
            .finish()
    }
}

impl Subscriber {
    /// Stop receiving. Equivalent to dropping the subscriber; already-delivered
    /// messages stay readable.
    pub fn close(&self) {
        self.inbox.close();
    }

    /// Block for the next message, up to `timeout` (`Duration::MAX`: without one).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Arc<Message>, CommError> {
        self.inbox.pop(Instant::now().checked_add(timeout))
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Option<Arc<Message>>, CommError> {
        let msg = self.inbox.messages.lock().pop_front();
        match msg {
            Some(msg) => Ok(Some(msg)),
            None if self.inbox.is_closed() => Err(CommError::Disconnected),
            None => Ok(None),
        }
    }

    /// Drain everything currently pending.
    pub fn drain(&self) -> Vec<Arc<Message>> {
        self.inbox.messages.lock().drain(..).collect()
    }

    /// [`Subscriber::drain`] under the name the benchmark harness reads it by.
    pub fn drain_frames(&self) -> Vec<Arc<Message>> {
        self.drain()
    }

    /// Number of messages waiting.
    pub fn pending(&self) -> usize {
        self.inbox.messages.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matching_delivery() {
        let publisher = Publisher::new();
        let tasks = publisher.subscribe(&["state.task"]);
        let services = publisher.subscribe(&["state.service"]);
        let all = publisher.subscribe(&[]);
        assert_eq!(publisher.subscriber_count(), 3);

        let n = publisher.publish(&Message::new("state.task.running", "state.update"));
        assert_eq!(n, 2); // task subscriber + catch-all
        let n = publisher.publish(&Message::new("state.service.ready", "state.update"));
        assert_eq!(n, 2);

        assert_eq!(tasks.drain().len(), 1);
        assert_eq!(services.drain().len(), 1);
        assert_eq!(all.drain().len(), 2);
    }

    #[test]
    fn multiple_prefixes_one_subscriber() {
        let publisher = Publisher::new();
        let sub = publisher.subscribe(&["state.task", "state.pilot"]);
        publisher.publish(&Message::new("state.task.done", "u"));
        publisher.publish(&Message::new("state.pilot.active", "u"));
        publisher.publish(&Message::new("state.service.ready", "u"));
        assert_eq!(sub.drain().len(), 2);
    }

    #[test]
    fn recv_timeout_and_pending() {
        let publisher = Publisher::new();
        let sub = publisher.subscribe(&[]);
        assert_eq!(
            sub.recv_timeout(Duration::from_millis(5)).unwrap_err(),
            CommError::Timeout
        );
        publisher.publish(&Message::new("x", "y"));
        assert_eq!(sub.pending(), 1);
        let m = sub.recv_timeout(Duration::from_millis(50)).unwrap();
        assert_eq!(m.topic, "x");
    }

    #[test]
    fn publish_with_no_subscribers_is_zero() {
        let publisher = Publisher::new();
        assert_eq!(publisher.publish(&Message::new("t", "k")), 0);
        assert!(!format!("{publisher:?}").is_empty());
    }

    #[test]
    fn publish_with_builds_the_message_once_and_only_for_a_match() {
        use std::cell::Cell;
        let widths = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = Arc::clone(&widths);
        let publisher = Publisher::new().with_sink(Arc::new(move |name: &str, v: f64| {
            assert_eq!(name, "comm.fanout.width");
            sink.lock().push(v);
        }));
        let built = Cell::new(0);
        let publish = || {
            publisher.publish_with("state.task.Done", || {
                built.set(built.get() + 1);
                Message::new("state.task.Done", "state.update").with_header("state", "Done")
            })
        };
        assert_eq!(publish(), 0, "nobody listens");
        let services = publisher.subscribe(&["state.service"]);
        assert_eq!(publish(), 0, "nobody listens to tasks");
        assert_eq!(built.get(), 0);
        let tasks = publisher.subscribe(&["state.task"]);
        let all = publisher.subscribe(&[]);
        assert_eq!(publish(), 2);
        assert_eq!(built.get(), 1, "one message for two receivers");
        assert_eq!(services.pending(), 0);
        let got = tasks.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(got.header("state"), Some("Done"));
        let all = all.drain();
        assert_eq!(all.len(), 1);
        assert!(Arc::ptr_eq(&all[0], &got), "one message for two receivers");
        assert_eq!(*widths.lock(), [0.0, 0.0, 2.0], "one sample per publish");
    }

    #[test]
    fn fanout_shares_one_message() {
        let publisher = Publisher::new();
        let subs: Vec<Subscriber> = (0..4).map(|_| publisher.subscribe(&[])).collect();
        let msg = Message::new("events", "tick").with_text("shared payload");
        assert_eq!(publisher.publish(&msg), 4);
        let got: Vec<Arc<Message>> = subs
            .iter()
            .map(|s| s.recv_timeout(Duration::from_millis(100)).unwrap())
            .collect();
        for share in &got {
            assert!(
                Arc::ptr_eq(share, &got[0]),
                "all subscribers share one allocation"
            );
        }
        assert_eq!(Arc::strong_count(&got[0]), 4, "one share per subscriber");
        assert_eq!(*got[0], msg);
    }

    #[test]
    fn dropping_a_subscriber_unsubscribes_it() {
        let publisher = Publisher::new();
        let keep = publisher.subscribe(&[]);
        let gone = publisher.subscribe(&[]);
        assert_eq!(publisher.subscriber_count(), 2);
        drop(gone);
        // First publish notices the closed flag and prunes.
        assert_eq!(publisher.publish(&Message::new("t", "k")), 1);
        assert_eq!(publisher.subscriber_count(), 1);
        assert_eq!(keep.drain().len(), 1);
    }

    #[test]
    fn delivery_follows_publish_order() {
        let publisher = Publisher::new();
        let sub = publisher.subscribe(&["seq"]);
        let other = publisher.subscribe(&["other"]);
        for i in 0..10 {
            publisher.publish(&Message::new("seq", "tick").with_text(&i.to_string()));
        }
        let texts: Vec<String> = sub
            .drain()
            .iter()
            .map(|m| m.text().unwrap().to_string())
            .collect();
        assert_eq!(texts, (0..10).map(|i| i.to_string()).collect::<Vec<_>>());
        assert_eq!(other.pending(), 0);
    }

    #[test]
    fn a_receive_without_a_deadline_waits_for_the_next_message() {
        let publisher = Publisher::new();
        let sub = publisher.subscribe(&[]);
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            publisher.publish(&Message::new("late", "k"));
            publisher
        });
        // `Duration::MAX` overflows an `Instant`: it means no deadline at all.
        assert_eq!(sub.recv_timeout(Duration::MAX).unwrap().topic, "late");
        drop(late.join().unwrap());
    }

    #[test]
    fn dropping_every_publisher_disconnects_a_blocked_subscriber_at_once() {
        let publisher = Publisher::new();
        let sub = publisher.subscribe(&[]);
        publisher.publish(&Message::new("t", "k"));
        let last = publisher.clone();
        drop(publisher);
        assert_eq!(
            sub.try_recv().unwrap().unwrap().topic,
            "t",
            "delivered stays"
        );
        assert_eq!(sub.try_recv(), Ok(None), "one clone still publishes");
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(last);
        });
        let start = std::time::Instant::now();
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(10)).unwrap_err(),
            CommError::Disconnected
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "woken by the drop after {:?}, not by the timeout",
            start.elapsed()
        );
        dropper.join().unwrap();
    }

    #[test]
    fn cross_thread_delivery() {
        let publisher = Publisher::new();
        let sub = publisher.subscribe(&["events"]);
        let p2 = publisher.clone();
        let handle = std::thread::spawn(move || {
            for i in 0..50 {
                p2.publish(&Message::new("events", "tick").with_text(&i.to_string()));
            }
        });
        handle.join().unwrap();
        let got = sub.drain();
        assert_eq!(got.len(), 50);
        assert!(!format!("{sub:?}").is_empty());
    }

    #[test]
    fn sink_records_fanout_width() {
        use parking_lot::Mutex;
        let seen: Arc<Mutex<Vec<(String, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let publisher = Publisher::new().with_sink(Arc::new(move |name: &str, v: f64| {
            seen2.lock().push((name.to_string(), v));
        }));
        let _a = publisher.subscribe(&[]);
        let _b = publisher.subscribe(&[]);
        publisher.publish(&Message::new("t", "k"));
        assert_eq!(*seen.lock(), [("comm.fanout.width".to_string(), 2.0)]);
    }
}
