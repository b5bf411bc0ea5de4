//! Topic-based publish/subscribe (ZeroMQ PUB/SUB analogue).
//!
//! The runtime's `Updater` publishes entity state changes (task/service/pilot state
//! transitions) on topics; clients, dashboards, and third-party middleware subscribe to
//! the topics they care about (paper Fig. 2, flow ⑥). Subscriptions are prefix matches
//! like ZeroMQ's, so `state.task` receives `state.task.running` and `state.task.done`.
//!
//! # Zero-copy fan-out
//!
//! A publish encodes the message **once** into a frozen [`Bytes`] frame and hands the
//! same buffer to every matching subscriber — delivery to N subscribers is one encode
//! plus N reference-count bumps, never N clones or re-encodes. Subscribers decode
//! lazily: [`Subscriber::recv_timeout`] materialises an owned [`Message`],
//! [`Subscriber::recv_frame_timeout`] / [`Subscriber::drain_frames`] hand the shared
//! frame through untouched for consumers that route on
//! [`Message::decode_view`] without paying an owned decode.
//!
//! # Sharded subscriber lists
//!
//! Subscribers are striped over independent reader-writer-locked shards
//! ([`Publisher::with_shards`]); subscribe/unsubscribe churn write-locks exactly one
//! shard, so publishers (shared readers on every shard) keep fanning out instead of
//! serialising behind membership changes. Per-subscriber delivery order equals
//! publish order for any single publisher regardless of the shard count: a publish
//! walks the shards in index order and a subscriber lives in exactly one shard.

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use hpcml_sim::metrics::{null_sink, SharedScalarSink};

use crate::error::CommError;
use crate::message::Message;

/// Default number of subscriber shards.
const DEFAULT_SHARDS: usize = 4;

struct SubscriberEntry {
    prefixes: Vec<String>,
    tx: Sender<Bytes>,
    /// Set by the subscriber's drop/close; the publisher prunes flagged entries.
    closed: Arc<AtomicBool>,
}

impl SubscriberEntry {
    fn matches(&self, topic: &str) -> bool {
        self.prefixes.is_empty() || self.prefixes.iter().any(|p| topic.starts_with(p.as_str()))
    }
}

struct Inner {
    shards: Vec<RwLock<Vec<SubscriberEntry>>>,
    /// Round-robin rotor assigning new subscribers to shards.
    next_shard: AtomicUsize,
    /// Live subscriber count (kept exact across subscribe/close/prune).
    live: AtomicUsize,
    sink: SharedScalarSink,
}

/// Publishing side of a PUB/SUB channel.
#[derive(Clone)]
pub struct Publisher {
    inner: Arc<Inner>,
}

impl Default for Publisher {
    fn default() -> Self {
        Publisher::with_shards(DEFAULT_SHARDS)
    }
}

impl std::fmt::Debug for Publisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publisher")
            .field("subscribers", &self.subscriber_count())
            .field("shards", &self.inner.shards.len())
            .finish()
    }
}

impl Publisher {
    /// Create a publisher with the default shard count and no subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a publisher with an explicit subscriber-shard count (min 1). Shard
    /// count 1 serialises all membership changes on one lock — the pre-sharding
    /// behaviour, useful as a comparison baseline.
    pub fn with_shards(shards: usize) -> Self {
        Publisher {
            inner: Arc::new(Inner {
                shards: (0..shards.max(1))
                    .map(|_| RwLock::new(Vec::new()))
                    .collect(),
                next_shard: AtomicUsize::new(0),
                live: AtomicUsize::new(0),
                sink: null_sink(),
            }),
        }
    }

    /// Builder: attach a metrics sink recording `comm.fanout.width` per publish and
    /// `comm.publish.batch_size` per batch. Call at construction, before any
    /// subscriber joins — the runtime wires this in when the session is built.
    pub fn with_sink(self, sink: SharedScalarSink) -> Self {
        debug_assert_eq!(
            self.subscriber_count(),
            0,
            "attach the sink before subscribers join"
        );
        let shard_count = self.inner.shards.len();
        Publisher {
            inner: Arc::new(Inner {
                shards: (0..shard_count).map(|_| RwLock::new(Vec::new())).collect(),
                next_shard: AtomicUsize::new(0),
                live: AtomicUsize::new(0),
                sink,
            }),
        }
    }

    /// Number of subscriber shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Number of live subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.inner.live.load(Ordering::Acquire)
    }

    /// Create a subscription for the given topic prefixes (empty prefix = everything).
    /// Write-locks exactly one shard.
    pub fn subscribe(&self, prefixes: &[&str]) -> Subscriber {
        let (tx, rx) = unbounded();
        let closed = Arc::new(AtomicBool::new(false));
        let entry = SubscriberEntry {
            prefixes: prefixes.iter().map(|s| s.to_string()).collect(),
            tx,
            closed: Arc::clone(&closed),
        };
        let shard = self.inner.next_shard.fetch_add(1, Ordering::Relaxed) % self.inner.shards.len();
        self.inner.shards[shard].write().push(entry);
        self.inner.live.fetch_add(1, Ordering::AcqRel);
        Subscriber { rx, closed }
    }

    /// Publish a message to every subscriber whose prefix matches the message topic.
    ///
    /// The message is encoded once; every delivery shares the same frozen frame.
    /// Returns the number of subscribers that received it. Subscribers that closed
    /// are pruned from their shard in passing.
    pub fn publish(&self, msg: &Message) -> usize {
        self.publish_one(&msg.topic, || msg.encode())
    }

    /// [`Publisher::publish`] for a message that does not exist yet: `build` runs —
    /// once — only if a live subscriber's prefix matches `topic`, which must be the
    /// topic of the message it returns. Records the same `comm.fanout.width` sample.
    pub fn publish_with(&self, topic: &str, build: impl FnOnce() -> Message) -> usize {
        self.publish_one(topic, || {
            let msg = build();
            debug_assert_eq!(msg.topic, topic, "matched on another topic than sent");
            msg.encode()
        })
    }

    /// One message on `topic`, its frame made by `encode` on the first match.
    fn publish_one(&self, topic: &str, encode: impl FnOnce() -> Bytes) -> usize {
        let mut encode = Some(encode);
        let delivered = self.fan_out(
            &mut [None],
            |_| topic,
            |_| encode.take().expect("a frame is made once")(),
        );
        self.inner
            .sink
            .record("comm.fanout.width", delivered as f64);
        delivered
    }

    /// Publish a batch of messages in one pass: each message is encoded once (through
    /// one reusable scratch buffer), and each shard lock is taken once for the whole
    /// batch rather than once per message. Returns total deliveries.
    pub fn publish_batch(&self, msgs: &[Message]) -> usize {
        if msgs.is_empty() {
            return 0;
        }
        let mut scratch = BytesMut::new();
        let delivered = self.fan_out(
            &mut vec![None; msgs.len()],
            |i| &msgs[i].topic,
            |i| msgs[i].encode_into(&mut scratch),
        );
        self.inner
            .sink
            .record("comm.publish.batch_size", msgs.len() as f64);
        self.inner
            .sink
            .record("comm.fanout.width", delivered as f64 / msgs.len() as f64);
        delivered
    }

    /// Shared matching / fan-out core for `frames.len()` messages: match every live
    /// subscriber's prefixes against `topic(i)`, make message `i`'s frame with
    /// `encode(i)` on its first match (never, if nothing matches), deliver the same
    /// frame to every matching subscriber, prune closed entries per shard. With no
    /// subscriber at all it reads one counter and takes no lock.
    fn fan_out<'t>(
        &self,
        frames: &mut [Option<Bytes>],
        topic: impl Fn(usize) -> &'t str,
        mut encode: impl FnMut(usize) -> Bytes,
    ) -> usize {
        if self.inner.live.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut delivered = 0;
        for shard in &self.inner.shards {
            let mut any_closed = false;
            {
                let subs = shard.read();
                for sub in subs.iter() {
                    if sub.closed.load(Ordering::Acquire) {
                        any_closed = true;
                        continue;
                    }
                    for (i, slot) in frames.iter_mut().enumerate() {
                        if !sub.matches(topic(i)) {
                            continue;
                        }
                        let frame = slot.get_or_insert_with(|| encode(i)).clone();
                        if sub.tx.send(frame).is_ok() {
                            delivered += 1;
                        } else {
                            any_closed = true;
                        }
                    }
                }
            }
            if any_closed {
                let mut subs = shard.write();
                let before = subs.len();
                subs.retain(|s| !s.closed.load(Ordering::Acquire));
                let pruned = before - subs.len();
                if pruned > 0 {
                    self.inner.live.fetch_sub(pruned, Ordering::AcqRel);
                }
            }
        }
        delivered
    }
}

/// Receiving side of a PUB/SUB channel. Dropping (or [`Subscriber::close`]-ing) the
/// subscriber unsubscribes it: the publisher stops delivering and prunes the entry.
pub struct Subscriber {
    rx: Receiver<Bytes>,
    closed: Arc<AtomicBool>,
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        self.closed.store(true, Ordering::Release);
    }
}

impl std::fmt::Debug for Subscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber")
            .field("pending", &self.rx.len())
            .finish()
    }
}

impl Subscriber {
    /// Stop receiving. Equivalent to dropping the subscriber; already-delivered
    /// frames stay readable.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Block for the next message, up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, CommError> {
        self.recv_frame_timeout(timeout).and_then(Message::decode)
    }

    /// Block for the next raw frame (the publisher's shared encoded buffer), up to
    /// `timeout`. Zero-copy: decode with [`Message::decode_view`] to route without
    /// materialising an owned message.
    pub fn recv_frame_timeout(&self, timeout: Duration) -> Result<Bytes, CommError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            crossbeam::channel::RecvTimeoutError::Timeout => CommError::Timeout,
            crossbeam::channel::RecvTimeoutError::Disconnected => CommError::Disconnected,
        })
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Option<Message>, CommError> {
        match self.rx.try_recv() {
            Ok(frame) => Message::decode(frame).map(Some),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(CommError::Disconnected),
        }
    }

    /// Receive up to `max` messages in one call: block up to `timeout` for the first,
    /// then take whatever else is already waiting. Order matches publish order.
    pub fn recv_batch(&self, max: usize, timeout: Duration) -> Result<Vec<Message>, CommError> {
        let first = self.recv_timeout(timeout)?;
        let mut out = Vec::with_capacity(max.clamp(1, 64));
        out.push(first);
        while out.len() < max {
            match self.try_recv()? {
                Some(m) => out.push(m),
                None => break,
            }
        }
        Ok(out)
    }

    /// Drain everything currently pending as owned messages.
    pub fn drain(&self) -> Vec<Message> {
        let mut out = Vec::new();
        while let Ok(Some(m)) = self.try_recv() {
            out.push(m);
        }
        out
    }

    /// Drain everything currently pending as shared frames (no decode at all).
    pub fn drain_frames(&self) -> Vec<Bytes> {
        let mut out = Vec::new();
        while let Ok(frame) = self.rx.try_recv() {
            out.push(frame);
        }
        out
    }

    /// Number of messages waiting.
    pub fn pending(&self) -> usize {
        self.rx.len()
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
        assert_eq!(all.drain(), vec![got]);
        assert_eq!(*widths.lock(), [0.0, 0.0, 2.0], "one sample per publish");
    }

    #[test]
    fn fanout_shares_one_encoded_frame() {
        let publisher = Publisher::with_shards(2);
        let subs: Vec<Subscriber> = (0..4).map(|_| publisher.subscribe(&[])).collect();
        let msg = Message::new("events", "tick").with_text("shared payload");
        publisher.publish(&msg);
        let frames: Vec<Bytes> = subs
            .iter()
            .map(|s| s.recv_frame_timeout(Duration::from_millis(100)).unwrap())
            .collect();
        let first_ptr = frames[0].as_ref().as_ptr();
        for frame in &frames {
            assert_eq!(
                frame.as_ref().as_ptr(),
                first_ptr,
                "all subscribers share the same backing buffer"
            );
            let view = Message::decode_view(frame).unwrap();
            assert_eq!(view.topic, "events");
            assert_eq!(view.text(), Some("shared payload"));
        }
    }

    #[test]
    fn dropping_a_subscriber_unsubscribes_it() {
        let publisher = Publisher::with_shards(1);
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
    fn publish_batch_delivers_in_order() {
        let publisher = Publisher::with_shards(4);
        let sub = publisher.subscribe(&["seq"]);
        let other = publisher.subscribe(&["other"]);
        let msgs: Vec<Message> = (0..10)
            .map(|i| Message::new("seq", "tick").with_text(&i.to_string()))
            .collect();
        let delivered = publisher.publish_batch(&msgs);
        assert_eq!(delivered, 10);
        let got = sub.recv_batch(64, Duration::from_millis(100)).unwrap();
        let texts: Vec<&str> = got.iter().map(|m| m.text().unwrap()).collect();
        assert_eq!(
            texts,
            (0..10).map(|i| i.to_string()).collect::<Vec<_>>(),
            "batch order equals publish order"
        );
        assert_eq!(other.pending(), 0);
        assert_eq!(publisher.publish_batch(&[]), 0);
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
        publisher.publish_batch(&[Message::new("t", "k"), Message::new("t", "k")]);
        let seen = seen.lock();
        assert!(seen.contains(&("comm.fanout.width".to_string(), 2.0)));
        assert!(seen.contains(&("comm.publish.batch_size".to_string(), 2.0)));
    }
}
