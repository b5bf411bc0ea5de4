//! Work queues (ZeroMQ PUSH/PULL analogue).
//!
//! RADICAL-Pilot's components are connected by queues: the scheduler's input queue, the
//! executor's queue, the stagers' queues (paper Fig. 2). A [`WorkQueue`] is a typed
//! multi-producer/multi-consumer queue with optional bounded capacity, shared by the
//! runtime components in this reproduction.
//!
//! # Batched transfer
//!
//! The fabric moves items in batches wherever the caller can tolerate it:
//! [`WorkQueueSender::push_batch`] enqueues a whole `Vec` in one call and
//! [`WorkQueueReceiver::recv_batch`] blocks for the first item, then takes whatever
//! else is already waiting (up to `max`) — the same greedy-drain rule as
//! [`crate::reqrep::ReqRepServer::recv_batch`], so a consumer loop amortises its
//! wake-up over every item that arrived while it slept. Order is FIFO per consumer:
//! `recv_batch` never reorders relative to a singleton [`WorkQueueReceiver::pop_timeout`]
//! loop.

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::time::Duration;

use hpcml_sim::metrics::SharedScalarSink;

use crate::error::CommError;

/// Sending half of a [`WorkQueue`].
pub struct WorkQueueSender<T> {
    tx: Sender<T>,
    name: String,
    sink: Option<SharedScalarSink>,
}

impl<T> Clone for WorkQueueSender<T> {
    fn clone(&self) -> Self {
        WorkQueueSender {
            tx: self.tx.clone(),
            name: self.name.clone(),
            sink: self.sink.clone(),
        }
    }
}

impl<T> std::fmt::Debug for WorkQueueSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkQueueSender")
            .field("name", &self.name)
            .finish()
    }
}

impl<T> WorkQueueSender<T> {
    /// Attach a metrics sink; every push records `comm.queue.depth` (post-push depth).
    pub fn with_sink(mut self, sink: SharedScalarSink) -> Self {
        self.sink = Some(sink);
        self
    }

    fn record_depth(&self) {
        if let Some(sink) = &self.sink {
            sink.record("comm.queue.depth", self.tx.len() as f64);
        }
    }

    /// Enqueue an item, blocking if the queue is bounded and full.
    pub fn push(&self, item: T) -> Result<(), CommError> {
        self.tx.send(item).map_err(|_| CommError::Disconnected)?;
        self.record_depth();
        Ok(())
    }

    /// Enqueue an item without blocking. A bounded queue at capacity returns
    /// [`CommError::Full`] — retry after consumers drain.
    pub fn try_push(&self, item: T) -> Result<(), CommError> {
        match self.tx.try_send(item) {
            Ok(()) => {
                self.record_depth();
                Ok(())
            }
            Err(TrySendError::Full(_)) => Err(CommError::Full),
            Err(TrySendError::Disconnected(_)) => Err(CommError::Disconnected),
        }
    }

    /// Enqueue a whole batch, blocking per item if the queue is bounded. One depth
    /// observation is recorded for the batch.
    pub fn push_batch(&self, items: Vec<T>) -> Result<(), CommError> {
        for item in items {
            self.tx.send(item).map_err(|_| CommError::Disconnected)?;
        }
        self.record_depth();
        Ok(())
    }

    /// Enqueue as much of a batch as fits without blocking. Returns the items that
    /// did **not** fit (empty on full success) or [`CommError::Disconnected`] if the
    /// receiving side is gone.
    pub fn try_push_batch(&self, items: Vec<T>) -> Result<Vec<T>, CommError> {
        let mut iter = items.into_iter();
        let mut rejected = Vec::new();
        for item in iter.by_ref() {
            match self.tx.try_send(item) {
                Ok(()) => {}
                Err(TrySendError::Full(item)) => {
                    rejected.push(item);
                    rejected.extend(iter);
                    break;
                }
                Err(TrySendError::Disconnected(_)) => return Err(CommError::Disconnected),
            }
        }
        self.record_depth();
        Ok(rejected)
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.tx.len()
    }

    /// True if the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.tx.is_empty()
    }
}

/// Receiving half of a [`WorkQueue`].
pub struct WorkQueueReceiver<T> {
    rx: Receiver<T>,
    name: String,
}

impl<T> Clone for WorkQueueReceiver<T> {
    fn clone(&self) -> Self {
        WorkQueueReceiver {
            rx: self.rx.clone(),
            name: self.name.clone(),
        }
    }
}

impl<T> std::fmt::Debug for WorkQueueReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkQueueReceiver")
            .field("name", &self.name)
            .field("pending", &self.rx.len())
            .finish()
    }
}

impl<T> WorkQueueReceiver<T> {
    /// Block until an item is available (no timeout). Errors only when every sender
    /// is gone — the shape a dedicated worker loop wants (`while let Ok(item) = rx.pop()`).
    pub fn pop(&self) -> Result<T, CommError> {
        self.rx.recv().map_err(|_| CommError::Disconnected)
    }

    /// Block until an item is available or `timeout` elapses.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<T, CommError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => CommError::Timeout,
            RecvTimeoutError::Disconnected => CommError::Disconnected,
        })
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        self.rx.try_recv().ok()
    }

    /// Receive up to `max` items in one call: block up to `timeout` for the first,
    /// then take whatever is already waiting. FIFO order relative to singleton pops.
    pub fn recv_batch(&self, max: usize, timeout: Duration) -> Result<Vec<T>, CommError> {
        let first = self.pop_timeout(timeout)?;
        let mut out = Vec::with_capacity(max.clamp(1, 64));
        out.push(first);
        while out.len() < max {
            match self.try_pop() {
                Some(item) => out.push(item),
                None => break,
            }
        }
        Ok(out)
    }

    /// Drain everything currently available.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(item) = self.try_pop() {
            out.push(item);
        }
        out
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.rx.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }
}

/// A named multi-producer/multi-consumer work queue.
pub struct WorkQueue<T> {
    sender: WorkQueueSender<T>,
    receiver: WorkQueueReceiver<T>,
}

impl<T> WorkQueue<T> {
    /// Create an unbounded queue.
    pub fn unbounded(name: impl Into<String>) -> Self {
        let name = name.into();
        let (tx, rx) = unbounded();
        WorkQueue {
            sender: WorkQueueSender {
                tx,
                name: name.clone(),
                sink: None,
            },
            receiver: WorkQueueReceiver { rx, name },
        }
    }

    /// Create a bounded queue with the given capacity.
    pub fn bounded(name: impl Into<String>, capacity: usize) -> Self {
        let name = name.into();
        let (tx, rx) = bounded(capacity);
        WorkQueue {
            sender: WorkQueueSender {
                tx,
                name: name.clone(),
                sink: None,
            },
            receiver: WorkQueueReceiver { rx, name },
        }
    }

    /// Clone the sending half.
    pub fn sender(&self) -> WorkQueueSender<T> {
        self.sender.clone()
    }

    /// Clone the receiving half.
    pub fn receiver(&self) -> WorkQueueReceiver<T> {
        self.receiver.clone()
    }

    /// Split into its two halves, dropping the queue wrapper.
    pub fn split(self) -> (WorkQueueSender<T>, WorkQueueReceiver<T>) {
        (self.sender, self.receiver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_within_single_consumer() {
        let q = WorkQueue::unbounded("test");
        let tx = q.sender();
        let rx = q.receiver();
        for i in 0..10 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.len(), 10);
        assert!(!tx.is_empty());
        let got: Vec<i32> = rx.drain();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(rx.is_empty());
    }

    #[test]
    fn bounded_queue_reports_full() {
        let q = WorkQueue::bounded("small", 2);
        let tx = q.sender();
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!(tx.try_push(3).unwrap_err(), CommError::Full);
        let rx = q.receiver();
        assert_eq!(rx.try_pop(), Some(1));
        tx.try_push(3).unwrap();
        assert_eq!(rx.drain(), vec![2, 3]);
    }

    #[test]
    fn batch_push_and_recv_preserve_fifo() {
        let q = WorkQueue::unbounded("batched");
        let (tx, rx) = q.split();
        tx.push_batch((0..8).collect()).unwrap();
        tx.push(8).unwrap();
        let first = rx.recv_batch(4, Duration::from_millis(50)).unwrap();
        assert_eq!(first, vec![0, 1, 2, 3]);
        let rest = rx.recv_batch(64, Duration::from_millis(50)).unwrap();
        assert_eq!(rest, vec![4, 5, 6, 7, 8]);
        assert_eq!(
            rx.recv_batch(4, Duration::from_millis(5)).unwrap_err(),
            CommError::Timeout
        );
    }

    #[test]
    fn try_push_batch_returns_overflow() {
        let q = WorkQueue::bounded("tight", 3);
        let (tx, rx) = q.split();
        let rejected = tx.try_push_batch(vec![1, 2, 3, 4, 5]).unwrap();
        assert_eq!(rejected, vec![4, 5], "overflow comes back in order");
        assert_eq!(rx.drain(), vec![1, 2, 3]);
        assert!(tx.try_push_batch(vec![6]).unwrap().is_empty());
        assert_eq!(rx.try_pop(), Some(6));
    }

    #[test]
    fn blocking_pop_sees_items_and_disconnect() {
        let q = WorkQueue::unbounded("worker");
        let (tx, rx) = q.split();
        let handle = thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(item) = rx.pop() {
                got.push(item);
            }
            got
        });
        tx.push_batch(vec![1, 2, 3]).unwrap();
        drop(tx);
        assert_eq!(handle.join().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn sink_records_queue_depth() {
        use parking_lot::Mutex;
        use std::sync::Arc;
        let depths: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let depths2 = Arc::clone(&depths);
        let q = WorkQueue::unbounded("observed");
        let tx = q
            .sender()
            .with_sink(Arc::new(move |name: &str, value: f64| {
                assert_eq!(name, "comm.queue.depth");
                depths2.lock().push(value);
            }));
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        tx.push_batch(vec![3, 4]).unwrap();
        assert_eq!(depths.lock().as_slice(), &[1.0, 2.0, 4.0]);
    }

    #[test]
    fn pop_timeout_on_empty_queue() {
        let q: WorkQueue<u32> = WorkQueue::unbounded("empty");
        let rx = q.receiver();
        assert_eq!(
            rx.pop_timeout(Duration::from_millis(5)).unwrap_err(),
            CommError::Timeout
        );
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn disconnected_when_all_senders_dropped() {
        let q: WorkQueue<u32> = WorkQueue::unbounded("dropme");
        let (tx, rx) = q.split();
        drop(tx);
        assert_eq!(
            rx.pop_timeout(Duration::from_millis(5)).unwrap_err(),
            CommError::Disconnected
        );
    }

    #[test]
    fn work_is_distributed_across_consumers() {
        let q = WorkQueue::unbounded("mpmc");
        let tx = q.sender();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rx = q.receiver();
            handles.push(thread::spawn(move || {
                let mut count = 0;
                while rx.pop_timeout(Duration::from_millis(100)).is_ok() {
                    count += 1;
                }
                count
            }));
        }
        for i in 0..200 {
            tx.push(i).unwrap();
        }
        drop(tx);
        drop(q);
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn debug_output_mentions_name() {
        let q: WorkQueue<u8> = WorkQueue::unbounded("sched-input");
        assert!(format!("{:?}", q.sender()).contains("sched-input"));
        assert!(format!("{:?}", q.receiver()).contains("sched-input"));
    }
}
