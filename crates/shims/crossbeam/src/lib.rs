//! Offline shim for the `crossbeam` crate surface used by this workspace.
//!
//! Only [`channel`] is provided: multi-producer multi-consumer channels (bounded and
//! unbounded) built on `std::sync::{Mutex, Condvar}` with crossbeam-channel's API and
//! disconnection semantics. Throughput is far below real crossbeam but comfortably
//! above what the simulated runtime needs (the hot paths of this workspace are the
//! scheduler and the codec, not the channels).

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        capacity: Option<usize>,
    }

    fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    /// An unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// A bounded MPMC channel. Capacity 0 is treated as capacity 1 (this shim does not
    /// implement rendezvous channels; nothing in the workspace uses them).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(capacity.max(1)))
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Sender::try_send`].
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// All receivers are gone.
        Disconnected(T),
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived before the timeout.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// Sending half of a channel; cloneable for multiple producers.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> Sender<T> {
        /// Send, blocking while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self
                .chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.chan.capacity {
                    Some(cap) if st.queue.len() >= cap => {
                        st = self
                            .chan
                            .not_full
                            .wait(st)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    _ => break,
                }
            }
            st.queue.push_back(value);
            drop(st);
            self.chan.not_empty.notify_one();
            Ok(())
        }

        /// Send without blocking.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut st = self
                .chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = self.chan.capacity {
                if st.queue.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            st.queue.push_back(value);
            drop(st);
            self.chan.not_empty.notify_one();
            Ok(())
        }

        /// Number of queued messages.
        pub fn len(&self) -> usize {
            self.chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .queue
                .len()
        }

        /// True when no message is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .senders += 1;
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self
                .chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                // Wake blocked receivers so they observe the disconnect.
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    /// Receiving half of a channel; cloneable for multiple consumers.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> Receiver<T> {
        /// Receive, blocking until a message or disconnection.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self
                .chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    self.chan.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .chan
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Receive with a timeout.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self
                .chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    self.chan.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (g, _) = self
                    .chan
                    .not_empty
                    .wait_timeout(st, left)
                    .unwrap_or_else(PoisonError::into_inner);
                st = g;
            }
        }

        /// Receive without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self
                .chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.chan.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocking iterator draining the channel until disconnection.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }

        /// Number of queued messages.
        pub fn len(&self) -> usize {
            self.chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .queue
                .len()
        }

        /// True when no message is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .receivers += 1;
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self
                .chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.receivers -= 1;
            if st.receivers == 0 {
                // Nobody can receive what is queued: discard it, as crossbeam does
                // when the last receiver disconnects. Dropped outside the lock — a
                // message may own a sender of another channel, whose drop locks.
                let discarded = std::mem::take(&mut st.queue);
                drop(st);
                drop(discarded);
                // Wake blocked senders so they observe the disconnect.
                self.chan.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Blocking iterator over received messages.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn unbounded_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.len(), 2);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn bounded_try_send_full() {
            let (tx, rx) = bounded(2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
            let _ = rx.recv().unwrap();
            tx.try_send(3).unwrap();
        }

        #[test]
        fn bounded_send_blocks_until_space() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let t = thread::spawn(move || tx.send(2).map_err(|_| ()));
            thread::sleep(Duration::from_millis(10));
            assert_eq!(rx.recv(), Ok(1));
            t.join().unwrap().unwrap();
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn dropping_senders_disconnects() {
            let (tx, rx) = unbounded::<u32>();
            let tx2 = tx.clone();
            drop(tx);
            drop(tx2);
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn dropping_receivers_fails_send() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert!(tx.send(5).is_err());
            assert!(matches!(tx.try_send(5), Err(TrySendError::Disconnected(5))));
        }

        #[test]
        fn dropping_the_last_receiver_discards_queued_messages() {
            // A queued message that owns the sender of a reply channel: once nobody
            // can receive it, the party waiting for the reply must see a disconnect.
            let (tx, rx) = unbounded::<Sender<u32>>();
            let (reply_tx, reply_rx) = bounded::<u32>(1);
            tx.send(reply_tx).unwrap();
            let rx2 = rx.clone();
            drop(rx);
            assert_eq!(
                reply_rx.try_recv(),
                Err(TryRecvError::Empty),
                "a receiver is left"
            );
            drop(rx2);
            assert_eq!(tx.len(), 0, "the queue went with the last receiver");
            assert_eq!(
                reply_rx.recv_timeout(Duration::from_secs(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn recv_timeout_times_out() {
            let (_tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
        }

        #[test]
        fn mpmc_all_items_delivered() {
            let (tx, rx) = unbounded();
            let mut producers = Vec::new();
            for p in 0..4 {
                let tx = tx.clone();
                producers.push(thread::spawn(move || {
                    for i in 0..100 {
                        tx.send(p * 100 + i).unwrap();
                    }
                }));
            }
            drop(tx);
            let mut consumers = Vec::new();
            for _ in 0..4 {
                let rx = rx.clone();
                consumers.push(thread::spawn(move || rx.iter().count()));
            }
            drop(rx);
            for p in producers {
                p.join().unwrap();
            }
            let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            assert_eq!(total, 400);
        }
    }
}
