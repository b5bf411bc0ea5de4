//! Offline shim for the `parking_lot` API surface used by this workspace.
//!
//! The build environment has no access to a crates registry, so the workspace vendors
//! a minimal, API-compatible implementation on top of `std::sync`. Poisoning is
//! swallowed (parking_lot has none), `Condvar` takes guards by `&mut` reference
//! exactly like the real crate, and — also like it — a notify that finds no waiter
//! makes no system call (see [`Condvar`]).

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

/// A mutex that never poisons and whose guard can be re-acquired by a [`Condvar`].
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking the current thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive access to the mutex).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// RAII guard for [`Mutex`]; wraps the std guard so a [`Condvar`] can take it by `&mut`.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

/// Result of a timed condition-variable wait.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True when the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Condition variable compatible with [`Mutex`]/[`MutexGuard`].
///
/// Like the crate this stands in for, `notify_*` return at once when nobody waits:
/// the std condvar underneath makes a futex system call per notify, waiter or not, so
/// the shim counts its waiters and reads the count first. A waiter raises the count
/// inside `wait*` *while it still holds its mutex* and drops it when the wait returns;
/// a notifier that changed the awaited condition under that mutex — notifying before
/// or after unlocking — has therefore either been seen by the waiter's check or sees
/// the waiter's count. (Notifying without ever taking the mutex can lose a wake-up
/// with any condvar, counted or not.)
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads between entering and leaving `wait*`.
    waiters: AtomicUsize,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Block until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard taken");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(g);
    }

    /// Block until notified or until `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        self.wait_for(guard, timeout)
    }

    /// Block until notified or for at most `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard taken");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (g, res) = self
            .inner
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(g);
        WaitTimeoutResult {
            timed_out: res.timed_out(),
        }
    }

    /// Wake one waiter. Returns whether there was one to wake.
    pub fn notify_one(&self) -> bool {
        let waiting = self.waiters.load(Ordering::SeqCst) > 0;
        if waiting {
            self.inner.notify_one();
        }
        waiting
    }

    /// Wake all waiters. Returns how many there were.
    pub fn notify_all(&self) -> usize {
        let waiting = self.waiters.load(Ordering::SeqCst);
        if waiting > 0 {
            self.inner.notify_all();
        }
        waiting
    }
}

/// Reader-writer lock that never poisons.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            Err(_) => f.write_str("RwLock(<locked>)"),
        }
    }
}

/// Shared read guard.
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Exclusive write guard.
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(format!("{m:?}").contains('2'));
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, c) = &*p2;
            let mut done = m.lock();
            while !*done {
                c.wait(&mut done);
            }
        });
        thread::sleep(Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn notify_without_a_waiter_wakes_nobody() {
        let c = Condvar::new();
        assert_eq!(c.notify_all(), 0);
        assert!(!c.notify_one());
        // A wait that has returned no longer counts.
        let m = Mutex::new(());
        assert!(c
            .wait_for(&mut m.lock(), Duration::from_millis(1))
            .timed_out());
        assert_eq!(c.notify_all(), 0);
    }

    #[test]
    fn notify_after_unlock_never_loses_a_waiter() {
        // The ordering the waiter count relies on: the waiter checks the condition
        // and enters `wait` under the mutex; the notifier changes the condition under
        // the mutex and notifies after unlocking. Whichever side wins the lock, the
        // waiter either sees the new value or is counted by the time the notifier
        // reads the count. Both sides leave a barrier together, so the two orders mix.
        const ROUNDS: usize = 1000;
        let pair = Arc::new((Mutex::new(0usize), Condvar::new()));
        let start = Arc::new(std::sync::Barrier::new(2));
        let waiter = {
            let (pair, start) = (Arc::clone(&pair), Arc::clone(&start));
            thread::spawn(move || {
                let (m, c) = &*pair;
                for round in 1..=ROUNDS {
                    start.wait();
                    let mut seen = m.lock();
                    while *seen < round {
                        let timed_out = c.wait_for(&mut seen, Duration::from_secs(10)).timed_out();
                        assert!(
                            !timed_out || *seen >= round,
                            "wake-up lost in round {round}"
                        );
                    }
                }
            })
        };
        let (m, c) = &*pair;
        for round in 1..=ROUNDS {
            start.wait();
            *m.lock() = round;
            c.notify_all();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let c = Condvar::new();
        let mut g = m.lock();
        let res = c.wait_until(&mut g, Instant::now() + Duration::from_millis(5));
        assert!(res.timed_out());
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(7);
        assert_eq!(*l.read(), 7);
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }
}
