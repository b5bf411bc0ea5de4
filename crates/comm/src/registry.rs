//! Endpoint registry: where services publish themselves.
//!
//! The third component of the paper's bootstrap time is *publish* — the time a freshly
//! started service instance needs to make its endpoint known so that client tasks can
//! find it. In this reproduction the [`EndpointRegistry`] plays that role: services
//! register a [`ReqRepHandle`] under their service name together with metadata (model
//! name, node, GPUs); clients look the handle up (optionally blocking until it appears)
//! and connect to it over a [`crate::link::Link`] appropriate to their locality.
//!
//! # One snapshot, one wait
//!
//! The registry is lookup-heavy: every client task resolves its service endpoint, but
//! registrations happen only when instances start or stop. The entries are one
//! `RwLock<Arc<BTreeMap>>` **snapshot** — a reader takes the lock just long enough to
//! clone the `Arc` (writers hold it only for a pointer swap), then walks the snapshot
//! lock-free. Writers serialise on one version mutex, copy the map, mutate the copy,
//! and publish it as a fresh snapshot.
//!
//! A lookup that has to wait says what it waits for as a predicate over entries
//! ([`EndpointRegistry::wait_matching`]; [`EndpointRegistry::wait_for`] a name is one
//! such predicate): writers bump the version after publishing and notify, waiters
//! re-check the snapshot under the version mutex on every bump. Lock order is always
//! version mutex → snapshot `RwLock` write, never the reverse.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use crate::error::CommError;
use crate::reqrep::ReqRepHandle;

/// A registered endpoint: connection handle plus descriptive metadata.
#[derive(Debug, Clone)]
pub struct EndpointEntry {
    /// Registered name (usually the service id).
    pub name: String,
    /// Connection handle.
    pub handle: ReqRepHandle,
    /// Free-form metadata (model name, node name, platform, ...).
    pub metadata: BTreeMap<String, String>,
}

type Snapshot = Arc<BTreeMap<String, EndpointEntry>>;

/// Thread-safe endpoint registry with blocking lookup.
#[derive(Default)]
pub struct EndpointRegistry {
    /// Published snapshot; readers clone the Arc and walk it lock-free.
    snapshot: RwLock<Snapshot>,
    /// Version counter bumped on every publish; guards the condvar for waiters.
    version: Mutex<u64>,
    changed: Condvar,
}

impl std::fmt::Debug for EndpointRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EndpointRegistry")
            .field("len", &self.len())
            .finish()
    }
}

impl EndpointRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> Snapshot {
        Arc::clone(&self.snapshot.read())
    }

    /// Copy-on-write mutation: `f` edits a private copy of the map; a changed copy is
    /// published as the new snapshot and waiters are notified. Returns `f`'s payload.
    fn mutate<R>(&self, f: impl FnOnce(&mut BTreeMap<String, EndpointEntry>) -> (bool, R)) -> R {
        let mut version = self.version.lock();
        let mut copy = (**self.snapshot.read()).clone();
        let (changed, result) = f(&mut copy);
        if changed {
            *self.snapshot.write() = Arc::new(copy);
            *version += 1;
            self.changed.notify_all();
        }
        result
    }

    /// Register an endpoint. Fails if the name is already taken.
    pub fn register(
        &self,
        name: impl Into<String>,
        handle: ReqRepHandle,
        metadata: BTreeMap<String, String>,
    ) -> Result<(), CommError> {
        let name = name.into();
        self.mutate(|entries| {
            if entries.contains_key(&name) {
                return (false, Err(CommError::AlreadyRegistered(name.clone())));
            }
            entries.insert(
                name.clone(),
                EndpointEntry {
                    name: name.clone(),
                    handle,
                    metadata,
                },
            );
            (true, Ok(()))
        })
    }

    /// Remove an endpoint. Returns the removed entry if it existed.
    pub fn unregister(&self, name: &str) -> Option<EndpointEntry> {
        self.mutate(|entries| {
            let removed = entries.remove(name);
            (removed.is_some(), removed)
        })
    }

    /// Look up an endpoint without blocking. Snapshot read: never contends with
    /// other readers, and with writers only for the duration of an `Arc` clone.
    pub fn lookup(&self, name: &str) -> Option<EndpointEntry> {
        self.read().get(name).cloned()
    }

    /// Block until the endpoint appears or `timeout` (real time) elapses
    /// (`Duration::MAX`: without a deadline).
    pub fn wait_for(&self, name: &str, timeout: Duration) -> Result<EndpointEntry, CommError> {
        self.wait_matching(|entry| entry.name == name, timeout)
            .pop()
            .ok_or_else(|| CommError::EndpointNotFound(name.to_string()))
    }

    /// Block until some entry satisfies `matches`, or until `timeout` (real time)
    /// elapses (`Duration::MAX`: without a deadline). Returns every entry that does,
    /// sorted by name — none if the time ran out.
    pub fn wait_matching(
        &self,
        matches: impl Fn(&EndpointEntry) -> bool,
        timeout: Duration,
    ) -> Vec<EndpointEntry> {
        let deadline = Instant::now().checked_add(timeout);
        let mut version = self.version.lock();
        let mut timed_out = false;
        loop {
            // Looked at under the version lock, which every publish holds: none is missed.
            let found = self.matching(&matches);
            if !found.is_empty() || timed_out {
                return found;
            }
            timed_out = crate::wait_until(&self.changed, &mut version, deadline);
        }
    }

    /// Entries that satisfy `matches`, sorted by name.
    fn matching(&self, matches: impl Fn(&EndpointEntry) -> bool) -> Vec<EndpointEntry> {
        self.read()
            .values()
            .filter(|e| matches(e))
            .cloned()
            .collect()
    }

    /// Names of all registered endpoints (sorted).
    pub fn names(&self) -> Vec<String> {
        self.read().keys().cloned().collect()
    }

    /// All entries whose metadata key `key` equals `value`, sorted by name.
    pub fn find_by_metadata(&self, key: &str, value: &str) -> Vec<EndpointEntry> {
        self.matching(|e| e.metadata.get(key).map(String::as_str) == Some(value))
    }

    /// Number of registered endpoints.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True if no endpoint is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use crate::message::Message;
    use crate::reqrep::ReqRepServer;
    use hpcml_sim::clock::ClockSpec;
    use std::thread;

    fn meta(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn register_lookup_unregister() {
        let reg = EndpointRegistry::new();
        let server = ReqRepServer::new("svc.a");
        assert!(reg.is_empty());
        reg.register("svc.a", server.handle(), meta(&[("model", "llama-8b")]))
            .unwrap();
        assert_eq!(reg.len(), 1);
        let entry = reg.lookup("svc.a").unwrap();
        assert_eq!(entry.metadata["model"], "llama-8b");
        assert_eq!(reg.names(), vec!["svc.a".to_string()]);
        assert!(reg.lookup("svc.b").is_none());
        let removed = reg.unregister("svc.a").unwrap();
        assert_eq!(removed.name, "svc.a");
        assert!(reg.unregister("svc.a").is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let reg = EndpointRegistry::new();
        let server = ReqRepServer::new("svc.dup");
        reg.register("svc.dup", server.handle(), BTreeMap::new())
            .unwrap();
        let err = reg
            .register("svc.dup", server.handle(), BTreeMap::new())
            .unwrap_err();
        assert!(matches!(err, CommError::AlreadyRegistered(_)));
        assert_eq!(reg.len(), 1, "failed insert publishes nothing");
    }

    #[test]
    fn wait_for_blocks_until_registration() {
        let reg = Arc::new(EndpointRegistry::new());
        let reg2 = Arc::clone(&reg);
        let waiter = thread::spawn(move || reg2.wait_for("svc.late", Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        let server = ReqRepServer::new("svc.late");
        reg.register("svc.late", server.handle(), BTreeMap::new())
            .unwrap();
        let entry = waiter.join().unwrap().unwrap();
        assert_eq!(entry.name, "svc.late");
    }

    #[test]
    fn wait_for_times_out() {
        let reg = EndpointRegistry::new();
        let err = reg
            .wait_for("svc.never", Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, CommError::EndpointNotFound(_)));
        assert!(reg
            .wait_matching(|_| true, Duration::from_millis(20))
            .is_empty());
    }

    #[test]
    fn find_by_metadata_filters() {
        let reg = EndpointRegistry::new();
        let s1 = ReqRepServer::new("svc.1");
        let s2 = ReqRepServer::new("svc.2");
        let s3 = ReqRepServer::new("svc.3");
        reg.register("svc.1", s1.handle(), meta(&[("model", "llama-8b")]))
            .unwrap();
        reg.register("svc.2", s2.handle(), meta(&[("model", "noop")]))
            .unwrap();
        reg.register("svc.3", s3.handle(), meta(&[("model", "llama-8b")]))
            .unwrap();
        let llamas = reg.find_by_metadata("model", "llama-8b");
        assert_eq!(llamas.len(), 2);
        assert!(reg.find_by_metadata("model", "mistral").is_empty());
    }

    #[test]
    fn looked_up_handle_is_usable() {
        let reg = EndpointRegistry::new();
        let server = ReqRepServer::new("svc.echo");
        reg.register("svc.echo", server.handle(), BTreeMap::new())
            .unwrap();
        let entry = reg.lookup("svc.echo").unwrap();
        let clock = ClockSpec::scaled(100_000.0).build();
        let client = entry.handle.connect(Link::instant(clock));
        let t = thread::spawn(move || {
            let (msg, r) = server.recv_timeout(Duration::from_secs(2)).unwrap();
            r.reply(Message::new(msg.topic, "pong")).unwrap();
        });
        let reply = client.request(Message::new("svc.echo", "ping")).unwrap();
        assert_eq!(reply.kind, "pong");
        t.join().unwrap();
    }

    #[test]
    fn views_are_name_sorted() {
        let reg = EndpointRegistry::new();
        for i in (0..32).rev() {
            let name = format!("svc.{i:02}");
            let server = ReqRepServer::new(name.clone());
            let group = if i % 2 == 0 { "even" } else { "odd" };
            reg.register(name, server.handle(), meta(&[("group", group)]))
                .unwrap();
        }
        let names = reg.names();
        assert_eq!(
            names,
            (0..32).map(|i| format!("svc.{i:02}")).collect::<Vec<_>>()
        );
        let evens = reg.find_by_metadata("group", "even");
        let even_names: Vec<&str> = evens.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            even_names,
            names
                .iter()
                .step_by(2)
                .map(String::as_str)
                .collect::<Vec<_>>()
        );
        for i in (0..32).step_by(3) {
            assert!(reg.unregister(&format!("svc.{i:02}")).is_some());
        }
        assert_eq!(reg.len(), 32 - 11);
        assert!(!format!("{reg:?}").is_empty());
    }

    #[test]
    fn a_wait_without_a_deadline_returns_what_registers_later() {
        let reg = Arc::new(EndpointRegistry::new());
        let reg2 = Arc::clone(&reg);
        // `Duration::MAX` overflows an `Instant`: it means no deadline at all.
        let waiter = thread::spawn(move || reg2.wait_for("svc.later", Duration::MAX));
        thread::sleep(Duration::from_millis(20));
        let server = ReqRepServer::new("svc.later");
        reg.register("svc.later", server.handle(), BTreeMap::new())
            .unwrap();
        assert_eq!(waiter.join().unwrap().unwrap().name, "svc.later");
    }

    #[test]
    fn lookups_race_registration_churn() {
        let reg = Arc::new(EndpointRegistry::new());
        let stable = ReqRepServer::new("svc.stable");
        reg.register("svc.stable", stable.handle(), BTreeMap::new())
            .unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let churn = {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let name = format!("svc.churn.{}", i % 16);
                    let server = ReqRepServer::new(name.clone());
                    let _ = reg.register(name.clone(), server.handle(), BTreeMap::new());
                    let _ = reg.unregister(&name);
                    i += 1;
                }
            })
        };
        for _ in 0..2_000 {
            assert!(
                reg.lookup("svc.stable").is_some(),
                "stable entry visible through every snapshot"
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        churn.join().unwrap();
        assert!(reg.lookup("svc.stable").is_some());
    }
}
