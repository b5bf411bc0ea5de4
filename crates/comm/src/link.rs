//! Latency injection for message hops.
//!
//! A [`Link`] represents the network path between two endpoints (client task ↔ service
//! instance, component ↔ component). Every traversal samples the link's
//! [`LatencyProfile`] and sleeps that long on the shared virtual clock, so higher layers
//! measure communication time exactly the way the paper does — as part of the observed
//! round trip, not as a synthetic constant.
//!
//! A traversal carries one message: one latency sample plus, when the profile charges
//! for bytes, the bandwidth term for that message's size.
//!
//! # Determinism
//!
//! Each link instance owns its own seeded RNG stream, advanced lock-free through an
//! atomic state word — traversals never contend on a mutex. Cloning a link (every
//! [`crate::reqrep::ReqRepClient`] clone carries one) derives a fresh stream from the
//! parent's base seed, the link label, and a per-clone index, so concurrent senders
//! draw from independent deterministic sequences instead of racing for one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::RngCore;

use hpcml_platform::network::LatencyProfile;
use hpcml_sim::clock::SharedClock;

/// Shared identity of a link family: every clone derives its RNG stream from here.
struct LinkOrigin {
    base_seed: u64,
    clone_counter: AtomicU64,
}

/// A seeded RNG stream advanced through an atomic word: each draw is one SplitMix64
/// output over a `fetch_add`-advanced state, so sampling is lock-free and every
/// concurrent draw still gets a distinct point of the stream. Under a single sender it
/// yields the same stream as `StdRng::seed_from_u64(seed)`.
struct AtomicRng {
    state: AtomicU64,
}

impl AtomicRng {
    fn seeded(seed: u64) -> Self {
        // Pre-advance once so the draw sequence (`mix` of the pre-`fetch_add` value)
        // matches `StdRng::seed_from_u64(seed)`'s post-advance sequence exactly.
        AtomicRng {
            state: AtomicU64::new(seed.wrapping_add(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// A borrowing handle implementing [`RngCore`] against the shared state.
    fn stream(&self) -> AtomicRngStream<'_> {
        AtomicRngStream { state: &self.state }
    }
}

/// Borrowed draw handle over an [`AtomicRng`] (the `&mut self` in [`RngCore`] applies
/// to the handle, not the shared state — advancement is the atomic `fetch_add`).
struct AtomicRngStream<'a> {
    state: &'a AtomicU64,
}

impl RngCore for AtomicRngStream<'_> {
    fn next_u64(&mut self) -> u64 {
        splitmix64(
            self.state
                .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed),
        )
    }
}

/// One SplitMix64 output step over an already-advanced state word.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a label, to fold it into derived stream seeds.
fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A (possibly latency-injecting) network path between two endpoints.
pub struct Link {
    clock: SharedClock,
    profile: LatencyProfile,
    rng: AtomicRng,
    label: Arc<str>,
    origin: Arc<LinkOrigin>,
}

impl Clone for Link {
    /// Clones derive their own deterministic RNG stream (base seed ⊕ label hash ⊕
    /// clone index), so each sender samples latency without touching shared state.
    fn clone(&self) -> Self {
        let idx = self.origin.clone_counter.fetch_add(1, Ordering::Relaxed);
        let seed = splitmix64(
            self.origin
                .base_seed
                .wrapping_add(hash_label(&self.label))
                .wrapping_add(idx.wrapping_mul(0xA076_1D64_78BD_642F)),
        );
        Link {
            clock: Arc::clone(&self.clock),
            profile: self.profile,
            rng: AtomicRng::seeded(seed),
            label: Arc::clone(&self.label),
            origin: Arc::clone(&self.origin),
        }
    }
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("label", &self.label)
            .field("mean_ms", &self.profile.mean_ms())
            .finish()
    }
}

impl Link {
    /// Create a link with the given latency profile.
    pub fn new(
        label: impl Into<String>,
        clock: SharedClock,
        profile: LatencyProfile,
        seed: u64,
    ) -> Self {
        Link {
            clock,
            profile,
            rng: AtomicRng::seeded(seed),
            label: Arc::from(label.into()),
            origin: Arc::new(LinkOrigin {
                base_seed: seed,
                clone_counter: AtomicU64::new(1),
            }),
        }
    }

    /// A zero-latency link (used for in-process component wiring where the paper would
    /// not count network time).
    pub fn instant(clock: SharedClock) -> Self {
        Link::new("instant", clock, LatencyProfile::normal_ms(0.0, 0.0), 0)
    }

    /// The link's latency profile.
    pub fn profile(&self) -> &LatencyProfile {
        &self.profile
    }

    /// Human-readable label (e.g. `delta->r3`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The bytes a traversal is to be priced by: `encoded_len()` is called only when the
    /// profile charges for bytes. Most do not (`per_kib_ms` 0), and a message's encoded
    /// length renders every numeric header — the dearest thing a hop would do.
    pub fn priced_bytes(&self, encoded_len: impl FnOnce() -> usize) -> usize {
        if self.profile.per_kib_ms != 0.0 {
            encoded_len()
        } else {
            0
        }
    }

    /// Traverse the link one way with a payload of `payload_bytes`, sleeping the sampled
    /// latency on the virtual clock. Returns the injected delay in seconds.
    pub fn traverse(&self, payload_bytes: usize) -> f64 {
        // Lock-free sample: the stream state advances via `fetch_add`, so concurrent
        // traversals of a shared link interleave draws instead of serialising.
        let mut rng = self.rng.stream();
        let delay = self.profile.sample_one_way(payload_bytes, &mut rng);
        self.clock.sleep(delay);
        delay.as_secs_f64()
    }

    /// The clock this link sleeps on.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcml_sim::clock::ClockSpec;

    #[test]
    fn traverse_advances_virtual_time() {
        let clock = ClockSpec::scaled(10_000.0).build();
        let link = Link::new(
            "test",
            Arc::clone(&clock),
            LatencyProfile::normal_ms(5.0, 0.0),
            1,
        );
        let t0 = clock.now();
        let injected = link.traverse(128);
        let elapsed = clock.now().since(t0).as_secs_f64();
        assert!((injected - 0.005).abs() < 1e-6);
        assert!(
            elapsed >= injected * 0.5,
            "virtual clock must advance by roughly the injected delay"
        );
    }

    #[test]
    fn instant_link_is_effectively_free() {
        let clock = ClockSpec::scaled(1000.0).build();
        let link = Link::instant(Arc::clone(&clock));
        let d = link.traverse(1024);
        assert!(d < 1e-6);
        assert_eq!(link.label(), "instant");
    }

    #[test]
    fn a_traversal_pays_its_latency_and_its_bytes() {
        let clock = ClockSpec::scaled(100_000.0).build();
        // Zero-sigma latency plus a bandwidth term, so the pricing is exact.
        let profile = LatencyProfile::normal_ms(4.0, 0.0).with_per_kib_ms(1.0);
        let link = Link::new("priced", Arc::clone(&clock), profile, 3);
        // One 4 ms latency sample + 16 KiB * 1 ms/KiB of bandwidth.
        let delay = link.traverse(16 * 1024);
        assert!((delay - (0.004 + 0.016)).abs() < 1e-9, "got {delay}");
        assert!((link.traverse(0) - 0.004).abs() < 1e-9, "latency alone");
    }

    #[test]
    fn bytes_are_counted_only_for_a_link_that_charges_for_them() {
        let clock = ClockSpec::scaled(1000.0).build();
        let free = Link::instant(Arc::clone(&clock));
        assert_eq!(free.priced_bytes(|| unreachable!("nobody pays for it")), 0);
        let profile = LatencyProfile::normal_ms(0.0, 0.0).with_per_kib_ms(1.0);
        let priced = Link::new("priced", clock, profile, 1);
        assert_eq!(priced.priced_bytes(|| 2048), 2048);
    }

    #[test]
    fn clones_draw_independent_deterministic_streams() {
        let clock = ClockSpec::scaled(1_000_000.0).build();
        let profile = LatencyProfile::normal_ms(1.0, 0.5);
        let make = || Link::new("det", ClockSpec::scaled(1_000_000.0).build(), profile, 42);
        let a = make();
        let b = make();
        // Same construction order ⇒ identical streams, link by link and clone by clone.
        let a1 = a.clone();
        let b1 = b.clone();
        let base: Vec<f64> = (0..8).map(|_| a.traverse(64)).collect();
        let base2: Vec<f64> = (0..8).map(|_| b.traverse(64)).collect();
        assert_eq!(base, base2, "same seed ⇒ same stream");
        let c1: Vec<f64> = (0..8).map(|_| a1.traverse(64)).collect();
        let c2: Vec<f64> = (0..8).map(|_| b1.traverse(64)).collect();
        assert_eq!(c1, c2, "first clones agree across identically-built links");
        assert_ne!(base, c1, "clone stream differs from the parent stream");
        drop(clock);
    }

    #[test]
    fn remote_link_is_slower_than_local_link() {
        let clock = ClockSpec::scaled(1_000_000.0).build();
        let local = Link::new(
            "local",
            Arc::clone(&clock),
            LatencyProfile::paper_local(),
            2,
        );
        let remote = Link::new(
            "remote",
            Arc::clone(&clock),
            LatencyProfile::paper_remote(),
            2,
        );
        let n = 200;
        let l: f64 = (0..n).map(|_| local.traverse(64)).sum::<f64>() / n as f64;
        let r: f64 = (0..n).map(|_| remote.traverse(64)).sum::<f64>() / n as f64;
        assert!(r > 3.0 * l, "remote mean {r} vs local mean {l}");
        assert!(link_is_debuggable(&local));
    }

    fn link_is_debuggable(l: &Link) -> bool {
        !format!("{l:?}").is_empty() && l.profile().mean_ms() > 0.0 && l.clock().scale() > 0.0
    }
}
