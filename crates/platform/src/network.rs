//! Network latency profiles.
//!
//! Experiment 2 of the paper is entirely latency-bound: the NOOP service replies
//! immediately, so the response time is dominated by the link between client task and
//! service endpoint. The paper measures 0.063 ± 0.014 ms for the local (intra-Delta)
//! case and 0.47 ± 0.04 ms for the remote (Delta → R3) case. This module expresses those
//! links as samplable [`LatencyProfile`]s that the communication layer injects on every
//! message hop.

use rand::Rng;

use hpcml_sim::dist::Dist;

/// Where two endpoints sit relative to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkLocality {
    /// Same process / same node.
    SameNode,
    /// Different nodes of the same platform.
    SamePlatform,
    /// Different platforms (WAN).
    Remote,
}

/// A one-way latency distribution for a network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// One-way latency distribution, in milliseconds.
    pub one_way_ms: Dist,
    /// Per-kilobyte serialisation/transfer cost in milliseconds (bandwidth term).
    pub per_kib_ms: f64,
}

impl LatencyProfile {
    /// Build a profile from a normal latency distribution in milliseconds.
    pub fn normal_ms(mean_ms: f64, std_ms: f64) -> Self {
        LatencyProfile {
            one_way_ms: Dist::normal(mean_ms, std_ms),
            per_kib_ms: 0.0,
        }
    }

    /// In-process / loopback: effectively free.
    pub fn loopback() -> Self {
        LatencyProfile::normal_ms(0.005, 0.001)
    }

    /// Generic HPC interconnect (Slingshot/InfiniBand class).
    pub fn hpc_interconnect() -> Self {
        LatencyProfile::normal_ms(0.002, 0.0005)
    }

    /// Generic intra-datacenter link.
    pub fn datacenter() -> Self {
        LatencyProfile::normal_ms(0.2, 0.05)
    }

    /// Generic wide-area link.
    pub fn wan() -> Self {
        LatencyProfile::normal_ms(20.0, 5.0)
    }

    /// The paper's measured local profile on Delta: 0.063 ms ± 0.014 ms.
    pub fn paper_local() -> Self {
        LatencyProfile::normal_ms(0.063, 0.014)
    }

    /// The paper's measured remote profile Delta → R3: 0.47 ms ± 0.04 ms.
    pub fn paper_remote() -> Self {
        LatencyProfile::normal_ms(0.47, 0.04)
    }

    /// Add a bandwidth term (milliseconds per KiB transferred).
    pub fn with_per_kib_ms(mut self, per_kib_ms: f64) -> Self {
        self.per_kib_ms = per_kib_ms;
        self
    }

    /// Mean one-way latency in milliseconds (payload-independent part).
    pub fn mean_ms(&self) -> f64 {
        self.one_way_ms.mean()
    }

    /// Sample the one-way delay for a message of `payload_bytes`.
    pub fn sample_one_way<R: Rng + ?Sized>(
        &self,
        payload_bytes: usize,
        rng: &mut R,
    ) -> std::time::Duration {
        let base_ms = self.one_way_ms.sample(rng).max(0.0);
        let bw_ms = self.per_kib_ms * (payload_bytes as f64 / 1024.0);
        std::time::Duration::from_secs_f64((base_ms + bw_ms) / 1e3)
    }

    /// Sample a full round trip (two one-way samples).
    pub fn sample_round_trip<R: Rng + ?Sized>(
        &self,
        payload_bytes: usize,
        reply_bytes: usize,
        rng: &mut R,
    ) -> std::time::Duration {
        self.sample_one_way(payload_bytes, rng) + self.sample_one_way(reply_bytes, rng)
    }
}

impl Default for LatencyProfile {
    fn default() -> Self {
        LatencyProfile::loopback()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_profiles_match_measurements() {
        assert!((LatencyProfile::paper_local().mean_ms() - 0.063).abs() < 1e-12);
        assert!((LatencyProfile::paper_remote().mean_ms() - 0.47).abs() < 1e-12);
    }

    #[test]
    fn remote_is_slower_than_local_on_average() {
        let mut rng = StdRng::seed_from_u64(1);
        let local = LatencyProfile::paper_local();
        let remote = LatencyProfile::paper_remote();
        let n = 10_000;
        let l: f64 = (0..n)
            .map(|_| local.sample_one_way(64, &mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        let r: f64 = (0..n)
            .map(|_| remote.sample_one_way(64, &mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!(r > 5.0 * l, "remote mean {r} should dwarf local mean {l}");
    }

    #[test]
    fn bandwidth_term_scales_with_payload() {
        let p = LatencyProfile::normal_ms(1.0, 0.0).with_per_kib_ms(0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let small = p.sample_one_way(1024, &mut rng);
        let big = p.sample_one_way(10 * 1024, &mut rng);
        assert!(big > small);
        assert!((big.as_secs_f64() * 1e3 - 6.0).abs() < 1e-6);
    }

    #[test]
    fn round_trip_is_two_one_ways() {
        let p = LatencyProfile::normal_ms(2.0, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let rt = p.sample_round_trip(0, 0, &mut rng);
        assert!((rt.as_secs_f64() * 1e3 - 4.0).abs() < 1e-6);
    }

    #[test]
    fn samples_never_negative() {
        let p = LatencyProfile::normal_ms(0.01, 1.0); // wide std to provoke negatives
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            let d = p.sample_one_way(0, &mut rng);
            assert!(d.as_secs_f64() >= 0.0);
        }
    }

    #[test]
    fn default_is_loopback() {
        assert_eq!(LatencyProfile::default(), LatencyProfile::loopback());
    }
}
