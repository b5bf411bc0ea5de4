//! Property-based tests over the core data structures and invariants: statistics
//! correctness, resource-accounting conservation, state-machine legality, distribution
//! bounds, scheduler safety, and pub/sub and serving delivery.
//!
//! The environment has no registry access, so instead of `proptest` these use a small
//! hand-rolled harness: each property runs over many seeded-random cases (same binary →
//! same cases), and failures report the offending case number and seed so they can be
//! replayed with a plain unit test.

use hpcml::comm::message::Message;
use hpcml::platform::batch::{AllocationRequest, BatchSystem};
use hpcml::platform::resources::{
    GangPacking, NodeSpec, NodeState, ResourceError, ResourceRequest,
};
use hpcml::platform::PlatformId;
use hpcml::runtime::states::{ServiceState, TaskState};
use hpcml::sim::clock::ClockSpec;
use hpcml::sim::dist::Dist;
use hpcml::sim::stats::{percentile_sorted, OnlineStats, Summary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// Run `body` over `CASES` deterministic seeds, labelling failures with the case seed.
fn for_each_case(name: &str, mut body: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let seed = 0xC0FFEE ^ (case * 0x9E37_79B9);
        let mut rng = StdRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(panic) = result {
            eprintln!("property {name} failed at case {case} (seed {seed:#x})");
            std::panic::resume_unwind(panic);
        }
    }
}

/// Welford statistics match the naive two-pass computation.
#[test]
fn online_stats_matches_naive() {
    for_each_case("online_stats_matches_naive", |rng| {
        let values: Vec<f64> = (0..rng.gen_range(1usize..200))
            .map(|_| rng.gen_range(-1e6..1e6))
            .collect();
        let mut s = OnlineStats::new();
        for &v in &values {
            s.push(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((s.variance() - var).abs() < 1e-3 * (1.0 + var.abs()));
        assert_eq!(s.count(), values.len() as u64);
    });
}

/// Percentiles are monotone in the quantile and bounded by min/max.
#[test]
fn percentiles_are_monotone() {
    for_each_case("percentiles_are_monotone", |rng| {
        let values: Vec<f64> = (0..rng.gen_range(1usize..200))
            .map(|_| rng.gen_range(0.0..1e6))
            .collect();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let s = Summary::from_slice(&values);
        assert!(s.min <= s.p50 + 1e-9);
        assert!(s.p50 <= s.p90 + 1e-9);
        assert!(s.p90 <= s.p95 + 1e-9);
        assert!(s.p95 <= s.p99 + 1e-9);
        assert!(s.p99 <= s.max + 1e-9);
        let q = percentile_sorted(&sorted, 0.3);
        assert!(q >= s.min - 1e-9 && q <= s.max + 1e-9);
    });
}

/// Distribution samples respect their analytic bounds.
#[test]
fn distribution_samples_are_bounded() {
    for_each_case("distribution_samples_are_bounded", |rng| {
        let lo = rng.gen_range(0.0..10.0);
        let width = rng.gen_range(0.1..10.0);
        let hi = lo + width;
        let u = Dist::uniform(lo, hi);
        let t = Dist::TruncatedNormal {
            mean: lo,
            std: width,
            lo,
            hi,
        };
        let n = Dist::normal(lo, width);
        for _ in 0..64 {
            let v = u.sample(rng);
            assert!(v >= lo && v < hi);
            let v = t.sample(rng);
            assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
            assert!(n.sample(rng) >= 0.0, "normal samples are clamped at zero");
        }
    });
}

/// Node reserve/release conserves resources for arbitrary request sequences.
#[test]
fn node_accounting_conserves_resources() {
    for_each_case("node_accounting_conserves_resources", |rng| {
        let spec = NodeSpec::new(16, 4, 256.0, 40.0);
        let mut node = NodeState::new("prop-node", spec);
        let mut reserved = Vec::new();
        for _ in 0..rng.gen_range(1usize..32) {
            let req = ResourceRequest {
                cores: rng.gen_range(1u32..8),
                gpus: rng.gen_range(0u32..4),
                mem_gib: rng.gen_range(0.0..64.0),
                nodes: 1,
                packing: None,
            };
            if let Ok(r) = node.try_reserve(&req) {
                assert_eq!(r.0.len(), req.cores as usize);
                assert_eq!(r.1.len(), req.gpus as usize);
                reserved.push(r);
            }
            assert!(node.free_cores() <= spec.cores);
            assert!(node.free_gpus() <= spec.gpus);
            assert!(node.free_mem_gib() >= -1e-9);
        }
        for (cores, gpus, mem) in reserved {
            node.release(&cores, &gpus, mem);
        }
        assert!(node.is_idle());
    });
}

/// Allocation-level slot accounting also conserves resources.
#[test]
fn allocation_slots_conserve_resources() {
    for_each_case("allocation_slots_conserve_resources", |rng| {
        let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(2)).unwrap();
        let total_cores = alloc.total_cores();
        let total_gpus = alloc.total_gpus();
        let mut slots = Vec::new();
        for _ in 0..rng.gen_range(1usize..40) {
            let req = ResourceRequest {
                cores: rng.gen_range(1u32..16),
                gpus: rng.gen_range(0u32..3),
                mem_gib: 0.0,
                nodes: 1,
                packing: None,
            };
            if let Ok(slot) = alloc.allocate_slot(&req) {
                slots.push(slot);
            }
            assert!(alloc.free_cores() <= total_cores);
            assert!(alloc.free_gpus() <= total_gpus);
        }
        for slot in &slots {
            alloc.release_slot(slot).unwrap();
        }
        assert_eq!(alloc.free_cores(), total_cores);
        assert_eq!(alloc.free_gpus(), total_gpus);
        assert!(alloc.is_idle());
    });
}

/// Random interleaved allocate/release sequences conserve cores/GPUs and never
/// double-book a core or GPU index, at allocation scope (`reserve_distinct_indices`
/// lifted to the whole allocation, exercising the bitmask occupancy words and the
/// free-capacity index through incremental updates).
#[test]
fn interleaved_allocate_release_never_double_books() {
    use std::collections::HashSet;
    for_each_case("interleaved_allocate_release_never_double_books", |rng| {
        let batch = BatchSystem::new(PlatformId::Local.spec(), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(2)).unwrap();
        let total_cores = alloc.total_cores();
        let total_gpus = alloc.total_gpus();
        // (node_index, core_id) and (node_index, gpu_id) held by live slots.
        let mut live_cores: HashSet<(usize, u32)> = HashSet::new();
        let mut live_gpus: HashSet<(usize, u32)> = HashSet::new();
        let mut slots: Vec<hpcml::platform::Slot> = Vec::new();
        for _ in 0..rng.gen_range(1usize..80) {
            let do_release = !slots.is_empty() && rng.gen_bool(0.4);
            if do_release {
                let idx = rng.gen_range(0usize..slots.len());
                let slot = slots.swap_remove(idx);
                alloc.release_slot(&slot).unwrap();
                for m in &slot.members {
                    for c in &m.core_ids {
                        assert!(
                            live_cores.remove(&(m.node_index, *c)),
                            "released core was tracked"
                        );
                    }
                    for g in &m.gpu_ids {
                        assert!(
                            live_gpus.remove(&(m.node_index, *g)),
                            "released gpu was tracked"
                        );
                    }
                }
            } else {
                let req = ResourceRequest {
                    cores: rng.gen_range(1u32..5),
                    gpus: rng.gen_range(0u32..3),
                    mem_gib: rng.gen_range(0.0..32.0),
                    nodes: 1,
                    packing: None,
                };
                if let Ok(slot) = alloc.allocate_slot(&req) {
                    for m in &slot.members {
                        for c in &m.core_ids {
                            assert!(
                                live_cores.insert((m.node_index, *c)),
                                "core {} on node {} double-booked",
                                c,
                                m.node_index
                            );
                        }
                        for g in &m.gpu_ids {
                            assert!(
                                live_gpus.insert((m.node_index, *g)),
                                "gpu {} on node {} double-booked",
                                g,
                                m.node_index
                            );
                        }
                    }
                    slots.push(slot);
                }
            }
            // Conservation at every step: free + live == total.
            assert_eq!(alloc.free_cores() + live_cores.len() as u32, total_cores);
            assert_eq!(alloc.free_gpus() + live_gpus.len() as u32, total_gpus);
        }
        for slot in &slots {
            alloc.release_slot(slot).unwrap();
        }
        assert!(alloc.is_idle());
        assert_eq!(alloc.free_cores(), total_cores);
        assert_eq!(alloc.free_gpus(), total_gpus);
    });
}

/// Interleaved single-node and Whole-packed multi-node gang placements never overlap:
/// no two live slots (gang or not) ever share a core or GPU index on a node, every
/// Whole gang's members are distinct nodes that were fully idle when claimed, and
/// releasing a gang returns all of its member nodes to the idle bucket — verified by
/// re-claiming them and by the allocation's idle-node count matching a model kept
/// alongside. (The partial-packing counterpart is
/// `partial_gang_and_single_interleavings_never_double_book` below.)
#[test]
fn gang_and_single_placements_never_overlap() {
    use std::collections::{HashMap, HashSet};
    for_each_case("gang_and_single_placements_never_overlap", |rng| {
        let nodes = 6usize;
        let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(nodes)).unwrap();
        let spec = alloc.node_spec();
        let total_cores = alloc.total_cores();
        let mut live_cores: HashSet<(usize, u32)> = HashSet::new();
        let mut live_gpus: HashSet<(usize, u32)> = HashSet::new();
        // Live units per node, to model which nodes should count as idle.
        let mut node_units: HashMap<usize, usize> = HashMap::new();
        let mut slots: Vec<hpcml::platform::Slot> = Vec::new();
        for _ in 0..rng.gen_range(1usize..60) {
            let do_release = !slots.is_empty() && rng.gen_bool(0.4);
            if do_release {
                let idx = rng.gen_range(0usize..slots.len());
                let slot = slots.swap_remove(idx);
                alloc.release_slot(&slot).unwrap();
                for m in &slot.members {
                    for c in &m.core_ids {
                        assert!(live_cores.remove(&(m.node_index, *c)));
                    }
                    for g in &m.gpu_ids {
                        assert!(live_gpus.remove(&(m.node_index, *g)));
                    }
                    let units = node_units.get_mut(&m.node_index).unwrap();
                    *units -= m.core_ids.len() + m.gpu_ids.len();
                    if *units == 0 {
                        node_units.remove(&m.node_index);
                    }
                }
            } else {
                let gang_nodes = if rng.gen_bool(0.4) {
                    rng.gen_range(2usize..5)
                } else {
                    1
                };
                let req = ResourceRequest {
                    cores: rng.gen_range(1u32..spec.cores / 2 + 1),
                    gpus: rng.gen_range(0u32..spec.gpus + 1),
                    mem_gib: 0.0,
                    nodes: gang_nodes,
                    // This property models the Whole-packing invariant (gangs claim
                    // only idle nodes); Partial interleavings have their own model.
                    packing: Some(GangPacking::Whole),
                };
                if let Ok(slot) = alloc.allocate_slot(&req) {
                    assert_eq!(slot.num_nodes(), gang_nodes);
                    let member_nodes: HashSet<usize> = slot.node_indices().collect();
                    assert_eq!(
                        member_nodes.len(),
                        gang_nodes,
                        "gang members must be distinct nodes"
                    );
                    if gang_nodes > 1 {
                        for m in &slot.members {
                            assert!(
                                !node_units.contains_key(&m.node_index),
                                "gang claimed node {} which already hosts a slot",
                                m.node_index
                            );
                        }
                    }
                    for m in &slot.members {
                        for c in &m.core_ids {
                            assert!(
                                live_cores.insert((m.node_index, *c)),
                                "core {} on node {} double-booked by a {}-node slot",
                                c,
                                m.node_index,
                                gang_nodes
                            );
                        }
                        for g in &m.gpu_ids {
                            assert!(
                                live_gpus.insert((m.node_index, *g)),
                                "gpu {} on node {} double-booked by a {}-node slot",
                                g,
                                m.node_index,
                                gang_nodes
                            );
                        }
                        *node_units.entry(m.node_index).or_insert(0) +=
                            m.core_ids.len() + m.gpu_ids.len();
                    }
                    slots.push(slot);
                }
            }
            // The allocation's idle-node count must match the model: a node is idle
            // iff no live slot holds units on it (memory-free requests only here).
            assert_eq!(
                alloc.idle_nodes(),
                nodes - node_units.len(),
                "idle bucket must reflect exactly the nodes without live slots"
            );
            assert_eq!(
                alloc.free_cores() + live_cores.len() as u32,
                total_cores,
                "core conservation"
            );
        }
        for slot in &slots {
            alloc.release_slot(slot).unwrap();
        }
        assert!(alloc.is_idle());
        assert_eq!(alloc.idle_nodes(), nodes);
        // Every node is back in the idle bucket: a whole-allocation gang must fit.
        let all = alloc
            .allocate_slot(&ResourceRequest {
                cores: spec.cores,
                gpus: spec.gpus,
                mem_gib: 0.0,
                nodes,
                packing: None,
            })
            .expect("released gang members must return to the idle bucket");
        assert_eq!(all.num_nodes(), nodes);
        alloc.release_slot(&all).unwrap();
        assert!(alloc.is_idle());
    });
}

/// Partial-packing counterpart of `gang_and_single_placements_never_overlap`:
/// interleaved single-node tasks and *partially packed* sub-node gangs never
/// double-book a core or GPU index even though gang members co-locate beside live
/// slots, gang members are always distinct nodes, every member's `co_resident` flag
/// matches a model of which nodes carried live units at claim time, and releasing a
/// partial gang restores the exact headroom classes and idle counts — checked after
/// full teardown by the idle-node count, by per-class re-claims, and by a
/// whole-allocation gang fitting again.
#[test]
fn partial_gang_and_single_interleavings_never_double_book() {
    use std::collections::{HashMap, HashSet};
    for_each_case(
        "partial_gang_and_single_interleavings_never_double_book",
        |rng| {
            let nodes = 6usize;
            let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 1);
            let alloc = batch.submit(AllocationRequest::nodes(nodes)).unwrap();
            let spec = alloc.node_spec();
            let total_cores = alloc.total_cores();
            let total_gpus = alloc.total_gpus();
            let mut live_cores: HashSet<(usize, u32)> = HashSet::new();
            let mut live_gpus: HashSet<(usize, u32)> = HashSet::new();
            // Live units per node: the idle model and the co_resident oracle.
            let mut node_units: HashMap<usize, usize> = HashMap::new();
            let mut slots: Vec<hpcml::platform::Slot> = Vec::new();
            for _ in 0..rng.gen_range(1usize..80) {
                let do_release = !slots.is_empty() && rng.gen_bool(0.45);
                if do_release {
                    let idx = rng.gen_range(0usize..slots.len());
                    let slot = slots.swap_remove(idx);
                    alloc.release_slot(&slot).unwrap();
                    for m in &slot.members {
                        for c in &m.core_ids {
                            assert!(live_cores.remove(&(m.node_index, *c)));
                        }
                        for g in &m.gpu_ids {
                            assert!(live_gpus.remove(&(m.node_index, *g)));
                        }
                        let units = node_units.get_mut(&m.node_index).unwrap();
                        *units -= m.core_ids.len() + m.gpu_ids.len();
                        if *units == 0 {
                            node_units.remove(&m.node_index);
                        }
                    }
                } else {
                    let gang_nodes = if rng.gen_bool(0.5) {
                        rng.gen_range(2usize..nodes + 1)
                    } else {
                        1
                    };
                    // Sub-node member shares, so partial gangs genuinely co-locate.
                    let req = ResourceRequest {
                        cores: rng.gen_range(1u32..spec.cores / 2 + 1),
                        gpus: rng.gen_range(0u32..spec.gpus / 2 + 1),
                        mem_gib: 0.0,
                        nodes: gang_nodes,
                        packing: Some(GangPacking::Partial),
                    };
                    if let Ok(slot) = alloc.allocate_slot(&req) {
                        assert_eq!(slot.num_nodes(), gang_nodes);
                        let member_nodes: HashSet<usize> = slot.node_indices().collect();
                        assert_eq!(
                            member_nodes.len(),
                            gang_nodes,
                            "partial gang members must still be distinct nodes"
                        );
                        // Model-side count of members landing on already-busy nodes,
                        // taken *before* this slot's own units enter the model.
                        let expected_partial = slot
                            .node_indices()
                            .filter(|n| node_units.contains_key(n))
                            .count();
                        for m in &slot.members {
                            assert_eq!(
                                m.co_resident,
                                node_units.contains_key(&m.node_index),
                                "co_resident must reflect pre-claim occupancy of node {}",
                                m.node_index
                            );
                            for c in &m.core_ids {
                                assert!(
                                    live_cores.insert((m.node_index, *c)),
                                    "core {} on node {} double-booked by a {}-node slot",
                                    c,
                                    m.node_index,
                                    gang_nodes
                                );
                            }
                            for g in &m.gpu_ids {
                                assert!(
                                    live_gpus.insert((m.node_index, *g)),
                                    "gpu {} on node {} double-booked by a {}-node slot",
                                    g,
                                    m.node_index,
                                    gang_nodes
                                );
                            }
                            *node_units.entry(m.node_index).or_insert(0) +=
                                m.core_ids.len() + m.gpu_ids.len();
                        }
                        assert_eq!(
                            slot.partial_nodes(),
                            expected_partial,
                            "partial_nodes must count exactly the members placed on \
                             nodes the model knew to be busy at claim time"
                        );
                        slots.push(slot);
                    }
                }
                // Idle count and conservation must hold after every step, co-located
                // gangs included.
                assert_eq!(
                    alloc.idle_nodes(),
                    nodes - node_units.len(),
                    "a node is idle iff no live slot (gang member or single) touches it"
                );
                assert_eq!(
                    alloc.free_cores() + live_cores.len() as u32,
                    total_cores,
                    "core conservation"
                );
                assert_eq!(
                    alloc.free_gpus() + live_gpus.len() as u32,
                    total_gpus,
                    "gpu conservation"
                );
            }
            // Teardown in random order: exact headroom classes and idle counts must
            // come back.
            while !slots.is_empty() {
                let idx = rng.gen_range(0usize..slots.len());
                let slot = slots.swap_remove(idx);
                alloc.release_slot(&slot).unwrap();
            }
            assert!(alloc.is_idle());
            assert_eq!(alloc.idle_nodes(), nodes);
            assert_eq!(alloc.free_cores(), total_cores);
            assert_eq!(alloc.free_gpus(), total_gpus);
            // Exact headroom restoration: every node must again host a whole-node
            // share — as one whole-allocation gang (idle bucket) and per-node.
            let all = alloc
                .allocate_slot(&ResourceRequest {
                    cores: spec.cores,
                    gpus: spec.gpus,
                    mem_gib: spec.mem_gib,
                    nodes,
                    packing: Some(GangPacking::Partial),
                })
                .expect("partial-gang teardown must restore every headroom class");
            assert_eq!(all.num_nodes(), nodes);
            assert_eq!(all.partial_nodes(), 0, "all nodes idle again");
            alloc.release_slot(&all).unwrap();
            assert!(alloc.is_idle());
        },
    );
}

/// Random interleavings of single-node placements, releases, and backfill-drain
/// operations (begin / cancel / reserved placement, random Whole/Partial packing and
/// member shares) never double-book a unit and never leak a reservation: pinned
/// nodes are invisible to ordinary placements while keeping their physical occupancy
/// (idle for Whole pins, possibly still-busy for Partial ones), a cancelled drain
/// returns every pinned node to the correct headroom bucket (idle-count model
/// check), and a consumed drain turns exactly its pinned set into the gang's
/// members.
#[test]
fn drain_reserve_cancel_place_interleavings_never_double_book() {
    use std::collections::HashSet;
    for_each_case(
        "drain_reserve_cancel_place_interleavings_never_double_book",
        |rng| {
            let nodes = 5usize;
            let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 1);
            let alloc = batch.submit(AllocationRequest::nodes(nodes)).unwrap();
            let spec = alloc.node_spec();
            let total_cores = alloc.total_cores();
            let mut live_cores: HashSet<(usize, u32)> = HashSet::new();
            let mut busy_nodes: HashSet<usize> = HashSet::new();
            let mut slots: Vec<hpcml::platform::Slot> = Vec::new();
            // The model of the active drain: (id, target, request).
            let mut drain: Option<(u64, usize, ResourceRequest)> = None;

            let track_alloc = |slot: &hpcml::platform::Slot,
                               live_cores: &mut HashSet<(usize, u32)>,
                               busy_nodes: &mut HashSet<usize>| {
                for m in &slot.members {
                    for c in &m.core_ids {
                        assert!(
                            live_cores.insert((m.node_index, *c)),
                            "core {} on node {} double-booked",
                            c,
                            m.node_index
                        );
                    }
                    busy_nodes.insert(m.node_index);
                }
            };

            for _ in 0..rng.gen_range(10usize..80) {
                match rng.gen_range(0u32..10) {
                    // Single-node placement on non-reserved capacity.
                    0..=3 => {
                        let req = ResourceRequest {
                            cores: rng.gen_range(1u32..spec.cores + 1),
                            gpus: 0,
                            mem_gib: 0.0,
                            nodes: 1,
                            packing: None,
                        };
                        if let Ok(slot) = alloc.allocate_slot(&req) {
                            track_alloc(&slot, &mut live_cores, &mut busy_nodes);
                            slots.push(slot);
                        }
                    }
                    // Release a random live slot; freed idle nodes may be pinned.
                    4..=6 => {
                        if slots.is_empty() {
                            continue;
                        }
                        let idx = rng.gen_range(0usize..slots.len());
                        let slot = slots.swap_remove(idx);
                        alloc.release_slot(&slot).unwrap();
                        for m in &slot.members {
                            for c in &m.core_ids {
                                assert!(live_cores.remove(&(m.node_index, *c)));
                            }
                            if !live_cores.iter().any(|(n, _)| *n == m.node_index) {
                                busy_nodes.remove(&m.node_index);
                            }
                        }
                    }
                    // Open a reservation for a random gang width, member share, and
                    // packing policy (Partial drains may pin still-busy nodes whose
                    // headroom covers the share; Whole drains pin idle nodes only).
                    7 => {
                        let width = rng.gen_range(2usize..nodes + 1);
                        let req = ResourceRequest {
                            cores: rng.gen_range(spec.cores / 2..spec.cores + 1),
                            gpus: 0,
                            mem_gib: 0.0,
                            nodes: width,
                            packing: Some(if rng.gen_bool(0.5) {
                                GangPacking::Partial
                            } else {
                                GangPacking::Whole
                            }),
                        };
                        match alloc.begin_drain(&req) {
                            Ok(id) => {
                                assert!(drain.is_none(), "second drain must be rejected");
                                drain = Some((id, width, req));
                            }
                            Err(ResourceError::DrainActive) => assert!(drain.is_some()),
                            Err(e) => panic!("unexpected begin_drain error: {e:?}"),
                        }
                    }
                    // Cancel the active reservation.
                    8 => {
                        if let Some((id, _, _)) = drain.take() {
                            alloc.cancel_drain(id).unwrap();
                            assert_eq!(alloc.reserved_nodes(), 0);
                        }
                    }
                    // Try to place the draining gang through its reservation.
                    _ => {
                        if let Some((id, width, req)) = drain {
                            match alloc.allocate_reserved(id, &req) {
                                Ok(slot) => {
                                    assert_eq!(slot.num_nodes(), width);
                                    track_alloc(&slot, &mut live_cores, &mut busy_nodes);
                                    slots.push(slot);
                                    drain = None;
                                }
                                Err(ResourceError::InsufficientResources) => {
                                    let status = alloc.drain_status().unwrap();
                                    assert!(
                                        status.pinned() < status.target,
                                        "complete drain must place"
                                    );
                                }
                                Err(e) => panic!("unexpected allocate_reserved error: {e:?}"),
                            }
                        }
                    }
                }
                // Model checks after every step.
                let pinned = alloc.reserved_nodes();
                if let Some((_, target, _)) = &drain {
                    assert!(pinned <= *target, "reservation never overshoots its target");
                } else {
                    assert_eq!(pinned, 0, "no reservation may outlive its drain");
                }
                assert_eq!(
                    alloc.idle_nodes(),
                    nodes - busy_nodes.len(),
                    "pinning never changes physical occupancy (idle or pinned-partial)"
                );
                if let Some(status) = alloc.drain_status() {
                    assert_eq!(
                        status.pinned(),
                        pinned,
                        "drain_status splits exactly the pinned set"
                    );
                }
                assert_eq!(
                    alloc.free_cores() + live_cores.len() as u32,
                    total_cores,
                    "core conservation across drain operations"
                );
            }

            // Wind down: cancel any reservation, release everything, and prove no
            // pinned node leaked — the whole allocation must be claimable as one gang.
            if let Some((id, _, _)) = drain.take() {
                alloc.cancel_drain(id).unwrap();
            }
            for slot in &slots {
                alloc.release_slot(slot).unwrap();
            }
            assert_eq!(alloc.reserved_nodes(), 0);
            assert!(alloc.is_idle());
            assert_eq!(alloc.idle_nodes(), nodes);
            let all = alloc
                .allocate_slot(&ResourceRequest {
                    cores: spec.cores,
                    gpus: spec.gpus,
                    mem_gib: 0.0,
                    nodes,
                    packing: None,
                })
                .expect("cancelled/placed drains must leave every node in the idle bucket");
            alloc.release_slot(&all).unwrap();
        },
    );
}

/// Satellite regression: a draining gang that times out mid-reservation (some nodes
/// pinned, target never reached) returns every pinned node to the correct headroom
/// bucket — the idle-node count matches a model and nothing stays reserved.
#[test]
fn drain_timeout_mid_reservation_leaks_nothing() {
    use hpcml::runtime::scheduler::{Priority, Scheduler};
    use std::sync::Arc;
    use std::time::Duration;
    for_each_case("drain_timeout_mid_reservation_leaks_nothing", |rng| {
        let nodes = 4usize;
        let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(nodes)).unwrap();
        let spec = alloc.node_spec();
        // No overtake budget: the first arrival that passes the gang opens its drain.
        let scheduler = Arc::new(Scheduler::new(Arc::clone(&alloc)).with_max_overtakes(Some(0)));
        // Occupy a random non-empty subset of nodes so the reservation can only pin
        // the remaining idle ones and the gang can never complete.
        let held_nodes = rng.gen_range(1usize..nodes);
        let held: Vec<_> = (0..held_nodes)
            .map(|_| {
                scheduler
                    .allocate(
                        &ResourceRequest {
                            cores: spec.cores,
                            gpus: 0,
                            mem_gib: 0.0,
                            nodes: 1,
                            packing: None,
                        },
                        Priority::Task,
                        Duration::from_secs(1),
                    )
                    .unwrap()
            })
            .collect();
        let gang = ResourceRequest {
            cores: spec.cores,
            gpus: 0,
            mem_gib: 0.0,
            nodes,
            packing: None,
        };
        // The gang parks; a one-core arrival passes it, so it drains and pins the idle
        // remainder once that core is back; then it times out.
        let parked = Arc::clone(&scheduler);
        let gang_waiter = std::thread::spawn(move || {
            parked.allocate(&gang, Priority::Task, Duration::from_millis(100))
        });
        while scheduler.waiting_tasks() == 0 {
            std::thread::yield_now();
        }
        let narrow = scheduler
            .allocate(
                &ResourceRequest::cores(1).unwrap(),
                Priority::Task,
                Duration::from_secs(5),
            )
            .expect("a narrow arrival passes the gang");
        scheduler.release(&narrow).unwrap();
        assert_eq!(
            alloc.reserved_nodes(),
            nodes - held_nodes,
            "the drain pinned the idle remainder"
        );
        let err = gang_waiter.join().unwrap().unwrap_err();
        assert!(matches!(
            err,
            hpcml::runtime::RuntimeError::WaitTimeout { .. }
        ));
        assert_eq!(
            alloc.reserved_nodes(),
            0,
            "timed-out drain left pinned nodes reserved"
        );
        assert_eq!(
            alloc.idle_nodes(),
            nodes - held_nodes,
            "every pinned node must return to the idle count model"
        );
        // And to the correct headroom bucket: each formerly pinned node is placeable
        // again as a whole node.
        let reclaimed: Vec<_> = (0..nodes - held_nodes)
            .map(|_| {
                alloc
                    .allocate_slot(&ResourceRequest {
                        cores: spec.cores,
                        gpus: spec.gpus,
                        mem_gib: 0.0,
                        nodes: 1,
                        packing: None,
                    })
                    .expect("formerly pinned nodes must be placeable")
            })
            .collect();
        for slot in reclaimed.iter().chain(held.iter()) {
            scheduler.allocation().release_slot(slot).unwrap();
        }
        assert!(alloc.is_idle());
    });
}

/// Randomized multi-thread interleavings against one allocation: worker threads mix
/// single-node allocations, Partial- and Whole-packed gang claims, and releases,
/// while a drain actor cycles backfill reservations (begin → bounded wait for the
/// reserved placement → cancel on timeout). CI runs it in release mode.
///
/// Safety oracle: a shared occupancy set of (node, core) and (node, gpu) pairs —
/// inserted *after* every successful claim (a collision means the allocator
/// double-booked a unit) and drained *before* the release reaches the allocator (so
/// a racing re-claim of the freed unit can never false-positive). Liveness: a
/// watchdog aborts the process if a case fails to finish in bounded time — a
/// lock-order violation would deadlock exactly here. Teardown: full release must
/// restore the idle count, the free totals, and every headroom class (proven by a
/// whole-allocation whole-node-share gang fitting again), with no reservation left
/// behind.
#[test]
fn concurrent_gang_and_drain_interleavings_never_double_book() {
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    const THREADS: u64 = 4;
    const OPS: usize = 60;
    const NODES: usize = 32;

    for case in 0..8u64 {
        let seed = 0x5A4D ^ (case.wrapping_mul(0x9E37_79B9));
        let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(NODES)).unwrap();
        let spec = alloc.node_spec();
        let total_cores = alloc.total_cores();
        let total_gpus = alloc.total_gpus();
        // The occupancy oracle.
        let live_units: Arc<Mutex<HashSet<(usize, bool, u32)>>> =
            Arc::new(Mutex::new(HashSet::new()));
        let claim = move |oracle: &Mutex<HashSet<(usize, bool, u32)>>,
                          slot: &hpcml::platform::Slot| {
            let mut live = oracle.lock().unwrap();
            let member_nodes: HashSet<usize> = slot.node_indices().collect();
            assert_eq!(
                member_nodes.len(),
                slot.num_nodes(),
                "case {case}: gang members must be distinct nodes"
            );
            for m in &slot.members {
                for &c in &m.core_ids {
                    assert!(
                        live.insert((m.node_index, false, c)),
                        "case {case}: core {c} on node {} double-booked",
                        m.node_index
                    );
                }
                for &g in &m.gpu_ids {
                    assert!(
                        live.insert((m.node_index, true, g)),
                        "case {case}: gpu {g} on node {} double-booked",
                        m.node_index
                    );
                }
            }
        };
        let unclaim = move |oracle: &Mutex<HashSet<(usize, bool, u32)>>,
                            slot: &hpcml::platform::Slot| {
            let mut live = oracle.lock().unwrap();
            for m in &slot.members {
                for &c in &m.core_ids {
                    assert!(live.remove(&(m.node_index, false, c)));
                }
                for &g in &m.gpu_ids {
                    assert!(live.remove(&(m.node_index, true, g)));
                }
            }
        };

        // Bounded-time guarantee: a deadlock in the lock protocol would hang the
        // threads below; abort loudly instead of hanging CI.
        let done = Arc::new(AtomicBool::new(false));
        {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for _ in 0..1200 {
                    if done.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                eprintln!(
                    "allocator interleaving property: case {case} exceeded 120 s — deadlock?"
                );
                std::process::abort();
            });
        }

        // Workers keep churning until the drain actor has cycled all of its
        // reservations (with an ops floor), so drains genuinely race live
        // allocate/release traffic instead of a quiescent allocator.
        let drains_done = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let alloc = Arc::clone(&alloc);
            let oracle = Arc::clone(&live_units);
            let drains_done = Arc::clone(&drains_done);
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (0xA110C ^ t));
                let mut slots: Vec<hpcml::platform::Slot> = Vec::new();
                let mut ops = 0usize;
                while ops < OPS || !drains_done.load(Ordering::Acquire) {
                    ops += 1;
                    if !slots.is_empty() && rng.gen_bool(0.45) {
                        let idx = rng.gen_range(0usize..slots.len());
                        let slot = slots.swap_remove(idx);
                        unclaim(&oracle, &slot);
                        alloc.release_slot(&slot).unwrap();
                    } else {
                        let gang_nodes = if rng.gen_bool(0.4) {
                            rng.gen_range(2usize..6)
                        } else {
                            1
                        };
                        let req = ResourceRequest {
                            cores: rng.gen_range(1u32..spec.cores / 2 + 1),
                            gpus: rng.gen_range(0u32..spec.gpus / 2 + 1),
                            mem_gib: 0.0,
                            nodes: gang_nodes,
                            packing: match rng.gen_range(0u32..3) {
                                0 => Some(GangPacking::Whole),
                                1 => Some(GangPacking::Partial),
                                _ => None,
                            },
                        };
                        if let Ok(slot) = alloc.allocate_slot(&req) {
                            claim(&oracle, &slot);
                            slots.push(slot);
                        }
                    }
                }
                for slot in &slots {
                    unclaim(&oracle, slot);
                    alloc.release_slot(slot).unwrap();
                }
            }));
        }
        // The drain actor: cycles gang-shaped reservations against the churn.
        {
            let alloc = Arc::clone(&alloc);
            let oracle = Arc::clone(&live_units);
            let drains_done = Arc::clone(&drains_done);
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xD4A1);
                for _ in 0..4 {
                    let req = ResourceRequest {
                        cores: rng.gen_range(1u32..spec.cores / 2 + 1),
                        gpus: 0,
                        mem_gib: 0.0,
                        nodes: rng.gen_range(2usize..6),
                        packing: Some(if rng.gen_bool(0.5) {
                            GangPacking::Whole
                        } else {
                            GangPacking::Partial
                        }),
                    };
                    let id = alloc.begin_drain(&req).expect("single drain actor");
                    let deadline = Instant::now() + Duration::from_millis(200);
                    loop {
                        match alloc.allocate_reserved(id, &req) {
                            Ok(slot) => {
                                claim(&oracle, &slot);
                                unclaim(&oracle, &slot);
                                alloc.release_slot(&slot).unwrap();
                                break;
                            }
                            Err(ResourceError::InsufficientResources) => {
                                if Instant::now() >= deadline {
                                    alloc.cancel_drain(id).unwrap();
                                    break;
                                }
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("case {case}: reserved placement failed: {e:?}"),
                        }
                    }
                }
                drains_done.store(true, Ordering::Release);
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        done.store(true, Ordering::Release);

        // Teardown restored everything.
        assert!(live_units.lock().unwrap().is_empty(), "case {case}");
        assert!(alloc.is_idle(), "case {case}");
        assert_eq!(
            alloc.idle_nodes(),
            NODES,
            "case {case}: idle count restored"
        );
        assert_eq!(alloc.free_cores(), total_cores, "case {case}");
        assert_eq!(alloc.free_gpus(), total_gpus, "case {case}");
        assert_eq!(alloc.reserved_nodes(), 0, "case {case}: no drain leaked");
        assert!(alloc.drain_status().is_none(), "case {case}");
        // Headroom classes restored exactly: a whole-allocation gang of whole-node
        // shares (the idle bucket) must fit again.
        let all = alloc
            .allocate_slot(&ResourceRequest {
                cores: spec.cores,
                gpus: spec.gpus,
                mem_gib: spec.mem_gib,
                nodes: NODES,
                packing: None,
            })
            .expect("teardown must restore every headroom class");
        assert_eq!(all.num_nodes(), NODES);
        assert_eq!(all.partial_nodes(), 0, "case {case}: all nodes idle again");
        alloc.release_slot(&all).unwrap();
        assert!(alloc.is_idle());
    }
}

/// Node failures injected into live multithreaded churn — workers mixing single
/// and gang claims/releases, a drain actor cycling backfill reservations — never
/// double-book a unit and never leak capacity. The fault seed comes from
/// `FAULT_SEED` (default 0xFA117) so CI can sweep different failure schedules.
///
/// Safety oracle: a shared occupancy set plus a slot registry, both updated under
/// one mutex. The fault actor holds that mutex *across* `fail_node`, writing the
/// victims' units off atomically with the eviction — so a racing re-claim of the
/// freed units can never collide with stale entries. A slot evicted in the window
/// between its claim and its registration is parked in `evicted_pending` and
/// skipped when the claimer arrives. Releases of evicted slots must report
/// `NodeFailed` (tolerated), never a silent double-free.
///
/// Teardown oracle: free cores/GPUs equal exactly the healthy remainder, failed
/// nodes never re-enter the placement indexes (a Whole-packed gang over every
/// healthy node fits and avoids them), and no drain reservation leaks.
#[test]
fn node_failure_during_gang_claim_and_drain_never_double_books_or_leaks() {
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    #[derive(Default)]
    struct Oracle {
        live: HashSet<(usize, bool, u32)>,
        registry: HashMap<u64, Vec<(usize, bool, u32)>>,
        evicted_pending: HashSet<u64>,
    }

    fn register(oracle: &Mutex<Oracle>, slot: &hpcml::platform::Slot, case: u64) {
        let mut units = Vec::new();
        for m in &slot.members {
            for &c in &m.core_ids {
                units.push((m.node_index, false, c));
            }
            for &g in &m.gpu_ids {
                units.push((m.node_index, true, g));
            }
        }
        let mut o = oracle.lock().unwrap();
        if o.evicted_pending.remove(&slot.id) {
            // The hosting node died between the claim and this registration; the
            // units were already written off with the node.
            return;
        }
        let member_nodes: HashSet<usize> = slot.node_indices().collect();
        assert_eq!(
            member_nodes.len(),
            slot.num_nodes(),
            "case {case}: gang members must be distinct nodes"
        );
        for &u in &units {
            assert!(
                o.live.insert(u),
                "case {case}: unit {u:?} double-booked under node failures"
            );
        }
        o.registry.insert(slot.id, units);
    }

    fn unregister_and_release(
        oracle: &Mutex<Oracle>,
        alloc: &hpcml::platform::batch::Allocation,
        slot: &hpcml::platform::Slot,
        case: u64,
    ) {
        {
            let mut o = oracle.lock().unwrap();
            if let Some(units) = o.registry.remove(&slot.id) {
                for u in units {
                    assert!(o.live.remove(&u), "case {case}: released unit untracked");
                }
            }
        }
        match alloc.release_slot(slot) {
            Ok(()) | Err(ResourceError::NodeFailed(_)) => {}
            Err(e) => panic!("case {case}: release failed: {e:?}"),
        }
    }

    let fault_seed: u64 = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA117);
    const THREADS: u64 = 3;
    const OPS: usize = 60;
    const NODES: usize = 16;
    const FAULTS: usize = 3;

    for case in 0..6u64 {
        let seed = fault_seed ^ (case.wrapping_mul(0x9E37_79B9));
        let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(NODES)).unwrap();
        let spec = alloc.node_spec();
        let oracle: Arc<Mutex<Oracle>> = Arc::new(Mutex::new(Oracle::default()));

        let done = Arc::new(AtomicBool::new(false));
        {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for _ in 0..1200 {
                    if done.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                eprintln!("fault interleaving property: case {case} exceeded 120 s — deadlock?");
                std::process::abort();
            });
        }

        let actors_done = Arc::new(AtomicBool::new(false));
        let drains_done = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let alloc = Arc::clone(&alloc);
            let oracle = Arc::clone(&oracle);
            let actors_done = Arc::clone(&actors_done);
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (0xFA17 ^ t));
                let mut slots: Vec<hpcml::platform::Slot> = Vec::new();
                let mut ops = 0usize;
                while ops < OPS || !actors_done.load(Ordering::Acquire) {
                    ops += 1;
                    if !slots.is_empty() && rng.gen_bool(0.45) {
                        let idx = rng.gen_range(0usize..slots.len());
                        let slot = slots.swap_remove(idx);
                        unregister_and_release(&oracle, &alloc, &slot, case);
                    } else {
                        let gang_nodes = if rng.gen_bool(0.4) {
                            rng.gen_range(2usize..6)
                        } else {
                            1
                        };
                        let req = ResourceRequest {
                            cores: rng.gen_range(1u32..spec.cores / 2 + 1),
                            gpus: rng.gen_range(0u32..spec.gpus / 2 + 1),
                            mem_gib: 0.0,
                            nodes: gang_nodes,
                            packing: match rng.gen_range(0u32..3) {
                                0 => Some(GangPacking::Whole),
                                1 => Some(GangPacking::Partial),
                                _ => None,
                            },
                        };
                        if let Ok(slot) = alloc.allocate_slot(&req) {
                            register(&oracle, &slot, case);
                            slots.push(slot);
                        }
                    }
                }
                for slot in &slots {
                    unregister_and_release(&oracle, &alloc, slot, case);
                }
            }));
        }
        // The drain actor: backfill reservations racing the failures. A drain
        // whose pinned node dies mid-reservation is unpinned by `fail_node`; the
        // actor retries until its deadline, then cancels — either way nothing may
        // stay reserved.
        {
            let alloc = Arc::clone(&alloc);
            let oracle = Arc::clone(&oracle);
            let drains_done = Arc::clone(&drains_done);
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xD4A1);
                for _ in 0..4 {
                    let req = ResourceRequest {
                        cores: rng.gen_range(1u32..spec.cores / 2 + 1),
                        gpus: 0,
                        mem_gib: 0.0,
                        nodes: rng.gen_range(2usize..6),
                        packing: Some(if rng.gen_bool(0.5) {
                            GangPacking::Whole
                        } else {
                            GangPacking::Partial
                        }),
                    };
                    let id = match alloc.begin_drain(&req) {
                        Ok(id) => id,
                        Err(_) => continue,
                    };
                    let deadline = Instant::now() + Duration::from_millis(100);
                    loop {
                        match alloc.allocate_reserved(id, &req) {
                            Ok(slot) => {
                                register(&oracle, &slot, case);
                                unregister_and_release(&oracle, &alloc, &slot, case);
                                break;
                            }
                            Err(ResourceError::InsufficientResources) => {
                                if Instant::now() >= deadline {
                                    alloc.cancel_drain(id).unwrap();
                                    break;
                                }
                                std::thread::yield_now();
                            }
                            Err(_) => {
                                alloc.cancel_drain(id).unwrap();
                                break;
                            }
                        }
                    }
                }
                drains_done.store(true, Ordering::Release);
            }));
        }
        // The fault actor: seeded node failures against the live churn, with the
        // victims' units written off atomically under the oracle lock.
        let fault_handle = {
            let alloc = Arc::clone(&alloc);
            let oracle = Arc::clone(&oracle);
            let drains_done = Arc::clone(&drains_done);
            let actors_done = Arc::clone(&actors_done);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xFA11ED);
                let mut failed: HashSet<usize> = HashSet::new();
                for _ in 0..FAULTS {
                    std::thread::sleep(Duration::from_millis(5));
                    let node = rng.gen_range(0usize..NODES);
                    let mut o = oracle.lock().unwrap();
                    match alloc.fail_node(node) {
                        Ok(victims) => {
                            failed.insert(node);
                            for id in victims {
                                if let Some(units) = o.registry.remove(&id) {
                                    for u in units {
                                        assert!(
                                            o.live.remove(&u),
                                            "case {case}: evicted unit untracked"
                                        );
                                    }
                                } else {
                                    o.evicted_pending.insert(id);
                                }
                            }
                        }
                        Err(e) => panic!("case {case}: fail_node: {e:?}"),
                    }
                }
                // Keep workers churning until the drain actor has also finished,
                // so its last reservations race post-failure traffic too.
                while !drains_done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                actors_done.store(true, Ordering::Release);
                failed
            })
        };
        let failed_nodes = fault_handle.join().unwrap();
        for handle in handles {
            handle.join().unwrap();
        }
        done.store(true, Ordering::Release);

        // Teardown: nothing live, nothing reserved, capacity equals exactly the
        // healthy remainder.
        let healthy = NODES - failed_nodes.len();
        assert!(oracle.lock().unwrap().live.is_empty(), "case {case}");
        assert_eq!(alloc.failed_nodes(), failed_nodes.len(), "case {case}");
        assert_eq!(alloc.num_nodes(), healthy, "case {case}");
        assert_eq!(alloc.idle_nodes(), healthy, "case {case}: idle restored");
        assert_eq!(
            alloc.free_cores(),
            healthy as u32 * spec.cores,
            "case {case}: core capacity equals the healthy remainder"
        );
        assert_eq!(
            alloc.free_gpus(),
            healthy as u32 * spec.gpus,
            "case {case}: gpu capacity equals the healthy remainder"
        );
        assert_eq!(alloc.reserved_nodes(), 0, "case {case}: no drain leaked");
        assert!(alloc.drain_status().is_none(), "case {case}");
        // Failed nodes never re-enter the indexes: a Whole-packed gang across
        // every healthy node fits and avoids them.
        let all = alloc
            .allocate_slot(&ResourceRequest {
                cores: spec.cores,
                gpus: spec.gpus,
                mem_gib: 0.0,
                nodes: healthy,
                packing: Some(GangPacking::Whole),
            })
            .expect("healthy remainder must be fully claimable");
        for n in all.node_indices() {
            assert!(
                !failed_nodes.contains(&n),
                "case {case}: failed node {n} re-entered placement"
            );
        }
        alloc.release_slot(&all).unwrap();
    }
}

#[test]
fn task_state_walks_reach_terminal_states() {
    for_each_case("task_state_walks_reach_terminal_states", |rng| {
        let mut state = TaskState::New;
        let mut steps = 0;
        let mut retries = 0;
        for _ in 0..rng.gen_range(1usize..32) {
            let successors = state.successors();
            if successors.is_empty() {
                break;
            }
            let next = successors[rng.gen_range(0usize..successors.len())];
            assert!(state.can_transition_to(next));
            // The only cycle is the requeue edge a node failure takes:
            // Executing → Scheduling (and back through placement).
            if state == TaskState::Executing && next == TaskState::Scheduling {
                retries += 1;
            }
            state = next;
            steps += 1;
        }
        assert!(
            steps <= 6 + 2 * retries,
            "outside the retry cycle the task state graph is acyclic, \
             walk length {steps} with {retries} retries"
        );
    });
}

/// Same for the service state machine, and the bootstrap components only label the
/// three bootstrap phases.
#[test]
fn service_state_walks_are_legal() {
    for_each_case("service_state_walks_are_legal", |rng| {
        let mut state = ServiceState::New;
        let mut bootstrap_phases = 0;
        for _ in 0..rng.gen_range(1usize..32) {
            let successors = state.successors();
            if successors.is_empty() {
                break;
            }
            let next = successors[rng.gen_range(0usize..successors.len())];
            assert!(state.can_transition_to(next));
            if next.bootstrap_component().is_some() {
                bootstrap_phases += 1;
            }
            state = next;
        }
        assert!(bootstrap_phases <= 3);
    });
}

/// The wait queue keeps its admission contract when racing producers enter it
/// concurrently, whichever way their waiters sleep.
///
/// Scenario A (exact ordering oracle, polled waiters): capacity is held full while
/// the producers concurrently park whole-node service/task mixes — each producer
/// polls its placements in its own order, so its arrival order is its sequence
/// order. Exactly one node then circulates — whoever polls a placement to `Ready`
/// releases the slot only *after* appending to the completion log, so the log order
/// equals the placement order. Oracle: every service placement precedes every task
/// placement (service priority is absolute), and for each (class, producer) pair
/// the completions replay that producer's arrival order (equal requests place in
/// arrival order, whatever the window).
///
/// Scenario B (liveness + preemption under gang churn, blocked waiters): producers
/// race mixed sub-node tasks, two-node gangs (random packing) and services into
/// `allocate`, one thread each; once all are parked the held nodes are
/// drip-released. Oracle: no waiter is ever lost (every `allocate` places within
/// its timeout — a lost wakeup parks forever and a double-wake would double-book,
/// failing the release), a placed task never observes a parked service, and
/// teardown leaves no waiter counted, no drain reservation, and an idle allocation.
///
/// Liveness overall: a watchdog aborts the process if a case fails to finish in
/// bounded time — a lost wakeup or lock-order violation hangs here.
#[test]
fn queue_admission_preserves_priority_and_fifo() {
    use hpcml::runtime::scheduler::{Placement, PlacementPoll, Priority, Scheduler};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    const PRODUCERS: u64 = 3;
    const POLLERS: usize = 2;
    const NODES: usize = 4;
    const TIMEOUT: Duration = Duration::from_secs(60);

    for case in 0..8u64 {
        let seed = 0xBA7C4 ^ case.wrapping_mul(0x9E37_79B9);

        // Bounded-time guarantee for both scenarios of this case.
        let done = Arc::new(AtomicBool::new(false));
        {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for _ in 0..1200 {
                    if done.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                eprintln!("queue admission property: case {case} exceeded 120 s — lost wakeup?");
                std::process::abort();
            });
        }

        let setup = || {
            let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 1);
            let alloc = batch.submit(AllocationRequest::nodes(NODES)).unwrap();
            let spec = alloc.node_spec();
            let scheduler = Arc::new(Scheduler::new(Arc::clone(&alloc)));
            (batch, alloc, spec, scheduler)
        };

        // ---- Scenario A: exact ordering under single-token circulation. ----
        {
            let (_batch, alloc, spec, scheduler) = setup();
            let whole = ResourceRequest {
                cores: spec.cores,
                gpus: 0,
                mem_gib: 0.0,
                nodes: 1,
                packing: None,
            };
            // Hold every node so every arrival must park...
            let mut held: Vec<_> = (0..NODES)
                .map(|_| alloc.allocate_slot(&whole).unwrap())
                .collect();

            // Each producer's class sequence; a waiter's id is its index in `waiters`.
            let mut waiters: Vec<(Priority, u64, usize)> = Vec::new();
            let mut ranges = Vec::new();
            for p in 0..PRODUCERS {
                let mut rng = StdRng::seed_from_u64(seed ^ (0xA0D ^ p));
                let len = rng.gen_range(4usize..9);
                ranges.push(waiters.len()..waiters.len() + len);
                for seq in 0..len {
                    let priority = if rng.gen_bool(0.35) {
                        Priority::Service
                    } else {
                        Priority::Task
                    };
                    waiters.push((priority, p, seq));
                }
            }
            let waiters = Arc::new(waiters);
            let placements: Arc<Vec<Mutex<Option<Placement>>>> =
                Arc::new(waiters.iter().map(|_| Mutex::new(None)).collect());
            let ready = ReadyQueue::new();

            let producers: Vec<_> = ranges
                .into_iter()
                .map(|range| {
                    let (scheduler, waiters, placements, ready) = (
                        Arc::clone(&scheduler),
                        Arc::clone(&waiters),
                        Arc::clone(&placements),
                        Arc::clone(&ready),
                    );
                    std::thread::spawn(move || {
                        for id in range {
                            let mut slot = placements[id].lock().unwrap();
                            let mut placement = Placement::new(&whole, waiters[id].0);
                            let poll = scheduler.poll_placed(&mut placement, &ready.waker(id));
                            assert!(
                                matches!(poll, PlacementPoll::Pending),
                                "case {case}: waiter {id} must park while every node is held"
                            );
                            *slot = Some(placement);
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            assert_eq!(
                scheduler.waiting_services() + scheduler.waiting_tasks(),
                waiters.len(),
                "case {case}: every arrival parked"
            );

            // Whoever polls a waiter to `Ready` logs it strictly before the release
            // that lets the next placement happen.
            type ServeLog = Arc<Mutex<Vec<(Priority, u64, usize)>>>;
            let log: ServeLog = Arc::new(Mutex::new(Vec::new()));
            let pollers: Vec<_> = (0..POLLERS)
                .map(|_| {
                    let (scheduler, waiters, placements, ready, log) = (
                        Arc::clone(&scheduler),
                        Arc::clone(&waiters),
                        Arc::clone(&placements),
                        Arc::clone(&ready),
                        Arc::clone(&log),
                    );
                    std::thread::spawn(move || {
                        while log.lock().unwrap().len() < waiters.len() {
                            let Some(id) = ready.pop_wait(Duration::from_millis(20)) else {
                                continue;
                            };
                            let mut placement = placements[id].lock().unwrap();
                            let Some(pending) = placement.as_mut() else {
                                continue;
                            };
                            match scheduler.poll_placed(pending, &ready.waker(id)) {
                                PlacementPoll::Pending => {}
                                PlacementPoll::Ready(result) => {
                                    let (slot, _) = result.expect("no waiter may be lost");
                                    *placement = None;
                                    log.lock().unwrap().push(waiters[id]);
                                    scheduler.release(&slot).unwrap();
                                }
                            }
                        }
                    })
                })
                .collect();
            // ...then let exactly one node circulate through the queue.
            alloc.release_slot(&held.remove(0)).unwrap();
            scheduler.notify_capacity();
            for t in pollers {
                t.join().unwrap();
            }

            let log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
            let first_task = log
                .iter()
                .position(|(pr, ..)| *pr == Priority::Task)
                .unwrap_or(log.len());
            assert!(
                log[first_task..]
                    .iter()
                    .all(|(pr, ..)| *pr == Priority::Task),
                "case {case}: a service placed after a task: {log:?}"
            );
            // Arrival order holds per class queue.
            let mut last_seq: std::collections::HashMap<(bool, u64), usize> =
                std::collections::HashMap::new();
            for &(pr, p, seq) in &log {
                if let Some(prev) = last_seq.insert((pr == Priority::Service, p), seq) {
                    assert!(
                        prev < seq,
                        "case {case}: producer {p} {pr:?} served seq {seq} after {prev} — \
                         FIFO broken: {log:?}"
                    );
                }
            }
            for slot in &held {
                alloc.release_slot(slot).unwrap();
            }
            assert_eq!(scheduler.waiting_services(), 0, "case {case}");
            assert_eq!(scheduler.waiting_tasks(), 0, "case {case}");
            assert!(alloc.is_idle(), "case {case}: scenario A teardown");
        }

        // ---- Scenario B: liveness and preemption under gang churn. ----
        {
            let (_batch, alloc, spec, scheduler) = setup();
            let whole = ResourceRequest {
                cores: spec.cores,
                gpus: 0,
                mem_gib: 0.0,
                nodes: 1,
                packing: None,
            };
            let held: Vec<_> = (0..NODES)
                .map(|_| alloc.allocate_slot(&whole).unwrap())
                .collect();

            let mut producers = Vec::new();
            for p in 0..PRODUCERS {
                let scheduler = Arc::clone(&scheduler);
                producers.push(std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0x6A46 ^ p));
                    let len = rng.gen_range(4usize..9);
                    (0..len)
                        .map(|_| {
                            let (req, priority) = if rng.gen_bool(0.3) {
                                // Single-node service.
                                (
                                    ResourceRequest {
                                        cores: rng.gen_range(1u32..spec.cores + 1),
                                        gpus: 0,
                                        mem_gib: 0.0,
                                        nodes: 1,
                                        packing: None,
                                    },
                                    Priority::Service,
                                )
                            } else if rng.gen_bool(0.4) {
                                // Two-node gang, random packing.
                                (
                                    ResourceRequest {
                                        cores: rng.gen_range(1u32..spec.cores / 2 + 1),
                                        gpus: 0,
                                        mem_gib: 0.0,
                                        nodes: 2,
                                        packing: match rng.gen_range(0u32..3) {
                                            0 => Some(GangPacking::Whole),
                                            1 => Some(GangPacking::Partial),
                                            _ => None,
                                        },
                                    },
                                    Priority::Task,
                                )
                            } else {
                                // Sub-node task.
                                (
                                    ResourceRequest {
                                        cores: rng.gen_range(1u32..spec.cores / 2 + 1),
                                        gpus: 0,
                                        mem_gib: 0.0,
                                        nodes: 1,
                                        packing: None,
                                    },
                                    Priority::Task,
                                )
                            };
                            let scheduler = Arc::clone(&scheduler);
                            std::thread::spawn(move || {
                                let slot = scheduler
                                    .allocate(&req, priority, TIMEOUT)
                                    .expect("no waiter may be lost");
                                if priority == Priority::Task {
                                    // Every service arrived before the first node was
                                    // freed, so a parked service here means a task
                                    // jumped the gate.
                                    assert_eq!(
                                        scheduler.waiting_services(),
                                        0,
                                        "case {case}: a task placed while a service waited"
                                    );
                                }
                                scheduler.release(&slot).unwrap();
                            })
                        })
                        .collect::<Vec<_>>()
                }));
            }
            let consumers: Vec<_> = producers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            let parked_by = Instant::now() + Duration::from_secs(30);
            while scheduler.waiting_services() + scheduler.waiting_tasks() < consumers.len() {
                assert!(Instant::now() < parked_by, "case {case}: arrivals stuck");
                std::thread::sleep(Duration::from_micros(200));
            }
            for slot in &held {
                alloc.release_slot(slot).unwrap();
                scheduler.notify_capacity();
                std::thread::yield_now();
            }
            for c in consumers {
                c.join().unwrap();
            }

            assert_eq!(scheduler.waiting_services(), 0, "case {case}");
            assert_eq!(scheduler.waiting_tasks(), 0, "case {case}");
            assert_eq!(alloc.reserved_nodes(), 0, "case {case}: no drain leaked");
            assert!(alloc.drain_status().is_none(), "case {case}");
            assert!(alloc.is_idle(), "case {case}: scenario B teardown");
        }

        done.store(true, Ordering::Release);
    }
}

/// Shared PUB/SUB fan-out under concurrent subscribe/unsubscribe churn: every
/// message reaches every subscriber that is alive for its whole publish window,
/// exactly once and in publish order.
#[test]
fn pubsub_churn_delivers_exactly_once_in_order() {
    use hpcml::comm::pubsub::Publisher;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let publisher = Publisher::new();
    const MESSAGES: u64 = 200;
    const STABLE_SUBS: usize = 6;

    // Stable subscribers join before the first publish and live past the last.
    let stable: Vec<_> = (0..STABLE_SUBS)
        .map(|_| publisher.subscribe(&["churn.topic"]))
        .collect();

    // Churning threads subscribe and unsubscribe continuously while the publisher
    // runs; their deliveries are incidental — the property under test is that churn
    // never corrupts the stable subscribers' streams.
    let stop = Arc::new(AtomicBool::new(false));
    let churners: Vec<_> = (0..3)
        .map(|_| {
            let publisher = publisher.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut joined = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let sub = publisher.subscribe(&["churn.topic"]);
                    let _ = sub.try_recv();
                    drop(sub);
                    joined += 1;
                    // Keep the churn loop from starving the publisher on small hosts.
                    std::thread::yield_now();
                }
                joined
            })
        })
        .collect();

    let pub2 = publisher.clone();
    let publisher_thread = std::thread::spawn(move || {
        for i in 0..MESSAGES {
            pub2.publish(&Message::new("churn.topic", "seq").with_text(&i.to_string()));
        }
    });
    publisher_thread.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    let churn_rounds: u64 = churners.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(churn_rounds > 0, "churners made progress");
    // Pruning is publish-driven: one non-matching publish sweeps out every
    // subscriber the churners dropped.
    assert_eq!(publisher.publish(&Message::new("other.topic", "sweep")), 0);

    for (s, sub) in stable.iter().enumerate() {
        let got = sub.drain();
        let seqs: Vec<u64> = got
            .iter()
            .map(|m| m.text().unwrap().parse().unwrap())
            .collect();
        assert_eq!(
            seqs,
            (0..MESSAGES).collect::<Vec<u64>>(),
            "subscriber {s}: exactly once, publish order"
        );
    }
    assert_eq!(
        publisher.subscriber_count(),
        STABLE_SUBS,
        "dropped churn subscribers were pruned"
    );
}

// ---------------------------------------------------------------- serving plane

/// The serving path under interleaving: N client threads — each sending single
/// requests with seeded pauses, so that requests arrive while another client's
/// thread is mid-pass through the front-end or a replica — against batch sizes {1, 4}
/// and {1, 2} replicas, with 4 clients and with two more clients than the host has
/// CPUs. With no more clients than CPUs a sender that finds the service's turn taken
/// gets it within its bounded wait and serves itself; with more, holders are pre-empted
/// mid-pass, waits run out and requests queue behind the holder — so every cell runs
/// both the turn and its fallback. Whichever thread ends up advancing the runs (the
/// requester, or a different requester that was notified): every request is answered
/// exactly once and with its own `request_id`, each client gets its replies in the
/// order it sent, no reply reports a batch wider than the cap, no request is left
/// queued at a replica whose batch has room once the runs have parked, the service
/// counts every request once, and nothing is outstanding when `serve` returns.
#[test]
fn serving_interleavings_answer_every_request_exactly_once_in_client_order() {
    use hpcml::comm::link::Link;
    use hpcml::comm::reqrep::ReqRepServer;
    use hpcml::serving::protocol::{HDR_BATCH_SIZE, HDR_REQUEST_ID, KIND_INFER_REPLY};
    use hpcml::serving::service::inference_request_message;
    use hpcml::serving::{InferenceRequest, InferenceService, ModelHost, ModelSpec, ServingConfig};
    use hpcml::sim::metrics::null_sink;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    const REQUESTS: usize = 60;

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cells = [(1usize, 1usize), (4, 1), (1, 2), (4, 2)]
        .into_iter()
        .flat_map(|(max_batch, replicas)| [4, cpus + 2].map(|n| (max_batch, replicas, n)));
    for (case, (max_batch, replicas, n_clients)) in cells.enumerate() {
        let clock = ClockSpec::scaled(1000.0).build();
        let hosts: Vec<Arc<ModelHost>> = (0..replicas)
            .map(|i| {
                let host = ModelHost::from_spec(ModelSpec::noop(), Arc::clone(&clock), i as u64);
                host.load();
                Arc::new(host)
            })
            .collect();
        let config = ServingConfig::default()
            .replicas(replicas)
            .max_batch_size(max_batch);
        let service = Arc::new(InferenceService::with_config(
            "prop.serving",
            hosts,
            Arc::clone(&clock),
            7,
            config,
            null_sink(),
        ));
        let endpoint = ReqRepServer::new("prop.serving");
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(Barrier::new(n_clients));
        let clients: Vec<_> = (0..n_clients)
            .map(|c| {
                let client = endpoint.client(Link::instant(Arc::clone(&clock)));
                let start = Arc::clone(&start);
                let pool = Arc::clone(service.pool());
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x5E21 ^ ((case * n_clients + c) as u64));
                    let mut answered: Vec<String> = Vec::new();
                    start.wait();
                    while answered.len() < REQUESTS {
                        let sent =
                            Arc::new(InferenceRequest::new("p", 1).from_client(format!("c{c}")));
                        let reply = client
                            .request_timeout(
                                inference_request_message("prop.serving", Arc::clone(&sent)),
                                Duration::from_secs(30),
                            )
                            .unwrap();
                        assert_eq!(reply.kind, KIND_INFER_REPLY);
                        assert_eq!(
                            reply.header(HDR_REQUEST_ID),
                            Some(sent.request_id.as_str()),
                            "client {c}: the reply to this very request"
                        );
                        let batch: usize = reply.header(HDR_BATCH_SIZE).unwrap().parse().unwrap();
                        assert!(
                            (1..=max_batch).contains(&batch),
                            "case {case}: a batch of {batch} against a cap of {max_batch}"
                        );
                        answered.push(sent.request_id.clone());
                        // A request waits only for room in the batch: whatever queues at
                        // a replica with room is begun by whoever holds it before it
                        // parks. A dispatcher queues a moment before it takes or
                        // notifies the replica, so a request may be seen there — never
                        // for long.
                        let deadline = std::time::Instant::now() + Duration::from_secs(10);
                        while pool.queued_below_the_cap() > 0 {
                            assert!(
                                std::time::Instant::now() < deadline,
                                "case {case}: a request stays queued at a replica with room"
                            );
                            std::thread::yield_now();
                        }
                        if rng.gen_bool(0.3) {
                            std::thread::yield_now();
                        }
                    }
                    answered
                })
            })
            .collect();
        let (svc, stop2) = (Arc::clone(&service), Arc::clone(&stop));
        let serving = std::thread::spawn(move || svc.serve(&endpoint, &stop2));

        let mut all: Vec<String> = Vec::new();
        for client in clients {
            all.extend(client.join().unwrap());
        }
        stop.store(true, Ordering::Release);
        let handled = serving.join().unwrap();
        let total = n_clients * REQUESTS;
        assert_eq!(handled, total as u64, "case {case}: messages handled");
        assert_eq!(service.requests_served(), total as u64, "case {case}");
        assert_eq!(service.pool().total_outstanding(), 0, "case {case}");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "case {case}: one answer per request id");
    }
}

/// Carry or queue, decided under the mailbox lock: a sender that has the server's turn
/// carries its request into the pass only if nothing waits in the mailbox — so a turn
/// taken *late*, over a request somebody queued meanwhile, queues behind it.
///
/// First the one interleaving that matters, forced (it needs a second CPU: a sender
/// does not wait for a turn on one): A finds the turn held, runs out of polls and
/// queues, and is stopped just before it tells the server; B waits for the turn, gets
/// it on its fourth poll and finds A's request in the mailbox. B must queue behind A and
/// serve both, A first. Then a seeded storm: clients sending numbered requests at a
/// server that refuses a third of all polls and sometimes a whole wait —
/// every request is admitted once, each client's in the order it sent them, replies
/// pair with requests, and both the carried and the queued way were taken.
#[test]
fn serving_interleavings_a_late_turn_never_carries_past_a_queued_request() {
    use hpcml::comm::link::Link;
    use hpcml::comm::reqrep::{Mailbox, ReqRepClient, ReqRepServer, Responder, Server};
    use hpcml::sim::pool::RunCell;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// Echoes, logs what it admits (the text, and whether it came carried), refuses
    /// polls on request and can hold back a `wake` before it has any effect.
    struct Gate {
        turn: RunCell,
        mailbox: Mailbox,
        /// Polls still to be refused.
        refuse: AtomicUsize,
        polls: AtomicUsize,
        /// While set, `wake` spins before it does anything.
        hold_wakes: AtomicBool,
        /// While set, polls start refusals of their own (see `storm`).
        storming: AtomicBool,
        admitted: Mutex<Vec<(String, bool)>>,
    }

    impl Gate {
        /// In the storm, every third poll or so that finds the turn free has the next
        /// one refused, and one in a hundred starts a refusal longer than a sender's
        /// whole wait.
        fn storm(&self, poll: usize) {
            if self.refuse.load(Ordering::Acquire) > 0 {
                return;
            }
            let draw = (poll as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            if draw.is_multiple_of(100) {
                self.refuse.store(3_000, Ordering::Release);
            } else if draw.is_multiple_of(3) {
                self.refuse.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    impl Server for Gate {
        fn try_take_turn(&self) -> bool {
            let poll = self.polls.fetch_add(1, Ordering::AcqRel);
            if self.storming.load(Ordering::Acquire) {
                self.storm(poll);
            }
            let refused = self
                .refuse
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                .is_ok();
            !refused && self.turn.try_hold()
        }

        fn serve_turn(&self, mut carried: Option<(Message, Responder)>) {
            self.turn.advance_until_parked(|| {
                let brought = carried.take().map(|request| (request, true));
                let queued = std::iter::from_fn(|| self.mailbox.try_recv());
                let admitted = brought.into_iter().chain(queued.map(|r| (r, false)));
                for ((msg, responder), carried) in admitted {
                    let text = msg.text().expect("text").to_string();
                    self.admitted.lock().unwrap().push((text.clone(), carried));
                    let _ = responder.reply(Message::new(msg.topic, "echo").with_text(&text));
                }
            });
        }

        fn wake(&self) {
            while self.hold_wakes.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            if self.turn.hold_or_notify() {
                self.serve_turn(None);
            }
        }
    }

    let clock = ClockSpec::scaled(1000.0).build();
    let endpoint = ReqRepServer::new("prop.gate");
    let gate = Arc::new(Gate {
        turn: RunCell::parked(),
        mailbox: endpoint.mailbox(),
        refuse: AtomicUsize::new(0),
        polls: AtomicUsize::new(0),
        hold_wakes: AtomicBool::new(false),
        storming: AtomicBool::new(false),
        admitted: Mutex::new(Vec::new()),
    });
    endpoint.attach(Arc::clone(&gate) as Arc<dyn Server>);
    let connect = || endpoint.client(Link::instant(Arc::clone(&clock)));
    let ask = |client: &ReqRepClient, text: &str| {
        let reply = client
            .request_timeout(
                Message::new("prop.gate", "req").with_text(text),
                Duration::from_secs(30),
            )
            .unwrap();
        assert_eq!(reply.text(), Some(text), "the reply to this very request");
    };

    // The forced interleaving.
    if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
        gate.refuse.store(usize::MAX, Ordering::Release);
        gate.hold_wakes.store(true, Ordering::Release);
        std::thread::scope(|scope| {
            let (a, b) = (connect(), connect());
            let first = scope.spawn(move || ask(&a, "A"));
            // A has run out of polls and queued; its `wake` is held back.
            while endpoint.queue_len() == 0 {
                std::thread::yield_now();
            }
            // The holder lets go three polls into B's wait: B has the turn, late.
            gate.refuse.store(3, Ordering::Release);
            let late = scope.spawn(move || {
                ask(&b, "B");
                std::thread::current().id()
            });
            let late = late.join().unwrap();
            // B's one pass served both, in arrival order, neither of them carried: A's
            // request waited, so B's had to wait behind it.
            assert_eq!(
                *gate.admitted.lock().unwrap(),
                [("A".to_string(), false), ("B".to_string(), false)],
                "a request carried past a queued one"
            );
            assert_eq!(endpoint.queue_len(), 0);
            gate.hold_wakes.store(false, Ordering::Release);
            first.join().unwrap();
            assert_ne!(late, std::thread::current().id());
        });
        // With nothing waiting and the turn free, the next request is carried.
        ask(&connect(), "C");
        assert_eq!(gate.admitted.lock().unwrap()[2], ("C".to_string(), true));
        gate.admitted.lock().unwrap().clear();
    }

    // The storm.
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 300;
    gate.storming.store(true, Ordering::Release);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = connect();
                scope.spawn(move || {
                    for i in 0..REQUESTS {
                        ask(&client, &format!("{c}:{i}"));
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
    });
    let admitted = gate.admitted.lock().unwrap();
    assert_eq!(admitted.len(), CLIENTS * REQUESTS, "every request once");
    for c in 0..CLIENTS {
        let prefix = format!("{c}:");
        let order: Vec<usize> = admitted
            .iter()
            .filter_map(|(text, _)| text.strip_prefix(&prefix))
            .map(|seq| seq.parse().unwrap())
            .collect();
        assert_eq!(
            order,
            (0..REQUESTS).collect::<Vec<_>>(),
            "client {c}: admitted in the order it sent"
        );
    }
    let carried = admitted.iter().filter(|(_, carried)| *carried).count();
    assert!(
        carried > 0 && carried < admitted.len(),
        "{carried} of {} carried: the storm should take both ways",
        admitted.len()
    );
}

// ---------------------------------------------------------------- polled placement

/// The waker of the polled-placement properties. It does what the scheduler allows
/// a waker to do — enqueue the waiter's id — and nothing else.
struct ReadyQueue {
    ids: std::sync::Mutex<std::collections::VecDeque<usize>>,
    pushed: std::sync::Condvar,
}

impl ReadyQueue {
    fn new() -> std::sync::Arc<Self> {
        std::sync::Arc::new(ReadyQueue {
            ids: std::sync::Mutex::new(std::collections::VecDeque::new()),
            pushed: std::sync::Condvar::new(),
        })
    }

    fn push(&self, id: usize) {
        self.ids.lock().unwrap().push_back(id);
        self.pushed.notify_one();
    }

    fn pop(&self) -> Option<usize> {
        self.ids.lock().unwrap().pop_front()
    }

    /// Pop, waiting up to `patience` for an id to arrive.
    fn pop_wait(&self, patience: std::time::Duration) -> Option<usize> {
        let mut ids = self.ids.lock().unwrap();
        if ids.is_empty() {
            ids = self.pushed.wait_timeout(ids, patience).unwrap().0;
        }
        ids.pop_front()
    }

    fn waker(self: &std::sync::Arc<Self>, id: usize) -> std::task::Waker {
        struct Enqueue(usize, std::sync::Arc<ReadyQueue>);
        impl std::task::Wake for Enqueue {
            fn wake(self: std::sync::Arc<Self>) {
                self.1.push(self.0);
            }
        }
        std::task::Waker::from(std::sync::Arc::new(Enqueue(
            id,
            std::sync::Arc::clone(self),
        )))
    }
}

/// Blocking and polled waits are one wait loop: the same seeded request stream —
/// singles and two-node gangs of distinct sizes, one of the early arrivals giving up
/// its place again (a timed-out thread, a cancelled `Placement`), one arriving as a
/// front-of-queue requeue, a service arriving mid-stream — places in the same order
/// with the same `PlacementStats::overtakes` whether every request is a thread
/// blocked in `block_on` or a `Placement` polled when its waker fires, at the
/// default window.
///
/// The order is made deterministic without serialising the threads: all capacity is
/// held by the driver, and each step frees exactly as many cores as the *smallest*
/// request in the serve window needs (on two nodes for a gang), so that one request
/// — and no other — fits. A model of the queues predicts the target, the order and
/// every overtake count; both ways of waiting must match it.
#[test]
fn polled_and_blocking_waits_place_in_the_same_order_with_the_same_overtakes() {
    use hpcml::platform::batch::Allocation;
    use hpcml::platform::Slot;
    use hpcml::runtime::scheduler::{
        Placement, PlacementPoll, Priority, Scheduler, DEFAULT_WINDOW,
    };
    use hpcml::runtime::RuntimeError;
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    const NODES: usize = 4;
    const LOOKAHEAD: usize = DEFAULT_WINDOW;
    const TIMEOUT: Duration = Duration::from_secs(60);

    #[derive(Clone, Copy, Debug)]
    struct Request {
        req: ResourceRequest,
        priority: Priority,
        /// Re-enters at the front of its class (a node-failure requeue).
        requeue: bool,
    }
    #[derive(Clone, Copy, Debug)]
    enum Action {
        Arrive(usize),
        Serve,
    }
    /// One case: requests `0..early` arrive before any capacity event, of which
    /// `abandoned` leaves again at once; the rest arrive interleaved with capacity
    /// events.
    struct Stream {
        requests: Vec<Request>,
        early: usize,
        abandoned: usize,
        actions: Vec<Action>,
    }

    fn stream(rng: &mut StdRng) -> Stream {
        let n = rng.gen_range(8usize..13);
        let mut sizes: Vec<u32> = (1..=14).collect();
        for i in 0..n {
            let j = rng.gen_range(i..sizes.len());
            sizes.swap(i, j);
        }
        let early = rng.gen_range(3usize..6);
        let service = rng.gen_range(early + 1..n - 1);
        let requeue = loop {
            let i = rng.gen_range(early..n);
            if i != service {
                break i;
            }
        };
        let mut gangs = 0;
        let requests: Vec<Request> = (0..n)
            .map(|i| {
                let gang = i != service && gangs < 3 && rng.gen_bool(0.3);
                gangs += usize::from(gang);
                Request {
                    req: ResourceRequest {
                        cores: sizes[i],
                        gpus: 0,
                        mem_gib: 0.0,
                        nodes: if gang { 2 } else { 1 },
                        packing: None,
                    },
                    priority: if i == service {
                        Priority::Service
                    } else {
                        Priority::Task
                    },
                    requeue: i == requeue,
                }
            })
            .collect();
        let mut actions = Vec::new();
        let (mut next, mut parked) = (early, early - 1);
        while next < n || parked > 0 {
            if next < n && (parked == 0 || rng.gen_bool(0.5)) {
                actions.push(Action::Arrive(next));
                next += 1;
                parked += 1;
            } else {
                actions.push(Action::Serve);
                parked -= 1;
            }
        }
        Stream {
            requests,
            early,
            abandoned: rng.gen_range(0usize..early),
            actions,
        }
    }

    /// The queues as the scheduler should see them, and what it should do.
    #[derive(Default)]
    struct Model {
        services: VecDeque<usize>,
        tasks: VecDeque<usize>,
        overtakes: Vec<u32>,
    }

    impl Model {
        fn arrive(&mut self, id: usize, r: &Request) {
            match r.priority {
                Priority::Service => self.services.push_back(id),
                Priority::Task if r.requeue => self.tasks.push_front(id),
                Priority::Task => self.tasks.push_back(id),
            }
        }

        fn parked(&self) -> usize {
            self.services.len() + self.tasks.len()
        }

        /// The request the next capacity event is cut for: the smallest in the
        /// serve window of the serving class. It leaves the queue; everyone parked
        /// ahead of it is overtaken once.
        fn serve(&mut self, requests: &[Request]) -> (usize, u32) {
            let queue = if self.services.is_empty() {
                &mut self.tasks
            } else {
                &mut self.services
            };
            let pos = (0..queue.len().min(LOOKAHEAD))
                .min_by_key(|&p| requests[queue[p]].req.cores)
                .expect("serve is only scheduled with someone parked");
            for &ahead in queue.iter().take(pos) {
                self.overtakes[ahead] += 1;
            }
            let id = queue.remove(pos).expect("in range");
            (id, self.overtakes[id])
        }
    }

    /// The allocation with every core held by the driver as a one-core slot.
    struct Held(Vec<Vec<Slot>>);

    impl Held {
        fn all(alloc: &Allocation) -> Held {
            let mut by_node = vec![Vec::new(); NODES];
            let one = ResourceRequest::cores(1).unwrap();
            while let Ok(slot) = alloc.allocate_slot(&one) {
                by_node[slot.node_index()].push(slot);
            }
            Held(by_node)
        }

        /// Free exactly what `req` needs: `cores` on as many distinct nodes as it
        /// spans, taken where the driver holds most.
        fn free_for(&mut self, alloc: &Allocation, req: &ResourceRequest) {
            let mut nodes: Vec<usize> = (0..NODES).collect();
            nodes.sort_by_key(|&n| std::cmp::Reverse(self.0[n].len()));
            for &n in &nodes[..req.nodes] {
                for _ in 0..req.cores {
                    let slot = self.0[n].pop().expect("the driver holds enough");
                    alloc.release_slot(&slot).unwrap();
                }
            }
        }
    }

    type Log = Vec<(usize, u32)>;

    /// One way of waiting for placements.
    trait Waiting {
        /// Request `id` enters. Returns once it holds its place: `parked` requests are
        /// queued.
        fn enter(&mut self, id: usize, r: Request, parked: usize);
        /// Request `r` enters behind `parked` queued requests, holds a place and gives
        /// it up without placing.
        fn abandon(&mut self, r: Request, parked: usize);
        /// Capacity was freed and announced. Returns once `placed` requests have
        /// placed in total.
        fn settle(&mut self, placed: usize);
        /// The placement log `(request, overtakes)` and the slots handed out.
        fn finish(self: Box<Self>) -> (Log, Vec<Slot>);
    }

    /// Every request is a thread blocked in `block_on`.
    struct Blocking {
        scheduler: Arc<Scheduler>,
        log: Arc<Mutex<Log>>,
        threads: Vec<std::thread::JoinHandle<Slot>>,
    }

    impl Blocking {
        fn wait_for(&self, what: &str, done: impl Fn(&Self) -> bool) {
            let deadline = Instant::now() + Duration::from_secs(20);
            while !done(self) {
                assert!(Instant::now() < deadline, "blocking waiters stuck: {what}");
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    impl Waiting for Blocking {
        fn enter(&mut self, id: usize, r: Request, parked: usize) {
            let (scheduler, log) = (Arc::clone(&self.scheduler), Arc::clone(&self.log));
            self.threads.push(std::thread::spawn(move || {
                let placement = if r.requeue {
                    Placement::requeued(&r.req, r.priority)
                } else {
                    Placement::new(&r.req, r.priority)
                };
                let placed = scheduler.block_on(placement, Some(TIMEOUT));
                let (slot, stats) = placed.expect("request places");
                log.lock().unwrap().push((id, stats.overtakes));
                slot
            }));
            self.wait_for("arrival parks", |w| {
                w.scheduler.waiting_tasks() + w.scheduler.waiting_services() == parked
            });
        }

        /// A blocked thread gives up by timing out: nothing is free, so its final
        /// attempt fails too.
        fn abandon(&mut self, r: Request, parked: usize) {
            let timed_out = self
                .scheduler
                .allocate(&r.req, r.priority, Duration::from_millis(20));
            assert!(matches!(timed_out, Err(RuntimeError::WaitTimeout { .. })));
            assert_eq!(
                self.scheduler.waiting_tasks() + self.scheduler.waiting_services(),
                parked
            );
        }

        fn settle(&mut self, placed: usize) {
            self.wait_for("served request places", |w| {
                w.log.lock().unwrap().len() == placed
            });
        }

        fn finish(self: Box<Self>) -> (Log, Vec<Slot>) {
            let slots = self
                .threads
                .into_iter()
                .map(|t| t.join().unwrap())
                .collect();
            let log = self.log.lock().unwrap().clone();
            (log, slots)
        }
    }

    /// Every request is a `Placement`, polled once on arrival and then whenever its
    /// waker has enqueued it — by one thread, in wake order.
    struct Polled {
        scheduler: Arc<Scheduler>,
        ready: Arc<ReadyQueue>,
        placements: Vec<Option<Placement>>,
        log: Log,
        slots: Vec<Slot>,
    }

    impl Polled {
        fn poll(&mut self, id: usize) {
            let Some(placement) = self.placements[id].as_mut() else {
                return; // woken once more after it had placed
            };
            match self.scheduler.poll_placed(placement, &self.ready.waker(id)) {
                PlacementPoll::Pending => {}
                PlacementPoll::Ready(result) => {
                    let (slot, stats) = result.expect("request places");
                    self.placements[id] = None;
                    self.log.push((id, stats.overtakes));
                    self.slots.push(slot);
                }
            }
        }
    }

    impl Waiting for Polled {
        fn enter(&mut self, id: usize, r: Request, parked: usize) {
            self.placements[id] = Some(if r.requeue {
                Placement::requeued(&r.req, r.priority)
            } else {
                Placement::new(&r.req, r.priority)
            });
            self.poll(id);
            assert_eq!(
                self.scheduler.waiting_tasks() + self.scheduler.waiting_services(),
                parked,
                "a polled arrival parks within its first poll"
            );
        }

        fn abandon(&mut self, r: Request, parked: usize) {
            let mut placement = Placement::new(&r.req, r.priority);
            let poll = self
                .scheduler
                .poll_placed(&mut placement, std::task::Waker::noop());
            assert!(matches!(poll, PlacementPoll::Pending));
            let waiting = |s: &Scheduler| s.waiting_tasks() + s.waiting_services();
            assert_eq!(waiting(&self.scheduler), parked + 1);
            self.scheduler.cancel_placement(placement);
            assert_eq!(waiting(&self.scheduler), parked);
        }

        fn settle(&mut self, placed: usize) {
            while let Some(id) = self.ready.pop() {
                self.poll(id);
            }
            assert_eq!(self.log.len(), placed, "a wake-up was lost: {:?}", self.log);
        }

        fn finish(self: Box<Self>) -> (Log, Vec<Slot>) {
            (self.log, self.slots)
        }
    }

    /// Drive `s` through one way of waiting and check it against the model.
    fn run(s: &Stream, waiting: impl FnOnce(Arc<Scheduler>) -> Box<dyn Waiting>) -> Log {
        let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(NODES)).unwrap();
        // A stream of at most 12 requests never spends the default overtake budget.
        let scheduler = Arc::new(Scheduler::new(Arc::clone(&alloc)));
        let mut held = Held::all(&alloc);
        let mut waiting = waiting(Arc::clone(&scheduler));
        let mut model = Model {
            overtakes: vec![0; s.requests.len()],
            ..Model::default()
        };

        // The early arrivals park before any capacity event; one of them leaves again.
        for id in 0..s.early {
            if id == s.abandoned {
                waiting.abandon(s.requests[id], model.parked());
            } else {
                model.arrive(id, &s.requests[id]);
                waiting.enter(id, s.requests[id], model.parked());
            }
        }

        let mut expected = Log::new();
        for action in &s.actions {
            match *action {
                Action::Arrive(id) => {
                    model.arrive(id, &s.requests[id]);
                    waiting.enter(id, s.requests[id], model.parked());
                }
                Action::Serve => {
                    let served = model.serve(&s.requests);
                    expected.push(served);
                    held.free_for(&alloc, &s.requests[served.0].req);
                    scheduler.notify_capacity();
                    waiting.settle(expected.len());
                }
            }
        }

        let (log, slots) = waiting.finish();
        for slot in &slots {
            scheduler.release(slot).unwrap();
        }
        for slot in held.0.iter().flatten() {
            alloc.release_slot(slot).unwrap();
        }
        assert_eq!(scheduler.waiting_tasks() + scheduler.waiting_services(), 0);
        assert!(alloc.is_idle(), "teardown");
        assert_eq!(log, expected, "placement order and overtakes vs the model");
        log
    }

    let mut overtaken = 0;
    for case in 0..16u64 {
        let seed = 0x9011ED ^ case.wrapping_mul(0x9E37_79B9);
        let s = stream(&mut StdRng::seed_from_u64(seed));
        let blocking = run(&s, |scheduler| {
            Box::new(Blocking {
                scheduler,
                log: Arc::new(Mutex::new(Vec::new())),
                threads: Vec::new(),
            })
        });
        let polled = run(&s, |scheduler| {
            Box::new(Polled {
                scheduler,
                ready: ReadyQueue::new(),
                placements: s.requests.iter().map(|_| None).collect(),
                log: Vec::new(),
                slots: Vec::new(),
            })
        });
        assert_eq!(blocking, polled, "case {case} (seed {seed:#x})");
        assert!(
            blocking.len() == s.requests.len() - 1,
            "case {case}: every request but the abandoned one placed"
        );
        overtaken += blocking.iter().map(|(_, n)| n).sum::<u32>();
    }
    assert!(overtaken > 0, "the streams must exercise overtaking");
}

/// Polled waiters under concurrent release, `fail_node`, `expand` and
/// `notify_capacity`: no unit is ever double-booked, and no
/// wake-up is lost — every request places although the `notify_capacity` actor stops
/// early, so the tail is served by release-driven wake-ups alone.
///
/// The placements are advanced the way the executor advances them, minus its
/// bookkeeping: a waker enqueues the waiter's id, and whoever pops an id polls that
/// placement under its own lock — so a wake-up that lands during a poll leads to
/// another poll. A request evicted by the node failure re-enters as a requeue.
#[test]
fn polled_waiters_never_double_book_or_lose_a_wakeup() {
    use hpcml::platform::Slot;
    use hpcml::runtime::scheduler::{Placement, PlacementPoll, Priority, Scheduler};
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    const NODES: usize = 6;
    const REQUESTS: usize = 60;
    const POLLERS: usize = 3;

    /// Cores in use, `(node, core)`, and which slot holds which. `fail_node` runs
    /// under this lock and writes its victims off with it, so a re-claim of the freed
    /// cores never meets a stale entry; a victim evicted between its claim and its
    /// registration is remembered and skipped when its poller arrives.
    #[derive(Default)]
    struct Occupancy {
        live: HashSet<(usize, u32)>,
        by_slot: HashMap<u64, Vec<(usize, u32)>>,
        evicted_unregistered: HashSet<u64>,
    }

    impl Occupancy {
        fn register(&mut self, slot: &Slot, case: u64) {
            if self.evicted_unregistered.remove(&slot.id) {
                return;
            }
            let units: Vec<(usize, u32)> = slot
                .members
                .iter()
                .flat_map(|m| m.core_ids.iter().map(move |&c| (m.node_index, c)))
                .collect();
            for &unit in &units {
                assert!(
                    self.live.insert(unit),
                    "case {case}: {unit:?} double-booked"
                );
            }
            self.by_slot.insert(slot.id, units);
        }

        /// Forget `slot_id`'s cores; false if the slot was never registered.
        fn write_off(&mut self, slot_id: u64) -> bool {
            let Some(units) = self.by_slot.remove(&slot_id) else {
                return false;
            };
            for unit in units {
                assert!(self.live.remove(&unit), "released core was not tracked");
            }
            true
        }
    }

    for case in 0..8u64 {
        let seed = 0x901D ^ case.wrapping_mul(0x9E37_79B9);
        let finished = Arc::new(AtomicBool::new(false));
        {
            let finished = Arc::clone(&finished);
            std::thread::spawn(move || {
                for _ in 0..1200 {
                    if finished.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                eprintln!("polled waiters property: case {case} exceeded 120 s — lost wakeup?");
                std::process::abort();
            });
        }

        let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(NODES)).unwrap();
        let spec = alloc.node_spec();
        let scheduler = Arc::new(Scheduler::new(Arc::clone(&alloc)));
        let occupancy = Arc::new(Mutex::new(Occupancy::default()));
        let ready = ReadyQueue::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let requests: Vec<(ResourceRequest, Priority)> = (0..REQUESTS)
            .map(|_| {
                let gang = rng.gen_bool(0.25);
                (
                    ResourceRequest {
                        cores: rng.gen_range(spec.cores / 4..spec.cores + 1),
                        gpus: 0,
                        mem_gib: 0.0,
                        nodes: if gang { 2 } else { 1 },
                        packing: None,
                    },
                    if rng.gen_bool(0.15) {
                        Priority::Service
                    } else {
                        Priority::Task
                    },
                )
            })
            .collect();
        let placements: Arc<Vec<Mutex<Option<Placement>>>> = Arc::new(
            requests
                .iter()
                .map(|(req, priority)| Mutex::new(Some(Placement::new(req, *priority))))
                .collect(),
        );
        let placed = Arc::new(AtomicUsize::new(0));
        let held: Arc<Mutex<Vec<(usize, Slot)>>> = Arc::new(Mutex::new(Vec::new()));

        let pollers: Vec<_> = (0..POLLERS)
            .map(|_| {
                let (scheduler, ready, placements, placed, held, occupancy) = (
                    Arc::clone(&scheduler),
                    Arc::clone(&ready),
                    Arc::clone(&placements),
                    Arc::clone(&placed),
                    Arc::clone(&held),
                    Arc::clone(&occupancy),
                );
                std::thread::spawn(move || {
                    while placed.load(Ordering::Acquire) < REQUESTS {
                        let Some(id) = ready.pop_wait(Duration::from_millis(20)) else {
                            continue;
                        };
                        let mut placement = placements[id].lock().unwrap();
                        let Some(pending) = placement.as_mut() else {
                            continue;
                        };
                        match scheduler.poll_placed(pending, &ready.waker(id)) {
                            PlacementPoll::Pending => {}
                            PlacementPoll::Ready(result) => {
                                let (slot, _) = result.unwrap_or_else(|e| {
                                    panic!("case {case}: request {id} did not place: {e}")
                                });
                                *placement = None;
                                occupancy.lock().unwrap().register(&slot, case);
                                held.lock().unwrap().push((id, slot));
                            }
                        }
                    }
                })
            })
            .collect();

        // The releaser hands slots back through the scheduler; an evicted one
        // sends its request around again as a front-of-queue requeue.
        let releaser = {
            let (scheduler, ready, placements, placed, held, occupancy, requests) = (
                Arc::clone(&scheduler),
                Arc::clone(&ready),
                Arc::clone(&placements),
                Arc::clone(&placed),
                Arc::clone(&held),
                Arc::clone(&occupancy),
                requests.clone(),
            );
            std::thread::spawn(move || {
                while placed.load(Ordering::Acquire) < REQUESTS {
                    let Some((id, slot)) = held.lock().unwrap().pop() else {
                        std::thread::yield_now();
                        continue;
                    };
                    occupancy.lock().unwrap().write_off(slot.id);
                    match scheduler.release(&slot) {
                        Ok(()) => {
                            placed.fetch_add(1, Ordering::AcqRel);
                        }
                        Err(hpcml::runtime::RuntimeError::Resource(ResourceError::NodeFailed(
                            _,
                        ))) => {
                            let (req, priority) = requests[id];
                            *placements[id].lock().unwrap() =
                                Some(Placement::requeued(&req, priority));
                            ready.push(id);
                        }
                        Err(e) => panic!("case {case}: release failed: {e}"),
                    }
                }
            })
        };

        // Out-of-band capacity announcements, for a while only.
        let notifier = {
            let scheduler = Arc::clone(&scheduler);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    scheduler.notify_capacity();
                    std::thread::yield_now();
                }
            })
        };

        // Everyone gets the first poll a submitter owes them.
        for id in 0..REQUESTS {
            ready.push(id);
        }
        // One node dies under the churn and a fresh one is attached.
        let doomed = rng.gen_range(0usize..NODES);
        while placed.load(Ordering::Acquire) < REQUESTS / 3 {
            std::thread::yield_now();
        }
        {
            let mut o = occupancy.lock().unwrap();
            for victim in alloc.fail_node(doomed).expect("fail_node") {
                if !o.write_off(victim) {
                    o.evicted_unregistered.insert(victim);
                }
            }
        }
        alloc.expand(1).expect("expand");
        scheduler.notify_capacity();

        for t in pollers {
            t.join().unwrap();
        }
        releaser.join().unwrap();
        notifier.join().unwrap();
        finished.store(true, Ordering::Release);

        assert_eq!(scheduler.waiting_tasks() + scheduler.waiting_services(), 0);
        assert_eq!(scheduler.outstanding_slots(), 0);
        assert!(occupancy.lock().unwrap().live.is_empty());
        assert_eq!(alloc.reserved_nodes(), 0, "no drain leaked");
        assert_eq!(alloc.free_cores(), NODES as u32 * spec.cores);
    }
}

/// A polled placement needs no deadline of its own: a polled gang opens its backfill
/// drain when a later arrival passes it and places through it when a release
/// completes it, each step announced by its waker alone. Only a blocked caller has a
/// timeout: a waiter outside the serve window makes its explicit final attempt when
/// that has passed.
#[test]
fn polled_deadlines_open_drains_and_time_out_with_a_final_attempt() {
    use hpcml::runtime::scheduler::{
        Placement, PlacementPoll, Priority, Scheduler, DEFAULT_WINDOW,
    };
    use hpcml::runtime::RuntimeError;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let ready = ReadyQueue::new();

    // --- A polled gang drains once passed, woken by its waker alone. ---
    {
        let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(3)).unwrap();
        let scheduler = Scheduler::new(Arc::clone(&alloc)).with_max_overtakes(Some(0));
        let whole = ResourceRequest::cores(alloc.node_spec().cores).unwrap();
        // Two nodes busy, one idle: the two-node gang cannot place.
        let busy: Vec<_> = (0..2)
            .map(|_| {
                scheduler
                    .allocate(&whole, Priority::Task, Duration::from_secs(1))
                    .unwrap()
            })
            .collect();
        let mut gang = Placement::new(&whole.with_nodes(2), Priority::Task);
        let first = scheduler.poll_placed(&mut gang, &ready.waker(0));
        assert!(matches!(first, PlacementPoll::Pending), "{first:?}");
        assert!(alloc.drain_status().is_none());
        // A one-core arrival passes the gang, which spends its budget and drains; the
        // core it took keeps the idle node from covering a member share until it is
        // back.
        let narrow = scheduler
            .allocate(
                &ResourceRequest::cores(1).unwrap(),
                Priority::Task,
                Duration::from_secs(1),
            )
            .expect("a narrow arrival passes the gang");
        assert!(
            alloc.drain_status().is_some(),
            "the gang opened a reservation"
        );
        scheduler.release(&narrow).unwrap();
        let drain = alloc.drain_status().expect("the reservation is open");
        assert_eq!(
            drain.pinned_idle + drain.pinned_partial,
            1,
            "the idle node is pinned"
        );
        assert_eq!(ready.pop(), Some(0), "the release woke the gang");
        let second = scheduler.poll_placed(&mut gang, &ready.waker(0));
        assert!(matches!(second, PlacementPoll::Pending), "{second:?}");
        // A release completes the reservation and wakes the gang.
        scheduler.release(&busy[0]).unwrap();
        assert_eq!(ready.pop(), Some(0));
        match scheduler.poll_placed(&mut gang, &ready.waker(0)) {
            PlacementPoll::Ready(Ok((slot, stats))) => {
                assert_eq!(slot.num_nodes(), 2);
                assert!(stats.drain_secs.is_some(), "placed through the drain");
                scheduler.release(&slot).unwrap();
            }
            other => panic!("gang should place through its reservation: {other:?}"),
        }
        scheduler.release(&busy[1]).unwrap();
        assert!(alloc.is_idle());
    }

    // --- A blocked waiter times out, final attempt included. ---
    {
        let batch = BatchSystem::new(PlatformId::Local.spec(), ClockSpec::Manual.build(), 1);
        let alloc = batch.submit(AllocationRequest::nodes(1)).unwrap(); // 2 GPUs
        let scheduler = Arc::new(Scheduler::new(Arc::clone(&alloc)));
        let gpus = |n| ResourceRequest::gpus(n).unwrap();
        let hold = scheduler
            .allocate(&gpus(1), Priority::Task, Duration::from_secs(1))
            .unwrap();
        let parked = |n: usize| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while scheduler.waiting_tasks() < n {
                assert!(Instant::now() < deadline, "{n} waiters never parked");
                std::thread::yield_now();
            }
        };
        // A window's worth of heads need both GPUs and never fit; the free GPU is out
        // of reach of the waiter behind them (outside the window) — except by its
        // final attempt.
        let heads: Vec<_> = (0..DEFAULT_WINDOW)
            .map(|i| {
                let scheduler = Arc::clone(&scheduler);
                let head = std::thread::spawn(move || {
                    scheduler.allocate(&gpus(2), Priority::Task, Duration::from_millis(400))
                });
                parked(i + 1);
                head
            })
            .collect();
        let arrived = Instant::now();
        match scheduler.allocate(&gpus(1), Priority::Task, Duration::from_millis(50)) {
            Ok(slot) => {
                assert_eq!(slot.num_gpus(), 1);
                assert!(
                    arrived.elapsed() >= Duration::from_millis(50),
                    "at its deadline"
                );
                scheduler.release(&slot).unwrap();
            }
            other => panic!("the final attempt should take the free GPU: {other:?}"),
        }
        // Nothing is left for the heads: their final attempts fail and they time out.
        for (i, head) in heads.into_iter().enumerate() {
            match head.join().unwrap() {
                Err(RuntimeError::WaitTimeout { .. }) => {}
                other => panic!("head {i} should time out: {other:?}"),
            }
        }
        assert_eq!(
            scheduler.waiting_tasks(),
            0,
            "a timed-out waiter leaves the queue"
        );
        scheduler.release(&hold).unwrap();
    }
}

/// The serve window is in order: parked waiters are placed by one walk, in arrival
/// order, so the default window relaxes FIFO only where a later arrival fits and an
/// earlier one does not.
///
/// Scenario A (racing): every request of a seeded mix — quarter- and half-node tasks,
/// whole-node two-node gangs, quarter-node services — parks while the driver holds
/// all capacity. The driver then drips its quarters back while two pollers poll
/// whoever is woken and hand every placed slot straight back, so releases, backfill
/// passes and drains race. Slot ids are handed out under the queue lock, so they are
/// the scheduler's own order of placement. Replaying it: (a) equal requests of a
/// class place in arrival order; (c) no task places while a service is parked; every
/// request's `PlacementStats::overtakes` is exactly the number of later arrivals of
/// its class placed before it — passed while it did not fit, never a lost race; (d) a
/// gang passed at the head with its budget already spent was draining by then — it
/// places through a reservation (scenario B pins the moment: it opens at
/// `max_overtakes` + 1 ≤ `max_overtakes` + window).
///
/// Scenario B (stepped): a blocked gang at the head, quarter-node tasks behind it, one
/// quarter freed per step through `Scheduler::release`. (b) Polling whoever that
/// release woke — the head, whose pass walks the window — and whoever that woke
/// places exactly the next quarter-node task: backfill needs no second capacity
/// event. (The release itself places nobody; see `Scheduler::serve` for what that
/// would cost.) The gang ends with one overtake per task and has drained iff that
/// spent its budget.
#[test]
fn in_order_window_places_in_arrival_order_and_ages_gangs_into_drains() {
    use hpcml::platform::Slot;
    use hpcml::runtime::scheduler::{
        Placement, PlacementPoll, PlacementStats, Priority, Scheduler,
    };
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    const NODES: usize = 4;
    const POLLERS: usize = 2;
    const MAX_OVERTAKES: u32 = 3;
    const TIMEOUT: Duration = Duration::from_secs(60);

    let core_req = |cores: u32, nodes: usize| ResourceRequest {
        cores,
        gpus: 0,
        mem_gib: 0.0,
        nodes,
        packing: None,
    };

    // What scenario A exercised over all cases: (passes, passes of a spent head gang).
    let mut exercised = (0u32, 0u32);
    for case in 0..8u64 {
        let seed = 0x1D0E ^ case.wrapping_mul(0x9E37_79B9);
        let done = Arc::new(AtomicBool::new(false));
        {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for _ in 0..1200 {
                    if done.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                eprintln!("in-order window property: case {case} exceeded 120 s — lost wakeup?");
                std::process::abort();
            });
        }
        let setup = || {
            let batch = BatchSystem::new(PlatformId::Delta.spec(), ClockSpec::Manual.build(), 1);
            let alloc = batch.submit(AllocationRequest::nodes(NODES)).unwrap();
            let scheduler = Arc::new(
                Scheduler::new(Arc::clone(&alloc)).with_max_overtakes(Some(MAX_OVERTAKES)),
            );
            (batch, alloc, scheduler)
        };

        // ---- Scenario A: racing pollers, replayed in slot-id order. ----
        {
            let (_batch, alloc, scheduler) = setup();
            let node = alloc.node_spec().cores;
            let quarter = core_req(node / 4, 1);
            let mut held: Vec<Slot> = (0..NODES * 4)
                .map(|_| alloc.allocate_slot(&quarter).unwrap())
                .collect();

            let mut rng = StdRng::seed_from_u64(seed);
            let requests: Vec<(ResourceRequest, Priority)> = (0..rng.gen_range(32usize..48))
                .map(|_| match rng.gen_range(0u32..20) {
                    0..=1 => (quarter, Priority::Service),
                    2..=4 => (core_req(node, 2), Priority::Task),
                    5..=7 => (core_req(node / 2, 1), Priority::Task),
                    _ => (quarter, Priority::Task),
                })
                .collect();
            let n = requests.len();
            let ready = ReadyQueue::new();
            let waker = |id: usize| ready.waker(id);
            // One thread parks everyone: arrival order is index order.
            let placements: Arc<Vec<Mutex<Option<Placement>>>> = Arc::new(
                requests
                    .iter()
                    .enumerate()
                    .map(|(id, (req, priority))| {
                        let mut placement = Placement::new(req, *priority);
                        let poll = scheduler.poll_placed(&mut placement, &waker(id));
                        assert!(matches!(poll, PlacementPoll::Pending), "case {case}");
                        Mutex::new(Some(placement))
                    })
                    .collect(),
            );

            // Per request, once placed: its slot id and how it got there.
            let stats = Arc::new(Mutex::new(vec![None::<(u64, PlacementStats)>; n]));
            let placed = Arc::new(AtomicUsize::new(0));
            let pollers: Vec<_> = (0..POLLERS)
                .map(|_| {
                    let (scheduler, ready, placements, stats, placed) = (
                        Arc::clone(&scheduler),
                        Arc::clone(&ready),
                        Arc::clone(&placements),
                        Arc::clone(&stats),
                        Arc::clone(&placed),
                    );
                    let wakers: Vec<_> = (0..n).map(&waker).collect();
                    std::thread::spawn(move || {
                        while placed.load(Ordering::Acquire) < n {
                            let Some(id) = ready.pop_wait(Duration::from_millis(20)) else {
                                continue;
                            };
                            let mut placement = placements[id].lock().unwrap();
                            let Some(pending) = placement.as_mut() else {
                                continue;
                            };
                            match scheduler.poll_placed(pending, &wakers[id]) {
                                PlacementPoll::Pending => {}
                                PlacementPoll::Ready(result) => {
                                    let (slot, s) = result.expect("no waiter may be lost");
                                    *placement = None;
                                    stats.lock().unwrap()[id] = Some((slot.id, s));
                                    scheduler.release(&slot).unwrap();
                                    placed.fetch_add(1, Ordering::AcqRel);
                                }
                            }
                        }
                    })
                })
                .collect();
            while !held.is_empty() {
                let slot = held.swap_remove(rng.gen_range(0usize..held.len()));
                alloc.release_slot(&slot).unwrap();
                scheduler.notify_capacity();
                std::thread::yield_now();
            }
            for t in pollers {
                t.join().unwrap();
            }
            assert_eq!(scheduler.waiting_services() + scheduler.waiting_tasks(), 0);
            assert_eq!(scheduler.outstanding_slots(), 0, "case {case}");
            assert!(
                alloc.drain_status().is_none(),
                "case {case}: no drain leaked"
            );
            assert!(alloc.is_idle(), "case {case}: scenario A teardown");

            // Replay the placements in the order the scheduler made them.
            let stats: Vec<(u64, PlacementStats)> = stats
                .lock()
                .unwrap()
                .iter()
                .map(|placed| placed.expect("everyone placed"))
                .collect();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&id| stats[id].0);
            let mut parked: Vec<usize> = (0..n).collect(); // arrival order
            let mut passed = vec![0u32; n];
            for &id in &order {
                let (req, priority) = requests[id];
                assert!(
                    priority == Priority::Service
                        || parked.iter().all(|&p| requests[p].1 == Priority::Task),
                    "case {case}: task {id} placed while a service was parked"
                );
                let ahead: Vec<usize> = parked
                    .iter()
                    .copied()
                    .take_while(|&p| p != id)
                    .filter(|&p| requests[p].1 == priority)
                    .collect();
                assert!(
                    ahead.iter().all(|&p| requests[p].0 != req),
                    "case {case}: {id} placed before an equal earlier arrival of {ahead:?}"
                );
                if let Some(&head) = ahead.first() {
                    if requests[head].0.nodes > 1 && passed[head] > MAX_OVERTAKES {
                        exercised.1 += 1;
                        assert!(
                            stats[head].1.drain_secs.is_some(),
                            "case {case}: {id} passed head gang {head}, budget spent, no drain"
                        );
                    }
                }
                for &p in &ahead {
                    passed[p] += 1;
                }
                exercised.0 += ahead.len() as u32;
                parked.retain(|&p| p != id);
                assert_eq!(
                    stats[id].1.overtakes, passed[id],
                    "case {case}: overtakes of {id} vs later arrivals placed before it"
                );
            }
        }

        // ---- Scenario B: one release, one backfilled task, no second event. ----
        {
            let (_batch, alloc, scheduler) = setup();
            let node = alloc.node_spec().cores;
            let quarter = core_req(node / 4, 1);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB);
            let mut held: Vec<Slot> = (0..NODES * 4)
                .map(|_| {
                    scheduler
                        .allocate(&quarter, Priority::Task, TIMEOUT)
                        .unwrap()
                })
                .collect();
            let narrow = rng.gen_range(2usize..7);
            let ready = ReadyQueue::new();
            // Request 0 is the gang, 1..=narrow the quarter-node tasks behind it.
            let mut placements: Vec<Option<Placement>> = (0..=narrow)
                .map(|id| {
                    let req = if id == 0 { core_req(node, 2) } else { quarter };
                    let mut placement = Placement::new(&req, Priority::Task);
                    let poll = scheduler.poll_placed(&mut placement, &ready.waker(id));
                    assert!(matches!(poll, PlacementPoll::Pending), "case {case}");
                    Some(placement)
                })
                .collect();
            let mut slots: Vec<Option<(Slot, PlacementStats)>> =
                (0..=narrow).map(|_| None).collect();
            let settle =
                |placements: &mut Vec<Option<Placement>>,
                 slots: &mut Vec<Option<(Slot, PlacementStats)>>| {
                    while let Some(id) = ready.pop() {
                        let Some(pending) = placements[id].as_mut() else {
                            continue;
                        };
                        if let PlacementPoll::Ready(result) =
                            scheduler.poll_placed(pending, &ready.waker(id))
                        {
                            placements[id] = None;
                            slots[id] = Some(result.expect("places"));
                        }
                    }
                };
            for step in 1..=narrow {
                // The freed quarter is refilled at once, so no node ever idles and
                // the gang stays blocked.
                let freed = held.swap_remove(rng.gen_range(0usize..held.len()));
                scheduler.release(&freed).unwrap();
                settle(&mut placements, &mut slots);
                assert!(
                    (1..=narrow).all(|id| slots[id].is_some() == (id <= step)),
                    "case {case} step {step}: that release places exactly task {step}"
                );
                assert!(slots[0].is_none(), "case {case}: the gang is still blocked");
                assert_eq!(scheduler.waiting_tasks(), 1 + narrow - step, "case {case}");
                assert_eq!(
                    alloc.drain_status().is_some(),
                    step as u32 > MAX_OVERTAKES,
                    "case {case} step {step}: the reservation opens with the budget spent"
                );
            }
            for slot in held
                .iter()
                .chain(slots[1..].iter().flatten().map(|(s, _)| s))
            {
                scheduler.release(slot).unwrap();
            }
            settle(&mut placements, &mut slots);
            let (gang, stats) = slots[0].take().expect("the gang places once nodes idle");
            assert_eq!(stats.overtakes, narrow as u32, "case {case}");
            assert_eq!(
                stats.drain_secs.is_some(),
                narrow as u32 > MAX_OVERTAKES,
                "case {case}: placed through its reservation iff it had opened one"
            );
            scheduler.release(&gang).unwrap();
            assert_eq!(scheduler.outstanding_slots(), 0, "case {case}");
            assert!(alloc.is_idle(), "case {case}: scenario B teardown");
        }
        done.store(true, Ordering::Release);
    }
    assert!(
        exercised.0 > 0 && exercised.1 > 0,
        "the mixes must exercise backfill and drains: {exercised:?}"
    );
}
