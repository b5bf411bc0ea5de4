//! Resource model: nodes, cores, GPUs, memory, and placement slots.
//!
//! A [`NodeSpec`] describes the shape of a compute node; [`NodeState`] tracks which of
//! its cores/GPUs/memory are in use; a [`Slot`] is a concrete reservation of resources
//! handed to a task or a service instance for its lifetime. Single-node slots hold one
//! [`SlotMember`]; multi-node MPI gangs hold one member per node, claimed and released
//! as a unit. The pilot's scheduler allocates slots from its
//! [`crate::batch::Allocation`] and releases them when the task or service completes.
//!
//! Occupancy is tracked as `u128` bitmask words (bit set = unit free) with cached
//! free-unit counters, so capacity queries are O(1) and index picking is a
//! trailing-zeros scan over at most `ceil(cores/128)` words — placement cost does not
//! grow with node size the way the former `Vec<bool>` scan did.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Bits per occupancy word.
const WORD_BITS: u32 = 128;

/// Errors raised by resource accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceError {
    /// The request can never be satisfied by this node shape.
    NeverSatisfiable {
        /// Explanation of the mismatch.
        reason: String,
    },
    /// The request exceeds what is currently free (but could be satisfied later).
    InsufficientResources,
    /// A slot was released that does not belong to this node or was already released.
    UnknownSlot(u64),
    /// The request pins no cores and no GPUs (zero-unit requests would reserve memory
    /// or a slot id without occupying any indexed unit, corrupting headroom-class
    /// accounting — most visibly the idle bucket the gang allocator claims from).
    EmptyRequest,
    /// A backfill drain was requested while another reservation is still active. The
    /// allocation supports at most one draining gang at a time (only the head of a
    /// scheduler class can drain, see `crate::batch::Allocation::begin_drain`).
    DrainActive,
    /// A drain operation referenced a reservation that does not exist any more —
    /// either never begun, already cancelled, or already consumed by its placement.
    UnknownDrain(u64),
    /// The slot's node was failed out from under it (`crate::batch::Allocation::
    /// fail_node`): its resources were already reclaimed when the node was evicted,
    /// so the caller must treat the slot as released — distinct from
    /// [`ResourceError::UnknownSlot`], which signals a caller bug (double release,
    /// foreign slot). The payload is the failed node's allocation-global index.
    NodeFailed(usize),
    /// An operation referenced a node index the allocation does not have.
    UnknownNode(usize),
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::NeverSatisfiable { reason } => {
                write!(f, "request can never be satisfied: {reason}")
            }
            ResourceError::InsufficientResources => write!(f, "insufficient free resources"),
            ResourceError::UnknownSlot(id) => write!(f, "unknown or already released slot {id}"),
            ResourceError::EmptyRequest => {
                write!(f, "request must pin at least one core or GPU")
            }
            ResourceError::DrainActive => {
                write!(f, "another backfill reservation is already draining")
            }
            ResourceError::UnknownDrain(id) => {
                write!(f, "unknown or already completed drain reservation {id}")
            }
            ResourceError::NodeFailed(node) => {
                write!(
                    f,
                    "node {node} has failed; the slot's resources were reclaimed on eviction"
                )
            }
            ResourceError::UnknownNode(node) => {
                write!(f, "unknown node index {node}")
            }
        }
    }
}

impl std::error::Error for ResourceError {}

/// How a multi-node gang's members may be packed onto nodes.
///
/// The policy travels with the request ([`ResourceRequest::packing`], `None` =
/// inherit the scheduler's session-level default, which itself defaults to
/// [`GangPacking::Partial`]) and governs both direct gang placement and what a
/// backfill drain is allowed to pin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum GangPacking {
    /// Members land only on fully idle nodes (the pre-partial behaviour): strongest
    /// isolation, but ranks-per-node shares below a whole node waste the remainder,
    /// and sub-node churn that never idles a node can delay a draining gang
    /// indefinitely.
    Whole,
    /// Members best-fit onto any node whose free headroom covers one member share,
    /// co-locating with existing slots. Drains may pin partially free nodes the same
    /// way, which bounds gang waits even under sub-node churn.
    #[default]
    Partial,
}

/// Shape of a compute node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// CPU cores per node.
    pub cores: u32,
    /// GPUs (or GPU dies) per node.
    pub gpus: u32,
    /// Main memory per node, in GiB.
    pub mem_gib: f64,
    /// GPU memory per GPU, in GiB.
    pub gpu_mem_gib: f64,
}

impl NodeSpec {
    /// Create a node shape.
    pub fn new(cores: u32, gpus: u32, mem_gib: f64, gpu_mem_gib: f64) -> Self {
        NodeSpec {
            cores,
            gpus,
            mem_gib,
            gpu_mem_gib,
        }
    }
}

/// Resources requested for one task or service instance.
///
/// `cores`, `gpus` and `mem_gib` are **per member node** (ranks-per-node semantics).
/// Single-node entities leave `nodes` at 1; a multi-node MPI task sets `nodes > 1` and
/// is placed as a *gang*: that many distinct nodes are claimed atomically, each
/// reserving the per-node shares, and released as a unit. Under
/// [`GangPacking::Partial`] (the default) members best-fit onto partially free nodes;
/// [`GangPacking::Whole`] restricts members to fully idle nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceRequest {
    /// CPU cores per member node.
    pub cores: u32,
    /// GPUs per member node.
    pub gpus: u32,
    /// Main memory per member node in GiB (0.0 = don't care).
    pub mem_gib: f64,
    /// Number of whole nodes spanned (1 = single-node; >1 = MPI gang placed on that
    /// many *distinct* nodes, each hosting one member share).
    pub nodes: usize,
    /// Gang packing policy: `None` inherits the scheduler's default (itself
    /// [`GangPacking::Partial`] unless configured otherwise); `Some` pins the policy
    /// for this request. Ignored for single-node requests.
    pub packing: Option<GangPacking>,
}

impl ResourceRequest {
    /// A request for `cores` cores and no GPU on a single node.
    ///
    /// Zero-unit requests are rejected at construction: a request pinning no core and
    /// no GPU would pass occupancy checks without occupying any indexed unit, leaving
    /// its node misclassified in the capacity index (it stays in the idle bucket while
    /// a live slot points at it).
    pub fn cores(cores: u32) -> Result<Self, ResourceError> {
        if cores == 0 {
            return Err(ResourceError::EmptyRequest);
        }
        Ok(ResourceRequest {
            cores,
            gpus: 0,
            mem_gib: 0.0,
            nodes: 1,
            packing: None,
        })
    }

    /// A request for `gpus` GPUs and one core per GPU on a single node.
    ///
    /// `gpus == 0` is a constructor-level error rather than a silent 1-core/0-GPU
    /// request, so a miscomputed GPU count can never reach the capacity index.
    pub fn gpus(gpus: u32) -> Result<Self, ResourceError> {
        if gpus == 0 {
            return Err(ResourceError::EmptyRequest);
        }
        Ok(ResourceRequest {
            cores: gpus,
            gpus,
            mem_gib: 0.0,
            nodes: 1,
            packing: None,
        })
    }

    /// Add a memory requirement (per member node).
    pub fn with_mem_gib(mut self, mem: f64) -> Self {
        self.mem_gib = mem;
        self
    }

    /// Span `nodes` whole nodes as an MPI gang (cores/GPUs/memory apply per node).
    /// Clamped to at least 1.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes.max(1);
        self
    }

    /// Pin the gang packing policy for this request (overrides the scheduler's
    /// session-level default).
    pub fn with_packing(mut self, packing: GangPacking) -> Self {
        self.packing = Some(packing);
        self
    }

    /// A copy of this request with an unset packing policy resolved to `default`
    /// (an explicit `Some` policy on the request always wins).
    pub fn or_packing(mut self, default: GangPacking) -> Self {
        self.packing.get_or_insert(default);
        self
    }

    /// True when this request is a multi-node gang.
    pub fn is_gang(&self) -> bool {
        self.nodes > 1
    }

    /// True if the request pins no core and no GPU — the same condition
    /// [`ResourceRequest::validate`] rejects as [`ResourceError::EmptyRequest`]
    /// (memory alone does not make a request non-empty: un-pinned memory is exactly
    /// what the zero-unit guard exists to keep out of the index).
    pub fn is_empty(&self) -> bool {
        self.cores == 0 && self.gpus == 0
    }

    /// Check the structural invariants enforced by the constructors, for requests
    /// built as struct literals: at least one core or GPU per member node, and a
    /// non-zero node span.
    pub fn validate(&self) -> Result<(), ResourceError> {
        if self.cores == 0 && self.gpus == 0 {
            return Err(ResourceError::EmptyRequest);
        }
        if self.nodes == 0 {
            return Err(ResourceError::EmptyRequest);
        }
        Ok(())
    }
}

impl Default for ResourceRequest {
    fn default() -> Self {
        ResourceRequest {
            cores: 1,
            gpus: 0,
            mem_gib: 0.0,
            nodes: 1,
            packing: None,
        }
    }
}

/// One node's share of a (possibly multi-node) slot: the concrete core/GPU indices and
/// memory reserved on that node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotMember {
    /// Index of the node within the allocation.
    pub node_index: usize,
    /// Node hostname (synthetic, e.g. `frontier-0042`). Interned: cloning a slot or
    /// creating one from a node shares the allocation's name storage instead of
    /// heap-allocating per placement.
    pub node_name: Arc<str>,
    /// Core indices reserved on the node.
    pub core_ids: Vec<u32>,
    /// GPU indices reserved on the node.
    pub gpu_ids: Vec<u32>,
    /// Memory reserved on the node, GiB.
    pub mem_gib: f64,
    /// True when the node already hosted other live slots at claim time — a
    /// partial-packing co-location rather than a whole-idle-node claim. Telemetry
    /// only; release does not depend on it.
    pub co_resident: bool,
}

/// A concrete reservation of resources: one [`SlotMember`] per spanned node.
///
/// Single-node placements have exactly one member; multi-node MPI gangs hold one per
/// member node (ordered by node index — the MPI rank order), all claimed atomically and
/// released as a unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Slot {
    /// Unique slot identifier (within its allocation).
    pub id: u64,
    /// Per-node memberships; never empty, ordered by node index.
    pub members: Vec<SlotMember>,
}

impl Slot {
    /// Build a single-node slot.
    pub fn single(id: u64, member: SlotMember) -> Self {
        Slot {
            id,
            members: vec![member],
        }
    }

    /// The lead member (rank 0's node for gangs; the only member otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty. The allocator never produces such a slot and
    /// [`crate::batch::Allocation::release_slot`] rejects one, but a hand-built or
    /// deserialized `Slot` with no members violates the type's invariant.
    pub fn lead(&self) -> &SlotMember {
        &self.members[0]
    }

    /// Allocation-relative index of the lead node.
    pub fn node_index(&self) -> usize {
        self.lead().node_index
    }

    /// Hostname of the lead node.
    pub fn node_name(&self) -> &Arc<str> {
        &self.lead().node_name
    }

    /// Number of nodes spanned by the slot.
    pub fn num_nodes(&self) -> usize {
        self.members.len()
    }

    /// True when the slot spans more than one node.
    pub fn is_gang(&self) -> bool {
        self.members.len() > 1
    }

    /// Total number of cores across all member nodes.
    pub fn num_cores(&self) -> usize {
        self.members.iter().map(|m| m.core_ids.len()).sum()
    }

    /// Total number of GPUs across all member nodes.
    pub fn num_gpus(&self) -> usize {
        self.members.iter().map(|m| m.gpu_ids.len()).sum()
    }

    /// Allocation-relative indices of all member nodes, in rank order.
    pub fn node_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().map(|m| m.node_index)
    }

    /// Number of member nodes that were *not* fully idle when claimed — members a
    /// partial-packing placement co-located beside existing slots (0 for whole-node
    /// gangs and single-node slots on idle nodes).
    pub fn partial_nodes(&self) -> usize {
        self.members.iter().filter(|m| m.co_resident).count()
    }
}

/// A bitmask over `n` resource units; bit set = unit free.
fn full_mask(n: u32) -> Vec<u128> {
    let words = n.div_ceil(WORD_BITS) as usize;
    let mut mask = vec![!0u128; words];
    let rem = n % WORD_BITS;
    if rem != 0 {
        if let Some(last) = mask.last_mut() {
            *last = (!0u128) >> (WORD_BITS - rem);
        }
    }
    mask
}

/// Clear `count` set bits (lowest-index first) and append their indices to `out`.
/// The caller guarantees at least `count` bits are set.
fn take_units(mask: &mut [u128], count: u32, out: &mut Vec<u32>) {
    let mut need = count;
    for (w, word) in mask.iter_mut().enumerate() {
        while need > 0 && *word != 0 {
            let bit = word.trailing_zeros();
            *word &= *word - 1; // clear lowest set bit
            out.push(w as u32 * WORD_BITS + bit);
            need -= 1;
        }
        if need == 0 {
            break;
        }
    }
    debug_assert_eq!(
        need, 0,
        "take_units called with fewer free bits than requested"
    );
}

/// Set the bit for unit `id` if it is within bounds and currently clear.
/// Returns `true` when the bit was actually set (so double releases do not
/// inflate the cached free counters).
fn return_unit(mask: &mut [u128], total: u32, id: u32) -> bool {
    if id >= total {
        return false;
    }
    let word = (id / WORD_BITS) as usize;
    let bit = 1u128 << (id % WORD_BITS);
    if mask[word] & bit != 0 {
        return false;
    }
    mask[word] |= bit;
    true
}

/// Health of a node within an allocation.
///
/// `Healthy` nodes participate in placement. `Draining` nodes are pinned by a
/// backfill reservation (removed from the capacity index, waiting for a gang).
/// `Failed` nodes were lost at runtime ([`crate::batch::Allocation::fail_node`]):
/// their slots were evicted and they never re-enter any index. `Retired` nodes
/// were removed by an explicit shrink ([`crate::batch::Allocation::shrink`]);
/// like `Failed` it is terminal, but it is an orderly exit, not a fault.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeHealth {
    /// In service and placeable.
    #[default]
    Healthy,
    /// Pinned by a draining backfill reservation; not placeable until released.
    Draining,
    /// Lost at runtime; terminal. Never re-enters a capacity index.
    Failed,
    /// Removed by an orderly shrink; terminal.
    Retired,
}

/// Mutable occupancy state of one node.
#[derive(Debug, Clone)]
pub struct NodeState {
    /// Node shape.
    pub spec: NodeSpec,
    /// Node hostname (interned; slot creation clones the `Arc`, not the string).
    pub name: Arc<str>,
    core_mask: Vec<u128>,
    gpu_mask: Vec<u128>,
    free_cores: u32,
    free_gpus: u32,
    mem_free_gib: f64,
    health: NodeHealth,
}

impl NodeState {
    /// Create a fully free node.
    pub fn new(name: impl Into<Arc<str>>, spec: NodeSpec) -> Self {
        NodeState {
            spec,
            name: name.into(),
            core_mask: full_mask(spec.cores),
            gpu_mask: full_mask(spec.gpus),
            free_cores: spec.cores,
            free_gpus: spec.gpus,
            mem_free_gib: spec.mem_gib,
            health: NodeHealth::Healthy,
        }
    }

    /// Current health state.
    pub fn health(&self) -> NodeHealth {
        self.health
    }

    /// Set the health state. Transitions are validated by the allocation (the
    /// single writer), not here: `Failed` and `Retired` are terminal by
    /// convention of the callers in `crate::batch`.
    pub fn set_health(&mut self, health: NodeHealth) {
        self.health = health;
    }

    /// Number of currently free cores (O(1): cached counter).
    pub fn free_cores(&self) -> u32 {
        self.free_cores
    }

    /// Number of currently free GPUs (O(1): cached counter).
    pub fn free_gpus(&self) -> u32 {
        self.free_gpus
    }

    /// Currently free memory, GiB.
    pub fn free_mem_gib(&self) -> f64 {
        self.mem_free_gib
    }

    /// True if the node has no reservations at all (O(1)).
    pub fn is_idle(&self) -> bool {
        self.free_cores == self.spec.cores
            && self.free_gpus == self.spec.gpus
            && (self.mem_free_gib - self.spec.mem_gib).abs() < 1e-9
    }

    /// Whether one member node's share of `req` could ever fit this node shape
    /// (ignoring current occupancy; the `nodes` span is the allocation's concern).
    pub fn can_ever_fit(&self, req: &ResourceRequest) -> bool {
        req.cores <= self.spec.cores
            && req.gpus <= self.spec.gpus
            && req.mem_gib <= self.spec.mem_gib
    }

    /// Whether one member node's share of `req` fits the node right now (O(1)).
    pub fn can_fit_now(&self, req: &ResourceRequest) -> bool {
        req.cores <= self.free_cores
            && req.gpus <= self.free_gpus
            && req.mem_gib <= self.mem_free_gib + 1e-9
    }

    /// Try to reserve one member node's share of `req` on this node, returning the
    /// concrete core/GPU indices.
    pub fn try_reserve(
        &mut self,
        req: &ResourceRequest,
    ) -> Result<(Vec<u32>, Vec<u32>, f64), ResourceError> {
        if !self.can_ever_fit(req) {
            return Err(ResourceError::NeverSatisfiable {
                reason: format!(
                    "request ({} cores, {} gpus, {:.1} GiB) exceeds node shape ({} cores, {} gpus, {:.1} GiB)",
                    req.cores, req.gpus, req.mem_gib, self.spec.cores, self.spec.gpus, self.spec.mem_gib
                ),
            });
        }
        if !self.can_fit_now(req) {
            return Err(ResourceError::InsufficientResources);
        }
        let mut cores = Vec::with_capacity(req.cores as usize);
        take_units(&mut self.core_mask, req.cores, &mut cores);
        self.free_cores -= req.cores;
        let mut gpus = Vec::with_capacity(req.gpus as usize);
        take_units(&mut self.gpu_mask, req.gpus, &mut gpus);
        self.free_gpus -= req.gpus;
        self.mem_free_gib -= req.mem_gib;
        Ok((cores, gpus, req.mem_gib))
    }

    /// Release previously reserved resources. Out-of-range or already-free indices are
    /// ignored, so double releases never inflate the free counters.
    pub fn release(&mut self, core_ids: &[u32], gpu_ids: &[u32], mem_gib: f64) {
        for &c in core_ids {
            if return_unit(&mut self.core_mask, self.spec.cores, c) {
                self.free_cores += 1;
            }
        }
        for &g in gpu_ids {
            if return_unit(&mut self.gpu_mask, self.spec.gpus, g) {
                self.free_gpus += 1;
            }
        }
        self.mem_free_gib = (self.mem_free_gib + mem_gib).min(self.spec.mem_gib);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> NodeState {
        NodeState::new("test-0000", NodeSpec::new(8, 4, 256.0, 40.0))
    }

    #[test]
    fn fresh_node_is_idle() {
        let n = node();
        assert!(n.is_idle());
        assert_eq!(n.free_cores(), 8);
        assert_eq!(n.free_gpus(), 4);
        assert_eq!(n.free_mem_gib(), 256.0);
    }

    #[test]
    fn reserve_and_release_roundtrip() {
        let mut n = node();
        let req = ResourceRequest {
            cores: 2,
            gpus: 1,
            mem_gib: 64.0,
            nodes: 1,
            packing: None,
        };
        let (cores, gpus, mem) = n.try_reserve(&req).unwrap();
        assert_eq!(cores.len(), 2);
        assert_eq!(gpus.len(), 1);
        assert_eq!(mem, 64.0);
        assert_eq!(n.free_cores(), 6);
        assert_eq!(n.free_gpus(), 3);
        assert!(!n.is_idle());
        n.release(&cores, &gpus, mem);
        assert!(n.is_idle());
    }

    #[test]
    fn reserve_distinct_indices() {
        let mut n = node();
        let r1 = n.try_reserve(&ResourceRequest::gpus(2).unwrap()).unwrap();
        let r2 = n.try_reserve(&ResourceRequest::gpus(2).unwrap()).unwrap();
        let mut all: Vec<u32> = r1.1.iter().chain(r2.1.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4, "GPU indices must not be double-booked");
    }

    #[test]
    fn oversized_request_is_never_satisfiable() {
        let mut n = node();
        let err = n
            .try_reserve(&ResourceRequest {
                cores: 9,
                gpus: 0,
                mem_gib: 0.0,
                nodes: 1,
                packing: None,
            })
            .unwrap_err();
        assert!(matches!(err, ResourceError::NeverSatisfiable { .. }));
        let err = n
            .try_reserve(&ResourceRequest {
                cores: 1,
                gpus: 5,
                mem_gib: 0.0,
                nodes: 1,
                packing: None,
            })
            .unwrap_err();
        assert!(matches!(err, ResourceError::NeverSatisfiable { .. }));
    }

    #[test]
    fn exhausted_node_reports_insufficient() {
        let mut n = node();
        let _ = n.try_reserve(&ResourceRequest::gpus(4).unwrap()).unwrap();
        let err = n
            .try_reserve(&ResourceRequest::gpus(1).unwrap())
            .unwrap_err();
        assert_eq!(err, ResourceError::InsufficientResources);
    }

    #[test]
    fn release_is_idempotent_and_clamped() {
        let mut n = node();
        let req = ResourceRequest {
            cores: 1,
            gpus: 0,
            mem_gib: 10.0,
            nodes: 1,
            packing: None,
        };
        let (c, g, m) = n.try_reserve(&req).unwrap();
        n.release(&c, &g, m);
        n.release(&c, &g, m); // double release must not overflow capacity
        assert_eq!(n.free_cores(), 8);
        assert!(n.free_mem_gib() <= 256.0 + 1e-9);
    }

    #[test]
    fn release_ignores_out_of_range_indices() {
        let mut n = node();
        n.release(&[999], &[999], 0.0);
        assert_eq!(n.free_cores(), 8);
        assert_eq!(n.free_gpus(), 4);
        assert!(n.is_idle());
    }

    #[test]
    fn resource_request_constructors() {
        let r = ResourceRequest::cores(4).unwrap();
        assert_eq!(r.cores, 4);
        assert_eq!(r.gpus, 0);
        assert_eq!(r.nodes, 1);
        let g = ResourceRequest::gpus(2).unwrap().with_mem_gib(32.0);
        assert_eq!(g.gpus, 2);
        assert_eq!(g.cores, 2);
        assert_eq!(g.mem_gib, 32.0);
        assert!(!g.is_empty());
        assert!(!g.is_gang());
        assert!(ResourceRequest {
            cores: 0,
            gpus: 0,
            mem_gib: 0.0,
            nodes: 1,
            packing: None,
        }
        .is_empty());
        assert_eq!(
            ResourceRequest::default(),
            ResourceRequest::cores(1).unwrap()
        );
    }

    #[test]
    fn zero_unit_constructors_are_rejected() {
        assert_eq!(
            ResourceRequest::gpus(0).unwrap_err(),
            ResourceError::EmptyRequest
        );
        assert_eq!(
            ResourceRequest::cores(0).unwrap_err(),
            ResourceError::EmptyRequest
        );
        // Struct literals bypass the constructors; validate() catches them.
        let literal = ResourceRequest {
            cores: 0,
            gpus: 0,
            mem_gib: 8.0,
            nodes: 1,
            packing: None,
        };
        assert_eq!(literal.validate().unwrap_err(), ResourceError::EmptyRequest);
        assert!(
            literal.is_empty(),
            "is_empty must agree with the EmptyRequest invariant for mem-only requests"
        );
        let zero_span = ResourceRequest {
            cores: 1,
            gpus: 0,
            mem_gib: 0.0,
            nodes: 0,
            packing: None,
        };
        assert_eq!(
            zero_span.validate().unwrap_err(),
            ResourceError::EmptyRequest
        );
        assert!(ResourceRequest::default().validate().is_ok());
    }

    #[test]
    fn gang_request_builder() {
        let r = ResourceRequest::cores(32).unwrap().with_nodes(4);
        assert_eq!(r.nodes, 4);
        assert!(r.is_gang());
        assert!(r.validate().is_ok());
        // Clamped to at least one node.
        assert_eq!(ResourceRequest::cores(1).unwrap().with_nodes(0).nodes, 1);
    }

    #[test]
    fn packing_resolution_prefers_the_explicit_request_policy() {
        let inherit = ResourceRequest::cores(4).unwrap().with_nodes(2);
        assert_eq!(inherit.packing, None);
        // Unset packing resolves to the supplied default…
        assert_eq!(
            inherit.or_packing(GangPacking::Whole).packing,
            Some(GangPacking::Whole)
        );
        // …while an explicit request-level policy always wins.
        let pinned = inherit.with_packing(GangPacking::Partial);
        assert_eq!(
            pinned.or_packing(GangPacking::Whole).packing,
            Some(GangPacking::Partial)
        );
        assert_eq!(GangPacking::default(), GangPacking::Partial);
    }

    #[test]
    fn slot_accessors() {
        let s = Slot::single(
            3,
            SlotMember {
                node_index: 0,
                node_name: "n0".into(),
                core_ids: vec![0, 1],
                gpu_ids: vec![2],
                mem_gib: 8.0,
                co_resident: false,
            },
        );
        assert_eq!(s.num_cores(), 2);
        assert_eq!(s.num_gpus(), 1);
        assert_eq!(s.num_nodes(), 1);
        assert_eq!(s.node_index(), 0);
        assert_eq!(&**s.node_name(), "n0");
        assert!(!s.is_gang());
    }

    #[test]
    fn gang_slot_aggregates_members() {
        let member = |i: usize| SlotMember {
            node_index: i,
            node_name: format!("n{i}").into(),
            core_ids: vec![0, 1, 2],
            gpu_ids: vec![0],
            mem_gib: 4.0,
            co_resident: i == 5,
        };
        let s = Slot {
            id: 7,
            members: vec![member(2), member(5), member(9)],
        };
        assert!(s.is_gang());
        assert_eq!(s.num_nodes(), 3);
        assert_eq!(s.num_cores(), 9);
        assert_eq!(s.num_gpus(), 3);
        assert_eq!(s.node_index(), 2, "lead node is the first member");
        assert_eq!(s.node_indices().collect::<Vec<_>>(), vec![2, 5, 9]);
        assert_eq!(s.partial_nodes(), 1, "co-resident members are counted");
    }

    #[test]
    fn wide_node_spans_multiple_mask_words() {
        // 192 cores = one full u128 word plus a 64-bit tail.
        let spec = NodeSpec::new(192, 0, 1024.0, 0.0);
        let mut n = NodeState::new("wide-0000", spec);
        assert_eq!(n.free_cores(), 192);
        let (cores, _, _) = n
            .try_reserve(&ResourceRequest::cores(130).unwrap())
            .unwrap();
        assert_eq!(cores.len(), 130);
        assert_eq!(n.free_cores(), 62);
        // Indices must be distinct and include both words.
        let mut sorted = cores.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 130);
        assert!(sorted.iter().any(|&c| c >= 128), "second word must be used");
        n.release(&cores, &[], 0.0);
        assert!(n.is_idle());
    }

    #[test]
    fn freed_low_indices_are_reused_first() {
        let mut n = node();
        let (first, _, _) = n.try_reserve(&ResourceRequest::cores(2).unwrap()).unwrap();
        let (_second, _, _) = n.try_reserve(&ResourceRequest::cores(2).unwrap()).unwrap();
        n.release(&first, &[], 0.0);
        let (third, _, _) = n.try_reserve(&ResourceRequest::cores(2).unwrap()).unwrap();
        assert_eq!(
            third, first,
            "trailing-zeros picking reuses the lowest free indices"
        );
    }

    #[test]
    fn error_display() {
        let e = ResourceError::UnknownSlot(9);
        assert!(e.to_string().contains('9'));
        assert!(ResourceError::InsufficientResources
            .to_string()
            .contains("insufficient"));
        assert!(ResourceError::EmptyRequest
            .to_string()
            .contains("at least one"));
        assert!(ResourceError::NodeFailed(3).to_string().contains("node 3"));
        assert!(ResourceError::UnknownNode(7)
            .to_string()
            .contains("unknown node"));
    }

    #[test]
    fn node_health_defaults_and_transitions() {
        let mut n = node();
        assert_eq!(n.health(), NodeHealth::Healthy);
        n.set_health(NodeHealth::Draining);
        assert_eq!(n.health(), NodeHealth::Draining);
        n.set_health(NodeHealth::Failed);
        assert_eq!(n.health(), NodeHealth::Failed);
        // Health is orthogonal to occupancy: a failed node still reports its
        // (reclaimed) free counters.
        assert!(n.is_idle());
    }
}
