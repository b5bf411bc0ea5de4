//! Batch system and allocations: how a pilot acquires and carves up resources.
//!
//! A pilot job submits an [`AllocationRequest`] to the platform's [`BatchSystem`]; once
//! granted (after an optional modelled queue wait) it receives an [`Allocation`] — a set
//! of whole nodes it owns for its walltime. The pilot's scheduler then places tasks and
//! services by carving [`Slot`]s out of the allocation and releasing them on completion.
//!
//! This mirrors the pilot abstraction of the paper's runtime: resource acquisition is
//! decoupled from task/service scheduling, which is what lets services and tasks share
//! one allocation with controlled concurrency.
//!
//! ## Placement index
//!
//! `allocate_slot` used to scan every node linearly, which made placement cost grow
//! with allocation size — the dominant agent-scheduler overhead RADICAL-Pilot's
//! characterization work reports at leadership scale. The allocation now keeps a
//! capacity index: nodes are bucketed by (free-GPU, free-core) headroom class, with a
//! per-GPU-level `u128` bitmap of non-empty core classes, plus one *dedicated idle
//! bucket* holding exactly the fully idle nodes (membership proves idleness — no
//! filtering, even for nodes wider than the capped top core class). A placement probes
//! at most `gpus_per_node + 1` bitmap words (trailing-zeros to the smallest sufficient
//! core class, idle bucket last), so finding a fitting node is O(gpu levels) —
//! independent of node count — and `release_slot` updates the index incrementally in
//! O(1). The only path that can degrade to a bucket scan is a memory-constrained
//! request racing nodes whose cores/GPUs are free but whose memory is not (memory is
//! continuous and not bucketed).
//!
//! ## One lock
//!
//! The nodes, the capacity index, the active backfill reservation and the live-slot
//! map sit behind one mutex, so every placement is one best fit over the whole
//! allocation and a release pins the nodes it frees for a draining gang inside its own
//! critical section. The scheduler's queue lock already serialises every placement
//! (its fast path and every parked pass), so two placements never overlap and only a
//! release can meet one. Lock order: **scheduler queue → allocation state →
//! failed-slot map**.
//!
//! ## Gang placement
//!
//! A request with [`ResourceRequest::nodes`] > 1 is a multi-node MPI *gang*: the
//! allocator claims that many distinct nodes atomically under the one state lock,
//! reserving the per-node core/GPU/memory shares on each, and returns a single
//! [`Slot`] whose members list one node per rank group (ordered by node index — the
//! MPI rank order). Under [`GangPacking::Partial`] (the default) members *best-fit
//! across partially free nodes* via the index's k-best `find_fit`: k distinct nodes,
//! each with enough free headroom for one member share, co-locating beside existing
//! slots — O(gang size + GPU levels), independent of the allocation's node count.
//! Whole-node member shares (and every gang under [`GangPacking::Whole`]) take the
//! idle-bucket fast path instead: `req.nodes` nodes straight off the dedicated idle
//! bucket in O(gang size). Either way the claim is all-or-nothing: a mid-claim
//! conflict rolls back every member reserved so far, and releasing the gang returns
//! every member to its headroom class in O(gang size).
//!
//! ## Backfill reservations (drains)
//!
//! A gang that keeps losing the race for capacity can open a *backfill reservation*
//! with [`Allocation::begin_drain`]: nodes able to host one member share are pinned to
//! the drain immediately, and every node that [`Allocation::release_slot`] later makes
//! able is pinned as well, until `req.nodes` have accumulated. What "able" means
//! follows the gang's packing policy — [`GangPacking::Whole`] pins only fully idle
//! nodes, while [`GangPacking::Partial`] pins a node as soon as its free headroom
//! covers one member share, *even while other slots still occupy the rest of it*
//! (the pinned-partial reservation state; this is what closes the sub-node-churn
//! starvation gap, where no node ever goes fully idle). Pinned nodes are removed from
//! the capacity index, so neither single-node placements nor other gangs can see them
//! — residual occupancy on a pinned node can only shrink, so a pinned node never
//! stops covering its share — while every *other* node stays placeable, which is what
//! lets narrow requests keep backfilling around the reservation.
//! [`Allocation::allocate_reserved`] places the gang atomically on the pinned set once
//! it is complete (beside any residual slots, under partial packing), and
//! [`Allocation::cancel_drain`] returns the pinned nodes to their headroom classes
//! (the scheduler cancels on timeout, and when a waiting service must not be blocked
//! by a task-class reservation). At most one drain is active per allocation: only the
//! head of a scheduler class drains. [`Allocation::drain_status`] reports the pinned
//! set split into still-occupied (pinned-partial) and idle (pinned-idle) nodes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use hpcml_sim::clock::SharedClock;
use hpcml_sim::dist::Dist;

use crate::resources::{
    GangPacking, NodeHealth, NodeSpec, NodeState, ResourceError, ResourceRequest, Slot, SlotMember,
};
use crate::spec::PlatformSpec;

/// Errors raised by the batch system.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchError {
    /// The platform does not have enough nodes in total.
    TooLarge {
        /// Nodes requested.
        requested: usize,
        /// Nodes the platform has.
        available: usize,
    },
    /// The platform has enough nodes but they are currently allocated to other jobs.
    Busy,
    /// Zero nodes requested.
    EmptyRequest,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::TooLarge {
                requested,
                available,
            } => {
                write!(
                    f,
                    "requested {requested} nodes but the platform only has {available}"
                )
            }
            BatchError::Busy => write!(f, "platform nodes are currently allocated to other jobs"),
            BatchError::EmptyRequest => {
                write!(f, "allocation request must ask for at least one node")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// A request for a pilot-sized allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocationRequest {
    /// Number of whole nodes.
    pub nodes: usize,
    /// Requested walltime in seconds.
    pub walltime_secs: f64,
    /// Whether to model the batch-queue wait (true for realism, false for experiments
    /// that start measuring once the pilot is active — as the paper does).
    pub model_queue_wait: bool,
}

impl AllocationRequest {
    /// Request `nodes` whole nodes for one hour, without modelling queue wait.
    pub fn nodes(nodes: usize) -> Self {
        AllocationRequest {
            nodes,
            walltime_secs: 3600.0,
            model_queue_wait: false,
        }
    }

    /// Set the walltime.
    pub fn with_walltime_secs(mut self, secs: f64) -> Self {
        self.walltime_secs = secs;
        self
    }

    /// Enable queue-wait modelling.
    pub fn with_queue_wait(mut self, enable: bool) -> Self {
        self.model_queue_wait = enable;
        self
    }
}

/// Highest core headroom class tracked distinctly; nodes with more free cores share the
/// top class (so the per-GPU-level bitmap fits one `u128` word for any node width).
const CORE_CLASS_CAP: u32 = 127;

/// Free-capacity index over an allocation's nodes.
///
/// Non-idle nodes are bucketed by `(free_gpus, min(free_cores, CORE_CLASS_CAP))`
/// headroom class; fully idle nodes live in one *dedicated idle bucket* appended after
/// the class grid, so idle-bucket membership alone proves idleness (no `is_idle`
/// filtering, even for nodes wider than the capped top core class — such nodes sit in
/// the top *class* bucket while partially occupied). For each free-GPU level a `u128`
/// bitmap marks which core classes have non-empty buckets, so a best-fit probe is a
/// shift + trailing_zeros per GPU level, with the idle bucket probed last (idle nodes
/// are the worst fit for a sub-node share). Membership updates are O(1) via a per-node
/// (bucket, position) back-reference and swap-remove.
struct CapacityIndex {
    /// Number of distinct free-GPU levels (`gpus_per_node + 1`).
    gpu_levels: usize,
    /// Number of distinct core classes (`min(cores_per_node, CORE_CLASS_CAP) + 1`).
    core_levels: usize,
    /// `buckets[fg * core_levels + fc]` holds the non-idle node indices in that
    /// class; `buckets[gpu_levels * core_levels]` is the dedicated idle bucket.
    buckets: Vec<Vec<usize>>,
    /// `nonempty[fg]` bit `fc` set ⇔ class bucket `(fg, fc)` is non-empty (the idle
    /// bucket is tracked by its own emptiness, not by a bit).
    nonempty: Vec<u128>,
    /// node index → (bucket id, position within the bucket's vec); `usize::MAX` when
    /// the node is not indexed (pinned by a drain).
    pos: Vec<(usize, usize)>,
    /// Node shape, used to classify fully idle nodes into the idle bucket. Free
    /// cores + GPUs at spec level implies no live slot (every slot pins at least one
    /// unit — the `EmptyRequest` guard), which implies free memory too.
    spec: NodeSpec,
}

impl CapacityIndex {
    fn new(spec: NodeSpec, num_nodes: usize) -> Self {
        let gpu_levels = spec.gpus as usize + 1;
        let core_levels = spec.cores.min(CORE_CLASS_CAP) as usize + 1;
        let mut index = CapacityIndex {
            gpu_levels,
            core_levels,
            buckets: vec![Vec::new(); gpu_levels * core_levels + 1],
            nonempty: vec![0u128; gpu_levels],
            pos: vec![(usize::MAX, usize::MAX); num_nodes],
            spec,
        };
        // All nodes start fully free, straight into the idle bucket.
        for node in 0..num_nodes {
            index.insert(node, spec.gpus, spec.cores);
        }
        index
    }

    fn core_class(&self, free_cores: u32) -> usize {
        (free_cores.min(CORE_CLASS_CAP) as usize).min(self.core_levels - 1)
    }

    /// The dedicated bucket holding exactly the fully idle nodes.
    fn idle_bucket(&self) -> usize {
        self.gpu_levels * self.core_levels
    }

    /// Bucket for a node with the given free capacity: the idle bucket when fully
    /// free, its `(free_gpus, core class)` class bucket otherwise.
    fn bucket_id(&self, free_gpus: u32, free_cores: u32) -> usize {
        if free_gpus == self.spec.gpus && free_cores == self.spec.cores {
            self.idle_bucket()
        } else {
            free_gpus as usize * self.core_levels + self.core_class(free_cores)
        }
    }

    /// True when `node` is currently indexed (not pinned by a drain).
    fn contains(&self, node: usize) -> bool {
        self.pos[node].0 != usize::MAX
    }

    fn insert(&mut self, node: usize, free_gpus: u32, free_cores: u32) {
        let bucket = self.bucket_id(free_gpus, free_cores);
        self.buckets[bucket].push(node);
        self.pos[node] = (bucket, self.buckets[bucket].len() - 1);
        if bucket != self.idle_bucket() {
            self.nonempty[free_gpus as usize] |= 1u128 << self.core_class(free_cores);
        }
    }

    fn remove(&mut self, node: usize) {
        let (bucket, position) = self.pos[node];
        let vec = &mut self.buckets[bucket];
        vec.swap_remove(position);
        if let Some(&moved) = vec.get(position) {
            self.pos[moved] = (bucket, position);
        }
        if vec.is_empty() && bucket != self.idle_bucket() {
            let fg = bucket / self.core_levels;
            let fc = bucket % self.core_levels;
            self.nonempty[fg] &= !(1u128 << fc);
        }
        self.pos[node] = (usize::MAX, usize::MAX);
    }

    /// Append one fresh, fully idle node at the next index (an
    /// [`crate::batch::Allocation::expand`] arrival), returning that index. The
    /// back-reference vector grows by one *before* `insert` writes it.
    fn push_idle(&mut self) -> usize {
        let node = self.pos.len();
        self.pos.push((usize::MAX, usize::MAX));
        self.insert(node, self.spec.gpus, self.spec.cores);
        node
    }

    /// Move `node` to the bucket matching its current free capacity.
    fn update(&mut self, node: usize, free_gpus: u32, free_cores: u32) {
        let target = self.bucket_id(free_gpus, free_cores);
        if self.pos[node].0 == target {
            return;
        }
        self.remove(node);
        self.insert(node, free_gpus, free_cores);
    }

    /// The one fit-probe loop both queries share: visit nodes able to host one
    /// member share of `req` right now, in best-fit order — smallest sufficient
    /// free-GPU level, then smallest sufficient core class (to limit fragmentation),
    /// with the fully idle bucket only as the last resort (worst fit). Class
    /// membership proves the fit, so visited buckets only contribute visited nodes;
    /// memory-constrained (or wider-than-`CORE_CLASS_CAP`) shares degrade to
    /// per-candidate `can_fit_now` scans, since those constraints are not bucketed.
    /// Idle-bucket candidates need no scan: an idle node hosts any share the caller
    /// has shape-checked (`check_satisfiable`). Stops when `visit` returns `true`.
    fn probe_fits(
        &self,
        req: &ResourceRequest,
        nodes: &[NodeState],
        mut visit: impl FnMut(usize) -> bool,
    ) {
        let want_fc = self.core_class(req.cores);
        let needs_scan = req.cores > CORE_CLASS_CAP || req.mem_gib > 0.0;
        for fg in req.gpus as usize..self.gpu_levels {
            let mut mask = self.nonempty[fg] & (!0u128 << want_fc);
            while mask != 0 {
                let fc = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                for &node in &self.buckets[fg * self.core_levels + fc] {
                    if (!needs_scan || nodes[node].can_fit_now(req)) && visit(node) {
                        return;
                    }
                }
            }
        }
        for &node in &self.buckets[self.idle_bucket()] {
            if visit(node) {
                return;
            }
        }
    }

    /// Find one node able to host one member share of `req` right now, best fit
    /// first (see [`CapacityIndex::probe_fits`]): **O(GPU levels)** bitmap words,
    /// allocation-free — the single-node placement hot path.
    fn find(&self, req: &ResourceRequest, nodes: &[NodeState]) -> Option<usize> {
        let mut found = None;
        self.probe_fits(req, nodes, |node| {
            found = Some(node);
            true
        });
        found
    }

    /// Collect up to `k` *distinct* nodes each able to host one member share of
    /// `req` right now, in the same best-fit order — the partial-packing gang
    /// candidate query, **O(k + GPU levels)**. Returns fewer than `k` when the
    /// allocation cannot currently host that many members; callers needing
    /// all-or-nothing check the length.
    fn find_fit(&self, req: &ResourceRequest, k: usize, nodes: &[NodeState]) -> Vec<usize> {
        let mut picked = Vec::with_capacity(k);
        if k == 0 {
            return picked;
        }
        self.probe_fits(req, nodes, |node| {
            picked.push(node);
            picked.len() == k
        });
        picked
    }

    /// The nodes currently in the dedicated idle bucket (gang fast path, drains,
    /// shrink). Membership proves idleness exactly, so taking the first `n` entries
    /// is an O(n) idle-node claim.
    fn idle_nodes(&self) -> &[usize] {
        &self.buckets[self.idle_bucket()]
    }
}

/// The one active backfill reservation: nodes pinned for a draining gang.
/// Pinned nodes are *removed from the capacity index*, which is what excludes them
/// from every placement probe without any per-probe filtering cost.
struct DrainReservation {
    id: u64,
    /// The draining gang's request: `req.nodes` is the pin target and the
    /// cores/GPUs/memory are the per-member share a pinned node must cover.
    req: ResourceRequest,
    /// Resolved packing policy: `Whole` pins only fully idle nodes; `Partial` pins a
    /// node as soon as its free headroom covers one member share, residual occupancy
    /// and all (the pinned-partial state — occupancy on a pinned node can only
    /// shrink, so the coverage invariant holds until placement).
    packing: GangPacking,
    /// Indices of nodes pinned so far; grows monotonically until `req.nodes` via
    /// release events, never beyond it.
    pinned: Vec<usize>,
}

impl DrainReservation {
    /// Whether `node` may be pinned under this reservation's packing policy.
    /// Only healthy nodes are pinnable: a failed node's capacity is gone, and a
    /// retired node has left the allocation.
    fn covers(&self, node: &NodeState) -> bool {
        if node.health() != NodeHealth::Healthy {
            return false;
        }
        match self.packing {
            GangPacking::Whole => node.is_idle(),
            GangPacking::Partial => node.can_fit_now(&self.req),
        }
    }
}

/// Snapshot of the active backfill reservation, split by pinned-node occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainStatus {
    /// Pinned nodes that are fully idle (every drain under [`GangPacking::Whole`]
    /// pins only such nodes).
    pub pinned_idle: usize,
    /// Pinned nodes still carrying residual slots — partial-packing pins whose free
    /// headroom covers one member share while co-tenants run out.
    pub pinned_partial: usize,
    /// Nodes the draining gang needs in total (its `ResourceRequest::nodes`).
    pub target: usize,
}

impl DrainStatus {
    /// Total pinned nodes, idle and partial.
    pub fn pinned(&self) -> usize {
        self.pinned_idle + self.pinned_partial
    }

    /// True once the reservation holds its full node span.
    pub fn complete(&self) -> bool {
        self.pinned() >= self.target
    }
}

/// Everything behind the allocation's lock. Node `g` is `nodes[g]`: every node ever
/// attached, failed and retired ones included, so indices are never reused and a
/// slot on a dead node still names a node.
struct State {
    nodes: Vec<NodeState>,
    index: CapacityIndex,
    /// The one active backfill reservation, if any.
    drain: Option<DrainReservation>,
    /// Slots handed out and not yet released, keyed id → slot (the stored copy is
    /// what [`Allocation::fail_node`] uses to evict co-resident slots). Releasing a
    /// slot that is not registered is rejected, so a double release can never
    /// re-credit resources (memory in particular has no per-unit occupancy bit to
    /// catch it otherwise).
    live: HashMap<u64, Slot>,
    next_slot_id: u64,
    next_drain_id: u64,
}

impl State {
    /// Register a freshly claimed slot in the live-slot map.
    fn register(&mut self, members: Vec<SlotMember>) -> Slot {
        let slot = Slot {
            id: self.next_slot_id,
            members,
        };
        self.next_slot_id += 1;
        self.live.insert(slot.id, slot.clone());
        slot
    }

    /// Up to `want` distinct nodes able to host one member share of `req` under its
    /// (resolved-by-default) packing policy, in best-fit order: straight off the idle
    /// bucket for whole-node shares and [`GangPacking::Whole`], the index's k-best
    /// `find_fit` otherwise. May return fewer than `want`; callers needing
    /// all-or-nothing check the length.
    fn pick_gang_nodes(&self, req: &ResourceRequest, want: usize) -> Vec<usize> {
        let spec = self.index.spec;
        // A whole-node member share (all cores and all GPUs of each member) can only
        // be hosted by fully idle nodes, so the idle bucket *is* the exact candidate
        // set — the fast path, shared with explicit Whole packing.
        let whole_share = req.cores == spec.cores && req.gpus == spec.gpus;
        if req.packing.unwrap_or_default() == GangPacking::Whole || whole_share {
            return self.index.idle_nodes().iter().take(want).copied().collect();
        }
        self.index.find_fit(req, want, &self.nodes)
    }

    /// Return a pinned `node` to the capacity index at its current headroom class.
    fn unpin(&mut self, node: usize) {
        let state = &mut self.nodes[node];
        state.set_health(NodeHealth::Healthy);
        let (free_gpus, free_cores) = (state.free_gpus(), state.free_cores());
        self.index.insert(node, free_gpus, free_cores);
    }

    /// Backfill reservation hook, run inside the critical section that freed capacity
    /// on `node` (a release, an eviction, an expansion): a node now able to cover one
    /// member share (fully idle for Whole drains, share-sized headroom for Partial
    /// ones) is pinned to the draining gang *before* the scheduler can wake any other
    /// waiter, so a lookahead request can never race the drain for it.
    fn pin_if_covered(&mut self, node: usize) {
        let Some(drain) = self.drain.as_mut() else {
            return;
        };
        if drain.pinned.len() < drain.req.nodes
            && self.index.contains(node)
            && drain.covers(&self.nodes[node])
        {
            self.index.remove(node);
            self.nodes[node].set_health(NodeHealth::Draining);
            drain.pinned.push(node);
        }
        // The pin-wins guarantee, stated as a postcondition: while the reservation
        // is short of its target, no node this release made share-covering may
        // remain visible to other placements.
        debug_assert!(
            drain.pinned.len() >= drain.req.nodes
                || !(self.index.contains(node) && drain.covers(&self.nodes[node])),
            "release left a share-covering node unpinned under an active drain"
        );
    }
}

/// A granted allocation: a set of whole nodes owned by one pilot.
///
/// Its mutable state is one `State` behind one lock (see the module docs for why and
/// for the lock order). Aggregate counters (free cores/GPUs, non-idle nodes, healthy
/// and failed node counts) are atomics written under that lock and read without it.
pub struct Allocation {
    id: u64,
    platform: PlatformSpec,
    /// Healthy in-service node count (excludes failed and retired nodes).
    num_nodes: AtomicU64,
    /// Nodes lost to [`Allocation::fail_node`] and not yet retired by a shrink.
    /// `num_nodes + failed_nodes` is the *attached* count the batch system still
    /// charges this allocation for.
    failed_nodes: AtomicU64,
    state: Mutex<State>,
    /// Cached aggregates, updated under the state lock, read lock-free.
    /// Relaxed ordering throughout: each update is an atomic RMW (totals stay
    /// exact), and every reader that needs a consistent snapshot (tests after a
    /// join, the scheduler after a release) is already ordered by lock or join
    /// synchronisation.
    free_cores: AtomicU64,
    free_gpus: AtomicU64,
    non_idle_nodes: AtomicU64,
    /// Slots evicted by a node failure, keyed id → failed node index. A release of
    /// such a slot reports [`ResourceError::NodeFailed`] (resources were already
    /// reclaimed at eviction) exactly once, then forgets the id.
    failed_slots: Mutex<HashMap<u64, usize>>,
    /// Slots ever put into `failed_slots`; never decreases. While it reads zero — an
    /// allocation that never lost a node — [`Allocation::slot_evicted`] takes no lock.
    evictions: AtomicU64,
    /// Seconds spent waiting in the batch queue (0 if not modelled).
    queue_wait_secs: f64,
    walltime_secs: f64,
}

impl std::fmt::Debug for Allocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Allocation")
            .field("id", &self.id)
            .field("platform", &self.platform.id)
            .field("nodes", &self.num_nodes.load(Ordering::Relaxed))
            .field("failed", &self.failed_nodes.load(Ordering::Relaxed))
            .field("walltime_secs", &self.walltime_secs)
            .finish()
    }
}

impl Allocation {
    /// Allocation identifier (unique per batch system).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The platform this allocation lives on.
    pub fn platform(&self) -> &PlatformSpec {
        &self.platform
    }

    /// Number of healthy in-service nodes (O(1), lock-free). Shrinks when a node
    /// fails or is retired, grows on [`Allocation::expand`].
    pub fn num_nodes(&self) -> usize {
        self.num_nodes.load(Ordering::Relaxed) as usize
    }

    /// Nodes lost to [`Allocation::fail_node`] and not yet retired by a shrink
    /// (O(1), lock-free).
    pub fn failed_nodes(&self) -> usize {
        self.failed_nodes.load(Ordering::Relaxed) as usize
    }

    /// Nodes still attached to (and charged against) this allocation: healthy plus
    /// failed-but-not-yet-retired.
    pub fn attached_nodes(&self) -> usize {
        self.num_nodes() + self.failed_nodes()
    }

    /// Shape of the allocation's nodes.
    pub fn node_spec(&self) -> NodeSpec {
        self.platform.node
    }

    /// Total cores across the allocation's healthy nodes.
    pub fn total_cores(&self) -> u32 {
        self.num_nodes() as u32 * self.platform.node.cores
    }

    /// Total GPUs across the allocation's healthy nodes.
    pub fn total_gpus(&self) -> u32 {
        self.num_nodes() as u32 * self.platform.node.gpus
    }

    /// Currently free cores across all nodes (O(1), lock-free: cached aggregate).
    pub fn free_cores(&self) -> u32 {
        self.free_cores.load(Ordering::Relaxed) as u32
    }

    /// Currently free GPUs across all nodes (O(1), lock-free: cached aggregate).
    pub fn free_gpus(&self) -> u32 {
        self.free_gpus.load(Ordering::Relaxed) as u32
    }

    /// Number of nodes with no slot reservation at all (O(1), lock-free: cached).
    /// This counts *physical* idleness: nodes pinned by an active backfill drain
    /// are not placeable but may still be idle (see [`Allocation::drain_status`]
    /// for the idle/partial split of the pinned set).
    pub fn idle_nodes(&self) -> usize {
        self.num_nodes()
            .saturating_sub(self.non_idle_nodes.load(Ordering::Relaxed) as usize)
    }

    /// Seconds this allocation waited in the batch queue before becoming active.
    pub fn queue_wait_secs(&self) -> f64 {
        self.queue_wait_secs
    }

    /// Granted walltime in seconds.
    pub fn walltime_secs(&self) -> f64 {
        self.walltime_secs
    }

    /// Check `req` against the allocation shape without touching occupancy: `Err` when
    /// this allocation could never host it (per-node share exceeds the node shape, or
    /// the request pins no units at all). A gang spanning more nodes than the
    /// allocation *currently* has is [`ResourceError::InsufficientResources`], not a
    /// shape error: allocations are elastic, so [`Allocation::expand`] can make the
    /// request satisfiable later.
    pub fn check_satisfiable(&self, req: &ResourceRequest) -> Result<(), ResourceError> {
        req.validate()?;
        let num_nodes = self.num_nodes();
        if num_nodes == 0 || req.nodes > num_nodes {
            return Err(ResourceError::InsufficientResources);
        }
        let shape = &self.platform.node;
        if req.cores > shape.cores || req.gpus > shape.gpus || req.mem_gib > shape.mem_gib {
            return Err(ResourceError::NeverSatisfiable {
                reason: format!(
                    "per-node share ({} cores, {} gpus, {:.1} GiB) exceeds the node shape",
                    req.cores, req.gpus, req.mem_gib
                ),
            });
        }
        Ok(())
    }

    /// Reserve one member node's share of `req` on node `node_index`, keeping the
    /// cached aggregates and the capacity index in sync. Returns the membership
    /// record, flagged `co_resident` when the node already carried other live slots
    /// (a partial-packing co-location).
    fn reserve_member_in(
        &self,
        st: &mut State,
        node_index: usize,
        req: &ResourceRequest,
    ) -> Result<SlotMember, ResourceError> {
        let node = &mut st.nodes[node_index];
        let was_idle = node.is_idle();
        let (core_ids, gpu_ids, mem_gib) = node.try_reserve(req)?;
        self.free_cores
            .fetch_sub(core_ids.len() as u64, Ordering::Relaxed);
        self.free_gpus
            .fetch_sub(gpu_ids.len() as u64, Ordering::Relaxed);
        if was_idle && !node.is_idle() {
            self.non_idle_nodes.fetch_add(1, Ordering::Relaxed);
        }
        let (free_gpus, free_cores, name) =
            (node.free_gpus(), node.free_cores(), Arc::clone(&node.name));
        st.index.update(node_index, free_gpus, free_cores);
        Ok(SlotMember {
            node_index,
            node_name: name,
            core_ids,
            gpu_ids,
            mem_gib,
            co_resident: !was_idle,
        })
    }

    /// Return one membership's resources to its node, keeping the cached aggregates
    /// and the capacity index in sync. A node pinned by the active drain is *not*
    /// re-indexed: it stays invisible to other placements, with only its occupancy
    /// shrinking (the pinned-partial state relies on exactly this).
    fn release_member_in(&self, st: &mut State, member: &SlotMember) {
        let node = &mut st.nodes[member.node_index];
        let was_idle = node.is_idle();
        // Deltas, not slot sizes: NodeState::release ignores double-released indices.
        let (cores_before, gpus_before) = (node.free_cores(), node.free_gpus());
        node.release(&member.core_ids, &member.gpu_ids, member.mem_gib);
        self.free_cores
            .fetch_add((node.free_cores() - cores_before) as u64, Ordering::Relaxed);
        self.free_gpus
            .fetch_add((node.free_gpus() - gpus_before) as u64, Ordering::Relaxed);
        if !was_idle && node.is_idle() {
            self.non_idle_nodes.fetch_sub(1, Ordering::Relaxed);
        }
        if st.index.contains(member.node_index) {
            let (free_gpus, free_cores) = (node.free_gpus(), node.free_cores());
            st.index.update(member.node_index, free_gpus, free_cores);
        }
    }

    /// Try to carve a slot satisfying `req` out of the allocation.
    ///
    /// A single-node request takes the capacity index's best fit over the whole
    /// allocation. A gang request (`req.nodes > 1`) atomically claims distinct nodes
    /// in best-fit order, all-or-nothing with full rollback on a mid-claim conflict
    /// (see [`GangPacking`]).
    /// Returns [`ResourceError::InsufficientResources`] when nothing currently fits
    /// and [`ResourceError::NeverSatisfiable`] when the allocation shape could never
    /// satisfy it.
    pub fn allocate_slot(&self, req: &ResourceRequest) -> Result<Slot, ResourceError> {
        self.check_satisfiable(req)?;
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if req.nodes > 1 {
            let mut picked = st.pick_gang_nodes(req, req.nodes);
            if picked.len() < req.nodes {
                return Err(ResourceError::InsufficientResources);
            }
            // Rank order: member i of the slot is the i-th lowest claimed node index.
            picked.sort_unstable();
            return self.claim_gang(st, &picked, req);
        }
        let node = st
            .index
            .find(req, &st.nodes)
            .ok_or(ResourceError::InsufficientResources)?;
        let member = self.reserve_member_in(st, node, req)?;
        Ok(st.register(vec![member]))
    }

    /// Reserve one member share of `req` on each of the (sorted, distinct, indexed)
    /// nodes in `picked`, all-or-nothing, and register the resulting gang slot.
    fn claim_gang(
        &self,
        st: &mut State,
        picked: &[usize],
        req: &ResourceRequest,
    ) -> Result<Slot, ResourceError> {
        let mut members: Vec<SlotMember> = Vec::with_capacity(picked.len());
        for &node_index in picked {
            match self.reserve_member_in(st, node_index, req) {
                Ok(member) => members.push(member),
                Err(e) => {
                    // Unreachable while the state lock is held (every candidate was
                    // proven to fit, and occupancy cannot grow underneath us), but
                    // keep the claim all-or-nothing: roll back every reservation
                    // made so far.
                    for member in &members {
                        self.release_member_in(st, member);
                    }
                    return Err(e);
                }
            }
        }
        Ok(st.register(members))
    }

    /// Open a backfill reservation for a gang-shaped `req`: every node whose current
    /// capacity covers one member share under the request's packing policy — fully
    /// idle nodes for [`GangPacking::Whole`], any node whose free headroom covers the
    /// share for [`GangPacking::Partial`] — is pinned immediately (up to `req.nodes`),
    /// and every node [`Allocation::release_slot`] later makes eligible is pinned
    /// too, until the reservation holds `req.nodes` nodes. Pinned nodes are invisible
    /// to every other placement path; all other capacity stays placeable (backfill
    /// *around* the reservation).
    ///
    /// Returns the drain id to pass to [`Allocation::allocate_reserved`] /
    /// [`Allocation::cancel_drain`]. At most one drain is active per allocation:
    /// a second `begin_drain` fails with [`ResourceError::DrainActive`].
    pub fn begin_drain(&self, req: &ResourceRequest) -> Result<u64, ResourceError> {
        self.check_satisfiable(req)?;
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if st.drain.is_some() {
            return Err(ResourceError::DrainActive);
        }
        let id = st.next_drain_id;
        st.next_drain_id += 1;
        // Pin what already covers a member share: idle nodes straight off the idle
        // bucket for Whole, the best-fit candidate set for Partial — O(target)
        // either way (see `pick_gang_nodes`).
        let pinned = st.pick_gang_nodes(req, req.nodes);
        for &node in &pinned {
            st.index.remove(node);
            st.nodes[node].set_health(NodeHealth::Draining);
        }
        st.drain = Some(DrainReservation {
            id,
            req: *req,
            packing: req.packing.unwrap_or_default(),
            pinned,
        });
        Ok(id)
    }

    /// Cancel an active backfill reservation: every pinned node returns to the
    /// capacity index at its current headroom class (the idle bucket for idle pins,
    /// its reduced class for pinned-partial nodes), immediately placeable again.
    /// Returns how many nodes were released. Cancelling a drain that was already
    /// consumed by its placement (or never begun) fails with
    /// [`ResourceError::UnknownDrain`].
    pub fn cancel_drain(&self, drain_id: u64) -> Result<usize, ResourceError> {
        let mut st = self.state.lock();
        let reservation = st
            .drain
            .take_if(|d| d.id == drain_id)
            .ok_or(ResourceError::UnknownDrain(drain_id))?;
        for &node in &reservation.pinned {
            st.unpin(node);
        }
        Ok(reservation.pinned.len())
    }

    /// Place the draining gang on its reserved nodes, atomically consuming the
    /// reservation. Under partial packing the members land beside any residual slots
    /// still running on pinned-partial nodes — the pin criterion guaranteed one
    /// member share of headroom, and occupancy on a pinned node can only have shrunk
    /// since. Fails with [`ResourceError::InsufficientResources`] while the
    /// reservation is still short of its target (pinning continues via releases), and
    /// with [`ResourceError::UnknownDrain`] when `drain_id` is not the active drain.
    pub fn allocate_reserved(
        &self,
        drain_id: u64,
        req: &ResourceRequest,
    ) -> Result<Slot, ResourceError> {
        self.check_satisfiable(req)?;
        let mut guard = self.state.lock();
        let st = &mut *guard;
        match &st.drain {
            Some(d) if d.id == drain_id => {
                if d.req.nodes != req.nodes {
                    return Err(ResourceError::NeverSatisfiable {
                        reason: format!(
                            "drain reserved {} nodes but the request spans {}",
                            d.req.nodes, req.nodes
                        ),
                    });
                }
                if d.pinned.len() < d.req.nodes {
                    return Err(ResourceError::InsufficientResources);
                }
            }
            _ => return Err(ResourceError::UnknownDrain(drain_id)),
        }
        let mut picked = st.drain.take().expect("checked above").pinned;
        // Rank order, and back into the index so the shared claim path (and any
        // undo) keeps it consistent.
        picked.sort_unstable();
        for &node in &picked {
            st.unpin(node);
        }
        // On the unreachable failure path the nodes stay indexed and the reservation
        // is gone — a failed reserved claim cancels the drain rather than leaking it.
        self.claim_gang(st, &picked, req)
    }

    /// Number of nodes currently pinned by the active backfill reservation
    /// (0 when no drain is active), idle and pinned-partial alike.
    pub fn reserved_nodes(&self) -> usize {
        self.state
            .lock()
            .drain
            .as_ref()
            .map_or(0, |d| d.pinned.len())
    }

    /// Status of the active backfill reservation, if any: how many pinned nodes are
    /// fully idle vs still occupied by residual slots (pinned-partial), against the
    /// reservation's node target. O(pinned nodes).
    pub fn drain_status(&self) -> Option<DrainStatus> {
        let st = self.state.lock();
        let d = st.drain.as_ref()?;
        let pinned_idle = d.pinned.iter().filter(|&&n| st.nodes[n].is_idle()).count();
        Some(DrainStatus {
            pinned_idle,
            pinned_partial: d.pinned.len() - pinned_idle,
            target: d.req.nodes,
        })
    }

    /// Release a previously allocated slot, updating the capacity index incrementally
    /// — O(1) for single-node slots, O(gang size) for gangs, whose member nodes all
    /// return to their headroom classes as a unit. Unknown, foreign, and
    /// already-released slots are all rejected. A slot that was evicted by
    /// [`Allocation::fail_node`] reports [`ResourceError::NodeFailed`] instead: its
    /// resources were already reclaimed, so the caller must treat it as released,
    /// not as a bug.
    pub fn release_slot(&self, slot: &Slot) -> Result<(), ResourceError> {
        if slot.members.is_empty() {
            return Err(ResourceError::UnknownSlot(slot.id));
        }
        let mut guard = self.state.lock();
        let st = &mut *guard;
        // Validate every membership before mutating anything, so a foreign or corrupt
        // gang slot cannot be half-released. Dead nodes keep their entries, so slots
        // on them still validate.
        let named = |m: &SlotMember| st.nodes.get(m.node_index).map(|n| &n.name);
        if !slot.members.iter().all(|m| named(m) == Some(&m.node_name)) {
            return Err(ResourceError::UnknownSlot(slot.id));
        }
        if st.live.remove(&slot.id).is_none() {
            // Not live. Either a node failure evicted it (report that exactly once,
            // forgetting the id) or it was already released / never issued — which
            // must not re-credit cores, GPUs, or — crucially — memory, which has no
            // occupancy bit to catch the repeat.
            if let Some(node) = self.failed_slots.lock().remove(&slot.id) {
                return Err(ResourceError::NodeFailed(node));
            }
            return Err(ResourceError::UnknownSlot(slot.id));
        }
        // A live slot has no member on a failed node: `fail_node` evicts every slot
        // on its node under this same lock.
        for member in &slot.members {
            self.release_member_in(st, member);
            st.pin_if_covered(member.node_index);
        }
        Ok(())
    }

    /// True when no slot is currently allocated (O(1), lock-free: cached
    /// idle-node count).
    pub fn is_idle(&self) -> bool {
        self.non_idle_nodes.load(Ordering::Relaxed) == 0
    }

    /// Append `n` fresh, fully idle nodes to the allocation (a pilot growing at
    /// runtime), returning their indices.
    ///
    /// New nodes take the next indices, so expansion moves no existing node and
    /// invalidates no outstanding slot. An active backfill reservation still short of
    /// its target pins eligible new nodes before any other placement can see them
    /// (same guarantee as [`Allocation::release_slot`]'s pin hook).
    pub fn expand(&self, n: usize) -> Result<Vec<usize>, ResourceError> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let spec = self.platform.node;
        // Every node ever attached (healthy + failed + retired) keeps its index.
        let first = st.nodes.len();
        for g in first..first + n {
            st.nodes
                .push(NodeState::new(self.platform.node_name(g), spec));
            let indexed = st.index.push_idle();
            debug_assert_eq!(indexed, g);
            st.pin_if_covered(g);
        }
        self.num_nodes.fetch_add(n as u64, Ordering::Relaxed);
        self.free_cores
            .fetch_add(n as u64 * spec.cores as u64, Ordering::Relaxed);
        self.free_gpus
            .fetch_add(n as u64 * spec.gpus as u64, Ordering::Relaxed);
        Ok((first..first + n).collect())
    }

    /// Retire `n` nodes from the allocation (a pilot shrinking at runtime),
    /// returning the retired indices. Shrink is a drain with no waiting gang: an
    /// active backfill reservation wins and shrink reports
    /// [`ResourceError::DrainActive`], and it only takes nodes that carry no slot.
    /// Failed nodes retire first — they are already written off, so retiring them
    /// costs no capacity — then fully idle healthy ones. All or nothing: when fewer
    /// than `n` nodes are currently retirable the allocation is left untouched and
    /// [`ResourceError::InsufficientResources`] is returned (the caller retries once
    /// load has drained).
    pub fn shrink(&self, n: usize) -> Result<Vec<usize>, ResourceError> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if st.drain.is_some() {
            return Err(ResourceError::DrainActive);
        }
        // Candidate pass first, so failure mutates nothing. The failed scan walks
        // every node entry ever attached (retired ones included), so skip it
        // entirely on the common no-failure resize path — the counter is exact
        // under the state lock we hold.
        let mut retire_failed: Vec<usize> = Vec::new();
        if self.failed_nodes.load(Ordering::Relaxed) > 0 {
            let failed = |(_, node): &(usize, &NodeState)| node.health() == NodeHealth::Failed;
            retire_failed.extend(
                st.nodes
                    .iter()
                    .enumerate()
                    .filter(failed)
                    .map(|(g, _)| g)
                    .take(n),
            );
        }
        let want = n - retire_failed.len();
        if st.index.idle_nodes().len() < want {
            return Err(ResourceError::InsufficientResources);
        }
        let retire_idle: Vec<usize> = st.index.idle_nodes()[..want].to_vec();
        for &g in &retire_failed {
            st.nodes[g].set_health(NodeHealth::Retired);
        }
        self.failed_nodes
            .fetch_sub(retire_failed.len() as u64, Ordering::Relaxed);
        let spec = self.platform.node;
        for &g in &retire_idle {
            st.index.remove(g);
            st.nodes[g].set_health(NodeHealth::Retired);
        }
        self.num_nodes
            .fetch_sub(retire_idle.len() as u64, Ordering::Relaxed);
        self.free_cores.fetch_sub(
            retire_idle.len() as u64 * spec.cores as u64,
            Ordering::Relaxed,
        );
        self.free_gpus.fetch_sub(
            retire_idle.len() as u64 * spec.gpus as u64,
            Ordering::Relaxed,
        );
        retire_failed.extend(retire_idle);
        Ok(retire_failed)
    }

    /// Fail node `node` at runtime: atomically mark it [`NodeHealth::Failed`],
    /// remove it from the capacity index, unpin it from any active backfill
    /// reservation, evict every live slot with a member on it (co-resident members
    /// on healthy nodes return to their headroom classes; the failed node's capacity
    /// is written off the allocation's aggregates), and return the evicted slot ids
    /// so the scheduler can requeue their owners. Each victim's eventual
    /// [`Allocation::release_slot`] reports [`ResourceError::NodeFailed`] instead of
    /// double-crediting. Failing a node that already failed (or was retired) is a
    /// no-op returning no victims.
    pub fn fail_node(&self, node: usize) -> Result<Vec<u64>, ResourceError> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        match st.nodes.get(node).map(|n| n.health()) {
            None => return Err(ResourceError::UnknownNode(node)),
            Some(NodeHealth::Failed) | Some(NodeHealth::Retired) => return Ok(Vec::new()),
            Some(_) => {}
        }
        if let Some(drain) = st.drain.as_mut() {
            drain.pinned.retain(|&p| p != node);
        }
        if st.index.contains(node) {
            st.index.remove(node);
        }
        // Evict every live slot with a member on the node.
        let ids: Vec<u64> = st
            .live
            .iter()
            .filter(|(_, slot)| slot.members.iter().any(|m| m.node_index == node))
            .map(|(&id, _)| id)
            .collect();
        let victims: Vec<Slot> = ids
            .iter()
            .map(|id| st.live.remove(id).expect("just listed"))
            .collect();
        {
            let mut failed_map = self.failed_slots.lock();
            for &id in &ids {
                failed_map.insert(id, node);
            }
            self.evictions
                .fetch_add(ids.len() as u64, Ordering::Release);
        }
        for slot in &victims {
            for member in &slot.members {
                self.release_member_in(st, member);
                if member.node_index != node {
                    st.pin_if_covered(member.node_index);
                }
            }
        }
        // Write the node off the books: every slot on it was live and is evicted, so
        // it is idle and its whole capacity leaves the aggregates.
        let node_state = &mut st.nodes[node];
        debug_assert!(
            node_state.is_idle(),
            "a slot on the failed node was not live"
        );
        self.free_cores
            .fetch_sub(node_state.free_cores() as u64, Ordering::Relaxed);
        self.free_gpus
            .fetch_sub(node_state.free_gpus() as u64, Ordering::Relaxed);
        node_state.set_health(NodeHealth::Failed);
        self.num_nodes.fetch_sub(1, Ordering::Relaxed);
        self.failed_nodes.fetch_add(1, Ordering::Relaxed);
        Ok(ids)
    }

    /// True when slot `id` was evicted by a node failure and that eviction has not
    /// yet been observed through [`Allocation::release_slot`]. A peek: the id is
    /// only forgotten when the release reports it.
    pub fn slot_evicted(&self, id: u64) -> bool {
        self.evictions.load(Ordering::Acquire) > 0 && self.failed_slots.lock().contains_key(&id)
    }

    /// Health of node `node`, or `None` when the index was never part of the
    /// allocation (test/oracle introspection).
    pub fn node_health(&self, node: usize) -> Option<NodeHealth> {
        self.state.lock().nodes.get(node).map(|n| n.health())
    }
}

/// The platform's batch / resource manager.
pub struct BatchSystem {
    spec: PlatformSpec,
    clock: SharedClock,
    rng: Mutex<StdRng>,
    nodes_in_use: AtomicU64,
    next_alloc_id: AtomicU64,
}

impl std::fmt::Debug for BatchSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSystem")
            .field("platform", &self.spec.id)
            .field("nodes_in_use", &self.nodes_in_use.load(Ordering::Relaxed))
            .finish()
    }
}

impl BatchSystem {
    /// Create a batch system for the given platform.
    pub fn new(spec: PlatformSpec, clock: SharedClock, seed: u64) -> Self {
        BatchSystem {
            spec,
            clock,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            nodes_in_use: AtomicU64::new(0),
            next_alloc_id: AtomicU64::new(0),
        }
    }

    /// The platform this batch system manages.
    pub fn platform(&self) -> &PlatformSpec {
        &self.spec
    }

    /// Nodes currently held by active allocations.
    pub fn nodes_in_use(&self) -> usize {
        self.nodes_in_use.load(Ordering::Relaxed) as usize
    }

    /// Nodes currently free.
    pub fn nodes_free(&self) -> usize {
        self.spec.num_nodes.saturating_sub(self.nodes_in_use())
    }

    /// Submit an allocation request. Blocks for the modelled queue wait (on the virtual
    /// clock) when requested, then returns an active [`Allocation`].
    pub fn submit(&self, req: AllocationRequest) -> Result<Arc<Allocation>, BatchError> {
        if req.nodes == 0 {
            return Err(BatchError::EmptyRequest);
        }
        if req.nodes > self.spec.num_nodes {
            return Err(BatchError::TooLarge {
                requested: req.nodes,
                available: self.spec.num_nodes,
            });
        }
        // Reserve nodes atomically against concurrent submissions.
        loop {
            let used = self.nodes_in_use.load(Ordering::Acquire);
            if used as usize + req.nodes > self.spec.num_nodes {
                return Err(BatchError::Busy);
            }
            if self
                .nodes_in_use
                .compare_exchange(
                    used,
                    used + req.nodes as u64,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                break;
            }
        }

        let queue_wait_secs = if req.model_queue_wait && self.spec.queue_wait_mean_secs > 0.0 {
            let dist = Dist::exponential_with_mean(self.spec.queue_wait_mean_secs);
            let wait = dist.sample_secs(&mut *self.rng.lock());
            self.clock.sleep(wait);
            wait.as_secs_f64()
        } else {
            0.0
        };

        let id = self.next_alloc_id.fetch_add(1, Ordering::Relaxed);
        let nodes: Vec<NodeState> = (0..req.nodes)
            .map(|g| NodeState::new(self.spec.node_name(g), self.spec.node))
            .collect();
        Ok(Arc::new(Allocation {
            id,
            platform: self.spec.clone(),
            num_nodes: AtomicU64::new(req.nodes as u64),
            failed_nodes: AtomicU64::new(0),
            state: Mutex::new(State {
                nodes,
                index: CapacityIndex::new(self.spec.node, req.nodes),
                drain: None,
                live: HashMap::new(),
                next_slot_id: 0,
                next_drain_id: 0,
            }),
            free_cores: AtomicU64::new(req.nodes as u64 * self.spec.node.cores as u64),
            free_gpus: AtomicU64::new(req.nodes as u64 * self.spec.node.gpus as u64),
            non_idle_nodes: AtomicU64::new(0),
            failed_slots: Mutex::new(HashMap::new()),
            evictions: AtomicU64::new(0),
            queue_wait_secs,
            walltime_secs: req.walltime_secs,
        }))
    }

    /// Reserve `n` additional nodes from the platform's free pool (a pilot about
    /// to [`Allocation::expand`]). Atomic against concurrent submissions; fails
    /// with [`BatchError::Busy`] when the platform cannot spare them right now.
    pub fn grow(&self, n: usize) -> Result<(), BatchError> {
        if n == 0 {
            return Ok(());
        }
        if n > self.spec.num_nodes {
            return Err(BatchError::TooLarge {
                requested: n,
                available: self.spec.num_nodes,
            });
        }
        loop {
            let used = self.nodes_in_use.load(Ordering::Acquire);
            if used as usize + n > self.spec.num_nodes {
                return Err(BatchError::Busy);
            }
            if self
                .nodes_in_use
                .compare_exchange(used, used + n as u64, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Ok(());
            }
        }
    }

    /// Return `n` nodes to the platform's free pool (retired by a shrink).
    /// Saturating, like [`BatchSystem::release`].
    pub fn shed(&self, n: usize) {
        let mut current = self.nodes_in_use.load(Ordering::Acquire);
        loop {
            let next = current.saturating_sub(n as u64);
            match self.nodes_in_use.compare_exchange(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Return an allocation's nodes to the free pool — every node still attached,
    /// failed-but-not-retired ones included (they were charged until now).
    pub fn release(&self, allocation: &Allocation) {
        let n = allocation.attached_nodes() as u64;
        // Saturating: releasing the same allocation twice must not underflow.
        let mut current = self.nodes_in_use.load(Ordering::Acquire);
        loop {
            let next = current.saturating_sub(n);
            match self.nodes_in_use.compare_exchange(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PlatformId;
    use hpcml_sim::clock::ClockSpec;

    fn batch(platform: PlatformId) -> BatchSystem {
        BatchSystem::new(platform.spec(), ClockSpec::Manual.build(), 7)
    }

    fn gpus(n: u32) -> ResourceRequest {
        ResourceRequest::gpus(n).unwrap()
    }

    fn cores(n: u32) -> ResourceRequest {
        ResourceRequest::cores(n).unwrap()
    }

    #[test]
    fn submit_and_release_allocation() {
        let b = batch(PlatformId::Delta);
        let alloc = b.submit(AllocationRequest::nodes(4)).unwrap();
        assert_eq!(alloc.num_nodes(), 4);
        assert_eq!(alloc.total_cores(), 256);
        assert_eq!(alloc.total_gpus(), 16);
        assert_eq!(b.nodes_in_use(), 4);
        b.release(&alloc);
        assert_eq!(b.nodes_in_use(), 0);
        b.release(&alloc); // double release must not underflow
        assert_eq!(b.nodes_in_use(), 0);
    }

    #[test]
    fn submit_rejects_bad_requests() {
        let b = batch(PlatformId::Local);
        assert_eq!(
            b.submit(AllocationRequest::nodes(0)).unwrap_err(),
            BatchError::EmptyRequest
        );
        let err = b.submit(AllocationRequest::nodes(100)).unwrap_err();
        assert!(matches!(
            err,
            BatchError::TooLarge {
                requested: 100,
                available: 2
            }
        ));
        let _a = b.submit(AllocationRequest::nodes(2)).unwrap();
        assert_eq!(
            b.submit(AllocationRequest::nodes(1)).unwrap_err(),
            BatchError::Busy
        );
        assert!(!format!("{:?}", b).is_empty());
    }

    #[test]
    fn allocation_slots_respect_capacity() {
        let b = batch(PlatformId::Local); // 2 nodes x (8 cores, 2 gpus)
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        let mut slots = Vec::new();
        for _ in 0..4 {
            slots.push(alloc.allocate_slot(&gpus(1)).unwrap());
        }
        assert_eq!(alloc.free_gpus(), 0);
        assert_eq!(
            alloc.allocate_slot(&gpus(1)).unwrap_err(),
            ResourceError::InsufficientResources
        );
        // Slots must land on both nodes.
        let node_indices: std::collections::HashSet<usize> =
            slots.iter().map(|s| s.node_index()).collect();
        assert_eq!(node_indices.len(), 2);
        for s in &slots {
            alloc.release_slot(s).unwrap();
        }
        assert!(alloc.is_idle());
        assert_eq!(alloc.free_gpus(), 4);
    }

    #[test]
    fn oversized_slot_request_is_never_satisfiable() {
        let b = batch(PlatformId::Local);
        let alloc = b.submit(AllocationRequest::nodes(1)).unwrap();
        let err = alloc.allocate_slot(&cores(64)).unwrap_err();
        assert!(matches!(err, ResourceError::NeverSatisfiable { .. }));
        assert!(alloc.check_satisfiable(&cores(64)).is_err());
        assert!(alloc.check_satisfiable(&cores(1)).is_ok());
    }

    #[test]
    fn zero_unit_request_cannot_reach_the_index() {
        let b = batch(PlatformId::Local);
        let alloc = b.submit(AllocationRequest::nodes(1)).unwrap();
        // A struct-literal memory-only request pins no core or GPU; were it allowed
        // through, its node would sit in the idle bucket with live memory reserved.
        let literal = ResourceRequest {
            cores: 0,
            gpus: 0,
            mem_gib: 8.0,
            nodes: 1,
            packing: None,
        };
        assert_eq!(
            alloc.allocate_slot(&literal).unwrap_err(),
            ResourceError::EmptyRequest
        );
        assert_eq!(alloc.idle_nodes(), 1);
        assert!(alloc.is_idle());
    }

    #[test]
    fn release_unknown_slot_fails() {
        let b = batch(PlatformId::Local);
        let alloc = b.submit(AllocationRequest::nodes(1)).unwrap();
        let bogus = Slot::single(
            99,
            SlotMember {
                node_index: 5,
                node_name: "nope".into(),
                core_ids: vec![0],
                gpu_ids: vec![],
                mem_gib: 0.0,
                co_resident: false,
            },
        );
        assert!(matches!(
            alloc.release_slot(&bogus),
            Err(ResourceError::UnknownSlot(99))
        ));
        // Right index, wrong name: also rejected.
        let mut wrong_name = bogus.clone();
        wrong_name.members[0].node_index = 0;
        assert!(matches!(
            alloc.release_slot(&wrong_name),
            Err(ResourceError::UnknownSlot(99))
        ));
        // No members at all: rejected.
        let empty = Slot {
            id: 99,
            members: vec![],
        };
        assert!(matches!(
            alloc.release_slot(&empty),
            Err(ResourceError::UnknownSlot(99))
        ));
    }

    #[test]
    fn double_release_is_rejected_and_does_not_recredit_memory() {
        let b = batch(PlatformId::Local);
        let alloc = b.submit(AllocationRequest::nodes(1)).unwrap();
        let node_mem = alloc.node_spec().mem_gib;
        let hold = alloc
            .allocate_slot(&cores(1).with_mem_gib(node_mem * 0.4))
            .unwrap();
        let victim = alloc
            .allocate_slot(&cores(1).with_mem_gib(node_mem * 0.2))
            .unwrap();
        alloc.release_slot(&victim).unwrap();
        assert!(
            matches!(
                alloc.release_slot(&victim),
                Err(ResourceError::UnknownSlot(_))
            ),
            "second release of the same slot must be rejected"
        );
        // Were memory re-credited, this over-committing request would succeed.
        let err = alloc
            .allocate_slot(&cores(1).with_mem_gib(node_mem * 0.7))
            .unwrap_err();
        assert_eq!(err, ResourceError::InsufficientResources);
        alloc.release_slot(&hold).unwrap();
        assert!(alloc.is_idle());
    }

    #[test]
    fn queue_wait_modelled_when_requested() {
        let spec = PlatformId::Delta.spec();
        let clock = ClockSpec::scaled(100_000.0).build();
        let b = BatchSystem::new(spec, clock, 3);
        let alloc = b
            .submit(AllocationRequest::nodes(1).with_queue_wait(true))
            .unwrap();
        assert!(alloc.queue_wait_secs() > 0.0);
        let alloc2 = b.submit(AllocationRequest::nodes(1)).unwrap();
        assert_eq!(alloc2.queue_wait_secs(), 0.0);
    }

    #[test]
    fn frontier_supports_experiment1_scale() {
        let b = batch(PlatformId::Frontier);
        // 640 services x 1 GPU each => 80 Frontier nodes.
        let alloc = b.submit(AllocationRequest::nodes(80)).unwrap();
        let mut slots = Vec::with_capacity(640);
        for _ in 0..640 {
            slots.push(alloc.allocate_slot(&gpus(1)).unwrap());
        }
        assert_eq!(alloc.free_gpus(), 0);
        assert_eq!(slots.len(), 640);
    }

    #[test]
    fn best_fit_prefers_partially_filled_nodes() {
        let b = batch(PlatformId::Local); // 2 nodes x (8 cores, 2 gpus)
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        let first = alloc.allocate_slot(&cores(2)).unwrap();
        assert_eq!(alloc.idle_nodes(), 1);
        // The next small request must pack onto the same node, keeping one node idle
        // for whole-node or GPU-heavy placements.
        let second = alloc.allocate_slot(&cores(2)).unwrap();
        assert_eq!(second.node_index(), first.node_index());
        assert_eq!(alloc.idle_nodes(), 1);
        // A whole-node request then takes the untouched node.
        let whole = alloc.allocate_slot(&cores(8)).unwrap();
        assert_ne!(whole.node_index(), first.node_index());
        assert_eq!(alloc.idle_nodes(), 0);
    }

    #[test]
    fn single_node_placement_is_global_best_fit_on_a_64_node_pilot() {
        // The `task_burst` pilot size. A 40-core hold leaves node 0 loose (24 cores
        // free); a 60-core hold cannot join it and leaves an odd-indexed node tight
        // (4 free). A 1-core request must take the tight node, wherever the loose one
        // sits.
        let b = batch(PlatformId::Frontier); // 64 cores per node
        let alloc = b.submit(AllocationRequest::nodes(64)).unwrap();
        let loose = alloc.allocate_slot(&cores(40)).unwrap();
        let tight = alloc.allocate_slot(&cores(60)).unwrap();
        assert_eq!(
            loose.node_index() % 2,
            0,
            "the looser node sits at an even index"
        );
        assert_eq!(tight.node_index() % 2, 1);
        let small = alloc.allocate_slot(&cores(1)).unwrap();
        assert_eq!(small.node_index(), tight.node_index(), "tightest fit first");
        for slot in [&small, &tight, &loose] {
            alloc.release_slot(slot).unwrap();
        }
        assert!(alloc.is_idle());
        assert_eq!(alloc.idle_nodes(), 64);
    }

    #[test]
    fn gpu_requests_avoid_draining_gpu_rich_nodes() {
        let b = batch(PlatformId::Local); // 2 nodes x (8 cores, 2 gpus)
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        // Take one GPU so node A is GPU-poorer than node B.
        let gpu_slot = alloc.allocate_slot(&gpus(1)).unwrap();
        // A CPU-only request should land on the GPU-poor node (smallest sufficient
        // GPU level first), preserving node B for GPU work.
        let cpu_slot = alloc.allocate_slot(&cores(1)).unwrap();
        assert_eq!(cpu_slot.node_index(), gpu_slot.node_index());
        // And a 2-GPU request still finds the untouched node.
        let big_gpu = alloc
            .allocate_slot(&ResourceRequest {
                cores: 2,
                gpus: 2,
                mem_gib: 0.0,
                nodes: 1,
                packing: None,
            })
            .unwrap();
        assert_ne!(big_gpu.node_index(), gpu_slot.node_index());
    }

    #[test]
    fn memory_constrained_requests_fall_through_to_fitting_nodes() {
        let b = batch(PlatformId::Local);
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        let node_mem = alloc.node_spec().mem_gib;
        // Consume almost all memory on one node (but only one core).
        let hog = alloc
            .allocate_slot(&cores(1).with_mem_gib(node_mem - 1.0))
            .unwrap();
        // A request needing lots of memory must skip the memory-hogged node even though
        // its core class looks attractive.
        let needy = alloc
            .allocate_slot(&cores(1).with_mem_gib(node_mem / 2.0))
            .unwrap();
        assert_ne!(needy.node_index(), hog.node_index());
        alloc.release_slot(&hog).unwrap();
        alloc.release_slot(&needy).unwrap();
        assert!(alloc.is_idle());
    }

    #[test]
    fn gang_claims_distinct_idle_nodes_atomically() {
        let b = batch(PlatformId::Delta); // 64 cores, 4 gpus per node
        let alloc = b.submit(AllocationRequest::nodes(4)).unwrap();
        let gang = alloc
            .allocate_slot(&cores(32).with_mem_gib(64.0).with_nodes(3))
            .unwrap();
        assert!(gang.is_gang());
        assert_eq!(gang.num_nodes(), 3);
        assert_eq!(gang.num_cores(), 96, "32 ranks-per-node cores x 3 nodes");
        // Members are distinct nodes in rank (node-index) order.
        let indices: Vec<usize> = gang.node_indices().collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, indices, "members must be in rank order");
        assert_eq!(sorted.len(), 3, "members must be distinct nodes");
        assert_eq!(alloc.idle_nodes(), 1);
        assert_eq!(alloc.free_cores(), 4 * 64 - 96);
        // Releasing the gang restores every member to idle as a unit.
        alloc.release_slot(&gang).unwrap();
        assert_eq!(alloc.idle_nodes(), 4);
        assert!(alloc.is_idle());
        assert_eq!(alloc.free_cores(), 4 * 64);
        // And a double release of the gang is rejected.
        assert!(matches!(
            alloc.release_slot(&gang),
            Err(ResourceError::UnknownSlot(_))
        ));
    }

    #[test]
    fn whole_packing_requires_fully_idle_member_nodes() {
        let b = batch(PlatformId::Local); // 2 nodes
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        // One core on one node leaves only one idle node: under Whole packing a
        // 2-node gang must wait even though raw core capacity is plentiful.
        let pin = alloc.allocate_slot(&cores(1)).unwrap();
        let whole_gang = cores(2).with_nodes(2).with_packing(GangPacking::Whole);
        assert_eq!(
            alloc.allocate_slot(&whole_gang).unwrap_err(),
            ResourceError::InsufficientResources
        );
        alloc.release_slot(&pin).unwrap();
        let gang = alloc.allocate_slot(&whole_gang).unwrap();
        assert_eq!(gang.num_nodes(), 2);
        assert_eq!(
            gang.partial_nodes(),
            0,
            "whole members are never co-resident"
        );
        alloc.release_slot(&gang).unwrap();
        assert!(alloc.is_idle());
    }

    #[test]
    fn partial_packing_spans_partially_free_nodes() {
        let b = batch(PlatformId::Local); // 2 nodes x (8 cores, 2 gpus)
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        // The same scenario Whole packing rejects: one core held on one node, yet a
        // sub-node gang best-fits beside it (packing defaults to Partial).
        let pin = alloc.allocate_slot(&cores(1)).unwrap();
        let gang = alloc.allocate_slot(&cores(2).with_nodes(2)).unwrap();
        assert_eq!(gang.num_nodes(), 2);
        assert_eq!(gang.num_cores(), 4);
        assert_eq!(
            gang.partial_nodes(),
            1,
            "exactly the pinned node's member is co-resident"
        );
        assert!(gang.node_indices().any(|n| n == pin.node_index()));
        assert_eq!(alloc.idle_nodes(), 0);
        // Releasing the gang restores the untouched node to idle and the shared node
        // to its single-core class.
        alloc.release_slot(&gang).unwrap();
        assert_eq!(alloc.idle_nodes(), 1);
        alloc.release_slot(&pin).unwrap();
        assert!(alloc.is_idle());
    }

    #[test]
    fn partial_packing_best_fits_before_touching_idle_nodes() {
        let b = batch(PlatformId::Delta); // 4 nodes x 64 cores
        let alloc = b.submit(AllocationRequest::nodes(4)).unwrap();
        // Two nodes loaded just over half (33 cores — the 31-core leftover cannot
        // host another 33-core slot, so the two holds land on distinct nodes), two
        // idle: a 2-node sub-node gang must co-locate on the loaded pair and leave
        // both idle nodes untouched for wider work.
        let hold_a = alloc.allocate_slot(&cores(33)).unwrap();
        let hold_b = alloc.allocate_slot(&cores(33)).unwrap();
        assert_ne!(hold_a.node_index(), hold_b.node_index());
        let gang = alloc.allocate_slot(&cores(31).with_nodes(2)).unwrap();
        assert_eq!(gang.partial_nodes(), 2, "both members co-resident");
        let gang_nodes: std::collections::HashSet<usize> = gang.node_indices().collect();
        assert!(gang_nodes.contains(&hold_a.node_index()));
        assert!(gang_nodes.contains(&hold_b.node_index()));
        assert_eq!(alloc.idle_nodes(), 2, "idle nodes are the last resort");
        // A whole-node-share gang still fits on the untouched idle pair.
        let whole = alloc.allocate_slot(&cores(64).with_nodes(2)).unwrap();
        assert_eq!(whole.partial_nodes(), 0);
        for slot in [&gang, &whole, &hold_a, &hold_b] {
            alloc.release_slot(slot).unwrap();
        }
        assert!(alloc.is_idle());
    }

    #[test]
    fn partial_gang_member_shares_respect_memory() {
        let b = batch(PlatformId::Local); // 2 nodes
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        let node_mem = alloc.node_spec().mem_gib;
        // One node keeps cores free but almost no memory: a memory-hungry gang share
        // must not best-fit onto it.
        let hog = alloc
            .allocate_slot(&cores(1).with_mem_gib(node_mem - 1.0))
            .unwrap();
        assert_eq!(
            alloc
                .allocate_slot(&cores(1).with_mem_gib(node_mem / 2.0).with_nodes(2))
                .unwrap_err(),
            ResourceError::InsufficientResources,
            "only one node can cover the per-member memory share"
        );
        alloc.release_slot(&hog).unwrap();
        let gang = alloc
            .allocate_slot(&cores(1).with_mem_gib(node_mem / 2.0).with_nodes(2))
            .unwrap();
        assert_eq!(gang.num_nodes(), 2);
        alloc.release_slot(&gang).unwrap();
        assert!(alloc.is_idle());
    }

    #[test]
    fn gang_wider_than_allocation_is_insufficient_until_it_grows() {
        // Width against the *current* node set is a capacity condition, not a
        // shape error — an elastic allocation can expand into the request.
        let b = batch(PlatformId::Local);
        let alloc = b.submit(AllocationRequest::nodes(1)).unwrap();
        let err = alloc.allocate_slot(&cores(1).with_nodes(2)).unwrap_err();
        assert!(matches!(err, ResourceError::InsufficientResources));
        alloc.expand(1).unwrap();
        let gang = alloc.allocate_slot(&cores(1).with_nodes(2)).unwrap();
        assert_eq!(gang.num_nodes(), 2);
        alloc.release_slot(&gang).unwrap();
    }

    #[test]
    fn gang_leftover_capacity_remains_placeable() {
        let b = batch(PlatformId::Local); // 2 nodes x (8 cores, 2 gpus)
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        // A 2-node gang taking 4 cores per node leaves 4 cores per node for others.
        let gang = alloc.allocate_slot(&cores(4).with_nodes(2)).unwrap();
        assert_eq!(alloc.idle_nodes(), 0);
        let extra = alloc.allocate_slot(&cores(4)).unwrap();
        assert!(gang.node_indices().any(|n| n == extra.node_index()));
        // Releasing the gang does not idle the co-tenanted node.
        alloc.release_slot(&gang).unwrap();
        assert_eq!(alloc.idle_nodes(), 1);
        alloc.release_slot(&extra).unwrap();
        assert!(alloc.is_idle());
    }

    #[test]
    fn drain_pins_idle_nodes_and_excludes_them_from_placement() {
        let b = batch(PlatformId::Local); // 2 nodes x (8 cores, 2 gpus)
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        let gang_req = cores(8).with_nodes(2);
        let id = alloc.begin_drain(&gang_req).unwrap();
        // Both idle nodes are pinned immediately and invisible to other requests.
        assert_eq!(alloc.reserved_nodes(), 2);
        assert_eq!(
            alloc.drain_status(),
            Some(DrainStatus {
                pinned_idle: 2,
                pinned_partial: 0,
                target: 2
            })
        );
        assert_eq!(
            alloc.allocate_slot(&cores(1)).unwrap_err(),
            ResourceError::InsufficientResources
        );
        assert_eq!(
            alloc.allocate_slot(&cores(1).with_nodes(2)).unwrap_err(),
            ResourceError::InsufficientResources
        );
        // Yet the nodes are still physically idle.
        assert_eq!(alloc.idle_nodes(), 2);
        // The reservation is complete, so the draining gang places atomically.
        let gang = alloc.allocate_reserved(id, &gang_req).unwrap();
        assert_eq!(gang.num_nodes(), 2);
        assert!(
            alloc.drain_status().is_none(),
            "placement consumes the drain"
        );
        alloc.release_slot(&gang).unwrap();
        assert_eq!(alloc.idle_nodes(), 2);
        assert!(alloc.allocate_slot(&cores(1)).is_ok());
    }

    #[test]
    fn drain_accumulates_newly_idle_nodes_via_release() {
        let b = batch(PlatformId::Local); // 2 nodes
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        let hold_a = alloc.allocate_slot(&cores(8)).unwrap();
        let hold_b = alloc.allocate_slot(&cores(8)).unwrap();
        let gang_req = cores(8).with_nodes(2);
        let id = alloc.begin_drain(&gang_req).unwrap();
        assert_eq!(alloc.reserved_nodes(), 0, "nothing idle to pin yet");
        assert_eq!(
            alloc.allocate_reserved(id, &gang_req).unwrap_err(),
            ResourceError::InsufficientResources
        );
        alloc.release_slot(&hold_a).unwrap();
        assert_eq!(
            alloc.reserved_nodes(),
            1,
            "freed node pinned, not re-placeable"
        );
        assert_eq!(
            alloc.allocate_slot(&cores(1)).unwrap_err(),
            ResourceError::InsufficientResources
        );
        alloc.release_slot(&hold_b).unwrap();
        assert_eq!(alloc.reserved_nodes(), 2);
        let gang = alloc.allocate_reserved(id, &gang_req).unwrap();
        assert_eq!(gang.num_nodes(), 2);
        assert_eq!(gang.num_cores(), 16);
        alloc.release_slot(&gang).unwrap();
        assert!(alloc.is_idle());
    }

    #[test]
    fn drain_pins_at_most_target_and_backfill_continues_around_it() {
        let b = batch(PlatformId::Delta); // 64 cores per node
        let alloc = b.submit(AllocationRequest::nodes(4)).unwrap();
        let gang_req = cores(64).with_nodes(2);
        let id = alloc.begin_drain(&gang_req).unwrap();
        // Only 2 of the 4 idle nodes are pinned; the rest stay placeable.
        assert_eq!(alloc.reserved_nodes(), 2);
        let around_a = alloc.allocate_slot(&cores(64)).unwrap();
        let around_b = alloc.allocate_slot(&cores(64)).unwrap();
        assert_eq!(
            alloc.allocate_slot(&cores(1)).unwrap_err(),
            ResourceError::InsufficientResources,
            "non-reserved capacity exhausted; pinned nodes must stay invisible"
        );
        // Releasing backfill slots must NOT grow the already-complete reservation.
        alloc.release_slot(&around_a).unwrap();
        assert_eq!(alloc.reserved_nodes(), 2);
        assert!(
            alloc.allocate_slot(&cores(1)).is_ok(),
            "freed node placeable"
        );
        let gang = alloc.allocate_reserved(id, &gang_req).unwrap();
        assert_eq!(gang.num_nodes(), 2);
        alloc.release_slot(&gang).unwrap();
        alloc.release_slot(&around_b).unwrap();
    }

    #[test]
    fn cancel_drain_returns_pinned_nodes_to_the_idle_bucket() {
        let b = batch(PlatformId::Local);
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        let gang_req = cores(4).with_nodes(2);
        let id = alloc.begin_drain(&gang_req).unwrap();
        assert_eq!(alloc.reserved_nodes(), 2);
        assert_eq!(alloc.cancel_drain(id).unwrap(), 2);
        assert!(alloc.drain_status().is_none());
        // The nodes are back in the idle bucket: a whole-allocation gang fits again.
        let gang = alloc.allocate_slot(&cores(8).with_nodes(2)).unwrap();
        assert_eq!(gang.num_nodes(), 2);
        alloc.release_slot(&gang).unwrap();
        // Stale ids are rejected everywhere.
        assert_eq!(
            alloc.cancel_drain(id).unwrap_err(),
            ResourceError::UnknownDrain(id)
        );
        assert_eq!(
            alloc.allocate_reserved(id, &gang_req).unwrap_err(),
            ResourceError::UnknownDrain(id)
        );
    }

    #[test]
    fn partial_drain_pins_covering_nodes_while_still_occupied() {
        let b = batch(PlatformId::Delta); // 4 nodes x 64 cores
        let alloc = b.submit(AllocationRequest::nodes(4)).unwrap();
        // Every node keeps a 24-core resident slot for the whole test, so no node is
        // ever fully idle; on top, a second 24-core slot per node eats the headroom
        // a 32-core member share would need (64 - 48 = 16 free). Allocated in
        // resident/churn pairs: once a node carries both, its 16-core leftover cannot
        // host the next pair's resident, so each pair lands on a fresh node.
        let mut residents = Vec::new();
        let mut churn = Vec::new();
        for _ in 0..4 {
            residents.push(alloc.allocate_slot(&cores(24)).unwrap());
            churn.push(alloc.allocate_slot(&cores(24)).unwrap());
        }
        for (r, c) in residents.iter().zip(&churn) {
            assert_eq!(r.node_index(), c.node_index(), "pairs share a node");
        }
        let gang_req = cores(32).with_nodes(4); // Partial by default
        assert_eq!(
            alloc.allocate_slot(&gang_req).unwrap_err(),
            ResourceError::InsufficientResources
        );
        let id = alloc.begin_drain(&gang_req).unwrap();
        assert_eq!(alloc.reserved_nodes(), 0, "no node covers a share yet");
        // Each churn release frees a node to 40 cores ≥ the 32-core share: pinned
        // immediately — while its resident slot keeps running (pinned-partial).
        for (i, slot) in churn.iter().enumerate() {
            alloc.release_slot(slot).unwrap();
            let status = alloc.drain_status().unwrap();
            assert_eq!(status.pinned(), i + 1);
            assert_eq!(status.pinned_partial, i + 1, "pins are still occupied");
            assert_eq!(status.pinned_idle, 0);
            assert_eq!(alloc.idle_nodes(), 0, "no node ever went idle");
        }
        assert!(alloc.drain_status().unwrap().complete());
        // Other requests cannot see the pinned capacity…
        assert_eq!(
            alloc.allocate_slot(&cores(1)).unwrap_err(),
            ResourceError::InsufficientResources
        );
        // …and the gang places beside the resident slots, consuming the drain.
        let gang = alloc.allocate_reserved(id, &gang_req).unwrap();
        assert_eq!(gang.num_nodes(), 4);
        assert_eq!(gang.partial_nodes(), 4, "every member is co-resident");
        assert!(alloc.drain_status().is_none());
        assert_eq!(alloc.free_cores(), 4 * 64 - 4 * 24 - 4 * 32);
        alloc.release_slot(&gang).unwrap();
        for slot in &residents {
            alloc.release_slot(slot).unwrap();
        }
        assert!(alloc.is_idle());
    }

    #[test]
    fn whole_drain_ignores_partially_free_nodes() {
        let b = batch(PlatformId::Delta); // 4 nodes x 64 cores
        let alloc = b.submit(AllocationRequest::nodes(4)).unwrap();
        // 34-core residents spread one per node (the 30-core leftover cannot host
        // another), keeping every node busy with 30 cores of headroom.
        let residents: Vec<_> = (0..4)
            .map(|_| alloc.allocate_slot(&cores(34)).unwrap())
            .collect();
        let gang_req = cores(30).with_nodes(4).with_packing(GangPacking::Whole);
        let id = alloc.begin_drain(&gang_req).unwrap();
        // Plenty of per-node headroom (30 cores ≥ the 30-core share), but Whole
        // packing pins only fully idle nodes — and none ever idles.
        assert_eq!(alloc.reserved_nodes(), 0);
        let churn = alloc.allocate_slot(&cores(24)).unwrap();
        alloc.release_slot(&churn).unwrap();
        assert_eq!(
            alloc.reserved_nodes(),
            0,
            "a release that does not idle the node must not pin it under Whole"
        );
        // Only a release that leaves the node fully idle pins it.
        alloc.release_slot(&residents[0]).unwrap();
        let status = alloc.drain_status().unwrap();
        assert_eq!((status.pinned_idle, status.pinned_partial), (1, 0));
        alloc.cancel_drain(id).unwrap();
        for slot in &residents[1..] {
            alloc.release_slot(slot).unwrap();
        }
        assert!(alloc.is_idle());
    }

    #[test]
    fn cancelled_partial_drain_restores_headroom_classes() {
        let b = batch(PlatformId::Local); // 2 nodes x 8 cores
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        let resident = alloc.allocate_slot(&cores(4)).unwrap();
        let gang_req = cores(4).with_nodes(2);
        let id = alloc.begin_drain(&gang_req).unwrap();
        // Both nodes cover a 4-core share (one partially, one idle) → both pinned.
        let status = alloc.drain_status().unwrap();
        assert_eq!((status.pinned_idle, status.pinned_partial), (1, 1));
        assert_eq!(alloc.cancel_drain(id).unwrap(), 2);
        // The partially occupied node returns to its reduced class, not the idle
        // bucket: a whole-node request must land on the untouched node…
        let whole = alloc.allocate_slot(&cores(8)).unwrap();
        assert_ne!(whole.node_index(), resident.node_index());
        // …and a small one best-fits back onto the co-tenanted node.
        let small = alloc.allocate_slot(&cores(2)).unwrap();
        assert_eq!(small.node_index(), resident.node_index());
        for slot in [&whole, &small, &resident] {
            alloc.release_slot(slot).unwrap();
        }
        assert!(alloc.is_idle());
    }

    #[test]
    fn only_one_drain_at_a_time() {
        let b = batch(PlatformId::Local);
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        let gang_req = cores(4).with_nodes(2);
        let id = alloc.begin_drain(&gang_req).unwrap();
        assert_eq!(
            alloc.begin_drain(&gang_req).unwrap_err(),
            ResourceError::DrainActive
        );
        alloc.cancel_drain(id).unwrap();
        let id2 = alloc.begin_drain(&gang_req).unwrap();
        assert_ne!(id, id2, "drain ids are never reused");
        alloc.cancel_drain(id2).unwrap();
    }

    #[test]
    fn allocate_reserved_rejects_mismatched_span() {
        let b = batch(PlatformId::Local);
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        let id = alloc.begin_drain(&cores(4).with_nodes(2)).unwrap();
        let err = alloc.allocate_reserved(id, &cores(4)).unwrap_err();
        assert!(matches!(err, ResourceError::NeverSatisfiable { .. }));
        assert_eq!(
            alloc.reserved_nodes(),
            2,
            "failed claim leaves the drain intact"
        );
        alloc.cancel_drain(id).unwrap();
    }

    #[test]
    fn whole_share_gang_takes_distinct_nodes_in_rank_order() {
        let b = batch(PlatformId::Delta);
        let alloc = b.submit(AllocationRequest::nodes(6)).unwrap();
        // A 5-node whole-share gang, straight off the idle bucket.
        let spec = alloc.node_spec();
        let gang = alloc
            .allocate_slot(
                &ResourceRequest {
                    cores: spec.cores,
                    gpus: spec.gpus,
                    mem_gib: 0.0,
                    nodes: 5,
                    packing: None,
                }
                .with_packing(GangPacking::Whole),
            )
            .unwrap();
        let indices: Vec<usize> = gang.node_indices().collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, indices, "members must be in rank order");
        assert_eq!(sorted.len(), 5, "members must be distinct nodes");
        alloc.release_slot(&gang).unwrap();
        assert!(alloc.is_idle());
        assert_eq!(alloc.idle_nodes(), 6);
    }

    #[test]
    fn drain_pins_every_freed_node_and_places_reserved() {
        let b = batch(PlatformId::Delta);
        let alloc = b.submit(AllocationRequest::nodes(4)).unwrap();
        // Occupy every node so nothing can be pinned up front.
        let holds: Vec<_> = (0..4)
            .map(|_| alloc.allocate_slot(&cores(64)).unwrap())
            .collect();
        let gang_req = cores(64).with_nodes(4);
        let id = alloc.begin_drain(&gang_req).unwrap();
        assert_eq!(alloc.reserved_nodes(), 0);
        // Each release pins its node to the drain before any other placement can
        // see it.
        for (i, hold) in holds.iter().enumerate() {
            alloc.release_slot(hold).unwrap();
            assert_eq!(alloc.reserved_nodes(), i + 1, "release must pin its node");
            assert_eq!(
                alloc.allocate_slot(&cores(1)).unwrap_err(),
                ResourceError::InsufficientResources,
                "pinned capacity stays invisible"
            );
        }
        let status = alloc.drain_status().unwrap();
        assert!(status.complete());
        assert_eq!(status.pinned_idle, 4);
        let gang = alloc.allocate_reserved(id, &gang_req).unwrap();
        assert_eq!(gang.num_nodes(), 4);
        alloc.release_slot(&gang).unwrap();
        assert!(alloc.is_idle());
    }

    #[test]
    fn cancel_drain_restores_every_pinned_node() {
        let b = batch(PlatformId::Delta);
        let alloc = b.submit(AllocationRequest::nodes(4)).unwrap();
        let gang_req = cores(32).with_nodes(4);
        let id = alloc.begin_drain(&gang_req).unwrap();
        assert_eq!(alloc.reserved_nodes(), 4);
        assert_eq!(alloc.cancel_drain(id).unwrap(), 4);
        // All four nodes placeable again.
        let gang = alloc.allocate_slot(&cores(64).with_nodes(4)).unwrap();
        assert_eq!(gang.num_nodes(), 4);
        alloc.release_slot(&gang).unwrap();
        assert!(alloc.is_idle());
    }

    #[test]
    fn allocation_request_builder() {
        let r = AllocationRequest::nodes(3)
            .with_walltime_secs(120.0)
            .with_queue_wait(true);
        assert_eq!(r.nodes, 3);
        assert_eq!(r.walltime_secs, 120.0);
        assert!(r.model_queue_wait);
    }

    #[test]
    fn batch_error_display() {
        assert!(BatchError::Busy.to_string().contains("allocated"));
        assert!(BatchError::EmptyRequest
            .to_string()
            .contains("at least one"));
        assert!(BatchError::TooLarge {
            requested: 5,
            available: 2
        }
        .to_string()
        .contains('5'));
    }

    #[test]
    fn expand_appends_nodes_without_moving_existing_ones() {
        let b = batch(PlatformId::Delta); // 64 cores, 4 gpus per node
        let alloc = b.submit(AllocationRequest::nodes(6)).unwrap();
        // Occupy a node so expansion provably leaves existing occupancy alone.
        let held = alloc.allocate_slot(&gpus(1)).unwrap();
        let new_nodes = alloc.expand(3).unwrap();
        assert_eq!(new_nodes, vec![6, 7, 8]);
        assert_eq!(alloc.num_nodes(), 9);
        assert_eq!(alloc.total_cores(), 9 * 64);
        assert_eq!(alloc.free_gpus(), 9 * 4 - 1);
        assert_eq!(alloc.idle_nodes(), 8);
        // New nodes are placeable: a 9-node whole-allocation gang now fits once
        // the held slot is released.
        alloc.release_slot(&held).unwrap();
        let gang = alloc.allocate_slot(&cores(64).with_nodes(9)).unwrap();
        assert_eq!(gang.num_nodes(), 9);
        let names: Vec<String> = gang
            .members
            .iter()
            .map(|m| m.node_name.to_string())
            .collect();
        assert!(names.contains(&"delta-00008".to_string()));
        alloc.release_slot(&gang).unwrap();
        assert!(alloc.is_idle());
    }

    #[test]
    fn shrink_retires_idle_nodes_all_or_nothing() {
        let b = batch(PlatformId::Delta);
        let alloc = b.submit(AllocationRequest::nodes(4)).unwrap();
        // Occupy one unit on every node: nothing is retirable.
        let gang = alloc.allocate_slot(&cores(1).with_nodes(4)).unwrap();
        assert_eq!(
            alloc.shrink(1).unwrap_err(),
            ResourceError::InsufficientResources
        );
        assert_eq!(alloc.num_nodes(), 4, "failed shrink must mutate nothing");
        alloc.release_slot(&gang).unwrap();
        let retired = alloc.shrink(2).unwrap();
        assert_eq!(retired.len(), 2);
        assert_eq!(alloc.num_nodes(), 2);
        assert_eq!(alloc.free_cores(), 2 * 64);
        assert_eq!(alloc.idle_nodes(), 2);
        for &g in &retired {
            assert_eq!(alloc.node_health(g), Some(NodeHealth::Retired));
        }
        // Retired nodes never host placements again: a 3-node gang reports
        // insufficient capacity (placeable again only if the pilot regrows).
        assert!(matches!(
            alloc.allocate_slot(&cores(1).with_nodes(3)),
            Err(ResourceError::InsufficientResources)
        ));
    }

    #[test]
    fn shrink_with_active_drain_is_rejected() {
        let b = batch(PlatformId::Delta);
        let alloc = b.submit(AllocationRequest::nodes(4)).unwrap();
        let id = alloc.begin_drain(&cores(64).with_nodes(2)).unwrap();
        assert_eq!(alloc.shrink(1).unwrap_err(), ResourceError::DrainActive);
        alloc.cancel_drain(id).unwrap();
        assert_eq!(alloc.shrink(1).unwrap().len(), 1);
    }

    #[test]
    fn fail_node_evicts_co_residents_and_writes_off_capacity() {
        let b = batch(PlatformId::Delta);
        let alloc = b.submit(AllocationRequest::nodes(4)).unwrap();
        // A 4-node gang plus a single-node slot: failing one node must evict the
        // gang and the co-resident single if it shares the node.
        let gang = alloc.allocate_slot(&cores(2).with_nodes(4)).unwrap();
        let single = alloc.allocate_slot(&cores(1)).unwrap();
        let shared = single.node_index();
        let victims = alloc.fail_node(shared).unwrap();
        assert!(victims.contains(&gang.id));
        assert!(victims.contains(&single.id));
        assert_eq!(alloc.num_nodes(), 3);
        assert_eq!(alloc.failed_nodes(), 1);
        assert_eq!(alloc.attached_nodes(), 4);
        assert_eq!(alloc.node_health(shared), Some(NodeHealth::Failed));
        // Healthy co-resident capacity was reclaimed; the failed node's is gone.
        assert_eq!(alloc.free_cores(), 3 * 64);
        assert_eq!(alloc.free_gpus(), 3 * 4);
        assert_eq!(alloc.idle_nodes(), 3);
        assert!(alloc.is_idle());
        // Victim slots are flagged until their owners observe the eviction.
        assert!(alloc.slot_evicted(gang.id));
        assert_eq!(
            alloc.release_slot(&gang).unwrap_err(),
            ResourceError::NodeFailed(shared)
        );
        assert!(!alloc.slot_evicted(gang.id), "reported exactly once");
        // A second release of the same victim is a plain double release.
        assert_eq!(
            alloc.release_slot(&gang).unwrap_err(),
            ResourceError::UnknownSlot(gang.id)
        );
        assert_eq!(
            alloc.release_slot(&single).unwrap_err(),
            ResourceError::NodeFailed(shared)
        );
        // The failed node never hosts again: fill the remaining three nodes and
        // check every member landed elsewhere.
        let refill = alloc.allocate_slot(&cores(64).with_nodes(3)).unwrap();
        assert!(refill.members.iter().all(|m| m.node_index != shared));
        alloc.release_slot(&refill).unwrap();
    }

    #[test]
    fn fail_node_is_idempotent_and_bounds_checked() {
        let b = batch(PlatformId::Delta);
        let alloc = b.submit(AllocationRequest::nodes(2)).unwrap();
        assert_eq!(
            alloc.fail_node(99).unwrap_err(),
            ResourceError::UnknownNode(99)
        );
        assert_eq!(alloc.fail_node(1).unwrap(), Vec::<u64>::new());
        assert_eq!(alloc.fail_node(1).unwrap(), Vec::<u64>::new());
        assert_eq!(alloc.num_nodes(), 1);
        assert_eq!(alloc.failed_nodes(), 1);
    }

    #[test]
    fn shrink_retires_failed_nodes_first_and_expand_restores() {
        let b = batch(PlatformId::Delta);
        let alloc = b.submit(AllocationRequest::nodes(5)).unwrap();
        alloc.fail_node(2).unwrap();
        // Shrinking by one retires the failed node, costing no healthy capacity.
        let retired = alloc.shrink(1).unwrap();
        assert_eq!(retired, vec![2]);
        assert_eq!(alloc.num_nodes(), 4);
        assert_eq!(alloc.failed_nodes(), 0);
        assert_eq!(alloc.free_cores(), 4 * 64);
        // Expanding back mints a fresh node (the dead index is never reused).
        let added = alloc.expand(1).unwrap();
        assert_eq!(added, vec![5]);
        assert_eq!(alloc.num_nodes(), 5);
        assert_eq!(alloc.free_cores(), 5 * 64);
        assert_eq!(alloc.idle_nodes(), 5);
        assert_eq!(alloc.node_health(2), Some(NodeHealth::Retired));
    }

    #[test]
    fn fail_node_unpins_from_active_drain_and_new_capacity_repins() {
        let b = batch(PlatformId::Delta);
        let alloc = b.submit(AllocationRequest::nodes(3)).unwrap();
        // Whole-packing drain pins all three idle nodes.
        let req = cores(64).with_nodes(3).with_packing(GangPacking::Whole);
        let id = alloc.begin_drain(&req).unwrap();
        assert_eq!(alloc.reserved_nodes(), 3);
        assert_eq!(alloc.node_health(0), Some(NodeHealth::Draining));
        // Failing a pinned node shrinks the reservation.
        alloc.fail_node(1).unwrap();
        assert_eq!(alloc.reserved_nodes(), 2);
        let status = alloc.drain_status().unwrap();
        assert_eq!(status.pinned(), 2);
        assert!(!status.complete());
        // Expansion hands the fresh node straight to the short reservation.
        alloc.expand(1).unwrap();
        assert_eq!(alloc.reserved_nodes(), 3);
        assert!(alloc.drain_status().unwrap().complete());
        let gang = alloc.allocate_reserved(id, &req).unwrap();
        assert_eq!(gang.num_nodes(), 3);
        assert!(gang.members.iter().all(|m| m.node_index != 1));
        alloc.release_slot(&gang).unwrap();
        assert!(alloc.is_idle());
    }

    #[test]
    fn batch_grow_and_shed_track_the_free_pool() {
        let b = batch(PlatformId::Local); // 2 nodes total
        let alloc = b.submit(AllocationRequest::nodes(1)).unwrap();
        assert_eq!(b.nodes_in_use(), 1);
        b.grow(1).unwrap();
        assert_eq!(b.nodes_in_use(), 2);
        assert_eq!(b.grow(1).unwrap_err(), BatchError::Busy);
        assert!(matches!(
            b.grow(50).unwrap_err(),
            BatchError::TooLarge { .. }
        ));
        b.shed(1);
        assert_eq!(b.nodes_in_use(), 1);
        b.release(&alloc);
        assert_eq!(b.nodes_in_use(), 0);
    }
}
