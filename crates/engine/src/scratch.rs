//! Reusable repair arenas — the steady-state zero-allocation pass.
//!
//! Before this module the engine allocated fresh dirty sets, heap
//! frontiers, scratch validation flags and delta buffers on **every**
//! batch; profiled at n=10⁶ the allocator traffic dominated the repair
//! cost. All of that state now lives in one arena owned by the
//! [`crate::Engine`], indexed by global edge and node ids, and is
//! *cleared*, never dropped:
//!
//! * repair state — the selected/queued bitmaps, the rank-ordered heap
//!   frontier, the event seed list and the structure-of-arrays
//!   selected-edge mirror ([`FixedCsr`], u32 edge ids);
//! * the flip journal — per-edge net delta state plus the list of edges
//!   that flipped, compacted into the batch's `DeltaReport`;
//! * touched-node tracking, the batch-validation toggles and the
//!   batch's rerank list.
//!
//! Clearing discipline: bitmaps are cleared through the companion lists
//! that recorded which bits were set (O(touched), not O(n)), the heap
//! drains itself to empty by the end of every batch, and `Vec`s are
//! `clear()`ed so their capacity survives. After warm-up a batch of
//! structural events (join/leave, edge add/remove) touches the allocator
//! zero times — asserted by `crates/engine/tests/zero_alloc.rs` with a
//! counting global allocator. Weight-changing events (`QuotaChange`,
//! `PreferenceUpdate`) still allocate inside the rank-kernel splice and
//! are outside the zero-allocation contract (DESIGN.md §11).

use owp_graph::{EdgeId, Graph, NodeId};
use owp_matching::{EdgeRank, FixedCsr};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-heap entry: `(rank, edge id)` behind [`Reverse`], so the globally
/// heaviest (lowest-rank) edge pops first. Plain `u32` pairs keep the
/// heap's backing array compact (8 bytes per entry) on the hot path.
pub(crate) type Frontier = BinaryHeap<Reverse<(EdgeRank, u32)>>;

/// The engine's repair arena.
#[derive(Clone, Debug)]
pub(crate) struct EngineScratch {
    /// Selected bitmap by edge id — the authoritative status of every
    /// edge during repair (the public [`owp_matching::BMatching`] is
    /// written through as each flip happens).
    pub selected: Vec<bool>,
    /// In-heap bitmap by edge id: set on push, cleared on pop.
    pub queued: Vec<bool>,
    /// The rank-ordered repair frontier.
    pub heap: Frontier,
    /// Edges the batch's events perturbed; pushed onto the heap once the
    /// batch's ranks are final, deduplicated against `queued`.
    pub seeds: Vec<EdgeId>,
    /// Selected-edge mirror: row = node id, items = ids of its currently
    /// selected incident edges. The repair needs edge ids for O(1) rank
    /// lookups where [`owp_matching::BMatching`] stores matched
    /// neighbours.
    pub sel: FixedCsr,
    /// Touched bitmap by node id, cleared through `touched_nodes`.
    pub touched: Vec<bool>,
    /// Nodes whose satisfaction inputs changed this batch.
    pub touched_nodes: Vec<NodeId>,
    /// Edges whose rank keys moved this batch (folded into one splice).
    pub rerank_list: Vec<EdgeId>,
    /// Flip journal: 0 = untouched, 1 = net added, 2 = net removed, by
    /// edge id, with bit 2 marking membership in `delta_edges`; toggled
    /// per flip so an edge that flips on and back off reports no delta.
    pub delta_state: Vec<u8>,
    /// Edges that flipped this batch, each listed once (may contain edges
    /// that toggled back to 0 — compaction skips them).
    pub delta_edges: Vec<EdgeId>,
    /// Batch validation: nodes whose active flag the batch has toggled
    /// an odd number of times so far, by node id (the flag the batch
    /// sees is the stored one XOR this), cleared through `val_nodes`.
    pub val_node_toggled: Vec<bool>,
    /// Nodes set in `val_node_toggled` (may repeat).
    pub val_nodes: Vec<NodeId>,
    /// The present-flag counterpart of `val_node_toggled`, by edge id.
    pub val_edge_toggled: Vec<bool>,
    /// Edges set in `val_edge_toggled` (may repeat).
    pub val_edges: Vec<EdgeId>,
}

impl EngineScratch {
    /// Empty arenas for universe graph `g`, with the selected-edge mirror
    /// sized to the node degrees (a node can never have more selected
    /// incident edges than incident edges).
    pub fn new(g: &Graph) -> Self {
        let (n, m) = (g.node_count(), g.edge_count());
        EngineScratch {
            selected: vec![false; m],
            queued: vec![false; m],
            heap: BinaryHeap::new(),
            seeds: Vec::new(),
            sel: FixedCsr::with_capacities(g.nodes().map(|i| g.degree(i) as u32)),
            touched: vec![false; n],
            touched_nodes: Vec::new(),
            rerank_list: Vec::new(),
            delta_state: vec![0; m],
            delta_edges: Vec::new(),
            val_node_toggled: vec![false; n],
            val_nodes: Vec::new(),
            val_edge_toggled: vec![false; m],
            val_edges: Vec::new(),
        }
    }

    /// Marks node `i` touched (idempotent).
    #[inline]
    pub fn touch(&mut self, i: NodeId) {
        if !self.touched[i.index()] {
            self.touched[i.index()] = true;
            self.touched_nodes.push(i);
        }
    }

    /// Toggles node `i`'s validation flag.
    #[inline]
    pub fn toggle_node(&mut self, i: NodeId) {
        let t = &mut self.val_node_toggled[i.index()];
        *t = !*t;
        if *t {
            self.val_nodes.push(i);
        }
    }

    /// Toggles edge `e`'s validation flag.
    #[inline]
    pub fn toggle_edge(&mut self, e: EdgeId) {
        let t = &mut self.val_edge_toggled[e.index()];
        *t = !*t;
        if *t {
            self.val_edges.push(e);
        }
    }

    /// Clears every validation toggle (O(toggled), not O(n + m)).
    pub fn clear_toggles(&mut self) {
        for &i in &self.val_nodes {
            self.val_node_toggled[i.index()] = false;
        }
        self.val_nodes.clear();
        for &e in &self.val_edges {
            self.val_edge_toggled[e.index()] = false;
        }
        self.val_edges.clear();
    }

    /// Queues edge `e` at rank `r` unless it is already in the heap.
    #[inline]
    pub fn enqueue(&mut self, e: EdgeId, r: EdgeRank) {
        if !self.queued[e.index()] {
            self.queued[e.index()] = true;
            self.heap.push(Reverse((r, e.0)));
        }
    }
}
