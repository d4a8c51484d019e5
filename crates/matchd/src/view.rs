//! The published read view: epoch-stamped, immutable, paged
//! copy-on-write.
//!
//! Readers clone an `Arc<View>` under a short lock and never touch the
//! engine. The node rows live in fixed pages of [`PAGE_NODES`] nodes, each
//! behind its own `Arc` and holding a flat CSR of matched peers plus the
//! page's satisfactions. Publishing after a flush clones the page table
//! (one `Arc` bump per page) and rebuilds only the pages that hold a node
//! the flush touched, so a publish costs O(n / [`PAGE_NODES`] + dirty ·
//! [`PAGE_NODES`]) instead of an O(n) copy. Every untouched page is
//! shared, pointer for pointer, with the previous view.
//!
//! The touched nodes are exactly those whose satisfaction the engine
//! refreshes: the endpoints of every edge the batch added to or removed
//! from the matching, and every node a `NodeJoin`, `NodeLeave`,
//! `QuotaChange` or `PreferenceUpdate` names. Edge events move the
//! matching only through flips, which the report lists.

use owp_engine::{DeltaReport, Engine, EngineEvent};
use owp_graph::{Graph, NodeId};
use std::sync::{Arc, Mutex};

/// Nodes per view page.
pub(crate) const PAGE_NODES: usize = 256;

/// The slot the owner publishes views into and readers clone them from.
pub(crate) type SharedView = Arc<Mutex<Arc<View>>>;

/// One page of node rows: a flat CSR of matched peers and the nodes'
/// satisfactions.
#[derive(Debug)]
struct Page {
    /// Row `r`'s peers are `peers[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<u32>,
    peers: Vec<u32>,
    sat: Vec<f64>,
}

impl Page {
    /// Page `p`'s rows, read from the engine.
    fn build(engine: &Engine, p: usize) -> Page {
        let m = engine.matching();
        let n = engine.dynamic().graph().node_count();
        let nodes = (p * PAGE_NODES..((p + 1) * PAGE_NODES).min(n)).map(|i| NodeId(i as u32));
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut peers = Vec::with_capacity(nodes.clone().map(|i| m.degree(i)).sum());
        offsets.push(0);
        for i in nodes.clone() {
            peers.extend(m.connections(i).iter().map(|j| j.0));
            offsets.push(peers.len() as u32);
        }
        Page {
            offsets,
            peers,
            sat: nodes.map(|i| engine.satisfaction(i)).collect(),
        }
    }
}

/// The epoch-stamped published view: everything the read path may
/// answer, frozen at a batch boundary.
#[derive(Clone, Debug)]
pub struct View {
    /// Engine epoch this view reflects.
    pub epoch: u64,
    /// ΣS over active peers.
    pub sigma_s: f64,
    /// Active node count.
    pub active: u32,
    /// Matched edge count.
    pub matched: u32,
    pages: Vec<Arc<Page>>,
}

impl View {
    /// Builds every page from the engine. Serves the initial view, the
    /// republish after an injected fault, and as the oracle the
    /// incremental publish is tested against (so it counts active nodes
    /// by scanning rather than trusting the maintained count).
    pub(crate) fn from_engine(engine: &Engine) -> View {
        let dp = engine.dynamic();
        let g = dp.graph();
        View {
            epoch: engine.epoch().0,
            sigma_s: engine.total_satisfaction(),
            active: g.nodes().filter(|&i| dp.is_active(i)).count() as u32,
            matched: engine.matching().size() as u32,
            pages: (0..g.node_count().div_ceil(PAGE_NODES))
                .map(|p| Arc::new(Page::build(engine, p)))
                .collect(),
        }
    }

    fn row(&self, node: u32) -> Option<(&Page, usize)> {
        let i = node as usize;
        let page = self.pages.get(i / PAGE_NODES)?;
        let r = i % PAGE_NODES;
        (r < page.sat.len()).then_some((&**page, r))
    }

    /// The node's matched peers (empty for unknown ids).
    pub fn matches_of(&self, node: u32) -> &[u32] {
        match self.row(node) {
            Some((page, r)) => &page.peers[page.offsets[r] as usize..page.offsets[r + 1] as usize],
            None => &[],
        }
    }

    /// The node's satisfaction (0 for inactive or unknown ids).
    pub fn satisfaction_of(&self, node: u32) -> f64 {
        self.row(node).map_or(0.0, |(page, r)| page.sat[r])
    }

    /// `true` iff page `p` of both views is the same allocation.
    #[cfg(test)]
    pub(crate) fn shares_page(&self, other: &View, p: usize) -> bool {
        Arc::ptr_eq(&self.pages[p], &other.pages[p])
    }

    /// Number of pages.
    #[cfg(test)]
    pub(crate) fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// The owner's end of the view slot: the view it last published and the
/// pages dirtied since.
pub(crate) struct Publisher {
    slot: SharedView,
    current: Arc<View>,
    /// Pages to rebuild at the next [`Publisher::publish`].
    pub(crate) dirty: DirtyPages,
}

impl Publisher {
    /// Takes over `slot`, whose view must reflect the engine's state.
    pub(crate) fn new(slot: SharedView) -> Publisher {
        let current = Arc::clone(&slot.lock().expect("view lock"));
        let dirty = DirtyPages {
            marked: vec![false; current.pages.len()],
            list: Vec::new(),
        };
        Publisher {
            slot,
            current,
            dirty,
        }
    }

    /// Publishes the engine's state: the current view's pages, with
    /// every dirty page rebuilt from the engine.
    pub(crate) fn publish(&mut self, engine: &Engine) {
        let mut pages = self.current.pages.clone();
        for &p in &self.dirty.list {
            pages[p as usize] = Arc::new(Page::build(engine, p as usize));
        }
        self.dirty.clear();
        self.swap(View {
            epoch: engine.epoch().0,
            sigma_s: engine.total_satisfaction(),
            active: engine.dynamic().active_count() as u32,
            matched: engine.matching().size() as u32,
            pages,
        });
    }

    /// Publishes the engine's state rebuilt from scratch (after a change
    /// no batch report describes, such as an injected fault).
    pub(crate) fn rebuild(&mut self, engine: &Engine) {
        self.dirty.clear();
        self.swap(View::from_engine(engine));
    }

    fn swap(&mut self, next: View) {
        self.current = Arc::new(next);
        let old = std::mem::replace(
            &mut *self.slot.lock().expect("view lock"),
            Arc::clone(&self.current),
        );
        // Released only here, after the lock: readers never wait on the
        // old view's deallocation.
        drop(old);
    }

    /// The view last published.
    #[cfg(test)]
    pub(crate) fn current(&self) -> &Arc<View> {
        &self.current
    }
}

/// The pages holding a node that changed since the last publish, each
/// listed once.
#[derive(Debug)]
pub(crate) struct DirtyPages {
    marked: Vec<bool>,
    list: Vec<u32>,
}

impl DirtyPages {
    /// Marks the page holding node `i`.
    fn note(&mut self, i: NodeId) {
        let p = i.index() / PAGE_NODES;
        if !self.marked[p] {
            self.marked[p] = true;
            self.list.push(p as u32);
        }
    }

    /// Marks every node an applied batch touched: the endpoints of its
    /// matching flips and the nodes its membership and weight events
    /// name.
    pub(crate) fn note_batch(&mut self, g: &Graph, events: &[EngineEvent], report: &DeltaReport) {
        for &e in report.edges_added.iter().chain(&report.edges_removed) {
            let (u, v) = g.endpoints(e);
            self.note(u);
            self.note(v);
        }
        for ev in events {
            match ev {
                EngineEvent::NodeJoin { node }
                | EngineEvent::NodeLeave { node }
                | EngineEvent::QuotaChange { node, .. }
                | EngineEvent::PreferenceUpdate { node, .. } => self.note(*node),
                EngineEvent::EdgeAdd { .. } | EngineEvent::EdgeRemove { .. } => {}
            }
        }
    }

    /// Forgets every mark.
    fn clear(&mut self) {
        for &p in &self.list {
            self.marked[p as usize] = false;
        }
        self.list.clear();
    }
}
