//! E19's mixed churn model as an endless, always-valid event stream.
//!
//! The generator mirrors the membership state it has emitted (active
//! nodes, present edges), so every batch validates against an engine
//! that applied all earlier batches in order — which a single closed-loop
//! writer guarantees. Mix: 35 % leaves, 35 % rejoins, 10 % edge removals,
//! 10 % edge re-additions, 5 % quota changes, 5 % preference updates.

use owp_engine::EngineEvent;
use owp_graph::{EdgeId, Graph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Stateful mixed-churn source over one universe graph.
pub struct MixedChurn {
    rng: StdRng,
    active: Vec<bool>,
    inactive: Vec<NodeId>,
    present: Vec<bool>,
    absent: Vec<EdgeId>,
    endpoints: Vec<(NodeId, NodeId)>,
    neighbourhoods: Vec<Vec<NodeId>>,
}

impl MixedChurn {
    /// A generator for a freshly started universe (everything active and
    /// present).
    pub fn new(g: &Graph, seed: u64) -> MixedChurn {
        MixedChurn {
            rng: StdRng::seed_from_u64(seed),
            active: vec![true; g.node_count()],
            inactive: Vec::new(),
            present: vec![true; g.edge_count()],
            absent: Vec::new(),
            endpoints: g.edges().map(|e| g.endpoints(e)).collect(),
            neighbourhoods: g.nodes().map(|i| g.neighbor_ids(i).collect()).collect(),
        }
    }

    /// The next `len` events.
    pub fn batch(&mut self, len: usize) -> Vec<EngineEvent> {
        (0..len).map(|_| self.next_event()).collect()
    }

    fn next_event(&mut self) -> EngineEvent {
        let n = self.active.len() as u32;
        let m = self.present.len() as u32;
        loop {
            match self.rng.gen_range(0u32..100) {
                0..=34 => {
                    let i = NodeId(self.rng.gen_range(0..n));
                    if self.active[i.index()] {
                        self.active[i.index()] = false;
                        self.inactive.push(i);
                        return EngineEvent::NodeLeave { node: i };
                    }
                }
                35..=69 if !self.inactive.is_empty() => {
                    let k = self.rng.gen_range(0..self.inactive.len());
                    let i = self.inactive.swap_remove(k);
                    self.active[i.index()] = true;
                    return EngineEvent::NodeJoin { node: i };
                }
                70..=79 => {
                    let e = EdgeId(self.rng.gen_range(0..m));
                    if self.present[e.index()] {
                        self.present[e.index()] = false;
                        self.absent.push(e);
                        let (u, v) = self.endpoints[e.index()];
                        return EngineEvent::EdgeRemove { u, v };
                    }
                }
                80..=89 if !self.absent.is_empty() => {
                    let k = self.rng.gen_range(0..self.absent.len());
                    let e = self.absent.swap_remove(k);
                    self.present[e.index()] = true;
                    let (u, v) = self.endpoints[e.index()];
                    return EngineEvent::EdgeAdd { u, v };
                }
                90..=94 => {
                    let node = NodeId(self.rng.gen_range(0..n));
                    let quota = self.rng.gen_range(1u32..=6);
                    return EngineEvent::QuotaChange { node, quota };
                }
                95..=99 => {
                    let i = self.rng.gen_range(0..n) as usize;
                    let mut list = self.neighbourhoods[i].clone();
                    list.shuffle(&mut self.rng);
                    return EngineEvent::PreferenceUpdate {
                        node: NodeId(i as u32),
                        list,
                    };
                }
                _ => {}
            }
        }
    }
}
