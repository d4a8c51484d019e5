//! E19 — dynamic repair: latency and satisfaction movement of the
//! event-driven engine vs batch size, against the from-scratch baseline.
//!
//! For each batch size (a fraction of `n`), the engine absorbs batches of
//! mixed events — leaves, rejoins, edge churn, quota changes, preference
//! re-ranks — and we time the bounded repair. The baseline is what a
//! non-incremental system does after the same batch: re-sort the edge
//! order and re-run LIC on the current alive instance. Because the
//! baseline *is* the certification reference, every timed batch also
//! checks the engine's headline invariant: the repaired matching is
//! bit-identical to the from-scratch run.
//!
//! The headline table (BA topology) is the `bench_guard` schema: all
//! numeric, keyed by the batch-size column, with repair and rebuild wall
//! times guarded against `BENCH_e19.json`.

use crate::{mean, Table};
use owp_engine::{Engine, EngineEvent};
use owp_graph::{Graph, NodeId};
use owp_matching::{lic, EdgeOrder, Problem, SelectionPolicy};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use std::time::Instant;

/// Batches measured per (topology, batch size) cell.
const BATCHES: usize = 8;

/// Runs the dynamic-repair sweep. Returns the BA headline table (tracked
/// by `BENCH_e19.json` / `bench_guard`) and the ER counterpart.
pub fn run(quick: bool) -> Vec<Table> {
    run_inner(quick, None)
}

/// [`run`] with metrics: batches go through `apply_batch_traced` into a
/// [`owp_metrics::MetricsRecorder`] (batch-size and dirty-region
/// histograms, add/remove counters), repair wall times land in a
/// `engine_repair_wall_us` histogram, and an [`owp_metrics::Auditor`]
/// consumes every `DeltaReport` and re-audits the maintained matching
/// after each batch; each cell's engine publishes its flight-recorder
/// gauges at the end. The un-instrumented [`run`] stays the `bench_guard`
/// surface, so guarded wall times never include the audit cost.
pub fn run_with_metrics(quick: bool, reg: &owp_metrics::MetricsRegistry) -> Vec<Table> {
    run_inner(quick, Some(reg))
}

fn run_inner(quick: bool, reg: Option<&owp_metrics::MetricsRegistry>) -> Vec<Table> {
    let n: usize = if quick { 5_000 } else { 20_000 };
    let pcts: &[f64] = if quick { &[0.2, 1.0] } else { &[0.1, 0.5, 1.0] };

    let mut rng = StdRng::seed_from_u64(0xE19);
    let ba = owp_graph::generators::barabasi_albert(n, 5, &mut rng);
    let er = owp_graph::generators::erdos_renyi(n, 10.0 / n as f64, &mut rng);

    vec![
        sweep("ba(m=5)", ba, n, pcts, 1, reg),
        sweep("er(avg deg 10)", er, n, pcts, 2, reg),
    ]
}

fn sweep(
    topology: &str,
    g: Graph,
    n: usize,
    pcts: &[f64],
    seed: u64,
    reg: Option<&owp_metrics::MetricsRegistry>,
) -> Table {
    let m = g.edge_count();
    let mut t = Table::new(
        format!(
            "E19 — dynamic repair vs batch size on {topology}, n={n}, m={m}, b=4 \
             (means over {BATCHES} batches)"
        ),
        &[
            "batch %",
            "events",
            "repair ms",
            "rebuild ms",
            "speedup",
            "dirty edges",
            "dSigmaS",
        ],
    );

    for &pct in pcts {
        // One auditor per engine lifetime: epochs restart at 1 for every
        // batch-size cell, so monotonicity must be tracked per engine. The
        // registry handles are shared families, so counts still aggregate.
        let mut instruments = reg.map(|r| {
            (
                owp_metrics::MetricsRecorder::new(r),
                owp_metrics::Auditor::new(r),
                r.histogram("engine_repair_wall_us"),
            )
        });
        let p = Problem::random_over(g.clone(), 4, seed);
        let mut engine = Engine::new(p);
        let mut gen = EventGen::new(&g, seed * 1000 + (pct * 10.0) as u64);
        let events_per_batch = ((n as f64 * pct / 100.0) as usize).max(1);

        let mut repair_ms = Vec::with_capacity(BATCHES);
        let mut rebuild_ms = Vec::with_capacity(BATCHES);
        let mut dirty = Vec::with_capacity(BATCHES);
        let mut dsat = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let batch = gen.batch(events_per_batch);

            let t0 = Instant::now();
            let report = match instruments.as_mut() {
                None => engine.apply_batch(&batch).expect("generated batches are valid"),
                Some((rec, _, _)) => engine
                    .apply_batch_traced(&batch, rec)
                    .expect("generated batches are valid"),
            };
            repair_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if let Some((_, auditor, wall)) = instruments.as_mut() {
                wall.observe((repair_ms.last().unwrap() * 1e3) as u64);
                auditor.observe_delta(&report);
                auditor.audit_engine(&engine);
            }
            dirty.push(report.evaluated as f64);
            dsat.push(report.delta_satisfaction);

            // From-scratch baseline on the same post-batch instance:
            // re-sort the edge order and re-run LIC (snapshot assembly is
            // not charged to the baseline). Doubles as certification.
            let (snap, map) = engine.dynamic().snapshot_with_map();
            let t1 = Instant::now();
            let order = EdgeOrder::compute(&snap.graph, &snap.weights);
            let reference = lic(&snap, SelectionPolicy::InOrder);
            rebuild_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            assert_eq!(order, snap.order);
            assert_eq!(reference.size(), engine.matching().size());
            for (k, &ue) in map.iter().enumerate() {
                assert_eq!(
                    reference.contains(owp_graph::EdgeId(k as u32)),
                    engine.matching().contains(ue),
                    "{topology} batch {pct}%: certified repair violated at {ue:?}"
                );
            }
        }

        if let Some(r) = reg {
            owp_metrics::publish_recorder_gauges(r, &engine);
        }
        let speedup = mean(&rebuild_ms) / mean(&repair_ms).max(f64::MIN_POSITIVE);
        t.row(vec![
            format!("{pct}"),
            events_per_batch.to_string(),
            format!("{:.3}", mean(&repair_ms)),
            format!("{:.3}", mean(&rebuild_ms)),
            format!("{:.1}", speedup),
            format!("{:.0}", mean(&dirty)),
            format!("{:.3}", mean(&dsat)),
        ]);
    }
    t.note(
        "every batch is certified: the repaired matching is bit-identical to the \
         from-scratch LIC run it is timed against",
    );
    t
}

/// Generates valid mixed event batches against a mirror of the engine's
/// membership state (so batches validate even mid-sequence). Shared with
/// E22, which replays the same churn model through recording engines.
pub(crate) struct EventGen {
    rng: StdRng,
    active: Vec<bool>,
    inactive: Vec<NodeId>,
    present: Vec<bool>,
    absent: Vec<owp_graph::EdgeId>,
    endpoints: Vec<(NodeId, NodeId)>,
    neighbourhoods: Vec<Vec<NodeId>>,
}

impl EventGen {
    pub(crate) fn new(g: &Graph, seed: u64) -> Self {
        EventGen {
            rng: StdRng::seed_from_u64(seed),
            active: vec![true; g.node_count()],
            inactive: Vec::new(),
            present: vec![true; g.edge_count()],
            absent: Vec::new(),
            endpoints: g.edges().map(|e| g.endpoints(e)).collect(),
            neighbourhoods: g.nodes().map(|i| g.neighbor_ids(i).collect()).collect(),
        }
    }

    pub(crate) fn batch(&mut self, len: usize) -> Vec<EngineEvent> {
        (0..len).map(|_| self.next_event()).collect()
    }

    fn next_event(&mut self) -> EngineEvent {
        let n = self.active.len() as u32;
        let m = self.present.len() as u32;
        loop {
            match self.rng.gen_range(0u32..100) {
                // Leaves and rejoins dominate — the paper's churn model.
                0..=34 => {
                    let i = NodeId(self.rng.gen_range(0..n));
                    if self.active[i.index()] {
                        self.active[i.index()] = false;
                        self.inactive.push(i);
                        return EngineEvent::NodeLeave { node: i };
                    }
                }
                35..=69 => {
                    if let Some(k) = (!self.inactive.is_empty())
                        .then(|| self.rng.gen_range(0..self.inactive.len()))
                    {
                        let i = self.inactive.swap_remove(k);
                        self.active[i.index()] = true;
                        return EngineEvent::NodeJoin { node: i };
                    }
                }
                70..=79 => {
                    let e = owp_graph::EdgeId(self.rng.gen_range(0..m));
                    if self.present[e.index()] {
                        self.present[e.index()] = false;
                        self.absent.push(e);
                        let (u, v) = self.endpoints[e.index()];
                        return EngineEvent::EdgeRemove { u, v };
                    }
                }
                80..=89 => {
                    if let Some(k) = (!self.absent.is_empty())
                        .then(|| self.rng.gen_range(0..self.absent.len()))
                    {
                        let e = self.absent.swap_remove(k);
                        self.present[e.index()] = true;
                        let (u, v) = self.endpoints[e.index()];
                        return EngineEvent::EdgeAdd { u, v };
                    }
                }
                90..=94 => {
                    let i = self.rng.gen_range(0..n);
                    let quota = self.rng.gen_range(1u32..=6);
                    return EngineEvent::QuotaChange { node: NodeId(i), quota };
                }
                _ => {
                    let i = self.rng.gen_range(0..n) as usize;
                    let mut list = self.neighbourhoods[i].clone();
                    list.shuffle(&mut self.rng);
                    return EngineEvent::PreferenceUpdate { node: NodeId(i as u32), list };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn metrics_variant_audits_every_batch_clean() {
        let reg = owp_metrics::MetricsRegistry::new();
        let tables = super::run_with_metrics(true, &reg);
        assert_eq!(tables.len(), 2);
        // 2 topologies × 2 batch sizes × 8 batches, each: one delta
        // observed, one engine audit, one wall-time sample.
        let batches = 2 * 2 * super::BATCHES as u64;
        assert_eq!(reg.histogram("engine_batch_events").count(), batches);
        assert_eq!(reg.histogram("engine_repair_wall_us").count(), batches);
        assert_eq!(reg.counter("audit_checks_total").get(), 2 * batches);
        assert_eq!(reg.counter("audit_violations_total").get(), 0);
        assert!(reg.counter("engine_edges_added_total").get() > 0);
        assert!(reg.gauge("audit_engine_matching_size").get() > 0.0);
        assert!(reg.gauge(owp_metrics::RECORDER_OCCUPANCY).get() > 0.0);
    }

    #[test]
    fn quick_run_beats_rebuild_and_certifies() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 2, "BA and ER");
        for t in &tables {
            assert_eq!(t.row_count(), 2);
            for r in 0..t.row_count() {
                let repair: f64 = t.cell(r, 2).parse().unwrap();
                let rebuild: f64 = t.cell(r, 3).parse().unwrap();
                let speedup: f64 = t.cell(r, 4).parse().unwrap();
                let dirty: f64 = t.cell(r, 5).parse().unwrap();
                assert!(repair > 0.0 && rebuild > 0.0);
                assert!(
                    speedup >= 2.0,
                    "bounded repair should clearly beat a rebuild even quick: {speedup}x"
                );
                assert!(dirty > 0.0, "batches must actually perturb the matching");
            }
        }
    }
}
