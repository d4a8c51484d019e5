//! The static path: generate → build → LIC → asynchronous LID →
//! synchronous LID → certify, through `owp-graph`, `owp-matching`,
//! `owp-core` and `owp-simnet`. The engine and matchd are not involved.

use owp_core::{run_lid, run_lid_sync};
use owp_matching::verify::check_greedy_certificate;
use owp_matching::{lic, Problem, SelectionPolicy};
use owp_simnet::SimConfig;
use owp_telemetry::PhaseProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A Barabási–Albert universe, as `owp_matchd::from_spec` builds it.
#[derive(Clone, Copy, Debug)]
pub struct BaSpec {
    /// Nodes.
    pub n: usize,
    /// Links per arrival.
    pub m: usize,
    /// Uniform quota.
    pub b: u32,
    /// Seeds the graph and the preferences.
    pub seed: u64,
}

impl BaSpec {
    /// The `owp_matchd::from_spec` string of this universe.
    pub fn spec(&self) -> String {
        format!("ba:{},{},{},{}", self.n, self.m, self.b, self.seed)
    }
}

/// The fastest repetition plus what the certificate found.
#[derive(Debug, Default)]
pub struct PipelineResult {
    /// Whole-pipeline wall time per repetition, in seconds.
    pub pipeline_s: Vec<f64>,
    /// The fastest of them. On a shared host interference only adds time,
    /// and it comes in stretches of seconds: the median of a run's
    /// repetitions flips between a fast and a slow mode from run to run,
    /// while the fastest repetition moves far less.
    pub fastest_s: f64,
    /// The fastest repetition's layers, in milliseconds.
    pub generate_ms: f64,
    pub prefs_ms: f64,
    pub weights_ms: f64,
    pub order_ms: f64,
    pub lic_ms: f64,
    pub certify_ms: f64,
    pub lid_async_ms: f64,
    pub lid_sync_ms: f64,
    /// Asynchronous LID messages per node (last repetition).
    pub messages_per_node: f64,
    /// Synchronous LID rounds (last repetition).
    pub sync_rounds: u64,
    /// Certificate failures, empty when every repetition passed.
    pub failures: Vec<String>,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl PipelineResult {
    pub fn new() -> PipelineResult {
        PipelineResult {
            fastest_s: f64::INFINITY,
            ..PipelineResult::default()
        }
    }

    /// Runs the pipeline `reps` more times on `spec`'s universe.
    pub fn run(&mut self, spec: BaSpec, reps: usize) {
        for _ in 0..reps {
            let t = Instant::now();
            let mut rng = StdRng::seed_from_u64(spec.seed);
            let graph = owp_graph::generators::barabasi_albert(spec.n, spec.m, &mut rng);
            let generate_ms = ms(t);

            let start = Instant::now();
            let mut prof = PhaseProfile::new();
            let problem = Problem::random_over_profiled(graph, spec.b, spec.seed, &mut prof);
            let t = Instant::now();
            let reference = lic(&problem, SelectionPolicy::InOrder);
            let lic_ms = ms(t);
            let t = Instant::now();
            let lid = run_lid(&problem, SimConfig::with_seed(spec.seed));
            let lid_async_ms = ms(t);
            let t = Instant::now();
            let sync = run_lid_sync(&problem);
            let lid_sync_ms = ms(t);
            let t = Instant::now();
            let verdict = certify(&problem, &reference, &lid, &sync);
            let certify_ms = ms(t);
            let pipeline_s = start.elapsed().as_secs_f64();
            self.pipeline_s.push(pipeline_s);

            if pipeline_s < self.fastest_s {
                let phase = |name: &str| prof.total_of(name).map_or(0.0, |d| d.as_secs_f64() * 1e3);
                self.fastest_s = pipeline_s;
                (
                    self.generate_ms,
                    self.prefs_ms,
                    self.weights_ms,
                    self.order_ms,
                ) = (
                    generate_ms,
                    phase("prefs"),
                    phase("weights"),
                    phase("order"),
                );
                (
                    self.lic_ms,
                    self.certify_ms,
                    self.lid_async_ms,
                    self.lid_sync_ms,
                ) = (lic_ms, certify_ms, lid_async_ms, lid_sync_ms);
            }
            self.messages_per_node = lid.stats.sent_per_node(spec.n);
            self.sync_rounds = sync.rounds;
            if let Err(e) = verdict {
                self.failures.push(e);
            }
        }
    }
}

/// The pipeline gate: both LID runs terminated with no asymmetric lock,
/// both select exactly LIC's edge set (Lemma 6), and LIC's output holds
/// the Lemma 4 greedy certificate.
fn certify(
    problem: &Problem,
    reference: &owp_matching::BMatching,
    lid: &owp_core::LidResult,
    sync: &owp_core::LidResult,
) -> Result<(), String> {
    for (name, run) in [("async LID", lid), ("sync LID", sync)] {
        if !run.terminated {
            return Err(format!("{name} did not terminate"));
        }
        if run.asymmetric_locks != 0 {
            return Err(format!(
                "{name} left {} asymmetric locks",
                run.asymmetric_locks
            ));
        }
        if !run.matching.same_edges(reference) {
            return Err(format!("{name} edge set differs from LIC's (Lemma 6)"));
        }
    }
    check_greedy_certificate(problem, reference).map_err(|e| format!("Lemma 4 certificate: {e}"))
}
