//! Experiment runner: regenerates every table/figure of `EXPERIMENTS.md`.
//!
//! ```text
//! experiments <e1|e2|...|e25|all> [--quick] [--json] [--trace-out <path>]
//!             [--metrics-out <path>] [--forensics-out <path>]
//!             [--campaign-out <path>] [--watch]
//! ```
//!
//! With `--json`, each experiment additionally writes its tables to
//! `BENCH_<id>.json` in the current directory (e.g. `experiments e15 --json`
//! produces `BENCH_e15.json`) so perf numbers can be tracked across commits
//! without scraping stdout.
//!
//! With `--trace-out <path>`, the raw trace artifact of a traced
//! experiment (see `experiments::TRACED`) is written as JSONL: for `e18`
//! the per-round convergence series (schema in `owp_telemetry::series`),
//! for `e20` the span-annotated telemetry event log consumed by
//! `owp-inspect causal`. Experiments without a trace warn and ignore the
//! flag; selecting *only* untraced experiments is an error.
//!
//! With `--metrics-out <path>`, the instrumented experiments (see
//! `experiments::INSTRUMENTED`: e5, e18, e19, e20, e23, e25) run with a shared
//! `MetricsRegistry` — histograms, message counters and the online
//! invariant audit — and the final snapshot is written to `path`:
//! Prometheus text format if the path ends in `.prom`, JSON otherwise.
//! Any audit violation makes the run exit non-zero.
//!
//! With `--forensics-out <path>`, a forensic experiment (see
//! `experiments::FORENSIC`: e22) writes the first post-mortem bundle its
//! injected-corruption sweep captured as JSON — the input of
//! `owp-inspect forensics`. Experiments without a bundle warn and ignore
//! the flag; selecting *only* non-forensic experiments is an error.
//!
//! With `--campaign-out <path>`, a campaign experiment (see
//! `experiments::CAMPAIGN`: e25) writes its attested chaos-campaign
//! report as canonical JSON — the input of `owp-inspect campaign`.
//! Experiments without a campaign warn and ignore the flag; selecting
//! *only* non-campaign experiments is an error.
//!
//! With `--watch`, a background thread prints a compact metrics table to
//! stderr every 2 seconds while experiments run (implies collecting
//! metrics even without `--metrics-out`).

use owp_bench::experiments;
use owp_metrics::{MetricsRegistry, MetricsSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One compact stderr block per tick: counters and gauges one per line,
/// histograms as count/mean/p50/p99.
fn render_watch(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("--- metrics ---\n");
    for (name, v) in &snap.counters {
        out.push_str(&format!("{name:<34} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        out.push_str(&format!("{name:<34} {v:.4}\n"));
    }
    for (name, h) in &snap.histograms {
        out.push_str(&format!(
            "{name:<34} n={} mean={:.1} p50<={} p99<={}\n",
            h.count,
            h.mean(),
            h.quantile_upper_bound(0.5).unwrap_or(0),
            h.quantile_upper_bound(0.99).unwrap_or(0),
        ));
    }
    out
}

fn main() {
    let mut quick = false;
    let mut json = false;
    let mut watch = false;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut forensics_out: Option<String> = None;
    let mut campaign_out: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--watch" => watch = true,
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(path),
                None => {
                    eprintln!("--trace-out requires a path argument");
                    std::process::exit(2);
                }
            },
            "--metrics-out" => match args.next() {
                Some(path) => metrics_out = Some(path),
                None => {
                    eprintln!("--metrics-out requires a path argument");
                    std::process::exit(2);
                }
            },
            "--forensics-out" => match args.next() {
                Some(path) => forensics_out = Some(path),
                None => {
                    eprintln!("--forensics-out requires a path argument");
                    std::process::exit(2);
                }
            },
            "--campaign-out" => match args.next() {
                Some(path) => campaign_out = Some(path),
                None => {
                    eprintln!("--campaign-out requires a path argument");
                    std::process::exit(2);
                }
            },
            _ if a.starts_with("--") => {
                eprintln!("unknown flag: {a}");
                std::process::exit(2);
            }
            _ => ids.push(a),
        }
    }

    if ids.is_empty() {
        eprintln!(
            "usage: experiments <e1..e25|all> [--quick] [--json] [--trace-out <path>] \
             [--metrics-out <path>] [--forensics-out <path>] [--campaign-out <path>] [--watch]"
        );
        eprintln!("known experiments: {}", experiments::ALL.join(", "));
        std::process::exit(2);
    }

    let selected: Vec<&str> = if ids.iter().any(|i| i == "all") {
        experiments::ALL.to_vec()
    } else {
        ids.iter().map(|s| s.as_str()).collect()
    };

    let registry = (metrics_out.is_some() || watch).then(|| Arc::new(MetricsRegistry::new()));

    // The watch printer shares the registry; recording stays lock-free, the
    // printer takes the cold snapshot lock once per tick.
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = registry.as_ref().filter(|_| watch).map(|reg| {
        let reg = Arc::clone(reg);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_secs(2));
                eprint!("{}", render_watch(&reg.snapshot()));
            }
        })
    });

    let mut trace_written = false;
    let mut forensics_written = false;
    let mut campaign_written = false;
    for id in selected {
        if trace_out.is_some() && !experiments::TRACED.contains(&id) {
            eprintln!(
                "warning: {id} records no trace artifact, --trace-out ignored for it \
                 (traced experiments: {})",
                experiments::TRACED.join(", ")
            );
        }
        if forensics_out.is_some() && !experiments::FORENSIC.contains(&id) {
            eprintln!(
                "warning: {id} captures no forensic bundle, --forensics-out ignored for it \
                 (forensic experiments: {})",
                experiments::FORENSIC.join(", ")
            );
        }
        if campaign_out.is_some() && !experiments::CAMPAIGN.contains(&id) {
            eprintln!(
                "warning: {id} runs no chaos campaign, --campaign-out ignored for it \
                 (campaign experiments: {})",
                experiments::CAMPAIGN.join(", ")
            );
        }
        let start = Instant::now();
        // Forensic capture and metrics instrumentation are disjoint today
        // (e22 is not in INSTRUMENTED), so the two dispatch paths never
        // compete for the same experiment.
        let outcome = if forensics_out.is_some() && experiments::FORENSIC.contains(&id) {
            experiments::run_with_forensics(id, quick).map(|(t, b)| (t, None, b, None))
        } else if campaign_out.is_some() && experiments::CAMPAIGN.contains(&id) {
            // Campaign capture composes with metrics: the registry (if
            // any) gets the campaign_* ledger through the same run.
            experiments::run_with_campaign(id, quick, registry.as_deref())
                .map(|(t, r)| (t, None, None, r))
        } else {
            experiments::run_instrumented(id, quick, registry.as_deref())
                .map(|(t, s)| (t, s, None, None))
        };
        match outcome {
            Some((tables, series, bundle, report)) => {
                for t in &tables {
                    println!();
                    t.print();
                }
                let elapsed = start.elapsed();
                if json {
                    let path = format!("BENCH_{id}.json");
                    let doc = experiments::tables_to_json(id, quick, elapsed, &tables);
                    match std::fs::write(&path, doc) {
                        Ok(()) => println!("[{id}: wrote {path}]"),
                        Err(e) => {
                            eprintln!("cannot write {path}: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                if let (Some(path), Some(artifact)) = (trace_out.as_deref(), series.as_ref()) {
                    match std::fs::write(path, artifact.to_jsonl()) {
                        Ok(()) => {
                            println!("[{id}: wrote {} trace rows to {path}]", artifact.len());
                            trace_written = true;
                        }
                        Err(e) => {
                            eprintln!("cannot write {path}: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                if let (Some(path), Some(b)) = (forensics_out.as_deref(), bundle.as_ref()) {
                    match std::fs::write(path, b.to_json()) {
                        Ok(()) => {
                            println!(
                                "[{id}: wrote forensic bundle ({} recorded step(s), \
                                 reproducer {}) to {path}]",
                                b.steps.len(),
                                b.reproducer().len()
                            );
                            forensics_written = true;
                        }
                        Err(e) => {
                            eprintln!("cannot write {path}: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                if let (Some(path), Some(r)) = (campaign_out.as_deref(), report.as_ref()) {
                    match std::fs::write(path, r.to_json()) {
                        Ok(()) => {
                            println!(
                                "[{id}: wrote campaign report ({} plan(s), {} violation(s), \
                                 digest {}) to {path}]",
                                r.config.plans,
                                r.violations.len(),
                                r.digest
                            );
                            campaign_written = true;
                        }
                        Err(e) => {
                            eprintln!("cannot write {path}: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                println!("[{id} done in {elapsed:.1?}]");
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                std::process::exit(2);
            }
        }
    }

    stop.store(true, Ordering::Relaxed);
    if let Some(w) = watcher {
        let _ = w.join();
    }

    if let Some(reg) = &registry {
        let snap = reg.snapshot();
        if watch {
            eprint!("{}", render_watch(&snap));
        }
        if let Some(path) = &metrics_out {
            let doc = if path.ends_with(".prom") {
                snap.to_prometheus()
            } else {
                snap.to_json()
            };
            match std::fs::write(path, doc) {
                Ok(()) => println!("[wrote metrics snapshot to {path}]"),
                Err(e) => {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        let violations = snap
            .counters
            .iter()
            .find(|(name, _)| name == "audit_violations_total")
            .map(|&(_, v)| v)
            .unwrap_or(0);
        if violations > 0 {
            eprintln!("audit: {violations} invariant violation(s) detected during the run");
            std::process::exit(1);
        }
    }

    if trace_out.is_some() && !trace_written {
        eprintln!(
            "--trace-out given but no selected experiment records a trace artifact (use {})",
            experiments::TRACED.join(", ")
        );
        std::process::exit(2);
    }
    if forensics_out.is_some() && !forensics_written {
        eprintln!(
            "--forensics-out given but no selected experiment captured a forensic bundle (use {})",
            experiments::FORENSIC.join(", ")
        );
        std::process::exit(2);
    }
    if campaign_out.is_some() && !campaign_written {
        eprintln!(
            "--campaign-out given but no selected experiment ran a chaos campaign (use {})",
            experiments::CAMPAIGN.join(", ")
        );
        std::process::exit(2);
    }
}
