//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs both faces of the system on its own universe, one
//! after the other: matchd in-process on loopback with its default
//! configuration (set-up repeated, warm-up, one contiguous window under
//! the workload's client load, correctness gate), framed by repetitions
//! of the static pipeline (generate → build → LIC → asynchronous LID →
//! synchronous LID → certify), half before and half after it. The
//! workloads differ in which layer dominates; see [`WORKLOADS`].
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it records a span per client request, reads the daemon's
//! span histograms, replays the submitted stream through the layer
//! functions and reports the per-layer metrics. Every run writes its full
//! result document to `.bench_run/results/<workload>-seed<n>-trace<t>.json`
//! (traced runs also write the spans beside it, as `.spans.jsonl`);
//! `python3 benchmark/compare.py` summarises and compares those
//! documents, including the tracing overhead of traced against untraced
//! runs.
//!
//! Every run checks its outputs (the pipeline certificate and the matchd
//! gate) and re-proves the gate on a tiny daemon with an injected
//! `PhantomEdge`, which must fail it. The last line of standard output is
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

mod churn;
mod host;
mod layers;
mod live;
mod pipeline;
mod stats;

use live::{LiveSpec, WriterLoad};
use pipeline::BaSpec;
use stats::{median, Quantile, Samples};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Seed kept out of every tuning run, for confirming later claims.
const HELD_OUT_SEED: u64 = 1_000_003;
/// Open-loop reader rate, queries per second, on every workload.
const READER_RATE: f64 = 1000.0;

/// One benchmark workload.
struct Workload {
    name: &'static str,
    why: &'static str,
    n: usize,
    m: usize,
    b: u32,
    load: WriterLoad,
    /// Pipeline repetitions, half before and half after the live phase.
    pipeline_reps: usize,
    /// Timed daemon set-ups, the last of which serves the window.
    setup_reps: usize,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "ingest-ba200k",
        why: "publish-bound: matchd defaults (batch 256, linger 2ms, fsync=snapshot, snapshot/256 epochs, ops off) \
              on BA n=2e5 m=3 b=2; 1 closed-loop 16-event writer, open-loop reader 1000/s; largest static run",
        n: 200_000,
        m: 3,
        b: 2,
        load: WriterLoad::ClientStream { chunk: 16 },
        pipeline_reps: 4,
        setup_reps: 5,
    },
    Workload {
        name: "churn-ba20k",
        why: "engine-bound: same matchd defaults on BA n=2e4 m=3 b=2; 1 closed-loop writer of 256-event E19 mixed \
              churn; open-loop reader 1000/s beside it, so slower reads show; static pipeline too",
        n: 20_000,
        m: 3,
        b: 2,
        load: WriterLoad::MixedChurn { batch: 256 },
        pipeline_reps: 64,
        setup_reps: 9,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "{msg}\nusage: owp-repobench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage("--workload, --seed, --seconds and --trace are required"),
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit; an infinite latency (a quantile that
/// landed on a failed operation) is written as the largest finite value.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", items.join(","))
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Sample count and samples beyond, for quantiles.
    evidence: Option<Quantile>,
    /// For per-layer metrics: the end-to-end metric and workload it should move.
    moves: &'static str,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        evidence: None,
        moves: "",
    }
}

fn quantile_metric(name: &'static str, samples: &Samples, q: f64) -> Metric {
    let evidence = samples.quantile(q);
    Metric {
        name,
        unit: "ms",
        value: evidence.map_or(f64::NAN, |e| e.value),
        evidence,
        moves: "",
    }
}

fn layer(name: &'static str, unit: &'static str, value: f64, moves: &'static str) -> Metric {
    Metric {
        name,
        unit,
        value,
        evidence: None,
        moves,
    }
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let fingerprint = host::Fingerprint::detect();
    let data_root = PathBuf::from(".bench_run").join(format!("{}-{}", w.name, std::process::id()));
    let universe = BaSpec {
        n: w.n,
        m: w.m,
        b: w.b,
        seed: args.seed,
    };

    // Half the pipeline repetitions run before the live phase and half
    // after it, with no daemon alive: two stretches of the run give the
    // fastest repetition two chances at an unloaded host.
    let mut pipe = pipeline::PipelineResult::new();
    pipe.run(universe, w.pipeline_reps / 2);
    let live_spec = LiveSpec {
        universe,
        load: w.load,
        reader_rate: READER_RATE,
        window: Duration::from_secs_f64(args.seconds),
        setup_reps: w.setup_reps,
        trace: args.trace,
        inject_fault: false,
        data_root: data_root.join("live"),
        seed: args.seed,
    };
    let (live, universe_problem) = live::run(&live_spec);
    pipe.run(universe, w.pipeline_reps - w.pipeline_reps / 2);
    let replay = args.trace.then(|| match &universe_problem {
        Some(universe) => {
            let batch = live.legs.map_or(1.0, |l| l.events_per_batch).round() as usize;
            layers::replay(universe, &live.stream, batch, &data_root.join("replay"))
        }
        None => layers::LayerReplay::default(),
    });
    drop(universe_problem);
    let self_test = self_test(&data_root.join("self-test"), args.seed);
    let _ = std::fs::remove_dir_all(&data_root);

    let (submit, query) = (&live.submit, &live.query);
    // The bounded metrics of BENCHMARK.json. The p99s are reported with the
    // other tail quantiles below, unbounded: on a 2-vCPU host their spread
    // between runs exceeds 25 %, the widest bound the benchmark uses.
    let end_to_end = vec![
        metric("setup_s", "s", median(&live.setup_s)),
        metric("pipeline_s", "s", pipe.fastest_s),
        metric(
            "events_per_s",
            "events/s",
            live.acked_in_window as f64 / live.window_s.max(1e-9),
        ),
        quantile_metric("submit_p50_ms", submit, 0.50),
        quantile_metric("query_p50_ms", query, 0.50),
        metric("peak_rss_mb", "MiB", host::peak_rss_mib()),
    ];
    let per_layer = args
        .trace
        .then(|| per_layer(&pipe, &live, replay.as_ref().expect("traced")));

    let mut failures: Vec<String> = pipe.failures.clone();
    failures.extend(live.gate_failures.iter().cloned());
    if let Some(r) = &replay {
        failures.extend(r.failures.iter().cloned());
    }
    let fired = self_test
        .iter()
        .any(|f| f.starts_with(live::CERTIFY_FAILURE));
    if !fired {
        failures.push(format!(
            "self-test: the gate missed an injected PhantomEdge ({self_test:?})"
        ));
    }
    let correct = failures.is_empty();
    let attempted = live.attempted + pipe.pipeline_s.len() as u64;
    let failed = live.failed + pipe.failures.len() as u64;

    // Human-readable report.
    println!(
        "workload {} seed {} ({} s window, trace {}) on {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fingerprint.to_json()
    );
    for m in &end_to_end {
        match m.evidence {
            Some(q) => println!(
                "  {:<16} {:>14.4} {:<9} ({} samples, {} beyond)",
                m.name, m.value, m.unit, q.count, q.beyond
            ),
            None => println!("  {:<16} {:>14.4} {}", m.name, m.value, m.unit),
        }
    }
    let tails = tails(submit, query);
    println!("  tails: {}", tails.replace('"', ""));
    println!(
        "  ops: {attempted} attempted, {failed} failed (failed_ops_frac {:.6}; busy {}, rejected {}, \
         i/o {}, timeouts {})",
        failed as f64 / attempted.max(1) as f64,
        live.busy,
        live.rejected,
        live.io_errors,
        live.timeouts
    );
    if let Some(layers) = &per_layer {
        println!("  per layer (should move):");
        for m in layers {
            println!(
                "    {:<30} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.moves
            );
        }
        if let Some(l) = live.legs {
            let (lead, trail) = if l.publish_ack_us >= l.apply_wal_us {
                ("server.publish_ack_us", "server.apply_wal_us")
            } else {
                ("server.apply_wal_us", "server.publish_ack_us")
            };
            println!("  dominant server leg: {lead} above {trail}");
        }
    }
    println!(
        "  correctness gate: {}",
        if correct { "pass" } else { "FAIL" }
    );
    println!(
        "  gate self-test (injected PhantomEdge): {}",
        if fired { "caught" } else { "MISSED" }
    );
    for f in &failures {
        println!("    {f}");
    }

    let doc = result_doc(
        &args,
        &fingerprint,
        correct,
        &failures,
        attempted,
        failed,
        &live,
        &end_to_end,
        &tails,
        &pipe.pipeline_s,
        per_layer.as_deref(),
    );
    let results = PathBuf::from(".bench_run").join("results");
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let mut outputs = vec![(results.join(format!("{stem}.json")), doc)];
    if args.trace {
        let mut jsonl = String::new();
        for s in &live.spans {
            let _ = writeln!(
                jsonl,
                "{{\"run\":{},\"client\":{},\"req\":{},\"kind\":\"{}\",\"send_ns\":{},\"ack_ns\":{}}}",
                s.run,
                s.client,
                s.req,
                if s.submit { "SUBMIT" } else { "QUERY" },
                s.send_ns,
                s.ack_ns
            );
        }
        outputs.push((results.join(format!("{stem}.spans.jsonl")), jsonl));
    }
    for (path, body) in outputs {
        if let Err(e) = std::fs::create_dir_all(&results).and_then(|()| std::fs::write(&path, body))
        {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("  wrote {}", path.display());
    }

    let reported = per_layer.as_deref().unwrap_or(&end_to_end);
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
}

/// p90, p95, p99 and p99.9 of both latency families with the sample
/// counts beyond each, as a JSON object.
fn tails(submit: &Samples, query: &Samples) -> String {
    let family = |samples: &Samples| -> String {
        let items: Vec<String> = [0.9, 0.95, 0.99, 0.999]
            .iter()
            .filter_map(|&q| {
                samples.quantile(q).map(|e| {
                    format!(
                        "\"p{}\":{{\"ms\":{},\"beyond\":{}}}",
                        q * 100.0,
                        json_num(e.value),
                        e.beyond
                    )
                })
            })
            .collect();
        format!("{{{}}}", items.join(","))
    };
    format!(
        "{{\"submit\":{},\"query\":{}}}",
        family(submit),
        family(query)
    )
}

/// The gate's self-test: a tiny daemon whose engine is corrupted with a
/// `PhantomEdge` before the gate runs. Returns the gate's findings, which
/// must include the failed shutdown certification.
fn self_test(dir: &std::path::Path, seed: u64) -> Vec<String> {
    let spec = LiveSpec {
        universe: BaSpec {
            n: 400,
            m: 3,
            b: 2,
            seed,
        },
        load: WriterLoad::ClientStream { chunk: 16 },
        reader_rate: 200.0,
        window: Duration::from_millis(200),
        setup_reps: 1,
        trace: false,
        inject_fault: true,
        data_root: dir.to_path_buf(),
        seed,
    };
    live::run(&spec).0.gate_failures
}

fn per_layer(
    pipe: &pipeline::PipelineResult,
    live: &live::LiveResult,
    replay: &layers::LayerReplay,
) -> Vec<Metric> {
    let legs = live.legs.unwrap_or_default();
    let submit_mean_us = live.submit.finite_mean().unwrap_or(f64::NAN) * 1e3;
    vec![
        layer(
            "graph.generate_ms",
            "ms",
            pipe.generate_ms,
            "setup_s on ingest-ba200k",
        ),
        layer(
            "matching.prefs_ms",
            "ms",
            pipe.prefs_ms,
            "pipeline_s on ingest-ba200k",
        ),
        layer(
            "matching.weights_ms",
            "ms",
            pipe.weights_ms,
            "pipeline_s on ingest-ba200k",
        ),
        layer(
            "matching.order_ms",
            "ms",
            pipe.order_ms,
            "pipeline_s on ingest-ba200k",
        ),
        layer(
            "matching.lic_ms",
            "ms",
            pipe.lic_ms,
            "pipeline_s on ingest-ba200k",
        ),
        layer(
            "matching.certify_ms",
            "ms",
            pipe.certify_ms,
            "pipeline_s on ingest-ba200k",
        ),
        layer(
            "core.lid_async_ms",
            "ms",
            pipe.lid_async_ms,
            "pipeline_s on ingest-ba200k",
        ),
        layer(
            "core.lid_sync_ms",
            "ms",
            pipe.lid_sync_ms,
            "pipeline_s on ingest-ba200k",
        ),
        layer(
            "simnet.messages_per_node",
            "count",
            pipe.messages_per_node,
            "exact count, no time metric",
        ),
        layer(
            "simnet.sync_rounds",
            "count",
            pipe.sync_rounds as f64,
            "exact count, no time metric",
        ),
        layer(
            "server.queue_wait_us",
            "us",
            legs.queue_wait_us,
            "submit_p50_ms on ingest-ba200k",
        ),
        layer(
            "server.publish_ack_us",
            "us",
            legs.publish_ack_us,
            "submit_p50_ms and events_per_s on ingest-ba200k",
        ),
        layer(
            "server.apply_wal_us",
            "us",
            legs.apply_wal_us,
            "events_per_s and submit_p50_ms on churn-ba20k",
        ),
        layer(
            "server.query_us",
            "us",
            legs.query_us,
            "query_p50_ms on churn-ba20k",
        ),
        layer(
            "server.events_per_batch",
            "events",
            legs.events_per_batch,
            "events_per_s on ingest-ba200k",
        ),
        layer(
            "server.batches",
            "count",
            legs.batches as f64,
            "events_per_s on ingest-ba200k",
        ),
        layer(
            "server.wire_residual_us",
            "us",
            submit_mean_us - legs.queue_wait_us - legs.apply_wal_us - legs.publish_ack_us,
            "mean SUBMIT round trip minus the daemon legs: wire and handler share",
        ),
        layer(
            "engine.apply_us",
            "us",
            replay.engine_apply_us,
            "events_per_s on churn-ba20k; little on ingest-ba200k",
        ),
        layer(
            "engine.evaluated_per_batch",
            "count",
            replay.evaluated_per_batch,
            "events_per_s on churn-ba20k",
        ),
        layer(
            "engine.reranked_per_batch",
            "count",
            replay.reranked_per_batch,
            "events_per_s on churn-ba20k",
        ),
        layer(
            "codec.encode_us",
            "us",
            replay.codec_encode_us,
            "submit_p50_ms on churn-ba20k",
        ),
        layer(
            "codec.decode_us",
            "us",
            replay.codec_decode_us,
            "submit_p50_ms on churn-ba20k",
        ),
        layer(
            "codec.bytes_per_event",
            "bytes",
            replay.codec_bytes_per_event,
            "submit_p50_ms on churn-ba20k",
        ),
        layer(
            "wal.append_us",
            "us",
            replay.wal_append_us,
            "submit_p50_ms on both workloads",
        ),
        layer(
            "wal.bytes_per_event",
            "bytes",
            replay.wal_bytes_per_event,
            "submit_p50_ms on both workloads",
        ),
        layer(
            "snapshot.save_ms",
            "ms",
            replay.snapshot_save_ms,
            "submit_p99_ms on ingest-ba200k",
        ),
        layer(
            "recovery.recover_ms",
            "ms",
            live.recover_ms,
            "setup_s on ingest-ba200k",
        ),
        layer(
            "engine.certify_ms",
            "ms",
            live.certify_ms,
            "setup_s on ingest-ba200k",
        ),
        layer(
            "universe.build_ms",
            "ms",
            median(&live.universe_build_ms),
            "setup_s on ingest-ba200k",
        ),
        layer(
            "driver.reader_lag_ms",
            "ms",
            live.reader_lag_ms.finite_mean().unwrap_or(f64::NAN),
            "run validity, no end-to-end metric",
        ),
    ]
}

#[allow(clippy::too_many_arguments)]
fn result_doc(
    args: &Args,
    fingerprint: &host::Fingerprint,
    correct: bool,
    failures: &[String],
    attempted: u64,
    failed: u64,
    live: &live::LiveResult,
    end_to_end: &[Metric],
    tails: &str,
    pipeline_s: &[f64],
    per_layer: Option<&[Metric]>,
) -> String {
    let w = args.workload;
    let metrics = |ms: &[Metric]| -> String {
        let items: Vec<String> = ms
            .iter()
            .map(|m| {
                let mut s = format!(
                    "{}:{{\"value\":{},\"unit\":{}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                );
                if let Some(q) = m.evidence {
                    let _ = write!(s, ",\"count\":{},\"beyond\":{}", q.count, q.beyond);
                }
                if !m.moves.is_empty() {
                    let _ = write!(s, ",\"moves\":{}", json_str(m.moves));
                }
                s.push('}');
                s
            })
            .collect();
        format!("{{{}}}", items.join(","))
    };
    let load = match w.load {
        WriterLoad::ClientStream { chunk } => {
            format!("1 closed-loop writer, {chunk}-event client_stream submissions")
        }
        WriterLoad::MixedChurn { batch } => {
            format!("1 closed-loop writer, {batch}-event E19 mixed churn submissions")
        }
    };
    let failures: Vec<String> = failures.iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"workload\":{},\"why\":{},\"seed\":{},\"held_out_seed\":{HELD_OUT_SEED},\"seconds\":{},\
         \"trace\":{},\"fingerprint\":{},\"config\":{{\"universe\":{},\"load\":{},\
         \"reader\":\"1 open-loop reader at {READER_RATE} queries/s\",\"matchd\":{},\
         \"setup_reps\":{},\"pipeline_reps\":{},\"warmup_batches\":{}}},\
         \"correct\":{correct},\"failures\":[{}],\"attempted\":{attempted},\"failed\":{failed},\
         \"failed_ops_frac\":{},\"busy\":{},\"rejected\":{},\"io_errors\":{},\"timeouts\":{},\
         \"end_to_end\":{},\"tails\":{tails},\"repeats\":{{\"setup_s\":{},\"pipeline_s\":{}}},\
         \"per_layer\":{}}}\n",
        json_str(w.name),
        json_str(w.why),
        args.seed,
        args.seconds,
        args.trace,
        fingerprint.to_json(),
        json_str(&BaSpec { n: w.n, m: w.m, b: w.b, seed: args.seed }.spec()),
        json_str(&load),
        json_str(&matchd_config()),
        live.setup_s.len(),
        pipeline_s.len(),
        live::WARMUP_BATCHES,
        failures.join(","),
        json_num(failed as f64 / attempted.max(1) as f64),
        live.busy,
        live.rejected,
        live.io_errors,
        live.timeouts,
        metrics(end_to_end),
        json_list(&live.setup_s),
        json_list(pipeline_s),
        per_layer.map_or("null".to_string(), metrics),
    )
}

/// The daemon configuration every workload runs, as `MatchdConfig::new`
/// sets it.
fn matchd_config() -> String {
    let c = owp_matchd::MatchdConfig::new("unused");
    format!(
        "max_batch {}, max_linger {} us, queue_capacity {}, fsync {:?}, snapshot every {} epochs, \
         ops plane {}",
        c.max_batch,
        c.max_linger.as_micros(),
        c.queue_capacity,
        c.fsync,
        c.snapshot_every,
        if c.ops_addr.is_some() { "on" } else { "off" }
    )
}
