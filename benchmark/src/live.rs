//! The live path: matchd in-process on loopback with its default
//! configuration, one closed-loop writer, one open-loop reader, and the
//! correctness gate.
//!
//! A live phase has four sequential steps:
//!
//! 1. **Set-up**: `from_spec` + `Matchd::start` (recover, certify,
//!    bind) on a fresh data directory, until the first request can be
//!    sent. It is repeated [`LiveSpec::setup_reps`] times, each daemon
//!    but the last shut down at once; the last one serves.
//! 2. **Warm-up**: the writer and the reader run, but nothing is timed
//!    until the daemon has flushed at least [`WARMUP_BATCHES`] batches,
//!    so the engine's 32-slot history ring has wrapped.
//! 3. **Window**: one contiguous stretch; every operation *sent* inside
//!    it is a sample. The writer is closed loop (the next submission
//!    leaves when the previous one is acknowledged); the reader is open
//!    loop at a fixed rate and each query is timed from its scheduled
//!    send time.
//! 4. **Gate**: graceful shutdown must certify, acknowledged events must
//!    equal submitted events, `recover()` on the data directory must
//!    return the last acknowledged epoch (certified), and the reader's
//!    `my_matches` for a seeded node sample, read after the writer
//!    stopped, must equal the final engine's matching.

use crate::churn::MixedChurn;
use crate::pipeline::BaSpec;
use crate::stats::Samples;
use owp_engine::{EngineEvent, InjectedFault};
use owp_graph::NodeId;
use owp_matchd::codec::{self, CodecError, Frame, PROTO_VERSION};
use owp_matchd::{client_stream, from_spec, recover, Matchd, MatchdClient, MatchdConfig};
use owp_metrics::{
    MetricsRegistry, MetricsSnapshot, MATCHD_BATCH_EVENTS, MATCHD_REQ_QUERY_US, MATCHD_SPAN_ACK_US,
    MATCHD_SPAN_APPLY_US, MATCHD_SPAN_QUEUE_US,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Batches the daemon must flush before timing starts: one full turn of
/// the engine's 32-slot history ring.
pub const WARMUP_BATCHES: u64 = 32;
/// How the gate reports a final state that does not certify.
pub const CERTIFY_FAILURE: &str = "graceful shutdown does not certify";
/// A request without a reply after this long counts as a timeout.
const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// Give up waiting for warm-up after this long (the gate then fails).
const WARMUP_DEADLINE: Duration = Duration::from_secs(60);
/// Nodes whose served matches are checked against the final engine.
const READ_CHECK_SAMPLE: usize = 256;

/// What the closed-loop writer submits.
#[derive(Clone, Copy, Debug)]
pub enum WriterLoad {
    /// The universe's `client_stream` in `chunk`-event submissions.
    ClientStream { chunk: usize },
    /// E19's mixed churn in `batch`-event submissions.
    MixedChurn { batch: usize },
}

/// One live phase.
#[derive(Clone, Debug)]
pub struct LiveSpec {
    pub universe: BaSpec,
    pub load: WriterLoad,
    /// Open-loop reader rate, queries per second.
    pub reader_rate: f64,
    /// Measured window.
    pub window: Duration,
    /// Set-ups timed before the window (at least 1; the last one serves).
    pub setup_reps: usize,
    /// Record client spans, read the daemon's span histograms and keep
    /// the submitted stream for the layer replay.
    pub trace: bool,
    /// Corrupt the engine before the gate (the gate's self-test).
    pub inject_fault: bool,
    /// Scratch directory for the daemon's data directories.
    pub data_root: PathBuf,
    /// Seeds the churn generator and the reader's node sequence.
    pub seed: u64,
}

/// A client-side span: one request of one client thread.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Parent run (the benchmark process id).
    pub run: u32,
    /// Client thread (0 the writer, 1 the reader).
    pub client: u16,
    /// Request index within the client.
    pub req: u64,
    /// `true` for SUBMIT, `false` for a query.
    pub submit: bool,
    /// Send and acknowledgement, nanoseconds since the clients started.
    pub send_ns: u64,
    pub ack_ns: u64,
}

/// Means of the daemon's request legs over the window (µs), read from
/// the `matchd_span_*` histograms over the METRICS frame.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerLegs {
    pub queue_wait_us: f64,
    pub apply_wal_us: f64,
    pub publish_ack_us: f64,
    pub query_us: f64,
    pub events_per_batch: f64,
    pub batches: u64,
}

/// Everything one live phase measured.
#[derive(Default)]
pub struct LiveResult {
    pub setup_s: Vec<f64>,
    pub universe_build_ms: Vec<f64>,
    /// Window samples: SUBMIT round trips and query latencies.
    pub submit: Samples,
    pub query: Samples,
    pub window_s: f64,
    pub acked_in_window: u64,
    pub attempted: u64,
    pub failed: u64,
    pub busy: u64,
    pub rejected: u64,
    pub io_errors: u64,
    pub timeouts: u64,
    pub reader_lag_ms: Samples,
    pub recover_ms: f64,
    pub certify_ms: f64,
    pub gate_failures: Vec<String>,
    pub legs: Option<ServerLegs>,
    pub spans: Vec<Span>,
    /// The submitted stream, one chunk per submission (traced runs
    /// only).
    pub stream: Vec<Vec<EngineEvent>>,
}

/// Window bookkeeping shared by the client threads.
struct Control {
    /// Span timestamps count from here.
    origin: Instant,
    /// Operations sent while set are samples.
    measuring: AtomicBool,
    /// Record a span for every sample.
    trace: bool,
    stop: AtomicBool,
    max_epoch: AtomicU64,
}

impl Control {
    /// Whether an operation sent now is a sample.
    fn in_window(&self) -> bool {
        self.measuring.load(Ordering::SeqCst)
    }

    fn running(&self) -> bool {
        !self.stop.load(Ordering::SeqCst)
    }

    fn span(
        &self,
        in_window: bool,
        client: u16,
        req: u64,
        submit: bool,
        send: Instant,
        ack: Instant,
    ) -> Option<Span> {
        if !(self.trace && in_window) {
            return None;
        }
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        Some(Span {
            run: std::process::id(),
            client,
            req,
            submit,
            send_ns: ns(send),
            ack_ns: ns(ack),
        })
    }
}

enum OpError {
    Timeout,
    Io(String),
}

/// A wire connection with a read timeout, so a stuck request is counted
/// as a timeout instead of hanging the run.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(OP_TIMEOUT))
            .map_err(|e| format!("timeout: {e}"))?;
        let mut conn = Conn { stream };
        match conn.call(&Frame::Hello {
            proto: PROTO_VERSION,
        }) {
            Ok(Frame::Welcome { .. }) => Ok(conn),
            Ok(other) => Err(format!("handshake answered {}", other.kind_label())),
            Err(OpError::Timeout) => Err("handshake timed out".into()),
            Err(OpError::Io(e)) => Err(e),
        }
    }

    fn call(&mut self, frame: &Frame) -> Result<Frame, OpError> {
        codec::write_frame(&mut self.stream, frame).map_err(|e| OpError::Io(e.to_string()))?;
        match codec::read_frame(&mut self.stream) {
            Ok(f) => Ok(f),
            Err(CodecError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err(OpError::Timeout)
            }
            Err(e) => Err(OpError::Io(e.to_string())),
        }
    }
}

/// What one client thread counted.
#[derive(Default)]
struct Tally {
    samples: Samples,
    attempted: u64,
    failed: u64,
    busy: u64,
    rejected: u64,
    io_errors: u64,
    timeouts: u64,
    submitted_events: u64,
    acked_events: u64,
    acked_in_window: u64,
    last_epoch: u64,
    lag_ms: Samples,
    spans: Vec<Span>,
    chunks: Vec<Vec<EngineEvent>>,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, in_window: bool) {
        self.attempted += 1;
        self.failed += 1;
        if in_window {
            self.samples.push_failure();
        }
    }
}

fn writer(
    addr: SocketAddr,
    client: u16,
    mut next: impl FnMut() -> Vec<EngineEvent>,
    keep_stream: bool,
    ctl: &Control,
) -> Tally {
    let mut t = Tally::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            t.io_errors += 1;
            t.errors.push(format!("writer {client}: {e}"));
            return t;
        }
    };
    let mut req = 0u64;
    while ctl.running() {
        let events = next();
        let len = events.len() as u64;
        t.submitted_events += len;
        if keep_stream {
            t.chunks.push(events.clone());
        }
        let frame = Frame::Submit { events };
        loop {
            req += 1;
            let in_window = ctl.in_window();
            let sent = Instant::now();
            let reply = conn.call(&frame);
            let done = Instant::now();
            match reply {
                Ok(Frame::Accepted { epoch }) => {
                    t.attempted += 1;
                    if in_window {
                        t.samples
                            .push(done.duration_since(sent).as_secs_f64() * 1e3);
                        t.acked_in_window += len;
                    }
                    t.spans
                        .extend(ctl.span(in_window, client, req, true, sent, done));
                    t.acked_events += len;
                    t.last_epoch = epoch;
                    ctl.max_epoch.fetch_max(epoch, Ordering::SeqCst);
                    break;
                }
                Ok(Frame::Busy { retry_after_ms }) => {
                    t.fail(in_window);
                    t.busy += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.into()));
                }
                Ok(Frame::Rejected { error }) => {
                    t.fail(in_window);
                    t.rejected += 1;
                    t.errors.push(format!("writer {client}: REJECTED {error}"));
                    return t;
                }
                Ok(other) => {
                    t.fail(in_window);
                    t.io_errors += 1;
                    t.errors.push(format!(
                        "writer {client}: unexpected {}",
                        other.kind_label()
                    ));
                    return t;
                }
                Err(OpError::Timeout) => {
                    t.fail(in_window);
                    t.timeouts += 1;
                    t.errors.push(format!("writer {client}: SUBMIT timed out"));
                    return t;
                }
                Err(OpError::Io(e)) => {
                    t.fail(in_window);
                    t.io_errors += 1;
                    t.errors.push(format!("writer {client}: {e}"));
                    return t;
                }
            }
        }
    }
    t
}

/// The open-loop reader: query `k` is due at `k / rate` after the reader
/// starts and is timed from that instant, so a stall also charges the
/// queries that had to wait behind it. Returns the connection for the
/// post-run read check.
fn reader(
    addr: SocketAddr,
    client: u16,
    nodes: u32,
    rate: f64,
    seed: u64,
    ctl: &Control,
) -> (Tally, Option<Conn>) {
    let mut t = Tally::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            t.io_errors += 1;
            t.errors.push(format!("reader: {e}"));
            return (t, None);
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let (origin, mut k) = (Instant::now(), 0u64);
    while ctl.running() {
        let due = origin + Duration::from_secs_f64(k as f64 / rate);
        k += 1;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let node = rng.gen_range(0..nodes);
        let frame = if k % 2 == 0 {
            Frame::QueryMatches { node }
        } else {
            Frame::QuerySatisfaction { node }
        };
        let in_window = ctl.in_window();
        let sent = Instant::now();
        let reply = conn.call(&frame);
        let done = Instant::now();
        match reply {
            Ok(Frame::Matches { .. } | Frame::Satisfaction { .. }) => {
                t.attempted += 1;
                if in_window {
                    t.samples.push(done.duration_since(due).as_secs_f64() * 1e3);
                    t.lag_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
                }
                t.spans
                    .extend(ctl.span(in_window, client, k, false, sent, done));
            }
            other => {
                t.fail(in_window);
                match other {
                    Err(OpError::Timeout) => t.timeouts += 1,
                    Ok(f) => {
                        t.rejected += 1;
                        t.errors
                            .push(format!("reader: query answered {}", f.kind_label()));
                    }
                    Err(OpError::Io(e)) => {
                        t.io_errors += 1;
                        t.errors.push(format!("reader: {e}"));
                    }
                }
                // Reads are idempotent: reconnect and carry on.
                match Conn::connect(addr) {
                    Ok(c) => conn = c,
                    Err(e) => {
                        t.errors.push(format!("reader reconnect: {e}"));
                        return (t, None);
                    }
                }
            }
        }
    }
    (t, Some(conn))
}

fn fetch_metrics(addr: SocketAddr) -> Result<MetricsSnapshot, String> {
    let json = MatchdClient::connect(addr)?.metrics_json()?;
    MetricsSnapshot::parse_json(&json)
}

/// Mean of each daemon leg over the window: the histogram deltas
/// (`count`, `sum`) between two METRICS reads are exact.
fn legs(before: &MetricsSnapshot, after: &MetricsSnapshot) -> ServerLegs {
    let delta = |name: &str| -> (u64, u64) {
        let get = |s: &MetricsSnapshot| {
            s.histograms
                .iter()
                .find(|(n, _)| n == name)
                .map_or((0, 0), |(_, h)| (h.count, h.sum))
        };
        let (c0, s0) = get(before);
        let (c1, s1) = get(after);
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    };
    let mean = |name: &str| {
        let (c, s) = delta(name);
        if c == 0 {
            0.0
        } else {
            s as f64 / c as f64
        }
    };
    ServerLegs {
        queue_wait_us: mean(MATCHD_SPAN_QUEUE_US),
        apply_wal_us: mean(MATCHD_SPAN_APPLY_US),
        publish_ack_us: mean(MATCHD_SPAN_ACK_US),
        query_us: mean(MATCHD_REQ_QUERY_US),
        events_per_batch: mean(MATCHD_BATCH_EVENTS),
        batches: delta(MATCHD_BATCH_EVENTS).0,
    }
}

/// One set-up: `from_spec` + `Matchd::start` on a fresh data directory,
/// timed until the first request can be sent. A failed start is a gate
/// failure.
fn setup(spec: &LiveSpec, out: &mut LiveResult) -> Option<(Matchd, owp_matching::Problem)> {
    let dir = &spec.data_root;
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let universe = from_spec(&spec.universe.spec()).expect("workload universe specs are valid");
    out.universe_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let daemon = Matchd::start(
        "127.0.0.1:0",
        &universe,
        MatchdConfig::new(dir),
        MetricsRegistry::new(),
    );
    out.setup_s.push(t.elapsed().as_secs_f64());
    match daemon {
        Ok(d) => Some((d, universe)),
        Err(e) => {
            out.gate_failures.push(format!("Matchd::start: {e}"));
            None
        }
    }
}

/// Runs one live phase; the universe is returned for the layer replay.
pub fn run(spec: &LiveSpec) -> (LiveResult, Option<owp_matching::Problem>) {
    let mut out = LiveResult::default();

    // 1. Set-up, repeated; the last daemon serves.
    let mut served: Option<(Matchd, _)> = None;
    for _ in 0..spec.setup_reps.max(1) {
        if let Some((extra, _)) = served.take() {
            let _ = extra.shutdown();
        }
        served = setup(spec, &mut out);
    }
    let Some((daemon, universe)) = served else {
        return (out, None);
    };
    let dir = &spec.data_root;
    let addr = daemon.local_addr();
    let nodes = universe.graph.node_count() as u32;

    // 2.–3. Warm-up, then the window.
    let ctl = Control {
        origin: Instant::now(),
        measuring: AtomicBool::new(false),
        trace: spec.trace,
        stop: AtomicBool::new(false),
        max_epoch: AtomicU64::new(0),
    };
    let mut metrics = (None, None);
    let (tallies, read_conn) = std::thread::scope(|s| {
        let ctl_ref = &ctl;
        let write_handle = match spec.load {
            WriterLoad::ClientStream { chunk: size } => {
                let stream = client_stream(&universe, 0, 1, 4096 * size);
                let mut cursor = 0usize;
                let next = move || {
                    // Chunks hold whole leave/join and remove/add pairs, and
                    // the stream is self-inverse, so cycling it stays valid.
                    let end = (cursor + size).min(stream.len());
                    let chunk = stream[cursor..end].to_vec();
                    cursor = if end == stream.len() { 0 } else { end };
                    chunk
                };
                s.spawn(move || writer(addr, 0, next, spec.trace, ctl_ref))
            }
            WriterLoad::MixedChurn { batch } => {
                let mut churn = MixedChurn::new(&universe.graph, spec.seed ^ 0xC4A2);
                let next = move || churn.batch(batch);
                s.spawn(move || writer(addr, 0, next, spec.trace, ctl_ref))
            }
        };
        let read_handle = s.spawn(move || {
            reader(
                addr,
                1,
                nodes,
                spec.reader_rate,
                spec.seed ^ 0x5EAD,
                ctl_ref,
            )
        });

        let deadline = Instant::now() + WARMUP_DEADLINE;
        while ctl.max_epoch.load(Ordering::SeqCst) < WARMUP_BATCHES && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if spec.trace {
            metrics.0 = Some(fetch_metrics(addr));
        }
        let t = Instant::now();
        ctl.measuring.store(true, Ordering::SeqCst);
        std::thread::sleep(spec.window);
        ctl.measuring.store(false, Ordering::SeqCst);
        out.window_s = t.elapsed().as_secs_f64();
        if spec.trace {
            metrics.1 = Some(fetch_metrics(addr));
        }
        ctl.stop.store(true, Ordering::SeqCst);
        let write_tally = write_handle.join().expect("writer thread");
        let (read_tally, conn) = read_handle.join().expect("reader thread");
        ([write_tally, read_tally], conn)
    });
    if ctl.max_epoch.load(Ordering::SeqCst) < WARMUP_BATCHES {
        out.gate_failures
            .push(format!("warm-up never reached {WARMUP_BATCHES} batches"));
    }
    if let (Some(Ok(before)), Some(Ok(after))) = (&metrics.0, &metrics.1) {
        out.legs = Some(legs(before, after));
    } else if spec.trace {
        out.gate_failures.push("METRICS frame read failed".into());
    }

    let [mut write_tally, mut read_tally] = tallies;
    let (submitted, acked, last_epoch) = (
        write_tally.submitted_events,
        write_tally.acked_events,
        write_tally.last_epoch,
    );
    out.submit = std::mem::take(&mut write_tally.samples);
    out.query = std::mem::take(&mut read_tally.samples);
    out.stream = std::mem::take(&mut write_tally.chunks);
    for t in [write_tally, read_tally] {
        out.attempted += t.attempted;
        out.failed += t.failed;
        out.busy += t.busy;
        out.rejected += t.rejected;
        out.io_errors += t.io_errors;
        out.timeouts += t.timeouts;
        out.acked_in_window += t.acked_in_window;
        out.reader_lag_ms.extend(t.lag_ms);
        out.spans.extend(t.spans);
        out.gate_failures.extend(t.errors);
    }

    // 4. The gate.
    if spec.inject_fault {
        match phantom_edge(&universe, addr) {
            Some(edge) => {
                if let Err(e) = daemon.inject_fault(InjectedFault::PhantomEdge { edge }) {
                    out.gate_failures.push(format!("inject_fault: {e}"));
                }
            }
            None => out
                .gate_failures
                .push("self-test found no unmatched edge".into()),
        }
    }
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xC0DE);
    let sample: Vec<u32> = (0..READ_CHECK_SAMPLE)
        .map(|_| rng.gen_range(0..nodes))
        .collect();
    let served_reads: Vec<Option<(u64, Vec<u32>)>> = match read_conn {
        Some(mut conn) => sample
            .iter()
            .map(|&node| match conn.call(&Frame::QueryMatches { node }) {
                Ok(Frame::Matches { epoch, peers }) => Some((epoch, peers)),
                _ => None,
            })
            .collect(),
        None => vec![None; sample.len()],
    };
    let stats = daemon.shutdown();
    let mut gate = Vec::new();
    if let Err(e) = &stats.certify {
        gate.push(format!("{CERTIFY_FAILURE}: {e}"));
    }
    if acked != submitted {
        gate.push(format!("acked {acked} of {submitted} submitted events"));
    }
    if stats.epoch != last_epoch {
        gate.push(format!(
            "final epoch {} but last acknowledged epoch {last_epoch}",
            stats.epoch
        ));
    }
    let mismatched = sample
        .iter()
        .zip(&served_reads)
        .filter(|(&node, read)| {
            let expect: Vec<u32> = stats
                .engine
                .matching()
                .connections(NodeId(node))
                .iter()
                .map(|p| p.0)
                .collect();
            !matches!(read, Some((epoch, peers)) if *epoch == stats.epoch && *peers == expect)
        })
        .count();
    if mismatched > 0 {
        gate.push(format!(
            "{mismatched} of {} served my_matches differ from the final engine",
            sample.len()
        ));
    }
    drop(stats);
    let t = Instant::now();
    match recover(dir, &universe, MatchdConfig::new(dir).fsync) {
        Ok(rec) => {
            out.recover_ms = t.elapsed().as_secs_f64() * 1e3;
            if rec.engine.epoch().0 != last_epoch {
                gate.push(format!(
                    "recover() returned epoch {} but the last acknowledged epoch is {last_epoch}",
                    rec.engine.epoch().0
                ));
            }
            let t = Instant::now();
            if let Err(e) = rec.engine.certify() {
                gate.push(format!("recovered engine does not certify: {e}"));
            }
            out.certify_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        Err(e) => gate.push(format!("recover(): {e}")),
    }
    out.gate_failures.extend(gate);
    let _ = std::fs::remove_dir_all(dir);
    (out, Some(universe))
}

/// An edge the served matching does not hold, found over the wire, for
/// the PhantomEdge self-test.
fn phantom_edge(universe: &owp_matching::Problem, addr: SocketAddr) -> Option<owp_graph::EdgeId> {
    let mut conn = Conn::connect(addr).ok()?;
    let g = &universe.graph;
    g.nodes().find_map(|u| {
        let Ok(Frame::Matches { peers, .. }) = conn.call(&Frame::QueryMatches { node: u.0 }) else {
            return None;
        };
        g.neighbor_ids(u)
            .find(|v| !peers.contains(&v.0))
            .and_then(|v| g.edge_between(u, v))
    })
}
