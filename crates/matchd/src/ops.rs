//! The live operations plane: admin HTTP endpoint, continuous auditor,
//! and the slow-request ring (DESIGN.md §14).
//!
//! Everything here runs *beside* the ingest path, never inside it:
//!
//! * The **admin listener** serves `GET /metrics` (Prometheus text),
//!   `GET /healthz` (liveness — 200 while the process serves),
//!   `GET /readyz` (readiness — 200 iff every audit pass so far was
//!   clean *and* the ingest queue sits below the high-watermark), and
//!   `GET /status` (one [`OpsStatus`] JSON document). One thread per
//!   request, [`crate::http`]'s HTTP/1.0, no new dependencies.
//! * The **continuous auditor** periodically rendezvous-probes the
//!   engine owner for an epoch-stamped [`owp_engine::OriginSnapshot`]
//!   (captured at a batch boundary), restores it *off* the hot path,
//!   and runs [`owp_metrics::Auditor::audit_live`] over the alive
//!   sub-instance: quota feasibility, mutuality, the Lemma 4
//!   locally-heaviest certificate, and the ε-blocking-edge gauge of
//!   Floréen et al. On a violation it escalates: captures a
//!   [`owp_engine::ForensicBundle`] from the live engine, spools it to
//!   [`crate::MatchdConfig::spool_dir`], and latches `/readyz` to 503.
//!
//! Readiness is deliberately *latched* on audit failure: a daemon whose
//! published matching ever broke its own certificate should fall out of
//! a load balancer until an operator replays the spooled bundle and
//! decides — it must not flap back to ready on the next clean pass.

use crate::http;
use crate::server::{AuditProbe, Ingest};
use owp_engine::OriginSnapshot;
use owp_matching::{BMatching, Problem};
use owp_metrics::{Auditor, Counter, Gauge, MetricsRegistry};
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many slow requests the ring retains (the worst N by total span).
pub const SLOW_RING_CAPACITY: usize = 16;

/// One completed request span, as kept by the slow-request ring and
/// rendered in `/status`. `SUBMIT` spans carry the full queue/apply/ack
/// split measured by the engine owner; read and control frames are
/// served inline off the published view, so their legs are zero and
/// `total_us` is the handler round-trip.
#[derive(Clone, Debug, PartialEq)]
pub struct SlowSpan {
    /// Daemon-wide monotone request id.
    pub req: u64,
    /// Connection the frame arrived on.
    pub conn: u64,
    /// Frame kind label (`SUBMIT`, `QUERY_EPOCH`, ...).
    pub kind: String,
    /// Engine epoch the span completed at.
    pub epoch: u64,
    /// Microseconds spent queued before the owning flush started.
    pub queue_us: u64,
    /// Microseconds inside `apply_batch` + WAL append.
    pub apply_us: u64,
    /// Microseconds from engine completion to the ack leaving the owner.
    pub ack_us: u64,
    /// End-to-end microseconds.
    pub total_us: u64,
}

impl SlowSpan {
    fn to_json(&self) -> String {
        format!(
            "{{\"req\":{},\"conn\":{},\"kind\":\"{}\",\"epoch\":{},\"queue_us\":{},\"apply_us\":{},\"ack_us\":{},\"total_us\":{}}}",
            self.req, self.conn, self.kind, self.epoch, self.queue_us, self.apply_us,
            self.ack_us, self.total_us
        )
    }
}

/// The worst-N ring: requests only enter when they beat the current
/// N-th worst total, so the lock hold in steady state is one comparison.
#[derive(Debug)]
pub struct SlowRing {
    worst: Mutex<Vec<SlowSpan>>,
}

impl SlowRing {
    pub(crate) fn new() -> SlowRing {
        SlowRing { worst: Mutex::new(Vec::with_capacity(SLOW_RING_CAPACITY)) }
    }

    /// Offers a completed span; it is kept iff it ranks in the worst N.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn note(
        &self,
        req: u64,
        conn: u64,
        kind: &'static str,
        epoch: u64,
        queue_us: u64,
        apply_us: u64,
        ack_us: u64,
        total_us: u64,
    ) {
        let mut w = self.worst.lock().expect("slow ring lock");
        if w.len() == SLOW_RING_CAPACITY
            && w.last().map(|s| s.total_us >= total_us).unwrap_or(false)
        {
            return;
        }
        let span = SlowSpan {
            req,
            conn,
            kind: kind.to_string(),
            epoch,
            queue_us,
            apply_us,
            ack_us,
            total_us,
        };
        let at = w.partition_point(|s| s.total_us >= total_us);
        w.insert(at, span);
        w.truncate(SLOW_RING_CAPACITY);
    }

    /// The current worst-N, slowest first.
    pub fn snapshot(&self) -> Vec<SlowSpan> {
        self.worst.lock().expect("slow ring lock").clone()
    }
}

/// State shared between the ingest path, the engine owner, and the ops
/// threads. Lives in an `Arc` owned by [`crate::Matchd`].
#[derive(Debug)]
pub struct OpsShared {
    /// Latched false by the first audit violation.
    pub(crate) audit_clean: AtomicBool,
    /// Worst-N completed request spans.
    pub(crate) slow: SlowRing,
    /// Daemon start instant (uptime base).
    pub(crate) started: Instant,
}

impl OpsShared {
    pub(crate) fn new() -> OpsShared {
        OpsShared {
            audit_clean: AtomicBool::new(true),
            slow: SlowRing::new(),
            started: Instant::now(),
        }
    }
}

/// The `/status` document: everything an operator (or `owp-inspect
/// ops`) needs in one scrape. Serialized by [`OpsStatus::to_json`] and
/// parsed back by [`OpsStatus::parse`] — the parser is keyed to this
/// emitter, not a general JSON reader.
#[derive(Clone, Debug, PartialEq)]
pub struct OpsStatus {
    /// Engine epoch of the published view.
    pub epoch: u64,
    /// ΣS of the published view.
    pub sigma_s: f64,
    /// Active node count.
    pub active: u32,
    /// Matched edge count.
    pub matched: u32,
    /// Submissions queued between acceptors and the engine owner.
    pub queue_depth: u64,
    /// The bounded queue's capacity.
    pub queue_capacity: u64,
    /// Bytes currently in the WAL.
    pub wal_bytes: u64,
    /// Records currently in the WAL.
    pub wal_records: u64,
    /// Epoch of the newest durable snapshot (0 before the first).
    pub snapshot_epoch: u64,
    /// Epochs elapsed since that snapshot (view epoch − snapshot epoch).
    pub snapshot_age_epochs: u64,
    /// Connections currently served.
    pub connections: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections_total: u64,
    /// Wire frames decoded over the daemon's lifetime.
    pub requests_total: u64,
    /// Milliseconds since the daemon started serving.
    pub uptime_ms: u64,
    /// Current `/readyz` verdict.
    pub ready: bool,
    /// `false` once any audit pass found a violation (latched).
    pub audit_clean: bool,
    /// Clean continuous-audit passes so far.
    pub audit_passes: u64,
    /// Failed continuous-audit passes so far.
    pub audit_failures: u64,
    /// Engine epoch of the most recent completed audit pass.
    pub last_audit_epoch: u64,
    /// Forensic bundles spooled by the auditor.
    pub bundles_spooled: u64,
    /// Build provenance: the compiler that produced this daemon.
    pub rustc: String,
    /// The slow-request ring, slowest first.
    pub slow: Vec<SlowSpan>,
}

impl OpsStatus {
    /// One JSON object. The `slow` array is emitted last so the scalar
    /// fields parse unambiguously (slow spans reuse key names).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"epoch\":{},\"sigma_s\":{:.6},\"active\":{},\"matched\":{},\
             \"queue_depth\":{},\"queue_capacity\":{},\"wal_bytes\":{},\"wal_records\":{},\
             \"snapshot_epoch\":{},\"snapshot_age_epochs\":{},\
             \"connections\":{},\"connections_total\":{},\"requests_total\":{},\
             \"uptime_ms\":{},\"ready\":{},\"audit_clean\":{},\
             \"audit_passes\":{},\"audit_failures\":{},\"last_audit_epoch\":{},\
             \"bundles_spooled\":{},\"rustc\":\"{}\",\"slow\":[",
            self.epoch,
            self.sigma_s,
            self.active,
            self.matched,
            self.queue_depth,
            self.queue_capacity,
            self.wal_bytes,
            self.wal_records,
            self.snapshot_epoch,
            self.snapshot_age_epochs,
            self.connections,
            self.connections_total,
            self.requests_total,
            self.uptime_ms,
            self.ready,
            self.audit_clean,
            self.audit_passes,
            self.audit_failures,
            self.last_audit_epoch,
            self.bundles_spooled,
            self.rustc.replace('\\', "\\\\").replace('"', "\\\""),
        );
        for (i, span) in self.slow.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&span.to_json());
        }
        s.push_str("]}");
        s
    }

    /// Parses a document produced by [`OpsStatus::to_json`].
    pub fn parse(doc: &str) -> Result<OpsStatus, String> {
        let slow_at = doc.find("\"slow\":[").ok_or("missing slow array")?;
        let head = &doc[..slow_at];
        let num = |key: &str| -> Result<u64, String> {
            scalar(head, key)?.parse().map_err(|e| format!("field {key}: {e}"))
        };
        let f64v = |key: &str| -> Result<f64, String> {
            scalar(head, key)?.parse().map_err(|e| format!("field {key}: {e}"))
        };
        let boolean = |key: &str| -> Result<bool, String> {
            match scalar(head, key)? {
                "true" => Ok(true),
                "false" => Ok(false),
                other => Err(format!("field {key}: {other:?} is not a bool")),
            }
        };
        let rustc = {
            let tag = "\"rustc\":\"";
            let at = head.find(tag).ok_or("missing rustc")? + tag.len();
            let end = head[at..].find('"').ok_or("unterminated rustc")?;
            head[at..at + end].replace("\\\"", "\"").replace("\\\\", "\\")
        };
        let tail = &doc[slow_at + "\"slow\":[".len()..];
        let close = tail.rfind(']').ok_or("unterminated slow array")?;
        let mut slow = Vec::new();
        for obj in tail[..close].split("},") {
            let obj = obj.trim().trim_start_matches('{').trim_end_matches('}');
            if obj.is_empty() {
                continue;
            }
            let get = |key: &str| -> Result<&str, String> { scalar(obj, key) };
            let kind = {
                let tag = "\"kind\":\"";
                let at = obj.find(tag).ok_or("missing span kind")? + tag.len();
                let end = obj[at..].find('"').ok_or("unterminated span kind")?;
                obj[at..at + end].to_string()
            };
            slow.push(SlowSpan {
                req: get("req")?.parse().map_err(|e| format!("span req: {e}"))?,
                conn: get("conn")?.parse().map_err(|e| format!("span conn: {e}"))?,
                kind,
                epoch: get("epoch")?.parse().map_err(|e| format!("span epoch: {e}"))?,
                queue_us: get("queue_us")?.parse().map_err(|e| format!("span queue_us: {e}"))?,
                apply_us: get("apply_us")?.parse().map_err(|e| format!("span apply_us: {e}"))?,
                ack_us: get("ack_us")?.parse().map_err(|e| format!("span ack_us: {e}"))?,
                total_us: get("total_us")?.parse().map_err(|e| format!("span total_us: {e}"))?,
            });
        }
        Ok(OpsStatus {
            epoch: num("epoch")?,
            sigma_s: f64v("sigma_s")?,
            active: num("active")? as u32,
            matched: num("matched")? as u32,
            queue_depth: num("queue_depth")?,
            queue_capacity: num("queue_capacity")?,
            wal_bytes: num("wal_bytes")?,
            wal_records: num("wal_records")?,
            snapshot_epoch: num("snapshot_epoch")?,
            snapshot_age_epochs: num("snapshot_age_epochs")?,
            connections: num("connections")?,
            connections_total: num("connections_total")?,
            requests_total: num("requests_total")?,
            uptime_ms: num("uptime_ms")?,
            ready: boolean("ready")?,
            audit_clean: boolean("audit_clean")?,
            audit_passes: num("audit_passes")?,
            audit_failures: num("audit_failures")?,
            last_audit_epoch: num("last_audit_epoch")?,
            bundles_spooled: num("bundles_spooled")?,
            rustc,
            slow,
        })
    }
}

/// Extracts the raw token following `"key":` in `doc` (terminated by
/// `,`, `}`, or end). Errors if the key is absent.
fn scalar<'d>(doc: &'d str, key: &str) -> Result<&'d str, String> {
    let tag = format!("\"{key}\":");
    let at = doc.find(&tag).ok_or_else(|| format!("missing field {key}"))? + tag.len();
    let rest = &doc[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Ok(rest[..end].trim())
}

/// Everything the ops threads need, bundled once at spawn.
pub(crate) struct OpsCtx {
    pub registry: MetricsRegistry,
    pub view: crate::view::SharedView,
    pub depth: Arc<AtomicUsize>,
    pub ingest: SyncSender<Ingest>,
    pub shared: Arc<OpsShared>,
    pub stop: Arc<AtomicBool>,
    pub queue_capacity: usize,
    pub ready_watermark: f64,
    pub audit_every: Duration,
    pub spool_dir: Option<PathBuf>,
}

/// A running ops plane; joined by [`crate::Matchd`] at shutdown.
pub(crate) struct OpsHandle {
    pub addr: SocketAddr,
    pub listener: JoinHandle<()>,
    pub auditor: JoinHandle<()>,
}

impl OpsCtx {
    fn queue_high(&self) -> usize {
        ((self.queue_capacity as f64) * self.ready_watermark).ceil() as usize
    }

    /// The readiness predicate behind `/readyz`: every audit pass so far
    /// clean, and the ingest queue below the high-watermark.
    fn ready(&self) -> (bool, &'static str) {
        if !self.shared.audit_clean.load(Ordering::SeqCst) {
            return (false, "audit violation latched; inspect the spool dir\n");
        }
        if self.depth.load(Ordering::SeqCst) >= self.queue_high() {
            return (false, "ingest queue above high-watermark\n");
        }
        (true, "ready\n")
    }

    fn status(&self) -> OpsStatus {
        let view = self.view.lock().expect("view lock").clone();
        let g = |key: &'static str| self.registry.gauge(key).get();
        let c = |key: &'static str| self.registry.counter(key).get();
        let (ready, _) = self.ready();
        let snapshot_epoch = g(owp_metrics::MATCHD_SNAPSHOT_EPOCH) as u64;
        OpsStatus {
            epoch: view.epoch,
            sigma_s: view.sigma_s,
            active: view.active,
            matched: view.matched,
            queue_depth: self.depth.load(Ordering::SeqCst) as u64,
            queue_capacity: self.queue_capacity as u64,
            wal_bytes: g(owp_metrics::MATCHD_WAL_BYTES) as u64,
            wal_records: g(owp_metrics::MATCHD_WAL_RECORDS) as u64,
            snapshot_epoch,
            snapshot_age_epochs: view.epoch.saturating_sub(snapshot_epoch),
            connections: g(owp_metrics::MATCHD_CONNECTIONS) as u64,
            connections_total: c(owp_metrics::MATCHD_CONNECTIONS_TOTAL),
            requests_total: c(owp_metrics::MATCHD_REQUESTS_TOTAL),
            uptime_ms: self.shared.started.elapsed().as_millis() as u64,
            ready,
            audit_clean: self.shared.audit_clean.load(Ordering::SeqCst),
            audit_passes: c(owp_metrics::MATCHD_AUDIT_PASSES),
            audit_failures: c(owp_metrics::MATCHD_AUDIT_FAILURES),
            last_audit_epoch: g(owp_metrics::MATCHD_AUDIT_LAST_EPOCH) as u64,
            bundles_spooled: c(owp_metrics::MATCHD_BUNDLES_SPOOLED),
            rustc: owp_engine::forensics::RUSTC_VERSION.to_string(),
            slow: self.shared.slow.snapshot(),
        }
    }
}

/// Binds the admin listener and spawns the two ops threads. Called by
/// [`crate::Matchd::start`] when `ops_addr` is configured; a bind
/// failure fails daemon startup (an ops plane you asked for but did not
/// get is worse than none).
pub(crate) fn spawn<A: ToSocketAddrs>(addr: A, ctx: OpsCtx) -> Result<OpsHandle, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind ops addr: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set ops listener nonblocking: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("no ops local addr: {e}"))?;
    let ctx = Arc::new(ctx);

    // The daemon is ready-at-start by construction: Matchd::start only
    // returns after recovery certified, and no audit has failed yet.
    ctx.registry.gauge(owp_metrics::MATCHD_READY).set(1.0);
    ctx.registry.gauge(owp_metrics::MATCHD_AUDIT_CLEAN).set(1.0);

    let listener_thread = {
        let ctx = Arc::clone(&ctx);
        std::thread::Builder::new()
            .name("matchd-ops".into())
            .spawn(move || listener_loop(listener, ctx))
            .map_err(|e| format!("cannot spawn ops listener: {e}"))?
    };
    let auditor_thread = {
        let ctx = Arc::clone(&ctx);
        std::thread::Builder::new()
            .name("matchd-audit".into())
            .spawn(move || auditor_loop(ctx))
            .map_err(|e| format!("cannot spawn continuous auditor: {e}"))?
    };
    Ok(OpsHandle { addr: local, listener: listener_thread, auditor: auditor_thread })
}

fn listener_loop(listener: TcpListener, ctx: Arc<OpsCtx>) {
    while !ctx.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let ctx = Arc::clone(&ctx);
                let _ = std::thread::Builder::new()
                    .name("matchd-ops-conn".into())
                    .spawn(move || serve_one(stream, ctx));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn serve_one(mut stream: std::net::TcpStream, ctx: Arc<OpsCtx>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    ctx.registry.counter(owp_metrics::MATCHD_OPS_REQUESTS).inc();
    let req = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(http::HttpError::Eof) => return,
        Err(e) => {
            let _ = http::respond(&mut stream, 400, "text/plain", &format!("{e}\n"));
            return;
        }
    };
    if req.method != "GET" {
        let _ = http::respond(&mut stream, 405, "text/plain", "admin plane is GET-only\n");
        return;
    }
    match req.path.as_str() {
        "/metrics" => {
            let body = ctx.registry.snapshot().to_prometheus();
            let _ = http::respond(&mut stream, 200, "text/plain; version=0.0.4", &body);
        }
        "/healthz" => {
            let _ = http::respond(&mut stream, 200, "text/plain", "ok\n");
        }
        "/readyz" => {
            let (ready, why) = ctx.ready();
            ctx.registry
                .gauge(owp_metrics::MATCHD_READY)
                .set(if ready { 1.0 } else { 0.0 });
            let status = if ready { 200 } else { 503 };
            let _ = http::respond(&mut stream, status, "text/plain", why);
        }
        "/status" => {
            let _ = http::respond(&mut stream, 200, "application/json", &ctx.status().to_json());
        }
        other => {
            let _ = http::respond(
                &mut stream,
                404,
                "text/plain",
                &format!("no route {other}; try /metrics /healthz /readyz /status\n"),
            );
        }
    }
}

/// The auditor's cached independent re-derivation of the universe
/// [`Problem`]. Rebuilt only when a probe's *structure* — edge list,
/// quotas, preference lists — differs from the snapshot the cache was
/// built from; in steady state consecutive probes differ only in
/// membership flags and the matched set, and the audit runs masked
/// against this cache without reconstructing anything.
struct UniverseCache {
    origin: OriginSnapshot,
    problem: Problem,
}

/// What one audit pass produced.
struct AuditOutcome {
    violations: usize,
    reason: String,
    /// Time spent (re)deriving the universe cache this pass — one-off
    /// structural work, excluded from the duty-cycle cap.
    rebuild: Duration,
}

impl AuditOutcome {
    fn failed(reason: String, rebuild: Duration) -> Self {
        AuditOutcome { violations: 1, reason, rebuild }
    }
}

/// One audit pass over a probe: re-derive the universe from the
/// epoch-stamped snapshot if its structure changed (otherwise reuse the
/// cache), parse the membership flags, and run the masked live audit of
/// the alive sub-instance directly in universe edge ids.
fn audit_probe(
    probe: &AuditProbe,
    reg: &MetricsRegistry,
    cache: &mut Option<UniverseCache>,
) -> AuditOutcome {
    let mut rebuild = Duration::ZERO;
    if !cache.as_ref().is_some_and(|c| c.origin.same_structure(&probe.origin)) {
        let t = Instant::now();
        let problem = match probe.origin.restore_universe() {
            Ok(p) => p,
            Err(e) => {
                return AuditOutcome::failed(
                    format!("probe snapshot does not restore: {e}"),
                    Duration::ZERO,
                )
            }
        };
        *cache = Some(UniverseCache { origin: probe.origin.clone(), problem });
        rebuild = t.elapsed();
    }
    let cache = cache.as_ref().expect("universe cache populated above");
    let g = &cache.problem.graph;
    let (active, present) = match probe.origin.flags() {
        Ok(f) => f,
        Err(e) => {
            return AuditOutcome::failed(
                format!("probe snapshot does not restore: {e}"),
                rebuild,
            )
        }
    };
    let alive: Vec<bool> = g
        .edges()
        .map(|e| {
            let (u, v) = g.endpoints(e);
            present[e.index()] && active[u.index()] && active[v.index()]
        })
        .collect();
    let mut m = BMatching::empty(g);
    for &e in &probe.matched {
        if !alive.get(e.index()).copied().unwrap_or(false) {
            return AuditOutcome::failed(
                format!("selected edge {} is not alive in the probed instance", e.0),
                rebuild,
            );
        }
        m.insert_unchecked(g, e);
    }
    let mut auditor = Auditor::new(reg);
    let added = auditor.audit_live_masked(&cache.problem, &alive, &m, probe.epoch);
    let reason = if added == 0 {
        String::new()
    } else {
        auditor
            .report()
            .first()
            .map(|v| format!("{} at epoch {}: {}", v.kind.tag(), probe.epoch, v.detail))
            .unwrap_or_else(|| "audit violation".into())
    };
    AuditOutcome { violations: added, reason, rebuild }
}

/// How much farther out than its own recurring cost each audit cycle is
/// scheduled: with the next cycle at least `99 ×` the cost of the last one
/// away, the auditor's duty cycle stays under 1% of a core no matter how
/// big the instance or how slow the machine — the cadence knob
/// (`--audit-every-ms`) is a *floor*, the cap is the guarantee. One-off
/// universe rebuilds (first probe, structural change) are excluded: they
/// are not recurring load.
const AUDIT_DUTY_FACTOR: u32 = 99;

fn auditor_loop(ctx: Arc<OpsCtx>) {
    let passes: Counter = ctx.registry.counter(owp_metrics::MATCHD_AUDIT_PASSES);
    let failures: Counter = ctx.registry.counter(owp_metrics::MATCHD_AUDIT_FAILURES);
    let last_epoch: Gauge = ctx.registry.gauge(owp_metrics::MATCHD_AUDIT_LAST_EPOCH);
    let cost_g: Gauge = ctx.registry.gauge(owp_metrics::MATCHD_AUDIT_COST_US);
    let clean_g: Gauge = ctx.registry.gauge(owp_metrics::MATCHD_AUDIT_CLEAN);
    let ready_g: Gauge = ctx.registry.gauge(owp_metrics::MATCHD_READY);
    let spooled: Counter = ctx.registry.counter(owp_metrics::MATCHD_BUNDLES_SPOOLED);
    let mut cache: Option<UniverseCache> = None;
    let mut next = Instant::now() + ctx.audit_every;
    while !ctx.stop.load(Ordering::SeqCst) {
        if Instant::now() < next {
            std::thread::sleep(Duration::from_millis(10).min(ctx.audit_every));
            continue;
        }
        next = Instant::now() + ctx.audit_every;

        let cycle = Instant::now();
        let (tx, rx) = std::sync::mpsc::channel();
        match ctx.ingest.try_send(Ingest::Probe(tx)) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => continue, // saturated: skip a round
            Err(TrySendError::Disconnected(_)) => return, // owner gone
        }
        let probe = match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(p) => p,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let out = audit_probe(&probe, &ctx.registry, &mut cache);
        // Duty-cycle cap: schedule the next cycle at least
        // `AUDIT_DUTY_FACTOR ×` this cycle's recurring cost out. The
        // rendezvous wait is included on purpose — a loaded owner flushes
        // slowly, and backing off under load is the point.
        let recurring = cycle.elapsed().saturating_sub(out.rebuild);
        cost_g.set(recurring.as_micros() as f64);
        next = Instant::now() + ctx.audit_every.max(recurring * AUDIT_DUTY_FACTOR);
        let (violations, reason) = (out.violations, out.reason);
        last_epoch.set(probe.epoch as f64);
        if violations == 0 {
            passes.inc();
            continue;
        }
        failures.inc();
        // Escalate: latch readiness off, pull a forensic bundle from the
        // live engine, and spool it for offline replay.
        ctx.shared.audit_clean.store(false, Ordering::SeqCst);
        clean_g.set(0.0);
        ready_g.set(0.0);
        let (btx, brx) = std::sync::mpsc::channel();
        if ctx.ingest.send(Ingest::Capture { reason: reason.clone(), reply: btx }).is_ok() {
            if let Ok(bundle) = brx.recv_timeout(Duration::from_secs(10)) {
                if let Some(dir) = &ctx.spool_dir {
                    match bundle.spool(dir) {
                        Ok(path) => {
                            spooled.inc();
                            eprintln!(
                                "matchd: AUDIT VIOLATION ({reason}); bundle spooled to {}",
                                path.display()
                            );
                        }
                        Err(e) => eprintln!(
                            "matchd: AUDIT VIOLATION ({reason}); spool failed: {e}"
                        ),
                    }
                } else {
                    eprintln!("matchd: AUDIT VIOLATION ({reason}); no spool dir configured");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OpsStatus {
        OpsStatus {
            epoch: 42,
            sigma_s: 12.345678,
            active: 100,
            matched: 55,
            queue_depth: 3,
            queue_capacity: 1024,
            wal_bytes: 2048,
            wal_records: 7,
            snapshot_epoch: 40,
            snapshot_age_epochs: 2,
            connections: 4,
            connections_total: 9,
            requests_total: 1234,
            uptime_ms: 98765,
            ready: true,
            audit_clean: true,
            audit_passes: 11,
            audit_failures: 0,
            last_audit_epoch: 41,
            bundles_spooled: 0,
            rustc: "rustc 1.80.0 (test)".into(),
            slow: vec![
                SlowSpan {
                    req: 900,
                    conn: 2,
                    kind: "SUBMIT".into(),
                    epoch: 41,
                    queue_us: 120,
                    apply_us: 340,
                    ack_us: 15,
                    total_us: 520,
                },
                SlowSpan {
                    req: 7,
                    conn: 1,
                    kind: "QUERY_EPOCH".into(),
                    epoch: 40,
                    queue_us: 0,
                    apply_us: 0,
                    ack_us: 0,
                    total_us: 90,
                },
            ],
        }
    }

    #[test]
    fn status_round_trips() {
        let s = sample();
        let back = OpsStatus::parse(&s.to_json()).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn status_round_trips_empty_ring_and_not_ready() {
        let mut s = sample();
        s.slow.clear();
        s.ready = false;
        s.audit_clean = false;
        s.audit_failures = 3;
        let back = OpsStatus::parse(&s.to_json()).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(OpsStatus::parse("").is_err());
        assert!(OpsStatus::parse("{}").is_err());
        assert!(OpsStatus::parse("{\"epoch\":1,\"slow\":[").is_err());
    }

    #[test]
    fn slow_ring_keeps_the_worst_n() {
        let ring = SlowRing::new();
        for i in 0..(SLOW_RING_CAPACITY as u64 + 20) {
            ring.note(i, 1, "SUBMIT", i, 0, 0, 0, i * 10);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), SLOW_RING_CAPACITY);
        // Slowest first, and only the largest totals survived.
        assert!(snap.windows(2).all(|w| w[0].total_us >= w[1].total_us));
        assert_eq!(snap[0].total_us, (SLOW_RING_CAPACITY as u64 + 19) * 10);
        assert!(snap.iter().all(|s| s.total_us >= 200));
    }
}
