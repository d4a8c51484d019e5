//! The daemon: acceptor → bounded queue → engine owner → published view.
//!
//! Thread layout (DESIGN.md §13):
//!
//! * one **acceptor** thread polls a non-blocking listener and spawns a
//!   handler thread per connection (`std::net`, no async runtime);
//! * handler threads decode frames, answer **reads** directly from the
//!   epoch-stamped published view (an `Arc` swap — readers never touch
//!   the engine), and forward **submissions** into a bounded
//!   `sync_channel`; a full channel is answered `BUSY` + retry-after
//!   *without blocking* — that is the admission control;
//! * a single **engine owner** thread drains the channel, batching
//!   adaptively: a batch flushes when it reaches
//!   [`MatchdConfig::max_batch`] events or when the oldest queued
//!   submission has lingered [`MatchdConfig::max_linger`] — the
//!   latency/throughput knob. Each flush applies the merged batch,
//!   appends it to the WAL, *then* acknowledges every submitter, so an
//!   acknowledged write is always recoverable.
//!
//! If a merged batch fails engine validation the owner falls back to
//! applying each submission separately: good submissions commit with
//! their own epochs, bad ones are `REJECTED` with the engine's error,
//! and one client's invalid event can never poison another's.

use crate::codec::{self, CodecError, Frame, PROTO_VERSION};
use crate::ops::{self, OpsCtx, OpsHandle, OpsShared};
use crate::recovery::recover;
use crate::snapshot::SnapshotStore;
use crate::wal::{FsyncPolicy, Wal};
use crate::view::{DirtyPages, Publisher, SharedView, View};
use owp_engine::{
    DeltaReport, Engine, EngineError, EngineEvent, ForensicBundle, InjectedFault, OriginSnapshot,
};
use owp_graph::EdgeId;
use owp_metrics::{
    Counter, Gauge, Histogram, MetricsRegistry, MATCHD_ADMISSION_REJECTS, MATCHD_BATCH_EVENTS,
    MATCHD_BATCH_LINGER_US, MATCHD_CONNECTIONS, MATCHD_CONNECTIONS_TOTAL, MATCHD_QUEUE_DEPTH,
    MATCHD_REQUESTS_TOTAL, MATCHD_REQ_CONTROL_US, MATCHD_REQ_QUERY_US, MATCHD_REQ_SUBMIT_US,
    MATCHD_SNAPSHOT_EPOCH, MATCHD_SPAN_ACK_US, MATCHD_SPAN_APPLY_US, MATCHD_SPAN_PUBLISH_US,
    MATCHD_SPAN_QUEUE_US, MATCHD_WAL_BYTES, MATCHD_WAL_RECORDS,
};
use owp_telemetry::{EventLog, MessageKind, Recorder, TelemetryEvent};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration. `Default` is a reasonable latency-leaning
/// middle ground; the bench driver sweeps the knobs.
#[derive(Clone, Debug)]
pub struct MatchdConfig {
    /// Directory holding `matchd.wal` and `snapshot.bin`.
    pub data_dir: PathBuf,
    /// Flush a batch once it holds this many events.
    pub max_batch: usize,
    /// Flush a batch once its oldest submission is this old.
    pub max_linger: Duration,
    /// Bounded ingest queue capacity (submissions, not events); beyond
    /// it, admission control answers `BUSY`.
    pub queue_capacity: usize,
    /// Take a snapshot (and reset the WAL) every this many epochs;
    /// 0 disables snapshots entirely.
    pub snapshot_every: u64,
    /// WAL fsync policy.
    pub fsync: FsyncPolicy,
    /// Record codec-level wire telemetry + the engine trace into an
    /// [`EventLog`] returned by [`MatchdStats::trace`].
    pub trace: bool,
    /// Bind the ops plane (admin HTTP endpoint + continuous auditor) on
    /// this address (`"127.0.0.1:0"` picks an ephemeral port). `None`
    /// disables the ops plane entirely — the ingest path then pays no
    /// span bookkeeping beyond the lock-free histogram observations.
    pub ops_addr: Option<String>,
    /// How often the continuous auditor probes the engine owner.
    pub audit_every: Duration,
    /// Where the auditor spools [`ForensicBundle`]s on a violation;
    /// `None` still latches `/readyz` to 503 but keeps no bundle.
    pub spool_dir: Option<PathBuf>,
    /// `/readyz` turns 503 once the ingest queue reaches this fraction
    /// of [`MatchdConfig::queue_capacity`].
    pub ready_watermark: f64,
}

impl MatchdConfig {
    /// Defaults rooted at `data_dir`.
    pub fn new(data_dir: impl Into<PathBuf>) -> MatchdConfig {
        MatchdConfig {
            data_dir: data_dir.into(),
            max_batch: 256,
            max_linger: Duration::from_micros(2000),
            queue_capacity: 1024,
            snapshot_every: 256,
            fsync: FsyncPolicy::OnSnapshot,
            trace: false,
            ops_addr: None,
            audit_every: Duration::from_millis(200),
            spool_dir: None,
            ready_watermark: 0.9,
        }
    }
}

type Reply = Result<u64, String>;

pub(crate) struct Submission {
    events: Vec<EngineEvent>,
    enqueued: Instant,
    conn: u64,
    /// Daemon-wide request id of the carrying frame (the span key).
    req: u64,
    bytes: u32,
    reply: Sender<Reply>,
}

/// An epoch-stamped copy of the engine's live state, captured by the
/// owner at a batch boundary for the continuous auditor. Restoring the
/// [`OriginSnapshot`] happens on the auditor thread — the owner only
/// pays the O(n + m) copy.
pub(crate) struct AuditProbe {
    /// Engine epoch the probe reflects.
    pub(crate) epoch: u64,
    /// Full dynamic-problem state (graph, prefs, quotas, membership).
    pub(crate) origin: OriginSnapshot,
    /// Universe edge ids currently selected by the maintained matching.
    pub(crate) matched: Vec<EdgeId>,
}

pub(crate) enum Ingest {
    Submit(Submission),
    /// Continuous-auditor rendezvous: the owner flushes any pending
    /// batch, then answers with an [`AuditProbe`] of the applied state.
    Probe(Sender<AuditProbe>),
    /// Escalation rendezvous: capture a [`ForensicBundle`] from the
    /// live engine (trigger `"audit"`).
    Capture {
        reason: String,
        reply: Sender<ForensicBundle>,
    },
    /// Chaos hook: corrupt the live engine through
    /// [`owp_engine::Engine::inject_fault`], then ack. The next audit
    /// pass (and final certification) will catch the damage.
    Inject(InjectedFault, Sender<()>),
    /// Graceful stop: flush, snapshot, certify.
    Shutdown,
    /// Crash simulation: stop *now*, dropping pending submissions —
    /// nothing past the last WAL append survives, exactly like SIGKILL.
    Abort,
}

/// What the owner thread hands back when it stops.
struct OwnerExit {
    engine: Engine,
    batches: u64,
    graceful: bool,
    certify: Result<(), String>,
    trace: Option<EventLog>,
}

/// Final daemon state, returned by [`Matchd::shutdown`] /
/// [`Matchd::abort`] / [`Matchd::wait`].
pub struct MatchdStats {
    /// Final engine epoch.
    pub epoch: u64,
    /// Final ΣS.
    pub sigma_s: f64,
    /// Batches flushed over the daemon's lifetime (this run).
    pub batches: u64,
    /// `true` for a clean shutdown, `false` for [`Matchd::abort`].
    pub graceful: bool,
    /// Certification of the final state (always computed, even on abort).
    pub certify: Result<(), String>,
    /// Wire + engine telemetry, when [`MatchdConfig::trace`] was on.
    pub trace: Option<EventLog>,
    /// The final engine itself, for tests and experiments.
    pub engine: Engine,
}

/// A running daemon. Start with [`Matchd::start`]; stop with
/// [`Matchd::shutdown`] (graceful) or [`Matchd::abort`] (simulated
/// crash), or [`Matchd::wait`] for a client-initiated shutdown.
pub struct Matchd {
    addr: SocketAddr,
    ingest: SyncSender<Ingest>,
    owner: JoinHandle<OwnerExit>,
    acceptor: JoinHandle<()>,
    stop: Arc<AtomicBool>,
    ops: Option<OpsHandle>,
    /// Epoch recovered from snapshot + WAL before serving.
    pub recovered_epoch: u64,
    /// WAL records replayed during recovery.
    pub replayed: usize,
    /// Torn-tail bytes truncated from the WAL on open.
    pub torn_bytes: u64,
}

/// A detachable shutdown trigger: lets a signal-watcher (or any other
/// thread) request the same graceful drain a client `SHUTDOWN` frame
/// produces, while the main thread blocks in [`Matchd::wait`].
#[derive(Clone)]
pub struct ShutdownHandle {
    ingest: SyncSender<Ingest>,
    stop: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Asks the daemon to drain, snapshot, fsync, and exit. Idempotent;
    /// safe to call after the daemon already stopped.
    pub fn request_shutdown(&self) {
        let _ = self.ingest.send(Ingest::Shutdown);
        self.stop.store(true, Ordering::SeqCst);
    }
}

struct ConnCtx {
    ingest: SyncSender<Ingest>,
    view: SharedView,
    registry: MetricsRegistry,
    depth: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    rejects: Counter,
    retry_ms: u32,
    nodes: u32,
    /// Daemon-wide monotone request id source (one id per decoded frame).
    req_ids: AtomicU64,
    /// Live handler-thread count backing the connections gauge.
    live: AtomicUsize,
    requests_total: Counter,
    req_submit_us: Histogram,
    req_query_us: Histogram,
    req_control_us: Histogram,
    conns: Gauge,
    conns_total: Counter,
    shared: Arc<OpsShared>,
}

impl ConnCtx {
    fn view(&self) -> Arc<View> {
        self.view.lock().expect("view lock").clone()
    }
}

/// Keeps the live-connection gauge honest however the handler returns.
struct ConnGuard<'a>(&'a ConnCtx);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        let now = self.0.live.fetch_sub(1, Ordering::SeqCst) - 1;
        self.0.conns.set(now as f64);
    }
}

impl Matchd {
    /// Recovers `config.data_dir` (certifying the result), binds `addr`
    /// (`"127.0.0.1:0"` picks an ephemeral port), and starts serving.
    /// Recovery failure means no socket is ever bound.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        universe: &owp_matching::Problem,
        config: MatchdConfig,
        registry: MetricsRegistry,
    ) -> Result<Matchd, String> {
        owp_metrics::register_matchd_metrics(&registry);
        let rec = recover(&config.data_dir, universe, config.fsync)?;
        let recovered_epoch = rec.engine.epoch().0;
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind: {e}"))?;
        listener.set_nonblocking(true).map_err(|e| format!("cannot set nonblocking: {e}"))?;
        let local = listener.local_addr().map_err(|e| format!("no local addr: {e}"))?;
        let view: SharedView = Arc::new(Mutex::new(Arc::new(View::from_engine(&rec.engine))));
        let stop = Arc::new(AtomicBool::new(false));
        let depth = Arc::new(AtomicUsize::new(0));
        let shared = Arc::new(OpsShared::new());
        let (tx, rx) = sync_channel::<Ingest>(config.queue_capacity);
        let nodes = universe.graph.node_count() as u32;

        let owner = {
            let owner = Owner::new(
                rec.engine,
                rec.wal,
                Arc::clone(&view),
                Arc::clone(&shared),
                registry.clone(),
                config.clone(),
            );
            let depth = Arc::clone(&depth);
            std::thread::Builder::new()
                .name("matchd-engine".into())
                .spawn(move || owner_loop(owner, rx, depth))
                .map_err(|e| format!("cannot spawn engine owner: {e}"))?
        };

        let acceptor = {
            let ctx = Arc::new(ConnCtx {
                ingest: tx.clone(),
                view: Arc::clone(&view),
                registry: registry.clone(),
                depth: Arc::clone(&depth),
                stop: Arc::clone(&stop),
                rejects: registry.counter(MATCHD_ADMISSION_REJECTS),
                retry_ms: (config.max_linger.as_millis() as u32).max(1),
                nodes,
                req_ids: AtomicU64::new(0),
                live: AtomicUsize::new(0),
                requests_total: registry.counter(MATCHD_REQUESTS_TOTAL),
                req_submit_us: registry.histogram(MATCHD_REQ_SUBMIT_US),
                req_query_us: registry.histogram(MATCHD_REQ_QUERY_US),
                req_control_us: registry.histogram(MATCHD_REQ_CONTROL_US),
                conns: registry.gauge(MATCHD_CONNECTIONS),
                conns_total: registry.counter(MATCHD_CONNECTIONS_TOTAL),
                shared: Arc::clone(&shared),
            });
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("matchd-accept".into())
                .spawn(move || acceptor_loop(listener, stop, ctx))
                .map_err(|e| format!("cannot spawn acceptor: {e}"))?
        };

        let ops_handle = match &config.ops_addr {
            Some(ops_addr) => Some(ops::spawn(
                ops_addr.as_str(),
                OpsCtx {
                    registry: registry.clone(),
                    view: Arc::clone(&view),
                    depth: Arc::clone(&depth),
                    ingest: tx.clone(),
                    shared: Arc::clone(&shared),
                    stop: Arc::clone(&stop),
                    queue_capacity: config.queue_capacity,
                    ready_watermark: config.ready_watermark,
                    audit_every: config.audit_every,
                    spool_dir: config.spool_dir.clone(),
                },
            )?),
            None => None,
        };

        Ok(Matchd {
            addr: local,
            ingest: tx,
            owner,
            acceptor,
            stop,
            ops: ops_handle,
            recovered_epoch,
            replayed: rec.replayed,
            torn_bytes: rec.torn_bytes,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ops plane's bound address, when configured.
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.ops.as_ref().map(|o| o.addr)
    }

    /// A detachable trigger for a graceful stop (the signal-handler
    /// path of the `matchd` binary).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { ingest: self.ingest.clone(), stop: Arc::clone(&self.stop) }
    }

    /// Corrupts the live engine with `fault` (a chaos/testing hook —
    /// the continuous auditor and final certification are expected to
    /// catch the damage). Blocks until the owner applied it.
    pub fn inject_fault(&self, fault: InjectedFault) -> Result<(), String> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.ingest
            .send(Ingest::Inject(fault, tx))
            .map_err(|_| "daemon is shutting down".to_string())?;
        rx.recv().map_err(|_| "daemon stopped before injecting".to_string())
    }

    fn join(self) -> MatchdStats {
        let exit = self.owner.join().expect("engine owner thread panicked");
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.acceptor.join();
        if let Some(ops) = self.ops {
            let _ = ops.listener.join();
            let _ = ops.auditor.join();
        }
        MatchdStats {
            epoch: exit.engine.epoch().0,
            sigma_s: exit.engine.total_satisfaction(),
            batches: exit.batches,
            graceful: exit.graceful,
            certify: exit.certify,
            trace: exit.trace,
            engine: exit.engine,
        }
    }

    /// Graceful stop: flush pending batches, snapshot, certify, join.
    pub fn shutdown(self) -> MatchdStats {
        let _ = self.ingest.send(Ingest::Shutdown);
        self.join()
    }

    /// Simulated crash: the owner stops without flushing pending
    /// submissions, final snapshot, or sync — in-memory state is thrown
    /// away and only WAL appends that already happened survive, the
    /// same durability cut SIGKILL produces.
    pub fn abort(self) -> MatchdStats {
        let _ = self.ingest.send(Ingest::Abort);
        self.join()
    }

    /// Blocks until a *client* sends [`Frame::Shutdown`], then joins.
    pub fn wait(self) -> MatchdStats {
        self.join()
    }
}

fn acceptor_loop(listener: TcpListener, stop: Arc<AtomicBool>, ctx: Arc<ConnCtx>) {
    let mut conn_id = 0u64;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                conn_id += 1;
                let ctx = Arc::clone(&ctx);
                let id = conn_id;
                let _ = std::thread::Builder::new()
                    .name(format!("matchd-conn-{id}"))
                    .spawn(move || handle_conn(stream, ctx, id));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn handle_conn(mut stream: TcpStream, ctx: Arc<ConnCtx>, conn: u64) {
    let _ = stream.set_nodelay(true);
    ctx.conns_total.inc();
    let live_now = ctx.live.fetch_add(1, Ordering::SeqCst) + 1;
    ctx.conns.set(live_now as f64);
    let _guard = ConnGuard(&ctx);
    loop {
        let frame = match codec::read_frame(&mut stream) {
            Ok(f) => f,
            Err(CodecError::Eof) => return,
            Err(_) => return, // framing is lost; nothing safe to say
        };
        // Every decoded frame opens a request span: a daemon-wide
        // monotone id plus a wall-clock start. SUBMIT spans thread the
        // id through the ingest queue so the owner can attribute the
        // queue/apply/ack legs; read and control frames close their
        // span right here.
        let req = ctx.req_ids.fetch_add(1, Ordering::SeqCst) + 1;
        ctx.requests_total.inc();
        let span_start = Instant::now();
        let req_kind = frame.kind_label();
        let is_submit = matches!(frame, Frame::Submit { .. });
        let response = match frame {
            Frame::Hello { proto } => {
                if proto == PROTO_VERSION {
                    let v = ctx.view();
                    Frame::Welcome { proto: PROTO_VERSION, epoch: v.epoch, nodes: ctx.nodes }
                } else {
                    Frame::Rejected { error: format!("unsupported protocol version {proto}") }
                }
            }
            Frame::Submit { events } => {
                let bytes = events.len() as u32;
                let (reply_tx, reply_rx) = std::sync::mpsc::channel();
                let sub = Submission {
                    events,
                    enqueued: Instant::now(),
                    conn,
                    req,
                    bytes,
                    reply: reply_tx,
                };
                match ctx.ingest.try_send(Ingest::Submit(sub)) {
                    Ok(()) => {
                        ctx.depth.fetch_add(1, Ordering::SeqCst);
                        match reply_rx.recv() {
                            Ok(Ok(epoch)) => Frame::Accepted { epoch },
                            Ok(Err(error)) => Frame::Rejected { error },
                            Err(_) => {
                                Frame::Rejected { error: "daemon stopped before applying".into() }
                            }
                        }
                    }
                    Err(TrySendError::Full(_)) => {
                        ctx.rejects.inc();
                        Frame::Busy { retry_after_ms: ctx.retry_ms }
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        Frame::Rejected { error: "daemon is shutting down".into() }
                    }
                }
            }
            Frame::QueryMatches { node } => {
                let v = ctx.view();
                Frame::Matches { epoch: v.epoch, peers: v.matches_of(node).to_vec() }
            }
            Frame::QuerySatisfaction { node } => {
                let v = ctx.view();
                Frame::Satisfaction { epoch: v.epoch, value: v.satisfaction_of(node) }
            }
            Frame::QueryEpoch => {
                let v = ctx.view();
                Frame::EpochInfo {
                    epoch: v.epoch,
                    sigma_s: v.sigma_s,
                    active: v.active,
                    matched: v.matched,
                }
            }
            Frame::QueryMetrics => {
                Frame::Metrics { json: ctx.registry.snapshot().to_json() }
            }
            Frame::Shutdown => {
                let epoch = ctx.view().epoch;
                let _ = ctx.ingest.send(Ingest::Shutdown);
                ctx.stop.store(true, Ordering::SeqCst);
                let _ = codec::write_frame(&mut stream, &Frame::Bye { epoch });
                return;
            }
            other => Frame::Rejected {
                error: format!("unexpected {} frame from a client", other.kind_label()),
            },
        };
        if codec::write_frame(&mut stream, &response).is_err() {
            return;
        }
        let total_us = span_start.elapsed().as_micros() as u64;
        if is_submit {
            // End-to-end as the client saw it; the queue/apply/ack legs
            // (and the slow-ring entry) come from the engine owner.
            ctx.req_submit_us.observe(total_us);
        } else {
            let hist = if req_kind.starts_with("QUERY") {
                &ctx.req_query_us
            } else {
                &ctx.req_control_us
            };
            hist.observe(total_us);
            let epoch = ctx.view().epoch;
            ctx.shared.slow.note(req, conn, req_kind, epoch, 0, 0, 0, total_us);
        }
    }
}

/// The engine owner's metric handles.
struct OwnerMetrics {
    queue_depth: Gauge,
    wal_bytes: Gauge,
    wal_records: Gauge,
    snapshot_epoch: Gauge,
    linger_us: Histogram,
    batch_events: Histogram,
    span_queue_us: Histogram,
    span_apply_us: Histogram,
    span_ack_us: Histogram,
    span_publish_us: Histogram,
}

/// Everything the single engine-owner thread mutates: the engine, the
/// WAL, the batch being gathered and the view publisher.
struct Owner {
    engine: Engine,
    wal: Wal,
    trace: Option<EventLog>,
    pending: Vec<Submission>,
    pending_events: usize,
    /// The pending submissions' events, concatenated (reused per flush).
    merged: Vec<EngineEvent>,
    /// The last applied batch's report (reused per batch).
    report: DeltaReport,
    publisher: Publisher,
    batches: u64,
    last_snapshot: u64,
    store: SnapshotStore,
    config: MatchdConfig,
    shared: Arc<OpsShared>,
    registry: MetricsRegistry,
    started: Instant,
    m: OwnerMetrics,
}

/// Applies one batch, marking the view pages it dirtied; returns the
/// epoch it produced.
fn apply(
    engine: &mut Engine,
    events: &[EngineEvent],
    trace: &mut Option<EventLog>,
    report: &mut DeltaReport,
    dirty: &mut DirtyPages,
) -> Result<u64, EngineError> {
    match trace.as_mut() {
        Some(log) => engine.apply_batch_traced_into(events, log, report),
        None => engine.apply_batch_into(events, report),
    }?;
    dirty.note_batch(engine.dynamic().graph(), events, report);
    Ok(report.epoch.0)
}

impl Owner {
    fn new(
        engine: Engine,
        wal: Wal,
        view: SharedView,
        shared: Arc<OpsShared>,
        registry: MetricsRegistry,
        config: MatchdConfig,
    ) -> Owner {
        let m = OwnerMetrics {
            queue_depth: registry.gauge(MATCHD_QUEUE_DEPTH),
            wal_bytes: registry.gauge(MATCHD_WAL_BYTES),
            wal_records: registry.gauge(MATCHD_WAL_RECORDS),
            snapshot_epoch: registry.gauge(MATCHD_SNAPSHOT_EPOCH),
            linger_us: registry.histogram(MATCHD_BATCH_LINGER_US),
            batch_events: registry.histogram(MATCHD_BATCH_EVENTS),
            span_queue_us: registry.histogram(MATCHD_SPAN_QUEUE_US),
            span_apply_us: registry.histogram(MATCHD_SPAN_APPLY_US),
            span_ack_us: registry.histogram(MATCHD_SPAN_ACK_US),
            span_publish_us: registry.histogram(MATCHD_SPAN_PUBLISH_US),
        };
        m.wal_bytes.set(wal.bytes() as f64);
        m.wal_records.set(wal.records() as f64);
        Owner {
            last_snapshot: engine.epoch().0,
            engine,
            wal,
            trace: config.trace.then(EventLog::enabled),
            pending: Vec::new(),
            pending_events: 0,
            merged: Vec::new(),
            report: DeltaReport::default(),
            publisher: Publisher::new(view),
            batches: 0,
            store: SnapshotStore::new(&config.data_dir),
            config,
            shared,
            registry,
            started: Instant::now(),
            m,
        }
    }

    fn note_wal(&self) {
        self.m.wal_bytes.set(self.wal.bytes() as f64);
        self.m.wal_records.set(self.wal.records() as f64);
    }

    /// Applies and logs the pending submissions: one merged batch, or,
    /// if the merge fails validation as a whole, each submission alone,
    /// so one client's invalid event cannot poison another's. Returns
    /// each submission with its reply, not yet sent.
    fn commit(&mut self) -> Vec<(Submission, Reply)> {
        let Owner { engine, wal, trace, pending, merged, report, publisher, batches, .. } = self;
        merged.clear();
        for sub in pending.iter() {
            merged.extend_from_slice(&sub.events);
        }
        self.pending_events = 0;
        match apply(engine, merged, trace, report, &mut publisher.dirty) {
            Ok(epoch) => {
                *batches += 1;
                // On disk trouble the batch is applied but not logged:
                // refuse the ack so no client believes it durable.
                let reply = wal
                    .append(epoch, merged)
                    .map(|()| epoch)
                    .map_err(|e| format!("WAL append failed: {e}"));
                pending.drain(..).map(|sub| (sub, reply.clone())).collect()
            }
            Err(_) => pending
                .drain(..)
                .map(|sub| {
                    let one = apply(engine, &sub.events, trace, report, &mut publisher.dirty);
                    let reply = match one {
                        Ok(epoch) => match wal.append(epoch, &sub.events) {
                            Ok(()) => {
                                *batches += 1;
                                Ok(epoch)
                            }
                            Err(e) => Err(format!("WAL append failed: {e}")),
                        },
                        Err(e) => Err(e.to_string()),
                    };
                    (sub, reply)
                })
                .collect(),
        }
    }

    /// Flushes the pending batch: apply → WAL → publish → ack, then a
    /// snapshot when one is due.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.m.linger_us.observe(self.pending[0].enqueued.elapsed().as_micros() as u64);
        self.m.batch_events.observe(self.pending_events as u64);
        let started = self.started;
        let now_us = || started.elapsed().as_micros() as u64;
        if let Some(log) = self.trace.as_mut() {
            for sub in &self.pending {
                log.record(TelemetryEvent::WireFrameReceived {
                    time: now_us(),
                    conn: sub.conn,
                    req: sub.req,
                    kind: MessageKind::Other("SUBMIT"),
                    bytes: sub.bytes,
                });
            }
        }
        // The span legs: every submission in this flush shares the
        // apply leg (the engine calls + WAL appends), while its queue
        // leg is individual — enqueue to flush start. The ack leg runs
        // from the end of the apply leg, so it includes the publish.
        let flush_start = Instant::now();
        let replies = self.commit();
        let apply_done = Instant::now();
        let apply_us = apply_done.duration_since(flush_start).as_micros() as u64;
        let epoch_now = self.engine.epoch().0;
        // Replies wait until the view is published, so a client that
        // sees its ack is guaranteed to read its own write.
        self.publisher.publish(&self.engine);
        self.m.span_publish_us.observe(apply_done.elapsed().as_micros() as u64);
        for (sub, reply) in replies {
            let kind = if reply.is_ok() { "ACCEPTED" } else { "REJECTED" };
            if let Some(log) = self.trace.as_mut() {
                log.record(TelemetryEvent::WireFrameSent {
                    time: now_us(),
                    conn: sub.conn,
                    req: sub.req,
                    kind: MessageKind::Other(kind),
                    bytes: 9,
                });
            }
            let queue_us = flush_start.duration_since(sub.enqueued).as_micros() as u64;
            let ack_us = apply_done.elapsed().as_micros() as u64;
            self.m.span_queue_us.observe(queue_us);
            self.m.span_apply_us.observe(apply_us);
            self.m.span_ack_us.observe(ack_us);
            self.shared.slow.note(
                sub.req,
                sub.conn,
                "SUBMIT",
                epoch_now,
                queue_us,
                apply_us,
                ack_us,
                queue_us + apply_us + ack_us,
            );
            let _ = sub.reply.send(reply);
        }
        self.note_wal();
        let every = self.config.snapshot_every;
        if every > 0 && epoch_now - self.last_snapshot >= every {
            self.snapshot(epoch_now);
        }
    }

    /// Flushes, then corrupts the engine with `fault` and republishes
    /// the view from scratch: no batch report describes the damage.
    fn inject(&mut self, fault: InjectedFault) {
        self.flush();
        self.engine.inject_fault(fault);
        self.publisher.rebuild(&self.engine);
    }

    /// Saves a snapshot at `epoch` and resets the WAL it covers.
    fn snapshot(&mut self, epoch: u64) {
        if self.store.save(epoch, &OriginSnapshot::capture(self.engine.dynamic())).is_ok() {
            let _ = self.wal.reset();
            self.last_snapshot = epoch;
            self.m.snapshot_epoch.set(epoch as f64);
            self.note_wal();
        }
    }
}

/// The single engine-owner thread: adaptive batching, WAL-before-ack,
/// periodic snapshots, view publication.
fn owner_loop(mut owner: Owner, rx: Receiver<Ingest>, depth: Arc<AtomicUsize>) -> OwnerExit {
    let graceful = loop {
        let msg = if owner.pending.is_empty() {
            match rx.recv() {
                Ok(m) => m,
                Err(_) => break true, // all senders gone: clean stop
            }
        } else {
            let deadline = owner.pending[0].enqueued + owner.config.max_linger;
            let wait = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(wait) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => {
                    owner.flush();
                    owner.m.queue_depth.set(depth.load(Ordering::SeqCst) as f64);
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break true,
            }
        };
        match msg {
            Ingest::Submit(sub) => {
                depth.fetch_sub(1, Ordering::SeqCst);
                owner.m.queue_depth.set(depth.load(Ordering::SeqCst) as f64);
                owner.pending_events += sub.events.len();
                owner.pending.push(sub);
                if owner.pending_events >= owner.config.max_batch {
                    owner.flush();
                }
            }
            // Control rendezvous from the ops plane: flush any pending
            // batch first so the probe/capture reflects a consistent
            // state at a batch boundary, then answer on the sender the
            // requester supplied.
            Ingest::Probe(reply) => {
                owner.flush();
                let engine = &owner.engine;
                let dp = engine.dynamic();
                let matched: Vec<EdgeId> =
                    dp.graph().edges().filter(|&e| engine.matching().contains(e)).collect();
                let probe = AuditProbe {
                    epoch: engine.epoch().0,
                    origin: OriginSnapshot::capture(dp),
                    matched,
                };
                let _ = reply.send(probe);
            }
            Ingest::Capture { reason, reply } => {
                owner.flush();
                let metrics_json = owner.registry.snapshot().to_json();
                let bundle =
                    owner.engine.capture_bundle("audit", &reason, None, Some(&metrics_json));
                let _ = reply.send(bundle);
            }
            Ingest::Inject(fault, ack) => {
                owner.inject(fault);
                let _ = ack.send(());
            }
            Ingest::Shutdown => break true,
            Ingest::Abort => break false,
        }
    };

    if graceful {
        owner.flush();
        let epoch_now = owner.engine.epoch().0;
        if owner.config.snapshot_every > 0 && epoch_now > owner.last_snapshot {
            owner.snapshot(epoch_now);
        }
        let _ = owner.wal.sync();
    }
    // Pending, unacknowledged submissions on an abort are dropped — the
    // crash semantics. Their reply senders hang up, which handlers
    // surface as "daemon stopped before applying".
    let certify = owner.engine.certify();
    OwnerExit {
        engine: owner.engine,
        batches: owner.batches,
        graceful,
        certify,
        trace: owner.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{client_stream, from_spec};
    use crate::view::PAGE_NODES;
    use owp_graph::NodeId;
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// An owner over a fresh data dir, plus the slot readers clone from.
    fn owner(name: &str, spec: &str) -> (Owner, SharedView) {
        let dir = std::env::temp_dir().join(format!("owp-view-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let universe = from_spec(spec).expect("spec");
        let config = MatchdConfig::new(&dir);
        let rec = recover(&dir, &universe, config.fsync).expect("recover");
        let slot: SharedView = Arc::new(Mutex::new(Arc::new(View::from_engine(&rec.engine))));
        let owner = Owner::new(
            rec.engine,
            rec.wal,
            Arc::clone(&slot),
            Arc::new(OpsShared::new()),
            MetricsRegistry::new(),
            config,
        );
        (owner, slot)
    }

    /// Queues one submission; returns the receiver of its reply.
    fn submit(owner: &mut Owner, events: Vec<EngineEvent>) -> Receiver<Reply> {
        let (reply, rx) = std::sync::mpsc::channel();
        owner.pending_events += events.len();
        owner.pending.push(Submission {
            events,
            enqueued: Instant::now(),
            conn: 1,
            req: 1,
            bytes: 0,
            reply,
        });
        rx
    }

    /// The published view equals a full rebuild field for field, f64s
    /// by bits, and is what readers get from the slot.
    fn assert_exact(owner: &Owner, slot: &SharedView) {
        let got = owner.publisher.current();
        assert!(Arc::ptr_eq(got, &slot.lock().expect("view lock")), "slot holds the view");
        let want = View::from_engine(&owner.engine);
        let at = got.epoch;
        assert_eq!(got.epoch, want.epoch);
        assert_eq!(got.sigma_s.to_bits(), want.sigma_s.to_bits(), "epoch {at}: sigma_s");
        assert_eq!(got.active, want.active, "epoch {at}: active");
        assert_eq!(got.matched, want.matched, "epoch {at}: matched");
        assert_eq!(got.page_count(), want.page_count());
        // Past the last node too: unknown ids answer empty / 0.
        let n = owner.engine.dynamic().graph().node_count() as u32;
        for i in 0..n + 3 {
            assert_eq!(got.matches_of(i), want.matches_of(i), "epoch {at}: matches of {i}");
            assert_eq!(
                got.satisfaction_of(i).to_bits(),
                want.satisfaction_of(i).to_bits(),
                "epoch {at}: satisfaction of {i}"
            );
        }
    }

    /// `count` random join/leave/quota/preference events, valid in order
    /// against the engine's current membership.
    fn mixed_events(engine: &Engine, rng: &mut StdRng, count: usize) -> Vec<EngineEvent> {
        let g = engine.dynamic().graph();
        let mut active: Vec<bool> = g.nodes().map(|i| engine.dynamic().is_active(i)).collect();
        (0..count)
            .map(|_| {
                let node = NodeId(rng.gen_range(0..g.node_count() as u32));
                if !active[node.index()] {
                    active[node.index()] = true;
                    return EngineEvent::NodeJoin { node };
                }
                match rng.gen_range(0..3u32) {
                    0 => {
                        active[node.index()] = false;
                        EngineEvent::NodeLeave { node }
                    }
                    1 => EngineEvent::QuotaChange { node, quota: rng.gen_range(1..4u32) },
                    _ => {
                        let mut list: Vec<NodeId> = g.neighbor_ids(node).collect();
                        list.shuffle(rng);
                        EngineEvent::PreferenceUpdate { node, list }
                    }
                }
            })
            .collect()
    }

    /// E23's workload: four clients' streams in 16-event submissions,
    /// one submission per client merged into each flush.
    #[test]
    fn incremental_view_matches_rebuild_on_the_client_stream() {
        let (mut owner, slot) = owner("e23", "ba:2000,3,2,42");
        let universe = from_spec("ba:2000,3,2,42").expect("spec");
        let streams: Vec<Vec<EngineEvent>> =
            (0..4).map(|c| client_stream(&universe, c, 4, 160)).collect();
        for k in 0..10 {
            let replies: Vec<_> = streams
                .iter()
                .map(|s| submit(&mut owner, s[k * 16..(k + 1) * 16].to_vec()))
                .collect();
            owner.flush();
            for rx in replies {
                assert_eq!(rx.recv().expect("reply"), Ok(k as u64 + 1));
            }
            assert_exact(&owner, &slot);
        }
    }

    #[test]
    fn incremental_view_matches_rebuild_on_mixed_churn() {
        let (mut owner, slot) = owner("mixed", "ba:1500,3,2,9");
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..40 {
            let count = rng.gen_range(1..24usize);
            let events = mixed_events(&owner.engine, &mut rng, count);
            let rx = submit(&mut owner, events);
            owner.flush();
            assert!(rx.recv().expect("reply").is_ok());
            assert_exact(&owner, &slot);
        }
    }

    /// One invalid submission in a merged batch forces the per-submission
    /// fallback; the pages dirtied by every submission that commits must
    /// all be republished.
    #[test]
    fn incremental_view_matches_rebuild_after_the_fallback_path() {
        let (mut owner, slot) = owner("fallback", "ba:1200,3,2,3");
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..6 {
            let first = mixed_events(&owner.engine, &mut rng, 8);
            let a = submit(&mut owner, first.clone());
            // Joining a node that is active (or that `first` just made
            // active) is invalid whatever state it sees.
            let node = (0..1200)
                .map(NodeId)
                .find(|&i| {
                    owner.engine.dynamic().is_active(i)
                        && !first.iter().any(|ev| {
                            matches!(ev, EngineEvent::NodeLeave { node } if *node == i)
                        })
                })
                .expect("an active node");
            let bad = submit(&mut owner, vec![EngineEvent::NodeJoin { node }]);
            // Valid after `first`, wherever the merged batch is split.
            let quota = EngineEvent::QuotaChange { node, quota: 1 + round % 3 };
            let c = submit(&mut owner, vec![quota]);
            let epoch = owner.engine.epoch().0;
            owner.flush();
            assert_eq!(a.recv().expect("reply"), Ok(epoch + 1));
            assert!(bad.recv().expect("reply").expect_err("rejected").contains("already active"));
            assert_eq!(c.recv().expect("reply"), Ok(epoch + 2));
            assert_exact(&owner, &slot);
        }
    }

    #[test]
    fn incremental_view_matches_rebuild_around_injected_faults() {
        let (mut owner, slot) = owner("inject", "ba:1000,3,2,4");
        let mut rng = StdRng::seed_from_u64(21);
        let churn = |owner: &mut Owner, rng: &mut StdRng| {
            let events = mixed_events(&owner.engine, rng, 12);
            let rx = submit(owner, events);
            owner.flush();
            assert!(rx.recv().expect("reply").is_ok());
        };
        churn(&mut owner, &mut rng);
        assert_exact(&owner, &slot);
        let node = NodeId(7);
        let mut list: Vec<NodeId> = owner.engine.dynamic().graph().neighbor_ids(node).collect();
        list.reverse();
        owner.inject(InjectedFault::SkippedRepair { node, list });
        assert_exact(&owner, &slot);
        churn(&mut owner, &mut rng);
        assert_exact(&owner, &slot);
        // Pending submissions are flushed (and published) before the fault.
        let g = owner.engine.dynamic().graph();
        let edge =
            g.edges().find(|&e| !owner.engine.matching().contains(e)).expect("unmatched edge");
        let events = mixed_events(&owner.engine, &mut rng, 6);
        let rx = submit(&mut owner, events);
        owner.inject(InjectedFault::PhantomEdge { edge });
        assert!(rx.recv().expect("reply").is_ok());
        assert_exact(&owner, &slot);
    }

    /// The publish cost scales with the nodes a batch touched: every page
    /// holding none of them is the previous view's page, pointer for
    /// pointer, and every page holding one is rebuilt.
    #[test]
    fn untouched_pages_are_shared_with_the_previous_view() {
        let (mut owner, slot) = owner("share", "ba:20000,3,2,7");
        let mut rng = StdRng::seed_from_u64(3);
        let pages = owner.publisher.current().page_count();
        assert_eq!(pages, 20000usize.div_ceil(PAGE_NODES));
        for _ in 0..12 {
            let prev = Arc::clone(owner.publisher.current());
            let before: BTreeSet<EdgeId> = owner.engine.matching().edge_ids().into_iter().collect();
            let events = mixed_events(&owner.engine, &mut rng, 4);
            let mut touched: BTreeSet<usize> = events
                .iter()
                .map(|ev| match ev {
                    EngineEvent::NodeJoin { node }
                    | EngineEvent::NodeLeave { node }
                    | EngineEvent::QuotaChange { node, .. }
                    | EngineEvent::PreferenceUpdate { node, .. } => node.index() / PAGE_NODES,
                    _ => unreachable!("mixed_events emits node events only"),
                })
                .collect();
            let rx = submit(&mut owner, events);
            owner.flush();
            assert!(rx.recv().expect("reply").is_ok());
            let after: BTreeSet<EdgeId> = owner.engine.matching().edge_ids().into_iter().collect();
            let g = owner.engine.dynamic().graph();
            for &e in before.symmetric_difference(&after) {
                let (u, v) = g.endpoints(e);
                touched.insert(u.index() / PAGE_NODES);
                touched.insert(v.index() / PAGE_NODES);
            }
            let next = owner.publisher.current();
            for p in 0..pages {
                assert_eq!(
                    next.shares_page(&prev, p),
                    !touched.contains(&p),
                    "page {p} (touched pages {touched:?})"
                );
            }
            assert!(touched.len() < pages / 2, "{} of {pages} pages touched", touched.len());
            assert_exact(&owner, &slot);
        }
    }
}
