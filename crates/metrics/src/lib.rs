//! # owp-metrics — the quantitative health layer
//!
//! PR 2's telemetry answers *what happened* (typed event traces); this
//! crate answers *how healthy is it* — aggregated, queryable numbers over
//! the same stream, plus continuous verification of the paper's structural
//! guarantees:
//!
//! * [`MetricsRegistry`] — typed [`Counter`]/[`Gauge`]/[`Histogram`]
//!   handles registered by static key; recording is lock-free (one relaxed
//!   atomic per observation), histograms are log₂-bucketed, and handles
//!   are `Send + Sync` for the rayon experiment sweeps.
//! * [`MetricsSnapshot`] — frozen registry state with two deterministic
//!   exporters, [`MetricsSnapshot::to_prometheus`] and
//!   [`MetricsSnapshot::to_json`], and matching parsers for offline
//!   inspection (`owp-inspect`).
//! * [`MetricsRecorder`] — an [`owp_telemetry::Recorder`] that aggregates
//!   the event stream into the registry: per-kind message counters,
//!   send→deliver latency histograms (per-link FIFO pairing), PROP→accept
//!   latency, termination times, engine batch/repair distributions.
//! * [`Auditor`] — the online invariant auditor: quota feasibility,
//!   matching mutuality, eq. 9 weight symmetry, the Lemma 4
//!   locally-heaviest certificate (Theorem 2's ½-approximation), engine
//!   repair consistency and epoch monotonicity, reported as structured
//!   [`AuditViolation`]s (never panics) alongside ε-blocking-edge and
//!   satisfaction-ratio gauges.
//! * [`flight`] — the engine flight recorder's drop-count and occupancy
//!   gauges.
//! * [`daemon`](mod@daemon) — the `matchd_*` keys the matchmaking daemon
//!   publishes (ingest queue depth, admission rejects, WAL bytes, batch
//!   linger), shared between `owp-matchd` and the inspectors.
//!
//! The crate is intentionally *passive*: nothing here hooks itself into the
//! simulator or engine. Call sites opt in by handing a recorder or auditor
//! to the already-generic instrumentation points, so the zero-cost
//! discipline of the telemetry layer (NullRecorder fold-out, feature-gated
//! wiring) carries over unchanged — a binary that never constructs a
//! registry pays nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod campaign;
pub mod daemon;
pub mod flight;
pub mod recorder;
pub mod registry;
pub mod snapshot;

pub use daemon::{
    register_matchd_metrics, MATCHD_ADMISSION_REJECTS, MATCHD_AUDIT_CLEAN, MATCHD_AUDIT_COST_US,
    MATCHD_AUDIT_FAILURES, MATCHD_AUDIT_LAST_EPOCH, MATCHD_AUDIT_PASSES, MATCHD_BATCH_EVENTS,
    MATCHD_BATCH_LINGER_US, MATCHD_BUNDLES_SPOOLED, MATCHD_CONNECTIONS,
    MATCHD_CONNECTIONS_TOTAL, MATCHD_OPS_REQUESTS, MATCHD_QUEUE_DEPTH, MATCHD_READY,
    MATCHD_REQUESTS_TOTAL, MATCHD_REQ_CONTROL_US, MATCHD_REQ_QUERY_US, MATCHD_REQ_SUBMIT_US,
    MATCHD_SNAPSHOT_EPOCH, MATCHD_SPAN_ACK_US, MATCHD_SPAN_APPLY_US, MATCHD_SPAN_PUBLISH_US,
    MATCHD_SPAN_QUEUE_US, MATCHD_WAL_BYTES, MATCHD_WAL_RECORDS,
};
pub use audit::{
    epsilon_blocking_count, weight_upper_bound, AuditViolation, Auditor, InvariantKind,
};
pub use campaign::{
    campaign_plans_key, campaign_violations_key, register_campaign_metrics, CAMPAIGN_CLASSES,
    CAMPAIGN_CERTIFIED_TOTAL, CAMPAIGN_PLANS_TOTAL, CAMPAIGN_PLAN_EVENTS, CAMPAIGN_PLAN_WALL_US,
    CAMPAIGN_VIOLATIONS_TOTAL,
};
pub use flight::{publish_recorder_gauges, RECORDER_DROPPED, RECORDER_OCCUPANCY};
pub use recorder::MetricsRecorder;
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
