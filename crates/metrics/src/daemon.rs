//! Metric keys of the `matchd` daemon (DESIGN.md §13).
//!
//! `owp-matchd` publishes its ingest/durability health through these keys
//! so the existing exporters (`MetricsSnapshot::to_prometheus`,
//! `owp-inspect metrics`) pick the daemon up with zero new plumbing. The
//! constants live here — not in matchd — for the same reason the engine's
//! recorder gauges live in [`flight`](crate::flight): every consumer (daemon,
//! bench driver, inspector) links against `owp-metrics` already, and a
//! shared `&'static str` key is what makes the lock-free registry handles
//! cheap.

use crate::registry::MetricsRegistry;

/// Gauge: ingest submissions queued between the acceptor threads and the
/// engine-owner thread, sampled at each batch flush. The bounded channel
/// caps this at `MatchdConfig::queue_capacity`; a gauge pinned near the
/// cap means the engine is the bottleneck and admission control is
/// rejecting.
pub const MATCHD_QUEUE_DEPTH: &str = "matchd_queue_depth";

/// Counter: submissions rejected at admission (`BUSY` + retry-after)
/// because the bounded ingest queue was full.
pub const MATCHD_ADMISSION_REJECTS: &str = "matchd_admission_rejects";

/// Gauge: bytes in the write-ahead log, including record headers. Drops
/// back near zero after each snapshot (the WAL is reset once a snapshot
/// durably covers it).
pub const MATCHD_WAL_BYTES: &str = "matchd_wal_bytes";

/// Histogram: microseconds each flushed batch spent lingering — from the
/// first submission entering the batch to the flush that applied it. The
/// latency cost of the throughput knob, directly comparable to
/// `MatchdConfig::max_linger`.
pub const MATCHD_BATCH_LINGER_US: &str = "matchd_batch_linger_us";

/// Histogram: events per flushed batch (the adaptive batch size).
pub const MATCHD_BATCH_EVENTS: &str = "matchd_batch_events";

/// Gauge: epoch of the newest durable snapshot (0 until the first one).
pub const MATCHD_SNAPSHOT_EPOCH: &str = "matchd_snapshot_epoch";

/// Gauge: records currently in the write-ahead log (resets with the WAL
/// after each snapshot, like [`MATCHD_WAL_BYTES`]).
pub const MATCHD_WAL_RECORDS: &str = "matchd_wal_records";

/// Gauge: connections currently being served by handler threads.
pub const MATCHD_CONNECTIONS: &str = "matchd_connections";

/// Counter: connections accepted over the daemon's lifetime.
pub const MATCHD_CONNECTIONS_TOTAL: &str = "matchd_connections_total";

/// Counter: wire frames decoded (every frame gets a request id; this is
/// the id counter's shadow, scrapeable).
pub const MATCHD_REQUESTS_TOTAL: &str = "matchd_requests_total";

/// Histogram: microseconds a `SUBMIT` span spent queued — from the frame
/// entering the bounded ingest channel to the owner starting the flush
/// that applied it. The queue-wait leg of the request span.
pub const MATCHD_SPAN_QUEUE_US: &str = "matchd_span_queue_us";

/// Histogram: microseconds the owner spent inside `apply_batch` + WAL
/// append for the flush carrying the span. The engine leg.
pub const MATCHD_SPAN_APPLY_US: &str = "matchd_span_apply_us";

/// Histogram: microseconds between the engine finishing and the span's
/// reply leaving the owner (view publication + ack fan-out). The ack leg.
pub const MATCHD_SPAN_ACK_US: &str = "matchd_span_ack_us";

/// Histogram: microseconds the owner spent publishing the read view
/// after a flush — rebuilding the pages the batch dirtied and swapping
/// the new view in. Observed once per flush; it falls inside the ack leg
/// ([`MATCHD_SPAN_ACK_US`]), which it does not replace.
pub const MATCHD_SPAN_PUBLISH_US: &str = "matchd_span_publish_us";

/// Histogram: end-to-end microseconds for `SUBMIT` frames (decode →
/// ack written), the sum of the three span legs plus handler overhead.
pub const MATCHD_REQ_SUBMIT_US: &str = "matchd_req_submit_us";

/// Histogram: end-to-end microseconds for read frames (`QUERY_*`),
/// answered from the published view without touching the engine.
pub const MATCHD_REQ_QUERY_US: &str = "matchd_req_query_us";

/// Histogram: end-to-end microseconds for control frames (`HELLO`,
/// `SHUTDOWN`, protocol errors).
pub const MATCHD_REQ_CONTROL_US: &str = "matchd_req_control_us";

/// Counter: continuous-audit passes that found no violation.
pub const MATCHD_AUDIT_PASSES: &str = "matchd_audit_passes";

/// Counter: continuous-audit passes that detected at least one violation.
pub const MATCHD_AUDIT_FAILURES: &str = "matchd_audit_failures";

/// Gauge: engine epoch of the most recent completed audit pass.
pub const MATCHD_AUDIT_LAST_EPOCH: &str = "matchd_audit_last_epoch";

/// Gauge: 1 while every audit pass so far was clean, 0 after the first
/// violation (latched — mirrors the `/readyz` escalation).
pub const MATCHD_AUDIT_CLEAN: &str = "matchd_audit_clean";

/// Gauge: microseconds the most recent continuous-audit cycle spent on
/// recurring work (probe rendezvous + masked audit), excluding one-off
/// universe rebuilds. The auditor's duty-cycle cap schedules the next
/// cycle at least 99× this far out, bounding the auditor to ≤ 1% of a
/// core regardless of instance size.
pub const MATCHD_AUDIT_COST_US: &str = "matchd_audit_cost_us";

/// Gauge: 1 while the daemon answers `/readyz` 200, 0 once readiness is
/// lost (audit violation, or ingest queue above the high-watermark).
pub const MATCHD_READY: &str = "matchd_ready";

/// Counter: admin-plane HTTP requests served (any status).
pub const MATCHD_OPS_REQUESTS: &str = "matchd_ops_requests";

/// Counter: forensic bundles spooled by the continuous auditor.
pub const MATCHD_BUNDLES_SPOOLED: &str = "matchd_bundles_spooled";

/// Pre-registers every matchd key so exporters show the daemon section
/// (zeros included) from the first scrape, before traffic arrives.
pub fn register_matchd_metrics(reg: &MetricsRegistry) {
    reg.gauge(MATCHD_QUEUE_DEPTH);
    reg.counter(MATCHD_ADMISSION_REJECTS);
    reg.gauge(MATCHD_WAL_BYTES);
    reg.histogram(MATCHD_BATCH_LINGER_US);
    reg.histogram(MATCHD_BATCH_EVENTS);
    reg.gauge(MATCHD_SNAPSHOT_EPOCH);
    reg.gauge(MATCHD_WAL_RECORDS);
    reg.gauge(MATCHD_CONNECTIONS);
    reg.counter(MATCHD_CONNECTIONS_TOTAL);
    reg.counter(MATCHD_REQUESTS_TOTAL);
    reg.histogram(MATCHD_SPAN_QUEUE_US);
    reg.histogram(MATCHD_SPAN_APPLY_US);
    reg.histogram(MATCHD_SPAN_ACK_US);
    reg.histogram(MATCHD_SPAN_PUBLISH_US);
    reg.histogram(MATCHD_REQ_SUBMIT_US);
    reg.histogram(MATCHD_REQ_QUERY_US);
    reg.histogram(MATCHD_REQ_CONTROL_US);
    reg.counter(MATCHD_AUDIT_PASSES);
    reg.counter(MATCHD_AUDIT_FAILURES);
    reg.gauge(MATCHD_AUDIT_LAST_EPOCH);
    reg.gauge(MATCHD_AUDIT_COST_US);
    reg.gauge(MATCHD_AUDIT_CLEAN);
    reg.gauge(MATCHD_READY);
    reg.counter(MATCHD_OPS_REQUESTS);
    reg.counter(MATCHD_BUNDLES_SPOOLED);
}
