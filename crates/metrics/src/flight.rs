//! Flight-recorder gauges of the engine's always-on black box.
//!
//! [`publish_recorder_gauges`] exports the ring's drop count and fill
//! fraction, so a post-mortem reading a metrics snapshot knows how much
//! of the stream the black box still held (DESIGN.md §12).

use crate::registry::MetricsRegistry;
use owp_engine::Engine;

/// Gauge key for telemetry events the engine's flight ring has
/// overwritten since construction (0 = the black box still holds the
/// whole run).
pub const RECORDER_DROPPED: &str = "recorder_dropped_events";

/// Gauge key for the flight ring's fill fraction in `[0, 1]` (1 = full,
/// i.e. every further event evicts the oldest).
pub const RECORDER_OCCUPANCY: &str = "recorder_ring_occupancy";

/// Publishes [`RECORDER_DROPPED`] and [`RECORDER_OCCUPANCY`] for
/// `engine`'s flight ring.
pub fn publish_recorder_gauges(reg: &MetricsRegistry, engine: &Engine) {
    reg.gauge(RECORDER_DROPPED).set(engine.flight().dropped() as f64);
    reg.gauge(RECORDER_OCCUPANCY).set(engine.flight().occupancy());
}

#[cfg(test)]
mod tests {
    use super::*;
    use owp_engine::EngineEvent;
    use owp_graph::NodeId;
    use owp_matching::Problem;

    #[test]
    fn recorder_gauges_reflect_the_engine() {
        let mut e = Engine::builder(Problem::random_gnp(24, 0.3, 2, 42))
            .flight_capacity(8)
            .build();
        for node in [NodeId(1), NodeId(2), NodeId(3)] {
            e.apply(EngineEvent::NodeLeave { node }).unwrap();
        }
        let reg = MetricsRegistry::new();
        publish_recorder_gauges(&reg, &e);
        assert_eq!(reg.gauge(RECORDER_DROPPED).get(), e.flight().dropped() as f64);
        let occ = reg.gauge(RECORDER_OCCUPANCY).get();
        assert!(occ > 0.0 && occ <= 1.0, "tiny ring fills fast: {occ}");
    }
}
