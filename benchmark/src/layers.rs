//! The traced run's layer replay: the stream a live phase submitted is
//! fed, outside the daemon, through the public functions of each layer
//! the daemon's SUBMIT path crosses — codec, engine, WAL and snapshot —
//! at the batch size the daemon actually flushed.

use owp_engine::{DeltaReport, Engine, EngineEvent, OriginSnapshot};
use owp_matchd::codec::{frame_bytes, read_frame, Frame};
use owp_matchd::{FsyncPolicy, SnapshotStore, Wal};
use std::path::Path;
use std::time::{Duration, Instant};

/// Batches replayed before timing: as in the live window, the history
/// ring must have wrapped.
const WARM_BATCHES: usize = 32;
/// Timed batches at most, and the wall-clock budget for them.
const MAX_TIMED_BATCHES: usize = 512;
const REPLAY_BUDGET: Duration = Duration::from_secs(3);
/// Snapshot saves timed (the median is reported).
const SNAPSHOT_REPS: usize = 3;

/// Per-layer means over the replay.
#[derive(Clone, Debug, Default)]
pub struct LayerReplay {
    pub engine_apply_us: f64,
    pub evaluated_per_batch: f64,
    pub reranked_per_batch: f64,
    pub codec_encode_us: f64,
    pub codec_decode_us: f64,
    pub codec_bytes_per_event: f64,
    pub wal_append_us: f64,
    pub wal_bytes_per_event: f64,
    pub snapshot_save_ms: f64,
    pub failures: Vec<String>,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Replays `chunks` (one per client submission) from a fresh engine over
/// `universe`, re-batched to `batch_events` events per engine batch.
pub fn replay(
    universe: &owp_matching::Problem,
    chunks: &[Vec<EngineEvent>],
    batch_events: usize,
    scratch: &Path,
) -> LayerReplay {
    let mut out = LayerReplay::default();

    // Codec: every submission frame encoded and decoded once.
    let (mut enc, mut dec, mut bytes, mut events) = (0.0, 0.0, 0usize, 0usize);
    for chunk in chunks.iter().take(WARM_BATCHES + MAX_TIMED_BATCHES) {
        let frame = Frame::Submit {
            events: chunk.clone(),
        };
        let t = Instant::now();
        let wire = frame_bytes(&frame);
        enc += us(t);
        let t = Instant::now();
        let decoded = read_frame(&mut wire.as_slice());
        dec += us(t);
        if !matches!(decoded, Ok(ref f) if *f == frame) {
            out.failures
                .push("codec round trip changed a SUBMIT frame".into());
        }
        bytes += wire.len();
        events += chunk.len();
    }
    let frames = chunks.len().clamp(1, WARM_BATCHES + MAX_TIMED_BATCHES);
    out.codec_encode_us = enc / frames as f64;
    out.codec_decode_us = dec / frames as f64;
    out.codec_bytes_per_event = bytes as f64 / events.max(1) as f64;

    // Engine and WAL: the merged stream at the daemon's batch size.
    let _ = std::fs::remove_dir_all(scratch);
    if let Err(e) = std::fs::create_dir_all(scratch) {
        out.failures.push(format!("replay scratch dir: {e}"));
        return out;
    }
    let mut wal = match Wal::open(&scratch.join("replay.wal"), FsyncPolicy::OnSnapshot) {
        Ok((wal, _, _)) => wal,
        Err(e) => {
            out.failures.push(format!("Wal::open: {e}"));
            return out;
        }
    };
    let merged: Vec<EngineEvent> = chunks.iter().flatten().cloned().collect();
    let mut engine = Engine::new(universe.clone());
    let mut report = DeltaReport::default();
    let (mut apply, mut append, mut evaluated, mut reranked) = (0.0, 0.0, 0usize, 0usize);
    let (mut wal_events, mut wal_bytes) = (0usize, 0u64);
    let budget = Instant::now();
    let mut timed = 0usize;
    for (k, batch) in merged.chunks(batch_events.max(1)).enumerate() {
        let t = Instant::now();
        if let Err(e) = engine.apply_batch_into(batch, &mut report) {
            out.failures
                .push(format!("replayed batch {k} rejected: {e}"));
            break;
        }
        let apply_us = us(t);
        let before = wal.bytes();
        let t = Instant::now();
        if let Err(e) = wal.append(report.epoch.0, batch) {
            out.failures.push(format!("Wal::append: {e}"));
            break;
        }
        let append_us = us(t);
        if k < WARM_BATCHES {
            continue;
        }
        timed += 1;
        apply += apply_us;
        append += append_us;
        evaluated += report.evaluated;
        reranked += report.reranked;
        wal_events += batch.len();
        wal_bytes += wal.bytes() - before;
        if timed == MAX_TIMED_BATCHES || budget.elapsed() > REPLAY_BUDGET {
            break;
        }
    }
    let n = timed.max(1) as f64;
    out.engine_apply_us = apply / n;
    out.wal_append_us = append / n;
    out.evaluated_per_batch = evaluated as f64 / n;
    out.reranked_per_batch = reranked as f64 / n;
    out.wal_bytes_per_event = wal_bytes as f64 / wal_events.max(1) as f64;
    if timed == 0 {
        out.failures.push(format!(
            "stream too short: no batch after {WARM_BATCHES} warm-up batches"
        ));
    }

    // Snapshot: capture + atomic save of the replayed state.
    let store = SnapshotStore::new(scratch);
    let mut saves = Vec::with_capacity(SNAPSHOT_REPS);
    for _ in 0..SNAPSHOT_REPS {
        let t = Instant::now();
        let origin = OriginSnapshot::capture(engine.dynamic());
        if let Err(e) = store.save(engine.epoch().0, &origin) {
            out.failures.push(format!("SnapshotStore::save: {e}"));
            break;
        }
        saves.push(t.elapsed().as_secs_f64() * 1e3);
    }
    if !saves.is_empty() {
        out.snapshot_save_ms = crate::stats::median(&saves);
    }
    if let Err(e) = engine.certify() {
        out.failures
            .push(format!("replayed engine does not certify: {e}"));
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(scratch);
    out
}
