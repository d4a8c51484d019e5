//! # owp-matchd — a durable matchmaking daemon
//!
//! Long-running server wrapping [`owp_engine::Engine`]: peers stream
//! [`owp_engine::EngineEvent`]s over TCP, the daemon batches them
//! adaptively, repairs the b-matching incrementally, and answers
//! queries (my matches, satisfaction, epoch, metrics) from an
//! epoch-stamped published view concurrently with repair. Durability is
//! first-class — an append-only CRC-framed WAL plus periodic atomic
//! snapshots, and crash recovery **certifies** (bit-identity with a
//! from-scratch `lic()`) before the daemon will serve.
//!
//! Everything is `std` only: `std::net` sockets, a thread per
//! connection, `std::sync::mpsc` bounded channels. No async runtime.
//!
//! Modules, in dependency order:
//!
//! * [`codec`] — length-prefixed, CRC32-checked wire frames;
//! * [`wal`] — the write-ahead log, torn-tail tolerant;
//! * [`snapshot`] — atomic `OriginSnapshot` persistence;
//! * [`recovery`] — snapshot + WAL → certified engine;
//! * [`universe`] — deterministic universe specs and client workloads;
//! * [`http`] — a minimal HTTP/1.0 codec for the admin endpoint;
//! * [`View`] — the paged copy-on-write read view the daemon publishes;
//! * [`server`] — the daemon itself;
//! * [`ops`] — the live operations plane (admin endpoint, continuous
//!   auditor, slow-request ring);
//! * [`client`] — a small blocking client.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod http;
pub mod ops;
pub mod recovery;
pub mod server;
pub mod snapshot;
pub mod universe;
mod view;
pub mod wal;

pub use client::{EpochInfo, MatchdClient, SubmitOutcome};
pub use codec::{CodecError, Frame, PROTO_VERSION};
pub use ops::{OpsStatus, SlowSpan, SLOW_RING_CAPACITY};
pub use recovery::{recover, Recovery, WAL_FILE};
pub use server::{Matchd, MatchdConfig, MatchdStats, ShutdownHandle};
pub use snapshot::{load_snapshot_file, LoadedSnapshot, SnapshotStore, SNAPSHOT_FILE};
pub use universe::{client_stream, from_spec};
pub use view::View;
pub use wal::{FsyncPolicy, Wal, WalRecord, WalSummary};
