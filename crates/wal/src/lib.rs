//! # mduck-wal — the session layer and crash-safe durability
//!
//! The paper's engines inherit durability from DuckDB's storage layer;
//! this crate is our reproduction's equivalent: a length-prefixed,
//! CRC32-checksummed write-ahead log plus checkpoint/recovery, and the
//! one [`session::Session`] both the vectorized and the row engine run
//! under. The session owns the catalog, the index framework, PRAGMA
//! dispatch and the commit disciplines; the engines plug in only their
//! storage layout and executor. The in-memory default is unchanged — a
//! database only pays for durability after `Database::open(path)` or
//! `PRAGMA wal='path'`.
//!
//! Module map:
//! * [`crc32`] — hand-rolled IEEE CRC-32 (zero external deps).
//! * [`codec`] — reversible binary encoding of `Value`/`LogicalType`.
//! * [`record`] — logical WAL records (one per committed statement).
//! * [`snapshot`] — checkpoint images and their atomic-rename protocol.
//! * [`wal`] — the log file, recovery, and the append/checkpoint path.
//! * [`failpoint`] — deterministic fault injection for all of the above.
//! * [`session`] — the database instance both engines share: entry
//!   points, query log, PRAGMAs, DDL/DML commit paths, recovery replay.

pub mod codec;
pub mod crc32;
pub mod failpoint;
pub mod record;
pub mod session;
pub mod snapshot;
pub mod wal;

pub use failpoint::{FailAction, FailDecision};
pub use record::WalRecord;
pub use snapshot::{IndexDef, Snapshot, TableSnapshot};
pub use wal::{DurabilityManager, Recovery, DEFAULT_AUTO_CHECKPOINT_BYTES, WAL_HEADER_LEN};
