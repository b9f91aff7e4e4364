//! # cb-engine — page-based OLTP storage engine
//!
//! A real (if compact) transactional storage engine that the simulated
//! cloud-native databases run on:
//!
//! * [`value`] — typed values, rows, schemas, row-image serialization.
//! * [`slotted`] — slotted leaf pages.
//! * [`btree`] — a clustered B+tree over fixed-size pages.
//! * [`bufferpool`] — per-node page-cache simulator (hits/misses/dirty)
//!   with a selectable replacement policy (LRU / SIEVE / LRU-K).
//! * [`inline`] — the inline small vector behind write sets and descents.
//! * [`locks`] — virtual-time 2PL row locks.
//! * [`mvcc`] — version chains, snapshot visibility, watermark GC, and the
//!   selectable [`IsolationLevel`]s.
//! * [`exec`] — [`ExecCtx`]: accumulates CPU demand and I/O wait while
//!   operations execute logically for real.
//! * [`db`] — the [`Database`] facade: tables, transactions with undo, WAL
//!   discipline, checkpoints.
//! * [`recovery`] — ARIES-style analysis/redo/undo and replay-from-storage.
//! * [`sql`] — a small SQL front end for the benchmark's statement registry.

#![warn(missing_docs)]

pub mod btree;
pub mod bufferpool;
pub mod db;
pub mod exec;
pub mod inline;
pub mod locks;
pub mod mvcc;
pub mod recovery;
pub mod secondary;
pub mod slotted;
pub mod sql;
pub mod value;

pub use btree::{AccessLog, BTree, DuplicateKey, PageSink, Uncharged};
pub use bufferpool::{Access, BufferPool, EvictionPolicyKind};
pub use db::{Committed, Database, EngineError, TxnHandle, UndoLsns, WriteSet};
pub use exec::{CostModel, ExecCtx, ExecStats, RemoteTier};
pub use locks::{LockTable, RowKey};
pub use mvcc::{IsolationLevel, Version, VersionStore, Visibility};
pub use value::{ColumnDef, DataType, Row, RowRef, Schema, SchemaError, Value, ValueRef};
