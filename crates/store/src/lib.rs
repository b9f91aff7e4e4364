//! # cb-store — disaggregated storage substrate
//!
//! The durable half of the simulated cloud-native databases:
//!
//! * `page` — fixed 8 KB pages, little-endian accessors, and the canonical
//!   [`PageStore`] that owns page content for the whole cluster.
//! * `wal` — logical WAL records with before/after images, the append-only
//!   segmented [`LogStore`]: preallocated recyclable tail segments, whole-
//!   segment checkpoint truncation, borrowing record/slab iterators.
//! * `service` — [`StorageService`]: the cost model of each storage
//!   topology (coupled, smart storage with redo pushdown, log/page split,
//!   safekeeper+pageserver, memory disaggregation).
//! * `codec` — framed, checksummed on-wire WAL serialization (what log
//!   shipping actually moves; detects torn tails and corruption).
//! * `hash` — [`IntMap`]: `HashMap` with a cheap fixed hasher, for maps
//!   keyed by engine-assigned integers (pool residency, row locks).
//! * `group_commit` — the [`GroupCommit`] pipeline: commits stage into a
//!   virtual-time batch flushed per window/size cap, acked together.

#![warn(missing_docs)]

mod codec;
mod group_commit;
mod hash;
mod page;
mod service;
mod wal;

pub use codec::{
    decode_record, decode_segment, encode_record, encode_record_into, encode_segment,
    encode_segment_into, CodecError,
};
pub use group_commit::{CommitAck, DurabilityAck, GroupCommit, GroupCommitConfig};
pub use hash::IntMap;
pub use page::{PageBuf, PageId, PageStore, PAGE_SIZE};
pub use service::{StorageArch, StorageService};
pub use wal::{LogStore, Lsn, RecordsAfter, TableId, TxnId, WalOp, WalRecord};
