//! # hades-storage — records, key-value stores, and the partitioned database
//!
//! The storage substrate of the HADES (ISCA 2024) reproduction:
//!
//! * [`record::Record`] / [`record::RecordMut`] — views of the Fig 1
//!   augmented record: value bytes plus the software metadata (version,
//!   lock, incarnation) that the FaRM-style baseline and the HADES-H local
//!   path rely on, with helpers for mapping byte ranges to cache lines
//!   (HADES operates at line granularity).
//! * [`index`] — the four store shapes of the paper's evaluation, built
//!   from scratch: open-addressing [`index::HashTable`] (HT), a
//!   [`index::SkipList`] (Map), an in-memory [`index::BTree`], and a
//!   [`index::BPlusTree`] with linked leaves. Lookups report traversal
//!   depth for index-walk timing.
//! * [`db::Database`] — tables over a uniform static hash partition
//!   (Section VII), per-node cache-line slabs, and locality-aware key
//!   sampling for the Fig 12b experiment.
//!
//! The host layout is flat: the database keeps one 40-byte
//! [`record::RecordHeader`] per record in a single vector and every value
//! in an arena of 1 MiB chunks ([`db::ARENA_CHUNK_BYTES`]), so loading a
//! record costs no allocation of its own. A value is stored only once it
//! is written: a record loaded with an all-zero value of at most 4 KiB
//! owns no arena bytes and reads as zeros until its first
//! [`db::Database::record_mut`]. Hash-table slots are 12 bytes.
//!
//! # Examples
//!
//! ```
//! use hades_storage::{db::Database, index::IndexKind};
//!
//! let mut db = Database::new(5);
//! let accounts = db.create_table("accounts", IndexKind::BPlusTree);
//! let rid = db.insert(accounts, 1001, vec![0u8; 128]);
//! db.record_mut(rid).write_u64(0, 5_000); // initial balance
//! assert_eq!(db.record(rid).read_u64(0), 5_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod db;
pub mod index;
pub mod record;

pub use db::{uniform_home, Database, TableId};
pub use index::{IndexKind, KvIndex, Lookup};
pub use record::{Record, RecordId, RecordMut, LINE_BYTES};
