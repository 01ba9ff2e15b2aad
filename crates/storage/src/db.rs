//! The partitioned database: tables, record placement and allocation.
//!
//! Records are statically distributed across the nodes in a uniform manner
//! (Section VII) via a hash partition; each node owns a disjoint slab of
//! the global cache-line address space. All simulated protocols share one
//! `Database` — it *is* the cluster's storage.
//!
//! The host layout is flat, like FaRM's object regions: one 40-byte
//! [`RecordHeader`] per record in a single vector, and every value in a
//! database-owned arena of [`ARENA_CHUNK_BYTES`] chunks. Each record
//! reserves its full line span in one chunk, so a freed record can be
//! reused by any value with the same line count.
//!
//! A value is stored only once it is written. The TPC-C, YCSB and TATP
//! loaders fill their tables with zero bytes and a run writes a few
//! percent of the records, so a record loaded with an all-zero value of
//! at most 4 KiB owns no arena bytes: [`Database::record`] reads it from
//! a static zero buffer, and the first [`Database::record_mut`] reserves
//! its span from the arena, whose fresh bytes are zero.

use crate::index::{new_index, IndexKind, KvIndex, Lookup};
use crate::record::{Record, RecordHeader, RecordId, RecordMut, RecordView, LINE_BYTES};
use hades_sim::ids::NodeId;
use hades_sim::rng::SimRng;

/// Identifies a table within a [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u16);

/// Size of one value-arena chunk. Values are never split across chunks; a
/// value whose line span exceeds this gets a chunk of its own.
pub const ARENA_CHUNK_BYTES: usize = 1 << 20;

/// Largest all-zero value [`Database::insert`] leaves unstored; a larger
/// one is stored at once.
const MAX_UNSTORED_BYTES: usize = 4096;

/// The value of every unstored record.
static ZEROS: [u8; MAX_UNSTORED_BYTES] = [0; MAX_UNSTORED_BYTES];

/// [`RecordHeader`] arena position of a record whose value is not stored
/// yet: it reads as zeros and owns no arena bytes.
const UNSTORED: u64 = u64::MAX;

/// Bits reserved for the per-node line-address slab; node `n`'s lines start
/// at `n << NODE_SLAB_SHIFT`.
const NODE_SLAB_SHIFT: u32 = 40;

/// Uniform static partition: the home node of `key` among `nodes` nodes.
pub fn uniform_home(key: u64, nodes: usize) -> NodeId {
    assert!(nodes > 0 && nodes < (1 << 16), "node count {nodes} invalid");
    let mut h = key.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    NodeId((h % nodes as u64) as u16)
}

/// The node that owns a cache-line address.
pub fn home_of_line(line: u64) -> NodeId {
    NodeId((line >> NODE_SLAB_SHIFT) as u16)
}

/// Bump allocator for record values over fixed-size chunks. Chunks are
/// never reallocated or freed, so a value's position is stable.
#[derive(Default)]
struct Arena {
    chunks: Vec<Box<[u8]>>,
    /// Bytes handed out from the last chunk.
    used: usize,
}

impl Arena {
    /// Reserves `span` zeroed bytes within one chunk and returns their
    /// position: chunk index in the high 32 bits, byte offset in the low.
    fn alloc(&mut self, span: usize) -> u64 {
        let fits = self
            .chunks
            .last()
            .is_some_and(|c| c.len() - self.used >= span);
        if !fits {
            let size = span.max(ARENA_CHUNK_BYTES);
            self.chunks.push(vec![0u8; size].into_boxed_slice());
            self.used = 0;
        }
        let pos = ((self.chunks.len() - 1) as u64) << 32 | self.used as u64;
        self.used += span;
        pos
    }

    fn bytes(&self, pos: u64, len: u32) -> &[u8] {
        let start = pos as u32 as usize;
        &self.chunks[(pos >> 32) as usize][start..start + len as usize]
    }

    fn bytes_mut(&mut self, pos: u64, len: u32) -> &mut [u8] {
        let start = pos as u32 as usize;
        &mut self.chunks[(pos >> 32) as usize][start..start + len as usize]
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("chunks", &self.chunks.len())
            .field("used", &self.used)
            .finish()
    }
}

#[derive(Debug)]
struct Table {
    name: String,
    index: Box<dyn KvIndex + Send>,
    /// Keys grouped by home node, for locality-aware sampling (Fig 12b).
    keys_by_home: Vec<Vec<u64>>,
}

/// A partitioned multi-table database over `N` nodes.
///
/// # Examples
///
/// ```
/// use hades_storage::db::Database;
/// use hades_storage::index::IndexKind;
///
/// let mut db = Database::new(5);
/// let t = db.create_table("accounts", IndexKind::HashTable);
/// let rid = db.insert(t, 42, vec![0u8; 128]);
/// let hit = db.lookup(t, 42).unwrap();
/// assert_eq!(hit.rid, rid);
/// assert_eq!(db.record(rid).num_lines(), 2);
/// ```
#[derive(Debug)]
pub struct Database {
    nodes: usize,
    tables: Vec<Table>,
    records: Vec<RecordHeader>,
    /// Value bytes of every stored record.
    arena: Arena,
    /// Next free line offset within each node's slab.
    next_line: Vec<u64>,
    /// Freed records available for reuse, keyed by (home, line count).
    free_records: std::collections::HashMap<(NodeId, u32), Vec<RecordId>>,
    /// Whether committed writes are appended to the history log.
    history_enabled: bool,
    /// Per-record committed-write version counter (history mode only).
    commit_seq: std::collections::HashMap<RecordId, u64>,
    /// Append-only log of committed writes (history mode only).
    history: Vec<CommitHistoryEntry>,
}

/// One committed write in the database's optional history log: which
/// record, its per-record version number, and the value observed after
/// the mutation (the post-RMW counter word for RMW ops, 0 otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitHistoryEntry {
    /// The mutated record.
    pub rid: RecordId,
    /// Per-record version: 1 for the record's first committed write,
    /// then strictly +1 per subsequent committed write.
    pub seq: u64,
    /// Value read back after the mutation (RMW ops only; 0 otherwise).
    pub value_after: u64,
}

impl Database {
    /// Creates an empty database partitioned over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "database needs at least one node");
        Database {
            nodes,
            tables: Vec::new(),
            records: Vec::new(),
            arena: Arena::default(),
            next_line: vec![0; nodes],
            free_records: std::collections::HashMap::new(),
            history_enabled: false,
            commit_seq: std::collections::HashMap::new(),
            history: Vec::new(),
        }
    }

    /// Turns on the committed-write history log (off by default; a run
    /// with it off records nothing and behaves byte-identically to a
    /// build without the log).
    pub fn enable_commit_history(&mut self) {
        self.history_enabled = true;
    }

    /// Whether the committed-write history log is recording.
    pub fn commit_history_enabled(&self) -> bool {
        self.history_enabled
    }

    /// Appends one committed write to the history log and returns the
    /// record's new version number. No-op (returning 0) when the log is
    /// disabled.
    pub fn note_commit(&mut self, rid: RecordId, value_after: u64) -> u64 {
        if !self.history_enabled {
            return 0;
        }
        let seq = self.commit_seq.entry(rid).or_insert(0);
        *seq += 1;
        let seq = *seq;
        self.history.push(CommitHistoryEntry {
            rid,
            seq,
            value_after,
        });
        seq
    }

    /// The record's current committed-write version (0 if never written
    /// or the log is disabled).
    pub fn commit_seq_of(&self, rid: RecordId) -> u64 {
        self.commit_seq.get(&rid).copied().unwrap_or(0)
    }

    /// The committed-write history log, in commit order.
    pub fn commit_history(&self) -> &[CommitHistoryEntry] {
        &self.history
    }

    /// Number of nodes data is partitioned over.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Creates a table backed by the given index shape.
    pub fn create_table(&mut self, name: &str, kind: IndexKind) -> TableId {
        let id = TableId(self.tables.len() as u16);
        self.tables.push(Table {
            name: name.to_string(),
            index: new_index(kind),
            keys_by_home: vec![Vec::new(); self.nodes],
        });
        id
    }

    /// Table display name.
    pub fn table_name(&self, table: TableId) -> &str {
        &self.tables[table.0 as usize].name
    }

    /// Number of keys in a table.
    pub fn table_len(&self, table: TableId) -> usize {
        self.tables[table.0 as usize].index.len()
    }

    /// Total records across all tables.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Inserts a record with the default (uniform hash) placement.
    pub fn insert(&mut self, table: TableId, key: u64, value: impl AsRef<[u8]>) -> RecordId {
        let home = uniform_home(key, self.nodes);
        self.insert_at(table, key, value, home)
    }

    /// Inserts a record homed at an explicit node (used by workloads that
    /// co-locate related records, e.g. TPC-C districts with their
    /// warehouse).
    ///
    /// An all-zero value of at most 4 KiB is left unstored until the
    /// record is first written.
    ///
    /// # Panics
    ///
    /// Panics if the key already exists in the table, if `home` is out of
    /// range, or if `value` is empty.
    pub fn insert_at(
        &mut self,
        table: TableId,
        key: u64,
        value: impl AsRef<[u8]>,
        home: NodeId,
    ) -> RecordId {
        let value = value.as_ref();
        assert!((home.0 as usize) < self.nodes, "home {home} out of range");
        assert!(!value.is_empty(), "record value must be nonempty");
        let len = u32::try_from(value.len()).expect("record value exceeds 4 GiB");
        let num_lines = value.len().div_ceil(LINE_BYTES) as u32;
        // Branch-free so the check vectorises: an early exit on the first
        // non-zero byte makes loading slower than copying the bytes.
        let zero = value.len() <= MAX_UNSTORED_BYTES && value.iter().fold(0, |a, &b| a | b) == 0;
        // Reuse a freed record of the same geometry if one exists: the
        // record keeps its (bumped) incarnation, which is how Fig 1's
        // incarnation field lets readers detect freed-and-reused records.
        let rid = if let Some(rid) = self
            .free_records
            .get_mut(&(home, num_lines))
            .and_then(|v| v.pop())
        {
            self.records[rid.0 as usize].reuse(len);
            rid
        } else {
            let slab = &mut self.next_line[home.0 as usize];
            let base_line = ((home.0 as u64) << NODE_SLAB_SHIFT) + *slab;
            *slab += num_lines as u64;
            let pos = if zero {
                UNSTORED
            } else {
                self.arena.alloc(num_lines as usize * LINE_BYTES)
            };
            let rid = RecordId(self.records.len() as u32);
            self.records.push(RecordHeader::new(base_line, pos, len));
            rid
        };
        // A stored record is always overwritten, so a reused record keeps
        // none of its previous value's bytes.
        if !zero || self.records[rid.0 as usize].offset != UNSTORED {
            self.record_mut(rid).write(0, value);
        }
        let t = &mut self.tables[table.0 as usize];
        let prev = t.index.insert(key, rid);
        assert!(prev.is_none(), "duplicate key {key} in table {table:?}");
        t.keys_by_home[home.0 as usize].push(key);
        rid
    }

    /// Removes `key` from `table`, freeing its record for reuse. The
    /// record's incarnation is bumped (Fig 1): a stale reader that fetched
    /// the record before the free can detect the reuse.
    ///
    /// # Panics
    ///
    /// Panics if the record is still locked.
    pub fn remove(&mut self, table: TableId, key: u64) -> Option<RecordId> {
        let rid = self.tables[table.0 as usize].index.remove(key)?;
        let mut rec = self.record_mut(rid);
        assert!(!rec.is_locked(), "removing a locked record");
        rec.bump_incarnation();
        let home = rec.home();
        let lines = rec.num_lines();
        self.tables[table.0 as usize].keys_by_home[home.0 as usize].retain(|&k| k != key);
        self.free_records
            .entry((home, lines))
            .or_default()
            .push(rid);
        Some(rid)
    }

    /// Looks up a key, reporting index traversal depth for timing.
    pub fn lookup(&self, table: TableId, key: u64) -> Option<Lookup> {
        self.tables[table.0 as usize].index.get(key)
    }

    /// Shared view of a record.
    pub fn record(&self, rid: RecordId) -> Record<'_> {
        let hdr = &self.records[rid.0 as usize];
        let data = if hdr.offset == UNSTORED {
            &ZEROS[..hdr.len as usize]
        } else {
            self.arena.bytes(hdr.offset, hdr.len)
        };
        RecordView::new(hdr, data)
    }

    /// Exclusive view of a record. Stores the value first if it is not
    /// stored yet.
    pub fn record_mut(&mut self, rid: RecordId) -> RecordMut<'_> {
        let hdr = &mut self.records[rid.0 as usize];
        if hdr.offset == UNSTORED {
            hdr.offset = self
                .arena
                .alloc(hdr.len.div_ceil(LINE_BYTES as u32) as usize * LINE_BYTES);
        }
        let data = self.arena.bytes_mut(hdr.offset, hdr.len);
        RecordView::new(hdr, data)
    }

    /// A uniformly random key from `table` homed at `node`, or `None` if
    /// that node holds no keys of this table.
    pub fn random_key_at(&self, table: TableId, node: NodeId, rng: &mut SimRng) -> Option<u64> {
        let keys = &self.tables[table.0 as usize].keys_by_home[node.0 as usize];
        if keys.is_empty() {
            None
        } else {
            Some(keys[rng.below(keys.len() as u64) as usize])
        }
    }

    /// A uniformly random key from `table` homed anywhere *except* `node`.
    pub fn random_key_not_at(&self, table: TableId, node: NodeId, rng: &mut SimRng) -> Option<u64> {
        let t = &self.tables[table.0 as usize];
        let total: usize = t
            .keys_by_home
            .iter()
            .enumerate()
            .filter(|(n, _)| *n != node.0 as usize)
            .map(|(_, k)| k.len())
            .sum();
        if total == 0 {
            return None;
        }
        let mut pick = rng.below(total as u64) as usize;
        for (n, keys) in t.keys_by_home.iter().enumerate() {
            if n == node.0 as usize {
                continue;
            }
            if pick < keys.len() {
                return Some(keys[pick]);
            }
            pick -= keys.len();
        }
        unreachable!("pick within total")
    }

    /// Keys of `table` homed at `node` (read-only view).
    pub fn keys_at(&self, table: TableId, node: NodeId) -> &[u64] {
        &self.tables[table.0 as usize].keys_by_home[node.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_home_is_balanced() {
        let nodes = 5;
        let mut counts = vec![0u32; nodes];
        for key in 0..50_000u64 {
            counts[uniform_home(key, nodes).0 as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "partition skewed: {c}");
        }
    }

    #[test]
    fn line_slabs_are_disjoint_per_node() {
        let mut db = Database::new(3);
        let t = db.create_table("t", IndexKind::HashTable);
        for key in 0..300u64 {
            db.insert(t, key, vec![0u8; 128]);
        }
        for key in 0..300u64 {
            let rid = db.lookup(t, key).unwrap().rid;
            let r = db.record(rid);
            for line in r.lines() {
                assert_eq!(home_of_line(line), r.home(), "line in wrong slab");
            }
        }
    }

    #[test]
    fn explicit_placement_respected() {
        let mut db = Database::new(4);
        let t = db.create_table("w", IndexKind::BTree);
        let rid = db.insert_at(t, 7, vec![1u8; 64], NodeId(3));
        assert_eq!(db.record(rid).home(), NodeId(3));
        assert_eq!(db.keys_at(t, NodeId(3)), &[7]);
        assert!(db.keys_at(t, NodeId(0)).is_empty());
    }

    #[test]
    fn locality_sampling() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::Map);
        db.insert_at(t, 1, vec![0u8; 64], NodeId(0));
        db.insert_at(t, 2, vec![0u8; 64], NodeId(1));
        db.insert_at(t, 3, vec![0u8; 64], NodeId(1));
        let mut rng = SimRng::seed_from(1);
        for _ in 0..20 {
            assert_eq!(db.random_key_at(t, NodeId(0), &mut rng), Some(1));
            let k = db.random_key_not_at(t, NodeId(0), &mut rng).unwrap();
            assert!(k == 2 || k == 3);
            let k = db.random_key_not_at(t, NodeId(1), &mut rng).unwrap();
            assert_eq!(k, 1);
        }
    }

    #[test]
    fn empty_node_sampling_returns_none() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::HashTable);
        let mut rng = SimRng::seed_from(2);
        assert_eq!(db.random_key_at(t, NodeId(0), &mut rng), None);
        assert_eq!(db.random_key_not_at(t, NodeId(0), &mut rng), None);
    }

    #[test]
    fn multiple_tables_are_independent() {
        let mut db = Database::new(2);
        let a = db.create_table("a", IndexKind::HashTable);
        let b = db.create_table("b", IndexKind::BPlusTree);
        db.insert(a, 1, vec![0u8; 64]);
        db.insert(b, 1, vec![0u8; 192]);
        assert_eq!(db.table_len(a), 1);
        assert_eq!(db.table_len(b), 1);
        assert_eq!(db.record_count(), 2);
        let ra = db.record(db.lookup(a, 1).unwrap().rid);
        let rb = db.record(db.lookup(b, 1).unwrap().rid);
        assert_eq!(ra.num_lines(), 1);
        assert_eq!(rb.num_lines(), 3);
        assert_eq!(db.table_name(b), "b");
    }

    #[test]
    fn remove_frees_and_reuse_bumps_incarnation() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::HashTable);
        let rid = db.insert(t, 7, vec![1u8; 128]);
        let base_lines: Vec<u64> = db.record(rid).lines().collect();
        assert_eq!(db.record(rid).incarnation(), 0);
        assert_eq!(db.remove(t, 7), Some(rid));
        assert!(db.lookup(t, 7).is_none());
        assert_eq!(db.record(rid).incarnation(), 1, "free bumps incarnation");
        // Same-geometry insert reuses the record (and its lines).
        let home = db.record(rid).home();
        let rid2 = db.insert_at(t, 8, vec![2u8; 128], home);
        assert_eq!(rid2, rid, "freed record reused");
        assert_eq!(db.record(rid2).lines().collect::<Vec<u64>>(), base_lines);
        assert_eq!(
            db.record(rid2).incarnation(),
            1,
            "incarnation survives reuse"
        );
        assert_eq!(db.record(rid2).version(), 0, "version resets on reuse");
        assert_eq!(db.record(rid2).read(0, 2), &[2, 2]);
        // keys_by_home bookkeeping follows.
        assert!(db.keys_at(t, home).contains(&8));
        assert!(!db.keys_at(t, home).contains(&7));
        // A reused record takes any value with the same line count: a
        // 100 B value's slot later holds 128 B, because every record
        // reserves its full line span in the arena.
        let short = db.insert_at(t, 9, vec![3u8; 100], home);
        let neighbour = db.insert_at(t, 10, vec![4u8; 64], home);
        assert_eq!(db.remove(t, 9), Some(short));
        let long = db.insert_at(t, 11, vec![5u8; 128], home);
        assert_eq!(long, short, "2-line slot reused for a longer value");
        assert_eq!(db.record(long).value_len(), 128);
        assert_eq!(db.record(long).read(96, 32), &[5u8; 32]);
        assert_eq!(db.record(neighbour).read(0, 64), &[4u8; 64]);
    }

    #[test]
    fn value_larger_than_a_chunk_gets_its_own() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::HashTable);
        let big_len = ARENA_CHUNK_BYTES + 100;
        let mut big = vec![0u8; big_len];
        big[big_len - 1] = 9;
        let before = db.insert(t, 1, vec![1u8; 64]);
        let rid = db.insert(t, 2, &big);
        let after = db.insert(t, 3, vec![3u8; 64]);
        let rec = db.record(rid);
        assert_eq!(rec.value_len(), big_len);
        assert_eq!(rec.num_lines() as usize, big_len.div_ceil(LINE_BYTES));
        assert_eq!(rec.read(big_len - 2, 2), &[0, 9]);
        db.record_mut(rid).write_u64(0, 42);
        assert_eq!(db.record(rid).read_u64(0), 42);
        assert_eq!(db.record(before).read(0, 64), &[1u8; 64]);
        assert_eq!(db.record(after).read(0, 64), &[3u8; 64]);
        assert_eq!(db.arena.chunks.len(), 3, "small, big, small");
        assert_eq!(db.arena.chunks[1].len(), big_len.div_ceil(64) * 64);
    }

    #[test]
    fn zero_load_allocates_no_arena_chunk() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::HashTable);
        for key in 0..1_000u64 {
            db.insert(t, key, vec![0u8; 192]);
        }
        assert!(db.arena.chunks.is_empty(), "zero values stay unstored");
        let rid = db.lookup(t, 7).unwrap().rid;
        assert_eq!(db.record(rid).read(0, 192), &[0u8; 192]);
        assert_eq!(db.record(rid).num_lines(), 3);
    }

    #[test]
    fn first_record_mut_stores_the_value() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        let rid = db.insert(t, 1, vec![0u8; 100]);
        let other = db.insert(t, 2, vec![0u8; 100]);
        assert_eq!(db.records[rid.0 as usize].offset, UNSTORED);
        assert_eq!(db.record_mut(rid).read(0, 100), &[0u8; 100]);
        assert_ne!(db.records[rid.0 as usize].offset, UNSTORED, "stored");
        assert_eq!(db.arena.used, 128, "the record's full line span");
        db.record_mut(rid).write(96, &[7, 8, 9, 10]);
        assert_eq!(db.record(rid).read(94, 6), &[0, 0, 7, 8, 9, 10]);
        assert_eq!(db.records[other.0 as usize].offset, UNSTORED);
        assert_eq!(db.record(other).read(96, 4), &[0u8; 4]);
    }

    #[test]
    fn reinserted_zero_value_overwrites_stale_bytes() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        let rid = db.insert(t, 1, vec![0u8; 64]);
        db.record_mut(rid).write(0, &[0xAB; 64]);
        assert_eq!(db.remove(t, 1), Some(rid));
        assert_eq!(db.insert(t, 2, vec![0u8; 64]), rid, "freed record reused");
        assert_eq!(db.record(rid).read(0, 64), &[0u8; 64], "no stale bytes");
        // A reused record that was never stored takes a non-zero value.
        let blank = db.insert(t, 3, vec![0u8; 64]);
        assert_eq!(db.remove(t, 3), Some(blank));
        assert_eq!(db.insert(t, 4, vec![5u8; 64]), blank);
        assert_eq!(db.record(blank).read(0, 64), &[5u8; 64]);
    }

    #[test]
    fn non_zero_insert_is_stored_at_once() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        let mut v = vec![0u8; 128];
        v[127] = 1;
        let rid = db.insert(t, 1, &v);
        assert_ne!(db.records[rid.0 as usize].offset, UNSTORED);
        assert_eq!(db.arena.used, 128);
        assert_eq!(db.record(rid).read(0, 128), &v[..]);
    }

    #[test]
    fn zero_value_over_the_limit_is_stored_at_insert() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        let at_limit = db.insert(t, 1, vec![0u8; MAX_UNSTORED_BYTES]);
        assert_eq!(db.records[at_limit.0 as usize].offset, UNSTORED);
        let over = db.insert(t, 2, vec![0u8; MAX_UNSTORED_BYTES + 1]);
        assert_ne!(db.records[over.0 as usize].offset, UNSTORED);
        assert_eq!(db.arena.used, MAX_UNSTORED_BYTES + LINE_BYTES);
        assert_eq!(db.record(over).read(MAX_UNSTORED_BYTES, 1), &[0]);
    }

    #[test]
    fn remove_missing_key_is_none() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::BTree);
        assert_eq!(db.remove(t, 5), None);
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_keys_rejected() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        db.insert(t, 1, vec![0u8; 64]);
        db.insert(t, 1, vec![0u8; 64]);
    }

    #[test]
    fn record_mutation_via_db() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        let rid = db.insert(t, 9, vec![0u8; 64]);
        db.record_mut(rid).write_u64(0, 777);
        assert_eq!(db.record(rid).read_u64(0), 777);
    }

    #[test]
    fn commit_history_off_by_default_and_versions_when_on() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        let a = db.insert(t, 1, vec![0u8; 64]);
        let b = db.insert(t, 2, vec![0u8; 64]);
        // Disabled: recording is a no-op.
        assert_eq!(db.note_commit(a, 10), 0);
        assert!(db.commit_history().is_empty());
        assert_eq!(db.commit_seq_of(a), 0);
        db.enable_commit_history();
        assert!(db.commit_history_enabled());
        assert_eq!(db.note_commit(a, 10), 1);
        assert_eq!(db.note_commit(b, 5), 1);
        assert_eq!(db.note_commit(a, 17), 2);
        assert_eq!(db.commit_seq_of(a), 2);
        assert_eq!(db.commit_seq_of(b), 1);
        let h = db.commit_history();
        assert_eq!(h.len(), 3);
        assert_eq!(
            h[2],
            CommitHistoryEntry {
                rid: a,
                seq: 2,
                value_after: 17
            }
        );
    }
}
