//! Database records and the augmented metadata layout of Fig 1.
//!
//! A record is the unit the *software* protocols operate on: the baseline
//! (and the HADES-H local path) keeps a version, a lock word and an
//! incarnation next to the data, and reads/writes whole records. HADES
//! itself ignores all of this metadata — it tracks raw cache lines — which
//! is exactly the point of the paper (Table I, row 2: "No record
//! versions").
//!
//! The [`Database`] keeps each record's metadata in a 40-byte
//! [`RecordHeader`] and its value in a shared arena; [`Record`] and
//! [`RecordMut`] pair the two for reading and writing.
//!
//! [`Database`]: crate::db::Database

use crate::db::home_of_line;
use hades_sim::ids::NodeId;
use std::ops::{Deref, DerefMut};

/// Number of bytes per cache line; fixed across the reproduction.
pub const LINE_BYTES: usize = 64;

/// A stable handle to a record within a [`Database`].
///
/// [`Database`]: crate::db::Database
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u32);

/// Lock word of an unlocked record. Owner tokens are `node << 32 | slot`
/// with a 16-bit node, so no owner ever holds this value.
const UNLOCKED: u64 = u64::MAX;

/// The 40-byte per-record header the [`Database`] keeps: the first cache
/// line (which also names the home node), where the value sits in the
/// database's value arena, and the Fig 1 software metadata.
///
/// [`Database`]: crate::db::Database
#[derive(Debug, Clone)]
pub struct RecordHeader {
    base_line: u64,
    /// Arena position of the value: chunk index in the high 32 bits,
    /// byte offset within the chunk in the low 32; `u64::MAX` while the
    /// value is not stored (it then reads as zeros).
    pub(crate) offset: u64,
    /// Fig 1 `Version` — bumped by software protocols on every write.
    version: u64,
    /// Fig 1 `Lock` — an opaque owner token, or [`UNLOCKED`].
    lock: u64,
    /// Value size in bytes.
    pub(crate) len: u32,
    /// Fig 1 `Incarnation` — bumped when the record is freed/reused.
    incarnation: u32,
}

impl RecordHeader {
    /// A fresh unlocked header for a `len`-byte value at arena `offset`
    /// whose first cache line is `base_line`.
    pub(crate) fn new(base_line: u64, offset: u64, len: u32) -> Self {
        RecordHeader {
            base_line,
            offset,
            version: 0,
            lock: UNLOCKED,
            len,
            incarnation: 0,
        }
    }

    /// Prepares a freed header for reuse with a `len`-byte value of the
    /// same line count: the version resets (a fresh logical record) but
    /// the incarnation persists so stale readers can detect the reuse.
    ///
    /// # Panics
    ///
    /// Panics if `len` needs a different number of cache lines: the value
    /// would not fit the line span reserved in the arena.
    pub(crate) fn reuse(&mut self, len: u32) {
        let lines = |n: u32| n.div_ceil(LINE_BYTES as u32);
        assert_eq!(
            lines(len),
            lines(self.len),
            "reuse requires matching geometry"
        );
        self.len = len;
        self.version = 0;
        self.lock = UNLOCKED;
    }
}

/// A view of one database record: its header plus its value bytes in the
/// arena. [`Record`] is the shared view, [`RecordMut`] the exclusive one.
#[derive(Debug)]
pub struct RecordView<H, D> {
    hdr: H,
    data: D,
}

/// Shared view of a record, from [`Database::record`].
///
/// [`Database::record`]: crate::db::Database::record
pub type Record<'a> = RecordView<&'a RecordHeader, &'a [u8]>;

/// Exclusive view of a record, from [`Database::record_mut`].
///
/// [`Database::record_mut`]: crate::db::Database::record_mut
pub type RecordMut<'a> = RecordView<&'a mut RecordHeader, &'a mut [u8]>;

impl<H, D> RecordView<H, D>
where
    H: Deref<Target = RecordHeader>,
    D: Deref<Target = [u8]>,
{
    /// Pairs a header with its value bytes.
    pub(crate) fn new(hdr: H, data: D) -> Self {
        debug_assert_eq!(data.len(), hdr.len as usize);
        RecordView { hdr, data }
    }

    /// The node this record is homed at.
    pub fn home(&self) -> NodeId {
        home_of_line(self.hdr.base_line)
    }

    /// Number of cache lines the record spans.
    pub fn num_lines(&self) -> u32 {
        self.data.len().div_ceil(LINE_BYTES) as u32
    }

    /// Value size in bytes.
    pub fn value_len(&self) -> usize {
        self.data.len()
    }

    /// All cache-line addresses of the record, in order.
    pub fn lines(&self) -> impl Iterator<Item = u64> {
        let base = self.hdr.base_line;
        (0..self.num_lines() as u64).map(move |i| base + i)
    }

    /// The cache lines covered by the byte range `off..off+len`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the value.
    pub fn lines_for_range(&self, off: usize, len: usize) -> Vec<u64> {
        assert!(len > 0, "empty range");
        assert!(off + len <= self.data.len(), "range beyond record");
        let first = off / LINE_BYTES;
        let last = (off + len - 1) / LINE_BYTES;
        (first..=last)
            .map(|i| self.hdr.base_line + i as u64)
            .collect()
    }

    /// Splits a write of `off..off+len` into (partially written lines,
    /// fully overwritten lines). Partial lines sit at the edges of the
    /// range; HADES must fetch only those before buffering the write
    /// (Table II, remote write).
    pub fn split_write_lines(&self, off: usize, len: usize) -> (Vec<u64>, Vec<u64>) {
        let covered = self.lines_for_range(off, len);
        let mut partial = Vec::new();
        let mut full = Vec::new();
        for &line in &covered {
            let idx = (line - self.hdr.base_line) as usize;
            let line_start = idx * LINE_BYTES;
            let line_end = (line_start + LINE_BYTES).min(self.data.len());
            if off <= line_start && off + len >= line_end {
                full.push(line);
            } else {
                partial.push(line);
            }
        }
        (partial, full)
    }

    /// Current Fig 1 version.
    pub fn version(&self) -> u64 {
        self.hdr.version
    }

    /// Current incarnation.
    pub fn incarnation(&self) -> u32 {
        self.hdr.incarnation
    }

    /// Whether the record is locked (by anyone).
    pub fn is_locked(&self) -> bool {
        self.hdr.lock != UNLOCKED
    }

    /// Whether the record is locked by `owner`.
    pub fn locked_by(&self, owner: u64) -> bool {
        self.is_locked() && self.hdr.lock == owner
    }

    /// Reads `len` bytes at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the value.
    pub fn read(&self, off: usize, len: usize) -> &[u8] {
        &self.data[off..off + len]
    }

    /// Reads a little-endian `u64` field at byte offset `off`.
    pub fn read_u64(&self, off: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[off..off + 8]);
        u64::from_le_bytes(b)
    }
}

impl<H, D> RecordView<H, D>
where
    H: DerefMut<Target = RecordHeader>,
    D: DerefMut<Target = [u8]>,
{
    /// Bumps the version (software write path).
    pub fn bump_version(&mut self) {
        self.hdr.version += 1;
    }

    /// Bumps the incarnation (record freed and reused).
    pub fn bump_incarnation(&mut self) {
        self.hdr.incarnation += 1;
    }

    /// Attempts to take the record lock for `owner` (the CAS of the
    /// validation phase). Re-locking by the current owner succeeds.
    pub fn try_lock(&mut self, owner: u64) -> bool {
        debug_assert_ne!(owner, UNLOCKED, "owner token collides with UNLOCKED");
        if self.hdr.lock == UNLOCKED {
            self.hdr.lock = owner;
            true
        } else {
            self.hdr.lock == owner
        }
    }

    /// Releases the lock if held by `owner`; no-op otherwise.
    pub fn unlock(&mut self, owner: u64) {
        if self.locked_by(owner) {
            self.hdr.lock = UNLOCKED;
        }
    }

    /// Overwrites bytes at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the value.
    pub fn write(&mut self, off: usize, bytes: &[u8]) {
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Writes a little-endian `u64` field at byte offset `off`.
    pub fn write_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Adds `delta` (wrapping) to the `u64` field at `off` and returns the
    /// new value — the read-modify-write at the heart of Smallbank.
    pub fn add_u64(&mut self, off: usize, delta: i64) -> u64 {
        let v = self.read_u64(off).wrapping_add(delta as u64);
        self.write_u64(off, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A header and value buffer outside any database, for exercising
    /// the views directly.
    struct Owned {
        hdr: RecordHeader,
        data: Vec<u8>,
    }

    impl Owned {
        fn view(&self) -> Record<'_> {
            RecordView::new(&self.hdr, &self.data[..])
        }

        fn view_mut(&mut self) -> RecordMut<'_> {
            RecordView::new(&mut self.hdr, &mut self.data[..])
        }
    }

    fn owned(bytes: usize) -> Owned {
        Owned {
            hdr: RecordHeader::new(1000, 0, bytes as u32),
            data: vec![0u8; bytes],
        }
    }

    #[test]
    fn header_fits_40_bytes() {
        assert!(std::mem::size_of::<RecordHeader>() <= 40);
    }

    #[test]
    fn line_footprint() {
        assert_eq!(owned(1).view().num_lines(), 1);
        assert_eq!(owned(64).view().num_lines(), 1);
        assert_eq!(owned(65).view().num_lines(), 2);
        assert_eq!(owned(128).view().num_lines(), 2);
        let o = owned(130);
        let r = o.view();
        assert_eq!(r.num_lines(), 3);
        assert_eq!(r.lines().collect::<Vec<_>>(), vec![1000, 1001, 1002]);
    }

    #[test]
    fn lines_for_range_covers_exactly() {
        let o = owned(256); // 4 lines
        let r = o.view();
        assert_eq!(r.lines_for_range(0, 64), vec![1000]);
        assert_eq!(r.lines_for_range(60, 8), vec![1000, 1001]);
        assert_eq!(r.lines_for_range(64, 192), vec![1001, 1002, 1003]);
    }

    #[test]
    fn split_write_identifies_partial_edges() {
        let o = owned(256); // 4 lines
        let r = o.view();
        // Write bytes 32..224: line 1000 partial, 1001-1002 full, 1003 partial.
        let (partial, full) = r.split_write_lines(32, 192);
        assert_eq!(partial, vec![1000, 1003]);
        assert_eq!(full, vec![1001, 1002]);
        // A fully aligned whole-record write has no partial lines.
        let (partial, full) = r.split_write_lines(0, 256);
        assert!(partial.is_empty());
        assert_eq!(full.len(), 4);
        // A small field write is all partial.
        let (partial, full) = r.split_write_lines(8, 8);
        assert_eq!(partial, vec![1000]);
        assert!(full.is_empty());
    }

    #[test]
    fn short_tail_line_counts_as_full_when_fully_covered() {
        let o = owned(100); // 2 lines; second line holds bytes 64..100
        let r = o.view();
        let (partial, full) = r.split_write_lines(0, 100);
        assert!(partial.is_empty(), "whole-record write covers the tail");
        assert_eq!(full.len(), 2);
    }

    #[test]
    fn version_and_lock_lifecycle() {
        let mut o = owned(64);
        let mut r = o.view_mut();
        assert_eq!(r.version(), 0);
        r.bump_version();
        assert_eq!(r.version(), 1);
        assert!(r.try_lock(7));
        assert!(r.try_lock(7), "re-entrant for same owner");
        assert!(!r.try_lock(8));
        assert!(r.locked_by(7));
        r.unlock(8); // wrong owner: no-op
        assert!(r.is_locked());
        r.unlock(7);
        assert!(!r.is_locked());
        assert!(r.try_lock(9));
        assert!(o.view().locked_by(9), "lock word lives in the header");
        assert_eq!(o.view().version(), 1);
    }

    #[test]
    fn value_read_write() {
        let mut o = owned(64);
        let mut r = o.view_mut();
        r.write(3, &[1, 2, 3]);
        assert_eq!(r.read(3, 3), &[1, 2, 3]);
        r.write_u64(8, 0xDEAD);
        assert_eq!(r.read_u64(8), 0xDEAD);
        assert_eq!(r.add_u64(8, -0xAD), 0xDE00);
        assert_eq!(r.add_u64(8, 1), 0xDE01);
    }

    #[test]
    #[should_panic(expected = "matching geometry")]
    fn reuse_rejects_other_line_count() {
        owned(100).hdr.reuse(129);
    }

    #[test]
    #[should_panic(expected = "beyond record")]
    fn range_checked() {
        let o = owned(64);
        let r = o.view();
        let _ = r.lines_for_range(60, 10);
    }
}
