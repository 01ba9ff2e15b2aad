//! Set-associative cache arrays with LRU replacement and speculative-line
//! protection.
//!
//! HADES buffers a transaction's local speculative writes in the cache
//! hierarchy, *including the shared LLC*, and a speculatively written line
//! may not leave the LLC — if it is evicted, the owning transaction must be
//! squashed (Section V-A). Section VIII-C additionally modifies the
//! replacement policy to prefer non-speculative victims within a set. Both
//! behaviours are implemented here.
//!
//! # Layout
//!
//! A cache is two flat, zero-initialised arrays indexed by
//! `set * ways + position`: a `u64` tag (`line + 1`, 0 = invalid) and a
//! `u16` `WrTX_ID` owner (`slot + 1`, 0 = untagged). That is 10 bytes per
//! way and one allocation per array; the zeroed arrays come from lazily
//! zeroed pages, so sets that are never touched never become resident.
//! Recency is kept by position rather than by timestamps: each set's ways
//! are stored most-recently-used first, and a hit or a fill moves its way
//! to the front.

use hades_sim::ids::SlotId;

/// Result of bringing a line into a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// The line was already present.
    Hit,
    /// The line was inserted; no valid line was displaced.
    Miss,
    /// The line was inserted, displacing a non-speculative line.
    Evicted(u64),
    /// The line was inserted, displacing a *speculatively written* line —
    /// the owning transaction must be squashed.
    EvictedSpeculative(u64, SlotId),
}

/// A set-associative, LRU cache array over 64-bit line addresses.
///
/// # Examples
///
/// ```
/// use hades_mem::cache::{Fill, SetAssocCache};
///
/// let mut c = SetAssocCache::new(64 * 1024, 64, 8); // 64 KB, 8-way
/// assert_eq!(c.touch(0x40), Fill::Miss);
/// assert_eq!(c.touch(0x40), Fill::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// `line + 1` per way (0 = invalid); each set's ways in MRU order.
    tags: Vec<u64>,
    /// `WrTX_ID` tag per way as `slot + 1` (0 = untagged). Only the LLC
    /// tags lines; private caches leave every owner 0.
    owners: Vec<u16>,
    num_sets: usize,
    ways: usize,
    hits: u64,
    misses: u64,
}

/// The stored tag of `line`.
fn tag_of(line: u64) -> u64 {
    line.checked_add(1)
        .expect("line address u64::MAX cannot be cached")
}

impl SetAssocCache {
    /// Creates a cache of `bytes` capacity with `line_bytes` lines and
    /// `ways` associativity: `bytes / line_bytes / ways` sets, rounded
    /// down. The set count need not be a power of two (the default 20 MB
    /// 16-way LLC has 20,480 sets); lines map to sets by `line % sets`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` or `line_bytes` is zero, or if `bytes` holds fewer
    /// than `ways` lines (less than one set).
    pub fn new(bytes: usize, line_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be nonzero");
        assert!(line_bytes > 0, "line size must be nonzero");
        let lines = bytes / line_bytes;
        assert!(lines >= ways, "cache smaller than one set");
        let num_sets = lines / ways;
        SetAssocCache {
            tags: vec![0; num_sets * ways],
            owners: vec![0; num_sets * ways],
            num_sets,
            ways,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// (hits, misses) since creation.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The set index a line maps to.
    pub fn set_of(&self, line: u64) -> usize {
        (line % self.num_sets as u64) as usize
    }

    /// Index of the first way of `line`'s set.
    fn base(&self, line: u64) -> usize {
        self.set_of(line) * self.ways
    }

    /// Index of the way holding `line`, if resident.
    fn find(&self, line: u64) -> Option<usize> {
        let tag = tag_of(line);
        let base = self.base(line);
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|i| base + i)
    }

    /// Whether `line` is resident.
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// The speculative owner (`WrTX_ID` tag) of `line`, if resident and
    /// tagged.
    pub fn spec_owner(&self, line: u64) -> Option<SlotId> {
        let owner = self.owners[self.find(line)?];
        (owner != 0).then(|| SlotId(owner - 1))
    }

    /// Accesses `line`, filling it on a miss. The victim choice prefers
    /// invalid ways, then the LRU *non-speculative* way, and only evicts a
    /// speculative line when the whole set is speculative (Section VIII-C
    /// replacement policy).
    ///
    /// # Panics
    ///
    /// Panics if `line` is `u64::MAX`, which has no tag encoding.
    pub fn touch(&mut self, line: u64) -> Fill {
        let tag = tag_of(line);
        let base = self.base(line);
        let tags = &self.tags[base..base + self.ways];
        if let Some(i) = tags.iter().position(|&t| t == tag) {
            self.hits += 1;
            self.make_mru(base, i);
            return Fill::Hit;
        }
        self.misses += 1;
        let owners = &self.owners[base..base + self.ways];
        let (i, fill) = if let Some(i) = tags.iter().position(|&t| t == 0) {
            (i, Fill::Miss)
        } else if let Some(i) = owners.iter().rposition(|&o| o == 0) {
            (i, Fill::Evicted(tags[i] - 1))
        } else {
            // Entire set is speculative: evict the LRU speculative line
            // and report its owner for squashing.
            let i = self.ways - 1;
            let owner = SlotId(owners[i] - 1);
            (i, Fill::EvictedSpeculative(tags[i] - 1, owner))
        };
        self.tags[base + i] = tag;
        self.owners[base + i] = 0;
        self.make_mru(base, i);
        fill
    }

    /// Moves way `i` of the set starting at `base` to the front, shifting
    /// the more recently used ways back by one.
    fn make_mru(&mut self, base: usize, i: usize) {
        self.tags[base..=base + i].rotate_right(1);
        self.owners[base..=base + i].rotate_right(1);
    }

    /// Sets the `WrTX_ID` tag of a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (callers must `touch` first), or
    /// if `owner` is `SlotId(u16::MAX)`, which has no tag encoding.
    pub fn set_spec_owner(&mut self, line: u64, owner: SlotId) {
        let encoded = owner
            .0
            .checked_add(1)
            .expect("SlotId(u16::MAX) cannot be encoded as a WrTX_ID tag");
        let w = self.find(line).expect("tagging a non-resident line");
        self.owners[w] = encoded;
    }

    /// Clears the `WrTX_ID` tag of `line` if resident; returns whether a tag
    /// was cleared.
    pub fn clear_spec_owner(&mut self, line: u64) -> bool {
        match self.find(line) {
            Some(w) if self.owners[w] != 0 => {
                self.owners[w] = 0;
                true
            }
            _ => false,
        }
    }

    /// Invalidates `line` if resident (used when squashing: speculative
    /// data must be discarded).
    pub fn invalidate(&mut self, line: u64) {
        if let Some(w) = self.find(line) {
            self.tags[w] = 0;
            self.owners[w] = 0;
        }
    }

    /// Number of resident lines currently tagged speculative.
    pub fn speculative_lines(&self) -> usize {
        self.owners.iter().filter(|&&o| o != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_sim::rng::SimRng;

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(1024, 64, 2); // 16 lines, 8 sets
        assert_eq!(c.touch(3), Fill::Miss);
        assert_eq!(c.touch(3), Fill::Hit);
        assert!(c.contains(3));
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = SetAssocCache::new(256, 64, 2); // 4 lines, 2 sets
                                                    // Lines 0, 2, 4 all map to set 0.
        c.touch(0);
        c.touch(2);
        c.touch(0); // 0 is now MRU; 2 is LRU
        assert_eq!(c.touch(4), Fill::Evicted(2));
        assert!(c.contains(0));
        assert!(!c.contains(2));
    }

    #[test]
    fn replacement_prefers_non_speculative_victim() {
        let mut c = SetAssocCache::new(256, 64, 2); // 2 sets
        c.touch(0);
        c.touch(2);
        c.set_spec_owner(0, SlotId(5));
        // 0 is LRU but speculative: 2 must be the victim.
        assert_eq!(c.touch(4), Fill::Evicted(2));
        assert!(c.contains(0));
    }

    #[test]
    fn full_speculative_set_reports_squash() {
        let mut c = SetAssocCache::new(256, 64, 2);
        c.touch(0);
        c.touch(2);
        c.set_spec_owner(0, SlotId(1));
        c.set_spec_owner(2, SlotId(2));
        match c.touch(4) {
            Fill::EvictedSpeculative(line, owner) => {
                assert_eq!(line, 0); // LRU speculative line
                assert_eq!(owner, SlotId(1));
            }
            other => panic!("expected speculative eviction, got {other:?}"),
        }
    }

    #[test]
    fn spec_tag_lifecycle() {
        let mut c = SetAssocCache::new(1024, 64, 2);
        c.touch(9);
        assert_eq!(c.spec_owner(9), None);
        c.set_spec_owner(9, SlotId(3));
        assert_eq!(c.spec_owner(9), Some(SlotId(3)));
        assert_eq!(c.speculative_lines(), 1);
        assert!(c.clear_spec_owner(9));
        assert!(!c.clear_spec_owner(9));
        assert_eq!(c.spec_owner(9), None);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssocCache::new(1024, 64, 2);
        c.touch(5);
        c.set_spec_owner(5, SlotId(0));
        c.invalidate(5);
        assert!(!c.contains(5));
        assert_eq!(c.speculative_lines(), 0);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn tagging_nonresident_line_panics() {
        let mut c = SetAssocCache::new(1024, 64, 2);
        c.set_spec_owner(1, SlotId(0));
    }

    #[test]
    #[should_panic(expected = "cannot be encoded")]
    fn unencodable_slot_panics() {
        let mut c = SetAssocCache::new(1024, 64, 2);
        c.touch(1);
        c.set_spec_owner(1, SlotId(u16::MAX));
    }

    #[test]
    fn largest_encodable_slot_round_trips() {
        let mut c = SetAssocCache::new(1024, 64, 2);
        c.touch(1);
        c.set_spec_owner(1, SlotId(u16::MAX - 1));
        assert_eq!(c.spec_owner(1), Some(SlotId(u16::MAX - 1)));
    }

    #[test]
    fn geometry() {
        let c = SetAssocCache::new(4 << 20, 64, 16);
        assert_eq!(c.num_sets(), 4096);
        assert_eq!(c.ways(), 16);
        // Table III LLC for five cores: 20 MB, 16-way, not a power of two.
        let llc = SetAssocCache::new(5 * (4 << 20), 64, 16);
        assert_eq!(llc.num_sets(), 20_480);
        assert_eq!(llc.set_of(20_480 + 7), 7);
    }

    /// Reference model of the replacement policy, written the direct
    /// way: one `Vec` per set, a per-cache clock, and an LRU stamp per
    /// way, with victims chosen by comparing stamps.
    struct StampCache {
        sets: Vec<Vec<StampWay>>,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    #[derive(Clone, Copy)]
    struct StampWay {
        line: u64,
        valid: bool,
        stamp: u64,
        spec_owner: Option<SlotId>,
    }

    impl StampCache {
        fn new(bytes: usize, line_bytes: usize, ways: usize) -> Self {
            let invalid = StampWay {
                line: 0,
                valid: false,
                stamp: 0,
                spec_owner: None,
            };
            StampCache {
                sets: vec![vec![invalid; ways]; bytes / line_bytes / ways],
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn set(&self, line: u64) -> &[StampWay] {
            &self.sets[(line % self.sets.len() as u64) as usize]
        }

        fn way_mut(&mut self, line: u64) -> Option<&mut StampWay> {
            let s = (line % self.sets.len() as u64) as usize;
            self.sets[s].iter_mut().find(|w| w.valid && w.line == line)
        }

        fn contains(&self, line: u64) -> bool {
            self.set(line).iter().any(|w| w.valid && w.line == line)
        }

        fn spec_owner(&self, line: u64) -> Option<SlotId> {
            self.set(line)
                .iter()
                .find(|w| w.valid && w.line == line)
                .and_then(|w| w.spec_owner)
        }

        fn touch(&mut self, line: u64) -> Fill {
            self.clock += 1;
            let stamp = self.clock;
            let s = (line % self.sets.len() as u64) as usize;
            let set = &mut self.sets[s];
            if let Some(w) = set.iter_mut().find(|w| w.valid && w.line == line) {
                w.stamp = stamp;
                self.hits += 1;
                return Fill::Hit;
            }
            self.misses += 1;
            let fresh = StampWay {
                line,
                valid: true,
                stamp,
                spec_owner: None,
            };
            if let Some(w) = set.iter_mut().find(|w| !w.valid) {
                *w = fresh;
                return Fill::Miss;
            }
            let victim = set
                .iter()
                .enumerate()
                .filter(|(_, w)| w.spec_owner.is_none())
                .min_by_key(|(_, w)| w.stamp)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    let old = set[i].line;
                    set[i] = fresh;
                    Fill::Evicted(old)
                }
                None => {
                    let (i, _) = set.iter().enumerate().min_by_key(|(_, w)| w.stamp).unwrap();
                    let old = set[i];
                    set[i] = fresh;
                    Fill::EvictedSpeculative(old.line, old.spec_owner.unwrap())
                }
            }
        }

        fn set_spec_owner(&mut self, line: u64, owner: SlotId) {
            self.way_mut(line).expect("resident").spec_owner = Some(owner);
        }

        fn clear_spec_owner(&mut self, line: u64) -> bool {
            match self.way_mut(line) {
                Some(w) if w.spec_owner.is_some() => {
                    w.spec_owner = None;
                    true
                }
                _ => false,
            }
        }

        fn invalidate(&mut self, line: u64) {
            if let Some(w) = self.way_mut(line) {
                w.valid = false;
                w.spec_owner = None;
            }
        }

        fn speculative_lines(&self) -> usize {
            self.sets
                .iter()
                .flatten()
                .filter(|w| w.valid && w.spec_owner.is_some())
                .count()
        }
    }

    /// Drives the flat cache and the stamp reference with the same seeded
    /// random operations and asserts they agree after every one.
    fn differential(bytes: usize, ways: usize, seed: u64, ops: usize) {
        let mut flat = SetAssocCache::new(bytes, 64, ways);
        let mut reference = StampCache::new(bytes, 64, ways);
        let sets = flat.num_sets() as u64;
        // Roughly three lines per way, so sets overflow and every victim
        // branch is taken.
        let span = sets * ways as u64 * 3;
        let mut rng = SimRng::seed_from(seed);
        let mut speculative_evictions = 0;
        for op in 0..ops {
            let line = rng.below(span);
            match rng.below(10) {
                0..=4 => {
                    let fill = flat.touch(line);
                    assert_eq!(fill, reference.touch(line), "op {op}: touch {line}");
                    if matches!(fill, Fill::EvictedSpeculative(..)) {
                        speculative_evictions += 1;
                    }
                }
                5..=7 if flat.contains(line) => {
                    let owner = SlotId(rng.below(64) as u16);
                    flat.set_spec_owner(line, owner);
                    reference.set_spec_owner(line, owner);
                }
                8 => assert_eq!(
                    flat.clear_spec_owner(line),
                    reference.clear_spec_owner(line),
                    "op {op}: clear {line}"
                ),
                9 => {
                    flat.invalidate(line);
                    reference.invalidate(line);
                }
                _ => {}
            }
            let probe = rng.below(span);
            for l in [line, probe] {
                assert_eq!(flat.contains(l), reference.contains(l), "op {op}: {l}");
                assert_eq!(flat.spec_owner(l), reference.spec_owner(l), "op {op}: {l}");
            }
            assert_eq!(flat.hit_stats(), (reference.hits, reference.misses));
            assert_eq!(flat.speculative_lines(), reference.speculative_lines());
        }
        assert!(
            speculative_evictions > 0,
            "{bytes} B {ways}-way: the all-speculative victim path never ran"
        );
    }

    #[test]
    fn matches_stamp_reference_single_set() {
        differential(4 * 64, 4, 1, 4_000);
    }

    #[test]
    fn matches_stamp_reference_two_way() {
        differential(16 * 64, 2, 2, 6_000);
    }

    #[test]
    fn matches_stamp_reference_sixteen_way() {
        differential(4 * 16 * 64, 16, 3, 20_000);
    }

    #[test]
    fn matches_stamp_reference_non_power_of_two_sets() {
        differential(5 * 4 * 64, 4, 4, 10_000);
        differential(7 * 3 * 64, 3, 5, 10_000);
    }
}
