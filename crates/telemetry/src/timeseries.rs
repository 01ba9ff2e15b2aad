//! Windowed time-series metrics: throughput, tail latency, occupancy,
//! and event counts resolved over fixed simulated-time windows.
//!
//! [`TimeSeries`] is the second half of the time-resolved observability
//! layer (enabled with `SimConfig::with_timeseries(window)`). Where
//! `RunStats` reports whole-run aggregates, the time-series slices the
//! run into fixed windows of simulated time and records, per window:
//!
//! * per-node committed and aborted transaction counts (whole run, not
//!   just the measurement interval — a failover dip outside the window
//!   would otherwise be invisible),
//! * the window's p99 commit latency (from a per-window histogram),
//! * the in-flight transaction count at window close,
//! * Locking-Buffer and NIC read-Bloom-filter occupancy sampled at the
//!   roll instant (integer sums, so aggregation order cannot perturb
//!   the bytes),
//! * admission-throttle, degraded-commit, and failover event counts.
//!
//! Windows materialize lazily: the current window closes when the first
//! event past its edge arrives (the cluster calls [`TimeSeries::roll`]
//! with an occupancy snapshot), and the final partial window is closed
//! by [`TimeSeries::finish`] at run end. Disabled (the default), none of
//! this exists: no RNG draws, no trace events, no stats bytes.

use crate::json::Json;
use hades_sim::stats::Histogram;
use hades_sim::time::Cycles;

/// Schema tag stamped into the `timeseries` JSON block.
pub const TS_SCHEMA: &str = "hades-timeseries/v1";

/// Closed windows are capped (a backstop far above any real run);
/// overflow is counted in [`TimeSeries::dropped`].
pub const TS_WINDOW_CAP: usize = 65_536;

/// A point-in-time hardware occupancy snapshot, as integer sums so the
/// aggregation is byte-deterministic regardless of container iteration
/// order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Locking-Buffer slots currently held, summed over all banks.
    pub lb_occupied: u64,
    /// Locking-Buffer slots total, summed over all banks.
    pub lb_slots: u64,
    /// Set bits over all live NIC read Bloom filters.
    pub bf_ones: u64,
    /// Total bits over all live NIC read Bloom filters.
    pub bf_bits: u64,
}

/// One closed window.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Window index (window `i` covers `[i*window, (i+1)*window)`).
    pub idx: u64,
    /// Committed transactions per node.
    pub committed: Vec<u64>,
    /// Aborted (squashed) attempts per node.
    pub aborted: Vec<u64>,
    /// Commit-latency samples recorded in the window.
    pub samples: u64,
    /// p99 commit latency over the window's samples (zero when empty).
    pub p99: Cycles,
    /// Transactions in flight (started, not yet committed) at close.
    pub inflight: u64,
    /// Admission-throttle events in the window.
    pub admission: u64,
    /// Degraded (saturation-fallback) commits in the window.
    pub degraded: u64,
    /// Failover events (epoch changes + promotions) in the window.
    pub failover: u64,
    /// Migration state-transfer chunks moved in the window (DESIGN.md §15).
    pub migration_moves: u64,
    /// Messages blocked by a cut or flapped-down link in the window
    /// (DESIGN.md §16) — the windowed partition-state signal.
    pub link_cuts: u64,
    /// Commit handshakes refused by an expired-lease primary in the
    /// window (DESIGN.md §16).
    pub self_fences: u64,
    /// Hardware occupancy sampled at the roll instant.
    pub occupancy: Occupancy,
}

impl WindowStats {
    /// Committed transactions summed over all nodes.
    pub fn committed_total(&self) -> u64 {
        self.committed.iter().sum()
    }

    /// Aborted attempts summed over all nodes.
    pub fn aborted_total(&self) -> u64 {
        self.aborted.iter().sum()
    }
}

/// Goodput-dip metrics around a disruption (used by the `failover` bin):
/// how far windowed goodput fell below the pre-disruption baseline and
/// for how long.
#[derive(Debug, Clone, Copy)]
pub struct GoodputDip {
    /// Mean committed/window before the disruption window.
    pub baseline: f64,
    /// Minimum committed/window within the dip (or post-disruption
    /// minimum when no window fell below threshold).
    pub min_committed: u64,
    /// Relative depth: `1 - min/baseline`, clamped at 0.
    pub depth: f64,
    /// Consecutive windows below 90% of baseline starting at the first
    /// such post-disruption window.
    pub windows_below: u64,
    /// Window length in microseconds, for turning counts into time.
    pub window_us: f64,
}

impl GoodputDip {
    /// Dip duration in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.windows_below as f64 * self.window_us
    }

    /// Exports the dip metrics.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("baseline_per_window", self.baseline)
            .field("min_committed", self.min_committed)
            .field("depth", self.depth)
            .field("windows_below", self.windows_below)
            .field("duration_us", self.duration_us())
            .build()
    }
}

/// The time-series recorder: an accumulating current window plus the
/// closed-window list.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    window: Cycles,
    nodes: usize,
    cur_idx: u64,
    cur_committed: Vec<u64>,
    cur_aborted: Vec<u64>,
    cur_admission: u64,
    cur_degraded: u64,
    cur_failover: u64,
    cur_migration_moves: u64,
    cur_link_cuts: u64,
    cur_self_fences: u64,
    /// Whether any migration chunk was ever recorded; gates the
    /// `migration_moves` field in [`Self::to_json`] the same way.
    migration_seen: bool,
    /// Set on the first link-cut or self-fence so fault-free runs never
    /// render the nemesis window fields; gates `link_cuts` and
    /// `self_fences` in [`Self::to_json`].
    nemesis_seen: bool,
    cur_hist: Histogram,
    inflight: u64,
    windows: Vec<WindowStats>,
    dropped: u64,
    finished: bool,
}

impl TimeSeries {
    /// Creates a recorder with the given window length (clamped to at
    /// least one cycle) for a cluster of `nodes` nodes.
    pub fn new(window: Cycles, nodes: usize) -> Self {
        TimeSeries {
            window: window.max(Cycles::new(1)),
            nodes,
            cur_idx: 0,
            cur_committed: vec![0; nodes],
            cur_aborted: vec![0; nodes],
            cur_admission: 0,
            cur_degraded: 0,
            cur_failover: 0,
            cur_migration_moves: 0,
            migration_seen: false,
            cur_link_cuts: 0,
            cur_self_fences: 0,
            nemesis_seen: false,
            cur_hist: Histogram::new(),
            inflight: 0,
            windows: Vec::new(),
            dropped: 0,
            finished: false,
        }
    }

    /// Window length.
    pub fn window(&self) -> Cycles {
        self.window
    }

    /// True when `now` lies past the current window's edge, i.e. the
    /// caller must [`Self::roll`] (possibly repeatedly) before recording.
    pub fn needs_roll(&self, now: Cycles) -> bool {
        !self.finished && now.get() / self.window.get() > self.cur_idx
    }

    fn close_window(&mut self, occ: Occupancy) {
        let w = WindowStats {
            idx: self.cur_idx,
            committed: std::mem::replace(&mut self.cur_committed, vec![0; self.nodes]),
            aborted: std::mem::replace(&mut self.cur_aborted, vec![0; self.nodes]),
            samples: self.cur_hist.count(),
            p99: self.cur_hist.percentile(99.0),
            inflight: self.inflight,
            admission: std::mem::take(&mut self.cur_admission),
            degraded: std::mem::take(&mut self.cur_degraded),
            failover: std::mem::take(&mut self.cur_failover),
            migration_moves: std::mem::take(&mut self.cur_migration_moves),
            link_cuts: std::mem::take(&mut self.cur_link_cuts),
            self_fences: std::mem::take(&mut self.cur_self_fences),
            occupancy: occ,
        };
        self.cur_hist = Histogram::new();
        if self.windows.len() < TS_WINDOW_CAP {
            self.windows.push(w);
        } else {
            self.dropped += 1;
        }
    }

    /// Closes the current window with the given occupancy snapshot and
    /// opens the next one.
    pub fn roll(&mut self, occ: Occupancy) {
        if self.finished {
            return;
        }
        self.close_window(occ);
        self.cur_idx += 1;
    }

    /// Closes the final (partial) window at run end. Idempotent; further
    /// recording is ignored.
    pub fn finish(&mut self, occ: Occupancy) {
        if self.finished {
            return;
        }
        self.close_window(occ);
        self.finished = true;
    }

    /// A fresh transaction (not a retry) started.
    pub fn on_fresh_start(&mut self) {
        if !self.finished {
            self.inflight += 1;
        }
    }

    /// A transaction committed on `node` with end-to-end `latency`.
    pub fn on_commit(&mut self, node: u16, latency: Cycles) {
        if self.finished {
            return;
        }
        if let Some(c) = self.cur_committed.get_mut(node as usize) {
            *c += 1;
        }
        self.cur_hist.record(latency);
        self.inflight = self.inflight.saturating_sub(1);
    }

    /// An attempt on `node` was squashed (the transaction stays in
    /// flight and will retry).
    pub fn on_abort(&mut self, node: u16) {
        if self.finished {
            return;
        }
        if let Some(a) = self.cur_aborted.get_mut(node as usize) {
            *a += 1;
        }
    }

    /// The admission controller deferred a start.
    pub fn on_admission(&mut self) {
        if !self.finished {
            self.cur_admission += 1;
        }
    }

    /// A commit fell back to software validation under saturation.
    pub fn on_degrade(&mut self) {
        if !self.finished {
            self.cur_degraded += 1;
        }
    }

    /// A failover action (epoch change or promotion) happened.
    pub fn on_failover(&mut self) {
        if !self.finished {
            self.cur_failover += 1;
        }
    }

    /// A migration state-transfer chunk landed (DESIGN.md §15).
    pub fn on_migration_move(&mut self) {
        if !self.finished {
            self.cur_migration_moves += 1;
            self.migration_seen = true;
        }
    }

    /// A message was blocked by a cut or flapped-down link (DESIGN.md
    /// §16).
    pub fn on_link_cut(&mut self) {
        if !self.finished {
            self.cur_link_cuts += 1;
            self.nemesis_seen = true;
        }
    }

    /// An expired-lease primary refused a commit handshake (DESIGN.md
    /// §16).
    pub fn on_self_fence(&mut self) {
        if !self.finished {
            self.cur_self_fences += 1;
            self.nemesis_seen = true;
        }
    }

    /// Closed windows, in time order.
    pub fn windows(&self) -> &[WindowStats] {
        &self.windows
    }

    /// Windows dropped past the retention cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Goodput-dip metrics around a disruption at `at` (e.g. a node
    /// crash): baseline is the mean committed/window before the
    /// disruption's window; the dip is the consecutive run of
    /// post-disruption windows below 90% of that baseline. `None` when
    /// there is no usable pre-disruption baseline.
    pub fn goodput_dip(&self, at: Cycles) -> Option<GoodputDip> {
        let crash_idx = at.get() / self.window.get();
        let pre: Vec<u64> = self
            .windows
            .iter()
            .filter(|w| w.idx < crash_idx)
            .map(|w| w.committed_total())
            .collect();
        if pre.is_empty() {
            return None;
        }
        let baseline = pre.iter().sum::<u64>() as f64 / pre.len() as f64;
        if baseline <= 0.0 {
            return None;
        }
        let post: Vec<u64> = self
            .windows
            .iter()
            .filter(|w| w.idx >= crash_idx)
            .map(|w| w.committed_total())
            .collect();
        if post.is_empty() {
            return None;
        }
        let threshold = 0.9 * baseline;
        let first_below = post.iter().position(|&c| (c as f64) < threshold);
        let (min_committed, windows_below) = match first_below {
            Some(i) => {
                let run: Vec<u64> = post[i..]
                    .iter()
                    .take_while(|&&c| (c as f64) < threshold)
                    .copied()
                    .collect();
                (run.iter().copied().min().unwrap_or(0), run.len() as u64)
            }
            None => (post.iter().copied().min().unwrap_or(0), 0),
        };
        let depth = (1.0 - min_committed as f64 / baseline).max(0.0);
        Some(GoodputDip {
            baseline,
            min_committed,
            depth,
            windows_below,
            window_us: self.window.as_micros(),
        })
    }

    /// Exports the `timeseries` block:
    /// `{"schema", "window_cycles", "window_us", "nodes", "dropped",
    /// "windows": [{...}]}`.
    pub fn to_json(&self) -> Json {
        let windows = Json::Arr(
            self.windows
                .iter()
                .map(|w| {
                    let occ = w.occupancy;
                    let ratio = |num: u64, den: u64| {
                        if den == 0 {
                            0.0
                        } else {
                            num as f64 / den as f64
                        }
                    };
                    let mut b = Json::obj()
                        .field("idx", w.idx)
                        .field(
                            "committed",
                            Json::Arr(w.committed.iter().map(|&c| Json::UInt(c)).collect()),
                        )
                        .field(
                            "aborted",
                            Json::Arr(w.aborted.iter().map(|&a| Json::UInt(a)).collect()),
                        )
                        .field("samples", w.samples)
                        .field("p99_us", w.p99.as_micros())
                        .field("inflight", w.inflight)
                        .field("lb_occupancy", ratio(occ.lb_occupied, occ.lb_slots))
                        .field("bf_occupancy", ratio(occ.bf_ones, occ.bf_bits))
                        .field("admission", w.admission)
                        .field("degraded", w.degraded)
                        .field("failover", w.failover);
                    if self.migration_seen {
                        b = b.field("migration_moves", w.migration_moves);
                    }
                    if self.nemesis_seen {
                        b = b
                            .field("link_cuts", w.link_cuts)
                            .field("self_fences", w.self_fences);
                    }
                    b.build()
                })
                .collect(),
        );
        Json::obj()
            .field("schema", Json::str(TS_SCHEMA))
            .field("window_cycles", self.window.get())
            .field("window_us", self.window.as_micros())
            .field("nodes", self.nodes as u64)
            .field("dropped", self.dropped)
            .field("windows", windows)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    #[test]
    fn events_land_in_their_windows() {
        let mut ts = TimeSeries::new(cy(100), 2);
        ts.on_fresh_start();
        ts.on_fresh_start();
        ts.on_commit(0, cy(40));
        ts.on_abort(1);
        assert!(ts.needs_roll(cy(150)));
        ts.roll(Occupancy::default());
        assert!(!ts.needs_roll(cy(150)));
        ts.on_commit(1, cy(90));
        ts.finish(Occupancy {
            lb_occupied: 3,
            lb_slots: 8,
            bf_ones: 10,
            bf_bits: 64,
        });
        let w = ts.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].committed, vec![1, 0]);
        assert_eq!(w[0].aborted, vec![0, 1]);
        assert_eq!(w[0].inflight, 1);
        assert_eq!(w[1].committed, vec![0, 1]);
        assert_eq!(w[1].samples, 1);
        assert_eq!(w[1].p99, cy(90));
        assert_eq!(w[1].occupancy.lb_occupied, 3);
        // Finished: further recording is ignored.
        ts.on_commit(0, cy(10));
        assert_eq!(ts.windows().len(), 2);
    }

    #[test]
    fn empty_windows_have_zero_p99() {
        let mut ts = TimeSeries::new(cy(10), 1);
        ts.roll(Occupancy::default());
        ts.roll(Occupancy::default());
        ts.finish(Occupancy::default());
        for w in ts.windows() {
            assert_eq!(w.samples, 0);
            assert_eq!(w.p99, Cycles::ZERO);
        }
    }

    #[test]
    fn goodput_dip_is_measured() {
        let mut ts = TimeSeries::new(cy(100), 1);
        // Four healthy windows of 10, then a dip (2, 4), then recovery.
        for &c in &[10u64, 10, 10, 10, 2, 4, 10] {
            for _ in 0..c {
                ts.on_fresh_start();
                ts.on_commit(0, cy(5));
            }
            ts.roll(Occupancy::default());
        }
        ts.finish(Occupancy::default());
        let dip = ts.goodput_dip(cy(405)).expect("baseline exists");
        assert!((dip.baseline - 10.0).abs() < 1e-9);
        assert_eq!(dip.min_committed, 2);
        assert_eq!(dip.windows_below, 2);
        assert!((dip.depth - 0.8).abs() < 1e-9);
        // No pre-disruption windows: no baseline.
        assert!(ts.goodput_dip(cy(0)).is_none());
    }

    #[test]
    fn migration_series_is_windowed_and_gated() {
        // No chunk ever recorded: the field is absent, so migration-off
        // runs render identically to the pre-migration build.
        let mut ts = TimeSeries::new(cy(100), 1);
        ts.on_commit(0, cy(5));
        ts.finish(Occupancy::default());
        let doc = ts.to_json();
        let w = &doc.get("windows").unwrap().as_arr().unwrap()[0];
        assert!(
            w.get("migration_moves").is_none(),
            "gated when migration off"
        );

        let mut ts = TimeSeries::new(cy(100), 1);
        ts.on_migration_move();
        ts.on_migration_move();
        ts.roll(Occupancy::default());
        ts.finish(Occupancy::default());
        assert_eq!(ts.windows()[0].migration_moves, 2);
        assert_eq!(ts.windows()[1].migration_moves, 0);
        let doc = ts.to_json();
        let ws = doc.get("windows").unwrap().as_arr().unwrap();
        assert_eq!(ws[0].get("migration_moves").unwrap().as_u64(), Some(2));
        // Once migration was seen, every window carries the field.
        assert_eq!(ws[1].get("migration_moves").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn json_shape_is_stable() {
        let mut ts = TimeSeries::new(cy(2_000), 2);
        ts.on_fresh_start();
        ts.on_commit(0, cy(123));
        ts.on_admission();
        ts.on_failover();
        ts.finish(Occupancy {
            lb_occupied: 4,
            lb_slots: 16,
            bf_ones: 32,
            bf_bits: 128,
        });
        let doc = ts.to_json();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(TS_SCHEMA));
        assert_eq!(doc.get("nodes").unwrap().as_u64(), Some(2));
        let w = &doc.get("windows").unwrap().as_arr().unwrap()[0];
        assert_eq!(w.get("samples").unwrap().as_u64(), Some(1));
        assert_eq!(w.get("admission").unwrap().as_u64(), Some(1));
        assert_eq!(w.get("failover").unwrap().as_u64(), Some(1));
        assert_eq!(w.get("lb_occupancy").unwrap().as_f64(), Some(0.25));
        assert_eq!(w.get("bf_occupancy").unwrap().as_f64(), Some(0.25));
    }
}
