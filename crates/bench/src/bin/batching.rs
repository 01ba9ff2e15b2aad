//! Batching harness: sweeps the doorbell-coalescing subsystem across
//! batch-size policy, Zipfian skew, and protocol engine (DESIGN.md §14).
//!
//! Every cell runs YCSB HT-wA and must satisfy:
//!
//! * every measured transaction commits (no livelock under the batcher's
//!   per-queue-pair FIFO fence),
//! * no record locks, Locking Buffers, or NIC remote-transaction filters
//!   leak past the drain,
//! * reruns of the identical config + seed are byte-identical,
//! * batching off ⇒ no `batching` stats block, and a run with the
//!   explicitly-disabled `BatchingParams::default()` renders the same
//!   bytes as one that never mentioned batching at all,
//! * batching on ⇒ the `batching` block is present and its flush
//!   accounting telescopes (leaders = flushes after `finish`).
//!
//! The headline acceptance criteria ride on the HADES engine:
//!
//! * at the saturated high-theta cell, adaptive batching must deliver
//!   ≥ 1.5× the committed throughput of the unbatched comparison point
//!   (`BatchingParams::fixed(1)`: one doorbell per verb through the same
//!   serialized pipeline), and
//! * at low theta the adaptive policy must hold p99 latency to within
//!   5% of unbatched — the watermark drains the batch target to 1 on
//!   idle, so light load never waits on a doorbell.
//!
//! Run: `cargo run --release -p hades-bench --bin batching` (`--quick`
//! for the CI smoke subset). Exits non-zero listing every violated
//! invariant. `--json <path>` writes a machine-readable report.
//! `--timeseries` additionally prints each adaptive cell's peak
//! batch-occupancy window from the `hades-timeseries/v1` series.

use hades_bench::{flag_value, has_flag, print_table, write_json_report};
use hades_core::runner::Protocol;
use hades_core::runtime::{Cluster, RunOutcome, WorkloadSet};
use hades_sim::config::{BatchingParams, SimConfig};
use hades_sim::time::Cycles;
use hades_storage::db::Database;
use hades_storage::index::IndexKind;
use hades_telemetry::json::Json;
use hades_workloads::ycsb::{Ycsb, YcsbConfig, YcsbVariant};

/// Key-count scale factor: 4 M paper keys → 2 000, so the Zipfian hot set
/// genuinely contends at high theta.
const SCALE: f64 = 0.0005;

/// Time-series window for `--timeseries` runs.
const TS_WINDOW_US: u64 = 20;

/// Minimum committed-throughput gain of adaptive batching over the
/// unbatched (`fixed(1)`) point at the saturated high-theta HADES cell.
const MIN_SATURATED_GAIN: f64 = 1.5;

/// Maximum p99 inflation adaptive batching may show over unbatched at
/// low theta (idle drain must keep latency untouched).
const MAX_IDLE_P99_INFLATION: f64 = 1.05;

/// The batching policy a sweep cell runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Subsystem absent (the exact pre-batching fabric path).
    Off,
    /// Subsystem on with the target pinned at `n` verbs per doorbell;
    /// `Fixed(1)` is the unbatched comparison point.
    Fixed(u32),
    /// Subsystem on with the adaptive watermark policy.
    Adaptive,
}

impl Mode {
    fn label(&self) -> String {
        match self {
            Mode::Off => "off".to_string(),
            Mode::Fixed(n) => format!("fixed{n}"),
            Mode::Adaptive => "adaptive".to_string(),
        }
    }

    fn apply(&self, cfg: SimConfig) -> SimConfig {
        match self {
            Mode::Off => cfg,
            Mode::Fixed(n) => cfg.with_batching(BatchingParams::fixed(*n)),
            Mode::Adaptive => cfg.with_batching(BatchingParams::standard()),
        }
    }
}

/// One finished run plus the record-lock leak observation.
struct Observed {
    out: RunOutcome,
    records_locked: bool,
    keys: u64,
}

fn run_once(protocol: Protocol, cfg: SimConfig, theta: f64, measure: u64) -> Observed {
    let mut db = Database::new(cfg.shape.nodes);
    let ycsb = Ycsb::setup(
        &mut db,
        YcsbConfig {
            theta,
            ..YcsbConfig::paper(IndexKind::HashTable, YcsbVariant::A).scaled(SCALE)
        },
    );
    let keys = (4_000_000f64 * SCALE) as u64;
    let table = ycsb.table();
    let ws = WorkloadSet::single(Box::new(ycsb), cfg.shape.cores_per_node);
    let cl = Cluster::new(cfg, db);
    let out = protocol.run(cl, ws, 0, measure);
    let mut records_locked = false;
    for key in 0..keys {
        let rid = out.cluster.db.lookup(table, key).expect("key loaded").rid;
        records_locked |= out.cluster.db.record(rid).is_locked();
    }
    Observed {
        out,
        records_locked,
        keys,
    }
}

/// Checks every post-run invariant, appending violations to `failures`.
fn check_invariants(label: &str, obs: &Observed, measure: u64, failures: &mut Vec<String>) {
    let stats = &obs.out.stats;
    if stats.committed != measure {
        failures.push(format!(
            "{label}: committed {} of {measure} measured transactions (livelock?)",
            stats.committed
        ));
    }
    if obs.records_locked {
        failures.push(format!(
            "{label}: record locks leaked past drain ({} keys scanned)",
            obs.keys
        ));
    }
    if obs.out.replica_pending_leaked != 0 {
        failures.push(format!(
            "{label}: {} replica-prepare entries leaked",
            obs.out.replica_pending_leaked
        ));
    }
    for (n, bufs) in obs.out.cluster.lock_bufs.iter().enumerate() {
        if bufs.occupied() != 0 {
            failures.push(format!(
                "{label}: node {n} left {} Locking Buffers held",
                bufs.occupied()
            ));
        }
    }
    for (n, nic) in obs.out.cluster.nics.iter().enumerate() {
        if nic.active_remote_txs() != 0 {
            failures.push(format!(
                "{label}: node {n} NIC left {} remote-tx filters",
                nic.active_remote_txs()
            ));
        }
    }
}

/// Per-cell results the headline assertions consume.
struct CellOutcome {
    throughput: f64,
    p99: Cycles,
}

/// Runs one sweep cell twice, checks invariants and rerun determinism,
/// and returns a report row plus the headline numbers.
#[allow(clippy::too_many_arguments)]
fn scenario(
    protocol: Protocol,
    theta: f64,
    mode: Mode,
    timeseries: bool,
    measure: u64,
    failures: &mut Vec<String>,
    cells: &mut Vec<Json>,
    rows: &mut Vec<Vec<String>>,
) -> CellOutcome {
    let label = format!("{protocol}/theta={theta}/{}", mode.label());
    let mut cfg = mode.apply(SimConfig::isca_default());
    if timeseries {
        cfg = cfg.with_timeseries(Cycles::from_micros(TS_WINDOW_US));
    }
    let obs = run_once(protocol, cfg.clone(), theta, measure);
    check_invariants(&label, &obs, measure, failures);
    let rerun = run_once(protocol, cfg, theta, measure);
    let a = obs.out.stats.to_json().render();
    let b = rerun.out.stats.to_json().render();
    if a != b {
        failures.push(format!("{label}: rerun with identical config diverged"));
    }
    let s = &obs.out.stats;
    match (&s.batching, mode) {
        (Some(_), Mode::Off) => {
            failures.push(format!(
                "{label}: batching block present with the subsystem off"
            ));
        }
        (None, Mode::Fixed(_) | Mode::Adaptive) => {
            failures.push(format!(
                "{label}: batching block missing with the subsystem on"
            ));
        }
        (Some(bt), _) => {
            if bt.flushes != bt.leaders {
                failures.push(format!(
                    "{label}: {} flushes but {} leaders — every batch rings exactly one doorbell",
                    bt.flushes, bt.leaders
                ));
            }
            if bt.verbs() != bt.carried {
                failures.push(format!(
                    "{label}: closed batches carried {} verbs but {} were scheduled",
                    bt.carried,
                    bt.verbs()
                ));
            }
        }
        (None, Mode::Off) => {}
    }
    if timeseries && mode == Mode::Adaptive {
        if let Some(ts) = &s.timeseries {
            let peak = ts.windows().iter().max_by_key(|w| w.batch_verbs);
            if let Some(w) = peak.filter(|w| w.batch_flushes > 0) {
                eprintln!(
                    "  {label}: peak batch window #{}: {} flushes, {:.2} verbs/flush",
                    w.idx,
                    w.batch_flushes,
                    w.batch_verbs as f64 / w.batch_flushes as f64
                );
            }
        }
    }
    let (flushes, occupancy, max_occ, coalesced) =
        s.batching.as_ref().map_or((0, 0.0, 0, 0), |bt| {
            (
                bt.flushes,
                bt.mean_occupancy(),
                bt.max_occupancy,
                bt.coalesced_squashes,
            )
        });
    cells.push(
        Json::obj()
            .field("protocol", protocol.label())
            .field("theta", theta)
            .field("mode", mode.label().as_str())
            .field("stats", s.to_json())
            .build(),
    );
    rows.push(vec![
        protocol.label().to_string(),
        format!("{theta}"),
        mode.label(),
        s.committed.to_string(),
        s.squashes.to_string(),
        flushes.to_string(),
        format!("{occupancy:.2}"),
        max_occ.to_string(),
        coalesced.to_string(),
        format!("{:.1}", s.p50_latency().as_micros()),
        format!("{:.1}", s.p99_latency().as_micros()),
        format!("{:.0}", s.throughput()),
    ]);
    eprintln!("  done: {label}");
    CellOutcome {
        throughput: s.throughput(),
        p99: s.p99_latency(),
    }
}

fn main() {
    let quick = has_flag("--quick");
    let timeseries = has_flag("--timeseries");
    let measure: u64 = if quick { 300 } else { 600 };
    let thetas: &[f64] = &[0.6, 0.99];
    let modes: &[Mode] = if quick {
        &[Mode::Off, Mode::Fixed(1), Mode::Adaptive]
    } else {
        &[Mode::Off, Mode::Fixed(1), Mode::Fixed(4), Mode::Adaptive]
    };
    let mut failures: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut cells: Vec<Json> = Vec::new();

    // Gating sanity: a config that never mentions batching and one that
    // explicitly installs the disabled default must be byte-identical.
    let implicit = run_once(Protocol::Hades, SimConfig::isca_default(), 0.99, measure);
    let explicit = run_once(
        Protocol::Hades,
        SimConfig::isca_default().with_batching(BatchingParams::default()),
        0.99,
        measure,
    );
    if implicit.out.stats.to_json().render() != explicit.out.stats.to_json().render() {
        failures.push(
            "explicitly-disabled BatchingParams::default() diverged from a config that \
             never mentioned batching"
                .to_string(),
        );
    }

    for protocol in Protocol::ALL {
        for &theta in thetas {
            let mut unbatched: Option<CellOutcome> = None;
            let mut adaptive: Option<CellOutcome> = None;
            for &mode in modes {
                let out = scenario(
                    protocol,
                    theta,
                    mode,
                    timeseries,
                    measure,
                    &mut failures,
                    &mut cells,
                    &mut rows,
                );
                match mode {
                    Mode::Fixed(1) => unbatched = Some(out),
                    Mode::Adaptive => adaptive = Some(out),
                    _ => {}
                }
            }
            let (Some(un), Some(ad)) = (unbatched, adaptive) else {
                continue;
            };
            // The headline acceptance criteria ride on the HADES engine:
            // it has the highest verb rate, so doorbell cost dominates.
            if protocol == Protocol::Hades && theta >= 0.9 {
                let gain = ad.throughput / un.throughput.max(1e-9);
                eprintln!("  {protocol}/theta={theta}: adaptive gain over unbatched = {gain:.2}x");
                if gain < MIN_SATURATED_GAIN {
                    failures.push(format!(
                        "{protocol}/theta={theta}: adaptive batching gained only {gain:.2}x \
                         over unbatched (need >= {MIN_SATURATED_GAIN}x)"
                    ));
                }
            }
            if protocol == Protocol::Hades && theta < 0.9 {
                let limit = un.p99.get() as f64 * MAX_IDLE_P99_INFLATION;
                if ad.p99.get() as f64 > limit {
                    failures.push(format!(
                        "{protocol}/theta={theta}: adaptive p99 {} exceeds unbatched {} by \
                         more than {:.0}% — the idle drain is not protecting low-load latency",
                        ad.p99,
                        un.p99,
                        (MAX_IDLE_P99_INFLATION - 1.0) * 100.0
                    ));
                }
            }
        }
    }

    print_table(
        "batching sweep (YCSB HT-wA)",
        &[
            "engine",
            "theta",
            "mode",
            "committed",
            "squashes",
            "flushes",
            "occ",
            "max occ",
            "coalesced",
            "p50 us",
            "p99 us",
            "txn/s",
        ],
        &rows,
    );

    if let Some(path) = flag_value("--json") {
        let doc = Json::obj()
            .field("schema", Json::str("hades-report/v1"))
            .field("report", Json::str("batching"))
            .field("quick", Json::Bool(quick))
            .field(
                "failures",
                Json::Arr(failures.iter().map(Json::str).collect()),
            )
            .field("cells", Json::Arr(cells))
            .build();
        write_json_report(&path, &doc);
    }

    if failures.is_empty() {
        println!(
            "\nall invariants held: saturated gain >= {MIN_SATURATED_GAIN}x, low-load p99 \
             untouched, batching-off runs byte-identical, deterministic reruns, no leaks."
        );
    } else {
        eprintln!("\n{} invariant violation(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
