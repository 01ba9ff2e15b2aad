//! Overload harness: sweeps admission control on/off across Zipfian skew
//! and Locking Buffer capacity, asserting graceful degradation.
//!
//! For every (admission × theta × LB capacity) cell the HADES run must:
//!
//! * finish with every measured transaction committed (no livelock, even
//!   at theta 0.99 with a single Locking Buffer bank slot),
//! * leak nothing past the drain (`RunOutcome::leaks`: record locks,
//!   Locking Buffers, NIC remote-tx filters, speculative LLC lines,
//!   replica prepares),
//! * be **deterministic**: rerunning the identical config + seed must
//!   reproduce byte-identical stats JSON, and
//! * with admission off, report a zero `overload` stats block — the
//!   overload machinery is pay-for-what-you-use, so a default config run
//!   is byte-identical to one built before the overload layer existed.
//!
//! The aggressive sweep additionally asserts that the degradation
//! machinery actually engaged somewhere: at least one cell must shed
//! admissions, degrade a commit to software validation, or boost an aged
//! transaction.
//!
//! Run: `cargo run --release -p hades-bench --bin overload` (`--quick`
//! for the CI smoke subset). Exits non-zero listing every violated
//! invariant. `--json <path>` additionally writes a machine-readable
//! report (conventionally under `results/`). `--timeseries` enables the
//! windowed time-series layer: each cell prints its peak Locking-Buffer
//! occupancy and the window where admission shedding peaked, the
//! rerun-determinism check then also covers the `timeseries` JSON block,
//! and the report cells embed it.

use hades_bench::{args_or_exit, print_table, write_json_report, JSON_REPORT, QUICK, TIMESERIES};
use hades_core::hades::HadesSim;
use hades_core::runtime::{Cluster, RunOutcome, WorkloadSet};
use hades_sim::config::{OverloadParams, SimConfig};
use hades_sim::time::Cycles;
use hades_storage::db::Database;
use hades_storage::index::IndexKind;
use hades_telemetry::json::Json;
use hades_workloads::ycsb::{Ycsb, YcsbConfig, YcsbVariant};

/// Key-count scale factor: 4 M paper keys → 2 000, so the Zipfian hot set
/// genuinely contends at high theta.
const SCALE: f64 = 0.0005;

/// Time-series window for `--timeseries` runs: overload runs span a few
/// hundred microseconds of sim time, so 20 us yields 10+ windows.
const TS_WINDOW_US: u64 = 20;

fn run_once(cfg: SimConfig, theta: f64, measure: u64) -> RunOutcome {
    let mut db = Database::new(cfg.shape.nodes);
    let ycsb = Ycsb::setup(
        &mut db,
        YcsbConfig {
            theta,
            ..YcsbConfig::paper(IndexKind::HashTable, YcsbVariant::A).scaled(SCALE)
        },
    );
    let ws = WorkloadSet::single(Box::new(ycsb), cfg.shape.cores_per_node);
    let cl = Cluster::new(cfg, db);
    HadesSim::new(cl, ws, 0, measure).run_full()
}

/// Checks every post-run invariant, appending violations to `failures`.
fn check_invariants(label: &str, out: &RunOutcome, measure: u64, failures: &mut Vec<String>) {
    if out.stats.committed != measure {
        failures.push(format!(
            "{label}: committed {} of {measure} measured transactions (livelock?)",
            out.stats.committed
        ));
    }
    for leak in out.leaks() {
        failures.push(format!("{label}: {leak}"));
    }
}

/// Runs one sweep cell twice, checks invariants and rerun determinism,
/// and returns a report row.
#[allow(clippy::too_many_arguments)]
fn scenario(
    admission: bool,
    theta: f64,
    lb_slots: Option<usize>,
    timeseries: bool,
    measure: u64,
    failures: &mut Vec<String>,
    overload_activity: &mut u64,
    cells: &mut Vec<Json>,
) -> Vec<String> {
    let lb_label = lb_slots.map_or("full".to_string(), |s| s.to_string());
    let label = format!(
        "admission={}/theta={theta}/lb={lb_label}",
        if admission { "on" } else { "off" }
    );
    let mut cfg = SimConfig::isca_default();
    if let Some(slots) = lb_slots {
        cfg = cfg.with_lock_buffer_slots(slots);
    }
    if admission {
        cfg = cfg.with_overload(OverloadParams::aggressive());
    }
    if timeseries {
        cfg = cfg.with_timeseries(Cycles::from_micros(TS_WINDOW_US));
    }
    let out = run_once(cfg.clone(), theta, measure);
    check_invariants(&label, &out, measure, failures);
    let rerun = run_once(cfg, theta, measure);
    let a = out.stats.to_json().render();
    let b = rerun.stats.to_json().render();
    if a != b {
        failures.push(format!("{label}: rerun with identical config diverged"));
    }
    if let Some(ts) = &out.stats.timeseries {
        let peak_lb = ts
            .windows()
            .iter()
            .map(|w| {
                if w.occupancy.lb_slots == 0 {
                    0.0
                } else {
                    w.occupancy.lb_occupied as f64 / w.occupancy.lb_slots as f64
                }
            })
            .fold(0.0f64, f64::max);
        let shed_peak = ts.windows().iter().max_by_key(|w| w.admission);
        eprintln!(
            "  {label}: {} windows; peak LB occupancy {:.1}%; peak shed window {}",
            ts.windows().len(),
            peak_lb * 100.0,
            shed_peak
                .filter(|w| w.admission > 0)
                .map_or("none".to_string(), |w| format!(
                    "#{} ({} throttled)",
                    w.idx, w.admission
                )),
        );
    }
    cells.push(
        Json::obj()
            .field("admission", Json::Bool(admission))
            .field("theta", theta)
            .field("lb_slots", Json::str(lb_label.as_str()))
            .field("stats", out.stats.to_json())
            .build(),
    );
    let s = &out.stats;
    if !admission && !s.overload.is_zero() {
        failures.push(format!(
            "{label}: overload stats non-zero with the machinery disabled"
        ));
    }
    if admission {
        *overload_activity += s.overload.admission_throttled
            + s.overload.degraded_commits
            + s.overload.starvation_boosts;
    }
    let goodput = s.committed as f64 / (s.elapsed.get().max(1) as f64 / 1e6);
    vec![
        if admission { "on" } else { "off" }.to_string(),
        format!("{theta}"),
        lb_label,
        s.committed.to_string(),
        s.squashes.to_string(),
        s.fallbacks.to_string(),
        s.overload.admission_throttled.to_string(),
        s.overload.degraded_commits.to_string(),
        s.overload.starvation_boosts.to_string(),
        s.overload.max_attempts.to_string(),
        format!("{goodput:.1}"),
    ]
}

fn main() {
    let args = args_or_exit(&[QUICK, TIMESERIES, JSON_REPORT]);
    let quick = args.has("--quick");
    let timeseries = args.has("--timeseries");
    let measure: u64 = if quick { 300 } else { 600 };
    let thetas: &[f64] = if quick { &[0.99] } else { &[0.6, 0.9, 0.99] };
    let lb_sweep: &[Option<usize>] = if quick {
        &[Some(1), None]
    } else {
        &[Some(1), Some(4), None]
    };
    let mut failures: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut overload_activity = 0u64;
    let mut cells: Vec<Json> = Vec::new();

    for &admission in &[false, true] {
        for &theta in thetas {
            for &lb in lb_sweep {
                rows.push(scenario(
                    admission,
                    theta,
                    lb,
                    timeseries,
                    measure,
                    &mut failures,
                    &mut overload_activity,
                    &mut cells,
                ));
                eprintln!(
                    "  done: admission={} theta={theta} lb={:?}",
                    if admission { "on" } else { "off" },
                    lb
                );
            }
        }
    }

    if overload_activity == 0 {
        failures.push(
            "aggressive sweep: no admission throttles, degraded commits, or starvation boosts \
             anywhere — the overload machinery never engaged"
                .to_string(),
        );
    }

    print_table(
        "overload sweep (YCSB HT-wA, HADES engine)",
        &[
            "admission",
            "theta",
            "lb slots",
            "committed",
            "squashes",
            "fallbacks",
            "throttled",
            "degraded",
            "boosts",
            "max att",
            "commits/Mcyc",
        ],
        &rows,
    );

    if let Some(path) = args.value("--json") {
        let doc = Json::obj()
            .field("schema", Json::str("hades-report/v1"))
            .field("report", Json::str("overload"))
            .field("quick", Json::Bool(quick))
            .field(
                "failures",
                Json::Arr(failures.iter().map(Json::str).collect()),
            )
            .field("cells", Json::Arr(cells))
            .build();
        write_json_report(path, &doc);
    }

    if failures.is_empty() {
        println!("\nall invariants held: no livelock, no leaks, deterministic reruns, zero-overload runs untouched.");
    } else {
        eprintln!("\n{} invariant violation(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
