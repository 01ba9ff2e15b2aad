//! One-shot reproduction summary: runs a compact version of the headline
//! experiments and prints a single paper-vs-measured report.
//!
//! This is the "does the reproduction hold?" smoke check — a few minutes,
//! one table. The per-figure drivers produce the detailed artifacts.
//!
//! Run: `cargo run --release -p hades-bench --bin summary`
//!
//! With `--json`, instead of the Markdown table the full per-app ×
//! per-protocol metrics (throughput, p50/p99 latency, abort-reason and
//! NIC-verb breakdowns) are emitted as one machine-readable JSON document
//! on stdout. In either mode the process exits non-zero if any experiment
//! fails, listing the failures on stderr.

use hades_bench::{args_or_exit, experiment_from, print_table, Flag, LOSS, QUICK, SEED};
use hades_bloom::{BloomFilter, DualWriteFilter};
use hades_core::hwcost::{core_pair_bytes, nic_pair_bytes};
use hades_core::runner::{
    compare_protocols, geomean, run_single, ComparisonRow, Experiment, Protocol,
};
use hades_core::stats::RunStats;
use hades_sim::config::BloomParams;
use hades_sim::time::Cycles;
use hades_telemetry::json::Json;
use hades_workloads::catalog::AppId;
use std::panic::{catch_unwind, AssertUnwindSafe};

const APPS: [&str; 5] = ["TPC-C", "TATP", "Smallbank", "HT-wA", "BTree-wB"];

/// Runs `f`, converting a panic into an error string for the failure list.
fn try_run<T>(label: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| e.downcast_ref::<&str>().copied())
            .unwrap_or("unknown panic");
        format!("{label}: {msg}")
    })
}

fn exit_on_failures(failures: &[String]) {
    if failures.is_empty() {
        return;
    }
    eprintln!("\n{} experiment(s) failed:", failures.len());
    for f in failures {
        eprintln!("  {f}");
    }
    std::process::exit(1);
}

fn json_main(ex: &Experiment) {
    let mut failures: Vec<String> = Vec::new();
    let mut apps = Vec::new();
    for app in APPS {
        let id = AppId::parse(app).unwrap();
        let mut protos = Json::obj();
        for p in Protocol::ALL {
            match try_run(&format!("{app}/{p}"), || run_single(p, id, ex)) {
                Ok(stats) => protos = protos.field(p.label(), stats.to_json()),
                Err(e) => failures.push(e),
            }
            eprintln!("  done: {app}/{p}");
        }
        apps.push(Json::Obj(vec![
            ("app".to_string(), Json::from(app)),
            ("protocols".to_string(), protos.build()),
        ]));
    }
    let doc = Json::obj()
        .field(
            "experiment",
            Json::obj()
                .field("scale", Json::Num(ex.scale))
                .field("warmup", Json::UInt(ex.warmup))
                .field("measure", Json::UInt(ex.measure))
                .field("seed", Json::UInt(ex.cfg.seed))
                .build(),
        )
        .field("apps", Json::Arr(apps))
        .field(
            "failures",
            Json::Arr(failures.iter().map(|f| Json::from(f.as_str())).collect()),
        )
        .build();
    println!("{}", doc.render());
    exit_on_failures(&failures);
}

fn main() {
    let args = args_or_exit(&[QUICK, SEED, LOSS, Flag::switch("--json")]);
    let ex = experiment_from(&args);
    if args.has("--json") {
        json_main(&ex);
        return;
    }
    let mut failures: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();

    // 1. Throughput & latency headline over a representative app subset.
    let mut sp_h = Vec::new();
    let mut sp_hh = Vec::new();
    let mut lat_h = Vec::new();
    let mut lat_hh = Vec::new();
    for app in APPS {
        let row: Result<ComparisonRow, String> =
            try_run(app, || compare_protocols(AppId::parse(app).unwrap(), &ex));
        match row {
            Ok(row) => {
                let s = row.speedups();
                sp_hh.push(s[1]);
                sp_h.push(s[2]);
                let l = row.latency_ratios();
                lat_hh.push(l[1]);
                lat_h.push(l[2]);
            }
            Err(e) => failures.push(e),
        }
        eprintln!("  done: {app}");
    }
    if !sp_h.is_empty() {
        rows.push(vec![
            "throughput vs Baseline (HADES)".into(),
            "2.7x".into(),
            format!("{:.2}x", geomean(&sp_h)),
        ]);
        rows.push(vec![
            "throughput vs Baseline (HADES-H)".into(),
            "2.3x".into(),
            format!("{:.2}x", geomean(&sp_hh)),
        ]);
        rows.push(vec![
            "mean latency reduction (HADES)".into(),
            "60%".into(),
            format!("{:.0}%", (1.0 - geomean(&lat_h)) * 100.0),
        ]);
        rows.push(vec![
            "mean latency reduction (HADES-H)".into(),
            "54%".into(),
            format!("{:.0}%", (1.0 - geomean(&lat_hh)) * 100.0),
        ]);
    }

    // 2. Network sensitivity direction (Fig 12a) on one app.
    let app = AppId::parse("HT-wA").unwrap();
    let speedup_at = |rt: u64| -> Result<f64, String> {
        let mut e = ex.clone();
        e.cfg = e.cfg.with_net_rt(Cycles::from_micros(rt));
        try_run(&format!("HT-wA@{rt}us"), || {
            run_single(Protocol::Hades, app, &e).throughput()
                / run_single(Protocol::Baseline, app, &e).throughput()
        })
    };
    match (speedup_at(1), speedup_at(3)) {
        (Ok(fast), Ok(slow)) => rows.push(vec![
            "speedup grows on faster networks".into(),
            "yes".into(),
            format!(
                "{}( {fast:.2}x @1us vs {slow:.2}x @3us)",
                if fast > slow { "yes " } else { "NO " }
            ),
        ]),
        (a, b) => failures.extend(a.err().into_iter().chain(b.err())),
    }

    // 3. Bloom filter math (Table IV spot checks, analytic).
    let bf = BloomFilter::new(1024, 2);
    let wf = DualWriteFilter::isca_default(20_480);
    rows.push(vec![
        "1Kbit BF FP @ 50 lines".into(),
        "0.877%".into(),
        format!("{:.3}%", bf.theoretical_fp_rate(50) * 100.0),
    ]);
    rows.push(vec![
        "dual write BF FP @ 100 lines".into(),
        "0.439%".into(),
        format!("{:.3}%", wf.theoretical_fp_rate(100) * 100.0),
    ]);

    // 4. Hardware storage arithmetic (Sec VI).
    let b = BloomParams::default();
    rows.push(vec![
        "core BF pair / NIC BF pair".into(),
        "0.7 KB / 0.25 KB".into(),
        format!("{} B / {} B", core_pair_bytes(&b), nic_pair_bytes(&b)),
    ]);

    print_table(
        "HADES reproduction summary (paper vs measured)",
        &["claim", "paper", "measured"],
        &rows,
    );
    println!("\nDetails: per-figure drivers (fig3..fig15, table4, sec8c, hwcost,");
    println!("ablation, replication) and EXPERIMENTS.md.");
    // Referenced for the --json path; keeps the import obvious here too.
    let _ = RunStats::to_json;
    exit_on_failures(&failures);
}
