//! `bench` — the canonical perf-trajectory harness (DESIGN.md §12).
//!
//! Run mode (default): executes the fixed seed × workload × engine
//! matrix and writes a schema-versioned `BENCH_<id>.json`:
//!
//! ```text
//! cargo run --release -p hades-bench --bin bench -- --bench-id 9 --out BENCH_9.json
//! ```
//!
//! Flags: `--smoke` (reduced matrix sizing), `--seed N`, `--profile`
//! (adds a per-cell phase-profiler block), `--tail` (causal spans: adds
//! a per-cell `tail` block and prints the dominant critical-path
//! contributor of the top-10 slowest committed transactions per cell),
//! `--timeseries` (adds a per-cell windowed time-series block),
//! `--no-wall` (omit host wall-clock fields, making output
//! byte-deterministic across machines), `--out PATH` (default stdout),
//! `--bench-id ID`. `--help` prints the usage; an unknown flag or a
//! missing or unparsable value exits 2 with the usage.
//!
//! Compare mode: diffs two bench documents cell-by-cell and exits
//! non-zero if any cell's throughput dropped, or p99 latency rose, by
//! more than the threshold (default 10%):
//!
//! ```text
//! cargo run --release -p hades-bench --bin bench -- \
//!     --compare BENCH_9.json BENCH_ci.json --threshold 0.10
//! ```

use hades_bench::harness::{
    compare, matrix_json, parse_bench_args, run_matrix, BenchCommand, Comparison, BENCH_USAGE,
};
use hades_telemetry::json::Json;

fn run_compare(old_path: &str, new_path: &str, threshold: f64) -> ! {
    let load = |path: &str| -> Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench: cannot read {path}: {e}");
            std::process::exit(2);
        });
        Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("bench: cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let old = load(old_path);
    let new = load(new_path);
    let Comparison { lines, regressions } = compare(&old, &new, threshold);
    println!(
        "## bench compare: {old_path} -> {new_path} (threshold {threshold:.0}%)",
        threshold = threshold * 100.0
    );
    for line in &lines {
        println!("  {line}");
    }
    if regressions.is_empty() {
        println!("\nno regressions beyond {:.0}%.", threshold * 100.0);
        std::process::exit(0);
    }
    eprintln!("\n{} regression(s):", regressions.len());
    for r in &regressions {
        eprintln!("  {r}");
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (bc, out) = match parse_bench_args(&args) {
        Ok(BenchCommand::Help) => {
            println!("{BENCH_USAGE}");
            return;
        }
        Ok(BenchCommand::Compare {
            old,
            new,
            threshold,
        }) => run_compare(&old, &new, threshold),
        Ok(BenchCommand::Run { config, out }) => (config, out),
        Err(e) => {
            eprintln!("bench: {e}\n{BENCH_USAGE}");
            std::process::exit(2);
        }
    };
    let (scale, warmup, measure) = bc.sizing();
    eprintln!(
        "bench: mode={} seed={:#x} scale={scale} warmup={warmup} measure={measure}",
        if bc.smoke { "smoke" } else { "full" },
        bc.seed
    );
    let cells = run_matrix(&bc, |cell| {
        eprintln!(
            "  {:<12} {:<8} {:>10.0} txn/s  p99 {:>8.1} us  abort {:>5.2}%  [{} ms]",
            cell.workload,
            cell.protocol.label(),
            cell.stats.throughput(),
            cell.stats.p99_latency().as_micros(),
            cell.stats.abort_rate() * 100.0,
            cell.wall_ms,
        );
    });
    if bc.tail {
        eprintln!("\nbench: tail attribution (top-10 slowest committed txns per cell)");
        for cell in &cells {
            let Some(spans) = &cell.stats.spans else {
                continue;
            };
            let dominant = spans
                .dominant(10)
                .map(|p| p.label())
                .unwrap_or("none (no committed txns recorded)");
            let phases = spans.tail_phase_cycles(10);
            let total: u64 = phases.iter().sum();
            let pct = |c: u64| {
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64 * 100.0
                }
            };
            let breakdown: Vec<String> = hades_telemetry::profile::ProfPhase::ALL
                .iter()
                .zip(phases.iter())
                .filter(|(_, &c)| c > 0)
                .map(|(p, &c)| format!("{} {:.1}%", p.label(), pct(c)))
                .collect();
            eprintln!(
                "  {:<12} {:<8} dominant={:<11} [{}]",
                cell.workload,
                cell.protocol.label(),
                dominant,
                breakdown.join(", "),
            );
        }
    }
    let doc = matrix_json(&cells, &bc).render();
    match out {
        Some(path) => {
            std::fs::write(&path, format!("{doc}\n")).unwrap_or_else(|e| {
                eprintln!("bench: cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("bench: wrote {path} ({} cells)", cells.len());
        }
        None => println!("{doc}"),
    }
}
