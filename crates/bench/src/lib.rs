//! # hades-bench — experiment drivers for every table and figure
//!
//! One binary per paper artifact (see `DESIGN.md` §4):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig3` | Fig 3 — SW-Impl overhead breakdown |
//! | `fig9` | Fig 9 — throughput normalized to Baseline |
//! | `fig10` | Fig 10 — mean latency with phase breakdown |
//! | `fig11` | Fig 11 — p95 tail latency |
//! | `fig12` | Fig 12a/b — network-latency and locality sensitivity |
//! | `fig13` | Fig 13 — N=10, C=5 scalability |
//! | `fig14` | Fig 14 — two-workload mixes, N=5, C=10 |
//! | `fig15` | Fig 15 — four-workload mixes (Table V), N=8, C=25 |
//! | `table4` | Table IV — Bloom-filter false-positive sensitivity |
//! | `sec8c` | §VIII-C — eviction squashes + FP conflict rates |
//! | `hwcost` | §VI — hardware storage arithmetic |
//! | `summary` | one-shot paper-vs-measured report (`--json` for metrics) |
//! | `trace` | Chrome `trace_event` capture of a quick run (Perfetto) |
//! | `chaos` | fault-injection sweep: invariants under loss/dup/delay/crash |
//! | `overload` | admission × skew × Locking-Buffer-capacity overload sweep |
//! | `failover` | permanent-crash sweep: epochs, promotion, fencing |
//! | `rebalance` | planned live shard migration under traffic |
//! | `nemesis` | partitions and gray failures under quorum membership |
//! | `bench` | canonical perf-trajectory matrix → `BENCH_*.json` + compare gate |
//!
//! Every binary but `trace` and `bench` accepts `--quick` for a fast
//! smoke run and prints both a Markdown table and the paper's expected
//! shape for comparison. The figure drivers also take `--seed <u64>` and
//! `--loss <p>`, which injects commit-message loss at probability `p` via
//! a seeded [`hades_fault::FaultPlan`], so e.g. `summary --json --loss
//! 0.05` reports the fault/recovery breakdown alongside every metric. The
//! sweep binaries (`chaos`, `overload`, `failover`, `rebalance`,
//! `nemesis`) take `--json <path>` to additionally write a
//! machine-readable report, conventionally under `results/`.
//!
//! Each binary declares its flags as a table of [`Flag`]s and parses them
//! with [`parse_flags`] (through [`args_or_exit`]): `--help` prints the
//! usage; an unknown flag, a repeated flag, or a missing or malformed
//! value exits 2 with the usage.
//!
//! The Criterion benches under `benches/` time representative kernels
//! (Bloom filters, index structures, protocol end-to-end runs).

#![warn(missing_docs)]

pub mod harness;

use hades_core::runner::Experiment;
use hades_core::stats::RunStats;
use hades_sim::config::SimConfig;
use hades_sim::time::Cycles;
use hades_telemetry::json::Json;

/// What a flag's value must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// Any text (a path, a name).
    Text,
    /// An unsigned 64-bit integer.
    U64,
    /// A probability in `[0, 1]`.
    Probability,
    /// A finite fraction `>= 0`.
    Fraction,
}

impl Value {
    /// Checks `v`; on failure returns what was expected.
    fn check(self, v: &str) -> Result<(), &'static str> {
        let (ok, want) = match self {
            Value::Text => (true, "text"),
            Value::U64 => (v.parse::<u64>().is_ok(), "an unsigned integer"),
            Value::Probability => (
                v.parse::<f64>().is_ok_and(|p| (0.0..=1.0).contains(&p)),
                "a probability in [0, 1]",
            ),
            Value::Fraction => (
                v.parse::<f64>().is_ok_and(|t| t.is_finite() && t >= 0.0),
                "a fraction >= 0",
            ),
        };
        if ok {
            Ok(())
        } else {
            Err(want)
        }
    }
}

/// One flag a driver accepts: its name, the placeholders of the values
/// it takes (none for a switch) and what each value must be.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed (`--quick`).
    pub name: &'static str,
    /// Usage placeholders of its values, in order; empty for a switch.
    pub values: &'static [&'static str],
    /// What each value must be.
    pub kind: Value,
}

impl Flag {
    /// A flag without a value.
    pub const fn switch(name: &'static str) -> Flag {
        Flag {
            name,
            values: &[],
            kind: Value::Text,
        }
    }

    /// A flag taking `values.len()` values of `kind`, shown as `values`.
    pub const fn with(name: &'static str, values: &'static [&'static str], kind: Value) -> Flag {
        Flag { name, values, kind }
    }
}

/// `--quick`: smaller datasets and windows, seconds per run.
pub const QUICK: Flag = Flag::switch("--quick");
/// `--seed <u64>`: the RNG seed.
pub const SEED: Flag = Flag::with("--seed", &["<u64>"], Value::U64);
/// `--loss <p>`: commit-message loss probability.
pub const LOSS: Flag = Flag::with("--loss", &["<p>"], Value::Probability);
/// `--timeseries`: enable the windowed time-series layer.
pub const TIMESERIES: Flag = Flag::switch("--timeseries");
/// `--json <path>`: also write a `hades-report/v1` document.
pub const JSON_REPORT: Flag = Flag::with("--json", &["<path>"], Value::Text);
/// The flags every [`experiment_from`] driver takes.
pub const EXPERIMENT_FLAGS: [Flag; 3] = [QUICK, SEED, LOSS];

/// A command line parsed against a flag table: the flags given, in
/// order, each with its (already checked) values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    given: Vec<(&'static str, Vec<String>)>,
}

impl Args {
    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.values(name).is_some()
    }

    /// The values given with `name`, or `None` when it was not given.
    pub fn values(&self, name: &str) -> Option<&[String]> {
        self.given
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// The (first) value of `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values(name)?.first().map(String::as_str)
    }

    /// The value of `name` parsed as `T`. The parser already checked it
    /// against the flag's [`Value`] kind, so this only fails on a kind
    /// that does not fit `T`.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let v = self.value(name)?;
        Some(
            v.parse()
                .unwrap_or_else(|_| panic!("{name} `{v}` was checked")),
        )
    }

    /// The flag names given, in command-line order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.given.iter().map(|(n, _)| *n)
    }
}

/// Parses `args` (the arguments after the program name) against the
/// flag table `flags`. An unknown or repeated flag, a missing value (or
/// another `--flag` in its place) and a value of the wrong kind are
/// errors, never a silent default.
pub fn parse_flags(args: &[String], flags: &[Flag]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(flag) = flags.iter().find(|f| f.name == arg) else {
            return Err(format!("unknown argument `{arg}`"));
        };
        if parsed.has(flag.name) {
            return Err(format!("{arg} given twice"));
        }
        let mut values = Vec::with_capacity(flag.values.len());
        for _ in flag.values {
            let v = it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{arg} needs a value"))?;
            flag.kind
                .check(v)
                .map_err(|want| format!("{arg} `{v}` is not {want}"))?;
            values.push(v.clone());
        }
        parsed.given.push((flag.name, values));
    }
    Ok(parsed)
}

/// The usage line of driver `bin` taking `flags`.
pub fn usage(bin: &str, flags: &[Flag]) -> String {
    let mut line = format!("usage: {bin}");
    for f in flags {
        line.push_str(" [");
        line.push_str(f.name);
        for v in f.values {
            line.push(' ');
            line.push_str(v);
        }
        line.push(']');
    }
    line
}

/// [`parse_flags`] over the process arguments. `--help` (or `-h`)
/// prints the usage and exits 0; a malformed command line prints the
/// error and the usage and exits 2.
pub fn args_or_exit(flags: &[Flag]) -> Args {
    let mut argv = std::env::args();
    let bin = argv.next().unwrap_or_default();
    let bin = std::path::Path::new(&bin)
        .file_name()
        .map_or(bin.clone(), |b| b.to_string_lossy().into_owned());
    let args: Vec<String> = argv.collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage(&bin, flags));
        std::process::exit(0);
    }
    parse_flags(&args, flags).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}\n{}", usage(&bin, flags));
        std::process::exit(2);
    })
}

/// The experiment the standard driver flags ask for. `--quick` shrinks
/// dataset scale and measurement length so every figure runs in seconds;
/// `--seed N` varies the RNG seed; `--loss P` injects commit-message loss
/// at probability `P` through the cluster-wide fault plane (a seeded
/// `FaultPlan`).
pub fn experiment_from(args: &Args) -> Experiment {
    let mut ex = if args.has(QUICK.name) {
        Experiment {
            cfg: SimConfig::isca_default(),
            scale: 0.01,
            warmup: 100,
            measure: 600,
        }
    } else {
        Experiment {
            cfg: SimConfig::isca_default(),
            scale: 0.05,
            warmup: 400,
            measure: 3_000,
        }
    };
    let SeedLoss { seed, loss } = SeedLoss::from(args);
    if let Some(seed) = seed {
        ex.cfg = ex.cfg.with_seed(seed);
    }
    if let Some(loss) = loss {
        ex.cfg = ex.cfg.with_message_loss(loss);
    }
    ex
}

/// [`experiment_from`] the process arguments, for drivers that take
/// exactly [`EXPERIMENT_FLAGS`].
pub fn experiment_from_args() -> Experiment {
    experiment_from(&args_or_exit(&EXPERIMENT_FLAGS))
}

/// The `--seed` and `--loss` values of a driver command line (`None`
/// when the flag is absent).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SeedLoss {
    /// RNG seed.
    pub seed: Option<u64>,
    /// Commit-message loss probability, in `[0, 1]`.
    pub loss: Option<f64>,
}

impl From<&Args> for SeedLoss {
    fn from(args: &Args) -> Self {
        SeedLoss {
            seed: args.parsed(SEED.name),
            loss: args.parsed(LOSS.name),
        }
    }
}

/// Parses `args` against [`EXPERIMENT_FLAGS`] and returns the `--seed`
/// and `--loss` values.
pub fn parse_seed_loss(args: &[String]) -> Result<SeedLoss, String> {
    parse_flags(args, &EXPERIMENT_FLAGS).map(|a| SeedLoss::from(&a))
}

/// Writes `doc` (plus a trailing newline) to `path`, creating parent
/// directories as needed. Backs the `--json <path>` flag on the sweep
/// binaries, which conventionally write under `results/`. Exits with
/// status 2 on I/O failure so CI distinguishes harness errors from
/// invariant violations (status 1).
pub fn write_json_report(path: &str, doc: &hades_telemetry::json::Json) {
    let parent = std::path::Path::new(path).parent();
    if let Some(parent) = parent.filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", parent.display());
            std::process::exit(2);
        });
    }
    std::fs::write(path, format!("{}\n", doc.render())).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    eprintln!("wrote {path}");
}

/// Prints a Markdown table: a header row and aligned value rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        line
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<w$}|", "", w = w + 2));
    }
    println!("{sep}");
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Measures, prints, and exports the goodput dip around a disruption at
/// `at` — a crash (the `failover` bin) or a migration cutover (the
/// `rebalance` bin) — from a run's windowed time-series: depth is the
/// fraction of the pre-disruption committed/window lost at the worst
/// window, duration the consecutive windows below 90% of the
/// pre-disruption baseline. Returns `None` (after printing why) when the
/// run has no time-series layer or no usable pre-disruption baseline;
/// `disruption` names the event in that message (e.g. "crash").
pub fn report_goodput_dip(
    label: &str,
    stats: &RunStats,
    at: Cycles,
    disruption: &str,
) -> Option<Json> {
    let ts = stats.timeseries.as_ref()?;
    match ts.goodput_dip(at) {
        Some(dip) => {
            eprintln!(
                "  {label}: goodput dip depth {:.0}% (min {}/window vs baseline {:.1}), \
                 {} window(s) below 90% = {:.0} us",
                dip.depth * 100.0,
                dip.min_committed,
                dip.baseline,
                dip.windows_below,
                dip.duration_us(),
            );
            Some(dip.to_json())
        }
        None => {
            eprintln!("  {label}: no pre-{disruption} windows; dip not measurable");
            None
        }
    }
}

/// Formats a ratio to two decimals with an `x` suffix.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a rate as a percentage with three decimals.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.3}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_x(2.7), "2.70x");
        assert_eq!(fmt_pct(0.0004), "0.040%");
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "smoke",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
