//! Every driver's command line is strict: a flag it does not know, a flag
//! given twice and a value it cannot parse are errors instead of silent
//! defaults. `bench` and the other drivers share one declarative parser
//! (`hades_bench::parse_flags`) over per-driver flag tables.

use hades_bench::harness::{parse_bench_args, BenchCommand, DEFAULT_SEED, DEFAULT_THRESHOLD};
use hades_bench::{
    parse_flags, parse_seed_loss, usage, Flag, SeedLoss, Value, EXPERIMENT_FLAGS, JSON_REPORT,
    QUICK, SEED, TIMESERIES,
};

fn parse(args: &[&str]) -> Result<BenchCommand, String> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    parse_bench_args(&args)
}

fn error(args: &[&str]) -> String {
    match parse(args) {
        Err(e) => e,
        Ok(cmd) => panic!("{args:?} parsed as {cmd:?}"),
    }
}

#[test]
fn no_flags_runs_the_default_matrix() {
    let Ok(BenchCommand::Run { config, out }) = parse(&[]) else {
        panic!("empty command line must run");
    };
    assert_eq!(config.seed, DEFAULT_SEED);
    assert!(!config.smoke && config.wall_clock);
    assert_eq!(config.bench_id, "local");
    assert_eq!(out, None);
}

#[test]
fn run_flags_are_applied() {
    let cmd = parse(&[
        "--smoke",
        "--seed",
        "7",
        "--profile",
        "--tail",
        "--timeseries",
        "--no-wall",
        "--bench-id",
        "ci",
        "--out",
        "BENCH_ci.json",
    ]);
    let Ok(BenchCommand::Run { config, out }) = cmd else {
        panic!("{cmd:?}");
    };
    assert_eq!(config.seed, 7);
    assert!(config.smoke && config.profile && config.tail && config.timeseries);
    assert!(!config.wall_clock);
    assert_eq!(config.bench_id, "ci");
    assert_eq!(out.as_deref(), Some("BENCH_ci.json"));
}

#[test]
fn compare_mode_takes_two_paths_and_a_threshold() {
    let cmd = parse(&["--compare", "a.json", "b.json"]);
    let Ok(BenchCommand::Compare {
        old,
        new,
        threshold,
    }) = cmd
    else {
        panic!("{cmd:?}");
    };
    assert_eq!((old.as_str(), new.as_str()), ("a.json", "b.json"));
    assert_eq!(threshold, DEFAULT_THRESHOLD);
    let cmd = parse(&["--threshold", "0.25", "--compare", "a.json", "b.json"]);
    assert!(matches!(cmd, Ok(BenchCommand::Compare { threshold, .. }) if threshold == 0.25));
}

#[test]
fn help_is_recognised() {
    assert!(matches!(parse(&["--help"]), Ok(BenchCommand::Help)));
    assert!(matches!(parse(&["--smoke", "-h"]), Ok(BenchCommand::Help)));
}

#[test]
fn malformed_command_lines_are_errors() {
    assert!(error(&["--treshold", "0.1"]).contains("unknown argument `--treshold`"));
    assert!(error(&["smoke"]).contains("unknown argument"));
    assert!(error(&["--seed", "0x10"]).contains("--seed"));
    assert!(error(&["--seed", "-1"]).contains("--seed"));
    assert!(error(&["--seed"]).contains("needs a value"));
    assert!(error(&["--out", "--smoke"]).contains("--out needs a value"));
    assert!(error(&["--batch", "16"]).contains("unknown argument `--batch`"));
    assert!(error(&["--smoke", "--smoke"]).contains("given twice"));
    assert!(error(&["--compare", "a.json"]).contains("needs a value"));
    assert!(error(&["--compare", "a", "b", "--threshold", "ten"]).contains("--threshold"));
    assert!(error(&["--compare", "a", "b", "--threshold", "-0.1"]).contains("--threshold"));
    assert!(error(&["--compare", "a", "b", "--threshold", "NaN"]).contains("--threshold"));
    assert!(error(&["--threshold", "0.1"]).contains("needs --compare"));
    assert!(error(&["--compare", "a", "b", "--smoke"]).contains("--smoke cannot be combined"));
}

/// The other drivers share one strict reader for `--seed` and `--loss`.
#[test]
fn driver_seed_and_loss_are_strict() {
    let read = |args: &[&str]| {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_seed_loss(&args)
    };
    assert_eq!(read(&["--quick"]), Ok(SeedLoss::default()));
    assert_eq!(
        read(&["--quick", "--seed", "42", "--loss", "0.05"]),
        Ok(SeedLoss {
            seed: Some(42),
            loss: Some(0.05)
        })
    );
    assert_eq!(read(&["--loss", "1"]).unwrap().loss, Some(1.0));
    for bad in [
        &["--seed", "x"][..],
        &["--seed", "-1"],
        &["--seed"],
        &["--loss", "lots"],
        &["--loss", "1.5"],
        &["--loss", "-0.1"],
        &["--loss", "NaN"],
        &["--loss"],
    ] {
        assert!(read(bad).is_err(), "{bad:?} must be rejected");
    }
}

/// A driver flag's value must be present and must not be another flag:
/// `chaos --quick --json` and `chaos --json --quick` are errors, not a
/// skipped report or a file named `--quick`.
#[test]
fn driver_flag_values_are_strict() {
    let flags = [
        QUICK,
        SEED,
        JSON_REPORT,
        Flag::with("--protocol", &["<name>"], Value::Text),
        Flag::with("--out", &["<path>"], Value::Text),
        Flag::with("--jsonl", &["<path>"], Value::Text),
    ];
    let read = |args: &[&str], name: &str| {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_flags(&args, &flags).map(|a| a.value(name).map(str::to_string))
    };
    assert_eq!(read(&["--quick"], "--json"), Ok(None));
    assert_eq!(
        read(&["--json", "r.json", "--quick"], "--json"),
        Ok(Some("r.json".to_string()))
    );
    assert_eq!(
        read(&["--protocol", "hades-h"], "--protocol"),
        Ok(Some("hades-h".to_string()))
    );
    assert_eq!(
        read(&["--quick", "--json"], "--json"),
        Err("--json needs a value".to_string())
    );
    assert_eq!(
        read(&["--json", "--quick"], "--json"),
        Err("--json needs a value".to_string())
    );
    assert!(read(&["--out", "--jsonl", "e.jsonl"], "--out").is_err());
    assert!(read(&["--seed", "--quick"], "--seed").is_err());
}

/// Every driver parses against its own flag table: a flag it does not
/// take (`table4 --quik --bogus`) or a flag given twice is an error, not
/// a silently ignored argument.
#[test]
fn driver_unknown_and_repeated_flags_are_errors() {
    let parse = |flags: &[Flag], args: &[&str]| {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_flags(&args, flags)
    };
    let table4 = [QUICK];
    assert_eq!(
        parse(&table4, &["--quik", "--bogus"]),
        Err("unknown argument `--quik`".to_string())
    );
    assert!(parse(&table4, &["--quick"]).unwrap().has("--quick"));
    assert!(!parse(&table4, &[]).unwrap().has("--quick"));
    let chaos = [QUICK, TIMESERIES, JSON_REPORT];
    assert_eq!(
        parse(&chaos, &["--quick", "--timeseries", "--quick"]),
        Err("--quick given twice".to_string())
    );
    assert_eq!(
        parse(&chaos, &["--json", "a.json", "--json", "b.json"]),
        Err("--json given twice".to_string())
    );
    assert_eq!(
        parse(&chaos, &["--seed", "7"]),
        Err("unknown argument `--seed`".to_string())
    );
    assert_eq!(
        parse(&EXPERIMENT_FLAGS, &["--quick", "--batch", "16"]),
        Err("unknown argument `--batch`".to_string())
    );
    assert_eq!(
        usage("chaos", &chaos),
        "usage: chaos [--quick] [--timeseries] [--json <path>]"
    );
}
