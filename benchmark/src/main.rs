//! Benchmark entry point: `hades-benchmark --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`.
//!
//! Runs one round (all three engines on the workload) per sub-seed of
//! `--seed`, then repeats those rounds until `--seconds` of host time is
//! spent. With `--trace 1` each untraced round is paired with a profiled
//! round of the same sub-seed and the per-layer metrics are printed
//! instead of the end-to-end ones.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Exits 0 when every run passed the correctness gate, 1 when one did not,
//! and 2 on a bad command line.

use hades_benchmark::{
    end_to_end, host_us_per_commit, parse_args, peak_rss_mb, per_layer, ratio_report, replay,
    run_round, setup_s, sim_fingerprint, Metrics, Round, REPLAY_TXNS, USAGE,
};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hades-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec();
    let seeds = spec.seeds as usize;
    let start = Instant::now();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    // One round per sub-seed, then repeats of the same sub-seeds while
    // `--seconds` allows, for more host-time samples.
    loop {
        let seed = spec.round_seed(args.seed, untraced.len() as u64);
        untraced.push(run_round(&spec, seed, false));
        if args.trace {
            traced.push(run_round(&spec, seed, true));
        }
        let spent = start.elapsed().as_secs_f64();
        let r = &untraced[untraced.len() - 1];
        eprintln!(
            "round {} (seed {seed}): host {:.3} us/commit ({}), set-up {:.3} s, {:.1} s elapsed",
            untraced.len(),
            host_us_per_commit(r),
            r.iter()
                .map(|s| format!("{} {:.3} s", s.engine.key(), s.run_s))
                .collect::<Vec<_>>()
                .join(", "),
            setup_s(r),
            spent
        );
        let per_round = spent / untraced.len() as f64;
        if untraced.len() >= seeds && spent + per_round > args.seconds {
            break;
        }
    }

    // A repeated sub-seed must simulate exactly what its first round did,
    // traced or not: the profiler and the commit log change nothing.
    let reference: Vec<Vec<String>> = untraced[..seeds]
        .iter()
        .map(|r| r.iter().map(|s| sim_fingerprint(&s.stats)).collect())
        .collect();
    for rounds in [&mut untraced, &mut traced] {
        for (i, round) in rounds.iter_mut().enumerate() {
            for (s, want) in round.iter_mut().zip(&reference[i % seeds]) {
                if sim_fingerprint(&s.stats) != *want {
                    s.violations.push(
                        "simulated statistics differ from the first untraced run of this seed"
                            .into(),
                    );
                }
            }
        }
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    for s in untraced.iter().chain(&traced).flatten() {
        attempted += spec.measure;
        failed += if s.violations.is_empty() {
            spec.measure - s.stats.committed.min(spec.measure)
        } else {
            spec.measure
        };
        for v in &s.violations {
            eprintln!(
                "hades-benchmark: {} {}: {v}",
                args.workload.name(),
                s.engine.key()
            );
        }
    }

    let rss = match peak_rss_mb() {
        Ok(rss) => rss,
        Err(e) => {
            eprintln!("hades-benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    let e2e = end_to_end(&untraced, seeds, rss);
    let metrics = if args.trace {
        let r = replay(&spec, spec.round_seed(args.seed, 0), REPLAY_TXNS);
        per_layer(&untraced, &traced, &r)
    } else {
        e2e.clone()
    };
    println!(
        "workload {} seed {}: {} round(s) over {seeds} sub-seed(s), 3 engines x {} measured commits each, {:.1} s",
        args.workload.name(),
        args.seed,
        untraced.len() + traced.len(),
        spec.measure,
        start.elapsed().as_secs_f64()
    );
    for line in ratio_report(&e2e) {
        println!("{line}");
    }
    for m in &metrics.0 {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite value in full precision; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
