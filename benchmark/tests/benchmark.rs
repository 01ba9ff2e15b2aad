//! The benchmark's own checks: metric names match `BENCHMARK.json`, the
//! seed drives the inputs and nothing else, the correctness gate trips on
//! doctored outcomes, and the command line is strict.

use hades::bloom::filter::BloomFilter;
use hades::bloom::locking::Signature;
use hades::core::baseline::BaselineSim;
use hades::core::runtime::{Cluster, RunOutcome, WorkloadSet};
use hades::net::nic::RemoteTxKey;
use hades::sim::ids::{NodeId, SlotId};
use hades::sim::stats::Histogram;
use hades::sim::time::{Cycles, CORE_HZ};
use hades::storage::record::RecordId;
use hades_benchmark::{
    check_history, check_outcome, config, end_to_end, parse_args, per_layer, percentile_us, replay,
    run_round, sim_fingerprint, WorkloadId,
};

/// The `"name"` values of one top-level array in `BENCHMARK.json`.
fn declared_names(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_declared_metric_is_reported_for_every_workload() {
    let e2e = declared_names("end_to_end");
    let layer = declared_names("per_layer");
    assert_eq!(e2e.len(), 11);
    assert!(e2e.contains(&"setup_s".to_string()));
    let workloads = declared_names("workloads");
    for w in WorkloadId::ALL {
        assert!(workloads.contains(&w.name().to_string()), "{}", w.name());
        let spec = w.spec().tiny();
        let untraced = vec![run_round(&spec, 7, false)];
        let traced = vec![run_round(&spec, 7, true)];
        let m = end_to_end(&untraced, 1, 1.0);
        let names: Vec<&str> = m.0.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, e2e, "{}: end-to-end metrics", w.name());
        let m = per_layer(&untraced, &traced, &replay(&spec, 7, 200));
        let names: Vec<&str> = m.0.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, layer, "{}: per-layer metrics", w.name());
        for x in &m.0 {
            assert!(valid_name(&x.name), "bad metric name {}", x.name);
            assert!(
                x.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                x.name,
                x.value
            );
        }
        for s in untraced.iter().chain(&traced).flatten() {
            assert!(
                s.violations.is_empty(),
                "{:?}: {:?}",
                s.engine,
                s.violations
            );
        }
    }
}

#[test]
fn seed_changes_inputs_and_reproduces_simulation() {
    for w in WorkloadId::ALL {
        let spec = w.spec().tiny();
        let a = replay(&spec, 1, 300);
        assert_eq!(a.ops, replay(&spec, 1, 300).ops, "{}", w.name());
        assert_ne!(a.ops, replay(&spec, 2, 300).ops, "{}", w.name());
    }
    let spec = WorkloadId::YcsbAHot.spec().tiny();
    let fingerprints = |seed, traced| -> Vec<String> {
        run_round(&spec, seed, traced)
            .iter()
            .map(|s| sim_fingerprint(&s.stats))
            .collect()
    };
    let first = fingerprints(3, false);
    assert_eq!(first, fingerprints(3, false), "rerun at the same seed");
    assert_eq!(first, fingerprints(3, true), "the profiler changed the run");
    let other = fingerprints(4, false);
    for (a, b) in first.iter().zip(&other) {
        assert_ne!(a, b, "a new seed left a run unchanged");
    }
    let m = |seed| end_to_end(&[run_round(&spec, seed, false)], 1, 1.0);
    let (a, b) = (m(3), m(3));
    for x in a.0.iter().filter(|x| x.name.contains('.')) {
        assert_eq!(b.get(&x.name), Some(x.value), "{}", x.name);
    }
}

fn baseline_outcome() -> (RunOutcome, u64) {
    let spec = WorkloadId::YcsbAHot.spec().tiny();
    let cfg = config(5, false);
    let (db, w) = spec.load(cfg.shape.nodes);
    let ws = WorkloadSet::single(w, cfg.shape.cores_per_node);
    let out = BaselineSim::new(Cluster::new(cfg, db), ws, spec.warmup, spec.measure).run_full();
    (out, spec.measure)
}

#[test]
fn gate_passes_a_clean_run_and_trips_on_doctored_outcomes() {
    let (mut out, measure) = baseline_outcome();
    assert!(check_outcome(&out, measure).is_empty());

    out.stats.committed -= 1;
    assert_eq!(check_outcome(&out, measure).len(), 1, "short commit count");
    out.stats.committed += 1;

    let sig = || Signature::Conventional(BloomFilter::new(1024, 2));
    out.cluster.lock_bufs[2]
        .try_lock(99, sig(), sig(), &[1], &[])
        .expect("a free Locking Buffer");
    let v = check_outcome(&out, measure);
    assert!(v.iter().any(|m| m.contains("Locking Buffers")), "{v:?}");
    out.cluster.lock_bufs[2].unlock(99);
    assert!(check_outcome(&out, measure).is_empty());

    let tx = RemoteTxKey {
        origin: NodeId(1),
        slot: SlotId(0),
    };
    out.cluster.nics[0].record_remote_write(Cycles::ZERO, tx, &[42]);
    let v = check_outcome(&out, measure);
    assert!(v.iter().any(|m| m.contains("remote-tx")), "{v:?}");
    out.cluster.nics[0].clear_remote_tx(tx);

    assert!(out.cluster.db.record_mut(RecordId(3)).try_lock(7));
    let v = check_outcome(&out, measure);
    assert!(v.iter().any(|m| m.contains("record locks")), "{v:?}");
    out.cluster.db.record_mut(RecordId(3)).unlock(7);

    out.replica_pending_leaked = 2;
    let v = check_outcome(&out, measure);
    assert!(v.iter().any(|m| m.contains("replica-prepare")), "{v:?}");

    let db = &mut out.cluster.db;
    assert_eq!(check_history(db).len(), 1, "history off: nothing recorded");
    db.enable_commit_history();
    db.note_commit(RecordId(3), 0);
    db.note_commit(RecordId(3), 0);
    assert!(check_history(db).is_empty());
}

#[test]
fn percentiles_interpolate_inside_histogram_buckets() {
    // 200k samples overflow the histogram's exact-sample cap, so it keeps
    // only buckets; the interpolated quantile must land near the true one
    // and move when the data moves by less than a bucket.
    let mut h = Histogram::new();
    for v in 1..=200_000u64 {
        h.record(Cycles::new(v));
    }
    assert!(!h.is_exact());
    let us = |cycles: f64| cycles * 1e6 / CORE_HZ as f64;
    for p in [50.0, 99.0] {
        let want = us(2_000.0 * p);
        let got = percentile_us(&h, p);
        assert!((got - want).abs() / want < 0.002, "p{p}: {got} vs {want}");
    }
    let before = percentile_us(&h, 50.0);
    for v in 1..=2_000u64 {
        h.record(Cycles::new(100_000 + v));
    }
    assert!(percentile_us(&h, 50.0) > before);
}

#[test]
fn sub_seeds_are_distinct_across_runs() {
    let spec = WorkloadId::YcsbAHot.spec();
    let mut seen: Vec<u64> = (1..=10)
        .flat_map(|s| (0..spec.seeds).map(move |i| spec.round_seed(s, i)))
        .collect();
    let n = seen.len();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), n);
    assert_eq!(spec.round_seed(3, spec.seeds), spec.round_seed(3, 0));
}

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn command_line_is_strict() {
    let ok = parse_args(&args("--workload tpcc --seed 9 --seconds 10 --trace 1")).unwrap();
    assert_eq!(ok.workload, WorkloadId::Tpcc);
    assert_eq!((ok.seed, ok.seconds, ok.trace), (9, 10.0, true));
    for bad in [
        "--help",
        "--workload tpcc --seed 9 --seconds 10 --trace 1 --extra",
        "--workload tpcc --seed 9 --seconds 10 --trace",
        "--workload tpcc --seed --seconds 10 --trace 0",
        "--workload tpcc --seed nine --seconds 10 --trace 0",
        "--workload tpcc --seed -1 --seconds 10 --trace 0",
        "--workload ycsb-c --seed 1 --seconds 10 --trace 0",
        "--workload tpcc --seed 1 --seconds 0 --trace 0",
        "--workload tpcc --seed 1 --seconds 10 --trace 2",
        "--workload tpcc --seed 1 --seconds 10",
        "--workload tpcc --workload tpcc --seed 1 --seconds 10 --trace 0",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "accepted `{bad}`");
    }
}
