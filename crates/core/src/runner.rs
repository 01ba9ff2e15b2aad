//! Experiment harness: run any protocol over any workload (or mix) and
//! cluster shape, as the paper's evaluation does.

use crate::baseline::BaselineSim;
use crate::hades::HadesSim;
use crate::hades_h::HadesHSim;
use crate::runtime::{Cluster, RunOutcome, WorkloadSet};
use crate::stats::RunStats;
use hades_fault::FaultPlan;
use hades_sim::config::SimConfig;
use hades_storage::db::Database;
use hades_telemetry::sink::Tracer;
use hades_workloads::catalog::AppId;
use std::fmt;

/// The three configurations compared throughout Section VIII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// The optimized software-only protocol (SW-Impl).
    Baseline,
    /// The hybrid hardware–software protocol.
    HadesH,
    /// The hardware-only protocol.
    Hades,
}

impl Protocol {
    /// All three, in figure order.
    pub const ALL: [Protocol; 3] = [Protocol::Baseline, Protocol::HadesH, Protocol::Hades];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Baseline => "Baseline",
            Protocol::HadesH => "HADES-H",
            Protocol::Hades => "HADES",
        }
    }

    /// Runs this protocol's engine over `cl` and `ws`: `warmup` commits
    /// discarded, `measure` commits recorded.
    pub fn run(self, cl: Cluster, ws: WorkloadSet, warmup: u64, measure: u64) -> RunOutcome {
        match self {
            Protocol::Baseline => BaselineSim::new(cl, ws, warmup, measure).run_full(),
            Protocol::HadesH => HadesHSim::new(cl, ws, warmup, measure).run_full(),
            Protocol::Hades => HadesSim::new(cl, ws, warmup, measure).run_full(),
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Shared experiment parameters.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Cluster and timing configuration.
    pub cfg: SimConfig,
    /// Dataset scale relative to the paper's sizes (see DESIGN.md §2).
    pub scale: f64,
    /// Commits discarded before measurement.
    pub warmup: u64,
    /// Commits measured.
    pub measure: u64,
}

impl Experiment {
    /// A quick configuration good for tests and smoke runs.
    pub fn quick() -> Self {
        Experiment {
            cfg: SimConfig::isca_default(),
            scale: 0.005,
            warmup: 100,
            measure: 500,
        }
    }

    /// The default evaluation configuration used by the figure drivers.
    pub fn evaluation() -> Self {
        Experiment {
            cfg: SimConfig::isca_default(),
            scale: 0.02,
            warmup: 500,
            measure: 4_000,
        }
    }

    /// Replaces the simulator configuration.
    pub fn with_cfg(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }
}

/// Runs `protocol` over a single application.
pub fn run_single(protocol: Protocol, app: AppId, ex: &Experiment) -> RunStats {
    run_mix(protocol, &[app], ex)
}

/// Runs `protocol` over a core-partitioned mix of applications (Figs 14
/// and 15). With one app this is an ordinary single-workload run.
pub fn run_mix(protocol: Protocol, apps: &[AppId], ex: &Experiment) -> RunStats {
    run_mix_full(protocol, apps, ex).stats
}

/// Like [`run_mix`] but returns the full outcome (cluster + ledger).
pub fn run_mix_full(protocol: Protocol, apps: &[AppId], ex: &Experiment) -> RunOutcome {
    run_mix_traced(protocol, apps, ex, Tracer::disabled())
}

/// Like [`run_mix_full`] but with a trace sink installed across the whole
/// cluster: the run emits the full event taxonomy (transaction lifecycle,
/// NIC verbs, Bloom filter activity, Locking Buffer grants/stalls) into
/// `tracer`. Pass [`Tracer::disabled`] for an untraced run.
pub fn run_mix_traced(
    protocol: Protocol,
    apps: &[AppId],
    ex: &Experiment,
    tracer: Tracer,
) -> RunOutcome {
    run_mix_inner(protocol, apps, ex, tracer, None)
}

/// Runs `protocol` over a single application under a [`FaultPlan`]: every
/// drop/duplication/delay/crash the plan describes is injected, and the
/// returned stats carry the fault/recovery breakdown.
pub fn run_single_planned(
    protocol: Protocol,
    app: AppId,
    ex: &Experiment,
    plan: FaultPlan,
) -> RunStats {
    run_mix_planned(protocol, &[app], ex, plan)
}

/// Like [`run_single_planned`] for a core-partitioned mix.
pub fn run_mix_planned(
    protocol: Protocol,
    apps: &[AppId],
    ex: &Experiment,
    plan: FaultPlan,
) -> RunStats {
    run_mix_inner(protocol, apps, ex, Tracer::disabled(), Some(plan)).stats
}

/// Fault plan plus trace sink: the full chaos harness entry point, used by
/// the determinism tests (identical config + seed + plan must produce
/// byte-identical traces).
pub fn run_single_planned_traced(
    protocol: Protocol,
    app: AppId,
    ex: &Experiment,
    plan: FaultPlan,
    tracer: Tracer,
) -> RunOutcome {
    run_mix_inner(protocol, &[app], ex, tracer, Some(plan))
}

fn run_mix_inner(
    protocol: Protocol,
    apps: &[AppId],
    ex: &Experiment,
    tracer: Tracer,
    plan: Option<FaultPlan>,
) -> RunOutcome {
    assert!(!apps.is_empty(), "need at least one application");
    let mut db = Database::new(ex.cfg.shape.nodes);
    let workloads: Vec<_> = apps.iter().map(|a| a.build(&mut db, ex.scale)).collect();
    let ws = if workloads.len() == 1 {
        WorkloadSet::single(
            workloads.into_iter().next().expect("one workload"),
            ex.cfg.shape.cores_per_node,
        )
    } else {
        WorkloadSet::mix(workloads, ex.cfg.shape.cores_per_node)
    };
    let mut cl = Cluster::new(ex.cfg.clone(), db);
    cl.install_tracer(tracer);
    if let Some(plan) = plan {
        cl.install_fault_plan(plan);
    }
    protocol.run(cl, ws, ex.warmup, ex.measure)
}

/// Runs `protocol` over a single application with a trace sink installed.
pub fn run_single_traced(
    protocol: Protocol,
    app: AppId,
    ex: &Experiment,
    tracer: Tracer,
) -> RunOutcome {
    run_mix_traced(protocol, &[app], ex, tracer)
}

/// One row of a Fig 9-style comparison: all three protocols on one app,
/// with throughputs normalized to Baseline.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Application label.
    pub app: String,
    /// Absolute throughput (txn/s) per protocol, `Protocol::ALL` order.
    pub throughput: [f64; 3],
    /// Mean latency (cycles) per protocol.
    pub mean_latency: [f64; 3],
    /// p95 latency (cycles) per protocol.
    pub p95_latency: [f64; 3],
}

impl ComparisonRow {
    /// Throughput normalized to Baseline, `Protocol::ALL` order.
    pub fn speedups(&self) -> [f64; 3] {
        let base = self.throughput[0].max(f64::MIN_POSITIVE);
        [1.0, self.throughput[1] / base, self.throughput[2] / base]
    }

    /// Mean latency normalized to Baseline.
    pub fn latency_ratios(&self) -> [f64; 3] {
        let base = self.mean_latency[0].max(f64::MIN_POSITIVE);
        [
            1.0,
            self.mean_latency[1] / base,
            self.mean_latency[2] / base,
        ]
    }
}

/// Runs all three protocols over `app` and collects a comparison row.
pub fn compare_protocols(app: AppId, ex: &Experiment) -> ComparisonRow {
    let mut throughput = [0.0; 3];
    let mut mean_latency = [0.0; 3];
    let mut p95_latency = [0.0; 3];
    for (i, p) in Protocol::ALL.into_iter().enumerate() {
        let stats = run_single(p, app, ex);
        throughput[i] = stats.throughput();
        mean_latency[i] = stats.mean_latency().get() as f64;
        p95_latency[i] = stats.p95_latency().get() as f64;
    }
    ComparisonRow {
        app: app.label(),
        throughput,
        mean_latency,
        p95_latency,
    }
}

/// Geometric mean of positive values (used for "average speedup" rows).
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_protocols_run_one_app() {
        let ex = Experiment {
            warmup: 20,
            measure: 150,
            ..Experiment::quick()
        };
        for p in Protocol::ALL {
            let stats = run_single(p, AppId::parse("HT-wB").unwrap(), &ex);
            assert_eq!(stats.committed, 150, "{p}");
            assert!(stats.throughput() > 0.0, "{p}");
        }
    }

    #[test]
    fn mixes_attribute_throughput_per_app() {
        let mut ex = Experiment {
            warmup: 20,
            measure: 300,
            ..Experiment::quick()
        };
        ex.cfg = ex.cfg.with_shape(hades_sim::config::ClusterShape::N5_C10);
        let apps = [
            AppId::parse("HT-wA").unwrap(),
            AppId::parse("Map-wB").unwrap(),
        ];
        let stats = run_mix(Protocol::Hades, &apps, &ex);
        assert_eq!(stats.committed_per_app.len(), 2);
        assert!(stats.committed_per_app[0] > 0);
        assert!(stats.committed_per_app[1] > 0);
        assert_eq!(stats.committed_per_app.iter().sum::<u64>(), stats.committed);
    }

    #[test]
    fn comparison_row_normalizes_to_baseline() {
        let ex = Experiment {
            warmup: 20,
            measure: 200,
            ..Experiment::quick()
        };
        let row = compare_protocols(AppId::parse("Smallbank").unwrap(), &ex);
        let sp = row.speedups();
        assert_eq!(sp[0], 1.0);
        assert!(sp[1] > 0.0 && sp[2] > 0.0);
    }

    #[test]
    fn geomean_is_correct() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
