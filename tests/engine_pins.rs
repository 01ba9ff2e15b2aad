//! Behavioural identity of the three protocol engines.
//!
//! Each cell runs one engine on a small configuration chosen to reach one
//! protocol branch — contention, big multi-partition sets, lost and
//! duplicated handshake messages, crash and restart under a lease (with
//! and without the membership layer, before and after the detector
//! declares the node dead), failover, live migration, a cut link, context
//! switches, the saturation fallback, the observability recorders and
//! replication — and pins an FNV-1a hash of the rendered stats JSON and of
//! the JSONL event trace. A refactor of the engines that keeps every
//! schedule, RNG draw and counter leaves all hashes alone; one that
//! changes any of them moves at least one. The per-cell branch checks make
//! sure each cell still exercises the path it is named after.

use hades::core::runner::{run_single_planned_traced, run_single_traced, Experiment, Protocol};
use hades::core::RunOutcome;
use hades::fault::FaultPlan;
use hades::sim::config::{
    ClusterShape, MembershipParams, MigrationParams, OverloadParams, SimConfig,
};
use hades::sim::time::Cycles;
use hades::telemetry::event::Verb;
use hades::telemetry::jsonl::events_to_jsonl;
use hades::telemetry::sink::Tracer;
use hades::workloads::catalog::AppId;

/// The small cluster the fault cells run on (fewer slots, faster runs).
const SHAPE: ClusterShape = ClusterShape {
    nodes: 4,
    cores_per_node: 4,
    slots_per_core: 2,
};

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

/// One pinned cell: its configuration, application and fault plan.
struct Cell {
    name: &'static str,
    app: &'static str,
    cfg: SimConfig,
    plan: Option<FaultPlan>,
    measure: u64,
    protocols: &'static [Protocol],
    /// Asserts the cell reached the branch it is named after.
    check: fn(Protocol, &RunOutcome) -> bool,
}

fn cells() -> Vec<Cell> {
    let small = SimConfig::isca_default().with_shape(SHAPE);
    vec![
        Cell {
            name: "ht-wa",
            app: "HT-wA",
            cfg: SimConfig::isca_default(),
            plan: None,
            measure: 300,
            protocols: &Protocol::ALL,
            check: |_, out| out.stats.squashes > 0,
        },
        Cell {
            name: "tpcc",
            app: "TPC-C",
            cfg: SimConfig::isca_default(),
            plan: None,
            measure: 200,
            protocols: &Protocol::ALL,
            check: |_, out| out.stats.committed == 200,
        },
        Cell {
            name: "loss-dup",
            app: "Smallbank",
            cfg: small.clone(),
            plan: Some(
                FaultPlan::from_loss(0.05, 5)
                    .dup_verb(Verb::Intend, 0.05)
                    .dup_verb(Verb::Ack, 0.05)
                    .dup_verb(Verb::LockResp, 0.05),
            ),
            measure: 300,
            protocols: &Protocol::ALL,
            check: |_, out| out.stats.recovery.timeout_retries > 0,
        },
        Cell {
            name: "crash-restart",
            app: "Smallbank",
            cfg: small.clone(),
            plan: Some(
                FaultPlan::none()
                    .with_seed(11)
                    .with_lease(Cycles::new(30_000))
                    .crash(1, Cycles::new(40_000), Cycles::new(100_000)),
            ),
            measure: 400,
            protocols: &Protocol::ALL,
            // Baseline has no lease machinery: without the membership
            // layer it ignores crash events.
            check: |p, out| p == Protocol::Baseline || out.stats.faults.restarts == 1,
        },
        Cell {
            name: "crash-restart-membership",
            app: "Smallbank",
            cfg: small.clone().with_membership(MembershipParams::standard()),
            plan: Some(
                FaultPlan::none()
                    .with_seed(11)
                    .with_lease(Cycles::new(30_000))
                    .crash(1, Cycles::new(40_000), Cycles::new(100_000)),
            ),
            measure: 400,
            protocols: &Protocol::ALL,
            // Restarts before the detector declares the node dead.
            check: |_, out| {
                out.stats.faults.restarts == 1 && out.stats.membership.epoch_changes == 0
            },
        },
        Cell {
            name: "restart-after-failover",
            app: "Smallbank",
            cfg: small.clone().with_membership(MembershipParams::standard()),
            plan: Some(
                FaultPlan::none()
                    .with_seed(11)
                    .with_lease(Cycles::new(30_000))
                    .crash(1, Cycles::new(40_000), Cycles::new(400_000)),
            ),
            measure: 400,
            protocols: &Protocol::ALL,
            // Restarts after one epoch change reconfigured around it.
            check: |_, out| {
                out.stats.faults.restarts == 1 && out.stats.membership.epoch_changes == 1
            },
        },
        Cell {
            name: "failover",
            app: "Smallbank",
            cfg: small.clone().with_membership(MembershipParams::standard()),
            plan: Some(FaultPlan::none().crash_forever(2, Cycles::from_micros(20))),
            measure: 400,
            protocols: &Protocol::ALL,
            check: |_, out| out.stats.membership.epoch_changes >= 1,
        },
        Cell {
            name: "migration",
            app: "Smallbank",
            cfg: small
                .clone()
                .with_migration(MigrationParams::standard(vec![(2, 0)])),
            plan: None,
            measure: 1_000,
            protocols: &Protocol::ALL,
            check: |_, out| out.stats.migration.partitions_moved >= 1,
        },
        Cell {
            name: "link-cut",
            app: "Smallbank",
            cfg: small.clone(),
            plan: Some(FaultPlan::none().with_seed(17).cut_link_sym(
                0,
                1,
                Cycles::from_micros(20),
                Cycles::from_micros(60),
            )),
            measure: 400,
            protocols: &Protocol::ALL,
            check: |_, out| out.stats.nemesis.links_cut > 0,
        },
        Cell {
            name: "context-switch",
            app: "Smallbank",
            cfg: SimConfig::isca_default().with_context_switches(Cycles::from_micros(5)),
            plan: None,
            measure: 300,
            protocols: &Protocol::ALL,
            check: |_, out| out.stats.committed == 300,
        },
        Cell {
            name: "saturation",
            app: "HT-wA",
            cfg: SimConfig::isca_default()
                .with_lock_buffer_slots(1)
                .with_overload(OverloadParams {
                    degrade_on_saturation: true,
                    ..OverloadParams::default()
                }),
            plan: None,
            measure: 300,
            protocols: &Protocol::ALL,
            check: |p, out| p == Protocol::Baseline || out.stats.overload.degraded_commits > 0,
        },
        Cell {
            name: "observed",
            app: "HT-wA",
            cfg: SimConfig::isca_default()
                .with_profiling()
                .with_spans()
                .with_timeseries(Cycles::from_micros(10)),
            plan: None,
            measure: 300,
            protocols: &Protocol::ALL,
            check: |_, out| out.stats.profile.is_some() && out.stats.spans.is_some(),
        },
        Cell {
            name: "replication",
            app: "Smallbank",
            cfg: small.with_replication(1),
            plan: None,
            measure: 300,
            protocols: &[Protocol::Hades],
            check: |_, out| out.stats.replica_persists > 0,
        },
    ]
}

/// Runs one cell on one engine; returns `(stats hash, trace hash)`.
fn run(cell: &Cell, protocol: Protocol) -> (u64, u64) {
    let ex = Experiment {
        cfg: cell.cfg.clone(),
        scale: 0.005,
        warmup: 0,
        measure: cell.measure,
    };
    let app = AppId::parse(cell.app).expect("known app");
    let (tracer, sink) = Tracer::memory();
    let out = match &cell.plan {
        Some(plan) => run_single_planned_traced(protocol, app, &ex, plan.clone(), tracer),
        None => run_single_traced(protocol, app, &ex, tracer),
    };
    assert!(
        (cell.check)(protocol, &out),
        "{} {protocol}: cell missed its branch: {}",
        cell.name,
        out.stats.to_json().render()
    );
    let jsonl = events_to_jsonl(&sink.borrow_mut().take_events());
    (
        fnv(out.stats.to_json().render().as_bytes()),
        fnv(jsonl.as_bytes()),
    )
}

/// Per cell and engine: `cell engine stats-hash trace-hash`, one a line.
const PINS: &str = "\
ht-wa Baseline 0x4904A9E663EC2443 0xEA551DF2D2B62C2F
ht-wa HadesH 0x98C4A6948FB7C046 0x8B54112A6688380F
ht-wa Hades 0xDC2A9F8B86A80243 0xF17CB7EF452A2193
tpcc Baseline 0xF41D6CCA720C88F7 0x69CEC28376FA3B8A
tpcc HadesH 0xD1522184D22A8B00 0x8A1F61BE3280AF73
tpcc Hades 0x26650518D44F80D3 0xEB1B4649F66A6CA0
loss-dup Baseline 0x7C808376550D222E 0xF69619BC5B98EC3C
loss-dup HadesH 0xFE2627FFB0CE8888 0x63DB73BDA50E567C
loss-dup Hades 0xAB4196518FABC5D7 0x7EBB136ACBB77FD0
crash-restart Baseline 0xCC5C66DE781587F9 0x1C64A1C74ECCBB14
crash-restart HadesH 0x7F103AC2BF0FAE57 0x2CB69087DDF8EBB2
crash-restart Hades 0x27A0D99363096C3C 0x2FA039AF3534D2FA
crash-restart-membership Baseline 0x615A93A84CF6B8B1 0x183D4575CDEFA138
crash-restart-membership HadesH 0x7F103AC2BF0FAE57 0x2CB69087DDF8EBB2
crash-restart-membership Hades 0x27A0D99363096C3C 0x2FA039AF3534D2FA
restart-after-failover Baseline 0x242AA74E4ECA4631 0x95D758CFB51F5EFF
restart-after-failover HadesH 0x1579778E5788E00C 0x20FF2F2BBFDE0E82
restart-after-failover Hades 0xDB9895C9F87570CD 0x28D3BBF9344F816C
failover Baseline 0xFA5CC7FCD77DA644 0x326541C9D8331EC8
failover HadesH 0x6327E7530C8DA42E 0x0B42344B49976097
failover Hades 0x970025C196AC1D8A 0xD90821714EAF28F6
migration Baseline 0x9BE5D82F6A2262E9 0xD5BFB6FA72C25F27
migration HadesH 0x397B527743A1702C 0xA061BFC23DDBF544
migration Hades 0x1240B31FDC39FC5E 0xD343C0225C2BEE56
link-cut Baseline 0xF79BB99868F7B000 0x68AC0AFFCB9C3B2F
link-cut HadesH 0xEE6612FBB77EA124 0xA7B8335B3D5DF343
link-cut Hades 0x24B838EA7808DBE5 0x064026D979DBC9CE
context-switch Baseline 0xB1FEDBE373B3F1E0 0x40D974386724EED7
context-switch HadesH 0x56CAC8361BEA9C7E 0x485BFFC43718AEE2
context-switch Hades 0x5578DE99D1B27745 0x84989FD15623773C
saturation Baseline 0x79A4749A5F748FFC 0xEA551DF2D2B62C2F
saturation HadesH 0xD9046E3E67020103 0x904B8AD7F6890042
saturation Hades 0xFA4CE4C942697B67 0x4CAAEACFC1264B17
observed Baseline 0x7EDE89FD260B5F17 0xEA551DF2D2B62C2F
observed HadesH 0x741A525DCC325FD9 0x8B54112A6688380F
observed Hades 0xF627CCD28DE8DA63 0xF17CB7EF452A2193
replication Hades 0xC4BF6D88287164F9 0xF61D2237544EAE5C
";

#[test]
fn engine_outputs_are_pinned() {
    let mut got = String::new();
    for cell in cells() {
        for &p in cell.protocols {
            let (stats, trace) = run(&cell, p);
            got += &format!("{} {p:?} {stats:#018X} {trace:#018X}\n", cell.name);
        }
    }
    assert_eq!(got, PINS, "engine pins moved");
}
