//! Replacement-policy identity of the modelled cache hierarchy.
//!
//! Simulated timing depends on which level services each access and which
//! speculatively written LLC lines get evicted (squashing their owners,
//! Section VIII-C). These tests run small cells and pin, per cell, the
//! summed LLC `(hits, misses)`, the eviction-squash count and an FNV-1a
//! hash of the rendered stats JSON to the values of the cache model they
//! were written against. A cache refactor that changes a victim choice
//! moves them; one that only changes the host representation leaves them
//! alone. The pressure cell keeps the all-speculative eviction path
//! covered at the default test tier.

use hades::core::runner::{run_mix_full, Experiment, Protocol};
use hades::sim::config::SimConfig;
use hades::workloads::catalog::AppId;

struct Pin {
    llc: (u64, u64),
    eviction_squashes: u64,
    stats_hash: u64,
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

fn measure(protocol: Protocol, app: &str, cfg: SimConfig) -> Pin {
    let ex = Experiment {
        cfg,
        scale: 0.01,
        warmup: 100,
        measure: 600,
    };
    let out = run_mix_full(protocol, &[AppId::parse(app).unwrap()], &ex);
    let llc = out.cluster.mems.iter().fold((0, 0), |(h, m), mem| {
        let (hits, misses) = mem.llc_stats();
        (h + hits, m + misses)
    });
    Pin {
        llc,
        eviction_squashes: out.stats.llc_eviction_squashes,
        stats_hash: fnv(out.stats.to_json().render().as_bytes()),
    }
}

fn assert_pin(label: &str, got: Pin, llc: (u64, u64), eviction_squashes: u64, stats_hash: u64) {
    assert_eq!(got.llc, llc, "{label}: LLC (hits, misses)");
    assert_eq!(
        got.eviction_squashes, eviction_squashes,
        "{label}: LLC eviction squashes"
    );
    assert_eq!(
        got.stats_hash, stats_hash,
        "{label}: stats JSON hash {:#018X}",
        got.stats_hash
    );
}

#[test]
fn ht_wa_default_geometry_is_pinned() {
    let pins = [
        (
            Protocol::Baseline,
            (46_422, 5_762),
            0,
            0x2CB1_26D2_9E9C_D4EE,
        ),
        (Protocol::HadesH, (6_633, 4_683), 0, 0x9E62_1D1E_0770_F428),
        (Protocol::Hades, (5_566, 4_648), 0, 0xF0E6_1C0B_E80B_AE44),
    ];
    for (protocol, llc, squashes, hash) in pins {
        let got = measure(protocol, "HT-wA", SimConfig::isca_default());
        assert_pin(&format!("HT-wA {protocol}"), got, llc, squashes, hash);
    }
}

#[test]
fn tpcc_pressure_geometry_is_pinned() {
    // The `sec8c` pressure row: all-local traffic into a 32 KB/core
    // 2-way LLC, small enough that whole sets fill with speculative lines.
    let mut cfg = SimConfig::isca_default().with_local_fraction(1.0);
    cfg.mem.llc_bytes_per_core = 32 << 10;
    cfg.mem.llc_ways = 2;
    let got = measure(Protocol::Hades, "TPC-C", cfg);
    assert!(
        got.eviction_squashes > 0,
        "pressure cell must evict speculative lines"
    );
    assert_pin(
        "TPC-C HADES pressure",
        got,
        (4_941, 10_677),
        4,
        0xF233_706C_8711_301D,
    );
}
