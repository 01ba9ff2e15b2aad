//! Section VI — per-node hardware storage required by HADES.
//!
//! Reproduces the paper's arithmetic for the default evaluation cluster
//! (N=5, C=5, m=2: 7.0 KB of core BFs, 4 LLC tag bits, ~11.0 KB of NIC
//! storage) and the FaRM-scale cluster (N=90, C=16, m=2, D=5: 22.4 KB,
//! 5 bits, ~43.1 KB).
//!
//! Run: `cargo run --release -p hades-bench --bin hwcost`

use hades_bench::{args_or_exit, print_table, QUICK};
use hades_core::hwcost::{core_pair_bytes, nic_pair_bytes, per_node_cost, HwCostInputs};
use hades_sim::config::BloomParams;

fn main() {
    // The arithmetic is instant: `--quick` is accepted like every driver's
    // and changes nothing.
    args_or_exit(&[QUICK]);
    let bloom = BloomParams::default();
    println!(
        "Core BF pair: {} B (paper: 0.7 KB); NIC BF pair: {} B (paper: 0.25 KB)",
        core_pair_bytes(&bloom),
        nic_pair_bytes(&bloom)
    );
    let clusters = [
        (
            "N=5 C=5 m=2 D=4 (default)",
            HwCostInputs {
                nodes: 5,
                cores_per_node: 5,
                slots_per_core: 2,
                avg_remote_nodes: 4,
            },
        ),
        (
            "N=90 C=16 m=2 D=5 (FaRM-scale)",
            HwCostInputs {
                nodes: 90,
                cores_per_node: 16,
                slots_per_core: 2,
                avg_remote_nodes: 5,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (label, inputs) in clusters {
        let c = per_node_cost(&inputs, &bloom);
        rows.push(vec![
            label.to_string(),
            format!("{:.1} KB", c.core_bf_bytes as f64 / 1024.0),
            format!("{} bits", c.llc_tag_bits),
            format!("{:.1} KB", c.nic_bf_bytes as f64 / 1024.0),
            format!("{:.1} KB", c.nic_table_bytes as f64 / 1024.0),
            format!("{:.1} KB", c.nic_total_bytes() as f64 / 1024.0),
        ]);
    }
    print_table(
        "Sec VI — per-node HADES hardware storage",
        &[
            "cluster",
            "core BFs",
            "LLC tag",
            "NIC BFs",
            "NIC 4b",
            "NIC total",
        ],
        &rows,
    );
    println!("\nPaper: 7.0 KB / 4 bits / 11.0 KB (default); 22.4 KB / 5 bits / 43.1 KB");
    println!("(FaRM-scale) — comfortably within a modern NIC's 4 MB of memory.");
}
