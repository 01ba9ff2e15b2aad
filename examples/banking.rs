//! Banking demo: run the same contended Smallbank workload under all three
//! protocols and verify the *money conservation invariant* — the total
//! balance across every account must equal the initial total plus the sum
//! of committed transaction deltas, no matter how many transactions were
//! squashed and retried.
//!
//! This is the strongest end-to-end correctness check in the repository:
//! a protocol that leaked a partial write, double-applied an update, or
//! committed a non-serializable schedule of transfers would fail it.
//!
//! Run: `cargo run --release --example banking`

use hades::core::runner::Protocol;
use hades::core::runtime::{Cluster, RunOutcome, WorkloadSet};
use hades::sim::config::SimConfig;
use hades::storage::db::Database;
use hades::workloads::smallbank::{Smallbank, SmallbankConfig, INITIAL_BALANCE, OFF_BALANCE};

const ACCOUNTS: u64 = 5_000;

fn run(protocol: Protocol) -> (RunOutcome, [hades::storage::TableId; 2]) {
    let cfg = SimConfig::isca_default();
    let mut db = Database::new(cfg.shape.nodes);
    // A hot set of 30 accounts takes 60% of the traffic: plenty of
    // conflicts, squashes and retries.
    let bank = Smallbank::setup(
        &mut db,
        SmallbankConfig {
            accounts: ACCOUNTS,
            hotspot: Some((30, 0.6)),
        },
    );
    let tables = [bank.checking(), bank.savings()];
    let ws = WorkloadSet::single(Box::new(bank), cfg.shape.cores_per_node);
    let cl = Cluster::new(cfg, db);
    let out = protocol.run(cl, ws, 0, 3_000);
    (out, tables)
}

fn main() {
    let initial = 2 * ACCOUNTS * INITIAL_BALANCE;
    println!("Initial bank total: {initial}");
    for protocol in Protocol::ALL {
        let (out, tables) = run(protocol);
        let mut total: u64 = 0;
        for table in tables {
            for account in 0..ACCOUNTS {
                let rid = out.cluster.db.lookup(table, account).expect("account").rid;
                total =
                    total.wrapping_add(out.cluster.db.record(rid).read_u64(OFF_BALANCE as usize));
            }
        }
        let expected = initial.wrapping_add(out.total_sum_delta as u64);
        let ok = total == expected;
        println!(
            "{:<9} commits={:>6} squashes={:>5} fallbacks={:>3} | final={} expected={} -> {}",
            protocol.label(),
            out.total_commits,
            out.stats.squashes,
            out.stats.fallbacks,
            total,
            expected,
            if ok { "CONSERVED" } else { "VIOLATED" }
        );
        assert!(ok, "{protocol:?} violated conservation");
    }
    println!("All three protocols conserved money under contention.");
}
