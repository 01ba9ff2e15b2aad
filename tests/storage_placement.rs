//! Placement and content identity of the record store.
//!
//! Simulated timing depends on where each record lives (home node and
//! cache lines), how long its value is, and how many index steps a key
//! lookup takes. The placement tests fold all of that, for tiny TPC-C and
//! YCSB-A loads, into one FNV-1a hash pinned to the value of the layout it
//! was written against. A storage refactor that moves a record, changes a
//! value length or alters a probe sequence changes the hash; one that only
//! changes the host representation leaves it alone.
//!
//! The post-run tests pin what the engines leave behind: every record's
//! value bytes, version, incarnation and lock state after each engine runs
//! tiny TPC-C, HT-wA and Smallbank (whose loaded balances are non-zero).

use hades::core::runner::Protocol;
use hades::core::runtime::{Cluster, WorkloadSet};
use hades::sim::config::SimConfig;
use hades::sim::ids::NodeId;
use hades::storage::db::{Database, TableId};
use hades::storage::{IndexKind, RecordId};
use hades::workloads::smallbank::{Smallbank, SmallbankConfig};
use hades::workloads::spec::Workload;
use hades::workloads::tpcc::{Tpcc, TpccConfig};
use hades::workloads::ycsb::{Ycsb, YcsbConfig, YcsbVariant};

const NODES: usize = 5;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Hashes every record's `(home, lines, value_len)` in record order, then
/// every key's `(rid, depth)` per table in per-node insertion order.
fn placement_hash(db: &Database, tables: u16) -> u64 {
    let mut h = Fnv::new();
    h.word(db.record_count() as u64);
    for i in 0..db.record_count() {
        let rec = db.record(RecordId(i as u32));
        h.word(rec.home().0 as u64);
        h.word(rec.num_lines() as u64);
        for line in rec.lines() {
            h.word(line);
        }
        h.word(rec.value_len() as u64);
    }
    for t in 0..tables {
        let table = TableId(t);
        h.word(db.table_len(table) as u64);
        for node in 0..NODES {
            for &key in db.keys_at(table, NodeId(node as u16)) {
                let hit = db.lookup(table, key).expect("sampled key resolves");
                h.word(key);
                h.word(hit.rid.0 as u64);
                h.word(hit.depth as u64);
            }
        }
    }
    h.0
}

/// Hashes every record's value bytes, version, incarnation and lock
/// state, in record order.
fn content_hash(db: &Database) -> u64 {
    let mut h = Fnv::new();
    h.word(db.record_count() as u64);
    for i in 0..db.record_count() {
        let rec = db.record(RecordId(i as u32));
        h.bytes(rec.read(0, rec.value_len()));
        h.word(rec.version());
        h.word(rec.incarnation() as u64);
        h.word(rec.is_locked() as u64);
    }
    h.0
}

const TINY_TPCC: TpccConfig = TpccConfig {
    warehouses: 2,
    districts_per_warehouse: 3,
    customers_per_district: 40,
    items: 500,
    order_slots_per_district: 25,
};

fn tiny_ycsb_a() -> YcsbConfig {
    let mut cfg = YcsbConfig::paper(IndexKind::HashTable, YcsbVariant::A);
    cfg.keys = 3_000;
    cfg
}

/// Loads one tiny application, runs `protocol` for 300 commits on the
/// default cluster and returns the content hash of the final database.
/// Pins below are in `Protocol::ALL` order: Baseline, HADES-H, HADES.
fn post_run_hash(protocol: Protocol, load: fn(&mut Database) -> Box<dyn Workload>) -> u64 {
    let cfg = SimConfig::isca_default();
    let mut db = Database::new(cfg.shape.nodes);
    let app = load(&mut db);
    let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
    let out = protocol.run(Cluster::new(cfg, db), ws, 0, 300);
    assert_eq!(out.stats.committed, 300, "{protocol}: short run");
    content_hash(&out.cluster.db)
}

fn assert_post_run(load: fn(&mut Database) -> Box<dyn Workload>, pins: [u64; 3]) {
    let got = Protocol::ALL.map(|p| post_run_hash(p, load));
    assert_eq!(got, pins, "post-run content moved: {got:#X?}");
}

#[test]
fn tiny_tpcc_post_run_content_is_pinned() {
    assert_post_run(
        |db| Box::new(Tpcc::setup(db, TINY_TPCC)),
        [
            0x3840_2E91_0CEC_5A8B,
            0x14E2_8104_C68F_C46E,
            0xCDEC_09AB_AFB1_02A0,
        ],
    );
}

#[test]
fn tiny_ycsb_a_post_run_content_is_pinned() {
    assert_post_run(
        |db| Box::new(Ycsb::setup(db, tiny_ycsb_a())),
        [
            0xFB89_2C9D_84A3_A1A2,
            0x999B_1B7F_A942_DBFA,
            0x6C21_E634_91D2_21C4,
        ],
    );
}

#[test]
fn tiny_smallbank_post_run_content_is_pinned() {
    const BANK: SmallbankConfig = SmallbankConfig {
        accounts: 1_500,
        hotspot: None,
    };
    assert_post_run(
        |db| Box::new(Smallbank::setup(db, BANK)),
        [
            0x8D4E_9536_DE22_46EE,
            0x262D_AD9B_C586_F8F7,
            0x6EA4_AB0F_5FE2_964E,
        ],
    );
}

#[test]
fn tiny_tpcc_placement_is_pinned() {
    let mut db = Database::new(NODES);
    Tpcc::setup(&mut db, TINY_TPCC);
    assert_eq!(db.record_count(), 2 + 6 + 240 + 500 + 1000 + 150);
    assert_eq!(placement_hash(&db, 6), 0xAAA3_B8D9_40BA_4131);
}

#[test]
fn tiny_ycsb_a_placement_is_pinned() {
    let mut db = Database::new(NODES);
    Ycsb::setup(&mut db, tiny_ycsb_a());
    assert_eq!(db.record_count(), 3_000);
    assert_eq!(placement_hash(&db, 1), 0x9B82_2285_9158_04FF);
}
