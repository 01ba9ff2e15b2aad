//! Placement identity of the record store.
//!
//! Simulated timing depends on where each record lives (home node and
//! cache lines), how long its value is, and how many index steps a key
//! lookup takes. This test folds all of that, for tiny TPC-C and YCSB-A
//! loads, into one FNV-1a hash pinned to the value of the layout it was
//! written against. A storage refactor that moves a record, changes a
//! value length or alters a probe sequence changes the hash; one that only
//! changes the host representation leaves it alone.

use hades::sim::ids::NodeId;
use hades::storage::db::{Database, TableId};
use hades::storage::{IndexKind, RecordId};
use hades::workloads::tpcc::{Tpcc, TpccConfig};
use hades::workloads::ycsb::{Ycsb, YcsbConfig, YcsbVariant};

const NODES: usize = 5;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
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

#[test]
fn tiny_tpcc_placement_is_pinned() {
    let mut db = Database::new(NODES);
    Tpcc::setup(
        &mut db,
        TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 3,
            customers_per_district: 40,
            items: 500,
            order_slots_per_district: 25,
        },
    );
    assert_eq!(db.record_count(), 2 + 6 + 240 + 500 + 1000 + 150);
    assert_eq!(placement_hash(&db, 6), 0xAAA3_B8D9_40BA_4131);
}

#[test]
fn tiny_ycsb_a_placement_is_pinned() {
    let mut db = Database::new(NODES);
    let mut cfg = YcsbConfig::paper(IndexKind::HashTable, YcsbVariant::A);
    cfg.keys = 3_000;
    Ycsb::setup(&mut db, cfg);
    assert_eq!(db.record_count(), 3_000);
    assert_eq!(placement_hash(&db, 1), 0x9B82_2285_9158_04FF);
}
