//! The HADES protocol engine (Section V), with its two local paths.
//!
//! Remote accesses are tracked by Bloom filters in the home node's
//! SmartNIC (Module 4a) on both paths. Commit partially locks each
//! involved directory via Locking Buffers (Section V-B) and runs the
//! Intend-to-commit → Ack → Validation flow of Table II — one network
//! round trip on the critical path, with updates pushed one-way
//! afterwards. Only the tracking of *local* accesses differs:
//!
//! * [`LocalPath::Hardware`] — HADES (Section V-A). Local accesses are
//!   tracked at cache-line granularity by real Bloom filters beside the
//!   directory (Module 3) and `WrTX_ID` tags in the LLC (Module 2). L–L
//!   conflicts are detected *eagerly* at access time (the second accessor
//!   squashes itself); L–R and R–R conflicts *lazily* when the first
//!   transaction commits (the committer squashes the other). There are no
//!   record versions, no read/write-set software bookkeeping, no
//!   read-atomicity checks and no read-before-write fetches: exactly the
//!   rows of Table I.
//! * [`LocalPath::Software`] — HADES-H (Section V-D). Local operations
//!   stay in software, as in the baseline: records are fetched whole,
//!   checked for read atomicity, and tracked in read/write sets with Fig 1
//!   versions. Local conflicts are found by *Local Validation* —
//!   re-reading local record versions — after all Acks arrive. At commit
//!   the software passes its local record addresses to the NIC, which
//!   builds the equivalent of local read/write filters and locks the
//!   directory with them. Updates applied at a node bump the record
//!   version, which is what lets other local transactions' validation
//!   discover L–R conflicts.

use crate::engine::{self, Engine, Hooks};
use crate::runtime::{apply_write, owner_token, Cluster, ResolvedOp, WorkloadSet};
use crate::stats::{Phase, SquashReason};
use hades_bloom::{BloomFilter, DualWriteFilter, LockFailure, Signature};
use hades_fault::InjectedFault;
use hades_net::fabric::wire_size;
use hades_net::nic::RemoteTxKey;
use hades_sim::ids::{CoreId, NodeId, SlotId};
use hades_sim::time::Cycles;
use hades_storage::record::RecordId;
use hades_telemetry::event::{EventKind, Phase as TracePhase, RecoveryKind, Verb, NO_SLOT};
use hades_telemetry::profile::ProfPhase;
use std::collections::HashSet;

/// How an engine tracks its transactions' local accesses. Fixed when the
/// engine is built: `Protocol::Hades` runs [`Hardware`](Self::Hardware),
/// `Protocol::HadesH` runs [`Software`](Self::Software).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalPath {
    /// Module 1–3 filters and `WrTX_ID` tags (HADES).
    Hardware,
    /// Versioned software read/write sets and Local Validation (HADES-H).
    Software,
}

/// Hardware local-path state of one transaction (Modules 1–3).
#[derive(Debug)]
struct HwSets {
    /// Module 3: this transaction's local filters (real bit vectors).
    read_bf: BloomFilter,
    write_bf: DualWriteFilter,
    exact_reads: HashSet<u64>,
    exact_writes: HashSet<u64>,
    /// Module 1 filter bits: lines already recorded this transaction.
    recorded: HashSet<u64>,
}

/// Software local-path state of one transaction.
#[derive(Debug, Default)]
struct SwSets {
    /// Read set over *local* records: (rid, version at read).
    reads: Vec<(RecordId, u64)>,
    /// Write set over *local* records: (rid, version at fetch).
    writes: Vec<(RecordId, u64)>,
}

/// Per-slot local-access tracking, one variant per [`LocalPath`].
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // all slots of an engine share a variant
enum LocalSets {
    Hardware(HwSets),
    Software(SwSets),
}

impl LocalSets {
    fn clear(&mut self) {
        match self {
            LocalSets::Hardware(h) => {
                h.read_bf.clear();
                h.write_bf.clear();
                h.exact_reads.clear();
                h.exact_writes.clear();
                h.recorded.clear();
            }
            LocalSets::Software(s) => {
                s.reads.clear();
                s.writes.clear();
            }
        }
    }

    fn hw(&self) -> &HwSets {
        match self {
            LocalSets::Hardware(h) => h,
            LocalSets::Software(_) => unreachable!("hardware state on the software path"),
        }
    }

    fn hw_mut(&mut self) -> &mut HwSets {
        match self {
            LocalSets::Hardware(h) => h,
            LocalSets::Software(_) => unreachable!("hardware state on the software path"),
        }
    }

    fn sw(&self) -> &SwSets {
        match self {
            LocalSets::Software(s) => s,
            LocalSets::Hardware(_) => unreachable!("software state on the hardware path"),
        }
    }

    fn sw_mut(&mut self) -> &mut SwSets {
        match self {
            LocalSets::Software(s) => s,
            LocalSets::Hardware(_) => unreachable!("software state on the hardware path"),
        }
    }

    /// Whether committing `writes`/`reads` conflicts with this slot's
    /// exact local line sets (writes vs read∪write, reads vs write). The
    /// software path keeps no line sets: its transactions find such
    /// conflicts at their own Local Validation.
    fn conflicts_with(&self, writes: &[u64], reads: &[u64]) -> bool {
        match self {
            LocalSets::Hardware(h) => {
                writes
                    .iter()
                    .any(|l| h.exact_reads.contains(l) || h.exact_writes.contains(l))
                    || reads.iter().any(|l| h.exact_writes.contains(l))
            }
            LocalSets::Software(_) => false,
        }
    }
}

/// A commit's local footprint, as the local Locking Buffer takes it.
struct LocalLock {
    reads: Vec<u64>,
    writes: Vec<u64>,
    /// (read, write) signatures to install; `None` skips the lock attempt
    /// as if the bank were full.
    sigs: Option<(Signature, Signature)>,
    /// Core time to gather, lock and probe the footprint.
    cost: Cycles,
}

/// HADES's per-slot state.
#[derive(Debug)]
pub(crate) struct SlotState {
    /// Local-access tracking of the engine's [`LocalPath`].
    local: LocalSets,
    /// Remote lines already fetched and reusable locally.
    fetched: HashSet<u64>,
    /// Module 4b: remote writes grouped by home node + involved nodes.
    remote: hades_net::nic::TxRemoteTable,
    /// Commit Acks still awaited (nonzero only mid handshake).
    acks_outstanding: u32,
    /// Ack sequence ids already counted for this commit (duplicate
    /// deliveries under fault injection are ignored).
    acks_seen: Vec<u32>,
    /// When this commit's handshake started (lease-margin check under a
    /// crash plan).
    commit_start: Cycles,
    commit_failed: bool,
    holds_local_lock: bool,
    fallback_nodes: Vec<NodeId>,
    /// Remote replica nodes this commit shipped prepares to (Section V-A).
    replica_targets: Vec<NodeId>,
}

#[derive(Debug)]
pub(crate) enum Ev {
    ExecStage {
        si: usize,
        att: u32,
    },
    /// A local op ready to execute (possibly a retry after a Locking
    /// Buffer denial).
    LocalOp {
        si: usize,
        att: u32,
        op: ResolvedOp,
    },
    /// A remote request arrives at the home node's NIC.
    RemoteReq {
        si: usize,
        att: u32,
        op: ResolvedOp,
    },
    RemoteResp {
        si: usize,
        att: u32,
        lines: Vec<u64>,
    },
    OpDone {
        si: usize,
        att: u32,
    },
    BeginCommit {
        si: usize,
        att: u32,
    },
    /// Intend-to-commit arrives at a remote node. Carries the sender's
    /// configuration epoch so stale verbs from dead nodes are fenced.
    IntendArrive {
        si: usize,
        att: u32,
        node: NodeId,
        write_lines: Vec<u64>,
        ack_id: u32,
        ep: u64,
    },
    AckArrive {
        si: usize,
        att: u32,
        ok: bool,
        ack_id: u32,
        /// Participant that sent the Ack (epoch-fence identity).
        from: NodeId,
        /// Sender's configuration epoch at send time.
        ep: u64,
    },
    /// Validation + updates arrive at a remote node (one-way).
    ValidationArrive {
        node: NodeId,
        key: RemoteTxKey,
        ops: Vec<ResolvedOp>,
    },
    /// A squash request reaches the target's origin node.
    SquashArrive {
        si: usize,
        att: u32,
    },
    /// Clear a squashed transaction's state at a node it touched.
    ClearRemote {
        node: NodeId,
        key: RemoteTxKey,
    },
    /// Fallback: acquire the directory lock at the next involved node.
    FallbackLock {
        si: usize,
        att: u32,
    },
    /// Replica prepare (Section V-A): persist updates to temporary durable
    /// storage at a replica node, then Ack.
    ReplicaPrepare {
        si: usize,
        att: u32,
        node: NodeId,
        lines: usize,
        ack_id: u32,
    },
    /// Replica finalize: move the prepared update to permanent storage.
    ReplicaCommit {
        node: NodeId,
        key: RemoteTxKey,
    },
    /// Coordinator gives up on missing Acks (message-loss runs).
    CommitTimeout {
        si: usize,
        att: u32,
    },
    /// Periodic context switch on a core: clear the Module 1 filter bits
    /// of its slots without squashing their transactions (Section VI).
    ContextSwitch {
        node: NodeId,
        core: CoreId,
    },
    /// A participant lease expires: if the coordinator is crashed and its
    /// Locking Buffer is still held here, reclaim it.
    LeaseExpire {
        node: NodeId,
        key: RemoteTxKey,
    },
}

/// HADES's engine-wide state, on either [`LocalPath`].
#[derive(Debug)]
pub struct Hades {
    path: LocalPath,
    /// Remote transactions poisoned at a node by a committer's conflict
    /// detection (their Intend-to-commit must be NACKed).
    poisoned: Vec<HashSet<RemoteTxKey>>,
    local_probes: u64,
    local_fps: u64,
    /// Replica prepares pending finalize, per node (drain invariant).
    replica_pending: Vec<HashSet<RemoteTxKey>>,
    replica_persists: u64,
    /// Commits that were past the point of no return when their
    /// coordinator crashed (their effects are ledger-final); failover
    /// resolves straddling replica prepares against this set.
    durable_at_crash: HashSet<RemoteTxKey>,
}

/// The HADES protocol simulator, on either [`LocalPath`].
///
/// # Examples
///
/// ```no_run
/// use hades_core::hades::HadesSim;
/// use hades_core::runtime::{Cluster, WorkloadSet};
/// use hades_sim::config::SimConfig;
/// use hades_storage::db::Database;
/// use hades_workloads::catalog::AppId;
///
/// let cfg = SimConfig::isca_default();
/// let mut db = Database::new(cfg.shape.nodes);
/// let app = AppId::parse("TPC-C").unwrap().build(&mut db, 0.01);
/// let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
/// let stats = HadesSim::new(Cluster::new(cfg, db), ws, 100, 1_000).run();
/// println!("{:.0} txn/s", stats.throughput());
/// ```
pub type HadesSim = Engine<Hades>;

impl HadesSim {
    /// Builds a HADES run: `warmup` commits discarded, `measure` commits
    /// recorded.
    pub fn new(cl: Cluster, ws: WorkloadSet, warmup: u64, measure: u64) -> Self {
        Self::with_path(LocalPath::Hardware, cl, ws, warmup, measure)
    }

    /// Builds a run whose local accesses take `path`.
    pub(crate) fn with_path(
        path: LocalPath,
        cl: Cluster,
        ws: WorkloadSet,
        warmup: u64,
        measure: u64,
    ) -> Self {
        let nodes = cl.cfg.shape.nodes;
        let hades = Hades {
            path,
            poisoned: vec![HashSet::new(); nodes],
            local_probes: 0,
            local_fps: 0,
            replica_pending: vec![HashSet::new(); nodes],
            replica_persists: 0,
            durable_at_crash: HashSet::new(),
        };
        Engine::build(hades, cl, ws, warmup, measure)
    }

    /// Replica prepares still awaiting finalize at `node` (diagnostics).
    pub fn replica_pending_at(&self, node: NodeId) -> usize {
        self.p.replica_pending[node.0 as usize].len()
    }
}

impl Hooks for Hades {
    type Slot = SlotState;
    type Ev = Ev;

    const CRASHES_NEED_MEMBERSHIP: bool = false;
    const TIMEOUT_BACKOFF: bool = true;

    fn new_slot(&self, cl: &Cluster, node: usize) -> SlotState {
        let bloom = cl.cfg.bloom;
        SlotState {
            local: match self.path {
                LocalPath::Hardware => LocalSets::Hardware(HwSets {
                    read_bf: BloomFilter::new(bloom.core_read_bits, bloom.hashes),
                    write_bf: DualWriteFilter::new(
                        bloom.core_write_bf1_bits,
                        bloom.core_write_bf2_bits,
                        cl.mems[node].llc_sets(),
                    ),
                    exact_reads: HashSet::new(),
                    exact_writes: HashSet::new(),
                    recorded: HashSet::new(),
                }),
                LocalPath::Software => LocalSets::Software(SwSets::default()),
            },
            fetched: HashSet::new(),
            remote: hades_net::nic::TxRemoteTable::new(),
            acks_outstanding: 0,
            acks_seen: Vec::new(),
            commit_start: Cycles::ZERO,
            commit_failed: false,
            holds_local_lock: false,
            fallback_nodes: Vec::new(),
            replica_targets: Vec::new(),
        }
    }

    fn reset_slot(s: &mut SlotState) {
        s.local.clear();
        s.fetched.clear();
        s.remote.clear();
        s.acks_outstanding = 0;
        s.acks_seen.clear();
        s.commit_failed = false;
        s.holds_local_lock = false;
        s.fallback_nodes.clear();
        s.replica_targets.clear();
    }

    fn start_stagger(&self) -> u64 {
        match self.path {
            LocalPath::Hardware => 41,
            LocalPath::Software => 43,
        }
    }

    /// Context switches only clear Module 1 bits, which the software path
    /// does not have.
    fn schedule_run_start(e: &mut HadesSim) {
        let switches = match e.p.path {
            LocalPath::Hardware => e.cl.cfg.context_switch_interval,
            LocalPath::Software => None,
        };
        if let Some(interval) = switches {
            let shape = e.cl.cfg.shape;
            for n in 0..shape.nodes {
                for c in 0..shape.cores_per_node {
                    // Stagger cores so switches do not align cluster-wide.
                    let stagger = Cycles::new((n * shape.cores_per_node + c) as u64 * 97);
                    e.push(
                        interval + stagger,
                        Ev::ContextSwitch {
                            node: NodeId(n as u16),
                            core: CoreId(c as u16),
                        },
                    );
                }
            }
        }
    }

    fn handle(e: &mut HadesSim, ev: Ev) {
        e.handle(ev);
    }

    fn launch(e: &mut HadesSim, si: usize, att: u32, _now: Cycles, at: Cycles) {
        if e.slots[si].fallback {
            // Pessimistic mode: partially lock every involved directory
            // before executing (Section VI livelock avoidance).
            let txn = e.slots[si].txn.as_ref().expect("txn set");
            let mut nodes: Vec<NodeId> = txn.ops().map(|op| op.home).collect();
            nodes.sort_unstable();
            nodes.dedup();
            e.slots[si].p.fallback_nodes = nodes;
            e.push(at, Ev::FallbackLock { si, att });
        } else {
            e.push(at, Ev::ExecStage { si, att });
        }
    }

    fn release(e: &mut HadesSim, si: usize, now: Cycles) -> (Cycles, Cycles) {
        (now, e.release_state(si, now))
    }

    fn record_commit(e: &mut HadesSim, si: usize, now: Cycles) {
        let exec_end = e.slots[si].exec_end;
        e.meas
            .stats
            .phases
            .add(Phase::Validation, now.saturating_sub(exec_end));
    }

    /// Transactions past the point of no return have already applied
    /// their writes and shipped their Validations on the reliable
    /// transport; everything else simply vanishes — its footprint at
    /// other nodes is reclaimed by participant leases and the restart
    /// broadcast.
    fn crash_slot(e: &mut HadesSim, si: usize) {
        if e.slots[si].decided && e.cl.membership.enabled() {
            // Failover resolves straddling replica prepares of this
            // commit as committed (provably durable).
            let key = e.key_of(si);
            e.p.durable_at_crash.insert(key);
        }
        let nb = e.slots[si].node.0 as usize;
        let me = e.slots[si].slot;
        let token = e.token(si);
        e.cl.mems[nb].squash_slot(me);
        if e.slots[si].p.holds_local_lock {
            e.cl.lock_bufs[nb].unlock(token);
        }
    }

    fn restart(e: &mut HadesSim, node: NodeId, now: Cycles) {
        e.restart_node(node, now);
    }

    fn after_death(e: &mut HadesSim, dead: NodeId) {
        e.drain_replicas_of(dead);
    }

    /// Fence-then-flip. A live slot touching a moving partition squashes
    /// if it holds a directory lock at the source: its Intends are in
    /// flight (Acks outstanding) or its pessimistic fallback took a
    /// partial lock there. The squash's Clears route via the pre-cutover
    /// map and release the locks where they were taken. Every other live
    /// slot survives: it routes at commit time, and its NIC filter
    /// entries at the source travel with the cutover. Entries of slots
    /// whose release is already on the wire (decided Validations,
    /// squash Clears, a previous transaction's Validations) stay at the
    /// source for that release to find.
    fn cutover(e: &mut HadesSim, now: Cycles, moves: &[(NodeId, NodeId)]) {
        let mut carry: Vec<(NodeId, RemoteTxKey)> = Vec::new();
        let mut fenced = 0u64;
        for si in 0..e.slots.len() {
            let s = &e.slots[si];
            if s.txn.is_none() || s.awaiting_start || s.decided || !e.touches_moves(si, moves) {
                continue;
            }
            let (node, token) = (s.node, e.token(si));
            let locked_at_source = moves
                .iter()
                .any(|&(src, _)| src != node && e.cl.lock_bufs[src.0 as usize].holds(token));
            if s.p.acks_outstanding > 0 || locked_at_source {
                let verb = if s.p.acks_outstanding > 0 {
                    Verb::Intend
                } else {
                    Verb::Lock
                };
                e.fence_verb(node, verb);
                fenced += 1;
                e.squash(si, SquashReason::CommitTimeout);
                continue;
            }
            let homes = s.p.remote.nodes();
            let key = e.key_of(si);
            carry.extend(
                moves
                    .iter()
                    .filter(|(src, _)| homes.contains(src))
                    .map(|&(src, _)| (src, key)),
            );
        }
        e.cl.finish_cutover(now, &carry, fenced);
    }

    fn finish(e: &mut HadesSim) -> u64 {
        let stats = &mut e.meas.stats;
        let mut probes = e.p.local_probes;
        let mut fps = e.p.local_fps;
        for nic in &e.cl.nics {
            let (p, _h, f) = nic.probe_stats();
            probes += p;
            fps += f;
        }
        stats.conflict_checks = probes;
        stats.false_positive_conflicts = fps;
        stats.replica_persists = e.p.replica_persists;
        let leaked: u64 = e.p.replica_pending.iter().map(|p| p.len() as u64).sum();
        // Replica-drain invariant: every prepare is finalized, cleared,
        // lease-reclaimed, replayed at restart, or drained by failover.
        // The only sanctioned leak is a forever-crash with the membership
        // layer off — nobody is left to reconfigure around the dead node.
        let forever_crash =
            e.cl.fabric
                .injector()
                .crashes()
                .iter()
                .any(|c| c.is_forever());
        if !forever_crash || e.cl.membership.enabled() {
            assert_eq!(leaked, 0, "replica prepares leaked at run end");
        }
        leaked
    }
}

impl HadesSim {
    /// Whether the fault plan schedules node crashes (gates lease and
    /// restart machinery so crash-free runs stay on the fast path).
    fn crash_plan_active(&self) -> bool {
        self.cl.fabric.injector().plan().has_crashes()
    }

    /// Sends one Ack (loss-eligible) from `src` back to the coordinator;
    /// every delivered copy carries `ack_id` so duplicates are ignored.
    #[allow(clippy::too_many_arguments)] // one arg per wire field
    fn send_ack(
        &mut self,
        at: Cycles,
        src: NodeId,
        dst: NodeId,
        si: usize,
        att: u32,
        ok: bool,
        ack_id: u32,
    ) {
        let ep = self.cl.membership.epoch();
        for back in self
            .cl
            .send_faulty(at, src, dst, wire_size(0, 64), Verb::Ack)
        {
            self.push(
                back,
                Ev::AckArrive {
                    si,
                    att,
                    ok,
                    ack_id,
                    from: src,
                    ep,
                },
            );
        }
    }

    fn si_of(&self, node: NodeId, slot: SlotId) -> usize {
        node.0 as usize * self.cl.cfg.shape.slots_per_node() + slot.0 as usize
    }

    fn key_of(&self, si: usize) -> RemoteTxKey {
        RemoteTxKey {
            origin: self.slots[si].node,
            slot: self.slots[si].slot,
        }
    }

    /// Software validation for a degraded commit: the committed exact
    /// line lists against every active slot of node `nb` but `except`
    /// (writes vs read∪write, reads vs write). Exact sets, so no false
    /// positives.
    fn local_exact_validate(
        &self,
        nb: usize,
        except: Option<usize>,
        write_lines: &[u64],
        read_lines: &[u64],
    ) -> bool {
        let spn = self.cl.cfg.shape.slots_per_node();
        (nb * spn..(nb + 1) * spn).all(|j| {
            let s = &self.slots[j];
            Some(j) == except
                || s.txn.is_none()
                || !s.p.local.conflicts_with(write_lines, read_lines)
        })
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::ExecStage { si, att } if self.alive(si, att) => self.on_exec_stage(si, att),
            Ev::LocalOp { si, att, op } if self.alive(si, att) => self.on_local_op(si, att, op),
            Ev::RemoteReq { si, att, op } => self.on_remote_req(si, att, op),
            Ev::RemoteResp { si, att, lines } if self.alive(si, att) => {
                self.slots[si].p.fetched.extend(lines);
                self.on_op_done(si, att);
            }
            Ev::OpDone { si, att } if self.alive(si, att) => self.on_op_done(si, att),
            Ev::BeginCommit { si, att } if self.alive(si, att) => self.on_begin_commit(si, att),
            Ev::IntendArrive {
                si,
                att,
                node,
                write_lines,
                ack_id,
                ep,
            } => {
                // Epoch fence: an Intend stamped before its sender was
                // declared dead must not lock post-failover directories.
                let sender = self.slots[si].node;
                if self.cl.membership.should_fence(ep, sender) {
                    self.fence_verb(node, Verb::Intend);
                } else {
                    self.on_intend_arrive(si, att, node, write_lines, ack_id);
                }
            }
            Ev::AckArrive {
                si,
                att,
                ok,
                ack_id,
                from,
                ep,
            } => {
                if self.cl.membership.should_fence(ep, from) {
                    let at = self.slots[si].node;
                    self.fence_verb(at, Verb::Ack);
                } else if self.alive(si, att) {
                    self.on_ack(si, att, ok, ack_id);
                }
            }
            Ev::ValidationArrive { node, key, ops } => self.on_validation_arrive(node, key, ops),
            Ev::SquashArrive { si, att } => self.on_squash_arrive(si, att),
            Ev::ClearRemote { node, key } => {
                self.cl.nics[node.0 as usize].clear_remote_tx(key);
                self.cl.lock_bufs[node.0 as usize].unlock(owner_token(key.origin, key.slot));
                self.p.poisoned[node.0 as usize].remove(&key);
                self.p.replica_pending[node.0 as usize].remove(&key);
            }
            Ev::FallbackLock { si, att } if self.alive(si, att) => self.on_fallback_lock(si, att),
            Ev::ReplicaPrepare {
                si,
                att,
                node,
                lines,
                ack_id,
            } => self.on_replica_prepare(si, att, node, lines, ack_id),
            Ev::ReplicaCommit { node, key } => {
                self.p.replica_pending[node.0 as usize].remove(&key);
            }
            Ev::CommitTimeout { si, att } if self.alive(si, att) => {
                let s = &self.slots[si];
                if s.p.acks_outstanding > 0 && !s.decided {
                    self.squash(si, SquashReason::CommitTimeout);
                }
            }
            Ev::ContextSwitch { node, core } => self.on_context_switch(node, core),
            Ev::LeaseExpire { node, key } => self.on_lease_expire(node, key),
            _ => {}
        }
    }

    fn on_exec_stage(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        let stage_idx = self.slots[si].stage;
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let sw = self.cl.cfg.sw;
        let ops: Vec<ResolvedOp> =
            self.slots[si].txn.as_ref().expect("txn active").stages[stage_idx].clone();
        if ops.is_empty() {
            self.slots[si].outstanding = 1;
            self.push(now, Ev::OpDone { si, att });
            return;
        }
        self.slots[si].outstanding = ops.len() as u32;
        let mut cursor = now;
        for op in ops {
            // Index walk + application compute: fundamental, same as
            // Baseline.
            let index_cost = sw.index_per_level * op.depth as u64 + sw.app_per_request;
            // Routed placement: a partition promoted onto this node after
            // a failover is served on the local path (identity when the
            // membership layer is off).
            if self.cl.route(op.home) == node {
                cursor = self.cl.run_on_core(node, core, cursor, index_cost);
                self.push(cursor, Ev::LocalOp { si, att, op });
            } else {
                // Remote lines already fetched this transaction are reused
                // locally at L1 cost.
                let all_fetched = op
                    .read_lines
                    .iter()
                    .chain(&op.write_partial)
                    .all(|l| self.slots[si].p.fetched.contains(l));
                if all_fetched {
                    let reuse =
                        index_cost + self.cl.cfg.mem.l1_rt * op.read_lines.len().max(1) as u64;
                    cursor = self.cl.run_on_core(node, core, cursor, reuse);
                    self.note_remote_tracking(si, &op);
                    self.push(cursor, Ev::OpDone { si, att });
                } else {
                    let issue = index_cost + sw.rdma_issue;
                    cursor = self.cl.run_on_core(node, core, cursor, issue);
                    self.note_remote_tracking(si, &op);
                    let target = self.cl.route(op.home);
                    let arrive =
                        self.cl
                            .send_faulty_one(cursor, node, target, wire_size(0, 64), Verb::Read);
                    self.push(arrive, Ev::RemoteReq { si, att, op });
                    self.arm_fetch_timeout(si, att, stage_idx, cursor);
                }
            }
        }
    }

    fn note_remote_tracking(&mut self, si: usize, op: &ResolvedOp) {
        let s = &mut self.slots[si];
        if op.is_write() {
            s.p.remote.note_write(op.home, &op.write_lines);
        }
        if !op.read_lines.is_empty() {
            s.p.remote.note_read(op.home);
        }
    }

    /// The owner of a Locking Buffer at node `nb` that stalls `op`'s exact
    /// lines for the transaction `token` (Fig 7), if any.
    fn line_blocker(&self, nb: usize, token: u64, op: &ResolvedOp) -> Option<u64> {
        let bufs = &self.cl.lock_bufs[nb];
        op.read_lines
            .iter()
            .find_map(|&l| bufs.blocks_read(l).filter(|&o| o != token))
            .or_else(|| {
                op.write_lines
                    .iter()
                    .find_map(|&l| bufs.blocks_write_excluding(l, token))
            })
    }

    /// A local access (Table II, Local Read/Write). Locking Buffers of
    /// committing transactions stall it on both paths; retry until they
    /// unlock (Fig 7).
    fn on_local_op(&mut self, si: usize, att: u32, op: ResolvedOp) {
        let now = self.q.now();
        let nb = self.slots[si].node.0 as usize;
        let token = self.token(si);
        let blocked_by = match self.p.path {
            LocalPath::Hardware => self.line_blocker(nb, token, &op),
            // Software fetches whole records.
            LocalPath::Software => op.record_lines.iter().find_map(|&l| {
                if op.is_write() {
                    self.cl.lock_bufs[nb].blocks_write_excluding(l, token)
                } else {
                    self.cl.lock_bufs[nb].blocks_read(l).filter(|&o| o != token)
                }
            }),
        };
        if let Some(holder) = blocked_by {
            if self.cl.tracer.is_enabled() {
                self.trace(now, si, EventKind::LockStall { holder });
            }
            let retry = self.cl.cfg.retry.lock_retry;
            self.push(now + retry, Ev::LocalOp { si, att, op });
            return;
        }
        match self.p.path {
            LocalPath::Hardware => self.local_op_hw(si, att, op, now),
            LocalPath::Software => self.local_op_sw(si, att, op, now),
        }
    }

    /// Hardware local path: eager L–L detection against the `WrTX_ID`
    /// tags and the other local transactions' read filters, then tracking
    /// in Modules 1–3.
    fn local_op_hw(&mut self, si: usize, att: u32, op: ResolvedOp, now: Cycles) {
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let me = self.slots[si].slot;
        let bloom = self.cl.cfg.bloom;
        let nb = node.0 as usize;
        // Eager checks against the directory WrTX_ID tags.
        let lines: Vec<u64> = op
            .read_lines
            .iter()
            .chain(&op.write_lines)
            .copied()
            .collect();
        for &line in &lines {
            if let Some(owner) = self.cl.mems[nb].write_owner(line) {
                if owner != me {
                    self.squash(si, SquashReason::EagerLocal);
                    return;
                }
            }
        }
        // Writes additionally probe the other local transactions' read
        // filters.
        if op.is_write() {
            let spn = self.cl.cfg.shape.slots_per_node();
            for other in 0..spn {
                let osi = nb * spn + other;
                if osi == si || self.slots[osi].txn.is_none() {
                    continue;
                }
                self.p.local_probes += 1;
                let other = self.slots[osi].p.local.hw();
                if op.write_lines.iter().any(|&l| other.read_bf.contains(l)) {
                    let real = op
                        .write_lines
                        .iter()
                        .any(|&l| other.exact_reads.contains(&l));
                    if !real {
                        self.p.local_fps += 1;
                    }
                    self.squash(si, SquashReason::EagerLocal);
                    return;
                }
            }
        }
        // Survived: record the access. First touch of a line goes to the
        // directory (LLC RT); repeats are filtered by the Module 1 bits.
        let mut cost = Cycles::ZERO;
        let mut victims: Vec<SlotId> = Vec::new();
        let h = self.slots[si].p.local.hw_mut();
        for &line in &op.read_lines {
            if h.recorded.contains(&line) {
                cost += self.cl.cfg.mem.l1_rt;
                continue;
            }
            let (lat, ev) = self.cl.access_lines(node, core, &[line]);
            cost += lat.max(self.cl.cfg.mem.llc_rt) + bloom.bf_op;
            victims.extend(ev);
            h.read_bf.insert(line);
            h.exact_reads.insert(line);
            h.recorded.insert(line);
        }
        for &line in &op.write_lines {
            if h.exact_writes.contains(&line) {
                cost += self.cl.cfg.mem.l1_rt;
                continue;
            }
            let evs = self.cl.mems[nb].tag_write(line, me);
            victims.extend(evs);
            cost += self.cl.cfg.mem.llc_rt + bloom.bf_op + bloom.crc;
            h.write_bf.insert(line);
            h.exact_writes.insert(line);
            h.recorded.insert(line);
        }
        for v in victims {
            let vsi = self.si_of(node, v);
            if vsi != si && self.slots[vsi].txn.is_some() && !self.slots[vsi].decided {
                self.squash(vsi, SquashReason::LlcEviction);
            }
        }
        if !self.alive(si, att) {
            return; // the eviction cascade squashed us
        }
        let done = self.cl.run_on_core(node, core, now, cost);
        self.push(done, Ev::OpDone { si, att });
    }

    /// Software local path: fetch the whole record, check atomicity, track
    /// in read/write sets with versions — exactly like the baseline.
    fn local_op_sw(&mut self, si: usize, att: u32, op: ResolvedOp, now: Cycles) {
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let sw = self.cl.cfg.sw;
        let (mem_lat, _evicted) = self.cl.access_lines(node, core, &op.record_lines);
        let nlines = op.record_lines.len() as u64;
        let atomicity = (sw.atomicity_check_per_line + sw.atomicity_copy_per_line) * nlines;
        let set_cost = if op.is_write() {
            sw.wset_insert + sw.set_copy_per_line * nlines
        } else {
            sw.rset_insert
        };
        let v = self.cl.db.record(op.rid).version();
        let sets = self.slots[si].p.local.sw_mut();
        let set = if op.is_write() {
            &mut sets.writes
        } else {
            &mut sets.reads
        };
        if !set.iter().any(|(r, _)| *r == op.rid) {
            set.push((op.rid, v));
        }
        let done = self
            .cl
            .run_on_core(node, core, now, mem_lat + atomicity + set_cost);
        self.push(done, Ev::OpDone { si, att });
    }

    /// A remote access serviced at the home node's NIC (Table II, Remote
    /// Read/Write).
    fn on_remote_req(&mut self, si: usize, att: u32, op: ResolvedOp) {
        let now = self.q.now();
        if !self.alive(si, att) {
            return;
        }
        // Route at arrival: after a failover the promoted primary
        // services the partition (identity when membership is off).
        let home = self.cl.route(op.home);
        let nb = home.0 as usize;
        if self.crashed[nb] {
            // The home node is down: the RDMA read blocks until it
            // restarts and the NIC comes back. A forever-dead home drops
            // the request — the coordinator's fetch timeout cleans up.
            if let Some(r) = self.restart_at[nb] {
                self.push(r, Ev::RemoteReq { si, att, op });
            }
            return;
        }
        let origin = self.slots[si].node;
        let key = RemoteTxKey {
            origin,
            slot: self.slots[si].slot,
        };
        // Committing transactions' Locking Buffers stall this access.
        let token = owner_token(key.origin, key.slot);
        if let Some(holder) = self.line_blocker(nb, token, &op) {
            self.cl
                .tracer
                .emit(now, home.0, NO_SLOT, EventKind::LockStall { holder });
            let retry = self.cl.cfg.retry.lock_retry;
            self.push(now + retry, Ev::RemoteReq { si, att, op });
            return;
        }
        let bloom = self.cl.cfg.bloom;
        let mut svc = Cycles::ZERO;
        let mut fetch_lines: Vec<u64> = Vec::new();
        if !op.read_lines.is_empty() {
            self.cl.nics[nb].record_remote_read(now, key, &op.read_lines);
            svc += bloom.bf_op * op.read_lines.len() as u64;
            fetch_lines.extend(&op.read_lines);
        }
        if op.is_write() {
            // Only partially written lines are recorded at access time and
            // fetched; fully overwritten lines are neither (Table II).
            self.cl.nics[nb].record_remote_write(now, key, &op.write_partial);
            svc += bloom.bf_op * op.write_partial.len().max(1) as u64;
            fetch_lines.extend(&op.write_partial);
        }
        fetch_lines.sort_unstable();
        fetch_lines.dedup();
        let (mem_lat, victims) = self.cl.access_lines_nic(home, &fetch_lines);
        svc += mem_lat;
        for v in victims {
            let vsi = self.si_of(home, v);
            if self.slots[vsi].txn.is_some() && !self.slots[vsi].decided {
                self.squash(vsi, SquashReason::LlcEviction);
            }
        }
        let back = if home == origin {
            // Reconfiguration promoted the partition onto the requester
            // itself while the request was in flight: the response
            // needs no fabric hop.
            now + svc
        } else {
            self.cl.send_faulty_one(
                now + svc,
                home,
                origin,
                wire_size(fetch_lines.len(), 64),
                Verb::ReadResp,
            )
        };
        self.push(
            back,
            Ev::RemoteResp {
                si,
                att,
                lines: fetch_lines,
            },
        );
    }

    fn on_op_done(&mut self, si: usize, att: u32) {
        let s = &mut self.slots[si];
        debug_assert!(s.outstanding > 0);
        s.outstanding -= 1;
        if s.outstanding > 0 {
            return;
        }
        let stages = s.txn.as_ref().expect("txn active").stages.len();
        let now = self.q.now();
        if s.stage + 1 < stages {
            s.stage += 1;
            self.push(now, Ev::ExecStage { si, att });
        } else {
            self.push(now, Ev::BeginCommit { si, att });
        }
    }

    /// Commit at the local node (Table II, "Transaction Commit, at Local
    /// Node x", steps 1–3).
    fn on_begin_commit(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        // Epoch straddle: the footprint may reference the dead node's
        // directories, so resolve it as an abort and retry on the new
        // epoch (routing is re-evaluated at restart).
        if self.straddles_death(si) {
            self.squash(si, SquashReason::CommitTimeout);
            return;
        }
        // Self-fence (DESIGN.md §16): a coordinator that could not renew
        // its own lease must assume it has been partitioned away and
        // refuse the handshake — the cluster may already have promoted
        // its backups.
        if self.cl.self_fence_check(now, self.slots[si].node) {
            self.squash(si, SquashReason::SelfFenced);
            return;
        }
        self.slots[si].exec_end = now;
        self.cl.obs_enter(si, ProfPhase::Lock, now);
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseEnd(TracePhase::Exec));
            self.trace(now, si, EventKind::PhaseBegin(TracePhase::Commit));
        }
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let nb = node.0 as usize;
        let token = self.token(si);
        if self.slots[si].fallback {
            // Locks were taken up front; jump straight to the finish.
            self.finish_commit(si, att, now);
            return;
        }
        // Step 1: partially lock the local directory.
        let fp = match self.p.path {
            LocalPath::Hardware => self.local_lock_hw(si),
            LocalPath::Software => self.local_lock_sw(si),
        };
        let lock_result = match fp.sigs {
            None => Err(LockFailure::NoFreeBuffer),
            Some((rd, wr)) => {
                self.cl.lock_bufs[nb].try_lock_at(now, token, rd, wr, &fp.writes, &fp.reads)
            }
        };
        match lock_result {
            Ok(()) => self.slots[si].p.holds_local_lock = true,
            Err(LockFailure::NoFreeBuffer) if self.cl.cfg.overload.degrade_on_saturation => {
                // Saturation fallback: commit without holding a buffer if
                // the exact sets validate in software against every
                // concurrent transaction — local slots and remote
                // transactions at our NIC. The software path validates its
                // local footprint at Local Validation (Section V-D) anyway.
                let sw_ok = self.p.path == LocalPath::Software
                    || (self.local_exact_validate(nb, Some(si), &fp.writes, &fp.reads)
                        && self.cl.nics[nb].exact_validate(
                            &fp.writes,
                            &fp.reads,
                            Some(self.key_of(si)),
                        ));
                if !sw_ok {
                    self.squash(si, SquashReason::ValidationFailed);
                    return;
                }
                if self.cl.tracer.is_enabled() {
                    self.trace(now, si, EventKind::DegradedCommit);
                }
                if self.meas.measuring() && !self.draining {
                    self.meas.stats.overload.degraded_commits += 1;
                }
                self.cl.obs_degrade(now);
            }
            Err(_) => {
                self.squash(si, SquashReason::LockFailed);
                return;
            }
        }
        // Step 2: detect conflicts between our local writes and remote
        // transactions registered at our NIC; squash them.
        let exclude = Some(self.key_of(si));
        let conflicts = self.cl.nics[nb].probe_writes_against(now, &fp.writes, exclude);
        let mut cursor = self.cl.run_on_core(node, core, now, fp.cost);
        for c in conflicts {
            self.poison_and_squash_remote(node, c.with, cursor);
        }
        // Step 3: Intend-to-commit to every involved remote node, plus
        // replica prepares (Section V-A) when replication is on. Logical
        // homes are routed to their current primaries; two partitions
        // promoted onto one physical node share a single Intend (their
        // NIC filter state already lives merged at that node).
        let mut intend_targets: Vec<(NodeId, Vec<u64>)> = Vec::new();
        for dst in self.slots[si].p.remote.nodes() {
            let phys = self.cl.route(dst);
            if phys == node {
                // Promoted onto us mid-epoch: unreachable past the
                // straddle check above, but harmless — the lines were
                // validated by the local directory lock.
                continue;
            }
            let writes = self.slots[si].p.remote.writes_at(dst);
            match intend_targets.iter_mut().find(|(p, _)| *p == phys) {
                Some(e) => {
                    e.1.extend(writes);
                    e.1.sort_unstable();
                    e.1.dedup();
                }
                None => intend_targets.push((phys, writes)),
            }
        }
        // Replica targets: the ring successors of every written record's
        // home. The origin node persists its replicas locally.
        let mut repl_remote: Vec<NodeId> = Vec::new();
        let mut local_persists = 0u64;
        if self.cl.cfg.repl.degree > 0 {
            let txn = self.slots[si].txn.as_ref().expect("txn active");
            let mut targets: Vec<NodeId> = txn
                .ops()
                .filter(|o| o.is_write())
                .flat_map(|o| self.cl.replica_nodes(o.home))
                .collect();
            targets.sort_unstable();
            targets.dedup();
            for t in targets {
                if t == node {
                    local_persists += 1;
                } else {
                    repl_remote.push(t);
                }
            }
        }
        if local_persists > 0 {
            self.p.replica_persists += local_persists;
            cursor = self
                .cl
                .run_on_core(node, core, cursor, self.cl.cfg.repl.persist_latency);
        }
        self.slots[si].p.replica_targets = repl_remote.clone();
        if intend_targets.is_empty() && repl_remote.is_empty() {
            self.decide(si, att, cursor);
            return;
        }
        self.slots[si].p.acks_outstanding = (intend_targets.len() + repl_remote.len()) as u32;
        self.slots[si].p.acks_seen.clear();
        self.slots[si].p.commit_start = cursor;
        // Attribute the ack-wait window to Replication when replica
        // prepares are in flight (they dominate the fan-out), else Commit.
        let ph = if repl_remote.is_empty() {
            ProfPhase::Commit
        } else {
            ProfPhase::Replication
        };
        self.cl.obs_enter(si, ph, cursor);
        self.cl
            .obs_round_begin(si, Verb::Intend, intend_targets.len() as u32, cursor);
        self.cl
            .obs_round_begin(si, Verb::ReplicaPrepare, repl_remote.len() as u32, cursor);
        let ep = self.cl.membership.epoch();
        let mut ack_id: u32 = 0;
        for (dst, writes) in intend_targets {
            let bytes = wire_size(0, 64) + writes.len() * 8;
            cursor = self.cl.run_on_core(node, core, cursor, Cycles::new(20));
            let id = ack_id;
            ack_id += 1;
            for arrive in self.cl.send_faulty(cursor, node, dst, bytes, Verb::Intend) {
                self.push(
                    arrive,
                    Ev::IntendArrive {
                        si,
                        att,
                        node: dst,
                        write_lines: writes.clone(),
                        ack_id: id,
                        ep,
                    },
                );
            }
        }
        for dst in repl_remote {
            let txn = self.slots[si].txn.as_ref().expect("txn active");
            let lines: usize = txn
                .ops()
                .filter(|o| o.is_write() && self.cl.replica_nodes(o.home).contains(&dst))
                .map(|o| o.write_lines.len())
                .sum();
            let bytes = wire_size(lines, 64);
            cursor = self.cl.run_on_core(node, core, cursor, Cycles::new(20));
            let id = ack_id;
            ack_id += 1;
            for arrive in self
                .cl
                .send_faulty(cursor, node, dst, bytes, Verb::ReplicaPrepare)
            {
                self.push(
                    arrive,
                    Ev::ReplicaPrepare {
                        si,
                        att,
                        node: dst,
                        lines,
                        ack_id: id,
                    },
                );
            }
        }
        // Messages (or their Acks) may be lost or delayed: arm the commit
        // timeout whenever a fault plan is live.
        if self.cl.injector_active() {
            let deadline = cursor + self.cl.cfg.repl.ack_timeout;
            self.push(deadline, Ev::CommitTimeout { si, att });
        }
    }

    /// The hardware local footprint: the `WrTX_ID`-tagged lines and the
    /// Module 3 filters.
    fn local_lock_hw(&mut self, si: usize) -> LocalLock {
        let nb = self.slots[si].node.0 as usize;
        let me = self.slots[si].slot;
        let bloom = self.cl.cfg.bloom;
        let overload = &self.cl.cfg.overload;
        let h = self.slots[si].p.local.hw();
        // A saturated read filter makes the hardware check uninformative
        // (its FP rate explodes), so with the overload layer on we go
        // straight to the software path instead of installing a useless
        // signature.
        let saturated = overload.degrade_on_saturation
            && h.read_bf.occupancy() >= overload.bf_occupancy_threshold;
        let sigs = (!saturated).then(|| {
            (
                Signature::Conventional(h.read_bf.clone()),
                Signature::Dual(h.write_bf.clone()),
            )
        });
        let writes = self.cl.mems[nb].lines_tagged(me);
        let mut reads: Vec<u64> = h.exact_reads.iter().copied().collect();
        reads.sort_unstable();
        // Find-LLC-Tags, the buffer load, then one NIC probe per write.
        let cost = self.cl.find_tags_latency()
            + bloom.lock_buffer_load
            + bloom.bf_op * writes.len().max(1) as u64;
        LocalLock {
            reads,
            writes,
            sigs,
            cost,
        }
    }

    /// The software local footprint: software passes its local record
    /// addresses to the NIC (per-record cost), which builds the
    /// equivalent LocalRead/WriteBFs.
    fn local_lock_sw(&mut self, si: usize) -> LocalLock {
        let (reads, writes) = self.footprint_at(si, self.slots[si].node);
        let bloom = self.cl.cfg.bloom;
        let sets = self.slots[si].p.local.sw();
        let n_local = sets.reads.len() + sets.writes.len();
        let pass_cost = self.cl.cfg.sw.rdma_issue + Cycles::new(10) * n_local as u64;
        let build_cost = bloom.bf_op * (reads.len() + writes.len()).max(1) as u64;
        let (rd, wr) = self.nic_filters(&reads, &writes);
        LocalLock {
            reads,
            writes,
            sigs: Some((Signature::Conventional(rd), Signature::Conventional(wr))),
            cost: pass_cost + build_cost + bloom.lock_buffer_load,
        }
    }

    /// The lines of `si`'s ops homed at `home`, split (reads, writes),
    /// sorted and deduplicated: exact lines on the hardware path, whole
    /// records on the software path.
    fn footprint_at(&self, si: usize, home: NodeId) -> (Vec<u64>, Vec<u64>) {
        let txn = self.slots[si].txn.as_ref().expect("txn active");
        let mut reads: Vec<u64> = Vec::new();
        let mut writes: Vec<u64> = Vec::new();
        for op in txn.ops().filter(|o| o.home == home) {
            match self.p.path {
                LocalPath::Hardware => {
                    reads.extend(&op.read_lines);
                    writes.extend(&op.write_lines);
                }
                LocalPath::Software if op.is_write() => writes.extend(&op.record_lines),
                LocalPath::Software => reads.extend(&op.record_lines),
            }
        }
        reads.sort_unstable();
        reads.dedup();
        writes.sort_unstable();
        writes.dedup();
        (reads, writes)
    }

    /// NIC-sized (read, write) Bloom filters over `reads` and `writes`.
    fn nic_filters(&self, reads: &[u64], writes: &[u64]) -> (BloomFilter, BloomFilter) {
        let bloom = self.cl.cfg.bloom;
        let mut rd = BloomFilter::new(bloom.nic_read_bits, bloom.hashes);
        let mut wr = BloomFilter::new(bloom.nic_write_bits, bloom.hashes);
        for &l in reads {
            rd.insert(l);
        }
        for &l in writes {
            wr.insert(l);
        }
        (rd, wr)
    }

    /// Replica prepare at a replica node: persist to temporary durable
    /// storage, then Ack (Section V-A). Under fault injection the persist
    /// itself may fail, in which case the replica NACKs and the
    /// coordinator aborts and retries.
    fn on_replica_prepare(
        &mut self,
        si: usize,
        att: u32,
        node: NodeId,
        _lines: usize,
        ack_id: u32,
    ) {
        let now = self.q.now();
        if !self.alive(si, att) || self.crashed[node.0 as usize] {
            return;
        }
        let key = self.key_of(si);
        if self.cl.fabric.injector_mut().persist_fails(now) {
            if self.cl.tracer.is_enabled() {
                self.cl.tracer.emit(
                    now,
                    node.0,
                    NO_SLOT,
                    EventKind::FaultInjected {
                        fault: InjectedFault::PersistFail,
                    },
                );
            }
            self.send_replica_ack(now, node, key.origin, si, att, false, ack_id);
            return;
        }
        self.p.replica_pending[node.0 as usize].insert(key);
        self.p.replica_persists += 1;
        let ready = now + self.cl.cfg.repl.persist_latency;
        self.send_replica_ack(ready, node, key.origin, si, att, true, ack_id);
    }

    /// Sends one ReplicaAck (loss-eligible) back to the coordinator.
    #[allow(clippy::too_many_arguments)] // one arg per wire field
    fn send_replica_ack(
        &mut self,
        at: Cycles,
        src: NodeId,
        dst: NodeId,
        si: usize,
        att: u32,
        ok: bool,
        ack_id: u32,
    ) {
        let ep = self.cl.membership.epoch();
        for back in self
            .cl
            .send_faulty(at, src, dst, wire_size(0, 64), Verb::ReplicaAck)
        {
            self.push(
                back,
                Ev::AckArrive {
                    si,
                    att,
                    ok,
                    ack_id,
                    from: src,
                    ep,
                },
            );
        }
    }

    /// Poison a remote transaction's state at `node` and notify its origin.
    fn poison_and_squash_remote(&mut self, node: NodeId, key: RemoteTxKey, now: Cycles) {
        let nb = node.0 as usize;
        self.cl.nics[nb].clear_remote_tx(key);
        self.p.poisoned[nb].insert(key);
        let vsi = self.si_of(key.origin, key.slot);
        let att = self.slots[vsi].attempt;
        self.cl.obs_abort_source(vsi, node.0);
        if key.origin == node {
            // A promoted partition serviced in place: the "remote"
            // transaction is the node's own, so the squash notification
            // needs no fabric hop.
            self.push(now, Ev::SquashArrive { si: vsi, att });
            return;
        }
        let arrive = self
            .cl
            .send_faulty_one(now, node, key.origin, wire_size(0, 64), Verb::Squash);
        self.push(arrive, Ev::SquashArrive { si: vsi, att });
    }

    /// Intend-to-commit processing at remote node `y` (Table II, steps
    /// 1–3 at the remote node).
    fn on_intend_arrive(
        &mut self,
        si: usize,
        att: u32,
        node: NodeId,
        write_lines: Vec<u64>,
        ack_id: u32,
    ) {
        let now = self.q.now();
        if !self.alive(si, att) || self.crashed[node.0 as usize] {
            // A crashed participant stays silent; the coordinator's
            // commit timeout turns the missing Ack into a clean abort.
            return;
        }
        let nb = node.0 as usize;
        let key = self.key_of(si);
        let origin = key.origin;
        let bloom = self.cl.cfg.bloom;
        // A committer already poisoned us here: NACK.
        if self.p.poisoned[nb].contains(&key) {
            self.send_ack(now, node, origin, si, att, false, ack_id);
            return;
        }
        let token = owner_token(key.origin, key.slot);
        // Duplicate delivery: the first copy already locked this
        // directory, so just re-Ack (the coordinator deduplicates by
        // `ack_id`).
        if self.cl.injector_active() && self.cl.lock_bufs[nb].holds(token) {
            self.send_ack(now, node, origin, si, att, true, ack_id);
            return;
        }
        // Step 1: partially lock y's directory with our NIC filters.
        let (rd, wr) = self.cl.nics[nb].filters_for_locking(key);
        let read_lines = self.cl.nics[nb].exact_reads(key);
        let lock = self.cl.lock_bufs[nb].try_lock_at(
            now,
            token,
            Signature::Conventional(rd),
            Signature::Conventional(wr),
            &write_lines,
            &read_lines,
        );
        if let Err(fail) = lock {
            // Saturation fallback at the participant: a full bank (not a
            // conflict) degrades to NIC-side software validation of the
            // exact sets; a clean check Acks without holding a buffer.
            let degraded_ok = self.cl.cfg.overload.degrade_on_saturation
                && fail == LockFailure::NoFreeBuffer
                && self.cl.nics[nb].exact_validate(&write_lines, &read_lines, Some(key))
                && self.local_exact_validate(nb, None, &write_lines, &read_lines);
            if !degraded_ok {
                self.send_ack(now, node, origin, si, att, false, ack_id);
                return;
            }
            if self.cl.tracer.is_enabled() {
                self.cl
                    .tracer
                    .emit(now, node.0, NO_SLOT, EventKind::DegradedCommit);
            }
            if self.meas.measuring() && !self.draining {
                self.meas.stats.overload.degraded_commits += 1;
            }
            self.cl.obs_degrade(now);
        }
        // Participant lease (crash plans only): if the coordinator dies
        // holding this Locking Buffer, reclaim it when the lease runs out.
        if self.crash_plan_active() {
            let lease = self.cl.fabric.injector().lease();
            self.push(now + lease, Ev::LeaseExpire { node, key });
        }
        // Step 2: conflicts between our writes and (i) other remote
        // transactions at y, (ii) on the hardware path, local transactions
        // of y. Software-path local transactions discover the conflict at
        // their own Local Validation instead (Section V-D).
        let mut svc = bloom.lock_buffer_load + bloom.bf_op * write_lines.len().max(1) as u64;
        let conflicts = self.cl.nics[nb].probe_writes_against(now, &write_lines, Some(key));
        for c in conflicts {
            self.poison_and_squash_remote(node, c.with, now);
        }
        if self.p.path == LocalPath::Hardware {
            svc += self.squash_local_conflicts(nb, origin, &write_lines);
        }
        // Step 3: Ack (loss-eligible: a dropped Ack aborts via timeout).
        self.send_ack(now + svc, node, origin, si, att, true, ack_id);
    }

    /// Squashes the local transactions of node `nb` whose Module 3 filters
    /// hit a remote committer's `write_lines`; returns the probe time.
    fn squash_local_conflicts(&mut self, nb: usize, origin: NodeId, write_lines: &[u64]) -> Cycles {
        let spn = self.cl.cfg.shape.slots_per_node();
        let mut local_victims: Vec<usize> = Vec::new();
        for osi in nb * spn..(nb + 1) * spn {
            if self.slots[osi].txn.is_none() || self.slots[osi].decided {
                continue;
            }
            self.p.local_probes += 1;
            let h = self.slots[osi].p.local.hw();
            if write_lines
                .iter()
                .any(|&l| h.read_bf.contains(l) || h.write_bf.contains(l))
            {
                if !self.slots[osi].p.local.conflicts_with(write_lines, &[]) {
                    self.p.local_fps += 1;
                }
                local_victims.push(osi);
            }
        }
        for vsi in local_victims {
            self.cl.obs_abort_source(vsi, origin.0);
            self.squash(vsi, SquashReason::LazyConflict);
        }
        self.cl.cfg.bloom.bf_op * spn as u64
    }

    fn on_ack(&mut self, si: usize, att: u32, ok: bool, ack_id: u32) {
        if self.slots[si].p.acks_seen.contains(&ack_id) {
            return; // duplicate delivery of an already-counted Ack
        }
        self.slots[si].p.acks_seen.push(ack_id);
        if !ok {
            self.slots[si].p.commit_failed = true;
        }
        let s = &mut self.slots[si];
        debug_assert!(s.p.acks_outstanding > 0);
        s.p.acks_outstanding -= 1;
        if s.p.acks_outstanding > 0 {
            return;
        }
        let now = self.q.now();
        self.cl.obs_round_end(si, now);
        if self.slots[si].p.commit_failed {
            self.squash(si, SquashReason::LockFailed);
            return;
        }
        // Lease margin (crash plans only): if the handshake dragged past
        // half the lease, participants may already be reclaiming our
        // locks — abort instead of committing on possibly-stale grants.
        if self.crash_plan_active() {
            let lease = self.cl.fabric.injector().lease();
            if now > self.slots[si].p.commit_start + Cycles::new(lease.get() / 2) {
                self.squash(si, SquashReason::CommitTimeout);
                return;
            }
        }
        // All Acks received.
        self.decide(si, att, now);
    }

    /// Every Ack is in: the hardware path is past the point of no return
    /// (Table II); the software path must first pass Local Validation.
    fn decide(&mut self, si: usize, att: u32, now: Cycles) {
        match self.p.path {
            LocalPath::Hardware => self.finish_commit(si, att, now),
            LocalPath::Software => self.local_validation(si, att, now),
        }
    }

    /// Local Validation: re-read every local record in the read and write
    /// sets and compare versions (Section V-D).
    fn local_validation(&mut self, si: usize, att: u32, now: Cycles) {
        self.cl.obs_enter(si, ProfPhase::Validate, now);
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseBegin(TracePhase::Validate));
        }
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let sw = self.cl.cfg.sw;
        let sets = self.slots[si].p.local.sw();
        let entries: Vec<(RecordId, u64)> =
            sets.reads.iter().chain(&sets.writes).copied().collect();
        let mut cost = Cycles::ZERO;
        let mut ok = true;
        for (rid, v) in entries {
            cost += sw.validate_per_record;
            let first_line = [self.cl.db.record(rid).lines().next().expect("record")];
            let (lat, _) = self.cl.access_lines(node, core, &first_line);
            cost += lat;
            if self.cl.db.record(rid).version() != v {
                ok = false;
            }
        }
        let done = self.cl.run_on_core(node, core, now, cost);
        if self.cl.tracer.is_enabled() {
            self.trace(done, si, EventKind::PhaseEnd(TracePhase::Validate));
        }
        if !ok {
            self.squash(si, SquashReason::ValidationFailed);
            return;
        }
        self.finish_commit(si, att, done);
    }

    /// Steps 4–6 at the local node: clear speculative state, push
    /// Validation + updates, unlock.
    fn finish_commit(&mut self, si: usize, att: u32, now: Cycles) {
        self.cl.obs_enter(si, ProfPhase::Commit, now);
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        // Re-check the fence at the decide point: the membership tick can
        // excommunicate this node between commit entry and here (the slot
        // is still squashable — `decided` is only set below).
        if self.cl.self_fence_check(now, node) {
            self.squash(si, SquashReason::SelfFenced);
            return;
        }
        self.cl.note_commit_guard(node);
        let nb = node.0 as usize;
        let token = self.token(si);
        let me = self.slots[si].slot;
        self.slots[si].decided = true;
        let sw_path = self.p.path == LocalPath::Software;
        let mut cost = Cycles::ZERO;
        if !sw_path {
            // Step 4: clear local WrTX_ID tags (data becomes architectural).
            self.cl.mems[nb].commit_slot(me);
            cost = self.cl.find_tags_latency();
        }
        // Apply local writes to the database: no extra latency on the
        // hardware path (the data already lives in the LLC); the software
        // path merges its write set record by record. Partitions promoted
        // onto this node count as local under the routed placement.
        // Conversely, an op that was local at execute time stays local
        // even if a planned cutover has since repointed its partition: the
        // Validation fan-out below covers only the exec-time remote
        // footprint, so it must be applied here.
        let txn = self.slots[si].txn.as_ref().expect("txn active").clone();
        let remote_homes = self.slots[si].p.remote.nodes();
        let local_ops: Vec<ResolvedOp> = txn
            .ops()
            .filter(|o| {
                o.is_write() && (self.cl.route(o.home) == node || !remote_homes.contains(&o.home))
            })
            .cloned()
            .collect();
        let mut bumped: Vec<RecordId> = Vec::new();
        for op in &local_ops {
            if sw_path {
                let sw = self.cl.cfg.sw;
                let (lat, _) = self.cl.access_lines(node, core, &op.write_lines);
                cost += sw.wset_commit_per_record + sw.version_update + lat;
            }
            self.apply(op, now, &mut bumped);
        }
        // Step 5: Validation + updates to every involved node (one-way,
        // reliable transport: injected drops surface as retransmission
        // latency, never as loss). Logical homes sharing a promoted
        // primary share one Validation.
        let mut val_targets: Vec<(NodeId, Vec<ResolvedOp>)> = Vec::new();
        for dst in self.slots[si].p.remote.nodes() {
            let phys = self.cl.route(dst);
            if phys == node {
                // The partition moved onto us after exec: its writes were
                // applied above; release our filter entry here, as the
                // Validation would have at the old primary.
                let key = self.key_of(si);
                self.cl.nics[nb].clear_remote_tx(key);
                self.p.poisoned[nb].remove(&key);
                continue;
            }
            let ops: Vec<ResolvedOp> = txn
                .ops()
                .filter(|o| o.is_write() && o.home == dst)
                .cloned()
                .collect();
            match val_targets.iter_mut().find(|(p, _)| *p == phys) {
                Some(e) => e.1.extend(ops),
                None => val_targets.push((phys, ops)),
            }
        }
        let mut cursor = self.cl.run_on_core(node, core, now, cost);
        let mut last_arrival = cursor;
        for (dst, ops) in val_targets {
            let lines: usize = ops.iter().map(|o| o.write_lines.len()).sum();
            let arrive =
                self.cl
                    .send_faulty_one(cursor, node, dst, wire_size(lines, 64), Verb::Validation);
            last_arrival = last_arrival.max(arrive);
            let key = self.key_of(si);
            self.push(
                arrive,
                Ev::ValidationArrive {
                    node: dst,
                    key,
                    ops,
                },
            );
        }
        // Replica finalize: move prepared updates to permanent storage
        // (reliable transport, like Validation).
        let key = self.key_of(si);
        for dst in self.slots[si].p.replica_targets.clone() {
            let arrive = self
                .cl
                .send_faulty_one(cursor, node, dst, wire_size(0, 64), Verb::Clear);
            last_arrival = last_arrival.max(arrive);
            self.push(arrive, Ev::ReplicaCommit { node: dst, key });
        }
        // Step 6: unlock the local directory, clear local filters.
        if self.slots[si].p.holds_local_lock {
            self.cl.lock_bufs[nb].unlock(token);
            self.slots[si].p.holds_local_lock = false;
        }
        cursor = self
            .cl
            .run_on_core(node, core, cursor, self.cl.cfg.bloom.bf_op);
        // Under fault injection a delayed Validation could otherwise still
        // be in flight when this slot's next transaction reuses the owner
        // token at the same remote directory; hold the slot until every
        // Validation has landed. Inert runs keep the original timing.
        if self.cl.injector_active() {
            cursor = cursor.max(last_arrival);
        }
        self.q.push_at(cursor, engine::Ev::Committed { si, att });
    }

    /// Applies `op`'s update at its home. On the software path the first
    /// update of a record by a commit (`bumped` lists those so far) also
    /// bumps its version, which is how the home's local transactions
    /// discover the conflict at their Local Validation.
    fn apply(&mut self, op: &ResolvedOp, now: Cycles, bumped: &mut Vec<RecordId>) {
        apply_write(&mut self.cl.db, op);
        self.cl.migration_note_write(now, op.home);
        if self.p.path == LocalPath::Software && !bumped.contains(&op.rid) {
            self.cl.db.record_mut(op.rid).bump_version();
            bumped.push(op.rid);
        }
    }

    /// Validation at a remote node: push updates, clear NIC state, unlock
    /// (Table II, remote steps 4–5).
    fn on_validation_arrive(&mut self, node: NodeId, key: RemoteTxKey, ops: Vec<ResolvedOp>) {
        let nb = node.0 as usize;
        let now = self.q.now();
        let mut bumped: Vec<RecordId> = Vec::new();
        for op in &ops {
            let (_lat, victims) = self.cl.access_lines_nic(node, &op.write_lines);
            self.apply(op, now, &mut bumped);
            for v in victims {
                let vsi = self.si_of(node, v);
                if self.slots[vsi].txn.is_some() && !self.slots[vsi].decided {
                    self.squash(vsi, SquashReason::LlcEviction);
                }
            }
        }
        self.cl.nics[nb].clear_remote_tx(key);
        self.cl.lock_bufs[nb].unlock(owner_token(key.origin, key.slot));
        self.p.poisoned[nb].remove(&key);
    }

    fn on_squash_arrive(&mut self, si: usize, att: u32) {
        if !self.alive(si, att) || self.slots[si].decided {
            return;
        }
        self.squash(si, SquashReason::LazyConflict);
    }

    /// Discards a squashed transaction's speculative state everywhere:
    /// `WrTX_ID` tags, the local Locking Buffer, and (by Clears) its
    /// state at every node it touched. Returns when the Clears land.
    fn release_state(&mut self, si: usize, now: Cycles) -> Cycles {
        let node = self.slots[si].node;
        let nb = node.0 as usize;
        let me = self.slots[si].slot;
        let token = self.token(si);
        // Discard the WrTX_ID-tagged lines (none on the software path).
        self.cl.mems[nb].squash_slot(me);
        if self.slots[si].p.holds_local_lock {
            self.cl.lock_bufs[nb].unlock(token);
        }
        let key = self.key_of(si);
        let mut clear_nodes: Vec<NodeId> = self.slots[si]
            .p
            .remote
            .nodes()
            .into_iter()
            .map(|d| self.cl.route(d))
            .collect();
        clear_nodes.extend(self.slots[si].p.replica_targets.iter().copied());
        clear_nodes.sort_unstable();
        clear_nodes.dedup();
        let mut clears_done = now;
        for dst in clear_nodes {
            if dst == node {
                // A partition promoted onto us: clear its state in place.
                self.cl.nics[nb].clear_remote_tx(key);
                self.cl.lock_bufs[nb].unlock(token);
                self.p.poisoned[nb].remove(&key);
                self.p.replica_pending[nb].remove(&key);
                continue;
            }
            let arrive = self
                .cl
                .send_faulty_one(now, node, dst, wire_size(0, 64), Verb::Clear);
            clears_done = clears_done.max(arrive);
            self.push(arrive, Ev::ClearRemote { node: dst, key });
        }
        clears_done
    }

    /// Node restart: replay durable replica prepares and broadcast
    /// recovery Clears for every slot's owner token (releasing anything
    /// the wiped transactions left at other nodes).
    fn restart_node(&mut self, node: NodeId, now: Cycles) {
        let nb = node.0 as usize;
        let replayed = self.p.replica_pending[nb].len() as u64;
        // Replaying a prepare moves it to permanent storage — the queue
        // entry is consumed, not just counted (leaving it behind leaked
        // `replica_pending` state across every crash/restart cycle).
        self.p.replica_pending[nb].clear();
        self.cl.fabric.injector_mut().recovery.replica_replays += replayed;
        if self.cl.tracer.is_enabled() && replayed > 0 {
            self.cl.tracer.emit(
                now,
                node.0,
                NO_SLOT,
                EventKind::Recovery {
                    action: RecoveryKind::ReplicaReplay,
                },
            );
        }
        let spn = self.cl.cfg.shape.slots_per_node();
        let nodes = self.cl.cfg.shape.nodes;
        for slot in 0..spn {
            let key = RemoteTxKey {
                origin: node,
                slot: SlotId(slot as u16),
            };
            for m in 0..nodes {
                if m == nb {
                    continue;
                }
                let dst = NodeId(m as u16);
                let arrive = self
                    .cl
                    .send_faulty_one(now, node, dst, wire_size(0, 64), Verb::Clear);
                self.push(arrive, Ev::ClearRemote { node: dst, key });
            }
        }
    }

    /// Context switch on (node, core): the incoming thread invalidates the
    /// Module 1 filter bits, so the outgoing transactions' next access to
    /// each line must revisit the directory — but their Bloom filters and
    /// `WrTX_ID` tags stay put and the transactions survive (Section VI).
    fn on_context_switch(&mut self, node: NodeId, core: CoreId) {
        if self.draining {
            return;
        }
        let now = self.q.now();
        let m = self.cl.cfg.shape.slots_per_core;
        let spn = self.cl.cfg.shape.slots_per_node();
        for s in 0..m {
            let slot = core.0 as usize * m + s;
            if slot < spn {
                let si = node.0 as usize * spn + slot;
                self.slots[si].p.local.hw_mut().recorded.clear();
            }
        }
        // OS switch cost on the core.
        self.cl.run_on_core(node, core, now, Cycles::new(2_000));
        if let Some(interval) = self.cl.cfg.context_switch_interval {
            self.push(now + interval, Ev::ContextSwitch { node, core });
        }
    }

    /// Fallback pre-locking: acquire the partial directory lock at each
    /// involved node (node-id order, retry on conflict — deadlock-free by
    /// resource ordering, livelock-free because holders finish).
    fn on_fallback_lock(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        let cursor = self.slots[si].fallback_cursor;
        let nodes = self.slots[si].p.fallback_nodes.clone();
        if cursor >= nodes.len() {
            self.push(now, Ev::ExecStage { si, att });
            return;
        }
        let target = nodes[cursor];
        let node = self.slots[si].node;
        let token = self.token(si);
        let bloom = self.cl.cfg.bloom;
        // Build the transaction's footprint filters at `target`.
        let (reads, writes) = self.footprint_at(si, target);
        let (rd, wr) = self.nic_filters(&reads, &writes);
        // Lock attempt happens at the target's current primary; remote
        // targets pay a round trip.
        let phys = self.cl.route(target);
        let rt_overhead = if phys == node {
            Cycles::ZERO
        } else {
            self.cl.cfg.net.rt
        };
        let tb = phys.0 as usize;
        let already = self.cl.lock_bufs[tb].holds(token);
        let ok = already
            || self.cl.lock_bufs[tb]
                .try_lock_at(
                    now,
                    token,
                    Signature::Conventional(rd),
                    Signature::Conventional(wr),
                    &writes,
                    &reads,
                )
                .is_ok();
        let when = now + rt_overhead + bloom.lock_buffer_load;
        if ok {
            if phys == node {
                self.slots[si].p.holds_local_lock = true;
            } else {
                // Remember the remote lock so a squash or commit clears it.
                self.slots[si].p.remote.note_read(target);
            }
            self.slots[si].fallback_cursor += 1;
            self.push(when, Ev::FallbackLock { si, att });
        } else {
            self.push(
                when + self.cl.cfg.retry.lock_retry,
                Ev::FallbackLock { si, att },
            );
        }
    }

    /// Participant lease expiry: if the coordinator is (still) crashed
    /// and its Locking Buffer is still held here, convert the orphaned
    /// partial lock into a clean release.
    fn on_lease_expire(&mut self, node: NodeId, key: RemoteTxKey) {
        let nb = node.0 as usize;
        let token = owner_token(key.origin, key.slot);
        if !self.crashed[key.origin.0 as usize] || !self.cl.lock_bufs[nb].holds(token) {
            return;
        }
        let now = self.q.now();
        self.cl.lock_bufs[nb].unlock(token);
        self.cl.nics[nb].clear_remote_tx(key);
        self.p.poisoned[nb].remove(&key);
        self.p.replica_pending[nb].remove(&key);
        self.cl.fabric.injector_mut().recovery.lease_expiries += 1;
        if self.cl.tracer.is_enabled() {
            self.cl.tracer.emit(
                now,
                node.0,
                NO_SLOT,
                EventKind::Recovery {
                    action: RecoveryKind::LeaseExpire,
                },
            );
        }
    }

    /// Resolves every in-flight commit straddling the epoch after `dead`
    /// was declared dead — committed if its coordinator was provably past
    /// the point of no return when it crashed, aborted otherwise — by
    /// draining the replica-prepare queues deterministically.
    fn drain_replicas_of(&mut self, dead: NodeId) {
        let db = dead.0 as usize;
        // The dead node's own queue: prepares shipped to it by other
        // coordinators. Its durable state seeded the promoted primary,
        // so the queue is consumed wholesale.
        let wiped = self.p.replica_pending[db].len() as u64;
        self.cl.membership.stats.replica_drained += wiped;
        self.p.replica_pending[db].clear();
        self.p.poisoned[db].clear();
        for r in 0..self.cl.cfg.shape.nodes {
            if r == db {
                continue;
            }
            // Survivor queues: prepares whose coordinator is the dead
            // node. Drain in key order (deterministic) and resolve.
            let mut keys: Vec<RemoteTxKey> = self.p.replica_pending[r]
                .iter()
                .filter(|k| k.origin == dead)
                .copied()
                .collect();
            keys.sort_unstable_by_key(|k| (k.origin.0, k.slot.0));
            for key in keys {
                self.p.replica_pending[r].remove(&key);
                self.cl.membership.stats.replica_drained += 1;
                if self.p.durable_at_crash.contains(&key) {
                    self.cl.membership.stats.failover_commits += 1;
                } else {
                    self.cl.membership.stats.failover_aborts += 1;
                }
            }
            self.p.poisoned[r].retain(|k| k.origin != dead);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RunOutcome;
    use hades_fault::FaultPlan;
    use hades_sim::config::SimConfig;
    use hades_storage::db::Database;
    use hades_storage::TableId;
    use hades_workloads::catalog::AppId;
    use hades_workloads::smallbank::{Smallbank, SmallbankConfig, INITIAL_BALANCE, OFF_BALANCE};

    const PATHS: [LocalPath; 2] = [LocalPath::Hardware, LocalPath::Software];

    fn run_app(path: LocalPath, app_name: &str, warmup: u64, measure: u64) -> RunOutcome {
        let cfg = SimConfig::isca_default();
        let mut db = Database::new(cfg.shape.nodes);
        let app = AppId::parse(app_name).unwrap().build(&mut db, 0.005);
        let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
        HadesSim::with_path(path, Cluster::new(cfg, db), ws, warmup, measure).run_full()
    }

    /// A Smallbank cluster's money: checking plus savings over all
    /// accounts.
    struct Ledger {
        tables: [TableId; 2],
        accounts: u64,
    }

    impl Ledger {
        fn assert_conserved(&self, out: &RunOutcome, what: &str) {
            let db = &out.cluster.db;
            let mut total = 0u64;
            for t in self.tables {
                for a in 0..self.accounts {
                    let rid = db.lookup(t, a).unwrap().rid;
                    total = total.wrapping_add(db.record(rid).read_u64(OFF_BALANCE as usize));
                }
            }
            let initial = 2 * self.accounts * INITIAL_BALANCE;
            assert_eq!(
                total,
                initial.wrapping_add(out.total_sum_delta as u64),
                "{what}: money not conserved: commits={}, squashes={}",
                out.total_commits,
                out.stats.squashes
            );
        }
    }

    fn smallbank(
        cfg: SimConfig,
        accounts: u64,
        hotspot: (u64, f64),
    ) -> (Cluster, WorkloadSet, Ledger) {
        let mut db = Database::new(cfg.shape.nodes);
        let sb = Smallbank::setup(
            &mut db,
            SmallbankConfig {
                accounts,
                hotspot: Some(hotspot),
            },
        );
        let ledger = Ledger {
            tables: [sb.checking(), sb.savings()],
            accounts,
        };
        let ws = WorkloadSet::single(Box::new(sb), cfg.shape.cores_per_node);
        (Cluster::new(cfg, db), ws, ledger)
    }

    #[test]
    fn commits_and_measures() {
        for path in PATHS {
            let out = run_app(path, "HT-wA", 50, 300);
            assert_eq!(out.stats.committed, 300, "{path:?}");
            assert!(out.stats.throughput() > 0.0, "{path:?}");
            assert!(out.stats.mean_latency() > Cycles::ZERO, "{path:?}");
        }
    }

    #[test]
    fn profiler_attributes_every_measured_cycle() {
        let cfg = SimConfig::isca_default().with_profiling();
        let mut db = Database::new(cfg.shape.nodes);
        let app = AppId::parse("HT-wA").unwrap().build(&mut db, 0.005);
        let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
        let out = HadesSim::new(Cluster::new(cfg, db), ws, 50, 300).run_full();
        let prof = out.stats.profile.as_ref().expect("profiler enabled");
        // Every measured commit is attributed, and the per-phase totals
        // sum exactly to the summed end-to-end latency.
        assert_eq!(prof.txns(), out.stats.committed);
        assert_eq!(prof.total_cycles() as u128, out.stats.latency.sum());
        assert!(prof.phase_cycles(ProfPhase::Exec) > 0);
        assert!(prof.verb_msgs(Verb::Intend) > 0);
    }

    #[test]
    fn no_commit_phase_in_breakdown() {
        // Fig 10: HADES has only Execution and Validation.
        let out = run_app(LocalPath::Hardware, "Map-wA", 20, 200);
        assert_eq!(out.stats.phases.commit, 0);
        assert!(out.stats.phases.execution > 0);
        assert!(out.stats.phases.validation > 0);
    }

    #[test]
    fn conservation_invariant_holds_under_contention() {
        for path in PATHS {
            let (cl, ws, ledger) = smallbank(SimConfig::isca_default(), 2_000, (20, 0.7));
            let out = HadesSim::with_path(path, cl, ws, 0, 600).run_full();
            ledger.assert_conserved(&out, &format!("{path:?}"));
        }
    }

    #[test]
    fn eager_squashes_under_local_contention() {
        // Force all-local traffic with a hot set: L–L conflicts must be
        // caught eagerly.
        let cfg = SimConfig::isca_default().with_local_fraction(1.0);
        let (cl, ws, _) = smallbank(cfg, 500, (4, 0.9));
        let out = HadesSim::new(cl, ws, 0, 300).run_full();
        assert!(
            out.stats.squashes_for(SquashReason::EagerLocal) > 0,
            "expected eager L–L squashes, reasons: {:?}",
            out.stats.squash_reasons
        );
    }

    #[test]
    fn lazy_squashes_under_remote_contention() {
        let (cl, ws, _) = smallbank(SimConfig::isca_default(), 500, (4, 0.9));
        let out = HadesSim::new(cl, ws, 0, 300).run_full();
        let lazy = out.stats.squashes_for(SquashReason::LazyConflict)
            + out.stats.squashes_for(SquashReason::LockFailed);
        assert!(
            lazy > 0,
            "expected lazy conflicts, reasons: {:?}",
            out.stats.squash_reasons
        );
    }

    #[test]
    fn local_validation_catches_conflicts() {
        let cfg = SimConfig::isca_default().with_local_fraction(0.9);
        let (cl, ws, _) = smallbank(cfg, 400, (4, 0.9));
        let out = HadesSim::with_path(LocalPath::Software, cl, ws, 0, 300).run_full();
        assert!(
            out.stats.squashes_for(SquashReason::ValidationFailed) > 0
                || out.stats.squashes_for(SquashReason::LockFailed) > 0,
            "expected software-validation squashes, got {:?}",
            out.stats.squash_reasons
        );
    }

    #[test]
    fn false_positive_rate_is_small() {
        // Section VIII-C: ~0.04% of conflict checks are false positives.
        let out = run_app(LocalPath::Hardware, "BTree-wA", 50, 400);
        let rate = out.stats.false_positive_rate();
        assert!(rate < 0.02, "false positive rate {rate} too high");
    }

    #[test]
    fn no_state_leaks_after_drain() {
        for path in PATHS {
            for app in ["B+Tree-wA", "Map-wB"] {
                let out = run_app(path, app, 0, 200);
                for (n, bufs) in out.cluster.lock_bufs.iter().enumerate() {
                    assert_eq!(bufs.occupied(), 0, "{path:?} {app}: node {n} left locks");
                }
                for (n, mem) in out.cluster.mems.iter().enumerate() {
                    let spec = mem.speculative_lines();
                    assert_eq!(spec, 0, "{path:?} {app}: node {n} left spec lines");
                }
                for (n, nic) in out.cluster.nics.iter().enumerate() {
                    let txs = nic.active_remote_txs();
                    assert_eq!(txs, 0, "{path:?} {app}: node {n} NIC left filters");
                }
            }
        }
    }

    #[test]
    fn context_switches_do_not_squash_transactions() {
        // Section VI: on a context switch the filter bits are cleared but
        // the transaction survives; only extra directory traffic is paid.
        let run = |interval: Option<u64>| {
            let mut cfg = SimConfig::isca_default();
            if let Some(us) = interval {
                cfg = cfg.with_context_switches(Cycles::from_micros(us));
            }
            let mut db = Database::new(cfg.shape.nodes);
            let app = AppId::parse("Smallbank").unwrap().build(&mut db, 0.002);
            let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
            HadesSim::new(Cluster::new(cfg, db), ws, 0, 300).run_full()
        };
        let plain = run(None);
        let switched = run(Some(5)); // a switch every 5 us: very aggressive
        assert_eq!(switched.stats.committed, 300);
        // No squash storm: context switches do not abort transactions.
        assert!(
            switched.stats.abort_rate() < plain.stats.abort_rate() + 0.15,
            "switches inflated aborts: {} vs {}",
            switched.stats.abort_rate(),
            plain.stats.abort_rate()
        );
        // But they are not free: throughput should not improve.
        assert!(
            switched.stats.throughput() <= plain.stats.throughput() * 1.05,
            "switched {} vs plain {}",
            switched.stats.throughput(),
            plain.stats.throughput()
        );
    }

    #[test]
    fn replication_persists_and_finalizes() {
        let cfg = SimConfig::isca_default().with_replication(2);
        let mut db = Database::new(cfg.shape.nodes);
        let app = AppId::parse("HT-wA").unwrap().build(&mut db, 0.005);
        let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
        let sim = HadesSim::new(Cluster::new(cfg, db), ws, 0, 300);
        let out = sim.run_full();
        assert_eq!(out.stats.committed, 300);
        assert!(
            out.stats.replica_persists > 0,
            "replicated commits must persist prepares"
        );
        assert_eq!(out.stats.dropped_messages, 0);
        // Everything finalized or cleared after the drain.
        for bufs in &out.cluster.lock_bufs {
            assert_eq!(bufs.occupied(), 0);
        }
    }

    #[test]
    fn replication_off_means_no_persists() {
        let out = run_app(LocalPath::Hardware, "HT-wA", 0, 150);
        assert_eq!(out.stats.replica_persists, 0);
        assert_eq!(out.stats.dropped_messages, 0);
    }

    #[test]
    fn replication_costs_throughput() {
        let run = |degree: usize| {
            let cfg = SimConfig::isca_default().with_replication(degree);
            let mut db = Database::new(cfg.shape.nodes);
            let app = AppId::parse("Smallbank").unwrap().build(&mut db, 0.002);
            let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
            HadesSim::new(Cluster::new(cfg, db), ws, 50, 300)
                .run()
                .throughput()
        };
        let plain = run(0);
        let replicated = run(2);
        assert!(
            replicated < plain,
            "replication should cost throughput: {replicated:.0} vs {plain:.0}"
        );
        assert!(
            replicated > plain * 0.2,
            "replication should not collapse throughput: {replicated:.0} vs {plain:.0}"
        );
    }

    #[test]
    fn message_loss_times_out_and_conserves_money() {
        // Lost or duplicated commit-handshake messages must be absorbed by
        // the commit-timeout path: all commits land, money is conserved,
        // and no NIC filters or Locking Buffers leak. Two loss models: the
        // legacy lossy config (with a replica per record), and a plan that
        // drops and duplicates Intends and Acks.
        for path in PATHS {
            let lossy = SimConfig::isca_default()
                .with_replication(1)
                .with_message_loss(0.05);
            let (cl, ws, ledger) = smallbank(lossy, 1_000, (16, 0.5));
            let legacy = HadesSim::with_path(path, cl, ws, 0, 400).run_full();
            let (mut cl, ws, planned_ledger) =
                smallbank(SimConfig::isca_default(), 1_000, (16, 0.5));
            cl.install_fault_plan(
                FaultPlan::none()
                    .with_seed(5)
                    .drop_verb(Verb::Intend, 0.05)
                    .drop_verb(Verb::Ack, 0.05)
                    .dup_verb(Verb::Intend, 0.05)
                    .dup_verb(Verb::Ack, 0.05),
            );
            let planned = HadesSim::with_path(path, cl, ws, 0, 400).run_full();
            for (out, ledger, what) in [
                (&legacy, &ledger, "legacy"),
                (&planned, &planned_ledger, "plan"),
            ] {
                let what = format!("{path:?} {what}");
                assert_eq!(out.stats.committed, 400, "{what}");
                assert!(out.stats.dropped_messages > 0, "{what}: loss inactive");
                assert!(
                    out.stats.squashes_for(SquashReason::CommitTimeout) > 0
                        && out.stats.recovery.timeout_retries > 0,
                    "{what}: lost commit messages must surface as timeouts: {:?}",
                    out.stats.squash_reasons
                );
                // The two-phase commit keeps the database consistent
                // through the losses: no partial commits, no double
                // applies.
                ledger.assert_conserved(out, &what);
                for (n, bufs) in out.cluster.lock_bufs.iter().enumerate() {
                    assert_eq!(bufs.occupied(), 0, "{what}: node {n} leaked locks");
                }
                for (n, nic) in out.cluster.nics.iter().enumerate() {
                    let txs = nic.active_remote_txs();
                    assert_eq!(txs, 0, "{what}: node {n} NIC left filters");
                }
            }
        }
    }

    #[test]
    fn crash_restart_recovers_and_conserves_money() {
        for path in PATHS {
            let cfg = SimConfig::isca_default().with_replication(1);
            let (mut cl, ws, ledger) = smallbank(cfg, 1_000, (16, 0.5));
            cl.install_fault_plan(
                FaultPlan::none()
                    .with_seed(11)
                    .with_lease(Cycles::new(30_000))
                    .crash(1, Cycles::new(60_000), Cycles::new(200_000)),
            );
            let out = HadesSim::with_path(path, cl, ws, 0, 400).run_full();
            assert_eq!(
                out.stats.committed, 400,
                "{path:?}: run must survive the crash"
            );
            assert_eq!(out.stats.faults.crashes, 1, "{path:?}");
            assert_eq!(out.stats.faults.restarts, 1, "{path:?}");
            assert!(
                out.stats.replica_persists > 0,
                "{path:?}: no replica persists"
            );
            assert_eq!(out.replica_pending_leaked, 0, "{path:?}: prepares leaked");
            ledger.assert_conserved(&out, &format!("{path:?} across the crash"));
            for (n, bufs) in out.cluster.lock_bufs.iter().enumerate() {
                assert_eq!(
                    bufs.occupied(),
                    0,
                    "{path:?}: node {n} leaked locks across crash"
                );
            }
        }
    }

    #[test]
    fn faster_than_baseline_on_tpcc() {
        // The headline claim, in miniature: HADES beats Baseline on TPC-C.
        let mk = || {
            let cfg = SimConfig::isca_default();
            let mut db = Database::new(cfg.shape.nodes);
            let app = AppId::parse("TPC-C").unwrap().build(&mut db, 0.01);
            let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
            (Cluster::new(cfg, db), ws)
        };
        let (cl, ws) = mk();
        let hades = HadesSim::new(cl, ws, 50, 400).run();
        let (cl, ws) = mk();
        let base = crate::baseline::BaselineSim::new(cl, ws, 50, 400).run();
        let speedup = hades.throughput() / base.throughput();
        assert!(
            speedup > 1.3,
            "HADES/Baseline speedup only {speedup:.2} (hades {:.0}, base {:.0})",
            hades.throughput(),
            base.throughput()
        );
    }

    #[test]
    fn performance_between_baseline_and_hades() {
        // Fig 9's ordering: Baseline <= HADES-H <= HADES (roughly).
        let mk = || {
            let cfg = SimConfig::isca_default();
            let mut db = Database::new(cfg.shape.nodes);
            let app = AppId::parse("HT-wA").unwrap().build(&mut db, 0.005);
            let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
            (Cluster::new(cfg, db), ws)
        };
        let (cl, ws) = mk();
        let b = crate::baseline::BaselineSim::new(cl, ws, 50, 300)
            .run()
            .throughput();
        let [h, full] = [LocalPath::Software, LocalPath::Hardware].map(|path| {
            let (cl, ws) = mk();
            HadesSim::with_path(path, cl, ws, 50, 300)
                .run()
                .throughput()
        });
        assert!(
            h > b * 0.95,
            "HADES-H ({h:.0}) should beat Baseline ({b:.0})"
        );
        assert!(
            full > h * 0.9,
            "HADES ({full:.0}) should be at least comparable to HADES-H ({h:.0})"
        );
    }
}
