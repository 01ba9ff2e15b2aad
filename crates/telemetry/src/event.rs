//! The trace-event taxonomy: everything the three protocol engines and
//! the hardware models (NIC Bloom filters, Locking Buffers, fabric) can
//! report about a run.
//!
//! Events are small `Copy` values stamped with simulated time; the
//! exporters in [`crate::chrome`] and [`crate::jsonl`] turn a recorded
//! stream into Perfetto-loadable Chrome traces or line-delimited JSON.

use hades_sim::time::Cycles;

/// Sentinel slot index for node-scoped events (NIC, fabric, directory)
/// that are not attributable to a single execution slot.
pub const NO_SLOT: u32 = u32::MAX;

/// A transaction-lifecycle phase, matching the paper's Fig 10 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Execution: running app logic and fetching data.
    Exec,
    /// Lock acquisition (Baseline write locks / Locking Buffer grab).
    Lock,
    /// Read-set validation (Baseline version checks / HADES Validation).
    Validate,
    /// Commit: write-back, unlock, replication.
    Commit,
}

impl Phase {
    /// Every phase, in lifecycle order.
    pub const ALL: [Phase; 4] = [Phase::Exec, Phase::Lock, Phase::Validate, Phase::Commit];

    /// Stable lowercase name used in exports.
    pub const fn label(self) -> &'static str {
        match self {
            Phase::Exec => "exec",
            Phase::Lock => "lock",
            Phase::Validate => "validate",
            Phase::Commit => "commit",
        }
    }
}

/// The protocol-level meaning of a fabric message ("verb", in RDMA
/// terms). One taxonomy covers all three protocols; each engine uses the
/// subset matching its message set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// Remote read request (Baseline RDMA read / HADES remote access).
    Read,
    /// Remote read response carrying data lines.
    ReadResp,
    /// Baseline lock request for a remote write-set entry.
    Lock,
    /// Baseline lock response (grant or deny).
    LockResp,
    /// Baseline read-set validation request.
    Validate,
    /// Baseline read-set validation response.
    ValidateResp,
    /// Commit-time write-back of updated lines.
    Write,
    /// Baseline unlock message releasing a write lock.
    Unlock,
    /// HADES Intend-to-commit carrying read/write line lists.
    Intend,
    /// HADES Ack from a participant directory.
    Ack,
    /// HADES Validation message closing the commit.
    Validation,
    /// HADES Squash notification aborting a speculative transaction.
    Squash,
    /// HADES Clear message dropping remote NIC filters.
    Clear,
    /// Replication prepare (log shipping to backups).
    ReplicaPrepare,
    /// Replication acknowledgment from a backup.
    ReplicaAck,
    /// Anything not covered above (kept last for forward compatibility).
    Other,
}

impl Verb {
    /// Every verb, in declaration order (indexes match [`Verb::index`]).
    pub const ALL: [Verb; 16] = [
        Verb::Read,
        Verb::ReadResp,
        Verb::Lock,
        Verb::LockResp,
        Verb::Validate,
        Verb::ValidateResp,
        Verb::Write,
        Verb::Unlock,
        Verb::Intend,
        Verb::Ack,
        Verb::Validation,
        Verb::Squash,
        Verb::Clear,
        Verb::ReplicaPrepare,
        Verb::ReplicaAck,
        Verb::Other,
    ];

    /// Number of verb kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index for counter arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used in exports.
    pub const fn label(self) -> &'static str {
        match self {
            Verb::Read => "read",
            Verb::ReadResp => "read_resp",
            Verb::Lock => "lock",
            Verb::LockResp => "lock_resp",
            Verb::Validate => "validate",
            Verb::ValidateResp => "validate_resp",
            Verb::Write => "write",
            Verb::Unlock => "unlock",
            Verb::Intend => "intend",
            Verb::Ack => "ack",
            Verb::Validation => "validation",
            Verb::Squash => "squash",
            Verb::Clear => "clear",
            Verb::ReplicaPrepare => "replica_prepare",
            Verb::ReplicaAck => "replica_ack",
            Verb::Other => "other",
        }
    }
}

/// Per-verb message counters, indexed by [`Verb::index`].
///
/// # Examples
///
/// ```
/// use hades_telemetry::event::{Verb, VerbCounts};
///
/// let mut v = VerbCounts::new();
/// v.bump(Verb::Intend);
/// v.bump(Verb::Intend);
/// assert_eq!(v.get(Verb::Intend), 2);
/// assert_eq!(v.total(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerbCounts([u64; Verb::COUNT]);

impl VerbCounts {
    /// All-zero counters.
    pub const fn new() -> Self {
        VerbCounts([0; Verb::COUNT])
    }

    /// Increments the counter for `verb`.
    pub fn bump(&mut self, verb: Verb) {
        self.0[verb.index()] += 1;
    }

    /// Count for one verb.
    pub const fn get(&self, verb: Verb) -> u64 {
        self.0[verb.index()]
    }

    /// Sum over all verbs.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Iterates `(verb, count)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Verb, u64)> + '_ {
        Verb::ALL.iter().map(move |&v| (v, self.get(v)))
    }

    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &VerbCounts) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }
}

/// Which Bloom filter a hardware operation touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterSite {
    /// NIC-side read filter for a remote transaction.
    NicRead,
    /// NIC-side write filter for a remote transaction.
    NicWrite,
    /// Core-side read filter (local access tracking).
    CoreRead,
    /// Core-side write filter (WrTX_ID tags / dual write filter).
    CoreWrite,
}

impl FilterSite {
    /// Stable lowercase name used in exports.
    pub const fn label(self) -> &'static str {
        match self {
            FilterSite::NicRead => "nic_read",
            FilterSite::NicWrite => "nic_write",
            FilterSite::CoreRead => "core_read",
            FilterSite::CoreWrite => "core_write",
        }
    }
}

/// A fault injected by the `hades-fault` plane into the simulated
/// cluster (messages, nodes, NICs, or replica storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// A message was dropped (or, on the reliable transport, charged a
    /// hardware retransmission).
    Drop {
        /// The dropped message's verb.
        verb: Verb,
    },
    /// A message was delivered twice.
    Duplicate {
        /// The duplicated message's verb.
        verb: Verb,
    },
    /// A message was delayed by a configured amount.
    Delay {
        /// The delayed message's verb.
        verb: Verb,
    },
    /// A message was jittered so later sends may overtake it.
    Reorder {
        /// The jittered message's verb.
        verb: Verb,
    },
    /// A node crashed, losing all in-flight transaction state.
    NodeCrash,
    /// A crashed node restarted.
    NodeRestart,
    /// An arrival was held by a NIC stall window.
    NicStall,
    /// A replica persist failed.
    PersistFail,
    /// A message hit a cut or flapped-down link (lost on the lossy class,
    /// held until the heal on the reliable class).
    LinkCut {
        /// The blocked message's verb.
        verb: Verb,
    },
    /// A message crossed a gray (slow-but-alive) node or link and was
    /// charged a latency multiple.
    LinkSlow {
        /// The slowed message's verb.
        verb: Verb,
    },
}

impl InjectedFault {
    /// Stable lowercase name used in exports.
    pub const fn label(self) -> &'static str {
        match self {
            InjectedFault::Drop { .. } => "drop",
            InjectedFault::Duplicate { .. } => "duplicate",
            InjectedFault::Delay { .. } => "delay",
            InjectedFault::Reorder { .. } => "reorder",
            InjectedFault::NodeCrash => "node_crash",
            InjectedFault::NodeRestart => "node_restart",
            InjectedFault::NicStall => "nic_stall",
            InjectedFault::PersistFail => "persist_fail",
            InjectedFault::LinkCut { .. } => "link_cut",
            InjectedFault::LinkSlow { .. } => "link_slow",
        }
    }

    /// The verb the fault targeted, for message-level faults.
    pub const fn verb(self) -> Option<Verb> {
        match self {
            InjectedFault::Drop { verb }
            | InjectedFault::Duplicate { verb }
            | InjectedFault::Delay { verb }
            | InjectedFault::Reorder { verb }
            | InjectedFault::LinkCut { verb }
            | InjectedFault::LinkSlow { verb } => Some(verb),
            _ => None,
        }
    }
}

/// A recovery action a protocol engine took in response to a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// A commit timeout fired (or the transport retransmitted) and the
    /// transaction retried/aborted cleanly.
    TimeoutRetry,
    /// A participant's lease on a suspected-crashed coordinator expired,
    /// releasing its Locking Buffer and NIC filters.
    LeaseExpire,
    /// Durable replica state was replayed on node restart.
    ReplicaReplay,
}

impl RecoveryKind {
    /// Stable lowercase name used in exports.
    pub const fn label(self) -> &'static str {
        match self {
            RecoveryKind::TimeoutRetry => "timeout_retry",
            RecoveryKind::LeaseExpire => "lease_expire",
            RecoveryKind::ReplicaReplay => "replica_replay",
        }
    }
}

/// What happened. Variants carry only small `Copy` payloads so recording
/// stays allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A slot started (or restarted) a transaction attempt.
    TxnBegin {
        /// 1-based attempt number (1 = first try, >1 = retry).
        attempt: u32,
    },
    /// A lifecycle phase opened for the slot's current transaction.
    PhaseBegin(Phase),
    /// The matching phase closed.
    PhaseEnd(Phase),
    /// The transaction committed.
    TxnCommit,
    /// The transaction aborted/squashed; `reason` is a stable label
    /// (e.g. `"wrtx-conflict"`).
    TxnAbort {
        /// Stable abort-reason label.
        reason: &'static str,
    },
    /// A fabric message left the source NIC.
    VerbSend {
        /// Protocol meaning of the message.
        verb: Verb,
        /// Destination node.
        dst: u16,
        /// Wire bytes including header.
        bytes: u32,
    },
    /// A fabric message arrived at the destination NIC.
    VerbRecv {
        /// Protocol meaning of the message.
        verb: Verb,
        /// Source node.
        src: u16,
        /// Wire bytes including header.
        bytes: u32,
    },
    /// A line was inserted into a hardware Bloom filter.
    BloomInsert {
        /// Which filter.
        site: FilterSite,
    },
    /// A membership probe against hardware Bloom filters.
    BloomProbe {
        /// Whether any filter reported (possible) membership.
        hit: bool,
    },
    /// A probe hit that exact-line comparison disproved — a Bloom false
    /// positive that will squash an innocent transaction.
    BloomFalsePositive,
    /// A Locking Buffer was granted to a committing transaction.
    LockAcquire {
        /// Owner token of the grantee.
        owner: u64,
    },
    /// An access or lock attempt stalled against a held Locking Buffer.
    LockStall {
        /// Owner token of the transaction holding the conflicting buffer.
        holder: u64,
    },
    /// The fault plane injected a fault here.
    FaultInjected {
        /// What was injected.
        fault: InjectedFault,
    },
    /// A protocol engine recovered from a fault.
    Recovery {
        /// What recovery action ran.
        action: RecoveryKind,
    },
    /// The admission controller deferred a new transaction start because
    /// the node was over its in-flight, abort-rate, or Locking Buffer
    /// occupancy threshold.
    AdmissionThrottled,
    /// A commit that could not get hardware assistance (Locking Buffer
    /// full or filters saturated) fell back to software validation
    /// instead of squashing.
    DegradedCommit,
    /// An aged transaction was granted backoff priority by the contention
    /// manager so it cannot starve.
    StarvationBoost {
        /// 1-based attempt number at the time of the boost.
        attempt: u32,
    },
    /// The cluster advanced to a new configuration epoch after declaring
    /// a node dead.
    EpochChange {
        /// The new epoch number.
        epoch: u64,
    },
    /// A backup replica was promoted to primary for a partition whose
    /// home node left the configuration.
    Promotion {
        /// The partition (its original home node id).
        partition: u16,
        /// The promoted node now serving the partition.
        new_primary: u16,
    },
    /// A fabric verb stamped with a pre-reconfiguration epoch and
    /// involving a departed node was dropped at delivery.
    VerbFenced {
        /// The fenced verb.
        verb: Verb,
    },
    /// A planned shard migration announced itself: the epoch advanced
    /// and the copy phase is about to start streaming (DESIGN.md §15).
    MigrationStart {
        /// The partition being moved (its original home node id).
        partition: u16,
        /// The destination node that will serve it after the cutover.
        dst: u16,
    },
    /// One bounded copy chunk of a migrating partition landed at the
    /// destination.
    ChunkMigrated {
        /// The partition being moved.
        partition: u16,
        /// 0-based chunk index within the move.
        chunk: u32,
    },
    /// A migration cutover flipped the partition map: the destination
    /// now serves the moved partitions at the new epoch.
    MigrationCutover {
        /// The epoch after the flip.
        epoch: u64,
    },
    /// A link-fault window (cut or flap) became active on a directed
    /// link: traffic from `src` to `dst` is now partitioned away.
    LinkCut {
        /// Sending side of the cut direction.
        src: u16,
        /// Receiving side of the cut direction.
        dst: u16,
    },
    /// A link-fault window ended: traffic from `src` to `dst` flows
    /// again.
    LinkHealed {
        /// Sending side of the healed direction.
        src: u16,
        /// Receiving side of the healed direction.
        dst: u16,
    },
    /// A node whose own lease expired refused a commit handshake rather
    /// than risk dueling a promoted successor (FaRMv2-style self-fence).
    SelfFenced {
        /// The self-fencing node.
        node: u16,
    },
    /// The failure detector wanted to declare a node dead but could not
    /// observe a liveness quorum; the epoch is frozen instead.
    QuorumLost {
        /// The suspect whose death declaration is frozen.
        node: u16,
    },
}

impl EventKind {
    /// Coarse category used by the Chrome exporter and metric names:
    /// `"txn"`, `"phase"`, `"net"`, `"bloom"`, `"lock"`, `"fault"`,
    /// `"recovery"`, `"overload"`, `"membership"`, or `"migration"`.
    pub const fn category(&self) -> &'static str {
        match self {
            EventKind::TxnBegin { .. } | EventKind::TxnCommit | EventKind::TxnAbort { .. } => "txn",
            EventKind::PhaseBegin(_) | EventKind::PhaseEnd(_) => "phase",
            EventKind::VerbSend { .. } | EventKind::VerbRecv { .. } => "net",
            EventKind::BloomInsert { .. }
            | EventKind::BloomProbe { .. }
            | EventKind::BloomFalsePositive => "bloom",
            EventKind::LockAcquire { .. } | EventKind::LockStall { .. } => "lock",
            EventKind::FaultInjected { .. } => "fault",
            EventKind::Recovery { .. } => "recovery",
            EventKind::AdmissionThrottled
            | EventKind::DegradedCommit
            | EventKind::StarvationBoost { .. } => "overload",
            EventKind::EpochChange { .. }
            | EventKind::Promotion { .. }
            | EventKind::VerbFenced { .. } => "membership",
            EventKind::MigrationStart { .. }
            | EventKind::ChunkMigrated { .. }
            | EventKind::MigrationCutover { .. } => "migration",
            EventKind::LinkCut { .. } | EventKind::LinkHealed { .. } => "fault",
            EventKind::SelfFenced { .. } | EventKind::QuorumLost { .. } => "membership",
        }
    }

    /// Short stable name for the event kind.
    pub const fn name(&self) -> &'static str {
        match self {
            EventKind::TxnBegin { .. } => "txn_begin",
            EventKind::PhaseBegin(_) => "phase_begin",
            EventKind::PhaseEnd(_) => "phase_end",
            EventKind::TxnCommit => "txn_commit",
            EventKind::TxnAbort { .. } => "txn_abort",
            EventKind::VerbSend { .. } => "verb_send",
            EventKind::VerbRecv { .. } => "verb_recv",
            EventKind::BloomInsert { .. } => "bloom_insert",
            EventKind::BloomProbe { .. } => "bloom_probe",
            EventKind::BloomFalsePositive => "bloom_false_positive",
            EventKind::LockAcquire { .. } => "lock_acquire",
            EventKind::LockStall { .. } => "lock_stall",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::Recovery { .. } => "recovery",
            EventKind::AdmissionThrottled => "admission_throttled",
            EventKind::DegradedCommit => "degraded_commit",
            EventKind::StarvationBoost { .. } => "starvation_boost",
            EventKind::EpochChange { .. } => "epoch_change",
            EventKind::Promotion { .. } => "promotion",
            EventKind::VerbFenced { .. } => "verb_fenced",
            EventKind::MigrationStart { .. } => "migration_start",
            EventKind::ChunkMigrated { .. } => "chunk_migrated",
            EventKind::MigrationCutover { .. } => "migration_cutover",
            EventKind::LinkCut { .. } => "link_cut",
            EventKind::LinkHealed { .. } => "link_healed",
            EventKind::SelfFenced { .. } => "self_fenced",
            EventKind::QuorumLost { .. } => "quorum_lost",
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: Cycles,
    /// Node where the event happened.
    pub node: u16,
    /// Global execution-slot index, or [`NO_SLOT`] for node-scoped events.
    pub slot: u32,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_indexes_are_dense_and_stable() {
        for (i, v) in Verb::ALL.iter().enumerate() {
            assert_eq!(v.index(), i);
        }
        assert_eq!(Verb::COUNT, 16);
    }

    #[test]
    fn verb_counts_accumulate_and_merge() {
        let mut a = VerbCounts::new();
        let mut b = VerbCounts::new();
        a.bump(Verb::Read);
        b.bump(Verb::Read);
        b.bump(Verb::Ack);
        a.merge(&b);
        assert_eq!(a.get(Verb::Read), 2);
        assert_eq!(a.get(Verb::Ack), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn categories_cover_all_kinds() {
        let cases = [
            (EventKind::TxnBegin { attempt: 1 }, "txn"),
            (EventKind::PhaseBegin(Phase::Exec), "phase"),
            (
                EventKind::VerbSend {
                    verb: Verb::Intend,
                    dst: 1,
                    bytes: 64,
                },
                "net",
            ),
            (EventKind::BloomProbe { hit: false }, "bloom"),
            (EventKind::LockStall { holder: 7 }, "lock"),
            (
                EventKind::FaultInjected {
                    fault: InjectedFault::Drop { verb: Verb::Intend },
                },
                "fault",
            ),
            (
                EventKind::Recovery {
                    action: RecoveryKind::LeaseExpire,
                },
                "recovery",
            ),
            (EventKind::AdmissionThrottled, "overload"),
            (EventKind::DegradedCommit, "overload"),
            (EventKind::StarvationBoost { attempt: 9 }, "overload"),
            (EventKind::EpochChange { epoch: 1 }, "membership"),
            (
                EventKind::Promotion {
                    partition: 1,
                    new_primary: 2,
                },
                "membership",
            ),
            (EventKind::VerbFenced { verb: Verb::Ack }, "membership"),
            (
                EventKind::MigrationStart {
                    partition: 2,
                    dst: 0,
                },
                "migration",
            ),
            (
                EventKind::ChunkMigrated {
                    partition: 2,
                    chunk: 3,
                },
                "migration",
            ),
            (EventKind::MigrationCutover { epoch: 2 }, "migration"),
            (EventKind::LinkCut { src: 0, dst: 1 }, "fault"),
            (EventKind::LinkHealed { src: 0, dst: 1 }, "fault"),
            (EventKind::SelfFenced { node: 3 }, "membership"),
            (EventKind::QuorumLost { node: 3 }, "membership"),
        ];
        for (kind, cat) in cases {
            assert_eq!(kind.category(), cat);
        }
    }

    #[test]
    fn fault_labels_and_verbs_are_stable() {
        assert_eq!(InjectedFault::NodeCrash.label(), "node_crash");
        assert_eq!(InjectedFault::NodeCrash.verb(), None);
        let drop = InjectedFault::Drop { verb: Verb::Ack };
        assert_eq!(drop.label(), "drop");
        assert_eq!(drop.verb(), Some(Verb::Ack));
        assert_eq!(RecoveryKind::ReplicaReplay.label(), "replica_replay");
    }
}
