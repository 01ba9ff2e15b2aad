//! The engine shell the protocols share: one slot lifecycle, run loop and
//! fault/membership driver.
//!
//! Baseline (Section III) and HADES / HADES-H (Section V) run the same
//! transaction lifecycle: each slot starts a transaction, executes it in
//! stages, commits or squashes, and backs off. They differ only in how
//! they track read/write sets and validate them. [`Engine`] owns the
//! lifecycle — admission-gated starts, commit bookkeeping, the squash tail
//! with its backoff, node crash and restart, lease renewal, the failure
//! detector and the migration tick — and asks the protocol, through the
//! crate-private `Hooks` trait, for everything else. Each protocol's
//! handlers live in an inherent `impl Engine<Protocol>` block in its own
//! module.

use crate::runtime::{
    owner_token, resolve, Cluster, Measurement, MigrationAction, ResolvedTxn, RunOutcome,
    WorkloadSet,
};
use crate::stats::{Phase, RunStats, SquashReason};
use hades_fault::InjectedFault;
use hades_sim::engine::EventQueue;
use hades_sim::ids::{CoreId, NodeId, SlotId};
use hades_sim::rng::SimRng;
use hades_sim::time::Cycles;
use hades_telemetry::event::{EventKind, Phase as TracePhase, RecoveryKind, Verb, NO_SLOT};
use std::fmt::Debug;

/// What a protocol plugs into the engine shell. The hooks take the whole
/// engine, so a protocol reaches the cluster, the queue and its own state
/// (`e.p`, `e.slots[si].p`) through one handle.
pub(crate) trait Hooks: Sized + Debug {
    /// Protocol-owned state of one slot.
    type Slot: Debug;
    /// Events of the protocol's own.
    type Ev: Debug;

    /// Whether the fault plan's crashes are scheduled only when the
    /// membership layer is on (a protocol without lease machinery of its
    /// own has failover as its only recovery path).
    const CRASHES_NEED_MEMBERSHIP: bool;
    /// Whether a timeout squash under fault injection backs off
    /// exponentially (the loss may be systemic, not contention) instead
    /// of taking the contention backoff.
    const TIMEOUT_BACKOFF: bool;

    /// A fresh slot state for node `node`.
    fn new_slot(&self, cl: &Cluster, node: usize) -> Self::Slot;
    /// Clears a slot's state before an attempt and after a squash or crash.
    fn reset_slot(slot: &mut Self::Slot);
    /// Cycles between the first `Start`s of consecutive slots.
    fn start_stagger(&self) -> u64;
    /// Pushes the protocol's run-start events (after the `Start`s).
    fn schedule_run_start(_e: &mut Engine<Self>) {}
    /// Handles one protocol event.
    fn handle(e: &mut Engine<Self>, ev: Self::Ev);
    /// Launches attempt `att` of slot `si`, begun at `now`, once its
    /// application compute ends at `at`.
    fn launch(e: &mut Engine<Self>, si: usize, att: u32, now: Cycles, at: Cycles);
    /// Releases a squashed attempt's footprint. Returns when the retry's
    /// backoff starts and when the releases land (the retry waits for
    /// them under fault injection).
    fn release(e: &mut Engine<Self>, si: usize, now: Cycles) -> (Cycles, Cycles);
    /// Records a measured commit's protocol-specific phases.
    fn record_commit(e: &mut Engine<Self>, si: usize, now: Cycles);
    /// Drops the in-flight transaction of slot `si` on a crashed node.
    fn crash_slot(e: &mut Engine<Self>, si: usize);
    /// Recovers a restarted node's protocol state.
    fn restart(e: &mut Engine<Self>, node: NodeId, now: Cycles);
    /// Recovers after the cluster reconfigured around `dead`.
    fn after_death(e: &mut Engine<Self>, dead: NodeId);
    /// Fences the in-flight transactions a migration cutover straddles,
    /// then finishes the cutover.
    fn cutover(e: &mut Engine<Self>, now: Cycles, moves: &[(NodeId, NodeId)]);
    /// Adds the protocol's run-end statistics to `e.meas.stats`; returns
    /// the replica prepares leaked.
    fn finish(e: &mut Engine<Self>) -> u64;
}

/// One transaction slot: the lifecycle state the shell owns plus the
/// protocol's own.
#[derive(Debug)]
pub(crate) struct Slot<S> {
    pub(crate) node: NodeId,
    pub(crate) slot: SlotId,
    pub(crate) core: CoreId,
    pub(crate) attempt: u32,
    pub(crate) consec_squashes: u32,
    pub(crate) fallback: bool,
    pub(crate) txn: Option<ResolvedTxn>,
    pub(crate) first_start: Cycles,
    pub(crate) exec_end: Cycles,
    pub(crate) stage: usize,
    pub(crate) outstanding: u32,
    pub(crate) fallback_cursor: usize,
    /// A retry/restart `Start` is legitimately pending for this slot even
    /// though `txn` is still set (guards against a second squash in the
    /// same window and disambiguates stale duplicate Starts deferred
    /// across a crash window).
    pub(crate) awaiting_start: bool,
    /// Configuration epoch this attempt started in (straddle detection).
    pub(crate) epoch: u64,
    /// Past the point of no return: the commit's effects land even if the
    /// coordinator crashes, and nothing may squash it.
    pub(crate) decided: bool,
    /// The protocol's own slot state.
    pub(crate) p: S,
}

/// Lifecycle events the shell handles; protocol events ride in `Proto`.
#[derive(Debug)]
pub(crate) enum Ev<E> {
    Start {
        si: usize,
    },
    Committed {
        si: usize,
        att: u32,
    },
    /// Scheduled node crash (fault plan): the node's in-flight
    /// transaction state is lost.
    NodeCrash {
        node: NodeId,
    },
    /// Scheduled node restart: recover and resume the node's slots.
    NodeRestart {
        node: NodeId,
    },
    /// Membership layer: a node renews its cluster lease (control plane,
    /// no fabric traffic).
    LeaseRenew {
        node: NodeId,
    },
    /// Membership layer: periodic failure-detector sweep over missed
    /// lease renewals.
    MembershipTick,
    /// Membership layer: an exec-phase remote fetch has been outstanding
    /// too long (its home may be dead forever) — squash and retry.
    FetchTimeout {
        si: usize,
        att: u32,
        stage: usize,
    },
    /// Planned reconfiguration: advance the live-migration state machine
    /// (announce → copy chunks → catch-up → cutover; DESIGN.md §15).
    MigrationTick,
    Proto(E),
}

/// A protocol engine: the shared shell driving protocol `P`.
#[derive(Debug)]
#[allow(private_bounds)] // named through the protocols' public aliases
pub struct Engine<P: Hooks> {
    pub(crate) p: P,
    pub(crate) cl: Cluster,
    pub(crate) q: EventQueue<Ev<P::Ev>>,
    ws: WorkloadSet,
    pub(crate) meas: Measurement,
    pub(crate) slots: Vec<Slot<P::Slot>>,
    slot_rngs: Vec<SimRng>,
    pub(crate) draining: bool,
    locality: Option<f64>,
    /// Nodes currently down under the fault plan.
    pub(crate) crashed: Vec<bool>,
    /// Pending restart time of each crashed node.
    pub(crate) restart_at: Vec<Option<Cycles>>,
    /// Net committed RMW delta since the start of the run (warmup
    /// included) — the conservation-check ledger.
    pub total_sum_delta: i64,
    /// Total commits since the start of the run.
    pub total_commits: u64,
}

#[allow(private_bounds)] // named through the protocols' public aliases
impl<P: Hooks> Engine<P> {
    /// Builds a run of protocol `p`: `warmup` commits discarded, then
    /// `measure` commits recorded.
    pub(crate) fn build(p: P, mut cl: Cluster, ws: WorkloadSet, warmup: u64, measure: u64) -> Self {
        let shape = cl.cfg.shape;
        let spn = shape.slots_per_node();
        let mut slots = Vec::with_capacity(shape.nodes * spn);
        let mut slot_rngs = Vec::with_capacity(shape.nodes * spn);
        for n in 0..shape.nodes {
            for s in 0..spn {
                slots.push(Slot {
                    node: NodeId(n as u16),
                    slot: SlotId(s as u16),
                    core: SlotId(s as u16).core(shape.slots_per_core),
                    attempt: 0,
                    consec_squashes: 0,
                    fallback: false,
                    txn: None,
                    first_start: Cycles::ZERO,
                    exec_end: Cycles::ZERO,
                    stage: 0,
                    outstanding: 0,
                    fallback_cursor: 0,
                    awaiting_start: false,
                    epoch: 0,
                    decided: false,
                    p: p.new_slot(&cl, n),
                });
                slot_rngs.push(cl.rng.fork());
            }
        }
        let apps = ws.len();
        let locality = cl.cfg.local_fraction;
        Engine {
            p,
            cl,
            q: EventQueue::new(),
            ws,
            meas: Measurement::new(warmup, measure, apps),
            slots,
            slot_rngs,
            draining: false,
            locality,
            crashed: vec![false; shape.nodes],
            restart_at: vec![None; shape.nodes],
            total_sum_delta: 0,
            total_commits: 0,
        }
    }

    /// Runs to completion (including draining in-flight transactions) and
    /// returns the measured statistics.
    pub fn run(self) -> RunStats {
        self.run_full().stats
    }

    /// Runs to completion, returning the statistics together with the
    /// final cluster state and the all-run commit ledger (for invariant
    /// checks).
    pub fn run_full(mut self) -> RunOutcome {
        let stagger = self.p.start_stagger();
        for si in 0..self.slots.len() {
            self.q
                .push_at(Cycles::new(si as u64 * stagger), Ev::Start { si });
        }
        P::schedule_run_start(&mut self);
        if !P::CRASHES_NEED_MEMBERSHIP || self.cl.membership.enabled() {
            for crash in self.cl.fabric.injector().crashes().to_vec() {
                let node = NodeId(crash.node);
                self.q.push_at(crash.at, Ev::NodeCrash { node });
                if let Some(r) = crash.restart_at {
                    self.q.push_at(r, Ev::NodeRestart { node });
                }
            }
        }
        if self.cl.membership.enabled() {
            let interval = self.cl.membership.renew_interval();
            for n in 0..self.cl.cfg.shape.nodes {
                self.q.push_at(
                    interval,
                    Ev::LeaseRenew {
                        node: NodeId(n as u16),
                    },
                );
            }
            // Sweep just after each renewal round so a live node is never
            // observed mid-interval as silent.
            self.q
                .push_at(interval + Cycles::new(1), Ev::MembershipTick);
        }
        if self.cl.cfg.migration.enabled() {
            self.q
                .push_at(self.cl.cfg.migration.start_at, Ev::MigrationTick);
        }
        while let Some((_, ev)) = self.q.pop() {
            self.dispatch(ev);
        }
        let replica_pending_leaked = P::finish(&mut self);
        let mut stats = self.meas.stats;
        stats.profile = self.cl.profile.take().map(|b| *b);
        let (spans, timeseries) = self.cl.finish_observability();
        stats.spans = spans;
        stats.timeseries = timeseries;
        stats.node_verbs = self.cl.verbs_by_node.clone();
        stats.messages = self.cl.fabric.messages_sent();
        stats.verbs = *self.cl.fabric.verb_counts();
        stats.llc_eviction_squashes = self.cl.mems.iter().map(|m| m.eviction_squashes()).sum();
        let inj = self.cl.fabric.injector();
        stats.faults = inj.faults;
        stats.recovery = inj.recovery;
        stats.dropped_messages = inj.faults.drops;
        stats.membership = self.cl.membership.stats;
        stats.migration = self.cl.migration_stats();
        stats.nemesis = self.cl.nemesis_stats(self.q.now());
        RunOutcome {
            stats,
            cluster: self.cl,
            total_sum_delta: self.total_sum_delta,
            total_commits: self.total_commits,
            replica_pending_leaked,
        }
    }

    fn dispatch(&mut self, ev: Ev<P::Ev>) {
        match ev {
            Ev::Start { si } => self.on_start(si),
            Ev::Committed { si, att } if self.alive(si, att) => self.on_committed(si, att),
            Ev::NodeCrash { node } => self.on_node_crash(node),
            Ev::NodeRestart { node } => self.on_node_restart(node),
            Ev::LeaseRenew { node } => self.on_lease_renew(node),
            Ev::MembershipTick => self.on_membership_tick(),
            Ev::FetchTimeout { si, att, stage } if self.alive(si, att) => {
                let s = &self.slots[si];
                if s.stage == stage && s.outstanding > 0 && !s.decided {
                    self.squash(si, SquashReason::CommitTimeout);
                }
            }
            Ev::MigrationTick => self.on_migration_tick(),
            Ev::Proto(ev) => P::handle(self, ev),
            _ => {} // stale event for a squashed attempt
        }
    }

    /// Schedules a protocol event.
    pub(crate) fn push(&mut self, at: Cycles, ev: P::Ev) {
        self.q.push_at(at, Ev::Proto(ev));
    }

    /// Arms the exec-phase fetch watchdog for a remote fetch sent at
    /// `sent` (membership runs only): a fetch whose home dies before
    /// responding would hang the slot forever, so the watchdog converts
    /// the silence into a retry.
    pub(crate) fn arm_fetch_timeout(&mut self, si: usize, att: u32, stage: usize, sent: Cycles) {
        if self.cl.membership.enabled() {
            let deadline = sent + self.cl.membership.params().fetch_timeout;
            self.q
                .push_at(deadline, Ev::FetchTimeout { si, att, stage });
        }
    }

    pub(crate) fn alive(&self, si: usize, att: u32) -> bool {
        self.slots[si].attempt == att && self.slots[si].txn.is_some()
    }

    pub(crate) fn token(&self, si: usize) -> u64 {
        owner_token(self.slots[si].node, self.slots[si].slot)
    }

    /// Transactions currently running on `node` (admission-control load
    /// signal). Slots waiting on an admission deferral hold no txn and do
    /// not count.
    fn inflight_at(&self, node: NodeId) -> usize {
        self.slots
            .iter()
            .filter(|s| s.node == node && s.txn.is_some())
            .count()
    }

    /// Whether slot `si`'s transaction touches a partition a migration
    /// cutover moves.
    pub(crate) fn touches_moves(&self, si: usize, moves: &[(NodeId, NodeId)]) -> bool {
        self.slots[si]
            .txn
            .as_ref()
            .expect("txn active")
            .ops()
            .any(|o| moves.iter().any(|&(src, _)| o.home == src))
    }

    /// Whether a node died since slot `si`'s attempt started, so its
    /// routing decisions may be stale (epoch straddle). Planned-migration
    /// epoch bumps do not count: the dual-routing window keeps the source
    /// authoritative until the cutover fences actual straddlers.
    pub(crate) fn straddles_death(&self, si: usize) -> bool {
        let ep = self.slots[si].epoch;
        let m = &self.cl.membership;
        m.epoch_aware() && ep != m.epoch() && m.death_since(ep)
    }

    /// Stamps a transaction-lifecycle trace event for `si`'s slot.
    pub(crate) fn trace(&self, at: Cycles, si: usize, kind: EventKind) {
        let s = &self.slots[si];
        self.cl.tracer.emit(at, s.node.0, s.slot.0 as u32, kind);
    }

    /// Drops a stale fabric verb at `node` (epoch fencing): the sender
    /// was declared dead in an older configuration epoch, so its
    /// straggling traffic must not touch post-failover state.
    pub(crate) fn fence_verb(&mut self, node: NodeId, verb: Verb) {
        let now = self.q.now();
        self.cl.membership.stats.verbs_fenced += 1;
        if self.cl.tracer.is_enabled() {
            self.cl
                .tracer
                .emit(now, node.0, NO_SLOT, EventKind::VerbFenced { verb });
        }
    }

    fn on_start(&mut self, si: usize) {
        if self.draining {
            self.slots[si].txn = None;
            return;
        }
        let down = self.slots[si].node.0 as usize;
        if self.crashed[down] {
            // The node is down: defer this slot until the restart.
            if let Some(r) = self.restart_at[down] {
                self.q.push_at(r, Ev::Start { si });
            }
            return;
        }
        if self.slots[si].txn.is_some() && !self.slots[si].awaiting_start {
            // Stale duplicate: a pre-crash backoff Start deferred to the
            // restart instant collides with the crash handler's own
            // restart Start. The slot is already running this attempt.
            return;
        }
        let now = self.q.now();
        // Admission control gates *new* transactions only — a slot
        // retrying an in-flight transaction is never deferred.
        if self.slots[si].txn.is_none() && self.cl.admission.active() {
            let node = self.slots[si].node;
            let inflight = self.inflight_at(node);
            let occupancy = self.cl.lock_bufs[node.0 as usize].occupancy();
            if !self.cl.admission.admit(node, inflight, occupancy) {
                if self.cl.tracer.is_enabled() {
                    self.trace(now, si, EventKind::AdmissionThrottled);
                }
                if self.meas.measuring() && !self.draining {
                    self.meas.stats.overload.admission_throttled += 1;
                }
                self.cl.obs_admission(now);
                self.q
                    .push_at(now + self.cl.cfg.overload.admit_retry, Ev::Start { si });
                return;
            }
        }
        let fresh = self.slots[si].txn.is_none();
        if fresh {
            let (node, core) = (self.slots[si].node, self.slots[si].core);
            let (app, mut spec) =
                self.ws
                    .next_txn(node, core, &self.cl.db, &mut self.slot_rngs[si]);
            if let Some(f) = self.locality {
                hades_workloads::spec::apply_locality(
                    &mut spec,
                    node,
                    f,
                    &self.cl.db,
                    &mut self.slot_rngs[si],
                );
            }
            let txn = resolve(&self.cl.db, &spec, app);
            let s = &mut self.slots[si];
            s.txn = Some(txn);
            s.first_start = now;
            s.consec_squashes = 0;
        }
        let retry_limit = self.cl.fallback_threshold();
        let epoch = self.cl.membership.epoch();
        let s = &mut self.slots[si];
        s.fallback = s.consec_squashes >= retry_limit;
        s.stage = 0;
        s.outstanding = 0;
        s.decided = false;
        s.awaiting_start = false;
        s.epoch = epoch;
        P::reset_slot(&mut s.p);
        let spn = self.cl.cfg.shape.slots_per_node();
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        self.cl.obs_start(si, node.0, (si % spn) as u32, now, fresh);
        let att = self.slots[si].attempt;
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::TxnBegin { attempt: att });
            self.trace(now, si, EventKind::PhaseBegin(TracePhase::Exec));
        }
        let done = self
            .cl
            .run_on_core(node, core, now, self.cl.cfg.sw.app_per_txn);
        if self.slots[si].fallback {
            self.slots[si].fallback_cursor = 0;
            if self.meas.measuring() && !self.draining {
                self.meas.stats.fallbacks += 1;
            }
        }
        P::launch(self, si, att, now, done);
    }

    /// Commit bookkeeping once slot `si`'s commit completes: ledger,
    /// measured statistics, admission outcome, and the next transaction.
    fn on_committed(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        let record = self.meas.measuring() && !self.draining;
        {
            let s = &self.slots[si];
            let (node, latency) = (s.node.0, now.saturating_sub(s.first_start));
            self.cl.obs_commit(si, node, now, latency, record);
        }
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseEnd(TracePhase::Commit));
            self.trace(now, si, EventKind::TxnCommit);
        }
        if record {
            P::record_commit(self, si, now);
        }
        let s = &mut self.slots[si];
        let txn = s.txn.take().expect("txn active");
        let txn_attempts = s.consec_squashes as u64 + 1;
        s.attempt = att + 1;
        s.consec_squashes = 0;
        s.decided = false;
        self.total_sum_delta += txn.sum_delta;
        self.total_commits += 1;
        self.cl.admission.note_outcome(self.slots[si].node, false);
        if record {
            let s = &self.slots[si];
            let stats = &mut self.meas.stats;
            if self.cl.cfg.overload.enabled() {
                stats.overload.max_attempts = stats.overload.max_attempts.max(txn_attempts);
            }
            stats.committed += 1;
            stats.note_commit_node(s.node.0);
            stats.committed_per_app[txn.app] += 1;
            stats.committed_sum_delta += txn.sum_delta;
            stats.latency.record(now.saturating_sub(s.first_start));
            stats
                .phases
                .add(Phase::Execution, s.exec_end.saturating_sub(s.first_start));
        }
        if !self.draining && self.meas.on_commit(now) {
            self.draining = true;
        }
        self.q.push_at(now, Ev::Start { si });
    }

    /// Squashes slot `si`'s attempt: releases its footprint, counts the
    /// squash, and schedules the retry after a backoff.
    pub(crate) fn squash(&mut self, si: usize, reason: SquashReason) {
        if self.slots[si].awaiting_start || self.slots[si].txn.is_none() {
            return; // already squashed in this window
        }
        let now = self.q.now();
        debug_assert!(!self.slots[si].decided, "squash past point of no return");
        self.cl
            .obs_abort(si, self.slots[si].node.0, reason.label(), now);
        if self.cl.tracer.is_enabled() {
            self.trace(
                now,
                si,
                EventKind::TxnAbort {
                    reason: reason.label(),
                },
            );
        }
        self.slots[si].awaiting_start = true;
        let (from, released) = P::release(self, si, now);
        let node = self.slots[si].node;
        if self.meas.measuring() && !self.draining {
            self.meas.stats.note_squash(node.0, reason);
        }
        let s = &mut self.slots[si];
        P::reset_slot(&mut s.p);
        s.attempt += 1;
        s.consec_squashes += 1;
        let attempts = s.consec_squashes;
        let backoff = if P::TIMEOUT_BACKOFF
            && reason == SquashReason::CommitTimeout
            && self.cl.injector_active()
        {
            let step = self
                .cl
                .fabric
                .injector()
                .retry()
                .step(attempts.saturating_sub(1));
            self.cl.fabric.injector_mut().recovery.timeout_retries += 1;
            if self.cl.tracer.is_enabled() {
                self.trace(
                    now,
                    si,
                    EventKind::Recovery {
                        action: RecoveryKind::TimeoutRetry,
                    },
                );
            }
            step
        } else {
            let (step, boosted) = self.cl.contended_backoff(attempts);
            if boosted {
                if self.cl.tracer.is_enabled() {
                    self.trace(now, si, EventKind::StarvationBoost { attempt: attempts });
                }
                if self.meas.measuring() && !self.draining {
                    self.meas.stats.overload.starvation_boosts += 1;
                }
            }
            step
        };
        self.cl.admission.note_outcome(node, true);
        // The next attempt reuses this slot's owner token: under fault
        // injection it must not restart before the releases have landed.
        let mut restart = from + backoff;
        if self.cl.injector_active() {
            restart = restart.max(released);
        }
        self.q.push_at(restart, Ev::Start { si });
    }

    /// Node crash: commits past the point of no return finalize the
    /// ledger, the protocol drops each in-flight transaction, and the
    /// slots are wiped and rescheduled for the restart.
    fn on_node_crash(&mut self, node: NodeId) {
        let now = self.q.now();
        let nb = node.0 as usize;
        let restart = self
            .cl
            .fabric
            .injector()
            .crashes()
            .iter()
            .filter(|c| c.node == node.0 && c.at <= now)
            .filter_map(|c| c.restart_at)
            .filter(|&r| r > now)
            .max();
        self.crashed[nb] = true;
        self.restart_at[nb] = restart;
        self.cl.fabric.injector_mut().faults.crashes += 1;
        if self.cl.tracer.is_enabled() {
            self.cl.tracer.emit(
                now,
                node.0,
                NO_SLOT,
                EventKind::FaultInjected {
                    fault: InjectedFault::NodeCrash,
                },
            );
        }
        let spn = self.cl.cfg.shape.slots_per_node();
        for si in nb * spn..(nb + 1) * spn {
            let Some(txn) = &self.slots[si].txn else {
                continue;
            };
            if self.slots[si].decided {
                // Effects are already applied or in flight on the
                // reliable transport: the commit survives the crash.
                self.total_sum_delta += txn.sum_delta;
                self.total_commits += 1;
            }
            P::crash_slot(self, si);
            let s = &mut self.slots[si];
            s.txn = None;
            s.attempt += 1;
            s.consec_squashes = 0;
            s.fallback = false;
            s.stage = 0;
            s.outstanding = 0;
            s.fallback_cursor = 0;
            s.awaiting_start = false;
            s.decided = false;
            P::reset_slot(&mut s.p);
            if let Some(r) = restart {
                self.q.push_at(r, Ev::Start { si });
            }
        }
    }

    /// Node restart: the protocol recovers the node's state; the slots
    /// resume at the `Start`s the crash scheduled.
    fn on_node_restart(&mut self, node: NodeId) {
        let now = self.q.now();
        let nb = node.0 as usize;
        if !self.crashed[nb] {
            return;
        }
        self.crashed[nb] = false;
        self.restart_at[nb] = None;
        self.cl.fabric.injector_mut().faults.restarts += 1;
        if self.cl.tracer.is_enabled() {
            self.cl.tracer.emit(
                now,
                node.0,
                NO_SLOT,
                EventKind::FaultInjected {
                    fault: InjectedFault::NodeRestart,
                },
            );
        }
        P::restart(self, node, now);
    }

    /// Cluster-lease renewal (membership layer): a live node refreshes
    /// its liveness timestamp; crashed nodes stay silent and age out.
    fn on_lease_renew(&mut self, node: NodeId) {
        if self.draining {
            return;
        }
        let now = self.q.now();
        if !self.crashed[node.0 as usize] && self.cl.renewal_lands(now, node) {
            self.cl.membership.note_renewal(node, now);
        }
        self.q.push_at(
            now + self.cl.renewal_interval_for(now, node),
            Ev::LeaseRenew { node },
        );
    }

    /// Failure-detector sweep (membership layer): nodes whose renewals
    /// went silent past the suspicion deadline are declared dead — with
    /// quorum gating on, only when a majority view backs the declaration
    /// — the cluster reconfigures around them (epoch, promotion) and the
    /// protocol recovers.
    fn on_membership_tick(&mut self) {
        if self.draining {
            return;
        }
        let now = self.q.now();
        for dead in self.cl.membership_scan(now) {
            if self.cl.reconfigure_after_death(dead, now) {
                P::after_death(self, dead);
            }
        }
        self.q.push_at(
            now + self.cl.membership.renew_interval(),
            Ev::MembershipTick,
        );
    }

    /// Planned-reconfiguration tick: drives the cluster's migration state
    /// machine; at cutover the protocol fences the in-flight transactions
    /// that straddle the routing flip (DESIGN.md §15).
    fn on_migration_tick(&mut self) {
        if self.draining {
            return; // like the detector, the plan freezes once the run drains
        }
        let now = self.q.now();
        match self.cl.migration_step(now) {
            MigrationAction::Rearm(at) => self.q.push_at(at, Ev::MigrationTick),
            MigrationAction::Cutover(moves) => P::cutover(self, now, &moves),
            MigrationAction::Done => {}
        }
    }
}
