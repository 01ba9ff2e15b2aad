//! # hades-core — the HADES distributed transactional protocols
//!
//! The primary contribution of the paper, reproduced as three protocols
//! on one discrete-event engine shell over the shared substrates:
//!
//! * [`engine`] — the shell both protocols share: the slot lifecycle
//!   (admission-gated start, commit bookkeeping, squash and backoff), the
//!   run loop and its statistics, node crash and restart, lease renewal,
//!   the failure detector and the migration tick. A protocol plugs in
//!   through the crate-private `Hooks` trait.
//! * [`baseline`] — the optimized FaRM-style software protocol (*SW-Impl*,
//!   Section III), with Fig 3 overhead accounting.
//! * [`hades`] — the HADES protocol: Bloom filters in the NIC, partial
//!   directory locking, and the Intend-to-commit / Ack / Validation
//!   one-round-trip distributed commit. Its hardware local path
//!   ([`hades::LocalPath::Hardware`]) is HADES (Section V-A): Bloom
//!   filters beside the directory and `WrTX_ID` tags. Its software local
//!   path ([`hades::LocalPath::Software`]) is HADES-H (Section V-D):
//!   record-granularity read/write sets and Local Validation.
//! * [`hades_h`] — the `HadesHSim::new` entry point of HADES-H.
//!
//! [`runner`] drives any of the three over the paper's workloads and
//! cluster shapes; [`hwcost`] reproduces the Section VI hardware-storage
//! arithmetic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod engine;
pub mod hades;
pub mod hades_h;
pub mod hwcost;
pub mod membership;
pub mod overload;
pub mod runner;
pub mod runtime;
pub mod stats;

pub use membership::Membership;
pub use overload::AdmissionController;
pub use runner::{compare_protocols, run_mix, run_single, Experiment, Protocol};
pub use runtime::{Cluster, RunOutcome, WorkloadSet};
pub use stats::{MembershipStats, Overhead, OverloadStats, Phase, RunStats, SquashReason};
