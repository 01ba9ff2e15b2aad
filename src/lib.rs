//! # HADES — hardware-assisted distributed transactions (ISCA 2024 reproduction)
//!
//! Facade crate re-exporting every subsystem of the reproduction of
//! *"HADES: Hardware-Assisted Distributed Transactions in the Age of Fast
//! Networks and SmartNICs"* (Kokolis et al., ISCA 2024).
//!
//! The interesting entry points are:
//!
//! * [`core`] — the three distributed transactional protocols (the
//!   FaRM-style software [`core::baseline`], and the [`core::hades`]
//!   engine, which runs hardware HADES or hybrid HADES-H by its local
//!   path) plus the experiment runner.
//! * [`workloads`] — TPC-C, TATP, Smallbank and YCSB A/B over four
//!   key-value stores.
//! * [`sim`] — the deterministic discrete-event substrate and the Table III
//!   configuration surface.
//! * [`telemetry`] — structured tracing (transaction lifecycle, NIC verbs,
//!   Bloom filter and Locking Buffer activity), a metrics registry, and
//!   JSONL / Chrome `trace_event` exporters.
//!
//! See `README.md` for a quickstart and `DESIGN.md` / `EXPERIMENTS.md` for
//! the reproduction methodology and measured results.

pub use hades_bloom as bloom;
pub use hades_core as core;
pub use hades_fault as fault;
pub use hades_mem as mem;
pub use hades_net as net;
pub use hades_sim as sim;
pub use hades_storage as storage;
pub use hades_telemetry as telemetry;
pub use hades_workloads as workloads;
