//! HADES-H (Section V-D): HADES with its local path kept in software.
//!
//! The engine is [`HadesSim`] on [`LocalPath::Software`]; this module
//! keeps the `HadesHSim::new` entry point.

use crate::hades::{HadesSim, LocalPath};
use crate::runtime::{Cluster, WorkloadSet};

/// Builds HADES-H runs.
#[derive(Debug)]
pub struct HadesHSim;

impl HadesHSim {
    /// Builds a HADES-H run: `warmup` commits discarded, `measure`
    /// commits recorded.
    #[allow(clippy::new_ret_no_self)] // the run is a `HadesSim`
    pub fn new(cl: Cluster, ws: WorkloadSet, warmup: u64, measure: u64) -> HadesSim {
        HadesSim::with_path(LocalPath::Software, cl, ws, warmup, measure)
    }
}
