//! The library of the `repro` figure binary: every figure as panels of
//! described runs or as a function ([`figures`]), and the SVG renderer
//! of their CSV output ([`plot`]).

pub mod figures;
pub mod plot;

use stp_core::runner::SweepRunner;

/// The sweep pool of the `repro` binary, honouring
/// `STP_SWEEP_WORKERS`. Reads (and warns about) the process environment,
/// so call it once per process.
pub fn sweep_runner() -> SweepRunner {
    stp_core::env::Env::from_process().sweep_runner()
}
