//! # stp-broadcast — facade crate
//!
//! Re-exports the full stack of the s-to-p broadcasting reproduction
//! (Hambrusch, Khokhar & Liu, ICPP 1996) under one roof:
//!
//! * [`model`] — machine models (topologies, routing, Paragon/T3D
//!   parameter presets, placement).
//! * [`sim`] — the deterministic discrete-event simulator and its rank
//!   handle, `RankCtx`, that every algorithm is written against.
//! * [`runtime`] — the simulator names the algorithm crates import.
//! * [`coll`] — baseline collective operations.
//! * [`stp`] — the s-to-p broadcasting algorithms, distributions,
//!   metrics, and experiment runner.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use collectives as coll;
pub use mpp_model as model;
pub use mpp_runtime as runtime;
pub use mpp_sim as sim;
pub use stp_core as stp;

/// One-stop prelude for applications.
pub mod prelude {
    pub use mpp_model::{LibraryKind, Machine, MeshShape, Placement, Topology};
    pub use mpp_sim::{simulate, simulate_with, CommStats, Envelope, RankCtx, SimConfig};
    pub use stp_core::prelude::*;
}
