//! # stp-core — s-to-p broadcasting on message-passing MPPs
//!
//! Reproduction of Hambrusch, Khokhar & Liu, *"Scalable S-to-P
//! Broadcasting on Message-Passing MPPs"* (ICPP 1996): in s-to-p
//! broadcasting, `s` of the `p` processors each hold a message that must
//! reach all `p` processors.
//!
//! The crate provides:
//!
//! * the seven broadcasting algorithms of the paper
//!   ([`algorithms`]): `2-Step`, `PersAlltoAll`, `Br_Lin`,
//!   `Br_xy_source`, `Br_xy_dim`, and one wrapper around the last three
//!   whose depth selects repositioning (`Repos_*`, depth 0) or
//!   partitioning (`Part_*`, depth 1);
//! * the source-distribution families of §4 ([`distribution`]): row,
//!   column, equal, right/left diagonal, band, cross, square block;
//! * ideal-distribution generation for repositioning ([`ideal`]);
//! * the Figure-2 metrics (congestion, wait, #send/rec, av_msg_lgth,
//!   av_act_proc) over measured statistics ([`metrics`]);
//! * a single-call experiment runner with built-in result verification
//!   ([`runner`]).
//!
//! ## Quick example
//!
//! ```
//! use mpp_model::Machine;
//! use stp_core::prelude::*;
//!
//! // 4x4 "Paragon", 5 sources on a right diagonal, 1 KiB messages.
//! let machine = Machine::paragon(4, 4);
//! let exp = Experiment {
//!     machine: &machine,
//!     dist: SourceDist::DiagRight,
//!     s: 5,
//!     msg_len: 1024,
//!     kind: AlgoKind::BrLin,
//! };
//! let outcome = exp.run().expect("simulation failed");
//! assert!(outcome.verified);
//! println!("Br_Lin took {:.3} ms", outcome.makespan_ms());
//! ```

pub mod algorithms;
pub mod checkpoint;
#[cfg(test)]
#[path = "../../mpp-sim/tests/support/counting_alloc.rs"]
mod counting_alloc;
pub mod distribution;
pub mod env;
pub mod ideal;
pub mod metrics;
pub mod msgset;
pub mod pattern;
pub mod predict;
pub mod quality;
pub mod runner;
pub mod select;
pub mod serve;
pub mod supervise;

/// Convenient glob import for applications and the figure binaries.
pub mod prelude {
    pub use crate::algorithms::{
        BrLin, BrXyDim, BrXySource, Part, PersAlltoAll, StpAlgorithm, StpCtx, TwoStep,
    };
    pub use crate::distribution::SourceDist;
    pub use crate::metrics::Figure2Row;
    pub use crate::msgset::{payload_for, MessageSet};
    pub use crate::predict::{estimate_ms, estimate_ns};
    pub use crate::quality::placement_quality;
    pub use crate::runner::{AlgoKind, Experiment, Outcome, RunControl, SweepRunner};
    pub use crate::select::recommend;
}
