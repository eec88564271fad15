//! Machine models for message-passing MPPs.
//!
//! This crate describes the *hardware* side of the reproduction: network
//! topologies (2-D mesh, 3-D torus, hypercube), deterministic
//! dimension-ordered routing, per-machine cost parameters (software startup,
//! per-byte bandwidth, per-hop latency, memory-copy cost), and the mapping
//! from *virtual* processor ranks (what an application sees) to *physical*
//! network nodes.
//!
//! Two concrete machines from the paper are provided as presets:
//!
//! * [`Machine::paragon`] — the Intel Paragon: a 2-D mesh with
//!   dimension-ordered (XY) wormhole routing and identity placement
//!   (applications execute on sub-meshes of a specified dimension).
//! * [`Machine::t3d`] — the Cray T3D: a 3-D torus with higher link
//!   bandwidth and a contiguous block of ranks at a seed-derived
//!   rotation, reflecting that production T3D users could not control
//!   placement.
//!
//! Everything here is pure data + arithmetic; the discrete-event engine
//! that consumes these models lives in `mpp-sim`.

pub mod fault;
pub mod machine;
pub mod params;
pub mod placement;
pub mod shape;
pub mod topology;

pub use fault::{FaultPlan, LinkOutage, NodeCrash, RetryPolicy};
pub use machine::Machine;
pub use params::{LibraryKind, MachineParams};
pub use placement::Placement;
pub use shape::MeshShape;
pub use topology::{Link, NodeId, Topology};

/// Virtual time in nanoseconds. All simulator arithmetic is integral so
/// runs are bit-for-bit deterministic across platforms.
pub type Time = u64;
