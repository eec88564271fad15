//! The benchmark harness: inputs, child-process plumbing, the six
//! workloads and their output checks. It has no dependency on the
//! crates it measures — `stp-benchmark` sees the product exactly as a
//! user does. `stp-benchmark-trace` (the `trace` package) reuses this
//! library for the inputs and adds the in-process spans.

pub mod cli;
pub mod proc;
pub mod rng;
pub mod stats;
pub mod text;
pub mod universe;
pub mod workloads;
