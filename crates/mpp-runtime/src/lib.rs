//! The names the algorithm crates import from the simulator.
//!
//! Algorithms in `stp-core` and `collectives` are written against the
//! kernel's [`RankCtx`] and run on [`try_simulate_with`]; this crate only
//! re-exports those names, plus the boxed future an object-safe
//! algorithm returns.

use std::future::Future;
use std::pin::Pin;

pub use mpp_sim::{
    simulate, try_simulate_with, BlockedEvent, CancelToken, CommStats, DropEvent, Envelope,
    EventKind, EventLog, ExecMode, FaultPlan, FinishEvent, IterStats, KernelCounters, LinkOutage,
    LinkWindow, NodeCrash, Payload, RankCtx, RecvEvent, RetryPolicy, SendEvent, SimBudget,
    SimConfig, SimError, SimOutcome, Tag, XferEvent,
};

/// Boxed future for algorithm-level suspension points (e.g.
/// `StpAlgorithm::run`), which must stay object-safe. Futures never
/// cross threads, so no `Send` bound is required.
pub type CommFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;
