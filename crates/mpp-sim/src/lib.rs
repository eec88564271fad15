//! Deterministic discrete-event simulation of message-passing MPPs.
//!
//! # Execution model
//!
//! Rank programs are `async` state machines; the simulation kernel lets
//! **exactly one rank run at a time** ("sequentialized direct
//! execution"): a rank runs until its next blocking communication call,
//! and the kernel then resumes the runnable rank with the smallest
//! virtual clock (ties broken by rank id). Because every scheduling
//! decision is a pure function of virtual time and rank ids, two
//! simulations of the same program on the same
//! [`Machine`](mpp_model::Machine) produce bit-identical virtual times
//! and message orders, regardless of host scheduling.
//!
//! One executor implements this model: all rank programs are
//! multiplexed on the calling thread as resumable futures. Sends,
//! compute and memcpy charges are handled rank-locally and deferred;
//! only `recv`/`barrier` suspend. Scheduling uses a binary heap with a
//! one-entry front slot and lazy invalidation, plus a blocked-recv
//! wakeup index: a push and pop cost O(log p), and O(1) for the common
//! rank that re-enters below everyone else at the time it just left.
//! Nothing in this crate reads the process
//! environment. The analyzer's cost replay checks the order from the
//! recording alone: every timestamp, and which send each receive
//! matched (see DESIGN.md §7b and §8).
//!
//! # Timing model
//!
//! A send of `m` payload bytes from rank `u` to rank `v` (physical route
//! of `h` hops) costs, in virtual nanoseconds:
//!
//! ```text
//! ready  = clock(u) + α_send                    sender software
//! start  = max(ready, free slot of u's out-ports, free slot of v's
//!              in-ports − h·τ, per-link window constraints)
//! done   = start + h·τ + m·β
//! arrival at v's mailbox = done
//! clock(u) = ready                              (asynchronous send)
//! recv at v: clock(v) = max(clock(v), arrival) + α_recv
//! ```
//!
//! Each node has `ports_per_node` independent injection/ejection slots.
//! Overlapping transfers contend for links as pipelined wormholes: the
//! head reaches hop `i` at `start + i·τ` and each link is held for its
//! own staggered `m·β` window, so routes serialize on shared links only.
//! See DESIGN.md §6.
//!
//! # Entry point
//!
//! [`simulate`] runs one per-rank program on every rank of a machine and
//! returns per-rank results, finish times, the makespan and every rank's
//! [`CommStats`]. Rank programs hold one handle, the [`RankCtx`]: the
//! s-to-p algorithms and the collectives are written against it. A
//! run's one recording is its [`EventLog`] ([`SimConfig::record`],
//! returned on [`SimOutcome::log`]): the schedule analyzer reads it, and
//! [`summarize`] / [`render_timeline`] turn it into message totals and a
//! text timeline.

#[cfg(test)]
#[path = "../tests/support/counting_alloc.rs"]
mod counting_alloc;
pub mod error;
pub(crate) mod exec;
pub mod kernel;
pub(crate) mod mailbox;
pub mod network;
pub mod payload;
pub mod record;
pub(crate) mod sched;
pub(crate) mod slab;
pub mod stats;
pub mod supervise;
pub mod trace;

pub use error::SimError;
pub use kernel::{
    simulate, simulate_with, try_simulate_with, BarrierFuture, DeadlockInfo, Envelope, ExecMode,
    KernelCounters, RankCtx, RecvFuture, RecvTimeoutFuture, SimConfig, SimOutcome,
};
pub use mpp_model::{FaultPlan, LinkOutage, NodeCrash, RetryPolicy};
pub use network::NetworkState;
pub use payload::{copy_metrics, CopyMetrics, Payload, PayloadReader};
pub use record::{
    BlockedEvent, DropEvent, EventKind, EventLog, FinishEvent, LinkWindow, RecvEvent, SendEvent,
    XferEvent,
};
pub use stats::{CommStats, IterStats};
pub use supervise::{CancelToken, SimBudget};
pub use trace::{render_timeline, summarize, TraceSummary};

/// Message tag, used by algorithms to match iteration/phase traffic.
pub type Tag = u32;
