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
//! Two executors implement this model, selected by the
//! [`SimConfig::exec`] value (nothing in this crate reads the process
//! environment):
//!
//! * [`ExecMode::Cooperative`] (default): all rank programs are
//!   multiplexed on the kernel's own thread as resumable futures.
//!   Sends, compute and memcpy charges are handled rank-locally and
//!   deferred; only `recv`/`barrier` suspend. Scheduling uses an
//!   indexed ready-queue (min-heap with lazy invalidation plus a
//!   blocked-recv wakeup index) — O(log p) per event.
//! * [`ExecMode::Threaded`]: the original one-OS-thread-per-rank
//!   trap/grant model, kept as the differential tests' oracle.
//!
//! Both executors share the same event-processing core and are verified
//! to produce byte-identical outcomes (see `tests/exec_equivalence.rs`
//! and DESIGN.md §8).
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
//! How overlapping transfers contend for links is selected by
//! [`ContentionModel`](mpp_model::ContentionModel): the default
//! `Pipelined` wormhole model (staggered per-link windows), `Circuit`
//! (whole route held until the tail drains), or `Shared` (links as
//! bandwidth servers at the hardware channel rate). See DESIGN.md §6 and
//! the `repro contention` ablation.
//!
//! # Entry point
//!
//! [`simulate`] runs one per-rank program on every rank of a machine and
//! returns per-rank results, finish times, and the makespan. A run's one
//! recording is its [`EventLog`] ([`SimConfig::recorder`]): the schedule
//! analyzer reads it, and [`summarize`] / [`render_timeline`] turn it into
//! message totals and a text timeline.

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
pub mod supervise;
pub mod trace;

pub use error::SimError;
pub use kernel::{
    simulate, simulate_with, try_simulate_with, BarrierFuture, DeadlockInfo, Envelope, ExecMode,
    FaultStats, KernelCounters, RankCtx, RecvFuture, RecvTimeoutFuture, SimConfig, SimOutcome,
};
pub use mpp_model::{FaultPlan, LinkOutage, NodeCrash, RetryPolicy};
pub use network::NetworkState;
pub use payload::{copy_metrics, CopyMetrics, Payload, PayloadReader};
pub use record::{
    schedule_log, BlockedEvent, DropEvent, EventKind, EventLog, FinishEvent, LinkWindow, RecvEvent,
    ScheduleLog, ScheduleRecording, SendEvent, XferEvent,
};
pub use supervise::{CancelToken, SimBudget};
pub use trace::{render_timeline, summarize, TraceSummary};

/// Message tag, used by algorithms to match iteration/phase traffic.
pub type Tag = u32;
