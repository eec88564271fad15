//! The message-passing runtime the broadcasting algorithms are written
//! against.
//!
//! Algorithms in `stp-core` and `collectives` are expressed over the
//! [`Communicator`] trait and execute on [`SimComm`], which runs them on
//! the deterministic `mpp-sim` discrete-event kernel and yields *virtual*
//! times on a modelled Paragon or T3D — the backend every figure of the
//! paper is regenerated on. Independence from delivery order is tested
//! on the same kernel: a [`FaultPlan`] with seeded delays reorders
//! arrivals and replays exactly from its seed.
//!
//! Every run records per-rank, per-iteration [`CommStats`], from which
//! `stp-core::metrics` computes the five parameters of the paper's
//! Figure 2 (congestion, wait, #send/rec, av_msg_lgth, av_act_proc).

pub mod comm;
pub mod sim_backend;
pub mod stats;

pub use comm::{recv_from, BarrierFut, CommFuture, Communicator, Message, RecvFut, RecvTimeoutFut};
pub use mpp_sim::{
    schedule_log, BlockedEvent, CancelToken, DropEvent, EventKind, EventLog, ExecMode, FaultPlan,
    FaultStats, FinishEvent, KernelCounters, LinkOutage, LinkWindow, NodeCrash, Payload, RecvEvent,
    RetryPolicy, ScheduleLog, ScheduleRecording, SendEvent, SimBudget, SimConfig, SimError,
    XferEvent,
};
pub use sim_backend::{
    run_simulated, run_simulated_with, try_run_simulated_with, RunOutput, SimComm,
};
pub use stats::{CommStats, IterStats};

/// Message tag (re-exported from the simulator for convenience).
pub type Tag = mpp_sim::Tag;
