//! The message-passing runtime the broadcasting algorithms are written
//! against.
//!
//! Algorithms in `stp-core` and `collectives` are expressed over the
//! [`Communicator`] trait and can execute on two interchangeable backends:
//!
//! * [`SimComm`] — runs on the deterministic `mpp-sim` discrete-event
//!   kernel and yields *virtual* times on a modelled Paragon or T3D. This
//!   is the backend every figure of the paper is regenerated on.
//! * [`ThreadComm`] — runs each rank as a real OS thread with mpsc
//!   channels. No timing model; used to validate that the algorithms are
//!   honest message-passing programs (no hidden shared state) and for the
//!   failure-injection tests.
//!
//! Both backends record per-rank, per-iteration [`CommStats`], from which
//! `stp-core::metrics` computes the five parameters of the paper's
//! Figure 2 (congestion, wait, #send/rec, av_msg_lgth, av_act_proc).

pub mod comm;
pub mod sim_backend;
pub mod stats;
pub mod thread_backend;

pub use comm::{recv_from, BarrierFut, CommFuture, Communicator, Message, RecvFut, RecvTimeoutFut};
pub use mpp_sim::{
    schedule_log, BlockedEvent, CancelToken, DropEvent, EventKind, EventLog, ExecMode, FaultPlan,
    FaultStats, FinishEvent, KernelCounters, LinkOutage, LinkWindow, NodeCrash, Payload, RecvEvent,
    RetryPolicy, ScheduleLog, ScheduleRecording, SendEvent, SimBudget, SimConfig, SimError,
    XferEvent,
};
pub use sim_backend::{
    run_simulated, run_simulated_traced, run_simulated_with, try_run_simulated_with, RunOutput,
    SimComm,
};
pub use stats::{CommStats, IterStats};
pub use thread_backend::{
    run_threads, run_threads_faulty, ThreadComm, ThreadFault, ThreadRunOutput,
};

/// Message tag (re-exported from the simulator for convenience).
pub type Tag = mpp_sim::Tag;
