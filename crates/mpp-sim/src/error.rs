//! Structured simulation errors.
//!
//! Every way a simulation can end abnormally — deadlock, a panicking
//! rank program, a tripped watchdog budget, a wall-clock deadline, or
//! external cancellation — surfaces as a [`SimError`] from
//! [`try_simulate_with`](crate::try_simulate_with). The panicking entry
//! points ([`simulate`](crate::simulate) /
//! [`simulate_with`](crate::simulate_with)) are thin shims that unwrap
//! the same `Result`, so their panic messages are exactly the `Display`
//! forms below; library callers who want to survive a bad run use the
//! `try_` APIs and never abort.

use std::fmt;

use mpp_model::Time;

use crate::kernel::DeadlockInfo;

/// Why a simulation failed to run to completion.
#[derive(Debug, Clone)]
pub enum SimError {
    /// Every live rank is blocked in `recv` with no matching message in
    /// flight (or waiting at a barrier some blocked rank will never
    /// reach). Carries a per-rank state dump.
    Deadlock {
        /// `Machine::name` of the simulated machine.
        machine: String,
        /// Per-rank one-line state descriptions at deadlock time.
        info: DeadlockInfo,
    },
    /// A rank program panicked. The kernel shuts the remaining ranks
    /// down cleanly and reports the captured panic message.
    RankPanic {
        /// The rank whose program panicked.
        rank: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// The run exceeded a [`SimBudget`](crate::SimBudget) event-count or
    /// virtual-time ceiling — the livelock analogue of a deadlock
    /// (e.g. an infinite retry loop under a hostile fault plan).
    WatchdogTripped {
        /// Kernel events processed when the watchdog fired.
        events: u64,
        /// Virtual time of the event that tripped the budget (ns).
        virtual_ns: Time,
        /// Per-rank one-line state descriptions at trip time.
        states: Vec<String>,
    },
    /// The run exceeded the wall-clock ceiling of its
    /// [`SimBudget`](crate::SimBudget).
    DeadlineExceeded {
        /// The configured ceiling, in milliseconds.
        wall_ms: u64,
    },
    /// The run's [`CancelToken`](crate::CancelToken) was cancelled.
    Cancelled,
    /// A [`SimConfig::strict`](crate::SimConfig::strict) runtime check
    /// failed (ambiguous receive match, or a rank finished with
    /// undelivered mailbox messages). The payload is the diagnostic.
    StrictViolation(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // These strings are load-bearing: the panicking shims format
        // errors straight into panic messages, and both the
        // `#[should_panic(expected = "deadlock")]` tests and the
        // analyzer's expected-panic hook match on these substrings.
        match self {
            SimError::Deadlock { machine, info } => {
                write!(f, "simulation deadlock on {machine}: {info:#?}")
            }
            SimError::RankPanic { rank, message } => write!(
                f,
                "rank {rank} terminated abnormally (panicked inside the simulated program): \
                 {message}"
            ),
            SimError::WatchdogTripped {
                events,
                virtual_ns,
                states,
            } => {
                write!(
                    f,
                    "simulation watchdog tripped after {events} kernel events \
                     at {virtual_ns}ns of virtual time (livelock?): {states:#?}"
                )
            }
            SimError::DeadlineExceeded { wall_ms } => {
                write!(f, "simulation exceeded its {wall_ms}ms wall-clock deadline")
            }
            SimError::Cancelled => write!(f, "simulation cancelled"),
            SimError::StrictViolation(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl SimError {
    /// Short machine-readable kind tag (stable across releases; used by
    /// sweep failure reports and checkpoints).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Deadlock { .. } => "deadlock",
            SimError::RankPanic { .. } => "rank_panic",
            SimError::WatchdogTripped { .. } => "watchdog",
            SimError::DeadlineExceeded { .. } => "deadline",
            SimError::Cancelled => "cancelled",
            SimError::StrictViolation(_) => "strict_violation",
        }
    }
}

/// Stringify a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
