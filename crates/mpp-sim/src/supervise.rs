//! Supervision primitives: cooperative cancellation and kernel
//! watchdog budgets.
//!
//! The kernel itself never aborts the process — every abnormal outcome
//! surfaces as a [`SimError`](crate::SimError) through
//! [`try_simulate_with`](crate::try_simulate_with). The two knobs here
//! bound *how long* a simulation may run before the kernel gives up:
//!
//! * [`CancelToken`] — a shared flag an external supervisor (the sweep
//!   engine, a service handler, a signal handler) flips to make every
//!   simulation holding the token exit with `SimError::Cancelled` at
//!   its next scheduling step.
//! * [`SimBudget`] — event-count and virtual-time ceilings that convert
//!   livelocks (e.g. infinite retry loops under hostile fault plans)
//!   into `SimError::WatchdogTripped` with a per-rank diagnostic dump
//!   instead of an unbounded spin.
//!
//! A wall-clock deadline is the supervisor's: it cancels the run's
//! token when time is up (`stp serve`'s per-request deadline).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mpp_model::Time;

/// A shared, clonable cancellation flag.
///
/// Cloning is cheap (one `Arc` bump); every clone observes the same
/// flag. Cancellation is *cooperative*: the kernel polls the token
/// between scheduling steps, so a cancelled simulation stops at a clean
/// event boundary with all its state intact, never mid-operation.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Flip the flag. Idempotent; wakes nothing by itself — holders
    /// notice at their next poll.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has [`cancel`](Self::cancel) been called (on any clone)?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Watchdog ceilings for one simulation run. The default budget is
/// unlimited on every axis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimBudget {
    /// Maximum kernel events (sends, receive matches, timeouts,
    /// iteration marks, finishes) before the watchdog trips.
    pub max_events: Option<u64>,
    /// Maximum virtual time (ns) any scheduled event may reach.
    pub max_virtual_ns: Option<Time>,
}

impl SimBudget {
    /// True when no ceiling is set (the watchdog costs nothing).
    pub fn is_unlimited(&self) -> bool {
        self.max_events.is_none() && self.max_virtual_ns.is_none()
    }
}

/// How a supervised run was interrupted. The executors translate trips
/// into full [`SimError`](crate::SimError)s with per-rank state dumps.
pub(crate) enum WatchdogTrip {
    /// The event-count or virtual-time budget was exceeded;
    /// carries `(events_processed, virtual_ns)` at trip time.
    Budget(u64, Time),
    /// The run's [`CancelToken`] was cancelled.
    Cancelled,
}

/// Per-run watchdog state of the executor. Constructed only
/// when the run is supervised (some ceiling or a cancel token is set),
/// so unsupervised runs pay a single `Option` check per scheduling step.
pub(crate) struct Watchdog {
    budget: SimBudget,
    cancel: Option<CancelToken>,
}

impl Watchdog {
    /// A watchdog for this run, or `None` when nothing is bounded.
    pub fn for_run(budget: &SimBudget, cancel: &Option<CancelToken>) -> Option<Self> {
        if budget.is_unlimited() && cancel.is_none() {
            return None;
        }
        Some(Watchdog {
            budget: budget.clone(),
            cancel: cancel.clone(),
        })
    }

    /// Check every ceiling against the run's progress. `events` is the
    /// kernel's processed-event count, `virtual_ns` the virtual time of
    /// the event about to be dispatched. Called once per scheduling
    /// step.
    pub fn check(&self, events: u64, virtual_ns: Time) -> Result<(), WatchdogTrip> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Err(WatchdogTrip::Cancelled);
            }
        }
        if let Some(max) = self.budget.max_events {
            if events > max {
                return Err(WatchdogTrip::Budget(events, virtual_ns));
            }
        }
        if let Some(max) = self.budget.max_virtual_ns {
            if virtual_ns > max {
                return Err(WatchdogTrip::Budget(events, virtual_ns));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        a.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn any_ceiling_makes_a_budget_limited() {
        assert!(SimBudget::default().is_unlimited());
        for b in [
            SimBudget {
                max_events: Some(10),
                ..SimBudget::default()
            },
            SimBudget {
                max_virtual_ns: Some(1_000),
                ..SimBudget::default()
            },
        ] {
            assert!(!b.is_unlimited(), "{b:?}");
        }
    }
}
