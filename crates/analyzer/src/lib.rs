//! Static analysis of recorded communication schedules.
//!
//! The simulator's `ScheduleRecorder` mode (`SimConfig::record`,
//! surfaced as [`stp_core::runner::try_record_sources`]) captures every
//! `(step, src, dst, tag, payload)` send and every receive match of a
//! run as a symbolic schedule — including partial schedules of runs that
//! deadlock. This crate turns that event log into a communication graph
//! and checks it:
//!
//! 1. **Deadlock** — the run aborted with every live rank blocked; the
//!    checker reconstructs the wait-for graph from the `Blocked` events
//!    and reports the cycle (or the unsatisfiable waits) behind it.
//! 2. **Unmatched sends** — messages that were still undelivered when
//!    their destination finished: a receive the algorithm forgot.
//! 3. **Match ambiguity** — a receive that matched while a *second*
//!    in-flight message with the same `(src, tag)` sat in the same
//!    mailbox: delivery order alone decided which message was consumed,
//!    so the schedule is racy under any reordering of equal-time events.
//! 4. **Payload leaks** — s-to-p completeness: attributing every
//!    delivered message to its source by the slots its handle carries
//!    (a bare source message, or a
//!    [`MessageSet`](stp_core::msgset::MessageSet) of them), every
//!    rank must end up holding all `s` source messages.
//!
//! Per-link message counts over the machine's dimension-ordered routes
//! (`mpp-model`) are computed alongside, with an optional overload
//! threshold.
//!
//! The same invariants run dynamically when `SimConfig::strict` is set —
//! debug builds of the experiment runner enable that automatically — and
//! the `stp lint` subcommand sweeps the full algorithm × distribution ×
//! mesh matrix through the static checker (see [`lint`]).

pub mod baseline;
pub mod checks;
pub mod cost;
pub mod fixtures;
pub mod lint;
#[cfg(test)]
mod naive;
pub mod perf_checks;
pub mod report;
pub mod sarif;
pub mod schedule;

pub use baseline::{finding_key, Baseline};
pub use checks::{
    analyze, registry, Analysis, AnalyzeOpts, Check, CheckCtx, CheckOutput, Finding, FindingKind,
    Severity,
};
pub use cost::{replay, CostReport, CriticalPath, LinkTimeline, PortUse};
pub use lint::{
    hush_expected_panics, lint_fixtures, lint_matrix, lint_matrix_supervised, lint_point,
    lint_recorded, stage_totals, timed, FixtureVerdict, LintConfig, LintEntry, SupervisedLint,
};
pub use report::{entries_to_json, entry_to_json, fixtures_to_json, supervised_report_json};
pub use sarif::sarif_report;
pub use schedule::{ContentIds, Schedule};
