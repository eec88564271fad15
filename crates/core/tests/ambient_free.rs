//! Defaults are values, not ambient state: with `STP_*` variables
//! exported, every environment-free constructor still builds exactly
//! what it builds in a clean process, and a simulation run through them
//! is unbounded. Only `stp_core::env` looks at the environment.
//!
//! This lives in its own integration-test binary because it edits the
//! process environment: cargo runs each test file as a separate
//! process, so the values cannot leak into other tests.

use mpp_runtime::{ExecMode, SimConfig};
use stp_core::env::Env;
use stp_core::runner::{RunControl, SweepRunner};
use stp_core::serve::{Planner, Request, ServeConfig};

#[test]
fn exported_variables_do_not_reach_the_default_constructors() {
    std::env::set_var("STP_WATCHDOG_EVENTS", "1");
    std::env::set_var("STP_SWEEP_WORKERS", "1");

    let config = SimConfig::default();
    assert!(config.budget.is_unlimited());
    assert_eq!(config.exec, ExecMode::Cooperative);
    let control = RunControl::default();
    assert!(control.budget.is_unlimited());
    assert_eq!(control.exec, None);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(SweepRunner::new().workers(), cores);
    assert_eq!(SweepRunner::sequential().workers(), 1);
    // The daemon's cold-plan bound is its own: the sweep variable does
    // not size it.
    let serve = ServeConfig::default();
    assert_eq!(serve.workers, cores.max(2));
    assert!(serve.budget.is_unlimited());
    assert_eq!(serve.exec, ExecMode::Cooperative);

    // A one-event watchdog would trip any real simulation; the planner
    // built from the default config plans to completion.
    let planner = Planner::new(&serve, None);
    let line = "{\"machine\":\"paragon\",\"rows\":4,\"cols\":4,\"dist\":\"equal\",\
                \"s\":4,\"L\":128,\"algo\":\"Br_Lin\"}";
    let Ok(Request::Plan(spec)) = planner.parse(line) else {
        panic!("plan request must parse");
    };
    let cold = planner.plan(&spec);
    assert!(cold.contains("\"status\":\"ok\""), "{cold}");
    assert!(cold.contains("\"verified\":true"), "{cold}");

    // The one reader does see them — as values it hands back.
    let env = Env::from_process();
    assert_eq!(env.budget().max_events, Some(1));
    assert_eq!(env.sweep_runner().workers(), 1);
}
