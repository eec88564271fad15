//! `stp-benchmark` — the end-to-end run (tracing absent).
//!
//! With `--workload` it is what the driver calls: one workload, a
//! human-readable report, and the result object as the last line. With
//! no `--workload` it runs all six and prints every end-to-end metric
//! by name and unit. Any failed output check makes it exit non-zero.

use std::process::ExitCode;

use stp_benchmark::cli::{print_header, result_line, scale_name, Args, USAGE};
use stp_benchmark::workloads::{self, Config, Outcome, E2E_METRICS, WORKLOADS};

fn print_outcome(name: &str, outcome: &Outcome) {
    println!("\n== {name}");
    for note in &outcome.notes {
        println!("   {note}");
    }
    for (def, value) in E2E_METRICS.iter().zip(outcome.metrics) {
        println!("   {:<12} {value:>16.4} {}", def.name, def.unit);
    }
    println!(
        "   failed_share {:>16.6} ratio ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for (count, value) in outcome.counts.iter().filter(|(_, v)| **v != 0.0) {
        println!("   {count:<24} {value} (exact)");
    }
    for failure in &outcome.failures {
        println!("   FAILED: {failure}");
    }
}

fn run_and_print(name: &str, cfg: &Config) -> Result<Outcome, String> {
    let outcome = workloads::run(name, cfg).map_err(|e| format!("{name}: {e}"))?;
    print_outcome(name, &outcome);
    Ok(outcome)
}

/// Run every workload once.
fn run_all(cfg: &Config) -> Result<Vec<Outcome>, String> {
    WORKLOADS
        .iter()
        .map(|name| run_and_print(name, cfg))
        .collect()
}

fn all_checks_passed(outcomes: &[Outcome]) -> bool {
    outcomes.iter().all(|outcome| outcome.failed == 0)
}

/// Relative worsening of `b` against `a` in the metric's bad direction
/// (negative when `b` is better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Two whole sets of runs of the same code must agree within the
/// benchmark's own bounds, and every exact count must agree exactly.
fn selfcheck(cfg: &Config) -> Result<bool, String> {
    println!("\n#### selfcheck: first set");
    let first = run_all(cfg)?;
    println!("\n#### selfcheck: second set");
    let second = run_all(cfg)?;
    let mut ok = all_checks_passed(&first) && all_checks_passed(&second);
    println!("\n#### selfcheck: second set against first");
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((name, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
        for (i, def) in E2E_METRICS.iter().enumerate() {
            let (va, vb) = (a.metrics[i], b.metrics[i]);
            // Either order may be the worse one: the two sets run the
            // same code, so the check is symmetric.
            let diff = worsening(va, vb, def.higher_is_better).max(worsening(
                vb,
                va,
                def.higher_is_better,
            ));
            let verdict = if diff > def.bound { "EXCEEDED" } else { "" };
            ok &= diff <= def.bound;
            println!(
                "{name:<14} {:<12} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.0}% {verdict}",
                def.name,
                diff * 100.0,
                def.bound * 100.0
            );
        }
        for (count, va) in &a.counts {
            // The lint-plan p50 is a timing that rides with the counts.
            if *count != "serve.cold_lint_p50_ms" && b.counts[count] != *va {
                ok = false;
                println!(
                    "{name:<14} {count} differs: {va} vs {} (must be exact)",
                    b.counts[count]
                );
            }
        }
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let args = Args::parse(std::env::args())?;
    if args.trace {
        return Err(format!(
            "--trace 1 is the other binary, stp-benchmark-trace; `bash benchmark/run.sh` picks it\n{USAGE}"
        ));
    }
    let cfg = args.config()?;
    print_header(&cfg);
    if args.selfcheck {
        return selfcheck(&cfg);
    }
    let Some(name) = &args.workload else {
        let clean = all_checks_passed(&run_all(&cfg)?);
        println!(
            "\n{} scale, all output checks {}",
            scale_name(cfg.scale),
            if clean { "passed" } else { "FAILED" }
        );
        return Ok(clean);
    };
    let outcome = run_and_print(name, &cfg)?;
    let metrics: Vec<(&str, f64, &str)> = E2E_METRICS
        .iter()
        .zip(outcome.metrics)
        .map(|(def, value)| (def.name, value, def.unit))
        .collect();
    println!(
        "{}",
        result_line(outcome.attempted, outcome.failed, &metrics, cfg.scale)
    );
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("stp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
