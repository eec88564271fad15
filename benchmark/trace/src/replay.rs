//! In-process replay with spans: every second of the 60 L=1024 plans of
//! Universe-240 (the plans `serve_cold` also requests with
//! `"lint":true`) — 5 machines × ports {1,5} × {row, cross, diag_right}
//! — one root span per request, through public functions only. The
//! whole universe would add some 30 s of simulation to every traced
//! run; the payload-bound regime it would add is what the `large` probe
//! is for.
//!
//! The cold plan itself runs behind `Planner::plan`, whose inside is
//! private; so each request is planned once for its total, and its
//! stages are then called one by one under spans: parse, place, record,
//! persisted insert. A further untraced run without the recorder splits
//! the recording into simulation and recorder. What is left of the
//! total is the residual: supervision wrapper, prediction, rendering.

use std::path::Path;

use stp_analyzer::checks::{analyze, AnalyzeOpts};
use stp_analyzer::{entry_to_json, LintEntry, Schedule};
use stp_benchmark::stats::{median, percentile_ns};
use stp_benchmark::text::{num_after, plan_body};
use stp_benchmark::universe::{universe_240, PlanLine};
use stp_core::msgset::payload_for;
use stp_core::runner::RecordedRun;
use stp_core::serve::{PlanCache, PlanSpec};

use crate::metrics::Report;
use crate::probes::{kind_of, parse_plan, persisted_planner, record, run, timed};
use crate::spans::Tracer;

const COLD_STAGES: [&str; 6] = [
    "parse",
    "place",
    "simulate",
    "record_extra",
    "cache_insert",
    "residual",
];
const LINT_STAGES: [&str; 6] = [
    "record",
    "schedule_build",
    "cost_replay",
    "checks",
    "perf_checks",
    "report",
];

/// Per-request stage times in ns (signed: a difference of two timings
/// can dip below zero on a sub-microsecond stage).
struct Table {
    stages: &'static [&'static str; 6],
    rows: Vec<[i64; 6]>,
    totals: Vec<i64>,
}

impl Table {
    fn sum(&self, stage: usize) -> i64 {
        self.rows.iter().map(|row| row[stage]).sum()
    }

    fn print(&self, title: &str, total_name: &str) {
        let total: i64 = self.totals.iter().sum();
        println!(
            "\n   {title} ({} requests)\n   {:<16} {:>12} {:>12} {:>14} {:>7}",
            self.rows.len(),
            "stage",
            "p50 ns",
            "p90 ns",
            "sum ns",
            "share"
        );
        let line = |name: &str, mut column: Vec<i64>, sum: i64| {
            column.sort_unstable();
            let pct = |p: f64| {
                let sorted: Vec<u64> = column.iter().map(|&v| v.max(0) as u64).collect();
                percentile_ns(&sorted, p)
            };
            println!(
                "   {name:<16} {:>12} {:>12} {sum:>14} {:>6.1}%",
                pct(50.0),
                pct(90.0),
                100.0 * sum as f64 / total as f64
            );
        };
        for (i, stage) in self.stages.iter().enumerate() {
            line(
                stage,
                self.rows.iter().map(|row| row[i]).collect(),
                self.sum(i),
            );
        }
        line(total_name, self.totals.clone(), total);
    }
}

/// Relative prediction error |predicted − simulated| ÷ simulated of one
/// plan reply, when the algorithm has a closed form.
fn rel_err(reply: &str) -> Option<f64> {
    let predicted = num_after(reply, "\"predicted_ms\":")?;
    let simulated = num_after(reply, "\"virtual_makespan_ms\":")?;
    Some((predicted - simulated).abs() / simulated)
}

fn set_rel_err(report: &mut Report, suffix: &str, mut errs: Vec<f64>) {
    errs.sort_by(f64::total_cmp);
    // An exact count of the model's accuracy: the median and the worst
    // plan, both taken from the replies as printed (6 decimals of ms).
    let p50 = errs
        .get(errs.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0.0);
    report.set(&format!("predict.rel_err_p50{suffix}"), p50);
    report.set(
        &format!("predict.rel_err_max{suffix}"),
        errs.last().copied().unwrap_or(0.0),
    );
}

/// The four traced stage calls of one request, under one root span.
/// Hands the recording on to the lint stages.
fn traced_request(
    tracer: &mut Tracer,
    request: u32,
    line: &str,
    body: &str,
    inserts: &PlanCache,
) -> RecordedRun {
    tracer.span("request", 0, request, |t, root| {
        let spec = t.span("serve.parse_request", root, request, |_, _| {
            parse_plan(line)
        });
        t.span("distribution.place", root, request, |_, _| {
            std::hint::black_box(spec.dist.place(spec.machine.shape, spec.s))
        });
        let recorded = t.span("runner.record", root, request, |_, _| record(&spec));
        t.span("serve.cache_insert", root, request, |_, _| {
            inserts.insert(&spec.cache_id(), body)
        });
        recorded
    })
}

/// Replay the requests; fills the stage-table metrics, the prediction
/// error and the tracing overhead. Returns one real plan body for the
/// cache probes.
pub fn replay(report: &mut Report, tracer: &mut Tracer, tmp: &Path) -> String {
    let plans: Vec<PlanLine> = universe_240(usize::MAX)
        .into_iter()
        .filter(|plan| plan.len == 1024)
        .step_by(2)
        .collect();

    // The Br_* schedule memo is keyed by the source set, not by L: one
    // cheap run per point puts every later call in the same state.
    for plan in &plans {
        let mut spec = parse_plan(&plan.line);
        spec.msg_len = 64;
        run(&spec);
    }

    let planner = persisted_planner(&tmp.join("replay-plans.json"));
    let insert_path = tmp.join("replay-inserts.json");
    let _ = std::fs::remove_file(&insert_path);
    let inserts = PlanCache::open(Some(insert_path), 4096);

    let mut cold = Table {
        stages: &COLD_STAGES,
        rows: Vec::new(),
        totals: Vec::new(),
    };
    let mut lint = Table {
        stages: &LINT_STAGES,
        rows: Vec::new(),
        totals: Vec::new(),
    };
    let mut errs: Vec<(bool, f64)> = Vec::new();
    let mut a_body = String::new();
    for (i, plan) in plans.iter().enumerate() {
        let request = i as u32 + 1;
        let spec = parse_plan(&plan.line);

        // The real cold path, timed as a whole.
        let (plan_ns, reply) = timed(|| planner.plan(&spec));
        assert!(
            reply.contains("\"cached\":false") && reply.contains("\"verified\":true"),
            "replay plan failed: {reply}"
        );
        let body = plan_body(&reply).expect("ok replies carry a plan");
        errs.extend(rel_err(&reply).map(|err| (plan.t3d, err)));

        // Its stages, one by one, under spans.
        let recorded_run = traced_request(tracer, request, &plan.line, body, &inserts);
        let span = |name| tracer.duration_ns(request, name) as i64;
        let (run_ns, _) = timed(|| run(&spec));
        let (parse, place, recorded, insert) = (
            span("serve.parse_request"),
            span("distribution.place"),
            span("runner.record"),
            span("serve.cache_insert"),
        );
        let plan_ns = plan_ns as i64;
        cold.rows.push([
            parse,
            place,
            run_ns as i64,
            recorded - run_ns as i64,
            insert,
            plan_ns - parse - place - recorded - insert,
        ]);
        cold.totals.push(plan_ns);

        lint_request(tracer, request, &spec, &recorded_run, recorded, &mut lint);
        if i == 0 {
            a_body = body.to_string();
        }
    }

    cold.print(
        "cold plan by stage — the six stages add up to the plan",
        "plan (total)",
    );
    lint.print(
        "lint point by stage — what lint_point does, call by call",
        "lint point (sum)",
    );

    report.set(
        "stage.cold.total_ns",
        cold.totals.iter().sum::<i64>() as f64,
    );
    for (i, stage) in COLD_STAGES.iter().enumerate() {
        report.set(&format!("stage.cold.{stage}_ns"), cold.sum(i) as f64);
    }
    for (i, stage) in LINT_STAGES.iter().enumerate() {
        report.set(&format!("stage.lint.{stage}_ns"), lint.sum(i) as f64);
    }
    report.set(
        "serve.residual_share",
        cold.sum(5) as f64 / cold.totals.iter().sum::<i64>() as f64,
    );

    set_rel_err(report, "", errs.iter().map(|&(_, e)| e).collect());
    for (suffix, want_t3d) in [(".paragon", false), (".t3d", true)] {
        let errs = errs
            .iter()
            .filter(|(t3d, _)| *t3d == want_t3d)
            .map(|&(_, e)| e);
        set_rel_err(report, suffix, errs.collect());
    }

    report.set("trace.overhead_share", tracing_overhead(&plans, &a_body));
    a_body
}

/// One lint point by stage, under its own root span: the calls
/// `lint_point` makes on a recording, here the one the cold stages
/// already made (and timed, `recorded_ns`) for this request.
fn lint_request(
    tracer: &mut Tracer,
    request: u32,
    spec: &PlanSpec,
    recorded: &RecordedRun,
    recorded_ns: i64,
    table: &mut Table,
) {
    let lib = kind_of(spec).default_lib();
    let sources = spec.dist.place(spec.machine.shape, spec.s);
    let len = spec.msg_len;
    let payload_of = move |src: usize| payload_for(src, len);
    let opts = |conformance, perf| AnalyzeOpts {
        lib,
        conformance,
        perf,
        ..AnalyzeOpts::default()
    };
    tracer.span("lint_request", 0, request, |t, root| {
        let sched = t.span("schedule.from_recorded", root, request, |_, _| {
            Schedule::from_recorded(recorded, spec.machine.p())
        });
        t.span("cost.replay", root, request, |_, _| {
            let cost = stp_analyzer::replay(&sched, &spec.machine, lib, false);
            assert!(cost.conformant(), "cost replay diverged from the kernel");
        });
        t.span("checks.analyze", root, request, |_, _| {
            std::hint::black_box(analyze(
                &sched,
                &spec.machine,
                &sources,
                &payload_of,
                &opts(false, false),
            ))
        });
        let analysis = t.span("checks.analyze_perf", root, request, |_, _| {
            analyze(
                &sched,
                &spec.machine,
                &sources,
                &payload_of,
                &opts(true, true),
            )
        });
        let entry = LintEntry {
            algo: kind_of(spec).name().to_string(),
            dist: spec.dist.name().to_string(),
            rows: spec.machine.shape.rows,
            cols: spec.machine.shape.cols,
            s: spec.s,
            sends: analysis.sends,
            recvs: analysis.recvs,
            max_link_load: analysis.max_link_load,
            deadlocked: sched.deadlocked,
            opaque_payloads: analysis.opaque_payloads,
            dropped_attempts: sched.drops.len(),
            findings: analysis.findings,
        };
        t.span("report.entry_to_json", root, request, |_, _| {
            std::hint::black_box(entry_to_json(&entry))
        });
    });
    let span = |name| tracer.duration_ns(request, name) as i64;
    let (build, cost, checks) = (
        span("schedule.from_recorded"),
        span("cost.replay"),
        span("checks.analyze"),
    );
    let row = [
        recorded_ns,
        build,
        cost,
        checks,
        // analyze(perf on) repeats the replay and the plain checks.
        span("checks.analyze_perf") - cost - checks,
        span("report.entry_to_json"),
    ];
    table.totals.push(row.iter().sum());
    table.rows.push(row);
}

/// Traced against untraced: the same stage calls on the twelve 4×4
/// plans, alternating, medians compared.
fn tracing_overhead(plans: &[PlanLine], body: &str) -> f64 {
    // Memory-only: an fsync per request would drown the span cost.
    let inserts = PlanCache::open(None, 4096);
    let cheap: Vec<&PlanLine> = plans
        .iter()
        .filter(|plan| plan.line.contains("\"rows\":4,"))
        .collect();
    let mut scratch = Tracer::new();
    let mut pass = |enabled: bool| {
        scratch.enabled = enabled;
        scratch.spans.clear();
        timed(|| {
            for (i, plan) in cheap.iter().enumerate() {
                traced_request(&mut scratch, i as u32, &plan.line, body, &inserts);
            }
        })
        .0 as f64
    };
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        traced.push(pass(true));
        untraced.push(pass(false));
    }
    (median(&traced) - median(&untraced)) / median(&untraced)
}
