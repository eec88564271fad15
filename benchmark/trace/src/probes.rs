//! Layer probes: timing loops around each layer's public functions, on
//! fixed inputs. They are the same whatever workload the traced run is
//! for, so a layer's number can be followed across all six.

use std::path::Path;
use std::time::{Duration, Instant};

use mpp_model::{Machine, Topology};
use mpp_runtime::{ExecMode, SimConfig};
use mpp_sim::{copy_metrics, NetworkState, Payload};
use stp_analyzer::checks::{analyze, AnalyzeOpts};
use stp_analyzer::{entry_to_json, lint_point, Schedule};
use stp_benchmark::proc::{Daemon, DaemonOpts, OneCore};
use stp_benchmark::rng::SplitMix64;
use stp_benchmark::stats::{median, percentile_ns};
use stp_benchmark::universe::{churn_256, universe_240};
use stp_core::checkpoint::{parse_json, Checkpoint};
use stp_core::msgset::{payload_for, MessageSet};
use stp_core::predict::estimate_ns;
use stp_core::runner::{
    try_record_sources, try_run_sources_controlled, AlgoKind, Outcome, RecordedRun, RunControl,
};
use stp_core::select::recommend;
use stp_core::serve::{
    parse_request, PlanAlgo, PlanCache, PlanSpec, Planner, Request, ServeConfig, CACHE_SIG,
};

use crate::metrics::{Report, PROBES};

/// Request lines of the three fixed probe points: event-bound, payload-
/// bound, and the torus.
const PROBE_LINES: [&str; 3] = [
    "{\"machine\":\"paragon\",\"rows\":16,\"cols\":16,\"dist\":\"equal\",\"s\":64,\"L\":64,\"algo\":\"PersAlltoAll\"}",
    "{\"machine\":\"paragon\",\"rows\":16,\"cols\":16,\"dist\":\"row\",\"s\":85,\"L\":16384,\"algo\":\"auto\"}",
    "{\"machine\":\"t3d\",\"p\":128,\"dist\":\"equal\",\"s\":42,\"L\":4096,\"algo\":\"auto\"}",
];

/// Timed repeats per probe point (after one warm-up). The payload-bound
/// point takes a third of a second per run.
const PROBE_REPEATS: [usize; 3] = [5, 2, 5];

pub fn parse_plan(line: &str) -> PlanSpec {
    match parse_request(line, ExecMode::Cooperative, Duration::from_secs(30)) {
        Ok(Request::Plan(spec)) => *spec,
        other => panic!("{line} is not a plan request: {other:?}"),
    }
}

pub fn kind_of(spec: &PlanSpec) -> AlgoKind {
    match &spec.algo {
        PlanAlgo::Kind(kind) => *kind,
        PlanAlgo::Chaos(name) => panic!("probe resolved to the chaos fixture {name}"),
    }
}

fn control(spec: &PlanSpec) -> RunControl {
    RunControl {
        exec: Some(spec.exec),
        ..RunControl::default()
    }
}

/// `try_run_sources_controlled` on a resolved request: the simulation
/// alone, as `stp sweep` runs it.
pub fn run(spec: &PlanSpec) -> Outcome {
    let sources = spec.dist.place(spec.machine.shape, spec.s);
    let len = spec.msg_len;
    let kind = kind_of(spec);
    try_run_sources_controlled(
        &spec.machine,
        kind.default_lib(),
        &sources,
        &move |src| payload_for(src, len),
        kind,
        &control(spec),
    )
    .expect("probe simulation failed")
}

/// `try_record_sources` on a resolved request: simulation plus schedule
/// recorder, as the daemon's cold path and `stp lint` run it.
pub fn record(spec: &PlanSpec) -> RecordedRun {
    let sources = spec.dist.place(spec.machine.shape, spec.s);
    let len = spec.msg_len;
    let kind = kind_of(spec);
    try_record_sources(
        &spec.machine,
        kind.default_lib(),
        &sources,
        &move |src| payload_for(src, len),
        kind.build().as_ref(),
        &control(spec),
    )
    .expect("probe recording failed")
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as u64, out)
}

/// Median over `batches` of the mean ns per call within a batch.
fn per_call_ns(batches: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_batch: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_batch)
}

/// Median ns of `repeats` calls.
fn median_ns<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..repeats).map(|_| timed(&mut f).0 as f64).collect();
    median(&times)
}

/// A planner with a memory-only cache.
fn memory_planner() -> Planner {
    let config = ServeConfig {
        cache_path: None,
        exec: ExecMode::Cooperative,
        ..ServeConfig::default()
    };
    Planner::new(&config, None)
}

/// A planner whose cold plans persist to `path`, like the daemon's.
pub fn persisted_planner(path: &Path) -> Planner {
    let _ = std::fs::remove_file(path);
    let config = ServeConfig {
        cache_path: Some(path.to_path_buf()),
        exec: ExecMode::Cooperative,
        ..ServeConfig::default()
    };
    Planner::new(&config, None)
}

/// `core/serve.rs` read path and cache, `core/select.rs`,
/// `core/predict.rs`, `core/distribution.rs` — all on Universe-240.
/// `body` is a real plan body, reused as every cached value.
pub fn serve_read_path(report: &mut Report, body: &str, tmp: &Path) {
    use std::hint::black_box;
    let lines: Vec<String> = universe_240(usize::MAX)
        .into_iter()
        .map(|p| p.line)
        .collect();
    let specs: Vec<PlanSpec> = lines.iter().map(|line| parse_plan(line)).collect();
    let ids: Vec<String> = specs.iter().map(|spec| spec.cache_id()).collect();
    let n = lines.len();

    report.set(
        "serve.parse_request_ns",
        per_call_ns(5, n, |i| {
            black_box(parse_plan(&lines[i]));
        }),
    );
    report.set(
        "serve.cache_id_ns",
        per_call_ns(5, 4 * n, |i| {
            black_box(specs[i % n].cache_id());
        }),
    );
    report.set(
        "select.recommend_ns",
        per_call_ns(5, 4 * n, |i| {
            let spec = &specs[i % n];
            black_box(recommend(&spec.machine, spec.s, spec.msg_len));
        }),
    );
    report.set(
        "predict.estimate_call_ns",
        per_call_ns(5, 4 * n, |i| {
            let spec = &specs[i % n];
            black_box(estimate_ns(
                &spec.machine,
                kind_of(spec),
                spec.s,
                spec.msg_len,
            ));
        }),
    );
    report.set(
        "distribution.place_ns",
        per_call_ns(5, n, |i| {
            let spec = &specs[i];
            black_box(spec.dist.place(spec.machine.shape, spec.s));
        }),
    );

    let planner = memory_planner();
    for id in &ids {
        planner.cache().insert(id, body);
    }
    report.set(
        "serve.cache_get_ns",
        per_call_ns(5, 8 * n, |i| {
            black_box(planner.cache().get(&ids[i % n]));
        }),
    );
    report.set(
        "serve.lookup_hit_ns",
        per_call_ns(5, 8 * n, |i| {
            black_box(planner.lookup(&specs[i % n]));
        }),
    );
    let cache = PlanCache::open(None, 4096);
    report.set(
        "serve.cache_insert_mem_ns",
        per_call_ns(5, 8 * n, |i| cache.insert(&ids[i % n], body)),
    );

    // Persisted insert: the whole store is rendered, written, fsynced
    // and renamed on every insert, so the cost grows with the store.
    for (name, entries) in [
        ("serve.cache_insert_persist_ns.n64", 64),
        ("serve.cache_insert_persist_ns.n256", 256),
    ] {
        let path = tmp.join(format!("persist-{entries}.json"));
        store_of(entries, body)
            .save(&path)
            .expect("cannot write the probe store");
        let cache = PlanCache::open(Some(path), entries + 64);
        assert_eq!(cache.len(), entries);
        let mut next = 0;
        report.set(
            name,
            median_ns(12, || {
                next += 1;
                cache.insert(&format!("probe-{next:012}"), body);
            }),
        );
    }
}

/// A cache store of `entries` bodies under the daemon's signature.
fn store_of(entries: usize, body: &str) -> Checkpoint {
    let mut store = Checkpoint::new(CACHE_SIG);
    for i in 0..entries {
        store.insert(&format!("{i:016x}"), body);
    }
    store
}

/// `core/checkpoint.rs`: the JSON layer and the atomic save.
pub fn checkpoint(report: &mut Report, body: &str, tmp: &Path) {
    use std::hint::black_box;
    let store = store_of(1024, body);
    report.set(
        "checkpoint.to_json_ns_per_entry",
        median_ns(7, || black_box(store.to_json())) / 1024.0,
    );
    // Parsed at 64 entries: at this commit the parser's cost per KB
    // grows with the document (a 1024-entry store takes seconds), so
    // the size is part of the metric's definition.
    let text = store_of(64, body).to_json();
    report.set(
        "checkpoint.parse_json_ns_per_kb",
        median_ns(5, || {
            black_box(parse_json(&text).expect("own output parses"))
        }) / (text.len() as f64 / 1024.0),
    );
    let path = tmp.join("checkpoint-1024.json");
    report.set(
        "checkpoint.save_ns.n1024",
        median_ns(7, || {
            store.save(&path).expect("cannot save the probe store")
        }),
    );
}

/// `core/msgset.rs`: wire encode, decode and merge of a 32 × 4 KiB set.
pub fn msgset(report: &mut Report) {
    use std::hint::black_box;
    const SOURCES: usize = 32;
    const LEN: usize = 4096;
    let mut set = MessageSet::new();
    for src in 0..SOURCES {
        set.insert(src, &payload_for(src, LEN));
    }
    let kib = (SOURCES * LEN) as f64 / 1024.0;
    report.set(
        "msgset.roundtrip_ns_per_kb",
        per_call_ns(5, 64, |_| {
            let wire = set.to_payload();
            let decoded = MessageSet::from_payload(&wire).expect("own wire format decodes");
            let mut merged = MessageSet::single(SOURCES + 1, &[0u8; 8]);
            black_box(merged.merge(decoded));
        }) / kib,
    );
}

/// `core/runner.rs` + `mpp-sim/kernel.rs` on the three probe points,
/// with their simulated statistics and payload copy counters.
pub fn runner_and_kernel(report: &mut Report, tmp: &Path) -> Vec<PlanSpec> {
    let specs: Vec<PlanSpec> = PROBE_LINES.iter().map(|line| parse_plan(line)).collect();
    for ((spec, tag), repeats) in specs.iter().zip(PROBES).zip(PROBE_REPEATS) {
        // Warm the schedule memo and the payload arena; the copy
        // counters of the next run are then those of a steady state.
        run(spec);
        let before = copy_metrics();
        let outcome = run(spec);
        let copied = copy_metrics().since(&before);
        assert!(outcome.verified, "probe {tag} did not verify");
        let msgs: u64 = outcome.stats.iter().map(|s| s.total_sends()).sum();
        let bytes_sent: u64 = outcome
            .stats
            .iter()
            .flat_map(|s| &s.iters)
            .map(|iter| iter.bytes_sent)
            .sum();
        if tag != "t3d" {
            report.set(&format!("payload.allocs.{tag}"), copied.allocs as f64);
            report.set(
                &format!("payload.bytes_copied.{tag}"),
                copied.bytes_copied as f64,
            );
        }
        report.set(&format!("sim.virtual_ns.{tag}"), outcome.makespan_ns as f64);
        report.set(&format!("sim.msgs.{tag}"), msgs as f64);
        report.set(&format!("sim.bytes_sent.{tag}"), bytes_sent as f64);
        report.set(
            &format!("sim.contention_events.{tag}"),
            outcome.contention_events as f64,
        );

        let run_ns = median_ns(repeats, || run(spec));
        let sched_events = record(spec).events.len();
        let record_ns = median_ns(repeats, || record(spec));
        report.set(&format!("sim.sched_events.{tag}"), sched_events as f64);
        report.set(&format!("runner.run_ns.{tag}"), run_ns);
        report.set(&format!("runner.record_ns.{tag}"), record_ns);
        report.set(
            &format!("record.overhead_share.{tag}"),
            (record_ns - run_ns) / record_ns,
        );
        match tag {
            "small" => report.set("runner.ns_per_msg.small", run_ns / msgs as f64),
            "large" => report.set(
                "runner.ns_per_kb.large",
                run_ns / (bytes_sent as f64 / 1024.0),
            ),
            _ => {}
        }

        // The whole cold plan, persisted insert included, on a fresh
        // planner each time so every repeat is a miss.
        let path = tmp.join(format!("probe-{tag}.json"));
        report.set(
            &format!("serve.plan_cold_ns.{tag}"),
            median_ns(repeats, || {
                let planner = persisted_planner(&path);
                let (ns, reply) = timed(|| planner.plan(spec));
                assert!(reply.contains("\"cached\":false") && reply.contains("\"verified\":true"));
                ns
            }),
        );
    }

    // Scheduling core alone: a zero-length ring keeps the ready queue,
    // the mailboxes and the reservations busy and moves no payload.
    const ROUNDS: u32 = 64;
    let machine = Machine::paragon(16, 16);
    let config = SimConfig {
        exec: ExecMode::Cooperative,
        ..SimConfig::default()
    };
    let ring = || {
        mpp_sim::simulate_with(&machine, &config, |mut ctx| async move {
            let (me, p) = (ctx.rank(), ctx.size());
            for round in 0..ROUNDS {
                ctx.send_payload((me + 1) % p, round, Payload::new());
                ctx.recv(Some((me + p - 1) % p), Some(round)).await;
            }
        })
    };
    ring();
    let events = (machine.p() * ROUNDS as usize * 2) as f64;
    report.set("kernel.ring_ns_per_event", median_ns(5, ring) / events);
    specs
}

/// `mpp-sim/network.rs`, `mpp-sim/payload.rs`, `mpp-model/topology.rs`.
pub fn network_payload_topology(report: &mut Report) {
    use std::hint::black_box;
    const PAIRS: usize = 4096;
    let mut rng = SplitMix64::new(0x5eed);
    let pairs_of = |rng: &mut SplitMix64, n: usize| -> Vec<(usize, usize)> {
        (0..PAIRS).map(|_| (rng.below(n), rng.below(n))).collect()
    };

    let machine = Machine::paragon(16, 16);
    let pairs = pairs_of(&mut rng, machine.p());
    let wire_ns = machine.params.serialize_ns(1024);
    report.set(
        "network.transfer_ns",
        median(
            &(0..5)
                .map(|_| {
                    let mut net = NetworkState::new(&machine);
                    let t0 = Instant::now();
                    for (i, &(from, to)) in pairs.iter().enumerate() {
                        black_box(net.transfer(&machine, from, to, 1024, wire_ns, i as u64 * 500));
                    }
                    t0.elapsed().as_nanos() as f64 / PAIRS as f64
                })
                .collect::<Vec<_>>(),
        ),
    );

    let mut route = Vec::new();
    for (name, topology) in [
        ("topology.route_ns.mesh", machine.topology.clone()),
        ("topology.route_ns.torus", Topology::torus_for(128)),
    ] {
        let pairs = pairs_of(&mut rng, topology.num_nodes());
        report.set(
            name,
            per_call_ns(5, PAIRS, |i| {
                topology.route_into(pairs[i].0, pairs[i].1, &mut route);
                black_box(route.len());
            }),
        );
    }

    const SEGMENTS: usize = 32;
    const LEN: usize = 4096;
    let kib = (SEGMENTS * LEN) as f64 / 1024.0;
    let block = vec![0xa5u8; LEN];
    let build = || {
        let mut rope = Payload::new();
        for _ in 0..SEGMENTS {
            rope.append(Payload::from_slice(&block));
        }
        rope
    };
    report.set(
        "payload.append_slice_ns_per_kb",
        per_call_ns(5, 64, |_| {
            let rope = build();
            black_box(rope.slice(LEN / 2, rope.len() - LEN / 2));
        }) / kib,
    );
    let rope = build();
    let mut header = [0u8; 8];
    report.set(
        "payload.reader_ns_per_kb",
        per_call_ns(5, 256, |_| {
            let mut reader = rope.reader();
            while reader.remaining() > 0 {
                assert!(reader.read_exact(&mut header));
                black_box(reader.take_payload(LEN - header.len()));
            }
        }) / kib,
    );
}

/// `core/algorithms`: one representative per family on the paper's
/// 10×10, equal distribution, s=30, L=4096 point.
pub fn algorithms(report: &mut Report) {
    for (name, algo, ports) in [
        ("algo.host_ns.two_step", "2-Step", 1),
        ("algo.host_ns.pers_alltoall", "PersAlltoAll", 1),
        ("algo.host_ns.br", "Br_Lin", 1),
        ("algo.host_ns.repos", "Repos_xy_source", 1),
        ("algo.host_ns.part", "Part_xy_source", 1),
        ("algo.host_ns.mpi", "MPI_AllGather", 1),
        ("algo.host_ns.dissem", "DissemAllGather", 1),
        ("algo.host_ns.kport", "KPort_Lin", 5),
    ] {
        let spec = parse_plan(&format!(
            "{{\"machine\":\"paragon\",\"rows\":10,\"cols\":10,\"ports\":{ports},\"dist\":\"equal\",\"s\":30,\"L\":4096,\"algo\":\"{algo}\"}}"
        ));
        assert!(run(&spec).verified, "{algo} did not verify");
        report.set(name, median_ns(5, || run(&spec)));
    }
}

/// `analyzer`: per-event costs on the event-bound probe, whole lint
/// points on the event-bound and the payload-bound one.
pub fn analyzer(report: &mut Report, probes: &[PlanSpec]) {
    use std::hint::black_box;
    let small = &probes[0];
    let recorded = record(small);
    let events = recorded.events.len() as f64;
    let p = small.machine.p();
    let sched = Schedule::from_recorded(&recorded, p);
    report.set(
        "schedule.from_recorded_ns_per_event",
        median_ns(5, || black_box(Schedule::from_recorded(&recorded, p))) / events,
    );
    let lib = kind_of(small).default_lib();
    report.set(
        "cost.replay_ns_per_xfer",
        median_ns(5, || {
            let cost = stp_analyzer::replay(&sched, &small.machine, lib, false);
            assert!(cost.conformant(), "cost replay diverged from the kernel");
        }) / sched.xfers.len() as f64,
    );
    let sources = small.dist.place(small.machine.shape, small.s);
    let len = small.msg_len;
    let payload_of = move |src: usize| payload_for(src, len);
    let analyze_ns = |perf: bool| {
        let opts = AnalyzeOpts {
            lib,
            perf,
            ..AnalyzeOpts::default()
        };
        median_ns(3, || {
            black_box(analyze(
                &sched,
                &small.machine,
                &sources,
                &payload_of,
                &opts,
            ))
        })
    };
    let plain_ns = analyze_ns(false);
    report.set("checks.analyze_ns_per_event", plain_ns / events);
    report.set(
        "perf_checks.extra_ns_per_event",
        (analyze_ns(true) - plain_ns) / events,
    );

    let lint = |spec: &PlanSpec| {
        lint_point(
            &spec.machine,
            &spec.dist,
            spec.s,
            spec.msg_len,
            kind_of(spec),
            None,
            true,
            &control(spec),
        )
        .expect("probe lint failed")
    };
    let entry = lint(small);
    report.set(
        "report.entry_to_json_ns",
        per_call_ns(5, 64, |_| {
            black_box(entry_to_json(&entry));
        }),
    );
    let small_ns = median_ns(3, || lint(small));
    report.set("lint.lint_point_ns.small", small_ns);
    report.set(
        "lint.lint_point_ns.large",
        median_ns(1, || lint(&probes[1])),
    );
    report.set(
        "lint.analysis_share",
        (small_ns - report.get("runner.record_ns.small")) / small_ns,
    );
}

/// What one request costs beyond the in-process read path: process
/// boundary, socket, line framing. Sixteen cheap plans are cached in a
/// real daemon and requested in turn.
pub fn socket_overhead(report: &mut Report, stp: &Path, tmp: &Path) -> Result<(), String> {
    const REQUESTS: usize = 20_000;
    // One core for client and daemon, as in the serve workloads.
    let _one_core = OneCore::pin()?;
    let lines: Vec<String> = churn_256().into_iter().take(16).map(|p| p.line).collect();
    let cache = tmp.join("socket-probe.json");
    let log = tmp.join("socket-probe.stderr");
    let daemon = Daemon::spawn(&DaemonOpts {
        stp,
        cache: &cache,
        cache_cap: None,
        log: &log,
    })?;
    let mut conn = daemon.connect()?;
    let mut reply = String::new();
    for line in &lines {
        conn.round_trip(line, &mut reply)?;
    }
    let mut lat = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        lat.push(conn.round_trip(&lines[i % lines.len()], &mut reply)?);
        if !reply.contains("\"cached\":true") {
            return Err(format!("socket probe missed the cache: {reply}"));
        }
    }
    drop(conn);
    daemon.terminate()?;
    lat.sort_unstable();

    // The same lines through the same two calls, in process.
    let planner = memory_planner();
    let specs: Vec<PlanSpec> = lines.iter().map(|line| parse_plan(line)).collect();
    for spec in &specs {
        planner.plan(spec);
    }
    let in_process_ns = per_call_ns(5, 4096, |i| {
        let spec = parse_plan(&lines[i % lines.len()]);
        std::hint::black_box(planner.lookup(&spec));
    });
    report.set(
        "serve.socket_overhead_ns",
        percentile_ns(&lat, 50.0) as f64 - in_process_ns,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_benchmark::universe::{lint_subset, HOSTILE};

    /// The harness builds its request lines as text; only here, where
    /// the daemon's parser is linked, can they be held against it.
    #[test]
    fn the_daemon_parser_accepts_every_generated_line() {
        let universe = universe_240(usize::MAX);
        let keys: std::collections::BTreeSet<String> = universe
            .iter()
            .chain(&lint_subset(&universe))
            .map(|plan| parse_plan(&plan.line).canonical_key())
            .collect();
        assert_eq!(
            keys.len(),
            300,
            "240 plain + 60 lint:true distinct cache keys"
        );
        let churn: std::collections::BTreeSet<String> = churn_256()
            .iter()
            .map(|plan| parse_plan(&plan.line).canonical_key())
            .collect();
        assert_eq!(churn.len(), 256);
        for line in PROBE_LINES {
            parse_plan(line);
        }
    }

    #[test]
    fn hostile_lines_are_hostile() {
        let parse = |line| parse_request(line, ExecMode::Cooperative, Duration::from_secs(1));
        assert!(parse(HOSTILE[0]).is_err() && parse(HOSTILE[1]).is_err());
        match parse(HOSTILE[2]) {
            Ok(Request::Plan(spec)) => assert!(matches!(spec.algo, PlanAlgo::Chaos("chaos:panic"))),
            other => panic!("the chaos line must parse as a plan: {other:?}"),
        }
    }
}
