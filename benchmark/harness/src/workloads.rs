//! The six workloads. Each drives the product surface only — `stp
//! serve|lint|sweep|--sweep-len` as child processes and the wire
//! protocol over one loopback connection — checks every output against
//! the repository's own contracts, and reports the same six end-to-end
//! metrics (what "one operation" is differs per workload, see
//! `README.md`).
//!
//! A run measures whole *units* of fixed work: at least one, then more
//! while the next is expected to end within `--seconds`. Counts are
//! taken from one unit, so they do not depend on how many units fit.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::proc::{
    run_child, stp_command, sweep_workers, ChildRun, Conn, Daemon, DaemonOpts, OneCore, TempDir,
};
use crate::rng::{SplitMix64, Zipf};
use crate::stats::{median, percentile_ns, samples_beyond};
use crate::text::{int_after, plan_body, sum_int_fields};
use crate::universe::{
    churn_256, figure_invocations, lint_subset, universe_240, PlanLine, FIGURE_LENS, HOSTILE,
};

/// Workload names, in the order the default run executes them.
pub const WORKLOADS: [&str; 6] = [
    "serve_warm",
    "serve_cold",
    "serve_churn",
    "lint_matrix",
    "sweep_matrix",
    "figure_sweep",
];

/// One end-to-end metric of `BENCHMARK.json`.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// The end-to-end metrics, reported by every workload (a unit test
/// holds this table and `BENCHMARK.json` together). Every bound is the
/// most a driver accepts: on the two-core virtual machines this runs on,
/// ten runs of one binary spread by 5 to 12 % of their median (see
/// `README.md`), and a bound has to be three times the spread.
pub const E2E_METRICS: [MetricDef; 6] = [
    metric("setup_s", "s", false, 0.25),
    metric("wall_s", "s", false, 0.25),
    metric("ops_per_s", "1/s", true, 0.25),
    metric("op_p50_us", "us", false, 0.25),
    metric("op_tail_us", "us", false, 0.25),
    metric("peak_rss_mb", "MB", false, 0.25),
];

/// Counts read off the product's outputs (daemon stats, replies,
/// reports). Exact and repeatable; printed by the traced run. A count a
/// workload has no source for is reported as 0.
pub const SURFACE_COUNTS: [&str; 11] = [
    "serve.hit_rate",
    "serve.evictions",
    "serve.planned",
    "serve.quarantined",
    "serve.errors",
    "serve.cold_lint_p50_ms",
    "sim.virtual_ns_sum",
    "sim.msgs",
    "sim.sched_events",
    "sim.contention_events",
    "sim.findings",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    /// Roughly 1/20 of the work, every output check still on; never a
    /// baseline.
    Smoke,
}

pub struct Config {
    /// The `stp` binary under test.
    pub stp: PathBuf,
    /// Directory (inside the checkout) for per-workload temp dirs.
    pub tmp_root: PathBuf,
    pub seed: u64,
    /// Measurement budget in seconds (see the module docs).
    pub seconds: f64,
    pub scale: Scale,
}

/// What one workload run produced.
pub struct Outcome {
    /// The six end-to-end metrics, in [`E2E_METRICS`] order.
    pub metrics: [f64; 6],
    pub counts: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failed checks, for the human reader.
    pub failures: Vec<String>,
    /// Sample sizes and other context, printed above the metrics.
    pub notes: Vec<String>,
}

/// Failed-operation accounting: every operation goes through
/// [`Tally::op`], so `failed ÷ attempted` is over operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Count one operation; `problem` is `None` when it passed.
    fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(problem);
            }
        }
    }

    fn into_outcome(
        self,
        metrics: [f64; 6],
        counts: BTreeMap<&'static str, f64>,
        notes: Vec<String>,
    ) -> Outcome {
        Outcome {
            metrics,
            counts,
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            notes,
        }
    }
}

/// Run one workload by name.
pub fn run(name: &str, cfg: &Config) -> Result<Outcome, String> {
    match name {
        "serve_warm" => serve_warm(cfg),
        "serve_cold" => serve_cold(cfg),
        "serve_churn" => serve_churn(cfg),
        "lint_matrix" => lint_matrix(cfg),
        "sweep_matrix" => sweep_matrix(cfg),
        "figure_sweep" => figure_sweep(cfg),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Repeat `unit` at least once, then while fewer than `max_units` ran
/// and the next repeat is expected to end within the budget.
fn repeat_units<T>(
    seconds: f64,
    max_units: usize,
    mut unit: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(unit()?);
        let elapsed = t0.elapsed().as_secs_f64();
        if out.len() >= max_units || elapsed + elapsed / out.len() as f64 > seconds {
            return Ok(out);
        }
    }
}

impl Config {
    /// The smoke scale measures one unit; the full scale as many as the
    /// budget holds.
    fn max_units(&self) -> usize {
        match self.scale {
            Scale::Full => usize::MAX,
            Scale::Smoke => 1,
        }
    }
}

fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

fn empty_counts() -> BTreeMap<&'static str, f64> {
    SURFACE_COUNTS.iter().map(|&name| (name, 0.0)).collect()
}

fn head(text: &str) -> String {
    text.chars().take(160).collect()
}

// ---------------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------------

/// What a well-formed plan request must come back as.
fn plan_problem(reply: &str, want_cached: Option<bool>) -> Option<String> {
    let problem = if !reply.contains("\"status\":\"ok\"") {
        "not ok"
    } else if !reply.contains("\"verified\":true") {
        "not verified"
    } else if want_cached.is_some_and(|c| !reply.contains(&format!("\"cached\":{c}"))) {
        "wrong cached flag"
    } else if reply.contains("\"severity\":\"error\"") {
        "error-severity lint finding"
    } else {
        return None;
    };
    Some(format!("{problem}: {}", head(reply)))
}

/// Virtual-time and schedule counts summed over plan replies.
#[derive(Default)]
struct SimSums {
    virtual_ns: u64,
    sends: u64,
    events: u64,
    contention_events: u64,
    findings: u64,
}

impl SimSums {
    fn add_reply(&mut self, reply: &str) {
        self.virtual_ns += int_after(reply, "\"virtual_makespan_ns\":").unwrap_or(0);
        self.sends += int_after(reply, "\"sends\":").unwrap_or(0);
        self.events += int_after(reply, "\"events\":").unwrap_or(0);
        self.contention_events += int_after(reply, "\"contention_events\":").unwrap_or(0);
        self.findings += reply.matches("\"kind\":\"").count() as u64;
    }

    fn store(&self, counts: &mut BTreeMap<&'static str, f64>) {
        counts.insert("sim.virtual_ns_sum", self.virtual_ns as f64);
        counts.insert("sim.msgs", self.sends as f64);
        counts.insert("sim.sched_events", self.events as f64);
        counts.insert("sim.contention_events", self.contention_events as f64);
        counts.insert("sim.findings", self.findings as f64);
    }
}

/// Daemon counters from `{"cmd":"stats"}`.
struct DaemonStats {
    hits: u64,
    misses: u64,
    planned: u64,
    quarantined: u64,
    errors: u64,
    evictions: u64,
    peak_rss_kb: u64,
}

fn daemon_stats(conn: &mut Conn) -> Result<DaemonStats, String> {
    let mut reply = String::new();
    conn.round_trip("{\"cmd\":\"stats\"}", &mut reply)?;
    let field = |key: &str| {
        int_after(&reply, &format!("\"{key}\":"))
            .ok_or_else(|| format!("stats reply has no {key:?}: {reply}"))
    };
    Ok(DaemonStats {
        hits: field("hits")?,
        misses: field("misses")?,
        planned: field("planned")?,
        quarantined: field("quarantined")?,
        errors: field("errors")?,
        evictions: field("evictions")?,
        peak_rss_kb: field("peak_rss_kb")?,
    })
}

impl DaemonStats {
    fn store(&self, counts: &mut BTreeMap<&'static str, f64>) {
        let lookups = self.hits + self.misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        };
        counts.insert("serve.hit_rate", hit_rate);
        counts.insert("serve.evictions", self.evictions as f64);
        counts.insert("serve.planned", self.planned as f64);
        counts.insert("serve.quarantined", self.quarantined as f64);
        counts.insert("serve.errors", self.errors as f64);
    }
}

/// The scratch files of one serve workload: the persisted cache and the
/// daemons' stderr, in a directory removed on drop.
struct ServeDirs {
    _tmp: TempDir,
    cache: PathBuf,
    log: PathBuf,
}

impl ServeDirs {
    fn create(cfg: &Config, tag: &str) -> Result<ServeDirs, String> {
        let tmp = TempDir::create(&cfg.tmp_root, tag)?;
        Ok(ServeDirs {
            cache: tmp.path().join("plans.json"),
            log: tmp.path().join("daemon.stderr"),
            _tmp: tmp,
        })
    }

    fn daemon_opts<'a>(&'a self, cfg: &'a Config, cache_cap: Option<usize>) -> DaemonOpts<'a> {
        DaemonOpts {
            stp: &cfg.stp,
            cache: &self.cache,
            cache_cap,
            log: &self.log,
        }
    }

    /// Remove the cache a stopped daemon flushed, so the next one
    /// starts cold. A missing file means the flush never happened.
    fn remove_cache(&self) -> Result<(), String> {
        std::fs::remove_file(&self.cache).map_err(|e| format!("cache file was not written: {e}"))
    }
}

fn max_rss_mb(peaks_kb: impl Iterator<Item = u64>) -> f64 {
    peaks_kb.max().unwrap_or(0) as f64 / 1024.0
}

/// Set-ups per run behind the median `setup_s` of every workload but
/// `serve_warm` (a process start is a millisecond or two).
const SETUP_REPEATS: usize = 15;

/// Stop a measured daemon: it must still be alive, then exit 0 on
/// `SIGTERM` (drained pool, flushed cache).
fn stop_daemon(mut daemon: Daemon, conn: Conn, tally: &mut Tally) -> Result<(), String> {
    tally.op((!daemon.alive()).then(|| "daemon died during the workload".to_string()));
    drop(conn);
    daemon.terminate()
}

/// Set-up time of a workload that starts from an empty cache: spawn →
/// `listening on`, several times, median. The first reply is left out
/// on purpose: the accept loop polls every 20 ms, so whether a connect
/// lands before or after its first poll is a coin toss worth ten times
/// the start-up itself.
fn fresh_daemon_setup_s(opts: &DaemonOpts) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let daemon = Daemon::spawn(opts)?;
        times.push(t0.elapsed().as_secs_f64());
        daemon.terminate()?;
        let _ = std::fs::remove_file(opts.cache);
    }
    Ok(median(&times))
}

fn serve_warm(cfg: &Config) -> Result<Outcome, String> {
    let _one_core = OneCore::pin()?;
    let (max_len, unit_requests, max_units) = match cfg.scale {
        Scale::Full => (usize::MAX, 20_000, usize::MAX),
        Scale::Smoke => (1024, 5_000, 2),
    };
    let universe = universe_240(max_len);
    let dirs = ServeDirs::create(cfg, "serve_warm")?;
    let opts = dirs.daemon_opts(cfg, None);
    let mut tally = Tally::default();
    let mut reply = String::new();

    // Set-up, part 1: fill the cache through a first daemon and stop it
    // cleanly, so the cache is flushed.
    let t_fill = Instant::now();
    let daemon = Daemon::spawn(&opts)?;
    let mut conn = daemon.connect()?;
    let mut sums = SimSums::default();
    let mut warm_replies = Vec::with_capacity(universe.len());
    for plan in &universe {
        conn.round_trip(&plan.line, &mut reply)?;
        tally.op(plan_problem(&reply, Some(false)));
        sums.add_reply(&reply);
        // The warm reply for the same key must be this reply with only
        // the `cached` flag flipped: a byte-identical plan body.
        warm_replies.push(reply.replacen("\"cached\":false", "\"cached\":true", 1));
    }
    stop_daemon(daemon, conn, &mut tally)?;
    let fill_s = t_fill.elapsed().as_secs_f64();

    // Set-up, part 2: restart on the flushed cache; the first pass must
    // be all hits. Done three times; the last daemon is measured.
    let mut restart_s = Vec::new();
    let mut live = None;
    for _ in 0..3 {
        if let Some((daemon, conn)) = live.take() {
            stop_daemon(daemon, conn, &mut tally)?;
        }
        let t0 = Instant::now();
        let daemon = Daemon::spawn(&opts)?;
        let mut conn = daemon.connect()?;
        for (plan, want) in universe.iter().zip(&warm_replies) {
            conn.round_trip(&plan.line, &mut reply)?;
            tally.op((reply != *want)
                .then(|| format!("after restart, not the cached cold reply: {}", plan.line)));
        }
        restart_s.push(t0.elapsed().as_secs_f64());
        live = Some((daemon, conn));
    }
    let (daemon, mut conn) = live.expect("the last restart is kept");
    let setup_s = fill_s + median(&restart_s);

    // Measured: zipf(1.0) requests in closed loop, unit after unit.
    struct Unit {
        wall_s: f64,
        p50_ns: u64,
        p99_ns: u64,
    }
    let zipf = Zipf::new(universe.len());
    let mut rng = SplitMix64::new(cfg.seed);
    let mut lat = Vec::with_capacity(unit_requests);
    let units = repeat_units(cfg.seconds, max_units, || {
        lat.clear();
        let t0 = Instant::now();
        for _ in 0..unit_requests {
            let idx = zipf.draw(&mut rng);
            lat.push(conn.round_trip(&universe[idx].line, &mut reply)?);
            tally.op((reply != warm_replies[idx]).then(|| {
                format!(
                    "warm reply differs from the cold one: {}",
                    universe[idx].line
                )
            }));
        }
        let wall_s = t0.elapsed().as_secs_f64();
        lat.sort_unstable();
        Ok(Unit {
            wall_s,
            p50_ns: percentile_ns(&lat, 50.0),
            p99_ns: percentile_ns(&lat, 99.0),
        })
    })?;

    let stats = daemon_stats(&mut conn)?;
    stop_daemon(daemon, conn, &mut tally)?;

    let mut counts = empty_counts();
    stats.store(&mut counts);
    sums.store(&mut counts);
    // Every unit is the same amount of statistically identical work, so
    // what differs between units is the machine, and the machine only
    // ever adds time. The quiet quartile of the units is reported, not
    // their median: a run that shares its core with a noisy neighbour for
    // half its units still reads what the program costs. (Over eight
    // runs of one binary the quartile spread 1 % on p50 and 10 % on p99,
    // the median 1 % and 12 %, the mean 3 % and 16 %, the minimum 15 %
    // and 17 %.)
    let quiet = |f: fn(&Unit) -> f64| {
        let mut values: Vec<f64> = units.iter().map(f).collect();
        values.sort_by(f64::total_cmp);
        values[(values.len() - 1) / 4]
    };
    let wall_s = quiet(|u| u.wall_s);
    let metrics = [
        setup_s,
        wall_s,
        unit_requests as f64 / wall_s,
        quiet(|u| ns_to_us(u.p50_ns)),
        quiet(|u| ns_to_us(u.p99_ns)),
        stats.peak_rss_kb as f64 / 1024.0,
    ];
    let notes = vec![
        format!(
            "operation = one cached plan request; {} units of {unit_requests} zipf(1.0) requests over {} plans, closed loop, 1 connection",
            units.len(),
            universe.len()
        ),
        format!(
            "wall_s, op_p50_us, op_tail_us = lower quartile over units of the unit's wall, p50, p99 ({} samples beyond each p99)",
            samples_beyond(unit_requests, 99.0)
        ),
        format!(
            "setup_s = fill {fill_s:.3} s + median of 3 restarts on the flushed cache {:.4} s",
            median(&restart_s)
        ),
    ];
    Ok(tally.into_outcome(metrics, counts, notes))
}

fn serve_cold(cfg: &Config) -> Result<Outcome, String> {
    // Not pinned: a cold plan is milliseconds of simulation, the wake-up
    // path is noise below 2 %, and the scheduler may dodge a busy core.
    let max_len = match cfg.scale {
        Scale::Full => usize::MAX,
        Scale::Smoke => 1024,
    };
    let universe = universe_240(max_len);
    let lint = lint_subset(&universe);
    let dirs = ServeDirs::create(cfg, "serve_cold")?;
    let opts = dirs.daemon_opts(cfg, None);
    let setup_s = fresh_daemon_setup_s(&opts)?;

    // One seeded order for every pass, so each pass plans the same
    // sequence against the same (growing) persisted store.
    let mut rng = SplitMix64::new(cfg.seed);
    let mut order: Vec<&PlanLine> = universe.iter().collect();
    rng.shuffle(&mut order);
    let mut lint_order: Vec<&PlanLine> = lint.iter().collect();
    rng.shuffle(&mut lint_order);

    struct Pass {
        wall_s: f64,
        plain_ns: Vec<u64>,
        lint_ns: Vec<u64>,
        sums: SimSums,
        stats: DaemonStats,
    }
    let mut tally = Tally::default();
    let mut reply = String::new();
    let passes = repeat_units(cfg.seconds, cfg.max_units(), || {
        let daemon = Daemon::spawn(&opts)?;
        let mut conn = daemon.connect()?;
        let mut plain_ns = Vec::with_capacity(order.len());
        let mut lint_ns = Vec::with_capacity(lint_order.len());
        let mut sums = SimSums::default();
        let t0 = Instant::now();
        for plan in &order {
            plain_ns.push(conn.round_trip(&plan.line, &mut reply)?);
            tally.op(plan_problem(&reply, Some(false)));
            sums.add_reply(&reply);
        }
        for plan in &lint_order {
            lint_ns.push(conn.round_trip(&plan.line, &mut reply)?);
            tally.op(plan_problem(&reply, Some(false)).or_else(|| {
                (!reply.contains("\"lint\":{")).then(|| format!("no lint report: {}", plan.line))
            }));
            sums.add_reply(&reply);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let stats = daemon_stats(&mut conn)?;
        stop_daemon(daemon, conn, &mut tally)?;
        dirs.remove_cache()?;
        Ok(Pass {
            wall_s,
            plain_ns,
            lint_ns,
            sums,
            stats,
        })
    })?;

    let mut plain: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.plain_ns.iter().copied())
        .collect();
    let mut linted: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.lint_ns.iter().copied())
        .collect();
    plain.sort_unstable();
    linted.sort_unstable();
    let plain_total_s = plain.iter().sum::<u64>() as f64 / 1e9;

    let first = &passes[0];
    let mut counts = empty_counts();
    first.stats.store(&mut counts);
    first.sums.store(&mut counts);
    counts.insert(
        "serve.cold_lint_p50_ms",
        percentile_ns(&linted, 50.0) as f64 / 1e6,
    );
    let metrics = [
        setup_s,
        median_of(&passes, |p| p.wall_s),
        plain.len() as f64 / plain_total_s,
        ns_to_us(percentile_ns(&plain, 50.0)),
        ns_to_us(percentile_ns(&plain, 90.0)),
        max_rss_mb(passes.iter().map(|p| p.stats.peak_rss_kb)),
    ];
    let notes = vec![
        format!(
            "operation = one cold plan; {} pass(es) of {} plain plans in seeded order + {} with \"lint\":true, fresh daemon and cache each, samples pooled",
            passes.len(),
            order.len(),
            lint_order.len()
        ),
        format!(
            "op_p50_us / op_tail_us = p50 / p90 of the {} pooled plain plans ({} samples beyond p90); ops_per_s = plain plans / their summed latency; wall_s = one whole pass",
            plain.len(),
            samples_beyond(plain.len(), 90.0)
        ),
        format!(
            "lint:true plans: p50 {:.3} ms over {} samples (per-layer serve.cold_lint_p50_ms)",
            percentile_ns(&linted, 50.0) as f64 / 1e6,
            linted.len()
        ),
    ];
    Ok(tally.into_outcome(metrics, counts, notes))
}

/// One request of the churn mix.
enum ChurnLine {
    Plan(usize),
    Hostile(usize),
}

fn serve_churn(cfg: &Config) -> Result<Outcome, String> {
    let _one_core = OneCore::pin()?;
    let requests = match cfg.scale {
        Scale::Full => 10_000,
        Scale::Smoke => 1_000,
    };
    const CACHE_CAP: usize = 64;
    let universe = churn_256();
    let dirs = ServeDirs::create(cfg, "serve_churn")?;
    let opts = dirs.daemon_opts(cfg, Some(CACHE_CAP));
    let setup_s = fresh_daemon_setup_s(&opts)?;

    // One seeded mix for every pass: with one connection the LRU
    // sequence is deterministic, so hit rate and evictions are exact.
    let zipf = Zipf::new(universe.len());
    let mut rng = SplitMix64::new(cfg.seed);
    let mut hostile = 0;
    let mix: Vec<ChurnLine> = (0..requests)
        .map(|_| {
            if rng.unit() < 0.01 {
                hostile += 1;
                ChurnLine::Hostile((hostile - 1) % HOSTILE.len())
            } else {
                ChurnLine::Plan(zipf.draw(&mut rng))
            }
        })
        .collect();

    struct Pass {
        wall_s: f64,
        miss_ns: Vec<u64>,
        sums: SimSums,
        stats: DaemonStats,
    }
    let mut tally = Tally::default();
    let mut reply = String::new();
    // The first body seen per plan: every later reply for it, cached or
    // planned again after an eviction, must carry the same bytes.
    let mut bodies: Vec<Option<String>> = vec![None; universe.len()];
    let passes = repeat_units(cfg.seconds, cfg.max_units(), || {
        let daemon = Daemon::spawn(&opts)?;
        let mut conn = daemon.connect()?;
        let mut miss_ns = Vec::with_capacity(requests / 2);
        let mut sums = SimSums::default();
        let t0 = Instant::now();
        for line in &mix {
            match *line {
                ChurnLine::Hostile(kind) => {
                    conn.round_trip(HOSTILE[kind], &mut reply)?;
                    tally.op((!reply.contains("\"status\":\"error\"")).then(|| {
                        format!("hostile line {:?} answered {}", HOSTILE[kind], head(&reply))
                    }));
                }
                ChurnLine::Plan(idx) => {
                    let ns = conn.round_trip(&universe[idx].line, &mut reply)?;
                    let body = plan_body(&reply).unwrap_or("");
                    let problem = plan_problem(&reply, None).or_else(|| {
                        let first = bodies[idx].get_or_insert_with(|| body.to_string());
                        (first != body)
                            .then(|| format!("plan body changed: {}", universe[idx].line))
                    });
                    tally.op(problem);
                    if reply.contains("\"cached\":false") {
                        miss_ns.push(ns);
                        sums.add_reply(&reply);
                    }
                }
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let stats = daemon_stats(&mut conn)?;
        stop_daemon(daemon, conn, &mut tally)?;
        dirs.remove_cache()?;
        Ok(Pass {
            wall_s,
            miss_ns,
            sums,
            stats,
        })
    })?;

    let mut misses: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.miss_ns.iter().copied())
        .collect();
    misses.sort_unstable();
    let first = &passes[0];
    let mut counts = empty_counts();
    first.stats.store(&mut counts);
    first.sums.store(&mut counts);
    let metrics = [
        setup_s,
        median_of(&passes, |p| p.wall_s),
        median_of(&passes, |p| requests as f64 / p.wall_s),
        ns_to_us(percentile_ns(&misses, 50.0)),
        ns_to_us(percentile_ns(&misses, 90.0)),
        max_rss_mb(passes.iter().map(|p| p.stats.peak_rss_kb)),
    ];
    let notes = vec![
        format!(
            "operation = one request of the mix; {} pass(es) of {requests} zipf(1.0) requests over {} plans against --cache-cap {CACHE_CAP}, {hostile} hostile lines, fresh daemon and cache each",
            passes.len(),
            universe.len()
        ),
        format!(
            "ops_per_s = all requests / pass wall; op_p50_us / op_tail_us = p50 / p90 over the {} pooled \"cached\":false replies ({} samples beyond p90)",
            misses.len(),
            samples_beyond(misses.len(), 90.0)
        ),
        format!(
            "exact per pass: {} hits, {} misses, {} evictions",
            first.stats.hits, first.stats.misses, first.stats.evictions
        ),
    ];
    Ok(tally.into_outcome(metrics, counts, notes))
}

// ---------------------------------------------------------------------------
// Batch workloads
// ---------------------------------------------------------------------------

/// Set-up time of a batch workload, and the CLI's start-up cost: the
/// binary starts and lists its algorithms (`stp --list`), several times,
/// median.
pub fn cli_startup_s(cfg: &Config, tmp: &TempDir) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let mut cmd = stp_command(&cfg.stp, 1);
        cmd.arg("--list");
        let run = run_child(cmd, tmp.path())?;
        if run.code != Some(0) || !run.stdout.contains("KPort_Lin") {
            return Err(format!("`stp --list` failed: {}", head(&run.stderr)));
        }
        times.push(run.wall_ns as f64 / 1e9);
    }
    Ok(median(&times))
}

/// Wall-clock and peak RSS of one measured unit of a batch workload.
struct BatchUnit {
    wall_ns: u64,
    peak_rss_kb: u64,
}

/// Metrics of a workload whose unit is one child process.
fn single_child_metrics(setup_s: f64, units: &[BatchUnit], ops_per_unit: usize) -> [f64; 6] {
    let wall_s = median_of(units, |u| u.wall_ns as f64 / 1e9);
    [
        setup_s,
        wall_s,
        ops_per_unit as f64 / wall_s,
        wall_s * 1e6,
        wall_s * 1e6,
        max_rss_mb(units.iter().map(|u| u.peak_rss_kb)),
    ]
}

/// The lint/sweep grid: `(--quick, points)`.
fn matrix_scale(cfg: &Config) -> (bool, usize) {
    match cfg.scale {
        Scale::Full => (false, 1280),
        Scale::Smoke => (true, 640),
    }
}

/// One operation per report entry, judged by `problem`; an entry the
/// report lacks is a failed operation too.
fn tally_entries(
    tally: &mut Tally,
    entries: &[&str],
    expected: usize,
    problem: impl Fn(&str) -> Option<&'static str>,
) {
    for entry in entries {
        tally.op(problem(entry).map(|p| format!("{p}: {}", head(entry))));
    }
    for _ in entries.len()..expected {
        tally.op(Some(format!(
            "report has {} entries, expected {expected}",
            entries.len()
        )));
    }
}

fn lint_matrix(cfg: &Config) -> Result<Outcome, String> {
    let (quick, schedules) = matrix_scale(cfg);
    let tmp = TempDir::create(&cfg.tmp_root, "lint_matrix")?;
    let report_path = tmp.path().join("lint.json");
    let setup_s = cli_startup_s(cfg, &tmp)?;
    let workers = sweep_workers();

    let mut tally = Tally::default();
    let mut counts = empty_counts();
    let units = repeat_units(cfg.seconds, cfg.max_units(), || {
        let mut cmd = stp_command(&cfg.stp, workers);
        cmd.args(["lint", "--perf", "--json"]).arg(&report_path);
        if quick {
            cmd.arg("--quick");
        }
        let run = run_child(cmd, tmp.path())?;
        // Exit 1 with only warning/note perf findings is a success: the
        // paper's weak baselines are expected to smell.
        if !matches!(run.code, Some(0 | 1)) {
            return Err(format!(
                "stp lint exited with {:?}: {}",
                run.code,
                head(&run.stderr)
            ));
        }
        let report =
            std::fs::read_to_string(&report_path).map_err(|e| format!("no lint report: {e}"))?;
        let entries: Vec<&str> = report.lines().filter(|l| l.contains("\"algo\":")).collect();
        tally_entries(&mut tally, &entries, schedules, |entry| {
            if entry.contains("\"deadlocked\":true") {
                Some("deadlocked")
            } else if entry.contains("\"severity\":\"error\"") {
                Some("error-severity finding")
            } else {
                None
            }
        });
        counts.insert("sim.findings", report.matches("\"kind\":\"").count() as f64);
        let sends = sum_int_fields(&report, "\"sends\":");
        counts.insert("sim.msgs", sends as f64);
        counts.insert(
            "sim.sched_events",
            (sends + sum_int_fields(&report, "\"recvs\":")) as f64,
        );
        Ok(BatchUnit {
            wall_ns: run.wall_ns,
            peak_rss_kb: run.peak_rss_kb,
        })
    })?;

    let notes = vec![
        format!(
            "operation = one schedule recorded and analyzed; 1 child `stp lint --perf{} --json`, {schedules} schedules, L=64, STP_SWEEP_WORKERS={workers}",
            if quick { " --quick" } else { "" }
        ),
        "op_p50_us = op_tail_us = the one child's wall-clock (n = 1)".to_string(),
        format!("exact: {} findings", counts["sim.findings"]),
    ];
    Ok(tally.into_outcome(
        single_child_metrics(setup_s, &units, schedules),
        counts,
        notes,
    ))
}

fn sweep_matrix(cfg: &Config) -> Result<Outcome, String> {
    let (quick, points) = matrix_scale(cfg);
    let tmp = TempDir::create(&cfg.tmp_root, "sweep_matrix")?;
    let report_path = tmp.path().join("sweep.json");
    let setup_s = cli_startup_s(cfg, &tmp)?;
    let workers = sweep_workers();

    let mut tally = Tally::default();
    let mut counts = empty_counts();
    let units = repeat_units(cfg.seconds, cfg.max_units(), || {
        let mut cmd = stp_command(&cfg.stp, workers);
        cmd.args(["sweep", "--len", "64", "--json"])
            .arg(&report_path);
        if quick {
            cmd.arg("--quick");
        }
        let run = run_child(cmd, tmp.path())?;
        let summary_ok = run
            .stdout
            .contains(&format!("swept {points}/{points} points"))
            && run.stdout.contains("0 unverified, 0 failed, 0 skipped");
        if run.code != Some(0) || !summary_ok {
            return Err(format!(
                "stp sweep exited with {:?}: {}",
                run.code,
                head(run.stdout.lines().last().unwrap_or(&run.stderr))
            ));
        }
        let report =
            std::fs::read_to_string(&report_path).map_err(|e| format!("no sweep report: {e}"))?;
        let records: Vec<&str> = report
            .lines()
            .filter(|l| l.contains("\"makespan_ns\":"))
            .collect();
        tally_entries(&mut tally, &records, points, |record| {
            (!record.contains("\"verified\":true")).then_some("unverified")
        });
        counts.insert(
            "sim.virtual_ns_sum",
            sum_int_fields(&report, "\"makespan_ns\":") as f64,
        );
        Ok(BatchUnit {
            wall_ns: run.wall_ns,
            peak_rss_kb: run.peak_rss_kb,
        })
    })?;

    let notes = vec![
        format!(
            "operation = one grid point simulated (no recorder, no analyzer); 1 child `stp sweep --len 64{} --json`, {points} points, STP_SWEEP_WORKERS={workers}",
            if quick { " --quick" } else { "" }
        ),
        "op_p50_us = op_tail_us = the one child's wall-clock (n = 1)".to_string(),
    ];
    Ok(tally.into_outcome(single_child_metrics(setup_s, &units, points), counts, notes))
}

/// Check one `--sweep-len` table; returns the summed makespan in ns.
fn figure_rows(run: &ChildRun) -> Result<u64, String> {
    if run.code != Some(0) {
        return Err(format!("exit {:?}: {}", run.code, head(&run.stderr)));
    }
    let rows: Vec<&str> = run
        .stdout
        .lines()
        .skip_while(|line| *line != "L,ms,verified")
        .skip(1)
        .collect();
    if rows.len() != 4 {
        return Err(format!("{} rows, expected 4", rows.len()));
    }
    let mut virtual_ns = 0;
    for row in rows {
        let mut cols = row.split(',');
        let ms: Option<f64> = cols.nth(1).and_then(|ms| ms.parse().ok());
        match (ms, cols.next()) {
            (Some(ms), Some("true")) => virtual_ns += (ms * 1e6).round() as u64,
            _ => return Err(format!("bad row {row:?}")),
        }
    }
    Ok(virtual_ns)
}

fn figure_sweep(cfg: &Config) -> Result<Outcome, String> {
    const REPEAT_EVERY: usize = 16;
    let mut invocations = figure_invocations();
    if cfg.scale == Scale::Smoke {
        // Every sixth invocation: all three machines stay in.
        invocations = invocations.into_iter().step_by(6).collect();
    }
    let tmp = TempDir::create(&cfg.tmp_root, "figure_sweep")?;
    let setup_s = cli_startup_s(cfg, &tmp)?;

    let mut tally = Tally::default();
    let mut counts = empty_counts();
    let mut child_ns = Vec::new();
    let units = repeat_units(cfg.seconds, cfg.max_units(), || {
        let mut virtual_ns = 0;
        let mut unit = BatchUnit {
            wall_ns: 0,
            peak_rss_kb: 0,
        };
        for (i, args) in invocations.iter().enumerate() {
            // Every sixteenth invocation (one per machine, one k-ported)
            // runs twice: a repeat must not differ by a byte.
            let repeats = if i % REPEAT_EVERY == 0 { 2 } else { 1 };
            let mut first_stdout = None;
            for _ in 0..repeats {
                let mut cmd = stp_command(&cfg.stp, 1);
                cmd.args(args);
                let run = run_child(cmd, tmp.path())?;
                unit.wall_ns += run.wall_ns;
                unit.peak_rss_kb = unit.peak_rss_kb.max(run.peak_rss_kb);
                child_ns.push(run.wall_ns);
                let problem = match (figure_rows(&run), &first_stdout) {
                    (Err(e), _) => Some(e),
                    (Ok(_), Some(first)) if *first != run.stdout => {
                        Some("differs from its first run".to_string())
                    }
                    (Ok(ns), None) => {
                        virtual_ns += ns;
                        None
                    }
                    (Ok(_), Some(_)) => None,
                };
                tally.op(problem.map(|p| format!("stp {}: {p}", args.join(" "))));
                first_stdout.get_or_insert(run.stdout);
            }
        }
        counts.insert("sim.virtual_ns_sum", virtual_ns as f64);
        Ok(unit)
    })?;

    child_ns.sort_unstable();
    let wall_s = median_of(&units, |u| u.wall_ns as f64 / 1e9);
    let per_unit = child_ns.len() / units.len();
    let metrics = [
        setup_s,
        wall_s,
        per_unit as f64 / wall_s,
        ns_to_us(percentile_ns(&child_ns, 50.0)),
        ns_to_us(percentile_ns(&child_ns, 80.0)),
        max_rss_mb(units.iter().map(|u| u.peak_rss_kb)),
    ];
    let notes = vec![
        format!(
            "operation = one `stp … --sweep-len {FIGURE_LENS}` child (4 simulations, STP_SWEEP_WORKERS=1); {} invocations, every {REPEAT_EVERY}th run twice and byte-compared",
            invocations.len()
        ),
        format!(
            "wall_s = summed child wall-clock; op_p50_us / op_tail_us = p50 / p80 over {} children ({} samples beyond p80)",
            child_ns.len(),
            samples_beyond(child_ns.len(), 80.0)
        ),
    ];
    Ok(tally.into_outcome(metrics, counts, notes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_agrees_with_this_table() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        let section = |from: &str, to: &str| {
            let (_, rest) = text.split_once(from).expect(from);
            let (body, _) = rest.split_once(to).expect(to);
            body.lines()
                .filter(|line| line.contains("\"name\""))
                .map(|line| line.trim().trim_end_matches(',').to_string())
                .collect::<Vec<_>>()
        };
        let expected: Vec<String> = E2E_METRICS
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    },
                    m.bound
                )
            })
            .collect();
        assert_eq!(section("\"end_to_end\"", "\"per_layer\""), expected);
        let listed = section("\"workloads\"", "\"end_to_end\"");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (line, name) in listed.iter().zip(WORKLOADS) {
            assert!(
                line.starts_with(&format!("{{\"name\": \"{name}\", \"why\": ")),
                "{line}"
            );
        }
        let seconds = crate::text::num_after(&text, "\"run_seconds\": ");
        assert_eq!(seconds, Some(crate::cli::DEFAULT_SECONDS));
    }

    #[test]
    fn units_repeat_until_the_budget_or_the_cap() {
        let mut n = 0;
        let out = repeat_units(0.0, usize::MAX, || {
            n += 1;
            Ok(n)
        });
        assert_eq!(out, Ok(vec![1]), "at least one unit, even with no budget");
        let out = repeat_units(3600.0, 3, || Ok(()));
        assert_eq!(out.map(|units| units.len()), Ok(3));
        let failed: Result<Vec<()>, String> = repeat_units(1.0, 9, || Err("boom".to_string()));
        assert_eq!(failed, Err("boom".to_string()));
    }

    #[test]
    fn plan_replies_are_judged_by_the_repository_contracts() {
        let ok = "{\"status\":\"ok\",\"cached\":false,\"plan\":{\"verified\":true}}";
        assert_eq!(plan_problem(ok, Some(false)), None);
        assert_eq!(plan_problem(ok, None), None);
        assert!(plan_problem(ok, Some(true)).is_some());
        assert!(plan_problem(&ok.replace("true}", "false}"), None).is_some());
        assert!(plan_problem("{\"status\":\"error\"}", None).is_some());
        let linted = ok.replace(
            "}}",
            ",\"lint\":{\"findings\":[{\"severity\":\"error\"}]}}}",
        );
        assert!(plan_problem(&linted, None).is_some());
    }

    #[test]
    fn figure_tables_are_checked_row_by_row() {
        let table = |rows: &str| ChildRun {
            wall_ns: 1,
            code: Some(0),
            stdout: format!("machine paragon\nL,ms,verified\n{rows}"),
            stderr: String::new(),
            peak_rss_kb: 0,
        };
        let good = "1024,1.5000,true\n4096,2.0000,true\n8192,3.0000,true\n16384,4.2501,true\n";
        assert_eq!(figure_rows(&table(good)), Ok(10_750_100));
        assert!(figure_rows(&table(&good.replace("3.0000,true", "3.0000,false"))).is_err());
        assert!(figure_rows(&table("1024,1.5,true\n")).is_err());
        let mut crashed = table(good);
        crashed.code = Some(101);
        assert!(figure_rows(&crashed).is_err());
    }
}
