//! Experiment runner: one call per result from (machine, sources,
//! payloads, algorithm, [`RunControl`]). [`try_run_alg_controlled`]
//! gives a verified, timed [`Outcome`] (a deadlock is an `Err`),
//! [`try_record_sources`] a [`RecordedRun`] (a deadlock is recorded);
//! [`Experiment::run_controlled`] places the sources first.

use mpp_model::{LibraryKind, Machine, Time};
use mpp_runtime::{
    try_simulate_with, CancelToken, CommStats, EventLog, ExecMode, FaultPlan, KernelCounters,
    Payload, SimBudget, SimConfig, SimError,
};

use crate::algorithms::{
    BrLin, BrXyDim, BrXySource, DissemAllGather, KPortAlltoall, KPortLin, KPortScatter,
    NaiveIndependent, Part, PersAlltoAll, ReposAdaptive, StpAlgorithm, StpCtx, TwoStep,
};
use crate::distribution::SourceDist;
use crate::msgset::{payload_for, MessageSet, Slot};

/// Every algorithm variant the experiments exercise.
///
/// `MpiAllGather` / `MpiAlltoall` are the paper's names for the MPI
/// builds of `2-Step` / `PersAlltoAll` (§5.3); they run the same code
/// under [`LibraryKind::Mpi`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoKind {
    /// `2-Step`: gather at P₀ + one-to-all broadcast (NX build).
    TwoStep,
    /// `PersAlltoAll`: personalized all-to-all exchange (NX build).
    PersAlltoAll,
    /// `Br_Lin` on the snake order.
    BrLin,
    /// `Br_xy_source`.
    BrXySource,
    /// `Br_xy_dim`.
    BrXyDim,
    /// `Repos_Lin` = reposition to `Dl(s)` + `Br_Lin`.
    ReposLin,
    /// `Repos_xy_source` = reposition to ideal rows + `Br_xy_source`.
    ReposXySource,
    /// `Repos_xy_dim`.
    ReposXyDim,
    /// `Part_Lin`.
    PartLin,
    /// `Part_xy_source`.
    PartXySource,
    /// `Part_xy_dim`.
    PartXyDim,
    /// MPI build of 2-Step (the paper's `MPI_AllGather`).
    MpiAllGather,
    /// MPI build of PersAlltoAll (the paper's `MPI_Alltoall`).
    MpiAlltoall,
    /// Extension: dissemination all-gather with combining charges.
    DissemAllGather,
    /// Extension: dissemination all-gather, zero-copy block placement.
    DissemZeroCopy,
    /// Extension: quality-gated repositioning over `Br_xy_source`.
    ReposAdaptiveXySource,
    /// The baseline §2 rejects: uncoordinated independent broadcasts.
    NaiveIndependent,
    /// Extension: k source-striped `Br_Lin` lanes batched across the
    /// machine's injection ports.
    KPortLin,
    /// Extension: gather + batched k-way scatter + k-lane broadcast.
    KPortScatter,
    /// Extension: port-striped direct all-to-all.
    KPortAlltoall,
}

impl AlgoKind {
    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            AlgoKind::TwoStep => "2-Step",
            AlgoKind::PersAlltoAll => "PersAlltoAll",
            AlgoKind::BrLin => "Br_Lin",
            AlgoKind::BrXySource => "Br_xy_source",
            AlgoKind::BrXyDim => "Br_xy_dim",
            AlgoKind::ReposLin => "Repos_Lin",
            AlgoKind::ReposXySource => "Repos_xy_source",
            AlgoKind::ReposXyDim => "Repos_xy_dim",
            AlgoKind::PartLin => "Part_Lin",
            AlgoKind::PartXySource => "Part_xy_source",
            AlgoKind::PartXyDim => "Part_xy_dim",
            AlgoKind::MpiAllGather => "MPI_AllGather",
            AlgoKind::MpiAlltoall => "MPI_Alltoall",
            AlgoKind::DissemAllGather => "DissemAllGather",
            AlgoKind::DissemZeroCopy => "DissemAllGather (zero-copy)",
            AlgoKind::ReposAdaptiveXySource => "ReposAdaptive_xy_source",
            AlgoKind::NaiveIndependent => "NaiveIndependent",
            AlgoKind::KPortLin => "KPort_Lin",
            AlgoKind::KPortScatter => "KPort_Scatter",
            AlgoKind::KPortAlltoall => "KPort_Alltoall",
        }
    }

    /// The algorithm variants evaluated in the paper (no extensions).
    pub fn paper_set() -> &'static [AlgoKind] {
        &[
            AlgoKind::TwoStep,
            AlgoKind::PersAlltoAll,
            AlgoKind::BrLin,
            AlgoKind::BrXySource,
            AlgoKind::BrXyDim,
            AlgoKind::ReposLin,
            AlgoKind::ReposXySource,
            AlgoKind::ReposXyDim,
            AlgoKind::PartLin,
            AlgoKind::PartXySource,
            AlgoKind::PartXyDim,
            AlgoKind::MpiAllGather,
            AlgoKind::MpiAlltoall,
        ]
    }

    /// The library flavour this variant runs under by default.
    pub fn default_lib(self) -> LibraryKind {
        match self {
            AlgoKind::MpiAllGather | AlgoKind::MpiAlltoall => LibraryKind::Mpi,
            _ => LibraryKind::Nx,
        }
    }

    /// All variants, including the extensions beyond the paper.
    pub fn all() -> &'static [AlgoKind] {
        &[
            AlgoKind::TwoStep,
            AlgoKind::PersAlltoAll,
            AlgoKind::BrLin,
            AlgoKind::BrXySource,
            AlgoKind::BrXyDim,
            AlgoKind::ReposLin,
            AlgoKind::ReposXySource,
            AlgoKind::ReposXyDim,
            AlgoKind::PartLin,
            AlgoKind::PartXySource,
            AlgoKind::PartXyDim,
            AlgoKind::MpiAllGather,
            AlgoKind::MpiAlltoall,
            AlgoKind::DissemAllGather,
            AlgoKind::DissemZeroCopy,
            AlgoKind::ReposAdaptiveXySource,
            AlgoKind::NaiveIndependent,
            AlgoKind::KPortLin,
            AlgoKind::KPortScatter,
            AlgoKind::KPortAlltoall,
        ]
    }

    /// Parse an algorithm name as used by the `stp` CLI and the serve
    /// request schema: the paper-style display name, matched
    /// case-insensitively, with `-`/` ` treated as `_`.
    pub fn parse(name: &str) -> Option<AlgoKind> {
        AlgoKind::all().iter().copied().find(|k| {
            k.name().eq_ignore_ascii_case(name)
                || k.name().to_lowercase().replace(['-', ' '], "_") == name.to_lowercase()
        })
    }

    /// Instantiate the algorithm object.
    pub fn build(self) -> Box<dyn StpAlgorithm> {
        match self {
            // The paper's NX 2-Step gathers directly; the MPI library
            // routine gathers over a binomial tree (see two_step docs).
            AlgoKind::TwoStep => Box::new(TwoStep::direct()),
            AlgoKind::MpiAllGather => Box::new(TwoStep::tree()),
            AlgoKind::PersAlltoAll | AlgoKind::MpiAlltoall => Box::new(PersAlltoAll),
            AlgoKind::BrLin => Box::new(BrLin),
            AlgoKind::BrXySource => Box::new(BrXySource),
            AlgoKind::BrXyDim => Box::new(BrXyDim),
            AlgoKind::ReposLin => Box::new(Part::new(BrLin, 0, "Repos_Lin")),
            AlgoKind::ReposXySource => Box::new(Part::new(BrXySource, 0, "Repos_xy_source")),
            AlgoKind::ReposXyDim => Box::new(Part::new(BrXyDim, 0, "Repos_xy_dim")),
            AlgoKind::PartLin => Box::new(Part::new(BrLin, 1, "Part_Lin")),
            AlgoKind::PartXySource => Box::new(Part::new(BrXySource, 1, "Part_xy_source")),
            AlgoKind::PartXyDim => Box::new(Part::new(BrXyDim, 1, "Part_xy_dim")),
            AlgoKind::DissemAllGather => Box::new(DissemAllGather::new()),
            AlgoKind::DissemZeroCopy => Box::new(DissemAllGather::zero_copy()),
            AlgoKind::ReposAdaptiveXySource => Box::new(ReposAdaptive::new(
                BrXySource,
                AlgoKind::BrXySource,
                "ReposAdaptive_xy_source",
            )),
            AlgoKind::NaiveIndependent => Box::new(NaiveIndependent),
            AlgoKind::KPortLin => Box::new(KPortLin),
            AlgoKind::KPortScatter => Box::new(KPortScatter),
            AlgoKind::KPortAlltoall => Box::new(KPortAlltoall),
        }
    }
}

/// A fully-specified experiment.
#[derive(Clone)]
pub struct Experiment<'a> {
    /// Machine to run on.
    pub machine: &'a Machine,
    /// Source distribution family.
    pub dist: SourceDist,
    /// Number of sources (`1..=p`).
    pub s: usize,
    /// Message length at each source, bytes (the paper's `L`).
    pub msg_len: usize,
    /// Algorithm variant.
    pub kind: AlgoKind,
}

/// Result of a run: virtual times, statistics, verification verdict.
#[derive(Debug)]
pub struct Outcome {
    /// Virtual makespan (ns) — the time the paper plots.
    pub makespan_ns: Time,
    /// Per-rank finish times (ns).
    pub finish_ns: Vec<Time>,
    /// Per-rank communication statistics.
    pub stats: Vec<CommStats>,
    /// Whether every rank ended with exactly the `s` expected messages:
    /// each source once, at its message's length.
    pub verified: bool,
    /// Network contention stalls.
    pub contention_events: u64,
    /// Total stall time (ns).
    pub contention_ns: Time,
    /// The source ranks used.
    pub sources: Vec<usize>,
    /// The kernel's own work, in counts.
    pub counters: KernelCounters,
}

impl Outcome {
    /// Makespan in milliseconds.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ns as f64 / 1e6
    }
}

/// Supervision knobs threaded down into one run. The default is an
/// unsupervised, unbounded cooperative run on a perfect network; no
/// field is read from the process environment.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Deterministic network fault plan (`None` = perfect network).
    pub faults: Option<FaultPlan>,
    /// Watchdog ceilings (events / virtual time) turning livelocks into
    /// [`SimError::WatchdogTripped`].
    pub budget: SimBudget,
    /// Cooperative cancellation: the run exits with
    /// [`SimError::Cancelled`] at its next scheduling step.
    pub cancel: Option<CancelToken>,
    /// Executor; `None` is the one there is (see [`ExecMode`]).
    pub exec: Option<ExecMode>,
}

impl Experiment<'_> {
    /// Run under the algorithm's default library flavour, unsupervised.
    pub fn run(&self) -> Result<Outcome, SimError> {
        self.run_controlled(&RunControl::default())
    }

    /// Run under full supervision ([`RunControl`]): watchdog budget,
    /// cancellation token, fault plan, executor override.
    pub fn run_controlled(&self, control: &RunControl) -> Result<Outcome, SimError> {
        let sources = self.dist.place(self.machine.shape, self.s);
        let len = self.msg_len;
        try_run_sources_controlled(
            self.machine,
            self.kind.default_lib(),
            &sources,
            &|src| payload_for(src, len),
            self.kind,
            control,
        )
    }
}

/// [`try_run_alg_controlled`] over the algorithm `kind` builds.
pub fn try_run_sources_controlled(
    machine: &Machine,
    lib: LibraryKind,
    sources: &[usize],
    payload_of: &(dyn Fn(usize) -> Vec<u8> + Sync),
    kind: AlgoKind,
    control: &RunControl,
) -> Result<Outcome, SimError> {
    let alg = kind.build();
    try_run_alg_controlled(machine, lib, sources, payload_of, alg.as_ref(), control)
}

/// Run `alg` on explicit sources with explicit payloads: the verified,
/// timed outcome, or the reason the run stopped (a deadlock included).
/// `payload_of` is called once per source, for the message's length:
/// a message is its source's [`payload_for`] bytes at that length (see
/// [`crate::msgset`]), so any other content is not carried.
///
/// Debug builds on a clean network enable the kernel's strict schedule
/// checks (unambiguous receive matching, empty mailboxes at finish) —
/// the runtime half of the `stp-analyzer` checker — so schedule bugs
/// surface as [`SimError::StrictViolation`] at the offending operation
/// instead of a wrong makespan.
pub fn try_run_alg_controlled(
    machine: &Machine,
    lib: LibraryKind,
    sources: &[usize],
    payload_of: &(dyn Fn(usize) -> Vec<u8> + Sync),
    alg: &dyn StpAlgorithm,
    control: &RunControl,
) -> Result<Outcome, SimError> {
    // Strict schedule checks are off under a fault plan: drops and
    // retries legitimately perturb arrival order, so ambiguity that is a
    // bug on a clean network is expected there — the property of
    // interest under faults is delivery (`verified`), checked per rank.
    let config = SimConfig {
        strict: cfg!(debug_assertions) && control.faults.is_none(),
        ..sim_config(lib, control)
    };
    try_run_alg_with(machine, &config, sources, payload_of, alg).map(|(outcome, _)| outcome)
}

/// The kernel configuration a [`RunControl`] asks for: fault plan,
/// budget, cancellation and executor, nothing recorded, nothing strict.
fn sim_config(lib: LibraryKind, control: &RunControl) -> SimConfig {
    SimConfig {
        lib,
        faults: control.faults.clone(),
        budget: control.budget.clone(),
        cancel: control.cancel.clone(),
        exec: control.exec.unwrap_or_default(),
        ..SimConfig::default()
    }
}

/// The verified, timed outcome of `alg` and the run's recording (empty
/// unless `config.record`).
///
/// This is where every run's [`StpCtx`] is built, so the context's
/// contract is checked here, once: the sources are a non-empty, sorted,
/// duplicate-free list of ranks of the machine. The shape is the
/// machine's own and each rank's message handle comes from its source
/// index, so those two parts hold by construction.
///
/// # Panics
///
/// On a source list that breaks the contract.
fn try_run_alg_with(
    machine: &Machine,
    config: &SimConfig,
    sources: &[usize],
    payload_of: &(dyn Fn(usize) -> Vec<u8> + Sync),
    alg: &dyn StpAlgorithm,
) -> Result<(Outcome, EventLog), SimError> {
    let shape = machine.shape;
    assert!(
        !sources.is_empty(),
        "s-to-p broadcasting needs at least one source"
    );
    assert!(
        sources.windows(2).all(|w| w[0] < w[1]),
        "sources must be sorted+unique"
    );
    assert!(
        sources[sources.len() - 1] < shape.p(),
        "source out of range"
    );
    // The delivery oracle: the s expected slots, each message generated
    // once per run for its length. Sources send their slot's handle and
    // the runner checks every rank's result against the slots once the
    // kernel returns.
    let expected: Vec<Slot> = sources
        .iter()
        .map(|&s| Slot::new(s, payload_of(s).len()))
        .collect();
    let messages: Vec<Payload> = expected
        .iter()
        .map(|&slot| Payload::from_value(slot))
        .collect();
    let messages = &messages;
    let out = try_simulate_with(machine, config, |mut comm| async move {
        let me = comm.rank();
        let ctx = StpCtx {
            shape,
            sources,
            payload: sources.binary_search(&me).ok().map(|i| &messages[i]),
        };
        alg.run(&mut comm, &ctx).await
    })?;
    let outcome = Outcome {
        makespan_ns: out.makespan_ns,
        finish_ns: out.finish_ns,
        stats: out.stats,
        verified: all_delivered(&out.results, &expected),
        contention_events: out.contention_events,
        contention_ns: out.contention_ns,
        sources: sources.to_vec(),
        counters: out.counters,
    };
    Ok((outcome, out.log))
}

/// Verify after the run: every rank holds exactly the sources' slots.
/// Delivery is membership — a slot names its message's bytes (see
/// [`crate::msgset`]) — so each rank's list is compared with the
/// oracle's, integer by integer. A rank whose list is the first rank's
/// own (it ended on a set it adopted unchanged) holds what the first
/// rank holds and is not read.
fn all_delivered(sets: &[MessageSet], expected: &[Slot]) -> bool {
    let Some((first, rest)) = sets.split_first() else {
        return true;
    };
    first.slots() == expected
        && rest
            .iter()
            .all(|set| set.shares_slots(first) || set.slots() == expected)
}

// ---------------------------------------------------------------------------
// Schedule extraction (the ScheduleRecorder mode)
// ---------------------------------------------------------------------------

/// A run captured as a symbolic communication schedule.
///
/// Produced by [`try_record_sources`]; consumed by the `stp-analyzer`
/// crate's static checks, which read the log in place. The log is
/// complete even when the run deadlocks — the kernel returns the partial
/// schedule (with one `blocked` record per stuck rank) on the deadlock
/// error.
#[derive(Debug)]
pub struct RecordedRun {
    /// Communication events in deterministic kernel order.
    pub events: EventLog,
    /// True when the run aborted with every live rank blocked.
    pub deadlocked: bool,
    /// The timed outcome — `None` when the run deadlocked.
    pub outcome: Option<Outcome>,
}

/// Record the communication schedule of `alg` on explicit sources.
///
/// Works for any [`StpAlgorithm`], including deliberately broken ones
/// (the analyzer's seeded-bug fixtures): a deadlock is still a
/// *recordable* outcome (`Ok` with [`RecordedRun::deadlocked`] set and
/// the partial schedule flushed — that is exactly what the analyzer's
/// deadlock check consumes). Every other abnormal termination (rank
/// panic, watchdog trip, cancellation) comes back as `Err` with the
/// kernel shut down cleanly. Under a fault plan the schedule holds one
/// [`DropEvent`](mpp_runtime::DropEvent) per lost transmission attempt.
/// Recording is never strict: the analyzer, not the kernel, judges the
/// schedule.
pub fn try_record_sources(
    machine: &Machine,
    lib: LibraryKind,
    sources: &[usize],
    payload_of: &(dyn Fn(usize) -> Vec<u8> + Sync),
    alg: &dyn StpAlgorithm,
    control: &RunControl,
) -> Result<RecordedRun, SimError> {
    let config = SimConfig {
        record: true,
        ..sim_config(lib, control)
    };
    match try_run_alg_with(machine, &config, sources, payload_of, alg) {
        Ok((outcome, events)) => Ok(RecordedRun {
            events,
            deadlocked: false,
            outcome: Some(outcome),
        }),
        Err(SimError::Deadlock { info, .. }) => Ok(RecordedRun {
            events: info.log,
            deadlocked: true,
            outcome: None,
        }),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// Parallel sweep engine
// ---------------------------------------------------------------------------

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Silence the panic hook for deliberate unit-test panics — they are
/// caught and handled by design, and would otherwise spam the test
/// output with one backtrace per injected failure.
#[cfg(test)]
pub(crate) fn tests_hush_deliberate_panics() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or("");
            if !(msg.contains("deliberate test panic") || msg.contains("deliberate chaos panic")) {
                default_hook(info);
            }
        }));
    });
}

/// Executes independent sweep grid points concurrently on a small worker
/// pool.
///
/// Every grid point is a self-contained deterministic simulation on one
/// compute-bound thread, so the *virtual-time* results are bit-identical
/// no matter how many workers run or in which order points complete —
/// only wall-clock changes. Results always come back in input order.
///
/// The worker count is a value: [`SweepRunner::new`] sizes the pool to
/// the host, [`with_workers`](SweepRunner::with_workers) overrides it.
/// Binaries that honour `STP_SWEEP_WORKERS` build their runner through
/// [`Env::sweep_runner`](crate::env::Env::sweep_runner).
#[derive(Debug, Clone)]
pub struct SweepRunner {
    workers: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new()
    }
}

impl SweepRunner {
    /// One worker per available core — a grid point is a single
    /// compute-bound thread, so that saturates the host exactly.
    pub fn new() -> Self {
        SweepRunner {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// A runner that executes grid points strictly one at a time.
    pub fn sequential() -> Self {
        SweepRunner { workers: 1 }
    }

    /// Override the worker count.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `job` over every item, in parallel, returning results in
    /// input order.
    ///
    /// A panicking job cannot take the sweep down mid-flight: the panic
    /// is caught at the grid-point boundary, every other point still
    /// runs to completion, and the earliest panic (in input order) is
    /// then resumed. Callers that need per-point failure *reporting*
    /// instead of a deferred panic use
    /// [`run_grouped`](SweepRunner::run_grouped).
    pub fn map<I, T, F>(&self, items: Vec<I>, job: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            let mut out = Vec::with_capacity(n);
            let mut first_panic = None;
            for item in items {
                match catch_unwind(AssertUnwindSafe(|| job(item))) {
                    Ok(v) => out.push(v),
                    Err(payload) => {
                        first_panic.get_or_insert(payload);
                    }
                }
            }
            if let Some(payload) = first_panic {
                resume_unwind(payload);
            }
            return out;
        }
        let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // Earliest panicking point (input order) and its payload; the
        // slot mutexes are never poisoned because the only user code —
        // `job` — runs outside their critical sections.
        let panic_slot: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
        let next = AtomicUsize::new(0);
        {
            let (slots, results, next, job, panic_slot) =
                (&slots, &results, &next, &job, &panic_slot);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .take()
                            .expect("sweep item taken twice");
                        match catch_unwind(AssertUnwindSafe(|| job(item))) {
                            Ok(v) => {
                                *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(v)
                            }
                            Err(payload) => {
                                let mut slot =
                                    panic_slot.lock().unwrap_or_else(PoisonError::into_inner);
                                if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                                    *slot = Some((i, payload));
                                }
                            }
                        }
                    });
                }
            });
        }
        if let Some((_, payload)) = panic_slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("sweep point finished without a result or a panic")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_names_roundtrip() {
        for &k in AlgoKind::all() {
            assert_eq!(AlgoKind::parse(k.name()), Some(k), "{}", k.name());
            // lowercase with underscores also works
            let mangled = k.name().to_lowercase().replace(['-', ' '], "_");
            assert_eq!(AlgoKind::parse(&mangled), Some(k), "{mangled}");
        }
        assert_eq!(AlgoKind::parse("no_such_algorithm"), None);
    }

    #[test]
    fn every_algorithm_verifies_on_a_paragon() {
        let machine = Machine::paragon(4, 4);
        for &kind in AlgoKind::all() {
            let exp = Experiment {
                machine: &machine,
                dist: SourceDist::Equal,
                s: 5,
                msg_len: 256,
                kind,
            };
            let out = exp.run().expect("run failed");
            assert!(out.verified, "{} failed verification", kind.name());
            assert!(out.makespan_ns > 0);
        }
    }

    #[test]
    fn every_algorithm_verifies_on_a_t3d() {
        let machine = Machine::t3d(16, 7);
        for &kind in AlgoKind::all() {
            let exp = Experiment {
                machine: &machine,
                dist: SourceDist::Random { seed: 3 },
                s: 6,
                msg_len: 128,
                kind,
            };
            let out = exp.run().expect("run failed");
            assert!(out.verified, "{} failed on T3D", kind.name());
        }
    }

    #[test]
    fn malformed_source_lists_are_rejected() {
        let machine = Machine::paragon(2, 2);
        let cases: [(&[usize], &str); 4] = [
            (&[2, 1], "sorted+unique"),
            (&[1, 1], "sorted+unique"),
            (&[0, 4], "source out of range"),
            (&[], "at least one source"),
        ];
        for (sources, why) in cases {
            let err = catch_unwind(|| {
                try_run_sources_controlled(
                    &machine,
                    LibraryKind::Nx,
                    sources,
                    &|src| payload_for(src, 8),
                    AlgoKind::BrLin,
                    &RunControl::default(),
                )
            })
            .expect_err("a malformed source list ran");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| err.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            assert!(msg.contains(why), "{sources:?}: {msg:?}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let machine = Machine::paragon(4, 5);
        let exp = Experiment {
            machine: &machine,
            dist: SourceDist::Cross,
            s: 8,
            msg_len: 512,
            kind: AlgoKind::BrXySource,
        };
        let a = exp.run().expect("run failed");
        let b = exp.run().expect("run failed");
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.finish_ns, b.finish_ns);
    }

    #[test]
    fn variable_length_messages_verify() {
        let machine = Machine::paragon(4, 4);
        let sources = SourceDist::DiagRight.place(machine.shape, 4);
        let out = try_run_sources_controlled(
            &machine,
            LibraryKind::Nx,
            &sources,
            &|src| payload_for(src, 64 + src * 32),
            AlgoKind::BrLin,
            &RunControl::default(),
        )
        .expect("run failed");
        assert!(out.verified);
    }

    /// One way to spoil a rank's delivered set.
    #[derive(Clone, Copy, Debug)]
    enum Tamper {
        /// Drop one source.
        Remove(usize),
        /// Add a source that sent nothing.
        Extra(usize),
        /// Cut one source's message short by a byte.
        Truncate(usize),
        /// Hold one source's message a byte longer.
        Lengthen(usize),
        /// Hand back nothing at all.
        Empty,
    }

    /// `Br_Lin`, except that rank `rank` ends up with its result
    /// tampered with.
    struct Tampered {
        rank: usize,
        how: Tamper,
    }

    impl StpAlgorithm for Tampered {
        fn name(&self) -> &'static str {
            "fixture:tampered"
        }

        fn run<'a>(
            &'a self,
            comm: &'a mut mpp_runtime::RankCtx,
            ctx: &'a StpCtx<'a>,
        ) -> mpp_runtime::CommFuture<'a, MessageSet> {
            Box::pin(async move {
                let set = BrLin.run(comm, ctx).await;
                if comm.rank() != self.rank {
                    return set;
                }
                let mut slots = set.slots().to_vec();
                let at = |slots: &[Slot], src: usize| {
                    let at = slots.iter().position(|slot| slot.src as usize == src);
                    at.expect("a held source")
                };
                match self.how {
                    Tamper::Empty => slots.clear(),
                    Tamper::Remove(src) => drop(slots.remove(at(&slots, src))),
                    Tamper::Extra(src) => slots.push(Slot::new(src, 3)),
                    Tamper::Truncate(src) => {
                        let i = at(&slots, src);
                        slots[i].len -= 1;
                    }
                    Tamper::Lengthen(src) => {
                        let i = at(&slots, src);
                        slots[i].len += 1;
                    }
                }
                slots.into_iter().collect()
            })
        }
    }

    /// `Br_Lin`, except that every rank from `from_rank` on holds
    /// source `src`'s message at the wrong length `len`: one mistake,
    /// agreed on by many ranks.
    struct MisreadFrom {
        src: usize,
        from_rank: usize,
        len: u32,
    }

    impl StpAlgorithm for MisreadFrom {
        fn name(&self) -> &'static str {
            "fixture:misread-from"
        }

        fn run<'a>(
            &'a self,
            comm: &'a mut mpp_runtime::RankCtx,
            ctx: &'a StpCtx<'a>,
        ) -> mpp_runtime::CommFuture<'a, MessageSet> {
            Box::pin(async move {
                let set = BrLin.run(comm, ctx).await;
                if comm.rank() < self.from_rank {
                    return set;
                }
                let misread = |slot: &Slot| {
                    if slot.src as usize == self.src {
                        Slot {
                            len: self.len,
                            ..*slot
                        }
                    } else {
                        *slot
                    }
                };
                set.slots().iter().map(misread).collect()
            })
        }
    }

    #[test]
    fn every_tampered_result_fails_verification() {
        let machine = Machine::paragon(4, 4);
        let sources = SourceDist::Equal.place(machine.shape, 5);
        let len = 300;
        let verified = |alg: &dyn StpAlgorithm| {
            try_run_alg_controlled(
                &machine,
                LibraryKind::Nx,
                &sources,
                &|src| payload_for(src, len),
                alg,
                &RunControl::default(),
            )
            .expect("run failed")
            .verified
        };
        assert!(verified(&BrLin), "the honest run");
        let idle = (0..16)
            .find(|r| !sources.contains(r))
            .expect("a rank that sends nothing");
        // First source, last source; first rank, last rank; a source
        // rank and an idle one — none may slip past.
        for (rank, how) in [
            (3, Tamper::Remove(sources[0])),
            (15, Tamper::Remove(sources[4])),
            (6, Tamper::Extra(idle)),
            (sources[1], Tamper::Extra(15)),
            (12, Tamper::Truncate(sources[3])),
            (0, Tamper::Truncate(sources[4])),
            (0, Tamper::Lengthen(sources[0])),
            (9, Tamper::Lengthen(sources[2])),
            (0, Tamper::Empty),
            (15, Tamper::Empty),
        ] {
            assert!(!verified(&Tampered { rank, how }), "rank {rank}: {how:?}");
        }
        // One wrong length in every rank's set, and the same with rank
        // 0 keeping the right one: agreeing ranks prove nothing.
        for from_rank in [0, 1] {
            let alg = MisreadFrom {
                src: sources[2],
                from_rank,
                len: len as u32 - 1,
            };
            assert!(!verified(&alg), "shared misread from rank {from_rank}");
        }
    }

    /// One source, rank 0, sends its message to rank 1, which is no
    /// source and forwards it to everyone else. A receiver that files
    /// the message under the envelope's sender files it under the relay
    /// and must fail verification; one that reads the slot from the
    /// message delivers.
    struct Relayed {
        keyed_by_sender: bool,
    }

    impl StpAlgorithm for Relayed {
        fn name(&self) -> &'static str {
            "fixture:relayed"
        }

        fn run<'a>(
            &'a self,
            comm: &'a mut mpp_runtime::RankCtx,
            ctx: &'a StpCtx<'a>,
        ) -> mpp_runtime::CommFuture<'a, MessageSet> {
            Box::pin(async move {
                const TAG: mpp_runtime::Tag = 77;
                let (me, p) = (comm.rank(), comm.size());
                if let Some(message) = ctx.payload {
                    comm.send_payload(1, TAG, message.clone());
                    return ctx.initial_set();
                }
                let env = comm.recv(None, Some(TAG)).await;
                if me == 1 {
                    for dst in 2..p {
                        comm.send_payload(dst, TAG, env.data.clone());
                    }
                }
                let slot = if self.keyed_by_sender {
                    Slot::new(env.src, env.data.len())
                } else {
                    Slot::of(&env.data).expect("a source message")
                };
                slot.into()
            })
        }
    }

    #[test]
    fn a_relayed_message_filed_under_the_relay_fails_verification() {
        let machine = Machine::paragon(2, 2);
        let verified = |keyed_by_sender| {
            try_run_alg_controlled(
                &machine,
                LibraryKind::Nx,
                &[0],
                &|src| payload_for(src, 40),
                &Relayed { keyed_by_sender },
                &RunControl::default(),
            )
            .expect("run failed")
            .verified
        };
        assert!(verified(false), "the slot read from the message");
        assert!(!verified(true), "the slot made from the envelope");
    }

    /// The delivery check as it was before ranks were compared with each
    /// other: every rank's list against the oracle.
    fn all_delivered_reference(sets: &[MessageSet], expected: &[Slot]) -> bool {
        sets.iter().all(|set| set.slots() == expected)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Hand-built results tampered with on random ranks, rank 0
        /// included — a source dropped or added, a length cut or grown,
        /// or one wrong length agreed on by every rank from rank 0 or 1
        /// on — and then rank 0's list, tampered or not, shared by
        /// random ranks (as ranks share the set they adopted): the
        /// rank-to-rank check answers as the rank-to-oracle reference
        /// does.
        #[test]
        fn delivery_check_matches_the_reference(
            p in 1usize..17,
            s in 1usize..7,
            len in 0usize..41,
            tampers in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = proptest::test_runner::TestRng::seed_from_u64(seed);
            let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
            let expected: Vec<Slot> = (0..s).map(|i| Slot::new(2 * i + 1, len)).collect();
            let mut held: Vec<Vec<Slot>> = vec![expected.clone(); p];
            for _ in 0..tampers {
                let rank = if pick(3) == 0 { 0 } else { pick(p) };
                let src = expected[pick(s)].src;
                let slots = &mut held[rank];
                let at = slots.iter().position(|slot| slot.src == src);
                match (pick(5), at) {
                    (0, Some(at)) => slots[at].len += 1,
                    (1, Some(at)) if len > 0 => slots[at].len -= 1,
                    (2, Some(at)) => {
                        slots.remove(at);
                    }
                    (3, _) => {
                        let extra = 2 * pick(s + 1);
                        if let Err(at) = slots.binary_search_by_key(&(extra as u32), |slot| slot.src) {
                            slots.insert(at, Slot::new(extra, len));
                        }
                    }
                    (4, _) => {
                        let misread = Slot::new(src as usize, len + 1 + pick(3));
                        for slots in &mut held[pick(2)..] {
                            if let Some(at) = slots.iter().position(|slot| slot.src == src) {
                                slots[at] = misread;
                            }
                        }
                    }
                    _ => {}
                }
            }
            let mut sets: Vec<MessageSet> =
                held.into_iter().map(|slots| slots.into_iter().collect()).collect();
            for rank in 1..p {
                if pick(3) == 0 {
                    sets[rank] = sets[0].clone();
                }
            }
            let got = all_delivered(&sets, &expected);
            proptest::prop_assert_eq!(got, all_delivered_reference(&sets, &expected));
            proptest::prop_assert!(got || tampers > 0, "an untampered result failed");
        }
    }

    /// Ranks that share rank 0's list are checked through rank 0, and a
    /// tampered shared list fails every rank that holds it: whether
    /// rank 0 holds it too or only the ranks after it share it.
    #[test]
    fn a_tampered_shared_list_fails_every_rank_that_shares_it() {
        let expected: Vec<Slot> = [1, 4, 6].map(|src| Slot::new(src, 24)).to_vec();
        let build = |tamper: bool| -> MessageSet {
            let misread = |slot: &Slot| Slot {
                len: slot.len - u32::from(tamper && slot.src == 4),
                ..*slot
            };
            expected.iter().map(misread).collect()
        };
        let (honest, tampered) = (build(false), build(true));
        assert!(all_delivered(&vec![honest.clone(); 5], &expected));
        for shared_from in [0, 1] {
            let mut sets = vec![honest.clone(); shared_from];
            sets.resize(5, tampered.clone());
            assert!(sets[shared_from..]
                .iter()
                .all(|set| set.shares_slots(&tampered)));
            assert!(
                !all_delivered(&sets, &expected),
                "shared from rank {shared_from}"
            );
            for set in &sets[shared_from..] {
                let alone = std::slice::from_ref(set);
                assert!(!all_delivered(alone, &expected));
                assert!(!all_delivered_reference(alone, &expected));
            }
        }
    }

    #[test]
    fn expected_payloads_are_generated_once_per_source_per_run() {
        let machine = Machine::paragon(4, 4);
        let sources = SourceDist::Equal.place(machine.shape, 5);
        let calls = AtomicUsize::new(0);
        let out = try_run_sources_controlled(
            &machine,
            LibraryKind::Nx,
            &sources,
            &|src| {
                calls.fetch_add(1, Ordering::Relaxed);
                payload_for(src, 64)
            },
            AlgoKind::BrXySource,
            &RunControl::default(),
        )
        .expect("run failed");
        assert!(out.verified);
        // s calls for the whole run — not s per rank (p·s).
        assert_eq!(calls.load(Ordering::Relaxed), sources.len());
    }

    #[test]
    fn sweep_runner_matches_sequential_bit_for_bit() {
        let machine = Machine::paragon(4, 4);
        let exps: Vec<Experiment> = [AlgoKind::BrLin, AlgoKind::TwoStep, AlgoKind::BrXySource]
            .iter()
            .flat_map(|&kind| [2usize, 5, 9].into_iter().map(move |s| (kind, s)))
            .map(|(kind, s)| Experiment {
                machine: &machine,
                dist: SourceDist::Equal,
                s,
                msg_len: 128,
                kind,
            })
            .collect();
        let run = |workers| {
            SweepRunner::sequential()
                .with_workers(workers)
                .map(exps.clone(), |e| e.run().expect("run failed"))
        };
        let (seq, par) = (run(1), run(4));
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert!(a.verified && b.verified);
            assert_eq!(a.makespan_ns, b.makespan_ns);
            assert_eq!(a.finish_ns, b.finish_ns);
            assert_eq!(a.contention_events, b.contention_events);
        }
    }

    #[test]
    fn sweep_map_preserves_input_order() {
        let runner = SweepRunner::sequential().with_workers(8);
        let out = runner.map((0..100usize).collect(), |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_handles_empty_grid() {
        let out: Vec<usize> = SweepRunner::new().map(Vec::<usize>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn sweep_map_finishes_healthy_points_before_resuming_a_panic() {
        use std::sync::atomic::AtomicUsize;
        tests_hush_deliberate_panics();
        for workers in [1usize, 4] {
            let done = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                SweepRunner::sequential()
                    .with_workers(workers)
                    .map((0..16usize).collect(), |i| {
                        if i == 3 || i == 11 {
                            panic!("deliberate test panic in point {i}");
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                        i
                    })
            }));
            let payload = caught.expect_err("the sweep must resume the point's panic");
            let msg = payload
                .downcast_ref::<String>()
                .expect("panic payload is the formatted message");
            // The earliest bad point's panic is the one resumed...
            assert!(msg.contains("point 3"), "got {msg:?}");
            // ...and only after every healthy point completed.
            assert_eq!(done.load(Ordering::Relaxed), 14, "workers={workers}");
        }
    }

    #[test]
    fn faulted_run_delivers_with_retries() {
        let machine = Machine::paragon(4, 4);
        let exp = Experiment {
            machine: &machine,
            dist: SourceDist::Equal,
            s: 5,
            msg_len: 256,
            kind: AlgoKind::BrXySource,
        };
        let control = RunControl {
            faults: Some(FaultPlan::transient_drops(9, 1, 8, 6)),
            ..RunControl::default()
        };
        let out = exp.run_controlled(&control).expect("run failed");
        assert!(out.verified, "retry must restore full delivery");
        let retransmits: u64 = out.stats.iter().map(|s| s.retransmits).sum();
        assert!(retransmits > 0, "a 1/8 drop rate must hit some message");
        assert!(out.stats.iter().all(|s| s.dropped == 0));
        // The same plan is deterministic.
        let again = exp.run_controlled(&control).expect("run failed");
        assert_eq!(out.makespan_ns, again.makespan_ns);
        assert_eq!(out.finish_ns, again.finish_ns);
    }

    #[test]
    fn mpi_lib_is_slower_than_nx_on_paragon() {
        let machine = Machine::paragon(4, 4);
        let sources = SourceDist::Equal.place(machine.shape, 6);
        let run = |lib| {
            try_run_sources_controlled(
                &machine,
                lib,
                &sources,
                &|src| payload_for(src, 1024),
                AlgoKind::TwoStep,
                &RunControl::default(),
            )
            .expect("run failed")
        };
        let (nx, mpi) = (run(LibraryKind::Nx), run(LibraryKind::Mpi));
        assert!(mpi.makespan_ns > nx.makespan_ns);
        let pct = (mpi.makespan_ns - nx.makespan_ns) as f64 / nx.makespan_ns as f64 * 100.0;
        assert!(
            pct < 6.0,
            "MPI overhead {pct:.1}% outside the paper's 2-5% band"
        );
    }
}
