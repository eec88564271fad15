//! Experiment runner: one call from (machine, distribution, s, L,
//! algorithm) to a verified, timed outcome.

use mpp_model::{LibraryKind, Machine, Time};
use mpp_runtime::{
    try_simulate_with, CancelToken, CommStats, EventLog, ExecMode, FaultPlan, KernelCounters,
    SimBudget, SimConfig, SimError,
};

use crate::algorithms::{
    BrLin, BrXyDim, BrXySource, DissemAllGather, KPortAlltoall, KPortLin, KPortScatter,
    NaiveIndependent, Part, PersAlltoAll, Repos, ReposAdaptive, StpAlgorithm, StpCtx, TwoStep,
};
use crate::distribution::SourceDist;
use crate::msgset::{payload_for, MessageSet};

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
            AlgoKind::BrLin => Box::new(BrLin::new()),
            AlgoKind::BrXySource => Box::new(BrXySource),
            AlgoKind::BrXyDim => Box::new(BrXyDim),
            AlgoKind::ReposLin => Box::new(Repos::new(BrLin::new(), "Repos_Lin")),
            AlgoKind::ReposXySource => Box::new(Repos::new(BrXySource, "Repos_xy_source")),
            AlgoKind::ReposXyDim => Box::new(Repos::new(BrXyDim, "Repos_xy_dim")),
            AlgoKind::PartLin => Box::new(Part::new(BrLin::new(), "Part_Lin")),
            AlgoKind::PartXySource => Box::new(Part::new(BrXySource, "Part_xy_source")),
            AlgoKind::PartXyDim => Box::new(Part::new(BrXyDim, "Part_xy_dim")),
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
    /// Whether every rank ended with exactly the `s` expected payloads.
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

/// Supervision knobs a sweep driver threads down into one run: fault
/// plan, watchdog budget, cooperative cancellation, and the executor.
/// [`RunControl::default`] is an unsupervised, unbounded cooperative
/// run — every field is a value the caller passes, none is read from
/// the process environment.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Deterministic network fault plan (`None` = perfect network).
    pub faults: Option<FaultPlan>,
    /// Watchdog ceilings (events / virtual time / wall clock) turning
    /// livelocks into [`SimError::WatchdogTripped`].
    pub budget: SimBudget,
    /// Cooperative cancellation: the run exits with
    /// [`SimError::Cancelled`] at its next scheduling step.
    pub cancel: Option<CancelToken>,
    /// Executor; `None` is the one there is (see [`ExecMode`]).
    pub exec: Option<ExecMode>,
}

impl RunControl {
    /// A control block carrying only a fault plan.
    pub fn with_faults(faults: Option<&FaultPlan>) -> Self {
        RunControl {
            faults: faults.cloned(),
            ..RunControl::default()
        }
    }
}

impl Experiment<'_> {
    /// Run under the algorithm's default library flavour.
    pub fn run(&self) -> Result<Outcome, SimError> {
        self.run_with_lib(self.kind.default_lib())
    }

    /// Run under an explicit library flavour.
    pub fn run_with_lib(&self, lib: LibraryKind) -> Result<Outcome, SimError> {
        let sources = self.dist.place(self.machine.shape, self.s);
        let len = self.msg_len;
        run_sources(
            self.machine,
            lib,
            &sources,
            &|src| payload_for(src, len),
            self.kind,
        )
    }

    /// Run under the algorithm's default library flavour with a fault
    /// plan active in the network.
    pub fn run_with_faults(&self, faults: &FaultPlan) -> Result<Outcome, SimError> {
        self.run_controlled(&RunControl::with_faults(Some(faults)))
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

/// Run an algorithm on explicit sources with explicit payloads.
///
/// Debug builds enable the kernel's strict schedule checks (unambiguous
/// receive matching, empty mailboxes at finish) — the runtime half of
/// the `stp-analyzer` checker — so schedule bugs surface as
/// [`SimError::StrictViolation`] at the offending operation instead of
/// a wrong makespan.
pub fn run_sources(
    machine: &Machine,
    lib: LibraryKind,
    sources: &[usize],
    payload_of: &(dyn Fn(usize) -> Vec<u8> + Sync),
    kind: AlgoKind,
) -> Result<Outcome, SimError> {
    try_run_sources_controlled(
        machine,
        lib,
        sources,
        payload_of,
        kind,
        &RunControl::default(),
    )
}

/// [`run_sources`] under a full [`RunControl`] block — the supervised
/// entry point sweep engines call.
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

/// [`try_run_sources_controlled`] over an arbitrary algorithm object —
/// used by the chaos-injection fixtures, which have no [`AlgoKind`].
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
fn try_run_alg_with(
    machine: &Machine,
    config: &SimConfig,
    sources: &[usize],
    payload_of: &(dyn Fn(usize) -> Vec<u8> + Sync),
    alg: &dyn StpAlgorithm,
) -> Result<(Outcome, EventLog), SimError> {
    let shape = machine.shape;
    // The delivery oracle: the s expected messages, generated once per
    // run. Sources send from it and the runner checks every rank's
    // result against it once the kernel returns.
    let expected: Vec<Vec<u8>> = sources.iter().map(|&s| payload_of(s)).collect();
    let expected = &expected;
    let out = try_simulate_with(machine, config, |mut comm| async move {
        let me = comm.rank();
        let ctx = StpCtx {
            shape,
            sources,
            payload: sources
                .binary_search(&me)
                .ok()
                .map(|i| expected[i].as_slice()),
        };
        alg.run(&mut comm, &ctx).await
    })?;
    let outcome = Outcome {
        makespan_ns: out.makespan_ns,
        finish_ns: out.finish_ns,
        stats: out.stats,
        verified: all_delivered(&out.results, sources, expected),
        contention_events: out.contention_events,
        contention_ns: out.contention_ns,
        sources: sources.to_vec(),
        counters: out.counters,
    };
    Ok((outcome, out.log))
}

/// Verify after the run: every rank holds exactly the sources, each
/// byte for byte. The sweep goes source by source — entry `i` of every
/// rank against `expected[i]` — so the oracle message and the storage
/// the ranks share for it stay in cache across all `p` compares.
fn all_delivered(sets: &[MessageSet], sources: &[usize], expected: &[Vec<u8>]) -> bool {
    sets.iter()
        .all(|set| set.sources().eq(sources.iter().copied()))
        && expected
            .iter()
            .enumerate()
            .all(|(i, want)| sets.iter().all(|set| set.payload_at(i) == want.as_slice()))
}

// ---------------------------------------------------------------------------
// Schedule extraction (the ScheduleRecorder mode)
// ---------------------------------------------------------------------------

/// A run captured as a symbolic communication schedule.
///
/// Produced by [`record_sources`] / [`try_record_sources`]; consumed by
/// the `stp-analyzer` crate's static checks, which read the log in place.
/// The log is complete even when the run deadlocks — the kernel returns
/// the partial schedule (with one `blocked` record per stuck rank) on
/// the deadlock error.
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
/// (the analyzer's seeded-bug fixtures): a deadlocking schedule returns
/// with [`RecordedRun::deadlocked`] set instead of panicking. Failures
/// that are not deadlocks (e.g. assertion failures inside the algorithm)
/// are propagated as panics; supervised callers use
/// [`try_record_sources`].
pub fn record_sources(
    machine: &Machine,
    lib: LibraryKind,
    sources: &[usize],
    payload_of: &(dyn Fn(usize) -> Vec<u8> + Sync),
    alg: &dyn StpAlgorithm,
) -> RecordedRun {
    record_sources_faulty(machine, lib, sources, payload_of, alg, None)
}

/// [`record_sources`] with an optional fault plan: the recorded
/// schedule then contains one [`DropEvent`](mpp_runtime::DropEvent) per lost
/// transmission attempt, which the analyzer's delivery-completeness
/// check consumes.
pub fn record_sources_faulty(
    machine: &Machine,
    lib: LibraryKind,
    sources: &[usize],
    payload_of: &(dyn Fn(usize) -> Vec<u8> + Sync),
    alg: &dyn StpAlgorithm,
    faults: Option<&FaultPlan>,
) -> RecordedRun {
    let control = RunControl::with_faults(faults);
    try_record_sources(machine, lib, sources, payload_of, alg, &control)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Supervised schedule recording: a deadlock is still a *recordable*
/// outcome (`Ok` with [`RecordedRun::deadlocked`] set and the partial
/// schedule flushed — that is exactly what the analyzer's deadlock check
/// consumes); every other abnormal termination (rank panic, watchdog
/// trip, cancellation, strict violation) comes back as `Err` with the
/// kernel shut down cleanly.
pub fn try_record_sources(
    machine: &Machine,
    lib: LibraryKind,
    sources: &[usize],
    payload_of: &(dyn Fn(usize) -> Vec<u8> + Sync),
    alg: &dyn StpAlgorithm,
    control: &RunControl,
) -> Result<RecordedRun, SimError> {
    try_plan_sources(machine, lib, sources, payload_of, alg, control, true)
}

/// [`try_record_sources`] with the recorder optional: `record: false`
/// runs the same configuration without it (the serve daemon's unlinted
/// plans). [`RecordedRun::events`] is then empty, and the outcome's
/// [`KernelCounters`] still count every event a recording would hold.
pub fn try_plan_sources(
    machine: &Machine,
    lib: LibraryKind,
    sources: &[usize],
    payload_of: &(dyn Fn(usize) -> Vec<u8> + Sync),
    alg: &dyn StpAlgorithm,
    control: &RunControl,
    record: bool,
) -> Result<RecordedRun, SimError> {
    let config = SimConfig {
        record,
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
    /// [`map_supervised`](SweepRunner::map_supervised).
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

    /// Run a list of fully-specified experiments.
    ///
    /// This is the convenience entry point for examples and figures:
    /// any abnormal termination panics (after the other grid points
    /// finish). Supervised sweeps — per-point failure reports, retries,
    /// deadlines, checkpointing — go through
    /// [`map_supervised`](SweepRunner::map_supervised).
    pub fn run_experiments(&self, exps: &[Experiment]) -> Vec<Outcome> {
        self.map(exps.to_vec(), |e| {
            e.run().unwrap_or_else(|err| panic!("{err}"))
        })
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
        let out = run_sources(
            &machine,
            LibraryKind::Nx,
            &sources,
            &|src| payload_for(src, 64 + src * 32),
            AlgoKind::BrLin,
        )
        .expect("run failed");
        assert!(out.verified);
    }

    /// One way to spoil a rank's delivered set.
    #[derive(Clone, Copy, Debug)]
    enum Tamper {
        /// Flip one byte of one source's payload.
        FlipByte { src: usize, byte: usize },
        /// Drop one source.
        Remove(usize),
        /// Add a source that sent nothing.
        Extra(usize),
        /// Cut one source's payload short by a byte.
        Truncate(usize),
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
                let set = BrLin::new().run(comm, ctx).await;
                match self.how {
                    _ if comm.rank() != self.rank => return set,
                    Tamper::Empty => return MessageSet::new(),
                    _ => {}
                }
                let mut tampered = MessageSet::new();
                for (src, data) in set.into_entries() {
                    let src = src as usize;
                    let mut bytes = data.to_vec();
                    match self.how {
                        Tamper::FlipByte { src: s, byte } if s == src => bytes[byte] ^= 1,
                        Tamper::Remove(s) if s == src => continue,
                        Tamper::Truncate(s) if s == src => {
                            bytes.pop();
                        }
                        _ => {}
                    }
                    tampered.insert(src, &bytes);
                }
                if let Tamper::Extra(s) = self.how {
                    tampered.insert(s, &[7; 3]);
                }
                tampered
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
        assert!(verified(&BrLin::new()), "the honest run");
        let idle = (0..16)
            .find(|r| !sources.contains(r))
            .expect("a rank that sends nothing");
        // First source, last source; first byte, last byte; first rank,
        // last rank; a source rank and an idle one — none may slip past.
        for (rank, how) in [
            (
                0,
                Tamper::FlipByte {
                    src: sources[0],
                    byte: 0,
                },
            ),
            (
                15,
                Tamper::FlipByte {
                    src: sources[4],
                    byte: len - 1,
                },
            ),
            (
                9,
                Tamper::FlipByte {
                    src: sources[2],
                    byte: 150,
                },
            ),
            (3, Tamper::Remove(sources[0])),
            (15, Tamper::Remove(sources[4])),
            (6, Tamper::Extra(idle)),
            (sources[1], Tamper::Extra(15)),
            (12, Tamper::Truncate(sources[3])),
            (0, Tamper::Truncate(sources[4])),
            (0, Tamper::Empty),
            (15, Tamper::Empty),
        ] {
            assert!(!verified(&Tampered { rank, how }), "rank {rank}: {how:?}");
        }
    }

    #[test]
    fn expected_payloads_are_generated_once_per_source_per_run() {
        let machine = Machine::paragon(4, 4);
        let sources = SourceDist::Equal.place(machine.shape, 5);
        let calls = AtomicUsize::new(0);
        let out = run_sources(
            &machine,
            LibraryKind::Nx,
            &sources,
            &|src| {
                calls.fetch_add(1, Ordering::Relaxed);
                payload_for(src, 64)
            },
            AlgoKind::BrXySource,
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
        let seq = SweepRunner::sequential().run_experiments(&exps);
        let par = SweepRunner::sequential()
            .with_workers(4)
            .run_experiments(&exps);
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
        let plan = FaultPlan::transient_drops(9, 1, 8, 6);
        let out = exp.run_with_faults(&plan).expect("run failed");
        assert!(out.verified, "retry must restore full delivery");
        let retransmits: u64 = out.stats.iter().map(|s| s.retransmits).sum();
        assert!(retransmits > 0, "a 1/8 drop rate must hit some message");
        assert!(out.stats.iter().all(|s| s.dropped == 0));
        // The same plan is deterministic.
        let again = exp.run_with_faults(&plan).expect("run failed");
        assert_eq!(out.makespan_ns, again.makespan_ns);
        assert_eq!(out.finish_ns, again.finish_ns);
    }

    #[test]
    fn mpi_lib_is_slower_than_nx_on_paragon() {
        let machine = Machine::paragon(4, 4);
        let exp = Experiment {
            machine: &machine,
            dist: SourceDist::Equal,
            s: 6,
            msg_len: 1024,
            kind: AlgoKind::TwoStep,
        };
        let nx = exp.run_with_lib(LibraryKind::Nx).expect("run failed");
        let mpi = exp.run_with_lib(LibraryKind::Mpi).expect("run failed");
        assert!(mpi.makespan_ns > nx.makespan_ns);
        let pct = (mpi.makespan_ns - nx.makespan_ns) as f64 / nx.makespan_ns as f64 * 100.0;
        assert!(
            pct < 6.0,
            "MPI overhead {pct:.1}% outside the paper's 2-5% band"
        );
    }
}
