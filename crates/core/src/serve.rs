//! `stp serve` — a long-running broadcast-planning daemon.
//!
//! The paper's central result is that the best s-to-p broadcast
//! algorithm depends on machine shape, source count, and message length
//! — exactly the query a production planner answers per request. This
//! module turns the one-shot CLI into that service: newline-delimited
//! JSON requests over a local TCP or Unix socket, each carrying a
//! machine shape + source distribution + `L` + ports + fault budget,
//! answered with the chosen algorithm, its predicted and simulated
//! cost, and a ready-to-replay schedule recipe.
//!
//! Architecture (see DESIGN.md §12):
//!
//! * **Request lifecycle** — a connection thread parses each line and
//!   resolves it to a [`PlanSpec`] (including running [`recommend`] for
//!   `"algo":"auto"`, so auto and explicit requests share cache
//!   entries). Cache hits are answered directly on the connection
//!   thread; misses are handed to a bounded worker pool.
//! * **Supervised planning** — every cold plan runs as a one-point
//!   supervised sweep
//!   ([`SweepRunner::map_supervised`](crate::runner::SweepRunner)):
//!   `catch_unwind` containment, one attempt (deterministic simulations
//!   fail deterministically), and a per-request wall-clock deadline
//!   armed on the request's own [`CancelToken`] — a poisoned or
//!   runaway request is quarantined with an error response, never the
//!   daemon.
//! * **Content-addressed cache** — results are memoized under a
//!   canonical `(algo, dist, shape, exec, faults, ports, s, L, lint)`
//!   key (FNV-1a content hash as the entry id) in [`PlanCache`], a
//!   bounded LRU that is its own store: a snapshot plus a journal,
//!   behind one lock. An insert and the evictions it causes are one
//!   `fdatasync`ed journal append before the reply is written, whatever
//!   the store's size; a corrupt or differently-versioned store starts
//!   fresh, and a `SIGKILL` at any instant reopens to every insert that
//!   was answered.
//! * **Recording on demand** — a plan simulates once; only a
//!   `"lint":true` request runs the schedule recorder, whose log the
//!   analyzer needs. The reply's `"schedule"` counts come from the
//!   kernel's own counters either way, so they are the same bytes.
//! * **Shutdown** — `SIGTERM`/`SIGINT` (or a `{"cmd":"shutdown"}`
//!   request) set a shared flag; the accept loop drains connections,
//!   joins the worker pool, and compacts the cache into one snapshot
//!   before exiting.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

use mpp_model::{FaultPlan, Machine};
use mpp_runtime::{CancelToken, ExecMode, SimBudget, SimError};

use crate::checkpoint::{json_escape, parse_json, Checkpoint, JsonValue};
use crate::distribution::SourceDist;
use crate::msgset::payload_for;
use crate::predict;
use crate::runner::{
    try_record_sources, try_run_alg_controlled, AlgoKind, RecordedRun, RunControl, SweepRunner,
};
use crate::select::{cost_regime, recommend, CostRegime};
use crate::supervise::{chaos_algorithms, PointStatus, SuperviseOpts};

/// Cache store signature — bump when the plan body schema changes so a
/// stale persisted cache starts fresh instead of replaying old bodies.
pub const CACHE_SIG: &str = "serve-cache:v1";

/// FNV-1a over the canonical key string — the content address of a
/// plan. 64 bits is plenty for a bounded cache of distinct grid points
/// (and a collision would only cost a wrong-but-well-formed answer for
/// a hand-crafted key; the canonical string is stored nowhere else).
fn fnv1a(data: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in data.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The algorithm a request resolved to.
#[derive(Debug, Clone)]
pub enum PlanAlgo {
    /// A real algorithm (either requested by name or chosen by
    /// [`recommend`] for `"algo":"auto"`).
    Kind(AlgoKind),
    /// A chaos fixture (`chaos:panic` / `chaos:deadlock`) — planned for
    /// real so the supervision plane can be exercised end-to-end.
    Chaos(&'static str),
}

/// A fully resolved planning request: everything needed to run (and
/// cache) one plan.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    /// Client-chosen request id, echoed verbatim in the response.
    pub id: String,
    /// The machine to plan for (ports already applied).
    pub machine: Machine,
    /// Canonical machine key (`paragon:10x10` / `t3d:p=128:seed=7`).
    pub machine_key: String,
    /// Injection/ejection ports per node.
    pub ports: usize,
    /// Source distribution.
    pub dist: SourceDist,
    /// Canonical distribution key (seed-qualified for `Random`).
    pub dist_key: String,
    /// Number of sources.
    pub s: usize,
    /// Message length in bytes (the paper's `L`).
    pub msg_len: usize,
    /// The resolved algorithm.
    pub algo: PlanAlgo,
    /// True when the request said `"algo":"auto"`.
    pub auto: bool,
    /// Deterministic fault plan, if any.
    pub faults: Option<FaultPlan>,
    /// Canonical fault key (`-` when faultless, else the spec string).
    pub faults_key: String,
    /// Executor the plan runs under — the planner's construction-time
    /// value, never a request field.
    pub exec: ExecMode,
    /// Attach an analyzer lint report to the plan body.
    pub lint: bool,
    /// Per-request wall-clock deadline.
    pub deadline: Duration,
}

impl PlanSpec {
    /// The canonical content key. Field order follows the cache-key
    /// tuple the design names: `(algo, dist, shape, exec, faults,
    /// ports)`, then the remaining discriminating fields.
    pub fn canonical_key(&self) -> String {
        let algo = match &self.algo {
            PlanAlgo::Kind(k) => k.name(),
            PlanAlgo::Chaos(name) => name,
        };
        format!(
            "algo={algo}|dist={dist}|shape={shape}|exec={exec}|faults={faults}|ports={ports}|s={s}|L={len}|lint={lint}|machine={machine}",
            dist = self.dist_key,
            shape = format_args!("{}x{}", self.machine.shape.rows, self.machine.shape.cols),
            exec = self.exec.name(),
            faults = self.faults_key,
            ports = self.ports,
            s = self.s,
            len = self.msg_len,
            lint = u8::from(self.lint),
            machine = self.machine_key,
        )
    }

    /// The content address: FNV-1a of the canonical key, as 16 hex
    /// digits.
    pub fn cache_id(&self) -> String {
        format!("{:016x}", fnv1a(&self.canonical_key()))
    }
}

/// One parsed request line.
#[derive(Debug)]
pub enum Request {
    /// A planning request.
    Plan(Box<PlanSpec>),
    /// Liveness probe.
    Ping,
    /// Counters snapshot.
    Stats,
    /// Clean shutdown (flushes the cache).
    Shutdown,
}

fn get_usize(v: &JsonValue, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(m) => m
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

fn get_str<'v>(v: &'v JsonValue, key: &str) -> Result<Option<&'v str>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(m) => m
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a string")),
    }
}

fn get_bool(v: &JsonValue, key: &str) -> Result<Option<bool>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(m) => m
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a boolean")),
    }
}

/// Ceilings keeping one request's simulation bounded: the planner
/// serves interactive traffic, not capacity runs.
pub(crate) const MAX_P: usize = 4096;
const MAX_LEN: usize = 1 << 20;

/// Parse one request line against the given defaults. Every malformed
/// field is a clean `Err` (one error response), never a panic. `exec`
/// is the planner's executor, stamped on every [`PlanSpec`]; a request
/// cannot choose it.
pub fn parse_request(
    line: &str,
    exec: ExecMode,
    default_deadline: Duration,
) -> Result<Request, String> {
    let v = parse_json(line).map_err(|e| format!("bad JSON: {e}"))?;
    if let Some(cmd) = get_str(&v, "cmd")? {
        return match cmd {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown cmd {other:?} (expected ping|stats|shutdown)"
            )),
        };
    }

    // A silently ignored "exec" would plan on an executor the client
    // believes it chose; the field is gone, so say so.
    if v.get("exec").is_some() {
        return Err(
            "field \"exec\" is not accepted: plans always run on the cooperative executor".into(),
        );
    }

    let id = get_str(&v, "id")?.unwrap_or("").to_string();
    let seed = get_usize(&v, "seed")?.unwrap_or(0) as u64;

    // Machine + ports.
    let machine_kind = get_str(&v, "machine")?.unwrap_or("paragon");
    let (mut machine, machine_key) = match machine_kind {
        "paragon" => {
            let rows = get_usize(&v, "rows")?.ok_or("paragon requests need \"rows\"")?;
            let cols = get_usize(&v, "cols")?.ok_or("paragon requests need \"cols\"")?;
            if rows == 0 || cols == 0 {
                return Err("mesh dimensions must be positive".into());
            }
            (
                Machine::paragon(rows, cols),
                format!("paragon:{rows}x{cols}"),
            )
        }
        "t3d" => {
            let p = get_usize(&v, "p")?.ok_or("t3d requests need \"p\"")?;
            if p == 0 {
                return Err("\"p\" must be positive".into());
            }
            (Machine::t3d(p, seed), format!("t3d:p={p}:seed={seed}"))
        }
        other => return Err(format!("unknown machine {other:?} (expected paragon|t3d)")),
    };
    if machine.p() > MAX_P {
        return Err(format!("machine too large: p={} > {MAX_P}", machine.p()));
    }
    if let Some(ports) = get_usize(&v, "ports")? {
        if ports == 0 {
            return Err("\"ports\" must be positive".into());
        }
        machine.params = machine.params.clone().with_ports(ports);
    }
    let ports = machine.params.ports_per_node;

    // Distribution + sources + length.
    let dist_name = get_str(&v, "dist")?.unwrap_or("equal");
    let dist = SourceDist::parse(dist_name, seed)
        .ok_or_else(|| format!("unknown distribution {dist_name:?}"))?;
    let dist_key = match &dist {
        SourceDist::Random { seed } => format!("Rand:{seed}"),
        d => d.name().to_string(),
    };
    let s = get_usize(&v, "s")?.ok_or("requests need \"s\" (number of sources)")?;
    if s == 0 || s > machine.p() {
        return Err(format!("s={s} outside 1..={}", machine.p()));
    }
    let msg_len = match get_usize(&v, "L")? {
        Some(l) => l,
        None => get_usize(&v, "len")?.unwrap_or(1024),
    };
    if msg_len > MAX_LEN {
        return Err(format!("L={msg_len} exceeds the {MAX_LEN}-byte ceiling"));
    }

    // Algorithm: auto (recommend), explicit name, or chaos fixture —
    // resolved *before* the cache key is formed, so auto and explicit
    // requests for the same point share one entry.
    let algo_name = get_str(&v, "algo")?.unwrap_or("auto");
    let (algo, auto) = if algo_name.eq_ignore_ascii_case("auto") {
        (PlanAlgo::Kind(recommend(&machine, s, msg_len)), true)
    } else if let Some((name, _)) = chaos_algorithms()
        .into_iter()
        .find(|(name, _)| *name == algo_name)
    {
        (PlanAlgo::Chaos(name), false)
    } else {
        let kind =
            AlgoKind::parse(algo_name).ok_or_else(|| format!("unknown algorithm {algo_name:?}"))?;
        (PlanAlgo::Kind(kind), false)
    };

    // Fault plan (canonical key is the spec string as given).
    let (faults, faults_key) = match get_str(&v, "faults")? {
        Some(spec) if !spec.trim().is_empty() => {
            let plan = FaultPlan::parse(spec).map_err(|e| format!("faults: {e}"))?;
            (Some(plan), spec.trim().to_string())
        }
        _ => (None, "-".to_string()),
    };

    let lint = get_bool(&v, "lint")?.unwrap_or(false);
    let deadline = match get_usize(&v, "deadline_ms")? {
        Some(0) => return Err("\"deadline_ms\" must be positive".into()),
        Some(ms) => Duration::from_millis(ms as u64),
        None => default_deadline,
    };

    Ok(Request::Plan(Box::new(PlanSpec {
        id,
        machine,
        machine_key,
        ports,
        dist,
        dist_key,
        s,
        msg_len,
        algo,
        auto,
        faults,
        faults_key,
        exec,
        lint,
        deadline,
    })))
}

// ---------------------------------------------------------------------------
// Bounded persistent plan cache
// ---------------------------------------------------------------------------

/// The journal beside the snapshot at `path`: `<path>.journal`.
pub fn journal_path(path: &Path) -> PathBuf {
    let mut journal = path.as_os_str().to_owned();
    journal.push(".journal");
    PathBuf::from(journal)
}

/// A bounded, persistent, content-addressed plan cache.
///
/// Entries map the FNV-1a content address of a [`PlanSpec`] to the
/// exact plan-body JSON the cold run produced, so a hit replays the
/// plan **byte-identically**; an insert past `cap` evicts the least
/// recently used. On disk the cache is a snapshot at `path` (one
/// [`Checkpoint`] under [`CACHE_SIG`]) plus a journal at
/// [`journal_path`], where an insert and its evictions are one
/// `fdatasync`ed append. Open replays the journal over the snapshot and
/// stamps the entries in the order they were last written; a
/// *compaction* (save the snapshot, empty the journal) keeps the journal
/// no longer than the cache. DESIGN.md §10 gives the format and what a
/// `SIGKILL` at each step leaves behind.
pub struct PlanCache {
    cap: usize,
    state: Mutex<CacheState>,
}

/// Everything behind the cache's one lock.
struct CacheState {
    /// Every body by entry id: the snapshot document.
    store: Checkpoint,
    /// LRU stamp per entry id (monotone clock; least stamp evicts).
    stamps: HashMap<String, u64>,
    clock: u64,
    evictions: u64,
    /// The snapshot path and its journal, open for appending.
    disk: Option<(PathBuf, File)>,
    /// Journal records appended since the last compaction.
    records: usize,
    /// Both files exist and a save has made their names durable, so an
    /// append continues the snapshot.
    anchored: bool,
}

impl CacheState {
    /// A cache in memory holding `store`, stamped in id order.
    fn new(store: Checkpoint, anchored: bool) -> CacheState {
        let stamps: HashMap<String, u64> = store.ids().map(str::to_string).zip(1..).collect();
        CacheState {
            clock: stamps.len() as u64,
            store,
            stamps,
            evictions: 0,
            disk: None,
            records: 0,
            anchored,
        }
    }

    /// The snapshot at `path` with its journal replayed on top, then
    /// compacted if the journal held anything.
    fn open(path: PathBuf) -> io::Result<CacheState> {
        let journal = journal_path(&path);
        // A compaction's directory fsync is what makes the journal's own
        // name durable, so appends wait for one after either file is new.
        let anchored = path.exists() && journal.exists();
        let store = match Checkpoint::load(&path)? {
            Some(cp) if cp.sig() == CACHE_SIG => cp,
            Some(cp) => {
                eprintln!(
                    "note: checkpoint {} has signature {:?}, not {CACHE_SIG:?}; starting fresh",
                    path.display(),
                    cp.sig()
                );
                Checkpoint::new(CACHE_SIG)
            }
            None => Checkpoint::new(CACHE_SIG),
        };
        let mut state = CacheState::new(store, anchored);
        let dirty = anchored && state.replay(&journal)?;
        let file = File::options().create(true).append(true).open(&journal)?;
        state.disk = Some((path, file));
        if dirty {
            state.compact()?;
        }
        Ok(state)
    }

    /// Replay the journal at `journal`: a torn last line is dropped, a
    /// corrupt record stops replay with a warning, a foreign journal is
    /// ignored. True when it held any bytes, so that only a compaction
    /// may append to it again.
    fn replay(&mut self, journal: &Path) -> io::Result<bool> {
        let bytes = match std::fs::read(journal) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        let parse = |line: &[u8]| parse_json(std::str::from_utf8(line).ok()?).ok();
        let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        // What follows the last newline: empty, or an append cut short.
        lines.pop();
        let Some((head, records)) = lines.split_first() else {
            return Ok(!bytes.is_empty());
        };
        if parse(head).as_ref().and_then(|v| v.get("sig")?.as_str()) != Some(CACHE_SIG) {
            eprintln!(
                "note: ignoring {}: not this store's journal",
                journal.display()
            );
            return Ok(true);
        }
        for (n, line) in records.iter().enumerate() {
            match parse(line).as_ref().and_then(journal_op) {
                Some((id, Some(body))) => self.put(id, body),
                Some((id, None)) => self.remove(id),
                None => {
                    eprintln!(
                        "warning: {} record {} is corrupt; replay stops there",
                        journal.display(),
                        n + 1
                    );
                    break;
                }
            }
        }
        Ok(true)
    }

    /// Store `body` under `id` as the most recently used entry.
    fn put(&mut self, id: &str, body: &str) {
        self.store.insert(id, body);
        self.touch(id);
    }

    fn touch(&mut self, id: &str) {
        self.clock += 1;
        if let Some(stamp) = self.stamps.get_mut(id) {
            *stamp = self.clock;
        } else {
            self.stamps.insert(id.to_string(), self.clock);
        }
    }

    fn remove(&mut self, id: &str) {
        self.store.remove(id);
        self.stamps.remove(id);
    }

    /// Remove the least recently used entries past `cap`; their ids.
    fn evict_to(&mut self, cap: usize) -> Vec<String> {
        let mut victims = Vec::new();
        while self.stamps.len() > cap {
            let victim = self
                .stamps
                .iter()
                .min_by_key(|&(_, stamp)| *stamp)
                .map(|(id, _)| id.clone())
                .expect("a cache past its cap has an entry");
            self.remove(&victim);
            victims.push(victim);
        }
        self.evictions += victims.len() as u64;
        victims
    }

    /// Journal `put`, then `dels`, in one `fdatasync`ed append — or
    /// compact instead when there is no snapshot yet or the journal would
    /// outgrow the cache. Best-effort: an I/O failure warns and costs
    /// persistence, never the caller.
    fn journal(&mut self, put: Option<(&str, &str)>, dels: &[String]) {
        let mut lines = match self.records {
            0 => format!("{{\"sig\":\"{CACHE_SIG}\"}}\n"),
            _ => String::new(),
        };
        self.records += usize::from(put.is_some()) + dels.len();
        if (!self.anchored || self.records > self.store.len()) && self.compact().is_ok() {
            return;
        }
        let Some((path, journal)) = &mut self.disk else {
            return;
        };
        if let Some((id, body)) = put {
            let (id, body) = (json_escape(id), json_escape(body));
            lines.push_str(&format!("{{\"put\":[\"{id}\",\"{body}\"]}}\n"));
        }
        for id in dels {
            lines.push_str(&format!("{{\"del\":\"{}\"}}\n", json_escape(id)));
        }
        if let Err(e) = journal
            .write_all(lines.as_bytes())
            .and_then(|()| journal.sync_data())
        {
            eprintln!("warning: could not journal {}: {e}", path.display());
        }
    }

    /// Save the snapshot, then empty the journal.
    fn compact(&mut self) -> io::Result<()> {
        if let Some((path, journal)) = &self.disk {
            let saved = self.store.save(path).and_then(|()| journal.set_len(0));
            if let Err(e) = &saved {
                eprintln!("warning: could not save checkpoint {}: {e}", path.display());
            }
            saved?;
        }
        self.records = 0;
        self.anchored = true;
        Ok(())
    }
}

/// One journal record: `(id, Some(body))` for a put, `(id, None)` for a
/// delete.
fn journal_op(line: &JsonValue) -> Option<(&str, Option<&str>)> {
    if let Some(id) = line.get("del") {
        return Some((id.as_str()?, None));
    }
    match line.get("put")?.as_array()? {
        [id, body] => Some((id.as_str()?, Some(body.as_str()?))),
        _ => None,
    }
}

impl PlanCache {
    /// Open the cache. `path: None` keeps it in memory only, and so does
    /// a store that cannot be opened (with a warning). A bound of `cap`
    /// entries is enforced on insert, and at once on a reopened store
    /// past it.
    pub fn open(path: Option<PathBuf>, cap: usize) -> PlanCache {
        let opened = path.map(CacheState::open).transpose();
        let mut state = opened
            .unwrap_or_else(|e| {
                eprintln!("warning: could not open plan cache: {e}; keeping it in memory");
                None
            })
            .unwrap_or_else(|| CacheState::new(Checkpoint::new(CACHE_SIG), true));
        let cap = cap.max(1);
        let victims = state.evict_to(cap);
        if !victims.is_empty() {
            state.journal(None, &victims);
        }
        PlanCache {
            cap,
            state: Mutex::new(state),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a plan body, refreshing its LRU stamp.
    pub fn get(&self, id: &str) -> Option<String> {
        let mut state = self.lock();
        let body = state.store.get(id)?.to_string();
        state.touch(id);
        Some(body)
    }

    /// Insert a plan body and journal it with the evictions past the cap
    /// (best effort — an I/O failure costs persistence, not the request).
    pub fn insert(&self, id: &str, body: &str) {
        let mut state = self.lock();
        state.put(id, body);
        let victims = state.evict_to(self.cap);
        state.journal(Some((id, body)), &victims);
    }

    /// Compact the store (shutdown path): one snapshot, empty journal.
    pub fn flush(&self) {
        let _ = self.lock().compact();
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.lock().stamps.len()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted by the bound so far.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

/// Hook attaching an analyzer lint report to a plan body: given the
/// resolved spec and the recording of the plan's one simulation, return
/// the report JSON (or an error string). Injected by the `stp` CLI —
/// `stp-core` cannot depend on `stp-analyzer`.
pub type LintFn = dyn Fn(&PlanSpec, &RecordedRun) -> Result<String, String> + Send + Sync;

#[derive(Default)]
struct PlanStats {
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    planned: AtomicU64,
    quarantined: AtomicU64,
    errors: AtomicU64,
}

/// Serve-daemon configuration: one field per `stp serve` flag, plus the
/// executor and the watchdog budget.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address: `host:port` for TCP, an absolute path (or
    /// `unix:<path>`) for a Unix socket.
    pub addr: String,
    /// Persistent cache file (`None` = in-memory only).
    pub cache_path: Option<PathBuf>,
    /// Cache entry bound.
    pub cache_cap: usize,
    /// Cold-planning worker threads.
    pub workers: usize,
    /// Default per-request deadline.
    pub deadline: Duration,
    /// Executor for every plan (see [`ExecMode`]: there is one).
    pub exec: ExecMode,
    /// Per-plan watchdog budget (livelock containment).
    pub budget: SimBudget,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7411".to_string(),
            cache_path: None,
            cache_cap: 4096,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(2),
            deadline: Duration::from_secs(30),
            exec: ExecMode::default(),
            budget: SimBudget::default(),
        }
    }
}

/// The planning engine behind the daemon: parse → cache → supervised
/// cold run. Shared (`Arc`) between connection threads and the worker
/// pool; also usable directly (without a socket) from tests.
pub struct Planner {
    cache: PlanCache,
    exec: ExecMode,
    deadline: Duration,
    budget: SimBudget,
    lint: Option<Box<LintFn>>,
    stats: PlanStats,
}

impl Planner {
    /// Build a planner from the config (opens/repairs the cache).
    pub fn new(config: &ServeConfig, lint: Option<Box<LintFn>>) -> Planner {
        Planner {
            cache: PlanCache::open(config.cache_path.clone(), config.cache_cap),
            exec: config.exec,
            deadline: config.deadline,
            budget: config.budget.clone(),
            lint,
            stats: PlanStats::default(),
        }
    }

    /// Parse one request line against this planner's defaults.
    pub fn parse(&self, line: &str) -> Result<Request, String> {
        parse_request(line, self.exec, self.deadline)
    }

    /// The cache (tests inspect entry counts and evictions).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Serve a plan request end to end (cache hit or supervised cold
    /// run on the calling thread). Returns the full response line.
    /// The daemon splits this into [`lookup`](Planner::lookup) (on the
    /// connection thread) + [`execute`](Planner::execute) (on a pool
    /// worker); tests and single-threaded callers use this directly.
    pub fn plan(&self, spec: &PlanSpec) -> String {
        match self.lookup(spec) {
            Some(response) => response,
            None => self.execute(spec),
        }
    }

    /// Cache-hit fast path: `Some(response)` iff the plan is cached.
    pub fn lookup(&self, spec: &PlanSpec) -> Option<String> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let key = spec.cache_id();
        match self.cache.get(&key) {
            Some(body) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(ok_response(&spec.id, true, &key, &body))
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Cold path: run the plan as a one-point supervised sweep, cache
    /// the body on success, and render the response line.
    pub fn execute(&self, spec: &PlanSpec) -> String {
        let key = spec.cache_id();
        let token = CancelToken::new();
        let opts = SuperviseOpts {
            deadline: Some(spec.deadline),
            cancel: token.clone(),
            budget: self.budget.clone(),
        };
        let statuses = SweepRunner::sequential().map_supervised(
            vec![()],
            |_| self.run_point(spec, &token),
            &opts,
        );
        match statuses.into_iter().next() {
            Some(PointStatus::Done(Ok(body))) => {
                self.stats.planned.fetch_add(1, Ordering::Relaxed);
                self.cache.insert(&key, &body);
                ok_response(&spec.id, false, &key, &body)
            }
            Some(PointStatus::Done(Err(plan_error))) => {
                self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                error_response(&spec.id, &format!("plan failed: {plan_error}"), true)
            }
            Some(PointStatus::Failed(error)) => {
                self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                error_response(&spec.id, &format!("quarantined: {error}"), true)
            }
            Some(PointStatus::Skipped) | None => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                error_response(&spec.id, "deadline exceeded", false)
            }
        }
    }

    /// One supervised grid point: simulate, verify, render the plan
    /// body. Outer `Err(SimError)` quarantines (rank panic, watchdog,
    /// strict violation); inner `Err(String)` is a clean plan failure
    /// (deadlocked schedule).
    fn run_point(
        &self,
        spec: &PlanSpec,
        token: &CancelToken,
    ) -> Result<Result<String, String>, SimError> {
        let sources = spec.dist.place(spec.machine.shape, spec.s);
        let len = spec.msg_len;
        let payload_of = move |src: usize| payload_for(src, len);
        let control = RunControl {
            faults: spec.faults.clone(),
            budget: self.budget.clone(),
            cancel: Some(token.clone()),
            exec: Some(spec.exec),
        };
        let (alg, lib, kind) = match &spec.algo {
            PlanAlgo::Kind(kind) => (kind.build(), kind.default_lib(), Some(*kind)),
            PlanAlgo::Chaos(name) => {
                let builder = chaos_algorithms()
                    .into_iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, b)| b)
                    .expect("chaos fixture resolved at parse time");
                (builder(), mpp_model::LibraryKind::Nx, None)
            }
        };
        // Only the analyzer reads the schedule log; a plain plan is the
        // same run without the recorder.
        let recorded = match spec.lint {
            true => Some(try_record_sources(
                &spec.machine,
                lib,
                &sources,
                &payload_of,
                alg.as_ref(),
                &control,
            )?),
            false => None,
        };
        let unlinted;
        let outcome = match &recorded {
            Some(run) => run.outcome.as_ref(),
            None => match try_run_alg_controlled(
                &spec.machine,
                lib,
                &sources,
                &payload_of,
                alg.as_ref(),
                &control,
            ) {
                Ok(outcome) => {
                    unlinted = outcome;
                    Some(&unlinted)
                }
                Err(SimError::Deadlock { .. }) => None,
                Err(e) => return Err(e),
            },
        };
        let Some(outcome) = outcome else {
            return Ok(Err("simulation deadlocked: every rank blocked".into()));
        };

        let mut body = String::with_capacity(512);
        let algo_name = match &spec.algo {
            PlanAlgo::Kind(k) => k.name(),
            PlanAlgo::Chaos(name) => name,
        };
        let regime = match cost_regime(&spec.machine) {
            CostRegime::NetworkBound => "network_bound",
            CostRegime::SoftwareBound => "software_bound",
        };
        body.push_str(&format!(
            "{{\"algo\":\"{}\",\"auto\":{},\"regime\":\"{regime}\",\"machine\":\"{}\",\"shape\":\"{}x{}\",\"p\":{},\"ports\":{},\"exec\":\"{}\",\"dist\":\"{}\",\"s\":{},\"L\":{}",
            json_escape(algo_name),
            spec.auto,
            json_escape(&spec.machine.name),
            spec.machine.shape.rows,
            spec.machine.shape.cols,
            spec.machine.p(),
            spec.ports,
            spec.exec.name(),
            json_escape(&spec.dist_key),
            spec.s,
            spec.msg_len,
        ));
        body.push_str(&format!(
            ",\"faults\":\"{}\"",
            json_escape(&spec.faults_key)
        ));
        match kind.and_then(|k| predict::estimate_ms(&spec.machine, k, spec.s, spec.msg_len)) {
            Some(ms) => body.push_str(&format!(",\"predicted_ms\":{ms:.6}")),
            None => body.push_str(",\"predicted_ms\":null"),
        }
        // Virtual (simulated) time — never host wall-clock; the field
        // names carry the unit.
        body.push_str(&format!(
            ",\"virtual_makespan_ms\":{:.6},\"virtual_makespan_ns\":{},\"verified\":{},\"contention_events\":{},\"contention_ns\":{}",
            outcome.makespan_ms(),
            outcome.makespan_ns,
            outcome.verified,
            outcome.contention_events,
            outcome.contention_ns,
        ));
        let k = &outcome.counters;
        body.push_str(&format!(
            ",\"schedule\":{{\"events\":{},\"sends\":{},\"recvs\":{}}}",
            k.schedule_events(),
            k.sends,
            k.recvs,
        ));
        // The replay recipe: the simulation is deterministic, so the
        // source set + algorithm + machine spec re-derive the schedule.
        body.push_str(",\"replay\":{\"sources\":[");
        for (i, src) in outcome.sources.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&src.to_string());
        }
        body.push_str(&format!("],\"lib\":\"{}\"}}", lib.name()));
        if let Some(run) = &recorded {
            match &self.lint {
                Some(lint) => match lint(spec, run) {
                    Ok(report) => body.push_str(&format!(",\"lint\":{report}")),
                    Err(e) => return Ok(Err(format!("lint failed: {e}"))),
                },
                None => {
                    return Ok(Err(
                        "lint requested but this daemon has no analyzer attached".into(),
                    ))
                }
            }
        }
        body.push('}');
        Ok(Ok(body))
    }

    /// Note a non-plan request (ping/stats) in the counters.
    fn note_request(&self) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Note a malformed line.
    fn note_error(&self) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The counters, as one JSON object.
    pub fn stats_json(&self) -> String {
        let peak = peak_rss_kb().unwrap_or(0);
        format!(
            "{{\"requests\":{},\"hits\":{},\"misses\":{},\"planned\":{},\"quarantined\":{},\"errors\":{},\"entries\":{},\"evictions\":{},\"cache_cap\":{},\"peak_rss_kb\":{peak}}}",
            self.stats.requests.load(Ordering::Relaxed),
            self.stats.hits.load(Ordering::Relaxed),
            self.stats.misses.load(Ordering::Relaxed),
            self.stats.planned.load(Ordering::Relaxed),
            self.stats.quarantined.load(Ordering::Relaxed),
            self.stats.errors.load(Ordering::Relaxed),
            self.cache.len(),
            self.cache.evictions(),
            self.cache.cap,
        )
    }
}

fn ok_response(id: &str, cached: bool, key: &str, body: &str) -> String {
    format!(
        "{{\"id\":\"{}\",\"status\":\"ok\",\"cached\":{cached},\"key\":\"{key}\",\"plan\":{body}}}",
        json_escape(id),
    )
}

fn error_response(id: &str, error: &str, quarantined: bool) -> String {
    format!(
        "{{\"id\":\"{}\",\"status\":\"error\",\"quarantined\":{quarantined},\"error\":\"{}\"}}",
        json_escape(id),
        json_escape(error),
    )
}

/// Peak resident set size (`VmHWM`) in KiB from `/proc/self/status` —
/// the bounded-memory number `{"cmd":"stats"}` reports.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
}

// ---------------------------------------------------------------------------
// Signal-driven shutdown
// ---------------------------------------------------------------------------

static SIGNAL_FLAG: std::sync::OnceLock<Arc<AtomicBool>> = std::sync::OnceLock::new();

extern "C" fn on_shutdown_signal(_sig: i32) {
    // Async-signal-safe: one atomic store, no locks, no allocation.
    if let Some(flag) = SIGNAL_FLAG.get() {
        flag.store(true, Ordering::SeqCst);
    }
}

/// Route `SIGTERM`/`SIGINT` to `flag` so the accept loop shuts down
/// cleanly (drained pool, flushed cache). Uses the libc `signal` entry
/// point directly — the build is offline and carries no libc crate.
pub fn arm_signal_shutdown(flag: &Arc<AtomicBool>) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let _ = SIGNAL_FLAG.set(flag.clone());
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_shutdown_signal as *const () as usize);
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(Some(timeout)),
            Stream::Unix(s) => s.set_read_timeout(Some(timeout)),
        }
    }

    /// Responses are a single small write each; Nagle + delayed ACK
    /// would otherwise stall every warm hit by ~40ms.
    fn set_nodelay(&self) {
        if let Stream::Tcp(s) = self {
            let _ = s.set_nodelay(true);
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

type Job = (Box<PlanSpec>, mpsc::Sender<String>);

/// The serve daemon: accept loop + connection threads + worker pool
/// around a shared [`Planner`].
pub struct Server {
    listener: Listener,
    addr: String,
    planner: Arc<Planner>,
    shutdown: Arc<AtomicBool>,
    workers: usize,
}

impl Server {
    /// Bind the listen socket (TCP `host:port`, or a Unix socket for an
    /// absolute path / `unix:<path>` address). Port 0 picks a free
    /// port; read the bound address back with
    /// [`local_addr`](Server::local_addr).
    pub fn bind(config: &ServeConfig, lint: Option<Box<LintFn>>) -> io::Result<Server> {
        let raw = config.addr.trim();
        let (listener, addr) = if let Some(path) = raw
            .strip_prefix("unix:")
            .or_else(|| raw.starts_with('/').then_some(raw))
        {
            let path = PathBuf::from(path);
            // A previous unclean exit leaves the socket file behind;
            // rebinding the same path is the expected restart flow.
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)?;
            let addr = format!("unix:{}", path.display());
            (Listener::Unix(listener, path), addr)
        } else {
            let listener = TcpListener::bind(raw)?;
            let addr = listener.local_addr()?.to_string();
            (Listener::Tcp(listener), addr)
        };
        Ok(Server {
            listener,
            addr,
            planner: Arc::new(Planner::new(config, lint)),
            shutdown: Arc::new(AtomicBool::new(false)),
            workers: config.workers.max(1),
        })
    }

    /// The bound address (`host:port` or `unix:<path>`).
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// The shared shutdown flag (hand it to
    /// [`arm_signal_shutdown`] or flip it from a test).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// The shared planner (tests inspect cache/stat counters).
    pub fn planner(&self) -> Arc<Planner> {
        self.planner.clone()
    }

    /// Serve until the shutdown flag is set, then drain: close the
    /// accept loop, join connections and workers, flush the cache.
    /// Returns the final stats JSON.
    pub fn run(self) -> io::Result<String> {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut worker_handles = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let planner = self.planner.clone();
            let job_rx = job_rx.clone();
            worker_handles.push(std::thread::spawn(move || loop {
                let job = {
                    let rx = job_rx.lock().unwrap_or_else(PoisonError::into_inner);
                    rx.recv()
                };
                let Ok((spec, reply)) = job else { break };
                let response = planner.execute(&spec);
                let _ = reply.send(response);
            }));
        }

        match &self.listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
        }
        let mut conn_handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            let accepted = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            };
            match accepted {
                Ok(stream) => {
                    let planner = self.planner.clone();
                    let job_tx = job_tx.clone();
                    let shutdown = self.shutdown.clone();
                    conn_handles.push(std::thread::spawn(move || {
                        handle_connection(stream, planner, job_tx, shutdown);
                    }));
                    // Joined-and-done threads are reaped opportunistically
                    // so a long-lived daemon does not accumulate handles.
                    conn_handles.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    eprintln!("serve: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }

        // Drain: connections observe the flag via their read timeout,
        // the pool closes when the last sender drops.
        for handle in conn_handles {
            let _ = handle.join();
        }
        drop(job_tx);
        for handle in worker_handles {
            let _ = handle.join();
        }
        self.planner.cache.flush();
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(self.planner.stats_json())
    }
}

fn handle_connection(
    stream: Stream,
    planner: Arc<Planner>,
    job_tx: mpsc::Sender<Job>,
    shutdown: Arc<AtomicBool>,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    if stream.set_read_timeout(Duration::from_millis(200)).is_err() {
        return;
    }
    stream.set_nodelay();
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    while !shutdown.load(Ordering::SeqCst) {
        // `line` is cleared after each processed request, not here: a
        // read timeout can leave a partial line behind, and the next
        // read must append to it, not drop it.
        match reader.read_line(&mut line) {
            Ok(0) => break, // client closed
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => break,
        }
        if line.trim().is_empty() {
            line.clear();
            continue;
        }
        let (mut response, quit) = process_line(&line, &planner, &job_tx);
        line.clear();
        response.push('\n');
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if quit {
            shutdown.store(true, Ordering::SeqCst);
            break;
        }
    }
}

fn process_line(line: &str, planner: &Arc<Planner>, job_tx: &mpsc::Sender<Job>) -> (String, bool) {
    match planner.parse(line) {
        Err(e) => {
            planner.note_error();
            (error_response("", &e, false), false)
        }
        Ok(Request::Ping) => {
            planner.note_request();
            ("{\"status\":\"ok\",\"pong\":true}".to_string(), false)
        }
        Ok(Request::Stats) => {
            planner.note_request();
            (
                format!("{{\"status\":\"ok\",\"stats\":{}}}", planner.stats_json()),
                false,
            )
        }
        Ok(Request::Shutdown) => {
            planner.note_request();
            ("{\"status\":\"ok\",\"shutdown\":true}".to_string(), true)
        }
        Ok(Request::Plan(spec)) => {
            if let Some(response) = planner.lookup(&spec) {
                return (response, false);
            }
            let (reply_tx, reply_rx) = mpsc::channel();
            if job_tx.send((spec, reply_tx)).is_err() {
                return (error_response("", "daemon is shutting down", false), false);
            }
            match reply_rx.recv() {
                Ok(response) => (response, false),
                Err(_) => (
                    error_response("", "worker pool dropped the request", false),
                    false,
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_plan(line: &str) -> Box<PlanSpec> {
        match parse_request(line, ExecMode::Cooperative, Duration::from_secs(5))
            .expect("parse failed")
        {
            Request::Plan(spec) => spec,
            other => panic!("expected a plan, got {other:?}"),
        }
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned reference values: the cache file format depends on
        // this hash staying put.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a("ab"), fnv1a("ba"));
    }

    #[test]
    fn auto_and_explicit_requests_share_a_cache_key() {
        let auto = parse_plan(
            r#"{"machine":"paragon","rows":10,"cols":10,"dist":"row","s":30,"L":4096,"algo":"auto"}"#,
        );
        // recommend() picks Repos_xy_source for this point.
        let explicit = parse_plan(
            r#"{"machine":"paragon","rows":10,"cols":10,"dist":"row","s":30,"L":4096,"algo":"Repos_xy_source"}"#,
        );
        assert!(auto.auto && !explicit.auto);
        assert_eq!(auto.canonical_key(), explicit.canonical_key());
        assert_eq!(auto.cache_id(), explicit.cache_id());
    }

    #[test]
    fn cache_key_discriminates_every_tuple_field() {
        let base = r#"{"machine":"paragon","rows":10,"cols":10,"dist":"row","s":30,"L":4096,"algo":"Br_Lin"}"#;
        let variants = [
            r#"{"machine":"paragon","rows":10,"cols":10,"dist":"row","s":30,"L":4096,"algo":"Br_xy_source"}"#,
            r#"{"machine":"paragon","rows":10,"cols":10,"dist":"col","s":30,"L":4096,"algo":"Br_Lin"}"#,
            r#"{"machine":"paragon","rows":5,"cols":20,"dist":"row","s":30,"L":4096,"algo":"Br_Lin"}"#,
            r#"{"machine":"paragon","rows":10,"cols":10,"dist":"row","s":30,"L":4096,"algo":"Br_Lin","faults":"drop=1/100,seed=3"}"#,
            r#"{"machine":"paragon","rows":10,"cols":10,"ports":5,"dist":"row","s":30,"L":4096,"algo":"Br_Lin"}"#,
            r#"{"machine":"paragon","rows":10,"cols":10,"dist":"row","s":31,"L":4096,"algo":"Br_Lin"}"#,
            r#"{"machine":"paragon","rows":10,"cols":10,"dist":"row","s":30,"L":8192,"algo":"Br_Lin"}"#,
            r#"{"machine":"paragon","rows":10,"cols":10,"dist":"rand","seed":9,"s":30,"L":4096,"algo":"Br_Lin"}"#,
        ];
        let base_key = parse_plan(base).canonical_key();
        for line in variants {
            assert_ne!(parse_plan(line).canonical_key(), base_key, "{line}");
        }
    }

    #[test]
    fn malformed_requests_are_clean_errors() {
        let cases = [
            "not json",
            r#"{"machine":"paragon","rows":10,"cols":10}"#, // no s
            r#"{"machine":"paragon","rows":10,"cols":10,"s":500}"#, // s > p
            r#"{"machine":"paragon","rows":10,"cols":10,"s":0}"#,
            r#"{"machine":"cm5","rows":4,"cols":4,"s":2}"#,
            r#"{"machine":"paragon","rows":10,"cols":10,"s":4,"algo":"nope"}"#,
            r#"{"machine":"paragon","rows":10,"cols":10,"s":4,"dist":"nope"}"#,
            r#"{"machine":"paragon","rows":10,"cols":10,"s":4,"faults":"bogus"}"#,
            r#"{"machine":"paragon","rows":200,"cols":200,"s":4}"#, // p cap
            r#"{"machine":"paragon","rows":10,"cols":10,"s":4,"deadline_ms":0}"#,
            r#"{"cmd":"reboot"}"#,
        ];
        for line in cases {
            let parsed = parse_request(line, ExecMode::Cooperative, Duration::from_secs(5));
            assert!(parsed.is_err(), "{line} should be rejected");
        }
    }

    #[test]
    fn cache_bound_evicts_least_recently_used() {
        let cache = PlanCache::open(None, 3);
        cache.insert("a", "1");
        cache.insert("b", "2");
        cache.insert("c", "3");
        // Refresh "a" so "b" is the LRU victim.
        assert_eq!(cache.get("a").as_deref(), Some("1"));
        cache.insert("d", "4");
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get("b").is_none(), "LRU entry must be evicted");
        assert_eq!(cache.get("a").as_deref(), Some("1"));
        assert_eq!(cache.get("d").as_deref(), Some("4"));
    }

    fn cache_path(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "stp-serve-cache-test-{tag}-{}.json",
            std::process::id()
        ));
        remove_store(&path);
        path
    }

    fn remove_store(path: &std::path::Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(journal_path(path));
    }

    #[test]
    fn a_cache_dropped_without_flush_reopens_every_body_byte_identical() {
        let path = cache_path("unflushed");
        let bodies: Vec<(String, String)> = (0..12)
            .map(|i| {
                (
                    format!("{i:016x}"),
                    format!("{{\"n\":{i},\"s\":\"é \\\" \\\\ \\n\"}}"),
                )
            })
            .collect();
        {
            let cache = PlanCache::open(Some(path.clone()), 8);
            for (id, body) in &bodies {
                cache.insert(id, body);
            }
            assert_eq!(cache.evictions(), 4);
        }
        let cache = PlanCache::open(Some(path.clone()), 8);
        assert_eq!(cache.len(), 8);
        for (id, body) in &bodies[4..] {
            assert_eq!(cache.get(id).as_deref(), Some(body.as_str()), "{id}");
        }
        remove_store(&path);
    }

    /// The entries of a reopened store count as used in the order they
    /// were last written, so a lowered cap evicts the same ones every
    /// time: the snapshot's in id order, then the journal's.
    #[test]
    fn eviction_after_a_restart_is_deterministic() {
        let path = cache_path("evict-restart");
        let ids: Vec<String> = (0..8).map(|i| format!("{i:016x}")).collect();
        for _ in 0..8 {
            remove_store(&path);
            {
                let cache = PlanCache::open(Some(path.clone()), 16);
                for id in &ids {
                    cache.insert(id, "{}");
                }
                cache.flush();
            }
            {
                // Rewritten after the snapshot, so newest: 1, then 0.
                let cache = PlanCache::open(Some(path.clone()), 16);
                cache.insert(&ids[1], "{}");
                cache.insert(&ids[0], "{}");
            }
            let cache = PlanCache::open(Some(path.clone()), 4);
            let survivors: Vec<&str> = ids
                .iter()
                .filter(|id| cache.get(id).is_some())
                .map(String::as_str)
                .collect();
            assert_eq!(survivors, [&ids[0], &ids[1], &ids[6], &ids[7]]);
            assert_eq!(cache.evictions(), 4);
        }
        remove_store(&path);
    }

    #[test]
    fn cache_persists_and_corrupt_store_starts_fresh() {
        let path = cache_path("corrupt");
        {
            let cache = PlanCache::open(Some(path.clone()), 16);
            cache.insert("k1", "{\"algo\":\"Br_Lin\"}");
            cache.flush();
        }
        {
            let cache = PlanCache::open(Some(path.clone()), 16);
            assert_eq!(cache.get("k1").as_deref(), Some("{\"algo\":\"Br_Lin\"}"));
        }
        std::fs::write(&path, "corrupt { not json").unwrap();
        {
            let cache = PlanCache::open(Some(path.clone()), 16);
            assert!(cache.is_empty(), "corrupt store must start fresh");
            cache.insert("k2", "x");
        }
        {
            let cache = PlanCache::open(Some(path.clone()), 16);
            assert_eq!(cache.get("k2").as_deref(), Some("x"));
        }
        remove_store(&path);
    }

    // The store under the cache: its byte format, and what open makes of
    // every file a kill or damage can leave (DESIGN.md §10's table).

    fn open(path: &Path, cap: usize) -> PlanCache {
        PlanCache::open(Some(path.to_path_buf()), cap)
    }

    /// `(id, body)` of every cached entry, in id order.
    fn contents(cache: &PlanCache) -> Vec<(String, String)> {
        let state = cache.lock();
        let store = &state.store;
        store
            .ids()
            .map(|id| (id.to_string(), store.get(id).unwrap().to_string()))
            .collect()
    }

    fn pairs(entries: &[(&str, &str)]) -> Vec<(String, String)> {
        entries
            .iter()
            .map(|&(id, body)| (id.into(), body.into()))
            .collect()
    }

    /// The cached ids, least recently used first.
    fn lru_order(cache: &PlanCache) -> Vec<String> {
        let state = cache.lock();
        let mut ids: Vec<(u64, &String)> = state.stamps.iter().map(|(id, &t)| (t, id)).collect();
        ids.sort();
        ids.into_iter().map(|(_, id)| id.clone()).collect()
    }

    fn read(path: &Path) -> String {
        std::fs::read_to_string(path).unwrap()
    }

    /// A cache at `path` holding `p1`, `p2`, `p3`, each written by its
    /// own journal append after an empty snapshot, and never compacted
    /// (the handle is dropped without a flush, as a kill would leave it).
    fn three_appends(path: &Path) {
        let cache = open(path, 16);
        cache.flush();
        for (id, body) in [("p1", "one"), ("p2", "two é"), ("p3", "three")] {
            cache.insert(id, body);
        }
        assert_eq!(read(path), Checkpoint::new(CACHE_SIG).to_json());
    }

    /// A snapshot and a journal in the store's byte format, spelled out
    /// rather than written by the code under test: the journal adds `p4`,
    /// rewrites `p1` and deletes `p2`.
    const SNAPSHOT: &str = "{\"sig\":\"serve-cache:v1\",\"entries\":{\n  \
        \"p1\":\"{\\\"n\\\":1}\",\n  \"p2\":\"two é\",\n  \"p3\":\"three\"\n}}";
    const JOURNAL: &str = "{\"sig\":\"serve-cache:v1\"}\n\
        {\"put\":[\"p4\",\"four\"]}\n\
        {\"put\":[\"p1\",\"{\\\"n\\\":1,\\\"again\\\":true}\"]}\n\
        {\"del\":\"p2\"}\n";

    fn write_literal_store(path: &Path) {
        std::fs::write(path, SNAPSHOT).unwrap();
        std::fs::write(journal_path(path), JOURNAL).unwrap();
    }

    #[test]
    fn a_store_in_the_pinned_format_reopens_evicts_and_flushes_byte_for_byte() {
        let path = cache_path("pinned");
        write_literal_store(&path);
        let cache = open(&path, 16);
        let again = "{\"n\":1,\"again\":true}";
        let want = pairs(&[("p1", again), ("p3", "three"), ("p4", "four")]);
        assert_eq!(contents(&cache), want);
        // Snapshot entries in id order, then the journal's last writes.
        assert_eq!(lru_order(&cache), ["p3", "p4", "p1"]);
        // Open compacted the replayed journal into the snapshot.
        let compacted = "{\"sig\":\"serve-cache:v1\",\"entries\":{\n  \
            \"p1\":\"{\\\"n\\\":1,\\\"again\\\":true}\",\n  \
            \"p3\":\"three\",\n  \"p4\":\"four\"\n}}";
        assert_eq!(read(&path), compacted);
        assert_eq!(read(&journal_path(&path)), "");
        drop(cache);

        // A lowered cap evicts the least recently used, and journals it.
        write_literal_store(&path);
        let cache = open(&path, 2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(lru_order(&cache), ["p4", "p1"]);
        assert_eq!(
            read(&journal_path(&path)),
            "{\"sig\":\"serve-cache:v1\"}\n{\"del\":\"p3\"}\n"
        );
        cache.flush();
        assert_eq!(
            read(&path),
            "{\"sig\":\"serve-cache:v1\",\"entries\":{\n  \
             \"p1\":\"{\\\"n\\\":1,\\\"again\\\":true}\",\n  \"p4\":\"four\"\n}}"
        );
        assert_eq!(read(&journal_path(&path)), "");
        remove_store(&path);
    }

    #[test]
    fn a_fresh_cache_writes_the_pinned_snapshot_then_journal_lines() {
        let path = cache_path("pinned-fresh");
        let cache = open(&path, 16);
        // The first write compacts: there is no snapshot to append to.
        cache.insert("p1", "{\"n\":1}");
        assert_eq!(
            read(&path),
            "{\"sig\":\"serve-cache:v1\",\"entries\":{\n  \"p1\":\"{\\\"n\\\":1}\"\n}}"
        );
        assert_eq!(read(&journal_path(&path)), "");
        cache.insert("p2", "two \"é\"");
        assert_eq!(
            read(&journal_path(&path)),
            "{\"sig\":\"serve-cache:v1\"}\n{\"put\":[\"p2\",\"two \\\"é\\\"\"]}\n"
        );
        remove_store(&path);
    }

    #[test]
    fn a_snapshot_under_another_signature_starts_fresh() {
        let path = cache_path("sig");
        std::fs::write(&path, SNAPSHOT.replace("serve-cache:v1", "serve-cache:v0")).unwrap();
        assert!(open(&path, 16).is_empty());
        // The same bytes under this signature are kept.
        std::fs::write(&path, SNAPSHOT).unwrap();
        assert_eq!(open(&path, 16).len(), 3);
        remove_store(&path);
    }

    #[test]
    fn appends_replay_on_open_and_compaction_keeps_the_journal_below_the_store() {
        let path = cache_path("compact");
        three_appends(&path);
        let cache = open(&path, 3);
        let want = pairs(&[("p1", "one"), ("p2", "two é"), ("p3", "three")]);
        assert_eq!(contents(&cache), want);
        // Open compacted: the snapshot holds everything, the journal
        // nothing, and the next append starts it with its signature.
        assert_eq!(Checkpoint::load(&path).unwrap().unwrap().len(), 3);
        assert_eq!(read(&journal_path(&path)), "");
        cache.insert("p4", "four");
        assert_eq!(
            read(&journal_path(&path)),
            "{\"sig\":\"serve-cache:v1\"}\n{\"put\":[\"p4\",\"four\"]}\n{\"del\":\"p1\"}\n"
        );
        // Two records over three entries: still journaled. Two more
        // make four over three, and the cache compacts instead.
        cache.insert("p5", "five");
        assert_eq!(read(&journal_path(&path)), "");
        let snapshot = Checkpoint::load(&path).unwrap().unwrap();
        assert_eq!(snapshot.ids().collect::<Vec<_>>(), ["p3", "p4", "p5"]);
        remove_store(&path);
    }

    #[test]
    fn a_torn_last_journal_line_is_dropped_and_the_prefix_kept() {
        let path = cache_path("torn");
        three_appends(&path);
        let journal = std::fs::read(journal_path(&path)).unwrap();
        std::fs::write(journal_path(&path), &journal[..journal.len() - 5]).unwrap();
        let cache = open(&path, 16);
        assert_eq!(contents(&cache), pairs(&[("p1", "one"), ("p2", "two é")]));
        remove_store(&path);
    }

    #[test]
    fn a_corrupt_record_stops_replay_there_and_the_store_reseals() {
        let path = cache_path("corrupt-record");
        three_appends(&path);
        let damaged = read(&journal_path(&path)).replace("\"p2\"", "\"p2");
        std::fs::write(journal_path(&path), damaged).unwrap();
        let cache = open(&path, 16);
        assert_eq!(contents(&cache), pairs(&[("p1", "one")]));
        drop(cache);
        // Resealed: the damage is gone, not replayed again.
        assert_eq!(read(&journal_path(&path)), "");
        assert_eq!(contents(&open(&path, 16)), pairs(&[("p1", "one")]));
        remove_store(&path);
    }

    /// A kill between compaction's rename and its truncate leaves the
    /// old journal beside the snapshot that already holds it.
    #[test]
    fn an_old_journal_beside_a_newer_snapshot_reopens_to_the_same_state() {
        let path = cache_path("idempotent");
        three_appends(&path);
        let cache = open(&path, 3);
        cache.insert("p4", "four"); // evicts p1
        cache.insert("p2", "two again");
        let journal = std::fs::read(journal_path(&path)).unwrap();
        let (before, order) = (contents(&cache), lru_order(&cache));
        cache.flush();
        drop(cache);
        std::fs::write(journal_path(&path), journal).unwrap();
        let cache = open(&path, 3);
        assert_eq!(contents(&cache), before);
        let want = pairs(&[("p2", "two again"), ("p3", "three"), ("p4", "four")]);
        assert_eq!(before, want);
        // Oldest write first: p3 from the snapshot, then p4 and p2 as
        // the journal last wrote them.
        assert_eq!(lru_order(&cache), order);
        assert_eq!(order, ["p3", "p4", "p2"]);
        remove_store(&path);
    }

    #[test]
    fn a_journal_under_another_signature_is_ignored() {
        let path = cache_path("foreign");
        write_literal_store(&path);
        let foreign = JOURNAL.replace("serve-cache:v1", "serve-cache:v0");
        std::fs::write(journal_path(&path), foreign).unwrap();
        let cache = open(&path, 16);
        let snapshot = pairs(&[("p1", "{\"n\":1}"), ("p2", "two é"), ("p3", "three")]);
        assert_eq!(contents(&cache), snapshot);
        remove_store(&path);
    }

    #[test]
    fn deleting_the_snapshot_deletes_the_store() {
        let path = cache_path("deleted");
        three_appends(&path);
        std::fs::remove_file(&path).unwrap();
        let cache = open(&path, 16);
        assert!(cache.is_empty());
        // The first write compacts over the stale journal.
        cache.insert("p9", "nine");
        assert_eq!(read(&journal_path(&path)), "");
        drop(cache);
        assert_eq!(contents(&open(&path, 16)), pairs(&[("p9", "nine")]));
        remove_store(&path);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Write a history of inserts under a small cap, so evictions
        /// journal deletes (compacted part way), then cut one file short
        /// or flip one of its bytes. A flip that sets or clears the top
        /// bit leaves invalid UTF-8 wherever it lands, so it is always
        /// detectable; a flip within ASCII inside a string would be a
        /// different, valid document, which no format without checksums
        /// can tell apart. Opening must not fail, and what it loads must
        /// be entries that were written, byte for byte.
        #[test]
        fn a_damaged_store_opens_to_a_subset_of_what_was_written(
            ids in proptest::collection::vec(0u8..6, 1..40),
            cap in 1usize..4,
            flush_at in 0usize..40,
            damage in (0u8..2, 0u8..2, 0usize..4096, 0x80u8..=0xFF),
        ) {
            let path = cache_path("damaged");
            let mut written = std::collections::BTreeSet::new();
            {
                let cache = open(&path, cap);
                cache.flush();
                for (n, id) in ids.iter().enumerate() {
                    let (id, body) = (format!("p{id}"), format!("{{\"n\":{n},\"s\":\"é\\\\\\\"\"}}"));
                    cache.insert(&id, &body);
                    written.insert((id, body));
                    if n == flush_at {
                        cache.flush();
                    }
                }
            }
            let (journal, truncate, at, mask) = damage;
            let target = if journal == 1 { journal_path(&path) } else { path.clone() };
            let mut bytes = std::fs::read(&target).unwrap();
            if !bytes.is_empty() {
                let at = at % bytes.len();
                if truncate == 1 {
                    bytes.truncate(at);
                } else {
                    bytes[at] ^= mask;
                }
                std::fs::write(&target, &bytes).unwrap();
            }
            for entry in contents(&open(&path, 16)) {
                proptest::prop_assert!(written.contains(&entry), "{entry:?} was never written");
            }
            remove_store(&path);
        }
    }

    #[test]
    fn planner_round_trip_is_byte_identical_and_cached() {
        let config = ServeConfig {
            cache_path: None,
            ..ServeConfig::default()
        };
        let planner = Planner::new(&config, None);
        let spec = parse_plan(
            r#"{"id":"q1","machine":"paragon","rows":4,"cols":4,"dist":"equal","s":4,"L":256,"algo":"Br_Lin"}"#,
        );
        let cold = planner.plan(&spec);
        let warm = planner.plan(&spec);
        assert!(cold.contains("\"cached\":false"), "{cold}");
        assert!(warm.contains("\"cached\":true"), "{warm}");
        let plan_of = |r: &str| r.split_once(",\"plan\":").map(|(_, p)| p.to_string());
        assert_eq!(plan_of(&cold), plan_of(&warm), "plan bodies must match");
        assert!(cold.contains("\"virtual_makespan_ms\""));
        assert!(cold.contains("\"verified\":true"));
        assert_eq!(planner.cache().len(), 1);
    }

    #[test]
    fn lint_hook_is_handed_the_recording_the_plan_is_rendered_from() {
        let config = ServeConfig {
            cache_path: None,
            ..ServeConfig::default()
        };
        let hook: Box<LintFn> = Box::new(|spec, run| {
            let outcome = run.outcome.as_ref().ok_or("no outcome")?;
            assert_eq!(outcome.sources.len(), spec.s);
            Ok(format!("{{\"seen_events\":{}}}", run.events.len()))
        });
        let planner = Planner::new(&config, Some(hook));
        let spec = parse_plan(
            r#"{"machine":"paragon","rows":4,"cols":4,"dist":"equal","s":4,"L":256,"algo":"Br_Lin","lint":true}"#,
        );
        let reply = planner.plan(&spec);
        let events_after = |marker: &str| -> String {
            let (_, rest) = reply.split_once(marker).expect(marker);
            rest.chars().take_while(char::is_ascii_digit).collect()
        };
        assert!(
            !events_after("\"schedule\":{\"events\":").is_empty(),
            "{reply}"
        );
        assert_eq!(
            events_after("\"lint\":{\"seen_events\":"),
            events_after("\"schedule\":{\"events\":"),
            "{reply}"
        );
    }

    #[test]
    fn chaos_plan_is_quarantined_without_poisoning_the_cache() {
        crate::runner::tests_hush_deliberate_panics();
        let config = ServeConfig {
            cache_path: None,
            ..ServeConfig::default()
        };
        let planner = Planner::new(&config, None);
        let chaos = parse_plan(
            r#"{"id":"x","machine":"paragon","rows":4,"cols":4,"dist":"equal","s":2,"L":64,"algo":"chaos:panic"}"#,
        );
        let response = planner.plan(&chaos);
        assert!(response.contains("\"status\":\"error\""), "{response}");
        assert!(response.contains("\"quarantined\":true"), "{response}");
        assert_eq!(planner.cache().len(), 0, "failures must not be cached");
        // The planner still serves healthy requests afterwards.
        let healthy = parse_plan(
            r#"{"machine":"paragon","rows":4,"cols":4,"dist":"equal","s":4,"L":256,"algo":"auto"}"#,
        );
        assert!(planner.plan(&healthy).contains("\"status\":\"ok\""));
    }

    #[test]
    fn deadlocked_plan_fails_cleanly() {
        let config = ServeConfig {
            cache_path: None,
            ..ServeConfig::default()
        };
        let planner = Planner::new(&config, None);
        let spec = parse_plan(
            r#"{"machine":"paragon","rows":2,"cols":2,"dist":"equal","s":2,"L":64,"algo":"chaos:deadlock"}"#,
        );
        let response = planner.plan(&spec);
        assert!(response.contains("\"status\":\"error\""), "{response}");
        assert!(response.contains("deadlock"), "{response}");
        assert_eq!(planner.cache().len(), 0);
    }
}
