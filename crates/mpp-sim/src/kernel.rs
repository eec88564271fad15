//! The deterministic simulation kernel.
//!
//! Rank programs are `async` state machines over [`RankCtx`]; every
//! communication call advances this rank's virtual clock under the timing
//! model in the crate docs. Two executors drive them:
//!
//! * **Cooperative** (default, [`ExecMode::Cooperative`]) — all rank
//!   programs are multiplexed on the kernel's own thread (see the
//!   `exec` module). Sends, compute and memcpy charges are handled
//!   rank-locally and deferred; only `recv` and `barrier` suspend.
//! * **Threaded** ([`ExecMode::Threaded`]) — the original
//!   one-OS-thread-per-rank trap/grant model, kept as the differential
//!   baseline: every operation round-trips through two channels.
//!
//! Both executors feed the same `KernelCore` state machine (network,
//! mailboxes, sequence numbers, recording), so virtual times, statistics
//! and recorded schedules are bit-identical by construction.

use std::cell::RefCell;
use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, PoisonError};
use std::task::{Context, Poll, Waker};

use mpp_model::{FaultPlan, LibraryKind, Machine, MachineParams, Time};

use crate::error::{panic_message, KernelGone, SimError};
use crate::exec::{try_simulate_coop, CoopCell, CoopGrant, CoopOp};
use crate::mailbox::{Mailbox, MsgRec};
use crate::network::NetworkState;
use crate::payload::Payload;
use crate::record::{
    BlockedEvent, DropEvent, EventKind, EventLog, FinishEvent, RecvEvent, ScheduleLog, SendEvent,
    XferEvent,
};
use crate::supervise::{CancelToken, SimBudget, Watchdog, WatchdogTrip};
use crate::Tag;

/// Which executor drives the rank programs. A value, never ambient
/// state: the default is cooperative, and the threaded driver is a test
/// oracle selected only by passing [`ExecMode::Threaded`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Rank programs run as resumable state machines multiplexed on the
    /// kernel thread — no per-rank OS threads, no channel round-trips.
    #[default]
    Cooperative,
    /// One OS thread per rank with a trap/grant channel protocol — the
    /// original execution model, kept for differential testing.
    Threaded,
}

impl ExecMode {
    /// Lower-case display name (`"cooperative"` / `"threaded"`).
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Cooperative => "cooperative",
            ExecMode::Threaded => "threaded",
        }
    }
}

/// Kernel configuration knobs.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Library flavour scaling the α costs (NX vs MPI on the Paragon).
    pub lib: LibraryKind,
    /// Stack size for rank threads (threaded executor only). Algorithms
    /// here recurse at most `O(log p)` deep, so the default 256 KiB is
    /// plenty even at p=1024.
    pub stack_size: usize,
    /// Capture the symbolic communication schedule into this log (see
    /// [`crate::record`]). `None` disables recording.
    pub recorder: Option<ScheduleLog>,
    /// Enforce schedule sanity at runtime: every receive match must be
    /// unambiguous (no second in-flight message with the same
    /// `(src, tag)`), and no rank may finish with undelivered messages
    /// in its mailbox. These are the same checks `stp-analyzer` runs
    /// statically; enabling them turns schedule bugs into immediate
    /// panics at the offending operation.
    pub strict: bool,
    /// Which executor drives the rank programs. Defaults to
    /// cooperative; the differential tests pass [`ExecMode::Threaded`].
    pub exec: ExecMode,
    /// Deterministic fault plan (drops, delays, link outages, node
    /// crashes, retransmission policy). `None` — or an inert plan — is
    /// the perfect network.
    pub faults: Option<FaultPlan>,
    /// Watchdog ceilings converting livelocks into
    /// [`SimError::WatchdogTripped`] / [`SimError::DeadlineExceeded`]
    /// instead of unbounded spins. Defaults to unlimited.
    pub budget: SimBudget,
    /// Cooperative cancellation: when the token is cancelled, the run
    /// exits with [`SimError::Cancelled`] at its next scheduling step.
    pub cancel: Option<CancelToken>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            lib: LibraryKind::Nx,
            stack_size: 256 * 1024,
            recorder: None,
            strict: false,
            exec: ExecMode::default(),
            faults: None,
            budget: SimBudget::default(),
            cancel: None,
        }
    }
}

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// Payload (shared-ownership rope; delivery never copies bytes).
    pub data: Payload,
    /// Virtual time the message reached the receiver's node.
    pub arrival: Time,
    /// How long the receiver sat blocked waiting for it (0 if it was
    /// already in the mailbox).
    pub waited_ns: Time,
}

/// Diagnostic snapshot produced when the simulation deadlocks
/// (every live rank blocked in `recv` with no matching message).
#[derive(Debug, Clone)]
pub struct DeadlockInfo {
    /// Per-rank one-line state descriptions.
    pub states: Vec<String>,
    /// What the run cost the kernel up to the deadlock.
    pub counters: KernelCounters,
}

// ---------------------------------------------------------------------
// Trap / grant protocol between rank threads and the kernel
// (threaded executor only).
// ---------------------------------------------------------------------

pub(crate) enum Trap {
    Send {
        dst: usize,
        tag: Tag,
        data: Payload,
    },
    /// Vectored multi-port issue: all members share one α_send charge
    /// and become network-ready at the same instant, so the network
    /// arbitrates them across the node's free port slots (ascending,
    /// in declared order) instead of serializing through slot 0.
    SendBatch {
        msgs: Vec<(usize, Tag, Payload)>,
    },
    Recv {
        src: Option<usize>,
        tag: Option<Tag>,
        /// Virtual-time deadline: when no matching message can be
        /// delivered by this instant the receive gives up (the
        /// `recv_timeout` primitive). `None` blocks forever.
        deadline: Option<Time>,
    },
    ComputeNs {
        ns: Time,
    },
    Memcpy {
        bytes: usize,
    },
    Barrier,
    /// Iteration boundary marker; costs zero virtual time.
    IterMark,
    Finished,
}

enum Grant {
    Sent { clock: Time },
    Received { env: Envelope, clock: Time },
    TimedOut { clock: Time },
    Done { clock: Time },
}

/// How a [`RankCtx`] reaches the kernel.
enum Link {
    /// Channel round-trips to a kernel on another thread.
    Threaded {
        to_kernel: Sender<Trap>,
        from_kernel: Receiver<Grant>,
    },
    /// Shared cell with the cooperative executor on the same thread.
    /// Sends/compute/memcpy are handled rank-locally against the cell
    /// (deferred ops + local clock); only recv/barrier suspend. The cell
    /// is a plain `Rc<RefCell<_>>`: everything cooperative runs on one
    /// thread, so the hot path pays two pointer checks per op instead of
    /// an atomic lock/unlock pair.
    Coop {
        cell: Rc<RefCell<CoopCell>>,
        alpha_send: Time,
        params: MachineParams,
    },
}

/// The per-rank handle user programs communicate through.
///
/// Obtained only inside [`simulate`]; every method advances this rank's
/// virtual clock. `recv` and `barrier` are `await`ed; everything else is
/// synchronous.
pub struct RankCtx {
    rank: usize,
    size: usize,
    clock: Time, // threaded-mode mirror; cooperative mode reads the cell
    recording: bool,
    ports: usize,
    link: Link,
}

impl RankCtx {
    pub(crate) fn new_coop(
        rank: usize,
        size: usize,
        recording: bool,
        cell: Rc<RefCell<CoopCell>>,
        alpha_send: Time,
        params: MachineParams,
    ) -> Self {
        let ports = params.ports_per_node;
        RankCtx {
            rank,
            size,
            clock: 0,
            recording,
            ports,
            link: Link::Coop {
                cell,
                alpha_send,
                params,
            },
        }
    }

    /// This rank's id, `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the simulation.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Independent injection/ejection port slots per node on the machine
    /// this rank runs on — the `k` the k-ported algorithm family stripes
    /// its [`send_batch`](Self::send_batch) lanes across.
    #[inline]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// This rank's virtual clock (ns).
    #[inline]
    pub fn clock(&self) -> Time {
        match &self.link {
            Link::Threaded { .. } => self.clock,
            Link::Coop { cell, .. } => cell.borrow().clock,
        }
    }

    fn call(&mut self, trap: Trap) -> Grant {
        let Link::Threaded {
            to_kernel,
            from_kernel,
        } = &self.link
        else {
            unreachable!("channel trap on the cooperative link")
        };
        // A closed channel means the kernel already aborted on some other
        // failure (deadlock, another rank's panic, a tripped watchdog).
        // Unwind with the quiet sentinel — `resume_unwind` skips the
        // panic hook — so this rank exits without a spurious secondary
        // report; its `catch_unwind` swallows the sentinel.
        if to_kernel.send(trap).is_err() {
            resume_unwind(Box::new(KernelGone));
        }
        let grant = match from_kernel.recv() {
            Ok(g) => g,
            Err(_) => resume_unwind(Box::new(KernelGone)),
        };
        self.clock = match &grant {
            Grant::Sent { clock }
            | Grant::Done { clock }
            | Grant::TimedOut { clock }
            | Grant::Received { clock, .. } => *clock,
        };
        grant
    }

    /// Asynchronous send: returns after the software startup cost; the
    /// transfer itself proceeds in the network model.
    ///
    /// Copies `data` once into shared storage. Prefer
    /// [`send_payload`](Self::send_payload) when the payload already
    /// lives in a [`Payload`] — that path moves pointers, not bytes.
    pub fn send(&mut self, dst: usize, tag: Tag, data: &[u8]) {
        self.send_payload(dst, tag, Payload::from_slice(data));
    }

    /// Asynchronous send of a shared-ownership payload. The virtual-time
    /// cost model is identical to [`send`](Self::send) (it depends only
    /// on the byte length); no host-side copy is made.
    pub fn send_payload(&mut self, dst: usize, tag: Tag, data: impl Into<Payload>) {
        assert!(dst < self.size, "send to rank {dst} out of range");
        let data = data.into();
        if let Link::Coop {
            cell, alpha_send, ..
        } = &self.link
        {
            // Rank-local: charge the startup cost and defer the transfer.
            // The executor processes deferred sends in global
            // (issue clock, rank) order, so network state, sequence
            // numbers and mailbox contents match the threaded kernel.
            let mut c = cell.borrow_mut();
            let eff = c.clock;
            c.ops.push_back(CoopOp::Send {
                dst,
                tag,
                data,
                eff,
            });
            c.clock = eff + *alpha_send;
            return;
        }
        match self.call(Trap::Send { dst, tag, data }) {
            Grant::Sent { .. } => {}
            _ => unreachable!("kernel protocol violation"),
        }
    }

    /// Vectored send: issue every `(dst, tag, payload)` member in one
    /// call, charging a *single* α_send for the whole batch. All members
    /// become network-ready at `clock + α_send` simultaneously, so on a
    /// multi-port machine they occupy distinct injection slots (assigned
    /// in declared order, ascending) and their wire times overlap.
    ///
    /// An empty batch is a no-op and costs nothing.
    pub fn send_batch(&mut self, msgs: Vec<(usize, Tag, Payload)>) {
        if msgs.is_empty() {
            return;
        }
        for (dst, _, _) in &msgs {
            assert!(*dst < self.size, "send to rank {dst} out of range");
        }
        if let Link::Coop {
            cell, alpha_send, ..
        } = &self.link
        {
            // Rank-local like a plain send: one deferred op, one α_send.
            // The executor expands the batch through the same
            // `KernelCore` entry point the threaded kernel uses.
            let mut c = cell.borrow_mut();
            let eff = c.clock;
            c.ops.push_back(CoopOp::SendBatch { msgs, eff });
            c.clock = eff + *alpha_send;
            return;
        }
        match self.call(Trap::SendBatch { msgs }) {
            Grant::Sent { .. } => {}
            _ => unreachable!("kernel protocol violation"),
        }
    }

    /// Blocking receive. `src`/`tag` of `None` match anything; among
    /// matching messages the earliest-arriving is delivered.
    pub fn recv(&mut self, src: Option<usize>, tag: Option<Tag>) -> RecvFuture<'_> {
        RecvFuture {
            ctx: self,
            src,
            tag,
            registered: false,
        }
    }

    /// Receive with a virtual-time deadline: resolves to the matched
    /// envelope, or to `None` once it is certain no matching message can
    /// be delivered by `clock() + timeout_ns` (giving up costs one
    /// α_recv, like a failed probe). The building block algorithms use
    /// to survive lossy fault plans — see `FaultPlan`.
    pub fn recv_timeout(
        &mut self,
        src: Option<usize>,
        tag: Option<Tag>,
        timeout_ns: Time,
    ) -> RecvTimeoutFuture<'_> {
        let deadline = self.clock().saturating_add(timeout_ns);
        RecvTimeoutFuture {
            ctx: self,
            src,
            tag,
            deadline,
            registered: false,
        }
    }

    /// Charge local computation time directly (ns).
    pub fn compute_ns(&mut self, ns: Time) {
        if let Link::Coop { cell, .. } = &self.link {
            // Rank-local: only this rank's clock moves; no kernel trip.
            cell.borrow_mut().clock += ns;
            return;
        }
        match self.call(Trap::ComputeNs { ns }) {
            Grant::Done { .. } => {}
            _ => unreachable!("kernel protocol violation"),
        }
    }

    /// Charge the machine's memory-copy cost for `bytes` bytes — used by
    /// algorithms when *combining* messages, which the paper identifies as
    /// a first-order cost on the T3D.
    pub fn charge_memcpy(&mut self, bytes: usize) {
        if let Link::Coop { cell, params, .. } = &self.link {
            cell.borrow_mut().clock += params.memcpy_ns(bytes);
            return;
        }
        match self.call(Trap::Memcpy { bytes }) {
            Grant::Done { .. } => {}
            _ => unreachable!("kernel protocol violation"),
        }
    }

    /// Global barrier, modelled as a dissemination barrier:
    /// `⌈log₂ p⌉ · (α_send + α_recv)` after the last rank arrives.
    pub fn barrier(&mut self) -> BarrierFuture<'_> {
        BarrierFuture {
            ctx: self,
            registered: false,
        }
    }

    /// Mark an iteration boundary for the schedule recorder (zero
    /// virtual-time cost). The runtime backends call it unconditionally
    /// from `next_iteration`; a cooperative run that does not record
    /// only counts it, rank-locally.
    pub fn iter_mark(&mut self) {
        if let Link::Coop { cell, .. } = &self.link {
            let mut c = cell.borrow_mut();
            if self.recording {
                let eff = c.clock;
                c.ops.push_back(CoopOp::IterMark { eff });
            } else {
                c.iter_marks += 1;
            }
            return;
        }
        match self.call(Trap::IterMark) {
            Grant::Done { .. } => {}
            _ => unreachable!("kernel protocol violation"),
        }
    }
}

/// Future returned by [`RankCtx::recv`].
///
/// Threaded link: the blocking trap/grant round-trip happens inside the
/// first poll (never pends). Cooperative link: the first poll registers
/// a `RecvWait` with the executor and pends; the executor re-polls after
/// depositing the matched envelope.
pub struct RecvFuture<'a> {
    ctx: &'a mut RankCtx,
    src: Option<usize>,
    tag: Option<Tag>,
    registered: bool,
}

impl Future for RecvFuture<'_> {
    type Output = Envelope;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Envelope> {
        let this = self.get_mut();
        if let Link::Coop { cell, .. } = &this.ctx.link {
            let mut c = cell.borrow_mut();
            if !this.registered {
                this.registered = true;
                c.ops.push_back(CoopOp::RecvWait {
                    src: this.src,
                    tag: this.tag,
                    deadline: None,
                });
                return Poll::Pending;
            }
            return match c.grant.take() {
                Some(CoopGrant::Received(env)) => Poll::Ready(env),
                Some(_) => unreachable!("mismatched cooperative grant"),
                None => Poll::Pending,
            };
        }
        let (src, tag) = (this.src, this.tag);
        match this.ctx.call(Trap::Recv {
            src,
            tag,
            deadline: None,
        }) {
            Grant::Received { env, .. } => Poll::Ready(env),
            _ => unreachable!("kernel protocol violation"),
        }
    }
}

/// Future returned by [`RankCtx::recv_timeout`]; suspension protocol as
/// in [`RecvFuture`], resolving to `None` on deadline expiry.
pub struct RecvTimeoutFuture<'a> {
    ctx: &'a mut RankCtx,
    src: Option<usize>,
    tag: Option<Tag>,
    deadline: Time,
    registered: bool,
}

impl Future for RecvTimeoutFuture<'_> {
    type Output = Option<Envelope>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Option<Envelope>> {
        let this = self.get_mut();
        if let Link::Coop { cell, .. } = &this.ctx.link {
            let mut c = cell.borrow_mut();
            if !this.registered {
                this.registered = true;
                c.ops.push_back(CoopOp::RecvWait {
                    src: this.src,
                    tag: this.tag,
                    deadline: Some(this.deadline),
                });
                return Poll::Pending;
            }
            return match c.grant.take() {
                Some(CoopGrant::Received(env)) => Poll::Ready(Some(env)),
                Some(CoopGrant::TimedOut) => Poll::Ready(None),
                Some(CoopGrant::Done) => unreachable!("mismatched cooperative grant"),
                None => Poll::Pending,
            };
        }
        let (src, tag, deadline) = (this.src, this.tag, this.deadline);
        match this.ctx.call(Trap::Recv {
            src,
            tag,
            deadline: Some(deadline),
        }) {
            Grant::Received { env, .. } => Poll::Ready(Some(env)),
            Grant::TimedOut { .. } => Poll::Ready(None),
            _ => unreachable!("kernel protocol violation"),
        }
    }
}

/// Future returned by [`RankCtx::barrier`]; see [`RecvFuture`] for the
/// suspension protocol.
pub struct BarrierFuture<'a> {
    ctx: &'a mut RankCtx,
    registered: bool,
}

impl Future for BarrierFuture<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if let Link::Coop { cell, .. } = &this.ctx.link {
            let mut c = cell.borrow_mut();
            if !this.registered {
                this.registered = true;
                c.ops.push_back(CoopOp::BarrierWait);
                return Poll::Pending;
            }
            return match c.grant.take() {
                Some(CoopGrant::Done) => Poll::Ready(()),
                Some(_) => unreachable!("mismatched cooperative grant"),
                None => Poll::Pending,
            };
        }
        match this.ctx.call(Trap::Barrier) {
            Grant::Done { .. } => Poll::Ready(()),
            _ => unreachable!("kernel protocol violation"),
        }
    }
}

/// Drive a future that never pends to completion (the threaded
/// executor's rank programs, whose comm operations block their thread).
fn block_on_ready<Fut: Future>(fut: Fut) -> Fut::Output {
    let mut fut = std::pin::pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(v) => v,
        Poll::Pending => {
            panic!("threaded rank future suspended; only cooperative runs may pend")
        }
    }
}

/// Result of a completed simulation.
#[derive(Debug)]
pub struct SimOutcome<R> {
    /// Per-rank return values of the program.
    pub results: Vec<R>,
    /// Per-rank virtual finish times (ns).
    pub finish_ns: Vec<Time>,
    /// `max(finish_ns)` — the figure-of-merit reported in the paper (ns).
    pub makespan_ns: Time,
    /// Number of transfers that stalled on a busy link or port.
    pub contention_events: u64,
    /// Total stall time across all transfers (ns).
    pub contention_ns: Time,
    /// Per-rank fault counters (all zero without a fault plan).
    pub fault_stats: Vec<FaultStats>,
    /// What the run cost the kernel, in counts.
    pub counters: KernelCounters,
}

/// Host-independent counts of the kernel's own work in one run — the
/// column that tells an algorithm which floods the kernel from one that
/// is merely slow. Identical across executors. Recorded or not, each
/// count from `sends` on equals the length of its [`EventLog`] array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Kernel events processed: sends, receive matches, timeout
    /// expiries, finishes, and iteration marks when recording.
    pub events: u64,
    /// Most messages sent but not yet received, over all ranks at once.
    pub peak_in_flight: usize,
    /// Ranks whose mailbox outgrew the sorted-vector form.
    pub mailbox_spills: usize,
    /// Logical messages handed to the network.
    pub sends: u64,
    /// Messages delivered into a mailbox.
    pub xfers: u64,
    /// Receives that matched a message.
    pub recvs: u64,
    /// Iteration boundaries (`next_iteration` calls) over all ranks.
    pub iter_ends: u64,
    /// Transmission attempts lost to the fault plan.
    pub drops: u64,
    /// Rank programs that returned.
    pub finishes: u64,
}

impl KernelCounters {
    /// Events a recording holds, short of a deadlock's `blocked` ones.
    pub fn schedule_events(&self) -> u64 {
        self.sends + self.xfers + self.recvs + self.iter_ends + self.drops + self.finishes
    }
}

/// Per-rank fault-plane counters, accumulated at the sender.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transmission attempts lost to the fault plan and retried.
    pub retransmits: u64,
    /// Messages lost for good (every attempt dropped or unroutable).
    pub dropped: u64,
    /// Extra hops taken by detours around dead links.
    pub rerouted_hops: u64,
    /// Extra head-latency cost of those detour hops (ns).
    pub detour_ns: Time,
}

impl<R> SimOutcome<R> {
    /// Makespan in milliseconds (the unit the paper plots).
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ns as f64 / 1e6
    }
}

/// Run `program` on every rank of `machine` with default config (NX).
///
/// ```
/// use mpp_model::Machine;
/// let machine = Machine::paragon(1, 2);
/// let out = mpp_sim::simulate(&machine, |mut ctx| async move {
///     if ctx.rank() == 0 {
///         ctx.send(1, 0, b"ping");
///         0
///     } else {
///         ctx.recv(Some(0), Some(0)).await.data.len()
///     }
/// });
/// assert_eq!(out.results, vec![0, 4]);
/// assert!(out.makespan_ns > 0);
/// ```
pub fn simulate<R, F, Fut>(machine: &Machine, program: F) -> SimOutcome<R>
where
    R: Send,
    F: Fn(RankCtx) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    simulate_with(machine, &SimConfig::default(), program)
}

/// Run `program` on every rank of `machine` under the given config.
///
/// # Panics
///
/// This is the thin panicking shim over [`try_simulate_with`] for
/// callers who treat any [`SimError`] as fatal: it panics with the
/// error's `Display` form (a [`DeadlockInfo`] dump on deadlock, the
/// captured panic message on a rank panic, and so on). Library code
/// that must survive bad runs calls [`try_simulate_with`] instead.
pub fn simulate_with<R, F, Fut>(machine: &Machine, config: &SimConfig, program: F) -> SimOutcome<R>
where
    R: Send,
    F: Fn(RankCtx) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    try_simulate_with(machine, config, program).unwrap_or_else(|e| panic!("{e}"))
}

/// Run `program` on every rank of `machine` under the given config.
///
/// Abnormal terminations — deadlock, a panicking rank program, watchdog
/// budget trips, wall-clock deadlines, cancellation, strict-check
/// violations — return `Err(SimError)` with the kernel shut down
/// cleanly (all rank threads joined, the schedule recorder flushed).
/// The process never aborts through this entry point.
pub fn try_simulate_with<R, F, Fut>(
    machine: &Machine,
    config: &SimConfig,
    program: F,
) -> Result<SimOutcome<R>, SimError>
where
    R: Send,
    F: Fn(RankCtx) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    match config.exec {
        ExecMode::Cooperative => try_simulate_coop(machine, config, &program),
        ExecMode::Threaded => try_simulate_threaded(machine, config, &program),
    }
}

fn try_simulate_threaded<R, F, Fut>(
    machine: &Machine,
    config: &SimConfig,
    program: &F,
) -> Result<SimOutcome<R>, SimError>
where
    R: Send,
    F: Fn(RankCtx) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    let p = machine.p();
    assert!(p > 0);

    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..p).map(|_| None).collect());
    // One slot per rank for the captured panic message of a rank program
    // that died. A rank writes its slot *before* dropping its trap
    // sender, so by the time the kernel observes the channel disconnect
    // the message is there to read.
    let panic_slots: Vec<Mutex<Option<String>>> = (0..p).map(|_| Mutex::new(None)).collect();
    let mut finish_ns = vec![0; p];
    let core;

    {
        // Channel plumbing: one trap channel and one grant channel per rank.
        let mut trap_rxs = Vec::with_capacity(p);
        let mut grant_txs = Vec::with_capacity(p);
        let mut rank_ends = Vec::with_capacity(p);
        for rank in 0..p {
            let (trap_tx, trap_rx) = channel::<Trap>();
            let (grant_tx, grant_rx) = channel::<Grant>();
            trap_rxs.push(trap_rx);
            grant_txs.push(Some(grant_tx));
            rank_ends.push(Some((rank, trap_tx, grant_rx)));
        }

        let results = &results;
        let panic_slots = &panic_slots;
        let kernel_out = std::thread::scope(|scope| {
            for end in rank_ends.iter_mut() {
                let (rank, trap_tx, grant_rx) = end.take().unwrap();
                let recording = config.recorder.is_some();
                let ports = machine.params.ports_per_node;
                let builder = std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(config.stack_size);
                builder
                    .spawn_scoped(scope, move || {
                        let finish_tx = trap_tx.clone();
                        let ctx = RankCtx {
                            rank,
                            size: p,
                            clock: 0,
                            recording,
                            ports,
                            link: Link::Threaded {
                                to_kernel: trap_tx,
                                from_kernel: grant_rx,
                            },
                        };
                        match catch_unwind(AssertUnwindSafe(|| block_on_ready(program(ctx)))) {
                            Ok(out) => {
                                results.lock().unwrap_or_else(PoisonError::into_inner)[rank] =
                                    Some(out);
                                // Ignore send failure: the kernel may
                                // already have aborted on another rank.
                                let _ = finish_tx.send(Trap::Finished);
                            }
                            Err(payload) => {
                                // A KernelGone sentinel means the kernel
                                // aborted first and this rank is merely
                                // being torn down — not a rank failure.
                                if !payload.is::<KernelGone>() {
                                    *panic_slots[rank]
                                        .lock()
                                        .unwrap_or_else(PoisonError::into_inner) =
                                        Some(panic_message(&*payload));
                                }
                                // `finish_tx` (the last trap sender; the
                                // future holding `ctx` dropped during the
                                // unwind) drops here, after the slot
                                // write, disconnecting the kernel.
                            }
                        }
                    })
                    .expect("failed to spawn rank thread");
            }

            run_kernel(
                machine,
                config,
                &trap_rxs,
                &mut grant_txs,
                &mut finish_ns,
                panic_slots,
            )
        });
        core = kernel_out?;
    }

    let results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    Ok(core.finish(results, finish_ns))
}

// ---------------------------------------------------------------------
// KernelCore: the executor-independent half of the kernel.
// ---------------------------------------------------------------------

/// Shared simulation state and event processing. Both executors route
/// every globally visible effect (network transfers, sequence numbers,
/// mailbox inserts, schedule events, strict checks) through
/// these methods in the same global order, which is what makes their
/// outcomes bit-identical.
pub(crate) struct KernelCore<'m> {
    machine: &'m Machine,
    lib: LibraryKind,
    pub alpha_send: Time,
    pub alpha_recv: Time,
    strict: bool,
    recording: bool,
    recorder: Option<ScheduleLog>,
    net: NetworkState,
    mailboxes: Vec<Mailbox>,
    /// Messages in the mailboxes now.
    in_flight: usize,
    seq: u64,
    steps: Vec<u32>,
    events: EventLog,
    /// Scratch route reused across every transmit — the per-message
    /// route `Vec` allocation was a top allocator hit in the hot path.
    route_buf: Vec<mpp_model::Link>,
    /// Active fault plan; inert plans are normalized away so the
    /// fault-free fast path stays branch-one-deep.
    faults: Option<FaultPlan>,
    fault_stats: Vec<FaultStats>,
    /// The run's counts so far (`events` is what the watchdog's budget
    /// is charged against); the cooperative executor adds its rank-local
    /// iteration marks before [`finish`](KernelCore::finish).
    pub counters: KernelCounters,
}

impl<'m> KernelCore<'m> {
    pub fn new(machine: &'m Machine, config: &SimConfig) -> Self {
        let p = machine.p();
        let mut net = NetworkState::new(machine);
        let mut events = EventLog::default();
        if config.recorder.is_some() {
            // Recording runs capture the network's full reservation
            // record per transfer — the cost-model conformance ground
            // truth — into the arrays the last log on this thread left.
            events = EventLog::recycled();
            net.witness_on = true;
            net.witness.windows = std::mem::take(&mut events.windows);
        }
        KernelCore {
            machine,
            lib: config.lib,
            alpha_send: machine.params.alpha_send(config.lib),
            alpha_recv: machine.params.alpha_recv(config.lib),
            strict: config.strict,
            recording: config.recorder.is_some(),
            recorder: config.recorder.clone(),
            net,
            mailboxes: (0..p).map(|_| Mailbox::default()).collect(),
            in_flight: 0,
            seq: 0,
            steps: vec![0; p],
            events,
            route_buf: Vec::new(),
            faults: config.faults.clone().filter(|plan| !plan.is_inert()),
            fault_stats: vec![FaultStats::default(); p],
            counters: KernelCounters::default(),
        }
    }

    /// Charge one event for a timeout expiry (which bypasses the
    /// `process_*` methods) so pure retry livelocks still make watchdog
    /// progress.
    pub fn note_timeout(&mut self) {
        self.counters.events += 1;
    }

    /// Earliest arrival among `rank`'s mailbox messages matching the
    /// filter, if any.
    pub fn peek_mailbox(&self, rank: usize, src: Option<usize>, tag: Option<Tag>) -> Option<Time> {
        self.mailboxes[rank].peek_match(src, tag).map(|(a, _)| a)
    }

    pub fn mailbox_len(&self, rank: usize) -> usize {
        self.mailboxes[rank].len()
    }

    /// Process a send issued at `clock_at_issue`; returns the sender's
    /// post-send clock (`clock_at_issue + α_send`).
    pub fn process_send(
        &mut self,
        src_rank: usize,
        dst: usize,
        tag: Tag,
        data: Payload,
        clock_at_issue: Time,
    ) -> Time {
        self.counters.events += 1;
        self.counters.sends += 1;
        let ready = clock_at_issue + self.alpha_send;
        let bytes = data.len();
        let wire_ns = self.machine.params.serialize_ns_lib(bytes, self.lib);
        self.seq += 1;
        let seq = self.seq;
        if self.recording {
            // One Send event per *logical* message, whatever the network
            // does to its transmission attempts.
            self.events.order.push(EventKind::Send);
            self.events.sends.push(SendEvent {
                step: self.steps[src_rank],
                seq,
                src: src_rank,
                dst,
                tag,
                data: data.clone(),
                issue_ns: clock_at_issue,
            });
        }
        if let Some(arrival) = self.transmit(src_rank, dst, seq, bytes, wire_ns, ready) {
            self.counters.xfers += 1;
            if self.recording {
                // The network's reservation record for this delivery —
                // local memcpys reserve nothing, routed transfers read
                // the witness filled by `transfer_routed`, whose windows
                // already sit at the tail of the flat window array.
                let w = &self.net.witness;
                let mut xfer = XferEvent {
                    seq,
                    src: src_rank,
                    dst,
                    bytes,
                    ready_ns: ready,
                    start_ns: ready,
                    done_ns: arrival,
                    stall_ns: 0,
                    out_slot: None,
                    in_slot: None,
                    win_off: 0,
                    win_len: 0,
                };
                if src_rank != dst {
                    xfer.ready_ns = w.ready_ns;
                    xfer.start_ns = w.start_ns;
                    xfer.done_ns = w.done_ns;
                    xfer.stall_ns = self.net.last_stall_ns;
                    xfer.out_slot = Some(w.out_slot as u32);
                    xfer.in_slot = Some(w.in_slot as u32);
                    xfer.win_off =
                        u32::try_from(w.first_window).expect("more than 2^32 link windows");
                    xfer.win_len = (w.windows.len() - w.first_window) as u32;
                }
                self.events.order.push(EventKind::Xfer);
                self.events.xfers.push(xfer);
            }
            self.mailboxes[dst].insert(MsgRec {
                arrival,
                seq,
                src: src_rank,
                tag,
                data,
            });
            self.in_flight += 1;
            self.counters.peak_in_flight = self.counters.peak_in_flight.max(self.in_flight);
        }
        // A lost message (every attempt dropped) never reaches a
        // mailbox; the sender still only pays α_send.
        ready
    }

    /// Process a vectored send batch issued at `clock_at_issue`: every
    /// member is a full logical message (own seq, own Send/Xfer events,
    /// own fault decisions), but the whole batch shares one α_send —
    /// each member's network-ready instant is `clock_at_issue + α_send`,
    /// so the port arbiter hands members distinct free injection slots
    /// in declared order. Returns the sender's post-batch clock
    /// (`clock_at_issue + α_send`, exactly one startup charge).
    pub fn process_send_batch(
        &mut self,
        src_rank: usize,
        msgs: Vec<(usize, Tag, Payload)>,
        clock_at_issue: Time,
    ) -> Time {
        debug_assert!(!msgs.is_empty(), "empty batches are filtered at issue");
        let mut ready = clock_at_issue + self.alpha_send;
        for (dst, tag, data) in msgs {
            // Same issue clock for every member ⇒ `process_send`
            // computes the identical ready instant each time; the only
            // per-member state that advances is the network reservation.
            ready = self.process_send(src_rank, dst, tag, data, clock_at_issue);
        }
        ready
    }

    /// Push one logical message through the (possibly faulty) network;
    /// `Some(arrival)` on success, `None` when every transmission
    /// attempt was dropped or unroutable.
    ///
    /// Fault decisions are pure hashes of `(plan seed, seq, attempt)`
    /// and outage windows are functions of the injection instant, so the
    /// result depends only on this call's arguments and the network
    /// state — identical across executors, which process sends in the
    /// same global order.
    fn transmit(
        &mut self,
        src_rank: usize,
        dst: usize,
        seq: u64,
        bytes: usize,
        wire_ns: Time,
        ready: Time,
    ) -> Option<Time> {
        let machine = self.machine;
        if src_rank == dst {
            // Local delivery is a memcpy; the fault plane models the
            // network and cannot lose it.
            self.net.last_stall_ns = 0;
            return Some(ready + machine.params.memcpy_ns(bytes));
        }
        let u = machine.node_of(src_rank);
        let v = machine.node_of(dst);
        let Some(plan) = self.faults.as_ref() else {
            machine.topology.route_into(u, v, &mut self.route_buf);
            return Some(self.net.transfer_routed(
                machine,
                src_rank,
                dst,
                bytes,
                wire_ns,
                ready,
                &self.route_buf,
            ));
        };
        let base_hops = machine.topology.distance(u, v);
        let max_attempts = plan.retry.max_attempts.max(1);
        for attempt in 0..max_attempts {
            // Attempt k is injected after the retry backoff plus any
            // fault-plan injection delay — all exact virtual time.
            let inject = ready
                .saturating_add(plan.retry.delay_for(attempt))
                .saturating_add(plan.injection_delay_ns(seq, attempt));
            // The structural-fault detour search still builds its own
            // route (cold path); the plain faulted path reuses the
            // scratch buffer like the fault-free one.
            let detour = if plan.has_structural_faults() {
                let dead = plan.dead_links_at(inject, &machine.topology);
                Some(machine.topology.route_avoiding(u, v, &dead))
            } else {
                machine.topology.route_into(u, v, &mut self.route_buf);
                None
            };
            let route: Option<&[mpp_model::Link]> = match &detour {
                Some(Some(r)) => Some(r),
                Some(None) => None, // no live route this attempt
                None => Some(&self.route_buf),
            };
            if !plan.should_drop(seq, attempt) {
                if let Some(route) = route {
                    if route.len() > base_hops {
                        let stats = &mut self.fault_stats[src_rank];
                        stats.rerouted_hops += (route.len() - base_hops) as u64;
                        stats.detour_ns +=
                            machine.params.hops_ns(route.len()) - machine.params.hops_ns(base_hops);
                    }
                    return Some(
                        self.net
                            .transfer_routed(machine, src_rank, dst, bytes, wire_ns, inject, route),
                    );
                }
            }
            // This attempt is lost (dropped in flight, or no live route
            // existed); a dropped attempt reserves no network resources.
            let exhausted = attempt + 1 >= max_attempts;
            if exhausted {
                self.fault_stats[src_rank].dropped += 1;
            } else {
                self.fault_stats[src_rank].retransmits += 1;
            }
            self.counters.drops += 1;
            if self.recording {
                self.events.order.push(EventKind::Dropped);
                self.events.drops.push(DropEvent {
                    seq,
                    src: src_rank,
                    dst,
                    attempt,
                    exhausted,
                });
            }
        }
        self.net.last_stall_ns = 0;
        None
    }

    /// Process a receive selected by the scheduler (a match must exist).
    /// Returns the envelope and the receiver's new clock, or the strict
    /// diagnostic when the match was ambiguous.
    pub fn process_recv(
        &mut self,
        rank: usize,
        src: Option<usize>,
        tag: Option<Tag>,
        clock: Time,
    ) -> Result<(Envelope, Time), String> {
        self.counters.events += 1;
        self.counters.recvs += 1;
        let rec = self.mailboxes[rank]
            .take_match(src, tag)
            .expect("selected recv without match");
        self.in_flight -= 1;
        if self.recording || self.strict {
            // Duplicates left behind share the matched (src, tag):
            // delivery order alone decided which one this receive
            // consumed — the match-ambiguity hazard.
            let dup = self.mailboxes[rank].count_src_tag(rec.src, rec.tag) + 1;
            if self.recording {
                self.events.order.push(EventKind::Recv);
                self.events.recvs.push(RecvEvent {
                    step: self.steps[rank],
                    rank,
                    src_filter: src,
                    tag_filter: tag,
                    seq: rec.seq,
                    src: rec.src,
                    tag: rec.tag,
                    dup_in_flight: dup,
                    start_ns: clock,
                    arrival_ns: rec.arrival,
                });
            }
            if self.strict && dup > 1 {
                return Err(format!(
                    "ambiguous receive at rank {rank}: {dup} in-flight messages \
                     with (src={}, tag={}) — delivery depends on queue order",
                    rec.src, rec.tag
                ));
            }
        }
        let arrival = rec.arrival;
        let waited_ns = arrival.saturating_sub(clock);
        let new_clock = clock.max(arrival) + self.alpha_recv;
        Ok((
            Envelope {
                src: rec.src,
                tag: rec.tag,
                data: rec.data,
                arrival,
                waited_ns,
            },
            new_clock,
        ))
    }

    /// An iteration boundary. Only a recording run charges it as a
    /// kernel event (the cooperative executor counts the rest
    /// rank-locally, without a trip through the kernel).
    pub fn process_iter_mark(&mut self, rank: usize) {
        self.counters.iter_ends += 1;
        if self.recording {
            self.counters.events += 1;
            self.steps[rank] += 1;
            self.events.order.push(EventKind::IterEnd);
            self.events.iter_ends.push(rank);
        }
    }

    /// Process a rank's termination at its final clock `finish_ns`;
    /// `Err` carries the strict leftover diagnostic.
    pub fn process_finish(&mut self, rank: usize, finish_ns: Time) -> Result<(), String> {
        self.counters.events += 1;
        self.counters.finishes += 1;
        let leftover = self.mailboxes[rank].len();
        if self.recording {
            self.events.order.push(EventKind::Finished);
            self.events.finishes.push(FinishEvent {
                rank,
                leftover,
                finish_ns,
            });
        }
        if self.strict && leftover > 0 {
            return Err(format!(
                "rank {rank} finished with {leftover} undelivered message(s) \
                 in its mailbox — unmatched send(s)"
            ));
        }
        Ok(())
    }

    /// Barrier exit time: dissemination rounds after the last arrival.
    pub fn barrier_release_time(&self, t_max: Time, live: usize) -> Time {
        let rounds = usize::BITS - (live.max(2) - 1).leading_zeros();
        t_max + rounds as Time * (self.alpha_send + self.alpha_recv)
    }

    /// Record a rank stuck in `recv` at deadlock time.
    pub fn record_blocked(&mut self, rank: usize, src: Option<usize>, tag: Option<Tag>) {
        self.events.order.push(EventKind::Blocked);
        self.events.blocked.push(BlockedEvent {
            rank,
            src_filter: src,
            tag_filter: tag,
        });
    }

    /// Move the accumulated schedule log (events plus the network's flat
    /// window array) into the configured recorder, if any. Nothing is
    /// copied; a kernel flushes once, from its normal or its abort path.
    pub fn flush_recording(&mut self, deadlocked: bool) {
        if let Some(log) = &self.recorder {
            let mut rec = log.lock().expect("schedule log poisoned");
            rec.events = std::mem::take(&mut self.events);
            rec.events.windows = std::mem::take(&mut self.net.witness.windows);
            rec.deadlocked |= deadlocked;
        }
    }

    pub fn memcpy_ns(&self, bytes: usize) -> Time {
        self.machine.params.memcpy_ns(bytes)
    }

    /// The run's counts so far.
    pub fn counters(&self) -> KernelCounters {
        KernelCounters {
            mailbox_spills: self.mailboxes.iter().filter(|mb| mb.spilled()).count(),
            ..self.counters
        }
    }

    /// Close a run that completed normally: hand the recording to its
    /// recorder and assemble the outcome from the per-rank results.
    pub fn finish<R>(mut self, results: Vec<Option<R>>, finish_ns: Vec<Time>) -> SimOutcome<R> {
        self.flush_recording(false);
        let counters = self.counters();
        let results = results
            .into_iter()
            .enumerate()
            .map(|(rank, r)| r.unwrap_or_else(|| panic!("rank {rank} produced no result")))
            .collect();
        SimOutcome {
            results,
            makespan_ns: finish_ns.iter().copied().max().unwrap_or(0),
            finish_ns,
            contention_events: self.net.contention_events,
            contention_ns: self.net.contention_ns,
            fault_stats: self.fault_stats,
            counters,
        }
    }
}

// ---------------------------------------------------------------------
// The threaded kernel loop (differential baseline).
// ---------------------------------------------------------------------

struct RankState {
    clock: Time,
    pending: Option<Trap>,
    done: bool,
    in_barrier: bool,
}

/// Effective time of a rank's pending trap, `None` when the rank is not
/// schedulable (blocked receive with no match and no deadline, or a
/// barrier trap, which only the classification pass may consume).
fn eff_of(core: &KernelCore, rank: usize, st: &RankState) -> Option<Time> {
    match st.pending.as_ref()? {
        Trap::Recv { src, tag, deadline } => {
            let match_eff = core.peek_mailbox(rank, *src, *tag).map(|a| st.clock.max(a));
            match (match_eff, deadline) {
                (Some(e), Some(d)) => Some(e.min(*d)),
                (Some(e), None) => Some(e),
                // No match yet, but the rank gives up at the deadline —
                // it stays schedulable.
                (None, Some(d)) => Some(*d),
                (None, None) => None, // blocked
            }
        }
        Trap::Barrier => None,
        _ => Some(st.clock),
    }
}

/// Grant `rank`'s pending (non-barrier) trap and pull its next one.
/// `Err` is an abnormal termination (strict violation or rank panic);
/// [`run_kernel`] owns the cleanup.
#[allow(clippy::too_many_arguments)]
fn dispatch_trap(
    core: &mut KernelCore,
    states: &mut [RankState],
    trap_rxs: &[Receiver<Trap>],
    grant_txs: &mut [Option<Sender<Grant>>],
    panic_slots: &[Mutex<Option<String>>],
    finish_ns: &mut [Time],
    live: &mut usize,
    rank: usize,
) -> Result<(), SimError> {
    let trap = states[rank].pending.take().unwrap();
    match trap {
        Trap::Send { dst, tag, data } => {
            let ready = core.process_send(rank, dst, tag, data, states[rank].clock);
            states[rank].clock = ready;
            send_grant(grant_txs, rank, Grant::Sent { clock: ready });
            states[rank].pending = Some(recv_trap(trap_rxs, panic_slots, rank)?);
        }
        Trap::SendBatch { msgs } => {
            let ready = core.process_send_batch(rank, msgs, states[rank].clock);
            states[rank].clock = ready;
            send_grant(grant_txs, rank, Grant::Sent { clock: ready });
            states[rank].pending = Some(recv_trap(trap_rxs, panic_slots, rank)?);
        }
        Trap::Recv { src, tag, deadline } => {
            // Deliver iff a match can complete by the deadline;
            // otherwise this was scheduled as a timeout expiry.
            let deliverable = core
                .peek_mailbox(rank, src, tag)
                .map(|a| states[rank].clock.max(a))
                .is_some_and(|e| deadline.is_none_or(|d| e <= d));
            if deliverable {
                let (env, clock) = core
                    .process_recv(rank, src, tag, states[rank].clock)
                    .map_err(SimError::StrictViolation)?;
                states[rank].clock = clock;
                send_grant(grant_txs, rank, Grant::Received { env, clock });
                states[rank].pending = Some(recv_trap(trap_rxs, panic_slots, rank)?);
            } else {
                let d = deadline.expect("scheduled recv without match or deadline");
                core.note_timeout();
                let clock = d + core.alpha_recv;
                states[rank].clock = clock;
                send_grant(grant_txs, rank, Grant::TimedOut { clock });
                states[rank].pending = Some(recv_trap(trap_rxs, panic_slots, rank)?);
            }
        }
        Trap::ComputeNs { ns } => {
            states[rank].clock += ns;
            let clock = states[rank].clock;
            send_grant(grant_txs, rank, Grant::Done { clock });
            states[rank].pending = Some(recv_trap(trap_rxs, panic_slots, rank)?);
        }
        Trap::Memcpy { bytes } => {
            states[rank].clock += core.memcpy_ns(bytes);
            let clock = states[rank].clock;
            send_grant(grant_txs, rank, Grant::Done { clock });
            states[rank].pending = Some(recv_trap(trap_rxs, panic_slots, rank)?);
        }
        Trap::Barrier => unreachable!("barrier traps handled by the classification pass"),
        Trap::IterMark => {
            core.process_iter_mark(rank);
            let clock = states[rank].clock;
            send_grant(grant_txs, rank, Grant::Done { clock });
            states[rank].pending = Some(recv_trap(trap_rxs, panic_slots, rank)?);
        }
        Trap::Finished => {
            core.process_finish(rank, states[rank].clock)
                .map_err(SimError::StrictViolation)?;
            states[rank].done = true;
            finish_ns[rank] = states[rank].clock;
            grant_txs[rank] = None;
            *live -= 1;
        }
    }
    Ok(())
}

/// The threaded kernel proper. Runs on the calling thread while rank
/// threads wait. Returns the core of the completed run, or the
/// `SimError` describing an abnormal termination — in which case every
/// grant sender has been dropped, so blocked rank threads unwind with
/// the quiet `KernelGone` sentinel and the enclosing `thread::scope`
/// joins them before the error propagates.
fn run_kernel<'m>(
    machine: &'m Machine,
    config: &SimConfig,
    trap_rxs: &[Receiver<Trap>],
    grant_txs: &mut [Option<Sender<Grant>>],
    finish_ns: &mut [Time],
    panic_slots: &[Mutex<Option<String>>],
) -> Result<KernelCore<'m>, SimError> {
    let mut core = KernelCore::new(machine, config);
    match kernel_loop(
        machine,
        config,
        &mut core,
        trap_rxs,
        grant_txs,
        finish_ns,
        panic_slots,
    ) {
        Ok(()) => Ok(core),
        Err(e) => {
            core.flush_recording(matches!(e, SimError::Deadlock { .. }));
            for tx in grant_txs.iter_mut() {
                *tx = None;
            }
            Err(e)
        }
    }
}

/// The scheduling loop of the threaded kernel; every abnormal exit
/// bubbles out as `Err` for [`run_kernel`] to clean up after.
#[allow(clippy::too_many_arguments)]
fn kernel_loop(
    machine: &Machine,
    config: &SimConfig,
    core: &mut KernelCore,
    trap_rxs: &[Receiver<Trap>],
    grant_txs: &mut [Option<Sender<Grant>>],
    finish_ns: &mut [Time],
    panic_slots: &[Mutex<Option<String>>],
) -> Result<(), SimError> {
    let p = machine.p();
    let mut states: Vec<RankState> = (0..p)
        .map(|_| RankState {
            clock: 0,
            pending: None,
            done: false,
            in_barrier: false,
        })
        .collect();
    let mut live = p;
    let mut watchdog = Watchdog::for_run(&config.budget, &config.cancel);

    // Collect the initial trap from every rank (threads run concurrently
    // up to their first communication call — zero virtual time).
    for (rank, st) in states.iter_mut().enumerate() {
        st.pending = Some(recv_trap(trap_rxs, panic_slots, rank)?);
    }

    while live > 0 {
        // Classify pending barrier traps.
        for st in states.iter_mut() {
            if !st.done && matches!(st.pending, Some(Trap::Barrier)) {
                st.in_barrier = true;
            }
        }

        // Barrier release: every live rank has arrived.
        let in_barrier = states.iter().filter(|s| !s.done && s.in_barrier).count();
        if in_barrier == live && live > 0 {
            let t_max = states
                .iter()
                .filter(|s| !s.done)
                .map(|s| s.clock)
                .max()
                .unwrap();
            let t_rel = core.barrier_release_time(t_max, live);
            for (rank, st) in states.iter_mut().enumerate() {
                if st.done {
                    continue;
                }
                st.clock = t_rel;
                st.in_barrier = false;
                st.pending = None;
                send_grant(grant_txs, rank, Grant::Done { clock: t_rel });
            }
            for (rank, st) in states.iter_mut().enumerate() {
                if !st.done {
                    st.pending = Some(recv_trap(trap_rxs, panic_slots, rank)?);
                }
            }
            continue;
        }

        // Pick the processable rank with the smallest effective time.
        let mut best: Option<(Time, usize)> = None;
        for (rank, st) in states.iter().enumerate() {
            if st.done || st.in_barrier {
                continue;
            }
            let Some(eff) = eff_of(core, rank, st) else {
                continue; // blocked recv (or a barrier not yet classified)
            };
            if best.is_none_or(|(bt, br)| (eff, rank) < (bt, br)) {
                best = Some((eff, rank));
            }
        }

        let Some((t, first)) = best else {
            let info = DeadlockInfo {
                states: describe_ranks(core, &states),
                counters: core.counters(),
            };
            return Err(SimError::Deadlock {
                machine: machine.name.to_string(),
                info,
            });
        };

        if let Some(wd) = watchdog.as_mut() {
            if let Err(trip) = wd.check(core.counters.events, t) {
                return Err(trip_error(trip, core, &states));
            }
        }

        if core.alpha_send > 0 {
            // Batched same-tick grant pass: every rank whose effective
            // time equals `t` is granted in one sweep, ascending by rank,
            // without re-scanning all p ranks between grants. This visits
            // traps in exactly the `(eff, rank)` order the re-scanning
            // loop would: with α_send > 0 a grant at `t` can only create
            // work strictly after `t` for *other* ranks (anything it
            // sends arrives later), and ranks consume only their own
            // mailboxes, so batch membership is stable; a rank's *own*
            // zero-cost follow-up (e.g. an iteration mark) at `t` has
            // this rank's index and is drained before moving on.
            for rank in first..p {
                loop {
                    let st = &states[rank];
                    if st.done || st.in_barrier {
                        break;
                    }
                    match eff_of(core, rank, st) {
                        Some(eff) if eff == t => {}
                        _ => break,
                    }
                    dispatch_trap(
                        core,
                        &mut states,
                        trap_rxs,
                        grant_txs,
                        panic_slots,
                        finish_ns,
                        &mut live,
                        rank,
                    )?;
                }
            }
        } else {
            // Degenerate zero-α machine: a send may arrive at its issue
            // instant and re-ready an already-visited rank at `t`, so
            // grant strictly one trap per scan.
            dispatch_trap(
                core,
                &mut states,
                trap_rxs,
                grant_txs,
                panic_slots,
                finish_ns,
                &mut live,
                first,
            )?;
        }
    }

    Ok(())
}

/// Pull `rank`'s next trap; a disconnected trap channel means the rank
/// thread panicked (it writes its panic message to `panic_slots[rank]`
/// before dropping the last sender).
fn recv_trap(
    trap_rxs: &[Receiver<Trap>],
    panic_slots: &[Mutex<Option<String>>],
    rank: usize,
) -> Result<Trap, SimError> {
    match trap_rxs[rank].recv() {
        Ok(t) => Ok(t),
        Err(_) => {
            let message = panic_slots[rank]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .unwrap_or_else(|| "<rank thread exited without a panic message>".to_string());
            Err(SimError::RankPanic { rank, message })
        }
    }
}

fn send_grant(grant_txs: &[Option<Sender<Grant>>], rank: usize, grant: Grant) {
    // A failed send means the rank thread died between trapping and
    // receiving its grant; the death is diagnosed by the next
    // `recv_trap` on the rank's closed trap channel.
    if let Some(tx) = grant_txs[rank].as_ref() {
        let _ = tx.send(grant);
    }
}

/// Per-rank one-line state descriptions for deadlock/watchdog dumps;
/// ranks sitting in `recv` are also recorded into the schedule log as
/// `Blocked` events so the analyzer sees the wait-for structure.
fn describe_ranks(core: &mut KernelCore, states: &[RankState]) -> Vec<String> {
    let mut out = Vec::with_capacity(states.len());
    for (rank, st) in states.iter().enumerate() {
        let what = if st.done {
            "done".to_string()
        } else {
            match st.pending.as_ref() {
                Some(Trap::Recv { src, tag, .. }) => {
                    core.record_blocked(rank, *src, *tag);
                    format!(
                        "blocked recv(src={src:?}, tag={tag:?}), mailbox has {} msgs",
                        core.mailbox_len(rank)
                    )
                }
                Some(Trap::Barrier) => "waiting in barrier".to_string(),
                _ => "runnable?".to_string(),
            }
        };
        out.push(format!("rank {rank} @ {}ns: {what}", st.clock));
    }
    out
}

/// Translate a watchdog trip into the corresponding [`SimError`],
/// attaching the per-rank dump where the variant carries one.
fn trip_error(trip: WatchdogTrip, core: &mut KernelCore, states: &[RankState]) -> SimError {
    match trip {
        WatchdogTrip::Budget(events, virtual_ns) => SimError::WatchdogTripped {
            events,
            virtual_ns,
            states: describe_ranks(core, states),
        },
        WatchdogTrip::Wall(wall_ms) => SimError::DeadlineExceeded { wall_ms },
        WatchdogTrip::Cancelled => SimError::Cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_model::Machine;

    fn ring_machine() -> Machine {
        Machine::paragon(2, 4)
    }

    fn threaded() -> SimConfig {
        SimConfig {
            exec: ExecMode::Threaded,
            ..SimConfig::default()
        }
    }

    fn coop() -> SimConfig {
        SimConfig {
            exec: ExecMode::Cooperative,
            ..SimConfig::default()
        }
    }

    #[test]
    fn two_rank_ping() {
        let m = Machine::paragon(1, 2);
        let out = simulate(&m, |mut ctx| async move {
            if ctx.rank() == 0 {
                ctx.send(1, 7, b"hello");
                0u64
            } else {
                let env = ctx.recv(Some(0), Some(7)).await;
                assert_eq!(env.data, b"hello");
                env.arrival
            }
        });
        assert!(out.makespan_ns > 0);
        // Receiver finishes after arrival + alpha_recv.
        assert!(out.finish_ns[1] > out.results[1]);
        // Sender pays only startup.
        assert_eq!(
            out.finish_ns[0],
            m.params.alpha_send(mpp_model::LibraryKind::Nx)
        );
    }

    #[test]
    fn messages_delivered_in_arrival_order() {
        // Rank 2 is adjacent to rank 1; rank 3 is farther. Rank 1 receives
        // twice with wildcard and must get the earlier arrival first even
        // though the farther message was sent first (same clocks).
        let m = Machine::paragon(1, 8);
        let out = simulate(&m, |mut ctx| async move {
            match ctx.rank() {
                7 => {
                    ctx.send(0, 1, b"far");
                    Vec::new()
                }
                1 => {
                    ctx.send(0, 1, b"near");
                    Vec::new()
                }
                0 => {
                    let a = ctx.recv(None, Some(1)).await;
                    let b = ctx.recv(None, Some(1)).await;
                    vec![a.src, b.src]
                }
                _ => Vec::new(),
            }
        });
        assert_eq!(out.results[0], vec![1, 7]);
    }

    #[test]
    fn recv_wait_time_reported() {
        let m = Machine::paragon(1, 2);
        let out = simulate(&m, |mut ctx| async move {
            if ctx.rank() == 0 {
                ctx.compute_ns(1_000_000); // sender is slow
                ctx.send(1, 0, &[1; 128]);
                0
            } else {
                let env = ctx.recv(Some(0), Some(0)).await;
                env.waited_ns
            }
        });
        assert!(
            out.results[1] >= 1_000_000,
            "receiver should have waited ≥1ms"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let m = ring_machine();
        let run = || {
            simulate(&m, |mut ctx| async move {
                let p = ctx.size();
                let next = (ctx.rank() + 1) % p;
                let prev = (ctx.rank() + p - 1) % p;
                ctx.send(next, 3, &vec![ctx.rank() as u8; 256]);
                let env = ctx.recv(Some(prev), Some(3)).await;
                ctx.charge_memcpy(env.data.len());
                ctx.clock()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.finish_ns, b.finish_ns);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.contention_ns, b.contention_ns);
    }

    #[test]
    fn cooperative_and_threaded_agree_exactly() {
        // The differential core check: both executors must produce
        // bit-identical virtual outcomes on a messy program mixing
        // wildcard receives, compute, memcpy and barriers.
        let m = ring_machine();
        let run = |config: &SimConfig| {
            simulate_with(&m, config, |mut ctx| async move {
                let p = ctx.size();
                let me = ctx.rank();
                ctx.compute_ns(137 * me as u64);
                for d in 0..3usize {
                    ctx.send((me + d + 1) % p, d as u32, &vec![me as u8; 64 + 32 * d]);
                }
                let mut got = Vec::new();
                for _ in 0..3 {
                    let env = ctx.recv(None, None).await;
                    ctx.charge_memcpy(env.data.len());
                    got.push((env.src, env.tag, env.arrival));
                }
                ctx.barrier().await;
                (got, ctx.clock())
            })
        };
        let a = run(&coop());
        let b = run(&threaded());
        assert_eq!(a.results, b.results);
        assert_eq!(a.finish_ns, b.finish_ns);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.contention_events, b.contention_events);
        assert_eq!(a.contention_ns, b.contention_ns);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let m = ring_machine();
        let out = simulate(&m, |mut ctx| async move {
            if ctx.rank() == 0 {
                ctx.compute_ns(5_000_000);
            }
            ctx.barrier().await;
            ctx.clock()
        });
        let clocks: Vec<_> = out.results;
        assert!(clocks.iter().all(|&c| c == clocks[0]));
        assert!(clocks[0] >= 5_000_000);
    }

    #[test]
    fn compute_and_memcpy_advance_clock() {
        let m = Machine::paragon(1, 2);
        let out = simulate(&m, |mut ctx| async move {
            if ctx.rank() == 0 {
                ctx.compute_ns(123);
                ctx.charge_memcpy(1024);
            }
            ctx.clock()
        });
        let expect = 123 + m.params.memcpy_ns(1024);
        assert_eq!(out.results[0], expect);
        assert_eq!(out.results[1], 0);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let m = Machine::paragon(1, 2);
        simulate(&m, |mut ctx| async move {
            // Both ranks receive, nobody sends.
            let _ = ctx.recv(None, None).await;
        });
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected_threaded() {
        let m = Machine::paragon(1, 2);
        simulate_with(&m, &threaded(), |mut ctx| async move {
            let _ = ctx.recv(None, None).await;
        });
    }

    #[test]
    fn mpi_config_slower_than_nx() {
        let m = Machine::paragon(1, 4);
        let prog = |mut ctx: RankCtx| async move {
            if ctx.rank() == 0 {
                for dst in 1..4 {
                    ctx.send(dst, 0, &[0u8; 1024]);
                }
            } else {
                ctx.recv(Some(0), Some(0)).await;
            }
        };
        let nx = simulate_with(
            &m,
            &SimConfig {
                lib: LibraryKind::Nx,
                ..Default::default()
            },
            prog,
        );
        let mpi = simulate_with(
            &m,
            &SimConfig {
                lib: LibraryKind::Mpi,
                ..Default::default()
            },
            prog,
        );
        assert!(mpi.makespan_ns > nx.makespan_ns);
        let ratio = mpi.makespan_ns as f64 / nx.makespan_ns as f64;
        assert!(ratio < 1.10, "MPI overhead should be modest, got {ratio}");
    }

    #[test]
    fn tag_filtering_respects_order_within_tag() {
        let m = Machine::paragon(1, 2);
        let out = simulate(&m, |mut ctx| async move {
            if ctx.rank() == 0 {
                ctx.send(1, 10, b"a");
                ctx.send(1, 20, b"b");
                ctx.send(1, 10, b"c");
                Vec::new()
            } else {
                let x = ctx.recv(Some(0), Some(20)).await;
                let y = ctx.recv(Some(0), Some(10)).await;
                let z = ctx.recv(Some(0), Some(10)).await;
                vec![x.data, y.data, z.data]
            }
        });
        assert_eq!(
            out.results[1],
            vec![b"b".to_vec(), b"a".to_vec(), b"c".to_vec()]
        );
    }

    #[test]
    fn hot_spot_contention_is_counted() {
        let m = Machine::paragon(4, 4);
        let out = simulate(&m, |mut ctx| async move {
            if ctx.rank() == 0 {
                for _ in 1..16 {
                    ctx.recv(None, None).await;
                }
            } else {
                ctx.send(0, 0, &[0u8; 16384]);
            }
        });
        assert!(
            out.contention_events > 0,
            "gather to rank 0 must show contention"
        );
    }

    #[test]
    fn makespan_is_max_finish() {
        let m = ring_machine();
        let out = simulate(&m, |mut ctx| async move {
            ctx.compute_ns(100 * (ctx.rank() as u64 + 1));
        });
        assert_eq!(out.makespan_ns, 800);
        assert_eq!(out.finish_ns[7], 800);
    }

    /// Keep deliberate test panics out of the captured test output.
    /// Rank-thread panics escape libtest's output capture, so the hook
    /// swallows exactly the marker message our fixtures use.
    fn hush_deliberate_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = panic_message(info.payload());
                if msg.contains("deliberate test panic") {
                    return;
                }
                prev(info);
            }));
        });
    }

    #[test]
    fn rank_panic_is_a_structured_error() {
        hush_deliberate_panics();
        let m = Machine::paragon(1, 2);
        for config in [coop(), threaded()] {
            let err = try_simulate_with(&m, &config, |mut ctx| async move {
                if ctx.rank() == 1 {
                    panic!("deliberate test panic at rank 1");
                }
                // Rank 0 would block forever; the kernel must shut it
                // down cleanly once rank 1 dies.
                let _ = ctx.recv(Some(1), None).await;
            })
            .unwrap_err();
            match err {
                SimError::RankPanic { rank, message } => {
                    assert_eq!(rank, 1, "{} executor", config.exec.name());
                    assert!(message.contains("deliberate test panic"), "got: {message}");
                }
                other => panic!("expected RankPanic, got {other}"),
            }
        }
    }

    #[test]
    fn try_simulate_reports_deadlock_without_panicking() {
        let m = Machine::paragon(1, 2);
        for config in [coop(), threaded()] {
            let err = try_simulate_with(&m, &config, |mut ctx| async move {
                let _ = ctx.recv(None, None).await;
            })
            .unwrap_err();
            assert_eq!(err.kind(), "deadlock");
            match err {
                SimError::Deadlock { machine, info } => {
                    assert_eq!(machine, m.name);
                    assert_eq!(info.states.len(), 2);
                }
                other => panic!("expected Deadlock, got {other}"),
            }
        }
    }

    /// Two ranks ping-ponging forever — the livelock the watchdog exists
    /// to bound.
    async fn ping_pong_forever(mut ctx: RankCtx) -> u32 {
        let peer = 1 - ctx.rank();
        loop {
            ctx.send(peer, 0, b"x");
            let env = ctx.recv(Some(peer), Some(0)).await;
            if env.data.is_empty() {
                break 0; // unreachable; pins the return type
            }
        }
    }

    #[test]
    fn watchdog_event_budget_trips_on_livelock() {
        let m = Machine::paragon(1, 2);
        for mut config in [coop(), threaded()] {
            config.budget = SimBudget::unlimited().with_max_events(500);
            let err = try_simulate_with(&m, &config, ping_pong_forever).unwrap_err();
            match err {
                SimError::WatchdogTripped { events, states, .. } => {
                    assert!(events > 500, "counted {events} events");
                    assert_eq!(states.len(), 2);
                }
                other => panic!("expected WatchdogTripped, got {other}"),
            }
        }
    }

    #[test]
    fn watchdog_virtual_time_budget_trips_on_livelock() {
        let m = Machine::paragon(1, 2);
        for mut config in [coop(), threaded()] {
            config.budget = SimBudget::unlimited().with_max_virtual_ns(1_000_000);
            let err = try_simulate_with(&m, &config, ping_pong_forever).unwrap_err();
            match err {
                SimError::WatchdogTripped { virtual_ns, .. } => {
                    assert!(virtual_ns > 1_000_000);
                }
                other => panic!("expected WatchdogTripped, got {other}"),
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock probe")]
    fn wall_clock_deadline_trips_on_livelock() {
        let m = Machine::paragon(1, 2);
        for mut config in [coop(), threaded()] {
            config.budget = SimBudget::unlimited().with_max_wall(std::time::Duration::ZERO);
            let err = try_simulate_with(&m, &config, ping_pong_forever).unwrap_err();
            assert!(
                matches!(err, SimError::DeadlineExceeded { .. }),
                "expected DeadlineExceeded, got {err}"
            );
        }
    }

    #[test]
    fn cancellation_stops_a_run_cleanly() {
        let m = Machine::paragon(1, 2);
        for mut config in [coop(), threaded()] {
            let token = CancelToken::new();
            token.cancel();
            config.cancel = Some(token);
            let err = try_simulate_with(&m, &config, ping_pong_forever).unwrap_err();
            assert!(
                matches!(err, SimError::Cancelled),
                "expected Cancelled, got {err}"
            );
        }
    }

    #[test]
    fn watchdog_budget_never_trips_a_healthy_run() {
        // A generous budget must not perturb outcomes: supervised and
        // unsupervised runs of the same program are bit-identical.
        let m = ring_machine();
        let prog = |mut ctx: RankCtx| async move {
            let p = ctx.size();
            let next = (ctx.rank() + 1) % p;
            let prev = (ctx.rank() + p - 1) % p;
            ctx.send(next, 3, &[ctx.rank() as u8; 128]);
            let env = ctx.recv(Some(prev), Some(3)).await;
            ctx.charge_memcpy(env.data.len());
            ctx.clock()
        };
        let plain = simulate(&m, prog);
        let config = SimConfig {
            budget: SimBudget::unlimited()
                .with_max_events(1_000_000)
                .with_max_virtual_ns(Time::MAX),
            cancel: Some(CancelToken::new()),
            ..SimConfig::default()
        };
        let supervised = try_simulate_with(&m, &config, prog).expect("healthy run must succeed");
        assert_eq!(plain.finish_ns, supervised.finish_ns);
        assert_eq!(plain.makespan_ns, supervised.makespan_ns);
    }

    #[test]
    fn defaults_are_cooperative_and_unbounded() {
        assert_eq!(ExecMode::default(), ExecMode::Cooperative);
        let config = SimConfig::default();
        assert_eq!(config.exec, ExecMode::Cooperative);
        assert!(config.budget.is_unlimited());
    }

    #[test]
    fn recv_timeout_expires_then_delivers() {
        let m = Machine::paragon(1, 2);
        let run = |config: &SimConfig| {
            simulate_with(&m, config, |mut ctx| async move {
                if ctx.rank() == 0 {
                    ctx.compute_ns(50_000); // sender is slow
                    ctx.send(1, 3, b"late");
                    (0, 0)
                } else {
                    // Expires long before the sender is ready...
                    let miss = ctx.recv_timeout(Some(0), Some(3), 10).await;
                    assert!(miss.is_none(), "nothing can arrive in 10 ns");
                    let after_timeout = ctx.clock();
                    // ...then a patient retry delivers.
                    let hit = ctx.recv_timeout(Some(0), Some(3), 10_000_000).await;
                    assert!(hit.is_some());
                    (after_timeout, ctx.clock())
                }
            })
        };
        let a = run(&coop());
        let b = run(&threaded());
        assert_eq!(a.results, b.results, "executors disagree on timeouts");
        assert_eq!(a.finish_ns, b.finish_ns);
        let (after_timeout, done) = a.results[1];
        // Giving up costs one α_recv at the deadline.
        assert_eq!(
            after_timeout,
            10 + m.params.alpha_recv(mpp_model::LibraryKind::Nx)
        );
        assert!(done > 50_000, "delivery happens after the slow sender");
    }

    #[test]
    fn transient_drops_are_retried_and_equivalent() {
        use mpp_model::FaultPlan;
        let m = ring_machine();
        let faults = Some(FaultPlan::transient_drops(3, 1, 2, 20));
        let run = |exec: ExecMode| {
            let config = SimConfig {
                exec,
                faults: faults.clone(),
                ..SimConfig::default()
            };
            simulate_with(&m, &config, |mut ctx| async move {
                if ctx.rank() == 0 {
                    for _ in 1..8 {
                        ctx.recv(None, None).await;
                    }
                } else {
                    ctx.send(0, 1, &[7u8; 512]);
                }
            })
        };
        let a = run(ExecMode::Cooperative);
        let b = run(ExecMode::Threaded);
        assert_eq!(
            a.finish_ns, b.finish_ns,
            "faulted runs must stay equivalent"
        );
        assert_eq!(a.fault_stats, b.fault_stats);
        let retransmits: u64 = a.fault_stats.iter().map(|s| s.retransmits).sum();
        assert!(retransmits > 0, "a 1/2 drop rate must force retransmits");
        let dropped: u64 = a.fault_stats.iter().map(|s| s.dropped).sum();
        assert_eq!(dropped, 0, "20 attempts at 1/2 never exhaust");
    }

    #[test]
    fn exhausted_drops_lose_the_message() {
        use mpp_model::FaultPlan;
        let m = Machine::paragon(1, 2);
        // Every attempt dropped, one attempt allowed: the message is lost.
        let plan = FaultPlan {
            seed: 1,
            drop_num: 1,
            drop_den: 1,
            ..FaultPlan::default()
        };
        let config = SimConfig {
            faults: Some(plan),
            ..coop()
        };
        let out = simulate_with(&m, &config, |mut ctx| async move {
            if ctx.rank() == 0 {
                ctx.send(1, 0, b"doomed");
                true
            } else {
                ctx.recv_timeout(Some(0), Some(0), 1_000_000)
                    .await
                    .is_none()
            }
        });
        assert!(out.results[1], "the message must never arrive");
        assert_eq!(out.fault_stats[0].dropped, 1);
        assert_eq!(out.fault_stats[0].retransmits, 0);
    }

    #[test]
    fn outage_reroutes_with_detour_cost() {
        use mpp_model::{FaultPlan, LinkOutage};
        let m = Machine::paragon(2, 2);
        // Link 0→1 is down forever: 0's message detours 0→2→3→1.
        let plan = FaultPlan {
            link_outages: vec![LinkOutage {
                link: mpp_model::Link::new(0, 1),
                from_ns: 0,
                until_ns: Time::MAX,
            }],
            ..FaultPlan::default()
        };
        let run = |exec: ExecMode| {
            let config = SimConfig {
                exec,
                faults: Some(plan.clone()),
                ..SimConfig::default()
            };
            simulate_with(&m, &config, |mut ctx| async move {
                if ctx.rank() == 0 {
                    ctx.send(1, 0, &[1u8; 64]);
                } else if ctx.rank() == 1 {
                    ctx.recv(Some(0), Some(0)).await;
                }
            })
        };
        let a = run(ExecMode::Cooperative);
        let b = run(ExecMode::Threaded);
        assert_eq!(a.finish_ns, b.finish_ns);
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(
            a.fault_stats[0].rerouted_hops, 2,
            "1-hop route became 3 hops"
        );
        assert!(a.fault_stats[0].detour_ns > 0);
        // The detour costs extra hop latency versus a clean network.
        let clean = simulate(&m, |mut ctx| async move {
            if ctx.rank() == 0 {
                ctx.send(1, 0, &[1u8; 64]);
            } else if ctx.rank() == 1 {
                ctx.recv(Some(0), Some(0)).await;
            }
        });
        assert!(a.finish_ns[1] > clean.finish_ns[1]);
        assert_eq!(
            a.contention_ns, clean.contention_ns,
            "detours are not contention"
        );
    }
}
