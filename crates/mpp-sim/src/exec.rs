//! The cooperative rank executor.
//!
//! All rank programs run as resumable `async` state machines multiplexed
//! on the calling thread, held in a single pre-sized
//! [`RankSlab`](crate::slab::RankSlab) allocation and polled in place —
//! no per-rank `Box::pin`, no per-op heap traffic. Each rank owns a
//! [`CoopCell`]: rank-local operations (`send`, `compute_ns`,
//! `charge_memcpy`, `next_iteration`) update the cell's virtual clock and
//! statistics directly and append *deferred ops*; only `recv` and
//! `barrier` actually suspend the future. The executor drains deferred
//! ops in global
//! `(effective time, rank)` order through the shared [`KernelCore`],
//! driven by the heap-and-front-slot
//! [`ReadyQueue`](crate::sched::ReadyQueue).
//!
//! # The ordering invariant
//!
//! Every globally visible effect (network transfers, sequence numbers,
//! mailbox inserts, recorded events) happens in one global order: by
//! `(effective time, rank)`, where a deferred op's effective time is the
//! rank's clock when it issued the op, and a receive's is
//! `max(clock, earliest matching arrival)` (capped by its deadline).
//! A rank may have queued *several* ops ahead of its suspension point,
//! but its clock only moves forward, so the op at the queue head always
//! has the minimum effective time within that queue — scheduling queue
//! heads by `(eff, rank)` is scheduling ops by it. Blocked receives
//! re-enter the ready queue from [`wake_recv`] when a matching message
//! is inserted; since a new arrival can only lower the earliest match,
//! stale queue entries are safe to discard lazily. With α_send > 0,
//! processing an op at `t` creates work for other ranks only after `t`
//! (anything it sends arrives later), so the order never goes back in
//! time. The order is a pure function of virtual times and rank ids,
//! which is why two runs are bit-identical; the analyzer's cost replay
//! re-derives it from the recording (which send each receive matched).
//! See DESIGN.md §8.

use std::cell::RefCell;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::task::Poll;

use mpp_model::Machine;
use mpp_model::Time;

use crate::error::{panic_message, SimError};
use crate::kernel::{DeadlockInfo, Envelope, KernelCore, RankCtx, SimConfig, SimOutcome};
use crate::payload::Payload;
use crate::sched::ReadyQueue;
use crate::slab::{RankSlab, SlabHandle};
use crate::stats::CommStats;
use crate::supervise::{Watchdog, WatchdogTrip};
use crate::Tag;

/// Per-rank shared state between a rank program's [`RankCtx`] and the
/// executor. Everything cooperative runs on one thread, so this is a
/// plain `RefCell` behind an `Rc` — the executor and the rank's own
/// context never hold borrows across a suspension point.
#[derive(Default)]
pub(crate) struct CoopCell {
    /// The rank's virtual clock — its single source of truth, advanced
    /// rank-locally by sends/compute/memcpy and by the executor on
    /// recv/barrier grants.
    pub clock: Time,
    /// Deferred operations not yet processed by the executor, in issue
    /// order. The suspension ops (`RecvWait`/`BarrierWait`/`Finished`)
    /// are always last: nothing can be issued past a suspension point.
    pub ops: std::collections::VecDeque<CoopOp>,
    /// Completion value for the op the rank is suspended on, deposited
    /// by the executor just before re-polling.
    pub grant: Option<CoopGrant>,
    /// The rank's communication statistics; its iteration count is also
    /// where a run that does not record boundaries as ops counts them.
    pub stats: CommStats,
}

/// A deferred operation in a rank's op queue.
pub(crate) enum CoopOp {
    /// A send issued while the rank's clock was `eff`.
    Send {
        dst: usize,
        tag: Tag,
        data: Payload,
        eff: Time,
    },
    /// A vectored multi-port send batch issued at `eff`: every member
    /// transfers are issued in one executor step (one α_send for the
    /// whole batch) before the rank can suspend, so the port arbiter
    /// sees them simultaneously.
    SendBatch {
        msgs: Vec<(usize, Tag, Payload)>,
        eff: Time,
    },
    /// Iteration-boundary marker (recording runs only).
    IterMark { eff: Time },
    /// The rank is suspended in `recv` (its clock is unchanged while
    /// suspended, so no time stamp is needed). A `deadline` makes this
    /// a `recv_timeout`: the rank stays schedulable and gives up at the
    /// deadline if no match can complete by then.
    RecvWait {
        src: Option<usize>,
        tag: Option<Tag>,
        deadline: Option<Time>,
    },
    /// The rank is suspended in `barrier`.
    BarrierWait,
    /// The rank's program returned; `eff` is its final clock.
    Finished { eff: Time },
}

/// Executor → rank completion values.
pub(crate) enum CoopGrant {
    Received(Envelope),
    TimedOut,
    Done,
}

/// Where a rank currently stands from the executor's point of view.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Has a live entry in the ready queue.
    Ready,
    /// Suspended in `recv` with no matching message in any mailbox.
    BlockedRecv,
    /// Suspended in `barrier`, waiting for the others.
    InBarrier,
    /// Program finished and its `Finished` op has been processed.
    Done,
}

/// Poll `rank`'s state machine once, in place in the slab; on completion
/// stash the result and queue the terminal `Finished` op at the rank's
/// current clock. A panicking rank program is caught here and surfaced
/// as [`SimError::RankPanic`] — the half-run slab (and every other
/// rank's state machine in it) is dropped in place by the caller.
fn poll_rank<R, Fut: Future<Output = R>>(
    rank: usize,
    slab: &mut RankSlab<Fut>,
    results: &mut [Option<R>],
    cells: &[Rc<RefCell<CoopCell>>],
) -> Result<(), SimError> {
    match catch_unwind(AssertUnwindSafe(|| slab.poll(rank))) {
        Ok(Some(Poll::Ready(r))) => {
            results[rank] = Some(r);
            let mut cell = cells[rank].borrow_mut();
            let eff = cell.clock;
            cell.ops.push_back(CoopOp::Finished { eff });
            Ok(())
        }
        Ok(_) => Ok(()),
        Err(payload) => Err(SimError::RankPanic {
            rank,
            message: panic_message(&*payload),
        }),
    }
}

/// Classify `rank` by its op-queue head and (re-)insert it into the
/// ready queue if it is schedulable.
fn settle_head(
    rank: usize,
    cells: &[Rc<RefCell<CoopCell>>],
    phases: &mut [Phase],
    ready: &mut ReadyQueue,
    in_barrier: &mut usize,
    core: &KernelCore,
) {
    let cell = cells[rank].borrow();
    match cell.ops.front() {
        Some(CoopOp::Send { eff, .. })
        | Some(CoopOp::SendBatch { eff, .. })
        | Some(CoopOp::IterMark { eff })
        | Some(CoopOp::Finished { eff }) => {
            phases[rank] = Phase::Ready;
            ready.push(rank, *eff);
        }
        Some(CoopOp::RecvWait { src, tag, deadline }) => {
            let match_eff = core
                .peek_mailbox(rank, *src, *tag)
                .map(|arrival| cell.clock.max(arrival));
            match (match_eff, deadline) {
                (Some(e), Some(d)) => {
                    phases[rank] = Phase::Ready;
                    ready.push(rank, e.min(*d));
                }
                (Some(e), None) => {
                    phases[rank] = Phase::Ready;
                    ready.push(rank, e);
                }
                // No match yet, but the rank gives up at the deadline —
                // it stays schedulable.
                (None, Some(d)) => {
                    phases[rank] = Phase::Ready;
                    ready.push(rank, *d);
                }
                (None, None) => phases[rank] = Phase::BlockedRecv,
            }
        }
        Some(CoopOp::BarrierWait) => {
            phases[rank] = Phase::InBarrier;
            *in_barrier += 1;
        }
        None => unreachable!("rank {rank} settled with an empty op queue"),
    }
}

/// Blocked-recv wakeup index hook: after a message lands in `dst`'s
/// mailbox, re-ready `dst` directly if it is waiting on a matching
/// receive. An unconditional re-push is sound — a new arrival can only
/// lower the earliest match, and the ready queue discards the stale
/// (later-or-equal) entry lazily.
fn wake_recv(
    dst: usize,
    cells: &[Rc<RefCell<CoopCell>>],
    phases: &mut [Phase],
    ready: &mut ReadyQueue,
    core: &KernelCore,
) {
    if !matches!(phases[dst], Phase::BlockedRecv | Phase::Ready) {
        return;
    }
    let cell = cells[dst].borrow();
    if let Some(CoopOp::RecvWait { src, tag, deadline }) = cell.ops.front() {
        if let Some(arrival) = core.peek_mailbox(dst, *src, *tag) {
            let eff = cell.clock.max(arrival);
            let eff = deadline.map_or(eff, |d| eff.min(d));
            phases[dst] = Phase::Ready;
            ready.push(dst, eff);
        }
    }
}

/// Per-rank one-line state descriptions for deadlock/watchdog dumps;
/// ranks sitting in `recv` are also recorded into the schedule log as
/// `Blocked` events so the analyzer sees the wait-for structure.
fn describe_ranks(
    core: &mut KernelCore,
    cells: &[Rc<RefCell<CoopCell>>],
    phases: &[Phase],
) -> Vec<String> {
    let mut states = Vec::with_capacity(phases.len());
    for (rank, phase) in phases.iter().enumerate() {
        let cell = cells[rank].borrow();
        let what = match phase {
            Phase::Done => "done".to_string(),
            Phase::BlockedRecv => {
                if let Some(CoopOp::RecvWait { src, tag, .. }) = cell.ops.front() {
                    core.record_blocked(rank, *src, *tag);
                    format!(
                        "blocked recv(src={src:?}, tag={tag:?}), mailbox has {} msgs",
                        core.mailbox_len(rank)
                    )
                } else {
                    "runnable?".to_string()
                }
            }
            Phase::InBarrier => "waiting in barrier".to_string(),
            Phase::Ready => "runnable?".to_string(),
        };
        states.push(format!("rank {rank} @ {}ns: {what}", cell.clock));
    }
    states
}

/// Add the iteration boundaries a run without recording counted only
/// rank-locally, in its statistics, to the kernel counts.
fn fold_iteration_ends(core: &mut KernelCore, cells: &[Rc<RefCell<CoopCell>>], recording: bool) {
    if !recording {
        for cell in cells {
            core.counters.iter_ends += cell.borrow().stats.iters.len() as u64 - 1;
        }
    }
}

/// Translate a watchdog trip into the corresponding [`SimError`],
/// attaching the per-rank dump where the variant carries one.
fn trip_error(
    trip: WatchdogTrip,
    core: &mut KernelCore,
    cells: &[Rc<RefCell<CoopCell>>],
    phases: &[Phase],
) -> SimError {
    match trip {
        WatchdogTrip::Budget(events, virtual_ns) => SimError::WatchdogTripped {
            events,
            virtual_ns,
            states: describe_ranks(core, cells, phases),
        },
        WatchdogTrip::Cancelled => SimError::Cancelled,
    }
}

/// Run every rank of `machine` under the cooperative executor.
pub(crate) fn try_simulate_coop<R, F, Fut>(
    machine: &Machine,
    config: &SimConfig,
    program: &F,
) -> Result<SimOutcome<R>, SimError>
where
    F: Fn(RankCtx) -> Fut,
    Fut: Future<Output = R>,
{
    let p = machine.p();
    assert!(p > 0);

    let mut core = KernelCore::new(machine, config);
    let recording = config.record;
    let alpha_send = core.alpha_send;

    let cells: Vec<Rc<RefCell<CoopCell>>> = (0..p)
        .map(|_| {
            Rc::new(RefCell::new(CoopCell {
                stats: CommStats::new(),
                ..CoopCell::default()
            }))
        })
        .collect();
    let mut results: Vec<Option<R>> = (0..p).map(|_| None).collect();
    // One slab allocation holds every rank's state machine for the whole
    // experiment; machines are polled in place and dropped in place.
    let mut slab: RankSlab<Fut> = RankSlab::new((0..p).map(|rank| {
        program(RankCtx::new(
            rank,
            p,
            recording,
            cells[rank].clone(),
            alpha_send,
            machine.params.clone(),
        ))
    }));

    debug_assert_eq!(slab.len(), p);
    // Birth handles: each goes stale exactly when its rank's machine
    // completes, which is what lets us sanity-check the `Finished`
    // protocol below.
    let handles: Vec<SlabHandle> = (0..p).map(|rank| slab.handle(rank)).collect();

    let mut phases = vec![Phase::Ready; p];
    // Size the ready queue for this run: `p` ranks, each of which a
    // faulty network can re-ready once per retransmission attempt.
    let retry_budget = config
        .faults
        .as_ref()
        .map_or(0, |f| f.retry.max_attempts as usize);
    let mut ready = ReadyQueue::for_run(p, retry_budget);
    // The destinations of the send batch in hand, woken after it issues.
    let mut batch_dsts: Vec<usize> = Vec::new();
    let mut in_barrier = 0usize;
    let mut live = p;
    let mut finish_ns = vec![0; p];
    let watchdog = Watchdog::for_run(&config.budget, &config.cancel);

    // The scheduling loop proper; every abnormal exit bubbles out as
    // `Err` for the teardown below (drop the slab with every unfinished
    // state machine in place).
    let mut run_loop = || -> Result<(), SimError> {
        // Run every rank up to its first suspension point, then classify.
        for rank in 0..p {
            poll_rank(rank, &mut slab, &mut results, &cells)?;
        }
        for rank in 0..p {
            settle_head(
                rank,
                &cells,
                &mut phases,
                &mut ready,
                &mut in_barrier,
                &core,
            );
        }

        while live > 0 {
            // Barrier release: every live rank is suspended at a barrier.
            if in_barrier == live {
                let t_max = phases
                    .iter()
                    .enumerate()
                    .filter(|(_, ph)| **ph == Phase::InBarrier)
                    .map(|(rank, _)| cells[rank].borrow().clock)
                    .max()
                    .expect("barrier with no participants");
                let t_rel = core.barrier_release_time(t_max, live);
                let released: Vec<usize> =
                    (0..p).filter(|&r| phases[r] == Phase::InBarrier).collect();
                in_barrier = 0;
                for &rank in &released {
                    let mut cell = cells[rank].borrow_mut();
                    match cell.ops.pop_front() {
                        Some(CoopOp::BarrierWait) => {}
                        _ => unreachable!("in-barrier rank without BarrierWait at queue head"),
                    }
                    cell.clock = t_rel;
                    cell.grant = Some(CoopGrant::Done);
                }
                for &rank in &released {
                    poll_rank(rank, &mut slab, &mut results, &cells)?;
                }
                for &rank in &released {
                    settle_head(
                        rank,
                        &cells,
                        &mut phases,
                        &mut ready,
                        &mut in_barrier,
                        &core,
                    );
                }
                continue;
            }

            let Some((eff, rank)) = ready.pop() else {
                fold_iteration_ends(&mut core, &cells, recording);
                let info = DeadlockInfo {
                    states: describe_ranks(&mut core, &cells, &phases),
                    counters: core.counters(),
                    log: core.take_log(),
                };
                return Err(SimError::Deadlock {
                    machine: machine.name.to_string(),
                    info: Box::new(info),
                });
            };

            if let Some(wd) = &watchdog {
                if let Err(trip) = wd.check(core.counters.events, eff) {
                    return Err(trip_error(trip, &mut core, &cells, &phases));
                }
            }

            let op = cells[rank]
                .borrow_mut()
                .ops
                .pop_front()
                .expect("ready rank with empty op queue");
            match op {
                CoopOp::Send {
                    dst,
                    tag,
                    data,
                    eff,
                } => {
                    core.process_send(
                        rank,
                        dst,
                        tag,
                        data,
                        eff,
                        &mut cells[rank].borrow_mut().stats,
                    );
                    settle_head(
                        rank,
                        &cells,
                        &mut phases,
                        &mut ready,
                        &mut in_barrier,
                        &core,
                    );
                    wake_recv(dst, &cells, &mut phases, &mut ready, &core);
                }
                CoopOp::SendBatch { msgs, eff } => {
                    // All members issue in this one step; each
                    // destination is then woken like a plain send's.
                    batch_dsts.clear();
                    batch_dsts.extend(msgs.iter().map(|(dst, _, _)| *dst));
                    core.process_send_batch(rank, msgs, eff, &mut cells[rank].borrow_mut().stats);
                    settle_head(
                        rank,
                        &cells,
                        &mut phases,
                        &mut ready,
                        &mut in_barrier,
                        &core,
                    );
                    for &dst in &batch_dsts {
                        wake_recv(dst, &cells, &mut phases, &mut ready, &core);
                    }
                }
                CoopOp::IterMark { .. } => {
                    core.process_iter_mark(rank);
                    settle_head(
                        rank,
                        &cells,
                        &mut phases,
                        &mut ready,
                        &mut in_barrier,
                        &core,
                    );
                }
                CoopOp::RecvWait { src, tag, deadline } => {
                    let clock = cells[rank].borrow().clock;
                    // Deliver iff a match can complete by the deadline;
                    // otherwise this pop is the timeout's expiry.
                    let deliverable = core
                        .peek_mailbox(rank, src, tag)
                        .map(|arrival| clock.max(arrival))
                        .is_some_and(|e| deadline.is_none_or(|d| e <= d));
                    if deliverable {
                        let (env, new_clock) = core
                            .process_recv(rank, src, tag, clock)
                            .map_err(SimError::StrictViolation)?;
                        {
                            let mut cell = cells[rank].borrow_mut();
                            cell.clock = new_clock;
                            cell.grant = Some(CoopGrant::Received(env));
                        }
                        poll_rank(rank, &mut slab, &mut results, &cells)?;
                        settle_head(
                            rank,
                            &cells,
                            &mut phases,
                            &mut ready,
                            &mut in_barrier,
                            &core,
                        );
                    } else {
                        let d = deadline.expect("scheduled recv without match or deadline");
                        core.note_timeout();
                        {
                            let mut cell = cells[rank].borrow_mut();
                            cell.clock = d.saturating_add(core.alpha_recv);
                            cell.grant = Some(CoopGrant::TimedOut);
                        }
                        poll_rank(rank, &mut slab, &mut results, &cells)?;
                        settle_head(
                            rank,
                            &cells,
                            &mut phases,
                            &mut ready,
                            &mut in_barrier,
                            &core,
                        );
                    }
                }
                CoopOp::BarrierWait => {
                    unreachable!("BarrierWait scheduled through the ready queue")
                }
                CoopOp::Finished { eff } => {
                    // The Finished op is only ever queued after the slab
                    // vacates the rank's machine, bumping its generation.
                    debug_assert!(
                        !slab.is_current(handles[rank]),
                        "Finished op for a still-live rank machine"
                    );
                    core.process_finish(rank, eff)
                        .map_err(SimError::StrictViolation)?;
                    phases[rank] = Phase::Done;
                    finish_ns[rank] = eff;
                    live -= 1;
                }
            }
        }
        Ok(())
    };

    run_loop()?;

    debug_assert_eq!(
        slab.live(),
        0,
        "live ranks exhausted with unfinished machines"
    );
    fold_iteration_ends(&mut core, &cells, recording);
    let stats = cells
        .iter()
        .map(|cell| std::mem::take(&mut cell.borrow_mut().stats))
        .collect();
    Ok(core.finish(results, finish_ns, stats))
}

#[cfg(test)]
mod tests {
    use mpp_model::{Machine, Time};

    use crate::kernel::{simulate, simulate_with, SimConfig};
    use crate::record::EventKind;

    /// A message that can complete exactly at a receive's deadline is
    /// delivered, not timed out.
    #[test]
    fn a_match_at_the_deadline_is_delivered() {
        let m = Machine::paragon(1, 2);
        let run = |timeout_ns: Time| {
            simulate(&m, move |mut ctx| async move {
                if ctx.rank() == 0 {
                    ctx.send(1, 3, b"on time");
                    None
                } else {
                    let env = ctx.recv_timeout(Some(0), Some(3), timeout_ns).await;
                    env.map(|env| env.arrival)
                }
            })
        };
        let arrival = run(1_000_000_000).results[1].expect("delivered");
        assert_eq!(run(arrival).results[1], Some(arrival));
        assert_eq!(run(arrival - 1).results[1], None);
    }

    /// A waiting timed receive completes at its match, not at its
    /// deadline: it is processed before a later send of another rank.
    #[test]
    fn a_timed_receive_completes_at_its_match() {
        let m = Machine::paragon(1, 3);
        let config = SimConfig {
            record: true,
            ..SimConfig::default()
        };
        let out = simulate_with(&m, &config, |mut ctx| async move {
            match ctx.rank() {
                0 => ctx.send(1, 3, b"early"),
                1 => {
                    let env = ctx.recv_timeout(Some(0), Some(3), 1_000_000_000).await;
                    assert!(env.is_some());
                }
                _ => {
                    ctx.compute_ns(10_000_000);
                    ctx.send(0, 4, b"late");
                }
            }
        });
        let order = &out.log.order;
        let at = |kind: EventKind| order.iter().position(|&k| k == kind).unwrap();
        let second_send = order
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k == EventKind::Send)
            .nth(1)
            .map(|(i, _)| i)
            .unwrap();
        assert!(at(EventKind::Recv) < second_send, "{order:?}");
    }
}
