//! Timed backend: `Communicator` over the `mpp-sim` kernel.

use mpp_model::{LibraryKind, Machine, Time};
use mpp_sim::{try_simulate_with, KernelCounters, Payload, RankCtx, SimConfig, SimError};

use crate::comm::{BarrierFut, Communicator, RecvFut, RecvTimeoutFut};
use crate::stats::CommStats;
use crate::Tag;

/// A [`Communicator`] executing on the deterministic discrete-event
/// simulator. Created for each rank by [`run_simulated`].
pub struct SimComm {
    ctx: RankCtx,
    stats: CommStats,
}

impl SimComm {
    fn new(ctx: RankCtx) -> Self {
        SimComm {
            ctx,
            stats: CommStats::new(),
        }
    }

    /// Current virtual clock of this rank (ns).
    pub fn clock(&self) -> Time {
        self.ctx.clock()
    }

    /// Charge raw computation time (ns) — rarely needed by algorithms,
    /// exposed for workload modelling in examples.
    pub fn compute_ns(&mut self, ns: Time) {
        self.ctx.compute_ns(ns);
    }
}

impl Communicator for SimComm {
    fn rank(&self) -> usize {
        self.ctx.rank()
    }

    fn size(&self) -> usize {
        self.ctx.size()
    }

    fn send(&mut self, dst: usize, tag: Tag, data: &[u8]) {
        self.stats.record_send(data.len());
        self.stats.record_copy(data.len());
        self.ctx.send(dst, tag, data);
    }

    fn send_payload(&mut self, dst: usize, tag: Tag, data: Payload) {
        self.stats.record_send(data.len());
        self.ctx.send_payload(dst, tag, data);
    }

    fn send_batch(&mut self, msgs: Vec<(usize, Tag, Payload)>) {
        // Statistics see one logical send per member; the kernel charges
        // one α_send for the whole batch and arbitrates the members
        // across the node's free port slots.
        for (_, _, data) in &msgs {
            self.stats.record_send(data.len());
        }
        self.ctx.send_batch(msgs);
    }

    fn ports(&self) -> usize {
        self.ctx.ports()
    }

    fn recv(&mut self, src: Option<usize>, tag: Option<Tag>) -> RecvFut<'_> {
        // Split borrow: the kernel future borrows `ctx`, the statistics
        // borrow rides alongside and is recorded at resolution.
        let SimComm { ctx, stats } = self;
        RecvFut::new(ctx.recv(src, tag), stats)
    }

    fn recv_timeout(
        &mut self,
        src: Option<usize>,
        tag: Option<Tag>,
        timeout_ns: u64,
    ) -> RecvTimeoutFut<'_> {
        let SimComm { ctx, stats } = self;
        RecvTimeoutFut::new(ctx.recv_timeout(src, tag, timeout_ns), stats)
    }

    fn barrier(&mut self) -> BarrierFut<'_> {
        BarrierFut::new(self.ctx.barrier())
    }

    fn charge_memcpy(&mut self, bytes: usize) {
        self.stats.record_memcpy(bytes);
        self.ctx.charge_memcpy(bytes);
    }

    fn next_iteration(&mut self) {
        self.stats.next_iteration();
        // Zero-cost marker; a no-op unless the run records a schedule.
        self.ctx.iter_mark();
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }
}

/// Everything a timed run produces.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Per-rank return values.
    pub results: Vec<R>,
    /// Per-rank statistics.
    pub stats: Vec<CommStats>,
    /// Per-rank virtual finish times (ns).
    pub finish_ns: Vec<Time>,
    /// Maximum finish time — the time the paper reports (ns).
    pub makespan_ns: Time,
    /// Link/port contention stalls observed in the network.
    pub contention_events: u64,
    /// Total stall time (ns).
    pub contention_ns: Time,
    /// The kernel's own work, in counts.
    pub counters: KernelCounters,
}

impl<R> RunOutput<R> {
    /// Makespan in milliseconds (the unit of the paper's plots).
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ns as f64 / 1e6
    }
}

/// Run `program` on every rank of `machine` under `lib`, timed.
pub fn run_simulated<R, F>(machine: &Machine, lib: LibraryKind, program: F) -> RunOutput<R>
where
    R: Send,
    F: AsyncFn(&mut SimComm) -> R + Sync,
{
    let config = SimConfig {
        lib,
        ..SimConfig::default()
    };
    run_simulated_with(machine, &config, program)
}

/// Run `program` under an explicit [`SimConfig`] — the full-control
/// entry point used for schedule recording (`config.recorder`), strict
/// runtime schedule checks (`config.strict`), and executor selection
/// (`config.exec`).
///
/// # Panics
///
/// Panics on any abnormal termination ([`SimError`]); supervised
/// callers use [`try_run_simulated_with`].
pub fn run_simulated_with<R, F>(machine: &Machine, config: &SimConfig, program: F) -> RunOutput<R>
where
    R: Send,
    F: AsyncFn(&mut SimComm) -> R + Sync,
{
    try_run_simulated_with(machine, config, program).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`run_simulated_with`], but abnormal terminations — deadlock,
/// rank panics, watchdog budget trips, cancellation — come back as
/// `Err(SimError)` with the kernel shut down cleanly instead of
/// panicking. The supervised entry point sweep engines build on.
pub fn try_run_simulated_with<R, F>(
    machine: &Machine,
    config: &SimConfig,
    program: F,
) -> Result<RunOutput<R>, SimError>
where
    R: Send,
    F: AsyncFn(&mut SimComm) -> R + Sync,
{
    let program = &program;
    let out = try_simulate_with(machine, config, move |ctx| async move {
        let mut comm = SimComm::new(ctx);
        let r = program(&mut comm).await;
        (r, comm.stats)
    })?;
    let (results, mut stats): (Vec<R>, Vec<CommStats>) = out.results.into_iter().unzip();
    // Fold the kernel's fault counters into the per-rank stats so
    // algorithms and reports see one coherent CommStats per rank.
    for (st, fs) in stats.iter_mut().zip(&out.fault_stats) {
        st.retransmits = fs.retransmits;
        st.dropped = fs.dropped;
        st.rerouted_hops = fs.rerouted_hops;
        st.detour_ns = fs.detour_ns;
    }
    Ok(RunOutput {
        results,
        stats,
        finish_ns: out.finish_ns,
        makespan_ns: out.makespan_ns,
        contention_events: out.contention_events,
        contention_ns: out.contention_ns,
        counters: out.counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_flow_back_per_rank() {
        let m = Machine::paragon(1, 4);
        let out = run_simulated(&m, LibraryKind::Nx, async |comm| {
            if comm.rank() == 0 {
                for dst in 1..comm.size() {
                    comm.send(dst, 0, &[0u8; 512]);
                }
            } else {
                comm.recv(Some(0), Some(0)).await;
            }
            comm.rank()
        });
        assert_eq!(out.results, vec![0, 1, 2, 3]);
        assert_eq!(out.stats[0].total_sends(), 3);
        assert_eq!(out.stats[0].total_recvs(), 0);
        for r in 1..4 {
            assert_eq!(out.stats[r].total_recvs(), 1);
            assert_eq!(out.stats[r].iters[0].bytes_recv, 512);
        }
        assert!(out.makespan_ns > 0);
    }

    #[test]
    fn iteration_buckets_propagate() {
        let m = Machine::paragon(1, 2);
        let out = run_simulated(&m, LibraryKind::Nx, async |comm| {
            let peer = 1 - comm.rank();
            comm.send(peer, 0, b"x");
            comm.recv(Some(peer), Some(0)).await;
            comm.next_iteration();
            comm.send(peer, 1, b"yy");
            comm.recv(Some(peer), Some(1)).await;
        });
        for st in &out.stats {
            assert_eq!(st.iters.len(), 2);
            assert_eq!(st.iters[0].ops(), 2);
            assert_eq!(st.iters[1].ops(), 2);
        }
    }

    #[test]
    fn memcpy_charges_show_in_stats_and_time() {
        let m = Machine::paragon(1, 2);
        let out = run_simulated(&m, LibraryKind::Nx, async |comm| {
            if comm.rank() == 0 {
                comm.charge_memcpy(1 << 20);
            }
        });
        assert_eq!(out.stats[0].memcpy_bytes, 1 << 20);
        assert_eq!(out.finish_ns[0], m.params.memcpy_ns(1 << 20));
    }

    #[test]
    fn deterministic_run_output() {
        let m = Machine::t3d(16, 5);
        let run = || {
            run_simulated(&m, LibraryKind::Mpi, async |comm| {
                let p = comm.size();
                let next = (comm.rank() + 1) % p;
                comm.send(next, 0, &[7u8; 64]);
                let prev = (comm.rank() + p - 1) % p;
                comm.recv(Some(prev), Some(0)).await.data.len()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.finish_ns, b.finish_ns);
    }

    #[test]
    fn fault_counters_reach_comm_stats() {
        use mpp_sim::FaultPlan;
        let m = Machine::paragon(2, 4);
        let config = SimConfig {
            lib: LibraryKind::Nx,
            faults: Some(FaultPlan::transient_drops(11, 1, 2, 20)),
            ..SimConfig::default()
        };
        let out = run_simulated_with(&m, &config, async |comm| {
            if comm.rank() == 0 {
                for _ in 1..comm.size() {
                    comm.recv(None, None).await;
                }
            } else {
                comm.send(0, 0, &[3u8; 256]);
            }
        });
        let retransmits: u64 = out.stats.iter().map(|s| s.retransmits).sum();
        assert!(retransmits > 0, "1/2 drop rate must show up in CommStats");
        assert!(out.stats.iter().all(|s| s.dropped == 0));
    }

    #[test]
    fn recv_timeout_on_simulator() {
        let m = Machine::paragon(1, 2);
        let out = run_simulated(&m, LibraryKind::Nx, async |comm| {
            if comm.rank() == 1 {
                let miss = comm.recv_timeout(Some(0), Some(5), 100).await;
                assert!(miss.is_none(), "no send has happened yet");
                comm.send(0, 7, b"go");
                let hit = comm.recv_timeout(Some(0), Some(5), 1_000_000_000).await;
                hit.is_some()
            } else {
                // Waits for rank 1's timeout to expire before sending.
                comm.recv(Some(1), Some(7)).await;
                comm.send(1, 5, b"late");
                false
            }
        });
        assert_eq!(out.results, vec![false, true]);
        // Only the delivered receive counts; the timed-out one does not.
        assert_eq!(out.stats[1].total_recvs(), 1);
    }

    #[test]
    fn runs_replay_exactly_through_the_runtime() {
        let m = Machine::t3d(16, 5);
        let config = SimConfig {
            lib: LibraryKind::Nx,
            ..SimConfig::default()
        };
        let run = || {
            run_simulated_with(&m, &config, async |comm| {
                let p = comm.size();
                for hop in [1usize, 3, 7] {
                    comm.send((comm.rank() + hop) % p, hop as Tag, &[9u8; 96]);
                }
                let mut total = 0usize;
                for _ in 0..3 {
                    let msg = comm.recv(None, None).await;
                    comm.charge_memcpy(msg.data.len());
                    total += msg.data.len();
                }
                comm.next_iteration();
                comm.barrier().await;
                total
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a.results, b.results);
        assert_eq!(a.finish_ns, b.finish_ns);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.counters.iter_ends, 16);
    }
}
