//! Per-rank communication statistics.
//!
//! Every [`RankCtx`](crate::RankCtx) call records into its rank's
//! [`CommStats`], and a run returns them on
//! [`SimOutcome::stats`](crate::SimOutcome::stats). The counters are
//! bucketed by *iteration* (algorithms call
//! [`RankCtx::next_iteration`](crate::RankCtx::next_iteration) once per
//! communication round), because
//! the paper's Figure-2 parameters are per-iteration quantities:
//!
//! * **congestion** — the maximum number of sends+receives a processor
//!   handles in one iteration,
//! * **wait** — how many times a processor waits for data before its next
//!   send can proceed,
//! * **#send/rec** — total send and receive operations over the whole
//!   algorithm,
//! * **av_msg_lgth** — average length of the messages a processor sends
//!   and receives, averaged over iterations,
//! * **av_act_proc** — average number of processors active per iteration
//!   (computed across ranks by `stp-core::metrics`).

/// Counters for one statistics iteration on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterStats {
    /// Send operations issued.
    pub sends: u64,
    /// Receive operations completed.
    pub recvs: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Receives that found no message waiting (the rank blocked).
    pub waits: u64,
    /// Total blocked virtual time in ns.
    pub wait_ns: u64,
}

impl IterStats {
    /// Sends plus receives — the paper's per-iteration congestion measure.
    #[inline]
    pub fn ops(&self) -> u64 {
        self.sends + self.recvs
    }

    /// Whether this rank did any communication this iteration.
    #[inline]
    pub fn active(&self) -> bool {
        self.ops() > 0
    }
}

/// Full per-rank statistics for one algorithm execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Per-iteration buckets; index 0 is everything before the first
    /// `next_iteration` call.
    pub iters: Vec<IterStats>,
    /// Bytes charged through `charge_memcpy` (message-combining volume).
    pub memcpy_bytes: u64,
    /// Host-side payload bytes physically copied by this rank's
    /// communication calls. The zero-copy path (`send_payload`) keeps
    /// this at 0; the legacy `send(&[u8])` path pays one copy per send.
    pub bytes_copied: u64,
    /// Host-side payload buffer allocations made by this rank's
    /// communication calls (one per flat `send`, none per rope send).
    pub allocs: u64,
    /// Transmission attempts this rank re-injected after a fault-plan
    /// drop (0 unless the run had a [`FaultPlan`](crate::FaultPlan)).
    pub retransmits: u64,
    /// Messages this rank lost for good — every permitted attempt was
    /// dropped by the fault plan.
    pub dropped: u64,
    /// Extra hops this rank's messages travelled on detours around dead
    /// links, summed over messages.
    pub rerouted_hops: u64,
    /// Extra virtual time (ns) those detour hops cost versus the
    /// dimension-ordered route.
    pub detour_ns: u64,
}

impl CommStats {
    /// Fresh, empty statistics.
    pub fn new() -> Self {
        CommStats {
            iters: vec![IterStats::default()],
            memcpy_bytes: 0,
            bytes_copied: 0,
            allocs: 0,
            retransmits: 0,
            dropped: 0,
            rerouted_hops: 0,
            detour_ns: 0,
        }
    }

    fn cur(&mut self) -> &mut IterStats {
        self.iters
            .last_mut()
            .expect("stats always have an open iteration")
    }

    /// Record one send of `bytes` payload bytes.
    pub fn record_send(&mut self, bytes: usize) {
        let it = self.cur();
        it.sends += 1;
        it.bytes_sent += bytes as u64;
    }

    /// Record one completed receive.
    pub fn record_recv(&mut self, bytes: usize, waited_ns: u64) {
        let it = self.cur();
        it.recvs += 1;
        it.bytes_recv += bytes as u64;
        if waited_ns > 0 {
            it.waits += 1;
            it.wait_ns += waited_ns;
        }
    }

    /// Record combining volume.
    pub fn record_memcpy(&mut self, bytes: usize) {
        self.memcpy_bytes += bytes as u64;
    }

    /// Record one host-side payload copy of `bytes` bytes (a fresh
    /// buffer allocation plus a memcpy into it).
    pub fn record_copy(&mut self, bytes: usize) {
        self.bytes_copied += bytes as u64;
        self.allocs += 1;
    }

    /// Close the current iteration bucket.
    pub fn next_iteration(&mut self) {
        self.iters.push(IterStats::default());
    }

    /// Total send operations.
    pub fn total_sends(&self) -> u64 {
        self.iters.iter().map(|i| i.sends).sum()
    }

    /// Total receive operations.
    pub fn total_recvs(&self) -> u64 {
        self.iters.iter().map(|i| i.recvs).sum()
    }

    /// Total send+receive operations (the paper's `#send/rec`).
    pub fn total_ops(&self) -> u64 {
        self.total_sends() + self.total_recvs()
    }

    /// Total payload bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.iters.iter().map(|i| i.bytes_sent + i.bytes_recv).sum()
    }

    /// Total number of blocked receives (the paper's `wait`).
    pub fn total_waits(&self) -> u64 {
        self.iters.iter().map(|i| i.waits).sum()
    }

    /// Maximum sends+receives in any single iteration (`congestion`).
    pub fn congestion(&self) -> u64 {
        self.iters.iter().map(|i| i.ops()).max().unwrap_or(0)
    }

    /// Average message length over the iterations in which this rank
    /// communicated (`av_msg_lgth` for one rank). Returns 0.0 if the rank
    /// never communicated.
    pub fn avg_msg_len(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u64;
        for it in &self.iters {
            if it.active() {
                sum += (it.bytes_sent + it.bytes_recv) as f64 / it.ops() as f64;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_bucket_by_iteration() {
        let mut s = CommStats::new();
        s.record_send(100);
        s.record_recv(50, 0);
        s.next_iteration();
        s.record_send(200);
        assert_eq!(s.iters.len(), 2);
        assert_eq!(s.iters[0].ops(), 2);
        assert_eq!(s.iters[1].ops(), 1);
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.total_bytes(), 350);
    }

    #[test]
    fn congestion_is_max_per_iteration() {
        let mut s = CommStats::new();
        for _ in 0..5 {
            s.record_send(1);
        }
        s.next_iteration();
        s.record_send(1);
        assert_eq!(s.congestion(), 5);
    }

    #[test]
    fn waits_only_counted_when_blocked() {
        let mut s = CommStats::new();
        s.record_recv(10, 0);
        s.record_recv(10, 500);
        assert_eq!(s.total_waits(), 1);
    }

    #[test]
    fn avg_msg_len_ignores_idle_iterations() {
        let mut s = CommStats::new();
        s.record_send(1000);
        s.next_iteration(); // idle iteration
        s.next_iteration();
        s.record_send(3000);
        // (1000/1 + 3000/1) / 2 = 2000
        assert!((s.avg_msg_len() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = CommStats::new();
        assert_eq!(s.congestion(), 0);
        assert_eq!(s.avg_msg_len(), 0.0);
        assert_eq!(s.total_ops(), 0);
    }
}
