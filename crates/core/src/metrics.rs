//! The paper's Figure-2 parameters, computed from measured statistics.
//!
//! Figure 2 contrasts three *algorithm-dependent* parameters
//! (congestion, wait, #send/rec) and two *distribution-dependent* ones
//! (av_msg_lgth, av_act_proc) for 2-Step, PersAlltoAll and Br_Lin on the
//! equal distribution. Here they are derived from the per-rank,
//! per-iteration [`CommStats`] any run produces, so the table can be
//! regenerated for every algorithm/distribution pair.

use mpp_runtime::CommStats;

/// One row of the Figure-2 style table.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure2Row {
    /// Algorithm (and variant) label.
    pub algorithm: String,
    /// Maximum sends+receives any processor handled in one iteration.
    pub congestion: u64,
    /// Maximum number of blocked receives on any processor.
    pub wait: u64,
    /// Maximum total send+receive operations on any processor.
    pub send_rec: u64,
    /// Maximum over processors of the average message length (bytes) per
    /// active iteration.
    pub av_msg_lgth: f64,
    /// Average number of processors communicating per iteration.
    pub av_act_proc: f64,
}

/// Compute the Figure-2 row for one run.
pub fn figure2_row(algorithm: impl Into<String>, stats: &[CommStats]) -> Figure2Row {
    let congestion = stats.iter().map(CommStats::congestion).max().unwrap_or(0);
    let wait = stats.iter().map(CommStats::total_waits).max().unwrap_or(0);
    let send_rec = stats.iter().map(CommStats::total_ops).max().unwrap_or(0);
    let av_msg_lgth = stats.iter().map(|s| s.avg_msg_len()).fold(0.0f64, f64::max);

    // Per-iteration activity across ranks: iteration k is "active" on a
    // rank if the rank sent or received in its k-th bucket.
    let iters = stats.iter().map(|s| s.iters.len()).max().unwrap_or(0);
    let mut total_active = 0u64;
    let mut counted_iters = 0u64;
    for k in 0..iters {
        let active = stats
            .iter()
            .filter(|s| s.iters.get(k).is_some_and(|i| i.active()))
            .count() as u64;
        if active > 0 {
            total_active += active;
            counted_iters += 1;
        }
    }
    let av_act_proc = if counted_iters == 0 {
        0.0
    } else {
        total_active as f64 / counted_iters as f64
    };

    Figure2Row {
        algorithm: algorithm.into(),
        congestion,
        wait,
        send_rec,
        av_msg_lgth,
        av_act_proc,
    }
}

/// Format a slice of rows as an aligned ASCII table (used by the
/// `repro fig02` and the examples).
pub fn format_table(rows: &[Figure2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>10} {:>6} {:>9} {:>12} {:>12}\n",
        "algorithm", "congestion", "wait", "#send/rec", "av_msg_lgth", "av_act_proc"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>10} {:>6} {:>9} {:>12.1} {:>12.1}\n",
            r.algorithm, r.congestion, r.wait, r.send_rec, r.av_msg_lgth, r.av_act_proc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_runtime::CommStats;

    fn stats_with(ops: &[(u64, u64)]) -> CommStats {
        // ops[k] = (sends, recvs) in iteration k
        let mut s = CommStats::new();
        for (k, &(snd, rcv)) in ops.iter().enumerate() {
            for _ in 0..snd {
                s.record_send(100);
            }
            for _ in 0..rcv {
                s.record_recv(100, 0);
            }
            if k + 1 < ops.len() {
                s.next_iteration();
            }
        }
        s
    }

    #[test]
    fn congestion_and_ops_are_maxima() {
        let a = stats_with(&[(1, 1), (3, 0)]);
        let b = stats_with(&[(0, 0), (1, 1)]);
        let row = figure2_row("x", &[a, b]);
        assert_eq!(row.congestion, 3);
        assert_eq!(row.send_rec, 5);
    }

    #[test]
    fn active_processors_averaged_over_busy_iterations() {
        let a = stats_with(&[(1, 0), (1, 0)]);
        let b = stats_with(&[(1, 0), (0, 0)]);
        let row = figure2_row("x", &[a, b]);
        // iteration 0: both active; iteration 1: one active -> avg 1.5
        assert!((row.av_act_proc - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_zero_row() {
        let row = figure2_row("idle", &[CommStats::new(), CommStats::new()]);
        assert_eq!(row.congestion, 0);
        assert_eq!(row.av_act_proc, 0.0);
    }

    #[test]
    fn table_formats_all_rows() {
        let rows = vec![
            figure2_row("A", &[stats_with(&[(1, 1)])]),
            figure2_row("B", &[stats_with(&[(2, 2)])]),
        ];
        let t = format_table(&rows);
        assert!(t.contains("A"));
        assert!(t.contains("B"));
        assert_eq!(t.lines().count(), 3);
    }
}
