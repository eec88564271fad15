//! A plain-text view of one recorded run: message totals and a per-rank
//! timeline, both read from the run's [`EventLog`].
//!
//! Record the run with [`SimConfig::recorder`](crate::SimConfig); every
//! delivered message is one [`XferEvent`](crate::XferEvent) there, in
//! kernel order. Useful for seeing *why* an algorithm is slow on a
//! distribution: hot-spot serialization shows up as a ladder of stalled
//! transfers into one rank, combining stalls as gaps between a rank's
//! receive and its next send.

use mpp_model::Time;

use crate::record::EventLog;

/// Aggregate statistics over the delivered messages of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Number of delivered messages.
    pub messages: usize,
    /// Total payload bytes.
    pub bytes: u64,
    /// Total stalled time across transfers (ns).
    pub stalled_ns: Time,
}

/// Summarize the delivered messages of a recorded run.
pub fn summarize(log: &EventLog) -> TraceSummary {
    TraceSummary {
        messages: log.xfers.len(),
        bytes: log.xfers.iter().map(|x| x.bytes as u64).sum(),
        stalled_ns: log.xfers.iter().map(|x| x.stall_ns).sum(),
    }
}

/// Render a per-rank timeline of message activity as text: one row per
/// rank, `width` columns spanning virtual time; `>` marks a send, `<` an
/// arrival, `#` both in the same cell.
///
/// A send is marked where it left the sender's software, `issue +
/// alpha_send` (pass the run's α_send), so retry backoff and fault-plan
/// injection delays move only the arrival.
pub fn render_timeline(log: &EventLog, alpha_send: Time, ranks: usize, width: usize) -> String {
    let span = log
        .xfers
        .iter()
        .map(|x| x.done_ns)
        .max()
        .unwrap_or(0)
        .max(1);
    let col = |t: Time| ((t as u128 * (width as u128 - 1)) / span as u128) as usize;
    let mut grid = vec![vec![b' '; width]; ranks];
    for x in &log.xfers {
        if x.src < ranks {
            // Sends are logged in `seq` order, one per logical message.
            let send = log
                .sends
                .binary_search_by_key(&x.seq, |s| s.seq)
                .map(|i| &log.sends[i])
                .expect("a transfer without its send");
            let c = col(send.issue_ns + alpha_send);
            grid[x.src][c] = if grid[x.src][c] == b'<' { b'#' } else { b'>' };
        }
        if x.dst < ranks {
            let c = col(x.done_ns);
            grid[x.dst][c] = if grid[x.dst][c] == b'>' { b'#' } else { b'<' };
        }
    }
    let mut out = String::new();
    for (rank, row) in grid.into_iter().enumerate() {
        out.push_str(&format!("{rank:>4} |"));
        out.push_str(std::str::from_utf8(&row).unwrap());
        out.push('\n');
    }
    out.push_str(&format!("     0 .. {:.3} ms\n", span as f64 / 1e6));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule_log, simulate_with, Payload, SendEvent, SimConfig, XferEvent};
    use mpp_model::{LibraryKind, Machine};

    /// One delivered message `src → dst`, issued at `issue` and arriving
    /// at `done`.
    fn message(log: &mut EventLog, src: usize, dst: usize, issue: Time, done: Time) {
        let seq = log.sends.len() as u64 + 1;
        log.sends.push(SendEvent {
            step: 0,
            seq,
            src,
            dst,
            tag: 0,
            data: Payload::new(),
            issue_ns: issue,
        });
        log.xfers.push(XferEvent {
            seq,
            src,
            dst,
            bytes: 100,
            ready_ns: issue,
            start_ns: issue,
            done_ns: done,
            stall_ns: 10,
            out_slot: None,
            in_slot: None,
            win_off: 0,
            win_len: 0,
        });
    }

    #[test]
    fn a_recorded_run_summarizes_every_delivered_message() {
        let m = Machine::paragon(2, 2);
        let log = schedule_log();
        let config = SimConfig {
            recorder: Some(log.clone()),
            ..SimConfig::default()
        };
        let out = simulate_with(&m, &config, |mut ctx| async move {
            if ctx.rank() == 0 {
                for dst in 1..4 {
                    ctx.send(dst, 5, &[0u8; 256]);
                }
            } else {
                ctx.recv(Some(0), Some(5)).await;
            }
        });
        let events = std::mem::take(&mut log.lock().unwrap().events);
        let sum = summarize(&events);
        assert_eq!((sum.messages, sum.bytes), (3, 768));
        assert_eq!(sum.stalled_ns, out.contention_ns);
        let alpha = m.params.alpha_send(LibraryKind::Nx);
        let text = render_timeline(&events, alpha, 4, 40);
        assert_eq!(text.lines().count(), 5); // 4 ranks + time axis
        assert!(text.lines().next().unwrap().contains('>'));
        assert!(text.lines().nth(3).unwrap().contains('<'));
    }

    #[test]
    fn empty_log_summary() {
        let s = summarize(&EventLog::default());
        assert_eq!((s.messages, s.bytes, s.stalled_ns), (0, 0, 0));
    }

    #[test]
    fn sends_are_marked_at_issue_plus_alpha() {
        let mut log = EventLog::default();
        message(&mut log, 0, 1, 0, 1000);
        // α = 0 puts the send in column 0, α = 500 mid-row.
        assert_eq!(
            render_timeline(&log, 0, 2, 11).lines().next(),
            Some("   0 |>          ")
        );
        assert_eq!(
            render_timeline(&log, 500, 2, 11).lines().next(),
            Some("   0 |     >     ")
        );
        assert_eq!(
            render_timeline(&log, 0, 2, 11).lines().nth(1),
            Some("   1 |          <")
        );
    }

    #[test]
    fn timeline_marks_overlap() {
        // Send and arrival in the same cell on the same rank -> '#'.
        let mut log = EventLog::default();
        message(&mut log, 0, 0, 500, 500);
        let text = render_timeline(&log, 0, 1, 10);
        assert!(text.contains('#'), "{text}");
    }
}
