//! Schedule recording: the raw material of static schedule analysis.
//!
//! When [`SimConfig::record`](crate::SimConfig) is set, the kernel
//! appends one record per communication operation to its [`EventLog`]
//! and returns the log by value on
//! [`SimOutcome::log`](crate::SimOutcome::log). The records form the *symbolic communication schedule* of the
//! program — who sends what to whom, with which tag, in which iteration,
//! and which concrete message every receive matched — independent of the
//! timing numbers themselves (virtual time is used only to order
//! wildcard matches, exactly as in an untraced run).
//!
//! The log is flat: one array per kind of event, an [`EventKind`] tape
//! that keeps the kernel's processing order across the arrays, and one
//! side array of link windows that transfers address by `(offset, len)`.
//! Recording an operation therefore allocates nothing of its own, and
//! `stp-analyzer` reads the arrays in place instead of copying them.
//!
//! `stp-analyzer` consumes this log to check the schedule as a graph:
//! deadlock cycles, unmatched sends, match ambiguity, payload-completeness
//! leaks, and per-link contention. Recording a run that deadlocks still
//! yields the partial schedule, with one [`BlockedEvent`] per stuck rank:
//! it comes back on the error's
//! [`DeadlockInfo::log`](crate::DeadlockInfo::log), so the analyzer can
//! diagnose the cycle.

use mpp_model::{Link, Time};

use crate::payload::Payload;
use crate::Tag;

/// Which array of the [`EventLog`] an event went to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// [`EventLog::sends`].
    Send,
    /// [`EventLog::xfers`].
    Xfer,
    /// [`EventLog::recvs`].
    Recv,
    /// [`EventLog::iter_ends`].
    IterEnd,
    /// [`EventLog::blocked`].
    Blocked,
    /// [`EventLog::drops`].
    Dropped,
    /// [`EventLog::finishes`].
    Finished,
}

/// The events of one run, in kernel processing order (deterministic).
///
/// `order[i]` names the array the `i`-th event went to, and the `k`-th
/// occurrence of a kind in `order` is entry `k` of that kind's array. Two
/// logs are therefore equal exactly when the kernel processed the same
/// events in the same order, link windows included.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct EventLog {
    /// Kind of each event, in processing order.
    pub order: Vec<EventKind>,
    /// Messages handed to the network.
    pub sends: Vec<SendEvent>,
    /// Network reservations, one per *delivered* message.
    pub xfers: Vec<XferEvent>,
    /// Receives that matched a message.
    pub recvs: Vec<RecvEvent>,
    /// Ranks that closed a statistics iteration (`next_iteration`).
    pub iter_ends: Vec<usize>,
    /// Ranks stuck in `recv` when the run deadlocked.
    pub blocked: Vec<BlockedEvent>,
    /// Transmission attempts lost to the active fault plan.
    pub drops: Vec<DropEvent>,
    /// Rank programs that returned.
    pub finishes: Vec<FinishEvent>,
    /// Per-hop link reservations of all transfers, back to back; see
    /// [`EventLog::windows_of`].
    pub windows: Vec<LinkWindow>,
}

// Per-thread spare log: a dropped log parks its (emptied) arrays here and
// the next recording on the thread starts from them, so a sweep of
// recorded runs touches fresh memory only until it has seen its largest
// run once.
thread_local! {
    static SPARE: std::cell::RefCell<EventLog> = std::cell::RefCell::new(EventLog::default());
}

impl Drop for EventLog {
    fn drop(&mut self) {
        // Trade arrays with the spare unless it already holds larger
        // ones; what is traded away is freed with `self`. A thread that
        // is shutting down has no spare any more.
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.order.capacity() < self.order.capacity() {
                self.clear();
                std::mem::swap(&mut *spare, self);
            }
        });
    }
}

impl EventLog {
    /// An empty log on the arrays of the largest log dropped on this
    /// thread so far.
    pub(crate) fn recycled() -> EventLog {
        SPARE.with(|spare| std::mem::take(&mut *spare.borrow_mut()))
    }

    fn clear(&mut self) {
        self.order.clear();
        self.sends.clear();
        self.xfers.clear();
        self.recvs.clear();
        self.iter_ends.clear();
        self.blocked.clear();
        self.drops.clear();
        self.finishes.clear();
        self.windows.clear();
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The link windows `xfer` reserved, in route order (empty for a
    /// node-local delivery).
    pub fn windows_of(&self, xfer: &XferEvent) -> &[LinkWindow] {
        &self.windows[xfer.win_off as usize..][..xfer.win_len as usize]
    }
}

/// The busy window one transfer reserved on one directed link, in route
/// order. `from_ns`/`until_ns` bracket the interval the link was held:
/// the wormhole head reaches hop `i` at `start + i·τ`, and the link
/// drains for the transfer's serialization time after that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkWindow {
    /// The directed link.
    pub link: Link,
    /// Start of the reserved window (ns).
    pub from_ns: Time,
    /// The link's new busy-until time (ns).
    pub until_ns: Time,
}

/// A message handed to the network.
///
/// `step` is the issuing rank's iteration index — the number of
/// [`next_iteration`](crate::RankCtx::next_iteration) marks that rank had
/// recorded when the operation was issued. Algorithms call it once per
/// communication round, so `step` aligns with the paper's iterations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendEvent {
    /// Sender's iteration index at issue time.
    pub step: u32,
    /// Global message sequence number (unique, issue-ordered).
    pub seq: u64,
    /// Sending rank.
    pub src: usize,
    /// Destination rank.
    pub dst: usize,
    /// Message tag.
    pub tag: Tag,
    /// The payload (shared rope — recording copies no bytes).
    pub data: Payload,
    /// The sender's virtual clock when it issued the send (ns) — the
    /// software-ready instant is `issue_ns + α_send`.
    pub issue_ns: Time,
}

/// The network's resource reservations for one delivered message — the
/// timing ground truth the static cost engine replays against. Recorded
/// once per *delivered* message (a message every attempt of which was
/// dropped has no transfer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XferEvent {
    /// Sequence number of the delivered message.
    pub seq: u64,
    /// Sending rank.
    pub src: usize,
    /// Destination rank.
    pub dst: usize,
    /// On-wire payload size (bytes).
    pub bytes: usize,
    /// The instant the message was handed to the network (ns):
    /// `issue + α_send`, plus retry backoff and fault-plan injection
    /// delay when a fault plan is active.
    pub ready_ns: Time,
    /// Head injection instant after port and link arbitration (ns).
    pub start_ns: Time,
    /// Arrival at the destination mailbox (ns).
    pub done_ns: Time,
    /// Delay beyond the resource-free traversal of the route (ns).
    pub stall_ns: Time,
    /// Injection-port slot reserved at the source node (`None` for a
    /// node-local memcpy delivery).
    pub out_slot: Option<u32>,
    /// Ejection-port slot reserved at the destination node.
    pub in_slot: Option<u32>,
    /// Offset of this transfer's per-hop reservations in
    /// [`EventLog::windows`] (route order).
    pub win_off: u32,
    /// Number of hops (0 for a node-local delivery).
    pub win_len: u32,
}

impl XferEvent {
    /// Whether this was a node-local memcpy delivery (no network
    /// resources reserved).
    pub fn is_local(&self) -> bool {
        self.out_slot.is_none()
    }
}

/// A receive that matched a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvEvent {
    /// Receiver's iteration index at issue time.
    pub step: u32,
    /// Receiving rank.
    pub rank: usize,
    /// The receive's source filter (`None` = wildcard).
    pub src_filter: Option<usize>,
    /// The receive's tag filter (`None` = wildcard).
    pub tag_filter: Option<Tag>,
    /// Sequence number of the matched message.
    pub seq: u64,
    /// Sender of the matched message.
    pub src: usize,
    /// Tag of the matched message.
    pub tag: Tag,
    /// How many in-flight messages with the *same* `(src, tag)` sat in
    /// the mailbox at match time (including the matched one). `> 1`
    /// means delivery order decided which message this receive consumed
    /// — the match-ambiguity hazard the analyzer flags.
    pub dup_in_flight: usize,
    /// The receiver's virtual clock when the match was processed (ns);
    /// its post-receive clock is `max(start_ns, arrival_ns) + α_recv`.
    pub start_ns: Time,
    /// The matched message's mailbox arrival time (ns).
    pub arrival_ns: Time,
}

/// A rank that was blocked in `recv` when the run deadlocked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedEvent {
    /// The stuck rank.
    pub rank: usize,
    /// Its receive's source filter (`None` = wildcard).
    pub src_filter: Option<usize>,
    /// Its receive's tag filter (`None` = wildcard).
    pub tag_filter: Option<Tag>,
}

/// A transmission attempt lost to the active fault plan (recorded once
/// per lost attempt; the logical message keeps its single [`SendEvent`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropEvent {
    /// Sequence number of the affected message.
    pub seq: u64,
    /// Sending rank.
    pub src: usize,
    /// Destination rank.
    pub dst: usize,
    /// Which attempt this was (0-based).
    pub attempt: u32,
    /// True when this was the final permitted attempt — the message is
    /// lost for good and will never reach `dst`'s mailbox.
    pub exhausted: bool,
}

/// A rank's program returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishEvent {
    /// The finishing rank.
    pub rank: usize,
    /// Messages still sitting undelivered in its mailbox — each is a
    /// send that can never be received.
    pub leftover: usize,
    /// The rank's final virtual clock (ns) — its completion time.
    pub finish_ns: Time,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xfer(seq: u64, win_off: u32, win_len: u32) -> XferEvent {
        XferEvent {
            seq,
            src: 0,
            dst: 1,
            bytes: 8,
            ready_ns: 0,
            start_ns: 0,
            done_ns: 10,
            stall_ns: 0,
            out_slot: Some(0),
            in_slot: Some(0),
            win_off,
            win_len,
        }
    }

    #[test]
    fn transfers_address_their_windows_by_offset_and_length() {
        let window = |to: usize| LinkWindow {
            link: Link::new(to - 1, to),
            from_ns: 0,
            until_ns: 10,
        };
        let mut log = EventLog::default();
        log.order = vec![EventKind::Xfer; 2];
        log.xfers = vec![xfer(1, 0, 2), xfer(2, 2, 1)];
        log.windows = vec![window(1), window(2), window(3)];
        assert_eq!(log.len(), 2);
        assert_eq!(log.windows_of(&log.xfers[0]), &log.windows[..2]);
        assert_eq!(log.windows_of(&log.xfers[1]), &log.windows[2..]);
    }

    #[test]
    fn equality_sees_processing_order_across_kinds() {
        let finish = FinishEvent {
            rank: 0,
            leftover: 0,
            finish_ns: 1000,
        };
        let log = |order: [EventKind; 2]| {
            let mut log = EventLog::default();
            log.order = order.to_vec();
            log.iter_ends = vec![0];
            log.finishes = vec![finish.clone()];
            log
        };
        let a = log([EventKind::IterEnd, EventKind::Finished]);
        assert_eq!(a, log([EventKind::IterEnd, EventKind::Finished]));
        assert_ne!(a, log([EventKind::Finished, EventKind::IterEnd]));
    }
}
