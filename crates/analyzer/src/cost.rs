//! The static cost engine: replay a recorded schedule against the
//! machine's timing parameters, independently of the kernel.
//!
//! The engine re-implements the α–β postal model and the contention
//! arithmetic (staggered wormhole link windows and port-slot
//! arbitration) from the recorded inputs alone: each send's issue
//! clock, each transfer's network-ready instant, and the route it took.
//! Recorded gaps between a rank's operations are treated as opaque
//! local work. Everything else — port slots, link windows,
//! injection/arrival instants, stalls, per-rank completion times, and
//! the makespan — is **recomputed** and compared against the kernel's
//! recorded ground truth. So is the
//! executor's event order where it shows: every receive must have
//! matched the message the mailbox rule selects from the recomputed
//! arrivals (see `check_matches`).
//!
//! **Cost-model conformance**: any mismatch between a recomputed value
//! and the recorded one is a [`CostReport::divergences`] entry — a bug
//! in either the cost engine or the kernel, surfaced by the analyzer as
//! an error-severity `cost_model_divergence` finding and machine-checked
//! in CI over the whole lint matrix.
//!
//! On top of the replay the engine derives the structures the perf
//! lints consume: the dependency-weighted critical path (attributing
//! each nanosecond of the makespan to a rank's α/local work, a link, or
//! a port wait), per-transfer slack, per-link busy timelines, and
//! per-node injection-port concurrency.

use std::collections::BTreeMap;

use mpp_model::{LibraryKind, Link, Machine, Time};
use mpp_runtime::Tag;

use crate::schedule::{grouped, Schedule, NONE};

/// Cap on recorded divergence messages per schedule: the first mismatch
/// is the signal; later ones usually cascade from it.
const DIVERGENCE_CAP: usize = 8;

/// Top transfers kept per link busy timeline.
const TOP_TRANSFERS: usize = 3;

/// Busy timeline of one directed link, from the recorded link windows.
#[derive(Debug, Clone, Default)]
pub struct LinkTimeline {
    /// Messages that reserved this link.
    pub messages: u64,
    /// Sum of reserved window durations (ns).
    pub busy_ns: Time,
    /// Start of the first reserved window (ns).
    pub first_busy_ns: Time,
    /// End of the last reserved window (ns).
    pub last_busy_ns: Time,
    /// Heaviest transfers through this link:
    /// `(seq, src, dst, window_ns)`, longest first.
    pub top: Vec<(u64, usize, usize, Time)>,
}

impl LinkTimeline {
    /// Account one reserved window. `top` stays what sorting every
    /// window by (duration descending, seq ascending) and keeping the
    /// first [`TOP_TRANSFERS`] would give, without keeping the rest.
    fn reserve(&mut self, from_ns: Time, until_ns: Time, seq: u64, src: usize, dst: usize) {
        let dur = until_ns.saturating_sub(from_ns);
        if self.messages == 0 {
            self.first_busy_ns = Time::MAX;
        }
        self.messages += 1;
        self.busy_ns += dur;
        self.first_busy_ns = self.first_busy_ns.min(from_ns);
        self.last_busy_ns = self.last_busy_ns.max(until_ns);
        let at = self
            .top
            .iter()
            .position(|&(s, _, _, d)| (dur, s) > (d, seq))
            .unwrap_or(self.top.len());
        if at < TOP_TRANSFERS {
            self.top.truncate(TOP_TRANSFERS - 1);
            self.top.insert(at, (seq, src, dst, dur));
        }
    }
}

/// Injection-port usage of one node.
#[derive(Debug, Clone, Default)]
pub struct PortUse {
    /// Networked sends injected at this node.
    pub sends: usize,
    /// Maximum number of concurrently busy injection-port windows.
    pub max_out_concurrency: usize,
}

/// The dependency-weighted critical path: a backward walk from the
/// latest-finishing rank attributing time to ranks, links, and ports.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Time attributed to each rank (α overheads + local work) (ns).
    pub by_rank_ns: Vec<Time>,
    /// Transfer spans attributed to each link on the path (ns).
    pub by_link_ns: BTreeMap<Link, Time>,
    /// Contention stalls accumulated by transfers on the path (ns).
    pub stall_ns: Time,
    /// Resource-free traversal time of transfers on the path (ns).
    pub free_ns: Time,
    /// Transfers on the path.
    pub xfers: usize,
    /// Waits attributed to busy injection/ejection ports (ns).
    pub port_wait_ns: Time,
}

/// Everything the cost engine computed for one schedule.
#[derive(Debug, Clone, Default)]
pub struct CostReport {
    /// Conformance failures: recomputed values that differ from the
    /// kernel's recording (capped at `DIVERGENCE_CAP` entries).
    pub divergences: Vec<String>,
    /// Recomputed completion time per rank (ns).
    pub rank_finish_ns: Vec<Time>,
    /// Recomputed makespan (ns).
    pub makespan_ns: Time,
    /// Critical-path decomposition.
    pub crit: CriticalPath,
    /// Busy timeline per directed link (recorded ground truth).
    pub links: BTreeMap<Link, LinkTimeline>,
    /// Injection-port usage per node.
    pub ports: Vec<PortUse>,
    /// The link of every recorded window (by position in
    /// [`Schedule::windows`]), as an index into `link_table`.
    pub(crate) window_link: Vec<u32>,
    /// The distinct links the schedule reserved, in first-use order.
    pub(crate) link_table: Vec<Link>,
}

impl CostReport {
    /// True when the replay matched the kernel exactly.
    pub fn conformant(&self) -> bool {
        self.divergences.is_empty()
    }

    fn diverge(&mut self, msg: impl FnOnce() -> String) {
        if self.divergences.len() < DIVERGENCE_CAP {
            self.divergences.push(msg());
        }
    }
}

/// Compact ids (first-use order) for the directed links a schedule
/// touches, so everything per link is an array indexed by id. This is
/// the engine's own table — it shares nothing with the kernel's
/// `from·n + to` busy table it is checked against. Links hang off their
/// `from` node in short chains (a node has a handful of neighbours), so
/// the table is linear in the machine, takes any link the recording
/// names — one spare bucket holds those whose `from` lies outside the
/// machine — and never hashes.
pub(crate) struct LinkIndex {
    head: Vec<u32>,
    next: Vec<u32>,
    /// The links by id.
    pub(crate) links: Vec<Link>,
}

impl LinkIndex {
    pub(crate) fn new(nodes: usize) -> LinkIndex {
        LinkIndex {
            head: vec![NONE; nodes + 1],
            next: Vec::new(),
            links: Vec::new(),
        }
    }

    /// The id of `link`, assigning the next one on first sight.
    pub(crate) fn id(&mut self, link: Link) -> u32 {
        let bucket = link.from.min(self.head.len() - 1);
        let mut at = self.head[bucket];
        while at != NONE {
            if self.links[at as usize] == link {
                return at;
            }
            at = self.next[at as usize];
        }
        let id = self.links.len() as u32;
        self.links.push(link);
        self.next.push(self.head[bucket]);
        self.head[bucket] = id;
        id
    }
}

/// Which constraint decided a transfer's injection instant. Holders are
/// indices into [`Schedule::xfers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bound {
    /// Software-ready at the sender: nothing blocked it.
    Ready,
    /// The source node's injection-port slot (last held by this
    /// transfer).
    OutPort(u32),
    /// The destination node's ejection-port slot.
    InPort(u32),
    /// A busy link on the route, by link id.
    OnLink(u32, u32),
}

/// A resource's reservation state: busy until `until`, last reserved by
/// transfer `by`.
#[derive(Debug, Clone, Copy)]
struct Held {
    until: Time,
    by: u32,
}

/// The recomputed schedule of one transfer (the recorded inputs stay in
/// [`Schedule::xfers`] at the same index).
#[derive(Debug, Clone, Copy)]
struct XferCost {
    start_ns: Time,
    done_ns: Time,
    stall_ns: Time,
    free_ns: Time,
    bound: Bound,
}

/// One operation of a rank's clock chain.
#[derive(Debug, Clone, Copy)]
struct RankOp {
    /// Index into [`Schedule::sends`] or [`Schedule::recvs`].
    idx: u32,
    is_send: bool,
    /// Recorded clock when the kernel processed the op (its input).
    in_ns: Time,
    /// Recomputed clock after the op.
    out_ns: Time,
}

/// Index of the earliest-free slot (ties → lowest index) — the same
/// deterministic arbitration the kernel uses.
fn best_slot(slots: &[Held]) -> usize {
    let mut best = 0;
    for (i, slot) in slots.iter().enumerate().skip(1) {
        if slot.until < slots[best].until {
            best = i;
        }
    }
    best
}

/// Replay `sched` against `machine`'s cost model.
///
/// `faulted` marks a schedule recorded under an active fault plan:
/// retry backoff and injection delays shift the network-ready instant
/// beyond `issue + α_send`, and detours replace the dimension-ordered
/// route, so those two recomputations are skipped — the network
/// arithmetic itself is still replayed exactly from the recorded
/// injection instants.
pub fn replay(sched: &Schedule, machine: &Machine, lib: LibraryKind, faulted: bool) -> CostReport {
    let params = &machine.params;
    let tau = params.tau_hop_ns;
    let alpha_send = params.alpha_send(lib);
    let alpha_recv = params.alpha_recv(lib);
    let n = machine.topology.num_nodes();
    let k = params.ports_per_node;

    let mut report = CostReport {
        rank_finish_ns: vec![0; sched.p],
        ports: vec![PortUse::default(); n],
        ..CostReport::default()
    };

    let mut link_index = LinkIndex::new(n);
    let window_link: Vec<u32> = sched
        .windows
        .iter()
        .map(|w| link_index.id(w.link))
        .collect();
    let link_table = link_index.links;

    // ---- Network replay: recompute every transfer's reservations. ----
    // Reservation state per link id and per port slot (`node * k + slot`).
    // Alongside, the recorded windows feed the link timelines.
    let idle = Held { until: 0, by: NONE };
    let mut link_state = vec![idle; link_table.len()];
    let mut out_port = vec![idle; n * k];
    let mut in_port = vec![idle; n * k];
    let mut timelines: Vec<LinkTimeline> = vec![LinkTimeline::default(); link_table.len()];
    let mut xfers: Vec<XferCost> = Vec::with_capacity(sched.xfers.len());
    // Per sequence slot: the (last) transfer carrying that number.
    let mut xfer_at: Vec<u32> = vec![NONE; sched.seq_slots()];
    let mut expect_route: Vec<Link> = Vec::new();

    for (xi, x) in sched.xfers.iter().enumerate() {
        let xi = xi as u32;
        let bytes = x.bytes;
        xfer_at[sched.seq_slot(x.seq).expect("transfer seqs are indexed")] = xi;
        if let Some(si) = sched.send_of(x.seq) {
            let b = sched.sends[si].data.len();
            if b != bytes {
                report.diverge(|| {
                    format!(
                        "seq {}: transfer bytes {} != send payload {}",
                        x.seq, bytes, b
                    )
                });
            }
        }
        let wire_ns = params.serialize_ns_lib(bytes, lib);
        let windows = sched.windows_of(x);
        let ids = &window_link[x.win_off as usize..][..windows.len()];
        for (w, &l) in windows.iter().zip(ids) {
            timelines[l as usize].reserve(w.from_ns, w.until_ns, x.seq, x.src, x.dst);
        }
        if x.is_local() {
            let done = x.ready_ns + params.memcpy_ns(bytes);
            if done != x.done_ns {
                report.diverge(|| {
                    format!(
                        "seq {}: local delivery recomputed at {} ns, kernel recorded {} ns",
                        x.seq, done, x.done_ns
                    )
                });
            }
            xfers.push(XferCost {
                start_ns: x.ready_ns,
                done_ns: done,
                stall_ns: 0,
                free_ns: done - x.ready_ns,
                bound: Bound::Ready,
            });
            continue;
        }

        let hops = windows.len();
        let u = machine.node_of(x.src);
        let v = machine.node_of(x.dst);
        if !faulted {
            machine.topology.route_into(u, v, &mut expect_route);
            if !windows.iter().map(|w| &w.link).eq(&expect_route) {
                report.diverge(|| {
                    format!(
                        "seq {}: recorded route differs from the dimension-ordered \
                         route {} -> {} ({} vs {} hops)",
                        x.seq,
                        x.src,
                        x.dst,
                        hops,
                        expect_route.len()
                    )
                });
            }
        }
        let (outs, ins) = (u * k..(u + 1) * k, v * k..(v + 1) * k);
        let out_slot = best_slot(&out_port[outs.clone()]);
        let in_slot = best_slot(&in_port[ins.clone()]);
        if Some(out_slot as u32) != x.out_slot || Some(in_slot as u32) != x.in_slot {
            report.diverge(|| {
                format!(
                    "seq {}: recomputed port slots (out {}, in {}) != recorded ({:?}, {:?})",
                    x.seq, out_slot, in_slot, x.out_slot, x.in_slot
                )
            });
        }
        let (out, inn) = (
            out_port[outs.start + out_slot],
            in_port[ins.start + in_slot],
        );
        let in_horizon = inn.until.saturating_sub(hops as Time * tau);
        let port_free = x.ready_ns.max(out.until).max(in_horizon);
        let mut bound = Bound::Ready;
        if port_free > x.ready_ns {
            bound = if out.until >= in_horizon {
                Bound::OutPort(out.by)
            } else {
                Bound::InPort(inn.by)
            };
        }

        // Independent re-implementation of the wormhole arithmetic — see
        // `mpp_sim::network` for the kernel's version. Each hop's
        // recomputed window is held against the recorded one as it is
        // produced; the first mismatch is reported after the transfer's
        // own instants.
        let mut start = port_free;
        for (i, &l) in ids.iter().enumerate() {
            let link = link_state[l as usize];
            let cand = link.until.saturating_sub(i as Time * tau);
            if cand > start {
                start = cand;
                bound = Bound::OnLink(l, link.by);
            }
        }
        let done = start + params.hops_ns(hops) + wire_ns;
        let mut bad_hop: Option<(usize, Time, Time)> = None;
        for (i, &l) in ids.iter().enumerate() {
            let from = start + i as Time * tau;
            let until = from + wire_ns;
            let w = &windows[i];
            if bad_hop.is_none() && (from != w.from_ns || until != w.until_ns) {
                bad_hop = Some((i, from, until));
            }
            link_state[l as usize] = Held { until, by: xi };
        }
        let free_ns = params.hops_ns(hops) + wire_ns;
        let stall = done.saturating_sub(x.ready_ns + free_ns);

        if start != x.start_ns || done != x.done_ns {
            report.diverge(|| {
                format!(
                    "seq {}: recomputed start/done {}/{} ns != recorded {}/{} ns",
                    x.seq, start, done, x.start_ns, x.done_ns
                )
            });
        }
        if stall != x.stall_ns {
            report.diverge(|| {
                format!(
                    "seq {}: recomputed stall {} ns != recorded {} ns",
                    x.seq, stall, x.stall_ns
                )
            });
        }
        if let Some((i, from, until)) = bad_hop {
            let w = &windows[i];
            report.diverge(|| {
                format!(
                    "seq {}: hop {} ({}->{}) recomputed window [{}, {}] != \
                     recorded [{}, {}]",
                    x.seq, i, w.link.from, w.link.to, from, until, w.from_ns, w.until_ns
                )
            });
        }

        out_port[outs.start + out_slot] = Held {
            until: start + wire_ns,
            by: xi,
        };
        in_port[ins.start + in_slot] = Held {
            until: done,
            by: xi,
        };
        report.ports[u].sends += 1;
        xfers.push(XferCost {
            start_ns: start,
            done_ns: done,
            stall_ns: stall,
            free_ns,
            bound,
        });
    }
    let xfer_of = |seq: u64| -> Option<usize> {
        let xi = xfer_at[sched.seq_slot(seq)?];
        (xi != NONE).then_some(xi as usize)
    };

    // ---- Recorded link timelines and port concurrency. ----
    report.links = link_table.iter().copied().zip(timelines).collect();
    // Sweep each node's recorded injection windows: +1 at window start,
    // -1 at end (end before start on ties — back-to-back windows do not
    // overlap).
    let injected_at = |x: &mpp_runtime::XferEvent| (!x.is_local()).then(|| machine.node_of(x.src));
    let (node_start, by_node) = grouped(sched.xfers.iter().map(injected_at), n);
    let mut edges: Vec<(Time, i32)> = Vec::new();
    for (node, port) in report.ports.iter_mut().enumerate() {
        edges.clear();
        for &xi in &by_node[node_start[node]..node_start[node + 1]] {
            let x = &sched.xfers[xi as usize];
            edges.push((x.start_ns, 1));
            edges.push((x.start_ns + params.serialize_ns_lib(x.bytes, lib), -1));
        }
        edges.sort_unstable();
        let (mut cur, mut max) = (0i32, 0i32);
        for &(_, delta) in &edges {
            cur += delta;
            max = max.max(cur);
        }
        port.max_out_concurrency = max as usize;
    }

    // ---- Per-rank clock chains. ----
    let rank_of_op = sched
        .sends
        .iter()
        .map(|s| Some(s.src))
        .chain(sched.recvs.iter().map(|r| Some(r.rank)));
    // Every rank's operations in one array: rank `r`'s chain is
    // `ops[chain_start[r]..chain_start[r + 1]]`, ordered by input clock.
    let (chain_start, order) = grouped(rank_of_op, sched.p);
    let mut ops: Vec<RankOp> = order
        .iter()
        .map(|&item| {
            let (is_send, idx) = match (item as usize).checked_sub(sched.sends.len()) {
                None => (true, item as usize),
                Some(recv) => (false, recv),
            };
            RankOp {
                idx: idx as u32,
                is_send,
                in_ns: match is_send {
                    true => sched.sends[idx].issue_ns,
                    false => sched.recvs[idx].start_ns,
                },
                out_ns: 0,
            }
        })
        .collect();
    let mut finishes: Vec<Option<Time>> = vec![None; sched.p];
    for f in &sched.finishes {
        if let Some(slot) = finishes.get_mut(f.rank) {
            *slot = Some(f.finish_ns);
        }
    }
    for (rank, &recorded) in finishes.iter().enumerate() {
        let chain = &mut ops[chain_start[rank]..chain_start[rank + 1]];
        // Stable sort: batched sends share one issue clock and stay in
        // recording order, so batch members end up contiguous.
        chain.sort_by_key(|op| op.in_ns);
        let mut clock: Time = 0;
        // Issue clock of the previous send in the chain. A send whose
        // issue clock equals it is a later member of the same
        // `send_batch`: the whole batch pays a single α_send, so the
        // member's issue clock legitimately precedes the recomputed
        // chain (which already advanced past `issue + α_send`) and the
        // idempotent `clock = issue + α_send` re-derives the same chain
        // end. Sound because α_send > 0 makes the issue clocks of
        // *sequential* sends strictly increasing.
        let mut prev_send_in: Option<Time> = None;
        for op in chain.iter_mut() {
            let batch_member = op.is_send && prev_send_in == Some(op.in_ns);
            if op.in_ns < clock && !batch_member {
                report.diverge(|| {
                    format!(
                        "rank {rank}: operation clock {} ns earlier than the \
                         recomputed chain ({} ns) — the model overestimates",
                        op.in_ns, clock
                    )
                });
            }
            if op.is_send {
                prev_send_in = Some(op.in_ns);
                clock = op.in_ns + alpha_send;
                if !faulted {
                    let seq = sched.sends[op.idx as usize].seq;
                    if let Some(xi) = xfer_of(seq) {
                        let ready_ns = sched.xfers[xi].ready_ns;
                        if ready_ns != clock {
                            report.diverge(|| {
                                format!(
                                    "seq {seq}: network-ready recomputed at {} ns \
                                     (issue + α_send), kernel recorded {} ns",
                                    clock, ready_ns
                                )
                            });
                        }
                    }
                }
            } else {
                let r = &sched.recvs[op.idx as usize];
                let arrival = xfer_of(r.seq).map_or(r.arrival_ns, |xi| xfers[xi].done_ns);
                if arrival != r.arrival_ns {
                    report.diverge(|| {
                        format!(
                            "seq {}: recomputed arrival {} ns != arrival {} ns \
                             recorded at rank {}'s receive",
                            r.seq, arrival, r.arrival_ns, r.rank
                        )
                    });
                }
                clock = op.in_ns.max(arrival) + alpha_recv;
                prev_send_in = None;
            }
            op.out_ns = clock;
        }
        // Recomputed completion: the replayed chain plus the recorded
        // trailing local work. A kernel finish before the recomputed
        // chain means the model overestimated somewhere.
        let finish = match recorded {
            Some(f) if f < clock => {
                report.diverge(|| {
                    format!(
                        "rank {rank}: kernel finished at {f} ns, before the \
                         recomputed chain end {clock} ns"
                    )
                });
                clock
            }
            Some(f) => f,
            None => clock,
        };
        report.rank_finish_ns[rank] = finish;
    }
    report.makespan_ns = report.rank_finish_ns.iter().copied().max().unwrap_or(0);
    if let Some(recorded) = sched.makespan_ns {
        if recorded != report.makespan_ns {
            let recomputed = report.makespan_ns;
            report.diverge(|| {
                format!("recomputed makespan {recomputed} ns != kernel makespan {recorded} ns")
            });
        }
    }

    if alpha_send > 0 {
        check_matches(sched, &xfers, &xfer_of, &mut report);
    }

    // Every delivered send must carry a transfer record.
    if !sched.xfers.is_empty() {
        let lost = sched.seq_flags(sched.lost_seqs());
        for s in &sched.sends {
            let slot = sched.seq_slot(s.seq).expect("send seqs are indexed");
            if !lost[slot] && xfer_at[slot] == NONE {
                report.diverge(|| {
                    format!(
                        "seq {}: delivered send {} -> {} has no transfer record",
                        s.seq, s.src, s.dst
                    )
                });
            }
        }
    }

    // ---- Critical path. ----
    report.window_link = window_link;
    report.link_table = link_table;
    report.crit = critical_path(
        sched,
        (&ops, &chain_start),
        &xfers,
        &xfer_of,
        &report,
        (alpha_send, alpha_recv),
    );

    report
}

/// A message in a rank's mailbox, as the matched-send check sees it.
#[derive(Debug, Clone, Copy)]
struct Delivered {
    arrival: Time,
    seq: u64,
    src: usize,
    tag: Tag,
}

/// The mailbox rule, re-derived from arrivals: each receive must match
/// the earliest `(arrival, seq)` among the messages delivered to its
/// rank that match its filters, arrived by the instant it completed
/// from (`max(start, arrival)`), and no earlier receive of the rank
/// consumed. A receive that matched anything else is a divergence.
///
/// Exact when α_send > 0, which the caller checks: a message that
/// arrived by that instant was sent at least α_send before it arrived,
/// so strictly earlier, and the kernel processes events in `(time,
/// rank)` order — the message sat in the mailbox when the receive
/// matched. Fault plans keep this (delays and retries only make arrival
/// later), so faulted schedules are checked too. On a zero-α machine a
/// message can arrive at its issue instant, after a same-instant
/// receive of a lower rank, and the rule no longer says what the kernel
/// saw.
///
/// Near-linear: each rank's deliveries are put in `(arrival, seq)`
/// order once — usually already so, since one ejection port delivers in
/// reservation order — and threaded into one list per source, like the
/// kernel's deep mailbox; an exact-source receive walks its source's
/// list, a wildcard one the whole mailbox, each from the first
/// unconsumed entry.
fn check_matches(
    sched: &Schedule,
    xfers: &[XferCost],
    xfer_of: &dyn Fn(u64) -> Option<usize>,
    report: &mut CostReport,
) {
    let p = sched.p;
    let delivered: Vec<Option<(usize, Delivered)>> = (sched.xfers.iter().zip(xfers))
        .map(|(x, cost)| {
            let send = &sched.sends[sched.send_of(x.seq)?];
            let mail = Delivered {
                arrival: cost.done_ns,
                seq: x.seq,
                src: x.src,
                tag: send.tag,
            };
            (x.src < p && x.dst < p).then_some((x.dst, mail))
        })
        .collect();
    let (box_start, box_order) = grouped(delivered.iter().map(|d| Some(d.as_ref()?.0)), p);
    let mut mail: Vec<Delivered> = box_order
        .iter()
        .filter_map(|&xi| Some(delivered[xi as usize]?.1))
        .collect();
    let by_rank = sched.recvs.iter().map(|r| (r.rank < p).then_some(r.rank));
    let (recv_start, recv_order) = grouped(by_rank, p);
    let mut taken = vec![false; mail.len()];
    // Per delivery, the next one from the same source; per source, the
    // first of the current rank's that may still be unconsumed.
    let mut next = vec![NONE; mail.len()];
    let mut head = vec![NONE; p];
    for rank in 0..p {
        let (lo, hi) = (box_start[rank], box_start[rank + 1]);
        let order = |m: &Delivered| (m.arrival, m.seq);
        if !mail[lo..hi].is_sorted_by_key(order) {
            mail[lo..hi].sort_unstable_by_key(order);
        }
        for at in (lo..hi).rev() {
            next[at] = std::mem::replace(&mut head[mail[at].src], at as u32);
        }
        let mut first = lo;
        for &ri in &recv_order[recv_start[rank]..recv_start[rank + 1]] {
            let r = &sched.recvs[ri as usize];
            let Some(xi) = xfer_of(r.seq) else { continue };
            let key = (xfers[xi].done_ns, r.seq);
            let until = r.start_ns.max(key.0);
            let fits = |at: usize| {
                let m = &mail[at];
                !taken[at] && m.arrival <= until && r.tag_filter.is_none_or(|t| t == m.tag)
            };
            let pick = match r.src_filter {
                Some(src) if src < p => {
                    while head[src] != NONE && taken[head[src] as usize] {
                        head[src] = next[head[src] as usize];
                    }
                    let mut at = head[src];
                    while at != NONE && mail[at as usize].arrival <= until && !fits(at as usize) {
                        at = next[at as usize];
                    }
                    (at != NONE && fits(at as usize)).then_some(at as usize)
                }
                Some(_) => None,
                None => {
                    while first < hi && taken[first] {
                        first += 1;
                    }
                    (first..hi)
                        .take_while(|&at| mail[at].arrival <= until)
                        .find(|&at| fits(at))
                }
            };
            let matched = mail[lo..hi]
                .binary_search_by_key(&key, order)
                .ok()
                .map(|i| lo + i)
                .filter(|&at| !taken[at]);
            if pick != matched {
                let picked = pick.map_or("no message".to_string(), |at| {
                    format!("seq {}", mail[at].seq)
                });
                report.diverge(|| {
                    format!(
                        "rank {rank}: receive matched seq {}, but the mailbox rule \
                         (earliest arrival, then seq) picks {picked}",
                        r.seq
                    )
                });
            }
            if let Some(at) = matched {
                taken[at] = true;
            }
        }
        for m in &mail[lo..hi] {
            head[m.src] = NONE;
        }
    }
}

/// Backward walk from the latest-finishing rank, attributing makespan
/// time to ranks (α overheads and opaque local work), links (transfer
/// spans and link waits), and port waits. The decomposition is a
/// provenance heuristic for the perf lints — adjacent resource windows
/// may overlap by a few τ — but every jump moves strictly earlier, so
/// the walk terminates.
fn critical_path(
    sched: &Schedule,
    (ops, chain_start): (&[RankOp], &[usize]),
    xfers: &[XferCost],
    xfer_of: &dyn Fn(u64) -> Option<usize>,
    report: &CostReport,
    (alpha_send, alpha_recv): (Time, Time),
) -> CriticalPath {
    let mut crit = CriticalPath {
        by_rank_ns: vec![0; sched.p],
        ..CriticalPath::default()
    };
    let Some((last_rank, &finish)) = report
        .rank_finish_ns
        .iter()
        .enumerate()
        .max_by_key(|&(r, f)| (*f, std::cmp::Reverse(r)))
    else {
        return crit;
    };
    if finish == 0 {
        return crit;
    }
    // Position in `ops` of each send's op (to jump from a transfer back
    // into its sender's chain).
    let mut op_of_send: Vec<u32> = vec![NONE; sched.sends.len()];
    for (at, op) in ops.iter().enumerate() {
        if op.is_send {
            op_of_send[op.idx as usize] = at as u32;
        }
    }
    let sender_op = |xi: usize| -> Option<usize> {
        Some(op_of_send[sched.send_of(sched.xfers[xi].seq)?] as usize)
    };
    let rank_of = |op: &RankOp| match op.is_send {
        true => sched.sends[op.idx as usize].src,
        false => sched.recvs[op.idx as usize].rank,
    };

    enum Cursor {
        /// Walking a rank's chain at this position of `ops` (whose
        /// recomputed output clock has already been consumed).
        Op(usize),
        Xfer(usize),
    }

    // Rank time is accumulated signed: batched multi-port sends share
    // one α_send window, so a gap term below can be negative (an overlap
    // compensating the α already charged for the later batch member).
    let mut by_rank: Vec<i128> = vec![0; sched.p];
    let mut by_link: Vec<Option<Time>> = vec![None; report.link_table.len()];
    // Trailing local work after the last op.
    let last = chain_start[last_rank + 1];
    if last == chain_start[last_rank] {
        crit.by_rank_ns[last_rank] = finish;
        return crit;
    }
    by_rank[last_rank] += i128::from(finish - ops[last - 1].out_ns);
    let mut cursor = Cursor::Op(last - 1);
    let mut visited_ops = vec![false; ops.len()];
    let mut visited_xfers = vec![false; xfers.len()];
    let budget = 4 * (sched.sends.len() + sched.recvs.len() + xfers.len()) + 16;

    for _ in 0..budget {
        match cursor {
            Cursor::Op(at) => {
                if std::mem::replace(&mut visited_ops[at], true) {
                    break;
                }
                let op = ops[at];
                let rank = rank_of(&op);
                let mut next_net = None;
                if op.is_send {
                    by_rank[rank] += i128::from(alpha_send);
                } else {
                    by_rank[rank] += i128::from(alpha_recv);
                    let r = &sched.recvs[op.idx as usize];
                    let xi = xfer_of(r.seq);
                    let arrival = xi.map_or(r.arrival_ns, |xi| xfers[xi].done_ns);
                    if arrival > op.in_ns {
                        next_net = xi;
                    }
                }
                if let Some(xi) = next_net {
                    cursor = Cursor::Xfer(xi);
                    continue;
                }
                // Local: charge the opaque gap back to the previous op
                // (negative inside a send batch, see above).
                if at == chain_start[rank] {
                    by_rank[rank] += i128::from(op.in_ns);
                    break;
                }
                by_rank[rank] += i128::from(op.in_ns) - i128::from(ops[at - 1].out_ns);
                cursor = Cursor::Op(at - 1);
            }
            Cursor::Xfer(xi) => {
                if std::mem::replace(&mut visited_xfers[xi], true) {
                    break;
                }
                let (x, cost) = (&sched.xfers[xi], &xfers[xi]);
                if x.is_local() {
                    // A memcpy delivery: charge it to the sender.
                    by_rank[x.src] += i128::from(cost.done_ns - x.ready_ns);
                    match sender_op(xi) {
                        Some(at) => cursor = Cursor::Op(at),
                        None => break,
                    }
                    continue;
                }
                crit.xfers += 1;
                crit.stall_ns += cost.stall_ns;
                crit.free_ns += cost.free_ns;
                let span = cost.done_ns - cost.start_ns;
                let ids = &report.window_link[x.win_off as usize..][..x.win_len as usize];
                for &l in ids {
                    *by_link[l as usize].get_or_insert(0) += span;
                }
                let wait = cost.start_ns.saturating_sub(x.ready_ns);
                let holder = match cost.bound {
                    Bound::Ready => {
                        match sender_op(xi) {
                            Some(at) => cursor = Cursor::Op(at),
                            None => break,
                        }
                        continue;
                    }
                    Bound::OutPort(prev) | Bound::InPort(prev) => {
                        crit.port_wait_ns += wait;
                        prev
                    }
                    Bound::OnLink(l, prev) => {
                        *by_link[l as usize].get_or_insert(0) += wait;
                        prev
                    }
                };
                if holder == NONE {
                    break;
                }
                cursor = Cursor::Xfer(holder as usize);
            }
        }
    }
    // The α charged for a batch member always precedes the negative gap
    // that compensates it, so no rank's total can end below zero.
    crit.by_rank_ns = by_rank
        .into_iter()
        .map(|ns| Time::try_from(ns).expect("critical-path rank time is never negative"))
        .collect();
    crit.by_link_ns = report
        .link_table
        .iter()
        .zip(by_link)
        .filter_map(|(link, ns)| Some((*link, ns?)))
        .collect();
    crit
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_core::msgset::payload_for;
    use stp_core::runner::{try_record_sources, AlgoKind, RunControl};

    /// The cost engine must reproduce the kernel's schedule exactly on a
    /// real recorded run — the conformance keystone in miniature.
    #[test]
    fn replay_is_exact_on_a_recorded_run() {
        let machine = Machine::paragon(4, 4);
        let sources = vec![0, 5, 10, 15];
        let payload_of = |src: usize| payload_for(src, 64);
        for kind in [AlgoKind::BrLin, AlgoKind::TwoStep, AlgoKind::BrXySource] {
            let alg = kind.build();
            let run = try_record_sources(
                &machine,
                kind.default_lib(),
                &sources,
                &payload_of,
                alg.as_ref(),
                &RunControl::default(),
            )
            .expect("recording failed");
            let sched = Schedule::from_recorded(&run, machine.p());
            let report = replay(&sched, &machine, kind.default_lib(), false);
            assert!(
                report.conformant(),
                "{}: {:?}",
                kind.name(),
                report.divergences
            );
            let outcome = run.outcome.expect("completed run");
            assert_eq!(report.makespan_ns, outcome.makespan_ns);
            assert_eq!(report.rank_finish_ns, outcome.finish_ns);
        }
    }

    /// Record `kind` on `machine` and replay it: conformant, matched-send
    /// rule included, with the kernel's makespan.
    fn assert_conformant(machine: &Machine, sources: &[usize], kind: AlgoKind) {
        let payload_of = |src: usize| payload_for(src, 256);
        let alg = kind.build();
        let run = try_record_sources(
            machine,
            kind.default_lib(),
            sources,
            &payload_of,
            alg.as_ref(),
            &RunControl::default(),
        )
        .expect("recording failed");
        let sched = Schedule::from_recorded(&run, machine.p());
        let report = replay(&sched, machine, kind.default_lib(), false);
        let name = kind.name();
        assert!(report.conformant(), "{name}: {:?}", report.divergences);
        let outcome = run.outcome.expect("completed run");
        assert_eq!(report.makespan_ns, outcome.makespan_ns, "{name}: makespan");
    }

    /// Every algorithm lands on the virtual schedule the static engine
    /// recomputes, and every receive matched what the mailbox rule picks.
    #[test]
    fn conformance_holds_for_every_algorithm() {
        let machine = Machine::paragon(4, 4);
        for &kind in AlgoKind::all() {
            assert_conformant(&machine, &[0, 5, 10, 15], kind);
        }
    }

    /// Multi-port conformance: on a five-port machine the k-ported
    /// algorithms issue real `send_batch` groups whose members take
    /// distinct injection slots in the same tick, and the replay must
    /// still land on every recorded instant exactly. This is the
    /// zero-tolerance gate for the batched-transmit clock rule (one
    /// α_send per batch).
    #[test]
    fn conformance_holds_with_batched_multiport_sends() {
        let machine = crate::fixtures::machines::five_port_machine();
        for kind in [
            AlgoKind::KPortLin,
            AlgoKind::KPortScatter,
            AlgoKind::KPortAlltoall,
            AlgoKind::BrLin,
        ] {
            assert_conformant(&machine, &[0, 3, 6, 9, 12, 15], kind);
        }
    }

    /// Which send a receive matched is checked, not taken on trust: swap
    /// the matches of two receives with the same filters whose messages
    /// had both arrived before the first of them ran. Every clock of the
    /// recording stays what it was, so only the mailbox rule — earliest
    /// arrival first — can tell, and it must.
    #[test]
    fn swapped_matches_diverge() {
        let machine = Machine::paragon(4, 4);
        let kind = AlgoKind::TwoStep;
        let alg = kind.build();
        let mut run = try_record_sources(
            &machine,
            kind.default_lib(),
            &[0, 5, 10, 15],
            &|src| payload_for(src, 64),
            alg.as_ref(),
            &RunControl::default(),
        )
        .expect("recording failed");
        let recvs = &run.events.recvs;
        let filters = |i: usize| (recvs[i].rank, recvs[i].src_filter, recvs[i].tag_filter);
        let (a, b) = (0..recvs.len())
            .flat_map(|a| (a + 1..recvs.len()).map(move |b| (a, b)))
            .find(|&(a, b)| {
                filters(a) == filters(b)
                    && recvs[a].arrival_ns < recvs[b].arrival_ns
                    && recvs[a].start_ns >= recvs[b].arrival_ns
            })
            .expect("a rank with two same-filter receives of waiting messages");
        let (ra, rb) = (recvs[a].clone(), recvs[b].clone());
        for (at, other) in [(a, &rb), (b, &ra)] {
            let r = &mut run.events.recvs[at];
            (r.seq, r.src, r.tag, r.arrival_ns) =
                (other.seq, other.src, other.tag, other.arrival_ns);
        }
        let sched = Schedule::from_recorded(&run, machine.p());
        let report = replay(&sched, &machine, kind.default_lib(), false);
        let want = format!(
            "rank {}: receive matched seq {}, but the mailbox rule \
             (earliest arrival, then seq) picks seq {}",
            ra.rank, rb.seq, ra.seq
        );
        assert_eq!(report.divergences, [want]);
    }

    /// The critical-path decomposition must account for (almost) the
    /// whole makespan and attribute something to both ranks and links.
    #[test]
    fn critical_path_decomposes_the_makespan() {
        let machine = Machine::paragon(4, 4);
        let sources = vec![0, 5, 10, 15];
        let payload_of = |src: usize| payload_for(src, 1024);
        let alg = AlgoKind::BrLin.build();
        let run = try_record_sources(
            &machine,
            mpp_model::LibraryKind::Nx,
            &sources,
            &payload_of,
            alg.as_ref(),
            &RunControl::default(),
        )
        .expect("recording failed");
        let sched = Schedule::from_recorded(&run, machine.p());
        let report = replay(&sched, &machine, mpp_model::LibraryKind::Nx, false);
        assert!(report.conformant(), "{:?}", report.divergences);
        let rank_total: Time = report.crit.by_rank_ns.iter().sum();
        let link_total: Time = report.crit.by_link_ns.values().sum();
        assert!(rank_total > 0, "no rank time on the critical path");
        assert!(link_total > 0, "no link time on the critical path");
        assert!(
            rank_total + link_total + report.crit.port_wait_ns >= report.makespan_ns / 2,
            "decomposition covers too little: ranks {rank_total} + links {link_total} \
             + ports {} vs makespan {}",
            report.crit.port_wait_ns,
            report.makespan_ns
        );
    }

    /// Batched multi-port sends overlap inside one α_send window, which
    /// the backward walk compensates with negative gap terms. The
    /// accumulation is signed and must net out exactly: a path whose
    /// transfers never waited on a resource (no stall) decomposes into
    /// rank time plus traversal time summing to the makespan, and a path
    /// with waits can only over-count (adjacent resource windows
    /// overlap), never fall short or go negative.
    #[test]
    fn critical_path_sums_to_the_makespan_under_batched_sends() {
        let machine = crate::fixtures::machines::five_port_machine();
        let sources = vec![0, 3, 6, 9, 12, 15];
        let payload_of = |src: usize| payload_for(src, 256);
        let mut exact = 0;
        for kind in [
            AlgoKind::KPortLin,
            AlgoKind::KPortScatter,
            AlgoKind::KPortAlltoall,
            AlgoKind::BrLin,
        ] {
            let alg = kind.build();
            let run = try_record_sources(
                &machine,
                kind.default_lib(),
                &sources,
                &payload_of,
                alg.as_ref(),
                &RunControl::default(),
            )
            .expect("recording failed");
            let sched = Schedule::from_recorded(&run, machine.p());
            let report = replay(&sched, &machine, kind.default_lib(), false);
            assert!(report.conformant(), "{:?}", report.divergences);
            let crit = &report.crit;
            let total = crit.by_rank_ns.iter().sum::<Time>() + crit.free_ns + crit.stall_ns;
            assert!(
                total >= report.makespan_ns,
                "{}: decomposition {total} ns falls short of the makespan {} ns",
                kind.name(),
                report.makespan_ns
            );
            if crit.stall_ns == 0 {
                assert_eq!(total, report.makespan_ns, "{}", kind.name());
                exact += 1;
            }
        }
        assert!(exact > 0, "no stall-free critical path among the schedules");
    }

    proptest::proptest! {
        /// A link's top transfers, kept online, are what sorting every
        /// window by (duration descending, seq ascending) and truncating
        /// gives — ties in both keep arrival order — and the running
        /// totals are the plain folds.
        #[test]
        fn online_top_transfers_match_sort_and_truncate(
            windows in proptest::collection::vec((0u64..50, 0u64..4, 0u64..6), 0..40)
        ) {
            let mut timeline = LinkTimeline::default();
            let mut all = Vec::new();
            for (i, &(from, dur, seq)) in windows.iter().enumerate() {
                timeline.reserve(from, from + dur, seq, i, i + 1);
                all.push((dur, seq, i, i + 1));
            }
            all.sort_by(|a, b| (b.0, a.1).cmp(&(a.0, b.1)));
            all.truncate(TOP_TRANSFERS);
            let sorted: Vec<_> = all.iter().map(|&(dur, seq, src, dst)| (seq, src, dst, dur)).collect();
            proptest::prop_assert_eq!(&timeline.top, &sorted);
            proptest::prop_assert_eq!(timeline.messages, windows.len() as u64);
            proptest::prop_assert_eq!(timeline.busy_ns, windows.iter().map(|w| w.1).sum::<u64>());
            if !windows.is_empty() {
                proptest::prop_assert_eq!(
                    Some(timeline.first_busy_ns),
                    windows.iter().map(|w| w.0).min()
                );
                proptest::prop_assert_eq!(
                    Some(timeline.last_busy_ns),
                    windows.iter().map(|w| w.0 + w.1).max()
                );
            }
        }
    }

    /// A deliberately perturbed recording must be caught.
    #[test]
    fn perturbed_recording_diverges() {
        let machine = Machine::paragon(4, 4);
        let sources = vec![0, 5, 10, 15];
        let payload_of = |src: usize| payload_for(src, 64);
        let alg = AlgoKind::BrLin.build();
        let mut run = try_record_sources(
            &machine,
            mpp_model::LibraryKind::Nx,
            &sources,
            &payload_of,
            alg.as_ref(),
            &RunControl::default(),
        )
        .expect("recording failed");
        let x = run.events.xfers.last_mut().expect("transfers recorded");
        x.done_ns += 1;
        let sched = Schedule::from_recorded(&run, machine.p());
        let report = replay(&sched, &machine, mpp_model::LibraryKind::Nx, false);
        assert!(!report.conformant(), "a +1 ns skew must be detected");
    }
}
