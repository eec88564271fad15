//! The schedule checks, as a pluggable registry.
//!
//! Every diagnostic the analyzer produces comes from a [`Check`]
//! registered in [`registry`]: the structural checks (deadlock, lost
//! messages, unmatched sends, match ambiguity, payload leaks, link
//! overload) plus the cost-model conformance gate and the performance
//! lints from [`crate::perf_checks`]. Checks run in registry order over
//! one shared [`CheckCtx`]; findings are then sorted into the canonical
//! `(kind, rank, at_ns, seq)` order so reports are byte-stable
//! regardless of which check emitted first.

use std::collections::{BTreeMap, BTreeSet};

use mpp_model::{LibraryKind, Link, Machine, Time};
use stp_core::msgset::Slot;

use crate::cost::CostReport;
use crate::lint::timed;
use crate::schedule::{has_bit, set_bit, source_slots, ContentIds, Schedule, SourceBits, NONE};

/// How bad a finding is. Errors are always fatal to a lint run; warnings
/// and notes can be suppressed by a committed baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A correctness bug: the schedule is wrong or the model disagrees
    /// with the kernel.
    Error,
    /// A performance smell worth a look.
    Warn,
    /// Informational: expected on some algorithm × machine pairs.
    Info,
}

impl Severity {
    /// Stable machine-readable name (also the SARIF level).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warning",
            Severity::Info => "note",
        }
    }
}

/// What a finding is about.
///
/// Declaration order is the canonical report order: correctness kinds
/// first, then conformance, then the performance lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FindingKind {
    /// The run aborted with every live rank blocked in `recv`.
    Deadlock,
    /// A message was still undelivered when its destination finished.
    UnmatchedSend,
    /// A receive matched while another in-flight message with the same
    /// `(src, tag)` was racing it.
    MatchAmbiguity,
    /// A rank ended without one or more of the `s` source messages.
    PayloadLeak,
    /// A physical link carried more messages than the configured bound.
    LinkOverload,
    /// The fault plan destroyed a message: every permitted transmission
    /// attempt was dropped, so the destination can never receive it.
    LostMessage,
    /// The static cost engine's replay disagrees with the kernel's
    /// recorded timing — a bug in one of the two.
    CostModelDivergence,
    /// A multi-port node never drove more than one injection port
    /// concurrently: the schedule serializes where the hardware would
    /// parallelize.
    IdlePorts,
    /// One rank accounts for most of the critical path.
    SerializationHotspot,
    /// Contention stalls outweigh resource-free transfer time on the
    /// critical path.
    ContentionDominated,
    /// The same payload crossed the same physical link repeatedly — a
    /// tree would forward instead of re-sending.
    RedundantTransmission,
    /// The makespan exceeds the configured multiple of the s-to-p
    /// lower bound.
    AboveLowerBound,
}

/// Every kind's stable machine-readable name, severity class and
/// one-line rule (the SARIF rule metadata), in declaration order.
#[rustfmt::skip]
const KINDS: [(FindingKind, &str, Severity, &str); 12] = {
    use FindingKind::*;
    use Severity::{Error, Info, Warn};
    [
        (Deadlock, "deadlock", Error, "every live rank is blocked in recv"),
        (UnmatchedSend, "unmatched_send", Error, "a message was never received"),
        (MatchAmbiguity, "match_ambiguity", Error, "delivery order decided a receive match"),
        (PayloadLeak, "payload_leak", Error, "a rank is missing source messages"),
        (LinkOverload, "link_overload", Warn, "a link exceeded the message bound"),
        (LostMessage, "lost_message", Error, "the fault plan destroyed a message"),
        (CostModelDivergence, "cost_model_divergence", Error, "the static cost model disagrees with the kernel"),
        (IdlePorts, "idle_ports", Warn, "multi-port nodes drive one port at a time"),
        (SerializationHotspot, "serialization_hotspot", Warn, "one rank dominates the critical path"),
        (ContentionDominated, "contention_dominated", Warn, "contention stalls dominate the critical path"),
        (RedundantTransmission, "redundant_transmission", Info, "identical payloads re-cross the same link"),
        (AboveLowerBound, "above_lower_bound", Info, "makespan far above the s-to-p lower bound"),
    ]
};

impl FindingKind {
    fn row(self) -> &'static (FindingKind, &'static str, Severity, &'static str) {
        let row = &KINDS[self as usize];
        debug_assert_eq!(row.0, self, "KINDS is out of declaration order");
        row
    }

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        self.row().1
    }

    /// Severity class of this kind.
    pub fn severity(self) -> Severity {
        self.row().2
    }

    /// One-line description of the rule, for SARIF rule metadata.
    pub fn describe(self) -> &'static str {
        self.row().3
    }
}

/// One diagnostic produced by the checker.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Category.
    pub kind: FindingKind,
    /// The rank the finding is anchored at, when meaningful.
    pub rank: Option<usize>,
    /// Human-readable description.
    pub detail: String,
    /// Virtual-time anchor (ns), when the finding points at an instant.
    pub at_ns: Option<Time>,
    /// The message sequence number involved, when there is one.
    pub seq: Option<u64>,
}

impl Finding {
    /// A finding without time or sequence anchors.
    pub fn new(kind: FindingKind, rank: Option<usize>, detail: String) -> Finding {
        Finding {
            kind,
            rank,
            detail,
            at_ns: None,
            seq: None,
        }
    }

    /// Anchor at a virtual-time instant.
    pub fn at(mut self, ns: Time) -> Finding {
        self.at_ns = Some(ns);
        self
    }

    /// Severity of this finding (derived from its kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

/// Options for one [`analyze`] run.
#[derive(Debug, Clone)]
pub struct AnalyzeOpts {
    /// Opt-in link-overload bound: `Some(k)` flags every physical link
    /// that carries more than `k` messages over the whole run. `None`
    /// still computes the per-link counts for the report but produces no
    /// overload findings (absolute message counts are a property of the
    /// algorithm × machine pair, not a bug by themselves).
    pub max_link_load: Option<u64>,
    /// Communication library the schedule was recorded under (selects
    /// the α overheads the cost engine replays with).
    pub lib: LibraryKind,
    /// The schedule was recorded under an active fault plan; the cost
    /// engine skips the recomputations faults legitimately perturb.
    pub faulted: bool,
    /// Run the performance lints (idle ports, serialization hotspot,
    /// contention dominated, redundant transmission, above lower bound).
    pub perf: bool,
    /// Check the static cost model against the kernel's recording and
    /// report any divergence as an error.
    pub conformance: bool,
    /// `above_lower_bound` fires when the makespan exceeds this multiple
    /// of the s-to-p lower bound.
    pub lb_tolerance: f64,
}

impl Default for AnalyzeOpts {
    fn default() -> Self {
        AnalyzeOpts {
            max_link_load: None,
            lib: LibraryKind::Nx,
            faulted: false,
            perf: false,
            conformance: true,
            lb_tolerance: 8.0,
        }
    }
}

/// Everything a [`Check`] can look at.
pub struct CheckCtx<'a> {
    /// The recorded schedule under analysis.
    pub sched: &'a Schedule<'a>,
    /// The machine it was recorded on.
    pub machine: &'a Machine,
    /// The source ranks of the s-to-p instance.
    pub sources: &'a [usize],
    /// The message of each source, in the order of `sources`: the
    /// oracle the leak check attributes payloads against.
    pub slots: &'a [Slot],
    /// Analysis options.
    pub opts: &'a AnalyzeOpts,
    /// The cost engine's replay, when timing data was recorded (absent
    /// on deadlocked or hand-built schedules).
    pub cost: Option<&'a CostReport>,
    /// Per-link message counts over the machine's routes.
    pub link_counts: &'a BTreeMap<Link, u64>,
    /// Every send's payload grouped by the slots it carries.
    pub contents: &'a ContentIds,
}

/// Mutable results shared by all checks of one run.
#[derive(Debug, Default)]
pub struct CheckOutput {
    /// Findings accumulated so far (sorted by [`analyze`] at the end).
    pub findings: Vec<Finding>,
    /// Set when payload attribution hit an opaque payload and the leak
    /// check was skipped instead of guessing.
    pub opaque_payloads: bool,
}

/// One registered schedule check.
pub trait Check {
    /// Stable name (shown in `--list-checks` style output).
    fn name(&self) -> &'static str;
    /// Run over `ctx`, appending findings to `out`. A check that does
    /// not apply (wrong options, no timing data) appends nothing.
    fn run(&self, ctx: &CheckCtx, out: &mut CheckOutput);
}

/// All built-in checks, in execution order.
pub fn registry() -> Vec<Box<dyn Check>> {
    vec![
        Box::new(DeadlockCheck),
        Box::new(LostMessageCheck),
        Box::new(UnmatchedSendCheck),
        Box::new(MatchAmbiguityCheck),
        Box::new(PayloadLeakCheck),
        Box::new(LinkOverloadCheck),
        Box::new(crate::perf_checks::CostConformance),
        Box::new(crate::perf_checks::IdlePorts),
        Box::new(crate::perf_checks::SerializationHotspot),
        Box::new(crate::perf_checks::ContentionDominated),
        Box::new(crate::perf_checks::RedundantTransmission),
        Box::new(crate::perf_checks::AboveLowerBound),
    ]
}

/// Everything the checker computed for one schedule.
#[derive(Debug)]
pub struct Analysis {
    /// All findings, sorted by `(kind, rank, at_ns, seq)`.
    pub findings: Vec<Finding>,
    /// Total sends recorded.
    pub sends: usize,
    /// Total receive matches recorded.
    pub recvs: usize,
    /// Heaviest per-link message count over the machine's routes.
    pub max_link_load: u64,
    /// True when some payload could not be traced back to a source; the
    /// leak check was skipped in that case instead of guessing.
    pub opaque_payloads: bool,
    /// The cost engine's replay, when timing data was recorded.
    pub cost: Option<CostReport>,
}

/// Run every registered check on `sched` as recorded on `machine`.
pub fn analyze(
    sched: &Schedule,
    machine: &Machine,
    sources: &[usize],
    payload_of: &dyn Fn(usize) -> Vec<u8>,
    opts: &AnalyzeOpts,
) -> Analysis {
    let slots = source_slots(sources, payload_of);
    let ((link_counts, max_link_load), contents) = timed("index", || {
        (link_loads(sched, machine), ContentIds::new(&sched.sends))
    });
    // The cost engine needs recorded timing to replay: skip it on
    // deadlocked runs (partial clocks) and hand-built schedules (no
    // transfer records).
    let cost = ((opts.conformance || opts.perf) && !sched.deadlocked && !sched.xfers.is_empty())
        .then(|| {
            timed("cost_replay", || {
                crate::cost::replay(sched, machine, opts.lib, opts.faulted)
            })
        });

    let ctx = CheckCtx {
        sched,
        machine,
        sources,
        slots: &slots,
        opts,
        cost: cost.as_ref(),
        link_counts: &link_counts,
        contents: &contents,
    };
    let mut out = CheckOutput::default();
    for check in registry() {
        timed(check.name(), || check.run(&ctx, &mut out));
    }
    // Canonical report order, independent of check execution order.
    out.findings
        .sort_by_key(|f| (f.kind, f.rank, f.at_ns, f.seq));

    Analysis {
        findings: out.findings,
        sends: sched.sends.len(),
        recvs: sched.recvs.len(),
        max_link_load,
        opaque_payloads: out.opaque_payloads,
        cost,
    }
}

/// Deadlock, with wait-for cycle reconstruction.
struct DeadlockCheck;

impl Check for DeadlockCheck {
    fn name(&self) -> &'static str {
        "deadlock"
    }

    fn run(&self, ctx: &CheckCtx, out: &mut CheckOutput) {
        let sched = ctx.sched;
        if !sched.deadlocked {
            return;
        }
        // Wait-for edges among the blocked ranks: r waits on its src
        // filter. Wildcard-src waits have no specific edge; they are
        // reported as unsatisfiable waits instead.
        let blocked: BTreeMap<usize, Option<usize>> = sched
            .blocked
            .iter()
            .map(|b| (b.rank, b.src_filter))
            .collect();
        let cycle = find_wait_cycle(&blocked);
        let waits: Vec<String> = sched
            .blocked
            .iter()
            .map(|b| {
                format!(
                    "rank {} waits on recv(src={}, tag={})",
                    b.rank,
                    b.src_filter.map_or("any".into(), |s| s.to_string()),
                    b.tag_filter.map_or("any".into(), |t| t.to_string()),
                )
            })
            .collect();
        let detail = match cycle {
            Some(cycle) => {
                let ring = cycle
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(" -> ");
                format!(
                    "deadlock: wait-for cycle {ring} -> {} among {} blocked rank(s); {}",
                    cycle[0],
                    sched.blocked.len(),
                    waits.join("; ")
                )
            }
            None => format!(
                "deadlock: {} rank(s) blocked on receives no live rank will satisfy; {}",
                sched.blocked.len(),
                waits.join("; ")
            ),
        };
        out.findings.push(Finding::new(
            FindingKind::Deadlock,
            sched.blocked.first().map(|b| b.rank),
            detail,
        ));
    }
}

/// Find a cycle in the (partial) functional wait-for graph.
fn find_wait_cycle(blocked: &BTreeMap<usize, Option<usize>>) -> Option<Vec<usize>> {
    for &start in blocked.keys() {
        let mut seen = Vec::new();
        let mut cur = start;
        loop {
            if let Some(pos) = seen.iter().position(|&r| r == cur) {
                return Some(seen[pos..].to_vec());
            }
            seen.push(cur);
            // Follow the edge only while the waited-on rank is itself
            // blocked; a wait on a finished or wildcard rank ends the walk.
            match blocked.get(&cur) {
                Some(Some(next)) if blocked.contains_key(next) => cur = *next,
                _ => break,
            }
        }
    }
    None
}

/// Delivery completeness under faults: every message the fault plan
/// destroyed (all permitted transmission attempts dropped) is a send the
/// destination can never receive. Reported as its own kind so fault
/// damage is distinguishable from a schedule that forgot a receive; the
/// unmatched-send check skips these sequence numbers for the same
/// reason.
struct LostMessageCheck;

impl Check for LostMessageCheck {
    fn name(&self) -> &'static str {
        "lost_message"
    }

    fn run(&self, ctx: &CheckCtx, out: &mut CheckOutput) {
        let sched = ctx.sched;
        if sched.lost_seqs().next().is_none() {
            return;
        }
        let lost = sched.seq_flags(sched.lost_seqs());
        // Attempts actually made per message (drops are per attempt).
        let mut attempts: Vec<u32> = vec![0; sched.seq_slots()];
        for d in &sched.drops {
            if let Some(slot) = sched.seq_slot(d.seq) {
                attempts[slot] = attempts[slot].max(d.attempt + 1);
            }
        }
        for send in &sched.sends {
            let slot = sched.seq_slot(send.seq).expect("send seqs are indexed");
            if lost[slot] {
                let mut f = Finding::new(
                    FindingKind::LostMessage,
                    Some(send.dst),
                    format!(
                        "message {} -> {} (tag {}, {} bytes, step {}) destroyed by the \
                         fault plan: all {} transmission attempt(s) dropped",
                        send.src,
                        send.dst,
                        send.tag,
                        send.data.len(),
                        send.step,
                        attempts[slot]
                    ),
                );
                f.seq = Some(send.seq);
                out.findings.push(f);
            }
        }
    }
}

/// Sends that no receive ever consumed.
///
/// Skipped for deadlocked runs — in-flight messages are expected there,
/// and the deadlock finding is the root cause. Messages destroyed by the
/// fault plan are skipped too: [`LostMessageCheck`] already reported
/// them with the fault attribution.
struct UnmatchedSendCheck;

impl Check for UnmatchedSendCheck {
    fn name(&self) -> &'static str {
        "unmatched_send"
    }

    fn run(&self, ctx: &CheckCtx, out: &mut CheckOutput) {
        let sched = ctx.sched;
        if sched.deadlocked {
            return;
        }
        let lost = sched.seq_flags(sched.lost_seqs());
        let matched = sched.seq_flags(sched.recvs.iter().map(|r| r.seq));
        for send in &sched.sends {
            let slot = sched.seq_slot(send.seq).expect("send seqs are indexed");
            if !matched[slot] && !lost[slot] {
                let mut f = Finding::new(
                    FindingKind::UnmatchedSend,
                    Some(send.dst),
                    format!(
                        "message {} -> {} (tag {}, {} bytes, step {}) was never received",
                        send.src,
                        send.dst,
                        send.tag,
                        send.data.len(),
                        send.step
                    ),
                );
                f.seq = Some(send.seq);
                out.findings.push(f);
            }
        }
    }
}

/// Ambiguous receive matches, deduplicated per `(rank, src, tag)` site.
struct MatchAmbiguityCheck;

impl Check for MatchAmbiguityCheck {
    fn name(&self) -> &'static str {
        "match_ambiguity"
    }

    fn run(&self, ctx: &CheckCtx, out: &mut CheckOutput) {
        let mut seen = BTreeSet::new();
        for recv in &ctx.sched.recvs {
            if recv.dup_in_flight > 1 && seen.insert((recv.rank, recv.src, recv.tag)) {
                let mut f = Finding::new(
                    FindingKind::MatchAmbiguity,
                    Some(recv.rank),
                    format!(
                        "rank {} recv(src={}, tag={}) matched while {} in-flight message(s) \
                         shared (src={}, tag={}) — delivery order decided the match",
                        recv.rank,
                        recv.src_filter.map_or("any".into(), |s| s.to_string()),
                        recv.tag_filter.map_or("any".into(), |t| t.to_string()),
                        recv.dup_in_flight,
                        recv.src,
                        recv.tag
                    ),
                );
                f.seq = Some(recv.seq);
                out.findings.push(f);
            }
        }
    }
}

/// s-to-p completeness by payload attribution.
///
/// Deadlocked runs are skipped — the deadlock is the root cause. Sets
/// [`CheckOutput::opaque_payloads`] (and reports nothing) when some
/// payload could not be attributed.
struct PayloadLeakCheck;

impl Check for PayloadLeakCheck {
    fn name(&self) -> &'static str {
        "payload_leak"
    }

    fn run(&self, ctx: &CheckCtx, out: &mut CheckOutput) {
        let sched = ctx.sched;
        if sched.deadlocked {
            return;
        }
        let (sources, contents) = (ctx.sources, ctx.contents);
        if sources.is_empty() {
            return;
        }
        let bits = SourceBits::new(ctx.slots);
        // Source sets are `words` u64s, bit `i` for `sources[i]`: `known`
        // per rank, `carried` per distinct payload content (attributed
        // once, when a receive first consumes it).
        let words = sources.len().div_ceil(64);
        let mut known = vec![0u64; sched.p * words];
        for (bit, &src) in sources.iter().enumerate() {
            if src < sched.p {
                set_bit(&mut known[src * words..][..words], bit);
            }
        }
        let mut carried = vec![0u64; contents.distinct() * words];
        let mut attributed = vec![false; contents.distinct()];
        for recv in &sched.recvs {
            let Some(i) = sched.send_of(recv.seq) else {
                continue;
            };
            let id = contents.of_send[i];
            if id == NONE {
                out.opaque_payloads = true;
                return;
            }
            let id = id as usize;
            let set = &mut carried[id * words..][..words];
            if !std::mem::replace(&mut attributed[id], true)
                && !bits.attribute(&sched.sends[i].data, set)
            {
                out.opaque_payloads = true;
                return;
            }
            for (k, c) in known[recv.rank * words..][..words].iter_mut().zip(set) {
                *k |= *c;
            }
        }
        for (rank, known) in known.chunks(words).enumerate() {
            let reached: u32 = known.iter().map(|w| w.count_ones()).sum();
            if reached as usize == sources.len() {
                continue;
            }
            let mut missing: Vec<usize> = (0..sources.len())
                .filter(|&bit| !has_bit(known, bit))
                .map(|bit| sources[bit])
                .collect();
            missing.sort_unstable();
            let missing: Vec<String> = missing.iter().map(|s| s.to_string()).collect();
            out.findings.push(Finding::new(
                FindingKind::PayloadLeak,
                Some(rank),
                format!(
                    "rank {rank} never received the message(s) of source(s) {} \
                     ({reached} of {} sources reached it)",
                    missing.join(", "),
                    sources.len()
                ),
            ));
        }
    }
}

/// Links whose message count exceeds the opt-in bound. With timing data
/// available the finding carries the link's busy timeline and its top
/// contributing transfers.
struct LinkOverloadCheck;

impl Check for LinkOverloadCheck {
    fn name(&self) -> &'static str {
        "link_overload"
    }

    fn run(&self, ctx: &CheckCtx, out: &mut CheckOutput) {
        let Some(bound) = ctx.opts.max_link_load else {
            return;
        };
        for (link, count) in ctx.link_counts {
            if *count <= bound {
                continue;
            }
            let mut detail = format!(
                "link {}->{} carried {count} messages (bound {bound})",
                link.from, link.to
            );
            let mut f = Finding::new(FindingKind::LinkOverload, None, String::new());
            if let Some(tl) = ctx.cost.and_then(|c| c.links.get(link)) {
                detail.push_str(&format!(
                    "; busy {} ns across [{}, {}] ns",
                    tl.busy_ns, tl.first_busy_ns, tl.last_busy_ns
                ));
                if !tl.top.is_empty() {
                    let top: Vec<String> = tl
                        .top
                        .iter()
                        .map(|(seq, src, dst, ns)| format!("{src}->{dst} (seq {seq}, {ns} ns)"))
                        .collect();
                    detail.push_str(&format!("; top transfers: {}", top.join(", ")));
                }
                f.at_ns = Some(tl.first_busy_ns);
            }
            f.detail = detail;
            out.findings.push(f);
        }
    }
}

/// Per-link message counts over the machine's dimension-ordered routes.
fn link_loads(sched: &Schedule, machine: &Machine) -> (BTreeMap<Link, u64>, u64) {
    let ends =
        |send: &mpp_runtime::SendEvent| (machine.node_of(send.src), machine.node_of(send.dst));
    let counts = machine.topology.route_loads(sched.sends.iter().map(ends));
    let max = counts.values().copied().max().unwrap_or(0);
    (counts, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::tests::send;
    use mpp_runtime::{BlockedEvent, DropEvent, EventLog, RecvEvent};

    /// A hand-built log of a completed run on `p` ranks, as a schedule.
    fn view(log: &EventLog, p: usize) -> Schedule<'_> {
        Schedule::from_log(log, p, false, None)
    }

    fn recv(seq: u64, rank: usize, src: usize, tag: u32, dup: usize) -> RecvEvent {
        RecvEvent {
            step: 0,
            rank,
            src_filter: Some(src),
            tag_filter: Some(tag),
            seq,
            src,
            tag,
            dup_in_flight: dup,
            start_ns: 0,
            arrival_ns: 0,
        }
    }

    fn machine() -> Machine {
        Machine::paragon(2, 2)
    }

    fn payload(src: usize) -> Vec<u8> {
        stp_core::msgset::payload_for(src, 16)
    }

    /// Source `src`'s message, as the runner hands it to a source.
    fn message(src: usize) -> mpp_runtime::Payload {
        stp_core::msgset::source_message(src, 16)
    }

    fn opts() -> AnalyzeOpts {
        AnalyzeOpts::default()
    }

    #[test]
    fn clean_exchange_has_no_findings() {
        // 0 broadcasts its message to everyone; everyone receives it.
        let (p, mut sched) = (4, EventLog::default());
        for (i, dst) in [1, 2, 3].into_iter().enumerate() {
            let seq = i as u64 + 1;
            sched.sends.push(send(seq, 0, dst, 5, message(0)));
            sched.recvs.push(recv(seq, dst, 0, 5, 1));
        }
        let a = analyze(&view(&sched, p), &machine(), &[0], &payload, &opts());
        assert!(
            a.findings.is_empty(),
            "unexpected findings: {:?}",
            a.findings
        );
        assert_eq!(a.sends, 3);
        assert!(a.max_link_load >= 1);
        assert!(!a.opaque_payloads);
    }

    #[test]
    fn deadlock_cycle_is_reconstructed() {
        let mut log = EventLog::default();
        log.blocked = vec![
            BlockedEvent {
                rank: 0,
                src_filter: Some(1),
                tag_filter: Some(9),
            },
            BlockedEvent {
                rank: 1,
                src_filter: Some(2),
                tag_filter: Some(9),
            },
            BlockedEvent {
                rank: 2,
                src_filter: Some(0),
                tag_filter: Some(9),
            },
        ];
        let sched = Schedule::from_log(&log, 3, true, None);
        let a = analyze(&sched, &machine(), &[0], &payload, &opts());
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].kind, FindingKind::Deadlock);
        assert!(
            a.findings[0].detail.contains("wait-for cycle"),
            "{}",
            a.findings[0].detail
        );
    }

    #[test]
    fn unmatched_send_is_reported() {
        let (p, mut sched) = (4, EventLog::default());
        sched.sends.push(send(1, 0, 1, 5, message(0)));
        sched.sends.push(send(2, 0, 2, 5, message(0)));
        sched.recvs.push(recv(1, 1, 0, 5, 1));
        // seq 2 never received; ranks 2 and 3 also leak source 0.
        let a = analyze(&view(&sched, p), &machine(), &[0], &payload, &opts());
        let kinds: Vec<FindingKind> = a.findings.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&FindingKind::UnmatchedSend));
        assert!(kinds.contains(&FindingKind::PayloadLeak));
    }

    #[test]
    fn ambiguity_dedupes_per_site() {
        let (p, mut sched) = (2, EventLog::default());
        sched.sends.push(send(1, 0, 1, 5, message(0)));
        sched.sends.push(send(2, 0, 1, 5, message(0)));
        sched.recvs.push(recv(1, 1, 0, 5, 2));
        sched.recvs.push(recv(2, 1, 0, 5, 1));
        let a = analyze(
            &view(&sched, p),
            &Machine::paragon(1, 2),
            &[0],
            &payload,
            &opts(),
        );
        let ambiguities: Vec<_> = a
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::MatchAmbiguity)
            .collect();
        assert_eq!(ambiguities.len(), 1);
    }

    fn drop(seq: u64, attempt: u32, exhausted: bool) -> DropEvent {
        DropEvent {
            seq,
            src: 0,
            dst: 1,
            attempt,
            exhausted,
        }
    }

    #[test]
    fn lost_message_is_attributed_to_the_fault_plan() {
        let (p, mut sched) = (2, EventLog::default());
        sched.sends.push(send(1, 0, 1, 5, message(0)));
        sched.drops.push(drop(1, 0, false));
        sched.drops.push(drop(1, 1, true));
        let a = analyze(
            &view(&sched, p),
            &Machine::paragon(1, 2),
            &[0],
            &payload,
            &opts(),
        );
        let kinds: Vec<FindingKind> = a.findings.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&FindingKind::LostMessage));
        // The root cause is reported once — not also as an unmatched send.
        assert!(!kinds.contains(&FindingKind::UnmatchedSend));
        // Rank 1 leaks source 0 as a consequence; that is still reported.
        assert!(kinds.contains(&FindingKind::PayloadLeak));
        let lost = a
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::LostMessage)
            .unwrap();
        assert!(
            lost.detail.contains("all 2 transmission attempt(s)"),
            "{}",
            lost.detail
        );
        assert_eq!(lost.seq, Some(1));
    }

    #[test]
    fn recovered_drops_are_not_findings() {
        // Attempt 0 dropped, retry delivered: full delivery, clean run.
        let (p, mut sched) = (2, EventLog::default());
        sched.sends.push(send(1, 0, 1, 5, message(0)));
        sched.drops.push(drop(1, 0, false));
        sched.recvs.push(recv(1, 1, 0, 5, 1));
        let a = analyze(
            &view(&sched, p),
            &Machine::paragon(1, 2),
            &[0],
            &payload,
            &opts(),
        );
        assert!(
            a.findings.is_empty(),
            "unexpected findings: {:?}",
            a.findings
        );
    }

    #[test]
    fn link_overload_requires_opt_in() {
        let (p, mut sched) = (2, EventLog::default());
        for seq in 1..=4u64 {
            sched.sends.push(send(seq, 0, 1, seq as u32, message(0)));
            sched.recvs.push(recv(seq, 1, 0, seq as u32, 1));
        }
        let m = Machine::paragon(1, 2);
        let silent = analyze(&view(&sched, p), &m, &[0], &payload, &opts());
        assert!(silent.findings.is_empty());
        assert_eq!(silent.max_link_load, 4);
        let strict = analyze(
            &view(&sched, p),
            &m,
            &[0],
            &payload,
            &AnalyzeOpts {
                max_link_load: Some(2),
                ..AnalyzeOpts::default()
            },
        );
        assert!(strict
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::LinkOverload));
    }

    #[test]
    fn findings_come_out_in_canonical_order() {
        let (p, mut sched) = (4, EventLog::default());
        // Two unmatched sends pushed in reverse-destination order plus
        // leaks: the report must still sort by (kind, rank, at, seq).
        sched.sends.push(send(2, 0, 3, 5, message(0)));
        sched.sends.push(send(1, 0, 2, 5, message(0)));
        let a = analyze(&view(&sched, p), &machine(), &[0], &payload, &opts());
        let sorted: Vec<_> = a
            .findings
            .iter()
            .map(|f| (f.kind, f.rank, f.at_ns, f.seq))
            .collect();
        let mut expect = sorted.clone();
        expect.sort();
        assert_eq!(sorted, expect, "{:?}", a.findings);
        assert_eq!(a.findings[0].kind, FindingKind::UnmatchedSend);
        assert_eq!(a.findings[0].rank, Some(2));
    }

    /// The payload-leak check alone, as `analyze` would run it.
    fn leak_check(sched: &Schedule, sources: &[usize], len: usize) -> CheckOutput {
        let payload_of = move |src: usize| stp_core::msgset::payload_for(src, len);
        let mut out = CheckOutput::default();
        let ctx = CheckCtx {
            sched,
            machine: &machine(),
            sources,
            slots: &source_slots(sources, &payload_of),
            opts: &opts(),
            cost: None,
            link_counts: &BTreeMap::new(),
            contents: &ContentIds::new(&sched.sends),
        };
        PayloadLeakCheck.run(&ctx, &mut out);
        out
    }

    fn assert_same_leaks(sched: &Schedule, sources: &[usize], len: usize, what: &str) {
        let dense = leak_check(sched, sources, len);
        let payload_of = move |src: usize| stp_core::msgset::payload_for(src, len);
        let naive = crate::naive::payload_leak(sched, sources, &payload_of);
        assert_eq!(dense.opaque_payloads, naive.opaque_payloads, "{what}");
        let details = |out: &CheckOutput| -> Vec<(Option<usize>, String)> {
            let leaks = out.findings.iter();
            leaks.map(|f| (f.rank, f.detail.clone())).collect()
        };
        assert_eq!(details(&dense), details(&naive), "{what}");
    }

    /// Content ids and bit-set source sets against their `BTreeMap` /
    /// `BTreeSet` versions, on every quick-matrix point and every
    /// fixture: ids equal exactly when the slots carried are, and the
    /// same leak findings word for word.
    #[test]
    fn interning_and_leak_sets_agree_with_the_naive_versions_on_recorded_runs() {
        let mut runs = 0;
        crate::lint::tests::for_each_quick_recording(|machine, sources, run| {
            let sched = Schedule::from_recorded(run, machine.p());
            let ids = ContentIds::new(&sched.sends);
            assert_eq!(ids.of_send, crate::naive::payload_ids(&sched));
            assert_same_leaks(&sched, sources, 64, "recorded run");
            runs += 1;
        });
        assert_eq!(runs, 640 + 5);
    }

    /// The order in which the leak check meets payloads is observable:
    /// an unattributable payload aborts it only when a receive consumes
    /// it, and then whatever was leaking goes unreported.
    #[test]
    fn leak_sets_agree_with_the_naive_version_around_opaque_payloads() {
        let set = |slots: &[(usize, usize)]| -> mpp_runtime::Payload {
            let slots = slots.iter().map(|&(src, len)| Slot::new(src, len));
            slots.collect::<stp_core::msgset::MessageSet>().to_payload()
        };
        let (a, b) = (message(0), message(2));
        let both = set(&[(0, 16), (2, 16)]);
        let just_b = set(&[(2, 16)]);
        let misread = set(&[(0, 16), (2, 15)]);
        let stranger = set(&[(0, 16), (3, 16)]);
        let garbage = mpp_runtime::Payload::from_slice(b"garbage");
        /// `(src, dst, payload, received)`.
        type Msg<'a> = (usize, usize, &'a mpp_runtime::Payload, bool);
        let cases: [(&str, &[Msg]); 5] = [
            (
                "complete",
                &[
                    (0, 1, &both, true),
                    (0, 2, &a, true),
                    (2, 0, &just_b, true),
                    (0, 3, &both, true),
                ],
            ),
            ("leaking", &[(0, 1, &a, true), (2, 3, &b, true)]),
            (
                "opaque but never received",
                &[(0, 1, &a, true), (0, 2, &misread, false)],
            ),
            (
                "opaque after a leak",
                &[(0, 1, &a, true), (0, 3, &garbage, true)],
            ),
            (
                "a slot of no source",
                &[(0, 1, &both, true), (0, 2, &stranger, true)],
            ),
        ];
        for (what, msgs) in cases {
            let mut log = EventLog::default();
            for (i, &(src, dst, data, received)) in msgs.iter().enumerate() {
                log.sends
                    .push(send(i as u64 + 1, src, dst, 5, data.clone()));
                if received {
                    log.recvs.push(recv(i as u64 + 1, dst, src, 5, 1));
                }
            }
            assert_same_leaks(&view(&log, 4), &[0, 2], 16, what);
        }
        // Zero-length messages are told apart by their slots: one empty
        // source, and two.
        let mut log = EventLog::default();
        log.sends.push(send(1, 0, 1, 5, set(&[(0, 0)])));
        log.recvs.push(recv(1, 1, 0, 5, 1));
        assert_same_leaks(&view(&log, 2), &[0], 0, "one empty source");
        assert_same_leaks(&view(&log, 2), &[0, 1], 0, "two empty sources");
        let two = leak_check(&view(&log, 2), &[0, 1], 0);
        assert!(!two.opaque_payloads);
        assert_eq!(two.findings.len(), 1, "rank 0 never hears of source 1");
    }

    /// Dense tables are sized from the recording, not trusted from it:
    /// sequence numbers from 0, far apart, or next to `u64::MAX` must
    /// index like small consecutive ones.
    #[test]
    fn findings_do_not_depend_on_how_sequence_numbers_are_spread() {
        let build = |seqs: [u64; 4]| {
            let mut log = EventLog::default();
            // 0 -> 1 received, 0 -> 2 never received, 0 -> 3 destroyed
            // by the fault plan, 0 -> 1 again with an ambiguous match.
            for (seq, dst) in seqs.into_iter().zip([1, 2, 3, 1]) {
                log.sends.push(send(seq, 0, dst, 5, message(0)));
            }
            log.recvs.push(recv(seqs[0], 1, 0, 5, 2));
            log.recvs.push(recv(seqs[3], 1, 0, 5, 1));
            log.drops.push(DropEvent {
                dst: 3,
                ..drop(seqs[2], 0, true)
            });
            log
        };
        let findings = |seqs: [u64; 4]| -> Vec<(FindingKind, Option<usize>, String, usize)> {
            let log = build(seqs);
            let a = analyze(&view(&log, 4), &machine(), &[0], &payload, &opts());
            let nth = |seq: Option<u64>| seqs.iter().position(|&s| Some(s) == seq).unwrap_or(9);
            let found = a.findings.iter();
            found
                .map(|f| (f.kind, f.rank, f.detail.clone(), nth(f.seq)))
                .collect()
        };
        let plain = findings([1, 2, 3, 4]);
        let kinds: BTreeSet<FindingKind> = plain.iter().map(|f| f.0).collect();
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            [
                FindingKind::UnmatchedSend,
                FindingKind::MatchAmbiguity,
                FindingKind::PayloadLeak,
                FindingKind::LostMessage
            ]
        );
        assert_eq!(findings([0, 1, 2, 3]), plain);
        assert_eq!(findings([0, 1 << 20, 1 << 40, u64::MAX - 1]), plain);
        assert_eq!(
            findings([u64::MAX - 4, u64::MAX - 3, u64::MAX - 2, u64::MAX - 1]),
            plain
        );
    }

    /// The same on the timing side: a recorded run whose sequence numbers
    /// are scattered over the whole `u64` range, on a machine larger than
    /// any fixed-size node table would want to be, still replays
    /// conformant and lints exactly as recorded.
    #[test]
    fn replay_indexes_scattered_seqs_on_a_large_machine() {
        use stp_core::runner::{try_record_sources, AlgoKind, RunControl};
        let machine = Machine::paragon(24, 24);
        let sources = [0, 100, 300, 575];
        let kind = AlgoKind::BrLin;
        let mut run = try_record_sources(
            &machine,
            kind.default_lib(),
            &sources,
            &payload,
            kind.build().as_ref(),
            &RunControl::default(),
        )
        .expect("recording failed");
        let perf = AnalyzeOpts {
            perf: true,
            lib: kind.default_lib(),
            ..opts()
        };
        let lint = |run: &stp_core::runner::RecordedRun| {
            let sched = Schedule::from_recorded(run, machine.p());
            let a = analyze(&sched, &machine, &sources, &payload, &perf);
            let cost = a.cost.expect("a recorded run is replayed");
            assert!(cost.conformant(), "{:?}", cost.divergences);
            assert_eq!(Some(cost.makespan_ns), sched.makespan_ns);
            let found = a.findings.into_iter();
            found.map(|f| (f.kind, f.detail)).collect::<Vec<_>>()
        };
        let as_recorded = lint(&run);
        let scatter = |seq: u64| seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let log = &mut run.events;
        log.sends.iter_mut().for_each(|e| e.seq = scatter(e.seq));
        log.xfers.iter_mut().for_each(|e| e.seq = scatter(e.seq));
        log.recvs.iter_mut().for_each(|e| e.seq = scatter(e.seq));
        assert_eq!(lint(&run), as_recorded);
    }

    #[test]
    fn severities_partition_the_kinds() {
        assert_eq!(FindingKind::Deadlock.severity(), Severity::Error);
        assert_eq!(FindingKind::CostModelDivergence.severity(), Severity::Error);
        assert_eq!(FindingKind::IdlePorts.severity(), Severity::Warn);
        assert_eq!(FindingKind::AboveLowerBound.severity(), Severity::Info);
        // Every kind has a name of its own.
        let names: std::collections::HashSet<&str> = KINDS.iter().map(|row| row.0.name()).collect();
        assert_eq!(names.len(), KINDS.len());
    }
}
