//! Performance lints and the cost-model conformance gate.
//!
//! All of these consume the [`crate::cost`] engine's replay
//! ([`CheckCtx::cost`]); the performance lints additionally require
//! [`AnalyzeOpts::perf`](crate::AnalyzeOpts) — they describe smells, not
//! bugs, and some fire legitimately on the paper's weaker baselines
//! (that is what the committed lint baseline suppresses).

use mpp_model::Time;

use crate::checks::{Check, CheckCtx, CheckOutput, Finding, FindingKind};
use crate::schedule::grouped;

/// Nodes listed by name in an aggregate finding before eliding.
const LIST_CAP: usize = 8;

/// `cost_model_divergence`: the static replay disagrees with the kernel.
pub struct CostConformance;

impl Check for CostConformance {
    fn name(&self) -> &'static str {
        "cost_model_conformance"
    }

    fn run(&self, ctx: &CheckCtx, out: &mut CheckOutput) {
        if !ctx.opts.conformance {
            return;
        }
        let Some(cost) = ctx.cost else { return };
        for d in &cost.divergences {
            out.findings.push(Finding::new(
                FindingKind::CostModelDivergence,
                None,
                format!("static cost model disagrees with the kernel: {d}"),
            ));
        }
    }
}

/// `idle_ports`: on a machine with more than one injection port per
/// node, a node that sent several networked messages but never had two
/// port windows overlap is paying for ports it cannot use — the
/// schedule (not the hardware) serializes its injections.
pub struct IdlePorts;

impl Check for IdlePorts {
    fn name(&self) -> &'static str {
        "idle_ports"
    }

    fn run(&self, ctx: &CheckCtx, out: &mut CheckOutput) {
        if !ctx.opts.perf {
            return;
        }
        let Some(cost) = ctx.cost else { return };
        let k = ctx.machine.params.ports_per_node;
        if k < 2 {
            return;
        }
        let idle: Vec<usize> = cost
            .ports
            .iter()
            .enumerate()
            .filter(|(_, p)| p.sends >= 2 && p.max_out_concurrency <= 1)
            .map(|(node, _)| node)
            .collect();
        if idle.is_empty() {
            return;
        }
        let total_sends: usize = idle.iter().map(|&n| cost.ports[n].sends).sum();
        let mut names: Vec<String> = idle.iter().take(LIST_CAP).map(|n| n.to_string()).collect();
        if idle.len() > LIST_CAP {
            names.push(format!("... ({} total)", idle.len()));
        }
        out.findings.push(Finding::new(
            FindingKind::IdlePorts,
            Some(idle[0]),
            format!(
                "{} node(s) with {k} injection ports never drove more than one port \
                 concurrently across {total_sends} send(s): node(s) {}",
                idle.len(),
                names.join(", ")
            ),
        ));
    }
}

/// `serialization_hotspot`: one rank accounts for at least half of the
/// critical path — every other processor is waiting on its α overheads
/// and local work.
pub struct SerializationHotspot;

impl Check for SerializationHotspot {
    fn name(&self) -> &'static str {
        "serialization_hotspot"
    }

    fn run(&self, ctx: &CheckCtx, out: &mut CheckOutput) {
        if !ctx.opts.perf {
            return;
        }
        let Some(cost) = ctx.cost else { return };
        if cost.makespan_ns == 0 {
            return;
        }
        for (rank, &ns) in cost.crit.by_rank_ns.iter().enumerate() {
            if ns * 2 >= cost.makespan_ns {
                out.findings.push(Finding::new(
                    FindingKind::SerializationHotspot,
                    Some(rank),
                    format!(
                        "rank {rank} accounts for {ns} ns of the {} ns critical path \
                         ({}%) — the schedule serializes through it",
                        cost.makespan_ns,
                        ns * 100 / cost.makespan_ns
                    ),
                ));
            }
        }
    }
}

/// `contention_dominated`: transfers on the critical path spent more
/// time stalled on busy links and ports than actually traversing the
/// network.
pub struct ContentionDominated;

impl Check for ContentionDominated {
    fn name(&self) -> &'static str {
        "contention_dominated"
    }

    fn run(&self, ctx: &CheckCtx, out: &mut CheckOutput) {
        if !ctx.opts.perf {
            return;
        }
        let Some(cost) = ctx.cost else { return };
        let crit = &cost.crit;
        if crit.stall_ns > 0 && crit.stall_ns > crit.free_ns {
            out.findings.push(Finding::new(
                FindingKind::ContentionDominated,
                None,
                format!(
                    "contention stalls ({} ns) exceed resource-free transfer time \
                     ({} ns) across the {} transfer(s) on the critical path",
                    crit.stall_ns, crit.free_ns, crit.xfers
                ),
            ));
        }
    }
}

/// `redundant_transmission`: the same payload crossed the same physical
/// link repeatedly. A forwarding tree sends each byte over each link
/// once; a star re-sends it per destination.
pub struct RedundantTransmission;

/// Fire only past this many duplicate crossings...
const REDUNDANT_MIN_DUPS: usize = 4;
/// ...and when duplicates are at least this share of all crossings (as
/// duplicates × RATIO ≥ total).
const REDUNDANT_RATIO: usize = 4;

impl Check for RedundantTransmission {
    fn name(&self) -> &'static str {
        "redundant_transmission"
    }

    fn run(&self, ctx: &CheckCtx, out: &mut CheckOutput) {
        if !ctx.opts.perf {
            return;
        }
        let Some(cost) = ctx.cost else { return };
        let sched = ctx.sched;
        // Transfers grouped by the content they carry (a counting sort
        // on the content id), so one stamp per link tells whether the
        // current content already crossed it. A payload that carries no
        // slot has no content to compare and is left out.
        let content_of = |x: &mpp_runtime::XferEvent| {
            let id = ctx.contents.of_send[sched.send_of(x.seq)?];
            (id != crate::schedule::NONE).then_some(id as usize)
        };
        let (_, by_content) = grouped(sched.xfers.iter().map(content_of), ctx.contents.distinct());
        // Per link: the last content that crossed it (one past the id of
        // the transfer's content) and how often that content did.
        let mut crossed = vec![(0usize, 0usize); cost.link_table.len()];
        let (mut total, mut distinct) = (0usize, 0usize);
        let mut worst: Option<(usize, std::cmp::Reverse<mpp_model::Link>)> = None;
        for &xi in &by_content {
            let x = &sched.xfers[xi as usize];
            let stamp = content_of(x).expect("grouped transfers have a content") + 1;
            for &l in &cost.window_link[x.win_off as usize..][..x.win_len as usize] {
                let (last, count) = &mut crossed[l as usize];
                if *last != stamp {
                    (*last, *count) = (stamp, 0);
                    distinct += 1;
                }
                *count += 1;
                total += 1;
                worst = worst.max(Some((
                    *count,
                    std::cmp::Reverse(cost.link_table[l as usize]),
                )));
            }
        }
        let dups = total - distinct;
        if dups < REDUNDANT_MIN_DUPS || dups * REDUNDANT_RATIO < total {
            return;
        }
        let (worst_count, std::cmp::Reverse(worst_link)) =
            worst.expect("dups > 0 implies a crossing");
        out.findings.push(Finding::new(
            FindingKind::RedundantTransmission,
            None,
            format!(
                "{dups} of {total} link crossings re-carried a payload already sent \
                 over the same link (worst: link {}->{} carried one payload \
                 {worst_count} times) — forward once and fan out instead",
                worst_link.from, worst_link.to
            ),
        ));
    }
}

/// `above_lower_bound`: the recomputed makespan exceeds
/// [`AnalyzeOpts::lb_tolerance`](crate::AnalyzeOpts) times a generic
/// s-to-p lower bound — `⌈log₂ p⌉` latency terms to reach every rank
/// plus the source bytes through the machine's injection ports.
pub struct AboveLowerBound;

impl Check for AboveLowerBound {
    fn name(&self) -> &'static str {
        "above_lower_bound"
    }

    fn run(&self, ctx: &CheckCtx, out: &mut CheckOutput) {
        if !ctx.opts.perf {
            return;
        }
        let Some(cost) = ctx.cost else { return };
        let p = ctx.sched.p;
        if p < 2 || cost.makespan_ns == 0 {
            return;
        }
        let params = &ctx.machine.params;
        let total_bytes: usize = ctx.slots.iter().map(|slot| slot.len as usize).sum();
        let log2p = (usize::BITS - (p - 1).leading_zeros()) as Time;
        let k = params.ports_per_node as Time;
        let lower = log2p * (params.alpha_send(ctx.opts.lib) + params.alpha_recv(ctx.opts.lib))
            + params.serialize_ns_lib(total_bytes, ctx.opts.lib) / k;
        if lower == 0 {
            return;
        }
        let ratio = cost.makespan_ns as f64 / lower as f64;
        if ratio > ctx.opts.lb_tolerance {
            out.findings.push(Finding::new(
                FindingKind::AboveLowerBound,
                None,
                format!(
                    "makespan {} ns is {ratio:.1}x the s-to-p lower bound {lower} ns \
                     (tolerance {:.1}x)",
                    cost.makespan_ns, ctx.opts.lb_tolerance
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::checks::{analyze, AnalyzeOpts, FindingKind, Severity};
    use crate::fixtures;
    use crate::schedule::Schedule;
    use mpp_model::Machine;
    use stp_core::distribution::SourceDist;
    use stp_core::msgset::payload_for;
    use stp_core::runner::{try_record_sources, AlgoKind, RunControl};

    fn perf_opts() -> AnalyzeOpts {
        AnalyzeOpts {
            perf: true,
            ..AnalyzeOpts::default()
        }
    }

    /// The real algorithms must never trip an error-severity finding
    /// with the perf lints enabled — Warn/Info smells are allowed (they
    /// land in the committed baseline), errors are not.
    #[test]
    fn perf_lints_raise_no_errors_on_real_algorithms() {
        let machine = Machine::paragon(4, 4);
        let sources = SourceDist::Equal.place(machine.shape, 4);
        let payload_of = |src: usize| payload_for(src, 64);
        for kind in [AlgoKind::TwoStep, AlgoKind::BrXyDim, AlgoKind::PartLin] {
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
            let a = analyze(
                &sched,
                &machine,
                &sources,
                &payload_of,
                &AnalyzeOpts {
                    lib: kind.default_lib(),
                    ..perf_opts()
                },
            );
            for f in &a.findings {
                assert_ne!(f.severity(), Severity::Error, "{}: {:?}", kind.name(), f);
            }
        }
    }

    /// The serialized-star fixture trips the serialization-hotspot lint
    /// at its hub, and nothing error-severity.
    #[test]
    fn serialized_star_is_a_hotspot() {
        let fx = fixtures::all()
            .into_iter()
            .find(|f| f.name == "serialized_linear_tree")
            .expect("fixture registered");
        let machine = (fx.machine)();
        let sources = SourceDist::Equal.place(machine.shape, fx.s);
        let payload_of = |src: usize| payload_for(src, 64);
        let alg = (fx.build)();
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
        let a = analyze(&sched, &machine, &sources, &payload_of, &perf_opts());
        assert!(
            a.findings
                .iter()
                .any(|f| f.kind == FindingKind::SerializationHotspot),
            "{:?}",
            a.findings
        );
        for f in &a.findings {
            assert_ne!(f.severity(), Severity::Error, "{f:?}");
        }
    }

    /// The single-port-broadcast fixture wastes its 5-port nodes and
    /// trips the idle-ports lint; conformance must hold on the multi-port
    /// machine too.
    #[test]
    fn multi_port_star_wastes_its_ports() {
        let fx = fixtures::all()
            .into_iter()
            .find(|f| f.name == "single_port_broadcast")
            .expect("fixture registered");
        let machine = (fx.machine)();
        assert!(machine.params.ports_per_node > 1);
        let sources = SourceDist::Equal.place(machine.shape, fx.s);
        let payload_of = |src: usize| payload_for(src, 64);
        let alg = (fx.build)();
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
        let a = analyze(&sched, &machine, &sources, &payload_of, &perf_opts());
        assert!(
            a.findings.iter().any(|f| f.kind == FindingKind::IdlePorts),
            "{:?}",
            a.findings
        );
        for f in &a.findings {
            assert_ne!(f.severity(), Severity::Error, "{f:?}");
        }
    }

    /// The negative gate for the k-ported transmit path: on the *same*
    /// five-port machine the idle-ports fixture wastes, `KPort_Lin`
    /// must lint completely clean — zero perf findings of any severity,
    /// so it needs no entry in the committed lint baseline. If the
    /// batched sends ever stop overlapping port windows, the idle-ports
    /// lint fires here before the sweep numbers move.
    ///
    /// Gated in the algorithm's target regime (s comfortably above k):
    /// with fewer sources than ~2k, some forwarders only ever carry one
    /// lane's traffic per level — no source-striped schedule can
    /// overlap their ports, and the idle-ports lint fires by
    /// construction (that regime belongs to a chunk-striping algorithm,
    /// not to lane assignment).
    #[test]
    fn kport_lin_lints_clean_on_the_idle_ports_machine() {
        let machine = fixtures::machines::five_port_machine();
        assert!(machine.params.ports_per_node > 1);
        let payload_of = |src: usize| payload_for(src, 64);
        for s in [10usize, 12] {
            let sources = SourceDist::Equal.place(machine.shape, s);
            let alg = AlgoKind::KPortLin.build();
            let run = try_record_sources(
                &machine,
                AlgoKind::KPortLin.default_lib(),
                &sources,
                &payload_of,
                alg.as_ref(),
                &RunControl::default(),
            )
            .expect("recording failed");
            let sched = Schedule::from_recorded(&run, machine.p());
            let a = analyze(&sched, &machine, &sources, &payload_of, &perf_opts());
            assert!(
                a.findings.is_empty(),
                "KPort_Lin (s={s}) must produce zero perf findings on the \
                 idle-ports machine, got {:?}",
                a.findings
            );
        }
    }
}
