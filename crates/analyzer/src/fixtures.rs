//! Seeded-bug fixtures: deliberately broken s-to-p algorithms.
//!
//! Each fixture plants one classic schedule bug; the CI lint gate runs
//! the analyzer over all of them and fails unless every bug is caught
//! with the right [`FindingKind`]. They double as
//! end-to-end tests that the recorder survives aborted runs.
//!
//! Fixtures marked [`Fixture::perf`] plant *performance* bugs: the
//! schedule is correct (full delivery, no errors) but wastes the
//! machine, and the perf lints must flag it. Those verdicts use
//! contains-semantics — the expected kind must be detected and nothing
//! error-severity may appear — because one bad schedule shape can
//! legitimately trip several perf smells at once.

use mpp_model::Machine;
use mpp_runtime::{CommFuture, RankCtx};
use stp_core::algorithms::{StpAlgorithm, StpCtx};
use stp_core::msgset::{MessageSet, Slot};

use crate::FindingKind;

/// Tag range owned by the fixtures (disjoint from every real algorithm).
const FIX_RING: u32 = 9_000;
const FIX_CHUNKS: u32 = 9_100;
const FIX_GATHER: u32 = 9_200;
const FIX_BCAST: u32 = 9_300;
const FIX_STAR: u32 = 9_400;

/// One registered fixture.
pub struct Fixture {
    /// Stable fixture name.
    pub name: &'static str,
    /// The finding kind the analyzer must produce.
    pub expected: FindingKind,
    /// Build the broken algorithm.
    pub build: fn() -> Box<dyn StpAlgorithm>,
    /// The machine the fixture runs on.
    pub machine: fn() -> Machine,
    /// Source count handed to the `Equal` distribution.
    pub s: usize,
    /// A performance fixture: run the perf lints, use
    /// contains-semantics for the verdict.
    pub perf: bool,
}

/// Shared fixture machines. The seeded-bug fixtures run on these, and
/// the conformance / lint / CI suites reuse them so "the machine the
/// idle-ports fixture wastes" and "the machine `KPort_Lin` must lint
/// clean on" are provably the same shape.
pub mod machines {
    use mpp_model::{Machine, MachineParams, MeshShape, Placement, Topology};

    /// The default 4×4 single-port Paragon the functional fixtures use.
    pub fn standard_machine() -> Machine {
        Machine::paragon(4, 4)
    }

    /// The 4×4 Paragon shape with five independent injection ports per
    /// node — the machine the idle-ports fixture wastes.
    pub fn five_port_machine() -> Machine {
        Machine::new(
            "Paragon 4x4 (5-port)",
            Topology::Mesh2D { rows: 4, cols: 4 },
            MachineParams::paragon_nx().with_ports(5),
            Placement::Identity,
            MeshShape::new(4, 4),
        )
    }
}

use machines::{five_port_machine, standard_machine};

/// All seeded-bug fixtures.
pub fn all() -> Vec<Fixture> {
    vec![
        Fixture {
            name: "off_by_one_partner",
            expected: FindingKind::Deadlock,
            build: || Box::new(OffByOnePartner),
            machine: standard_machine,
            s: 4,
            perf: false,
        },
        Fixture {
            name: "duplicate_tag",
            expected: FindingKind::MatchAmbiguity,
            build: || Box::new(DuplicateTag),
            machine: standard_machine,
            s: 4,
            perf: false,
        },
        Fixture {
            name: "dropped_combine",
            expected: FindingKind::PayloadLeak,
            build: || Box::new(DroppedCombine),
            machine: standard_machine,
            s: 4,
            perf: false,
        },
        Fixture {
            name: "serialized_linear_tree",
            expected: FindingKind::SerializationHotspot,
            build: || Box::new(SerialStar),
            machine: standard_machine,
            s: 1,
            perf: true,
        },
        Fixture {
            name: "single_port_broadcast",
            expected: FindingKind::IdlePorts,
            build: || Box::new(SerialStar),
            machine: five_port_machine,
            s: 1,
            perf: true,
        },
    ]
}

/// Ring forwarding with an off-by-one receive partner: every rank sends
/// to `rank + 1` but waits on `rank + 2`, so every mailbox holds a
/// message its owner will never ask for — a full-machine deadlock.
struct OffByOnePartner;

impl StpAlgorithm for OffByOnePartner {
    fn name(&self) -> &'static str {
        "fixture:off_by_one_partner"
    }

    fn run<'a>(
        &'a self,
        comm: &'a mut RankCtx,
        _ctx: &'a StpCtx<'a>,
    ) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            let (me, p) = (comm.rank(), comm.size());
            comm.send((me + 1) % p, FIX_RING, &[me as u8]);
            // BUG: the matching receive partner is (me + p - 1) % p.
            let env = comm.recv(Some((me + 2) % p), Some(FIX_RING)).await;
            let _ = env;
            MessageSet::new()
        })
    }
}

/// The first source star-broadcasts its message in two chunks that share
/// one `(src, tag)` pair. Both chunks are in flight together, so which
/// bytes each receive consumes is decided by queue order alone — the
/// match-ambiguity hazard (here benign only because the kernel delivers
/// in arrival order; any reordering of equal-time events would corrupt
/// the reassembly).
struct DuplicateTag;

impl StpAlgorithm for DuplicateTag {
    fn name(&self) -> &'static str {
        "fixture:duplicate_tag"
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            let me = comm.rank();
            let hub = ctx.sources[0];
            if me == hub {
                let data = ctx.payload.expect("hub is a source").to_vec();
                let mid = data.len() / 2;
                for dst in 0..comm.size() {
                    if dst != hub {
                        // BUG: both halves use the same tag.
                        comm.send(dst, FIX_CHUNKS, &data[..mid]);
                        comm.send(dst, FIX_CHUNKS, &data[mid..]);
                    }
                }
                ctx.initial_set()
            } else {
                let a = comm.recv(Some(hub), Some(FIX_CHUNKS)).await;
                let b = comm.recv(Some(hub), Some(FIX_CHUNKS)).await;
                let mut data = a.data.to_vec();
                data.extend_from_slice(&b.data.to_vec());
                MessageSet::single(hub, &data)
            }
        })
    }
}

/// A *correct* but maximally serial broadcast: the single source sends
/// its message to every other rank one after another, so the whole
/// machine waits on one rank's α_send chain and every payload re-crosses
/// the links nearest the hub. On a single-port machine this is the
/// serialization-hotspot fixture; on a multi-port machine the same
/// schedule additionally wastes every port but one (idle-ports).
struct SerialStar;

impl StpAlgorithm for SerialStar {
    fn name(&self) -> &'static str {
        "fixture:serial_star"
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            let me = comm.rank();
            let hub = ctx.sources[0];
            if me == hub {
                let data = ctx.payload.expect("hub is a source");
                // PERF BUG: p−1 sequential sends from one rank; a
                // broadcast tree would finish in ⌈log₂ p⌉ rounds.
                for dst in 0..comm.size() {
                    if dst != hub {
                        comm.send_payload(dst, FIX_STAR, data.clone());
                    }
                }
                ctx.initial_set()
            } else {
                let env = comm.recv(Some(hub), Some(FIX_STAR)).await;
                Slot::of(&env.data).expect("a source message").into()
            }
        })
    }
}

/// Gather-then-broadcast that silently drops the highest source while
/// combining at the hub: the schedule completes, every send is matched,
/// but the dropped source's message never reaches the other ranks.
struct DroppedCombine;

impl StpAlgorithm for DroppedCombine {
    fn name(&self) -> &'static str {
        "fixture:dropped_combine"
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            let me = comm.rank();
            let hub = ctx.sources[0];
            if me == hub {
                let mut set = ctx.initial_set();
                for &src in ctx.sources.iter().filter(|&&s| s != hub) {
                    let env = comm.recv(Some(src), Some(FIX_GATHER)).await;
                    set.merge(MessageSet::from_payload(&env.data).expect("wire set"));
                }
                // BUG: the last source is dropped from the combined set.
                let dropped = *ctx.sources.last().unwrap() as u32;
                let kept: MessageSet = set
                    .slots()
                    .iter()
                    .filter(|slot| slot.src != dropped)
                    .copied()
                    .collect();
                let wire = kept.to_payload();
                for dst in 0..comm.size() {
                    if dst != hub {
                        comm.send_payload(dst, FIX_BCAST, wire.clone());
                    }
                }
                set
            } else {
                let own = ctx.initial_set();
                if !own.is_empty() {
                    comm.send_payload(hub, FIX_GATHER, own.to_payload());
                }
                let env = comm.recv(Some(hub), Some(FIX_BCAST)).await;
                let mut set = MessageSet::from_payload(&env.data).expect("wire set");
                set.merge(own);
                set
            }
        })
    }
}
