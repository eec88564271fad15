//! The s-to-p broadcasting algorithms.
//!
//! Seven algorithms from the paper, all implementing [`StpAlgorithm`]:
//!
//! | paper name        | type                                   | module |
//! |-------------------|----------------------------------------|--------|
//! | `2-Step`          | gather + one-to-all broadcast          | [`two_step`] |
//! | `PersAlltoAll`    | personalized all-to-all exchange       | [`pers_alltoall`] |
//! | `Br_Lin`          | recursive pairing on a linear order    | [`br_lin`] |
//! | `Br_xy_source`    | dimension order by source counts       | [`br_xy`] |
//! | `Br_xy_dim`       | dimension order by mesh shape          | [`br_xy`] |
//! | `Repos_*`         | reposition to an ideal distribution    | [`part`], depth 0 |
//! | `Part_*`          | reposition + machine partitioning      | [`part`], depth 1 |
//! | `KPort_*`         | k-ported batched lanes (extension)     | [`kport`] |
//!
//! `MPI_AllGather` and `MPI_Alltoall` in the paper's T3D plots are the
//! MPI builds of `2-Step` and `PersAlltoAll` respectively (paper §5.3);
//! in this reproduction that is expressed by running the same algorithm
//! under [`LibraryKind::Mpi`](mpp_model::LibraryKind).

pub mod adaptive;
pub mod br_lin;
pub mod br_xy;
pub mod dissem;
pub mod kport;
pub mod naive;
pub mod part;
pub mod pers_alltoall;
pub mod two_step;

use mpp_model::MeshShape;
use mpp_runtime::{CommFuture, RankCtx, Tag};

use crate::msgset::MessageSet;

pub use adaptive::ReposAdaptive;
pub use br_lin::BrLin;
pub use br_xy::{BrXyDim, BrXySource, DimOrder};
pub use dissem::DissemAllGather;
pub use kport::{KPortAlltoall, KPortLin, KPortScatter};
pub use naive::NaiveIndependent;
pub use part::{MergeBase, Part};
pub use pers_alltoall::PersAlltoAll;
pub use two_step::TwoStep;

/// Everything one rank needs to know before an s-to-p broadcast starts.
///
/// Matching the paper's model: "every processor knows the position of the
/// source processors and the size of the messages when s-to-p
/// broadcasting starts".
pub struct StpCtx<'a> {
    /// The logical mesh.
    pub shape: MeshShape,
    /// Sorted, distinct source ranks (`s = sources.len() ≥ 1`), each
    /// below `shape.p()`. The runner checks this once per run, where it
    /// builds the context; an algorithm relies on it without checking.
    pub sources: &'a [usize],
    /// This rank's message — `Some` iff this rank is a source.
    pub payload: Option<&'a [u8]>,
}

impl StpCtx<'_> {
    /// Number of sources.
    pub fn s(&self) -> usize {
        self.sources.len()
    }

    /// Whether `rank` is a source.
    pub fn is_source(&self, rank: usize) -> bool {
        self.sources.binary_search(&rank).is_ok()
    }

    /// What `rank` holds before the broadcast: its own message when it
    /// is a source, nothing otherwise.
    pub fn initial_set(&self, rank: usize) -> MessageSet {
        self.payload
            .map_or_else(MessageSet::new, |p| MessageSet::single(rank, p))
    }
}

/// An s-to-p broadcasting algorithm.
///
/// `run` is executed by *every* rank; on completion each rank holds the
/// complete [`MessageSet`] of all `s` source messages.
pub trait StpAlgorithm: Sync {
    /// Name as used in the paper ("Br_Lin", "2-Step", …).
    fn name(&self) -> &'static str;

    /// Execute the broadcast from this rank's perspective.
    ///
    /// Returns a boxed future so the trait stays object-safe: rank
    /// programs are resumable state machines on the simulator's
    /// cooperative executor, and suspend at every `recv`/`barrier`.
    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet>;
}

/// Tag bases: each phase owns a disjoint tag range so that concurrent
/// sub-broadcasts (rows, groups) can never cross-match. Levels are added
/// to the base. Every algorithm takes its tags from this table.
pub(crate) mod tags {
    use mpp_runtime::Tag;
    /// `Br_Lin` iterations (also used inside rows/columns/groups).
    pub const BR_LIN: Tag = 1_000;
    /// Second dimension of the `Br_xy_*` algorithms.
    pub const BR_XY_PHASE2: Tag = 2_000;
    /// 2-Step gather.
    pub const GATHER: Tag = 3_000;
    /// 2-Step broadcast.
    pub const BCAST: Tag = 3_100;
    /// Personalized all-to-all.
    pub const PERS: Tag = 3_200;
    /// The repositioning permutation (`Repos_*` and `Part_*`).
    pub const REPOS: Tag = 3_300;
    /// Partitioning inter-group exchanges (`base + merge round`).
    pub const PART_EXCHANGE: Tag = 3_500;
    /// `KPort_Lin` lanes (`base + level·16 + lane`).
    pub const KPORT: Tag = 3_600;
    /// `KPort_Scatter` gather (+1 scatter, +16… lane blocks).
    pub const KPORT_SCATTER: Tag = 4_000;
    /// `KPort_Alltoall` direct exchange.
    pub const KPORT_A2A: Tag = 4_400;
    /// Dissemination all-gather rounds (`base + round`).
    pub const DISSEM: Tag = 4_500;
    /// `NaiveIndependent` trees (`base + source index`): one tag per
    /// source, so this open-ended range comes last.
    pub const NAIVE: Tag = 5_000;
}

/// Receive one message set from `from` (any sender when `None`) under
/// `tag`, charge the combining copy for it, and merge it into `set`.
///
/// The charge is *virtual* time: the model copies the received bytes
/// into the merged buffer, while the host-side merge reads the sender's
/// shared snapshot and clones the ropes of the sources it lacks.
pub(crate) async fn recv_merge(
    comm: &mut RankCtx,
    from: Option<usize>,
    tag: Tag,
    set: &mut MessageSet,
) {
    let msg = comm.recv(from, Some(tag)).await;
    comm.charge_memcpy(msg.data.len());
    set.merge(&*MessageSet::view(&msg.data).expect("malformed message set on the wire"));
}

/// Run the `Br_Lin` merge pattern over a linear order of ranks.
///
/// `order(i)` is the rank at linear position `i`, and the calling rank
/// sits at `my_pos`; `has[i]` says whether position `i` initially holds
/// messages. The caller's current set is merged in place. Ranks outside
/// the order must not call this.
///
/// One `next_iteration` is recorded per level so the Figure-2 metrics
/// can be derived.
pub(crate) async fn br_lin_over(
    comm: &mut RankCtx,
    order: impl Fn(usize) -> usize,
    my_pos: usize,
    has: &[bool],
    set: &mut MessageSet,
    tag_base: Tag,
) {
    debug_assert_eq!(order(my_pos), comm.rank(), "my_pos is not my position");
    debug_assert_eq!(
        has[my_pos],
        !set.is_empty(),
        "has flag disagrees with holdings"
    );

    let schedule = crate::pattern::br_lin_schedule_shared(has);
    for (level, level_ops) in schedule.ops.iter().enumerate() {
        let my_ops = &level_ops[my_pos];
        let tag = tag_base + level as Tag;
        // Simultaneous semantics: all sends ship the pre-level snapshot.
        // The snapshot is one shared handle; every peer gets a clone of
        // it, and the level's last send takes it.
        let mut peers = my_ops.iter().filter(|op| op.send).map(|op| order(op.peer));
        if let Some(mut peer) = peers.next() {
            let snapshot = set.to_payload();
            for next in peers {
                comm.send_payload(peer, tag, snapshot.clone());
                peer = next;
            }
            comm.send_payload(peer, tag, snapshot);
        }
        for op in my_ops.iter().filter(|op| op.recv) {
            recv_merge(comm, Some(order(op.peer)), tag, set).await;
        }
        comm.next_iteration();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mpp_model::Machine;
    use mpp_runtime::{simulate, SimOutcome};

    use crate::msgset::payload_for;

    /// Run `program` on every rank of a `shape` Paragon.
    pub(crate) fn simulate_on<R>(
        shape: MeshShape,
        program: impl AsyncFn(&mut RankCtx) -> R,
    ) -> SimOutcome<R> {
        let program = &program;
        let machine = Machine::paragon(shape.rows, shape.cols);
        simulate(
            &machine,
            move |mut ctx| async move { program(&mut ctx).await },
        )
    }

    /// [`simulate_on`]'s per-rank results.
    pub(crate) fn run_on<R>(shape: MeshShape, program: impl AsyncFn(&mut RankCtx) -> R) -> Vec<R> {
        simulate_on(shape, program).results
    }

    /// Run `alg` on a `shape` Paragon whose `sources` hold
    /// `payload_for(src, len)`, and assert that every rank ends with
    /// exactly those payloads, byte for byte.
    pub(crate) fn assert_delivers(
        alg: &dyn StpAlgorithm,
        shape: MeshShape,
        sources: &[usize],
        len: usize,
    ) {
        let sets = run_on(shape, async |comm| {
            let payload = sources
                .contains(&comm.rank())
                .then(|| payload_for(comm.rank(), len));
            let ctx = StpCtx {
                shape,
                sources,
                payload: payload.as_deref(),
            };
            alg.run(comm, &ctx).await
        });
        let name = alg.name();
        for (rank, set) in sets.iter().enumerate() {
            assert_eq!(
                set.sources().collect::<Vec<_>>(),
                sources,
                "{name} rank {rank}"
            );
            for &s in sources {
                assert_eq!(
                    set.get(s).unwrap(),
                    payload_for(s, len),
                    "{name} rank {rank} src {s}"
                );
            }
        }
    }

    #[test]
    fn br_lin_over_spreads_to_all() {
        for p in [4usize, 7, 10] {
            let sources = vec![1usize, p - 1];
            let sets = run_on(MeshShape::new(1, p), async |comm| {
                let has: Vec<bool> = (0..comm.size()).map(|r| sources.contains(&r)).collect();
                let mut set = if sources.contains(&comm.rank()) {
                    MessageSet::single(comm.rank(), &[comm.rank() as u8; 32])
                } else {
                    MessageSet::new()
                };
                let me = comm.rank();
                br_lin_over(comm, |i| i, me, &has, &mut set, tags::BR_LIN).await;
                set
            });
            for set in sets {
                let srcs: Vec<usize> = set.sources().collect();
                assert_eq!(srcs, sources, "p={p}");
            }
        }
    }

    /// Every send of every algorithm carries a tag inside a range its
    /// module draws from: `[base, next base)` in the [`tags`] table,
    /// with the open-ended `NAIVE` range read as ending at 6 000.
    ///
    /// Neighbouring ranges of one module are not told apart (`GATHER` and
    /// `BCAST` read as one range [3000, 3200), say), except for 2-Step:
    /// its gather is the first step of the log, so step-0 sends are held
    /// to `GATHER`'s range alone and the rest to `BCAST`'s.
    ///
    /// Each kind is recorded on 4×4, 8×3, 16×16 and 32×32 at s = 2 and
    /// s = p/4, except that 32×32 at s = 256 records `NaiveIndependent`
    /// alone: its tags are `base + source index`, while every other
    /// kind's offsets grow with the levels or rounds of p (reached at
    /// s = 2), and the all-to-alls alone would take ~40 s in debug.
    #[test]
    fn every_send_tag_lies_in_its_algorithms_ranges() {
        use crate::distribution::SourceDist;
        use crate::runner::{try_record_sources, AlgoKind, RunControl, SweepRunner};
        use tags::*;
        const BASES: [Tag; 12] = [
            BR_LIN,
            BR_XY_PHASE2,
            GATHER,
            BCAST,
            PERS,
            REPOS,
            PART_EXCHANGE,
            KPORT,
            KPORT_SCATTER,
            KPORT_A2A,
            DISSEM,
            NAIVE,
        ];
        assert!(BASES.is_sorted());
        let range = |base: Tag| {
            let i = BASES.iter().position(|&b| b == base).expect("a base");
            base..BASES.get(i + 1).copied().unwrap_or(6_000)
        };
        let bases = |kind: AlgoKind, step: u32| -> &[Tag] {
            use AlgoKind::*;
            match kind {
                TwoStep | MpiAllGather if step == 0 => &[GATHER],
                TwoStep | MpiAllGather => &[BCAST],
                PersAlltoAll | MpiAlltoall => &[PERS],
                BrLin => &[BR_LIN],
                BrXySource | BrXyDim => &[BR_LIN, BR_XY_PHASE2],
                ReposLin => &[REPOS, BR_LIN],
                ReposXySource | ReposXyDim | ReposAdaptiveXySource => {
                    &[REPOS, BR_LIN, BR_XY_PHASE2]
                }
                PartLin => &[REPOS, PART_EXCHANGE, BR_LIN],
                PartXySource | PartXyDim => &[REPOS, PART_EXCHANGE, BR_LIN, BR_XY_PHASE2],
                DissemAllGather | DissemZeroCopy => &[DISSEM],
                NaiveIndependent => &[NAIVE],
                KPortLin => &[KPORT],
                KPortScatter => &[KPORT_SCATTER],
                KPortAlltoall => &[KPORT_A2A],
            }
        };
        let mut points = vec![(32, 32, 256, AlgoKind::NaiveIndependent)];
        for (rows, cols) in [(4, 4), (8, 3), (16, 16), (32, 32)] {
            let p = rows * cols;
            for s in [2, (p / 4).max(2)] {
                if s < 256 {
                    points.extend(AlgoKind::all().iter().map(|&kind| (rows, cols, s, kind)));
                }
            }
        }
        SweepRunner::new().map(points, |(rows, cols, s, kind)| {
            let machine = Machine::paragon(rows, cols);
            let sources = SourceDist::Equal.place(machine.shape, s);
            let run = try_record_sources(
                &machine,
                kind.default_lib(),
                &sources,
                &|src| payload_for(src, 8),
                kind.build().as_ref(),
                &RunControl::default(),
            )
            .expect("recording failed");
            assert!(run.outcome.is_some_and(|o| o.verified));
            for send in &run.events.sends {
                assert!(
                    bases(kind, send.step)
                        .iter()
                        .any(|&b| range(b).contains(&send.tag)),
                    "{} on {rows}x{cols}, s = {s}: step {} tag {}",
                    kind.name(),
                    send.step,
                    send.tag
                );
            }
        });
    }
}
