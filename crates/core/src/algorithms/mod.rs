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
//! | `Repos_*`         | reposition to an ideal distribution    | [`repos`] |
//! | `Part_*`          | reposition + machine partitioning      | [`part`] |
//! | `KPort_*`         | k-ported batched lanes (extension)     | [`kport`] |
//!
//! `MPI_AllGather` and `MPI_Alltoall` in the paper's T3D plots are the
//! MPI builds of `2-Step` and `PersAlltoAll` respectively (paper §5.3);
//! in this reproduction that is expressed by running the same algorithm
//! under [`LibraryKind::Mpi`](mpp_model::LibraryKind).

pub mod adaptive;
pub mod br_dims;
pub mod br_lin;
pub mod br_xy;
pub mod dissem;
pub mod kport;
pub mod naive;
pub mod part;
pub mod pers_alltoall;
pub mod repos;
pub mod two_step;

use mpp_model::MeshShape;
use mpp_runtime::{CommFuture, Communicator, Tag};

use crate::msgset::MessageSet;

pub use adaptive::ReposAdaptive;
pub use br_dims::{BrDims, GridShape};
pub use br_lin::BrLin;
pub use br_xy::{BrXyDim, BrXySource, DimOrder};
pub use dissem::DissemAllGather;
pub use kport::{KPortAlltoall, KPortLin, KPortScatter};
pub use naive::NaiveIndependent;
pub use part::{Part, PartRecursive};
pub use pers_alltoall::PersAlltoAll;
pub use repos::Repos;
pub use two_step::TwoStep;

/// Everything one rank needs to know before an s-to-p broadcast starts.
///
/// Matching the paper's model: "every processor knows the position of the
/// source processors and the size of the messages when s-to-p
/// broadcasting starts".
pub struct StpCtx<'a> {
    /// The logical mesh.
    pub shape: MeshShape,
    /// Sorted source ranks (`s = sources.len()`).
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

    /// Sanity-check the context for the calling rank.
    pub fn validate(&self, comm: &dyn Communicator) {
        assert_eq!(
            self.shape.p(),
            comm.size(),
            "shape does not match communicator"
        );
        assert!(
            !self.sources.is_empty(),
            "s-to-p broadcasting needs at least one source"
        );
        assert!(
            self.sources.windows(2).all(|w| w[0] < w[1]),
            "sources must be sorted+unique"
        );
        assert!(
            *self.sources.last().unwrap() < comm.size(),
            "source out of range"
        );
        assert_eq!(
            self.is_source(comm.rank()),
            self.payload.is_some(),
            "rank {}: payload presence must match source membership",
            comm.rank()
        );
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
    fn run<'a>(
        &'a self,
        comm: &'a mut dyn Communicator,
        ctx: &'a StpCtx<'a>,
    ) -> CommFuture<'a, MessageSet>;

    /// An ideal source distribution of `s` sources for this algorithm on
    /// `shape`, as sorted row-major positions — the target the
    /// repositioning algorithms permute towards. `None` for algorithms
    /// whose performance does not depend on source positions enough for
    /// repositioning to be defined (2-Step, PersAlltoAll).
    fn ideal_sources(&self, shape: MeshShape, s: usize) -> Option<Vec<usize>> {
        let _ = (shape, s);
        None
    }
}

/// Tag bases: each phase owns a disjoint tag range so that concurrent
/// sub-broadcasts (rows, groups) can never cross-match. Levels are added
/// to the base.
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
    /// Repositioning permutation.
    pub const REPOS: Tag = 3_300;
    /// Partitioning permutation.
    pub const PART_REPOS: Tag = 3_400;
    /// Partitioning final inter-group exchange.
    pub const PART_EXCHANGE: Tag = 3_500;
    /// `KPort_Lin` lanes (`base + level·16 + lane`).
    pub const KPORT: Tag = 3_600;
    /// `KPort_Scatter` gather (+1 scatter, +16… lane blocks).
    pub const KPORT_SCATTER: Tag = 4_000;
    /// `KPort_Alltoall` direct exchange.
    pub const KPORT_A2A: Tag = 4_400;
}

/// Run the `Br_Lin` merge pattern over an ordered list of ranks.
///
/// `order[i]` is the rank at linear position `i`; `has[i]` says whether
/// that position initially holds messages. The caller's current set is
/// merged in place. Ranks not present in `order` must not call this.
///
/// One `next_iteration` is recorded per level so the Figure-2 metrics
/// can be derived.
pub(crate) async fn br_lin_over(
    comm: &mut dyn Communicator,
    order: &[usize],
    has: &[bool],
    set: &mut MessageSet,
    tag_base: Tag,
) {
    debug_assert_eq!(order.len(), has.len());
    let me = comm.rank();
    let my_pos = order
        .iter()
        .position(|&r| r == me)
        .unwrap_or_else(|| panic!("rank {me} not in br_lin order"));
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
        // The snapshot is a rope (header copy only); every peer shares it.
        if my_ops.iter().any(|op| op.send) {
            let snapshot = set.to_payload();
            for op in my_ops.iter().filter(|op| op.send) {
                comm.send_payload(order[op.peer], tag, snapshot.clone());
            }
        }
        for op in my_ops.iter().filter(|op| op.recv) {
            let msg = comm.recv(Some(order[op.peer]), Some(tag)).await;
            // Combining cost in *virtual* time: the model still charges
            // for copying the received bytes into the merged buffer, even
            // though the host-side merge only moves rope pointers.
            comm.charge_memcpy(msg.data.len());
            let other =
                MessageSet::from_payload(&msg.data).expect("malformed message set on the wire");
            set.merge(other);
        }
        comm.next_iteration();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_model::{LibraryKind, Machine};
    use mpp_runtime::{run_simulated, SimComm};

    use crate::msgset::payload_for;

    /// Run `program` on every rank of a `shape` Paragon; the per-rank
    /// results.
    pub(crate) fn run_on<R: Send>(
        shape: MeshShape,
        program: impl AsyncFn(&mut SimComm) -> R + Sync,
    ) -> Vec<R> {
        let machine = Machine::paragon(shape.rows, shape.cols);
        run_simulated(&machine, LibraryKind::Nx, program).results
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
                let order: Vec<usize> = (0..comm.size()).collect();
                let has: Vec<bool> = order.iter().map(|r| sources.contains(r)).collect();
                let mut set = if sources.contains(&comm.rank()) {
                    MessageSet::single(comm.rank(), &[comm.rank() as u8; 32])
                } else {
                    MessageSet::new()
                };
                br_lin_over(comm, &order, &has, &mut set, tags::BR_LIN).await;
                set
            });
            for set in sets {
                let srcs: Vec<usize> = set.sources().collect();
                assert_eq!(srcs, sources, "p={p}");
            }
        }
    }

    #[test]
    fn ctx_validation_catches_mismatch() {
        let ok = run_on(MeshShape::new(1, 2), async |comm| {
            let ctx = StpCtx {
                shape: MeshShape::new(1, 2),
                sources: &[0],
                payload: (comm.rank() == 0).then_some(&[1u8; 4][..]),
            };
            ctx.validate(comm);
            true
        });
        assert!(ok.iter().all(|&b| b));
    }
}
