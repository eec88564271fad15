//! Repositioning and partitioning (paper §3, §5.2): `Repos_Lin`,
//! `Repos_xy_source`, `Repos_xy_dim`, `Part_Lin`, `Part_xy_source`,
//! `Part_xy_dim` — one wrapper, [`Part`], whose depth picks the variant.
//!
//! Repositioning performs a partial permutation that moves the `s`
//! messages onto an *ideal* distribution of the base algorithm, then
//! runs the base algorithm on it. Like the paper's implementation, we
//! "do not check whether the initial distribution is close to an ideal
//! distribution and always reposition" — the cost of an unnecessary
//! permutation is exactly what Figures 9 and 10 quantify.
//!
//! Partitioning adds one step: the machine is split into two groups
//! `G₁`, `G₂` with `p₁/p₂ ≈ s₁/s₂`, the base algorithm runs
//! *independently and simultaneously* inside each group on an ideal
//! distribution, and a final pairwise permutation between the groups
//! exchanges the two partial results. The paper finds that on the
//! Paragon "the partitioning approach hardly ever gives a better
//! performance than repositioning alone" because the final exchange of
//! large messages dominates — a result `repro partitioning` reproduces,
//! and extends to `2^depth` groups.

use mpp_model::MeshShape;
use mpp_runtime::{CommFuture, RankCtx, Tag};

use crate::algorithms::{recv_merge, slot_of, tags, StpAlgorithm, StpCtx};
use crate::msgset::MessageSet;

/// A rectangle of the mesh that a merge base broadcasts in: `shape`
/// rows × columns whose top-left corner sits at `origin` (row, column)
/// of a mesh `mesh_cols` wide. Plan positions are row-major within the
/// rectangle. The identity plan is the whole machine; the partitioning
/// groups are its halves, and the halves of those.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XyPlan {
    /// Shape of this (sub-)mesh.
    pub shape: MeshShape,
    origin: (usize, usize),
    mesh_cols: usize,
}

impl XyPlan {
    /// The whole machine as one plan.
    pub fn identity(shape: MeshShape) -> Self {
        XyPlan {
            shape,
            origin: (0, 0),
            mesh_cols: shape.cols,
        }
    }

    /// Global rank at plan position `pos`.
    pub fn rank_at(&self, pos: usize) -> usize {
        let (row, col) = self.shape.coords(pos);
        (self.origin.0 + row) * self.mesh_cols + self.origin.1 + col
    }

    /// Plan position of a global rank (`None` outside the rectangle).
    pub fn pos_of(&self, rank: usize) -> Option<usize> {
        let row = (rank / self.mesh_cols).checked_sub(self.origin.0)?;
        let col = (rank % self.mesh_cols).checked_sub(self.origin.1)?;
        (row < self.shape.rows && col < self.shape.cols).then(|| self.shape.rank(row, col))
    }

    /// The two equal halves: by rows when the plan has an even number
    /// of rows, otherwise by columns when it has an even number of
    /// columns; `None` when `p` is odd (no equal split exists).
    fn halves(&self) -> Option<[XyPlan; 2]> {
        let (rows, cols) = (self.shape.rows, self.shape.cols);
        let (half, second) = if rows % 2 == 0 {
            let half = MeshShape::new(rows / 2, cols);
            (half, (self.origin.0 + rows / 2, self.origin.1))
        } else if cols % 2 == 0 {
            let half = MeshShape::new(rows, cols / 2);
            (half, (self.origin.0, self.origin.1 + cols / 2))
        } else {
            return None;
        };
        let first = XyPlan {
            shape: half,
            ..*self
        };
        Some([
            first,
            XyPlan {
                origin: second,
                ..first
            },
        ])
    }
}

/// A merge algorithm the repositioning wrapper can run: it has an ideal
/// source distribution, and it broadcasts within any rectangle of the
/// mesh. Its whole-machine [`StpAlgorithm::run`] is its plan walk on the
/// identity plan.
pub trait MergeBase: StpAlgorithm + Copy {
    /// An ideal distribution of `s ≥ 1` sources for this algorithm on
    /// `shape`, as sorted row-major positions — the target the
    /// repositioning permutation moves the messages to.
    fn ideal_sources(&self, shape: MeshShape, s: usize) -> Vec<usize>;

    /// Run the algorithm within the plan. `sources_pos` are the sorted
    /// plan positions that initially hold messages; `set` is this rank's
    /// holdings and must agree with membership. Only ranks in the plan
    /// call this.
    fn run_on_plan<'a>(
        &'a self,
        comm: &'a mut RankCtx,
        plan: &'a XyPlan,
        sources_pos: &'a [usize],
        set: &'a mut MessageSet,
    ) -> CommFuture<'a, ()>;
}

/// A merge base's whole-machine broadcast: its plan walk on the
/// whole-mesh rectangle.
pub(crate) fn run_whole<'a, A: MergeBase>(
    base: &'a A,
    comm: &'a mut RankCtx,
    ctx: &'a StpCtx<'a>,
) -> CommFuture<'a, MessageSet> {
    Box::pin(async move {
        let mut set = ctx.initial_set();
        let plan = XyPlan::identity(ctx.shape);
        base.run_on_plan(comm, &plan, ctx.sources, &mut set).await;
        set
    })
}

/// The repositioning permutation: the i-th source (ascending) moves to
/// the i-th target. Returns `(from, to)` pairs with `from != to`
/// (already-placed messages do not move).
pub fn repositioning_moves(sources: &[usize], targets: &[usize]) -> Vec<(usize, usize)> {
    debug_assert_eq!(sources.len(), targets.len());
    sources
        .iter()
        .zip(targets)
        .filter(|(f, t)| f != t)
        .map(|(&f, &t)| (f, t))
        .collect()
}

/// Reposition, optionally partition, and broadcast: the paper's
/// `Repos_<base>` at depth 0 and `Part_<base>` at depth 1.
///
/// The machine is halved `depth` times into `2^depth` congruent groups;
/// an odd group cannot be halved, so the split stops there, and an odd
/// mesh runs depth 0. The sources move to the base's ideal distribution
/// in each group, every group broadcasts simultaneously, and `depth`
/// pairwise exchange rounds of growing combined messages merge the
/// groups. `repro partitioning` sweeps depths 1–4 on the 16×16 Paragon
/// (cross, s = 75, L = 6 KiB): no depth ≥ 2 beats depth 1, and no depth
/// beats `Repos_xy_source`, so the extension strengthens the paper's
/// negative result. The cost is not monotone in depth — depth 3
/// undercuts depth 2 there.
#[derive(Debug, Clone, Copy)]
pub struct Part<A> {
    base: A,
    depth: usize,
    name: &'static str,
}

impl<A: MergeBase> Part<A> {
    /// Wrap a base algorithm with `depth` nested splits (`0` for the
    /// paper's `Repos_*`, `1` for its `Part_*`); `name` follows the
    /// paper ("Repos_Lin", "Part_Lin", …).
    pub fn new(base: A, depth: usize, name: &'static str) -> Self {
        Part { base, depth, name }
    }

    /// The groups the machine splits into, in merge order: group `g`
    /// exchanges with group `g ^ 2^j` in merge round `j`.
    fn groups(&self, shape: MeshShape) -> Vec<XyPlan> {
        let mut groups = vec![XyPlan::identity(shape)];
        for _ in 0..self.depth {
            // All groups are congruent, so one fails to split iff all do.
            let Some(halves) = groups
                .iter()
                .map(XyPlan::halves)
                .collect::<Option<Vec<_>>>()
            else {
                break;
            };
            groups = halves.concat();
        }
        groups
    }

    /// Where the i-th of `s` sources moves on `shape`. Group `g` of `n`
    /// takes sources ⌈s·g/n⌉ up to ⌈s·(g+1)/n⌉ (so `G₁` gets ⌈s/2⌉ at
    /// depth 1) and places them on its ideal distribution; within a
    /// group the targets ascend.
    pub fn targets(&self, shape: MeshShape, s: usize) -> Vec<usize> {
        let groups = self.groups(shape);
        let n = groups.len();
        let mut targets = Vec::with_capacity(s);
        for (g, group) in groups.iter().enumerate() {
            let s_g = (s * (g + 1)).div_ceil(n) - (s * g).div_ceil(n);
            if s_g > 0 {
                let ideal = self.base.ideal_sources(group.shape, s_g);
                targets.extend(ideal.into_iter().map(|pos| group.rank_at(pos)));
            }
        }
        targets
    }
}

impl<A: MergeBase> StpAlgorithm for Part<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            let me = comm.rank();
            let s = ctx.s();
            let groups = self.groups(ctx.shape);
            let targets = self.targets(ctx.shape, s);
            let moves = repositioning_moves(ctx.sources, &targets);

            // Phase 0: the partial permutation. Sends go out first (they
            // are asynchronous), then the receive — a rank can be both a
            // vacating source and a new target. A moved message travels
            // bare and keeps its source's slot, so nothing is relabelled
            // afterwards.
            let leaving = moves.iter().find(|&&(from, _)| from == me);
            if let (Some(message), Some(&(_, to))) = (ctx.payload, leaving) {
                comm.send_payload(to, tags::REPOS, message.clone());
            }
            let mut set = match moves.iter().find(|&&(_, to)| to == me) {
                Some(&(from, _)) => {
                    let moved = comm.recv(Some(from), Some(tags::REPOS)).await.data;
                    slot_of(&moved).into()
                }
                None if leaving.is_none() => ctx.initial_set(),
                None => MessageSet::new(),
            };
            comm.next_iteration();

            // Phase 1: the base algorithm inside my group, simultaneously
            // with the other groups.
            let n = groups.len();
            let first = |g: usize| (s * g).div_ceil(n);
            let (g, my_pos) = groups
                .iter()
                .enumerate()
                .find_map(|(g, group)| Some((g, group.pos_of(me)?)))
                .expect("rank in no group");
            let sources_pos: Vec<usize> = targets[first(g)..first(g + 1)]
                .iter()
                .map(|&t| groups[g].pos_of(t).expect("target outside its group"))
                .collect();
            self.base
                .run_on_plan(comm, &groups[g], &sources_pos, &mut set)
                .await;

            // Phase 2: one merge round per split, each a permutation: in
            // round j my group exchanges member-wise with group `g ^ 2^j`.
            // An iteration mark precedes every round.
            for j in 0..n.trailing_zeros() {
                comm.next_iteration();
                let partner = groups[g ^ (1 << j)].rank_at(my_pos);
                let tag = tags::PART_EXCHANGE + j as Tag;
                comm.send_payload(partner, tag, set.to_payload());
                recv_merge(comm, Some(partner), tag, &mut set).await;
            }
            set
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::tests::assert_delivers;
    use crate::algorithms::{BrLin, BrXyDim, BrXySource};
    use crate::distribution::SourceDist;
    use crate::runner::{try_run_alg_controlled, try_run_sources_controlled, AlgoKind, RunControl};
    use mpp_model::{LibraryKind, Machine};

    use crate::msgset::payload_for;

    fn repos<A: MergeBase>(base: A, name: &'static str) -> Part<A> {
        Part::new(base, 0, name)
    }

    /// The two halves of the whole `shape` machine.
    fn split(shape: MeshShape) -> Option<[XyPlan; 2]> {
        XyPlan::identity(shape).halves()
    }

    /// A plan's global ranks in plan order.
    fn ranks(plan: &XyPlan) -> Vec<usize> {
        (0..plan.shape.p()).map(|pos| plan.rank_at(pos)).collect()
    }

    #[test]
    fn repos_lin_from_square_block() {
        let shape = MeshShape::new(4, 4);
        let sources = SourceDist::SquareBlock.place(shape, 4);
        assert_delivers(&repos(BrLin, "Repos_Lin"), shape, &sources, 16);
    }

    #[test]
    fn repos_xy_source_from_cross() {
        let shape = MeshShape::new(5, 5);
        let sources = SourceDist::Cross.place(shape, 9);
        assert_delivers(&repos(BrXySource, "Repos_xy_source"), shape, &sources, 8);
    }

    #[test]
    fn repos_noop_when_already_ideal() {
        // When the input *is* the ideal distribution no message moves.
        let shape = MeshShape::new(4, 4);
        let targets = BrLin.ideal_sources(shape, 4);
        let moves = repositioning_moves(&targets, &targets);
        assert!(moves.is_empty());
        assert_delivers(&repos(BrLin, "Repos_Lin"), shape, &targets, 8);
    }

    #[test]
    fn moves_are_injective() {
        let shape = MeshShape::new(8, 8);
        let sources = SourceDist::SquareBlock.place(shape, 16);
        let targets = BrXySource.ideal_sources(shape, 16);
        let moves = repositioning_moves(&sources, &targets);
        let mut tos: Vec<usize> = moves.iter().map(|&(_, t)| t).collect();
        tos.sort_unstable();
        tos.dedup();
        assert_eq!(tos.len(), moves.len(), "two messages sent to one target");
        let mut froms: Vec<usize> = moves.iter().map(|&(f, _)| f).collect();
        froms.sort_unstable();
        froms.dedup();
        assert_eq!(froms.len(), moves.len());
    }

    #[test]
    fn repos_all_sources_is_identity() {
        // s = p: every processor is a source; the ideal distribution is
        // also everything, so repositioning cannot move anything.
        let shape = MeshShape::new(3, 4);
        let sources: Vec<usize> = (0..12).collect();
        let targets = BrXySource.ideal_sources(shape, 12);
        assert_eq!(targets, sources);
        assert_delivers(&repos(BrXySource, "Repos_xy_source"), shape, &sources, 4);
    }

    #[test]
    fn split_prefers_rows() {
        let [g1, g2] = split(MeshShape::new(4, 5)).unwrap();
        assert_eq!(g1.shape, MeshShape::new(2, 5));
        assert_eq!(ranks(&g1), (0..10).collect::<Vec<_>>());
        assert_eq!(ranks(&g2), (10..20).collect::<Vec<_>>());
    }

    #[test]
    fn split_falls_back_to_columns() {
        let [g1, g2] = split(MeshShape::new(5, 4)).unwrap();
        assert_eq!(g1.shape, MeshShape::new(5, 2));
        assert!(ranks(&g1).contains(&0) && ranks(&g1).contains(&17));
        assert!(ranks(&g2).contains(&2) && ranks(&g2).contains(&19));
    }

    #[test]
    fn split_odd_machine_none() {
        assert!(split(MeshShape::new(3, 5)).is_none());
    }

    #[test]
    fn split_plan_nests() {
        let [a, _] = split(MeshShape::new(4, 4)).unwrap();
        assert_eq!(a.shape, MeshShape::new(2, 4));
        let [aa, ab] = a.halves().unwrap();
        assert_eq!(aa.shape, MeshShape::new(1, 4));
        assert_eq!(ranks(&aa), vec![0, 1, 2, 3]);
        assert_eq!(ranks(&ab), vec![4, 5, 6, 7]);
    }

    /// The rank-list plan the rectangle replaced: a shape plus the
    /// global rank at each row-major position, split by partitioning
    /// the positions.
    struct RankList {
        shape: MeshShape,
        ranks: Vec<usize>,
    }

    fn rank_list_split(plan: &RankList) -> Option<(RankList, RankList)> {
        let (r, c) = (plan.shape.rows, plan.shape.cols);
        let by_rows = r % 2 == 0;
        if !by_rows && c % 2 == 1 {
            return None;
        }
        let half = if by_rows {
            MeshShape::new(r / 2, c)
        } else {
            MeshShape::new(r, c / 2)
        };
        let (first, second): (Vec<usize>, Vec<usize>) = (0..r * c).partition(|&i| {
            if by_rows {
                i / c < r / 2
            } else {
                i % c < c / 2
            }
        });
        let plan_at = |positions: Vec<usize>| RankList {
            shape: half,
            ranks: positions.into_iter().map(|i| plan.ranks[i]).collect(),
        };
        Some((plan_at(first), plan_at(second)))
    }

    #[test]
    fn rectangles_match_the_rank_list_groups() {
        let shapes = [
            (4, 4),
            (8, 3),
            (8, 4),
            (10, 10),
            (16, 16),
            (6, 5),
            (5, 6),
            (2, 60),
            (1, 8),
            (7, 7),
        ];
        for (rows, cols) in shapes {
            let shape = MeshShape::new(rows, cols);
            let mut reference = vec![RankList {
                shape,
                ranks: (0..shape.p()).collect(),
            }];
            for depth in 0..=4 {
                if depth > 0 {
                    let halves: Option<Vec<_>> = reference.iter().map(rank_list_split).collect();
                    if let Some(halves) = halves {
                        reference = halves.into_iter().flat_map(|(a, b)| [a, b]).collect();
                    }
                }
                let groups = Part::new(BrLin, depth, "Part_Lin").groups(shape);
                let at = format!("{rows}x{cols} depth {depth}");
                assert_eq!(groups.len(), reference.len(), "{at}");
                for (group, want) in groups.iter().zip(&reference) {
                    assert_eq!(group.shape, want.shape, "{at}");
                    assert_eq!(ranks(group), want.ranks, "{at}");
                    for rank in 0..shape.p() {
                        let pos = want.ranks.iter().position(|&r| r == rank);
                        assert_eq!(group.pos_of(rank), pos, "{at} rank {rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn part_lin_square_block() {
        let shape = MeshShape::new(4, 4);
        let sources = SourceDist::SquareBlock.place(shape, 6);
        assert_delivers(&Part::new(BrLin, 1, "Part_Lin"), shape, &sources, 16);
    }

    #[test]
    fn part_xy_source_cross() {
        let shape = MeshShape::new(6, 6);
        let sources = SourceDist::Cross.place(shape, 12);
        assert_delivers(
            &Part::new(BrXySource, 1, "Part_xy_source"),
            shape,
            &sources,
            8,
        );
    }

    #[test]
    fn part_xy_dim_equal() {
        let shape = MeshShape::new(4, 6);
        let sources = SourceDist::Equal.place(shape, 7);
        assert_delivers(&Part::new(BrXyDim, 1, "Part_xy_dim"), shape, &sources, 8);
    }

    #[test]
    fn part_single_source() {
        // s=1: one group gets the only source, the other relies entirely
        // on the final exchange.
        let shape = MeshShape::new(4, 4);
        assert_delivers(&Part::new(BrLin, 1, "Part_Lin"), shape, &[9], 32);
    }

    #[test]
    fn odd_mesh_clamps_to_depth_zero_and_equals_repos() {
        let machine = Machine::paragon(3, 3);
        let sources = [0, 4, 8];
        assert_delivers(
            &Part::new(BrXySource, 1, "Part_xy_source"),
            machine.shape,
            &sources,
            8,
        );
        let part = try_run_alg_controlled(
            &machine,
            LibraryKind::Nx,
            &sources,
            &|src| payload_for(src, 64),
            &Part::new(BrXySource, 1, "Part_xy_source"),
            &RunControl::default(),
        )
        .expect("run failed");
        let repos_run = try_run_sources_controlled(
            &machine,
            LibraryKind::Nx,
            &sources,
            &|src| payload_for(src, 64),
            AlgoKind::ReposXySource,
            &RunControl::default(),
        )
        .expect("run failed");
        assert_eq!(part.makespan_ns, repos_run.makespan_ns);
        assert_eq!(part.finish_ns, repos_run.finish_ns);
        assert_eq!(part.counters, repos_run.counters);
    }

    #[test]
    fn part_all_sources() {
        let shape = MeshShape::new(4, 4);
        let all: Vec<usize> = (0..16).collect();
        assert_delivers(&Part::new(BrLin, 1, "Part_Lin"), shape, &all, 4);
    }

    #[test]
    fn depth_two_and_three() {
        let shape = MeshShape::new(4, 8);
        let sources = SourceDist::Equal.place(shape, 10);
        assert_delivers(&Part::new(BrXySource, 2, "Part_2"), shape, &sources, 8);
        assert_delivers(&Part::new(BrLin, 3, "Part_3"), shape, &sources, 8);
    }

    #[test]
    fn depth_beyond_the_splits_clamps() {
        // 2x2 machine: only 2 splits possible; depth 5 must still work.
        let shape = MeshShape::new(2, 2);
        assert_delivers(&Part::new(BrLin, 5, "Part_5"), shape, &[1, 2], 8);
    }

    #[test]
    fn depth_two_single_source() {
        let shape = MeshShape::new(4, 4);
        assert_delivers(&Part::new(BrLin, 2, "Part_2"), shape, &[9], 16);
    }
}
