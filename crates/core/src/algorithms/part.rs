//! Partitioning algorithms (paper §3): `Part_Lin`, `Part_xy_source`,
//! `Part_xy_dim`.
//!
//! In addition to repositioning the sources, the machine is split into
//! two groups `G₁`, `G₂` with `p₁/p₂ ≈ s₁/s₂`; the base algorithm runs
//! *independently and simultaneously* inside each group on an ideal
//! distribution, and a final pairwise permutation between the groups
//! exchanges the two partial results. The paper finds that on the
//! Paragon "the partitioning approach hardly ever gives a better
//! performance than repositioning alone" because the final exchange of
//! large messages dominates — a result `repro partitioning` reproduces,
//! and extends to `2^depth` groups ([`Part`]'s depth).

use mpp_model::MeshShape;
use mpp_runtime::{CommFuture, RankCtx, Tag};

use crate::algorithms::br_xy::{run_xy_on_plan, shape_dim_order, source_dim_order, XyPlan};
use crate::algorithms::{
    br_lin_over, tags, BrLin, BrXyDim, BrXySource, Repos, StpAlgorithm, StpCtx,
};
use crate::msgset::MessageSet;

/// A base algorithm that can run inside a machine partition
/// (a [`XyPlan`] describing a sub-mesh).
pub trait PlanRunnable: StpAlgorithm + Copy {
    /// Run the algorithm within the plan. `sources_pos` are the sorted
    /// row-major *plan positions* that initially hold messages; `set` is
    /// this rank's holdings and must agree with membership. Only ranks in
    /// the plan call this. Boxed future for object-safety symmetry with
    /// [`StpAlgorithm::run`].
    fn run_on_plan<'a>(
        &'a self,
        comm: &'a mut RankCtx,
        plan: &'a XyPlan,
        sources_pos: &'a [usize],
        set: &'a mut MessageSet,
    ) -> CommFuture<'a, ()>;
}

impl PlanRunnable for BrLin {
    fn run_on_plan<'a>(
        &'a self,
        comm: &'a mut RankCtx,
        plan: &'a XyPlan,
        sources_pos: &'a [usize],
        set: &'a mut MessageSet,
    ) -> CommFuture<'a, ()> {
        Box::pin(async move {
            let snake = plan.shape.snake_order();
            let order: Vec<usize> = snake.iter().map(|&i| plan.ranks[i]).collect();
            let has: Vec<bool> = snake
                .iter()
                .map(|i| sources_pos.binary_search(i).is_ok())
                .collect();
            br_lin_over(comm, &order, &has, set, tags::BR_LIN).await;
        })
    }
}

impl PlanRunnable for BrXySource {
    fn run_on_plan<'a>(
        &'a self,
        comm: &'a mut RankCtx,
        plan: &'a XyPlan,
        sources_pos: &'a [usize],
        set: &'a mut MessageSet,
    ) -> CommFuture<'a, ()> {
        Box::pin(async move {
            let order = source_dim_order(plan.shape, sources_pos);
            run_xy_on_plan(
                comm,
                plan,
                sources_pos,
                order,
                set,
                tags::BR_LIN,
                tags::BR_XY_PHASE2,
            )
            .await;
        })
    }
}

impl PlanRunnable for BrXyDim {
    fn run_on_plan<'a>(
        &'a self,
        comm: &'a mut RankCtx,
        plan: &'a XyPlan,
        sources_pos: &'a [usize],
        set: &'a mut MessageSet,
    ) -> CommFuture<'a, ()> {
        Box::pin(async move {
            let order = shape_dim_order(plan.shape);
            run_xy_on_plan(
                comm,
                plan,
                sources_pos,
                order,
                set,
                tags::BR_LIN,
                tags::BR_XY_PHASE2,
            )
            .await;
        })
    }
}

/// Split a plan into two equal halves: by rows when it has an even
/// number of rows, otherwise by columns when it has an even number of
/// columns. Each half lists its global ranks in its own row-major order.
/// Returns `None` when `p` is odd (no equal split exists).
fn split_plan(plan: &XyPlan) -> Option<(XyPlan, XyPlan)> {
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
    let plan_at = |positions: Vec<usize>| XyPlan {
        shape: half,
        ranks: positions.into_iter().map(|i| plan.ranks[i]).collect(),
    };
    Some((plan_at(first), plan_at(second)))
}

/// The partial permutation the partitioner starts with: the i-th
/// source (ascending) ships its message to `targets_all[i]`. Returns
/// what this rank holds afterwards, keyed by its own rank — the moved
/// message stays the rope it arrived as, nothing is copied out of it.
async fn permute_to_targets(
    comm: &mut RankCtx,
    ctx: &StpCtx<'_>,
    targets_all: &[usize],
) -> MessageSet {
    let me = comm.rank();
    if let Some(payload) = ctx.payload {
        let i = ctx.sources.binary_search(&me).unwrap();
        let to = targets_all[i];
        if to != me {
            comm.send(to, tags::PART_REPOS, payload);
        }
    }
    let mut set = MessageSet::new();
    if let Some(k) = targets_all.iter().position(|&t| t == me) {
        let from = ctx.sources[k];
        if from != me {
            let moved = comm.recv(Some(from), Some(tags::PART_REPOS)).await.data;
            set = MessageSet::single_payload(me, moved);
        } else if let Some(payload) = ctx.payload {
            set = MessageSet::single(me, payload);
        }
    }
    comm.next_iteration();
    set
}

/// `Part_<base>`: repositioning + machine partitioning into `2^depth`
/// congruent groups.
///
/// Depth 1 is the paper's `Part_*`: two groups and one final exchange.
/// A deeper partitioner halves every group again, so each group
/// broadcasts among fewer ranks, but the merge phase then needs `depth`
/// pairwise exchange rounds of growing combined messages. `repro
/// partitioning` sweeps depths 1–4 on the 16×16 Paragon (cross, s = 75,
/// L = 6 KiB): no depth ≥ 2 beats depth 1, and no depth beats
/// `Repos_xy_source`, so the extension strengthens the paper's negative
/// result. The cost is not monotone in depth — depth 3 undercuts
/// depth 2 there.
#[derive(Debug, Clone, Copy)]
pub struct Part<A> {
    base: A,
    depth: usize,
    name: &'static str,
}

impl<A: PlanRunnable> Part<A> {
    /// Wrap a base algorithm with `depth` nested splits (`1` for the
    /// paper's algorithms). Splitting stops early at a group with an odd
    /// number of ranks; `name` follows the paper ("Part_Lin", …).
    pub fn new(base: A, depth: usize, name: &'static str) -> Self {
        assert!(depth >= 1);
        Part { base, depth, name }
    }
}

impl<A: PlanRunnable> StpAlgorithm for Part<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            ctx.validate(comm);
            let me = comm.rank();
            let s = ctx.s();

            // The leaf groups: halve every group, up to `depth` times.
            // All groups stay congruent, so one fails to split iff all do.
            let mut groups = vec![XyPlan::identity(ctx.shape)];
            let mut splits = 0;
            while splits < self.depth {
                let Some(halves) = groups.iter().map(split_plan).collect::<Option<Vec<_>>>() else {
                    break;
                };
                groups = halves.into_iter().flat_map(|(a, b)| [a, b]).collect();
                splits += 1;
            }
            if splits == 0 {
                // Odd machine: no equal split — fall back to repositioning
                // alone, which partitions degenerate to anyway.
                return Repos::new(self.base, self.name).run(comm, ctx).await;
            }

            // Proportional source split (all groups are the same size):
            // group g of n gets sources ⌈s·g/n⌉ up to ⌈s·(g+1)/n⌉, so G₁
            // gets ⌈s/2⌉ at depth 1. The sorted sources fill each group's
            // sorted ideal targets in group order.
            let n = groups.len();
            let first = |g: usize| (s * g).div_ceil(n);
            let mut targets_all: Vec<usize> = Vec::with_capacity(s);
            for (g, group) in groups.iter().enumerate() {
                let s_g = first(g + 1) - first(g);
                if s_g == 0 {
                    continue;
                }
                let mut targets: Vec<usize> = self
                    .base
                    .ideal_sources(group.shape, s_g)
                    .expect("base must define an ideal")
                    .into_iter()
                    .map(|pos| group.ranks[pos])
                    .collect();
                targets.sort_unstable();
                targets_all.extend(targets);
            }

            // Phase 0: partial permutation.
            let mut set = permute_to_targets(comm, ctx, &targets_all).await;

            // Phase 1: base algorithm inside my group, simultaneously with
            // the other groups.
            let (g, my_pos) = groups
                .iter()
                .enumerate()
                .find_map(|(g, group)| Some((g, group.pos_of(me)?)))
                .expect("rank in no group");
            let mut sources_pos: Vec<usize> = targets_all[first(g)..first(g + 1)]
                .iter()
                .map(|&t| groups[g].pos_of(t).expect("target outside its group"))
                .collect();
            sources_pos.sort_unstable();
            self.base
                .run_on_plan(comm, &groups[g], &sources_pos, &mut set)
                .await;
            comm.next_iteration();

            // Phase 2: `splits` merge rounds, each a permutation: in round
            // j my group exchanges member-wise with group `g ^ 2^j`. An
            // iteration mark separates rounds; none follows the last.
            for j in 0..splits {
                if j > 0 {
                    comm.next_iteration();
                }
                let partner = groups[g ^ (1 << j)].ranks[my_pos];
                let tag = tags::PART_EXCHANGE + j as Tag;
                comm.send_payload(partner, tag, set.to_payload());
                let got = comm.recv(Some(partner), Some(tag)).await;
                comm.charge_memcpy(got.data.len());
                let other =
                    MessageSet::from_payload(&got.data).expect("malformed partition exchange");
                set.merge(other);
            }

            // Relabel target-keyed messages back to original sources.
            let mut out = MessageSet::new();
            for (t, data) in set.into_entries() {
                let k = targets_all
                    .iter()
                    .position(|&x| x == t as usize)
                    .expect("unexpected message key after partitioned broadcast");
                out.insert_payload(ctx.sources[k], data);
            }
            out
        })
    }

    fn ideal_sources(&self, shape: MeshShape, s: usize) -> Option<Vec<usize>> {
        self.base.ideal_sources(shape, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::tests::assert_delivers;
    use crate::distribution::SourceDist;

    /// The two halves of the whole `shape` machine.
    fn split(shape: MeshShape) -> Option<(XyPlan, XyPlan)> {
        split_plan(&XyPlan::identity(shape))
    }

    #[test]
    fn split_prefers_rows() {
        let (g1, g2) = split(MeshShape::new(4, 5)).unwrap();
        assert_eq!(g1.shape, MeshShape::new(2, 5));
        assert_eq!(g1.ranks, (0..10).collect::<Vec<_>>());
        assert_eq!(g2.ranks, (10..20).collect::<Vec<_>>());
    }

    #[test]
    fn split_falls_back_to_columns() {
        let (g1, g2) = split(MeshShape::new(5, 4)).unwrap();
        assert_eq!(g1.shape, MeshShape::new(5, 2));
        assert!(g1.ranks.contains(&0) && g1.ranks.contains(&17));
        assert!(g2.ranks.contains(&2) && g2.ranks.contains(&19));
    }

    #[test]
    fn split_odd_machine_none() {
        assert!(split(MeshShape::new(3, 5)).is_none());
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
    fn part_odd_machine_falls_back() {
        let shape = MeshShape::new(3, 3);
        assert_delivers(
            &Part::new(BrXySource, 1, "Part_xy_source"),
            shape,
            &[0, 4, 8],
            8,
        );
    }

    #[test]
    fn part_all_sources() {
        let shape = MeshShape::new(4, 4);
        let all: Vec<usize> = (0..16).collect();
        assert_delivers(&Part::new(BrLin, 1, "Part_Lin"), shape, &all, 4);
    }

    #[test]
    fn split_plan_nests() {
        let (a, _) = split(MeshShape::new(4, 4)).unwrap();
        assert_eq!(a.shape, MeshShape::new(2, 4));
        let (aa, ab) = split_plan(&a).unwrap();
        assert_eq!(aa.shape, MeshShape::new(1, 4));
        assert_eq!(aa.ranks, vec![0, 1, 2, 3]);
        assert_eq!(ab.ranks, vec![4, 5, 6, 7]);
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
