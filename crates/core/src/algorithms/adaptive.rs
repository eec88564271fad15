//! Adaptive repositioning — the extension the paper leaves open.
//!
//! §3: "Whether it pays to perform the redistribution depends on the
//! quality of the initial distribution of sources. Our current
//! implementations do not check whether the initial distribution is
//! close to an ideal distribution and always reposition."
//!
//! [`ReposAdaptive`] performs that check: it scores the input placement
//! with [`crate::quality::placement_quality`] (a pure local computation
//! — every processor knows the source positions, so all ranks reach the
//! same decision without communication) and only repositions when the
//! score falls below a threshold.

use mpp_model::MeshShape;
use mpp_runtime::{CommFuture, Communicator};

use crate::algorithms::{Repos, StpAlgorithm, StpCtx};
use crate::msgset::MessageSet;
use crate::quality::placement_quality;
use crate::runner::AlgoKind;

/// `Repos_<base>` with a quality gate.
#[derive(Debug, Clone, Copy)]
pub struct ReposAdaptive<A> {
    base: A,
    kind: AlgoKind,
    name: &'static str,
    /// Reposition only when the placement quality is below this.
    pub threshold: f64,
}

impl<A: StpAlgorithm + Copy> ReposAdaptive<A> {
    /// Wrap a base algorithm; `kind` identifies it for the quality
    /// metric. Default threshold 0.7 (see `quality` for the scale).
    pub fn new(base: A, kind: AlgoKind, name: &'static str) -> Self {
        ReposAdaptive {
            base,
            kind,
            name,
            threshold: 0.7,
        }
    }

    /// Would this input be repositioned?
    pub fn would_reposition(&self, shape: MeshShape, sources: &[usize]) -> bool {
        placement_quality(shape, sources, self.kind)
            .map(|q| q < self.threshold)
            .unwrap_or(false)
    }
}

impl<A: StpAlgorithm + Copy> StpAlgorithm for ReposAdaptive<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run<'a>(
        &'a self,
        comm: &'a mut dyn Communicator,
        ctx: &'a StpCtx<'a>,
    ) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            if self.would_reposition(ctx.shape, ctx.sources) {
                Repos::new(self.base, self.name).run(comm, ctx).await
            } else {
                self.base.run(comm, ctx).await
            }
        })
    }

    fn ideal_sources(&self, shape: MeshShape, s: usize) -> Option<Vec<usize>> {
        self.base.ideal_sources(shape, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_model::Machine;

    use crate::algorithms::tests::assert_delivers;
    use crate::algorithms::BrXySource;
    use crate::distribution::SourceDist;
    use crate::msgset::payload_for;
    use crate::runner::run_sources;

    fn adaptive() -> ReposAdaptive<BrXySource> {
        ReposAdaptive::new(BrXySource, AlgoKind::BrXySource, "ReposAdaptive_xy_source")
    }

    #[test]
    fn decision_differs_by_distribution() {
        let shape = MeshShape::new(16, 16);
        let alg = adaptive();
        let ideal = BrXySource.ideal_sources(shape, 48).unwrap();
        assert!(
            !alg.would_reposition(shape, &ideal),
            "ideal input must not be repositioned"
        );
        let sq = SourceDist::SquareBlock.place(shape, 49);
        assert!(
            alg.would_reposition(shape, &sq),
            "square block should trigger repositioning"
        );
    }

    #[test]
    fn correct_on_both_paths() {
        let shape = MeshShape::new(8, 8);
        for dist in [SourceDist::SquareBlock, SourceDist::Row] {
            assert_delivers(&adaptive(), shape, &dist.place(shape, 16), 64);
        }
    }

    #[test]
    fn adaptive_never_much_worse_than_both_fixed_choices() {
        // On a near-ideal input, adaptive ≈ plain (it skips the
        // permutation); on a poor input, adaptive ≈ repositioning.
        let machine = Machine::paragon(16, 16);
        let run = |kind: AlgoKind, dist: SourceDist| {
            let sources = dist.place(machine.shape, 75);
            run_sources(
                &machine,
                mpp_model::LibraryKind::Nx,
                &sources,
                &|src| payload_for(src, 6144),
                kind,
            )
            .expect("run failed")
            .makespan_ns as f64
        };
        // We can't run ReposAdaptive through AlgoKind (it's an
        // extension), so measure through the simulator directly.
        let shape = machine.shape;
        let alg = adaptive();
        let adaptive_ns = |dist: SourceDist| {
            let sources = dist.place(shape, 75);
            let out =
                mpp_runtime::run_simulated(&machine, mpp_model::LibraryKind::Nx, async |comm| {
                    let payload = sources
                        .binary_search(&comm.rank())
                        .is_ok()
                        .then(|| payload_for(comm.rank(), 6144));
                    let ctx = StpCtx {
                        shape,
                        sources: &sources,
                        payload: payload.as_deref(),
                    };
                    alg.run(comm, &ctx).await.len()
                });
            out.makespan_ns as f64
        };

        // Ideal-ish input: adaptive must avoid the repositioning cost.
        let plain_rows = run(AlgoKind::BrXySource, SourceDist::Row);
        let adapt_rows = adaptive_ns(SourceDist::Row);
        assert!(
            adapt_rows <= plain_rows * 1.02,
            "{adapt_rows} vs plain {plain_rows}"
        );

        // Hard input: adaptive must capture (most of) the repositioning
        // gain.
        let repos_cross = run(AlgoKind::ReposXySource, SourceDist::Cross);
        let adapt_cross = adaptive_ns(SourceDist::Cross);
        assert!(
            adapt_cross <= repos_cross * 1.05,
            "{adapt_cross} vs repos {repos_cross}"
        );
    }
}
