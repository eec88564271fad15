//! Repositioning algorithms (paper §3, §5.2): `Repos_Lin`,
//! `Repos_xy_source`, `Repos_xy_dim`.
//!
//! The first step performs a partial permutation that moves the `s`
//! messages onto an *ideal* distribution of the base algorithm on this
//! machine; the base algorithm is then invoked on that distribution.
//! Like the paper's implementation, we "do not check whether the initial
//! distribution is close to an ideal distribution and always reposition"
//! — the cost of an unnecessary permutation is exactly what Figures 9
//! and 10 quantify.

use std::borrow::Cow;

use mpp_model::MeshShape;
use mpp_runtime::{CommFuture, RankCtx};

use crate::algorithms::{tags, StpAlgorithm, StpCtx};
use crate::msgset::MessageSet;

/// `Repos_<base>`: reposition to the base algorithm's ideal distribution,
/// then run the base algorithm.
#[derive(Debug, Clone, Copy)]
pub struct Repos<A> {
    base: A,
    name: &'static str,
}

impl<A: StpAlgorithm> Repos<A> {
    /// Wrap a base algorithm. `name` follows the paper ("Repos_Lin", …).
    pub fn new(base: A, name: &'static str) -> Self {
        Repos { base, name }
    }

    /// The wrapped algorithm.
    pub fn base(&self) -> &A {
        &self.base
    }
}

/// Compute the repositioning permutation: the i-th source (ascending)
/// moves to the i-th target (ascending). Returns `(from, to)` pairs with
/// `from != to` (already-placed messages do not move).
pub fn repositioning_moves(sources: &[usize], targets: &[usize]) -> Vec<(usize, usize)> {
    debug_assert_eq!(sources.len(), targets.len());
    sources
        .iter()
        .zip(targets)
        .filter(|(f, t)| f != t)
        .map(|(&f, &t)| (f, t))
        .collect()
}

impl<A: StpAlgorithm> StpAlgorithm for Repos<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            ctx.validate(comm);
            let me = comm.rank();
            let s = ctx.s();
            let targets = self.base.ideal_sources(ctx.shape, s).unwrap_or_else(|| {
                panic!(
                    "{} has no ideal distribution to reposition to",
                    self.base.name()
                )
            });
            debug_assert!(targets.windows(2).all(|w| w[0] < w[1]));

            let moves = repositioning_moves(ctx.sources, &targets);

            // Phase 0: the partial permutation. Sends go out first (they are
            // asynchronous), then the receive — a rank can be both a vacating
            // source and a new target.
            if let Some(payload) = ctx.payload {
                if moves.iter().any(|&(f, _)| f == me) {
                    let (_, to) = moves.iter().find(|&&(f, _)| f == me).unwrap();
                    comm.send(*to, tags::REPOS, payload);
                }
            }
            // What this rank holds afterwards is borrowed, not copied: from
            // the rope that arrived, or — a target that did not move was
            // the matching source already — from the context.
            let arrived = match moves.iter().find(|&&(_, t)| t == me) {
                Some(&(from, _)) => Some(comm.recv(Some(from), Some(tags::REPOS)).await.data),
                None => None,
            };
            let new_payload: Option<Cow<'_, [u8]>> = match &arrived {
                Some(data) => Some(data.contiguous()),
                None if targets.binary_search(&me).is_ok() => ctx.payload.map(Cow::Borrowed),
                None => None,
            };
            comm.next_iteration();

            // Phase 1: the base algorithm on the ideal distribution.
            let ctx2 = StpCtx {
                shape: ctx.shape,
                sources: &targets,
                payload: new_payload.as_deref(),
            };
            let result = self.base.run(comm, &ctx2).await;

            // Relabel: the base run keys messages by *target* position; map
            // them back to the original source ranks (pure bookkeeping —
            // every rank knows the permutation, no communication or copying
            // of payload bytes is modelled).
            let mut out = MessageSet::new();
            for (t, data) in result.into_entries() {
                let idx = targets
                    .binary_search(&(t as usize))
                    .expect("base algorithm produced an unexpected source key");
                out.insert_payload(ctx.sources[idx], data);
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
    use crate::algorithms::{BrLin, BrXySource};
    use crate::distribution::SourceDist;

    #[test]
    fn repos_lin_from_square_block() {
        let shape = MeshShape::new(4, 4);
        let sources = SourceDist::SquareBlock.place(shape, 4);
        assert_delivers(&Repos::new(BrLin, "Repos_Lin"), shape, &sources, 16);
    }

    #[test]
    fn repos_xy_source_from_cross() {
        let shape = MeshShape::new(5, 5);
        let sources = SourceDist::Cross.place(shape, 9);
        assert_delivers(
            &Repos::new(BrXySource, "Repos_xy_source"),
            shape,
            &sources,
            8,
        );
    }

    #[test]
    fn repos_noop_when_already_ideal() {
        // When the input *is* the ideal distribution no message moves.
        let shape = MeshShape::new(4, 4);
        let targets = BrLin.ideal_sources(shape, 4).unwrap();
        let moves = repositioning_moves(&targets, &targets);
        assert!(moves.is_empty());
        assert_delivers(&Repos::new(BrLin, "Repos_Lin"), shape, &targets, 8);
    }

    #[test]
    fn moves_are_injective() {
        let shape = MeshShape::new(8, 8);
        let sources = SourceDist::SquareBlock.place(shape, 16);
        let targets = BrXySource.ideal_sources(shape, 16).unwrap();
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
        let targets = BrXySource.ideal_sources(shape, 12).unwrap();
        assert_eq!(targets, sources);
        assert_delivers(
            &Repos::new(BrXySource, "Repos_xy_source"),
            shape,
            &sources,
            4,
        );
    }
}
