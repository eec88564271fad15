//! `PersAlltoAll` (paper §2): s-to-p broadcasting as a personalized
//! all-to-all exchange.
//!
//! Each source treats its message as `p-1` identical "distinct" messages
//! and ships one per round of the permutation schedule (XOR pairing of
//! reference \[8\] for power-of-two machines, cyclic shifts otherwise).
//! Messages are never combined and no rank ever waits for a slow merge —
//! `O(1)` congestion and wait at the price of `O(p)` send/receive
//! operations. On the Paragon the per-message startup makes this slow;
//! on the T3D's fat network its MPI build (`MPI_Alltoall`) is the paper's
//! overall winner.

use collectives::personalized_from_sources;
use mpp_runtime::{CommFuture, RankCtx};

use crate::algorithms::{tags, StpAlgorithm, StpCtx};
use crate::msgset::MessageSet;

/// Algorithm `PersAlltoAll`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PersAlltoAll;

impl StpAlgorithm for PersAlltoAll {
    fn name(&self) -> &'static str {
        "PersAlltoAll"
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            // The exchange returns the messages sorted by source: one
            // list of exactly s entries.
            personalized_from_sources(comm, ctx.sources, ctx.payload, tags::PERS)
                .await
                .into_iter()
                .map(|m| (m.src, m.data))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_model::MeshShape;

    use crate::algorithms::tests::{assert_delivers, simulate_on};
    use crate::msgset::payload_for;

    #[test]
    fn power_of_two_machine_uses_xor_schedule() {
        assert_delivers(&PersAlltoAll, MeshShape::new(4, 4), &[0, 5, 10], 16);
    }

    #[test]
    fn general_machine_uses_shift_schedule() {
        assert_delivers(&PersAlltoAll, MeshShape::new(3, 5), &[1, 7, 14], 16);
    }

    #[test]
    fn every_rank_a_source() {
        assert_delivers(
            &PersAlltoAll,
            MeshShape::new(2, 3),
            &(0..6).collect::<Vec<_>>(),
            8,
        );
    }

    #[test]
    fn no_combining_is_charged() {
        let shape = MeshShape::new(2, 4);
        let sources = vec![0usize, 3];
        let copied = simulate_on(shape, async |comm| {
            let payload = sources
                .contains(&comm.rank())
                .then(|| payload_for(comm.rank(), 64));
            let ctx = StpCtx {
                shape,
                sources: &sources,
                payload: payload.as_deref(),
            };
            let _ = PersAlltoAll.run(comm, &ctx).await;
        })
        .stats
        .iter()
        .map(|st| st.memcpy_bytes)
        .collect::<Vec<_>>();
        assert!(
            copied.iter().all(|&b| b == 0),
            "PersAlltoAll never combines"
        );
    }
}
