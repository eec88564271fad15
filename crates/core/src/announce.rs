//! Source announcement — the synchronization phase the paper assumes
//! away.
//!
//! §1: "we assume that every processor knows the position of the source
//! processors and the size of the messages when s-to-p broadcasting
//! starts. If this does not hold, synchronization and possible
//! communication is needed before our algorithms can be used."
//!
//! This module supplies that phase: each processor contributes one bit
//! ("I have a message") plus its message length; an all-reduce over a
//! `p`-bit bitmap + length table makes the full source set known
//! everywhere, after which any [`StpAlgorithm`] applies. The cost of
//! the announcement is measured by `announce_overhead` tests and is
//! `O(log p)` rounds of `O(p)`-byte messages — negligible against the
//! broadcast itself for the paper's message sizes.

use collectives::allreduce;
use mpp_runtime::RankCtx;

use crate::algorithms::{StpAlgorithm, StpCtx};
use crate::msgset::MessageSet;

/// Tag for the announcement phase.
const TAG: u32 = 4_900;

/// Wire format of the announcement contribution: a `p`-entry table of
/// `u32` lengths, `u32::MAX` meaning "not a source".
fn encode(p: usize, me: usize, my_len: Option<usize>) -> Vec<u8> {
    let mut table = vec![u32::MAX; p];
    if let Some(len) = my_len {
        table[me] = len as u32;
    }
    table.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn decode(bytes: &[u8]) -> Vec<Option<usize>> {
    bytes
        .chunks_exact(4)
        .map(|c| {
            let v = u32::from_le_bytes(c.try_into().unwrap());
            (v != u32::MAX).then_some(v as usize)
        })
        .collect()
}

fn merge_tables(a: &[u8], b: &[u8]) -> Vec<u8> {
    debug_assert_eq!(a.len(), b.len());
    a.chunks_exact(4)
        .zip(b.chunks_exact(4))
        .flat_map(|(x, y)| {
            let xv = u32::from_le_bytes(x.try_into().unwrap());
            let yv = u32::from_le_bytes(y.try_into().unwrap());
            xv.min(yv).to_le_bytes()
        })
        .collect()
}

/// Discover the source set at runtime, then broadcast.
///
/// Every rank calls this with its *own* knowledge only (`my_payload`);
/// no rank needs to know who else is a source. Returns the complete
/// message set, identical on every rank, or `None` when no rank had a
/// message (the s = 0 case the synchronous API cannot express).
pub async fn announce_and_broadcast(
    comm: &mut RankCtx,
    shape: mpp_model::MeshShape,
    my_payload: Option<&[u8]>,
    alg: &dyn StpAlgorithm,
) -> Option<MessageSet> {
    let p = comm.size();
    let me = comm.rank();

    // Phase 0: all-reduce the (who, length) table.
    let contrib = encode(p, me, my_payload.map(<[u8]>::len));
    let order: Vec<usize> = (0..p).collect();
    let table_bytes = allreduce(comm, &order, &contrib, &merge_tables, TAG).await;
    let table = decode(&table_bytes);
    comm.next_iteration();

    let sources: Vec<usize> = table
        .iter()
        .enumerate()
        .filter(|(_, l)| l.is_some())
        .map(|(r, _)| r)
        .collect();
    if sources.is_empty() {
        return None;
    }

    // Phase 1: the regular, fully-informed broadcast.
    let ctx = StpCtx {
        shape,
        sources: &sources,
        payload: my_payload,
    };
    Some(alg.run(comm, &ctx).await)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_model::MeshShape;

    use crate::algorithms::tests::run_on;
    use crate::algorithms::{BrLin, BrXySource, TwoStep};
    use crate::msgset::payload_for;

    fn check(shape: MeshShape, sources: Vec<usize>, alg: &dyn StpAlgorithm) {
        let sets = run_on(shape, async |comm| {
            // Each rank knows only its own status.
            let payload = sources
                .contains(&comm.rank())
                .then(|| payload_for(comm.rank(), 64));
            announce_and_broadcast(comm, shape, payload.as_deref(), alg).await
        });
        for set in sets {
            let set = set.expect("sources exist");
            assert_eq!(set.sources().collect::<Vec<_>>(), sources);
            for &s in &sources {
                assert_eq!(set.get(s).unwrap(), payload_for(s, 64));
            }
        }
    }

    #[test]
    fn discovers_and_broadcasts() {
        check(MeshShape::new(4, 4), vec![2, 9, 13], &BrLin::new());
        check(MeshShape::new(3, 5), vec![0, 14], &BrXySource);
        check(MeshShape::new(2, 4), vec![5], &TwoStep::direct());
    }

    #[test]
    fn no_sources_yields_none() {
        let shape = MeshShape::new(2, 3);
        let sets = run_on(shape, async |comm| {
            announce_and_broadcast(comm, shape, None, &BrLin::new()).await
        });
        assert!(sets.iter().all(|r| r.is_none()));
    }

    #[test]
    fn every_rank_a_source() {
        let shape = MeshShape::new(3, 3);
        check(shape, (0..9).collect(), &BrLin::new());
    }

    #[test]
    fn variable_lengths_announced() {
        let shape = MeshShape::new(2, 4);
        let sources = [1usize, 6];
        let sets = run_on(shape, async |comm| {
            let payload = sources
                .contains(&comm.rank())
                .then(|| payload_for(comm.rank(), 10 + comm.rank() * 7));
            announce_and_broadcast(comm, shape, payload.as_deref(), &BrLin::new()).await
        });
        for set in sets {
            let set = set.unwrap();
            assert_eq!(set.get(1).unwrap().len(), 17);
            assert_eq!(set.get(6).unwrap().len(), 52);
        }
    }

    #[test]
    fn table_encoding_roundtrip() {
        let enc = encode(5, 2, Some(1234));
        let dec = decode(&enc);
        assert_eq!(dec, vec![None, None, Some(1234), None, None]);
        // merge keeps the minimum (i.e. the announced value beats MAX)
        let a = encode(3, 0, Some(7));
        let b = encode(3, 2, Some(9));
        let m = decode(&merge_tables(&a, &b));
        assert_eq!(m, vec![Some(7), None, Some(9)]);
    }
}
