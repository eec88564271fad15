//! Virtual-to-physical processor placement.
//!
//! Algorithms address *virtual ranks* `0..p`. The machine maps each rank to
//! a physical node of its topology. On the Paragon an application owns a
//! contiguous sub-mesh, so the mapping is the identity; on the T3D the
//! paper stresses that "the mapping to physical processors cannot be
//! controlled by the user" — the model is a contiguous block at a
//! seed-derived rotation ([`Placement::RotatedBlock`]; locality
//! survives, position is unknown).

use crate::topology::NodeId;

/// Policy mapping virtual ranks onto physical nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Rank `i` runs on node `i`.
    Identity,
    /// A contiguous block at an unknown (seed-derived) rotation:
    /// rank `i` → node `(i + offset) mod n`. This models how production
    /// T3D partitions actually behaved — the user cannot *choose* the
    /// mapping, but consecutive virtual processors stay physically
    /// clustered, so communication locality survives.
    RotatedBlock {
        /// Offset seed.
        seed: u64,
    },
}

impl Placement {
    /// Materialize the mapping for `p` ranks: `result[rank] = node`.
    pub fn mapping(&self, p: usize) -> Vec<NodeId> {
        match *self {
            Placement::Identity => (0..p).collect(),
            Placement::RotatedBlock { seed } => {
                if p == 0 {
                    return Vec::new();
                }
                let offset = (splitmix64(seed) % p as u64) as usize;
                (0..p).map(|i| (i + offset) % p).collect()
            }
        }
    }
}

/// The first output of a SplitMix64 stream seeded with `seed`: the
/// rotation is one well-mixed draw. Kept local so `mpp-model` stays
/// dependency-free.
fn splitmix64(seed: u64) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut z = seed.wrapping_add(GOLDEN).wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_maps_straight_through() {
        assert_eq!(Placement::Identity.mapping(5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_and_single() {
        assert!(Placement::RotatedBlock { seed: 3 }.mapping(0).is_empty());
        assert_eq!(Placement::RotatedBlock { seed: 3 }.mapping(1), vec![0]);
    }

    #[test]
    fn rotated_block_preserves_adjacency() {
        let m = Placement::RotatedBlock { seed: 9 }.mapping(64);
        // bijection
        let mut seen = [false; 64];
        for &n in &m {
            assert!(!seen[n]);
            seen[n] = true;
        }
        // consecutive ranks stay consecutive (mod wrap)
        for w in m.windows(2) {
            assert_eq!((w[0] + 1) % 64, w[1]);
        }
    }

    #[test]
    fn rotated_block_is_seeded() {
        let a = Placement::RotatedBlock { seed: 1 }.mapping(128);
        let b = Placement::RotatedBlock { seed: 1 }.mapping(128);
        assert_eq!(a, b);
        let c = Placement::RotatedBlock { seed: 2 }.mapping(128);
        assert_ne!(a, c);
    }
}
