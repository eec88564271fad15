//! Property-based tests over the core invariants (proptest).

use proptest::prelude::*;
use stp_broadcast::model::Topology;
use stp_broadcast::prelude::*;
use stp_broadcast::stp::algorithms::part::repositioning_moves;
use stp_broadcast::stp::ideal::{ideal_line_positions, ideal_rows};
use stp_broadcast::stp::pattern::{br_lin_schedule, simulate_coverage};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Br_Lin's schedule always achieves full coverage: every position
    /// ends up with every source position's messages.
    #[test]
    fn br_lin_schedule_full_coverage(n in 1usize..48, mask in any::<u64>()) {
        let has: Vec<bool> = (0..n).map(|i| mask >> (i % 64) & 1 == 1).collect();
        if !has.iter().any(|&b| b) {
            return Ok(());
        }
        let want: std::collections::BTreeSet<usize> =
            has.iter().enumerate().filter(|(_, &h)| h).map(|(i, _)| i).collect();
        for (pos, got) in simulate_coverage(&has).iter().enumerate() {
            prop_assert_eq!(got, &want, "position {} incomplete", pos);
        }
    }

    /// Schedule depth is exactly ⌈log₂ n⌉ and per-level ops stay ≤ 2.
    #[test]
    fn br_lin_schedule_depth_and_degree(n in 1usize..200) {
        let has = vec![true; n];
        let sched = br_lin_schedule(&has);
        let want_levels = if n <= 1 { 0 } else { (n - 1).ilog2() as usize + 1 };
        prop_assert_eq!(sched.levels(), want_levels);
        for level in &sched.ops {
            for ops in level {
                prop_assert!(ops.len() <= 2);
            }
        }
    }

    /// Every named distribution places exactly s sorted, distinct,
    /// in-range sources on every mesh.
    #[test]
    fn distributions_well_formed(rows in 1usize..12, cols in 1usize..12, s_frac in 0.01f64..1.0) {
        let shape = MeshShape::new(rows, cols);
        let p = shape.p();
        let s = ((p as f64 * s_frac).ceil() as usize).clamp(1, p);
        for dist in [
            SourceDist::Row, SourceDist::Column, SourceDist::Equal,
            SourceDist::DiagRight, SourceDist::DiagLeft, SourceDist::Band,
            SourceDist::Cross, SourceDist::SquareBlock,
            SourceDist::Random { seed: 9 },
        ] {
            let placed = dist.place(shape, s);
            prop_assert_eq!(placed.len(), s, "{} on {}x{}", dist.name(), rows, cols);
            prop_assert!(placed.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(placed.iter().all(|&r| r < p));
        }
    }

    /// The repositioning permutation is injective and a partial
    /// permutation (no rank both keeps and receives), at depth 0
    /// (`Repos_*`, onto the ideal rows) and when partitioned.
    #[test]
    fn repositioning_is_partial_permutation(rows in 2usize..10, cols in 2usize..10, s_frac in 0.05f64..1.0) {
        let shape = MeshShape::new(rows, cols);
        let p = shape.p();
        let s = ((p as f64 * s_frac) as usize).clamp(1, p);
        let sources = SourceDist::SquareBlock.place(shape, s);
        for depth in 0..3 {
            let targets = Part::new(BrXySource, depth, "Part_xy_source").targets(shape, s);
            prop_assert_eq!(targets.len(), s);
            if depth == 0 {
                prop_assert!(targets.windows(2).all(|w| w[0] < w[1]));
                prop_assert_eq!(&targets, &ideal_rows(shape, s));
            }
            let moves = repositioning_moves(&sources, &targets);
            let mut from: Vec<usize> = moves.iter().map(|&(f, _)| f).collect();
            let mut to: Vec<usize> = moves.iter().map(|&(_, t)| t).collect();
            from.sort_unstable(); from.dedup();
            to.sort_unstable(); to.dedup();
            prop_assert_eq!(from.len(), moves.len());
            prop_assert_eq!(to.len(), moves.len());
        }
    }

    /// Ideal line positions: correct count, sorted, within range, and
    /// never worse at doubling than the naive evenly-spaced choice.
    #[test]
    fn ideal_line_positions_valid(n in 1usize..24, k_frac in 0.0f64..1.0) {
        let k = ((n as f64 * k_frac) as usize).min(n);
        let pos = ideal_line_positions(n, k);
        prop_assert_eq!(pos.len(), k);
        prop_assert!(pos.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(pos.iter().all(|&x| x < n));
    }

    /// Dimension-ordered routes are minimal, contiguous and in-range on
    /// every topology.
    #[test]
    fn routes_minimal_and_contiguous(
        rows in 1usize..8, cols in 1usize..8,
        dx in 1usize..6, dy in 1usize..6, dz in 1usize..4,
        from_frac in 0.0f64..1.0, to_frac in 0.0f64..1.0,
    ) {
        for topo in [
            Topology::Mesh2D { rows, cols },
            Topology::Torus3D { dx, dy, dz },
            Topology::Mesh2D { rows: 1, cols: rows * cols },
        ] {
            let n = topo.num_nodes();
            let u = ((n as f64 * from_frac) as usize).min(n - 1);
            let v = ((n as f64 * to_frac) as usize).min(n - 1);
            let route = topo.route(u, v);
            prop_assert_eq!(route.len(), topo.distance(u, v));
            let mut cur = u;
            for link in &route {
                prop_assert_eq!(link.from, cur);
                prop_assert!(topo.neighbors(link.from).contains(&link.to));
                cur = link.to;
            }
            prop_assert_eq!(cur, v);
        }
    }

    /// MessageSet wire format round-trips arbitrary contents.
    #[test]
    fn msgset_roundtrip(entries in proptest::collection::btree_map(0u32..500, proptest::collection::vec(any::<u8>(), 0..64), 0..12)) {
        let mut set = MessageSet::new();
        for (src, data) in &entries {
            set.insert(*src as usize, data);
        }
        let back = MessageSet::from_bytes(&set.to_bytes()).unwrap();
        prop_assert_eq!(back, set);
    }

    /// MessageSet::from_bytes never panics on arbitrary garbage.
    #[test]
    fn msgset_parser_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = MessageSet::from_bytes(&bytes);
    }

    /// The rope wire path is byte-identical to the flat one: same
    /// length (virtual send costs depend on it) and same bytes, and it
    /// round-trips through the zero-copy parser.
    #[test]
    fn msgset_rope_wire_matches_flat(entries in proptest::collection::btree_map(0u32..500, proptest::collection::vec(any::<u8>(), 0..64), 0..12)) {
        let mut set = MessageSet::new();
        for (src, data) in &entries {
            set.insert(*src as usize, data);
        }
        let flat = set.to_bytes();
        let rope = set.to_payload();
        prop_assert_eq!(rope.len(), flat.len());
        prop_assert_eq!(rope.len(), set.wire_bytes());
        prop_assert_eq!(rope.to_vec(), flat);
        let back = MessageSet::from_payload(&rope).unwrap();
        prop_assert_eq!(back, set);
    }

    /// Merging message sets built from rope entries behaves like a map
    /// union, regardless of how the entries were split between the two
    /// sides, and the merged set serialises identically to one built
    /// flat from the union.
    #[test]
    fn msgset_rope_merge_is_union(
        entries in proptest::collection::btree_map(0u32..100, proptest::collection::vec(any::<u8>(), 0..48), 0..16),
        split_mask in any::<u16>(),
    ) {
        let mut left = MessageSet::new();
        let mut right = MessageSet::new();
        for (i, (src, data)) in entries.iter().enumerate() {
            let rope = mpp_sim::Payload::from_slice(data);
            if split_mask >> (i % 16) & 1 == 0 {
                left.insert_payload(*src as usize, rope);
            } else {
                right.insert_payload(*src as usize, rope);
            }
        }
        left.merge(right);
        let mut flat = MessageSet::new();
        for (src, data) in &entries {
            flat.insert(*src as usize, data);
        }
        prop_assert_eq!(&left, &flat);
        prop_assert_eq!(left.to_payload().to_vec(), flat.to_bytes());
    }

    /// A payload rope assembled from arbitrary fragments is
    /// indistinguishable from the flat concatenation: same length,
    /// same bytes, and any slice of it equals the flat slice.
    #[test]
    fn payload_rope_equals_flat(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..8),
        a_frac in 0.0f64..1.0, b_frac in 0.0f64..1.0,
    ) {
        let mut rope = mpp_sim::Payload::new();
        let mut flat = Vec::new();
        for chunk in &chunks {
            rope.append(mpp_sim::Payload::from_slice(chunk));
            flat.extend_from_slice(chunk);
        }
        prop_assert_eq!(rope.len(), flat.len());
        prop_assert!(rope == flat.as_slice());
        let a = (flat.len() as f64 * a_frac) as usize;
        let b = (flat.len() as f64 * b_frac) as usize;
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(rope.slice(lo, hi) == flat[lo..hi]);
        // Sharing structure: cloning and re-appending the rope onto
        // itself doubles the length without touching payload bytes
        // (the zero-copy claim itself is asserted in payload.rs unit
        // tests — the global counters race across test threads here).
        let mut doubled = rope.clone();
        doubled.push_payload(&rope);
        prop_assert_eq!(doubled.len(), 2 * flat.len());
        prop_assert_eq!(doubled.slice(flat.len(), 2 * flat.len()).to_vec(), flat);
    }

    /// Segment-wise equality is byte equality: however the two sides
    /// are cut up (empty segments and empty payloads included), `==`
    /// says what comparing the two byte streams one byte at a time
    /// says — for equal contents, a difference in the very last byte,
    /// and a length mismatch in either direction.
    #[test]
    fn payload_equality_ignores_segmentation(
        data in proptest::collection::vec(any::<u8>(), 0..96),
        cuts_a in proptest::collection::vec(0.0f64..1.0, 0..6),
        cuts_b in proptest::collection::vec(0.0f64..1.0, 0..6),
        relation in 0usize..4,
    ) {
        // Re-cut `bytes` at the given fractions; a repeated or interior
        // cut point leaves an empty segment behind.
        let resegment = |bytes: &[u8], cuts: &[f64]| {
            let whole = mpp_sim::Payload::from_slice(bytes);
            let mut at: Vec<usize> = cuts.iter().map(|f| (bytes.len() as f64 * f) as usize).collect();
            at.extend([0, bytes.len()]);
            at.sort_unstable();
            let mut rope = mpp_sim::Payload::new();
            for w in at.windows(2) {
                rope.push_payload(&whole.slice(w[0], w[0]));
                rope.push_payload(&whole.slice(w[0], w[1]));
            }
            rope
        };
        let mut other = data.clone();
        match relation {
            1 => if let Some(last) = other.last_mut() { *last ^= 0x80 },
            2 => { other.pop(); }
            3 => other.push(0),
            _ => {}
        }
        let a = resegment(&data, &cuts_a);
        let b = resegment(&other, &cuts_b);
        prop_assert_eq!(a.to_vec(), data.clone());
        let want = data == other;
        prop_assert_eq!(want, a.to_vec() == b.to_vec());
        prop_assert_eq!(a == b, want);
        prop_assert_eq!(b == a, want);
        prop_assert_eq!(a == other.as_slice(), want);
        prop_assert_eq!(b == data.as_slice(), want);
        prop_assert!(a == a.clone() && a == data.as_slice());
    }
}

proptest! {
    // Expensive end-to-end properties: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end: any algorithm, any explicit random source set, on a
    /// random small mesh — every rank verifies.
    #[test]
    fn any_algorithm_any_sources_verifies(
        rows in 2usize..5, cols in 2usize..6,
        seed in any::<u64>(),
        kind_idx in 0usize..13,
        len in 0usize..200,
    ) {
        let machine = Machine::paragon(rows, cols);
        let p = machine.p();
        let s = (seed % p as u64).max(1) as usize;
        let kind = AlgoKind::all()[kind_idx % AlgoKind::all().len()];
        let exp = Experiment {
            machine: &machine,
            dist: SourceDist::Random { seed },
            s,
            msg_len: len,
            kind,
        };
        let out = exp.run().expect("run failed");
        prop_assert!(out.verified, "{} failed (p={}, s={}, len={})", kind.name(), p, s, len);
    }
}
