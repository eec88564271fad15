//! Combined broadcast messages.
//!
//! The merge-based algorithms of the paper combine messages whenever
//! messages from different sources meet at a processor: "subsequent steps
//! proceed with fewer messages having larger size". A [`MessageSet`] is
//! that combined object — a set of `(source rank, payload)` pairs with a
//! compact wire format, so the simulator charges realistic sizes
//! (payloads + per-entry headers) for combined messages.
//!
//! Payloads are stored as shared-ownership [`Payload`] ropes, so
//! combining `k` sets ([`MessageSet::merge`]) and re-encoding the union
//! for the next hop ([`MessageSet::to_payload`]) move pointers, not
//! bytes: the only memcpy in an encode is the fresh `4 + 8·n`-byte
//! header. (The *virtual-time* cost of combining is still charged
//! explicitly by the algorithms through `charge_memcpy`, exactly as
//! before — the rope only removes the *host-side* copy tax.)
//!
//! Wire format (little-endian):
//!
//! ```text
//! u32 count | count × (u32 src, u32 len) | payloads back-to-back
//! ```

use std::cell::RefCell;

use mpp_sim::Payload;

thread_local! {
    /// Where [`MessageSet::to_payload`] writes a header before copying
    /// it into payload storage; it keeps its capacity between encodes.
    static HEADER: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// A set of broadcast messages keyed by source rank (sorted, unique).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MessageSet {
    entries: Vec<(u32, Payload)>,
}

impl MessageSet {
    /// The empty set.
    pub fn new() -> Self {
        MessageSet {
            entries: Vec::new(),
        }
    }

    /// A set holding a single source's payload (copies the slice once).
    pub fn single(src: usize, payload: &[u8]) -> Self {
        MessageSet {
            entries: vec![(src as u32, Payload::from_slice(payload))],
        }
    }

    /// A set holding a single source's already-shared payload (no copy).
    pub fn single_payload(src: usize, payload: Payload) -> Self {
        MessageSet {
            entries: vec![(src as u32, payload)],
        }
    }

    /// Number of distinct sources held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no messages are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Source ranks held, ascending.
    pub fn sources(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().map(|&(s, _)| s as usize)
    }

    /// Payload of a given source, if held.
    pub fn get(&self, src: usize) -> Option<&Payload> {
        self.entries
            .binary_search_by_key(&(src as u32), |&(s, _)| s)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Payload of the `i`-th source held, in ascending source order
    /// (panics when `i ≥ len()`).
    pub(crate) fn payload_at(&self, i: usize) -> &Payload {
        &self.entries[i].1
    }

    /// Total payload bytes (excluding headers).
    pub fn payload_bytes(&self) -> usize {
        self.entries.iter().map(|(_, d)| d.len()).sum()
    }

    /// Bytes of the wire encoding.
    pub fn wire_bytes(&self) -> usize {
        self.header_len() + self.payload_bytes()
    }

    /// Merge another set into this one. Sources already present keep
    /// their existing payload (in s-to-p broadcasting duplicate arrivals
    /// always carry identical payloads). Returns the number of *new*
    /// payload bytes absorbed. Moves ropes — no byte copies — and works
    /// in place: the held entries above the lowest new source each move
    /// once, the rest stay, and the vector grows only when its spare
    /// capacity does not cover the new sources.
    pub fn merge(&mut self, other: MessageSet) -> usize {
        let held = &mut self.entries;
        let Some(&(lowest, _)) = other.entries.first() else {
            return 0;
        };
        // Count the sources that are new: one walk over the two sorted
        // runs, begun where the incoming one begins.
        let mut at = held.partition_point(|&(s, _)| s < lowest);
        let mut fresh = 0;
        for &(src, _) in &other.entries {
            while at < held.len() && held[at].0 < src {
                at += 1;
            }
            if held.get(at).is_none_or(|&(s, _)| s != src) {
                fresh += 1;
            }
        }
        // Open `fresh` slots at the end and merge from the back: `i`
        // ends the held entries still to place, `gap` the free slots.
        let mut i = held.len();
        held.resize_with(i + fresh, Default::default);
        let mut gap = held.len();
        let mut absorbed = 0;
        for (src, data) in other.entries.into_iter().rev() {
            if gap == i {
                break; // every new source is placed; the rest are duplicates
            }
            while i > 0 && held[i - 1].0 > src {
                i -= 1;
                gap -= 1;
                held.swap(i, gap);
            }
            if i == 0 || held[i - 1].0 != src {
                gap -= 1;
                absorbed += data.len();
                held[gap] = (src, data);
            }
        }
        absorbed
    }

    /// Insert one source's payload (no-op if present). Keeps ordering.
    /// Copies the slice once; see [`insert_payload`](Self::insert_payload)
    /// for the zero-copy variant.
    pub fn insert(&mut self, src: usize, payload: &[u8]) {
        if self
            .entries
            .binary_search_by_key(&(src as u32), |&(s, _)| s)
            .is_err()
        {
            self.insert_payload(src, Payload::from_slice(payload));
        }
    }

    /// Insert one source's already-shared payload (no-op if present,
    /// no byte copies). Keeps ordering.
    pub fn insert_payload(&mut self, src: usize, payload: Payload) {
        if let Err(pos) = self
            .entries
            .binary_search_by_key(&(src as u32), |&(s, _)| s)
        {
            self.entries.insert(pos, (src as u32, payload));
        }
    }

    /// Serialize to the wire format as an owned, contiguous buffer
    /// (copies every payload byte). Kept for wire-format tests and
    /// external interop; the algorithms use [`to_payload`](Self::to_payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_bytes());
        out.resize(self.header_len(), 0);
        self.write_header(&mut out);
        for (_, data) in &self.entries {
            for chunk in data.chunks() {
                out.extend_from_slice(chunk);
            }
        }
        out
    }

    /// Serialize to the wire format as a zero-copy rope: one copy of
    /// the `4 + 8·n` byte header (written in a per-thread scratch
    /// buffer, not a fresh `Vec`) plus O(total segments) pointer
    /// pushes. Combining `k` messages and re-sending therefore costs
    /// O(k), not O(total payload bytes).
    pub fn to_payload(&self) -> Payload {
        let mut out = HEADER.with_borrow_mut(|header| {
            header.clear();
            header.resize(self.header_len(), 0);
            self.write_header(header);
            Payload::from_slice(header)
        });
        for (_, data) in &self.entries {
            out.push_payload(data);
        }
        out
    }

    fn header_len(&self) -> usize {
        4 + self.entries.len() * 8
    }

    /// Write the header into `out`, exactly `header_len()` bytes.
    fn write_header(&self, out: &mut [u8]) {
        let (count, fields) = out.split_at_mut(4);
        count.copy_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for ((src, data), field) in self.entries.iter().zip(fields.chunks_exact_mut(8)) {
            field[..4].copy_from_slice(&src.to_le_bytes());
            field[4..].copy_from_slice(&(data.len() as u32).to_le_bytes());
        }
    }

    /// Parse the wire format from a contiguous buffer. Returns `None`
    /// on malformed input. The input is copied once into shared storage;
    /// entry payloads then reference it without further copies.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Self::from_payload(&Payload::from_slice(bytes))
    }

    /// Parse the wire format from a rope without copying any payload
    /// bytes: the `8·n` entry fields are read in place from the rope's
    /// first chunk when it holds the whole header (every rope
    /// [`to_payload`](Self::to_payload) builds does), or else copied
    /// out once; each entry payload is a zero-copy slice of `wire`.
    /// Returns `None` on malformed input.
    pub fn from_payload(wire: &Payload) -> Option<Self> {
        let mut r = wire.reader();
        let count = r.read_u32_le()? as usize;
        // `count` is the sender's claim: hold it against the bytes that
        // are really there (8 header bytes per entry) before sizing
        // anything by it.
        if count > r.remaining() / 8 {
            return None;
        }
        let header_len = 4 + count * 8;
        let mut copy = Vec::new();
        let fields = match wire.chunks().next() {
            Some(first) if first.len() >= header_len => &first[4..header_len],
            _ => {
                copy.resize(count * 8, 0);
                r.read_exact(&mut copy); // the bytes are there: checked above
                &copy[..]
            }
        };
        // A second cursor, past the header, slices the payloads.
        let mut body = wire.reader();
        body.skip(header_len);
        let mut entries = Vec::with_capacity(count);
        let mut last_src: Option<u32> = None;
        for field in fields.chunks_exact(8) {
            let src = u32::from_le_bytes(field[..4].try_into().unwrap());
            let len = u32::from_le_bytes(field[4..].try_into().unwrap()) as usize;
            // Enforce the invariant: sorted, unique.
            if last_src.is_some_and(|prev| prev >= src) {
                return None;
            }
            last_src = Some(src);
            entries.push((src, body.take_payload(len)?));
        }
        if body.remaining() != 0 {
            return None;
        }
        Some(MessageSet { entries })
    }

    /// Consume into the sorted `(src, payload)` list.
    pub fn into_entries(self) -> Vec<(u32, Payload)> {
        self.entries
    }
}

/// The deterministic test payload used throughout the experiments for
/// source `src` with message length `len`: every byte depends on the
/// source and its offset, so misrouted or truncated messages are caught.
pub fn payload_for(src: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (src.wrapping_mul(31).wrapping_add(i) & 0xFF) as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_wire_format() {
        let mut s = MessageSet::new();
        s.insert(3, b"ccc");
        s.insert(1, b"a");
        s.insert(7, b"");
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), s.wire_bytes());
        let back = MessageSet::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn rope_roundtrip_matches_flat() {
        let mut s = MessageSet::new();
        s.insert(3, b"ccc");
        s.insert(1, b"a");
        s.insert(7, b"");
        let rope = s.to_payload();
        assert_eq!(rope.len(), s.wire_bytes());
        assert_eq!(rope.to_vec(), s.to_bytes());
        let back = MessageSet::from_payload(&rope).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn empty_roundtrip() {
        let s = MessageSet::new();
        let back = MessageSet::from_bytes(&s.to_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn merge_unions_and_counts_new_bytes() {
        let mut a = MessageSet::single(1, b"one");
        let b = {
            let mut b = MessageSet::single(2, b"two");
            b.insert(1, b"one");
            b
        };
        let absorbed = a.merge(b);
        assert_eq!(absorbed, 3); // only "two" is new
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(1).unwrap(), b"one");
        assert_eq!(a.get(2).unwrap(), b"two");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// `merge` against a map: `held` of the 256 entries on one side,
        /// the rest incoming — 1 into 255 through 255 into 1 — with
        /// sources shared between the sides and payloads that tell the
        /// sides apart.
        #[test]
        fn merge_matches_a_map_union(
            held in 1usize..256,
            pool in proptest::collection::vec(0u32..512, 640),
        ) {
            use std::collections::BTreeMap;
            let side = |keys: &mut dyn Iterator<Item = &u32>, n: usize, byte: u8| {
                let mut map = BTreeMap::new();
                for &k in keys {
                    if map.len() < n {
                        map.insert(k, vec![byte; 1 + k as usize % 5]);
                    }
                }
                map
            };
            let mut model = side(&mut pool.iter(), held, 0xA0);
            let incoming = side(&mut pool.iter().rev(), 256 - held, 0x0B);
            proptest::prop_assert_eq!((model.len(), incoming.len()), (held, 256 - held));
            let to_set = |map: &BTreeMap<u32, Vec<u8>>| {
                let mut set = MessageSet::new();
                for (&src, data) in map {
                    set.insert(src as usize, data);
                }
                set
            };
            let mut set = to_set(&model);
            let absorbed = set.merge(to_set(&incoming));
            let mut fresh_bytes = 0;
            for (src, data) in incoming {
                if let std::collections::btree_map::Entry::Vacant(slot) = model.entry(src) {
                    fresh_bytes += data.len();
                    slot.insert(data);
                }
            }
            proptest::prop_assert_eq!(absorbed, fresh_bytes);
            // Sorted and unique, source for source the model's; a shared
            // source still carries the held side's payload.
            proptest::prop_assert!(set.sources().eq(model.keys().map(|&k| k as usize)));
            for (src, data) in &model {
                proptest::prop_assert!(set.get(*src as usize).is_some_and(|got| got == data));
            }
            let back = MessageSet::from_payload(&set.to_payload());
            proptest::prop_assert_eq!(back.as_ref(), Some(&set));
        }
    }

    #[test]
    fn merge_into_spare_capacity_allocates_nothing() {
        use crate::counting_alloc::allocs;
        let mut set = MessageSet::new();
        for src in (0..64).step_by(2) {
            set.insert_payload(src, Payload::new());
        }
        set.entries.reserve(3);
        let [low, mid, high] =
            [1, 31, 99].map(|src| MessageSet::single_payload(src, Payload::new()));
        let before = allocs();
        set.merge(low);
        set.merge(mid);
        set.merge(high);
        assert_eq!(allocs() - before, 0);
        assert_eq!(set.len(), 35);
        // And the counter counts: a full vector has to grow.
        set.entries.shrink_to_fit();
        let one_more = MessageSet::single_payload(100, Payload::new());
        let before = allocs();
        set.merge(one_more);
        assert!(allocs() > before);
    }

    #[test]
    fn entries_stay_sorted() {
        let mut s = MessageSet::new();
        for src in [9usize, 2, 5, 0, 7] {
            s.insert(src, &[src as u8]);
        }
        let srcs: Vec<_> = s.sources().collect();
        assert_eq!(srcs, vec![0, 2, 5, 7, 9]);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(MessageSet::from_bytes(&[]).is_none());
        assert!(MessageSet::from_bytes(&[1, 0, 0, 0]).is_none()); // count=1, no header
                                                                  // trailing garbage
        let mut ok = MessageSet::single(1, b"x").to_bytes();
        ok.push(0);
        assert!(MessageSet::from_bytes(&ok).is_none());
        // unsorted entries
        let mut bad = Vec::new();
        bad.extend_from_slice(&2u32.to_le_bytes());
        for src in [5u32, 3] {
            bad.extend_from_slice(&src.to_le_bytes());
            bad.extend_from_slice(&0u32.to_le_bytes());
        }
        assert!(MessageSet::from_bytes(&bad).is_none());
    }

    /// The input `proptest_invariants::msgset_parser_total` generates
    /// for its seed: a 16-byte wire whose count field claims 0xEAB8E342
    /// entries. Sizing the parse tables by that claim asked the
    /// allocator for 63 007 765 536 bytes and aborted the process on a
    /// host without overcommit.
    #[test]
    fn claimed_count_is_held_against_the_bytes_present() {
        let wire = [
            66, 227, 184, 234, 181, 90, 196, 125, 29, 227, 121, 69, 154, 131, 71, 227,
        ];
        assert!(MessageSet::from_bytes(&wire).is_none());
        // The bound is exact: the 12 bytes behind this count back one
        // entry, and a claim of two is refused.
        let mut one = MessageSet::single(7, b"data").to_bytes();
        assert!(MessageSet::from_bytes(&one).is_some());
        one[0] = 2;
        assert!(MessageSet::from_bytes(&one).is_none());
    }

    /// The same wire bytes as a rope of `k`-byte segments.
    fn segmented(wire: &[u8], k: usize) -> Payload {
        let mut rope = Payload::new();
        for chunk in wire.chunks(k) {
            rope.append(Payload::from_slice(chunk));
        }
        rope
    }

    /// A header split across segments (so not read in place) parses to
    /// what the contiguous bytes parse to, `None` included: valid sets,
    /// every malformed wire of the two tests above, and a truncated
    /// payload.
    #[test]
    fn parse_ignores_segmentation() {
        let mut sets = vec![MessageSet::new(), MessageSet::single(7, b"data")];
        let mut three = MessageSet::new();
        for (src, data) in [(3, &b"ccc"[..]), (1, b"a"), (7, b"")] {
            three.insert(src, data);
        }
        sets.push(three);
        sets.push((0..16).fold(MessageSet::new(), |mut set, src| {
            set.insert(src, &payload_for(src, 40));
            set
        }));
        let mut wires: Vec<Vec<u8>> = sets.iter().map(MessageSet::to_bytes).collect();
        wires.push(vec![]);
        wires.push(vec![1, 0, 0, 0]);
        let mut trailing = MessageSet::single(1, b"x").to_bytes();
        trailing.push(0);
        wires.push(trailing);
        let mut unsorted = 2u32.to_le_bytes().to_vec();
        for src in [5u32, 3] {
            unsorted.extend_from_slice(&src.to_le_bytes());
            unsorted.extend_from_slice(&0u32.to_le_bytes());
        }
        wires.push(unsorted);
        wires.push(vec![
            66, 227, 184, 234, 181, 90, 196, 125, 29, 227, 121, 69, 154, 131, 71, 227,
        ]);
        let mut overclaimed = MessageSet::single(7, b"data").to_bytes();
        overclaimed[0] = 2;
        wires.push(overclaimed);
        let mut truncated = MessageSet::single(7, b"data").to_bytes();
        truncated.pop();
        wires.push(truncated);
        for wire in &wires {
            let flat = MessageSet::from_bytes(wire);
            for k in [1, 3, 7] {
                assert_eq!(
                    MessageSet::from_payload(&segmented(wire, k)),
                    flat,
                    "{wire:?} in {k}s"
                );
            }
        }
        let parsed = wires.iter().filter_map(|w| MessageSet::from_bytes(w));
        assert!(parsed.eq(sets), "the valid wires parse, the rest do not");
    }

    #[test]
    fn wire_bytes_accounts_for_headers() {
        let mut s = MessageSet::new();
        s.insert(0, &[0u8; 100]);
        s.insert(1, &[0u8; 50]);
        assert_eq!(s.wire_bytes(), 4 + 2 * 8 + 150);
    }

    #[test]
    fn payload_for_is_deterministic_and_distinct() {
        assert_eq!(payload_for(3, 16), payload_for(3, 16));
        assert_ne!(payload_for(3, 16), payload_for(4, 16));
        assert_eq!(payload_for(5, 0).len(), 0);
    }
}
