//! Combined broadcast messages.
//!
//! The merge-based algorithms of the paper combine messages whenever
//! messages from different sources meet at a processor: "subsequent steps
//! proceed with fewer messages having larger size". A [`MessageSet`] is
//! that combined object — a set of `(source rank, payload)` pairs with a
//! compact wire format, so the simulator charges realistic sizes
//! (payloads + per-entry headers) for combined messages.
//!
//! A set's entries are one immutable list behind an `Arc`, shared
//! copy-on-write: a clone is one reference count. Inside the simulator a
//! set travels by handle, not as bytes: [`MessageSet::to_payload`]
//! snapshots the set into a shared [`Payload`] value charged exactly its
//! wire length, every destination gets an `Arc` clone of it, and the
//! receiver reads the set back through [`MessageSet::view`] without
//! parsing. [`MessageSet::merge`] then adopts the sender's list when it
//! holds nothing (and has no room reserved), touches nothing when
//! nothing is new, builds the union once at its final size when a
//! snapshot still shares the held list, and merges in place when the
//! list is its own. Entry payloads are shared ropes, so a snapshot and a
//! merge move pointers, never payload bytes. (The *virtual-time* cost of
//! combining is still charged explicitly by the algorithms through
//! `charge_memcpy` — the handle only removes the host-side encode and
//! parse.)
//!
//! The codec stays for bytes built by hand — fixtures and tests:
//! [`MessageSet::to_bytes`] writes the format and
//! [`MessageSet::from_bytes`] / [`MessageSet::from_payload`] parse it
//! totally. Wire format (little-endian):
//!
//! ```text
//! u32 count | count × (u32 src, u32 len) | payloads back-to-back
//! ```

use std::borrow::{Borrow, Cow};
use std::sync::Arc;

use mpp_sim::{Payload, WireValue};

/// A set of broadcast messages keyed by source rank (sorted, unique).
///
/// The entry list is shared copy-on-write, so `clone` is one reference
/// count. `==` compares the lists, and `Arc`'s `==` finds two sets that
/// share one list equal without reading it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MessageSet {
    entries: Arc<Vec<(u32, Payload)>>,
}

impl MessageSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// The empty set with room for `sources` entries, for a rank that
    /// collects many sources one message at a time: merges and inserts
    /// fill the room in place instead of adopting or regrowing a list.
    pub fn with_capacity(sources: usize) -> Self {
        MessageSet {
            entries: Arc::new(Vec::with_capacity(sources)),
        }
    }

    /// A set holding a single source's payload (copies the slice once).
    pub fn single(src: usize, payload: &[u8]) -> Self {
        Self::single_payload(src, Payload::from_slice(payload))
    }

    /// A set holding a single source's already-shared payload (no copy).
    pub fn single_payload(src: usize, payload: Payload) -> Self {
        MessageSet {
            entries: Arc::new(vec![(src as u32, payload)]),
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

    /// Merge another set, owned or borrowed, into this one. Sources
    /// already present keep their existing payload (in s-to-p
    /// broadcasting duplicate arrivals always carry identical payloads).
    /// Returns the number of *new* payload bytes absorbed. Never copies
    /// a payload byte, and copies entries only where the list must
    /// change:
    ///
    /// * a set that holds nothing and has no room reserved for the
    ///   other's entries adopts the other's list (one reference count);
    /// * a merge that adds no source touches nothing;
    /// * a held list that a snapshot or another set still shares is
    ///   left to them: the union is built once, at its final size;
    /// * a list held alone is merged in place: the held entries above
    ///   the lowest new source each move once, the rest stay, and the
    ///   vector grows only when its spare capacity does not cover the
    ///   new sources.
    pub fn merge(&mut self, other: impl Borrow<MessageSet>) -> usize {
        let other = other.borrow();
        let incoming = &other.entries;
        let Some(&(lowest, _)) = incoming.first() else {
            return 0;
        };
        if self.entries.capacity() < incoming.len() && self.is_empty() {
            self.entries = Arc::clone(incoming);
            return other.payload_bytes();
        }
        if Arc::ptr_eq(&self.entries, incoming) {
            return 0;
        }
        // Count the sources that are new: one walk over the two sorted
        // runs, begun where the incoming one begins.
        let held = &self.entries;
        let mut at = held.partition_point(|&(s, _)| s < lowest);
        let mut fresh = 0;
        for &(src, _) in incoming.iter() {
            while at < held.len() && held[at].0 < src {
                at += 1;
            }
            if held.get(at).is_none_or(|&(s, _)| s != src) {
                fresh += 1;
            }
        }
        if fresh == 0 {
            return 0;
        }
        let Some(held) = Arc::get_mut(&mut self.entries) else {
            let (union, absorbed) = union(&self.entries, incoming, fresh);
            self.entries = Arc::new(union);
            return absorbed;
        };
        // Open `fresh` slots at the end and merge from the back: `i`
        // ends the held entries still to place, `gap` the free slots.
        let mut i = held.len();
        held.resize_with(i + fresh, Default::default);
        let mut gap = held.len();
        let mut absorbed = 0;
        for &(src, ref data) in incoming.iter().rev() {
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
                held[gap] = (src, data.clone());
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
            Arc::make_mut(&mut self.entries).insert(pos, (src as u32, payload));
        }
    }

    /// Whether the two sets share one entry list, so hold equal entries
    /// without reading them.
    pub(crate) fn shares_entries(&self, other: &MessageSet) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }

    /// Serialize to the wire format as an owned, contiguous buffer
    /// (copies every payload byte): the codec for bytes built by hand.
    /// The algorithms send [`to_payload`](Self::to_payload) handles.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_bytes());
        self.wire_chunks(|chunk| out.extend_from_slice(chunk));
        out
    }

    /// Visit the wire encoding in order as chunks, without building it:
    /// the header (count, then each entry's `(src, len)` field) in
    /// pieces of at most 256 bytes, then the payloads' own chunks.
    pub fn wire_chunks(&self, mut visit: impl FnMut(&[u8])) {
        let mut header = [0u8; 256];
        header[..4].copy_from_slice(&(self.entries.len() as u32).to_le_bytes());
        let mut at = 4;
        for (src, data) in self.entries.iter() {
            if at + 8 > header.len() {
                visit(&header[..at]);
                at = 0;
            }
            header[at..at + 4].copy_from_slice(&src.to_le_bytes());
            header[at + 4..at + 8].copy_from_slice(&(data.len() as u32).to_le_bytes());
            at += 8;
        }
        visit(&header[..at]);
        for (_, data) in self.entries.iter() {
            data.chunks().for_each(&mut visit);
        }
    }

    /// A snapshot of the set as a payload of its wire length, never
    /// encoded (see [`Payload::from_value`]): one reference to the entry
    /// list, shared by every destination it is sent to. A later merge
    /// into this set leaves the snapshot's list as it was.
    pub fn to_payload(&self) -> Payload {
        Payload::from_value(self.clone())
    }

    fn header_len(&self) -> usize {
        4 + self.entries.len() * 8
    }

    /// Parse the wire format from a contiguous buffer. Returns `None`
    /// on malformed input. The input is copied once into shared storage;
    /// entry payloads then reference it without further copies.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Self::from_payload(&Payload::from_slice(bytes))
    }

    /// The set a payload carries: an owned copy of
    /// [`view`](Self::view)'s (entry ropes are shared, not copied).
    pub fn from_payload(wire: &Payload) -> Option<Self> {
        Self::view(wire).map(Cow::into_owned)
    }

    /// The set a payload carries, borrowed from a
    /// [`to_payload`](Self::to_payload) handle, or else parsed from its
    /// bytes. Returns `None` on malformed bytes.
    pub fn view(wire: &Payload) -> Option<Cow<'_, Self>> {
        match wire.value::<MessageSet>() {
            Some(set) => Some(Cow::Borrowed(set)),
            None => Self::parse(wire).map(Cow::Owned),
        }
    }

    /// Parse the wire format from a rope without copying any payload
    /// bytes: the `8·n` entry fields are copied out once; each entry
    /// payload is a zero-copy slice of `wire`. Returns `None` on
    /// malformed input.
    fn parse(wire: &Payload) -> Option<Self> {
        let mut r = wire.reader();
        let count = r.read_u32_le()? as usize;
        // `count` is the sender's claim: hold it against the bytes that
        // are really there (8 header bytes per entry) before sizing
        // anything by it.
        if count > r.remaining() / 8 {
            return None;
        }
        let header_len = 4 + count * 8;
        // The bytes are there: checked above.
        let mut fields = vec![0; count * 8];
        r.read_exact(&mut fields);
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
        Some(MessageSet {
            entries: Arc::new(entries),
        })
    }

    /// The `(source, payload)` entries, ascending by source.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Payload)> {
        self.entries.iter().map(|(src, data)| (*src as usize, data))
    }

    /// Consume into the sorted `(src, payload)` list (a copy of the
    /// list when another set still shares it).
    pub fn into_entries(self) -> Vec<(u32, Payload)> {
        Arc::unwrap_or_clone(self.entries)
    }
}

/// The sorted union of two sorted entry lists, `fresh` of whose sources
/// are `incoming`'s alone, built at its final size; a source both hold
/// keeps `held`'s payload. Also returns the new sources' payload bytes.
fn union(
    held: &[(u32, Payload)],
    incoming: &[(u32, Payload)],
    fresh: usize,
) -> (Vec<(u32, Payload)>, usize) {
    let mut out = Vec::with_capacity(held.len() + fresh);
    let mut absorbed = 0;
    let mut theirs = incoming.iter().peekable();
    for mine in held {
        while let Some(new) = theirs.next_if(|&&(src, _)| src < mine.0) {
            absorbed += new.1.len();
            out.push(new.clone());
        }
        theirs.next_if(|&&(src, _)| src == mine.0);
        out.push(mine.clone());
    }
    for new in theirs {
        absorbed += new.1.len();
        out.push(new.clone());
    }
    (out, absorbed)
}

/// A set from `(source, payload)` pairs in any order; the first pair of
/// a repeated source wins, as in [`MessageSet::merge`]. Pairs that
/// arrive sorted by source — an exchange's receives, or a rank that
/// collects one source per receive — are collected into one list and
/// checked, with no insert per entry.
impl FromIterator<(usize, Payload)> for MessageSet {
    fn from_iter<I: IntoIterator<Item = (usize, Payload)>>(pairs: I) -> Self {
        let mut entries: Vec<(u32, Payload)> = pairs
            .into_iter()
            .map(|(src, data)| (src as u32, data))
            .collect();
        // A stable sort takes a scratch buffer the size of the list.
        if !entries.is_sorted_by_key(|&(src, _)| src) {
            entries.sort_by_key(|&(src, _)| src);
        }
        entries.dedup_by_key(|&mut (src, _)| src);
        // Collecting from a `Vec` of larger items (an exchange's
        // envelopes) reuses their allocation: give back what the entries
        // do not fill.
        entries.shrink_to_fit();
        MessageSet {
            entries: Arc::new(entries),
        }
    }
}

/// A set travels as itself; its bytes are built only if something reads
/// them.
impl WireValue for MessageSet {
    fn wire_len(&self) -> usize {
        self.wire_bytes()
    }

    fn encode(&self) -> Payload {
        Payload::from_vec(self.to_bytes())
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
    fn handle_is_read_back_without_parsing() {
        let mut s = MessageSet::new();
        s.insert(3, b"ccc");
        s.insert(1, b"a");
        s.insert(7, b"");
        let handle = s.to_payload();
        assert_eq!(handle.len(), s.wire_bytes());
        assert!(matches!(MessageSet::view(&handle), Some(Cow::Borrowed(set)) if *set == s));
        let bytes = Payload::from_slice(&s.to_bytes());
        assert!(matches!(MessageSet::view(&bytes), Some(Cow::Owned(set)) if set == s));
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

        /// The handle against the codec, on sets of 0–40 entries of 0–64
        /// bytes each (zero-length entries included): the same length,
        /// the same bytes, equal to those bytes from either side, and
        /// read back to the set both as a handle and as parsed bytes.
        #[test]
        fn handle_matches_the_codec(
            entries in proptest::collection::btree_map(
                0u32..4096,
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..65),
                0..41,
            ),
        ) {
            let mut set = MessageSet::new();
            for (&src, data) in &entries {
                set.insert(src as usize, data);
            }
            let handle = set.to_payload();
            let bytes = set.to_bytes();
            proptest::prop_assert_eq!(handle.len(), bytes.len());
            proptest::prop_assert_eq!(handle.to_vec(), bytes.clone());
            let flat = Payload::from_slice(&bytes);
            proptest::prop_assert_eq!(&handle, &flat);
            proptest::prop_assert_eq!(&flat, &handle);
            proptest::prop_assert_eq!(MessageSet::from_payload(&handle), Some(set.clone()));
            proptest::prop_assert_eq!(MessageSet::from_payload(&flat), Some(set));
        }

        /// `merge` against a map: `held` of the 256 entries on one side,
        /// the rest incoming — 1 into 255 through 255 into 1 — with
        /// sources shared between the sides and payloads that tell the
        /// sides apart. The held side is merged twice: once in place, as
        /// the only holder of its list, and once with a snapshot still
        /// sharing that list, which must read back unchanged afterwards
        /// while the set gets the same union.
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
            let mut shared = to_set(&model);
            let snapshot = shared.to_payload();
            let frozen = shared.to_bytes();
            let absorbed = set.merge(to_set(&incoming));
            proptest::prop_assert_eq!(shared.merge(to_set(&incoming)), absorbed);
            proptest::prop_assert_eq!(&shared, &set);
            proptest::prop_assert_eq!(snapshot.to_vec(), frozen.clone());
            proptest::prop_assert_eq!(MessageSet::from_payload(&snapshot), MessageSet::from_bytes(&frozen));
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

    /// The set of `srcs`, each with an empty payload.
    fn of_sources(srcs: impl IntoIterator<Item = usize>) -> MessageSet {
        srcs.into_iter().map(|src| (src, Payload::new())).collect()
    }

    #[test]
    fn a_snapshot_allocates_only_the_handle() {
        use crate::counting_alloc::allocs;
        let set = of_sources(0..32);
        let before = allocs();
        let snapshot = set.to_payload();
        let copy = set.clone();
        assert_eq!(allocs() - before, 1, "the handle; the list is shared");
        assert!(copy.shares_entries(&set));
        assert!(MessageSet::view(&snapshot).is_some_and(|got| got.shares_entries(&set)));
    }

    #[test]
    fn adopting_allocates_nothing() {
        use crate::counting_alloc::allocs;
        let sent = of_sources(0..32);
        let mut set = MessageSet::new();
        let before = allocs();
        assert_eq!(set.merge(&sent), 0, "empty payloads");
        assert_eq!(allocs() - before, 0);
        assert!(set.shares_entries(&sent));
        // A set with room reserved fills it instead of adopting.
        let mut room = MessageSet::with_capacity(32);
        let before = allocs();
        room.merge(&sent);
        assert_eq!(allocs() - before, 0);
        assert!(!room.shares_entries(&sent));
        assert_eq!(room, sent);
    }

    #[test]
    fn merging_a_subset_allocates_nothing() {
        use crate::counting_alloc::allocs;
        let mut set = of_sources(0..32);
        let subset = of_sources((0..32).step_by(3));
        let before = allocs();
        set.merge(&subset);
        set.merge(set.clone());
        let snapshot = set.to_payload();
        set.merge(&subset);
        assert_eq!(allocs() - before, 1, "the snapshot's handle");
        assert!(MessageSet::view(&snapshot).is_some_and(|got| got.shares_entries(&set)));
    }

    #[test]
    fn a_union_into_a_shared_list_allocates_one_list() {
        use crate::counting_alloc::allocs;
        let mut set = of_sources((0..64).step_by(2));
        let snapshot = set.to_payload();
        let incoming = of_sources([1, 31, 99]);
        let before = allocs();
        set.merge(incoming);
        assert_eq!(allocs() - before, 2, "the union's buffer and its `Arc`");
        assert_eq!(set.len(), 35);
        assert!(set.sources().is_sorted());
        assert_eq!(MessageSet::view(&snapshot).map(|got| got.len()), Some(32));
    }

    #[test]
    fn merge_into_spare_capacity_allocates_nothing() {
        use crate::counting_alloc::allocs;
        let mut set = MessageSet::with_capacity(35);
        for src in (0..64).step_by(2) {
            set.insert_payload(src, Payload::new());
        }
        let [low, mid, high] = [1, 31, 99].map(|src| of_sources([src]));
        let before = allocs();
        set.merge(low);
        set.merge(mid);
        set.merge(high);
        assert_eq!(allocs() - before, 0);
        assert_eq!(set.len(), 35);
        // And the counter counts: a full list held alone has to grow.
        let one_more = of_sources([100]);
        let before = allocs();
        set.merge(one_more);
        assert!(allocs() > before);
    }

    #[test]
    fn collecting_sorts_and_keeps_the_first_pair_of_a_source() {
        let pairs = [(9, &b"nine"[..]), (2, b"two"), (9, b"late"), (5, b"five")];
        let set: MessageSet = pairs
            .iter()
            .map(|&(src, data)| (src, Payload::from_slice(data)))
            .collect();
        assert!(set.sources().eq([2, 5, 9]));
        assert_eq!(set.get(9).unwrap(), b"nine");
        assert_eq!(set.wire_bytes(), 4 + 3 * 8 + 11);
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
