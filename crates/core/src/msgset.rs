//! Combined broadcast messages.
//!
//! The merge-based algorithms of the paper combine messages whenever
//! messages from different sources meet at a processor: "subsequent steps
//! proceed with fewer messages having larger size". A [`MessageSet`] is
//! that combined object — which source messages a rank holds, as a
//! sorted list of [`Slot`]s `(source rank, message length)` — charged
//! the length of its wire format (payloads + per-entry headers), so
//! the simulator sees realistic sizes for combined messages.
//!
//! A set holds no message bytes because they carry nothing: every
//! source message is [`payload_for`]`(src, len)`, a pure function of the
//! slot, and the fault model drops, delays, cuts and crashes but never
//! corrupts. Delivery is therefore membership: a rank holds the right
//! messages exactly when its slot list is the sources' list.
//!
//! The list is one immutable vector behind an `Arc`, shared
//! copy-on-write: a clone is one reference count, and unions,
//! snapshots and drops touch plain integers. Inside the simulator a set
//! travels by handle: [`MessageSet::to_payload`] snapshots it into a
//! shared [`Payload`] value charged exactly its wire length, every
//! destination gets an `Arc` clone of it, and the receiver reads the set
//! back through [`MessageSet::view`] without parsing.
//! [`MessageSet::merge`] then adopts the sender's list when it holds
//! nothing (and has no room reserved), touches nothing when nothing is
//! new, builds the union once at its final size when a snapshot still
//! shares the held list, and merges in place when the list is its own.
//! (The *virtual-time* cost of combining is still charged explicitly by
//! the algorithms through `charge_memcpy`.)
//!
//! A source's own message, sent before anything is combined with it,
//! travels bare: [`source_message`] shares its [`Slot`] as a payload of
//! exactly its length, and the receiver reads the slot back with
//! [`Slot::of`] — from the message it got, never from the envelope's
//! sender, so a forwarded message keeps its source.
//!
//! Bytes exist only where something reads them: a handle's byte
//! accessors build its encoding on first use, [`MessageSet::to_bytes`]
//! writes it, and [`MessageSet::from_bytes`] /
//! [`MessageSet::from_payload`] parse it totally (the bytes behind the
//! header are counted, not read). Wire format (little-endian):
//!
//! ```text
//! u32 count | count × (u32 src, u32 len) | payloads back-to-back
//! ```

use std::borrow::{Borrow, Cow};
use std::sync::Arc;

use mpp_sim::{Payload, WireValue};

/// One source message as a set holds it: the source rank and the
/// message's length. The bytes are [`payload_for`]`(src, len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Slot {
    /// The source rank.
    pub src: u32,
    /// The message length, bytes.
    pub len: u32,
}

impl Slot {
    /// The slot of source `src`'s `len`-byte message.
    pub fn new(src: usize, len: usize) -> Slot {
        let narrow = |n: usize| u32::try_from(n).expect("slot field exceeds the wire's u32");
        Slot {
            src: narrow(src),
            len: narrow(len),
        }
    }

    /// The slot a [`source_message`] handle carries; `None` for any
    /// other payload. Reads the handle in place: no allocation.
    pub fn of(message: &Payload) -> Option<Slot> {
        message.value::<Slot>().copied()
    }
}

/// A bare source message travels as its slot, charged the message's
/// length; its bytes are built only if something reads them.
impl WireValue for Slot {
    fn wire_len(&self) -> usize {
        self.len as usize
    }

    fn encode(&self) -> Payload {
        Payload::from_vec(payload_for(self.src as usize, self.len as usize))
    }
}

/// Source `src`'s `len`-byte message as a shared handle: one
/// allocation here, a reference count per send, and [`Slot::of`] reads
/// the slot back.
pub fn source_message(src: usize, len: usize) -> Payload {
    Payload::from_value(Slot::new(src, len))
}

/// A set of broadcast messages keyed by source rank (sorted, unique).
///
/// The slot list is shared copy-on-write, so `clone` is one reference
/// count. `==` compares the lists, and `Arc`'s `==` finds two sets that
/// share one list equal without reading it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MessageSet {
    slots: Arc<Vec<Slot>>,
}

impl MessageSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// The empty set with room for `sources` slots, for a rank that
    /// collects many sources one message at a time: merges fill the
    /// room in place instead of adopting or regrowing a list.
    pub fn with_capacity(sources: usize) -> Self {
        MessageSet {
            slots: Arc::new(Vec::with_capacity(sources)),
        }
    }

    /// A set holding source `src`'s message of `payload.len()` bytes
    /// (the bytes themselves are not kept).
    pub fn single(src: usize, payload: &[u8]) -> Self {
        Slot::new(src, payload.len()).into()
    }

    /// Number of distinct sources held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no messages are held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Source ranks held, ascending.
    pub fn sources(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().map(|slot| slot.src as usize)
    }

    /// The slots held, ascending by source.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Total payload bytes (excluding headers).
    pub fn payload_bytes(&self) -> usize {
        self.slots.iter().map(|slot| slot.len as usize).sum()
    }

    /// Bytes of the wire encoding.
    pub fn wire_bytes(&self) -> usize {
        4 + self.slots.len() * 8 + self.payload_bytes()
    }

    /// Merge another set, owned or borrowed, into this one. Sources
    /// already present keep their slot (in s-to-p broadcasting
    /// duplicate arrivals are one message). Returns the number of *new*
    /// payload bytes absorbed. Copies slots only where the list must
    /// change:
    ///
    /// * a set that holds nothing and has no room reserved for the
    ///   other's slots adopts the other's list (one reference count);
    /// * a merge that adds no source touches nothing;
    /// * a held list that a snapshot or another set still shares is
    ///   left to them: the union is built once, at its final size;
    /// * a list held alone is merged in place: the held slots above the
    ///   lowest new source each move once, the rest stay, and the
    ///   vector grows only when its spare capacity does not cover the
    ///   new sources.
    pub fn merge(&mut self, other: impl Borrow<MessageSet>) -> usize {
        let other = other.borrow();
        let incoming = &other.slots;
        let Some(lowest) = incoming.first().map(|slot| slot.src) else {
            return 0;
        };
        if self.slots.capacity() < incoming.len() && self.is_empty() {
            self.slots = Arc::clone(incoming);
            return other.payload_bytes();
        }
        if Arc::ptr_eq(&self.slots, incoming) {
            return 0;
        }
        // Count the sources that are new: one walk over the two sorted
        // runs, begun where the incoming one begins.
        let held = &self.slots;
        let mut at = held.partition_point(|slot| slot.src < lowest);
        let mut fresh = 0;
        for new in incoming.iter() {
            while at < held.len() && held[at].src < new.src {
                at += 1;
            }
            if held.get(at).is_none_or(|slot| slot.src != new.src) {
                fresh += 1;
            }
        }
        if fresh == 0 {
            return 0;
        }
        let Some(held) = Arc::get_mut(&mut self.slots) else {
            let (union, absorbed) = union(&self.slots, incoming, fresh);
            self.slots = Arc::new(union);
            return absorbed;
        };
        // Open `fresh` places at the end and merge from the back: `i`
        // ends the held slots still to place, `gap` the free places.
        let mut i = held.len();
        held.resize(i + fresh, Slot::default());
        let mut gap = held.len();
        let mut absorbed = 0;
        for &new in incoming.iter().rev() {
            if gap == i {
                break; // every new source is placed; the rest are duplicates
            }
            while i > 0 && held[i - 1].src > new.src {
                i -= 1;
                gap -= 1;
                held[gap] = held[i];
            }
            if i == 0 || held[i - 1].src != new.src {
                gap -= 1;
                absorbed += new.len as usize;
                held[gap] = new;
            }
        }
        absorbed
    }

    /// Insert source `src`'s message of `payload.len()` bytes (no-op if
    /// the source is present; the bytes are not kept). Keeps ordering.
    pub fn insert(&mut self, src: usize, payload: &[u8]) {
        self.insert_slot(Slot::new(src, payload.len()));
    }

    /// Insert one slot (no-op if its source is present). Keeps
    /// ordering, and fills spare room in place.
    pub fn insert_slot(&mut self, slot: Slot) {
        if let Err(pos) = self.slots.binary_search_by_key(&slot.src, |held| held.src) {
            Arc::make_mut(&mut self.slots).insert(pos, slot);
        }
    }

    /// Whether the two sets share one slot list, so hold equal slots
    /// without reading them.
    pub(crate) fn shares_slots(&self, other: &MessageSet) -> bool {
        Arc::ptr_eq(&self.slots, &other.slots)
    }

    /// An identity of the shared slot list: two sets give the same
    /// value exactly when they share one list (while it is alive).
    pub fn list_id(&self) -> usize {
        Arc::as_ptr(&self.slots) as usize
    }

    /// Serialize to the wire format as an owned, contiguous buffer:
    /// the header, then each source's [`payload_for`] bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_bytes());
        out.extend_from_slice(&(self.slots.len() as u32).to_le_bytes());
        for slot in self.slots.iter() {
            out.extend_from_slice(&slot.src.to_le_bytes());
            out.extend_from_slice(&slot.len.to_le_bytes());
        }
        for slot in self.slots.iter() {
            out.extend(payload_for(slot.src as usize, slot.len as usize));
        }
        out
    }

    /// A snapshot of the set as a payload of its wire length, never
    /// encoded (see [`Payload::from_value`]): one reference to the slot
    /// list, shared by every destination it is sent to. A later merge
    /// into this set leaves the snapshot's list as it was.
    pub fn to_payload(&self) -> Payload {
        Payload::from_value(self.clone())
    }

    /// Parse the wire format from a contiguous buffer. Returns `None`
    /// on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Self::parse(&Payload::from_slice(bytes))
    }

    /// The set a payload carries: a clone of [`view`](Self::view)'s
    /// (one reference count for a handle).
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

    /// Parse the wire format: the `8·n` header fields are copied out
    /// once and the payload bytes behind them are counted against the
    /// lengths, not read. Returns `None` on malformed input.
    fn parse(wire: &Payload) -> Option<Self> {
        let mut r = wire.reader();
        let count = r.read_u32_le()? as usize;
        // `count` is the sender's claim: hold it against the bytes that
        // are really there (8 header bytes per entry) before sizing
        // anything by it.
        if count > r.remaining() / 8 {
            return None;
        }
        // The bytes are there: checked above.
        let mut fields = vec![0; count * 8];
        r.read_exact(&mut fields);
        let mut slots: Vec<Slot> = Vec::with_capacity(count);
        for field in fields.chunks_exact(8) {
            let word =
                |at: usize| u32::from_le_bytes(field[at..at + 4].try_into().expect("8-byte field"));
            let slot = Slot {
                src: word(0),
                len: word(4),
            };
            // Enforce the invariant: sorted, unique.
            if slots.last().is_some_and(|prev| prev.src >= slot.src) {
                return None;
            }
            slots.push(slot);
        }
        let body: u64 = slots.iter().map(|slot| u64::from(slot.len)).sum();
        (body == r.remaining() as u64).then(|| MessageSet {
            slots: Arc::new(slots),
        })
    }
}

impl From<Slot> for MessageSet {
    fn from(slot: Slot) -> Self {
        MessageSet {
            slots: Arc::new(vec![slot]),
        }
    }
}

/// The sorted union of two sorted slot lists, `fresh` of whose sources
/// are `incoming`'s alone, built at its final size; a source both hold
/// keeps `held`'s slot. Also returns the new sources' payload bytes.
fn union(held: &[Slot], incoming: &[Slot], fresh: usize) -> (Vec<Slot>, usize) {
    let mut out = Vec::with_capacity(held.len() + fresh);
    let mut absorbed = 0;
    let mut theirs = incoming.iter().peekable();
    for &mine in held {
        while let Some(&new) = theirs.next_if(|new| new.src < mine.src) {
            absorbed += new.len as usize;
            out.push(new);
        }
        theirs.next_if(|new| new.src == mine.src);
        out.push(mine);
    }
    for &new in theirs {
        absorbed += new.len as usize;
        out.push(new);
    }
    (out, absorbed)
}

/// A set from slots in any order; the first slot of a repeated source
/// wins, as in [`MessageSet::merge`]. Slots that arrive sorted by
/// source — an exchange's receives, or a rank that collects one source
/// per receive — are collected into one list and checked, with no
/// insert per slot.
impl FromIterator<Slot> for MessageSet {
    fn from_iter<I: IntoIterator<Item = Slot>>(slots: I) -> Self {
        let mut slots: Vec<Slot> = slots.into_iter().collect();
        // A stable sort takes a scratch buffer the size of the list.
        if !slots.is_sorted_by_key(|slot| slot.src) {
            slots.sort_by_key(|slot| slot.src);
        }
        slots.dedup_by_key(|slot| slot.src);
        MessageSet {
            slots: Arc::new(slots),
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

    /// The set of `(src, len)` slots.
    fn of_slots(slots: &[(usize, usize)]) -> MessageSet {
        slots
            .iter()
            .map(|&(src, len)| Slot::new(src, len))
            .collect()
    }

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
        // The payloads behind the header are the sources' messages.
        assert_eq!(
            &bytes[28..],
            [payload_for(1, 1), payload_for(3, 3)].concat()
        );
    }

    #[test]
    fn handle_is_read_back_without_parsing() {
        let s = of_slots(&[(3, 3), (1, 1), (7, 0)]);
        let handle = s.to_payload();
        assert_eq!(handle.len(), s.wire_bytes());
        assert!(matches!(MessageSet::view(&handle), Some(Cow::Borrowed(set)) if *set == s));
        let bytes = Payload::from_slice(&s.to_bytes());
        assert!(matches!(MessageSet::view(&bytes), Some(Cow::Owned(set)) if set == s));
    }

    #[test]
    fn a_source_message_is_its_slot_charged_its_length() {
        let message = source_message(9, 40);
        assert_eq!(message.len(), 40);
        assert_eq!(Slot::of(&message), Some(Slot::new(9, 40)));
        assert_eq!(Slot::of(&Payload::from_slice(&payload_for(9, 40))), None);
        assert_eq!(
            Slot::of(&MessageSet::from(Slot::new(9, 40)).to_payload()),
            None
        );
        // Its bytes, when read, are the message.
        assert_eq!(message, payload_for(9, 40));
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
        let b = of_slots(&[(2, 3), (1, 3)]);
        let absorbed = a.merge(b);
        assert_eq!(absorbed, 3); // only source 2 is new
        assert_eq!(a.slots(), [Slot::new(1, 3), Slot::new(2, 3)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// The handle against the codec, on sets of 0–40 slots of 0–64
        /// bytes each (zero-length slots included): the same length,
        /// the same bytes, equal to those bytes from either side, and
        /// read back to the set both as a handle and as parsed bytes.
        #[test]
        fn handle_matches_the_codec(
            entries in proptest::collection::btree_map(0u32..4096, 0usize..65, 0..41),
        ) {
            let set: MessageSet = entries
                .iter()
                .map(|(&src, &len)| Slot::new(src as usize, len))
                .collect();
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

        /// `merge` on slot lists against a `BTreeMap` union: `held` of
        /// the 256 slots on one side, the rest incoming — 1 into 255
        /// through 255 into 1 — with sources shared between the sides
        /// and lengths that tell the sides apart. The held side is
        /// merged twice: once in place, as the only holder of its list,
        /// and once with a snapshot still sharing that list, which must
        /// read back unchanged afterwards while the set gets the same
        /// union.
        #[test]
        fn merge_matches_a_map_union(
            held in 1usize..256,
            pool in proptest::collection::vec(0u32..512, 640),
        ) {
            use std::collections::BTreeMap;
            let side = |keys: &mut dyn Iterator<Item = &u32>, n: usize, base: u32| {
                let mut map = BTreeMap::new();
                for &k in keys {
                    if map.len() < n {
                        map.insert(k, base + k % 5);
                    }
                }
                map
            };
            let mut model = side(&mut pool.iter(), held, 100);
            let incoming = side(&mut pool.iter().rev(), 256 - held, 200);
            proptest::prop_assert_eq!((model.len(), incoming.len()), (held, 256 - held));
            let to_set = |map: &BTreeMap<u32, u32>| -> MessageSet {
                map.iter().map(|(&src, &len)| Slot { src, len }).collect()
            };
            let mut set = to_set(&model);
            let mut shared = to_set(&model);
            let snapshot = shared.to_payload();
            let frozen = shared.slots().to_vec();
            let absorbed = set.merge(to_set(&incoming));
            proptest::prop_assert_eq!(shared.merge(to_set(&incoming)), absorbed);
            proptest::prop_assert_eq!(&shared, &set);
            let live = MessageSet::view(&snapshot).expect("a snapshot is a set");
            proptest::prop_assert_eq!(live.slots(), &frozen[..]);
            let mut fresh_bytes = 0;
            for (src, len) in incoming {
                if let std::collections::btree_map::Entry::Vacant(slot) = model.entry(src) {
                    fresh_bytes += len as usize;
                    slot.insert(len);
                }
            }
            proptest::prop_assert_eq!(absorbed, fresh_bytes);
            // Sorted and unique, slot for slot the model's; a shared
            // source keeps the held side's length.
            let want: Vec<Slot> = model.iter().map(|(&src, &len)| Slot { src, len }).collect();
            proptest::prop_assert_eq!(set.slots(), &want[..]);
        }
    }

    /// The set of `srcs`, each with an empty message.
    fn of_sources(srcs: impl IntoIterator<Item = usize>) -> MessageSet {
        srcs.into_iter().map(|src| Slot::new(src, 0)).collect()
    }

    #[test]
    fn a_snapshot_allocates_only_the_handle() {
        use crate::counting_alloc::allocs;
        let set = of_sources(0..32);
        let before = allocs();
        let snapshot = set.to_payload();
        let copy = set.clone();
        assert_eq!(allocs() - before, 1, "the handle; the list is shared");
        assert!(copy.shares_slots(&set));
        assert!(MessageSet::view(&snapshot).is_some_and(|got| got.shares_slots(&set)));
    }

    #[test]
    fn reading_a_source_message_allocates_nothing() {
        use crate::counting_alloc::allocs;
        let message = source_message(5, 64);
        let before = allocs();
        let copies: [Payload; 4] = std::array::from_fn(|_| message.clone());
        assert!(copies.iter().all(|m| Slot::of(m) == Some(Slot::new(5, 64))));
        assert_eq!(allocs() - before, 0);
    }

    #[test]
    fn adopting_allocates_nothing() {
        use crate::counting_alloc::allocs;
        let sent = of_sources(0..32);
        let mut set = MessageSet::new();
        let before = allocs();
        assert_eq!(set.merge(&sent), 0, "empty messages");
        assert_eq!(allocs() - before, 0);
        assert!(set.shares_slots(&sent));
        // A set with room reserved fills it instead of adopting.
        let mut room = MessageSet::with_capacity(32);
        let before = allocs();
        room.merge(&sent);
        assert_eq!(allocs() - before, 0);
        assert!(!room.shares_slots(&sent));
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
        assert!(MessageSet::view(&snapshot).is_some_and(|got| got.shares_slots(&set)));
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
            set.insert(src, &[]);
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
    fn collecting_sorts_and_keeps_the_first_slot_of_a_source() {
        let set = of_slots(&[(9, 4), (2, 3), (9, 7), (5, 4)]);
        assert_eq!(
            set.slots(),
            [Slot::new(2, 3), Slot::new(5, 4), Slot::new(9, 4)]
        );
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
        let sets = vec![
            MessageSet::new(),
            MessageSet::single(7, b"data"),
            of_slots(&[(3, 3), (1, 1), (7, 0)]),
            of_slots(&(0..16).map(|src| (src, 40)).collect::<Vec<_>>()),
        ];
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
