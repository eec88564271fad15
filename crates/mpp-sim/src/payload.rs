//! Shared-ownership message payloads (the zero-copy message path).
//!
//! A [`Payload`] is a *rope*: an ordered list of segments, each a
//! `(backing, start, len)` view into immutable shared storage. The
//! operations the broadcast algorithms are built from — forwarding a
//! received message, combining `k` message sets into one, slicing a
//! combined set back apart — become O(segments) pointer pushes instead
//! of O(total bytes) memcpy:
//!
//! * [`Payload::clone`] clones shared pointers, never bytes.
//! * [`Payload::append`] / [`Payload::push_payload`] splice segment
//!   lists.
//! * [`Payload::slice`] re-slices existing segments.
//!
//! Bytes are only copied at the boundary where contiguous storage is
//! genuinely required ([`Payload::from_slice`], [`Payload::to_vec`]).
//! Every such copy is counted in process-global [`copy_metrics`], which
//! the benchmarks and the zero-copy regression tests read to prove the
//! fast path stays fast.
//!
//! # Shared values
//!
//! A payload can also be a [`WireValue`] shared by `Arc`
//! ([`Payload::from_value`]): a structured message (a combined message
//! set) that travels as itself and is charged its exact wire length.
//! Sending it to `k` destinations is `k` reference-count increments —
//! no encode, no rope node per destination — and the receiver takes the
//! value back with [`Payload::value`]. Every byte accessor stays total:
//! the first one that reads a value's bytes builds its encoding and
//! keeps it, so a value and its bytes are interchangeable to any reader.
//! The simulated message path never reads them.
//!
//! # Backing-store arenas
//!
//! Payload construction ([`Payload::from_slice`] / [`Payload::from_vec`])
//! copies bytes into a *thread-local bump arena*: a chain of fixed-size
//! chunks shared by `Arc`. A fresh heap allocation (counted in
//! [`CopyMetrics::allocs`]) happens only when a chunk fills; retired
//! chunks whose payloads have all been dropped are reset and reused, so
//! a steady-state experiment allocates (nearly) nothing per run. The
//! arena is per-thread, which also pins each sweep worker to its own
//! arena — parallel sweeps never contend on a shared allocator for
//! payload storage.
//!
//! Single-segment payloads are stored inline (no `Vec` of segments);
//! multi-segment ropes draw their segment vectors from a thread-local
//! pool that [`Payload`]'s `Drop` refills, so rope nodes are recycled
//! rather than reallocated.

use std::any::Any;
#[cfg(test)]
use std::borrow::Cow;
use std::cell::RefCell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

static BYTES_COPIED: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Process-wide copy accounting for the payload layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyMetrics {
    /// Total bytes physically memcpy'd through payload APIs.
    pub bytes_copied: u64,
    /// Number of fresh backing-store allocations (arena chunks and
    /// dedicated buffers; arena-chunk *reuse* is free).
    pub allocs: u64,
}

/// Snapshot the global copy counters.
pub fn copy_metrics() -> CopyMetrics {
    CopyMetrics {
        bytes_copied: BYTES_COPIED.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
    }
}

impl CopyMetrics {
    /// Counter movement since an earlier snapshot.
    pub fn since(&self, earlier: &CopyMetrics) -> CopyMetrics {
        CopyMetrics {
            bytes_copied: self.bytes_copied.wrapping_sub(earlier.bytes_copied),
            allocs: self.allocs.wrapping_sub(earlier.allocs),
        }
    }
}

fn note_copied(bytes: usize) {
    BYTES_COPIED.fetch_add(bytes as u64, Ordering::Relaxed);
    #[cfg(test)]
    tests::note_on_this_thread(bytes as u64, 0);
}

fn note_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    tests::note_on_this_thread(0, 1);
}

// ---------------------------------------------------------------------
// Bump-arena backing store
// ---------------------------------------------------------------------

/// Bytes per arena chunk. Large enough that a typical experiment's
/// traffic fits in a handful of chunks; small enough that a retired
/// chunk pinned by one long-lived payload wastes little.
const CHUNK_BYTES: usize = 256 * 1024;

/// Payloads above this size get a dedicated exactly-sized chunk instead
/// of a slot in the shared chunk (they would evict too much bump space).
const DEDICATED_LIMIT: usize = CHUNK_BYTES / 4;

/// A fixed-capacity raw buffer. Frozen regions (below the owning
/// arena's bump offset) are immutable and read concurrently through
/// [`Segment`]s; the region at and above the offset is written only by
/// the one thread whose arena owns this chunk. All access is through
/// raw pointers derived from the original allocation, so disjoint
/// reads and writes never invalidate each other.
struct Chunk {
    ptr: NonNull<u8>,
    cap: usize,
}

// Readers only touch frozen (never-again-written) regions and the
// owning thread only writes unfrozen ones, so cross-thread sharing of
// disjoint ranges is sound.
unsafe impl Send for Chunk {}
unsafe impl Sync for Chunk {}

impl Chunk {
    fn new(cap: usize) -> Chunk {
        debug_assert!(cap > 0);
        note_alloc();
        let layout = std::alloc::Layout::array::<u8>(cap).expect("chunk layout");
        // SAFETY: `cap > 0`, so the layout is non-zero-sized.
        let raw = unsafe { std::alloc::alloc(layout) };
        let ptr = NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        Chunk { ptr, cap }
    }

    /// Shared view of a frozen range.
    ///
    /// # Safety
    /// The range must be frozen: fully written before any `Arc` clone
    /// of this chunk escaped with a segment covering it, and never
    /// written again until the chunk is reset with no segments alive.
    #[inline]
    unsafe fn frozen(&self, start: usize, len: usize) -> &[u8] {
        debug_assert!(start + len <= self.cap);
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().add(start), len) }
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        let layout = std::alloc::Layout::array::<u8>(self.cap).expect("chunk layout");
        // SAFETY: allocated in `Chunk::new` with the same layout.
        unsafe { std::alloc::dealloc(self.ptr.as_ptr(), layout) };
    }
}

/// Thread-local bump arena: one open chunk plus a pool of retired ones
/// awaiting reuse.
struct Arena {
    cur: Option<Arc<Chunk>>,
    used: usize,
    retired: Vec<Arc<Chunk>>,
}

/// Cap on retired chunks kept per thread (beyond this they are freed).
const RETIRED_KEEP: usize = 8;

impl Arena {
    const fn new() -> Arena {
        Arena {
            cur: None,
            used: 0,
            retired: Vec::new(),
        }
    }

    /// Copy `data` into arena storage and return a segment viewing it.
    fn store(&mut self, data: &[u8]) -> Segment {
        let len = data.len();
        debug_assert!(len > 0);
        if len > DEDICATED_LIMIT {
            let chunk = Arc::new(Chunk::new(len));
            // SAFETY: freshly allocated, no other reference exists.
            unsafe {
                std::ptr::copy_nonoverlapping(data.as_ptr(), chunk.ptr.as_ptr(), len);
            }
            return Segment {
                data: Backing::Arena(chunk),
                start: 0,
                len,
            };
        }
        let start = self.reserve(len);
        let chunk = self.cur.as_ref().expect("reserve leaves an open chunk");
        // SAFETY: `reserve` handed out a bump range no live segment
        // covers; `data` cannot alias it (unfrozen bytes are never
        // exposed). Disjoint raw-pointer writes don't disturb readers.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), chunk.ptr.as_ptr().add(start), len);
        }
        Segment {
            data: Backing::Arena(Arc::clone(chunk)),
            start,
            len,
        }
    }

    /// Bump-allocate `len` bytes; returns the start offset in `self.cur`.
    fn reserve(&mut self, len: usize) -> usize {
        if let Some(cur) = &self.cur {
            if cur.cap - self.used >= len {
                let start = self.used;
                self.used += len;
                return start;
            }
            let full = Arc::clone(cur);
            self.retired.push(full);
        }
        // Reuse a retired chunk whose payloads have all been dropped
        // (we hold the only reference), else allocate a fresh one.
        let mut reused = None;
        for i in 0..self.retired.len() {
            if Arc::strong_count(&self.retired[i]) == 1 {
                reused = Some(self.retired.swap_remove(i));
                break;
            }
        }
        if self.retired.len() > RETIRED_KEEP {
            // Everything still pinned by live payloads: stop tracking
            // the oldest (it frees itself when its payloads drop).
            self.retired.remove(0);
        }
        self.cur = Some(reused.unwrap_or_else(|| Arc::new(Chunk::new(CHUNK_BYTES))));
        self.used = len;
        0
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = const { RefCell::new(Arena::new()) };
    /// Recycled (empty) segment vectors for multi-segment ropes.
    static SEG_POOL: RefCell<Vec<Vec<Segment>>> = const { RefCell::new(Vec::new()) };
}

/// Cap on pooled segment vectors per thread.
const SEG_POOL_KEEP: usize = 256;

fn pooled_vec(capacity: usize) -> Vec<Segment> {
    SEG_POOL.with_borrow_mut(|pool| {
        let mut v = pool.pop().unwrap_or_default();
        v.reserve(capacity);
        v
    })
}

fn recycle_vec(mut v: Vec<Segment>) {
    v.clear();
    SEG_POOL.with_borrow_mut(|pool| {
        if pool.len() < SEG_POOL_KEEP {
            pool.push(v);
        }
    });
}

// ---------------------------------------------------------------------
// Segments and the rope
// ---------------------------------------------------------------------

#[derive(Clone)]
enum Backing {
    /// Caller-provided shared storage ([`Payload::from_arc`]).
    Shared(Arc<[u8]>),
    /// A range of an arena chunk.
    Arena(Arc<Chunk>),
}

#[derive(Clone)]
struct Segment {
    data: Backing,
    start: usize,
    len: usize,
}

impl Segment {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match &self.data {
            Backing::Shared(arc) => &arc[self.start..self.start + self.len],
            // SAFETY: segments only ever view frozen arena ranges.
            Backing::Arena(chunk) => unsafe { chunk.frozen(self.start, self.len) },
        }
    }
}

/// A value that travels as a [`Payload`] without being encoded: it
/// knows the length of its wire encoding and can produce that encoding
/// on demand. See [`Payload::from_value`].
pub trait WireValue: Any + Send + Sync {
    /// Bytes of the encoding.
    fn wire_len(&self) -> usize;
    /// The encoding, exactly [`wire_len`](Self::wire_len) bytes.
    fn encode(&self) -> Payload;
}

/// A shared value and its encoding, built the first time a byte
/// accessor asks for it.
struct Shared<T: ?Sized> {
    wire: OnceLock<Payload>,
    value: T,
}

impl Shared<dyn WireValue> {
    fn encoded(&self) -> &Payload {
        self.wire.get_or_init(|| {
            let wire = self.value.encode();
            assert!(
                !matches!(wire.segs, Segs::Value(_)) && wire.len == self.value.wire_len(),
                "a value's encoding is bytes of its wire length"
            );
            wire
        })
    }
}

/// Segment storage: single segments are inline (no heap node), ropes
/// spill to a pooled `Vec`, and a shared value is one `Arc` whose
/// segments are those of its encoding.
enum Segs {
    Zero,
    One(Segment),
    Many(Vec<Segment>),
    Value(Arc<Shared<dyn WireValue>>),
}

impl Segs {
    #[inline]
    fn as_slice(&self) -> &[Segment] {
        match self {
            Segs::Zero => &[],
            Segs::One(seg) => std::slice::from_ref(seg),
            Segs::Many(v) => v,
            Segs::Value(shared) => shared.encoded().segs.as_slice(),
        }
    }

    fn push(&mut self, seg: Segment) {
        match self {
            Segs::Zero => *self = Segs::One(seg),
            Segs::Value(_) => {
                let mut v = pooled_vec(4);
                v.extend(self.as_slice().iter().cloned());
                v.push(seg);
                *self = Segs::Many(v);
            }
            Segs::One(_) => {
                let Segs::One(first) = std::mem::replace(self, Segs::Zero) else {
                    unreachable!()
                };
                let mut v = pooled_vec(4);
                v.push(first);
                v.push(seg);
                *self = Segs::Many(v);
            }
            Segs::Many(v) => v.push(seg),
        }
    }
}

impl Clone for Segs {
    fn clone(&self) -> Segs {
        match self {
            Segs::Zero => Segs::Zero,
            Segs::One(seg) => Segs::One(seg.clone()),
            Segs::Many(v) => {
                let mut out = pooled_vec(v.len());
                out.extend(v.iter().cloned());
                Segs::Many(out)
            }
            Segs::Value(shared) => Segs::Value(Arc::clone(shared)),
        }
    }
}

/// An immutable byte string with shared ownership and O(1)-per-segment
/// structural operations. See the module docs.
#[derive(Clone)]
pub struct Payload {
    segs: Segs,
    len: usize,
}

// Return multi-segment rope nodes to the thread-local pool instead of
// freeing them. `Segs` itself has no `Drop` impl, so the replaced-out
// value drops without re-entering this.
impl Drop for Payload {
    fn drop(&mut self) {
        if let Segs::Many(v) = std::mem::replace(&mut self.segs, Segs::Zero) {
            recycle_vec(v);
        }
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::new()
    }
}

impl Payload {
    /// The empty payload.
    pub fn new() -> Self {
        Payload {
            segs: Segs::Zero,
            len: 0,
        }
    }

    /// Wrap an owned buffer. The bytes are copied into the thread's
    /// payload arena (counted as one copy); the `Vec` is dropped.
    pub fn from_vec(v: Vec<u8>) -> Self {
        Payload::from_slice(&v)
    }

    /// Copy a borrowed slice into shared arena storage.
    pub fn from_slice(data: &[u8]) -> Self {
        if data.is_empty() {
            return Payload::new();
        }
        note_copied(data.len());
        let seg = ARENA.with_borrow_mut(|a| a.store(data));
        Payload {
            len: seg.len,
            segs: Segs::One(seg),
        }
    }

    /// Wrap existing shared storage without copying.
    pub fn from_arc(data: Arc<[u8]>) -> Self {
        let len = data.len();
        if len == 0 {
            return Payload::new();
        }
        Payload {
            segs: Segs::One(Segment {
                data: Backing::Shared(data),
                start: 0,
                len,
            }),
            len,
        }
    }

    /// Share `value` as a payload of its wire length without encoding
    /// it: one allocation here, and a clone is one `Arc` increment.
    /// Every byte accessor ([`chunks`](Self::chunks),
    /// [`to_vec`](Self::to_vec), `==`, [`reader`](Self::reader),
    /// [`slice`](Self::slice), appending it) sees the encoding, which
    /// is built on first use and kept.
    pub fn from_value<T: WireValue>(value: T) -> Self {
        let len = value.wire_len();
        let shared: Arc<Shared<dyn WireValue>> = Arc::new(Shared {
            wire: OnceLock::new(),
            value,
        });
        Payload {
            segs: Segs::Value(shared),
            len,
        }
    }

    /// The value a [`from_value`](Self::from_value) payload shares,
    /// when it is a `T`; `None` for bytes.
    pub fn value<T: WireValue>(&self) -> Option<&T> {
        match &self.segs {
            Segs::Value(shared) => (&shared.value as &dyn Any).downcast_ref(),
            _ => None,
        }
    }

    /// Total byte length.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of rope segments (1 means contiguous).
    #[cfg(test)]
    fn segment_count(&self) -> usize {
        self.segs.as_slice().len()
    }

    /// Append another payload by reference: O(segments of `other`)
    /// pointer clones, zero byte copies.
    pub fn push_payload(&mut self, other: &Payload) {
        for seg in other.segs.as_slice() {
            self.segs.push(seg.clone());
        }
        self.len += other.len;
    }

    /// Append an owned payload: splices the segment list, zero copies.
    pub fn append(&mut self, mut other: Payload) {
        self.len += other.len;
        match std::mem::replace(&mut other.segs, Segs::Zero) {
            Segs::Zero => {}
            Segs::One(seg) => self.segs.push(seg),
            Segs::Many(v) => {
                if matches!(self.segs, Segs::Zero) {
                    self.segs = Segs::Many(v);
                } else {
                    for seg in &v {
                        self.segs.push(seg.clone());
                    }
                    recycle_vec(v);
                }
            }
            Segs::Value(shared) => {
                if matches!(self.segs, Segs::Zero) {
                    self.segs = Segs::Value(shared);
                } else {
                    for seg in shared.encoded().segs.as_slice() {
                        self.segs.push(seg.clone());
                    }
                }
            }
        }
    }

    /// Zero-copy sub-range view. O(segments).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> Payload {
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} of {} bytes",
            self.len
        );
        let mut out = Payload::new();
        let mut pos = 0usize;
        for seg in self.segs.as_slice() {
            let seg_end = pos + seg.len;
            if seg_end > start && pos < end {
                let from = start.max(pos) - pos;
                let to = end.min(seg_end) - pos;
                out.segs.push(Segment {
                    data: seg.data.clone(),
                    start: seg.start + from,
                    len: to - from,
                });
                out.len += to - from;
            }
            pos = seg_end;
            if pos >= end {
                break;
            }
        }
        out
    }

    /// Iterate the rope's contiguous chunks in order.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.segs.as_slice().iter().map(|s| s.bytes())
    }

    /// Materialize into an owned `Vec` (copies all bytes).
    pub fn to_vec(&self) -> Vec<u8> {
        if self.len > 0 {
            note_copied(self.len);
            note_alloc();
        }
        let mut out = Vec::with_capacity(self.len);
        for seg in self.segs.as_slice() {
            out.extend_from_slice(seg.bytes());
        }
        out
    }

    /// A contiguous view: borrows when the rope is a single segment,
    /// otherwise materializes a copy.
    #[cfg(test)]
    fn contiguous(&self) -> Cow<'_, [u8]> {
        match self.segs.as_slice() {
            [] => Cow::Borrowed(&[]),
            [one] => Cow::Borrowed(one.bytes()),
            _ => Cow::Owned(self.to_vec()),
        }
    }

    /// Sequential reader over the rope (used by wire-format parsers).
    pub fn reader(&self) -> PayloadReader<'_> {
        PayloadReader {
            payload: self,
            pos: 0,
            seg: 0,
            seg_off: 0,
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.segs {
            Segs::Value(_) => write!(f, "Payload({} bytes, shared value)", self.len),
            segs => write!(
                f,
                "Payload({} bytes, {} segs)",
                self.len,
                segs.as_slice().len()
            ),
        }
    }
}

/// Byte equality of two chunk sequences, whatever their segmentation:
/// the overlapping run of the two current chunks is compared as one
/// slice (a `memcmp`), then both sides advance by that run. Empty
/// chunks are skipped; a side that runs out first is shorter. A run
/// whose two sides start at the same address is one slice read twice,
/// so it is equal without being read: equality is still decided by
/// the bytes, and bytes at one address are equal to themselves.
fn chunks_eq<'a>(
    mut a: impl Iterator<Item = &'a [u8]>,
    mut b: impl Iterator<Item = &'a [u8]>,
) -> bool {
    let (mut x, mut y): (&[u8], &[u8]) = (&[], &[]);
    loop {
        if x.is_empty() {
            x = a.find(|c| !c.is_empty()).unwrap_or_default();
        }
        if y.is_empty() {
            y = b.find(|c| !c.is_empty()).unwrap_or_default();
        }
        let n = x.len().min(y.len());
        if n == 0 {
            return x.is_empty() && y.is_empty();
        }
        if x.as_ptr() != y.as_ptr() && x[..n] != y[..n] {
            return false;
        }
        (x, y) = (&x[n..], &y[n..]);
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.len == other.len && chunks_eq(self.chunks(), other.chunks())
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.len == other.len() && chunks_eq(self.chunks(), std::iter::once(other))
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self == other.as_slice()
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self == other.as_slice()
    }
}

// Accessors like `MessageSet::get` hand out `&Payload`; std's blanket
// `&A == &B` impl doesn't cover `&Payload == Vec<u8>`, so spell it out.
impl PartialEq<Vec<u8>> for &Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self == other.as_slice()
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        other == self.as_slice()
    }
}

impl PartialEq<Payload> for [u8] {
    fn eq(&self, other: &Payload) -> bool {
        other == self
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::from_vec(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Self {
        Payload::from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(s: &[u8; N]) -> Self {
        Payload::from_slice(s)
    }
}

impl From<Arc<[u8]>> for Payload {
    fn from(a: Arc<[u8]>) -> Self {
        Payload::from_arc(a)
    }
}

/// Cursor over a [`Payload`]; header reads copy only the bytes asked
/// for, sub-payload reads are zero-copy slices.
///
/// The cursor tracks its position as a `(segment index, offset)` pair,
/// so a strictly-forward parse is O(total segments) overall — each read
/// resumes where the previous one stopped instead of rescanning the
/// rope from the front (which made wire parses of n-entry message sets
/// quadratic in the segment count).
pub struct PayloadReader<'a> {
    payload: &'a Payload,
    pos: usize,
    /// Segment containing `pos` (== segment count when exhausted).
    seg: usize,
    /// Byte offset of `pos` within that segment.
    seg_off: usize,
}

impl PayloadReader<'_> {
    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.payload.len - self.pos
    }

    /// Read `buf.len()` bytes into `buf`. Returns false (consuming
    /// nothing) if not enough bytes remain.
    pub fn read_exact(&mut self, buf: &mut [u8]) -> bool {
        if self.remaining() < buf.len() {
            return false;
        }
        let segs = self.payload.segs.as_slice();
        let mut written = 0usize;
        let (mut seg, mut seg_off) = (self.seg, self.seg_off);
        while written < buf.len() {
            let bytes = segs[seg].bytes();
            let want = (buf.len() - written).min(bytes.len() - seg_off);
            buf[written..written + want].copy_from_slice(&bytes[seg_off..seg_off + want]);
            written += want;
            seg_off += want;
            if seg_off == bytes.len() {
                seg += 1;
                seg_off = 0;
            }
        }
        self.pos += buf.len();
        self.seg = seg;
        self.seg_off = seg_off;
        true
    }

    /// Read a little-endian u32, or None if exhausted.
    pub fn read_u32_le(&mut self) -> Option<u32> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b).then(|| u32::from_le_bytes(b))
    }

    /// Step over the next `n` bytes. Returns false (consuming nothing)
    /// if fewer remain.
    pub fn skip(&mut self, n: usize) -> bool {
        if self.remaining() < n {
            return false;
        }
        let segs = self.payload.segs.as_slice();
        let mut need = n;
        while need > 0 {
            let take = need.min(segs[self.seg].len - self.seg_off);
            need -= take;
            self.seg_off += take;
            if self.seg_off == segs[self.seg].len {
                self.seg += 1;
                self.seg_off = 0;
            }
        }
        self.pos += n;
        true
    }

    /// Take the next `n` bytes as a zero-copy sub-payload, or None if
    /// fewer remain.
    pub fn take_payload(&mut self, n: usize) -> Option<Payload> {
        if self.remaining() < n {
            return None;
        }
        if n == 0 {
            return Some(Payload::new());
        }
        let segs = self.payload.segs.as_slice();
        let mut out = Payload::new();
        let (mut seg, mut seg_off) = (self.seg, self.seg_off);
        let mut need = n;
        while need > 0 {
            let s = &segs[seg];
            let take = need.min(s.len - seg_off);
            out.segs.push(Segment {
                data: s.data.clone(),
                start: s.start + seg_off,
                len: take,
            });
            out.len += take;
            need -= take;
            seg_off += take;
            if seg_off == s.len {
                seg += 1;
                seg_off = 0;
            }
        }
        self.pos += n;
        self.seg = seg;
        self.seg_off = seg_off;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The copy counters are process-global and every test of this
    // binary that builds a payload moves them, so the tests below assert
    // on this thread's share instead: the arena is per-thread too, and
    // nothing another test does can reach either.
    thread_local! {
        static THREAD_METRICS: std::cell::Cell<(u64, u64)> =
            const { std::cell::Cell::new((0, 0)) };
    }

    pub(super) fn note_on_this_thread(bytes: u64, allocs: u64) {
        THREAD_METRICS.with(|m| m.set((m.get().0 + bytes, m.get().1 + allocs)));
    }

    /// [`super::copy_metrics`], counting this thread's payload work only.
    fn copy_metrics() -> CopyMetrics {
        let (bytes_copied, allocs) = THREAD_METRICS.with(|m| m.get());
        CopyMetrics {
            bytes_copied,
            allocs,
        }
    }

    #[test]
    fn rope_concat_is_zero_copy() {
        let a = Payload::from_slice(b"hello ");
        let b = Payload::from_slice(b"world");
        let before = copy_metrics();
        let mut c = a.clone();
        c.push_payload(&b);
        let d = c.clone();
        let delta = copy_metrics().since(&before);
        assert_eq!(delta.bytes_copied, 0, "clone/concat must not copy bytes");
        assert_eq!(d, b"hello world");
        assert_eq!(d.len(), 11);
        assert_eq!(d.segment_count(), 2);
    }

    #[test]
    fn slice_respects_segment_boundaries() {
        let mut p = Payload::from_slice(b"abcd");
        p.push_payload(&Payload::from_slice(b"efgh"));
        p.push_payload(&Payload::from_slice(b"ijkl"));
        assert_eq!(p.slice(0, 12), *b"abcdefghijkl");
        assert_eq!(p.slice(2, 10), b"cdefghij");
        assert_eq!(p.slice(4, 8), b"efgh");
        assert_eq!(p.slice(5, 5).len(), 0);
        let before = copy_metrics();
        let _ = p.slice(1, 11);
        assert_eq!(copy_metrics().since(&before).bytes_copied, 0);
    }

    #[test]
    fn reader_spans_segments() {
        let mut p = Payload::new();
        p.push_payload(&Payload::from_slice(&7u32.to_le_bytes()[..2]));
        p.push_payload(&Payload::from_slice(&7u32.to_le_bytes()[2..]));
        p.push_payload(&Payload::from_slice(b"payload"));
        let mut r = p.reader();
        assert_eq!(r.read_u32_le(), Some(7));
        let body = r.take_payload(7).unwrap();
        assert_eq!(body, b"payload");
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.read_u32_le(), None);
        // A length off the wire is checked against what remains before
        // anything is built from it.
        assert!(p.reader().take_payload(usize::MAX).is_none());
    }

    #[test]
    fn skip_spans_segments() {
        let mut p = Payload::from_slice(b"ab");
        p.push_payload(&Payload::from_slice(b"cde"));
        p.push_payload(&Payload::from_slice(b"fg"));
        let mut r = p.reader();
        assert!(r.skip(3));
        assert_eq!(r.take_payload(2).unwrap(), b"de");
        assert!(!r.skip(3), "only two bytes remain");
        assert_eq!(r.remaining(), 2);
        assert!(r.skip(2));
        assert_eq!(r.remaining(), 0);
        assert!(r.skip(0));
    }

    #[test]
    fn equality_ignores_segmentation() {
        let flat = Payload::from_slice(b"xyzw");
        let mut rope = Payload::from_slice(b"xy");
        rope.push_payload(&Payload::from_slice(b"zw"));
        assert_eq!(flat, rope);
        assert_eq!(rope, b"xyzw");
        assert_eq!(rope, vec![b'x', b'y', b'z', b'w']);
        assert_ne!(rope, b"xyzv");
        assert_ne!(rope, b"xyz");
    }

    #[test]
    fn runs_at_one_address_are_equal_and_the_rest_are_read() {
        let one = Payload::from_slice(b"abcdabgh");
        // Two clones of one payload.
        assert_eq!(one.clone(), one);
        // Two segmentations of the same storage.
        let mut halves = one.slice(0, 3);
        halves.push_payload(&one.slice(3, 8));
        let mut thirds = one.slice(0, 5);
        thirds.push_payload(&one.slice(5, 6));
        thirds.push_payload(&one.slice(6, 8));
        assert_eq!(halves, thirds);
        assert_eq!(halves, one);
        // Two slices of one chunk at different offsets: read, so equal
        // bytes are equal and different bytes are not.
        assert_eq!(one.slice(0, 2), one.slice(4, 6));
        assert_ne!(one.slice(0, 4), one.slice(4, 8));
        // A prefix starts at the payload's own address but is shorter.
        assert_ne!(one.slice(0, 7), one);
        assert_ne!(one, one.slice(0, 7));
        // A rope that shares its first run with the payload and then
        // leaves it is read past that run.
        let mut forked = one.slice(0, 4);
        forked.push_payload(&Payload::from_slice(b"abgX"));
        assert_ne!(forked, one);
        // A byte-equal copy in other storage, then one byte flipped.
        let copy = Payload::from_slice(b"abcdabgh");
        assert_eq!(copy, one);
        assert_eq!(one, copy);
        let flipped = Payload::from_slice(b"abcdabgX");
        assert_ne!(flipped, one);
        assert_ne!(one, flipped);
    }

    #[test]
    fn to_vec_counts_the_copy() {
        let p = Payload::from_slice(&[9u8; 100]);
        let before = copy_metrics();
        let v = p.to_vec();
        let delta = copy_metrics().since(&before);
        assert_eq!(v.len(), 100);
        assert!(delta.bytes_copied >= 100);
    }

    #[test]
    fn contiguous_borrows_single_segment() {
        let p = Payload::from_slice(b"one-seg");
        let before = copy_metrics();
        assert!(matches!(p.contiguous(), Cow::Borrowed(b"one-seg")));
        assert_eq!(copy_metrics().since(&before).bytes_copied, 0);
    }

    #[test]
    fn from_arc_is_zero_copy_and_alloc_free() {
        let storage: Arc<[u8]> = Arc::from(&b"shared"[..]);
        let before = copy_metrics();
        let p = Payload::from_arc(Arc::clone(&storage));
        let delta = copy_metrics().since(&before);
        assert_eq!(delta.bytes_copied, 0);
        assert_eq!(delta.allocs, 0);
        assert_eq!(p, b"shared");
    }

    #[test]
    fn arena_reuses_chunks_across_generations() {
        // Warm the arena, drop everything, and check that a second
        // wave of payloads allocates no fresh chunks.
        let warm: Vec<Payload> = (0..64).map(|_| Payload::from_slice(&[7u8; 512])).collect();
        drop(warm);
        let before = copy_metrics();
        let wave: Vec<Payload> = (0..64).map(|_| Payload::from_slice(&[8u8; 512])).collect();
        let delta = copy_metrics().since(&before);
        assert_eq!(
            delta.allocs, 0,
            "retired chunks must be reused, not reallocated"
        );
        assert!(wave.iter().all(|p| p == &[8u8; 512][..]));
    }

    #[test]
    fn oversized_payloads_get_dedicated_chunks() {
        let big = vec![3u8; DEDICATED_LIMIT + 1];
        let before = copy_metrics();
        let p = Payload::from_slice(&big);
        let delta = copy_metrics().since(&before);
        assert_eq!(delta.bytes_copied as usize, big.len());
        assert_eq!(delta.allocs, 1, "one dedicated chunk");
        assert_eq!(p, *big.as_slice());
    }

    #[test]
    fn chunk_contents_survive_arena_turnover() {
        // A payload must keep its bytes while the arena moves on to
        // fresh chunks and reuses old ones.
        let keeper = Payload::from_slice(&[0xAA; 1000]);
        for _ in 0..(2 * CHUNK_BYTES / 1000) {
            let _ = Payload::from_slice(&[0xBB; 1000]);
        }
        assert_eq!(keeper, &[0xAA; 1000][..]);
    }

    #[test]
    fn append_and_clone_recycle_rope_nodes() {
        let mut a = Payload::from_slice(b"aa");
        a.append(Payload::from_slice(b"bb"));
        let b = a.clone();
        drop(a);
        let mut c = Payload::from_slice(b"cc");
        c.push_payload(&b);
        assert_eq!(c, b"ccaabb");
    }

    /// `len` bytes counting up from `first`, encoded only when read.
    struct Counting {
        first: u8,
        len: usize,
    }

    impl WireValue for Counting {
        fn wire_len(&self) -> usize {
            self.len
        }

        fn encode(&self) -> Payload {
            let bytes: Vec<u8> = (0..self.len)
                .map(|i| self.first.wrapping_add(i as u8))
                .collect();
            Payload::from_vec(bytes)
        }
    }

    #[test]
    fn a_shared_value_is_not_encoded_until_read() {
        let before = copy_metrics();
        let p = Payload::from_value(Counting { first: 10, len: 6 });
        let copies: Vec<Payload> = (0..8).map(|_| p.clone()).collect();
        assert_eq!(p.len(), 6);
        assert_eq!(format!("{p:?}"), "Payload(6 bytes, shared value)");
        assert_eq!(p.value::<Counting>().map(|c| c.first), Some(10));
        let delta = copy_metrics().since(&before);
        assert_eq!((delta.bytes_copied, delta.allocs), (0, 0));
        assert!(Payload::from_slice(b"x").value::<Counting>().is_none());
        // Read: the encoding is built once, for every clone.
        assert_eq!(copies[3], [10u8, 11, 12, 13, 14, 15]);
        let before = copy_metrics();
        assert_eq!(p.to_vec(), [10, 11, 12, 13, 14, 15]);
        assert_eq!(
            copy_metrics().since(&before).bytes_copied,
            6,
            "the to_vec alone"
        );
    }

    #[test]
    fn every_byte_accessor_sees_a_values_encoding() {
        let p = Payload::from_value(Counting { first: 0, len: 8 });
        let flat = Payload::from_slice(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(p, flat);
        assert_eq!(flat, p);
        assert_eq!(
            p.chunks().flatten().copied().collect::<Vec<_>>(),
            flat.to_vec()
        );
        assert_eq!(p.slice(2, 5), b"\x02\x03\x04");
        assert_eq!(&*p.contiguous(), &flat.to_vec()[..]);
        let mut r = p.reader();
        assert_eq!(r.read_u32_le(), Some(u32::from_le_bytes([0, 1, 2, 3])));
        assert_eq!(r.take_payload(4).unwrap(), b"\x04\x05\x06\x07");
        // Appending a value, and appending to one.
        let mut tail = Payload::from_slice(b"ab");
        tail.push_payload(&p);
        tail.append(p.clone());
        assert_eq!(tail.len(), 18);
        assert_eq!(tail.slice(2, 10), flat);
        let mut head = p.clone();
        head.push_payload(&Payload::from_slice(b"z"));
        assert_eq!(head.to_vec(), b"\x00\x01\x02\x03\x04\x05\x06\x07z");
        let mut empty = Payload::new();
        empty.append(p.clone());
        assert!(
            empty.value::<Counting>().is_some(),
            "appended to nothing, it stays shared"
        );
    }
}
