//! Exact host-work counts: the heap allocations of one warm run.
//!
//! Wall-clock comparisons on a shared machine move by ±10 % between
//! runs of one binary; an allocation count does not move at all. Each
//! test runs one 16×16 Paragon experiment (s = 64 equally spread
//! sources, L = 64) once to warm the thread's caches (payload arena,
//! schedule memo), then three more times, and asserts that the three
//! counts are identical and stay under a ceiling set at the count
//! measured when the ceiling was last moved. A change that moves a
//! count moves its ceiling in the same commit, with the old count kept
//! in the comment.
//!
//! The counting allocator counts per thread, and a run executes every
//! rank on the calling thread, so tests running side by side do not
//! see each other's allocations.

#[path = "../crates/mpp-sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use stp_broadcast::prelude::*;

/// Heap allocations (and reallocations) of one verified run of `kind`.
fn allocs_of_one_run(kind: AlgoKind) -> u64 {
    let machine = Machine::paragon(16, 16);
    let exp = Experiment {
        machine: &machine,
        dist: SourceDist::Equal,
        s: 64,
        msg_len: 64,
        kind,
    };
    let before = counting_alloc::allocs();
    let out = exp.run().expect("run failed");
    let allocs = counting_alloc::allocs() - before;
    assert!(out.verified, "{} failed verification", kind.name());
    allocs
}

fn assert_exact_count(kind: AlgoKind, ceiling: u64) {
    allocs_of_one_run(kind);
    let counts = [(); 3].map(|()| allocs_of_one_run(kind));
    assert!(
        counts.iter().all(|&n| n == counts[0]),
        "{}: warm runs allocated {counts:?} times",
        kind.name()
    );
    assert!(
        counts[0] <= ceiling,
        "{}: {} allocations, ceiling {ceiling}",
        kind.name(),
        counts[0]
    );
}

// The ceilings are the counts of the commit that set them. Before
// message sets held slots they were 8 427, 9 606, 5 021 and 5 167:
// each source's message then lived in the delivery oracle's buffer;
// now it is one shared handle (s more allocations), and the exchange
// collects slots instead of rope entries.

#[test]
fn br_xy_source_allocation_count() {
    assert_exact_count(AlgoKind::BrXySource, 8_492);
}

#[test]
fn dissem_all_gather_allocation_count() {
    assert_exact_count(AlgoKind::DissemAllGather, 9_671);
}

#[test]
fn pers_alltoall_allocation_count() {
    assert_exact_count(AlgoKind::PersAlltoAll, 4_830);
}

#[test]
fn kport_alltoall_allocation_count() {
    assert_exact_count(AlgoKind::KPortAlltoall, 5_232);
}
