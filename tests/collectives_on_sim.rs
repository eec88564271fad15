//! Collectives correctness on the *timed* backend (their unit tests run
//! on threads; the algorithms exercise them indirectly — here they are
//! driven directly on the simulator, including cost sanity checks).

use stp_broadcast::coll;
use stp_broadcast::prelude::*;

#[test]
fn bcast_on_simulator_with_timing() {
    let machine = Machine::paragon(4, 4);
    let out = simulate(&machine, |mut comm| async move {
        let order: Vec<usize> = (0..comm.size()).collect();
        let data = (comm.rank() == 0).then(|| vec![7u8; 4096]);
        coll::bcast_from_first(&mut comm, &order, data, 0).await
    });
    assert!(out.results.iter().all(|d| *d == vec![7u8; 4096]));
    // log2(16) = 4 rounds; the makespan must be at least 4 serialized
    // transfers of the payload and far less than 16 sequential ones.
    let one_transfer = machine.params.serialize_ns(4096);
    assert!(out.makespan_ns > 4 * one_transfer);
    assert!(out.makespan_ns < 16 * (one_transfer + 100_000));
}

#[test]
fn gather_hot_spot_shows_in_contention() {
    let machine = Machine::paragon(4, 4);
    let out = simulate(&machine, |mut comm| async move {
        let senders: Vec<usize> = (0..comm.size()).collect();
        let mine = vec![comm.rank() as u8; 2048];
        coll::gather_direct(&mut comm, 0, &senders, Some(&mine), 1)
            .await
            .len()
    });
    assert_eq!(out.results[0], 16);
    assert!(
        out.contention_events > 0,
        "15 senders into one port must contend"
    );
}

#[test]
fn personalized_exchange_balances_iterations() {
    let machine = Machine::paragon(4, 4);
    let out = simulate(&machine, |mut comm| async move {
        let mine = vec![comm.rank() as u8; 256];
        let msgs = coll::personalized_from_sources(&mut comm, &|_| true, Some(&mine), 5).await;
        msgs.len()
    });
    assert!(out.results.iter().all(|&n| n == 16));
    // Every rank does p-1 iterations — identical op counts.
    let ops: Vec<u64> = out.stats.iter().map(|s| s.total_ops()).collect();
    assert!(ops.iter().all(|&o| o == ops[0]), "{ops:?}");
}

#[test]
fn allgather_ring_on_simulator() {
    let machine = Machine::t3d(12, 3);
    let mpi = SimConfig {
        lib: LibraryKind::Mpi,
        ..SimConfig::default()
    };
    let out = simulate_with(&machine, &mpi, |mut comm| async move {
        let order: Vec<usize> = (0..comm.size()).collect();
        let payload = [comm.rank() as u8; 32];
        coll::allgather_ring(&mut comm, &order, &payload, 2)
            .await
            .len()
    });
    assert!(out.results.iter().all(|&n| n == 12));
}

#[test]
fn scatter_and_reduce_roundtrip_on_simulator() {
    let machine = Machine::paragon(3, 3);
    let out = simulate(&machine, |mut comm| async move {
        let order: Vec<usize> = (0..comm.size()).collect();
        // Root scatters rank-indexed chunks ...
        let chunks = (comm.rank() == 0).then(|| {
            (0..comm.size())
                .map(|i| vec![i as u8; 16])
                .collect::<Vec<_>>()
        });
        let mine = coll::scatter_from_first(&mut comm, &order, chunks, 10).await;
        assert_eq!(mine, vec![comm.rank() as u8; 16]);
        // ... then a reduction sums everyone's chunk value.
        let contrib = (mine[0] as u64).to_le_bytes();
        let sum = |a: &[u8], b: &[u8]| {
            (u64::from_le_bytes(a.try_into().unwrap()) + u64::from_le_bytes(b.try_into().unwrap()))
                .to_le_bytes()
                .to_vec()
        };
        coll::reduce_to_first(&mut comm, &order, &contrib, &sum, 50)
            .await
            .map(|v| u64::from_le_bytes(v[..].try_into().unwrap()))
    });
    assert_eq!(out.results[0], Some(36)); // 0+1+...+8
    assert!(out.results[1..].iter().all(|r| r.is_none()));
}

#[test]
fn dissemination_barrier_synchronizes_clocks_on_simulator() {
    let machine = Machine::paragon(2, 4);
    let out = simulate(&machine, |mut comm| async move {
        if comm.rank() == 3 {
            comm.compute_ns(2_000_000); // one slow rank
        }
        coll::barrier_dissemination(&mut comm, 900).await;
        comm.clock()
    });
    // After a dissemination barrier every rank's clock is at least the
    // slow rank's pre-barrier time.
    assert!(
        out.results.iter().all(|&c| c >= 2_000_000),
        "{:?}",
        out.results
    );
}
