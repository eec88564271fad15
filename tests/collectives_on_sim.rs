//! Collectives on the timed simulator: the two the algorithms call,
//! driven directly with cost sanity checks, plus the hot spot of a
//! direct gather and the kernel's modelled barrier.

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
    // A direct gather, as 2-Step's first phase runs it: every other rank
    // sends straight to rank 0.
    let machine = Machine::paragon(4, 4);
    let out = simulate(&machine, |mut comm| async move {
        let p = comm.size();
        if comm.rank() == 0 {
            for _ in 1..p {
                comm.recv(None, Some(1)).await;
            }
            p - 1
        } else {
            comm.send(0, 1, &vec![comm.rank() as u8; 2048]);
            0
        }
    });
    assert_eq!(out.results[0], 15);
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
        let everyone: Vec<usize> = (0..comm.size()).collect();
        let msgs = coll::personalized_from_sources(&mut comm, &everyone, Some(&mine), 5).await;
        msgs.len()
    });
    assert!(out.results.iter().all(|&n| n == 16));
    // Every rank does p-1 iterations — identical op counts.
    let ops: Vec<u64> = out.stats.iter().map(|s| s.total_ops()).collect();
    assert!(ops.iter().all(|&o| o == ops[0]), "{ops:?}");
}

#[test]
fn dissemination_barrier_synchronizes_clocks_on_simulator() {
    let machine = Machine::paragon(2, 4);
    let out = simulate(&machine, |mut comm| async move {
        if comm.rank() == 3 {
            comm.compute_ns(2_000_000); // one slow rank
        }
        comm.barrier().await;
        comm.clock()
    });
    // After the kernel's barrier (modelled as a dissemination barrier)
    // every rank's clock is at least the slow rank's pre-barrier time.
    assert!(
        out.results.iter().all(|&c| c >= 2_000_000),
        "{:?}",
        out.results
    );
}
