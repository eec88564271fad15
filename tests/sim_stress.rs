//! Kernel stress tests: randomized (but matched) communication patterns
//! exercise the simulator's matching, blocking, and scheduling logic far
//! outside the algorithms' regular patterns.

use proptest::prelude::*;
use stp_broadcast::prelude::*;

/// A randomly generated, deadlock-free communication script:
/// `sends[i]` = list of `(dst, tag, len)` issued by rank `i`, and every
/// rank knows how many messages to expect in total (wildcard receives).
#[derive(Debug, Clone)]
struct Script {
    p: usize,
    sends: Vec<Vec<(usize, u32, usize)>>,
}

impl Script {
    fn expected(&self, rank: usize) -> usize {
        self.sends
            .iter()
            .flatten()
            .filter(|&&(dst, _, _)| dst == rank)
            .count()
    }
}

fn script_strategy() -> impl Strategy<Value = Script> {
    (2usize..8).prop_flat_map(|p| {
        let sends = proptest::collection::vec(
            proptest::collection::vec((0..p, 0u32..4, 0usize..64), 0..6),
            p,
        );
        sends.prop_map(move |sends| Script { p, sends })
    })
}

fn run_script_sim(script: &Script) -> (Vec<u64>, Vec<u64>) {
    let machine = Machine::paragon(1, script.p);
    let out = run_simulated(&machine, LibraryKind::Nx, async |comm| {
        let me = comm.rank();
        for &(dst, tag, len) in &script.sends[me] {
            comm.send(dst, tag, &vec![me as u8; len]);
        }
        let mut received = 0u64;
        for _ in 0..script.expected(me) {
            let m = comm.recv(None, None).await;
            assert!(m.src < comm.size());
            received += m.data.len() as u64;
        }
        received
    });
    (out.results, out.finish_ns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Matched random scripts complete (no deadlock, all bytes arrive)
    /// and are deterministic.
    #[test]
    fn random_matched_scripts_complete_and_deterministic(script in script_strategy()) {
        let (bytes_a, times_a) = run_script_sim(&script);
        let (bytes_b, times_b) = run_script_sim(&script);
        prop_assert_eq!(&bytes_a, &bytes_b);
        prop_assert_eq!(&times_a, &times_b);
        // Conservation: total received bytes == total sent bytes.
        let sent: u64 = script
            .sends
            .iter()
            .flatten()
            .map(|&(_, _, len)| len as u64)
            .sum();
        let received: u64 = bytes_a.iter().sum();
        prop_assert_eq!(sent, received);
    }
}

#[test]
fn wildcard_and_filtered_receives_interleave() {
    // One rank mixes wildcard, source-filtered, and tag-filtered
    // receives against out-of-order senders.
    let machine = Machine::paragon(1, 4);
    let out = run_simulated(&machine, LibraryKind::Nx, async |comm| {
        match comm.rank() {
            1 => {
                comm.send(0, 7, b"from1-tag7");
                comm.send(0, 8, b"from1-tag8");
            }
            2 => comm.send(0, 7, b"from2-tag7"),
            3 => comm.send(0, 9, b"from3-tag9"),
            0 => {
                let a = comm.recv(Some(3), None).await; // only rank 3
                assert_eq!(a.data, b"from3-tag9");
                let b = comm.recv(None, Some(8)).await; // only tag 8
                assert_eq!(b.data, b"from1-tag8");
                let c = comm.recv(Some(1), Some(7)).await;
                assert_eq!(c.data, b"from1-tag7");
                let d = comm.recv(None, None).await;
                assert_eq!(d.data, b"from2-tag7");
            }
            _ => unreachable!(),
        }
        true
    });
    assert!(out.results.iter().all(|&ok| ok));
}

#[test]
fn self_sends_deliver_locally() {
    let machine = Machine::paragon(1, 2);
    let sim = run_simulated(&machine, LibraryKind::Nx, async |comm| {
        comm.send(comm.rank(), 0, b"self");
        comm.recv(Some(comm.rank()), Some(0)).await.data
    });
    assert!(sim.results.iter().all(|d| d == b"self"));
}
