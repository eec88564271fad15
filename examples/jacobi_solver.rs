//! An iterative Jacobi-style solver on the simulated machine — the kind
//! of application the paper's introduction motivates: per-iteration
//! neighbour exchanges, a global convergence test (allreduce), and an
//! occasional s-to-p broadcast when some processors' values change
//! enough that everyone must be updated (dynamic broadcasting).
//!
//! Demonstrates the whole stack working together: collectives +
//! s-to-p algorithms + the timed simulator, with virtual time accounting
//! for the complete application.
//!
//! Run with: `cargo run --release --example jacobi_solver`

use stp_broadcast::coll;
use stp_broadcast::prelude::*;

/// Local grid block per processor (NxN interior cells).
const BLOCK: usize = 32;
/// Convergence threshold on the global residual.
const EPS: f64 = 1e-3;

fn main() {
    let machine = Machine::paragon(8, 8);
    let shape = machine.shape;

    let out = simulate(&machine, |mut comm| async move {
        let me = comm.rank();
        let (row, col) = shape.coords(me);

        // Initial local state: a synthetic heat distribution.
        let mut local: Vec<f64> = (0..BLOCK * BLOCK)
            .map(|i| ((me * 31 + i) % 97) as f64 / 97.0)
            .collect();
        let order: Vec<usize> = (0..comm.size()).collect();

        let mut iterations = 0u32;
        let mut broadcasts = 0u32;
        loop {
            iterations += 1;

            // 1. Halo exchange with mesh neighbours (boundary rows/cols).
            let halo: Vec<u8> = local[..BLOCK]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            let mut neighbours = Vec::new();
            if row > 0 {
                neighbours.push(shape.rank(row - 1, col));
            }
            if row + 1 < shape.rows {
                neighbours.push(shape.rank(row + 1, col));
            }
            if col > 0 {
                neighbours.push(shape.rank(row, col - 1));
            }
            if col + 1 < shape.cols {
                neighbours.push(shape.rank(row, col + 1));
            }
            for &n in &neighbours {
                comm.send(n, 10, &halo);
            }
            let mut halo_sum = 0.0f64;
            for &n in &neighbours {
                let m = comm.recv(Some(n), Some(10)).await;
                for chunk in m.data.contiguous().chunks_exact(8) {
                    halo_sum += f64::from_le_bytes(chunk.try_into().unwrap());
                }
            }

            // 2. Local relaxation step (damped towards the halo mean).
            let halo_mean = halo_sum / (neighbours.len() * BLOCK) as f64;
            let mut residual = 0.0f64;
            for v in local.iter_mut() {
                let next = 0.7 * *v + 0.3 * halo_mean;
                residual += (next - *v).abs();
                *v = next;
            }

            // 3. Global convergence test: allreduce of the residual.
            let combine = |a: &[u8], b: &[u8]| {
                let x = f64::from_le_bytes(a.try_into().unwrap());
                let y = f64::from_le_bytes(b.try_into().unwrap());
                (x + y).to_le_bytes().to_vec()
            };
            let total =
                coll::allreduce(&mut comm, &order, &residual.to_le_bytes(), &combine, 100).await;
            let total = f64::from_le_bytes(total[..].try_into().unwrap());
            comm.next_iteration();

            // 4. Dynamic broadcasting: processors whose residual is an
            // outlier publish their boundary state to everyone (the
            // paper's s-to-p scenario). Every rank computes the same
            // source set from the deterministic iteration number.
            if iterations.is_multiple_of(3) {
                let s = ((iterations as usize * 7) % 24) + 1;
                let dist = SourceDist::Equal.place(shape, s);
                let payload = dist.binary_search(&me).is_ok().then(|| halo.clone());
                let ctx = StpCtx {
                    shape,
                    sources: &dist,
                    payload: payload.as_deref(),
                };
                let set = BrXySource.run(&mut comm, &ctx).await;
                assert_eq!(set.len(), s);
                broadcasts += 1;
            }

            if total < EPS || iterations >= 30 {
                return (iterations, broadcasts, total);
            }
        }
    });

    let (iters, bcasts, residual) = out.results[0];
    assert!(out
        .results
        .iter()
        .all(|&(i, b, _)| i == iters && b == bcasts));
    println!(
        "Jacobi on {}: {} iterations, {} s-to-p broadcasts, final residual {:.5}",
        machine.name, iters, bcasts, residual
    );
    println!(
        "virtual time {:.3} ms  (contention stalls: {})",
        out.makespan_ms(),
        out.contention_events
    );
}
