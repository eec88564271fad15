//! The fixed input universes. Later issues cite these by name, so the
//! sets (not the repeat counts) are the part of the benchmark that must
//! not drift.

/// Message lengths of Universe-240, hottest first under the zipf draw
/// (the order `stp-loadgen` has used since the daemon landed).
const U240_LENS: [usize; 4] = [1024, 4096, 16384, 256];
const U240_DISTS: [&str; 6] = ["row", "equal", "cross", "band", "diag_right", "column"];
const PORTS: [usize; 2] = [1, 5];

/// `(request fields naming the machine, p)` for the five machines of
/// Universe-240.
fn u240_machines() -> [(String, usize); 5] {
    let paragon = |rows: usize, cols: usize| {
        (
            format!("\"machine\":\"paragon\",\"rows\":{rows},\"cols\":{cols}"),
            rows * cols,
        )
    };
    [
        paragon(10, 10),
        paragon(4, 4),
        paragon(8, 4),
        paragon(16, 16),
        ("\"machine\":\"t3d\",\"p\":128".to_string(), 128),
    ]
}

/// One plan request of a universe.
#[derive(Debug, Clone)]
pub struct PlanLine {
    /// The request line as sent (no trailing newline).
    pub line: String,
    /// Message length `L` of the request.
    pub len: usize,
    /// True for the T3D torus, false for a Paragon mesh.
    pub t3d: bool,
}

impl PlanLine {
    /// The same point with `"lint":true` — a different cache key, so a
    /// cold plan even right after the plain one.
    pub fn with_lint(&self) -> PlanLine {
        let stem = self
            .line
            .strip_suffix('}')
            .expect("request lines are JSON objects");
        PlanLine {
            line: format!("{stem},\"lint\":true}}"),
            ..self.clone()
        }
    }
}

/// Universe-240 = {paragon 4×4, 8×4, 10×10, 16×16, t3d p=128} × ports
/// {1,5} × dist {row, equal, cross, band, diag_right, column} × L {256,
/// 1024, 4096, 16384}, `s = max(2, p/3)`, `"algo":"auto"`. `max_len`
/// restricts it for the smoke scale.
pub fn universe_240(max_len: usize) -> Vec<PlanLine> {
    let mut out = Vec::with_capacity(240);
    for len in U240_LENS.into_iter().filter(|&len| len <= max_len) {
        for (machine, p) in u240_machines() {
            for ports in PORTS {
                for dist in U240_DISTS {
                    let s = (p / 3).max(2);
                    out.push(PlanLine {
                        line: format!(
                            "{{{machine},\"ports\":{ports},\"dist\":\"{dist}\",\"s\":{s},\"L\":{len},\"algo\":\"auto\"}}"
                        ),
                        len,
                        t3d: machine.contains("t3d"),
                    });
                }
            }
        }
    }
    out
}

/// The lint subset of `serve_cold`: the L=1024 plans of Universe-240
/// again with `"lint":true`.
pub fn lint_subset(universe: &[PlanLine]) -> Vec<PlanLine> {
    universe
        .iter()
        .filter(|plan| plan.len == 1024)
        .map(PlanLine::with_lint)
        .collect()
}

/// The churn universe: 256 sub-millisecond plans = {4×4, 8×4} × ports
/// {1,5} × 8 dists × L {64, 256, 1024, 2048} × s {p/4, p/2}.
pub fn churn_256() -> Vec<PlanLine> {
    const DISTS: [&str; 8] = [
        "row",
        "column",
        "equal",
        "diag_right",
        "diag_left",
        "band",
        "cross",
        "square_block",
    ];
    let mut out = Vec::with_capacity(256);
    for len in [256usize, 1024, 64, 2048] {
        for (rows, cols) in [(4usize, 4usize), (8, 4)] {
            let p = rows * cols;
            for ports in PORTS {
                for dist in DISTS {
                    for s in [p / 4, p / 2] {
                        out.push(PlanLine {
                            line: format!(
                                "{{\"machine\":\"paragon\",\"rows\":{rows},\"cols\":{cols},\"ports\":{ports},\"dist\":\"{dist}\",\"s\":{s},\"L\":{len},\"algo\":\"auto\"}}"
                            ),
                            len,
                            t3d: false,
                        });
                    }
                }
            }
        }
    }
    out
}

/// The three hostile surfaces: not JSON, a bad field, and a plan that
/// panics inside the simulator. Each must cost one error reply and
/// nothing else.
pub const HOSTILE: [&str; 3] = [
    "this is not json",
    "{\"machine\":\"paragon\",\"rows\":4,\"cols\":4,\"s\":4,\"algo\":\"nope\"}",
    "{\"machine\":\"paragon\",\"rows\":4,\"cols\":4,\"dist\":\"equal\",\"s\":2,\"L\":64,\"algo\":\"chaos:panic\"}",
];

/// Message lengths of one `figure_sweep` invocation (`--sweep-len`).
pub const FIGURE_LENS: &str = "1024,4096,8192,16384";

/// The 52 `stp … --sweep-len` invocations of `figure_sweep`: the
/// paper's figure-3/4/9/10 regime (few events, large L) on the three
/// machines, plus the 5-port runs of the k-ported family.
pub fn figure_invocations() -> Vec<Vec<String>> {
    const ALGOS: [&str; 8] = [
        "2-Step",
        "PersAlltoAll",
        "MPI_AllGather",
        "MPI_Alltoall",
        "Br_Lin",
        "Br_xy_source",
        "Br_xy_dim",
        "Repos_xy_source",
    ];
    const DISTS: [&str; 2] = ["equal", "cross"];
    let paragon_10 = [
        "--machine",
        "paragon",
        "--rows",
        "10",
        "--cols",
        "10",
        "--s",
        "30",
    ];
    let paragon_16 = [
        "--machine",
        "paragon",
        "--rows",
        "16",
        "--cols",
        "16",
        "--s",
        "75",
    ];
    let t3d = ["--machine", "t3d", "--p", "128", "--s", "42"];
    let invocation = |machine: &[&str], algo: &str, dist: &str, extra: &[&str]| {
        machine
            .iter()
            .chain(["--algo", algo, "--dist", dist, "--sweep-len", FIGURE_LENS].iter())
            .chain(extra)
            .map(|arg| arg.to_string())
            .collect::<Vec<String>>()
    };
    let mut out = Vec::with_capacity(52);
    for machine in [&paragon_10[..], &paragon_16[..], &t3d[..]] {
        for algo in ALGOS {
            for dist in DISTS {
                out.push(invocation(machine, algo, dist, &[]));
            }
        }
    }
    for machine in [&paragon_10[..], &paragon_16[..]] {
        for dist in DISTS {
            out.push(invocation(machine, "KPort_Lin", dist, &["--ports", "5"]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn universes_have_the_cited_sizes_and_no_duplicates() {
        let u = universe_240(usize::MAX);
        assert_eq!(u.len(), 240);
        assert_eq!(
            u.iter().map(|p| &p.line).collect::<BTreeSet<_>>().len(),
            240
        );
        assert_eq!(u.iter().filter(|p| p.t3d).count(), 48);
        assert_eq!(universe_240(1024).len(), 120);

        let lint = lint_subset(&u);
        assert_eq!(lint.len(), 60);
        assert!(lint.iter().all(|p| p.line.ends_with(",\"lint\":true}")));

        let churn = churn_256();
        assert_eq!(churn.len(), 256);
        assert_eq!(
            churn.iter().map(|p| &p.line).collect::<BTreeSet<_>>().len(),
            256
        );
    }

    #[test]
    fn figure_sweep_has_52_distinct_invocations() {
        let inv = figure_invocations();
        assert_eq!(inv.len(), 52);
        assert_eq!(inv.iter().collect::<BTreeSet<_>>().len(), 52);
        assert_eq!(
            inv.iter()
                .filter(|args| args.contains(&"KPort_Lin".to_string()))
                .count(),
            4
        );
    }
}
