//! Source distributions (paper §4).
//!
//! Each distribution places `s` source processors on the logical
//! `r × c` mesh (`r ≤ c` in all the paper's experiments). The placement
//! rules follow §4; where the prose is ambiguous for non-square meshes the
//! deviation is documented on the variant.

use std::collections::BTreeSet;

use mpp_model::MeshShape;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A named source-distribution family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceDist {
    /// `R(s)`: `⌈s/c⌉` evenly spaced rows; all full except possibly the
    /// last.
    Row,
    /// `C(s)`: `⌈s/r⌉` evenly spaced columns; all full except possibly
    /// the last.
    Column,
    /// `E(s)`: processor (0,0) plus every `⌈p/s⌉`-th / `⌊p/s⌋`-th
    /// processor in row-major order (i.e. rank `⌊j·p/s⌋`).
    Equal,
    /// `Dr(s)`: right diagonals `col = (row + offset) mod c`, starting
    /// with the main diagonal, remaining diagonals evenly spaced.
    /// (The paper sets the diagonal count from `⌈s/c⌉`; since a wrapped
    /// diagonal holds `r` cells we use `⌈s/r⌉`, identical on the square
    /// meshes the paper evaluates.)
    DiagRight,
    /// `Dl(s)`: left diagonals `col = (c-1 - row + c - offset) mod c`,
    /// starting with the main anti-diagonal.
    DiagLeft,
    /// `B(s)`: `⌈c/r⌉` evenly spaced diagonal bands of width
    /// `⌈s/(b·r)⌉`.
    Band,
    /// `Cr(s)`: union of a row distribution with roughly `s/2` sources
    /// and evenly spaced columns filled top-to-bottom with the rest
    /// (cells already used by the rows are not double-counted).
    Cross,
    /// `Sq(s)`: a `⌈√s⌉ × ⌈√s⌉` block anchored at (0,0), filled column
    /// by column.
    SquareBlock,
    /// Uniformly random distinct positions (seeded) — the paper
    /// conjectures this resembles `E(s)` behaviour on the T3D.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// An explicit caller-provided source set.
    Explicit(Vec<usize>),
}

impl SourceDist {
    /// Short name used in tables and figures.
    pub fn name(&self) -> &'static str {
        match self {
            SourceDist::Row => "R",
            SourceDist::Column => "C",
            SourceDist::Equal => "E",
            SourceDist::DiagRight => "Dr",
            SourceDist::DiagLeft => "Dl",
            SourceDist::Band => "B",
            SourceDist::Cross => "Cr",
            SourceDist::SquareBlock => "Sq",
            SourceDist::Random { .. } => "Rand",
            SourceDist::Explicit(_) => "Explicit",
        }
    }

    /// Parse a distribution name (long or paper-abbreviated) as used by
    /// the `stp` CLI and the serve request schema. `seed` feeds the
    /// `Random` variant only.
    pub fn parse(name: &str, seed: u64) -> Option<SourceDist> {
        Some(match name.to_lowercase().as_str() {
            "row" | "r" => SourceDist::Row,
            "column" | "col" | "c" => SourceDist::Column,
            "equal" | "e" => SourceDist::Equal,
            "diag" | "diag_right" | "dr" => SourceDist::DiagRight,
            "diag_left" | "dl" => SourceDist::DiagLeft,
            "band" | "b" => SourceDist::Band,
            "cross" | "cr" => SourceDist::Cross,
            "square" | "square_block" | "sq" => SourceDist::SquareBlock,
            "random" | "rand" => SourceDist::Random { seed },
            _ => return None,
        })
    }

    /// The eight named (seedless) distributions of §4, in the order the
    /// acceptance matrix sweeps them.
    pub fn named() -> [SourceDist; 8] {
        [
            SourceDist::Row,
            SourceDist::Column,
            SourceDist::Equal,
            SourceDist::DiagRight,
            SourceDist::DiagLeft,
            SourceDist::Band,
            SourceDist::Cross,
            SourceDist::SquareBlock,
        ]
    }

    /// The six named distributions of the paper's Figure 6 comparison.
    pub fn paper_set() -> Vec<SourceDist> {
        vec![
            SourceDist::Row,
            SourceDist::Column,
            SourceDist::Equal,
            SourceDist::DiagRight,
            SourceDist::SquareBlock,
            SourceDist::Cross,
        ]
    }

    /// Place `s` sources on `shape`. Returns sorted, distinct ranks.
    ///
    /// ```
    /// use mpp_model::MeshShape;
    /// use stp_core::distribution::SourceDist;
    /// // R(30) on 10x10: three evenly spaced full rows (0, 3, 6).
    /// let placed = SourceDist::Row.place(MeshShape::new(10, 10), 30);
    /// assert_eq!(placed.len(), 30);
    /// assert!(placed.contains(&0) && placed.contains(&30) && placed.contains(&60));
    /// ```
    ///
    /// # Panics
    /// Panics if `s == 0` or `s > p`, or if an `Explicit` set is
    /// malformed.
    pub fn place(&self, shape: MeshShape, s: usize) -> Vec<usize> {
        let p = shape.p();
        assert!(s >= 1 && s <= p, "s={s} outside 1..={p}");
        let (r, c) = (shape.rows, shape.cols);
        let set: BTreeSet<usize> = match self {
            SourceDist::Row => {
                let i = s.div_ceil(c);
                let mut set = BTreeSet::new();
                'outer: for j in 0..i {
                    let row = j * r / i;
                    for col in 0..c {
                        set.insert(shape.rank(row, col));
                        if set.len() == s {
                            break 'outer;
                        }
                    }
                }
                set
            }
            SourceDist::Column => {
                let i = s.div_ceil(r);
                let mut set = BTreeSet::new();
                'outer: for j in 0..i {
                    let col = j * c / i;
                    for row in 0..r {
                        set.insert(shape.rank(row, col));
                        if set.len() == s {
                            break 'outer;
                        }
                    }
                }
                set
            }
            SourceDist::Equal => (0..s).map(|j| j * p / s).collect(),
            SourceDist::DiagRight => diag_set(shape, s, false),
            SourceDist::DiagLeft => diag_set(shape, s, true),
            SourceDist::Band => {
                let b = c.div_ceil(r).max(1);
                let width = s.div_ceil(b * r).max(1);
                let mut set = BTreeSet::new();
                'outer: for band in 0..b {
                    let base = band * c / b;
                    for w in 0..width {
                        let offset = (base + w) % c;
                        for row in 0..r {
                            set.insert(shape.rank(row, (row + offset) % c));
                            if set.len() == s {
                                break 'outer;
                            }
                        }
                    }
                }
                // Extremely dense cases can exhaust all bands before
                // placing s sources (duplicate cells); fill row-major.
                fill_remaining(&mut set, s, p);
                set
            }
            SourceDist::Cross => {
                let mut set = BTreeSet::new();
                // Rows with roughly half the sources, fully filled.
                let row_share = s.div_ceil(2);
                let i_r = row_share.div_ceil(c).max(1);
                for j in 0..i_r {
                    let row = j * r / i_r;
                    for col in 0..c {
                        if set.len() < s {
                            set.insert(shape.rank(row, col));
                        }
                    }
                }
                // Evenly spaced columns filled top-to-bottom with the rest;
                // cells already covered by the rows contribute no new
                // sources, so size the column count by fresh cells per
                // column (a full column gains r - i_r new sources).
                let remaining = s - set.len().min(s);
                if remaining > 0 {
                    let fresh_per_col = r.saturating_sub(i_r).max(1);
                    let i_c = remaining.div_ceil(fresh_per_col).min(c);
                    'outer: for j in 0..i_c {
                        let col = j * c / i_c;
                        for row in 0..r {
                            set.insert(shape.rank(row, col));
                            if set.len() == s {
                                break 'outer;
                            }
                        }
                    }
                }
                fill_remaining(&mut set, s, p);
                set
            }
            SourceDist::SquareBlock => {
                let q = (s as f64).sqrt().ceil() as usize;
                // Block height: ⌈√s⌉, but stretch when the mesh is too
                // narrow for a square block and clip to the mesh height.
                let h = q.max(s.div_ceil(c)).min(r).max(1);
                let mut set = BTreeSet::new();
                'outer: for col in 0..c {
                    for row in 0..h {
                        set.insert(shape.rank(row, col));
                        if set.len() == s {
                            break 'outer;
                        }
                    }
                }
                set
            }
            SourceDist::Random { seed } => {
                let mut all: Vec<usize> = (0..p).collect();
                let mut rng = rand::rngs::StdRng::seed_from_u64(*seed);
                all.shuffle(&mut rng);
                all.truncate(s);
                all.into_iter().collect()
            }
            SourceDist::Explicit(v) => {
                let set: BTreeSet<usize> = v.iter().copied().collect();
                assert_eq!(set.len(), v.len(), "explicit sources contain duplicates");
                assert_eq!(set.len(), s, "explicit sources disagree with s");
                assert!(set.iter().all(|&x| x < p), "explicit source out of range");
                set
            }
        };
        debug_assert_eq!(
            set.len(),
            s,
            "{} placed {} != s={s}",
            self.name(),
            set.len()
        );
        set.into_iter().collect()
    }
}

/// Place `s` sources on wrapped diagonals. `left` mirrors the direction.
fn diag_set(shape: MeshShape, s: usize, left: bool) -> BTreeSet<usize> {
    let (r, c) = (shape.rows, shape.cols);
    let i = s.div_ceil(r);
    let mut set = BTreeSet::new();
    'outer: for j in 0..i {
        let offset = j * c / i;
        for row in 0..r {
            let col = if left {
                // main anti-diagonal (row 0 → col c-1) shifted left by
                // offset; reduce row mod c first so tall-narrow meshes
                // (r > c) cannot underflow.
                (2 * c - 1 - (row % c) - offset) % c
            } else {
                (row + offset) % c
            };
            set.insert(shape.rank(row, col));
            if set.len() == s {
                break 'outer;
            }
        }
    }
    fill_remaining(&mut set, s, shape.p());
    set
}

/// Top up `set` to `s` entries with the smallest unused ranks (only
/// reachable for extreme `s` where the pattern self-overlaps).
fn fill_remaining(set: &mut BTreeSet<usize>, s: usize, p: usize) {
    let mut next = 0usize;
    while set.len() < s {
        while set.contains(&next) {
            next += 1;
            assert!(next < p, "cannot place {s} sources on {p} processors");
        }
        set.insert(next);
    }
}

/// Per-row source counts.
pub fn row_counts(shape: MeshShape, sources: &[usize]) -> Vec<usize> {
    let mut counts = vec![0; shape.rows];
    for &s in sources {
        counts[shape.coords(s).0] += 1;
    }
    counts
}

/// Per-column source counts.
pub fn col_counts(shape: MeshShape, sources: &[usize]) -> Vec<usize> {
    let mut counts = vec![0; shape.cols];
    for &s in sources {
        counts[shape.coords(s).1] += 1;
    }
    counts
}

/// Render the distribution as an ASCII grid (`#` source, `.` other) —
/// used by the Figure-1 reproduction binary.
pub fn ascii_grid(shape: MeshShape, sources: &[usize]) -> String {
    let set: BTreeSet<usize> = sources.iter().copied().collect();
    let mut out = String::with_capacity((shape.cols + 1) * shape.rows);
    for row in 0..shape.rows {
        for col in 0..shape.cols {
            out.push(if set.contains(&shape.rank(row, col)) {
                '#'
            } else {
                '.'
            });
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN: MeshShape = MeshShape { rows: 10, cols: 10 };

    fn place(d: SourceDist, s: usize) -> Vec<usize> {
        d.place(TEN, s)
    }

    #[test]
    fn dist_names_parse() {
        let parse = SourceDist::parse;
        assert_eq!(parse("cross", 0), Some(SourceDist::Cross));
        assert_eq!(parse("Sq", 0), Some(SourceDist::SquareBlock));
        assert_eq!(parse("rand", 7), Some(SourceDist::Random { seed: 7 }));
        assert_eq!(parse("nope", 0), None);
    }

    #[test]
    fn all_distributions_place_exactly_s() {
        let shapes = [
            MeshShape::new(10, 10),
            MeshShape::new(8, 16),
            MeshShape::new(4, 30),
            MeshShape::new(10, 12),
        ];
        let dists = [
            SourceDist::Row,
            SourceDist::Column,
            SourceDist::Equal,
            SourceDist::DiagRight,
            SourceDist::DiagLeft,
            SourceDist::Band,
            SourceDist::Cross,
            SourceDist::SquareBlock,
            SourceDist::Random { seed: 11 },
        ];
        for shape in shapes {
            let p = shape.p();
            for d in &dists {
                for s in [1usize, 2, 5, p / 4, p / 2, p - 1, p] {
                    let placed = d.place(shape, s);
                    assert_eq!(placed.len(), s, "{} s={s} on {shape:?}", d.name());
                    assert!(placed.windows(2).all(|w| w[0] < w[1]), "not sorted/unique");
                    assert!(placed.iter().all(|&x| x < p));
                }
            }
        }
    }

    #[test]
    fn figure1_row_30_on_10x10() {
        // R(30): three evenly spaced full rows -> rows 0, 3, 6.
        let placed = place(SourceDist::Row, 30);
        let rows = row_counts(TEN, &placed);
        assert_eq!(rows[0], 10);
        assert_eq!(rows[3], 10);
        assert_eq!(rows[6], 10);
        assert_eq!(rows.iter().sum::<usize>(), 30);
    }

    #[test]
    fn figure1_diag_right_30_on_10x10() {
        // Dr(30): three wrapped right diagonals including the main one.
        let placed = place(SourceDist::DiagRight, 30);
        // Main diagonal present:
        for k in 0..10 {
            assert!(
                placed.contains(&TEN.rank(k, k)),
                "main diagonal cell ({k},{k})"
            );
        }
        // every row and column has exactly 3 sources
        assert!(row_counts(TEN, &placed).iter().all(|&n| n == 3));
        assert!(col_counts(TEN, &placed).iter().all(|&n| n == 3));
    }

    #[test]
    fn figure1_cross_30_on_10x10() {
        // Cr(30): two full rows + two partial columns.
        let placed = place(SourceDist::Cross, 30);
        let rows = row_counts(TEN, &placed);
        let full_rows = rows.iter().filter(|&&n| n == 10).count();
        assert_eq!(full_rows, 2, "two full rows expected, rows={rows:?}");
        let cols = col_counts(TEN, &placed);
        // Two columns carry extra sources beyond the two from the rows.
        let heavy_cols = cols.iter().filter(|&&n| n > 2).count();
        assert_eq!(heavy_cols, 2, "two column arms expected, cols={cols:?}");
    }

    #[test]
    fn column_is_transpose_of_row() {
        let placed = place(SourceDist::Column, 30);
        let cols = col_counts(TEN, &placed);
        assert_eq!(cols[0], 10);
        assert_eq!(cols[3], 10);
        assert_eq!(cols[6], 10);
    }

    #[test]
    fn equal_spacing_even() {
        let placed = place(SourceDist::Equal, 20);
        // rank j*100/20 = 5j
        let expect: Vec<usize> = (0..20).map(|j| j * 5).collect();
        assert_eq!(placed, expect);
        assert!(placed.contains(&0), "(1,1) i.e. rank 0 is always a source");
    }

    #[test]
    fn equal_can_degenerate_to_column_like() {
        // s=10 on 10x10: ranks 0,10,20,... = column 0 exactly.
        let placed = place(SourceDist::Equal, 10);
        let cols = col_counts(TEN, &placed);
        assert_eq!(cols[0], 10);
    }

    #[test]
    fn left_diagonal_hits_anti_diagonal() {
        let placed = place(SourceDist::DiagLeft, 10);
        for row in 0..10 {
            assert!(
                placed.contains(&TEN.rank(row, 9 - row)),
                "anti-diagonal ({row},{})",
                9 - row
            );
        }
    }

    #[test]
    fn band_on_16x16_is_single_wide_diagonal() {
        // Paper §5.2: on 16x16 the band distribution is one diagonal band
        // of width s/16.
        let shape = MeshShape::new(16, 16);
        let placed = SourceDist::Band.place(shape, 64);
        // width 4 band: columns (row+w) mod 16 for w in 0..4
        for row in 0..16 {
            for w in 0..4 {
                assert!(placed.contains(&shape.rank(row, (row + w) % 16)));
            }
        }
    }

    #[test]
    fn square_block_fills_column_major() {
        let placed = place(SourceDist::SquareBlock, 9);
        // 3x3 block at origin, column by column.
        let expect: Vec<usize> = vec![0, 1, 2, 10, 11, 12, 20, 21, 22];
        let mut sorted = expect.clone();
        sorted.sort_unstable();
        assert_eq!(placed, sorted);
    }

    #[test]
    fn square_block_partial_fill() {
        let placed = place(SourceDist::SquareBlock, 7);
        // ceil(sqrt(7)) = 3: fill (0,0),(1,0),(2,0),(0,1),(1,1),(2,1),(0,2)
        // = ranks 0, 10, 20, 1, 11, 21, 2.
        let mut expect = vec![0, 10, 20, 1, 11, 21, 2];
        expect.sort_unstable();
        assert_eq!(placed, expect);
    }

    #[test]
    fn random_is_seeded() {
        let a = place(SourceDist::Random { seed: 5 }, 17);
        let b = place(SourceDist::Random { seed: 5 }, 17);
        let c = place(SourceDist::Random { seed: 6 }, 17);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic]
    fn zero_sources_rejected() {
        place(SourceDist::Row, 0);
    }

    #[test]
    #[should_panic]
    fn explicit_duplicates_rejected() {
        SourceDist::Explicit(vec![1, 1]).place(TEN, 2);
    }

    #[test]
    fn ascii_grid_shape() {
        let placed = place(SourceDist::Row, 10);
        let grid = ascii_grid(TEN, &placed);
        let lines: Vec<&str> = grid.lines().collect();
        assert_eq!(lines.len(), 10);
        assert_eq!(lines[0], "##########");
        assert_eq!(lines[1], "..........");
    }

    #[test]
    fn s_equals_p_covers_everything() {
        for d in SourceDist::paper_set() {
            let placed = d.place(TEN, 100);
            assert_eq!(placed, (0..100).collect::<Vec<_>>(), "{}", d.name());
        }
    }
}
