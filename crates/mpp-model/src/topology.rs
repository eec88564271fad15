//! Network topologies and deterministic dimension-ordered routing.
//!
//! A topology maps physical node ids to coordinates and produces, for any
//! ordered pair of nodes, the exact sequence of directed links a message
//! traverses. Routing is *dimension-ordered* everywhere (XY on meshes,
//! XYZ on tori, ascending-bit on hypercubes): deterministic and minimal,
//! matching the wormhole routers of the Paragon and T3D.

use std::collections::{BTreeMap, HashSet, VecDeque};

/// Identifier of a physical network node, `0..num_nodes()`.
pub type NodeId = usize;

/// A directed physical channel between two adjacent nodes.
///
/// Links are the unit of contention in the simulator: two transfers whose
/// routes share a `Link` serialize on it. The reverse direction is a
/// different `Link`, so bidirectional exchanges do not self-collide.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Link {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
}

impl Link {
    /// Convenience constructor.
    #[inline]
    pub fn new(from: NodeId, to: NodeId) -> Self {
        Link { from, to }
    }
}

/// A physical interconnect topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Topology {
    /// `rows × cols` 2-D mesh (no wraparound), row-major node ids,
    /// XY (column-then-row? no: X-first) dimension-ordered routing.
    ///
    /// Node `(r, c)` has id `r * cols + c`. Routing corrects the column
    /// (X) first, then the row (Y), as on the Paragon.
    Mesh2D { rows: usize, cols: usize },
    /// `dx × dy × dz` 3-D torus (wraparound in every dimension), ids in
    /// x-major order, dimension-ordered routing with shortest wrap
    /// direction per dimension, as on the T3D.
    Torus3D { dx: usize, dy: usize, dz: usize },
    /// `2^dim` nodes; routing corrects differing address bits from least
    /// to most significant (e-cube routing).
    Hypercube { dim: u32 },
}

impl Topology {
    /// Number of physical nodes.
    pub fn num_nodes(&self) -> usize {
        match *self {
            Topology::Mesh2D { rows, cols } => rows * cols,
            Topology::Torus3D { dx, dy, dz } => dx * dy * dz,
            Topology::Hypercube { dim } => 1usize << dim,
        }
    }

    /// Number of hops of the dimension-ordered route from `u` to `v`.
    ///
    /// Equal to `route(u, v).len()` but avoids materializing the path.
    pub fn distance(&self, u: NodeId, v: NodeId) -> usize {
        match *self {
            Topology::Mesh2D { cols, .. } => {
                let (ur, uc) = (u / cols, u % cols);
                let (vr, vc) = (v / cols, v % cols);
                ur.abs_diff(vr) + uc.abs_diff(vc)
            }
            Topology::Torus3D { dx, dy, dz } => {
                let a = Self::torus_coords(u, dx, dy, dz);
                let b = Self::torus_coords(v, dx, dy, dz);
                Self::torus_dist(a.0, b.0, dx)
                    + Self::torus_dist(a.1, b.1, dy)
                    + Self::torus_dist(a.2, b.2, dz)
            }
            Topology::Hypercube { .. } => (u ^ v).count_ones() as usize,
        }
    }

    /// The exact directed links traversed from `u` to `v`, in order.
    ///
    /// Empty when `u == v`. Panics if either id is out of range.
    ///
    /// ```
    /// use mpp_model::Topology;
    /// let mesh = Topology::Mesh2D { rows: 3, cols: 3 };
    /// // XY routing: (0,0) -> (1,1) corrects the column first.
    /// let hops: Vec<usize> = mesh.route(0, 4).iter().map(|l| l.to).collect();
    /// assert_eq!(hops, vec![1, 4]);
    /// ```
    pub fn route(&self, u: NodeId, v: NodeId) -> Vec<Link> {
        let n = self.num_nodes();
        assert!(
            u < n && v < n,
            "route endpoints out of range: {u},{v} (n={n})"
        );
        let mut path = Vec::with_capacity(self.distance(u, v));
        self.route_into(u, v, &mut path);
        path
    }

    /// [`Topology::route`] into a caller-provided buffer, so per-message
    /// hot paths (the kernel routes every send) can reuse one
    /// allocation. The buffer is cleared first.
    pub fn route_into(&self, u: NodeId, v: NodeId, path: &mut Vec<Link>) {
        let n = self.num_nodes();
        assert!(
            u < n && v < n,
            "route endpoints out of range: {u},{v} (n={n})"
        );
        path.clear();
        // Meshes and tori take each endpoint's coordinates once and walk
        // one dimension at a time, hop by hop without a division; the
        // hypercube follows `next_hop`.
        match *self {
            Topology::Mesh2D { rows, cols } => {
                let mut cur = u;
                Self::walk_dim(path, &mut cur, u % cols, v % cols, cols, 1, false);
                Self::walk_dim(path, &mut cur, u / cols, v / cols, rows, cols, false);
            }
            Topology::Torus3D { dx, dy, dz } => {
                let (a, b) = (
                    Self::torus_coords(u, dx, dy, dz),
                    Self::torus_coords(v, dx, dy, dz),
                );
                let mut cur = u;
                Self::walk_dim(path, &mut cur, a.0, b.0, dx, 1, true);
                Self::walk_dim(path, &mut cur, a.1, b.1, dy, dx, true);
                Self::walk_dim(path, &mut cur, a.2, b.2, dz, dx * dy, true);
            }
            Topology::Hypercube { .. } => {
                let mut cur = u;
                while cur != v {
                    let next = self.next_hop(cur, v);
                    path.push(Link::new(cur, next));
                    cur = next;
                }
            }
        }
    }

    /// Route along one dimension of extent `d` whose unit step moves the
    /// node id by `stride`: from coordinate `c` to `t`, starting at node
    /// `*cur`, pushing each hop and leaving `*cur` at the end. On a ring
    /// (`wrap`) the shorter direction is taken, ties going up as in
    /// `torus_step`, and a step off either end comes back in at the
    /// other; a mesh line never reaches its ends on the way.
    fn walk_dim(
        path: &mut Vec<Link>,
        cur: &mut NodeId,
        mut c: usize,
        t: usize,
        d: usize,
        stride: usize,
        wrap: bool,
    ) {
        let (up, steps) = Self::dim_walk(c, t, d, wrap);
        for _ in 0..steps {
            let next = if up && c + 1 == d {
                c = 0;
                *cur - (d - 1) * stride
            } else if up {
                c += 1;
                *cur + stride
            } else if c == 0 {
                c = d - 1;
                *cur + (d - 1) * stride
            } else {
                c -= 1;
                *cur - stride
            };
            path.push(Link::new(*cur, next));
            *cur = next;
        }
    }

    /// Which way and how far the route moves along one dimension of
    /// extent `d`, from coordinate `c` to `t`: up (increasing
    /// coordinate) or down, and the number of hops. On a ring (`wrap`)
    /// the shorter direction is taken, ties going up.
    fn dim_walk(c: usize, t: usize, d: usize, wrap: bool) -> (bool, usize) {
        if wrap {
            let fwd = if t >= c { t - c } else { t + d - c };
            (fwd <= d - fwd, fwd.min(d - fwd))
        } else {
            (t > c, c.abs_diff(t))
        }
    }

    /// How many of the routes `route(u, v)`, one per pair, cross each
    /// link: the links crossed at least once, with their counts.
    ///
    /// Meshes and tori do not walk the routes: a route's stretch along
    /// one dimension is a run of consecutive links of one line, so it
    /// marks +1 at its first link and −1 past its last, and one running
    /// sum per line and direction turns the marks into counts — work in
    /// the number of pairs and nodes, not of hops. The hypercube counts
    /// hop by hop.
    pub fn route_loads(
        &self,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> BTreeMap<Link, u64> {
        let n = self.num_nodes();
        let mut loads = BTreeMap::new();
        // `(extent, stride)` of each dimension, in routing order; a
        // mesh's third dimension has extent 1, so no route moves in it.
        let (dims, wrap) = match *self {
            Topology::Mesh2D { rows, cols } => ([(cols, 1), (rows, cols), (1, n)], false),
            Topology::Torus3D { dx, dy, dz } => ([(dx, 1), (dy, dx), (dz, dx * dy)], true),
            Topology::Hypercube { .. } => {
                let mut path = Vec::new();
                for (u, v) in pairs {
                    self.route_into(u, v, &mut path);
                    for &link in &path {
                        *loads.entry(link).or_insert(0) += 1;
                    }
                }
                return loads;
            }
        };
        // marks[(dim · 2 + down) · n + node]: the change in count at the
        // link that leaves `node` along `dim`, up or down.
        let mut marks = vec![0i64; dims.len() * 2 * n];
        for (u, v) in pairs {
            assert!(
                u < n && v < n,
                "route endpoints out of range: {u},{v} (n={n})"
            );
            let (mut cur, mut rest_u, mut rest_v) = (u, u, v);
            for (k, &(d, stride)) in dims.iter().enumerate() {
                let (c, t) = (rest_u % d, rest_v % d);
                (rest_u, rest_v) = (rest_u / d, rest_v / d);
                let (up, steps) = Self::dim_walk(c, t, d, wrap);
                if steps == 0 {
                    continue;
                }
                let base = cur - c * stride;
                let line = &mut marks[(k * 2 + usize::from(!up)) * n..][..n];
                // The links leave coordinates `first ..` for `steps`,
                // around the ring when they pass its end.
                let first = if up { c } else { (c + d + 1 - steps) % d };
                let mut mark = |pos: usize, delta: i64| line[base + pos * stride] += delta;
                mark(first, 1);
                if first + steps < d {
                    mark(first + steps, -1);
                } else if first + steps > d {
                    mark(0, 1);
                    mark(first + steps - d, -1);
                }
                cur = base + t * stride;
            }
        }
        for (k, &(d, stride)) in dims.iter().enumerate().filter(|(_, &(d, _))| d > 1) {
            for down in [false, true] {
                let line = &marks[(k * 2 + usize::from(down)) * n..][..n];
                for base in (0..n).filter(|&node| (node / stride) % d == 0) {
                    let mut count = 0;
                    for pos in 0..d {
                        let from = base + pos * stride;
                        count += line[from];
                        if count == 0 {
                            continue;
                        }
                        let to = match (down, pos) {
                            (false, p) if p + 1 == d => base,
                            (false, _) => from + stride,
                            (true, 0) => base + (d - 1) * stride,
                            (true, _) => from - stride,
                        };
                        *loads.entry(Link::new(from, to)).or_insert(0) += count as u64;
                    }
                }
            }
        }
        loads
    }

    /// Fault-aware routing: the dimension-ordered route when it avoids
    /// every link in `dead`, else the shortest detour that does.
    ///
    /// The detour is a breadth-first search over live links with
    /// neighbors visited in ascending node-id order, so for a given
    /// `(u, v, dead)` the result is unique and deterministic — both
    /// executors compute the same path. Returns `None` when the dead
    /// links disconnect `v` from `u`; with an empty fault set the result
    /// is always `Some(route(u, v))` exactly.
    pub fn route_avoiding(&self, u: NodeId, v: NodeId, dead: &HashSet<Link>) -> Option<Vec<Link>> {
        if u == v {
            return Some(Vec::new());
        }
        let dim = self.route(u, v);
        if dead.is_empty() || dim.iter().all(|l| !dead.contains(l)) {
            return Some(dim);
        }
        // BFS detour. prev[x] = node we reached x from (usize::MAX = unseen).
        let n = self.num_nodes();
        let mut prev = vec![usize::MAX; n];
        prev[u] = u;
        let mut queue = VecDeque::from([u]);
        while let Some(cur) = queue.pop_front() {
            if cur == v {
                break;
            }
            let mut nbs = self.neighbors(cur);
            nbs.sort_unstable();
            for nb in nbs {
                if prev[nb] == usize::MAX && !dead.contains(&Link::new(cur, nb)) {
                    prev[nb] = cur;
                    queue.push_back(nb);
                }
            }
        }
        if prev[v] == usize::MAX {
            return None;
        }
        let mut hops = Vec::new();
        let mut cur = v;
        while cur != u {
            hops.push(Link::new(prev[cur], cur));
            cur = prev[cur];
        }
        hops.reverse();
        Some(hops)
    }

    /// The next node on the dimension-ordered route from `cur` towards `dst`.
    ///
    /// Panics if `cur == dst`.
    pub fn next_hop(&self, cur: NodeId, dst: NodeId) -> NodeId {
        debug_assert_ne!(cur, dst);
        match *self {
            Topology::Mesh2D { cols, .. } => {
                let (cr, cc) = (cur / cols, cur % cols);
                let (dr, dc) = (dst / cols, dst % cols);
                // X (column index) first, then Y (row index).
                if cc != dc {
                    if dc > cc {
                        cur + 1
                    } else {
                        cur - 1
                    }
                } else if dr > cr {
                    cur + cols
                } else {
                    cur - cols
                }
            }
            Topology::Torus3D { dx, dy, dz } => {
                let (cx, cy, cz) = Self::torus_coords(cur, dx, dy, dz);
                let (tx, ty, tz) = Self::torus_coords(dst, dx, dy, dz);
                let (nx, ny, nz) = if cx != tx {
                    (Self::torus_step(cx, tx, dx), cy, cz)
                } else if cy != ty {
                    (cx, Self::torus_step(cy, ty, dy), cz)
                } else {
                    (cx, cy, Self::torus_step(cz, tz, dz))
                };
                Self::torus_id(nx, ny, nz, dx, dy)
            }
            Topology::Hypercube { .. } => {
                let diff = cur ^ dst;
                let bit = diff.trailing_zeros();
                cur ^ (1usize << bit)
            }
        }
    }

    /// Nodes adjacent to `u` (unordered).
    pub fn neighbors(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        match *self {
            Topology::Mesh2D { rows, cols } => {
                let (r, c) = (u / cols, u % cols);
                if c > 0 {
                    out.push(u - 1);
                }
                if c + 1 < cols {
                    out.push(u + 1);
                }
                if r > 0 {
                    out.push(u - cols);
                }
                if r + 1 < rows {
                    out.push(u + cols);
                }
            }
            Topology::Torus3D { dx, dy, dz } => {
                let (x, y, z) = Self::torus_coords(u, dx, dy, dz);
                let mut push = |a: usize, b: usize, c: usize| {
                    let id = Self::torus_id(a, b, c, dx, dy);
                    if id != u && !out.contains(&id) {
                        out.push(id);
                    }
                };
                push((x + 1) % dx, y, z);
                push((x + dx - 1) % dx, y, z);
                push(x, (y + 1) % dy, z);
                push(x, (y + dy - 1) % dy, z);
                push(x, y, (z + 1) % dz);
                push(x, y, (z + dz - 1) % dz);
            }
            Topology::Hypercube { dim } => {
                for b in 0..dim {
                    out.push(u ^ (1usize << b));
                }
            }
        }
        out
    }

    /// A 3-D torus with near-cubic dimensions for `p` nodes.
    ///
    /// Factors `p` into `dx ≥ dy ≥ dz` as balanced as possible; used to
    /// model T3D partitions of a given size. Panics when `p == 0`.
    pub fn torus_for(p: usize) -> Topology {
        assert!(p > 0, "torus_for(0)");
        let mut best = (p, 1, 1);
        let mut best_score = usize::MAX;
        let mut dz = 1;
        while dz * dz * dz <= p {
            if p.is_multiple_of(dz) {
                let rest = p / dz;
                let mut dy = dz;
                while dy * dy <= rest {
                    if rest.is_multiple_of(dy) {
                        let dx = rest / dy;
                        // Prefer balanced dimensions: minimize surface proxy.
                        let score = dx - dz;
                        if score < best_score {
                            best_score = score;
                            best = (dx, dy, dz);
                        }
                    }
                    dy += 1;
                }
            }
            dz += 1;
        }
        Topology::Torus3D {
            dx: best.0,
            dy: best.1,
            dz: best.2,
        }
    }

    #[inline]
    fn torus_coords(id: NodeId, dx: usize, dy: usize, dz: usize) -> (usize, usize, usize) {
        debug_assert!(id < dx * dy * dz);
        (id % dx, (id / dx) % dy, id / (dx * dy))
    }

    #[inline]
    fn torus_id(x: usize, y: usize, z: usize, dx: usize, dy: usize) -> NodeId {
        x + dx * (y + dy * z)
    }

    /// Distance along one torus dimension (shortest wrap direction).
    #[inline]
    fn torus_dist(a: usize, b: usize, d: usize) -> usize {
        let fwd = (b + d - a) % d;
        fwd.min(d - fwd)
    }

    /// One coordinate step towards `t` along the shorter wrap direction.
    /// Ties (`fwd == bwd`) break towards increasing coordinate, so routing
    /// stays deterministic.
    #[inline]
    fn torus_step(c: usize, t: usize, d: usize) -> usize {
        let fwd = (t + d - c) % d;
        let bwd = d - fwd;
        if fwd <= bwd {
            (c + 1) % d
        } else {
            (c + d - 1) % d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_route_is_contiguous() {
        let t = Topology::Mesh2D { rows: 1, cols: 8 };
        let r = t.route(1, 5);
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], Link::new(1, 2));
        assert_eq!(r[3], Link::new(4, 5));
    }

    #[test]
    fn linear_route_backwards() {
        let t = Topology::Mesh2D { rows: 1, cols: 8 };
        let r = t.route(5, 1);
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], Link::new(5, 4));
        assert_eq!(r[3], Link::new(2, 1));
    }

    #[test]
    fn mesh_routes_x_first() {
        let t = Topology::Mesh2D { rows: 4, cols: 4 };
        // (0,0) -> (2,3): expect column moves first (0,0)->(0,3), then rows.
        let r = t.route(0, 2 * 4 + 3);
        let hops: Vec<_> = r.iter().map(|l| l.to).collect();
        assert_eq!(hops, vec![1, 2, 3, 7, 11]);
    }

    #[test]
    fn mesh_distance_is_manhattan() {
        let t = Topology::Mesh2D { rows: 5, cols: 7 };
        for u in 0..35 {
            for v in 0..35 {
                assert_eq!(t.distance(u, v), t.route(u, v).len());
            }
        }
    }

    #[test]
    fn mesh_self_route_empty() {
        let t = Topology::Mesh2D { rows: 3, cols: 3 };
        assert!(t.route(4, 4).is_empty());
        assert_eq!(t.distance(4, 4), 0);
    }

    #[test]
    fn torus_wraps_shortest_way() {
        let t = Topology::Torus3D {
            dx: 8,
            dy: 1,
            dz: 1,
        };
        // 0 -> 6 should wrap backwards: distance 2, not 6.
        assert_eq!(t.distance(0, 6), 2);
        let r = t.route(0, 6);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], Link::new(0, 7));
        assert_eq!(r[1], Link::new(7, 6));
    }

    #[test]
    fn torus_distance_matches_route_len() {
        let t = Topology::Torus3D {
            dx: 4,
            dy: 3,
            dz: 2,
        };
        let n = t.num_nodes();
        for u in 0..n {
            for v in 0..n {
                assert_eq!(t.distance(u, v), t.route(u, v).len(), "u={u} v={v}");
            }
        }
    }

    #[test]
    fn torus_route_stays_in_range() {
        let t = Topology::Torus3D {
            dx: 4,
            dy: 4,
            dz: 2,
        };
        let n = t.num_nodes();
        for u in 0..n {
            for v in 0..n {
                for l in t.route(u, v) {
                    assert!(l.from < n && l.to < n);
                    // every hop is between neighbors
                    assert!(t.neighbors(l.from).contains(&l.to));
                }
            }
        }
    }

    /// The per-dimension walks of `route_into` take the same hops as
    /// following `next_hop`, and `distance` counts them, for every pair
    /// of nodes — on size-1 and size-2 dimensions and even rings (where
    /// the torus tie rule decides) too.
    #[test]
    fn routes_follow_next_hop() {
        let meshes = [(4, 4), (8, 3), (1, 7), (7, 1), (16, 16)]
            .map(|(rows, cols)| Topology::Mesh2D { rows, cols });
        let tori = [(8, 4, 4), (5, 3, 2), (4, 4, 4), (2, 2, 2), (1, 6, 1)]
            .map(|(dx, dy, dz)| Topology::Torus3D { dx, dy, dz });
        let mut route = Vec::new();
        for t in meshes.iter().chain(&tori) {
            let n = t.num_nodes();
            for u in 0..n {
                for v in 0..n {
                    let mut walk = Vec::new();
                    let mut cur = u;
                    while cur != v {
                        walk.push(Link::new(cur, t.next_hop(cur, v)));
                        cur = walk.last().unwrap().to;
                    }
                    t.route_into(u, v, &mut route);
                    assert_eq!(route, walk, "{t:?} {u}->{v}");
                    assert_eq!(t.distance(u, v), route.len(), "{t:?} {u}->{v}");
                }
            }
        }
    }

    #[test]
    fn hypercube_routes_by_bits() {
        let t = Topology::Hypercube { dim: 4 };
        let r = t.route(0b0000, 0b1011);
        assert_eq!(r.len(), 3);
        let hops: Vec<_> = r.iter().map(|l| l.to).collect();
        assert_eq!(hops, vec![0b0001, 0b0011, 0b1011]);
    }

    #[test]
    fn hypercube_neighbors() {
        let t = Topology::Hypercube { dim: 3 };
        let mut nb = t.neighbors(0b101);
        nb.sort_unstable();
        assert_eq!(nb, vec![0b001, 0b100, 0b111]);
    }

    #[test]
    fn torus_for_factors_balanced() {
        match Topology::torus_for(128) {
            Topology::Torus3D { dx, dy, dz } => {
                assert_eq!(dx * dy * dz, 128);
                assert!(dx >= dy && dy >= dz);
                assert!(
                    dx <= 8,
                    "expected near-cubic factorization, got {dx}x{dy}x{dz}"
                );
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn torus_for_prime() {
        match Topology::torus_for(13) {
            Topology::Torus3D { dx, dy, dz } => {
                assert_eq!((dx, dy, dz), (13, 1, 1));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn mesh_neighbors_corner_and_center() {
        let t = Topology::Mesh2D { rows: 3, cols: 3 };
        let mut corner = t.neighbors(0);
        corner.sort_unstable();
        assert_eq!(corner, vec![1, 3]);
        let mut center = t.neighbors(4);
        center.sort_unstable();
        assert_eq!(center, vec![1, 3, 5, 7]);
    }

    #[test]
    fn routes_are_deterministic() {
        let t = Topology::Torus3D {
            dx: 4,
            dy: 4,
            dz: 4,
        };
        assert_eq!(t.route(3, 49), t.route(3, 49));
    }

    #[test]
    fn route_avoiding_detours_around_dead_link() {
        let t = Topology::Mesh2D { rows: 3, cols: 3 };
        // Dimension route 0 -> 2 is 0-1-2; kill 1 -> 2.
        let dead = HashSet::from([Link::new(1, 2)]);
        let detour = t.route_avoiding(0, 2, &dead).unwrap();
        assert!(detour.iter().all(|l| !dead.contains(l)));
        assert_eq!(detour.first().unwrap().from, 0);
        assert_eq!(detour.last().unwrap().to, 2);
        // Still a valid walk over adjacent nodes.
        for w in detour.windows(2) {
            assert_eq!(w[0].to, w[1].from);
        }
        // Deterministic.
        assert_eq!(detour, t.route_avoiding(0, 2, &dead).unwrap());
    }

    #[test]
    fn route_avoiding_reports_disconnection() {
        let t = Topology::Mesh2D { rows: 1, cols: 3 };
        // A line has no detour around a dead middle link.
        let dead = HashSet::from([Link::new(1, 2)]);
        assert_eq!(t.route_avoiding(0, 2, &dead), None);
        // The reverse direction is a different link and stays usable.
        assert!(t.route_avoiding(2, 0, &dead).is_some());
        // Self-route is always reachable.
        assert_eq!(t.route_avoiding(2, 2, &dead), Some(vec![]));
    }

    #[test]
    fn route_avoiding_empty_set_is_dimension_ordered() {
        let dead = HashSet::new();
        for t in [
            Topology::Mesh2D { rows: 1, cols: 6 },
            Topology::Mesh2D { rows: 3, cols: 4 },
            Topology::Torus3D {
                dx: 3,
                dy: 2,
                dz: 2,
            },
            Topology::Hypercube { dim: 3 },
        ] {
            let n = t.num_nodes();
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(t.route_avoiding(u, v, &dead), Some(t.route(u, v)));
                }
            }
        }
    }
}

#[cfg(test)]
mod route_avoiding_props {
    use super::*;
    use proptest::prelude::*;

    /// The three topology families at proptest-sized scales, with long
    /// one-row meshes (lines) drawn on their own.
    fn arb_topology() -> impl Strategy<Value = Topology> {
        prop_oneof![
            (2usize..12).prop_map(|cols| Topology::Mesh2D { rows: 1, cols }),
            (1usize..5, 1usize..5).prop_map(|(rows, cols)| Topology::Mesh2D { rows, cols }),
            (1usize..4, 1usize..4, 1usize..4).prop_map(|(dx, dy, dz)| Topology::Torus3D {
                dx,
                dy,
                dz
            }),
            (1u32..5).prop_map(|dim| Topology::Hypercube { dim }),
        ]
    }

    /// A topology plus two nodes and a set of dead links drawn from it.
    fn arb_case() -> impl Strategy<Value = (Topology, NodeId, NodeId, Vec<(usize, usize)>)> {
        arb_topology().prop_flat_map(|t| {
            let n = t.num_nodes();
            (
                Just(t),
                0..n,
                0..n,
                proptest::collection::vec((0..n, 0..n), 0..6),
            )
        })
    }

    /// Turn raw node pairs into dead links that actually exist in the
    /// topology (a dead link between non-neighbors is meaningless).
    fn dead_set(t: &Topology, raw: &[(usize, usize)]) -> HashSet<Link> {
        raw.iter()
            .filter(|(a, b)| t.neighbors(*a).contains(b))
            .map(|&(a, b)| Link::new(a, b))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `route_avoiding` terminates, and when it yields a path that
        /// path is a valid u→v walk over live adjacent links.
        #[test]
        fn never_traverses_dead_links((t, u, v, raw) in arb_case()) {
            let dead = dead_set(&t, &raw);
            if let Some(path) = t.route_avoiding(u, v, &dead) {
                if u == v {
                    prop_assert!(path.is_empty());
                } else {
                    prop_assert_eq!(path.first().unwrap().from, u);
                    prop_assert_eq!(path.last().unwrap().to, v);
                }
                for hop in &path {
                    prop_assert!(!dead.contains(hop), "dead link {hop:?} traversed");
                    prop_assert!(t.neighbors(hop.from).contains(&hop.to));
                }
                for w in path.windows(2) {
                    prop_assert_eq!(w[0].to, w[1].from);
                }
                // BFS detours are at most every node once.
                prop_assert!(path.len() < t.num_nodes());
            }
        }

        /// `route_loads` counts what walking every route hop by hop
        /// counts, on every family (rings of one and two nodes, where a
        /// step up and a step down can be one link, included).
        #[test]
        fn route_loads_count_the_routes(
            (t, pairs) in arb_topology().prop_flat_map(|t| {
                let n = t.num_nodes();
                (Just(t), proptest::collection::vec((0..n, 0..n), 0..40))
            }),
        ) {
            let mut want = std::collections::BTreeMap::new();
            for &(u, v) in &pairs {
                for link in t.route(u, v) {
                    *want.entry(link).or_insert(0u64) += 1;
                }
            }
            prop_assert_eq!(t.route_loads(pairs.iter().copied()), want);
        }

        /// With no faults the route is exactly the dimension-ordered one.
        #[test]
        fn empty_fault_set_is_identity((t, u, v, _) in arb_case()) {
            prop_assert_eq!(t.route_avoiding(u, v, &HashSet::new()), Some(t.route(u, v)));
        }

        /// `None` is returned only when v is genuinely unreachable from u
        /// over live links (checked against an independent reachability
        /// scan).
        #[test]
        fn none_means_disconnected((t, u, v, raw) in arb_case()) {
            let dead = dead_set(&t, &raw);
            let mut seen = HashSet::from([u]);
            let mut stack = vec![u];
            while let Some(cur) = stack.pop() {
                for nb in t.neighbors(cur) {
                    if !dead.contains(&Link::new(cur, nb)) && seen.insert(nb) {
                        stack.push(nb);
                    }
                }
            }
            prop_assert_eq!(t.route_avoiding(u, v, &dead).is_some(), seen.contains(&v));
        }
    }
}
