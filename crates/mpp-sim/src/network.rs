//! Network resource state: link and port reservations.
//!
//! The unit of contention is a directed [`Link`] plus one injection port
//! and one ejection port per node. A transfer reserves each link of its
//! dimension-ordered route for a *staggered* window (head arrives at link
//! `i` at `start + i·τ`, the link drains for the full serialization
//! time) — a pipelined wormhole model: transfers whose routes overlap
//! serialize on the shared links only, not on their whole paths.

use std::collections::HashMap;

use mpp_model::{Link, Machine, Time};

use crate::record::LinkWindow;

/// Per-directed-link busy-until times.
///
/// Links are the hottest lookup in the kernel (every hop of every
/// transfer probes and updates one), so for machines of realistic size
/// the table is a dense `n × n` array indexed `from · n + to` — O(1)
/// with no hashing and no per-insert allocation. Pathologically large
/// node counts fall back to a hash map to keep memory bounded.
#[derive(Debug)]
enum LinkTable {
    Dense { busy: Vec<Time>, n: usize },
    Sparse(HashMap<Link, Time>),
}

/// Largest node count that gets the dense table (512² entries = 2 MiB).
const DENSE_MAX_NODES: usize = 512;

impl LinkTable {
    fn new(n: usize) -> LinkTable {
        if n <= DENSE_MAX_NODES {
            LinkTable::Dense {
                busy: vec![0; n * n],
                n,
            }
        } else {
            LinkTable::Sparse(HashMap::new())
        }
    }

    /// Busy-until time of a link (0 = never used).
    #[inline]
    fn get(&self, link: &Link) -> Time {
        match self {
            LinkTable::Dense { busy, n } => busy[link.from * n + link.to],
            LinkTable::Sparse(map) => map.get(link).copied().unwrap_or(0),
        }
    }

    #[inline]
    fn set(&mut self, link: &Link, until: Time) {
        match self {
            LinkTable::Dense { busy, n } => busy[link.from * *n + link.to] = until,
            LinkTable::Sparse(map) => {
                map.insert(*link, until);
            }
        }
    }
}

/// Mutable reservation state of the interconnect during a simulation.
#[derive(Debug)]
pub struct NetworkState {
    /// Per-directed-link busy-until time.
    link_busy: LinkTable,
    /// Scratch route buffer reused across transfers (see
    /// [`Topology::route_into`][mpp_model::Topology::route_into]).
    route_buf: Vec<Link>,
    /// Per-node injection-port slots (`ports_per_node` each), busy-until.
    out_port_busy: Vec<Vec<Time>>,
    /// Per-node ejection-port slots, busy-until.
    in_port_busy: Vec<Vec<Time>>,
    /// Total number of link-contention stalls observed (a transfer found a
    /// link busy past its software-ready time).
    pub contention_events: u64,
    /// Total stall time accumulated across transfers (ns).
    pub contention_ns: Time,
    /// Stall of the most recent transfer (ns) — read by the kernel when
    /// tracing is enabled.
    pub last_stall_ns: Time,
    /// When set, every [`NetworkState::transfer_routed`] fills
    /// [`NetworkState::witness`] with its full reservation record — the
    /// schedule recorder's timing ground truth. Off in plain timed runs
    /// so the hot path pays one predictable branch.
    pub witness_on: bool,
    /// The most recent transfer's reservation record (valid only right
    /// after a `transfer_routed` call with `witness_on` set).
    pub witness: XferWitness,
}

/// Everything one routed transfer reserved — consumed by the schedule
/// recorder so the static cost engine can be checked for exact
/// conformance against the kernel.
#[derive(Debug, Default)]
pub struct XferWitness {
    /// The instant the message was handed to the network (ns).
    pub ready_ns: Time,
    /// Head injection instant after port and link arbitration (ns).
    pub start_ns: Time,
    /// Arrival at the destination (ns).
    pub done_ns: Time,
    /// Injection-port slot reserved at the source node.
    pub out_slot: usize,
    /// Ejection-port slot reserved at the destination node.
    pub in_slot: usize,
    /// Per-hop link reservations of *every* witnessed transfer so far,
    /// back to back and in route order: the recorder's flat window array,
    /// which the kernel moves into the log when the run ends. The most
    /// recent transfer's windows are `windows[first_window..]`.
    pub windows: Vec<LinkWindow>,
    /// Where the most recent transfer's windows begin in `windows`.
    pub first_window: usize,
}

/// Index of the earliest-free slot (ties → lowest index, deterministic).
fn best_slot(slots: &[Time]) -> usize {
    let mut best = 0;
    for (i, &t) in slots.iter().enumerate().skip(1) {
        if t < slots[best] {
            best = i;
        }
    }
    best
}

impl NetworkState {
    /// Fresh, idle network for the given machine.
    pub fn new(machine: &Machine) -> Self {
        let n = machine.topology.num_nodes();
        // `MachineParams::validate` (run at `Machine::new`) guarantees
        // at least one port slot; no defensive clamp needed here.
        let k = machine.params.ports_per_node;
        NetworkState {
            link_busy: LinkTable::new(n),
            route_buf: Vec::new(),
            out_port_busy: vec![vec![0; k]; n],
            in_port_busy: vec![vec![0; k]; n],
            contention_events: 0,
            contention_ns: 0,
            last_stall_ns: 0,
            witness_on: false,
            witness: XferWitness::default(),
        }
    }

    /// Reserve the route for one transfer and return its arrival time.
    ///
    /// `ready` is the instant the message is software-ready at the sender
    /// (clock + α_send); `bytes` is the message size (a self-send is
    /// charged as a memcpy of it); `wire_ns` the serialization time for
    /// those bytes (already scaled for the library flavour by the
    /// caller).
    ///
    /// Wormhole pipelining: the message head reaches link `i` at
    /// `start + i·τ` and occupies it for `wire_ns`; each link is
    /// reserved only for its own window, so transfers whose routes
    /// overlap serialize on the shared links rather than on the whole
    /// path.
    pub fn transfer(
        &mut self,
        machine: &Machine,
        from_rank: usize,
        to_rank: usize,
        bytes: usize,
        wire_ns: Time,
        ready: Time,
    ) -> Time {
        if from_rank == to_rank {
            // Local delivery: a memcpy, no network resources.
            self.last_stall_ns = 0;
            return ready + machine.params.memcpy_ns(bytes);
        }
        let mut route = std::mem::take(&mut self.route_buf);
        machine.topology.route_into(
            machine.node_of(from_rank),
            machine.node_of(to_rank),
            &mut route,
        );
        let done = self.transfer_routed(machine, from_rank, to_rank, wire_ns, ready, &route);
        self.route_buf = route;
        done
    }

    /// Like [`NetworkState::transfer`] but over an explicit `route`
    /// (e.g. a fault detour instead of the dimension-ordered path).
    ///
    /// The contention baseline is the resource-free traversal of *this*
    /// route, so a longer detour charges its extra hops as routing cost,
    /// not as link contention — the caller accounts detour overhead
    /// separately. `route` must be a valid `from → to` walk; callers
    /// handle `from_rank == to_rank` before routing.
    pub fn transfer_routed(
        &mut self,
        machine: &Machine,
        from_rank: usize,
        to_rank: usize,
        wire_ns: Time,
        ready: Time,
        route: &[Link],
    ) -> Time {
        let params = &machine.params;
        self.last_stall_ns = 0;
        let witness_on = self.witness_on;
        if witness_on {
            self.witness.first_window = self.witness.windows.len();
        }
        debug_assert_ne!(from_rank, to_rank, "self-sends bypass the network");
        let u = machine.node_of(from_rank);
        let v = machine.node_of(to_rank);
        let tau = params.tau_hop_ns;

        let out_slot = best_slot(&self.out_port_busy[u]);
        let in_slot = best_slot(&self.in_port_busy[v]);
        let port_free = ready
            .max(self.out_port_busy[u][out_slot])
            .max(self.in_port_busy[v][in_slot].saturating_sub(route.len() as Time * tau));

        // The head reaches link `i` at `start + i·τ`, so a link busy
        // until `b` delays the start to `b − i·τ`; each link then drains
        // for the full serialization time.
        let mut start = port_free;
        for (i, link) in route.iter().enumerate() {
            start = start.max(self.link_busy.get(link).saturating_sub(i as Time * tau));
        }
        let done = start + params.hops_ns(route.len()) + wire_ns;
        for (i, link) in route.iter().enumerate() {
            let from_ns = start + i as Time * tau;
            self.link_busy.set(link, from_ns + wire_ns);
            if witness_on {
                self.witness.windows.push(LinkWindow {
                    link: *link,
                    from_ns,
                    until_ns: from_ns + wire_ns,
                });
            }
        }
        // Any delay beyond the resource-free traversal of this route
        // counts as a stall (detour hops are the caller's cost, not ours).
        let unconstrained = ready + params.hops_ns(route.len()) + wire_ns;
        if done > unconstrained {
            let stall = done - unconstrained;
            self.contention_events += 1;
            self.contention_ns += stall;
            self.last_stall_ns = stall;
        }
        self.out_port_busy[u][out_slot] = start + wire_ns;
        self.in_port_busy[v][in_slot] = done;
        if witness_on {
            self.witness.ready_ns = ready;
            self.witness.start_ns = start;
            self.witness.done_ns = done;
            self.witness.out_slot = out_slot;
            self.witness.in_slot = in_slot;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_model::Machine;

    fn m() -> Machine {
        Machine::paragon(4, 4)
    }

    #[test]
    fn uncontended_transfer_cost() {
        let machine = m();
        let mut net = NetworkState::new(&machine);
        let t = net.transfer(
            &machine,
            0,
            3,
            1024,
            machine.params.serialize_ns(1024),
            1000,
        );
        let expect = 1000 + machine.params.hops_ns(3) + machine.params.serialize_ns(1024);
        assert_eq!(t, expect);
        assert_eq!(net.contention_events, 0);
    }

    #[test]
    fn shared_link_serializes() {
        let machine = m();
        let mut net = NetworkState::new(&machine);
        // 0 -> 3 and 1 -> 3 share links (1->2, 2->3).
        let t1 = net.transfer(&machine, 0, 3, 4096, machine.params.serialize_ns(4096), 0);
        let t2 = net.transfer(&machine, 1, 3, 4096, machine.params.serialize_ns(4096), 0);
        assert!(t2 > t1, "second transfer must wait for the shared link");
        assert_eq!(net.contention_events, 1);
        assert!(net.contention_ns > 0);
    }

    #[test]
    fn disjoint_routes_do_not_interact() {
        let machine = m();
        let mut net = NetworkState::new(&machine);
        // 0 -> 1 (top-left) and 14 -> 15 (bottom-right) are disjoint.
        let t1 = net.transfer(&machine, 0, 1, 4096, machine.params.serialize_ns(4096), 0);
        let t2 = net.transfer(&machine, 14, 15, 4096, machine.params.serialize_ns(4096), 0);
        assert_eq!(t1, t2);
        assert_eq!(net.contention_events, 0);
    }

    #[test]
    fn opposite_directions_do_not_collide() {
        let machine = m();
        let mut net = NetworkState::new(&machine);
        let t1 = net.transfer(&machine, 0, 1, 4096, machine.params.serialize_ns(4096), 0);
        let t2 = net.transfer(&machine, 1, 0, 4096, machine.params.serialize_ns(4096), 0);
        // Bidirectional exchange: both directions proceed in parallel,
        // but node ports are also resources; 1's in-port (t1) and 1's
        // out-port (t2) are distinct, so no serialization here.
        assert_eq!(t1, t2);
    }

    #[test]
    fn ejection_port_is_a_hot_spot() {
        // Many senders to one destination serialize at its in-port even if
        // their routes are otherwise disjoint — the 2-Step bottleneck.
        let machine = Machine::paragon(1, 8);
        let mut net = NetworkState::new(&machine);
        let mut last = 0;
        for src in 1..8 {
            let t = net.transfer(&machine, src, 0, 8192, machine.params.serialize_ns(8192), 0);
            assert!(t > last);
            last = t;
        }
        assert!(net.contention_events >= 6);
    }

    #[test]
    fn self_send_uses_memcpy_cost() {
        let machine = m();
        let mut net = NetworkState::new(&machine);
        let t = net.transfer(&machine, 5, 5, 2048, machine.params.serialize_ns(2048), 100);
        assert_eq!(t, 100 + machine.params.memcpy_ns(2048));
        assert_eq!(net.contention_events, 0);
    }

    #[test]
    fn same_ready_transfers_take_ascending_port_slots() {
        // The multi-port batch contract: k transfers handed to the
        // network at the same ready instant (one `send_batch`) must
        // occupy the k injection slots in deterministic ascending order
        // of issue — the property that keeps recordings byte-identical
        // and lets the cost engine re-derive the slot assignment from
        // the recording alone.
        use mpp_model::MachineParams;
        let machine = Machine::new(
            "Paragon 4x4 (5-port)",
            mpp_model::Topology::Mesh2D { rows: 4, cols: 4 },
            MachineParams::paragon_nx().with_ports(5),
            mpp_model::Placement::Identity,
            mpp_model::MeshShape::new(4, 4),
        );
        let mut net = NetworkState::new(&machine);
        net.witness_on = true;
        let ready = 46_000;
        for (i, dst) in [1usize, 4, 5, 2, 8].into_iter().enumerate() {
            net.transfer(
                &machine,
                0,
                dst,
                4096,
                machine.params.serialize_ns(4096),
                ready,
            );
            assert_eq!(
                net.witness.out_slot, i,
                "batch member {i} (0 -> {dst}) must take injection slot {i}"
            );
            assert_eq!(net.witness.ready_ns, ready);
        }
    }

    #[test]
    fn out_port_serializes_back_to_back_sends() {
        let machine = m();
        let mut net = NetworkState::new(&machine);
        let t1 = net.transfer(&machine, 0, 1, 65536, machine.params.serialize_ns(65536), 0);
        // Different destination, same sender: injection port busy.
        let t2 = net.transfer(&machine, 0, 4, 65536, machine.params.serialize_ns(65536), 0);
        assert!(t2 > t1);
    }
}
