//! Network resource state: link and port reservations.
//!
//! The unit of contention is a directed [`Link`] plus one injection port
//! and one ejection port per node. A transfer reserves each link of its
//! dimension-ordered route for a *staggered* window (head arrives at link
//! `i` at `start + i·τ`, the link drains for the full serialization
//! time) — a pipelined wormhole model: transfers whose routes overlap
//! serialize on the shared links only, not on their whole paths.

use std::collections::HashMap;

use mpp_model::{ContentionModel, Link, Machine, Time};

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
    /// (clock + α_send); `bytes` is the on-wire size; `wire_ns` the
    /// serialization time for those bytes (already scaled for the
    /// library flavour by the caller).
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
        let done = self.transfer_routed(machine, from_rank, to_rank, bytes, wire_ns, ready, &route);
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
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_routed(
        &mut self,
        machine: &Machine,
        from_rank: usize,
        to_rank: usize,
        bytes: usize,
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

        let (start, done) = match params.contention {
            ContentionModel::Shared => {
                // Each link is a queueing server at the hardware channel
                // rate: the head queues at congested links, the tail
                // drains at the (slower) software rate behind it.
                let link_ns = params.link_ns(bytes);
                let mut head = port_free;
                for link in route {
                    head = head.max(self.link_busy.get(link));
                    self.link_busy.set(link, head + link_ns);
                    if witness_on {
                        self.witness.windows.push(LinkWindow {
                            link: *link,
                            from_ns: head,
                            until_ns: head + link_ns,
                        });
                    }
                    head += tau;
                }
                let done = head + wire_ns;
                // The tail drains behind the (possibly stalled) head, so
                // the injection port stays occupied relative to where the
                // head actually got to — not to the stall-free schedule.
                // (`head` has advanced len·τ past the last queueing point.)
                let start = head - route.len() as Time * tau;
                (start, done)
            }
            model => {
                // The worm occupies each link for the full transfer;
                // Pipelined staggers the windows by the head latency,
                // Circuit holds every link until the tail drains.
                let pipelined = model == ContentionModel::Pipelined;
                let mut start = port_free;
                for (i, link) in route.iter().enumerate() {
                    let busy = self.link_busy.get(link);
                    let slack = if pipelined { i as Time * tau } else { 0 };
                    start = start.max(busy.saturating_sub(slack));
                }
                let done = start + params.hops_ns(route.len()) + wire_ns;
                for (i, link) in route.iter().enumerate() {
                    let until = if pipelined {
                        start + i as Time * tau + wire_ns
                    } else {
                        done
                    };
                    self.link_busy.set(link, until);
                    if witness_on {
                        let from_ns = if pipelined {
                            start + i as Time * tau
                        } else {
                            start
                        };
                        self.witness.windows.push(LinkWindow {
                            link: *link,
                            from_ns,
                            until_ns: until,
                        });
                    }
                }
                (start, done)
            }
        };
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
    fn circuit_model_holds_whole_route() {
        use mpp_model::{MachineParams, MeshShape, Placement, Topology};
        let mut params = MachineParams::paragon_nx();
        params.contention = ContentionModel::Circuit;
        let machine = Machine::new(
            "circuit",
            Topology::Mesh2D { rows: 1, cols: 8 },
            params,
            Placement::Identity,
            MeshShape::new(1, 8),
        );
        let mut net_c = NetworkState::new(&machine);
        let wire = machine.params.serialize_ns(8192);
        // long transfer 0 -> 7 holds every link until done...
        let t1 = net_c.transfer(&machine, 0, 7, 8192, wire, 0);
        // ... so a later short transfer on the tail link waits for it.
        let t2 = net_c.transfer(&machine, 6, 7, 64, machine.params.serialize_ns(64), 0);
        assert!(t2 > t1, "circuit model must block the tail link until {t1}");

        // Under the shared (bandwidth-server) model the tail link frees
        // after only the hardware-rate window, so the short transfer
        // overtakes the long one.
        let mut sp = MachineParams::paragon_nx();
        sp.contention = ContentionModel::Shared;
        let sm = Machine::new(
            "shared",
            Topology::Mesh2D { rows: 1, cols: 8 },
            sp,
            Placement::Identity,
            MeshShape::new(1, 8),
        );
        let mut net_s = NetworkState::new(&sm);
        // Long transfer passes *through* node 6; a short transfer into
        // node 6 shares only the (5,6) link, which under the shared
        // model is held for the hardware-rate window, not the whole
        // software-rate drain.
        let q1 = net_s.transfer(&sm, 0, 7, 8192, sm.params.serialize_ns(8192), 0);
        let q2 = net_s.transfer(&sm, 5, 6, 64, sm.params.serialize_ns(64), 0);
        assert!(
            q2 < q1 / 2,
            "shared model should let the short transfer through: {q2} vs {q1}"
        );
    }

    #[test]
    fn shared_port_release_respects_stalled_head() {
        use mpp_model::{MachineParams, MeshShape, Placement, Topology};
        let mut params = MachineParams::paragon_nx();
        params.contention = ContentionModel::Shared;
        let machine = Machine::new(
            "shared",
            Topology::Mesh2D { rows: 1, cols: 8 },
            params,
            Placement::Identity,
            MeshShape::new(1, 8),
        );
        let tau = machine.params.tau_hop_ns;
        let mut net = NetworkState::new(&machine);
        // Congest a middle link with a fat transfer ...
        net.transfer(
            &machine,
            3,
            4,
            1 << 20,
            machine.params.serialize_ns(1 << 20),
            0,
        );
        // ... so a small 0 -> 7 message queues its head behind it.
        let b = net.transfer(&machine, 0, 7, 64, machine.params.serialize_ns(64), 0);
        assert!(
            b > machine.params.link_ns(1 << 20),
            "head should queue behind the fat transfer"
        );
        // Back-to-back second send from the same source: the injection
        // port is only released once the stalled first message drained
        // into the network, so the second send cannot overtake the
        // congestion (the bug released the port at port_free + wire_ns,
        // letting this complete almost immediately).
        let c = net.transfer(&machine, 0, 1, 64, machine.params.serialize_ns(64), 0);
        assert!(
            c + 6 * tau >= b,
            "second send finished at {c} despite first stalled until {b}"
        );
    }

    #[test]
    fn same_ready_transfers_take_ascending_port_slots() {
        // The multi-port batch contract: k transfers handed to the
        // network at the same ready instant (one `send_batch`) must
        // occupy the k injection slots in deterministic ascending order
        // of issue — the property that keeps coop and threaded
        // recordings byte-identical and lets the cost engine re-derive
        // the slot assignment from the recording alone.
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
