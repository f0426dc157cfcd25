//! The topology-independent adaptive router (paper §2.6.1).
//!
//! Based on the S-Connect design: virtual cut-through with a common
//! buffer pool, "hot potato" routing with increasing age and priority
//! when a message is non-optimally routed. Each Piranha processing node
//! has four channels (I/O nodes have two); the paper's links run at
//! 2 Gbit/s per wire for 4 GB/s of data per direction per channel.
//!
//! [`Network`] holds the topology, per-link bandwidth pipes, and
//! shortest-path next-hop tables, and walks a packet hop by hop at
//! injection time. At each hop the adaptive hot-potato router takes the
//! preferred (shortest-path) output unless its queue is backed up
//! beyond a patience threshold, in which case the packet deflects to
//! the least-loaded alternative link and its age/priority rise — old
//! packets stop deflecting, which guarantees delivery. A
//! [`QueueDiscipline`] then decides what happens when the chosen output
//! port's backlog exceeds its buffer capacity: drop-tail (drop, the
//! sender times out and re-walks), lossy-NACK (drop, an explicit NACK
//! returns to the sender, which re-walks after exponential backoff —
//! the link-level CRC/retransmit machinery of [`crate::recovery`]), or
//! PFC-style credit pause (never drop; the packet stalls until the port
//! drains below capacity). The default drop-tail capacity is
//! effectively unbounded, reproducing the paper's lossless fabric
//! bit-for-bit.
//!
//! Every discipline only ever *adds* latency over the ideal walk, and
//! no walk takes fewer hops than the BFS distance, so the conservative
//! per-pair bounds of [`Network::pair_bounds`] hold under all of them.

use piranha_kernel::{Counter, Histogram, Pipe};
use piranha_types::{Duration, NodeId, SimTime};

use crate::packet::Packet;
use crate::topology::Topology;

/// Maximum links per processing node (paper §2.6.1).
pub const MAX_CHANNELS: usize = 4;

/// Per-direction data bandwidth of one channel (4 GB/s in the paper).
const LINK_GB_S: u64 = 4;
/// Fixed per-hop latency: router fall-through + wire flight.
const HOP_LATENCY: Duration = Duration::from_ns(16);
/// How long a packet waits for its preferred link before deflecting.
const DEFLECT_PATIENCE: Duration = Duration::from_ns(30);
/// Age at which a packet stops deflecting and insists on the shortest
/// path (guarantees delivery).
const MAX_DEFLECT_AGE: u32 = 8;

/// What a switch does when the chosen output port's backlog exceeds its
/// buffer capacity. Capacity is expressed as backlog *time* on the
/// port's wire (bytes queued ÷ link bandwidth): a port whose pipe is
/// busy more than `capacity` past the packet's arrival refuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Drop the packet silently; the sender's loss timer expires and it
    /// re-walks the packet from the source (counted as a retransmit).
    DropTail {
        /// Maximum tolerated backlog at any output port.
        capacity: Duration,
    },
    /// Drop the packet and return an explicit NACK to the sender over
    /// the hops already taken; the sender re-walks after exponential
    /// backoff — the same CRC/NACK/retransmit machinery the link-fault
    /// recovery path uses ([`Network::resend`]).
    LossyNack {
        /// Maximum tolerated backlog at any output port.
        capacity: Duration,
    },
    /// Credit-based (PFC-style) pause: the packet is never dropped; it
    /// stalls at the switch until the port drains back below capacity.
    Pfc {
        /// Backlog at which the port asserts back-pressure.
        capacity: Duration,
    },
}

/// The default bounded buffer of the congested disciplines: eight
/// long-packet serializations at paper bandwidth (8 × 20 ns).
pub const CONGESTED_CAPACITY_NS: u64 = 160;

impl QueueDiscipline {
    /// The default discipline: drop-tail with an unbounded buffer —
    /// nothing is ever dropped or paused, matching the paper's lossless
    /// fabric (and the golden runs) exactly.
    pub fn unbounded() -> Self {
        // ~13 simulated days of backlog: unreachable by construction
        // (total wire time of a run is orders of magnitude smaller).
        QueueDiscipline::DropTail {
            capacity: Duration::from_ns(1 << 50),
        }
    }

    /// Parse a `--queue=` flag value into a *bounded* discipline with
    /// the [`CONGESTED_CAPACITY_NS`] buffer.
    pub fn parse(s: &str) -> Option<Self> {
        let capacity = Duration::from_ns(CONGESTED_CAPACITY_NS);
        match s.trim().to_ascii_lowercase().as_str() {
            "droptail" | "drop-tail" => Some(QueueDiscipline::DropTail { capacity }),
            "lossy" | "lossynack" | "lossy-nack" => Some(QueueDiscipline::LossyNack { capacity }),
            "pfc" | "pause" => Some(QueueDiscipline::Pfc { capacity }),
            _ => None,
        }
    }

    /// The flag spelling (stable, lowercase; used in report rows).
    pub fn label(self) -> &'static str {
        match self {
            QueueDiscipline::DropTail { .. } => "droptail",
            QueueDiscipline::LossyNack { .. } => "lossy",
            QueueDiscipline::Pfc { .. } => "pfc",
        }
    }

    /// The port buffer capacity.
    pub fn capacity(self) -> Duration {
        match self {
            QueueDiscipline::DropTail { capacity }
            | QueueDiscipline::LossyNack { capacity }
            | QueueDiscipline::Pfc { capacity } => capacity,
        }
    }
}

impl Default for QueueDiscipline {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Interconnect parameters. The link and router timing are the
/// paper's fixed values; only the switch ports' overflow behaviour is
/// configurable.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Output-port overflow behaviour.
    pub queue: QueueDiscipline,
}

impl NetworkConfig {
    /// The paper's fabric: 4 GB/s links, ~16 ns per hop, adaptive
    /// hot-potato routing over lossless (unbounded drop-tail) ports.
    pub fn paper_default() -> Self {
        NetworkConfig {
            queue: QueueDiscipline::unbounded(),
        }
    }

    /// The minimum latency any cross-node delivery can have: one
    /// shortest-packet wire serialization plus one hop of fall-through —
    /// the first hop of [`Network::send`] with an idle link, which every
    /// routed packet pays at least once. This is the conservative
    /// lookahead bound (per-link quantum) for parallel-in-space
    /// execution: no event a node emits at `t` can be observable at
    /// another node before `t + min_delivery_latency()`. 20 ns with the
    /// paper defaults (16 B at 4 GB/s = 4 ns, + 16 ns hop).
    pub fn min_delivery_latency(&self) -> Duration {
        Pipe::from_gb_per_s(LINK_GB_S).transfer_time(crate::PacketKind::Short.bytes()) + HOP_LATENCY
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A snapshot of the fabric's occupancy and loss counters, for probe
/// export and the `fig_scale` congestion sweeps.
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// Packets delivered.
    pub delivered: u64,
    /// Route walks attempted (`delivered + retransmits` — the packet
    /// ledger the scale sweep asserts on every row).
    pub walks: u64,
    /// Re-walks: link-fault retransmissions *and* drop recoveries.
    pub retransmits: u64,
    /// Hot-potato deflections, fabric-wide.
    pub deflections: u64,
    /// Packets refused by a full output port (drop-tail + lossy-NACK).
    pub drops: u64,
    /// PFC pause events (a packet stalled at a full port).
    pub pauses: u64,
    /// Total time packets spent stalled in PFC pauses.
    pub pause_time: Duration,
    /// Mean hops per delivered packet.
    pub mean_hops: f64,
    /// Number of unidirectional links in the fabric.
    pub links: usize,
    /// Total wire (serialization) time charged across all links.
    pub link_busy: Duration,
    /// Wire time of the single busiest link.
    pub max_link_busy: Duration,
    /// Deflections charged to each node's router.
    pub node_deflections: Vec<u64>,
}

impl FabricStats {
    /// Mean link utilization over `elapsed` simulated time (0 when the
    /// fabric has no links or no time has passed).
    pub fn occupancy(&self, elapsed: Duration) -> f64 {
        if self.links == 0 || elapsed == Duration::ZERO {
            return 0.0;
        }
        self.link_busy.as_ps() as f64 / (self.links as f64 * elapsed.as_ps() as f64)
    }
}

/// The inter-node network: topology + link occupancy + routing.
///
/// # Examples
///
/// ```
/// use piranha_net::{Network, NetworkConfig, Packet, PacketKind, Topology};
/// use piranha_types::{Lane, NodeId, SimTime};
///
/// let mut net: Network<&str> =
///     Network::new(Topology::ring(4), NetworkConfig::paper_default());
/// let pkt = Packet::new(NodeId(0), NodeId(2), Lane::Low, PacketKind::Short, "hello");
/// let (arrive, delivered) = net.send(SimTime::ZERO, pkt);
/// assert_eq!(delivered.payload, "hello");
/// assert_eq!(delivered.age, 2, "two ring hops");
/// assert!(arrive.as_ns() >= 32);
/// ```
#[derive(Debug)]
pub struct Network<P> {
    topo: Topology,
    cfg: NetworkConfig,
    next_hop: Vec<Vec<NodeId>>,
    /// links[src][k] = pipe for the k-th neighbour of src.
    links: Vec<Vec<Pipe>>,
    hops: Histogram,
    deflections: Counter,
    node_deflections: Vec<u64>,
    delivered: Counter,
    retransmits: Counter,
    drops: Counter,
    pauses: Counter,
    pause_time: Duration,
    /// Every hop-by-hop walk ever performed (first transmissions plus
    /// retransmissions). The credit-conservation invariant is
    /// `delivered + retransmits == walks`: a corrupted or dropped flit
    /// must be re-walked (returning its link credits to the pool via a
    /// fresh acquire), never half-accounted.
    walks: u64,
    _marker: std::marker::PhantomData<P>,
}

/// One attempt ended at a full port: when, and after how many hops.
struct PortFull {
    t: SimTime,
    hops_taken: u32,
}

impl<P> Network<P> {
    /// Build a network over `topo`.
    pub fn new(topo: Topology, cfg: NetworkConfig) -> Self {
        let next_hop = topo.next_hops();
        let links: Vec<Vec<Pipe>> = topo
            .adj
            .iter()
            .map(|nbrs| {
                nbrs.iter()
                    .map(|_| Pipe::from_gb_per_s(LINK_GB_S))
                    .collect()
            })
            .collect();
        let nodes = topo.nodes();
        Network {
            topo,
            cfg,
            next_hop,
            links,
            hops: Histogram::new(),
            deflections: Counter::new(),
            node_deflections: vec![0; nodes],
            delivered: Counter::new(),
            retransmits: Counter::new(),
            drops: Counter::new(),
            pauses: Counter::new(),
            pause_time: Duration::ZERO,
            walks: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// One hop-by-hop traversal attempt, charging link bandwidth at
    /// every hop taken; ends either at the destination or at the first
    /// output port whose discipline refuses the packet.
    fn attempt(&mut self, now: SimTime, pkt: &mut Packet<P>) -> Result<SimTime, PortFull> {
        let mut at = pkt.src;
        let mut t = now;
        let bytes = pkt.kind.bytes();
        let mut hops_taken = 0u32;
        while at != pkt.dst {
            let preferred = self.next_hop[at.index()][pkt.dst.index()];
            let pref_k = self
                .topo
                .neighbours(at)
                .iter()
                .position(|&n| n == preferred)
                .expect("next-hop table consistent with adjacency");
            let pref_free = self.links[at.index()][pref_k].busy_until();
            let mut chosen = pref_k;
            let mut deflected = false;
            if pref_free > t + DEFLECT_PATIENCE && pkt.age < MAX_DEFLECT_AGE {
                // Hot potato: take the least-loaded other link if one is
                // meaningfully freer.
                if let Some((k, _)) = self.links[at.index()]
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| *k != pref_k)
                    .min_by_key(|(_, p)| p.busy_until())
                {
                    if self.links[at.index()][k].busy_until() + DEFLECT_PATIENCE < pref_free {
                        chosen = k;
                        deflected = true;
                        self.deflections.inc();
                        self.node_deflections[at.index()] += 1;
                    }
                }
            }
            // Queue-discipline admission at the chosen output port.
            let free = self.links[at.index()][chosen].busy_until();
            let backlog = free.since(t);
            match self.cfg.queue {
                QueueDiscipline::DropTail { capacity }
                | QueueDiscipline::LossyNack { capacity }
                    if backlog > capacity =>
                {
                    return Err(PortFull { t, hops_taken });
                }
                QueueDiscipline::Pfc { capacity } if backlog > capacity => {
                    // Back-pressure: stall here until the port drains to
                    // its credit limit, then transmit normally.
                    let pause = backlog - capacity;
                    self.pauses.inc();
                    self.pause_time += pause;
                    t += pause;
                }
                _ => {}
            }
            let next = self.topo.neighbours(at)[chosen];
            let sent = self.links[at.index()][chosen].acquire(t, bytes);
            t = sent + HOP_LATENCY;
            pkt.hop(deflected);
            hops_taken += 1;
            at = next;
        }
        Ok(t)
    }

    /// The recovery latency between a refused attempt and the sender's
    /// re-walk. Strictly positive and growing with consecutive drops,
    /// so retries always make forward progress in time — the refused
    /// port's backlog is measured against a later `t`, and the links
    /// keep draining, which guarantees eventual delivery.
    fn recovery_delay(&self, hops_taken: u32, tries: u32) -> Duration {
        let backoff = 1u64 << tries.min(10) as u64;
        match self.cfg.queue {
            // Silent drop: the sender's end-to-end loss timer (a few
            // minimum round trips), doubling per consecutive loss.
            QueueDiscipline::DropTail { .. } => {
                self.cfg.min_delivery_latency().times(4).times(backoff)
            }
            // Explicit NACK: wire time for the NACK to walk back from
            // the refusing switch, plus exponential backoff.
            QueueDiscipline::LossyNack { .. } => {
                HOP_LATENCY.times(hops_taken.max(1) as u64) + DEFLECT_PATIENCE.times(backoff)
            }
            // PFC never refuses an attempt.
            QueueDiscipline::Pfc { .. } => HOP_LATENCY,
        }
    }

    /// One logical transmission (shared by first transmissions and
    /// fault-path retransmissions): walk attempts until one delivers,
    /// accounting each refused attempt as a drop plus a retransmission.
    fn walk(&mut self, now: SimTime, mut pkt: Packet<P>) -> (SimTime, Packet<P>) {
        assert!(pkt.src.index() < self.topo.nodes(), "bad src {}", pkt.src);
        assert!(pkt.dst.index() < self.topo.nodes(), "bad dst {}", pkt.dst);
        let mut t = now;
        let mut tries = 0u32;
        loop {
            self.walks += 1;
            match self.attempt(t, &mut pkt) {
                Ok(done) => return (done, pkt),
                Err(full) => {
                    tries += 1;
                    self.drops.inc();
                    // The refused attempt is accounted as a
                    // retransmission: its credits are returned and the
                    // re-walk acquires fresh ones.
                    self.retransmits.inc();
                    t = full.t + self.recovery_delay(full.hops_taken, tries);
                }
            }
        }
    }

    /// The credit-conservation audit: every walk ended as exactly one
    /// delivery or one retransmission — a faulted flit cannot strand
    /// its accounting between the two.
    fn assert_credits_conserved(&self) {
        debug_assert_eq!(
            self.delivered.get() + self.retransmits.get(),
            self.walks,
            "router credit leak: walks neither delivered nor retransmitted"
        );
    }

    /// Inject `pkt` at its source at time `now`; walks it hop by hop
    /// (cut-through, with hot-potato deflection under contention) and
    /// returns its delivery time at the destination.
    ///
    /// # Panics
    ///
    /// Panics if source or destination are out of range.
    pub fn send(&mut self, now: SimTime, pkt: Packet<P>) -> (SimTime, Packet<P>) {
        let (t, pkt) = self.walk(now, pkt);
        self.delivered.inc();
        self.hops.record(pkt.age as u64);
        self.assert_credits_conserved();
        (t, pkt)
    }

    /// Re-walk a packet whose previous transmission was lost or failed
    /// its CRC: charges full link bandwidth again (the wire time of the
    /// bad copy is already sunk) and counts as a retransmission rather
    /// than a delivery.
    ///
    /// # Panics
    ///
    /// Panics if source or destination are out of range.
    pub fn resend(&mut self, now: SimTime, pkt: Packet<P>) -> (SimTime, Packet<P>) {
        let (t, pkt) = self.walk(now, pkt);
        self.retransmits.inc();
        self.assert_credits_conserved();
        (t, pkt)
    }

    /// Number of packets delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// Number of retransmissions: fault-recovery re-walks plus
    /// drop-recovery re-walks.
    pub fn retransmits(&self) -> u64 {
        self.retransmits.get()
    }

    /// Number of deflections (non-optimal routing decisions).
    pub fn deflections(&self) -> u64 {
        self.deflections.get()
    }

    /// Deflections charged to each node's router (indexed by node).
    pub fn node_deflections(&self) -> &[u64] {
        &self.node_deflections
    }

    /// Packets refused by a full output port.
    pub fn drops(&self) -> u64 {
        self.drops.get()
    }

    /// PFC pause events.
    pub fn pauses(&self) -> u64 {
        self.pauses.get()
    }

    /// Total time packets spent stalled in PFC pauses.
    pub fn pause_time(&self) -> Duration {
        self.pause_time
    }

    /// Total hop-by-hop walks performed (deliveries + retransmissions;
    /// exposed for the conservation tests).
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Mean hop count of delivered packets.
    pub fn mean_hops(&self) -> f64 {
        self.hops.mean()
    }

    /// A snapshot of every occupancy/loss counter, including per-link
    /// wire-time aggregates recomputed from the pipes.
    pub fn stats(&self) -> FabricStats {
        let mut links = 0usize;
        let mut busy = Duration::ZERO;
        let mut max_busy = Duration::ZERO;
        for port in self.links.iter().flatten() {
            links += 1;
            let b = port.busy_time();
            busy += b;
            max_busy = max_busy.max(b);
        }
        FabricStats {
            delivered: self.delivered.get(),
            walks: self.walks,
            retransmits: self.retransmits.get(),
            deflections: self.deflections.get(),
            drops: self.drops.get(),
            pauses: self.pauses.get(),
            pause_time: self.pause_time,
            mean_hops: self.hops.mean(),
            links,
            link_busy: busy,
            max_link_busy: max_busy,
            node_deflections: self.node_deflections.clone(),
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The per-pair conservative delivery bounds:
    /// `bounds[src][dst] = shortest_hops(src, dst) × min_delivery_latency`
    /// (zero on the diagonal). This is a true lower bound on any
    /// delivery the network can perform: [`Network::send`] charges at
    /// least one short-packet serialization plus one hop fall-through
    /// per hop taken, longer packets serialize slower, hot-potato
    /// deflection only ever *lengthens* the path (a deflected packet
    /// still pays every hop it takes, and it can never take fewer hops
    /// than the BFS distance), and every queue discipline only *adds*
    /// waiting (pause stalls) or whole extra walks (drop recovery). On a
    /// fully connected topology (the paper's glueless 4-chip
    /// configuration) every off-diagonal entry degenerates to the global
    /// quantum [`NetworkConfig::min_delivery_latency`].
    pub fn pair_bounds(&self) -> Vec<Vec<Duration>> {
        let per_hop = self.cfg.min_delivery_latency();
        self.topo
            .distances()
            .into_iter()
            .map(|row| row.into_iter().map(|h| per_hop.times(h as u64)).collect())
            .collect()
    }

    /// [`Network::pair_bounds`] restricted to the host nodes (the
    /// machine's lanes): the submatrix the system layer feeds to its
    /// lookahead. Phantom switch nodes never source or sink events, so
    /// their rows/columns are irrelevant to the conservative engine —
    /// and the bounds between hosts are computed on the *full* graph,
    /// so routing through switches is already accounted for. At least a
    /// 2×2 matrix is returned (the engine's lookahead needs two
    /// parties), which is always available: every builder produces ≥ 2
    /// nodes.
    pub fn host_pair_bounds(&self) -> Vec<Vec<Duration>> {
        let n = self.topo.hosts().max(2).min(self.topo.nodes());
        let mut bounds = self.pair_bounds();
        bounds.truncate(n);
        for row in &mut bounds {
            row.truncate(n);
        }
        bounds
    }

    /// The link configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::topology::TopologyKind;
    use piranha_types::Lane;

    fn pkt(src: u16, dst: u16) -> Packet<u32> {
        Packet::new(NodeId(src), NodeId(dst), Lane::Low, PacketKind::Short, 0)
    }

    #[test]
    fn ring_topology_shape() {
        let t = Topology::ring(6);
        assert_eq!(t.nodes(), 6);
        assert_eq!(t.max_degree(), 2);
        assert_eq!(t.neighbours(NodeId(0)), &[NodeId(5), NodeId(1)]);
    }

    #[test]
    fn two_node_ring_has_single_link() {
        let t = Topology::ring(2);
        assert_eq!(t.neighbours(NodeId(0)), &[NodeId(1)]);
    }

    #[test]
    fn mesh_degrees_within_channel_budget() {
        let t = Topology::mesh(4, 4);
        assert_eq!(t.nodes(), 16);
        assert!(t.max_degree() <= MAX_CHANNELS);
    }

    #[test]
    fn exact_mesh_has_no_phantom_nodes() {
        // 7 nodes used to round up to a 3×3 mesh (9 nodes); mesh_of
        // builds exactly 7, all reachable.
        for n in 2..=20 {
            let t = Topology::mesh_of(n);
            assert_eq!(t.nodes(), n, "mesh_of({n}) must be exact");
            assert_eq!(t.hosts(), n);
            assert!(t.max_degree() <= MAX_CHANNELS);
            assert!(t.is_connected());
        }
    }

    #[test]
    fn torus_wraps_and_dedups() {
        let t = Topology::torus(4, 4);
        assert_eq!(t.nodes(), 16);
        assert_eq!(t.max_degree(), 4);
        // Corner-to-corner is 2 hops on a 4×4 torus (vs 6 on the mesh).
        assert_eq!(t.distances()[0][15], 2);
        // A 2-wide dimension wraps onto the same neighbour: deduped.
        let narrow = Topology::torus(2, 3);
        assert!(narrow.max_degree() <= 3);
        assert!(narrow.is_connected());
    }

    #[test]
    fn fat_tree_leaves_are_hosts_switches_are_phantom() {
        let t = Topology::fat_tree(16);
        assert_eq!(t.hosts(), 16);
        assert_eq!(t.nodes(), 16 + 4 + 2, "4 edge switches + 2 roots");
        // Every leaf has exactly one uplink; same-pod leaves are 2
        // hops apart, cross-pod leaves 4.
        assert_eq!(t.neighbours(NodeId(0)).len(), 1);
        let d = t.distances();
        assert_eq!(d[0][1], 2);
        assert_eq!(d[0][15], 4);
        // Small instance: one switch, no roots.
        let small = Topology::fat_tree(3);
        assert_eq!(small.nodes(), 4);
        assert_eq!(small.hosts(), 3);
    }

    #[test]
    fn topology_kind_parses_flag_spellings() {
        for kind in [
            TopologyKind::Auto,
            TopologyKind::Ring,
            TopologyKind::Mesh,
            TopologyKind::Torus,
            TopologyKind::FatTree,
        ] {
            assert_eq!(TopologyKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(TopologyKind::parse("fat-tree"), Some(TopologyKind::FatTree));
        assert_eq!(TopologyKind::parse("hypercube"), None);
    }

    #[test]
    fn queue_discipline_parses_flag_spellings() {
        for q in ["droptail", "lossy", "pfc"] {
            let d = QueueDiscipline::parse(q).expect("known discipline");
            assert_eq!(d.label(), q);
            assert_eq!(d.capacity(), Duration::from_ns(CONGESTED_CAPACITY_NS));
        }
        assert_eq!(QueueDiscipline::parse("red"), None);
    }

    #[test]
    fn fully_connected_limited_to_five() {
        assert_eq!(Topology::fully_connected(5).max_degree(), 4);
    }

    #[test]
    #[should_panic(expected = "4 channels")]
    fn oversized_full_mesh_panics() {
        Topology::fully_connected(6);
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn asymmetric_custom_rejected() {
        Topology::custom(vec![vec![NodeId(1)], vec![]]);
    }

    #[test]
    fn shortest_paths_on_ring() {
        let mut net: Network<u32> = Network::new(Topology::ring(8), NetworkConfig::paper_default());
        let (_, p) = net.send(SimTime::ZERO, pkt(0, 3));
        assert_eq!(p.age, 3);
        let (_, p) = net.send(SimTime::ZERO, pkt(0, 6));
        assert_eq!(p.age, 2, "goes the short way round");
    }

    #[test]
    fn direct_link_latency() {
        let cfg = NetworkConfig::paper_default();
        let mut net: Network<u32> = Network::new(Topology::fully_connected(4), cfg);
        let (t, p) = net.send(SimTime::ZERO, pkt(0, 3));
        assert_eq!(p.age, 1);
        // 16 bytes at 4 GB/s = 4ns + 16ns hop = 20ns.
        assert_eq!(t.as_ns(), 20);
    }

    #[test]
    fn send_keeps_endpoints_and_payload() {
        let mut net: Network<u16> = Network::new(Topology::ring(4), NetworkConfig::paper_default());
        for (to, kind) in [(1u16, PacketKind::Short), (2, PacketKind::Long)] {
            let p = Packet::new(NodeId(0), NodeId(to), Lane::High, kind, to * 10);
            let (_, got) = net.send(SimTime::from_ns(100), p);
            assert_eq!(
                (got.src, got.dst, got.lane, got.kind, got.payload),
                (NodeId(0), NodeId(to), Lane::High, kind, to * 10)
            );
        }
    }

    #[test]
    fn min_delivery_latency_is_the_paper_quantum() {
        // The conservative lookahead bound equals the best-case direct
        // delivery above: short serialization (4 ns) + one hop (16 ns).
        let cfg = NetworkConfig::paper_default();
        assert_eq!(cfg.min_delivery_latency(), Duration::from_ns(20));
        // And it really is a lower bound for an idle direct link.
        let mut net: Network<u32> = Network::new(Topology::fully_connected(4), cfg);
        let (t, _) = net.send(SimTime::ZERO, pkt(0, 1));
        assert!(t.since(SimTime::ZERO) >= cfg.min_delivery_latency());
    }

    #[test]
    fn long_packets_cost_more_wire_time() {
        let mut net: Network<u32> =
            Network::new(Topology::fully_connected(2), NetworkConfig::paper_default());
        let long = Packet::new(NodeId(0), NodeId(1), Lane::High, PacketKind::Long, 0);
        let (t, _) = net.send(SimTime::ZERO, long);
        assert_eq!(t.as_ns(), 36, "80 bytes at 4 GB/s + 16ns hop");
    }

    #[test]
    fn contention_deflects_but_delivers() {
        let mut net: Network<u32> =
            Network::new(Topology::mesh(3, 3), NetworkConfig::paper_default());
        // Saturate node 0's preferred link toward node 2 with many
        // packets injected at the same instant.
        let mut deliveries = 0;
        for _ in 0..200 {
            let long = Packet::new(NodeId(0), NodeId(2), Lane::High, PacketKind::Long, 0);
            let (_, p) = net.send(SimTime::ZERO, long);
            assert_eq!(p.dst, NodeId(2));
            deliveries += 1;
        }
        assert_eq!(net.delivered(), deliveries);
        assert!(
            net.deflections() > 0,
            "saturation must trigger hot-potato routing"
        );
        // The new per-node counters decompose the global one.
        assert_eq!(
            net.node_deflections().iter().sum::<u64>(),
            net.deflections()
        );
        assert!(net.node_deflections()[0] > 0, "deflections happen at 0");
    }

    #[test]
    fn droptail_congestion_drops_then_delivers() {
        let mut cfg = NetworkConfig::paper_default();
        cfg.queue = QueueDiscipline::DropTail {
            capacity: Duration::from_ns(40),
        };
        let mut net: Network<u32> = Network::new(Topology::ring(8), cfg);
        let sent = 300u64;
        for _ in 0..sent {
            let long = Packet::new(NodeId(0), NodeId(4), Lane::High, PacketKind::Long, 0);
            let (_, p) = net.send(SimTime::ZERO, long);
            assert_eq!(p.dst, NodeId(4), "drops recover; nothing is lost");
        }
        assert_eq!(net.delivered(), sent);
        assert!(net.drops() > 0, "a 40ns buffer must overflow");
        assert_eq!(net.pauses(), 0);
        // Ledger: every walk is a delivery or a retransmission, and
        // every drop caused exactly one retransmission here (no fault
        // plane in this test).
        assert_eq!(net.delivered() + net.retransmits(), net.walks());
        assert_eq!(net.drops(), net.retransmits());
    }

    #[test]
    fn lossy_nack_charges_return_latency() {
        let mut cfg = NetworkConfig::paper_default();
        cfg.queue = QueueDiscipline::LossyNack {
            capacity: Duration::from_ns(40),
        };
        let mut net: Network<u32> = Network::new(Topology::ring(8), cfg);
        let mut last = SimTime::ZERO;
        for _ in 0..300 {
            let long = Packet::new(NodeId(0), NodeId(4), Lane::High, PacketKind::Long, 0);
            let (t, _) = net.send(SimTime::ZERO, long);
            last = last.max(t);
        }
        assert!(net.drops() > 0);
        assert_eq!(net.delivered() + net.retransmits(), net.walks());
        // A NACKed packet pays the return trip + backoff on top of its
        // eventual full walk: later than any same-instant clean path.
        let bounds = net.pair_bounds();
        assert!(last.since(SimTime::ZERO) > bounds[0][4]);
    }

    #[test]
    fn pfc_pauses_but_never_drops() {
        let mut cfg = NetworkConfig::paper_default();
        cfg.queue = QueueDiscipline::Pfc {
            capacity: Duration::from_ns(40),
        };
        let mut net: Network<u32> = Network::new(Topology::ring(8), cfg);
        for _ in 0..300 {
            let long = Packet::new(NodeId(0), NodeId(4), Lane::High, PacketKind::Long, 0);
            net.send(SimTime::ZERO, long);
        }
        assert_eq!(net.drops(), 0, "PFC is lossless");
        assert!(net.pauses() > 0, "a 40ns credit limit must assert pause");
        assert!(net.pause_time() > Duration::ZERO);
        assert_eq!(net.delivered() + net.retransmits(), net.walks());
    }

    #[test]
    fn stats_snapshot_aggregates_links() {
        let mut net: Network<u32> =
            Network::new(Topology::mesh(3, 3), NetworkConfig::paper_default());
        for i in 0..50u16 {
            net.send(SimTime::ZERO, pkt(i % 9, (i * 7 + 1) % 9));
        }
        let s = net.stats();
        assert_eq!(s.delivered, net.delivered());
        assert!(s.links > 0);
        assert!(s.link_busy > Duration::ZERO, "wire time was charged");
        assert!(s.max_link_busy <= s.link_busy);
        assert!(s.occupancy(Duration::from_ns(10_000)) > 0.0);
        assert_eq!(s.node_deflections.len(), 9);
    }

    #[test]
    fn resend_counts_retransmits_not_deliveries() {
        let mut net: Network<u32> = Network::new(Topology::ring(4), NetworkConfig::paper_default());
        let (t1, _) = net.send(SimTime::ZERO, pkt(0, 2));
        // Two failed attempts re-walk the same route, then success.
        let (t2, _) = net.resend(t1, pkt(0, 2));
        let (t3, p) = net.resend(t2, pkt(0, 2));
        assert_eq!(p.dst, NodeId(2));
        assert_eq!(net.delivered(), 1);
        assert_eq!(net.retransmits(), 2);
        assert!(t3 > t2 && t2 > t1, "each re-walk charges real wire time");
    }

    #[test]
    fn interleaved_send_resend_conserves_credits() {
        // The debug assertion inside send/resend is the real check; this
        // exercises it under a mixed workload.
        let mut net: Network<u32> =
            Network::new(Topology::mesh(3, 2), NetworkConfig::paper_default());
        let mut t = SimTime::ZERO;
        for i in 0..200u16 {
            let (s, d) = (i % 6, (i * 5 + 1) % 6);
            if s == d {
                continue;
            }
            let (arrive, _) = net.send(t, pkt(s, d));
            if i % 3 == 0 {
                let (again, _) = net.resend(arrive, pkt(s, d));
                t = again;
            } else {
                t = arrive;
            }
        }
        assert!(net.retransmits() > 0 && net.delivered() > net.retransmits());
    }

    #[test]
    fn distances_are_symmetric_shortest_hops() {
        let t = Topology::ring(6);
        let d = t.distances();
        for (i, row) in d.iter().enumerate() {
            assert_eq!(row[i], 0);
            for (j, hops) in row.iter().enumerate() {
                assert_eq!(*hops, d[j][i], "ring distances are symmetric");
            }
        }
        assert_eq!(d[0][3], 3, "opposite side of a 6-ring");
        assert_eq!(d[0][5], 1, "wraps the short way");
    }

    #[test]
    fn pair_bounds_degenerate_to_the_global_quantum_on_table1_config() {
        // The paper's glueless 4-chip configuration is fully connected:
        // every pair is one hop, so the whole lookahead matrix collapses
        // to the single 20 ns quantum the fixed-quantum engine used.
        let net: Network<u32> =
            Network::new(Topology::fully_connected(4), NetworkConfig::paper_default());
        let bounds = net.pair_bounds();
        let q = net.config().min_delivery_latency();
        assert_eq!(q, Duration::from_ns(20));
        for (s, row) in bounds.iter().enumerate() {
            for (d, &b) in row.iter().enumerate() {
                if s == d {
                    assert_eq!(b, Duration::ZERO);
                } else {
                    assert_eq!(b, q, "{s}->{d} is a single hop on a full mesh");
                }
            }
        }
    }

    #[test]
    fn pair_bounds_scale_with_topology_distance() {
        let net: Network<u32> = Network::new(Topology::ring(8), NetworkConfig::paper_default());
        let bounds = net.pair_bounds();
        let q = net.config().min_delivery_latency();
        assert_eq!(bounds[0][1], q);
        assert_eq!(bounds[0][4], q.times(4), "4 hops across an 8-ring");
    }

    #[test]
    fn host_pair_bounds_truncate_phantom_switches() {
        let net: Network<u32> = Network::new(Topology::fat_tree(8), NetworkConfig::paper_default());
        let full = net.pair_bounds();
        let hosts = net.host_pair_bounds();
        assert_eq!(full.len(), net.topology().nodes());
        assert_eq!(hosts.len(), 8);
        let q = net.config().min_delivery_latency();
        // Leaf→leaf through the tree: 2 hops same pod, 4 cross-pod —
        // strictly positive everywhere off the diagonal.
        assert_eq!(hosts[0][1], q.times(2));
        assert_eq!(hosts[0][7], q.times(4));
        for (s, row) in hosts.iter().enumerate() {
            for (d, &b) in row.iter().enumerate() {
                assert_eq!(b == Duration::ZERO, s == d);
            }
        }
    }

    mod bound_props {
        use super::*;
        use proptest::prelude::*;

        fn arb_topology(shape: usize, a: usize, b: usize) -> Topology {
            match shape {
                0 => Topology::ring(a + b),           // 4..10 nodes
                1 => Topology::fully_connected(a),    // 2..=5 nodes
                2 => Topology::mesh(a - 1, b.max(2)), // (1..5) x (2..5)
                3 => Topology::torus(a.max(2), b),    // (2..6) x (2..5)
                4 => Topology::fat_tree(a * b),       // 4..20 leaves
                _ => Topology::mesh_of(a * b + 1),    // 5..21 nodes, exact
            }
        }

        fn arb_queue(sel: usize) -> QueueDiscipline {
            let capacity = Duration::from_ns(40);
            match sel {
                0 => QueueDiscipline::unbounded(),
                1 => QueueDiscipline::DropTail { capacity },
                2 => QueueDiscipline::LossyNack { capacity },
                _ => QueueDiscipline::Pfc { capacity },
            }
        }

        proptest! {
            /// Every delivery the network performs — including under
            /// heavy contention, where hot-potato deflection reroutes
            /// packets along longer paths, and under every queue
            /// discipline, where drops/pauses delay them further —
            /// takes at least the pair's computed bound.
            /// This is the property the parallel engine's per-pair
            /// `debug_assert` relies on, on every topology.
            #[test]
            fn every_delivery_respects_its_pair_bound(
                shape in 0usize..6,
                a in 2usize..6,
                b in 2usize..5,
                queue_sel in 0usize..4,
                sends in proptest::collection::vec(
                    (0usize..64, 0usize..64, 0u64..500, proptest::bool::ANY),
                    1..120,
                ),
            ) {
                let topo = arb_topology(shape, a, b);
                let cfg = NetworkConfig {
                    queue: arb_queue(queue_sel),
                };
                let mut net: Network<u32> = Network::new(topo, cfg);
                let bounds = net.pair_bounds();
                let n = bounds.len();
                let mut sent = 0u64;
                for (s, d, at, long) in sends {
                    let (s, d) = (s % n, d % n);
                    if s == d {
                        continue;
                    }
                    let kind = if long { PacketKind::Long } else { PacketKind::Short };
                    let t = SimTime::from_ns(at);
                    let p = Packet::new(NodeId(s as u16), NodeId(d as u16), Lane::Low, kind, 0);
                    let (arrive, _) = net.send(t, p);
                    sent += 1;
                    prop_assert!(
                        arrive.since(t) >= bounds[s][d],
                        "{s}->{d} delivered in {:?}, bound {:?}",
                        arrive.since(t),
                        bounds[s][d]
                    );
                }
                // Packet ledger: everything injected was delivered, and
                // every walk is a delivery or a retransmission.
                prop_assert_eq!(net.delivered(), sent);
                prop_assert_eq!(net.delivered() + net.retransmits(), net.walks());
                prop_assert_eq!(net.drops(), net.retransmits());
                if matches!(cfg.queue, QueueDiscipline::Pfc { .. }) {
                    prop_assert_eq!(net.drops(), 0);
                }
            }
        }
    }

    #[test]
    fn every_pair_reachable_on_mesh() {
        let mut net: Network<u32> =
            Network::new(Topology::mesh(4, 2), NetworkConfig::paper_default());
        for s in 0..8u16 {
            for d in 0..8u16 {
                if s == d {
                    continue;
                }
                let (t, p) = net.send(SimTime::ZERO, pkt(s, d));
                assert_eq!(p.dst, NodeId(d));
                assert!(t > SimTime::ZERO);
            }
        }
        assert!(net.mean_hops() >= 1.0);
    }
}
