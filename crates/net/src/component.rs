//! The interconnect-fabric component adapter.
//!
//! The machine-wide intra-chip/inter-chip network. [`Fabric::send`]
//! injects a [`Depart`] at its source node, routes it (charging hop and
//! contention latency inside [`Network`]) and returns the [`Arrive`]
//! with its delivery time, clamped to be no earlier than the send. The
//! wiring applies link-fault hooks (CRC retransmits, router stalls) to
//! the returned arrival — the fabric itself is fault-free, matching the
//! paper's reliable-delivery datapath split.

use piranha_types::{Lane, NodeId, SimTime};

use crate::{Network, Packet, PacketKind, Topology};

/// A packet departure: `payload` leaves `from` bound for `to`.
#[derive(Debug, Clone)]
pub struct Depart<P> {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Virtual lane (deadlock-avoidance class).
    pub lane: Lane,
    /// Short (header-only) or long (with data) packet.
    pub kind: PacketKind,
    /// The protocol payload.
    pub payload: P,
}

/// A packet arrival at its destination, returned with its delivery
/// time.
#[derive(Debug, Clone)]
pub struct Arrive<P> {
    /// The node the packet came from.
    pub from: NodeId,
    /// The node it arrived at.
    pub to: NodeId,
    /// The delivered payload.
    pub payload: P,
}

/// The routed interconnect (paper §2.4/§3.2): one fabric serves the
/// whole machine, so unlike the per-node adapters it is a single
/// machine-wide component.
#[derive(Debug)]
pub struct Fabric<P> {
    net: Network<P>,
}

impl<P> Fabric<P> {
    /// A fabric over `net`.
    pub fn new(net: Network<P>) -> Self {
        Fabric { net }
    }

    /// Route `d` from its source at `now`; returns the delivery time,
    /// never earlier than `now`, and the arrival carrying the payload.
    pub fn send(&mut self, now: SimTime, d: Depart<P>) -> (SimTime, Arrive<P>) {
        let Depart {
            from,
            to,
            lane,
            kind,
            payload,
        } = d;
        let (first, pkt) = self
            .net
            .send(now, Packet::new(from, to, lane, kind, payload));
        let arrive = Arrive {
            from,
            to,
            payload: pkt.payload,
        };
        (first.max(now), arrive)
    }

    /// Re-inject a packet after a link-level retransmit; returns the
    /// new delivery time and the routed packet. Used by the wiring's
    /// fault hooks only.
    pub fn resend(&mut self, now: SimTime, pkt: Packet<P>) -> (SimTime, Packet<P>) {
        self.net.resend(now, pkt)
    }

    /// Every traffic, occupancy and loss counter in one snapshot (see
    /// [`crate::FabricStats`]).
    pub fn stats(&self) -> crate::FabricStats {
        self.net.stats()
    }

    /// The routed topology.
    pub fn topology(&self) -> &Topology {
        self.net.topology()
    }

    /// The conservative lookahead bound of this fabric's links: no
    /// cross-node delivery can complete in less than this (see
    /// [`crate::NetworkConfig::min_delivery_latency`]). The system layer
    /// uses it as the quantum for parallel-in-space execution.
    pub fn min_delivery_latency(&self) -> piranha_types::Duration {
        self.net.config().min_delivery_latency()
    }

    /// Per-pair conservative delivery bounds (see
    /// [`crate::Network::pair_bounds`]): `bounds[src][dst]` = topology
    /// hop distance × the per-hop minimum. Feeds the system layer's
    /// per-pair lookahead matrix at wiring time.
    pub fn pair_bounds(&self) -> Vec<Vec<piranha_types::Duration>> {
        self.net.pair_bounds()
    }

    /// [`Fabric::pair_bounds`] restricted to host (lane) nodes — what
    /// the system layer's lookahead actually needs on topologies with
    /// phantom switch nodes (see [`crate::Network::host_pair_bounds`]).
    pub fn host_pair_bounds(&self) -> Vec<Vec<piranha_types::Duration>> {
        self.net.host_pair_bounds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkConfig;

    #[test]
    fn send_keeps_endpoints_and_payload_and_honours_the_lookahead() {
        let net = Network::new(Topology::ring(4), NetworkConfig::paper_default());
        let mut fabric = Fabric::new(net);
        let floor = fabric.min_delivery_latency();
        let now = SimTime::from_ns(100);
        for (to, kind) in [(1u16, PacketKind::Short), (2, PacketKind::Long)] {
            let depart = Depart {
                from: NodeId(0),
                to: NodeId(to),
                lane: Lane::Low,
                kind,
                payload: to * 10,
            };
            let (at, arr) = fabric.send(now, depart);
            assert_eq!(
                (arr.from, arr.to, arr.payload),
                (NodeId(0), NodeId(to), to * 10)
            );
            assert!(
                at.since(now) >= floor,
                "delivered {:?} after the send, under the {floor:?} floor",
                at.since(now)
            );
        }
    }
}
