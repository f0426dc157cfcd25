//! The Piranha system interconnect — paper §2.6.
//!
//! Three components per node move packets between chips:
//!
//! * the **output queue** ([`queues::OutQueue`]) accepts packets from the
//!   protocol engines with four priority levels, giving transit traffic
//!   priority over new injections;
//! * the **router** ([`router::Network`]) is a topology-independent,
//!   adaptive, virtual cut-through design descended from the S3.mp
//!   S-Connect: when the preferred output link is busy it deflects
//!   packets "hot-potato" onto another link with increasing age/priority,
//!   which bounds buffering and guarantees progress;
//! * the **input queue** ([`queues::InQueue`]) interprets arriving
//!   packets through a disposition vector and lets low-priority traffic
//!   bypass blocked high-priority traffic.
//!
//! The simulated machine sends every packet through [`Network`]
//! directly; the two queues are standalone models that only their own
//! tests drive.
//!
//! Physically, each of the four channels per processing node is 22 wires
//! per direction at 2 Gbit/s/wire with a DC-balanced 19-bits-in-22
//! encoding ([`encoding`]) — implemented here exactly as described,
//! including the inversion-insensitive 19th bit.
//!
//! Links also carry error detection ([`recovery`]): a CRC-checked frame
//! that fails is dropped, NACKed, and retransmitted by the sender
//! ([`Network::resend`]) with exponential backoff — the recovery half of
//! the fault model exercised by `piranha-faults`.

#![warn(missing_docs)]

pub mod encoding;
pub mod packet;
pub mod queues;
pub mod recovery;
pub mod router;
pub mod topology;

pub use encoding::{decode22, encode22, CodecError};
pub use packet::{Packet, PacketKind, PRIORITIES};
pub use queues::{InQueue, OutQueue};
pub use recovery::{crc32, flip_bit};
pub use router::{
    FabricStats, Network, NetworkConfig, QueueDiscipline, CONGESTED_CAPACITY_NS, MAX_CHANNELS,
};
pub use topology::{Topology, TopologyKind};
