//! Discrete-event simulation kernel for the Piranha CMP simulator.
//!
//! Provides the machinery every timing model in the workspace builds on:
//!
//! * [`EventQueue`] — a deterministic, stable-ordered future event list
//!   (one per node lane; sequence numbers are lane-local);
//! * [`Lookahead`] — the conservative per-pair lookahead bounds for
//!   parallel-in-space execution (one lane per worker thread, merged at
//!   window barriers);
//! * [`Server`] / [`MultiServer`] / [`Pipe`] — queueing-theoretic resource
//!   models used for contention on L2 banks, RDRAM channels, ICS datapaths,
//!   protocol-engine occupancy, and router links;
//! * [`stats`] — counters and histograms that feed the paper's figures;
//! * [`Prng`] — a small, fully deterministic pseudo-random number
//!   generator (xoshiro256++) so that simulations are reproducible
//!   bit-for-bit from a seed.
//!
//! # Examples
//!
//! ```
//! use piranha_kernel::EventQueue;
//! use piranha_types::SimTime;
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_ns(10), "b");
//! q.schedule(SimTime::from_ns(5), "a");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t.as_ns(), e), (5, "a"));
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod partition;
pub mod rng;
pub mod server;
pub mod stats;

pub use event::EventQueue;
pub use partition::Lookahead;
pub use rng::Prng;
pub use server::{MultiServer, Pipe, Server};
pub use stats::{Counter, Histogram, Ratio};
