//! The protocol-engine component adapter.
//!
//! One node's pair of microcoded protocol engines — home and remote
//! (paper §2.6) — plus their occupancy servers and the shared replay
//! recovery unit, behind one handler, [`EngineComplex::handle_into`].
//! The directory the home engine consults lives in memory, so it is
//! threaded in per event as the [`DirStore`] context rather than owned
//! here; the remote engine needs no directory.

use piranha_kernel::Server;
use piranha_types::{Duration, NodeId, SimTime};

use crate::{
    coherence::DirStore, EngineAction, EngineRecovery, HomeEngine, HomeIn, RemoteEngine, RemoteIn,
};

/// An input for one of the node's two engines.
#[derive(Debug, Clone)]
pub enum EngineEvent {
    /// Run the home (directory-side) engine.
    Home(HomeIn),
    /// Run the remote (requester-side) engine.
    Remote(RemoteIn),
}

/// One node's protocol-engine complex: home engine, remote engine,
/// their occupancy servers, and the TSRF replay recovery unit.
#[derive(Debug)]
pub struct EngineComplex {
    home: HomeEngine,
    remote: RemoteEngine,
    home_srv: Server,
    remote_srv: Server,
    recovery: EngineRecovery,
}

impl EngineComplex {
    /// Engines for `node` of a `total_nodes` system, with `cmi_routes`
    /// coherent-memory-interleave routes and the replay watchdog set to
    /// `replay_timeout_cycles`.
    pub fn new(
        node: NodeId,
        total_nodes: usize,
        cmi_routes: usize,
        replay_timeout_cycles: u64,
    ) -> Self {
        let mut home = HomeEngine::new(node, total_nodes);
        home.set_cmi_routes(cmi_routes);
        EngineComplex {
            home,
            remote: RemoteEngine::new(node),
            home_srv: Server::new(),
            remote_srv: Server::new(),
            recovery: EngineRecovery::new(replay_timeout_cycles),
        }
    }

    /// The home engine (statistics).
    pub fn home(&self) -> &HomeEngine {
        &self.home
    }

    /// The remote engine (statistics).
    pub fn remote(&self) -> &RemoteEngine {
        &self.remote
    }

    /// Acquire the home or remote occupancy server for `occ` starting
    /// no earlier than `at`; returns the service start time.
    pub fn acquire(&mut self, is_home: bool, at: SimTime, occ: Duration) -> SimTime {
        if is_home {
            self.home_srv.acquire(at, occ)
        } else {
            self.remote_srv.acquire(at, occ)
        }
    }

    /// Replay a handler whose watchdog expired; returns the extra
    /// occupancy cycles charged.
    pub fn replay(&mut self, input_kind: &str) -> u64 {
        self.recovery.replay(input_kind)
    }

    /// Total handler replays.
    pub fn replays(&self) -> u64 {
        self.recovery.replays()
    }

    /// Run `event` through its engine, appending the actions to `out` in
    /// the order the engine produces them. A caller that reuses one
    /// buffer allocates nothing per event.
    pub fn handle_into(
        &mut self,
        event: EngineEvent,
        dirs: &mut dyn DirStore,
        out: &mut Vec<EngineAction>,
    ) {
        match event {
            EngineEvent::Home(input) => self.home.handle_into(input, dirs, out),
            EngineEvent::Remote(input) => self.remote.handle_into(input, out),
        }
    }
}
