//! One bank of the shared, non-inclusive second-level cache (paper §2.3).
//!
//! The L2 controller is the intra-chip coherence point: on every access it
//! checks the duplicate L1 tags and its own tags in parallel (modelled by
//! [`DupTags`]) and then either (a) services the request directly, (b)
//! forwards it to a local owner L1, (c) forwards it to one of the protocol
//! engines, or (d) obtains the data from memory — exactly the four cases
//! the paper enumerates.
//!
//! Distinctive behaviours reproduced here:
//!
//! * **No inclusion**: L1 misses that also miss in the L2 fill straight
//!   from memory *without allocating in the L2*; the L2 is a victim cache
//!   filled only by L1 replacements.
//! * **Ownership-based write-backs**: only the owner's eviction carries
//!   data into the L2 — even for lines in Shared state (a previously
//!   dirty line downgraded by a read forward stays dirty at node level
//!   via `node_dirty`), while non-owner evictions are tag-only drops.
//! * **Clean-exclusive**: a read miss with no other sharers is granted an
//!   Exclusive copy so later stores need no upgrade transaction.
//! * **Eager exclusive replies**: a local exclusive request whose only
//!   obstacle is remote *sharers* is granted immediately while the home
//!   engine invalidates the remote copies in the background (§2.5.3).
//! * **Pending entries**: each controller blocks conflicting requests to
//!   a line with an outstanding transaction and replays them in order when
//!   it completes.
//!
//! The bank applies coherence state changes to the real L1s ([`L1Set`])
//! synchronously — justified by the transactional, ordered intra-chip
//! switch, which is also what lets Piranha drop acknowledgements for
//! on-chip invalidations — and returns [`BankAction`]s that carry the
//! *timing* consequences (ICS transfers, memory accesses, protocol-engine
//! work) for the chip simulator to schedule.

use piranha_types::FastMap;
use std::collections::VecDeque;

use piranha_types::{FillSource, LineAddr, RemoteSummary, ReqType};

use crate::assoc::SetAssoc;
use crate::config::L2BankConfig;
use crate::dup::{DupTags, ExtState, Owner, Slot};
use crate::l1::L1Set;
use crate::mesi::Mesi;

/// An input to the bank state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankEvent {
    /// An L1 miss arriving over the ICS.
    Miss {
        /// The requesting L1.
        slot: Slot,
        /// The coherence request implied by the access.
        req: ReqType,
        /// The requested line.
        line: LineAddr,
        /// Whether this node is the line's home.
        home_local: bool,
        /// For store-type requests, the version the pending store will
        /// write (pre-allocated by the chip's global version counter).
        store_version: Option<u64>,
    },
    /// An L1 eviction notification (sent with the fill that displaced it).
    Victim {
        /// The evicting L1.
        slot: Slot,
        /// The displaced line.
        line: LineAddr,
        /// Its state at eviction.
        state: Mesi,
        /// Its data version.
        version: u64,
    },
    /// Local memory returned data (and the directory summary read from
    /// the line's ECC bits) for an earlier [`BankAction::ReadMem`].
    MemData {
        /// The line.
        line: LineAddr,
        /// Memory's data version.
        version: u64,
        /// Remote caching summary from the directory.
        remote: RemoteSummary,
    },
    /// A protocol engine delivered the fill for an earlier
    /// [`BankAction::RemoteReq`] or [`BankAction::HomeRecall`].
    RemoteFill {
        /// The line.
        line: LineAddr,
        /// Granted state.
        grant: Mesi,
        /// Data version, or `None` for a data-less upgrade acknowledgement.
        version: Option<u64>,
        /// Where the fill came from (for stall attribution).
        source: FillSource,
    },
    /// A protocol engine needs the line's data and a state change: either
    /// the home engine exporting to a remote requester, or the remote
    /// engine servicing a forwarded request.
    Export {
        /// The line.
        line: LineAddr,
        /// Whether the remote requester needs exclusivity (all on-chip
        /// copies are invalidated) or a shared copy (owner downgraded).
        excl: bool,
    },
    /// An invalidation from the inter-node protocol (e.g. a CMI hop):
    /// destroy all on-chip copies. Never queued behind pending
    /// transactions — that is what makes the upgrade race resolvable.
    InvalAll {
        /// The line.
        line: LineAddr,
    },
}

/// A timing/externally-visible consequence of a bank event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankAction {
    /// The requesting L1 has been granted the line (state already
    /// installed); the chip should wake the CPU after the reply latency
    /// implied by `source`.
    Grant {
        /// The requester.
        slot: Slot,
        /// The line.
        line: LineAddr,
        /// Installed MESI state.
        state: Mesi,
        /// Data version installed (for stores, the store's version).
        version: u64,
        /// Service point, for Figure 5/6 attribution.
        source: FillSource,
        /// `true` if this grant answered an upgrade in place (no data
        /// moved).
        upgraded: bool,
    },
    /// An on-chip copy was invalidated (state already applied); the chip
    /// charges one ICS transfer.
    Inval {
        /// The L1 that lost its copy.
        slot: Slot,
        /// The line.
        line: LineAddr,
    },
    /// An on-chip exclusive copy was downgraded to Shared.
    Downgrade {
        /// The L1 affected.
        slot: Slot,
        /// The line.
        line: LineAddr,
    },
    /// An L1 fill displaced a victim that maps to a *different* bank; the
    /// chip must deliver it there as a [`BankEvent::Victim`].
    VictimDisplaced {
        /// The evicting L1.
        slot: Slot,
        /// The displaced line.
        line: LineAddr,
        /// State at eviction.
        state: Mesi,
        /// Data version.
        version: u64,
    },
    /// Read the line (data + directory) from this bank's memory
    /// controller; reply with [`BankEvent::MemData`].
    ReadMem {
        /// The line.
        line: LineAddr,
    },
    /// Write the line back to local memory.
    WriteMem {
        /// The line.
        line: LineAddr,
        /// Version being written.
        version: u64,
    },
    /// Hand a miss on a remote-homed line to the remote engine; it will
    /// eventually deliver [`BankEvent::RemoteFill`].
    RemoteReq {
        /// Requesting L1 (for the eventual grant).
        slot: Slot,
        /// The line.
        line: LineAddr,
        /// Request type.
        req: ReqType,
    },
    /// Send a dirty victim of a remote-homed line to the remote engine as
    /// an inter-node write-back.
    RemoteWb {
        /// The line.
        line: LineAddr,
        /// Version written back.
        version: u64,
    },
    /// Ask the home engine to invalidate all remote sharers of this
    /// locally-homed line (fire-and-forget: the local grant was eager).
    HomeInvalRemote {
        /// The line.
        line: LineAddr,
    },
    /// Ask the home engine to recall the line from its remote exclusive
    /// owner; it will eventually deliver [`BankEvent::RemoteFill`].
    HomeRecall {
        /// Requesting L1.
        slot: Slot,
        /// The line.
        line: LineAddr,
        /// Request type.
        req: ReqType,
    },
    /// Reply to an [`BankEvent::Export`]: the line's current data version
    /// and whether it was dirty at node level (the engine must then
    /// freshen memory / forward dirty data).
    ExportReply {
        /// The line.
        line: LineAddr,
        /// Data version.
        version: u64,
        /// Whether the node's copy was dirty with respect to memory.
        dirty: bool,
        /// Whether any copy existed on-chip (drives the home engine's
        /// clean-exclusive decision).
        cached: bool,
    },
}

/// A queued request waiting behind a pending transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissWaiter {
    /// A queued L1 miss.
    Miss {
        /// Requesting L1.
        slot: Slot,
        /// Request type.
        req: ReqType,
        /// Whether this node is home.
        home_local: bool,
        /// Pre-allocated store version for store-type requests.
        store_version: Option<u64>,
    },
    /// A queued export from a protocol engine.
    Export {
        /// Whether the exporting request needs exclusivity.
        excl: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendKind {
    LocalMiss {
        slot: Slot,
        req: ReqType,
        home_local: bool,
        store_version: Option<u64>,
    },
    Export {
        excl: bool,
    },
}

#[derive(Debug)]
struct Pending {
    kind: PendKind,
    waiters: VecDeque<MissWaiter>,
}

/// One bank of the shared L2, together with its duplicate-L1-tag
/// directory and pending-transaction table.
///
/// # Examples
///
/// ```
/// use piranha_cache::{BankAction, BankEvent, L1Config, L1Set, L2Bank, L2BankConfig, Slot};
/// use piranha_types::{LineAddr, ReqType};
///
/// let mut bank = L2Bank::new(L2BankConfig::paper_default(), 0, 1);
/// let mut l1s = L1Set::new(8, L1Config::paper_default());
/// // A cold read miss on a locally-homed line goes to memory.
/// let acts = bank.handle(
///     BankEvent::Miss {
///         slot: Slot(1),
///         req: ReqType::Read,
///         line: LineAddr(64),
///         home_local: true,
///         store_version: None,
///     },
///     &mut l1s,
/// );
/// assert_eq!(acts, vec![BankAction::ReadMem { line: LineAddr(64) }]);
/// ```
#[derive(Debug)]
pub struct L2Bank {
    dup: DupTags,
    /// The bank's own storage: least-recently-loaded, because stamps
    /// are set at allocation and *not* refreshed by hits — the paper's
    /// "round-robin (or least-recently-loaded) replacement policy".
    /// Sets are indexed from the line bits above the low 3, which pick
    /// one of the paper's 8 banks.
    array: SetAssoc<()>,
    pending: FastMap<LineAddr, Pending>,
    bank_id: u64,
    bank_count: u64,
}

impl L2Bank {
    /// An empty bank. `bank_id`/`bank_count` define which lines this bank
    /// owns: those with `line % bank_count == bank_id` (the paper's
    /// low-order-bit interleaving).
    ///
    /// # Panics
    ///
    /// Panics if `bank_id >= bank_count` or `bank_count == 0`.
    pub fn new(cfg: L2BankConfig, bank_id: u64, bank_count: u64) -> Self {
        assert!(
            bank_count > 0 && bank_id < bank_count,
            "invalid bank interleave"
        );
        L2Bank {
            dup: DupTags::new(),
            array: SetAssoc::new(cfg.sets(), cfg.ways, 3),
            pending: FastMap::default(),
            bank_id,
            bank_count,
        }
    }

    /// Whether this bank owns `line` under the interleaving.
    pub fn owns(&self, line: LineAddr) -> bool {
        line.0 % self.bank_count == self.bank_id
    }

    /// The duplicate-tag directory (for invariant checks in tests).
    pub fn dup(&self) -> &DupTags {
        &self.dup
    }

    /// Whether the bank currently has a pending transaction on `line`.
    pub fn is_pending(&self, line: LineAddr) -> bool {
        self.pending.contains_key(&line)
    }

    /// Whether the bank's own storage holds `line` (for tests).
    pub fn in_array(&self, line: LineAddr) -> bool {
        self.array.find(line.0).is_some()
    }

    /// Every line resident in the bank's own storage, sorted — the
    /// array's occupancy irrespective of load stamps, for
    /// warming-fidelity checks.
    pub fn resident_lines(&self) -> Vec<LineAddr> {
        let mut lines: Vec<LineAddr> = self.array.iter().map(|w| LineAddr(w.tag)).collect();
        lines.sort_unstable();
        lines
    }

    /// Drop `line` from the bank's own storage, if there.
    fn array_remove(&mut self, line: LineAddr) {
        if let Some(i) = self.array.find(line.0) {
            self.array.remove(i);
        }
    }

    /// Feed one event through the bank, applying coherence state changes
    /// to `l1s` and returning the timing actions.
    ///
    /// # Panics
    ///
    /// Panics if the event concerns a line this bank does not own, or on
    /// internal protocol invariant violations (which indicate bugs, not
    /// recoverable conditions).
    pub fn handle(&mut self, ev: BankEvent, l1s: &mut L1Set) -> Vec<BankAction> {
        let mut out = Vec::new();
        self.handle_into(ev, l1s, &mut out);
        out
    }

    /// [`handle`](L2Bank::handle) appending the actions to `out`, so a
    /// caller that reuses one buffer allocates nothing per event.
    ///
    /// # Panics
    ///
    /// As [`handle`](L2Bank::handle).
    pub fn handle_into(&mut self, ev: BankEvent, l1s: &mut L1Set, out: &mut Vec<BankAction>) {
        match ev {
            BankEvent::Miss {
                slot,
                req,
                line,
                home_local,
                store_version,
            } => {
                assert!(self.owns(line), "miss for line {line} routed to wrong bank");
                if let Some(p) = self.pending.get_mut(&line) {
                    p.waiters.push_back(MissWaiter::Miss {
                        slot,
                        req,
                        home_local,
                        store_version,
                    });
                } else {
                    self.start_miss(slot, req, line, home_local, store_version, l1s, out);
                }
            }
            BankEvent::Victim {
                slot,
                line,
                state,
                version,
            } => {
                assert!(
                    self.owns(line),
                    "victim for line {line} routed to wrong bank"
                );
                self.victim(slot, line, state, version, out);
            }
            BankEvent::MemData {
                line,
                version,
                remote,
            } => {
                self.mem_data(line, version, remote, l1s, out);
            }
            BankEvent::RemoteFill {
                line,
                grant,
                version,
                source,
            } => {
                self.remote_fill(line, grant, version, source, l1s, out);
            }
            BankEvent::Export { line, excl } => {
                assert!(
                    self.owns(line),
                    "export for line {line} routed to wrong bank"
                );
                if let Some(p) = self.pending.get_mut(&line) {
                    p.waiters.push_back(MissWaiter::Export { excl });
                } else {
                    self.start_export(line, excl, l1s, out);
                }
            }
            BankEvent::InvalAll { line } => {
                self.inval_all(line, l1s, out);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn start_miss(
        &mut self,
        slot: Slot,
        req: ReqType,
        line: LineAddr,
        home_local: bool,
        store_version: Option<u64>,
        l1s: &mut L1Set,
        out: &mut Vec<BankAction>,
    ) {
        if self.dup.get(line).is_some() {
            if req == ReqType::Read {
                self.serve_read_on_chip(slot, line, l1s, out);
            } else {
                self.serve_excl(slot, req, line, home_local, store_version, l1s, out);
            }
            return;
        }
        // No on-chip copy at all.
        let eff_req = if req == ReqType::Upgrade {
            ReqType::ReadEx
        } else {
            req
        };
        if home_local {
            out.push(BankAction::ReadMem { line });
        } else {
            out.push(BankAction::RemoteReq {
                slot,
                line,
                req: eff_req,
            });
        }
        self.pending.insert(
            line,
            Pending {
                kind: PendKind::LocalMiss {
                    slot,
                    req: eff_req,
                    home_local,
                    store_version,
                },
                waiters: VecDeque::new(),
            },
        );
    }

    fn serve_read_on_chip(
        &mut self,
        slot: Slot,
        line: LineAddr,
        l1s: &mut L1Set,
        out: &mut Vec<BankAction>,
    ) {
        let e = self.dup.get(line).expect("caller checked");
        let ext = e.ext;
        match e.owner {
            Owner::L2 => {
                let version = e.l2_version;
                let lone = e.holder_count() == 0 && ext.exclusive_ok_on_chip();
                if lone {
                    // Clean-exclusive: hand the only copy to the L1 so a
                    // later store upgrades silently; the L2 copy is
                    // dropped (no duplicates).
                    let dirty_carry = e.l2_dirty;
                    self.array_remove(line);
                    self.dup.clear_l2(line, None);
                    self.install(slot, line, Mesi::Exclusive, version, ext, l1s, out);
                    let en = self.dup.get_mut(line).unwrap();
                    en.owner = Owner::L1(slot);
                    en.node_dirty = dirty_carry;
                    out.push(BankAction::Grant {
                        slot,
                        line,
                        state: Mesi::Exclusive,
                        version,
                        source: FillSource::L2Hit,
                        upgraded: false,
                    });
                } else {
                    self.install(slot, line, Mesi::Shared, version, ext, l1s, out);
                    out.push(BankAction::Grant {
                        slot,
                        line,
                        state: Mesi::Shared,
                        version,
                        source: FillSource::L2Hit,
                        upgraded: false,
                    });
                }
            }
            Owner::L1(owner) => {
                // Forward to the on-chip owner ("L2 Fwd"): the owner
                // supplies data and downgrades; ownership moves to the
                // requester (the last requester, per the paper).
                assert_ne!(owner, slot, "requester missed, cannot own the line");
                let (was_dirty, version) = l1s
                    .get_mut(owner)
                    .downgrade(line)
                    .expect("dup tags said owner holds the line");
                if was_dirty {
                    self.dup.get_mut(line).unwrap().node_dirty = true;
                }
                self.dup.set_l1(line, owner, Mesi::Shared, ext);
                out.push(BankAction::Downgrade { slot: owner, line });
                self.install(slot, line, Mesi::Shared, version, ext, l1s, out);
                self.dup.get_mut(line).unwrap().owner = Owner::L1(slot);
                out.push(BankAction::Grant {
                    slot,
                    line,
                    state: Mesi::Shared,
                    version,
                    source: FillSource::L2Fwd,
                    upgraded: false,
                });
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn serve_excl(
        &mut self,
        slot: Slot,
        req: ReqType,
        line: LineAddr,
        home_local: bool,
        store_version: Option<u64>,
        l1s: &mut L1Set,
        out: &mut Vec<BankAction>,
    ) {
        let ext = self.dup.get(line).expect("caller checked").ext;
        match ext {
            ExtState::HomeOnly | ExtState::HeldExclusive => {
                self.grant_excl_on_chip(slot, line, store_version, l1s, out);
            }
            ExtState::HomeRemoteShared => {
                // Remote copies are only sharers: grant eagerly and let
                // the home engine invalidate them in the background
                // (eager exclusive reply, §2.5.3).
                out.push(BankAction::HomeInvalRemote { line });
                self.dup.get_mut(line).unwrap().ext = ExtState::HomeOnly;
                self.grant_excl_on_chip(slot, line, store_version, l1s, out);
            }
            ExtState::HeldShared => {
                // We only hold shared rights: upgrade through home. Local
                // copies stay readable while we wait.
                out.push(BankAction::RemoteReq {
                    slot,
                    line,
                    req: ReqType::Upgrade,
                });
                self.pending.insert(
                    line,
                    Pending {
                        kind: PendKind::LocalMiss {
                            slot,
                            req,
                            home_local,
                            store_version,
                        },
                        waiters: VecDeque::new(),
                    },
                );
            }
        }
    }

    /// Grant exclusivity using only on-chip state (all external rights
    /// already secured). Commits the pending store.
    fn grant_excl_on_chip(
        &mut self,
        slot: Slot,
        line: LineAddr,
        store_version: Option<u64>,
        l1s: &mut L1Set,
        out: &mut Vec<BankAction>,
    ) {
        let sv = store_version.expect("exclusive-type requests carry a store version");
        let e = self.dup.get(line).expect("on-chip copy exists");
        let ext = e.ext;
        let owner0 = e.owner;
        let in_l2 = e.in_l2;
        let requester_holds = e.l1_state(slot).readable();
        let holders = e.holders();
        let mut source = FillSource::L2Hit;
        for h in holders {
            if h == slot {
                continue;
            }
            let _ = l1s
                .get_mut(h)
                .invalidate(line)
                .expect("dup tags said holder has the line");
            if owner0 == Owner::L1(h) {
                source = FillSource::L2Fwd;
            }
            self.dup.clear_l1(line, h);
            out.push(BankAction::Inval { slot: h, line });
        }
        if in_l2 {
            self.array_remove(line);
            self.dup.clear_l2(line, None);
        }
        if requester_holds {
            // Upgrade in place: no data moves; commit the store.
            l1s.get_mut(slot).upgrade(line, sv);
            self.dup.set_l1(line, slot, Mesi::Modified, ext);
            let en = self.dup.get_mut(line).unwrap();
            en.owner = Owner::L1(slot);
            en.ext = ext;
            out.push(BankAction::Grant {
                slot,
                line,
                state: Mesi::Modified,
                version: sv,
                source: FillSource::L2Hit,
                upgraded: true,
            });
        } else {
            // Fill with data (from the L2 copy or the invalidated owner)
            // and commit the store on top.
            self.install(slot, line, Mesi::Modified, sv, ext, l1s, out);
            let en = self.dup.get_mut(line).unwrap();
            en.owner = Owner::L1(slot);
            en.ext = ext;
            out.push(BankAction::Grant {
                slot,
                line,
                state: Mesi::Modified,
                version: sv,
                source,
                upgraded: false,
            });
        }
    }

    /// Install a line into an L1, updating the duplicate tags and routing
    /// any displaced victim: same-bank victims are processed inline,
    /// cross-bank victims surface as [`BankAction::VictimDisplaced`].
    #[allow(clippy::too_many_arguments)]
    fn install(
        &mut self,
        slot: Slot,
        line: LineAddr,
        state: Mesi,
        version: u64,
        ext: ExtState,
        l1s: &mut L1Set,
        out: &mut Vec<BankAction>,
    ) {
        let victim = l1s.get_mut(slot).fill(line, state, version);
        self.dup.set_l1(line, slot, state, ext);
        if let Some(v) = victim {
            if self.owns(v.line) {
                self.victim(slot, v.line, v.state, v.version, out);
            } else {
                out.push(BankAction::VictimDisplaced {
                    slot,
                    line: v.line,
                    state: v.state,
                    version: v.version,
                });
            }
        }
    }

    /// Process an L1 eviction: owner write-backs allocate in the L2
    /// (victim-cache fill), non-owner evictions are tag-only.
    fn victim(
        &mut self,
        slot: Slot,
        line: LineAddr,
        state: Mesi,
        version: u64,
        out: &mut Vec<BankAction>,
    ) {
        let Some(e) = self.dup.get(line) else {
            // The copy was already invalidated by a racing coherence
            // action; nothing to do.
            return;
        };
        if e.l1_state(slot) == Mesi::Invalid {
            // Already invalidated at the dup tags; stale notification.
            return;
        }
        let was_owner = e.owner == Owner::L1(slot);
        let dirty = state.dirty() || e.node_dirty;
        let ext = e.ext;
        self.dup.clear_l1(line, slot);
        if !was_owner {
            return;
        }
        // Owner eviction: write the data into the L2 (even if clean —
        // the L2 is the victim cache).
        assert!(!self.in_array(line), "owner L1 implies no L2 copy");
        // Lines with pending transactions are passed over as victims
        // when the set allows.
        let pending = &self.pending;
        if let Some((victim, ())) = self
            .array
            .insert(line.0, (), |l| pending.contains_key(&LineAddr(l)))
        {
            self.evict_l2_line(LineAddr(victim), out);
        }
        self.dup.set_l2(line, dirty, version, ext);
        if let Some(en) = self.dup.get_mut(line) {
            en.node_dirty = false; // dirtiness now recorded on the L2 copy
        }
    }

    /// Evict a line from the L2 array (capacity): dirty data is written
    /// home; clean data is dropped silently.
    fn evict_l2_line(&mut self, line: LineAddr, out: &mut Vec<BankAction>) {
        let e = self
            .dup
            .get(line)
            .expect("L2-resident line has a dup entry");
        assert!(e.in_l2, "array and dup tags disagree");
        let (dirty, version, ext) = (e.l2_dirty, e.l2_version, e.ext);
        self.array_remove(line);
        let survives = self.dup.clear_l2(line, None);
        if dirty {
            if ext.home_local() {
                out.push(BankAction::WriteMem { line, version });
            } else {
                out.push(BankAction::RemoteWb { line, version });
            }
        } else if ext == ExtState::HeldExclusive {
            // Even a *clean* exclusive line leaving the chip must write
            // back: the home's directory points at this node, and the
            // no-NAK protocol guarantees forwarded requests can always be
            // serviced — so exclusivity is only relinquished through an
            // acknowledged write-back (paper §2.5.3).
            out.push(BankAction::RemoteWb { line, version });
        }
        // Memory (or home) is now fresh; surviving sharers are clean.
        if survives && dirty {
            if let Some(en) = self.dup.get_mut(line) {
                en.node_dirty = false;
            }
        }
    }

    fn mem_data(
        &mut self,
        line: LineAddr,
        version: u64,
        remote: RemoteSummary,
        l1s: &mut L1Set,
        out: &mut Vec<BankAction>,
    ) {
        let p = self
            .pending
            .get(&line)
            .expect("MemData without pending transaction");
        match p.kind {
            PendKind::LocalMiss {
                slot,
                req,
                home_local,
                store_version,
            } => {
                debug_assert!(home_local, "memory reads only happen for local homes");
                match (req, remote) {
                    (_, RemoteSummary::Exclusive) => {
                        // Memory is stale; recall through the home engine
                        // and stay pending until the RemoteFill arrives.
                        out.push(BankAction::HomeRecall { slot, line, req });
                    }
                    (ReqType::Read, RemoteSummary::None) => {
                        self.fill_from_mem(
                            slot,
                            line,
                            Mesi::Exclusive,
                            version,
                            ExtState::HomeOnly,
                            l1s,
                            out,
                        );
                        self.complete(line, l1s, out);
                    }
                    (ReqType::Read, RemoteSummary::Shared) => {
                        self.fill_from_mem(
                            slot,
                            line,
                            Mesi::Shared,
                            version,
                            ExtState::HomeRemoteShared,
                            l1s,
                            out,
                        );
                        self.complete(line, l1s, out);
                    }
                    (_, RemoteSummary::None) => {
                        let sv = store_version.expect("store request carries a version");
                        self.fill_from_mem(
                            slot,
                            line,
                            Mesi::Modified,
                            sv,
                            ExtState::HomeOnly,
                            l1s,
                            out,
                        );
                        self.complete(line, l1s, out);
                    }
                    (_, RemoteSummary::Shared) => {
                        // Exclusive request with remote sharers: eager
                        // grant, background invalidation (memory data is
                        // valid, sharers are clean).
                        let sv = store_version.expect("store request carries a version");
                        out.push(BankAction::HomeInvalRemote { line });
                        self.fill_from_mem(
                            slot,
                            line,
                            Mesi::Modified,
                            sv,
                            ExtState::HomeOnly,
                            l1s,
                            out,
                        );
                        self.complete(line, l1s, out);
                    }
                }
            }
            PendKind::Export { excl: _ } => {
                out.push(BankAction::ExportReply {
                    line,
                    version,
                    dirty: false,
                    cached: false,
                });
                self.complete(line, l1s, out);
            }
        }
    }

    /// Fill an L1 directly from memory — *without* allocating in the L2
    /// (the paper's non-inclusive fill policy).
    #[allow(clippy::too_many_arguments)]
    fn fill_from_mem(
        &mut self,
        slot: Slot,
        line: LineAddr,
        state: Mesi,
        version: u64,
        ext: ExtState,
        l1s: &mut L1Set,
        out: &mut Vec<BankAction>,
    ) {
        self.install(slot, line, state, version, ext, l1s, out);
        let en = self.dup.get_mut(line).unwrap();
        en.owner = Owner::L1(slot);
        out.push(BankAction::Grant {
            slot,
            line,
            state,
            version,
            source: FillSource::LocalMem,
            upgraded: false,
        });
    }

    fn remote_fill(
        &mut self,
        line: LineAddr,
        grant: Mesi,
        version: Option<u64>,
        source: FillSource,
        l1s: &mut L1Set,
        out: &mut Vec<BankAction>,
    ) {
        let p = self
            .pending
            .get(&line)
            .expect("RemoteFill without pending transaction");
        let PendKind::LocalMiss {
            slot,
            req: _,
            home_local,
            store_version,
        } = p.kind
        else {
            panic!("RemoteFill for an export transaction");
        };
        let ext = if grant.writable() {
            if home_local {
                ExtState::HomeOnly
            } else {
                ExtState::HeldExclusive
            }
        } else if home_local {
            ExtState::HomeRemoteShared
        } else {
            ExtState::HeldShared
        };
        let requester_holds = self
            .dup
            .get(line)
            .map(|e| e.l1_state(slot).readable())
            .unwrap_or(false);
        if requester_holds {
            // Upgrade completion: promote in place; invalidate any other
            // local holders (exclusivity is now node-wide ours).
            assert!(grant.writable(), "upgrade reply must grant exclusivity");
            let sv = store_version.expect("upgrade was a store");
            let holders = self.dup.get(line).unwrap().holders();
            for h in holders {
                if h == slot {
                    continue;
                }
                l1s.get_mut(h).invalidate(line);
                self.dup.clear_l1(line, h);
                out.push(BankAction::Inval { slot: h, line });
            }
            if self.dup.get(line).unwrap().in_l2 {
                self.array_remove(line);
                self.dup.clear_l2(line, None);
            }
            l1s.get_mut(slot).upgrade(line, sv);
            self.dup.set_l1(line, slot, Mesi::Modified, ext);
            let en = self.dup.get_mut(line).unwrap();
            en.owner = Owner::L1(slot);
            en.ext = ext;
            out.push(BankAction::Grant {
                slot,
                line,
                state: Mesi::Modified,
                version: sv,
                source,
                upgraded: true,
            });
        } else {
            // The requester's own L1 may have silently evicted its Shared
            // copy while a data-less upgrade acknowledgement was in
            // flight; the data is then still on-chip with the owner
            // (silent drops are non-owner drops), so serve it from there.
            let version = version
                .or_else(|| self.node_version(line, l1s))
                .expect("protocol must supply data when the node lost its copy (no-NAK guarantee)");
            // On-chip copies (if any) must be gone for an exclusive grant.
            if grant.writable() {
                self.purge_on_chip(line, l1s, out);
            }
            let (state, v) = if let Some(sv) = store_version {
                (Mesi::Modified, sv)
            } else {
                (grant, version)
            };
            self.install(slot, line, state, v, ext, l1s, out);
            let en = self.dup.get_mut(line).unwrap();
            en.owner = Owner::L1(slot);
            en.ext = ext;
            out.push(BankAction::Grant {
                slot,
                line,
                state,
                version: v,
                source,
                upgraded: false,
            });
        }
        self.complete(line, l1s, out);
    }

    /// The current on-chip data version of `line`, from its owner.
    fn node_version(&self, line: LineAddr, l1s: &L1Set) -> Option<u64> {
        let e = self.dup.get(line)?;
        match e.owner {
            Owner::L2 => Some(e.l2_version),
            Owner::L1(o) => l1s.get(o).version(line),
        }
    }

    /// Remove every on-chip copy of `line` (helper for exclusive fills
    /// and inter-node invalidations).
    fn purge_on_chip(&mut self, line: LineAddr, l1s: &mut L1Set, out: &mut Vec<BankAction>) {
        let Some(e) = self.dup.get(line) else { return };
        let (holders, in_l2) = (e.holders(), e.in_l2);
        for h in holders {
            l1s.get_mut(h).invalidate(line);
            out.push(BankAction::Inval { slot: h, line });
        }
        if in_l2 {
            self.array_remove(line);
        }
        self.dup.remove(line);
    }

    fn start_export(
        &mut self,
        line: LineAddr,
        excl: bool,
        l1s: &mut L1Set,
        out: &mut Vec<BankAction>,
    ) {
        let Some(e) = self.dup.get(line) else {
            // Nothing on-chip: data comes from memory.
            out.push(BankAction::ReadMem { line });
            self.pending.insert(
                line,
                Pending {
                    kind: PendKind::Export { excl },
                    waiters: VecDeque::new(),
                },
            );
            return;
        };
        let (version, dirty) = match e.owner {
            Owner::L2 => (e.l2_version, e.l2_dirty || e.node_dirty),
            Owner::L1(o) => {
                let v = l1s
                    .get(o)
                    .version(line)
                    .expect("dup tags said owner holds it");
                let st = l1s.get(o).state(line);
                (v, st.dirty() || e.node_dirty)
            }
        };
        if excl {
            self.purge_on_chip(line, l1s, out);
        } else {
            // Shared export: downgrade any exclusive holder; memory gets
            // freshened by the engine if we report dirty.
            if let Some(o) = e.exclusive_holder() {
                let ext = e.ext;
                l1s.get_mut(o).downgrade(line);
                self.dup.set_l1(line, o, Mesi::Shared, ext);
                out.push(BankAction::Downgrade { slot: o, line });
            }
            let en = self.dup.get_mut(line).unwrap();
            en.node_dirty = false;
            en.l2_dirty = false;
            en.ext = if en.ext.home_local() {
                ExtState::HomeRemoteShared
            } else {
                ExtState::HeldShared
            };
        }
        out.push(BankAction::ExportReply {
            line,
            version,
            dirty,
            cached: true,
        });
    }

    fn inval_all(&mut self, line: LineAddr, l1s: &mut L1Set, out: &mut Vec<BankAction>) {
        self.purge_on_chip(line, l1s, out);
    }

    /// Complete the pending transaction on `line` and replay queued
    /// waiters in arrival order.
    fn complete(&mut self, line: LineAddr, l1s: &mut L1Set, out: &mut Vec<BankAction>) {
        let Some(p) = self.pending.remove(&line) else {
            return;
        };
        let mut waiters = p.waiters;
        while let Some(w) = waiters.pop_front() {
            match w {
                MissWaiter::Miss {
                    slot,
                    req,
                    home_local,
                    store_version,
                } => {
                    self.start_miss(slot, req, line, home_local, store_version, l1s, out);
                }
                MissWaiter::Export { excl } => {
                    self.start_export(line, excl, l1s, out);
                }
            }
            if let Some(np) = self.pending.get_mut(&line) {
                // A new transaction started; the rest keep waiting.
                np.waiters = waiters;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piranha_types::{CacheKind, CpuId};

    use crate::config::L1Config;

    const HOME: bool = true;
    const REMOTE: bool = false;

    fn setup() -> (L2Bank, L1Set) {
        (
            L2Bank::new(L2BankConfig::paper_default(), 0, 1),
            L1Set::new(8, L1Config::paper_default()),
        )
    }

    fn d(cpu: u8) -> Slot {
        Slot::new(CpuId(cpu), CacheKind::Data)
    }

    fn read(slot: Slot, line: u64, home: bool) -> BankEvent {
        BankEvent::Miss {
            slot,
            req: ReqType::Read,
            line: LineAddr(line),
            home_local: home,
            store_version: None,
        }
    }

    fn readex(slot: Slot, line: u64, home: bool, sv: u64) -> BankEvent {
        BankEvent::Miss {
            slot,
            req: ReqType::ReadEx,
            line: LineAddr(line),
            home_local: home,
            store_version: Some(sv),
        }
    }

    fn upgrade(slot: Slot, line: u64, home: bool, sv: u64) -> BankEvent {
        BankEvent::Miss {
            slot,
            req: ReqType::Upgrade,
            line: LineAddr(line),
            home_local: home,
            store_version: Some(sv),
        }
    }

    fn mem_data(line: u64, version: u64, remote: RemoteSummary) -> BankEvent {
        BankEvent::MemData {
            line: LineAddr(line),
            version,
            remote,
        }
    }

    /// Cold read fills from memory, no L2 allocation, clean-exclusive.
    #[test]
    fn cold_read_fills_exclusive_bypassing_l2() {
        let (mut bank, mut l1s) = setup();
        let a = bank.handle(read(d(0), 100, HOME), &mut l1s);
        assert_eq!(
            a,
            vec![BankAction::ReadMem {
                line: LineAddr(100)
            }]
        );
        assert!(bank.is_pending(LineAddr(100)));
        let a = bank.handle(mem_data(100, 5, RemoteSummary::None), &mut l1s);
        assert!(matches!(
            a[0],
            BankAction::Grant {
                state: Mesi::Exclusive,
                version: 5,
                source: FillSource::LocalMem,
                ..
            }
        ));
        assert!(
            !bank.in_array(LineAddr(100)),
            "non-inclusive: no L2 allocation on fill"
        );
        assert_eq!(l1s.get(d(0)).state(LineAddr(100)), Mesi::Exclusive);
        assert!(!bank.is_pending(LineAddr(100)));
    }

    /// A second reader is forwarded to the on-chip owner (L2 Fwd) and
    /// takes ownership.
    #[test]
    fn second_read_forwards_to_owner_l1() {
        let (mut bank, mut l1s) = setup();
        bank.handle(read(d(0), 100, HOME), &mut l1s);
        bank.handle(mem_data(100, 5, RemoteSummary::None), &mut l1s);
        let a = bank.handle(read(d(1), 100, HOME), &mut l1s);
        assert!(a.contains(&BankAction::Downgrade {
            slot: d(0),
            line: LineAddr(100)
        }));
        assert!(matches!(
            a.last().unwrap(),
            BankAction::Grant { slot, state: Mesi::Shared, source: FillSource::L2Fwd, .. }
                if *slot == d(1)
        ));
        assert_eq!(l1s.get(d(0)).state(LineAddr(100)), Mesi::Shared);
        assert_eq!(l1s.get(d(1)).state(LineAddr(100)), Mesi::Shared);
        let e = bank.dup().get(LineAddr(100)).unwrap();
        assert_eq!(
            e.owner,
            Owner::L1(d(1)),
            "ownership moves to the last requester"
        );
    }

    /// Store to a shared line upgrades in place and invalidates the other
    /// sharer without any memory traffic.
    #[test]
    fn upgrade_invalidates_other_sharers() {
        let (mut bank, mut l1s) = setup();
        bank.handle(read(d(0), 100, HOME), &mut l1s);
        bank.handle(mem_data(100, 5, RemoteSummary::None), &mut l1s);
        bank.handle(read(d(1), 100, HOME), &mut l1s);
        let a = bank.handle(upgrade(d(1), 100, HOME, 9), &mut l1s);
        assert!(a.contains(&BankAction::Inval {
            slot: d(0),
            line: LineAddr(100)
        }));
        assert!(matches!(
            a.last().unwrap(),
            BankAction::Grant {
                state: Mesi::Modified,
                version: 9,
                upgraded: true,
                ..
            }
        ));
        assert_eq!(l1s.get(d(0)).state(LineAddr(100)), Mesi::Invalid);
        assert_eq!(l1s.get(d(1)).state(LineAddr(100)), Mesi::Modified);
        assert_eq!(l1s.get(d(1)).version(LineAddr(100)), Some(9));
    }

    /// ReadEx against a dirty on-chip owner takes data from the owner.
    #[test]
    fn readex_steals_from_dirty_owner() {
        let (mut bank, mut l1s) = setup();
        bank.handle(readex(d(0), 100, HOME, 7), &mut l1s);
        // pending memory read even for ReadEx
        let a = bank.handle(mem_data(100, 0, RemoteSummary::None), &mut l1s);
        assert!(
            matches!(
                a[0],
                BankAction::Grant {
                    state: Mesi::Modified,
                    version: 7,
                    ..
                }
            ),
            "store version stamped on fill: {a:?}"
        );
        // d(0) now holds M with version 7. Another CPU stores.
        let a = bank.handle(readex(d(1), 100, HOME, 8), &mut l1s);
        assert!(a.contains(&BankAction::Inval {
            slot: d(0),
            line: LineAddr(100)
        }));
        let g = a
            .iter()
            .find_map(|x| match x {
                BankAction::Grant {
                    state,
                    version,
                    source,
                    ..
                } => Some((*state, *version, *source)),
                _ => None,
            })
            .unwrap();
        assert_eq!(g, (Mesi::Modified, 8, FillSource::L2Fwd));
        assert_eq!(l1s.get(d(1)).version(LineAddr(100)), Some(8));
    }

    /// Owner eviction writes into the L2 (victim cache); a later read
    /// hits in the L2.
    #[test]
    fn owner_victim_fills_l2_and_later_read_hits() {
        let (mut bank, mut l1s) = setup();
        bank.handle(read(d(0), 100, HOME), &mut l1s);
        bank.handle(mem_data(100, 5, RemoteSummary::None), &mut l1s);
        // Owner evicts (clean E): still written to L2.
        let a = bank.handle(
            BankEvent::Victim {
                slot: d(0),
                line: LineAddr(100),
                state: Mesi::Exclusive,
                version: 5,
            },
            &mut l1s,
        );
        assert!(
            a.is_empty(),
            "clean write-back into L2 has no external action: {a:?}"
        );
        assert!(bank.in_array(LineAddr(100)));
        let e = bank.dup().get(LineAddr(100)).unwrap();
        assert_eq!(e.owner, Owner::L2);
        assert!(!e.l2_dirty);
        // A later read is an L2 hit (clean-exclusive again).
        let a = bank.handle(read(d(1), 100, HOME), &mut l1s);
        assert!(matches!(
            a.last().unwrap(),
            BankAction::Grant {
                state: Mesi::Exclusive,
                source: FillSource::L2Hit,
                version: 5,
                ..
            }
        ));
        assert!(
            !bank.in_array(LineAddr(100)),
            "L2 copy moves to the L1 (no duplicates)"
        );
    }

    /// Non-owner evictions are tag-only drops.
    #[test]
    fn non_owner_victim_is_silent() {
        let (mut bank, mut l1s) = setup();
        bank.handle(read(d(0), 100, HOME), &mut l1s);
        bank.handle(mem_data(100, 5, RemoteSummary::None), &mut l1s);
        bank.handle(read(d(1), 100, HOME), &mut l1s); // d(1) now owner
                                                      // d(0) evicts its Shared copy: not the owner → silent.
        let a = bank.handle(
            BankEvent::Victim {
                slot: d(0),
                line: LineAddr(100),
                state: Mesi::Shared,
                version: 5,
            },
            &mut l1s,
        );
        assert!(a.is_empty());
        assert!(!bank.in_array(LineAddr(100)));
        // Owner d(1) evicts: write-back to L2.
        bank.handle(
            BankEvent::Victim {
                slot: d(1),
                line: LineAddr(100),
                state: Mesi::Shared,
                version: 5,
            },
            &mut l1s,
        );
        assert!(bank.in_array(LineAddr(100)));
    }

    /// A dirty line downgraded by a read forward keeps node-level
    /// dirtiness; the owner's eventual eviction writes dirty data to the
    /// L2, whose eviction writes memory.
    #[test]
    fn node_dirty_survives_downgrade_chain() {
        let (mut bank, mut l1s) = setup();
        bank.handle(readex(d(0), 100, HOME, 7), &mut l1s);
        bank.handle(mem_data(100, 0, RemoteSummary::None), &mut l1s); // M v7 at d0
        bank.handle(read(d(1), 100, HOME), &mut l1s); // downgrade d0, d1 owner (S)
        assert!(bank.dup().get(LineAddr(100)).unwrap().node_dirty);
        // Owner d1 evicts its *Shared* copy: must still write back.
        bank.handle(
            BankEvent::Victim {
                slot: d(1),
                line: LineAddr(100),
                state: Mesi::Shared,
                version: 7,
            },
            &mut l1s,
        );
        let e = bank.dup().get(LineAddr(100)).unwrap();
        assert!(e.in_l2 && e.l2_dirty, "L2 copy must be dirty");
        assert!(!e.node_dirty);
        // Evict from L2 via capacity: fill the set with owner write-backs.
        // Directly exercise the eviction helper instead.
        let mut out = Vec::new();
        bank.evict_l2_line(LineAddr(100), &mut out);
        assert_eq!(
            out,
            vec![BankAction::WriteMem {
                line: LineAddr(100),
                version: 7
            }]
        );
    }

    /// Concurrent misses to one line queue behind the pending entry and
    /// replay in order.
    #[test]
    fn pending_blocks_and_replays_waiters() {
        let (mut bank, mut l1s) = setup();
        bank.handle(read(d(0), 100, HOME), &mut l1s);
        let a = bank.handle(read(d(1), 100, HOME), &mut l1s);
        assert!(a.is_empty(), "second miss must queue: {a:?}");
        let a = bank.handle(mem_data(100, 5, RemoteSummary::None), &mut l1s);
        // First grant to d0 (E from memory), then replay: d1 forwards
        // from d0.
        let grants: Vec<Slot> = a
            .iter()
            .filter_map(|x| match x {
                BankAction::Grant { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(grants, vec![d(0), d(1)]);
        assert_eq!(l1s.get(d(0)).state(LineAddr(100)), Mesi::Shared);
        assert_eq!(l1s.get(d(1)).state(LineAddr(100)), Mesi::Shared);
    }

    /// Remote-homed miss goes to the remote engine; the fill installs
    /// with HeldShared/HeldExclusive external state.
    #[test]
    fn remote_miss_roundtrip() {
        let (mut bank, mut l1s) = setup();
        let a = bank.handle(read(d(0), 100, REMOTE), &mut l1s);
        assert_eq!(
            a,
            vec![BankAction::RemoteReq {
                slot: d(0),
                line: LineAddr(100),
                req: ReqType::Read
            }]
        );
        let a = bank.handle(
            BankEvent::RemoteFill {
                line: LineAddr(100),
                grant: Mesi::Shared,
                version: Some(3),
                source: FillSource::RemoteMem,
            },
            &mut l1s,
        );
        assert!(matches!(
            a[0],
            BankAction::Grant {
                source: FillSource::RemoteMem,
                ..
            }
        ));
        assert_eq!(
            bank.dup().get(LineAddr(100)).unwrap().ext,
            ExtState::HeldShared
        );
        // A store on the held-shared copy must upgrade through home.
        let a = bank.handle(upgrade(d(0), 100, REMOTE, 9), &mut l1s);
        assert_eq!(
            a,
            vec![BankAction::RemoteReq {
                slot: d(0),
                line: LineAddr(100),
                req: ReqType::Upgrade
            }]
        );
        // Ack-only reply completes the upgrade in place.
        let a = bank.handle(
            BankEvent::RemoteFill {
                line: LineAddr(100),
                grant: Mesi::Exclusive,
                version: None,
                source: FillSource::RemoteMem,
            },
            &mut l1s,
        );
        assert!(matches!(
            a.last().unwrap(),
            BankAction::Grant {
                state: Mesi::Modified,
                version: 9,
                upgraded: true,
                ..
            }
        ));
        assert_eq!(
            bank.dup().get(LineAddr(100)).unwrap().ext,
            ExtState::HeldExclusive
        );
    }

    /// The upgrade race: an inter-node invalidation lands while our
    /// upgrade is pending; the reply must then carry data.
    #[test]
    fn upgrade_race_resolved_with_data_reply() {
        let (mut bank, mut l1s) = setup();
        bank.handle(read(d(0), 100, REMOTE), &mut l1s);
        bank.handle(
            BankEvent::RemoteFill {
                line: LineAddr(100),
                grant: Mesi::Shared,
                version: Some(3),
                source: FillSource::RemoteMem,
            },
            &mut l1s,
        );
        bank.handle(upgrade(d(0), 100, REMOTE, 9), &mut l1s);
        // Invalidation wins the race at home and reaches us first.
        let a = bank.handle(
            BankEvent::InvalAll {
                line: LineAddr(100),
            },
            &mut l1s,
        );
        assert!(a.contains(&BankAction::Inval {
            slot: d(0),
            line: LineAddr(100)
        }));
        assert_eq!(l1s.get(d(0)).state(LineAddr(100)), Mesi::Invalid);
        assert!(bank.is_pending(LineAddr(100)), "upgrade still outstanding");
        // Home saw we were no longer a sharer and sent a full data reply.
        let a = bank.handle(
            BankEvent::RemoteFill {
                line: LineAddr(100),
                grant: Mesi::Exclusive,
                version: Some(11),
                source: FillSource::RemoteMem,
            },
            &mut l1s,
        );
        assert!(matches!(
            a.last().unwrap(),
            BankAction::Grant {
                state: Mesi::Modified,
                version: 9,
                upgraded: false,
                ..
            }
        ));
        assert_eq!(l1s.get(d(0)).state(LineAddr(100)), Mesi::Modified);
    }

    /// Recall path: memory said a remote node holds the line exclusively.
    #[test]
    fn dir_exclusive_triggers_recall() {
        let (mut bank, mut l1s) = setup();
        bank.handle(read(d(0), 100, HOME), &mut l1s);
        let a = bank.handle(mem_data(100, 0, RemoteSummary::Exclusive), &mut l1s);
        assert_eq!(
            a,
            vec![BankAction::HomeRecall {
                slot: d(0),
                line: LineAddr(100),
                req: ReqType::Read
            }]
        );
        assert!(bank.is_pending(LineAddr(100)));
        let a = bank.handle(
            BankEvent::RemoteFill {
                line: LineAddr(100),
                grant: Mesi::Shared,
                version: Some(20),
                source: FillSource::RemoteDirty,
            },
            &mut l1s,
        );
        assert!(matches!(
            a[0],
            BankAction::Grant {
                source: FillSource::RemoteDirty,
                version: 20,
                ..
            }
        ));
        assert_eq!(
            bank.dup().get(LineAddr(100)).unwrap().ext,
            ExtState::HomeRemoteShared,
            "owner retains a shared copy after a read recall"
        );
    }

    /// Eager exclusive grant when the directory shows only remote
    /// sharers.
    #[test]
    fn eager_exclusive_with_remote_sharers() {
        let (mut bank, mut l1s) = setup();
        bank.handle(readex(d(0), 100, HOME, 7), &mut l1s);
        let a = bank.handle(mem_data(100, 4, RemoteSummary::Shared), &mut l1s);
        assert!(a.contains(&BankAction::HomeInvalRemote {
            line: LineAddr(100)
        }));
        assert!(matches!(
            a.last().unwrap(),
            BankAction::Grant {
                state: Mesi::Modified,
                version: 7,
                ..
            }
        ));
        assert_eq!(
            bank.dup().get(LineAddr(100)).unwrap().ext,
            ExtState::HomeOnly
        );
    }

    /// Exclusive export destroys every on-chip copy and reports dirtiness.
    #[test]
    fn exclusive_export_purges_chip() {
        let (mut bank, mut l1s) = setup();
        bank.handle(readex(d(0), 100, HOME, 7), &mut l1s);
        bank.handle(mem_data(100, 0, RemoteSummary::None), &mut l1s);
        bank.handle(read(d(1), 100, HOME), &mut l1s); // two sharers, node dirty
        let a = bank.handle(
            BankEvent::Export {
                line: LineAddr(100),
                excl: true,
            },
            &mut l1s,
        );
        assert!(a.contains(&BankAction::Inval {
            slot: d(0),
            line: LineAddr(100)
        }));
        assert!(a.contains(&BankAction::Inval {
            slot: d(1),
            line: LineAddr(100)
        }));
        assert!(matches!(
            a.last().unwrap(),
            BankAction::ExportReply {
                version: 7,
                dirty: true,
                ..
            }
        ));
        assert!(bank.dup().get(LineAddr(100)).is_none());
        assert_eq!(l1s.get(d(0)).state(LineAddr(100)), Mesi::Invalid);
        assert_eq!(l1s.get(d(1)).state(LineAddr(100)), Mesi::Invalid);
    }

    /// Shared export downgrades the exclusive holder and marks the line
    /// remote-shared.
    #[test]
    fn shared_export_downgrades_owner() {
        let (mut bank, mut l1s) = setup();
        bank.handle(readex(d(0), 100, HOME, 7), &mut l1s);
        bank.handle(mem_data(100, 0, RemoteSummary::None), &mut l1s);
        let a = bank.handle(
            BankEvent::Export {
                line: LineAddr(100),
                excl: false,
            },
            &mut l1s,
        );
        assert!(a.contains(&BankAction::Downgrade {
            slot: d(0),
            line: LineAddr(100)
        }));
        assert!(matches!(
            a.last().unwrap(),
            BankAction::ExportReply {
                version: 7,
                dirty: true,
                ..
            }
        ));
        assert_eq!(l1s.get(d(0)).state(LineAddr(100)), Mesi::Shared);
        assert_eq!(
            bank.dup().get(LineAddr(100)).unwrap().ext,
            ExtState::HomeRemoteShared
        );
    }

    /// Export with nothing on-chip reads memory.
    #[test]
    fn export_from_memory() {
        let (mut bank, mut l1s) = setup();
        let a = bank.handle(
            BankEvent::Export {
                line: LineAddr(100),
                excl: false,
            },
            &mut l1s,
        );
        assert_eq!(
            a,
            vec![BankAction::ReadMem {
                line: LineAddr(100)
            }]
        );
        let a = bank.handle(mem_data(100, 6, RemoteSummary::None), &mut l1s);
        assert_eq!(
            a,
            vec![BankAction::ExportReply {
                line: LineAddr(100),
                version: 6,
                dirty: false,
                cached: false
            }]
        );
    }

    /// Dirty victims of remote-homed lines produce inter-node
    /// write-backs on L2 eviction.
    #[test]
    fn remote_dirty_l2_eviction_writes_back_to_home() {
        let (mut bank, mut l1s) = setup();
        bank.handle(readex(d(0), 100, REMOTE, 7), &mut l1s);
        bank.handle(
            BankEvent::RemoteFill {
                line: LineAddr(100),
                grant: Mesi::Exclusive,
                version: Some(1),
                source: FillSource::RemoteMem,
            },
            &mut l1s,
        );
        bank.handle(
            BankEvent::Victim {
                slot: d(0),
                line: LineAddr(100),
                state: Mesi::Modified,
                version: 7,
            },
            &mut l1s,
        );
        let mut out = Vec::new();
        bank.evict_l2_line(LineAddr(100), &mut out);
        assert_eq!(
            out,
            vec![BankAction::RemoteWb {
                line: LineAddr(100),
                version: 7
            }]
        );
        assert!(bank.dup().get(LineAddr(100)).is_none());
    }

    /// Misses must be routed by interleave.
    #[test]
    #[should_panic(expected = "wrong bank")]
    fn wrong_bank_panics() {
        let mut bank = L2Bank::new(L2BankConfig::paper_default(), 0, 8);
        let mut l1s = L1Set::new(8, L1Config::paper_default());
        bank.handle(read(d(0), 1, HOME), &mut l1s); // line 1 belongs to bank 1
    }

    /// The interleave function matches the paper: low line-address bits.
    #[test]
    fn interleave_by_low_bits() {
        let bank3 = L2Bank::new(L2BankConfig::paper_default(), 3, 8);
        assert!(bank3.owns(LineAddr(3)));
        assert!(bank3.owns(LineAddr(11)));
        assert!(!bank3.owns(LineAddr(4)));
    }
}
