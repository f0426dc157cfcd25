//! The TPC-B-like OLTP workload engine (paper §3.1).
//!
//! "This benchmark models a banking database system that keeps track of
//! customers' account balances, as well as balances per branch and
//! teller. Each transaction updates a randomly chosen account balance,
//! which includes updating the balance of the branch the customer
//! belongs to and the teller from which the transaction is submitted. It
//! also adds an entry to the history table." The paper runs Oracle with
//! 8 dedicated server processes per CPU to hide I/O latency, a 40-branch
//! database, and observes ~25% kernel time.
//!
//! This engine reproduces that reference stream from an actual
//! transaction state machine: per-CPU server processes switch at commit
//! boundaries; each transaction performs kernel entry/exit work against
//! shared OS structures, a three-level B-tree probe (address-dependent
//! loads — pointer chasing), a random account-row update in a region far
//! exceeding the caches, *hot contended* branch and teller row updates
//! (the migratory communication pattern that dominates OLTP's
//! communication misses), a `wh64` history insert, and a shared log
//! append. Instruction addresses walk a multi-hundred-KB code footprint
//! in basic-block-sized runs, so the 64 KB iL1 misses while the shared
//! L2 holds the (single) code image — the effect that makes Piranha's
//! shared L2 so effective on OLTP.

use piranha_cpu::{InstrStream, OpKind, StreamOp};
use piranha_kernel::Prng;
use piranha_types::Addr;

use crate::layout::{Layout, Region};
use crate::OpBuf;

/// Tuning knobs of the OLTP engine.
#[derive(Debug, Clone)]
pub struct OltpConfig {
    /// Branches in the database (TPC-B scale; the paper uses 40).
    pub branches: u64,
    /// Tellers per branch (10 in TPC-B).
    pub tellers_per_branch: u64,
    /// Bytes of the account table (the miss-to-memory driver).
    pub account_bytes: u64,
    /// Bytes of hot shared metadata (SGA latches, buffer headers).
    pub sga_bytes: u64,
    /// Bytes of B-tree index nodes.
    pub index_bytes: u64,
    /// Database code footprint in bytes.
    pub code_bytes: u64,
    /// Kernel code footprint in bytes.
    pub kernel_code_bytes: u64,
    /// Dedicated server processes per CPU (8 in the paper).
    pub processes_per_cpu: usize,
    /// Per-process private (PGA/stack) bytes.
    pub pga_bytes: u64,
    /// B-tree levels probed per lookup.
    pub index_levels: u32,
    /// A conditional branch every this many instructions.
    pub branch_every: u64,
    /// Probability a branch mispredicts (data-dependent OLTP control
    /// flow predicts poorly).
    pub mispredict_rate: f64,
    /// Probability an ALU op depends on the immediately preceding
    /// result (low ILP: high value).
    pub serial_dep_rate: f64,
    /// Log-buffer slots (commits scatter across these).
    pub log_slots: u64,
    /// Work multiplier: >1 adds extra phases per transaction (used for
    /// the TPC-C-like variant).
    pub work_scale: u32,
    /// Stop after this many transactions per CPU stream (0 = unbounded,
    /// the fixed-instruction-window default). Bounded streams let
    /// fault-injection runs prove completion of identical work.
    pub txn_limit: u64,
}

impl OltpConfig {
    /// Parameters calibrated to the paper's TPC-B setup.
    pub fn paper_default() -> Self {
        OltpConfig {
            branches: 40,
            tellers_per_branch: 10,
            account_bytes: 48 << 20,
            sga_bytes: 768 << 10,
            index_bytes: 1 << 20,
            code_bytes: 320 << 10,
            kernel_code_bytes: 128 << 10,
            processes_per_cpu: 8,
            pga_bytes: 16 << 10,
            index_levels: 3,
            branch_every: 6,
            mispredict_rate: 0.05,
            serial_dep_rate: 0.70,
            log_slots: 32,
            work_scale: 1,
            txn_limit: 0,
        }
    }

    /// A heavier TPC-C-like mix (the paper's §4 robustness check: "P8
    /// outperforms OOO by over a factor of 3" on TPC-C).
    pub fn tpcc_like() -> Self {
        OltpConfig {
            account_bytes: 96 << 20,
            sga_bytes: 6 << 20,
            code_bytes: 640 << 10,
            work_scale: 3,
            ..Self::paper_default()
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Regions {
    kernel_code: Region,
    db_code: Region,
    sga: Region,
    index: Region,
    branch_rows: Region,
    teller_rows: Region,
    account: Region,
    history: Region,
    log: Region,
    pga: Region,
}

fn build_regions(cfg: &OltpConfig, total_procs: u64) -> Regions {
    let mut l = Layout::new();
    Regions {
        kernel_code: l.alloc("kernel_code", cfg.kernel_code_bytes),
        db_code: l.alloc("db_code", cfg.code_bytes),
        sga: l.alloc("sga", cfg.sga_bytes),
        index: l.alloc("index", cfg.index_bytes),
        branch_rows: l.alloc("branch_rows", cfg.branches * 128),
        teller_rows: l.alloc("teller_rows", cfg.branches * cfg.tellers_per_branch * 128),
        account: l.alloc("account", cfg.account_bytes),
        history: l.alloc("history", total_procs * (64 << 10)),
        log: l.alloc("log", cfg.log_slots * 4096),
        pga: l.alloc("pga", total_procs * cfg.pga_bytes),
    }
}

/// One server process's execution context.
#[derive(Debug, Clone)]
struct Process {
    /// Global process number (drives private-region placement).
    global_id: u64,
    /// Next history-record index for this process.
    history_next: u64,
}

/// The per-CPU OLTP instruction stream.
#[derive(Debug)]
pub struct OltpStream {
    cfg: OltpConfig,
    regions: Regions,
    rng: Prng,
    procs: Vec<Process>,
    current: usize,
    queue: OpBuf,
    /// Current instruction-fetch position.
    pc: Addr,
    /// Instructions left in the current basic-block run.
    run_left: u64,
    /// Instructions since the last branch.
    since_branch: u64,
    /// Kernel or user code? (drives which code region PCs come from)
    in_kernel: bool,
    txns_generated: u64,
    /// Sequential cursor of this CPU's share of log-writer flushes.
    log_writer_cursor: u64,
    /// Ops emitted since the last serial-chain member (dependency
    /// distances thread through the chain so the OOO window cannot hide
    /// them — this is what bounds OLTP's ILP).
    chain_gap: u32,
}

impl OltpStream {
    /// The stream for CPU `cpu_index` of `total_cpus`, deterministic in
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `total_cpus` is zero or `cpu_index` out of range.
    pub fn new(cfg: OltpConfig, cpu_index: usize, total_cpus: usize, seed: u64) -> Self {
        assert!(cpu_index < total_cpus, "cpu {cpu_index} of {total_cpus}");
        let total_procs = (total_cpus * cfg.processes_per_cpu) as u64;
        let regions = build_regions(&cfg, total_procs);
        let procs = (0..cfg.processes_per_cpu)
            .map(|p| Process {
                global_id: (cpu_index * cfg.processes_per_cpu + p) as u64,
                history_next: 0,
            })
            .collect();
        let rng = Prng::seed_from_u64(seed).derive(0x017_000 + cpu_index as u64);
        let pc = regions.db_code.base;
        OltpStream {
            cfg,
            regions,
            rng,
            procs,
            current: 0,
            queue: OpBuf::default(),
            pc,
            run_left: 16,
            since_branch: 0,
            in_kernel: false,
            txns_generated: 0,
            log_writer_cursor: 0,
            chain_gap: 1,
        }
    }

    /// Number of complete transactions generated so far.
    pub fn txns_generated(&self) -> u64 {
        self.txns_generated
    }

    fn code_region(&self) -> Region {
        if self.in_kernel {
            self.regions.kernel_code
        } else {
            self.regions.db_code
        }
    }

    /// Advance the fetch PC by one instruction, hopping to a new basic
    /// block when the current run ends (this is what creates the large
    /// instruction footprint).
    fn next_pc(&mut self) -> Addr {
        if self.run_left == 0 {
            let region = self.code_region();
            let block = self.rng.below(region.size / 256);
            self.pc = Addr(region.base.0 + block * 256);
            self.run_left = 8 + self.rng.below(48);
        }
        let pc = self.pc;
        self.pc = Addr(self.pc.0 + 4);
        self.run_left -= 1;
        pc
    }

    fn push_alu(&mut self, n: u64) {
        for _ in 0..n {
            let pc = self.next_pc();
            self.since_branch += 1;
            if self.since_branch >= self.cfg.branch_every {
                self.since_branch = 0;
                self.chain_gap += 1;
                let mp = self.rng.chance(self.cfg.mispredict_rate);
                self.queue.push_back(StreamOp {
                    pc,
                    kind: OpKind::Branch {
                        taken: self.rng.chance(0.6),
                        mispredict: Some(mp),
                    },
                });
                continue;
            }
            let dep1 = if self.rng.chance(self.cfg.serial_dep_rate) {
                let d = self.chain_gap;
                self.chain_gap = 1;
                d
            } else {
                self.chain_gap += 1;
                0
            };
            self.queue.push_back(StreamOp {
                pc,
                kind: OpKind::Alu {
                    mul: false,
                    dep1,
                    dep2: 0,
                },
            });
        }
    }

    fn push_load(&mut self, addr: Addr, dep_addr: u32) {
        let pc = self.next_pc();
        self.chain_gap += 1;
        self.queue.push_back(StreamOp {
            pc,
            kind: OpKind::Load { addr, dep_addr },
        });
    }

    fn push_store(&mut self, addr: Addr) {
        let pc = self.next_pc();
        self.chain_gap += 1;
        self.queue.push_back(StreamOp {
            pc,
            kind: OpKind::Store { addr },
        });
    }

    fn push_write_hint(&mut self, addr: Addr) {
        let pc = self.next_pc();
        self.chain_gap += 1;
        self.queue.push_back(StreamOp {
            pc,
            kind: OpKind::WriteHint { addr },
        });
    }

    fn sga_addr(&mut self) -> Addr {
        // Zipf-like tiers: latches and hot buffer headers (32 KB,
        // L1-resident), a warm 256 KB tier (L2-resident once warm), and
        // a cold tail over the whole SGA.
        let u = self.rng.unit_f64();
        let r = self.regions.sga;
        if u < 0.50 {
            r.at(self.rng.below(512) * 64)
        } else if u < 0.90 {
            r.at(self.rng.below(4096) * 64)
        } else {
            r.at(self.rng.below(r.size / 64) * 64)
        }
    }

    fn pga_addr(&mut self, proc_id: u64) -> Addr {
        let base = proc_id * self.cfg.pga_bytes;
        // Stack-like: hot top-of-stack.
        let off = self.rng.below(self.cfg.pga_bytes / 8);
        self.regions.pga.at(base + off)
    }

    /// Kernel entry/exit: shared OS structures (run queues, stats) —
    /// roughly the paper's 25% kernel component.
    fn phase_kernel(&mut self, proc_id: u64) {
        self.in_kernel = true;
        self.run_left = 0;
        self.push_alu(44);
        let a = self.sga_addr();
        self.push_load(a, 1);
        let b = self.pga_addr(proc_id);
        self.push_load(b, 1);
        let c = self.sga_addr();
        self.push_store(c);
        self.push_alu(22);
        self.in_kernel = false;
        self.run_left = 0;
    }

    fn phase_begin(&mut self, proc_id: u64) {
        self.push_alu(90);
        for _ in 0..3 {
            let a = self.sga_addr();
            self.push_load(a, 1);
        }
        let latch = self.sga_addr();
        self.push_load(latch, 1);
        self.push_store(latch); // latch acquire/release (contended RMW)
        let p = self.pga_addr(proc_id);
        self.push_store(p);
        self.push_alu(24);
    }

    /// Three-level B-tree probe: root is hot and shared read-only; the
    /// leaf is cold. Each level's address depends on the previous load
    /// (pointer chasing — no memory-level parallelism).
    fn phase_index_probe(&mut self) -> u64 {
        let account = self.rng.below(self.cfg.account_bytes / 128);
        let idx = self.regions.index;
        for level in 0..self.cfg.index_levels {
            let node = match level {
                0 => idx.at(0),
                1 => idx.at(4096 + (account % 64) * 256),
                // Leaves: a warm 512 KB set covers most probes; the rest
                // spread over the full leaf level.
                _ => {
                    if self.rng.chance(0.7) {
                        idx.at((64 << 10) + (account % 2048) * 256)
                    } else {
                        idx.at((64 << 10) + (account % ((idx.size - (64 << 10)) / 256)) * 256)
                    }
                }
            };
            self.push_load(node, 1);
            self.push_alu(12);
        }
        account
    }

    fn phase_account(&mut self, account: u64) {
        // Oracle reads the whole database block: block header first,
        // then the row (two adjacent lines) — giving the RDRAM open-page
        // locality the paper reports (§2.4).
        let block = self.regions.account.at(account * 2048);
        let row = Addr(block.0 + 256 + (account % 12) * 128);
        self.push_load(block, 1);
        self.push_alu(6);
        self.push_load(row, 1);
        self.push_alu(14);
        self.push_store(row);
    }

    fn phase_branch_teller(&mut self) {
        let b = self.rng.below(self.cfg.branches);
        let row = self.regions.branch_rows.record(b, 128);
        self.push_load(row, 1);
        self.push_alu(6);
        self.push_store(row);
        let t = b * self.cfg.tellers_per_branch + self.rng.below(self.cfg.tellers_per_branch);
        let trow = self.regions.teller_rows.record(t, 128);
        self.push_load(trow, 1);
        self.push_alu(6);
        self.push_store(trow);
    }

    fn phase_history(&mut self) {
        let p = &mut self.procs[self.current];
        let rec = p.history_next;
        p.history_next += 1;
        let gid = p.global_id;
        let addr = self
            .regions
            .history
            .at(gid * (64 << 10) + (rec * 64) % (64 << 10));
        // Whole-line insert: the wh64 write hint avoids fetching the
        // line (paper §2.5.3 footnote).
        self.push_write_hint(addr);
        self.push_store(addr);
        self.push_alu(8);
    }

    fn phase_log(&mut self) {
        let slot = self.rng.below(self.cfg.log_slots);
        let base = self.regions.log.at(slot * 4096 + self.rng.below(32) * 128);
        self.push_load(base, 1);
        self.push_store(base);
        self.push_store(Addr(base.0 + 64));
        self.push_alu(22);
    }

    /// The log-writer daemon: group-commits accumulated log records with
    /// a sequential whole-line burst (the `wh64` copy-routine pattern of
    /// paper footnote 2); this sequential write traffic is what earns the
    /// RDRAM open-page hits of §2.4.
    fn phase_log_writer(&mut self) {
        self.log_writer_cursor += 1;
        let base = self.log_writer_cursor * 32 * 64;
        for i in 0..32u64 {
            let addr = self.regions.log.at(base + i * 64);
            self.push_write_hint(addr);
            self.push_alu(3);
        }
    }

    /// The database-writer daemon: flushes a dirty 2 KB block back,
    /// streaming whole-line writes through the store buffer (`wh64`, the
    /// copy-routine pattern of paper footnote 2).
    fn phase_db_writer(&mut self) {
        let block = self.rng.below(self.cfg.account_bytes / 2048);
        for i in 0..32u64 {
            let addr = self.regions.account.at(block * 2048 + i * 64);
            self.push_write_hint(addr);
            if i % 4 == 0 {
                self.push_alu(3);
            }
        }
        self.push_alu(20);
    }

    /// Generate one whole transaction for the current process, then
    /// switch processes (the paper's I/O-latency hiding).
    fn generate_txn(&mut self) {
        let proc_id = self.procs[self.current].global_id;
        self.phase_kernel(proc_id);
        self.phase_begin(proc_id);
        for _ in 0..self.cfg.work_scale {
            let account = self.phase_index_probe();
            self.phase_account(account);
            self.phase_branch_teller();
        }
        self.phase_history();
        self.phase_log();
        if self.txns_generated % 4 == 3 {
            self.phase_log_writer();
        }
        if self.txns_generated % 8 == 5 {
            self.phase_db_writer();
        }
        self.phase_kernel(proc_id);
        self.txns_generated += 1;
        // Commit: the process waits for its log I/O; another takes over.
        self.current = (self.current + 1) % self.procs.len();
        self.run_left = 0;
    }
}

impl InstrStream for OltpStream {
    fn next_op(&mut self) -> Option<StreamOp> {
        if self.queue.is_empty() {
            if self.cfg.txn_limit > 0 && self.txns_generated >= self.cfg.txn_limit {
                return None;
            }
            self.generate_txn();
        }
        self.queue.pop_front()
    }

    fn txns_committed(&self) -> Option<u64> {
        Some(self.txns_generated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(n: usize, s: &mut OltpStream) -> Vec<StreamOp> {
        (0..n)
            .map(|_| s.next_op().expect("infinite stream"))
            .collect()
    }

    #[test]
    fn deterministic_from_seed() {
        let cfg = OltpConfig::paper_default();
        let mut a = OltpStream::new(cfg.clone(), 0, 8, 42);
        let mut b = OltpStream::new(cfg, 0, 8, 42);
        assert_eq!(take(5000, &mut a), take(5000, &mut b));
    }

    #[test]
    fn txn_limit_ends_the_stream_at_exactly_the_limit() {
        let cfg = OltpConfig {
            txn_limit: 3,
            ..OltpConfig::paper_default()
        };
        let mut s = OltpStream::new(cfg, 0, 8, 42);
        let ops: Vec<StreamOp> = std::iter::from_fn(|| s.next_op()).collect();
        assert!(!ops.is_empty());
        assert_eq!(s.txns_committed(), Some(3));
        assert!(s.next_op().is_none(), "stream stays exhausted");
        // The unbounded default never ends.
        let mut unbounded = OltpStream::new(OltpConfig::paper_default(), 0, 8, 42);
        assert_eq!(take(5000, &mut unbounded).len(), 5000);
    }

    #[test]
    fn different_cpus_differ_but_share_tables() {
        let cfg = OltpConfig::paper_default();
        let mut a = OltpStream::new(cfg.clone(), 0, 8, 42);
        let mut b = OltpStream::new(cfg.clone(), 1, 8, 42);
        let oa = take(5000, &mut a);
        let ob = take(5000, &mut b);
        assert_ne!(oa, ob, "different CPUs run different transactions");
        // Both touch the same branch-row region (communication!).
        let r = build_regions(&cfg, 64).branch_rows;
        let touches = |ops: &[StreamOp]| {
            ops.iter().any(|o| match o.kind {
                OpKind::Store { addr } => addr.0 >= r.base.0 && addr.0 < r.base.0 + r.size,
                _ => false,
            })
        };
        assert!(touches(&oa) && touches(&ob));
    }

    #[test]
    fn instruction_mix_is_commercial() {
        let mut s = OltpStream::new(OltpConfig::paper_default(), 0, 1, 7);
        let ops = take(50_000, &mut s);
        let loads = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Load { .. }))
            .count();
        let stores = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Store { .. } | OpKind::WriteHint { .. }))
            .count();
        let branches = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Branch { .. }))
            .count();
        let lf = loads as f64 / ops.len() as f64;
        let sf = stores as f64 / ops.len() as f64;
        let bf = branches as f64 / ops.len() as f64;
        assert!((0.03..0.30).contains(&lf), "load fraction {lf}");
        assert!((0.02..0.20).contains(&sf), "store fraction {sf}");
        assert!((0.05..0.25).contains(&bf), "branch fraction {bf}");
    }

    #[test]
    fn code_footprint_exceeds_l1() {
        let mut s = OltpStream::new(OltpConfig::paper_default(), 0, 1, 7);
        let ops = take(200_000, &mut s);
        let mut lines = std::collections::HashSet::new();
        for o in &ops {
            lines.insert(o.pc.line());
        }
        let bytes = lines.len() as u64 * 64;
        assert!(
            bytes > 64 * 1024,
            "instruction footprint {bytes}B must exceed the 64KB iL1"
        );
    }

    #[test]
    fn processes_rotate_at_commit() {
        let mut s = OltpStream::new(OltpConfig::paper_default(), 0, 1, 7);
        take(10_000, &mut s);
        assert!(
            s.txns_generated() >= 8,
            "several transactions in 10k instrs"
        );
    }

    #[test]
    fn tpcc_variant_has_more_work_per_txn() {
        let mut b = OltpStream::new(OltpConfig::paper_default(), 0, 1, 7);
        let mut c = OltpStream::new(OltpConfig::tpcc_like(), 0, 1, 7);
        take(50_000, &mut b);
        take(50_000, &mut c);
        assert!(
            c.txns_generated() < b.txns_generated(),
            "TPC-C-like transactions are longer"
        );
    }

    #[test]
    fn write_hints_present() {
        let mut s = OltpStream::new(OltpConfig::paper_default(), 0, 1, 7);
        let ops = take(20_000, &mut s);
        assert!(ops
            .iter()
            .any(|o| matches!(o.kind, OpKind::WriteHint { .. })));
    }
}
