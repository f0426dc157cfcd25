//! The TPC-D-Query-6-like DSS workload engine (paper §3.1).
//!
//! "Query 6 scans the largest table in the database to assess the
//! increase in revenue that would have resulted if some discounts were
//! eliminated." The paper parallelizes it with Oracle Parallel Query
//! into four server processes per CPU over an in-memory database.
//!
//! Architecturally, Q6 is a streaming predicate + aggregate: sequential
//! reads with excellent spatial locality, a tiny instruction footprint
//! ("tight loops"), long dependency distances (each tuple is independent,
//! so wide-issue out-of-order cores profit), and a small memory-stall
//! component. Each CPU scans a disjoint chunk of the lineitem-like table
//! with its four slaves interleaved.

use piranha_cpu::{InstrStream, OpKind, StreamOp};
use piranha_kernel::Prng;
use piranha_types::Addr;

use crate::layout::Layout;
use crate::OpBuf;

/// Tuning knobs of the DSS scan engine.
#[derive(Debug, Clone)]
pub struct DssConfig {
    /// Bytes of the scanned (lineitem-like) table.
    pub table_bytes: u64,
    /// Parallel-query slave processes per CPU (4 in the paper).
    pub slaves_per_cpu: usize,
    /// Mean ALU instructions of predicate/aggregate work per 64-byte
    /// line of tuples (drives the CPU-bound character).
    pub instrs_per_line: u64,
    /// Probability an ALU op depends on the previous result (low:
    /// independent tuples expose ILP).
    pub serial_dep_rate: f64,
    /// A branch every this many instructions (tight loop).
    pub branch_every: u64,
    /// Branch misprediction rate (loop branches predict well).
    pub mispredict_rate: f64,
    /// Selectivity: fraction of tuples passing the predicate (these get
    /// the full aggregate work; the rest short-circuit).
    pub selectivity: f64,
    /// Code footprint in bytes (a few KB: the scan loop).
    pub code_bytes: u64,
    /// Stop after this many table lines per CPU stream (0 = unbounded).
    /// Bounded streams let fault-injection runs prove completion of
    /// identical work.
    pub line_limit: u64,
}

impl DssConfig {
    /// Parameters calibrated to the paper's in-memory Q6 setup.
    pub fn paper_default() -> Self {
        DssConfig {
            table_bytes: 192 << 20,
            slaves_per_cpu: 4,
            instrs_per_line: 520,
            serial_dep_rate: 0.58,
            branch_every: 8,
            mispredict_rate: 0.005,
            selectivity: 0.55,
            code_bytes: 6 << 10,
            line_limit: 0,
        }
    }
}

/// The per-CPU DSS scan stream.
#[derive(Debug)]
pub struct DssStream {
    cfg: DssConfig,
    rng: Prng,
    code_base: Addr,
    table_base: Addr,
    /// Per-slave scan cursors (line indices within the CPU's chunk).
    cursors: Vec<u64>,
    chunk_lines: u64,
    chunk_base_line: u64,
    slave: usize,
    queue: OpBuf,
    pc_off: u64,
    since_branch: u64,
    lines_scanned: u64,
    chain_gap: u32,
}

impl DssStream {
    /// The stream for CPU `cpu_index` of `total_cpus`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_index >= total_cpus`.
    pub fn new(cfg: DssConfig, cpu_index: usize, total_cpus: usize, seed: u64) -> Self {
        assert!(cpu_index < total_cpus);
        let mut l = Layout::new();
        let code = l.alloc("dss_code", cfg.code_bytes);
        let table = l.alloc("lineitem", cfg.table_bytes);
        let total_lines = table.size / 64;
        let chunk_lines = total_lines / total_cpus as u64;
        let chunk_base_line = chunk_lines * cpu_index as u64;
        let slaves = cfg.slaves_per_cpu.max(1);
        let per_slave = chunk_lines / slaves as u64;
        let cursors = (0..slaves as u64).map(|s| s * per_slave).collect();
        DssStream {
            rng: Prng::seed_from_u64(seed).derive(0xd55_000 + cpu_index as u64),
            cfg,
            code_base: code.base,
            table_base: table.base,
            cursors,
            chunk_lines,
            chunk_base_line,
            slave: 0,
            queue: OpBuf::default(),
            pc_off: 0,
            since_branch: 0,
            lines_scanned: 0,
            chain_gap: 1,
        }
    }

    /// Lines of the table consumed so far (for throughput reporting).
    pub fn lines_scanned(&self) -> u64 {
        self.lines_scanned
    }

    fn next_pc(&mut self) -> Addr {
        // A tight loop: the PC cycles through a tiny code region.
        let pc = Addr(self.code_base.0 + self.pc_off);
        self.pc_off = (self.pc_off + 4) % self.cfg.code_bytes;
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
                        taken: true,
                        mispredict: Some(mp),
                    },
                });
                continue;
            }
            // The aggregate accumulator forms a serial chain threading
            // through the independent per-tuple work.
            let dep1 = if self.rng.chance(self.cfg.serial_dep_rate) {
                let d = self.chain_gap;
                self.chain_gap = 1;
                d
            } else {
                self.chain_gap += 1;
                0
            };
            // Aggregation multiplies (price * discount).
            let mul = self.rng.chance(0.1);
            self.queue.push_back(StreamOp {
                pc,
                kind: OpKind::Alu { mul, dep1, dep2: 0 },
            });
        }
    }

    /// Emit the processing of one 64-byte line of tuples.
    fn generate_line(&mut self) {
        let slaves = self.cursors.len();
        let cur = &mut self.cursors[self.slave];
        let line_in_chunk = *cur % self.chunk_lines.max(1);
        *cur += 1;
        self.slave = (self.slave + 1) % slaves;
        let line = self.chunk_base_line + line_in_chunk;
        let addr = Addr(self.table_base.0 + line * 64);
        // Sequential load: the address comes from an induction variable,
        // not from memory — no pointer chasing, full MLP.
        let pc = self.next_pc();
        self.queue.push_back(StreamOp {
            pc,
            kind: OpKind::Load { addr, dep_addr: 0 },
        });
        self.chain_gap += 1;
        // A second load covers the rest of the tuple fields (same line:
        // spatial locality makes it an L1 hit).
        let pc = self.next_pc();
        self.queue.push_back(StreamOp {
            pc,
            kind: OpKind::Load {
                addr: Addr(addr.0 + 32),
                dep_addr: 0,
            },
        });
        self.chain_gap += 1;
        let full = self.rng.chance(self.cfg.selectivity);
        let work = if full {
            self.cfg.instrs_per_line
        } else {
            self.cfg.instrs_per_line / 3
        };
        // ±25% variation so the stream is not perfectly periodic.
        let jitter = self.rng.below(work / 2 + 1);
        self.push_alu(work * 3 / 4 + jitter);
        self.lines_scanned += 1;
    }
}

impl InstrStream for DssStream {
    fn next_op(&mut self) -> Option<StreamOp> {
        if self.queue.is_empty() {
            if self.cfg.line_limit > 0 && self.lines_scanned >= self.cfg.line_limit {
                return None;
            }
            self.generate_line();
        }
        self.queue.pop_front()
    }

    fn txns_committed(&self) -> Option<u64> {
        Some(self.lines_scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(n: usize, s: &mut DssStream) -> Vec<StreamOp> {
        (0..n)
            .map(|_| s.next_op().expect("infinite stream"))
            .collect()
    }

    #[test]
    fn line_limit_ends_the_stream_at_exactly_the_limit() {
        let cfg = DssConfig {
            line_limit: 5,
            ..DssConfig::paper_default()
        };
        let mut s = DssStream::new(cfg, 0, 4, 1);
        let ops: Vec<StreamOp> = std::iter::from_fn(|| s.next_op()).collect();
        assert!(!ops.is_empty());
        assert_eq!(s.txns_committed(), Some(5));
        assert_eq!(s.lines_scanned(), 5);
        assert!(s.next_op().is_none());
    }

    #[test]
    fn deterministic_and_cpu_disjoint() {
        let cfg = DssConfig::paper_default();
        let mut a = DssStream::new(cfg.clone(), 0, 4, 1);
        let mut b = DssStream::new(cfg.clone(), 0, 4, 1);
        assert_eq!(take(2000, &mut a), take(2000, &mut b));
        // CPUs scan disjoint chunks.
        let mut c = DssStream::new(cfg, 1, 4, 1);
        let loads = |ops: &[StreamOp]| -> Vec<u64> {
            ops.iter()
                .filter_map(|o| match o.kind {
                    OpKind::Load { addr, .. } => Some(addr.0),
                    _ => None,
                })
                .collect()
        };
        let la = loads(&take(5000, &mut a));
        let lc = loads(&take(5000, &mut c));
        let max_a = la.iter().max().unwrap();
        let min_c = lc.iter().min().unwrap();
        assert!(max_a < min_c, "chunk of CPU0 precedes chunk of CPU1");
    }

    #[test]
    fn streaming_spatial_locality() {
        let mut s = DssStream::new(DssConfig::paper_default(), 0, 1, 1);
        let ops = take(50_000, &mut s);
        let mut lines: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Load { addr, .. } => Some(addr.0 / 64),
                _ => None,
            })
            .collect();
        lines.dedup();
        // Interleaved slaves give 4 sequential runs; consecutive
        // accesses within a slave's run differ by one line.
        let mut sorted = lines.clone();
        sorted.sort();
        sorted.dedup();
        assert!(sorted.windows(2).filter(|w| w[1] == w[0] + 1).count() > sorted.len() / 2);
    }

    #[test]
    fn tiny_instruction_footprint() {
        let mut s = DssStream::new(DssConfig::paper_default(), 0, 1, 1);
        let ops = take(100_000, &mut s);
        let lines: std::collections::HashSet<_> = ops.iter().map(|o| o.pc.line()).collect();
        assert!(lines.len() as u64 * 64 <= DssConfig::paper_default().code_bytes);
    }

    #[test]
    fn cpu_bound_mix() {
        let mut s = DssStream::new(DssConfig::paper_default(), 0, 1, 1);
        let ops = take(100_000, &mut s);
        let mem = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Load { .. } | OpKind::Store { .. }))
            .count();
        let frac = mem as f64 / ops.len() as f64;
        assert!(frac < 0.03, "DSS is compute-bound, mem fraction {frac}");
    }

    #[test]
    fn no_stores_in_scan() {
        let mut s = DssStream::new(DssConfig::paper_default(), 0, 1, 1);
        let ops = take(50_000, &mut s);
        assert!(ops.iter().all(|o| !matches!(o.kind, OpKind::Store { .. })));
    }

    #[test]
    fn lines_scanned_advances() {
        let mut s = DssStream::new(DssConfig::paper_default(), 0, 2, 3);
        take(30_000, &mut s);
        assert!(s.lines_scanned() > 50);
    }
}
