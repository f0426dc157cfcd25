//! A web-search workload in the AltaVista mould (paper §6).
//!
//! "We expect Piranha to also be well suited for a large class of web
//! server applications that have explicit thread-level parallelism.
//! Previous studies have shown that some web server applications, such
//! as the AltaVista search engine, exhibit behavior similar to decision
//! support (DSS) workloads."
//!
//! The engine models query serving over an in-memory inverted index:
//! each query walks a few posting lists (sequential, DSS-like streaming
//! with good spatial locality and high ILP), intersects them (ALU work),
//! and touches a small amount of shared metadata (query cache, statistics
//! — a modest communication component absent from pure DSS). Many
//! concurrent query threads per CPU supply the explicit thread-level
//! parallelism.

use piranha_cpu::{InstrStream, OpKind, StreamOp};
use piranha_kernel::Prng;
use piranha_types::Addr;

use crate::layout::Layout;
use crate::OpBuf;

/// Tuning knobs of the web-search engine.
#[derive(Debug, Clone)]
pub struct WebConfig {
    /// Bytes of the in-memory inverted index.
    pub index_bytes: u64,
    /// Concurrent query threads per CPU.
    pub threads_per_cpu: usize,
    /// Posting lists walked per query.
    pub lists_per_query: u32,
    /// Lines streamed per posting list.
    pub lines_per_list: u64,
    /// ALU instructions per streamed line (ranking/intersection work).
    pub instrs_per_line: u64,
    /// Probability an ALU op extends the serial chain.
    pub serial_dep_rate: f64,
    /// Shared metadata bytes (query cache, global statistics).
    pub meta_bytes: u64,
    /// Code footprint (larger than DSS's scan loop, far smaller than
    /// OLTP's).
    pub code_bytes: u64,
}

impl WebConfig {
    /// Parameters matching the paper's "similar to DSS" characterization
    /// with a light sharing component.
    pub fn paper_default() -> Self {
        WebConfig {
            index_bytes: 128 << 20,
            threads_per_cpu: 6,
            lists_per_query: 3,
            lines_per_list: 24,
            instrs_per_line: 180,
            serial_dep_rate: 0.45,
            meta_bytes: 512 << 10,
            code_bytes: 48 << 10,
        }
    }
}

/// The per-CPU web-search stream.
#[derive(Debug)]
pub struct WebStream {
    cfg: WebConfig,
    rng: Prng,
    code_base: Addr,
    index_base: Addr,
    meta_base: Addr,
    queue: OpBuf,
    pc_off: u64,
    since_branch: u64,
    chain_gap: u32,
    queries_served: u64,
    thread: usize,
}

impl WebStream {
    /// The stream for CPU `cpu_index` of `total_cpus`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_index >= total_cpus`.
    pub fn new(cfg: WebConfig, cpu_index: usize, total_cpus: usize, seed: u64) -> Self {
        assert!(cpu_index < total_cpus);
        let mut l = Layout::new();
        let code = l.alloc("web_code", cfg.code_bytes);
        let meta = l.alloc("web_meta", cfg.meta_bytes);
        let index = l.alloc("web_index", cfg.index_bytes);
        WebStream {
            rng: Prng::seed_from_u64(seed).derive(0x3eb_000 + cpu_index as u64),
            cfg,
            code_base: code.base,
            index_base: index.base,
            meta_base: meta.base,
            queue: OpBuf::default(),
            pc_off: 0,
            since_branch: 0,
            chain_gap: 1,
            queries_served: 0,
            thread: 0,
        }
    }

    /// Queries completed so far.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    fn next_pc(&mut self) -> Addr {
        let pc = Addr(self.code_base.0 + self.pc_off);
        self.pc_off = (self.pc_off + 4) % self.cfg.code_bytes;
        pc
    }

    fn push_alu(&mut self, n: u64) {
        for _ in 0..n {
            let pc = self.next_pc();
            self.since_branch += 1;
            if self.since_branch >= 7 {
                self.since_branch = 0;
                self.chain_gap += 1;
                let mp = self.rng.chance(0.01);
                self.queue.push_back(StreamOp {
                    pc,
                    kind: OpKind::Branch {
                        taken: true,
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

    fn generate_query(&mut self) {
        // Shared metadata: query-cache probe + a statistics update.
        let meta = Addr(self.meta_base.0 + self.rng.below(self.cfg.meta_bytes / 64) * 64);
        self.push_load(meta, 1);
        self.push_alu(30);
        // Walk the posting lists: sequential streams starting at random
        // index positions; addresses come from an induction variable
        // (full memory-level parallelism on a wide core).
        for _ in 0..self.cfg.lists_per_query {
            let total_lines = self.cfg.index_bytes / 64;
            let start = self
                .rng
                .below(total_lines.saturating_sub(self.cfg.lines_per_list));
            for i in 0..self.cfg.lines_per_list {
                let addr = Addr(self.index_base.0 + (start + i) * 64);
                self.push_load(addr, 0);
                self.push_alu(self.cfg.instrs_per_line);
            }
        }
        // Result assembly + statistics write.
        self.push_alu(60);
        let stat = Addr(self.meta_base.0 + self.rng.below(64) * 64);
        let pc = self.next_pc();
        self.queue.push_back(StreamOp {
            pc,
            kind: OpKind::Store { addr: stat },
        });
        self.queries_served += 1;
        self.thread = (self.thread + 1) % self.cfg.threads_per_cpu.max(1);
    }
}

impl InstrStream for WebStream {
    fn next_op(&mut self) -> Option<StreamOp> {
        if self.queue.is_empty() {
            self.generate_query();
        }
        self.queue.pop_front()
    }

    /// Queries are this stream's unit of work. Deliberately *not*
    /// `txns_committed` — that feeds `fingerprint()` and must stay
    /// `None` for web streams.
    fn units_completed(&self) -> Option<u64> {
        Some(self.queries_served)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(n: usize, s: &mut WebStream) -> Vec<StreamOp> {
        (0..n)
            .map(|_| s.next_op().expect("infinite stream"))
            .collect()
    }

    #[test]
    fn deterministic() {
        let cfg = WebConfig::paper_default();
        let mut a = WebStream::new(cfg.clone(), 0, 4, 7);
        let mut b = WebStream::new(cfg, 0, 4, 7);
        assert_eq!(take(3000, &mut a), take(3000, &mut b));
    }

    #[test]
    fn dss_like_signature_with_light_sharing() {
        let mut s = WebStream::new(WebConfig::paper_default(), 0, 1, 7);
        let ops = take(100_000, &mut s);
        let mem = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Load { .. } | OpKind::Store { .. }))
            .count() as f64
            / ops.len() as f64;
        assert!(mem < 0.05, "compute-bound like DSS: {mem}");
        let stores = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Store { .. }))
            .count();
        assert!(stores > 0, "statistics updates create a sharing component");
        let code_lines: std::collections::HashSet<_> = ops.iter().map(|o| o.pc.line()).collect();
        let code_bytes = code_lines.len() as u64 * 64;
        assert!(
            code_bytes <= 48 << 10,
            "small-ish code footprint: {code_bytes}"
        );
    }

    #[test]
    fn posting_lists_stream_sequentially() {
        let mut s = WebStream::new(WebConfig::paper_default(), 0, 1, 7);
        let ops = take(60_000, &mut s);
        let loads: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Load { addr, .. } => Some(addr.0 / 64),
                _ => None,
            })
            .collect();
        let sequential_pairs =
            loads.windows(2).filter(|w| w[1] == w[0] + 1).count() as f64 / loads.len() as f64;
        assert!(
            sequential_pairs > 0.7,
            "streaming index walks: {sequential_pairs}"
        );
    }

    #[test]
    fn queries_complete() {
        let mut s = WebStream::new(WebConfig::paper_default(), 1, 2, 3);
        take(80_000, &mut s);
        assert!(s.queries_served() > 3);
    }
}
