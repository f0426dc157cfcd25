//! Property tests of the recovery guarantee (paper §2.7): under *any*
//! random fault schedule at recoverable rates, a bounded OLTP or DSS
//! run driven to completion commits exactly the same work as the
//! fault-free run of the same machine — faults may only cost cycles.

use proptest::prelude::*;

use piranha::experiments;
use piranha::harness::{RunRequest, RunScale};
use piranha::workloads::{DssConfig, Workload};
use piranha::{FaultConfig, SystemConfig};

fn two_chip_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
    cfg.cpu_quantum = 500;
    cfg
}

fn dss_bounded(lines: u64) -> Workload {
    Workload::Dss(DssConfig {
        line_limit: lines,
        ..DssConfig::paper_default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Random recoverable schedules never lose OLTP transactions.
    #[test]
    fn random_fault_schedules_preserve_oltp_work(
        seed in 0u64..10_000,
        rate in 1e-4f64..3e-3,
    ) {
        let w = experiments::oltp_bounded(6);
        let scale = RunScale::completion();
        let base = RunRequest::new(two_chip_cfg(), w.clone(), scale).run();
        let mut cfg = two_chip_cfg();
        cfg.faults = FaultConfig::seeded(seed, rate);
        let faulted = RunRequest::new(cfg, w.clone(), scale).run();
        prop_assert!(faulted.availability.is_consistent());
        prop_assert_eq!(
            faulted.committed_txns, base.committed_txns,
            "seed {} rate {} lost work", seed, rate
        );
        prop_assert_eq!(base.committed_txns, Some(6 * 4), "every stream finished");
    }

    /// The same guarantee holds for the scan-bound DSS workload.
    #[test]
    fn random_fault_schedules_preserve_dss_work(
        seed in 0u64..10_000,
        rate in 1e-4f64..3e-3,
    ) {
        let w = dss_bounded(512);
        let scale = RunScale::completion();
        let base = RunRequest::new(two_chip_cfg(), w.clone(), scale).run();
        let mut cfg = two_chip_cfg();
        cfg.faults = FaultConfig::seeded(seed, rate);
        let faulted = RunRequest::new(cfg, w.clone(), scale).run();
        prop_assert!(faulted.availability.is_consistent());
        prop_assert_eq!(
            faulted.committed_txns, base.committed_txns,
            "seed {} rate {} lost scan lines", seed, rate
        );
    }
}
