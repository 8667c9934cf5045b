//! Every contract `analyze_one` finishes feeds each of the ten
//! `ethainter_phase_*_us` histograms exactly once. CI's perf tripwire
//! gates on these histograms as `ethainter batch --metrics-out` writes
//! them, so a phase that stops being observed must fail here first.
//!
//! The metrics registry is process-global: this file holds a single
//! test so no other test in the binary can add observations to it.

use driver::{analyze_one, Status};

const PHASES: [&str; 10] = [
    "decompile",
    "passes",
    "index_build",
    "fixpoint",
    "sink_scan",
    "detectors",
    "effects",
    "composite",
    "witness",
    "total",
];

#[test]
fn every_analyzed_contract_observes_every_phase_once() {
    const N: usize = 12;
    let pop = corpus::Population::generate(&corpus::PopulationConfig {
        size: N,
        seed: 5,
        ..Default::default()
    });
    let config = ethainter::Config::default();
    for (i, c) in pop.contracts.iter().enumerate() {
        let status = analyze_one(&c.bytecode, &config);
        assert!(matches!(status, Status::Analyzed { .. }), "contract {i}: {status:?}");
    }

    let snap = telemetry::metrics::snapshot();
    for phase in PHASES {
        let name = format!("ethainter_phase_{phase}_us");
        let count = snap
            .histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h.count)
            .unwrap_or_else(|| panic!("{name} is not registered"));
        assert_eq!(count, N as u64, "{name}");
    }
    let analyzed = snap
        .counters
        .iter()
        .find(|(n, _)| n == "ethainter_contracts_analyzed_total")
        .map(|(_, v)| *v);
    assert_eq!(analyzed, Some(N as u64));
}
