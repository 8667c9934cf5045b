//! # ethainter — composite information-flow analysis for smart contracts
//!
//! A from-scratch Rust reproduction of *Ethainter: A Smart Contract
//! Security Analyzer for Composite Vulnerabilities* (PLDI 2020).
//!
//! Two layers:
//!
//! - [`formalism`] — the paper's §4 abstract language and inference rules
//!   (Figures 1–4), runnable in isolation from the bytecode pipeline.
//! - [`analysis`] — the production analysis over decompiled EVM bytecode
//!   (the Figure 5 mutual recursion): guard inference, sender-keyed
//!   data-structure modeling, two-flavor taint (input vs. storage), guard
//!   defeat, and the five vulnerability detectors of §3.
//!
//! # Examples
//!
//! ```
//! use ethainter::{analyze_bytecode, Config, Vuln};
//!
//! let src = r#"
//! contract Bad {
//!     address owner;
//!     function initOwner(address o) public { owner = o; }
//!     function kill() public { require(msg.sender == owner); selfdestruct(owner); }
//! }"#;
//! let compiled = minisol::compile_source(src).unwrap();
//! let report = analyze_bytecode(&compiled.bytecode, &Config::default());
//! assert!(report.has(Vuln::TaintedOwnerVariable));
//! assert!(report.has(Vuln::AccessibleSelfDestruct));
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod artifacts;
pub mod config;
mod engine;
pub mod formalism;
#[doc(hidden)]
pub mod reference;
pub mod report;
pub mod timing;
pub mod witness;

pub use analysis::{analyze, with_deadline};
pub use artifacts::AnalysisArtifacts;
pub use config::{Config, StorageModel};
pub use report::{FactCounts, Finding, Report, Stats, Vuln};
pub use timing::PhaseTimings;
pub use witness::{Witness, WitnessStep};

/// Version tag of the analysis *algorithm*, the third ingredient of
/// `crates/store`'s content-addressed cache key (alongside the bytecode
/// hash and [`Config::fingerprint`]). Bump the `+aN` suffix whenever a
/// change makes the analysis produce different reports for the same
/// (bytecode, config) pair — decompiler limits, new rules, fixed rules —
/// so previously cached results are invalidated instead of replayed.
pub const ANALYZER_VERSION: &str = concat!("ethainter-rs/", env!("CARGO_PKG_VERSION"), "+a3");

/// Decompiles `bytecode` and runs the analysis — the one front end of
/// the batch driver, the daemon, the CLI and Ethainter-Kill. A complete
/// program is linted raw into [`Report::lint`], shrunk by
/// [`decompiler::optimize`] (unless `config.optimize_ir` is off) and
/// analyzed; every contract then feeds the counters and histograms.
pub fn analyze_bytecode(bytecode: &[u8], config: &Config) -> Report {
    let sp_dec = telemetry::span("ethainter.decompile");
    let mut program = decompiler::decompile(bytecode);
    let decompile_us = sp_dec.finish_us();
    let mut report = if program.incomplete {
        // No passes over a broken CFG; `analyze` sets `decompile_failed`.
        analyze(&program, config)
    } else {
        let lint = decompiler::validate(&program);
        let sp_pass = telemetry::span("ethainter.passes");
        if config.optimize_ir {
            decompiler::optimize(&mut program, &decompiler::PassConfig::default());
        }
        let passes_us = sp_pass.finish_us();
        let mut report = analyze(&program, config);
        report.lint = (!lint.is_empty()).then_some(lint);
        report.stats.timings.passes_us = passes_us;
        report
    };
    report.stats.timings.decompile_us = decompile_us;
    // `analyze` stamped a total without the two phases above; re-derive.
    report.stats.timings.stamp_total();
    count(&report);
    report
}

/// Folds one contract into the global (lock-free) metrics registry.
fn count(report: &Report) {
    use telemetry::metrics;
    let t = &report.stats.timings;
    if report.decompile_failed.is_some() {
        metrics::counter("ethainter_contracts_decompile_failed_total").inc();
    } else if report.timed_out {
        metrics::counter("ethainter_contracts_timed_out_total").inc();
    } else {
        metrics::counter("ethainter_contracts_analyzed_total").inc();
        metrics::counter("ethainter_findings_total").add(report.findings.len() as u64);
        metrics::counter("ethainter_findings_composite_total")
            .add(report.findings.iter().filter(|f| f.composite).count() as u64);
        metrics::histogram("ethainter_phase_decompile_us").observe(t.decompile_us);
        metrics::histogram("ethainter_phase_passes_us").observe(t.passes_us);
        metrics::histogram("ethainter_phase_index_build_us").observe(t.index_build_us);
        metrics::histogram("ethainter_phase_fixpoint_us").observe(t.fixpoint_us);
        metrics::histogram("ethainter_phase_sink_scan_us").observe(t.sink_scan_us);
        if let Some((detectors_us, effects_us, composite_us)) = t.sink_scan_breakdown() {
            metrics::histogram("ethainter_phase_detectors_us").observe(detectors_us);
            metrics::histogram("ethainter_phase_effects_us").observe(effects_us);
            metrics::histogram("ethainter_phase_composite_us").observe(composite_us);
        }
        metrics::histogram("ethainter_phase_witness_us").observe(t.witness_us);
        metrics::histogram("ethainter_phase_total_us").observe(t.total_us);
    }
}
