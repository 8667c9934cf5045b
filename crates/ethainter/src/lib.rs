//! # ethainter — composite information-flow analysis for smart contracts
//!
//! A from-scratch Rust reproduction of *Ethainter: A Smart Contract
//! Security Analyzer for Composite Vulnerabilities* (PLDI 2020).
//!
//! Two layers:
//!
//! - [`formalism`] — the paper's §4 abstract language and inference rules
//!   (Figures 1–4), runnable in isolation on the `datalog` engine.
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
pub use timing::{PhaseTimer, PhaseTimings};
pub use witness::{Witness, WitnessStep};

/// Version tag of the analysis *algorithm*, the third ingredient of
/// `crates/store`'s content-addressed cache key (alongside the bytecode
/// hash and [`Config::fingerprint`]). Bump the `+aN` suffix whenever a
/// change makes the analysis produce different reports for the same
/// (bytecode, config) pair — decompiler limits, new rules, fixed rules —
/// so previously cached results are invalidated instead of replayed.
pub const ANALYZER_VERSION: &str = concat!("ethainter-rs/", env!("CARGO_PKG_VERSION"), "+a3");

/// Decompiles `bytecode` and runs the analysis — the end-to-end entry
/// point used by the CLI, the scanner, and Ethainter-Kill. With the
/// default config [`decompiler::optimize`] shrinks the TAC before the
/// fixpoint ever sees it — one def-use worklist constant propagation,
/// then one mark-sweep dead-code elimination; `config.optimize_ir =
/// false` analyzes the raw decompiler output instead.
pub fn analyze_bytecode(bytecode: &[u8], config: &Config) -> Report {
    let sp_dec = telemetry::span("ethainter.decompile");
    let mut program = decompiler::decompile_with_limits(bytecode, decompiler::Limits::default());
    let decompile_us = sp_dec.finish_us();
    let sp_pass = telemetry::span("ethainter.passes");
    if config.optimize_ir {
        decompiler::optimize(&mut program, &decompiler::PassConfig::default());
    }
    let passes_us = sp_pass.finish_us();
    let mut report = analyze(&program, config);
    report.stats.timings.decompile_us = decompile_us;
    report.stats.timings.passes_us = passes_us;
    // `analyze` stamped a total without the two phases above; re-derive.
    report.stats.timings.stamp_total();
    report
}
