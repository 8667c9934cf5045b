//! The one front end, `analyze_bytecode`: what it reports for a
//! contract the decompiler gives up on, and that its fields are absent
//! from a clean contract's JSON (so `analyze --json`, cache segments and
//! `merged.jsonl` keep their bytes).

use ethainter::{analyze_bytecode, Config};

#[test]
fn an_incomplete_decompile_is_a_decompile_failure_without_passes() {
    // Adversarial seed 3, contract 64: the first of that stream whose
    // decompile runs out of budget.
    let cfg = corpus::PopulationConfig {
        seed: 3,
        scale: corpus::Scale::Adversarial,
        ..Default::default()
    };
    let code = corpus::stream(&cfg).nth(64).unwrap().bytecode;
    let report = analyze_bytecode(&code, &Config::default());
    assert_eq!(
        report.decompile_failed.as_deref(),
        Some("decompile budget exhausted; CFG incomplete")
    );
    assert!(!report.timed_out);
    assert!(report.findings.is_empty());
    // `optimize` never ran on the broken CFG.
    assert_eq!(report.stats.timings.passes_us, 0);
}

#[test]
fn a_clean_complete_report_serializes_without_the_front_end_fields() {
    let src = "contract C { uint v; function set(uint a) public { v = a; } }";
    let code = minisol::compile_source(src).unwrap().bytecode;
    let report = analyze_bytecode(&code, &Config::default());
    assert_eq!((&report.decompile_failed, &report.lint), (&None, &None));
    let json = serde_json::to_string(&report).unwrap();
    assert!(
        !json.contains("decompile_failed") && !json.contains("lint"),
        "{json}"
    );
}
