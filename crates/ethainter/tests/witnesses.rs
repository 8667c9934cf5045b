//! Witness integration tests: provenance paths over real compiled
//! bytecode — structure, sink anchoring, axiom roots, and the
//! byte-identity of reports with witnesses off.

use ethainter::{analyze_bytecode, Config, Report, Vuln};

/// The §2-style composite contract: a public initializer makes the
/// owner attacker-settable, defeating the owner guard on `kill`.
const BAD: &str = r#"
contract Bad {
    address owner;
    function initOwner(address o) public { owner = o; }
    function kill() public { require(msg.sender == owner); selfdestruct(owner); }
}"#;

fn analyze_with(src: &str, cfg: &Config) -> Report {
    let compiled = minisol::compile_source(src).unwrap();
    analyze_bytecode(&compiled.bytecode, cfg)
}

#[test]
fn witnesses_cover_every_finding_in_order() {
    let cfg = Config { witness: true, ..Config::default() };
    let r = analyze_with(BAD, &cfg);
    assert!(!r.findings.is_empty());
    let ws = r.witnesses.as_ref().expect("witness mode populates witnesses");
    assert_eq!(ws.len(), r.findings.len());
    for (w, f) in ws.iter().zip(&r.findings) {
        assert_eq!((w.vuln, w.stmt, w.pc), (f.vuln, f.stmt, f.pc));
    }
}

#[test]
fn witness_path_runs_from_axioms_to_the_sink() {
    let cfg = Config { witness: true, ..Config::default() };
    let r = analyze_with(BAD, &cfg);
    let ws = r.witnesses.as_ref().unwrap();
    let w = ws
        .iter()
        .find(|w| w.vuln == Vuln::TaintedOwnerVariable)
        .expect("Bad has a tainted owner variable");
    // Last step is the sink, with rendered TAC.
    let sink = w.steps.last().unwrap();
    assert!(sink.rule.starts_with("sink-"), "{:?}", sink);
    assert_eq!(sink.stmt, Some(w.stmt));
    assert!(sink.code.as_deref().unwrap_or("").contains("SStore"), "{sink:?}");
    // At least one step before the sink, and sources precede uses: the
    // first step must be an axiom or a source rule (nothing to cite).
    assert!(w.steps.len() >= 2, "{:?}", w.steps);
    let first = &w.steps[0];
    assert!(
        first.rule.starts_with("axiom") || first.rule == "source-calldata",
        "{first:?}"
    );
}

#[test]
fn composite_witness_cites_the_defeated_guard() {
    let cfg = Config { witness: true, ..Config::default() };
    let r = analyze_with(BAD, &cfg);
    let ws = r.witnesses.as_ref().unwrap();
    // The guarded selfdestruct becomes reachable only by defeating the
    // owner guard; its accessible-selfdestruct witness must say so.
    let w = ws
        .iter()
        .find(|w| w.vuln == Vuln::AccessibleSelfDestruct)
        .expect("guard defeat makes kill() reachable");
    let rules: Vec<&str> = w.steps.iter().map(|s| s.rule.as_str()).collect();
    assert!(
        rules.contains(&"guard-defeat") && rules.contains(&"guards-defeated"),
        "expected a guard-defeat chain, got {rules:?}"
    );
    assert!(
        w.steps.iter().any(|s| s.fact.contains("defeated")),
        "{:?}",
        w.steps
    );
}

#[test]
fn witness_off_leaves_reports_byte_identical_to_before() {
    let on = analyze_with(BAD, &Config { witness: true, ..Config::default() });
    let off = analyze_with(BAD, &Config::default());
    assert!(off.witnesses.is_none());
    // The field serializes as absent, not null, so witness-off JSON has
    // no trace of the feature...
    let off_json = serde_json::to_string(&off).unwrap();
    assert!(!off_json.contains("witnesses"), "{off_json}");
    // ...and the verdict halves agree: stripping witnesses and timings
    // from the witness run reproduces the plain run exactly.
    let strip = |mut r: Report| {
        r.witnesses = None;
        r.stats.timings = Default::default();
        serde_json::to_string(&r).unwrap()
    };
    assert_eq!(strip(on), strip(off));
}

#[test]
fn timings_keep_the_total_invariant_and_time_the_witness_phase() {
    let r = analyze_with(BAD, &Config { witness: true, ..Config::default() });
    let t = &r.stats.timings;
    assert_eq!(t.total_us, t.phase_sum());
    // decompile is always nonzero wall-clock on a real contract.
    assert!(t.decompile_us > 0 || t.fixpoint_us > 0 || t.total_us > 0);
}

/// The `Bad` contract's witnesses (the crate's doc example), pinned
/// byte-for-byte: any change to how provenance is recorded shows up as
/// a diff of the golden file. Regenerate it with
/// `UPDATE_GOLDEN=1 cargo test -p ethainter --test witnesses`.
#[test]
fn bad_contract_witnesses_match_the_golden_file() {
    let r = analyze_with(BAD, &Config { witness: true, ..Config::default() });
    let got = serde_json::to_string_pretty(&r.witnesses).unwrap() + "\n";
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/bad_witnesses.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
    }
    let want = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(got, want, "witnesses drifted from {path}");
}
