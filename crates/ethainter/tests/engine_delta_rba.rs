//! Directed test for the sparse engine's delta-rba edge case: a guard
//! defeated *mid-fixpoint* must re-push its region's statements, or the
//! taint unlocked behind the guard is silently lost.
//!
//! The contract below is the minimal composite: `init` lets the
//! attacker write `owner` (tainting the guard's comparison slot), which
//! defeats `kill`'s `msg.sender == owner` check, which makes the
//! `selfdestruct` behind it attacker-reachable. When the sparse engine
//! processes the defeat it must flip exactly the guarded region's
//! `ReachableByAttacker` bits and reschedule those statements — a bug
//! here produces no panic, just a quietly missing finding, which is why
//! the dense reference engine (`ethainter::reference`) is run alongside
//! as the oracle.

use ethainter::{Config, Report, Vuln};

const TAKEOVER: &str = r#"contract Takeover {
    address owner;
    function init(address o) public { owner = o; }
    function kill(address to) public {
        require(msg.sender == owner);
        selfdestruct(to);
    }
}"#;

/// The contract's optimized program, analyzed by the production engine
/// and by the reference oracle under `cfg`: `(dense, sparse)`.
fn analyze_both(cfg: &Config) -> (Report, Report) {
    let compiled = minisol::compile_source(TAKEOVER).unwrap();
    let mut p = decompiler::decompile(&compiled.bytecode);
    decompiler::optimize(&mut p, &decompiler::PassConfig::default());
    (ethainter::reference::analyze(&p, cfg), ethainter::analyze(&p, cfg))
}

#[test]
fn guard_defeat_mid_fixpoint_repushes_the_guarded_region() {
    let (dense, sparse) = analyze_both(&Config::default());

    // The scenario must actually exercise the path: a guard is
    // defeated, and the finding lives *behind* that guard.
    assert!(
        !sparse.defeated_guards.is_empty(),
        "no guard defeated — the contract no longer exercises delta-rba"
    );
    assert!(
        sparse.has(Vuln::AccessibleSelfDestruct),
        "sparse engine lost the finding unlocked by the mid-fixpoint defeat: {:?}",
        sparse.findings
    );

    // And the oracle: every verdict byte-identical to the dense engine.
    assert_eq!(sparse.findings, dense.findings);
    assert_eq!(sparse.stats.facts, dense.stats.facts);
    assert_eq!(sparse.defeated_guards, dense.defeated_guards);
    assert_eq!(sparse.timed_out, dense.timed_out);
}

/// Same scenario with guards frozen: the defeat must NOT happen, the
/// finding must NOT appear, and the engines must still agree — the
/// sparse engine's defeat path has to respect `freeze_guards` exactly
/// like the dense one.
#[test]
fn frozen_guards_suppress_the_defeat_in_both_engines() {
    let (dense, sparse) = analyze_both(&Config { freeze_guards: true, ..Config::default() });
    assert!(sparse.defeated_guards.is_empty());
    assert!(!sparse.has(Vuln::AccessibleSelfDestruct));
    assert_eq!(sparse.findings, dense.findings);
    assert_eq!(sparse.stats.facts, dense.stats.facts);
}
