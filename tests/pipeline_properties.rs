//! Property-based tests across the pipeline: compile → execute and
//! compile → decompile → analyze invariants on randomly generated
//! contracts and inputs.

use chain::TestNet;
use corpus::{Population, PopulationConfig};
use decompiler::{decompile, Op};
use ethainter::{analyze, analyze_bytecode, Config, Vuln};
use evm::U256;
use proptest::prelude::*;

/// A tiny random-contract generator: state vars + arithmetic functions.
/// (The corpus templates cover realistic shapes; this covers weird ones.)
fn arb_contract() -> impl Strategy<Value = String> {
    (1usize..4, 1usize..4, any::<u32>()).prop_map(|(nvars, nfns, salt)| {
        let mut src = String::from("contract Fuzz {\n");
        for i in 0..nvars {
            src.push_str(&format!("    uint v{i};\n"));
        }
        for f in 0..nfns {
            let target = f % nvars;
            match (salt as usize + f) % 4 {
                0 => src.push_str(&format!(
                    "    function f{f}(uint a) public {{ v{target} = a + {}; }}\n",
                    salt % 97
                )),
                1 => src.push_str(&format!(
                    "    function f{f}(uint a) public {{ if (a > {}) {{ v{target} = a; }} }}\n",
                    salt % 13
                )),
                2 => src.push_str(&format!(
                    "    function f{f}() public returns (uint) {{ return v{target} * 3; }}\n"
                )),
                _ => src.push_str(&format!(
                    "    function f{f}(uint a) public {{ uint i = 0; while (i < a % 5) {{ v{target} += i; i += 1; }} }}\n"
                )),
            }
        }
        src.push('}');
        src
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated contract compiles, decompiles with fully resolved
    /// control flow, and its TAC is def-use well-formed.
    #[test]
    fn decompiled_tac_is_well_formed(src in arb_contract()) {
        let compiled = minisol::compile_source(&src).unwrap();
        let p = decompile(&compiled.bytecode);
        prop_assert!(!p.incomplete);
        prop_assert!(p.warnings.iter().all(|w| !w.contains("unresolved")), "{:?}", p.warnings);
        // Every use is defined somewhere (params are defined by Copy in preds).
        for s in p.iter_stmts() {
            for u in &s.uses {
                let defined = p.iter_stmts().any(|d| d.def == Some(*u));
                prop_assert!(defined, "use of undefined {u} in {s:?}");
            }
        }
        // Block statement lists partition the statements.
        let mut seen = vec![false; p.stmts.len()];
        for b in &p.blocks {
            for sid in &b.stmts {
                prop_assert!(!seen[sid.0 as usize], "statement in two blocks");
                seen[sid.0 as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&x| x));
    }

    /// Executing a compiled setter then getter round-trips the value
    /// modulo the function semantics — and never breaks the VM.
    #[test]
    fn compiled_contracts_execute_safely(src in arb_contract(), arg in any::<u64>()) {
        let compiled = minisol::compile_source(&src).unwrap();
        let mut net = TestNet::new();
        let user = net.funded_account(U256::from(1_000_000u64));
        let c = net.deploy(user, compiled.bytecode.clone());
        for f in compiled.functions.iter().filter(|f| f.dispatched) {
            let mut data = f.selector.to_vec();
            data.extend_from_slice(&U256::from(arg % 1000).to_be_bytes());
            let r = net.call(user, c, data, U256::ZERO);
            // Out-of-gas or revert is fine; panics/unknown errors are not.
            let _ = r;
        }
        prop_assert!(!net.is_destroyed(c));
    }

    /// Ablation containment: the guard-free analysis reports a superset
    /// of the default findings; the storage-free analysis a subset.
    #[test]
    fn ablation_monotonicity(src in arb_contract()) {
        let compiled = minisol::compile_source(&src).unwrap();
        let base = analyze_bytecode(&compiled.bytecode, &Config::default());
        let no_guard = analyze_bytecode(&compiled.bytecode, &Config::no_guard_model());
        let no_storage = analyze_bytecode(&compiled.bytecode, &Config::no_storage_taint());
        for v in Vuln::ALL {
            if base.has(v) {
                prop_assert!(no_guard.has(v) || v == Vuln::TaintedOwnerVariable,
                    "no-guard lost {v:?}");
            }
            if no_storage.has(v) {
                prop_assert!(base.has(v), "no-storage invented {v:?}");
            }
        }
    }

    /// The analysis is a pure function of the bytecode.
    #[test]
    fn analysis_is_deterministic(src in arb_contract()) {
        let compiled = minisol::compile_source(&src).unwrap();
        let a = analyze_bytecode(&compiled.bytecode, &Config::default());
        let b = analyze_bytecode(&compiled.bytecode, &Config::default());
        prop_assert_eq!(a.findings, b.findings);
    }

    /// Random byte blobs never panic any stage.
    #[test]
    fn random_bytecode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let p = decompile(&bytes);
        let _ = analyze(&p, &Config::default());
        let _ = baselines::securify::analyze_program(&p);
        let _ = p.iter_stmts().filter(|s| s.op == Op::SelfDestruct).count();
    }
}

#[test]
fn population_scan_never_times_out_on_defaults() {
    let pop = Population::generate(&PopulationConfig { size: 80, seed: 5, ..Default::default() });
    for c in &pop.contracts {
        let r = analyze_bytecode(&c.bytecode, &Config::default());
        assert!(
            r.decompile_failed.is_none() && !r.timed_out,
            "{} did not complete: {:?}",
            c.family,
            r.decompile_failed
        );
    }
}
