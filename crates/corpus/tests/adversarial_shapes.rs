//! Shape guarantees for the adversarial-scale corpus (ISSUE 6): size
//! envelopes, clean decompilation within default budgets, ground-truth
//! agreement, and the configured composite seed rate.

use corpus::adversarial as adv;
use corpus::templates::TemplateFn;
use corpus::{Population, PopulationConfig, Scale};
use ethainter::{analyze_bytecode, Config, Vuln};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every adversarial family at both scale presets, with the bytecode
/// size envelope (bytes) each preset promises.
fn families() -> Vec<(&'static str, TemplateFn, (usize, usize))> {
    const REALISTIC: (usize, usize) = (2_000, 25_000);
    const ADVERSARIAL: (usize, usize) = (10_000, 50_000);
    vec![
        ("defi_protocol/realistic", adv::defi_protocol_realistic as TemplateFn, REALISTIC),
        ("defi_protocol/adversarial", adv::defi_protocol_adversarial, ADVERSARIAL),
        ("guard_fortress/realistic", adv::guard_fortress_realistic, REALISTIC),
        ("guard_fortress/adversarial", adv::guard_fortress_adversarial, ADVERSARIAL),
        ("token_megasuite/realistic", adv::token_megasuite_realistic, REALISTIC),
        ("token_megasuite/adversarial", adv::token_megasuite_adversarial, ADVERSARIAL),
        ("guard_chain_breach/realistic", adv::guard_chain_breach_realistic, REALISTIC),
        ("guard_chain_breach/adversarial", adv::guard_chain_breach_adversarial, ADVERSARIAL),
        ("deep_pipeline/realistic", adv::deep_pipeline_realistic, REALISTIC),
        ("deep_pipeline/adversarial", adv::deep_pipeline_adversarial, ADVERSARIAL),
    ]
}

/// Tuning aid, not a gate: prints bytecode bytes, TAC statements, and
/// block counts per family so the `Knobs` presets can be re-calibrated.
/// Run with `cargo test -p corpus probe_adversarial -- --ignored --nocapture`.
#[test]
#[ignore]
fn probe_adversarial_shapes() {
    for (name, f, _) in families() {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = f(&mut rng);
        let compiled = minisol::compile_source(&spec.source).unwrap();
        let p = decompiler::decompile(&compiled.bytecode);
        let stmts: usize = p.blocks.iter().map(|b| b.stmts.len()).sum();
        println!(
            "{name}: {} B, {} stmts, {} blocks, incomplete={}",
            compiled.bytecode.len(),
            stmts,
            p.blocks.len(),
            p.incomplete
        );
    }
}

#[test]
fn adversarial_bytecode_stays_within_size_bounds() {
    for (name, f, (lo, hi)) in families() {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let spec = f(&mut rng);
            let compiled = minisol::compile_source(&spec.source)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: compile failed: {e}"));
            let n = compiled.bytecode.len();
            assert!(
                (lo..=hi).contains(&n),
                "{name} seed {seed}: bytecode {n} B outside [{lo}, {hi}]"
            );
        }
    }
}

#[test]
fn adversarial_contracts_decompile_cleanly_within_budget() {
    // Complete decompilation under the default Limits AND zero IR lint
    // violations — the same gate `ethainter lint` applies.
    for (name, f, _) in families() {
        let mut rng = StdRng::seed_from_u64(77);
        let spec = f(&mut rng);
        let compiled = minisol::compile_source(&spec.source).unwrap();
        let program = decompiler::decompile(&compiled.bytecode);
        assert!(!program.incomplete, "{name}: decompilation hit its budget");
        assert!(program.warnings.is_empty(), "{name}: warnings {:?}", program.warnings);
        let bad = decompiler::validate(&program);
        assert!(bad.is_empty(), "{name}: IR violations {bad:?}");
    }
}

#[test]
fn ground_truth_matches_analysis_on_adversarial_templates() {
    for (name, f, _) in families() {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = f(&mut rng);
        let compiled = minisol::compile_source(&spec.source).unwrap();
        let report = analyze_bytecode(&compiled.bytecode, &Config::default());
        assert!(
            report.decompile_failed.is_none() && !report.timed_out,
            "{name}: did not complete: {:?}",
            report.decompile_failed
        );
        for v in &spec.truth.exploitable {
            assert!(report.has(*v), "{name}: expected {v:?}, got {:?}", report.findings);
        }
        for v in Vuln::ALL {
            if report.has(v) {
                assert!(
                    spec.truth.exploitable.contains(&v) || spec.truth.decoy.contains(&v),
                    "{name}: spurious {v:?}"
                );
            }
        }
        // Composite families must carry the ✰ marker on at least one
        // finding; clean families produce no findings at all.
        if spec.truth.composite {
            assert!(
                report.findings.iter().any(|x| x.composite),
                "{name}: no composite marker in {:?}",
                report.findings
            );
        }
        if spec.truth.exploitable.is_empty() && spec.truth.decoy.is_empty() {
            assert!(report.findings.is_empty(), "{name}: findings {:?}", report.findings);
        }
    }
}

#[test]
fn scaled_populations_seed_composite_findings_at_configured_rate() {
    // The Realistic mixture carries ≥ 13% composite-labelled weight
    // (breach + pipeline + small composites), so a 40-contract
    // population is all but guaranteed to contain composite chains; the
    // fixed seed here makes the guarantee exact, and the analyzer must
    // confirm ≥ 1 of them end-to-end.
    for scale in [Scale::Realistic, Scale::Adversarial] {
        let pop = Population::generate(&PopulationConfig {
            size: 40,
            seed: 0xAD5E,
            scale,
            ..Default::default()
        });
        let labelled: Vec<_> = pop.contracts.iter().filter(|c| c.truth.composite).collect();
        assert!(
            !labelled.is_empty(),
            "{scale:?}: no composite-labelled contract in 40 draws"
        );
        let confirmed = labelled.iter().any(|c| {
            let r = analyze_bytecode(&c.bytecode, &Config::default());
            r.findings.iter().any(|x| x.composite)
        });
        assert!(confirmed, "{scale:?}: no composite finding confirmed by analysis");
    }
}

#[test]
fn default_scale_population_is_unchanged() {
    // Scale::Small must leave the historical population byte-identical
    // (cache keys and checkpoint/resume state depend on it).
    let old = PopulationConfig { size: 30, seed: 0xE71A, ..Default::default() };
    assert_eq!(old.scale, Scale::Small);
    let pop = Population::generate(&old);
    assert_eq!(pop.contracts.len(), 30);
    assert!(
        pop.contracts.iter().all(|c| c.bytecode.len() < 2_000),
        "small templates grew past the historical envelope"
    );
}
