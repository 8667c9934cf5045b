//! Differential equivalence of the production (sparse) fixpoint engine
//! and the dense reference oracle, `ethainter::reference`.
//!
//! The sparse engine is only a *scheduling* change: both engines
//! evaluate the same monotone rule system, which has a unique least
//! fixpoint, so every observable verdict — findings, fact counts,
//! defeated guards, timeout status — must be byte-identical. The two
//! legitimate differences are `stats.rounds` (an engine-specific effort
//! metric) and `stats.timings` (wall-clock), which are deliberately
//! excluded here.

use ethainter::{Config, Report, StorageModel};
use proptest::prelude::*;

/// Everything the engines must agree on, extracted for comparison.
fn verdict(r: &Report) -> (Vec<ethainter::Finding>, ethainter::FactCounts, Vec<usize>, bool) {
    (r.findings.clone(), r.stats.facts, r.defeated_guards.clone(), r.timed_out)
}

/// Decompiles and (with `optimize_ir`) optimizes `code` as
/// `analyze_bytecode` does for a complete program, minus its lint and
/// telemetry, so `optimize_ir` participates: the engines must agree on
/// raw and optimized IR alike.
fn prepared(code: &[u8], cfg: &Config) -> decompiler::Program {
    let mut p = decompiler::decompile(code);
    if cfg.optimize_ir {
        decompiler::optimize(&mut p, &decompiler::PassConfig::default());
    }
    p
}

/// The headline differential: 500 generated contracts, decompiled and
/// optimized once each, analyzed by both engines under the default
/// config. Any divergence fails with the contract pinpointed.
#[test]
fn five_hundred_contract_corpus_differential() {
    let pop = corpus::Population::generate(&corpus::PopulationConfig {
        size: 500,
        seed: 7,
        ..Default::default()
    });
    let cfg = Config::default();
    let mut findings_seen = 0usize;
    let mut defeats_seen = 0usize;
    for (i, c) in pop.contracts.iter().enumerate() {
        let mut p = decompiler::decompile(&c.bytecode);
        decompiler::optimize(&mut p, &decompiler::PassConfig::default());
        let d = ethainter::reference::analyze(&p, &cfg);
        let s = ethainter::analyze(&p, &cfg);
        assert_eq!(
            verdict(&d),
            verdict(&s),
            "engines diverge on contract {i} ({}#{})",
            c.family,
            c.id
        );
        findings_seen += s.findings.len();
        defeats_seen += s.defeated_guards.len();
    }
    // The corpus must actually exercise the interesting paths, or the
    // differential proves nothing.
    assert!(findings_seen > 0, "corpus produced no findings");
    assert!(defeats_seen > 0, "corpus defeated no guards (delta-rba path untested)");
}

/// Ablation configs on a smaller slice: every Figure 8 switch
/// combination must also agree, since the engines share the rule
/// predicates, not just the default path.
#[test]
fn ablation_configs_agree_across_engines() {
    let pop = corpus::Population::generate(&corpus::PopulationConfig {
        size: 60,
        seed: 23,
        ..Default::default()
    });
    let ablations = [
        Config::default(),
        Config { guard_modeling: false, ..Config::default() },
        Config { storage_taint: false, ..Config::default() },
        Config { storage_model: StorageModel::Conservative, ..Config::default() },
        Config { freeze_guards: true, ..Config::default() },
        Config { range_guards: false, ..Config::default() },
    ];
    for c in &pop.contracts {
        let mut p = decompiler::decompile(&c.bytecode);
        decompiler::optimize(&mut p, &decompiler::PassConfig::default());
        for cfg in &ablations {
            let d = ethainter::reference::analyze(&p, cfg);
            let s = ethainter::analyze(&p, cfg);
            assert_eq!(
                verdict(&d),
                verdict(&s),
                "engines diverge on {}#{} under {cfg:?}",
                c.family,
                c.id
            );
        }
    }
}

fn arb_config() -> impl Strategy<Value = Config> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(guards, storage, conservative, freeze, opt, range)| Config {
            guard_modeling: guards,
            storage_taint: storage,
            storage_model: if conservative {
                StorageModel::Conservative
            } else {
                StorageModel::Precise
            },
            freeze_guards: freeze,
            optimize_ir: opt,
            range_guards: range,
            witness: false,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Scaled presets: random (seed, scale, config) triples where the
    /// scale is drawn from the *large* presets (realistic/adversarial),
    /// so the differential also covers megacontracts whose fixpoints
    /// take thousands of worklist pops — few cases, because each one
    /// decompiles and analyzes a 10–50 KB contract twice.
    #[test]
    fn scaled_presets_are_engine_invariant(
        seed in any::<u64>(),
        adversarial in any::<bool>(),
        cfg in arb_config(),
    ) {
        let scale = if adversarial {
            corpus::Scale::Adversarial
        } else {
            corpus::Scale::Realistic
        };
        let pop = corpus::Population::generate(&corpus::PopulationConfig {
            size: 1,
            seed,
            scale,
            ..Default::default()
        });
        for c in &pop.contracts {
            let p = prepared(&c.bytecode, &cfg);
            let d = ethainter::reference::analyze(&p, &cfg);
            let s = ethainter::analyze(&p, &cfg);
            prop_assert_eq!(
                verdict(&d),
                verdict(&s),
                "engines diverge on {}#{} (seed {}, scale {:?})",
                c.family,
                c.id,
                seed,
                scale
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random (corpus seed, config) pairs: a fresh 3-contract
    /// population per case, every contract analyzed by both engines
    /// under the same randomly drawn config.
    #[test]
    fn random_corpora_and_configs_are_engine_invariant(
        seed in any::<u64>(),
        cfg in arb_config(),
    ) {
        let pop = corpus::Population::generate(&corpus::PopulationConfig {
            size: 3,
            seed,
            ..Default::default()
        });
        for c in &pop.contracts {
            let p = prepared(&c.bytecode, &cfg);
            let d = ethainter::reference::analyze(&p, &cfg);
            let s = ethainter::analyze(&p, &cfg);
            prop_assert_eq!(
                verdict(&d),
                verdict(&s),
                "engines diverge on {}#{} (seed {})",
                c.family,
                c.id,
                seed
            );
        }
    }
}
