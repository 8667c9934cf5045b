//! Differential gates for the `AnalysisArtifacts` refactor.
//!
//! The artifact layer split `analyze()` into build + evaluate and turned
//! the composite (✰) marker pass from a recursive full re-analysis into
//! a frozen re-evaluation over the same artifacts. Nothing observable
//! may change: this suite pins findings, fact counts, defeated guards,
//! and composite markers byte-identical between the production engine
//! and the dense reference oracle at all three corpus scales, checks
//! that witnesses ride along without disturbing any of them — and pins
//! the composite markers to the
//! *recursive semantics* they replaced, reconstructed through the public
//! API (`freeze_guards = true, storage_taint = false` is exactly the
//! config the old recursion analyzed under; a finding is composite iff
//! it has no frozen counterpart with the same `(vuln, stmt)`).

use corpus::{Population, PopulationConfig, Scale};
use ethainter::{Config, Report};

/// Everything the refactor must preserve, extracted for comparison.
fn verdict(r: &Report) -> (Vec<ethainter::Finding>, ethainter::FactCounts, Vec<usize>, bool) {
    (r.findings.clone(), r.stats.facts, r.defeated_guards.clone(), r.timed_out)
}

/// Scale presets with corpus sizes small enough for a debug-build test,
/// large enough to hit guard defeats, composite markers, and every
/// detector family at each scale.
fn scaled_corpora() -> Vec<(Scale, Population)> {
    [(Scale::Small, 120usize), (Scale::Realistic, 24), (Scale::Adversarial, 6)]
        .into_iter()
        .map(|(scale, size)| {
            let pop = Population::generate(&PopulationConfig {
                size,
                seed: 41,
                scale,
                ..Default::default()
            });
            (scale, pop)
        })
        .collect()
}

/// The production engine with witnesses on against the reference
/// oracle, all three scales: byte-identical verdicts, one witness per
/// finding, and composite markers equal to the pre-refactor recursive
/// semantics.
#[test]
fn artifact_refactor_preserves_reports_across_scales_and_engines() {
    let mut composite_seen = 0usize;
    let mut direct_seen = 0usize;
    for (scale, pop) in scaled_corpora() {
        for (i, c) in pop.contracts.iter().enumerate() {
            let mut p = decompiler::decompile(&c.bytecode);
            decompiler::optimize(&mut p, &decompiler::PassConfig::default());

            let sparse_cfg = Config { witness: true, ..Config::default() };
            let d = ethainter::reference::analyze(&p, &sparse_cfg);
            let s = ethainter::analyze(&p, &sparse_cfg);
            assert_eq!(
                s.witnesses.as_ref().map_or(0, Vec::len),
                s.findings.len(),
                "one witness per finding at scale {} on contract {i}",
                scale.name()
            );
            assert_eq!(
                verdict(&d),
                verdict(&s),
                "engines diverge at scale {} on contract {i} ({}#{})",
                scale.name(),
                c.family,
                c.id
            );

            // The recursive semantics, reconstructed via the public API:
            // the old composite pass was literally `analyze` under this
            // frozen config, and a finding was composite iff the frozen
            // run lacked a (vuln, stmt) counterpart.
            let frozen = ethainter::analyze(
                &p,
                &Config {
                    freeze_guards: true,
                    storage_taint: false,
                    witness: false,
                    ..sparse_cfg
                },
            );
            for f in &s.findings {
                let direct = frozen
                    .findings
                    .iter()
                    .any(|g| g.vuln == f.vuln && g.stmt == f.stmt);
                assert_eq!(
                    f.composite,
                    !direct,
                    "composite marker drifted from recursive semantics at scale {} \
                     on contract {i} ({}#{}): {:?}",
                    scale.name(),
                    c.family,
                    c.id,
                    f
                );
                if f.composite {
                    composite_seen += 1;
                } else {
                    direct_seen += 1;
                }
            }
        }
    }
    // The corpora must exercise both marker polarities, or the gate
    // proves nothing about the frozen pass.
    assert!(composite_seen > 0, "no composite findings — frozen pass untested");
    assert!(direct_seen > 0, "no direct findings — marker comparison untested");
}
