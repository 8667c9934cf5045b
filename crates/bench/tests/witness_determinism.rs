//! Witness determinism: witnesses come from the provenance the
//! production fixpoint records while it runs, and the worklist order is
//! a function of the program alone, so the serialized witnesses for a
//! given (bytecode, config) must be byte-identical across repeated runs
//! and across threads analyzing concurrently. This is what makes a
//! witness a stable artifact: `ethainter explain` shows the same
//! derivation as the scan that flagged the contract.

use ethainter::Config;

/// Analyzes `code` and returns the canonical JSON of its witnesses.
fn witness_json(code: &[u8], cfg: &Config) -> String {
    let report = ethainter::analyze_bytecode(code, cfg);
    assert_eq!(
        report.witnesses.as_ref().map(Vec::len),
        Some(report.findings.len()),
        "witness mode must produce exactly one witness per finding"
    );
    serde_json::to_string(&report.witnesses).unwrap()
}

/// Every contract's witness JSON under `cfg`, computed on two threads at
/// once (each analyzes the whole corpus, in opposite orders).
fn on_two_threads(codes: &[&[u8]], cfg: &Config) -> [Vec<String>; 2] {
    std::thread::scope(|s| {
        let forward = s.spawn(|| codes.iter().map(|c| witness_json(c, cfg)).collect());
        let backward = s.spawn(|| {
            let mut v: Vec<String> = codes.iter().rev().map(|c| witness_json(c, cfg)).collect();
            v.reverse();
            v
        });
        [forward.join().unwrap(), backward.join().unwrap()]
    })
}

/// The headline determinism check: a generated corpus analyzed with
/// witnesses on twice in a row, then twice more on two concurrent
/// threads. All four serializations must match byte-for-byte, and the
/// corpus must actually produce non-trivial witnesses or the test
/// proves nothing.
#[test]
fn witnesses_are_byte_identical_across_runs_and_threads() {
    let pop = corpus::Population::generate(&corpus::PopulationConfig {
        size: 120,
        seed: 7,
        ..Default::default()
    });
    let cfg = Config { witness: true, ..Config::default() };
    let codes: Vec<&[u8]> = pop.contracts.iter().map(|c| c.bytecode.as_slice()).collect();
    let [t1, t2] = on_two_threads(&codes, &cfg);

    let mut with_steps = 0usize;
    for (i, c) in pop.contracts.iter().enumerate() {
        let r1 = witness_json(&c.bytecode, &cfg);
        let r2 = witness_json(&c.bytecode, &cfg);
        assert_eq!(r1, r2, "{}#{}: run not reproducible", c.family, c.id);
        assert_eq!(r1, t1[i], "{}#{}: a concurrent run diverges", c.family, c.id);
        assert_eq!(r1, t2[i], "{}#{}: a concurrent run diverges", c.family, c.id);
        if r1.contains("\"steps\"") {
            with_steps += 1;
        }
    }
    assert!(with_steps > 0, "corpus produced no witnesses — nothing was compared");
}

/// Ablation configs change which facts derive, but never determinism:
/// each (config, contract) pair must replay identically on repeated and
/// concurrent runs.
#[test]
fn ablation_witnesses_are_reproducible() {
    let pop = corpus::Population::generate(&corpus::PopulationConfig {
        size: 40,
        seed: 23,
        ..Default::default()
    });
    let base = Config { witness: true, ..Config::default() };
    let ablations = [
        base,
        Config { guard_modeling: false, ..base },
        Config { storage_taint: false, ..base },
        Config { storage_model: ethainter::StorageModel::Conservative, ..base },
        Config { range_guards: false, ..base },
    ];
    let codes: Vec<&[u8]> = pop.contracts.iter().map(|c| c.bytecode.as_slice()).collect();
    for cfg in &ablations {
        let [t1, t2] = on_two_threads(&codes, cfg);
        for (i, c) in pop.contracts.iter().enumerate() {
            let r = witness_json(&c.bytecode, cfg);
            assert_eq!(r, t1[i], "{}#{} diverges under {cfg:?}", c.family, c.id);
            assert_eq!(r, t2[i], "{}#{} diverges under {cfg:?}", c.family, c.id);
        }
    }
}
