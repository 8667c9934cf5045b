//! End-to-end batch tests: a generated corpus through the full
//! decompile → analyze pipeline under the driver, and a hostile batch
//! with injected panicking and looping work mixed into real contracts.

use driver::{analyze_batch, run_batch_with, DriverConfig, Status};
use std::time::Duration;

fn corpus_contracts(n: usize, seed: u64) -> Vec<(String, Vec<u8>)> {
    let pop = corpus::Population::generate(&corpus::PopulationConfig {
        size: n,
        seed,
        ..Default::default()
    });
    pop.contracts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (format!("{}#{i}", c.family), c.bytecode))
        .collect()
}

#[test]
fn fifty_contract_corpus_batch_loses_nothing() {
    let contracts = corpus_contracts(50, 11);
    let expected_ids: Vec<String> = contracts.iter().map(|(id, _)| id.clone()).collect();

    let report = analyze_batch(
        contracts,
        &DriverConfig { jobs: 4, timeout: Duration::from_secs(60) },
        &ethainter::Config::default(),
    );

    assert_eq!(report.outcomes.len(), 50);
    for (i, o) in report.outcomes.iter().enumerate() {
        assert_eq!(o.index, i);
        assert_eq!(o.id, expected_ids[i]);
        // Corpus contracts are well-formed by construction: each must
        // complete, and a completed analysis reports non-empty code.
        match &o.status {
            Status::Analyzed { blocks, stmts, facts, lint, .. } => {
                assert!(*blocks > 0, "{}: empty program", o.id);
                assert!(*stmts > 0, "{}: no statements", o.id);
                assert!(lint.is_empty(), "{}: IR violations {lint:?}", o.id);
                // The dispatcher always makes at least one block
                // attacker-reachable in a completed analysis.
                assert!(facts.rba_blocks > 0, "{}: no reachable blocks", o.id);
            }
            other => panic!("{}: expected Analyzed, got {other:?}", o.id),
        }
    }
    let s = report.summary();
    assert_eq!(s.analyzed, 50);
    assert_eq!(s.timed_out + s.panicked + s.decompile_failed, 0);
}

#[test]
fn batch_results_are_identical_across_worker_counts() {
    let contracts = corpus_contracts(30, 23);
    let cfg = ethainter::Config::default();
    let one = analyze_batch(
        contracts.clone(),
        &DriverConfig { jobs: 1, timeout: Duration::from_secs(60) },
        &cfg,
    );
    let four = analyze_batch(
        contracts,
        &DriverConfig { jobs: 4, timeout: Duration::from_secs(60) },
        &cfg,
    );
    // Same statuses at the same indices: scheduling must not leak into
    // results (per-contract elapsed times and phase timings of course
    // differ between live runs).
    let strip = |r: &driver::BatchReport| -> Vec<(usize, String, Status)> {
        r.outcomes.iter().map(|o| (o.index, o.id.clone(), o.status.verdict_only())).collect()
    };
    assert_eq!(strip(&one), strip(&four));
}

#[test]
fn hostile_work_is_contained_in_a_large_batch() {
    // 200 items: mostly instant work, with panicking and looping
    // saboteurs scattered through the batch.
    let items: Vec<(String, usize)> = (0..200).map(|i| (format!("c{i}"), i)).collect();
    let report = run_batch_with(
        items,
        &DriverConfig { jobs: 4, timeout: Duration::from_millis(200) },
        |i| {
            match i % 50 {
                7 => panic!("sabotage at {i}"),
                23 => std::thread::sleep(Duration::from_secs(120)), // "infinite" loop
                _ => {}
            }
            Status::Analyzed {
                findings: 0,
                composite: 0,
                blocks: 1,
                stmts: 1,
                rounds: 1,
                facts: ethainter::FactCounts::default(),
                lint: Vec::new(),
                timings: ethainter::PhaseTimings::default(),
                witness: None,
            }
        },
    );

    // Zero lost contracts: exactly one outcome per input, in order.
    assert_eq!(report.outcomes.len(), 200);
    for (i, o) in report.outcomes.iter().enumerate() {
        assert_eq!(o.index, i);
        assert_eq!(o.id, format!("c{i}"));
    }
    let s = report.summary();
    assert_eq!(s.panicked, 4, "one panic per 50-item stride");
    assert_eq!(s.timed_out, 4, "one sleeper per 50-item stride");
    assert_eq!(s.analyzed, 192);
    // The batch as a whole must not have serialized behind the sleepers.
    assert!(
        report.wall_time < Duration::from_secs(60),
        "batch stalled: {:?}",
        report.wall_time
    );
}

#[test]
fn looping_analysis_honors_the_cooperative_deadline() {
    // A contract analysis that ignores its budget would pin an abandoned
    // sandbox thread forever; with_deadline makes it exit early. Verify
    // the deadline plumbing end-to-end through ethainter::analyze on a
    // real program.
    let src = "contract C { uint v; function set(uint a) public { v = a; } }";
    let bytecode = minisol::compile_source(src).unwrap().bytecode;
    let program = decompiler::decompile(&bytecode);
    let deadline = std::time::Instant::now() - Duration::from_millis(1); // already passed
    let report = ethainter::with_deadline(deadline, || {
        ethainter::analyze(&program, &ethainter::Config::default())
    });
    assert!(report.timed_out, "expired deadline must mark the report timed out");

    // And without a deadline the same program analyzes fine.
    let report = ethainter::analyze(&program, &ethainter::Config::default());
    assert!(!report.timed_out);
}
