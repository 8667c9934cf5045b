//! Criterion microbench: whole-analysis cost (index build + fixpoint +
//! sink scan) of the production engine on prepared programs, with and
//! without witness recording. Complements `bench_fixpoint`, which
//! isolates the fixpoint phase and reports per-contract percentiles over
//! a large corpus.

use criterion::{criterion_group, criterion_main, Criterion};
use ethainter::Config;
use std::hint::black_box;

/// A guard-heavy contract where the sparse engine's delta-rba path is
/// actually exercised (the membership chain defeats guards mid-run).
const VICTIM: &str = r#"contract Victim {
    mapping(address => bool) admins;
    mapping(address => bool) users;
    address owner;
    modifier onlyAdmins() { require(admins[msg.sender]); _; }
    modifier onlyUsers() { require(users[msg.sender]); _; }
    function registerSelf() public { users[msg.sender] = true; }
    function referUser(address u) public onlyUsers { users[u] = true; }
    function referAdmin(address a) public onlyUsers { admins[a] = true; }
    function changeOwner(address o) public onlyAdmins { owner = o; }
    function kill() public onlyAdmins { selfdestruct(owner); }
}"#;

fn prepared_programs() -> Vec<decompiler::Program> {
    let pop = corpus::Population::generate(&corpus::PopulationConfig {
        size: 20,
        seed: 7,
        ..Default::default()
    });
    let mut programs: Vec<decompiler::Program> = pop
        .contracts
        .iter()
        .map(|c| decompiler::decompile(&c.bytecode))
        .collect();
    programs.push(decompiler::decompile(
        &minisol::compile_source(VICTIM).unwrap().bytecode,
    ));
    for p in &mut programs {
        decompiler::optimize(p, &decompiler::PassConfig::default());
    }
    programs
}

fn bench_engines(c: &mut Criterion) {
    let programs = prepared_programs();
    for (name, witness) in [("sparse", false), ("sparse_witness", true)] {
        let cfg = Config { witness, ..Config::default() };
        c.bench_function(&format!("analyze/{name}_21_contracts"), |b| {
            b.iter(|| {
                let mut findings = 0usize;
                for p in &programs {
                    findings += ethainter::analyze(black_box(p), &cfg).findings.len();
                }
                black_box(findings)
            })
        });
    }
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
