//! Criterion microbenches for every pipeline stage: primitives (keccak,
//! 256-bit division), the compiler, the interpreter, the decompiler,
//! and the analysis — plus the end-to-end per-contract cost that the
//! §6.3 scalability claims rest on.

use chain::abi::encode_call;
use chain::TestNet;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ethainter::Config;
use evm::{keccak256, U256};
use std::hint::black_box;

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

fn bench_primitives(c: &mut Criterion) {
    c.bench_function("keccak256/136B", |b| {
        let data = vec![0xabu8; 136];
        b.iter(|| keccak256(black_box(&data)))
    });
    c.bench_function("u256/div_rem_wide", |b| {
        let x = U256::from_limbs([u64::MAX, 123, u64::MAX, 456]);
        let y = U256::from_limbs([789, u64::MAX, 0, 1]);
        b.iter(|| black_box(x).div_rem(black_box(y)))
    });
    c.bench_function("u256/mul_mod", |b| {
        let x = U256::from_limbs([u64::MAX; 4]);
        let m = U256::from_limbs([0, 0, 0, u64::MAX]);
        b.iter(|| black_box(x).mul_mod(black_box(x), black_box(m)))
    });
}

fn bench_compiler(c: &mut Criterion) {
    c.bench_function("minisol/compile_victim", |b| {
        b.iter(|| minisol::compile_source(black_box(VICTIM)).unwrap())
    });
}

fn bench_interpreter(c: &mut Criterion) {
    let compiled = minisol::compile_source(VICTIM).unwrap();
    c.bench_function("interp/composite_attack_4tx", |b| {
        b.iter_batched(
            || {
                let mut net = TestNet::new();
                let user = net.funded_account(U256::from(1_000u64));
                let victim = net.deploy(user, compiled.bytecode.clone());
                let attacker = net.funded_account(U256::from(1_000u64));
                (net, attacker, victim)
            },
            |(mut net, attacker, victim)| {
                net.call(attacker, victim, encode_call("registerSelf()", &[]), U256::ZERO);
                net.call(
                    attacker,
                    victim,
                    chain::abi::encode_call_addr("referAdmin(address)", attacker),
                    U256::ZERO,
                );
                net.call(
                    attacker,
                    victim,
                    chain::abi::encode_call_addr("changeOwner(address)", attacker),
                    U256::ZERO,
                );
                net.call(attacker, victim, encode_call("kill()", &[]), U256::ZERO);
                black_box(net.is_destroyed(victim))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let compiled = minisol::compile_source(VICTIM).unwrap();
    c.bench_function("decompiler/victim", |b| {
        b.iter(|| decompiler::decompile(black_box(&compiled.bytecode)))
    });
    let program = decompiler::decompile(&compiled.bytecode);
    c.bench_function("ethainter/analysis_only_victim", |b| {
        b.iter(|| ethainter::analyze(black_box(&program), &Config::default()))
    });
    c.bench_function("ethainter/end_to_end_victim", |b| {
        b.iter(|| {
            ethainter::analyze_bytecode(black_box(&compiled.bytecode), &Config::default())
        })
    });
    c.bench_function("securify/victim", |b| {
        b.iter(|| baselines::securify::analyze_program(black_box(&program)))
    });
}

fn bench_population(c: &mut Criterion) {
    // The per-contract whole-chain cost the §6.3 table extrapolates from.
    let pop = corpus::Population::generate(&corpus::PopulationConfig {
        size: 200,
        ..Default::default()
    });
    c.bench_function("scan/200_contracts", |b| {
        b.iter(|| {
            let mut flagged = 0usize;
            for contract in &pop.contracts {
                let r = ethainter::analyze_bytecode(&contract.bytecode, &Config::default());
                if !r.findings.is_empty() {
                    flagged += 1;
                }
            }
            black_box(flagged)
        })
    });
}

criterion_group!(
    benches,
    bench_primitives,
    bench_compiler,
    bench_interpreter,
    bench_pipeline,
    bench_population
);
criterion_main!(benches);
