//! Detector integration tests: every §3 vulnerability class, the §2
//! composite chain, their fixed variants, and the §6.4 ablation configs —
//! all over real compiled bytecode.

use ethainter::{analyze_bytecode, Config, Report, Vuln};

fn analyze(src: &str) -> Report {
    analyze_with(src, &Config::default())
}

fn analyze_with(src: &str, cfg: &Config) -> Report {
    let compiled = minisol::compile_source(src).unwrap();
    analyze_bytecode(&compiled.bytecode, cfg)
}

// ---------------------------------------------------------------- §3.3 --

#[test]
fn accessible_selfdestruct_flagged() {
    let r = analyze(
        r#"contract C {
            address beneficiary;
            function kill() public { selfdestruct(beneficiary); }
        }"#,
    );
    assert!(r.has(Vuln::AccessibleSelfDestruct), "{:?}", r.findings);
}

#[test]
fn owner_guarded_selfdestruct_not_accessible() {
    // Guard is sound: owner is never attacker-writable.
    let r = analyze(
        r#"contract C {
            address owner = 0x1234;
            function kill() public { require(msg.sender == owner); selfdestruct(owner); }
        }"#,
    );
    assert!(!r.has(Vuln::AccessibleSelfDestruct), "{:?}", r.findings);
    assert!(!r.has(Vuln::TaintedSelfDestruct), "{:?}", r.findings);
}

#[test]
fn modifier_guarded_selfdestruct_not_accessible() {
    let r = analyze(
        r#"contract C {
            address owner = 0x1234;
            modifier onlyOwner() { require(msg.sender == owner); _; }
            function kill() public onlyOwner { selfdestruct(owner); }
        }"#,
    );
    assert!(!r.has(Vuln::AccessibleSelfDestruct), "{:?}", r.findings);
}

// ---------------------------------------------------------------- §3.4 --

#[test]
fn tainted_selfdestruct_via_settable_admin() {
    // The paper's §3.4 example verbatim (modulo syntax): selfdestruct is
    // owner-guarded, but anyone can set the beneficiary.
    let r = analyze(
        r#"contract C {
            address owner = 0x1234;
            address administrator;
            function initAdmin(address admin) public { administrator = admin; }
            function kill() public {
                if (msg.sender == owner) { selfdestruct(administrator); }
            }
        }"#,
    );
    assert!(r.has(Vuln::TaintedSelfDestruct), "{:?}", r.findings);
    // The selfdestruct itself stays owner-only.
    assert!(!r.has(Vuln::AccessibleSelfDestruct), "{:?}", r.findings);
}

#[test]
fn untainted_beneficiary_not_flagged() {
    let r = analyze(
        r#"contract C {
            address owner = 0x1234;
            address beneficiary = 0x99;
            function kill() public {
                if (msg.sender == owner) { selfdestruct(beneficiary); }
            }
        }"#,
    );
    assert!(!r.has(Vuln::TaintedSelfDestruct), "{:?}", r.findings);
}

#[test]
fn selfdestruct_with_parameter_beneficiary_is_tainted() {
    let r = analyze(
        r#"contract C {
            function kill(address to) public { selfdestruct(to); }
        }"#,
    );
    assert!(r.has(Vuln::TaintedSelfDestruct));
    assert!(r.has(Vuln::AccessibleSelfDestruct));
}

#[test]
fn guarded_parameter_beneficiary_not_tainted() {
    // Owner-guarded refund: the address parameter is sanitized by the
    // guard (the precision case Figure 8b is about).
    let r = analyze(
        r#"contract C {
            address owner = 0x1234;
            function kill(address to) public {
                require(msg.sender == owner);
                selfdestruct(to);
            }
        }"#,
    );
    assert!(!r.has(Vuln::TaintedSelfDestruct), "{:?}", r.findings);
    assert!(!r.has(Vuln::AccessibleSelfDestruct), "{:?}", r.findings);
}

// ---------------------------------------------------------------- §3.1 --

#[test]
fn tainted_owner_variable_flagged() {
    let r = analyze(
        r#"contract C {
            address owner;
            uint secret;
            function initOwner(address o) public { owner = o; }
            function set(uint v) public { require(msg.sender == owner); secret = v; }
        }"#,
    );
    assert!(r.has(Vuln::TaintedOwnerVariable), "{:?}", r.findings);
}

#[test]
fn public_initializer_race_is_tainted_owner() {
    // Figure 6's "public initializer (race condition)" true positives:
    // owner = msg.sender in an unguarded function.
    let r = analyze(
        r#"contract C {
            address owner;
            uint secret;
            function init() public { owner = msg.sender; }
            function set(uint v) public { require(msg.sender == owner); secret = v; }
        }"#,
    );
    assert!(r.has(Vuln::TaintedOwnerVariable), "{:?}", r.findings);
}

#[test]
fn constructor_initialized_owner_not_flagged() {
    let r = analyze(
        r#"contract C {
            address owner = 0x1234;
            uint secret;
            function set(uint v) public { require(msg.sender == owner); secret = v; }
        }"#,
    );
    assert!(!r.has(Vuln::TaintedOwnerVariable), "{:?}", r.findings);
}

#[test]
fn guarded_owner_setter_not_flagged() {
    // changeOwner guarded by the (sound) owner: not attacker-writable.
    let r = analyze(
        r#"contract C {
            address owner = 0x1234;
            function changeOwner(address o) public {
                require(msg.sender == owner);
                owner = o;
            }
            function kill() public { require(msg.sender == owner); selfdestruct(owner); }
        }"#,
    );
    assert!(!r.has(Vuln::TaintedOwnerVariable), "{:?}", r.findings);
    assert!(!r.has(Vuln::AccessibleSelfDestruct), "{:?}", r.findings);
}

// ---------------------------------------------------------------- §3.2 --

#[test]
fn tainted_delegatecall_flagged() {
    // The §3.2 migrate example.
    let r = analyze(
        r#"contract C {
            function migrate(address delegate) public { delegatecall(delegate); }
        }"#,
    );
    assert!(r.has(Vuln::TaintedDelegateCall), "{:?}", r.findings);
}

#[test]
fn constant_delegatecall_not_flagged() {
    let r = analyze(
        r#"contract C {
            address lib = 0xabcd;
            function run() public { delegatecall(lib); }
        }"#,
    );
    assert!(!r.has(Vuln::TaintedDelegateCall), "{:?}", r.findings);
}

#[test]
fn guarded_delegatecall_not_flagged() {
    let r = analyze(
        r#"contract C {
            address owner = 0x1234;
            function migrate(address delegate) public {
                require(msg.sender == owner);
                delegatecall(delegate);
            }
        }"#,
    );
    assert!(!r.has(Vuln::TaintedDelegateCall), "{:?}", r.findings);
}

#[test]
fn delegatecall_tainted_via_storage_flagged() {
    // Composite: the delegate target lives in storage that anyone can set.
    let r = analyze(
        r#"contract C {
            address owner = 0x1234;
            address delegate;
            function setDelegate(address d) public { delegate = d; }
            function migrate() public {
                require(msg.sender == owner);
                delegatecall(delegate);
            }
        }"#,
    );
    assert!(r.has(Vuln::TaintedDelegateCall), "{:?}", r.findings);
}

// ---------------------------------------------------------------- §3.5 --

#[test]
fn unchecked_tainted_staticcall_flagged() {
    let r = analyze(
        r#"contract C {
            uint result;
            function check(address w, uint input) public {
                result = staticcall_unchecked(w, input);
            }
        }"#,
    );
    assert!(r.has(Vuln::UncheckedTaintedStaticCall), "{:?}", r.findings);
}

#[test]
fn checked_staticcall_not_flagged() {
    let r = analyze(
        r#"contract C {
            uint result;
            function check(address w, uint input) public {
                result = staticcall_checked(w, input);
            }
        }"#,
    );
    assert!(!r.has(Vuln::UncheckedTaintedStaticCall), "{:?}", r.findings);
}

// ------------------------------------------------------------------ §2 --

const VICTIM: &str = r#"
contract Victim {
    mapping(address => bool) admins;
    mapping(address => bool) users;
    address owner;

    modifier onlyAdmins() { require(admins[msg.sender]); _; }
    modifier onlyUsers() { require(users[msg.sender]); _; }

    function registerSelf() public { users[msg.sender] = true; }
    function referUser(address user) public onlyUsers { users[user] = true; }
    function referAdmin(address adm) public onlyUsers { admins[adm] = true; }
    function changeOwner(address o) public onlyAdmins { owner = o; }
    function kill() public onlyAdmins { selfdestruct(owner); }
}"#;

const FIXED_VICTIM: &str = r#"
contract Fixed {
    mapping(address => bool) admins;
    mapping(address => bool) users;
    address owner;

    modifier onlyAdmins() { require(admins[msg.sender]); _; }
    modifier onlyUsers() { require(users[msg.sender]); _; }

    function registerSelf() public { users[msg.sender] = true; }
    function referUser(address user) public onlyUsers { users[user] = true; }
    function referAdmin(address adm) public onlyAdmins { admins[adm] = true; }
    function changeOwner(address o) public onlyAdmins { owner = o; }
    function kill() public onlyAdmins { selfdestruct(owner); }
}"#;

#[test]
fn victim_composite_chain_detected() {
    // The paper's §2 contract: both primitive vulnerabilities surface
    // through composite guard tainting.
    let r = analyze(VICTIM);
    assert!(r.has(Vuln::AccessibleSelfDestruct), "{:?}", r.findings);
    assert!(r.has(Vuln::TaintedSelfDestruct), "{:?}", r.findings);
    // And they are flagged as composite (the ✰ of Figure 6).
    assert!(r.of(Vuln::AccessibleSelfDestruct).all(|f| f.composite));
}

#[test]
fn fixed_victim_not_flagged() {
    // With referAdmin correctly guarded by onlyAdmins, the escalation
    // chain is broken: admins is only writable by admins.
    let r = analyze(FIXED_VICTIM);
    assert!(!r.has(Vuln::AccessibleSelfDestruct), "{:?}", r.findings);
    assert!(!r.has(Vuln::TaintedSelfDestruct), "{:?}", r.findings);
}

// -------------------------------------------------------------- ablations

#[test]
fn no_guard_model_explodes_reports() {
    // Figure 8b: without guard modeling, the owner-guarded refund
    // pattern gets (wrongly) flagged.
    let src = r#"contract C {
        address owner = 0x1234;
        function kill(address to) public {
            require(msg.sender == owner);
            selfdestruct(to);
        }
    }"#;
    let sound = analyze_with(src, &Config::default());
    let ablated = analyze_with(src, &Config::no_guard_model());
    assert!(!sound.has(Vuln::TaintedSelfDestruct));
    assert!(ablated.has(Vuln::TaintedSelfDestruct));
    assert!(ablated.has(Vuln::AccessibleSelfDestruct));
}

#[test]
fn no_storage_taint_loses_composite_chain() {
    // Figure 8a: without storage modeling the Victim chain (which needs
    // taint through storage, across transactions) disappears.
    let full = analyze_with(VICTIM, &Config::default());
    let ablated = analyze_with(VICTIM, &Config::no_storage_taint());
    assert!(full.has(Vuln::AccessibleSelfDestruct));
    assert!(!ablated.has(Vuln::AccessibleSelfDestruct), "{:?}", ablated.findings);
    assert!(!ablated.has(Vuln::TaintedSelfDestruct));
}

#[test]
fn no_storage_taint_keeps_direct_input_findings() {
    // Single-transaction flows survive the 8a ablation.
    let src = "contract C { function kill(address to) public { selfdestruct(to); } }";
    let ablated = analyze_with(src, &Config::no_storage_taint());
    assert!(ablated.has(Vuln::TaintedSelfDestruct));
}

#[test]
fn conservative_storage_adds_reports() {
    // Figure 8c: a store through an unresolved pointer poisons all slots
    // under the conservative model only.
    let src = r#"contract C {
        uint marker;
        address beneficiary = 0x77;
        address owner = 0x1234;
        function touch(uint slotv, uint v) public {
            uint i = 0;
            while (i < slotv) { i += 1; }
            marker = v + i;
        }
        function kill() public {
            if (msg.sender == owner) { selfdestruct(beneficiary); }
        }
    }"#;
    // Note: this source has no unknown-address store; conservative mode
    // must NOT add findings here (sanity check both directions).
    let precise = analyze_with(src, &Config::default());
    let conservative = analyze_with(src, &Config::conservative_storage());
    assert_eq!(
        precise.has(Vuln::TaintedSelfDestruct),
        conservative.has(Vuln::TaintedSelfDestruct)
    );
}

// ------------------------------------------------------------- metadata --

#[test]
fn findings_carry_reachable_selectors() {
    let r = analyze(
        r#"contract C {
            function kill() public { selfdestruct(msg.sender); }
            function other() public {}
        }"#,
    );
    let f = r.of(Vuln::AccessibleSelfDestruct).next().unwrap();
    let kill_sel = u32::from_be_bytes(evm::selector("kill()"));
    assert!(f.selectors.contains(&kill_sel), "{:?}", f);
}

#[test]
fn empty_bytecode_reports_nothing() {
    let r = analyze_bytecode(&[], &Config::default());
    assert!(r.findings.is_empty());
}

#[test]
fn safe_token_contract_is_clean() {
    // A plain ERC20-ish contract: no findings of any class.
    let r = analyze(
        r#"contract Token {
            mapping(address => uint) balances;
            mapping(address => mapping(address => uint)) allowed;
            uint supply = 1000000;
            function transfer(address to, uint v) public {
                require(balances[msg.sender] >= v);
                balances[msg.sender] -= v;
                balances[to] += v;
            }
            function approve(address spender, uint v) public {
                allowed[msg.sender][spender] = v;
            }
            function balanceOf(address who) public returns (uint) {
                return balances[who];
            }
        }"#,
    );
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

// ------------------------------------------------- detector suite v2 --

/// The canonical checks-effects-interactions violation: the balance is
/// read before the external call and zeroed after it, so a re-entrant
/// callee sees the stale balance.
const REENTRANT_BANK: &str = r#"contract Bank {
    mapping(address => uint) balances;
    function deposit(uint v) public { balances[msg.sender] += v; }
    function withdraw() public {
        uint bal = balances[msg.sender];
        require(bal > 0x0);
        require(send(msg.sender, bal));
        balances[msg.sender] = 0x0;
    }
}"#;

/// The hardened variant: effects before interactions.
const EFFECTS_FIRST_BANK: &str = r#"contract Bank {
    mapping(address => uint) balances;
    function deposit(uint v) public { balances[msg.sender] += v; }
    function withdraw() public {
        uint bal = balances[msg.sender];
        require(bal > 0x0);
        balances[msg.sender] = 0x0;
        require(send(msg.sender, bal));
    }
}"#;

#[test]
fn reentrant_withdraw_flagged() {
    let r = analyze(REENTRANT_BANK);
    assert!(r.has(Vuln::Reentrancy), "{:?}", r.findings);
    // The success flag feeds the require, so the call *is* checked.
    assert!(!r.has(Vuln::UncheckedCallReturn), "{:?}", r.findings);
}

#[test]
fn effects_before_interaction_not_reentrancy() {
    let r = analyze(EFFECTS_FIRST_BANK);
    assert!(!r.has(Vuln::Reentrancy), "{:?}", r.findings);
    assert!(!r.has(Vuln::UncheckedCallReturn), "{:?}", r.findings);
}

const UNCHECKED_SEND: &str = r#"contract Payer {
    uint nonce;
    function pay(address to, uint amount) public {
        send(to, amount);
        nonce += 0x1;
    }
}"#;

const CHECKED_SEND: &str = r#"contract Payer {
    uint nonce;
    function pay(address to, uint amount) public {
        require(send(to, amount));
        nonce += 0x1;
    }
}"#;

#[test]
fn bare_send_flagged_unchecked() {
    let r = analyze(UNCHECKED_SEND);
    assert!(r.has(Vuln::UncheckedCallReturn), "{:?}", r.findings);
    // The nonce is only *read* after the call, so this is not a
    // checks-effects-interactions violation.
    assert!(!r.has(Vuln::Reentrancy), "{:?}", r.findings);
}

#[test]
fn required_send_not_flagged_unchecked() {
    let r = analyze(CHECKED_SEND);
    assert!(!r.has(Vuln::UncheckedCallReturn), "{:?}", r.findings);
}

const TXORIGIN_AUTH: &str = r#"contract Drop {
    address owner = 0x1234;
    mapping(address => uint) credits;
    function claim(address to, uint v) public {
        require(tx.origin == owner);
        credits[to] += v;
    }
}"#;

const SENDER_AUTH: &str = r#"contract Drop {
    address owner = 0x1234;
    mapping(address => uint) credits;
    function claim(address to, uint v) public {
        require(msg.sender == owner);
        credits[to] += v;
    }
}"#;

#[test]
fn txorigin_guard_over_state_write_flagged() {
    let r = analyze(TXORIGIN_AUTH);
    assert!(r.has(Vuln::TxOriginAuth), "{:?}", r.findings);
}

#[test]
fn sender_guard_over_state_write_clean() {
    let r = analyze(SENDER_AUTH);
    assert!(!r.has(Vuln::TxOriginAuth), "{:?}", r.findings);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

const TIMESTAMP_PAYOUT: &str = r#"contract Lotto {
    uint deadline = 0x60000000;
    function payout(address to, uint amount) public {
        require(block.timestamp > deadline);
        require(send(to, amount));
    }
}"#;

const BLOCKNUMBER_PAYOUT: &str = r#"contract Lotto {
    uint deadline = 0x60000000;
    function payout(address to, uint amount) public {
        require(block.number > deadline);
        require(send(to, amount));
    }
}"#;

#[test]
fn timestamp_gated_payout_flagged() {
    let r = analyze(TIMESTAMP_PAYOUT);
    assert!(r.has(Vuln::TimestampDependence), "{:?}", r.findings);
}

#[test]
fn blocknumber_gated_payout_clean() {
    let r = analyze(BLOCKNUMBER_PAYOUT);
    assert!(!r.has(Vuln::TimestampDependence), "{:?}", r.findings);
}

#[test]
fn timestamp_derived_value_flagged() {
    // Value variant: the transferred amount depends on TIMESTAMP even
    // though no branch does.
    let r = analyze(
        r#"contract Faucet {
            function drip(address to) public {
                require(send(to, block.timestamp % 0x100));
            }
        }"#,
    );
    assert!(r.has(Vuln::TimestampDependence), "{:?}", r.findings);
}

#[test]
fn timestamp_branch_over_plain_write_clean() {
    // A time-dependent branch gating only bookkeeping storage is
    // everyday Solidity, not a money flow.
    let r = analyze(
        r#"contract Epoch {
            uint last;
            function tick() public {
                if (block.timestamp > last) { last = block.timestamp; }
            }
        }"#,
    );
    assert!(!r.has(Vuln::TimestampDependence), "{:?}", r.findings);
}

#[test]
fn v2_verdicts_identical_across_engines() {
    for src in [
        REENTRANT_BANK,
        EFFECTS_FIRST_BANK,
        UNCHECKED_SEND,
        CHECKED_SEND,
        TXORIGIN_AUTH,
        SENDER_AUTH,
        TIMESTAMP_PAYOUT,
        BLOCKNUMBER_PAYOUT,
    ] {
        let compiled = minisol::compile_source(src).unwrap();
        let mut p = decompiler::decompile(&compiled.bytecode);
        decompiler::optimize(&mut p, &decompiler::PassConfig::default());
        let dense = ethainter::reference::analyze(&p, &Config::default());
        let sparse = ethainter::analyze(&p, &Config::default());
        assert_eq!(dense.findings, sparse.findings, "engines disagree on {src}");
        assert_eq!(dense.stats.facts, sparse.stats.facts, "fact counts differ on {src}");
    }
}

#[test]
fn v2_witnesses_byte_identical_across_runs() {
    for src in [REENTRANT_BANK, UNCHECKED_SEND, TXORIGIN_AUTH, TIMESTAMP_PAYOUT] {
        let cfg = Config { witness: true, ..Config::default() };
        let first = analyze_with(src, &cfg);
        let again = analyze_with(src, &cfg);
        assert!(
            first.witnesses.as_ref().is_some_and(|w| !w.is_empty()),
            "no witnesses for {src}"
        );
        assert_eq!(
            serde_json::to_string(&first.witnesses).unwrap(),
            serde_json::to_string(&again.witnesses).unwrap(),
            "witnesses differ on {src}"
        );
    }
}
