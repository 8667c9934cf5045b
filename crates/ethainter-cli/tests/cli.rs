//! End-to-end tests of the `ethainter` binary via std::process.

use std::io::Write;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ethainter")
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

const VULN: &str = r#"contract Bad {
    address owner;
    function initOwner(address o) public { owner = o; }
    function kill() public { require(msg.sender == owner); selfdestruct(owner); }
}"#;

#[test]
fn analyze_source_reports_findings() {
    let path = write_temp("cli_vuln.msol", VULN);
    let out = Command::new(bin()).args(["analyze", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tainted owner variable"), "{text}");
    assert!(text.contains("accessible selfdestruct"), "{text}");
}

#[test]
fn analyze_json_is_machine_readable() {
    let path = write_temp("cli_vuln2.msol", VULN);
    let out = Command::new(bin())
        .args(["analyze", path.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let report: ethainter::Report =
        serde_json::from_slice(&out.stdout).expect("valid report JSON");
    assert!(report.has(ethainter::Vuln::TaintedOwnerVariable));
}

#[test]
fn analyze_hex_bytecode_works() {
    let compiled = minisol::compile_source(VULN).unwrap();
    let hex: String = compiled.bytecode.iter().map(|b| format!("{b:02x}")).collect();
    let path = write_temp("cli_vuln.hex", &format!("0x{hex}"));
    let out = Command::new(bin()).args(["analyze", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("accessible selfdestruct"));
}

#[test]
fn no_guard_flag_changes_result() {
    let safe = r#"contract C {
        address owner = 0x1234;
        function kill(address to) public { require(msg.sender == owner); selfdestruct(to); }
    }"#;
    let path = write_temp("cli_safe.msol", safe);
    let with_guards =
        Command::new(bin()).args(["analyze", path.to_str().unwrap()]).output().unwrap();
    assert!(String::from_utf8_lossy(&with_guards.stdout).contains("no findings"));
    let without = Command::new(bin())
        .args(["analyze", path.to_str().unwrap(), "--no-guards"])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&without.stdout).contains("selfdestruct"));
}

#[test]
fn kill_destroys_vulnerable_contract() {
    let path = write_temp("cli_vuln3.msol", VULN);
    let out = Command::new(bin()).args(["kill", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("DESTROYED"));
}

#[test]
fn compile_prints_selectors() {
    let path = write_temp("cli_vuln4.msol", VULN);
    let out = Command::new(bin()).args(["compile", path.to_str().unwrap()]).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("initOwner(address)"));
    assert!(text.contains("kill()"));
}

#[test]
fn lint_passes_clean_corpus_and_file() {
    let path = write_temp("cli_lint.msol", VULN);
    let out = Command::new(bin())
        .args(["lint", path.to_str().unwrap(), "--corpus", "25"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(text.contains("linted 26 program(s): 0 violation(s)"), "{text}");
}

#[test]
fn lint_without_inputs_is_an_error() {
    let out = Command::new(bin()).args(["lint"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no inputs"));
}

#[test]
fn no_passes_flag_preserves_verdicts() {
    let path = write_temp("cli_vuln5.msol", VULN);
    let optimized = Command::new(bin())
        .args(["analyze", path.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    let raw = Command::new(bin())
        .args(["analyze", path.to_str().unwrap(), "--json", "--no-passes"])
        .output()
        .unwrap();
    let opt: ethainter::Report = serde_json::from_slice(&optimized.stdout).unwrap();
    let raw: ethainter::Report = serde_json::from_slice(&raw.stdout).unwrap();
    let verdicts = |r: &ethainter::Report| {
        let mut v: Vec<(ethainter::Vuln, usize, bool)> =
            r.findings.iter().map(|f| (f.vuln, f.pc, f.composite)).collect();
        v.sort();
        v
    };
    assert_eq!(verdicts(&opt), verdicts(&raw));
    // The pipeline must actually shrink the fact universe on this input.
    assert!(opt.stats.stmts < raw.stats.stmts, "{} !< {}", opt.stats.stmts, raw.stats.stmts);
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = Command::new(bin()).args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = Command::new(bin()).args(["analyze", "/nonexistent.msol"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

/// A fresh, empty scratch directory for one test.
fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `ethainter batch <args> --no-progress` in `dir`, returning stdout.
fn batch(dir: &std::path::Path, args: &str) -> String {
    let out = Command::new(bin())
        .current_dir(dir)
        .arg("batch")
        .args(args.split_whitespace())
        .arg("--no-progress")
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{text}\n{}", String::from_utf8_lossy(&out.stderr));
    text
}

/// `(index, id, status)` per JSONL outcome line, with the run-dependent
/// `elapsed_ms`, `timings` and `rounds` stripped.
fn verdict_lines(path: &std::path::Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|line| {
            let outcome: driver::Outcome = serde_json::from_str(line).unwrap();
            let status = serde_json::to_string(&outcome.status.verdict_only()).unwrap();
            format!("{} {} {status}", outcome.index, outcome.id)
        })
        .collect()
}

#[test]
fn batch_with_and_without_checkpoint_agree() {
    let dir = temp_dir("cli-batch-agree");
    batch(&dir, "--corpus 40 --seed 3 --out a.jsonl");
    let text = batch(&dir, "--corpus 40 --seed 3 --checkpoint d --out b.jsonl");
    assert!(text.contains("merged verdicts"), "{text}");
    let plain = verdict_lines(&dir.join("a.jsonl"));
    assert_eq!(plain.len(), 40);
    assert_eq!(plain, verdict_lines(&dir.join("b.jsonl")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_limit_equal_to_inputs_completes_the_scan() {
    let dir = temp_dir("cli-batch-exact");
    let text = batch(&dir, "--corpus 40 --checkpoint d --limit 40");
    assert!(!text.contains("interrupted"), "{text}");
    let merged = std::fs::read_to_string(dir.join("d/merged.jsonl")).expect("merged.jsonl");
    assert_eq!(merged.lines().count(), 40);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_limit_without_checkpoint_just_stops() {
    let dir = temp_dir("cli-batch-stop");
    let text = batch(&dir, "--corpus 40 --limit 10");
    assert!(text.contains("stopped at --limit 10: 10 recorded"), "{text}");
    assert!(!text.contains("--resume"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_explain_and_trace_print_the_reason_batch_records() {
    // Adversarial seed 3, contract 64: the first of that stream whose
    // decompile runs out of budget.
    let dir = temp_dir("cli-decompile-failed");
    let cfg = corpus::PopulationConfig {
        seed: 3,
        scale: corpus::Scale::Adversarial,
        ..Default::default()
    };
    let code = corpus::stream(&cfg).nth(64).unwrap().bytecode;
    let hex: String = code.iter().map(|b| format!("{b:02x}")).collect();
    std::fs::write(dir.join("c64.hex"), hex).unwrap();

    batch(&dir, "c64.hex --out b.jsonl");
    let line = std::fs::read_to_string(dir.join("b.jsonl")).unwrap();
    let outcome: driver::Outcome = serde_json::from_str(line.trim()).unwrap();
    let driver::Status::DecompileFailed { reason } = outcome.status else {
        panic!("batch recorded {:?}", outcome.status);
    };
    assert_eq!(reason, "decompile budget exhausted; CFG incomplete");
    for cmd in ["analyze", "explain", "trace"] {
        let out = Command::new(bin()).current_dir(&dir).args([cmd, "c64.hex"]).output().unwrap();
        assert!(out.status.success(), "{cmd}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(&format!("decompile failed: {reason}")), "{cmd}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
