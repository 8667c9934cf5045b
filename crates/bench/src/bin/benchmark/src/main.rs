//! The repository benchmark: bytecode bytes → verdict, end to end and
//! layer by layer, on four workloads. See `README.md` beside this
//! package for the workload, metric and layer map.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//!           [--trace-dir DIR] [--out FILE]
//! benchmark --all [same options]
//! benchmark compare BASE.jsonl NEW.jsonl [MORE.jsonl…]
//! ```
//!
//! A single-workload run prints one `<workload> <metric> <value> <unit>`
//! line per metric and, last, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 1` the
//! metrics are the per-layer ones, measured in a separate traced pass,
//! and the spans go to `DIR/<workload>.spans.jsonl` plus
//! `DIR/<workload>.layers.json`. If a correctness gate fails the run
//! prints no metric values and exits 1. `--all` runs each workload in
//! its own child process (so peak RSS is per workload); `--out` appends
//! the run set as one JSON line for `compare`.

mod analysis;
mod compare;
mod inputs;
mod layers;
mod load;
mod metrics;
mod serve;
mod stats;
mod trace;

use metrics::RunResult;
use serde_json::Value;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The four workloads, in `--all` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ScanRealistic,
    ExplainAdversarial,
    ServeHits,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ScanRealistic,
        Workload::ExplainAdversarial,
        Workload::ServeHits,
        Workload::ServeMixed,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ScanRealistic => "scan-realistic",
            Workload::ExplainAdversarial => "explain-adversarial",
            Workload::ServeHits => "serve-hits",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn run(self, o: &Options, scratch: &Path) -> Result<RunResult, String> {
        let trace = o.traced.then_some(o.trace_dir.as_path());
        match self {
            Workload::ScanRealistic => analysis::scan(o.seed, o.seconds, trace, scratch),
            Workload::ExplainAdversarial => analysis::explain(o.seed, o.seconds, trace, scratch),
            Workload::ServeHits => serve::serve_hits(o.seed, o.seconds, trace, scratch),
            Workload::ServeMixed => serve::serve_mixed(o.seed, o.seconds, trace, scratch),
        }
    }
}

/// Where scratch files (daemon caches, the store replay) live: inside the
/// working directory, removed when the run ends.
const SCRATCH_ROOT: &str = ".bench_tmp";

struct Options {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: u64,
    traced: bool,
    trace_dir: PathBuf,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark (--workload NAME | --all) [--seed N] [--seconds N] \
                     [--trace 0|1] [--trace-dir DIR] [--out FILE]\n       \
                     benchmark compare BASE.jsonl NEW.jsonl [MORE.jsonl...]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        all: false,
        seed: 7,
        seconds: 12,
        traced: false,
        trace_dir: PathBuf::from("bench-trace"),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            o.all = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                o.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => o.seed = number()?,
            "--seconds" => o.seconds = number()?.max(1),
            "--trace" => {
                o.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--trace-dir" => o.trace_dir = PathBuf::from(value),
            "--out" => o.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if o.all == o.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".into());
    }
    Ok(o)
}

/// The record `--out` appends and `--all` prints last.
fn record(o: &Options, runs: Vec<(String, Value)>) -> Value {
    Value::Object(vec![
        ("seed".into(), Value::UInt(o.seed)),
        ("seconds".into(), Value::UInt(o.seconds)),
        ("traced".into(), Value::Bool(o.traced)),
        ("claim".into(), Value::Null),
        ("workloads".into(), Value::Object(runs)),
    ])
}

fn append(path: &Path, line: &Value) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    let text = serde_json::to_string(line).expect("record serializes") + "\n";
    f.write_all(text.as_bytes())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run_single(w: Workload, o: &Options) -> ExitCode {
    let scratch = Path::new(SCRATCH_ROOT).join(format!("{}-{}", w.name(), std::process::id()));
    let result = w.run(o, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH_ROOT); // only if no other run uses it
    let r = match result.and_then(|r| r.check_catalog(o.traced).map(|()| r)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    if r.correct() {
        for line in r.lines(w.name()) {
            println!("{line}");
        }
    } else {
        eprintln!(
            "benchmark: {}: correctness gates failed; no numbers printed",
            w.name()
        );
        for p in r.problems.iter().take(20) {
            eprintln!("  {p}");
        }
    }
    let summary = r.summary();
    if let (true, Some(out)) = (r.correct(), &o.out) {
        if let Err(e) = append(out, &record(o, vec![(w.name().into(), summary.clone())])) {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        serde_json::to_string(&summary).expect("summary serializes")
    );
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own, then prints all
/// their lines (or none, if any gate failed) and the combined record.
fn run_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut lines = Vec::new();
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args([
                "--seed",
                &o.seed.to_string(),
                "--seconds",
                &o.seconds.to_string(),
            ])
            .args(["--trace", if o.traced { "1" } else { "0" }])
            .arg("--trace-dir")
            .arg(&o.trace_dir)
            .stderr(Stdio::inherit());
        let child = cmd
            .output()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut own: Vec<&str> = stdout.lines().collect();
        let summary = own
            .pop()
            .and_then(|last| serde_json::parse(last).ok())
            .ok_or_else(|| format!("{}: no result line (exit {})", w.name(), child.status))?;
        all_correct &= child.status.success() && summary.get("correct") == Some(&Value::Bool(true));
        lines.extend(own.into_iter().map(str::to_string));
        runs.push((w.name().to_string(), summary));
    }
    if !all_correct {
        eprintln!("benchmark: a correctness gate failed; no numbers printed");
        return Ok(false);
    }
    for line in lines {
        println!("{line}");
    }
    let rec = record(o, runs);
    if let Some(out) = &o.out {
        append(out, &rec)?;
    }
    println!(
        "{}",
        serde_json::to_string(&rec).expect("record serializes")
    );
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match o.workload {
        Some(w) => run_single(w, &o),
        None => match run_all(&o) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload draws its inputs from one of these two generators
    /// (the serve workloads take a hot set and fresh contracts from the
    /// realistic one).
    #[test]
    fn same_seed_same_corpus_digest() {
        for scale in [corpus::Scale::Realistic, corpus::Scale::Adversarial] {
            let digest = |seed| inputs::digest(&inputs::generate(scale, seed, 6, |_| true));
            assert_eq!(digest(7), digest(7), "{scale:?}");
            assert_ne!(digest(7), digest(8), "{scale:?}");
        }
    }

    #[test]
    fn arguments_parse_in_the_documented_form() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args(
            "--workload serve-hits --seed 3 --seconds 10 --trace 1",
        ))
        .expect("parses");
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.traced),
            (Some(Workload::ServeHits), 3, 10, true)
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--all --workload scan-realistic")).is_err());
        assert!(parse(&args("--workload scan-realistic --trace 2")).is_err());
    }
}
