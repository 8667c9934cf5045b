//! `ethainter` — the command-line front end.
//!
//! ```text
//! ethainter analyze <file>          # .sol/.msol source or .hex/.bin bytecode
//! ethainter analyze <file> --json   # machine-readable report
//! ethainter analyze <file> --no-guards|--no-storage|--conservative
//! ethainter explain <file>          # render source→sink witness paths
//! ethainter decompile <file>        # print the TAC
//! ethainter disasm <file>           # print the disassembly
//! ethainter compile <file>          # print bytecode hex + selectors
//! ethainter kill <file>             # analyze, deploy on a sandbox, exploit
//! ethainter scan <n>                # generate a population and scan it
//! ethainter batch [files] [--corpus n] [--jobs n] [--timeout-ms t] [--out f]
//!                 [--cache-dir d] [--checkpoint d | --resume d] [--limit n]
//! ethainter serve [--addr a] [--jobs n] [--queue-depth n] [--cache-dir d]
//! ethainter cache stats --cache-dir d [--json]  # result-store report
//! ethainter lint [files] [--corpus n]  # IR well-formedness check, fails on violations
//! ```

#![warn(missing_docs)]

use ethainter::{Config, Vuln};
use std::process::ExitCode;
use store::ContractSource as _;

/// Like `println!`, but ignores broken pipes (`ethainter ... | head`
/// must not panic when the reader goes away).
macro_rules! out {
    ($($t:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($t)*);
    }};
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd {
        "analyze" => cmd_analyze(rest),
        "explain" => cmd_explain(rest),
        "trace" => cmd_trace(rest),
        "decompile" => cmd_decompile(rest),
        "cfg" => cmd_cfg(rest),
        "disasm" => cmd_disasm(rest),
        "compile" => cmd_compile(rest),
        "kill" => cmd_kill(rest),
        "scan" => cmd_scan(rest),
        "batch" => cmd_batch(rest),
        "serve" => cmd_serve(rest),
        "cache" => cmd_cache(rest),
        "lint" => cmd_lint(rest),
        "help" | "--help" | "-h" => {
            out!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
ethainter — composite information-flow analysis for EVM contracts

USAGE:
    ethainter analyze <file> [--json] [--no-guards] [--no-storage] [--conservative]
    ethainter explain <file> [config flags]
    ethainter trace <file> [--json] [config flags]
    ethainter decompile <file>
    ethainter cfg <file>            # Graphviz dot of the TAC CFG
    ethainter disasm <file>
    ethainter compile <file>
    ethainter kill <file>
    ethainter scan [n]
    ethainter batch [<file>...] [--corpus n] [--seed s] [--scale sc] [--jobs n]
                    [--timeout-ms t] [--out f.jsonl] [--chunk n] [config flags]
                    [--cache-dir d] [--checkpoint d | --resume d] [--limit n]
                    [--no-progress] [--metrics-out f.json] [--trace-out f.jsonl]
    ethainter serve [--addr host:port] [--jobs n] [--queue-depth n]
                    [--timeout-ms t] [--max-body-kb n] [--cache-dir d]
                    [--max-done n] [--metrics-out f.json]
                    [--trace-out f.jsonl] [config flags]
    ethainter cache stats --cache-dir d [--json]
    ethainter lint [<file>...] [--corpus n] [--seed s] [--scale sc]

<file> is minisol source (.sol/.msol/anything parseable) or hex bytecode
(.hex/.bin, with or without a 0x prefix).

Config flags (analyze and batch): --no-guards, --no-storage,
--conservative (the paper's Figure 8 ablations); --no-passes disables
the IR optimization pipeline and branch pruning, --no-range-guards
disables only the interval-analysis branch pruning. --witness
attaches taint-provenance witnesses to each report: a replayable
source→sink derivation for every finding, recorded by the same
fixpoint that produced the verdict (analyze --json includes them;
batch outcome records carry them).

trace analyzes one contract under a freshly minted trace context and
renders its span tree: every phase (decompile → index_build → fixpoint
→ detectors/effects/composite) with total and self time, nested as it
actually ran — the offline twin of the daemon's GET /jobs/<id>/trace.
--json emits the same TraceBody JSON the daemon serves.

explain analyzes one contract with witnesses forced on and renders
each finding's derivation as a numbered source→sink path through the
TAC: every step cites the rule that fired, the statement it fired at,
and the fact it established.

batch analyzes every input in parallel with per-contract isolation:
a contract that loops is cut off after --timeout-ms (default 120000),
a contract that panics the analyzer is contained, and every input
yields exactly one JSONL outcome record (--out, `-` for stdout).
--corpus n adds n generated corpus contracts to the inputs, at the
structural --scale small|realistic|adversarial (default small; the
large scales generate 4–50 KB DeFi-shaped contracts — see BENCHMARKS.md);
--jobs 0 (default) uses one worker per core. Inputs stream through the
driver in --chunk-sized windows (default 64), and each outcome line is
flushed as it is produced — a killed run leaves a valid JSONL prefix.

--cache-dir d keeps a content-addressed result store at d: a re-run of
an unchanged scan answers from the cache instead of re-analyzing
(`cache stats` reports entries and hit rates). --checkpoint d logs
every outcome to d so a killed scan can continue with --resume d,
which skips completed contracts and writes d/merged.jsonl — verdicts
byte-identical to an uninterrupted run. --limit n stops after
recording n outcomes (a deterministic interrupt, used by CI).

batch draws a live progress heartbeat (done/total, throughput, ETA)
on stderr when it is an interactive terminal; it auto-disables under
redirection and --no-progress forces it off. --metrics-out f writes a
snapshot of the telemetry metric registry as JSON, plus a Prometheus
text-format sibling next to it (.prom); --trace-out f writes the
span trace (phase timings with parent/child nesting) as JSONL.

serve runs the analyzer as a daemon: POST /jobs (hex bytecode + config
as JSON) returns a job id, GET /jobs/<id> polls it to completion (the
full report rides in the response once done), GET /healthz reports
liveness, and GET /metrics serves the live telemetry registry as
Prometheus text. Jobs flow through a bounded queue (--queue-depth,
default 256; full → HTTP 429) into --jobs worker threads with the same
per-job timeout and panic containment as batch mode, all sharing the
--cache-dir content-addressed cache: re-submitted bytecode is a cache
hit, and N concurrent identical submissions cost one fresh analysis.
SIGINT drains in-flight jobs before exiting (new submissions → 503;
polls keep working during the drain). Every job runs under a trace
context (trace id == job id): GET /jobs/<id>/trace returns its span
tree, GET /events[?since=<seq>] long-polls the structured event feed
(lifecycle, slow jobs, cache errors), and jobs slower than the live
p99 land in that feed as slow_job events with their phase breakdown.
--max-done n (default 4096) bounds retained completed records — the
oldest age out (GET → 410 Gone) so week-long daemons stay flat.
--metrics-out f persists a final metric-registry snapshot (JSON plus
a .prom sibling) during the SIGINT drain, same writer as batch.

lint runs the IR well-formedness validator over each input's raw
decompiler output and exits non-zero if any violation is found —
the CI gate that the decompiler only ever emits well-formed TAC.";

/// Loads bytecode from a source or hex file.
fn load_bytecode(path: &str) -> Result<Vec<u8>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let trimmed = text.trim();
    // Hex if it looks like hex; otherwise compile as minisol.
    let hexish = trimmed.strip_prefix("0x").unwrap_or(trimmed);
    if !hexish.is_empty() && hexish.chars().all(|c| c.is_ascii_hexdigit()) {
        if hexish.len() % 2 != 0 {
            return Err("odd-length hex bytecode".into());
        }
        return (0..hexish.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hexish[i..i + 2], 16).map_err(|e| e.to_string()))
            .collect();
    }
    minisol::compile_source(trimmed).map(|c| c.bytecode).map_err(|e| e.to_string())
}

fn parse_config(flags: &[String]) -> Config {
    let mut cfg = Config::default();
    for flag in flags {
        match flag.as_str() {
            "--no-guards" => cfg.guard_modeling = false,
            "--no-storage" => cfg.storage_taint = false,
            "--conservative" => cfg.storage_model = ethainter::StorageModel::Conservative,
            "--no-passes" => {
                cfg.optimize_ir = false;
                cfg.range_guards = false;
            }
            "--no-range-guards" => cfg.range_guards = false,
            "--witness" => cfg.witness = true,
            _ => {}
        }
    }
    cfg
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("analyze: missing <file>")?;
    let code = load_bytecode(path)?;
    let cfg = parse_config(args);
    // One minted trace per contract: spans this analysis records are
    // attributable even when a --trace-out JSONL mixes several runs.
    let _trace = telemetry::trace::root(telemetry::trace::mint());
    let report = ethainter::analyze_bytecode(&code, &cfg);
    if args.iter().any(|a| a == "--json") {
        out!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    if report.timed_out {
        out!("decompilation budget exhausted — partial analysis");
    }
    if report.findings.is_empty() {
        out!("no findings");
        return Ok(());
    }
    if !report.defeated_guards.is_empty() {
        let pcs: Vec<String> =
            report.defeated_guards.iter().map(|p| format!("0x{p:04x}")).collect();
        out!("defeated guards at pc: {}", pcs.join(", "));
    }
    out!("{} finding(s):", report.findings.len());
    for f in &report.findings {
        let star = if f.composite { "  ✰ composite" } else { "" };
        out!("  {:<30} pc 0x{:04x}{star}", f.vuln.to_string(), f.pc);
        for sel in &f.selectors {
            out!("      via selector 0x{sel:08x}");
        }
    }
    Ok(())
}

/// `ethainter explain <file>` — analyze with witnesses forced on and
/// render each finding's provenance as a numbered source→sink path.
fn cmd_explain(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("explain: missing <file>")?;
    let code = load_bytecode(path)?;
    let mut cfg = parse_config(args);
    cfg.witness = true;
    let report = ethainter::analyze_bytecode(&code, &cfg);
    if report.timed_out {
        out!("analysis budget exhausted — no witnesses for a partial analysis");
        return Ok(());
    }
    if report.findings.is_empty() {
        out!("no findings — nothing to explain");
        return Ok(());
    }
    let witnesses = report.witnesses.as_deref().unwrap_or(&[]);
    for (f, w) in report.findings.iter().zip(witnesses) {
        let star = if f.composite { "  ✰ composite" } else { "" };
        out!("{} at pc 0x{:04x}{star}", f.vuln, f.pc);
        for (i, step) in w.steps.iter().enumerate() {
            let loc = match step.pc {
                Some(pc) => format!(" @0x{pc:04x}"),
                None => String::new(),
            };
            out!("  {:>2}. [{}]{loc} {}", i + 1, step.rule, step.fact);
            if let Some(code) = &step.code {
                out!("        {code}");
            }
        }
        out!("");
    }
    Ok(())
}

/// `ethainter trace <file>` — analyze one contract under a minted
/// trace context and render its span tree (total + self time per
/// phase), offline: the same view `GET /jobs/<id>/trace` serves for a
/// daemon job.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("trace: missing <file>")?;
    let code = load_bytecode(path)?;
    let cfg = parse_config(args);
    let json = args.iter().any(|a| a == "--json");

    let trace = telemetry::trace::mint();
    telemetry::trace::retain(trace);
    let report = {
        let _ctx = telemetry::trace::root(trace);
        let sp = telemetry::span("ethainter.contract");
        let report = ethainter::analyze_bytecode(&code, &cfg);
        sp.finish_us();
        report
    };
    let records = telemetry::trace::spans_for(trace).unwrap_or_default();
    let roots = telemetry::trace::build_tree(&records);
    telemetry::trace::discard(trace);

    if json {
        let body = server::api::TraceBody {
            id: trace.to_string(),
            state: "done".to_string(),
            span_count: records.len() as u64,
            spans: roots,
        };
        out!("{}", serde_json::to_string_pretty(&body).map_err(|e| e.to_string())?);
        return Ok(());
    }
    out!("trace {trace} — {path}");
    print!("{}", telemetry::trace::render_tree(&roots));
    out!(
        "{} span(s); {} finding(s){}",
        records.len(),
        report.findings.len(),
        if report.timed_out { "; analysis budget exhausted" } else { "" }
    );
    Ok(())
}

fn cmd_decompile(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("decompile: missing <file>")?;
    let code = load_bytecode(path)?;
    let program = decompiler::decompile(&code);
    print!("{program}");
    if !program.functions.is_empty() {
        out!("\npublic functions:");
        for f in &program.functions {
            out!("  0x{:08x} -> {}", f.selector, f.entry);
        }
    }
    for w in &program.warnings {
        eprintln!("warning: {w}");
    }
    Ok(())
}

fn cmd_cfg(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("cfg: missing <file>")?;
    let code = load_bytecode(path)?;
    let program = decompiler::decompile(&code);
    print!("{}", program.to_dot());
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("disasm: missing <file>")?;
    let code = load_bytecode(path)?;
    for insn in evm::disassemble(&code) {
        out!("{insn}");
    }
    Ok(())
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("compile: missing <file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let compiled = minisol::compile_source(&text).map_err(|e| e.to_string())?;
    out!("contract {} ({} bytes)", compiled.name, compiled.bytecode.len());
    let hex: String = compiled.bytecode.iter().map(|b| format!("{b:02x}")).collect();
    out!("0x{hex}");
    out!("functions:");
    for f in &compiled.functions {
        let vis = if f.dispatched { "public" } else { "internal" };
        out!("  0x{} {:<9} {}", hex4(&f.selector), vis, f.signature);
    }
    if !compiled.initial_storage.is_empty() {
        out!("initial storage:");
        for (slot, value) in &compiled.initial_storage {
            out!("  slot {slot:?} = {value:?}");
        }
    }
    Ok(())
}

fn hex4(sel: &[u8; 4]) -> String {
    sel.iter().map(|b| format!("{b:02x}")).collect()
}

fn cmd_kill(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("kill: missing <file>")?;
    let code = load_bytecode(path)?;
    let report = ethainter::analyze_bytecode(&code, &Config::default());
    out!(
        "analysis: {} finding(s), selfdestruct-class: {}",
        report.findings.len(),
        report
            .findings
            .iter()
            .filter(|f| matches!(
                f.vuln,
                Vuln::AccessibleSelfDestruct | Vuln::TaintedSelfDestruct
            ))
            .count()
    );
    let mut net = chain::TestNet::new();
    let deployer = net.funded_account(evm::U256::from(1_000u64));
    let victim = net.deploy(deployer, code);
    net.state_mut().set_balance(victim, evm::U256::from(1_000_000u64));
    net.state_mut().commit();
    let outcome = kill::exploit(&net, victim, &report, &kill::KillConfig::default());
    out!("transactions sent: {}", outcome.steps.len());
    for s in &outcome.steps {
        out!(
            "  0x{:08x}  success={}  destroyed={}",
            s.selector, s.success, s.destroyed
        );
    }
    if outcome.destroyed {
        out!(
            "DESTROYED — attacker recovered {} wei of 1000000",
            outcome.funds_recovered
        );
    } else {
        out!("contract survived");
    }
    Ok(())
}

/// Parsed `batch` flags.
struct BatchArgs {
    files: Vec<String>,
    corpus_n: usize,
    seed: u64,
    scale: corpus::Scale,
    jobs: usize,
    timeout_ms: u64,
    out_path: Option<String>,
    cache_dir: Option<String>,
    checkpoint_dir: Option<String>,
    resume_dir: Option<String>,
    limit: Option<usize>,
    chunk: usize,
    no_progress: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

impl BatchArgs {
    fn parse(args: &[String]) -> Result<BatchArgs, String> {
        let mut p = BatchArgs {
            files: Vec::new(),
            corpus_n: 0,
            seed: 7,
            scale: corpus::Scale::default(),
            jobs: 0,
            timeout_ms: 120_000,
            out_path: None,
            cache_dir: None,
            checkpoint_dir: None,
            resume_dir: None,
            limit: None,
            chunk: 64,
            no_progress: false,
            metrics_out: None,
            trace_out: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut take = |name: &str| -> Result<String, String> {
                it.next().cloned().ok_or_else(|| format!("batch: {name} needs a value"))
            };
            match a.as_str() {
                "--corpus" => {
                    p.corpus_n =
                        take("--corpus")?.parse().map_err(|e| format!("bad --corpus: {e}"))?
                }
                "--seed" => {
                    p.seed = take("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?
                }
                "--scale" => {
                    let v = take("--scale")?;
                    p.scale = corpus::Scale::parse(&v).ok_or_else(|| {
                        format!("bad --scale: `{v}` (expected small|realistic|adversarial)")
                    })?
                }
                "--jobs" => {
                    p.jobs = take("--jobs")?.parse().map_err(|e| format!("bad --jobs: {e}"))?
                }
                "--timeout-ms" => {
                    p.timeout_ms = take("--timeout-ms")?
                        .parse()
                        .map_err(|e| format!("bad --timeout-ms: {e}"))?
                }
                "--out" => p.out_path = Some(take("--out")?),
                "--cache-dir" => p.cache_dir = Some(take("--cache-dir")?),
                "--checkpoint" => p.checkpoint_dir = Some(take("--checkpoint")?),
                "--resume" => p.resume_dir = Some(take("--resume")?),
                "--limit" => {
                    p.limit =
                        Some(take("--limit")?.parse().map_err(|e| format!("bad --limit: {e}"))?)
                }
                "--chunk" => {
                    p.chunk = take("--chunk")?.parse().map_err(|e| format!("bad --chunk: {e}"))?
                }
                "--no-progress" => p.no_progress = true,
                "--metrics-out" => p.metrics_out = Some(take("--metrics-out")?),
                "--trace-out" => p.trace_out = Some(take("--trace-out")?),
                "--no-guards" | "--no-storage" | "--conservative" | "--no-passes"
                | "--no-range-guards" | "--witness" => {} // parse_config reads these
                other if other.starts_with("--") => {
                    return Err(format!("batch: unknown flag `{other}`"));
                }
                file => p.files.push(file.to_string()),
            }
        }
        if p.checkpoint_dir.is_some() && p.resume_dir.is_some() {
            return Err("batch: --checkpoint and --resume are mutually exclusive".into());
        }
        if p.files.is_empty() && p.corpus_n == 0 {
            return Err("batch: no inputs (pass files and/or --corpus n)".into());
        }
        Ok(p)
    }

    fn driver_config(&self) -> driver::DriverConfig {
        driver::DriverConfig {
            jobs: self.jobs,
            timeout: std::time::Duration::from_millis(self.timeout_ms),
        }
    }

    /// The streaming source over file inputs followed by the generated
    /// corpus; its descriptor is stable across invocations, which is
    /// what lets a resume validate it is scanning the same inputs.
    fn source(&self) -> Result<store::ChainedSource, String> {
        let mut sources: Vec<Box<dyn store::ContractSource>> = Vec::new();
        if !self.files.is_empty() {
            let mut loaded = Vec::with_capacity(self.files.len());
            for f in &self.files {
                loaded.push((f.clone(), load_bytecode(f)?));
            }
            sources.push(Box::new(store::MemorySource::new(loaded)));
        }
        if self.corpus_n > 0 {
            sources.push(Box::new(store::CorpusSource::new(corpus::PopulationConfig {
                size: self.corpus_n,
                seed: self.seed,
                scale: self.scale,
                ..Default::default()
            })));
        }
        Ok(store::ChainedSource::new(sources))
    }
}

/// A JSONL sink that flushes after every record, so a kill at any
/// point leaves a valid, parseable prefix on disk instead of an empty
/// (or torn) file.
enum JsonlSink {
    None,
    Stdout,
    File(std::io::BufWriter<std::fs::File>, String),
}

impl JsonlSink {
    fn open(out_path: Option<&str>) -> Result<JsonlSink, String> {
        match out_path {
            None => Ok(JsonlSink::None),
            Some("-") => Ok(JsonlSink::Stdout),
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("creating {path}: {e}"))?;
                Ok(JsonlSink::File(std::io::BufWriter::new(file), path.to_string()))
            }
        }
    }

    fn write(&mut self, outcome: &driver::Outcome) -> Result<(), String> {
        let line = serde_json::to_string(outcome).map_err(|e| e.to_string())?;
        match self {
            JsonlSink::None => Ok(()),
            JsonlSink::Stdout => {
                out!("{line}");
                Ok(())
            }
            JsonlSink::File(w, path) => {
                use std::io::Write as _;
                w.write_all(line.as_bytes())
                    .and_then(|_| w.write_all(b"\n"))
                    .and_then(|_| w.flush())
                    .map_err(|e| format!("writing {path}: {e}"))
            }
        }
    }
}

fn print_summary(s: &driver::Summary, skipped: usize, cache_hits: usize) {
    out!(
        "batch: {} contracts, {} jobs, {:.1}s ({:.1}/s)",
        s.total,
        s.jobs,
        s.wall_ms as f64 / 1000.0,
        s.contracts_per_sec_x1000 as f64 / 1000.0
    );
    if skipped > 0 || cache_hits > 0 {
        out!("  resumed past {skipped}, cache hits {cache_hits}, fresh {}", s.total - cache_hits);
    }
    out!(
        "  analyzed {}, timed_out {}, panicked {}, decompile_failed {}",
        s.analyzed, s.timed_out, s.panicked, s.decompile_failed
    );
    out!("  findings {} ({} composite)", s.findings, s.composite);
}

/// Opens `path` and installs it as the incremental span sink: the
/// trace ring flushes to it whenever it fills, so a run producing more
/// spans than the ring holds loses none of them (and a crashed run
/// still leaves every flushed span on disk).
fn install_trace_writer(path: &str) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
    telemetry::install_span_writer(Box::new(std::io::BufWriter::new(file)));
    Ok(())
}

fn cmd_batch(args: &[String]) -> Result<(), String> {
    let parsed = BatchArgs::parse(args)?;
    let analysis = parse_config(args);
    let cfg = parsed.driver_config();

    if let Some(path) = &parsed.trace_out {
        install_trace_writer(path)?;
    }
    if parsed.cache_dir.is_some()
        || parsed.checkpoint_dir.is_some()
        || parsed.resume_dir.is_some()
        || parsed.limit.is_some()
    {
        batch_with_store(&parsed, &cfg, &analysis)?;
    } else {
        batch_plain(&parsed, &cfg, &analysis)?;
    }
    write_telemetry_outputs(&parsed)
}

/// The plain batch path: stream files + generated corpus through the
/// driver in bounded chunks, flushing each outcome line as it is
/// produced.
fn batch_plain(
    parsed: &BatchArgs,
    cfg: &driver::DriverConfig,
    analysis: &Config,
) -> Result<(), String> {
    let mut contracts: Vec<(String, Vec<u8>)> = Vec::with_capacity(parsed.files.len());
    for f in &parsed.files {
        contracts.push((f.clone(), load_bytecode(f)?));
    }
    let generated = corpus::stream(&corpus::PopulationConfig {
        size: parsed.corpus_n,
        seed: parsed.seed,
        scale: parsed.scale,
        ..Default::default()
    })
    .take(parsed.corpus_n)
    .map(|c| (format!("{}#{}", c.family, c.id), c.bytecode));

    let total = (parsed.files.len() + parsed.corpus_n) as u64;
    let mut progress = telemetry::Progress::new(Some(total), parsed.no_progress);
    let mut sink = JsonlSink::open(parsed.out_path.as_deref())?;
    let mut io_error: Option<String> = None;
    let summary = driver::analyze_stream(
        contracts.into_iter().chain(generated),
        cfg,
        analysis,
        parsed.chunk,
        |o| {
            if io_error.is_none() {
                io_error = sink.write(&o).err();
            }
            progress.tick();
        },
    );
    progress.finish();
    if let Some(e) = io_error {
        return Err(e);
    }
    print_summary(&summary, 0, 0);
    Ok(())
}

/// Writes the post-batch telemetry artifacts: a metric-registry
/// snapshot (`--metrics-out`, JSON plus a Prometheus `.prom` sibling)
/// and the span trace (`--trace-out`, JSONL).
fn write_telemetry_outputs(parsed: &BatchArgs) -> Result<(), String> {
    if let Some(path) = &parsed.metrics_out {
        let prom = write_metrics_snapshot(path)?;
        out!("  metrics: {path} (+ {prom})");
    }
    if let Some(path) = &parsed.trace_out {
        // The incremental writer was installed up front; drain the tail
        // of the ring and close the file.
        telemetry::flush_spans();
        drop(telemetry::remove_span_writer());
        out!("  trace: {path} ({} span(s), {} dropped)",
            telemetry::spans_flushed(),
            telemetry::spans_dropped());
    }
    Ok(())
}

/// Persists the live metric registry to `path` as JSON plus a
/// Prometheus text sibling (`.prom`), returning the sibling's path —
/// the one snapshot writer `batch --metrics-out` and
/// `serve --metrics-out` share.
fn write_metrics_snapshot(path: &str) -> Result<String, String> {
    let snap = telemetry::metrics::snapshot();
    std::fs::write(path, snap.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    let prom = match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.prom"),
        None => format!("{path}.prom"),
    };
    std::fs::write(&prom, snap.to_prometheus()).map_err(|e| format!("writing {prom}: {e}"))?;
    Ok(prom)
}

/// The checkpointed/cached batch path: a [`store::Scanner`] run with a
/// per-scan manifest, per-record-flushed outcome log, optional
/// content-addressed cache, and a deterministic merged verdict file.
fn batch_with_store(
    parsed: &BatchArgs,
    cfg: &driver::DriverConfig,
    analysis: &Config,
) -> Result<(), String> {
    let source = parsed.source()?;
    let manifest = store::Manifest::new(analysis, source.descriptor());

    // A scan without an explicit checkpoint dir (cache-only or limited
    // runs) still goes through a checkpoint — in a throwaway directory.
    let (cp_dir, ephemeral) = match (&parsed.checkpoint_dir, &parsed.resume_dir) {
        (Some(d), _) | (_, Some(d)) => (std::path::PathBuf::from(d), false),
        (None, None) => {
            let dir = std::env::temp_dir()
                .join(format!("ethainter-batch-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            (dir, true)
        }
    };
    let mut checkpoint = if let Some(d) = &parsed.resume_dir {
        if !std::path::Path::new(d).is_dir() {
            return Err(format!("batch: --resume {d}: no such checkpoint directory"));
        }
        store::Checkpoint::resume(&cp_dir, &manifest)?
    } else {
        store::Checkpoint::create(&cp_dir, manifest)?
    };
    let preloaded = checkpoint.preloaded();
    if preloaded > 0 {
        out!("resuming {}: {preloaded} outcome(s) already recorded", cp_dir.display());
    }

    let mut cache = match &parsed.cache_dir {
        Some(d) => Some(store::ResultStore::open(d)?),
        None => None,
    };

    // The heartbeat's total is the full input set; a resumed scan only
    // ticks the remainder, so its line under-fills — the ETA is still
    // honest about the work left.
    let total = (parsed.files.len() + parsed.corpus_n) as u64;
    let mut progress = telemetry::Progress::new(Some(total), parsed.no_progress);
    let mut sink = JsonlSink::open(parsed.out_path.as_deref())?;
    let mut io_error: Option<String> = None;
    let mut summary = driver::Summary::empty(cfg.effective_jobs());
    let scan = {
        let mut scanner = store::Scanner {
            driver: cfg.clone(),
            analysis: *analysis,
            chunk: parsed.chunk.max(1),
            limit: parsed.limit,
            cache: cache.as_mut(),
        };
        scanner.scan(
            source,
            &mut checkpoint,
            |o| {
                summary.record(&o.status);
                if io_error.is_none() {
                    io_error = sink.write(o).err();
                }
                progress.tick();
            },
            |e| eprintln!("warning: skipping unreadable input: {e}"),
        )?
    };
    progress.finish();
    if let Some(e) = io_error {
        return Err(e);
    }
    summary.finish(std::time::Duration::from_millis(scan.wall_ms));

    print_summary(&summary, scan.skipped_completed, scan.cache_hits);
    if let Some(cache) = &cache {
        let s = cache.stats();
        out!(
            "  cache: {} entr{}, {} hit(s) / {} miss(es) this scan",
            s.entries,
            if s.entries == 1 { "y" } else { "ies" },
            scan.cache_hits,
            scan.fresh
        );
    }
    if scan.interrupted {
        out!(
            "  interrupted at --limit {}: {} of {} recorded — continue with --resume {}",
            parsed.limit.unwrap_or(0),
            checkpoint.completed_count(),
            scan.seen,
            cp_dir.display()
        );
    } else if !ephemeral {
        let merged = checkpoint.write_merged()?;
        out!("  merged verdicts: {}", merged.display());
    }
    if !ephemeral {
        out!("  checkpoint: {}", cp_dir.display());
    }
    drop(checkpoint);
    if ephemeral {
        let _ = std::fs::remove_dir_all(&cp_dir);
    }
    Ok(())
}

/// `ethainter serve` — run the analyzer as an HTTP daemon until
/// SIGINT, then drain gracefully.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut cfg = server::ServerConfig { analysis: parse_config(args), ..Default::default() };
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("serve: {name} needs a value"))
        };
        match a.as_str() {
            "--addr" => cfg.addr = take("--addr")?,
            "--jobs" => {
                cfg.workers = take("--jobs")?.parse().map_err(|e| format!("bad --jobs: {e}"))?
            }
            "--queue-depth" => {
                cfg.queue_depth = take("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("bad --queue-depth: {e}"))?
            }
            "--timeout-ms" => {
                let ms: u64 = take("--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad --timeout-ms: {e}"))?;
                cfg.timeout = std::time::Duration::from_millis(ms);
            }
            "--max-body-kb" => {
                let kb: usize = take("--max-body-kb")?
                    .parse()
                    .map_err(|e| format!("bad --max-body-kb: {e}"))?;
                cfg.max_body = kb * 1024;
            }
            "--cache-dir" => cfg.cache_dir = Some(take("--cache-dir")?),
            "--max-done" => {
                cfg.max_done = take("--max-done")?
                    .parse()
                    .map_err(|e| format!("bad --max-done: {e}"))?
            }
            "--trace-out" => trace_out = Some(take("--trace-out")?),
            "--metrics-out" => metrics_out = Some(take("--metrics-out")?),
            "--no-guards" | "--no-storage" | "--conservative" | "--no-passes"
            | "--no-range-guards" | "--witness" => {} // parse_config reads these
            other => return Err(format!("serve: unknown argument `{other}`")),
        }
    }
    if let Some(path) = &trace_out {
        install_trace_writer(path)?;
    }

    server::install_sigint_handler();
    let handle = server::Server::start(cfg)?;
    out!("ethainter serve: listening on {}", handle.url());
    out!("  POST /jobs | GET /jobs/<id> | GET /jobs/<id>/trace | GET /events");
    out!("  GET /healthz | GET /metrics | GET /cache/stats");
    out!("  ^C drains in-flight jobs and exits");
    while !server::sigint_received() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    out!("SIGINT — draining in-flight jobs");
    let report = handle.shutdown();
    if let Some(path) = &trace_out {
        drop(telemetry::remove_span_writer());
        out!("  trace: {path} ({} span(s))", telemetry::spans_flushed());
    }
    if let Some(path) = &metrics_out {
        // Snapshot after the drain so the final counters (including the
        // jobs just drained) are all in the file.
        let prom = write_metrics_snapshot(path)?;
        out!("  metrics: {path} (+ {prom})");
    }
    out!(
        "drained{}: {} job(s) completed, cache flushed",
        if report.drained_cleanly { " cleanly" } else { " (jobs left behind!)" },
        report.jobs_done
    );
    if report.drained_cleanly {
        Ok(())
    } else {
        Err("shutdown left accepted jobs unfinished".into())
    }
}

/// `ethainter cache stats --cache-dir <dir> [--json]` — report on a
/// result store without running anything. `--json` emits the same
/// [`server::api::CacheStatsBody`] schema the daemon serves at
/// `GET /cache/stats`.
fn cmd_cache(args: &[String]) -> Result<(), String> {
    let sub = args.first().map(String::as_str);
    if sub != Some("stats") {
        return Err("cache: expected subcommand `stats`".into());
    }
    let mut cache_dir: Option<String> = None;
    let mut json = false;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache-dir" => {
                cache_dir =
                    Some(it.next().cloned().ok_or("cache stats: --cache-dir needs a value")?)
            }
            "--json" => json = true,
            other => return Err(format!("cache stats: unknown argument `{other}`")),
        }
    }
    let dir = cache_dir.ok_or("cache stats: --cache-dir is required")?;
    if !std::path::Path::new(&dir).is_dir() {
        return Err(format!("cache stats: {dir}: no such cache directory"));
    }
    let store = store::ResultStore::open(&dir)?;
    let s = store.stats();
    let (analyzed, failed) = store.status_breakdown();
    if json {
        let body = server::api::CacheStatsBody::new(&s, analyzed, failed);
        out!("{}", serde_json::to_string_pretty(&body).map_err(|e| e.to_string())?);
        return Ok(());
    }
    out!("cache {dir}");
    out!("  entries:       {} ({analyzed} analyzed, {failed} decompile_failed)", s.entries);
    out!("  segment bytes: {}", s.segment_bytes);
    out!("  lifetime:      {} hit(s), {} miss(es)", s.total_hits, s.total_misses);
    let total = s.total_hits + s.total_misses;
    if total > 0 {
        out!("  hit rate:      {:.1}%", 100.0 * s.total_hits as f64 / total as f64);
    }
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    let mut files: Vec<String> = Vec::new();
    let mut corpus_n = 0usize;
    let mut seed = 7u64;
    let mut scale = corpus::Scale::default();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("lint: {name} needs a value"))
        };
        match a.as_str() {
            "--corpus" => {
                corpus_n = take("--corpus")?.parse().map_err(|e| format!("bad --corpus: {e}"))?
            }
            "--seed" => seed = take("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--scale" => {
                let v = take("--scale")?;
                scale = corpus::Scale::parse(&v).ok_or_else(|| {
                    format!("bad --scale: `{v}` (expected small|realistic|adversarial)")
                })?
            }
            other if other.starts_with("--") => {
                return Err(format!("lint: unknown flag `{other}`"));
            }
            file => files.push(file.to_string()),
        }
    }

    let mut contracts: Vec<(String, Vec<u8>)> = Vec::with_capacity(files.len() + corpus_n);
    for f in &files {
        contracts.push((f.clone(), load_bytecode(f)?));
    }
    if corpus_n > 0 {
        let pop = corpus::Population::generate(&corpus::PopulationConfig {
            size: corpus_n,
            seed,
            scale,
            ..Default::default()
        });
        for (i, c) in pop.contracts.into_iter().enumerate() {
            contracts.push((format!("{}#{i}", c.family), c.bytecode));
        }
    }
    if contracts.is_empty() {
        return Err("lint: no inputs (pass files and/or --corpus n)".into());
    }

    let total = contracts.len();
    let mut violations = 0usize;
    let mut skipped = 0usize;
    for (id, code) in &contracts {
        let program = decompiler::decompile(code);
        // Incomplete decompilations legitimately break the invariants
        // (budget cutoffs leave blocks unterminated) — the validator
        // only judges programs the decompiler claims are clean.
        if program.incomplete || !program.warnings.is_empty() {
            skipped += 1;
            out!("{id}: skipped (incomplete or warned decompilation)");
            continue;
        }
        let bad = decompiler::validate(&program);
        for m in &bad {
            out!("{id}: {m}");
        }
        violations += bad.len();
    }
    out!("linted {total} program(s): {violations} violation(s), {skipped} skipped");
    if violations > 0 {
        return Err(format!("{violations} IR violation(s)"));
    }
    Ok(())
}

fn cmd_scan(args: &[String]) -> Result<(), String> {
    let size: usize = args
        .first()
        .map(|s| s.parse().map_err(|e| format!("bad size: {e}")))
        .transpose()?
        .unwrap_or(2_000);
    let pop = corpus::Population::generate(&corpus::PopulationConfig {
        size,
        ..Default::default()
    });
    let started = std::time::Instant::now();
    let mut flagged = 0usize;
    let mut per_class = std::collections::BTreeMap::new();
    for c in &pop.contracts {
        let r = ethainter::analyze_bytecode(&c.bytecode, &Config::default());
        if !r.findings.is_empty() {
            flagged += 1;
        }
        for v in Vuln::ALL {
            if r.has(v) {
                *per_class.entry(v).or_insert(0usize) += 1;
            }
        }
    }
    out!(
        "scanned {size} contracts in {:.1?} — {flagged} flagged ({:.2}%)",
        started.elapsed(),
        100.0 * flagged as f64 / size as f64
    );
    for (v, n) in per_class {
        out!("  {:<30} {n} ({:.2}%)", v.to_string(), 100.0 * n as f64 / size as f64);
    }
    Ok(())
}
