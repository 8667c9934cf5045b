//! **P1** — §6.3 efficiency: whole-population scan throughput, average
//! per-contract analysis latency, parallel speedup, and the
//! Securify-relative slowdown.
//!
//! Paper: 240K contracts (38 MLoC of 3-address code) in 6 hours at
//! concurrency 45; <5 s average per contract (including decompilation);
//! Securify >5× slower than single-thread Ethainter.
//!
//! ```text
//! cargo run --release -p bench --bin exp7_scalability [population_size]
//! ```

use baselines::securify;
use bench::{scan_jobs, size_arg};
use corpus::{Population, PopulationConfig};
use ethainter::Config;
use std::time::Instant;

fn main() {
    let size = size_arg(20_000);
    eprintln!("generating {size} contracts…");
    let pop_cfg = PopulationConfig { size, ..Default::default() };
    let pop = Population::generate(&pop_cfg);
    let tac_stmts: usize = pop
        .contracts
        .iter()
        .map(|c| decompiler::decompile(&c.bytecode).stmts.len())
        .sum();

    // Driver-based scan at increasing worker counts: 1, 2, 4, … up to
    // the machine's cores (the paper's concurrency-45 sweep, scaled).
    let cores = driver::DriverConfig::default().effective_jobs();
    let mut sweep = vec![1usize];
    while *sweep.last().unwrap() * 2 < cores {
        sweep.push(sweep.last().unwrap() * 2);
    }
    if cores > 1 {
        sweep.push(cores);
    }
    eprintln!("driver scan sweep over {sweep:?} worker(s)…");
    let runs: Vec<bench::ScanResult> =
        sweep.iter().map(|&j| scan_jobs(&pop.contracts, &Config::default(), j)).collect();
    let seq = &runs[0];
    let _par = runs.last().unwrap();

    // Analysis-stage comparison on pre-decompiled programs (Securify did
    // not share Ethainter's decompiler, so the fair contrast is between
    // the analyses themselves).
    let sub = (size / 10).max(50).min(pop.contracts.len());
    eprintln!("analysis-only comparison on a {sub}-contract subsample…");
    let programs: Vec<_> = pop
        .contracts
        .iter()
        .take(sub)
        .map(|c| decompiler::decompile(&c.bytecode))
        .collect();
    let t0 = Instant::now();
    for prog in &programs {
        let _ = ethainter::analyze(prog, &Config::default());
    }
    let eth_analysis_per = t0.elapsed().as_secs_f64() / sub as f64;
    let t0 = Instant::now();
    for prog in &programs {
        let _ = securify::analyze_program(prog);
    }
    let securify_per = t0.elapsed().as_secs_f64() / sub as f64;
    let ethainter_per = seq.elapsed.as_secs_f64() / size as f64;

    // IR pass pipeline: how much the optimizer shrinks the fact universe
    // before the fixpoint ever sees it, what the passes cost, and what
    // they buy at the analysis stage (same subsample, raw vs optimized).
    eprintln!("pass-pipeline before/after on the subsample…");
    let stmts_before: usize = programs.iter().map(|p| p.stmts.len()).sum();
    let t0 = Instant::now();
    let optimized: Vec<_> = programs
        .iter()
        .map(|p| {
            let mut q = p.clone();
            decompiler::optimize(&mut q, &decompiler::PassConfig::default());
            q
        })
        .collect();
    let pass_time = t0.elapsed();
    let stmts_after: usize = optimized.iter().map(|p| p.stmts.len()).sum();
    let t0 = Instant::now();
    for prog in &optimized {
        let _ = ethainter::analyze(prog, &Config::default());
    }
    let eth_opt_per = t0.elapsed().as_secs_f64() / sub as f64;

    // Result store: the same scan cold (empty cache) and warm (cache
    // populated by the cold run). The warm pass is what an unchanged
    // re-scan of the chain costs: pure content-addressed lookups.
    eprintln!("warm-vs-cold result-store scan…");
    let scan_once = |cache: &mut store::ResultStore| {
        let source = store::CorpusSource::new(pop_cfg);
        let t0 = Instant::now();
        let summary = store::Scanner { cache: Some(cache), ..store::Scanner::default() }
            .scan(source, None, |_| {}, |_| {})
            .expect("scan runs");
        (summary, t0.elapsed())
    };
    let cache_dir = std::env::temp_dir()
        .join(format!("ethainter-exp7-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut cache = store::ResultStore::open(&cache_dir).expect("cache opens");
    let (cold, cold_elapsed) = scan_once(&mut cache);
    let (warm, warm_elapsed) = scan_once(&mut cache);
    assert_eq!(warm.fresh, 0, "warm re-scan must be pure cache hits");
    let cache_entries = cache.len();
    let _ = std::fs::remove_dir_all(&cache_dir);

    println!("\nExperiment P1 — analysis efficiency (paper §6.3)");
    println!("  population:                {size} unique contracts");
    println!(
        "  generator dedup:           {} identical-bytecode candidates rejected ({:.2}% duplicate rate)",
        pop.duplicates_rejected,
        100.0 * pop.duplicate_rate()
    );
    println!("  three-address code:        {tac_stmts} statements");
    println!(
        "  sequential scan:           {:.2?}  ({:.3} ms/contract)",
        seq.elapsed,
        ethainter_per * 1e3
    );
    for run in &runs[1..] {
        println!(
            "  driver scan ({} workers):   {:.2?}  (speedup {:.2}×)",
            run.jobs,
            run.elapsed,
            seq.elapsed.as_secs_f64() / run.elapsed.as_secs_f64().max(1e-9)
        );
    }
    println!(
        "  end-to-end (decompile+analyze):  {:.3} ms/contract", ethainter_per * 1e3);
    println!(
        "  Ethainter analysis stage:  {:.4} ms/contract", eth_analysis_per * 1e3);
    println!(
        "  Securify analysis stage:   {:.4} ms/contract → {:.1}× slower",
        securify_per * 1e3,
        securify_per / eth_analysis_per.max(1e-12)
    );
    println!("\n  IR pass pipeline (constprop + DCE, {sub}-contract subsample):");
    println!(
        "    statements:  {stmts_before} → {stmts_after}  ({:.1}% removed)",
        100.0 * (stmts_before.saturating_sub(stmts_after)) as f64 / stmts_before.max(1) as f64
    );
    println!(
        "    pass cost:   {:.2?} total  ({:.4} ms/contract)",
        pass_time,
        pass_time.as_secs_f64() / sub as f64 * 1e3
    );
    println!(
        "    analysis:    raw {:.4} ms/contract, optimized {:.4} ms/contract ({:.2}× speedup)",
        eth_analysis_per * 1e3,
        eth_opt_per * 1e3,
        eth_analysis_per / eth_opt_per.max(1e-12)
    );
    // The gap widens with contract size (Securify's dense quadratic
    // closure vs Ethainter's semi-naive sparse evaluation): compare on a
    // realistically large contract.
    let mut big = String::from("contract Big {\n    mapping(address => uint) balances;\n    mapping(address => mapping(address => uint)) allowed;\n    uint supply;\n");
    for i in 0..24 {
        big.push_str(&format!(
            "    function op{i}(address to, uint v) public {{ require(balances[msg.sender] >= v); balances[msg.sender] -= v; balances[to] += v; supply += {i}; }}\n"
        ));
    }
    big.push('}');
    let big_code = minisol::compile_source(&big).expect("big contract compiles").bytecode;
    let big_prog = decompiler::decompile(&big_code);
    let t0 = Instant::now();
    for _ in 0..20 {
        let _ = ethainter::analyze(&big_prog, &Config::default());
    }
    let eth_big = t0.elapsed().as_secs_f64() / 20.0;
    let t0 = Instant::now();
    for _ in 0..20 {
        let _ = securify::analyze_program(&big_prog);
    }
    let sec_big = t0.elapsed().as_secs_f64() / 20.0;
    println!(
        "  large contract ({} TAC stmts): Ethainter {:.2} ms, Securify {:.2} ms → {:.1}× slower",
        big_prog.stmts.len(),
        eth_big * 1e3,
        sec_big * 1e3,
        sec_big / eth_big.max(1e-12)
    );

    println!("\n  result store (content-addressed cache, {size}-contract scan):");
    println!(
        "    cold scan:   {:.2?}  ({} fresh analyses → {} cache entries)",
        cold_elapsed, cold.fresh, cache_entries
    );
    println!(
        "    warm rescan: {:.2?}  ({} cache hits, {} fresh) → {:.1}× faster",
        warm_elapsed,
        warm.cache_hits,
        warm.fresh,
        cold_elapsed.as_secs_f64() / warm_elapsed.as_secs_f64().max(1e-9)
    );

    println!(
        "\n  paper reference: 240K contracts in 6 h at concurrency 45 (<5 s avg);\n\
         \x20 Securify >5× slower single-thread and not parallelizable.\n\
         \x20 Shape check: per-contract latency far below the paper's cutoff, near-linear\n\
         \x20 scaling in population size, Securify slower by the naive-evaluation gap."
    );
}
