//! **T1** — the §6.2 prevalence table: percentage of unique contracts
//! flagged per vulnerability, and the balance they hold.
//!
//! ```text
//! cargo run --release -p bench --bin exp2_prevalence [population_size]
//! ```

use bench::{prevalence, print_table, scan_jobs, size_arg};
use corpus::{Population, PopulationConfig};
use ethainter::Config;

/// Paper values (percent flagged; §6.2 table).
const PAPER_PCT: [(&str, f64); 5] = [
    ("accessible selfdestruct", 1.2),
    ("tainted selfdestruct", 0.17),
    ("tainted owner variable", 1.33),
    ("unchecked tainted staticcall", 0.04),
    ("tainted delegatecall", 0.17),
];

fn main() {
    let size = size_arg(30_000);
    eprintln!("generating {size} unique contracts…");
    let pop = Population::generate(&PopulationConfig { size, ..Default::default() });
    eprintln!("scanning on the batch driver…");
    let result = scan_jobs(&pop.contracts, &Config::default(), 0);
    let rows = prevalence(&pop, &result.reports);

    println!("\nExperiment T1 — vulnerability prevalence over {size} unique contracts");
    println!(
        "(scan took {:.1?} on {} worker(s), {:.2} ms/contract, {} cut off)\n",
        result.elapsed,
        result.jobs,
        result.elapsed.as_secs_f64() * 1e3 / size as f64,
        result.reports.iter().filter(|r| r.timed_out || r.decompile_failed.is_some()).count(),
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let paper = PAPER_PCT
                .iter()
                .find(|(n, _)| *n == r.vuln.name())
                .map(|(_, p)| *p)
                .unwrap_or(0.0);
            vec![
                r.vuln.name().to_string(),
                r.flagged.to_string(),
                format!("{:.2}%", r.pct),
                format!("{paper:.2}%"),
                r.eth_held.to_string(),
            ]
        })
        .collect();
    print_table(
        &["vulnerability", "flagged", "measured %", "paper %", "wei held"],
        &table,
    );

    let total_flagged =
        result.reports.iter().filter(|r| !r.findings.is_empty()).count();
    println!(
        "\ntotal flagged: {total_flagged} ({:.2}%)",
        100.0 * total_flagged as f64 / size as f64
    );
}
