//! **E1** — Experiment 1 (§6.1): automated end-to-end exploits on a
//! private fork of a Ropsten-like network.
//!
//! The paper: 882K recent contracts → 4800 flagged (0.54%) → 3003 with a
//! pinpointed public entry → **805 destroyed (16.7% of flagged)**.
//!
//! ```text
//! cargo run --release -p bench --bin exp1_kill [population_size]
//! ```

use bench::{scan_jobs, size_arg};
use chain::TestNet;
use corpus::{Population, PopulationConfig};
use ethainter::{Config, Vuln};
use kill::{exploit, KillConfig};

fn main() {
    let size = size_arg(8_000);
    eprintln!("populating a Ropsten-like network with {size} contracts…");
    // The Ropsten universe: flagged rate ≈ 0.54%, dominated by shapes
    // that resist automated exploitation (§6.1's "lower bound" framing).
    let pop = Population::generate(&PopulationConfig {
        size,
        seed: 0x0705_7E17,
        profile: corpus::Profile::Ropsten,
        ..Default::default()
    });
    let mut net = TestNet::new();
    let addrs = pop.deploy(&mut net);

    eprintln!("scanning for selfdestruct-class vulnerabilities…");
    let result = scan_jobs(&pop.contracts, &Config::default(), 0);

    // Flagged = any selfdestruct-class finding (Ethainter-Kill's scope).
    let flagged: Vec<usize> = result
        .reports
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            r.has(Vuln::AccessibleSelfDestruct) || r.has(Vuln::TaintedSelfDestruct)
        })
        .map(|(i, _)| i)
        .collect();
    // Pinpointed = a public entry point is attached to the finding.
    let pinpointed: Vec<usize> = flagged
        .iter()
        .copied()
        .filter(|&i| {
            result.reports[i]
                .findings
                .iter()
                .filter(|f| {
                    matches!(f.vuln, Vuln::AccessibleSelfDestruct | Vuln::TaintedSelfDestruct)
                })
                .any(|f| !f.selectors.is_empty())
        })
        .collect();

    eprintln!("unleashing Ethainter-Kill on a private fork…");
    let mut destroyed = 0usize;
    let mut funds = evm::U256::ZERO;
    for &i in &pinpointed {
        let outcome = exploit(&net, addrs[i], &result.reports[i], &KillConfig::default());
        if outcome.destroyed {
            destroyed += 1;
            funds = funds.wrapping_add(outcome.funds_recovered);
        }
    }

    println!("\nExperiment E1 — automated end-to-end exploits (paper §6.1)");
    println!("  {:<42}{:>12}{:>12}", "", "measured", "paper");
    println!("  {:<42}{:>12}{:>12}", "contracts scanned", size, 882_000);
    println!(
        "  {:<42}{:>12}{:>12}",
        "flagged (selfdestruct classes)",
        format!("{} ({:.2}%)", flagged.len(), 100.0 * flagged.len() as f64 / size as f64),
        "4800 (0.54%)"
    );
    println!("  {:<42}{:>12}{:>12}", "pinpointed entry point", pinpointed.len(), 3003);
    println!(
        "  {:<42}{:>12}{:>12}",
        "destroyed on the fork",
        format!(
            "{destroyed} ({:.1}% of flagged)",
            100.0 * destroyed as f64 / flagged.len().max(1) as f64
        ),
        "805 (16.7%)"
    );
    println!("  {:<42}{:>12}", "wei recovered by the attacker", funds);
    println!(
        "\nThe destruction rate is a *lower bound* on precision — the paper's\n\
         point stands if a substantial fraction of flags convert to real kills."
    );
}
