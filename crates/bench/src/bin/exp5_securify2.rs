//! **F7** — the Securify2 comparison (Figure 7): over the
//! source-available, modern-Solidity subpopulation, per-class reports,
//! timeouts, and sampled precision for both tools.
//!
//! Paper, over 6,094 contracts: timeouts 441 (S2) vs 117 (Ethainter);
//! accessible selfdestruct 5 (5/5) vs 15 (11/15); unrestricted write /
//! tainted owner 3502 (0/10) vs 161 (6/10); delegatecall 3 (0/3) vs 21
//! (15/21).
//!
//! ```text
//! cargo run --release -p bench --bin exp5_securify2 [population_size]
//! ```

use baselines::securify2::{self, Failure, Pattern};
use bench::{print_table, scan_jobs, size_arg};
use corpus::{Population, PopulationConfig};
use ethainter::{Config, Vuln};

fn main() {
    let size = size_arg(120_000);
    eprintln!("generating {size} contracts; taking the modern-source subpopulation…");
    let pop = Population::generate(&PopulationConfig { size, ..Default::default() });
    let universe: Vec<&corpus::CorpusContract> = pop
        .contracts
        .iter()
        .filter(|c| c.source.is_some() && c.modern_solidity)
        .collect();
    eprintln!(
        "universe: {} contracts (paper: 6,094 of 262,812 — under 3%)",
        universe.len()
    );

    let mut s2_timeouts = 0usize;
    let mut s2_nofacts = 0usize;
    let mut counts = [(0usize, 0usize); 3]; // (s2 flagged, s2 TP) per row
    let mut eth = [(0usize, 0usize); 3];
    let mut eth_timeouts = 0usize;

    let eth_reports = scan_jobs(universe.iter().copied(), &Config::default(), 0).reports;
    for (c, er) in universe.iter().zip(&eth_reports) {
        let src = c.source.as_deref().expect("universe is sourced");
        match securify2::analyze(src, true) {
            Err(Failure::Timeout) => s2_timeouts += 1,
            Err(_) => s2_nofacts += 1,
            Ok(r) => {
                let truth = &c.truth;
                let rows = [
                    (r.has(Pattern::UnrestrictedSelfdestruct),
                     truth.exploitable.contains(&Vuln::AccessibleSelfDestruct)),
                    (r.has(Pattern::UnrestrictedWrite),
                     truth.exploitable.contains(&Vuln::TaintedOwnerVariable)),
                    (r.has(Pattern::UnrestrictedDelegateCall),
                     truth.exploitable.contains(&Vuln::TaintedDelegateCall)),
                ];
                for (i, (flagged, tp)) in rows.into_iter().enumerate() {
                    if flagged {
                        counts[i].0 += 1;
                        if tp {
                            counts[i].1 += 1;
                        }
                    }
                }
            }
        }
        if er.timed_out || er.decompile_failed.is_some() {
            eth_timeouts += 1;
        }
        let rows = [
            (er.has(Vuln::AccessibleSelfDestruct),
             c.truth.exploitable.contains(&Vuln::AccessibleSelfDestruct)),
            (er.has(Vuln::TaintedOwnerVariable),
             c.truth.exploitable.contains(&Vuln::TaintedOwnerVariable)),
            (er.has(Vuln::TaintedDelegateCall),
             c.truth.exploitable.contains(&Vuln::TaintedDelegateCall)),
        ];
        for (i, (flagged, tp)) in rows.into_iter().enumerate() {
            if flagged {
                eth[i].0 += 1;
                if tp {
                    eth[i].1 += 1;
                }
            }
        }
    }

    println!("\nExperiment F7 — Securify2 comparison over {} contracts", universe.len());
    let fmt = |(n, tp): (usize, usize)| format!("{n} (TP {tp}/{n})");
    let rows = vec![
        vec![
            "failed fact generation".into(),
            s2_nofacts.to_string(),
            "—".into(),
            "1182 (paper)".into(),
        ],
        vec![
            "timeout".into(),
            s2_timeouts.to_string(),
            eth_timeouts.to_string(),
            "441 vs 117".into(),
        ],
        vec![
            "accessible selfdestruct".into(),
            fmt(counts[0]),
            fmt(eth[0]),
            "5 (5/5) vs 15 (11/15)".into(),
        ],
        vec![
            "unrestr. write / tainted owner".into(),
            fmt(counts[1]),
            fmt(eth[1]),
            "3502 (0/10*) vs 161 (6/10*)".into(),
        ],
        vec![
            "tainted delegatecall".into(),
            fmt(counts[2]),
            fmt(eth[2]),
            "3 (0/3) vs 21 (15/21)".into(),
        ],
    ];
    print_table(&["row", "Securify2", "Ethainter", "paper (S2 vs Ethainter)"], &rows);
    println!("\n(*) the paper judged a 10-contract sample for the write/owner row;\n\
              here every flagged contract is judged against ground truth.");
}
