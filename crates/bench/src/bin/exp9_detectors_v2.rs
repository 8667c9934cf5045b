//! **D2** — detector-suite-v2 ground-truth scorecard at realistic scale:
//! per-class recall over seeded positives and spurious-flag counts over
//! the hardened negatives, for every class in [`Vuln::ALL`].
//!
//! ```text
//! cargo run --release -p bench --bin exp9_detectors_v2 [population_size]
//! ```
//!
//! Unlike `exp2_prevalence` (which compares measured prevalence against
//! the paper's §6.2 percentages), this experiment scores the analyzer
//! against the corpus generator's own labels: a *detected* contract is a
//! seeded positive the analyzer flagged with the right class, a
//! *spurious* flag is a class reported on a contract whose ground truth
//! lists it neither as exploitable nor as a sanctioned decoy.

use bench::{print_table, scan_jobs, size_arg};
use corpus::{Population, PopulationConfig, Scale};
use ethainter::{Config, Vuln};

fn main() {
    let size = size_arg(2_000);
    eprintln!("generating {size} unique contracts at realistic scale…");
    let pop = Population::generate(&PopulationConfig {
        size,
        scale: Scale::Realistic,
        ..Default::default()
    });
    eprintln!("scanning on the batch driver…");
    let result = scan_jobs(&pop.contracts, &Config::default(), 0);

    println!("\nExperiment D2 — per-class ground truth at realistic scale ({size} contracts)");
    println!(
        "(scan took {:.1?} on {} worker(s), {:.2} ms/contract, {} cut off)\n",
        result.elapsed,
        result.jobs,
        result.elapsed.as_secs_f64() * 1e3 / size as f64,
        result.reports.iter().filter(|r| r.timed_out || r.decompile_failed.is_some()).count(),
    );

    let mut rows: Vec<Vec<String>> = Vec::with_capacity(Vuln::ALL.len());
    for vuln in Vuln::ALL {
        let mut seeded = 0usize;
        let mut detected = 0usize;
        let mut spurious = 0usize;
        for (c, r) in pop.contracts.iter().zip(&result.reports) {
            let labelled = c.truth.exploitable.contains(&vuln);
            let flagged = r.has(vuln);
            if labelled {
                seeded += 1;
                if flagged {
                    detected += 1;
                }
            } else if flagged && !c.truth.decoy.contains(&vuln) {
                spurious += 1;
            }
        }
        let recall = if seeded == 0 {
            "—".to_string()
        } else {
            format!("{:.1}%", 100.0 * detected as f64 / seeded as f64)
        };
        rows.push(vec![
            vuln.name().to_string(),
            seeded.to_string(),
            detected.to_string(),
            recall,
            spurious.to_string(),
        ]);
    }
    print_table(&["vulnerability", "seeded", "detected", "recall", "spurious"], &rows);

    let missed: usize = pop
        .contracts
        .iter()
        .zip(&result.reports)
        .flat_map(|(c, r)| c.truth.exploitable.iter().filter(move |&&v| !r.has(v)))
        .count();
    println!("\nmissed labels across all classes: {missed}");
}
