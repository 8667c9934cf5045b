//! **F6** — Figure 6: precision of a 40-contract random sample of
//! flagged contracts with verified source, judged per class. The paper
//! reports 33/40 = 82.5% overall (10/10, 6/6, 15/21, 1/1, 1/2), with
//! ✰ marks on findings that need composite tainting.
//!
//! Ground-truth labels replace manual inspection (see DESIGN.md).
//!
//! ```text
//! cargo run --release -p bench --bin exp3_precision [population_size]
//! ```

use bench::{
    overall_precision, print_table, sample_flagged_with_source, scan_jobs, score_sample, size_arg,
};
use corpus::{Population, PopulationConfig};
use ethainter::Config;

/// Paper values: (class, true positives, flagged in sample).
const PAPER: [(&str, usize, usize); 5] = [
    ("accessible selfdestruct", 10, 10),
    ("tainted selfdestruct", 6, 6),
    ("tainted owner variable", 15, 21),
    ("unchecked tainted staticcall", 1, 2),
    ("tainted delegatecall", 1, 1),
];

fn main() {
    let size = size_arg(120_000);
    eprintln!("generating {size} contracts and scanning…");
    let pop = Population::generate(&PopulationConfig { size, ..Default::default() });
    let result = scan_jobs(&pop.contracts, &Config::default(), 0);

    let sample = sample_flagged_with_source(&pop, &result.reports, 40, 0x5A11);
    eprintln!("sampled {} flagged contracts with verified source", sample.len());

    let rows = score_sample(&pop, &result.reports, &sample);
    println!("\nExperiment F6 — sampled precision (paper Figure 6)");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(v, r)| {
            let paper = PAPER.iter().find(|(n, _, _)| *n == v.name());
            vec![
                v.name().to_string(),
                format!("{}/{}", r.true_positives, r.flagged),
                format!("{:.0}%", 100.0 * r.precision()),
                paper
                    .map(|(_, tp, tot)| format!("{tp}/{tot}"))
                    .unwrap_or_default(),
                format!("{} composite ✰", r.composite),
            ]
        })
        .collect();
    print_table(&["class", "measured TP", "precision", "paper TP", "notes"], &table);

    let (tp, total) = overall_precision(&rows);
    println!(
        "\noverall precision: {tp}/{total} = {:.1}%   (paper: 33/40 = 82.5%)",
        100.0 * tp as f64 / total.max(1) as f64
    );
}
