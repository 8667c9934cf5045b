//! **F8a/b/c** — Figure 8: the effect of the §6.4 design-decision
//! ablations, reported as per-class report *ratios* normalized to the
//! default analysis.
//!
//! Paper reference ratios (tainted sd / tainted owner / unchecked
//! staticcall / tainted delegatecall):
//!
//! - **8a** no storage modeling:      0.44 / 0.75 / 0.75 / 0.69  (↓ completeness)
//! - **8b** no guard modeling:       21.31 / 26.34 / 3.5  / 2    (↓ precision)
//! - **8c** conservative storage:     2.51 / 3.08 / 1.13 / ~1    (↓ precision)
//!
//! ```text
//! cargo run --release -p bench --bin exp8_ablations [population_size]
//! ```

use bench::{prevalence, print_table, report_ratios, scan_jobs, size_arg};
use corpus::{Population, PopulationConfig};
use ethainter::{Config, Vuln};

/// The four classes Figure 8 charts (accessible selfdestruct is not a
/// taint property and is omitted there too).
const CHARTED: [Vuln; 4] = [
    Vuln::TaintedSelfDestruct,
    Vuln::TaintedOwnerVariable,
    Vuln::UncheckedTaintedStaticCall,
    Vuln::TaintedDelegateCall,
];

const PAPER: [(&str, [f64; 4]); 3] = [
    ("8a no storage modeling", [0.44, 0.75, 0.75, 0.69]),
    ("8b no guard modeling", [21.31, 26.34, 3.5, 2.0]),
    ("8c conservative storage", [2.51, 3.08, 1.13, 1.0]),
];

fn main() {
    let size = size_arg(60_000);
    eprintln!("generating {size} contracts…");
    let pop = Population::generate(&PopulationConfig { size, ..Default::default() });

    eprintln!("scanning: default configuration…");
    let base = scan_jobs(&pop.contracts, &Config::default(), 0);
    let base_rows = prevalence(&pop, &base.reports);

    let variants = [
        ("8a no storage modeling", Config::no_storage_taint()),
        ("8b no guard modeling", Config::no_guard_model()),
        ("8c conservative storage", Config::conservative_storage()),
    ];

    println!("\nExperiment F8 — ablation report ratios (normalized to default)");
    let mut table = Vec::new();
    for (name, cfg) in variants {
        eprintln!("scanning: {name}…");
        let v = scan_jobs(&pop.contracts, &cfg, 0);
        let v_rows = prevalence(&pop, &v.reports);
        let ratios = report_ratios(&base_rows, &v_rows);
        let charted: Vec<f64> = CHARTED
            .iter()
            .map(|c| ratios.iter().find(|(v, _)| v == c).map(|(_, r)| *r).unwrap_or(0.0))
            .collect();
        let paper = PAPER.iter().find(|(n, _)| *n == name).map(|(_, p)| p).unwrap();
        table.push(vec![
            name.to_string(),
            format!("{:.2} / {:.2} / {:.2} / {:.2}", charted[0], charted[1], charted[2], charted[3]),
            format!("{:.2} / {:.2} / {:.2} / {:.2}", paper[0], paper[1], paper[2], paper[3]),
        ]);
    }
    print_table(
        &[
            "variant",
            "measured (t.sd / t.owner / u.static / t.deleg)",
            "paper",
        ],
        &table,
    );
    println!(
        "\nShape check: 8a < 1 everywhere (composite chains need storage taint);\n\
         8b ≫ 1 for the selfdestruct/owner classes (guards were doing the work);\n\
         8c ≥ 1 (unknown-address stores poison every slot)."
    );
}
