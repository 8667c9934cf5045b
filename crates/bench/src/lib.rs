//! # bench — shared evaluation machinery
//!
//! Helpers used by the `exp*` binaries (one per table/figure of the
//! paper, see `DESIGN.md` §3) and the Criterion microbenches: population
//! scanning (optionally parallel, reproducing the paper's 45-process
//! setup), prevalence tables, ground-truth precision scoring, and the
//! random-sampling protocol of §6.2.

#![warn(missing_docs)]

use corpus::{CorpusContract, Population};
use driver::{DriverConfig, Isolated};
use ethainter::{analyze_bytecode, Config, Report, Vuln};
use evm::U256;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// A scanned population: per-contract Ethainter reports.
pub struct ScanResult {
    /// One report per contract (index-aligned).
    pub reports: Vec<Report>,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock duration of the scan.
    pub elapsed: Duration,
}

/// Scans every contract with Ethainter on the batch driver with the
/// given worker count (`0` = one per core), per-contract timeout and
/// panic containment included. A contract the driver cuts off or
/// catches panicking yields an empty report with `timed_out` set, so
/// the result stays index-aligned with `contracts`.
pub fn scan_jobs<'a>(
    contracts: impl IntoIterator<Item = &'a CorpusContract>,
    cfg: &Config,
    jobs: usize,
) -> ScanResult {
    let items: Vec<(String, Vec<u8>)> = contracts
        .into_iter()
        .map(|c| (format!("{}#{}", c.family, c.id), c.bytecode.clone()))
        .collect();
    let dcfg = DriverConfig { jobs, ..DriverConfig::default() };
    let cfg = *cfg;
    let timeout = dcfg.timeout;
    let batch = driver::run_isolated(items, &dcfg, move |bytecode: Vec<u8>| {
        ethainter::with_deadline(Instant::now() + timeout, || analyze_bytecode(&bytecode, &cfg))
    });
    let reports = batch
        .results
        .into_iter()
        .map(|o| match o.result {
            Isolated::Completed(report) => report,
            Isolated::TimedOut | Isolated::Panicked { .. } => {
                Report { timed_out: true, ..Report::default() }
            }
        })
        .collect();
    ScanResult { reports, jobs: batch.jobs, elapsed: batch.wall_time }
}

/// One row of the §6.2 prevalence table.
#[derive(Clone, Debug)]
pub struct PrevalenceRow {
    /// Vulnerability class.
    pub vuln: Vuln,
    /// Unique contracts flagged.
    pub flagged: usize,
    /// Percentage of the population.
    pub pct: f64,
    /// Total balance held by flagged contracts (wei).
    pub eth_held: U256,
}

/// Builds the §6.2 table from a scan.
pub fn prevalence(pop: &Population, reports: &[Report]) -> Vec<PrevalenceRow> {
    Vuln::ALL
        .iter()
        .map(|&vuln| {
            let mut flagged = 0usize;
            let mut eth = U256::ZERO;
            for (c, r) in pop.contracts.iter().zip(reports) {
                if r.has(vuln) {
                    flagged += 1;
                    eth = eth.wrapping_add(c.balance);
                }
            }
            PrevalenceRow {
                vuln,
                flagged,
                pct: 100.0 * flagged as f64 / pop.contracts.len().max(1) as f64,
                eth_held: eth,
            }
        })
        .collect()
}

/// The §6.2 sampling protocol: random flagged contracts **with verified
/// source**, resampled until every class with any flagged-with-source
/// representative appears at least once (or the sample is exhausted).
pub fn sample_flagged_with_source(
    pop: &Population,
    reports: &[Report],
    n: usize,
    seed: u64,
) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flagged: Vec<usize> = pop
        .contracts
        .iter()
        .zip(reports)
        .filter(|(c, r)| c.source.is_some() && !r.findings.is_empty())
        .map(|(c, _)| c.id)
        .collect();
    // Lexicographic sort on (hashed) addresses, then random sampling —
    // as described in the paper.
    flagged.sort_by_key(|&id| evm::Address::from_seed(0xC0DE_0000 + id as u64));
    let classes_present: Vec<Vuln> = Vuln::ALL
        .iter()
        .copied()
        .filter(|&v| flagged.iter().any(|&id| reports[id].has(v)))
        .collect();
    for _attempt in 0..64 {
        let sample: Vec<usize> =
            flagged.choose_multiple(&mut rng, n.min(flagged.len())).copied().collect();
        let covered = classes_present
            .iter()
            .all(|&v| sample.iter().any(|&id| reports[id].has(v)));
        if covered || sample.len() == flagged.len() {
            return sample;
        }
    }
    flagged.into_iter().take(n).collect()
}

/// Per-class precision of a flagged sample against ground truth
/// (the Figure 6 protocol with labels instead of manual inspection).
#[derive(Clone, Debug, Default)]
pub struct PrecisionRow {
    /// Sampled contracts flagged for this class.
    pub flagged: usize,
    /// Of those, genuinely exploitable (ground truth).
    pub true_positives: usize,
    /// Of the true positives, how many needed composite tainting (✰).
    pub composite: usize,
}

impl PrecisionRow {
    /// Precision as a fraction (1.0 when nothing was flagged).
    pub fn precision(&self) -> f64 {
        if self.flagged == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.flagged as f64
        }
    }
}

/// Scores a sample of contract ids per vulnerability class.
pub fn score_sample(
    pop: &Population,
    reports: &[Report],
    sample: &[usize],
) -> Vec<(Vuln, PrecisionRow)> {
    Vuln::ALL
        .iter()
        .map(|&vuln| {
            let mut row = PrecisionRow::default();
            for &id in sample {
                if !reports[id].has(vuln) {
                    continue;
                }
                row.flagged += 1;
                let truth = &pop.contracts[id].truth;
                if truth.exploitable.contains(&vuln) {
                    row.true_positives += 1;
                    if truth.composite {
                        row.composite += 1;
                    }
                }
            }
            (vuln, row)
        })
        .collect()
}

/// Overall precision over a sample: a sampled contract counts as a true
/// positive if *every* class it is flagged for is exploitable... no —
/// following Figure 6, each (contract, class) flag is judged separately
/// and the total is the sum over classes.
pub fn overall_precision(rows: &[(Vuln, PrecisionRow)]) -> (usize, usize) {
    let tp: usize = rows.iter().map(|(_, r)| r.true_positives).sum();
    let total: usize = rows.iter().map(|(_, r)| r.flagged).sum();
    (tp, total)
}

/// Renders a ratio like the Figure 8 charts: variant flags ÷ default
/// flags, per class.
pub fn report_ratios(
    default_rows: &[PrevalenceRow],
    variant_rows: &[PrevalenceRow],
) -> Vec<(Vuln, f64)> {
    default_rows
        .iter()
        .zip(variant_rows)
        .map(|(d, v)| {
            let ratio =
                if d.flagged == 0 { 0.0 } else { v.flagged as f64 / d.flagged as f64 };
            (d.vuln, ratio)
        })
        .collect()
}

/// Convenience: the contract by id.
pub fn contract(pop: &Population, id: usize) -> &CorpusContract {
    &pop.contracts[id]
}

/// Formats a wide table row.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Population size from the first CLI argument, with a default.
pub fn size_arg(default: usize) -> usize {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::PopulationConfig;

    fn small_pop() -> Population {
        Population::generate(&PopulationConfig { size: 120, seed: 9, ..Default::default() })
    }

    #[test]
    fn scan_is_deterministic() {
        let pop = small_pop();
        let a = scan_jobs(&pop.contracts, &Config::default(), 1);
        let b = scan_jobs(&pop.contracts, &Config::default(), 0);
        for (x, y) in a.reports.iter().zip(&b.reports) {
            assert_eq!(x.findings, y.findings);
        }
    }

    #[test]
    fn prevalence_counts_match_reports() {
        let pop = small_pop();
        let s = scan_jobs(&pop.contracts, &Config::default(), 1);
        let rows = prevalence(&pop, &s.reports);
        for row in rows {
            let direct =
                s.reports.iter().filter(|r| r.has(row.vuln)).count();
            assert_eq!(row.flagged, direct);
        }
    }

    #[test]
    fn sample_only_includes_sourced_flagged() {
        let pop = small_pop();
        let s = scan_jobs(&pop.contracts, &Config::default(), 1);
        let sample = sample_flagged_with_source(&pop, &s.reports, 10, 1);
        for id in sample {
            assert!(pop.contracts[id].source.is_some());
            assert!(!s.reports[id].findings.is_empty());
        }
    }

    #[test]
    fn precision_rows_bounded_by_sample() {
        let pop = small_pop();
        let s = scan_jobs(&pop.contracts, &Config::default(), 1);
        let sample = sample_flagged_with_source(&pop, &s.reports, 10, 2);
        let rows = score_sample(&pop, &s.reports, &sample);
        for (_, r) in &rows {
            assert!(r.true_positives <= r.flagged);
            assert!(r.flagged <= sample.len());
        }
    }

    #[test]
    fn ratios_are_one_for_identical_scans() {
        let pop = small_pop();
        let s = scan_jobs(&pop.contracts, &Config::default(), 1);
        let rows = prevalence(&pop, &s.reports);
        for (_, ratio) in report_ratios(&rows, &rows) {
            // Rows with zero flags report 0 by convention.
            assert!(ratio == 1.0 || ratio == 0.0);
        }
    }
}
