//! Seeded workload inputs: contracts from the corpus generator, drawn so
//! that every prefix of the input list has the generator's configured
//! family mix.
//!
//! Analysis cost differs by two orders of magnitude between contract
//! families, so a plain `corpus::stream` prefix lets the family mix —
//! and with it every throughput and latency number — wander from seed
//! to seed. Here each family of weight ≥ [`MIN_STRATUM_WEIGHT`] is its
//! own stratum, the rest share one, and position `k` of the list is
//! filled from the stratum furthest below its weight × `k`. Contracts
//! stay exactly those the seed's stream generates; only their order and
//! which of them are used change. Time-bounded runs consume a prefix, so
//! a faster or slower commit still sees the same mix.
//!
//! When the light families together weigh less than
//! [`MIN_STRATUM_WEIGHT`] (the adversarial mix), they are left out:
//! waiting for the stream to produce one would make set-up time depend
//! on the seed's luck.

use crate::load::{parallel_map, THREADS};
use corpus::{GroundTruth, PopulationConfig, Profile, Scale};
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Families lighter than this share one stratum, which is dropped when
/// it is lighter than this too.
const MIN_STRATUM_WEIGHT: f64 = 0.05;

/// One workload input: what the program receives (bytecode) plus what
/// only the benchmark sees (family, ground truth).
#[derive(Clone, Debug)]
pub struct Input {
    /// Template family the contract came from.
    pub family: &'static str,
    /// Runtime bytecode — the only thing handed to the program.
    pub bytecode: Arc<Vec<u8>>,
    /// The generator's labels, an oracle independent of the analyzer.
    pub truth: GroundTruth,
}

/// Family name → stratum index, and the strata's normalized weights.
/// Families missing from the map are not used.
fn strata(scale: Scale) -> (HashMap<&'static str, usize>, Vec<f64>) {
    let mut of_family = HashMap::new();
    let mut weights: Vec<f64> = Vec::new();
    let mut minor = 0.0;
    for (w, template) in corpus::templates::weighted_templates_scaled(Profile::default(), scale) {
        // A template's family name does not depend on the draw.
        let family = template(&mut rand::rngs::StdRng::seed_from_u64(0)).family;
        if w >= MIN_STRATUM_WEIGHT {
            of_family.insert(family, weights.len());
            weights.push(w);
        } else {
            of_family.insert(family, usize::MAX);
            minor += w;
        }
    }
    if minor >= MIN_STRATUM_WEIGHT {
        let minor_index = weights.len();
        weights.push(minor);
        of_family
            .values_mut()
            .filter(|s| **s == usize::MAX)
            .for_each(|s| *s = minor_index);
    } else {
        of_family.retain(|_, s| *s != usize::MAX);
    }
    let total: f64 = weights.iter().sum();
    (of_family, weights.into_iter().map(|w| w / total).collect())
}

/// The first `count` inputs for `seed` at `scale` that satisfy `keep`,
/// every prefix balanced to the generator's family weights.
/// Deterministic in `(scale, seed)`. `keep` runs on two threads.
pub fn generate(
    scale: Scale,
    seed: u64,
    count: usize,
    keep: impl Fn(&[u8]) -> bool + Sync,
) -> Vec<Input> {
    let (of_family, weights) = strata(scale);
    let mut stream = corpus::stream(&PopulationConfig {
        seed,
        scale,
        ..Default::default()
    });
    let mut waiting: Vec<VecDeque<Input>> = vec![VecDeque::new(); weights.len()];
    let mut taken = vec![0usize; weights.len()];
    let mut out = Vec::with_capacity(count);
    for k in 1..=count {
        let deficit = |s: usize| weights[s] * k as f64 - taken[s] as f64;
        let s = (0..weights.len())
            .reduce(|best, s| if deficit(s) > deficit(best) { s } else { best })
            .expect("at least one stratum");
        while waiting[s].is_empty() {
            let batch: Vec<_> = stream.by_ref().take(THREADS * 4).collect();
            let kept = parallel_map(batch.len(), |i| keep(&batch[i].bytecode));
            for (c, _) in batch.into_iter().zip(kept).filter(|(_, k)| *k) {
                let Some(&into) = of_family.get(c.family) else {
                    continue;
                };
                waiting[into].push_back(Input {
                    family: c.family,
                    bytecode: Arc::new(c.bytecode),
                    truth: c.truth,
                });
            }
        }
        out.extend(waiting[s].pop_front());
        taken[s] += 1;
    }
    out
}

/// Chooses `count` of `candidates` (a [`generate`] list several times
/// longer) with the family mix of its first `count`, each family's share
/// taken at evenly spaced quantiles of that family's bytecode sizes. For
/// a small set that is replayed rather than consumed (the daemon's hot
/// set), this keeps the seed from deciding the size mix.
pub fn spread_by_size(candidates: Vec<Input>, count: usize) -> Vec<Input> {
    let mut quota: HashMap<&'static str, usize> = HashMap::new();
    for c in &candidates[..count.min(candidates.len())] {
        *quota.entry(c.family).or_default() += 1;
    }
    let mut by_family: HashMap<&'static str, Vec<(usize, Input)>> = HashMap::new();
    for (i, c) in candidates.into_iter().enumerate() {
        by_family.entry(c.family).or_default().push((i, c));
    }
    let mut picked = Vec::with_capacity(count);
    for (family, mut group) in by_family {
        let q = quota.get(family).copied().unwrap_or(0);
        group.sort_by_key(|(i, c)| (c.bytecode.len(), *i));
        // q ≤ group.len(): the quota counts a prefix of the same candidates.
        let n = group.len();
        picked.extend((0..q).map(|j| group[(2 * j + 1) * n / (2 * q)].clone()));
    }
    picked.sort_by_key(|(i, _)| *i);
    picked.into_iter().map(|(_, c)| c).collect()
}

/// FNV-1a digest of the inputs' bytecodes, for checking determinism.
#[cfg(test)]
pub fn digest(inputs: &[Input]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for input in inputs {
        eat(&(input.bytecode.len() as u64).to_le_bytes());
        eat(&input.bytecode);
    }
    h
}

/// Lowercase hex of `bytes` (the daemon's wire format for bytecode).
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_prefix_follows_the_family_weights() {
        let (of_family, weights) = strata(Scale::Realistic);
        let inputs = generate(Scale::Realistic, 3, 60, |_| true);
        for k in [10, 30, 60] {
            let mut counts = vec![0usize; weights.len()];
            for input in &inputs[..k] {
                counts[of_family[input.family]] += 1;
            }
            for (s, &c) in counts.iter().enumerate() {
                let expected = weights[s] * k as f64;
                assert!(
                    (c as f64 - expected).abs() <= 1.0,
                    "k={k} stratum {s}: {c} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn a_negligible_minor_stratum_is_left_out() {
        let (of_family, weights) = strata(Scale::Adversarial);
        assert!(
            weights.iter().all(|&w| w >= MIN_STRATUM_WEIGHT),
            "{weights:?}"
        );
        assert!(!of_family.contains_key("vuln_reentrant_bank"));
        let (of_family, _) = strata(Scale::Realistic);
        assert_eq!(
            of_family["vuln_reentrant_bank"],
            of_family["vuln_txorigin_auth"]
        );
    }

    #[test]
    fn size_spread_keeps_the_family_mix_and_covers_the_sizes() {
        let candidates = generate(Scale::Realistic, 4, 90, |_| true);
        let mix = |v: &[Input]| {
            let mut m: Vec<&str> = v.iter().map(|c| c.family).collect();
            m.sort_unstable();
            m
        };
        let expected = mix(&candidates[..30]);
        let picked = spread_by_size(candidates.clone(), 30);
        assert_eq!(mix(&picked), expected);
        // Each family's picks span its size range instead of its first draws.
        let sizes = |v: &[Input], f: &str| -> Vec<usize> {
            v.iter()
                .filter(|c| c.family == f)
                .map(|c| c.bytecode.len())
                .collect()
        };
        let all = sizes(&candidates, "adv_defi_protocol");
        let got = sizes(&picked, "adv_defi_protocol");
        assert!(got.iter().all(|s| all.contains(s)));
        assert!(got.iter().max() > got.iter().min());
    }

    #[test]
    fn inputs_are_unique_contracts() {
        let inputs = generate(Scale::Realistic, 5, 40, |_| true);
        let distinct: std::collections::HashSet<&Vec<u8>> =
            inputs.iter().map(|i| i.bytecode.as_ref()).collect();
        assert_eq!(distinct.len(), inputs.len());
    }
}
