//! Per-phase wall-clock timing for the analysis pipeline.
//!
//! A zero-dependency, monotonic-clock ([`std::time::Instant`]) timing
//! layer: each pipeline stage accumulates microseconds into one field
//! of [`PhaseTimings`], which rides on
//! [`Stats`](crate::report::Stats) and on the batch driver's
//! `Status::Analyzed` JSONL records. Timings are *observability, not
//! verdicts*: `crates/store` strips them from cache entries and
//! `merged.jsonl` so deterministic outputs stay byte-comparable across
//! machines and runs (see `store::checkpoint::VerdictRecord`).

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Microseconds spent in each pipeline phase for one contract.
///
/// The seven phases cover the whole scan pipeline:
///
/// 1. `cache_lookup` — result-cache key derivation + lookup, when the
///    scan runs with a cache (0 otherwise);
/// 2. `decompile` — bytecode → TAC (context-cloning abstract
///    interpretation);
/// 3. `passes` — the IR optimization pipeline (constprop + DCE), when
///    enabled;
/// 4. `index_build` — one-time analysis indexes: def/use sites,
///    constants, `DS`/`DSA`, guard discovery, and the sparse engine's
///    edge maps;
/// 5. `fixpoint` — the mutually-recursive taint/guard-defeat fixpoint
///    (the hot path the `BENCH_fixpoint.json` trajectory tracks),
///    including provenance recording when
///    [`Config::witness`](crate::Config) is on;
/// 6. `sink_scan` — detectors, the tainted-owner sink scan, and the
///    composite-marker pass;
/// 7. `witness` — source→sink path reconstruction from the recorded
///    provenance, when witnesses are on.
///
/// The `sink_scan` phase additionally carries a three-way breakdown —
/// `detectors_us` (the per-opcode sink sweeps), `effects_us` (the
/// effect-summary and branch-region detector suite), and `composite_us`
/// (the frozen re-evaluation that computes exact composite markers) —
/// so the composite re-run can never hide inside an opaque number.
/// The breakdown fields are `Option`s that serialize as *absent* when
/// unset: zeroed (stripped) timings in cache entries and `merged.jsonl`
/// stay byte-identical to records written before the split. Invariant:
/// when stamped via [`PhaseTimings::stamp_sink_scan`],
/// `sink_scan_us == detectors_us + effects_us + composite_us`, and the
/// sub-phases are **not** added again by [`PhaseTimings::phase_sum`]
/// (they are contained in `sink_scan_us`).
///
/// `total_us` is a *derived* field: whoever finishes stamping phases
/// calls [`PhaseTimings::stamp_total`], establishing the invariant
/// `total_us == phase_sum()` that the driver tests assert.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Result-cache key + lookup, µs (0 when scanning without a cache).
    #[serde(default)]
    pub cache_lookup_us: u64,
    /// Bytecode → TAC decompilation, µs.
    #[serde(default)]
    pub decompile_us: u64,
    /// IR optimization passes, µs (0 when `optimize_ir` is off).
    #[serde(default)]
    pub passes_us: u64,
    /// Analysis index construction, µs.
    #[serde(default)]
    pub index_build_us: u64,
    /// Taint/guard-defeat fixpoint, µs.
    #[serde(default)]
    pub fixpoint_us: u64,
    /// Detectors + sink scan + composite markers, µs. When the
    /// breakdown fields below are stamped, this is exactly their sum.
    #[serde(default)]
    pub sink_scan_us: u64,
    /// Sub-phase of `sink_scan`: the per-opcode detector sweeps
    /// (selfdestruct/delegatecall/staticcall sinks + the tainted-owner
    /// scan), µs. Absent on records predating the split and on stripped
    /// (zeroed) timings, so deterministic artifacts stay byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub detectors_us: Option<u64>,
    /// Sub-phase of `sink_scan`: the effect-summary and branch-region
    /// detector suite (reentrancy, unchecked call return, tx.origin,
    /// timestamp dependence), µs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub effects_us: Option<u64>,
    /// Sub-phase of `sink_scan`: the frozen re-evaluation computing the
    /// exact composite (✰) markers, µs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub composite_us: Option<u64>,
    /// Witness path reconstruction from the recorded provenance, µs
    /// (the recording itself is part of `fixpoint_us`).
    #[serde(default)]
    pub witness_us: u64,
    /// Sum of all phases, stamped by [`PhaseTimings::stamp_total`].
    #[serde(default)]
    pub total_us: u64,
}

impl PhaseTimings {
    /// Sum of every per-phase field (everything except `total_us`).
    pub fn phase_sum(&self) -> u64 {
        self.cache_lookup_us
            + self.decompile_us
            + self.passes_us
            + self.index_build_us
            + self.fixpoint_us
            + self.sink_scan_us
            + self.witness_us
    }

    /// Re-derives `total_us` from the phases. Call after the last phase
    /// is stamped (and again if a later layer adds one, e.g. the
    /// scanner adding `cache_lookup_us`).
    pub fn stamp_total(&mut self) {
        self.total_us = self.phase_sum();
    }

    /// Stamps the sink-scan phase from its three sub-phases,
    /// establishing `sink_scan_us == detectors_us + effects_us +
    /// composite_us`.
    pub fn stamp_sink_scan(&mut self, detectors_us: u64, effects_us: u64, composite_us: u64) {
        self.detectors_us = Some(detectors_us);
        self.effects_us = Some(effects_us);
        self.composite_us = Some(composite_us);
        self.sink_scan_us = detectors_us + effects_us + composite_us;
    }

    /// The sink-scan breakdown `(detectors, effects, composite)` in µs,
    /// when stamped.
    pub fn sink_scan_breakdown(&self) -> Option<(u64, u64, u64)> {
        Some((self.detectors_us?, self.effects_us?, self.composite_us?))
    }
}

/// A running phase stopwatch over the monotonic clock.
///
/// ```
/// use ethainter::timing::{PhaseTimer, PhaseTimings};
/// let mut t = PhaseTimings::default();
/// let timer = PhaseTimer::start();
/// // ... do the work ...
/// t.fixpoint_us += timer.elapsed_us();
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PhaseTimer(Instant);

impl PhaseTimer {
    /// Starts the stopwatch.
    pub fn start() -> PhaseTimer {
        PhaseTimer(Instant::now())
    }

    /// Microseconds since [`PhaseTimer::start`] (saturating).
    pub fn elapsed_us(&self) -> u64 {
        self.0.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_total_establishes_the_phase_sum_invariant() {
        let mut t = PhaseTimings {
            cache_lookup_us: 1,
            decompile_us: 2,
            passes_us: 3,
            index_build_us: 4,
            fixpoint_us: 5,
            sink_scan_us: 6,
            witness_us: 7,
            total_us: 0,
            ..Default::default()
        };
        assert_eq!(t.phase_sum(), 28);
        t.stamp_total();
        assert_eq!(t.total_us, t.phase_sum());
        // Re-stamping after a later layer adds a phase keeps it true.
        t.cache_lookup_us += 100;
        t.stamp_total();
        assert_eq!(t.total_us, 128);
    }

    #[test]
    fn timer_is_monotone() {
        let timer = PhaseTimer::start();
        let a = timer.elapsed_us();
        let b = timer.elapsed_us();
        assert!(b >= a);
    }

    #[test]
    fn default_serializes_and_round_trips() {
        let t = PhaseTimings { fixpoint_us: 42, ..Default::default() };
        let json = serde_json::to_string(&t).unwrap();
        let back: PhaseTimings = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn stamp_sink_scan_sets_the_sum_and_the_breakdown() {
        let mut t = PhaseTimings::default();
        t.stamp_sink_scan(10, 20, 30);
        assert_eq!(t.sink_scan_us, 60);
        assert_eq!(t.sink_scan_breakdown(), Some((10, 20, 30)));
        t.stamp_total();
        // The sub-phases are contained in sink_scan_us, never
        // double-counted by the phase sum.
        assert_eq!(t.total_us, 60);
    }

    #[test]
    fn unset_breakdown_serializes_as_absent_for_byte_identity() {
        // Stripped (default) timings must serialize exactly as they did
        // before the sub-phase split: deterministic artifacts (cache
        // entries, merged.jsonl) embed this zeroed struct verbatim.
        let json = serde_json::to_string(&PhaseTimings::default()).unwrap();
        assert!(!json.contains("detectors_us"), "{json}");
        assert!(!json.contains("effects_us"), "{json}");
        assert!(!json.contains("composite_us"), "{json}");
        assert!(json.contains("\"sink_scan_us\":0"), "{json}");
        // Pre-split records (no breakdown fields) still deserialize.
        let back: PhaseTimings = serde_json::from_str(&json).unwrap();
        assert_eq!(back, PhaseTimings::default());
        // Stamped breakdowns round-trip.
        let mut t = PhaseTimings::default();
        t.stamp_sink_scan(1, 2, 3);
        let full = serde_json::to_string(&t).unwrap();
        assert!(full.contains("\"detectors_us\":1"), "{full}");
        let back: PhaseTimings = serde_json::from_str(&full).unwrap();
        assert_eq!(back, t);
    }
}
