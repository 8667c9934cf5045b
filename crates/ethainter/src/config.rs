//! Analysis configuration — including the §6.4 ablation switches.

use serde::{Deserialize, Serialize};

/// How statically-unresolved storage addresses are treated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum StorageModel {
    /// The paper's default: only constant slots and recognized
    /// data-structure addresses participate; unknown addresses are
    /// ignored except for the `StorageWrite-2` rule (tainted value *and*
    /// tainted address taints every known slot). Favors precision (§4.4).
    #[default]
    Precise,
    /// Figure 8c: any store to an unknown location may reach any
    /// location, and loads from unknown locations are tainted whenever
    /// any tainted unknown store exists. Favors completeness, hurts
    /// precision.
    Conservative,
}

/// Analysis switches. The defaults reproduce the paper's main
/// configuration; the ablations of Figure 8 flip one switch each.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Config {
    /// Model guards (Figure 8b ablation sets this to `false`:
    /// every statement becomes attacker-reachable).
    pub guard_modeling: bool,
    /// Allow taint to propagate through persistent storage — and hence
    /// across transactions (Figure 8a ablation sets this to `false`).
    pub storage_taint: bool,
    /// Storage address modeling (Figure 8c ablation).
    pub storage_model: StorageModel,
    /// Internal: forbid guard defeat (guards stay effective even when
    /// tainted). Used to compute exact per-finding composite markers —
    /// a finding is *composite* iff it vanishes under this restriction.
    #[serde(default)]
    pub freeze_guards: bool,
    /// Run the IR optimization pipeline (constant propagation + dead
    /// code elimination) on the decompiled program before analysis.
    /// Verdict-preserving by construction; `false` is the ablation /
    /// differential-testing switch.
    pub optimize_ir: bool,
    /// Use interval-analysis branch pruning: blocks only reachable
    /// through `JumpI` edges proven dead are not attacker-reachable.
    /// Refines `ReachableByAttacker` monotonically (strictly fewer
    /// false positives behind statically-decided branches).
    pub range_guards: bool,
    /// Record taint provenance during the fixpoint and attach a
    /// source→sink [`Witness`](crate::witness::Witness) to every
    /// finding. The production engine records each fact's first
    /// derivation as it derives it, so the explanation comes from the
    /// same evaluation as the verdict; off by default. **Excluded from
    /// [`Config::fingerprint`]**: witnesses are derived observability
    /// riding on the verdicts, never changing findings, fact counts, or
    /// rounds — and the store strips them from cache entries and
    /// `merged.jsonl`, so a cache populated without witnesses stays warm
    /// when they are turned on.
    #[serde(default)]
    pub witness: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            guard_modeling: true,
            storage_taint: true,
            storage_model: StorageModel::Precise,
            freeze_guards: false,
            optimize_ir: true,
            range_guards: true,
            witness: false,
        }
    }
}

/// Version tag for the canonical [`Config::fingerprint`] encoding. Bump
/// whenever a field is added, removed, or its meaning changes, so stale
/// cache entries keyed on the old encoding can never be mistaken for
/// results of the new analysis.
const FINGERPRINT_DOMAIN: &str = "ethainter-config-v1";

impl Config {
    /// Stable 256-bit fingerprint of the *effective* analysis
    /// configuration — the config half of `crates/store`'s
    /// content-addressed cache key.
    ///
    /// The fingerprint is the Keccak-256 of a canonical textual encoding
    /// that names every field explicitly (`guard_modeling=true;…`), so:
    ///
    /// - equal configs always fingerprint equally, across processes and
    ///   runs (no dependence on struct layout or hasher seeds);
    /// - flipping any single switch — including the ablations and the
    ///   IR-pass toggles — produces a different fingerprint;
    /// - adding a field later forces a new encoding (the field list is
    ///   spelled out here), and the `ethainter-config-v1` domain tag
    ///   versions the scheme itself.
    ///
    /// [`Config::witness`] is deliberately **not** part of the
    /// fingerprint. The fingerprint's contract is "equal fingerprints ⇒
    /// equal verdicts", and `witness` only adds derived observability
    /// (stripped from cache entries anyway) that can never change a
    /// verdict. A change to the analysis that changes verdicts must be
    /// a new analyzer version ([`crate::ANALYZER_VERSION`] bump), not a
    /// fingerprint field.
    pub fn fingerprint(&self) -> [u8; 32] {
        let canonical = format!(
            "{FINGERPRINT_DOMAIN};guard_modeling={};storage_taint={};storage_model={};\
             freeze_guards={};optimize_ir={};range_guards={}",
            self.guard_modeling,
            self.storage_taint,
            match self.storage_model {
                StorageModel::Precise => "precise",
                StorageModel::Conservative => "conservative",
            },
            self.freeze_guards,
            self.optimize_ir,
            self.range_guards,
        );
        evm::keccak256(canonical.as_bytes())
    }

    /// [`Config::fingerprint`] as lowercase hex (manifest / display form).
    pub fn fingerprint_hex(&self) -> String {
        self.fingerprint().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Figure 8a: no storage modeling (completeness ablation).
    pub fn no_storage_taint() -> Self {
        Config { storage_taint: false, ..Config::default() }
    }

    /// Figure 8b: no guard modeling (precision ablation).
    pub fn no_guard_model() -> Self {
        Config { guard_modeling: false, ..Config::default() }
    }

    /// Figure 8c: conservative storage modeling (precision ablation).
    pub fn conservative_storage() -> Self {
        Config { storage_model: StorageModel::Conservative, ..Config::default() }
    }

    /// IR passes off: raw decompiler output, no branch pruning — the
    /// baseline side of the pass-pipeline differential test.
    pub fn no_passes() -> Self {
        Config { optimize_ir: false, range_guards: false, ..Config::default() }
    }
}
