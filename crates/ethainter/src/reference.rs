//! The reference oracle: the whole analysis with the naive dense
//! fixpoint in place of the production sparse engine.
//!
//! Not part of the supported API. The differential suites compare the
//! production [`analyze`](crate::analyze) against [`analyze`] here:
//! the two engines differ only in scheduling, so findings, fact counts
//! and defeated guards must agree on every program. `rounds` is an
//! engine-specific effort statistic and may differ. The oracle records
//! no provenance, so its reports never carry witnesses.

use crate::analysis::Fixpoint;
use crate::artifacts::{AnalysisArtifacts, Inner};
use crate::engine::dense;
use crate::{Config, Report};

/// The dense fixpoint; it has no recorder, so provenance is ignored.
const DENSE: Fixpoint = |cfg, inner: &Inner<'_>, st, _prov| dense::run(cfg, &inner.prep, st);

/// Runs the analysis with the dense engine for both the main and the
/// frozen composite-marker fixpoint. `cfg.witness` is ignored.
pub fn analyze(p: &decompiler::Program, cfg: &Config) -> Report {
    let cfg = Config { witness: false, ..*cfg };
    AnalysisArtifacts::build(p, &cfg).evaluate_with(&cfg, DENSE)
}
