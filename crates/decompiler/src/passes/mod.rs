//! Static-analysis passes over the TAC program.
//!
//! The pass pipeline sits between decompilation and the Ethainter
//! Datalog-style fixpoint: it shrinks and sharpens the IR so the
//! (quadratic-ish) taint/guard analysis sees fewer statements and more
//! constants. The module tree:
//!
//! * [`constprop`] — cross-block constant propagation with a full EVM
//!   fold table, as a def-use worklist; rewrites provably-constant
//!   computations to `Const`.
//! * [`dce`] — mark-sweep dead-code elimination from the effectful
//!   statements (pure defs nobody needs, unused block parameters).
//! * [`intervals`] — unsigned value-range analysis; proves `JumpI`
//!   edges dead so the analysis can prune unreachable guard regions.
//! * [`storage`] — per-public-function storage read/write summaries for
//!   the detectors' sink inference.
//! * [`effects`] — interprocedural effect/ordering summaries (external
//!   call sites vs. storage-write sites ordered via the dominator
//!   tree), the substrate of the detector suite v2 sink scans.
//! * [`validate`] — the IR well-formedness linter, run at the end of
//!   every debug-build decompilation, by `ethainter lint`, and once per
//!   complete contract by the analyzer's front end
//!   (`ethainter::analyze_bytecode`, on the raw output before the
//!   passes; violations land in `Report::lint`).
//!
//! Entry point: [`optimize`] builds one [`DefUse`] index, runs constprop
//! and then DCE over it once each, and reports [`PassStats`]; the
//! analysis passes ([`intervals::analyze`] and [`storage::summarize`]
//! over a caller-built [`DefUse`], and [`validate::validate`]) are pure
//! queries callers invoke directly.

pub mod constprop;
pub mod dce;
pub mod effects;
pub mod intervals;
pub mod storage;
pub mod validate;

use crate::defuse::DefUse;
use crate::tac::Program;

/// Configuration of [`optimize`]. It has no knobs: the pipeline always
/// runs constant propagation and dead-code elimination.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassConfig {}

/// What the optimization pipeline did to a program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Statement count before any pass ran.
    pub stmts_before: usize,
    /// Statement count after the pipeline.
    pub stmts_after: usize,
    /// Statements rewritten to `Const` by constant propagation.
    pub folded: usize,
    /// Statements deleted by dead-code elimination.
    pub removed: usize,
}

impl PassStats {
    /// Fraction of statements eliminated, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.stmts_before == 0 {
            0.0
        } else {
            1.0 - self.stmts_after as f64 / self.stmts_before as f64
        }
    }
}

/// Folds constants, then deletes dead code, once each. One round is the
/// fixpoint: DCE only drops a block parameter together with all of its
/// bindings, so it never changes the definitions of a variable that
/// survives, and a second constprop would find nothing new.
///
/// Incomplete programs (budget cutoffs) are left untouched — their IR
/// legitimately violates the invariants DCE relies on.
pub fn optimize(p: &mut Program, _cfg: &PassConfig) -> PassStats {
    let mut stats = PassStats { stmts_before: p.len(), stmts_after: p.len(), ..Default::default() };
    if p.incomplete {
        return stats;
    }
    let du = DefUse::build(p);
    stats.folded = constprop::propagate(p, &du);
    stats.removed = dce::eliminate_dead_code(p, &du);
    stats.stmts_after = p.len();
    stats
}
