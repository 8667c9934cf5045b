//! Reusable per-program analysis artifacts — build once, evaluate many.
//!
//! [`analyze`](crate::analyze) used to be monolithic: every call paid
//! guard discovery, dominators, constant propagation, `DS`/`DSA`, the
//! slot interner, the sparse engine's edge maps, and the detector
//! summaries — even the *composite-marker* pass, which recursively
//! re-analyzed the very same program under
//! [`Config::freeze_guards`](crate::Config) just to see which findings
//! survive single-transaction reasoning. At realistic scale that
//! recursion made the sink scan the dominant phase by 20×.
//!
//! This module splits the pipeline at its natural seam:
//!
//! - **Build** ([`AnalysisArtifacts::build`]) — everything derived from
//!   the program alone: the `Prepared` structures (guards, dominators,
//!   live blocks, interned slots, key classes, per-opcode sink buckets,
//!   guard slots), the sparse engine's indexes, and lazily-memoized
//!   detector summaries (storage write summaries, effect/ordering
//!   summaries, branch regions). None of it depends on
//!   `freeze_guards`/`storage_taint`/`witness`, so one build serves both
//!   the main evaluation and the frozen composite re-run.
//! - **Evaluate** ([`AnalysisArtifacts::evaluate`], implemented in
//!   [`analysis`](crate::analysis)) — the mutually-recursive fixpoint
//!   plus the detector sweeps, borrowing the artifacts immutably. The
//!   composite pass is now a second *evaluation* over the same
//!   artifacts: zero index rebuilds, zero re-summarization (proved by
//!   the `ethainter_prepared_builds_total` /
//!   `ethainter_sparse_index_builds_total` telemetry counters).
//!
//! The memoized summaries use [`std::cell::OnceCell`]: computed on
//! first use — never at all for contracts that don't need them (most
//! contracts have no external calls, so the effect summary never runs) —
//! and shared by every evaluation thereafter.

use crate::config::Config;
use crate::engine::indexes::SparseIndexes;
use crate::engine::{CondRegion, Ctx, Prepared};
use decompiler::passes::{constprop, effects, storage};
use decompiler::{BlockId, DefUse, Dominators, Op, Program, StmtId, Var};
use evm::U256;
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};

/// Every program-derived structure the analysis needs, built exactly
/// once and reusable across evaluations (main run, frozen composite
/// re-run, future incremental re-queries).
///
/// Built by [`AnalysisArtifacts::build`]; consumed by
/// [`AnalysisArtifacts::evaluate`]. [`analyze`](crate::analyze) is now
/// literally `AnalysisArtifacts::build(p, cfg).evaluate(cfg)`.
///
/// The artifacts are valid for any [`Config`] that agrees with the
/// build-time config on the two switches the build phase consumes —
/// `guard_modeling` (guard discovery) and `range_guards` (interval
/// branch pruning). In particular the frozen composite config (which
/// flips only `freeze_guards`, `storage_taint`, and `witness`) is
/// always compatible; `evaluate` asserts this.
pub struct AnalysisArtifacts<'a> {
    pub(crate) p: &'a Program,
    /// `None` for incomplete or empty programs — `evaluate` returns an
    /// empty report (with `decompile_failed` set for an incomplete one).
    pub(crate) inner: Option<Inner<'a>>,
}

/// The artifacts proper (absent for incomplete/empty programs).
pub(crate) struct Inner<'a> {
    /// One-time engine structures (guards, dominators, interned slots,
    /// key classes, sink buckets, guard slots…).
    pub(crate) prep: Prepared<'a>,
    /// The config the build phase ran under — `evaluate` checks the
    /// build-relevant switches against its own config.
    pub(crate) built_for: Config,
    /// Wall-clock µs of the build phase, stamped into
    /// `timings.index_build_us` by the first evaluation.
    pub(crate) build_us: u64,
    /// The sparse engine's worklist indexes.
    pub(crate) sparse: SparseIndexes,
    /// Per-function storage write summaries (tainted-owner pre-filter).
    storage_summaries: OnceCell<Vec<storage::FunctionStorage>>,
    /// Interprocedural effect/ordering summary (detector suite v2).
    effects: OnceCell<effects::EffectSummary>,
    /// Checks-effects-interactions violations derived from `effects`.
    reordered: OnceCell<Vec<effects::ReorderedWrite>>,
    /// All edge-dominant branch regions (origin/time detectors).
    cond_regions: OnceCell<Vec<CondRegion>>,
}

impl<'a> AnalysisArtifacts<'a> {
    /// Builds every program-derived artifact: dominators, interval
    /// branch pruning, constants, `DS`/`DSA`, guards, memory def-use,
    /// the `Prepared` assembly, and the sparse engine's worklist
    /// indexes. Nothing here depends on
    /// `freeze_guards`/`storage_taint`/`witness`.
    pub fn build(p: &'a Program, cfg: &Config) -> AnalysisArtifacts<'a> {
        if p.incomplete || p.blocks.is_empty() {
            return AnalysisArtifacts { p, inner: None };
        }
        let sp_index = telemetry::span("ethainter.index_build");

        let dom = Dominators::compute(p);
        // The one def-use index of the optimized program: interval
        // analysis reads it here, then it moves into `Ctx` for the
        // constants, `DS`/`DSA`, guards, the worklist engine and the
        // storage and effect summaries.
        let du = DefUse::build(p);

        // Range-proven branch pruning: interval analysis proves some
        // JumpI edges never taken; blocks only reachable through dead
        // edges can never execute, so they are not attacker-reachable.
        // This monotonically refines ReachableByAttacker (strictly fewer
        // findings behind statically-decided branches).
        let (live_block, n_dead_edges) = if cfg.range_guards {
            let iv = decompiler::passes::intervals::analyze(p, &du);
            let dead: HashSet<(u32, usize)> =
                iv.dead_edges.iter().map(|&(b, i)| (b.0, i)).collect();
            let mut live = vec![false; p.blocks.len()];
            let mut stack = vec![BlockId(0)];
            while let Some(b) = stack.pop() {
                let bi = b.0 as usize;
                if live[bi] {
                    continue;
                }
                live[bi] = true;
                for (i, &s) in p.blocks[bi].succs.iter().enumerate() {
                    if !dead.contains(&(b.0, i)) {
                        stack.push(s);
                    }
                }
            }
            (live, dead.len())
        } else {
            (vec![true; p.blocks.len()], 0)
        };

        let mut ctx = Ctx {
            p,
            consts: constprop::constants(p, &du),
            du,
            ds: vec![false; p.n_vars as usize],
            dsa: vec![false; p.n_vars as usize],
            saddr_cache: HashMap::new(),
        };
        ctx.compute_ds();

        // Guards (StaticallyGuardedStatement).
        let guards = if cfg.guard_modeling { ctx.find_guards(&dom) } else { Vec::new() };

        // Memory def-use: const offset → (store stmts, value vars).
        let mut mem_stores: HashMap<U256, Vec<(StmtId, Var)>> = HashMap::new();
        for s in p.iter_stmts() {
            if s.op == Op::MStore {
                if let Some(off) = ctx.consts[s.uses[0].0 as usize] {
                    mem_stores.entry(off).or_default().push((s.id, s.uses[1]));
                }
            }
        }

        // Intern the slot universe and resolve per-statement key
        // classifications once; every evaluation then runs atom-indexed.
        let prep = Prepared::build(ctx, guards, dom, live_block, n_dead_edges, mem_stores);
        let sparse = SparseIndexes::build(&prep);
        let inner = Inner {
            prep,
            built_for: *cfg,
            build_us: sp_index.finish_us(),
            sparse,
            storage_summaries: OnceCell::new(),
            effects: OnceCell::new(),
            reordered: OnceCell::new(),
            cond_regions: OnceCell::new(),
        };
        AnalysisArtifacts { p, inner: Some(inner) }
    }
}

impl Inner<'_> {
    /// Per-function storage write summaries, computed at most once per
    /// program (the tainted-owner pre-filter consults them on every
    /// evaluation).
    pub(crate) fn storage_summaries(&self) -> &[storage::FunctionStorage] {
        self.storage_summaries.get_or_init(|| {
            telemetry::metrics::counter("ethainter_storage_summarize_total").inc();
            storage::summarize(self.prep.ctx.p, &self.prep.ctx.du)
        })
    }

    /// The interprocedural effect/ordering summary, computed at most
    /// once per program (only ever for contracts with external calls).
    pub(crate) fn effect_summary(&self) -> &effects::EffectSummary {
        self.effects.get_or_init(|| {
            telemetry::metrics::counter("ethainter_effects_summarize_total").inc();
            effects::summarize(self.prep.ctx.p, &self.prep.ctx.du)
        })
    }

    /// Checks-effects-interactions violations, derived once from the
    /// effect summary and dominators.
    pub(crate) fn reordered_writes(&self) -> &[effects::ReorderedWrite] {
        self.reordered.get_or_init(|| {
            effects::reordered_writes(self.prep.ctx.p, &self.prep.dom, self.effect_summary())
        })
    }

    /// All edge-dominant branch regions, computed at most once per
    /// program (only ever when origin/time taint exists).
    pub(crate) fn cond_regions(&self) -> &[CondRegion] {
        self.cond_regions.get_or_init(|| {
            telemetry::metrics::counter("ethainter_cond_regions_builds_total").inc();
            self.prep.ctx.cond_regions(&self.prep.dom)
        })
    }
}
