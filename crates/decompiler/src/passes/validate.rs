//! IR well-formedness validator ("lint") for TAC programs.
//!
//! Checks the structural invariants every downstream consumer assumes:
//! dense consistent ids, block/statement backlinks, successor/predecessor
//! symmetry, exactly one trailing terminator per block, def-before-use
//! (every use is an own-block parameter or an earlier local definition —
//! strict, because the builder routes all cross-block values through
//! block parameters), unique definition sites, and dispatcher
//! reachability of every discovered public function.
//!
//! The validator only makes sense for *complete* decompilations: budget
//! cutoffs and stack underflows legitimately leave blocks unterminated.
//! [`decompile_with_limits`](crate::builder::decompile_with_limits)
//! asserts emptiness under `debug_assertions` for clean programs only;
//! the CLI `lint` subcommand reports whatever it finds. In production
//! the lint runs in one place: `ethainter::analyze_bytecode` validates
//! every complete program's raw output before the passes (an incomplete
//! one is a decompile failure and is never linted), and the violations
//! ride on `Report::lint` into the batch and daemon records.

use crate::tac::{BlockId, Op, Program};
use evm::opcode::Opcode;

/// True when the op ends a block (nothing may follow it).
fn is_terminator(op: &Op) -> bool {
    matches!(
        op,
        Op::Jump
            | Op::JumpI
            | Op::Return
            | Op::Revert
            | Op::Stop
            | Op::SelfDestruct
            | Op::Other(Opcode::Invalid)
            | Op::Other(Opcode::Unknown(_))
    )
}

/// Validates `p`, returning one human-readable message per violation
/// (empty = well-formed).
pub fn validate(p: &Program) -> Vec<String> {
    let mut bad = Vec::new();
    let n_blocks = p.blocks.len();
    let n_stmts = p.stmts.len();

    // --- id density and backlinks -----------------------------------
    for (i, s) in p.stmts.iter().enumerate() {
        if s.id.0 as usize != i {
            bad.push(format!("stmt at index {i} carries id {}", s.id));
        }
        if s.block.0 as usize >= n_blocks {
            bad.push(format!("{}: block backlink {} out of range", s.id, s.block));
        }
        if let Some(d) = s.def {
            if d.0 >= p.n_vars {
                bad.push(format!("{}: def {} ≥ n_vars {}", s.id, d, p.n_vars));
            }
        }
        for &u in &s.uses {
            if u.0 >= p.n_vars {
                bad.push(format!("{}: use {} ≥ n_vars {}", s.id, u, p.n_vars));
            }
        }
    }

    // --- each statement in exactly one block, at a consistent spot ---
    let mut owner = vec![usize::MAX; n_stmts];
    for (bi, block) in p.blocks.iter().enumerate() {
        for &sid in &block.stmts {
            let si = sid.0 as usize;
            if si >= n_stmts {
                bad.push(format!("B{bi}: statement id {sid} out of range"));
                continue;
            }
            if owner[si] != usize::MAX {
                bad.push(format!("{sid} listed by both B{} and B{bi}", owner[si]));
            }
            owner[si] = bi;
            if p.stmts[si].block.0 as usize != bi {
                bad.push(format!(
                    "{sid} listed in B{bi} but backlinks {}",
                    p.stmts[si].block
                ));
            }
        }
    }
    for (si, &o) in owner.iter().enumerate() {
        if o == usize::MAX {
            bad.push(format!("s{si} belongs to no block"));
        }
    }

    // --- CFG edge symmetry and range --------------------------------
    for (bi, block) in p.blocks.iter().enumerate() {
        for &s in &block.succs {
            if s.0 as usize >= n_blocks {
                bad.push(format!("B{bi}: successor {s} out of range"));
                continue;
            }
            let back = p.blocks[s.0 as usize]
                .preds
                .iter()
                .filter(|&&x| x.0 as usize == bi)
                .count();
            let fwd = block.succs.iter().filter(|&&x| x == s).count();
            if back != fwd {
                bad.push(format!(
                    "edge B{bi}→{s}: {fwd} successor entries vs {back} predecessor entries"
                ));
            }
        }
        for &pr in &block.preds {
            if pr.0 as usize >= n_blocks {
                bad.push(format!("B{bi}: predecessor {pr} out of range"));
            } else if !p.blocks[pr.0 as usize].succs.contains(&BlockId(bi as u32)) {
                bad.push(format!("B{bi}: predecessor {pr} lacks the forward edge"));
            }
        }
    }

    // --- exactly one terminator, trailing ---------------------------
    // Out-of-range ids were reported above; skip them here so the
    // validator stays total on arbitrarily broken inputs.
    for (bi, block) in p.blocks.iter().enumerate() {
        match block.stmts.last() {
            None => bad.push(format!("B{bi} is empty (no terminator)")),
            Some(&last) => {
                if let Some(s) = p.stmts.get(last.0 as usize) {
                    if !is_terminator(&s.op) {
                        bad.push(format!("B{bi} ends in non-terminator {:?}", s.op));
                    }
                }
            }
        }
        for &sid in block.stmts.iter().rev().skip(1) {
            let Some(s) = p.stmts.get(sid.0 as usize) else { continue };
            if is_terminator(&s.op) {
                bad.push(format!("B{bi}: terminator {:?} at {sid} is not last", s.op));
            }
        }
    }

    // --- definition sites --------------------------------------------
    // Params may have one defining Copy per incoming edge; every other
    // variable has exactly one def (or none, if it's never defined and
    // never used — impossible for used vars, checked below).
    let mut param_block = vec![None::<usize>; p.n_vars as usize];
    for (bi, block) in p.blocks.iter().enumerate() {
        for &v in &block.params {
            if v.0 >= p.n_vars {
                bad.push(format!("B{bi}: param {v} ≥ n_vars"));
                continue;
            }
            if let Some(other) = param_block[v.0 as usize] {
                bad.push(format!("{v} is a param of both B{other} and B{bi}"));
            }
            param_block[v.0 as usize] = Some(bi);
        }
    }
    let mut def_count = vec![0u32; p.n_vars as usize];
    for s in p.iter_stmts() {
        if let Some(d) = s.def {
            if d.0 >= p.n_vars {
                continue; // already reported
            }
            def_count[d.0 as usize] += 1;
            if let Some(pb) = param_block[d.0 as usize] {
                if s.op != Op::Copy {
                    bad.push(format!("{}: param {d} defined by non-Copy {:?}", s.id, s.op));
                } else if !p.blocks[pb].preds.contains(&s.block) {
                    bad.push(format!(
                        "{}: param {d} of B{pb} bound in {} which is not a predecessor",
                        s.id, s.block
                    ));
                }
            }
        }
    }
    for (v, &c) in def_count.iter().enumerate() {
        if param_block[v].is_none() && c > 1 {
            bad.push(format!("v{v} has {c} definition sites"));
        }
    }

    // --- def-before-use ----------------------------------------------
    // The builder routes every cross-block value through a block param,
    // so a use must be the block's own param or an earlier local def.
    let mut local_defined = vec![u32::MAX; p.n_vars as usize];
    for (bi, block) in p.blocks.iter().enumerate() {
        let stamp = bi as u32;
        for &v in &block.params {
            if v.0 < p.n_vars {
                local_defined[v.0 as usize] = stamp;
            }
        }
        for &sid in &block.stmts {
            let Some(s) = p.stmts.get(sid.0 as usize) else { continue };
            for &u in &s.uses {
                if u.0 < p.n_vars && local_defined[u.0 as usize] != stamp {
                    // Param-binding copies read the *predecessor's*
                    // values, which is this block by construction; the
                    // outlier is a use of something never visible here.
                    bad.push(format!("{sid} in B{bi}: use of {u} before any local def"));
                }
            }
            if let Some(d) = s.def {
                if d.0 < p.n_vars && param_block[d.0 as usize].is_none() {
                    local_defined[d.0 as usize] = stamp;
                }
            }
        }
    }

    // --- dispatcher reachability of public functions -----------------
    if !p.blocks.is_empty() {
        let mut reach = vec![false; n_blocks];
        let mut stack = vec![BlockId(0)];
        while let Some(b) = stack.pop() {
            let bi = b.0 as usize;
            if bi >= n_blocks || reach[bi] {
                continue;
            }
            reach[bi] = true;
            for &s in &p.blocks[bi].succs {
                stack.push(s);
            }
        }
        for f in &p.functions {
            let e = f.entry.0 as usize;
            if e >= n_blocks {
                bad.push(format!("function {:#010x}: entry {} out of range", f.selector, f.entry));
            } else if !reach[e] {
                bad.push(format!(
                    "function {:#010x}: entry {} unreachable from the dispatcher",
                    f.selector, f.entry
                ));
            }
        }
    }

    bad
}
