//! Mark-sweep dead-code elimination.
//!
//! Marking starts from the statements whose effect the analysis observes
//! ([`is_pure`] is false) and follows operands to their definitions
//! through the [`DefUse`] def sites: marking a use of a variable marks
//! every def of it, so a block parameter read by a live statement keeps
//! all of its predecessor-side binding `Copy`s. Everything left unmarked
//! is swept in one [`compact`], and block parameters no live statement
//! reads are dropped with their bindings. A dead cycle — a loop counter
//! that only feeds its own next value — has no root and goes too.
//!
//! The CFG itself (blocks, successors, predecessors) is never touched,
//! so every control-flow fact the analysis derives is unchanged.

use crate::defuse::DefUse;
use crate::tac::{Op, Program, Stmt, StmtId};

/// True when deleting the statement cannot change any behaviour the
/// downstream analysis observes: no storage/memory/log/control effect,
/// and no detector keys off the statement's mere presence.
pub fn is_pure(op: &Op) -> bool {
    match op {
        Op::Const(_)
        | Op::Copy
        | Op::Bin(_)
        | Op::Un(_)
        | Op::CallDataLoad
        | Op::Sha3
        | Op::Hash2
        | Op::SLoad
        | Op::MLoad => true,
        // RETURNDATASIZE's presence is the "return value checked" marker
        // for the unchecked-staticcall detector — deleting an unused one
        // would flip that verdict, so it stays.
        Op::Env(o) => *o != evm::opcode::Opcode::ReturnDataSize,
        Op::SStore
        | Op::MStore
        | Op::Call { .. }
        | Op::SelfDestruct
        | Op::Jump
        | Op::JumpI
        | Op::Return
        | Op::Revert
        | Op::Stop
        | Op::Log(_)
        | Op::CallDataCopy
        | Op::Other(_) => false,
    }
}

/// Deletes every statement no effectful statement transitively reads,
/// and every block parameter no surviving statement reads. Returns the
/// number of statements removed. `du`'s def sites must match `p`'s
/// statements (its use sites may be stale: operands are read from the
/// statements themselves). Statement ids are renumbered densely
/// afterwards; pcs and the CFG are preserved.
pub fn eliminate_dead_code(p: &mut Program, du: &DefUse) -> usize {
    let mut live = vec![false; p.stmts.len()];
    // Variables read by a live statement.
    let mut read = vec![false; p.n_vars as usize];
    let mut work: Vec<StmtId> = p.stmts.iter().filter(|s| !is_pure(&s.op)).map(|s| s.id).collect();
    for &s in &work {
        live[s.0 as usize] = true;
    }
    while let Some(s) = work.pop() {
        for &u in &p.stmts[s.0 as usize].uses {
            if std::mem::replace(&mut read[u.0 as usize], true) {
                continue;
            }
            for &d in du.defs(u) {
                if !std::mem::replace(&mut live[d.0 as usize], true) {
                    work.push(d);
                }
            }
        }
    }

    // An unread parameter's binding Copys were never marked.
    for block in &mut p.blocks {
        block.params.retain(|v| read[v.0 as usize]);
    }
    let before = p.stmts.len();
    compact(p, &live);
    before - p.stmts.len()
}

/// Rebuilds `p.stmts` with only the statements marked `keep`,
/// renumbering ids densely and rewriting each block's statement list.
pub fn compact(p: &mut Program, keep: &[bool]) {
    let mut remap: Vec<Option<StmtId>> = vec![None; p.stmts.len()];
    let mut kept: Vec<Stmt> = Vec::with_capacity(p.stmts.len());
    for (i, mut s) in p.stmts.drain(..).enumerate() {
        if keep[i] {
            let new_id = StmtId(kept.len() as u32);
            remap[i] = Some(new_id);
            s.id = new_id;
            kept.push(s);
        }
    }
    p.stmts = kept;
    for block in &mut p.blocks {
        block.stmts = block.stmts.iter().filter_map(|sid| remap[sid.0 as usize]).collect();
    }
}
