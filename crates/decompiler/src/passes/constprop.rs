//! Def-use worklist constant propagation over the TAC program.
//!
//! The builder already folds constants it can see on the abstract stack;
//! this pass catches what survives block boundaries: values that become
//! constant only once block parameters are considered (every predecessor
//! binds the same constant) and operators the builder's fold table skips
//! (`MOD`, `SDIV`, `SLT`, `BYTE`, `SAR`, …). A statement whose operands
//! are all transitively constant is rewritten in place to `Op::Const`,
//! leaving its operand uses to die in the dead-code sweep that follows.
//!
//! The fixpoint is pessimistic, not SCCP: a variable is constant only
//! when every one of its definitions evaluates to the same constant, and
//! a definition reading a not-yet-known operand counts as unknown. A
//! variable is re-examined only when one of its operands resolves (the
//! [`DefUse`] use sites of the resolved variable), so every variable is
//! visited once plus once per resolved operand.
//!
//! Verdict safety: taint sources (`CALLDATALOAD`, `CALLER`, `SLOAD`, …)
//! never produce constants, so any value this pass folds is provably
//! untainted — rewriting it to `Const` cannot erase a taint fact the
//! downstream analysis would have derived.

use crate::defuse::DefUse;
use crate::tac::{Op, Program, Var};
use evm::opcode::Opcode;
use evm::U256;

/// The per-variable constant value, if the variable is provably the same
/// constant on every path (`None` = unknown / not constant). `du` must
/// index `p`'s current statements.
pub fn constants(p: &Program, du: &DefUse) -> Vec<Option<U256>> {
    let n = p.n_vars as usize;
    let mut consts: Vec<Option<U256>> = vec![None; n];
    // Seeded with every defined variable, lowest first (operands are
    // mostly numbered before their users); a variable goes back on the
    // list when an operand of one of its definitions resolves. Each
    // variable resolves once, so the list sees at most one entry per
    // variable plus one per use site.
    let mut work: Vec<Var> =
        (0..n as u32).rev().map(Var).filter(|&v| !du.defs(v).is_empty()).collect();
    while let Some(v) = work.pop() {
        if consts[v.0 as usize].is_some() {
            continue;
        }
        let Some(c) = agreed(p, du, v, &consts) else { continue };
        consts[v.0 as usize] = Some(c);
        for &s in du.uses(v) {
            work.extend(p.stmt(s).def.filter(|d| consts[d.0 as usize].is_none()));
        }
    }
    consts
}

/// The constant every definition of `v` evaluates to, if they all
/// evaluate and agree.
fn agreed(p: &Program, du: &DefUse, v: Var, consts: &[Option<U256>]) -> Option<U256> {
    let mut val: Option<U256> = None;
    for &d in du.defs(v) {
        let s = p.stmt(d);
        let this = eval(&s.op, &s.uses, consts)?;
        if val.is_some_and(|known| known != this) {
            return None;
        }
        val = Some(this);
    }
    val
}

/// Evaluates a statement's op over known operand constants.
fn eval(op: &Op, uses: &[Var], consts: &[Option<U256>]) -> Option<U256> {
    let c = |i: usize| -> Option<U256> { consts[uses[i].0 as usize] };
    match *op {
        Op::Const(v) => Some(v),
        Op::Copy => c(0),
        Op::Bin(o) => fold_bin(o, c(0)?, c(1)?),
        Op::Un(Opcode::IsZero) => Some(U256::from(c(0)?.is_zero())),
        Op::Un(Opcode::Not) => Some(!c(0)?),
        _ => None,
    }
}

/// EVM semantics for every binary operator, with the builder's operand
/// convention: `a` = `uses[0]` (first pop), `b` = `uses[1]`.
pub(super) fn fold_bin(op: Opcode, a: U256, b: U256) -> Option<U256> {
    use Opcode::*;
    Some(match op {
        Add => a.wrapping_add(b),
        Mul => a.wrapping_mul(b),
        Sub => a.wrapping_sub(b),
        Div => a / b,
        SDiv => a.sdiv(b),
        Mod => a % b,
        SMod => a.smod(b),
        Exp => a.wrapping_pow(b),
        SignExtend => b.signextend(a),
        Lt => U256::from(a < b),
        Gt => U256::from(a > b),
        SLt => U256::from(a.slt(b)),
        SGt => U256::from(a.sgt(b)),
        Eq => U256::from(a == b),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Byte => b.byte_msb(a),
        Shl => b << a,
        Shr => b >> a,
        Sar => b.sar(a),
        _ => return None,
    })
}

/// Rewrites every `Bin`/`Un` statement with all-constant operands to the
/// folded `Op::Const`. Returns the number of statements folded.
///
/// Folding clears the rewritten statements' operands but never changes
/// what a statement defines, so `du`'s def sites stay exact afterwards;
/// its use sites become a superset.
pub fn propagate(p: &mut Program, du: &DefUse) -> usize {
    let consts = constants(p, du);
    let mut folded = 0usize;
    for s in &mut p.stmts {
        let foldable = matches!(s.op, Op::Bin(_) | Op::Un(Opcode::IsZero) | Op::Un(Opcode::Not));
        if !foldable || s.def.is_none() {
            continue;
        }
        if let Some(v) = eval(&s.op, &s.uses, &consts) {
            s.op = Op::Const(v);
            s.uses.clear();
            folded += 1;
        }
    }
    folded
}
