//! Unsigned value-range (interval) analysis over TAC variables.
//!
//! Generalizes the constant facts: every variable gets a `[lo, hi]`
//! envelope of its possible runtime values, computed as a sparse fixpoint
//! over the def sites of the shared [`DefUse`] index (block parameters
//! join the envelopes bound by every predecessor). The payoff downstream
//! is *branch pruning*: a `JumpI` whose condition is proven always-true
//! or always-false has a dead successor edge, and `ethainter::analysis`
//! uses those dead edges to shrink the reachable region a guard fails to
//! protect (fewer false-positive findings behind statically-decided
//! branches).
//!
//! Widening: intervals over `U256` have essentially unbounded ascending
//! chains (loop counters grow the hull every sweep), so after a few
//! stable sweeps any still-changing variable is widened straight to ⊤ =
//! `[0, U256::MAX]`. ⊤ is absorbing, so convergence is then immediate.

use crate::defuse::DefUse;
use crate::tac::{BlockId, Op, Program, Var};
use evm::opcode::Opcode;
use evm::U256;

/// An inclusive unsigned range of `U256` values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: U256,
    /// Largest possible value.
    pub hi: U256,
}

impl Interval {
    /// The full range ⊤ = `[0, U256::MAX]` — "no information".
    pub const TOP: Interval = Interval { lo: U256::ZERO, hi: U256::MAX };

    /// A single known value.
    pub fn point(v: U256) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// The boolean range `[0, 1]`.
    pub fn boolean() -> Interval {
        Interval { lo: U256::ZERO, hi: U256::ONE }
    }

    /// True when the interval is a single value.
    pub fn singleton(&self) -> Option<U256> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// True when every value in the range is nonzero.
    pub fn proven_nonzero(&self) -> bool {
        self.lo > U256::ZERO
    }

    /// True when the only possible value is zero.
    pub fn proven_zero(&self) -> bool {
        self.hi.is_zero()
    }

    /// The convex hull of two intervals (the lattice join).
    pub fn hull(self, other: Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }
}

/// The result of interval analysis.
#[derive(Clone, Debug, Default)]
pub struct Intervals {
    /// Per-variable envelope; `None` for variables with no reachable def
    /// (their value can never be observed).
    pub vars: Vec<Option<Interval>>,
    /// CFG edges proven never taken, as `(block, successor-index)`.
    /// Indices (not successor ids) disambiguate the case where a
    /// conditional jump's taken and fallthrough targets coincide.
    pub dead_edges: Vec<(BlockId, usize)>,
}

impl Intervals {
    /// The envelope of `v`, defaulting to ⊤ when unknown.
    pub fn of(&self, v: Var) -> Interval {
        self.vars
            .get(v.0 as usize)
            .copied()
            .flatten()
            .unwrap_or(Interval::TOP)
    }
}

/// Sweeps before per-variable widening kicks in. Minisol-scale programs
/// converge in 2–4 sweeps; anything still moving after this is a loop
/// counter and goes straight to ⊤.
const STABLE_SWEEPS: usize = 8;

/// Runs the analysis over `p`, reading def sites from `du` (an index
/// of `p` itself).
pub fn analyze(p: &Program, du: &DefUse) -> Intervals {
    let n = p.n_vars as usize;
    debug_assert_eq!(du.n_vars(), n, "def-use index built for another program");
    let mut iv: Vec<Option<Interval>> = vec![None; n];

    let mut sweep = 0usize;
    loop {
        let mut changed = false;
        for v in 0..n {
            let defs = du.defs(Var(v as u32));
            if defs.is_empty() {
                continue;
            }
            let mut joined: Option<Interval> = None;
            for &d in defs {
                let s = p.stmt(d);
                let this = transfer(&s.op, &s.uses, &iv);
                joined = match (joined, this) {
                    (None, x) => x,
                    (x, None) => x,
                    (Some(a), Some(b)) => Some(a.hull(b)),
                };
            }
            if let Some(new) = joined {
                let old = iv[v];
                if old != Some(new) {
                    let widened = if sweep >= STABLE_SWEEPS && old.is_some() {
                        Interval::TOP
                    } else {
                        match old {
                            Some(o) => o.hull(new),
                            None => new,
                        }
                    };
                    if iv[v] != Some(widened) {
                        iv[v] = Some(widened);
                        changed = true;
                    }
                }
            }
        }
        sweep += 1;
        if !changed || sweep > STABLE_SWEEPS + n + 4 {
            break;
        }
    }

    // Branch pruning: a JumpI condition proven constant kills one edge.
    // The builder lays successors out as [taken, fallthrough] only when
    // both edges resolved, i.e. exactly two successors.
    let mut dead_edges = Vec::new();
    for (bi, block) in p.blocks.iter().enumerate() {
        if block.succs.len() != 2 {
            continue;
        }
        let Some(&last) = block.stmts.last() else { continue };
        let last = p.stmt(last);
        if last.op != Op::JumpI {
            continue;
        }
        let cond = match iv.get(last.uses[0].0 as usize).copied().flatten() {
            Some(c) => c,
            None => continue,
        };
        if cond.proven_nonzero() {
            dead_edges.push((BlockId(bi as u32), 1)); // fallthrough never taken
        } else if cond.proven_zero() {
            dead_edges.push((BlockId(bi as u32), 0)); // jump never taken
        }
    }

    Intervals { vars: iv, dead_edges }
}

/// The envelope a statement's def gets from its operands' envelopes.
/// Returns `None` when an operand has no envelope yet (sparse fixpoint:
/// the def stays undefined until its inputs resolve).
fn transfer(op: &Op, uses: &[Var], iv: &[Option<Interval>]) -> Option<Interval> {
    let get = |i: usize| -> Option<Interval> { iv[uses[i].0 as usize] };
    Some(match op {
        Op::Const(c) => Interval::point(*c),
        Op::Copy => get(0)?,
        Op::Bin(o) => {
            let a = get(0)?;
            let b = get(1)?;
            bin(*o, a, b)
        }
        Op::Un(Opcode::IsZero) => {
            let a = get(0)?;
            if a.proven_nonzero() {
                Interval::point(U256::ZERO)
            } else if a.proven_zero() {
                Interval::point(U256::ONE)
            } else {
                Interval::boolean()
            }
        }
        Op::Un(Opcode::Not) => match get(0)?.singleton() {
            Some(v) => Interval::point(!v),
            None => Interval::TOP,
        },
        // Everything else — environment reads, loads, hashes, call
        // results — is unconstrained.
        _ => Interval::TOP,
    })
}

/// Interval transfer for a binary op; `a` = `uses[0]` (first pop).
fn bin(op: Opcode, a: Interval, b: Interval) -> Interval {
    use Opcode::*;
    // Two known points fold exactly via EVM semantics.
    if let (Some(ca), Some(cb)) = (a.singleton(), b.singleton()) {
        if let Some(v) = super::constprop::fold_bin(op, ca, cb) {
            return Interval::point(v);
        }
    }
    match op {
        Add => match (a.hi.checked_add(b.hi), a.lo.checked_add(b.lo)) {
            (Some(hi), Some(lo)) => Interval { lo, hi },
            _ => Interval::TOP,
        },
        Sub => {
            if a.lo >= b.hi {
                // No wraparound possible anywhere in the range.
                Interval { lo: a.lo.wrapping_sub(b.hi), hi: a.hi.wrapping_sub(b.lo) }
            } else {
                Interval::TOP
            }
        }
        // Unsigned division never grows the numerator (DIV by 0 is 0).
        Div => Interval { lo: U256::ZERO, hi: a.hi },
        // MOD result is < modulus (and ≤ numerator); MOD by 0 is 0.
        Mod => {
            let hi = if b.hi.is_zero() {
                U256::ZERO
            } else {
                a.hi.min(b.hi.wrapping_sub(U256::ONE))
            };
            Interval { lo: U256::ZERO, hi }
        }
        // AND clears bits: result ≤ both operands.
        And => Interval { lo: U256::ZERO, hi: a.hi.min(b.hi) },
        // SHR is monotone in the value (b) and antitone in the shift (a).
        Shr => Interval { lo: b.lo >> a.hi, hi: b.hi >> a.lo },
        Lt => {
            if a.hi < b.lo {
                Interval::point(U256::ONE)
            } else if a.lo >= b.hi {
                Interval::point(U256::ZERO)
            } else {
                Interval::boolean()
            }
        }
        Gt => {
            if a.lo > b.hi {
                Interval::point(U256::ONE)
            } else if a.hi <= b.lo {
                Interval::point(U256::ZERO)
            } else {
                Interval::boolean()
            }
        }
        Eq => {
            // Disjoint ranges can never be equal.
            if a.hi < b.lo || b.hi < a.lo {
                Interval::point(U256::ZERO)
            } else {
                Interval::boolean()
            }
        }
        SLt | SGt => Interval::boolean(),
        _ => Interval::TOP,
    }
}
