//! The paper's §4 formalism, transcribed and runnable.
//!
//! This module implements the *abstract input language* of Figure 1 and
//! the inference rules of Figures 3 and 4 exactly as published, each
//! stratum evaluated by a plain round loop that re-applies every rule
//! until nothing grows. It exists for its "independent value" (§1): the
//! rules can be studied, tested, and property-checked in isolation from
//! the bytecode pipeline.
//!
//! Relations (Figure 2):
//!
//! | Paper              | Here                                  |
//! |--------------------|---------------------------------------|
//! | `↓I x`             | [`Solution::input_tainted`]           |
//! | `↓T x`             | [`Solution::storage_tainted`]         |
//! | `↓T S(v)`          | [`Solution::tainted_storage`]         |
//! | `↛ p`              | [`Solution::non_sanitizing`]          |
//! | `C(x) = v`         | input facts ([`Program::const_value`])|
//! | `x ∼ S(v)`         | input facts ([`Program::storage_alias`])|
//! | `DS(x)` / `DSA(x)` | [`Solution::ds`] / [`Solution::dsa`]  |

use std::collections::{HashMap, HashSet};

/// An abstract-language variable (interned).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct V(pub u32);

/// A storage location constant.
pub type Slot = u64;

/// Instructions of the abstract input language (Figure 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inst {
    /// `x := OP(y, z)` — any operation, including phi and non-equality
    /// comparisons.
    Op {
        /// Defined variable.
        x: V,
        /// First operand.
        y: V,
        /// Second operand.
        z: V,
    },
    /// `x := (y = z)` — equality, written explicitly because the
    /// `Uguard-*` rules inspect it. It behaves as an `OP` for taint.
    OpEq {
        /// Defined variable.
        x: V,
        /// Left operand.
        y: V,
        /// Right operand.
        z: V,
    },
    /// `x := INPUT()` — a taint source.
    Input {
        /// Defined variable.
        x: V,
    },
    /// `x := HASH(y)`.
    Hash {
        /// Defined variable.
        x: V,
        /// Hashed operand.
        y: V,
    },
    /// `x := GUARD(p, y)` — `x` receives `y` sanitized under predicate `p`.
    Guard {
        /// Defined variable.
        x: V,
        /// Sender predicate.
        p: V,
        /// Guarded value.
        y: V,
    },
    /// `SSTORE(f, t)` — store local `f` to storage address `t`.
    SStore {
        /// Value stored.
        f: V,
        /// Address expression.
        t: V,
    },
    /// `SLOAD(f, t)` — load storage address `f` into local `t`.
    SLoad {
        /// Address expression.
        f: V,
        /// Loaded variable.
        t: V,
    },
    /// `SINK(x)` — a sensitive instruction.
    Sink {
        /// Observed variable.
        x: V,
    },
}

/// An abstract-language program plus its auxiliary input relations.
#[derive(Clone, Debug, Default)]
pub struct Program {
    insts: Vec<Inst>,
    /// `C(x) = v` facts.
    const_value: HashMap<V, Slot>,
    /// `x ∼ S(v)` facts.
    storage_alias: HashMap<V, Slot>,
    sender: Option<V>,
    n_vars: u32,
    names: HashMap<String, V>,
}

/// The fixpoint of the Figure 3 / Figure 4 rules.
#[derive(Clone, Debug, Default)]
pub struct Solution {
    /// `↓I x` — input-tainted variables.
    pub input_tainted: HashSet<V>,
    /// `↓T x` — storage-tainted variables.
    pub storage_tainted: HashSet<V>,
    /// `↓T S(v)` — tainted constant storage locations.
    pub tainted_storage: HashSet<Slot>,
    /// `↛ p` — non-sanitizing guard predicates.
    pub non_sanitizing: HashSet<V>,
    /// `DS(x)`.
    pub ds: HashSet<V>,
    /// `DSA(x)`.
    pub dsa: HashSet<V>,
    /// Indices of `SINK` instructions whose operand is tainted
    /// (the `Violation` rule).
    pub violations: Vec<usize>,
    /// Inferred sinks (§4.5): variables `z` compared against `sender` in
    /// a guard over tainted data, where `z ∼ S(v)`.
    pub inferred_sinks: HashSet<V>,
}

impl Solution {
    /// True when any kind of taint reaches `x`.
    pub fn tainted(&self, x: V) -> bool {
        self.input_tainted.contains(&x) || self.storage_tainted.contains(&x)
    }
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a variable by name; `"sender"` is the reserved caller
    /// variable.
    pub fn var(&mut self, name: &str) -> V {
        if let Some(&v) = self.names.get(name) {
            return v;
        }
        let v = V(self.n_vars);
        self.n_vars += 1;
        self.names.insert(name.to_string(), v);
        if name == "sender" {
            self.sender = Some(v);
        }
        v
    }

    /// Appends an instruction.
    pub fn inst(&mut self, i: Inst) -> &mut Self {
        self.insts.push(i);
        self
    }

    /// Adds a `C(x) = v` fact.
    pub fn const_value(&mut self, x: V, v: Slot) -> &mut Self {
        self.const_value.insert(x, v);
        self
    }

    /// Adds an `x ∼ S(v)` fact.
    pub fn storage_alias(&mut self, x: V, v: Slot) -> &mut Self {
        self.storage_alias.insert(x, v);
        self
    }

    /// All constant storage locations mentioned by the program (the range
    /// of the `StorageWrite-2` universal quantifier).
    fn known_slots(&self) -> Vec<Slot> {
        let mut out: Vec<Slot> = self
            .const_value
            .values()
            .chain(self.storage_alias.values())
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Computes `DS` and `DSA` (Figure 4) — an earlier stratum,
    /// independent of taint, evaluated to fixpoint before it.
    fn solve_ds(&self) -> (HashSet<V>, HashSet<V>) {
        // DS-SenderKey
        let mut ds: HashSet<V> = self.sender.into_iter().collect();
        let mut dsa = HashSet::new();
        loop {
            let before = (ds.len(), dsa.len());
            for inst in &self.insts {
                match inst {
                    // DS-Lookup / DSA-Lookup: x := HASH(y), DS(y) or DSA(y) ⊢ DSA(x)
                    Inst::Hash { x, y } if ds.contains(y) || dsa.contains(y) => {
                        dsa.insert(*x);
                    }
                    // DS-AddrOp-1/2: DSA(y), x := OP(y, ∗) ⊢ DSA(x)
                    Inst::Op { x, y, z } | Inst::OpEq { x, y, z }
                        if dsa.contains(y) || dsa.contains(z) =>
                    {
                        dsa.insert(*x);
                    }
                    // DSA-Load: DSA(x), SLOAD(x, y) ⊢ DS(y)
                    Inst::SLoad { f, t } if dsa.contains(f) => {
                        ds.insert(*t);
                    }
                    _ => {}
                }
            }
            if (ds.len(), dsa.len()) == before {
                return (ds, dsa);
            }
        }
    }

    /// Runs the full analysis (Figure 3, with Figure 4 as an earlier
    /// stratum), to fixpoint.
    pub fn solve(&self) -> Solution {
        let (ds, dsa) = self.solve_ds();
        let known_slots = self.known_slots();

        let mut sol = Solution { ds, dsa, ..Solution::default() };

        // The four mutually-recursive relations grow monotonically; a
        // simple round-based fixpoint mirrors the paper's "iterate from
        // empty up to fixpoint".
        loop {
            let before = (
                sol.input_tainted.len(),
                sol.storage_tainted.len(),
                sol.tainted_storage.len(),
                sol.non_sanitizing.len(),
                sol.inferred_sinks.len(),
            );

            for inst in &self.insts {
                match inst {
                    // LoadInput
                    Inst::Input { x } => {
                        sol.input_tainted.insert(*x);
                    }
                    // Operation-1/2 (taint flavor preserved)
                    Inst::Op { x, y, z } | Inst::OpEq { x, y, z } => {
                        if sol.input_tainted.contains(y) || sol.input_tainted.contains(z) {
                            sol.input_tainted.insert(*x);
                        }
                        if sol.storage_tainted.contains(y) || sol.storage_tainted.contains(z)
                        {
                            sol.storage_tainted.insert(*x);
                        }
                    }
                    // HASH behaves as a unary OP for taint.
                    Inst::Hash { x, y } => {
                        if sol.input_tainted.contains(y) {
                            sol.input_tainted.insert(*x);
                        }
                        if sol.storage_tainted.contains(y) {
                            sol.storage_tainted.insert(*x);
                        }
                    }
                    // Guard-1: storage taint passes through guards.
                    // Guard-2: input taint passes only non-sanitizing ones.
                    Inst::Guard { x, p, y } => {
                        if sol.storage_tainted.contains(y) {
                            sol.storage_tainted.insert(*x);
                        }
                        if sol.input_tainted.contains(y) && sol.non_sanitizing.contains(p) {
                            sol.input_tainted.insert(*x);
                        }
                    }
                    // StorageWrite-1 / StorageWrite-2
                    Inst::SStore { f, t } => {
                        let f_tainted = sol.tainted(*f);
                        if f_tainted {
                            if let Some(v) = self.const_value.get(t) {
                                sol.tainted_storage.insert(*v);
                            }
                            if sol.tainted(*t) {
                                // ∀i: ↓T S(i)
                                sol.tainted_storage.extend(known_slots.iter().copied());
                            }
                        }
                    }
                    // StorageLoad
                    Inst::SLoad { f, t } => {
                        if let Some(v) = self.const_value.get(f) {
                            if sol.tainted_storage.contains(v) {
                                sol.storage_tainted.insert(*t);
                            }
                        }
                    }
                    Inst::Sink { .. } => {}
                }
            }

            // Uguard-T and Uguard-NDS: a predicate p defined by an
            // equality fails to sanitize.
            for inst in &self.insts {
                let Inst::OpEq { x: p, y, z } = inst else { continue };
                // Uguard-T: p := (sender = z), z ∼ S(v), ↓T S(v)
                if Some(*y) == self.sender || Some(*z) == self.sender {
                    let other = if Some(*y) == self.sender { z } else { y };
                    if let Some(v) = self.storage_alias.get(other) {
                        if sol.tainted_storage.contains(v) {
                            sol.non_sanitizing.insert(*p);
                        }
                    }
                } else if !sol.ds.contains(y) && !sol.ds.contains(z) {
                    // Uguard-NDS: neither side scrutinizes the caller.
                    sol.non_sanitizing.insert(*p);
                }
            }

            // §4.5 sink inference: ∗ := GUARD(sender = z, x), ↓I/T x,
            // z ∼ S(∗)  ⊢  SINK(z)
            for inst in &self.insts {
                let Inst::Guard { p, y, .. } = inst else { continue };
                if !sol.tainted(*y) {
                    continue;
                }
                // Find p's definition as an equality with sender.
                for def in &self.insts {
                    let Inst::OpEq { x, y: a, z: b } = def else { continue };
                    if x != p {
                        continue;
                    }
                    let other = if Some(*a) == self.sender {
                        Some(b)
                    } else if Some(*b) == self.sender {
                        Some(a)
                    } else {
                        None
                    };
                    if let Some(o) = other {
                        if self.storage_alias.contains_key(o) {
                            sol.inferred_sinks.insert(*o);
                        }
                    }
                }
            }

            let after = (
                sol.input_tainted.len(),
                sol.storage_tainted.len(),
                sol.tainted_storage.len(),
                sol.non_sanitizing.len(),
                sol.inferred_sinks.len(),
            );
            if before == after {
                break;
            }
        }

        // Violation: SINK(x), ↓∗ x — plus inferred sinks whose slot is
        // tainted.
        for (i, inst) in self.insts.iter().enumerate() {
            if let Inst::Sink { x } = inst {
                if sol.tainted(*x) {
                    sol.violations.push(i);
                }
            }
        }

        sol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §3.1 tainted owner: `initOwner` writes input to slot 0; `kill` is
    /// guarded by `sender == owner`.
    #[test]
    fn tainted_owner_defeats_guard() {
        let mut p = Program::new();
        let input = p.var("input");
        let t_owner = p.var("t_owner"); // address of owner slot
        let owner = p.var("owner"); // loaded owner
        let sender = p.var("sender");
        let pred = p.var("pred");
        let payload = p.var("payload");
        let guarded = p.var("guarded");

        p.const_value(t_owner, 0);
        p.storage_alias(owner, 0);
        p.inst(Inst::Input { x: input });
        // initOwner: owner := input
        p.inst(Inst::SStore { f: input, t: t_owner });
        // kill: load owner, guard on sender == owner, then sink.
        p.inst(Inst::SLoad { f: t_owner, t: owner });
        p.inst(Inst::OpEq { x: pred, y: sender, z: owner });
        p.inst(Inst::Input { x: payload });
        p.inst(Inst::Guard { x: guarded, p: pred, y: payload });
        p.inst(Inst::Sink { x: guarded });

        let sol = p.solve();
        // Slot 0 is tainted, so the guard is non-sanitizing (Uguard-T)
        // and input taint flows through to the sink.
        assert!(sol.tainted_storage.contains(&0));
        assert!(sol.non_sanitizing.contains(&pred));
        assert!(sol.input_tainted.contains(&guarded));
        assert_eq!(sol.violations.len(), 1);
        // §4.5: owner is an inferred sink.
        assert!(sol.inferred_sinks.contains(&owner));
    }

    /// With no way to taint the owner slot, the guard sanitizes.
    #[test]
    fn effective_guard_blocks_input_taint() {
        let mut p = Program::new();
        let t_owner = p.var("t_owner");
        let owner = p.var("owner");
        let sender = p.var("sender");
        let pred = p.var("pred");
        let payload = p.var("payload");
        let guarded = p.var("guarded");

        p.const_value(t_owner, 0);
        p.storage_alias(owner, 0);
        p.inst(Inst::SLoad { f: t_owner, t: owner });
        p.inst(Inst::OpEq { x: pred, y: sender, z: owner });
        p.inst(Inst::Input { x: payload });
        p.inst(Inst::Guard { x: guarded, p: pred, y: payload });
        p.inst(Inst::Sink { x: guarded });

        let sol = p.solve();
        assert!(!sol.non_sanitizing.contains(&pred));
        assert!(!sol.input_tainted.contains(&guarded));
        assert!(sol.violations.is_empty());
    }

    /// Guard-1: storage taint ignores guards entirely.
    #[test]
    fn storage_taint_passes_guards() {
        let mut p = Program::new();
        let input = p.var("input");
        let t_slot = p.var("t_slot");
        let loaded = p.var("loaded");
        let sender = p.var("sender");
        let owner = p.var("owner");
        let t_owner = p.var("t_owner");
        let pred = p.var("pred");
        let guarded = p.var("guarded");

        p.const_value(t_slot, 5);
        p.const_value(t_owner, 0);
        p.storage_alias(owner, 0);
        p.inst(Inst::Input { x: input });
        // Unguarded write into slot 5.
        p.inst(Inst::SStore { f: input, t: t_slot });
        // Later, slot 5 is read and flows through an owner guard.
        p.inst(Inst::SLoad { f: t_slot, t: loaded });
        p.inst(Inst::SLoad { f: t_owner, t: owner });
        p.inst(Inst::OpEq { x: pred, y: sender, z: owner });
        p.inst(Inst::Guard { x: guarded, p: pred, y: loaded });
        p.inst(Inst::Sink { x: guarded });

        let sol = p.solve();
        // The owner slot itself is NOT tainted, the guard is sanitizing —
        // but storage taint flows through regardless (Guard-1).
        assert!(!sol.non_sanitizing.contains(&pred));
        assert!(sol.storage_tainted.contains(&guarded));
        assert_eq!(sol.violations.len(), 1);
    }

    /// Uguard-NDS: a guard not involving the sender sanitizes nothing.
    #[test]
    fn non_sender_guard_is_non_sanitizing() {
        let mut p = Program::new();
        let input = p.var("input");
        let c1 = p.var("c1");
        let c2 = p.var("c2");
        let pred = p.var("pred");
        let guarded = p.var("guarded");
        let _sender = p.var("sender");

        p.inst(Inst::Input { x: input });
        p.inst(Inst::OpEq { x: pred, y: c1, z: c2 });
        p.inst(Inst::Guard { x: guarded, p: pred, y: input });
        p.inst(Inst::Sink { x: guarded });

        let sol = p.solve();
        assert!(sol.non_sanitizing.contains(&pred));
        assert_eq!(sol.violations.len(), 1);
    }

    /// Figure 4: `m[sender]` lookups scrutinize the caller, so comparing
    /// against them is sanitizing (no Uguard-NDS).
    #[test]
    fn sender_keyed_lookup_counts_as_scrutiny() {
        let mut p = Program::new();
        let sender = p.var("sender");
        let h = p.var("h");
        let elem = p.var("elem");
        let one = p.var("one");
        let pred = p.var("pred");
        let input = p.var("input");
        let guarded = p.var("guarded");

        // h := HASH(sender); elem := SLOAD(h)  — m[sender]
        p.inst(Inst::Hash { x: h, y: sender });
        p.inst(Inst::SLoad { f: h, t: elem });
        // pred := (elem = one) — membership test
        p.inst(Inst::OpEq { x: pred, y: elem, z: one });
        p.inst(Inst::Input { x: input });
        p.inst(Inst::Guard { x: guarded, p: pred, y: input });
        p.inst(Inst::Sink { x: guarded });

        let sol = p.solve();
        assert!(sol.ds.contains(&sender));
        assert!(sol.dsa.contains(&h));
        assert!(sol.ds.contains(&elem));
        assert!(!sol.non_sanitizing.contains(&pred));
        assert!(sol.violations.is_empty());
    }

    /// Nested data structures: HASH of HASH, plus address arithmetic
    /// (DS-AddrOp), still reach DS through a load.
    #[test]
    fn nested_structure_address_arithmetic() {
        let mut p = Program::new();
        let sender = p.var("sender");
        let h1 = p.var("h1");
        let h2 = p.var("h2");
        let off = p.var("off");
        let addr = p.var("addr");
        let elem = p.var("elem");

        p.inst(Inst::Hash { x: h1, y: sender });
        p.inst(Inst::Hash { x: h2, y: h1 });
        p.inst(Inst::Op { x: addr, y: h2, z: off }); // addr := h2 + off
        p.inst(Inst::SLoad { f: addr, t: elem });

        let sol = p.solve();
        assert!(sol.dsa.contains(&h2));
        assert!(sol.dsa.contains(&addr));
        assert!(sol.ds.contains(&elem));
    }

    /// StorageWrite-2: a tainted store to a tainted address taints every
    /// known constant slot (the deliberate over-approximation, §4.4).
    #[test]
    fn tainted_address_store_taints_all_slots() {
        let mut p = Program::new();
        let input = p.var("input");
        let addr = p.var("addr");
        let t1 = p.var("t1");
        let t2 = p.var("t2");
        let l1 = p.var("l1");
        let l2 = p.var("l2");

        p.const_value(t1, 1);
        p.const_value(t2, 2);
        p.inst(Inst::Input { x: input });
        // addr := OP(input, input) — attacker-controlled address
        p.inst(Inst::Op { x: addr, y: input, z: input });
        p.inst(Inst::SStore { f: input, t: addr });
        p.inst(Inst::SLoad { f: t1, t: l1 });
        p.inst(Inst::SLoad { f: t2, t: l2 });

        let sol = p.solve();
        assert!(sol.tainted_storage.contains(&1));
        assert!(sol.tainted_storage.contains(&2));
        assert!(sol.storage_tainted.contains(&l1));
        assert!(sol.storage_tainted.contains(&l2));
    }

    /// The §2 Victim chain in the abstract language: tainting a guard
    /// enables more tainting (composite escalation).
    #[test]
    fn composite_escalation_through_guards() {
        let mut p = Program::new();
        let sender = p.var("sender");
        // Stage 1 (referAdmin, wrongly guarded by a user check that the
        // attacker satisfies — modeled as a non-sanitizing guard since the
        // membership is attacker-settable; here distilled: an unguarded
        // write of input into the admins slot region = owner slot 7).
        let input = p.var("input");
        let t_admin = p.var("t_admin");
        p.const_value(t_admin, 7);
        p.inst(Inst::Input { x: input });
        p.inst(Inst::SStore { f: input, t: t_admin });

        // Stage 2 (changeOwner guarded by admins-slot comparison).
        let admin = p.var("admin");
        let pred = p.var("pred");
        let new_owner = p.var("new_owner");
        let guarded = p.var("guarded");
        let t_owner = p.var("t_owner");
        p.const_value(t_owner, 8);
        p.storage_alias(admin, 7);
        p.inst(Inst::SLoad { f: t_admin, t: admin });
        p.inst(Inst::OpEq { x: pred, y: sender, z: admin });
        p.inst(Inst::Input { x: new_owner });
        p.inst(Inst::Guard { x: guarded, p: pred, y: new_owner });
        p.inst(Inst::SStore { f: guarded, t: t_owner });

        // Stage 3 (kill guarded by owner).
        let owner = p.var("owner");
        let pred2 = p.var("pred2");
        let beneficiary = p.var("beneficiary");
        let guarded2 = p.var("guarded2");
        p.storage_alias(owner, 8);
        p.inst(Inst::SLoad { f: t_owner, t: owner });
        p.inst(Inst::OpEq { x: pred2, y: sender, z: owner });
        p.inst(Inst::Input { x: beneficiary });
        p.inst(Inst::Guard { x: guarded2, p: pred2, y: beneficiary });
        p.inst(Inst::Sink { x: guarded2 });

        let sol = p.solve();
        // Escalation: slot 7 tainted → pred non-sanitizing → slot 8
        // tainted → pred2 non-sanitizing → sink violation.
        assert!(sol.tainted_storage.contains(&7));
        assert!(sol.non_sanitizing.contains(&pred));
        assert!(sol.tainted_storage.contains(&8));
        assert!(sol.non_sanitizing.contains(&pred2));
        assert_eq!(sol.violations.len(), 1);
    }

    /// Monotonicity (used by the property tests): adding instructions
    /// never removes violations.
    #[test]
    fn adding_sources_is_monotone() {
        let mut p = Program::new();
        let t = p.var("t");
        let l = p.var("l");
        let s = p.var("s");
        p.const_value(t, 3);
        p.inst(Inst::SLoad { f: t, t: l });
        p.inst(Inst::Op { x: s, y: l, z: l });
        p.inst(Inst::Sink { x: s });
        let before = p.solve().violations.len();

        let input = p.var("input");
        p.inst(Inst::Input { x: input });
        p.inst(Inst::SStore { f: input, t });
        let after = p.solve().violations.len();
        assert!(after >= before);
        assert_eq!(after, 1);
    }
}
