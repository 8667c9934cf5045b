//! Property tests for the §4 formalism: the inference rules of Figures
//! 3–4 on randomly generated abstract programs.

use ethainter::formalism::{Inst, Program, V};
use proptest::prelude::*;

/// A random abstract program over a small variable universe.
#[derive(Clone, Debug)]
struct ArbProgram {
    insts: Vec<Inst>,
    consts: Vec<(u32, u64)>,
    aliases: Vec<(u32, u64)>,
}

/// The caller variable: `build` interns it right after `v0..v11`.
const SENDER: V = V(12);

fn build(p: &ArbProgram) -> (Program, Vec<V>) {
    let mut prog = Program::new();
    // Intern a fixed universe v0..v11 plus sender.
    let vars: Vec<V> = (0..12).map(|i| prog.var(&format!("v{i}"))).collect();
    assert_eq!(prog.var("sender"), SENDER);
    for (x, v) in &p.consts {
        prog.const_value(vars[*x as usize], *v);
    }
    for (x, v) in &p.aliases {
        prog.storage_alias(vars[*x as usize], *v);
    }
    for inst in &p.insts {
        prog.inst(inst.clone());
    }
    (prog, vars)
}

/// Instructions over `v0..v11` and `sender`, so the Figure 4 rules fire.
fn arb_inst() -> impl Strategy<Value = Inst> {
    let v = || (0u32..SENDER.0 + 1).prop_map(V);
    prop_oneof![
        (v(), v(), v()).prop_map(|(x, y, z)| Inst::Op { x, y, z }),
        (v(), v(), v()).prop_map(|(x, y, z)| Inst::OpEq { x, y, z }),
        v().prop_map(|x| Inst::Input { x }),
        (v(), v()).prop_map(|(x, y)| Inst::Hash { x, y }),
        (v(), v(), v()).prop_map(|(x, p, y)| Inst::Guard { x, p, y }),
        (v(), v()).prop_map(|(f, t)| Inst::SStore { f, t }),
        (v(), v()).prop_map(|(f, t)| Inst::SLoad { f, t }),
        v().prop_map(|x| Inst::Sink { x }),
    ]
}

fn arb_program() -> impl Strategy<Value = ArbProgram> {
    (
        proptest::collection::vec(arb_inst(), 0..25),
        proptest::collection::vec((0u32..12, 0u64..6), 0..6),
        proptest::collection::vec((0u32..12, 0u64..6), 0..6),
    )
        .prop_map(|(insts, consts, aliases)| ArbProgram { insts, consts, aliases })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Adding an instruction never removes derived facts (monotonicity of
    /// the Figure 3 rules — "each inference only leads to a growing set
    /// of inferences for others"). Note DS/DSA growth can *remove*
    /// Uguard-NDS conclusions, so we extend with taint-side instructions
    /// only.
    #[test]
    fn taint_rules_are_monotone(p in arb_program(), extra in arb_inst()) {
        // Skip extensions that grow DS/DSA (the stratified negation).
        let grows_ds = matches!(extra, Inst::Hash { .. } | Inst::SLoad { .. } | Inst::Op { .. } | Inst::OpEq { .. });
        prop_assume!(!grows_ds);
        let (prog, _) = build(&p);
        let before = prog.solve();
        let mut p2 = p.clone();
        p2.insts.push(extra);
        let (prog2, _) = build(&p2);
        let after = prog2.solve();
        for v in &before.input_tainted {
            prop_assert!(after.input_tainted.contains(v));
        }
        for v in &before.storage_tainted {
            prop_assert!(after.storage_tainted.contains(v));
        }
        for s in &before.tainted_storage {
            prop_assert!(after.tainted_storage.contains(s));
        }
        prop_assert!(after.violations.len() >= before.violations.len());
    }

    /// The fixpoint is deterministic.
    #[test]
    fn solve_is_deterministic(p in arb_program()) {
        let (prog, _) = build(&p);
        let a = prog.solve();
        let b = prog.solve();
        prop_assert_eq!(a.input_tainted, b.input_tainted);
        prop_assert_eq!(a.storage_tainted, b.storage_tainted);
        prop_assert_eq!(a.tainted_storage, b.tainted_storage);
        prop_assert_eq!(a.non_sanitizing, b.non_sanitizing);
        prop_assert_eq!(a.violations, b.violations);
    }

    /// No INPUT instruction ⇒ no input taint anywhere, and violations can
    /// only come from storage taint — which also needs a tainted source.
    #[test]
    fn no_input_no_taint(p in arb_program()) {
        let mut p2 = p.clone();
        p2.insts.retain(|i| !matches!(i, Inst::Input { .. }));
        let (prog, _) = build(&p2);
        let sol = prog.solve();
        prop_assert!(sol.input_tainted.is_empty());
        prop_assert!(sol.storage_tainted.is_empty());
        prop_assert!(sol.violations.is_empty());
    }

    /// Every violation's sink operand is genuinely tainted.
    #[test]
    fn violations_are_justified(p in arb_program()) {
        let (prog, _) = build(&p);
        let sol = prog.solve();
        for &i in &sol.violations {
            match &p.insts[i] {
                Inst::Sink { x } => prop_assert!(sol.tainted(*x)),
                other => prop_assert!(false, "violation at non-sink {other:?}"),
            }
        }
    }

    /// DS and DSA are disjointly derived from sender: a program that
    /// never mentions sender-derived data has empty DSA.
    #[test]
    fn dsa_requires_sender_root(p in arb_program()) {
        let (prog, vars) = build(&p);
        let sol = prog.solve();
        // `sender` itself is always DS.
        // If no Hash of any DS var exists transitively, DSA must be empty;
        // verify the weaker, checkable direction: every DSA var has a
        // Hash or Op definition in the program.
        for v in &sol.dsa {
            let defined = p.insts.iter().any(|i| match i {
                Inst::Hash { x, .. } => x == v,
                Inst::Op { x, .. } | Inst::OpEq { x, .. } => x == v,
                _ => false,
            });
            prop_assert!(defined, "DSA var {v:?} with no hash/op definition");
        }
        let _ = vars;
    }

    /// `DS`/`DSA` are closed under every Figure 4 rule: each rule
    /// instance whose premises hold has its conclusion derived too.
    #[test]
    fn ds_dsa_closed_under_figure_4(p in arb_program()) {
        let (prog, _) = build(&p);
        let sol = prog.solve();
        // DS-SenderKey
        prop_assert!(sol.ds.contains(&SENDER));
        for inst in &p.insts {
            match inst {
                // DS-Lookup / DSA-Lookup
                Inst::Hash { x, y } if sol.ds.contains(y) || sol.dsa.contains(y) => {
                    prop_assert!(sol.dsa.contains(x), "{inst:?}");
                }
                // DS-AddrOp-1/2
                Inst::Op { x, y, z } | Inst::OpEq { x, y, z }
                    if sol.dsa.contains(y) || sol.dsa.contains(z) =>
                {
                    prop_assert!(sol.dsa.contains(x), "{inst:?}");
                }
                // DSA-Load
                Inst::SLoad { f, t } if sol.dsa.contains(f) => {
                    prop_assert!(sol.ds.contains(t), "{inst:?}");
                }
                _ => {}
            }
        }
    }
}
