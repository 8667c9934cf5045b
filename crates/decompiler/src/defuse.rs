//! Def→use-site index over a [`Program`]'s variables.
//!
//! Built once per program and shared by consumers that need sparse
//! propagation: `optimize` builds one for constant propagation and
//! dead-code elimination, and the Ethainter analysis builds one over
//! the optimized program that interval analysis, the worklist engine
//! (which pushes exactly the use sites of a variable whose abstract
//! value changed instead of re-scanning every statement) and the
//! storage and effect summaries all read. Kept in the decompiler so
//! every client of the TAC (analysis engines, passes, future tools)
//! indexes the IR the same way.
//!
//! Layout: compressed sparse rows (CSR). Each side (defs, uses) is one
//! `offsets` array of `n_vars + 1` entries and one flat array of
//! statement ids grouped by variable; variable `v`'s sites are the
//! slice between `offsets[v]` and `offsets[v + 1]`. Building takes two
//! passes (count, then fill) and four allocations in total, and
//! dropping the index frees those four. Neither costs an allocation per
//! variable, which matters on realistic contracts with tens of
//! thousands of variables.

use crate::tac::{Program, StmtId, Var};

/// Immutable def-site / use-site index, one entry per variable.
///
/// Definitions and uses are recorded in program (statement-id) order.
/// Block parameters have one defining `Copy` per predecessor binding,
/// so `defs(v)` is a slice, not an option.
///
/// Each side is stored in CSR form (see the module docs), so the whole
/// index is four allocations however many variables the program has.
#[derive(Clone, Debug, Default)]
pub struct DefUse {
    defs: Csr,
    uses: Csr,
}

/// One side of the index: the sites of variable `v` are
/// `sites[offsets[v]..offsets[v + 1]]`.
#[derive(Clone, Debug, Default)]
struct Csr {
    offsets: Vec<u32>,
    sites: Vec<StmtId>,
}

impl Csr {
    /// Sizes one side from per-variable site counts (`n_vars + 1`
    /// slots, the last one zero). Each offset is left at the *end* of
    /// its variable's run (an inclusive prefix sum); [`Csr::push_front`]
    /// fills each run back to front, so once every site is placed each
    /// offset has moved to its run's start.
    fn with_counts(mut offsets: Vec<u32>) -> Csr {
        let mut total = 0u32;
        for slot in offsets.iter_mut() {
            total += *slot;
            *slot = total;
        }
        Csr { offsets, sites: vec![StmtId(0); total as usize] }
    }

    fn push_front(&mut self, v: Var, site: StmtId) {
        let start = &mut self.offsets[v.0 as usize];
        *start -= 1;
        self.sites[*start as usize] = site;
    }

    fn get(&self, v: Var) -> &[StmtId] {
        let v = v.0 as usize;
        &self.sites[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// The variables in `uses`, each reported once: a statement using the
/// same variable twice (e.g. `v = ADD(x, x)`) is still one use site.
/// Operand lists are at most a handful long, so the quadratic check is
/// cheaper than any set.
fn distinct_uses(uses: &[Var]) -> impl Iterator<Item = Var> + '_ {
    uses.iter().enumerate().filter(|&(i, u)| !uses[..i].contains(u)).map(|(_, &u)| u)
}

impl DefUse {
    /// Builds the index in two passes over the statements: count each
    /// variable's sites and take the prefix sums, then place the sites
    /// walking the statements backwards, so each run ends up in program
    /// order.
    pub fn build(p: &Program) -> DefUse {
        let n = p.n_vars as usize;
        let mut def_counts = vec![0u32; n + 1];
        let mut use_counts = vec![0u32; n + 1];
        for s in p.iter_stmts() {
            if let Some(d) = s.def {
                def_counts[d.0 as usize] += 1;
            }
            for u in distinct_uses(&s.uses) {
                use_counts[u.0 as usize] += 1;
            }
        }
        let mut defs = Csr::with_counts(def_counts);
        let mut uses = Csr::with_counts(use_counts);
        for s in p.stmts.iter().rev() {
            if let Some(d) = s.def {
                defs.push_front(d, s.id);
            }
            for u in distinct_uses(&s.uses) {
                uses.push_front(u, s.id);
            }
        }
        DefUse { defs, uses }
    }

    /// Statements defining `v`, in program order.
    pub fn defs(&self, v: Var) -> &[StmtId] {
        self.defs.get(v)
    }

    /// Statements using `v`, in program order (each site once).
    pub fn uses(&self, v: Var) -> &[StmtId] {
        self.uses.get(v)
    }

    /// Number of variables indexed.
    pub fn n_vars(&self) -> usize {
        self.defs.offsets.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tac::{Block, BlockId, Op, Stmt};
    use corpus::{Population, PopulationConfig, Scale};
    use evm::opcode::Opcode;

    /// `(variable, statement)` pairs, sorted by variable, then statement.
    type Pairs = Vec<(u32, u32)>;

    /// Every def pair and use pair of one linear scan, sorted and
    /// deduplicated: the index's contract, spelled out naively.
    fn scanned(p: &Program) -> (Pairs, Pairs) {
        let (mut defs, mut uses) = (Vec::new(), Vec::new());
        for s in p.iter_stmts() {
            if let Some(d) = s.def {
                defs.push((d.0, s.id.0));
            }
            uses.extend(s.uses.iter().map(|u| (u.0, s.id.0)));
        }
        for pairs in [&mut defs, &mut uses] {
            pairs.sort_unstable();
            pairs.dedup();
        }
        (defs, uses)
    }

    /// The statements paired with `v`, in statement-id order.
    fn sites_of(pairs: &[(u32, u32)], v: u32) -> Vec<StmtId> {
        let lo = pairs.partition_point(|&(w, _)| w < v);
        let hi = pairs.partition_point(|&(w, _)| w <= v);
        pairs[lo..hi].iter().map(|&(_, s)| StmtId(s)).collect()
    }

    fn assert_matches_scan(p: &Program, what: &str) {
        let du = DefUse::build(p);
        assert_eq!(du.n_vars(), p.n_vars as usize, "{what}");
        let (defs, uses) = scanned(p);
        for v in 0..p.n_vars {
            assert_eq!(du.defs(Var(v)), sites_of(&defs, v), "{what}: defs of v{v}");
            assert_eq!(du.uses(Var(v)), sites_of(&uses, v), "{what}: uses of v{v}");
        }
    }

    #[test]
    fn index_matches_linear_scan() {
        let src = r#"
        contract C {
            uint v;
            function f(uint a) public { v = a + a; }
            function g() public view returns (uint) { return v; }
        }"#;
        let compiled = minisol::compile_source(src).unwrap();
        assert_matches_scan(&crate::decompile(&compiled.bytecode), "minisol contract");
    }

    #[test]
    fn index_matches_linear_scan_on_realistic_corpus() {
        let pop = Population::generate(&PopulationConfig {
            size: 20,
            seed: 7,
            scale: Scale::Realistic,
            ..Default::default()
        });
        for (i, c) in pop.contracts.iter().enumerate() {
            let mut p = crate::decompile(&c.bytecode);
            assert_matches_scan(&p, &format!("contract {i}, raw"));
            crate::optimize(&mut p, &crate::PassConfig::default());
            assert_matches_scan(&p, &format!("contract {i}, optimized"));
        }
    }

    #[test]
    fn duplicate_operand_is_one_use_site() {
        // x = 1; y = 1; z = ADDMOD(x, y, x); STOP
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let stmt = |id: u32, op: Op, def: Option<Var>, uses: Vec<Var>| Stmt {
            id: StmtId(id),
            block: BlockId(0),
            pc: id as usize,
            op,
            def,
            uses,
        };
        let p = Program {
            blocks: vec![Block { stmts: (0..4).map(StmtId).collect(), ..Block::default() }],
            stmts: vec![
                stmt(0, Op::Const(evm::U256::ONE), Some(x), vec![]),
                stmt(1, Op::Const(evm::U256::ONE), Some(y), vec![]),
                stmt(2, Op::Other(Opcode::AddMod), Some(z), vec![x, y, x]),
                stmt(3, Op::Stop, None, vec![]),
            ],
            n_vars: 3,
            ..Program::default()
        };
        let du = DefUse::build(&p);
        assert_eq!(du.uses(x), &[StmtId(2)]);
        assert_eq!(du.uses(y), &[StmtId(2)]);
        assert_eq!(du.defs(z), &[StmtId(2)]);
        assert!(du.uses(z).is_empty());
    }

    #[test]
    fn empty_index_and_unused_variable() {
        assert_eq!(DefUse::default().n_vars(), 0);
        assert_eq!(DefUse::build(&Program::default()).n_vars(), 0);
        // Two variables allocated, neither defined nor read.
        let p = Program { n_vars: 2, ..Program::default() };
        let du = DefUse::build(&p);
        assert_eq!(du.n_vars(), 2);
        for v in [Var(0), Var(1)] {
            assert!(du.defs(v).is_empty());
            assert!(du.uses(v).is_empty());
        }
    }
}
