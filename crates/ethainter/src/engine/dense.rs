//! Naive (dense) fixpoint evaluation — the executable specification.
//!
//! Every round re-scans every statement: taint propagation to an inner
//! fixpoint, then storage writes, then guard defeat, then a full
//! `ReachableByAttacker` recomputation, until a round changes nothing.
//! O(rounds × stmts) and deliberately simple. No production path runs
//! it: it is the reference oracle ([`crate::reference`]) the sparse
//! engine is differentially tested against.

use super::{guard_defeated, recompute_rba, KeyClass, Prepared, State};
use crate::analysis::deadline_exceeded;
use crate::config::{Config, StorageModel};
use decompiler::Op;
use evm::opcode::Opcode;

/// Runs the dense fixpoint, mutating `st` in place until convergence,
/// timeout, or the 64-round safety cap.
pub(crate) fn run(cfg: &Config, prep: &Prepared<'_>, st: &mut State) {
    let p = prep.ctx.p;
    loop {
        st.rounds += 1;
        let mut changed = false;
        if deadline_exceeded() {
            st.timed_out = true;
            break;
        }

        // Taint propagation (inner pass repeated within the round until
        // stable — statement order is arbitrary).
        loop {
            let mut inner_changed = false;
            // Sets one bit, noting whether it was newly set.
            let mut set = |bit: &mut bool| {
                if !*bit {
                    *bit = true;
                    inner_changed = true;
                }
            };
            for s in p.iter_stmts() {
                let stmt_rba = st.rba[s.block.0 as usize];
                let Some(d) = s.def else {
                    continue;
                };
                let di = d.0 as usize;
                match &s.op {
                    // TaintedFlow(x,x) :- ReachableByAttacker(s),
                    //                     CALLDATALOAD(s, x).
                    Op::CallDataLoad if stmt_rba => set(&mut st.input_tainted[di]),
                    // OriginFlow / TimeFlow sources (detector suite v2):
                    // environment reads, unconditional like storage
                    // taint — the value exists on every path.
                    Op::Env(Opcode::Origin) => set(&mut st.origin_tainted[di]),
                    Op::Env(Opcode::Timestamp) => set(&mut st.time_tainted[di]),
                    Op::Copy
                    | Op::Bin(_)
                    | Op::Un(_)
                    | Op::Hash2
                    | Op::Sha3
                    | Op::Other(_) => {
                        let any = |bits: &[bool]| s.uses.iter().any(|u| bits[u.0 as usize]);
                        let any_in = any(&st.input_tainted);
                        let any_st = any(&st.storage_tainted);
                        let any_or = any(&st.origin_tainted);
                        let any_tm = any(&st.time_tainted);
                        if any_or {
                            set(&mut st.origin_tainted[di]);
                        }
                        if any_tm {
                            set(&mut st.time_tainted[di]);
                        }
                        // Input taint moves only through attacker-reachable
                        // statements (Guard-2); storage taint through all
                        // (Guard-1).
                        if any_in && stmt_rba {
                            set(&mut st.input_tainted[di]);
                        }
                        if any_st {
                            set(&mut st.storage_tainted[di]);
                        }
                    }
                    Op::MLoad => {
                        // Local memory modeling: values stored at the same
                        // constant offset flow to this load.
                        let Some(off) = prep.ctx.consts[s.uses[0].0 as usize] else {
                            continue;
                        };
                        let Some(stores) = prep.mem_stores.get(&off) else {
                            continue;
                        };
                        let any = |bits: &[bool]| stores.iter().any(|(_, v)| bits[v.0 as usize]);
                        let any_in = any(&st.input_tainted);
                        let any_st = any(&st.storage_tainted);
                        let any_or = any(&st.origin_tainted);
                        let any_tm = any(&st.time_tainted);
                        if any_in && stmt_rba {
                            set(&mut st.input_tainted[di]);
                        }
                        if any_st {
                            set(&mut st.storage_tainted[di]);
                        }
                        if any_or {
                            set(&mut st.origin_tainted[di]);
                        }
                        if any_tm {
                            set(&mut st.time_tainted[di]);
                        }
                    }
                    Op::SLoad => {
                        if !cfg.storage_taint {
                            continue;
                        }
                        let addr = prep.key_class[s.id.0 as usize].as_ref().unwrap();
                        let tainted_load = match addr {
                            KeyClass::Const(a) => {
                                st.tainted_slots.contains(*a) || st.all_slots_tainted
                            }
                            KeyClass::Mapping { base, .. } => {
                                st.tainted_mappings.contains(*base)
                            }
                            KeyClass::Unknown => {
                                cfg.storage_model == StorageModel::Conservative
                                    && st.unknown_store_tainted
                            }
                        };
                        // StorageLoad: loads of tainted storage are
                        // storage-tainted, eluding guards.
                        if tainted_load {
                            set(&mut st.storage_tainted[di]);
                        }
                    }
                    _ => {}
                }
            }
            if !inner_changed || deadline_exceeded() {
                break;
            }
            changed = true;
        }

        // Storage writes (StorageWrite-1 / StorageWrite-2 and the
        // attacker-enrollment rule for sender-keyed structures).
        if cfg.storage_taint {
            for s in p.iter_stmts() {
                if s.op != Op::SStore {
                    continue;
                }
                let stmt_rba = st.rba[s.block.0 as usize];
                let key = s.uses[0];
                let value = s.uses[1];
                let v_in = st.input_tainted[value.0 as usize];
                let v_st = st.storage_tainted[value.0 as usize];
                // `msg.sender`-derived values written by the attacker are
                // attacker-chosen (public-initializer pattern: anyone can
                // become owner).
                let v_ds = prep.ctx.ds[value.0 as usize];
                let attacker_value = (v_in || v_ds) && stmt_rba;
                let tainted_value = v_st || attacker_value;
                if !tainted_value {
                    continue;
                }
                match prep.key_class[s.id.0 as usize].as_ref().unwrap() {
                    KeyClass::Const(a) => {
                        changed |= st.tainted_slots.insert(*a);
                    }
                    KeyClass::Mapping { base, keys } => {
                        changed |= st.tainted_mappings.insert(*base);
                        let key_attacker = keys.iter().any(|k| {
                            prep.ctx.ds[k.0 as usize] || st.input_tainted[k.0 as usize]
                        });
                        if key_attacker {
                            changed |= st.writable_mappings.insert(*base);
                        }
                    }
                    KeyClass::Unknown => {
                        // StorageWrite-2: tainted value at a tainted
                        // (attacker-influenced) address taints all known
                        // slots. Conservative mode does this for *any*
                        // unknown address.
                        let key_tainted = st.input_tainted[key.0 as usize]
                            || st.storage_tainted[key.0 as usize];
                        let conservative =
                            cfg.storage_model == StorageModel::Conservative;
                        if (key_tainted || conservative)
                            && !(st.all_slots_tainted && st.unknown_store_tainted)
                        {
                            st.all_slots_tainted = true;
                            st.unknown_store_tainted = true;
                            changed = true;
                        }
                    }
                }
            }
            // Enrollment without taint: an attacker-reachable write of a
            // *non-zero constant* into a structure keyed by the attacker
            // (users[msg.sender] = true) makes its membership guards
            // passable.
            for s in p.iter_stmts() {
                if s.op != Op::SStore || !st.rba[s.block.0 as usize] {
                    continue;
                }
                let value_const = prep.ctx.consts[s.uses[1].0 as usize];
                let value_nonzero_const = value_const.is_some_and(|c| !c.is_zero());
                let value_attacker = value_nonzero_const
                    || st.input_tainted[s.uses[1].0 as usize]
                    || st.storage_tainted[s.uses[1].0 as usize]
                    || prep.ctx.ds[s.uses[1].0 as usize];
                if !value_attacker {
                    continue;
                }
                if let KeyClass::Mapping { base, keys } =
                    prep.key_class[s.id.0 as usize].as_ref().unwrap()
                {
                    let key_attacker = keys.iter().any(|k| {
                        prep.ctx.ds[k.0 as usize] || st.input_tainted[k.0 as usize]
                    });
                    if key_attacker {
                        changed |= st.writable_mappings.insert(*base);
                    }
                }
            }
        }

        // Guard defeat:
        // ReachableByAttacker(s) :- StaticallyGuardedStatement(s, guard),
        //                           TaintedFlow(_, guard).
        for g in 0..prep.guards.len() {
            if st.defeated[g] || cfg.freeze_guards {
                continue;
            }
            if guard_defeated(&prep.guards[g], &prep.guard_atoms[g], st, cfg) {
                st.defeated[g] = true;
                st.any_defeat = true;
                changed = true;
            }
        }
        recompute_rba(prep, &st.defeated, &mut st.rba);

        if !changed || st.rounds > 64 {
            break;
        }
    }
}
