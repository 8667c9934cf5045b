//! # decompiler — EVM bytecode → three-address code
//!
//! A Gigahorse-style decompiler (paper §5: Ethainter runs on the
//! Gigahorse toolchain's functional 3-address IR). Reconstructs control
//! flow from stack-machine bytecode by abstract-stack interpretation with
//! context cloning, discovers public functions from the selector
//! dispatcher, recognizes Solidity's `keccak256(key ++ slot)` mapping
//! idiom as first-class [`tac::Op::Hash2`] statements, and computes
//! dominators for guard inference.
//!
//! The [`passes`] module adds a static-analysis layer over the emitted
//! TAC: def-use worklist constant propagation and mark-sweep dead-code
//! elimination (run by the analysis before its fixpoint), interval
//! analysis for branch pruning, per-function storage summaries, and an
//! IR well-formedness validator.
//!
//! # Examples
//!
//! ```
//! let src = "contract C { function f() public {} }";
//! let compiled = minisol::compile_source(src).unwrap();
//! let program = decompiler::decompile(&compiled.bytecode);
//! assert_eq!(program.functions.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod defuse;
pub mod dom;
pub mod passes;
pub mod tac;

pub use builder::{decompile, decompile_with_limits, Limits};
pub use defuse::DefUse;
pub use dom::Dominators;
pub use passes::{optimize, validate::validate, PassConfig, PassStats};
pub use tac::{Block, BlockId, Op, Program, PublicFunction, Stmt, StmtId, Var};
