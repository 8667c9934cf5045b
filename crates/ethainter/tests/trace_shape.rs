//! Trace determinism: the *shape* of a contract's span tree — names
//! and nesting, durations excluded — is a function of the contract and
//! the config, not of the engine, the run, or what else the process
//! has analyzed before.
//!
//! This is the observability counterpart of the verdict byte-identity
//! guarantees: if the production engine and the dense reference oracle
//! (`ethainter::reference`) claim identical verdicts, their phase
//! structure must be identical too, or the trace route would leak
//! engine internals into what operators treat as the pipeline's stable
//! anatomy.

use ethainter::Config;
use std::sync::Mutex;
use telemetry::trace::{self, SpanNode};

// One global trace store per process: runs must not interleave their
// retained traces.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A composite-vulnerable contract: tainted owner write + selfdestruct,
/// so the default config exercises the full phase set — decompile,
/// passes, index_build, fixpoint, sink_scan with detectors/effects and
/// the composite re-evaluation (which nests another detector sweep).
const SOURCE: &str = "
contract Suicidal {
    address owner;
    uint total;
    function claim(address who) public { owner = who; }
    function add(uint v) public { total = total + v; }
    function kill() public { require(msg.sender == owner); selfdestruct(msg.sender); }
}
";

/// Renders a span forest as a duration-free shape string:
/// `name(child(grandchild),sibling)`.
fn shape(nodes: &[SpanNode]) -> String {
    let mut out = String::new();
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&n.name);
        if !n.children.is_empty() {
            out.push('(');
            out.push_str(&shape(&n.children));
            out.push(')');
        }
    }
    out
}

/// Analyzes `bytecode` under a fresh retained trace and returns the
/// resulting span-tree shape.
fn traced_shape(bytecode: &[u8], cfg: &Config) -> String {
    shape_of(|| drop(ethainter::analyze_bytecode(bytecode, cfg)))
}

/// Runs `analysis` under a fresh retained trace and returns the
/// resulting span-tree shape.
fn shape_of(analysis: impl FnOnce()) -> String {
    let id = trace::mint();
    trace::retain(id);
    {
        let _ctx = trace::root(id);
        let sp = telemetry::span("ethainter.contract");
        analysis();
        sp.finish_us();
    }
    let records = trace::spans_for(id).expect("trace was retained");
    trace::discard(id);
    assert!(
        records.iter().all(|r| r.trace == id),
        "every span in the buffer carries the owning trace id"
    );
    shape(&trace::build_tree(&records))
}

#[test]
fn span_tree_shape_is_identical_across_engines_and_runs() {
    let _g = serial();
    let code = minisol::compile_source(SOURCE).expect("compiles").bytecode;

    let cfg = Config::default();

    let first = traced_shape(&code, &cfg);
    assert!(first.contains("ethainter.decompile"), "shape lists phases: {first}");
    assert!(first.contains("ethainter.index_build"), "{first}");
    assert!(first.contains("ethainter.fixpoint"), "{first}");
    assert!(first.contains("ethainter.sink_scan("), "sink_scan has sub-phases: {first}");
    assert!(first.contains("ethainter.detectors"), "{first}");
    assert!(first.contains("ethainter.effects"), "{first}");
    assert!(
        first.contains("ethainter.composite("),
        "the composite re-evaluation nests its own sweep: {first}"
    );

    // Repeated runs: the same engine yields the same anatomy.
    assert_eq!(traced_shape(&code, &cfg), first, "sparse is repeatable");
    // Engine swap: the reference oracle walks the same analysis phases
    // in the same nesting over the same prepared program.
    let mut p = decompiler::decompile(&code);
    decompiler::optimize(&mut p, &decompiler::PassConfig::default());
    let sparse = shape_of(|| drop(ethainter::analyze(&p, &cfg)));
    let dense = shape_of(|| drop(ethainter::reference::analyze(&p, &cfg)));
    let analysis_phases = &sparse[sparse.find('(').unwrap() + 1..];
    assert!(first.ends_with(analysis_phases), "{first} vs {sparse}");
    assert_eq!(dense, sparse, "dense matches sparse");
    assert_eq!(shape_of(|| drop(ethainter::reference::analyze(&p, &cfg))), dense);
}

#[test]
fn shape_differs_only_when_the_config_actually_changes_phases() {
    let _g = serial();
    let code = minisol::compile_source(SOURCE).expect("compiles").bytecode;

    let base = traced_shape(&code, &Config::default());
    // Witness extraction is a real phase: turning it on must add the
    // witness span and change nothing else's nesting.
    let with_witness =
        traced_shape(&code, &Config { witness: true, ..Config::default() });
    assert_ne!(base, with_witness);
    assert!(with_witness.contains("ethainter.witness"), "{with_witness}");
    assert!(!base.contains("ethainter.witness"), "{base}");
    assert_eq!(
        with_witness.replace(",ethainter.witness", ""),
        base,
        "the witness span is the only delta"
    );
}
