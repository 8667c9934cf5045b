//! The verdict golden: the production batch path ([`store::Scanner`],
//! no checkpoint, no cache) over three pinned populations, compared
//! with the committed table `tests/golden/verdicts.jsonl`.
//!
//! The table holds, per population, a Keccak-256 digest of the
//! `verdict_only` records (the `merged.jsonl` lines) plus one row per
//! contract: its status tag, its scalar fields as they are, and an
//! 8-hex digest of each structured field (`facts`, `lint`, …). A
//! verdict that changes shows up as a failure naming the first
//! differing contract and field.
//!
//! The table is keyed by [`ethainter::ANALYZER_VERSION`], the version
//! in every cache key. A change that alters verdicts must bump that
//! version and regenerate the table in the same change — one visible
//! diff:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p store --test verdict_golden
//! ```

use corpus::{PopulationConfig, Scale};
use driver::DriverConfig;
use serde::{Serialize, Value};
use std::time::Duration;
use store::{MemorySource, Scanner, VerdictRecord};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/verdicts.jsonl");

/// `(id, bytecode)` pairs, the scanner's in-memory input.
type Contracts = Vec<(String, Vec<u8>)>;

/// `(name, contracts)` for each pinned population. Ids follow
/// `ethainter batch --corpus`, so a row can be found in its output.
fn populations() -> Vec<(&'static str, Contracts)> {
    let pick = |seed: u64, scale: Scale, keep: &dyn Fn(usize) -> bool, upto: usize| {
        let cfg = PopulationConfig {
            seed,
            scale,
            ..PopulationConfig::default()
        };
        corpus::stream(&cfg)
            .take(upto)
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, c)| (format!("{}#{}", c.family, c.id), c.bytecode))
            .collect()
    };
    vec![
        (
            "small seed 42 x 300",
            pick(42, Scale::Small, &|_| true, 300),
        ),
        (
            "realistic seed 7 x 10",
            pick(7, Scale::Realistic, &|_| true, 10),
        ),
        // Contract 64 is the first of this stream whose decompile runs
        // out of budget, so a `DecompileFailed` reason is pinned too.
        (
            "adversarial seed 3, contracts 0-4 and 64",
            pick(3, Scale::Adversarial, &|i| i < 5 || i == 64, 65),
        ),
    ]
}

/// Scans one population and returns its verdict records in input order.
fn scan(items: Contracts) -> Vec<VerdictRecord> {
    let mut records = Vec::new();
    let mut scanner = Scanner {
        // A budget no contract reaches in a debug build: a timeout is
        // not deterministic and would make the table flaky.
        driver: DriverConfig {
            jobs: 0,
            timeout: Duration::from_secs(300),
        },
        ..Scanner::default()
    };
    scanner
        .scan(
            MemorySource::new(items),
            None,
            |o| records.push(VerdictRecord::from_outcome(o)),
            |e| panic!("source error: {e}"),
        )
        .unwrap();
    records.sort_by_key(|r| r.index);
    records
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One table row: id, status tag, scalar fields verbatim, structured
/// fields as an 8-hex digest of their JSON.
fn row(record: &VerdictRecord) -> String {
    let mut fields = vec![("id".to_string(), Value::Str(record.id.clone()))];
    match record.status.serialize() {
        Value::Str(tag) => fields.push(("status".into(), Value::Str(tag))),
        Value::Object(variant) => {
            let (tag, body) = variant.into_iter().next().expect("one variant");
            fields.push(("status".into(), Value::Str(tag)));
            let Value::Object(body) = body else {
                panic!("struct variant expected")
            };
            for (name, value) in body {
                let value = match value {
                    Value::Array(_) | Value::Object(_) => {
                        let json = serde_json::to_string(&value).unwrap();
                        Value::Str(hex(&evm::keccak256(json.as_bytes())[..4]))
                    }
                    scalar => scalar,
                };
                fields.push((name, value));
            }
        }
        other => panic!("unexpected status encoding {other:?}"),
    }
    serde_json::to_string(&Value::Object(fields)).unwrap()
}

/// The whole table as it is committed.
fn render() -> String {
    let mut out = serde_json::to_string(&Value::Object(vec![(
        "analyzer_version".into(),
        Value::Str(ethainter::ANALYZER_VERSION.into()),
    )]))
    .unwrap();
    out.push('\n');
    for (name, items) in populations() {
        let records = scan(items);
        let merged: String = records
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect();
        let header = Value::Object(vec![
            ("population".into(), Value::Str(name.into())),
            ("contracts".into(), Value::UInt(records.len() as u64)),
            (
                "digest".into(),
                Value::Str(hex(&evm::keccak256(merged.as_bytes()))),
            ),
        ]);
        out.push_str(&serde_json::to_string(&header).unwrap());
        out.push('\n');
        for r in &records {
            out.push_str(&row(r));
            out.push('\n');
        }
    }
    out
}

/// Names the first differing contract row and field of two tables
/// (population headers only differ because a row does).
fn first_difference(got: &str, want: &str) -> String {
    for (g, w) in got.lines().zip(want.lines()) {
        if g == w {
            continue;
        }
        let (g, w) = (serde_json::parse(g).unwrap(), serde_json::parse(w).unwrap());
        let Some(id) = w.get("id") else { continue };
        let (Value::Object(gf), Value::Object(wf)) = (&g, &w) else {
            unreachable!()
        };
        let show =
            |v: Option<&Value>| v.map_or("absent".into(), |v| serde_json::to_string(v).unwrap());
        let names = wf.iter().chain(gf).map(|(n, _)| n);
        for name in names {
            let (was, now) = (w.get(name), g.get(name));
            if was != now {
                let (id, was, now) = (show(Some(id)), show(was), show(now));
                return format!("contract {id}: field `{name}` was {was}, now {now}");
            }
        }
    }
    format!(
        "the tables differ in length ({} rows committed, {} now)",
        want.lines().count(),
        got.lines().count()
    )
}

#[test]
fn verdicts_match_the_golden_table() {
    let got = render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).unwrap();
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden table exists");
    let version = serde_json::parse(want.lines().next().unwrap_or("{}"))
        .ok()
        .and_then(|v| v.get("analyzer_version").cloned());
    assert_eq!(
        version,
        Some(Value::Str(ethainter::ANALYZER_VERSION.into())),
        "{GOLDEN} pins another analyzer version: regenerate it with UPDATE_GOLDEN=1 \
         in the change that bumps ANALYZER_VERSION"
    );
    if got != want {
        panic!(
            "verdicts changed under the same ANALYZER_VERSION: {}. Bump the version \
             and regenerate {GOLDEN} with UPDATE_GOLDEN=1 if the change is deliberate",
            first_difference(&got, &want)
        );
    }
}
