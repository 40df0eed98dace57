//! Self-tests of the benchmark's contract: output checks count failures,
//! the printed metric names are `BENCHMARK.json`'s, and the traced run's
//! spans are balanced and nested.
//!
//! Each test drives one real pass of `difftest` (about two seconds in an
//! optimized build): `cargo test --release --manifest-path xuibench/Cargo.toml`.

use serde::Value;
use xuibench::check::REFERENCES;
use xuibench::metrics::{lower_is_better, per_layer, END_TO_END};
use xuibench::runner::{run, Kind, Options, Outcome};

fn one_pass(trace: bool, references: Option<String>) -> Outcome {
    run(&Options {
        kind: Kind::Difftest,
        seed: 0,
        seconds: 0.0,
        trace,
        references,
    })
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => {
            &fields
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no key {key}"))
                .1
        }
        _ => panic!("not an object looking up {key}"),
    }
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        _ => panic!("not an array"),
    }
}

fn string(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string"),
    }
}

/// (name, unit) of every entry of a `BENCHMARK.json` metric list; also
/// checks each entry's `better` direction.
fn listed(doc: &Value, list: &str) -> Vec<(String, String)> {
    array(get(doc, list))
        .iter()
        .map(|m| {
            let name = string(get(m, "name")).to_string();
            let better = if lower_is_better(&name) {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(string(get(m, "better")), better, "{name}");
            (name, string(get(m, "unit")).to_string())
        })
        .collect()
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::value_from_str(&text).expect("BENCHMARK.json parses")
}

fn names(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn corrupted_reference_digest_raises_fail_frac() {
    let clean = one_pass(false, None);
    assert_eq!(
        (clean.failed, clean.problems.len()),
        (0, 0),
        "{:?}",
        clean.problems
    );

    let corrupted: String = REFERENCES
        .lines()
        .map(|l| match l.strip_prefix("difftest/full ") {
            Some(hex) => format!(
                "difftest/full {:016x}\n",
                u64::from_str_radix(hex, 16).expect("hex") ^ 1
            ),
            None => format!("{l}\n"),
        })
        .collect();
    assert_ne!(corrupted, REFERENCES, "the reference line exists");
    let bad = one_pass(false, Some(corrupted));
    assert_eq!(bad.attempted, clean.attempted);
    assert_eq!(bad.failed, 1);
    assert!(
        bad.problems[0].contains("difftest/full"),
        "{:?}",
        bad.problems
    );
}

#[test]
fn printed_metric_names_equal_benchmark_json() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = array(get(&doc, "workloads"))
        .iter()
        .map(|w| string(get(w, "name")))
        .collect();
    assert_eq!(workloads, Kind::ALL.map(Kind::name));

    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed(&doc, "end_to_end"), e2e);
    assert_eq!(listed(&doc, "per_layer"), layers);

    assert_eq!(names(&one_pass(false, None)), e2e);
    let traced = one_pass(true, None);
    assert_eq!(names(&traced), layers);
    let fail_frac = traced
        .metrics
        .iter()
        .find(|m| m.name == "fail_frac")
        .expect("fail_frac printed");
    assert_eq!(
        (fail_frac.value, traced.failed),
        (0.0, 0),
        "traced digests equal untraced"
    );
}

#[test]
fn spans_are_balanced_and_nested() {
    let outcome = one_pass(true, None);
    let tracer = outcome.tracer.expect("traced run keeps its spans");
    tracer.check_nesting().expect("spans nest");
    let spans = tracer.spans();
    for s in spans {
        match s.parent {
            None => assert!(
                s.name.starts_with("harness."),
                "root span {} is not the harness's",
                s.name
            ),
            Some(p) => assert!(
                spans[p].parent.is_none(),
                "layer call {} is nested in another call",
                s.name
            ),
        }
    }
    assert!(spans
        .iter()
        .any(|s| s.name == "oracle.check" && s.key == "sim"));
    let doc = xui_telemetry::chrome::trace_json_grouped(&[xui_telemetry::TraceGroup {
        pid: 0,
        label: "host".to_string(),
        events: tracer.chrome_events(),
    }]);
    let check = xui_telemetry::chrome::validate(&doc).expect("the Chrome trace validates");
    assert_eq!(check.span_pairs, spans.len());
}
