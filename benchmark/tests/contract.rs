//! `BENCHMARK.json` and the benchmark's own tables must name the same
//! workloads and metrics, in the same order, with the same units,
//! directions and bounds — a run prints from the tables, the acceptance
//! driver reads the file.

use jc_benchmark::metrics::{Decl, END_TO_END, PER_LAYER, WORKLOADS};
use jc_deploy::json::{self, Value};

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("valid JSON")
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|v| v.get("name").and_then(Value::as_str).expect("entry has a name").to_string())
        .collect()
}

fn assert_decls_match(doc: &Value, key: &str, table: &[Decl], bounded: bool) {
    let entries = doc.get(key).and_then(Value::as_array).expect("metric list");
    assert_eq!(names(doc, key), table.iter().map(|d| d.name).collect::<Vec<_>>(), "{key} names");
    for (e, d) in entries.iter().zip(table) {
        assert_eq!(e.get("unit").and_then(Value::as_str), Some(d.unit), "{}: unit", d.name);
        assert_eq!(e.get("better").and_then(Value::as_str), Some(d.better), "{}: better", d.name);
        assert!(matches!(d.better, "lower" | "higher"), "{}: direction", d.name);
        let keys = e.as_object().expect("object").len();
        if bounded {
            assert_eq!(e.get("bound").and_then(Value::as_f64), Some(d.bound), "{}: bound", d.name);
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}: bound out of range", d.name);
            assert_eq!(keys, 4, "{}: exactly name, unit, better, bound", d.name);
        } else {
            assert_eq!(keys, 3, "{}: exactly name, unit, better", d.name);
        }
    }
}

#[test]
fn benchmark_json_matches_the_tables() {
    let doc = contract();
    assert_eq!(names(&doc, "workloads"), WORKLOADS);
    assert_decls_match(&doc, "end_to_end", &END_TO_END, true);
    assert_decls_match(&doc, "per_layer", &PER_LAYER, false);
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
}

#[test]
fn benchmark_json_names_only_the_benchmark_directory() {
    let doc = contract();
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
}

#[test]
fn metric_names_are_unique_and_well_formed() {
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).chain(WORKLOADS) {
        assert!(seen.insert(d), "{d} is used twice");
        assert!(d.len() <= 64 && d.chars().next().unwrap().is_ascii_alphanumeric(), "{d}");
        assert!(d.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{d}");
    }
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(d.unit.len() <= 16, "{}: unit {}", d.name, d.unit);
        assert!(
            d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}",
            d.name
        );
    }
}
