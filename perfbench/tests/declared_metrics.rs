//! `BENCHMARK.json` and `src/report.rs` declare the same metrics, units
//! and workloads.

use perfbench::report::{END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// `(name, unit)` of every `{"name": ..., "unit": ...}` entry in `text`.
fn entries(text: &str) -> Vec<(String, String)> {
    let field = |s: &str, key: &str| -> Option<String> {
        let i = s.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(s[i..i + s[i..].find('"')?].to_string())
    };
    text.split('{')
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let rest = &json[start..];
    &rest[..rest.find(']').expect("section closes")]
}

fn declared(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn end_to_end_metrics_match() {
    let json = benchmark_json();
    assert_eq!(entries(section(&json, "end_to_end")), declared(END_TO_END));
}

#[test]
fn per_layer_metrics_match() {
    let json = benchmark_json();
    assert_eq!(entries(section(&json, "per_layer")), declared(PER_LAYER));
}

#[test]
fn workloads_are_the_four_named_ones() {
    let json = benchmark_json();
    let wl = section(&json, "workloads");
    for name in ["paper-mem", "parallel-mem", "serve-file", "live-htap"] {
        assert!(
            wl.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing"
        );
    }
}
