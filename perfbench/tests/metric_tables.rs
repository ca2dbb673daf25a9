//! `BENCHMARK.json` at the repository root lists exactly the metrics the
//! benchmark reports, with the same units, and the workloads it runs.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::WORKLOADS;

fn listed(v: &serde::Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(|a| a.as_arr())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(|x| x.as_str()).unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let v = serde_json::parse_value_str(&text).expect("BENCHMARK.json parses");
    let table = |t: &[(&str, &str)]| {
        t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>()
    };
    assert_eq!(listed(&v, "end_to_end"), table(END_TO_END));
    assert_eq!(listed(&v, "per_layer"), table(PER_LAYER));
    let workloads: Vec<String> =
        listed(&v, "workloads").into_iter().map(|(name, _)| name).collect();
    assert_eq!(workloads, WORKLOADS);
}
