//! The benchmark at a tiny scale: every workload, traced and untraced,
//! at two seeds, passes its oracle and reports exactly the metrics
//! `BENCHMARK.json` registers, each finite and with its registered unit.

use just_ql::JsonValue;
use qlbench::{run, Options, Scale, Workload};
use std::path::PathBuf;

/// `(name, unit)` of each metric in one list of `BENCHMARK.json`.
fn registered(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let Some(JsonValue::Array(items)) = json.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| match m.get(k).and_then(JsonValue::as_str) {
                Some(s) => s.to_string(),
                None => panic!("{list} entry without a string {k}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check(workload: Workload) {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for seed in [1, 2] {
        for trace in [false, true] {
            let tag = format!("{}-{seed}-{trace}", workload.name());
            let opts = Options {
                workload,
                seed,
                seconds: 0.2,
                trace,
                scale: Scale::tiny(),
                data_dir: tmp.join(format!("data-{tag}")),
                out_dir: tmp.join(format!("out-{tag}")),
            };
            let out = run(&opts).unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert!(out.correct(), "{tag}: {:?}", out.failures);
            assert!(out.attempted > 0, "{tag}: nothing attempted");
            let want = registered(if trace { "per_layer" } else { "end_to_end" });
            let got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let (mut want_sorted, mut got_sorted) = (want.clone(), got.clone());
            want_sorted.sort();
            got_sorted.sort();
            assert_eq!(got_sorted, want_sorted, "{tag}: metric set differs");
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{tag}: {} = {}", m.name, m.value);
            }
            assert!(!opts.data_dir.exists(), "{tag}: scratch data left behind");
        }
    }
}

#[test]
fn order_range_reports_every_metric() {
    check(Workload::OrderRange);
}

#[test]
fn traj_scan_reports_every_metric() {
    check(Workload::TrajScan);
}

#[test]
fn order_knn_reports_every_metric() {
    check(Workload::OrderKnn);
}

#[test]
fn order_ingest_reports_every_metric() {
    check(Workload::OrderIngest);
}
