//! Reduced-size self-test: small inputs through every workload's code
//! path, checking that each named metric appears with its unit, and that
//! the catalogue matches `BENCHMARK.json`.

use crate::metrics::{self, END_TO_END};
use crate::{batch, serve_mix, Opts, WORKLOADS};
use isegen_core::{MultilevelConfig, SearchConfig};
use isegen_serve::json::{self, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to isebench/");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let bench = benchmark_json();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_and_units(bench.get("end_to_end").unwrap()), e2e);
    let layers: Vec<(String, String)> = metrics::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names_and_units(bench.get("per_layer").unwrap()), layers);
    let workloads: Vec<(String, String)> = bench
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            let field = |k| w.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("why"))
        })
        .collect();
    let expected: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(workloads, expected);
}

fn opts(workload: &str, trace: bool) -> Opts {
    Opts {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.2,
        trace,
    }
}

/// Runs `run` with tracing off and on; each result line must parse,
/// report no failed check and carry every metric of its catalogue with
/// the catalogue's unit.
fn reports_every_metric(run: impl Fn(&Opts) -> Result<metrics::Outcome, String>, name: &str) {
    for trace in [false, true] {
        let outcome = run(&opts(name, trace)).expect("reduced run");
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
        let line = metrics::result_line(&outcome, trace).expect("result line");
        let result = json::parse(&line).expect("result line is JSON");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        let reported = result.get("metrics").expect("metrics");
        let catalogue: Vec<(String, &str)> = if trace {
            metrics::per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let Json::Obj(members) = reported else {
            panic!("metrics is not an object");
        };
        assert_eq!(members.len(), catalogue.len());
        for (metric, unit) in catalogue {
            let entry = reported
                .get(&metric)
                .unwrap_or_else(|| panic!("{metric} missing"));
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(unit),
                "{metric}"
            );
            let value = entry.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{metric}");
            if !trace {
                assert!(value.unwrap() > 0.0, "{metric} must never be 0");
            }
        }
    }
}

#[test]
fn reduced_single_level_reports_every_metric() {
    reports_every_metric(
        |o| batch::run(&["fir00", "aes"], &SearchConfig::default(), o),
        "single_level",
    );
}

#[test]
fn reduced_multilevel_reports_every_metric() {
    let ml = MultilevelConfig::default();
    reports_every_metric(
        |o| {
            batch::run(
                &["fir00", "aes"],
                &SearchConfig::default().with_multilevel(ml),
                o,
            )
        },
        "multilevel",
    );
}

#[test]
fn reduced_serve_mix_reports_every_metric() {
    reports_every_metric(
        |o| serve_mix::run(&["conven00", "fbital00"], o),
        "serve_mix",
    );
}
