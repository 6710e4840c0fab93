//! The metric catalogue (it mirrors `BENCHMARK.json`, which a test
//! checks) and the result line.

use std::collections::BTreeMap;

/// The five registry apps whose critical block exceeds the multilevel
/// threshold: the batch workloads' inputs.
pub const HUGE_APPS: [&str; 5] = ["aes", "aes128", "aes256", "synth_xl", "sha256"];

/// The paper's eight apps (`paper_suite()`): the serve corpus.
pub const PAPER_APPS: [&str; 8] = [
    "conven00",
    "fbital00",
    "viterb00",
    "autcor00",
    "adpcm_decoder",
    "adpcm_coder",
    "fft00",
    "aes",
];

/// Serve request classes, in report order.
pub const SERVE_OPS: [&str; 5] = ["cold", "warm", "rtl", "verify", "lint"];

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_s", "s"),
    ("speedup_geomean", "x"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload never calls reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    for name in [
        "workloads.build_ms",
        "ir.write_ms",
        "ir.parse_ms",
        "context.build_ms",
        "search.ms",
    ] {
        add(name, "ms");
    }
    add("search.calls", "count");
    for name in [
        "kl.commits",
        "kl.queue_pops",
        "kl.revalidations",
        "kl.reinsertions",
        "kl.fresh_probes",
        "kl.cached_probes",
        "kl.trajectories",
    ] {
        add(name, "count");
    }
    add("kl.us_per_commit", "us");
    add("kl.revalidations_per_commit", "ratio");
    add("kl.cached_probe_share", "ratio");
    for app in HUGE_APPS {
        add(&format!("kl.trajectory_ms.{app}"), "ms");
    }
    add("driver.self_ms", "ms");
    add("coarsen.ms", "ms");
    add("coarsen.levels", "count");
    add("coarsen.coarsest_free_ops", "count");
    add("coarsen.fell_back", "count");
    add("refine.coarsest_ms", "ms");
    add("refine.uncoarsen_ms", "ms");
    add("refine.pops", "count");
    for app in all_apps() {
        add(&format!("app.{app}.generate_ms"), "ms");
        add(&format!("app.{app}.speedup"), "x");
    }
    add("rtl.emit_ms", "ms");
    add("rtl.verify_ms", "ms");
    add("analysis.lint_ms", "ms");
    for kind in ["handle_ms", "self_ms", "wire_ms"] {
        for op in SERVE_OPS {
            add(&format!("serve.{kind}.{op}"), "ms");
        }
    }
    for name in [
        "serve.cold_ms_p50",
        "serve.cold_ms_p90",
        "serve.warm_ms_p50",
        "serve.warm_ms_p90",
        "serve.verify_ms_p50",
    ] {
        add(name, "ms");
    }
    for name in [
        "serve.context_misses",
        "serve.selection_hits",
        "serve.selection_misses",
        "serve.evictions",
    ] {
        add(name, "count");
    }
    add("bench.check_ms", "ms");
    add("trace.e2e_ms", "ms");
    add("trace.unaccounted_pct", "%");
    add("trace.overhead_pct", "%");
    out
}

/// Every app either workload family runs, each once.
pub fn all_apps() -> Vec<&'static str> {
    let mut apps: Vec<&'static str> = HUGE_APPS.to_vec();
    apps.extend(PAPER_APPS.iter().filter(|a| !HUGE_APPS.contains(a)));
    apps
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable description of each failed check (printed to
    /// stderr; the result line carries only the count).
    pub failures: Vec<String>,
    /// Workload-specific provenance (sample counts, configuration).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one attempted operation, failing it if `problems` is not
    /// empty.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.failures.push(format!("{what}: {p}"));
            }
        }
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// Renders the result line. With `trace` off it carries every
/// end-to-end metric, with `trace` on every per-layer metric; a missing
/// end-to-end value or any non-finite value is an error.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let catalogue: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut parts = Vec::with_capacity(catalogue.len());
    for (name, unit) in &catalogue {
        let value = match outcome.metrics.get(name) {
            Some(v) => v,
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        parts.join(", ")
    ))
}
