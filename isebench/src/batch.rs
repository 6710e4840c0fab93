//! The batch workloads: in-process, single-threaded generation passes
//! over the five huge registry apps, with the default (single-level)
//! or the multilevel search.

use crate::check;
use crate::layers::{self, ms_since, Pass};
use crate::metrics::{Metrics, Outcome, HUGE_APPS};
use crate::stats::{geomean, median, peak_rss_mib, Rng};
use crate::Opts;
use isegen_core::{BlockContext, ContextData, IseConfig, Search, SearchConfig};
use isegen_ir::{parse_application, write_application, Application, LatencyModel};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups after each pass; `setup_s` is the median of all set-ups.
const SETUPS_PER_PASS: usize = 3;
/// Fewest passes a run makes.
const MIN_PASSES: usize = 3;

/// The apps of one batch run, built, round-tripped through the text IR
/// and with every block's context computed.
pub struct Prepared {
    pub apps: Vec<Application>,
    pub data: Vec<Vec<Arc<ContextData>>>,
}

impl Prepared {
    /// Each app with its context data, as the pass runner takes them.
    pub fn borrowed(&self) -> Vec<(&Application, &[Arc<ContextData>])> {
        self.apps
            .iter()
            .zip(&self.data)
            .map(|(a, d)| (a, d.as_slice()))
            .collect()
    }
}

/// Milliseconds of one set-up, by layer.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    build: f64,
    write: f64,
    parse: f64,
    context: f64,
    total: f64,
}

fn setup(names: &[&str], model: &LatencyModel) -> Result<(Prepared, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let start = Instant::now();
    let mut apps = Vec::with_capacity(names.len());
    let mut data = Vec::with_capacity(names.len());
    for name in names {
        let s = Instant::now();
        let spec = isegen_workloads::workload_by_name(name)
            .ok_or_else(|| format!("no registry workload {name}"))?;
        let built = spec.application();
        t.build += ms_since(s);
        let s = Instant::now();
        let text = write_application(&built);
        t.write += ms_since(s);
        let s = Instant::now();
        let app = parse_application(&text).map_err(|e| format!("{name}: {e}"))?;
        t.parse += ms_since(s);
        let s = Instant::now();
        data.push(layers::context_data(&app, model));
        t.context += ms_since(s);
        apps.push(app);
    }
    t.total = ms_since(start);
    Ok((Prepared { apps, data }, t))
}

/// Runs one batch workload over `names` with `search`.
pub fn run(names: &[&str], search: &SearchConfig, opts: &Opts) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let model = LatencyModel::paper_default();
    let mut out = Outcome::default();
    let (prepared, first_setup) = setup(names, &model)?;
    let mut setups = vec![first_setup];
    let apps = prepared.borrowed();
    if opts.trace {
        profile_critical_blocks(&apps, names, search, &mut out);
    }
    let mut passes = Passes::new(opts.seed);
    loop {
        let wall = passes.step(&apps, names, search, opts.trace, &mut out);
        // Set-ups are repeated between passes, so they sample the same
        // stretch of machine time as the passes do.
        for _ in 0..SETUPS_PER_PASS {
            setups.push(setup(names, &model)?.1);
        }
        let next = Duration::from_secs_f64(wall / 1e3) * if opts.trace { 2 } else { 1 };
        if passes.balanced() && passes.count() >= MIN_PASSES && Instant::now() + next > deadline {
            break;
        }
    }
    out.note("apps", names.join(" "));
    out.note("ise_config", format!("{:?}", IseConfig::paper_default()));
    out.note("search_config", format!("{search:?}"));
    out.note("passes", passes.count());
    out.note("setups", setups.len());
    let pass_ms: Vec<String> = passes
        .untimed
        .iter()
        .chain(&passes.timed)
        .map(|p| format!("{:.1}", p.wall_ms))
        .collect();
    out.note("pass_ms", pass_ms.join(" "));

    let m = &mut out.metrics;
    if !opts.trace {
        let pass_ms: Vec<f64> = passes.untimed.iter().map(|p| p.wall_ms).collect();
        m.set(
            "setup_s",
            median(&setups.iter().map(|t| t.total).collect::<Vec<_>>()) / 1e3,
        );
        m.set("pass_s", median(&pass_ms) / 1e3);
        m.set("speedup_geomean", geomean(&passes.speedups()));
        m.set(
            "peak_rss_mb",
            peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?,
        );
        return Ok(out);
    }

    // Traced: set-up layers (medians over the repetitions).
    let setup_med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    m.set("workloads.build_ms", setup_med(|t| t.build));
    m.set("ir.write_ms", setup_med(|t| t.write));
    m.set("ir.parse_ms", setup_med(|t| t.parse));
    m.set("context.build_ms", setup_med(|t| t.context));
    passes.report(names, m);

    // Accounting: the traced path (set-ups and timed passes with their
    // checks) against the layer times measured inside it.
    let e2e = setups.iter().map(|t| t.total).sum::<f64>() + passes.timed_iteration_ms;
    let accounted = setups
        .iter()
        .map(|t| t.build + t.write + t.parse + t.context)
        .sum::<f64>()
        + passes.timed.iter().map(|p| p.wall_ms).sum::<f64>()
        + passes.check_ms.iter().sum::<f64>();
    m.set("trace.e2e_ms", e2e);
    m.set("trace.unaccounted_pct", (e2e - accounted) / e2e * 100.0);
    let timed_wall = median(&passes.timed.iter().map(|p| p.wall_ms).collect::<Vec<_>>());
    let untimed_wall = median(&passes.untimed.iter().map(|p| p.wall_ms).collect::<Vec<_>>());
    m.set(
        "trace.overhead_pct",
        (timed_wall / untimed_wall - 1.0) * 100.0,
    );
    Ok(out)
}

/// Every checked pass of a run.
pub struct Passes {
    pub untimed: Vec<Pass>,
    pub timed: Vec<Pass>,
    /// Check time of each timed pass.
    pub check_ms: Vec<f64>,
    /// Wall time of the timed passes with their checks.
    pub timed_iteration_ms: f64,
    rng: Rng,
}

impl Passes {
    /// No passes yet; `seed` orders the apps of every pass.
    pub fn new(seed: u64) -> Passes {
        Passes {
            untimed: Vec::new(),
            timed: Vec::new(),
            check_ms: Vec::new(),
            timed_iteration_ms: 0.0,
            rng: Rng::new(seed),
        }
    }

    pub fn count(&self) -> usize {
        self.untimed.len() + self.timed.len()
    }

    /// Whether a traced run has as many timed as untimed passes.
    pub fn balanced(&self) -> bool {
        self.timed.is_empty() || self.timed.len() == self.untimed.len()
    }

    /// Runs one checked generation pass over `apps` in a fresh seeded
    /// order and returns its wall time. A traced run alternates untimed
    /// and timed passes: the untimed ones are the baseline the tracing
    /// overhead is measured against. Every app of every pass is one
    /// attempted operation: its ISEs must re-derive and be legal, and its
    /// selection and the pass's K-L counters must repeat the first
    /// pass's exactly.
    pub fn step(
        &mut self,
        apps: &[(&Application, &[Arc<ContextData>])],
        names: &[&str],
        search: &SearchConfig,
        trace: bool,
        out: &mut Outcome,
    ) -> f64 {
        let iteration = Instant::now();
        let mut order: Vec<usize> = (0..apps.len()).collect();
        self.rng.shuffle(&mut order);
        let is_timed = trace && self.untimed.len() > self.timed.len();
        let mut pass = layers::run_pass(apps, &order, search, is_timed);

        let s = Instant::now();
        let done = self.count();
        let pass_problems = check::same_pass(self.untimed.first().unwrap_or(&pass), &pass);
        for (i, sel) in pass.selections.iter().enumerate() {
            let contexts = layers::attach(apps[i].0, apps[i].1);
            let mut problems = check::selection(&contexts, sel);
            problems.extend(pass_problems.iter().cloned());
            out.record(&format!("{} pass {done}", names[i]), problems);
        }
        let check_ms = ms_since(s);
        let wall = pass.wall_ms;
        // Only the first pass's selections are kept (the rest equal them),
        // so the benchmark's own memory does not grow with the run.
        if done > 0 {
            pass.selections = Vec::new();
        }
        if is_timed {
            self.timed.push(pass);
            self.check_ms.push(check_ms);
            self.timed_iteration_ms += ms_since(iteration);
        } else {
            self.untimed.push(pass);
        }
        wall
    }
    /// Speedup per app (every pass has the same selections).
    pub fn speedups(&self) -> Vec<f64> {
        self.untimed[0]
            .selections
            .iter()
            .map(|s| s.speedup())
            .collect()
    }

    /// Per-layer metrics of the timed passes: search and driver time
    /// (medians), exact K-L counters and their ratios, per-app rows.
    pub fn report(&self, names: &[&str], m: &mut Metrics) {
        let search = |p: &Pass| p.search.unwrap_or_default();
        let search_ms: Vec<f64> = self.timed.iter().map(|p| search(p).ms).collect();
        let driver_ms: Vec<f64> = self
            .timed
            .iter()
            .map(|p| p.wall_ms - search(p).ms)
            .collect();
        let stats = self.timed[0].stats;
        let search_median = median(&search_ms);
        m.set("search.ms", search_median);
        m.set("search.calls", search(&self.timed[0]).calls as f64);
        for (name, value) in check::kl_counters(&stats) {
            m.set(name, value as f64);
        }
        let commits = stats.commits.max(1) as f64;
        m.set("kl.us_per_commit", search_median * 1e3 / commits);
        m.set(
            "kl.revalidations_per_commit",
            stats.queue_stale_revalidations as f64 / commits,
        );
        m.set(
            "kl.cached_probe_share",
            stats.cached_probes as f64 / (stats.cached_probes + stats.fresh_probes).max(1) as f64,
        );
        m.set("driver.self_ms", median(&driver_ms));
        let speedups = self.speedups();
        for (i, name) in names.iter().enumerate() {
            let ms: Vec<f64> = self.timed.iter().map(|p| p.app_ms[i]).collect();
            m.set(format!("app.{name}.generate_ms"), median(&ms));
            m.set(format!("app.{name}.speedup"), speedups[i]);
        }
        m.set("bench.check_ms", median(&self.check_ms));
    }
}

/// One profiled search per huge app's critical block: the K-L
/// trajectory times and, under the multilevel config, the V-cycle
/// report. These searches are trace-only work, outside `trace.e2e_ms`.
pub fn profile_critical_blocks(
    apps: &[(&Application, &[Arc<ContextData>])],
    names: &[&str],
    search: &SearchConfig,
    out: &mut Outcome,
) {
    let (mut coarsen_ms, mut levels, mut coarsest_free, mut fell_back) = (0.0, 0, 0, 0);
    let (mut coarsest_ms, mut uncoarsen_ms, mut pops) = (0.0, 0.0, 0u64);
    for (i, name) in names.iter().enumerate() {
        if !HUGE_APPS.contains(name) {
            continue;
        }
        let (app, data) = apps[i];
        let Some(index) = critical_index(app) else {
            continue;
        };
        let ctx = BlockContext::with_data(&app.blocks()[index], Arc::clone(&data[index]));
        let outcome = Search::new(search.clone())
            .profiled(true)
            .run(&ctx, check::io());
        let problems = if outcome.cut.is_empty() {
            vec!["profiled search found no cut".to_string()]
        } else {
            check::legality(&ctx, &outcome.cut, "profiled cut")
        };
        out.record(&format!("{name} profiled search"), problems);
        let wall: Vec<f64> = outcome.reports.iter().map(|r| r.wall_ms).collect();
        out.metrics
            .set(format!("kl.trajectory_ms.{name}"), median(&wall));
        if let Some(ml) = &outcome.multilevel {
            coarsen_ms += ml.coarsen_wall_ms;
            levels += ml.levels.len().saturating_sub(1);
            coarsest_free += ml.levels.first().map_or(0, |l| l.free_ops);
            fell_back += usize::from(ml.fell_back);
            coarsest_ms += ml.levels.first().map_or(0.0, |l| l.wall_ms);
            uncoarsen_ms += ml.levels.iter().skip(1).map(|l| l.wall_ms).sum::<f64>();
            pops += ml.levels.iter().map(|l| l.refine_pops).sum::<u64>();
        }
    }
    let m = &mut out.metrics;
    m.set("coarsen.ms", coarsen_ms);
    m.set("coarsen.levels", levels as f64);
    m.set("coarsen.coarsest_free_ops", coarsest_free as f64);
    m.set("coarsen.fell_back", fell_back as f64);
    m.set("refine.coarsest_ms", coarsest_ms);
    m.set("refine.uncoarsen_ms", uncoarsen_ms);
    m.set("refine.pops", pops as f64);
}

/// Index of the app's critical block.
fn critical_index(app: &Application) -> Option<usize> {
    let critical = app.critical_block()?;
    app.blocks().iter().position(|b| std::ptr::eq(b, critical))
}
