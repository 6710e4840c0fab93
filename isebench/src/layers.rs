//! Timed calls into the layers, made from the benchmark's own code.

use isegen_core::{
    BlockContext, ContextData, CutFinder, Generator, IoConstraints, IseConfig, IseSelection,
    IsegenFinder, SearchConfig,
};
use isegen_graph::NodeSet;
use isegen_ir::{Application, LatencyModel};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Builds each block's search context once.
pub fn context_data(app: &Application, model: &LatencyModel) -> Vec<Arc<ContextData>> {
    app.blocks()
        .iter()
        .map(|b| BlockContext::new(b, model).data())
        .collect()
}

/// Reattaches prebuilt context data to an app's blocks (no recomputation).
pub fn attach<'a>(app: &'a Application, data: &[Arc<ContextData>]) -> Vec<BlockContext<'a>> {
    app.blocks()
        .iter()
        .zip(data)
        .map(|(b, d)| BlockContext::with_data(b, Arc::clone(d)))
        .collect()
}

/// Total wall time and call count of the `find_cut` calls made through
/// a [`TimedFinder`] and all its clones.
#[derive(Debug, Default, Clone, Copy)]
pub struct SearchTime {
    pub ms: f64,
    pub calls: u64,
}

/// [`IsegenFinder`] with a stopwatch around every block search, so the
/// driver's own time (ranking, forbidden sets, the reuse match) is the
/// pass time minus the search time.
#[derive(Debug, Clone)]
pub struct TimedFinder {
    pub inner: IsegenFinder,
    time: Arc<Mutex<SearchTime>>,
}

impl TimedFinder {
    pub fn new(search: SearchConfig) -> TimedFinder {
        TimedFinder {
            inner: IsegenFinder::new(search),
            time: Arc::default(),
        }
    }

    pub fn time(&self) -> SearchTime {
        *self.time.lock().expect("search timer poisoned")
    }
}

impl CutFinder for TimedFinder {
    fn find_cut(
        &mut self,
        ctx: &BlockContext<'_>,
        io: IoConstraints,
        forbidden: Option<&NodeSet>,
    ) -> isegen_core::Cut {
        self.find_cut_budget(ctx, io, forbidden, 1)
    }

    fn find_cut_budget(
        &mut self,
        ctx: &BlockContext<'_>,
        io: IoConstraints,
        forbidden: Option<&NodeSet>,
        threads: usize,
    ) -> isegen_core::Cut {
        let start = Instant::now();
        let cut = self.inner.find_cut_budget(ctx, io, forbidden, threads);
        let ms = ms_since(start);
        let mut time = self.time.lock().expect("search timer poisoned");
        time.ms += ms;
        time.calls += 1;
        cut
    }

    fn name(&self) -> &str {
        "isegen-timed"
    }
}

/// One pass of single-threaded generation over several apps, in the
/// given order, with or without the search stopwatch.
pub struct Pass {
    /// Selection per app, indexed like the input (not like the order).
    /// [`crate::batch::Passes`] empties it once checked, except for a
    /// run's first pass.
    pub selections: Vec<IseSelection>,
    /// Wall time per app, indexed like the input.
    pub app_ms: Vec<f64>,
    pub wall_ms: f64,
    pub stats: isegen_core::CacheStats,
    /// Search stopwatch totals; `None` for an untimed pass.
    pub search: Option<SearchTime>,
}

pub fn run_pass(
    apps: &[(&Application, &[Arc<ContextData>])],
    order: &[usize],
    search: &SearchConfig,
    timed: bool,
) -> Pass {
    if timed {
        let mut gen = Generator::new(IseConfig::paper_default())
            .finder(TimedFinder::new(search.clone()))
            .threads(crate::THREADS);
        let (selections, app_ms, wall_ms) = drive(&mut gen, apps, order);
        Pass {
            selections,
            app_ms,
            wall_ms,
            stats: gen.finder_ref().inner.accumulated_stats(),
            search: Some(gen.finder_ref().time()),
        }
    } else {
        let mut gen = Generator::new(IseConfig::paper_default())
            .search(search.clone())
            .threads(crate::THREADS);
        let (selections, app_ms, wall_ms) = drive(&mut gen, apps, order);
        Pass {
            selections,
            app_ms,
            wall_ms,
            stats: gen.finder_ref().accumulated_stats(),
            search: None,
        }
    }
}

fn drive<F: CutFinder + Clone + Send + Sync>(
    gen: &mut Generator<F>,
    apps: &[(&Application, &[Arc<ContextData>])],
    order: &[usize],
) -> (Vec<IseSelection>, Vec<f64>, f64) {
    let mut selections = vec![None; apps.len()];
    let mut app_ms = vec![0.0; apps.len()];
    let start = Instant::now();
    for &i in order {
        let contexts = attach(apps[i].0, apps[i].1);
        let t = Instant::now();
        selections[i] = Some(gen.run_in_contexts(&contexts));
        app_ms[i] = ms_since(t);
    }
    let wall_ms = ms_since(start);
    (selections.into_iter().flatten().collect(), app_ms, wall_ms)
}
