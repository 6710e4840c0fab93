//! The lazy-decrease max-gain queue must be a pure wall-clock
//! optimisation: it must commit the **same toggles in the same order**
//! as the paper's literal inner loop — a full scan over every unmarked
//! candidate, strict improvement, ties to the lowest node index — so
//! cuts, merits and selections are bit-identical. That scan lives here,
//! built on the public [`ToggleEngine`] and [`GainCache`], as the
//! executable specification; the library's queue is diffed against it
//! toggle for toggle via `trajectory_commit_trace`.

use isegen::core::{
    trajectory_commit_trace, BlockContext, Cut, GainCache, GainWeights, IoConstraints, Search,
    SearchConfig, ToggleEngine, MAX_GAIN_WEIGHT,
};
use isegen::graph::{NodeId, NodeSet};
use isegen::ir::LatencyModel;
use isegen::workloads::{random_application, workload_by_name, RandomWorkloadConfig};
use proptest::prelude::*;

/// The nodes a search may toggle: eligible and not forbidden.
fn free_nodes(ctx: &BlockContext<'_>, forbidden: Option<&NodeSet>) -> Vec<NodeId> {
    let mut free = ctx.eligible().clone();
    if let Some(f) = forbidden {
        free.subtract(f);
    }
    free.iter().collect()
}

/// The reference trajectory (paper Fig. 2): up to `max_passes` passes
/// from the best cut so far, each toggling the max-gain unmarked free
/// node until none is left, optionally forcing the very first toggle
/// onto `seed`. Returns the committed toggles and the best legal cut.
fn reference_trajectory(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    config: &SearchConfig,
    forbidden: Option<&NodeSet>,
    seed: Option<NodeId>,
) -> (Vec<NodeId>, Cut) {
    let n = ctx.node_count();
    let free_nodes = free_nodes(ctx, forbidden);
    let mut trace = Vec::new();
    let mut best = Cut::empty(n);
    if free_nodes.is_empty() {
        return (trace, best);
    }
    let mut engine = ToggleEngine::new(ctx);
    let mut cache = GainCache::new(n);
    let mut forced = seed;
    for pass in 0..config.max_passes {
        if pass > 0 {
            engine.reset_from_cut(best.nodes());
        }
        cache.reset(n);
        let mut marked = NodeSet::new(n);
        let mut pass_best: Option<Cut> = None;
        for _ in 0..free_nodes.len() {
            let chosen = forced.take().or_else(|| {
                let mut chosen: Option<(f64, NodeId)> = None;
                for &v in &free_nodes {
                    if marked.contains(v) {
                        continue;
                    }
                    let g = cache.gain(&engine, &config.weights, io, v);
                    if chosen.is_none_or(|(bg, _)| g > bg) {
                        chosen = Some((g, v));
                    }
                }
                chosen.map(|(_, v)| v)
            });
            let Some(v) = chosen else { break };
            trace.push(v);
            cache.commit(&mut engine, v);
            marked.insert(v);
            let incumbent = pass_best.as_ref().unwrap_or(&best).merit();
            if engine.is_legal(io) && engine.merit() > incumbent {
                pass_best = Some(engine.snapshot());
            }
        }
        match pass_best {
            Some(cut) => best = cut,
            None => break,
        }
    }
    (trace, best)
}

/// The reference for a whole single-restart [`Search`]: the configured
/// weights, then the cohesive flavour (affinity doubled), keeping the
/// first strict merit improvement.
fn reference_search(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    config: &SearchConfig,
    forbidden: Option<&NodeSet>,
) -> Cut {
    let w = config.weights;
    let cohesive = GainWeights::new(
        w.merit(),
        w.io_penalty(),
        2.0 * w.affinity(),
        w.growth(),
        w.independence(),
    )
    .expect("doubled affinity stays in range");
    let mut best = Cut::empty(ctx.node_count());
    for weights in [w, cohesive] {
        let flavour = config.clone().with_weights(weights);
        let (_, cut) = reference_trajectory(ctx, io, &flavour, forbidden, None);
        if cut.merit() > best.merit() {
            best = cut;
        }
    }
    best
}

/// The queue's commit trace must equal the reference's, unseeded and
/// with a forced first toggle on `seed_pick`'s free node.
fn assert_traces_agree(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    config: &SearchConfig,
    forbidden: Option<&NodeSet>,
    seed_pick: u64,
    label: &str,
) {
    let free = free_nodes(ctx, forbidden);
    let seed = (!free.is_empty()).then(|| free[(seed_pick % free.len() as u64) as usize]);
    for seed in [None, seed] {
        let (reference, _) = reference_trajectory(ctx, io, config, forbidden, seed);
        let queue = trajectory_commit_trace(ctx, io, config, forbidden, seed);
        assert_eq!(
            queue, reference,
            "{label} (forced {seed:?}): queue committed a different toggle sequence"
        );
    }
}

/// Commit traces and a full single-restart search must both agree.
fn assert_queue_matches_reference(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    forbidden: Option<&NodeSet>,
    seed_pick: u64,
    label: &str,
) {
    let config = SearchConfig::new().with_restarts(1);
    assert_traces_agree(ctx, io, &config, forbidden, seed_pick, label);
    let mut search = Search::new(config.clone());
    if let Some(f) = forbidden {
        search = search.forbidden(f);
    }
    assert_eq!(
        search.run(ctx, io).cut,
        reference_search(ctx, io, &config, forbidden),
        "{label}: queue produced a different cut"
    );
}

/// Maps a random word onto the accepted range of one weight component:
/// exact zero, the bound itself, small integers, log-uniform magnitudes
/// from 1e-6 up to the bound, and uniform values below the bound —
/// negated half the time for the signed components.
fn weight_from(word: u64, signed: bool) -> f64 {
    let unit = (word >> 11) as f64 / (1u64 << 53) as f64;
    let magnitude = match word % 5 {
        0 => 0.0,
        1 => MAX_GAIN_WEIGHT,
        2 => ((word >> 16) % 100) as f64,
        3 => 10f64.powf(-6.0 + 12.0 * unit).min(MAX_GAIN_WEIGHT),
        _ => MAX_GAIN_WEIGHT * unit,
    };
    if signed && (word >> 8) & 1 == 1 {
        -magnitude
    } else {
        magnitude
    }
}

/// Weights from five random words (see [`weight_from`]).
fn weights_from(w: (u64, u64, u64, u64, u64)) -> GainWeights {
    GainWeights::new(
        weight_from(w.0, false),
        weight_from(w.1, false),
        weight_from(w.2, true),
        weight_from(w.3, true),
        weight_from(w.4, true),
    )
    .expect("drawn weights are in range")
}

fn random_block_ctx<R>(seed: u64, ops: usize, f: impl FnOnce(&BlockContext<'_>) -> R) -> R {
    let app = random_application(&RandomWorkloadConfig {
        seed,
        blocks: 1,
        ops_per_block: ops,
        ..RandomWorkloadConfig::default()
    });
    let model = LatencyModel::paper_default();
    let ctx = BlockContext::new(&app.blocks()[0], &model);
    f(&ctx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DAGs across sizes, port budgets and forbidden sets.
    #[test]
    fn queue_matches_scan_on_random_dags(
        seed in any::<u64>(),
        ops in 8usize..80,
        io_pick in 0usize..4,
        forbid_stride in 0usize..4,
        seed_pick in any::<u64>(),
    ) {
        random_block_ctx(seed, ops, |ctx| {
            let io = [(2u32, 1u32), (4, 2), (6, 3), (8, 4)][io_pick];
            let io = IoConstraints::new(io.0, io.1);
            let forbidden = (forbid_stride > 0).then(|| {
                let mut f = NodeSet::new(ctx.node_count());
                for (i, v) in ctx.eligible().iter().enumerate() {
                    if i % (forbid_stride + 1) == 0 {
                        f.insert(v);
                    }
                }
                f
            });
            assert_queue_matches_reference(
                ctx,
                io,
                forbidden.as_ref(),
                seed_pick,
                &format!("seed {seed}"),
            );
        });
    }

    /// Extreme but valid weights: every component at zero or at ±the
    /// bound, where the queue's frame offsets and hinge slack are
    /// largest relative to the gains they bound. (Non-finite,
    /// over-bound and negative merit/I-O weights cannot be built; see
    /// `GainWeights::new`.)
    #[test]
    fn queue_matches_scan_under_hostile_weights(
        seed in any::<u64>(),
        ops in 8usize..40,
        words in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        // `w / 5 * 5 + w % 2` keeps `weight_from`'s classes 0 and 1 only.
        let corner = |w: u64| w / 5 * 5 + w % 2;
        let (a, b, c, d, e) = words;
        let weights = weights_from((corner(a), corner(b), corner(c), corner(d), corner(e)));
        random_block_ctx(seed, ops, |ctx| {
            let config = SearchConfig::new().with_weights(weights);
            let label = format!("seed {seed}, {weights:?}");
            assert_traces_agree(ctx, IoConstraints::new(4, 2), &config, None, seed, &label);
        });
    }

    /// Random weights across the whole accepted range — zero merit and
    /// I/O penalty, negative structural terms, values at the bound and
    /// many orders of magnitude apart — exercising the queue's
    /// `StepFrame` upper bound and its rounding margin.
    #[test]
    fn queue_matches_scan_under_random_weights(
        seed in any::<u64>(),
        ops in 8usize..60,
        io_pick in 0usize..3,
        words in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        seed_pick in any::<u64>(),
    ) {
        let weights = weights_from(words);
        random_block_ctx(seed, ops, |ctx| {
            let io = [(2u32, 1u32), (4, 2), (8, 4)][io_pick];
            let io = IoConstraints::new(io.0, io.1);
            let config = SearchConfig::new().with_weights(weights);
            let label = format!("seed {seed}, {weights:?}");
            assert_traces_agree(ctx, io, &config, None, seed_pick, &label);
        });
    }
}

/// The full-round AES-128 kernel: the largest registry workload the
/// queue is benchmarked on, and the regression anchor for the
/// BENCH_kl.json numbers.
#[test]
fn queue_matches_scan_on_aes128() {
    let spec = workload_by_name("aes128").expect("aes128 in registry");
    let app = spec.application();
    let block = app
        .blocks()
        .iter()
        .max_by_key(|b| b.dag().node_count())
        .expect("aes128 has blocks");
    let model = LatencyModel::paper_default();
    let ctx = BlockContext::new(block, &model);
    let io = IoConstraints::new(4, 2);
    assert_queue_matches_reference(&ctx, io, None, 17, "aes128");

    // And the queue must actually be in play.
    let outcome = Search::new(SearchConfig::default()).run(&ctx, io);
    assert!(
        outcome.stats.queue_pops > 0,
        "queue never popped: {:?}",
        outcome.stats
    );
    assert!(
        outcome.stats.queue_reinsertions > 0,
        "dirty-set reinsertion never ran: {:?}",
        outcome.stats
    );
}
