use crate::engine::{Probe, ToggleEngine};
use crate::{BlockContext, IoConstraints};
use isegen_graph::NodeId;
use std::fmt;

/// Weights of the five gain-function components (paper §4.2).
///
/// The gain for toggling node `v` with respect to the current cut `C` is
///
/// ```text
/// Gain(v) = w_merit · F1  + w_io_penalty · F2 + w_affinity · F3
///         + w_growth · F4 + w_independence · F5
/// ```
///
/// with
///
/// * `F1` — merit `M(C′)` of the cut after the toggle (0 if non-convex),
/// * `F2` — `−(input violations + output violations)` of `C′`,
/// * `F3` — `+N(v,C)` when entering, `−N(v,C)` when leaving (`N` =
///   neighbours already in the cut): joining neighbours is favoured,
///   removing embedded nodes is resisted,
/// * `F4` — `±` the node's static barrier-proximity growth score
///   (directional growth; near-barrier nodes are consistently favoured,
///   which aligns cuts with the DFG's regular regions and favours reuse),
/// * `F5` — for leaving moves, the summed hardware critical paths of the
///   *other* connected components (lets hardware nodes retreat so
///   independent subgraphs can grow).
///
/// The paper determined its weights experimentally and does not publish
/// them; the defaults here were tuned on the bundled workloads (see the
/// `ablation` experiment) so that the I/O penalty dominates per-node merit
/// differences and the structural terms act as directional tie-breakers.
///
/// Weights are validated at construction ([`GainWeights::new`]): every
/// component is finite and at most [`MAX_GAIN_WEIGHT`] in magnitude, and
/// `merit` and `io_penalty` are non-negative. A value of this type
/// therefore always yields finite gains, and the search never needs a
/// NaN-tolerant path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GainWeights {
    merit: f64,
    io_penalty: f64,
    affinity: f64,
    growth: f64,
    independence: f64,
}

/// Largest magnitude a [`GainWeights`] component may take.
///
/// The bound is what keeps every gain finite. Each of the five terms a
/// weight multiplies is bounded by the block: `|F1|` by the block's
/// software latency plus its hardware critical path, `|F2|` by twice the
/// node count, `|F3|` by the node count, `|F4| ≤ 1`, and `|F5|` by the
/// node count times the largest hardware delay. Node counts and software
/// cycles are `u32`s and hardware delays are capped by
/// [`isegen_ir::MAX_HW_DELAY`], so no term exceeds about `2⁶⁴ ≈ 1.8e19`.
/// The search's cohesive flavour doubles `affinity`, so the largest
/// weight actually applied is `2 · 1e6`. Five such products sum to under
/// `1e27`, hundreds of orders of magnitude below `f64::MAX`: no gain,
/// heap key or queue bound can overflow to `±∞` or become NaN.
pub const MAX_GAIN_WEIGHT: f64 = 1e6;

/// Why [`GainWeights::new`] rejected a component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightError {
    /// Name of the offending component (`"merit"`, `"io_penalty"`,
    /// `"affinity"`, `"growth"` or `"independence"`).
    pub field: &'static str,
    /// The rejected value.
    pub value: f64,
}

impl fmt::Display for WeightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gain weight {} = {} must be finite, at most {MAX_GAIN_WEIGHT:e} in \
             magnitude, and non-negative for merit and io_penalty",
            self.field, self.value
        )
    }
}

impl std::error::Error for WeightError {}

impl Default for GainWeights {
    fn default() -> Self {
        GainWeights {
            merit: 1.0,
            io_penalty: 50.0,
            affinity: 1.0,
            growth: 1.0,
            independence: 0.5,
        }
    }
}

impl GainWeights {
    /// Validated weights, in the order of the gain formula. Rejects any
    /// non-finite component, any component above [`MAX_GAIN_WEIGHT`] in
    /// magnitude, and a negative `merit` or `io_penalty` (the max-gain
    /// queue's bounds lean on those two entering the gain with a fixed
    /// sign).
    pub fn new(
        merit: f64,
        io_penalty: f64,
        affinity: f64,
        growth: f64,
        independence: f64,
    ) -> Result<GainWeights, WeightError> {
        // `abs() <= bound` is false for NaN and ±∞.
        let check = |field: &'static str, value: f64, signed: bool| {
            (value.abs() <= MAX_GAIN_WEIGHT && (signed || value >= 0.0))
                .then_some(value)
                .ok_or(WeightError { field, value })
        };
        Ok(GainWeights {
            merit: check("merit", merit, false)?,
            io_penalty: check("io_penalty", io_penalty, false)?,
            affinity: check("affinity", affinity, true)?,
            growth: check("growth", growth, true)?,
            independence: check("independence", independence, true)?,
        })
    }

    /// Weight of the merit component `F1` (≥ 0).
    pub fn merit(&self) -> f64 {
        self.merit
    }

    /// Weight of the I/O violation penalty `F2` ("a large factor", ≥ 0).
    pub fn io_penalty(&self) -> f64 {
        self.io_penalty
    }

    /// Weight of the convexity-affinity component `F3`.
    pub fn affinity(&self) -> f64 {
        self.affinity
    }

    /// Weight of the directional-growth component `F4`.
    pub fn growth(&self) -> f64 {
        self.growth
    }

    /// Weight of the independent-cuts component `F5`.
    pub fn independence(&self) -> f64 {
        self.independence
    }

    /// The search portfolio's cohesion-boosted flavour: `affinity`
    /// doubled, everything else kept. May exceed [`MAX_GAIN_WEIGHT`] by
    /// that factor of two, which the bound's finiteness argument covers.
    pub(crate) fn cohesive(self) -> GainWeights {
        GainWeights {
            affinity: self.affinity * 2.0,
            ..self
        }
    }

    /// Combines a [`Probe`] into the scalar gain.
    pub fn combine(
        &self,
        ctx: &BlockContext<'_>,
        io: IoConstraints,
        v: NodeId,
        probe: &Probe,
    ) -> f64 {
        let f1 = probe.merit;
        let f2 = -(io.violation(probe.inputs, probe.outputs) as f64);
        let n = probe.neighbors_in_cut as f64;
        let f3 = if probe.entering { n } else { -n };
        let g = ctx.growth_score(v);
        let f4 = if probe.entering { g } else { -g };
        let f5 = if probe.entering {
            0.0
        } else {
            probe.other_components_hw
        };
        self.merit * f1
            + self.io_penalty * f2
            + self.affinity * f3
            + self.growth * f4
            + self.independence * f5
    }
}

/// Evaluates the gain of toggling `v` against the engine's current cut.
pub(crate) fn gain_of(
    engine: &ToggleEngine<'_, '_>,
    ctx: &BlockContext<'_>,
    weights: &GainWeights,
    io: IoConstraints,
    v: NodeId,
) -> f64 {
    let probe = engine.probe(v);
    weights.combine(ctx, io, v, &probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ToggleEngine;
    use isegen_ir::{BlockBuilder, LatencyModel, Opcode};

    #[test]
    fn io_violations_are_penalised() {
        // A 2-input add under (2,1) is fine; a 4-input tree root is not
        // until its operands join.
        let mut b = BlockBuilder::new("t");
        let (p, q, r, s) = (b.input("p"), b.input("q"), b.input("r"), b.input("s"));
        let a1 = b.op(Opcode::Add, &[p, q]).unwrap();
        let a2 = b.op(Opcode::Add, &[r, s]).unwrap();
        let root = b.op(Opcode::Add, &[a1, a2]).unwrap();
        let block = b.build().unwrap();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let io = IoConstraints::new(2, 1);
        let weights = GainWeights::default();
        let mut engine = ToggleEngine::new(&ctx);
        engine.toggle(a1);
        engine.toggle(a2);
        // cut {a1, a2} has 4 inputs, 2 outputs: violations. Adding the root
        // keeps 4 inputs but drops outputs to 1; gain should exceed that of
        // re-removing a1 ... all the structural terms should favour root.
        let g_root = gain_of(&engine, &ctx, &weights, io, root);
        let probe_root = engine.probe(root);
        assert!(probe_root.entering);
        assert_eq!(probe_root.inputs, 4);
        assert_eq!(probe_root.outputs, 1);
        // the penalty term is negative (2 input violations)
        assert!(g_root < probe_root.merit, "penalty must reduce the gain");
    }

    #[test]
    fn affinity_prefers_nodes_with_cut_neighbors() {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let a = b.op(Opcode::Add, &[x, x]).unwrap();
        let c = b.op(Opcode::Xor, &[a, a]).unwrap();
        let lone = b.op(Opcode::Xor, &[x, x]).unwrap();
        let block = b.build().unwrap();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let mut engine = ToggleEngine::new(&ctx);
        engine.toggle(a);
        let pc = engine.probe(c);
        let pl = engine.probe(lone);
        assert_eq!(pc.neighbors_in_cut, 1);
        assert_eq!(pl.neighbors_in_cut, 0);
        // both xors have identical latency profiles, so affinity decides
        let weights = GainWeights::default();
        let io = IoConstraints::new(4, 2);
        let gc = weights.combine(&ctx, io, c, &pc);
        let gl = weights.combine(&ctx, io, lone, &pl);
        assert!(
            gc > gl,
            "neighbour of the cut should score higher: {gc} vs {gl}"
        );
    }

    #[test]
    fn default_weights_are_positive() {
        let w = GainWeights::default();
        assert!(w.merit() > 0.0);
        assert!(w.io_penalty() > 0.0);
        assert!(w.affinity() > 0.0);
        assert!(w.growth() > 0.0);
        assert!(w.independence() > 0.0);
    }

    /// `GainWeights::new` with component `i` replaced by `value`.
    fn with_component(i: usize, value: f64) -> Result<GainWeights, WeightError> {
        let mut c = [1.0, 50.0, 1.0, 1.0, 0.5];
        c[i] = value;
        GainWeights::new(c[0], c[1], c[2], c[3], c[4])
    }

    const FIELDS: [&str; 5] = ["merit", "io_penalty", "affinity", "growth", "independence"];

    #[test]
    fn every_component_rejects_non_finite_and_over_bound_values() {
        let over = MAX_GAIN_WEIGHT * (1.0 + f64::EPSILON);
        for (i, field) in FIELDS.iter().enumerate() {
            for bad in [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                over,
                -over,
                f64::MAX,
            ] {
                let err = with_component(i, bad).unwrap_err();
                assert_eq!(err.field, *field, "{bad}");
                assert_eq!(err.value.to_bits(), bad.to_bits());
            }
            assert!(
                with_component(i, MAX_GAIN_WEIGHT).is_ok(),
                "{field} at the bound"
            );
            assert!(with_component(i, 0.0).is_ok(), "{field} at zero");
        }
    }

    #[test]
    fn merit_and_io_penalty_reject_negatives_other_terms_do_not() {
        for (i, field) in FIELDS.iter().enumerate() {
            let negative = with_component(i, -1.0);
            if i < 2 {
                assert_eq!(negative.unwrap_err().field, *field);
                assert!(with_component(i, -f64::MIN_POSITIVE).is_err(), "{field}");
            } else {
                assert!(negative.is_ok(), "{field} is signed");
                assert!(
                    with_component(i, -MAX_GAIN_WEIGHT).is_ok(),
                    "{field} at -bound"
                );
            }
            // -0.0 compares equal to zero: not negative.
            assert!(with_component(i, -0.0).is_ok(), "{field} at -0.0");
        }
    }
}
