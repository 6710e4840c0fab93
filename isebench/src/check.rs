//! Output checks. Each returns the list of problems it found; an empty
//! list means the output is correct.

use isegen_core::{BlockContext, CacheStats, Cut, IoConstraints, IseSelection};
use isegen_ir::Application;
use isegen_serve::json::Json;

use crate::layers::Pass;

/// The port budget every workload runs under (`IseConfig::paper_default`).
pub const IO: (u32, u32) = (4, 2);

pub fn io() -> IoConstraints {
    IoConstraints::new(IO.0, IO.1)
}

/// Re-derives every ISE of `selection` from scratch: each defining cut
/// must re-evaluate to the I/O counts and saved cycles the search
/// reported, and it and every instance must fit the port budget and be
/// convex in its block.
pub fn selection(contexts: &[BlockContext<'_>], selection: &IseSelection) -> Vec<String> {
    let mut problems = Vec::new();
    for (k, ise) in selection.ises.iter().enumerate() {
        let Some(ctx) = contexts.get(ise.block_index) else {
            problems.push(format!("ISE {k}: block {} out of range", ise.block_index));
            continue;
        };
        let fresh = Cut::evaluate(ctx, ise.cut.nodes().clone());
        if (fresh.input_count(), fresh.output_count())
            != (ise.cut.input_count(), ise.cut.output_count())
        {
            problems.push(format!(
                "ISE {k}: re-evaluated I/O {}/{} but the search reported {}/{}",
                fresh.input_count(),
                fresh.output_count(),
                ise.cut.input_count(),
                ise.cut.output_count()
            ));
        }
        if fresh.saved_cycles() != ise.saved_per_execution {
            problems.push(format!(
                "ISE {k}: re-evaluated saving {} cycles but the search reported {}",
                fresh.saved_cycles(),
                ise.saved_per_execution
            ));
        }
        problems.extend(legality(ctx, &fresh, &format!("ISE {k}")));
        for (j, inst) in ise.instances.iter().enumerate() {
            let Some(ctx) = contexts.get(inst.block_index) else {
                problems.push(format!("ISE {k} instance {j}: block out of range"));
                continue;
            };
            let cut = Cut::evaluate(ctx, inst.nodes.clone());
            problems.extend(legality(ctx, &cut, &format!("ISE {k} instance {j}")));
        }
    }
    problems
}

/// `satisfies_io((4,2))` and convexity of one cut.
pub fn legality(ctx: &BlockContext<'_>, cut: &Cut, what: &str) -> Vec<String> {
    let mut problems = Vec::new();
    if !cut.satisfies_io(io()) {
        problems.push(format!(
            "{what}: {} inputs / {} outputs exceed ({}, {})",
            cut.input_count(),
            cut.output_count(),
            IO.0,
            IO.1
        ));
    }
    if !ctx.is_convex(cut.nodes()) {
        problems.push(format!("{what}: cut is not convex"));
    }
    problems
}

/// The exact K-L counters the benchmark reports and compares.
pub fn kl_counters(s: &CacheStats) -> [(&'static str, u64); 7] {
    [
        ("kl.commits", s.commits),
        ("kl.queue_pops", s.queue_pops),
        ("kl.revalidations", s.queue_stale_revalidations),
        ("kl.reinsertions", s.queue_reinsertions),
        ("kl.fresh_probes", s.fresh_probes),
        ("kl.cached_probes", s.cached_probes),
        ("kl.trajectories", s.trajectories),
    ]
}

/// A later pass must repeat the first pass bit for bit.
pub fn same_pass(first: &Pass, now: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, (a, b)) in first.selections.iter().zip(&now.selections).enumerate() {
        if a != b {
            problems.push(format!("app #{i}: selection differs from the first pass"));
        }
    }
    for ((name, a), (_, b)) in kl_counters(&first.stats)
        .iter()
        .zip(kl_counters(&now.stats))
    {
        if *a != b {
            problems.push(format!("{name} is {b}, the first pass counted {a}"));
        }
    }
    problems
}

/// The `select` response `ised` must produce for `selection` of `app`,
/// without the `app` hash and the `cache` flag (see [`strip`]).
pub fn expected_select(app: &Application, selection: &IseSelection) -> Json {
    let ises = selection
        .ises
        .iter()
        .map(|ise| {
            Json::obj([
                ("block", ise.block_index.into()),
                ("block_name", app.blocks()[ise.block_index].name().into()),
                ("nodes", ise.cut.nodes().len().into()),
                ("inputs", u64::from(ise.cut.input_count()).into()),
                ("outputs", u64::from(ise.cut.output_count()).into()),
                ("saved_per_execution", ise.saved_per_execution.into()),
                ("instances", ise.instances.len().into()),
            ])
        })
        .collect();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("op", "select".into()),
        ("speedup", selection.speedup().into()),
        ("total_sw_cycles", selection.total_sw_cycles.into()),
        ("saved_cycles", selection.saved_cycles.into()),
        ("instances", selection.instance_count().into()),
        ("ises", Json::Arr(ises)),
    ])
}

/// `json` without the object members named in `keys`.
pub fn strip(json: &Json, keys: &[&str]) -> Json {
    match json {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| !keys.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Compares a response with what it must equal once `ignore`d members
/// are dropped.
pub fn same_response(expected: &Json, got: &Json, ignore: &[&str]) -> Vec<String> {
    if strip(expected, ignore) == strip(got, ignore) {
        Vec::new()
    } else {
        vec![format!(
            "response differs: expected {}, got {}",
            clip(&strip(expected, ignore).to_string()),
            clip(&strip(got, ignore).to_string())
        )]
    }
}

/// The member `key` of a response must equal `want`.
pub fn member_is(got: &Json, key: &str, want: &Json) -> Vec<String> {
    match got.get(key) {
        Some(v) if v == want => Vec::new(),
        other => vec![format!(
            "{key} is {}, expected {want}",
            other.map_or("absent".to_string(), Json::to_string)
        )],
    }
}

fn clip(s: &str) -> String {
    s.chars().take(240).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isegen_core::{Ise, IseInstance};
    use isegen_ir::{BlockBuilder, LatencyModel, Opcode};

    /// `((a+b) + (c+d)) + e`: the four adds form a convex cut with five
    /// distinct inputs, illegal under (4, 2).
    fn five_input_block() -> isegen_ir::BasicBlock {
        let mut b = BlockBuilder::new("five");
        let ins: Vec<_> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|&n| b.input(n))
            .collect();
        let x = b.op(Opcode::Add, &[ins[0], ins[1]]).unwrap();
        let y = b.op(Opcode::Add, &[ins[2], ins[3]]).unwrap();
        let z = b.op(Opcode::Add, &[x, y]).unwrap();
        b.op(Opcode::Add, &[z, ins[4]]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn a_five_input_cut_is_a_failure() {
        let block = five_input_block();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let nodes = ctx.eligible().clone();
        let cut = Cut::evaluate(&ctx, nodes.clone());
        assert_eq!(cut.input_count(), 5);
        let selection = IseSelection {
            ises: vec![Ise {
                block_index: 0,
                saved_per_execution: cut.saved_cycles(),
                cut,
                instances: vec![IseInstance {
                    block_index: 0,
                    nodes,
                }],
            }],
            total_sw_cycles: 10,
            saved_cycles: 1,
        };
        let problems = selection_problems(&ctx, &selection);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems.iter().all(|p| p.contains("5 inputs")));
    }

    fn selection_problems(ctx: &BlockContext<'_>, sel: &IseSelection) -> Vec<String> {
        selection(std::slice::from_ref(ctx), sel)
    }

    #[test]
    fn a_misreported_saving_is_a_failure() {
        let block = five_input_block();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let mut sel = isegen_core::Generator::new(isegen_core::IseConfig::paper_default())
            .run_in_contexts(std::slice::from_ref(&ctx));
        assert!(selection_problems(&ctx, &sel).is_empty());
        assert!(!sel.ises.is_empty());
        sel.ises[0].saved_per_execution += 1;
        assert_eq!(selection_problems(&ctx, &sel).len(), 1);
    }

    #[test]
    fn a_tampered_response_is_a_failure() {
        let block = five_input_block();
        let mut app = Application::new("five");
        app.push_block(block);
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&app.blocks()[0], &model);
        let sel = isegen_core::Generator::new(isegen_core::IseConfig::paper_default())
            .run_in_contexts(std::slice::from_ref(&ctx));
        let expected = expected_select(&app, &sel);
        let mut served = expected.clone();
        if let Json::Obj(members) = &mut served {
            members.push(("app".into(), "00000000000000ff".into()));
            members.push(("cache".into(), "miss".into()));
        }
        assert!(same_response(&expected, &served, &["app", "cache"]).is_empty());
        let mut tampered = served.clone();
        if let Json::Obj(members) = &mut tampered {
            for (k, v) in members.iter_mut() {
                if k == "saved_cycles" {
                    *v = Json::Num(v.as_f64().unwrap() + 1.0);
                }
            }
        }
        assert_eq!(
            same_response(&expected, &tampered, &["app", "cache"]).len(),
            1
        );
        assert_eq!(member_is(&served, "cache", &"hit".into()).len(), 1);
    }
}
