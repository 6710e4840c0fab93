//! The `serve_mix` workload: one client in a closed loop over loopback
//! TCP to an in-process `ised` [`Server`] serving the paper's apps.
//!
//! Each round sends, in seeded order, a cold inline-IR `select` of a
//! corpus app renamed with the round number (same search work, new
//! hash, so both the context cache and the selection memo miss), a
//! warm `select` by hash (a memo hit), and one of `rtl`, `verify` or
//! `lint`. A cycle of `3 × apps` rounds sends every app three times
//! cold, three times warm and once per third op, so every seed sends
//! the same set of work.

use crate::batch;
use crate::check;
use crate::layers::{self, ms_since};
use crate::metrics::{Metrics, Outcome};
use crate::stats::{geomean, median, peak_rss_mib, percentile, Rng};
use crate::Opts;
use isegen_analysis::LintOptions;
use isegen_core::{ContextData, Generator, IseConfig, IseSelection, SearchConfig};
use isegen_ir::{parse_application, write_application, Application, LatencyModel};
use isegen_rtl::{verify_selection, AfuLibrary, VerifyConfig};
use isegen_serve::json::{self, Json};
use isegen_serve::{ServeCache, Server, ServerConfig, Service};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run (each a fresh server); `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// In-process reference passes after each cycle (each checked against
/// the first). Even, so a traced run's alternating untimed and timed
/// passes stay balanced.
const REFERENCE_PASSES_PER_CYCLE: usize = 2;
/// Stimulus vectors per `verify` request.
const VERIFY_VECTORS: usize = 32;
/// `verify`'s default stimulus seed (`proto::parse_verify_params`).
const VERIFY_SEED: u64 = 0x5eed;
/// Approximate wall time of one traced cycle, and of what a traced run
/// does besides its cycles. A traced run makes a fixed number of cycles
/// derived from `--seconds`, so its exact serve counters repeat from run
/// to run.
const TRACED_CYCLE_S: f64 = 4.5;
const TRACED_REST_S: f64 = 7.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Cold,
    Warm,
    Rtl,
    Verify,
    Lint,
}

impl Op {
    fn index(self) -> usize {
        self as usize
    }
}

/// One corpus app with everything its responses are checked against.
struct CorpusApp {
    name: String,
    ir: String,
    app: Application,
    data: Vec<Arc<ContextData>>,
    selection: IseSelection,
    /// `select` response without `app` and `cache`.
    expected_select: Json,
    expected_verilog: String,
    expected_lint_count: usize,
}

/// A line-framed `ised` connection that sends each request in one write.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer: stream,
            reader,
            line: String::new(),
        })
    }

    /// Sends `request` and returns the parsed response with the round
    /// trip in milliseconds.
    fn call(&mut self, request: &str) -> Result<(Json, f64), String> {
        let mut bytes = Vec::with_capacity(request.len() + 1);
        bytes.extend_from_slice(request.as_bytes());
        bytes.push(b'\n');
        self.line.clear();
        let start = Instant::now();
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))?;
        self.reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        let ms = ms_since(start);
        let response = json::parse(self.line.trim()).map_err(|e| format!("response: {e}"))?;
        Ok((response, ms))
    }
}

/// Binds a fresh server, connects, and runs `f` with the time the bind
/// started; stops the server and waits for it afterwards.
fn session<R>(f: impl FnOnce(&mut Client, Instant) -> Result<R, String>) -> Result<R, String> {
    let started = Instant::now();
    let config = ServerConfig {
        verbose: false,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let result = Client::connect(server.local_addr()).and_then(|mut c| f(&mut c, started));
        server.request_stop();
        let joined = match handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        };
        result.and_then(|r| joined.map(|()| r))
    })
}

fn select_inline(ir: &str) -> String {
    Json::obj([("op", "select".into()), ("ir", ir.into())]).to_string()
}

fn by_hash(op: &'static str, hash: &str) -> String {
    if op == "verify" {
        return Json::obj([
            ("op", op.into()),
            ("app", hash.into()),
            ("vectors", VERIFY_VECTORS.into()),
        ])
        .to_string();
    }
    Json::obj([("op", op.into()), ("app", hash.into())]).to_string()
}

/// `ir` with its application renamed, so the canonical text (and the
/// cache key) is new while the blocks, and the search work, are not.
fn renamed(ir: &str, name: &str, round: usize) -> String {
    let body = ir.split_once('\n').map_or("", |(_, rest)| rest);
    format!("app \"{name}@{round}\"\n{body}")
}

/// Builds the corpus and runs the in-process reference passes whose
/// selections every served response is checked against.
fn corpus(
    names: &[&str],
    opts: &Opts,
    out: &mut Outcome,
) -> Result<(Vec<CorpusApp>, batch::Passes), String> {
    let model = LatencyModel::paper_default();
    let start = Instant::now();
    let mut built = Vec::new();
    for name in names {
        let spec = isegen_workloads::workload_by_name(name)
            .ok_or_else(|| format!("no registry workload {name}"))?;
        built.push(spec.application());
    }
    out.metrics.set("workloads.build_ms", ms_since(start));
    let start = Instant::now();
    let irs: Vec<String> = built.iter().map(write_application).collect();
    out.metrics.set("ir.write_ms", ms_since(start));
    let mut apps = Vec::new();
    let mut data = Vec::new();
    for (name, ir) in names.iter().zip(&irs) {
        let app = parse_application(ir).map_err(|e| format!("{name}: {e}"))?;
        data.push(layers::context_data(&app, &model));
        apps.push(app);
    }
    let borrowed: Vec<(&Application, &[Arc<ContextData>])> = apps
        .iter()
        .zip(&data)
        .map(|(a, d)| (a, d.as_slice()))
        .collect();
    let mut passes = batch::Passes::new(opts.seed);
    for _ in 0..if opts.trace { 2 } else { 1 } {
        passes.step(&borrowed, names, &SearchConfig::default(), opts.trace, out);
    }
    let mut corpus = Vec::new();
    for (i, ((app, data), ir)) in apps.into_iter().zip(data).zip(irs).enumerate() {
        let selection = passes.untimed[0].selections[i].clone();
        let library = AfuLibrary::from_selection(&app, &model, &selection)
            .map_err(|e| format!("{}: rtl: {e}", names[i]))?;
        let lint = isegen_analysis::analyze_with(&app, &lint_options());
        corpus.push(CorpusApp {
            name: names[i].to_string(),
            expected_select: check::expected_select(&app, &selection),
            expected_verilog: library.emit_verilog(),
            expected_lint_count: lint.len(),
            ir,
            app,
            data,
            selection,
        });
    }
    Ok((corpus, passes))
}

fn lint_options() -> LintOptions {
    LintOptions {
        io: check::io(),
        ..LintOptions::default()
    }
}

/// Loads the warm corpus: one inline-IR `select` per app. Returns each
/// app's hash and response.
fn load(
    client: &mut Client,
    corpus: &[CorpusApp],
    out: &mut Outcome,
) -> Result<Vec<(String, Json)>, String> {
    let mut loaded = Vec::new();
    for app in corpus {
        let (response, _) = client.call(&select_inline(&app.ir))?;
        let mut problems = check::same_response(&app.expected_select, &response, &["app", "cache"]);
        problems.extend(check::member_is(&response, "cache", &"miss".into()));
        out.record(&format!("load {}", app.name), problems);
        let hash = response
            .get("app")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("load {}: no app hash in response", app.name))?
            .to_string();
        loaded.push((hash, response));
    }
    Ok(loaded)
}

/// Per-request trace: in-process handling and the direct layer calls.
#[derive(Default)]
struct Traced {
    /// Per op class: round trip, in-process handle, serve self and wire
    /// samples.
    rtt: [Vec<f64>; 5],
    handle: [Vec<f64>; 5],
    self_ms: [Vec<f64>; 5],
    wire: [Vec<f64>; 5],
    parse: Vec<f64>,
    context: Vec<f64>,
    emit: Vec<f64>,
    verify: Vec<f64>,
    lint: Vec<f64>,
    checks: Vec<f64>,
    /// Total in-process replica and direct-call time (trace-only work).
    trace_only_ms: f64,
    /// Total time of the reference passes between cycles.
    reference_ms: f64,
}

/// The direct layer calls an op makes, timed; returns their total.
fn layer_calls(op: Op, app: &CorpusApp, ir: &str, t: &mut Traced) -> Result<f64, String> {
    let model = LatencyModel::paper_default();
    Ok(match op {
        Op::Cold => {
            let s = Instant::now();
            let parsed = parse_application(ir).map_err(|e| e.to_string())?;
            let parse = ms_since(s);
            let s = Instant::now();
            let data = layers::context_data(&parsed, &model);
            let context = ms_since(s);
            let s = Instant::now();
            let mut gen = Generator::new(IseConfig::paper_default())
                .search(SearchConfig::default())
                .threads(crate::THREADS);
            let selection = gen.run_in_contexts(&layers::attach(&parsed, &data));
            let generate = ms_since(s);
            if selection != app.selection {
                return Err(format!("{}: direct generation differs", app.name));
            }
            t.parse.push(parse);
            t.context.push(context);
            parse + context + generate
        }
        Op::Warm => 0.0,
        Op::Rtl => {
            let s = Instant::now();
            let verilog = AfuLibrary::from_selection(&app.app, &model, &app.selection)
                .map_err(|e| e.to_string())?
                .emit_verilog();
            let ms = ms_since(s);
            std::hint::black_box(verilog);
            t.emit.push(ms);
            ms
        }
        Op::Verify => {
            let s = Instant::now();
            let config = VerifyConfig {
                vectors: VERIFY_VECTORS,
                seed: VERIFY_SEED,
            };
            let reports =
                verify_selection(&app.app, &app.selection, &config).map_err(|e| e.to_string())?;
            let ms = ms_since(s);
            std::hint::black_box(reports);
            t.verify.push(ms);
            ms
        }
        Op::Lint => {
            let s = Instant::now();
            let diagnostics = isegen_analysis::analyze_with(&app.app, &lint_options());
            let ms = ms_since(s);
            std::hint::black_box(diagnostics);
            t.lint.push(ms);
            ms
        }
    })
}

/// Checks one served response.
fn check_response(op: Op, app: &CorpusApp, warm: &Json, response: &Json) -> Vec<String> {
    match op {
        Op::Cold => {
            let mut p = check::same_response(&app.expected_select, response, &["app", "cache"]);
            p.extend(check::member_is(response, "cache", &"miss".into()));
            p
        }
        Op::Warm => {
            let mut p = check::same_response(warm, response, &["cache"]);
            p.extend(check::member_is(response, "cache", &"hit".into()));
            p
        }
        Op::Rtl => {
            let mut p = check::member_is(response, "ok", &Json::Bool(true));
            p.extend(check::member_is(
                response,
                "verilog",
                &app.expected_verilog.as_str().into(),
            ));
            p
        }
        Op::Verify => {
            let mut p = check::member_is(response, "passed", &Json::Bool(true));
            p.extend(check::member_is(response, "mismatches", &Json::Num(0.0)));
            p
        }
        Op::Lint => {
            let mut p = check::member_is(response, "ok", &Json::Bool(true));
            p.extend(check::member_is(
                response,
                "count",
                &app.expected_lint_count.into(),
            ));
            p
        }
    }
}

/// One cycle's requests in seeded order: `(op, app index)` triples, one
/// per round.
fn cycle_plan(apps: usize, rng: &mut Rng) -> Vec<[(Op, usize); 3]> {
    let mut cold: Vec<usize> = (0..apps).flat_map(|i| [i; 3]).collect();
    let mut warm = cold.clone();
    let mut third: Vec<(Op, usize)> = (0..apps)
        .flat_map(|i| [(Op::Rtl, i), (Op::Verify, i), (Op::Lint, i)])
        .collect();
    rng.shuffle(&mut cold);
    rng.shuffle(&mut warm);
    rng.shuffle(&mut third);
    (0..3 * apps)
        .map(|r| [(Op::Cold, cold[r]), (Op::Warm, warm[r]), third[r]])
        .collect()
}

pub fn run(names: &[&str], opts: &Opts) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut out = Outcome::default();
    let (corpus, mut passes) = corpus(names, opts, &mut out)?;
    let borrowed: Vec<(&Application, &[Arc<ContextData>])> =
        corpus.iter().map(|c| (&c.app, c.data.as_slice())).collect();
    let traced_cycles = ((opts.seconds - TRACED_REST_S) / TRACED_CYCLE_S)
        .round()
        .max(1.0) as usize;

    let mut setup_ms = Vec::new();
    let mut sent = 0;
    let mut cycle_ms: Vec<f64> = Vec::new();
    let mut trace = Traced::default();
    let mut loop_ms = 0.0;
    let mut speedups = Vec::new();
    let mut counters = Json::Null;
    let mut cycles = 0;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        session(|client, started| {
            let loaded = load(client, &corpus, &mut out)?;
            setup_ms.push(ms_since(started));
            if !last {
                return Ok(());
            }
            speedups = loaded
                .iter()
                .map(|(_, r)| r.get("speedup").and_then(Json::as_f64).unwrap_or(f64::NAN))
                .collect();
            let replica = if opts.trace {
                let service = Service::new(
                    ServeCache::new(
                        ServerConfig::default().cache_capacity,
                        LatencyModel::paper_default(),
                    ),
                    "replica",
                    false,
                );
                for app in &corpus {
                    service
                        .handle_bytes(select_inline(&app.ir).as_bytes())
                        .map_err(|e| format!("replica load: {e}"))?;
                }
                Some(service)
            } else {
                None
            };
            let mut rng = Rng::new(opts.seed);
            let start = Instant::now();
            let mut round = 0;
            loop {
                let cycle_start = Instant::now();
                for requests in cycle_plan(corpus.len(), &mut rng) {
                    round += 1;
                    for (op, i) in requests {
                        let app = &corpus[i];
                        let (hash, warm) = &loaded[i];
                        let ir = if op == Op::Cold {
                            renamed(&app.ir, &app.name, round)
                        } else {
                            String::new()
                        };
                        let request = match op {
                            Op::Cold => select_inline(&ir),
                            Op::Warm => by_hash("select", hash),
                            Op::Rtl => by_hash("rtl", hash),
                            Op::Verify => by_hash("verify", hash),
                            Op::Lint => by_hash("lint", hash),
                        };
                        let (response, ms) = client.call(&request)?;
                        let s = Instant::now();
                        let problems = check_response(op, app, warm, &response);
                        let check_ms = ms_since(s);
                        out.record(&format!("{op:?} {} round {round}", app.name), problems);
                        sent += 1;
                        if let Some(service) = &replica {
                            let s = Instant::now();
                            let replayed = service.handle_bytes(request.as_bytes());
                            let handle = ms_since(s);
                            let layers = layer_calls(op, app, &ir, &mut trace)?;
                            trace.trace_only_ms += ms_since(s);
                            let replica_problems = match replayed {
                                Ok(r) => check::same_response(&response, &r, &[]),
                                Err(e) => vec![format!("replica: {e}")],
                            };
                            out.record(&format!("replica {op:?} {}", app.name), replica_problems);
                            let k = op.index();
                            trace.rtt[k].push(ms);
                            trace.handle[k].push(handle);
                            trace.self_ms[k].push(handle - layers);
                            trace.wire[k].push(ms - handle);
                            trace.checks.push(check_ms);
                        }
                    }
                }
                cycle_ms.push(ms_since(cycle_start));
                let s = Instant::now();
                for _ in 0..REFERENCE_PASSES_PER_CYCLE {
                    passes.step(
                        &borrowed,
                        names,
                        &SearchConfig::default(),
                        opts.trace,
                        &mut out,
                    );
                }
                trace.reference_ms += ms_since(s);
                cycles += 1;
                let next = Duration::from_secs_f64(ms_since(cycle_start) / 1e3);
                let finished = if opts.trace {
                    cycles >= traced_cycles
                } else {
                    Instant::now() + next > deadline
                };
                if finished {
                    break;
                }
            }
            loop_ms = ms_since(start);
            if opts.trace {
                counters = client.call(r#"{"op":"stats"}"#)?.0;
            }
            Ok(())
        })?;
    }
    out.note("apps", names.join(" "));
    out.note(
        "server_config",
        format!(
            "in-process ised Server, verbose false, cache capacity {}",
            ServerConfig::default().cache_capacity
        ),
    );
    out.note("ise_config", format!("{:?}", IseConfig::paper_default()));
    out.note("search_config", format!("{:?}", SearchConfig::default()));
    out.note("verify_vectors", VERIFY_VECTORS);
    out.note("cycles", cycles);
    out.note("requests", sent);

    let m = &mut out.metrics;
    if !opts.trace {
        m.set("setup_s", median(&setup_ms) / 1e3);
        m.set("pass_s", median(&cycle_ms) / 1e3);
        m.set("speedup_geomean", geomean(&speedups));
        m.set(
            "peak_rss_mb",
            peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?,
        );
        return Ok(out);
    }
    passes.report(names, m);
    report_trace(&trace, &counters, loop_ms, m);
    batch::profile_critical_blocks(&borrowed, names, &SearchConfig::default(), &mut out);
    Ok(out)
}

fn report_trace(t: &Traced, counters: &Json, loop_ms: f64, m: &mut Metrics) {
    const OPS: [Op; 5] = [Op::Cold, Op::Warm, Op::Rtl, Op::Verify, Op::Lint];
    for (op, name) in OPS.iter().zip(crate::metrics::SERVE_OPS) {
        let k = op.index();
        m.set(format!("serve.handle_ms.{name}"), median(&t.handle[k]));
        m.set(format!("serve.self_ms.{name}"), median(&t.self_ms[k]));
        m.set(format!("serve.wire_ms.{name}"), median(&t.wire[k]));
    }
    let cold = &t.rtt[Op::Cold.index()];
    let warm = &t.rtt[Op::Warm.index()];
    m.set("serve.cold_ms_p50", percentile(cold, 50.0));
    m.set("serve.cold_ms_p90", percentile(cold, 90.0));
    m.set("serve.warm_ms_p50", percentile(warm, 50.0));
    m.set("serve.warm_ms_p90", percentile(warm, 90.0));
    m.set("serve.verify_ms_p50", median(&t.rtt[Op::Verify.index()]));
    m.set("ir.parse_ms", median(&t.parse));
    m.set("context.build_ms", median(&t.context));
    m.set("rtl.emit_ms", median(&t.emit));
    m.set("rtl.verify_ms", median(&t.verify));
    m.set("analysis.lint_ms", median(&t.lint));
    m.set("bench.check_ms", median(&t.checks));
    for key in [
        "context_misses",
        "selection_hits",
        "selection_misses",
        "evictions",
    ] {
        let value = counters.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        m.set(format!("serve.{key}"), value);
    }
    // Every round trip splits exactly into wire + serve self + layer
    // calls; what the loop spent outside round trips, checks, reference
    // passes and the trace-only replicas is unaccounted.
    let rtt_total: f64 = t.rtt.iter().flatten().sum();
    let accounted = rtt_total + t.checks.iter().sum::<f64>() + t.trace_only_ms + t.reference_ms;
    m.set("trace.e2e_ms", loop_ms);
    m.set(
        "trace.unaccounted_pct",
        (loop_ms - accounted) / loop_ms * 100.0,
    );
    m.set(
        "trace.overhead_pct",
        t.trace_only_ms / (loop_ms - t.trace_only_ms) * 100.0,
    );
}
