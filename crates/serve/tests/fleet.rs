//! Fleet integration tests: routing parity with the library engine,
//! SIGKILL failover, warm restarts from the disk log (by supervisor and
//! by drain), and graceful degradation when no shard can ever spawn.
//!
//! Every test runs real `ised` child processes (CARGO_BIN_EXE_ised) but
//! drives the [`Fleet`] in-process, so shard lifecycle can be observed
//! and perturbed directly.

use isegen_ir::{text, LatencyModel};
use isegen_serve::cache::fnv1a;
use isegen_serve::fleet::{Fleet, FleetConfig, Ring, Router};
use isegen_serve::json::{self, Json};
use isegen_serve::{ServeCache, Service};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    std::env::temp_dir().join(format!("isegen-fleet-{tag}-{}-{nanos}", std::process::id()))
}

/// A fleet config sized for tests: the real binary, a scratch state
/// dir, and fast supervision so restarts are observable in seconds.
fn test_config(shards: usize, tag: &str) -> FleetConfig {
    FleetConfig {
        shards,
        ised_bin: PathBuf::from(env!("CARGO_BIN_EXE_ised")),
        state_dir: temp_dir(tag),
        cache_capacity: 8,
        verbose: false,
        health_interval: Duration::from_millis(100),
        backoff_base: Duration::from_millis(20),
        breaker_open_for: Duration::from_millis(300),
        ..FleetConfig::default()
    }
}

fn select_by_ir(ir: &str) -> Vec<u8> {
    Json::obj([("op", "select".into()), ("ir", ir.into())])
        .to_string()
        .into_bytes()
}

fn parse(bytes: &[u8]) -> Json {
    json::parse(String::from_utf8_lossy(bytes).trim()).expect("response is JSON")
}

/// Responses with the transport-dependent `cache` field removed, so
/// hit/miss answers can be compared on content.
fn strip_cache(response: &Json) -> String {
    match response {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "cache")
                .cloned()
                .collect(),
        )
        .to_string(),
        other => other.to_string(),
    }
}

fn workload_ir() -> String {
    let spec = isegen_workloads::workload_by_name("synth_tiny").expect("workload");
    text::write_application(&spec.application())
}

/// The routing key the fleet computes for this IR — canonical-text FNV,
/// matching [`Fleet`]'s placement exactly.
fn routing_key(ir: &str) -> u64 {
    let app = text::parse_application(ir).expect("parse ir");
    fnv1a(text::write_application(&app).as_bytes())
}

/// Requests routed through real shards must answer with exactly the
/// bytes the in-process library engine produces.
#[test]
fn routed_responses_match_the_library_engine_byte_for_byte() {
    let fleet = Fleet::start(test_config(2, "parity")).expect("fleet");
    let ir = workload_ir();

    let via_fleet = parse(&fleet.handle(&select_by_ir(&ir)));
    let local = Service::new(
        ServeCache::new(8, LatencyModel::paper_default()),
        "oracle",
        false,
    );
    let via_library = local
        .handle_bytes(&select_by_ir(&ir))
        .expect("local select");
    assert_eq!(
        via_fleet.to_string(),
        via_library.to_string(),
        "shard and library answers diverge"
    );
    assert_eq!(via_fleet.get("cache").and_then(Json::as_str), Some("miss"));

    // And by hash on the second round: a cache hit on the same shard.
    let app = via_fleet.get("app").and_then(Json::as_str).expect("hash");
    let by_hash = Json::obj([("op", "select".into()), ("app", app.into())])
        .to_string()
        .into_bytes();
    let second = parse(&fleet.handle(&by_hash));
    assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(strip_cache(&via_fleet), strip_cache(&second));
}

/// SIGKILL the primary shard mid-fleet: the next request fails over to
/// the ring's next shard and the answer's content is unchanged. Then
/// the health loop restarts the dead shard, which must come back warm
/// from its disk log.
#[test]
fn sigkilled_shard_fails_over_then_restarts_warm() {
    let fleet = Fleet::start(test_config(2, "sigkill")).expect("fleet");
    let ir = workload_ir();
    let key = routing_key(&ir);
    let primary = Ring::new(2).shard_for(key);

    let first = parse(&fleet.handle(&select_by_ir(&ir)));
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
    let app = first
        .get("app")
        .and_then(Json::as_str)
        .expect("hash")
        .to_string();

    // Kill the primary the hard way — no drain, no flush.
    let backend = &fleet.backends()[primary];
    let old_pid = backend.pid().expect("primary pid");
    assert!(std::process::Command::new("kill")
        .args(["-9", &old_pid.to_string()])
        .status()
        .expect("kill")
        .success());
    // try_wait observes the death (and reaps) once the signal lands.
    let t0 = Instant::now();
    while !backend.child_dead() && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(backend.child_dead(), "SIGKILL did not take");

    // No health loop is running yet: the failover is the router's own.
    let failover = parse(&fleet.handle(&select_by_ir(&ir)));
    assert_eq!(
        strip_cache(&first),
        strip_cache(&failover),
        "failover answer diverges from the original"
    );
    let stats = fleet.aggregate_stats();
    let router = stats.get("router").expect("router stats");
    assert!(
        router.get("failovers").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{stats}"
    );

    // Now supervise: the health loop restarts the shard; the replayed
    // disk log makes the very first select a cache hit. A panicking
    // assert must still stop the health loop, or the scope never joins.
    std::thread::scope(|scope| {
        scope.spawn(|| fleet.run_health_loop());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_secs(15) {
                if !backend.child_dead() && backend.pid() != Some(old_pid) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            assert!(
                !backend.child_dead() && backend.pid() != Some(old_pid),
                "health loop never restarted shard {primary}"
            );
            assert!(backend.restarts.load(std::sync::atomic::Ordering::Relaxed) >= 1);

            let by_hash = Json::obj([("op", "select".into()), ("app", app.as_str().into())])
                .to_string()
                .into_bytes();
            let warm = parse(&fleet.handle(&by_hash));
            assert_eq!(
                warm.get("cache").and_then(Json::as_str),
                Some("hit"),
                "restarted shard is not warm: {warm}"
            );
            assert_eq!(strip_cache(&first), strip_cache(&warm));
        }));
        fleet.request_stop();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
    std::fs::remove_dir_all(&fleet.config().state_dir).ok();
}

/// `drain` flushes a shard, restarts it, and the replacement process
/// serves the drained shard's cache from its log.
#[test]
fn drain_recycles_the_shard_warm() {
    let fleet = Fleet::start(test_config(1, "drain")).expect("fleet");
    let ir = workload_ir();

    let first = parse(&fleet.handle(&select_by_ir(&ir)));
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
    let old_pid = fleet.backends()[0].pid().expect("pid");

    let drained = fleet.drain_shard(0);
    assert_eq!(
        drained.get("ok").and_then(Json::as_bool),
        Some(true),
        "{drained}"
    );
    assert_eq!(
        drained.get("acked").and_then(Json::as_bool),
        Some(true),
        "{drained}"
    );
    let new_pid = drained
        .get("new_pid")
        .and_then(Json::as_u64)
        .expect("new pid");
    assert_ne!(new_pid, old_pid as u64, "drain did not replace the process");

    let warm = parse(&fleet.handle(&select_by_ir(&ir)));
    assert_eq!(
        warm.get("cache").and_then(Json::as_str),
        Some("hit"),
        "drained shard came back cold: {warm}"
    );
    assert_eq!(strip_cache(&first), strip_cache(&warm));

    // Out-of-range shard index is a structured error, not a panic.
    let bad = fleet.drain_shard(7);
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    std::fs::remove_dir_all(&fleet.config().state_dir).ok();
}

/// A fleet whose binary cannot spawn still answers everything — from
/// the in-process fallback engine, with ordinary `ok` responses.
#[test]
fn unspawnable_fleet_degrades_to_the_fallback_engine() {
    let mut config = test_config(2, "nobin");
    config.ised_bin = PathBuf::from("/nonexistent/ised-does-not-exist");
    let fleet = Fleet::start(config).expect("fleet starts degraded");
    let ir = workload_ir();

    let response = parse(&fleet.handle(&select_by_ir(&ir)));
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );
    let stats = fleet.aggregate_stats();
    let router = stats.get("router").expect("router stats");
    assert!(
        router.get("fallbacks").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{stats}"
    );
    std::fs::remove_dir_all(&fleet.config().state_dir).ok();
}

/// TCP smoke over the full stack: router front, one shard, both ops
/// that only the router understands (`stats` aggregation, fleet-wide
/// `shutdown`).
#[test]
fn router_front_serves_ping_stats_and_shutdown_over_tcp() {
    let fleet = Fleet::start(test_config(1, "front")).expect("fleet");
    let state_dir = fleet.config().state_dir.clone();
    let router = Router::bind("127.0.0.1:0", fleet).expect("bind router");
    let addr = router.local_addr();

    std::thread::scope(|scope| {
        scope.spawn(|| router.run().expect("router run"));

        // As above: a panicking assert must still stop the router so
        // the scope can join.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut roundtrip = |request: &str| -> Json {
                conn.write_all(format!("{request}\n").as_bytes())
                    .expect("send");
                let mut line = String::new();
                reader.read_line(&mut line).expect("receive");
                json::parse(line.trim()).expect("response is JSON")
            };

            let pong = roundtrip(r#"{"op":"ping"}"#);
            assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));

            let stats = roundtrip(r#"{"op":"stats"}"#);
            assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
            assert!(stats.get("router").is_some(), "{stats}");
            assert!(stats.get("connections").and_then(Json::as_u64).is_some());

            let missing = roundtrip(r#"{"op":"drain"}"#);
            assert_eq!(missing.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(missing.get("kind").and_then(Json::as_str), Some("protocol"));

            let bye = roundtrip(r#"{"op":"shutdown"}"#);
            assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        }));
        router.request_stop();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
    std::fs::remove_dir_all(&state_dir).ok();
}

/// Round trips through the router stay free of delayed-ACK stalls on
/// both hops: 50 pings (answered by the router) and 50 warm selects by
/// hash (forwarded to the shard and back) each finish in under a
/// second. With a frame split over two sends on a Nagle socket, every
/// response would wait ~40 ms for the peer's delayed ACK: about 2 s per
/// batch. (20 stalled round trips still fit in a second, so 20 would
/// not tell the two apart.)
#[test]
fn routed_round_trips_do_not_stall_on_delayed_ack() {
    const REQUESTS: usize = 50;
    const BUDGET: Duration = Duration::from_secs(1);
    let fleet = Fleet::start(test_config(1, "latency")).expect("fleet");
    let state_dir = fleet.config().state_dir.clone();
    let router = Router::bind("127.0.0.1:0", fleet).expect("bind router");
    let addr = router.local_addr();
    let ir = workload_ir();

    std::thread::scope(|scope| {
        scope.spawn(|| router.run().expect("router run"));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Nagle stays on client-side; each request is one write.
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut roundtrip = |request: &[u8]| -> Json {
                let mut frame = request.to_vec();
                frame.push(b'\n');
                conn.write_all(&frame).expect("send");
                let mut line = String::new();
                reader.read_line(&mut line).expect("receive");
                json::parse(line.trim()).expect("response is JSON")
            };

            let start = Instant::now();
            for _ in 0..REQUESTS {
                let pong = roundtrip(br#"{"op":"ping"}"#);
                assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));
            }
            let elapsed = start.elapsed();
            assert!(elapsed < BUDGET, "{REQUESTS} routed pings took {elapsed:?}");

            let cold = roundtrip(&select_by_ir(&ir));
            let app = cold.get("app").and_then(Json::as_str).expect("hash");
            let by_hash = Json::obj([("op", "select".into()), ("app", app.into())])
                .to_string()
                .into_bytes();
            let start = Instant::now();
            for _ in 0..REQUESTS {
                let warm = roundtrip(&by_hash);
                assert_eq!(warm.get("cache").and_then(Json::as_str), Some("hit"));
            }
            let elapsed = start.elapsed();
            assert!(
                elapsed < BUDGET,
                "{REQUESTS} warm selects through the shard took {elapsed:?}"
            );
        }));
        router.request_stop();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
    std::fs::remove_dir_all(&state_dir).ok();
}
