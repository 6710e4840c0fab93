//! Spawns the real `ised` binary on an ephemeral port and drives it over
//! TCP — the process-boundary slice of the daemon tests (the library
//! path is covered end-to-end in the workspace's `tests/serve_roundtrip.rs`).

use isegen_serve::json::{self, Json};
use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn() -> Daemon {
        Daemon::spawn_with(&[])
    }

    fn spawn_with(extra: &[&str]) -> Daemon {
        // --quiet: per-request logging off, so the undrained stderr pipe
        // can never fill and block the daemon mid-test. Panic messages
        // bypass the logger and still land on stderr for the final grep.
        let mut child = Command::new(env!("CARGO_BIN_EXE_ised"))
            .args(["--addr", "127.0.0.1:0", "--quiet"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ised");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner
            .trim()
            .rsplit(' ')
            .next()
            .expect("banner has address")
            .to_string();
        assert!(
            banner.contains("ised listening on"),
            "unexpected banner {banner:?}"
        );
        Daemon { child, addr }
    }

    fn connect(&self) -> TcpStream {
        TcpStream::connect(&self.addr).expect("connect to ised")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn roundtrip(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, request: &str) -> Json {
    conn.write_all(format!("{request}\n").as_bytes())
        .expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("receive");
    json::parse(line.trim()).expect("response is JSON")
}

#[test]
fn binary_serves_submit_select_and_shuts_down_without_panicking() {
    let mut daemon = Daemon::spawn();
    let mut conn = daemon.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));

    let pong = roundtrip(&mut conn, &mut reader, r#"{"op":"ping"}"#);
    assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));

    // A tiny program through the full submit → select path.
    let ir = "app demo\\nblock hot freq 100\\n  a = in\\n  b = in\\n  m = mul a b\\n  s = add m a\\nend\\n";
    let submit = roundtrip(
        &mut conn,
        &mut reader,
        &format!(r#"{{"op":"submit","ir":"{ir}"}}"#),
    );
    assert_eq!(
        submit.get("ok").and_then(Json::as_bool),
        Some(true),
        "{submit}"
    );
    let app = submit
        .get("app")
        .and_then(Json::as_str)
        .expect("hash")
        .to_string();
    let select = roundtrip(
        &mut conn,
        &mut reader,
        &format!(r#"{{"op":"select","app":"{app}"}}"#),
    );
    assert_eq!(
        select.get("ok").and_then(Json::as_bool),
        Some(true),
        "{select}"
    );
    assert!(
        select
            .get("speedup")
            .and_then(Json::as_f64)
            .expect("speedup")
            > 1.0
    );

    // Garbage must produce a structured error on the same connection.
    let err = roundtrip(&mut conn, &mut reader, "][ not json");
    assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("parse"));

    let bye = roundtrip(&mut conn, &mut reader, r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    drop(conn);
    drop(reader);

    let status = daemon.child.wait().expect("wait for exit");
    assert!(status.success(), "ised exited with {status:?}");
    let mut log = String::new();
    daemon
        .child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut log)
        .map(|_| ())
        .expect("read log");
    assert!(
        !log.contains("panicked"),
        "server log shows a panic:\n{log}"
    );
}

/// SIGKILL the daemon mid-life and restart it on the same `--disk-cache`
/// log: the replacement must replay the log and answer the first select
/// as a cache hit, with the replay visible in its stats.
#[test]
fn killed_daemon_restarts_warm_from_its_disk_cache() {
    let disk = std::env::temp_dir().join(format!(
        "isegen-ised-warm-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos()
    ));
    let disk_arg = disk.to_str().expect("utf8 temp path").to_string();

    let mut daemon = Daemon::spawn_with(&["--disk-cache", &disk_arg]);
    let mut conn = daemon.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let ir = "app demo\\nblock hot freq 100\\n  a = in\\n  b = in\\n  m = mul a b\\n  s = add m a\\nend\\n";
    let first = roundtrip(
        &mut conn,
        &mut reader,
        &format!(r#"{{"op":"select","ir":"{ir}"}}"#),
    );
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
    let app = first
        .get("app")
        .and_then(Json::as_str)
        .expect("hash")
        .to_string();
    drop(conn);
    drop(reader);

    // The crash: no drain, no graceful flush — the append-time fsync is
    // all the durability the log gets.
    daemon.child.kill().expect("SIGKILL");
    daemon.child.wait().expect("reap");

    let daemon = Daemon::spawn_with(&["--disk-cache", &disk_arg]);
    let mut conn = daemon.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let warm = roundtrip(
        &mut conn,
        &mut reader,
        &format!(r#"{{"op":"select","app":"{app}"}}"#),
    );
    assert_eq!(
        warm.get("cache").and_then(Json::as_str),
        Some("hit"),
        "restarted daemon is not warm: {warm}"
    );

    let stats = roundtrip(&mut conn, &mut reader, r#"{"op":"stats"}"#);
    let disk_stats = stats.get("disk").expect("disk stats present");
    assert_eq!(
        disk_stats.get("replayed_apps").and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );
    assert_eq!(
        disk_stats.get("replayed_selections").and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );
    std::fs::remove_file(&disk).ok();
}
