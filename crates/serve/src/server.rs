//! The long-lived `ised` server: accepts TCP connections, frames the
//! JSON protocol of [`crate::proto`] with [`crate::wire`], and serves
//! every request from the embedded [`Service`].
//!
//! Concurrency is hand-rolled on scoped threads (no async runtime in the
//! image): the acceptor polls a non-blocking listener so it can observe
//! the shutdown flag, and each connection gets one scoped worker thread.
//! Worker panics are impossible by construction on the request path —
//! every library error is mapped to a structured error response — and a
//! `catch_unwind` backstop turns anything that slips through into an
//! `"internal"` error response instead of a dead connection.
//!
//! Shutdown is event-driven, not poll-bound: every accepted connection
//! registers a handle, and [`Server::request_stop`] half-closes the read
//! side of all of them, so blocked workers observe EOF immediately
//! instead of waiting out a read-timeout poll. In-flight responses still
//! go out — only the read direction is closed.

use crate::json::{self, Json};
use crate::proto::ProtoError;
use crate::service::Service;
use crate::wire::{self, FrameRead, Framing, WireLimits};
use isegen_ir::LatencyModel;
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::cache::ServeCache;

/// How the server is set up; see [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// LRU bound on cached applications.
    pub cache_capacity: usize,
    /// Log requests and connections to stderr.
    pub verbose: bool,
    /// Append-only disk tier for the cache: replayed on boot, written
    /// through on every submit/selection, so a restarted process comes
    /// back warm. `None` keeps the cache purely in-memory.
    pub disk_path: Option<PathBuf>,
    /// Close a connection that does not start a request within this.
    pub idle_timeout: Option<Duration>,
    /// Once a request's first byte arrived, the complete frame must
    /// arrive within this (slowloris protection).
    pub read_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache_capacity: 64,
            verbose: true,
            disk_path: None,
            idle_timeout: None,
            read_deadline: None,
        }
    }
}

/// The `ised` daemon. Construct with [`Server::bind`], run with
/// [`Server::run`] (blocks until a `shutdown`/`drain` request or
/// [`Server::request_stop`]).
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    service: Service,
    config: ServerConfig,
    stop: AtomicBool,
    connections: AtomicU64,
    /// Read-half handles of live connections, so `request_stop` can
    /// unblock every worker instantly. Keyed by a connection id because
    /// workers unregister themselves on exit.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) with the
    /// paper-default latency model. With `config.disk_path` set, the
    /// cache log is replayed before the first connection is accepted.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let model = LatencyModel::paper_default();
        let cache = match &config.disk_path {
            Some(path) => ServeCache::with_disk(config.cache_capacity, model, path)?,
            None => ServeCache::new(config.cache_capacity, model),
        };
        let service = Service::new(cache, "ised", config.verbose);
        Ok(Server {
            listener,
            local_addr,
            service,
            config,
            stop: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared cache (exposed for in-process tests and stats).
    pub fn cache(&self) -> &ServeCache {
        self.service.cache()
    }

    /// The embedded request engine.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Asks the accept loop to drain and return, and half-closes the
    /// read side of every live connection so blocked workers wake
    /// immediately. Safe from any thread.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Ok(conns) = self.conns.lock() {
            for stream in conns.values() {
                // In-flight responses still go out on the write half.
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
    }

    fn log(&self, message: impl AsRef<str>) {
        if self.config.verbose {
            eprintln!("[ised] {}", message.as_ref());
        }
    }

    /// Accepts and serves connections until shutdown. Every connection
    /// runs on its own scoped thread; the call returns only after all
    /// of them finished.
    pub fn run(&self) -> io::Result<()> {
        self.log(format!(
            "listening on {} (cache capacity {})",
            self.local_addr, self.config.cache_capacity
        ));
        std::thread::scope(|scope| {
            loop {
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, peer)) => {
                        self.connections.fetch_add(1, Ordering::Relaxed);
                        self.log(format!("connection from {peer}"));
                        let conn_id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
                        if let (Ok(clone), Ok(mut conns)) = (stream.try_clone(), self.conns.lock())
                        {
                            conns.insert(conn_id, clone);
                        }
                        scope.spawn(move || {
                            if let Err(e) = self.handle_connection(stream) {
                                self.log(format!("connection {peer} closed: {e}"));
                            } else {
                                self.log(format!("connection {peer} closed"));
                            }
                            if let Ok(mut conns) = self.conns.lock() {
                                conns.remove(&conn_id);
                            }
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => {
                        // Accept errors (ECONNABORTED, EMFILE under fd
                        // pressure, EINTR, …) are transient from the
                        // listener's point of view: log, back off and
                        // keep accepting. Bailing out here would leave
                        // the daemon alive but deaf — workers keep
                        // serving inside the scope while no new client
                        // can ever connect.
                        self.log(format!("accept error (retrying): {e}"));
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
            }
        });
        // Flush the disk tier so a clean exit never loses the tail.
        self.cache().sync_disk();
        self.log("shutdown complete");
        Ok(())
    }

    fn handle_connection(&self, stream: TcpStream) -> io::Result<()> {
        // A short socket timeout keeps the frame reader's idle/deadline
        // and stop checks responsive; `request_stop` additionally
        // half-closes the socket so waiting here ends instantly.
        // No-delay: a response frame leaves at once instead of waiting
        // for the client's delayed ACK (see the `wire` module docs).
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(wire::POLL_INTERVAL))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let limits = WireLimits {
            idle: self.config.idle_timeout,
            deadline: self.config.read_deadline,
            ..WireLimits::default()
        };
        let mut bytes = Vec::new();
        loop {
            let framing = match wire::read_frame(&mut reader, &mut bytes, &limits, &self.stop)? {
                FrameRead::Frame(framing) => framing,
                FrameRead::Eof | FrameRead::Stopped => return Ok(()),
                FrameRead::TooLong(framing) => {
                    let cap = match framing {
                        Framing::Line => limits.max_line,
                        Framing::Prefixed => limits.max_frame,
                    };
                    self.service.count_error_request();
                    let err = ProtoError::new("protocol", format!("request exceeds {cap} bytes"));
                    self.respond(&mut writer, &err.to_response(), framing)?;
                    match framing {
                        // The oversized line was drained; keep serving.
                        Framing::Line => continue,
                        // An unread prefixed body desynchronizes the
                        // stream; nothing to do but close.
                        Framing::Prefixed => return Ok(()),
                    }
                }
                FrameRead::IdleTimeout => {
                    self.log("closing idle connection");
                    return Ok(());
                }
                FrameRead::DeadlineExceeded => {
                    self.service.count_error_request();
                    let err = ProtoError::new(
                        "timeout",
                        "request did not complete within the read deadline",
                    );
                    // Best effort: a slowloris peer may not read it.
                    let _ = self.respond(&mut writer, &err.to_response(), Framing::Line);
                    return Ok(());
                }
                FrameRead::Malformed(why) => {
                    self.service.count_error_request();
                    let err = ProtoError::new("protocol", why);
                    let _ = self.respond(&mut writer, &err.to_response(), Framing::Line);
                    return Ok(());
                }
            };
            let text = String::from_utf8_lossy(&bytes);
            let trimmed = text.trim();
            if trimmed.is_empty() {
                continue;
            }
            let request = match json::parse(trimmed) {
                Ok(request) => request,
                Err(e) => {
                    self.service.count_error_request();
                    let err = ProtoError::new("parse", e.to_string());
                    self.log(format!("error response: {err}"));
                    self.respond(&mut writer, &err.to_response(), framing)?;
                    continue;
                }
            };
            // Transport-level ops stay with the server; everything else
            // goes through the shared service engine.
            match request.get("op").and_then(Json::as_str) {
                Some("shutdown") => {
                    self.service.count_control_request();
                    self.log("shutdown requested");
                    let response = Json::obj([("ok", Json::Bool(true)), ("op", "shutdown".into())]);
                    self.respond(&mut writer, &response, framing)?;
                    self.request_stop();
                    return Ok(());
                }
                Some("drain") => {
                    // Graceful stop with a durability receipt: sync the
                    // disk log, then acknowledge with the counters a
                    // supervisor needs to confirm nothing was dropped.
                    self.service.count_control_request();
                    self.log("drain requested");
                    let synced = self.cache().sync_disk();
                    let mut response = Json::obj([
                        ("ok", Json::Bool(true)),
                        ("op", "drain".into()),
                        ("requests", self.service.request_count().into()),
                        ("synced", Json::Bool(synced)),
                    ]);
                    if let Some(d) = self.cache().disk_counters() {
                        if let Json::Obj(members) = &mut response {
                            members.push(("disk_appends".to_string(), d.appends.into()));
                        }
                    }
                    self.respond(&mut writer, &response, framing)?;
                    self.request_stop();
                    return Ok(());
                }
                _ => {}
            }
            // The backstop: a panic anywhere in dispatch becomes an
            // "internal" error response, not a dead worker thread.
            let response = catch_unwind(AssertUnwindSafe(|| self.service.handle(&request)))
                .unwrap_or_else(|_| {
                    Err(ProtoError::new(
                        "internal",
                        "request handler panicked; see server log",
                    ))
                })
                .unwrap_or_else(|e| {
                    self.log(format!("error response: {e}"));
                    e.to_response()
                });
            let response = self.augment_stats(&request, response);
            self.respond(&mut writer, &response, framing)?;
        }
    }

    /// Adds the transport-level `connections` counter to `stats`
    /// responses; every other response passes through untouched.
    fn augment_stats(&self, request: &Json, mut response: Json) -> Json {
        if request.get("op").and_then(Json::as_str) == Some("stats") {
            if let Json::Obj(members) = &mut response {
                members.push((
                    "connections".to_string(),
                    self.connections.load(Ordering::Relaxed).into(),
                ));
            }
        }
        response
    }

    /// Serializes and writes one response in the request's framing.
    fn respond(&self, writer: &mut TcpStream, response: &Json, framing: Framing) -> io::Result<()> {
        wire::write_frame(writer, response.to_string().as_bytes(), framing)
    }
}
