//! Wire framing for the `ised` protocol: the legacy newline-delimited
//! encoding plus length-prefixed frames for payloads that should not be
//! one giant line, with idle/progress deadlines against hostile peers.
//!
//! # Framings
//!
//! * **Line** (legacy, still accepted everywhere): one JSON document,
//!   one `\n`-terminated line, capped at [`MAX_LINE_BYTES`].
//! * **Prefixed**: a header line `#<decimal byte count>\n`, then exactly
//!   that many payload bytes (newlines allowed inside), then one `\n`
//!   terminator. Capped at [`MAX_FRAME_BYTES`]. A response is framed the
//!   same way the request was, so old clients never see a `#` header.
//!
//! The first byte disambiguates: JSON never starts with `#`.
//!
//! # Deadlines
//!
//! [`read_frame`] enforces two optional limits while reading:
//!
//! * **idle** — maximum wait for the *first* byte of the next frame; an
//!   idle connection past it is closed.
//! * **progress deadline** — once the first byte arrived, the complete
//!   frame must arrive within this; a slowloris peer dribbling one byte
//!   at a time cannot pin a worker thread.
//!
//! Both rely on the underlying stream having a short read timeout so
//! the loop regains control periodically (see [`POLL_INTERVAL`]).
//!
//! # Write discipline
//!
//! [`write_frame`] hands a whole frame (header, body, terminator) to
//! the writer in one vectored write, and every socket that carries
//! frames (`ised` and router connections, router→shard requests) sets
//! `TCP_NODELAY`. Together they keep a request/response exchange free
//! of the Nagle/delayed-ACK stall: were a frame split over two sends,
//! the second, small send would wait for the peer's delayed ACK
//! (~40 ms on Linux) on every round trip. Clients should likewise send
//! a request as one write.

use std::io::{self, BufRead, IoSlice, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Cap on one legacy request/response line (bytes).
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Cap on one length-prefixed frame payload (bytes).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Longest accepted `#<digits>` frame header (enough for any length up
/// to [`MAX_FRAME_BYTES`] with a wide margin).
const MAX_HEADER_BYTES: usize = 20;

/// Socket read timeout that keeps deadline checks responsive without
/// busy-waiting. Connection handlers should configure their stream with
/// this.
pub const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How a frame was (or should be) encoded on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// One `\n`-terminated line.
    Line,
    /// `#<len>\n` + payload + `\n`.
    Prefixed,
}

/// Read-side limits; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct WireLimits {
    /// Cap on a legacy line.
    pub max_line: usize,
    /// Cap on a prefixed frame payload.
    pub max_frame: usize,
    /// Maximum wait for the first byte of a frame.
    pub idle: Option<Duration>,
    /// Maximum first-byte-to-complete-frame duration.
    pub deadline: Option<Duration>,
}

impl Default for WireLimits {
    fn default() -> Self {
        WireLimits {
            max_line: MAX_LINE_BYTES,
            max_frame: MAX_FRAME_BYTES,
            idle: None,
            deadline: None,
        }
    }
}

/// The outcome of [`read_frame`].
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete frame; the payload is in the caller's buffer.
    Frame(Framing),
    /// Clean end of stream between frames.
    Eof,
    /// The peer sent a frame larger than the cap. For `Line`, the rest
    /// of the line was drained and the connection can keep being
    /// served; for `Prefixed` the stream is desynchronized and should
    /// be closed after an error response.
    TooLong(Framing),
    /// The stop flag was raised mid-read.
    Stopped,
    /// No frame started within the idle limit.
    IdleTimeout,
    /// A started frame did not complete within the deadline.
    DeadlineExceeded,
    /// The bytes on the wire are not a valid frame (bad header or
    /// missing terminator); close the connection.
    Malformed(&'static str),
}

enum Mode {
    /// Waiting for the first byte of the frame.
    Unknown,
    /// Legacy line; `true` once over the cap (draining).
    Line(bool),
    /// Accumulating the `#...` header line.
    Header(Vec<u8>),
    /// Reading `remaining` payload bytes of a prefixed frame.
    Body(usize),
    /// Expecting the final `\n` of a prefixed frame.
    Terminator,
}

/// Reads one frame into `buf` (cleared first), honouring `limits` and
/// `stop`. The stream behind `reader` should have a read timeout of
/// [`POLL_INTERVAL`]; timeouts are where idle/deadline/stop checks run.
pub fn read_frame<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    limits: &WireLimits,
    stop: &AtomicBool,
) -> io::Result<FrameRead> {
    buf.clear();
    let idle_from = Instant::now();
    let mut started_at: Option<Instant> = None;
    let mut mode = Mode::Unknown;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(FrameRead::Stopped);
                }
                match started_at {
                    None => {
                        if limits.idle.is_some_and(|lim| idle_from.elapsed() > lim) {
                            return Ok(FrameRead::IdleTimeout);
                        }
                    }
                    Some(t0) => {
                        if limits.deadline.is_some_and(|lim| t0.elapsed() > lim) {
                            return Ok(FrameRead::DeadlineExceeded);
                        }
                    }
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF. A partial legacy line still parses (historic
            // behaviour); a partial prefixed frame is just a dead peer.
            return Ok(match mode {
                Mode::Unknown => FrameRead::Eof,
                Mode::Line(true) => FrameRead::TooLong(Framing::Line),
                Mode::Line(false) if !buf.is_empty() => FrameRead::Frame(Framing::Line),
                _ => FrameRead::Eof,
            });
        }
        if started_at.is_none() {
            started_at = Some(Instant::now());
            mode = if chunk.first() == Some(&b'#') {
                Mode::Header(Vec::with_capacity(MAX_HEADER_BYTES))
            } else {
                Mode::Line(false)
            };
        }
        match &mut mode {
            Mode::Unknown => unreachable!("mode fixed at first byte"),
            Mode::Line(overflow) => {
                let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
                    Some(i) => (i + 1, true),
                    None => (chunk.len(), false),
                };
                if !*overflow {
                    buf.extend_from_slice(&chunk[..take]);
                    if buf.len() > limits.max_line {
                        *overflow = true;
                        buf.clear();
                    }
                }
                let overflowed = *overflow;
                reader.consume(take);
                if done {
                    // Drop the terminator (and a possible '\r' before it).
                    while matches!(buf.last(), Some(b'\n' | b'\r')) {
                        buf.pop();
                    }
                    return Ok(if overflowed {
                        FrameRead::TooLong(Framing::Line)
                    } else {
                        FrameRead::Frame(Framing::Line)
                    });
                }
            }
            Mode::Header(header) => {
                let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
                    Some(i) => (i + 1, true),
                    None => (chunk.len(), false),
                };
                if header.len() + take > MAX_HEADER_BYTES + 1 {
                    return Ok(FrameRead::Malformed("frame header too long"));
                }
                header.extend_from_slice(&chunk[..take]);
                reader.consume(take);
                if done {
                    let digits = &header[1..header.len() - 1];
                    let digits = match digits.last() {
                        Some(b'\r') => &digits[..digits.len() - 1],
                        _ => digits,
                    };
                    if digits.is_empty() || !digits.iter().all(u8::is_ascii_digit) {
                        return Ok(FrameRead::Malformed("frame header is not #<digits>"));
                    }
                    let len = match std::str::from_utf8(digits)
                        .ok()
                        .and_then(|s| s.parse::<usize>().ok())
                    {
                        Some(len) => len,
                        None => return Ok(FrameRead::Malformed("frame length out of range")),
                    };
                    if len > limits.max_frame {
                        return Ok(FrameRead::TooLong(Framing::Prefixed));
                    }
                    if len == 0 {
                        mode = Mode::Terminator;
                    } else {
                        buf.reserve(len.min(1 << 20));
                        mode = Mode::Body(len);
                    }
                }
            }
            Mode::Body(remaining) => {
                let take = chunk.len().min(*remaining);
                buf.extend_from_slice(&chunk[..take]);
                reader.consume(take);
                *remaining -= take;
                if *remaining == 0 {
                    mode = Mode::Terminator;
                }
            }
            Mode::Terminator => {
                let ok = chunk.first() == Some(&b'\n');
                reader.consume(1);
                return Ok(if ok {
                    FrameRead::Frame(Framing::Prefixed)
                } else {
                    FrameRead::Malformed("missing frame terminator")
                });
            }
        }
    }
}

/// Writes one frame in the requested framing and flushes.
///
/// Header, body and terminator go out together through one
/// `write_vectored` call (repeated only when the writer takes part of
/// the frame), so on a socket the frame leaves as one send and the body
/// is never copied. The bytes are exactly `body` + `\n` for
/// [`Framing::Line`] and `#<len>\n` + `body` + `\n` for
/// [`Framing::Prefixed`].
pub fn write_frame<W: Write>(writer: &mut W, body: &[u8], framing: Framing) -> io::Result<()> {
    let mut header = [0u8; MAX_HEADER_BYTES];
    let header_len = match framing {
        Framing::Line => {
            debug_assert!(
                !body.contains(&b'\n'),
                "line framing cannot carry embedded newlines"
            );
            0
        }
        Framing::Prefixed => {
            let mut cursor = io::Cursor::new(&mut header[..]);
            writeln!(cursor, "#{}", body.len())?;
            cursor.position() as usize
        }
    };
    let mut slices = [
        IoSlice::new(&header[..header_len]),
        IoSlice::new(body),
        IoSlice::new(b"\n"),
    ];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match writer.write_vectored(pending) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read_all(input: &[u8], limits: &WireLimits) -> Vec<(FrameRead, Vec<u8>)> {
        let stop = AtomicBool::new(false);
        let mut reader = BufReader::new(input);
        let mut out = Vec::new();
        let mut buf = Vec::new();
        loop {
            let r = read_frame(&mut reader, &mut buf, limits, &stop).expect("io");
            let done = matches!(r, FrameRead::Eof | FrameRead::Malformed(_));
            out.push((r, buf.clone()));
            if done {
                return out;
            }
        }
    }

    #[test]
    fn line_and_prefixed_interleave() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"op\":\"ping\"}", Framing::Line).unwrap();
        write_frame(&mut wire, b"{\"ir\":\"a\\nb\"}", Framing::Prefixed).unwrap();
        write_frame(&mut wire, b"{}", Framing::Line).unwrap();
        let frames = read_all(&wire, &WireLimits::default());
        assert_eq!(frames[0].0, FrameRead::Frame(Framing::Line));
        assert_eq!(frames[0].1, b"{\"op\":\"ping\"}");
        assert_eq!(frames[1].0, FrameRead::Frame(Framing::Prefixed));
        assert_eq!(frames[1].1, b"{\"ir\":\"a\\nb\"}");
        assert_eq!(frames[2].0, FrameRead::Frame(Framing::Line));
        assert_eq!(frames[3].0, FrameRead::Eof);
    }

    #[test]
    fn prefixed_payload_may_contain_newlines() {
        let body = b"line one\nline two\nline three";
        let mut wire = Vec::new();
        write_frame(&mut wire, body, Framing::Prefixed).unwrap();
        let frames = read_all(&wire, &WireLimits::default());
        assert_eq!(frames[0].0, FrameRead::Frame(Framing::Prefixed));
        assert_eq!(frames[0].1, body);
    }

    #[test]
    fn oversized_line_is_drained_and_reported() {
        let limits = WireLimits {
            max_line: 8,
            ..WireLimits::default()
        };
        let frames = read_all(b"0123456789abcdef\n{\"x\":1}\n", &limits);
        assert_eq!(frames[0].0, FrameRead::TooLong(Framing::Line));
        assert_eq!(frames[1].0, FrameRead::Frame(Framing::Line));
        assert_eq!(frames[1].1, b"{\"x\":1}");
    }

    #[test]
    fn oversized_frame_is_rejected_without_reading_body() {
        let limits = WireLimits {
            max_frame: 16,
            ..WireLimits::default()
        };
        let frames = read_all(b"#999999\nwhatever", &limits);
        assert_eq!(frames[0].0, FrameRead::TooLong(Framing::Prefixed));
    }

    #[test]
    fn malformed_headers_are_rejected() {
        for wire in [
            &b"#\n"[..],
            b"#12x\n{}",
            b"#-3\n{}",
            b"#184467440737095516150\n",
            b"#2\n{}X",
        ] {
            let last = read_all(wire, &WireLimits::default()).pop().unwrap().0;
            assert!(
                matches!(last, FrameRead::Malformed(_)),
                "{wire:?}: {last:?}"
            );
        }
    }

    #[test]
    fn empty_prefixed_frame_round_trips() {
        let frames = read_all(b"#0\n\n", &WireLimits::default());
        assert_eq!(frames[0].0, FrameRead::Frame(Framing::Prefixed));
        assert_eq!(frames[0].1, b"");
    }

    #[test]
    fn crlf_line_is_trimmed() {
        let frames = read_all(b"{\"op\":\"ping\"}\r\n", &WireLimits::default());
        assert_eq!(frames[0].0, FrameRead::Frame(Framing::Line));
        assert_eq!(frames[0].1, b"{\"op\":\"ping\"}");
    }

    /// A writer that records every write call and takes at most
    /// `max_take` bytes per call.
    struct CountingWriter {
        calls: usize,
        max_take: usize,
        bytes: Vec<u8>,
    }

    impl CountingWriter {
        fn new(max_take: usize) -> Self {
            CountingWriter {
                calls: 0,
                max_take,
                bytes: Vec::new(),
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut taken = 0;
            for buf in bufs {
                let take = buf.len().min(self.max_take - taken);
                self.bytes.extend_from_slice(&buf[..take]);
                taken += take;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The framing spelled out byte by byte: `body\n` or `#<len>\nbody\n`.
    fn expected_wire(body: &[u8], framing: Framing) -> Vec<u8> {
        let mut wire = match framing {
            Framing::Line => Vec::new(),
            Framing::Prefixed => format!("#{}\n", body.len()).into_bytes(),
        };
        wire.extend_from_slice(body);
        wire.push(b'\n');
        wire
    }

    #[test]
    fn every_frame_is_one_write_call() {
        let big: Vec<u8> = (0..(64 << 10) + 17)
            .map(|i| b'a' + (i % 26) as u8)
            .collect();
        let cases: [(&[u8], Framing); 6] = [
            (b"{\"op\":\"ping\"}", Framing::Line),
            (b"", Framing::Line),
            (b"{\"ir\":\"a\\nb\"}\nmore", Framing::Prefixed),
            (b"", Framing::Prefixed),
            (&big, Framing::Prefixed),
            (&big, Framing::Line),
        ];
        for (body, framing) in cases {
            let mut writer = CountingWriter::new(usize::MAX);
            write_frame(&mut writer, body, framing).unwrap();
            assert_eq!(writer.calls, 1, "{framing:?} frame of {} bytes", body.len());
            assert_eq!(writer.bytes, expected_wire(body, framing));
        }
    }

    #[test]
    fn partial_writes_resume_where_they_stopped() {
        let body: Vec<u8> = (0..1000).map(|i| b'a' + (i % 26) as u8).collect();
        for framing in [Framing::Line, Framing::Prefixed] {
            let mut writer = CountingWriter::new(7);
            write_frame(&mut writer, &body, framing).unwrap();
            let wire = expected_wire(&body, framing);
            assert_eq!(writer.bytes, wire);
            assert_eq!(writer.calls, wire.len().div_ceil(7));
        }
    }

    #[test]
    fn stop_flag_interrupts_a_timed_out_read() {
        // A reader that always times out: the stop flag must win.
        struct AlwaysTimeout;
        impl io::Read for AlwaysTimeout {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "poll"))
            }
        }
        let stop = AtomicBool::new(true);
        let mut reader = BufReader::new(AlwaysTimeout);
        let mut buf = Vec::new();
        let r = read_frame(&mut reader, &mut buf, &WireLimits::default(), &stop).unwrap();
        assert_eq!(r, FrameRead::Stopped);
    }

    #[test]
    fn idle_and_deadline_fire_on_timeouts() {
        struct AlwaysTimeout;
        impl io::Read for AlwaysTimeout {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                std::thread::sleep(Duration::from_millis(5));
                Err(io::Error::new(io::ErrorKind::WouldBlock, "poll"))
            }
        }
        let stop = AtomicBool::new(false);
        let limits = WireLimits {
            idle: Some(Duration::from_millis(20)),
            ..WireLimits::default()
        };
        let mut reader = BufReader::new(AlwaysTimeout);
        let mut buf = Vec::new();
        let r = read_frame(&mut reader, &mut buf, &limits, &stop).unwrap();
        assert_eq!(r, FrameRead::IdleTimeout);

        // Deadline: half a frame arrives, then the peer stalls forever.
        struct Dribble(bool);
        impl io::Read for Dribble {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.0 {
                    std::thread::sleep(Duration::from_millis(5));
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "poll"));
                }
                self.0 = true;
                out[0] = b'{';
                Ok(1)
            }
        }
        let limits = WireLimits {
            deadline: Some(Duration::from_millis(20)),
            ..WireLimits::default()
        };
        let mut reader = BufReader::new(Dribble(false));
        let r = read_frame(&mut reader, &mut buf, &limits, &stop).unwrap();
        assert_eq!(r, FrameRead::DeadlineExceeded);
    }
}
