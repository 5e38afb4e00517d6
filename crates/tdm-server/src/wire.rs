//! The wire protocol: length-prefixed JSON frames and the request/response
//! vocabulary.
//!
//! A frame is a 4-byte big-endian length prefix followed by that many bytes
//! of UTF-8 JSON. Both directions use the same framing; one request frame
//! yields exactly one response frame, and requests on one connection are
//! served in order. The length prefix is attacker-controlled input: frames
//! longer than the server's cap are refused with a typed error before any
//! payload is allocated.
//!
//! Requests are JSON objects dispatched on `"type"`:
//!
//! * `"mine"` — mine a database (inline `"events"` letters or a named
//!   `"workload"`) under a [`MinerConfig`]; responds
//!   with `"mine_result"`.
//! * `"stats"` — a point-in-time metrics snapshot; responds with `"stats"`.
//! * `"register"` — register a named stream (seed events + config +
//!   triggers: `"flush_count"`, 256 when absent, and `"flush_age_ms"`, of
//!   which at least one must be above 0); responds with `"registered"`.
//! * `"ingest"` — append symbols to a registered stream; responds with
//!   `"ingest"` (`"buffered"` or `"flushed"` + the re-mine result).
//!
//! A stream belongs to the tenant that registered it: `"stream"` names are
//! per tenant, so two tenants may register the same name, and an `"ingest"`
//! naming a stream the requesting tenant did not register is
//! `unknown_stream`, whoever else holds that name.
//!
//! Every request carries `"tenant"` and `"api_key"`. Failures of any kind
//! are `"error"` responses with a machine-readable `"code"` (see
//! [`codes`]); an overloaded rejection carries the queue depth it observed
//! and a [`retry_after_hint`] so closed-loop clients back off proportionally
//! to the congestion they caused.

use std::io::{self, IoSlice, Read, Write};
use std::time::Duration;

use tdm_core::session::MAX_EPISODE_LEVEL;
use tdm_core::{Alphabet, MinerConfig, MiningResult};
use tdm_serve::{CacheOutcome, CacheStats, IngestStats, MiningResponse, ServeError, ServiceStats};

use crate::json::{self, Value};

/// Default cap on a frame's payload length (1 MiB). Covers ~1M inline event
/// letters; anything larger is a protocol error, not a buffer to allocate.
pub const MAX_FRAME: usize = 1 << 20;

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// No bytes arrived within the socket's read timeout while waiting for
    /// the *start* of a frame — the connection is idle, not broken. Servers
    /// use this to poll their shutdown flag between requests.
    Idle,
    /// The connection died mid-frame (EOF or timeout inside the prefix or
    /// payload).
    Truncated,
    /// The length prefix exceeded the negotiated cap. The frame reader read
    /// nothing past the prefix and allocated no payload; a buffered reader
    /// underneath may hold bytes past it, which are not a frame any more.
    Oversized {
        /// The length the prefix declared.
        declared: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// Any other socket error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "peer closed the connection"),
            FrameError::Idle => write!(f, "no frame within the read timeout"),
            FrameError::Truncated => write!(f, "connection ended mid-frame"),
            FrameError::Oversized { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte cap")
            }
            FrameError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one frame, distinguishing a clean close and an idle timeout (both
/// only *before* the frame's first byte) from a mid-frame truncation.
///
/// The prefix is asked for in one `read`, so over a buffered reader a frame
/// that fits the buffer costs one read of the socket; the payload is
/// allocated only once the prefix is within `max`.
pub fn read_frame(stream: &mut impl Read, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    // Whether the first read got any byte separates Closed/Idle from
    // Truncated.
    let got = loop {
        match stream.read(&mut prefix) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(n) => break n,
            Err(e) if is_timeout(&e) => return Err(FrameError::Idle),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    };
    read_exactly(stream, &mut prefix[got..])?;
    let declared = u32::from_be_bytes(prefix) as usize;
    if declared > max {
        return Err(FrameError::Oversized { declared, max });
    }
    let mut payload = vec![0u8; declared];
    read_exactly(stream, &mut payload)?;
    Ok(payload)
}

/// `read_exact`, but timeouts and EOF mid-frame both map to `Truncated`.
fn read_exactly(stream: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    stream.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => FrameError::Truncated,
        _ if is_timeout(&e) => FrameError::Truncated,
        _ => FrameError::Io(e),
    })
}

/// Writes one frame (prefix + payload) and flushes. Prefix and payload go
/// out in one vectored write, so on a `TCP_NODELAY` socket a frame leaves as
/// one segment rather than two; partial writes are resumed, and the payload
/// is never copied.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large for u32"))?;
    let prefix = len.to_be_bytes();
    let mut bufs = [IoSlice::new(&prefix), IoSlice::new(payload)];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// The machine-readable `"code"` values an `"error"` response may carry.
pub mod codes {
    /// The frame was not a well-formed request (bad JSON, missing fields,
    /// unknown `"type"`, events outside the alphabet, …).
    pub const BAD_REQUEST: &str = "bad_request";
    /// Unknown tenant or wrong API key.
    pub const UNAUTHORIZED: &str = "unauthorized";
    /// The tenant's token bucket is empty; retry after `retry_after_ms`.
    pub const RATE_LIMITED: &str = "rate_limited";
    /// The tenant's in-flight quota is exhausted; retry after
    /// `retry_after_ms`. Other tenants are unaffected.
    pub const QUOTA: &str = "quota";
    /// The service's waiting room is full; carries `pending`, `limit`, and
    /// `retry_after_ms`.
    pub const OVERLOADED: &str = "overloaded";
    /// The request's deadline passed; the level loop was cancelled at
    /// `level` and the in-flight slot released.
    pub const DEADLINE: &str = "deadline";
    /// The mining backend failed.
    pub const MINE_FAILED: &str = "mine_failed";
    /// An ingest call named an unregistered stream.
    pub const UNKNOWN_STREAM: &str = "unknown_stream";
    /// The declared frame length exceeded the server's cap (sent just
    /// before the server closes the connection).
    pub const OVERSIZED_FRAME: &str = "oversized_frame";
}

/// How long an overloaded/throttled client should wait before retrying.
///
/// The hint scales linearly with the queue depth the rejection observed —
/// the deeper the waiting room, the longer the drain, and under aging
/// admission the queue drains in near-arrival order, so depth is an honest
/// proxy for position. Clamped to [[`RETRY_FLOOR_MS`], [`RETRY_CAP_MS`]]:
/// never zero (a tight retry loop re-rejects instantly) and never so long
/// that a recovered server sits idle.
pub fn retry_after_hint(pending: usize) -> u64 {
    // ~25ms of drain per queued request ahead of this one.
    let per_slot: u64 = 25;
    (per_slot * (pending as u64 + 1)).clamp(RETRY_FLOOR_MS, RETRY_CAP_MS)
}

/// Minimum retry hint ([`retry_after_hint`]).
pub const RETRY_FLOOR_MS: u64 = 25;
/// Maximum retry hint ([`retry_after_hint`]).
pub const RETRY_CAP_MS: u64 = 5_000;

/// Builds an `"error"` response value.
pub fn error_value(code: &str, message: impl Into<String>) -> Value {
    Value::Object(vec![
        ("type".into(), Value::str("error")),
        ("code".into(), Value::str(code)),
        ("message".into(), Value::String(message.into())),
    ])
}

/// Maps a serving-layer failure to its wire error, attaching the retry-after
/// hint to overload rejections and the cancellation level to deadline
/// errors.
pub fn serve_error_value(e: &ServeError) -> Value {
    match e {
        ServeError::Overloaded { pending, limit } => {
            let mut v = error_value(codes::OVERLOADED, e.to_string());
            push(&mut v, "pending", Value::u64(*pending as u64));
            push(&mut v, "limit", Value::u64(*limit as u64));
            push(
                &mut v,
                "retry_after_ms",
                Value::u64(retry_after_hint(*pending)),
            );
            v
        }
        ServeError::Cancelled { level } => {
            let mut v = error_value(codes::DEADLINE, e.to_string());
            push(&mut v, "level", Value::u64(*level as u64));
            v
        }
        ServeError::Mine(_) => error_value(codes::MINE_FAILED, e.to_string()),
    }
}

fn push(v: &mut Value, key: &str, item: Value) {
    if let Value::Object(pairs) = v {
        pairs.push((key.into(), item));
    }
}

/// Renders a [`MiningResult`] as wire JSON. Episode items are spelled with
/// the alphabet's symbol names, so the document is bit-reproducible from
/// the result alone — the e2e suite compares serial mining to socket
/// responses *through this same encoding*.
///
/// The document is written in one pass into one string and returned as
/// [`Value::Raw`]: `{"db_len":n,"levels":[{"level":k,"candidates":c,
/// "frequent":[["NAMES",count],…]},…]}`, each row's name the concatenation
/// of its items' names, escaped as [`Value::String`] escapes them.
pub fn mining_result_value(result: &MiningResult, alphabet: &Alphabet) -> Value {
    let rows: usize = result.levels.iter().map(|level| level.frequent.len()).sum();
    // 16 bytes covers a row of the paper's letters at levels 2 and 3.
    let mut out = String::with_capacity(64 + 16 * rows);
    out.push_str("{\"db_len\":");
    json::write_number(result.db_len as f64, &mut out);
    out.push_str(",\"levels\":[");
    for (i, level) in result.levels.iter().enumerate() {
        out.push_str(if i > 0 { ",{\"level\":" } else { "{\"level\":" });
        json::write_number(level.level as f64, &mut out);
        out.push_str(",\"candidates\":");
        json::write_number(level.candidates as f64, &mut out);
        out.push_str(",\"frequent\":[");
        for (j, (episode, count)) in level.frequent.iter().enumerate() {
            out.push_str(if j > 0 { ",[\"" } else { "[\"" });
            for &id in episode.items() {
                json::write_escaped(alphabet.name(tdm_core::Symbol(id)), &mut out);
            }
            out.push_str("\",");
            json::write_number(*count as f64, &mut out);
            out.push(']');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    Value::Raw(out)
}

/// Renders a full `"mine_result"` response (result + serving measurements).
pub fn mine_response_value(response: &MiningResponse, alphabet: &Alphabet) -> Value {
    let cache = match response.stats.cache {
        CacheOutcome::Hit => "hit",
        CacheOutcome::Miss => "miss",
    };
    Value::Object(vec![
        ("type".into(), Value::str("mine_result")),
        (
            "result".into(),
            mining_result_value(&response.result, alphabet),
        ),
        ("cache".into(), Value::str(cache)),
        (
            "queue_wait_us".into(),
            Value::u64(duration_us(response.stats.queue_wait)),
        ),
        (
            "mine_time_us".into(),
            Value::u64(duration_us(response.stats.mine_time)),
        ),
    ])
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn cache_stats_value(stats: &CacheStats) -> Value {
    Value::Object(vec![
        ("hits".into(), Value::u64(stats.hits)),
        ("misses".into(), Value::u64(stats.misses)),
        ("evictions".into(), Value::u64(stats.evictions)),
        ("collisions".into(), Value::u64(stats.collisions)),
    ])
}

/// Renders [`ServiceStats`] + [`IngestStats`] as the `"stats"` response
/// body (the server adds its own connection counters alongside).
pub fn stats_value(service: &ServiceStats, ingest: &IngestStats) -> Value {
    Value::Object(vec![
        (
            "service".into(),
            Value::Object(vec![
                ("completed".into(), Value::u64(service.completed)),
                ("failed".into(), Value::u64(service.failed)),
                ("rejected".into(), Value::u64(service.rejected)),
                ("cancelled".into(), Value::u64(service.cancelled)),
                ("cache".into(), cache_stats_value(&service.cache)),
                // The service fuses no requests. The key stays, always 0,
                // because the end-to-end benchmark's stats reader requires
                // it; it goes when the benchmark stops reading it.
                (
                    "comining".into(),
                    Value::Object(vec![("fused_requests".into(), Value::u64(0))]),
                ),
            ]),
        ),
        (
            "ingest".into(),
            Value::Object(vec![
                ("appends".into(), Value::u64(ingest.appends)),
                (
                    "appended_symbols".into(),
                    Value::u64(ingest.appended_symbols),
                ),
                (
                    "deferred_appends".into(),
                    Value::u64(ingest.deferred_appends),
                ),
                ("windows_sealed".into(), Value::u64(ingest.windows_sealed)),
                ("remines".into(), Value::u64(ingest.remines)),
            ]),
        ),
    ])
}

/// Reads the `MinerConfig` fields off a request object (`"alpha"`,
/// `"max_level"`, `"distinct_items_only"`), with the core defaults for
/// absent fields. A `"max_level"` past [`MAX_EPISODE_LEVEL`] is refused: no
/// level past that cap can be counted.
pub fn config_from(v: &Value) -> Result<MinerConfig, &'static str> {
    let mut config = MinerConfig::default();
    if let Some(alpha) = v.get("alpha") {
        config.alpha = alpha.as_f64().ok_or("\"alpha\" must be a number")?;
        if !(0.0..=1.0).contains(&config.alpha) {
            return Err("\"alpha\" must be within [0, 1]");
        }
    }
    if let Some(level) = v.get("max_level") {
        let level = level.as_u64().ok_or("\"max_level\" must be an integer")?;
        match usize::try_from(level) {
            Ok(level) if level <= MAX_EPISODE_LEVEL => config.max_level = Some(level),
            _ => return Err("\"max_level\" must be at most 256"),
        }
    }
    if let Some(flag) = v.get("distinct_items_only") {
        config.distinct_items_only = flag
            .as_bool()
            .ok_or("\"distinct_items_only\" must be a boolean")?;
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::BufReader;

    use proptest::prelude::*;
    use tdm_core::{Episode, LevelResult};
    use tdm_serve::ResponseStats;

    /// A reader that hands out at most one byte per call.
    struct Trickle<R>(R);

    impl<R: Read> Read for Trickle<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let end = buf.len().min(1);
            self.0.read(&mut buf[..end])
        }
    }

    /// A reader that plays a script: each call returns as much of the next
    /// chunk as fits (the rest stays next), or that step's error; an empty
    /// script is EOF. Counts the calls that returned bytes.
    struct Script {
        steps: VecDeque<io::Result<Vec<u8>>>,
        reads: usize,
    }

    impl Script {
        fn new(steps: impl IntoIterator<Item = io::Result<Vec<u8>>>) -> Script {
            Script {
                steps: steps.into_iter().collect(),
                reads: 0,
            }
        }
    }

    fn timeout() -> io::Result<Vec<u8>> {
        Err(io::ErrorKind::WouldBlock.into())
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.steps.pop_front() {
                None => Ok(0),
                Some(Err(e)) => Err(e),
                Some(Ok(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.steps.push_front(Ok(chunk.split_off(n)));
                    }
                    self.reads += 1;
                    Ok(n)
                }
            }
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        wire
    }

    fn read_all(mut reader: impl Read) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut reader, MAX_FRAME) {
                Ok(frame) => frames.push(frame),
                Err(FrameError::Closed) => return frames,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let payloads: [&[u8]; 4] = [b"{\"type\":\"stats\"}", b"", &[7u8; 20_000], b"x"];
        let wire: Vec<u8> = payloads.iter().flat_map(|p| framed(p)).collect();
        assert_eq!(&wire[..4], &16u32.to_be_bytes());
        // Exact reads, one byte per call, and several frames per call
        // through a buffer all return the same frames.
        assert_eq!(read_all(io::Cursor::new(wire.clone())), payloads);
        assert_eq!(read_all(Trickle(io::Cursor::new(wire.clone()))), payloads);
        assert_eq!(
            read_all(BufReader::with_capacity(64 << 10, io::Cursor::new(wire))),
            payloads
        );
        // Through a buffer, a frame that fits it costs one read.
        let frames: Vec<Vec<u8>> = (0..5)
            .map(|i| framed(&vec![b'a' + i; 100 * i as usize]))
            .collect();
        let mut reader = BufReader::new(Script::new(frames.iter().cloned().map(Ok)));
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(read_frame(&mut reader, MAX_FRAME).unwrap(), frame[4..]);
            assert_eq!(reader.get_ref().reads, i + 1);
        }
    }

    /// A sink that takes every byte of each call, as a socket with room in
    /// its send buffer does, and counts the calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            for buf in bufs {
                self.bytes.extend_from_slice(buf);
            }
            Ok(bufs.iter().map(|buf| buf.len()).sum())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A sink that takes at most 3 bytes per call and is interrupted on
    /// every other call.
    #[derive(Default)]
    struct Choppy {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for Choppy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(3);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write_per_frame_and_resumes_partial_writes() {
        for payload in [&b""[..], b"{\"type\":\"stats\"}", &[9u8; 100_000]] {
            let mut want = (payload.len() as u32).to_be_bytes().to_vec();
            want.extend_from_slice(payload);
            let mut sink = CountingWriter::default();
            write_frame(&mut sink, payload).unwrap();
            assert_eq!(sink.writes, 1, "{} payload bytes", payload.len());
            assert_eq!(sink.bytes, want);
            let mut choppy = Choppy::default();
            write_frame(&mut choppy, payload).unwrap();
            assert_eq!(choppy.bytes, want);
        }
    }

    #[test]
    fn oversized_prefix_is_refused_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(b"whatever");
        match read_frame(&mut io::Cursor::new(wire), 1024) {
            Err(FrameError::Oversized { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("wrong outcome: {other:?}"),
        }
    }

    #[test]
    fn truncation_is_distinguished_from_clean_close() {
        // A prefix that promises more payload than follows.
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_be_bytes());
        wire.extend_from_slice(b"hi");
        assert!(matches!(
            read_frame(&mut io::Cursor::new(wire), 1024),
            Err(FrameError::Truncated)
        ));
        // A prefix cut mid-way.
        assert!(matches!(
            read_frame(&mut io::Cursor::new(vec![0u8, 0]), 1024),
            Err(FrameError::Truncated)
        ));
        // Nothing at all: clean close.
        assert!(matches!(
            read_frame(&mut io::Cursor::new(Vec::new()), 1024),
            Err(FrameError::Closed)
        ));

        // Through a buffer, a timeout is idle only at a frame boundary, also
        // when the buffer holds nothing more, and the connection goes on.
        let a = framed(b"first");
        let b = framed(b"second");
        let mut reader = BufReader::new(Script::new([Ok(a.clone()), timeout(), Ok(b.clone())]));
        assert_eq!(read_frame(&mut reader, MAX_FRAME).unwrap(), b"first");
        assert!(matches!(
            read_frame(&mut reader, MAX_FRAME),
            Err(FrameError::Idle)
        ));
        assert_eq!(read_frame(&mut reader, MAX_FRAME).unwrap(), b"second");
        // Mid-prefix: two prefix bytes arrived with the previous frame.
        let head: Vec<u8> = a.iter().chain(&b[..2]).copied().collect();
        let mut reader = BufReader::new(Script::new([Ok(head), timeout()]));
        assert_eq!(read_frame(&mut reader, MAX_FRAME).unwrap(), b"first");
        assert!(matches!(
            read_frame(&mut reader, MAX_FRAME),
            Err(FrameError::Truncated)
        ));
        // Mid-payload.
        let mut reader = BufReader::new(Script::new([Ok(b[..7].to_vec()), timeout()]));
        assert!(matches!(
            read_frame(&mut reader, MAX_FRAME),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn retry_hint_grows_with_depth_and_stays_clamped() {
        // An empty queue still backs off a little.
        assert_eq!(retry_after_hint(0), RETRY_FLOOR_MS);
        // Monotone in observed depth.
        let mut last = 0;
        for pending in 0..64 {
            let hint = retry_after_hint(pending);
            assert!(hint >= last, "hint regressed at depth {pending}");
            last = hint;
        }
        // Deep queues saturate at the cap instead of stranding the client.
        assert_eq!(retry_after_hint(10_000), RETRY_CAP_MS);
        // Linear in between: 25 ms per request ahead, plus this one.
        assert_eq!(retry_after_hint(3), 100);
    }

    #[test]
    fn overloaded_wire_error_carries_depth_and_retry_hint() {
        let v = serve_error_value(&ServeError::Overloaded {
            pending: 7,
            limit: 8,
        });
        assert_eq!(v.get("type").unwrap().as_str(), Some("error"));
        assert_eq!(v.get("code").unwrap().as_str(), Some(codes::OVERLOADED));
        assert_eq!(v.get("pending").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("limit").unwrap().as_u64(), Some(8));
        assert_eq!(
            v.get("retry_after_ms").unwrap().as_u64(),
            Some(retry_after_hint(7))
        );
        // The document survives an encode/parse cycle intact.
        let reparsed = json::parse(&v.encode()).unwrap();
        assert_eq!(reparsed.get("retry_after_ms").unwrap().as_u64(), Some(200));
    }

    #[test]
    fn deadline_wire_error_carries_the_cancellation_level() {
        let v = serve_error_value(&ServeError::Cancelled { level: 3 });
        assert_eq!(v.get("code").unwrap().as_str(), Some(codes::DEADLINE));
        assert_eq!(v.get("level").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn config_parsing_validates_fields() {
        let v = json::parse(r#"{"alpha":0.05,"max_level":3,"distinct_items_only":false}"#).unwrap();
        let config = config_from(&v).unwrap();
        assert_eq!(config.alpha, 0.05);
        assert_eq!(config.max_level, Some(3));
        assert!(!config.distinct_items_only);
        // Defaults apply when absent.
        let defaults = config_from(&json::parse("{}").unwrap()).unwrap();
        assert_eq!(defaults.max_level, None);
        // Out-of-range and mistyped fields are refused.
        assert!(config_from(&json::parse(r#"{"alpha":1.5}"#).unwrap()).is_err());
        assert!(config_from(&json::parse(r#"{"max_level":-1}"#).unwrap()).is_err());
        assert!(config_from(&json::parse(r#"{"distinct_items_only":1}"#).unwrap()).is_err());
    }

    /// The tree-building encoding `mining_result_value` wrote before it
    /// rendered the document directly: the reference its bytes must equal.
    fn reference_result_value(result: &MiningResult, alphabet: &Alphabet) -> Value {
        let levels = result
            .levels
            .iter()
            .map(|level| {
                let frequent = level
                    .frequent
                    .iter()
                    .map(|(episode, count)| {
                        let name: String = episode
                            .items()
                            .iter()
                            .map(|&id| alphabet.name(tdm_core::Symbol(id)))
                            .collect();
                        Value::Array(vec![Value::String(name), Value::u64(*count)])
                    })
                    .collect();
                Value::Object(vec![
                    ("level".into(), Value::u64(level.level as u64)),
                    ("candidates".into(), Value::u64(level.candidates as u64)),
                    ("frequent".into(), Value::Array(frequent)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("db_len".into(), Value::u64(result.db_len as u64)),
            ("levels".into(), Value::Array(levels)),
        ])
    }

    /// Names that need every kind of escape, and some that need none.
    fn hostile_alphabet() -> Alphabet {
        Alphabet::new([
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{1}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "→",
            "\u{1F600}",
            "a\"b\\c",
            "",
            "plain",
            "x\u{0}y",
        ])
        .unwrap()
    }

    fn level(level: usize, candidates: usize, rows: &[(&[u8], u64)]) -> LevelResult {
        LevelResult {
            level,
            candidates,
            frequent: rows
                .iter()
                .map(|&(items, count)| (Episode::new(items.to_vec()).unwrap(), count))
                .collect(),
        }
    }

    #[test]
    fn reply_bytes_are_pinned() {
        let result = MiningResult {
            levels: vec![
                level(1, 26, &[(&[0], 3), (&[1], 2)]),
                level(2, 650, &[(&[0, 1], 2)]),
                level(3, 0, &[]),
            ],
            db_len: 7,
        };
        let response = MiningResponse {
            result,
            stats: ResponseStats {
                cache: CacheOutcome::Hit,
                queue_wait: Duration::from_micros(12),
                mine_time: Duration::from_micros(345),
                key: 0,
            },
        };
        assert_eq!(
            mine_response_value(&response, &Alphabet::latin26()).encode(),
            concat!(
                r#"{"type":"mine_result","result":{"db_len":7,"levels":["#,
                r#"{"level":1,"candidates":26,"frequent":[["A",3],["B",2]]},"#,
                r#"{"level":2,"candidates":650,"frequent":[["AB",2]]},"#,
                r#"{"level":3,"candidates":0,"frequent":[]}]},"#,
                r#""cache":"hit","queue_wait_us":12,"mine_time_us":345}"#
            )
        );
        let escaped = MiningResult {
            levels: vec![level(2, 4, &[(&[0, 1], 1), (&[2, 6], 9)])],
            db_len: 0,
        };
        assert_eq!(
            mining_result_value(&escaped, &hostile_alphabet()).encode(),
            "{\"db_len\":0,\"levels\":[{\"level\":2,\"candidates\":4,\"frequent\":[[\"\\\"\\\\\",1],[\"\\n\\u001f\",9]]}]}"
        );
        assert_eq!(
            mining_result_value(&MiningResult::default(), &Alphabet::latin26()).encode(),
            r#"{"db_len":0,"levels":[]}"#
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The direct encoder writes exactly the reference's bytes: random
        /// results (counts past 2^53 included) over the paper's letters,
        /// numbered names and names that need escapes.
        #[test]
        fn result_encoding_matches_the_tree_reference(
            rows in proptest::collection::vec(0u64..u64::MAX, 0..48),
            depth in 1usize..5,
            candidates in 0usize..1_000_000,
            db_len in 0usize..5_000_000,
        ) {
            let alphabets = [
                Alphabet::latin26(),
                Alphabet::numbered(100).unwrap(),
                hostile_alphabet(),
            ];
            for alphabet in &alphabets {
                let sigma = alphabet.len() as u64;
                let levels = (1..=depth)
                    .map(|k| LevelResult {
                        level: k,
                        candidates: candidates / k,
                        frequent: rows
                            .iter()
                            .filter(|&&r| r as usize % depth == k - 1)
                            .map(|&r| {
                                let items = (0..k as u32)
                                    .map(|i| (r.rotate_left(7 * i) % sigma) as u8)
                                    .collect();
                                let count = if r % 3 == 0 { r } else { r >> 40 };
                                (Episode::new(items).unwrap(), count)
                            })
                            .collect(),
                    })
                    .collect();
                let result = MiningResult { levels, db_len };
                prop_assert_eq!(
                    mining_result_value(&result, alphabet).encode(),
                    reference_result_value(&result, alphabet).encode()
                );
            }
        }
    }

    #[test]
    fn max_level_is_capped_at_the_longest_countable_episode() {
        let at_cap = config_from(&json::parse(r#"{"max_level":256}"#).unwrap()).unwrap();
        assert_eq!(at_cap.max_level, Some(MAX_EPISODE_LEVEL));
        let err = config_from(&json::parse(r#"{"max_level":257}"#).unwrap()).unwrap_err();
        assert!(err.contains("256"), "{err}");
        let huge = json::parse(r#"{"max_level":18446744073709551615}"#).unwrap();
        assert!(config_from(&huge).is_err());
    }
}
