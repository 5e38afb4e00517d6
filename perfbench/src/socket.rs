//! The end-to-end side: the server process, its loopback connections, the
//! warm-up, and the measured run with every reply checked.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use tdm_server::json::{self, Value};
use tdm_server::wire::{self, FrameError};
use tdm_server::{Server, ServerConfig, TenantConfig};

use crate::workload::{Inputs, Lane, API_KEY, TENANT};

/// Connections (and generator threads) the benchmark opens: at most the
/// machine's core count, and at most two.
pub const CONNECTIONS: usize = 2;

/// Cap on a reply frame (a paper-scan reply is about 250 KB).
const MAX_REPLY: usize = 64 << 20;

/// How long a connection waits for one reply before the run counts it as a
/// connection failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The server under test: the `tdm-server` binary in its own process, or,
/// for the benchmark's own tests, the same configuration in this process.
pub struct ServerProc {
    addr: SocketAddr,
    proc: Proc,
}

enum Proc {
    /// The stdout pipe stays open for the child's lifetime: the binary
    /// prints a stats line every minute and would die on a closed pipe.
    Child {
        child: Child,
        _stdout: BufReader<ChildStdout>,
    },
    InProcess(Option<Server>),
}

impl ServerProc {
    /// Starts `bin` with no arguments, which is how the binary configures
    /// itself by default (`ServerConfig::default()` plus one `demo` tenant
    /// with no limits), and waits until it listens. Without `bin`, binds the
    /// same configuration in this process.
    pub fn spawn(bin: Option<&Path>) -> io::Result<ServerProc> {
        let Some(bin) = bin else {
            let server = Server::bind(ServerConfig {
                tenants: vec![TenantConfig::new(TENANT, API_KEY)],
                ..ServerConfig::default()
            })?;
            return Ok(ServerProc {
                addr: server.addr(),
                proc: Proc::InProcess(Some(server)),
            });
        };
        let mut child = Command::new(bin)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("tdm-server listening on "))
            .and_then(|addr| addr.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "tdm-server did not report its address: {line:?}"
            )));
        };
        Ok(ServerProc {
            addr,
            proc: Proc::Child {
                child,
                _stdout: stdout,
            },
        })
    }

    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's CPU time and peak resident set so far.
    pub fn usage(&self) -> io::Result<Usage> {
        let pid = match &self.proc {
            Proc::Child { child, .. } => child.id(),
            Proc::InProcess(_) => std::process::id(),
        };
        Usage::of(pid)
    }

    /// Stops the server and waits until it has ended.
    pub fn stop(&mut self) {
        match &mut self.proc {
            Proc::Child { child, .. } => {
                let _ = child.kill();
                let _ = child.wait();
            }
            Proc::InProcess(server) => {
                if let Some(server) = server.take() {
                    server.shutdown();
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Kernel-reported resource use of one process.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// `utime + stime` in milliseconds.
    pub cpu_ms: f64,
    /// `VmHWM`: peak resident set, in KiB.
    pub peak_rss_kib: u64,
}

impl Usage {
    fn of(pid: u32) -> io::Result<Usage> {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line, in USER_HZ (100 per second on
        // Linux).
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        let (Some(utime), Some(stime)) = (ticks(11), ticks(12)) else {
            return Err(io::Error::other("unreadable /proc stat line"));
        };
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        let peak_rss_kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(Usage {
            cpu_ms: (utime + stime) as f64 * 10.0,
            peak_rss_kib,
        })
    }
}

/// One blocking loopback connection.
pub struct Conn(TcpStream);

impl Conn {
    /// Connects to the server.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn(stream))
    }

    /// Sends one frame and reads its reply in full.
    pub fn call(&mut self, frame: &[u8]) -> io::Result<Vec<u8>> {
        wire::write_frame(&mut self.0, frame)?;
        wire::read_frame(&mut self.0, MAX_REPLY).map_err(|e| match e {
            FrameError::Io(e) => e,
            other => io::Error::other(other.to_string()),
        })
    }

    /// Sends a `stats` frame and returns its counters.
    pub fn stats(&mut self) -> io::Result<Counters> {
        let frame = tdm_server::client::stats_request(TENANT, API_KEY).encode();
        let reply = self.call(frame.as_bytes())?;
        let value = parse(&reply).ok_or_else(|| io::Error::other("stats reply is not JSON"))?;
        Counters::from_stats(&value).ok_or_else(|| io::Error::other("stats reply lacks counters"))
    }
}

fn parse(bytes: &[u8]) -> Option<Value> {
    json::parse(std::str::from_utf8(bytes).ok()?).ok()
}

/// The `/stats` counters the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub frames: u64,
    pub protocol_errors: u64,
    pub completed: u64,
    pub failed: u64,
    pub rejected: u64,
    pub cancelled: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub fused_requests: u64,
    pub windows_sealed: u64,
}

impl Counters {
    fn from_stats(v: &Value) -> Option<Counters> {
        let get = |path: &[&str]| -> Option<u64> {
            path.iter().try_fold(v, |v, key| v.get(key))?.as_u64()
        };
        Some(Counters {
            frames: get(&["server", "frames"])?,
            protocol_errors: get(&["server", "protocol_errors"])?,
            completed: get(&["service", "completed"])?,
            failed: get(&["service", "failed"])?,
            rejected: get(&["service", "rejected"])?,
            cancelled: get(&["service", "cancelled"])?,
            cache_hits: get(&["service", "cache", "hits"])?,
            cache_misses: get(&["service", "cache", "misses"])?,
            fused_requests: get(&["service", "comining", "fused_requests"])?,
            windows_sealed: get(&["ingest", "windows_sealed"])?,
        })
    }

    /// The change from `before` to `self`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            frames: self.frames - before.frames,
            protocol_errors: self.protocol_errors - before.protocol_errors,
            completed: self.completed - before.completed,
            failed: self.failed - before.failed,
            rejected: self.rejected - before.rejected,
            cancelled: self.cancelled - before.cancelled,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            fused_requests: self.fused_requests - before.fused_requests,
            windows_sealed: self.windows_sealed - before.windows_sealed,
        }
    }
}

/// How a `mine` reply compared with its expected result.
#[derive(Debug, Clone, PartialEq)]
pub enum MineReply {
    /// The result matched byte for byte.
    Ok {
        /// The reply's `queue_wait_us`.
        queue_wait_us: f64,
        /// The reply's `mine_time_us`.
        mine_time_us: f64,
    },
    /// A typed `error` reply, by code.
    Error(String),
    /// Anything else: a result that differs, or a malformed reply.
    Mismatch,
}

/// Every `mine_result` reply starts with these bytes, then the result.
pub const MINE_HEAD: &[u8] = b"{\"type\":\"mine_result\",\"result\":";

/// Checks a `mine` (or flushed window's) reply against the expected result
/// encoding: the result's bytes are compared as sent, and only the short
/// tail after them is parsed.
pub fn check_mine_reply(reply: &[u8], expected: &str) -> MineReply {
    if let Some(rest) = reply.strip_prefix(MINE_HEAD) {
        let tail = rest
            .strip_prefix(expected.as_bytes())
            .and_then(|tail| tail.strip_prefix(b","));
        let Some(tail) = tail else {
            return MineReply::Mismatch;
        };
        let mut object = b"{".to_vec();
        object.extend_from_slice(tail);
        let field = |v: &Value, key| v.get(key).and_then(Value::as_f64);
        return match parse(&object) {
            Some(v) => match (field(&v, "queue_wait_us"), field(&v, "mine_time_us")) {
                (Some(queue_wait_us), Some(mine_time_us)) => MineReply::Ok {
                    queue_wait_us,
                    mine_time_us,
                },
                _ => MineReply::Mismatch,
            },
            None => MineReply::Mismatch,
        };
    }
    error_code(reply).map_or(MineReply::Mismatch, MineReply::Error)
}

fn error_code(reply: &[u8]) -> Option<String> {
    let v = parse(reply)?;
    (v.get("type")?.as_str()? == "error").then(|| {
        v.get("code")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string()
    })
}

/// What the lanes of one run saw. Latencies are in milliseconds, serving
/// fields as the replies state them (microseconds).
#[derive(Debug, Default)]
pub struct Tally {
    /// Latency of every checked `mine` reply.
    pub mine_ms: Vec<f64>,
    /// When each checked `mine` reply was read, in the order of `mine_ms`.
    pub mine_done: Vec<Instant>,
    /// `queue_wait_us` of every checked `mine` reply.
    pub queue_wait_us: Vec<f64>,
    /// `mine_time_us` of every checked `mine` reply.
    pub mine_time_us: Vec<f64>,
    /// Latency of every `ingest` reply, from its due time.
    pub append_ms: Vec<f64>,
    /// Latency of every `flushed` `ingest` reply, from its due time.
    pub fresh_ms: Vec<f64>,
    /// `mine_time_us` of every flushed window's re-mine.
    pub remine_us: Vec<f64>,
    /// How late the generator sent each open-loop frame.
    pub late_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Error replies, connection failures and mismatches.
    pub failed: u64,
    /// Failures by cause: the error code, `connection` or `mismatch`.
    pub failures: BTreeMap<String, u64>,
    /// Frames sent.
    pub frames: u64,
    /// Successful operations of any kind.
    pub ok_ops: u64,
    /// Checked `mine` replies.
    pub ok_mines: u64,
    /// Letters sent in `ingest` frames.
    pub letters: u64,
    /// Flushed windows awaiting their check: (window, the re-mine's reply).
    pub windows: Vec<(u64, Vec<u8>)>,
}

impl Tally {
    fn fail(&mut self, cause: &str) {
        self.failed += 1;
        *self.failures.entry(cause.to_string()).or_default() += 1;
    }

    /// Folds another lane's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.mine_ms.extend(other.mine_ms);
        self.mine_done.extend(other.mine_done);
        self.queue_wait_us.extend(other.queue_wait_us);
        self.mine_time_us.extend(other.mine_time_us);
        self.append_ms.extend(other.append_ms);
        self.fresh_ms.extend(other.fresh_ms);
        self.remine_us.extend(other.remine_us);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (cause, n) in other.failures {
            *self.failures.entry(cause).or_default() += n;
        }
        self.frames += other.frames;
        self.ok_ops += other.ok_ops;
        self.ok_mines += other.ok_mines;
        self.letters += other.letters;
        self.windows.extend(other.windows);
    }

    fn mine(&mut self, conn: &mut Conn, frame: &[u8], expected: &str) -> Option<f64> {
        self.attempted += 1;
        self.frames += 1;
        let sent = Instant::now();
        let reply = match conn.call(frame) {
            Ok(reply) => reply,
            Err(_) => {
                self.fail("connection");
                return None;
            }
        };
        let done = Instant::now();
        let ms = (done - sent).as_secs_f64() * 1e3;
        match check_mine_reply(&reply, expected) {
            MineReply::Ok {
                queue_wait_us,
                mine_time_us,
            } => {
                self.ok_ops += 1;
                self.ok_mines += 1;
                self.mine_ms.push(ms);
                self.mine_done.push(done);
                self.queue_wait_us.push(queue_wait_us);
                self.mine_time_us.push(mine_time_us);
            }
            MineReply::Error(code) => self.fail(&code),
            MineReply::Mismatch => self.fail("mismatch"),
        }
        Some(ms)
    }

    /// Checks every flushed window against a serial mine of its prefix and
    /// that the windows are consecutive from `first`.
    pub fn check_windows(&mut self, inputs: &Inputs, first: u64) {
        let plan = inputs
            .ingest
            .as_ref()
            .expect("windows come from the ingest lane");
        let windows = std::mem::take(&mut self.windows);
        for (i, (window, reply)) in windows.iter().enumerate() {
            let ok = *window == first + i as u64
                && plan.expected_window(*window).is_some_and(|expected| {
                    matches!(check_mine_reply(reply, &expected), MineReply::Ok { .. })
                });
            if !ok {
                self.fail("mismatch");
                self.ok_ops -= 1;
            }
        }
    }
}

/// A server with its connections, set up and warmed.
pub struct Stand {
    pub server: ServerProc,
    pub conns: Vec<Conn>,
    /// Spawn to end of warm-up.
    pub setup: Duration,
    /// Warm-up failures (any makes the run incorrect).
    pub warm: Tally,
}

impl Stand {
    /// Spawns the server, opens the connections, registers the ingest
    /// stream, and sends every lane's warm-up requests.
    pub fn up(bin: Option<&Path>, inputs: &Inputs) -> io::Result<Stand> {
        let began = Instant::now();
        let server = ServerProc::spawn(bin)?;
        let mut conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(server.addr()))
            .collect::<io::Result<Vec<_>>>()?;
        let lanes = inputs.lanes();
        let mut warm = Tally::default();
        if let Some(plan) = &inputs.ingest {
            let reply = conns[0].call(&plan.register_frame)?;
            let registered = parse(&reply)
                .and_then(|v| Some(v.get("type")?.as_str()? == "registered"))
                .unwrap_or(false);
            if !registered {
                warm.fail("register");
            }
        }
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(lane, conn)| {
                    let list = inputs.warmup(&lanes, lane);
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        for i in list {
                            let p = &inputs.payloads[i];
                            tally.mine(conn, &p.frame, &p.expected);
                        }
                        tally
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("warm-up lane"))
                .collect()
        });
        for tally in tallies {
            warm.merge(tally);
        }
        Ok(Stand {
            server,
            conns,
            setup: began.elapsed(),
            warm,
        })
    }
}

/// One measured run's raw record.
pub struct Run {
    /// Every lane's tally, merged.
    pub tally: Tally,
    /// When the lanes started.
    pub start: Instant,
    /// Start until the last lane finished.
    pub elapsed: Duration,
    /// The server's CPU time over the run, and its peak resident set at the
    /// end.
    pub usage: Usage,
}

/// The measured run: every lane on its own connection and thread, for
/// `length`.
pub fn run(
    conns: &mut [Conn],
    server: &ServerProc,
    inputs: &Inputs,
    length: Duration,
) -> io::Result<Run> {
    let lanes = inputs.lanes();
    let before = server.usage()?;
    let start = Instant::now();
    let end = start + length;
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(lanes)
            .map(|(conn, lane)| {
                s.spawn(move || match lane {
                    Lane::Mine(schedule) => mine_lane(conn, inputs, schedule, end),
                    Lane::Ingest => ingest_lane(conn, inputs, start),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("run lane"))
            .collect()
    });
    let elapsed = start.elapsed();
    let after = server.usage()?;
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t);
    }
    Ok(Run {
        tally,
        start,
        elapsed,
        usage: Usage {
            cpu_ms: after.cpu_ms - before.cpu_ms,
            peak_rss_kib: after.peak_rss_kib,
        },
    })
}

/// Closed loop: the next frame goes out when the previous reply is in.
fn mine_lane(
    conn: &mut Conn,
    inputs: &Inputs,
    schedule: impl Iterator<Item = usize>,
    end: Instant,
) -> Tally {
    let mut tally = Tally::default();
    for i in schedule {
        if Instant::now() >= end {
            break;
        }
        let p = &inputs.payloads[i];
        if tally.mine(conn, &p.frame, &p.expected).is_none() {
            break;
        }
    }
    tally
}

/// Open loop: frame `i` is due at `start + i × period`; its latency runs
/// from that due time, so a stall also charges the frames queued behind it.
fn ingest_lane(conn: &mut Conn, inputs: &Inputs, start: Instant) -> Tally {
    let plan = inputs
        .ingest
        .as_ref()
        .expect("ingest lane needs an ingest plan");
    let mut tally = Tally::default();
    for (i, frame) in plan.frames.iter().enumerate() {
        let due = start + plan.period * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        tally.late_ms.push((sent - due).as_secs_f64() * 1e3);
        tally.attempted += 1;
        tally.frames += 1;
        tally.letters += plan.chunk as u64;
        let Ok(reply) = conn.call(frame) else {
            tally.fail("connection");
            break;
        };
        let ms = due.elapsed().as_secs_f64() * 1e3;
        let Some(v) = parse(&reply) else {
            tally.fail("mismatch");
            continue;
        };
        match (
            v.get("type").and_then(Value::as_str),
            v.get("outcome").and_then(Value::as_str),
        ) {
            (Some("ingest"), Some("buffered")) => {}
            (Some("ingest"), Some("flushed")) => {
                let (Some(window), Some(result)) =
                    (v.get("window").and_then(Value::as_u64), v.get("result"))
                else {
                    tally.fail("mismatch");
                    continue;
                };
                tally.fresh_ms.push(ms);
                tally.remine_us.push(
                    result
                        .get("mine_time_us")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0),
                );
                tally.windows.push((window, result.encode().into_bytes()));
            }
            (Some("error"), _) => {
                let code = v.get("code").and_then(Value::as_str).unwrap_or("unknown");
                tally.fail(code);
                continue;
            }
            _ => {
                tally.fail("mismatch");
                continue;
            }
        }
        tally.ok_ops += 1;
        tally.append_ms.push(ms);
    }
    tally
}
