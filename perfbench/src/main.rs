//! `perfbench`: one socket-level benchmark for the whole stack.
//!
//! ```text
//! perfbench --workload <paper-scan|small-requests|ingest-mix> --seed <n>
//!           --seconds <s> --trace <0|1> --server-bin <path>
//!           [--source-digest <hex>] [--git-commit <sha>]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of a socket run; with
//! `--trace 1`, the per-layer metrics of a socket run plus an in-process
//! traced replay. The last line of stdout is the result object; the line
//! before it is the run record. See `README.md` beside this crate.

mod replay;
mod socket;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tdm_server::json::Value;
use tdm_server::ServerConfig;

use socket::{Counters, Stand};
use workload::{Inputs, Kind, Shape};

/// How long `--trace 0` keeps setting up on each side of the measured run
/// (at least twice per side); `setup_s` is the median of every set-up.
/// Set-up time flips between the host's fast and slow states every few
/// seconds, so the set-ups span several of them.
const SETUP_SAMPLING: Duration = Duration::from_secs(2);

/// Samples a p90 needs before it is trusted (ten beyond it).
const P90_MIN_SAMPLES: usize = 100;

/// A run's parameters.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: Option<PathBuf>,
    source_digest: String,
    git_commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::PaperScan,
        seed: 2009,
        seconds: 30,
        trace: false,
        server_bin: None,
        source_digest: "unknown".into(),
        git_commit: "unknown".into(),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes an integer"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--server-bin" => args.server_bin = Some(PathBuf::from(value)),
            "--source-digest" => args.source_digest = value,
            "--git-commit" => args.git_commit = value,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.kind = workload.ok_or("--workload is required")?;
    if args.server_bin.is_none() {
        return Err("--server-bin is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let length = Duration::from_secs(args.seconds);
    let inputs = Inputs::build(args.kind, args.seed, Shape::FULL, length.as_secs_f64());
    let outcome = if args.trace {
        traced(args.server_bin.as_deref(), &inputs, length)
    } else {
        end_to_end(args.server_bin.as_deref(), &inputs, length, SETUP_SAMPLING)
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        if let Err(e) = stress_check(&inputs, &report) {
            eprintln!("perfbench: workload stress check failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", run_record(&args, &report).encode());
    println!("{}", report.result().encode());
    ExitCode::SUCCESS
}

/// What a result needs to be re-checked: machine, server sizing, inputs and
/// code.
fn run_record(args: &Args, report: &Report) -> Value {
    let server = ServerConfig::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_workers = match server.service.workers {
        0 => tdm_mapreduce::pool::default_workers(),
        n => n,
    };
    let record = vec![
        ("workload", Value::str(args.kind.name())),
        ("seed", Value::u64(args.seed)),
        ("seconds", Value::u64(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("available_parallelism", Value::u64(cores as u64)),
        ("connections", Value::u64(socket::CONNECTIONS as u64)),
        ("server_pool_workers", Value::u64(pool_workers as u64)),
        (
            "server_handler_threads",
            Value::u64(server.handler_threads as u64),
        ),
        (
            "service_config",
            Value::str(format!("{:?}", server.service)),
        ),
        ("git_commit", Value::str(&args.git_commit)),
        ("source_digest", Value::str(&args.source_digest)),
    ];
    let record = record
        .into_iter()
        .chain(report.record.iter().cloned())
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    Value::Object(vec![("run_record".into(), Value::Object(record))])
}

/// One run's outcome: the checked counts and the metrics, in print order.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Run-record entries particular to the mode.
    record: Vec<(&'static str, Value)>,
    /// Mean `mine` latency of the socket run, in microseconds.
    socket_mean_us: f64,
    /// Mean traced replay request time, in microseconds (traced runs).
    traced_mean_us: f64,
    /// Letters the ingest lane appended in the socket run.
    letters: u64,
}

impl Report {
    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }

    fn result(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = Value::Object(vec![
                    ("value".into(), Value::Number(value)),
                    ("unit".into(), Value::str(unit)),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::u64(self.attempted)),
            ("failed".into(), Value::u64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it (0 for no samples).
fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn mean_ns_as_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1e3
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Fewest slices a run is cut into; a run with too few replies for that many
/// stays whole, so that no workload switches between one and two slices
/// from run to run.
const MIN_SLICES: usize = 10;

/// The measured run cut into equal slices of at least a second, as many as
/// give each about [`P90_MIN_SAMPLES`] `mine` replies (one slice when that
/// is fewer than [`MIN_SLICES`]): the latencies of the replies read in each.
fn slices(run: &socket::Run) -> Vec<Vec<f64>> {
    let t = &run.tally;
    let most = run.elapsed.as_secs() as usize;
    let n = (t.mine_ms.len() / P90_MIN_SAMPLES).min(most);
    let n = if n < MIN_SLICES { 1 } else { n };
    let width = run.elapsed.as_secs_f64() / n as f64;
    let mut slices = vec![Vec::new(); n];
    for (done, &ms) in t.mine_done.iter().zip(&t.mine_ms) {
        let i = ((*done - run.start).as_secs_f64() / width) as usize;
        slices[i.min(n - 1)].push(ms);
    }
    slices
}

/// The median over the run's slices of each slice's p90 latency. A shared
/// host slows everything on it for seconds at a time as neighbours come and
/// go; a burst that covers less than half of the run leaves this figure
/// where it was, where the run's own p90 would follow it.
fn sliced_p90(slices: &[Vec<f64>]) -> f64 {
    let p90s: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| percentile(s, 90.0))
        .collect();
    percentile(&p90s, 50.0)
}

/// A checked socket run on a warmed server.
struct SocketRun {
    run: socket::Run,
    delta: Counters,
    problems: Vec<String>,
}

/// Sends `stats` before and after the measured run, checks every reply and
/// window, checks that the counters are conserved, then stops the server.
fn socket_run(mut stand: Stand, inputs: &Inputs, length: Duration) -> Result<SocketRun, String> {
    fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
        move |e| format!("{what}: {e}")
    }
    let before = stand.conns[0].stats().map_err(io("stats before the run"))?;
    let mut run =
        socket::run(&mut stand.conns, &stand.server, inputs, length).map_err(io("server usage"))?;
    let after = stand.conns[0].stats().map_err(io("stats after the run"))?;
    stand.server.stop();
    let tally = &mut run.tally;
    if !tally.windows.is_empty() {
        tally.check_windows(inputs, before.windows_sealed);
    }
    let delta = after.since(&before);

    let mut problems: Vec<String> = Vec::new();
    if stand.warm.failed > 0 {
        problems.push(format!("warm-up failures: {:?}", stand.warm.failures));
    }
    if tally.failed > 0 {
        problems.push(format!("failed operations: {:?}", tally.failures));
    }
    // The `stats` frame after the run counts itself.
    if delta.frames != tally.frames + 1 {
        problems.push(format!(
            "server.frames moved by {}, generator sent {} frames",
            delta.frames,
            tally.frames + 1
        ));
    }
    let served = tally.ok_mines + tally.fresh_ms.len() as u64;
    if delta.completed != served {
        problems.push(format!(
            "serve.completed moved by {}, generator saw {served} results",
            delta.completed
        ));
    }
    if delta.protocol_errors != 0 {
        problems.push(format!(
            "server.protocol_errors moved by {}",
            delta.protocol_errors
        ));
    }
    Ok(SocketRun {
        run,
        delta,
        problems,
    })
}

/// `--trace 0`: set-ups for `sampling`, the measured run on the server of
/// the last one, then set-ups for `sampling` again. Set-up time swings with
/// the machine's load, so it is sampled on both sides of the run.
fn end_to_end(
    bin: Option<&Path>,
    inputs: &Inputs,
    length: Duration,
    sampling: Duration,
) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut warm_failed = 0;
    let mut set_up = || -> Result<Stand, String> {
        let up = Stand::up(bin, inputs).map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(up.setup.as_secs_f64());
        Ok(up)
    };
    let began = Instant::now();
    let mut kept: Option<Stand> = None;
    for n in 0.. {
        if n >= 2 && began.elapsed() >= sampling {
            break;
        }
        // Dropping a stand stops its server before the next one starts.
        if let Some(old) = kept.take() {
            warm_failed += old.warm.failed;
        }
        kept = Some(set_up()?);
    }
    let mut socket = socket_run(kept.expect("set up at least twice"), inputs, length)?;
    let began = Instant::now();
    for n in 0.. {
        if n >= 2 && began.elapsed() >= sampling {
            break;
        }
        warm_failed += set_up()?.warm.failed;
    }
    if warm_failed > 0 {
        socket.problems.push(format!(
            "{warm_failed} warm-up requests failed in extra set-ups"
        ));
    }
    let run = &socket.run;
    let t = &run.tally;
    let slices = slices(run);
    if t.mine_ms.len() < P90_MIN_SAMPLES {
        eprintln!(
            "perfbench: warning: mine_p90_ms from {} samples (< {P90_MIN_SAMPLES})",
            t.mine_ms.len()
        );
    }
    Ok(Report {
        correct: socket.problems.is_empty(),
        attempted: t.attempted.max(1),
        failed: t.failed,
        metrics: vec![
            ("setup_s", percentile(&setup_s, 50.0), "s"),
            ("mine_p90_ms", sliced_p90(&slices), "ms"),
            (
                "server_peak_rss_mb",
                run.usage.peak_rss_kib as f64 / 1024.0,
                "MiB",
            ),
        ],
        record: vec![
            ("mine_samples", Value::u64(t.mine_ms.len() as u64)),
            (
                "p90_trusted",
                Value::Bool(t.mine_ms.len() >= P90_MIN_SAMPLES),
            ),
            ("latency_slices", Value::u64(slices.len() as u64)),
            (
                "setup_s_each",
                Value::Array(setup_s.iter().map(|&s| Value::Number(s)).collect()),
            ),
        ],
        socket_mean_us: mean(&t.mine_ms) * 1e3,
        traced_mean_us: 0.0,
        letters: t.letters,
        problems: socket.problems,
    })
}

/// `--trace 1`: a socket run for the serving-side counters, then the
/// in-process replay (half the run length) and the core pass (a quarter).
fn traced(bin: Option<&Path>, inputs: &Inputs, length: Duration) -> Result<Report, String> {
    let stand = Stand::up(bin, inputs).map_err(|e| format!("set-up: {e}"))?;
    let socket = socket_run(stand, inputs, length)?;
    let run = &socket.run;
    let spans = replay::replay(inputs, length / 2);
    let core = replay::core_pass(inputs, length / 4);

    let t = &run.tally;
    let d = &socket.delta;
    let traced_n = spans.traced.len().max(1) as f64;
    let per_traced = |ns: u64| ns as f64 / traced_n / 1e3;
    let socket_us = mean(&t.mine_ms) * 1e3;
    let untraced_us = mean_ns_as_us(&spans.untraced);
    let traced_us = mean_ns_as_us(&spans.traced);
    let core_mine_us = mean_ns_as_us(&core.mine);
    let served_us = mean(&t.mine_time_us);
    let mut problems = socket.problems;
    if spans.mismatches > 0 {
        problems.push(format!("{} replayed results differed", spans.mismatches));
    }
    if core.mismatches > 0 {
        problems.push(format!(
            "{} reference-engine results differed",
            core.mismatches
        ));
    }
    let count = |l: usize| mean_ns_as_us(&core.count[l]);
    let candidates = |l: usize| {
        let c = &core.candidates[l];
        if c.is_empty() {
            0.0
        } else {
            c.iter().sum::<u64>() as f64 / c.len() as f64
        }
    };
    Ok(Report {
        correct: problems.is_empty(),
        attempted: t.attempted.max(1),
        failed: t.failed,
        metrics: vec![
            (
                "mine_qps",
                t.ok_mines as f64 / run.elapsed.as_secs_f64(),
                "1/s",
            ),
            ("mine_p50_ms", percentile(&t.mine_ms, 50.0), "ms"),
            (
                "server_cpu_ms_per_op",
                run.usage.cpu_ms / t.ok_ops.max(1) as f64,
                "ms",
            ),
            ("server.json_parse_us", per_traced(spans.json_parse), "us"),
            ("server.db_decode_us", per_traced(spans.db_decode), "us"),
            (
                "server.reply_encode_us",
                per_traced(spans.reply_encode),
                "us",
            ),
            ("server.transport_us", socket_us - untraced_us, "us"),
            ("server.frames", d.frames as f64, "count"),
            ("server.protocol_errors", d.protocol_errors as f64, "count"),
            ("serve.session_key_us", per_traced(spans.session_key), "us"),
            ("serve.submit_us", per_traced(spans.submit), "us"),
            ("serve.queue_wait_us", mean(&t.queue_wait_us), "us"),
            (
                "serve.queue_wait_p90_us",
                percentile(&t.queue_wait_us, 90.0),
                "us",
            ),
            ("serve.mine_time_us", served_us, "us"),
            (
                "serve.cache_hit_ratio",
                ratio(d.cache_hits, d.cache_hits + d.cache_misses),
                "ratio",
            ),
            ("serve.completed", d.completed as f64, "count"),
            ("serve.failed", d.failed as f64, "count"),
            ("serve.rejected", d.rejected as f64, "count"),
            ("serve.cancelled", d.cancelled as f64, "count"),
            (
                "serve.fused_ratio",
                ratio(d.fused_requests, d.completed),
                "ratio",
            ),
            ("ingest.windows", d.windows_sealed as f64, "count"),
            ("ingest.seal_us", mean_ns_as_us(&spans.seal), "us"),
            ("ingest.remine_us", mean(&t.remine_us), "us"),
            ("ingest.append_p50_ms", percentile(&t.append_ms, 50.0), "ms"),
            ("ingest.fresh_p50_ms", percentile(&t.fresh_ms, 50.0), "ms"),
            ("ingest.fresh_p90_ms", percentile(&t.fresh_ms, 90.0), "ms"),
            ("core.mine_us", core_mine_us, "us"),
            ("core.level_loop_us", mean_ns_as_us(&core.level_loop), "us"),
            (
                "core.served_over_auto",
                if core_mine_us > 0.0 {
                    served_us / core_mine_us
                } else {
                    0.0
                },
                "ratio",
            ),
            (
                "engine.index_build_us",
                mean_ns_as_us(&core.index_build),
                "us",
            ),
            ("engine.count_l1_us", count(0), "us"),
            ("engine.count_l2_us", count(1), "us"),
            ("engine.count_l3_us", count(2), "us"),
            ("engine.candidates_l1", candidates(0), "count"),
            ("engine.candidates_l2", candidates(1), "count"),
            ("engine.candidates_l3", candidates(2), "count"),
            ("gen.late_p90_ms", percentile(&t.late_ms, 90.0), "ms"),
            (
                "trace.overhead_pct",
                if untraced_us > 0.0 {
                    (traced_us / untraced_us - 1.0) * 100.0
                } else {
                    0.0
                },
                "%",
            ),
            ("failed_ratio", ratio(t.failed, t.attempted), "ratio"),
        ],
        record: vec![("mine_samples", Value::u64(t.mine_ms.len() as u64))],
        socket_mean_us: socket_us,
        traced_mean_us: traced_us,
        letters: t.letters,
        problems,
    })
}

/// Fails when a workload no longer stresses the layer it was chosen for.
fn stress_check(inputs: &Inputs, report: &Report) -> Result<(), String> {
    let m = |name| report.metric(name);
    let latency = report.socket_mean_us;
    match inputs.kind {
        Kind::PaperScan => {
            let share = m("serve.mine_time_us") / latency;
            if share < 0.9 {
                return Err(format!(
                    "paper-scan: mining is {:.1}% of mean latency (< 90%)",
                    share * 100.0
                ));
            }
        }
        Kind::SmallRequests => {
            // Against the traced replay's own request time, so that both
            // sides of the share see the same machine load.
            let fixed = [
                "server.json_parse_us",
                "server.db_decode_us",
                "server.reply_encode_us",
                "serve.session_key_us",
            ]
            .iter()
            .map(|name| m(name))
            .sum::<f64>();
            let share = fixed / report.traced_mean_us;
            if share < 0.2 {
                return Err(format!(
                    "small-requests: wire, decode and hash stages are {:.1}% of a replayed request (< 20%)",
                    share * 100.0
                ));
            }
        }
        Kind::IngestMix => {
            let expected = report.letters / inputs.shape.flush_count as u64;
            if m("ingest.windows") as u64 != expected {
                return Err(format!(
                    "ingest-mix: {} windows sealed, letters appended / flush_count = {expected}",
                    m("ingest.windows")
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_server::json;

    /// Small enough for a debug build; every lane still sends many frames.
    const TINY: Shape = Shape {
        paper_len: 3_000,
        small_len: 400,
        small_streams: 8,
        ingest_seed_len: 2_000,
        ingest_chunk: 64,
        ingest_per_sec: 50,
        flush_count: 256,
    };
    const TINY_RUN: Duration = Duration::from_secs(1);

    /// The metric names and units `BENCHMARK.json` declares, per mode.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
        doc.get(section)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn assert_emits_declared(report: &Report, section: &str) {
        let result = json::parse(&report.result().encode()).expect("result is JSON");
        assert_eq!(
            result.get("correct").and_then(Value::as_bool),
            Some(true),
            "{:?}",
            report.problems
        );
        let metrics = result.get("metrics").expect("metrics");
        let declared = declared(section);
        let Value::Object(emitted) = metrics else {
            panic!("metrics is an object")
        };
        assert_eq!(
            emitted.len(),
            declared.len(),
            "exactly the declared metrics"
        );
        for (name, unit) in declared {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{name} missing"));
            let value = m.get("value").and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name} is not a finite number"
            );
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(unit.as_str()),
                "{name} unit"
            );
        }
    }

    #[test]
    fn tiny_runs_emit_every_declared_metric() {
        for kind in Kind::ALL {
            let inputs = Inputs::build(kind, 7, TINY, TINY_RUN.as_secs_f64());
            let report =
                end_to_end(None, &inputs, TINY_RUN, Duration::ZERO).expect("end-to-end run");
            assert_emits_declared(&report, "end_to_end");
            assert!(
                report.attempted > 0 && report.failed == 0,
                "{}",
                kind.name()
            );
            let report = traced(None, &inputs, TINY_RUN).expect("traced run");
            assert_emits_declared(&report, "per_layer");
        }
    }

    #[test]
    fn a_corrupted_expected_result_counts_as_failed() {
        let mut inputs = Inputs::build(Kind::SmallRequests, 7, TINY, TINY_RUN.as_secs_f64());
        let expected = &mut inputs.payloads[0].expected;
        let digit = expected
            .rfind(|c: char| c.is_ascii_digit())
            .expect("a count");
        let wrong = if &expected[digit..=digit] == "0" {
            "1"
        } else {
            "0"
        };
        expected.replace_range(digit..=digit, wrong);

        let report = end_to_end(None, &inputs, TINY_RUN, Duration::ZERO).expect("run completes");
        assert!(!report.correct);
        assert!(report.failed > 0, "mismatches must be counted");
        assert!(
            report.problems.iter().any(|p| p.contains("mismatch")),
            "{:?}",
            report.problems
        );
    }

    #[test]
    fn reply_checks_tell_results_errors_and_mismatches_apart() {
        let ok = br#"{"type":"mine_result","result":{"db_len":3},"cache":"hit","queue_wait_us":4,"mine_time_us":9}"#;
        assert_eq!(
            socket::check_mine_reply(ok, r#"{"db_len":3}"#),
            socket::MineReply::Ok {
                queue_wait_us: 4.0,
                mine_time_us: 9.0
            }
        );
        assert_eq!(
            socket::check_mine_reply(ok, r#"{"db_len":4}"#),
            socket::MineReply::Mismatch
        );
        assert_eq!(
            socket::check_mine_reply(ok, r#"{"db_len":"#),
            socket::MineReply::Mismatch
        );
        let refused = br#"{"type":"error","code":"overloaded","message":"busy"}"#;
        assert_eq!(
            socket::check_mine_reply(refused, r#"{"db_len":3}"#),
            socket::MineReply::Error("overloaded".into())
        );
        assert_eq!(
            socket::check_mine_reply(b"garbage", "{}"),
            socket::MineReply::Mismatch
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(percentile(&ten, 91.0), 10.0);
        assert_eq!(percentile(&ten, 100.0), 10.0);
        assert_eq!(percentile(&ten, 0.0), 1.0);
        let five = [50.0, 15.0, 40.0, 35.0, 20.0];
        assert_eq!(percentile(&five, 30.0), 20.0);
        assert_eq!(percentile(&five, 40.0), 20.0);
        assert_eq!(percentile(&five, 50.0), 35.0);
        assert_eq!(percentile(&[3.5], 90.0), 3.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
