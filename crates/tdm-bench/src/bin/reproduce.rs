//! `reproduce` — regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce [TARGETS..] [--out DIR] [--scale S] [--exact] [--quiet]
//!           [--bench-json PATH] [--serve-bench-json PATH] [--gpu-bench-json PATH]
//!           [--serve-open-loop]
//!
//! TARGETS: table1 table2 fig6 fig7 fig8 fig9 best characterizations grid ext
//!          all (default: all; `ext` also runs the paper's future-work
//!          extensions: level-4 sweep, phase pipelining, hardware discovery)
//! --out DIR          output directory for CSV/markdown files (default: results)
//! --scale S          database scale in (0,1], 1.0 = the paper's 393,019 letters
//! --exact            execute every warp exactly instead of sampling (slow; small S)
//! --quiet            suppress ASCII previews
//! --bench-json PATH  run the real-CPU counting-backend benchmark at --scale and
//!                    write the JSON report (e.g. BENCH_counting.json) to PATH;
//!                    with no TARGETS, only the benchmark runs
//! --serve-bench-json PATH  run the multi-tenant serving benchmark (QPS +
//!                    latency at 1/4/16 concurrent clients, the streaming
//!                    scenario, and the tdm-server socket
//!                    rungs over loopback TCP) at --scale and write the
//!                    JSON report (e.g. BENCH_serve.json) to PATH; with no
//!                    TARGETS, only the benchmark(s) run
//! --gpu-bench-json PATH  run the simulated GPU serving-pipeline benchmark
//!                    (persistent fused pipeline vs per-level launches and
//!                    the cost model's routed run; fully deterministic)
//!                    and write the JSON report (e.g.
//!                    BENCH_gpu.json) to PATH; with no TARGETS, only the
//!                    benchmark(s) run
//! --serve-open-loop  also run the open-loop serving benchmark (deterministic
//!                    Poisson-ish arrivals at a target rate; reports queueing
//!                    delay separately from service time). Folded into the
//!                    --serve-bench-json report when given, printed otherwise
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use tdm_bench::figures::{best_config, fig6, fig7, fig8, fig9, grid_csv, Figure};
use tdm_bench::{characterize, tables, Grid, GridConfig};

fn save(fig: &Figure, out_dir: &Path, quiet: bool, written: &mut Vec<String>) {
    let path = out_dir.join(format!("{}.csv", fig.name));
    std::fs::write(&path, &fig.csv).expect("write failed");
    written.push(path.display().to_string());
    if !quiet {
        println!("\n{}", fig.preview);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut targets: BTreeSet<String> = BTreeSet::new();
    let mut out_dir = PathBuf::from("results");
    let mut scale = 1.0f64;
    let mut exact = false;
    let mut quiet = false;
    let mut bench_json: Option<PathBuf> = None;
    let mut serve_bench_json: Option<PathBuf> = None;
    let mut gpu_bench_json: Option<PathBuf> = None;
    let mut serve_open_loop = false;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out_dir = PathBuf::from(it.next().expect("--out needs a directory"));
            }
            "--scale" => {
                scale = it
                    .next()
                    .expect("--scale needs a value")
                    .parse()
                    .expect("--scale must be a number in (0,1]");
            }
            "--exact" => exact = true,
            "--quiet" => quiet = true,
            "--bench-json" => {
                bench_json = Some(PathBuf::from(it.next().expect("--bench-json needs a path")));
            }
            "--serve-bench-json" => {
                serve_bench_json = Some(PathBuf::from(
                    it.next().expect("--serve-bench-json needs a path"),
                ));
            }
            "--gpu-bench-json" => {
                gpu_bench_json = Some(PathBuf::from(
                    it.next().expect("--gpu-bench-json needs a path"),
                ));
            }
            "--serve-open-loop" => serve_open_loop = true,
            t => {
                targets.insert(t.to_string());
            }
        }
    }
    if (targets.is_empty()
        && bench_json.is_none()
        && serve_bench_json.is_none()
        && gpu_bench_json.is_none()
        && !serve_open_loop)
        || targets.contains("all")
    {
        targets = [
            "table1",
            "table2",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "best",
            "characterizations",
            "grid",
            "ext",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");
    let mut written: Vec<String> = Vec::new();

    // Tables need no simulation.
    if targets.contains("table1") {
        let path = out_dir.join("table1.csv");
        std::fs::write(&path, tables::table1_csv(6)).expect("write failed");
        written.push(path.display().to_string());
        if !quiet {
            println!("Table 1 (episodes per level, N=26):");
            for (l, n) in tables::table1(6) {
                println!("  L={l}: {n}");
            }
        }
    }
    if targets.contains("table2") {
        let path = out_dir.join("table2.csv");
        std::fs::write(&path, tables::table2()).expect("write failed");
        written.push(path.display().to_string());
    }

    let need_grid = [
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "best",
        "characterizations",
        "grid",
    ]
    .iter()
    .any(|t| targets.contains(*t));
    if need_grid {
        eprintln!(
            "computing measurement grid (scale {scale}, {} mode)...",
            if exact { "exact" } else { "sampled" }
        );
        let mut cfg = GridConfig {
            scale,
            progress: true,
            ..Default::default()
        };
        cfg.opts.exact = exact;
        let started = std::time::Instant::now();
        let grid = Grid::compute(&cfg);
        eprintln!(
            "grid: {} cells in {:.1}s (db = {} letters)",
            grid.cells.len(),
            started.elapsed().as_secs_f64(),
            grid.db_len
        );

        if targets.contains("fig6") {
            for f in fig6(&grid) {
                save(&f, &out_dir, quiet, &mut written);
            }
        }
        if targets.contains("fig7") {
            for f in fig7(&grid) {
                save(&f, &out_dir, quiet, &mut written);
            }
        }
        if targets.contains("fig8") {
            for f in fig8(&grid) {
                save(&f, &out_dir, quiet, &mut written);
            }
        }
        if targets.contains("fig9") {
            for f in fig9(&grid) {
                save(&f, &out_dir, quiet, &mut written);
            }
        }
        if targets.contains("best") {
            let f = best_config(&grid);
            save(&f, &out_dir, false, &mut written);
        }
        if targets.contains("grid") {
            let f = grid_csv(&grid);
            save(&f, &out_dir, true, &mut written);
        }
        if targets.contains("characterizations") {
            let results = characterize::all(&grid);
            let md = characterize::markdown(&results, &grid);
            let path = out_dir.join("characterizations.md");
            std::fs::write(&path, &md).expect("write failed");
            written.push(path.display().to_string());
            println!("\n{md}");
            let passed = results.iter().filter(|r| r.passed).count();
            eprintln!("characterizations: {passed}/8 reproduced");
        }
    }

    if targets.contains("ext") {
        eprintln!("running extension experiments (level-4 sweep, pipelining, discovery)...");
        let ext_scale = scale.min(0.25); // level-4 ground truth is CPU-heavy
        let fig = tdm_bench::extensions::level4_extension(ext_scale);
        save(&fig, &out_dir, quiet, &mut written);
        let pipeline = tdm_bench::extensions::pipeline_report(scale.min(0.5));
        let discovery = tdm_bench::extensions::discovery_report();
        let path = out_dir.join("extensions.md");
        std::fs::write(&path, format!("{pipeline}\n{discovery}")).expect("write failed");
        written.push(path.display().to_string());
        if !quiet {
            println!("\n{pipeline}\n{discovery}");
        }
    }

    if let Some(path) = bench_json {
        eprintln!("benchmarking counting backends (scale {scale})...");
        let bench = tdm_bench::counting_bench::run(&tdm_bench::counting_bench::BenchConfig {
            scale,
            ..Default::default()
        });
        std::fs::write(&path, bench.to_json()).expect("write failed");
        written.push(path.display().to_string());
        if !quiet {
            println!("\n{}", bench.summary());
        }
    }

    if let Some(path) = gpu_bench_json {
        eprintln!("benchmarking the GPU serving pipeline (simulated, deterministic)...");
        let bench = tdm_bench::gpu_bench::run(&tdm_bench::gpu_bench::GpuBenchConfig::default());
        std::fs::write(&path, bench.to_json()).expect("write failed");
        written.push(path.display().to_string());
        if !quiet {
            println!("\n{}", bench.summary());
        }
    }

    if let Some(path) = serve_bench_json {
        eprintln!(
            "benchmarking the serving layer (scale {scale}, 1/4/16 clients + streaming + socket)..."
        );
        let mut bench = tdm_bench::serve_bench::run(&tdm_bench::serve_bench::ServeBenchConfig {
            scale,
            ..Default::default()
        });
        if serve_open_loop {
            eprintln!("open-loop serving benchmark (deterministic arrival schedule)...");
            bench.open_loop = Some(tdm_bench::serve_bench::run_open_loop(
                &tdm_bench::serve_bench::OpenLoopConfig {
                    scale,
                    ..Default::default()
                },
            ));
        }
        std::fs::write(&path, bench.to_json()).expect("write failed");
        written.push(path.display().to_string());
        if !quiet {
            println!("\n{}", bench.summary());
        }
    } else if serve_open_loop {
        eprintln!("open-loop serving benchmark (scale {scale}, deterministic arrival schedule)...");
        let report =
            tdm_bench::serve_bench::run_open_loop(&tdm_bench::serve_bench::OpenLoopConfig {
                scale,
                ..Default::default()
            });
        println!(
            "open loop @ {:.1} req/s: {} requests in {:.2}s ({:.1} req/s achieved)\n  \
             queueing delay: mean {:.2} ms, p95 {:.2} ms\n  \
             service time:   mean {:.2} ms, p95 {:.2} ms",
            report.rate_hz,
            report.requests,
            report.wall_s,
            report.achieved_rate_hz,
            report.mean_queue_ms,
            report.p95_queue_ms,
            report.mean_service_ms,
            report.p95_service_ms
        );
    }

    eprintln!("\nwrote {} files:", written.len());
    for w in &written {
        eprintln!("  {w}");
    }
}
