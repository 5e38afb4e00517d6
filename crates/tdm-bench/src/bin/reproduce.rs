//! `reproduce` — regenerates every table and figure of the paper, and the
//! real-CPU and simulated-GPU benchmark reports. Its targets and options are
//! the usage block at the top of `main`. Any other argument, or a `--scale`
//! outside (0, 1], prints that block and exits 2 before anything runs or is
//! written. An output it cannot write exits 2 too, naming it: the `--out`
//! directory (when a target writes there) is created, and every report file
//! opened, before anything runs.

use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::Write;
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
    const USAGE: &str = "\
usage: reproduce [TARGETS..] [--out DIR] [--scale S] [--exact] [--quiet]
                 [--bench-json PATH] [--serve-bench-json PATH] [--gpu-bench-json PATH]

TARGETS: table1 table2 fig6 fig7 fig8 fig9 best characterizations grid ext
         all (default: all; `ext` also runs the paper's future-work
         extensions: level-4 sweep, phase pipelining, hardware discovery)
--out DIR          output directory for CSV/markdown files (default: results)
--scale S          database scale in (0,1], 1.0 = the paper's 393,019 letters
--exact            execute every warp exactly instead of sampling (slow; small S)
--quiet            suppress ASCII previews
--bench-json PATH  run the real-CPU counting benchmark (the level-2 rows and
                   the small served mine behind tools/bench_guard.sh's three
                   ratios against the seed counter) at --scale and write the
                   JSON report (e.g. BENCH_counting.json) to PATH; with no
                   TARGETS, only the benchmark runs
--serve-bench-json PATH  run the serving benchmark (the streaming scenario,
                   and the tdm-server socket rungs at 1/4/16 clients over
                   loopback TCP beside an in-process 1-client baseline) at
                   --scale and write the JSON report (e.g. BENCH_serve.json)
                   to PATH; with no TARGETS, only the benchmark(s) run
--gpu-bench-json PATH  run the simulated GPU serving-pipeline benchmark
                   (persistent fused pipeline vs per-level launches and
                   the cost model's routed run; fully deterministic)
                   and write the JSON report (e.g.
                   BENCH_gpu.json) to PATH; with no TARGETS, only the
                   benchmark(s) run
";

    /// Every target `all` (and an empty target list) stands for.
    const ALL_TARGETS: [&str; 10] = [
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
    ];

    /// Refuses the command line: says why, prints the usage block and exits 2.
    fn refuse(why: &str) -> ! {
        eprintln!("reproduce: {why}\n\n{USAGE}");
        std::process::exit(2)
    }

    /// The value after `flag`, or a refusal when the command line ends first.
    fn value_of(flag: &str, args: &mut impl Iterator<Item = String>) -> String {
        args.next()
            .unwrap_or_else(|| refuse(&format!("{flag} needs a value")))
    }

    /// A benchmark report's path and its file, opened before the benchmark
    /// runs. The file keeps its old content until `write_report` replaces it.
    fn open_report(flag: &str, path: Option<PathBuf>) -> Option<(PathBuf, File)> {
        let path = path?;
        let opened = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path);
        let file = opened.unwrap_or_else(|e| unwritable(flag, &path, &e));
        Some((path, file))
    }

    /// Replaces the opened report's content with `json`.
    fn write_report(report: (PathBuf, File), json: &str, written: &mut Vec<String>) {
        let (path, mut file) = report;
        file.set_len(0)
            .and_then(|()| file.write_all(json.as_bytes()))
            .expect("write failed");
        written.push(path.display().to_string());
    }

    /// Exits 2 naming the output `path` given to `flag` that cannot be written.
    fn unwritable(flag: &str, path: &Path, e: &std::io::Error) -> ! {
        eprintln!("reproduce: cannot write {flag} {}: {e}", path.display());
        std::process::exit(2)
    }

    let mut targets: BTreeSet<String> = BTreeSet::new();
    let mut out_dir = PathBuf::from("results");
    let mut scale = 1.0f64;
    let mut exact = false;
    let mut quiet = false;
    let mut bench_json: Option<PathBuf> = None;
    let mut serve_bench_json: Option<PathBuf> = None;
    let mut gpu_bench_json: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_dir = PathBuf::from(value_of("--out", &mut args)),
            "--scale" => {
                let raw = value_of("--scale", &mut args);
                scale = match raw.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 1.0 => s,
                    _ => refuse(&format!("--scale must be a number in (0, 1], got {raw:?}")),
                };
            }
            "--exact" => exact = true,
            "--quiet" => quiet = true,
            "--bench-json" => bench_json = Some(value_of("--bench-json", &mut args).into()),
            "--serve-bench-json" => {
                serve_bench_json = Some(value_of("--serve-bench-json", &mut args).into());
            }
            "--gpu-bench-json" => {
                gpu_bench_json = Some(value_of("--gpu-bench-json", &mut args).into());
            }
            t if t == "all" || ALL_TARGETS.contains(&t) => {
                targets.insert(arg);
            }
            other => refuse(&format!("unknown argument {other:?}")),
        }
    }
    if (targets.is_empty()
        && bench_json.is_none()
        && serve_bench_json.is_none()
        && gpu_bench_json.is_none())
        || targets.contains("all")
    {
        targets = ALL_TARGETS.iter().map(|s| s.to_string()).collect();
    }

    // Every output is checked before anything runs, so a long run never ends
    // in a write that fails.
    if !targets.is_empty() {
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            unwritable("--out", &out_dir, &e);
        }
    }
    let bench_json = open_report("--bench-json", bench_json);
    let gpu_bench_json = open_report("--gpu-bench-json", gpu_bench_json);
    let serve_bench_json = open_report("--serve-bench-json", serve_bench_json);
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

    if let Some(report) = bench_json {
        eprintln!("benchmarking the counting engine against the seed counter (scale {scale})...");
        let bench = tdm_bench::counting_bench::run(scale);
        write_report(report, &bench.to_json(), &mut written);
        if !quiet {
            println!("\n{}", bench.summary());
        }
    }

    if let Some(report) = gpu_bench_json {
        eprintln!("benchmarking the GPU serving pipeline (simulated, deterministic)...");
        let bench = tdm_bench::gpu_bench::run(&tdm_bench::gpu_bench::GpuBenchConfig::default());
        write_report(report, &bench.to_json(), &mut written);
        if !quiet {
            println!("\n{}", bench.summary());
        }
    }

    if let Some(report) = serve_bench_json {
        eprintln!("benchmarking the serving layer (scale {scale}, streaming + socket)...");
        let bench = tdm_bench::serve_bench::run(&tdm_bench::serve_bench::ServeBenchConfig {
            scale,
            ..Default::default()
        });
        write_report(report, &bench.to_json(), &mut written);
        if !quiet {
            println!("\n{}", bench.summary());
        }
    }

    eprintln!("\nwrote {} files:", written.len());
    for w in &written {
        eprintln!("  {w}");
    }
}
