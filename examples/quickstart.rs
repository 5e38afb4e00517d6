//! Quickstart: mine frequent episodes from an event stream, on the CPU and on
//! every simulated GPU kernel of the paper.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use temporal_mining::prelude::*;
use temporal_mining::workloads;

fn main() {
    // 1. A workload: the paper's uniform 26-letter stream, 10% scale, with a
    //    planted episode so there is something to find.
    let ab = Alphabet::latin26();
    let secret = Episode::from_str(&ab, "GPU").unwrap();
    let (db, planted_at) = workloads::planted(39_302, 7, &secret, 400);
    println!(
        "database: {} events over {} symbols; planted {} copies of {}",
        db.len(),
        db.alphabet().len(),
        planted_at.len(),
        secret.display(&ab)
    );

    // 2. Plan once: the session compiles each level's candidates exactly once
    //    and owns the worker pool; then mine on the CPU (paper Algorithm 1),
    //    streaming each level's result as soon as it is eliminated.
    let mut session = MiningSession::builder(&db)
        .config(MinerConfig {
            alpha: 0.002, // support threshold: count / n must exceed this
            max_level: Some(3),
            ..Default::default()
        })
        .build();
    let t0 = std::time::Instant::now();
    let result = session
        .mine_with(&mut SequentialBackend::default(), |level| {
            println!(
                "  level {}: {} candidates, {} frequent (streamed)",
                level.level,
                level.candidates,
                level.len()
            );
        })
        .expect("CPU mining failed");
    let cpu_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "\nCPU mining: {} candidates -> {} frequent episodes in {:.1} ms (wall), {} compiles",
        result.total_candidates(),
        result.total_frequent(),
        cpu_ms,
        session.compiles()
    );
    match result.count_of(&secret) {
        Some(c) => println!(
            "  planted episode {} found with count {c}",
            secret.display(&ab)
        ),
        None => println!("  planted episode NOT found — lower alpha?"),
    }

    // 3. The same session drives each simulated GPU kernel as the counting
    //    executor: identical results, plus the simulated kernel time on a
    //    GeForce GTX 280. Each run still compiles once per level, but into
    //    the session's buffers, reused in place across every run below.
    println!("\nsimulated GPU backends (GeForce GTX 280, 128 threads/block):");
    for algo in Algorithm::ALL {
        let mut backend = GpuBackend::new(algo, 128, DeviceConfig::geforce_gtx_280());
        let gpu_result = session.mine(&mut backend).expect("GPU mining failed");
        assert_eq!(gpu_result, result, "kernel and CPU results must agree");
        println!(
            "  {algo}: same {} frequent episodes, simulated kernel time {:.2} ms",
            gpu_result.total_frequent(),
            backend.simulated_ms
        );
    }
    println!("\n(simulated times are model outputs for the paper's cards, not this machine)");
}
