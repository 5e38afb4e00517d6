//! Temporal market-basket analysis — the paper's §3.1 example: "how often
//! {peanut butter, bread} → {jelly}", where *order matters*.
//!
//! ```sh
//! cargo run --release --example market_basket
//! ```

use temporal_mining::prelude::*;
use temporal_mining::workloads::{market_basket, BasketConfig};

fn main() {
    // A purchase stream with the peanut-butter -> bread -> jelly motif seeded.
    let config = BasketConfig::default();
    let db = market_basket(&config);
    println!(
        "purchase stream: {} events over {} products",
        db.len(),
        db.alphabet().len()
    );

    // Mine frequent episodes up to level 3.
    let miner = Miner::new(MinerConfig {
        alpha: 0.004,
        max_level: Some(3),
        ..Default::default()
    });
    let result = miner
        .mine(&db, &mut SequentialBackend::default())
        .expect("mining failed");
    println!(
        "mined {} candidates -> {} frequent episodes",
        result.total_candidates(),
        result.total_frequent()
    );

    // Show the strongest level-3 rules in ordered form.
    let ab = db.alphabet();
    if let Some(l3) = result.levels.iter().find(|l| l.level == 3) {
        let mut rules: Vec<_> = l3.frequent.clone();
        rules.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        println!("\ntop level-3 temporal rules:");
        for (ep, count) in rules.iter().take(5) {
            let items = ep.items();
            let lhs: Vec<&str> = items[..2].iter().map(|&i| ab.name(Symbol(i))).collect();
            let rhs = ab.name(Symbol(items[2]));
            println!(
                "  {{{}}} -> {{{}}}   count {count} (support {:.4})",
                lhs.join(", "),
                rhs,
                *count as f64 / db.len() as f64
            );
        }
    }

    // The temporal point of §3.1: <peanut-butter, bread> -> jelly is NOT the
    // same rule as <bread, peanut-butter> -> jelly.
    let pb_bread_jelly = Episode::new(vec![0, 1, 2]).unwrap();
    let bread_pb_jelly = Episode::new(vec![1, 0, 2]).unwrap();
    let a = temporal_mining::core::count::count_episode(&db, &pb_bread_jelly);
    let b = temporal_mining::core::count::count_episode(&db, &bread_pb_jelly);
    println!(
        "\norder sensitivity: {} = {a}, {} = {b}",
        pb_bread_jelly.display(ab),
        bread_pb_jelly.display(ab)
    );
    assert!(
        a > 3 * (b + 1),
        "seeded ordering should dominate its reversal"
    );

    // And the same mining on a simulated GPU, validating the counts agree.
    let mut gpu = GpuBackend::new(Algorithm::BlockTexture, 64, DeviceConfig::geforce_gtx_280());
    let gpu_result = miner.mine(&db, &mut gpu).expect("GPU mining failed");
    assert_eq!(gpu_result, result);
    println!(
        "\nGPU-simulated mining agrees; total simulated kernel time {:.2} ms on GeForce GTX 280",
        gpu.simulated_ms
    );
}
