//! End-to-end pipeline tests: workload generation → level-wise mining on every
//! backend (CPU serial, CPU active-set, CPU MapReduce, four simulated GPU
//! kernels) → identical results; plus the expiry extension on timestamped
//! data.

use temporal_mining::baselines::{MapReduceBackend, SerialScanBackend};
use temporal_mining::core::expiry::count_with_expiry;
use temporal_mining::prelude::*;
use temporal_mining::workloads::{
    market_basket, spike_trains, uniform_letters, BasketConfig, CausalChain, SpikeTrainConfig,
};

#[test]
fn all_backends_mine_identically() {
    let db = uniform_letters(15_000, 99);
    let miner = Miner::new(MinerConfig {
        alpha: 0.0008,
        max_level: Some(3),
        ..Default::default()
    });
    let reference = miner.mine(&db, &mut SerialScanBackend).unwrap();
    assert!(reference.total_frequent() > 0);

    let mut sequential = SequentialBackend::default();
    assert_eq!(miner.mine(&db, &mut sequential).unwrap(), reference);

    let mut mapreduce = MapReduceBackend::new(2);
    assert_eq!(miner.mine(&db, &mut mapreduce).unwrap(), reference);

    for algo in Algorithm::ALL {
        let mut gpu = GpuBackend::new(algo, 128, DeviceConfig::geforce_gtx_280());
        let result = miner.mine(&db, &mut gpu).unwrap();
        assert_eq!(result, reference, "{algo}");
        assert!(gpu.simulated_ms > 0.0, "{algo} reported no simulated time");
    }
}

#[test]
fn mining_respects_support_threshold() {
    let db = uniform_letters(50_000, 7);
    // Uniform text: level-1 supports are ~1/26 ≈ 0.038.
    let strict = Miner::new(MinerConfig {
        alpha: 0.05,
        ..Default::default()
    })
    .mine(&db, &mut SequentialBackend::default())
    .unwrap();
    assert_eq!(strict.total_frequent(), 0);

    let lax = Miner::new(MinerConfig {
        alpha: 0.03,
        max_level: Some(1),
        ..Default::default()
    })
    .mine(&db, &mut SequentialBackend::default())
    .unwrap();
    assert_eq!(lax.levels[0].len(), 26);
    for (_, count, support) in lax.iter() {
        assert!(support > 0.03);
        assert!(count > 1500);
    }
}

#[test]
fn spike_train_expiry_mining_recovers_circuit() {
    let chain = CausalChain {
        neurons: vec![3, 14, 8],
        delay_ms: 2.5,
        jitter_ms: 0.5,
        rate_hz: 5.0,
    };
    let db = spike_trains(&SpikeTrainConfig {
        neurons: 26,
        duration_ms: 30_000.0,
        base_rate_hz: 2.0,
        chains: vec![chain.clone()],
        seed: 11,
    });
    let episode = chain.episode();
    let tight = count_with_expiry(&db, &episode, 8_000).unwrap(); // 8 ms window
    let loose = count_with_expiry(&db, &episode, 10).unwrap(); // 10 us window
    assert!(
        tight > 30,
        "expected the circuit to fire often, got {tight}"
    );
    assert!(
        loose < tight / 5,
        "a 10us window should kill nearly all matches"
    );
}

#[test]
fn basket_mines_the_seeded_motif() {
    let db = market_basket(&BasketConfig::default());
    // Find the seeded motif at level 3.
    let miner = Miner::new(MinerConfig {
        alpha: 0.004,
        max_level: Some(3),
        ..Default::default()
    });
    let result = miner.mine(&db, &mut SequentialBackend::default()).unwrap();
    let motif = Episode::new(vec![0, 1, 2]).unwrap(); // peanut-butter, bread, jelly
    assert!(
        result.count_of(&motif).is_some(),
        "seeded motif should be frequent; got {} frequent episodes",
        result.total_frequent()
    );
}

#[test]
fn gpu_backend_accumulates_time_across_levels() {
    let db = uniform_letters(8_000, 5);
    let mut gpu = GpuBackend::new(
        Algorithm::BlockTexture,
        64,
        DeviceConfig::geforce_9800_gx2(),
    );
    let miner = Miner::new(MinerConfig {
        alpha: 0.0005,
        max_level: Some(2),
        ..Default::default()
    });
    let _ = miner.mine(&db, &mut gpu).unwrap();
    let after_first = gpu.simulated_ms;
    let _ = miner.mine(&db, &mut gpu).unwrap();
    assert!(
        gpu.simulated_ms > after_first * 1.5,
        "time should accumulate"
    );
}

#[test]
fn facade_prelude_covers_the_doctest_workflow() {
    // Mirrors the crate-level doctest at a different scale/threshold.
    let db = temporal_mining::workloads::paper_database_scaled(0.02);
    let miner = Miner::new(MinerConfig {
        alpha: 0.0004,
        max_level: Some(2),
        ..Default::default()
    });
    let cpu = miner.mine(&db, &mut SequentialBackend::default()).unwrap();
    let mut gpu = GpuBackend::new(
        Algorithm::ThreadBuffered,
        96,
        DeviceConfig::geforce_8800_gts_512(),
    );
    assert_eq!(miner.mine(&db, &mut gpu).unwrap(), cpu);
}
