//! The GPU serving pipeline's differential suite: the persistent
//! [`GpuPipelineBackend`] drives the *same* plan/execute surfaces as every
//! CPU backend — `MiningSession`s of any worker count and `Miner::mine` —
//! and must stay bit-identical to serial mining everywhere, while its
//! serve-time dispatch table sends small levels to the CPU and wide ones to
//! the device.

use std::sync::Arc;
use temporal_mining::core::miner::SequentialBackend;
use temporal_mining::prelude::*;
use temporal_mining::workloads::markov_letters;

fn serial(db: &EventDb, config: MinerConfig) -> MiningResult {
    Miner::new(config)
        .mine(db, &mut SequentialBackend::default())
        .expect("serial mining failed")
}

fn pipeline() -> GpuPipelineBackend {
    GpuPipelineBackend::with_defaults(DeviceConfig::geforce_gtx_280())
}

/// Mines `config` through a fresh pipeline on a session planned for
/// `workers`.
fn piped(db: &Arc<EventDb>, config: MinerConfig, workers: usize) -> MiningResult {
    MiningSession::builder_shared(Arc::clone(db))
        .config(config)
        .workers(workers)
        .build()
        .mine(&mut pipeline())
        .expect("pipeline mining failed")
}

#[test]
fn stepped_configs_ride_the_pipeline_bit_identically() {
    // Stepped thresholds and level bounds, so runs stop at different levels.
    let db = Arc::new(markov_letters(20_000, 7, 0.65));
    for i in 0..8 {
        let config = MinerConfig {
            alpha: 0.001 * (1.0 + i as f64),
            max_level: Some(2 + (i % 2)),
            ..Default::default()
        };
        let want = serial(&db, config);
        for workers in [1usize, 4] {
            let got = piped(&db, config, workers);
            assert_eq!(got, want, "{config:?} workers={workers}");
        }
    }
}

#[test]
fn repeated_item_configs_ride_the_pipeline_exactly() {
    // distinct_items_only = false lets the Apriori join emit repeated-item
    // episodes ("ABA"); the pipeline's counts must inherit the exact
    // state-composition semantics whichever side of the dispatch table runs.
    let db =
        Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), &"ABAABBA".repeat(800)).unwrap());
    let configs = [
        MinerConfig {
            alpha: 0.01,
            max_level: Some(3),
            distinct_items_only: false,
        },
        MinerConfig {
            alpha: 0.05,
            max_level: Some(3),
            distinct_items_only: true,
        },
        MinerConfig {
            alpha: 0.02,
            max_level: Some(2),
            distinct_items_only: false,
        },
    ];
    let serial: Vec<MiningResult> = configs.iter().map(|c| serial(&db, *c)).collect();
    assert!(
        serial[0]
            .levels
            .iter()
            .flat_map(|l| l.frequent.iter())
            .any(|(e, _)| !e.has_distinct_items()),
        "the workload must actually surface repeated-item episodes"
    );
    for workers in 1usize..=8 {
        for (config, want) in configs.iter().zip(&serial) {
            let got = piped(&db, *config, workers);
            assert_eq!(&got, want, "{config:?} workers={workers}");
        }
    }
}

#[test]
fn forced_gpu_and_dispatching_pipelines_agree_with_the_miner() {
    let db = markov_letters(15_000, 5, 0.6);
    let config = MinerConfig {
        alpha: 0.0005,
        max_level: Some(3),
        ..Default::default()
    };
    let serial = serial(&db, config);

    let mut dispatching = pipeline();
    assert_eq!(
        Miner::new(config).mine(&db, &mut dispatching).unwrap(),
        serial
    );
    // The dispatch table split the run: levels 1 and 2 are index reads on
    // the CPU (per-symbol counts, the pair table), and the wide level 3 goes
    // to the device.
    let classes: Vec<_> = dispatching
        .decisions
        .iter()
        .map(|d| (d.level, d.class.is_cpu()))
        .collect();
    assert_eq!(
        classes,
        [(1, true), (2, true), (3, false)],
        "expected levels 1-2 on the CPU and level 3 on the device"
    );

    let mut forced = pipeline().force_gpu();
    assert_eq!(Miner::new(config).mine(&db, &mut forced).unwrap(), serial);
    assert!(
        forced.decisions.iter().all(|d| !d.class.is_cpu()),
        "force_gpu must pin every level to the device"
    );
    assert!(forced.simulated_ms() > 0.0);
}

#[test]
fn the_resident_stream_survives_across_mining_runs() {
    // Two mines over the same stream: the second run re-uses the resident
    // upload (fingerprint match), so the pipeline reports exactly one upload
    // worth of H2D traffic, not two.
    let db = markov_letters(10_000, 4, 0.6);
    let config = MinerConfig {
        alpha: 0.005,
        max_level: Some(2),
        ..Default::default()
    };
    let mut backend = pipeline().force_gpu();
    let first = Miner::new(config).mine(&db, &mut backend).unwrap();
    let advances_after_first = backend.pipeline().advances();
    let second = Miner::new(config).mine(&db, &mut backend).unwrap();
    assert_eq!(first, second);
    assert!(
        backend.pipeline().advances() > advances_after_first,
        "the second run must advance the already-resident pipeline"
    );
    let res = backend.pipeline().resident().expect("stream resident");
    assert!(res.bytes > 0 && res.upload_ms > 0.0);
}
