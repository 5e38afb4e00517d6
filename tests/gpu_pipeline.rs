//! The GPU serving pipeline's differential suite: the persistent
//! [`GpuPipelineBackend`] drives the *same* plan/execute surfaces as every
//! CPU backend — solo sessions, `Miner::mine`, and K-member `MiningSession`
//! batches (the union CSR modeled as a K-tenant launch) — and must stay
//! bit-identical to serial mining everywhere, while its serve-time dispatch
//! table sends small levels to the CPU and wide ones to the device.

use std::sync::Arc;
use temporal_mining::core::miner::SequentialBackend;
use temporal_mining::prelude::*;
use temporal_mining::workloads::markov_letters;

/// K distinct configs over one db: stepped thresholds and level bounds, so
/// members survive (and retire) at different levels.
fn stepped_configs(k: usize) -> Vec<MinerConfig> {
    (0..k)
        .map(|i| MinerConfig {
            alpha: 0.001 * (1.0 + i as f64),
            max_level: Some(2 + (i % 2)),
            ..Default::default()
        })
        .collect()
}

fn serial_results(db: &EventDb, configs: &[MinerConfig]) -> Vec<MiningResult> {
    configs
        .iter()
        .map(|cfg| {
            Miner::new(*cfg)
                .mine(db, &mut SequentialBackend::default())
                .expect("serial mining failed")
        })
        .collect()
}

fn pipeline(tenants: u32) -> GpuPipelineBackend {
    GpuPipelineBackend::with_defaults(DeviceConfig::geforce_gtx_280()).tenants(tenants)
}

#[test]
fn union_batches_demux_bit_identically_for_k_2_4_8() {
    let db = Arc::new(markov_letters(20_000, 7, 0.65));
    for k in [2usize, 4, 8] {
        let configs = stepped_configs(k);
        let serial = serial_results(&db, &configs);
        for workers in [1usize, 4] {
            let mut group = MiningSession::builder_shared(Arc::clone(&db))
                .configs(configs.iter().copied())
                .workers(workers)
                .build();
            let mut backend = pipeline(k as u32);
            let results = group.co_mine(&mut backend).expect("co-mining failed");
            assert_eq!(results.len(), k);
            for (i, (got, want)) in results.iter().zip(&serial).enumerate() {
                assert_eq!(got, want, "k={k} workers={workers} member {i} diverged");
            }
        }
    }
}

#[test]
fn repeated_item_unions_ride_the_pipeline_exactly() {
    // distinct_items_only = false lets the Apriori join emit repeated-item
    // episodes ("ABA"); the pipeline's counts must inherit the exact
    // state-composition semantics whichever side of the dispatch table runs.
    let db =
        Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), &"ABAABBA".repeat(800)).unwrap());
    let configs = vec![
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
    let serial = serial_results(&db, &configs);
    assert!(
        serial[0]
            .levels
            .iter()
            .flat_map(|l| l.frequent.iter())
            .any(|(e, _)| !e.has_distinct_items()),
        "the workload must actually surface repeated-item episodes"
    );
    for workers in 1usize..=8 {
        let mut group = MiningSession::builder_shared(Arc::clone(&db))
            .configs(configs.iter().copied())
            .workers(workers)
            .build();
        let results = group
            .co_mine(&mut pipeline(configs.len() as u32))
            .expect("co-mining failed");
        assert_eq!(results, serial, "workers={workers}");
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
    let serial = Miner::new(config)
        .mine(&db, &mut SequentialBackend::default())
        .unwrap();

    let mut dispatching = pipeline(1);
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

    let mut forced = pipeline(1).force_gpu();
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
    let mut backend = pipeline(1).force_gpu();
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
