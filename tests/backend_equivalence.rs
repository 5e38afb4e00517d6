//! Integration test: every counting backend in the workspace — the serial
//! GMiner-class scan, the compiled active-set counter, the database-sharded
//! engine, the MapReduce-style chunk executor, and all four simulated GPU
//! kernels — returns bit-identical counts on a slice of the paper's database,
//! all driven through one `MiningSession` (one compile per candidate set).

use temporal_mining::core::candidate::permutations;
use temporal_mining::core::count::count_episodes_naive;
use temporal_mining::prelude::*;
use temporal_mining::workloads::paper_database_scaled;

#[test]
fn all_backends_bit_identical_on_paper_db_slice() {
    // ~19,651 letters: large enough to shard, small enough for the serial scan.
    let db = paper_database_scaled(0.05);
    let mut session = MiningSession::builder(&db).workers(4).build();
    for level in [1usize, 2] {
        let episodes = permutations(db.alphabet(), level);
        let reference = count_episodes_naive(&db, &episodes);

        let mut executors: Vec<(String, Box<dyn Executor>)> = vec![
            ("cpu-serial-scan".into(), Box::new(SerialScanBackend)),
            (
                "cpu-sequential".into(),
                Box::new(SequentialBackend::default()),
            ),
            ("cpu-mapreduce".into(), Box::new(MapReduceBackend::new(3))),
            (
                "cpu-sharded-auto".into(),
                Box::new(ShardedScanBackend::auto()),
            ),
        ];
        for workers in [1usize, 2, 4, 8] {
            executors.push((
                format!("cpu-sharded-scan-w{workers}"),
                Box::new(ShardedScanBackend::new(workers)),
            ));
        }
        for algo in Algorithm::ALL {
            executors.push((
                format!("{algo}"),
                Box::new(GpuBackend::new(algo, 128, DeviceConfig::geforce_gtx_280())),
            ));
        }

        for (name, ex) in &mut executors {
            let counts = session
                .count_candidates(&episodes, ex.as_mut())
                .unwrap_or_else(|e| panic!("level {level}: {name} failed: {e}"));
            assert_eq!(
                counts, reference,
                "level {level}: {name} disagrees with the naive reference"
            );
        }
    }
}

#[test]
fn mining_results_identical_across_cpu_backends() {
    let db = paper_database_scaled(0.02);
    let miner = Miner::new(MinerConfig {
        alpha: 0.001,
        max_level: Some(3),
        ..Default::default()
    });
    let reference = miner.mine(&db, &mut SerialScanBackend).unwrap();
    assert!(reference.total_frequent() > 0);
    assert_eq!(
        reference,
        miner.mine(&db, &mut SequentialBackend::default()).unwrap()
    );
    assert_eq!(
        reference,
        miner.mine(&db, &mut ShardedScanBackend::new(4)).unwrap()
    );
    assert_eq!(
        reference,
        miner.mine(&db, &mut MapReduceBackend::new(2)).unwrap()
    );
}
