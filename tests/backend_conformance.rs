//! Backend conformance suite for the plan/execute counting API.
//!
//! Every CPU backend — the served default `AutoBackend` and the session's
//! `SequentialBackend` included — and all four simulated GPU kernels run
//! through the *new* [`Executor`] trait against one shared [`MiningSession`]:
//!
//! * bit-identical counts on the paper-database slice;
//! * bit-identical counts on adversarial inputs — empty candidate set,
//!   single-symbol alphabet (repeated-item episodes), worker counts 1..=8,
//!   and proptest-generated streams/candidate sets;
//! * candidates compile exactly once per level (session compile counter +
//!   stable compiled-buffer address across levels);
//! * identical `Result` error behavior on malformed backends, whichever entry
//!   point (session or `Miner`) drives them.

use proptest::prelude::*;
use temporal_mining::core::candidate::permutations;
use temporal_mining::core::count::count_episodes_naive;
use temporal_mining::core::miner::SequentialBackend;
use temporal_mining::prelude::*;
use temporal_mining::workloads::paper_database_scaled;

/// All CPU executors under test, with a label: the served default
/// (`AutoBackend`, behind every wire `mine`), the session's built-in
/// sequential scan, and the baselines.
fn cpu_executors() -> Vec<(String, Box<dyn Executor>)> {
    let mut v: Vec<(String, Box<dyn Executor>)> = vec![
        ("cpu-engine-auto".into(), Box::new(AutoBackend)),
        (
            "cpu-sequential".into(),
            Box::new(SequentialBackend::default()),
        ),
        ("cpu-serial-scan".into(), Box::new(SerialScanBackend)),
        (
            "cpu-sharded-auto".into(),
            Box::new(ShardedScanBackend::auto()),
        ),
        (
            "cpu-mapreduce-auto".into(),
            Box::new(MapReduceBackend::auto()),
        ),
    ];
    for workers in 1..=8usize {
        v.push((
            format!("cpu-sharded-w{workers}"),
            Box::new(ShardedScanBackend::new(workers)),
        ));
        v.push((
            format!("cpu-mapreduce-w{workers}"),
            Box::new(MapReduceBackend::new(workers)),
        ));
    }
    v
}

/// The four GPU kernels as executors, plus the persistent device pipeline:
/// dispatching (serve-time CPU-vs-GPU choice per level) and pinned to the
/// GPU path.
fn gpu_executors() -> Vec<(String, Box<dyn Executor>)> {
    let mut v: Vec<(String, Box<dyn Executor>)> = Algorithm::ALL
        .iter()
        .map(|&algo| {
            (
                format!("{algo}"),
                Box::new(GpuBackend::new(algo, 128, DeviceConfig::geforce_gtx_280()))
                    as Box<dyn Executor>,
            )
        })
        .collect();
    v.push((
        "gpu-pipeline-dispatch".into(),
        Box::new(GpuPipelineBackend::with_defaults(
            DeviceConfig::geforce_gtx_280(),
        )),
    ));
    v.push((
        "gpu-pipeline-forced".into(),
        Box::new(GpuPipelineBackend::with_defaults(DeviceConfig::geforce_gtx_280()).force_gpu()),
    ));
    v
}

fn assert_conformance(db: &temporal_mining::core::EventDb, episodes: &[Episode], workers: usize) {
    let reference = count_episodes_naive(db, episodes);
    let mut session = MiningSession::builder(db).workers(workers).build();
    for (name, mut ex) in cpu_executors().into_iter().chain(gpu_executors()) {
        let counts = session
            .count_candidates(episodes, ex.as_mut())
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert_eq!(counts, reference, "{name} disagrees with the reference");
    }
}

#[test]
fn conformance_on_paper_database_slice() {
    let db = paper_database_scaled(0.05);
    for level in [1usize, 2] {
        assert_conformance(&db, &permutations(db.alphabet(), level), 4);
    }
}

#[test]
fn conformance_on_empty_candidate_set() {
    let db = paper_database_scaled(0.02);
    assert_conformance(&db, &[], 3);
}

#[test]
fn conformance_on_single_symbol_alphabet() {
    // Degenerate universe: one symbol, so every multi-item episode has
    // repeated items — the exact-composition fallback's regime.
    let ab = Alphabet::numbered(1).unwrap();
    let db = temporal_mining::core::EventDb::new(ab, vec![0u8; 9_000]).unwrap();
    let episodes: Vec<Episode> = (1..=4)
        .map(|l| Episode::new(vec![0u8; l]).unwrap())
        .collect();
    for workers in 1..=8usize {
        assert_conformance(&db, &episodes, workers);
    }
}

/// An executor that delegates to an inner backend but records the address of
/// every compiled candidate set it is handed.
#[derive(Default)]
struct SpyExecutor<E> {
    inner: E,
    compiled_addrs: Vec<usize>,
    calls: usize,
}

impl<E: Executor> Executor for SpyExecutor<E> {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        self.compiled_addrs
            .push(req.compiled() as *const CompiledCandidates as usize);
        self.calls += 1;
        self.inner.execute(req)
    }

    fn name(&self) -> &str {
        "spy"
    }
}

#[test]
fn session_compiles_exactly_once_per_level_into_the_same_buffers() {
    let db = paper_database_scaled(0.02);
    let mut session = MiningSession::builder(&db)
        .config(MinerConfig {
            alpha: 0.0005,
            max_level: Some(3),
            ..Default::default()
        })
        .build();
    let mut spy = SpyExecutor::<SequentialBackend>::default();
    let result = session.mine_with(&mut spy, |_| {}).unwrap();
    assert!(result.levels.len() >= 2, "want a multi-level run");
    // One execute — and exactly one compile — per level.
    assert_eq!(spy.calls, result.levels.len());
    assert_eq!(session.compiles(), result.levels.len());
    // The compiled set is recompiled *in place*: every level saw the same
    // allocation (Arc::make_mut never had to clone).
    assert!(
        spy.compiled_addrs.windows(2).all(|w| w[0] == w[1]),
        "compiled buffers were reallocated across levels: {:?}",
        spy.compiled_addrs
    );
    // A second mining run against the same session keeps reusing them.
    let addr = spy.compiled_addrs[0];
    spy.compiled_addrs.clear();
    session.mine_with(&mut spy, |_| {}).unwrap();
    assert!(spy.compiled_addrs.iter().all(|&a| a == addr));
}

#[test]
fn pooled_executors_release_their_shared_handles_between_levels() {
    // Pool workers ship Arc handles to the compiled set; they must all be
    // dropped by the time execute returns, or the next level's in-place
    // recompile would silently degrade to a deep clone (new address).
    let db = paper_database_scaled(0.1); // long enough to actually shard
    let mut session = MiningSession::builder(&db)
        .config(MinerConfig {
            alpha: 0.0005,
            max_level: Some(2),
            ..Default::default()
        })
        .workers(4)
        .build();
    let mut spy = SpyExecutor {
        inner: ShardedScanBackend::new(4),
        compiled_addrs: Vec::new(),
        calls: 0,
    };
    session.mine_with(&mut spy, |_| {}).unwrap();
    session.mine_with(&mut spy, |_| {}).unwrap();
    assert!(spy.calls >= 4);
    assert!(
        spy.compiled_addrs.windows(2).all(|w| w[0] == w[1]),
        "a pool worker held its Arc past execute — compiled buffers were \
         cloned instead of recompiled in place: {:?}",
        spy.compiled_addrs
    );
}

/// A malformed backend: returns one count too many.
struct WrongLengthBackend;

impl Executor for WrongLengthBackend {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        Ok(vec![0; req.candidates() + 1])
    }

    fn name(&self) -> &str {
        "wrong-length"
    }
}

/// A backend that fails outright.
struct FailingBackend;

impl Executor for FailingBackend {
    fn execute(&mut self, _req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        Err(BackendError::Failed("boom".into()))
    }

    fn name(&self) -> &str {
        "failing"
    }
}

#[test]
fn malformed_backends_error_identically_everywhere() {
    let db = paper_database_scaled(0.02);
    let expected_wrong_length = MineError {
        level: 1,
        backend: "wrong-length".into(),
        source: BackendError::CountLength {
            expected: 26,
            got: 27,
        },
    };
    let expected_failed = MineError {
        level: 1,
        backend: "failing".into(),
        source: BackendError::Failed("boom".into()),
    };

    // Session-driven counting and the Miner driver surface the *same* error
    // value — no asserts, no panics, one Result story.
    let mut session = MiningSession::builder(&db).build();
    let eps = permutations(db.alphabet(), 1);
    assert_eq!(
        session.count_candidates(&eps, &mut WrongLengthBackend),
        Err(expected_wrong_length.clone())
    );
    assert_eq!(
        session.mine(&mut WrongLengthBackend),
        Err(expected_wrong_length.clone())
    );
    assert_eq!(
        Miner::new(MinerConfig::default()).mine(&db, &mut WrongLengthBackend),
        Err(expected_wrong_length)
    );
    assert_eq!(
        session.mine(&mut FailingBackend),
        Err(expected_failed.clone())
    );
    assert_eq!(
        Miner::new(MinerConfig::default()).mine(&db, &mut FailingBackend),
        Err(expected_failed)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CPU executors agree with the naive reference on arbitrary streams,
    /// arbitrary (possibly repeated-item, possibly empty) candidate sets over
    /// alphabets down to a single symbol, and every worker count 1..=8 —
    /// including streams long enough to actually shard across the pool.
    #[test]
    fn cpu_executors_agree_on_adversarial_inputs(
        alphabet_len in 1usize..4,
        raw_data in proptest::collection::vec(0u8..3, 0..6000),
        raw_eps in proptest::collection::vec(
            proptest::collection::vec(0u8..3, 1..4),
            0..10,
        ),
        workers in 1usize..9,
    ) {
        let ab = Alphabet::numbered(alphabet_len).unwrap();
        let data: Vec<u8> = raw_data
            .into_iter()
            .map(|s| s % alphabet_len as u8)
            .collect();
        let db = temporal_mining::core::EventDb::new(ab, data).unwrap();
        let episodes: Vec<Episode> = raw_eps
            .into_iter()
            .map(|v| {
                Episode::new(v.into_iter().map(|s| s % alphabet_len as u8).collect()).unwrap()
            })
            .collect();
        let reference = count_episodes_naive(&db, &episodes);
        let mut session = MiningSession::builder(&db).workers(workers).build();
        let mut executors: Vec<(&str, Box<dyn Executor>)> = vec![
            ("auto", Box::new(AutoBackend)),
            ("sequential", Box::new(SequentialBackend::default())),
            ("serial", Box::new(SerialScanBackend)),
            ("sharded", Box::new(ShardedScanBackend::new(workers))),
            ("sharded-auto", Box::new(ShardedScanBackend::auto())),
            ("mapreduce", Box::new(MapReduceBackend::new(workers))),
        ];
        for (name, ex) in &mut executors {
            let counts = session.count_candidates(&episodes, ex.as_mut()).unwrap();
            prop_assert_eq!(&counts, &reference, "{} disagrees", name);
        }
    }
}
