//! Micro-benchmarks of the library primitives: the FSM scan, the counters, the
//! segmented counting machinery, the lockstep executor, and the simulator's
//! building blocks. These are *real* CPU throughput numbers (not simulated
//! times) — the performance of the reproduction itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_sim::texcache::{StreamPattern, TextureCache};
use gpu_sim::{occupancy, CostModel, DeviceConfig, KernelResources};
use std::hint::black_box;
use tdm_baselines::ShardedScanBackend;
use tdm_core::candidate::permutations;
use tdm_core::count::{count_episode, count_episodes, count_episodes_naive};
use tdm_core::engine::{CompiledCandidates, CountScratch};
use tdm_core::segment::{count_segmented, count_segmented_exact_items, even_bounds};
use tdm_core::session::{Executor, MiningSession};
use tdm_core::{Alphabet, Episode};
use tdm_gpu::lockstep::{run_broadcast_warp, FsmCosts};
use tdm_workloads::uniform_letters;

fn fsm_scan(c: &mut Criterion) {
    let db = uniform_letters(100_000, 1);
    let ab = Alphabet::latin26();
    let mut g = c.benchmark_group("fsm_scan");
    g.throughput(Throughput::Bytes(db.len() as u64));
    for ep_str in ["A", "AB", "ABC", "ABCDE"] {
        let ep = Episode::from_str(&ab, ep_str).unwrap();
        g.bench_function(
            BenchmarkId::from_parameter(format!("L{}", ep.level())),
            |b| b.iter(|| black_box(count_episode(&db, &ep))),
        );
    }
    g.finish();
}

fn multi_episode_counting(c: &mut Criterion) {
    let db = uniform_letters(20_000, 2);
    let ab = Alphabet::latin26();
    let mut g = c.benchmark_group("multi_episode_counting");
    g.sample_size(10);
    for level in [1usize, 2] {
        let eps = permutations(&ab, level);
        g.bench_function(
            BenchmarkId::from_parameter(format!("active_set_L{level}")),
            |b| b.iter(|| black_box(count_episodes(&db, &eps))),
        );
        g.bench_function(
            BenchmarkId::from_parameter(format!("naive_L{level}")),
            |b| b.iter(|| black_box(count_episodes_naive(&db, &eps))),
        );
        // The compiled engine: index built once, scratch reused per iteration.
        let compiled = CompiledCandidates::compile(ab.len(), &eps);
        let mut scratch = CountScratch::new();
        g.bench_function(
            BenchmarkId::from_parameter(format!("engine_compiled_L{level}")),
            |b| b.iter(|| black_box(compiled.count(db.symbols(), &mut scratch))),
        );
        // The database-sharded count runs through a session: plan once, then
        // time the executor on the planned request.
        let mut session = MiningSession::builder(&db).build();
        let req = session.plan_candidates(&eps);
        let mut sharded = ShardedScanBackend::new(4);
        g.bench_function(
            BenchmarkId::from_parameter(format!("engine_sharded4_L{level}")),
            |b| b.iter(|| black_box(sharded.execute(&req).unwrap())),
        );
    }
    g.finish();
}

fn segmented_counting(c: &mut Criterion) {
    let db = uniform_letters(100_000, 3);
    let ab = Alphabet::latin26();
    let ep = Episode::from_str(&ab, "ABC").unwrap();
    let mut g = c.benchmark_group("segmented_counting");
    g.throughput(Throughput::Bytes(db.len() as u64));
    for parts in [64usize, 512] {
        let bounds = even_bounds(db.len(), parts);
        g.bench_function(
            BenchmarkId::from_parameter(format!("continuation_{parts}")),
            |b| b.iter(|| black_box(count_segmented(&db, &ep, &bounds))),
        );
        g.bench_function(
            BenchmarkId::from_parameter(format!("exact_compose_{parts}")),
            |b| {
                b.iter(|| {
                    black_box(count_segmented_exact_items(
                        db.symbols(),
                        ep.items(),
                        &bounds,
                    ))
                })
            },
        );
    }
    g.finish();
}

fn lockstep_executor(c: &mut Criterion) {
    let db = uniform_letters(50_000, 4);
    let ab = Alphabet::latin26();
    let eps: Vec<Episode> = permutations(&ab, 2).into_iter().take(32).collect();
    let refs: Vec<&[u8]> = eps.iter().map(|e| e.items()).collect();
    let costs = FsmCosts::default();
    let mut g = c.benchmark_group("lockstep_executor");
    g.throughput(Throughput::Elements(db.len() as u64 * 32));
    g.bench_function("broadcast_warp_32_lanes", |b| {
        b.iter(|| black_box(run_broadcast_warp(db.symbols(), &refs, &costs, true).lane_counts))
    });
    g.finish();
}

fn simulator_primitives(c: &mut Criterion) {
    let cost = CostModel::default();
    let cache = TextureCache::new(16 * 1024, &cost);
    let mut g = c.benchmark_group("simulator_primitives");
    g.bench_function("texcache_stream_scan", |b| {
        b.iter(|| {
            black_box(cache.stream_scan(
                &StreamPattern {
                    concurrent_streams: black_box(1024),
                    accesses: 393_019,
                    unique_bytes: 393_019,
                },
                &cost,
            ))
        })
    });
    let dev = DeviceConfig::geforce_gtx_280();
    g.bench_function("occupancy_calculator", |b| {
        b.iter(|| {
            for tpb in [16u32, 64, 96, 128, 256, 512] {
                black_box(occupancy(
                    &dev,
                    &KernelResources::new(tpb)
                        .with_registers(16)
                        .with_shared_mem(4096),
                ));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    fsm_scan,
    multi_episode_counting,
    segmented_counting,
    lockstep_executor,
    simulator_primitives
);
criterion_main!(benches);
