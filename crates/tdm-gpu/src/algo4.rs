//! Algorithm 4 — block-level parallelism with shared-memory buffering
//! (paper §3.3.3).
//!
//! One block per episode, with the database staged through a shared-memory
//! buffer in epochs (as in Algorithm 2), but each thread always processes the
//! *same* slice of the buffer: "thread Ti will always access the exact same
//! block of shared memory addresses for the entire search – the data at those
//! addresses will change as the buffer is updated". Thread `i`'s logical
//! segment list is therefore discontiguous — slice `i` of epoch 0, slice `i` of
//! epoch 1, … — which multiplies the number of span boundaries by the epoch
//! count (the reduce-phase growth of Characterization 3) and makes the scan
//! reads *strided* in shared memory, paying bank-conflict replays whenever the
//! slice stride hits the 16-bank pattern.

use crate::algo2::byte_load_penalty;
use crate::algo3::span_and_reduce_phases;
use crate::lockstep::{measure_spans, FsmCosts, SpanStats};
use crate::{Algorithm, KernelRun, MiningProblem, ProfileStats, SimOptions};
use gpu_sim::smem::{conflict_degree_cc1x, SmemPattern};
use gpu_sim::warp::{LockstepRecorder, PathTaken};
use gpu_sim::{
    simulate, BlockProfile, CostModel, DeviceConfig, KernelResources, KernelSpec, MemKind,
    MemTraffic, Phase, SimError,
};
use tdm_core::engine::CompiledCandidates;
use tdm_core::fsm::EpisodeFsm;
use tdm_core::EventDb;

/// The buffer geometry Algorithm 4 actually runs with: the requested buffer is
/// rounded down so each thread owns an integral slice of at least one byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferGeometry {
    /// Effective buffer bytes per epoch (slice * tpb).
    pub buffer_bytes: u64,
    /// Bytes per thread per epoch.
    pub slice_bytes: u64,
    /// Number of buffer epochs to cover the database.
    pub epochs: u64,
}

/// Computes the buffer geometry for a database of `n` bytes.
pub fn buffer_geometry(n: u64, tpb: u32, requested_buffer: u32) -> BufferGeometry {
    let slice = (requested_buffer as u64 / tpb as u64).max(1);
    let buffer = slice * tpb as u64;
    BufferGeometry {
        buffer_bytes: buffer,
        slice_bytes: slice,
        epochs: n.div_ceil(buffer).max(1),
    }
}

/// The global slice boundaries of Algorithm 4's segmentation: every
/// `slice_bytes` across the whole database (each (epoch, slice) pair is one
/// segment in stream order).
pub fn slice_bounds(n: u64, geometry: &BufferGeometry) -> Vec<usize> {
    (1..n.div_ceil(geometry.slice_bytes))
        .map(|k| (k * geometry.slice_bytes) as usize)
        .filter(|&b| b < n as usize)
        .collect()
}

/// Lockstep execution of one Algorithm-4 warp: lane `i` (thread `t = warp*32 +
/// i`) scans slice `t` of every epoch, restarting its FSM at each slice start
/// (span handling is a separate phase, as in the kernel). The episode is given
/// as its (non-empty) item slice.
#[allow(clippy::too_many_arguments)]
fn run_slice_warp(
    stream: &[u8],
    items: &[u8],
    geometry: &BufferGeometry,
    first_thread: u32,
    lanes: u32,
    tpb: u32,
    costs: &FsmCosts,
    serialize: bool,
) -> (LockstepRecorder, Vec<u64>) {
    let n = stream.len() as u64;
    let mut fsms: Vec<EpisodeFsm> = (0..lanes).map(|_| EpisodeFsm::from_items(items)).collect();
    let mut recorder = LockstepRecorder::new();
    let mut counts = vec![0u64; lanes as usize];
    let mut paths: Vec<PathTaken> = Vec::with_capacity(lanes as usize);
    for epoch in 0..geometry.epochs {
        // Every lane restarts its FSM at its slice boundary.
        for (i, f) in fsms.iter_mut().enumerate() {
            counts[i] += f.count();
            f.reset();
        }
        let base = epoch * geometry.buffer_bytes;
        for off in 0..geometry.slice_bytes {
            paths.clear();
            for lane in 0..lanes {
                let t = first_thread + lane;
                let pos = base + t as u64 * geometry.slice_bytes + off;
                if pos < n {
                    let c = stream[pos as usize];
                    paths.push(costs.path(fsms[lane as usize].step(c)));
                }
            }
            if !paths.is_empty() {
                recorder.record_step(&paths, costs.loop_overhead, serialize);
            }
        }
    }
    for (i, f) in fsms.iter_mut().enumerate() {
        counts[i] += f.count();
    }
    let _ = tpb;
    (recorder, counts)
}

pub(crate) fn sample_slice_level(
    db: &EventDb,
    compiled: &CompiledCandidates,
    tpb: u32,
    requested_buffer: u32,
    serialize: bool,
    opts: &SimOptions,
) -> ProfileStats {
    let costs = FsmCosts::default();
    let n = db.len() as u64;
    let geometry = buffer_geometry(n, tpb, requested_buffer);
    let warps = tpb.div_ceil(32).max(1);

    let n_blocks = compiled.len();
    let block_ids: Vec<usize> = if opts.exact || n_blocks <= opts.sample_blocks {
        (0..n_blocks).collect()
    } else {
        let s = opts.sample_blocks.max(1);
        (0..s)
            .map(|i| i * (n_blocks - 1) / (s - 1).max(1))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect()
    };

    let bounds = slice_bounds(n, &geometry);
    let mut total = 0u64;
    let mut max = 0u64;
    let mut samples = 0u64;
    let mut spans = SpanStats::default();
    for &b in &block_ids {
        let items = compiled.items_of(b);
        let warp_ids: Vec<u32> = if opts.exact || warps as usize <= opts.sample_warps {
            (0..warps).collect()
        } else {
            let s = opts.sample_warps.max(1) as u32;
            (0..s)
                .map(|i| i * (warps - 1) / (s - 1).max(1))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect()
        };
        for &w in &warp_ids {
            let first_thread = w * 32;
            let lanes = (tpb - first_thread).min(32);
            let (rec, _) = run_slice_warp(
                db.symbols(),
                items,
                &geometry,
                first_thread,
                lanes,
                tpb,
                &costs,
                serialize,
            );
            let issue = rec.issue_instructions();
            total += issue;
            max = max.max(issue);
            samples += 1;
        }
        let (_, s) = measure_spans(db.symbols(), items, &bounds);
        spans.boundaries += s.boundaries;
        spans.live += s.live;
        spans.continuation_chars += s.continuation_chars;
        spans.recovered += s.recovered;
    }

    ProfileStats {
        mean_warp_issue: total as f64 / samples.max(1) as f64,
        max_warp_issue: max as f64,
        mean_span_window: spans.mean_window(),
        live_boundary_fraction: spans.live_fraction(),
    }
}

/// Runs Algorithm 4.
///
/// # Errors
/// Propagates launch-validation failures from the simulator.
pub fn run(
    problem: &MiningProblem<'_>,
    tpb: u32,
    dev: &DeviceConfig,
    cost: &CostModel,
    opts: &SimOptions,
) -> Result<KernelRun, SimError> {
    let n = problem.db().len() as u64;
    let launch = crate::launch::grid_for(Algorithm::BlockBuffered, problem.compiled(), tpb);
    let geometry = buffer_geometry(n, tpb, opts.buffer_bytes.min(dev.shared_mem_per_sm / 2));
    let opts_c = *opts;
    let buffer_key = geometry.buffer_bytes as u32;
    let stats = problem.cached_stats(
        (
            Algorithm::BlockBuffered,
            crate::algo1::stats_key(tpb, cost.model_divergence) ^ (buffer_key << 8),
        ),
        |db, compiled| {
            sample_slice_level(
                db,
                compiled,
                tpb,
                buffer_key,
                cost.model_divergence,
                &opts_c,
            )
        },
    );

    let warps = tpb.div_ceil(32).max(1) as u64;
    let (replays, amplification) = byte_load_penalty(dev.compute_capability);
    let bytes_per_thread = (n as f64 / tpb as f64).ceil() as u64;

    let load_phase = Phase {
        label: "buffer-load",
        warp_instructions: bytes_per_thread * 3 * warps,
        chain_instructions: bytes_per_thread * 3,
        mem: Some(MemTraffic {
            kind: MemKind::Global,
            requests: bytes_per_thread * replays * warps,
            chain: bytes_per_thread / opts.load_mlp.max(1) as u64,
            touched_bytes: n * amplification,
        }),
        barriers: (2 * geometry.epochs) as u32,
    };

    let degree = conflict_degree_cc1x(SmemPattern::Strided {
        stride_bytes: geometry.slice_bytes as u32,
    });
    let steps_per_lane = bytes_per_thread;
    let compute_phase = Phase {
        label: "sliced-scan",
        warp_instructions: (stats.mean_warp_issue * warps as f64).round() as u64,
        chain_instructions: stats.max_warp_issue.round() as u64,
        mem: Some(MemTraffic {
            kind: MemKind::Shared {
                conflict_degree: degree,
            },
            requests: steps_per_lane * warps,
            chain: steps_per_lane,
            touched_bytes: 0,
        }),
        barriers: 0,
    };

    let mut phases = vec![load_phase, compute_phase];
    // One boundary to resolve per thread per epoch; continuations read the
    // shared buffer, not texture.
    phases.extend(span_and_reduce_phases(&stats, tpb, geometry.epochs, false));

    let spec = KernelSpec {
        launch,
        resources: KernelResources::new(tpb)
            .with_registers(opts.registers_per_thread)
            .with_shared_mem(geometry.buffer_bytes as u32 + 4 * tpb),
        profile: BlockProfile { phases },
    };
    let report = simulate(dev, cost, &spec)?;
    Ok(KernelRun {
        algo: Algorithm::BlockBuffered,
        launch,
        counts: problem.counts().to_vec(),
        report,
        spec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_core::candidate::permutations;
    use tdm_core::count::count_episode;
    use tdm_core::segment::count_segmented;
    use tdm_core::{Alphabet, Episode};

    fn small_db() -> EventDb {
        let symbols: Vec<u8> = (0..20_000u32)
            .map(|i| ((i.wrapping_mul(2654435761) >> 9) % 26) as u8)
            .collect();
        EventDb::new(Alphabet::latin26(), symbols).unwrap()
    }

    #[test]
    fn geometry_rounds_to_whole_slices() {
        let g = buffer_geometry(100_000, 64, 4096);
        assert_eq!(g.slice_bytes, 64);
        assert_eq!(g.buffer_bytes, 4096);
        assert_eq!(g.epochs, 25);
        // tpb larger than the buffer: one byte per thread.
        let g = buffer_geometry(1000, 512, 256);
        assert_eq!(g.slice_bytes, 1);
        assert_eq!(g.buffer_bytes, 512);
        assert_eq!(g.epochs, 2);
    }

    #[test]
    fn slice_segmentation_count_matches_sequential() {
        // The (epoch, slice) segmentation with continuations equals the
        // sequential count for the paper's distinct-item episodes.
        let db = small_db();
        let ab = Alphabet::latin26();
        let ep = Episode::from_str(&ab, "AB").unwrap();
        let g = buffer_geometry(db.len() as u64, 64, 4096);
        let bounds = slice_bounds(db.len() as u64, &g);
        assert_eq!(count_segmented(&db, &ep, &bounds), count_episode(&db, &ep));
    }

    #[test]
    fn slice_warp_counts_match_segment_scans() {
        let db = small_db();
        let ab = Alphabet::latin26();
        let ep = Episode::from_str(&ab, "AB").unwrap();
        let g = buffer_geometry(db.len() as u64, 64, 2048);
        let (_, counts) = run_slice_warp(
            db.symbols(),
            ep.items(),
            &g,
            0,
            32,
            64,
            &FsmCosts::default(),
            true,
        );
        // Lane 0 scans slice 0 of every epoch; verify against direct scans.
        let mut expect0 = 0u64;
        for e in 0..g.epochs {
            let start = (e * g.buffer_bytes) as usize;
            let end = (start + g.slice_bytes as usize).min(db.len());
            if start < db.len() {
                expect0 +=
                    tdm_core::segment::scan_segment_items(db.symbols(), ep.items(), start..end)
                        .count;
            }
        }
        assert_eq!(counts[0], expect0);
    }

    #[test]
    fn counts_match_ground_truth() {
        let db = small_db();
        let eps = permutations(&Alphabet::latin26(), 1);
        let p = MiningProblem::new(&db, &eps);
        let run = run(
            &p,
            256,
            &DeviceConfig::geforce_gtx_280(),
            &CostModel::default(),
            &SimOptions::default(),
        )
        .unwrap();
        assert_eq!(run.counts, tdm_core::count::count_episodes(&db, &eps));
        assert_eq!(run.launch.blocks, 26);
    }

    #[test]
    fn power_of_two_slices_pay_bank_conflicts() {
        // 4096-byte buffer, 64 threads -> 64-byte slices -> 16-way conflicts;
        // 240 threads -> 17-byte slices -> conflict-free-ish.
        let d64 = conflict_degree_cc1x(SmemPattern::Strided { stride_bytes: 64 });
        let d17 = conflict_degree_cc1x(SmemPattern::Strided { stride_bytes: 17 });
        assert_eq!(d64, 16);
        assert!(d17 <= 2);
        // And it shows in simulated time (same level, same card).
        let db = small_db();
        let eps = permutations(&Alphabet::latin26(), 2);
        let dev = DeviceConfig::geforce_gtx_280();
        let cost = CostModel::default();
        let opts = SimOptions::default();
        let p = MiningProblem::new(&db, &eps);
        let t64 = run(&p, 64, &dev, &cost, &opts).unwrap();
        let t240 = run(&p, 240, &dev, &cost, &opts).unwrap();
        assert!(
            t240.report.time_ms < t64.report.time_ms,
            "240tpb {} vs 64tpb {}",
            t240.report.time_ms,
            t64.report.time_ms
        );
    }

    #[test]
    fn sub_millisecond_at_level1_on_gtx280() {
        // Characterization 4: "Algorithm 4 on the GTX280 is sub-millisecond".
        // (Scaled DB here is ~20x smaller than the paper's, so the bound holds
        // with margin; the harness checks it at full size.)
        let db = small_db();
        let eps = permutations(&Alphabet::latin26(), 1);
        let p = MiningProblem::new(&db, &eps);
        let run = run(
            &p,
            256,
            &DeviceConfig::geforce_gtx_280(),
            &CostModel::default(),
            &SimOptions::default(),
        )
        .unwrap();
        assert!(run.report.time_ms < 1.0, "{}", run.report.time_ms);
    }
}
