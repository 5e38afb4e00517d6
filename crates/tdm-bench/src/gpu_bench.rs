//! Simulated-time benchmark of the Everest-style GPU serving pipeline
//! (`tdm_gpu::DevicePipeline`): what persistence and batching buy over the
//! paper's launch-per-level discipline.
//!
//! Three scenarios, all fully deterministic (every number comes from the
//! `gpu-sim` cost model, never the host clock), so the committed artifact
//! (`BENCH_gpu.json`) is reproducible bit-for-bit anywhere:
//!
//! * **fused pipeline vs per-level launches** — the same mining run driven
//!   twice on the simulated GTX 280: once through a persistent
//!   [`GpuPipelineBackend`] (stream uploaded once, each level a resident
//!   pipeline advance) and once through a baseline that does what the paper
//!   does — a fresh driver launch per level, re-uploading the stream each
//!   time. The `fused_pipeline_vs_per_level` headline (per-level ms / fused
//!   ms) goes top-level in the JSON and is floor-guarded in CI.
//! * **union launch vs K solo launches** — K tenants with overlapping
//!   level-2 candidate sets, served once as K separate upload+launch cycles
//!   and once as a single [`DevicePipeline::advance_union`] over their
//!   deduplicated [`CandidateUnion`] CSR (per-tenant routing tables widen the
//!   block's shared memory; the count buffer is demultiplexed per member).
//!   Demuxed counts are asserted bit-identical to each tenant's solo launch
//!   before the `union_launch_vs_k_solo` ratio is reported.
//! * **routed pipeline** — the first scenario's mine through a
//!   [`GpuPipelineBackend`] that is not forced onto the device: the
//!   serve-time cost model (`CompiledCandidates::choose_backend_class`)
//!   routes each level to a CPU class or the pipeline. The report records
//!   every level's `(level, candidates, class)` and the routed run's
//!   simulated ms; CPU-class levels add no simulated time, so the routing
//!   shows up in the committed artifact without a host clock.

use tdm_core::candidate::permutations;
use tdm_core::engine::{CandidateUnion, CompiledCandidates, DispatchClass};
use tdm_core::miner::{Miner, MinerConfig};
use tdm_core::session::{BackendError, CountRequest, Counts, Executor};
use tdm_core::Episode;
use tdm_gpu::{Algorithm, DevicePipeline, GpuPipelineBackend};
use tdm_workloads::markov_letters;

use gpu_sim::DeviceConfig;

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct GpuBenchConfig {
    /// Markov stream length, symbols.
    pub symbols: usize,
    /// Support threshold of the mining run.
    pub alpha: f64,
    /// Level cap of the mining run.
    pub max_level: usize,
    /// Tenants sharing the union launch in the batching scenario.
    pub tenants: usize,
    /// Block size of every simulated kernel.
    pub threads_per_block: u32,
}

impl Default for GpuBenchConfig {
    fn default() -> Self {
        GpuBenchConfig {
            symbols: 2_000,
            alpha: 0.001,
            max_level: 4,
            tenants: 4,
            threads_per_block: 64,
        }
    }
}

/// The paper's discipline as an [`Executor`]: every level is a fresh driver
/// launch against a cold device — stream re-uploaded, kernel re-launched.
struct PerLevelLaunch {
    threads_per_block: u32,
    device: DeviceConfig,
    levels: u64,
    simulated_ms: f64,
}

impl Executor for PerLevelLaunch {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        let mut pipeline = DevicePipeline::new(
            Algorithm::BlockTexture,
            self.threads_per_block,
            self.device.clone(),
        );
        pipeline.upload(req.db());
        let run = pipeline
            .advance(req.db(), req.compiled())
            .map_err(|e| BackendError::Failed(e.to_string()))?;
        self.levels += 1;
        self.simulated_ms += pipeline.simulated_ms;
        Ok(run.counts)
    }

    fn name(&self) -> &str {
        "per-level-launch"
    }
}

/// The full GPU-pipeline benchmark report.
#[derive(Debug, Clone)]
pub struct GpuBenchReport {
    /// Markov stream length, symbols.
    pub symbols: usize,
    /// Levels the mining run counted.
    pub levels: usize,
    /// Modeled milliseconds of the launch-per-level baseline (stream
    /// re-uploaded and kernel re-launched every level).
    pub per_level_launch_ms: f64,
    /// Modeled milliseconds of the persistent pipeline (one upload, one
    /// launch, then resident advances).
    pub fused_pipeline_ms: f64,
    /// The headline: per-level ms over fused ms (> 1 = persistence pays).
    pub fused_pipeline_vs_per_level: f64,
    /// Tenants in the batching scenario.
    pub tenants: usize,
    /// Deduplicated union candidates the batched launch counted.
    pub union_candidates: usize,
    /// Modeled milliseconds of K separate upload+launch cycles.
    pub solo_launches_ms: f64,
    /// Modeled milliseconds of the single K-tenant union launch (upload +
    /// fused kernel + per-member demux).
    pub union_launch_ms: f64,
    /// The headline: K-solo ms over union ms (> 1 = batching pays).
    pub union_launch_vs_k_solo: f64,
    /// Modeled milliseconds of the routed pipeline (device levels only).
    pub routed_pipeline_ms: f64,
    /// The routed run's decisions: `(level, candidates, class)` per level.
    pub routed_levels: Vec<(usize, usize, DispatchClass)>,
}

/// Runs both scenarios (see the [module docs](self)).
pub fn run(cfg: &GpuBenchConfig) -> GpuBenchReport {
    let db = markov_letters(cfg.symbols.max(1_000), 7, 0.65);
    let device = DeviceConfig::geforce_gtx_280();
    let mining = MinerConfig {
        alpha: cfg.alpha,
        max_level: Some(cfg.max_level.max(1)),
        ..Default::default()
    };

    // Scenario 1: the same mining run, persistent pipeline vs fresh launches.
    let mut fused_backend = GpuPipelineBackend::new(
        Algorithm::BlockTexture,
        cfg.threads_per_block,
        device.clone(),
    )
    .force_gpu();
    let fused_result = Miner::new(mining)
        .mine(&db, &mut fused_backend)
        .expect("fused pipeline mining failed");
    let mut per_level = PerLevelLaunch {
        threads_per_block: cfg.threads_per_block,
        device: device.clone(),
        levels: 0,
        simulated_ms: 0.0,
    };
    let baseline_result = Miner::new(mining)
        .mine(&db, &mut per_level)
        .expect("per-level baseline mining failed");
    assert_eq!(
        fused_result, baseline_result,
        "persistent pipeline diverged from launch-per-level counting"
    );
    let fused_pipeline_ms = fused_backend.simulated_ms();
    let per_level_launch_ms = per_level.simulated_ms;

    // Scenario 2: K overlapping level-2 tenants, solo launches vs one union.
    let tenants = cfg.tenants.max(2);
    let all_pairs = permutations(db.alphabet(), 2);
    // Overlapping windows over the pair space: every adjacent pair of tenants
    // shares half its candidates — the partial-overlap regime union launches
    // target (disjoint sets would make the union as big as the concatenation).
    let window = (all_pairs.len() / (tenants + 1)).max(2) * 2;
    let sources: Vec<Vec<Episode>> = (0..tenants)
        .map(|t| {
            let start = t * window / 2;
            all_pairs
                .iter()
                .cycle()
                .skip(start)
                .take(window)
                .cloned()
                .collect()
        })
        .collect();
    let source_refs: Vec<&[Episode]> = sources.iter().map(|s| s.as_slice()).collect();
    let union = CandidateUnion::build(&source_refs);
    let union_compiled = CompiledCandidates::compile(db.alphabet().len(), union.episodes());

    let mut solo_launches_ms = 0.0;
    let mut solo_counts: Vec<Vec<u64>> = Vec::with_capacity(tenants);
    for source in &sources {
        let compiled = CompiledCandidates::compile(db.alphabet().len(), source);
        let mut pipeline = DevicePipeline::new(
            Algorithm::BlockTexture,
            cfg.threads_per_block,
            device.clone(),
        );
        pipeline.upload(&db);
        let run = pipeline
            .advance(&db, &compiled)
            .expect("solo tenant launch failed");
        solo_counts.push(run.counts);
        solo_launches_ms += pipeline.simulated_ms;
    }

    let mut union_pipeline = DevicePipeline::new(
        Algorithm::BlockTexture,
        cfg.threads_per_block,
        device.clone(),
    );
    union_pipeline.upload(&db);
    let launch = union_pipeline
        .advance_union(&db, &union_compiled, &union)
        .expect("union launch failed");
    assert_eq!(launch.tenants, tenants);
    for (t, want) in solo_counts.iter().enumerate() {
        assert_eq!(
            &launch.member_counts[t], want,
            "union demux diverged from tenant {t}'s solo launch"
        );
    }
    let union_launch_ms = union_pipeline.simulated_ms;

    // Scenario 3: scenario 1's mine, routed per level by the cost model.
    let mut routed_backend = GpuPipelineBackend::new(
        Algorithm::BlockTexture,
        cfg.threads_per_block,
        device.clone(),
    );
    let routed_result = Miner::new(mining)
        .mine(&db, &mut routed_backend)
        .expect("routed pipeline mining failed");
    assert_eq!(
        routed_result, fused_result,
        "routed pipeline diverged from the device-only run"
    );
    let routed_levels = routed_backend
        .decisions
        .iter()
        .map(|d| (d.level, d.candidates, d.class))
        .collect();

    GpuBenchReport {
        symbols: db.len(),
        levels: fused_result.levels.len(),
        per_level_launch_ms,
        fused_pipeline_ms,
        fused_pipeline_vs_per_level: per_level_launch_ms / fused_pipeline_ms.max(1e-12),
        tenants,
        union_candidates: union_compiled.len(),
        solo_launches_ms,
        union_launch_ms,
        union_launch_vs_k_solo: solo_launches_ms / union_launch_ms.max(1e-12),
        routed_pipeline_ms: routed_backend.simulated_ms(),
        routed_levels,
    }
}

impl GpuBenchReport {
    /// Serializes the report as pretty JSON (hand-rolled; the workspace
    /// builds offline without a JSON crate).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"symbols\": {},\n", self.symbols));
        s.push_str(&format!("  \"levels\": {},\n", self.levels));
        s.push_str(&format!(
            "  \"fused_pipeline_vs_per_level\": {:.4},\n",
            self.fused_pipeline_vs_per_level
        ));
        s.push_str(&format!(
            "  \"union_launch_vs_k_solo\": {:.4},\n",
            self.union_launch_vs_k_solo
        ));
        s.push_str(&format!(
            "  \"per_level_launch_ms\": {:.6},\n",
            self.per_level_launch_ms
        ));
        s.push_str(&format!(
            "  \"fused_pipeline_ms\": {:.6},\n",
            self.fused_pipeline_ms
        ));
        s.push_str(&format!("  \"tenants\": {},\n", self.tenants));
        s.push_str(&format!(
            "  \"union_candidates\": {},\n",
            self.union_candidates
        ));
        s.push_str(&format!(
            "  \"solo_launches_ms\": {:.6},\n",
            self.solo_launches_ms
        ));
        s.push_str(&format!(
            "  \"union_launch_ms\": {:.6},\n",
            self.union_launch_ms
        ));
        s.push_str(&format!(
            "  \"routed_pipeline_ms\": {:.6},\n",
            self.routed_pipeline_ms
        ));
        let routed: Vec<String> = self
            .routed_levels
            .iter()
            .map(|(level, candidates, class)| {
                format!("{{\"level\": {level}, \"candidates\": {candidates}, \"class\": \"{class:?}\"}}")
            })
            .collect();
        s.push_str(&format!("  \"routed_levels\": [{}]\n", routed.join(", ")));
        s.push('}');
        s.push('\n');
        s
    }

    /// Three-line terminal summary.
    pub fn summary(&self) -> String {
        let routed: Vec<String> = self
            .routed_levels
            .iter()
            .map(|(level, _, class)| {
                let side = if class.is_cpu() { "cpu" } else { "gpu" };
                format!("L{level} {side}")
            })
            .collect();
        format!(
            "gpu pipeline ({} symbols, {} levels): per-level {:.3} ms vs fused {:.3} ms \
             = {:.2}x\ngpu union ({} tenants, {} union candidates): solo {:.3} ms vs \
             union {:.3} ms = {:.2}x\ngpu routed: {} = {:.3} ms\n",
            self.symbols,
            self.levels,
            self.per_level_launch_ms,
            self.fused_pipeline_ms,
            self.fused_pipeline_vs_per_level,
            self.tenants,
            self.union_candidates,
            self.solo_launches_ms,
            self.union_launch_ms,
            self.union_launch_vs_k_solo,
            routed.join(", "),
            self.routed_pipeline_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GpuBenchReport {
        run(&GpuBenchConfig {
            symbols: 1_000,
            alpha: 0.002,
            max_level: 3,
            tenants: 3,
            ..Default::default()
        })
    }

    #[test]
    fn both_headlines_exceed_their_floors() {
        let r = tiny();
        assert!(r.levels >= 2, "want a multi-level run, got {}", r.levels);
        // The acceptance floors guarded by tools/bench_guard.sh — if these
        // fail here, the committed artifact would fail CI too.
        assert!(
            r.fused_pipeline_vs_per_level >= 1.2,
            "fused ratio below floor: {r:?}"
        );
        assert!(
            r.union_launch_vs_k_solo > 1.0,
            "union ratio below floor: {r:?}"
        );
    }

    #[test]
    fn the_routed_run_keeps_index_reads_on_the_cpu() {
        let r = tiny();
        assert_eq!(r.routed_levels.len(), r.levels);
        // Levels 1 and 2 are per-symbol and pair-table reads: no device
        // advance can beat them.
        let classes: Vec<_> = r.routed_levels.iter().map(|&(l, _, c)| (l, c)).collect();
        assert_eq!(
            classes[..2],
            [
                (1, DispatchClass::CpuVertical),
                (2, DispatchClass::CpuVertical)
            ]
        );
        // Only device levels cost simulated time.
        let device_levels = r
            .routed_levels
            .iter()
            .filter(|(_, _, c)| !c.is_cpu())
            .count();
        assert_eq!(device_levels == 0, r.routed_pipeline_ms == 0.0);
        assert!(r.routed_pipeline_ms <= r.fused_pipeline_ms);
    }

    #[test]
    fn the_report_is_deterministic() {
        let a = tiny();
        let b = tiny();
        // Simulated time only: two runs agree to the last bit, never mind
        // host load.
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let r = tiny();
        let j = r.to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.trim_end().ends_with('}'));
        assert!(j.contains("\"fused_pipeline_vs_per_level\""));
        assert!(j.contains("\"union_launch_vs_k_solo\""));
        assert!(j.contains("\"per_level_launch_ms\""));
        assert!(j.contains("\"union_candidates\""));
        assert!(j.contains("\"routed_levels\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains("NaN"));
        assert!(!r.summary().is_empty());
    }
}
