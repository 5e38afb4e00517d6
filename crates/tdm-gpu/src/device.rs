//! The persistent device pipeline — `gpu-sim` as a *serving* backend.
//!
//! The paper launches one kernel per episode level and re-uploads its inputs
//! each time; Everest-style GPU serving inverts that: a persistent kernel is
//! launched once, the event stream is uploaded once and stays device-resident,
//! candidate CSR buffers live on the device across levels, and each level is a
//! pipeline *advance* (a doorbell write + pointer swap into the running grid)
//! instead of a driver-mediated launch. [`DevicePipeline`] models that
//! lifecycle on the simulator:
//!
//! 1. [`upload`](DevicePipeline::upload) — one host→device copy of the stream
//!    (at [`gpu_sim::CostModel::h2d_bandwidth_gbs`]) plus the persistent
//!    kernel's single driver launch, idempotent per stream content hash
//!    ([`EventDb::content_hash`]);
//! 2. [`advance`](DevicePipeline::advance) — run one level's counting kernel
//!    with the resident stream: identical wave timing to a fresh launch, but
//!    the fixed cost is [`gpu_sim::CostModel::advance_overhead_us`]
//!    (first advance still pays the full launch);
//! 3. [`advance_union`](DevicePipeline::advance_union) — a K-tenant batched
//!    advance over a [`CandidateUnion`]'s fused CSR: per-tenant routing tables
//!    widen the block's shared memory ([`gpu_sim::union_resources`]), the
//!    count buffer is demultiplexed per member ([`CandidateUnion::demux`]),
//!    and the demux cost is charged at
//!    [`gpu_sim::CostModel::union_demux_cycles`].
//!
//! A plan compiled against a different stream than the one resident is a
//! [`SimError::StalePlan`] — the serving layer rebuilds the pipeline instead
//! of silently scanning foreign buffers.
//!
//! [`GpuPipelineBackend`] wraps the pipeline as an [`Executor`] with
//! serve-time CPU-vs-GPU dispatch: each level is routed per
//! [`GpuDispatchModel::choose_backend_class`] (over the op-unit costs of
//! [`CompiledCandidates::strategy_costs`], the model behind
//! [`CompiledCandidates::choose_strategy`]), so level 1 and narrow levels
//! stay on the CPU and wide levels advance the device pipeline. Both paths
//! produce bit-identical counts.

use crate::{Algorithm, KernelRun, MiningProblem, SimOptions};
use gpu_sim::{simulate, simulate_resident, union_resources, CostModel, DeviceConfig, SimError};
use tdm_core::engine::{CandidateUnion, CompiledCandidates, CountStrategy, OccurrenceIndex};
use tdm_core::miner::AutoBackend;
use tdm_core::session::{BackendError, CountRequest, Counts, Executor};
use tdm_core::EventDb;

/// What the pipeline holds on the device after [`DevicePipeline::upload`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamResidency {
    /// [`EventDb::content_hash`] of the uploaded stream.
    pub fingerprint: u64,
    /// Bytes copied host→device.
    pub bytes: u64,
    /// Modeled milliseconds of the copy + the persistent kernel's one launch.
    pub upload_ms: f64,
}

/// A persistent simulated-GPU mining pipeline: one resident plan per stream,
/// advanced level by level (see the [module docs](self)).
pub struct DevicePipeline {
    /// Which counting kernel the resident grid runs.
    pub algo: Algorithm,
    /// Block size of the resident grid.
    pub threads_per_block: u32,
    /// Simulated card.
    pub device: DeviceConfig,
    /// Cost model (launch/advance overheads, H2D bandwidth, demux rate).
    pub cost: CostModel,
    /// Execution options.
    pub opts: SimOptions,
    resident: Option<StreamResidency>,
    advances: u64,
    /// Accumulated simulated milliseconds (uploads + advances + demux).
    pub simulated_ms: f64,
}

impl DevicePipeline {
    /// A pipeline for one kernel/card/block-size choice with default cost
    /// model and options.
    pub fn new(algo: Algorithm, threads_per_block: u32, device: DeviceConfig) -> Self {
        DevicePipeline {
            algo,
            threads_per_block,
            device,
            cost: CostModel::default(),
            opts: SimOptions::default(),
            resident: None,
            advances: 0,
            simulated_ms: 0.0,
        }
    }

    /// The stream currently resident, if any.
    pub fn resident(&self) -> Option<&StreamResidency> {
        self.resident.as_ref()
    }

    /// Pipeline advances since the last upload.
    pub fn advances(&self) -> u64 {
        self.advances
    }

    /// Makes `db`'s stream device-resident: models the one-time host→device
    /// copy and the persistent kernel's single driver launch, and returns the
    /// modeled milliseconds. Idempotent — re-uploading the resident stream
    /// costs nothing; a *different* stream evicts the old plan and pays the
    /// copy again.
    pub fn upload(&mut self, db: &EventDb) -> f64 {
        let fingerprint = db.content_hash();
        if let Some(res) = &self.resident {
            if res.fingerprint == fingerprint {
                return 0.0;
            }
        }
        let bytes = db.symbols().len() as u64;
        let upload_ms = self.cost.h2d_copy_ms(bytes);
        self.resident = Some(StreamResidency {
            fingerprint,
            bytes,
            upload_ms,
        });
        self.advances = 0;
        self.simulated_ms += upload_ms;
        upload_ms
    }

    /// Advances the pipeline one level: runs `compiled` over the resident
    /// stream. The first advance after an upload pays the full driver launch
    /// (the persistent kernel starting); every later advance is re-timed as a
    /// resident doorbell ([`gpu_sim::simulate_resident`]). Candidate CSR
    /// updates ride the doorbell — they are written into device-resident
    /// buffers, not re-allocated per level.
    ///
    /// # Errors
    /// [`SimError::StalePlan`] when `db` is not the resident stream (or
    /// nothing was uploaded); otherwise the kernel's own validation errors.
    pub fn advance(
        &mut self,
        db: &EventDb,
        compiled: &CompiledCandidates,
    ) -> Result<KernelRun, SimError> {
        self.advance_inner(db, compiled, 1, 0)
    }

    /// A K-tenant batched advance over a [`CandidateUnion`]'s fused CSR:
    /// counts the union once, widens the block with per-tenant routing tables,
    /// charges the host demux, and returns the per-member counts
    /// ([`CandidateUnion::demux`]).
    ///
    /// `compiled` must be the compiled form of `union.episodes()`.
    ///
    /// # Errors
    /// As [`advance`](Self::advance); additionally, enough tenants can push
    /// the routing tables past the SM's shared memory.
    pub fn advance_union(
        &mut self,
        db: &EventDb,
        compiled: &CompiledCandidates,
        union: &CandidateUnion,
    ) -> Result<UnionLaunch, SimError> {
        let tenants = union.sources();
        let mapped_slots: u64 = (0..tenants).map(|s| union.map(s).len() as u64).sum();
        let run = self.advance_inner(db, compiled, tenants as u32, mapped_slots)?;
        let member_counts = (0..tenants).map(|s| union.demux(s, &run.counts)).collect();
        Ok(UnionLaunch {
            demux_ms: self.demux_ms(mapped_slots),
            tenants,
            member_counts,
            run,
        })
    }

    fn demux_ms(&self, mapped_slots: u64) -> f64 {
        self.cost.union_demux_cycles(mapped_slots) / self.device.clock_hz() * 1e3
    }

    fn advance_inner(
        &mut self,
        db: &EventDb,
        compiled: &CompiledCandidates,
        tenants: u32,
        mapped_slots: u64,
    ) -> Result<KernelRun, SimError> {
        let got = db.content_hash();
        let expected = match &self.resident {
            Some(res) => res.fingerprint,
            None => 0,
        };
        if self.resident.is_none() || expected != got {
            return Err(SimError::StalePlan { expected, got });
        }
        let problem = MiningProblem::from_compiled(db, compiled);
        let mut run = problem.run(
            self.algo,
            self.threads_per_block,
            &self.device,
            &self.cost,
            &self.opts,
        )?;
        if tenants > 1 {
            run.spec.resources = union_resources(&run.spec.resources, tenants);
        }
        run.report = if self.advances == 0 {
            // The persistent kernel's one driver-mediated launch.
            simulate(&self.device, &self.cost, &run.spec)?
        } else {
            simulate_resident(&self.device, &self.cost, &run.spec)?
        };
        self.advances += 1;
        self.simulated_ms += run.report.time_ms + self.demux_ms(mapped_slots);
        Ok(run)
    }
}

/// One K-tenant union advance: the fused kernel run plus the per-member demux.
#[derive(Debug, Clone)]
pub struct UnionLaunch {
    /// The fused launch (counts are the *union*'s counts).
    pub run: KernelRun,
    /// Modeled milliseconds of the host-side demux.
    pub demux_ms: f64,
    /// Union members sharing the launch.
    pub tenants: usize,
    /// `member_counts[s]` = member `s`'s counts, in its own submission order
    /// ([`CandidateUnion::demux`]).
    pub member_counts: Vec<Vec<u64>>,
}

/// What [`GpuDispatchModel::choose_backend_class`] picks per (level,
/// candidate-set size) at serve time: the CPU strategy the engine's cost
/// comparison picks, or handing the level to a resident GPU pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchClass {
    /// CPU, vertical occurrence-list probing (empty sets land here too).
    CpuVertical,
    /// CPU, word-packed Shift-And.
    CpuBitmask,
    /// A resident device pipeline advance ([`GpuPipelineBackend`]).
    GpuPipeline,
}

impl DispatchClass {
    /// True for the CPU classes.
    pub fn is_cpu(self) -> bool {
        !matches!(self, DispatchClass::GpuPipeline)
    }
}

/// The GPU side of the serve-time dispatch model, in the op units of
/// [`CompiledCandidates::strategy_costs`]. Plain numbers by design: a
/// calibration pass (or a test) can supply its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuDispatchModel {
    /// Fixed ops-equivalent of one pipeline advance: the doorbell write,
    /// count-buffer readback, and host demux.
    pub advance_ops: f64,
    /// Device throughput advantage over one CPU core for the scan itself.
    pub speedup: f64,
}

impl Default for GpuDispatchModel {
    fn default() -> Self {
        // ~20k ops ≈ a few microseconds of fixed cost at CPU op rates; 8× is
        // the conservative end of the paper's measured kernel speedups.
        GpuDispatchModel {
            advance_ops: 20_000.0,
            speedup: 8.0,
        }
    }
}

impl GpuDispatchModel {
    /// Serve-time backend dispatch: picks a CPU strategy class or the GPU
    /// pipeline for one level's `compiled` set over the stream `index`
    /// describes, in [`CompiledCandidates::strategy_costs`]'s op units. The
    /// GPU side pays a fixed per-advance cost (`advance_ops`, covering the
    /// doorbell + count readback) and then runs the scan `speedup`× faster
    /// than one CPU core — so small sets (level 1, narrow levels) stay on the
    /// CPU and wide levels go to the device, per the paper's small-problem
    /// characterization.
    ///
    /// The CPU strategy and its cost come from the engine's one comparison
    /// ([`StrategyCosts::cheapest`]), so the CPU class is always
    /// [`CompiledCandidates::choose_strategy`]'s pick. An empty set costs
    /// nothing on the CPU, so no device with `advance_ops >= 0` takes it.
    ///
    /// [`StrategyCosts::cheapest`]: tdm_core::engine::StrategyCosts::cheapest
    pub fn choose_backend_class(
        &self,
        compiled: &CompiledCandidates,
        index: &OccurrenceIndex,
    ) -> DispatchClass {
        let (strategy, cpu_cost) = compiled.strategy_costs(index).cheapest();
        if self.advance_ops + cpu_cost / self.speedup.max(1.0) < cpu_cost {
            return DispatchClass::GpuPipeline;
        }
        match strategy {
            CountStrategy::Vertical => DispatchClass::CpuVertical,
            CountStrategy::Bitmask => DispatchClass::CpuBitmask,
        }
    }
}

/// One serve-time routing decision of [`GpuPipelineBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchDecision {
    /// Episode level of the request.
    pub level: usize,
    /// Candidate-set size.
    pub candidates: usize,
    /// Where the level ran.
    pub class: DispatchClass,
}

/// An [`Executor`] serving counting requests from a persistent
/// [`DevicePipeline`], with per-level CPU-vs-GPU dispatch
/// ([`GpuDispatchModel::choose_backend_class`]): cheap levels are counted on
/// the CPU by [`AutoBackend`] on the session's plan, expensive ones advance the
/// resident pipeline (uploading the stream on first use, re-uploading only
/// when the stream changes). The counts are bit-identical either way.
pub struct GpuPipelineBackend {
    pipeline: DevicePipeline,
    /// The GPU side of the dispatch cost model.
    pub dispatch: GpuDispatchModel,
    /// Route every level to the device regardless of the model (conformance
    /// tests exercise the GPU path on workloads dispatch would keep on CPU).
    pub force_gpu: bool,
    /// Levels that advanced the pipeline.
    pub gpu_levels: u64,
    /// Levels counted on the CPU.
    pub cpu_levels: u64,
    /// Every routing decision, in request order.
    pub decisions: Vec<DispatchDecision>,
}

impl GpuPipelineBackend {
    /// A serving backend over one kernel/card/block-size choice.
    pub fn new(algo: Algorithm, threads_per_block: u32, device: DeviceConfig) -> Self {
        GpuPipelineBackend {
            pipeline: DevicePipeline::new(algo, threads_per_block, device),
            dispatch: GpuDispatchModel::default(),
            force_gpu: false,
            gpu_levels: 0,
            cpu_levels: 0,
            decisions: Vec::new(),
        }
    }

    /// The paper's strongest serving shape: Algorithm 3 (block-level,
    /// texture) at 512 threads per block.
    pub fn with_defaults(device: DeviceConfig) -> Self {
        Self::new(Algorithm::BlockTexture, 512, device)
    }

    /// Forces every level onto the device (builder style).
    pub fn force_gpu(mut self) -> Self {
        self.force_gpu = true;
        self
    }

    /// The underlying pipeline (residency, advance count, simulated time).
    pub fn pipeline(&self) -> &DevicePipeline {
        &self.pipeline
    }

    /// Accumulated simulated device milliseconds.
    pub fn simulated_ms(&self) -> f64 {
        self.pipeline.simulated_ms
    }
}

impl Executor for GpuPipelineBackend {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        let compiled = req.compiled();
        let class = if self.force_gpu {
            DispatchClass::GpuPipeline
        } else {
            self.dispatch
                .choose_backend_class(compiled, req.occurrence_index())
        };
        self.decisions.push(DispatchDecision {
            level: req.level(),
            candidates: compiled.len(),
            class,
        });
        match class {
            DispatchClass::GpuPipeline => {
                self.pipeline.upload(req.db());
                let run = self
                    .pipeline
                    .advance(req.db(), compiled)
                    .map_err(|e| BackendError::Launch(e.to_string()))?;
                self.gpu_levels += 1;
                Ok(run.counts)
            }
            // The CPU classes are exactly choose_strategy's picks, so the
            // session's cost-dispatched executor runs them on the request.
            _ => {
                self.cpu_levels += 1;
                AutoBackend.execute(req)
            }
        }
    }

    fn name(&self) -> &str {
        "gpu-pipeline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_core::candidate::permutations;
    use tdm_core::{Alphabet, Miner, MinerConfig, SequentialBackend};

    fn db(len: u32) -> EventDb {
        let symbols: Vec<u8> = (0..len)
            .map(|i| ((i.wrapping_mul(2654435761) >> 9) % 26) as u8)
            .collect();
        EventDb::new(Alphabet::latin26(), symbols).unwrap()
    }

    fn gtx() -> DeviceConfig {
        DeviceConfig::geforce_gtx_280()
    }

    #[test]
    fn upload_is_idempotent_and_evicts_on_stream_change() {
        let a = db(8000);
        let b = db(9000);
        let mut p = DevicePipeline::new(Algorithm::BlockTexture, 64, gtx());
        let first = p.upload(&a);
        assert!(first > 0.0);
        assert_eq!(p.upload(&a), 0.0);
        assert_eq!(p.resident().unwrap().bytes, 8000);
        // A different stream pays the copy again and resets the plan.
        assert!(p.upload(&b) > 0.0);
        assert_eq!(p.resident().unwrap().bytes, 9000);
        assert_eq!(p.advances(), 0);
    }

    #[test]
    fn stale_plan_is_a_typed_error() {
        let a = db(8000);
        let b = db(9000);
        let episodes = permutations(a.alphabet(), 1);
        let compiled = CompiledCandidates::compile(26, &episodes);
        let mut p = DevicePipeline::new(Algorithm::BlockTexture, 64, gtx());
        // Nothing uploaded yet.
        assert!(matches!(
            p.advance(&a, &compiled),
            Err(SimError::StalePlan { expected: 0, .. })
        ));
        p.upload(&a);
        // A foreign stream must not be scanned against a's resident buffers.
        let err = p.advance(&b, &compiled).unwrap_err();
        assert!(matches!(err, SimError::StalePlan { .. }));
        if let SimError::StalePlan { expected, got } = err {
            assert_eq!(expected, a.content_hash());
            assert_eq!(got, b.content_hash());
            assert_ne!(expected, got);
        }
        // The resident stream still advances fine.
        assert!(p.advance(&a, &compiled).is_ok());
    }

    #[test]
    fn fused_advances_amortize_the_launch() {
        let d = db(20_000);
        let levels: Vec<_> = (1..=3).map(|l| permutations(d.alphabet(), l)).collect();
        let compiled: Vec<_> = levels
            .iter()
            .map(|eps| CompiledCandidates::compile(26, eps))
            .collect();

        // Fused: upload once, advance per level.
        let mut p = DevicePipeline::new(Algorithm::BlockTexture, 512, gtx());
        p.upload(&d);
        let mut fused_ms = p.resident().unwrap().upload_ms;
        for c in &compiled {
            fused_ms += p.advance(&d, c).unwrap().report.time_ms;
        }

        // Per-level: a fresh problem + driver launch + upload every level.
        let mut per_level_ms = 0.0;
        for c in &compiled {
            let problem = MiningProblem::from_compiled(&d, c);
            let run = problem
                .run(
                    Algorithm::BlockTexture,
                    512,
                    &gtx(),
                    &CostModel::default(),
                    &SimOptions::default(),
                )
                .unwrap();
            per_level_ms += run.report.time_ms + CostModel::default().h2d_copy_ms(20_000);
        }

        assert!(
            per_level_ms > fused_ms,
            "per-level {per_level_ms} vs fused {fused_ms}"
        );
        // Counts stay ground truth regardless of residency.
        let again = p.advance(&d, &compiled[1]).unwrap();
        assert_eq!(again.counts, compiled[1].count_best(d.symbols()));
    }

    #[test]
    fn union_advance_demuxes_like_the_cpu_path() {
        let d = db(12_000);
        let all = permutations(d.alphabet(), 2);
        // Three overlapping members.
        let members: Vec<Vec<tdm_core::Episode>> = vec![
            all[0..200].to_vec(),
            all[100..300].to_vec(),
            all[50..250].to_vec(),
        ];
        let sources: Vec<&[tdm_core::Episode]> = members.iter().map(|m| m.as_slice()).collect();
        let union = CandidateUnion::build(&sources);
        let compiled = CompiledCandidates::compile(26, union.episodes());

        let mut p = DevicePipeline::new(Algorithm::BlockTexture, 512, gtx());
        p.upload(&d);
        let launch = p.advance_union(&d, &compiled, &union).unwrap();
        assert_eq!(launch.tenants, 3);
        assert!(launch.demux_ms > 0.0);
        // Bit-identical to each member counted solo.
        for (s, member) in members.iter().enumerate() {
            let solo = CompiledCandidates::compile(26, member);
            assert_eq!(
                launch.member_counts[s],
                solo.count_best(d.symbols()),
                "member {s} diverged"
            );
        }
        // Routing tables widened the block's shared memory.
        let solo_res = MiningProblem::from_compiled(&d, &compiled)
            .run(
                Algorithm::BlockTexture,
                512,
                &gtx(),
                &CostModel::default(),
                &SimOptions::default(),
            )
            .unwrap()
            .spec
            .resources;
        assert!(launch.run.spec.resources.shared_mem_per_block > solo_res.shared_mem_per_block);
    }

    #[test]
    fn backend_dispatches_small_levels_to_cpu_and_wide_ones_to_gpu() {
        let d = db(20_000);
        let config = MinerConfig {
            alpha: 0.0005,
            max_level: Some(3),
            ..Default::default()
        };
        let mut backend = GpuPipelineBackend::with_defaults(gtx());
        let via_pipeline = Miner::new(config).mine(&d, &mut backend).unwrap();
        let serial = Miner::new(config)
            .mine(&d, &mut SequentialBackend::default())
            .unwrap();
        assert_eq!(via_pipeline, serial);
        // Level 1 (26 candidates) reads the per-symbol counts and level 2
        // (650) the pair table, both on the CPU; the wider level 3 goes to
        // the device.
        let route: Vec<_> = backend
            .decisions
            .iter()
            .map(|d| (d.level, d.class))
            .collect();
        assert_eq!(
            route,
            [
                (1, DispatchClass::CpuVertical),
                (2, DispatchClass::CpuVertical),
                (3, DispatchClass::GpuPipeline),
            ]
        );
        assert_eq!(backend.decisions[1].candidates, 650);
        assert_eq!((backend.cpu_levels, backend.gpu_levels), (2, 1));
        assert!(backend.simulated_ms() > 0.0);
    }

    #[test]
    fn backend_class_table_is_consistent_with_strategy_costs() {
        use tdm_core::Episode;

        let ab = Alphabet::latin26();
        let stream: Vec<u8> = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
            .repeat(30)
            .bytes()
            .map(|c| c - b'A')
            .collect();
        let index = OccurrenceIndex::build(ab.len(), &stream);
        let free_gpu = GpuDispatchModel {
            advance_ops: 0.0,
            speedup: 1e9,
        };
        let dead_gpu = GpuDispatchModel {
            advance_ops: f64::INFINITY,
            speedup: 8.0,
        };

        // A free, infinitely fast device takes a non-empty level; one with a
        // prohibitive advance cost leaves it to the CPU strategy the engine
        // picks (the word-packed scan for the dense level-3 universe).
        let l3 = CompiledCandidates::compile(ab.len(), &permutations(&ab, 3));
        assert_eq!(
            free_gpu.choose_backend_class(&l3, &index),
            DispatchClass::GpuPipeline
        );
        assert_eq!(
            dead_gpu.choose_backend_class(&l3, &index),
            DispatchClass::CpuBitmask
        );

        // An empty set costs nothing on the CPU, so not even a free device
        // takes it.
        let empty = CompiledCandidates::compile(ab.len(), &[]);
        assert_eq!(
            free_gpu.choose_backend_class(&empty, &index),
            DispatchClass::CpuVertical
        );

        // No 64-bit lane holds an 80-item episode: its bitmask costs
        // infinity, so its CPU class is vertical.
        let long = vec![Episode::new([0, 1].repeat(40)).unwrap()];
        let long_compiled = CompiledCandidates::compile(ab.len(), &long);
        assert_eq!(
            dead_gpu.choose_backend_class(&long_compiled, &index),
            DispatchClass::CpuVertical
        );
    }
}
