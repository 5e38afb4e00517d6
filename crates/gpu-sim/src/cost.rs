//! Calibration constants of the timing model.
//!
//! These are the only tunable numbers in the simulator. They are set once, from
//! public CUDA-1.x micro-architecture lore (texture pipeline latency in the low
//! hundreds of cycles, global latency 400–600 cycles, shared memory a few tens,
//! 4-cycle warp issue), and the same values are used for every card — per-card
//! differences come exclusively from [`crate::DeviceConfig`] (clock, SM count,
//! bandwidth, occupancy ceilings), which is the paper's own premise.
//!
//! The boolean switches exist for the ablation benches (DESIGN.md §8): turning a
//! mechanism off shows which characterization it carries.

use serde::{Deserialize, Serialize};

/// Timing-model constants shared by all simulated cards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cycles for one warp instruction to issue on an SM (8 cores × 4 cycles = 32
    /// lanes; paper §2.1.1: "a single instruction is completed by the entire warp
    /// in 4 cycles").
    pub issue_cycles: f64,
    /// Texture fetch latency on a cache hit (the texture pipeline is long even
    /// when it hits — this is what makes single-warp texture scans slow).
    pub tex_hit_latency: f64,
    /// Texture fetch latency on a cache miss (device memory).
    pub tex_miss_latency: f64,
    /// Texture cache line size in bytes.
    pub tex_line_bytes: u32,
    /// Shared-memory access latency (per access, before conflict replays).
    pub smem_latency: f64,
    /// Global (device) memory latency for non-texture accesses.
    pub gmem_latency: f64,
    /// Bytes per coalesced global transaction (cc 1.x half-warp segment).
    pub gmem_transaction_bytes: u32,
    /// Fixed kernel launch + driver overhead, in microseconds.
    pub launch_overhead_us: f64,
    /// Overhead of advancing a *resident* device pipeline to its next stage, in
    /// microseconds. A persistent-kernel pipeline (Everest-style serving) keeps
    /// the stream and candidate buffers on the device and replaces the
    /// driver-mediated launch with a doorbell write + pointer swap; this is the
    /// cost [`crate::simulate_resident`] charges instead of
    /// [`launch_overhead_us`](Self::launch_overhead_us).
    pub advance_overhead_us: f64,
    /// Host→device copy bandwidth in GB/s (PCIe 1.x/2.0-era pinned-memory
    /// transfer), used to model the one-time stream upload of a resident
    /// pipeline.
    pub h2d_bandwidth_gbs: f64,
    /// Cycles for a `__syncthreads()` barrier to drain and release the block.
    pub barrier_cycles: f64,
    /// Number of shared-memory banks (16 on cc 1.x; conflicts resolved per
    /// half-warp).
    pub smem_banks: u32,
    /// Model the texture cache (off = all texture accesses hit; ablation).
    pub model_texture_cache: bool,
    /// Serialize divergent warp paths (off = charge the longest single path;
    /// ablation).
    pub model_divergence: bool,
    /// Let co-resident warps hide memory latency (off = every block's critical
    /// path serializes; ablation).
    pub model_latency_hiding: bool,
    /// Model shared-memory bank conflicts (off = all accesses conflict-free;
    /// ablation).
    pub model_bank_conflicts: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            issue_cycles: 4.0,
            tex_hit_latency: 380.0,
            tex_miss_latency: 600.0,
            tex_line_bytes: 32,
            smem_latency: 36.0,
            gmem_latency: 550.0,
            gmem_transaction_bytes: 64,
            launch_overhead_us: 15.0,
            advance_overhead_us: 1.0,
            h2d_bandwidth_gbs: 3.0,
            barrier_cycles: 120.0,
            smem_banks: 16,
            model_texture_cache: true,
            model_divergence: true,
            model_latency_hiding: true,
            model_bank_conflicts: true,
        }
    }
}

impl CostModel {
    /// The default model with the texture cache disabled (ablation).
    pub fn without_texture_cache() -> Self {
        CostModel {
            model_texture_cache: false,
            ..Default::default()
        }
    }

    /// The default model with divergence serialization disabled (ablation).
    pub fn without_divergence() -> Self {
        CostModel {
            model_divergence: false,
            ..Default::default()
        }
    }

    /// The default model with latency hiding disabled (ablation).
    pub fn without_latency_hiding() -> Self {
        CostModel {
            model_latency_hiding: false,
            ..Default::default()
        }
    }

    /// The default model with bank-conflict modelling disabled (ablation).
    pub fn without_bank_conflicts() -> Self {
        CostModel {
            model_bank_conflicts: false,
            ..Default::default()
        }
    }

    /// Milliseconds to copy `bytes` host→device at
    /// [`h2d_bandwidth_gbs`](Self::h2d_bandwidth_gbs) (plus one launch-sized
    /// driver round trip to enqueue the copy).
    pub fn h2d_copy_ms(&self, bytes: u64) -> f64 {
        let transfer_s = bytes as f64 / (self.h2d_bandwidth_gbs * 1e9);
        transfer_s * 1e3 + self.launch_overhead_us * 1e-3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = CostModel::default();
        assert_eq!(c.issue_cycles, 4.0);
        assert!(c.tex_hit_latency < c.tex_miss_latency);
        assert!(c.smem_latency < c.tex_hit_latency);
        assert!(c.model_texture_cache && c.model_divergence && c.model_latency_hiding);
    }

    #[test]
    fn ablation_constructors_flip_one_switch() {
        assert!(!CostModel::without_texture_cache().model_texture_cache);
        assert!(!CostModel::without_divergence().model_divergence);
        assert!(!CostModel::without_latency_hiding().model_latency_hiding);
        assert!(!CostModel::without_bank_conflicts().model_bank_conflicts);
        // Each leaves the others on.
        let c = CostModel::without_texture_cache();
        assert!(c.model_divergence && c.model_latency_hiding && c.model_bank_conflicts);
    }

    #[test]
    fn resident_advance_is_cheaper_than_a_launch() {
        let c = CostModel::default();
        assert!(c.advance_overhead_us < c.launch_overhead_us);
    }

    #[test]
    fn h2d_copy_includes_enqueue_overhead() {
        let c = CostModel::default();
        // Zero bytes still pays the driver round trip.
        assert!(c.h2d_copy_ms(0) > 0.0);
        // 3 GB at 3 GB/s ≈ 1 s.
        let ms = c.h2d_copy_ms(3_000_000_000);
        assert!((ms - 1000.0).abs() / 1000.0 < 0.01, "{ms}");
    }
}
