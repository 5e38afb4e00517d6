//! The occupancy calculator.
//!
//! How many blocks of a kernel can be resident on one SM at once, given the
//! device's ceilings (paper Table 2) and the kernel's per-thread registers and
//! per-block shared memory. This is the quantity the paper repeatedly reasons
//! with (§5.2.3: "Algorithms 3 and 4 are limited to 240 episodes being searched
//! due to the limitation of 8 active blocks on each of the 30 multiprocessors"),
//! and whose insufficiency for predicting *performance* §6 calls out — our engine
//! uses occupancy only as the residency input to the timing model.

use crate::config::DeviceConfig;
use serde::{Deserialize, Serialize};

/// Per-kernel resource usage that occupancy depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelResources {
    /// Threads per block of the launch.
    pub threads_per_block: u32,
    /// Registers per thread (cc 1.x allocates them per block at warp granularity).
    pub registers_per_thread: u32,
    /// Shared memory per block, in bytes (buffers + reduction scratch).
    pub shared_mem_per_block: u32,
}

impl KernelResources {
    /// A typical light kernel: `regs` defaults to 16, no shared memory.
    pub fn new(threads_per_block: u32) -> Self {
        KernelResources {
            threads_per_block,
            registers_per_thread: 16,
            shared_mem_per_block: 0,
        }
    }

    /// Sets the per-block shared memory.
    pub fn with_shared_mem(mut self, bytes: u32) -> Self {
        self.shared_mem_per_block = bytes;
        self
    }

    /// Sets the per-thread register count.
    pub fn with_registers(mut self, regs: u32) -> Self {
        self.registers_per_thread = regs;
        self
    }

    /// Warps per block (threads rounded up to warp granularity).
    pub fn warps_per_block(&self, warp_size: u32) -> u32 {
        self.threads_per_block.div_ceil(warp_size)
    }
}

/// Which ceiling capped the number of resident blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OccupancyLimiter {
    /// The 8-blocks-per-SM hardware cap.
    Blocks,
    /// The resident-thread ceiling (768 / 1024).
    Threads,
    /// The resident-warp ceiling (24 / 32).
    Warps,
    /// The register file.
    Registers,
    /// Shared memory.
    SharedMem,
}

/// Result of the occupancy computation for one SM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Occupancy {
    /// Blocks co-resident on one SM.
    pub active_blocks: u32,
    /// Warps co-resident on one SM.
    pub active_warps: u32,
    /// Threads co-resident on one SM.
    pub active_threads: u32,
    /// The binding constraint.
    pub limiter: OccupancyLimiter,
    /// `active_warps / max_warps_per_sm` — what the CUDA Occupancy Calculator
    /// reports (paper §6 discusses why this alone cannot identify optimal
    /// performance).
    pub occupancy_fraction: f64,
}

/// Computes the occupancy of a kernel on a device.
///
/// Returns `None` when even a single block does not fit (shared memory or
/// registers exceed the SM, or the block is larger than the device allows).
pub fn occupancy(dev: &DeviceConfig, res: &KernelResources) -> Option<Occupancy> {
    if res.threads_per_block == 0 || res.threads_per_block > dev.max_threads_per_block {
        return None;
    }
    let warps_per_block = res.warps_per_block(dev.warp_size);

    // Register allocation on cc 1.x is per block, at warp granularity: threads
    // rounded to whole warps, times registers per thread.
    let regs_per_block = warps_per_block * dev.warp_size * res.registers_per_thread;

    let mut limits: Vec<(u32, OccupancyLimiter)> = vec![
        (dev.max_blocks_per_sm, OccupancyLimiter::Blocks),
        (
            dev.max_threads_per_sm / res.threads_per_block,
            OccupancyLimiter::Threads,
        ),
        (
            dev.max_warps_per_sm / warps_per_block,
            OccupancyLimiter::Warps,
        ),
    ];
    if let Some(by_regs) = dev.registers_per_sm.checked_div(regs_per_block) {
        limits.push((by_regs, OccupancyLimiter::Registers));
    }
    if let Some(by_smem) = dev.shared_mem_per_sm.checked_div(res.shared_mem_per_block) {
        limits.push((by_smem, OccupancyLimiter::SharedMem));
    }

    // min by blocks; ties resolved in the listed priority order.
    let (active_blocks, limiter) = limits
        .into_iter()
        .min_by_key(|&(blocks, _)| blocks)
        .expect("limits never empty");
    if active_blocks == 0 {
        return None;
    }
    let active_warps = active_blocks * warps_per_block;
    Some(Occupancy {
        active_blocks,
        active_warps,
        active_threads: active_blocks * res.threads_per_block,
        limiter,
        occupancy_fraction: active_warps as f64 / dev.max_warps_per_sm as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gtx() -> DeviceConfig {
        DeviceConfig::geforce_gtx_280()
    }

    fn gts() -> DeviceConfig {
        DeviceConfig::geforce_8800_gts_512()
    }

    #[test]
    fn small_blocks_hit_the_block_cap() {
        // 16-thread blocks: 8 blocks resident (128 threads), limited by Blocks.
        let occ = occupancy(&gtx(), &KernelResources::new(16)).unwrap();
        assert_eq!(occ.active_blocks, 8);
        assert_eq!(occ.active_warps, 8); // 16 threads round up to 1 warp
        assert_eq!(occ.limiter, OccupancyLimiter::Blocks);
    }

    #[test]
    fn paper_512_thread_case_on_cc11() {
        // Paper §4.2.1: "two blocks of 512 threads can not be active
        // simultaneously on the same multiprocessor" (768-thread ceiling).
        let occ = occupancy(&gts(), &KernelResources::new(512).with_registers(8)).unwrap();
        assert_eq!(occ.active_blocks, 1);
        assert_eq!(occ.limiter, OccupancyLimiter::Threads);
    }

    #[test]
    fn gtx280_fits_two_512_blocks() {
        // 1024-thread ceiling on cc 1.3 admits 2 blocks of 512 = 32 warps.
        let occ = occupancy(&gtx(), &KernelResources::new(512).with_registers(8)).unwrap();
        assert_eq!(occ.active_blocks, 2);
        assert_eq!(occ.active_warps, 32);
        assert_eq!(occ.occupancy_fraction, 1.0);
    }

    #[test]
    fn register_pressure_limits() {
        // 256 threads × 32 regs = 8192 regs/block: exactly 1 on G92, 2 on GT200.
        let res = KernelResources::new(256).with_registers(32);
        assert_eq!(occupancy(&gts(), &res).unwrap().active_blocks, 1);
        assert_eq!(
            occupancy(&gts(), &res).unwrap().limiter,
            OccupancyLimiter::Registers
        );
        assert_eq!(occupancy(&gtx(), &res).unwrap().active_blocks, 2);
    }

    #[test]
    fn shared_memory_limits() {
        // 4 KB per block: 4 blocks per 16 KB SM, if other limits allow.
        let res = KernelResources::new(64)
            .with_registers(10)
            .with_shared_mem(4 * 1024);
        let occ = occupancy(&gtx(), &res).unwrap();
        assert_eq!(occ.active_blocks, 4);
        assert_eq!(occ.limiter, OccupancyLimiter::SharedMem);
    }

    #[test]
    fn impossible_kernels_rejected() {
        // Block bigger than the device maximum.
        assert!(occupancy(&gtx(), &KernelResources::new(1024)).is_none());
        // Shared memory larger than the SM.
        assert!(occupancy(&gtx(), &KernelResources::new(64).with_shared_mem(20 * 1024)).is_none());
        // Zero threads.
        assert!(occupancy(&gtx(), &KernelResources::new(0)).is_none());
    }

    #[test]
    fn warp_rounding() {
        // 33 threads occupy 2 warps.
        let res = KernelResources::new(33);
        assert_eq!(res.warps_per_block(32), 2);
        let occ = occupancy(&gtx(), &res).unwrap();
        assert_eq!(occ.active_warps, occ.active_blocks * 2);
    }

    #[test]
    fn occupancy_fraction_is_warp_based() {
        // 8 blocks × 3 warps = 24 of 32 warps on GTX 280 -> 75%.
        let occ = occupancy(&gtx(), &KernelResources::new(96)).unwrap();
        assert_eq!(occ.active_blocks, 8);
        assert_eq!(occ.active_warps, 24);
        assert!((occ.occupancy_fraction - 0.75).abs() < 1e-9);
    }
}
