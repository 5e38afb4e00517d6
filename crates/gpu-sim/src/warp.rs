//! SIMT warp-lockstep execution with divergence accounting.
//!
//! A warp executes one instruction for all 32 lanes at a time. When lanes branch
//! differently, the hardware serializes: every taken path is executed with the
//! other lanes masked off (paper §2.1.1). For the timing model this means the
//! issue cost of one "logical step" is the **union of the instruction counts of
//! the distinct paths the lanes took**, plus the common (non-divergent) overhead.
//!
//! Kernels drive this module by reporting, per logical step, which path each lane
//! took ([`PathTaken`]); the [`LockstepRecorder`] accumulates issue-instruction
//! totals under the chosen divergence model. The numbers come from *real*
//! execution over real data, so divergence costs are measured, not guessed.

/// One lane's branch outcome on one logical step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathTaken {
    /// Small path identifier (< 64); lanes reporting the same id are assumed to
    /// execute the same instruction sequence this step.
    pub id: u8,
    /// Instructions on that path.
    pub instructions: u32,
}

/// Accumulates warp-issue work across lockstep steps.
#[derive(Debug, Clone)]
pub struct LockstepRecorder {
    steps: u64,
    issue_instructions: u64,
    divergent_steps: u64,
    path_histogram: [u64; 64],
}

impl Default for LockstepRecorder {
    fn default() -> Self {
        LockstepRecorder {
            steps: 0,
            issue_instructions: 0,
            divergent_steps: 0,
            path_histogram: [0; 64],
        }
    }
}

impl LockstepRecorder {
    /// New, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one logical step of a warp.
    ///
    /// * `paths`: the branch outcome of every **active** lane (≤ warp size);
    /// * `common_overhead`: instructions all lanes share this step (loop
    ///   bookkeeping, address arithmetic) regardless of divergence;
    /// * `serialize_divergence`: the real SIMT rule (sum distinct paths). When
    ///   false (ablation), only the most expensive taken path is charged.
    pub fn record_step(
        &mut self,
        paths: &[PathTaken],
        common_overhead: u32,
        serialize_divergence: bool,
    ) {
        self.steps += 1;
        let mut seen: u64 = 0;
        let mut serial_cost: u64 = 0;
        let mut max_cost: u64 = 0;
        let mut distinct = 0u32;
        for p in paths {
            debug_assert!(p.id < 64, "path ids must be < 64");
            let bit = 1u64 << p.id;
            if seen & bit == 0 {
                seen |= bit;
                distinct += 1;
                serial_cost += p.instructions as u64;
                max_cost = max_cost.max(p.instructions as u64);
                self.path_histogram[p.id as usize] += 1;
            }
        }
        if distinct > 1 {
            self.divergent_steps += 1;
        }
        let body = if serialize_divergence {
            serial_cost
        } else {
            max_cost
        };
        self.issue_instructions += common_overhead as u64 + body;
    }

    /// Logical steps recorded.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Total warp-issue instructions (divergence-adjusted).
    pub fn issue_instructions(&self) -> u64 {
        self.issue_instructions
    }

    /// Steps on which at least two distinct paths were taken.
    pub fn divergent_steps(&self) -> u64 {
        self.divergent_steps
    }

    /// Mean issue instructions per step (0 when empty).
    pub fn mean_instructions_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.issue_instructions as f64 / self.steps as f64
        }
    }

    /// How often each path id was present among the distinct paths of a step.
    pub fn path_histogram(&self) -> &[u64; 64] {
        &self.path_histogram
    }

    /// Merges another recorder (e.g. per-warp recorders combined per block).
    pub fn merge(&mut self, other: &LockstepRecorder) {
        self.steps += other.steps;
        self.issue_instructions += other.issue_instructions;
        self.divergent_steps += other.divergent_steps;
        for (a, b) in self
            .path_histogram
            .iter_mut()
            .zip(other.path_histogram.iter())
        {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_warp_charges_one_path() {
        let mut rec = LockstepRecorder::new();
        let paths: Vec<PathTaken> = (0..32)
            .map(|_| PathTaken {
                id: 0,
                instructions: 5,
            })
            .collect();
        rec.record_step(&paths, 2, true);
        assert_eq!(rec.issue_instructions(), 7);
        assert_eq!(rec.divergent_steps(), 0);
    }

    #[test]
    fn divergent_warp_serializes_distinct_paths() {
        let mut rec = LockstepRecorder::new();
        let mut paths = vec![
            PathTaken {
                id: 0,
                instructions: 2
            };
            30
        ];
        paths.push(PathTaken {
            id: 1,
            instructions: 4,
        });
        paths.push(PathTaken {
            id: 2,
            instructions: 6,
        });
        rec.record_step(&paths, 2, true);
        // 2 common + 2 + 4 + 6 = 14
        assert_eq!(rec.issue_instructions(), 14);
        assert_eq!(rec.divergent_steps(), 1);
    }

    #[test]
    fn ablation_charges_max_path_only() {
        let mut rec = LockstepRecorder::new();
        let paths = [
            PathTaken {
                id: 0,
                instructions: 2,
            },
            PathTaken {
                id: 1,
                instructions: 6,
            },
        ];
        rec.record_step(&paths, 1, false);
        assert_eq!(rec.issue_instructions(), 7); // 1 + max(2,6)
    }

    #[test]
    fn duplicate_path_ids_counted_once() {
        let mut rec = LockstepRecorder::new();
        let paths = vec![
            PathTaken {
                id: 3,
                instructions: 5
            };
            32
        ];
        rec.record_step(&paths, 0, true);
        assert_eq!(rec.issue_instructions(), 5);
        assert_eq!(rec.path_histogram()[3], 1);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = LockstepRecorder::new();
        let mut b = LockstepRecorder::new();
        let p = [PathTaken {
            id: 1,
            instructions: 3,
        }];
        a.record_step(&p, 1, true);
        b.record_step(&p, 1, true);
        b.record_step(&p, 1, true);
        a.merge(&b);
        assert_eq!(a.steps(), 3);
        assert_eq!(a.issue_instructions(), 12);
        assert_eq!(a.path_histogram()[1], 3);
    }

    #[test]
    fn mean_and_extrapolation() {
        let mut rec = LockstepRecorder::new();
        let p = [PathTaken {
            id: 0,
            instructions: 4,
        }];
        rec.record_step(&p, 0, true);
        rec.record_step(&p, 0, true);
        assert_eq!(rec.mean_instructions_per_step(), 4.0);
    }

    #[test]
    fn empty_recorder_is_zeroed() {
        let rec = LockstepRecorder::new();
        assert_eq!(rec.steps(), 0);
        assert_eq!(rec.mean_instructions_per_step(), 0.0);
    }
}
