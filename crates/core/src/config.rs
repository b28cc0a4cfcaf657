//! Processor configuration.

use mcl_bpred::PredictorConfig;
use mcl_isa::{assign::RegisterAssignment, IssueRules, Latencies};
use mcl_mem::CacheConfig;

use crate::check::{self, CheckLevel, FaultInjection};

/// Complete configuration of a simulated processor (single-cluster or
/// multicluster).
///
/// The two headline presets reproduce Section 4.1 of the paper:
///
/// - [`ProcessorConfig::single_cluster_8way`] — one cluster, 8-way issue,
///   128-entry dispatch queue, 128 + 128 physical registers;
/// - [`ProcessorConfig::dual_cluster_8way`] — two clusters, 4-way issue
///   each, 64-entry dispatch queues, 64 + 64 physical registers and
///   8-entry operand/result transfer buffers per cluster.
///
/// Both fetch up to 12 instructions per cycle, retire up to 8 per cycle,
/// share 64 KB two-way instruction and data caches with a 16-cycle
/// memory interface, and use the McFarling combining branch predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorConfig {
    /// Number of clusters (1 or 2).
    pub clusters: u8,
    /// Instructions fetched (and at most dispatched) per cycle.
    pub fetch_width: u32,
    /// Instructions retired per cycle, processor-wide.
    pub retire_width: u32,
    /// Dispatch-queue entries per cluster.
    pub dq_entries: u32,
    /// Physical integer registers per cluster.
    pub int_regs: u32,
    /// Physical floating-point registers per cluster.
    pub fp_regs: u32,
    /// Operand transfer buffer entries per cluster.
    pub operand_buffer: u32,
    /// Result transfer buffer entries per cluster.
    pub result_buffer: u32,
    /// Unpipelined floating-point divider units per cluster. The
    /// single-cluster machine carries the same total as the dual-cluster
    /// machine (two), keeping the comparison resource-equal, as the
    /// paper's "same number of resources" methodology requires.
    pub fp_dividers: u32,
    /// Per-cluster issue rules (Table 1).
    pub issue_rules: IssueRules,
    /// Functional-unit latencies (Table 1).
    pub latencies: Latencies,
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// Data cache geometry.
    pub dcache: CacheConfig,
    /// Branch predictor.
    pub predictor: PredictorConfig,
    /// Whether a taken branch ends the cycle's fetch group.
    pub fetch_stops_at_taken: bool,
    /// Extra cycles charged to restart dispatch after an
    /// instruction-replay exception.
    pub replay_penalty: u64,
    /// Hard cap on simulated cycles (guards against simulator bugs).
    pub max_cycles: u64,
    /// Record a detailed event log (used for the Figure 2–5 timelines).
    pub record_events: bool,
    /// Dynamic architectural-register reassignment points (the Section 6
    /// "hardware mechanism ... to permit the dynamic reassignment of the
    /// architectural registers"). When dispatch first reaches a trigger
    /// PC, the machine drains its pipeline, pays
    /// [`ProcessorConfig::reassignment_penalty`] cycles to move register
    /// values between clusters, and continues under the new assignment.
    /// Each point triggers once, in trace order.
    pub reassignments: Vec<ReassignmentPoint>,
    /// Cycles charged for moving architectural state at a reassignment
    /// point (after the pipeline drain).
    pub reassignment_penalty: u64,
    /// How much architectural-invariant validation to perform while
    /// simulating (see [`crate::check`]). The presets default to the
    /// process-wide level set via [`check::set_global_level`] (normally
    /// [`CheckLevel::Off`]).
    pub check_level: CheckLevel,
    /// Consecutive zero-progress cycles (with nothing scheduled and no
    /// attributable transfer-buffer deadlock) tolerated before the
    /// simulator gives up with [`SimError::Wedged`](crate::SimError).
    pub wedge_threshold: u32,
    /// Deliberate resource-accounting faults to inject, for validating
    /// that the invariant checker catches real corruption (used by
    /// `repro selftest`; empty in normal runs).
    pub faults: Vec<FaultInjection>,
}

/// One compiler-directed reassignment of the architectural registers
/// (Section 6: "the compiler could provide the hardware with hints to
/// indicate when the reassignment could be made, and to directly specify
/// the architectural-register-to-cluster assignment").
#[derive(Debug, Clone, PartialEq)]
pub struct ReassignmentPoint {
    /// The instruction address whose first dispatch triggers the switch.
    pub trigger_pc: u64,
    /// The assignment to switch to.
    pub assignment: RegisterAssignment,
}

impl ProcessorConfig {
    /// The paper's single-cluster, eight-way issue processor
    /// (Section 4.1).
    #[must_use]
    pub fn single_cluster_8way() -> ProcessorConfig {
        ProcessorConfig {
            clusters: 1,
            fetch_width: 12,
            retire_width: 8,
            dq_entries: 128,
            int_regs: 128,
            fp_regs: 128,
            operand_buffer: 0,
            result_buffer: 0,
            fp_dividers: 2,
            issue_rules: IssueRules::single_cluster_8way(),
            latencies: Latencies::table1(),
            icache: CacheConfig::paper_l1(),
            dcache: CacheConfig::paper_l1(),
            predictor: PredictorConfig::paper_default(),
            fetch_stops_at_taken: true,
            replay_penalty: 5,
            max_cycles: 2_000_000_000,
            record_events: false,
            reassignments: Vec::new(),
            reassignment_penalty: 32,
            check_level: check::global_level(),
            wedge_threshold: 1000,
            faults: Vec::new(),
        }
    }

    /// The paper's dual-cluster processor: the same total resources as
    /// [`ProcessorConfig::single_cluster_8way`], partitioned in half
    /// across two clusters, plus 8-entry operand and result transfer
    /// buffers per cluster (Section 4.1).
    #[must_use]
    pub fn dual_cluster_8way() -> ProcessorConfig {
        ProcessorConfig {
            clusters: 2,
            dq_entries: 64,
            int_regs: 64,
            fp_regs: 64,
            operand_buffer: 8,
            result_buffer: 8,
            fp_dividers: 1,
            issue_rules: IssueRules::dual_cluster_4way(),
            ..ProcessorConfig::single_cluster_8way()
        }
    }

    /// The four-way single-cluster processor (the paper's evaluation
    /// "was done for both four-way and eight-way issue processors").
    #[must_use]
    pub fn single_cluster_4way() -> ProcessorConfig {
        ProcessorConfig {
            dq_entries: 64,
            int_regs: 64,
            fp_regs: 64,
            // Two dividers, matching the dual 2x2-way machine's total.
            fp_dividers: 2,
            issue_rules: IssueRules::single_cluster_4way(),
            ..ProcessorConfig::single_cluster_8way()
        }
    }

    /// The dual-cluster counterpart of the four-way processor: two
    /// two-way clusters.
    #[must_use]
    pub fn dual_cluster_4way() -> ProcessorConfig {
        ProcessorConfig {
            clusters: 2,
            dq_entries: 32,
            int_regs: 32,
            fp_regs: 32,
            operand_buffer: 8,
            result_buffer: 8,
            fp_dividers: 1,
            issue_rules: IssueRules::dual_cluster_2way(),
            ..ProcessorConfig::single_cluster_8way()
        }
    }

    /// The architectural-register-to-cluster assignment implied by this
    /// configuration: everything local for one cluster; the paper's
    /// even/odd assignment with SP/GP global for two.
    #[must_use]
    pub fn register_assignment(&self) -> RegisterAssignment {
        if self.clusters <= 1 {
            RegisterAssignment::single_cluster()
        } else {
            RegisterAssignment::even_odd_with_default_globals(self.clusters)
        }
    }

    /// Returns the configuration with event recording enabled (for
    /// timeline reconstruction, Figures 2–5).
    #[must_use]
    pub fn with_events(mut self) -> ProcessorConfig {
        self.record_events = true;
        self
    }

    /// Returns the configuration with the given invariant-checking
    /// level.
    #[must_use]
    pub fn with_check_level(mut self, level: CheckLevel) -> ProcessorConfig {
        self.check_level = level;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is unusable (zero clusters, more than
    /// two clusters, zero widths, or fewer physical registers than the
    /// architectural registers a cluster must hold).
    pub fn check(&self) {
        assert!((1..=2).contains(&self.clusters), "1 or 2 clusters supported");
        assert!(self.fetch_width > 0 && self.retire_width > 0);
        assert!(self.dq_entries > 0);
        // Each cluster must at least hold committed mappings for the
        // architectural registers assigned to it (~32 worst case).
        assert!(self.int_regs >= 32 && self.fp_regs >= 32, "physical registers too few");
        if self.clusters > 1 {
            assert!(
                self.operand_buffer > 0 && self.result_buffer > 0,
                "multicluster configurations need transfer buffers"
            );
        }
        assert!(self.wedge_threshold >= 1, "wedge threshold must allow at least one stall cycle");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_are_consistent() {
        for cfg in [
            ProcessorConfig::single_cluster_8way(),
            ProcessorConfig::dual_cluster_8way(),
            ProcessorConfig::single_cluster_4way(),
            ProcessorConfig::dual_cluster_4way(),
        ] {
            cfg.check();
        }
    }

    #[test]
    fn dual_halves_the_single_cluster_resources() {
        let s = ProcessorConfig::single_cluster_8way();
        let d = ProcessorConfig::dual_cluster_8way();
        assert_eq!(d.dq_entries * 2, s.dq_entries);
        assert_eq!(d.int_regs * 2, s.int_regs);
        assert_eq!(d.fp_regs * 2, s.fp_regs);
        assert_eq!(d.issue_rules.total * 2, s.issue_rules.total);
        assert_eq!(d.operand_buffer, 8);
        assert_eq!(d.result_buffer, 8);
        assert_eq!(d.fetch_width, s.fetch_width);
        assert_eq!(d.retire_width, s.retire_width);
    }

    #[test]
    fn register_assignment_matches_cluster_count() {
        assert_eq!(ProcessorConfig::single_cluster_8way().register_assignment().clusters(), 1);
        assert_eq!(ProcessorConfig::dual_cluster_8way().register_assignment().clusters(), 2);
    }

    #[test]
    #[should_panic(expected = "transfer buffers")]
    fn dual_without_buffers_is_rejected() {
        let mut cfg = ProcessorConfig::dual_cluster_8way();
        cfg.operand_buffer = 0;
        cfg.check();
    }
}
