//! Simulation statistics.

use mcl_mem::CacheStats;

/// Version tag of the [`SimStats::to_wire_bytes`] encoding. Bump it
/// whenever a field is added, removed, or reordered — the exhaustive
/// destructuring in the codec makes forgetting a compile error, and the
/// on-disk result store treats any version mismatch as a stale entry to
/// recompute, never as data to reinterpret.
pub const STATS_WIRE_VERSION: u32 = 1;

/// Counters accumulated over one simulation run.
///
/// The paper's performance metric is the simulated clock-cycle count
/// ([`SimStats::cycles`]); the companion counters explain *why* a run
/// took the cycles it did — fetch-stall causes, dual-distribution mix,
/// transfer-buffer pressure, replay exceptions, branch prediction, and
/// cache behaviour.
///
/// # The stall-accounting identity
///
/// Every simulated cycle is charged to exactly one front-end bucket:
/// either at least one instruction dispatched ([`SimStats::dispatch_cycles`]),
/// or the trace was exhausted and the window was draining
/// ([`SimStats::drain_cycles`]), or dispatch was stalled for exactly one
/// attributed cause. So, for every run:
///
/// ```text
/// cycles == dispatch_cycles + drain_cycles
///         + stall_icache + stall_branch + stall_dq + stall_regs
///         + stall_replay + stall_reassign
/// ```
///
/// [`SimStats::check_stall_identity`] verifies this; `repro selftest`
/// asserts it for every benchmark/configuration cell.
// `SimStats` is compared with `==` between fast-forwarded and
// single-stepped runs (the differential bar), so engine-mechanics
// counters like dead-cycle skips live in `FastForward`, not here.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Simulated clock cycles (the paper's metric).
    pub cycles: u64,
    /// Cycles in which at least one instruction dispatched.
    pub dispatch_cycles: u64,
    /// Cycles after the trace was exhausted, spent draining the window.
    pub drain_cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Dynamic instructions distributed to exactly one cluster.
    pub single_distributed: u64,
    /// Dynamic instructions distributed to both clusters.
    pub dual_distributed: u64,
    /// Scenario mix of Section 2.1 (`scenario[0]` = scenario 1 …
    /// `scenario[4]` = scenario 5).
    pub scenario: [u64; 5],
    /// Instructions distributed to each cluster (copies counted per
    /// cluster).
    pub per_cluster_dispatched: [u64; 2],
    /// Instructions issued from each cluster's dispatch queue.
    pub per_cluster_issued: [u64; 2],

    /// Conditional branches predicted.
    pub branches: u64,
    /// Conditional branches mispredicted.
    pub mispredicts: u64,

    /// Instruction-replay exceptions taken to free a transfer-buffer
    /// entry (Section 2.1).
    pub replays: u64,
    /// Instructions squashed by replay exceptions.
    pub replay_squashed: u64,
    /// Replay exceptions escalated to a full squash because the same
    /// deadlock recurred at the same window base without an intervening
    /// retirement.
    pub replay_escalations: u64,
    /// Dynamic register reassignments performed (Section 6 mechanism).
    pub reassignments: u64,
    /// Cycles spent draining and switching at reassignment points.
    pub stall_reassign: u64,

    /// Operands forwarded through operand transfer buffers.
    pub operands_forwarded: u64,
    /// Results forwarded through result transfer buffers.
    pub results_forwarded: u64,
    /// Cycles in which some ready slave copy could not issue because the
    /// target operand transfer buffer was full.
    pub otb_full_stalls: u64,
    /// Cycles in which some ready master copy could not issue because
    /// the target result transfer buffer was full.
    pub rtb_full_stalls: u64,

    /// Fetch/dispatch stall cycles by cause.
    pub stall_icache: u64,
    /// Cycles dispatch was blocked on a mispredicted branch: waiting for
    /// it to resolve, plus the post-resolution redirect cycle.
    pub stall_branch: u64,
    /// Cycles dispatch was blocked on a full dispatch queue.
    pub stall_dq: u64,
    /// Cycles dispatch was blocked on an empty physical-register free
    /// list.
    pub stall_regs: u64,
    /// Cycles dispatch was blocked by replay-exception recovery.
    pub stall_replay: u64,

    /// Times an instruction issued while an older instruction in the
    /// same dispatch queue was still waiting (the paper's
    /// "instruction-issue disorder").
    pub issue_disorder: u64,

    /// Instruction-cache statistics.
    pub icache: CacheStats,
    /// Data-cache statistics.
    pub dcache: CacheStats,
}

impl SimStats {
    /// Retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch misprediction rate.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Fraction of dynamic instructions that were dual-distributed.
    #[must_use]
    pub fn dual_fraction(&self) -> f64 {
        let total = self.single_distributed + self.dual_distributed;
        if total == 0 {
            0.0
        } else {
            self.dual_distributed as f64 / total as f64
        }
    }

    /// The paper's performance ratio `C_dual / C_single` for this run
    /// against a baseline cycle count.
    #[must_use]
    pub fn ratio_against(&self, single_cluster_cycles: u64) -> f64 {
        self.cycles as f64 / single_cluster_cycles as f64
    }

    /// Total whole-cycle front-end stalls, summed over causes.
    #[must_use]
    pub fn stall_cycles(&self) -> u64 {
        self.stall_icache
            + self.stall_branch
            + self.stall_dq
            + self.stall_regs
            + self.stall_replay
            + self.stall_reassign
    }

    /// Serializes the counters into the versioned little-endian wire
    /// form the persistent result store caches. The destructuring is
    /// exhaustive on purpose: adding a `SimStats` (or [`CacheStats`])
    /// field without extending this codec — and bumping
    /// [`STATS_WIRE_VERSION`] — does not compile.
    #[must_use]
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        let SimStats {
            cycles,
            dispatch_cycles,
            drain_cycles,
            retired,
            single_distributed,
            dual_distributed,
            scenario,
            per_cluster_dispatched,
            per_cluster_issued,
            branches,
            mispredicts,
            replays,
            replay_squashed,
            replay_escalations,
            reassignments,
            stall_reassign,
            operands_forwarded,
            results_forwarded,
            otb_full_stalls,
            rtb_full_stalls,
            stall_icache,
            stall_branch,
            stall_dq,
            stall_regs,
            stall_replay,
            issue_disorder,
            icache,
            dcache,
        } = self;
        let mut out = Vec::with_capacity(4 + 35 * 8);
        out.extend_from_slice(&STATS_WIRE_VERSION.to_le_bytes());
        let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
        for v in [
            *cycles,
            *dispatch_cycles,
            *drain_cycles,
            *retired,
            *single_distributed,
            *dual_distributed,
        ] {
            put(v);
        }
        for v in scenario {
            put(*v);
        }
        for v in per_cluster_dispatched.iter().chain(per_cluster_issued.iter()) {
            put(*v);
        }
        for v in [
            *branches,
            *mispredicts,
            *replays,
            *replay_squashed,
            *replay_escalations,
            *reassignments,
            *stall_reassign,
            *operands_forwarded,
            *results_forwarded,
            *otb_full_stalls,
            *rtb_full_stalls,
            *stall_icache,
            *stall_branch,
            *stall_dq,
            *stall_regs,
            *stall_replay,
            *issue_disorder,
        ] {
            put(v);
        }
        for cache in [icache, dcache] {
            let CacheStats { accesses, hits, misses, merged_misses, evictions } = *cache;
            for v in [accesses, hits, misses, merged_misses, evictions] {
                put(v);
            }
        }
        out
    }

    /// Decodes [`SimStats::to_wire_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns a description on version mismatch, truncation, or
    /// trailing bytes — callers (the result store) treat every such
    /// entry as corrupt and recompute.
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<SimStats, String> {
        let mut r = WireReader { bytes, at: 0 };
        let version = r.u32()?;
        if version != STATS_WIRE_VERSION {
            return Err(format!(
                "stats wire version {version}, expected {STATS_WIRE_VERSION}"
            ));
        }
        let stats = SimStats {
            cycles: r.u64()?,
            dispatch_cycles: r.u64()?,
            drain_cycles: r.u64()?,
            retired: r.u64()?,
            single_distributed: r.u64()?,
            dual_distributed: r.u64()?,
            scenario: [r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?],
            per_cluster_dispatched: [r.u64()?, r.u64()?],
            per_cluster_issued: [r.u64()?, r.u64()?],
            branches: r.u64()?,
            mispredicts: r.u64()?,
            replays: r.u64()?,
            replay_squashed: r.u64()?,
            replay_escalations: r.u64()?,
            reassignments: r.u64()?,
            stall_reassign: r.u64()?,
            operands_forwarded: r.u64()?,
            results_forwarded: r.u64()?,
            otb_full_stalls: r.u64()?,
            rtb_full_stalls: r.u64()?,
            stall_icache: r.u64()?,
            stall_branch: r.u64()?,
            stall_dq: r.u64()?,
            stall_regs: r.u64()?,
            stall_replay: r.u64()?,
            issue_disorder: r.u64()?,
            icache: r.cache()?,
            dcache: r.cache()?,
        };
        if r.at != bytes.len() {
            return Err(format!("{} trailing bytes after stats", bytes.len() - r.at));
        }
        Ok(stats)
    }

    /// Verifies the stall-accounting identity (see the type-level docs):
    /// every cycle is a dispatch cycle, a drain cycle, or exactly one
    /// attributed stall.
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance when the identity does not
    /// hold — a simulator accounting bug.
    pub fn check_stall_identity(&self) -> Result<(), String> {
        let accounted = self.dispatch_cycles + self.drain_cycles + self.stall_cycles();
        if accounted == self.cycles {
            return Ok(());
        }
        Err(format!(
            "stall accounting does not cover the run: cycles={} but \
             dispatch={} + drain={} + icache={} + branch={} + dq={} + regs={} \
             + replay={} + reassign={} = {}",
            self.cycles,
            self.dispatch_cycles,
            self.drain_cycles,
            self.stall_icache,
            self.stall_branch,
            self.stall_dq,
            self.stall_regs,
            self.stall_replay,
            self.stall_reassign,
            accounted,
        ))
    }
}

/// Bounds-checked little-endian cursor for [`SimStats::from_wire_bytes`].
struct WireReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl WireReader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(
            || format!("stats truncated at byte {} (wanted {n} more)", self.at),
        )?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn cache(&mut self) -> Result<CacheStats, String> {
        Ok(CacheStats {
            accesses: self.u64()?,
            hits: self.u64()?,
            misses: self.u64()?,
            merged_misses: self.u64()?,
            evictions: self.u64()?,
        })
    }
}

/// Dead-cycle-skip counters.
///
/// These describe how the engine reached the answer, not the answer
/// itself: the same run single-stepped (under a probe or cycle-level
/// checking) reports zeros here while producing byte-identical
/// [`SimStats`].
/// `skipped_cycles` are included in [`SimStats::cycles`] (and charged to
/// their stall buckets) — this struct only attributes how many of them
/// were covered by fast-forward jumps instead of ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastForward {
    /// Simulated cycles covered by fast-forward jumps rather than ticks.
    pub skipped_cycles: u64,
    /// Number of fast-forward jumps taken.
    pub jumps: u64,
}

impl FastForward {
    /// Folds another run's counters into this one (used by the bench
    /// driver to aggregate per-cell totals).
    pub fn add(&mut self, other: &FastForward) {
        self.skipped_cycles += other.skipped_cycles;
        self.jumps += other.jumps;
    }
}

/// The percentage speedup the paper reports in Table 2:
/// `100 - 100 × (C_dual / C_single)` — positive is a speedup, negative a
/// slowdown.
#[must_use]
pub fn speedup_percent(dual_cycles: u64, single_cycles: u64) -> f64 {
    100.0 - 100.0 * (dual_cycles as f64 / single_cycles as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let stats = SimStats {
            cycles: 1000,
            retired: 2500,
            branches: 100,
            mispredicts: 7,
            single_distributed: 900,
            dual_distributed: 100,
            ..SimStats::default()
        };
        assert!((stats.ipc() - 2.5).abs() < 1e-12);
        assert!((stats.mispredict_rate() - 0.07).abs() < 1e-12);
        assert!((stats.dual_fraction() - 0.1).abs() < 1e-12);
        assert!((stats.ratio_against(800) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn speedup_sign_convention_matches_table2() {
        // More dual cycles than single → slowdown → negative percentage.
        assert!(speedup_percent(1140, 1000) < 0.0);
        assert!((speedup_percent(1140, 1000) - -14.0).abs() < 1e-9);
        // compress with the local scheduler: +6 in the paper.
        assert!(speedup_percent(940, 1000) > 0.0);
    }

    #[test]
    fn zero_division_is_guarded() {
        let stats = SimStats::default();
        assert_eq!(stats.ipc(), 0.0);
        assert_eq!(stats.mispredict_rate(), 0.0);
        assert_eq!(stats.dual_fraction(), 0.0);
    }

    #[test]
    fn wire_codec_round_trips_and_rejects_corruption() {
        let mut stats = SimStats {
            cycles: 123_456,
            dispatch_cycles: 100_000,
            drain_cycles: 3456,
            retired: 250_000,
            scenario: [1, 2, 3, 4, 5],
            per_cluster_dispatched: [9, 8],
            per_cluster_issued: [7, 6],
            branches: 500,
            mispredicts: 17,
            stall_icache: 20_000,
            issue_disorder: 42,
            ..SimStats::default()
        };
        stats.icache.accesses = 99;
        stats.dcache.misses = 3;
        let wire = stats.to_wire_bytes();
        assert_eq!(SimStats::from_wire_bytes(&wire).unwrap(), stats);

        // Truncation, trailing garbage, and a wrong version all fail.
        assert!(SimStats::from_wire_bytes(&wire[..wire.len() - 1]).is_err());
        let mut long = wire.clone();
        long.push(0);
        assert!(SimStats::from_wire_bytes(&long).is_err());
        let mut wrong = wire;
        wrong[0] ^= 0xFF;
        let err = SimStats::from_wire_bytes(&wrong).unwrap_err();
        assert!(err.contains("version"), "{err}");
        assert!(SimStats::from_wire_bytes(&[]).is_err());
    }

    #[test]
    fn stall_identity_accepts_balanced_and_rejects_unbalanced() {
        let mut stats = SimStats {
            cycles: 100,
            dispatch_cycles: 60,
            drain_cycles: 10,
            stall_icache: 5,
            stall_branch: 9,
            stall_dq: 6,
            stall_regs: 4,
            stall_replay: 3,
            stall_reassign: 3,
            ..SimStats::default()
        };
        stats.check_stall_identity().expect("balanced");
        assert_eq!(stats.stall_cycles(), 30);
        stats.stall_dq += 1;
        let err = stats.check_stall_identity().expect_err("unbalanced");
        assert!(err.contains("cycles=100"), "describes the imbalance: {err}");
        // The empty run trivially satisfies the identity.
        SimStats::default().check_stall_identity().expect("empty run");
    }
}
