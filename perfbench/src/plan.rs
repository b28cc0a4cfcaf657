//! The workload inputs a seed stands for.
//!
//! The program receives only what the plan generates: each benchmark's
//! scale and the order the benchmarks run in.

use mcl_workloads::Benchmark;

/// The seed whose inputs are exactly [`Benchmark::default_scale`] in
/// [`Benchmark::ALL`] order — the inputs `digests.txt` pins.
pub const DEFAULT_SEED: u64 = 0;

/// Half-width of the band other seeds draw each scale from, as a share
/// of the default scale. Scales round to whole units, so su2cor and
/// tomcatv (4 passes by default) keep their default scale.
pub const SCALE_BAND: f64 = 0.05;

/// The inputs of one run: every benchmark once, with its scale, in run
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The seed the plan was drawn from.
    pub seed: u64,
    /// `(benchmark, scale)` in the order the passes run them.
    pub benches: Vec<(Benchmark, u32)>,
}

impl Plan {
    /// The plan a seed stands for; the same seed always gives the same
    /// plan.
    #[must_use]
    pub fn from_seed(seed: u64) -> Plan {
        let mut benches: Vec<(Benchmark, u32)> = Benchmark::ALL
            .iter()
            .map(|&b| (b, b.default_scale()))
            .collect();
        if seed != DEFAULT_SEED {
            let mut rng = SplitMix64(seed);
            for (_, scale) in &mut benches {
                let factor = 1.0 + SCALE_BAND * (2.0 * rng.unit() - 1.0);
                *scale = ((f64::from(*scale) * factor).round() as u32).max(1);
            }
            for i in (1..benches.len()).rev() {
                let j = (rng.next() % (i as u64 + 1)) as usize;
                benches.swap(i, j);
            }
        }
        Plan { seed, benches }
    }

    /// One line naming the seed and the scales, in run order.
    #[must_use]
    pub fn describe(&self) -> String {
        let scales: Vec<String> = self
            .benches
            .iter()
            .map(|(b, s)| format!("{}={s}", b.name()))
            .collect();
        format!("seed {}: {}", self.seed, scales.join(" "))
    }
}

/// Steele, Lea and Flood's SplitMix64: small, and enough to draw a
/// handful of scales.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_runs_the_default_scales_in_suite_order() {
        let plan = Plan::from_seed(DEFAULT_SEED);
        let expected: Vec<_> = Benchmark::ALL
            .iter()
            .map(|&b| (b, b.default_scale()))
            .collect();
        assert_eq!(plan.benches, expected);
    }

    #[test]
    fn a_seed_always_yields_the_same_inputs() {
        for seed in [1, 2, 7, 12345, u64::MAX] {
            assert_eq!(Plan::from_seed(seed), Plan::from_seed(seed));
        }
    }

    #[test]
    fn other_seeds_stay_in_the_band_and_cover_every_benchmark() {
        let mut orders = std::collections::HashSet::new();
        for seed in 1..=20 {
            let plan = Plan::from_seed(seed);
            let mut names: Vec<_> = plan.benches.iter().map(|(b, _)| b.name()).collect();
            orders.insert(names.clone());
            names.sort_unstable();
            let mut all: Vec<_> = Benchmark::ALL.iter().map(|b| b.name()).collect();
            all.sort_unstable();
            assert_eq!(names, all);
            for &(b, scale) in &plan.benches {
                let d = f64::from(b.default_scale());
                let lo = (d * (1.0 - SCALE_BAND)).round() as u32;
                let hi = (d * (1.0 + SCALE_BAND)).round() as u32;
                assert!(
                    (lo..=hi).contains(&scale),
                    "{b} scale {scale} outside {lo}..={hi}"
                );
            }
        }
        assert!(orders.len() > 1, "seeds should reorder the benchmarks");
        assert_ne!(Plan::from_seed(1), Plan::from_seed(2));
    }
}
