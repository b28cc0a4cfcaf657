//! Result checks and the operation tally.
//!
//! Every simulation is checked three ways: it retired exactly the
//! trace it was given, its stall accounting covers the run, and its
//! statistics are the same on every pass. At the default seed its
//! statistics must also match the digest recorded in `digests.txt`.
//! The digest covers [`SimStats::to_wire_bytes`] only — the modelled
//! machine — and not the fast-forward counters, which describe how the
//! simulator got there. A failed check counts as a failed operation;
//! it never stops the run.

use std::collections::{BTreeMap, HashMap};

use mcl_core::SimStats;

/// The digests pinned at the default seed.
pub const PINNED: &str = include_str!("../digests.txt");

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The digest of a simulation's modelled-machine statistics.
#[must_use]
pub fn digest(stats: &SimStats) -> u64 {
    fnv1a(&stats.to_wire_bytes())
}

/// `key → digest`, one `key hex` pair per line; `#` starts a comment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestTable(BTreeMap<String, u64>);

impl DigestTable {
    /// Parses the table text.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<DigestTable, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let parsed = line
                .split_once(' ')
                .and_then(|(k, v)| Some((k.to_owned(), u64::from_str_radix(v.trim(), 16).ok()?)));
            let (key, value) = parsed.ok_or_else(|| format!("digests.txt:{}: bad line", n + 1))?;
            if map.insert(key, value).is_some() {
                return Err(format!("digests.txt:{}: duplicate key", n + 1));
            }
        }
        Ok(DigestTable(map))
    }

    /// Adds or replaces one entry.
    pub fn insert(&mut self, key: &str, digest: u64) {
        self.0.insert(key.to_owned(), digest);
    }

    /// The table as text, sorted by key.
    #[must_use]
    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|(k, v)| format!("{k} {v:016x}\n"))
            .collect()
    }
}

/// Checks results and counts operations attempted and failed.
#[derive(Debug, Default)]
pub struct Checker {
    /// Digests every result must match (the default seed only).
    pinned: Option<DigestTable>,
    /// The digest each key had on its first pass.
    seen: HashMap<String, u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: an error, a panic, or a failed check.
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

impl Checker {
    /// A checker; `pinned` is the digest table when the run uses the
    /// default seed.
    #[must_use]
    pub fn new(pinned: Option<DigestTable>) -> Checker {
        Checker {
            pinned,
            ..Checker::default()
        }
    }

    /// Checks one simulation of a `trace_len`-op trace.
    pub fn sim(&mut self, key: &str, result: Result<&SimStats, String>, trace_len: u64) {
        let outcome = result.and_then(|stats| {
            if stats.retired != trace_len {
                return Err(format!(
                    "retired {} of a {trace_len}-op trace",
                    stats.retired
                ));
            }
            stats.check_stall_identity()?;
            self.same(key, digest(stats), true)
        });
        self.record(key, outcome);
    }

    /// Checks one non-simulation operation by the digest of its output,
    /// which must repeat on every pass.
    pub fn output(&mut self, key: &str, result: Result<u64, String>) {
        let outcome = result.and_then(|d| self.same(key, d, false));
        self.record(key, outcome);
    }

    fn same(&mut self, key: &str, d: u64, pinned: bool) -> Result<(), String> {
        if let Some(table) = self.pinned.as_ref().filter(|_| pinned) {
            match table.0.get(key) {
                Some(&p) if p == d => {}
                Some(&p) => return Err(format!("digest {d:016x}, pinned {p:016x}")),
                None => return Err("no pinned digest".to_owned()),
            }
        }
        let first = *self.seen.entry(key.to_owned()).or_insert(d);
        if first == d {
            Ok(())
        } else {
            Err(format!(
                "digest {d:016x} differs from the first pass's {first:016x}"
            ))
        }
    }

    fn record(&mut self, key: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{key}: {e}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64, retired: u64) -> SimStats {
        SimStats {
            cycles,
            dispatch_cycles: cycles,
            retired,
            ..SimStats::default()
        }
    }

    #[test]
    fn pinned_table_parses() {
        let table = DigestTable::parse(PINNED).expect("digests.txt parses");
        assert_eq!(DigestTable::parse(&table.render()), Ok(table));
    }

    #[test]
    fn a_perturbed_digest_counts_as_one_failed_operation() {
        let good = stats(10, 7);
        let mut table = DigestTable::default();
        table.insert("a", digest(&good));
        table.insert("b", digest(&good) ^ 1);
        let mut checker = Checker::new(Some(table));
        checker.sim("a", Ok(&good), 7);
        checker.sim("b", Ok(&good), 7);
        assert_eq!((checker.attempted, checker.failed), (2, 1));
        assert!(
            checker.errors[0].starts_with("b: digest"),
            "{:?}",
            checker.errors
        );
    }

    #[test]
    fn every_check_failure_is_counted_and_none_panics() {
        let mut checker = Checker::new(None);
        checker.sim("retired", Ok(&stats(10, 6)), 7);
        let broken = SimStats {
            cycles: 10,
            retired: 7,
            ..SimStats::default()
        };
        checker.sim("stall", Ok(&broken), 7);
        checker.sim("error", Err("boom".to_owned()), 7);
        checker.sim("pass", Ok(&stats(10, 7)), 7);
        checker.sim("pass", Ok(&stats(11, 7)), 7);
        checker.output("tool", Ok(1));
        checker.output("tool", Ok(2));
        assert_eq!((checker.attempted, checker.failed), (7, 5));
    }

    #[test]
    fn unpinned_keys_fail_at_the_default_seed() {
        let mut checker = Checker::new(Some(DigestTable::default()));
        checker.sim("missing", Ok(&stats(3, 1)), 1);
        checker.output("tool", Ok(5));
        assert_eq!((checker.attempted, checker.failed), (2, 1));
    }
}
