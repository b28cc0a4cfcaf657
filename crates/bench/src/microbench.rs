//! `repro bench` — the ticked-vs-event engine microbenchmark.
//!
//! Simulates the six Table 2 workloads (dual-cluster machine, local
//! scheduler — the paper's headline configuration) under both
//! simulation engines and reports wall-clock throughput side by side.
//! Each (workload, engine) pair runs three times on the calling thread
//! and keeps the fastest wall time, so scheduler noise and cold caches
//! cannot manufacture a regression; the engines' statistics are also
//! cross-checked for equality on every run, making the benchmark a
//! differential test that happens to be timed.
//!
//! The rendered report ends with machine-parseable summary lines —
//!
//! ```text
//! engine-bench: event/ticked = 4.83x (ticked 2.3M cyc/s, event 11.1M cyc/s)
//! engine-bench: history = {"schema":10,...}
//! ```
//!
//! — which `scripts/ci.sh` greps to enforce the event engine's
//! throughput floor and to append the
//! `history` JSON object to `BENCH_repro.history.jsonl` via
//! `repro history-append` (which validates every candidate line with
//! [`validate_history_line`] before it lands). `repro bench`
//! deliberately does not write `BENCH_repro.json`: it measures the
//! engine, not the experiment suite.

use std::time::Instant;

use mcl_core::{Engine, Processor, ProcessorConfig};
use mcl_sched::SchedulerKind;
use mcl_trace::PackedTrace;
use mcl_workloads::Benchmark;

use crate::{Error, TraceRequest, TraceStore};

/// Timing of one workload under both engines.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Workload name.
    pub name: &'static str,
    /// Simulated cycles of one run (identical for both engines by
    /// construction — divergence is an error).
    pub cycles: u64,
    /// Fastest-of-three wall seconds under the ticked engine.
    pub ticked_seconds: f64,
    /// Fastest-of-three wall seconds under the event engine.
    pub event_seconds: f64,
    /// Simulated cycles the event engine covered by fast-forward jumps.
    pub skipped_cycles: u64,
    /// Fast-forward jumps the event engine took.
    pub jumps: u64,
    /// Telescoped host nanoseconds of one profiled event-engine run
    /// (sum of the hostprof phase buckets; see
    /// [`mcl_core::obs::hostprof`]).
    pub profile_total_ns: u64,
    /// Live (actually stepped) cycles of that profiled run.
    pub profile_live_cycles: u64,
}

impl BenchRow {
    /// Cycles per second under the ticked engine.
    #[must_use]
    pub fn ticked_cps(&self) -> f64 {
        per_second(self.cycles, self.ticked_seconds)
    }

    /// Cycles per second under the event engine.
    #[must_use]
    pub fn event_cps(&self) -> f64 {
        per_second(self.cycles, self.event_seconds)
    }
}

fn per_second(cycles: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        cycles as f64 / seconds
    } else {
        0.0
    }
}

/// Runs one engine over a trace `reps` times serially and returns the
/// statistics of the last run, its fast-forward counters, and the
/// fastest wall time.
fn time_engine(
    cfg: &ProcessorConfig,
    engine: Engine,
    trace: &PackedTrace,
    reps: u32,
) -> Result<(mcl_core::SimStats, mcl_core::FastForward, f64), Error> {
    let cfg = cfg.clone().with_engine(engine);
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let result = Processor::new(cfg.clone()).run_packed(trace).map_err(Error::Sim)?;
        best = best.min(start.elapsed().as_secs_f64());
        last = Some((result.stats, result.ff));
    }
    let (stats, ff) = last.expect("at least one rep");
    Ok((stats, ff, best))
}

/// Benchmarks both engines over the six Table 2 workloads at
/// `divisor`-scaled sizes. Timings are single-threaded by design —
/// every simulation runs on the calling thread, so the engine ratio
/// compares engines, not schedulers.
///
/// # Errors
///
/// Trace-building or simulation failures surface as the store's
/// errors; an engine divergence (identical trace, different
/// statistics) surfaces as [`Error::SelfCheck`].
pub fn run(divisor: u32) -> Result<Vec<BenchRow>, Error> {
    let store = TraceStore::new();
    let cfg = ProcessorConfig::dual_cluster_8way();
    let mut rows = Vec::new();
    for bench in Benchmark::ALL {
        let scale = bench.scaled(divisor);
        let req = TraceRequest::new(bench, scale, SchedulerKind::Local);
        let (trace, _) = store.trace(&req)?;
        let (ticked_stats, _, ticked_seconds) = time_engine(&cfg, Engine::Ticked, &trace, 3)?;
        let (event_stats, ff, event_seconds) = time_engine(&cfg, Engine::Event, &trace, 3)?;
        if ticked_stats != event_stats {
            return Err(Error::SelfCheck(format!(
                "engine-bench: {bench} diverged — ticked {} cycles, event {} cycles",
                ticked_stats.cycles, event_stats.cycles
            )));
        }
        // One host-profiled companion run per workload (event engine,
        // real fast-forward path) feeds the `profile_ns_per_cycle`
        // history metric — and doubles as a differential check that
        // profiling never perturbs the machine.
        let (profiled, prof_report) = Processor::new(cfg.clone().with_engine(Engine::Event))
            .run_packed_profiled(&trace)
            .map_err(Error::Sim)?;
        if profiled.stats != event_stats {
            return Err(Error::SelfCheck(format!(
                "engine-bench: {bench} profiled run diverged — {} vs {} cycles",
                profiled.stats.cycles, event_stats.cycles
            )));
        }
        prof_report
            .check_identity()
            .map_err(|detail| Error::SelfCheck(format!("engine-bench: {bench}: {detail}")))?;
        rows.push(BenchRow {
            name: bench.name(),
            cycles: event_stats.cycles,
            ticked_seconds,
            event_seconds,
            skipped_cycles: ff.skipped_cycles,
            jumps: ff.jumps,
            profile_total_ns: prof_report.total_ns(),
            profile_live_cycles: prof_report.live_cycles,
        });
    }
    Ok(rows)
}

fn format_cps(cps: f64) -> String {
    if cps >= 1e6 {
        format!("{:.1}M", cps / 1e6)
    } else {
        format!("{:.0}k", cps / 1e3)
    }
}

/// Renders the comparison table plus the parseable summary lines
/// (engine ratio, skip totals, and the schema-versioned `history` JSON
/// object CI appends to `BENCH_repro.history.jsonl`).
#[must_use]
pub fn render(rows: &[BenchRow], divisor: u32) -> String {
    let mut out = String::new();
    out.push_str("Engine microbenchmark (dual-cluster, local scheduler; min of 3)\n\n");
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>12} {:>8} {:>12} {:>8}\n",
        "benchmark", "cycles", "ticked c/s", "event c/s", "speedup", "skipped", "jumps"
    ));
    let mut total_cycles = 0u64;
    let mut total_ticked = 0.0f64;
    let mut total_event = 0.0f64;
    for r in rows {
        let speedup = if r.event_seconds > 0.0 { r.ticked_seconds / r.event_seconds } else { 0.0 };
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>12} {:>7.2}x {:>12} {:>8}\n",
            r.name,
            r.cycles,
            format_cps(r.ticked_cps()),
            format_cps(r.event_cps()),
            speedup,
            r.skipped_cycles,
            r.jumps,
        ));
        total_cycles += r.cycles;
        total_ticked += r.ticked_seconds;
        total_event += r.event_seconds;
    }
    let ticked_cps = per_second(total_cycles, total_ticked);
    let event_cps = per_second(total_cycles, total_event);
    let ratio = if event_cps > 0.0 && ticked_cps > 0.0 { event_cps / ticked_cps } else { 0.0 };
    out.push_str(&format!(
        "\nengine-bench: event/ticked = {:.2}x (ticked {} cyc/s, event {} cyc/s)\n",
        ratio,
        format_cps(ticked_cps),
        format_cps(event_cps),
    ));
    // The skip totals are deterministic (they depend only on the traces
    // and the fast-forward rules, never on wall time), so CI can pin a
    // hard floor on them even on noisy machines.
    let total_skipped: u64 = rows.iter().map(|r| r.skipped_cycles).sum();
    let pct = if total_cycles > 0 {
        100.0 * total_skipped as f64 / total_cycles as f64
    } else {
        0.0
    };
    out.push_str(&format!(
        "engine-bench: skipped = {total_skipped}/{total_cycles} cycles ({pct:.1}%)\n",
    ));
    // Single-line JSON summary for BENCH_repro.history.jsonl; each
    // `scripts/ci.sh` bench run appends exactly one object. Schema 9
    // renamed `skipped_pct` to `skip_pct` and added
    // `profile_ns_per_cycle` (the host-profiled companions' aggregate
    // ns per live cycle) — `repro trend` aliases the old name when
    // reading mixed-version history.
    let total_prof_ns: u64 = rows.iter().map(|r| r.profile_total_ns).sum();
    let total_prof_live: u64 = rows.iter().map(|r| r.profile_live_cycles).sum();
    let profile_ns_per_cycle =
        if total_prof_live > 0 { total_prof_ns as f64 / total_prof_live as f64 } else { 0.0 };
    let unix_seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    out.push_str(&format!(
        "engine-bench: history = {{\"schema\":{HISTORY_SCHEMA_VERSION},\
         \"unix_seconds\":{unix_seconds},\
         \"divisor\":{divisor},\"cycles\":{total_cycles},\
         \"ticked_cps\":{ticked_cps:.0},\"event_cps\":{event_cps:.0},\
         \"event_over_ticked\":{ratio:.3},\"skip_pct\":{pct:.1},\
         \"profile_ns_per_cycle\":{profile_ns_per_cycle:.1}}}\n",
    ));
    out
}

/// The history schema version `repro bench` emits and
/// `repro history-append` requires. Version 9 renamed `skipped_pct` to
/// `skip_pct` and added `profile_ns_per_cycle`. Version 10 dropped the
/// time-window fields (the parallel throughput and its ratio to the
/// event engine, `warmup_seconds`, `max_divergence`, and the window
/// count request). `repro trend` ([`crate::trend`]) upgrades older
/// lines on read and ignores the dropped fields.
pub const HISTORY_SCHEMA_VERSION: u64 = 10;

/// Keys every history line must carry.
const HISTORY_REQUIRED_KEYS: &[&str] =
    &["schema", "unix_seconds", "divisor", "cycles", "ticked_cps", "event_cps"];

/// The verdict of [`validate_history_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryVerdict {
    /// The line is well-formed, schema-current, and new: append it.
    Append,
    /// The line must be skipped (with a warning); the payload says why
    /// ("malformed: ...", "schema mismatch: ...", "duplicate of line N").
    Skip(String),
}

/// Validates one candidate line against the existing history file
/// content before it is appended to `BENCH_repro.history.jsonl`.
///
/// CI used to append the grepped summary line blindly; a malformed grep
/// (or a rerun of the same report) would poison the history for every
/// downstream consumer. The candidate must parse as a JSON object,
/// carry every required key, declare `"schema"` equal to
/// [`HISTORY_SCHEMA_VERSION`], and not duplicate an existing line
/// byte-for-byte. Malformed *existing* lines never block an append —
/// they are the reader's problem and are reported by the caller.
#[must_use]
pub fn validate_history_line(existing: &str, candidate: &str) -> HistoryVerdict {
    let candidate = candidate.trim();
    let parsed = match crate::json::Json::parse(candidate) {
        Ok(v) => v,
        Err(e) => return HistoryVerdict::Skip(format!("malformed: {e}")),
    };
    for key in HISTORY_REQUIRED_KEYS {
        if parsed.get(key).is_none() {
            return HistoryVerdict::Skip(format!("malformed: missing key `{key}`"));
        }
    }
    match parsed.get("schema").and_then(crate::json::Json::as_u64) {
        Some(HISTORY_SCHEMA_VERSION) => {}
        Some(v) => {
            return HistoryVerdict::Skip(format!(
                "schema mismatch: line declares {v}, current is {HISTORY_SCHEMA_VERSION}"
            ));
        }
        None => return HistoryVerdict::Skip("malformed: `schema` is not an integer".to_owned()),
    }
    for (i, line) in existing.lines().enumerate() {
        if line.trim() == candidate {
            return HistoryVerdict::Skip(format!("duplicate of line {}", i + 1));
        }
    }
    HistoryVerdict::Append
}

/// Checks one parsed history line beyond key presence: `schema` must be
/// an integer and every other required key numeric. Returns the first
/// problem, or `None` for a clean line.
fn history_line_problem(v: &crate::json::Json) -> Option<String> {
    for key in HISTORY_REQUIRED_KEYS {
        if v.get(key).is_none() {
            return Some(format!("missing required key `{key}`"));
        }
    }
    if v.get("schema").and_then(crate::json::Json::as_u64).is_none() {
        return Some("`schema` is not an integer".to_owned());
    }
    for key in HISTORY_REQUIRED_KEYS.iter().filter(|&&k| k != "schema") {
        if v.get(key).and_then(crate::json::Json::as_f64).is_none() {
            return Some(format!("`{key}` is not numeric"));
        }
    }
    None
}

/// Existing history lines that do not validate (reported as warnings by
/// `repro history-append`, each with its 1-based line number; they
/// never block an append). A line is malformed when it fails to parse,
/// misses a required key, or — value typing, not just presence —
/// declares a non-integer `schema` or a non-numeric required metric.
#[must_use]
pub fn malformed_history_lines(existing: &str) -> Vec<(usize, String)> {
    existing
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .filter_map(|(i, line)| match crate::json::Json::parse(line.trim()) {
            Ok(v) => history_line_problem(&v).map(|why| (i + 1, why)),
            Err(e) => Some((i + 1, e)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_rows_cover_every_workload_and_agree() {
        let rows = run(256).expect("runs");
        assert_eq!(rows.len(), Benchmark::ALL.len());
        for r in &rows {
            assert!(r.cycles > 0, "{}: simulated nothing", r.name);
            assert!(r.skipped_cycles < r.cycles, "{}: skipped too much", r.name);
        }
        for r in &rows {
            assert!(r.profile_total_ns > 0, "{}: profiled nothing", r.name);
            assert!(r.profile_live_cycles > 0, "{}: no live cycles profiled", r.name);
            assert!(r.profile_live_cycles <= r.cycles, "{}: too many live cycles", r.name);
        }
        let rendered = render(&rows, 256);
        assert!(rendered.contains("engine-bench: event/ticked = "));
        assert!(rendered.contains("engine-bench: skipped = "));
        assert!(rendered.contains("engine-bench: history = {\"schema\":10,"));
        assert!(rendered.contains("\"divisor\":256,\"cycles\":"), "{rendered}");
        assert!(rendered.contains("\"skip_pct\":"), "{rendered}");
        assert!(rendered.contains("\"profile_ns_per_cycle\":"), "{rendered}");
        assert!(!rendered.contains("\"skipped_pct\":"), "v9 renamed the field");
        assert!(rendered.contains("compress"));
    }

    fn history_line(schema: u64, unix: u64) -> String {
        format!(
            "{{\"schema\":{schema},\"unix_seconds\":{unix},\"divisor\":64,\
             \"cycles\":1000,\"ticked_cps\":100,\"event_cps\":500}}"
        )
    }

    #[test]
    fn history_validation_gates_the_append() {
        let good = history_line(HISTORY_SCHEMA_VERSION, 10);
        assert_eq!(validate_history_line("", &good), HistoryVerdict::Append);
        // A rendered report line validates against its own schema.
        let rows = run(256).expect("runs");
        let rendered = render(&rows, 256);
        let emitted = rendered
            .lines()
            .find_map(|l| l.strip_prefix("engine-bench: history = "))
            .expect("history line rendered");
        assert_eq!(validate_history_line(&good, emitted), HistoryVerdict::Append);

        match validate_history_line("", "not json at all") {
            HistoryVerdict::Skip(why) => assert!(why.starts_with("malformed:"), "{why}"),
            HistoryVerdict::Append => panic!("malformed line appended"),
        }
        match validate_history_line("", "{\"schema\":8}") {
            HistoryVerdict::Skip(why) => assert!(why.contains("missing key"), "{why}"),
            HistoryVerdict::Append => panic!("incomplete line appended"),
        }
        match validate_history_line("", &history_line(7, 10)) {
            HistoryVerdict::Skip(why) => assert!(why.contains("schema mismatch"), "{why}"),
            HistoryVerdict::Append => panic!("stale schema appended"),
        }
        let existing = format!("{}\n{good}\n", history_line(HISTORY_SCHEMA_VERSION, 5));
        match validate_history_line(&existing, &good) {
            HistoryVerdict::Skip(why) => assert_eq!(why, "duplicate of line 2"),
            HistoryVerdict::Append => panic!("duplicate appended"),
        }
        // A different timestamp is a different run, not a duplicate.
        assert_eq!(
            validate_history_line(&existing, &history_line(HISTORY_SCHEMA_VERSION, 11)),
            HistoryVerdict::Append
        );
    }

    #[test]
    fn malformed_existing_lines_are_reported_not_fatal() {
        let existing = format!("garbage\n{}\n{{\"schema\":9}}\n", history_line(9, 5));
        let bad = malformed_history_lines(&existing);
        assert_eq!(bad.len(), 2);
        assert_eq!(bad[0].0, 1, "line numbers are 1-based");
        assert_eq!(bad[1].0, 3, "reporting keeps going past the first problem");
        assert_eq!(bad[1].1, "missing required key `unix_seconds`");
        // ...and they do not block a fresh append.
        assert_eq!(
            validate_history_line(&existing, &history_line(HISTORY_SCHEMA_VERSION, 12)),
            HistoryVerdict::Append
        );
    }

    #[test]
    fn malformed_detection_checks_value_types_not_just_presence() {
        // `schema` as a string and a non-numeric metric both count as
        // malformed even though every required key is present.
        let stringly = "{\"schema\":\"9\",\"unix_seconds\":10,\"divisor\":64,\
                        \"cycles\":1000,\"ticked_cps\":100,\"event_cps\":500}";
        let nonnum = "{\"schema\":9,\"unix_seconds\":10,\"divisor\":64,\
                      \"cycles\":\"lots\",\"ticked_cps\":100,\"event_cps\":500}";
        let existing = format!("{stringly}\n{}\n{nonnum}\n", history_line(9, 5));
        let bad = malformed_history_lines(&existing);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert_eq!(bad[0], (1, "`schema` is not an integer".to_owned()));
        assert_eq!(bad[1], (3, "`cycles` is not numeric".to_owned()));
    }

}
