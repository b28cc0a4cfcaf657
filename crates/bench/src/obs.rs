//! Observability exports behind `repro --obs OUT_DIR`.
//!
//! For each observed cell this module runs one *additional* instrumented
//! simulation — dual-cluster machine, local-scheduler trace served by
//! the shared [`TraceStore`] — with an [`ObsProbe`] attached, and writes
//! per-cell artifacts into the output directory:
//!
//! - `<bench>.series.json` — the interval-sampled time series (IPC,
//!   occupancy, free registers, stall-cause breakdown per interval) plus
//!   the log2-bucketed pipeline-latency histograms;
//! - `<bench>.trace.json` — the lifecycle event ring in Chrome
//!   trace-event format (an object with a `traceEvents` array), loadable
//!   in Perfetto / `chrome://tracing`;
//! - `<bench>.postmortem.txt` — only when the instrumented run dies with
//!   a [`SimError`]: the ring's surviving tail rendered through
//!   [`mcl_core::pipeview`].
//!
//! The instrumented run is *extra* work: the cell's reported statistics
//! still come from the ordinary uninstrumented store simulation, and
//! [`observe_cell`] cross-checks that both runs produced byte-identical
//! [`mcl_core::SimStats`] — the probe layer's "observe, never perturb"
//! guarantee, enforced on every `--obs` run. Its cycles are deliberately
//! *not* charged to the cell cost, so `BENCH_repro.json` aggregates stay
//! identical with `--obs` on or off.
//!
//! [`validate_dir`] re-reads a directory of exports with the hand-rolled
//! [`Json::parse`] and checks the schema (`repro obs-validate`).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mcl_core::obs::{EventRing, ObsConfig, ObsProbe, StallCause};
use mcl_core::events::EventKind;
use mcl_core::{PipeViewOptions, Processor, ProcessorConfig, SimError, SimResult, SimStats};
use mcl_sched::SchedulerKind;
use mcl_trace::PackedTrace;
use mcl_workloads::Benchmark;

use crate::json::Json;
use crate::runner::CellCost;
use crate::store::TraceRequest;
use crate::{Error, TraceStore};

/// Schema version of the `*.series.json` exports.
pub const SERIES_SCHEMA_VERSION: u64 = 1;

/// Event-ring capacity of `--obs` runs (last K lifecycle events).
pub const RING_CAPACITY: usize = 4096;

/// Where and how densely to export.
#[derive(Debug, Clone)]
pub struct ObsSettings {
    /// Output directory (created if missing).
    pub dir: PathBuf,
    /// Sampling interval in cycles (`--sample-interval`).
    pub sample_interval: u64,
}

fn obs_err(context: &str, detail: impl std::fmt::Display) -> Error {
    Error::Obs(format!("{context}: {detail}"))
}

/// Identity of one instrumented export: the file stem the artifacts
/// are written under plus the labels recorded inside the series export.
#[derive(Debug, Clone, Copy)]
pub struct ObsTarget<'a> {
    /// Export file stem (`<stem>.series.json`, `<stem>.trace.json`).
    pub stem: &'a str,
    /// Processor-configuration label recorded in the export.
    pub config_label: &'a str,
    /// Scheduler label recorded in the export.
    pub sched_label: &'a str,
}

/// Runs the instrumented companion simulation of one Table 2 cell and
/// writes its exports; returns the file names written.
///
/// # Errors
///
/// [`Error::Obs`] if the instrumented run's statistics diverge from the
/// store's uninstrumented run (a probe perturbed the simulation) or an
/// export cannot be written; harness errors propagate. On [`SimError`]
/// the ring tail is written to `<bench>.postmortem.txt` before the
/// error propagates.
pub fn observe_cell(
    store: &TraceStore,
    bench: Benchmark,
    scale: u32,
    settings: &ObsSettings,
) -> Result<Vec<String>, Error> {
    observe_request(
        store,
        &TraceRequest::new(bench, scale, SchedulerKind::Local),
        &ProcessorConfig::dual_cluster_8way(),
        ObsTarget { stem: bench.name(), config_label: "dual_cluster_8way", sched_label: "local" },
        settings,
    )
}

/// Generalised form of [`observe_cell`]: runs the instrumented
/// companion of any store-served `(request, configuration)` pair and
/// writes its exports under `target.stem` — how `repro ablate` and
/// `repro scenarios` cells export observability artifacts for their
/// family-representative configuration.
///
/// # Errors
///
/// As [`observe_cell`].
pub fn observe_request(
    store: &TraceStore,
    req: &TraceRequest,
    cfg: &ProcessorConfig,
    target: ObsTarget<'_>,
    settings: &ObsSettings,
) -> Result<Vec<String>, Error> {
    let (trace, _) = store.trace(req)?;
    let expected = store.sim(req, cfg)?;
    observe_trace(&trace, cfg, &expected.stats, target, settings)
}

/// Instrumented companion of one prescheduled scenario program
/// (`repro scenarios --obs`): exports under the stem `scenario<N>`.
///
/// # Errors
///
/// As [`observe_cell`]; the cross-check reference is a fresh
/// uninstrumented run of the same program.
pub fn observe_scenario(
    scenario: &mcl_workloads::scenarios::Scenario,
    settings: &ObsSettings,
) -> Result<Vec<String>, Error> {
    let (trace, _) = mcl_trace::vm::trace_program_packed(&scenario.program, 0)?;
    let cfg = ProcessorConfig::dual_cluster_8way();
    let expected = Processor::new(cfg.clone()).run_packed(&trace)?;
    let stem = format!("scenario{}", scenario.number);
    observe_trace(
        &trace,
        &cfg,
        &expected.stats,
        ObsTarget {
            stem: &stem,
            config_label: "dual_cluster_8way",
            sched_label: "prescheduled",
        },
        settings,
    )
}

/// The shared export path: checked instrumented run against
/// `expected`, series + Chrome trace written under the stem.
fn observe_trace(
    trace: &PackedTrace,
    cfg: &ProcessorConfig,
    expected: &SimStats,
    target: ObsTarget<'_>,
    settings: &ObsSettings,
) -> Result<Vec<String>, Error> {
    let mut probe = ObsProbe::new(ObsConfig {
        sample_interval: settings.sample_interval,
        ring_capacity: RING_CAPACITY,
    });
    std::fs::create_dir_all(&settings.dir)
        .map_err(|e| obs_err(&format!("creating {}", settings.dir.display()), e))?;

    let observed = check_companion(trace, cfg, expected, ("obs", target.stem), |p, trace| {
        p.run_packed_observed(trace, &mut probe)
    });
    probe.finish();
    let observed = match observed {
        Err(Error::Sim(e)) => {
            let name = format!("{}.postmortem.txt", target.stem);
            let rendered = render_postmortem(target.stem, &e, probe.ring());
            let path = settings.dir.join(&name);
            std::fs::write(&path, rendered)
                .map_err(|io| obs_err(&format!("writing {}", path.display()), io))?;
            return Err(Error::Sim(e));
        }
        other => other?,
    };

    let series_name = format!("{}.series.json", target.stem);
    let trace_name = format!("{}.trace.json", target.stem);
    let series = series_json(target, observed.stats.cycles, &probe);
    let chrome = chrome_trace_json(probe.ring());
    for (name, json) in [(&series_name, series), (&trace_name, chrome)] {
        let path = settings.dir.join(name);
        std::fs::write(&path, json.render() + "\n")
            .map_err(|e| obs_err(&format!("writing {}", path.display()), e))?;
    }
    Ok(vec![series_name, trace_name])
}

/// What a companion run returns: a probed run's [`SimResult`], or the
/// `(SimResult, report)` pair of [`Processor::run_packed_profiled`].
pub(crate) trait CompanionResult {
    /// The statistics that must equal the reference run's.
    fn stats(&self) -> &SimStats;
}

impl CompanionResult for SimResult {
    fn stats(&self) -> &SimStats {
        &self.stats
    }
}

impl<R> CompanionResult for (SimResult, R) {
    fn stats(&self) -> &SimStats {
        &self.0.stats
    }
}

/// Runs the checked companion of one store cell: charges the store's
/// uninstrumented `(req, cfg)` run to `cost`, runs `run` — a probed run
/// or [`Processor::run_packed_profiled`] — on the store-served trace,
/// and demands the store's statistics back bit for bit (observe, never
/// perturb). The companion's own cycles are not charged, so report
/// aggregates match a run without it. `explain`, `pipetrace`,
/// `profile` and the selftest identity stages run their companions
/// through here; `--obs` uses [`check_companion`] directly.
///
/// Returns the companion's result and the served trace.
///
/// # Errors
///
/// A [`SimError`] comes back unchanged as [`Error::Sim`]; a divergence
/// is an [`Error::Obs`] naming `tool`, `cell` and both cycle counts;
/// harness errors propagate.
pub(crate) fn companion<R: CompanionResult>(
    store: &TraceStore,
    req: &TraceRequest,
    cfg: &ProcessorConfig,
    cost: &mut CellCost,
    names: (&str, &str),
    run: impl FnOnce(&mut Processor, &PackedTrace) -> Result<R, SimError>,
) -> Result<(R, Arc<PackedTrace>), Error> {
    let expected = store.sim(req, cfg)?;
    cost.charge_sim(&expected);
    let (trace, _) = store.trace(req)?;
    let result = check_companion(&trace, cfg, &expected.stats, names, run)?;
    Ok((result, trace))
}

/// The check behind [`companion`], against given reference statistics
/// (the `--obs` exports pass the store's, or a fresh run's for a
/// scenario program).
fn check_companion<R: CompanionResult>(
    trace: &PackedTrace,
    cfg: &ProcessorConfig,
    expected: &SimStats,
    (tool, cell): (&str, &str),
    run: impl FnOnce(&mut Processor, &PackedTrace) -> Result<R, SimError>,
) -> Result<R, Error> {
    let result = run(&mut Processor::new(cfg.clone()), trace).map_err(Error::Sim)?;
    let observed = result.stats();
    if observed != expected {
        return Err(Error::Obs(format!(
            "{tool} {cell}: companion run diverged from the reference run \
             ({} vs {} cycles) — observation must not affect simulation",
            observed.cycles, expected.cycles
        )));
    }
    Ok(result)
}

fn render_postmortem(stem: &str, error: &SimError, ring: &EventRing) -> String {
    let mut out = format!(
        "instrumented run of {stem} failed: {error}\n\nlast {} lifecycle events \
         ({} older events dropped):\n\n",
        ring.len(),
        ring.dropped()
    );
    if let Some((lo, hi)) = ring.seq_range() {
        let log = ring.to_log();
        out.push_str(&mcl_core::render_pipeline(
            &log,
            PipeViewOptions { first_seq: lo, last_seq: hi, max_cycles: 200 },
        ));
    } else {
        out.push_str("(no events retained)\n");
    }
    out
}

fn histogram_json(h: &mcl_core::Histogram) -> Json {
    let mut obj = Json::object();
    obj.field("count", h.count().into())
        .field("sum", h.sum().into())
        .field("min", h.min().map_or(Json::Null, Json::U64))
        .field("max", h.max().map_or(Json::Null, Json::U64))
        .field("mean", h.mean().map_or(Json::Null, Json::F64))
        .field(
            "buckets",
            Json::Array(
                h.nonzero_buckets()
                    .map(|(_, lo, hi, count)| {
                        let mut b = Json::object();
                        b.field("lo", lo.into())
                            .field("hi", hi.map_or(Json::Null, Json::U64))
                            .field("count", count.into());
                        b
                    })
                    .collect(),
            ),
        );
    obj
}

fn u32_array(values: &[u32; 2]) -> Json {
    Json::Array(values.iter().map(|&v| Json::U64(u64::from(v))).collect())
}

fn i64_array(values: &[i64; 2]) -> Json {
    // The emitter has no integer-with-sign variant; free-list counts fit
    // f64 exactly (they are small) and render with a fixed fraction.
    Json::Array(values.iter().map(|&v| Json::F64(v as f64)).collect())
}

fn series_json(target: ObsTarget<'_>, cycles: u64, probe: &ObsProbe) -> Json {
    let samples: Vec<Json> = probe
        .samples()
        .iter()
        .map(|s| {
            let mut stalls = Json::object();
            for cause in StallCause::ALL {
                stalls.field(cause.name(), s.stalls[cause.index()].into());
            }
            let mut sample = Json::object();
            sample
                .field("cycle_end", s.cycle_end.into())
                .field("cycles", s.cycles.into())
                .field("ipc", s.ipc().into())
                .field("retired", s.retired.into())
                .field("dispatched", s.dispatched.into())
                .field("issued", s.issued.into())
                .field("replays", s.replays.into())
                .field("stalls", stalls)
                .field("window", u64::from(s.window).into())
                .field("dq_used", u32_array(&s.dq_used))
                .field("otb_used", u32_array(&s.otb_used))
                .field("rtb_used", u32_array(&s.rtb_used))
                .field("int_free", i64_array(&s.int_free))
                .field("fp_free", i64_array(&s.fp_free));
            sample
        })
        .collect();
    let mut histograms = Json::object();
    for (name, h) in probe.histograms() {
        histograms.field(name, histogram_json(h));
    }
    let ring = probe.ring();
    let mut ring_json = Json::object();
    ring_json
        .field("capacity", (ring.capacity() as u64).into())
        .field("len", (ring.len() as u64).into())
        .field("dropped", ring.dropped().into());
    let mut obj = Json::object();
    obj.field("schema_version", SERIES_SCHEMA_VERSION.into())
        .field("benchmark", target.stem.into())
        .field("config", target.config_label.into())
        .field("scheduler", target.sched_label.into())
        .field("sample_interval", probe.sample_interval().into())
        .field("cycles", cycles.into())
        .field("samples", Json::Array(samples))
        .field("histograms", histograms)
        .field("ring", ring_json);
    obj
}

/// Stable event names for the Chrome trace export.
fn kind_slug(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Distributed => "distributed",
        EventKind::MasterIssued => "master_issued",
        EventKind::SlaveIssued => "slave_issued",
        EventKind::ExecDone => "exec_done",
        EventKind::OperandWritten => "operand_written",
        EventKind::ResultWritten => "result_written",
        EventKind::RegWritten => "reg_written",
        EventKind::SlaveSuspended => "slave_suspended",
        EventKind::SlaveWoke => "slave_woke",
        EventKind::Retired => "retired",
        EventKind::Mispredicted => "mispredicted",
        EventKind::ReplaySquashed => "replay_squashed",
    }
}

/// Renders the ring as Chrome trace-event JSON: one `ph:"i"` instant per
/// lifecycle event (`ts` = cycle, `pid` = cluster, `tid` = instruction
/// sequence number) plus one `ph:"X"` span per instruction whose
/// dispatch *and* retire both survive in the ring.
fn chrome_trace_json(ring: &EventRing) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(ring.len());
    // seq -> (dispatch cycle, dispatch pid, retire cycle)
    let mut spans: Vec<(u64, u64, u64, Option<u64>)> = Vec::new();
    for e in ring.iter() {
        let pid = e.cluster.map_or(0, |c| c.index() as u64);
        let mut obj = Json::object();
        obj.field("name", kind_slug(e.kind).into())
            .field("cat", "lifecycle".into())
            .field("ph", "i".into())
            .field("ts", e.cycle.into())
            .field("pid", pid.into())
            .field("tid", e.seq.into())
            .field("s", "t".into());
        events.push(obj);
        match e.kind {
            EventKind::Distributed if !spans.iter().any(|(seq, ..)| *seq == e.seq) => {
                spans.push((e.seq, e.cycle, pid, None));
            }
            EventKind::Retired => {
                if let Some(span) = spans.iter_mut().find(|(seq, ..)| *seq == e.seq) {
                    span.3 = Some(e.cycle);
                }
            }
            _ => {}
        }
    }
    for (seq, dispatch, pid, retire) in spans {
        let Some(retire) = retire else { continue };
        let mut obj = Json::object();
        obj.field("name", format!("seq {seq}").as_str().into())
            .field("cat", "lifetime".into())
            .field("ph", "X".into())
            .field("ts", dispatch.into())
            .field("dur", retire.saturating_sub(dispatch).max(1).into())
            .field("pid", pid.into())
            .field("tid", seq.into());
        events.push(obj);
    }
    chrome_trace_document(events)
}

/// Wraps pre-built trace events in the Chrome trace document shape
/// every trace export in this crate shares (`--obs` per-cell traces and
/// the `--flight` whole-run recording).
pub(crate) fn chrome_trace_document(events: Vec<Json>) -> Json {
    let mut obj = Json::object();
    obj.field("traceEvents", Json::Array(events)).field("displayTimeUnit", "ns".into());
    obj
}

fn parse_file(path: &Path) -> Result<Json, Error> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| obs_err(&format!("reading {}", path.display()), e))?;
    Json::parse(&text).map_err(|e| obs_err(&format!("{}", path.display()), e))
}

fn require(ok: bool, path: &Path, what: &str) -> Result<(), Error> {
    if ok {
        Ok(())
    } else {
        Err(obs_err(&format!("{}", path.display()), what))
    }
}

/// The five histogram keys every series export must carry.
const HISTOGRAM_KEYS: [&str; 5] = [
    "dispatch_to_issue",
    "issue_to_complete",
    "complete_to_retire",
    "otb_residency",
    "rtb_residency",
];

fn validate_series(path: &Path) -> Result<(), Error> {
    let doc = parse_file(path)?;
    require(
        doc.get("schema_version").and_then(Json::as_u64) == Some(SERIES_SCHEMA_VERSION),
        path,
        "schema_version missing or unsupported",
    )?;
    let samples = doc
        .get("samples")
        .and_then(Json::as_array)
        .ok_or_else(|| obs_err(&format!("{}", path.display()), "samples is not an array"))?;
    for s in samples {
        require(
            s.get("cycle_end").and_then(Json::as_u64).is_some()
                && s.get("ipc").and_then(Json::as_f64).is_some()
                && s.get("stalls").and_then(|v| v.get("replay")).is_some(),
            path,
            "sample missing cycle_end/ipc/stalls",
        )?;
    }
    for key in HISTOGRAM_KEYS {
        let h = doc
            .get("histograms")
            .and_then(|v| v.get(key))
            .ok_or_else(|| obs_err(&format!("{}", path.display()), format!("histogram {key} missing")))?;
        require(
            h.get("count").and_then(Json::as_u64).is_some()
                && h.get("buckets").and_then(Json::as_array).is_some(),
            path,
            "histogram missing count/buckets",
        )?;
    }
    Ok(())
}

pub(crate) fn validate_trace(path: &Path) -> Result<usize, Error> {
    let doc = parse_file(path)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| obs_err(&format!("{}", path.display()), "traceEvents is not an array"))?;
    require(!events.is_empty(), path, "traceEvents is empty")?;
    for e in events {
        require(
            e.get("ph").and_then(Json::as_str).is_some()
                && e.get("ts").and_then(Json::as_f64).is_some()
                && e.get("pid").and_then(Json::as_f64).is_some(),
            path,
            "trace event missing ph/ts/pid",
        )?;
    }
    Ok(events.len())
}

/// Validates one export file, returning the Chrome trace events it
/// counted toward the [`validate_dir`] summary (zero for other kinds).
type Validator = fn(&Path) -> Result<usize, Error>;

/// The export kinds [`validate_dir`] checks, by file-name suffix. The
/// first matching suffix wins, so `.flight.json` precedes `.trace.json`
/// and a flight recording never trips the series/trace pairing rule.
const EXPORT_KINDS: [(&str, Validator); 7] = [
    (".series.json", |p| validate_series(p).map(|()| 0)),
    (".flight.json", |p| crate::flight::validate_flight(p).map(|_| 0)),
    (".pipetrace.json", |p| crate::pipetrace::validate_pipetrace(p).map(|()| 0)),
    (".konata", |p| crate::pipetrace::validate_konata(p).map(|()| 0)),
    (".trace.json", validate_trace),
    (".critpath.json", |p| crate::explain::validate_critpath(p).map(|()| 0)),
    (".hostprof.json", |p| crate::profile::validate_hostprof(p).map(|()| 0)),
];

/// Validates a directory of exports: every `*.series.json` and
/// `*.trace.json` (from `--obs`), every `*.critpath.json` (from
/// `repro explain`), every `*.hostprof.json` (from `repro profile`),
/// every `*.pipetrace.json` and `*.konata` (from `repro pipetrace`),
/// and every `*.flight.json` (from `--flight`) must parse and carry
/// the expected schema — for critpath, hostprof, and pipetrace exports
/// that includes re-checking the identity guarantees from the file.
/// Returns a one-line summary.
///
/// An empty or missing directory is a hard failure, never a vacuous
/// pass: `repro obs-validate` exists to prove exports were produced.
/// Every file is checked even after the first failure, so one pass
/// reports ALL invalid exports, not just the lexicographically first.
///
/// # Errors
///
/// [`Error::Obs`] when the directory is unreadable or holds no exports,
/// or — listing every failing file — when any export fails validation.
pub fn validate_dir(dir: &Path) -> Result<String, Error> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| obs_err(&format!("reading {}", dir.display()), e))?;
    let mut names: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    names.sort();
    // Validation failures accumulate: a directory with three broken
    // exports reports all three, not just the first one hit.
    let mut failures: Vec<String> = Vec::new();
    let mut counts = [0usize; EXPORT_KINDS.len()];
    let mut trace_events = 0;
    for path in &names {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let Some(kind) = EXPORT_KINDS.iter().position(|(suffix, _)| name.ends_with(suffix)) else {
            continue;
        };
        counts[kind] += 1;
        match (EXPORT_KINDS[kind].1)(path) {
            Ok(events) => trace_events += events,
            Err(e) => failures.push(e.to_string()),
        }
    }
    if !failures.is_empty() {
        return Err(obs_err(
            &format!("{}", dir.display()),
            format!("{} invalid export(s):\n  {}", failures.len(), failures.join("\n  ")),
        ));
    }
    if counts.iter().all(|&n| n == 0) {
        return Err(obs_err(
            &format!("{}", dir.display()),
            "no observability exports found (empty or missing exports are a failure, \
             not a vacuous pass)",
        ));
    }
    let [series, flights, pipetraces, konatas, traces, critpaths, hostprofs] = counts;
    // `--obs` always writes series and trace files in pairs; a lone kind
    // means a partial or corrupted export run.
    if (series == 0) != (traces == 0) {
        return Err(obs_err(
            &format!("{}", dir.display()),
            format!("expected both export kinds, found {series} series and {traces} trace files"),
        ));
    }
    Ok(format!(
        "{series} series file(s), {traces} Chrome trace file(s) ({trace_events} events), \
         {critpaths} critpath attribution file(s), {hostprofs} hostprof profile(s), \
         {pipetraces} pipetrace export(s), {konatas} Konata trace(s), \
         and {flights} flight recording(s) valid"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_isa::ClusterId;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("mcl-obs-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn chrome_trace_events_carry_ph_ts_pid() {
        let mut ring = EventRing::new(16);
        ring.push(10, 3, Some(ClusterId::C0), EventKind::Distributed);
        ring.push(12, 3, Some(ClusterId::C1), EventKind::SlaveIssued);
        ring.push(13, 3, Some(ClusterId::C0), EventKind::MasterIssued);
        ring.push(20, 3, None, EventKind::Retired);
        let rendered = chrome_trace_json(&ring).render();
        // Parse what we just emitted and check the Chrome trace schema.
        let doc = Json::parse(&rendered).expect("export parses");
        let events = doc.get("traceEvents").and_then(Json::as_array).expect("array");
        // Four instants plus one lifetime span (dispatch + retire seen).
        assert_eq!(events.len(), 5);
        for e in events {
            assert!(e.get("ph").and_then(Json::as_str).is_some(), "ph present");
            assert!(e.get("ts").and_then(Json::as_f64).is_some(), "ts numeric");
            assert!(e.get("pid").and_then(Json::as_f64).is_some(), "pid numeric");
        }
        let span = events.last().unwrap();
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(span.get("ts").and_then(Json::as_u64), Some(10));
        assert_eq!(span.get("dur").and_then(Json::as_u64), Some(10));
        assert_eq!(span.get("tid").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn observe_cell_exports_validate_and_stats_stay_identical() {
        let dir = temp_dir("cell");
        let store = TraceStore::new();
        let settings = ObsSettings { dir: dir.clone(), sample_interval: 256 };
        let written = observe_cell(&store, Benchmark::Compress, 40, &settings).unwrap();
        assert_eq!(written, ["compress.series.json", "compress.trace.json"]);
        let summary = validate_dir(&dir).unwrap();
        assert!(summary.contains("1 series"), "{summary}");
        // Spot-check the series export round-trips through the parser.
        let doc = parse_file(&dir.join("compress.series.json")).unwrap();
        assert_eq!(doc.get("benchmark").and_then(Json::as_str), Some("compress"));
        assert_eq!(doc.get("sample_interval").and_then(Json::as_u64), Some(256));
        assert!(doc.get("cycles").and_then(Json::as_u64).unwrap() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_dir_rejects_missing_or_malformed_exports() {
        let dir = temp_dir("bad");
        assert!(validate_dir(&dir).is_err(), "empty dir has no exports");
        std::fs::write(dir.join("x.series.json"), "{\"schema_version\":99}").unwrap();
        std::fs::write(dir.join("x.trace.json"), "{\"traceEvents\":[]}").unwrap();
        assert!(validate_dir(&dir).is_err(), "wrong schema_version must fail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_dir_reports_every_invalid_export_not_just_the_first() {
        let dir = temp_dir("multi");
        std::fs::write(dir.join("a.konata"), "not a konata file").unwrap();
        std::fs::write(dir.join("b.pipetrace.json"), "{\"schema_version\":99}").unwrap();
        std::fs::write(dir.join("c.critpath.json"), "{").unwrap();
        let err = validate_dir(&dir).unwrap_err().to_string();
        assert!(err.contains("3 invalid export(s)"), "{err}");
        for name in ["a.konata", "b.pipetrace.json", "c.critpath.json"] {
            assert!(err.contains(name), "missing {name} in: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
