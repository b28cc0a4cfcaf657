//! `repro pipetrace` — per-instruction pipeline lifecycle exports.
//!
//! For each benchmark this module reruns the dual-cluster /
//! local-scheduler Table 2 cell with a [`PipeTraceProbe`] attached and
//! turns the recorded lifecycles into two artifacts:
//!
//! - `<bench>.konata` — a Kanata/O3-pipeview text trace viewable in the
//!   stock Konata viewer: one record per retired op (and per flushed
//!   incarnation), staged `F → D → X → Cm`, with `W` dependency lines
//!   for every inter-cluster operand delivery;
//! - `<bench>.pipetrace.json` (schema 1) — the machine-readable
//!   lifecycle list plus the dataflow edge list (producer → consumer,
//!   delivery cycle, crossed buffer, occupancy at send), validated by
//!   `repro obs-validate`.
//!
//! With `--baseline CONFIG` the export turns differential: the same
//! architectural instruction stream is retired by the baseline cell
//! (spill ops the local scheduler inserted are excluded from
//! alignment), and each aligned op gets a *slip* — the change in its
//! retire-to-retire gap against the baseline. Slips telescope: their
//! sum is exactly the difference of the final retire cycles, so "op X
//! contributes +40 cycles of the slowdown" is an identity, not an
//! estimate.
//!
//! Like every probe layer, the instrumented runs are companions: the
//! reported statistics come from the uninstrumented store simulation
//! and the two are cross-checked for byte identity, and the probe's
//! [`PipeTrace::check_identity`] enforces retire exactness (every
//! retired op exactly once, monotone lifecycle, well-formed edges,
//! count equal to `SimStats` retirements).

use std::path::Path;
use std::sync::Arc;

use mcl_core::{PipeTrace, PipeTraceProbe, Processor, ProcessorConfig, TransferKind};
use mcl_sched::SchedulerKind;
use mcl_trace::PackedTrace;
use mcl_workloads::Benchmark;

use crate::explain::Baseline;
use crate::json::Json;
use crate::runner::CellCost;
use crate::store::TraceRequest;
use crate::{Error, TraceStore};

/// Schema version of the `*.pipetrace.json` exports.
pub const PIPETRACE_SCHEMA_VERSION: u64 = 1;

/// Slips kept in the JSON export (the full ranking is summarized by
/// `slip_total`, which is exact).
const MAX_SLIPS: usize = 100;

fn pt_err(stem: &str, detail: impl std::fmt::Display) -> Error {
    Error::Obs(format!("pipetrace {stem}: {detail}"))
}

/// Parses a `--range A..B` value: `A..B`, `A..` (to the end) or `..B`
/// (from the start), with `A <= B`.
///
/// # Errors
///
/// A usage message describing the accepted forms.
pub fn parse_range(s: &str) -> Result<(u64, u64), String> {
    let usage = || format!("invalid --range `{s}` (expected `A..B`, `A..`, or `..B`)");
    let (a, b) = s.split_once("..").ok_or_else(usage)?;
    let start = if a.is_empty() { 0 } else { a.parse::<u64>().map_err(|_| usage())? };
    let end =
        if b.is_empty() { u64::MAX } else { b.parse::<u64>().map_err(|_| usage())? };
    if start >= end {
        return Err(format!("invalid --range `{s}` (start must be below end)"));
    }
    Ok((start, end))
}

/// One traced run: its identity, headline statistics, the lifecycle
/// snapshot, and the packed trace for op metadata (pc, mnemonic).
struct TracedRun {
    config_label: &'static str,
    sched_label: &'static str,
    cycles: u64,
    retired: u64,
    ipc: f64,
    trace: PipeTrace,
    ops: Arc<PackedTrace>,
}

/// Runs one `(request, configuration)` pair instrumented with a
/// [`PipeTraceProbe`], cross-checks byte identity against the store's
/// uninstrumented run, and enforces the retire-exactness identity.
fn traced_run(
    store: &TraceStore,
    stem: &str,
    req: &TraceRequest,
    cfg: &ProcessorConfig,
    labels: (&'static str, &'static str),
    range: (u64, u64),
    cost: &mut CellCost,
) -> Result<TracedRun, Error> {
    let expected = store.sim(req, cfg)?;
    cost.charge_sim(&expected);
    let (trace, _) = store.trace(req)?;
    let mut probe = PipeTraceProbe::new(range.0, range.1);
    let observed = Processor::new(cfg.clone())
        .run_packed_observed(&trace, &mut probe)
        .map_err(Error::Sim)?;
    // Observe, never perturb: the companion's cycles are deliberately
    // not charged, so report aggregates match a probe-free run.
    if observed.stats != expected.stats {
        return Err(pt_err(
            stem,
            format!(
                "instrumented run diverged from the store run ({} vs {} cycles) — \
                 probes must not affect simulation",
                observed.stats.cycles, expected.stats.cycles
            ),
        ));
    }
    let pipetrace = probe.finish();
    pipetrace.check_identity(observed.stats.retired).map_err(|e| pt_err(stem, e))?;
    Ok(TracedRun {
        config_label: labels.0,
        sched_label: labels.1,
        cycles: observed.stats.cycles,
        retired: observed.stats.retired,
        ipc: observed.stats.ipc(),
        trace: pipetrace,
        ops: trace,
    })
}

/// One aligned target-vs-baseline retirement with its slip: the change
/// of this op's retire-to-retire gap against the baseline. Slips
/// telescope — summed over the aligned stream they equal the final
/// retire-cycle difference exactly.
#[derive(Debug, Clone)]
struct Slip {
    seq: u64,
    pc: u64,
    slip: i64,
    retire_target: u64,
    retire_baseline: u64,
}

/// Aligns the architectural (non-scheduler-inserted) retired stream of
/// the target against the baseline and computes per-op slips.
fn compute_slips(
    stem: &str,
    target: &TracedRun,
    base: &TracedRun,
) -> Result<(Vec<Slip>, i64), Error> {
    // The baseline's aligned stream: retire cycles of its architectural
    // ops, in order.
    let aligned: Vec<(u64, u64)> = base
        .trace
        .ops
        .iter()
        .filter(|o| !o.sched_inserted)
        .map(|o| (base.ops.get(o.seq as usize).pc, o.retire))
        .collect();
    // Architectural ops the target's range skipped over.
    let skipped = (0..target.trace.range_start.min(target.ops.len() as u64))
        .filter(|&i| !target.ops.get(i as usize).sched_inserted)
        .count();
    let mut slips = Vec::new();
    let (mut prev_t, mut prev_b) = (0u64, 0u64);
    for (k, op) in
        target.trace.ops.iter().filter(|o| !o.sched_inserted).enumerate()
    {
        let pc = target.ops.get(op.seq as usize).pc;
        let Some(&(bpc, bretire)) = aligned.get(skipped + k) else {
            return Err(pt_err(
                stem,
                format!("target op {} has no baseline counterpart", op.seq),
            ));
        };
        if pc != bpc {
            return Err(pt_err(
                stem,
                format!(
                    "alignment drifted at op {}: target pc {pc:#x}, baseline pc {bpc:#x}",
                    op.seq
                ),
            ));
        }
        let slip = (op.retire - prev_t) as i64 - (bretire - prev_b) as i64;
        slips.push(Slip {
            seq: op.seq,
            pc,
            slip,
            retire_target: op.retire,
            retire_baseline: bretire,
        });
        (prev_t, prev_b) = (op.retire, bretire);
    }
    let total = prev_t as i64 - prev_b as i64;
    let sum: i64 = slips.iter().map(|s| s.slip).sum();
    if sum != total {
        return Err(pt_err(
            stem,
            format!("slips sum to {sum}, final retire drift is {total} — not telescoping"),
        ));
    }
    slips.sort_by(|a, b| b.slip.abs().cmp(&a.slip.abs()).then(a.seq.cmp(&b.seq)));
    Ok((slips, total))
}

/// Runs the pipetrace cell of one benchmark: traces the dual-cluster
/// local-scheduler run (and the baseline, when given), writes
/// `<bench>.konata` and `<bench>.pipetrace.json` into `dir`, and
/// returns the rendered text report plus the cell cost.
///
/// # Errors
///
/// [`Error::Obs`] when the retire-exactness identity fails, the
/// instrumented run diverges from the store run, baseline alignment
/// drifts, or an export cannot be written; harness errors propagate.
pub fn pipetrace_cell(
    store: &TraceStore,
    bench: Benchmark,
    scale: u32,
    dir: &Path,
    range: (u64, u64),
    baseline: Option<Baseline>,
) -> Result<(String, CellCost), Error> {
    let mut cost = CellCost::default();
    let target = traced_run(
        store,
        bench.name(),
        &TraceRequest::new(bench, scale, SchedulerKind::Local),
        &ProcessorConfig::dual_cluster_8way(),
        ("dual_cluster_8way", "local"),
        range,
        &mut cost,
    )?;
    // The baseline records the full run: alignment needs its whole
    // architectural retire stream whatever the target range is.
    let base = baseline
        .map(|b| {
            traced_run(
                store,
                &format!("{} baseline", bench.name()),
                &b.request(bench, scale),
                &b.config(),
                b.labels(),
                (0, u64::MAX),
                &mut cost,
            )
        })
        .transpose()?;
    let slips = base
        .as_ref()
        .map(|b| compute_slips(bench.name(), &target, b))
        .transpose()?;

    std::fs::create_dir_all(dir)
        .map_err(|e| pt_err(bench.name(), format!("creating {}: {e}", dir.display())))?;
    let konata_path = dir.join(format!("{}.konata", bench.name()));
    std::fs::write(&konata_path, render_konata(&target))
        .map_err(|e| pt_err(bench.name(), format!("writing {}: {e}", konata_path.display())))?;
    let json_path = dir.join(format!("{}.pipetrace.json", bench.name()));
    let doc = pipetrace_json(bench, &target, baseline, base.as_ref(), slips.as_ref());
    std::fs::write(&json_path, doc.render() + "\n")
        .map_err(|e| pt_err(bench.name(), format!("writing {}: {e}", json_path.display())))?;

    Ok((render_cell(bench, &target, baseline, base.as_ref(), slips.as_ref()), cost))
}

// -- Konata export ----------------------------------------------------------

/// Renders the Kanata 0004 text trace: `I`/`L` declarations, `S` stage
/// starts (`F` fetch, `D` dispatch/wait, `X` execute, `Cm` completed),
/// `R` retires (type 0) and flushes (type 1), and `W` dependency lines
/// for inter-cluster operand deliveries — all in cycle order, the way
/// the stock viewer expects.
fn render_konata(run: &TracedRun) -> String {
    use std::fmt::Write as _;
    let pt = &run.trace;
    // (cycle, text) events; a stable sort keeps per-record lifecycle
    // order inside a cycle.
    let mut events: Vec<(u64, String)> = Vec::new();
    let first_seq = pt.ops.first().map_or(0, |o| o.seq);
    for (k, op) in pt.ops.iter().enumerate() {
        let id = k as u64;
        let top = run.ops.get(op.seq as usize);
        let mut decl = String::new();
        let _ = writeln!(decl, "I\t{id}\t{}\t0", op.seq);
        let _ = writeln!(decl, "L\t{id}\t0\t{:#x}: {}", top.pc, top.op.mnemonic());
        let mut tip = format!("cluster {}", op.master);
        if let Some(s) = op.slave {
            let _ = write!(tip, " + slave {s}");
        }
        if op.replays > 0 {
            let _ = write!(tip, ", {} replay(s)", op.replays);
        }
        if op.load_miss {
            tip.push_str(", load miss");
        }
        if let Some(cause) = op.dispatch_stall {
            let _ = write!(tip, ", dispatch stalled on {}", cause.name());
        }
        if op.blocked_width + op.blocked_otb + op.blocked_rtb > 0 {
            let _ = write!(
                tip,
                ", issue blocked {}w/{}otb/{}rtb",
                op.blocked_width, op.blocked_otb, op.blocked_rtb
            );
        }
        if op.sched_inserted {
            tip.push_str(", sched-inserted");
        }
        let _ = writeln!(decl, "L\t{id}\t1\t{tip}");
        let _ = writeln!(decl, "S\t{id}\t0\tF");
        events.push((op.fetch, decl));
        events.push((op.dispatch, format!("S\t{id}\t0\tD\n")));
        events.push((op.issue, format!("S\t{id}\t0\tX\n")));
        events.push((op.complete, format!("S\t{id}\t0\tCm\n")));
        events.push((op.retire, format!("E\t{id}\t0\tCm\nR\t{id}\t{k}\t0\n")));
    }
    for (j, f) in pt.flushed.iter().enumerate() {
        let id = (pt.ops.len() + j) as u64;
        let top = run.ops.get(f.seq as usize);
        let mut decl = String::new();
        let _ = writeln!(decl, "I\t{id}\t{}\t0", f.seq);
        let _ = writeln!(decl, "L\t{id}\t0\t{:#x}: {} (flushed)", top.pc, top.op.mnemonic());
        let _ = writeln!(decl, "S\t{id}\t0\tF");
        events.push((f.fetch, decl));
        if let Some(d) = f.dispatch {
            events.push((d, format!("S\t{id}\t0\tD\n")));
        }
        if let Some(i) = f.issue {
            events.push((i, format!("S\t{id}\t0\tX\n")));
        }
        events.push((f.squash, format!("R\t{id}\t0\t1\n")));
    }
    for e in &pt.edges {
        // 0 = result forward (RTB), 1 = operand forward (OTB).
        let kind = match e.kind {
            TransferKind::Result => 0,
            TransferKind::Operand => 1,
        };
        let (cid, pid) = (e.consumer - first_seq, e.producer - first_seq);
        events.push((e.deliver, format!("W\t{cid}\t{pid}\t{kind}\n")));
    }
    events.sort_by_key(|&(cycle, _)| cycle);

    let mut out = String::from("Kanata\t0004\n");
    let mut now = events.first().map_or(0, |&(c, _)| c);
    let _ = writeln!(out, "C=\t{now}");
    for (cycle, text) in events {
        if cycle > now {
            let _ = writeln!(out, "C\t{}", cycle - now);
            now = cycle;
        }
        out.push_str(&text);
    }
    out
}

// -- JSON export ------------------------------------------------------------

fn run_json(run: &TracedRun) -> Json {
    let mut obj = Json::object();
    obj.field("config", run.config_label.into())
        .field("scheduler", run.sched_label.into())
        .field("cycles", run.cycles.into())
        .field("retired", run.retired.into())
        .field("ipc", run.ipc.into());
    obj
}

fn pipetrace_json(
    bench: Benchmark,
    target: &TracedRun,
    baseline: Option<Baseline>,
    base: Option<&TracedRun>,
    slips: Option<&(Vec<Slip>, i64)>,
) -> Json {
    let pt = &target.trace;
    let mut range = Json::object();
    range.field("start", pt.range_start.into()).field(
        "end",
        if pt.range_end == u64::MAX { Json::Null } else { pt.range_end.into() },
    );

    let mut ops = Vec::with_capacity(pt.ops.len());
    for op in &pt.ops {
        let top = target.ops.get(op.seq as usize);
        let mut o = Json::object();
        o.field("seq", op.seq.into())
            .field("pc", top.pc.into())
            .field("op", top.op.mnemonic().into())
            .field("fetch", op.fetch.into())
            .field("dispatch", op.dispatch.into())
            .field("issue", op.issue.into())
            .field("complete", op.complete.into())
            .field("retire", op.retire.into())
            .field("cluster", (op.master.index() as u64).into())
            .field("slave", match op.slave {
                Some(s) => (s.index() as u64).into(),
                None => Json::Null,
            })
            .field("replays", u64::from(op.replays).into())
            .field("sched_inserted", op.sched_inserted.into())
            .field("load_miss", op.load_miss.into())
            .field("dispatch_stall", match op.dispatch_stall {
                Some(c) => c.name().into(),
                None => Json::Null,
            });
        if op.blocked_width + op.blocked_otb + op.blocked_rtb > 0 {
            let mut blocked = Json::object();
            blocked
                .field("width", u64::from(op.blocked_width).into())
                .field("otb", u64::from(op.blocked_otb).into())
                .field("rtb", u64::from(op.blocked_rtb).into());
            o.field("issue_blocked", blocked);
        }
        ops.push(o);
    }

    let mut edges = Vec::with_capacity(pt.edges.len());
    for e in &pt.edges {
        let mut obj = Json::object();
        obj.field("producer", e.producer.into())
            .field("consumer", e.consumer.into())
            .field("deliver", e.deliver.into())
            .field(
                "buffer",
                match e.kind {
                    TransferKind::Operand => "operand",
                    TransferKind::Result => "result",
                }
                .into(),
            )
            .field("occupancy", u64::from(e.occupancy).into());
        edges.push(obj);
    }

    let mut doc = Json::object();
    doc.field("schema_version", PIPETRACE_SCHEMA_VERSION.into())
        .field("benchmark", bench.name().into())
        .field("range", range)
        .field("target", run_json(target))
        .field("flushed", (pt.flushed.len() as u64).into())
        .field("ops", Json::Array(ops))
        .field("edges", Json::Array(edges));
    match (baseline, base, slips) {
        (Some(b), Some(base), Some((slips, total))) => {
            let mut diff = run_json(base);
            diff.field("name", b.name().into())
                .field("slip_total", (*total).into())
                .field("aligned_ops", (slips.len() as u64).into());
            let mut top = Vec::new();
            for s in slips.iter().take(MAX_SLIPS) {
                let mut obj = Json::object();
                obj.field("seq", s.seq.into())
                    .field("pc", s.pc.into())
                    .field("slip", s.slip.into())
                    .field("retire_target", s.retire_target.into())
                    .field("retire_baseline", s.retire_baseline.into());
                top.push(obj);
            }
            diff.field("slips", Json::Array(top));
            doc.field("baseline", diff);
        }
        _ => {
            doc.field("baseline", Json::Null);
        }
    }
    doc
}

// -- rendered report --------------------------------------------------------

fn render_cell(
    bench: Benchmark,
    target: &TracedRun,
    baseline: Option<Baseline>,
    base: Option<&TracedRun>,
    slips: Option<&(Vec<Slip>, i64)>,
) -> String {
    use std::fmt::Write as _;
    let pt = &target.trace;
    let mut out = String::new();
    let range = if pt.range_end == u64::MAX {
        format!("{}..", pt.range_start)
    } else {
        format!("{}..{}", pt.range_start, pt.range_end)
    };
    let _ = writeln!(
        out,
        "{}: {} op(s) traced (range {range}) of {} retired, {} cycles, IPC {:.2}",
        bench.name(),
        pt.ops.len(),
        target.retired,
        target.cycles,
        target.ipc
    );
    let replays: u64 = pt.ops.iter().map(|o| u64::from(o.replays)).sum();
    let _ = writeln!(
        out,
        "  {} inter-cluster edge(s) ({} operand, {} result), {} flushed incarnation(s), {} replay(s)",
        pt.edges.len(),
        pt.edges.iter().filter(|e| e.kind == TransferKind::Operand).count(),
        pt.edges.iter().filter(|e| e.kind == TransferKind::Result).count(),
        pt.flushed.len(),
        replays
    );
    if let (Some(b), Some(base), Some((slips, total))) = (baseline, base, slips) {
        let _ = writeln!(
            out,
            "  vs {} ({} cycles): retire drift {total:+} cycle(s) over {} aligned op(s)",
            b.name(),
            base.cycles,
            slips.len()
        );
        for s in slips.iter().take(5) {
            if s.slip == 0 {
                break;
            }
            let top = target.ops.get(s.seq as usize);
            let _ = writeln!(
                out,
                "    seq {:>6} {:#010x} {:<10} {:>+6} cycle(s)",
                s.seq,
                s.pc,
                top.op.mnemonic(),
                s.slip
            );
        }
    }
    out
}

// -- validation -------------------------------------------------------------

/// Validates one `*.pipetrace.json` export: schema version, a dense
/// monotone op list consistent with the declared range and retirement
/// count, referentially-intact edges, and a sane baseline block.
///
/// # Errors
///
/// [`Error::Obs`] describing the first violation.
pub fn validate_pipetrace(path: &Path) -> Result<(), Error> {
    let stem = path.display().to_string();
    let text =
        std::fs::read_to_string(path).map_err(|e| pt_err(&stem, format!("reading: {e}")))?;
    let doc = Json::parse(&text).map_err(|e| pt_err(&stem, e))?;
    let fail = |what: String| pt_err(&stem, what);
    if doc.get("schema_version").and_then(Json::as_u64) != Some(PIPETRACE_SCHEMA_VERSION) {
        return Err(fail("schema_version missing or unsupported".into()));
    }
    let retired = doc
        .get("target")
        .and_then(|t| t.get("retired"))
        .and_then(Json::as_u64)
        .ok_or_else(|| fail("target.retired missing".into()))?;
    let range = doc.get("range").ok_or_else(|| fail("range missing".into()))?;
    let start = range
        .get("start")
        .and_then(Json::as_u64)
        .ok_or_else(|| fail("range.start missing".into()))?;
    let end = match range.get("end") {
        Some(Json::Null) => u64::MAX,
        Some(v) => v.as_u64().ok_or_else(|| fail("range.end not an integer".into()))?,
        None => return Err(fail("range.end missing".into())),
    };
    let ops = doc
        .get("ops")
        .and_then(Json::as_array)
        .ok_or_else(|| fail("ops array missing".into()))?;
    let expected = end.min(retired) - start.min(retired);
    if ops.len() as u64 != expected {
        return Err(fail(format!(
            "{} op(s) recorded, range {start}..{end} of {retired} retired expects {expected}",
            ops.len()
        )));
    }
    let first = start.min(retired);
    let mut issue_by_index = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let num = |key: &str| {
            op.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| fail(format!("ops[{i}].{key} missing")))
        };
        let seq = num("seq")?;
        if seq != first + i as u64 {
            return Err(fail(format!(
                "ops[{i}].seq is {seq}, expected {} — retired ops appear exactly once, in order",
                first + i as u64
            )));
        }
        let stages = [
            ("fetch", num("fetch")?),
            ("dispatch", num("dispatch")?),
            ("issue", num("issue")?),
            ("complete", num("complete")?),
            ("retire", num("retire")?),
        ];
        for pair in stages.windows(2) {
            let ((a, at), (b, bt)) = (pair[0], pair[1]);
            if at > bt {
                return Err(fail(format!(
                    "ops[{i}] lifecycle not monotone: {a} {at} > {b} {bt}"
                )));
            }
        }
        issue_by_index.push(stages[2].1);
    }
    let edges = doc
        .get("edges")
        .and_then(Json::as_array)
        .ok_or_else(|| fail("edges array missing".into()))?;
    for (i, e) in edges.iter().enumerate() {
        let num = |key: &str| {
            e.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| fail(format!("edges[{i}].{key} missing")))
        };
        let (producer, consumer, deliver) = (num("producer")?, num("consumer")?, num("deliver")?);
        for (name, seq) in [("producer", producer), ("consumer", consumer)] {
            if seq < first || seq >= first + ops.len() as u64 {
                return Err(fail(format!(
                    "edges[{i}].{name} {seq} references no recorded op"
                )));
            }
        }
        if deliver > issue_by_index[(consumer - first) as usize] {
            return Err(fail(format!(
                "edges[{i}] delivered at {deliver} after consumer {consumer} issued"
            )));
        }
    }
    if let Some(base) = doc.get("baseline") {
        if !matches!(base, Json::Null) {
            let total = base
                .get("slip_total")
                .and_then(Json::as_i64)
                .ok_or_else(|| fail("baseline.slip_total missing".into()))?;
            let slips = base
                .get("slips")
                .and_then(Json::as_array)
                .ok_or_else(|| fail("baseline.slips missing".into()))?;
            let mut prev = i64::MAX;
            let mut sum = 0i64;
            for (i, s) in slips.iter().enumerate() {
                let slip = s
                    .get("slip")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| fail(format!("baseline.slips[{i}].slip missing")))?;
                if slip.abs() > prev {
                    return Err(fail(format!(
                        "baseline.slips[{i}] not ranked by contribution"
                    )));
                }
                prev = slip.abs();
                sum += slip;
            }
            // The export keeps only the top contributors; a complete
            // list must telescope exactly to the total.
            let aligned =
                base.get("aligned_ops").and_then(Json::as_u64).unwrap_or(slips.len() as u64);
            if aligned == slips.len() as u64 && sum != total {
                return Err(fail(format!(
                    "baseline slips sum to {sum}, slip_total is {total}"
                )));
            }
        }
    }
    Ok(())
}

/// Validates one `*.konata` export against the Kanata 0004 grammar the
/// stock viewer accepts: header, monotone cycle directives, and `L` /
/// `S` / `E` / `R` / `W` records referencing declared instruction ids,
/// with at most one retire per id.
///
/// # Errors
///
/// [`Error::Obs`] describing the first violation.
pub fn validate_konata(path: &Path) -> Result<(), Error> {
    let stem = path.display().to_string();
    let text =
        std::fs::read_to_string(path).map_err(|e| pt_err(&stem, format!("reading: {e}")))?;
    let fail = |line: usize, what: String| pt_err(&stem, format!("line {}: {what}", line + 1));
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, "Kanata\t0004")) => {}
        _ => return Err(pt_err(&stem, "missing `Kanata\\t0004` header")),
    }
    let mut declared = std::collections::HashSet::new();
    let mut retired = std::collections::HashSet::new();
    let mut cycle_set = false;
    for (i, line) in lines {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let tag = fields[0];
        let num_at = |idx: usize, name: &str| -> Result<u64, Error> {
            let v = fields
                .get(idx)
                .ok_or_else(|| fail(i, format!("{tag}: {name} missing")))?;
            v.parse::<u64>().map_err(|_| fail(i, format!("{tag}: bad {name} `{v}`")))
        };
        match tag {
            "C=" => {
                num_at(1, "cycle")?;
                cycle_set = true;
            }
            "C" => {
                if !cycle_set {
                    return Err(fail(i, "C before C=".into()));
                }
                num_at(1, "delta")?;
            }
            "I" => {
                let id = num_at(1, "id")?;
                if !declared.insert(id) {
                    return Err(fail(i, format!("instruction {id} declared twice")));
                }
            }
            "L" | "S" | "E" | "R" | "W" => {
                let id = num_at(1, "id")?;
                if !declared.contains(&id) {
                    return Err(fail(i, format!("{tag} references undeclared id {id}")));
                }
                if tag == "R" {
                    if !retired.insert(id) {
                        return Err(fail(i, format!("instruction {id} retired twice")));
                    }
                } else if tag == "W" {
                    let producer = num_at(2, "producer")?;
                    if !declared.contains(&producer) {
                        return Err(fail(
                            i,
                            format!("W references undeclared producer {producer}"),
                        ));
                    }
                } else if fields.len() < 4 {
                    return Err(fail(i, format!("{tag}: payload missing")));
                }
            }
            other => return Err(fail(i, format!("unknown record `{other}`"))),
        }
    }
    for id in &declared {
        if !retired.contains(id) {
            return Err(pt_err(&stem, format!("instruction {id} never retired or flushed")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("mcl-pipetrace-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_range_accepts_open_and_closed_forms() {
        assert_eq!(parse_range("10..20").unwrap(), (10, 20));
        assert_eq!(parse_range("10..").unwrap(), (10, u64::MAX));
        assert_eq!(parse_range("..20").unwrap(), (0, 20));
        assert!(parse_range("20..10").is_err());
        assert!(parse_range("5..5").is_err());
        assert!(parse_range("abc").is_err());
        assert!(parse_range("a..b").is_err());
    }

    #[test]
    fn pipetrace_cell_exports_validate_and_slips_telescope() {
        let dir = temp_dir("cell");
        let store = TraceStore::new();
        let (rendered, cost) =
            pipetrace_cell(&store, Benchmark::Compress, 40, &dir, (0, u64::MAX), Some(Baseline::Single))
                .unwrap();
        assert!(rendered.starts_with("compress: "), "{rendered}");
        assert!(rendered.contains("vs single ("), "{rendered}");
        assert!(cost.simulated_cycles > 0);

        let json_path = dir.join("compress.pipetrace.json");
        validate_pipetrace(&json_path).unwrap();
        let konata_path = dir.join("compress.konata");
        validate_konata(&konata_path).unwrap();

        let doc = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
        let base = doc.get("baseline").unwrap();
        assert_eq!(base.get("name").and_then(Json::as_str), Some("single"));
        // Dual distribution must leave inter-cluster edges behind.
        assert!(!doc.get("edges").unwrap().as_array().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ranged_export_clips_and_validates() {
        let dir = temp_dir("range");
        let store = TraceStore::new();
        let (rendered, _) =
            pipetrace_cell(&store, Benchmark::Compress, 40, &dir, (5, 60), None).unwrap();
        assert!(rendered.contains("(range 5..60)"), "{rendered}");
        let json_path = dir.join("compress.pipetrace.json");
        validate_pipetrace(&json_path).unwrap();
        validate_konata(&dir.join("compress.konata")).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
        let ops = doc.get("ops").unwrap().as_array().unwrap();
        assert_eq!(ops.len(), 55);
        assert_eq!(ops[0].get("seq").and_then(Json::as_u64), Some(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validators_reject_broken_files() {
        let dir = temp_dir("broken");
        // Non-monotone lifecycle.
        let path = dir.join("x.pipetrace.json");
        std::fs::write(
            &path,
            "{\"schema_version\":1,\"benchmark\":\"x\",\"range\":{\"start\":0,\"end\":1},\
             \"target\":{\"cycles\":9,\"retired\":1},\"flushed\":0,\
             \"ops\":[{\"seq\":0,\"fetch\":5,\"dispatch\":4,\"issue\":6,\"complete\":7,\
             \"retire\":8}],\"edges\":[],\"baseline\":null}",
        )
        .unwrap();
        let err = validate_pipetrace(&path).unwrap_err().to_string();
        assert!(err.contains("not monotone"), "{err}");
        // Edge referencing a missing op.
        std::fs::write(
            &path,
            "{\"schema_version\":1,\"benchmark\":\"x\",\"range\":{\"start\":0,\"end\":1},\
             \"target\":{\"cycles\":9,\"retired\":1},\"flushed\":0,\
             \"ops\":[{\"seq\":0,\"fetch\":4,\"dispatch\":4,\"issue\":6,\"complete\":7,\
             \"retire\":8}],\"edges\":[{\"producer\":9,\"consumer\":0,\"deliver\":5,\
             \"buffer\":\"operand\",\"occupancy\":1}],\"baseline\":null}",
        )
        .unwrap();
        let err = validate_pipetrace(&path).unwrap_err().to_string();
        assert!(err.contains("references no recorded op"), "{err}");
        // Konata: undeclared id.
        let kpath = dir.join("x.konata");
        std::fs::write(&kpath, "Kanata\t0004\nC=\t0\nS\t7\t0\tF\n").unwrap();
        let err = validate_konata(&kpath).unwrap_err().to_string();
        assert!(err.contains("undeclared id 7"), "{err}");
        // Konata: missing header.
        std::fs::write(&kpath, "Konata\t0004\n").unwrap();
        let err = validate_konata(&kpath).unwrap_err().to_string();
        assert!(err.contains("header"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn konata_starts_with_header_and_declares_before_use() {
        let dir = temp_dir("konata");
        let store = TraceStore::new();
        pipetrace_cell(&store, Benchmark::Compress, 40, &dir, (0, 40), None).unwrap();
        let text = std::fs::read_to_string(dir.join("compress.konata")).unwrap();
        assert!(text.starts_with("Kanata\t0004\nC=\t"), "{}", &text[..40.min(text.len())]);
        assert!(text.contains("\nI\t0\t0\t0\n"), "first instruction declared");
        assert!(text.contains("\tCm\n"), "completion stage present");
        assert!(text.contains("\nR\t"), "retires present");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
