//! Turning passes and spans into the reported metrics.

use std::collections::HashMap;
use std::fmt::Write as _;

use mcl_workloads::Benchmark;

use crate::passes::DQ_ENTRIES;
use crate::spans::{self_times, Span, SpanId};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// What one simulation counted, for the per-layer view.
#[derive(Debug, Clone)]
pub struct SimRecord {
    /// The digest-table key.
    pub key: String,
    /// The benchmark.
    pub bench: Benchmark,
    /// The dispatch-queue size, on the A3 sweep.
    pub dq: Option<u32>,
    /// Simulated cycles.
    pub cycles: u64,
    /// Cycles fast-forward jumped over.
    pub skipped: u64,
    /// Fast-forward jumps.
    pub jumps: u64,
}

/// One timed pass.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Its number.
    pub pass: u32,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Wall time, in seconds.
    pub seconds: f64,
    /// The root span, on traced passes.
    pub root: Option<SpanId>,
    /// Every simulation that succeeded.
    pub sims: Vec<SimRecord>,
    /// Bytes the pass exported.
    pub export_bytes: u64,
}

/// The median (0 for no values).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile by linear interpolation between order statistics
/// (0 for no values).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Millions of retired instructions per second of each pass.
#[must_use]
pub fn minst_per_s(passes: &[&PassRecord], retired: u64) -> Vec<f64> {
    passes
        .iter()
        .map(|p| retired as f64 / p.seconds / 1e6)
        .collect()
}

/// Layers whose self time is reported, in span-name order.
const LAYERS: [&str; 6] = ["workloads", "sched", "trace", "core", "bench", "uncovered"];

/// Every per-layer metric, from the traced passes and their spans.
/// Metrics of a layer the workload does not call read 0.
#[must_use]
pub fn per_layer(
    passes: &[PassRecord],
    spans: &[Span],
    retired: u64,
    trace_ops: u64,
    workers: usize,
) -> Vec<Metric> {
    let traced: Vec<&PassRecord> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&PassRecord> = passes.iter().filter(|p| !p.traced).collect();
    let n = traced.len().max(1) as f64;
    let root_dur = |p: &PassRecord| {
        spans
            .iter()
            .find(|s| Some(s.id) == p.root)
            .map_or(0.0, Span::dur)
    };
    let named = |name: &str| -> Vec<&Span> {
        spans
            .iter()
            .filter(|s| s.name == name && traced.iter().any(|p| p.pass == s.pass))
            .collect()
    };
    // Per traced pass, the summed duration of one call.
    let per_pass = |name: &str| -> f64 {
        let sums: Vec<f64> = traced
            .iter()
            .map(|p| {
                spans
                    .iter()
                    .filter(|s| s.name == name && s.pass == p.pass)
                    .map(Span::dur)
                    .sum()
            })
            .collect();
        median(&sums)
    };

    let mut out = Vec::new();
    let pass_s: f64 = traced.iter().map(|p| root_dur(p)).sum::<f64>() / n;
    out.push(metric("pass_s", "s", pass_s));
    let mut selfs: HashMap<&str, f64> = HashMap::new();
    for p in &traced {
        if let Some(root) = p.root {
            for (layer, s) in self_times(spans, root) {
                *selfs.entry(layer).or_insert(0.0) += s / n;
            }
        }
    }
    for layer in LAYERS {
        out.push(metric(
            format!("self.{layer}_s"),
            "s",
            selfs.get(layer).copied().unwrap_or(0.0),
        ));
    }
    let traced_rate = median(&minst_per_s(&traced, retired));
    let untraced_rate = median(&minst_per_s(&untraced, retired));
    out.push(metric("tracing.minst_per_s", "Minst/s", traced_rate));
    out.push(metric(
        "tracing.untraced_minst_per_s",
        "Minst/s",
        untraced_rate,
    ));
    out.push(metric(
        "tracing.overhead_frac",
        "fraction",
        1.0 - traced_rate / untraced_rate,
    ));

    // Core: every timed simulation, joined to what it counted.
    let sims: HashMap<(u32, &str), &SimRecord> = traced
        .iter()
        .flat_map(|p| p.sims.iter().map(move |s| ((p.pass, s.key.as_str()), s)))
        .collect();
    let core: Vec<(&Span, &SimRecord)> = named("core.Processor::run_packed")
        .into_iter()
        .filter_map(|s| sims.get(&(s.pass, s.label.as_str())).map(|r| (s, *r)))
        .collect();
    let durs: Vec<f64> = core.iter().map(|(s, _)| s.dur()).collect();
    out.push(metric("core.sim_s", "s", median(&durs)));
    out.push(metric("core.sim_s.p90", "s", quantile(&durs, 0.9)));
    let ns_per_live = |keep: &dyn Fn(&SimRecord) -> bool| {
        let (t, live) = core
            .iter()
            .filter(|(_, r)| keep(r))
            .fold((0.0, 0u64), |(t, l), (s, r)| {
                (t + s.dur(), l + r.cycles - r.skipped)
            });
        if live == 0 {
            0.0
        } else {
            t * 1e9 / live as f64
        }
    };
    out.push(metric(
        "core.ns_per_live_cycle",
        "ns",
        ns_per_live(&|_| true),
    ));
    for bench in Benchmark::ALL {
        let name = format!("core.ns_per_live_cycle.{bench}");
        out.push(metric(name, "ns", ns_per_live(&|r| r.bench == bench)));
    }
    for dq in DQ_ENTRIES {
        let name = format!("core.ns_per_live_cycle.dq{dq}");
        out.push(metric(name, "ns", ns_per_live(&|r| r.dq == Some(dq))));
    }
    // Exact counts: every pass simulates the same, so the first tells.
    let first = passes
        .first()
        .map(|p| p.sims.as_slice())
        .unwrap_or_default();
    let cycles: u64 = first.iter().map(|s| s.cycles).sum();
    let skipped: u64 = first.iter().map(|s| s.skipped).sum();
    out.push(metric(
        "core.skip_frac",
        "fraction",
        if cycles == 0 {
            0.0
        } else {
            skipped as f64 / cycles as f64
        },
    ));
    out.push(metric(
        "core.ff_jumps",
        "count",
        first.iter().map(|s| s.jumps).sum::<u64>() as f64,
    ));
    out.push(metric(
        "core.live_cycles",
        "count",
        (cycles - skipped) as f64,
    ));

    // Trace build, on table2.
    out.push(metric(
        "workloads.build_s",
        "s",
        per_pass("workloads.Benchmark::build"),
    ));
    out.push(metric(
        "sched.prepare_s",
        "s",
        per_pass("sched.SchedulePipeline::prepare"),
    ));
    out.push(metric(
        "sched.assign_s",
        "s",
        per_pass("sched.SchedulePipeline::run_prepared"),
    ));
    let gen = per_pass("trace.vm::trace_program_packed");
    out.push(metric("trace.gen_s", "s", gen));
    out.push(metric(
        "trace.ns_per_op",
        "ns",
        if gen == 0.0 {
            0.0
        } else {
            gen * 1e9 / trace_ops as f64
        },
    ));

    // Bench: the diagnose entry points and the cell runner.
    out.push(metric(
        "bench.explain_s",
        "s",
        per_pass("bench.explain_cell"),
    ));
    out.push(metric("bench.obs_s", "s", per_pass("bench.observe_cell")));
    out.push(metric(
        "bench.pipetrace_s",
        "s",
        per_pass("bench.pipetrace_cell"),
    ));
    out.push(metric(
        "bench.export_bytes",
        "bytes",
        passes.first().map_or(0, |p| p.export_bytes) as f64,
    ));
    let cells: Vec<&Span> = named("bench.cell");
    let cell_durs: Vec<f64> = cells.iter().map(|s| s.dur()).collect();
    out.push(metric("bench.cell_s.p90", "s", quantile(&cell_durs, 0.9)));
    let busy: Vec<f64> = traced
        .iter()
        .filter(|p| cells.iter().any(|s| s.pass == p.pass))
        .map(|p| {
            let busy: f64 = cells
                .iter()
                .filter(|s| s.pass == p.pass)
                .map(|s| s.dur())
                .sum();
            busy / (workers as f64 * root_dur(p))
        })
        .collect();
    out.push(metric("bench.worker_busy_frac", "fraction", median(&busy)));
    out
}

/// The result line: one JSON object, the last line the benchmark
/// prints.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((quantile(&(0..=10).map(f64::from).collect::<Vec<_>>(), 0.9) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            3,
            1,
            &[metric("a", "s", 0.25), metric("b", "count", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 0.25, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
