//! One pass of each workload. A pass drives the layers only through
//! their public calls and opens a span around every call; it returns
//! what each operation produced, for the caller to check.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use mcl_bench::explain::explain_cell;
use mcl_bench::obs::{observe_cell, ObsSettings};
use mcl_bench::pipetrace::pipetrace_cell;
use mcl_bench::runner::{run_cells, Cell, CellCost};
use mcl_bench::store::{TraceRequest, TraceStore};
use mcl_core::{FastForward, Processor, ProcessorConfig, SimStats};
use mcl_isa::assign::RegisterAssignment;
use mcl_sched::{SchedulePipeline, SchedulerKind};
use mcl_trace::vm::{dynamic_len_estimate, trace_program_packed};
use mcl_trace::PackedTrace;
use mcl_workloads::Benchmark;

use crate::check::fnv1a;
use crate::plan::Plan;
use crate::spans::{SpanId, Tracer};

/// Transfer-buffer entries the A1 sweep sets (`repro ablate-buffers`).
pub const BUFFERS: [u32; 6] = [1, 2, 4, 8, 16, 32];
/// Dispatch-queue entries the A3 sweep sets (`repro ablate-dq`).
pub const DQ_ENTRIES: [u32; 5] = [16, 32, 64, 128, 256];
/// The op window `diagnose` clips each pipetrace to.
pub const PIPETRACE_WINDOW: (u64, u64) = (10_000, 14_000);
/// The `--obs` sampling interval `repro` uses by default.
pub const OBS_SAMPLE_INTERVAL: u64 = 1024;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 2, serial and cold: build, schedule, trace, simulate.
    Table2,
    /// The A1 and A3 sweeps through the parallel cell runner.
    Sweep,
    /// `explain`, `--obs` and `pipetrace` on every benchmark.
    Diagnose,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Table2, Workload::Sweep, Workload::Diagnose];

    /// The name `BENCHMARK.json` and `--workload` use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2 => "table2",
            Workload::Sweep => "sweep",
            Workload::Diagnose => "diagnose",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated instructions one pass retires, by its definition —
    /// a fixed count, however the program gets there. `diagnose`
    /// counts the dual-cluster local-scheduler run once per tool.
    #[must_use]
    pub fn retired_per_pass(self, plan: &Plan, lens: &Lens) -> u64 {
        let len = |b, c| lens[&(b, c)];
        plan.benches
            .iter()
            .map(|&(b, _)| match self {
                Workload::Table2 => 2 * len(b, Code::Native) + len(b, Code::Local),
                Workload::Sweep => {
                    BUFFERS.len() as u64 * len(b, Code::Local)
                        + DQ_ENTRIES.len() as u64 * len(b, Code::Native)
                }
                Workload::Diagnose => 3 * len(b, Code::Local),
            })
            .sum()
    }
}

/// Which binary of a benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// Compiled without cluster knowledge (the naive scheduler).
    Native,
    /// Rescheduled by the §3.5 local scheduler.
    Local,
}

impl Code {
    fn kind(self) -> SchedulerKind {
        match self {
            Code::Native => SchedulerKind::Naive,
            Code::Local => SchedulerKind::Local,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Code::Native => "native",
            Code::Local => "local",
        }
    }
}

/// The length of every trace a plan simulates: the retire count each
/// simulation of it must reach.
pub type Lens = HashMap<(Benchmark, Code), u64>;

/// What one simulation produced.
#[derive(Debug)]
pub struct SimOutcome {
    /// `bench/code/machine[/variant]`; the digest-table key.
    pub key: String,
    /// The benchmark simulated.
    pub bench: Benchmark,
    /// The binary simulated.
    pub code: Code,
    /// The dispatch-queue size, on the A3 sweep.
    pub dq: Option<u32>,
    /// Statistics and fast-forward counters, or the failure.
    pub result: Result<(SimStats, FastForward), String>,
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Every simulation the benchmark sees.
    pub sims: Vec<SimOutcome>,
    /// Every other operation, by the digest of its output.
    pub outputs: Vec<(String, Result<u64, String>)>,
}

/// What a pass works with.
pub struct Ctx<'a> {
    /// The inputs.
    pub plan: &'a Plan,
    /// The span recorder (disabled on untraced passes).
    pub tracer: &'a Arc<Tracer>,
    /// The pass's root span.
    pub root: Option<SpanId>,
    /// Worker threads for `sweep`.
    pub workers: usize,
    /// Where `diagnose` writes its exports.
    pub export_dir: &'a Path,
}

/// Runs one pass of a workload.
#[must_use]
pub fn run(workload: Workload, ctx: &Ctx<'_>) -> PassOutcome {
    match workload {
        Workload::Table2 => table2(ctx),
        Workload::Sweep => sweep(ctx),
        Workload::Diagnose => diagnose(ctx),
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Err(format!("panicked: {msg}"))
    })
}

/// Builds a benchmark's native and local traces through the workloads,
/// sched and trace layers.
///
/// # Errors
///
/// A scheduling or trace-generation failure, rendered.
pub fn build_traces(
    bench: Benchmark,
    scale: u32,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<[PackedTrace; 2], String> {
    let assignment = RegisterAssignment::even_odd_with_default_globals(2);
    let il = {
        let _s = tracer.span(
            "workloads.Benchmark::build",
            || bench.name().to_owned(),
            parent,
        );
        bench.build(scale)
    };
    let prepared = {
        let _s = tracer.span(
            "sched.SchedulePipeline::prepare",
            || bench.name().to_owned(),
            parent,
        );
        // The scheduler kind plays no part in `prepare`.
        SchedulePipeline::new(SchedulerKind::Naive, &assignment)
            .prepare(&il)
            .map_err(|e| e.to_string())?
    };
    let trace = |code: Code| -> Result<PackedTrace, String> {
        let label = || format!("{bench}/{}", code.name());
        let scheduled = {
            let _s = tracer.span("sched.SchedulePipeline::run_prepared", label, parent);
            SchedulePipeline::new(code.kind(), &assignment)
                .run_prepared(&prepared)
                .map_err(|e| e.to_string())?
        };
        let hint = dynamic_len_estimate(&scheduled.program, prepared.profile());
        let _s = tracer.span("trace.vm::trace_program_packed", label, parent);
        trace_program_packed(&scheduled.program, hint)
            .map(|(t, _)| t)
            .map_err(|e| e.to_string())
    };
    Ok([trace(Code::Native)?, trace(Code::Local)?])
}

/// The trace length of every (benchmark, binary) in the plan.
///
/// # Errors
///
/// The first benchmark whose traces fail to build.
pub fn trace_lens(plan: &Plan) -> Result<Lens, String> {
    let off = Tracer::new();
    let mut lens = Lens::new();
    for &(bench, scale) in &plan.benches {
        let [native, local] = guarded(|| build_traces(bench, scale, &off, None))
            .map_err(|e| format!("{bench}: {e}"))?;
        lens.insert((bench, Code::Native), native.len() as u64);
        lens.insert((bench, Code::Local), local.len() as u64);
    }
    Ok(lens)
}

/// `table2`: per benchmark, build the IL, prepare it, schedule and
/// trace the native and local binaries, and simulate single/native,
/// dual/native and dual/local — cold, with nothing kept between passes.
fn table2(ctx: &Ctx<'_>) -> PassOutcome {
    let runs = [
        (
            Code::Native,
            "single",
            ProcessorConfig::single_cluster_8way(),
        ),
        (Code::Native, "dual", ProcessorConfig::dual_cluster_8way()),
        (Code::Local, "dual", ProcessorConfig::dual_cluster_8way()),
    ];
    let mut out = PassOutcome::default();
    for &(bench, scale) in &ctx.plan.benches {
        let traces = guarded(|| build_traces(bench, scale, ctx.tracer, ctx.root));
        for (code, machine, cfg) in &runs {
            let key = format!("{bench}/{}/{machine}", code.name());
            let result = traces
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|[native, local]| {
                    let trace = if *code == Code::Native { native } else { local };
                    let _s =
                        ctx.tracer
                            .span("core.Processor::run_packed", || key.clone(), ctx.root);
                    guarded(|| {
                        let r = Processor::new(cfg.clone())
                            .run_packed(trace)
                            .map_err(|e| e.to_string())?;
                        Ok((r.stats, r.ff))
                    })
                });
            out.sims.push(SimOutcome {
                key,
                bench,
                code: *code,
                dq: None,
                result,
            });
        }
    }
    out
}

/// One simulation of the sweep.
struct Point {
    key: String,
    bench: Benchmark,
    code: Code,
    dq: Option<u32>,
    cfg: ProcessorConfig,
}

/// `sweep`: the A1 transfer-buffer sweep (dual machine, local binary)
/// and the A3 dispatch-queue sweep (single machine, native binary), one
/// cell per benchmark and sweep, through `run_cells` on a fresh store.
fn sweep(ctx: &Ctx<'_>) -> PassOutcome {
    let store = {
        let _s = ctx
            .tracer
            .span("bench.TraceStore::new", || "sweep".to_owned(), ctx.root);
        Arc::new(TraceStore::new())
    };
    let mut plans: Vec<(String, u32, Vec<Point>)> = Vec::new();
    for &(bench, scale) in &ctx.plan.benches {
        let points = BUFFERS
            .iter()
            .map(|&n| {
                let mut cfg = ProcessorConfig::dual_cluster_8way();
                cfg.operand_buffer = n;
                cfg.result_buffer = n;
                let key = format!("{bench}/local/dual/buf{n}");
                Point {
                    key,
                    bench,
                    code: Code::Local,
                    dq: None,
                    cfg,
                }
            })
            .collect();
        plans.push((format!("ablate-buffers/{bench}"), scale, points));
    }
    for &(bench, scale) in &ctx.plan.benches {
        let points = DQ_ENTRIES
            .iter()
            .map(|&n| {
                let mut cfg = ProcessorConfig::single_cluster_8way();
                cfg.dq_entries = n;
                let key = format!("{bench}/native/single/dq{n}");
                Point {
                    key,
                    bench,
                    code: Code::Native,
                    dq: Some(n),
                    cfg,
                }
            })
            .collect();
        plans.push((format!("ablate-dq/{bench}"), scale, points));
    }
    // Who ran what, in case the cell runner loses the results.
    let meta: Vec<(String, Benchmark, Code, Option<u32>)> = plans
        .iter()
        .flat_map(|(_, _, points)| {
            points
                .iter()
                .map(|p| (p.key.clone(), p.bench, p.code, p.dq))
        })
        .collect();

    let run = ctx
        .tracer
        .span("bench.runner::run_cells", || "sweep".to_owned(), ctx.root);
    let parent = run.id();
    let cells = plans
        .into_iter()
        .map(|(id, scale, points)| {
            let store = Arc::clone(&store);
            let tracer = Arc::clone(ctx.tracer);
            Cell::new(id.clone(), move || {
                let cell = tracer.span("bench.cell", || id.clone(), parent);
                let sims = points
                    .into_iter()
                    .map(|p| {
                        let req = TraceRequest::new(p.bench, scale, p.code.kind());
                        let s = tracer.span("bench.TraceStore::sim", || p.key.clone(), cell.id());
                        let result = guarded(|| store.sim(&req, &p.cfg).map_err(|e| e.to_string()));
                        if let (Some((id, end)), Ok(product)) = (s.finish(), &result) {
                            // The store runs the core inside this call; its
                            // own timer is the only view of that split.
                            let name = "core.Processor::run_packed";
                            tracer.reported(name, p.key.clone(), id, end, product.simulate_seconds);
                        }
                        let result = result.map(|product| (product.stats, product.ff));
                        SimOutcome {
                            key: p.key,
                            bench: p.bench,
                            code: p.code,
                            dq: p.dq,
                            result,
                        }
                    })
                    .collect::<Vec<_>>();
                drop(cell);
                Ok((sims, CellCost::default()))
            })
        })
        .collect();
    let result = run_cells(ctx.workers, cells);
    drop(run);
    let mut out = PassOutcome::default();
    match result {
        Ok((cells, _)) => out.sims = cells.into_iter().flatten().collect(),
        Err(e) => {
            out.sims = meta
                .into_iter()
                .map(|(key, bench, code, dq)| {
                    let result = Err(format!("run_cells failed: {e}"));
                    SimOutcome {
                        key,
                        bench,
                        code,
                        dq,
                        result,
                    }
                })
                .collect();
        }
    }
    out
}

/// `diagnose`: per benchmark, `explain_cell`, `observe_cell` and a
/// clipped `pipetrace_cell` on one fresh store, then the store's own
/// dual/local run, which every tool's probed run was checked against.
fn diagnose(ctx: &Ctx<'_>) -> PassOutcome {
    let store = {
        let _s = ctx
            .tracer
            .span("bench.TraceStore::new", || "diagnose".to_owned(), ctx.root);
        TraceStore::new()
    };
    let dir = ctx.export_dir;
    let settings = ObsSettings {
        dir: dir.to_path_buf(),
        sample_interval: OBS_SAMPLE_INTERVAL,
    };
    let mut out = PassOutcome::default();
    for &(bench, scale) in &ctx.plan.benches {
        let label = || bench.name().to_owned();
        let explain = {
            let _s = ctx.tracer.span("bench.explain_cell", label, ctx.root);
            guarded(|| explain_cell(&store, bench, scale, dir, None).map_err(|e| e.to_string()))
        };
        out.outputs.push((
            format!("{bench}/explain"),
            explain.map(|(text, _)| fnv1a(text.as_bytes())),
        ));
        let observe = {
            let _s = ctx.tracer.span("bench.observe_cell", label, ctx.root);
            guarded(|| observe_cell(&store, bench, scale, &settings).map_err(|e| e.to_string()))
        };
        out.outputs.push((
            format!("{bench}/observe"),
            observe.map(|names| fnv1a(names.join("\n").as_bytes())),
        ));
        let pipetrace = {
            let _s = ctx.tracer.span("bench.pipetrace_cell", label, ctx.root);
            guarded(|| {
                pipetrace_cell(&store, bench, scale, dir, PIPETRACE_WINDOW, None)
                    .map_err(|e| e.to_string())
            })
        };
        out.outputs.push((
            format!("{bench}/pipetrace"),
            pipetrace.map(|(text, _)| fnv1a(text.as_bytes())),
        ));
        let key = format!("{bench}/local/dual");
        let result = {
            let _s = ctx
                .tracer
                .span("bench.TraceStore::sim", || key.clone(), ctx.root);
            let req = TraceRequest::new(bench, scale, SchedulerKind::Local);
            guarded(|| {
                let product = store
                    .sim(&req, &ProcessorConfig::dual_cluster_8way())
                    .map_err(|e| e.to_string())?;
                Ok((product.stats, product.ff))
            })
        };
        out.sims.push(SimOutcome {
            key,
            bench,
            code: Code::Local,
            dq: None,
            result,
        });
    }
    out
}
