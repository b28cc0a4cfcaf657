//! Parallel experiment driver.
//!
//! Every `repro` experiment expands into independent *cells* — one
//! (workload, configuration) unit each, typically "one benchmark of one
//! experiment". Cells run on a [`std::thread::scope`] worker pool that
//! claims work by atomic index, and results land in per-cell slots, so
//! collection order equals submission order regardless of which worker
//! finished first. Rendering happens after collection, which is what
//! makes `--jobs N` output byte-identical to a serial run.
//!
//! The pool also records per-cell wall time, simulated cycles, and the
//! trace-build/simulate split reported by the cells (see [`CellCost`]);
//! the driver writes them to `BENCH_repro.json` via [`report_json`].
//!
//! Cells are fault-isolated: each runs under [`std::panic::catch_unwind`],
//! so one panicking cell cannot take down its worker thread or the whole
//! run. [`run_cells`] turns the first failure (by cell order) into an
//! error as before; [`run_cells_isolated`] instead records a per-cell
//! [`CellStatus`] and returns every payload that survived, which is what
//! `repro --keep-going` builds on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mcl_core::FastForward;

use crate::json::Json;
use crate::store::{SimProduct, StoreCounters};
use crate::Error;

/// What one cell spent: simulated cycles it accounted for, and its wall
/// time split into trace building (scheduling + VM interpretation,
/// including time spent waiting on or hitting the shared trace store)
/// and cycle-level simulation. Trace building further splits into the
/// host-side phase timers of [`crate::store::TracePhases`] — IL build,
/// prepass, cluster scheduling — which are nonzero only for the cell
/// whose store call actually built that stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellCost {
    /// Cycles the cell actually simulated this run (0 for cells that
    /// only render static material). Cycles served from the memoized
    /// sim cache land in [`CellCost::cached_simulated_cycles`] instead,
    /// so throughput aggregates divide real work by real wall time.
    pub simulated_cycles: u64,
    /// Cycles whose statistics were served from the sim cache without
    /// re-simulating.
    pub cached_simulated_cycles: u64,
    /// Dead-cycle fast-forward counters of the cell's fresh runs.
    pub ff: FastForward,
    /// Seconds spent obtaining traces (store hits cost ~0).
    pub trace_build_seconds: f64,
    /// Seconds spent in cycle-level simulation (store hits cost ~0).
    pub simulate_seconds: f64,
    /// Seconds spent building intermediate-language programs.
    pub il_build_seconds: f64,
    /// Seconds spent in the scheduler-independent prepass.
    pub prepass_seconds: f64,
    /// Seconds spent cluster-scheduling and packing traces.
    pub schedule_seconds: f64,
}

impl CellCost {
    /// A cost accounting only simulated cycles (for cells that do not
    /// route work through the trace store).
    #[must_use]
    pub fn cycles(simulated_cycles: u64) -> CellCost {
        CellCost { simulated_cycles, ..CellCost::default() }
    }

    /// Accumulates another cost into this one.
    pub fn add(&mut self, other: &CellCost) {
        self.simulated_cycles += other.simulated_cycles;
        self.cached_simulated_cycles += other.cached_simulated_cycles;
        self.ff.add(&other.ff);
        self.trace_build_seconds += other.trace_build_seconds;
        self.simulate_seconds += other.simulate_seconds;
        self.il_build_seconds += other.il_build_seconds;
        self.prepass_seconds += other.prepass_seconds;
        self.schedule_seconds += other.schedule_seconds;
    }

    /// Accumulates one store-served simulation: its cycles (routed to
    /// fresh or cached by whether the store actually simulated),
    /// wall-time split and phase breakdown.
    pub fn charge_sim(&mut self, product: &SimProduct) {
        if product.fresh {
            self.simulated_cycles += product.stats.cycles;
            self.ff.add(&product.ff);
        } else {
            self.cached_simulated_cycles += product.stats.cycles;
        }
        self.trace_build_seconds += product.trace_build_seconds;
        self.simulate_seconds += product.simulate_seconds;
        self.il_build_seconds += product.phases.il_seconds;
        self.prepass_seconds += product.phases.prepass_seconds;
        self.schedule_seconds += product.phases.schedule_seconds;
    }
}

/// One independent unit of work.
///
/// The closure returns its payload plus the [`CellCost`] it incurred.
pub struct Cell<R> {
    /// Stable identifier, e.g. `table2/compress`.
    pub id: String,
    /// The work itself.
    pub run: Box<dyn FnOnce() -> Result<(R, CellCost), Error> + Send>,
}

impl<R> Cell<R> {
    /// Convenience constructor.
    pub fn new(
        id: impl Into<String>,
        run: impl FnOnce() -> Result<(R, CellCost), Error> + Send + 'static,
    ) -> Cell<R> {
        Cell { id: id.into(), run: Box::new(run) }
    }
}

/// How one cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell returned a payload.
    Ok,
    /// The cell returned an error (rendered).
    Error(String),
    /// The cell panicked; the payload message is rendered.
    Panicked(String),
}

impl CellStatus {
    /// The status name as written to `BENCH_repro.json`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Error(_) => "error",
            CellStatus::Panicked(_) => "panicked",
        }
    }

    /// The failure message, if any.
    #[must_use]
    pub fn message(&self) -> Option<&str> {
        match self {
            CellStatus::Ok => None,
            CellStatus::Error(m) | CellStatus::Panicked(m) => Some(m),
        }
    }
}

/// Timing record of one executed cell.
#[derive(Debug, Clone)]
pub struct CellMetric {
    /// The cell's identifier.
    pub id: String,
    /// How the cell ended.
    pub status: CellStatus,
    /// Wall-clock time the cell took on its worker.
    pub wall_seconds: f64,
    /// Whether the cell's wall time overran the `--watchdog` budget.
    /// Simulations past the budget are cancelled by the hard
    /// cooperative watchdog (surfacing as a failed cell); this flag
    /// additionally catches overruns outside the simulator's poll
    /// (trace building, rendering) and fails the run's exit code.
    pub watchdog_exceeded: bool,
    /// Cycles the cell actually simulated this run.
    pub simulated_cycles: u64,
    /// Cycles served from the memoized sim cache (no simulation work).
    pub cached_simulated_cycles: u64,
    /// Simulated cycles covered by dead-cycle fast-forward jumps.
    pub skipped_cycles: u64,
    /// Fast-forward jumps the cell's fresh runs took.
    pub ff_jumps: u64,
    /// Seconds the cell spent obtaining traces.
    pub trace_build_seconds: f64,
    /// Seconds the cell spent in cycle-level simulation.
    pub simulate_seconds: f64,
    /// Seconds the cell spent building IL programs.
    pub il_build_seconds: f64,
    /// Seconds the cell spent in the scheduler-independent prepass.
    pub prepass_seconds: f64,
    /// Seconds the cell spent cluster-scheduling and packing traces.
    pub schedule_seconds: f64,
}

impl CellMetric {
    /// Simulation throughput of this cell (cycles it actually simulated
    /// per wall-clock second). `None` when the cell simulated nothing —
    /// cache-served cycles are excluded, so a fully-cached or
    /// render-only cell has no throughput rather than a misleading 0
    /// (rendered as `null` in the report, and excluded from the
    /// aggregate throughput's denominator).
    #[must_use]
    pub fn cycles_per_second(&self) -> Option<f64> {
        if self.simulated_cycles > 0 && self.wall_seconds > 0.0 {
            Some(self.simulated_cycles as f64 / self.wall_seconds)
        } else {
            None
        }
    }
}

/// One finished cell, pre-collection: its id, outcome, and wall time.
type FinishedCell<R> = (String, Result<(R, CellCost), Error>, f64);

/// The default worker count: the machine's available parallelism.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Renders a caught panic payload (the standard `&str` / `String`
/// payloads of `panic!`, or a placeholder for exotic ones).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one cell with panic isolation; a panic becomes
/// [`Error::Panic`]. When `watchdog_seconds` is set, the cell runs
/// with the cooperative hard-watchdog deadline armed for its budget:
/// a runaway simulation is cancelled with a structured
/// `SimError::Timeout` instead of running to the cycle limit. The
/// guard is per-cell, so a timed-out cell never leaks its deadline
/// into the next one scheduled on the same worker.
fn execute_cell<R>(cell: Cell<R>, watchdog_seconds: Option<f64>) -> FinishedCell<R> {
    let Cell { id, run } = cell;
    let _watchdog = watchdog_seconds
        .filter(|s| *s > 0.0)
        .map(|s| mcl_core::watchdog::arm_for(std::time::Duration::from_secs_f64(s)));
    // One flight span per cell on the worker that ran it — with
    // `--flight` the whole `--jobs` schedule becomes visible.
    let _flight = crate::flight::span("cell", || id.clone());
    let start = Instant::now();
    let result = match catch_unwind(AssertUnwindSafe(run)) {
        Ok(result) => result,
        Err(payload) => {
            Err(Error::Panic { cell: id.clone(), message: panic_message(payload.as_ref()) })
        }
    };
    (id, result, start.elapsed().as_secs_f64())
}

/// Runs every cell (serially or on the worker pool) and returns the
/// outcomes in submission order, panics caught.
fn run_raw<R: Send>(
    jobs: usize,
    cells: Vec<Cell<R>>,
    watchdog_seconds: Option<f64>,
) -> Vec<FinishedCell<R>> {
    let n = cells.len();
    if jobs <= 1 || n <= 1 {
        return cells.into_iter().map(|c| execute_cell(c, watchdog_seconds)).collect();
    }
    let work: Vec<Mutex<Option<Cell<R>>>> =
        cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let done: Vec<Mutex<Option<FinishedCell<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = work[i].lock().unwrap().take().expect("each cell claimed once");
                *done[i].lock().unwrap() = Some(execute_cell(cell, watchdog_seconds));
            });
        }
    });
    done.into_iter().map(|slot| slot.into_inner().unwrap().expect("every cell ran")).collect()
}

/// Runs every cell and returns the payloads in cell order plus one
/// metric per cell (same order).
///
/// With `jobs <= 1` the cells run serially on the calling thread; with
/// more, a scoped worker pool claims cells by atomic index. Either way
/// the result order is the submission order, so callers can render
/// deterministically.
///
/// # Errors
///
/// Returns the error of the earliest (by cell order) failing cell — a
/// panicking cell counts as failing with [`Error::Panic`]. Unlike the
/// serial path, later cells may already have run by then; cells must
/// therefore be independent, which experiment cells are.
pub fn run_cells<R: Send>(
    jobs: usize,
    cells: Vec<Cell<R>>,
) -> Result<(Vec<R>, Vec<CellMetric>), Error> {
    let slots = run_raw(jobs, cells, None);
    let mut payloads = Vec::with_capacity(slots.len());
    let mut metrics = Vec::with_capacity(slots.len());
    for (id, result, wall_seconds) in slots {
        let (payload, cost) = result?;
        payloads.push(payload);
        metrics.push(CellMetric {
            id,
            status: CellStatus::Ok,
            wall_seconds,
            watchdog_exceeded: false,
            simulated_cycles: cost.simulated_cycles,
            cached_simulated_cycles: cost.cached_simulated_cycles,
            skipped_cycles: cost.ff.skipped_cycles,
            ff_jumps: cost.ff.jumps,
            trace_build_seconds: cost.trace_build_seconds,
            simulate_seconds: cost.simulate_seconds,
            il_build_seconds: cost.il_build_seconds,
            prepass_seconds: cost.prepass_seconds,
            schedule_seconds: cost.schedule_seconds,
        });
    }
    Ok((payloads, metrics))
}

/// Runs every cell with fault isolation: errors and panics are recorded
/// per cell instead of aborting the run.
///
/// Returns one payload slot per cell (`None` for failed cells) and one
/// metric per cell, both in submission order. `watchdog_seconds`, when
/// set, is enforced two ways: the *hard* cooperative watchdog arms the
/// budget as a per-cell deadline the simulator polls (a runaway
/// simulation is cancelled with `SimError::Timeout`, surfacing as a
/// failed cell), and the *soft* check additionally marks any cell whose
/// total wall time exceeded the budget — e.g. one that overran in trace
/// building or rendering, which the simulator's poll cannot see. Soft
/// overruns are recorded as `watchdog_exceeded`; the driver fails the
/// run's exit code on them.
#[must_use]
pub fn run_cells_isolated<R: Send>(
    jobs: usize,
    cells: Vec<Cell<R>>,
    watchdog_seconds: Option<f64>,
) -> (Vec<Option<R>>, Vec<CellMetric>) {
    let slots = run_raw(jobs, cells, watchdog_seconds);
    let mut payloads = Vec::with_capacity(slots.len());
    let mut metrics = Vec::with_capacity(slots.len());
    for (id, result, wall_seconds) in slots {
        let (payload, status, cost) = match result {
            Ok((payload, cost)) => (Some(payload), CellStatus::Ok, cost),
            Err(Error::Panic { message, .. }) => {
                (None, CellStatus::Panicked(message), CellCost::default())
            }
            Err(e) => (None, CellStatus::Error(e.to_string()), CellCost::default()),
        };
        payloads.push(payload);
        metrics.push(CellMetric {
            id,
            status,
            wall_seconds,
            watchdog_exceeded: watchdog_seconds.is_some_and(|limit| wall_seconds > limit),
            simulated_cycles: cost.simulated_cycles,
            cached_simulated_cycles: cost.cached_simulated_cycles,
            skipped_cycles: cost.ff.skipped_cycles,
            ff_jumps: cost.ff.jumps,
            trace_build_seconds: cost.trace_build_seconds,
            simulate_seconds: cost.simulate_seconds,
            il_build_seconds: cost.il_build_seconds,
            prepass_seconds: cost.prepass_seconds,
            schedule_seconds: cost.schedule_seconds,
        });
    }
    (payloads, metrics)
}

/// The `BENCH_repro.json` schema version. Version 2 added the top-level
/// aggregates (`schema_version`, `total_trace_build_seconds`,
/// `total_simulate_seconds`, `store`) and the per-cell
/// trace-build/simulate split. Version 3 added fault-isolation fields:
/// top-level `keep_going`, `watchdog_seconds`, and `failed_cells`, and
/// per-cell `status` (`ok` / `error` / `panicked`), `error`, and
/// `watchdog_exceeded`. Version 4 added the host-side phase timers —
/// top-level `total_il_build_seconds` / `total_prepass_seconds` /
/// `total_schedule_seconds` and the matching per-cell fields — plus the
/// top-level `obs` object (`dir`, `sample_interval`; `null` when the run
/// had no `--obs`). Version 5 added the top-level `explain` object
/// (`dir` of the `*.critpath.json` exports and `baseline` — the
/// `--baseline` name or `null`; the whole object is `null` for every
/// command except `repro explain`). Version 6 added the top-level
/// `engine` name (`ticked` / `event`), split cache-served cycles out of
/// the throughput accounting — per-cell `simulated_cycles` (and the
/// `total_simulated_cycles` / `simulated_cycles_per_second` aggregates)
/// now count only cycles a cell actually simulated, with cache serves
/// in the new `cached_simulated_cycles` fields — and added the
/// event-engine dead-cycle counters (`skipped_cycles`, `ff_jumps`, and
/// their `total_*` aggregates). Version 7 added the fields of the
/// intra-run time-window mode (removed again in version 11), and fixed
/// throughput
/// reporting for cells that simulated nothing (fully cached or
/// render-only): their `simulated_cycles_per_second` is now `null`
/// instead of a misleading 0, and the aggregate
/// `simulated_cycles_per_second` divides by `active_wall_seconds` —
/// the summed wall time of cells that actually simulated (also new) —
/// instead of the whole run's wall clock. Version 8 added the
/// persistent disk store (`repro --store DIR`): the `store` object
/// gained `disk_hits` / `disk_misses` / `disk_stores` /
/// `disk_evictions` / `disk_quarantined` (all 0 when no store is
/// attached), and upgraded the watchdog semantics — `--watchdog` now
/// also arms the hard cooperative per-cell deadline (runaway
/// simulations fail with a structured timeout) and soft
/// `watchdog_exceeded` overruns fail the process exit code. Version 9
/// added the host observability surfaces: the top-level `profile`
/// object (`dir` of the `*.hostprof.json` exports; `null` for every
/// command except `repro profile`) and the top-level `flight` object
/// (`file` of the whole-run flight recording; `null` when the run had
/// no `--flight`). Version 10 added the top-level `pipetrace` object
/// (`dir` of the `*.konata` / `*.pipetrace.json` exports, `range` — the
/// `--range` string or `null` for the full run — and `baseline` — the
/// `--baseline` name or `null`; the whole object is `null` for every
/// command except `repro pipetrace`). Version 11 removed the
/// time-window mode with its top-level request and aggregate object and
/// its per-cell window count, divergence, fallback and `warmup_seconds`
/// fields: cross-cell `--jobs` is the only parallelism, so every
/// simulation is the serial one. Version 12 removed the top-level
/// `engine` name: the simulator has one engine, which fast-forwards
/// dead cycles unless a probe or cycle-level checking single-steps it.
pub const REPORT_SCHEMA_VERSION: u64 = 12;

/// Identity and options of one driver run, recorded at the top of the
/// report.
#[derive(Debug, Clone, Default)]
pub struct RunInfo {
    /// The subcommand that ran (e.g. `table2`).
    pub command: String,
    /// The scale divisor the run used.
    pub divisor: u32,
    /// Worker count.
    pub jobs: usize,
    /// Wall-clock time of the whole run.
    pub total_wall_seconds: f64,
    /// Whether the run continued past failed cells (`--keep-going`).
    pub keep_going: bool,
    /// The soft wall-clock watchdog, if one was set (`--watchdog`).
    pub watchdog_seconds: Option<f64>,
    /// The observability export directory, when `--obs` was set.
    pub obs_dir: Option<String>,
    /// The `--sample-interval` of an observability run (cycles).
    pub sample_interval: u64,
    /// The critpath export directory of a `repro explain` run.
    pub explain_dir: Option<String>,
    /// The `--baseline` name of a differential `repro explain` run.
    pub explain_baseline: Option<String>,
    /// The hostprof export directory of a `repro profile` run.
    pub profile_dir: Option<String>,
    /// The Konata/pipetrace export directory of a `repro pipetrace` run.
    pub pipetrace_dir: Option<String>,
    /// The `--range` string of a `repro pipetrace` run (`None` = full).
    pub pipetrace_range: Option<String>,
    /// The `--baseline` name of a differential `repro pipetrace` run.
    pub pipetrace_baseline: Option<String>,
    /// The flight-recording path, when `--flight` was set.
    pub flight_path: Option<String>,
}

/// Builds the `BENCH_repro.json` report.
#[must_use]
pub fn report_json(info: &RunInfo, store: &StoreCounters, metrics: &[CellMetric]) -> Json {
    let total_wall_seconds = info.total_wall_seconds;
    let total_cycles: u64 = metrics.iter().map(|m| m.simulated_cycles).sum();
    let total_cached: u64 = metrics.iter().map(|m| m.cached_simulated_cycles).sum();
    let total_skipped: u64 = metrics.iter().map(|m| m.skipped_cycles).sum();
    let total_jumps: u64 = metrics.iter().map(|m| m.ff_jumps).sum();
    let total_build: f64 = metrics.iter().map(|m| m.trace_build_seconds).sum();
    let total_sim: f64 = metrics.iter().map(|m| m.simulate_seconds).sum();
    let total_il: f64 = metrics.iter().map(|m| m.il_build_seconds).sum();
    let total_prepass: f64 = metrics.iter().map(|m| m.prepass_seconds).sum();
    let total_schedule: f64 = metrics.iter().map(|m| m.schedule_seconds).sum();
    // Throughput denominator: only cells that actually simulated.
    // Fully-cached and render-only cells spend wall time but produce no
    // fresh cycles; counting their wall would understate throughput.
    let active_wall: f64 = metrics
        .iter()
        .filter(|m| m.simulated_cycles > 0)
        .map(|m| m.wall_seconds)
        .sum();
    let failed = metrics.iter().filter(|m| m.status != CellStatus::Ok).count();
    let obs_json = match &info.obs_dir {
        Some(dir) => {
            let mut obs = Json::object();
            obs.field("dir", dir.as_str().into())
                .field("sample_interval", info.sample_interval.into());
            obs
        }
        None => Json::Null,
    };
    let explain_json = match &info.explain_dir {
        Some(dir) => {
            let mut explain = Json::object();
            explain
                .field("dir", dir.as_str().into())
                .field(
                    "baseline",
                    info.explain_baseline.as_deref().map_or(Json::Null, Json::from),
                );
            explain
        }
        None => Json::Null,
    };
    let profile_json = match &info.profile_dir {
        Some(dir) => {
            let mut profile = Json::object();
            profile.field("dir", dir.as_str().into());
            profile
        }
        None => Json::Null,
    };
    let pipetrace_json = match &info.pipetrace_dir {
        Some(dir) => {
            let mut pipetrace = Json::object();
            pipetrace
                .field("dir", dir.as_str().into())
                .field(
                    "range",
                    info.pipetrace_range.as_deref().map_or(Json::Null, Json::from),
                )
                .field(
                    "baseline",
                    info.pipetrace_baseline.as_deref().map_or(Json::Null, Json::from),
                );
            pipetrace
        }
        None => Json::Null,
    };
    let flight_json = match &info.flight_path {
        Some(file) => {
            let mut flight = Json::object();
            flight.field("file", file.as_str().into());
            flight
        }
        None => Json::Null,
    };
    let mut store_json = Json::object();
    store_json
        .field("trace_hits", store.trace_hits.into())
        .field("trace_misses", store.trace_misses.into())
        .field("sim_hits", store.sim_hits.into())
        .field("sim_misses", store.sim_misses.into())
        .field("disk_hits", store.disk_hits.into())
        .field("disk_misses", store.disk_misses.into())
        .field("disk_stores", store.disk_stores.into())
        .field("disk_evictions", store.disk_evictions.into())
        .field("disk_quarantined", store.disk_quarantined.into());
    let mut report = Json::object();
    report
        .field("schema_version", REPORT_SCHEMA_VERSION.into())
        .field("command", info.command.as_str().into())
        .field("divisor", u64::from(info.divisor).into())
        .field("jobs", (info.jobs as u64).into())
        .field("keep_going", info.keep_going.into())
        .field("watchdog_seconds", info.watchdog_seconds.map_or(Json::Null, Json::F64))
        .field("failed_cells", (failed as u64).into())
        .field("total_wall_seconds", total_wall_seconds.into())
        .field("total_simulated_cycles", total_cycles.into())
        .field("total_cached_simulated_cycles", total_cached.into())
        .field("total_skipped_cycles", total_skipped.into())
        .field("total_ff_jumps", total_jumps.into())
        .field("active_wall_seconds", active_wall.into())
        .field(
            "simulated_cycles_per_second",
            if total_cycles > 0 && active_wall > 0.0 {
                (total_cycles as f64 / active_wall).into()
            } else {
                Json::Null
            },
        )
        .field("total_trace_build_seconds", total_build.into())
        .field("total_simulate_seconds", total_sim.into())
        .field("total_il_build_seconds", total_il.into())
        .field("total_prepass_seconds", total_prepass.into())
        .field("total_schedule_seconds", total_schedule.into())
        .field("store", store_json)
        .field("obs", obs_json)
        .field("explain", explain_json)
        .field("profile", profile_json)
        .field("pipetrace", pipetrace_json)
        .field("flight", flight_json)
        .field(
            "cells",
            Json::Array(
                metrics
                    .iter()
                    .map(|m| {
                        let mut cell = Json::object();
                        cell.field("id", m.id.as_str().into())
                            .field("status", m.status.name().into())
                            .field("error", m.status.message().map_or(Json::Null, Json::from))
                            .field("watchdog_exceeded", m.watchdog_exceeded.into())
                            .field("wall_seconds", m.wall_seconds.into())
                            .field("simulated_cycles", m.simulated_cycles.into())
                            .field("cached_simulated_cycles", m.cached_simulated_cycles.into())
                            .field("skipped_cycles", m.skipped_cycles.into())
                            .field("ff_jumps", m.ff_jumps.into())
                            .field(
                                "simulated_cycles_per_second",
                                m.cycles_per_second().map_or(Json::Null, Json::F64),
                            )
                            .field("trace_build_seconds", m.trace_build_seconds.into())
                            .field("simulate_seconds", m.simulate_seconds.into())
                            .field("il_build_seconds", m.il_build_seconds.into())
                            .field("prepass_seconds", m.prepass_seconds.into())
                            .field("schedule_seconds", m.schedule_seconds.into());
                        cell
                    })
                    .collect(),
            ),
        );
    report
}

/// Writes the report to `path`, newline-terminated.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_report(
    path: &std::path::Path,
    info: &RunInfo,
    store: &StoreCounters,
    metrics: &[CellMetric],
) -> std::io::Result<()> {
    let json = report_json(info, store, metrics);
    std::fs::write(path, json.render() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_cells(n: usize) -> Vec<Cell<usize>> {
        (0..n)
            .map(|i| {
                Cell::new(format!("cell/{i}"), move || {
                    // Make early cells the slowest so workers finish out
                    // of submission order; collection must reorder.
                    std::thread::sleep(std::time::Duration::from_millis(
                        (n - i) as u64 * 2,
                    ));
                    Ok((i, CellCost::cycles(i as u64 * 10)))
                })
            })
            .collect()
    }

    #[test]
    fn parallel_results_are_in_cell_order() {
        let (payloads, metrics) = run_cells(4, counting_cells(12)).unwrap();
        assert_eq!(payloads, (0..12).collect::<Vec<_>>());
        let ids: Vec<&str> = metrics.iter().map(|m| m.id.as_str()).collect();
        assert_eq!(ids[0], "cell/0");
        assert_eq!(ids[11], "cell/11");
        assert_eq!(metrics[7].simulated_cycles, 70);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let (serial, _) = run_cells(1, counting_cells(8)).unwrap();
        let (parallel, _) = run_cells(8, counting_cells(8)).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn first_failing_cell_in_order_wins() {
        let cells: Vec<Cell<usize>> = (0..6)
            .map(|i| {
                Cell::new(format!("cell/{i}"), move || {
                    if i >= 2 {
                        Err(Error::Vm(mcl_trace::VmError::MaxStepsExceeded { limit: i as u64 }))
                    } else {
                        Ok((i, CellCost::default()))
                    }
                })
            })
            .collect();
        let err = run_cells(3, cells).expect_err("must fail");
        // Cells 2..6 all fail; the reported error is cell 2's, the
        // earliest in submission order.
        assert!(matches!(err, Error::Vm(mcl_trace::VmError::MaxStepsExceeded { limit: 2 })));
    }

    #[test]
    fn report_shape_is_stable() {
        let metrics = vec![
            CellMetric {
                id: "table2/compress".into(),
                status: CellStatus::Ok,
                wall_seconds: 2.0,
                watchdog_exceeded: false,
                simulated_cycles: 100,
                cached_simulated_cycles: 40,
                skipped_cycles: 25,
                ff_jumps: 5,
                trace_build_seconds: 0.5,
                simulate_seconds: 1.25,
                il_build_seconds: 0.125,
                prepass_seconds: 0.25,
                schedule_seconds: 0.0625,
            },
            CellMetric {
                id: "table2/broken".into(),
                status: CellStatus::Panicked("boom".into()),
                wall_seconds: 0.25,
                watchdog_exceeded: true,
                simulated_cycles: 0,
                cached_simulated_cycles: 0,
                skipped_cycles: 0,
                ff_jumps: 0,
                trace_build_seconds: 0.0,
                simulate_seconds: 0.0,
                il_build_seconds: 0.0,
                prepass_seconds: 0.0,
                schedule_seconds: 0.0,
            },
        ];
        let counters = StoreCounters {
            trace_hits: 3,
            trace_misses: 1,
            sim_hits: 2,
            sim_misses: 4,
            disk_hits: 5,
            disk_misses: 2,
            disk_stores: 2,
            disk_evictions: 1,
            disk_quarantined: 1,
        };
        let info = RunInfo {
            command: "table2".into(),
            divisor: 1,
            jobs: 8,
            total_wall_seconds: 2.5,
            keep_going: true,
            watchdog_seconds: Some(0.2),
            obs_dir: None,
            sample_interval: 0,
            explain_dir: None,
            explain_baseline: None,
            profile_dir: None,
            pipetrace_dir: None,
            pipetrace_range: None,
            pipetrace_baseline: None,
            flight_path: None,
        };
        let json = report_json(&info, &counters, &metrics).render();
        assert!(json.starts_with("{\"schema_version\":12,\"command\":\"table2\","));
        assert!(json.contains("\"jobs\":8,\"keep_going\":true,"));
        assert!(json.contains("\"watchdog_seconds\":0.200000"));
        assert!(json.contains("\"failed_cells\":1"));
        assert!(json.contains("\"total_simulated_cycles\":100"));
        assert!(json.contains("\"total_cached_simulated_cycles\":40"));
        assert!(json.contains("\"total_skipped_cycles\":25"));
        assert!(json.contains("\"total_ff_jumps\":5"));
        assert!(json.contains(
            "\"simulated_cycles\":100,\"cached_simulated_cycles\":40,\
             \"skipped_cycles\":25,\"ff_jumps\":5,"
        ));
        // Throughput divides by the *active* wall (only the compress
        // cell simulated): 100 cycles / 2.0 s, not / 2.5 s total.
        assert!(json.contains("\"active_wall_seconds\":2.000000"));
        assert!(json.contains("\"simulated_cycles_per_second\":50.000000"));
        // The cell that simulated nothing reports null, not 0.
        assert!(json.contains("\"simulated_cycles_per_second\":null"));
        assert!(json.contains("\"total_trace_build_seconds\":0.500000"));
        assert!(json.contains("\"total_simulate_seconds\":1.250000"));
        assert!(json.contains("\"total_il_build_seconds\":0.125000"));
        assert!(json.contains("\"total_prepass_seconds\":0.250000"));
        assert!(json.contains("\"total_schedule_seconds\":0.062500,\"store\":"));
        assert!(json.contains(
            "\"store\":{\"trace_hits\":3,\"trace_misses\":1,\"sim_hits\":2,\"sim_misses\":4,\
             \"disk_hits\":5,\"disk_misses\":2,\"disk_stores\":2,\"disk_evictions\":1,\
             \"disk_quarantined\":1}"
        ));
        assert!(json.contains("\"obs\":null"), "no --obs recorded for this run");
        assert!(json.contains("\"explain\":null"), "not an explain run");
        assert!(json.contains("\"profile\":null"), "not a profile run");
        assert!(json.contains("\"pipetrace\":null"), "not a pipetrace run");
        assert!(json.contains("\"flight\":null"), "no --flight recorded for this run");
        assert!(json.contains(
            "\"cells\":[{\"id\":\"table2/compress\",\"status\":\"ok\",\"error\":null,\
             \"watchdog_exceeded\":false,"
        ));
        assert!(json.contains(
            "{\"id\":\"table2/broken\",\"status\":\"panicked\",\"error\":\"boom\",\
             \"watchdog_exceeded\":true,"
        ));
        assert!(json.contains("\"trace_build_seconds\":0.500000"));
        assert!(json.contains("\"simulate_seconds\":1.250000,\"il_build_seconds\":0.125000,\
                               \"prepass_seconds\":0.250000,\"schedule_seconds\":0.062500}"));
    }

    #[test]
    fn obs_run_records_dir_and_interval() {
        let info = RunInfo {
            obs_dir: Some("out/obs".into()),
            sample_interval: 1024,
            ..RunInfo::default()
        };
        let json = report_json(&info, &StoreCounters::default(), &[]).render();
        assert!(json.contains("\"obs\":{\"dir\":\"out/obs\",\"sample_interval\":1024}"));
    }

    #[test]
    fn explain_run_records_dir_and_baseline() {
        let info = RunInfo {
            explain_dir: Some("critpath_out".into()),
            explain_baseline: Some("single".into()),
            ..RunInfo::default()
        };
        let json = report_json(&info, &StoreCounters::default(), &[]).render();
        assert!(json.contains("\"explain\":{\"dir\":\"critpath_out\",\"baseline\":\"single\"}"));
        let bare = RunInfo { explain_dir: Some("out".into()), ..RunInfo::default() };
        let json = report_json(&bare, &StoreCounters::default(), &[]).render();
        assert!(json.contains("\"explain\":{\"dir\":\"out\",\"baseline\":null}"));
    }

    #[test]
    fn profile_and_flight_runs_record_their_targets() {
        let info = RunInfo {
            profile_dir: Some("hostprof_out".into()),
            flight_path: Some("run.flight.json".into()),
            ..RunInfo::default()
        };
        let json = report_json(&info, &StoreCounters::default(), &[]).render();
        assert!(json.contains("\"profile\":{\"dir\":\"hostprof_out\"}"));
        assert!(json.contains("\"flight\":{\"file\":\"run.flight.json\"}"));
    }

    #[test]
    fn pipetrace_run_records_dir_range_and_baseline() {
        let info = RunInfo {
            pipetrace_dir: Some("pipetrace_out".into()),
            pipetrace_range: Some("100..200".into()),
            pipetrace_baseline: Some("single".into()),
            ..RunInfo::default()
        };
        let json = report_json(&info, &StoreCounters::default(), &[]).render();
        assert!(json.contains(
            "\"pipetrace\":{\"dir\":\"pipetrace_out\",\"range\":\"100..200\",\
             \"baseline\":\"single\"}"
        ));
        let bare = RunInfo { pipetrace_dir: Some("out".into()), ..RunInfo::default() };
        let json = report_json(&bare, &StoreCounters::default(), &[]).render();
        assert!(json.contains("\"pipetrace\":{\"dir\":\"out\",\"range\":null,\"baseline\":null}"));
    }

    #[test]
    fn watchdog_is_off_by_default_and_renders_null() {
        let json = report_json(&RunInfo::default(), &StoreCounters::default(), &[]).render();
        assert!(json.contains("\"keep_going\":false"));
        assert!(json.contains("\"watchdog_seconds\":null"));
        assert!(json.contains("\"failed_cells\":0"));
        assert!(json.contains("\"obs\":null"));
    }

    fn mixed_cells() -> Vec<Cell<usize>> {
        (0..5)
            .map(|i| {
                Cell::new(format!("cell/{i}"), move || match i {
                    2 => panic!("cell {i} exploded"),
                    3 => Err(Error::Store("cache poisoned".into())),
                    _ => Ok((i, CellCost::cycles(7))),
                })
            })
            .collect()
    }

    #[test]
    fn panicking_cell_becomes_an_ordinary_error_in_run_cells() {
        // Both serial and parallel paths must catch the panic rather
        // than unwind through the pool.
        for jobs in [1, 4] {
            let err = run_cells(jobs, mixed_cells()).expect_err("must fail");
            match err {
                Error::Panic { cell, message } => {
                    assert_eq!(cell, "cell/2");
                    assert_eq!(message, "cell 2 exploded");
                }
                other => panic!("expected Panic, got {other}"),
            }
        }
    }

    #[test]
    fn isolated_run_keeps_surviving_payloads_and_records_statuses() {
        for jobs in [1, 4] {
            let (payloads, metrics) = run_cells_isolated(jobs, mixed_cells(), None);
            assert_eq!(payloads, vec![Some(0), Some(1), None, None, Some(4)]);
            assert_eq!(metrics[0].status, CellStatus::Ok);
            assert_eq!(metrics[2].status, CellStatus::Panicked("cell 2 exploded".into()));
            assert_eq!(
                metrics[3].status,
                CellStatus::Error("trace store: cache poisoned".into())
            );
            assert!(metrics.iter().all(|m| !m.watchdog_exceeded), "no watchdog configured");
        }
    }

    #[test]
    fn hard_watchdog_cancels_runaway_simulations() {
        // A vanishingly small budget on a run long enough to cross the
        // simulator's poll stride: the cooperative poll must cancel the
        // run with a structured timeout, which the isolated runner
        // records as a failed cell.
        let cells: Vec<Cell<u64>> = vec![Cell::new("runaway", || {
            use mcl_isa::ArchReg;
            let mut b = mcl_trace::ProgramBuilder::<ArchReg>::new("runaway");
            b.lda(ArchReg::int(1), 1);
            for _ in 0..6000 {
                b.addq(ArchReg::int(1), ArchReg::int(1), ArchReg::int(1));
            }
            let program = b.finish().expect("valid chain program");
            let result = mcl_core::Processor::new(
                mcl_core::ProcessorConfig::single_cluster_8way(),
            )
            .run_program(&program)?;
            Ok((result.stats.cycles, CellCost::default()))
        })];
        let (payloads, metrics) = run_cells_isolated(1, cells, Some(1e-9));
        assert_eq!(payloads, vec![None], "the cancelled cell yields no payload");
        match &metrics[0].status {
            CellStatus::Error(m) => {
                assert!(m.contains("hard watchdog deadline exceeded"), "unexpected error: {m}");
            }
            other => panic!("expected a timeout error, got {other:?}"),
        }
        assert!(metrics[0].watchdog_exceeded, "the soft marker agrees");
    }

    #[test]
    fn soft_watchdog_marks_slow_cells() {
        let cells: Vec<Cell<u32>> = vec![
            Cell::new("fast", || Ok((1, CellCost::default()))),
            Cell::new("slow", || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                Ok((2, CellCost::default()))
            }),
        ];
        let (_, metrics) = run_cells_isolated(1, cells, Some(0.01));
        assert!(!metrics[0].watchdog_exceeded);
        assert!(metrics[1].watchdog_exceeded);
        assert_eq!(
            metrics[1].status,
            CellStatus::Ok,
            "a soft overrun outside the simulator still returns its payload"
        );
    }
}
