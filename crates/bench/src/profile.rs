//! `repro profile` — host engine phase-cost attribution reports.
//!
//! For each benchmark this module reruns the dual-cluster /
//! local-scheduler Table 2 cell with a [`PhaseProf`] attached and turns
//! the telescoped per-phase nanosecond buckets into two artifacts:
//!
//! - `<bench>.hostprof.json` — the machine-readable breakdown (schema
//!   [`HOSTPROF_SCHEMA_VERSION`], validated by `repro obs-validate`);
//! - a rendered ranked ns-per-live-cycle report, printed by the driver.
//!
//! Where `repro explain` attributes *simulated cycles* to machine
//! causes, `repro profile` attributes *host nanoseconds* to engine
//! phases: where the wall time of a live cycle actually goes inside the
//! simulator (dispatch, issue, wakeup, completion drains, retire,
//! checker, fast-forward bookkeeping). The profiled run deliberately
//! takes the real engine path — unlike probes, a [`HostProf`] does not
//! force single-stepping — and its statistics are cross-checked for
//! equality against the store's unprofiled run, so profiling can never
//! perturb what it measures. Each report also carries the hard
//! sum-to-elapsed identity ([`HostProfReport::check_identity`]), which
//! is re-checked from the file by [`validate_hostprof`].

use std::path::Path;

use mcl_core::obs::hostprof::HOSTPROF_SLOP_NS;
use mcl_core::{HostPhase, HostProfReport, Processor, ProcessorConfig};
use mcl_sched::SchedulerKind;
use mcl_workloads::Benchmark;

use crate::json::Json;
use crate::runner::CellCost;
use crate::store::TraceRequest;
use crate::{Error, TraceStore};

/// Schema version of the `*.hostprof.json` exports.
pub const HOSTPROF_SCHEMA_VERSION: u64 = 1;

fn profile_err(stem: &str, detail: impl std::fmt::Display) -> Error {
    Error::Obs(format!("hostprof {stem}: {detail}"))
}

/// Runs one profiled companion of the dual-cluster local-scheduler cell
/// and cross-checks it against the store's unprofiled run.
fn profiled_run(
    store: &TraceStore,
    stem: &str,
    req: &TraceRequest,
    cfg: &ProcessorConfig,
    cost: &mut CellCost,
) -> Result<HostProfReport, Error> {
    let expected = store.sim(req, cfg)?;
    cost.charge_sim(&expected);
    let (trace, _) = store.trace(req)?;
    let (result, report) = Processor::new(cfg.clone())
        .run_packed_profiled(&trace)
        .map_err(Error::Sim)?;
    // Observe, never perturb: a profiler only reads the host clock, so
    // the simulated machine must be bit-identical to the unprofiled run.
    if result.stats != expected.stats {
        return Err(profile_err(
            stem,
            format!(
                "profiled run diverged from the store run ({} vs {} cycles) — \
                 host profiling must not affect simulation",
                result.stats.cycles, expected.stats.cycles
            ),
        ));
    }
    report.check_identity().map_err(|e| profile_err(stem, e))?;
    if report.live_cycles > report.cycles {
        return Err(profile_err(
            stem,
            format!(
                "profiler counted {} live cycles in a {}-cycle run",
                report.live_cycles, report.cycles
            ),
        ));
    }
    Ok(report)
}

/// Runs the profile cell of one benchmark: profiles the dual-cluster
/// local-scheduler run, writes `<bench>.hostprof.json` into `dir`, and
/// returns the rendered ranked report plus the cell cost.
///
/// # Errors
///
/// [`Error::Obs`] when the sum-to-elapsed identity fails, the profiled
/// run diverges from the store run, or the export cannot be written;
/// harness errors propagate.
pub fn profile_cell(
    store: &TraceStore,
    bench: Benchmark,
    scale: u32,
    dir: &Path,
) -> Result<(String, CellCost), Error> {
    let mut cost = CellCost::default();
    let report = profiled_run(
        store,
        bench.name(),
        &TraceRequest::new(bench, scale, SchedulerKind::Local),
        &ProcessorConfig::dual_cluster_8way(),
        &mut cost,
    )?;

    std::fs::create_dir_all(dir)
        .map_err(|e| profile_err(bench.name(), format!("creating {}: {e}", dir.display())))?;
    let path = dir.join(format!("{}.hostprof.json", bench.name()));
    let doc = hostprof_json(bench, &report);
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|e| profile_err(bench.name(), format!("writing {}: {e}", path.display())))?;

    Ok((render_cell(bench, &report), cost))
}

fn hostprof_json(bench: Benchmark, report: &HostProfReport) -> Json {
    let mut phases = Json::object();
    for phase in HostPhase::ALL {
        phases.field(phase.name(), report.phase_ns[phase.index()].into());
    }
    let mut obj = Json::object();
    obj.field("schema_version", HOSTPROF_SCHEMA_VERSION.into())
        .field("benchmark", bench.name().into())
        .field("config", "dual_cluster_8way".into())
        .field("scheduler", "local".into())
        .field("cycles", report.cycles.into())
        .field("live_cycles", report.live_cycles.into())
        .field("elapsed_ns", report.elapsed_ns.into())
        .field("slop_ns", HOSTPROF_SLOP_NS.into())
        .field("ns_per_live_cycle", report.ns_per_live_cycle().into())
        .field("phase_ns", phases);
    obj
}

/// Phases ordered by descending charged time (stable on ties).
fn ranked(report: &HostProfReport) -> Vec<(HostPhase, u64)> {
    let mut phases: Vec<(HostPhase, u64)> =
        HostPhase::ALL.iter().map(|&p| (p, report.phase_ns[p.index()])).collect();
    phases.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
    phases
}

fn render_cell(bench: Benchmark, report: &HostProfReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let skipped = report.cycles.saturating_sub(report.live_cycles);
    let _ = writeln!(
        out,
        "{}: {:.0} ns/live-cycle over {} live cycles ({} simulated, {} fast-forwarded)",
        bench.name(),
        report.ns_per_live_cycle(),
        report.live_cycles,
        report.cycles,
        skipped
    );
    let total = report.total_ns().max(1);
    for (phase, ns) in ranked(report) {
        if ns == 0 {
            continue;
        }
        let per_cycle = if report.live_cycles == 0 {
            0.0
        } else {
            ns as f64 / report.live_cycles as f64
        };
        let _ = writeln!(
            out,
            "  {:<14} {:>5.1}%  {:>10.1} ns/cycle  {:>14} ns",
            phase.name(),
            ns as f64 / total as f64 * 100.0,
            per_cycle,
            ns
        );
    }
    out
}

/// Validates one `*.hostprof.json` export: schema version, a complete
/// per-phase breakdown, and — re-checked from the file itself — the
/// sum-to-elapsed identity (phase buckets sum to no more than
/// `elapsed_ns` and trail it by at most the file's recorded `slop_ns`).
///
/// # Errors
///
/// [`Error::Obs`] describing the first violation.
pub fn validate_hostprof(path: &Path) -> Result<(), Error> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| profile_err(&path.display().to_string(), format!("reading: {e}")))?;
    let doc = Json::parse(&text)
        .map_err(|e| profile_err(&path.display().to_string(), e))?;
    let fail = |what: &str| profile_err(&path.display().to_string(), what.to_owned());
    if doc.get("schema_version").and_then(Json::as_u64) != Some(HOSTPROF_SCHEMA_VERSION) {
        return Err(fail("schema_version missing or unsupported"));
    }
    for key in ["cycles", "live_cycles", "elapsed_ns", "slop_ns"] {
        if doc.get(key).and_then(Json::as_u64).is_none() {
            return Err(fail(&format!("{key} missing")));
        }
    }
    let cycles = doc.get("cycles").and_then(Json::as_u64).unwrap();
    let live = doc.get("live_cycles").and_then(Json::as_u64).unwrap();
    if live == 0 || live > cycles {
        return Err(fail(&format!("implausible live_cycles {live} of {cycles} cycles")));
    }
    let elapsed = doc.get("elapsed_ns").and_then(Json::as_u64).unwrap();
    let slop = doc.get("slop_ns").and_then(Json::as_u64).unwrap();
    let phases = doc
        .get("phase_ns")
        .ok_or_else(|| fail("phase_ns object missing"))?;
    let mut sum = 0u64;
    for phase in HostPhase::ALL {
        sum += phases.get(phase.name()).and_then(Json::as_u64).ok_or_else(|| {
            fail(&format!("phase_ns.{} missing", phase.name()))
        })?;
    }
    if sum > elapsed {
        return Err(fail(&format!(
            "identity violated: phases sum to {sum} ns, elapsed is {elapsed} ns"
        )));
    }
    if elapsed - sum > slop {
        return Err(fail(&format!(
            "identity violated: {} ns unattributed (slop {slop} ns)",
            elapsed - sum
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("mcl-profile-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn profile_cell_exports_validate_and_report_ranks_phases() {
        let dir = temp_dir("cell");
        let store = TraceStore::new();
        let (rendered, cost) = profile_cell(&store, Benchmark::Compress, 40, &dir).unwrap();
        assert!(rendered.starts_with("compress: "), "{rendered}");
        assert!(rendered.contains("ns/live-cycle"), "{rendered}");
        assert!(cost.simulated_cycles > 0);

        let path = dir.join("compress.hostprof.json");
        validate_hostprof(&path).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("benchmark").and_then(Json::as_str), Some("compress"));
        assert_eq!(doc.get("scheduler").and_then(Json::as_str), Some("local"));
        let live = doc.get("live_cycles").and_then(Json::as_u64).unwrap();
        let cycles = doc.get("cycles").and_then(Json::as_u64).unwrap();
        assert!(live > 0 && live <= cycles);
        // Every phase key must be present, even when zero.
        for phase in HostPhase::ALL {
            assert!(
                doc.get("phase_ns").unwrap().get(phase.name()).and_then(Json::as_u64).is_some(),
                "phase {} exported",
                phase.name()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_hostprof_rejects_broken_identity() {
        let dir = temp_dir("broken");
        let path = dir.join("x.hostprof.json");
        let mut phases = String::new();
        for (i, phase) in HostPhase::ALL.iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            phases.push_str(&format!("\"{}\":1000", phase.name()));
        }
        // 8 phases × 1000 ns but the file claims 1 ns elapsed.
        let doc = format!(
            "{{\"schema_version\":1,\"benchmark\":\"x\",\"config\":\"c\",\"scheduler\":\"s\",\
             \"cycles\":10,\"live_cycles\":5,\"elapsed_ns\":1,\"slop_ns\":0,\
             \"ns_per_live_cycle\":1.0,\"phase_ns\":{{{phases}}}}}"
        );
        std::fs::write(&path, doc).unwrap();
        let err = validate_hostprof(&path).unwrap_err().to_string();
        assert!(err.contains("identity violated"), "{err}");
        // An unattributed gap past the recorded slop also fails.
        let doc = format!(
            "{{\"schema_version\":1,\"benchmark\":\"x\",\"config\":\"c\",\"scheduler\":\"s\",\
             \"cycles\":10,\"live_cycles\":5,\"elapsed_ns\":99000,\"slop_ns\":10,\
             \"ns_per_live_cycle\":1.0,\"phase_ns\":{{{phases}}}}}"
        );
        std::fs::write(&path, doc).unwrap();
        let err = validate_hostprof(&path).unwrap_err().to_string();
        assert!(err.contains("unattributed"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_hostprof_rejects_missing_phase_or_schema() {
        let dir = temp_dir("missing");
        let path = dir.join("x.hostprof.json");
        std::fs::write(&path, "{\"schema_version\":99}").unwrap();
        assert!(validate_hostprof(&path).is_err(), "wrong schema_version");
        std::fs::write(
            &path,
            "{\"schema_version\":1,\"cycles\":10,\"live_cycles\":5,\"elapsed_ns\":10,\
             \"slop_ns\":10,\"phase_ns\":{\"dispatch\":1}}",
        )
        .unwrap();
        let err = validate_hostprof(&path).unwrap_err().to_string();
        assert!(err.contains("phase_ns.timeq missing"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
