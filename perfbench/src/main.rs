//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]`
//!
//! Sets up (five times, reporting the median), then runs passes of the
//! workload until `--seconds` have passed, checks every result, and
//! prints one JSON result object as its last line of output. With
//! `--trace 1` it records spans on two passes in three, reports the
//! per-layer metrics, and writes the spans to
//! `DIR/trace-<workload>-seed<N>.json`.
//!
//! `perfbench --record-digests [--out DIR]` prints the digest table of
//! every simulation at the default seed, in the form `digests.txt`
//! holds.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use perfbench::check::{fnv1a, Checker, DigestTable, PINNED};
use perfbench::metrics::{self, median, Metric, PassRecord, SimRecord};
use perfbench::passes::{self, Ctx, Lens, PassOutcome, Workload};
use perfbench::plan::{Plan, DEFAULT_SEED};
use perfbench::spans::{chrome_trace, Tracer};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Passes run however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    record_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Table2,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_build/perfbench"),
        record_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-digests" {
            args.record_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = Workload::parse(&value).ok_or_else(bad)?,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let plan = Plan::from_seed(args.seed);
    println!("{}", plan.describe());

    let mut setup_s = Vec::new();
    let mut lens = Lens::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        lens = passes::trace_lens(&plan)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if args.record_digests {
        return record_digests(&plan, &lens, cpus.min(2), &args.out);
    }

    let workload = args.workload;
    let workers = if workload == Workload::Sweep {
        cpus.min(2)
    } else {
        1
    };
    if workload == Workload::Sweep {
        println!("sweep: {workers} workers, available_parallelism {cpus}");
    }
    let pinned = if args.seed == DEFAULT_SEED {
        Some(DigestTable::parse(PINNED)?)
    } else {
        None
    };
    let mut checker = Checker::new(pinned);
    let tracer = Arc::new(Tracer::new());
    let scratch = args.out.join(format!("tmp-{}", std::process::id()));
    let retired = workload.retired_per_pass(&plan, &lens);

    let mut passes: Vec<PassRecord> = Vec::new();
    let start = Instant::now();
    loop {
        let i = passes.len();
        if i >= MIN_PASSES {
            let typical = median(&passes.iter().map(|p| p.seconds).collect::<Vec<_>>());
            if start.elapsed().as_secs_f64() + typical > args.seconds {
                break;
            }
        }
        let pass = u32::try_from(i).expect("fewer than 2^32 passes");
        let traced = args.trace && i % 3 != 2;
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
        tracer.start_pass(pass, traced);
        let t = Instant::now();
        let root = tracer.span("pass", || workload.name().to_owned(), None);
        let ctx = Ctx {
            plan: &plan,
            tracer: &tracer,
            root: root.id(),
            workers,
            export_dir: &scratch,
        };
        let outcome = passes::run(workload, &ctx);
        let root = root.finish().map(|(id, _)| id);
        let seconds = t.elapsed().as_secs_f64();
        tracer.start_pass(pass, false);

        let export_bytes = if workload == Workload::Diagnose {
            let (bytes, digest) = exports(&scratch)?;
            checker.output("exports", Ok(digest));
            bytes
        } else {
            0
        };
        std::fs::remove_dir_all(&scratch)
            .map_err(|e| format!("removing {}: {e}", scratch.display()))?;
        let sims = check(&mut checker, outcome, &lens);
        passes.push(PassRecord {
            pass,
            traced,
            seconds,
            root,
            sims,
            export_bytes,
        });
    }

    let untraced: Vec<&PassRecord> = passes.iter().filter(|p| !p.traced).collect();
    let rates = metrics::minst_per_s(&untraced, retired);
    println!(
        "{}: {} passes, {retired} instructions retired per pass, Minst/s per untraced pass {:?} \
         (median {:.3})",
        workload.name(),
        passes.len(),
        rates
            .iter()
            .map(|r| (r * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        median(&rates),
    );
    for e in &checker.errors {
        println!("failed: {e}");
    }
    let metrics: Vec<Metric> = if args.trace {
        let spans = tracer.spans();
        let path = args
            .out
            .join(format!("trace-{}-seed{}.json", workload.name(), args.seed));
        std::fs::write(&path, chrome_trace(&spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {} written to {}", spans.len(), path.display());
        let trace_ops: u64 = lens.values().sum();
        let layer = metrics::per_layer(&passes, &spans, retired, trace_ops, workers);
        let value = |name: &str| {
            layer
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        let selfs: f64 = layer
            .iter()
            .filter(|m| m.name.starts_with("self."))
            .map(|m| m.value)
            .sum();
        println!(
            "traced passes: self times sum to {selfs:.6} s of a {:.6} s mean pass; \
             tracing overhead {:.2}% of untraced Minst/s",
            value("pass_s"),
            100.0 * value("tracing.overhead_frac"),
        );
        layer
    } else {
        vec![
            Metric {
                name: "minst_per_s".into(),
                unit: "Minst/s",
                value: median(&rates),
            },
            Metric {
                name: "setup_s".into(),
                unit: "s",
                value: median(&setup_s),
            },
            Metric {
                name: "peak_rss_mb".into(),
                unit: "MiB",
                value: peak_rss_mib()?,
            },
        ]
    };
    println!(
        "{}",
        metrics::result_line(checker.attempted, checker.failed, &metrics)
    );
    Ok(())
}

/// Checks a pass's results; returns what each good simulation counted.
fn check(checker: &mut Checker, outcome: PassOutcome, lens: &Lens) -> Vec<SimRecord> {
    let mut sims = Vec::new();
    for s in outcome.sims {
        let len = lens[&(s.bench, s.code)];
        checker.sim(
            &s.key,
            s.result
                .as_ref()
                .map(|(stats, _)| stats)
                .map_err(Clone::clone),
            len,
        );
        if let Ok((stats, ff)) = s.result {
            sims.push(SimRecord {
                key: s.key,
                bench: s.bench,
                dq: s.dq,
                cycles: stats.cycles,
                skipped: ff.skipped_cycles,
                jumps: ff.jumps,
            });
        }
    }
    for (key, result) in outcome.outputs {
        checker.output(&key, result);
    }
    sims
}

/// Total bytes under `dir` and a digest of every file's name and
/// contents.
fn exports(dir: &Path) -> Result<(u64, u64), String> {
    let mut files = Vec::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(d) = todo.pop() {
        for entry in std::fs::read_dir(&d).map_err(|e| format!("reading {}: {e}", d.display()))? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                todo.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut bytes = 0;
    let mut parts = Vec::new();
    for f in files {
        let data = std::fs::read(&f).map_err(|e| format!("reading {}: {e}", f.display()))?;
        bytes += data.len() as u64;
        let name = f
            .strip_prefix(dir)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        parts.extend_from_slice(name.as_bytes());
        parts.extend_from_slice(&fnv1a(&data).to_le_bytes());
    }
    Ok((bytes, fnv1a(&parts)))
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Prints the digest of every simulation `table2` and `sweep` run at
/// the default seed.
fn record_digests(plan: &Plan, lens: &Lens, workers: usize, out: &Path) -> Result<(), String> {
    if plan.seed != DEFAULT_SEED {
        return Err(format!(
            "digests are recorded at the default seed {DEFAULT_SEED}"
        ));
    }
    let tracer = Arc::new(Tracer::new());
    let mut table = DigestTable::default();
    let mut checker = Checker::new(None);
    for workload in [Workload::Table2, Workload::Sweep] {
        let ctx = Ctx {
            plan,
            tracer: &tracer,
            root: None,
            workers,
            export_dir: out,
        };
        let outcome = passes::run(workload, &ctx);
        for s in &outcome.sims {
            if let Ok((stats, _)) = &s.result {
                table.insert(&s.key, perfbench::check::digest(stats));
            }
        }
        check(&mut checker, outcome, lens);
    }
    if checker.failed > 0 {
        return Err(format!(
            "{} of {} simulations failed: {:?}",
            checker.failed, checker.attempted, checker.errors
        ));
    }
    print!("{}", table.render());
    Ok(())
}
