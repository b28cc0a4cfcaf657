//! Fast-forward differential: dead-cycle fast-forward is an execution
//! strategy, not a model change, so for any program a fast-forwarded
//! run must produce byte-identical [`SimStats`] to the same run
//! single-stepped. The single-stepped oracle is the same engine with an
//! enabled no-op probe attached ([`Stepped`]): any enabled probe, like
//! cycle-level checking, forces single-stepping.
//!
//! Programs are randomized IL (deterministic [`mcl_testutil::Rng`]
//! seeds, so failures reproduce exactly): counted loops with int/fp ALU
//! traffic across both clusters' registers, loads and stores for data
//! cache misses, and back-edge branches for mispredictions, run on the
//! single-cluster preset, the dual-cluster preset, and a tiny-buffer
//! dual machine that forces replay exceptions.
//!
//! The same programs also feed trace-derived oracles that share no
//! simulator code: an [`EventLog`] probe's `Retired` and `ExecDone`
//! events are checked against nothing but the trace itself, and its
//! distribute/issue/squash events recount `stats.issue_disorder`.

use std::collections::BTreeSet;

use mcl_core::{
    CheckLevel, CritPathProbe, Event, EventKind, EventLog, FastForward, Probe, Processor,
    ProcessorConfig, SimResult,
};
use mcl_isa::{assign::RegisterAssignment, ArchReg};
use mcl_sched::{SchedulePipeline, SchedulerKind};
use mcl_testutil::Rng;
use mcl_trace::{vm::trace_program, PackedTrace, Program, ProgramBuilder};
use mcl_workloads::Benchmark;

/// The single-stepped oracle: `ENABLED` keeps its default `true`, so the
/// run single-steps, and every hook is a no-op.
struct Stepped;

impl Probe for Stepped {}

/// Machine presets the differential runs on. The tiny-buffer dual
/// machine forces transfer-buffer replays through both paths.
fn presets() -> Vec<(&'static str, ProcessorConfig)> {
    let mut tiny = ProcessorConfig::dual_cluster_8way();
    tiny.operand_buffer = 1;
    tiny.result_buffer = 1;
    vec![
        ("single", ProcessorConfig::single_cluster_8way()),
        ("dual", ProcessorConfig::dual_cluster_8way()),
        ("dual-tiny-buffers", tiny),
    ]
}

/// A random but valid program: a counted loop whose body mixes integer
/// and floating-point ALU ops over registers of both clusters with
/// loads and stores over a small memory window, followed by a random
/// straightline tail. Loop exits mispredict, cold lines miss, and long
/// dependence chains leave plenty of dead cycles to skip.
fn random_program(rng: &mut Rng) -> Program<ArchReg> {
    let mut b = ProgramBuilder::<ArchReg>::new("engine-diff");
    // Avoid the architecturally special registers: GP/SP (29/30) and
    // the hardwired zeros (31). r0 is the loop counter, r1 the memory
    // base pointer.
    let int = |rng: &mut Rng| ArchReg::int(rng.range(2, 29) as u8);
    let fp = |rng: &mut Rng| ArchReg::fp(rng.range(0, 31) as u8);
    for slot in 0..16u64 {
        b.mem_init(0x4000 + 8 * slot, rng.next_u64() >> 8);
    }
    for i in 2..8 {
        b.lda(ArchReg::int(i), rng.range_i64(-1000, 1000));
    }
    b.lda(ArchReg::int(0), rng.range_i64(2, 9));
    b.lda(ArchReg::int(1), 0x4000);

    let body = b.new_block("body");
    let tail = b.new_block("tail");
    b.switch_to(body);
    let body_ops = rng.range(4, 24);
    emit_random_ops(&mut b, rng, body_ops, &int, &fp);
    b.subq_imm(ArchReg::int(0), ArchReg::int(0), 1);
    b.bne(ArchReg::int(0), body);
    b.switch_to(tail);
    let tail_ops = rng.range(2, 16);
    emit_random_ops(&mut b, rng, tail_ops, &int, &fp);
    b.finish().expect("generated programs are structurally valid")
}

fn emit_random_ops(
    b: &mut ProgramBuilder<ArchReg>,
    rng: &mut Rng,
    count: usize,
    int: &impl Fn(&mut Rng) -> ArchReg,
    fp: &impl Fn(&mut Rng) -> ArchReg,
) {
    let base = ArchReg::int(1);
    for _ in 0..count {
        match rng.below(8) {
            0 => {
                let (d, a, s) = (int(rng), int(rng), int(rng));
                b.addq(d, a, s);
            }
            1 => {
                let (d, a) = (int(rng), int(rng));
                let imm = rng.range_i64(-128, 128);
                b.addq_imm(d, a, imm);
            }
            2 => {
                let (d, a, s) = (int(rng), int(rng), int(rng));
                b.mulq(d, a, s);
            }
            3 => {
                let (d, a, s) = (fp(rng), fp(rng), fp(rng));
                b.addt(d, a, s);
            }
            4 => {
                let (d, a, s) = (fp(rng), fp(rng), fp(rng));
                b.mult(d, a, s);
            }
            5 => {
                let d = int(rng);
                let offset = 8 * rng.range_i64(0, 16);
                b.ldq(d, base, offset);
            }
            6 => {
                let v = int(rng);
                let offset = 8 * rng.range_i64(0, 16);
                b.stq(base, offset, v);
            }
            _ => {
                let (d, a) = (fp(rng), fp(rng));
                b.sqrtt(d, a);
            }
        }
    }
}

fn run(cfg: &ProcessorConfig, trace: &PackedTrace) -> SimResult {
    Processor::new(cfg.clone()).run_packed(trace).expect("runs")
}

fn run_stepped(cfg: &ProcessorConfig, trace: &PackedTrace) -> SimResult {
    Processor::new(cfg.clone()).run_packed_observed(trace, &mut Stepped).expect("runs")
}

fn random_traces(seeds: std::ops::Range<u64>) -> impl Iterator<Item = (u64, PackedTrace)> {
    seeds.map(|seed| {
        let program = random_program(&mut Rng::new(seed));
        let (trace, _) = trace_program(&program).expect("valid program");
        (seed, PackedTrace::from_ops(&trace))
    })
}

#[test]
fn engines_agree_on_random_programs() {
    let presets = presets();
    let mut total_skipped = 0u64;
    let mut total_jumps = 0u64;
    for (seed, packed) in random_traces(0..24) {
        for (name, cfg) in &presets {
            let stepped = run_stepped(cfg, &packed);
            let fast = run(cfg, &packed);
            assert_eq!(
                stepped.stats, fast.stats,
                "seed {seed} preset {name}: fast-forward diverged from single-stepping"
            );
            assert_eq!(
                stepped.ff,
                FastForward::default(),
                "seed {seed} preset {name}: a probed run must not fast-forward"
            );
            assert!(
                fast.ff.skipped_cycles < fast.stats.cycles,
                "seed {seed} preset {name}: skipped more cycles than were simulated"
            );
            total_skipped += fast.ff.skipped_cycles;
            total_jumps += fast.ff.jumps;
        }
    }
    // The suite as a whole must exercise the fast-forward path, or the
    // differential proves nothing about it.
    assert!(
        total_jumps > 0 && total_skipped > 0,
        "no random program ever fast-forwarded (skipped={total_skipped}, jumps={total_jumps})"
    );
}

#[test]
fn engines_agree_under_the_cycle_level_checker() {
    // CheckLevel::Cycle pins the run to single-stepping (the checker
    // audits every cycle), so the checked run is a second
    // single-stepped oracle for the plain fast-forwarded run.
    let presets = presets();
    for (seed, packed) in random_traces(0..6) {
        for (name, cfg) in &presets {
            let fast = run(cfg, &packed);
            let checked = run(&cfg.clone().with_check_level(CheckLevel::Cycle), &packed);
            assert_eq!(
                fast.stats, checked.stats,
                "seed {seed} preset {name}: the cycle-checked run diverged"
            );
            assert_eq!(
                checked.ff,
                FastForward::default(),
                "seed {seed} preset {name}: cycle-level checking must disable fast-forward"
            );
        }
    }
}

#[test]
fn critpath_attribution_is_engine_invariant() {
    // An attached probe forces single-stepping (fast-forward would skip
    // the per-cycle hook points), so the instrumented run must agree
    // with the fast-forwarded unprobed stats, and its critical-path
    // attribution must sum exactly to the cycle count.
    let presets = presets();
    for (seed, packed) in random_traces(0..6) {
        for (name, cfg) in &presets {
            let unprobed = run(cfg, &packed);
            let mut probe = CritPathProbe::new();
            let observed =
                Processor::new(cfg.clone()).run_packed_observed(&packed, &mut probe).expect("runs");
            assert_eq!(
                observed.stats, unprobed.stats,
                "seed {seed} preset {name}: probe perturbed the run"
            );
            assert_eq!(
                observed.ff,
                FastForward::default(),
                "seed {seed} preset {name}: probes must disable fast-forward"
            );
            probe
                .attribution(observed.stats.cycles)
                .check_identity(observed.stats.cycles)
                .unwrap_or_else(|e| panic!("seed {seed} preset {name}: {e}"));
        }
    }
}

#[test]
fn event_log_retires_the_trace_in_order() {
    // Judged from the trace and the event log alone: every op retires
    // exactly once, in trace order, at non-decreasing cycles, and no
    // earlier than its final incarnation finished executing.
    let presets = presets();
    for (seed, packed) in random_traces(0..24) {
        let len = packed.len();
        for (name, cfg) in &presets {
            let mut log = EventLog::new();
            let result =
                Processor::new(cfg.clone()).run_packed_observed(&packed, &mut log).expect("runs");
            let retired: Vec<&Event> =
                log.events().iter().filter(|e| e.kind == EventKind::Retired).collect();
            let seqs: Vec<u64> = retired.iter().map(|e| e.seq).collect();
            assert_eq!(
                seqs,
                (0..len as u64).collect::<Vec<_>>(),
                "seed {seed} preset {name}: retire order is not trace order"
            );
            assert_eq!(
                retired.len() as u64,
                result.stats.retired,
                "seed {seed} preset {name}: Retired events disagree with stats.retired"
            );
            assert!(
                retired.windows(2).all(|w| w[0].cycle <= w[1].cycle),
                "seed {seed} preset {name}: retire cycles went backwards"
            );
            // Squashed incarnations log their own ExecDone; the last one
            // logged belongs to the incarnation that retired.
            let mut last_done = vec![None; len];
            for e in log.events().iter().filter(|e| e.kind == EventKind::ExecDone) {
                last_done[e.seq as usize] = Some(e.cycle);
            }
            for e in &retired {
                let done = last_done[e.seq as usize].unwrap_or_else(|| {
                    panic!("seed {seed} preset {name}: #{} retired without ExecDone", e.seq)
                });
                assert!(
                    done <= e.cycle,
                    "seed {seed} preset {name}: #{} retired at {} before ExecDone at {done}",
                    e.seq,
                    e.cycle
                );
            }
        }
    }
}

/// Issue disorder recounted from the event log alone: replay the log in
/// order keeping, per cluster, the copies distributed there and not yet
/// issued or squashed. An issue is out of order when an older copy is
/// still pending in its cluster.
fn disorder_from_log(log: &EventLog) -> u64 {
    let mut pending: [BTreeSet<u64>; 2] = Default::default();
    let mut disorder = 0;
    for e in log.events() {
        let cluster = || e.cluster.expect("distribute and issue events name a cluster").index();
        match e.kind {
            EventKind::Distributed => {
                assert!(pending[cluster()].insert(e.seq), "#{} distributed twice", e.seq);
            }
            EventKind::MasterIssued | EventKind::SlaveIssued => {
                let set = &mut pending[cluster()];
                assert!(set.remove(&e.seq), "#{} issued without a pending copy", e.seq);
                if set.first().is_some_and(|&oldest| oldest < e.seq) {
                    disorder += 1;
                }
            }
            EventKind::ReplaySquashed => {
                for set in &mut pending {
                    set.remove(&e.seq);
                }
            }
            _ => {}
        }
    }
    assert!(pending.iter().all(BTreeSet::is_empty), "copies never issued");
    disorder
}

/// Runs `trace` with an event log and checks `stats.issue_disorder`
/// against [`disorder_from_log`]; returns the stats.
fn check_issue_disorder(what: &str, cfg: &ProcessorConfig, trace: &PackedTrace) -> SimResult {
    let mut log = EventLog::new();
    let result = Processor::new(cfg.clone()).run_packed_observed(trace, &mut log).expect("runs");
    assert_eq!(
        result.stats.issue_disorder,
        disorder_from_log(&log),
        "{what}: issue disorder disagrees with the event log"
    );
    result
}

#[test]
fn issue_disorder_matches_the_event_log() {
    let presets = presets();
    let mut disorder = 0;
    for (seed, packed) in random_traces(0..24) {
        for (name, cfg) in &presets {
            let what = format!("seed {seed} preset {name}");
            disorder += check_issue_disorder(&what, cfg, &packed).stats.issue_disorder;
        }
    }
    assert!(disorder > 0, "no random program ever issued out of order");

    // The benchmarks' local schedules on one- and two-entry transfer
    // buffers: transfer-buffer deadlocks replay often (446 times for
    // ora on one entry), squashing copies still waiting on operands.
    // su2cor and tomcatv bottom out at scale 1, about 58 k ops; a
    // prefix keeps them near the others' 3-6 k ops and the debug build
    // fast.
    let assign = RegisterAssignment::even_odd_with_default_globals(2);
    let mut replays = 0;
    for bench in Benchmark::ALL {
        let il = bench.build(bench.scaled(40));
        let local = SchedulePipeline::new(SchedulerKind::Local, &assign).run(&il).expect("schedules");
        let (mut ops, _) = trace_program(&local.program).expect("traces");
        ops.truncate(8_000);
        let packed = PackedTrace::from_ops(&ops);
        for buffers in [1, 2] {
            let mut cfg = ProcessorConfig::dual_cluster_8way();
            cfg.operand_buffer = buffers;
            cfg.result_buffer = buffers;
            let what = format!("{bench} buffers {buffers}");
            replays += check_issue_disorder(&what, &cfg, &packed).stats.replays;
        }
    }
    assert!(replays > 0, "no benchmark replayed, so no squash was recounted");
}
