//! Dead-cycle fast-forward must keep skipping a deterministic share of
//! the paper's headline runs: the six Table 2 traces (local scheduler)
//! on the dual-cluster machine at scale divisor 8. The skip count is a
//! property of the traces and the machine, not of the host, so the
//! floor is exact and has no override.

use mcl_bench::{TraceRequest, TraceStore};
use mcl_core::{Processor, ProcessorConfig};
use mcl_sched::SchedulerKind;
use mcl_workloads::Benchmark;

#[test]
fn table2_traces_skip_at_least_a_quarter_of_cycles() {
    let store = TraceStore::new();
    let cfg = ProcessorConfig::dual_cluster_8way();
    let (mut skipped, mut cycles) = (0u64, 0u64);
    for bench in Benchmark::ALL {
        let req = TraceRequest::new(bench, bench.scaled(8), SchedulerKind::Local);
        let (trace, _) = store.trace(&req).expect("trace builds");
        let result = Processor::new(cfg.clone()).run_packed(&trace).expect("runs");
        skipped += result.ff.skipped_cycles;
        cycles += result.stats.cycles;
    }
    assert!(
        4 * skipped >= cycles,
        "fast-forward skipped {skipped} of {cycles} cycles ({:.1}%), floor 25%",
        100.0 * skipped as f64 / cycles as f64
    );
}
