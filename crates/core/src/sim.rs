//! The cycle-level simulation engine.
//!
//! [`Processor`] simulates the execution of a dynamic instruction stream
//! (a trace) on a single-cluster or dual-cluster dynamically-scheduled
//! processor, implementing the execution model of Section 2.1:
//! distribution by named registers, per-cluster register renaming and
//! dispatch queues, greedy oldest-first issue under the Table 1 rules,
//! operand/result transfer buffers with the paper's timing, suspended
//! slave copies, and instruction-replay exceptions for transfer-buffer
//! deadlock.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use mcl_bpred::BranchPredictor;
use mcl_isa::{ArchReg, ClusterId, InstrClass, RegBank};
use mcl_mem::{Access, Cache};
use mcl_trace::{vm::trace_program, PackedTrace, Program, TraceOp, TraceSource, VmError};

use crate::check::{self, CheckLevel, FaultInjection};
use crate::config::ProcessorConfig;
use crate::dist::{distribute, Distribution, PhysRegs};
use crate::events::EventKind;
use crate::obs::{
    CopyKind, CycleSnapshot, DeliverySource, HostPhase, HostProf, HostProfReport, IssueBlock,
    NullHostProf, NullProbe, PhaseProf, Probe, StallCause, TransferKind, TransferPhase,
};
use crate::pipeview::{render_window, WindowRow};
use crate::stats::{FastForward, SimStats};
use crate::timeq::{Entry, TimeQ};

/// The outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Accumulated statistics ([`SimStats::cycles`] is the paper's
    /// metric).
    pub stats: SimStats,
    /// Dead-cycle-skip counters (all zero for a single-stepped run).
    pub ff: FastForward,
}

/// Simulation errors.
#[derive(Debug)]
pub enum SimError {
    /// Trace generation (the functional VM) failed.
    Trace(VmError),
    /// The configured cycle limit was reached.
    CycleLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// The simulator detected a hard stall it could not attribute to a
    /// transfer-buffer deadlock — a bug, reported rather than hidden.
    /// The tolerated stall length is [`ProcessorConfig::wedge_threshold`].
    Wedged {
        /// The cycle at which progress stopped.
        cycle: u64,
        /// The oldest unretired instruction.
        oldest_seq: u64,
    },
    /// The invariant checker (see [`crate::check`]) found the
    /// architectural state inconsistent — a simulator bug or injected
    /// fault, reported with the failing rule and a window snapshot.
    Invariant {
        /// The cycle at which the violation was detected.
        cycle: u64,
        /// The violated rule (e.g. `otb-accounting`).
        rule: &'static str,
        /// Human-readable specifics of the imbalance.
        detail: String,
        /// A [`render_window`] view of the in-flight instructions.
        snapshot: String,
    },
    /// The cooperative hard watchdog (see [`crate::watchdog`]) found
    /// its wall-clock deadline exceeded and cancelled the run — a
    /// structured timeout instead of a runaway cell.
    Timeout {
        /// The cycle the simulation had reached when it was cancelled.
        cycle: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Trace(e) => write!(f, "trace generation failed: {e}"),
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} reached"),
            SimError::Wedged { cycle, oldest_seq } => {
                write!(f, "simulator wedged at cycle {cycle} (oldest instruction #{oldest_seq})")
            }
            SimError::Invariant { cycle, rule, detail, snapshot } => {
                write!(f, "invariant `{rule}` violated at cycle {cycle}: {detail}\n{snapshot}")
            }
            SimError::Timeout { cycle } => {
                write!(f, "hard watchdog deadline exceeded at cycle {cycle}; run cancelled")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VmError> for SimError {
    fn from(e: VmError) -> SimError {
        SimError::Trace(e)
    }
}

/// A simulated processor.
///
/// # Example
///
/// ```
/// use mcl_core::{Processor, ProcessorConfig};
/// use mcl_trace::ProgramBuilder;
/// use mcl_isa::ArchReg;
///
/// let mut b = ProgramBuilder::<ArchReg>::new("tiny");
/// let r2 = ArchReg::int(2);
/// b.lda(r2, 40);
/// b.addq_imm(r2, r2, 2);
/// let program = b.finish()?;
///
/// let result = Processor::new(ProcessorConfig::single_cluster_8way())
///     .run_program(&program)?;
/// assert_eq!(result.stats.retired, 2);
/// assert!(result.stats.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Processor {
    config: ProcessorConfig,
}

impl Processor {
    /// Creates a processor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`ProcessorConfig::check`]).
    #[must_use]
    pub fn new(config: ProcessorConfig) -> Processor {
        config.check();
        Processor { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// Generates the dynamic trace of `program` with the functional VM,
    /// then simulates it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] if the program does not execute, or
    /// any error of [`Processor::run_trace`].
    pub fn run_program(&mut self, program: &Program<ArchReg>) -> Result<SimResult, SimError> {
        let (trace, _profile) = trace_program(program)?;
        self.run_trace(&trace)
    }

    /// Simulates a dynamic instruction stream.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_trace(&mut self, trace: &[TraceOp]) -> Result<SimResult, SimError> {
        Sim::new(&self.config, trace, &mut NullProbe, &mut NullHostProf).run()
    }

    /// Simulates a packed dynamic instruction stream (same timing model
    /// and results as [`Processor::run_trace`], ~3× less memory traffic
    /// per fetched instruction).
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_packed(&mut self, trace: &PackedTrace) -> Result<SimResult, SimError> {
        Sim::new(&self.config, trace, &mut NullProbe, &mut NullHostProf).run()
    }

    /// Like [`Processor::run_trace`], with an observability [`Probe`]
    /// attached. The probe observes and never perturbs: statistics and
    /// results are identical to the unobserved run.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_trace_observed<P: Probe>(
        &mut self,
        trace: &[TraceOp],
        probe: &mut P,
    ) -> Result<SimResult, SimError> {
        Sim::new(&self.config, trace, probe, &mut NullHostProf).run()
    }

    /// Like [`Processor::run_packed`], with an observability [`Probe`]
    /// attached. The probe observes and never perturbs: statistics and
    /// results are identical to the unobserved run.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_packed_observed<P: Probe>(
        &mut self,
        trace: &PackedTrace,
        probe: &mut P,
    ) -> Result<SimResult, SimError> {
        Sim::new(&self.config, trace, probe, &mut NullHostProf).run()
    }

    /// Like [`Processor::run_packed`], with the host phase profiler
    /// attached: charges host nanoseconds to engine phases per live
    /// cycle (see [`crate::obs::hostprof`]). The profiler observes the
    /// *host*, never the simulated machine — statistics are identical
    /// to the unprofiled run, and unlike a probe it does not force
    /// single-stepping, so the fast-forward path is profiled as it
    /// really runs.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_packed_profiled(
        &mut self,
        trace: &PackedTrace,
    ) -> Result<(SimResult, HostProfReport), SimError> {
        let mut prof = PhaseProf::new();
        let result = Sim::new(&self.config, trace, &mut NullProbe, &mut prof).run()?;
        let cycles = result.stats.cycles;
        Ok((result, prof.report(cycles)))
    }
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

const OTB: u8 = 0;
const RTB: u8 = 1;

/// Action discriminants for the per-cluster ready/wakeup machinery.
const ACT_MASTER: u8 = 0;
const ACT_SLAVE: u8 = 1;

/// Completion-event discriminants (master done / slave register write).
const DONE_EVT: u8 = 0;
const WRITE_EVT: u8 = 1;

/// Upper bound on configurable divider units (the presets use 1 or 2).
const MAX_DIVIDERS: usize = 8;

/// Null link in the waiter arena.
const NIL: u32 = u32::MAX;

/// Packs a pending branch resolution into a [`TimeQ`] data word:
/// `pc << 2 | taken << 1 | mispredicted`.
fn pack_branch(pc: u64, taken: bool, mispredicted: bool) -> u64 {
    debug_assert!(pc < 1 << 62, "branch pc fits the packed data word");
    (pc << 2) | (u64::from(taken) << 1) | u64::from(mispredicted)
}

/// Why dispatch can make no progress this cycle and, provably, on every
/// cycle until the next scheduled event — computed by
/// [`Sim::dead_dispatch_cause`] by mirroring the stall checks at the
/// top of [`Sim::dispatch`]. Each variant names the stall bucket the
/// skipped cycles are charged to (plus the fetch icache probe the
/// dispatch-queue and register stalls repeat every cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeadCause {
    /// Trace exhausted; the window is draining.
    Drain,
    /// Fetch is blocked behind an unresolved mispredicted branch.
    BranchWait,
    /// `now < fetch_resume_at`; charged to the active [`FetchStall`].
    FetchWait,
    /// A pending register reassignment is waiting for the window to
    /// drain.
    ReassignDrain,
    /// The cursor instruction (a fetch icache hit, at this pc) needs a
    /// dispatch-queue entry no cluster has free.
    DispatchQueue(u64),
    /// The cursor instruction (a fetch icache hit, at this pc) needs
    /// physical registers no free list can supply.
    Registers(u64),
}

/// Dispatch-time operand availability (see [`Sim::avail_for`]).
enum Avail {
    /// Readable from the given cycle.
    Known(u64),
    /// Known when the producer at this window index completes.
    WaitDone(usize),
    /// Known when the producer at this window index writes its slave
    /// register copy.
    WaitWrite(usize),
}

/// Issue-readiness bookkeeping for one copy (master or slave) of an
/// instruction: how many operand-availability times are still unknown,
/// and the earliest issue cycle once all are known.
#[derive(Debug, Clone, Copy, Default)]
struct WaitState {
    /// Operands whose availability cycle is not yet known (producer has
    /// not issued). The copy joins the ready queue when this hits zero.
    unknown: u8,
    /// Max over the known operand-availability cycles.
    ready_at: u64,
    /// Currently enqueued in the per-cluster ready set.
    in_ready: bool,
}

/// One copy in a per-cluster ready set, carrying the immutable
/// per-incarnation facts the issue pass needs to classify it.
///
/// The issue pass re-scans every ready copy every live cycle, and in a
/// width- or register-limited stretch most of those scans end in
/// "blocked" — the paper's machine spends whole phases re-evaluating
/// the same handful of copies against a fresh budget. Classification
/// only needs the copy's issue-slot class, its transfer-buffer
/// relationships, and its cluster indices; all of those are fixed from
/// dispatch to squash. Caching them here keeps the (much larger)
/// window entry — and its cache lines — out of the blocked path
/// entirely: the window is only touched when a copy actually issues.
///
/// Sorted by `(seq, act)`, exactly as the former `(u64, u8)` pairs
/// were, so the age-ordered walk and the binary searches are
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadyEntry {
    /// Instruction sequence number (age order, the primary sort key).
    seq: u64,
    /// `ACT_MASTER` or `ACT_SLAVE` (the sort tiebreak).
    act: u8,
    /// Issue-slot class charged against the width budget.
    slot_class: InstrClass,
    /// `dist.slave_receives` of the incarnation.
    slave_receives: bool,
    /// Whether the slave copy forwards an operand (scenario two/five).
    forwards: bool,
    /// Master cluster index.
    master: u8,
    /// Slave cluster index (meaningful only when the copy has a slave).
    slave: u8,
}

impl ReadyEntry {
    /// The sort/search key: age order, master before slave.
    fn key(&self) -> (u64, u8) {
        (self.seq, self.act)
    }

    /// Builds the cached view of (`d`, `act`); `slot_class` mirrors the
    /// classification the issue pass used to derive in-line.
    fn of(d: &DynInstr, act: u8) -> ReadyEntry {
        let slot_class = if act == ACT_MASTER {
            d.op.class()
        } else if d.forwards() {
            let bank = (0..2)
                .find(|&i| d.dist.forwarded_src[i])
                .and_then(|i| d.op.srcs[i])
                .map_or(RegBank::Int, ArchReg::bank);
            InstrClass::for_operand_bank(bank)
        } else {
            InstrClass::for_operand_bank(d.op.dest.map_or(RegBank::Int, ArchReg::bank))
        };
        ReadyEntry {
            seq: d.op.seq,
            act,
            slot_class,
            slave_receives: d.dist.slave_receives,
            forwards: d.forwards(),
            master: d.dist.master.index() as u8,
            slave: d.dist.slave.map_or(u8::MAX, |s| s.index() as u8),
        }
    }
}

/// Memoized front-end work for the op at a stalled dispatch cursor.
///
/// When dispatch blocks on a structural resource (dispatch-queue slots
/// or physical registers), the simulator retries the same trace index
/// every live cycle until the resource frees — recomputing the unpack,
/// the distribution vote, and the physical-register demand each time,
/// even though none of their inputs can change while the cursor holds
/// still (`balance` and the assignment only move when something
/// dispatches or reassigns, and both advance or clear the memo). The
/// memo caches all of it keyed by cursor, so a stalled retry costs a
/// handful of free-count compares. Register-starved workloads spend
/// the majority of their cycles here (`stall_regs` in Table 2's `ora`
/// row covers ~9 in 10 cycles), which makes this the single hottest
/// path in the live-cycle loop.
#[derive(Debug, Clone, Copy)]
struct DispatchMemo {
    /// Trace index the memo describes; a mismatch invalidates it.
    cursor: usize,
    op: TraceOp,
    dist: Distribution,
    phys: PhysRegs,
    dq_needed: [u32; 2],
    int_needed: [i64; 2],
    fp_needed: [i64; 2],
}

/// One registration on a producer's wakeup list.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    consumer: u64,
    action: u8,
    next: u32,
}

/// A free-list arena of wakeup-list nodes: zero allocations once the
/// steady-state high-water mark is reached.
#[derive(Debug, Default)]
struct WaiterArena {
    nodes: Vec<Waiter>,
    free: u32,
    /// Number of nodes on the free list. Maintained so the invariant
    /// checker can audit `reachable + free == nodes` every validated
    /// cycle without walking the free list.
    free_len: u32,
}

impl WaiterArena {
    fn new() -> WaiterArena {
        WaiterArena { nodes: Vec::new(), free: NIL, free_len: 0 }
    }

    /// Links a new waiter in front of `head`, returning the new head.
    fn push(&mut self, head: u32, consumer: u64, action: u8) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            self.free_len -= 1;
            *node = Waiter { consumer, action, next: head };
            idx
        } else {
            self.nodes.push(Waiter { consumer, action, next: head });
            u32::try_from(self.nodes.len() - 1).expect("waiter arena fits u32")
        }
    }

    fn release(&mut self, idx: u32) {
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        self.free_len += 1;
    }

    /// Releases a whole list.
    fn release_list(&mut self, head: u32) {
        let mut idx = head;
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            self.release(idx);
            idx = next;
        }
    }

    /// Drops every waiter with `consumer >= from_seq` (squashed by a
    /// replay), returning the new head. Order is not preserved; delivery
    /// order does not matter (availability folds through `max`).
    fn purge_squashed(&mut self, head: u32, from_seq: u64) -> u32 {
        let mut new_head = NIL;
        let mut idx = head;
        while idx != NIL {
            let node = self.nodes[idx as usize];
            if node.consumer < from_seq {
                self.nodes[idx as usize].next = new_head;
                new_head = idx;
            } else {
                self.release(idx);
            }
            idx = node.next;
        }
        new_head
    }
}

#[derive(Debug, Clone)]
struct DynInstr {
    op: TraceOp,
    dist: Distribution,
    /// Physical registers allocated at dispatch, freed at retire/squash.
    phys: crate::dist::PhysRegs,

    /// Readiness bookkeeping for the master copy.
    m_wait: WaitState,
    /// Readiness bookkeeping for the slave copy (unused when single).
    s_wait: WaitState,
    /// Wakeup list notified when `master_done` becomes known.
    w_done: u32,
    /// Wakeup list notified when `slave_write` becomes known.
    w_write: u32,

    master_issued: Option<u64>,
    /// Cycle from which consumers in the master's cluster may issue.
    master_done: Option<u64>,
    slave_issued: Option<u64>,
    /// Cycle from which consumers in the slave's cluster may issue.
    slave_write: Option<u64>,
    /// Scenario-five wake already performed.
    woke: bool,
    mispredicted: bool,

    dq_master_freed: bool,
    dq_slave_freed: bool,
    /// Operand-transfer-buffer entry allocated and not yet scheduled to
    /// free (lives in the *master's* cluster).
    otb_held: bool,
    /// Result-transfer-buffer entry allocated and not yet scheduled to
    /// free (lives in the *slave's* cluster).
    rtb_held: bool,
}

impl DynInstr {
    fn forwards(&self) -> bool {
        self.dist.forwarded_src.iter().any(|&f| f)
    }

    /// Whether everything the instruction must do has happened by `now`.
    fn complete(&self, now: u64) -> bool {
        if !matches!(self.master_done, Some(d) if d <= now) {
            return false;
        }
        if self.dist.slave_receives && !matches!(self.slave_write, Some(w) if w <= now) {
            return false;
        }
        true
    }
}

/// Why fetch is waiting for `fetch_resume_at`; each variant charges its
/// own `SimStats` stall counter, one cycle at a time, in `dispatch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchStall {
    Icache,
    Replay,
    /// Redirect after a resolved mispredicted branch.
    Branch,
    /// Dynamic-reassignment state-movement penalty.
    Reassign,
}

struct Sim<'a, T: TraceSource + ?Sized, P: Probe, H: HostProf> {
    cfg: &'a ProcessorConfig,
    assign: mcl_isa::assign::RegisterAssignment,
    trace: &'a T,
    cursor: usize,
    now: u64,

    window: VecDeque<DynInstr>,
    base: u64,

    dq_free: [u32; 2],
    int_free: [i64; 2],
    fp_free: [i64; 2],
    otb_free: [u32; 2],
    rtb_free: [u32; 2],
    /// Busy-until cycle of each unpipelined divider unit, per cluster
    /// (fixed storage; `dividers` are in use).
    div_busy_until: [[u64; MAX_DIVIDERS]; 2],
    dividers: usize,
    /// Per cluster, per dense register index: youngest in-flight writer.
    producers: [[Option<u64>; 64]; 2],

    /// Wakeup-list node storage.
    waiters: WaiterArena,
    /// Per cluster: copies whose operands are all available, kept
    /// sorted by age — the issue pass walks exactly these. A sorted
    /// `Vec` beats a `BTreeSet` here: the set is small (a handful of
    /// copies), is snapshotted every live cycle, and age-ordered
    /// iteration is the hot operation.
    ready: [Vec<ReadyEntry>; 2],
    /// Per cluster: lazily-invalidated min-heap over copies still
    /// waiting for operands (issue-disorder accounting).
    waiting_min: [BinaryHeap<Reverse<(u64, u8)>>; 2],
    /// Copies whose last operand time became known, to enter the ready
    /// set at the scheduled cycle. Key `seq << 1 | action`, data the
    /// cluster index.
    future_ready: TimeQ,
    /// Scheduled scenario-five wake checks, keyed by seq.
    wake_events: TimeQ,
    /// Scheduled completions for the progress check (lazily invalidated
    /// on squash), as `(cycle, seq, DONE/WRITE)`. A plain lazy min-heap
    /// rather than a [`TimeQ`]: the progress check only ever asks for
    /// the earliest live entry, so O(1) peek beats the wheel's bitmap
    /// walk, and tie order among same-cycle events is unobservable.
    completions: BinaryHeap<Reverse<(u64, u64, u64)>>,
    /// Reusable snapshot of one cluster's ready set for the issue pass.
    scratch_pass: Vec<ReadyEntry>,
    /// Reusable drain buffer for replay squashes.
    scratch_squash: Vec<DynInstr>,
    /// Reusable drain buffer for [`TimeQ::pop_due`] consumers.
    scratch_events: Vec<Entry>,
    /// Reusable per-window-slot tallies for the invariant checker
    /// (wakeup registrations per copy, scheduled-completion marks).
    scratch_regs: Vec<[u32; 2]>,
    scratch_sched: Vec<[bool; 2]>,
    /// Physical-register capacities under the current assignment
    /// (recomputed on reassignment), so the per-cycle checker does not
    /// re-derive them from the architectural register map.
    reg_caps: ([i64; 2], [i64; 2]),

    fetch_resume_at: u64,
    fetch_stall: FetchStall,
    /// Sequence number of the unresolved mispredicted branch blocking
    /// fetch, if any.
    fetch_blocked_by: Option<u64>,

    /// Pending predictor updates, keyed by seq so same-cycle
    /// resolutions update the predictor in age order; data packed by
    /// [`pack_branch`].
    pending_bpred: TimeQ,
    /// Scheduled transfer-buffer credit returns. Key
    /// `cluster << 1 | OTB/RTB`.
    buffer_frees: TimeQ,

    predictor: Box<dyn BranchPredictor + Send>,
    icache: Cache,
    dcache: Cache,

    balance: [u64; 2],
    /// See [`DispatchMemo`]: valid only while the cursor it names is
    /// the next op to dispatch and no dispatch, replay, or
    /// reassignment has run since it was recorded.
    dispatch_memo: Option<DispatchMemo>,
    stats: SimStats,

    /// Set during the issue pass when a ready copy was blocked *only* by
    /// a full transfer buffer.
    blocked_on_buffer: bool,
    no_progress_cycles: u32,
    /// Invariant-checking level (from the configuration).
    check: CheckLevel,
    /// Replay exceptions taken since the last retirement; the checker's
    /// replay-forward-progress rule bounds this.
    replays_since_retire: u32,
    /// Configured resource-accounting faults not yet applied.
    pending_faults: Vec<FaultInjection>,
    /// Set by [`FaultInjection::StallRetire`]: the retirement stage is
    /// latched off for the rest of the run.
    retire_stalled: bool,
    /// The window base at the last replay; a second deadlock without any
    /// intervening retirement escalates to a full squash (guaranteed
    /// forward progress — the replayed youngest holder would otherwise
    /// re-acquire the freed entry and recreate the deadlock).
    last_replay_base: Option<u64>,
    /// Untriggered dynamic-reassignment points, in configuration order.
    pending_reassign: Vec<crate::config::ReassignmentPoint>,
    /// A reassignment is waiting for the pipeline to drain.
    reassign_draining: bool,
    /// Dead-cycle-skip counters (stay zero for a single-stepped run).
    ff: FastForward,
    /// The borrowed observability probe; every call site is gated on
    /// the monomorphization-time constant `P::ENABLED`, so the default
    /// [`NullProbe`] build carries no probe code at all.
    probe: &'a mut P,
    /// The borrowed host phase profiler; gated on `H::ENABLED` the same
    /// way. Unlike probes it never forces single-stepping — a profiled
    /// run takes the real engine path, fast-forward included.
    hostprof: &'a mut H,
}

impl<'a, T: TraceSource + ?Sized, P: Probe, H: HostProf> Sim<'a, T, P, H> {
    fn new(
        cfg: &'a ProcessorConfig,
        trace: &'a T,
        probe: &'a mut P,
        hostprof: &'a mut H,
    ) -> Sim<'a, T, P, H> {
        let assign = cfg.register_assignment();
        let (int_free, fp_free) = free_lists_for(cfg, &assign);
        assert!(cfg.fp_dividers as usize <= MAX_DIVIDERS, "too many divider units");

        Sim {
            cfg,
            assign,
            trace,
            cursor: 0,
            now: 0,
            window: VecDeque::new(),
            base: 0,
            dq_free: [cfg.dq_entries; 2],
            int_free,
            fp_free,
            otb_free: [cfg.operand_buffer; 2],
            rtb_free: [cfg.result_buffer; 2],
            div_busy_until: [[0; MAX_DIVIDERS]; 2],
            dividers: cfg.fp_dividers as usize,
            producers: [[None; 64]; 2],
            waiters: WaiterArena::new(),
            ready: [Vec::new(), Vec::new()],
            waiting_min: [BinaryHeap::new(), BinaryHeap::new()],
            future_ready: TimeQ::new(),
            wake_events: TimeQ::new(),
            completions: BinaryHeap::new(),
            scratch_pass: Vec::new(),
            scratch_squash: Vec::new(),
            scratch_events: Vec::new(),
            scratch_regs: Vec::new(),
            scratch_sched: Vec::new(),
            reg_caps: (int_free, fp_free),
            fetch_resume_at: 0,
            fetch_stall: FetchStall::Icache,
            fetch_blocked_by: None,
            pending_bpred: TimeQ::new(),
            buffer_frees: TimeQ::new(),
            predictor: cfg.predictor.build(),
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            balance: [0; 2],
            dispatch_memo: None,
            stats: SimStats::default(),
            blocked_on_buffer: false,
            no_progress_cycles: 0,
            check: cfg.check_level,
            replays_since_retire: 0,
            pending_faults: cfg.faults.clone(),
            retire_stalled: false,
            last_replay_base: None,
            pending_reassign: cfg.reassignments.clone(),
            reassign_draining: false,
            ff: FastForward::default(),
            probe,
            hostprof,
        }
    }

    fn log(&mut self, seq: u64, cluster: Option<ClusterId>, kind: EventKind) {
        self.log_at(self.now, seq, cluster, kind);
    }

    fn log_at(&mut self, cycle: u64, seq: u64, cluster: Option<ClusterId>, kind: EventKind) {
        if P::ENABLED {
            self.probe.event(cycle, seq, cluster, kind);
        }
    }

    fn run(&mut self) -> Result<SimResult, SimError> {
        // Fast-forward only when nothing needs to see individual dead
        // cycles: probes sample per cycle, and cycle-level checking
        // validates per cycle, so both force single-stepping (their
        // observations are of dead cycles that log nothing and change
        // no stats, which is why on/off stays byte-identical).
        let fast_forward = !P::ENABLED && self.check != CheckLevel::Cycle;
        // Cooperative hard watchdog: the deadline is a thread-local
        // token (not part of the configuration — configurations key
        // result caches), polled every `WATCHDOG_STRIDE` steps so the
        // wall-clock read stays off the per-cycle path. Steps, not
        // cycles: fast-forward jumps cycle counts arbitrarily.
        const WATCHDOG_STRIDE: u32 = 4096;
        let deadline = crate::watchdog::deadline();
        let mut until_poll = WATCHDOG_STRIDE;
        if H::ENABLED {
            self.hostprof.begin();
        }
        while self.cursor < self.trace.len() || !self.window.is_empty() {
            if self.now >= self.cfg.max_cycles {
                return Err(SimError::CycleLimit { limit: self.cfg.max_cycles });
            }
            if let Some(deadline) = deadline {
                until_poll -= 1;
                if until_poll == 0 {
                    until_poll = WATCHDOG_STRIDE;
                    if std::time::Instant::now() >= deadline {
                        return Err(SimError::Timeout { cycle: self.now });
                    }
                }
            }
            let activity = self.step()?;
            // Anything dispatched, issued, retired, or woken this cycle
            // can cascade into the next one, so the next cycle is never
            // provably dead — don't even pay for the attempt.
            if fast_forward && activity == 0 {
                if H::ENABLED {
                    // Close the inter-phase span first so the progress
                    // check and loop overhead stay charged to Loop, not
                    // to the fast-forward bookkeeping.
                    self.hostprof.mark(HostPhase::Loop);
                }
                self.try_fast_forward();
                if H::ENABLED {
                    self.hostprof.mark(HostPhase::FastForward);
                }
            }
        }
        if H::ENABLED {
            self.hostprof.finish();
        }
        self.stats.cycles = self.now;
        self.stats.icache = self.icache.stats();
        self.stats.dcache = self.dcache.stats();
        Ok(SimResult { stats: self.stats.clone(), ff: self.ff })
    }

    /// Simulates one cycle, returning how many retire/wake/issue/
    /// dispatch actions it performed (the same count the progress
    /// check sees; the loop only attempts a fast-forward after an
    /// actionless cycle).
    fn step(&mut self) -> Result<u32, SimError> {
        if H::ENABLED {
            // Telescoping sample: everything since the previous cycle's
            // last mark (progress check, watchdog poll, loop overhead)
            // lands in the Loop bucket.
            self.hostprof.mark(HostPhase::Loop);
        }
        self.blocked_on_buffer = false;
        self.inject_faults();

        self.process_buffer_frees();
        self.process_branch_resolutions();
        if H::ENABLED {
            self.hostprof.mark(HostPhase::TimeQ);
        }
        let retired = self.retire();
        if H::ENABLED {
            self.hostprof.mark(HostPhase::Retire);
        }
        let woke = self.wake_suspended_slaves();
        self.drain_future_ready();
        if H::ENABLED {
            self.hostprof.mark(HostPhase::Wakeup);
        }
        let mut issued = 0;
        let mut issued_per = [0u32; 2];
        for c in 0..self.cfg.clusters {
            let n = self.issue_cluster(ClusterId::new(c));
            issued_per[usize::from(c)] = n;
            issued += n;
        }
        if H::ENABLED {
            self.hostprof.mark(HostPhase::Issue);
        }
        let dispatched = self.dispatch();
        if dispatched > 0 {
            self.stats.dispatch_cycles += 1;
        }
        if H::ENABLED {
            self.hostprof.mark(HostPhase::Dispatch);
        }

        let validate = match self.check {
            CheckLevel::Off => false,
            CheckLevel::Retire => retired > 0,
            CheckLevel::Cycle => true,
        };
        if validate {
            self.validate_invariants(&issued_per)?;
        }
        if H::ENABLED {
            self.hostprof.mark(HostPhase::Checker);
            self.hostprof.live_cycle();
        }
        let activity = retired + woke + issued + dispatched;
        self.check_progress(activity)?;
        if P::ENABLED {
            let snap = self.cycle_snapshot();
            self.probe.cycle_end(&snap);
        }
        self.now += 1;
        Ok(activity)
    }

    /// End-of-cycle occupancy for [`Probe::cycle_end`].
    fn cycle_snapshot(&self) -> CycleSnapshot {
        let mut snap = CycleSnapshot {
            cycle: self.now,
            window: self.window.len() as u32,
            ..CycleSnapshot::default()
        };
        for c in 0..usize::from(self.cfg.clusters) {
            snap.dq_used[c] = self.cfg.dq_entries.saturating_sub(self.dq_free[c]);
            snap.otb_used[c] = self.cfg.operand_buffer.saturating_sub(self.otb_free[c]);
            snap.rtb_used[c] = self.cfg.result_buffer.saturating_sub(self.rtb_free[c]);
            snap.int_free[c] = self.int_free[c];
            snap.fp_free[c] = self.fp_free[c];
        }
        snap
    }

    /// Applies due fault-injection hooks (testing only; see
    /// [`ProcessorConfig::faults`]). A leak decrements a free count with
    /// no matching holder, which a correct checker must report; the
    /// event-targeting faults wait in the pending list until their
    /// target structure (a live completion, a blocking branch, an
    /// in-flight operand delivery) exists, then corrupt it.
    fn inject_faults(&mut self) {
        if self.pending_faults.is_empty() {
            return;
        }
        let now = self.now;
        let n = usize::from(self.cfg.clusters);
        let mut i = 0;
        while i < self.pending_faults.len() {
            let fault = self.pending_faults[i].clone();
            let armed = fault.cycle() <= now;
            let due = armed
                && match &fault {
                    FaultInjection::LeakOperandBuffer { .. }
                    | FaultInjection::LeakResultBuffer { .. }
                    | FaultInjection::CorruptTransferCredit { .. }
                    | FaultInjection::LeakPhysReg { .. }
                    | FaultInjection::StallRetire { .. } => true,
                    FaultInjection::DropCompletion { .. } => {
                        self.next_live_completion(now).is_some()
                    }
                    FaultInjection::StickBranchResolution { .. } => {
                        self.blocking_branch_resolution().is_some()
                    }
                    FaultInjection::DelayOperandDelivery { .. } => {
                        !self.future_ready.is_empty()
                    }
                };
            if !due {
                i += 1;
                continue;
            }
            self.pending_faults.remove(i);
            match fault {
                FaultInjection::LeakOperandBuffer { .. } => {
                    for c in 0..n {
                        self.otb_free[c] = self.otb_free[c].saturating_sub(1);
                    }
                }
                FaultInjection::LeakResultBuffer { .. } => {
                    for c in 0..n {
                        self.rtb_free[c] = self.rtb_free[c].saturating_sub(1);
                    }
                }
                FaultInjection::DropCompletion { .. } => {
                    self.drop_next_live_completion(now);
                }
                FaultInjection::StickBranchResolution { .. } => {
                    let seq = self.blocking_branch_resolution().expect("checked due");
                    self.pending_bpred.retain(|e| e.key != seq);
                }
                FaultInjection::CorruptTransferCredit { .. } => {
                    for c in 0..n {
                        self.otb_free[c] += 1;
                        self.rtb_free[c] += 1;
                    }
                }
                FaultInjection::DelayOperandDelivery { delay, .. } => {
                    let e = self.future_ready.pop_earliest().expect("checked due");
                    self.future_ready.schedule(
                        e.cycle.saturating_add(delay),
                        e.key,
                        e.data,
                    );
                }
                FaultInjection::LeakPhysReg { .. } => {
                    for c in 0..n {
                        self.int_free[c] -= 1;
                    }
                }
                FaultInjection::StallRetire { .. } => {
                    self.retire_stalled = true;
                }
            }
        }
    }

    /// The sequence number of the mispredicted branch currently blocking
    /// fetch, provided its resolution event is still scheduled (the
    /// stick-branch-resolution fault's target).
    fn blocking_branch_resolution(&self) -> Option<u64> {
        let seq = self.fetch_blocked_by?;
        self.pending_bpred.iter().any(|e| e.key == seq).then_some(seq)
    }

    /// Removes the earliest live completion event strictly after `now`
    /// from the queue (the drop-completion fault). Stale and
    /// already-fired entries discarded along the way would have been
    /// discarded lazily anyway, so only the live event's loss is
    /// observable.
    fn drop_next_live_completion(&mut self, now: u64) {
        while let Some(&Reverse((cycle, seq, evt))) = self.completions.peek() {
            if cycle <= now {
                self.completions.pop();
                continue;
            }
            let live = match self.win_index(seq) {
                None => false,
                Some(wi) => {
                    let d = &self.window[wi];
                    if evt == u64::from(DONE_EVT) {
                        d.master_done == Some(cycle)
                    } else {
                        d.slave_write == Some(cycle)
                    }
                }
            };
            self.completions.pop();
            if live {
                return;
            }
        }
    }

    // -- dead-cycle fast-forward -------------------------------------------

    /// After a stepped cycle that performed no action, jump `now`
    /// straight to the next scheduled event if the span in between is
    /// provably dead — no cluster could dispatch, issue, or retire on
    /// any skipped cycle — charging the span to the same stall bucket a
    /// single-stepped run would have charged cycle by cycle.
    /// Conservative: any doubt aborts the jump and the loop
    /// single-steps, so the result is byte-identical to a
    /// single-stepped run by construction. Several checks below lean
    /// on the actionless precondition (the caller gates on it): ready
    /// copies were all evaluated against a fresh issue budget this
    /// cycle, and no in-pass state (budget, buffers, dividers) was
    /// consumed.
    fn try_fast_forward(&mut self) {
        let now = self.now;
        // Run finished, or activity that could cascade this cycle:
        // single-step. A non-zero no-progress count must keep ticking so
        // the replay/wedge escalation sees the same cycle numbers.
        if self.cursor >= self.trace.len() && self.window.is_empty() {
            return;
        }
        if self.no_progress_cycles > 0 {
            return;
        }
        // Issue: a ready copy is only compatible with a dead span when
        // it is provably unissuable, side-effect free, on every skipped
        // cycle. Because this cycle issued nothing, every ready copy
        // was just evaluated against a fresh budget and blocked, for
        // one of exactly three reasons, mirroring the issue pass's
        // check order:
        //
        // - the width rules — a fresh budget that cannot accept the
        //   class never will, so the copy never issues (no stats);
        // - a busy divider, which frees at a known cycle that joins
        //   the jump targets (no stats) — it is NOT always announced
        //   by a completion event, because a squashed divide keeps its
        //   unit busy after its event is discarded as stale;
        // - a full transfer buffer, which only refills through a
        //   scheduled buffer-free event (already a jump target). The
        //   stepped loop charges `rtb_full_stalls`/`otb_full_stalls`
        //   once per blocked copy per cycle, so the span charges the
        //   per-cycle count times the span length below.
        //
        // Anything else would issue: abort.
        let mut div_wake = None;
        let mut rtb_stalls = 0u64;
        let mut otb_stalls = 0u64;
        for ci in 0..2 {
            let rules = &self.cfg.issue_rules;
            if rules.total == 0 {
                // Budget exhausted before the first copy: the issue
                // pass breaks immediately and evaluates nothing.
                continue;
            }
            for &e in &self.ready[ci] {
                if self.win_index(e.seq).is_none() {
                    return;
                }
                if rules.class_limit(e.slot_class) == 0 {
                    continue; // permanently width-blocked
                }
                if e.act == ACT_MASTER {
                    if e.slot_class == InstrClass::FpDiv {
                        let free =
                            self.div_busy_until[ci][..self.dividers].iter().copied().min();
                        if let Some(free) = free {
                            if free > now {
                                div_wake = Some(div_wake.map_or(free, |w: u64| w.min(free)));
                                continue;
                            }
                        } else {
                            // No dividers configured: unissuable, but the
                            // stepped loop's wedge detection must see it.
                            return;
                        }
                    }
                    if e.slave_receives && self.rtb_free[usize::from(e.slave)] == 0 {
                        rtb_stalls += 1;
                        continue;
                    }
                } else if e.forwards && self.otb_free[usize::from(e.master)] == 0 {
                    otb_stalls += 1;
                    continue;
                }
                return;
            }
        }
        // Retire: the front might retire next cycle (retirement is
        // in-order, so checking the front suffices).
        if self.window.front().is_some_and(|d| d.complete(now)) {
            return;
        }
        // Dispatch: the stall at the cursor must be one that only a
        // scheduled event can lift.
        let Some(cause) = self.dead_dispatch_cause() else { return };
        // Earliest live completion (also discards stale events, exactly
        // as the stepped progress check does when it consults the queue).
        let live_completion = self.next_live_completion(now);
        // The skipped cycles never run the wedge/replay escalation, so
        // fast-forwarding is only sound if the stepped loop's progress
        // check would also have seen future work on every one of them.
        // Every term below is constant across the dead span. Applied
        // with the window empty too: an empty window with trace left
        // and no future work is exactly the span the progress check
        // counts toward `Wedged`, so it must tick cycle by cycle.
        let span_future_work = self.fetch_resume_at > now
            || !self.pending_bpred.is_empty()
            || !self.buffer_frees.is_empty()
            || live_completion.is_some();
        if !span_future_work {
            return;
        }
        // The jump target: the earliest cycle anything is scheduled to
        // happen. Everything the engine does originates from one of
        // these queues (or fetch resuming, or a fault firing).
        let mut target = u64::MAX;
        for cycle in [
            self.future_ready.next_cycle(),
            self.wake_events.next_cycle(),
            self.buffer_frees.next_cycle(),
            self.pending_bpred.next_cycle(),
            live_completion,
            div_wake,
        ]
        .into_iter()
        .flatten()
        {
            target = target.min(cycle);
        }
        if self.fetch_resume_at > now {
            target = target.min(self.fetch_resume_at);
        }
        for fault in &self.pending_faults {
            let cycle = fault.cycle();
            if cycle <= now {
                // An armed fault waiting for its target structure to
                // exist must observe every cycle.
                return;
            }
            target = target.min(cycle);
        }
        if target == u64::MAX {
            return;
        }
        // The stepped loop errors out upon reaching the cycle limit;
        // jumping past it would skip that check.
        target = target.min(self.cfg.max_cycles);
        if target <= now {
            return;
        }

        let n = target - now;
        match cause {
            DeadCause::Drain => self.stats.drain_cycles += n,
            DeadCause::BranchWait => self.stats.stall_branch += n,
            DeadCause::FetchWait => match self.fetch_stall {
                FetchStall::Icache => self.stats.stall_icache += n,
                FetchStall::Replay => self.stats.stall_replay += n,
                FetchStall::Branch => self.stats.stall_branch += n,
                FetchStall::Reassign => self.stats.stall_reassign += n,
            },
            DeadCause::ReassignDrain => self.stats.stall_reassign += n,
            DeadCause::DispatchQueue(pc) => {
                self.stats.stall_dq += n;
                // Each skipped cycle re-probes the fetch line and hits.
                self.icache.record_repeat_hits(pc, n);
            }
            DeadCause::Registers(pc) => {
                self.stats.stall_regs += n;
                self.icache.record_repeat_hits(pc, n);
            }
        }
        // Each skipped cycle re-runs the same issue pass against the
        // same full buffers: charge the per-cycle stall counts once per
        // skipped cycle, exactly as the stepped loop would.
        self.stats.rtb_full_stalls += rtb_stalls * n;
        self.stats.otb_full_stalls += otb_stalls * n;
        self.ff.skipped_cycles += n;
        self.ff.jumps += 1;
        self.now = target;
    }

    /// Mirrors the stall checks at the top of [`Sim::dispatch`] without
    /// mutating anything: the cause returned holds on the current cycle
    /// and — because every input it reads is constant while nothing
    /// dispatches, issues, retires, or pops an event — on every cycle
    /// up to the next scheduled event. Returns `None` when dispatch
    /// could make progress (or take an icache miss, which mutates cache
    /// state and so must be stepped).
    fn dead_dispatch_cause(&self) -> Option<DeadCause> {
        if self.cursor >= self.trace.len() {
            return Some(DeadCause::Drain);
        }
        if self.fetch_blocked_by.is_some() {
            return Some(DeadCause::BranchWait);
        }
        if self.now < self.fetch_resume_at {
            return Some(DeadCause::FetchWait);
        }
        // An actionless cycle ran dispatch before this check, so a
        // stall at the cursor left a memo behind; reuse it instead of
        // re-deriving the distribution (the inputs match for the same
        // reason the dispatch retry may reuse it).
        if let Some(m) = self.dispatch_memo.filter(|m| m.cursor == self.cursor) {
            if self.reassign_draining
                || self.pending_reassign.first().is_some_and(|r| r.trigger_pc == m.op.pc)
            {
                return (!self.window.is_empty()).then_some(DeadCause::ReassignDrain);
            }
            if !(0..2).all(|c| self.dq_free[c] >= m.dq_needed[c]) {
                return Some(DeadCause::DispatchQueue(m.op.pc));
            }
            if !(0..2)
                .all(|c| self.int_free[c] >= m.int_needed[c] && self.fp_free[c] >= m.fp_needed[c])
            {
                return Some(DeadCause::Registers(m.op.pc));
            }
            return None;
        }
        let op = self.trace.get(self.cursor);
        if self.reassign_draining
            || self.pending_reassign.first().is_some_and(|r| r.trigger_pc == op.pc)
        {
            // With an empty window the switch itself would run: step it.
            return (!self.window.is_empty()).then_some(DeadCause::ReassignDrain);
        }
        if !self.icache.probe(op.pc, self.now) {
            return None;
        }
        let dist = distribute(&op, &self.assign, &self.balance);
        let mut dq_needed = [0u32; 2];
        dq_needed[dist.master.index()] += 1;
        if let Some(s) = dist.slave {
            dq_needed[s.index()] += 1;
        }
        if !(0..2).all(|c| self.dq_free[c] >= dq_needed[c]) {
            return Some(DeadCause::DispatchQueue(op.pc));
        }
        let phys = dist.phys_needed(&op, &self.assign);
        let mut int_needed = [0i64; 2];
        let mut fp_needed = [0i64; 2];
        for (c, bank) in phys.iter() {
            match bank {
                RegBank::Int => int_needed[c.index()] += 1,
                RegBank::Fp => fp_needed[c.index()] += 1,
            }
        }
        if !(0..2).all(|c| self.int_free[c] >= int_needed[c] && self.fp_free[c] >= fp_needed[c]) {
            return Some(DeadCause::Registers(op.pc));
        }
        None
    }

    // -- cycle-start event processing --------------------------------------

    fn process_buffer_frees(&mut self) {
        if self.buffer_frees.is_empty() {
            return;
        }
        let mut due = std::mem::take(&mut self.scratch_events);
        self.buffer_frees.pop_due(self.now, &mut due);
        for e in &due {
            let cluster = (e.key >> 1) as usize;
            if e.key & 1 == u64::from(OTB) {
                self.otb_free[cluster] += 1;
            } else {
                self.rtb_free[cluster] += 1;
            }
        }
        due.clear();
        self.scratch_events = due;
    }

    fn process_branch_resolutions(&mut self) {
        if self.pending_bpred.is_empty() {
            return;
        }
        // Keyed by seq: same-cycle resolutions update the predictor in
        // age order, as the heap formulation did.
        let mut due = std::mem::take(&mut self.scratch_events);
        self.pending_bpred.pop_due(self.now, &mut due);
        for e in &due {
            let pc = e.data >> 2;
            let taken = e.data & 0b10 != 0;
            let mispredicted = e.data & 0b1 != 0;
            self.predictor.update(pc, taken);
            if mispredicted && self.fetch_blocked_by == Some(e.key) {
                self.fetch_blocked_by = None;
                // Redirect costs one further cycle after resolution;
                // `dispatch` charges it to `stall_branch` when it hits
                // the waiting period (no eager increment here — the
                // blocked cycles themselves are counted as they pass).
                self.fetch_resume_at = self.fetch_resume_at.max(self.now + 1);
                self.fetch_stall = FetchStall::Branch;
            }
        }
        due.clear();
        self.scratch_events = due;
    }

    // -- retire -------------------------------------------------------------

    fn retire(&mut self) -> u32 {
        if self.retire_stalled {
            return 0;
        }
        let mut retired = 0;
        while retired < self.cfg.retire_width {
            let Some(front) = self.window.front() else { break };
            if !front.complete(self.now) {
                break;
            }
            let d = self.window.pop_front().expect("front exists");
            let seq = d.op.seq;
            for (c, bank) in d.phys.iter() {
                match bank {
                    RegBank::Int => self.int_free[c.index()] += 1,
                    RegBank::Fp => self.fp_free[c.index()] += 1,
                }
            }
            debug_assert!(d.w_done == NIL && d.w_write == NIL, "waiters notified before retire");
            self.log(seq, None, EventKind::Retired);
            if P::ENABLED {
                self.probe.retired(self.now, seq);
            }
            self.base = seq + 1;
            self.last_replay_base = None; // retirement = forward progress
            self.replays_since_retire = 0;
            self.stats.retired += 1;
            retired += 1;
        }
        retired
    }

    // -- scenario-five wake -------------------------------------------------

    fn wake_suspended_slaves(&mut self) -> u32 {
        let mut woke = 0;
        let now = self.now;
        if self.wake_events.is_empty() {
            return 0;
        }
        // Wake checks are scheduled at master completion; (cycle, seq)
        // order reproduces the window-order scan of the paper's
        // per-cycle wake pass.
        let mut due = std::mem::take(&mut self.scratch_events);
        self.wake_events.pop_due(now, &mut due);
        for e in &due {
            let seq = e.key;
            let Some(wi) = self.win_index(seq) else { continue };
            let eligible = {
                let d = &self.window[wi];
                d.dist.slave_receives
                    && d.forwards()
                    && !d.woke
                    && d.slave_issued.is_some()
                    && matches!(d.master_done, Some(done) if done <= now)
            };
            if !eligible {
                continue; // stale event from a squashed incarnation
            }
            let slave = {
                let d = &mut self.window[wi];
                let slave = d.dist.slave.expect("scenario five has a slave");
                d.woke = true;
                d.slave_write = Some(now + 1);
                if d.rtb_held {
                    d.rtb_held = false;
                } else {
                    unreachable!("scenario-five master allocated the result entry");
                }
                if !d.dq_slave_freed {
                    d.dq_slave_freed = true;
                    self.dq_free[slave.index()] += 1;
                }
                slave
            };
            let head = std::mem::replace(&mut self.window[wi].w_write, NIL);
            self.notify_waiters(head, now + 1, DeliverySource::SlaveWrite, seq);
            self.completions.push(Reverse((now + 1, seq, u64::from(WRITE_EVT))));
            self.buffer_frees.schedule(now + 1, (slave.index() as u64) << 1 | u64::from(RTB), 0);
            if P::ENABLED {
                self.probe.forwarded(now + 1, seq, TransferKind::Result, TransferPhase::Release, slave);
            }
            self.log(seq, Some(slave), EventKind::SlaveWoke);
            self.log_at(now + 1, seq, Some(slave), EventKind::RegWritten);
            woke += 1;
        }
        due.clear();
        self.scratch_events = due;
        woke
    }

    // -- issue ----------------------------------------------------------------

    /// Window index of a live instruction, if `seq` is still in flight.
    fn win_index(&self, seq: u64) -> Option<usize> {
        if seq < self.base {
            return None;
        }
        let wi = (seq - self.base) as usize;
        (wi < self.window.len()).then_some(wi)
    }

    /// Operand availability as seen from `cluster` at dispatch time:
    /// the cycle is either already known, or becomes known when the
    /// producer's completion (`master_done`) or slave register write
    /// (`slave_write`) is scheduled — the returned window index says
    /// which wakeup list to register on.
    fn avail_for(&self, dep: Option<u64>, cluster: ClusterId) -> Avail {
        let Some(p) = dep else { return Avail::Known(0) };
        let Some(wi) = self.win_index(p) else { return Avail::Known(0) };
        let d = &self.window[wi];
        if Some(cluster) == d.dist.slave && d.dist.slave_receives {
            match d.slave_write {
                Some(t) => Avail::Known(t),
                None => Avail::WaitWrite(wi),
            }
        } else {
            match d.master_done {
                Some(t) => Avail::Known(t),
                None => Avail::WaitDone(wi),
            }
        }
    }

    /// Records that operand availability for (`consumer`, `action`)
    /// became known (`avail`), enqueueing the copy once its last
    /// operand time is in. `source` and `producer` describe how the
    /// value arrived (probe metadata only — they never affect timing).
    fn deliver(
        &mut self,
        consumer: u64,
        action: u8,
        avail: u64,
        source: DeliverySource,
        producer: Option<u64>,
    ) {
        let Some(wi) = self.win_index(consumer) else { return };
        let d = &mut self.window[wi];
        let st = if action == ACT_MASTER { &mut d.m_wait } else { &mut d.s_wait };
        debug_assert!(st.unknown > 0, "delivery without a registration");
        if st.unknown == 0 {
            return;
        }
        st.unknown -= 1;
        if avail > st.ready_at {
            st.ready_at = avail;
        }
        let all_known = st.unknown == 0;
        let ready_at = st.ready_at;
        let cluster_byte = if all_known {
            let cluster = if action == ACT_MASTER {
                d.dist.master
            } else {
                d.dist.slave.expect("slave action implies a slave")
            };
            cluster.index() as u8
        } else {
            0
        };
        if P::ENABLED && action == ACT_MASTER {
            self.probe.operand_delivered(consumer, avail, source, producer);
        }
        if all_known {
            self.future_ready.schedule(
                ready_at,
                consumer << 1 | u64::from(action),
                u64::from(cluster_byte),
            );
        }
    }

    /// Delivers `avail` to every waiter on a wakeup list. `source` and
    /// `producer` identify the completion or register write that fired
    /// the list (probe metadata only).
    fn notify_waiters(&mut self, head: u32, avail: u64, source: DeliverySource, producer: u64) {
        let mut idx = head;
        while idx != NIL {
            let node = self.waiters.nodes[idx as usize];
            self.waiters.release(idx);
            self.deliver(node.consumer, node.action, avail, source, Some(producer));
            idx = node.next;
        }
    }

    /// Moves copies whose ready cycle has arrived into the per-cluster
    /// ready sets. Runs once per cycle, before the issue passes.
    fn drain_future_ready(&mut self) {
        let now = self.now;
        if self.future_ready.is_empty() {
            return;
        }
        let mut due = std::mem::take(&mut self.scratch_events);
        self.future_ready.pop_due(now, &mut due);
        for e in &due {
            let seq = e.key >> 1;
            let action = (e.key & 1) as u8;
            let cl = e.data as usize;
            let Some(wi) = self.win_index(seq) else { continue };
            let d = &mut self.window[wi];
            // Validate against the *current* incarnation: a squash and
            // re-dispatch may have left a stale event behind.
            let (cluster_ok, issued, st) = if action == ACT_MASTER {
                (d.dist.master.index() == cl, d.master_issued.is_some(), &mut d.m_wait)
            } else {
                (
                    d.dist.slave.is_some_and(|s| s.index() == cl),
                    d.slave_issued.is_some(),
                    &mut d.s_wait,
                )
            };
            if !cluster_ok || issued || st.in_ready || st.unknown != 0 || st.ready_at > now {
                continue;
            }
            st.in_ready = true;
            let entry = ReadyEntry::of(&self.window[wi], action);
            if let Err(pos) = self.ready[cl].binary_search_by_key(&(seq, action), ReadyEntry::key)
            {
                self.ready[cl].insert(pos, entry);
            }
        }
        due.clear();
        self.scratch_events = due;
    }

    /// The oldest copy for `cluster` still waiting on operands, if any
    /// (lazily discarding entries that issued, squashed, or went ready).
    fn min_waiting(&mut self, cluster: usize) -> Option<u64> {
        while let Some(&Reverse((seq, action))) = self.waiting_min[cluster].peek() {
            let live = match self.win_index(seq) {
                None => false,
                Some(wi) => {
                    let d = &self.window[wi];
                    if action == ACT_MASTER {
                        d.dist.master.index() == cluster
                            && d.master_issued.is_none()
                            && !d.m_wait.in_ready
                    } else {
                        d.dist.slave.is_some_and(|s| s.index() == cluster)
                            && d.slave_issued.is_none()
                            && !d.s_wait.in_ready
                    }
                }
            };
            if live {
                return Some(seq);
            }
            self.waiting_min[cluster].pop();
        }
        None
    }

    #[allow(clippy::too_many_lines)]
    fn issue_cluster(&mut self, cluster: ClusterId) -> u32 {
        let ci = cluster.index();
        if self.ready[ci].is_empty() {
            return 0;
        }
        let mut budget = self.cfg.issue_rules.budget();
        let mut issued = 0;
        // Ready-but-blocked copies iterated earlier in this pass: they
        // count toward issue disorder exactly as skipped window slots
        // did in the full-scan formulation.
        let mut blocked_in_pass = 0u64;
        let now = self.now;

        // Snapshot the ready set (age order); deliveries during the
        // pass only schedule *future* cycles, so the set itself gains
        // nothing this cycle, and issued copies are removed directly.
        let mut pass = std::mem::take(&mut self.scratch_pass);
        pass.clear();
        pass.extend_from_slice(&self.ready[ci]);

        for &e in &pass {
            if budget.is_exhausted() {
                break;
            }
            enum Action {
                Master,
                SlaveForward,
                SlaveReceive,
            }
            let (seq, act) = (e.seq, e.act);
            // Classification runs entirely off the cached entry — the
            // window is only dereferenced when the copy issues.
            let action = if act == ACT_MASTER {
                Action::Master
            } else if e.forwards {
                Action::SlaveForward
            } else {
                Action::SlaveReceive
            };

            // ---- structural resources ----
            let slot_class = e.slot_class;
            if !budget.can_take(slot_class) {
                if P::ENABLED && act == ACT_MASTER {
                    self.probe.issue_blocked(now, seq, IssueBlock::Width);
                }
                blocked_in_pass += 1;
                continue;
            }
            match action {
                Action::Master => {
                    if slot_class == InstrClass::FpDiv
                        && !self.div_busy_until[ci][..self.dividers].iter().any(|&b| b <= now)
                    {
                        if P::ENABLED {
                            self.probe.issue_blocked(now, seq, IssueBlock::Width);
                        }
                        blocked_in_pass += 1;
                        continue;
                    }
                    if e.slave_receives && self.rtb_free[usize::from(e.slave)] == 0 {
                        self.stats.rtb_full_stalls += 1;
                        self.blocked_on_buffer = true;
                        if P::ENABLED {
                            self.probe.issue_blocked(now, seq, IssueBlock::RtbFull);
                        }
                        blocked_in_pass += 1;
                        continue;
                    }
                }
                Action::SlaveForward => {
                    if self.otb_free[usize::from(e.master)] == 0 {
                        self.stats.otb_full_stalls += 1;
                        self.blocked_on_buffer = true;
                        if P::ENABLED {
                            self.probe.issue_blocked(now, seq, IssueBlock::OtbFull);
                        }
                        blocked_in_pass += 1;
                        continue;
                    }
                }
                Action::SlaveReceive => {}
            }

            // ---- issue ----
            let wi = self.win_index(seq).expect("ready copies are in flight");
            debug_assert!(
                act != ACT_MASTER
                    || (self.window[wi].dist.master == cluster
                        && self.window[wi].master_issued.is_none())
            );
            assert!(budget.try_take(slot_class));
            // Out-of-order issue: an older copy for this cluster was
            // passed over, either blocked earlier in this pass or still
            // waiting on operands.
            if blocked_in_pass > 0 || self.min_waiting(ci).is_some_and(|w| w < seq) {
                self.stats.issue_disorder += 1;
            }
            issued += 1;
            self.stats.per_cluster_issued[ci] += 1;
            if let Ok(pos) = self.ready[ci].binary_search_by_key(&(seq, act), ReadyEntry::key) {
                self.ready[ci].remove(pos);
            }
            {
                let d = &mut self.window[wi];
                let st = if act == ACT_MASTER { &mut d.m_wait } else { &mut d.s_wait };
                st.in_ready = false;
            }

            match action {
                Action::Master => self.issue_master(wi, cluster),
                Action::SlaveForward => self.issue_slave_forward(wi, cluster),
                Action::SlaveReceive => self.issue_slave_receive(wi, cluster),
            }
        }
        self.scratch_pass = pass;
        issued
    }

    fn issue_master(&mut self, wi: usize, cluster: ClusterId) {
        let now = self.now;
        // Memory access timing (outside the window borrow).
        let (op, class, mem_addr) = {
            let d = &self.window[wi];
            (d.op.op, d.op.class(), d.op.mem_addr)
        };
        let latency = self.cfg.latencies.of(op);
        let mut load_miss = false;
        let done = match class {
            InstrClass::Load => {
                let addr = mem_addr.expect("loads carry an address");
                match self.dcache.access(addr, now, false) {
                    Access::Hit => now + u64::from(latency),
                    Access::Miss { ready_at, .. } => {
                        load_miss = true;
                        ready_at + 1
                    }
                }
            }
            InstrClass::Store => {
                let addr = mem_addr.expect("stores carry an address");
                let _ = self.dcache.access(addr, now, true);
                now + u64::from(latency)
            }
            InstrClass::FpDiv => {
                let unit = self.div_busy_until[cluster.index()][..self.dividers]
                    .iter_mut()
                    .find(|b| **b <= now)
                    .expect("issue checked for a free divider");
                *unit = now + u64::from(latency);
                now + u64::from(latency)
            }
            _ => now + u64::from(latency),
        };

        let (seq, slave_info, fwd, is_cond, pc, taken, mispredicted) = {
            let d = &mut self.window[wi];
            d.master_issued = Some(now);
            d.master_done = Some(done);
            (
                d.op.seq,
                d.dist.slave_receives.then(|| d.dist.slave.expect("slave")),
                d.forwards(),
                d.op.is_conditional_branch(),
                d.op.pc,
                d.op.branch.map(|b| b.taken).unwrap_or(false),
                d.mispredicted,
            )
        };

        // The completion time is now known: wake consumers in this
        // cluster, schedule the slave copy (receive-only slaves may
        // issue from (issue+1).max(done-1); scenario-five slaves are
        // woken at completion), and record the completion event.
        let head = std::mem::replace(&mut self.window[wi].w_done, NIL);
        self.notify_waiters(head, done, DeliverySource::Completion, seq);
        if slave_info.is_some() {
            if fwd {
                self.wake_events.schedule(done, seq, 0);
            } else {
                self.deliver(
                    seq,
                    ACT_SLAVE,
                    (now + 1).max(done.saturating_sub(1)),
                    DeliverySource::Completion,
                    Some(seq),
                );
            }
        }
        self.completions.push(Reverse((done, seq, u64::from(DONE_EVT))));

        // Free the master's dispatch-queue entry.
        {
            let d = &mut self.window[wi];
            if !d.dq_master_freed {
                d.dq_master_freed = true;
                self.dq_free[cluster.index()] += 1;
            }
        }

        // The master obtains forwarded operands at operand read; the
        // operand-buffer entry frees for use the next cycle.
        if fwd {
            let d = &mut self.window[wi];
            if d.otb_held {
                d.otb_held = false;
                self.buffer_frees.schedule(now + 1, (cluster.index() as u64) << 1 | u64::from(OTB), 0);
                if P::ENABLED {
                    self.probe.forwarded(
                        now + 1,
                        seq,
                        TransferKind::Operand,
                        TransferPhase::Release,
                        cluster,
                    );
                }
            }
        }

        // Allocate the result-transfer-buffer entry in the slave's
        // cluster for forwarded results.
        if let Some(slave) = slave_info {
            self.rtb_free[slave.index()] -= 1;
            self.window[wi].rtb_held = true;
            self.stats.results_forwarded += 1;
            self.log_at(done, seq, Some(slave), EventKind::ResultWritten);
            if P::ENABLED {
                self.probe.forwarded(now, seq, TransferKind::Result, TransferPhase::Alloc, slave);
            }
        }

        // Branch resolution.
        if is_cond {
            self.pending_bpred.schedule(done, seq, pack_branch(pc, taken, mispredicted));
            if mispredicted {
                self.log_at(done, seq, Some(cluster), EventKind::Mispredicted);
            }
        }

        self.log(seq, Some(cluster), EventKind::MasterIssued);
        self.log_at(done, seq, Some(cluster), EventKind::ExecDone);
        if P::ENABLED {
            self.probe.issued(now, seq, cluster, CopyKind::Master, done);
            self.probe.completed(done, seq, cluster);
            if load_miss {
                self.probe.load_missed(seq);
            }
        }
        // The master writes a register copy only when its own cluster
        // holds the destination (always, except scenario three).
        let master_writes = {
            let d = &self.window[wi];
            d.op.dest.is_some_and(|dest| self.assign.clusters_of(dest).contains(cluster))
        };
        if master_writes {
            self.log_at(done, seq, Some(cluster), EventKind::RegWritten);
        }
    }

    fn issue_slave_forward(&mut self, wi: usize, cluster: ClusterId) {
        let now = self.now;
        let (seq, master, receives, n_forwarded) = {
            let d = &mut self.window[wi];
            d.slave_issued = Some(now);
            (
                d.op.seq,
                d.dist.master,
                d.dist.slave_receives,
                d.dist.forwarded_src.iter().filter(|&&f| f).count(),
            )
        };
        // Allocate the operand-buffer entry in the master's cluster.
        self.otb_free[master.index()] -= 1;
        self.window[wi].otb_held = true;
        self.stats.operands_forwarded += 1;
        if P::ENABLED {
            // The forwarded operand is readable from `now + 1`.
            self.probe.issued(now, seq, cluster, CopyKind::Slave, now + 1);
            self.probe.forwarded(now, seq, TransferKind::Operand, TransferPhase::Alloc, master);
        }

        // The inter-copy dependence lifts: the master reads the
        // forwarded operand(s) from the next cycle on.
        for _ in 0..n_forwarded {
            self.deliver(seq, ACT_MASTER, now + 1, DeliverySource::OperandForward, None);
        }

        // Non-receiving slaves are finished once the operand is written;
        // scenario-five slaves stay suspended in the queue.
        if !receives {
            let d = &mut self.window[wi];
            if !d.dq_slave_freed {
                d.dq_slave_freed = true;
                self.dq_free[cluster.index()] += 1;
            }
        } else {
            self.log_at(now + 1, seq, Some(cluster), EventKind::SlaveSuspended);
        }
        self.log(seq, Some(cluster), EventKind::SlaveIssued);
        self.log_at(now + 1, seq, Some(master), EventKind::OperandWritten);
    }

    fn issue_slave_receive(&mut self, wi: usize, cluster: ClusterId) {
        let now = self.now;
        let seq = {
            let d = &mut self.window[wi];
            d.slave_issued = Some(now);
            d.slave_write = Some(now + 1);
            if d.rtb_held {
                d.rtb_held = false;
            }
            d.op.seq
        };
        // The write time is now known: wake consumers in this cluster
        // and record the completion event.
        let head = std::mem::replace(&mut self.window[wi].w_write, NIL);
        self.notify_waiters(head, now + 1, DeliverySource::SlaveWrite, seq);
        self.completions.push(Reverse((now + 1, seq, u64::from(WRITE_EVT))));
        // The slave reads the entry, then writes its register.
        self.buffer_frees.schedule(now + 1, (cluster.index() as u64) << 1 | u64::from(RTB), 0);
        if P::ENABLED {
            self.probe.issued(now, seq, cluster, CopyKind::Slave, now + 1);
            self.probe.forwarded(now + 1, seq, TransferKind::Result, TransferPhase::Release, cluster);
        }
        {
            let d = &mut self.window[wi];
            if !d.dq_slave_freed {
                d.dq_slave_freed = true;
                self.dq_free[cluster.index()] += 1;
            }
        }
        self.log(seq, Some(cluster), EventKind::SlaveIssued);
        self.log_at(now + 1, seq, Some(cluster), EventKind::RegWritten);
    }

    // -- dispatch (fetch + rename + queue insert) ----------------------------

    fn dispatch(&mut self) -> u32 {
        let now = self.now;
        if self.cursor >= self.trace.len() {
            // Post-trace drain: nothing left to fetch, not a stall.
            self.stats.drain_cycles += 1;
            return 0;
        }
        if self.fetch_blocked_by.is_some() {
            self.stats.stall_branch += 1;
            if P::ENABLED {
                self.probe.stalled(now, StallCause::BranchWait);
            }
            return 0;
        }
        if now < self.fetch_resume_at {
            let cause = match self.fetch_stall {
                FetchStall::Icache => {
                    self.stats.stall_icache += 1;
                    StallCause::Icache
                }
                FetchStall::Replay => {
                    self.stats.stall_replay += 1;
                    StallCause::Replay
                }
                FetchStall::Branch => {
                    self.stats.stall_branch += 1;
                    StallCause::BranchRedirect
                }
                FetchStall::Reassign => {
                    self.stats.stall_reassign += 1;
                    StallCause::Reassign
                }
            };
            if P::ENABLED {
                self.probe.stalled(now, cause);
            }
            return 0;
        }

        let mut dispatched = 0;
        let mut last_line: Option<u64> = None;
        let line_bytes = self.cfg.icache.line_bytes as u64;

        while dispatched < self.cfg.fetch_width && self.cursor < self.trace.len() {
            // A valid memo replays the front-end work recorded the
            // cycle this cursor first stalled; see [`DispatchMemo`].
            let memo = self.dispatch_memo.filter(|m| m.cursor == self.cursor);
            let op = match memo {
                Some(m) => m.op,
                None => self.trace.get(self.cursor),
            };

            // Dynamic register reassignment (Section 6): the first
            // dispatch of a trigger PC drains the pipeline, pays the
            // state-movement penalty, and switches the assignment.
            if self.reassign_draining
                || self.pending_reassign.first().is_some_and(|r| r.trigger_pc == op.pc)
            {
                self.reassign_draining = true;
                if !self.window.is_empty() {
                    if dispatched == 0 {
                        self.stats.stall_reassign += 1;
                        if P::ENABLED {
                            self.probe.stalled(now, StallCause::Reassign);
                        }
                    }
                    return dispatched;
                }
                let point = self.pending_reassign.remove(0);
                self.assign = point.assignment;
                // Distribution votes depend on the assignment.
                self.dispatch_memo = None;
                let (int_free, fp_free) = free_lists_for(self.cfg, &self.assign);
                self.int_free = int_free;
                self.fp_free = fp_free;
                self.reg_caps = (int_free, fp_free);
                self.reassign_draining = false;
                self.stats.reassignments += 1;
                // The switch consumes this cycle; the remaining
                // `reassignment_penalty - 1` wait cycles are charged one
                // at a time by the `fetch_resume_at` check above (the
                // window is empty here, so `dispatched == 0`).
                self.stats.stall_reassign += 1;
                if P::ENABLED {
                    self.probe.stalled(now, StallCause::Reassign);
                }
                self.fetch_resume_at = now + self.cfg.reassignment_penalty;
                self.fetch_stall = FetchStall::Reassign;
                // Rename state restarts under the new assignment (the
                // window is empty, so every mapping is architectural).
                for table in &mut self.producers {
                    table.iter_mut().for_each(|e| *e = None);
                }
                return dispatched;
            }

            // Instruction cache (one access per line per group). The
            // memo guarantees the line hit when it was recorded and
            // nothing has touched the instruction cache since (fetch
            // is its only client and the cursor has not moved), so a
            // memoized retry records the repeat hit without the lookup.
            let line = op.pc / line_bytes;
            if last_line != Some(line) {
                if memo.is_some() {
                    self.icache.record_repeat_hits(op.pc, 1);
                } else {
                    match self.icache.access(op.pc, now, false) {
                        Access::Hit => {}
                        Access::Miss { ready_at, .. } => {
                            self.fetch_resume_at = ready_at;
                            self.fetch_stall = FetchStall::Icache;
                            if dispatched == 0 {
                                self.stats.stall_icache += 1;
                                if P::ENABLED {
                                    self.probe.stalled(now, StallCause::Icache);
                                }
                            }
                            return dispatched;
                        }
                    }
                }
                last_line = Some(line);
            }
            if P::ENABLED {
                self.probe.fetched(now, op.seq);
            }

            // Distribution and resource checks.
            let m = memo.unwrap_or_else(|| {
                let dist = distribute(&op, &self.assign, &self.balance);
                let phys = dist.phys_needed(&op, &self.assign);
                let mut dq_needed = [0u32; 2];
                dq_needed[dist.master.index()] += 1;
                if let Some(s) = dist.slave {
                    dq_needed[s.index()] += 1;
                }
                let mut int_needed = [0i64; 2];
                let mut fp_needed = [0i64; 2];
                for (c, bank) in phys.iter() {
                    match bank {
                        RegBank::Int => int_needed[c.index()] += 1,
                        RegBank::Fp => fp_needed[c.index()] += 1,
                    }
                }
                DispatchMemo {
                    cursor: self.cursor,
                    op,
                    dist,
                    phys,
                    dq_needed,
                    int_needed,
                    fp_needed,
                }
            });
            let (dist, phys) = (m.dist, m.phys);
            let dq_ok = (0..2).all(|c| self.dq_free[c] >= m.dq_needed[c]);
            if !dq_ok {
                self.dispatch_memo = Some(m);
                if dispatched == 0 {
                    self.stats.stall_dq += 1;
                    if P::ENABLED {
                        self.probe.stalled(now, StallCause::DispatchQueue);
                    }
                }
                return dispatched;
            }
            let regs_ok = (0..2)
                .all(|c| self.int_free[c] >= m.int_needed[c] && self.fp_free[c] >= m.fp_needed[c]);
            if !regs_ok {
                self.dispatch_memo = Some(m);
                if dispatched == 0 {
                    self.stats.stall_regs += 1;
                    if P::ENABLED {
                        self.probe.stalled(now, StallCause::Registers);
                    }
                }
                return dispatched;
            }
            let (dq_needed, int_needed, fp_needed) = (m.dq_needed, m.int_needed, m.fp_needed);
            self.dispatch_memo = None;

            // Commit the dispatch.
            for c in 0..2 {
                self.dq_free[c] -= dq_needed[c];
                self.int_free[c] -= int_needed[c];
                self.fp_free[c] -= fp_needed[c];
            }
            self.balance[dist.master.index()] += 1;
            self.stats.per_cluster_dispatched[dist.master.index()] += 1;
            if let Some(s) = dist.slave {
                self.balance[s.index()] += 1;
                self.stats.per_cluster_dispatched[s.index()] += 1;
                self.stats.dual_distributed += 1;
            } else {
                self.stats.single_distributed += 1;
            }
            self.stats.scenario[usize::from(dist.scenario - 1)] += 1;

            // Resolve source dependences against the rename state.
            let mut src_dep = [None, None];
            let mut src_read_cluster = [dist.master; 2];
            for i in 0..2 {
                let Some(reg) = op.srcs[i] else { continue };
                let rc = if dist.forwarded_src[i] {
                    dist.slave.expect("forwarded operand implies a slave")
                } else {
                    dist.master
                };
                src_read_cluster[i] = rc;
                src_dep[i] = self.producers[rc.index()][reg.dense_index()];
                if P::ENABLED && dist.forwarded_src[i] {
                    if let Some(p) = src_dep[i] {
                        self.probe.forwarded_operand_source(op.seq, p);
                    }
                }
            }
            // Rename the destination in every cluster holding it.
            if let Some(dest) = op.dest {
                for c in self.assign.clusters_of(dest).iter() {
                    if c.index() < usize::from(self.cfg.clusters) {
                        self.producers[c.index()][dest.dense_index()] = Some(op.seq);
                    }
                }
            }

            // Ready-queue bookkeeping: resolve each copy's operand
            // times now, or register on the producer's wakeup list so
            // the copy enters the ready set the moment its last operand
            // time becomes known.
            let seq = op.seq;
            let mut m_wait = WaitState::default();
            let mut s_wait = WaitState::default();
            for i in 0..2 {
                if op.srcs[i].is_none() {
                    continue;
                }
                if dist.forwarded_src[i] {
                    // Inter-copy dependence: lifted when the slave copy
                    // forwards the operand (Section 2.1 scenario two).
                    m_wait.unknown += 1;
                } else {
                    match self.avail_for(src_dep[i], src_read_cluster[i]) {
                        Avail::Known(t) => m_wait.ready_at = m_wait.ready_at.max(t),
                        Avail::WaitDone(pi) => {
                            m_wait.unknown += 1;
                            let head = self.window[pi].w_done;
                            self.window[pi].w_done = self.waiters.push(head, seq, ACT_MASTER);
                        }
                        Avail::WaitWrite(pi) => {
                            m_wait.unknown += 1;
                            let head = self.window[pi].w_write;
                            self.window[pi].w_write = self.waiters.push(head, seq, ACT_MASTER);
                        }
                    }
                }
            }
            if let Some(s) = dist.slave {
                if dist.forwarded_src.iter().any(|&f| f) {
                    for i in 0..2 {
                        if !dist.forwarded_src[i] {
                            continue;
                        }
                        match self.avail_for(src_dep[i], src_read_cluster[i]) {
                            Avail::Known(t) => s_wait.ready_at = s_wait.ready_at.max(t),
                            Avail::WaitDone(pi) => {
                                s_wait.unknown += 1;
                                let head = self.window[pi].w_done;
                                self.window[pi].w_done = self.waiters.push(head, seq, ACT_SLAVE);
                            }
                            Avail::WaitWrite(pi) => {
                                s_wait.unknown += 1;
                                let head = self.window[pi].w_write;
                                self.window[pi].w_write = self.waiters.push(head, seq, ACT_SLAVE);
                            }
                        }
                    }
                } else {
                    // Receive-only slave: schedulable once its master
                    // issues (scenarios three and four).
                    s_wait.unknown = 1;
                }
                if s_wait.unknown == 0 {
                    self.future_ready.schedule(
                        s_wait.ready_at,
                        seq << 1 | u64::from(ACT_SLAVE),
                        s.index() as u64,
                    );
                }
                self.waiting_min[s.index()].push(Reverse((seq, ACT_SLAVE)));
            }
            if m_wait.unknown == 0 {
                self.future_ready.schedule(
                    m_wait.ready_at,
                    seq << 1 | u64::from(ACT_MASTER),
                    dist.master.index() as u64,
                );
            }
            self.waiting_min[dist.master.index()].push(Reverse((seq, ACT_MASTER)));

            // Branch prediction at queue-insert time (Section 4.2,
            // footnote 2).
            let mut mispredicted = false;
            if op.is_conditional_branch() {
                self.stats.branches += 1;
                let predicted = self.predictor.predict(op.pc);
                let actual = op.branch.expect("conditional has branch info").taken;
                if predicted != actual {
                    mispredicted = true;
                    self.stats.mispredicts += 1;
                    self.fetch_blocked_by = Some(op.seq);
                }
            }

            let master = dist.master;
            let slave = dist.slave;
            let taken = op.branch.is_some_and(|b| b.taken);
            let sched_inserted = op.sched_inserted;
            let slave_receives = dist.slave_receives;
            let ready_floor = m_wait.ready_at;
            let ready_known = m_wait.unknown == 0;
            self.window.push_back(DynInstr {
                op,
                dist,
                phys,
                m_wait,
                s_wait,
                w_done: NIL,
                w_write: NIL,
                master_issued: None,
                master_done: None,
                slave_issued: None,
                slave_write: None,
                woke: false,
                mispredicted,
                dq_master_freed: false,
                dq_slave_freed: false,
                otb_held: false,
                rtb_held: false,
            });
            self.log(seq, Some(master), EventKind::Distributed);
            if let Some(s) = slave {
                self.log(seq, Some(s), EventKind::Distributed);
            }
            if P::ENABLED {
                self.probe.dispatched(now, seq, master, slave);
                self.probe.op_dispatch_meta(
                    seq,
                    sched_inserted,
                    slave_receives,
                    ready_floor,
                    ready_known,
                );
            }

            self.cursor += 1;
            dispatched += 1;

            if mispredicted {
                break; // wrong-path fetch until the branch resolves
            }
            if taken && self.cfg.fetch_stops_at_taken {
                break; // a taken branch ends the fetch group
            }
        }
        dispatched
    }

    // -- deadlock handling -----------------------------------------------------

    fn check_progress(&mut self, work_done: u32) -> Result<(), SimError> {
        // An empty window only counts as progress when the run is over:
        // with trace left to dispatch, a drained machine must still show
        // future work (fetch resuming, a pending branch resolution, ...)
        // or it is wedged — e.g. fetch blocked on a branch whose
        // resolution was lost — and must be reported, not spun to the
        // cycle limit.
        if work_done > 0 || (self.window.is_empty() && self.cursor >= self.trace.len()) {
            self.no_progress_cycles = 0;
            return Ok(());
        }
        let now = self.now;
        let future_work = self.fetch_resume_at > now
            || !self.pending_bpred.is_empty()
            || !self.buffer_frees.is_empty()
            || self.has_future_completion(now);
        if future_work {
            self.no_progress_cycles = 0;
            return Ok(());
        }
        self.no_progress_cycles += 1;
        if self.no_progress_cycles < 2 {
            return Ok(());
        }
        if self.blocked_on_buffer {
            // Transfer-buffer deadlock (Section 2.1): replay from the
            // youngest instruction holding a buffer entry. If the same
            // deadlock recurs before anything retires, escalate to a
            // full squash (everything but the oldest instruction), which
            // guarantees progress: the oldest instruction's dependences
            // are all retired and every buffer entry is freed.
            let escalate = self.last_replay_base == Some(self.base) && self.window.len() > 1;
            let victim = if escalate {
                Some(self.base + 1)
            } else {
                self.window.iter().rev().find(|d| d.otb_held || d.rtb_held).map(|d| d.op.seq)
            };
            if let Some(seq) = victim {
                if escalate {
                    self.stats.replay_escalations += 1;
                }
                self.last_replay_base = Some(self.base);
                self.replay_from(seq);
                self.no_progress_cycles = 0;
                self.replays_since_retire += 1;
                // Replay forward progress: the escalation ladder
                // guarantees at most two replays (one ordinary, one
                // escalated) before the oldest instruction retires.
                if self.check != CheckLevel::Off && self.replays_since_retire > 2 {
                    return Err(SimError::Invariant {
                        cycle: now,
                        rule: "replay-progress",
                        detail: format!(
                            "{} replay exceptions without an intervening retirement \
                             (window base #{})",
                            self.replays_since_retire, self.base
                        ),
                        snapshot: self.window_snapshot(),
                    });
                }
                return Ok(());
            }
        }
        if self.no_progress_cycles > self.cfg.wedge_threshold {
            return Err(SimError::Wedged { cycle: now, oldest_seq: self.base });
        }
        Ok(())
    }

    /// Whether some in-flight instruction completes (master done or
    /// slave register write) strictly after `now`. Exact: every such
    /// time pushes a completion event when scheduled; events from
    /// squashed incarnations are discarded against the live window.
    fn has_future_completion(&mut self, now: u64) -> bool {
        self.next_live_completion(now).is_some()
    }

    /// The earliest cycle strictly after `now` at which a live,
    /// in-flight instruction completes, discarding already-fired and
    /// stale (squashed-incarnation) events along the way.
    fn next_live_completion(&mut self, now: u64) -> Option<u64> {
        // Walk events in firing order, dropping ones at or before `now`
        // (they fired, or never will) and stale ones, until one is live.
        loop {
            let &Reverse((cycle, seq, evt)) = self.completions.peek()?;
            if cycle <= now {
                self.completions.pop();
                continue;
            }
            let live = match self.win_index(seq) {
                None => false,
                Some(wi) => {
                    let d = &self.window[wi];
                    if evt == u64::from(DONE_EVT) {
                        d.master_done == Some(cycle)
                    } else {
                        d.slave_write == Some(cycle)
                    }
                }
            };
            if live {
                return Some(cycle);
            }
            self.completions.pop();
        }
    }

    // -- invariant checking --------------------------------------------------

    /// A [`render_window`] view of the live window (capped), for
    /// attaching to violation reports.
    fn window_snapshot(&self) -> String {
        use std::fmt::Write as _;
        const MAX_ROWS: usize = 48;
        let rows: Vec<WindowRow> = self
            .window
            .iter()
            .take(MAX_ROWS)
            .map(|d| WindowRow {
                seq: d.op.seq,
                scenario: d.dist.scenario,
                master: d.dist.master.index() as u8,
                slave: d.dist.slave.map(|s| s.index() as u8),
                master_issued: d.master_issued,
                master_done: d.master_done,
                slave_issued: d.slave_issued,
                slave_write: d.slave_write,
                otb_held: d.otb_held,
                rtb_held: d.rtb_held,
            })
            .collect();
        let mut snapshot = render_window(self.now, self.base, &rows);
        if self.window.len() > MAX_ROWS {
            let _ = writeln!(snapshot, "  ... {} more", self.window.len() - MAX_ROWS);
        }
        snapshot
    }

    /// Runs every invariant check against the end-of-cycle state,
    /// converting the first violation into [`SimError::Invariant`].
    fn validate_invariants(&mut self, issued_per: &[u32; 2]) -> Result<(), SimError> {
        if let Err(v) = self.find_violation(issued_per) {
            return Err(SimError::Invariant {
                cycle: self.now,
                rule: v.rule,
                detail: v.detail,
                snapshot: self.window_snapshot(),
            });
        }
        Ok(())
    }

    fn find_violation(&mut self, issued_per: &[u32; 2]) -> Result<(), check::Violation> {
        self.check_window_order()?;
        self.check_resource_accounting(issued_per)?;
        self.check_waiter_liveness()?;
        self.check_completion_liveness()?;
        Ok(())
    }

    /// In-order retirement: the window is contiguous in sequence
    /// numbers starting at the retirement base.
    fn check_window_order(&self) -> Result<(), check::Violation> {
        for (i, d) in self.window.iter().enumerate() {
            let expect = self.base + i as u64;
            if d.op.seq != expect {
                return Err(check::Violation::new(
                    "window-order",
                    format!("window slot {i} holds #{}, expected #{expect}", d.op.seq),
                ));
            }
        }
        Ok(())
    }

    /// Re-derives every cluster's resource holdings from the window and
    /// checks free + held (+ pending frees) against the configured
    /// capacities, plus the cycle's issue counts against the per-cluster
    /// width.
    fn check_resource_accounting(&self, issued_per: &[u32; 2]) -> Result<(), check::Violation> {
        let n = usize::from(self.cfg.clusters);
        let mut t = [check::ClusterTally::default(); 2];
        let (int_cap, fp_cap) = self.reg_caps;
        for c in 0..n {
            t[c].dq_free = u64::from(self.dq_free[c]);
            t[c].dq_capacity = u64::from(self.cfg.dq_entries);
            t[c].otb_free = u64::from(self.otb_free[c]);
            t[c].otb_capacity = u64::from(self.cfg.operand_buffer);
            t[c].rtb_free = u64::from(self.rtb_free[c]);
            t[c].rtb_capacity = u64::from(self.cfg.result_buffer);
            t[c].int_free = self.int_free[c];
            t[c].int_capacity = int_cap[c];
            t[c].fp_free = self.fp_free[c];
            t[c].fp_capacity = fp_cap[c];
            t[c].issued = issued_per[c];
            t[c].issue_limit = self.cfg.issue_rules.total;
        }
        for d in &self.window {
            let m = d.dist.master.index();
            if !d.dq_master_freed {
                t[m].dq_held += 1;
            }
            if d.otb_held {
                t[m].otb_held += 1;
            }
            if let Some(s) = d.dist.slave {
                if !d.dq_slave_freed {
                    t[s.index()].dq_held += 1;
                }
                if d.rtb_held {
                    t[s.index()].rtb_held += 1;
                }
            }
            for (c, bank) in d.phys.iter() {
                match bank {
                    RegBank::Int => t[c.index()].int_held += 1,
                    RegBank::Fp => t[c.index()].fp_held += 1,
                }
            }
        }
        // Scheduled frees all lie strictly in the future here (due ones
        // were drained at cycle start), so they are exactly the entries
        // that are neither free nor held.
        for e in self.buffer_frees.iter() {
            let c = (e.key >> 1) as usize;
            if e.key & 1 == u64::from(OTB) {
                t[c].otb_pending += 1;
            } else {
                t[c].rtb_pending += 1;
            }
        }
        for (c, tally) in t.iter().enumerate().take(n) {
            check::verify_cluster(c, tally)?;
        }
        Ok(())
    }

    /// Every wakeup-list registration names a live, younger consumer
    /// that still has unknown operands, and every arena node is either
    /// reachable from a window list or on the free list (no leaks, no
    /// cycles).
    fn check_waiter_liveness(&mut self) -> Result<(), check::Violation> {
        let nodes = self.waiters.nodes.len();
        let mut registrations = std::mem::take(&mut self.scratch_regs);
        registrations.clear();
        registrations.resize(self.window.len(), [0; 2]);
        let result = self.waiter_liveness_with(&mut registrations);
        self.scratch_regs = registrations;
        let reachable = result?;
        let free = self.waiters.free_len as usize;
        if reachable + free != nodes {
            return Err(check::Violation::new(
                "waiter-liveness",
                format!("{reachable} reachable + {free} free != {nodes} waiter nodes (leak)"),
            ));
        }
        Ok(())
    }

    /// The traversal half of [`Self::check_waiter_liveness`], split out
    /// so the scratch tally buffer can be restored on either exit path.
    /// Returns the number of reachable arena nodes.
    fn waiter_liveness_with(
        &self,
        registrations: &mut [[u32; 2]],
    ) -> Result<usize, check::Violation> {
        let nodes = self.waiters.nodes.len();
        let mut reachable = 0usize;
        for d in &self.window {
            for (head, list) in [(d.w_done, "done"), (d.w_write, "write")] {
                let mut idx = head;
                while idx != NIL {
                    reachable += 1;
                    if reachable > nodes {
                        return Err(check::Violation::new(
                            "waiter-liveness",
                            format!("cycle in the {list} wakeup list of #{}", d.op.seq),
                        ));
                    }
                    let node = self.waiters.nodes[idx as usize];
                    let Some(ci) = self.win_index(node.consumer) else {
                        return Err(check::Violation::new(
                            "waiter-liveness",
                            format!(
                                "the {list} list of #{} names consumer #{}, which is \
                                 retired or squashed",
                                d.op.seq, node.consumer
                            ),
                        ));
                    };
                    if node.consumer <= d.op.seq {
                        return Err(check::Violation::new(
                            "waiter-liveness",
                            format!(
                                "consumer #{} is not younger than its producer #{}",
                                node.consumer, d.op.seq
                            ),
                        ));
                    }
                    registrations[ci][usize::from(node.action)] += 1;
                    idx = node.next;
                }
            }
        }
        for (ci, regs) in registrations.iter().enumerate() {
            let d = &self.window[ci];
            for (action, &count) in regs.iter().enumerate() {
                let st = if action == usize::from(ACT_MASTER) { &d.m_wait } else { &d.s_wait };
                if count > u32::from(st.unknown) {
                    return Err(check::Violation::new(
                        "waiter-liveness",
                        format!(
                            "#{} holds {count} wakeup registrations for {} unknown \
                             operands",
                            d.op.seq, st.unknown
                        ),
                    ));
                }
            }
        }
        Ok(reachable)
    }

    /// Every future completion time recorded in the window has a
    /// matching event in the completions heap — otherwise the progress
    /// check could miss pending work and misdiagnose a deadlock.
    fn check_completion_liveness(&mut self) -> Result<(), check::Violation> {
        let mut scheduled = std::mem::take(&mut self.scratch_sched);
        scheduled.clear();
        scheduled.resize(self.window.len(), [false; 2]);
        let result = self.completion_liveness_with(&mut scheduled);
        self.scratch_sched = scheduled;
        result
    }

    /// The marking half of [`Self::check_completion_liveness`], split
    /// out so the scratch mark buffer can be restored on either exit
    /// path.
    fn completion_liveness_with(
        &self,
        scheduled: &mut [[bool; 2]],
    ) -> Result<(), check::Violation> {
        // One pass over the queue marks which window entries have a
        // matching event; stale events for squashed or retired
        // instructions (lazy deletion) simply mark nothing.
        for &Reverse((cycle, seq, evt)) in self.completions.iter() {
            let Some(wi) = self.win_index(seq) else { continue };
            let d = &self.window[wi];
            let (expect, slot) = if evt == u64::from(DONE_EVT) {
                (d.master_done, 0)
            } else {
                (d.slave_write, 1)
            };
            if expect == Some(cycle) {
                scheduled[wi][slot] = true;
            }
        }
        let now = self.now;
        for (wi, d) in self.window.iter().enumerate() {
            if let Some(done) = d.master_done {
                if done > now && !scheduled[wi][0] {
                    return Err(check::Violation::new(
                        "completion-liveness",
                        format!(
                            "#{} completes at cycle {done} with no scheduled completion \
                             event",
                            d.op.seq
                        ),
                    ));
                }
            }
            if let Some(write) = d.slave_write {
                if write > now && !scheduled[wi][1] {
                    return Err(check::Violation::new(
                        "completion-liveness",
                        format!(
                            "#{} writes its slave register copy at cycle {write} with no \
                             scheduled completion event",
                            d.op.seq
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Squashes instruction `from_seq` and everything younger, then
    /// restarts dispatch from it after the replay penalty.
    fn replay_from(&mut self, from_seq: u64) {
        let now = self.now;
        self.stats.replays += 1;
        let keep = (from_seq - self.base) as usize;
        let mut squashed = std::mem::take(&mut self.scratch_squash);
        squashed.clear();
        squashed.extend(self.window.drain(keep..));
        for d in &squashed {
            self.stats.replay_squashed += 1;
            for (c, bank) in d.phys.iter() {
                match bank {
                    RegBank::Int => self.int_free[c.index()] += 1,
                    RegBank::Fp => self.fp_free[c.index()] += 1,
                }
            }
            if !d.dq_master_freed {
                self.dq_free[d.dist.master.index()] += 1;
            }
            if let Some(s) = d.dist.slave {
                if !d.dq_slave_freed {
                    self.dq_free[s.index()] += 1;
                }
                if d.rtb_held {
                    self.rtb_free[s.index()] += 1;
                }
            }
            if d.otb_held {
                self.otb_free[d.dist.master.index()] += 1;
            }
            self.waiters.release_list(d.w_done);
            self.waiters.release_list(d.w_write);
            self.log(d.op.seq, None, EventKind::ReplaySquashed);
        }
        let squash_count = squashed.len() as u64;
        squashed.clear();
        self.scratch_squash = squashed;
        if P::ENABLED {
            self.probe.replayed(now, from_seq, squash_count);
        }
        // Squashed copies leave the ready sets; registrations *by*
        // squashed consumers on surviving producers are dropped so a
        // re-dispatched incarnation cannot see a double delivery. The
        // future-ready/wake/completion heaps and the waiting heaps
        // validate lazily against the live window instead.
        for c in 0..2 {
            let keep = self.ready[c].partition_point(|e| e.seq < from_seq);
            self.ready[c].truncate(keep);
        }
        for wi in 0..self.window.len() {
            let head = self.window[wi].w_done;
            self.window[wi].w_done = self.waiters.purge_squashed(head, from_seq);
            let head = self.window[wi].w_write;
            self.window[wi].w_write = self.waiters.purge_squashed(head, from_seq);
        }
        // Drop pending predictor updates for squashed branches.
        self.pending_bpred.retain(|e| e.key < from_seq);
        // Rebuild the rename state from the surviving window.
        for table in &mut self.producers {
            table.iter_mut().for_each(|e| *e = None);
        }
        let n = usize::from(self.cfg.clusters);
        for wi in 0..self.window.len() {
            let (seq, dest) = {
                let d = &self.window[wi];
                (d.op.seq, d.op.dest)
            };
            if let Some(dest) = dest {
                for c in self.assign.clusters_of(dest).iter() {
                    if c.index() < n {
                        self.producers[c.index()][dest.dense_index()] = Some(seq);
                    }
                }
            }
        }
        // An unresolved mispredicted branch that was squashed no longer
        // blocks fetch.
        if self.fetch_blocked_by.is_some_and(|b| b >= from_seq) {
            self.fetch_blocked_by = None;
        }
        self.cursor = usize::try_from(from_seq).expect("trace indices fit usize");
        // The rewind restored balance and free lists; any memoized
        // front-end work is stale.
        self.dispatch_memo = None;
        self.fetch_resume_at = now + self.cfg.replay_penalty;
        self.fetch_stall = FetchStall::Replay;
    }
}

/// Physical-register free-list sizes for an empty pipeline under
/// `assign`: capacity minus the committed architectural mappings each
/// cluster must hold.
fn free_lists_for(
    cfg: &ProcessorConfig,
    assign: &mcl_isa::assign::RegisterAssignment,
) -> ([i64; 2], [i64; 2]) {
    let n = usize::from(cfg.clusters);
    let mut int_committed = [0i64; 2];
    let mut fp_committed = [0i64; 2];
    for reg in ArchReg::all() {
        if reg.is_zero() {
            continue;
        }
        for c in assign.clusters_of(reg).iter() {
            if c.index() >= n {
                continue;
            }
            match reg.bank() {
                RegBank::Int => int_committed[c.index()] += 1,
                RegBank::Fp => fp_committed[c.index()] += 1,
            }
        }
    }
    let mut int_free = [0i64; 2];
    let mut fp_free = [0i64; 2];
    for c in 0..n {
        int_free[c] = i64::from(cfg.int_regs) - int_committed[c];
        fp_free[c] = i64::from(cfg.fp_regs) - fp_committed[c];
        assert!(int_free[c] > 0 && fp_free[c] > 0, "physical registers too few");
    }
    (int_free, fp_free)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_trace::ProgramBuilder;

    fn run(cfg: ProcessorConfig, program: &Program<ArchReg>) -> SimResult {
        Processor::new(cfg).run_program(program).expect("simulates")
    }

    /// A chain of dependent adds on even registers (single cluster use).
    fn chain_program(len: usize) -> Program<ArchReg> {
        let mut b = ProgramBuilder::<ArchReg>::new("chain");
        let r = ArchReg::int(2);
        b.lda(r, 0);
        for _ in 0..len {
            b.addq_imm(r, r, 1);
        }
        b.finish().unwrap()
    }

    #[test]
    fn retires_every_instruction() {
        let p = chain_program(50);
        let res = run(ProcessorConfig::single_cluster_8way(), &p);
        assert_eq!(res.stats.retired, 51);
        assert!(res.stats.cycles >= 51, "a dependent chain runs at one IPC at best");
    }

    #[test]
    fn dependent_chain_runs_at_one_ipc_steady_state() {
        // A loop (warm icache, predictable branch) whose body is a
        // 16-deep dependent add chain: the chain limits throughput to
        // about one add per cycle.
        let mut b = ProgramBuilder::<ArchReg>::new("chain-loop");
        let r = ArchReg::int(2);
        let i = ArchReg::int(4);
        let body = b.new_block("body");
        b.lda(r, 0);
        b.lda(i, 200);
        b.switch_to(body);
        for _ in 0..16 {
            b.addq_imm(r, r, 1);
        }
        b.subq_imm(i, i, 1);
        b.bne(i, body);
        let p = b.finish().unwrap();
        let res = run(ProcessorConfig::single_cluster_8way(), &p);
        let cycles = res.stats.cycles;
        // 200 iterations x 16-cycle chain = 3200 cycles of pure chain.
        assert!((3200..4200).contains(&cycles), "cycles = {cycles}");
    }

    #[test]
    fn independent_instructions_issue_in_parallel() {
        // 8 independent chains inside a loop: issue-width bound, not
        // dependence bound.
        let mut b = ProgramBuilder::<ArchReg>::new("wide-loop");
        let i = ArchReg::int(20);
        let body = b.new_block("body");
        for c in 0..8u8 {
            b.lda(ArchReg::int(c * 2), i64::from(c));
        }
        b.lda(i, 100);
        b.switch_to(body);
        for _ in 0..5 {
            for c in 0..8u8 {
                let r = ArchReg::int(c * 2);
                b.addq_imm(r, r, 1);
            }
        }
        b.subq_imm(i, i, 1);
        b.bne(i, body);
        let p = b.finish().unwrap();
        let res = run(ProcessorConfig::single_cluster_8way(), &p);
        assert!(res.stats.ipc() > 4.0, "ipc = {}", res.stats.ipc());
    }

    #[test]
    fn single_cluster_never_dual_distributes() {
        let p = chain_program(20);
        let res = run(ProcessorConfig::single_cluster_8way(), &p);
        assert_eq!(res.stats.dual_distributed, 0);
        assert_eq!(res.stats.scenario[1..].iter().sum::<u64>(), 0);
    }

    #[test]
    fn cross_cluster_chain_dual_distributes() {
        // Alternating even/odd destinations force inter-cluster traffic.
        let mut b = ProgramBuilder::<ArchReg>::new("pingpong");
        let e = ArchReg::int(2);
        let o = ArchReg::int(3);
        b.lda(e, 0);
        for _ in 0..20 {
            b.addq_imm(o, e, 1); // reads C0, writes C1 -> dual
            b.addq_imm(e, o, 1); // reads C1, writes C0 -> dual
        }
        let p = b.finish().unwrap();
        let res = run(ProcessorConfig::dual_cluster_8way(), &p);
        assert!(res.stats.dual_distributed >= 40, "stats: {:?}", res.stats);
        assert!(res.stats.results_forwarded > 0 || res.stats.operands_forwarded > 0);
    }

    #[test]
    fn dual_costs_cycles_versus_single_on_pingpong() {
        let mut b = ProgramBuilder::<ArchReg>::new("pingpong");
        let e = ArchReg::int(2);
        let o = ArchReg::int(3);
        b.lda(e, 0);
        for _ in 0..50 {
            b.addq_imm(o, e, 1);
            b.addq_imm(e, o, 1);
        }
        let p = b.finish().unwrap();
        let dual = run(ProcessorConfig::dual_cluster_8way(), &p);
        let single = run(ProcessorConfig::single_cluster_8way(), &p);
        assert!(
            dual.stats.cycles > single.stats.cycles,
            "dual {} vs single {}",
            dual.stats.cycles,
            single.stats.cycles
        );
    }

    #[test]
    fn global_register_writes_update_both_clusters() {
        let mut b = ProgramBuilder::<ArchReg>::new("global");
        let sp = ArchReg::SP;
        let e = ArchReg::int(2);
        let o = ArchReg::int(3);
        b.lda(sp, 0x8000);
        b.addq_imm(e, sp, 8); // C0 reads sp locally
        b.addq_imm(o, sp, 16); // C1 reads sp locally
        let p = b.finish().unwrap();
        let res = run(ProcessorConfig::dual_cluster_8way(), &p);
        // lda sp is scenario 4 (global destination).
        assert_eq!(res.stats.scenario[3], 1, "stats: {:?}", res.stats.scenario);
        // The two adds are single-distributed (global sources are free).
        assert_eq!(res.stats.scenario[0], 2);
        assert_eq!(res.stats.retired, 3);
    }

    #[test]
    fn mispredicted_branches_stall_fetch() {
        // A data-dependent branch pattern the predictor cannot learn:
        // use an LCG-driven condition.
        let mut b = ProgramBuilder::<ArchReg>::new("branchy");
        let x = ArchReg::int(2);
        let bit = ArchReg::int(4);
        let i = ArchReg::int(6);
        let body = b.new_block("body");
        let skip = b.new_block("skip");
        let join = b.new_block("join");
        b.lda(x, 12345);
        b.lda(i, 200);
        b.switch_to(body);
        b.mulq_imm(x, x, 1103515245);
        b.addq_imm(x, x, 12345);
        b.srl_imm(bit, x, 16);
        b.and_imm(bit, bit, 1);
        b.bne(bit, join);
        b.switch_to(skip);
        b.addq_imm(x, x, 7);
        b.switch_to(join);
        b.subq_imm(i, i, 1);
        b.bne(i, body);
        let p = b.finish().unwrap();
        let res = run(ProcessorConfig::single_cluster_8way(), &p);
        assert!(res.stats.branches >= 400);
        assert!(
            res.stats.mispredicts > res.stats.branches / 10,
            "unpredictable branch should mispredict: {:?}",
            (res.stats.mispredicts, res.stats.branches)
        );
        assert!(res.stats.stall_branch > 0);
    }

    #[test]
    fn dcache_misses_cost_cycles() {
        // Stride through 256 KB (beyond the 64 KB cache) twice.
        let mut b = ProgramBuilder::<ArchReg>::new("stride");
        let base = ArchReg::int(2);
        let x = ArchReg::int(4);
        let i = ArchReg::int(6);
        let body = b.new_block("body");
        b.lda(i, 8192);
        b.lda(base, 0x10_0000);
        b.switch_to(body);
        b.ldq(x, base, 0);
        b.addq_imm(base, base, 32);
        b.subq_imm(i, i, 1);
        b.bne(i, body);
        let p = b.finish().unwrap();
        let res = run(ProcessorConfig::single_cluster_8way(), &p);
        assert!(res.stats.dcache.misses > 8000, "dcache: {:?}", res.stats.dcache);
    }

    #[test]
    fn event_log_records_through_the_probe() {
        let (trace, _) = trace_program(&chain_program(3)).unwrap();
        let mut log = crate::events::EventLog::new();
        let res = Processor::new(ProcessorConfig::single_cluster_8way())
            .run_trace_observed(&trace, &mut log)
            .unwrap();
        let retired = log.events().iter().filter(|e| e.kind == EventKind::Retired).count();
        assert_eq!(retired as u64, res.stats.retired);
        assert!(log.events().iter().any(|e| e.kind == EventKind::MasterIssued));
    }

    #[test]
    fn empty_trace_simulates_to_zero_cycles() {
        let res = Processor::new(ProcessorConfig::single_cluster_8way()).run_trace(&[]).unwrap();
        assert_eq!(res.stats.cycles, 0);
        assert_eq!(res.stats.retired, 0);
    }

    #[test]
    fn determinism() {
        let p = chain_program(100);
        let a = run(ProcessorConfig::dual_cluster_8way(), &p);
        let b = run(ProcessorConfig::dual_cluster_8way(), &p);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn waiter_arena_purge_drops_squashed_consumers_and_recycles_nodes() {
        let mut arena = WaiterArena::new();
        let mut head = NIL;
        head = arena.push(head, 1, ACT_MASTER);
        head = arena.push(head, 5, ACT_SLAVE);
        head = arena.push(head, 3, ACT_MASTER);

        // Consumers 3 and 5 are squashed; only consumer 1 survives.
        let head = arena.purge_squashed(head, 3);
        let mut survivors = Vec::new();
        let mut cur = head;
        while cur != NIL {
            let w = &arena.nodes[cur as usize];
            survivors.push((w.consumer, w.action));
            cur = w.next;
        }
        assert_eq!(survivors, vec![(1, ACT_MASTER)]);

        // The two purged nodes went back to the free list: further
        // pushes must reuse them rather than grow the arena.
        let len_before = arena.nodes.len();
        let mut head2 = arena.push(NIL, 7, ACT_MASTER);
        head2 = arena.push(head2, 9, ACT_SLAVE);
        let _ = head2;
        assert_eq!(arena.nodes.len(), len_before, "freed nodes are recycled");
    }

    /// Alternating even/odd destinations: every add dual-distributes
    /// and moves an operand or result through a transfer buffer.
    fn pingpong_program(len: usize) -> Program<ArchReg> {
        let mut b = ProgramBuilder::<ArchReg>::new("pingpong");
        let e = ArchReg::int(2);
        let o = ArchReg::int(3);
        b.lda(e, 0);
        for _ in 0..len {
            b.addq_imm(o, e, 1);
            b.addq_imm(e, o, 1);
        }
        b.finish().unwrap()
    }

    #[test]
    fn wedge_threshold_is_a_knob_and_wedging_is_reported() {
        // Leaking every transfer-buffer entry of a 1-entry-buffer
        // machine makes forwarding impossible forever, with no entry
        // *held* by anyone — exactly the unattributable hard stall the
        // wedge detector exists for.
        let p = pingpong_program(20);
        let mut wedge_cycles = Vec::new();
        for threshold in [8u32, 200] {
            let mut cfg = ProcessorConfig::dual_cluster_8way();
            cfg.operand_buffer = 1;
            cfg.result_buffer = 1;
            cfg.wedge_threshold = threshold;
            cfg.faults = vec![
                FaultInjection::LeakOperandBuffer { cycle: 0 },
                FaultInjection::LeakResultBuffer { cycle: 0 },
            ];
            let err = Processor::new(cfg).run_program(&p).unwrap_err();
            match err {
                SimError::Wedged { cycle, oldest_seq } => {
                    assert!(oldest_seq > 0, "the lda retires before the machine wedges");
                    wedge_cycles.push(cycle);
                }
                other => panic!("expected Wedged, got {other}"),
            }
        }
        assert!(
            wedge_cycles[0] + 100 < wedge_cycles[1],
            "a larger threshold must tolerate a longer stall: {wedge_cycles:?}"
        );
    }

    #[test]
    fn cycle_checker_catches_injected_buffer_leak_immediately() {
        let p = pingpong_program(20);
        let mut cfg = ProcessorConfig::dual_cluster_8way().with_check_level(CheckLevel::Cycle);
        cfg.faults = vec![FaultInjection::LeakOperandBuffer { cycle: 0 }];
        let err = Processor::new(cfg).run_program(&p).unwrap_err();
        match err {
            SimError::Invariant { cycle, rule, .. } => {
                assert_eq!(rule, "otb-accounting");
                assert_eq!(cycle, 0, "cycle-level checking detects the leak at once");
            }
            other => panic!("expected Invariant, got {other}"),
        }
    }

    #[test]
    fn retire_checker_catches_injected_buffer_leak_by_first_retirement() {
        let p = pingpong_program(20);
        let mut cfg = ProcessorConfig::dual_cluster_8way().with_check_level(CheckLevel::Retire);
        cfg.faults = vec![FaultInjection::LeakResultBuffer { cycle: 0 }];
        let err = Processor::new(cfg).run_program(&p).unwrap_err();
        match err {
            SimError::Invariant { cycle, rule, snapshot, .. } => {
                assert_eq!(rule, "rtb-accounting");
                assert!(cycle > 0, "retire-level checking waits for a retiring cycle");
                assert!(snapshot.contains("window at cycle"), "snapshot: {snapshot}");
            }
            other => panic!("expected Invariant, got {other}"),
        }
    }

    /// A warm loop with trailing straightline work: the loop-exit
    /// branch (taken while iterating, finally not taken) guarantees at
    /// least one misprediction that blocks fetch with trace remaining.
    fn loop_with_tail_program() -> Program<ArchReg> {
        let mut b = ProgramBuilder::<ArchReg>::new("loop-tail");
        let r = ArchReg::int(2);
        let i = ArchReg::int(4);
        let body = b.new_block("body");
        b.lda(r, 0);
        b.lda(i, 8);
        b.switch_to(body);
        b.addq_imm(r, r, 1);
        b.subq_imm(i, i, 1);
        b.bne(i, body);
        let tail = b.new_block("tail");
        b.switch_to(tail);
        for _ in 0..10 {
            b.addq_imm(r, r, 1);
        }
        b.finish().unwrap()
    }

    #[test]
    fn dropped_completion_event_trips_the_liveness_checker() {
        // Multi-cycle multiplies: the drop fault targets a completion
        // strictly in the future, which single-cycle adds never leave
        // visible at a cycle boundary.
        let mut b = ProgramBuilder::<ArchReg>::new("mul-chain");
        let r = ArchReg::int(2);
        b.lda(r, 3);
        for _ in 0..10 {
            b.mulq(r, r, r);
        }
        let p = b.finish().unwrap();
        let mut cfg = ProcessorConfig::single_cluster_8way().with_check_level(CheckLevel::Cycle);
        cfg.faults = vec![FaultInjection::DropCompletion { cycle: 0 }];
        let err = Processor::new(cfg).run_program(&p).unwrap_err();
        match err {
            SimError::Invariant { rule, .. } => assert_eq!(rule, "completion-liveness"),
            other => panic!("expected Invariant, got {other}"),
        }
    }

    #[test]
    fn stuck_branch_resolution_wedges_instead_of_spinning() {
        // Losing the blocking branch's resolution leaves fetch blocked
        // forever while the window drains empty — the tightened
        // progress check must report Wedged (with trace left to run),
        // not spin two billion cycles to the limit.
        let p = loop_with_tail_program();
        let mut cfg = ProcessorConfig::single_cluster_8way();
        cfg.wedge_threshold = 64;
        cfg.faults = vec![FaultInjection::StickBranchResolution { cycle: 0 }];
        let err = Processor::new(cfg).run_program(&p).unwrap_err();
        assert!(matches!(err, SimError::Wedged { .. }), "got {err}");
    }

    #[test]
    fn stuck_branch_wedge_matches_single_stepping() {
        // The empty-window wedge span must tick cycle by cycle:
        // fast-forward may not jump across cycles the stepped progress
        // check counts toward the threshold. An enabled probe forces
        // single-stepping, so it is the reference run.
        struct Stepped;
        impl Probe for Stepped {}
        let p = loop_with_tail_program();
        let mut cfg = ProcessorConfig::single_cluster_8way();
        cfg.wedge_threshold = 64;
        cfg.faults = vec![FaultInjection::StickBranchResolution { cycle: 0 }];
        let (trace, _) = trace_program(&p).unwrap();
        let mut processor = Processor::new(cfg);
        let errs = [
            processor.run_trace(&trace).unwrap_err(),
            processor.run_trace_observed(&trace, &mut Stepped).unwrap_err(),
        ]
        .map(|err| match err {
            SimError::Wedged { cycle, oldest_seq } => (cycle, oldest_seq),
            other => panic!("expected Wedged, got {other}"),
        });
        assert_eq!(
            errs[0], errs[1],
            "fast-forward and single-stepping disagree on the wedge report"
        );
    }

    #[test]
    fn corrupted_transfer_credit_trips_the_accounting_checker() {
        let p = pingpong_program(20);
        let mut cfg = ProcessorConfig::dual_cluster_8way().with_check_level(CheckLevel::Cycle);
        cfg.faults = vec![FaultInjection::CorruptTransferCredit { cycle: 0 }];
        let err = Processor::new(cfg).run_program(&p).unwrap_err();
        match err {
            SimError::Invariant { cycle, rule, .. } => {
                assert_eq!(rule, "otb-accounting");
                assert_eq!(cycle, 0, "phantom credits are visible immediately");
            }
            other => panic!("expected Invariant, got {other}"),
        }
    }

    #[test]
    fn delayed_operand_delivery_wedges_the_consumer() {
        // Pushing an in-flight operand delivery past the wedge
        // threshold starves its consumer forever; in-order retirement
        // then blocks the whole machine on it.
        let p = pingpong_program(20);
        let mut cfg = ProcessorConfig::dual_cluster_8way();
        cfg.wedge_threshold = 64;
        cfg.faults = vec![FaultInjection::DelayOperandDelivery { cycle: 0, delay: 1 << 40 }];
        let err = Processor::new(cfg).run_program(&p).unwrap_err();
        assert!(matches!(err, SimError::Wedged { .. }), "got {err}");
    }

    #[test]
    fn leaked_phys_reg_trips_the_accounting_checker() {
        let p = pingpong_program(20);
        let mut cfg = ProcessorConfig::dual_cluster_8way().with_check_level(CheckLevel::Cycle);
        cfg.faults = vec![FaultInjection::LeakPhysReg { cycle: 0 }];
        let err = Processor::new(cfg).run_program(&p).unwrap_err();
        match err {
            SimError::Invariant { rule, .. } => assert_eq!(rule, "phys-reg-accounting"),
            other => panic!("expected Invariant, got {other}"),
        }
    }

    #[test]
    fn stalled_retirement_wedges() {
        let p = chain_program(30);
        let mut cfg = ProcessorConfig::single_cluster_8way();
        cfg.wedge_threshold = 64;
        cfg.faults = vec![FaultInjection::StallRetire { cycle: 0 }];
        let err = Processor::new(cfg).run_program(&p).unwrap_err();
        assert!(matches!(err, SimError::Wedged { .. }), "got {err}");
    }

    #[test]
    fn hard_watchdog_cancels_with_a_structured_timeout() {
        // A deadline of "now" is already exceeded by the first poll
        // (every 4096 steps), so a long dependent chain must cancel.
        let p = chain_program(6000);
        let _armed = crate::watchdog::arm(Some(std::time::Instant::now()));
        let err = Processor::new(ProcessorConfig::single_cluster_8way())
            .run_program(&p)
            .unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }), "got {err}");
    }

    #[test]
    fn hard_watchdog_with_headroom_does_not_fire() {
        let p = chain_program(6000);
        let baseline = run(ProcessorConfig::single_cluster_8way(), &p);
        let _armed = crate::watchdog::arm_for(std::time::Duration::from_secs(3600));
        let timed = run(ProcessorConfig::single_cluster_8way(), &p);
        assert_eq!(timed.stats, baseline.stats, "an unhit deadline must not perturb the run");
    }

    #[test]
    fn checker_does_not_perturb_clean_runs() {
        // Buffers of one entry force replay exceptions through the
        // checker; the stats must match the unchecked run exactly.
        let p = pingpong_program(50);
        for mut cfg in [ProcessorConfig::dual_cluster_8way(), {
            let mut tiny = ProcessorConfig::dual_cluster_8way();
            tiny.operand_buffer = 1;
            tiny.result_buffer = 1;
            tiny
        }] {
            cfg.check_level = CheckLevel::Off;
            let baseline = run(cfg.clone(), &p);
            for level in [CheckLevel::Retire, CheckLevel::Cycle] {
                let checked = run(cfg.clone().with_check_level(level), &p);
                assert_eq!(checked.stats, baseline.stats, "level {level:?} diverged");
            }
        }
    }

    #[test]
    fn recurring_deadlock_at_same_base_escalates_and_still_retires() {
        // Four independent instructions; fake a second transfer-buffer
        // deadlock at an unchanged window base (the first replay's base
        // is recorded in `last_replay_base`). The recovery must take the
        // escalated full squash — keeping only the oldest instruction —
        // and the run must still retire everything.
        let mut b = ProgramBuilder::<ArchReg>::new("escalate");
        for i in 0..4i64 {
            b.lda(ArchReg::int(2 + 2 * u8::try_from(i).unwrap()), i);
        }
        let p = b.finish().unwrap();
        let (trace, _) = trace_program(&p).unwrap();
        let cfg = ProcessorConfig::dual_cluster_8way();
        let (mut probe, mut prof) = (NullProbe, NullHostProf);
        let mut sim = Sim::new(&cfg, trace.as_slice(), &mut probe, &mut prof);
        let mut dispatched = 0;
        for _ in 0..100 {
            dispatched += sim.dispatch();
            if dispatched == 4 {
                break;
            }
            sim.now += 1;
        }
        assert_eq!(dispatched, 4);

        // A younger instruction holds a buffer entry, and the previous
        // replay happened at this very base: the non-escalated victim
        // choice (youngest holder) would deadlock again.
        sim.otb_free[0] -= 1;
        sim.window[2].otb_held = true;
        sim.last_replay_base = Some(sim.base);
        sim.blocked_on_buffer = true;
        sim.no_progress_cycles = 1;
        sim.check_progress(0).unwrap();

        assert_eq!(sim.stats.replays, 1);
        assert_eq!(sim.stats.replay_escalations, 1, "same-base recurrence escalates");
        assert_eq!(sim.window.len(), 1, "full squash keeps only the oldest instruction");
        assert_eq!(sim.otb_free[0], cfg.operand_buffer, "squash returned the held entry");

        let result = sim.run().expect("escalated recovery completes the run");
        assert_eq!(result.stats.retired, 4, "everything retires after re-dispatch");
        assert_eq!(result.stats.replay_escalations, 1);
    }

    #[test]
    fn completion_liveness_detects_a_cleared_event_heap() {
        // Multiplies take several cycles, so a scheduled completion is
        // observably in the future at end-of-cycle.
        let mut b = ProgramBuilder::<ArchReg>::new("mul-chain");
        let r = ArchReg::int(2);
        b.lda(r, 3);
        for _ in 0..10 {
            b.mulq_imm(r, r, 3);
        }
        let p = b.finish().unwrap();
        let (trace, _) = trace_program(&p).unwrap();
        let cfg = ProcessorConfig::single_cluster_8way();
        let (mut probe, mut prof) = (NullProbe, NullHostProf);
        let mut sim = Sim::new(&cfg, trace.as_slice(), &mut probe, &mut prof);
        for _ in 0..200 {
            sim.step().unwrap();
            if sim.window.iter().any(|d| matches!(d.master_done, Some(t) if t > sim.now)) {
                break;
            }
        }
        assert!(
            sim.window.iter().any(|d| matches!(d.master_done, Some(t) if t > sim.now)),
            "an in-flight completion exists"
        );
        assert!(sim.validate_invariants(&[0, 0]).is_ok(), "live state validates");

        sim.completions.clear();
        let err = sim.validate_invariants(&[0, 0]).unwrap_err();
        match err {
            SimError::Invariant { rule, .. } => assert_eq!(rule, "completion-liveness"),
            other => panic!("expected Invariant, got {other}"),
        }
    }

    #[test]
    fn replay_drains_window_and_filters_pending_predictor_updates() {
        // Four independent instructions on cluster 0, all dispatched in
        // one group; squashing from seq 2 must drain exactly the two
        // younger entries and drop their pending predictor updates.
        let mut b = ProgramBuilder::<ArchReg>::new("squash");
        for i in 0..4i64 {
            b.lda(ArchReg::int(2 + 2 * u8::try_from(i).unwrap()), i);
        }
        let p = b.finish().unwrap();
        let (trace, _) = trace_program(&p).unwrap();
        let cfg = ProcessorConfig::dual_cluster_8way();
        let (mut probe, mut prof) = (NullProbe, NullHostProf);
        let mut sim = Sim::new(&cfg, trace.as_slice(), &mut probe, &mut prof);
        // The first fetch group takes a cold icache miss; step cycles
        // until the whole group has dispatched.
        let mut dispatched = 0;
        for _ in 0..100 {
            dispatched += sim.dispatch();
            if dispatched == 4 {
                break;
            }
            sim.now += 1;
        }
        assert_eq!(dispatched, 4);
        assert_eq!(sim.window.len(), 4);

        // Synthetic in-flight predictor updates for seqs 1 and 3 (the
        // real path enqueues these at master issue of a conditional).
        sim.pending_bpred.schedule(9, 1, pack_branch(0x40, true, false));
        sim.pending_bpred.schedule(9, 3, pack_branch(0x44, true, true));

        sim.replay_from(2);
        assert_eq!(sim.window.len(), 2, "seqs 2 and 3 are drained");
        assert_eq!(sim.stats.replay_squashed, 2);
        assert_eq!(sim.cursor, 2, "fetch restarts at the squash point");
        let pending: Vec<u64> = sim.pending_bpred.iter().map(|e| e.key).collect();
        assert_eq!(pending, vec![1], "squashed branch updates are dropped");
    }
}
