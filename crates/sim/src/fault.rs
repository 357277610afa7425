//! Parallel sequential fault simulation, generic over the fault model.
//!
//! The simulator packs the fault-free machine (bit 0) and up to 63
//! faulty machines into each `u64` plane word. A three-valued signal is
//! held as two bit-planes `(ones, zeros)` per net (the `plane` module):
//! bit `b` of `ones` set means machine `b` sees logic 1, bit `b` of
//! `zeros` means logic 0, and neither means `X`. Gate evaluation is
//! plain boolean algebra on the planes, so all machines advance in
//! lock-step through the levelized combinational core, cycle by cycle,
//! each with its own flip-flop state. A fault list is cut into batches
//! of 63 in list order.
//!
//! Faults are injected by forcing plane bits: a stem fault forces the net's
//! planes after its driver is evaluated; a gate-pin fault forces the value
//! seen by a single gate input; a DFF-data fault forces the value loaded
//! into one flip-flop. Stuck-at faults force unconditionally on every
//! cycle; transition-delay faults contribute the same forced effect but
//! gated by an activation condition on the fault-free machine — the site
//! must transition to the slow value between consecutive cycles (launch
//! at `t−1`, capture at `t`), which the per-query good trace answers
//! without any extra state (see `compiled::MaskBuf`).
//!
//! # Queries
//!
//! All one-shot queries go through the single [`FaultSim::query`]
//! builder: pick the sequence (raw via [`Query::sequence`] or a
//! [`PreparedSequence`] via [`Query::prepared`]), then call a terminal
//! ([`Query::detection_times`], [`Query::any`], [`Query::observable_lines`], …).
//! Incremental simulation keeps its dedicated [`FaultSim::begin`] /
//! [`FaultSim::advance`] / [`FaultSim::sample_detects`] surface.
//!
//! # Kernels
//!
//! Two kernels implement the machine model (see the `compiled` module):
//!
//! * the **compiled kernel** (default) lowers the circuit into CSR
//!   arrays once per simulator, simulates the fault-free machine once
//!   per query into a shared good-value trace, and then evaluates per
//!   cycle only the gates whose operands differ from that trace on a
//!   live machine bit (the dirty set) — injections come from flat
//!   schedules merged into topological order, so the hot loop does no
//!   hashing at all;
//! * the **reference kernel** ([`SimOptions::reference_kernel`]) is the
//!   historic full-circuit walk, kept as a differential-testing oracle.
//!
//! Both kernels produce identical detection results; their flip-flop
//! planes agree on every live machine bit (dropped bits may diverge —
//! the compiled kernel stops maintaining them).
//!
//! # Retirement on periodic sequences
//!
//! Every one-shot query knows its sequence's input period `P`
//! ([`TestSequence::period`]; a weighted `T_G` always has one). At
//! every multiple `u = kP` the compiled kernel compares each live
//! machine's flip-flop state with the one it had at `u − P`. Once the
//! fault-free state has also repeated, a machine whose state repeated
//! is *retired*: it leaves the live set without a detection and is
//! counted in the deterministic `sim.faults_retired` counter.
//!
//! This is exact. From cycle `u` on, the inputs repeat those from
//! `u − P`, and both the faulty and the fault-free machine enter `u` in
//! the state they had at `u − P`, so by determinism every later cycle
//! repeats one `P` cycles earlier, outputs included. The machine was
//! live through `[u − P, u)`, so nothing in that window detected it,
//! and nothing after it ever will. A transition-delay machine's launch
//! also reads the fault-free net values of the previous cycle, so it
//! retires only once the fault-free state at `u − 1` has repeated too.
//! The decision depends on the machine and the query alone, so
//! detections, detection times and `sim.fault_cycles` stay invariant
//! across thread counts. The fault-free sweep stops
//! recording a sequence at the same kind of repeat, and later reads map
//! back by whole periods. [`FaultSim::advance`] and
//! [`FaultSim::sample_detects`] continue from carried states with rows
//! the period does not cover, and the reference kernel is the
//! full-length oracle: none of them retires.
//!
//! # Threading model
//!
//! Fault batches are mutually independent — they share nothing but the
//! (read-only) circuit, good trace, and input sequence — so every public
//! entry point fans its batches out through the shared worker pool
//! ([`crate::pool`]), with one scratch buffer per participating thread
//! and the flip-flop planes owned per batch. Per-fault results are
//! written to disjoint indices and merged in batch order after the
//! fan-out, so all outputs are bit-identical to the single-threaded path
//! regardless of scheduling. The boolean early-exit queries
//! ([`Query::any`], [`FaultSim::sample_detects`]) coordinate through an
//! `AtomicBool`: the first worker to find a detection cancels the rest.
//! Thread count is controlled by [`SimOptions::threads`] (default: all
//! available cores).

use crate::compiled::{
    self, BatchStats, CompiledCircuit, CycleCtx, GoodTrace, Scratch, SWEEP_LANES,
};
use crate::error::SimError;
use crate::logic::Logic3;
use crate::plane::{Planes, FAULTS_PER_BATCH};
use crate::pool;
use crate::run::RunOptions;
use crate::runctl::CancelToken;
use crate::sequence::TestSequence;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wbist_netlist::{Circuit, Fault, FaultList, FaultModel, NetId};
use wbist_telemetry::Telemetry;

/// Simulation tuning knobs, shared by every [`FaultSim`] entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimOptions {
    /// Worker threads for batch-level parallelism. `None` uses every
    /// available core; `Some(1)` forces the single-threaded path. The
    /// count is always capped by the number of fault batches.
    pub threads: Option<usize>,
    /// Run the historic full-circuit-walk kernel instead of the
    /// compiled cone-restricted one. Slower by design; kept as the
    /// differential-testing oracle (detection results are identical).
    pub reference_kernel: bool,
}

impl SimOptions {
    /// Options pinned to a fixed worker count.
    pub fn with_threads(threads: usize) -> SimOptions {
        SimOptions {
            threads: Some(threads),
            ..SimOptions::default()
        }
    }

    /// Selects the kernel (builder style): `true` runs the reference
    /// full-walk kernel, `false` the compiled kernel.
    pub fn reference_kernel(mut self, on: bool) -> SimOptions {
        self.reference_kernel = on;
        self
    }
}

/// A sequence prepared for evaluation: its good-machine trace, built
/// by [`FaultSim::prepare_sequences`] in one lane of a shared sweep.
/// Feed it to queries through [`Query::prepared`]; every terminal reuses
/// the trace, so a screen-then-dense pair pays for one good simulation
/// instead of two. The trace depends on the sequence alone, so a
/// prepared sequence stays valid whatever the fault list does in the
/// meantime.
///
/// Preparation also finds the sequence's input period
/// ([`TestSequence::period`]). The trace then stops once the fault-free
/// state repeats at that period, and the one-shot queries retire every
/// faulty machine whose own state repeats (see the `compiled` module).
#[derive(Debug)]
pub struct PreparedSequence {
    seq: TestSequence,
    period: Option<usize>,
    trace: GoodTrace,
}

impl PreparedSequence {
    /// The prepared sequence itself.
    pub fn sequence(&self) -> &TestSequence {
        &self.seq
    }

    /// The fault-free value of `net` at cycle `u`, read through the
    /// trace's period mapping; for differential tests. Not part of the
    /// public API.
    #[doc(hidden)]
    pub fn debug_good_value(&self, u: usize, net: NetId) -> Logic3 {
        assert!(u < self.trace.len(), "cycle {u} past the sequence");
        self.trace.value(self.trace.row(u), net.index())
    }

    /// The cycles the fault-free sweep recorded: the sequence length,
    /// or fewer when the state repeated at the period first.
    pub fn recorded_rows(&self) -> usize {
        self.trace.rows()
    }
}

/// One batch of up to 63 faults sharing a simulation word:
/// the immutable [`BatchPlan`] behind an `Arc`, so cloning a
/// [`FaultSimState`] copies only the live mask, never the schedule.
#[derive(Debug, Clone)]
struct Batch {
    plan: Arc<BatchPlan>,
    /// Mask of bits that carry live (not yet detected) faults.
    live: u64,
}

/// The part of a [`Batch`] fixed at build time.
#[derive(Debug)]
struct BatchPlan {
    /// Global fault indices; fault `k` of the batch occupies bit `k + 1`.
    fault_indices: Vec<usize>,
    /// The batch's injections, flattened into topo-sorted arrays.
    sched: compiled::Schedule,
}

impl Batch {
    fn build(circuit: &Circuit, cc: &CompiledCircuit, faults: &[(usize, Fault)]) -> Batch {
        debug_assert!(faults.len() <= FAULTS_PER_BATCH);
        let plan = BatchPlan {
            fault_indices: faults.iter().map(|&(i, _)| i).collect(),
            sched: compiled::Schedule::build(circuit, cc, faults),
        };
        Batch {
            plan: Arc::new(plan),
            live: ((1u64 << faults.len()) - 1) << 1,
        }
    }
}

/// Where `FaultSim::make_batches` puts the fault at index `global` of
/// its list: batch `global / 63`, bit `global % 63 + 1`.
fn slot_of(global: usize) -> (usize, u64) {
    (
        global / FAULTS_PER_BATCH,
        1u64 << (global % FAULTS_PER_BATCH + 1),
    )
}

/// Per-batch flip-flop state, retained between [`FaultSim::advance`] calls.
///
/// Create with [`FaultSim::begin`]; all machines start in the all-`X`
/// state. The state is tied to the fault list it was created from.
#[derive(Debug, Clone)]
pub struct FaultSimState {
    batches: Vec<Batch>,
    /// Flip-flop planes per batch.
    ff: Vec<Vec<Planes>>,
    /// Scalar fault-free flip-flop state, advanced alongside the
    /// batches; the compiled kernel seeds each query's good trace from
    /// it.
    good_ff: Vec<Logic3>,
    /// Detected flags, indexed like the originating fault list.
    detected: Vec<bool>,
    /// Time units consumed so far (for absolute detection times).
    elapsed: usize,
    /// Fault-free net values at the end of the last [`FaultSim::advance`]
    /// segment — the launch half of a transition-delay activation at the
    /// next segment's first cycle. `None` when the fault list carries no
    /// transition faults (and before the first cycle: the all-`X` start
    /// never launches).
    prev_nets: Option<Vec<Logic3>>,
}

impl FaultSimState {
    /// Detected flags, indexed like the fault list passed to
    /// [`FaultSim::begin`].
    pub fn detected(&self) -> &[bool] {
        &self.detected
    }

    /// Number of detected faults so far.
    pub fn num_detected(&self) -> usize {
        self.detected.iter().filter(|&&d| d).count()
    }

    /// Time units simulated so far.
    pub fn elapsed(&self) -> usize {
        self.elapsed
    }

    /// Heap bytes a clone of this state owns: the live masks, flip-flop
    /// planes, fault-free flip-flop state, detected flags and
    /// transition-delay launch state. The batches' fault indices and
    /// injection schedules are shared between clones and not counted.
    pub fn clone_bytes(&self) -> usize {
        use std::mem::size_of;
        let nets = self.prev_nets.as_ref().map_or(0, Vec::len);
        let planes: usize = self.ff.iter().map(Vec::len).sum();
        self.batches.len() * (size_of::<Batch>() + size_of::<Vec<Planes>>())
            + planes * size_of::<Planes>()
            + (self.good_ff.len() + nets) * size_of::<Logic3>()
            + self.detected.len() * size_of::<bool>()
    }

    /// Number of machines still live: neither detected nor retired.
    pub fn num_live(&self) -> usize {
        self.batches
            .iter()
            .map(|b| b.live.count_ones() as usize)
            .sum()
    }

    /// Retires the machines whose future `base` already decides, and
    /// returns their fault indices, ascending.
    ///
    /// `self` and `base` are two runs of one fault list that receive the
    /// same rows from here on. When their fault-free states match — the
    /// flip-flops, and for transition faults also the fault-free net
    /// values of the last cycle, which a launch reads — a machine live
    /// in both whose flip-flop state is the same in both has, by
    /// determinism, the same future in both: `self` detects it later
    /// iff `base` does. Such machines leave `self`'s live set without a
    /// detection. Then `base` drops every machine no longer live in
    /// `self`, so it only carries machines a later call can still
    /// resolve.
    ///
    /// # Panics
    ///
    /// Panics if the two states were not begun from one
    /// [`FaultSim::begin`] call (they must share its batch plans).
    pub fn retire_converged(&mut self, base: &mut FaultSimState) -> Vec<usize> {
        assert!(
            self.batches.len() == base.batches.len()
                && self
                    .batches
                    .iter()
                    .zip(&base.batches)
                    .all(|(a, b)| Arc::ptr_eq(&a.plan, &b.plan)),
            "retire_converged needs two states of one FaultSim::begin call"
        );
        let mut resolved = Vec::new();
        let converged = self.good_ff == base.good_ff && self.prev_nets == base.prev_nets;
        for (bi, (a, b)) in self.batches.iter_mut().zip(&mut base.batches).enumerate() {
            let both = a.live & b.live;
            if converged && both != 0 {
                let differ = self.ff[bi]
                    .iter()
                    .zip(&base.ff[bi])
                    .fold(0, |m, (p, q)| m | (p.ones ^ q.ones) | (p.zeros ^ q.zeros));
                let same = both & !differ;
                collect_hits(&a.plan.fault_indices, same, |gi| resolved.push(gi));
                a.live &= !same;
            }
            b.live &= a.live;
        }
        resolved
    }

    /// Raw per-batch flip-flop planes for differential tests: one entry
    /// per batch of `(live-or-good mask, per-DFF (ones, zeros))`. Planes
    /// are only meaningful on the masked bits — the compiled kernel
    /// stops maintaining dropped machines. Not part of the public API.
    #[doc(hidden)]
    pub fn debug_ff_planes(&self) -> Vec<(u64, Vec<(u64, u64)>)> {
        self.batches
            .iter()
            .zip(&self.ff)
            .map(|(b, ff)| (b.live | 1, ff.iter().map(|p| (p.ones, p.zeros)).collect()))
            .collect()
    }

    /// The per-DFF three-valued state of one fault's machine, or `None`
    /// once the fault has dropped (its planes go stale). Independent of
    /// the batch layout, so differential tests can compare machines
    /// across states built from different runs. Not part of the public
    /// API.
    #[doc(hidden)]
    pub fn debug_fault_ff(&self, global: usize) -> Option<Vec<Logic3>> {
        let (bi, bit) = slot_of(global);
        if self.batches.get(bi)?.live & bit == 0 {
            return None;
        }
        let ff = &self.ff[bi];
        Some(
            ff.iter()
                .map(|p| {
                    if p.ones & bit != 0 {
                        Logic3::One
                    } else if p.zeros & bit != 0 {
                        Logic3::Zero
                    } else {
                        Logic3::X
                    }
                })
                .collect(),
        )
    }
}

/// A shared, pre-lowered circuit: the one-time `CompiledCircuit`
/// lowering behind an `Arc`, decoupled from any particular [`FaultSim`]
/// instance or circuit borrow.
///
/// Lowering a large circuit into the compiled kernel's CSR arrays is the
/// expensive part of constructing a simulator; a long-running service
/// that fields many jobs against the same circuit should pay it once.
/// Build a handle with [`CompiledHandle::lower`] (or grab one from an
/// existing simulator via [`FaultSim::compiled_handle`]), put it in
/// [`RunOptions::compiled`], and every
/// [`FaultSim::with_run_options`] constructor for that circuit reuses
/// the shared lowering — an `Arc` bump instead of a rebuild.
///
/// The handle remembers a structural fingerprint of the circuit it was
/// lowered from; offering it to a *different* circuit falls back to a
/// fresh lowering instead of simulating garbage, so a stale handle can
/// degrade performance but never correctness.
#[derive(Debug, Clone)]
pub struct CompiledHandle {
    compiled: Arc<CompiledCircuit>,
    fingerprint: u64,
}

impl CompiledHandle {
    /// Lowers `circuit` once, returning a handle that can be shared
    /// across threads and simulators.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub fn lower(circuit: &Circuit) -> CompiledHandle {
        assert!(circuit.is_levelized(), "circuit must be levelized");
        CompiledHandle {
            compiled: Arc::new(CompiledCircuit::build(circuit)),
            fingerprint: circuit_fingerprint(circuit),
        }
    }

    /// Whether this handle was lowered from a circuit structurally
    /// identical (by fingerprint) to `circuit`.
    pub fn matches(&self, circuit: &Circuit) -> bool {
        self.fingerprint == circuit_fingerprint(circuit)
    }
}

/// FNV-1a over the cheap structural facts of a circuit. Not a full
/// netlist hash — it guards against *accidental* circuit/handle mixups
/// in a registry, where entries differ in name or shape.
fn circuit_fingerprint(c: &Circuit) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in c.name().bytes() {
        eat(b);
    }
    for v in [
        c.num_nets() as u64,
        c.num_inputs() as u64,
        c.num_outputs() as u64,
        c.num_dffs() as u64,
        c.num_gates() as u64,
    ] {
        for b in v.to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// Parallel-fault sequential stuck-at fault simulator.
///
/// See the [module documentation](self) for the machine model, detection
/// semantics, kernels, and threading model.
#[derive(Debug, Clone)]
pub struct FaultSim<'c> {
    circuit: &'c Circuit,
    compiled: Arc<CompiledCircuit>,
    options: SimOptions,
    telemetry: Telemetry,
    cancel: CancelToken,
}

impl<'c> FaultSim<'c> {
    /// Creates a fault simulator for `circuit` with default options
    /// (compiled kernel, threads: all available cores).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub fn new(circuit: &'c Circuit) -> Self {
        Self::with_options(circuit, SimOptions::default())
    }

    /// Creates a fault simulator with explicit [`SimOptions`].
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub fn with_options(circuit: &'c Circuit, options: SimOptions) -> Self {
        assert!(circuit.is_levelized(), "circuit must be levelized");
        FaultSim {
            circuit,
            compiled: Arc::new(CompiledCircuit::build(circuit)),
            options,
            telemetry: Telemetry::disabled(),
            cancel: CancelToken::unlimited(),
        }
    }

    /// Creates a fault simulator from shared [`RunOptions`]: simulator
    /// tuning, the telemetry handle, and the cancellation token. This is
    /// the constructor the pipeline phases use.
    ///
    /// When [`RunOptions::compiled`] carries a [`CompiledHandle`] whose
    /// fingerprint matches `circuit`, the shared lowering is reused (an
    /// `Arc` bump); a missing or mismatched handle falls back to a fresh
    /// lowering.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub fn with_run_options(circuit: &'c Circuit, run: &RunOptions) -> Self {
        let sim = match &run.compiled {
            Some(h) if h.matches(circuit) => {
                assert!(circuit.is_levelized(), "circuit must be levelized");
                FaultSim {
                    circuit,
                    compiled: Arc::clone(&h.compiled),
                    options: run.sim,
                    telemetry: Telemetry::disabled(),
                    cancel: CancelToken::unlimited(),
                }
            }
            _ => Self::with_options(circuit, run.sim),
        };
        sim.telemetry(run.telemetry.clone())
            .cancel(run.cancel.clone())
    }

    /// A [`CompiledHandle`] sharing this simulator's lowering. See
    /// [`CompiledHandle`] for what it is for.
    pub fn compiled_handle(&self) -> CompiledHandle {
        CompiledHandle {
            compiled: Arc::clone(&self.compiled),
            fingerprint: circuit_fingerprint(self.circuit),
        }
    }

    /// Replaces the telemetry handle (builder style). Every query then
    /// reports `sim.*` counters — cycles simulated, gate evaluations,
    /// faults dropped, batches — through it; see the crate docs of
    /// `wbist-telemetry` for which counters are deterministic.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Replaces the cancellation token (builder style). An armed token
    /// is polled once per simulated cycle per batch: each cycle charges
    /// its live fault-cycles against the budget, and a tripped token
    /// stops every batch at its next cycle boundary — detected flags and
    /// flip-flop planes stay consistent, so truncated queries return a
    /// valid prefix of the full run's results.
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The simulator's options.
    pub fn options(&self) -> SimOptions {
        self.options
    }

    fn check_width(&self, seq: &TestSequence) {
        assert_eq!(
            seq.num_inputs(),
            self.circuit.num_inputs(),
            "{}",
            SimError::InputWidthMismatch {
                circuit: self.circuit.num_inputs(),
                sequence: seq.num_inputs(),
            }
        );
    }

    /// Cuts `faults` into batches in list order: the fault at index `gi`
    /// is bit `gi % 63 + 1` of batch `gi / 63` (`slot_of`), so every
    /// batch but the last is full and finding a fault's machine is
    /// arithmetic, not a search.
    fn make_batches(&self, faults: &FaultList) -> Vec<Batch> {
        let indexed: Vec<(usize, Fault)> = faults.iter().copied().enumerate().collect();
        indexed
            .chunks(FAULTS_PER_BATCH)
            .map(|chunk| Batch::build(self.circuit, &self.compiled, chunk))
            .collect()
    }

    /// The good trace for one query over `seq`, starting from `init_ff`.
    fn good_trace(&self, seq: &TestSequence, init_ff: &[Logic3]) -> (GoodTrace, Vec<Logic3>) {
        self.record_sweep(1);
        self.compiled.good_trace(seq, init_ff)
    }

    /// Dispatches one batch run to `reference` or the compiled kernel.
    /// Both kernels share the sink contract: called after every
    /// evaluated cycle, the sink returns `(drop_bits, stop)`. An armed
    /// cancellation token is polled through the same contract — each
    /// cycle charges its live fault-cycles, and a tripped token turns
    /// into `stop`, ending the batch at a cycle boundary with its state
    /// intact.
    ///
    /// `prev0` holds the fault-free net values entering the sequence —
    /// the launch half of a cycle-0 transition-delay activation; `None`
    /// is the all-`X` start. `period` turns on the compiled kernel's
    /// retirement of machines whose state repeats at the input period;
    /// only runs from the reset state pass it, and the reference kernel
    /// ignores it and simulates every cycle.
    #[allow(clippy::too_many_arguments)]
    fn run_one(
        &self,
        reference: bool,
        sched: &compiled::Schedule,
        live: u64,
        seq: &TestSequence,
        trace: &GoodTrace,
        prev0: Option<&[Logic3]>,
        period: Option<usize>,
        ff: &mut [Planes],
        scratch: &mut Scratch,
        mut sink: impl FnMut(usize, &CycleCtx) -> (u64, bool),
    ) -> (u64, BatchStats) {
        let cancel = &self.cancel;
        let armed = cancel.is_armed();
        let mut sink = |u: usize, ctx: &CycleCtx| {
            if armed {
                cancel.charge_fault_cycles(ctx.live.count_ones() as u64);
            }
            let (drop, mut stop) = sink(u, ctx);
            if armed && cancel.cancelled().is_some() {
                stop = true;
            }
            (drop, stop)
        };
        if reference {
            compiled::run_batch_reference(
                &self.compiled,
                sched,
                live,
                seq,
                trace,
                prev0,
                ff,
                scratch,
                &mut sink,
            )
        } else {
            wbist_telemetry::failpoint::panic_if_armed("sim.batch_kernel");
            compiled::run_batch(
                &self.compiled,
                sched,
                live,
                seq,
                trace,
                prev0,
                period,
                ff,
                scratch,
                &mut sink,
            )
        }
    }

    /// Runs one batch's work with panic isolation: `attempt` is called
    /// with the configured kernel choice; if it panics, the panic is
    /// caught, `sim.batch_panics` is recorded, the (possibly mid-cycle)
    /// scratch is rebuilt, and the batch is retried once on the
    /// reference kernel. A `sim.batch_retried` event names the batch;
    /// with several panics on several workers the events' order follows
    /// scheduling, which only failure drills ever see. `attempt` must
    /// own all its side effects — results only escape through its
    /// return value — so a panicked attempt leaves no partial state
    /// behind.
    ///
    /// A second panic (or a panic when the reference kernel was already
    /// the primary) re-raises as a [`SimError::BatchPanicked`]-formatted
    /// panic: at that point both kernels are broken and there is nothing
    /// safer left to run.
    fn run_isolated<R>(
        &self,
        batch_index: usize,
        scratch: &mut Scratch,
        attempt: impl Fn(bool, &mut Scratch) -> R,
    ) -> R {
        let reference = self.options.reference_kernel;
        match catch_unwind(AssertUnwindSafe(|| attempt(reference, &mut *scratch))) {
            Ok(r) => r,
            Err(payload) => {
                *scratch = Scratch::new(&self.compiled);
                self.telemetry.add("sim.batch_panics", 1);
                let err = SimError::BatchPanicked {
                    batch: batch_index,
                    payload: panic_message(&payload),
                };
                if reference {
                    panic!("{err}; no fallback kernel left");
                }
                self.telemetry
                    .event("sim.batch_retried", &[("batch", batch_index as u64)]);
                match catch_unwind(AssertUnwindSafe(|| attempt(true, &mut *scratch))) {
                    Ok(r) => r,
                    Err(retry) => panic!(
                        "{err}; reference-kernel retry also panicked: {}",
                        panic_message(&retry)
                    ),
                }
            }
        }
    }

    /// The worker count for `jobs` independent jobs.
    fn thread_count(&self, jobs: usize) -> usize {
        let hw = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        self.options
            .threads
            .unwrap_or_else(hw)
            .clamp(1, jobs.max(1))
    }

    /// Runs `work` over every item through the shared worker pool
    /// ([`crate::pool`]): the calling thread and up to `threads − 1`
    /// pool workers self-schedule items, each lazily building one
    /// [`Scratch`] it reuses for every item it claims. Results are
    /// returned in item order, so callers observe a deterministic merge
    /// no matter how the items were scheduled; the dispatch figures land
    /// in the effort-space `pool.tasks` / `pool.steals` counters.
    fn scatter<I, R, F>(&self, items: Vec<I>, work: F) -> Vec<R>
    where
        I: Send,
        R: Send,
        F: Fn(I, &mut Scratch) -> R + Sync,
    {
        let threads = self.thread_count(items.len());
        let (results, stats) = pool::scatter(threads, items, || Scratch::new(&self.compiled), work);
        if self.telemetry.is_enabled() {
            self.telemetry.add_effort("pool.tasks", stats.tasks);
            self.telemetry.add_effort("pool.steals", stats.stolen);
        }
        results
    }

    /// Starts an incremental simulation of `faults` from the all-`X`
    /// state.
    pub fn begin(&self, faults: &FaultList) -> FaultSimState {
        let batches = self.make_batches(faults);
        let ff = batches
            .iter()
            .map(|_| vec![Planes::ALL_X; self.circuit.num_dffs()])
            .collect();
        FaultSimState {
            batches,
            ff,
            good_ff: vec![Logic3::X; self.circuit.num_dffs()],
            detected: vec![false; faults.len()],
            elapsed: 0,
            prev_nets: faults
                .has_model(FaultModel::TransitionDelay)
                .then(|| vec![Logic3::X; self.circuit.num_nets()]),
        }
    }

    /// Applies `seq` on top of `state`, updating flip-flop planes and the
    /// detected flags. Returns the number of newly detected faults.
    ///
    /// Batches whose faults are all detected are skipped entirely (fault
    /// dropping), and the compiled kernel further shrinks each surviving
    /// batch's active cone as its faults drop.
    ///
    /// # Panics
    ///
    /// Panics if the sequence width does not match the circuit.
    pub fn advance(&self, state: &mut FaultSimState, seq: &TestSequence) -> usize {
        self.check_width(seq);
        let (trace, next_good) = self.good_trace(seq, &state.good_ff);
        let trace = &trace;
        let prev0 = state.prev_nets.as_deref();
        type AdvanceJob<'a> = (usize, &'a mut Batch, &'a mut Vec<Planes>);
        let jobs: Vec<AdvanceJob<'_>> = state
            .batches
            .iter_mut()
            .zip(state.ff.iter_mut())
            .enumerate()
            .filter(|(_, (batch, _))| batch.live != 0)
            .map(|(bi, (batch, ff))| (bi, batch, ff))
            .collect();
        let n_jobs = jobs.len();
        let hits: Vec<(Vec<usize>, BatchStats)> = self.scatter(jobs, |(bi, batch, ff), scratch| {
            // The attempt owns its accumulators and works on a copy of
            // the flip-flop planes, so a panicked try leaves no partial
            // state for the reference-kernel retry to trip over.
            let (found, new_live, new_ff, stats) =
                self.run_isolated(bi, scratch, |reference, scratch| {
                    let mut found = Vec::new();
                    let mut ff_run = ff.clone();
                    let (new_live, stats) = self.run_one(
                        reference,
                        &batch.plan.sched,
                        batch.live,
                        seq,
                        trace,
                        prev0,
                        None,
                        &mut ff_run,
                        scratch,
                        |_, ctx: &CycleCtx| {
                            let detected_now = ctx.obs_diff & ctx.live;
                            if detected_now != 0 {
                                collect_hits(&batch.plan.fault_indices, detected_now, |gi| {
                                    found.push(gi)
                                });
                            }
                            (detected_now, false)
                        },
                    );
                    (found, new_live, ff_run, stats)
                });
            batch.live = new_live;
            *ff = new_ff;
            (found, stats)
        });
        let mut newly = 0;
        let mut stats = BatchStats::default();
        let mut dropped = 0usize;
        for (batch_hits, batch_stats) in hits {
            stats.merge(batch_stats);
            dropped += batch_hits.len();
            for gi in batch_hits {
                if !state.detected[gi] {
                    state.detected[gi] = true;
                    newly += 1;
                }
            }
        }
        self.record_run(n_jobs, stats, dropped);
        state.good_ff = next_good;
        if !seq.is_empty() {
            if let Some(prev) = state.prev_nets.as_mut() {
                for (n, v) in prev.iter_mut().enumerate() {
                    *v = trace.value(seq.len() - 1, n);
                }
            }
        }
        state.elapsed += seq.len();
        newly
    }

    /// Opens a query over `faults`: the single entry point for every
    /// one-shot simulation question. Pick the sequence with
    /// [`Query::sequence`] (raw, good trace computed on the spot) or
    /// [`Query::prepared`] (trace reused from a [`PreparedSequence`]),
    /// then call a terminal.
    ///
    /// ```
    /// # use wbist_netlist::{bench_format, FaultList};
    /// # use wbist_sim::{FaultSim, TestSequence};
    /// # let c = bench_format::parse("t", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
    /// let faults = FaultList::collapsed(&c);
    /// let seq = TestSequence::parse_rows(&["0", "1"]).unwrap();
    /// let times = FaultSim::new(&c).query(&faults).sequence(&seq).detection_times();
    /// # assert_eq!(times.len(), faults.len());
    /// ```
    pub fn query<'q>(&'q self, faults: &'q FaultList) -> Query<'q, 'c> {
        Query {
            sim: self,
            faults,
            seq: None,
            prep: None,
        }
    }

    /// Dense detection engine behind every [`Query`] terminal that needs
    /// per-fault results: runs every batch from cycle 0 to the end of
    /// the sequence (with fault dropping), returning the first
    /// detection time per fault.
    fn run_dense(
        &self,
        faults: &FaultList,
        seq: &TestSequence,
        period: Option<usize>,
        trace: &GoodTrace,
    ) -> Vec<Option<usize>> {
        let num_dffs = self.circuit.num_dffs();
        let batches = self.make_batches(faults);
        let n_jobs = batches.len();
        let jobs: Vec<(usize, Batch)> = batches.into_iter().enumerate().collect();
        let per_batch: Vec<(Vec<(usize, usize)>, BatchStats)> =
            self.scatter(jobs, |(bi, batch), scratch| {
                self.run_isolated(bi, scratch, |reference, scratch| {
                    let mut found: Vec<(usize, usize)> = Vec::new();
                    let mut ff = vec![Planes::ALL_X; num_dffs];
                    let (_, stats) = self.run_one(
                        reference,
                        &batch.plan.sched,
                        batch.live,
                        seq,
                        trace,
                        None,
                        period,
                        &mut ff,
                        scratch,
                        |u, ctx: &CycleCtx| {
                            let detected_now = ctx.obs_diff & ctx.live;
                            if detected_now != 0 {
                                collect_hits(&batch.plan.fault_indices, detected_now, |gi| {
                                    found.push((gi, u))
                                });
                            }
                            (detected_now, false)
                        },
                    );
                    (found, stats)
                })
            });
        let mut times = vec![None; faults.len()];
        let mut stats = BatchStats::default();
        let mut dropped = 0usize;
        for (found, bstats) in per_batch {
            stats.merge(bstats);
            dropped += found.len();
            for (gi, u) in found {
                times[gi] = Some(u);
            }
        }
        self.record_run(n_jobs, stats, dropped);
        times
    }

    /// Early-exit screening engine behind [`Query::any`]: stops the
    /// moment any machine differs on an observed net, with worker
    /// threads coordinating through a shared flag.
    fn run_screen(
        &self,
        faults: &FaultList,
        seq: &TestSequence,
        period: Option<usize>,
        trace: &GoodTrace,
    ) -> bool {
        let num_dffs = self.circuit.num_dffs();
        let batches = self.make_batches(faults);
        let jobs: Vec<(usize, Batch)> = batches.into_iter().enumerate().collect();
        let found = AtomicBool::new(false);
        let hits: Vec<(bool, usize, usize)> = self.scatter(jobs, |(bi, batch), scratch| {
            if found.load(Ordering::Relaxed) {
                return (false, 0, 1);
            }
            self.run_isolated(bi, scratch, |reference, scratch| {
                let mut ff = vec![Planes::ALL_X; num_dffs];
                let mut hit = false;
                let mut cancelled = 0usize;
                let (_, stats) = self.run_one(
                    reference,
                    &batch.plan.sched,
                    batch.live,
                    seq,
                    trace,
                    None,
                    period,
                    &mut ff,
                    scratch,
                    |_, ctx: &CycleCtx| {
                        if found.load(Ordering::Relaxed) {
                            cancelled = 1;
                            return (0, true);
                        }
                        if (ctx.obs_diff & ctx.live) != 0 {
                            hit = true;
                            found.store(true, Ordering::Relaxed);
                            return (0, true);
                        }
                        (0, false)
                    },
                );
                (hit, stats.cycles, cancelled)
            })
        });
        self.record_screen(&hits);
        hits.into_iter().any(|(h, _, _)| h)
    }

    /// Builds the good-machine traces of `seqs` for later queries
    /// ([`Query::prepared`]), [`SWEEP_LANES`] sequences per topological
    /// sweep: a sweep evaluates each gate once per cycle for every sequence it
    /// carries, so preparing the sequences a caller already knows it
    /// will query together costs little more than one sweep instead of
    /// one sweep per sequence. Each sweep is reported as the effort
    /// counters `sim.good_sweeps` (+1) and `sim.good_lanes` (+ its
    /// sequences), like every other trace the simulator builds.
    ///
    /// # Panics
    ///
    /// Panics if a sequence width does not match the circuit.
    pub fn prepare_sequences(&self, seqs: &[TestSequence]) -> Vec<PreparedSequence> {
        let mut out = Vec::with_capacity(seqs.len());
        for chunk in seqs.chunks(SWEEP_LANES) {
            let lanes: Vec<(&TestSequence, Option<usize>)> = chunk
                .iter()
                .map(|seq| {
                    self.check_width(seq);
                    (seq, seq.period())
                })
                .collect();
            let traces = self.periodic_traces(&lanes);
            out.extend(lanes.into_iter().zip(traces).map(|((seq, period), trace)| {
                PreparedSequence {
                    seq: seq.clone(),
                    period,
                    trace,
                }
            }));
        }
        out
    }

    /// The traces of one sweep's sequences from the all-`X` start, each
    /// stopping once its state repeats at its period. Under the
    /// reference kernel every trace runs full length, so the oracle
    /// shares none of the early stop.
    fn periodic_traces(&self, lanes: &[(&TestSequence, Option<usize>)]) -> Vec<GoodTrace> {
        self.record_sweep(lanes.len());
        if self.options.reference_kernel {
            let full: Vec<_> = lanes.iter().map(|&(seq, _)| (seq, None)).collect();
            return self.compiled.good_traces(&full);
        }
        self.compiled.good_traces(lanes)
    }

    /// Observability engine behind [`Query::observable_lines`]: for
    /// every fault, the set of nets on which the faulty machine differs
    /// (binary vs. binary) from the fault-free machine at *some* time
    /// unit of `seq` — the paper's observation-point candidate sets
    /// `OP(f)`.
    fn run_lines(
        &self,
        faults: &FaultList,
        seq: &TestSequence,
        period: Option<usize>,
        trace: &GoodTrace,
    ) -> Vec<Vec<NetId>> {
        let num_dffs = self.circuit.num_dffs();
        let num_nets = self.circuit.num_nets();
        let batches = self.make_batches(faults);
        let n_jobs = batches.len();
        let jobs: Vec<(usize, Batch)> = batches.into_iter().enumerate().collect();
        // Per batch: (fault index, observable lines) pairs + stats.
        type BatchLines = (Vec<(usize, Vec<NetId>)>, BatchStats);
        let per_batch: Vec<BatchLines> = self.scatter(jobs, |(bi, batch), scratch| {
            self.run_isolated(bi, scratch, |reference, scratch| {
                let mut ff = vec![Planes::ALL_X; num_dffs];
                // Accumulated difference mask per net. Only dirty nets
                // can differ from the good machine, so the sink visits
                // just those.
                let mut acc = vec![0; num_nets];
                let (_, stats) = self.run_one(
                    reference,
                    &batch.plan.sched,
                    batch.live,
                    seq,
                    trace,
                    None,
                    period,
                    &mut ff,
                    scratch,
                    |_, ctx: &CycleCtx| {
                        // A retired machine's planes go stale, but every
                        // line it can still show was shown in the period
                        // before its retirement.
                        for &n in ctx.dirty_nets {
                            acc[n as usize] |= ctx.nets[n as usize].diff_from_good() & ctx.live;
                        }
                        (0, false)
                    },
                );
                let lines = batch
                    .plan
                    .fault_indices
                    .iter()
                    .enumerate()
                    .map(|(k, &gi)| {
                        let bit = 1u64 << (k + 1);
                        let lines = acc
                            .iter()
                            .enumerate()
                            .filter(|&(_, &mask)| (mask & bit) != 0)
                            .map(|(n, _)| NetId::from_index(n))
                            .collect();
                        (gi, lines)
                    })
                    .collect();
                (lines, stats)
            })
        });
        let mut result = vec![Vec::new(); faults.len()];
        let mut stats = BatchStats::default();
        for (batch_lines, batch_stats) in per_batch {
            stats.merge(batch_stats);
            for (gi, lines) in batch_lines {
                result[gi] = lines;
            }
        }
        self.record_run(n_jobs, stats, 0);
        result
    }

    /// Resumes `state` but only checks whether any *specific* fault listed
    /// in `sample` (by its index in the originating fault list) is
    /// detected by `seq`; flip-flop planes are cloned so `state` is not
    /// modified. Used for the paper's sample-first simulation shortcut.
    ///
    /// The compiled kernel restricts each batch's cone to the sampled
    /// faults alone, so a handful of sampled faults in a 63-fault batch
    /// touches only their own fanout.
    ///
    /// # Panics
    ///
    /// Panics if the sequence width does not match the circuit.
    pub fn sample_detects(
        &self,
        state: &FaultSimState,
        sample: &[usize],
        seq: &TestSequence,
    ) -> bool {
        self.check_width(seq);
        let (trace, _) = self.good_trace(seq, &state.good_ff);
        let trace = &trace;
        let prev0 = state.prev_nets.as_deref();
        // Only batches carrying a live sampled fault need simulating.
        let mut slots: Vec<(usize, u64)> = sample.iter().map(|&gi| slot_of(gi)).collect();
        slots.sort_unstable_by_key(|&(bi, _)| bi);
        let jobs: Vec<(usize, u64)> = slots
            .chunk_by(|a, b| a.0 == b.0)
            .filter_map(|run| {
                let bi = run[0].0;
                let live = state.batches.get(bi).map_or(0, |b| b.live);
                let wanted = run.iter().fold(0, |m, &(_, bit)| m | bit) & live;
                (wanted != 0).then_some((bi, wanted))
            })
            .collect();
        let found = AtomicBool::new(false);
        let hits: Vec<(bool, usize, usize)> = self.scatter(jobs, |(bi, wanted), scratch| {
            if found.load(Ordering::Relaxed) {
                return (false, 0, 1);
            }
            self.run_isolated(bi, scratch, |reference, scratch| {
                let batch = &state.batches[bi];
                let mut ff = state.ff[bi].clone();
                let mut hit = false;
                let mut cancelled = 0usize;
                let (_, stats) = self.run_one(
                    reference,
                    &batch.plan.sched,
                    wanted,
                    seq,
                    trace,
                    prev0,
                    None,
                    &mut ff,
                    scratch,
                    |_, ctx: &CycleCtx| {
                        if found.load(Ordering::Relaxed) {
                            cancelled = 1;
                            return (0, true);
                        }
                        if (ctx.obs_diff & wanted) != 0 {
                            hit = true;
                            found.store(true, Ordering::Relaxed);
                            return (0, true);
                        }
                        (0, false)
                    },
                );
                (hit, stats.cycles, cancelled)
            })
        });
        self.record_screen(&hits);
        hits.into_iter().any(|(h, _, _)| h)
    }

    /// Reports one full (non-early-exit) query into the telemetry
    /// handle. All figures are deterministic: each batch runs until its
    /// own faults are exhausted or the sequence ends, and its cone
    /// evolution depends only on the (deterministic) drop order — both
    /// independent of thread scheduling.
    fn record_run(&self, batches: usize, stats: BatchStats, dropped: usize) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.add("sim.calls", 1);
        self.telemetry.add("sim.batches", batches as u64);
        self.telemetry.add("sim.cycles", stats.cycles as u64);
        self.telemetry.add("sim.faults_dropped", dropped as u64);
        self.telemetry
            .add("sim.gates_evaluated", stats.gates_evaluated);
        self.telemetry.add("sim.gates_skipped", stats.gates_skipped);
        self.telemetry.add("sim.fault_cycles", stats.fault_cycles);
        self.telemetry.add("sim.faults_retired", stats.retired);
    }

    /// Reports one fault-free sweep carrying `lanes` sequences. Effort:
    /// how sequences are grouped into sweeps is the caller's scheduling
    /// choice, invisible to every result.
    fn record_sweep(&self, lanes: usize) {
        if self.telemetry.is_enabled() {
            self.telemetry.add_effort("sim.good_sweeps", 1);
            self.telemetry.add_effort("sim.good_lanes", lanes as u64);
        }
    }

    /// Reports one early-exit screening query ([`Query::any`] /
    /// [`FaultSim::sample_detects`]). Cycle and cancellation totals
    /// depend on which worker wins the race, so they are recorded as
    /// effort, not as deterministic counters.
    fn record_screen(&self, hits: &[(bool, usize, usize)]) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.add("sim.screen_calls", 1);
        let cycles: usize = hits.iter().map(|&(_, c, _)| c).sum();
        let cancelled: usize = hits.iter().map(|&(_, _, x)| x).sum();
        self.telemetry
            .add_effort("sim.screen_cycles", cycles as u64);
        self.telemetry
            .add_effort("sim.early_exit_cancels", cancelled as u64);
    }
}

/// A single fault-simulation question, built from [`FaultSim::query`].
///
/// Exactly one sequence source must be set before a terminal runs:
///
/// * [`sequence`](Query::sequence) — a raw [`TestSequence`]; the good
///   trace is computed on the spot from the all-`X` start, or
/// * [`prepared`](Query::prepared) — a [`PreparedSequence`] whose good
///   trace was computed up front, so a screen-then-dense pair pays for
///   one good simulation instead of two.
///
/// Terminals consume the builder; every terminal panics if the sequence
/// width does not match the circuit, and each reports exactly one
/// telemetry record (`sim.calls` for the dense and observability
/// terminals, `sim.screen_calls` for [`any`](Query::any)).
#[derive(Clone, Copy)]
#[must_use = "a query does nothing until a terminal method runs it"]
pub struct Query<'q, 'c> {
    sim: &'q FaultSim<'c>,
    faults: &'q FaultList,
    seq: Option<&'q TestSequence>,
    prep: Option<&'q PreparedSequence>,
}

impl<'q, 'c> Query<'q, 'c> {
    /// Evaluates against a raw sequence (good trace computed here).
    /// Clears any previously set [`prepared`](Query::prepared) source.
    pub fn sequence(mut self, seq: &'q TestSequence) -> Self {
        self.seq = Some(seq);
        self.prep = None;
        self
    }

    /// Evaluates against a prepared sequence, reusing its good trace.
    /// Clears any previously set [`sequence`](Query::sequence) source.
    pub fn prepared(mut self, prep: &'q PreparedSequence) -> Self {
        self.prep = Some(prep);
        self.seq = None;
        self
    }

    /// The sequence, its input period and the good trace this query
    /// runs against.
    fn resolve(&self) -> (&'q TestSequence, Option<usize>, Cow<'q, GoodTrace>) {
        match (self.prep, self.seq) {
            (Some(p), _) => (&p.seq, p.period, Cow::Borrowed(&p.trace)),
            (None, Some(s)) => {
                self.sim.check_width(s);
                let period = s.period();
                let mut traces = self.sim.periodic_traces(&[(s, period)]);
                (
                    s,
                    period,
                    Cow::Owned(traces.pop().expect("one lane in, one trace out")),
                )
            }
            (None, None) => {
                panic!("FaultSim query needs a sequence: call .sequence(..) or .prepared(..)")
            }
        }
    }

    /// For every fault, the first time unit at which it is detected (the
    /// paper's `u_det(f)`), or `None` if the sequence does not detect
    /// it.
    pub fn detection_times(self) -> Vec<Option<usize>> {
        let (seq, period, trace) = self.resolve();
        self.sim.run_dense(self.faults, seq, period, &trace)
    }

    /// A detected flag per fault.
    pub fn detected(self) -> Vec<bool> {
        self.detection_times()
            .into_iter()
            .map(|t| t.is_some())
            .collect()
    }

    /// Indices (into the queried fault list, ascending) of the detected
    /// faults.
    ///
    /// Detection of a fault by a sequence does not depend on any other
    /// fault in the list, so the set computed against a frozen fault
    /// list stays valid when it is intersected with a later state: the
    /// selection loop's frozen segment list relies on this.
    pub fn detected_indices(self) -> Vec<usize> {
        self.detection_times()
            .into_iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|_| i))
            .collect()
    }

    /// Number of detected faults.
    pub fn count(self) -> usize {
        self.detection_times()
            .iter()
            .filter(|t| t.is_some())
            .count()
    }

    /// `true` as soon as any fault is detected (early exit). Used for
    /// the paper's sample-first speedup; the first worker thread to find
    /// a detection cancels the others through a shared flag.
    pub fn any(self) -> bool {
        let (seq, period, trace) = self.resolve();
        self.sim.run_screen(self.faults, seq, period, &trace)
    }

    /// Per-fault observation-point candidate sets `OP(f)`: the nets on
    /// which the faulty machine differs (binary vs. binary) from the
    /// fault-free machine at some time unit. A fault would be detected
    /// by observing any of these lines.
    pub fn observable_lines(self) -> Vec<Vec<NetId>> {
        let (seq, period, trace) = self.resolve();
        self.sim.run_lines(self.faults, seq, period, &trace)
    }
}

impl BatchStats {
    /// Accumulates another batch's figures (deterministic merge).
    fn merge(&mut self, other: BatchStats) {
        self.cycles += other.cycles;
        self.gates_evaluated += other.gates_evaluated;
        self.gates_skipped += other.gates_skipped;
        self.fault_cycles += other.fault_cycles;
        self.retired += other.retired;
    }
}

/// Renders a caught panic payload to text (panics carry `&str` or
/// `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Reports every set bit of `detected_now` as its global fault index.
#[inline]
fn collect_hits(fault_indices: &[usize], detected_now: u64, mut report: impl FnMut(usize)) {
    for (k, &gi) in fault_indices.iter().enumerate() {
        if detected_now >> (k + 1) & 1 != 0 {
            report(gi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::good::LogicSim;
    use crate::logic::Logic3;
    use wbist_netlist::{bench_format, FaultSite, FaultUniverse};

    fn toy() -> Circuit {
        bench_format::parse(
            "toy",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(g)\ng = NAND(a, q)\ny = XOR(g, b)\n",
        )
        .unwrap()
    }

    #[test]
    fn shared_lowering_is_reused_and_bit_identical() {
        let c = toy();
        let faults = FaultList::checkpoints(&c);
        let seq = TestSequence::parse_rows(&["11", "01", "10", "00"]).unwrap();
        let want = FaultSim::new(&c).query(&faults).sequence(&seq).detected();

        let handle = CompiledHandle::lower(&c);
        assert!(handle.matches(&c));
        let run = RunOptions::default().compiled(handle.clone());
        let sim = FaultSim::with_run_options(&c, &run);
        // Same Arc: the registry's one-time lowering is what gets used.
        assert!(Arc::ptr_eq(&sim.compiled, &handle.compiled));
        assert_eq!(sim.query(&faults).sequence(&seq).detected(), want);
        // compiled_handle() round-trips the same Arc.
        assert!(Arc::ptr_eq(
            &sim.compiled_handle().compiled,
            &handle.compiled
        ));

        // A handle from a *different* circuit degrades to a fresh
        // lowering instead of simulating the wrong netlist.
        let other = bench_format::parse("other", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let stale = RunOptions::default().compiled(CompiledHandle::lower(&other));
        assert!(!stale.compiled.as_ref().unwrap().matches(&c));
        let fresh = FaultSim::with_run_options(&c, &stale);
        assert!(!Arc::ptr_eq(
            &fresh.compiled,
            &stale.compiled.as_ref().unwrap().compiled
        ));
        assert_eq!(fresh.query(&faults).sequence(&seq).detected(), want);
    }

    /// Reference implementation: serial single-fault simulation using the
    /// good simulator on a mutated evaluation. Used to validate the
    /// parallel engine over every fault model: the good machine steps
    /// first each cycle, so the faulty machine's forced value (if the
    /// fault is active this cycle) can be derived from the fault-free
    /// launch/capture pair.
    fn serial_detect(c: &Circuit, fault: Fault, seq: &TestSequence) -> Option<usize> {
        let mut good_ff = vec![Logic3::X; c.num_dffs()];
        let mut bad_ff = vec![Logic3::X; c.num_dffs()];
        let mut good = vec![Logic3::X; c.num_nets()];
        let mut bad = vec![Logic3::X; c.num_nets()];
        let mut prev_good: Option<Vec<Logic3>> = None;
        for u in 0..seq.len() {
            scalar_step(c, seq.row(u), &mut good_ff, &mut good, None);
            let forced =
                forced_value(c, fault, &good, prev_good.as_deref()).map(|v| (fault.site(), v));
            scalar_step(c, seq.row(u), &mut bad_ff, &mut bad, forced);
            for o in c.observed_nets() {
                if good[o.index()].conflicts(bad[o.index()]) {
                    return Some(u);
                }
            }
            prev_good = Some(good.clone());
        }
        None
    }

    /// The value `fault` forces at its site this cycle, or `None` when
    /// it is inactive. Stuck-at faults force unconditionally; a
    /// transition-delay fault forces the launch value only when its site
    /// transitions to the slow value on the fault-free machine between
    /// the previous and current cycles (an `X` on either side never
    /// activates, and the all-`X` start before cycle 0 never launches).
    fn forced_value(
        c: &Circuit,
        fault: Fault,
        good: &[Logic3],
        prev: Option<&[Logic3]>,
    ) -> Option<Logic3> {
        match fault {
            Fault::StuckAt { stuck, .. } => Some(stuck.into()),
            Fault::TransitionDelay { site, slow_to } => {
                let watch = match site {
                    FaultSite::Stem(net) => net,
                    FaultSite::GatePin { gate, pin } => c.gate(gate).inputs[pin],
                    FaultSite::DffData(k) => c.dffs()[k].d.unwrap(),
                };
                let cur = good[watch.index()];
                let prv = prev.map_or(Logic3::X, |p| p[watch.index()]);
                let slow: Logic3 = slow_to.into();
                let launch: Logic3 = (!slow_to).into();
                (cur == slow && prv == launch).then_some(launch)
            }
        }
    }

    fn scalar_step(
        c: &Circuit,
        row: &[bool],
        ff: &mut [Logic3],
        nets: &mut [Logic3],
        forced: Option<(FaultSite, Logic3)>,
    ) {
        let inject_stem = |net: NetId, v: Logic3| -> Logic3 {
            if let Some((site, fv)) = forced {
                if site == FaultSite::Stem(net) {
                    return fv;
                }
            }
            v
        };
        for (pi, &net) in c.inputs().iter().enumerate() {
            nets[net.index()] = inject_stem(net, row[pi].into());
        }
        for (k, d) in c.dffs().iter().enumerate() {
            nets[d.q.index()] = inject_stem(d.q, ff[k]);
        }
        for &gid in c.topo_gates() {
            let g = c.gate(gid);
            let vals: Vec<Logic3> = g
                .inputs
                .iter()
                .enumerate()
                .map(|(pin, &i)| {
                    let mut v = nets[i.index()];
                    if let Some((site, fv)) = forced {
                        if site == (FaultSite::GatePin { gate: gid, pin }) {
                            v = fv;
                        }
                    }
                    v
                })
                .collect();
            let out = crate::good::eval_gate(g.kind, vals.into_iter());
            nets[g.output.index()] = inject_stem(g.output, out);
        }
        for (k, d) in c.dffs().iter().enumerate() {
            let mut v = nets[d.d.unwrap().index()];
            if let Some((site, fv)) = forced {
                if site == FaultSite::DffData(k) {
                    v = fv;
                }
            }
            ff[k] = v;
        }
    }

    #[test]
    fn parallel_matches_serial_on_toy() {
        let c = toy();
        let faults = FaultList::all_lines(&c);
        let seq = TestSequence::parse_rows(&["00", "10", "01", "11", "00", "10"]).unwrap();
        let par = FaultSim::new(&c)
            .query(&faults)
            .sequence(&seq)
            .detection_times();
        for (i, &f) in faults.faults().iter().enumerate() {
            let ser = serial_detect(&c, f, &seq);
            assert_eq!(par[i], ser, "fault {} disagrees", f.describe(&c));
        }
    }

    #[test]
    fn reference_kernel_matches_serial_on_toy() {
        let c = toy();
        let faults = FaultList::all_lines(&c);
        let seq = TestSequence::parse_rows(&["00", "10", "01", "11", "00", "10"]).unwrap();
        let sim = FaultSim::with_options(&c, SimOptions::default().reference_kernel(true));
        let par = sim.query(&faults).sequence(&seq).detection_times();
        for (i, &f) in faults.faults().iter().enumerate() {
            let ser = serial_detect(&c, f, &seq);
            assert_eq!(par[i], ser, "fault {} disagrees", f.describe(&c));
        }
    }

    /// Every transition-delay fault on the toy circuit agrees with the
    /// scalar launch/capture oracle, on both kernels.
    #[test]
    fn transition_faults_match_scalar_oracle_on_toy() {
        let c = toy();
        let faults = FaultUniverse::enumerate(FaultModel::TransitionDelay, &c);
        assert!(!faults.is_empty());
        let seq = TestSequence::parse_rows(&["00", "10", "01", "11", "00", "10"]).unwrap();
        for reference in [false, true] {
            let sim = FaultSim::with_options(&c, SimOptions::default().reference_kernel(reference));
            let par = sim.query(&faults).sequence(&seq).detection_times();
            for (i, &f) in faults.faults().iter().enumerate() {
                let ser = serial_detect(&c, f, &seq);
                assert_eq!(
                    par[i],
                    ser,
                    "fault {} disagrees (reference={reference})",
                    f.describe(&c)
                );
            }
        }
    }

    /// A mixed stuck-at + transition fault list in one batch: both
    /// kernels agree with the scalar oracle on every fault.
    #[test]
    fn mixed_model_batch_matches_scalar_oracle() {
        let c = toy();
        let mut all = FaultUniverse::enumerate(FaultModel::StuckAt, &c)
            .faults()
            .to_vec();
        all.extend(
            FaultUniverse::enumerate(FaultModel::TransitionDelay, &c)
                .faults()
                .iter()
                .copied(),
        );
        let faults = FaultList::from_faults(all);
        let seq = TestSequence::parse_rows(&["00", "10", "01", "11", "00", "10"]).unwrap();
        let fast = FaultSim::new(&c)
            .query(&faults)
            .sequence(&seq)
            .detection_times();
        let oracle = FaultSim::with_options(&c, SimOptions::default().reference_kernel(true))
            .query(&faults)
            .sequence(&seq)
            .detection_times();
        assert_eq!(fast, oracle);
        for (i, &f) in faults.faults().iter().enumerate() {
            assert_eq!(
                fast[i],
                serial_detect(&c, f, &seq),
                "fault {}",
                f.describe(&c)
            );
        }
    }

    /// Pins the launch/capture semantics cycle by cycle on a one-gate
    /// circuit: `y = NOT(a)`, slow-to-rise on the stem of `a`.
    ///
    /// * cycle 0 never launches (the pre-sequence state is all-`X`);
    /// * the fault activates exactly on a 0→1 transition of `a`, forcing
    ///   the stale 0 for that cycle (so `y` reads 1 instead of 0);
    /// * a steady 1 (no transition) is fault-free.
    #[test]
    fn transition_launch_capture_cycle_semantics() {
        let c = bench_format::parse("inv", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let a = c.net_by_name("a").unwrap();
        let str_fault = Fault::slow_to_rise(FaultSite::Stem(a));
        let stf_fault = Fault::slow_to_fall(FaultSite::Stem(a));
        let faults = FaultList::from_faults(vec![str_fault, stf_fault]);
        for reference in [false, true] {
            let sim = FaultSim::with_options(&c, SimOptions::default().reference_kernel(reference));
            // a: 1, 0, 1, 1, 0 — rises at u=2 (0→1), falls at u=1 and
            // u=4. Cycle 0 applies a 1 but cannot launch from X.
            let seq = TestSequence::parse_rows(&["1", "0", "1", "1", "0"]).unwrap();
            let times = sim.query(&faults).sequence(&seq).detection_times();
            assert_eq!(times[0], Some(2), "slow-to-rise fires on the 0→1 edge");
            assert_eq!(times[1], Some(1), "slow-to-fall fires on the 1→0 edge");
            // A constant stream never transitions: nothing activates.
            let flat = TestSequence::parse_rows(&["1", "1", "1"]).unwrap();
            assert_eq!(
                sim.query(&faults).sequence(&flat).detection_times(),
                vec![None, None],
                "no transition, no activation (reference={reference})"
            );
        }
    }

    /// The incremental state carries the launch half of a transition
    /// across segment boundaries: splitting a sequence right on the
    /// transition edge detects exactly what the one-shot run does.
    #[test]
    fn incremental_advance_carries_transition_launch_state() {
        let c = bench_format::parse("inv", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let a = c.net_by_name("a").unwrap();
        let faults = FaultList::from_faults(vec![Fault::slow_to_rise(FaultSite::Stem(a))]);
        let seq = TestSequence::parse_rows(&["0", "1"]).unwrap();
        for reference in [false, true] {
            let sim = FaultSim::with_options(&c, SimOptions::default().reference_kernel(reference));
            let oneshot = sim.query(&faults).sequence(&seq).detected();
            assert_eq!(oneshot, vec![true], "the 0→1 edge detects the fault");
            let mut st = sim.begin(&faults);
            sim.advance(&mut st, &seq.slice(0..1));
            assert_eq!(st.num_detected(), 0, "launch cycle alone detects nothing");
            sim.advance(&mut st, &seq.slice(1..2));
            assert_eq!(
                st.detected(),
                &oneshot[..],
                "capture cycle in the next segment still sees the launch (reference={reference})"
            );
        }
    }

    #[test]
    fn good_machine_consistency() {
        // The fault simulator's bit-0 machine must agree with LogicSim:
        // with an empty fault list nothing is ever detected.
        let c = toy();
        let seq = TestSequence::parse_rows(&["00", "10", "01"]).unwrap();
        let empty = FaultList::from_faults(vec![]);
        let sim = FaultSim::new(&c);
        assert_eq!(sim.query(&empty).sequence(&seq).count(), 0);
        // And a stuck fault on the PO stem is detected whenever the PO is
        // binary and differs.
        let y = c.net_by_name("y").unwrap();
        let fl = FaultList::from_faults(vec![Fault::sa0(FaultSite::Stem(y))]);
        let times = sim.query(&fl).sequence(&seq).detection_times();
        let outs = LogicSim::new(&c).outputs(&seq).unwrap();
        let expect = outs.iter().position(|o| o[0] == Logic3::One);
        assert_eq!(times[0], expect);
    }

    #[test]
    fn incremental_advance_equals_oneshot() {
        let c = toy();
        let faults = FaultList::all_lines(&c);
        let seq = TestSequence::parse_rows(&["00", "10", "01", "11", "10", "00"]).unwrap();
        let sim = FaultSim::new(&c);
        let oneshot = sim.query(&faults).sequence(&seq).detected();
        let mut st = sim.begin(&faults);
        sim.advance(&mut st, &seq.slice(0..3));
        sim.advance(&mut st, &seq.slice(3..6));
        assert_eq!(st.detected(), &oneshot[..]);
        assert_eq!(st.elapsed(), 6);
    }

    #[test]
    fn detects_any_early_exit_agrees() {
        let c = toy();
        let faults = FaultList::checkpoints(&c);
        let seq = TestSequence::parse_rows(&["00", "10"]).unwrap();
        let sim = FaultSim::new(&c);
        let any = sim.query(&faults).sequence(&seq).count() > 0;
        assert_eq!(sim.query(&faults).sequence(&seq).any(), any);
    }

    #[test]
    fn observable_lines_superset_of_detection() {
        let c = toy();
        let faults = FaultList::checkpoints(&c);
        let seq = TestSequence::parse_rows(&["00", "10", "01", "11"]).unwrap();
        let sim = FaultSim::new(&c);
        let det = sim.query(&faults).sequence(&seq).detected();
        let lines = sim.query(&faults).sequence(&seq).observable_lines();
        let y = c.net_by_name("y").unwrap();
        for (i, d) in det.iter().enumerate() {
            if *d {
                assert!(
                    lines[i].contains(&y),
                    "detected fault must differ on the PO"
                );
            }
        }
    }

    #[test]
    fn sample_detects_respects_state() {
        let c = toy();
        let faults = FaultList::checkpoints(&c);
        let seq = TestSequence::parse_rows(&["00", "10", "01", "11"]).unwrap();
        let sim = FaultSim::new(&c);
        let st = sim.begin(&faults);
        let sample: Vec<usize> = (0..faults.len()).collect();
        let any = sim.sample_detects(&st, &sample, &seq);
        assert_eq!(any, sim.query(&faults).sequence(&seq).any());
        // State must be unmodified.
        assert_eq!(st.elapsed(), 0);
        assert_eq!(st.num_detected(), 0);
    }

    #[test]
    #[should_panic(expected = "inputs")]
    fn width_mismatch_panics() {
        let c = toy();
        let faults = FaultList::checkpoints(&c);
        let seq = TestSequence::parse_rows(&["000"]).unwrap();
        FaultSim::new(&c).query(&faults).sequence(&seq).detected();
    }

    /// A circuit big enough to span several 63-fault batches.
    fn multi_batch() -> (Circuit, FaultList) {
        let mut text = String::from("INPUT(a)\nINPUT(b)\nINPUT(c)\n");
        text.push_str("g0 = NAND(a, b)\n");
        for i in 1..60 {
            text.push_str(&format!("g{i} = NAND(g{}, c)\n", i - 1));
        }
        text.push_str("q = DFF(g59)\ng60 = XOR(q, a)\nOUTPUT(g60)\n");
        let c = bench_format::parse("chain", &text).unwrap();
        let faults = FaultList::all_lines(&c);
        assert!(faults.len() > 126, "need at least 3 batches");
        (c, faults)
    }

    fn walk_sequence(len: usize) -> TestSequence {
        let rows: Vec<Vec<bool>> = (0..len)
            .map(|u| vec![u % 2 == 0, u % 3 == 0, u % 5 != 0])
            .collect();
        TestSequence::from_rows(rows).unwrap()
    }

    #[test]
    fn kernels_agree_on_multi_batch_circuit() {
        let (c, faults) = multi_batch();
        let seq = walk_sequence(48);
        let fast = FaultSim::with_options(&c, SimOptions::with_threads(1));
        let oracle = FaultSim::with_options(&c, SimOptions::with_threads(1).reference_kernel(true));
        assert_eq!(
            fast.query(&faults).sequence(&seq).detection_times(),
            oracle.query(&faults).sequence(&seq).detection_times()
        );
        assert_eq!(
            fast.query(&faults).sequence(&seq).observable_lines(),
            oracle.query(&faults).sequence(&seq).observable_lines()
        );
        assert_eq!(
            fast.query(&faults).sequence(&seq).any(),
            oracle.query(&faults).sequence(&seq).any()
        );
    }

    #[test]
    fn thread_counts_agree_on_multi_batch_circuit() {
        let (c, faults) = multi_batch();
        let seq = walk_sequence(48);
        let serial = FaultSim::with_options(&c, SimOptions::with_threads(1));
        let threaded = FaultSim::with_options(&c, SimOptions::with_threads(4));
        assert_eq!(
            serial.query(&faults).sequence(&seq).detection_times(),
            threaded.query(&faults).sequence(&seq).detection_times()
        );
        assert_eq!(
            serial.query(&faults).sequence(&seq).observable_lines(),
            threaded.query(&faults).sequence(&seq).observable_lines()
        );
        assert_eq!(
            serial.query(&faults).sequence(&seq).any(),
            threaded.query(&faults).sequence(&seq).any()
        );
        let mut st_a = serial.begin(&faults);
        let mut st_b = threaded.begin(&faults);
        for cut in [5usize, 17, 48] {
            let part = seq.slice(cut.saturating_sub(12)..cut);
            assert_eq!(
                serial.advance(&mut st_a, &part),
                threaded.advance(&mut st_b, &part)
            );
            assert_eq!(st_a.detected(), st_b.detected());
        }
    }

    #[test]
    fn sample_detects_agrees_across_thread_counts() {
        let (c, faults) = multi_batch();
        let seq = walk_sequence(32);
        let serial = FaultSim::with_options(&c, SimOptions::with_threads(1));
        let threaded = FaultSim::with_options(&c, SimOptions::with_threads(4));
        let st = serial.begin(&faults);
        // Samples across different batches, including none.
        for sample in [
            vec![],
            vec![0],
            vec![1, 64, 127],
            (0..faults.len()).collect(),
        ] {
            assert_eq!(
                serial.sample_detects(&st, &sample, &seq),
                threaded.sample_detects(&st, &sample, &seq),
                "sample {sample:?}"
            );
        }
    }

    #[test]
    fn scratch_is_reset_between_batches() {
        // Two single-batch runs through the same simulator must not
        // observe each other's planes: simulate a detecting sequence,
        // then an all-zero sequence, and require identical results to a
        // fresh simulator (this failed before per-batch resets when a
        // net was not rewritten by the stepping loop).
        let (c, faults) = multi_batch();
        let sim = FaultSim::new(&c);
        let hot = walk_sequence(16);
        let cold = TestSequence::from_rows(vec![vec![false; 3]; 4]).unwrap();
        let _ = sim.query(&faults).sequence(&hot).detection_times();
        let after = sim.query(&faults).sequence(&cold).detection_times();
        let fresh = FaultSim::new(&c)
            .query(&faults)
            .sequence(&cold)
            .detection_times();
        assert_eq!(after, fresh);
    }

    #[test]
    fn tiny_fault_cycle_budget_stops_with_consistent_prefix() {
        use crate::runctl::{Budget, CancelToken, TruncationReason};
        let (c, faults) = multi_batch();
        let seq = walk_sequence(48);
        let full = FaultSim::with_options(&c, SimOptions::with_threads(1))
            .query(&faults)
            .sequence(&seq)
            .detected();
        let token = CancelToken::for_budget(&Budget::unlimited().fault_cycles(200));
        let sim = FaultSim::with_options(&c, SimOptions::with_threads(1)).cancel(token.clone());
        let partial = sim.query(&faults).sequence(&seq).detected();
        assert_eq!(token.cancelled(), Some(TruncationReason::FaultCycles));
        // The truncated query is a valid prefix: everything it reports
        // detected is detected by the full run too.
        for (i, (&p, &f)) in partial.iter().zip(&full).enumerate() {
            assert!(!p || f, "fault {i} detected only under the budget");
        }
        assert!(
            partial.iter().filter(|&&d| d).count() < full.iter().filter(|&&d| d).count(),
            "a 200-fault-cycle budget must truncate this run"
        );
        // Each batch stops within one cycle of the trip: the overshoot
        // is bounded by one 63-fault cycle per batch.
        let batches = faults.len().div_ceil(63) as u64;
        assert!(token.fault_cycles_spent() <= 200 + batches * 63);
        // Single-threaded truncation is deterministic.
        let again = FaultSim::with_options(&c, SimOptions::with_threads(1))
            .cancel(CancelToken::for_budget(
                &Budget::unlimited().fault_cycles(200),
            ))
            .query(&faults)
            .sequence(&seq)
            .detected();
        assert_eq!(partial, again);
    }

    #[test]
    fn kernels_agree_on_incremental_ff_planes() {
        let (c, faults) = multi_batch();
        let seq = walk_sequence(36);
        let fast = FaultSim::with_options(&c, SimOptions::with_threads(1));
        let oracle = FaultSim::with_options(&c, SimOptions::with_threads(1).reference_kernel(true));
        let mut st_a = fast.begin(&faults);
        let mut st_b = oracle.begin(&faults);
        for cut in [12usize, 24, 36] {
            let part = seq.slice(cut - 12..cut);
            assert_eq!(
                fast.advance(&mut st_a, &part),
                oracle.advance(&mut st_b, &part)
            );
            assert_eq!(st_a.detected(), st_b.detected());
            // Flip-flop planes must agree on every live machine bit and
            // on the fault-free machine (bit 0); dropped bits may
            // diverge — the compiled kernel stops maintaining them.
            for ((mask_a, ff_a), (mask_b, ff_b)) in st_a
                .debug_ff_planes()
                .into_iter()
                .zip(st_b.debug_ff_planes())
            {
                assert_eq!(mask_a, mask_b);
                for (k, (&(o_a, z_a), &(o_b, z_b))) in ff_a.iter().zip(&ff_b).enumerate() {
                    assert_eq!(o_a & mask_a, o_b & mask_a, "dff {k} ones");
                    assert_eq!(z_a & mask_a, z_b & mask_a, "dff {k} zeros");
                }
            }
        }
    }

    fn prepare_one(sim: &FaultSim<'_>, seq: &TestSequence) -> PreparedSequence {
        let mut preps = sim.prepare_sequences(std::slice::from_ref(seq));
        assert_eq!(preps.len(), 1);
        preps.pop().unwrap()
    }

    #[test]
    fn prepared_screen_matches_detects_any() {
        let (c, faults) = multi_batch();
        let seq = walk_sequence(24);
        let sim = FaultSim::with_options(&c, SimOptions::with_threads(1));
        let prep = prepare_one(&sim, &seq);
        assert_eq!(
            sim.query(&faults).prepared(&prep).any(),
            sim.query(&faults).sequence(&seq).any()
        );
    }

    /// A batch of prepared sequences of mixed lengths — more than one
    /// sweep's worth — gives every terminal the same answers and the
    /// same deterministic counters as raw one-sequence queries, and each
    /// sweep is reported once.
    #[test]
    fn batched_preparation_matches_raw_queries() {
        let (c, faults) = multi_batch();
        let seqs: Vec<TestSequence> = [(40, 0), (7, 3), (24, 1), (1, 2), (33, 5)]
            .map(|(len, off)| {
                let rows = (off..off + len)
                    .map(|v| vec![v % 2 == 0, v % 3 == 0, v % 5 != 0])
                    .collect();
                TestSequence::from_rows(rows).unwrap()
            })
            .to_vec();
        let tel = Telemetry::enabled();
        let sim = FaultSim::with_options(&c, SimOptions::with_threads(2)).telemetry(tel.clone());
        let preps = sim.prepare_sequences(&seqs);
        let sweeps = seqs.len().div_ceil(SWEEP_LANES) as u64;
        assert_eq!(tel.effort("sim.good_sweeps"), sweeps);
        assert_eq!(tel.effort("sim.good_lanes"), seqs.len() as u64);
        let raw_tel = Telemetry::enabled();
        let raw =
            FaultSim::with_options(&c, SimOptions::with_threads(1)).telemetry(raw_tel.clone());
        for (seq, prep) in seqs.iter().zip(&preps) {
            assert_eq!(prep.sequence(), seq);
            assert_eq!(
                sim.query(&faults).prepared(prep).detection_times(),
                raw.query(&faults).sequence(seq).detection_times()
            );
            assert_eq!(
                sim.query(&faults).prepared(prep).observable_lines(),
                raw.query(&faults).sequence(seq).observable_lines()
            );
        }
        assert_eq!(tel.counters(), raw_tel.counters());
        assert_eq!(
            tel.effort("sim.good_sweeps"),
            sweeps,
            "prepared queries reuse"
        );
        assert_eq!(raw_tel.effort("sim.good_sweeps"), 2 * seqs.len() as u64);
        assert!(sim.prepare_sequences(&[]).is_empty());
    }

    /// `y = AND(a, q)` with `q = DFF(b)`: `q` ignores `a`, so two runs
    /// can reach one flip-flop state through different `a` values.
    fn and_of_stored() -> Circuit {
        bench_format::parse(
            "andq",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(b)\ny = AND(a, q)\n",
        )
        .unwrap()
    }

    /// Runs `rows` (columns `a b`) from `reset`, then one row more, and
    /// returns the state before that row and the flags after it.
    fn run_then(
        sim: &FaultSim<'_>,
        reset: &FaultSimState,
        rows: &[&str],
        next: &str,
    ) -> (FaultSimState, Vec<bool>) {
        let mut state = reset.clone();
        sim.advance(&mut state, &TestSequence::parse_rows(rows).unwrap());
        let mut after = state.clone();
        sim.advance(&mut after, &TestSequence::parse_rows(&[next]).unwrap());
        (state, after.detected().to_vec())
    }

    #[test]
    fn retire_converged_resolves_machines_of_identical_states() {
        let c = toy();
        let faults = FaultList::checkpoints(&c);
        let sim = FaultSim::new(&c);
        let mut state = sim.begin(&faults);
        sim.advance(
            &mut state,
            &TestSequence::parse_rows(&["11", "01"]).unwrap(),
        );
        let mut base = state.clone();
        let live: Vec<usize> = (0..faults.len())
            .filter(|&i| !state.detected()[i])
            .collect();
        assert_eq!(state.num_live(), live.len());
        assert_eq!(state.retire_converged(&mut base), live);
        assert_eq!((state.num_live(), base.num_live()), (0, 0));
    }

    #[test]
    fn retire_converged_needs_matching_fault_free_flip_flops() {
        // After `b = 0` and `b = 1` the fault-free `q` differs, while the
        // machine with `q`'s data stuck at 1 holds 1 in both runs. Its
        // futures differ all the same: `a = 1` exposes it only where the
        // fault-free `q` is 0.
        let c = and_of_stored();
        let faults = FaultList::from_faults(vec![Fault::sa1(FaultSite::DffData(0))]);
        let sim = FaultSim::new(&c);
        let reset = sim.begin(&faults);
        let (mut low, low_next) = run_then(&sim, &reset, &["00"], "10");
        let (mut high, high_next) = run_then(&sim, &reset, &["01"], "10");
        assert_eq!(low.debug_fault_ff(0), high.debug_fault_ff(0));
        assert_ne!(low_next, high_next);
        assert!(low.retire_converged(&mut high).is_empty());
        assert_eq!(low.num_live(), 1);
    }

    #[test]
    fn retire_converged_needs_matching_launch_values() {
        // Both runs store `q = 1`, and the slow-to-rise machine on `a`
        // matches it, but only the run that left `a` at 0 launches a
        // rise on the next `a = 1`.
        let c = and_of_stored();
        let a = c.net_by_name("a").unwrap();
        let faults = FaultList::from_faults(vec![Fault::slow_to_rise(FaultSite::Stem(a))]);
        let sim = FaultSim::new(&c);
        let reset = sim.begin(&faults);
        let (mut low, low_next) = run_then(&sim, &reset, &["01"], "10");
        let (mut high, high_next) = run_then(&sim, &reset, &["11"], "10");
        assert_eq!(low.debug_fault_ff(0), high.debug_fault_ff(0));
        assert_eq!(low_next, vec![true]);
        assert_eq!(high_next, vec![false]);
        assert!(low.retire_converged(&mut high).is_empty());
        assert_eq!(low.num_live(), 1);
    }

    #[test]
    #[should_panic(expected = "one FaultSim::begin call")]
    fn retire_converged_rejects_states_of_two_begin_calls() {
        let c = toy();
        let faults = FaultList::checkpoints(&c);
        let sim = FaultSim::new(&c);
        let mut a = sim.begin(&faults);
        a.retire_converged(&mut sim.begin(&faults));
    }
}
