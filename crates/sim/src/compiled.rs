//! The compiled simulation kernel: CSR netlist, shared good machine,
//! flat injection schedules and dirty-set batch evaluation.
//!
//! The reference kernel in [`crate::fault`] walks the [`Circuit`] object
//! graph every cycle: per-gate `Vec<NetId>` input lists, a per-cycle
//! scan over all nets for constant drivers, and per-gate `HashMap`
//! probes for fault injections. This module removes all three costs:
//!
//! 1. [`CompiledCircuit`] — built once per `FaultSim` — lowers the
//!    levelized circuit into structure-of-arrays form: topo-ordered gate
//!    kinds, a CSR (`in_start`/`in_nets`) over input net indices, output
//!    net indices, source/const/DFF index arrays, a load CSR used to
//!    schedule the consumers of a changed net, and a static per-net
//!    observed flag. The hot loop reads nothing but flat arrays.
//! 2. [`Schedule`] — built once per fault batch — replaces the batch
//!    `HashMap`s with arrays sorted in topological order. The stepping
//!    loop merges them with cursors: zero hashing, and gates without
//!    injections pay a single integer compare.
//! 3. [`GoodTrace`] + dirty-set evaluation — the fault-free machine is
//!    simulated once per sequence, bit packed 64 nets per word per
//!    cycle. One topological sweep builds the traces of up to
//!    [`SWEEP_LANES`] sequences at once
//!    ([`CompiledCircuit::good_traces`]): each net holds one byte with
//!    sequence `l`'s ones bit in the low half and its zeros bit in the
//!    high half, so a gate costs the same whatever number of sequences
//!    the sweep carries. The sweep runs a flat array of fixed
//!    four-operand [`SweepRec`]s built during lowering; AND, OR, NOT and
//!    BUF records run without a branch, and a gate wider than four
//!    inputs is a chain of records. Each batch
//!    then runs *event-driven* against a shared trace: a net is
//!    **dirty** in a cycle when its planes differ from the fault-free
//!    value on a live machine bit, and a gate is evaluated only when one
//!    of its operands is dirty (or it carries a live injection). Clean
//!    operands are read straight from the good trace, so the per-cycle
//!    work is proportional to the *activity* of the live faults, not to
//!    the circuit size — typically a small fraction of the netlist once
//!    a batch's faults settle or drop.
//!
//! Scheduling uses bitmap worklists in topological order: dirtying a
//! net sets the bit of every consuming gate, and because loads sit at
//! strictly later topo positions, a single forward sweep over the
//! bitmap evaluates everything that can change. Dirtiness crosses the
//! register boundary through per-flip-flop dirty state (a dirty data
//! net makes the stored planes dirty for the next cycle), and dropped
//! machine bits fall out automatically: dirtiness is judged against the
//! live mask, so a net corrupted only by already-detected faults goes
//! clean by itself.
//!
//! Detection needs no per-batch bound either: a net that is clean on
//! every live bit carries the fault-free value, so only dirty observed
//! nets can differ, and the per-cycle detection scan walks the dirty
//! list against the static observed flag. A run therefore costs what
//! its faults disturb, with no setup proportional to the circuit.
//!
//! On a periodic sequence a run also ends early: the sweep stops
//! recording a lane once its state repeats at the input period
//! ([`GoodTrace::row`] maps later cycles back), and a one-shot run
//! retires every machine whose state repeats ([`run_batch`]; the
//! exactness argument is in the `fault` module docs).

use crate::logic::Logic3;
use crate::plane::{Planes, FAULTS_PER_BATCH};
use crate::sequence::TestSequence;
use wbist_netlist::{Circuit, Driver, Fault, FaultSite, GateKind};

/// Which flat [`Schedule`] array a conditional injection overlays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InjSlot {
    SrcPi,
    SrcDff,
    SrcConst,
    GateStem,
    Pin,
    Dff,
}

/// One conditional injection: a fault whose effect masks join the
/// schedule only in cycles where its *activation condition* holds on the
/// fault-free machine. Transition-delay faults use this — the fault
/// launches when the good value of `watch` changes from `!slow_to` at
/// cycle `t-1` to `slow_to` at cycle `t`, and the effect forces the site
/// back to `!slow_to` in the capture cycle `t`. The two-plane good trace
/// stores every cycle, so both the launch and the capture value are one
/// indexed read away; stuck-at faults never allocate an entry here.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CondInj {
    /// Which array the effect masks OR into.
    pub(crate) slot: InjSlot,
    /// Index of the target entry in that array (post-sort).
    pub(crate) idx: u32,
    /// Net whose fault-free transition activates the fault.
    pub(crate) watch: u32,
    /// Destination value of the slow transition.
    pub(crate) slow_to: bool,
    /// Machine bit of the fault.
    pub(crate) bit: u64,
}

/// Load codes in the fanout CSR: values `< num_gates` are consuming
/// gate topo positions; `num_gates + k` is the data input of DFF `k`.
#[derive(Debug, Clone)]
pub(crate) struct CompiledCircuit {
    pub(crate) num_nets: usize,
    pub(crate) num_gates: usize,
    pub(crate) num_dffs: usize,
    /// Gate kinds in topological order.
    pub(crate) kinds: Vec<GateKind>,
    /// CSR offsets into `in_nets`, length `num_gates + 1`.
    pub(crate) in_start: Vec<u32>,
    /// Flattened input net indices, topo-gate major, pin order.
    pub(crate) in_nets: Vec<u32>,
    /// Output net index per topo position.
    pub(crate) out_nets: Vec<u32>,
    /// Primary input net indices, PI order.
    pub(crate) pi_nets: Vec<u32>,
    /// Constant-driven nets and their values.
    pub(crate) const_vals: Vec<(u32, bool)>,
    /// DFF data / state-output net indices, DFF order.
    pub(crate) dff_d: Vec<u32>,
    pub(crate) dff_q: Vec<u32>,
    /// Observed nets: primary outputs followed by observation points.
    pub(crate) observed: Vec<u32>,
    /// Per-net flag: the net is in `observed`.
    pub(crate) is_observed: Vec<bool>,
    /// GateId index → topo position.
    pub(crate) topo_pos: Vec<u32>,
    /// CSR offsets into `load_codes`, length `num_nets + 1`.
    pub(crate) load_start: Vec<u32>,
    /// Encoded loads per net (see type-level comment).
    pub(crate) load_codes: Vec<u32>,
    /// Every net index, ascending — the dirty set of the reference
    /// kernel, which treats every net as changed.
    pub(crate) all_nets: Vec<u32>,
    /// The fault-free sweep program: every gate in topo order as one
    /// [`SweepRec`], or a chain of them past four inputs.
    sweep_recs: Vec<SweepRec>,
}

/// One step of the fault-free sweep: a gate of at most four operands,
/// read from the sweep bytes (see [`LOW`]) at `ins`. AND, OR, NOT and BUF
/// fold all four slots with AND and with OR and keep the planes `all`
/// and `any` pick: AND takes its 1 from the AND fold and its 0 from the
/// OR fold, OR the other way round, NOT and BUF read their operand
/// through the AND recipe. Slots a gate does not use repeat one of its
/// operands, which changes neither fold, so these kinds run without a
/// branch. XOR and XNOR take the rarely-taken three-valued XOR fold, and
/// their empty slots read the known-0 byte. The result is rotated by
/// `rot`: 4 for an inverting kind, which swaps the ones and zeros planes.
///
/// A gate with more than four inputs lowers to a chain of records through
/// the shared scratch byte: each partial record folds four operands (the
/// previous partial result among them) without inverting, and only the
/// last writes the gate's output and inverts. 24 bytes per record.
#[derive(Debug, Clone, Copy)]
struct SweepRec {
    /// Operand byte indices.
    ins: [u32; 4],
    /// Result byte index: the gate's output net, or the scratch byte.
    out: u32,
    /// Plane mask over the AND fold.
    all: u8,
    /// Plane mask over the OR fold.
    any: u8,
    /// Result rotation: 4 to invert, 0 otherwise.
    rot: u8,
    /// The record folds by three-valued XOR.
    xor: bool,
}

const _: () = assert!(std::mem::size_of::<SweepRec>() == 24);

impl SweepRec {
    /// Appends the records of one gate: `ins` its operand nets, `out` its
    /// output net, `zero` the known-0 byte and `scratch` the chain byte.
    fn lower(
        recs: &mut Vec<SweepRec>,
        kind: GateKind,
        ins: &[u32],
        out: u32,
        zero: u32,
        scratch: u32,
    ) {
        const ONES: u8 = LOW;
        const ZEROS: u8 = !LOW;
        let (all, any) = match kind {
            GateKind::And | GateKind::Nand | GateKind::Not | GateKind::Buf => (ONES, ZEROS),
            GateKind::Or | GateKind::Nor => (ZEROS, ONES),
            GateKind::Xor | GateKind::Xnor => (0, 0),
        };
        let xor = matches!(kind, GateKind::Xor | GateKind::Xnor);
        let mut rest = ins;
        let mut carry = None;
        loop {
            let mut slots = [0u32; 4];
            let mut n = 0;
            if let Some(partial) = carry {
                slots[0] = partial;
                n = 1;
            }
            let take = rest.len().min(4 - n);
            slots[n..n + take].copy_from_slice(&rest[..take]);
            let pad = if xor { zero } else { slots[0] };
            slots[n + take..].fill(pad);
            rest = &rest[take..];
            let last = rest.is_empty();
            recs.push(SweepRec {
                ins: slots,
                out: if last { out } else { scratch },
                all,
                any,
                rot: if last && kind.inverting() { 4 } else { 0 },
                xor,
            });
            if last {
                return;
            }
            carry = Some(scratch);
        }
    }

    /// The record's result on the sweep bytes `nets`, whose length is
    /// `mask + 1`: indexing through `& mask` needs no bounds check.
    #[inline]
    fn eval(&self, nets: &[u8], mask: usize) -> u8 {
        let [a, b, c, d] = self.ins.map(|i| nets[i as usize & mask]);
        let r = if self.xor {
            xor_lanes(xor_lanes(a, b), xor_lanes(c, d))
        } else {
            (a & b & c & d & self.all) | ((a | b | c | d) & self.any)
        };
        r.rotate_left(u32::from(self.rot))
    }
}

/// The ones-plane (low) half of a sweep byte: one net's value in
/// [`SWEEP_LANES`] sequences, sequence `l` is 1 at bit `l`, 0 at bit
/// `l + 4` and `X` at neither. Keeping both planes in one byte makes a
/// net one load and keeps the sweep's working set — a byte per net — in
/// cache.
const LOW: u8 = 0x0F;

/// Sequences one fault-free sweep carries: the four lanes of a sweep
/// byte.
pub const SWEEP_LANES: usize = 4;

/// The sweep byte with its halves exchanged: ones and zeros swap places.
#[inline]
fn swap_halves(b: u8) -> u8 {
    b.rotate_left(4)
}

/// Three-valued XOR of two sweep bytes: 1 where the known operands
/// differ, 0 where they agree, `X` where either is `X`.
#[inline]
fn xor_lanes(a: u8, b: u8) -> u8 {
    // Each half of `ones` is (a1 & b0) | (a0 & b1), of `zeros`
    // (a1 & b1) | (a0 & b0).
    let differ = a & swap_halves(b);
    let agree = a & b;
    ((differ | swap_halves(differ)) & LOW) | ((agree | swap_halves(agree)) & !LOW)
}

/// Bit `k` of each of up to 64 bytes, byte `i` into bit `i`. Eight
/// bytes at a time: bit `k` of each byte moves to the byte's bit 0, and
/// one multiplication collects the eight bits into the top byte (every
/// partial product lands on its own bit, so nothing carries). The
/// portable [`bit_planes`] and its test oracle.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline]
fn gather(bytes: &[u8], k: usize) -> u64 {
    let full = bytes.len() / 8 * 8;
    let mut out = 0u64;
    for (j, group) in bytes[..full].chunks_exact(8).enumerate() {
        let lsbs = (u64::from_le_bytes(group.try_into().expect("eight bytes")) >> k)
            & 0x0101_0101_0101_0101;
        out |= (lsbs.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * j);
    }
    for (i, &b) in bytes.iter().enumerate().skip(full) {
        out |= u64::from((b >> k) & 1) << i;
    }
    out
}

/// All eight bit planes of 64 sweep bytes: plane `k` holds bit `k` of
/// byte `i` at bit `i`, so planes `0..4` are the lanes' ones planes and
/// `4..8` their zeros planes. Sixteen bytes at a time: `pmovmskb`
/// collects every byte's top bit, and adding the vector to itself moves
/// the next bit up.
#[cfg(target_arch = "x86_64")]
#[inline]
fn bit_planes(bytes: &[u8; 64]) -> [u64; 8] {
    use std::arch::x86_64::{_mm_add_epi8, _mm_loadu_si128, _mm_movemask_epi8};
    let mut planes = [0u64; 8];
    for (j, block) in bytes.chunks_exact(16).enumerate() {
        // SAFETY: SSE2 is part of the x86_64 baseline, so the intrinsics
        // are available on every x86_64 host, and the unaligned load
        // reads exactly the sixteen bytes of `block`.
        unsafe {
            let mut v = _mm_loadu_si128(block.as_ptr().cast());
            for plane in planes.iter_mut().rev() {
                *plane |= u64::from(_mm_movemask_epi8(v) as u16) << (16 * j);
                v = _mm_add_epi8(v, v);
            }
        }
    }
    planes
}

/// All eight bit planes of 64 sweep bytes, one [`gather`] per plane.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn bit_planes(bytes: &[u8; 64]) -> [u64; 8] {
    std::array::from_fn(|k| gather(bytes, k))
}

/// The [`bit_planes`] of a row of sweep bytes, 64 nets per word: a
/// ragged last chunk is padded with all-`X` bytes.
#[inline]
fn row_planes(bytes: &[u8]) -> impl Iterator<Item = [u64; 8]> + '_ {
    let (chunks, tail) = bytes.as_chunks::<64>();
    let mut padded = [0u8; 64];
    padded[..tail.len()].copy_from_slice(tail);
    let ragged = (!tail.is_empty()).then(move || bit_planes(&padded));
    chunks.iter().map(bit_planes).chain(ragged)
}

impl CompiledCircuit {
    /// Lowers a levelized circuit. O(nets + gates + pins).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub(crate) fn build(c: &Circuit) -> CompiledCircuit {
        assert!(c.is_levelized(), "circuit must be levelized");
        let num_nets = c.num_nets();
        let num_gates = c.num_gates();
        let num_dffs = c.num_dffs();

        let mut kinds = Vec::with_capacity(num_gates);
        let mut in_start = Vec::with_capacity(num_gates + 1);
        let mut in_nets = Vec::new();
        let mut out_nets = Vec::with_capacity(num_gates);
        let mut topo_pos = vec![0u32; num_gates];
        let mut sweep_recs = Vec::with_capacity(num_gates);
        let (zero, scratch) = (num_nets as u32, num_nets as u32 + 1);
        in_start.push(0u32);
        for (pos, &gid) in c.topo_gates().iter().enumerate() {
            let g = c.gate(gid);
            topo_pos[gid.index()] = pos as u32;
            kinds.push(g.kind);
            let first = in_nets.len();
            for &i in &g.inputs {
                in_nets.push(i.index() as u32);
            }
            in_start.push(in_nets.len() as u32);
            let out = g.output.index() as u32;
            out_nets.push(out);
            SweepRec::lower(
                &mut sweep_recs,
                g.kind,
                &in_nets[first..],
                out,
                zero,
                scratch,
            );
        }

        let pi_nets = c.inputs().iter().map(|n| n.index() as u32).collect();
        let const_vals = c.const_nets().map(|(n, v)| (n.index() as u32, v)).collect();
        let dff_d: Vec<u32> = c
            .dffs()
            .iter()
            .map(|d| d.d.expect("levelized circuits have connected DFFs").index() as u32)
            .collect();
        let dff_q = c.dffs().iter().map(|d| d.q.index() as u32).collect();
        let observed: Vec<u32> = c.observed_nets().map(|n| n.index() as u32).collect();

        let mut is_observed = vec![false; num_nets];
        for &n in &observed {
            is_observed[n as usize] = true;
        }

        // Fanout CSR over nets: consuming gate topo positions + DFF data
        // loads, for dirty-set scheduling.
        let mut load_count = vec![0u32; num_nets];
        for pos in 0..num_gates {
            for i in in_start[pos] as usize..in_start[pos + 1] as usize {
                load_count[in_nets[i] as usize] += 1;
            }
        }
        for &d in &dff_d {
            load_count[d as usize] += 1;
        }
        let mut load_start = Vec::with_capacity(num_nets + 1);
        let mut acc = 0u32;
        load_start.push(0u32);
        for &cnt in &load_count {
            acc += cnt;
            load_start.push(acc);
        }
        let mut cursor: Vec<u32> = load_start[..num_nets].to_vec();
        let mut load_codes = vec![0u32; acc as usize];
        for pos in 0..num_gates {
            for &inp in &in_nets[in_start[pos] as usize..in_start[pos + 1] as usize] {
                let n = inp as usize;
                load_codes[cursor[n] as usize] = pos as u32;
                cursor[n] += 1;
            }
        }
        for (k, &d) in dff_d.iter().enumerate() {
            load_codes[cursor[d as usize] as usize] = (num_gates + k) as u32;
            cursor[d as usize] += 1;
        }

        CompiledCircuit {
            num_nets,
            num_gates,
            num_dffs,
            kinds,
            in_start,
            in_nets,
            out_nets,
            pi_nets,
            const_vals,
            dff_d,
            dff_q,
            observed,
            is_observed,
            topo_pos,
            load_start,
            load_codes,
            all_nets: (0..num_nets as u32).collect(),
            sweep_recs,
        }
    }

    /// Three-valued evaluation of the fault-free machine over `seq`,
    /// starting from the flip-flop state `init_ff`: the one-lane
    /// [`good_traces`](Self::good_traces). Returns the bit-packed
    /// per-cycle trace of every net plus the final flip-flop state (for
    /// incremental callers to resume from).
    pub(crate) fn good_trace(
        &self,
        seq: &TestSequence,
        init_ff: &[Logic3],
    ) -> (GoodTrace, Vec<Logic3>) {
        debug_assert_eq!(init_ff.len(), self.num_dffs);
        let (mut traces, ff) = self.sweep(&[(seq, None)], init_ff);
        (traces.pop().expect("one lane in, one trace out"), ff)
    }

    /// The fault-free traces of `seqs`, each from the all-`X` start, in
    /// one topological sweep per [`SWEEP_LANES`] sequences of any
    /// lengths: every gate is evaluated once per cycle for all the
    /// sequences of a sweep at once, so a sweep costs little more than
    /// one sequence does. Each sequence comes with its input period (see
    /// [`TestSequence::period`]), and its lane stops recording once its
    /// state repeats at that period (see [`sweep`](Self::sweep)). Trace
    /// `l` reads exactly what a one-lane call over `seqs[l]` records.
    pub(crate) fn good_traces(&self, seqs: &[(&TestSequence, Option<usize>)]) -> Vec<GoodTrace> {
        let init = vec![Logic3::X; self.num_dffs];
        seqs.chunks(SWEEP_LANES)
            .flat_map(|group| self.sweep(group, &init).0)
            .collect()
    }

    /// The lane-parallel sweep behind [`good_trace`](Self::good_trace)
    /// and [`good_traces`](Self::good_traces), sequence `l` in lane `l`
    /// of every net's sweep byte: every lane enters with the flip-flop
    /// state `init_ff`; a lane past its own end is driven with `X`
    /// inputs and no longer recorded. Returns the traces and lane 0's
    /// final flip-flop state.
    ///
    /// A lane with period `p` compares its flip-flop bits at every
    /// multiple of `p` with those it had `p` cycles earlier. Once they
    /// match at cycle `R`, the same state under the same inputs makes
    /// cycle `u ≥ R` repeat cycle `u − p`, so the lane records no more
    /// rows and its trace maps later reads back by whole periods
    /// ([`GoodTrace::row`]). The sweep ends when no lane records; lane
    /// 0's final state is then only meaningful for a lane without a
    /// period.
    fn sweep(
        &self,
        seqs: &[(&TestSequence, Option<usize>)],
        init_ff: &[Logic3],
    ) -> (Vec<GoodTrace>, Vec<Logic3>) {
        debug_assert!(seqs.len() <= SWEEP_LANES);
        let of_logic = |v: Logic3| match v {
            Logic3::One => LOW,
            Logic3::Zero => !LOW,
            Logic3::X => 0,
        };
        let mut traces: Vec<GoodTrace> = seqs
            .iter()
            .map(|&(s, _)| GoodTrace::with_capacity(self.num_nets, s.len()))
            .collect();
        let mut ff: Vec<u8> = init_ff.iter().map(|&v| of_logic(v)).collect();
        // Per lane: whether it still records, and its flip-flop bytes at
        // the last multiple of its period.
        let mut recording = [false; SWEEP_LANES];
        let mut snaps: Vec<Vec<u8>> = vec![Vec::new(); seqs.len()];
        // The net bytes, then the known-0 byte and the chain scratch byte
        // the sweep records read past them, padded to a power of two so
        // every index can be masked into range.
        let mut buf = vec![0u8; (self.num_nets + 2).next_power_of_two()];
        let mask = buf.len() - 1;
        let nets = &mut buf[..=mask];
        nets[self.num_nets] = !LOW;
        let mut pis = vec![0u8; self.pi_nets.len()];
        for u in 0.. {
            for (l, &(s, period)) in seqs.iter().enumerate() {
                // A closed lane's rows stop short of `u`.
                recording[l] = u < s.len() && traces[l].rows == u;
                let Some(p) = period.filter(|p| recording[l] && u % p == 0) else {
                    continue;
                };
                let lane = 1 << l | 1 << (l + SWEEP_LANES);
                let moved = ff.iter().zip(&snaps[l]).fold(0, |m, (a, b)| m | (a ^ b));
                if u > 0 && moved & lane == 0 {
                    traces[l].period = p;
                    recording[l] = false;
                } else {
                    snaps[l].clone_from(&ff);
                }
            }
            if !recording.contains(&true) {
                break;
            }
            pis.fill(0);
            for (l, &(s, _)) in seqs.iter().enumerate().filter(|&(_, (s, _))| u < s.len()) {
                for (p, &b) in pis.iter_mut().zip(s.row(u)) {
                    *p |= 1 << if b { l } else { l + SWEEP_LANES };
                }
            }
            for (&n, &p) in self.pi_nets.iter().zip(&pis) {
                nets[n as usize] = p;
            }
            for (&q, &p) in self.dff_q.iter().zip(&ff) {
                nets[q as usize] = p;
            }
            for &(n, v) in &self.const_vals {
                nets[n as usize] = of_logic(v.into());
            }
            for rec in &self.sweep_recs {
                nets[rec.out as usize & mask] = rec.eval(nets, mask);
            }
            for (p, &d) in ff.iter_mut().zip(&self.dff_d) {
                *p = nets[d as usize];
            }
            for planes in row_planes(&nets[..self.num_nets]) {
                for (l, trace) in traces.iter_mut().enumerate() {
                    if recording[l] {
                        trace.ones.push(planes[l]);
                        trace.zeros.push(planes[l + SWEEP_LANES]);
                    }
                }
            }
            for (trace, _) in traces.iter_mut().zip(recording).filter(|&(_, r)| r) {
                trace.rows += 1;
            }
        }
        debug_assert!(traces.iter().all(|t| t.ones.len() == t.words * t.rows));
        let ff = ff
            .iter()
            .map(|&p| match (p & 1, p >> SWEEP_LANES & 1) {
                (1, _) => Logic3::One,
                (_, 1) => Logic3::Zero,
                _ => Logic3::X,
            })
            .collect();
        (traces, ff)
    }
}

/// Bit-packed per-cycle values of every net in the fault-free machine.
///
/// A trace covers `len()` cycles but may record fewer rows: when the
/// sweep saw the state at row `rows` repeat the one `period` cycles
/// earlier, every later cycle repeats an earlier one, and
/// [`row`](Self::row) maps it back by whole periods. Reads take the
/// recorded row, so a kernel maps each cycle once.
#[derive(Debug, Clone)]
pub(crate) struct GoodTrace {
    num_cycles: usize,
    /// Recorded rows: `num_cycles`, or the cycle whose state repeated.
    rows: usize,
    /// The repeat distance when `rows < num_cycles`.
    period: usize,
    words: usize,
    ones: Vec<u64>,
    zeros: Vec<u64>,
}

impl GoodTrace {
    /// A trace of `num_cycles` cycles with room for as many rows and
    /// none written: the sweep pushes each row's words once, in order.
    fn with_capacity(num_nets: usize, num_cycles: usize) -> GoodTrace {
        let words = num_nets.div_ceil(64);
        GoodTrace {
            num_cycles,
            rows: 0,
            period: 0,
            words,
            ones: Vec::with_capacity(words * num_cycles),
            zeros: Vec::with_capacity(words * num_cycles),
        }
    }

    /// Number of cycles the trace covers.
    pub(crate) fn len(&self) -> usize {
        self.num_cycles
    }

    /// Number of recorded rows. Below [`len`](Self::len), the fault-free
    /// state entering every cycle `u ≥ rows()` equals the one entering
    /// `u − period`.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// The recorded row holding cycle `u`.
    #[inline]
    pub(crate) fn row(&self, u: usize) -> usize {
        if u < self.rows {
            u
        } else {
            self.rows - self.period + (u - self.rows) % self.period
        }
    }

    /// The fault-free value of net `n` in recorded row `r`, broadcast to
    /// all 64 machine bit positions.
    #[inline]
    pub(crate) fn planes(&self, r: usize, n: usize) -> Planes {
        // A four-entry table on the ones bit (bit 0) and the zeros bit
        // (bit 1), without a branch; both bits set reads as 1.
        let w = r * self.words + n / 64;
        let one = self.ones[w] >> (n % 64) & 1;
        let zero = self.zeros[w] >> (n % 64) & 1;
        Planes::BY_CODE[(one | zero << 1) as usize]
    }

    /// The fault-free value of net `n` in recorded row `r` as a scalar.
    #[inline]
    pub(crate) fn value(&self, r: usize, n: usize) -> Logic3 {
        let w = r * self.words + n / 64;
        let bit = 1u64 << (n % 64);
        if self.ones[w] & bit != 0 {
            Logic3::One
        } else if self.zeros[w] & bit != 0 {
            Logic3::Zero
        } else {
            Logic3::X
        }
    }
}

/// One fault batch's injections, flattened into sorted arrays.
///
/// All gate-indexed entries are keyed by *topological position* (not
/// `GateId`), so both kernels can merge them into their topo-order
/// stepping loop with monotone cursors.
#[derive(Debug, Clone, Default)]
pub(crate) struct Schedule {
    /// Stem injections on primary inputs: (PI index, net, f1, f0).
    pub(crate) src_pi: Vec<(u32, u32, u64, u64)>,
    /// Stem injections on DFF outputs: (DFF index, net, f1, f0).
    pub(crate) src_dff: Vec<(u32, u32, u64, u64)>,
    /// Stem injections on constant nets: (net, value, f1, f0).
    pub(crate) src_const: Vec<(u32, bool, u64, u64)>,
    /// Stem injections on gate outputs: (topo position, f1, f0), sorted.
    pub(crate) gate_stems: Vec<(u32, u64, u64)>,
    /// Gate-pin injections: (topo position, pin, f1, f0), sorted.
    pub(crate) pins: Vec<(u32, u32, u64, u64)>,
    /// DFF-data injections: (DFF index, f1, f0), sorted.
    pub(crate) dffs: Vec<(u32, u64, u64)>,
    /// Conditional (activation-gated) injections, overlaid per cycle.
    /// Empty for pure stuck-at batches — the static arrays above are
    /// then used directly, with zero per-cycle cost.
    pub(crate) cond: Vec<CondInj>,
}

impl Schedule {
    /// Builds the schedule for one chunk of up to [`FAULTS_PER_BATCH`]
    /// indexed faults; fault `k` of the chunk occupies machine bit `k + 1`.
    pub(crate) fn build(c: &Circuit, cc: &CompiledCircuit, faults: &[(usize, Fault)]) -> Schedule {
        debug_assert!(faults.len() <= FAULTS_PER_BATCH);
        let mut sched = Schedule::default();
        // (slot, key1, key2, watch, slow_to, bit): resolved to array
        // indices after the sorts below.
        let mut cond_raw: Vec<(InjSlot, u32, u32, u32, bool, u64)> = Vec::new();
        for (k, &(_, f)) in faults.iter().enumerate() {
            let bit = 1u64 << (k + 1);
            // A stuck-at fault contributes its masks statically; a
            // transition-delay fault contributes a zero-mask entry plus a
            // conditional component that ORs the effect in on activation
            // cycles. The effect polarity (force the *old* value) is
            // derived from `slow_to` at overlay time.
            let (f1, f0, cond) = match f {
                Fault::StuckAt { stuck, .. } => {
                    if stuck {
                        (bit, 0, None)
                    } else {
                        (0, bit, None)
                    }
                }
                Fault::TransitionDelay { site, slow_to } => {
                    let watch = match site {
                        FaultSite::Stem(net) => net.index() as u32,
                        FaultSite::GatePin { gate, pin } => c.gate(gate).inputs[pin].index() as u32,
                        FaultSite::DffData(k) => cc.dff_d[k],
                    };
                    (0, 0, Some((watch, slow_to)))
                }
            };
            match f.site() {
                FaultSite::Stem(net) => {
                    let n = net.index() as u32;
                    let slot = match c.driver(net) {
                        Driver::Gate(gid) => {
                            let pos = cc.topo_pos[gid.index()];
                            merge3(&mut sched.gate_stems, pos, f1, f0);
                            (InjSlot::GateStem, pos, 0)
                        }
                        Driver::Input(pi) => {
                            merge_src(&mut sched.src_pi, pi as u32, n, f1, f0);
                            (InjSlot::SrcPi, pi as u32, 0)
                        }
                        Driver::Dff(k) => {
                            merge_src(&mut sched.src_dff, k as u32, n, f1, f0);
                            (InjSlot::SrcDff, k as u32, 0)
                        }
                        Driver::Const(v) => {
                            if let Some(e) =
                                sched.src_const.iter_mut().find(|(cn, _, _, _)| *cn == n)
                            {
                                e.2 |= f1;
                                e.3 |= f0;
                            } else {
                                sched.src_const.push((n, v, f1, f0));
                            }
                            (InjSlot::SrcConst, n, 0)
                        }
                        Driver::Undriven => unreachable!("levelized circuits have no undriven net"),
                    };
                    if let Some((watch, slow_to)) = cond {
                        cond_raw.push((slot.0, slot.1, slot.2, watch, slow_to, bit));
                    }
                }
                FaultSite::GatePin { gate, pin } => {
                    let pos = cc.topo_pos[gate.index()];
                    if let Some(e) = sched
                        .pins
                        .iter_mut()
                        .find(|(p, q, _, _)| *p == pos && *q == pin as u32)
                    {
                        e.2 |= f1;
                        e.3 |= f0;
                    } else {
                        sched.pins.push((pos, pin as u32, f1, f0));
                    }
                    if let Some((watch, slow_to)) = cond {
                        cond_raw.push((InjSlot::Pin, pos, pin as u32, watch, slow_to, bit));
                    }
                }
                FaultSite::DffData(k) => {
                    merge3(&mut sched.dffs, k as u32, f1, f0);
                    if let Some((watch, slow_to)) = cond {
                        cond_raw.push((InjSlot::Dff, k as u32, 0, watch, slow_to, bit));
                    }
                }
            }
        }
        sched.src_pi.sort_unstable_by_key(|e| e.0);
        sched.src_dff.sort_unstable_by_key(|e| e.0);
        sched.src_const.sort_unstable_by_key(|e| e.0);
        sched.gate_stems.sort_unstable_by_key(|e| e.0);
        sched.pins.sort_unstable_by_key(|e| (e.0, e.1));
        sched.dffs.sort_unstable_by_key(|e| e.0);
        for (slot, k1, k2, watch, slow_to, bit) in cond_raw {
            let idx = match slot {
                InjSlot::SrcPi => sched.src_pi.iter().position(|e| e.0 == k1),
                InjSlot::SrcDff => sched.src_dff.iter().position(|e| e.0 == k1),
                InjSlot::SrcConst => sched.src_const.iter().position(|e| e.0 == k1),
                InjSlot::GateStem => sched.gate_stems.iter().position(|e| e.0 == k1),
                InjSlot::Pin => sched.pins.iter().position(|e| e.0 == k1 && e.1 == k2),
                InjSlot::Dff => sched.dffs.iter().position(|e| e.0 == k1),
            }
            .expect("conditional injection targets an entry created above");
            sched.cond.push(CondInj {
                slot,
                idx: idx as u32,
                watch,
                slow_to,
                bit,
            });
        }
        sched
    }

    /// The schedule's injection arrays as consumed by one cycle, with no
    /// conditional components (valid whenever `cond` is empty).
    pub(crate) fn static_view(&self) -> CycleInj<'_> {
        CycleInj {
            src_pi: &self.src_pi,
            src_dff: &self.src_dff,
            src_const: &self.src_const,
            gate_stems: &self.gate_stems,
            pins: &self.pins,
            dffs: &self.dffs,
        }
    }
}

/// The effective injection masks for one cycle: either the schedule's
/// static arrays (pure stuck-at) or a [`MaskBuf`] overlay with this
/// cycle's active conditional components OR-ed in. Entry order and keys
/// are identical either way, so the kernels' monotone cursors are
/// oblivious to which source they read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CycleInj<'a> {
    pub(crate) src_pi: &'a [(u32, u32, u64, u64)],
    pub(crate) src_dff: &'a [(u32, u32, u64, u64)],
    pub(crate) src_const: &'a [(u32, bool, u64, u64)],
    pub(crate) gate_stems: &'a [(u32, u64, u64)],
    pub(crate) pins: &'a [(u32, u32, u64, u64)],
    pub(crate) dffs: &'a [(u32, u64, u64)],
}

/// Per-worker scratch holding one cycle's effective injection masks when
/// a batch carries conditional injections. Buffers are reused across
/// cycles and batches (clear + extend), so the steady-state cycle loop
/// performs no allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct MaskBuf {
    src_pi: Vec<(u32, u32, u64, u64)>,
    src_dff: Vec<(u32, u32, u64, u64)>,
    src_const: Vec<(u32, bool, u64, u64)>,
    gate_stems: Vec<(u32, u64, u64)>,
    pins: Vec<(u32, u32, u64, u64)>,
    dffs: Vec<(u32, u64, u64)>,
}

impl MaskBuf {
    fn new() -> MaskBuf {
        MaskBuf::default()
    }

    /// Rebuilds the effective masks for cycle `u`, held in trace row
    /// `r`: copies the static arrays, then ORs in every conditional
    /// injection whose activation condition holds on the fault-free
    /// machine. The launch value at cycle 0 comes from `prev0` (the good
    /// net values entering the sequence — `None` means the all-`X`
    /// start, which never launches).
    fn refresh(
        &mut self,
        sched: &Schedule,
        trace: &GoodTrace,
        u: usize,
        r: usize,
        prev0: Option<&[Logic3]>,
    ) {
        self.src_pi.clear();
        self.src_pi.extend_from_slice(&sched.src_pi);
        self.src_dff.clear();
        self.src_dff.extend_from_slice(&sched.src_dff);
        self.src_const.clear();
        self.src_const.extend_from_slice(&sched.src_const);
        self.gate_stems.clear();
        self.gate_stems.extend_from_slice(&sched.gate_stems);
        self.pins.clear();
        self.pins.extend_from_slice(&sched.pins);
        self.dffs.clear();
        self.dffs.extend_from_slice(&sched.dffs);
        let prev_row = u.checked_sub(1).map(|p| trace.row(p));
        for ci in &sched.cond {
            let n = ci.watch as usize;
            let cur = trace.value(r, n);
            let prev = if let Some(pr) = prev_row {
                trace.value(pr, n)
            } else {
                match prev0 {
                    Some(p) => p[n],
                    None => Logic3::X,
                }
            };
            if cur == ci.slow_to.into() && prev == (!ci.slow_to).into() {
                // The slow site still shows the old value in the capture
                // cycle: slow-to-rise forces 0, slow-to-fall forces 1.
                let (a1, a0) = if ci.slow_to { (0, ci.bit) } else { (ci.bit, 0) };
                let i = ci.idx as usize;
                match ci.slot {
                    InjSlot::SrcPi => {
                        self.src_pi[i].2 |= a1;
                        self.src_pi[i].3 |= a0;
                    }
                    InjSlot::SrcDff => {
                        self.src_dff[i].2 |= a1;
                        self.src_dff[i].3 |= a0;
                    }
                    InjSlot::SrcConst => {
                        self.src_const[i].2 |= a1;
                        self.src_const[i].3 |= a0;
                    }
                    InjSlot::GateStem => {
                        self.gate_stems[i].1 |= a1;
                        self.gate_stems[i].2 |= a0;
                    }
                    InjSlot::Pin => {
                        self.pins[i].2 |= a1;
                        self.pins[i].3 |= a0;
                    }
                    InjSlot::Dff => {
                        self.dffs[i].1 |= a1;
                        self.dffs[i].2 |= a0;
                    }
                }
            }
        }
    }

    fn view(&self) -> CycleInj<'_> {
        CycleInj {
            src_pi: &self.src_pi,
            src_dff: &self.src_dff,
            src_const: &self.src_const,
            gate_stems: &self.gate_stems,
            pins: &self.pins,
            dffs: &self.dffs,
        }
    }
}

fn merge3(v: &mut Vec<(u32, u64, u64)>, key: u32, f1: u64, f0: u64) {
    if let Some(e) = v.iter_mut().find(|(k, _, _)| *k == key) {
        e.1 |= f1;
        e.2 |= f0;
    } else {
        v.push((key, f1, f0));
    }
}

fn merge_src(v: &mut Vec<(u32, u32, u64, u64)>, key: u32, net: u32, f1: u64, f0: u64) {
    if let Some(e) = v.iter_mut().find(|(k, _, _, _)| *k == key) {
        e.2 |= f1;
        e.3 |= f0;
    } else {
        v.push((key, net, f1, f0));
    }
}

/// Per-worker scratch: one net-plane buffer, the dirty-set bookkeeping,
/// the per-cycle injection masks and the state snapshot of the period
/// check, allocated once per worker and reused across every batch and
/// cycle it processes.
#[derive(Debug, Clone)]
pub(crate) struct Scratch {
    nets: Vec<Planes>,
    dirty: DirtyScratch,
    /// Per-cycle effective injection masks, used only by batches whose
    /// schedule carries conditional (transition-delay) injections.
    buf: MaskBuf,
    /// The dirty flip-flops and their planes entering the last multiple
    /// of the period, ascending; used only by runs given a period.
    snap: Vec<(u32, Planes)>,
}

impl Scratch {
    pub(crate) fn new(cc: &CompiledCircuit) -> Scratch {
        Scratch {
            nets: vec![Planes::ALL_X; cc.num_nets],
            dirty: DirtyScratch::new(cc),
            buf: MaskBuf::new(),
            snap: Vec::with_capacity(cc.num_dffs),
        }
    }
}

/// The dirty-set bookkeeping of a [`Scratch`].
#[derive(Debug, Clone)]
struct DirtyScratch {
    /// Per-net flag: planes currently differ from the good machine on a
    /// live bit. Valid within one cycle; cleared by walking `dirty_nets`.
    dirty: Vec<bool>,
    /// Nets dirty this cycle, in evaluation order.
    dirty_nets: Vec<u32>,
    /// Bitmap worklist over gate topo positions scheduled this cycle.
    sched_bits: Vec<u64>,
    /// Bitmap over flip-flops whose next state must be examined.
    cand_bits: Vec<u64>,
    /// Per-flip-flop flag: stored planes differ from the good machine.
    /// Persistent across cycles of one run.
    dff_dirty: Vec<bool>,
    /// Flip-flops currently dirty, ascending.
    dirty_dffs: Vec<u32>,
}

impl DirtyScratch {
    fn new(cc: &CompiledCircuit) -> DirtyScratch {
        DirtyScratch {
            dirty: vec![false; cc.num_nets],
            dirty_nets: Vec::with_capacity(cc.num_nets),
            sched_bits: vec![0; cc.num_gates.div_ceil(64)],
            cand_bits: vec![0; cc.num_dffs.div_ceil(64)],
            dff_dirty: vec![false; cc.num_dffs],
            dirty_dffs: Vec::with_capacity(cc.num_dffs),
        }
    }
}

/// What one evaluated cycle exposes to the query-specific sink.
pub(crate) struct CycleCtx<'a> {
    /// Net planes after this cycle's evaluation. Only the nets listed in
    /// `dirty_nets` are current; everything else may be stale — clean
    /// nets carry the fault-free value on all live bits.
    pub(crate) nets: &'a [Planes],
    /// OR of `diff_from_good` over the dirty observed nets (only those
    /// can differ). May carry bits of already-dropped machines; mask
    /// with `live`.
    pub(crate) obs_diff: u64,
    /// Machine bits still carrying live faults.
    pub(crate) live: u64,
    /// Nets whose planes differ from the good machine this cycle (the
    /// dirty set; the whole netlist under the reference kernel).
    pub(crate) dirty_nets: &'a [u32],
}

/// The per-cycle callback of the batch kernels: given the cycle and its
/// [`CycleCtx`], the machine bits to drop and whether to stop.
pub(crate) type Sink<'s> = dyn FnMut(usize, &CycleCtx) -> (u64, bool) + 's;

/// Deterministic effort accounting for one batch run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BatchStats {
    /// Cycles actually evaluated.
    pub(crate) cycles: usize,
    /// Gate evaluations performed.
    pub(crate) gates_evaluated: u64,
    /// Gate evaluations avoided by dirty-set restriction.
    pub(crate) gates_skipped: u64,
    /// Live fault-cycles: per evaluated cycle, the number of faults
    /// still live at its start.
    pub(crate) fault_cycles: u64,
    /// Faults retired undetected because their state repeated at the
    /// input period.
    pub(crate) retired: u64,
}

/// Drives one batch through `seq` with dirty-set evaluation.
///
/// After every evaluated cycle the `sink` is called with a [`CycleCtx`]
/// and returns `(drop_bits, stop)`: `drop_bits` are removed from the
/// live mask (shrinking the dirty set), and `stop` ends the run early.
/// The run also ends when the live mask empties. The sink is a trait
/// object: it runs once per cycle, and one copy of the kernel keeps the
/// binary (and a small run's resident code) smaller than a copy per
/// query type did.
///
/// `ff` holds the batch's persistent flip-flop planes. Planes of
/// flip-flops that end the run clean are synced to the broadcast good
/// state, so at every query boundary `ff` matches the reference kernel
/// on `live | 1` bits exactly.
///
/// `prev0` supplies the fault-free net values *entering* cycle 0 (for
/// incremental segments); `None` is the all-`X` start. It only gates
/// conditional-injection launches at cycle 0 — cycles past the first
/// read their launch value from the trace itself.
///
/// `period` is the input period of `seq` (see
/// [`TestSequence::period`]) for a run from the reset state, and turns
/// on retirement. At every multiple `u` of the period, once the trace
/// shows the fault-free state entering `u` equal to the one entering
/// `u − period`, each live machine whose flip-flop state also repeated
/// leaves the live mask undetected and is counted in
/// [`BatchStats::retired`]. Its future repeats the window just
/// simulated, in which it was not detected, so it never will be. A
/// transition-delay machine also needs the fault-free state at `u − 1`
/// to repeat, because its launch reads the previous cycle.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_batch(
    cc: &CompiledCircuit,
    sched: &Schedule,
    mut live: u64,
    seq: &TestSequence,
    trace: &GoodTrace,
    prev0: Option<&[Logic3]>,
    period: Option<usize>,
    ff: &mut [Planes],
    scratch: &mut Scratch,
    sink: &mut Sink<'_>,
) -> (u64, BatchStats) {
    debug_assert_eq!(trace.len(), seq.len());
    debug_assert!(trace.rows() == trace.len() || period == Some(trace.period));
    let has_cond = !sched.cond.is_empty();
    // Machines whose activation reads the previous good cycle.
    let launch_bits = sched.cond.iter().fold(0, |m, c| m | c.bit);
    let mut stats = BatchStats::default();
    let Scratch {
        nets,
        dirty: scratch,
        buf,
        snap,
    } = scratch;
    let DirtyScratch {
        dirty,
        dirty_nets,
        sched_bits,
        cand_bits,
        dff_dirty,
        dirty_dffs,
    } = scratch;
    // Flip-flops whose stored planes already differ from the good
    // machine's starting state (contamination from earlier queries).
    for &k in dirty_dffs.iter() {
        dff_dirty[k as usize] = false;
    }
    dirty_dffs.clear();
    if !seq.is_empty() {
        for (k, f) in ff.iter().enumerate() {
            let good = trace.planes(0, cc.dff_q[k] as usize);
            if (((f.ones ^ good.ones) | (f.zeros ^ good.zeros)) & (live | 1)) != 0 {
                dff_dirty[k] = true;
                dirty_dffs.push(k as u32);
            }
        }
    }
    for u in 0..seq.len() {
        let r = trace.row(u);
        if period.is_some_and(|p| u % p == 0) {
            let eligible = if u > trace.rows() {
                live
            } else {
                live & !launch_bits
            };
            let repeated = take_period_snapshot(cc, trace, u, eligible, snap, dirty_dffs, ff);
            if repeated != 0 {
                live &= !repeated;
                stats.retired += repeated.count_ones() as u64;
                if live == 0 {
                    break;
                }
            }
        }
        stats.cycles = u + 1;
        stats.fault_cycles += live.count_ones() as u64;
        let mut evaluated = 0u64;
        let inj = if has_cond {
            buf.refresh(sched, trace, u, r, prev0);
            buf.view()
        } else {
            sched.static_view()
        };

        // Dirty stored state enters on the flip-flop output nets; the
        // flip-flop itself must be re-examined this cycle so it can go
        // clean again.
        for &k in dirty_dffs.iter() {
            let k = k as usize;
            let q = cc.dff_q[k];
            nets[q as usize] = ff[k];
            if !dirty[q as usize] {
                dirty[q as usize] = true;
                dirty_nets.push(q);
            }
            mark_loads(cc, sched_bits, cand_bits, q);
            cand_bits[k >> 6] |= 1 << (k & 63);
        }
        // Sources carrying live stem injections. The fault-free base is
        // exactly the good value (or the stored planes for a dirty
        // flip-flop), and the result is marked dirty conservatively.
        let row = seq.row(u);
        for &(pi, n, f1, f0) in inj.src_pi {
            let (f1, f0) = (f1 & live, f0 & live);
            if (f1 | f0) != 0 {
                nets[n as usize] = Planes::broadcast(row[pi as usize]).inject(f1, f0);
                if !dirty[n as usize] {
                    dirty[n as usize] = true;
                    dirty_nets.push(n);
                }
                mark_loads(cc, sched_bits, cand_bits, n);
            }
        }
        for &(k, n, f1, f0) in inj.src_dff {
            let (f1, f0) = (f1 & live, f0 & live);
            if (f1 | f0) != 0 {
                let base = if dff_dirty[k as usize] {
                    ff[k as usize]
                } else {
                    trace.planes(r, n as usize)
                };
                nets[n as usize] = base.inject(f1, f0);
                if !dirty[n as usize] {
                    dirty[n as usize] = true;
                    dirty_nets.push(n);
                }
                mark_loads(cc, sched_bits, cand_bits, n);
            }
        }
        for &(n, v, f1, f0) in inj.src_const {
            let (f1, f0) = (f1 & live, f0 & live);
            if (f1 | f0) != 0 {
                nets[n as usize] = Planes::broadcast(v).inject(f1, f0);
                if !dirty[n as usize] {
                    dirty[n as usize] = true;
                    dirty_nets.push(n);
                }
                mark_loads(cc, sched_bits, cand_bits, n);
            }
        }
        // Gates carrying live injections run unconditionally — their
        // operands may all be clean.
        for &(pos, f1, f0) in inj.gate_stems {
            if ((f1 | f0) & live) != 0 {
                sched_bits[(pos >> 6) as usize] |= 1 << (pos & 63);
            }
        }
        for &(pos, _, f1, f0) in inj.pins {
            if ((f1 | f0) & live) != 0 {
                sched_bits[(pos >> 6) as usize] |= 1 << (pos & 63);
            }
        }
        // Forward sweep over the scheduled-gate bitmap, always taking
        // the lowest pending position. A gate's loads sit at strictly
        // later topo positions, so new work can only land ahead of the
        // scan point: evaluation order is globally ascending, every
        // gate runs at most once per cycle with fresh operands, and the
        // monotone injection cursors stay valid.
        let mut is = 0usize;
        let mut ip = 0usize;
        let mut w = 0usize;
        while w < sched_bits.len() {
            let bits = sched_bits[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            {
                let pos = (w << 6) + bits.trailing_zeros() as usize;
                sched_bits[w] = bits & (bits - 1);
                evaluated += 1;
                let v = eval_gate(cc, inj, pos, &mut is, &mut ip, |n: u32| {
                    if dirty[n as usize] {
                        nets[n as usize]
                    } else {
                        trace.planes(r, n as usize)
                    }
                });
                let out = cc.out_nets[pos] as usize;
                nets[out] = v;
                let good = trace.planes(r, out);
                if (((v.ones ^ good.ones) | (v.zeros ^ good.zeros)) & (live | 1)) != 0
                    && !dirty[out]
                {
                    dirty[out] = true;
                    dirty_nets.push(out as u32);
                    mark_loads(cc, sched_bits, cand_bits, out as u32);
                }
            }
        }
        // Next-state examination: flip-flops whose data net went dirty,
        // whose stored planes were dirty, or that carry live injections.
        for &(k, f1, f0) in inj.dffs {
            if ((f1 | f0) & live) != 0 {
                cand_bits[(k >> 6) as usize] |= 1 << (k & 63);
            }
        }
        dirty_dffs.clear();
        let mut id = 0usize;
        for (w, word) in cand_bits.iter_mut().enumerate() {
            let mut bits = *word;
            *word = 0;
            while bits != 0 {
                let k = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let d = cc.dff_d[k] as usize;
                let mut v = if dirty[d] {
                    nets[d]
                } else {
                    trace.planes(r, d)
                };
                while id < inj.dffs.len() && (inj.dffs[id].0 as usize) < k {
                    id += 1;
                }
                if id < inj.dffs.len() && inj.dffs[id].0 as usize == k {
                    let (_, f1, f0) = inj.dffs[id];
                    v = v.inject(f1 & live, f0 & live);
                }
                let good = trace.planes(r, d);
                if (((v.ones ^ good.ones) | (v.zeros ^ good.zeros)) & (live | 1)) != 0 {
                    ff[k] = v;
                    dff_dirty[k] = true;
                    dirty_dffs.push(k as u32);
                } else {
                    dff_dirty[k] = false;
                }
            }
        }
        // Detection sites: only dirty observed nets can differ.
        let mut obs_diff = 0;
        for &n in dirty_nets.iter() {
            if cc.is_observed[n as usize] {
                obs_diff |= nets[n as usize].diff_from_good();
            }
        }
        stats.gates_evaluated += evaluated;
        stats.gates_skipped += cc.num_gates as u64 - evaluated;
        let ctx = CycleCtx {
            nets,
            obs_diff,
            live,
            dirty_nets,
        };
        let (drop, stop) = sink(u, &ctx);
        for &n in dirty_nets.iter() {
            dirty[n as usize] = false;
        }
        dirty_nets.clear();
        live &= !drop;
        if live == 0 || stop {
            break;
        }
    }
    // Clean flip-flops hold the good machine's final state; sync their
    // planes so the persistent batch state is valid at the query
    // boundary.
    if stats.cycles > 0 {
        let last = trace.row(stats.cycles - 1);
        for k in 0..cc.num_dffs {
            if !dff_dirty[k] {
                ff[k] = trace.planes(last, cc.dff_d[k] as usize);
            }
        }
    }
    (live, stats)
}

/// The period check of [`run_batch`] entering cycle `u`, a multiple of
/// the period: returns the `eligible` machines whose flip-flop state
/// repeated the `snap`shot taken one period earlier — none until the
/// fault-free state has repeated too (`u ≥ trace.rows()`) — and then
/// snapshots the current state for the next check.
///
/// A flip-flop outside both dirty lists holds the fault-free value at
/// both times, so only the two ascending lists are walked: a dirty
/// flip-flop's planes are `ff`'s now and `snap`'s then, a clean one's
/// the good value.
fn take_period_snapshot(
    cc: &CompiledCircuit,
    trace: &GoodTrace,
    u: usize,
    eligible: u64,
    snap: &mut Vec<(u32, Planes)>,
    dirty_dffs: &[u32],
    ff: &[Planes],
) -> u64 {
    let mut moved = !0;
    if u >= trace.rows() {
        let r = trace.row(u);
        let good = |k: u32| trace.planes(r, cc.dff_q[k as usize] as usize);
        let differ = |a: Planes, b: Planes| (a.ones ^ b.ones) | (a.zeros ^ b.zeros);
        moved = 0;
        let (mut then, mut now) = (snap.iter().peekable(), dirty_dffs.iter().peekable());
        loop {
            match (then.peek(), now.peek()) {
                (Some(&&(k, was)), Some(&&d)) if k == d => {
                    moved |= differ(was, ff[d as usize]);
                    then.next();
                    now.next();
                }
                (Some(&&(k, was)), next) if next.is_none_or(|&&d| k < d) => {
                    moved |= differ(was, good(k));
                    then.next();
                }
                (_, Some(&&d)) => {
                    moved |= differ(ff[d as usize], good(d));
                    now.next();
                }
                (_, None) => break,
            }
        }
    }
    snap.clear();
    snap.extend(dirty_dffs.iter().map(|&k| (k, ff[k as usize])));
    eligible & !moved
}

/// Schedules every consumer of `net`: gate loads into the gate bitmap,
/// flip-flop data loads into the candidate bitmap.
#[inline]
fn mark_loads(cc: &CompiledCircuit, sched_bits: &mut [u64], cand_bits: &mut [u64], net: u32) {
    let s = cc.load_start[net as usize] as usize;
    let e = cc.load_start[net as usize + 1] as usize;
    for &code in &cc.load_codes[s..e] {
        let code = code as usize;
        if code < cc.num_gates {
            sched_bits[code >> 6] |= 1 << (code & 63);
        } else {
            let k = code - cc.num_gates;
            cand_bits[k >> 6] |= 1 << (k & 63);
        }
    }
}

/// The historic full-walk kernel, kept as a differential-testing oracle
/// behind `SimOptions::reference_kernel`: every cycle writes every
/// source, evaluates every gate and updates every flip-flop, with no
/// good-trace sharing and no dirty-set restriction. It shares the injection
/// [`Schedule`] (cursor merge instead of the original `HashMap` probes)
/// and the sink contract with [`run_batch`], so any divergence between
/// the two kernels is in the dirty-set machinery, not the plumbing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_batch_reference(
    cc: &CompiledCircuit,
    sched: &Schedule,
    mut live: u64,
    seq: &TestSequence,
    trace: &GoodTrace,
    prev0: Option<&[Logic3]>,
    ff: &mut [Planes],
    scratch: &mut Scratch,
    sink: &mut Sink<'_>,
) -> (u64, BatchStats) {
    debug_assert_eq!(trace.len(), seq.len());
    let has_cond = !sched.cond.is_empty();
    let Scratch { nets, buf, .. } = scratch;
    nets.fill(Planes::ALL_X);
    let mut stats = BatchStats::default();
    for u in 0..seq.len() {
        stats.cycles = u + 1;
        stats.gates_evaluated += cc.num_gates as u64;
        stats.fault_cycles += live.count_ones() as u64;
        // The trace feeds only conditional-injection activation: the
        // reference machine's own evolution stays trace-free.
        let inj = if has_cond {
            buf.refresh(sched, trace, u, trace.row(u), prev0);
            buf.view()
        } else {
            sched.static_view()
        };
        let row = seq.row(u);
        for (pi, &n) in cc.pi_nets.iter().enumerate() {
            nets[n as usize] = Planes::broadcast(row[pi]);
        }
        for (k, &q) in cc.dff_q.iter().enumerate() {
            nets[q as usize] = ff[k];
        }
        for &(n, v) in &cc.const_vals {
            nets[n as usize] = Planes::broadcast(v);
        }
        // Source stem injections, applied unconditionally — dropped bit
        // lanes keep carrying their faulty values, exactly like the
        // original kernel.
        for &(_, n, f1, f0) in inj.src_pi {
            nets[n as usize] = nets[n as usize].inject(f1, f0);
        }
        for &(_, n, f1, f0) in inj.src_dff {
            nets[n as usize] = nets[n as usize].inject(f1, f0);
        }
        for &(n, _, f1, f0) in inj.src_const {
            nets[n as usize] = nets[n as usize].inject(f1, f0);
        }
        let mut is = 0usize;
        let mut ip = 0usize;
        for pos in 0..cc.num_gates {
            let v = eval_gate(cc, inj, pos, &mut is, &mut ip, |n: u32| nets[n as usize]);
            nets[cc.out_nets[pos] as usize] = v;
        }
        let mut id = 0usize;
        for k in 0..cc.num_dffs {
            let mut v = nets[cc.dff_d[k] as usize];
            while id < inj.dffs.len() && (inj.dffs[id].0 as usize) < k {
                id += 1;
            }
            if id < inj.dffs.len() && inj.dffs[id].0 as usize == k {
                let (_, f1, f0) = inj.dffs[id];
                v = v.inject(f1, f0);
            }
            ff[k] = v;
        }
        let mut obs_diff = 0;
        for &n in &cc.observed {
            obs_diff |= nets[n as usize].diff_from_good();
        }
        let ctx = CycleCtx {
            nets,
            obs_diff,
            live,
            dirty_nets: &cc.all_nets,
        };
        let (drop, stop) = sink(u, &ctx);
        live &= !drop;
        if live == 0 || stop {
            break;
        }
    }
    (live, stats)
}

/// Evaluates one topo-position gate: advances the stem/pin cursors to
/// `pos`, folds the operand planes (with pin injections merged in) and
/// applies any output-stem injection. Shared by both kernels; the
/// `read` closure abstracts where operand planes come from — the net
/// array for the reference kernel, the dirty-set/good-trace split for
/// the compiled kernel.
#[inline]
fn eval_gate(
    cc: &CompiledCircuit,
    inj: CycleInj<'_>,
    pos: usize,
    is: &mut usize,
    ip: &mut usize,
    read: impl Fn(u32) -> Planes + Copy,
) -> Planes {
    while *is < inj.gate_stems.len() && (inj.gate_stems[*is].0 as usize) < pos {
        *is += 1;
    }
    while *ip < inj.pins.len() && (inj.pins[*ip].0 as usize) < pos {
        *ip += 1;
    }
    let s = cc.in_start[pos] as usize;
    let e = cc.in_start[pos + 1] as usize;
    let has_pin_inj = *ip < inj.pins.len() && inj.pins[*ip].0 as usize == pos;
    let ip = *ip;
    let mut acc = if has_pin_inj {
        fetch_injected(inj, pos, 0, cc.in_nets[s], ip, read)
    } else {
        read(cc.in_nets[s])
    };
    match cc.kinds[pos] {
        GateKind::And | GateKind::Nand => {
            for (pin, &i) in cc.in_nets[s + 1..e].iter().enumerate() {
                let v = if has_pin_inj {
                    fetch_injected(inj, pos, pin + 1, i, ip, read)
                } else {
                    read(i)
                };
                acc = acc.and(v);
            }
        }
        GateKind::Or | GateKind::Nor => {
            for (pin, &i) in cc.in_nets[s + 1..e].iter().enumerate() {
                let v = if has_pin_inj {
                    fetch_injected(inj, pos, pin + 1, i, ip, read)
                } else {
                    read(i)
                };
                acc = acc.or(v);
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            for (pin, &i) in cc.in_nets[s + 1..e].iter().enumerate() {
                let v = if has_pin_inj {
                    fetch_injected(inj, pos, pin + 1, i, ip, read)
                } else {
                    read(i)
                };
                acc = acc.xor(v);
            }
        }
        GateKind::Not | GateKind::Buf => {}
    }
    if cc.kinds[pos].inverting() {
        acc = acc.not();
    }
    if *is < inj.gate_stems.len() && inj.gate_stems[*is].0 as usize == pos {
        let (_, f1, f0) = inj.gate_stems[*is];
        acc = acc.inject(f1, f0);
    }
    acc
}

/// Fetches one gate operand with its pin injection, scanning forward
/// from the pin cursor. Only called for the rare gates that carry pin
/// injections.
#[inline]
fn fetch_injected(
    inj: CycleInj<'_>,
    pos: usize,
    pin: usize,
    net: u32,
    ip: usize,
    read: impl Fn(u32) -> Planes,
) -> Planes {
    let v = read(net);
    let mut i = ip;
    while i < inj.pins.len() && inj.pins[i].0 as usize == pos {
        if inj.pins[i].1 as usize == pin {
            let (_, _, f1, f0) = inj.pins[i];
            return v.inject(f1, f0);
        }
        i += 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultSim, SimOptions};
    use crate::reference::SerialFaultSim;
    use proptest::prelude::*;
    use wbist_circuits::synthetic::{wide_fanin, SyntheticSpec};
    use wbist_netlist::{bench_format, FaultList, FaultModel, FaultUniverse, NetId};

    fn toy() -> Circuit {
        bench_format::parse(
            "toy",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(g)\ng = NAND(a, q)\ny = XOR(g, b)\n",
        )
        .unwrap()
    }

    #[test]
    fn csr_matches_circuit() {
        let c = toy();
        let cc = CompiledCircuit::build(&c);
        assert_eq!(cc.num_nets, c.num_nets());
        assert_eq!(cc.num_gates, c.num_gates());
        assert_eq!(cc.kinds.len(), 2);
        // Topo order must evaluate g before y.
        assert_eq!(cc.kinds[0], GateKind::Nand);
        assert_eq!(cc.kinds[1], GateKind::Xor);
        let g = c.net_by_name("g").unwrap().index() as u32;
        let y = c.net_by_name("y").unwrap().index() as u32;
        assert_eq!(cc.out_nets, vec![g, y]);
        // g's loads: the XOR gate (topo position 1) and DFF 0's data pin.
        let s = cc.load_start[g as usize] as usize;
        let e = cc.load_start[g as usize + 1] as usize;
        let mut loads: Vec<u32> = cc.load_codes[s..e].to_vec();
        loads.sort_unstable();
        assert_eq!(loads, vec![1, cc.num_gates as u32]);
    }

    /// The eight-at-a-time lane gather equals the bit-by-bit one at
    /// every bit of the sweep byte, on full and ragged chunks.
    #[test]
    fn lane_gather_matches_bitwise_gather() {
        for len in [64u32, 61, 3, 0] {
            let bytes: Vec<u8> = (0..len)
                .map(|i| {
                    (0..8)
                        .filter(|&b| (i as usize * 37 + b * 11).is_multiple_of(3))
                        .fold(0u8, |w, b| w | 1 << b)
                })
                .collect();
            for k in 0..8 {
                let naive = bytes
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, b)| acc | u64::from(b >> k & 1) << i);
                assert_eq!(gather(&bytes, k), naive, "{len} bytes, bit {k}");
            }
        }
    }

    /// The all-lane pack equals one [`gather`] per plane, at every plane
    /// of random bytes, over rows of whole 64-net chunks and rows with a
    /// ragged last chunk.
    #[test]
    fn row_planes_equal_per_plane_gather() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in [0usize, 1, 7, 63, 64, 65, 127, 128, 129, 200, 256, 300] {
            for _ in 0..8 {
                let bytes: Vec<u8> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect();
                let want: Vec<[u64; 8]> = bytes
                    .chunks(64)
                    .map(|c| std::array::from_fn(|k| gather(c, k)))
                    .collect();
                let got: Vec<[u64; 8]> = row_planes(&bytes).collect();
                assert_eq!(got, want, "{len} bytes");
            }
        }
    }

    /// The reads of a trace broadcast each two-bit code to every machine
    /// bit: neither bit is `X`, one bit is its value, and both bits read
    /// as 1.
    #[test]
    fn trace_reads_broadcast_the_codes() {
        // Nets 0..4 carry the codes 0..4 in row 0; row 1 is all `X`.
        let trace = GoodTrace {
            num_cycles: 2,
            rows: 2,
            period: 0,
            words: 1,
            ones: vec![0b1010, 0],
            zeros: vec![0b1100, 0],
        };
        let want = [
            Planes::ALL_X,
            Planes::ALL_ONE,
            Planes::ALL_ZERO,
            Planes::ALL_ONE,
        ];
        let scalar = [Logic3::X, Logic3::One, Logic3::Zero, Logic3::One];
        for n in 0..4 {
            assert_eq!(trace.planes(0, n), want[n], "net {n}");
            assert_eq!(trace.value(0, n), scalar[n], "net {n}");
            assert_eq!(trace.planes(1, n), Planes::ALL_X, "net {n}, row 1");
        }
    }

    #[test]
    fn good_trace_matches_logic_sim() {
        let c = toy();
        let cc = CompiledCircuit::build(&c);
        let seq = TestSequence::parse_rows(&["00", "10", "01", "11"]).unwrap();
        let (trace, final_ff) = cc.good_trace(&seq, &[Logic3::X]);
        let oracle = crate::good::LogicSim::new(&c).trace(&seq).unwrap();
        for u in 0..seq.len() {
            for n in 0..c.num_nets() {
                let expect = match oracle.value(u, NetId::from_index(n)) {
                    Logic3::One => Planes::ALL_ONE,
                    Logic3::Zero => Planes::ALL_ZERO,
                    Logic3::X => Planes::ALL_X,
                };
                assert_eq!(trace.planes(u, n), expect, "net {n} at {u}");
            }
        }
        let oracle_ff = crate::good::LogicSim::new(&c).final_state(&seq).unwrap();
        assert_eq!(final_ff, oracle_ff);
    }

    /// Which gate kinds a comparison evaluated, and whether an XOR/XNOR
    /// gate ever saw an `X` operand.
    #[derive(Default)]
    struct KindCoverage {
        kinds: Vec<GateKind>,
        xor_saw_x: bool,
    }

    /// Runs the one-lane good trace from `init` and checks every net of
    /// every cycle, plus the final state, against the scalar `LogicSim`
    /// step function started from the same state.
    fn check_good_trace(
        c: &Circuit,
        seq: &TestSequence,
        init: &[Logic3],
        cover: &mut KindCoverage,
    ) -> Result<(), TestCaseError> {
        let cc = CompiledCircuit::build(c);
        let (trace, final_ff) = cc.good_trace(seq, init);
        let state = check_trace(c, seq, &trace, init, cover)?;
        prop_assert_eq!(final_ff, state);
        Ok(())
    }

    /// Checks every net of every cycle of `trace` against the scalar
    /// `LogicSim` step function over `seq` from `init`; returns the
    /// oracle's final state.
    fn check_trace(
        c: &Circuit,
        seq: &TestSequence,
        trace: &GoodTrace,
        init: &[Logic3],
        cover: &mut KindCoverage,
    ) -> Result<Vec<Logic3>, TestCaseError> {
        prop_assert_eq!(trace.len(), seq.len());
        let mut state = init.to_vec();
        let mut nets = vec![Logic3::X; c.num_nets()];
        for u in 0..seq.len() {
            crate::good::step(c, seq.row(u), &mut state, &mut nets);
            for (n, &want) in nets.iter().enumerate() {
                prop_assert_eq!(
                    trace.value(trace.row(u), n),
                    want,
                    "net {} at cycle {}",
                    n,
                    u
                );
            }
            for &gid in c.topo_gates() {
                let g = c.gate(gid);
                if !cover.kinds.contains(&g.kind) {
                    cover.kinds.push(g.kind);
                }
                if matches!(g.kind, GateKind::Xor | GateKind::Xnor)
                    && g.inputs.iter().any(|&i| nets[i.index()] == Logic3::X)
                {
                    cover.xor_saw_x = true;
                }
            }
        }
        Ok(state)
    }

    /// A random three-valued flip-flop state (one value in three `X`).
    fn random_state(bits: &[u8]) -> Vec<Logic3> {
        bits.iter()
            .map(|&b| match b % 3 {
                0 => Logic3::Zero,
                1 => Logic3::One,
                _ => Logic3::X,
            })
            .collect()
    }

    fn random_sequence(inputs: usize, rows: &[u64]) -> TestSequence {
        TestSequence::from_rows(
            rows.iter()
                .map(|&r| (0..inputs).map(|i| (r >> (i % 64)) & 1 == 1).collect())
                .collect(),
        )
        .unwrap()
    }

    proptest! {
        /// The branch-free good trace equals `LogicSim` cycle by cycle on
        /// random synthetic circuits, from the all-`X` start and from
        /// random (partly `X`) flip-flop states.
        #[test]
        fn branch_free_good_trace_equals_logic_sim(
            seed in any::<u64>(),
            inputs in 1usize..9,
            dffs in 0usize..12,
            extra in 1usize..80,
            rows in prop::collection::vec(any::<u64>(), 1..24),
            ff_bits in prop::collection::vec(any::<u8>(), 12..13),
        ) {
            let gates = 2 * dffs + extra + 3;
            let c = SyntheticSpec::new("prop", inputs, 1 + extra % 4, dffs, gates, seed).build();
            let seq = random_sequence(inputs, &rows);
            // From the all-X start the oracle run is exactly
            // `LogicSim::trace`, which steps the same function.
            let mut cover = KindCoverage::default();
            check_good_trace(&c, &seq, &vec![Logic3::X; dffs], &mut cover)?;
            check_good_trace(&c, &seq, &random_state(&ff_bits[..dffs]), &mut cover)?;
        }

        /// A batch of sequences of mixed lengths equals `LogicSim` lane
        /// by lane, at batch sizes from one partial sweep to sixteen
        /// sweeps with a ragged last one. Lanes repeat with periods 1–4
        /// or not at all, so some stop recording early and are read
        /// through the period.
        #[test]
        fn every_lane_of_a_batched_sweep_equals_logic_sim(
            seed in any::<u64>(),
            inputs in 1usize..9,
            dffs in 0usize..12,
            extra in 1usize..60,
            size_sel in 0usize..9,
            rows in prop::collection::vec(any::<u64>(), 24..25),
            lens in prop::collection::vec(0usize..24, 64..65),
            repeats in prop::collection::vec(0usize..5, 64..65),
        ) {
            let lanes = [1usize, 2, 4, 5, 9, 17, 33, 63, 64][size_sel];
            let gates = 2 * dffs + extra + 3;
            let c = SyntheticSpec::new("prop", inputs, 1 + extra % 4, dffs, gates, seed).build();
            let cc = CompiledCircuit::build(&c);
            // Lane `l` reads the rows from offset `l`, so lanes differ,
            // and wraps after `repeats[l]` rows unless that is 0.
            let seqs: Vec<TestSequence> = (0..lanes)
                .map(|l| {
                    let wrap = if repeats[l] == 0 { rows.len() } else { repeats[l] };
                    let picked: Vec<u64> =
                        (0..lens[l]).map(|u| rows[(u % wrap + l) % rows.len()] ^ l as u64).collect();
                    random_sequence(inputs, &picked)
                })
                .collect();
            let refs: Vec<(&TestSequence, Option<usize>)> =
                seqs.iter().map(|s| (s, s.period())).collect();
            let traces = cc.good_traces(&refs);
            prop_assert_eq!(traces.len(), lanes);
            let mut cover = KindCoverage::default();
            for (seq, trace) in seqs.iter().zip(&traces) {
                check_trace(&c, seq, trace, &vec![Logic3::X; dffs], &mut cover)?;
            }
        }
    }

    /// Sweeps `lanes` sequences over `c` (lane `l` reads `lens[l]` of
    /// `rows` from offset `l`, so lanes differ), from the all-`X` state
    /// and from a random flip-flop state, and checks every lane against
    /// `LogicSim`, plus lane 0's final state when no lane outlasts it.
    fn check_every_lane(
        c: &Circuit,
        lanes: usize,
        rows: &[u64],
        lens: &[usize],
        ff_bits: &[u8],
        cover: &mut KindCoverage,
    ) -> Result<(), TestCaseError> {
        let cc = CompiledCircuit::build(c);
        let seqs: Vec<TestSequence> = (0..lanes)
            .map(|l| {
                let picked: Vec<u64> = (0..lens[l])
                    .map(|u| rows[(u + l) % rows.len()] ^ l as u64)
                    .collect();
                random_sequence(c.num_inputs(), &picked)
            })
            .collect();
        let refs: Vec<(&TestSequence, Option<usize>)> = seqs.iter().map(|s| (s, None)).collect();
        let dffs = c.num_dffs();
        for init in [vec![Logic3::X; dffs], random_state(&ff_bits[..dffs])] {
            let (traces, final_ff) = cc.sweep(&refs, &init);
            prop_assert_eq!(traces.len(), lanes);
            for (l, (seq, trace)) in seqs.iter().zip(&traces).enumerate() {
                let state = check_trace(c, seq, trace, &init, cover)?;
                // Lane 0's final state is reported; a lane past its
                // own end keeps running on `X` inputs.
                if l == 0 && seqs.iter().all(|s| s.len() <= seq.len()) {
                    prop_assert_eq!(&final_ff, &state);
                }
            }
        }
        Ok(())
    }

    proptest! {
        /// Gates of five to nine inputs, which lower to record chains
        /// through the scratch byte, equal `LogicSim` in every lane of a
        /// sweep, from the all-`X` start and from a random flip-flop state.
        #[test]
        fn every_lane_of_a_wide_gate_sweep_equals_logic_sim(
            seed in any::<u64>(),
            inputs in 1usize..9,
            dffs in 0usize..12,
            gates in 1usize..60,
            lanes in 1usize..=SWEEP_LANES,
            rows in prop::collection::vec(any::<u64>(), 24..25),
            lens in prop::collection::vec(0usize..24, SWEEP_LANES..=SWEEP_LANES),
            ff_bits in prop::collection::vec(any::<u8>(), 12..13),
        ) {
            let c = wide_fanin("wide", inputs, dffs, gates, seed);
            check_every_lane(&c, lanes, &rows, &lens, &ff_bits, &mut KindCoverage::default())?;
        }

        /// At the edge of the masked sweep buffer: `num_nets + 2` exactly
        /// a power of two, so the chain scratch byte is the last byte and
        /// the mask keeps every index, and one net more, which doubles
        /// the buffer. Every lane equals `LogicSim`.
        #[test]
        fn sweeps_at_the_mask_boundary_equal_logic_sim(
            seed in any::<u64>(),
            inputs in 1usize..9,
            dffs in 0usize..12,
            size_sel in 0usize..6,
            lanes in 1usize..=SWEEP_LANES,
            rows in prop::collection::vec(any::<u64>(), 24..25),
            lens in prop::collection::vec(0usize..12, SWEEP_LANES..=SWEEP_LANES),
            ff_bits in prop::collection::vec(any::<u8>(), 12..13),
        ) {
            let num_nets = [62usize, 63, 126, 127, 254, 255][size_sel];
            let c = wide_fanin("mask", inputs, dffs, num_nets - inputs - 2 * dffs, seed);
            prop_assert_eq!(c.num_nets(), num_nets);
            check_every_lane(&c, lanes, &rows, &lens, &ff_bits, &mut KindCoverage::default())?;
        }
    }

    /// The wide-gate family exercises every gate kind, two- and
    /// three-record chains, and `X` into wide XOR/XNOR gates.
    #[test]
    fn wide_gate_property_covers_every_kind_and_chain_length() {
        let mut cover = KindCoverage::default();
        let mut chains = [false; 2];
        for seed in 0..8u64 {
            let c = wide_fanin("cover", 6, 8, 40, seed);
            let cc = CompiledCircuit::build(&c);
            assert!(cc.sweep_recs.len() > cc.num_gates, "no record chain");
            for g in c.gates() {
                match g.inputs.len() {
                    5..=7 => chains[0] = true,
                    8.. => chains[1] = true,
                    _ => {}
                }
            }
            let rows: Vec<u64> = (0..16u64)
                .map(|u| (u + 5).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed)
                .collect();
            let seq = random_sequence(6, &rows);
            let bits: Vec<u8> = (0..8u8).map(|k| k.wrapping_mul(5) ^ seed as u8).collect();
            for init in [vec![Logic3::X; 8], random_state(&bits)] {
                check_good_trace(&c, &seq, &init, &mut cover).unwrap();
            }
        }
        assert_eq!(chains, [true, true], "two- and three-record chains");
        assert_eq!(cover.kinds.len(), 8, "every gate kind: {:?}", cover.kinds);
        assert!(cover.xor_saw_x, "no wide XOR/XNOR gate saw an X operand");
    }

    /// The generator family the property test draws from exercises every
    /// gate kind and feeds `X` into XOR/XNOR gates, so the property is
    /// not vacuous on any of the kind recipes.
    #[test]
    fn good_trace_property_covers_every_gate_kind_and_x_into_xor() {
        let mut cover = KindCoverage::default();
        for seed in 0..12u64 {
            let c = SyntheticSpec::new("cover", 6, 3, 8, 120, seed).build();
            let rows: Vec<u64> = (0..16u64)
                .map(|u| (u + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed)
                .collect();
            let seq = random_sequence(6, &rows);
            let bits: Vec<u8> = (0..8u8).map(|k| k.wrapping_mul(7) ^ seed as u8).collect();
            for init in [vec![Logic3::X; 8], random_state(&bits)] {
                check_good_trace(&c, &seq, &init, &mut cover).unwrap();
            }
        }
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
        ] {
            assert!(cover.kinds.contains(&kind), "{kind:?} never evaluated");
        }
        assert!(cover.xor_saw_x, "no XOR/XNOR gate saw an X operand");
    }

    /// Detection times of the compiled kernel at 1 and 2 threads,
    /// compared fault by fault with the serial
    /// oracle, under both fault models, over every stem, pin and
    /// DFF-data fault. Returns the stuck-at times, stem and pin faults
    /// first (`FaultUniverse::enumerate` order), then DFF-data faults
    /// (s-a-0 then s-a-1 per flip-flop).
    fn assert_matches_serial(c: &Circuit, seq: &TestSequence) -> Vec<Option<usize>> {
        let serial = SerialFaultSim::new(c);
        let mut stuck_at = Vec::new();
        for model in [FaultModel::StuckAt, FaultModel::TransitionDelay] {
            let mut faults = FaultUniverse::enumerate(model, c).faults().to_vec();
            for k in 0..c.num_dffs() {
                for polarity in [false, true] {
                    faults.push(Fault::of(model, FaultSite::DffData(k), polarity));
                }
            }
            let faults = FaultList::from_faults(faults);
            let want: Vec<Option<usize>> = faults
                .iter()
                .map(|&f| serial.detection_time(f, seq))
                .collect();
            for threads in [1, 2] {
                let got = FaultSim::with_options(c, SimOptions::with_threads(threads))
                    .query(&faults)
                    .sequence(seq)
                    .detection_times();
                assert_eq!(got, want, "{model:?} at {threads} threads");
            }
            if model == FaultModel::StuckAt {
                stuck_at = want;
            }
        }
        stuck_at
    }

    #[test]
    fn dff_data_fault_is_observed_one_frame_later() {
        // d is both a primary output and the flip-flop's data net; y
        // shows the flip-flop's state. A fault on the value *loaded*
        // into the flip-flop cannot show on d in its own cycle — only on
        // y, one frame later — while the stem fault on d shows at once.
        let c = bench_format::parse(
            "dff_frame",
            "INPUT(a)\nINPUT(b)\nOUTPUT(d)\nOUTPUT(y)\nq = DFF(d)\nd = AND(a, b)\ny = NOT(q)\n",
        )
        .unwrap();
        let seq = TestSequence::parse_rows(&["11", "00", "11", "00"]).unwrap();
        let times = assert_matches_serial(&c, &seq);
        let d = c.net_by_name("d").unwrap().index();
        // Stem faults come in (s-a-0, s-a-1) pairs per net; the DFF-data
        // pair closes the list.
        assert_eq!(times[2 * d], Some(0), "d s-a-0 shows on d at once");
        assert_eq!(
            times[times.len() - 2],
            Some(1),
            "DFF-data s-a-0 shows a frame later"
        );
    }

    /// Many disjoint copies of one small sequential block, the way
    /// s35932 repeats its cells: the fault list spans several batches,
    /// and every batch's faults live in a few blocks, so most observed
    /// nets sit outside what a batch can ever disturb.
    fn repeated_blocks(blocks: usize) -> Circuit {
        let mut text = String::new();
        for j in 0..blocks {
            text += &format!("INPUT(a{j})\nINPUT(b{j})\nOUTPUT(y{j})\nOUTPUT(z{j})\n");
        }
        for j in 0..blocks {
            text += &format!(
                "q{j} = DFF(d{j})\nd{j} = NAND(a{j}, q{j})\nn{j} = NOR(d{j}, b{j})\n\
                 y{j} = XOR(n{j}, q{j})\nz{j} = AND(q{j}, b{j})\n"
            );
        }
        bench_format::parse("blocks", &text).unwrap()
    }

    #[test]
    fn multi_batch_blocks_match_serial_and_reference() {
        let c = repeated_blocks(24);
        let faults = FaultUniverse::enumerate(FaultModel::StuckAt, &c);
        assert!(faults.len() > 3 * 63, "needs several 64-bit batches");
        let rows: Vec<u64> = (0..20u64)
            .map(|u| (u + 3).wrapping_mul(0x2545_f491_4f6c_dd1d))
            .collect();
        let seq = random_sequence(c.num_inputs(), &rows);
        let times = assert_matches_serial(&c, &seq);
        assert!(times.iter().any(Option::is_some) && times.iter().any(Option::is_none));
        // The observable-lines query reads the dirty list directly; the
        // reference kernel reports every net that ever differed.
        let compiled = FaultSim::new(&c)
            .query(&faults)
            .sequence(&seq)
            .observable_lines();
        let reference = FaultSim::with_options(&c, SimOptions::default().reference_kernel(true))
            .query(&faults)
            .sequence(&seq)
            .observable_lines();
        assert_eq!(compiled, reference);
    }
}
