//! Prefix-shared incremental candidate evaluation.
//!
//! The selection walk of `wbist-core` evaluates dozens of generated
//! sequences `T_G` per segment, and consecutive candidate ranks share
//! long sequence prefixes by construction (periodic per-input streams
//! change one input's period at a time, and clamped ranks literally
//! repeat sequences). A [`PrefixTraceCache`] exploits that on the
//! faulty side: it keeps the last few evaluated sequences together with
//! their per-batch faulty-plane state snapshotted at checkpointed cycles
//! (`compiled::BatchCkpt`). A dense detection query looks up the cached
//! sequence sharing the longest input prefix when it runs and resumes
//! each fault batch from the latest snapshot at or before the
//! divergence cycle instead of from cycle 0, with the dirty-set
//! worklists reseeded from the restored state.
//!
//! The good machine needs no cache: the caller prepares the fault-free
//! traces of the sequences it is about to evaluate in one lane-parallel
//! sweep (`FaultSim::prepare_sequences`), which costs about what one
//! trace does. Spilled snapshots, which store flip-flop planes relative
//! to the good machine, are restored against the running query's own
//! trace — identical to the capture trace on every row before the
//! divergence cycle.
//!
//! # Exactness
//!
//! Resumed runs are **bit-identical** to from-scratch runs, including
//! the deterministic telemetry counters: every snapshot stores the
//! complete kernel state at a cycle boundary — live mask, flip-flop
//! planes, the explicit dirty-flip-flop set, cumulative batch stats,
//! and the detections found so far — so a resumed batch replays
//! exactly the suffix the
//! from-scratch run would have executed and credits exactly the stats it
//! would have accumulated. The dirty set is restored explicitly rather
//! than recomputed: a flip-flop whose faulty planes happen to agree with
//! the good machine can still be flagged dirty mid-run (it goes clean
//! only at its next examination), and recomputing the flags would skip
//! that examination and undercount `gates_evaluated`.
//!
//! Faulty-plane artifacts are keyed by a fingerprint of the fault list
//! they were simulated against; a query over a different list (the
//! screening sample, say) simply misses. The cache itself
//! is a plain value owned by the selection loop — it is never persisted
//! to checkpoints, never hashed into the run configuration, and cleared
//! whenever the segment snapshot it was built under changes.

use std::sync::Arc;

use crate::compiled::{BatchCkpt, BatchStats, GoodTrace};
use crate::plane::Planes;
use crate::sequence::TestSequence;
use crate::word::Word;
use wbist_netlist::{FaultList, FaultModel, FaultSite};

/// Entries kept per cache (the last few committed candidates). Small by
/// design: consecutive ranks diverge from a recent sequence or not at
/// all, and each entry can pin per-batch plane snapshots.
const CACHE_CAP: usize = 4;

/// Hard byte budget for one entry's spilled snapshots. Enforced with a
/// deterministic eviction order by [`enforce_spill_budget`].
pub(crate) const SPILL_BYTE_BUDGET: usize = 16 << 20;

/// A [`BatchCkpt`] compressed against the good trace it was captured
/// under. Faulty flip-flop planes are near-identical to the fault-free
/// machine, so each plane pair is classified per flip-flop: exactly
/// all-`X` (one bitmap bit), exactly the broadcast good value entering
/// `cycle` (one bitmap bit), or an explicit XOR delta against that
/// broadcast (two plane words). The first two classes dominate — a
/// mid-run snapshot holds broadcast values for every flip-flop the
/// batch never dirtied — so an s35932-class snapshot shrinks from
/// `2 × FFs` plane words to two bitmaps plus a short delta list.
///
/// Restoring against a trace whose rows before `cycle` match the
/// capture trace (guaranteed: snapshots are only resumed at or before
/// the divergence cycle) reproduces the raw checkpoint bit-exactly —
/// XOR round-trips, and the class tags are checked in the same order on
/// both sides.
#[derive(Debug)]
pub(crate) struct SpilledCkpt<W> {
    /// The cycle the snapshot resumes at (state *entering* this cycle).
    pub(crate) cycle: usize,
    /// Live fault mask entering `cycle`.
    pub(crate) live: W,
    /// Flip-flop indices flagged dirty entering `cycle`.
    pub(crate) dirty_dffs: Vec<u32>,
    /// Cumulative kernel stats over cycles `0..cycle`.
    pub(crate) stats: BatchStats,
    /// Detections `(fault index, cycle)` recorded before `cycle`.
    pub(crate) found: Vec<(usize, usize)>,
    /// Flip-flop count of the raw checkpoint (bitmap padding excluded).
    num_dffs: usize,
    /// Bit `k`: flip-flop `k`'s planes are exactly all-`X`.
    x_bits: Vec<u64>,
    /// Bit `k`: flip-flop `k`'s planes equal the broadcast good value.
    good_bits: Vec<u64>,
    /// XOR deltas vs. the broadcast good value for every remaining
    /// flip-flop, ascending by index.
    deltas: Vec<Planes<W>>,
}

impl<W: Word> SpilledCkpt<W> {
    /// The broadcast good-machine value of flip-flop `k` entering
    /// `cycle`: its D input at the previous cycle. Snapshots are taken
    /// at cycle boundaries `u + 1 ≥ 1`, so the row always exists.
    #[inline]
    fn good_plane(trace: &GoodTrace, dff_d: &[u32], cycle: usize, k: usize) -> Planes<W> {
        debug_assert!(cycle >= 1);
        trace.planes(cycle - 1, dff_d[k] as usize)
    }

    /// Compresses a raw checkpoint against the trace it was captured
    /// under.
    pub(crate) fn compress(ck: &BatchCkpt<W>, trace: &GoodTrace, dff_d: &[u32]) -> SpilledCkpt<W> {
        let words = ck.ff.len().div_ceil(64);
        let mut x_bits = vec![0u64; words];
        let mut good_bits = vec![0u64; words];
        let mut deltas = Vec::new();
        for (k, &p) in ck.ff.iter().enumerate() {
            if p == Planes::ALL_X {
                x_bits[k / 64] |= 1u64 << (k % 64);
                continue;
            }
            let good = SpilledCkpt::good_plane(trace, dff_d, ck.cycle, k);
            if p == good {
                good_bits[k / 64] |= 1u64 << (k % 64);
            } else {
                deltas.push(Planes {
                    ones: p.ones ^ good.ones,
                    zeros: p.zeros ^ good.zeros,
                });
            }
        }
        SpilledCkpt {
            cycle: ck.cycle,
            live: ck.live,
            dirty_dffs: ck.dirty_dffs.clone(),
            stats: ck.stats,
            found: ck.found.clone(),
            num_dffs: ck.ff.len(),
            x_bits,
            good_bits,
            deltas,
        }
    }

    /// Reconstructs the raw checkpoint. `trace` must agree with the
    /// capture trace on rows before `cycle` (true for any trace sharing
    /// at least `cycle` prefix rows with the capture sequence).
    pub(crate) fn restore(&self, trace: &GoodTrace, dff_d: &[u32]) -> BatchCkpt<W> {
        let mut ff = Vec::with_capacity(self.num_dffs);
        let mut next = self.deltas.iter();
        for k in 0..self.num_dffs {
            let bit = 1u64 << (k % 64);
            if self.x_bits[k / 64] & bit != 0 {
                ff.push(Planes::ALL_X);
            } else if self.good_bits[k / 64] & bit != 0 {
                ff.push(SpilledCkpt::good_plane(trace, dff_d, self.cycle, k));
            } else {
                let d = *next.next().expect("one delta per unclassified flip-flop");
                let good: Planes<W> = SpilledCkpt::good_plane(trace, dff_d, self.cycle, k);
                ff.push(Planes {
                    ones: d.ones ^ good.ones,
                    zeros: d.zeros ^ good.zeros,
                });
            }
        }
        debug_assert!(next.next().is_none(), "every delta consumed");
        BatchCkpt {
            cycle: self.cycle,
            live: self.live,
            ff,
            dirty_dffs: self.dirty_dffs.clone(),
            stats: self.stats,
            found: self.found.clone(),
        }
    }

    /// Approximate heap footprint, for the byte budget.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<SpilledCkpt<W>>()
            + self.dirty_dffs.len() * std::mem::size_of::<u32>()
            + self.found.len() * std::mem::size_of::<(usize, usize)>()
            + (self.x_bits.len() + self.good_bits.len()) * 8
            + self.deltas.len() * std::mem::size_of::<Planes<W>>()
    }
}

/// Enforces the spilled-snapshot byte budget in a deterministic order:
/// while over budget, evict the earliest-cycle snapshot among batches
/// that still hold more than one (ties to the lowest batch index) —
/// late snapshots are the valuable resume points, candidate divergences
/// cluster near the end of a sequence. If a single snapshot per batch
/// still exceeds the budget, batches are emptied in ascending index
/// order until the rest fit. Returns the resulting total byte count.
pub(crate) fn enforce_spill_budget<W: Word>(
    batches: &mut [Vec<Arc<SpilledCkpt<W>>>],
    budget: usize,
) -> usize {
    let mut total: usize = batches.iter().flatten().map(|s| s.bytes()).sum();
    while total > budget {
        let pick = batches
            .iter()
            .enumerate()
            .filter(|(_, list)| list.len() > 1)
            .min_by_key(|(bi, list)| (list[0].cycle, *bi))
            .map(|(bi, _)| bi);
        match pick {
            Some(bi) => total -= batches[bi].remove(0).bytes(),
            None => break,
        }
    }
    if total > budget {
        for list in batches.iter_mut() {
            while let Some(s) = list.pop() {
                total -= s.bytes();
            }
            if total <= budget {
                break;
            }
        }
    }
    total
}

/// Per-batch snapshots in whichever representation the capture guard
/// chose: raw plane vectors under the plane cap, compressed spill
/// above it. The choice is a pure function of `batches × flip-flops`,
/// so a cached store always matches the representation a rerun of the
/// same query would pick.
#[derive(Debug)]
pub(crate) enum SnapshotStore<W> {
    /// Raw snapshots, ascending by cycle within each batch.
    Raw(Vec<Vec<Arc<BatchCkpt<W>>>>),
    /// Compressed snapshots, ascending by cycle within each batch.
    Spilled(Vec<Vec<Arc<SpilledCkpt<W>>>>),
}

impl<W> SnapshotStore<W> {
    /// Number of batches the store was captured over.
    pub(crate) fn num_batches(&self) -> usize {
        match self {
            SnapshotStore::Raw(pb) => pb.len(),
            SnapshotStore::Spilled(pb) => pb.len(),
        }
    }
}

/// Per-batch faulty-plane snapshots, valid for one (sequence, fault
/// list, word width) triple.
#[derive(Debug)]
pub(crate) struct FaultyArtifacts<W> {
    /// Fingerprint of the fault list the snapshots were taken against.
    pub(crate) fingerprint: u64,
    /// Snapshots per batch.
    pub(crate) store: SnapshotStore<W>,
}

/// Width-erased faulty artifacts: the cache stores whatever lane width
/// produced the snapshots, and a query at a different width simply
/// misses (batch partitioning and machine-bit assignment are
/// width-specific, so cross-width resume is meaningless).
#[derive(Debug)]
pub(crate) enum AnyArtifacts {
    W64(FaultyArtifacts<u64>),
    W128(FaultyArtifacts<u128>),
    #[cfg(feature = "w256")]
    W256(FaultyArtifacts<crate::word::W256>),
}

/// Selects the lane-typed artifacts out of the width-erased enum.
/// Implemented per lane type so the generic dense-query engine can
/// recover its own width's snapshots (and wrap new ones) without the
/// public cache surface becoming generic.
pub(crate) trait ArtifactLane: Word {
    fn from_any(any: &AnyArtifacts) -> Option<&FaultyArtifacts<Self>>
    where
        Self: Sized;
    fn into_any(artifacts: FaultyArtifacts<Self>) -> AnyArtifacts
    where
        Self: Sized;
}

impl ArtifactLane for u64 {
    fn from_any(any: &AnyArtifacts) -> Option<&FaultyArtifacts<u64>> {
        match any {
            AnyArtifacts::W64(fa) => Some(fa),
            _ => None,
        }
    }

    fn into_any(artifacts: FaultyArtifacts<u64>) -> AnyArtifacts {
        AnyArtifacts::W64(artifacts)
    }
}

impl ArtifactLane for u128 {
    fn from_any(any: &AnyArtifacts) -> Option<&FaultyArtifacts<u128>> {
        match any {
            AnyArtifacts::W128(fa) => Some(fa),
            _ => None,
        }
    }

    fn into_any(artifacts: FaultyArtifacts<u128>) -> AnyArtifacts {
        AnyArtifacts::W128(artifacts)
    }
}

#[cfg(feature = "w256")]
impl ArtifactLane for crate::word::W256 {
    fn from_any(any: &AnyArtifacts) -> Option<&FaultyArtifacts<crate::word::W256>> {
        match any {
            AnyArtifacts::W256(fa) => Some(fa),
            _ => None,
        }
    }

    fn into_any(artifacts: FaultyArtifacts<crate::word::W256>) -> AnyArtifacts {
        AnyArtifacts::W256(artifacts)
    }
}

/// A sequence with its faulty-plane snapshots: produced by the dense
/// query [`Query::outcome`](crate::Query::outcome), installed as one
/// entry of a [`PrefixTraceCache`]. Opaque to callers: the selection
/// loop decides *when* committed results enter the cache (commit order
/// makes the cache state deterministic), the simulator decides *what* is
/// worth keeping.
#[derive(Debug)]
pub struct CacheInstall {
    pub(crate) seq: TestSequence,
    pub(crate) faulty: AnyArtifacts,
}

/// Cache of recently evaluated sequences, looked up by longest common
/// row prefix. See the [module documentation](self).
#[derive(Debug, Default)]
pub struct PrefixTraceCache {
    entries: Vec<CacheInstall>,
}

impl PrefixTraceCache {
    /// An empty cache.
    pub fn new() -> PrefixTraceCache {
        PrefixTraceCache::default()
    }

    /// Forgets every entry. Called whenever the state the entries were
    /// evaluated under changes (a kept assignment, a new target fault,
    /// a resumed run).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of cached sequences.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs a committed evaluation. An identical sequence replaces
    /// its entry; otherwise the entry is appended and the oldest entry
    /// beyond the cap is evicted.
    pub fn install(&mut self, inst: CacheInstall) {
        self.entries.retain(|e| e.seq != inst.seq);
        self.entries.push(inst);
        if self.entries.len() > CACHE_CAP {
            self.entries.remove(0);
        }
    }

    /// The entry sharing the longest row prefix with `seq`, as
    /// `(entry index, shared rows)`; ties prefer the most recently
    /// installed entry. `None` when nothing shares even the first row.
    pub(crate) fn best_prefix(&self, seq: &TestSequence) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize)> = None;
        for (i, entry) in self.entries.iter().enumerate() {
            let d = common_prefix_rows(&entry.seq, seq);
            if d >= 1 && best.is_none_or(|(_, bd)| d >= bd) {
                best = Some((i, d));
            }
        }
        best
    }

    pub(crate) fn entry(&self, i: usize) -> &CacheInstall {
        &self.entries[i]
    }
}

/// Number of leading time units on which `a` and `b` apply identical
/// input vectors (0 when the input widths differ).
pub(crate) fn common_prefix_rows(a: &TestSequence, b: &TestSequence) -> usize {
    if a.num_inputs() != b.num_inputs() {
        return 0;
    }
    let n = a.len().min(b.len());
    (0..n).take_while(|&u| a.row(u) == b.row(u)).count()
}

/// FNV-1a fingerprint of a fault list: faulty-plane snapshots are only
/// resumable against the exact list (same faults, same order — batching
/// and bit assignment follow list order).
pub(crate) fn fault_fingerprint(faults: &FaultList) -> u64 {
    let mut h = Fnv::new();
    h.int(faults.len() as u64);
    for f in faults.iter() {
        h.int(match f.model() {
            FaultModel::StuckAt => 0,
            FaultModel::TransitionDelay => 1,
        });
        match f.site() {
            FaultSite::Stem(net) => {
                h.int(0);
                h.int(net.index() as u64);
            }
            FaultSite::GatePin { gate, pin } => {
                h.int(1);
                h.int(gate.index() as u64);
                h.int(pin as u64);
            }
            FaultSite::DffData(k) => {
                h.int(2);
                h.int(k as u64);
            }
        }
        h.int(f.polarity() as u64);
    }
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn int(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledCircuit;
    use crate::logic::Logic3;
    use wbist_netlist::{bench_format, Fault, NetId};

    fn seq(rows: &[&str]) -> TestSequence {
        TestSequence::parse_rows(rows).expect("valid rows")
    }

    fn install_of(rows: &[&str]) -> CacheInstall {
        CacheInstall {
            seq: seq(rows),
            faulty: AnyArtifacts::W64(FaultyArtifacts {
                fingerprint: 0,
                store: SnapshotStore::Raw(Vec::new()),
            }),
        }
    }

    #[test]
    fn common_prefix_counts_rows() {
        let a = seq(&["00", "01", "10"]);
        let b = seq(&["00", "01", "11"]);
        assert_eq!(common_prefix_rows(&a, &b), 2);
        assert_eq!(common_prefix_rows(&a, &a), 3);
        let short = seq(&["00"]);
        assert_eq!(common_prefix_rows(&a, &short), 1);
        let wide = seq(&["000"]);
        assert_eq!(common_prefix_rows(&a, &wide), 0);
        let cold = seq(&["11", "01"]);
        assert_eq!(common_prefix_rows(&a, &cold), 0);
    }

    #[test]
    fn lookup_prefers_longest_then_most_recent() {
        let mut cache = PrefixTraceCache::new();
        cache.install(install_of(&["00", "11", "00", "11"]));
        cache.install(install_of(&["00", "11", "01", "11"]));
        let probe = seq(&["00", "11", "01", "10"]);
        let (idx, d) = cache.best_prefix(&probe).expect("shares a prefix");
        assert_eq!((idx, d), (1, 3), "longest prefix wins");
        // An exact duplicate of entry 0 ties entry 0's length against
        // nothing — full-length match reaches its own entry.
        let dup = seq(&["00", "11", "00", "11"]);
        assert_eq!(cache.best_prefix(&dup), Some((0, 4)));
        assert_eq!(cache.best_prefix(&seq(&["10", "00"])), None);
    }

    #[test]
    fn install_caps_and_refreshes() {
        let mut cache = PrefixTraceCache::new();
        let variants: Vec<Vec<String>> = (0..6)
            .map(|i| vec![format!("{:02b}", i % 4), format!("{:02b}", i / 2)])
            .collect();
        for v in &variants {
            let rows: Vec<&str> = v.iter().map(String::as_str).collect();
            cache.install(install_of(&rows));
        }
        assert!(cache.len() <= CACHE_CAP);
        // Reinstalling an existing sequence must not grow the cache.
        let rows: Vec<&str> = variants[5].iter().map(String::as_str).collect();
        let before = cache.len();
        cache.install(install_of(&rows));
        assert_eq!(cache.len(), before);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn spill_round_trips_bit_exactly() {
        let c = bench_format::parse(
            "toy",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(g)\ng = NAND(a, q)\ny = XOR(g, b)\n",
        )
        .unwrap();
        let cc = CompiledCircuit::build(&c);
        let s = seq(&["00", "01", "10", "11"]);
        let (t, _) = cc.good_trace(&s, &[Logic3::X]);
        for cycle in 1..=s.len() {
            let good: Planes<u64> = t.planes(cycle - 1, cc.dff_d[0] as usize);
            // One case per plane class: all-X, exactly-good, XOR delta.
            let delta = Planes {
                ones: good.ones ^ 0b100,
                zeros: good.zeros,
            };
            for ffv in [Planes::ALL_X, good, delta] {
                let ck = BatchCkpt {
                    cycle,
                    live: 0b110u64,
                    ff: vec![ffv],
                    dirty_dffs: vec![0],
                    stats: BatchStats::default(),
                    found: vec![(7, 0)],
                };
                let sp = SpilledCkpt::compress(&ck, &t, &cc.dff_d);
                let back = sp.restore(&t, &cc.dff_d);
                assert_eq!(back.ff, ck.ff);
                assert_eq!(back.cycle, ck.cycle);
                assert_eq!(back.live, ck.live);
                assert_eq!(back.dirty_dffs, ck.dirty_dffs);
                assert_eq!(back.found, ck.found);
            }
        }
    }

    #[test]
    fn spill_budget_evicts_earliest_cycles_first() {
        let c = bench_format::parse(
            "toy",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(g)\ng = NAND(a, q)\ny = XOR(g, b)\n",
        )
        .unwrap();
        let cc = CompiledCircuit::build(&c);
        let s = seq(&["00", "01", "10", "11"]);
        let (t, _) = cc.good_trace(&s, &[Logic3::X]);
        let snap = |cycle: usize| {
            let ck = BatchCkpt {
                cycle,
                live: 0b10u64,
                ff: vec![Planes::ALL_X],
                dirty_dffs: Vec::new(),
                stats: BatchStats::default(),
                found: Vec::new(),
            };
            Arc::new(SpilledCkpt::compress(&ck, &t, &cc.dff_d))
        };
        let mut batches = vec![
            vec![snap(1), snap(2), snap(3)],
            vec![snap(1), snap(2), snap(3)],
        ];
        let total: usize = batches.iter().flatten().map(|s| s.bytes()).sum();
        // One over budget: exactly batch 0's earliest snapshot goes.
        let after = enforce_spill_budget(&mut batches, total - 1);
        assert!(after < total);
        assert_eq!(
            batches[0].iter().map(|s| s.cycle).collect::<Vec<_>>(),
            [2, 3]
        );
        assert_eq!(batches[1].len(), 3);
        // An impossible budget empties the store, never panics.
        assert_eq!(enforce_spill_budget(&mut batches, 1), 0);
        assert!(batches.iter().all(Vec::is_empty));
    }

    #[test]
    fn fingerprint_separates_fault_lists() {
        let a = FaultList::from_faults(vec![Fault::sa0(FaultSite::Stem(NetId::from_index(3)))]);
        let b = FaultList::from_faults(vec![Fault::sa1(FaultSite::Stem(NetId::from_index(3)))]);
        let c = FaultList::from_faults(vec![Fault::sa0(FaultSite::DffData(3))]);
        // Same site and polarity under a different model must not alias:
        // snapshots taken against stuck-at faults are meaningless for a
        // transition query over the same lines.
        let d = FaultList::from_faults(vec![Fault::slow_to_rise(FaultSite::Stem(
            NetId::from_index(3),
        ))]);
        assert_ne!(fault_fingerprint(&a), fault_fingerprint(&b));
        assert_ne!(fault_fingerprint(&a), fault_fingerprint(&c));
        assert_ne!(fault_fingerprint(&a), fault_fingerprint(&d));
        assert_ne!(fault_fingerprint(&b), fault_fingerprint(&d));
        assert_eq!(fault_fingerprint(&a), fault_fingerprint(&a.clone()));
    }
}
