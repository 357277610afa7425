//! Fault-model-agnostic fault enumeration and structural collapsing.
//!
//! A [`Fault`] is a model-tagged descriptor: the same structural
//! [`FaultSite`]s carry either single stuck-at faults or transition-delay
//! (gate-delay) faults, selected by [`FaultModel`]. Enumeration and
//! collapsing are per-model through [`FaultUniverse`]:
//!
//! * [`FaultUniverse::enumerate`] — the uncollapsed universe: both
//!   polarities on every stem (net) and on every gate input pin.
//! * [`FaultUniverse::collapsed`] — the universe reduced by structural
//!   equivalence. For stuck-at faults: fanout-free branch ≡ stem;
//!   controlling-value input ≡ output; inverter/buffer input ≡ output.
//!   For transition-delay faults the controlling-value rule is invalid
//!   (a delay fault needs a transition, not a static controlling value),
//!   so only the branch and inverter/buffer rules apply.
//! * [`FaultUniverse::checkpoints`] — the classic *checkpoint* set: both
//!   polarities on every primary input, every flip-flop output (pseudo
//!   primary input) and every fanout branch. This is the convention used by
//!   the sequential ATPG literature the reproduced paper builds on: it
//!   yields exactly 32 faults for ISCAS-89 `s27` (the paper's
//!   `f_0 … f_31`) and 22 for the combinational `c17`.
//!
//! The stuck-at constructors on [`FaultList`] (`all_lines`, `checkpoints`,
//! `collapsed`) remain as thin wrappers over the universe enumerator.
//!
//! Fault identity is positional: a [`Fault`] is meaningful only together
//! with the circuit and model it was enumerated from. Ordering is stable
//! across models — all stuck-at faults sort before all transition-delay
//! faults, then by site and polarity.

use std::fmt;

use crate::circuit::{Circuit, Driver, GateId, Load, NetId};

/// The structural location of a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// On a net at its driver (affects every load).
    Stem(NetId),
    /// On one input pin of one gate (affects only that gate).
    GatePin {
        /// The consuming gate.
        gate: GateId,
        /// Zero-based pin position.
        pin: usize,
    },
    /// On the data input of the flip-flop with this index (affects only the
    /// value loaded into that flip-flop).
    DffData(usize),
}

/// A fault model: the behavioural interpretation of a [`FaultSite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultModel {
    /// Single stuck-at faults: the site is permanently tied to a value.
    StuckAt,
    /// Transition-delay (gate-delay) faults: the site is slow to make one
    /// transition. A slow-to-rise fault holds the old `0` for one extra
    /// cycle whenever the fault-free value rises; dually for slow-to-fall.
    TransitionDelay,
}

impl FaultModel {
    /// Every supported model, in canonical (ordering) order.
    pub const ALL: [FaultModel; 2] = [FaultModel::StuckAt, FaultModel::TransitionDelay];

    /// Canonical CLI name: `stuck-at` or `transition`.
    pub fn name(self) -> &'static str {
        match self {
            FaultModel::StuckAt => "stuck-at",
            FaultModel::TransitionDelay => "transition",
        }
    }

    /// Parses a CLI name (`stuck-at`/`stuckat`/`sa`, `transition`/`td`).
    pub fn parse(s: &str) -> Option<FaultModel> {
        match s {
            "stuck-at" | "stuckat" | "sa" => Some(FaultModel::StuckAt),
            "transition" | "transition-delay" | "td" => Some(FaultModel::TransitionDelay),
            _ => None,
        }
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single fault: a structural site interpreted under a fault model.
///
/// The derived ordering sorts all stuck-at faults before all
/// transition-delay faults, then by site, then by polarity — stable no
/// matter which models are mixed in one list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Fault {
    /// The site is permanently stuck at `stuck`.
    StuckAt {
        /// Where the fault sits.
        site: FaultSite,
        /// The stuck value: `false` = stuck-at-0, `true` = stuck-at-1.
        stuck: bool,
    },
    /// The site is slow to transition to `slow_to`: whenever the
    /// fault-free value changes from `!slow_to` to `slow_to` between two
    /// consecutive cycles, the faulty machine still sees `!slow_to` in the
    /// capture cycle.
    TransitionDelay {
        /// Where the fault sits.
        site: FaultSite,
        /// The delayed destination value: `true` = slow-to-rise,
        /// `false` = slow-to-fall.
        slow_to: bool,
    },
}

impl Fault {
    /// Stuck-at-0 at `site`.
    pub fn sa0(site: FaultSite) -> Self {
        Fault::StuckAt { site, stuck: false }
    }

    /// Stuck-at-1 at `site`.
    pub fn sa1(site: FaultSite) -> Self {
        Fault::StuckAt { site, stuck: true }
    }

    /// Slow-to-rise transition-delay fault at `site`.
    pub fn slow_to_rise(site: FaultSite) -> Self {
        Fault::TransitionDelay {
            site,
            slow_to: true,
        }
    }

    /// Slow-to-fall transition-delay fault at `site`.
    pub fn slow_to_fall(site: FaultSite) -> Self {
        Fault::TransitionDelay {
            site,
            slow_to: false,
        }
    }

    /// Builds the fault of `model` at `site` with the given polarity
    /// (stuck value for stuck-at, destination value for transition-delay).
    pub fn of(model: FaultModel, site: FaultSite, polarity: bool) -> Self {
        match model {
            FaultModel::StuckAt => Fault::StuckAt {
                site,
                stuck: polarity,
            },
            FaultModel::TransitionDelay => Fault::TransitionDelay {
                site,
                slow_to: polarity,
            },
        }
    }

    /// The structural site the fault sits on.
    pub fn site(&self) -> FaultSite {
        match *self {
            Fault::StuckAt { site, .. } | Fault::TransitionDelay { site, .. } => site,
        }
    }

    /// The fault model this descriptor belongs to.
    pub fn model(&self) -> FaultModel {
        match self {
            Fault::StuckAt { .. } => FaultModel::StuckAt,
            Fault::TransitionDelay { .. } => FaultModel::TransitionDelay,
        }
    }

    /// The polarity bit: the stuck value for a stuck-at fault, the delayed
    /// destination value for a transition-delay fault.
    pub fn polarity(&self) -> bool {
        match *self {
            Fault::StuckAt { stuck, .. } => stuck,
            Fault::TransitionDelay { slow_to, .. } => slow_to,
        }
    }

    /// The same fault relocated to a different site (used when translating
    /// faults between structurally related circuits).
    pub fn with_site(&self, site: FaultSite) -> Self {
        Fault::of(self.model(), site, self.polarity())
    }

    /// The model-specific polarity suffix: `s-a-0`/`s-a-1` for stuck-at,
    /// `slow-to-rise`/`slow-to-fall` for transition-delay.
    fn kind_suffix(&self) -> &'static str {
        match *self {
            Fault::StuckAt { stuck: false, .. } => "s-a-0",
            Fault::StuckAt { stuck: true, .. } => "s-a-1",
            Fault::TransitionDelay { slow_to: true, .. } => "slow-to-rise",
            Fault::TransitionDelay { slow_to: false, .. } => "slow-to-fall",
        }
    }

    /// A named, displayable view resolving net names against `c`, e.g.
    /// `G11 s-a-1` or `G10<-G3' (pin 1) slow-to-rise`.
    pub fn display<'a>(&'a self, c: &'a Circuit) -> FaultDisplay<'a> {
        FaultDisplay { fault: self, c }
    }

    /// Human-readable description, e.g. `G11/G10.1 s-a-1`. Equivalent to
    /// `self.display(c).to_string()`.
    pub fn describe(&self, c: &Circuit) -> String {
        self.display(c).to_string()
    }
}

/// Circuit-free positional rendering: `net#4 s-a-1`, `pin#2.0
/// slow-to-fall`, `dff#1<-data s-a-0`. Use [`Fault::display`] for named
/// output.
impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.site() {
            FaultSite::Stem(n) => write!(f, "net#{}", n.index())?,
            FaultSite::GatePin { gate, pin } => write!(f, "pin#{}.{pin}", gate.index())?,
            FaultSite::DffData(k) => write!(f, "dff#{k}<-data")?,
        }
        write!(f, " {}", self.kind_suffix())
    }
}

/// Display adapter produced by [`Fault::display`]: the fault with its net
/// names resolved against a circuit.
#[derive(Debug, Clone, Copy)]
pub struct FaultDisplay<'a> {
    fault: &'a Fault,
    c: &'a Circuit,
}

impl fmt::Display for FaultDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.c;
        match self.fault.site() {
            FaultSite::Stem(n) => write!(f, "{}", c.net_name(n))?,
            FaultSite::GatePin { gate, pin } => {
                let g = c.gate(gate);
                write!(
                    f,
                    "{}<-{}' (pin {pin})",
                    c.net_name(g.output),
                    c.net_name(g.inputs[pin]),
                )?;
            }
            FaultSite::DffData(k) => {
                write!(f, "DFF({})<-data", c.net_name(c.dffs()[k].q))?;
            }
        }
        write!(f, " {}", self.fault.kind_suffix())
    }
}

/// Per-model fault enumeration and collapsing over a circuit.
///
/// Every constructor takes the [`FaultModel`] first: the structural sites
/// are shared between models, the behavioural interpretation (and the set
/// of valid collapsing rules) is not.
#[derive(Debug, Clone, Copy)]
pub struct FaultUniverse;

impl FaultUniverse {
    /// The uncollapsed universe of `model`: both polarities on every stem
    /// and on every gate input pin. Constant-driven nets are skipped (a
    /// stuck fault on a tied line is undetectable or the tied value; a
    /// transition fault on a tied line can never launch).
    pub fn enumerate(model: FaultModel, c: &Circuit) -> FaultList {
        let mut faults = Vec::new();
        for idx in 0..c.num_nets() {
            let net = NetId::from_index(idx);
            if matches!(c.driver(net), Driver::Const(_)) {
                continue;
            }
            faults.push(Fault::of(model, FaultSite::Stem(net), false));
            faults.push(Fault::of(model, FaultSite::Stem(net), true));
        }
        for (gid, gate) in c.iter_gates() {
            for pin in 0..gate.inputs.len() {
                let site = FaultSite::GatePin { gate: gid, pin };
                faults.push(Fault::of(model, site, false));
                faults.push(Fault::of(model, site, true));
            }
        }
        FaultList { faults }
    }

    /// The classic checkpoint fault set of `model`: both polarities on
    /// every primary input stem, every flip-flop output stem (pseudo
    /// primary input), and every fanout branch (each load of a stem with
    /// fanout ≥ 2; a stem that is also observed counts the observation as
    /// one of its loads and contributes its stem fault for it).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub fn checkpoints(model: FaultModel, c: &Circuit) -> FaultList {
        let mut faults = Vec::new();
        let mut push = |site: FaultSite| {
            faults.push(Fault::of(model, site, false));
            faults.push(Fault::of(model, site, true));
        };
        for &pi in c.inputs() {
            push(FaultSite::Stem(pi));
        }
        for dff in c.dffs() {
            push(FaultSite::Stem(dff.q));
        }
        let fanout = c.fanout_counts();
        let mut observed = vec![false; c.num_nets()];
        for n in c.observed_nets() {
            observed[n.index()] = true;
        }
        for idx in 0..c.num_nets() {
            let net = NetId::from_index(idx);
            if matches!(c.driver(net), Driver::Const(_)) {
                continue;
            }
            if fanout[idx] < 2 {
                continue;
            }
            for load in c.loads(net) {
                let site = match *load {
                    Load::GatePin { gate, pin } => FaultSite::GatePin { gate, pin },
                    Load::DffData(k) => FaultSite::DffData(k),
                };
                push(site);
            }
            // The observation tap of an observed fanout stem is represented
            // by the stem fault itself — but only when the stem is not a
            // PI/FF output already enumerated above.
            let is_ppi = matches!(c.driver(net), Driver::Input(_) | Driver::Dff(_));
            if observed[idx] && !is_ppi {
                push(FaultSite::Stem(net));
            }
        }
        FaultList { faults }
    }

    /// Structural equivalence collapsing of [`FaultUniverse::enumerate`].
    ///
    /// Rules (applied transitively by union-find):
    ///
    /// 1. a gate-pin fault on a pin fed by a fanout-free stem is equivalent
    ///    to the stem fault of the same polarity;
    /// 2. **stuck-at only** — a controlling-value fault on a gate input is
    ///    equivalent to the corresponding output stem fault (AND: in-0 ≡
    ///    out-0; NAND: in-0 ≡ out-1; OR: in-1 ≡ out-1; NOR: in-1 ≡ out-0);
    /// 3. NOT/BUF input faults are equivalent to output faults (with
    ///    polarity inversion for NOT — an input slow-to-rise delays the
    ///    output's fall).
    ///
    /// One representative per class is kept, preferring stems over pins.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub fn collapsed(model: FaultModel, c: &Circuit) -> FaultList {
        use crate::circuit::GateKind;

        // Universe indexing: stems first, then gate pins, ×2 polarities.
        let n_nets = c.num_nets();
        let mut pin_base = vec![0usize; c.num_gates()];
        let mut n_pins = 0usize;
        for (gid, gate) in c.iter_gates() {
            pin_base[gid.index()] = n_pins;
            n_pins += gate.inputs.len();
        }
        let stem_idx = |net: NetId, v: bool| net.index() * 2 + v as usize;
        let pin_idx = |g: GateId, pin: usize, v: bool| {
            n_nets * 2 + (pin_base[g.index()] + pin) * 2 + v as usize
        };
        let total = n_nets * 2 + n_pins * 2;

        let mut uf = UnionFind::new(total);
        let controlling = model == FaultModel::StuckAt;
        let fanout = c.fanout_counts();

        for (gid, gate) in c.iter_gates() {
            for (pin, &inp) in gate.inputs.iter().enumerate() {
                // Rule 1: fanout-free branch ≡ stem.
                if fanout[inp.index()] == 1 {
                    uf.union(pin_idx(gid, pin, false), stem_idx(inp, false));
                    uf.union(pin_idx(gid, pin, true), stem_idx(inp, true));
                }
                // Rules 2 (stuck-at only) and 3: input ≡ output.
                let out = gate.output;
                match gate.kind {
                    GateKind::And if controlling => {
                        uf.union(pin_idx(gid, pin, false), stem_idx(out, false));
                    }
                    GateKind::Nand if controlling => {
                        uf.union(pin_idx(gid, pin, false), stem_idx(out, true));
                    }
                    GateKind::Or if controlling => {
                        uf.union(pin_idx(gid, pin, true), stem_idx(out, true));
                    }
                    GateKind::Nor if controlling => {
                        uf.union(pin_idx(gid, pin, true), stem_idx(out, false));
                    }
                    GateKind::Not => {
                        uf.union(pin_idx(gid, pin, false), stem_idx(out, true));
                        uf.union(pin_idx(gid, pin, true), stem_idx(out, false));
                    }
                    GateKind::Buf => {
                        uf.union(pin_idx(gid, pin, false), stem_idx(out, false));
                        uf.union(pin_idx(gid, pin, true), stem_idx(out, true));
                    }
                    _ => {}
                }
            }
        }

        // Pick representatives: for each class, prefer the lowest stem.
        let mut rep: Vec<Option<Fault>> = vec![None; total];
        for idx in 0..c.num_nets() {
            let net = NetId::from_index(idx);
            if matches!(c.driver(net), Driver::Const(_)) {
                continue;
            }
            for v in [false, true] {
                let root = uf.find(stem_idx(net, v));
                if rep[root].is_none() {
                    rep[root] = Some(Fault::of(model, FaultSite::Stem(net), v));
                }
            }
        }
        for (gid, gate) in c.iter_gates() {
            for pin in 0..gate.inputs.len() {
                for v in [false, true] {
                    let root = uf.find(pin_idx(gid, pin, v));
                    if rep[root].is_none() {
                        rep[root] =
                            Some(Fault::of(model, FaultSite::GatePin { gate: gid, pin }, v));
                    }
                }
            }
        }

        let mut faults: Vec<Fault> = rep.into_iter().flatten().collect();
        faults.sort();
        faults.dedup();
        FaultList { faults }
    }
}

/// An ordered list of target faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultList {
    faults: Vec<Fault>,
}

impl FaultList {
    /// Builds a fault list from explicit faults.
    pub fn from_faults(faults: Vec<Fault>) -> Self {
        FaultList { faults }
    }

    /// Stuck-at shorthand for [`FaultUniverse::enumerate`].
    pub fn all_lines(c: &Circuit) -> Self {
        FaultUniverse::enumerate(FaultModel::StuckAt, c)
    }

    /// Stuck-at shorthand for [`FaultUniverse::checkpoints`].
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub fn checkpoints(c: &Circuit) -> Self {
        FaultUniverse::checkpoints(FaultModel::StuckAt, c)
    }

    /// Stuck-at shorthand for [`FaultUniverse::collapsed`].
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub fn collapsed(c: &Circuit) -> Self {
        FaultUniverse::collapsed(FaultModel::StuckAt, c)
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults, in order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Iterates over the faults.
    pub fn iter(&self) -> std::slice::Iter<'_, Fault> {
        self.faults.iter()
    }

    /// Retains only the faults for which `keep` returns true.
    pub fn retain(&mut self, keep: impl FnMut(&Fault) -> bool) {
        self.faults.retain(keep);
    }

    /// Whether any fault in the list belongs to `model`.
    pub fn has_model(&self, model: FaultModel) -> bool {
        self.faults.iter().any(|f| f.model() == model)
    }
}

impl FromIterator<Fault> for FaultList {
    fn from_iter<I: IntoIterator<Item = Fault>>(iter: I) -> Self {
        FaultList {
            faults: iter.into_iter().collect(),
        }
    }
}

impl Extend<Fault> for FaultList {
    fn extend<I: IntoIterator<Item = Fault>>(&mut self, iter: I) {
        self.faults.extend(iter);
    }
}

impl<'a> IntoIterator for &'a FaultList {
    type Item = &'a Fault;
    type IntoIter = std::slice::Iter<'a, Fault>;
    fn into_iter(self) -> Self::IntoIter {
        self.faults.iter()
    }
}

impl IntoIterator for FaultList {
    type Item = Fault;
    type IntoIter = std::vec::IntoIter<Fault>;
    fn into_iter(self) -> Self::IntoIter {
        self.faults.into_iter()
    }
}

/// Minimal union-find with path halving.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins, keeping stems (low indices)
            // as class representatives.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format;

    const C17: &str = r"
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

    #[test]
    fn c17_checkpoints_count() {
        let c = bench_format::parse("c17", C17).unwrap();
        // 5 PIs (10 faults) + fanout branches of nets 3, 11, 16 (12 faults).
        assert_eq!(FaultList::checkpoints(&c).len(), 22);
        // The checkpoint *sites* are model-independent.
        assert_eq!(
            FaultUniverse::checkpoints(FaultModel::TransitionDelay, &c).len(),
            22
        );
    }

    #[test]
    fn c17_collapsed_count() {
        let c = bench_format::parse("c17", C17).unwrap();
        // The standard published collapsed fault count for c17.
        assert_eq!(FaultList::collapsed(&c).len(), 22);
    }

    #[test]
    fn c17_transition_collapsed_drops_controlling_rule() {
        let c = bench_format::parse("c17", C17).unwrap();
        let td = FaultUniverse::collapsed(FaultModel::TransitionDelay, &c);
        // Only the fanout-free-branch rule fires on c17 (no NOT/BUF): the
        // 6 fanout-free pins merge into their stems, 46 - 12 = 34.
        assert_eq!(td.len(), 34);
        assert!(td.len() > FaultList::collapsed(&c).len());
        assert!(td.iter().all(|f| f.model() == FaultModel::TransitionDelay));
    }

    #[test]
    fn c17_all_lines_count() {
        let c = bench_format::parse("c17", C17).unwrap();
        // 11 stems * 2 + 12 pins * 2.
        assert_eq!(FaultList::all_lines(&c).len(), 46);
        assert_eq!(
            FaultUniverse::enumerate(FaultModel::TransitionDelay, &c).len(),
            46
        );
    }

    #[test]
    fn describe_is_readable() {
        let c = bench_format::parse("c17", C17).unwrap();
        let fl = FaultList::checkpoints(&c);
        let texts: Vec<String> = fl.iter().map(|f| f.describe(&c)).collect();
        assert!(texts.iter().any(|t| t.contains("s-a-0")));
        assert!(texts.iter().any(|t| t.contains("s-a-1")));
        let td = FaultUniverse::checkpoints(FaultModel::TransitionDelay, &c);
        let texts: Vec<String> = td.iter().map(|f| f.describe(&c)).collect();
        assert!(texts.iter().any(|t| t.contains("slow-to-rise")));
        assert!(texts.iter().any(|t| t.contains("slow-to-fall")));
    }

    #[test]
    fn display_is_circuit_free_and_stable() {
        use crate::circuit::NetId;
        let f = Fault::sa1(FaultSite::Stem(NetId::from_index(4)));
        assert_eq!(f.to_string(), "net#4 s-a-1");
        let g = Fault::slow_to_fall(FaultSite::DffData(1));
        assert_eq!(g.to_string(), "dff#1<-data slow-to-fall");
    }

    #[test]
    fn ordering_is_stable_across_models() {
        use crate::circuit::NetId;
        let site_lo = FaultSite::Stem(NetId::from_index(0));
        let site_hi = FaultSite::DffData(9);
        // Every stuck-at fault sorts before every transition fault.
        assert!(Fault::sa1(site_hi) < Fault::slow_to_fall(site_lo));
        // Within a model: by site, then polarity.
        assert!(Fault::sa0(site_lo) < Fault::sa1(site_lo));
        assert!(Fault::slow_to_fall(site_lo) < Fault::slow_to_rise(site_lo));
    }

    #[test]
    fn accessors_round_trip() {
        let site = FaultSite::GatePin {
            gate: crate::circuit::GateId(3),
            pin: 1,
        };
        for model in FaultModel::ALL {
            for v in [false, true] {
                let f = Fault::of(model, site, v);
                assert_eq!(f.model(), model);
                assert_eq!(f.site(), site);
                assert_eq!(f.polarity(), v);
                assert_eq!(f.with_site(site), f);
            }
        }
        assert_eq!(FaultModel::parse("stuck-at"), Some(FaultModel::StuckAt));
        assert_eq!(
            FaultModel::parse("transition"),
            Some(FaultModel::TransitionDelay)
        );
        assert_eq!(FaultModel::parse("bridging"), None);
    }

    #[test]
    fn collapsed_subset_of_universe() {
        let c = bench_format::parse("c17", C17).unwrap();
        let all = FaultList::all_lines(&c);
        let col = FaultList::collapsed(&c);
        assert!(col.len() < all.len());
        for f in &col {
            assert!(all.faults().contains(f));
        }
    }

    #[test]
    fn retain_and_collect() {
        let c = bench_format::parse("c17", C17).unwrap();
        let mut fl = FaultList::checkpoints(&c);
        let n = fl.len();
        fl.retain(|f| f.polarity());
        assert_eq!(fl.len(), n / 2);
        let back: FaultList = fl.iter().copied().collect();
        assert_eq!(back, fl);
    }
}
