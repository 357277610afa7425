//! The gate-level circuit IR.
//!
//! A [`Circuit`] is a set of *nets* (named signals), each driven by exactly
//! one of: a primary input, a D flip-flop output, a logic gate output, or a
//! constant. Primary outputs and observation points reference nets. The
//! combinational core must be acyclic; every cycle has to pass through a
//! flip-flop ([`Circuit::levelize`] verifies this).

use crate::error::NetlistError;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a net (signal) within one [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Index of this net into per-net arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NetId` from a raw index.
    ///
    /// Callers are responsible for the index being in range for the circuit
    /// the id will be used with; out-of-range ids surface as
    /// [`NetlistError::UnknownNet`] from circuit methods.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NetId(index as u32)
    }
}

/// Identifier of a gate within one [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Index of this gate into per-gate arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The boolean function computed by a [`Gate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Logical AND of all inputs.
    And,
    /// Complement of the AND of all inputs.
    Nand,
    /// Logical OR of all inputs.
    Or,
    /// Complement of the OR of all inputs.
    Nor,
    /// Parity (XOR) of all inputs.
    Xor,
    /// Complement of the parity of all inputs.
    Xnor,
    /// Complement of the single input.
    Not,
    /// Identity on the single input.
    Buf,
}

impl GateKind {
    /// Returns `true` if this kind accepts `n` inputs.
    pub fn arity_ok(self, n: usize) -> bool {
        match self {
            GateKind::Not | GateKind::Buf => n == 1,
            _ => n >= 1,
        }
    }

    /// The controlling input value of the gate, if it has one.
    ///
    /// An input at its controlling value determines the output regardless of
    /// the other inputs. XOR/XNOR and single-input gates have none.
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// Whether the gate complements its "natural" output (NAND/NOR/XNOR/NOT).
    pub fn inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// The canonical upper-case `.bench` keyword for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUFF",
        }
    }

    /// Parses a `.bench` keyword (case-insensitive). `BUF` and `BUFF` are
    /// both accepted.
    pub fn from_keyword(s: &str) -> Option<Self> {
        const KEYWORDS: [(&str, GateKind); 9] = [
            ("AND", GateKind::And),
            ("NAND", GateKind::Nand),
            ("OR", GateKind::Or),
            ("NOR", GateKind::Nor),
            ("XOR", GateKind::Xor),
            ("XNOR", GateKind::Xnor),
            ("NOT", GateKind::Not),
            ("BUF", GateKind::Buf),
            ("BUFF", GateKind::Buf),
        ];
        KEYWORDS
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(s))
            .map(|&(_, kind)| kind)
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A combinational gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// The boolean function.
    pub kind: GateKind,
    /// Input nets, in pin order.
    pub inputs: Vec<NetId>,
    /// The net driven by this gate.
    pub output: NetId,
}

/// A D flip-flop. State updates on every (implicit) clock edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dff {
    /// The state output net (present state).
    pub q: NetId,
    /// The data input net (next state). `None` until connected.
    pub d: Option<NetId>,
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Primary input with the given PI index.
    Input(usize),
    /// Flip-flop output with the given DFF index.
    Dff(usize),
    /// Output of the given gate.
    Gate(GateId),
    /// Constant value.
    Const(bool),
    /// Declared but not yet driven (illegal after [`Circuit::levelize`]).
    Undriven,
}

/// One load of a net: either a gate input pin or a flip-flop data input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Input pin `pin` of gate `gate`.
    GatePin {
        /// The consuming gate.
        gate: GateId,
        /// Zero-based pin position.
        pin: usize,
    },
    /// Data input of the DFF with this index.
    DffData(usize),
}

/// The net-name table's hasher: 64-bit FNV-1a. Net names are short,
/// and hashing them with the std SipHash took most of a large netlist's
/// parse. FNV is not collision resistant, so a netlist built to collide
/// only slows down its own parse.
#[derive(Debug, Clone, Copy)]
struct NameHasher(u64);

impl Default for NameHasher {
    fn default() -> Self {
        NameHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for NameHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A gate-level synchronous sequential circuit.
///
/// Build one with the `add_*` methods, then call [`Circuit::levelize`] to
/// validate it and compute the topological gate order required by the
/// simulators. Most consumers only ever see levelized circuits.
#[derive(Debug, Clone)]
pub struct Circuit {
    name: String,
    net_names: Vec<String>,
    drivers: Vec<Driver>,
    by_name: HashMap<String, NetId, BuildHasherDefault<NameHasher>>,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    observation_points: Vec<NetId>,
    /// Topological order of gates; empty until levelized.
    topo: Vec<GateId>,
    /// Per-net loads; computed by levelize.
    fanout: Vec<Vec<Load>>,
    levelized: bool,
}

impl Circuit {
    /// Creates an empty circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Circuit {
            name: name.into(),
            net_names: Vec::new(),
            drivers: Vec::new(),
            by_name: HashMap::default(),
            gates: Vec::new(),
            dffs: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            observation_points: Vec::new(),
            topo: Vec::new(),
            fanout: Vec::new(),
            levelized: false,
        }
    }

    /// The circuit name (e.g. `"s27"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    fn intern(&mut self, name: &str) -> NetId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(name.to_string());
        self.drivers.push(Driver::Undriven);
        self.by_name.insert(name.to_string(), id);
        id
    }

    fn set_driver(&mut self, id: NetId, driver: Driver) -> Result<(), NetlistError> {
        match self.drivers[id.index()] {
            Driver::Undriven => {
                self.drivers[id.index()] = driver;
                Ok(())
            }
            _ => Err(NetlistError::DuplicateDriver {
                name: self.net_names[id.index()].clone(),
            }),
        }
    }

    /// Declares (or references) a net by name without driving it.
    ///
    /// Useful when wiring forward references; the net must eventually be
    /// driven before [`Circuit::levelize`].
    pub fn declare_net(&mut self, name: &str) -> NetId {
        self.invalidate();
        self.intern(name)
    }

    /// Adds a primary input and returns its net.
    ///
    /// # Panics
    ///
    /// Panics if the name already has a driver; use [`Circuit::try_add_input`]
    /// to handle that case as an error.
    pub fn add_input(&mut self, name: &str) -> NetId {
        self.try_add_input(name).expect("input net already driven")
    }

    /// Adds a primary input, failing if the net is already driven.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateDriver`] if `name` is already driven.
    pub fn try_add_input(&mut self, name: &str) -> Result<NetId, NetlistError> {
        self.invalidate();
        let id = self.intern(name);
        let pi_index = self.inputs.len();
        self.set_driver(id, Driver::Input(pi_index))?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds a D flip-flop whose state output net is `name`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateDriver`] if `name` is already driven.
    pub fn add_dff(&mut self, name: &str, data: Option<NetId>) -> Result<NetId, NetlistError> {
        self.invalidate();
        let q = self.intern(name);
        let dff_index = self.dffs.len();
        self.set_driver(q, Driver::Dff(dff_index))?;
        self.dffs.push(Dff { q, d: data });
        Ok(q)
    }

    /// Connects the data input of the DFF whose output is `q`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotADff`] if `q` is not a flip-flop output.
    pub fn connect_dff_data(&mut self, q: NetId, d: NetId) -> Result<(), NetlistError> {
        self.invalidate();
        match self.drivers.get(q.index()) {
            Some(Driver::Dff(k)) => {
                let k = *k;
                self.dffs[k].d = Some(d);
                Ok(())
            }
            Some(_) => Err(NetlistError::NotADff {
                name: self.net_names[q.index()].clone(),
            }),
            None => Err(NetlistError::UnknownNet { index: q.index() }),
        }
    }

    /// Adds a gate driving a net named `name` and returns that net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the kind cannot take the number
    /// of inputs supplied, or [`NetlistError::DuplicateDriver`] if `name` is
    /// already driven.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        name: &str,
        inputs: &[NetId],
    ) -> Result<NetId, NetlistError> {
        self.invalidate();
        if !kind.arity_ok(inputs.len()) {
            return Err(NetlistError::BadArity {
                kind: kind.to_string(),
                got: inputs.len(),
            });
        }
        let out = self.intern(name);
        let gid = GateId(self.gates.len() as u32);
        self.set_driver(out, Driver::Gate(gid))?;
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output: out,
        });
        Ok(out)
    }

    /// Adds a constant-valued net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateDriver`] if `name` is already driven.
    pub fn add_const(&mut self, name: &str, value: bool) -> Result<NetId, NetlistError> {
        self.invalidate();
        let id = self.intern(name);
        self.set_driver(id, Driver::Const(value))?;
        Ok(id)
    }

    /// Marks a net as a primary output. A net may be both a PO and feed
    /// further logic. Marking the same net twice is idempotent.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
    }

    /// Adds an observation point on `net`. Observation points behave like
    /// extra primary outputs for fault detection but are reported
    /// separately. Idempotent; a net that is already a PO is ignored.
    pub fn add_observation_point(&mut self, net: NetId) {
        if !self.outputs.contains(&net) && !self.observation_points.contains(&net) {
            self.observation_points.push(net);
        }
    }

    /// Returns a copy of this circuit with exactly the given observation
    /// points (replacing any existing ones).
    pub fn with_observation_points(&self, points: &[NetId]) -> Circuit {
        let mut c = self.clone();
        c.observation_points.clear();
        for &p in points {
            c.add_observation_point(p);
        }
        c
    }

    /// Looks a net up by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// The name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to this circuit.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.index()]
    }

    /// The driver of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to this circuit.
    pub fn driver(&self, net: NetId) -> Driver {
        self.drivers[net.index()]
    }

    /// Iterates over the constant-driven nets and their values, in net
    /// index order. Compiled simulators use this to pre-resolve constant
    /// sources instead of re-scanning every net's [`Driver`] per cycle.
    pub fn const_nets(&self) -> impl Iterator<Item = (NetId, bool)> + '_ {
        self.drivers
            .iter()
            .enumerate()
            .filter_map(|(i, d)| match d {
                Driver::Const(v) => Some((NetId::from_index(i), *v)),
                _ => None,
            })
    }

    /// Number of nets (signals).
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of D flip-flops.
    pub fn num_dffs(&self) -> usize {
        self.dffs.len()
    }

    /// Number of combinational gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Primary input nets in PI order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets in PO order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The observation-point nets (excluding regular POs).
    pub fn observation_points(&self) -> &[NetId] {
        &self.observation_points
    }

    /// All observed nets: primary outputs followed by observation points.
    pub fn observed_nets(&self) -> impl Iterator<Item = NetId> + '_ {
        self.outputs
            .iter()
            .copied()
            .chain(self.observation_points.iter().copied())
    }

    /// The flip-flops in DFF-index order.
    pub fn dffs(&self) -> &[Dff] {
        &self.dffs
    }

    /// The gates in creation order. Use [`Circuit::topo_gates`] for
    /// evaluation order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// One gate by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Iterates over `(GateId, &Gate)` pairs in creation order.
    pub fn iter_gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// Gates in topological (evaluation) order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub fn topo_gates(&self) -> &[GateId] {
        assert!(self.levelized, "circuit must be levelized first");
        &self.topo
    }

    /// Loads (gate pins and DFF data inputs) of a net.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub fn loads(&self, net: NetId) -> &[Load] {
        assert!(self.levelized, "circuit must be levelized first");
        &self.fanout[net.index()]
    }

    /// Total fanout of a net: gate pins + DFF data loads + 1 if it is a PO,
    /// +1 if it is an observation point.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub fn fanout_count(&self, net: NetId) -> usize {
        let mut n = self.loads(net).len();
        if self.outputs.contains(&net) {
            n += 1;
        }
        if self.observation_points.contains(&net) {
            n += 1;
        }
        n
    }

    /// [`Circuit::fanout_count`] of every net, indexed by net, with one
    /// pass over the outputs and observation points instead of one scan
    /// per net.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub fn fanout_counts(&self) -> Vec<usize> {
        assert!(self.levelized, "circuit must be levelized first");
        let mut counts: Vec<usize> = self.fanout.iter().map(Vec::len).collect();
        // `mark_output` and `add_observation_point` keep each list free
        // of duplicates.
        for n in self.observed_nets() {
            counts[n.index()] += 1;
        }
        counts
    }

    /// Whether [`Circuit::levelize`] has validated this circuit.
    pub fn is_levelized(&self) -> bool {
        self.levelized
    }

    fn invalidate(&mut self) {
        self.levelized = false;
        self.topo.clear();
        self.fanout.clear();
    }

    /// Validates the circuit and computes the topological gate order and the
    /// fanout tables. Returns the circuit itself for chaining.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UndrivenNet`] — some referenced net has no driver,
    ///   or a DFF has no data input.
    /// * [`NetlistError::CombinationalLoop`] — a cycle not broken by a DFF.
    /// * [`NetlistError::NoInputs`] — no primary inputs.
    pub fn levelize(mut self) -> Result<Circuit, NetlistError> {
        if self.inputs.is_empty() {
            return Err(NetlistError::NoInputs);
        }
        // Every net must be driven and every DFF connected.
        for (i, d) in self.drivers.iter().enumerate() {
            if matches!(d, Driver::Undriven) {
                return Err(NetlistError::UndrivenNet {
                    name: self.net_names[i].clone(),
                });
            }
        }
        for dff in &self.dffs {
            if dff.d.is_none() {
                return Err(NetlistError::UndrivenNet {
                    name: format!("{} (flip-flop data input)", self.net_names[dff.q.index()]),
                });
            }
        }

        // Fanout tables.
        let mut fanout: Vec<Vec<Load>> = vec![Vec::new(); self.net_names.len()];
        for (gi, gate) in self.gates.iter().enumerate() {
            for (pin, &inp) in gate.inputs.iter().enumerate() {
                fanout[inp.index()].push(Load::GatePin {
                    gate: GateId(gi as u32),
                    pin,
                });
            }
        }
        for (di, dff) in self.dffs.iter().enumerate() {
            let d = dff.d.expect("checked above");
            fanout[d.index()].push(Load::DffData(di));
        }

        // Kahn topological sort over gates. Sources: PIs, DFF outputs,
        // constants. A gate is ready when all its input nets are resolved.
        let n_gates = self.gates.len();
        let mut unresolved_inputs: Vec<usize> = self
            .gates
            .iter()
            .map(|g| {
                g.inputs
                    .iter()
                    .filter(|&&i| matches!(self.drivers[i.index()], Driver::Gate(_)))
                    .count()
            })
            .collect();
        let mut ready: Vec<GateId> = unresolved_inputs
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == 0)
            .map(|(i, _)| GateId(i as u32))
            .collect();
        let mut topo = Vec::with_capacity(n_gates);
        let mut head = 0;
        while head < ready.len() {
            let gid = ready[head];
            head += 1;
            topo.push(gid);
            let out = self.gates[gid.index()].output;
            for load in &fanout[out.index()] {
                if let Load::GatePin { gate, .. } = *load {
                    let c = &mut unresolved_inputs[gate.index()];
                    *c -= 1;
                    if *c == 0 {
                        ready.push(gate);
                    }
                }
            }
        }
        if topo.len() != n_gates {
            // Find a witness net on the cycle.
            let witness = self
                .gates
                .iter()
                .enumerate()
                .find(|&(i, _)| unresolved_inputs[i] > 0)
                .map(|(_, g)| self.net_names[g.output.index()].clone())
                .unwrap_or_default();
            return Err(NetlistError::CombinationalLoop { witness });
        }

        self.topo = topo;
        self.fanout = fanout;
        self.levelized = true;
        Ok(self)
    }

    /// Counts literals: the total number of gate input pins. A rough
    /// area proxy used by the hardware cost model.
    pub fn literal_count(&self) -> usize {
        self.gates.iter().map(|g| g.inputs.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Circuit {
        let mut c = Circuit::new("toy");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let q = c.add_dff("q", None).unwrap();
        let g = c.add_gate(GateKind::Nand, "g", &[a, q]).unwrap();
        c.connect_dff_data(q, g).unwrap();
        let y = c.add_gate(GateKind::Xor, "y", &[g, b]).unwrap();
        c.mark_output(y);
        c
    }

    #[test]
    fn builds_and_levelizes() {
        let c = toy().levelize().unwrap();
        assert_eq!(c.num_nets(), 5);
        assert_eq!(c.num_inputs(), 2);
        assert_eq!(c.num_dffs(), 1);
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.topo_gates().len(), 2);
        // g must come before y.
        let g = match c.driver(c.net_by_name("g").unwrap()) {
            Driver::Gate(id) => id,
            _ => unreachable!(),
        };
        assert_eq!(c.topo_gates()[0], g);
    }

    #[test]
    fn duplicate_driver_rejected() {
        let mut c = Circuit::new("dup");
        let a = c.add_input("a");
        c.add_gate(GateKind::Buf, "x", &[a]).unwrap();
        let err = c.add_gate(GateKind::Buf, "x", &[a]).unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateDriver { .. }));
    }

    #[test]
    fn undriven_net_rejected() {
        let mut c = Circuit::new("undriven");
        let a = c.add_input("a");
        let ghost = c.declare_net("ghost");
        let y = c.add_gate(GateKind::And, "y", &[a, ghost]).unwrap();
        c.mark_output(y);
        let err = c.levelize().unwrap_err();
        assert!(matches!(err, NetlistError::UndrivenNet { .. }));
    }

    #[test]
    fn combinational_loop_rejected() {
        let mut c = Circuit::new("loop");
        let a = c.add_input("a");
        let x = c.declare_net("x");
        let y = c.add_gate(GateKind::And, "y", &[a, x]).unwrap();
        c.add_gate(GateKind::Buf, "x", &[y]).unwrap();
        c.mark_output(y);
        let err = c.levelize().unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalLoop { .. }));
    }

    #[test]
    fn dff_breaks_cycle() {
        // Feedback through a DFF is fine.
        let c = toy().levelize().unwrap();
        assert!(c.is_levelized());
    }

    #[test]
    fn missing_dff_data_rejected() {
        let mut c = Circuit::new("nodata");
        let a = c.add_input("a");
        c.add_dff("q", None).unwrap();
        let y = c.add_gate(GateKind::Buf, "y", &[a]).unwrap();
        c.mark_output(y);
        let err = c.levelize().unwrap_err();
        assert!(matches!(err, NetlistError::UndrivenNet { .. }));
    }

    #[test]
    fn no_inputs_rejected() {
        let mut c = Circuit::new("empty");
        let k = c.add_const("one", true).unwrap();
        c.mark_output(k);
        let err = c.levelize().unwrap_err();
        assert!(matches!(err, NetlistError::NoInputs));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut c = Circuit::new("arity");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let err = c.add_gate(GateKind::Not, "y", &[a, b]).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { .. }));
    }

    #[test]
    fn fanout_counts() {
        let c = toy().levelize().unwrap();
        let g = c.net_by_name("g").unwrap();
        // g feeds the XOR and the DFF data input.
        assert_eq!(c.fanout_count(g), 2);
        let y = c.net_by_name("y").unwrap();
        // y is only a PO.
        assert_eq!(c.fanout_count(y), 1);
    }

    #[test]
    fn observation_points_are_tracked() {
        let mut c = toy();
        let g = c.net_by_name("g").unwrap();
        c.add_observation_point(g);
        c.add_observation_point(g); // idempotent
        let c = c.levelize().unwrap();
        assert_eq!(c.observation_points(), &[g]);
        assert_eq!(c.observed_nets().count(), 2);
    }

    #[test]
    fn observation_point_on_po_ignored() {
        let mut c = toy();
        let y = c.net_by_name("y").unwrap();
        c.add_observation_point(y);
        assert!(c.observation_points().is_empty());
    }

    #[test]
    fn gate_kind_roundtrip() {
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
            assert_eq!(GateKind::from_keyword(kind.as_str()), Some(kind));
        }
        assert_eq!(GateKind::from_keyword("buf"), Some(GateKind::Buf));
        assert_eq!(GateKind::from_keyword("DFF"), None);
    }
}
