//! Fault-free (good-machine) three-valued simulation.

use crate::error::SimError;
use crate::logic::Logic3;
use crate::sequence::TestSequence;
use wbist_netlist::{Circuit, Driver, GateKind};

/// A recorded good-machine simulation: the three-valued value of every net
/// at every time unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimTrace {
    num_nets: usize,
    /// Time-major: value of net `n` at time `u` is `values[u * num_nets + n]`.
    values: Vec<Logic3>,
}

impl SimTrace {
    /// Number of simulated time units.
    pub fn len(&self) -> usize {
        self.values.len().checked_div(self.num_nets).unwrap_or(0)
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value of a net at a time unit.
    ///
    /// # Panics
    ///
    /// Panics if `u` or the net index is out of range.
    pub fn value(&self, u: usize, net: wbist_netlist::NetId) -> Logic3 {
        self.values[u * self.num_nets + net.index()]
    }

    /// All net values at time `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn row(&self, u: usize) -> &[Logic3] {
        &self.values[u * self.num_nets..(u + 1) * self.num_nets]
    }
}

/// Good-machine simulator for a levelized circuit.
///
/// Simulation always starts from the all-`X` flip-flop state. The simulator
/// borrows the circuit; it holds no mutable state between calls.
#[derive(Debug, Clone)]
pub struct LogicSim<'c> {
    circuit: &'c Circuit,
}

impl<'c> LogicSim<'c> {
    /// Creates a simulator for `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub fn new(circuit: &'c Circuit) -> Self {
        assert!(circuit.is_levelized(), "circuit must be levelized");
        LogicSim { circuit }
    }

    /// Validates that `seq` matches the circuit's input count.
    fn check(&self, seq: &TestSequence) -> Result<(), SimError> {
        if seq.num_inputs() != self.circuit.num_inputs() {
            return Err(SimError::InputWidthMismatch {
                circuit: self.circuit.num_inputs(),
                sequence: seq.num_inputs(),
            });
        }
        Ok(())
    }

    /// Simulates `seq` and returns the primary output values per time unit
    /// (time-major, one `Vec` per time unit in PO order).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InputWidthMismatch`] if the sequence width does
    /// not match the circuit.
    pub fn outputs(&self, seq: &TestSequence) -> Result<Vec<Vec<Logic3>>, SimError> {
        self.check(seq)?;
        let c = self.circuit;
        let mut state = vec![Logic3::X; c.num_dffs()];
        let mut nets = vec![Logic3::X; c.num_nets()];
        let mut out = Vec::with_capacity(seq.len());
        for u in 0..seq.len() {
            step(c, seq.row(u), &mut state, &mut nets);
            out.push(c.outputs().iter().map(|&o| nets[o.index()]).collect());
        }
        Ok(out)
    }

    /// Simulates `seq` recording the value of every net at every time unit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InputWidthMismatch`] if the sequence width does
    /// not match the circuit.
    pub fn trace(&self, seq: &TestSequence) -> Result<SimTrace, SimError> {
        self.check(seq)?;
        let c = self.circuit;
        let mut state = vec![Logic3::X; c.num_dffs()];
        let mut nets = vec![Logic3::X; c.num_nets()];
        let mut values = Vec::with_capacity(seq.len() * c.num_nets());
        for u in 0..seq.len() {
            step(c, seq.row(u), &mut state, &mut nets);
            values.extend_from_slice(&nets);
        }
        Ok(SimTrace {
            num_nets: c.num_nets(),
            values,
        })
    }

    /// The flip-flop state after simulating `seq` from the all-`X` state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InputWidthMismatch`] if the sequence width does
    /// not match the circuit.
    pub fn final_state(&self, seq: &TestSequence) -> Result<Vec<Logic3>, SimError> {
        self.check(seq)?;
        let c = self.circuit;
        let mut state = vec![Logic3::X; c.num_dffs()];
        let mut nets = vec![Logic3::X; c.num_nets()];
        for u in 0..seq.len() {
            step(c, seq.row(u), &mut state, &mut nets);
        }
        Ok(state)
    }
}

/// Evaluates one clock cycle: drives PIs with `row`, evaluates the
/// combinational core into `nets`, then advances `state` to the next
/// flip-flop state.
pub(crate) fn step(c: &Circuit, row: &[bool], state: &mut [Logic3], nets: &mut [Logic3]) {
    // Sources.
    for (pi_idx, &net) in c.inputs().iter().enumerate() {
        nets[net.index()] = row[pi_idx].into();
    }
    for (k, dff) in c.dffs().iter().enumerate() {
        nets[dff.q.index()] = state[k];
    }
    for (idx, net) in nets.iter_mut().enumerate() {
        if let Driver::Const(v) = c.driver(wbist_netlist::NetId::from_index(idx)) {
            *net = v.into();
        }
    }
    // Combinational core in topological order.
    for &gid in c.topo_gates() {
        let g = c.gate(gid);
        nets[g.output.index()] = eval_gate(g.kind, g.inputs.iter().map(|&i| nets[i.index()]));
    }
    // Next state.
    for (k, dff) in c.dffs().iter().enumerate() {
        let d = dff.d.expect("levelized circuits have connected DFFs");
        state[k] = nets[d.index()];
    }
}

/// Evaluates a gate function over three-valued inputs.
pub(crate) fn eval_gate(kind: GateKind, inputs: impl Iterator<Item = Logic3>) -> Logic3 {
    let mut it = inputs;
    let first = it.next().expect("gates have at least one input");
    let folded = match kind {
        GateKind::And | GateKind::Nand => it.fold(first, Logic3::and),
        GateKind::Or | GateKind::Nor => it.fold(first, Logic3::or),
        GateKind::Xor | GateKind::Xnor => it.fold(first, Logic3::xor),
        GateKind::Not | GateKind::Buf => first,
    };
    if kind.inverting() {
        folded.not()
    } else {
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbist_netlist::bench_format;

    fn toy() -> Circuit {
        bench_format::parse(
            "toy",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(g)\ng = NAND(a, q)\ny = XOR(g, b)\n",
        )
        .unwrap()
    }

    #[test]
    fn unknown_state_propagates_then_resolves() {
        let c = toy();
        let sim = LogicSim::new(&c);
        // a=0 forces g = NAND(0, X) = 1 regardless of the unknown state.
        let seq = TestSequence::parse_rows(&["00", "10"]).unwrap();
        let out = sim.outputs(&seq).unwrap();
        // u=0: g=1, y = 1 xor 0 = 1.
        assert_eq!(out[0], vec![Logic3::One]);
        // u=1: state q=1, g = NAND(1,1) = 0, y = 0 xor 0 = 0.
        assert_eq!(out[1], vec![Logic3::Zero]);
    }

    #[test]
    fn x_state_blocks_detection_value() {
        let c = toy();
        let sim = LogicSim::new(&c);
        // a=1 keeps g = NAND(1, X) = X on the first cycle.
        let seq = TestSequence::parse_rows(&["10"]).unwrap();
        let out = sim.outputs(&seq).unwrap();
        assert_eq!(out[0], vec![Logic3::X]);
    }

    #[test]
    fn trace_records_all_nets() {
        let c = toy();
        let sim = LogicSim::new(&c);
        let seq = TestSequence::parse_rows(&["00", "11"]).unwrap();
        let trace = sim.trace(&seq).unwrap();
        assert_eq!(trace.len(), 2);
        let g = c.net_by_name("g").unwrap();
        assert_eq!(trace.value(0, g), Logic3::One);
    }

    #[test]
    fn final_state_matches_trace() {
        let c = toy();
        let sim = LogicSim::new(&c);
        let seq = TestSequence::parse_rows(&["00", "11"]).unwrap();
        let st = sim.final_state(&seq).unwrap();
        let trace = sim.trace(&seq).unwrap();
        let g = c.net_by_name("g").unwrap();
        assert_eq!(st[0], trace.value(1, g));
    }

    #[test]
    fn width_mismatch_is_error() {
        let c = toy();
        let sim = LogicSim::new(&c);
        let seq = TestSequence::parse_rows(&["000"]).unwrap();
        assert!(matches!(
            sim.outputs(&seq),
            Err(SimError::InputWidthMismatch { .. })
        ));
    }
}
