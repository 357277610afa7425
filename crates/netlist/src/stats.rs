//! Structural statistics of a circuit.
//!
//! Used by the experiment reports and the CLI to characterize circuits:
//! combinational depth, fanout distribution, gate-kind mix, and the
//! sequential structure (how many flip-flops sit on feedback paths).

use crate::circuit::{Circuit, Driver, GateKind, Load, NetId};
use std::collections::HashMap;
use std::fmt;

/// Structural statistics of one circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitStats {
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Flip-flops.
    pub dffs: usize,
    /// Combinational gates.
    pub gates: usize,
    /// Gate count per kind.
    pub kind_histogram: Vec<(GateKind, usize)>,
    /// Longest combinational path, in gates (0 for gateless circuits).
    pub depth: usize,
    /// Largest fanout of any net.
    pub max_fanout: usize,
    /// Nets with fanout of at least 2 (the fanout stems — checkpoint
    /// branch sites).
    pub fanout_stems: usize,
    /// Total gate input pins (a literal-count area proxy).
    pub literals: usize,
    /// Flip-flops whose state feeds back (transitively) into their own
    /// next-state logic — the hard sequential core.
    pub feedback_dffs: usize,
}

/// Computes the statistics of a levelized circuit.
///
/// # Panics
///
/// Panics if the circuit has not been levelized.
pub fn circuit_stats(c: &Circuit) -> CircuitStats {
    assert!(c.is_levelized(), "circuit must be levelized");

    let mut kind_counts: HashMap<GateKind, usize> = HashMap::new();
    for (_, g) in c.iter_gates() {
        *kind_counts.entry(g.kind).or_insert(0) += 1;
    }
    let mut kind_histogram: Vec<(GateKind, usize)> = kind_counts.into_iter().collect();
    kind_histogram.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.as_str().cmp(b.0.as_str())));

    // Depth: longest gate chain, via the topological order.
    let mut net_depth = vec![0usize; c.num_nets()];
    let mut depth = 0;
    for &gid in c.topo_gates() {
        let g = c.gate(gid);
        let d = 1 + g
            .inputs
            .iter()
            .map(|&i| net_depth[i.index()])
            .max()
            .unwrap_or(0);
        net_depth[g.output.index()] = d;
        depth = depth.max(d);
    }

    let mut max_fanout = 0;
    let mut fanout_stems = 0;
    for f in c.fanout_counts() {
        max_fanout = max_fanout.max(f);
        if f >= 2 {
            fanout_stems += 1;
        }
    }

    CircuitStats {
        inputs: c.num_inputs(),
        outputs: c.num_outputs(),
        dffs: c.num_dffs(),
        gates: c.num_gates(),
        kind_histogram,
        depth,
        max_fanout,
        fanout_stems,
        literals: c.literal_count(),
        feedback_dffs: feedback_dffs(c),
    }
}

/// Counts flip-flops on structural feedback paths: FF `k` is a feedback
/// FF when its output can reach its own data input through the
/// combinational logic and other flip-flops.
fn feedback_dffs(c: &Circuit) -> usize {
    // Reachability over the directed graph net -> loads' outputs,
    // crossing flip-flops (Q is reached from D).
    let reaches_self = |start: NetId, target_d: NetId| -> bool {
        let mut seen = vec![false; c.num_nets()];
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            if n == target_d {
                return true;
            }
            if std::mem::replace(&mut seen[n.index()], true) {
                continue;
            }
            for load in c.loads(n) {
                match *load {
                    Load::GatePin { gate, .. } => stack.push(c.gate(gate).output),
                    Load::DffData(k) => stack.push(c.dffs()[k].q),
                }
            }
        }
        false
    };
    c.dffs()
        .iter()
        .filter(|dff| {
            let d = dff.d.expect("levelized circuits have connected DFFs");
            // From Q, can we reach the net driving D (or D's driver)?
            reaches_self(dff.q, d)
        })
        .count()
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} inputs, {} outputs, {} flip-flops ({} on feedback), {} gates",
            self.inputs, self.outputs, self.dffs, self.feedback_dffs, self.gates
        )?;
        writeln!(
            f,
            "depth {}, max fanout {}, {} fanout stems, {} literals",
            self.depth, self.max_fanout, self.fanout_stems, self.literals
        )?;
        write!(f, "gate mix:")?;
        for (kind, n) in &self.kind_histogram {
            write!(f, " {kind}:{n}")?;
        }
        Ok(())
    }
}

/// Marks whether a net is driven by combinational logic (as opposed to a
/// PI, flip-flop or constant) — a helper several reports use.
pub fn is_combinational(c: &Circuit, net: NetId) -> bool {
    matches!(c.driver(net), Driver::Gate(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format;

    const TOY: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(g)\ng = NAND(a, q)\ny = XOR(g, b)\n";

    #[test]
    fn toy_stats() {
        let c = bench_format::parse("toy", TOY).unwrap();
        let s = circuit_stats(&c);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.dffs, 1);
        assert_eq!(s.gates, 2);
        assert_eq!(s.depth, 2, "NAND then XOR");
        assert_eq!(s.literals, 4);
        assert_eq!(s.feedback_dffs, 1, "q feeds the NAND that drives it");
        // g drives both the XOR and the DFF.
        assert_eq!(s.max_fanout, 2);
        assert_eq!(s.fanout_stems, 1);
    }

    #[test]
    fn s27_like_shape() {
        let c = bench_format::parse(
            "ff_chain",
            "INPUT(a)\nOUTPUT(y)\nq0 = DFF(a)\nq1 = DFF(q0)\ny = BUFF(q1)\n",
        )
        .unwrap();
        let s = circuit_stats(&c);
        assert_eq!(s.dffs, 2);
        assert_eq!(s.feedback_dffs, 0, "a pure shift chain has no feedback");
        assert_eq!(s.depth, 1);
    }

    #[test]
    fn kind_histogram_sorted() {
        let c = bench_format::parse(
            "mix",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn1 = AND(a, b)\nn2 = AND(a, n1)\ny = OR(n1, n2)\n",
        )
        .unwrap();
        let s = circuit_stats(&c);
        assert_eq!(s.kind_histogram[0], (GateKind::And, 2));
        assert_eq!(s.kind_histogram[1], (GateKind::Or, 1));
    }

    #[test]
    fn display_is_informative() {
        let c = bench_format::parse("toy", TOY).unwrap();
        let text = circuit_stats(&c).to_string();
        assert!(text.contains("2 inputs"));
        assert!(text.contains("depth 2"));
        assert!(text.contains("NAND:1"));
    }
}
