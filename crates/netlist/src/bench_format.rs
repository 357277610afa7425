//! Parser and writer for the ISCAS-89 `.bench` netlist format.
//!
//! The format, as used by the ISCAS-89 sequential benchmarks:
//!
//! ```text
//! # comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G5 = DFF(G10)
//! G14 = NOT(G0)
//! G8 = AND(G14, G6)
//! ```
//!
//! Supported gate keywords: `AND`, `NAND`, `OR`, `NOR`, `XOR`, `XNOR`,
//! `NOT`, `BUF`/`BUFF`, plus `DFF` for flip-flops and `CONST0`/`CONST1`
//! (a common extension) for constants.

use crate::circuit::{Circuit, Driver, GateKind, NetId};
use crate::error::NetlistError;
use std::fmt::Write as _;

/// Parses `.bench` source text into a levelized [`Circuit`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for syntax errors and any of the
/// validation errors of [`Circuit::levelize`] for structural problems.
pub fn parse(name: &str, src: &str) -> Result<Circuit, NetlistError> {
    if wbist_telemetry::failpoint::should_fire("netlist.bench_parse") {
        return Err(NetlistError::Parse {
            line: 0,
            message: "failpoint `netlist.bench_parse` fired".into(),
        });
    }
    let mut c = Circuit::new(name);
    // Deferred wiring, borrowed from `src`: (line_no, q, d) per flip-flop
    // and the output names.
    let mut dff_data: Vec<(usize, &str, &str)> = Vec::new();
    let mut outputs: Vec<&str> = Vec::new();
    // Gate input nets, reused from line to line.
    let mut ins: Vec<NetId> = Vec::new();

    for (ln0, raw) in src.lines().enumerate() {
        let line_no = ln0 + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let parse_err = |message: String| NetlistError::Parse {
            line: line_no,
            message,
        };

        if let Some(eq) = line.find('=') {
            let lhs = line[..eq].trim();
            let (head, list) = split_call(line[eq + 1..].trim(), line_no)?;
            if head.eq_ignore_ascii_case("DFF") {
                let mut args = call_args(list);
                match (args.next(), args.next()) {
                    (Some(d), None) => {
                        c.add_dff(lhs, None)?;
                        dff_data.push((line_no, lhs, d));
                    }
                    _ => {
                        return Err(parse_err(format!(
                            "DFF takes one input, got {}",
                            call_args(list).count()
                        )));
                    }
                }
            } else if head.eq_ignore_ascii_case("CONST0") || head.eq_ignore_ascii_case("CONST1") {
                if call_args(list).next().is_some() {
                    return Err(parse_err(format!(
                        "{} takes no inputs",
                        head.to_ascii_uppercase()
                    )));
                }
                c.add_const(lhs, head.eq_ignore_ascii_case("CONST1"))?;
            } else {
                let kind = GateKind::from_keyword(head)
                    .ok_or_else(|| parse_err(format!("unknown gate keyword `{head}`")))?;
                if call_args(list).next().is_none() {
                    return Err(parse_err(format!(
                        "{} needs at least one input",
                        head.to_ascii_uppercase()
                    )));
                }
                ins.clear();
                ins.extend(call_args(list).map(|a| c.declare_net(a)));
                c.add_gate(kind, lhs, &ins)?;
            }
        } else {
            let (head, list) = split_call(line, line_no)?;
            let mut args = call_args(list);
            let (Some(net), None) = (args.next(), args.next()) else {
                return Err(parse_err(format!(
                    "{} takes one net name",
                    head.to_ascii_uppercase()
                )));
            };
            if head.eq_ignore_ascii_case("INPUT") {
                c.try_add_input(net)?;
            } else if head.eq_ignore_ascii_case("OUTPUT") {
                outputs.push(net);
            } else {
                return Err(parse_err(format!("unknown directive `{head}`")));
            }
        }
    }

    for (line_no, q, d) in dff_data {
        let qn = c.net_by_name(q).ok_or_else(|| NetlistError::Parse {
            line: line_no,
            message: format!("flip-flop output `{q}` lost during parsing"),
        })?;
        let dn = c.declare_net(d);
        c.connect_dff_data(qn, dn)?;
    }
    for o in outputs {
        let net = c.declare_net(o);
        c.mark_output(net);
    }
    c.levelize()
}

/// Splits `head(args)` into the trimmed head and the text between the
/// first `(` and the last `)`.
fn split_call(text: &str, line_no: usize) -> Result<(&str, &str), NetlistError> {
    let err = |message: &str| NetlistError::Parse {
        line: line_no,
        message: message.into(),
    };
    let open = text.find('(').ok_or_else(|| err("expected `(`"))?;
    let close = text.rfind(')').ok_or_else(|| err("expected `)`"))?;
    if close < open {
        return Err(err("mismatched parentheses"));
    }
    Ok((text[..open].trim(), &text[open + 1..close]))
}

/// The non-empty, trimmed comma-separated arguments of a call.
fn call_args(list: &str) -> impl Iterator<Item = &str> {
    list.split(',').map(str::trim).filter(|a| !a.is_empty())
}

/// Writes a levelized (or raw) [`Circuit`] as `.bench` text.
///
/// The output round-trips through [`parse`] to an equivalent circuit.
pub fn write(c: &Circuit) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# {}", c.name());
    let _ = writeln!(
        s,
        "# {} inputs  {} outputs  {} D-type flipflops  {} gates",
        c.num_inputs(),
        c.num_outputs(),
        c.num_dffs(),
        c.num_gates()
    );
    for &i in c.inputs() {
        let _ = writeln!(s, "INPUT({})", c.net_name(i));
    }
    for &o in c.outputs() {
        let _ = writeln!(s, "OUTPUT({})", c.net_name(o));
    }
    s.push('\n');
    for dff in c.dffs() {
        match dff.d {
            Some(d) => {
                let _ = writeln!(s, "{} = DFF({})", c.net_name(dff.q), c.net_name(d));
            }
            // An unconnected data input cannot be expressed in `.bench`;
            // leave a comment instead of panicking mid-write.
            None => {
                let _ = writeln!(
                    s,
                    "# {} = DFF(?)  unconnected data input",
                    c.net_name(dff.q)
                );
            }
        }
    }
    for (_, g) in c.iter_gates() {
        let ins: Vec<&str> = g.inputs.iter().map(|&i| c.net_name(i)).collect();
        let _ = writeln!(
            s,
            "{} = {}({})",
            c.net_name(g.output),
            g.kind,
            ins.join(", ")
        );
    }
    // Constants (rare; extension keywords).
    for idx in 0..c.num_nets() {
        let net = NetId::from_index(idx);
        if let Driver::Const(v) = c.driver(net) {
            let _ = writeln!(s, "{} = CONST{}()", c.net_name(net), if v { 1 } else { 0 });
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = r"
# a toy circuit
INPUT(a)
INPUT(b)
OUTPUT(y)
q = DFF(g)
g = NAND(a, q)
y = XOR(g, b)
";

    #[test]
    fn parses_toy() {
        let c = parse("toy", TOY).unwrap();
        assert_eq!(c.num_inputs(), 2);
        assert_eq!(c.num_outputs(), 1);
        assert_eq!(c.num_dffs(), 1);
        assert_eq!(c.num_gates(), 2);
    }

    #[test]
    fn roundtrip() {
        let c = parse("toy", TOY).unwrap();
        let text = write(&c);
        let c2 = parse("toy2", &text).unwrap();
        assert_eq!(c.num_inputs(), c2.num_inputs());
        assert_eq!(c.num_outputs(), c2.num_outputs());
        assert_eq!(c.num_dffs(), c2.num_dffs());
        assert_eq!(c.num_gates(), c2.num_gates());
        // Gate kinds survive in order of creation.
        for (g1, g2) in c.gates().iter().zip(c2.gates()) {
            assert_eq!(g1.kind, g2.kind);
            assert_eq!(g1.inputs.len(), g2.inputs.len());
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let c = parse(
            "c",
            "  \n# hi\nINPUT(x) # trailing\nOUTPUT(y)\ny = NOT(x)\n",
        )
        .unwrap();
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn unknown_keyword_is_parse_error() {
        let err = parse("c", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 3, .. }));
    }

    #[test]
    fn missing_paren_is_parse_error() {
        let err = parse("c", "INPUT a\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 1, .. }));
    }

    #[test]
    fn dff_with_two_inputs_rejected() {
        let err = parse("c", "INPUT(a)\nq = DFF(a, a)\nOUTPUT(q)\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 2, .. }));
    }

    #[test]
    fn undriven_reference_rejected() {
        let err = parse("c", "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n").unwrap_err();
        assert!(matches!(err, NetlistError::UndrivenNet { .. }));
    }

    #[test]
    fn const_extension() {
        let c = parse("c", "INPUT(a)\nOUTPUT(y)\nk = CONST1()\ny = AND(a, k)\n").unwrap();
        let k = c.net_by_name("k").unwrap();
        assert_eq!(c.driver(k), Driver::Const(true));
        let text = write(&c);
        assert!(text.contains("CONST1"));
        parse("c2", &text).unwrap();
    }

    #[test]
    fn forward_references_ok() {
        // y uses g before g is defined.
        let c = parse("c", "INPUT(a)\nOUTPUT(y)\ny = NOT(g)\ng = BUFF(a)\n").unwrap();
        assert_eq!(c.num_gates(), 2);
    }
}
