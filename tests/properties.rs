//! Property-based tests over cross-crate invariants.

use proptest::prelude::*;
use wbist::atpg::Lfsr;
use wbist::circuits::SyntheticSpec;
use wbist::core::{Subsequence, WeightAssignment};
use wbist::hw::{minimize, FsmBank, Sop};
use wbist::netlist::{
    bench_format, transform, Circuit, Driver, Fault, FaultList, FaultModel, FaultSite,
    FaultUniverse, Load, NetId,
};
use wbist::sim::{FaultSim, SerialFaultSim, SimOptions};

fn arb_subsequence(max_len: usize) -> impl Strategy<Value = Subsequence> {
    prop::collection::vec(any::<bool>(), 1..=max_len).prop_map(Subsequence::new)
}

/// [`FaultUniverse::checkpoints`] restated one net at a time through
/// `Circuit::fanout_count` and a scan of the observed nets.
fn checkpoints_by_fanout_count(model: FaultModel, c: &Circuit) -> Vec<Fault> {
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
    for idx in 0..c.num_nets() {
        let net = NetId::from_index(idx);
        if matches!(c.driver(net), Driver::Const(_)) || c.fanout_count(net) < 2 {
            continue;
        }
        for load in c.loads(net) {
            push(match *load {
                Load::GatePin { gate, pin } => FaultSite::GatePin { gate, pin },
                Load::DffData(k) => FaultSite::DffData(k),
            });
        }
        let is_ppi = matches!(c.driver(net), Driver::Input(_) | Driver::Dff(_));
        if c.observed_nets().any(|o| o == net) && !is_ppi {
            push(FaultSite::Stem(net));
        }
    }
    faults
}

proptest! {
    /// The one-pass checkpoint enumeration returns the per-net
    /// restatement's list, order included, on random circuits with
    /// observation points on random nets (primary outputs among them).
    #[test]
    fn checkpoints_equal_the_per_net_restatement(
        seed in any::<u64>(),
        gates in 12usize..90,
        taps in prop::collection::vec(any::<u32>(), 0..12),
    ) {
        let base = SyntheticSpec::new("ck", 5, 3, 6, gates, seed).build();
        let lines: Vec<NetId> = taps
            .iter()
            .map(|&t| NetId::from_index(t as usize % base.num_nets()))
            .collect();
        let c = transform::add_ideal_observation_points(&base, &lines).expect("valid lines");
        let fanout = c.fanout_counts();
        for (idx, &f) in fanout.iter().enumerate() {
            prop_assert_eq!(f, c.fanout_count(NetId::from_index(idx)));
        }
        for model in [FaultModel::StuckAt, FaultModel::TransitionDelay] {
            let listed = FaultUniverse::checkpoints(model, &c);
            prop_assert_eq!(listed.faults(), &checkpoints_by_fanout_count(model, &c)[..]);
        }
    }

    /// α^r is periodic with period |α|.
    #[test]
    fn stream_periodicity(sub in arb_subsequence(12), len in 1usize..100) {
        let stream = sub.stream(len);
        for (u, &v) in stream.iter().enumerate() {
            prop_assert_eq!(v, sub.bits()[u % sub.len()]);
        }
    }

    /// The primitive root generates the same stream as the original.
    #[test]
    fn primitive_root_same_stream(sub in arb_subsequence(12)) {
        let root = sub.primitive_root();
        prop_assert!(root.len() <= sub.len());
        prop_assert_eq!(sub.len() % root.len(), 0);
        prop_assert_eq!(sub.stream(48), root.stream(48));
        // The root itself is primitive.
        prop_assert_eq!(root.primitive_root().len(), root.len());
    }

    /// Deriving a subsequence from a track always yields a window match,
    /// and a full-length derivation reproduces the track prefix exactly.
    #[test]
    fn derivation_matches_window(
        track in prop::collection::vec(any::<bool>(), 1..40),
        u_frac in 0.0f64..1.0,
        ls_frac in 0.0f64..1.0,
    ) {
        let u = ((track.len() - 1) as f64 * u_frac) as usize;
        let ls = 1 + ((u as f64) * ls_frac) as usize;
        let sub = Subsequence::derive(&track, u, ls);
        prop_assert!(sub.matches_window(&track, u));
        let full = Subsequence::derive(&track, u, u + 1);
        prop_assert_eq!(&full.stream(u + 1)[..], &track[..=u]);
    }

    /// A weight assignment's generated sequence carries each input's
    /// periodic stream.
    #[test]
    fn assignment_generation(
        subs in prop::collection::vec(arb_subsequence(8), 1..6),
        len in 1usize..64,
    ) {
        let w = WeightAssignment::new(subs.clone());
        let tg = w.generate(len);
        prop_assert_eq!(tg.len(), len);
        for (i, sub) in subs.iter().enumerate() {
            prop_assert_eq!(tg.input_track(i), sub.stream(len));
        }
    }

    /// The FSM bank produces every requested stream through some output.
    #[test]
    fn fsm_bank_covers_all_streams(subs in prop::collection::vec(arb_subsequence(8), 1..8)) {
        let bank = FsmBank::from_subsequences(&subs);
        for sub in &subs {
            let (fi, oi) = bank.locate(sub).expect("every stream is implemented");
            let fsm = &bank.fsms()[fi];
            prop_assert_eq!(fsm.outputs[oi].stream(32), sub.stream(32));
            // And the minimized output logic agrees with the table.
            let logic = fsm.output_logic();
            for s in 0..fsm.length as u32 {
                prop_assert_eq!(logic[oi].eval(s), fsm.outputs[oi].bits()[s as usize]);
            }
        }
        prop_assert!(bank.total_outputs() <= subs.len());
    }

    /// QM minimization is exact on random functions with don't-cares.
    #[test]
    fn qm_exactness(on_code in any::<u16>(), dc_code in any::<u16>()) {
        let on: Vec<u32> = (0..16).filter(|&m| on_code >> m & 1 == 1).collect();
        let dc: Vec<u32> = (0..16)
            .filter(|&m| dc_code >> m & 1 == 1 && on_code >> m & 1 == 0)
            .collect();
        let sop = minimize(4, &on, &dc);
        for input in 0..16u32 {
            if dc.contains(&input) {
                continue;
            }
            prop_assert_eq!(sop.eval(input), on.contains(&input));
        }
        // A cover never has more terms than on-set minterms.
        if let Sop::Terms(terms) = &sop {
            prop_assert!(terms.len() <= on.len().max(1));
        }
    }

    /// Detection is monotone in sequence extension: everything a prefix
    /// detects, the full sequence detects.
    #[test]
    fn detection_monotonicity(seed in any::<u64>(), split in 4usize..60) {
        let c = SyntheticSpec::new("pm", 4, 3, 4, 40, seed % 16).build();
        let faults = FaultList::checkpoints(&c);
        let seq = Lfsr::new(20, (seed % 0xFFFF) as u32 + 1).sequence(4, 64);
        let sim = FaultSim::new(&c);
        let full = sim.query(&faults).sequence(&seq).detected();
        let prefix = sim
            .query(&faults)
            .sequence(&seq.slice(0..split.min(seq.len())))
            .detected();
        for (i, (&p, &f)) in prefix.iter().zip(&full).enumerate() {
            prop_assert!(!p || f, "fault {i} detected by prefix but not by full");
        }
    }

    /// `.bench` round-trips preserve simulation behaviour.
    #[test]
    fn bench_roundtrip_behaviour(seed in any::<u64>()) {
        let c = SyntheticSpec::new("rt", 5, 3, 4, 35, seed % 32).build();
        let text = bench_format::write(&c);
        let c2 = bench_format::parse("rt2", &text).expect("roundtrip parses");
        let seq = Lfsr::new(16, 0xACE1).sequence(5, 32);
        let a = wbist::sim::LogicSim::new(&c).outputs(&seq).expect("ok");
        let b = wbist::sim::LogicSim::new(&c2).outputs(&seq).expect("ok");
        prop_assert_eq!(a, b);
    }

    /// The MISR is linear: absorbing a stream then comparing signatures
    /// is deterministic and reset is complete.
    #[test]
    fn misr_determinism_and_reset(rows in prop::collection::vec(
        prop::collection::vec(any::<bool>(), 3), 1..40)) {
        use wbist::sim::{Logic3, Misr};
        let to_row = |r: &Vec<bool>| -> Vec<Logic3> {
            r.iter().map(|&b| Logic3::from(b)).collect()
        };
        let mut a = Misr::with_default_taps(8);
        let mut b = Misr::with_default_taps(8);
        for r in &rows {
            a.absorb(&to_row(r));
            b.absorb(&to_row(r));
        }
        prop_assert_eq!(a.signature(), b.signature());
        prop_assert!(a.is_known());
        a.reset();
        prop_assert_eq!(a.absorbed(), 0);
        prop_assert!(a.signature().iter().all(|&s| s == Logic3::Zero));
    }

    /// The incremental fault-simulation API agrees with one-shot
    /// simulation for arbitrary split points.
    #[test]
    fn incremental_equals_oneshot(seed in any::<u64>(), cut in 1usize..63) {
        let c = SyntheticSpec::new("inc", 4, 2, 3, 30, seed % 16).build();
        let faults = FaultList::checkpoints(&c);
        let seq = Lfsr::new(18, (seed % 1000) as u32 + 3).sequence(4, 64);
        let sim = FaultSim::new(&c);
        let oneshot = sim.query(&faults).sequence(&seq).detected();
        let mut st = sim.begin(&faults);
        sim.advance(&mut st, &seq.slice(0..cut));
        sim.advance(&mut st, &seq.slice(cut..seq.len()));
        prop_assert_eq!(st.detected(), &oneshot[..]);
    }

    /// The parallel engine's detection times agree exactly with the
    /// serial oracle, at one worker thread and at four. The circuit is
    /// big enough that its fault list spans several 63-fault batches.
    #[test]
    fn parallel_engine_equals_serial_oracle(seed in any::<u64>()) {
        let c = SyntheticSpec::new("par", 6, 4, 5, 60, seed % 16).build();
        let faults = FaultList::checkpoints(&c);
        prop_assert!(faults.len() > 63, "fault list must span batches");
        let seq = Lfsr::new(19, (seed % 5000) as u32 + 7).sequence(6, 48);
        let oracle = SerialFaultSim::new(&c);
        let expect: Vec<Option<usize>> = faults
            .faults()
            .iter()
            .map(|&f| oracle.detection_time(f, &seq))
            .collect();
        for threads in [1usize, 4] {
            let sim = FaultSim::with_options(&c, SimOptions::with_threads(threads));
            prop_assert_eq!(
                sim.query(&faults).sequence(&seq).detection_times(),
                expect.clone(),
                "thread count {}",
                threads
            );
        }
    }

    /// The compiled dirty-set kernel agrees with the reference
    /// full-walk kernel on arbitrary circuits, fault lists and
    /// sequences: identical detection sets, detection times, and
    /// flip-flop planes on every live machine bit.
    #[test]
    fn compiled_kernel_equals_reference_kernel(seed in any::<u64>(), cut in 1usize..47) {
        let c = SyntheticSpec::new("dif", 6, 4, 5, 60, seed % 16).build();
        let faults = FaultList::checkpoints(&c);
        prop_assert!(faults.len() > 63, "fault list must span batches");
        let seq = Lfsr::new(22, (seed % 6000) as u32 + 13).sequence(6, 48);
        let fast = FaultSim::with_options(&c, SimOptions::with_threads(1));
        let oracle = FaultSim::with_options(
            &c,
            SimOptions::with_threads(1).reference_kernel(true),
        );
        prop_assert_eq!(
            fast.query(&faults).sequence(&seq).detection_times(),
            oracle.query(&faults).sequence(&seq).detection_times()
        );
        prop_assert_eq!(fast.query(&faults).sequence(&seq).detected(), oracle.query(&faults).sequence(&seq).detected());
        // Incremental runs must leave identical flip-flop planes on
        // every live machine bit at the query boundary.
        let mut sf = fast.begin(&faults);
        fast.advance(&mut sf, &seq.slice(0..cut));
        fast.advance(&mut sf, &seq.slice(cut..seq.len()));
        let mut so = oracle.begin(&faults);
        oracle.advance(&mut so, &seq.slice(0..cut));
        oracle.advance(&mut so, &seq.slice(cut..seq.len()));
        prop_assert_eq!(sf.detected(), so.detected());
        let pf = sf.debug_ff_planes();
        let po = so.debug_ff_planes();
        prop_assert_eq!(pf.len(), po.len());
        for (bi, (bf, bo)) in pf.iter().zip(&po).enumerate() {
            let mask = bf.0 & bo.0;
            for (k, (&(o1, z1), &(o2, z2))) in bf.1.iter().zip(&bo.1).enumerate() {
                prop_assert_eq!(o1 & mask, o2 & mask, "ones, batch {} dff {}", bi, k);
                prop_assert_eq!(z1 & mask, z2 & mask, "zeros, batch {} dff {}", bi, k);
            }
        }
    }

    /// Chunked `advance` equals one-shot simulation at arbitrary split
    /// points, independent of the worker-thread count.
    #[test]
    fn chunked_advance_is_thread_invariant(
        seed in any::<u64>(),
        cut_a in 1usize..32,
        cut_b in 32usize..63,
    ) {
        let c = SyntheticSpec::new("chk", 6, 4, 5, 60, seed % 16).build();
        let faults = FaultList::checkpoints(&c);
        let seq = Lfsr::new(21, (seed % 3000) as u32 + 11).sequence(6, 64);
        let oneshot = FaultSim::new(&c).query(&faults).sequence(&seq).detected();
        for threads in [1usize, 4] {
            let sim = FaultSim::with_options(&c, SimOptions::with_threads(threads));
            let mut st = sim.begin(&faults);
            sim.advance(&mut st, &seq.slice(0..cut_a));
            sim.advance(&mut st, &seq.slice(cut_a..cut_b));
            sim.advance(&mut st, &seq.slice(cut_b..seq.len()));
            prop_assert_eq!(st.detected(), &oneshot[..], "thread count {}", threads);
            prop_assert_eq!(st.elapsed(), seq.len());
        }
    }

    /// Telemetry traces carry only deterministic counters: the rendered
    /// trace JSON of a full simulation is byte-identical at one worker
    /// thread and at four, on arbitrary circuits and sequences.
    #[test]
    fn telemetry_trace_is_thread_invariant(seed in any::<u64>()) {
        use wbist::sim::{RunOptions, Telemetry};
        let c = SyntheticSpec::new("tel", 6, 4, 5, 60, seed % 16).build();
        let faults = FaultList::checkpoints(&c);
        let seq = Lfsr::new(20, (seed % 4000) as u32 + 5).sequence(6, 48);
        let mut traces = Vec::new();
        for threads in [1usize, 4] {
            let tel = Telemetry::enabled();
            let run = RunOptions::with_threads(threads).telemetry(tel.clone());
            let sim = FaultSim::with_run_options(&c, &run);
            sim.query(&faults).sequence(&seq).detection_times();
            prop_assert!(tel.counter("sim.cycles") > 0);
            traces.push(tel.render_trace());
        }
        prop_assert_eq!(&traces[0], &traces[1]);
    }
}

/// Valid `wbist serve` request lines, one per op and submit shape.
const SERVE_REQUESTS: &[&str] = &[
    r#"{"op":"register","name":"c","builtin":"s27"}"#,
    r#"{"op":"register","name":"b","bench":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"}"#,
    r#"{"op":"submit","id":"j1","kind":"synth","circuit":"c","wall_secs":1.5}"#,
    r#"{"op":"submit","id":"j2","tenant":"t","kind":"synth","circuit":"c","lg":64,"seed":7,"wall_secs":30,"fault_cycles":5000,"max_assignments":3}"#,
    r#"{"op":"submit","id":"j3","kind":"sim","circuit":"c","rows":["0101","1100"],"wall_secs":2}"#,
    r#"{"op":"status","id":"j1"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"cancel","id":"j1"}"#,
    r#"{"op":"evict","id":"j2"}"#,
    r#"{"op":"failpoint","site":"serve.job_run","times":2}"#,
    r#"{"op":"shutdown"}"#,
];

/// Numbers at the edges of what JSON, `f64`, `u64` and `Duration` hold.
const EDGE_NUMBERS: &[&str] = &[
    "1e999",
    "-1e999",
    "-0",
    "0",
    "1e-999",
    "4.9e-324",
    "1e19",
    "1.7976931348623157e308",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
];

/// Byte spans of the numeric values in a request line.
fn numeric_spans(line: &str) -> Vec<(usize, usize)> {
    let b = line.as_bytes();
    let mut spans = Vec::new();
    for i in 1..b.len() {
        if b[i - 1] == b':' && (b[i].is_ascii_digit() || b[i] == b'-') {
            let end = (i..b.len())
                .find(|&j| !matches!(b[j], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                .unwrap_or(b.len());
            spans.push((i, end));
        }
    }
    spans
}

/// Parses one line the way the daemon does, and arms the budget of an
/// accepted submit as a worker would. Rejections must be typed errors.
fn serve_line_is_handled(line: &str) -> Result<(), TestCaseError> {
    use wbist::serve::{parse_request, Request};
    use wbist::sim::CancelToken;
    match parse_request(line) {
        Ok(Request::Submit(spec)) => {
            if let Some(secs) = spec.budget.wall_secs {
                prop_assert!(secs > 0.0, "accepted wall_secs {} in {:?}", secs, line);
            }
            let token = CancelToken::for_budget(&spec.budget);
            prop_assert!(token.is_armed());
        }
        Ok(_) => {}
        Err(e) => prop_assert!(!e.message.is_empty(), "empty error for {:?}", line),
    }
    Ok(())
}

proptest! {
    /// Mutated serve requests never panic the protocol layer or the
    /// worker that arms an accepted job's budget. Every numeric field
    /// of the chosen request takes every edge value (the submit shapes
    /// put `1e999` and `1e19` into `wall_secs`); then byte flips and a
    /// truncation corrupt the line further.
    #[test]
    fn mutated_serve_requests_never_panic(
        pick in 0usize..SERVE_REQUESTS.len(),
        edits in prop::collection::vec((0usize..10_000, 0u8..=255), 0..4),
        cut in 0usize..10_000,
    ) {
        let base = SERVE_REQUESTS[pick];
        serve_line_is_handled(base)?;
        let mut lines = Vec::new();
        for &(start, end) in &numeric_spans(base) {
            for edge in EDGE_NUMBERS {
                lines.push(format!("{}{edge}{}", &base[..start], &base[end..]));
            }
        }
        lines.push(base.to_string());
        for line in lines {
            serve_line_is_handled(&line)?;
            let mut bytes = line.into_bytes();
            for &(pos, byte) in &edits {
                let p = pos % bytes.len();
                bytes[p] = byte;
            }
            // Half the draws keep the full line.
            bytes.truncate(cut % (2 * bytes.len()));
            serve_line_is_handled(&String::from_utf8_lossy(&bytes))?;
        }
    }
}
