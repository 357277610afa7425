//! Differential proptests over the fault-model-generic query surface:
//! for every fault model, the compiled dirty-set kernel, the reference
//! full-walk kernel and the serial scalar oracle must agree on
//! arbitrary circuits and sequences, one-shot and incrementally — and
//! on periodic sequences, where the compiled kernel retires machines
//! whose state repeats and the fault-free sweep stops early.

use proptest::prelude::*;
use wbist::atpg::Lfsr;
use wbist::circuits::{wide_fanin, SyntheticSpec};
use wbist::core::{Subsequence, WeightAssignment};
use wbist::netlist::{FaultModel, FaultUniverse, NetId};
use wbist::sim::{FaultSim, LogicSim, SerialFaultSim, SimOptions, Telemetry, TestSequence};

proptest! {
    /// `compiled == reference` for both fault models on circuits whose
    /// fault lists span several 63-fault batches, at one worker thread
    /// and at four.
    #[test]
    fn compiled_kernel_equals_reference_kernel_all_models(seed in any::<u64>()) {
        let c = SyntheticSpec::new("difm", 6, 4, 5, 60, seed % 16).build();
        let seq = Lfsr::new(22, (seed % 6000) as u32 + 13).sequence(6, 48);
        for model in FaultModel::ALL {
            let faults = FaultUniverse::enumerate(model, &c);
            prop_assert!(faults.len() > 63, "fault list must span batches");
            let oracle = FaultSim::with_options(
                &c,
                SimOptions::with_threads(1).reference_kernel(true),
            );
            let expect = oracle.query(&faults).sequence(&seq).detection_times();
            for threads in [1usize, 4] {
                let fast = FaultSim::with_options(&c, SimOptions::with_threads(threads));
                prop_assert_eq!(
                    fast.query(&faults).sequence(&seq).detection_times(),
                    expect.clone(),
                    "{:?} kernel disagreement at {} threads",
                    model,
                    threads
                );
            }
        }
    }

    /// Both kernels agree with the scalar serial oracle per fault, for
    /// both models — three independent implementations of the same
    /// activation/injection semantics.
    #[test]
    fn kernels_equal_serial_oracle_all_models(seed in any::<u64>()) {
        let c = SyntheticSpec::new("difo", 5, 3, 4, 24, seed % 16).build();
        let seq = Lfsr::new(19, (seed % 5000) as u32 + 7).sequence(5, 32);
        let oracle = SerialFaultSim::new(&c);
        for model in FaultModel::ALL {
            let faults = FaultUniverse::checkpoints(model, &c);
            let expect: Vec<Option<usize>> = faults
                .faults()
                .iter()
                .map(|&f| oracle.detection_time(f, &seq))
                .collect();
            for reference in [false, true] {
                let sim = FaultSim::with_options(
                    &c,
                    SimOptions::with_threads(1).reference_kernel(reference),
                );
                prop_assert_eq!(
                    sim.query(&faults).sequence(&seq).detection_times(),
                    expect.clone(),
                    "{:?} vs serial oracle, reference={}",
                    model,
                    reference
                );
            }
        }
    }

    /// Gates of five to nine inputs, whose good machine the sweep lowers
    /// to record chains, agree with the serial oracle on every stem and
    /// pin fault, for both models, at one and two threads.
    #[test]
    fn wide_gates_equal_serial_oracle_all_models(seed in any::<u64>()) {
        let c = wide_fanin("difw", 5, 4, 24, seed % 16);
        let seq = Lfsr::new(19, (seed % 5000) as u32 + 11).sequence(5, 32);
        let oracle = SerialFaultSim::new(&c);
        for model in FaultModel::ALL {
            let faults = FaultUniverse::enumerate(model, &c);
            let expect: Vec<Option<usize>> = faults
                .faults()
                .iter()
                .map(|&f| oracle.detection_time(f, &seq))
                .collect();
            for threads in [1, 2] {
                let sim = FaultSim::with_options(&c, SimOptions::with_threads(threads));
                prop_assert_eq!(
                    sim.query(&faults).sequence(&seq).detection_times(),
                    expect.clone(),
                    "{:?} vs serial oracle at {} threads",
                    model,
                    threads
                );
            }
        }
    }

    /// Chunked `advance` equals one-shot detection for transition
    /// faults at arbitrary split points: the carried previous-cycle
    /// good values must reproduce launches that straddle the segment
    /// boundary.
    #[test]
    fn transition_advance_carries_launch_state(seed in any::<u64>(), cut in 1usize..31) {
        let c = SyntheticSpec::new("difc", 5, 3, 4, 24, seed % 16).build();
        let faults = FaultUniverse::enumerate(FaultModel::TransitionDelay, &c);
        let seq = Lfsr::new(21, (seed % 3000) as u32 + 11).sequence(5, 32);
        let sim = FaultSim::with_options(&c, SimOptions::with_threads(1));
        let oneshot = sim.query(&faults).sequence(&seq).detected();
        let mut st = sim.begin(&faults);
        sim.advance(&mut st, &seq.slice(0..cut));
        sim.advance(&mut st, &seq.slice(cut..seq.len()));
        prop_assert_eq!(st.detected(), &oneshot[..], "split at {}", cut);
    }

    /// A `FaultSimState` clone is independent of its original: the
    /// batches share only their immutable plans, so advancing the clone
    /// over another sequence leaves the original's detected flags,
    /// elapsed time, flip-flop planes and next `advance` result exactly
    /// as if the clone had never existed — for both fault models at one
    /// and two threads.
    #[test]
    fn state_clones_advance_independently(seed in any::<u64>(), cut in 1usize..31) {
        let c = SyntheticSpec::new("difk", 6, 4, 5, 60, seed % 16).build();
        let seq = Lfsr::new(21, (seed % 3000) as u32 + 17).sequence(6, 32);
        let other = Lfsr::new(22, (seed % 2000) as u32 + 5).sequence(6, 24);
        for model in FaultModel::ALL {
            let faults = FaultUniverse::enumerate(model, &c);
            prop_assert!(faults.len() > 63, "fault list must span batches");
            for threads in [1, 2] {
                let sim = FaultSim::with_options(&c, SimOptions::with_threads(threads));
                let head = seq.slice(0..cut);
                let mut untouched = sim.begin(&faults);
                sim.advance(&mut untouched, &head);
                let mut st = sim.begin(&faults);
                sim.advance(&mut st, &head);
                let mut clone = st.clone();
                sim.advance(&mut clone, &other);
                prop_assert_eq!(st.detected(), untouched.detected(), "{:?} at {} threads", model, threads);
                prop_assert_eq!(st.elapsed(), cut);
                let rest = seq.slice(cut..seq.len());
                let newly = sim.advance(&mut st, &rest);
                prop_assert_eq!(newly, sim.advance(&mut untouched, &rest), "{:?} at {} threads", model, threads);
                prop_assert_eq!(st.detected(), untouched.detected());
                prop_assert_eq!(st.elapsed(), seq.len());
                for f in 0..faults.len() {
                    prop_assert_eq!(st.debug_fault_ff(f), untouched.debug_fault_ff(f));
                }
            }
        }
    }
}

/// The two kinds of periodic sequence the paper's generator produces,
/// `len` rows over `inputs` inputs: a random block of `period` rows
/// repeated, and the `T_G` of a weight assignment whose subsequence
/// lengths divide `period` (input 0 carries a full `period`).
fn periodic_sequences(inputs: usize, period: usize, len: usize, seed: u64) -> [TestSequence; 2] {
    let block = Lfsr::new(20, (seed % 9000) as u32 + 3).sequence(inputs, period);
    let mut repeated = TestSequence::new(inputs);
    for u in 0..len {
        repeated.push_row(block.row(u % period));
    }
    let divisors: Vec<usize> = (1..=period).filter(|&d| period.is_multiple_of(d)).collect();
    let subs = (0..inputs)
        .map(|i| {
            let l = if i == 0 {
                period
            } else {
                divisors[(seed as usize + i) % divisors.len()]
            };
            Subsequence::new((0..l).map(|k| block.value(k, (i + k) % inputs)).collect())
        })
        .collect();
    [repeated, WeightAssignment::new(subs).generate(len)]
}

proptest! {
    /// On periodic sequences, where the compiled kernel retires
    /// machines whose state repeats at the input period, every one-shot
    /// query still equals the full-length oracles: detection times,
    /// detected flags and `any` the serial scalar simulator, observable
    /// lines the reference kernel. `sim.fault_cycles`, which retirement
    /// shortens, is the same at every thread count.
    #[test]
    fn periodic_sequences_equal_full_length_oracles(
        seed in any::<u64>(),
        period in 1usize..9,
        len in 16usize..49,
    ) {
        let c = SyntheticSpec::new("difp", 5, 3, 4, 30, seed % 16).build();
        let serial = SerialFaultSim::new(&c);
        let reference = FaultSim::with_options(&c, SimOptions::with_threads(1).reference_kernel(true));
        for seq in periodic_sequences(5, period, len, seed) {
            prop_assert!(seq.period().is_some_and(|p| period % p == 0));
            for model in FaultModel::ALL {
                let faults = FaultUniverse::enumerate(model, &c);
                let want: Vec<Option<usize>> =
                    faults.faults().iter().map(|&f| serial.detection_time(f, &seq)).collect();
                let lines = reference.query(&faults).sequence(&seq).observable_lines();
                let mut fault_cycles = None;
                for threads in [1, 2] {
                    let tel = Telemetry::enabled();
                    let sim = FaultSim::with_options(&c, SimOptions::with_threads(threads))
                        .telemetry(tel.clone());
                    let label = format!("{model:?} period {period} at {threads} threads");
                    let prep = &sim.prepare_sequences(std::slice::from_ref(&seq))[0];
                    prop_assert_eq!(
                        sim.query(&faults).prepared(prep).detection_times(),
                        want.clone(),
                        "prepared times, {}", label
                    );
                    let spent = tel.counter("sim.fault_cycles");
                    prop_assert_eq!(*fault_cycles.get_or_insert(spent), spent, "{}", label);
                    let detected: Vec<bool> = want.iter().map(Option::is_some).collect();
                    prop_assert_eq!(sim.query(&faults).sequence(&seq).detected(), detected, "{}", label);
                    prop_assert_eq!(
                        sim.query(&faults).sequence(&seq).any(),
                        want.iter().any(Option::is_some),
                        "{}", label
                    );
                    prop_assert_eq!(
                        sim.query(&faults).prepared(prep).observable_lines(),
                        lines.clone(),
                        "{}", label
                    );
                }
            }
        }
    }

    /// Every lane of a sweep over periodic sequences of mixed periods
    /// and lengths — lanes that stop recording once their state repeats
    /// and lanes that never repeat — reads the `LogicSim` value of every
    /// net at every cycle of its sequence.
    #[test]
    fn early_stopped_sweeps_equal_logic_sim(
        seed in any::<u64>(),
        periods in prop::collection::vec(1usize..9, 6..7),
        lens in prop::collection::vec(1usize..49, 6..7),
    ) {
        let c = SyntheticSpec::new("difs", 5, 3, 4, 30, seed % 16).build();
        let seqs: Vec<TestSequence> = periods
            .iter()
            .zip(&lens)
            .enumerate()
            .map(|(l, (&p, &len))| periodic_sequences(5, p, len, seed ^ l as u64)[l % 2].clone())
            .collect();
        let sim = FaultSim::with_options(&c, SimOptions::with_threads(1));
        let logic = LogicSim::new(&c);
        for (seq, prep) in seqs.iter().zip(sim.prepare_sequences(&seqs)) {
            let trace = logic.trace(seq).unwrap();
            for u in 0..seq.len() {
                for n in 0..c.num_nets() {
                    let net = NetId::from_index(n);
                    prop_assert_eq!(prep.debug_good_value(u, net), trace.value(u, net), "net {} at {}", n, u);
                }
            }
        }
    }
}

/// The periodic-sequence properties are not vacuous: over a few seeds,
/// sweeps stop early, and retirement fires under both fault models.
#[test]
fn periodic_sequences_stop_sweeps_and_retire_faults() {
    let mut stopped = 0;
    let mut retired = [0u64; 2];
    for seed in 0..8u64 {
        let c = SyntheticSpec::new("difp", 5, 3, 4, 30, seed).build();
        let seqs: Vec<TestSequence> = (1..9)
            .flat_map(|p| periodic_sequences(5, p, 48, seed))
            .collect();
        for (m, model) in FaultModel::ALL.into_iter().enumerate() {
            let tel = Telemetry::enabled();
            let sim =
                FaultSim::with_options(&c, SimOptions::with_threads(1)).telemetry(tel.clone());
            let faults = FaultUniverse::enumerate(model, &c);
            for prep in sim.prepare_sequences(&seqs) {
                stopped += usize::from(prep.recorded_rows() < prep.sequence().len());
                sim.query(&faults).prepared(&prep).detection_times();
            }
            retired[m] += tel.counter("sim.faults_retired");
        }
    }
    assert!(stopped > 0, "no sweep stopped early");
    assert!(
        retired.iter().all(|&r| r > 0),
        "retired per model: {retired:?}"
    );
}
