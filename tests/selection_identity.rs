//! Bit-identity of the selection walk across execution settings.
//!
//! Worker count is a wall-clock knob only: `Ω`, the
//! detection/abandonment flags, and every deterministic telemetry
//! counter must be bit-identical to the single-threaded walk at every
//! worker count.

use proptest::prelude::*;
use wbist::atpg::Lfsr;
use wbist::circuits::{s27, synthetic};
use wbist::core::{RunOptions, Synthesis, SynthesisConfig, SynthesisResult, Telemetry};
use wbist::netlist::{Circuit, FaultList};
use wbist::sim::TestSequence;

type Counters = Vec<(String, u64)>;

/// One synthesis run at a given worker count, returning
/// the result and the deterministic counter snapshot.
fn run_once(
    c: &Circuit,
    t: &TestSequence,
    faults: &FaultList,
    pre: Option<&[bool]>,
    base: &SynthesisConfig,
    threads: usize,
) -> (SynthesisResult, Counters) {
    let tel = Telemetry::enabled();
    let run = RunOptions::with_threads(threads).telemetry(tel.clone());
    let cfg = SynthesisConfig {
        run,
        ..base.clone()
    };
    let mut synth = Synthesis::new(c, t, faults).config(cfg);
    if let Some(pre) = pre {
        synth = synth.already_detected(pre);
    }
    let result = synth.run();
    (result, tel.counters())
}

fn assert_identical(
    label: &str,
    reference: &(SynthesisResult, Counters),
    candidate: &(SynthesisResult, Counters),
) {
    assert_eq!(candidate.0.omega, reference.0.omega, "{label}: Ω");
    assert_eq!(
        candidate.0.detected, reference.0.detected,
        "{label}: detection flags"
    );
    assert_eq!(
        candidate.0.abandoned, reference.0.abandoned,
        "{label}: abandonment flags"
    );
    assert_eq!(candidate.1, reference.1, "{label}: deterministic counters");
}

fn s27_reference() -> (Circuit, TestSequence, FaultList, SynthesisConfig) {
    let c = s27::circuit();
    let t = s27::paper_test_sequence();
    let faults = FaultList::checkpoints(&c);
    let base = SynthesisConfig {
        sequence_length: 100,
        ..SynthesisConfig::default()
    };
    (c, t, faults, base)
}

fn counter(counters: &Counters, name: &str) -> u64 {
    counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| *v)
}

/// The worker-count grid on s27 with the paper's sequence at the
/// 64-bit plane word.
#[test]
fn s27_thread_grid_matches_reference_walk() {
    let (c, t, faults, base) = s27_reference();
    let reference = run_once(&c, &t, &faults, None, &base, 1);
    assert!(!reference.0.omega.is_empty());
    for threads in [2usize, 4] {
        let candidate = run_once(&c, &t, &faults, None, &base, threads);
        assert_identical(&format!("threads={threads}"), &reference, &candidate);
    }
}

/// The plane-word grid on s27: the fault plane is one 64-bit word (63
/// faulty machines), and s27's checkpoint list fits one batch, so every
/// full query runs exactly one batch at every worker count, a repeat of
/// the single-threaded walk included, and the walk stays bit-identical.
#[test]
fn s27_word_width_grid_matches_reference_walk() {
    let (c, t, faults, base) = s27_reference();
    assert!(
        faults.len() <= 63,
        "s27's list must fit one 64-bit plane word"
    );
    let reference = run_once(&c, &t, &faults, None, &base, 1);
    assert!(!reference.0.omega.is_empty());
    for threads in [1usize, 2, 4] {
        let candidate = run_once(&c, &t, &faults, None, &base, threads);
        let label = format!("word=u64 threads={threads}");
        let calls = counter(&candidate.1, "sim.calls");
        assert!(calls > 0, "{label}: no full query ran");
        assert_eq!(
            counter(&candidate.1, "sim.batches"),
            calls,
            "{label}: one batch per full query"
        );
        assert_identical(&label, &reference, &candidate);
    }
}

/// A bigger circuit with a subsampled target set: every worker count
/// reproduces the single-threaded walk.
#[test]
fn s1196_thread_counts_match_reference_walk() {
    let c = synthetic::by_name("s1196").expect("known benchmark");
    let faults = FaultList::checkpoints(&c);
    let t = Lfsr::new(24, 0xACE1).sequence(c.num_inputs(), 48);
    let pre: Vec<bool> = (0..faults.len()).map(|i| i % 25 != 0).collect();
    let base = SynthesisConfig {
        sequence_length: 64,
        ..SynthesisConfig::default()
    };
    let reference = run_once(&c, &t, &faults, Some(&pre), &base, 1);
    assert!(reference.0.omega.len() >= 2, "need a non-trivial walk");
    for threads in [2usize, 4] {
        let candidate = run_once(&c, &t, &faults, Some(&pre), &base, threads);
        assert_identical(&format!("threads={threads}"), &reference, &candidate);
    }
}

proptest! {
    /// Randomized configurations (sequence, L_G, screening knobs) with a
    /// randomly drawn worker count: every draw must match its own
    /// single-threaded reference.
    #[test]
    fn random_configs_are_thread_invariant(
        seed in 1u32..0xFFFF,
        t_len in 8usize..32,
        lg in 24usize..80,
        sample_size in 1usize..8,
        sample_sel in 0u8..2,
        threads in 2usize..5,
    ) {
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let t = Lfsr::new(16, seed).sequence(c.num_inputs(), t_len);
        let base = SynthesisConfig {
            sequence_length: lg,
            sample_first: sample_sel == 1,
            sample_size,
            ..SynthesisConfig::default()
        };
        let reference = run_once(&c, &t, &faults, None, &base, 1);
        let candidate = run_once(&c, &t, &faults, None, &base, threads);
        prop_assert_eq!(&candidate.0.omega, &reference.0.omega);
        prop_assert_eq!(&candidate.0.detected, &reference.0.detected);
        prop_assert_eq!(&candidate.0.abandoned, &reference.0.abandoned);
        prop_assert_eq!(&candidate.1, &reference.1);
    }
}
