//! Bit-identity of the selection walk across execution settings.
//!
//! Worker count and fault-plane word width are wall-clock knobs only:
//! `Ω`, the detection/abandonment flags, and every deterministic
//! telemetry counter must be bit-identical to the single-threaded
//! 64-bit walk under every combination of them.

use proptest::prelude::*;
use wbist::atpg::Lfsr;
use wbist::circuits::{s27, synthetic};
use wbist::core::{RunOptions, Synthesis, SynthesisConfig, SynthesisResult, Telemetry};
use wbist::netlist::{Circuit, FaultList};
use wbist::sim::{TestSequence, WordWidth};

type Counters = Vec<(String, u64)>;

/// One synthesis run at a given worker count and word width, returning
/// the result and the deterministic counter snapshot.
fn run_once(
    c: &Circuit,
    t: &TestSequence,
    faults: &FaultList,
    pre: Option<&[bool]>,
    base: &SynthesisConfig,
    threads: usize,
    word_width: WordWidth,
) -> (SynthesisResult, Counters) {
    let tel = Telemetry::enabled();
    let mut run = RunOptions::with_threads(threads).telemetry(tel.clone());
    run.sim.word_width = word_width;
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

/// The worker-count grid on s27 with the paper's sequence at the default
/// 64-bit plane word.
#[test]
fn s27_thread_grid_matches_reference_walk() {
    let (c, t, faults, base) = s27_reference();
    let reference = run_once(&c, &t, &faults, None, &base, 1, WordWidth::W64);
    assert!(!reference.0.omega.is_empty());
    for threads in [2usize, 4] {
        let candidate = run_once(&c, &t, &faults, None, &base, threads, WordWidth::W64);
        assert_identical(&format!("threads={threads}"), &reference, &candidate);
    }
}

/// The worker-count × word-width grid on s27 with the paper's sequence.
/// A wider plane word repacks the same machines into fewer batches;
/// s27's live list fits one batch at any width, which keeps even the
/// batch-partitioning counters (`sim.batches`, gate figures) identical.
/// The committed synth goldens pin the multi-batch circuits at width 128
/// in CI.
#[test]
fn s27_word_width_grid_matches_reference_walk() {
    let (c, t, faults, base) = s27_reference();
    let reference = run_once(&c, &t, &faults, None, &base, 1, WordWidth::W64);
    assert!(!reference.0.omega.is_empty());
    #[cfg(feature = "w256")]
    let widths = [WordWidth::W64, WordWidth::W128, WordWidth::W256];
    #[cfg(not(feature = "w256"))]
    let widths = [WordWidth::W64, WordWidth::W128];
    for ww in widths {
        for threads in [1usize, 2, 4] {
            let candidate = run_once(&c, &t, &faults, None, &base, threads, ww);
            assert_identical(
                &format!("word_width={ww:?} threads={threads}"),
                &reference,
                &candidate,
            );
        }
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
    let reference = run_once(&c, &t, &faults, Some(&pre), &base, 1, WordWidth::W64);
    assert!(reference.0.omega.len() >= 2, "need a non-trivial walk");
    for threads in [2usize, 4] {
        let candidate = run_once(&c, &t, &faults, Some(&pre), &base, threads, WordWidth::W64);
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
        let reference = run_once(&c, &t, &faults, None, &base, 1, WordWidth::W64);
        let candidate = run_once(&c, &t, &faults, None, &base, threads, WordWidth::W64);
        prop_assert_eq!(&candidate.0.omega, &reference.0.omega);
        prop_assert_eq!(&candidate.0.detected, &reference.0.detected);
        prop_assert_eq!(&candidate.0.abandoned, &reference.0.abandoned);
        prop_assert_eq!(&candidate.1, &reference.1);
    }
}
