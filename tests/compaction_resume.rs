//! Static compaction resumes each trial from a snapshot of the pass's
//! starting sequence instead of re-simulating from the all-`X` state,
//! and decides it once its machines re-converge with the current
//! sequence's own run. These tests pin that the trials reach exactly
//! the verdicts of a from-scratch restoration oracle, so the compacted
//! sequence is the same, under both fault models, for block sizes that
//! do not divide the length, `bs = 1`, trial caps that stop a pass
//! midway, snapshot budgets small enough to leave gaps between the kept
//! snapshots, several keeps inside one pass and held rows on which
//! trials re-converge.

use proptest::prelude::*;
use wbist::atpg::compact::compact_with_snapshot_budget;
use wbist::atpg::{compact, CompactionConfig, Lfsr};
use wbist::circuits::SyntheticSpec;
use wbist::netlist::{Circuit, FaultList, FaultModel, FaultUniverse};
use wbist::sim::{FaultSim, TestSequence};

/// Omission-based compaction as specified, with every trial simulated
/// from scratch: scan block starts from the tail toward the head, keep
/// an omission when the shortened sequence detects at least as many
/// faults as the input, stay at the same start after a kept omission
/// unless it ran off the end, and stop once `max_trials` trials ran.
fn restoration_oracle(
    circuit: &Circuit,
    faults: &FaultList,
    sequence: &TestSequence,
    config: &CompactionConfig,
) -> TestSequence {
    let sim = FaultSim::new(circuit);
    let count = |seq: &TestSequence| sim.query(faults).sequence(seq).count();
    let target = count(sequence);
    let mut current = sequence.clone();
    let mut trials = 0;
    for &bs in &config.block_sizes {
        if bs == 0 {
            continue;
        }
        let mut start = current.len().saturating_sub(bs);
        while current.len() > bs {
            if trials == config.max_trials {
                return current;
            }
            trials += 1;
            let omit: Vec<usize> = (start..(start + bs).min(current.len())).collect();
            let shorter = current.without_rows(&omit);
            if count(&shorter) >= target {
                current = shorter;
                if start < current.len() {
                    continue;
                }
            }
            if start == 0 {
                break;
            }
            start = start.saturating_sub(bs);
        }
    }
    current
}

fn circuit(seed: u64) -> Circuit {
    SyntheticSpec::new("cres", 5, 3, 4, 40, seed % 16).build()
}

proptest! {
    /// `compact` equals the oracle under both fault models. The block
    /// lists mix sizes that rarely divide the length and always end in
    /// `bs = 1`; trial caps down to zero stop passes midway.
    #[test]
    fn resumed_trials_match_the_restoration_oracle(
        seed in any::<u64>(),
        len in 1usize..72,
        blocks in prop::collection::vec(1usize..14, 0..3),
        max_trials in 0usize..90,
    ) {
        let c = circuit(seed);
        let seq = Lfsr::new(20, (seed % 4000) as u32 + 3).sequence(5, len);
        let mut block_sizes = blocks;
        block_sizes.push(1);
        let cfg = CompactionConfig { block_sizes, max_trials };
        for model in FaultModel::ALL {
            let faults = FaultUniverse::checkpoints(model, &c);
            let want = restoration_oracle(&c, &faults, &seq, &cfg);
            prop_assert_eq!(compact(&c, &faults, &seq, &cfg), want, "{:?}", model);
        }
    }

    /// Budgets below one snapshot per trial start keep only every k-th
    /// start (the lowest alone at budget 0), and trials in between
    /// re-simulate from the nearest earlier snapshot: same result.
    #[test]
    fn sparse_snapshots_match_the_restoration_oracle(
        seed in any::<u64>(),
        len in 2usize..72,
        bs in 1usize..6,
        kept in 0usize..4,
    ) {
        let c = circuit(seed);
        let seq = Lfsr::new(20, (seed % 4000) as u32 + 5).sequence(5, len);
        let cfg = CompactionConfig { block_sizes: vec![bs, 1], max_trials: 2000 };
        for model in FaultModel::ALL {
            let faults = FaultUniverse::checkpoints(model, &c);
            let budget = kept * FaultSim::new(&c).begin(&faults).clone_bytes();
            let want = restoration_oracle(&c, &faults, &seq, &cfg);
            prop_assert_eq!(
                compact_with_snapshot_budget(&c, &faults, &seq, &cfg, budget),
                want,
                "{:?} at a budget of {} snapshots",
                model,
                kept
            );
        }
    }
}

/// The oracle is a real restoration compactor: it shortens a padded
/// sequence without losing a detection, so the proptests compare
/// against something that removes rows.
#[test]
fn oracle_shortens_and_keeps_coverage() {
    let c = circuit(3);
    let faults = FaultUniverse::checkpoints(FaultModel::StuckAt, &c);
    let seq = Lfsr::new(20, 77).sequence(5, 64);
    let cfg = CompactionConfig::default();
    let out = restoration_oracle(&c, &faults, &seq, &cfg);
    let sim = FaultSim::new(&c);
    assert!(out.len() < seq.len());
    assert!(sim.query(&faults).sequence(&out).count() >= sim.query(&faults).sequence(&seq).count());
    assert_eq!(compact(&c, &faults, &seq, &cfg), out);
}

/// Single-pass compactions that keep at least two omissions, so a kept
/// trial is followed by more trials of its own pass. Those read `D_C`
/// as the keep left it and take their base state from the window
/// instead of the pass's snapshot. Both fault models.
#[test]
fn kept_omissions_inside_a_pass_match_the_oracle() {
    for model in FaultModel::ALL {
        for seed in 0..8u64 {
            let c = circuit(seed);
            let faults = FaultUniverse::checkpoints(model, &c);
            let seq = Lfsr::new(20, seed as u32 * 7 + 11).sequence(5, 40);
            for bs in [1, 3] {
                let cfg = CompactionConfig {
                    block_sizes: vec![bs],
                    max_trials: 2000,
                };
                let want = restoration_oracle(&c, &faults, &seq, &cfg);
                assert!(
                    seq.len() - want.len() >= 2 * bs,
                    "{model:?} seed {seed} bs {bs}: fewer than two keeps"
                );
                assert_eq!(
                    compact(&c, &faults, &seq, &cfg),
                    want,
                    "{model:?} seed {seed} bs {bs}"
                );
            }
        }
    }
}

/// 16 LFSR rows, one row held for 24 cycles, then 8 more LFSR rows.
fn held(seed: u64) -> TestSequence {
    let mut lfsr = Lfsr::new(20, seed as u32 * 5 + 9);
    let mut seq = lfsr.sequence(5, 16);
    let hold = lfsr.sequence(5, 1);
    for _ in 0..24 {
        seq.append(&hold);
    }
    seq.append(&lfsr.sequence(5, 8));
    seq
}

/// Inside a held row the trial and its base run re-converge, so trials
/// there are decided by retiring machines against the base, not by
/// running them to the end: same result as the oracle.
#[test]
fn held_rows_reconverge_and_match_the_oracle() {
    for model in FaultModel::ALL {
        for seed in 0..8u64 {
            let c = circuit(seed);
            let faults = FaultUniverse::checkpoints(model, &c);
            let seq = held(seed);
            // Four rows apart inside the hold, machines already resolve.
            let sim = FaultSim::new(&c);
            let mut trial = sim.begin(&faults);
            sim.advance(&mut trial, &seq.slice(0..24));
            let mut base = trial.clone();
            sim.advance(&mut base, &seq.slice(24..28));
            assert!(
                !trial.retire_converged(&mut base).is_empty(),
                "{model:?} seed {seed}: the hold does not re-converge"
            );
            for block_sizes in [vec![16, 4, 1], vec![5, 1]] {
                let cfg = CompactionConfig {
                    block_sizes,
                    max_trials: 2000,
                };
                assert_eq!(
                    compact(&c, &faults, &seq, &cfg),
                    restoration_oracle(&c, &faults, &seq, &cfg),
                    "{model:?} seed {seed} {:?}",
                    cfg.block_sizes
                );
            }
        }
    }
}
