//! Static compaction resumes each trial from a snapshot of the pass's
//! starting sequence instead of re-simulating from the all-`X` state.
//! These proptests pin that the resumed trials reach exactly the
//! verdicts of a from-scratch restoration oracle, so the compacted
//! sequence is the same, under both fault models, for block sizes that
//! do not divide the length, `bs = 1`, trial caps that stop a pass
//! midway and snapshot budgets small enough to leave gaps between the
//! kept snapshots.

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
