//! Restoration-based static compaction of test sequences.
//!
//! The paper applies static compaction to the deterministic sequences it
//! consumes. This module implements omission-based compaction: a trial
//! removes one block of vectors, and the removal is kept when the
//! shortened sequence still detects as many faults as the input did.
//! Passes run with shrinking block sizes, scanning from the end of the
//! sequence toward the front (late vectors are most often redundant, and
//! removing them does not disturb the initialization prefix).
//!
//! Because a pass only moves its trial window toward the head, the rows
//! in front of the window are always the pass's starting rows. Each pass
//! therefore simulates its starting sequence once, keeping a
//! [`FaultSimState`] snapshot at every block start a trial can use, and
//! a trial resumes from the snapshot at its window.
//!
//! A trial that omits rows `[s, e)` of the current sequence `C` then
//! applies `C`'s rows from `e` on, exactly the rows `C`'s own run
//! applies from `e`. So the trial advances side by side with a *base*
//! run, `C`'s state at `e`, and every 8 rows (`CONVERGE_STEP`) retires
//! the machines whose state matches the base's while the fault-free
//! states match too ([`FaultSimState::retire_converged`]). Such a
//! machine has the same future in both runs: the trial detects it iff
//! `C` does, which the detected flags `D_C` of `C` answer. The trial
//! stops once no machine is left undecided, or as soon as it can no
//! longer reach the target. Simulation is a deterministic function of
//! the applied rows, so every trial reaches the verdict a from-scratch
//! simulation of the shortened sequence would, and a kept trial's flags
//! are `C`'s next `D_C`.

use wbist_netlist::{Circuit, FaultList};
use wbist_sim::{FaultSim, FaultSimState, TestSequence};

/// Heap bytes of [`FaultSimState`] snapshots one compaction pass keeps.
/// Past it a pass keeps every k-th trial start only, and a trial
/// between two kept starts first re-simulates the rows from the nearest
/// earlier one.
const SNAPSHOT_BUDGET: usize = 1 << 20;

/// Rows a trial and its base run advance between two convergence
/// checks.
const CONVERGE_STEP: usize = 8;

/// Configuration for [`compact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionConfig {
    /// Block sizes tried, in order. Defaults to `[64, 16, 4, 1]`.
    pub block_sizes: Vec<usize>,
    /// Upper bound on omission trials (compaction is quadratic in the
    /// worst case; this caps the effort).
    pub max_trials: usize,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig {
            block_sizes: vec![64, 16, 4, 1],
            max_trials: 2000,
        }
    }
}

/// Statically compacts `sequence` while preserving the number of faults
/// of `faults` it detects. Returns the compacted sequence (possibly the
/// input, if nothing could be removed).
///
/// # Panics
///
/// Panics if the circuit has not been levelized or the sequence width
/// does not match the circuit.
pub fn compact(
    circuit: &Circuit,
    faults: &FaultList,
    sequence: &TestSequence,
    config: &CompactionConfig,
) -> TestSequence {
    compact_with_snapshot_budget(circuit, faults, sequence, config, SNAPSHOT_BUDGET)
}

/// [`compact`] with the snapshot byte budget as a parameter, so tests can
/// drive the sparse-snapshot path on small circuits. The result does not
/// depend on `budget`. Not part of the public API.
#[doc(hidden)]
pub fn compact_with_snapshot_budget(
    circuit: &Circuit,
    faults: &FaultList,
    sequence: &TestSequence,
    config: &CompactionConfig,
    budget: usize,
) -> TestSequence {
    let sim = FaultSim::new(circuit);
    let mut current = sequence.clone();
    let mut trials = 0usize;
    // `D_C`, the detected flags of `current`, and the detection count
    // every trial must keep: both from the first pass's capture run.
    let mut detected: Option<(Vec<bool>, usize)> = None;

    for &bs in &config.block_sizes {
        if bs == 0 || current.len() <= bs {
            continue;
        }
        if trials >= config.max_trials {
            break;
        }
        // Scan block starts from the tail toward the head. The starts
        // the remaining trials can reach are `len − k·bs` (clamped at 0).
        let first = current.len() - bs;
        let lowest = first.saturating_sub((config.max_trials - trials - 1).saturating_mul(bs));
        let (snapshots, mut state) = Snapshots::capture(&sim, faults, &current, bs, lowest, budget);
        let (d_c, target) = detected.get_or_insert_with(|| {
            let rest = current.slice(state.elapsed()..current.len());
            sim.advance(&mut state, &rest);
            (state.detected().to_vec(), state.num_detected())
        });
        // Rows at and above `changed` differ from the pass's starting
        // sequence: the lowest start a trial of this pass kept.
        let mut changed = current.len();
        let mut start = first;
        loop {
            if trials >= config.max_trials {
                return current;
            }
            if current.len() <= bs {
                break;
            }
            let end = (start + bs).min(current.len());
            trials += 1;
            if let Some(kept) =
                snapshots.trial(&sim, &current, start, end, end <= changed, d_c, *target)
            {
                *d_c = kept;
                current = current.without_rows(&(start..end).collect::<Vec<_>>());
                changed = start;
                // The window now covers fresh rows; stay at the same start
                // unless it ran off the end.
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

/// The fault-simulation states of one pass's starting sequence at the
/// trial starts it keeps, ascending by start.
struct Snapshots {
    states: Vec<(usize, FaultSimState)>,
}

impl Snapshots {
    /// Simulates `seq` from the all-`X` state up to the last trial start
    /// `seq.len() − bs`, keeping the state at the starts `seq.len() −
    /// k·bs` (clamped at 0) that are not below `lowest`. When they would
    /// exceed `budget` bytes, only every k-th of them is kept, the
    /// lowest always. Also returns the run's state at the highest kept
    /// start.
    fn capture(
        sim: &FaultSim<'_>,
        faults: &FaultList,
        seq: &TestSequence,
        bs: usize,
        lowest: usize,
        budget: usize,
    ) -> (Snapshots, FaultSimState) {
        let mut starts: Vec<usize> = (1..)
            .map(|k| seq.len().saturating_sub(k * bs))
            .take_while(|&s| s > lowest)
            .collect();
        starts.push(lowest);
        starts.reverse();
        let mut state = sim.begin(faults);
        let per_state = state.clone_bytes().max(1);
        let stride = (starts.len() * per_state).div_ceil(budget.max(per_state));
        let mut states = Vec::with_capacity(starts.len().div_ceil(stride));
        let mut at = 0;
        for &s in starts.iter().step_by(stride) {
            sim.advance(&mut state, &seq.slice(at..s));
            at = s;
            states.push((s, state.clone()));
        }
        (Snapshots { states }, state)
    }

    /// The state of `seq` at row `at`, re-simulated from the nearest
    /// snapshot at or below it. Rows `[0, at)` of `seq` must equal those
    /// of the sequence the snapshots were captured from.
    fn state_at(&self, sim: &FaultSim<'_>, seq: &TestSequence, at: usize) -> FaultSimState {
        let i = self.states.partition_point(|&(s, _)| s <= at) - 1;
        let (from, snapshot) = &self.states[i];
        let mut state = snapshot.clone();
        sim.advance(&mut state, &seq.slice(*from..at));
        state
    }

    /// Whether omitting rows `[start, end)` of the current sequence
    /// `seq` keeps at least `target` detections: `Some` with the
    /// shortened sequence's detected flags if so. `d_c` holds `seq`'s
    /// detected flags. Rows `[0, start)` of `seq` must equal those of
    /// the sequence the snapshots were captured from, and rows
    /// `[0, end)` too when `end_unchanged` is set.
    #[allow(clippy::too_many_arguments)]
    fn trial(
        &self,
        sim: &FaultSim<'_>,
        seq: &TestSequence,
        start: usize,
        end: usize,
        end_unchanged: bool,
        d_c: &[bool],
        target: usize,
    ) -> Option<Vec<bool>> {
        let mut trial = self.state_at(sim, seq, start);
        // `seq`'s state at `end`: a snapshot when one sits there and
        // the rows below it are the captured ones, else the trial state
        // advanced over the omitted rows. None at the tail, where the
        // trial has no rows left to run.
        let mut base = (end < seq.len()).then(|| {
            let i = self.states.partition_point(|&(s, _)| s < end);
            match self.states.get(i) {
                Some((s, state)) if *s == end && end_unchanged => state.clone(),
                _ => {
                    let mut state = trial.clone();
                    sim.advance(&mut state, &seq.slice(start..end));
                    state
                }
            }
        });
        // Retired machines that `seq` detects: the trial detects them too.
        let mut resolved = Vec::new();
        let mut at = end;
        loop {
            if let Some(b) = base.as_mut() {
                let retired = trial.retire_converged(b);
                resolved.extend(retired.into_iter().filter(|&gi| d_c[gi]));
                if b.num_live() == 0 {
                    // Nothing left that a later check could retire.
                    sim.advance(&mut trial, &seq.slice(at..seq.len()));
                    at = seq.len();
                    base = None;
                }
            }
            let live = trial.num_live();
            if trial.num_detected() + resolved.len() + live < target {
                return None;
            }
            if live == 0 || at == seq.len() {
                break;
            }
            let rows = seq.slice(at..(at + CONVERGE_STEP).min(seq.len()));
            sim.advance(&mut trial, &rows);
            if let Some(b) = base.as_mut() {
                sim.advance(b, &rows);
            }
            at += rows.len();
        }
        (trial.num_detected() + resolved.len() >= target).then(|| {
            let mut kept = trial.detected().to_vec();
            for gi in resolved {
                kept[gi] = true;
            }
            kept
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{AtpgConfig, SequenceAtpg};
    use wbist_circuits::s27;
    use wbist_netlist::FaultList;

    #[test]
    fn compaction_preserves_coverage() {
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let result = SequenceAtpg::new(&c, AtpgConfig::default()).run(&faults);
        let sim = FaultSim::new(&c);
        let before = sim.query(&faults).sequence(&result.sequence).count();
        let compacted = compact(&c, &faults, &result.sequence, &CompactionConfig::default());
        let after = sim.query(&faults).sequence(&compacted).count();
        assert!(after >= before);
        assert!(compacted.len() <= result.sequence.len());
    }

    #[test]
    fn compaction_actually_shrinks_padded_sequences() {
        // Duplicate the paper's s27 sequence three times: at least the
        // copies must go.
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let t = s27::paper_test_sequence();
        let mut padded = t.clone();
        padded.append(&t);
        padded.append(&t);
        let compacted = compact(&c, &faults, &padded, &CompactionConfig::default());
        assert!(
            compacted.len() <= t.len() + 4,
            "compacted to {} rows",
            compacted.len()
        );
        let sim = FaultSim::new(&c);
        assert_eq!(
            sim.query(&faults).sequence(&compacted).count(),
            sim.query(&faults).sequence(&padded).count()
        );
    }

    #[test]
    fn trial_budget_respected() {
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let t = s27::paper_test_sequence();
        let cfg = CompactionConfig {
            block_sizes: vec![1],
            max_trials: 1,
        };
        // Must terminate fast and return something valid.
        let out = compact(&c, &faults, &t, &cfg);
        assert!(out.len() <= t.len());
    }

    #[test]
    fn short_sequences_survive() {
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let t = s27::paper_test_sequence().slice(0..1);
        let out = compact(&c, &faults, &t, &CompactionConfig::default());
        assert_eq!(out.len(), 1);
    }
}
