//! Reverse-order simulation of `Ω` (paper, Section 4.3).
//!
//! The synthesis procedure builds `Ω` short-subsequences-first, which can
//! leave *redundant* assignments: ones whose detected faults are all also
//! detected by assignments generated later. Reverse-order simulation
//! removes them: walking `Ω` from the most recently generated assignment
//! backwards, each assignment's sequence is fault-simulated against the
//! still-uncovered fault set; an assignment detecting nothing new is
//! dropped.
//!
//! The walk order is fixed up front, so the good-machine traces are
//! prepared four sequences per sweep as the walk reaches them; each is
//! still queried one at a time against the live set.

use crate::select::SelectedAssignment;
use crate::PREPARE_BATCH;
use std::collections::VecDeque;
use wbist_netlist::{Circuit, FaultList};
use wbist_sim::{FaultSim, RunOptions, TestSequence};

/// Options for [`reverse_order_prune`].
#[derive(Debug, Clone)]
pub struct PruneOptions {
    /// `L_G`: the length the assignments' sequences are applied with.
    pub sequence_length: usize,
    /// Shared run options: simulator tuning, telemetry handle, seed.
    pub run: RunOptions,
}

impl PruneOptions {
    /// Options for sequences of length `sequence_length`, with default
    /// [`RunOptions`].
    pub fn new(sequence_length: usize) -> PruneOptions {
        PruneOptions {
            sequence_length,
            run: RunOptions::default(),
        }
    }

    /// Replaces the run options (builder style).
    pub fn run(mut self, run: RunOptions) -> PruneOptions {
        self.run = run;
        self
    }
}

/// Removes redundant assignments from `omega` by reverse-order
/// simulation, preserving the original relative order of the survivors.
///
/// `faults` is the full target fault list; `opts.sequence_length` is the
/// `L_G` the sequences are applied with.
///
/// # Panics
///
/// Panics if the circuit is not levelized or
/// `opts.sequence_length == 0`.
pub fn reverse_order_prune(
    circuit: &Circuit,
    faults: &FaultList,
    omega: &[SelectedAssignment],
    opts: &PruneOptions,
) -> Vec<SelectedAssignment> {
    assert!(opts.sequence_length > 0, "L_G must be positive");
    let tel = opts.run.telemetry.clone();
    let _span = tel.span("prune");
    let sim = FaultSim::with_run_options(circuit, &opts.run);
    let mut detected = vec![false; faults.len()];
    let mut keep = vec![false; omega.len()];
    let mut ahead = VecDeque::new();

    for k in (0..omega.len()).rev() {
        if let Some(reason) = opts.run.cancel.cancelled() {
            // Budget tripped: the assignments not yet examined stay kept
            // (only proven-redundant ones may be dropped), so the partial
            // result still covers everything `omega` covered.
            for slot in keep.iter_mut().take(k + 1) {
                *slot = true;
            }
            crate::runctl::note_truncation(&tel, reason);
            break;
        }
        let live: Vec<usize> = (0..faults.len()).filter(|&i| !detected[i]).collect();
        if live.is_empty() {
            break;
        }
        let live_faults: FaultList = live.iter().map(|&i| faults.faults()[i]).collect();
        if ahead.is_empty() {
            let seqs: Vec<TestSequence> = omega[k.saturating_sub(PREPARE_BATCH - 1)..=k]
                .iter()
                .rev()
                .map(|sel| sel.sequence(opts.sequence_length))
                .collect();
            ahead.extend(sim.prepare_sequences(&seqs));
        }
        let prep = ahead.pop_front().expect("a batch was just prepared");
        let flags = sim.query(&live_faults).prepared(&prep).detected();
        if let Some(reason) = opts.run.cancel.cancelled() {
            // Tripped inside this query: it may have stopped before its
            // detections, so this assignment is not proven redundant
            // either, and which faults a cut-short query flags depends
            // on thread timing.
            keep[..=k].fill(true);
            crate::runctl::note_truncation(&tel, reason);
            break;
        }
        let mut newly = 0;
        for (j, &i) in live.iter().enumerate() {
            if flags[j] {
                detected[i] = true;
                newly += 1;
            }
        }
        keep[k] = newly > 0;
    }

    let kept = keep.iter().filter(|&&k| k).count();
    tel.add("prune.kept", kept as u64);
    tel.add("prune.dropped", (omega.len() - kept) as u64);

    omega
        .iter()
        .zip(&keep)
        .filter(|&(_, &k)| k)
        .map(|(s, _)| s.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{synthesize_weighted_bist, SynthesisConfig};
    use wbist_circuits::s27;

    #[test]
    fn pruning_preserves_coverage() {
        let c = s27::circuit();
        let t = s27::paper_test_sequence();
        let faults = FaultList::checkpoints(&c);
        let cfg = SynthesisConfig {
            sequence_length: 100,
            ..SynthesisConfig::default()
        };
        let r = synthesize_weighted_bist(&c, &t, &faults, &cfg);
        let pruned = reverse_order_prune(
            &c,
            &faults,
            &r.omega,
            &PruneOptions::new(cfg.sequence_length),
        );
        assert!(pruned.len() <= r.omega.len());

        // Coverage after pruning must still match.
        let sim = FaultSim::new(&c);
        let mut detected = vec![false; faults.len()];
        for sel in &pruned {
            for (d, f) in detected.iter_mut().zip(
                sim.query(&faults)
                    .sequence(&sel.sequence(cfg.sequence_length))
                    .detected(),
            ) {
                *d |= f;
            }
        }
        for (i, (&target, &hit)) in r.target.iter().zip(&detected).enumerate() {
            if target {
                assert!(hit, "pruning lost fault {i}");
            }
        }
    }

    #[test]
    fn duplicate_assignments_are_pruned() {
        // Duplicating Ω must not survive reverse-order simulation intact.
        let c = s27::circuit();
        let t = s27::paper_test_sequence();
        let faults = FaultList::checkpoints(&c);
        let cfg = SynthesisConfig {
            sequence_length: 100,
            ..SynthesisConfig::default()
        };
        let r = synthesize_weighted_bist(&c, &t, &faults, &cfg);
        let mut doubled = r.omega.clone();
        doubled.extend(r.omega.iter().cloned());
        let pruned = reverse_order_prune(
            &c,
            &faults,
            &doubled,
            &PruneOptions::new(cfg.sequence_length),
        );
        assert!(pruned.len() <= r.omega.len());
    }

    #[test]
    fn empty_omega_is_fine() {
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let pruned = reverse_order_prune(&c, &faults, &[], &PruneOptions::new(100));
        assert!(pruned.is_empty());
    }

    #[test]
    fn telemetry_counts_kept_plus_dropped() {
        let c = s27::circuit();
        let t = s27::paper_test_sequence();
        let faults = FaultList::checkpoints(&c);
        let cfg = SynthesisConfig {
            sequence_length: 100,
            ..SynthesisConfig::default()
        };
        let r = synthesize_weighted_bist(&c, &t, &faults, &cfg);
        let tel = wbist_sim::Telemetry::enabled();
        let opts = PruneOptions::new(cfg.sequence_length)
            .run(wbist_sim::RunOptions::default().telemetry(tel.clone()));
        let pruned = reverse_order_prune(&c, &faults, &r.omega, &opts);
        assert_eq!(tel.counter("prune.kept"), pruned.len() as u64);
        assert_eq!(
            tel.counter("prune.kept") + tel.counter("prune.dropped"),
            r.omega.len() as u64
        );
    }
}
