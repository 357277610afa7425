//! Simulation-based deterministic test sequence generation.
//!
//! The generator grows a test sequence block by block. Each round it
//! proposes a population of candidate input blocks — pseudo-random rows
//! with per-input biases, plus mutations of the previous winner — and
//! fault-simulates every candidate *incrementally* from the current
//! good/faulty machine states (no re-simulation of the prefix). The block
//! that detects the most new faults is committed together with the state
//! its probe reached, so a winner is simulated once. When no candidate
//! makes progress, exploration continues for a bounded number of rounds
//! (the circuit still walks through state space, which is how
//! hard-to-reach states get found) before giving up.
//!
//! Candidate evaluation uses a *sample* of the undetected faults for
//! speed; the committed block is always simulated against the full
//! remaining fault set, so reported coverage is exact.
//!
//! A round draws its sample and all its candidate blocks first, then
//! evaluates the candidates as independent tasks of the shared worker
//! pool ([`wbist_sim::pool::scatter`]), each on a single-threaded
//! simulator. The winner is the first candidate with the largest gain,
//! whichever worker scored it, and simulation draws no random numbers,
//! so the sequence is the same at every worker count.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wbist_netlist::{Circuit, FaultList};
use wbist_sim::{pool, FaultSim, FaultSimState, RunOptions, SimOptions, TestSequence};

/// Configuration for [`SequenceAtpg`].
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgConfig {
    /// RNG seed; runs are deterministic for a given seed.
    pub seed: u64,
    /// Rows appended per committed block.
    pub block_len: usize,
    /// Candidate blocks evaluated per round.
    pub candidates: usize,
    /// Rounds without progress before the search stops.
    pub patience: usize,
    /// Hard cap on the generated sequence length.
    pub max_len: usize,
    /// Maximum number of undetected faults simulated per candidate
    /// evaluation (the sample); the commit step always uses all of them.
    pub eval_sample: usize,
    /// Per-input bias choices for candidate blocks.
    pub biases: Vec<f64>,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            seed: 0xA7B6_C5D4,
            block_len: 8,
            candidates: 8,
            patience: 24,
            max_len: 4000,
            eval_sample: 126,
            biases: vec![0.05, 0.15, 0.35, 0.5, 0.65, 0.85, 0.95],
        }
    }
}

/// The outcome of a generation run.
#[derive(Debug, Clone)]
pub struct AtpgResult {
    /// The generated deterministic sequence `T`.
    pub sequence: TestSequence,
    /// Detected flag per fault of the target list.
    pub detected: Vec<bool>,
}

impl AtpgResult {
    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.detected.iter().filter(|&&d| d).count()
    }

    /// Fraction of the target faults detected (0.0 when the list is
    /// empty).
    pub fn coverage(&self) -> f64 {
        if self.detected.is_empty() {
            0.0
        } else {
            self.detected_count() as f64 / self.detected.len() as f64
        }
    }
}

/// Simulation-based sequence generator for a circuit.
#[derive(Debug)]
pub struct SequenceAtpg<'c> {
    circuit: &'c Circuit,
    config: AtpgConfig,
}

impl<'c> SequenceAtpg<'c> {
    /// Creates a generator for `circuit` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized or the configuration
    /// has a zero `block_len`/`candidates`.
    pub fn new(circuit: &'c Circuit, config: AtpgConfig) -> Self {
        assert!(circuit.is_levelized(), "circuit must be levelized");
        assert!(config.block_len > 0, "block_len must be positive");
        assert!(config.candidates > 0, "candidates must be positive");
        SequenceAtpg { circuit, config }
    }

    /// Generates a deterministic test sequence targeting `faults`.
    pub fn run(&self, faults: &FaultList) -> AtpgResult {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.run_with_threads(faults, threads)
    }

    /// [`run`](Self::run) on `threads` workers, so tests can pin the
    /// worker count. The result does not depend on it. Not part of the
    /// public API.
    #[doc(hidden)]
    pub fn run_with_threads(&self, faults: &FaultList, threads: usize) -> AtpgResult {
        let sim = FaultSim::with_options(self.circuit, SimOptions::with_threads(threads));
        // Candidate tasks already run in parallel: each simulates its
        // batches on one thread, sharing `sim`'s lowering.
        let task_sim = FaultSim::with_run_options(
            self.circuit,
            &RunOptions::with_threads(1).compiled(sim.compiled_handle()),
        );
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n_inputs = self.circuit.num_inputs();
        let mut t = TestSequence::new(n_inputs);
        let mut state = sim.begin(faults);
        let mut stale_rounds = 0usize;
        let mut last_best: Option<TestSequence> = None;

        while state.num_detected() < faults.len()
            && t.len() + self.config.block_len <= self.config.max_len
            && stale_rounds < self.config.patience
        {
            let sample = self.pick_sample(&state, &mut rng);
            let mut candidates: Vec<TestSequence> = (0..self.config.candidates)
                .map(|ci| self.candidate(ci, &last_best, n_inputs, &mut rng))
                .collect();
            // The best candidate so far as `(gain, index, probe state)`,
            // the state present when its probe ran the whole block (a
            // sample miss skips it). Only the best probe outlives its
            // task.
            let best: Mutex<Option<(usize, usize, Option<FaultSimState>)>> = Mutex::new(None);
            pool::scatter(
                threads.min(candidates.len()),
                candidates.iter().enumerate().collect(),
                || (),
                |(ci, cand), _| {
                    // Fast sample evaluation; exact commit below.
                    let (gained, probe) =
                        if sample.is_empty() || task_sim.sample_detects(&state, &sample, cand) {
                            let mut probe = state.clone();
                            (task_sim.advance(&mut probe, cand), Some(probe))
                        } else {
                            (0, None)
                        };
                    let mut best = best.lock().expect("no candidate task panicked");
                    if best
                        .as_ref()
                        .is_none_or(|&(b, bi, _)| gained > b || (gained == b && ci < bi))
                    {
                        *best = Some((gained, ci, probe));
                    }
                },
            );
            let (gained, ci, probe) = best
                .into_inner()
                .expect("no candidate task panicked")
                .expect("candidates > 0");
            let block = candidates.swap_remove(ci);
            // Commit the winner even when it gains nothing: walking the
            // state space is what eventually reaches hard states. A probe
            // that ran the whole block already holds the committed state.
            if let Some(probe) = probe {
                state = probe;
            } else {
                sim.advance(&mut state, &block);
            }
            t.append(&block);
            last_best = Some(block);
            if gained > 0 {
                stale_rounds = 0;
            } else {
                stale_rounds += 1;
            }
        }

        AtpgResult {
            sequence: t,
            detected: state.detected().to_vec(),
        }
    }

    /// Chooses the fault-index sample used for fast candidate screening:
    /// the first `eval_sample` still-undetected faults (detection order
    /// biases early faults out quickly, so this set keeps rotating).
    fn pick_sample(&self, state: &FaultSimState, rng: &mut StdRng) -> Vec<usize> {
        let undetected: Vec<usize> = state
            .detected()
            .iter()
            .enumerate()
            .filter(|&(_, &d)| !d)
            .map(|(i, _)| i)
            .collect();
        if undetected.len() <= self.config.eval_sample {
            // Sample covers everything: skip sampling (empty = full sim).
            return Vec::new();
        }
        let mut sample = Vec::with_capacity(self.config.eval_sample);
        // Half head (hard faults cluster at the front as easy ones drop),
        // half random.
        let head = self.config.eval_sample / 2;
        sample.extend_from_slice(&undetected[..head]);
        for _ in head..self.config.eval_sample {
            sample.push(undetected[rng.gen_range(0..undetected.len())]);
        }
        sample.sort_unstable();
        sample.dedup();
        sample
    }

    /// Builds candidate block `ci`: candidate 0 mutates the previous
    /// winner; the rest are biased-random.
    fn candidate(
        &self,
        ci: usize,
        last_best: &Option<TestSequence>,
        n_inputs: usize,
        rng: &mut StdRng,
    ) -> TestSequence {
        if ci == 0 {
            if let Some(prev) = last_best {
                // Mutate: flip ~10% of the bits of the previous winner.
                let mut rows: Vec<Vec<bool>> =
                    (0..prev.len()).map(|u| prev.row(u).to_vec()).collect();
                for row in &mut rows {
                    for b in row.iter_mut() {
                        if rng.gen_bool(0.1) {
                            *b = !*b;
                        }
                    }
                }
                return TestSequence::from_rows(rows).expect("rows are rectangular");
            }
        }
        // Biased random block. A third of the candidates share one bias
        // across all inputs — extreme shared biases reach the all-0/all-1
        // corners that random-pattern-resistant logic (wide AND/OR cones)
        // needs. The rest get an independent bias per input; occasionally
        // an input is held constant for the whole block (helps sequential
        // initialization).
        let shared = if rng.gen_bool(0.33) {
            Some(self.config.biases[rng.gen_range(0..self.config.biases.len())])
        } else {
            None
        };
        let biases: Vec<f64> = (0..n_inputs)
            .map(|_| match shared {
                Some(b) => b,
                None => self.config.biases[rng.gen_range(0..self.config.biases.len())],
            })
            .collect();
        let hold: Vec<Option<bool>> = (0..n_inputs)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    Some(rng.gen_bool(0.5))
                } else {
                    None
                }
            })
            .collect();
        let mut seq = TestSequence::new(n_inputs);
        let mut row = vec![false; n_inputs];
        for _ in 0..self.config.block_len {
            for i in 0..n_inputs {
                row[i] = match hold[i] {
                    Some(v) => v,
                    None => rng.gen_bool(biases[i]),
                };
            }
            seq.push_row(&row);
        }
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbist_circuits::s27;
    use wbist_netlist::FaultList;

    #[test]
    fn s27_reaches_full_coverage() {
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let result = SequenceAtpg::new(&c, AtpgConfig::default()).run(&faults);
        assert_eq!(result.detected_count(), faults.len());
        assert!(result.sequence.len() <= AtpgConfig::default().max_len);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let cfg = AtpgConfig::default();
        let a = SequenceAtpg::new(&c, cfg.clone()).run(&faults);
        let b = SequenceAtpg::new(&c, cfg).run(&faults);
        assert_eq!(a.sequence, b.sequence);
        assert_eq!(a.detected, b.detected);
    }

    #[test]
    fn detected_flags_are_exact() {
        // The reported flags must agree with an independent one-shot
        // simulation of the produced sequence.
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let result = SequenceAtpg::new(&c, AtpgConfig::default()).run(&faults);
        let oneshot = FaultSim::new(&c)
            .query(&faults)
            .sequence(&result.sequence)
            .detected();
        assert_eq!(result.detected, oneshot);
    }

    #[test]
    fn synthetic_circuit_coverage_is_reasonable() {
        // The spec seed picks the synthetic circuit, and the share of
        // undetectable checkpoint faults varies strongly with it. Seed 0
        // yields ~0.92 achievable coverage under the vendored RNG stream
        // (the original seed 7 was tuned to the upstream rand stream and
        // generates a circuit where >40% of checkpoints are undetectable).
        let spec = wbist_circuits::SyntheticSpec::new("t", 6, 4, 5, 60, 0);
        let c = spec.build();
        let faults = FaultList::checkpoints(&c);
        let cfg = AtpgConfig {
            max_len: 1500,
            ..AtpgConfig::default()
        };
        let result = SequenceAtpg::new(&c, cfg).run(&faults);
        assert!(
            result.coverage() > 0.75,
            "coverage only {:.2}",
            result.coverage()
        );
    }

    #[test]
    fn empty_fault_list_terminates_immediately() {
        let c = s27::circuit();
        let result =
            SequenceAtpg::new(&c, AtpgConfig::default()).run(&FaultList::from_faults(vec![]));
        assert!(result.sequence.is_empty());
        assert_eq!(result.coverage(), 0.0);
    }
}
