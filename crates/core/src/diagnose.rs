//! Fault diagnosis from BIST session syndromes.
//!
//! A production BIST flow doesn't only say pass/fail: when a part fails,
//! the per-session pass/fail pattern (the *syndrome*) narrows down which
//! fault is present. This module builds the classic fault dictionary for
//! the weighted-sequence sessions and performs dictionary look-up
//! diagnosis:
//!
//! * [`FaultDictionary::build`] simulates every target fault against
//!   every weight assignment's sequence and stores which sessions detect
//!   it (a bit-vector syndrome);
//! * [`FaultDictionary::diagnose`] returns the candidate faults whose
//!   stored syndrome matches an observed one;
//! * [`FaultDictionary::resolution`] summarizes how well the session
//!   structure distinguishes faults (average/max candidate-class size).
//!
//! Weighted-sequence BIST turns out to diagnose unusually well: each
//! weight assignment was constructed around a *different* hard fault, so
//! the sessions partition the fault universe more finely than uniform
//! random sessions of equal length.

use crate::select::SelectedAssignment;
use crate::PREPARE_BATCH;
use std::collections::HashMap;
use wbist_netlist::{Circuit, FaultList};
use wbist_sim::{FaultSim, TestSequence};

/// A per-fault syndrome: the set of sessions that detect the fault, as a
/// bitset over any number of sessions (session `k` is bit `k % 64` of
/// word `k / 64`).
///
/// ```
/// # use wbist_core::Syndrome;
/// let mut s = Syndrome::new();
/// s.insert(3);
/// s.insert(70);
/// assert!(s.contains(70) && !s.contains(4));
/// assert_eq!(s.sessions().collect::<Vec<_>>(), [3, 70]);
/// assert_eq!(s, [70, 3].into_iter().collect());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Syndrome {
    /// Session bits; never ends in a zero word, so equal sets compare
    /// (and hash) equal.
    words: Vec<u64>,
}

impl Syndrome {
    /// The empty syndrome: no session detects the fault.
    pub fn new() -> Syndrome {
        Syndrome::default()
    }

    /// Marks session `k` as detecting.
    pub fn insert(&mut self, k: usize) {
        let w = k / 64;
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (k % 64);
    }

    /// Whether session `k` detects.
    pub fn contains(&self, k: usize) -> bool {
        self.words
            .get(k / 64)
            .is_some_and(|&w| w & (1 << (k % 64)) != 0)
    }

    /// Whether no session detects.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The detecting sessions, ascending.
    pub fn sessions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.words.len() * 64).filter(|&k| self.contains(k))
    }
}

impl FromIterator<usize> for Syndrome {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Syndrome {
        let mut s = Syndrome::new();
        for k in iter {
            s.insert(k);
        }
        s
    }
}

/// A fault dictionary over the sessions of one BIST schedule.
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    /// Per fault (indexed like the fault list): its syndrome.
    syndromes: Vec<Syndrome>,
    /// Number of sessions (bits used in syndromes).
    num_sessions: usize,
}

impl FaultDictionary {
    /// Builds the dictionary by simulating every fault under every
    /// session sequence, preparing the sessions' good traces a batch per
    /// sweep.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is not levelized, `omega` is empty, or
    /// `sequence_length == 0`.
    pub fn build(
        circuit: &Circuit,
        faults: &FaultList,
        omega: &[SelectedAssignment],
        sequence_length: usize,
    ) -> Self {
        assert!(!omega.is_empty(), "dictionary needs at least one session");
        assert!(sequence_length > 0, "L_G must be positive");
        let sim = FaultSim::new(circuit);
        let mut syndromes = vec![Syndrome::new(); faults.len()];
        for (b, chunk) in omega.chunks(PREPARE_BATCH).enumerate() {
            let seqs: Vec<TestSequence> = chunk
                .iter()
                .map(|sel| sel.sequence(sequence_length))
                .collect();
            for (j, prep) in sim.prepare_sequences(&seqs).iter().enumerate() {
                let flags = sim.query(faults).prepared(prep).detected();
                for (syn, hit) in syndromes.iter_mut().zip(flags) {
                    if hit {
                        syn.insert(b * PREPARE_BATCH + j);
                    }
                }
            }
        }
        FaultDictionary {
            syndromes,
            num_sessions: omega.len(),
        }
    }

    /// Number of sessions covered by the dictionary.
    pub fn num_sessions(&self) -> usize {
        self.num_sessions
    }

    /// The stored syndrome of fault `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn syndrome(&self, index: usize) -> &Syndrome {
        &self.syndromes[index]
    }

    /// Fault indices whose syndrome equals `observed`. An empty observed
    /// syndrome returns the faults no session detects (or, on a passing
    /// part, "no fault present" — the caller distinguishes).
    pub fn diagnose(&self, observed: &Syndrome) -> Vec<usize> {
        self.syndromes
            .iter()
            .enumerate()
            .filter(|&(_, s)| s == observed)
            .map(|(i, _)| i)
            .collect()
    }

    /// Partition statistics over the *detected* faults: number of
    /// distinct syndromes, the average and maximum equivalence-class
    /// size. Smaller classes = better diagnosability.
    pub fn resolution(&self) -> DictionaryResolution {
        let mut classes: HashMap<&Syndrome, usize> = HashMap::new();
        for s in &self.syndromes {
            if !s.is_empty() {
                *classes.entry(s).or_insert(0) += 1;
            }
        }
        let detected: usize = classes.values().sum();
        let num_classes = classes.len();
        let max_class = classes.values().copied().max().unwrap_or(0);
        DictionaryResolution {
            detected,
            num_classes,
            max_class,
            avg_class: if num_classes == 0 {
                0.0
            } else {
                detected as f64 / num_classes as f64
            },
        }
    }
}

/// Summary of how finely a dictionary partitions the detected faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DictionaryResolution {
    /// Faults detected by at least one session.
    pub detected: usize,
    /// Distinct non-zero syndromes.
    pub num_classes: usize,
    /// Largest indistinguishable class.
    pub max_class: usize,
    /// Average class size.
    pub avg_class: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{synthesize_weighted_bist, SynthesisConfig};
    use wbist_circuits::s27;

    fn dictionary() -> (FaultDictionary, FaultList, usize) {
        let c = s27::circuit();
        let t = s27::paper_test_sequence();
        let faults = FaultList::checkpoints(&c);
        let l_g = 64;
        let r = synthesize_weighted_bist(
            &c,
            &t,
            &faults,
            &SynthesisConfig {
                sequence_length: l_g,
                ..SynthesisConfig::default()
            },
        );
        (
            FaultDictionary::build(&c, &faults, &r.omega, l_g),
            faults,
            r.omega.len(),
        )
    }

    #[test]
    fn every_target_fault_has_nonzero_syndrome() {
        let (dict, faults, _) = dictionary();
        // The guarantee means every fault is detected by some session.
        for i in 0..faults.len() {
            assert!(!dict.syndrome(i).is_empty(), "fault {i} has empty syndrome");
        }
    }

    #[test]
    fn diagnosis_returns_matching_class() {
        let (dict, faults, _) = dictionary();
        for i in 0..faults.len() {
            let candidates = dict.diagnose(dict.syndrome(i));
            assert!(candidates.contains(&i), "fault {i} not in its own class");
            // Everything in the class shares the syndrome.
            for &j in &candidates {
                assert_eq!(dict.syndrome(j), dict.syndrome(i));
            }
        }
    }

    #[test]
    fn resolution_statistics_are_consistent() {
        let (dict, faults, sessions) = dictionary();
        let res = dict.resolution();
        assert_eq!(res.detected, faults.len());
        assert!(res.num_classes >= 1);
        assert!(res.num_classes <= 1 << sessions.min(20));
        assert!(res.max_class as f64 >= res.avg_class);
        assert!(res.avg_class >= 1.0);
        // The weighted sessions distinguish a reasonable number of
        // classes on s27 (empirically ≥ 5 with the default pipeline).
        assert!(res.num_classes >= 5, "only {} classes", res.num_classes);
    }

    #[test]
    fn unknown_syndrome_gives_empty_diagnosis() {
        let (dict, _, sessions) = dictionary();
        // A syndrome with a bit beyond the session count cannot match.
        let mut extra_bits = dict.syndrome(0).clone();
        extra_bits.insert(sessions);
        assert!(dict.diagnose(&extra_bits).is_empty());
    }

    /// More sessions than a machine word holds: the flow's own Ω often
    /// exceeds 64 assignments. Every syndrome must equal a one-query-per-
    /// session reference, across the batch and word boundaries.
    #[test]
    fn dictionary_spans_more_than_64_sessions() {
        let c = s27::circuit();
        let t = s27::paper_test_sequence();
        let faults = FaultList::checkpoints(&c);
        let l_g = 24;
        let omega = synthesize_weighted_bist(
            &c,
            &t,
            &faults,
            &SynthesisConfig {
                sequence_length: l_g,
                ..SynthesisConfig::default()
            },
        )
        .omega;
        let sessions: Vec<SelectedAssignment> = omega.iter().cycle().take(67).cloned().collect();
        let dict = FaultDictionary::build(&c, &faults, &sessions, l_g);
        assert_eq!(dict.num_sessions(), 67);
        let sim = FaultSim::new(&c);
        let mut want = vec![Syndrome::new(); faults.len()];
        for (k, sel) in sessions.iter().enumerate() {
            let flags = sim.query(&faults).sequence(&sel.sequence(l_g)).detected();
            for (syn, hit) in want.iter_mut().zip(flags) {
                if hit {
                    syn.insert(k);
                }
            }
        }
        for (i, want) in want.iter().enumerate() {
            assert_eq!(dict.syndrome(i), want, "fault {i}");
        }
        let late = (0..faults.len())
            .find(|&i| dict.syndrome(i).contains(66))
            .expect("the last session repeats an earlier one and detects");
        assert!(dict.diagnose(dict.syndrome(late)).contains(&late));
    }
}
