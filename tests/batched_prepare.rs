//! The layers that prepare good-machine traces in batches — reverse-
//! order prune and the observation-point trade-off — against test-local
//! references that run one raw query per assignment, on random
//! circuits under both fault models. The Ω sizes straddle the batch of
//! four (0, 1, 3, 4, 5, 9), and a fault-cycle budget that trips partway
//! through a batch must leave prune's unexamined prefix kept.

use proptest::prelude::*;
use std::collections::HashMap;
use wbist::circuits::SyntheticSpec;
use wbist::core::{
    observation_point_tradeoff, reverse_order_prune, Budget, CancelToken, ObsOptions, ObsRow,
    PruneOptions, RunOptions, SelectedAssignment, Subsequence, WeightAssignment,
};
use wbist::netlist::{Circuit, FaultList, FaultModel, FaultUniverse, NetId};
use wbist::sim::FaultSim;

const OMEGA_SIZES: [usize; 6] = [0, 1, 3, 4, 5, 9];
const L_G: usize = 20;

/// A deterministic pseudo-random stream (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn circuit(seed: u64) -> Circuit {
    let mut rng = Rng(seed);
    let inputs = 2 + (rng.next() % 4) as usize;
    let dffs = (rng.next() % 6) as usize;
    let gates = 2 * dffs + 8 + (rng.next() % 30) as usize;
    SyntheticSpec::new("batched", inputs, 2, dffs, gates, seed).build()
}

/// `n` random assignments: one subsequence of length 1–4 per input.
fn random_omega(c: &Circuit, n: usize, seed: u64) -> Vec<SelectedAssignment> {
    let mut rng = Rng(seed ^ 0x5eed);
    (0..n)
        .map(|rank| {
            let subs = (0..c.num_inputs())
                .map(|_| {
                    let len = 1 + (rng.next() % 4) as usize;
                    let bits = rng.next();
                    Subsequence::new((0..len).map(|b| (bits >> b) & 1 == 1).collect())
                })
                .collect();
            SelectedAssignment {
                assignment: WeightAssignment::new(subs),
                detection_time: 0,
                rank,
                newly_detected: 1,
            }
        })
        .collect()
}

fn faults(c: &Circuit, model: FaultModel) -> FaultList {
    FaultUniverse::collapsed(model, c)
}

/// Reverse-order prune, one raw query per assignment; also returns the
/// index the budget tripped at, if it did.
fn reference_prune(
    c: &Circuit,
    faults: &FaultList,
    omega: &[SelectedAssignment],
    run: &RunOptions,
) -> (Vec<SelectedAssignment>, Option<usize>) {
    let sim = FaultSim::with_run_options(c, run);
    let mut detected = vec![false; faults.len()];
    let mut keep = vec![false; omega.len()];
    let mut tripped = None;
    for k in (0..omega.len()).rev() {
        if run.cancel.cancelled().is_some() {
            keep[..=k].fill(true);
            tripped = Some(k);
            break;
        }
        let live: Vec<usize> = (0..faults.len()).filter(|&i| !detected[i]).collect();
        if live.is_empty() {
            break;
        }
        let live_faults: FaultList = live.iter().map(|&i| faults.faults()[i]).collect();
        let flags = sim
            .query(&live_faults)
            .sequence(&omega[k].sequence(L_G))
            .detected();
        if run.cancel.cancelled().is_some() {
            keep[..=k].fill(true);
            tripped = Some(k);
            break;
        }
        for (j, &i) in live.iter().enumerate() {
            if flags[j] {
                detected[i] = true;
                keep[k] = true;
            }
        }
    }
    let kept = omega
        .iter()
        .zip(&keep)
        .filter(|&(_, &k)| k)
        .map(|(s, _)| s.clone())
        .collect();
    (kept, tripped)
}

/// The observation-point trade-off, one raw query per assignment.
fn reference_obs(
    c: &Circuit,
    faults: &FaultList,
    omega: &[SelectedAssignment],
) -> (Vec<ObsRow>, usize) {
    let sim = FaultSim::new(c);
    let det: Vec<Vec<bool>> = omega
        .iter()
        .map(|sel| sim.query(faults).sequence(&sel.sequence(L_G)).detected())
        .collect();
    let n = faults.len();
    let covered_by_omega: Vec<bool> = (0..n).map(|i| det.iter().any(|row| row[i])).collect();
    let total = covered_by_omega.iter().filter(|&&c| c).count();
    let mut rows = Vec::new();
    if total == 0 {
        return (rows, total);
    }
    let mut covered = vec![false; n];
    let mut in_lim: Vec<usize> = Vec::new();
    let mut op_lines: Vec<Vec<NetId>> = vec![Vec::new(); n];
    while covered.iter().filter(|&&c| c).count() < total {
        let best = (0..det.len())
            .filter(|a| !in_lim.contains(a))
            .max_by_key(|&a| (0..n).filter(|&i| det[a][i] && !covered[i]).count())
            .expect("an assignment still helps");
        in_lim.push(best);
        let live: Vec<usize> = (0..n)
            .filter(|&i| covered_by_omega[i] && !covered[i] && !det[best][i])
            .collect();
        if !live.is_empty() {
            let live_faults: FaultList = live.iter().map(|&i| faults.faults()[i]).collect();
            let lines = sim
                .query(&live_faults)
                .sequence(&omega[best].sequence(L_G))
                .observable_lines();
            for (k, &i) in live.iter().enumerate() {
                for &net in &lines[k] {
                    if !op_lines[i].contains(&net) {
                        op_lines[i].push(net);
                    }
                }
            }
        }
        for i in 0..n {
            covered[i] |= det[best][i];
        }
        let covered_now = covered.iter().filter(|&&c| c).count();
        let mut uncovered: Vec<usize> = (0..n)
            .filter(|&i| covered_by_omega[i] && !covered[i] && !op_lines[i].is_empty())
            .collect();
        let coverable = uncovered.len();
        let mut obs = Vec::new();
        while !uncovered.is_empty() {
            let mut counts: HashMap<NetId, usize> = HashMap::new();
            for &i in &uncovered {
                for &net in &op_lines[i] {
                    *counts.entry(net).or_insert(0) += 1;
                }
            }
            let (&line, _) = counts
                .iter()
                .max_by_key(|&(net, &k)| (k, std::cmp::Reverse(net.index())))
                .expect("candidate lines exist");
            obs.push(line);
            uncovered.retain(|&i| !op_lines[i].contains(&line));
        }
        let mut subs: Vec<&Subsequence> = Vec::new();
        for &a in &in_lim {
            for s in omega[a].assignment.subsequences() {
                if !subs.contains(&s) {
                    subs.push(s);
                }
            }
        }
        rows.push(ObsRow {
            num_assignments: in_lim.len(),
            num_subsequences: subs.len(),
            max_len: in_lim
                .iter()
                .map(|&a| omega[a].assignment.max_len())
                .max()
                .unwrap_or(0),
            fault_efficiency: 100.0 * covered_now as f64 / total as f64,
            num_obs: obs.len(),
            fe_with_obs: 100.0 * (covered_now + coverable) as f64 / total as f64,
            obs_lines: obs,
        });
    }
    (rows, total)
}

proptest! {
    /// Batched prune and obs equal their one-query references at every
    /// Ω size, under both fault models, at one and two threads.
    #[test]
    fn batched_layers_match_one_query_references(seed in any::<u64>(), threads in 1usize..3) {
        let c = circuit(seed);
        for model in [FaultModel::StuckAt, FaultModel::TransitionDelay] {
            let faults = faults(&c, model);
            for n in OMEGA_SIZES {
                let omega = random_omega(&c, n, seed.wrapping_add(n as u64));
                let run = RunOptions::with_threads(threads);
                let pruned = reverse_order_prune(
                    &c,
                    &faults,
                    &omega,
                    &PruneOptions::new(L_G).run(run.clone()),
                );
                prop_assert_eq!(&pruned, &reference_prune(&c, &faults, &omega, &run).0);
                let tr = observation_point_tradeoff(
                    &c,
                    &faults,
                    &omega,
                    &ObsOptions::new(L_G).run(run),
                );
                let (rows, total) = reference_obs(&c, &faults, &omega);
                prop_assert_eq!(tr.total_covered, total);
                prop_assert_eq!(&tr.rows, &rows);
            }
        }
    }
}

/// A fault-cycle budget tripping anywhere in the reverse walk — also
/// between two assignments of one prepared batch — keeps every
/// assignment not yet examined, and the one whose query it cut short,
/// exactly like the one-query walk.
#[test]
fn prune_budget_trip_keeps_the_unexamined_prefix() {
    let mut inside_batch = 0;
    for seed in 0..12u64 {
        let c = circuit(seed);
        let faults = faults(&c, FaultModel::StuckAt);
        let omega = random_omega(&c, 9, seed);
        let full = {
            let token = CancelToken::for_budget(&Budget::default().fault_cycles(u64::MAX / 2));
            let run = RunOptions::default().cancel(token.clone());
            reverse_order_prune(&c, &faults, &omega, &PruneOptions::new(L_G).run(run));
            token.fault_cycles_spent()
        };
        for step in 1..8u64 {
            let budget = Budget::default().fault_cycles(full * step / 8);
            let run = RunOptions::default().cancel(CancelToken::for_budget(&budget));
            let got = reverse_order_prune(&c, &faults, &omega, &PruneOptions::new(L_G).run(run));
            let ref_run = RunOptions::default().cancel(CancelToken::for_budget(&budget));
            let (want, tripped) = reference_prune(&c, &faults, &omega, &ref_run);
            assert_eq!(got, want, "seed {seed}, step {step}");
            if let Some(k) = tripped {
                assert_eq!(got[..=k], omega[..=k], "unexamined prefix kept");
                // Batches of four run from index 8 down: 8..5, 4..1, 0.
                inside_batch += usize::from((8 - k) % 4 != 0);
            }
        }
    }
    assert!(inside_batch > 0, "no budget tripped inside a batch");
}
