//! Observation-point insertion (paper, Section 5, Tables 7–16).
//!
//! Observation points trade test hardware for observability: with fewer
//! weight assignments (a smaller `Ω_lim`), some target faults stay
//! undetected at the primary outputs, but many of them *do* reach
//! internal lines — adding an observation point on such a line detects
//! them. The experiment:
//!
//! 1. grow `Ω_lim` greedily (each step adds the assignment of `Ω`
//!    detecting the most still-uncovered faults);
//! 2. after each step, compute for every remaining fault `f` the
//!    candidate-line set `OP(f)` — every net where the faulty machine
//!    differs from the fault-free machine at some time unit of some
//!    `Ω_lim` sequence;
//! 3. select a minimal (greedy set-cover) line set `OP` hitting every
//!    non-empty `OP(f)`;
//! 4. report the trade-off row: assignments used, subsequences, fault
//!    efficiency without and with the observation points.
//!
//! *Fault efficiency* is the paper's metric: faults detected divided by
//! faults detected by the full `Ω`.

use crate::select::SelectedAssignment;
use crate::PREPARE_BATCH;
use wbist_netlist::{Circuit, FaultList, NetId};
use wbist_sim::{FaultSim, RunOptions, TestSequence};

/// Options for [`observation_point_tradeoff`].
#[derive(Debug, Clone)]
pub struct ObsOptions {
    /// `L_G`: the length the assignments' sequences are applied with.
    pub sequence_length: usize,
    /// Shared run options: simulator tuning, telemetry handle, seed.
    pub run: RunOptions,
}

impl ObsOptions {
    /// Options for sequences of length `sequence_length`, with default
    /// [`RunOptions`].
    pub fn new(sequence_length: usize) -> ObsOptions {
        ObsOptions {
            sequence_length,
            run: RunOptions::default(),
        }
    }

    /// Replaces the run options (builder style).
    pub fn run(mut self, run: RunOptions) -> ObsOptions {
        self.run = run;
        self
    }
}

/// One row of the trade-off tables (Tables 7–16).
#[derive(Debug, Clone, PartialEq)]
pub struct ObsRow {
    /// Number of weight assignments in `Ω_lim` (`seq` column).
    pub num_assignments: usize,
    /// Distinct subsequences defining those assignments (`sub` column).
    pub num_subsequences: usize,
    /// Longest subsequence length (`len` column).
    pub max_len: usize,
    /// Fault efficiency of `Ω_lim` alone, in percent (`f.e.`).
    pub fault_efficiency: f64,
    /// Observation points needed (`obs` column).
    pub num_obs: usize,
    /// Fault efficiency with those observation points, in percent.
    pub fe_with_obs: f64,
    /// The selected observation-point nets.
    pub obs_lines: Vec<NetId>,
}

/// The full trade-off experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsTradeoff {
    /// One row per `Ω_lim` size, in growth order.
    pub rows: Vec<ObsRow>,
    /// Faults detected by the full `Ω` (the fault-efficiency
    /// denominator).
    pub total_covered: usize,
}

impl ObsTradeoff {
    /// Rows whose final fault efficiency reaches at least `percent`
    /// (the paper reports rows with ≥ 99%).
    pub fn rows_reaching(&self, percent: f64) -> Vec<&ObsRow> {
        self.rows
            .iter()
            .filter(|r| r.fe_with_obs >= percent)
            .collect()
    }
}

/// Runs the observation-point trade-off experiment on `omega`
/// (the paper uses `Ω` *before* reverse-order simulation).
///
/// # Panics
///
/// Panics if the circuit is not levelized or
/// `opts.sequence_length == 0`.
pub fn observation_point_tradeoff(
    circuit: &Circuit,
    faults: &FaultList,
    omega: &[SelectedAssignment],
    opts: &ObsOptions,
) -> ObsTradeoff {
    let sequence_length = opts.sequence_length;
    assert!(sequence_length > 0, "L_G must be positive");
    let tel = opts.run.telemetry.clone();
    let _span = tel.span("obs");
    let sim = FaultSim::with_run_options(circuit, &opts.run);

    // Detection matrix: per assignment, per fault, with the good traces
    // prepared a batch of assignments per sweep.
    let mut det: Vec<Vec<bool>> = Vec::with_capacity(omega.len());
    for chunk in omega.chunks(PREPARE_BATCH) {
        let seqs: Vec<TestSequence> = chunk
            .iter()
            .map(|sel| sel.sequence(sequence_length))
            .collect();
        for prep in sim.prepare_sequences(&seqs) {
            det.push(sim.query(faults).prepared(&prep).detected());
        }
    }
    let covered_by_omega: Vec<bool> = (0..faults.len())
        .map(|i| det.iter().any(|row| row[i]))
        .collect();
    let total_covered = covered_by_omega.iter().filter(|&&c| c).count();
    if total_covered == 0 || omega.is_empty() {
        return ObsTradeoff {
            rows: Vec::new(),
            total_covered,
        };
    }

    // The greedy order depends on the detection matrix alone, so it is
    // fixed first and the steps' good traces are prepared a batch of
    // steps per sweep.
    let order = greedy_order(&det, total_covered);
    let mut covered = vec![false; faults.len()];
    let mut in_lim: Vec<usize> = Vec::new();
    // Accumulated OP(f) candidate lines per still-uncovered fault.
    let mut op_lines: Vec<Vec<NetId>> = vec![Vec::new(); faults.len()];
    let mut rows = Vec::new();

    'steps: for chunk in order.chunks(PREPARE_BATCH) {
        let seqs: Vec<TestSequence> = chunk
            .iter()
            .map(|&a| omega[a].sequence(sequence_length))
            .collect();
        for (&best, prep) in chunk.iter().zip(sim.prepare_sequences(&seqs)) {
            if let Some(reason) = opts.run.cancel.cancelled() {
                // Budget tripped: return the rows built so far — each is
                // a complete, valid trade-off point on its own.
                crate::runctl::note_truncation(&tel, reason);
                break 'steps;
            }
            in_lim.push(best);

            // Update OP candidates for faults still uncovered, under the
            // new assignment's sequence, *before* marking its detections
            // (a fault detected by this assignment needs no observation
            // point).
            let live: Vec<usize> = (0..faults.len())
                .filter(|&i| covered_by_omega[i] && !covered[i] && !det[best][i])
                .collect();
            if !live.is_empty() {
                let live_faults: FaultList = live.iter().map(|&i| faults.faults()[i]).collect();
                let lines = sim.query(&live_faults).prepared(&prep).observable_lines();
                for (k, &i) in live.iter().enumerate() {
                    for &net in &lines[k] {
                        if !op_lines[i].contains(&net) {
                            op_lines[i].push(net);
                        }
                    }
                }
            }
            for (c, &f) in covered.iter_mut().zip(&det[best]) {
                *c |= f;
            }

            let covered_now = covered.iter().filter(|&&c| c).count();
            let remaining: Vec<usize> = (0..faults.len())
                .filter(|&i| covered_by_omega[i] && !covered[i])
                .collect();
            let (obs, coverable) = select_cover(&remaining, &op_lines);
            tel.add("obs.rows", 1);
            // `select_cover` picks one line per greedy iteration.
            tel.add("obs.cover_iterations", obs.len() as u64);

            let subs = distinct_subsequences(omega, &in_lim);
            rows.push(ObsRow {
                num_assignments: in_lim.len(),
                num_subsequences: subs,
                max_len: in_lim
                    .iter()
                    .map(|&a| omega[a].assignment.max_len())
                    .max()
                    .unwrap_or(0),
                fault_efficiency: 100.0 * covered_now as f64 / total_covered as f64,
                num_obs: obs.len(),
                fe_with_obs: 100.0 * (covered_now + coverable) as f64 / total_covered as f64,
                obs_lines: obs,
            });
        }
    }

    ObsTradeoff {
        rows,
        total_covered,
    }
}

/// The greedy growth order of `Ω_lim`: each step adds the assignment
/// detecting the most still-uncovered faults (the last on ties), until
/// the `total_covered` faults of the full `Ω` are covered.
fn greedy_order(det: &[Vec<bool>], total_covered: usize) -> Vec<usize> {
    let mut covered = vec![false; det.first().map_or(0, Vec::len)];
    let mut order: Vec<usize> = Vec::new();
    while covered.iter().filter(|&&c| c).count() < total_covered {
        let (best, _) = det
            .iter()
            .enumerate()
            .filter(|(a, _)| !order.contains(a))
            .map(|(a, flags)| {
                let gain = flags
                    .iter()
                    .zip(&covered)
                    .filter(|&(&f, &c)| f && !c)
                    .count();
                (a, gain)
            })
            .max_by_key(|&(_, gain)| gain)
            .expect("uncovered faults remain, so some assignment helps");
        order.push(best);
        for (c, &f) in covered.iter_mut().zip(&det[best]) {
            *c |= f;
        }
    }
    order
}

/// Greedy set cover: picks lines until every fault in `remaining` with a
/// non-empty candidate set is covered. Returns the chosen lines and the
/// number of coverable faults.
fn select_cover(remaining: &[usize], op_lines: &[Vec<NetId>]) -> (Vec<NetId>, usize) {
    let mut uncovered: Vec<usize> = remaining
        .iter()
        .copied()
        .filter(|&i| !op_lines[i].is_empty())
        .collect();
    let coverable = uncovered.len();
    let mut chosen = Vec::new();
    while !uncovered.is_empty() {
        // Count per line how many uncovered faults it hits.
        let mut counts: std::collections::HashMap<NetId, usize> = std::collections::HashMap::new();
        for &i in &uncovered {
            for &net in &op_lines[i] {
                *counts.entry(net).or_insert(0) += 1;
            }
        }
        let (&best, _) = counts
            .iter()
            .max_by_key(|&(net, &n)| (n, std::cmp::Reverse(net.index())))
            .expect("uncovered faults have non-empty candidate sets");
        chosen.push(best);
        uncovered.retain(|&i| !op_lines[i].contains(&best));
    }
    (chosen, coverable)
}

/// Counts the distinct subsequences used by the assignments in `in_lim`.
fn distinct_subsequences(omega: &[SelectedAssignment], in_lim: &[usize]) -> usize {
    let mut subs: Vec<&crate::subseq::Subsequence> = Vec::new();
    for &a in in_lim {
        for s in omega[a].assignment.subsequences() {
            if !subs.contains(&s) {
                subs.push(s);
            }
        }
    }
    subs.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{synthesize_weighted_bist, SynthesisConfig};
    use wbist_circuits::s27;

    fn run() -> (ObsTradeoff, usize) {
        let c = s27::circuit();
        let t = s27::paper_test_sequence();
        let faults = FaultList::checkpoints(&c);
        let cfg = SynthesisConfig {
            sequence_length: 100,
            ..SynthesisConfig::default()
        };
        let r = synthesize_weighted_bist(&c, &t, &faults, &cfg);
        let tr = observation_point_tradeoff(
            &c,
            &faults,
            &r.omega,
            &ObsOptions::new(cfg.sequence_length),
        );
        (tr, r.omega.len())
    }

    #[test]
    fn tradeoff_ends_at_full_efficiency_with_zero_obs() {
        let (tr, _) = run();
        let last = tr.rows.last().expect("rows are produced");
        assert!((last.fault_efficiency - 100.0).abs() < 1e-9);
        assert_eq!(last.num_obs, 0);
        assert!((last.fe_with_obs - 100.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_is_monotonic_and_obs_decreasing_tail() {
        let (tr, _) = run();
        for pair in tr.rows.windows(2) {
            assert!(pair[1].fault_efficiency >= pair[0].fault_efficiency);
            assert!(pair[1].num_assignments == pair[0].num_assignments + 1);
        }
    }

    #[test]
    fn with_obs_never_worse_than_without() {
        let (tr, _) = run();
        for row in &tr.rows {
            assert!(row.fe_with_obs >= row.fault_efficiency - 1e-9);
            assert_eq!(row.obs_lines.len(), row.num_obs);
        }
    }

    #[test]
    fn rows_reaching_filters() {
        let (tr, _) = run();
        let good = tr.rows_reaching(100.0);
        assert!(!good.is_empty());
        assert!(good.iter().all(|r| r.fe_with_obs >= 100.0 - 1e-9));
    }

    #[test]
    fn greedy_uses_at_most_omega_assignments() {
        let (tr, omega_len) = run();
        assert!(tr.rows.len() <= omega_len);
    }

    #[test]
    fn empty_omega_yields_no_rows() {
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let tr = observation_point_tradeoff(&c, &faults, &[], &ObsOptions::new(100));
        assert!(tr.rows.is_empty());
        assert_eq!(tr.total_covered, 0);
    }

    #[test]
    fn telemetry_counts_one_row_per_greedy_step() {
        let c = s27::circuit();
        let t = s27::paper_test_sequence();
        let faults = FaultList::checkpoints(&c);
        let cfg = SynthesisConfig {
            sequence_length: 100,
            ..SynthesisConfig::default()
        };
        let r = synthesize_weighted_bist(&c, &t, &faults, &cfg);
        let tel = wbist_sim::Telemetry::enabled();
        let opts = ObsOptions::new(cfg.sequence_length)
            .run(wbist_sim::RunOptions::default().telemetry(tel.clone()));
        let tr = observation_point_tradeoff(&c, &faults, &r.omega, &opts);
        assert_eq!(tel.counter("obs.rows"), tr.rows.len() as u64);
    }
}
