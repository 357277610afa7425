//! The overall weight-assignment selection procedure (paper, Section 4.2).
//!
//! Starting from the set `F` of faults detected by the deterministic
//! sequence `T`, the procedure repeatedly:
//!
//! 1. picks the **largest remaining detection time** `u` (harder faults
//!    first — their sequences tend to detect many others);
//! 2. for `L_S = 1, 2, …`: extends `S` with the subsequences of length
//!    `L_S` derived from the window of `T` ending at `u`, builds the
//!    candidate sets `A_i`, applies the full-length fix-up, and walks the
//!    assignment ranks `j = 0, 1, …` — simulating a weighted sequence
//!    `T_G` of length `L_G` for every admissible assignment (one
//!    containing at least one subsequence of length `L_S`) and dropping
//!    the faults it detects;
//! 3. stops working on `u` as soon as no undetected fault with detection
//!    time `u` remains.
//!
//! Termination is guaranteed: at `L_S = u + 1` the derived subsequences
//! reproduce `T` exactly through time `u` (provided `L_G > u`), so the
//! fault that defined `u` is necessarily detected — the paper's coverage
//! guarantee.
//!
//! The paper's *sample-first* speedup is implemented: each `T_G` is first
//! simulated against a small sample of undetected faults (always
//! including the fault that defined `u`); if none of the sample is
//! detected, the full simulation is skipped.

use crate::assign::{CandidateOrdering, CandidateSets, WeightAssignment};
use crate::live::LiveTargets;
use crate::runctl::{
    self, Checkpoint, CheckpointError, Cursor, Outcome, RunControl, TruncationReason,
};
use crate::weights::WeightSet;
use crate::PREPARE_BATCH;
use wbist_netlist::{Circuit, Fault, FaultList};
use wbist_sim::{CancelToken, FaultSim, PreparedSequence, RunOptions, TestSequence};
use wbist_telemetry::Telemetry;

/// Configuration of the synthesis procedure.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// `L_G`: length of the weighted sequence applied per assignment
    /// (the paper's experiments use 2000).
    pub sequence_length: usize,
    /// Enables the sample-first simulation shortcut (§4.2).
    pub sample_first: bool,
    /// Number of faults in the screening sample (including the target
    /// fault).
    pub sample_size: usize,
    /// How candidates are ranked within each `A_i` (the paper:
    /// [`CandidateOrdering::MatchCount`]; alternatives exist for the
    /// ablation experiments).
    pub ordering: CandidateOrdering,
    /// Whether the §4.1 full-length fix-up is applied (the paper: yes).
    /// Disabling it is an ablation knob; the coverage guarantee is only
    /// proven with the fix-up enabled.
    pub full_length_fixup: bool,
    /// Shared run options: simulator tuning, telemetry handle, seed.
    pub run: RunOptions,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            sequence_length: 2000,
            sample_first: true,
            sample_size: 32,
            ordering: CandidateOrdering::MatchCount,
            full_length_fixup: true,
            run: RunOptions::default(),
        }
    }
}

/// One weight assignment kept in `Ω`, with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectedAssignment {
    /// The weight assignment.
    pub assignment: WeightAssignment,
    /// The detection time `u` it was constructed around.
    pub detection_time: usize,
    /// The rank `j` within the candidate sets.
    pub rank: usize,
    /// Faults it newly detected when first simulated.
    pub newly_detected: usize,
}

impl SelectedAssignment {
    /// Regenerates the weighted test sequence for this assignment.
    pub fn sequence(&self, len: usize) -> TestSequence {
        self.assignment.generate(len)
    }
}

/// The outcome of [`synthesize_weighted_bist`].
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The selected weight assignments, in generation order (`Ω`).
    pub omega: Vec<SelectedAssignment>,
    /// The final weight set `S`.
    pub weights: WeightSet,
    /// Per-fault: detected by some sequence of `Ω` (indexed like the
    /// fault list given to the synthesizer).
    pub detected: Vec<bool>,
    /// Per-fault: detected by the deterministic sequence `T` (the target
    /// set `F`).
    pub target: Vec<bool>,
    /// Per-fault: targets given up on because `L_G` was shorter than
    /// their detection time (cannot happen when `L_G > max u_det`).
    pub abandoned: Vec<bool>,
    /// The `L_G` used.
    pub sequence_length: usize,
}

impl SynthesisResult {
    /// Number of target faults (faults detected by `T`).
    pub fn target_count(&self) -> usize {
        self.target.iter().filter(|&&t| t).count()
    }

    /// Number of faults detected by the weighted sequences.
    pub fn detected_faults(&self) -> usize {
        self.detected.iter().filter(|&&d| d).count()
    }

    /// Whether the weighted sequences reach the coverage of `T` — the
    /// paper's guarantee (always true when `L_G` exceeds every detection
    /// time).
    pub fn coverage_guaranteed(&self) -> bool {
        self.detected
            .iter()
            .zip(&self.target)
            .all(|(&d, &t)| d == t)
    }

    /// The distinct subsequences used by the assignments of `Ω` (the
    /// Table-6 `subs` count).
    pub fn distinct_subsequences(&self) -> Vec<crate::subseq::Subsequence> {
        let mut subs: Vec<crate::subseq::Subsequence> = Vec::new();
        for sel in &self.omega {
            for s in sel.assignment.subsequences() {
                if !subs.contains(s) {
                    subs.push(s.clone());
                }
            }
        }
        subs
    }

    /// The longest subsequence used by `Ω` (the Table-6 `len` column).
    pub fn max_subsequence_len(&self) -> usize {
        self.omega
            .iter()
            .map(|s| s.assignment.max_len())
            .max()
            .unwrap_or(0)
    }
}

/// Entry point for the synthesis procedure (builder style).
///
/// Bundles the circuit, the deterministic sequence `T`, and the target
/// fault list; optional knobs (`config`, `already_detected`) are applied
/// with builder methods before calling [`Synthesis::run`].
///
/// ```no_run
/// # use wbist_core::select::{Synthesis, SynthesisConfig};
/// # use wbist_netlist::{Circuit, FaultList};
/// # use wbist_sim::TestSequence;
/// # fn demo(c: &Circuit, t: &TestSequence, faults: &FaultList) {
/// let result = Synthesis::new(c, t, faults)
///     .config(SynthesisConfig {
///         sequence_length: 500,
///         ..SynthesisConfig::default()
///     })
///     .run();
/// # let _ = result;
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Synthesis<'a> {
    circuit: &'a Circuit,
    t: &'a TestSequence,
    faults: &'a FaultList,
    cfg: SynthesisConfig,
    already_detected: Option<Vec<bool>>,
    resume: Option<Checkpoint>,
}

impl<'a> Synthesis<'a> {
    /// Starts a synthesis over `faults` from the deterministic sequence
    /// `t`, with the default [`SynthesisConfig`].
    pub fn new(circuit: &'a Circuit, t: &'a TestSequence, faults: &'a FaultList) -> Synthesis<'a> {
        Synthesis {
            circuit,
            t,
            faults,
            cfg: SynthesisConfig::default(),
            already_detected: None,
            resume: None,
        }
    }

    /// Replaces the configuration.
    pub fn config(mut self, cfg: SynthesisConfig) -> Synthesis<'a> {
        self.cfg = cfg;
        self
    }

    /// Treats the flagged faults as covered before the procedure starts.
    /// Used by hybrid schemes that run a pseudo-random phase first (see
    /// [`crate::hybrid`]): the weighted phase then only has to cover what
    /// the random phase missed.
    ///
    /// The result's `detected`/`target` flags cover only the faults the
    /// weighted phase was responsible for (targets exclude the
    /// pre-detected ones), so [`SynthesisResult::coverage_guaranteed`]
    /// still means "the weighted phase did its job".
    pub fn already_detected(mut self, flags: &[bool]) -> Synthesis<'a> {
        self.already_detected = Some(flags.to_vec());
        self
    }

    /// Runs the paper's synthesis procedure.
    ///
    /// Faults that `t` does not detect are excluded from the target set
    /// `F` (the paper's guarantee is relative to `T`'s coverage).
    ///
    /// # Panics
    ///
    /// Panics if the circuit is not levelized, the sequence width does
    /// not match the circuit, `cfg.sequence_length == 0`, or an
    /// `already_detected` slice has the wrong length.
    pub fn run(self) -> SynthesisResult {
        self.run_controlled(&RunControl::default()).into_result()
    }

    /// Pre-seeds the procedure from a [`Checkpoint`] written by an
    /// earlier (budget-truncated) run over the same circuit, sequence,
    /// fault list and configuration.
    ///
    /// Call it *after* [`Synthesis::config`] and
    /// [`Synthesis::already_detected`]: the checkpoint is validated
    /// against a hash of the run configuration
    /// ([`crate::runctl::config_hash`] plus the pre-detection flags) and
    /// rejected with [`CheckpointError::ConfigMismatch`] if anything
    /// differs. A resumed run reproduces the uninterrupted run bit for
    /// bit — same `Ω`, same flags, same telemetry counters.
    pub fn resume_from(mut self, ckpt: Checkpoint) -> Result<Synthesis<'a>, CheckpointError> {
        let expected = self.run_hash();
        if ckpt.config_hash != expected {
            return Err(CheckpointError::ConfigMismatch {
                expected,
                found: ckpt.config_hash,
            });
        }
        if ckpt.detected.len() != self.faults.len() {
            return Err(CheckpointError::Schema(format!(
                "checkpoint covers {} faults, the fault list has {}",
                ckpt.detected.len(),
                self.faults.len()
            )));
        }
        self.resume = Some(ckpt);
        Ok(self)
    }

    /// The configuration hash checkpoints of this run carry: the shared
    /// [`runctl::config_hash`] with the pre-detection flags folded in
    /// (absent flags hash like all-false ones).
    fn run_hash(&self) -> u64 {
        let base = runctl::config_hash(self.circuit, self.t, self.faults, &self.cfg);
        let pre = self
            .already_detected
            .clone()
            .unwrap_or_else(|| vec![false; self.faults.len()]);
        runctl::fold_flags(base, &pre)
    }

    /// Runs the procedure under a [`RunControl`]: budget limits become a
    /// cooperative [`CancelToken`] (polled by the kernels every simulated
    /// cycle and by this driver at every candidate), and a checkpoint is
    /// written after every kept assignment.
    ///
    /// On truncation the returned [`Outcome::Truncated`] still carries a
    /// valid partial result: every `detected` flag is a genuine
    /// detection and `Ω` contains only fully evaluated assignments. The
    /// setup simulation of `T` (detection times) always runs to
    /// completion — every later decision depends on it — so budgets are
    /// enforced from the first candidate onwards.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Synthesis::run`].
    pub fn run_controlled(mut self, ctl: &RunControl) -> Outcome<SynthesisResult> {
        if !ctl.budget.is_unlimited() {
            self.cfg.run.cancel = CancelToken::for_budget(&ctl.budget);
        }
        let config_hash = self.run_hash();
        let resume = self.resume.take();
        let cfg = &self.cfg;
        let token = cfg.run.cancel.clone();
        let (circuit, t, faults) = (self.circuit, self.t, self.faults);
        let pre: Vec<bool> = self
            .already_detected
            .unwrap_or_else(|| vec![false; faults.len()]);
        assert!(cfg.sequence_length > 0, "L_G must be positive");
        assert_eq!(pre.len(), faults.len(), "one pre-detection flag per fault");
        let tel = cfg.run.telemetry.clone();
        let _span = tel.span("synthesis");
        let sim = FaultSim::with_run_options(circuit, &cfg.run);
        // The setup pass must complete (and be counted) exactly once
        // across an interrupted/resumed chain of runs: a resumed run
        // recomputes it with telemetry disabled — its cost is already
        // inside the restored counters — and without the token, so a
        // tiny budget cannot corrupt the detection times everything
        // else depends on. It shares `sim`'s lowering.
        let setup_run = if resume.is_some() {
            cfg.run.clone().telemetry(Telemetry::disabled())
        } else {
            cfg.run.clone()
        }
        .cancel(CancelToken::unlimited())
        .compiled(sim.compiled_handle());
        let setup_sim = FaultSim::with_run_options(circuit, &setup_run);
        // Only targets' detection times are ever read, so pre-detected
        // faults are left out of the query (and keep `None`). With none
        // pre-detected the caller's list is queried as is, uncopied.
        let det_times: Vec<Option<usize>> = if pre.contains(&true) {
            let open: FaultList = faults
                .iter()
                .zip(&pre)
                .filter(|&(_, &p)| !p)
                .map(|(&f, _)| f)
                .collect();
            let mut times = setup_sim
                .query(&open)
                .sequence(t)
                .detection_times()
                .into_iter();
            pre.iter()
                .map(|&p| if p { None } else { times.next().flatten() })
                .collect()
        } else {
            setup_sim.query(faults).sequence(t).detection_times()
        };
        let target: Vec<bool> = det_times.iter().map(Option::is_some).collect();
        let n = faults.len();
        let mut detected = vec![false; n];
        let mut abandoned = vec![false; n];
        let mut s = WeightSet::new();
        let mut omega: Vec<SelectedAssignment> = Vec::new();
        // Loop coordinates to re-enter at, when resuming: the cursor
        // names the last *kept* rank, so the walk continues at rank + 1.
        let mut pending: Option<(usize, usize, usize, usize)> = None;

        if let Some(ck) = &resume {
            detected.copy_from_slice(&ck.detected);
            abandoned.copy_from_slice(&ck.abandoned);
            for sub in &ck.weights {
                s.insert(sub.clone());
            }
            omega = ck.omega.clone();
            runctl::restore_counters(&tel, &ck.counters);
            pending = ck.cursor.map(|c| (c.fault, c.u, c.ls, c.rank + 1));
            if tel.is_enabled() {
                tel.event("runctl.resumed", &[("assignments", omega.len() as u64)]);
            }
        }

        let write_checkpoint = |tel: &Telemetry,
                                omega: &[SelectedAssignment],
                                detected: &[bool],
                                abandoned: &[bool],
                                s: &WeightSet,
                                cursor: Option<Cursor>| {
            let Some(path) = &ctl.checkpoint else {
                return;
            };
            // Counted before the snapshot so the restored value already
            // includes this write — that keeps the counter identical
            // between interrupted and uninterrupted runs.
            tel.add("runctl.checkpoints_written", 1);
            let ck = Checkpoint {
                config_hash,
                seed: cfg.run.seed,
                sequence_length: cfg.sequence_length,
                detected: detected.to_vec(),
                abandoned: abandoned.to_vec(),
                weights: s.iter().map(|(_, sub)| sub.clone()).collect(),
                omega: omega.to_vec(),
                cursor,
                counters: tel.counters(),
            };
            if ck.save(path).is_err() {
                // Non-fatal: losing a checkpoint must never kill the run
                // it exists to protect, and library code never writes to
                // stderr — the trace event is the report.
                tel.event("runctl.checkpoint_failed", &[]);
            }
        };

        let mut live = LiveTargets::new(&target, &det_times, &detected, &abandoned);
        if tel.is_enabled() {
            tel.point("fault_drop", live.undetected());
        }
        if resume.is_none() {
            write_checkpoint(&tel, &omega, &detected, &abandoned, &s, None);
        }

        let mut truncated: Option<TruncationReason> = None;
        loop {
            if let Some(r) = token.cancelled() {
                truncated = Some(r);
                break;
            }
            let (fi, u, ls0, j0) = match pending.take() {
                Some(at) => at,
                None => match live.remaining() {
                    Some((fi, u)) => (fi, u, 1, 0),
                    None => break,
                },
            };
            if u + 1 > cfg.sequence_length {
                // T_G can never reach this fault's detection time.
                abandoned[fi] = true;
                live.mark_abandoned(fi);
                tel.add("select.targets_abandoned", 1);
                continue;
            }
            // A fresh target is never time-done (the fault that defined
            // `u` is undetected); a resumed cursor may be. `time_done`
            // only flips when a keep drops faults, so checking it after
            // keeps (below) covers every rank the old per-rank scan did.
            if !live.time_done(u) {
                // The segment snapshot: the screening sample and the
                // dense simulation list are frozen between keeps.
                // Rebuilt lazily at the fault start and after every keep.
                let mut segment: Option<(Vec<usize>, FaultList, Option<FaultList>)> = None;
                'ls: for ls in ls0..=(u + 1) {
                    s.extend_for(t, u, ls);
                    let mut sets = CandidateSets::build_with(&s, t, u, ls, cfg.ordering);
                    if cfg.full_length_fixup {
                        sets.ensure_full_length_rank();
                    }
                    let first = if ls == ls0 { j0 } else { 0 };
                    // Only ranks holding a length-`L_S` subsequence are
                    // admissible; the rest are skipped uncounted.
                    let mut ranks = (first..sets.max_rank())
                        .filter(|&rank| sets.rank_has_length(rank, ls))
                        .filter_map(|rank| sets.assignment_at(&s, rank).map(|a| (rank, a)))
                        .peekable();
                    // The next admissible ranks are prepared in one sweep
                    // and evaluated in rank order. A trace depends only on
                    // its sequence, so a batch survives keeps and dies
                    // with the set.
                    while ranks.peek().is_some() {
                        let batch: Vec<_> = ranks.by_ref().take(PREPARE_BATCH).collect();
                        for (rank, assignment, prep) in
                            prepare_batch(&sim, batch, cfg.sequence_length, &tel)
                        {
                            if let Some(r) = token.cancelled() {
                                truncated = Some(r);
                                break 'ls;
                            }
                            if segment.is_none() {
                                live.compact();
                                let seg_live = live.live().to_vec();
                                let seg_faults: FaultList =
                                    seg_live.iter().map(|&i| faults.faults()[i]).collect();
                                let sample = cfg.sample_first.then(|| {
                                    screening_sample(faults, &seg_live, fi, cfg.sample_size)
                                });
                                segment = Some((seg_live, seg_faults, sample));
                            }
                            let seg = segment.as_ref().expect("segment snapshot just built");
                            let eval = evaluate(&sim, &prep, seg.2.as_ref(), &seg.1);
                            // Read after the queries: the kernels poll the same
                            // token per cycle, so a cut-short query implies the
                            // trip is visible here.
                            let cancelled = token.cancelled().is_some();
                            tel.add("select.candidates_tried", 1);
                            if eval.screen_skip {
                                tel.add("select.sample_skips", 1);
                                if cancelled {
                                    truncated = token.cancelled();
                                    break 'ls;
                                }
                                continue;
                            }
                            // The full simulation ran: its flags are genuine
                            // detections (kept, result stays valid) even when
                            // the run was cut short.
                            let mut newly = 0usize;
                            for &k in &eval.newly {
                                let gi = seg.0[k];
                                if !detected[gi] {
                                    detected[gi] = true;
                                    live.mark_detected(gi);
                                    newly += 1;
                                }
                            }
                            if cancelled {
                                // Possibly incomplete, so this rank must not
                                // enter Ω or a checkpoint — a resumed run
                                // replays it in full.
                                truncated = token.cancelled();
                                break 'ls;
                            }
                            if newly == 0 {
                                continue;
                            }
                            tel.add("select.assignments_kept", 1);
                            if tel.is_enabled() {
                                tel.point("fault_drop", live.undetected());
                                tel.event(
                                    "select.kept",
                                    &[
                                        ("detection_time", u as u64),
                                        ("rank", rank as u64),
                                        ("newly_detected", newly as u64),
                                    ],
                                );
                            }
                            omega.push(SelectedAssignment {
                                assignment,
                                detection_time: u,
                                rank,
                                newly_detected: newly,
                            });
                            write_checkpoint(
                                &tel,
                                &omega,
                                &detected,
                                &abandoned,
                                &s,
                                Some(Cursor {
                                    fault: fi,
                                    u,
                                    ls,
                                    rank,
                                }),
                            );
                            if let Some(max) = token.max_assignments() {
                                if omega.len() >= max {
                                    token.cancel(TruncationReason::MaxAssignments);
                                    truncated = Some(TruncationReason::MaxAssignments);
                                    break 'ls;
                                }
                            }
                            segment = None;
                            if live.time_done(u) {
                                break 'ls;
                            }
                        }
                    }
                }
            }
            if truncated.is_some() {
                break;
            }
            if !detected[fi] {
                // Unreachable when L_G > u (see module docs); kept as a
                // safety valve so malformed inputs cannot hang the loop.
                abandoned[fi] = true;
                live.mark_abandoned(fi);
                tel.add("select.targets_abandoned", 1);
            }
        }

        let result = SynthesisResult {
            omega,
            weights: s,
            detected,
            target,
            abandoned,
            sequence_length: cfg.sequence_length,
        };
        match truncated {
            Some(reason) => {
                runctl::note_truncation(&tel, reason);
                Outcome::Truncated { result, reason }
            }
            None => Outcome::Complete(result),
        }
    }
}

/// Runs the paper's synthesis procedure.
///
/// Convenience wrapper over [`Synthesis`]: `t` is the deterministic test
/// sequence, `faults` the target fault list. Faults that `t` does not
/// detect are excluded from the target set `F` (the paper's guarantee is
/// relative to `T`'s coverage).
///
/// # Panics
///
/// Panics if the circuit is not levelized, the sequence width does not
/// match the circuit, or `cfg.sequence_length == 0`.
pub fn synthesize_weighted_bist(
    circuit: &Circuit,
    t: &TestSequence,
    faults: &FaultList,
    cfg: &SynthesisConfig,
) -> SynthesisResult {
    Synthesis::new(circuit, t, faults).config(cfg.clone()).run()
}

/// Builds the screening sample: the target fault plus the first
/// `size - 1` other undetected targets (ascending index over the
/// segment's live list — the same faults the old per-rank scan picked,
/// built once per segment instead of once per candidate).
fn screening_sample(faults: &FaultList, live: &[usize], fi: usize, size: usize) -> FaultList {
    let all = faults.faults();
    let mut picked: Vec<Fault> = vec![all[fi]];
    for &i in live {
        if picked.len() >= size.max(1) {
            break;
        }
        if i != fi {
            picked.push(all[i]);
        }
    }
    FaultList::from_faults(picked)
}

/// Generates the sequences of `batch` (rank, assignment) pairs and
/// prepares their good traces in one lane-parallel sweep, recording the
/// sweep's good-machine gate evaluations: every gate, in every cycle
/// until the last lane stopped recording.
fn prepare_batch(
    sim: &FaultSim<'_>,
    batch: Vec<(usize, WeightAssignment)>,
    len: usize,
    tel: &Telemetry,
) -> Vec<(usize, WeightAssignment, PreparedSequence)> {
    let seqs: Vec<TestSequence> = batch.iter().map(|(_, a)| a.generate(len)).collect();
    let preps = sim.prepare_sequences(&seqs);
    let swept = preps.iter().map(PreparedSequence::recorded_rows).max();
    tel.add_effort(
        "select.trace_gates_evaluated",
        (sim.circuit().num_gates() * swept.unwrap_or(0)) as u64,
    );
    batch
        .into_iter()
        .zip(preps)
        .map(|((rank, a), prep)| (rank, a, prep))
        .collect()
}

/// What evaluating one candidate `T_G` produced.
struct Evaluation {
    /// The screening sample rejected the sequence (no full simulation).
    screen_skip: bool,
    /// Indices *into the segment's live list* that the sequence detects.
    newly: Vec<usize>,
}

/// Evaluates one prepared candidate: screen it against `sample`, then
/// run the dense query against the segment's live list from cycle 0.
/// Both queries share the prepared good trace.
fn evaluate(
    sim: &FaultSim<'_>,
    prep: &PreparedSequence,
    sample: Option<&FaultList>,
    live_faults: &FaultList,
) -> Evaluation {
    let screen_skip = sample.is_some_and(|sample| !sim.query(sample).prepared(prep).any());
    let newly = if screen_skip || live_faults.is_empty() {
        Vec::new()
    } else {
        sim.query(live_faults).prepared(prep).detected_indices()
    };
    Evaluation { screen_skip, newly }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbist_circuits::s27;

    fn setup() -> (Circuit, TestSequence, FaultList) {
        let c = s27::circuit();
        let t = s27::paper_test_sequence();
        let faults = FaultList::checkpoints(&c);
        (c, t, faults)
    }

    #[test]
    fn s27_reaches_deterministic_coverage() {
        let (c, t, faults) = setup();
        let cfg = SynthesisConfig {
            sequence_length: 100,
            ..SynthesisConfig::default()
        };
        let r = synthesize_weighted_bist(&c, &t, &faults, &cfg);
        assert_eq!(r.target_count(), 32, "T detects all 32 faults");
        assert!(r.coverage_guaranteed());
        assert!(!r.omega.is_empty());
        assert!(r.abandoned.iter().all(|&a| !a));
    }

    #[test]
    fn subsequences_are_much_shorter_than_t() {
        let (c, t, faults) = setup();
        let cfg = SynthesisConfig {
            sequence_length: 100,
            ..SynthesisConfig::default()
        };
        let r = synthesize_weighted_bist(&c, &t, &faults, &cfg);
        assert!(
            r.max_subsequence_len() <= t.len(),
            "subsequences never exceed |T|"
        );
    }

    #[test]
    fn sample_first_does_not_change_coverage() {
        let (c, t, faults) = setup();
        let with = synthesize_weighted_bist(
            &c,
            &t,
            &faults,
            &SynthesisConfig {
                sequence_length: 100,
                sample_first: true,
                sample_size: 4,
                ..SynthesisConfig::default()
            },
        );
        let without = synthesize_weighted_bist(
            &c,
            &t,
            &faults,
            &SynthesisConfig {
                sequence_length: 100,
                sample_first: false,
                sample_size: 4,
                ..SynthesisConfig::default()
            },
        );
        assert!(with.coverage_guaranteed());
        assert!(without.coverage_guaranteed());
    }

    #[test]
    fn short_l_g_abandons_late_faults_instead_of_hanging() {
        let (c, t, faults) = setup();
        let cfg = SynthesisConfig {
            sequence_length: 4, // shorter than the max detection time (9)
            ..SynthesisConfig::default()
        };
        let r = synthesize_weighted_bist(&c, &t, &faults, &cfg);
        assert!(r.abandoned.iter().any(|&a| a));
        assert!(!r.coverage_guaranteed());
    }

    #[test]
    fn omega_assignments_actually_detect() {
        // Re-simulating Ω's sequences must reproduce the detected set.
        let (c, t, faults) = setup();
        let cfg = SynthesisConfig {
            sequence_length: 100,
            ..SynthesisConfig::default()
        };
        let r = synthesize_weighted_bist(&c, &t, &faults, &cfg);
        let sim = FaultSim::new(&c);
        let mut detected = vec![false; faults.len()];
        for sel in &r.omega {
            let flags = sim
                .query(&faults)
                .sequence(&sel.sequence(cfg.sequence_length))
                .detected();
            for (d, f) in detected.iter_mut().zip(flags) {
                *d |= f;
            }
        }
        for (i, (&target, &hit)) in r.target.iter().zip(&detected).enumerate() {
            if target {
                assert!(hit, "target fault {i} not covered by Ω");
            }
        }
    }

    #[test]
    fn max_assignment_budget_truncates_and_resumes_bit_identically() {
        use crate::runctl::{Budget, Checkpoint, RunControl};
        let (c, t, faults) = setup();
        let cfg = SynthesisConfig {
            sequence_length: 100,
            run: RunOptions::default().telemetry(Telemetry::enabled()),
            ..SynthesisConfig::default()
        };
        let dir = std::env::temp_dir().join("wbist-resume-s27");
        std::fs::create_dir_all(&dir).unwrap();
        let full_ckpt = dir.join("full.ckpt");
        let full = Synthesis::new(&c, &t, &faults)
            .config(cfg.clone())
            .run_controlled(&RunControl::default().checkpoint(&full_ckpt));
        assert!(!full.is_truncated());
        let full_counters = cfg.run.telemetry.counters();
        let total = full.result().omega.len();
        assert!(total >= 2, "need several assignments to interrupt between");

        for k in 1..total {
            let ckpt_path = dir.join(format!("cut-{k}.ckpt"));
            let cut_cfg = SynthesisConfig {
                run: RunOptions::default().telemetry(Telemetry::enabled()),
                ..cfg.clone()
            };
            let ctl = RunControl::default()
                .budget(Budget::default().max_assignments(k))
                .checkpoint(&ckpt_path);
            let cut = Synthesis::new(&c, &t, &faults)
                .config(cut_cfg)
                .run_controlled(&ctl);
            assert!(cut.is_truncated(), "k={k} should truncate");
            assert_eq!(cut.result().omega.len(), k);
            assert_eq!(cut.result().omega[..], full.result().omega[..k]);

            let resumed_cfg = SynthesisConfig {
                run: RunOptions::default().telemetry(Telemetry::enabled()),
                ..cfg.clone()
            };
            let resumed_tel = resumed_cfg.run.telemetry.clone();
            let resumed = Synthesis::new(&c, &t, &faults)
                .config(resumed_cfg)
                .resume_from(Checkpoint::load(&ckpt_path).expect("checkpoint loads"))
                .expect("checkpoint matches this run")
                .run_controlled(&RunControl::default().checkpoint(&ckpt_path));
            assert!(!resumed.is_truncated());
            assert_eq!(resumed.result().omega, full.result().omega, "k={k}");
            assert_eq!(resumed.result().detected, full.result().detected);
            assert_eq!(resumed.result().abandoned, full.result().abandoned);
            assert_eq!(resumed_tel.counters(), full_counters, "k={k} counters");
            std::fs::remove_file(&ckpt_path).ok();
        }
        std::fs::remove_file(&full_ckpt).ok();
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        use crate::runctl::{Checkpoint, CheckpointError, RunControl};
        let (c, t, faults) = setup();
        let cfg = SynthesisConfig {
            sequence_length: 100,
            ..SynthesisConfig::default()
        };
        let dir = std::env::temp_dir().join("wbist-resume-reject");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.ckpt");
        let _ = Synthesis::new(&c, &t, &faults)
            .config(cfg.clone())
            .run_controlled(&RunControl::default().checkpoint(&path));
        let ckpt = Checkpoint::load(&path).expect("checkpoint loads");
        let other = SynthesisConfig {
            sequence_length: 99,
            ..cfg
        };
        let err = Synthesis::new(&c, &t, &faults)
            .config(other)
            .resume_from(ckpt)
            .unwrap_err();
        assert!(
            matches!(err, CheckpointError::ConfigMismatch { .. }),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_fault_list_is_fine() {
        let (c, t, _) = setup();
        let r = synthesize_weighted_bist(
            &c,
            &t,
            &FaultList::from_faults(vec![]),
            &SynthesisConfig::default(),
        );
        assert!(r.omega.is_empty());
        assert_eq!(r.target_count(), 0);
        assert!(r.coverage_guaranteed());
    }
}
