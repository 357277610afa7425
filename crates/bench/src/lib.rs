//! Experiment harness for regenerating the paper's tables and figures.
//!
//! The pipeline mirrors the paper's experimental setup end to end:
//!
//! 1. build the circuit (`s27` exact; others ISCAS-like synthetic
//!    stand-ins — see `wbist-circuits`),
//! 2. generate a deterministic test sequence with the simulation-based
//!    ATPG and statically compact it (the paper used STRATEGATE/SEQCOM +
//!    static compaction),
//! 3. run the weighted-BIST synthesis procedure (`L_G = 2000` in the
//!    paper configuration),
//! 4. prune `Ω` by reverse-order simulation,
//! 5. derive the FSM bank and hardware statistics.
//!
//! [`table6_row`] turns one run into a row of the paper's Table 6;
//! [`obs_table`] reproduces the Tables 7–16 trade-off; the baselines of
//! `wbist-core` feed the comparison table. Binaries in `src/bin/` print
//! the tables; Criterion benches in `benches/` measure the components.

// The JSON writer lives in `wbist-telemetry` now (it needs it for trace
// export and must stay dependency-free); re-exported here so existing
// `wbist_bench::json::Json` paths keep working.
pub use wbist_telemetry::json;

pub use json::Json;

use std::fmt;
use wbist_atpg::{compact, AtpgConfig, CompactionConfig, SequenceAtpg};
use wbist_circuits::synthetic;
use wbist_core::{
    observation_point_tradeoff, reverse_order_prune, synthesize_weighted_bist, ObsOptions,
    ObsTradeoff, PruneOptions, SelectedAssignment, SynthesisConfig, SynthesisResult,
};
use wbist_hw::FsmBank;
use wbist_netlist::{Circuit, FaultList};
use wbist_sim::{FaultSim, RunOptions, TestSequence};

/// Configuration of the full experiment pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// `L_G`, the weighted-sequence length per assignment.
    pub sequence_length: usize,
    /// ATPG settings for the deterministic sequence.
    pub atpg: AtpgConfig,
    /// Static compaction settings (`None` disables compaction).
    pub compaction: Option<CompactionConfig>,
    /// Sample-first speedup in the synthesis procedure.
    pub sample_first: bool,
    /// Shared run options: simulator tuning, telemetry handle, seed.
    pub run: RunOptions,
}

impl PipelineConfig {
    /// The paper's configuration: `L_G = 2000`, compacted deterministic
    /// sequences.
    pub fn paper() -> Self {
        PipelineConfig {
            sequence_length: 2000,
            atpg: AtpgConfig::default(),
            compaction: Some(CompactionConfig::default()),
            sample_first: true,
            run: RunOptions::default(),
        }
    }

    /// A reduced configuration for tests and micro-benchmarks: shorter
    /// sequences, bounded ATPG effort.
    pub fn fast() -> Self {
        PipelineConfig {
            sequence_length: 256,
            atpg: AtpgConfig {
                max_len: 1200,
                patience: 12,
                ..AtpgConfig::default()
            },
            compaction: Some(CompactionConfig {
                block_sizes: vec![64, 16],
                max_trials: 200,
            }),
            sample_first: true,
            run: RunOptions::default(),
        }
    }
}

/// The artifacts of one full pipeline run on one circuit.
#[derive(Debug, Clone)]
pub struct CircuitRun {
    /// Circuit name.
    pub name: String,
    /// The circuit itself.
    pub circuit: Circuit,
    /// Target fault list (checkpoint faults).
    pub faults: FaultList,
    /// The deterministic sequence `T` (after compaction).
    pub sequence: TestSequence,
    /// Faults detected by `T`.
    pub t_detected: usize,
    /// The synthesis outcome (`Ω` before pruning, weights, coverage
    /// flags).
    pub synthesis: SynthesisResult,
    /// `Ω` after reverse-order simulation.
    pub pruned: Vec<SelectedAssignment>,
}

impl CircuitRun {
    /// The FSM bank implementing the pruned `Ω`.
    pub fn fsm_bank(&self) -> FsmBank {
        FsmBank::from_assignments(&self.pruned)
    }
}

/// Runs the full pipeline on a circuit.
pub fn run_pipeline(name: &str, circuit: Circuit, cfg: &PipelineConfig) -> CircuitRun {
    let tel = cfg.run.telemetry.clone();
    let faults = FaultList::checkpoints(&circuit);
    let atpg = {
        let _span = tel.span("atpg.generate");
        SequenceAtpg::new(&circuit, cfg.atpg.clone()).run(&faults)
    };
    let sequence = {
        let _span = tel.span("atpg.compact");
        match &cfg.compaction {
            Some(cc) => compact(&circuit, &faults, &atpg.sequence, cc),
            None => atpg.sequence.clone(),
        }
    };
    let t_detected = FaultSim::with_run_options(&circuit, &cfg.run)
        .query(&faults)
        .sequence(&sequence)
        .count();
    let syn_cfg = SynthesisConfig {
        sequence_length: cfg.sequence_length,
        sample_first: cfg.sample_first,
        run: cfg.run.clone(),
        ..SynthesisConfig::default()
    };
    let synthesis = synthesize_weighted_bist(&circuit, &sequence, &faults, &syn_cfg);
    let pruned = reverse_order_prune(
        &circuit,
        &faults,
        &synthesis.omega,
        &PruneOptions::new(cfg.sequence_length).run(cfg.run.clone()),
    );
    CircuitRun {
        name: name.to_string(),
        circuit,
        faults,
        sequence,
        t_detected,
        synthesis,
        pruned,
    }
}

/// Runs the pipeline on a named benchmark (`"s27"` exact, others
/// synthetic stand-ins). Returns `None` for unknown names.
pub fn run_named(name: &str, cfg: &PipelineConfig) -> Option<CircuitRun> {
    let circuit = synthetic::by_name(name)?;
    Some(run_pipeline(name, circuit, cfg))
}

/// One row of the paper's Table 6.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table6Row {
    /// Circuit name.
    pub circuit: String,
    /// Length of the deterministic sequence `T` (`len`).
    pub given_len: usize,
    /// Faults `T` detects (`det`).
    pub given_det: usize,
    /// Weight assignments after reverse-order simulation (`seq`).
    pub seq: usize,
    /// Distinct subsequences defining them (`subs`).
    pub subs: usize,
    /// Longest subsequence (`len`).
    pub max_len: usize,
    /// FSMs after stream deduplication (`num`).
    pub fsm_num: usize,
    /// Total FSM outputs (`out`).
    pub fsm_out: usize,
    /// Whether the weighted sequences reached `T`'s coverage (the
    /// paper's guarantee; not a Table-6 column but asserted by it).
    pub coverage_guaranteed: bool,
    /// [`sequence_hash`] of `T`: pins the compacted sequence itself, not
    /// only its length (JSON only; not a Table-6 column).
    pub t_hash: u64,
}

/// 64-bit FNV-1a over the rows of `seq` as text: one `0`/`1` byte per
/// input and a `\n` after every row. Written out by hand because
/// `DefaultHasher`'s output may change between toolchains.
pub fn sequence_hash(seq: &TestSequence) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let byte = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(PRIME);
    seq.iter().fold(OFFSET, |h, row| {
        let h = row
            .iter()
            .fold(h, |h, &bit| byte(h, if bit { b'1' } else { b'0' }));
        byte(h, b'\n')
    })
}

/// Builds the Table-6 row of one run.
pub fn table6_row(run: &CircuitRun) -> Table6Row {
    let pruned_result = SynthesisResult {
        omega: run.pruned.clone(),
        ..run.synthesis.clone()
    };
    let bank = run.fsm_bank();
    // Coverage check on the pruned Ω.
    let sim = FaultSim::new(&run.circuit);
    let mut detected = vec![false; run.faults.len()];
    for sel in &run.pruned {
        for (d, f) in detected.iter_mut().zip(
            sim.query(&run.faults)
                .sequence(&sel.sequence(run.synthesis.sequence_length))
                .detected(),
        ) {
            *d |= f;
        }
    }
    let guaranteed = run
        .synthesis
        .target
        .iter()
        .zip(&detected)
        .all(|(&t, &d)| !t || d);
    Table6Row {
        circuit: run.name.clone(),
        given_len: run.sequence.len(),
        given_det: run.t_detected,
        seq: run.pruned.len(),
        subs: pruned_result.distinct_subsequences().len(),
        max_len: pruned_result.max_subsequence_len(),
        fsm_num: bank.num_fsms(),
        fsm_out: bank.total_outputs(),
        coverage_guaranteed: guaranteed,
        t_hash: sequence_hash(&run.sequence),
    }
}

impl Table6Row {
    /// The row as an ordered JSON object (field order matches the
    /// struct).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("circuit", self.circuit.as_str().into()),
            ("given_len", self.given_len.into()),
            ("given_det", self.given_det.into()),
            ("seq", self.seq.into()),
            ("subs", self.subs.into()),
            ("max_len", self.max_len.into()),
            ("fsm_num", self.fsm_num.into()),
            ("fsm_out", self.fsm_out.into()),
            ("coverage_guaranteed", self.coverage_guaranteed.into()),
            ("t_hash", format!("{:016x}", self.t_hash).as_str().into()),
        ])
    }
}

/// All rows as a JSON array.
pub fn table6_rows_json(rows: &[Table6Row]) -> Json {
    Json::Array(rows.iter().map(Table6Row::to_json).collect())
}

impl fmt::Display for Table6Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} {:>6} {:>6} {:>5} {:>5} {:>5} {:>5} {:>5}  {}",
            self.circuit,
            self.given_len,
            self.given_det,
            self.seq,
            self.subs,
            self.max_len,
            self.fsm_num,
            self.fsm_out,
            if self.coverage_guaranteed {
                "ok"
            } else {
                "MISS"
            }
        )
    }
}

/// Formats a set of rows with the paper's Table-6 header.
pub fn format_table6(rows: &[Table6Row]) -> String {
    let mut s = String::new();
    s.push_str("            given seq       proposed           FSMs\n");
    s.push_str("circuit     len    det   seq  subs   len   num   out  guarantee\n");
    for r in rows {
        s.push_str(&r.to_string());
        s.push('\n');
    }
    s
}

/// Reproduces one of the Tables 7–16 for a run: the observation-point
/// trade-off over `Ω` before pruning.
pub fn obs_table(run: &CircuitRun, run_opts: &RunOptions) -> ObsTradeoff {
    let opts = ObsOptions::new(run.synthesis.sequence_length).run(run_opts.clone());
    observation_point_tradeoff(&run.circuit, &run.faults, &run.synthesis.omega, &opts)
}

/// Formats an observation-point trade-off like the paper's tables.
pub fn format_obs_table(name: &str, tr: &ObsTradeoff) -> String {
    let mut s = "circuit  seq   sub   len    f.e.   obs    f.e.\n".to_string();
    for row in &tr.rows {
        s.push_str(&format!(
            "{:<8} {:>3} {:>5} {:>5} {:>7.2} {:>4} {:>7.2}\n",
            name,
            row.num_assignments,
            row.num_subsequences,
            row.max_len,
            row.fault_efficiency,
            row.num_obs,
            row.fe_with_obs
        ));
    }
    s
}

/// The named circuits of the paper's Table 6 that fit a quick run
/// (everything except the two large ones).
pub fn standard_circuits() -> Vec<String> {
    let mut v = vec!["s27".to_string()];
    v.extend(
        synthetic::table6_specs()
            .into_iter()
            .map(|s| s.name)
            .filter(|n| n != "s5378" && n != "s35932"),
    );
    v
}

/// The large-circuit names gated behind `--large`.
pub fn large_circuits() -> Vec<String> {
    vec!["s5378".to_string(), "s35932".to_string()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s27_pipeline_end_to_end() {
        let run = run_named("s27", &PipelineConfig::fast()).expect("s27 exists");
        let row = table6_row(&run);
        assert_eq!(row.circuit, "s27");
        assert_eq!(row.given_det, 32);
        assert!(row.coverage_guaranteed);
        assert!(row.seq >= 1);
        assert!(row.fsm_num <= row.subs.max(1));
        assert!(row.fsm_out <= row.subs);
    }

    /// The guarantee check can say no: dropping from the pruned `Ω` the
    /// only entry that detects some target fault turns it off.
    #[test]
    fn coverage_check_reports_a_lost_target() {
        let run = run_named("s27", &PipelineConfig::fast()).expect("s27 exists");
        assert!(table6_row(&run).coverage_guaranteed);
        let sim = FaultSim::new(&run.circuit);
        let per_entry: Vec<Vec<bool>> = run
            .pruned
            .iter()
            .map(|sel| {
                sim.query(&run.faults)
                    .sequence(&sel.sequence(run.synthesis.sequence_length))
                    .detected()
            })
            .collect();
        let only_detector = |f: usize| {
            let mut hits = (0..per_entry.len()).filter(|&i| per_entry[i][f]);
            match (hits.next(), hits.next()) {
                (Some(i), None) => Some(i),
                _ => None,
            }
        };
        let sole = (0..run.faults.len())
            .filter(|&f| run.synthesis.target[f])
            .find_map(only_detector)
            .expect("some target is detected by one Ω entry only");
        let mut mutated = run.clone();
        mutated.pruned.remove(sole);
        assert!(!table6_row(&mutated).coverage_guaranteed);
    }

    #[test]
    fn table6_formatting() {
        let run = run_named("s27", &PipelineConfig::fast()).expect("s27 exists");
        let text = format_table6(&[table6_row(&run)]);
        assert!(text.contains("s27"));
        assert!(text.contains("circuit"));
    }

    #[test]
    fn obs_table_for_s27() {
        let run = run_named("s27", &PipelineConfig::fast()).expect("s27 exists");
        let tr = obs_table(&run, &RunOptions::default());
        let text = format_obs_table("s27", &tr);
        assert!(text.contains("f.e."));
        let last = tr.rows.last().expect("rows exist");
        assert_eq!(last.num_obs, 0);
    }

    #[test]
    fn unknown_circuit_is_none() {
        assert!(run_named("bogus", &PipelineConfig::fast()).is_none());
    }

    #[test]
    fn circuit_lists_are_disjoint_and_complete() {
        let std_list = standard_circuits();
        let large = large_circuits();
        assert!(std_list.contains(&"s27".to_string()));
        assert!(std_list.contains(&"s1488".to_string()));
        for l in &large {
            assert!(!std_list.contains(l));
        }
        assert_eq!(std_list.len() + large.len(), 17, "s27 + 16 stand-ins");
    }

    #[test]
    fn table6_row_serializes() {
        let run = run_named("s27", &PipelineConfig::fast()).expect("s27 exists");
        let row = table6_row(&run);
        let json = row.to_json().render();
        assert!(json.contains("\"circuit\":\"s27\""));
        assert!(json.contains("coverage_guaranteed"));
    }

    #[test]
    fn fsm_bank_consistent_with_row() {
        let run = run_named("s27", &PipelineConfig::fast()).expect("s27 exists");
        let row = table6_row(&run);
        let bank = run.fsm_bank();
        assert_eq!(row.fsm_num, bank.num_fsms());
        assert_eq!(row.fsm_out, bank.total_outputs());
        // FSM count never exceeds the number of distinct lengths possible.
        assert!(row.fsm_num <= row.max_len);
    }
}
