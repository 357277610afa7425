//! Weighted test-sequence BIST for synchronous sequential circuits —
//! the primary contribution of *Pomeranz & Reddy, DATE 2000*.
//!
//! In this scheme a BIST *weight* is a finite 0/1 subsequence `α`
//! ([`Subsequence`]); assigning `α` to a primary input means the input
//! receives the periodic stream `α^r = α α α …`. A [`WeightAssignment`]
//! picks one subsequence per input and generates a weighted test sequence
//! `T_G`. Weights are derived from a single deterministic test sequence
//! `T` so that around each fault's detection time the weighted sequence
//! reproduces `T` exactly — which is what lets the method guarantee the
//! deterministic sequence's fault coverage while storing no patterns at
//! all (the weights become tiny on-chip FSMs; see the `wbist-hw` crate).
//!
//! Pipeline:
//!
//! 1. [`synthesize_weighted_bist`] — the paper's Sections 3–4.2: derive
//!    weights, select weight assignments, collect the useful ones in `Ω`;
//! 2. [`reverse_order_prune`] — Section 4.3: drop redundant assignments;
//! 3. [`observation_point_tradeoff`] — Section 5: trade assignments for
//!    observation points;
//! 4. baselines ([`baseline`]) — pure pseudo-random, classic weighted
//!    random, and the naive 3-weight extension, for comparison.
//!
//! # Example
//!
//! ```
//! use wbist_circuits::s27;
//! use wbist_core::{synthesize_weighted_bist, SynthesisConfig};
//! use wbist_netlist::FaultList;
//!
//! let circuit = s27::circuit();
//! let t = s27::paper_test_sequence();
//! let faults = FaultList::checkpoints(&circuit);
//! let cfg = SynthesisConfig { sequence_length: 100, ..SynthesisConfig::default() };
//! let result = synthesize_weighted_bist(&circuit, &t, &faults, &cfg);
//! // The paper's guarantee: same coverage as the deterministic sequence.
//! assert!(result.coverage_guaranteed());
//! ```

pub mod assign;
pub mod baseline;
pub mod hybrid;
pub mod job;
mod live;
pub mod obs;
pub mod prune;
pub mod runctl;
pub mod select;
pub mod session;
pub mod subseq;
pub mod weights;

/// Sequences the flow prepares together when it knows its next
/// candidates ahead of simulating them — one good-machine sweep's worth:
/// the selection walk's next admissible ranks, reverse-order prune's
/// next assignments and the observation-point detection matrix. Every
/// trace in a batch is held until its sequence is queried.
pub(crate) const PREPARE_BATCH: usize = wbist_sim::SWEEP_LANES;

pub use assign::{Candidate, CandidateOrdering, CandidateSets, WeightAssignment};
pub use hybrid::{synthesize_hybrid, HybridConfig, HybridResult};
pub use job::{run_synthesis_job, JobOutcome, ResumePolicy};
pub use obs::{observation_point_tradeoff, ObsOptions, ObsRow, ObsTradeoff};
pub use prune::{reverse_order_prune, PruneOptions};
pub use runctl::{
    config_hash, Checkpoint, CheckpointError, Cursor, Outcome, RunControl, CHECKPOINT_SCHEMA,
    COUNTER_SCHEMA,
};
pub use select::{
    synthesize_weighted_bist, SelectedAssignment, Synthesis, SynthesisConfig, SynthesisResult,
};
pub use session::{run_bist_session, SessionConfig, SessionReport};
pub use subseq::Subsequence;
pub use wbist_sim::{Budget, CancelToken, RunOptions, SimOptions, Telemetry, TruncationReason};
pub use weights::WeightSet;
