//! Run control for long synthesis runs: budgets, deterministic
//! checkpoint/resume, and truncation reporting.
//!
//! Synthesizing weights for the larger ISCAS-89 circuits can take hours;
//! this module makes such runs *interruptible* without losing work or
//! determinism:
//!
//! * [`RunControl`] bundles a [`Budget`] (wall clock, fault-cycles,
//!   assignment count) with an optional checkpoint path. The budget is
//!   turned into a [`CancelToken`] that the simulation kernels poll once
//!   per simulated cycle and the synthesis driver polls at every
//!   candidate boundary.
//! * [`Outcome`] is what a budgeted run returns: either
//!   [`Outcome::Complete`] or [`Outcome::Truncated`] — the latter still
//!   carries a *valid partial result* (every `detected` flag is genuine;
//!   `Ω` only contains assignments that were fully evaluated).
//! * [`Checkpoint`] is a schema-versioned (`wbist-ckpt/v1`) JSON snapshot
//!   of the synthesis state, written after every kept assignment. A run
//!   resumed from a checkpoint re-enters the selection loop at the exact
//!   cursor position and reproduces the uninterrupted run **bit for
//!   bit** — same `Ω`, same detection flags, same telemetry counters.
//!
//! Determinism hinges on two details encoded here:
//!
//! 1. The cursor records the loop coordinates `(fault, u, L_S, rank)` of
//!    the last *kept* assignment; everything the procedure does between
//!    two keeps is a pure function of the state at the previous keep, so
//!    replaying from the cursor loses nothing.
//! 2. Telemetry counters are snapshotted into the checkpoint and restored
//!    on resume (the resumed run's startup work is done with telemetry
//!    disabled, because its cost is already inside the restored values).
//!
//! Checkpoints are validated against a [`config_hash`] of the circuit,
//! the deterministic sequence, the fault list, every knob that affects
//! the run and the [`COUNTER_SCHEMA`] of the build, so a checkpoint can
//! never silently resume a *different* synthesis, nor mix the counters
//! of two builds that count differently.

use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::select::{SelectedAssignment, SynthesisConfig};
use crate::subseq::Subsequence;
use wbist_netlist::{Circuit, FaultList, FaultModel, FaultSite};
use wbist_sim::TestSequence;
pub use wbist_sim::{Budget, CancelToken, TruncationReason};
use wbist_telemetry::{failpoint, Json, Telemetry};

/// Schema identifier written into every checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = "wbist-ckpt/v1";

/// The result of a budgeted run: complete, or truncated by the budget
/// with a valid partial result.
#[derive(Debug, Clone)]
pub enum Outcome<T> {
    /// The run finished everything it set out to do.
    Complete(T),
    /// A budget tripped; `result` is a consistent partial state (see the
    /// module docs for what "consistent" means per phase).
    Truncated {
        /// The partial result.
        result: T,
        /// Which budget tripped first.
        reason: TruncationReason,
    },
}

impl<T> Outcome<T> {
    /// The carried result, complete or partial.
    pub fn result(&self) -> &T {
        match self {
            Outcome::Complete(r) | Outcome::Truncated { result: r, .. } => r,
        }
    }

    /// Unwraps the carried result, complete or partial.
    pub fn into_result(self) -> T {
        match self {
            Outcome::Complete(r) | Outcome::Truncated { result: r, .. } => r,
        }
    }

    /// Whether a budget tripped.
    pub fn is_truncated(&self) -> bool {
        matches!(self, Outcome::Truncated { .. })
    }

    /// The truncation reason, if any.
    pub fn truncation(&self) -> Option<TruncationReason> {
        match self {
            Outcome::Complete(_) => None,
            Outcome::Truncated { reason, .. } => Some(*reason),
        }
    }

    /// Maps the carried result, preserving the truncation status.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        match self {
            Outcome::Complete(r) => Outcome::Complete(f(r)),
            Outcome::Truncated { result, reason } => Outcome::Truncated {
                result: f(result),
                reason,
            },
        }
    }
}

/// Budget and checkpointing knobs for [`crate::select::Synthesis::run_controlled`].
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Resource limits; [`Budget::is_unlimited`] (the default) arms no
    /// token at all.
    pub budget: Budget,
    /// Where to write checkpoints (one file, atomically replaced after
    /// every kept assignment). `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
}

impl RunControl {
    /// Replaces the budget (builder style).
    pub fn budget(mut self, budget: Budget) -> RunControl {
        self.budget = budget;
        self
    }

    /// Sets the checkpoint path (builder style).
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> RunControl {
        self.checkpoint = Some(path.into());
        self
    }
}

/// Exact position inside the selection loop after the last kept
/// assignment: resume continues at `rank + 1` of the same `(fault, u,
/// ls)` coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    /// Index of the target fault being worked on.
    pub fault: usize,
    /// Its detection time `u`.
    pub u: usize,
    /// The subsequence length `L_S` of the inner loop.
    pub ls: usize,
    /// The candidate rank `j` whose assignment was just kept.
    pub rank: usize,
}

/// A deterministic snapshot of the synthesis state (`wbist-ckpt/v1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Hash of everything that shapes the run; see [`config_hash`].
    pub config_hash: u64,
    /// The run seed (informational; also folded into the hash).
    pub seed: u64,
    /// `L_G` (informational; also folded into the hash).
    pub sequence_length: usize,
    /// Per-fault detection flags at snapshot time.
    pub detected: Vec<bool>,
    /// Per-fault abandonment flags at snapshot time.
    pub abandoned: Vec<bool>,
    /// The weight set `S`, in insertion order (order matters: candidate
    /// ranks depend on it).
    pub weights: Vec<Subsequence>,
    /// `Ω` so far.
    pub omega: Vec<SelectedAssignment>,
    /// Loop position of the last kept assignment; `None` for the initial
    /// (empty) checkpoint written at run start.
    pub cursor: Option<Cursor>,
    /// Telemetry counters at snapshot time, restored verbatim on resume.
    pub counters: Vec<(String, u64)>,
}

/// Why a checkpoint could not be loaded or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file's bytes are damaged — truncated, bit-flipped, or
    /// otherwise not the document that was written. The error is
    /// line-anchored so a damaged multi-line checkpoint points at the
    /// offending spot.
    Corrupt {
        /// 1-based line in the checkpoint file.
        line: usize,
        /// What was wrong there.
        message: String,
    },
    /// The document is JSON but not a `wbist-ckpt/v1` checkpoint; the
    /// string names the missing or malformed field.
    Schema(String),
    /// The checkpoint belongs to a different circuit / sequence / fault
    /// list / configuration.
    ConfigMismatch {
        /// Hash the current run computes.
        expected: u64,
        /// Hash stored in the checkpoint.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt { line, message } => {
                write!(f, "checkpoint is corrupt at line {line}: {message}")
            }
            CheckpointError::Schema(what) => {
                write!(f, "not a {CHECKPOINT_SCHEMA} checkpoint: {what}")
            }
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different run \
                 (config hash {found:#018x}, this run is {expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn bitstring(bits: &[bool]) -> Json {
    Json::Str(bits.iter().map(|&b| if b { '1' } else { '0' }).collect())
}

fn parse_bitstring(json: &Json, what: &str) -> Result<Vec<bool>, CheckpointError> {
    let s = json
        .as_str()
        .ok_or_else(|| CheckpointError::Schema(format!("{what} is not a string")))?;
    s.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            _ => Err(CheckpointError::Schema(format!(
                "{what} contains {c:?}, expected only 0/1"
            ))),
        })
        .collect()
}

fn parse_subsequence(json: &Json, what: &str) -> Result<Subsequence, CheckpointError> {
    let s = json
        .as_str()
        .ok_or_else(|| CheckpointError::Schema(format!("{what} is not a string")))?;
    s.parse()
        .map_err(|_| CheckpointError::Schema(format!("{what} is not a 0/1 subsequence")))
}

fn field<'j>(json: &'j Json, key: &str) -> Result<&'j Json, CheckpointError> {
    json.get(key)
        .ok_or_else(|| CheckpointError::Schema(format!("missing field `{key}`")))
}

fn uint_field(json: &Json, key: &str) -> Result<u64, CheckpointError> {
    field(json, key)?
        .as_u64()
        .ok_or_else(|| CheckpointError::Schema(format!("field `{key}` is not an unsigned integer")))
}

impl Checkpoint {
    /// Renders the checkpoint as a `wbist-ckpt/v1` JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(CHECKPOINT_SCHEMA.to_string())),
            ("config_hash", Json::UInt(self.config_hash)),
            ("seed", Json::UInt(self.seed)),
            ("sequence_length", Json::UInt(self.sequence_length as u64)),
            ("detected", bitstring(&self.detected)),
            ("abandoned", bitstring(&self.abandoned)),
            (
                "weights",
                Json::Array(
                    self.weights
                        .iter()
                        .map(|s| Json::Str(s.to_string()))
                        .collect(),
                ),
            ),
            (
                "omega",
                Json::Array(
                    self.omega
                        .iter()
                        .map(|sel| {
                            Json::obj(vec![
                                ("detection_time", Json::UInt(sel.detection_time as u64)),
                                ("rank", Json::UInt(sel.rank as u64)),
                                ("newly_detected", Json::UInt(sel.newly_detected as u64)),
                                (
                                    "subs",
                                    Json::Array(
                                        sel.assignment
                                            .subsequences()
                                            .iter()
                                            .map(|s| Json::Str(s.to_string()))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "cursor",
                match &self.cursor {
                    None => Json::Null,
                    Some(c) => Json::obj(vec![
                        ("fault", Json::UInt(c.fault as u64)),
                        ("u", Json::UInt(c.u as u64)),
                        ("ls", Json::UInt(c.ls as u64)),
                        ("rank", Json::UInt(c.rank as u64)),
                    ]),
                },
            ),
            (
                "counters",
                Json::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a checkpoint from a `wbist-ckpt/v1` JSON document.
    pub fn from_json(json: &Json) -> Result<Checkpoint, CheckpointError> {
        let schema = field(json, "schema")?.as_str().unwrap_or("");
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Schema(format!(
                "schema is {schema:?}, expected {CHECKPOINT_SCHEMA:?}"
            )));
        }
        let weights = field(json, "weights")?
            .as_array()
            .ok_or_else(|| CheckpointError::Schema("`weights` is not an array".into()))?
            .iter()
            .map(|j| parse_subsequence(j, "weights entry"))
            .collect::<Result<Vec<_>, _>>()?;
        let omega = field(json, "omega")?
            .as_array()
            .ok_or_else(|| CheckpointError::Schema("`omega` is not an array".into()))?
            .iter()
            .map(|entry| {
                let subs = field(entry, "subs")?
                    .as_array()
                    .ok_or_else(|| CheckpointError::Schema("`subs` is not an array".into()))?
                    .iter()
                    .map(|j| parse_subsequence(j, "omega subsequence"))
                    .collect::<Result<Vec<_>, _>>()?;
                if subs.is_empty() {
                    return Err(CheckpointError::Schema(
                        "omega entry has no subsequences".into(),
                    ));
                }
                Ok(SelectedAssignment {
                    assignment: crate::assign::WeightAssignment::new(subs),
                    detection_time: uint_field(entry, "detection_time")? as usize,
                    rank: uint_field(entry, "rank")? as usize,
                    newly_detected: uint_field(entry, "newly_detected")? as usize,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cursor = match field(json, "cursor")? {
            Json::Null => None,
            c => Some(Cursor {
                fault: uint_field(c, "fault")? as usize,
                u: uint_field(c, "u")? as usize,
                ls: uint_field(c, "ls")? as usize,
                rank: uint_field(c, "rank")? as usize,
            }),
        };
        let counters = field(json, "counters")?
            .as_object()
            .ok_or_else(|| CheckpointError::Schema("`counters` is not an object".into()))?
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| CheckpointError::Schema(format!("counter `{k}` is not a count")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let detected = parse_bitstring(field(json, "detected")?, "`detected`")?;
        let abandoned = parse_bitstring(field(json, "abandoned")?, "`abandoned`")?;
        if abandoned.len() != detected.len() {
            return Err(CheckpointError::Schema(
                "`abandoned` and `detected` have different lengths".into(),
            ));
        }
        Ok(Checkpoint {
            config_hash: uint_field(json, "config_hash")?,
            seed: uint_field(json, "seed")?,
            sequence_length: uint_field(json, "sequence_length")? as usize,
            detected,
            abandoned,
            weights,
            omega,
            cursor,
            counters,
        })
    }

    /// Writes the checkpoint to `path`, atomically and durably: the
    /// document (plus an `integrity` checksum over its content) goes to
    /// `path.tmp` first, is fsynced, renamed over `path`, and the parent
    /// directory entry is fsynced too — the rename itself is only
    /// durable once the directory is on disk. An interrupted write never
    /// destroys the previous checkpoint.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if failpoint::should_fire("core.checkpoint_write") {
            return Err(io::Error::other("failpoint `core.checkpoint_write` fired"));
        }
        let mut doc = self.to_json();
        let sum = integrity_hash(&doc);
        if let Json::Object(entries) = &mut doc {
            entries.push(("integrity".to_string(), Json::UInt(sum)));
        }
        let tmp = path.with_extension("tmp");
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(doc.render_pretty().as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_all()?;
        if failpoint::should_fire("core.checkpoint_rename") {
            // Simulated crash between the tmp-file fsync and the rename:
            // the previous checkpoint must remain intact and loadable.
            return Err(io::Error::other("failpoint `core.checkpoint_rename` fired"));
        }
        std::fs::rename(&tmp, path)?;
        // Best effort on the directory handle: not every platform lets a
        // directory be opened, but where it can be, sync failures are
        // real failures.
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
            _ => PathBuf::from("."),
        };
        if let Ok(d) = std::fs::File::open(&dir) {
            d.sync_all()?;
        }
        Ok(())
    }

    /// Loads and validates a checkpoint from `path`.
    ///
    /// Every failure is a typed [`CheckpointError`] — a truncated,
    /// bit-flipped, wrong-version or wrong-run file is *rejected*, never
    /// a panic. Files written by [`Checkpoint::save`] carry an
    /// `integrity` checksum which is verified here; files without one
    /// (hand-edited or older) skip that check.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        if failpoint::should_fire("core.checkpoint_read") {
            return Err(CheckpointError::Io(io::Error::other(
                "failpoint `core.checkpoint_read` fired",
            )));
        }
        let text = std::fs::read_to_string(path)?;
        let mut json = Json::parse(&text).map_err(|e| CheckpointError::Corrupt {
            line: line_of_offset(&text, e.offset),
            message: e.message,
        })?;
        if let Json::Object(entries) = &mut json {
            if let Some(pos) = entries.iter().position(|(k, _)| k == "integrity") {
                let (_, stored) = entries.remove(pos);
                let expected = stored.as_u64().ok_or_else(|| CheckpointError::Corrupt {
                    line: 1,
                    message: "`integrity` is not an unsigned integer".to_string(),
                })?;
                let actual = integrity_hash(&json);
                if actual != expected {
                    return Err(CheckpointError::Corrupt {
                        line: 1,
                        message: format!(
                            "integrity checksum mismatch (file says {expected:#018x}, \
                             content hashes to {actual:#018x})"
                        ),
                    });
                }
            }
        }
        Checkpoint::from_json(&json)
    }
}

/// 1-based line number of a byte offset into `text`.
fn line_of_offset(text: &str, offset: usize) -> usize {
    let upto = offset.min(text.len());
    text.as_bytes()[..upto]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// FNV-1a over the compact rendering of a checkpoint document (without
/// its `integrity` field). The parser normalizes whitespace and key
/// order is preserved, so parse → re-render reproduces the hashed bytes
/// exactly; any semantic damage to the file changes the hash.
fn integrity_hash(doc: &Json) -> u64 {
    let mut h = Fnv::new();
    for b in doc.render().bytes() {
        h.byte(b);
    }
    h.finish()
}

/// Version of the rules the deterministic telemetry counters follow.
///
/// A checkpoint carries its counters and a resume restores them
/// verbatim, so resuming a checkpoint written by a build that counted
/// differently would mix two accountings in one "deterministic" trace.
/// The schema is folded into [`config_hash`], which turns such a resume
/// into [`CheckpointError::ConfigMismatch`]. Bump it whenever a change
/// alters what any counter in a checkpoint counts.
pub const COUNTER_SCHEMA: u64 = 1;

/// FNV-1a over everything that shapes a synthesis run: circuit
/// structure, deterministic sequence bits, fault list, `L_G`, sampling
/// and ordering knobs, the seed, and the build's [`COUNTER_SCHEMA`].
/// Two runs with equal hashes walk the selection loop identically and
/// count it alike, so a checkpoint from one resumes the other.
pub fn config_hash(
    circuit: &Circuit,
    t: &TestSequence,
    faults: &FaultList,
    cfg: &SynthesisConfig,
) -> u64 {
    config_hash_under(COUNTER_SCHEMA, circuit, t, faults, cfg)
}

/// [`config_hash`] as a build with counter schema `schema` computes it.
fn config_hash_under(
    schema: u64,
    circuit: &Circuit,
    t: &TestSequence,
    faults: &FaultList,
    cfg: &SynthesisConfig,
) -> u64 {
    let mut h = Fnv::new();
    h.int(schema);
    h.text(circuit.name());
    h.int(circuit.num_nets() as u64);
    h.int(circuit.num_inputs() as u64);
    h.int(circuit.num_dffs() as u64);
    h.int(circuit.num_gates() as u64);
    h.int(t.len() as u64);
    h.int(t.num_inputs() as u64);
    for row in t.iter() {
        h.bits(row);
    }
    h.int(faults.len() as u64);
    for f in faults.faults() {
        // The model tag participates so a checkpoint taken under one
        // fault model can never resume a run over another.
        h.int(match f.model() {
            FaultModel::StuckAt => 0,
            FaultModel::TransitionDelay => 1,
        });
        let (tag, a, b) = match f.site() {
            FaultSite::Stem(n) => (0u64, n.index() as u64, 0u64),
            FaultSite::GatePin { gate, pin } => (1, gate.index() as u64, pin as u64),
            FaultSite::DffData(k) => (2, k as u64, 0),
        };
        h.int(tag);
        h.int(a);
        h.int(b);
        h.int(f.polarity() as u64);
    }
    h.int(cfg.sequence_length as u64);
    h.int(cfg.sample_first as u64);
    h.int(cfg.sample_size as u64);
    h.int(cfg.ordering as u64);
    h.int(cfg.full_length_fixup as u64);
    h.int(cfg.run.seed);
    h.finish()
}

/// Folds extra flag bits (the synthesizer's pre-detection vector) into
/// an already-finished hash.
pub(crate) fn fold_flags(hash: u64, flags: &[bool]) -> u64 {
    let mut h = Fnv(hash);
    h.bits(flags);
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn int(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn text(&mut self, s: &str) {
        self.int(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }

    fn bits(&mut self, bits: &[bool]) {
        for chunk in bits.chunks(64) {
            let mut w = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                w |= (b as u64) << i;
            }
            self.int(w);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Every deterministic counter a phase records. Checkpoint restore has
/// to map parsed (owned) names back to the `&'static str` keys
/// [`Telemetry::add`] requires; unknown names in a checkpoint are
/// ignored rather than rejected, so older checkpoints survive counter
/// renames.
const KNOWN_COUNTERS: &[&str] = &[
    "hw.dffs",
    "hw.fsm_outputs",
    "hw.fsm_state_bits",
    "hw.fsms",
    "hw.gates",
    "hw.literals",
    "hw.next_state_literals",
    "hw.output_literals",
    "hybrid.random_sessions",
    "obs.cover_iterations",
    "obs.rows",
    "prune.dropped",
    "prune.kept",
    "runctl.checkpoints_written",
    "runctl.truncations",
    "select.assignments_kept",
    "select.candidates_tried",
    "select.sample_skips",
    "select.targets_abandoned",
    "session.assignments",
    "session.faults",
    "session.lost_in_signature",
    "session.observed",
    "session.signed",
    "sim.batch_panics",
    "sim.batches",
    "sim.calls",
    "sim.cycles",
    "sim.fault_cycles",
    "sim.faults_dropped",
    "sim.faults_retired",
    "sim.gates_evaluated",
    "sim.gates_skipped",
    "sim.screen_calls",
];

/// Restores checkpointed counter values into a telemetry handle.
pub(crate) fn restore_counters(tel: &Telemetry, counters: &[(String, u64)]) {
    for (name, value) in counters {
        if let Some(&key) = KNOWN_COUNTERS.iter().find(|&&k| k == name) {
            tel.add(key, *value);
        }
    }
}

/// Records a truncation in the telemetry stream (one counter bump plus a
/// structured event carrying the reason code).
pub(crate) fn note_truncation(tel: &Telemetry, reason: TruncationReason) {
    tel.add("runctl.truncations", 1);
    tel.event("runctl.truncated", &[("reason", reason.code())]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::WeightAssignment;

    fn sample_checkpoint() -> Checkpoint {
        let alpha: Subsequence = "011".parse().unwrap();
        let beta: Subsequence = "10".parse().unwrap();
        Checkpoint {
            config_hash: 0xdead_beef_1234_5678,
            seed: 7,
            sequence_length: 100,
            detected: vec![true, false, true],
            abandoned: vec![false, false, true],
            weights: vec![alpha.clone(), beta.clone()],
            omega: vec![SelectedAssignment {
                assignment: WeightAssignment::new(vec![alpha, beta]),
                detection_time: 9,
                rank: 2,
                newly_detected: 5,
            }],
            cursor: Some(Cursor {
                fault: 1,
                u: 9,
                ls: 3,
                rank: 2,
            }),
            counters: vec![("sim.cycles".into(), 1234), ("sim.calls".into(), 9)],
        }
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let ck = sample_checkpoint();
        let json = ck.to_json();
        let back = Checkpoint::from_json(&json).expect("round trip");
        assert_eq!(back, ck);
        // And through the rendered text, too.
        let reparsed = Json::parse(&json.render_pretty()).expect("valid JSON");
        assert_eq!(Checkpoint::from_json(&reparsed).expect("round trip"), ck);
    }

    #[test]
    fn initial_checkpoint_has_no_cursor() {
        let mut ck = sample_checkpoint();
        ck.cursor = None;
        ck.omega.clear();
        let back = Checkpoint::from_json(&ck.to_json()).expect("round trip");
        assert_eq!(back.cursor, None);
        assert!(back.omega.is_empty());
    }

    #[test]
    fn schema_violations_are_reported() {
        let bad = Json::obj(vec![("schema", Json::Str("wbist-ckpt/v0".into()))]);
        let err = Checkpoint::from_json(&bad).unwrap_err();
        assert!(matches!(err, CheckpointError::Schema(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("wbist-ckpt/v1"), "{msg}");
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("wbist-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        let ck = sample_checkpoint();
        ck.save(&path).expect("save");
        let back = Checkpoint::load(&path).expect("load");
        assert_eq!(back, ck);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn integrity_checksum_rejects_value_damage() {
        let dir = std::env::temp_dir().join("wbist-ckpt-integrity");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("damaged.ckpt");
        sample_checkpoint().save(&path).expect("save");

        // Flip one digit of a counter value: still valid JSON, still a
        // valid schema, but no longer the document that was written.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"integrity\""), "save writes the checksum");
        let damaged = text.replacen("1234", "1235", 1);
        assert_ne!(damaged, text);
        std::fs::write(&path, damaged).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt { .. }),
            "expected a corruption error, got {err}"
        );
        assert!(err.to_string().contains("integrity"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn files_without_integrity_still_load() {
        let dir = std::env::temp_dir().join("wbist-ckpt-legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.ckpt");
        let ck = sample_checkpoint();
        std::fs::write(&path, ck.to_json().render_pretty()).unwrap();
        assert_eq!(Checkpoint::load(&path).expect("legacy load"), ck);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_errors_are_line_anchored() {
        let dir = std::env::temp_dir().join("wbist-ckpt-lines");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.ckpt");
        sample_checkpoint().save(&path).expect("save");
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() / 2;
        std::fs::write(&path, &text[..cut]).unwrap();
        let expect_line = line_of_offset(&text[..cut], cut);
        match Checkpoint::load(&path).unwrap_err() {
            CheckpointError::Corrupt { line, .. } => {
                assert!(line > 1, "a mid-file cut anchors past line 1, got {line}");
                assert!(
                    line <= expect_line,
                    "line {line} beyond the cut {expect_line}"
                );
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_hash_is_sensitive_to_knobs() {
        use wbist_circuits::s27;
        let c = s27::circuit();
        let t = s27::paper_test_sequence();
        let faults = FaultList::checkpoints(&c);
        let cfg = SynthesisConfig::default();
        let base = config_hash(&c, &t, &faults, &cfg);
        assert_eq!(base, config_hash(&c, &t, &faults, &cfg), "deterministic");
        let mut other = cfg.clone();
        other.sequence_length += 1;
        assert_ne!(base, config_hash(&c, &t, &faults, &other));
        let mut reseeded = cfg.clone();
        reseeded.run.seed ^= 1;
        assert_ne!(base, config_hash(&c, &t, &faults, &reseeded));
        let fewer = FaultList::from_faults(faults.faults()[..faults.len() - 1].to_vec());
        assert_ne!(base, config_hash(&c, &t, &fewer, &cfg));
    }

    /// A checkpoint written by a build with another counter schema is
    /// refused with the typed mismatch, never resumed with mixed counters.
    #[test]
    fn checkpoint_from_another_counter_schema_is_a_config_mismatch() {
        use crate::select::Synthesis;
        use wbist_circuits::s27;
        let c = s27::circuit();
        let t = s27::paper_test_sequence();
        let faults = FaultList::checkpoints(&c);
        let cfg = SynthesisConfig {
            sequence_length: 100,
            ..SynthesisConfig::default()
        };
        let path =
            std::env::temp_dir().join(format!("wbist-counter-schema-{}.ckpt", std::process::id()));
        Synthesis::new(&c, &t, &faults)
            .config(cfg.clone())
            .run_controlled(&RunControl::default().checkpoint(&path));
        let ckpt = Checkpoint::load(&path).expect("checkpoint written");
        std::fs::remove_file(&path).ok();
        // The stored hash is this build's, reproduced here; the same
        // run under the previous schema hashes differently.
        let no_flags = vec![false; faults.len()];
        let under =
            |schema| fold_flags(config_hash_under(schema, &c, &t, &faults, &cfg), &no_flags);
        assert_eq!(ckpt.config_hash, under(COUNTER_SCHEMA));
        let mut stale = ckpt.clone();
        stale.config_hash = under(COUNTER_SCHEMA - 1);
        let resume = |ck: Checkpoint| {
            Synthesis::new(&c, &t, &faults)
                .config(cfg.clone())
                .resume_from(ck)
                .map(|_| ())
        };
        match resume(stale.clone()) {
            Err(CheckpointError::ConfigMismatch { expected, found }) => {
                assert_eq!(expected, ckpt.config_hash);
                assert_eq!(found, stale.config_hash);
            }
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        assert!(resume(ckpt).is_ok(), "this build's checkpoint resumes");
    }

    #[test]
    fn outcome_accessors() {
        let c: Outcome<u32> = Outcome::Complete(3);
        assert!(!c.is_truncated());
        assert_eq!(c.truncation(), None);
        assert_eq!(*c.result(), 3);
        let t: Outcome<u32> = Outcome::Truncated {
            result: 4,
            reason: TruncationReason::WallClock,
        };
        assert!(t.is_truncated());
        assert_eq!(t.truncation(), Some(TruncationReason::WallClock));
        assert_eq!(t.map(|v| v + 1).into_result(), 5);
    }
}
