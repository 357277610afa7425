//! The line-delimited JSON wire protocol for `wbist serve`.
//!
//! One request per line in, one reply line per request out, plus
//! asynchronous `{"event":"job",...}` lines as jobs move through their
//! state machine (see `DESIGN.md` §16). The protocol is deliberately
//! flat — no framing beyond newlines, no batching — so a shell
//! heredoc, a named pipe, or `nc -U` can drive the daemon.
//!
//! Parsing is strict about types but lenient about unknown fields:
//! extra keys are ignored so clients can annotate requests for their
//! own bookkeeping.

use std::fmt;
use wbist_sim::Budget;
use wbist_telemetry::json::Json;

/// Maximum accepted request line, in bytes. Inline `.bench` sources
/// ride on the `register` op, so this is generous; anything larger is
/// rejected before parsing (a daemon must bound untrusted input).
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Where a registered circuit comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitSource {
    /// A named built-in benchmark (`s27`, `s1196`, `s5378`, …).
    Builtin(String),
    /// Inline `.bench` netlist text.
    Bench(String),
}

/// What kind of work a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Weighted-BIST synthesis (the paper's §4.2 selection loop).
    /// Checkpointable and therefore evictable.
    Synth,
    /// One-shot fault simulation of an explicit sequence. Short-lived;
    /// not checkpointable, so eviction cancels instead of preempting.
    Sim,
}

impl fmt::Display for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobKind::Synth => "synth",
            JobKind::Sim => "sim",
        })
    }
}

/// A parsed job submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Caller-chosen job id, unique per daemon lifetime. Restricted to
    /// `[A-Za-z0-9._-]` because it names the checkpoint file.
    pub id: String,
    /// Tenant name for fair scheduling (round-robin across tenants).
    pub tenant: String,
    /// What to run.
    pub kind: JobKind,
    /// Name of a previously registered circuit.
    pub circuit: String,
    /// Explicit input rows (`"0101"` per time unit). `Sim` jobs require
    /// them; `Synth` jobs default to a deterministic ATPG-derived `T`.
    pub rows: Option<Vec<String>>,
    /// Base seed for pseudo-random phases.
    pub seed: u64,
    /// `L_G` override for synth jobs (positive).
    pub lg: Option<usize>,
    /// Per-job resource budget; unlimited fields never trip.
    pub budget: Budget,
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Registers (parses + lowers) a circuit under a name.
    Register {
        /// Registry key referenced by later submits.
        name: String,
        /// Where the netlist comes from.
        source: CircuitSource,
    },
    /// Submits a job for scheduling.
    Submit(JobSpec),
    /// Queries one job's current state.
    Status {
        /// The job id.
        id: String,
    },
    /// Queries daemon-wide counters.
    Stats,
    /// Cancels a queued or running job.
    Cancel {
        /// The job id.
        id: String,
    },
    /// Evicts a running job to its checkpoint, requeueing it.
    Evict {
        /// The job id.
        id: String,
    },
    /// Arms a failpoint site (test builds only; an error otherwise).
    Failpoint {
        /// The site name.
        site: String,
        /// How many firings to arm.
        times: usize,
    },
    /// Begins a graceful drain and shutdown.
    Shutdown,
}

/// A protocol-level error: the request line itself is bad. Job-level
/// failures are reported through job events, not this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// What was wrong with the line.
    pub message: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtocolError {}

fn bad(message: impl Into<String>) -> ProtocolError {
    ProtocolError {
        message: message.into(),
    }
}

fn str_field(v: &Json, key: &str) -> Result<String, ProtocolError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(format!("missing or non-string field `{key}`")))
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, ProtocolError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("field `{key}` is not an unsigned integer"))),
    }
}

fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 128
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(bad(format!("request line exceeds {MAX_LINE_BYTES} bytes")));
    }
    let v = Json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    let op = str_field(&v, "op")?;
    match op.as_str() {
        "register" => {
            let name = str_field(&v, "name")?;
            if !valid_id(&name) {
                return Err(bad("`name` must match [A-Za-z0-9._-]{1,128}"));
            }
            let source = match (v.get("builtin"), v.get("bench")) {
                (Some(b), None) => CircuitSource::Builtin(
                    b.as_str()
                        .ok_or_else(|| bad("`builtin` must be a string"))?
                        .to_string(),
                ),
                (None, Some(b)) => CircuitSource::Bench(
                    b.as_str()
                        .ok_or_else(|| bad("`bench` must be a string"))?
                        .to_string(),
                ),
                _ => return Err(bad("register needs exactly one of `builtin` or `bench`")),
            };
            Ok(Request::Register { name, source })
        }
        "submit" => {
            let id = str_field(&v, "id")?;
            if !valid_id(&id) {
                return Err(bad("`id` must match [A-Za-z0-9._-]{1,128}"));
            }
            let kind = match str_field(&v, "kind")?.as_str() {
                "synth" => JobKind::Synth,
                "sim" => JobKind::Sim,
                other => return Err(bad(format!("unknown job kind `{other}`"))),
            };
            let rows = match v.get("rows") {
                None | Some(Json::Null) => None,
                Some(r) => Some(
                    r.as_array()
                        .ok_or_else(|| bad("`rows` must be an array of strings"))?
                        .iter()
                        .map(|row| {
                            row.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| bad("`rows` must be an array of strings"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                ),
            };
            if kind == JobKind::Sim && rows.is_none() {
                return Err(bad("sim jobs require `rows`"));
            }
            let lg = opt_u64(&v, "lg")?.map(|n| n as usize);
            if lg == Some(0) {
                return Err(bad("`lg` must be positive"));
            }
            let mut budget = Budget::default();
            if let Some(secs) = match v.get("wall_secs") {
                None | Some(Json::Null) => None,
                Some(x) => Some(
                    x.as_f64()
                        .ok_or_else(|| bad("`wall_secs` is not a number"))?,
                ),
            } {
                if secs.is_nan() || secs <= 0.0 {
                    return Err(bad("`wall_secs` must be positive"));
                }
                budget = budget.wall_secs(secs);
            }
            if let Some(fc) = opt_u64(&v, "fault_cycles")? {
                budget = budget.fault_cycles(fc);
            }
            if let Some(ma) = opt_u64(&v, "max_assignments")? {
                budget = budget.max_assignments(ma as usize);
            }
            Ok(Request::Submit(JobSpec {
                id,
                tenant: match v.get("tenant") {
                    None | Some(Json::Null) => "default".to_string(),
                    Some(t) => t
                        .as_str()
                        .ok_or_else(|| bad("`tenant` must be a string"))?
                        .to_string(),
                },
                kind,
                circuit: str_field(&v, "circuit")?,
                rows,
                seed: opt_u64(&v, "seed")?.unwrap_or(1),
                lg,
                budget,
            }))
        }
        "status" => Ok(Request::Status {
            id: str_field(&v, "id")?,
        }),
        "stats" => Ok(Request::Stats),
        "cancel" => Ok(Request::Cancel {
            id: str_field(&v, "id")?,
        }),
        "evict" => Ok(Request::Evict {
            id: str_field(&v, "id")?,
        }),
        "failpoint" => Ok(Request::Failpoint {
            site: str_field(&v, "site")?,
            times: opt_u64(&v, "times")?.unwrap_or(1) as usize,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(bad(format!("unknown op `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_parses_budget_and_defaults() {
        let req = parse_request(
            r#"{"op":"submit","id":"j1","kind":"synth","circuit":"s27","fault_cycles":5000,"wall_secs":1.5}"#,
        )
        .unwrap();
        let Request::Submit(spec) = req else {
            panic!("expected submit");
        };
        assert_eq!(spec.id, "j1");
        assert_eq!(spec.tenant, "default");
        assert_eq!(spec.kind, JobKind::Synth);
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.budget.fault_cycles, Some(5000));
        assert_eq!(spec.budget.wall_secs, Some(1.5));
        assert!(spec.budget.max_assignments.is_none());
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for bad_line in [
            "not json",
            r#"{"no_op":1}"#,
            r#"{"op":"submit","id":"has space","kind":"synth","circuit":"c"}"#,
            r#"{"op":"submit","id":"j","kind":"warp","circuit":"c"}"#,
            r#"{"op":"submit","id":"j","kind":"sim","circuit":"c"}"#,
            r#"{"op":"submit","id":"j","kind":"synth","circuit":"c","lg":0}"#,
            r#"{"op":"submit","id":"j","kind":"synth","circuit":"c","wall_secs":0}"#,
            r#"{"op":"submit","id":"j","kind":"synth","circuit":"c","wall_secs":-0}"#,
            r#"{"op":"submit","id":"j","kind":"synth","circuit":"c","wall_secs":-2.5}"#,
            r#"{"op":"submit","id":"j","kind":"synth","circuit":"c","wall_secs":-1e999}"#,
            r#"{"op":"register","name":"c"}"#,
            r#"{"op":"register","name":"c","builtin":"s27","bench":"x"}"#,
            r#"{"op":"nope"}"#,
        ] {
            let err = parse_request(bad_line).expect_err(bad_line);
            assert!(!err.message.is_empty());
        }
    }

    #[test]
    fn ids_reject_path_traversal() {
        assert!(!valid_id("../etc/passwd"));
        assert!(!valid_id("a/b"));
        assert!(!valid_id(""));
        assert!(valid_id("job-1.retry_2"));
    }

    #[test]
    fn oversized_lines_are_rejected_before_parsing() {
        let line = format!(
            r#"{{"op":"register","name":"c","bench":"{}"}}"#,
            "x".repeat(MAX_LINE_BYTES)
        );
        let err = parse_request(&line).unwrap_err();
        assert!(err.message.contains("exceeds"));
    }
}
