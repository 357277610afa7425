//! End-to-end daemon resilience: the `wbist serve` invariants exercised
//! in-process against real synthesis jobs.
//!
//! The centerpiece is the eviction round-trip proof: a job preempted
//! mid-run to its `wbist-ckpt/v1` checkpoint and transparently resumed
//! commits a result **bit-identical** to an uninterrupted run — same
//! `Ω`, same detection flags, same deterministic telemetry counters —
//! extending the `tests/interrupt_resume.rs` guarantee across daemon
//! scheduling. The failpoint-driven chaos tests (panic retry, retry
//! exhaustion) ride in the same binary under the shared registry guard.

mod common;

use common::failpoints_serialized;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wbist::serve::{Flow, ServeConfig, Server};
use wbist::telemetry::json::Json;
use wbist::telemetry::Telemetry;

/// A `Write` sink the test can inspect: every daemon event line lands
/// here.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn server_with(cfg: ServeConfig) -> (Arc<Server>, SharedBuf, Vec<std::thread::JoinHandle<()>>) {
    let buf = SharedBuf::default();
    let server = Server::new(cfg, Box::new(buf.clone()));
    let workers = server.start();
    (server, buf, workers)
}

fn ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

fn must(server: &Server, line: &str) -> Json {
    let (reply, flow) = server.handle_line(line);
    assert_eq!(flow, Flow::Continue, "{line}");
    assert!(ok(&reply), "{line} -> {}", reply.render());
    reply
}

fn job_state(server: &Server, id: &str) -> String {
    server
        .job_snapshot(id)
        .and_then(|s| s.get("state").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| "missing".to_string())
}

fn wait_for(server: &Server, id: &str, state: &str, timeout: Duration) -> Json {
    let start = Instant::now();
    loop {
        let snapshot = server.job_snapshot(id).expect("job exists");
        if snapshot.get("state").and_then(Json::as_str) == Some(state) {
            return snapshot;
        }
        assert!(
            start.elapsed() < timeout,
            "job `{id}` stuck: wanted `{state}`, have {}",
            snapshot.render()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

const LONG: Duration = Duration::from_secs(120);

fn submit_synth(server: &Server, id: &str, tenant: &str, circuit: &str) {
    must(
        server,
        &format!(
            r#"{{"op":"submit","id":"{id}","tenant":"{tenant}","kind":"synth","circuit":"{circuit}"}}"#
        ),
    );
}

/// The eviction round-trip proof. A reference daemon runs the job
/// uninterrupted; a second daemon with an aggressive preemption slice
/// evicts the same job mid-run as soon as a competing tenant submits,
/// runs the competitor, then transparently resumes from the checkpoint.
/// The committed result payloads — `Ω`, detection counts, and the
/// job-level deterministic counters — must be byte-identical.
#[test]
fn evicted_job_resumes_bit_identically() {
    let _guard = failpoints_serialized();
    let ref_dir = common::scratch_dir("serve-evict-ref");
    // A checkpoint left by an earlier run would make the reference a
    // resumed run too.
    std::fs::remove_file(ref_dir.join("job-a.ckpt")).ok();
    let (ref_server, _, ref_workers) = server_with(ServeConfig {
        ckpt_dir: Some(ref_dir),
        ..ServeConfig::default()
    });
    must(
        &ref_server,
        r#"{"op":"register","name":"big","builtin":"s1196"}"#,
    );
    submit_synth(&ref_server, "job-a", "alice", "big");
    let reference = wait_for(&ref_server, "job-a", "done", LONG);
    ref_server.finish(ref_workers);
    let ref_result = reference.get("result").expect("committed result").clone();

    let evict_dir = common::scratch_dir("serve-evict-run");
    std::fs::remove_file(evict_dir.join("job-a.ckpt")).ok();
    let (server, _, workers) = server_with(ServeConfig {
        evict_after_ms: Some(0),
        ckpt_dir: Some(evict_dir.clone()),
        ..ServeConfig::default()
    });
    must(
        &server,
        r#"{"op":"register","name":"big","builtin":"s1196"}"#,
    );
    must(
        &server,
        r#"{"op":"register","name":"small","builtin":"s298"}"#,
    );
    submit_synth(&server, "job-a", "alice", "big");
    wait_for(&server, "job-a", "running", LONG);
    // A competing tenant arrives; the zero-length slice preempts job-a
    // to its checkpoint immediately.
    submit_synth(&server, "job-b", "bob", "small");
    let b = wait_for(&server, "job-b", "done", LONG);
    assert!(b.get("result").is_some());
    let resumed = wait_for(&server, "job-a", "done", LONG);
    server.finish(workers);

    assert!(
        resumed.get("evictions").and_then(Json::as_u64).unwrap() >= 1,
        "job-a must actually have been evicted: {}",
        resumed.render()
    );
    assert_eq!(
        resumed.get("resumed").and_then(Json::as_bool),
        Some(true),
        "job-a must have resumed from its checkpoint"
    );
    assert!(
        evict_dir.join("job-a.ckpt").exists(),
        "the checkpoint file backs the eviction"
    );
    let got = resumed.get("result").expect("committed result");
    assert_eq!(
        got.render(),
        ref_result.render(),
        "evicted+resumed result must be bit-identical to the uninterrupted run"
    );
}

/// Graceful shutdown drains a running job to its checkpoint (terminal
/// `evicted`, summary `truncated`); a fresh daemon sharing the
/// checkpoint directory transparently resumes it to the bit-identical
/// result.
#[test]
fn shutdown_drains_to_checkpoint_and_a_restart_resumes() {
    let _guard = failpoints_serialized();
    let ref_dir = common::scratch_dir("serve-drain-ref");
    std::fs::remove_file(ref_dir.join("job-r.ckpt")).ok();
    let (ref_server, _, ref_workers) = server_with(ServeConfig {
        ckpt_dir: Some(ref_dir),
        ..ServeConfig::default()
    });
    must(
        &ref_server,
        r#"{"op":"register","name":"c","builtin":"s298"}"#,
    );
    submit_synth(&ref_server, "job-r", "t", "c");
    let reference = wait_for(&ref_server, "job-r", "done", LONG);
    ref_server.finish(ref_workers);

    let dir = common::scratch_dir("serve-drain");
    std::fs::remove_file(dir.join("job-r.ckpt")).ok();
    let (first, _, first_workers) = server_with(ServeConfig {
        ckpt_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    must(&first, r#"{"op":"register","name":"c","builtin":"s298"}"#);
    submit_synth(&first, "job-r", "t", "c");
    wait_for(&first, "job-r", "running", LONG);
    let summary = first.finish(first_workers);
    assert!(summary.truncated, "drained mid-run must report truncation");
    assert_eq!(summary.evicted_at_shutdown, 1);
    assert_eq!(job_state(&first, "job-r"), "evicted");
    assert!(dir.join("job-r.ckpt").exists());

    // A new daemon lifetime, same checkpoint directory: resubmitting
    // the job picks the checkpoint up transparently.
    let (second, _, second_workers) = server_with(ServeConfig {
        ckpt_dir: Some(dir),
        ..ServeConfig::default()
    });
    must(&second, r#"{"op":"register","name":"c","builtin":"s298"}"#);
    submit_synth(&second, "job-r", "t", "c");
    let resumed = wait_for(&second, "job-r", "done", LONG);
    second.finish(second_workers);
    assert_eq!(resumed.get("resumed").and_then(Json::as_bool), Some(true));
    assert_eq!(
        resumed.get("result").unwrap().render(),
        reference.get("result").unwrap().render(),
        "restart-resumed result must be bit-identical"
    );
}

/// A tripped per-job budget is a *distinct* terminal state (`timeout`,
/// not `failed`), carrying the truncation reason and a valid partial
/// result.
#[test]
fn budget_timeout_is_a_distinct_terminal_state() {
    let _guard = failpoints_serialized();
    let tel = Telemetry::enabled();
    let (server, _, workers) = server_with(ServeConfig {
        telemetry: tel.clone(),
        ..ServeConfig::default()
    });
    must(
        &server,
        r#"{"op":"register","name":"big","builtin":"s1196"}"#,
    );
    must(
        &server,
        r#"{"op":"submit","id":"slow","kind":"synth","circuit":"big","fault_cycles":5000}"#,
    );
    let snapshot = wait_for(&server, "slow", "timeout", LONG);
    server.finish(workers);
    let reason = snapshot
        .get("truncation")
        .and_then(Json::as_str)
        .expect("timeout carries its truncation reason");
    assert!(reason.contains("fault"), "got `{reason}`");
    assert!(
        snapshot.get("result").is_some(),
        "a timed-out job still commits its valid partial result"
    );
    assert_eq!(tel.counter("serve.jobs_timeout"), 1);
    assert_eq!(tel.counter("serve.jobs_failed"), 0);
}

/// Admission control: once the queue is full, fresh submissions are
/// shed with a structured rejection (`shed`, `depth`,
/// `retry_after_ms`), committed work is untouched, and the same id can
/// be resubmitted once the queue drains.
#[test]
fn admission_control_sheds_load_with_retry_after() {
    let _guard = failpoints_serialized();
    let tel = Telemetry::enabled();
    let (server, _, workers) = server_with(ServeConfig {
        max_queue: 2,
        telemetry: tel.clone(),
        ..ServeConfig::default()
    });
    must(
        &server,
        r#"{"op":"register","name":"big","builtin":"s1196"}"#,
    );
    submit_synth(&server, "hog", "t", "big");
    wait_for(&server, "hog", "running", LONG);
    submit_synth(&server, "q1", "t", "big");
    submit_synth(&server, "q2", "t", "big");
    let (reply, _) =
        server.handle_line(r#"{"op":"submit","id":"q3","kind":"synth","circuit":"big"}"#);
    assert!(!ok(&reply), "third queued submit must be shed");
    assert_eq!(reply.get("shed").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("depth").and_then(Json::as_u64), Some(2));
    assert!(reply.get("retry_after_ms").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(tel.counter("serve.jobs_shed"), 1);
    // The shed id is free again: cancel a queued job and resubmit it.
    must(&server, r#"{"op":"cancel","id":"q2"}"#);
    must(
        &server,
        r#"{"op":"submit","id":"q3","kind":"synth","circuit":"big"}"#,
    );
    must(&server, r#"{"op":"cancel","id":"q1"}"#);
    must(&server, r#"{"op":"cancel","id":"q3"}"#);
    must(&server, r#"{"op":"cancel","id":"hog"}"#);
    wait_for(&server, "hog", "cancelled", LONG);
    let summary = server.finish(workers);
    assert!(!summary.truncated, "nothing was left resumable");
}

/// Chaos: a failpoint-injected panic in the job body is isolated by
/// `catch_unwind`, retried with backoff, and the retry succeeds — the
/// daemon never dies and other jobs are unaffected.
#[cfg(feature = "failpoints")]
#[test]
fn panicking_job_retries_and_succeeds() {
    use wbist::telemetry::failpoint;
    let _guard = failpoints_serialized();
    let tel = Telemetry::enabled();
    let (server, buf, workers) = server_with(ServeConfig {
        telemetry: tel.clone(),
        retry_backoff_ms: 1,
        ..ServeConfig::default()
    });
    must(&server, r#"{"op":"register","name":"c","builtin":"s298"}"#);
    failpoint::arm("serve.job_run", 1);
    submit_synth(&server, "flaky", "t", "c");
    let snapshot = wait_for(&server, "flaky", "done", LONG);
    server.finish(workers);
    failpoint::reset();
    assert_eq!(snapshot.get("retries").and_then(Json::as_u64), Some(1));
    assert_eq!(tel.counter("serve.jobs_retried"), 1);
    assert_eq!(tel.counter("serve.jobs_done"), 1);
    assert!(buf.text().contains(r#""state":"retried""#));
}

/// Chaos: a panic while an attempt arms its budget token is isolated
/// like a body panic. One panic is retried and the job completes; a
/// storm fails the job; and the worker survives both, so the next job
/// runs to `done` on the daemon's only worker.
#[cfg(feature = "failpoints")]
#[test]
fn panic_while_arming_retries_or_fails_the_job() {
    use wbist::telemetry::failpoint;
    let _guard = failpoints_serialized();
    let tel = Telemetry::enabled();
    let (server, _, workers) = server_with(ServeConfig {
        telemetry: tel.clone(),
        workers: 1,
        retry_max: 1,
        retry_backoff_ms: 1,
        ..ServeConfig::default()
    });
    must(&server, r#"{"op":"register","name":"c","builtin":"s27"}"#);
    failpoint::arm("serve.job_arm", 1);
    submit_synth(&server, "flaky", "t", "c");
    let snapshot = wait_for(&server, "flaky", "done", LONG);
    assert_eq!(snapshot.get("retries").and_then(Json::as_u64), Some(1));
    failpoint::arm("serve.job_arm", 100);
    submit_synth(&server, "doomed", "t", "c");
    let snapshot = wait_for(&server, "doomed", "failed", LONG);
    failpoint::reset();
    assert!(
        snapshot
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("panicked"),
        "{}",
        snapshot.render()
    );
    submit_synth(&server, "after", "t", "c");
    wait_for(&server, "after", "done", LONG);
    server.finish(workers);
    assert_eq!(tel.counter("serve.job_panics"), 3);
    assert_eq!(tel.counter("serve.jobs_done"), 2);
    assert_eq!(tel.counter("serve.jobs_failed"), 1);
}

/// Chaos: a panic storm exhausting the retry budget lands the job in
/// `failed` — and the daemon keeps serving other jobs afterwards.
#[cfg(feature = "failpoints")]
#[test]
fn panic_storm_exhausts_retries_into_failed() {
    use wbist::telemetry::failpoint;
    let _guard = failpoints_serialized();
    let tel = Telemetry::enabled();
    let (server, _, workers) = server_with(ServeConfig {
        telemetry: tel.clone(),
        retry_max: 2,
        retry_backoff_ms: 1,
        ..ServeConfig::default()
    });
    must(&server, r#"{"op":"register","name":"c","builtin":"s298"}"#);
    failpoint::arm("serve.job_run", 100);
    submit_synth(&server, "doomed", "t", "c");
    let snapshot = wait_for(&server, "doomed", "failed", LONG);
    failpoint::reset();
    assert!(
        snapshot
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("panicked"),
        "{}",
        snapshot.render()
    );
    assert_eq!(snapshot.get("retries").and_then(Json::as_u64), Some(2));
    assert_eq!(tel.counter("serve.jobs_failed"), 1);
    // The daemon survived the storm: the next job completes normally.
    submit_synth(&server, "after", "t", "c");
    wait_for(&server, "after", "done", LONG);
    server.finish(workers);
}

/// Chaos: a corrupted checkpoint at resume time degrades gracefully —
/// the daemon surfaces a `checkpoint-rejected` event, bumps the
/// counter, and re-runs the job fresh instead of failing it or
/// trusting damaged state.
#[test]
fn corrupt_checkpoint_degrades_to_fresh_run() {
    let _guard = failpoints_serialized();
    let dir = common::scratch_dir("serve-corrupt-ckpt");
    let path = dir.join("victim.ckpt");
    std::fs::write(&path, "{ definitely not a checkpoint").unwrap();
    let tel = Telemetry::enabled();
    let (server, buf, workers) = server_with(ServeConfig {
        ckpt_dir: Some(dir),
        telemetry: tel.clone(),
        ..ServeConfig::default()
    });
    must(&server, r#"{"op":"register","name":"c","builtin":"s298"}"#);
    submit_synth(&server, "victim", "t", "c");
    let snapshot = wait_for(&server, "victim", "done", LONG);
    server.finish(workers);
    assert_eq!(
        snapshot.get("resumed").and_then(Json::as_bool),
        Some(false),
        "a rejected checkpoint must not count as a resume"
    );
    assert_eq!(tel.counter("serve.checkpoints_rejected"), 1);
    assert!(buf.text().contains("checkpoint-rejected"));
}

/// Hostile input: `"lg": 0` is refused at the protocol layer — no job
/// is created, so nothing can reach the library's `L_G > 0` assert.
#[test]
fn zero_lg_submit_is_a_protocol_error() {
    let _guard = failpoints_serialized();
    let tel = Telemetry::enabled();
    let (server, _, workers) = server_with(ServeConfig {
        telemetry: tel.clone(),
        ..ServeConfig::default()
    });
    must(&server, r#"{"op":"register","name":"c","builtin":"s27"}"#);
    let (reply, flow) =
        server.handle_line(r#"{"op":"submit","id":"zero","kind":"synth","circuit":"c","lg":0}"#);
    assert_eq!(flow, Flow::Continue);
    assert!(!ok(&reply), "lg 0 must be rejected: {}", reply.render());
    assert!(server.job_snapshot("zero").is_none(), "no job was created");
    server.finish(workers);
    assert_eq!(tel.counter("serve.job_panics"), 0);
    assert_eq!(tel.counter("serve.jobs_retried"), 0);
}

/// Hostile input: rows whose width differs from the circuit's input
/// count fail the job once with a message — for sim and synth jobs
/// alike — instead of panicking inside the simulator and being retried.
#[test]
fn wrong_width_rows_fail_once_without_panic() {
    let _guard = failpoints_serialized();
    let tel = Telemetry::enabled();
    let (server, _, workers) = server_with(ServeConfig {
        telemetry: tel.clone(),
        retry_backoff_ms: 1,
        ..ServeConfig::default()
    });
    must(&server, r#"{"op":"register","name":"c","builtin":"s27"}"#);
    for (id, kind) in [("narrow-sim", "sim"), ("narrow-synth", "synth")] {
        must(
            &server,
            &format!(
                r#"{{"op":"submit","id":"{id}","kind":"{kind}","circuit":"c","rows":["01","10"]}}"#
            ),
        );
        let snapshot = wait_for(&server, id, "failed", LONG);
        let error = snapshot.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("inputs"), "{id}: {error}");
        assert_eq!(snapshot.get("retries").and_then(Json::as_u64), Some(0));
    }
    server.finish(workers);
    assert_eq!(tel.counter("serve.jobs_failed"), 2);
    assert_eq!(tel.counter("serve.job_panics"), 0);
    assert_eq!(tel.counter("serve.jobs_retried"), 0);
}
