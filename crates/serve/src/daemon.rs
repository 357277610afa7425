//! The `wbist serve` daemon: workers, preemption, drain, signals.
//!
//! A [`Server`] owns the circuit [`Registry`] and the fair
//! [`Scheduler`], plus the job
//! table. Worker threads pop job ids from the scheduler and execute
//! them under per-job cancel tokens with panic isolation; the request
//! loop ([`serve`]) feeds lines from stdin (or a Unix socket) into
//! [`Server::handle_line`] and polls the SIGTERM flag between lines.
//!
//! The resilience invariants (checked by `tests/serve_e2e.rs` and the
//! `serve-resilience` CI job):
//!
//! * a job preempted to its `wbist-ckpt/v1` checkpoint and resumed
//!   later commits a result bit-identical to an uninterrupted run;
//! * a panicking job never takes the daemon down — it is retried with
//!   backoff up to the retry budget, then marked `failed`;
//! * admission control sheds fresh submissions with a structured
//!   `retry_after_ms` rejection instead of queueing without bound;
//! * SIGTERM (or `{"op":"shutdown"}`) drains running jobs to their
//!   checkpoints and exits 0, or 2 when work was left resumable.

use crate::job::{JobRecord, JobState};
use crate::protocol::{self, JobKind, JobSpec, Request};
use crate::registry::Registry;
use crate::scheduler::Scheduler;
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use wbist_core::{
    run_synthesis_job, Outcome, ResumePolicy, RunControl, SynthesisConfig, SynthesisResult,
};
use wbist_netlist::{Circuit, FaultList};
use wbist_sim::{CancelToken, FaultSim, RunOptions, SimError, TestSequence, TruncationReason};
use wbist_telemetry::json::Json;
use wbist_telemetry::{failpoint, Telemetry};

/// A job preempted this many times is immune to further *automatic*
/// preemption — a livelock guard so a long job eventually finishes even
/// under constant queue pressure. Explicit `evict` requests still work.
const EVICTION_CAP: u32 = 8;

/// Upper bound on the exponential retry backoff.
const MAX_BACKOFF_MS: u64 = 250;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Simulator threads per job (`SimOptions` thread count).
    pub job_threads: usize,
    /// Queue depth beyond which fresh submissions are shed.
    pub max_queue: usize,
    /// Transient-failure retries per job before `failed`.
    pub retry_max: u32,
    /// Base backoff before a retry re-queues (doubles per retry, capped
    /// at 250 ms).
    pub retry_backoff_ms: u64,
    /// Preempt a running evictable job once it has held a worker this
    /// long while other work queues. `None` disables auto-preemption
    /// (explicit `evict` requests still work).
    pub evict_after_ms: Option<u64>,
    /// Directory for `<job-id>.ckpt` checkpoint files. `None` disables
    /// checkpointing — synth jobs then run non-evictable.
    pub ckpt_dir: Option<PathBuf>,
    /// Whether [`serve`] installs a SIGTERM handler (tests pass false).
    pub handle_signals: bool,
    /// Daemon-wide telemetry; `serve.*` counters land here.
    pub telemetry: Telemetry,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            job_threads: 1,
            max_queue: 16,
            retry_max: 2,
            retry_backoff_ms: 10,
            evict_after_ms: None,
            ckpt_dir: None,
            handle_signals: false,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// What the request loop should do after a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep reading requests.
    Continue,
    /// Begin the graceful drain.
    Shutdown,
}

/// How a [`serve`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExitSummary {
    /// Attempts that entered `Running` over the daemon's lifetime.
    pub attempts: u64,
    /// Jobs drained to a checkpoint at shutdown (terminal `evicted`).
    pub evicted_at_shutdown: u64,
    /// Jobs still queued (never started) when the daemon stopped.
    pub left_queued: u64,
    /// `true` when resumable work was left behind — the daemon's
    /// "valid partial output" condition, reported as exit code 2.
    pub truncated: bool,
}

/// The daemon state shared by the request loop and the workers.
pub struct Server {
    cfg: ServeConfig,
    registry: Registry,
    sched: Scheduler,
    jobs: Mutex<BTreeMap<String, Arc<Mutex<JobRecord>>>>,
    out: Mutex<Box<dyn Write + Send>>,
    tel: Telemetry,
    running: AtomicU64,
    attempts: AtomicU64,
    draining: AtomicBool,
}

impl Server {
    /// A new daemon writing events to `out`.
    pub fn new(cfg: ServeConfig, out: Box<dyn Write + Send>) -> Arc<Server> {
        let tel = cfg.telemetry.clone();
        let max_queue = cfg.max_queue;
        Arc::new(Server {
            cfg,
            registry: Registry::new(),
            sched: Scheduler::new(max_queue),
            jobs: Mutex::new(BTreeMap::new()),
            out: Mutex::new(out),
            tel,
            running: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        })
    }

    /// Spawns the worker threads.
    pub fn start(self: &Arc<Server>) -> Vec<thread::JoinHandle<()>> {
        (0..self.cfg.workers.max(1))
            .map(|i| {
                let server = Arc::clone(self);
                thread::Builder::new()
                    .name(format!("wbist-serve-worker-{i}"))
                    .spawn(move || server.worker_loop())
                    .expect("spawn worker")
            })
            .collect()
    }

    fn job(&self, id: &str) -> Option<Arc<Mutex<JobRecord>>> {
        self.jobs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(id)
            .cloned()
    }

    /// Test/observability hook: a job's current status payload.
    pub fn job_snapshot(&self, id: &str) -> Option<Json> {
        self.job(id)
            .map(|rec| rec.lock().unwrap_or_else(|p| p.into_inner()).status_json())
    }

    /// Current queued depth (jobs waiting for a worker).
    pub fn queue_depth(&self) -> usize {
        self.sched.depth()
    }

    fn emit(&self, line: &Json) {
        let mut out = self.out.lock().unwrap_or_else(|p| p.into_inner());
        let _ = writeln!(out, "{}", line.render());
        let _ = out.flush();
    }

    fn emit_job_event(&self, id: &str, state: &str, extra: Vec<(&str, Json)>) {
        let mut fields = vec![
            ("event", Json::Str("job".to_string())),
            ("id", Json::Str(id.to_string())),
            ("state", Json::Str(state.to_string())),
        ];
        fields.extend(extra);
        self.emit(&Json::obj(fields));
    }

    fn reply_ok(op: &str, extra: Vec<(&str, Json)>) -> Json {
        let mut fields = vec![
            ("reply", Json::Str(op.to_string())),
            ("ok", Json::Bool(true)),
        ];
        fields.extend(extra);
        Json::obj(fields)
    }

    fn reply_err(op: &str, message: impl Into<String>, extra: Vec<(&str, Json)>) -> Json {
        let mut fields = vec![
            ("reply", Json::Str(op.to_string())),
            ("ok", Json::Bool(false)),
            ("error", Json::Str(message.into())),
        ];
        fields.extend(extra);
        Json::obj(fields)
    }

    /// Handles one request line, returning the reply to send back and
    /// whether the daemon should begin draining.
    pub fn handle_line(&self, line: &str) -> (Json, Flow) {
        let line = line.trim();
        if line.is_empty() {
            return (Self::reply_ok("noop", vec![]), Flow::Continue);
        }
        let request = match protocol::parse_request(line) {
            Ok(r) => r,
            Err(e) => return (Self::reply_err("parse", e.message, vec![]), Flow::Continue),
        };
        match request {
            Request::Register { name, source } => match self.registry.register(&name, &source) {
                Ok(()) => (
                    Self::reply_ok("register", vec![("name", Json::Str(name))]),
                    Flow::Continue,
                ),
                Err(e) => (
                    Self::reply_err("register", e.to_string(), vec![]),
                    Flow::Continue,
                ),
            },
            Request::Submit(spec) => (self.submit(spec), Flow::Continue),
            Request::Status { id } => match self.job_snapshot(&id) {
                Some(status) => (
                    Self::reply_ok("status", vec![("job", status)]),
                    Flow::Continue,
                ),
                None => (
                    Self::reply_err("status", format!("unknown job `{id}`"), vec![]),
                    Flow::Continue,
                ),
            },
            Request::Stats => (self.stats(), Flow::Continue),
            Request::Cancel { id } => (self.cancel(&id), Flow::Continue),
            Request::Evict { id } => (self.evict(&id), Flow::Continue),
            Request::Failpoint { site, times } => {
                if cfg!(feature = "failpoints") {
                    failpoint::arm(&site, times);
                    (
                        Self::reply_ok("failpoint", vec![("site", Json::Str(site))]),
                        Flow::Continue,
                    )
                } else {
                    (
                        Self::reply_err(
                            "failpoint",
                            "failpoints are not compiled into this build",
                            vec![],
                        ),
                        Flow::Continue,
                    )
                }
            }
            Request::Shutdown => (Self::reply_ok("shutdown", vec![]), Flow::Shutdown),
        }
    }

    fn submit(&self, spec: JobSpec) -> Json {
        if self.draining.load(Ordering::SeqCst) {
            return Self::reply_err("submit", "daemon is draining", vec![]);
        }
        if self.registry.get(&spec.circuit).is_none() {
            return Self::reply_err(
                "submit",
                format!("circuit `{}` is not registered", spec.circuit),
                vec![],
            );
        }
        let id = spec.id.clone();
        let tenant = spec.tenant.clone();
        {
            let mut jobs = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
            if jobs.contains_key(&id) {
                return Self::reply_err("submit", format!("job `{id}` already exists"), vec![]);
            }
            jobs.insert(id.clone(), Arc::new(Mutex::new(JobRecord::new(spec))));
        }
        // Emitted before the scheduler insert so the event stream is
        // ordered: a worker cannot emit `running` until the insert.
        self.emit_job_event(&id, "queued", vec![]);
        match self.sched.submit(&tenant, &id) {
            Ok(()) => {
                self.tel.add("serve.jobs_submitted", 1);
                self.maybe_preempt();
                Self::reply_ok("submit", vec![("id", Json::Str(id))])
            }
            Err(depth) => {
                // Shed: drop the record so the id can be resubmitted.
                self.jobs
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .remove(&id);
                self.tel.add("serve.jobs_shed", 1);
                self.emit_job_event(&id, "shed", vec![]);
                // Deterministic hint: one base backoff per queued job.
                let retry_after = self.cfg.retry_backoff_ms.max(1) * depth as u64;
                Self::reply_err(
                    "submit",
                    "queue full, job shed",
                    vec![
                        ("shed", Json::Bool(true)),
                        ("depth", Json::UInt(depth as u64)),
                        ("retry_after_ms", Json::UInt(retry_after)),
                    ],
                )
            }
        }
    }

    fn stats(&self) -> Json {
        let counters = Json::Object(
            self.tel
                .counters()
                .into_iter()
                .map(|(k, v)| (k, Json::UInt(v)))
                .collect(),
        );
        Self::reply_ok(
            "stats",
            vec![
                ("queued", Json::UInt(self.sched.depth() as u64)),
                ("running", Json::UInt(self.running.load(Ordering::SeqCst))),
                (
                    "circuits",
                    Json::Array(self.registry.names().into_iter().map(Json::Str).collect()),
                ),
                ("counters", counters),
            ],
        )
    }

    fn cancel(&self, id: &str) -> Json {
        let Some(rec) = self.job(id) else {
            return Self::reply_err("cancel", format!("unknown job `{id}`"), vec![]);
        };
        let mut rec = rec.lock().unwrap_or_else(|p| p.into_inner());
        match rec.state {
            JobState::Queued => {
                if self.sched.remove(&rec.spec.tenant, id) {
                    rec.state = JobState::Cancelled;
                    self.tel.add("serve.jobs_cancelled", 1);
                    drop(rec);
                    self.emit_job_event(id, "cancelled", vec![]);
                    Self::reply_ok("cancel", vec![])
                } else {
                    // The worker popped it between our state read and
                    // the queue removal but has not locked the record
                    // yet; flipping the state makes it skip the attempt.
                    rec.state = JobState::Cancelled;
                    self.tel.add("serve.jobs_cancelled", 1);
                    drop(rec);
                    self.emit_job_event(id, "cancelled", vec![]);
                    Self::reply_ok("cancel", vec![])
                }
            }
            JobState::Running => {
                rec.cancel.cancel(TruncationReason::Cancelled);
                Self::reply_ok("cancel", vec![("cancelling", Json::Bool(true))])
            }
            terminal => Self::reply_err(
                "cancel",
                format!("job `{id}` is already {terminal}"),
                vec![],
            ),
        }
    }

    fn evict(&self, id: &str) -> Json {
        let Some(rec) = self.job(id) else {
            return Self::reply_err("evict", format!("unknown job `{id}`"), vec![]);
        };
        let rec = rec.lock().unwrap_or_else(|p| p.into_inner());
        if rec.state != JobState::Running {
            return Self::reply_err("evict", format!("job `{id}` is not running"), vec![]);
        }
        if !self.evictable(&rec.spec) {
            return Self::reply_err(
                "evict",
                format!("job `{id}` is not evictable (no checkpoint)"),
                vec![],
            );
        }
        rec.cancel.cancel(TruncationReason::Preempted);
        Self::reply_ok("evict", vec![("evicting", Json::Bool(true))])
    }

    /// Whether a job can be preempted to a checkpoint and resumed.
    fn evictable(&self, spec: &JobSpec) -> bool {
        spec.kind == JobKind::Synth && self.cfg.ckpt_dir.is_some()
    }

    /// Preempts the longest-running evictable job when every worker is
    /// busy, work is queued, and the job has exceeded its slice.
    pub fn maybe_preempt(&self) {
        let Some(slice_ms) = self.cfg.evict_after_ms else {
            return;
        };
        if self.sched.depth() == 0
            || self.running.load(Ordering::SeqCst) < self.cfg.workers.max(1) as u64
        {
            return;
        }
        let jobs: Vec<Arc<Mutex<JobRecord>>> = self
            .jobs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .cloned()
            .collect();
        let slice = Duration::from_millis(slice_ms);
        let mut victim: Option<(Duration, Arc<Mutex<JobRecord>>)> = None;
        for rec_arc in jobs {
            let rec = rec_arc.lock().unwrap_or_else(|p| p.into_inner());
            if rec.state != JobState::Running
                || !self.evictable(&rec.spec)
                || rec.evictions >= EVICTION_CAP
                || rec.cancel.cancelled().is_some()
            {
                continue;
            }
            let Some(elapsed) = rec.started.map(|s| s.elapsed()) else {
                continue;
            };
            if elapsed < slice {
                continue;
            }
            drop(rec);
            if victim.as_ref().is_none_or(|(best, _)| elapsed > *best) {
                victim = Some((elapsed, rec_arc));
            }
        }
        if let Some((_, rec)) = victim {
            rec.lock()
                .unwrap_or_else(|p| p.into_inner())
                .cancel
                .cancel(TruncationReason::Preempted);
        }
    }

    fn worker_loop(self: Arc<Server>) {
        while let Some(id) = self.sched.next() {
            self.run_job(&id);
        }
    }

    fn ckpt_path(&self, id: &str) -> Option<PathBuf> {
        self.cfg
            .ckpt_dir
            .as_ref()
            .map(|d| d.join(format!("{id}.ckpt")))
    }

    fn run_job(&self, id: &str) {
        let Some(rec_arc) = self.job(id) else {
            return;
        };
        // Arm this attempt. Arming runs under `catch_unwind` like the
        // body, so a panic there retries or fails the job instead of
        // killing the worker with the job left `running`.
        let (spec, armed) = {
            let mut rec = rec_arc.lock().unwrap_or_else(|p| p.into_inner());
            if rec.state != JobState::Queued {
                return; // cancelled while queued
            }
            rec.state = JobState::Running;
            rec.attempts += 1;
            rec.started = Some(Instant::now());
            let armed = catch_unwind(AssertUnwindSafe(|| {
                failpoint::panic_if_armed("serve.job_arm");
                CancelToken::for_budget(&rec.spec.budget)
            }));
            if let Ok(token) = &armed {
                rec.cancel = token.clone();
            }
            (rec.spec.clone(), armed)
        };
        self.running.fetch_add(1, Ordering::SeqCst);
        self.attempts.fetch_add(1, Ordering::SeqCst);
        self.emit_job_event(id, "running", vec![]);

        let outcome =
            armed.and_then(|token| catch_unwind(AssertUnwindSafe(|| self.job_body(&spec, &token))));
        self.running.fetch_sub(1, Ordering::SeqCst);

        match outcome {
            Ok(Ok((result, truncation, resumed))) => {
                self.commit(id, &rec_arc, result, truncation, resumed)
            }
            Ok(Err(message)) => {
                // Typed job failure (bad rows, unrecoverable checkpoint):
                // no retry, the input will not get better.
                self.finish_failed(id, &rec_arc, message);
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                self.tel.add("serve.job_panics", 1);
                let retry = {
                    let mut rec = rec_arc.lock().unwrap_or_else(|p| p.into_inner());
                    if !self.draining.load(Ordering::SeqCst) && rec.retries < self.cfg.retry_max {
                        rec.retries += 1;
                        rec.state = JobState::Queued;
                        Some(rec.retries)
                    } else {
                        None
                    }
                };
                match retry {
                    Some(nth) => {
                        self.tel.add("serve.jobs_retried", 1);
                        self.emit_job_event(
                            id,
                            "retried",
                            vec![
                                ("attempt", Json::UInt(nth as u64)),
                                ("panic", Json::Str(message)),
                            ],
                        );
                        let backoff =
                            (self.cfg.retry_backoff_ms << (nth - 1).min(8)).min(MAX_BACKOFF_MS);
                        thread::sleep(Duration::from_millis(backoff));
                        self.sched.requeue(&spec.tenant, id);
                    }
                    None => self.finish_failed(id, &rec_arc, format!("panicked: {message}")),
                }
            }
        }
    }

    /// The isolated job body: everything that may panic or fail runs
    /// here, under `catch_unwind`. Returns the result payload, the
    /// truncation reason if a budget tripped, and whether the attempt
    /// resumed from a checkpoint.
    #[allow(clippy::type_complexity)]
    fn job_body(
        &self,
        spec: &JobSpec,
        token: &CancelToken,
    ) -> Result<(Json, Option<TruncationReason>, bool), String> {
        failpoint::panic_if_armed("serve.job_run");
        let entry = self
            .registry
            .get(&spec.circuit)
            .ok_or_else(|| format!("circuit `{}` vanished from the registry", spec.circuit))?;
        let job_tel = Telemetry::enabled();
        let run = RunOptions::with_threads(self.cfg.job_threads)
            .telemetry(job_tel.clone())
            .seed(spec.seed)
            .cancel(token.clone())
            .compiled(entry.compiled.clone());
        let faults = FaultList::checkpoints(&entry.circuit);
        match spec.kind {
            JobKind::Sim => {
                let rows = spec.rows.as_deref().ok_or("sim jobs require rows")?;
                let seq = job_rows(rows, &entry.circuit)?;
                let detected = FaultSim::with_run_options(&entry.circuit, &run)
                    .query(&faults)
                    .sequence(&seq)
                    .detected();
                let payload = Json::obj(vec![
                    (
                        "detected",
                        Json::UInt(detected.iter().filter(|&&d| d).count() as u64),
                    ),
                    ("faults", Json::UInt(faults.len() as u64)),
                    ("counters", counters_json(&job_tel)),
                ]);
                Ok((payload, token.cancelled(), false))
            }
            JobKind::Synth => {
                let t = match spec.rows.as_deref() {
                    Some(rows) => job_rows(rows, &entry.circuit)?,
                    None => deterministic_t(&entry.circuit, spec.seed),
                };
                let cfg = SynthesisConfig {
                    sequence_length: spec.lg.unwrap_or_else(|| (2 * t.len()).max(256)),
                    run,
                    ..SynthesisConfig::default()
                };
                let mut ctl = RunControl::default();
                if let Some(path) = self.ckpt_path(&spec.id) {
                    ctl = ctl.checkpoint(path);
                }
                let job = match run_synthesis_job(
                    &entry.circuit,
                    &t,
                    &faults,
                    cfg.clone(),
                    None,
                    &ctl,
                    ResumePolicy::Auto,
                ) {
                    Ok(job) => job,
                    Err(e) => {
                        // Graceful degradation: a checkpoint the daemon
                        // cannot load (corrupt, truncated, wrong config)
                        // is surfaced, then the job restarts fresh
                        // rather than failing or silently trusting bad
                        // state.
                        self.tel.add("serve.checkpoints_rejected", 1);
                        self.emit_job_event(
                            &spec.id,
                            "checkpoint-rejected",
                            vec![("error", Json::Str(e.to_string()))],
                        );
                        run_synthesis_job(
                            &entry.circuit,
                            &t,
                            &faults,
                            cfg,
                            None,
                            &ctl,
                            ResumePolicy::Fresh,
                        )
                        .map_err(|e| format!("fresh run failed: {e}"))?
                    }
                };
                let resumed = job.resumed;
                let (result, truncation) = match job.outcome {
                    Outcome::Complete(result) => (result, None),
                    Outcome::Truncated { result, reason } => (result, Some(reason)),
                };
                Ok((synth_result_json(&result, &job_tel), truncation, resumed))
            }
        }
    }

    /// Commits a finished attempt to its terminal state — or requeues
    /// it when the truncation was a preemption.
    fn commit(
        &self,
        id: &str,
        rec_arc: &Arc<Mutex<JobRecord>>,
        result: Json,
        truncation: Option<TruncationReason>,
        resumed: bool,
    ) {
        let mut rec = rec_arc.lock().unwrap_or_else(|p| p.into_inner());
        if resumed {
            rec.resumed = true;
            self.tel.add("serve.jobs_resumed", 1);
        }
        match truncation {
            None => {
                rec.state = JobState::Done;
                rec.result = Some(result.clone());
                let was_resumed = rec.resumed;
                self.tel.add("serve.jobs_done", 1);
                drop(rec);
                self.emit_job_event(
                    id,
                    "done",
                    vec![("resumed", Json::Bool(was_resumed)), ("result", result)],
                );
            }
            Some(TruncationReason::Preempted) => {
                rec.evictions += 1;
                self.tel.add("serve.jobs_evicted", 1);
                if self.draining.load(Ordering::SeqCst) {
                    // Terminal: the checkpoint on disk is the output.
                    rec.state = JobState::Evicted;
                    rec.truncation = Some(TruncationReason::Preempted);
                    drop(rec);
                    self.emit_job_event(id, "evicted", vec![("final", Json::Bool(true))]);
                } else {
                    rec.state = JobState::Queued;
                    let tenant = rec.spec.tenant.clone();
                    drop(rec);
                    self.emit_job_event(id, "evicted", vec![]);
                    self.sched.requeue(&tenant, id);
                }
            }
            Some(TruncationReason::Cancelled) => {
                rec.state = JobState::Cancelled;
                rec.truncation = Some(TruncationReason::Cancelled);
                self.tel.add("serve.jobs_cancelled", 1);
                drop(rec);
                self.emit_job_event(id, "cancelled", vec![]);
            }
            Some(reason) => {
                // A per-job budget tripped: distinct terminal state with
                // a valid partial result.
                rec.state = JobState::Timeout;
                rec.truncation = Some(reason);
                rec.result = Some(result.clone());
                self.tel.add("serve.jobs_timeout", 1);
                drop(rec);
                self.emit_job_event(
                    id,
                    "timeout",
                    vec![
                        ("reason", Json::Str(reason.to_string())),
                        ("result", result),
                    ],
                );
            }
        }
    }

    fn finish_failed(&self, id: &str, rec_arc: &Arc<Mutex<JobRecord>>, message: String) {
        let mut rec = rec_arc.lock().unwrap_or_else(|p| p.into_inner());
        rec.state = JobState::Failed;
        rec.error = Some(message.clone());
        self.tel.add("serve.jobs_failed", 1);
        drop(rec);
        self.emit_job_event(id, "failed", vec![("error", Json::Str(message))]);
    }

    /// Graceful drain: stop accepting work, preempt running jobs to
    /// their checkpoints (cancel the non-evictable ones), let workers
    /// finish committing, and summarize.
    pub fn finish(&self, workers: Vec<thread::JoinHandle<()>>) -> ExitSummary {
        self.draining.store(true, Ordering::SeqCst);
        let left_queued = self.sched.drain_discard().len() as u64;
        {
            let jobs: Vec<Arc<Mutex<JobRecord>>> = self
                .jobs
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .values()
                .cloned()
                .collect();
            for rec_arc in jobs {
                let rec = rec_arc.lock().unwrap_or_else(|p| p.into_inner());
                if rec.state == JobState::Running && rec.cancel.cancelled().is_none() {
                    let reason = if self.evictable(&rec.spec) {
                        TruncationReason::Preempted
                    } else {
                        TruncationReason::Cancelled
                    };
                    rec.cancel.cancel(reason);
                }
            }
        }
        for handle in workers {
            let _ = handle.join();
        }
        let evicted_at_shutdown = {
            let jobs = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
            jobs.values()
                .filter(|rec| {
                    rec.lock().unwrap_or_else(|p| p.into_inner()).state == JobState::Evicted
                })
                .count() as u64
        };
        let summary = ExitSummary {
            attempts: self.attempts.load(Ordering::SeqCst),
            evicted_at_shutdown,
            left_queued,
            truncated: evicted_at_shutdown > 0 || left_queued > 0,
        };
        self.emit(&Json::obj(vec![
            ("event", Json::Str("drained".to_string())),
            ("attempts", Json::UInt(summary.attempts)),
            ("evicted", Json::UInt(summary.evicted_at_shutdown)),
            ("left_queued", Json::UInt(summary.left_queued)),
            ("truncated", Json::Bool(summary.truncated)),
        ]));
        summary
    }
}

/// Parses a job's explicit input rows and checks their width against
/// the registered circuit, so a bad submission fails the job once with
/// a message instead of tripping a simulator assert (which would be
/// retried as a panic).
fn job_rows(rows: &[String], circuit: &Circuit) -> Result<TestSequence, String> {
    let rows: Vec<&str> = rows.iter().map(String::as_str).collect();
    let seq = TestSequence::parse_rows(&rows).map_err(|e| e.to_string())?;
    if seq.num_inputs() != circuit.num_inputs() {
        return Err(SimError::InputWidthMismatch {
            circuit: circuit.num_inputs(),
            sequence: seq.num_inputs(),
        }
        .to_string());
    }
    Ok(seq)
}

/// The deterministic default `T` for synth jobs submitted without
/// explicit rows: an LFSR sequence derived from the job seed.
fn deterministic_t(circuit: &Circuit, seed: u64) -> TestSequence {
    let lfsr_seed = ((seed as u32) | 1) & 0x00FF_FFFF;
    wbist_atpg::Lfsr::new(24, lfsr_seed.max(1)).sequence(circuit.num_inputs(), 64)
}

fn counters_json(tel: &Telemetry) -> Json {
    Json::Object(
        tel.counters()
            .into_iter()
            .map(|(k, v)| (k, Json::UInt(v)))
            .collect(),
    )
}

/// The committed result payload for a synthesis job. Everything needed
/// for the bit-identity proof is here: the full `Ω` (per-input
/// subsequences, detection times, ranks), the detection flags in
/// aggregate, and the job's deterministic telemetry counters.
fn synth_result_json(result: &SynthesisResult, tel: &Telemetry) -> Json {
    let omega: Vec<Json> = result
        .omega
        .iter()
        .map(|sel| {
            Json::obj(vec![
                ("u", Json::UInt(sel.detection_time as u64)),
                ("rank", Json::UInt(sel.rank as u64)),
                ("newly_detected", Json::UInt(sel.newly_detected as u64)),
                (
                    "subsequences",
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
        .collect();
    Json::obj(vec![
        ("omega", Json::Array(omega)),
        ("detected", Json::UInt(result.detected_faults() as u64)),
        ("targets", Json::UInt(result.target_count() as u64)),
        (
            "coverage_guaranteed",
            Json::Bool(result.coverage_guaranteed()),
        ),
        ("sequence_length", Json::UInt(result.sequence_length as u64)),
        ("counters", counters_json(tel)),
    ])
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGTERM handler (async-signal-safe: it only sets a
    /// flag the request loop polls).
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        }
    }

    /// Whether SIGTERM arrived since install.
    pub fn termination_requested() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    /// No-op off Unix.
    pub fn install() {}

    /// Always `false` off Unix.
    pub fn termination_requested() -> bool {
        false
    }
}

pub use signals::{install as install_signal_handlers, termination_requested};

/// Runs the daemon over a line stream until EOF, `{"op":"shutdown"}`,
/// or SIGTERM, then drains gracefully.
///
/// Replies and job events are interleaved on the single output sink;
/// every line is a self-describing JSON object (`"reply"` vs
/// `"event"`), so consumers demultiplex trivially.
pub fn serve(
    cfg: ServeConfig,
    input: impl BufRead + Send + 'static,
    out: Box<dyn Write + Send>,
) -> io::Result<ExitSummary> {
    if cfg.handle_signals {
        install_signal_handlers();
    }
    if let Some(dir) = &cfg.ckpt_dir {
        std::fs::create_dir_all(dir)?;
    }
    let server = Server::new(cfg, out);
    let workers = server.start();

    let (tx, rx) = mpsc::channel::<String>();
    // Detached on purpose: the reader blocks in `read_line` and cannot
    // be joined if shutdown comes from a signal instead of EOF.
    thread::Builder::new()
        .name("wbist-serve-reader".to_string())
        .spawn(move || {
            for line in input.lines() {
                match line {
                    Ok(line) => {
                        if tx.send(line).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        })
        .expect("spawn reader");

    loop {
        if termination_requested() {
            server.emit(&Json::obj(vec![(
                "event",
                Json::Str("sigterm".to_string()),
            )]));
            break;
        }
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(line) => {
                let (reply, flow) = server.handle_line(&line);
                server.emit(&reply);
                if flow == Flow::Shutdown {
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                server.maybe_preempt();
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // EOF can race an in-flight SIGTERM; still log the
                // signal so the drain cause is visible either way.
                if termination_requested() {
                    server.emit(&Json::obj(vec![(
                        "event",
                        Json::Str("sigterm".to_string()),
                    )]));
                }
                break;
            }
        }
    }
    Ok(server.finish(workers))
}

/// Runs the daemon on a Unix domain socket until `{"op":"shutdown"}`
/// arrives on some connection or SIGTERM, then drains gracefully.
///
/// Each connection gets its replies on its own stream; job events go to
/// `out` (the daemon's stdout under the CLI). The socket file is
/// removed on both bind and exit so restarts do not trip over stale
/// sockets.
#[cfg(unix)]
pub fn serve_unix_socket(
    cfg: ServeConfig,
    socket_path: &std::path::Path,
    out: Box<dyn Write + Send>,
) -> io::Result<ExitSummary> {
    use std::os::unix::net::UnixListener;

    if cfg.handle_signals {
        install_signal_handlers();
    }
    if let Some(dir) = &cfg.ckpt_dir {
        std::fs::create_dir_all(dir)?;
    }
    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(socket_path)?;
    listener.set_nonblocking(true)?;
    let server = Server::new(cfg, out);
    let workers = server.start();
    let shutdown = Arc::new(AtomicBool::new(false));

    loop {
        if termination_requested() || shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let server = Arc::clone(&server);
                let shutdown = Arc::clone(&shutdown);
                // Detached on purpose: a client that keeps its
                // connection open past shutdown must not stall the
                // drain; the thread only holds an `Arc` on the server.
                let _ = thread::Builder::new()
                    .name("wbist-serve-conn".to_string())
                    .spawn(move || {
                        let Ok(read_half) = stream.try_clone() else {
                            return;
                        };
                        let reader = io::BufReader::new(read_half);
                        let mut writer = stream;
                        for line in reader.lines() {
                            let Ok(line) = line else { break };
                            let (reply, flow) = server.handle_line(&line);
                            let _ = writeln!(writer, "{}", reply.render());
                            let _ = writer.flush();
                            if flow == Flow::Shutdown {
                                shutdown.store(true, Ordering::SeqCst);
                                break;
                            }
                        }
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(25));
                server.maybe_preempt();
            }
            Err(_) => break,
        }
    }
    let summary = server.finish(workers);
    let _ = std::fs::remove_file(socket_path);
    Ok(summary)
}
