//! End-to-end, layer-attributed benchmark of the wbist paper flow.
//!
//! One *op* runs the paper's flow once on one workload — `.bench` text →
//! parse and fault universe → `FaultSim` lowering and the `T` query →
//! ATPG and compaction (where the workload derives `T`) → Ω selection →
//! reverse-order prune → observation points (where asked) → Figure-1
//! generator, its cost and Verilog — calling each layer only through its
//! public function and timing every call from outside with [`Instant`].
//! After the flow the op checks the paper's invariants on its outputs
//! ([`OpReport::checks`]); the checks are not part of `flow_s`.
//!
//! The workload inputs are a pure function of the workload and a seed
//! ([`make_inputs`]); the program under test only ever receives the
//! generated `.bench` text and, for LFSR workloads, the sequence `T`.
//! Metric names and units come from `BENCHMARK.json` ([`declared`]).

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};
use wbist::atpg::{compact, AtpgConfig, CompactionConfig, Lfsr, SequenceAtpg};
use wbist::circuits::{s27, synthetic};
use wbist::core::{
    observation_point_tradeoff, reverse_order_prune, ObsOptions, PruneOptions, SelectedAssignment,
    Synthesis, SynthesisConfig,
};
use wbist::hw::{build_generator, generator_cost, to_verilog};
use wbist::netlist::{bench_format, Circuit, FaultList, FaultModel, FaultUniverse};
use wbist::sim::{FaultSim, Logic3, LogicSim, RunOptions, Telemetry, TestSequence};
use wbist::telemetry::Json;

/// How a workload obtains the deterministic sequence `T`.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// `SequenceAtpg` with the default configuration except `max_len`,
    /// then static compaction with the given block sizes and trial cap.
    Atpg {
        max_len: usize,
        blocks: &'static [usize],
        max_trials: usize,
    },
    /// `rows` rows of `Lfsr::new(24, LFSR_SEED)`, generated as an input of
    /// the workload (outside the timed flow).
    Lfsr { rows: usize },
}

/// One benchmark workload: a circuit, a fault model and the flow
/// settings. Everything else is a default of the library.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in every metric line.
    pub name: &'static str,
    /// Table-6 stand-in to run (`s27` is the exact ISCAS-89 circuit).
    pub circuit: &'static str,
    /// Fault model of the checkpoint fault universe.
    pub model: FaultModel,
    /// Where `T` comes from.
    pub source: Source,
    /// Every `fault_stride`-th fault of the checkpoint universe is in the
    /// fault list the flow works on (`1` keeps the whole universe).
    pub fault_stride: usize,
    /// Every `keep_every`-th listed fault is a synthesis target; the rest
    /// are passed as `already_detected`, and prune runs over the targets
    /// only. `1` targets every listed fault.
    pub keep_every: usize,
    /// `L_G`.
    pub lg: usize,
    /// Whether the Section-5 observation-point trade-off runs on Ω.
    pub obs: bool,
}

/// The seed of the LFSR that generates `T` for LFSR workloads.
pub const LFSR_SEED: u32 = 0xACE1;

/// ATPG with the default search, capped at 512 rows, then two compaction
/// passes: `T` stays at most 512 rows, so `L_G` = 512 exceeds every
/// detection time and the coverage guarantee applies.
const SHORT_ATPG: Source = Source::Atpg {
    max_len: 512,
    blocks: &[64, 16],
    max_trials: 40,
};

/// The benchmark's workloads. `BENCHMARK.json` and `benchmark/README.md`
/// say why each exists; the sizes keep one op at 3–8 s on a 2-core host.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper_s1196",
        circuit: "s1196",
        model: FaultModel::StuckAt,
        source: SHORT_ATPG,
        fault_stride: 1,
        keep_every: 1,
        lg: 512,
        obs: false,
    },
    Workload {
        name: "large_s35932",
        circuit: "s35932",
        model: FaultModel::StuckAt,
        source: Source::Lfsr { rows: 48 },
        fault_stride: 10,
        keep_every: 10,
        lg: 64,
        obs: false,
    },
    Workload {
        name: "tdf_obs_s820",
        circuit: "s820",
        model: FaultModel::TransitionDelay,
        source: SHORT_ATPG,
        fault_stride: 1,
        keep_every: 1,
        lg: 512,
        obs: true,
    },
];

/// The smoke workload: the exact s27 through every layer in well under a
/// second.
pub const SMOKE: Workload = Workload {
    name: "smoke_s27",
    circuit: "s27",
    model: FaultModel::StuckAt,
    source: Source::Atpg {
        max_len: 64,
        blocks: &[16, 4, 1],
        max_trials: 200,
    },
    fault_stride: 1,
    keep_every: 1,
    lg: 64,
    obs: true,
};

/// Looks a workload up by name (the smoke workload included).
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS
        .iter()
        .chain(std::iter::once(&SMOKE))
        .find(|w| w.name == name)
}

/// The generated inputs of one workload at one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Circuit name handed to the parser.
    pub name: String,
    /// The circuit as `.bench` text.
    pub bench: String,
    /// `T` for LFSR workloads; ATPG workloads derive it in the flow.
    pub t: Option<TestSequence>,
}

/// Builds the inputs of `w` at `seed`.
///
/// Seed 0 is the committed Table-6 stand-in (or the exact s27) as
/// `bench_format::write` prints it. Any other seed renames every net
/// through a seed-keyed bijection and keeps the line order: the text is
/// new, but the parser builds the same netlist in the same order, so the
/// flow does the same work and yields the same Ω at every seed. A
/// structural change would not: regenerating the circuit with the seed
/// XORed into the spec seed moved one op's `flow_s` by up to ±20% between
/// seeds, more than any usable regression bound.
///
/// # Panics
///
/// Panics if the workload names an unknown circuit.
pub fn make_inputs(w: &Workload, seed: u64) -> Inputs {
    let circuit = if w.circuit == "s27" {
        s27::circuit()
    } else {
        synthetic::by_name(w.circuit).expect("workloads name Table-6 stand-ins")
    };
    let t = match w.source {
        Source::Lfsr { rows } => {
            Some(Lfsr::new(24, LFSR_SEED).sequence(circuit.num_inputs(), rows))
        }
        Source::Atpg { .. } => None,
    };
    let bench = bench_format::write(&circuit);
    Inputs {
        name: w.circuit.to_string(),
        bench: if seed == 0 {
            bench
        } else {
            rename(&bench, seed)
        },
        t,
    }
}

/// Renames every identifier of `.bench` text: the `i`-th distinct name,
/// in order of appearance, becomes `n` plus eight hex digits of a
/// seed-keyed bijection of `i`, so names stay distinct.
fn rename(bench: &str, seed: u64) -> String {
    let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let (a, m, b) = (mix as u32, (mix >> 32) as u32 | 1, (mix >> 16) as u32);
    let mut names: HashMap<String, String> = HashMap::new();
    let mut fresh = |name: &str| -> String {
        let next = names.len() as u32;
        names
            .entry(name.to_string())
            .or_insert_with(|| format!("n{:08x}", (next ^ a).wrapping_mul(m) ^ b))
            .clone()
    };
    let mut out = String::with_capacity(bench.len() * 2);
    for line in bench.lines() {
        let code = line.split('#').next().unwrap_or("");
        if code.trim().is_empty() {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        // Identifiers are the left-hand side and the call arguments; the
        // keyword before `(` stays.
        let mut call = code;
        if let Some(eq) = code.find('=') {
            out.push_str(&fresh(code[..eq].trim()));
            out.push_str(" = ");
            call = code[eq + 1..].trim_start();
        }
        let open = call.find('(').expect("bench lines are calls");
        let close = call.rfind(')').expect("bench lines are calls");
        out.push_str(&call[..=open]);
        let args: Vec<String> = call[open + 1..close]
            .split(',')
            .map(|arg| fresh(arg.trim()))
            .collect();
        out.push_str(&args.join(", "));
        out.push_str(")\n");
    }
    out
}

/// One timed layer call (or the root `flow` span).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `select` or `atpg.compact`.
    pub name: &'static str,
    /// Start, in nanoseconds since the op began.
    pub start_ns: u64,
    /// End, in nanoseconds since the op began.
    pub end_ns: u64,
    /// Index of the enclosing span (`None` for the root).
    pub parent: Option<usize>,
    /// Deterministic `Telemetry::counters()` deltas over the call
    /// (traced ops only; zero deltas omitted).
    pub counters: BTreeMap<String, u64>,
    /// Deltas of the scheduling-dependent effort counters the metrics use.
    pub effort: BTreeMap<String, u64>,
}

impl Span {
    /// Wall seconds of the span.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn effort(&self, name: &str) -> f64 {
        self.effort.get(name).copied().unwrap_or(0) as f64
    }
}

/// The effort counters snapshotted around each call. `Telemetry` has no
/// enumeration of the effort space, so the names are listed here.
const EFFORT: &[&str] = &[
    "pool.steals",
    "pool.tasks",
    "select.cycles_skipped",
    "select.gates_rescanned_saved",
    "select.prefix_hits",
    "select.snapshot_bytes",
    "select.snapshot_spills",
    "select.trace_gates_evaluated",
];

type Snapshot = (BTreeMap<String, u64>, BTreeMap<String, u64>);

/// Times layer calls and snapshots telemetry around them.
struct Recorder {
    epoch: Instant,
    tel: Telemetry,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn snapshot(&self) -> Snapshot {
        if !self.tel.is_enabled() {
            return Snapshot::default();
        }
        let counters = self.tel.counters().into_iter().collect();
        let effort = EFFORT
            .iter()
            .map(|&k| (k.to_string(), self.tel.effort(k)))
            .collect();
        (counters, effort)
    }

    fn open(&mut self, name: &'static str) -> (usize, Snapshot) {
        let before = self.snapshot();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            counters: BTreeMap::new(),
            effort: BTreeMap::new(),
        });
        self.open.push(index);
        (index, before)
    }

    fn close(&mut self, (index, before): (usize, Snapshot)) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let (counters, effort) = self.snapshot();
        let delta = |after: BTreeMap<String, u64>, before: &BTreeMap<String, u64>| {
            after
                .into_iter()
                .map(|(k, v)| {
                    let d = v - before.get(&k).copied().unwrap_or(0);
                    (k, d)
                })
                .filter(|&(_, d)| d > 0)
                .collect()
        };
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.counters = delta(counters, &before.0);
        span.effort = delta(effort, &before.1);
        self.open.pop();
    }

    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let token = self.open(name);
        let r = std::hint::black_box(f());
        self.close(token);
        r
    }
}

/// Everything one op measured and checked.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// Whether the op ran with `Telemetry` enabled.
    pub traced: bool,
    /// The root `flow` span (index 0) and one child per layer call.
    pub spans: Vec<Span>,
    /// Process CPU seconds (user + system) over the flow; `None` where
    /// `/proc/self/stat` is unreadable.
    pub cpu_s: Option<f64>,
    /// `VmHWM` right after the flow, in MiB; `None` where unreadable.
    pub peak_rss_mb: Option<f64>,
    /// Deterministic outputs of the flow, by metric name.
    pub quality: BTreeMap<&'static str, u64>,
    /// The correctness checks, by name.
    pub checks: Vec<(&'static str, bool)>,
    /// Wall seconds of the benchmark's own checks, by metric name.
    pub verify: BTreeMap<&'static str, f64>,
}

impl OpReport {
    /// Wall seconds of the flow, parse to Verilog.
    pub fn flow_s(&self) -> f64 {
        self.spans[0].seconds()
    }

    /// The names of the failed checks.
    pub fn failures(&self) -> Vec<&'static str> {
        self.checks
            .iter()
            .filter(|&&(_, ok)| !ok)
            .map(|&(n, _)| n)
            .collect()
    }

    /// The deterministic part of the report: the quality figures and
    /// every span's counter deltas. Equal inputs give equal fingerprints
    /// at any thread count.
    pub fn fingerprint(&self) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", s.name.into()),
                    ("counters", counts_json(&s.counters)),
                ])
            })
            .collect();
        let quality = self
            .quality
            .iter()
            .map(|(k, &v)| (k.to_string(), Json::UInt(v)))
            .collect();
        Json::obj(vec![
            ("quality", Json::Object(quality)),
            ("spans", Json::Array(spans)),
        ])
        .render()
    }

    /// The op's metrics: flow time, CPU and memory, the quality figures,
    /// per-layer wall time and share of `flow_s`, and — for traced ops —
    /// the counter-derived layer metrics. A counter the run never
    /// incremented reads 0.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let flow_s = self.flow_s();
        let mut m = BTreeMap::new();
        m.insert("flow_s".to_string(), flow_s);
        if let Some(v) = self.cpu_s {
            m.insert("cpu_s".into(), v);
        }
        if let Some(v) = self.peak_rss_mb {
            m.insert("peak_rss_mb".into(), v);
        }
        for (&k, &v) in &self.quality {
            m.insert(k.into(), v as f64);
        }
        for (&k, &v) in &self.verify {
            m.insert(k.into(), v);
        }
        // Layers a workload skips have no time, only a zero share.
        for layer in ["atpg.generate", "atpg.compact", "obs"] {
            m.insert(format!("{layer}.share"), 0.0);
        }
        let mut share_sum = 0.0;
        for span in &self.spans[1..] {
            let secs = span.seconds();
            // `select.s` but `atpg.compact_s`: a bare layer name takes a
            // `.s` suffix, a dotted call name `_s`.
            let key = if span.name.contains('.') {
                format!("{}_s", span.name)
            } else {
                format!("{}.s", span.name)
            };
            m.insert(key, secs);
            m.insert(format!("{}.share", span.name), secs / flow_s);
            share_sum += secs / flow_s;
        }
        m.insert("layers.share_sum".into(), share_sum);
        if self.traced {
            self.counter_metrics(&mut m);
        }
        m
    }

    fn counter_metrics(&self, m: &mut BTreeMap<String, f64>) {
        let span = |name: &str| self.spans.iter().find(|s| s.name == name);
        let root = &self.spans[0];
        let mut put = |k: &str, v: f64| {
            m.insert(k.to_string(), v);
        };
        if let Some(s) = span("select") {
            let tried = s.counter("select.candidates_tried");
            put("select.candidates_tried", tried);
            put("select.candidates_per_s", tried / s.seconds());
            put("select.screen_calls", s.counter("sim.screen_calls"));
            put("select.sample_skips", s.counter("select.sample_skips"));
            put(
                "select.assignments_kept",
                s.counter("select.assignments_kept"),
            );
            put(
                "select.prefix_hit_ratio",
                s.effort("select.prefix_hits") / tried.max(1.0),
            );
            for k in [
                "select.cycles_skipped",
                "select.trace_gates_evaluated",
                "select.gates_rescanned_saved",
                "select.snapshot_spills",
                "select.snapshot_bytes",
            ] {
                put(k, s.effort(k));
            }
            put(
                "select.snapshot_capture_denied",
                s.counter("select.snapshot_capture_denied"),
            );
            put("select.fault_cycles", s.counter("sim.fault_cycles"));
        }
        if let Some(s) = span("prune") {
            put("prune.fault_cycles", s.counter("sim.fault_cycles"));
            put("prune.gates_evaluated", s.counter("sim.gates_evaluated"));
            let kept = s.counter("prune.kept");
            put(
                "prune.kept_ratio",
                kept / (kept + s.counter("prune.dropped")).max(1.0),
            );
        }
        let obs = span("obs");
        let obs_count = |k: &str| obs.map_or(0.0, |s| s.counter(k));
        put("obs.fault_cycles", obs_count("sim.fault_cycles"));
        put("obs.cover_iterations", obs_count("obs.cover_iterations"));
        put("obs.rows", obs_count("obs.rows"));
        put(
            "sim.fault_cycles_per_s",
            root.counter("sim.fault_cycles") / root.seconds(),
        );
        let evaluated = root.counter("sim.gates_evaluated");
        put(
            "sim.gate_eval_ratio",
            evaluated / (evaluated + root.counter("sim.gates_skipped")).max(1.0),
        );
        put("sim.batches", root.counter("sim.batches"));
        put("sim.batch_panics", root.counter("sim.batch_panics"));
        put("pool.tasks", root.effort("pool.tasks"));
        put("pool.steals", root.effort("pool.steals"));
    }

    /// The report as JSON: metrics, fingerprint, checks and spans (the
    /// child-to-parent wire format).
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics()
            .into_iter()
            .map(|(k, v)| (k, Json::Float(v)))
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|&(k, ok)| (k.to_string(), Json::Bool(ok)))
            .collect();
        Json::obj(vec![
            ("traced", self.traced.into()),
            ("metrics", Json::Object(metrics)),
            ("fingerprint", self.fingerprint().as_str().into()),
            ("checks", Json::Object(checks)),
            ("spans", spans_json(&self.spans)),
        ])
    }
}

fn counts_json(m: &BTreeMap<String, u64>) -> Json {
    Json::Object(m.iter().map(|(k, &v)| (k.clone(), Json::UInt(v))).collect())
}

/// Spans as trace records: `name`, `start_ns`, `end_ns`, `parent`, the
/// self time (the span minus its children), and the counter deltas.
fn spans_json(spans: &[Span]) -> Json {
    Json::Array(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let children: u64 = spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| c.end_ns - c.start_ns)
                    .sum();
                Json::obj(vec![
                    ("name", s.name.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("self_ns", (s.end_ns - s.start_ns - children).into()),
                    ("counters", counts_json(&s.counters)),
                    ("effort", counts_json(&s.effort)),
                ])
            })
            .collect(),
    )
}

/// Process CPU seconds from `/proc/self/stat` (all threads). `utime`
/// and `stime` are in `USER_HZ` ticks, which Linux fixes at 100.
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; count fields after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// `VmHWM` (peak resident set) of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs one op of `w` on `inputs` with `threads` simulator threads;
/// `traced` enables `Telemetry` in the run options.
///
/// # Panics
///
/// Panics if the inputs do not parse: that is a broken generator, not an
/// outcome of the program under test.
pub fn run_op(w: &Workload, inputs: &Inputs, threads: usize, traced: bool) -> OpReport {
    let tel = if traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let run = RunOptions::with_threads(threads).telemetry(tel.clone());
    let mut rec = Recorder {
        epoch: Instant::now(),
        tel,
        spans: Vec::new(),
        open: Vec::new(),
    };
    let lg = w.lg;
    let cpu0 = cpu_seconds();
    let root = rec.open("flow");

    let circuit = rec
        .call("netlist.parse", || {
            bench_format::parse(&inputs.name, &inputs.bench)
        })
        .expect("generated .bench text parses");
    let universe = rec.call("netlist.faults", || {
        FaultUniverse::checkpoints(w.model, &circuit)
    });
    let faults: FaultList = universe.iter().step_by(w.fault_stride).copied().collect();
    let sim = rec.call("sim.lower", || FaultSim::with_run_options(&circuit, &run));
    let mut atpg_lens = (0, 0);
    let t = match (&inputs.t, w.source) {
        (Some(t), _) => t.clone(),
        (
            None,
            Source::Atpg {
                max_len,
                blocks,
                max_trials,
            },
        ) => {
            let cfg = AtpgConfig {
                max_len,
                ..AtpgConfig::default()
            };
            let raw = rec.call("atpg.generate", || {
                SequenceAtpg::new(&circuit, cfg).run(&faults)
            });
            let cc = CompactionConfig {
                block_sizes: blocks.to_vec(),
                max_trials,
            };
            let t = rec.call("atpg.compact", || {
                compact(&circuit, &faults, &raw.sequence, &cc)
            });
            atpg_lens = (raw.sequence.len(), t.len());
            t
        }
        (None, Source::Lfsr { .. }) => unreachable!("LFSR inputs carry T"),
    };
    let t_flags = rec.call("sim.t_query", || sim.query(&faults).sequence(&t).detected());

    let pre: Vec<bool> = (0..faults.len()).map(|i| i % w.keep_every != 0).collect();
    let cfg = SynthesisConfig {
        sequence_length: lg,
        run: run.clone(),
        ..SynthesisConfig::default()
    };
    let result = rec.call("select", || {
        Synthesis::new(&circuit, &t, &faults)
            .config(cfg)
            .already_detected(&pre)
            .run()
    });
    let targets: FaultList = faults.iter().step_by(w.keep_every).copied().collect();
    let pruned = rec.call("prune", || {
        reverse_order_prune(
            &circuit,
            &targets,
            &result.omega,
            &PruneOptions::new(lg).run(run.clone()),
        )
    });
    let obs = w.obs.then(|| {
        rec.call("obs", || {
            observation_point_tradeoff(
                &circuit,
                &faults,
                &result.omega,
                &ObsOptions::new(lg).run(run.clone()),
            )
        })
    });
    let hw = (!pruned.is_empty()).then(|| {
        rec.call("hw.generate", || {
            build_generator(&pruned, lg).map(|gen| {
                let cost = generator_cost(&gen);
                let verilog = to_verilog(&gen.circuit);
                (gen, cost, verilog)
            })
        })
    });
    rec.close(root);
    let cpu_s = cpu0.zip(cpu_seconds()).map(|(a, b)| b - a);
    let peak = peak_rss_mb();

    // The benchmark's own checks, outside flow_s.
    let mut checks = vec![
        ("coverage_guaranteed", result.coverage_guaranteed()),
        (
            "t_query_matches_targets",
            result
                .target
                .iter()
                .zip(t_flags.iter().zip(&pre))
                .all(|(&target, (&det, &p))| target == (det && !p)),
        ),
    ];
    let mut verify = BTreeMap::new();

    let started = Instant::now();
    let covered: FaultList = faults
        .iter()
        .zip(&result.detected)
        .filter(|&(_, &d)| d)
        .map(|(&f, _)| f)
        .collect();
    checks.push((
        "prune_keeps_coverage",
        detects_all(&circuit, &covered, &pruned, lg, threads),
    ));
    verify.insert("verify.prune_coverage_s", started.elapsed().as_secs_f64());

    let started = Instant::now();
    let replayed = match &hw {
        Some(Ok((gen, _, _))) => replays(&gen.circuit, &pruned, lg),
        _ => false,
    };
    checks.push(("generator_replays_omega", replayed));
    verify.insert("verify.replay_s", started.elapsed().as_secs_f64());

    if let Some(tr) = &obs {
        let full = tr
            .rows
            .last()
            .is_some_and(|r| (r.fault_efficiency - 100.0).abs() < 1e-9);
        checks.push(("obs_reaches_full_efficiency", full));
    }

    let mut quality = BTreeMap::new();
    quality.insert("t_det", t_flags.iter().filter(|&&d| d).count() as u64);
    quality.insert("seq", pruned.len() as u64);
    quality.insert("atpg.raw_len", atpg_lens.0 as u64);
    quality.insert("atpg.t_len", atpg_lens.1 as u64);
    if let Some(Ok((_, cost, verilog))) = &hw {
        quality.insert("fsm_out", cost.fsm_outputs as u64);
        quality.insert("hw_gates", cost.total_gates as u64);
        quality.insert("hw.dffs", cost.total_dffs as u64);
        quality.insert("hw.verilog_bytes", verilog.len() as u64);
    }
    OpReport {
        traced,
        spans: rec.spans,
        cpu_s,
        peak_rss_mb: peak,
        quality,
        checks,
        verify,
    }
}

/// Whether the sequences of `omega` together detect every fault of
/// `faults`, simulating each assignment over the faults still undetected.
fn detects_all(
    circuit: &Circuit,
    faults: &FaultList,
    omega: &[SelectedAssignment],
    lg: usize,
    threads: usize,
) -> bool {
    let sim = FaultSim::with_run_options(circuit, &RunOptions::with_threads(threads));
    let mut left = faults.clone();
    for sel in omega {
        if left.is_empty() {
            break;
        }
        let flags = sim.query(&left).sequence(&sel.sequence(lg)).detected();
        left = left
            .iter()
            .zip(flags)
            .filter(|&(_, d)| !d)
            .map(|(&f, _)| f)
            .collect();
    }
    left.is_empty()
}

/// Simulates the generator from reset and compares every output stream
/// with the weighted sequence software generates for each assignment.
fn replays(gen: &Circuit, omega: &[SelectedAssignment], lg: usize) -> bool {
    let mut rows = vec![vec![true]];
    rows.extend(std::iter::repeat_n(vec![false], omega.len() * lg));
    let Ok(outs) = TestSequence::from_rows(rows).and_then(|seq| LogicSim::new(gen).outputs(&seq))
    else {
        return false;
    };
    omega.iter().enumerate().all(|(a, sel)| {
        let expect = sel.sequence(lg);
        (0..lg).all(|u| {
            let row = &outs[1 + a * lg + u];
            row.len() == expect.num_inputs()
                && row
                    .iter()
                    .enumerate()
                    .all(|(i, &g)| g == Logic3::from(expect.value(u, i)))
        })
    })
}

/// Fewest repetitions behind `setup_s`.
pub const SETUP_REPS: usize = 21;
/// Least set-up work behind `setup_s`: a small circuit sets up in well
/// under a millisecond, where 21 samples are too few to be steady.
pub const SETUP_MIN: Duration = Duration::from_secs(1);

/// `setup_s`: the median wall seconds of parse + fault universe + one
/// `FaultSim` lowering, over at least [`SETUP_REPS`] repetitions and
/// [`SETUP_MIN`] of work.
pub fn setup_seconds(w: &Workload, seed: u64, threads: usize) -> f64 {
    let inputs = make_inputs(w, seed);
    let run = RunOptions::with_threads(threads);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_REPS || started.elapsed() < SETUP_MIN {
        let rep = Instant::now();
        let c = bench_format::parse(&inputs.name, &inputs.bench).expect("inputs parse");
        let faults = FaultUniverse::checkpoints(w.model, &c);
        let sim = FaultSim::with_run_options(&c, &run);
        std::hint::black_box((&faults, &sim));
        samples.push(rep.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A metric `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether it is an end-to-end metric (else per-layer).
    pub end_to_end: bool,
}

/// The metrics of `BENCHMARK.json`, end-to-end first.
pub fn declared() -> Vec<Declared> {
    let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is JSON");
    let mut out = Vec::new();
    for (section, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
        for m in doc.get(section).and_then(Json::as_array).unwrap_or(&[]) {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            out.push(Declared {
                name: field("name"),
                unit: field("unit"),
                end_to_end,
            });
        }
    }
    out
}

/// The unit of a metric: as declared, else `s` for times, `ratio` for
/// shares and rates of failure, `count` otherwise.
pub fn unit(name: &str) -> String {
    if let Some(d) = declared().into_iter().find(|d| d.name == name) {
        return d.unit;
    }
    let unit = if name.ends_with("_s") || name.ends_with(".s") {
        "s"
    } else if name.ends_with(".share") || name == "error_rate" {
        "ratio"
    } else {
        "count"
    };
    unit.to_string()
}

/// Aggregates the metrics of a workload's good ops (`(traced, metrics)`):
/// end-to-end metrics are medians over the untraced ops, every other
/// metric the median over the traced ops when there are any (else over the
/// untraced ones), and `trace.overhead_pct` compares the two `flow_s`
/// medians.
pub fn summarize(ops: &[(bool, BTreeMap<String, f64>)]) -> BTreeMap<String, f64> {
    let declared = declared();
    let end_to_end = |k: &str| declared.iter().any(|d| d.end_to_end && d.name == k);
    let median_of = |traced: bool, key: &str| -> Option<f64> {
        let v: Vec<f64> = ops
            .iter()
            .filter(|(t, _)| *t == traced)
            .filter_map(|(_, m)| m.get(key).copied())
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let any_traced = ops.iter().any(|(t, _)| *t);
    let keys: std::collections::BTreeSet<&String> =
        ops.iter().flat_map(|(_, m)| m.keys()).collect();
    let mut out = BTreeMap::new();
    for key in keys {
        let from_traced = any_traced && !end_to_end(key);
        if let Some(v) = median_of(from_traced, key).or_else(|| median_of(!from_traced, key)) {
            out.insert(key.clone(), v);
        }
    }
    if let (Some(t), Some(u)) = (median_of(true, "flow_s"), median_of(false, "flow_s")) {
        out.insert("trace.overhead_pct".into(), 100.0 * (t / u - 1.0));
    }
    out
}
