//! Selection-loop synthesis benchmark: wall-clock and candidates per
//! second of the §4.2 walk, emitted as JSON for
//! `scripts/bench_select.sh`.
//!
//! ```text
//! cargo run --release -p wbist-bench --bin synth_bench [-- options]
//!
//! options:
//!   --circuits a,b,c   comma-separated circuit names (default
//!                      s1196,s5378; add s35932 for the largest stand-in)
//!   --t-len N          length of the deterministic sequence T (default 48)
//!   --lg N             generated-sequence length L_G (default 64)
//!   --keep-every N     keep every N-th fault as a synthesis target and
//!                      mark the rest already detected (default per
//!                      circuit: s1196 5, s5378 60, s35932 10)
//!   --threads N        simulation worker threads (default all cores)
//!   --fault-model M    fault model: stuck-at (default) or transition
//!   --reps N           repetitions per row; the fastest is reported
//!                      (default 1 — a synthesis run is long enough)
//!   --golden           verify Ω size and target coverage against the
//!                      committed golden values (default configuration
//!                      only) and exit non-zero on any deviation
//!   -o FILE            write the JSON there instead of stdout
//!
//! exit codes: 0 complete, 1 usage error, I/O failure or golden mismatch
//! ```
//!
//! One row per circuit. `candidates_per_sec` divides the deterministic
//! `select.candidates_tried` counter by the wall clock;
//! `trace_gates_evaluated` counts the walk's good-machine gate
//! evaluations (every gate of every cycle, once per sweep), and
//! `good_sweeps`/`good_lanes` the fault-free sweeps and the sequences
//! they carried, over the whole run. Every dense query simulates its
//! candidate from cycle 0; `faults_retired` counts the faulty machines
//! the run's one-shot queries dropped undetected because their state
//! repeated at the sequence's input period.

use std::time::Instant;
use wbist_atpg::Lfsr;
use wbist_bench::Json;
use wbist_circuits::synthetic;
use wbist_core::{RunOptions, Synthesis, SynthesisConfig, SynthesisResult, Telemetry};
use wbist_netlist::{FaultModel, FaultUniverse};

/// Default target subsampling per circuit: every `keep_every`-th fault
/// stays a target. Chosen so a full synthesis walk finishes in seconds
/// while still exercising hundreds of candidate evaluations. The
/// s35932 value keeps ~6000 targets, so its first segments' dense
/// queries run about a hundred fault batches over 1728 flip-flops.
const DEFAULT_KEEP_EVERY: &[(&str, usize)] = &[("s1196", 5), ("s5378", 60), ("s35932", 10)];

/// Golden Ω sizes and detected-target counts at the default
/// configuration (`--t-len 48 --lg 64`, default `--keep-every`). The
/// walk is bit-identical at every worker count, so one
/// committed value per circuit pins them all; `--golden` turns a
/// deviation into a non-zero exit for CI.
const GOLDEN_DEFAULT_CONFIG: &[(FaultModel, &str, u64, u64)] = &[
    // (fault model, circuit, omega_len, targets_detected)
    (FaultModel::StuckAt, "s1196", 36, 212),
    (FaultModel::StuckAt, "s5378", 31, 74),
    (FaultModel::TransitionDelay, "s1196", 33, 154),
    (FaultModel::TransitionDelay, "s5378", 24, 56),
];

/// Options that take a value, and boolean flags; anything else on the
/// command line is a usage error.
const OPTIONS: &[&str] = &[
    "--circuits",
    "--t-len",
    "--lg",
    "--keep-every",
    "--threads",
    "--fault-model",
    "--reps",
    "-o",
];
const FLAGS: &[&str] = &["--golden"];

fn parse_list(s: &str) -> Vec<String> {
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if OPTIONS.contains(&a.as_str()) {
            it.next();
        } else if !FLAGS.contains(&a.as_str()) {
            eprintln!("synth_bench: unknown argument `{a}`");
            std::process::exit(1);
        }
    }
    // Last occurrence wins so callers (scripts/bench_select.sh) can
    // supply defaults ahead of user arguments.
    let opt = |key: &str| -> Option<String> {
        args.iter()
            .rposition(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let flag = |key: &str| -> bool { args.iter().any(|a| a == key) };
    let circuits = opt("--circuits")
        .map(|s| parse_list(&s))
        .unwrap_or_else(|| vec!["s1196".to_string(), "s5378".to_string()]);
    let t_len: usize = opt("--t-len").and_then(|s| s.parse().ok()).unwrap_or(48);
    let lg: usize = opt("--lg").and_then(|s| s.parse().ok()).unwrap_or(64);
    let keep_override: Option<usize> = opt("--keep-every").and_then(|s| s.parse().ok());
    let reps: usize = opt("--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);
    let model = match opt("--fault-model") {
        None => FaultModel::StuckAt,
        Some(s) => match FaultModel::parse(&s) {
            Some(m) => m,
            None => {
                eprintln!("unknown fault model `{s}` (expected stuck-at or transition)");
                std::process::exit(1);
            }
        },
    };
    let golden = flag("--golden");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads: usize = opt("--threads")
        .and_then(|s| s.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(cores);
    let default_config = t_len == 48 && lg == 64 && keep_override.is_none();
    if golden && !default_config {
        eprintln!(
            "--golden pins the default configuration; drop --t-len/--lg/--keep-every overrides"
        );
        std::process::exit(1);
    }

    let mut golden_failures = 0usize;
    let mut rows = Vec::new();
    for name in &circuits {
        let Some(circuit) = synthetic::by_name(name) else {
            eprintln!("unknown circuit `{name}`, skipping");
            continue;
        };
        let faults = FaultUniverse::checkpoints(model, &circuit);
        let seq = Lfsr::new(24, 0xACE1).sequence(circuit.num_inputs(), t_len);
        let keep_every = keep_override
            .or_else(|| {
                DEFAULT_KEEP_EVERY
                    .iter()
                    .find(|&&(n, _)| n == name)
                    .map(|&(_, k)| k)
            })
            .unwrap_or(20);
        let pre: Vec<bool> = (0..faults.len()).map(|i| i % keep_every != 0).collect();
        let targets = pre.iter().filter(|&&d| !d).count();

        let mut best: Option<(SynthesisResult, Telemetry, f64)> = None;
        for _ in 0..reps {
            let tel = Telemetry::enabled();
            let run = RunOptions::with_threads(threads).telemetry(tel.clone());
            let cfg = SynthesisConfig {
                sequence_length: lg,
                run,
                ..SynthesisConfig::default()
            };
            let start = Instant::now();
            let result = Synthesis::new(&circuit, &seq, &faults)
                .config(cfg)
                .already_detected(&pre)
                .run();
            let secs = start.elapsed().as_secs_f64();
            if best.as_ref().is_none_or(|(_, _, b)| secs < *b) {
                best = Some((result, tel, secs));
            }
        }
        let (result, tel, secs) = best.expect("reps >= 1");
        let tried = tel.counter("select.candidates_tried");
        let trace_gates_evaluated = tel.effort("select.trace_gates_evaluated");
        let good_sweeps = tel.effort("sim.good_sweeps");
        let good_lanes = tel.effort("sim.good_lanes");
        let retired = tel.counter("sim.faults_retired");
        let detected_targets = result
            .detected
            .iter()
            .zip(&pre)
            .filter(|&(&d, &p)| d && !p)
            .count() as u64;
        eprintln!(
                "{name}: {targets} {} targets, {threads} thread(s): {:.2} s ({:.1} candidates/s, {tried} tried, {retired} faults retired)",
                model.name(),
                secs,
                tried as f64 / secs,
            );
        if golden {
            if let Some(&(_, _, want_omega, want_detected)) = GOLDEN_DEFAULT_CONFIG
                .iter()
                .find(|&&(m, n, _, _)| m == model && n == name)
            {
                if (result.omega.len() as u64, detected_targets) != (want_omega, want_detected) {
                    eprintln!(
                            "GOLDEN MISMATCH: {name}: Ω size {} / {detected_targets} detected, committed values are {want_omega} / {want_detected}",
                            result.omega.len()
                        );
                    golden_failures += 1;
                }
            }
        }
        rows.push(Json::obj(vec![
            ("circuit", name.as_str().into()),
            ("fault_model", model.name().into()),
            ("faults", faults.len().into()),
            ("targets", targets.into()),
            ("t_len", t_len.into()),
            ("sequence_length", lg.into()),
            ("threads", threads.into()),
            ("seconds", secs.into()),
            ("candidates_tried", tried.into()),
            ("candidates_per_sec", (tried as f64 / secs).into()),
            ("trace_gates_evaluated", trace_gates_evaluated.into()),
            ("good_sweeps", good_sweeps.into()),
            ("good_lanes", good_lanes.into()),
            ("faults_retired", retired.into()),
            ("omega_len", result.omega.len().into()),
            ("targets_detected", detected_targets.into()),
            (
                "coverage",
                (detected_targets as f64 / targets.max(1) as f64).into(),
            ),
            ("available_cores", cores.into()),
        ]));
    }

    let doc = Json::obj(vec![
        ("bench", "select".into()),
        ("fault_model", model.name().into()),
        ("available_cores", cores.into()),
        ("rows", Json::Array(rows)),
    ]);
    let text = doc.render_pretty();
    match opt("-o") {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, format!("{text}\n")) {
                eprintln!("error: cannot write `{path}`: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
        None => println!("{text}"),
    }
    if golden_failures > 0 {
        eprintln!("{golden_failures} golden synthesis mismatch(es)");
        std::process::exit(1);
    }
}
