//! Fault-simulator throughput benchmark: faults × cycles per second at
//! varying worker-thread counts, emitted as JSON for `scripts/bench_sim.sh`.
//!
//! ```text
//! cargo run --release -p wbist-bench --bin sim_bench [-- options]
//!
//! options:
//!   --circuits a,b,c   comma-separated circuit names (default
//!                      s1196,s5378; add s35932 for the largest stand-in)
//!   --cycles N         sequence length per measurement (default 256)
//!   --threads a,b,c    thread counts to measure (default 1,2,4,<cores>;
//!                      collapses to 1 on single-core hosts)
//!   --thread-sweep     measure the multi-thread rows even when the host
//!                      has a single core
//!   --kernel K         simulation kernel: compiled (default) or
//!                      reference (the full-walk differential oracle)
//!   --fault-model M    fault model: stuck-at (default) or transition
//!   --reps N           repetitions per measurement; the fastest is
//!                      reported (default 3)
//!   --golden           verify detection counts against the committed
//!                      golden values (128-cycle runs) and exit non-zero
//!                      on any deviation
//!   --max-wall-secs S  stop measuring once S seconds of wall clock have
//!                      elapsed; rows finished so far are still emitted
//!   --max-fault-cycles N  stop once N live fault-cycles have been
//!                      simulated across all measurements
//!   -o FILE            write the JSON there instead of stdout
//!
//! exit codes: 0 complete, 2 budget truncated (rows emitted so far are
//! valid), 1 usage error, I/O failure or golden mismatch
//! ```
//!
//! Each row reports two throughput figures: `fault_cycles_per_sec` is
//! the *nominal* rate (`faults * cycles / seconds`, comparable across
//! tools), while `effective_fault_cycles_per_sec` divides by the live
//! fault-cycles actually simulated (early exits and detected-fault drops
//! excluded), taken from the deterministic `sim.fault_cycles` telemetry
//! counter. `speedup_vs_seed` compares the 1-thread, 128-cycle rows
//! against the committed pre-compiled-kernel baseline.

use std::time::Instant;
use wbist_atpg::Lfsr;
use wbist_bench::Json;
use wbist_circuits::synthetic;
use wbist_netlist::{FaultModel, FaultUniverse};
use wbist_sim::{Budget, CancelToken, FaultSim, SimOptions, Telemetry};

/// Seed-era (full-circuit-walk kernel) 1-thread seconds at 128 cycles,
/// recorded before the compiled kernel landed. `speedup_vs_seed` in the
/// emitted rows is measured against these.
const SEED_SECONDS_128: &[(&str, f64)] = &[
    ("s1196", 0.043319865),
    ("s5378", 1.168868837),
    ("s35932", 59.570927134),
];

/// Golden detection counts at 128 cycles, keyed by fault model. Any
/// kernel, any thread count and any repetition must reproduce these
/// exactly; `--golden` turns a deviation into a non-zero exit for CI.
const GOLDEN_DETECTED_128: &[(FaultModel, &str, u64)] = &[
    (FaultModel::StuckAt, "s1196", 1325),
    (FaultModel::StuckAt, "s5378", 6190),
    (FaultModel::StuckAt, "s35932", 33560),
    (FaultModel::TransitionDelay, "s1196", 1103),
    (FaultModel::TransitionDelay, "s5378", 4905),
];

/// Options that take a value, and boolean flags; anything else on the
/// command line is a usage error, so a retired option is refused rather
/// than silently ignored.
const OPTIONS: &[&str] = &[
    "--circuits",
    "--cycles",
    "--threads",
    "--kernel",
    "--fault-model",
    "--reps",
    "--max-wall-secs",
    "--max-fault-cycles",
    "-o",
];
const FLAGS: &[&str] = &["--thread-sweep", "--golden"];

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
            eprintln!("sim_bench: unknown argument `{a}`");
            std::process::exit(1);
        }
    }
    // Last occurrence wins so callers (scripts/bench_sim.sh) can supply
    // defaults ahead of user arguments.
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
    let cycles: usize = opt("--cycles").and_then(|s| s.parse().ok()).unwrap_or(256);
    let reps: usize = opt("--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    let reference_kernel = match opt("--kernel").as_deref() {
        None | Some("compiled") => false,
        Some("reference") => true,
        Some(other) => {
            eprintln!("unknown kernel `{other}` (expected compiled or reference)");
            std::process::exit(1);
        }
    };
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
    let mut budget = Budget::unlimited();
    if let Some(s) = opt("--max-wall-secs") {
        match s.parse::<f64>() {
            Ok(secs) if !(secs.is_nan() || secs <= 0.0) => budget = budget.wall_secs(secs),
            _ => {
                eprintln!("--max-wall-secs needs a positive number, got `{s}`");
                std::process::exit(1);
            }
        }
    }
    if let Some(s) = opt("--max-fault-cycles") {
        match s.parse::<u64>() {
            Ok(n) if n > 0 => budget = budget.fault_cycles(n),
            _ => {
                eprintln!("--max-fault-cycles needs a positive integer, got `{s}`");
                std::process::exit(1);
            }
        }
    }
    let token = CancelToken::for_budget(&budget);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // A single-core host cannot say anything about scaling — the
    // multi-thread rows only measure scheduler overhead — so the default
    // sweep collapses to the 1-thread row there unless --thread-sweep
    // insists. The collapsed counts are not silently dropped: each emits
    // an explicit `skipped_reason` row.
    let (threads, skipped_threads): (Vec<usize>, Vec<usize>) = match opt("--threads") {
        Some(s) => (
            parse_list(&s)
                .iter()
                .filter_map(|t| t.parse().ok())
                .filter(|&t| t >= 1)
                .collect(),
            Vec::new(),
        ),
        None => {
            let mut v = vec![1, 2, 4, cores];
            v.sort_unstable();
            v.dedup();
            if cores == 1 && !flag("--thread-sweep") {
                (vec![1], v.into_iter().filter(|&t| t != 1).collect())
            } else {
                (v, Vec::new())
            }
        }
    };

    let kernel_name = if reference_kernel {
        "reference"
    } else {
        "compiled"
    };
    let mut golden_failures = 0usize;
    let mut truncated = None;
    let mut rows = Vec::new();
    'measure: for name in &circuits {
        let Some(circuit) = synthetic::by_name(name) else {
            eprintln!("unknown circuit `{name}`, skipping");
            continue;
        };
        let faults = FaultUniverse::checkpoints(model, &circuit);
        let seq = Lfsr::new(24, 0xACE1).sequence(circuit.num_inputs(), cycles);
        let seed_secs = SEED_SECONDS_128
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, s)| s)
            .filter(|_| cycles == 128);
        let mut baseline_secs = None;
        for &t in &threads {
            let options = SimOptions::with_threads(t).reference_kernel(reference_kernel);
            let sim = FaultSim::with_options(&circuit, options).cancel(token.clone());
            // Warm up once, then keep the fastest of `reps` runs — the
            // usual least-noise estimator for throughput numbers.
            let detected = sim.query(&faults).sequence(&seq).count();
            if let Some(reason) = token.cancelled() {
                truncated = Some(reason);
                break 'measure;
            }
            // One untimed instrumented run attributes the work: actual
            // cycles simulated (early exits included), batches, drops,
            // live fault-cycles and gate-evaluation effort.
            let tel = Telemetry::enabled();
            let attributed = FaultSim::with_options(&circuit, options)
                .telemetry(tel.clone())
                .cancel(token.clone());
            std::hint::black_box(attributed.query(&faults).sequence(&seq).count());
            let secs = (0..reps)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(sim.query(&faults).sequence(&seq).count());
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            // A budget trip mid-measurement leaves this row's timings
            // describing partial runs; drop the row, keep the earlier
            // complete ones.
            if let Some(reason) = token.cancelled() {
                truncated = Some(reason);
                break 'measure;
            }
            let baseline = *baseline_secs.get_or_insert(secs);
            let work = (faults.len() * cycles) as f64;
            let live_work = tel.counter("sim.fault_cycles") as f64;
            eprintln!(
            "{name}: {} {} faults x {cycles} cycles, {t} thread(s), {kernel_name}: {:.1} ms ({:.2}x, {:.0} nominal / {:.0} effective fault-cycles/s)",
            faults.len(),
            model.name(),
            secs * 1e3,
            baseline / secs,
            work / secs,
            live_work / secs
        );
            if golden {
                if let Some(&(_, _, want)) = GOLDEN_DETECTED_128
                    .iter()
                    .find(|&&(m, n, _)| m == model && n == name)
                {
                    if cycles == 128 && detected as u64 != want {
                        eprintln!(
                        "GOLDEN MISMATCH: {name} detected {detected}, committed value is {want}"
                    );
                        golden_failures += 1;
                    }
                }
            }
            let mut fields = vec![
                ("circuit", name.as_str().into()),
                ("faults", faults.len().into()),
                ("cycles", cycles.into()),
                ("threads", t.into()),
                ("available_cores", cores.into()),
                ("kernel", kernel_name.into()),
                ("fault_model", model.name().into()),
                ("detected", detected.into()),
                ("seconds", secs.into()),
                ("fault_cycles_per_sec", (work / secs).into()),
                ("effective_fault_cycles_per_sec", (live_work / secs).into()),
                ("speedup_vs_1_thread", (baseline / secs).into()),
                ("cycles_simulated", tel.counter("sim.cycles").into()),
                ("batches", tel.counter("sim.batches").into()),
                ("faults_dropped", tel.counter("sim.faults_dropped").into()),
                ("gates_evaluated", tel.counter("sim.gates_evaluated").into()),
                ("gates_skipped", tel.counter("sim.gates_skipped").into()),
            ];
            if let (Some(seed), 1) = (seed_secs, t) {
                fields.push(("speedup_vs_seed", (seed / secs).into()));
            }
            rows.push(Json::obj(fields));
        }
        for &t in &skipped_threads {
            rows.push(Json::obj(vec![
                ("circuit", name.as_str().into()),
                ("threads", t.into()),
                ("available_cores", cores.into()),
                (
                    "skipped_reason",
                    "single-core host: multi-thread rows measure scheduler overhead, \
                 not scaling (pass --thread-sweep to force)"
                        .into(),
                ),
            ]));
        }
    }

    let mut doc_fields = vec![
        ("bench", "sim".into()),
        ("available_cores", cores.into()),
        ("kernel", kernel_name.into()),
        ("fault_model", model.name().into()),
    ];
    if let Some(reason) = truncated {
        doc_fields.push(("truncated", Json::Str(reason.to_string())));
    }
    doc_fields.push(("rows", Json::Array(rows)));
    let doc = Json::obj(doc_fields);
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
    if let Some(reason) = truncated {
        // Fail fast before the golden verdict: a truncated run's
        // detection counts are partial, so comparing them against the
        // committed values would only report spurious deviations.
        if golden {
            eprintln!("golden comparison skipped: run truncated ({reason}); partial detection counts are not comparable");
        }
        eprintln!("sim_bench: run truncated: {reason} (rows emitted so far are complete)");
        std::process::exit(2);
    }
    if golden_failures > 0 {
        eprintln!("{golden_failures} golden detection mismatch(es)");
        std::process::exit(1);
    }
}
