//! Paper-flow benchmark: command line, child-process ops and output.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME | --workloads a,b] [--seed S] [--seconds N] \
//!     [--trace 0|1|FILE] [-o FILE]
//! ```
//!
//! Each op (one run of the flow) executes in a child process of this
//! binary (`--child WORKLOAD SEED TRACED`, which prints the op's report as
//! one JSON line), one at a time (closed loop), so every op starts cold
//! and its peak RSS and CPU time are its own. Ops repeat until the next one would
//! end past `--seconds` (at least [`MIN_OPS`] run); timings are medians
//! over the ops. `--trace 0` (the default) reports the end-to-end metrics.
//! `--trace 1`, or `--trace FILE` which also writes the span records
//! there, alternates traced and untraced ops and reports the per-layer
//! metrics.
//!
//! Every metric is printed as `workload metric value unit`. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and the `BENCHMARK.json` metrics of the mode. The exit code is
//! 1 when any op failed, 2 on a usage error.

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use wbist::telemetry::Json;
use wbist_benchmark::{
    declared, make_inputs, median, run_op, setup_seconds, summarize, unit, workload, Workload,
    WORKLOADS,
};

/// Fewest ops a workload runs, however long they take.
const MIN_OPS: usize = 3;
/// An op running longer than this (or than four times `--seconds`) is
/// killed and counted as failed.
const OP_CAP: Duration = Duration::from_secs(600);

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_file: Option<String>,
    out: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!("wbist-benchmark: {msg}");
    eprintln!(
        "usage: wbist-benchmark [--workload NAME | --workloads a,b] [--seed S] [--seconds N] \
         [--trace 0|1|FILE] [-o FILE]"
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 0,
        seconds: 25.0,
        traced: false,
        trace_file: None,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" | "--workloads" => {
                args.workloads = value()
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|n| {
                        workload(n).unwrap_or_else(|| usage(&format!("unknown workload `{n}`")))
                    })
                    .collect();
            }
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an unsigned integer"))
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"))
            }
            "--trace" => match value().as_str() {
                "0" => args.traced = false,
                "1" => args.traced = true,
                path => {
                    args.traced = true;
                    args.trace_file = Some(path.to_string());
                }
            },
            "-o" => args.out = Some(value()),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        usage("no workload selected");
    }
    args
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Child mode: run one op and print its report as one JSON line.
fn child(argv: &[String]) {
    let [name, seed, traced] = argv else {
        usage("--child takes WORKLOAD SEED TRACED");
    };
    let w = workload(name).unwrap_or_else(|| usage(&format!("unknown workload `{name}`")));
    let seed: u64 = seed
        .parse()
        .unwrap_or_else(|_| usage("--seed needs an unsigned integer"));
    let report = run_op(w, &make_inputs(w, seed), threads(), traced == "1");
    println!("{}", report.to_json().render());
}

/// Runs one op in a child process: its report, or why it failed.
fn spawn_op(w: &Workload, seed: u64, traced: bool, cap: Duration) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--child",
            w.name,
            &seed.to_string(),
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let drain = |mut pipe: Box<dyn Read + Send>| {
        std::thread::spawn(move || {
            let mut s = String::new();
            let _ = pipe.read_to_string(&mut s);
            s
        })
    };
    let out = drain(Box::new(child.stdout.take().expect("stdout is piped")));
    let err = drain(Box::new(child.stderr.take().expect("stderr is piped")));
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if started.elapsed() > cap => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait: {e}"));
            }
        }
    };
    let stdout = out.join().unwrap_or_default();
    let stderr = err.join().unwrap_or_default();
    eprint!("{stderr}");
    match status {
        None => Err(format!("exceeded the {} s op cap", cap.as_secs())),
        Some(s) if !s.success() => Err(format!(
            "child {s}: {}",
            stderr
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .unwrap_or("")
        )),
        Some(_) => Json::parse(stdout.trim()).map_err(|e| format!("unreadable report: {e:?}")),
    }
}

struct WorkloadResult {
    metrics: BTreeMap<String, f64>,
    attempted: usize,
    failed: usize,
    doc: Json,
}

fn run_workload(w: &Workload, args: &Args, trace_spans: &mut Vec<Json>) -> WorkloadResult {
    let cap = OP_CAP.min(Duration::from_secs_f64(4.0 * args.seconds));
    let setup_s = (!args.traced).then(|| setup_seconds(w, args.seed, threads()));

    let started = Instant::now();
    let mut ops: Vec<(bool, Result<Json, String>)> = Vec::new();
    let mut op_secs: Vec<f64> = Vec::new();
    loop {
        let typical = if op_secs.is_empty() {
            0.0
        } else {
            median(&op_secs)
        };
        if ops.len() >= MIN_OPS && started.elapsed().as_secs_f64() + typical > args.seconds {
            break;
        }
        // Traced runs alternate traced and untraced ops (traced first),
        // so the tracing overhead is measured on the same inputs.
        let traced = args.traced && ops.len().is_multiple_of(2);
        let op_started = Instant::now();
        let outcome = spawn_op(w, args.seed, traced, cap);
        op_secs.push(op_started.elapsed().as_secs_f64());
        let capped = matches!(&outcome, Err(reason) if reason.contains("op cap"));
        ops.push((traced, outcome));
        if capped {
            break;
        }
    }

    // An op fails when its child crashes or is capped, a check fails, or
    // its deterministic outputs differ from the first good op of its kind.
    let mut failures: Vec<Json> = Vec::new();
    let mut reference: BTreeMap<bool, String> = BTreeMap::new();
    let mut good: Vec<(bool, BTreeMap<String, f64>)> = Vec::new();
    for (i, (traced, outcome)) in ops.iter().enumerate() {
        let verdict = outcome.as_ref().map_err(String::clone).and_then(|op| {
            let failed: Vec<&str> = op
                .get("checks")
                .and_then(Json::as_object)
                .unwrap_or(&[])
                .iter()
                .filter(|(_, ok)| ok.as_bool() != Some(true))
                .map(|(k, _)| k.as_str())
                .collect();
            if !failed.is_empty() {
                return Err(format!("checks failed: {}", failed.join(", ")));
            }
            let fp = op.get("fingerprint").and_then(Json::as_str).unwrap_or("");
            if reference.entry(*traced).or_insert_with(|| fp.to_string()) != fp {
                return Err("deterministic outputs differ from the first op".to_string());
            }
            Ok(op)
        });
        match verdict {
            Ok(op) => {
                let metrics = op
                    .get("metrics")
                    .and_then(Json::as_object)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect();
                good.push((*traced, metrics));
                let first_traced = *traced && good.iter().filter(|(t, _)| *t).count() == 1;
                if first_traced {
                    for span in op.get("spans").and_then(Json::as_array).unwrap_or(&[]) {
                        let mut record = vec![
                            ("workload".to_string(), Json::from(w.name)),
                            ("op".to_string(), i.into()),
                        ];
                        record.extend(span.as_object().unwrap_or(&[]).iter().cloned());
                        trace_spans.push(Json::Object(record));
                    }
                }
            }
            Err(reason) => {
                eprintln!("{} op {i}: FAILED: {reason}", w.name);
                failures.push(Json::obj(vec![
                    ("op", i.into()),
                    ("reason", reason.as_str().into()),
                ]));
            }
        }
    }

    let mut metrics = summarize(&good);
    if let Some(v) = setup_s {
        metrics.insert("setup_s".into(), v);
    }
    let attempted = ops.len();
    let failed = failures.len();
    metrics.insert("error_rate".into(), failed as f64 / attempted as f64);

    let op_times = ops
        .iter()
        .map(|(traced, o)| {
            let flow = o
                .as_ref()
                .ok()
                .and_then(|op| op.get("metrics")?.get("flow_s")?.as_f64());
            Json::obj(vec![
                ("traced", (*traced).into()),
                ("flow_s", flow.map_or(Json::Null, Json::Float)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("workload", w.name.into()),
        ("seed", args.seed.into()),
        ("traced", args.traced.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("failures", Json::Array(failures)),
        ("ops", Json::Array(op_times)),
        (
            "metrics",
            metrics_json(metrics.iter().map(|(k, &v)| (k.clone(), k.as_str(), v))),
        ),
    ]);
    WorkloadResult {
        metrics,
        attempted,
        failed,
        doc,
    }
}

/// `{name: {"value": v, "unit": u}}` for `(name, metric, value)`.
fn metrics_json<'a>(items: impl Iterator<Item = (String, &'a str, f64)>) -> Json {
    Json::Object(
        items
            .map(|(name, metric, v)| {
                let entry = Json::obj(vec![
                    ("value", v.into()),
                    ("unit", unit(metric).as_str().into()),
                ]);
                (name, entry)
            })
            .collect(),
    )
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The commit of the checkout, read from `.git` without running git (an
/// exported tree has no `.git`, and git would search the parents).
fn git_commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let Some(head) = read_trim(&format!("{git}/HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read_trim(&format!("{git}/{reference}"))
        .or_else(|| {
            read_trim(&format!("{git}/packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host and build every result was measured on.
fn host(seed: u64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512f) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512f) = (false, false);
    Json::obj(vec![
        ("available_parallelism", threads().into()),
        ("threads", threads().into()),
        ("cpu_model", cpu.as_str().into()),
        ("avx2", avx2.into()),
        ("avx512f", avx512f.into()),
        ("git_commit", git_commit().as_str().into()),
        ("seed", seed.into()),
    ])
}

fn write_json(path: &str, doc: &Json) {
    if let Err(e) = std::fs::write(path, doc.render_pretty() + "\n") {
        eprintln!("wbist-benchmark: cannot write `{path}`: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child") {
        child(&argv[1..]);
        return;
    }
    let args = parse_args(&argv);
    let host = host(args.seed);
    eprintln!("host {}", host.render());
    let mut trace_spans = Vec::new();
    let mut results = Vec::new();
    for w in &args.workloads {
        let r = run_workload(w, &args, &mut trace_spans);
        for (k, v) in &r.metrics {
            println!("{} {k} {v} {}", w.name, unit(k));
        }
        results.push((w, r));
    }
    let attempted: usize = results.iter().map(|(_, r)| r.attempted).sum();
    let failed: usize = results.iter().map(|(_, r)| r.failed).sum();

    if let Some(path) = &args.out {
        let workloads = results.iter().map(|(_, r)| r.doc.clone()).collect();
        let doc = Json::obj(vec![
            ("schema", "wbist-benchmark/v1".into()),
            ("host", host.clone()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("workloads", Json::Array(workloads)),
        ]);
        write_json(path, &doc);
    }
    if let Some(path) = &args.trace_file {
        let doc = Json::obj(vec![
            ("schema", "wbist-benchmark-trace/v1".into()),
            ("host", host),
            ("spans", Json::Array(trace_spans)),
        ]);
        write_json(path, &doc);
    }

    // The final line carries the declared metrics of the mode; with
    // several workloads each name is prefixed with its workload.
    let declared = declared();
    let single = results.len() == 1;
    let line = results.iter().flat_map(|(w, r)| {
        declared
            .iter()
            .filter(|d| d.end_to_end != args.traced)
            .filter_map(move |d| {
                let v = *r.metrics.get(&d.name)?;
                let name = if single {
                    d.name.clone()
                } else {
                    format!("{}.{}", w.name, d.name)
                };
                Some((name, d.name.as_str(), v))
            })
    });
    let summary = Json::obj(vec![
        ("correct", (failed == 0).into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics_json(line)),
    ]);
    println!("{}", summary.render());
    if failed > 0 {
        std::process::exit(1);
    }
}
