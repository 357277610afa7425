//! Command implementations for the `wbist` CLI.

use crate::args::{parse, Parsed};
use std::fmt;
use std::path::PathBuf;
use wbist_atpg::{compact, AtpgConfig, CompactionConfig, SequenceAtpg};
use wbist_circuits::{structured, synthetic};
use wbist_core::{
    synthesize_hybrid, synthesize_weighted_bist, Checkpoint, HybridConfig, ObsOptions,
    PruneOptions, RunControl, Synthesis, SynthesisConfig,
};
use wbist_hw::{build_generator, build_hybrid_generator, generator_cost, to_verilog};
use wbist_netlist::{bench_format, circuit_stats, Circuit, FaultList, FaultModel, FaultUniverse};
use wbist_serve::ServeConfig;
use wbist_sim::{
    Budget, CancelToken, FaultSim, RunOptions, SimOptions, Telemetry, TestSequence,
    TruncationReason,
};

/// Top-level usage text.
pub const USAGE: &str = "usage:
  wbist stats   <circuit.bench>
  wbist faults  <circuit.bench> [--model checkpoints|collapsed|all]
                [--fault-model stuck-at|transition]
  wbist atpg    <circuit.bench> [--seed N] [--max-len N] [--no-compact] [-o seq.txt]
  wbist sim     <circuit.bench> <seq.txt> [--times]
  wbist synth   <circuit.bench> [--seq seq.txt] [--lg N] [--random N]
                [--verilog out.v] [--bench out.bench]
  wbist obs     <circuit.bench> [--seq seq.txt] [--lg N]
  wbist session <circuit.bench> [--seq seq.txt] [--lg N] [--misr N] [--capture N]
  wbist podem   <circuit.bench>           # scan-view classification
  wbist vcd     <circuit.bench> <seq.txt> [-o out.vcd]
  wbist gen     <name> [-o out.bench]
      names: s27, s208..s35932 (synthetic stand-ins),
             shift:N, count:N, lock:WIDTH:ARM, johnson:N
  wbist serve   [--socket PATH] [--workers N] [--job-threads N]
                [--max-queue N] [--retry-max N] [--retry-backoff-ms N]
                [--evict-after-ms N] [--ckpt-dir DIR]
      multi-tenant job daemon: line-delimited JSON requests on stdin
      (or a Unix socket), job events on stdout; SIGTERM or
      {\"op\":\"shutdown\"} drains running jobs to checkpoints
      (exit 2 when resumable work was left behind)
  global options (any command):
      --threads N     simulator worker threads (default: all cores)
      --kernel K      fault-sim kernel: compiled (default) | reference
      --trace FILE    write a deterministic JSON telemetry trace
      --progress      print a phase-timing summary to stderr
  fault selection (faults, atpg, sim, synth, obs, session, podem):
      --model M       fault universe: checkpoints (default) | collapsed | all
      --fault-model F fault model: stuck-at (default) | transition
                      (podem is stuck-at only)
  run control (budgets apply to any command; checkpoints to synth):
      --max-wall-secs S       stop after S seconds of wall clock
      --max-fault-cycles N    stop after N simulated fault-cycles
      --max-assignments N     stop after keeping N weight assignments
      --checkpoint FILE       write a resumable checkpoint after every
                              kept assignment (synth only)
      --resume FILE           continue a budget-truncated synth run from
                              its checkpoint, bit-identically
  exit codes: 0 complete, 2 budget truncated (valid partial results),
              1 usage or run error";

/// CLI error: usage problems print the help text; run errors print the
/// message only.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation.
    Usage(String),
    /// The command ran and failed.
    Run(Box<dyn std::error::Error>),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl<E: std::error::Error + 'static> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError::Run(Box::new(e))
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// How a command finished: completely, or cut short by a budget with
/// valid partial output. `main` maps these to exit codes 0 and 2; errors
/// exit 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdStatus {
    /// Everything ran to the end.
    Complete,
    /// A `--max-*` budget tripped; printed results are valid but partial.
    Truncated(TruncationReason),
}

/// Options shared by every command, stripped from the command line
/// before the per-command parse. `--threads` is validated here, once,
/// instead of in every command.
#[derive(Debug, Clone)]
pub struct Globals {
    /// Run options handed to every simulation-driven phase; armed with a
    /// cancellation token when any `--max-*` budget is given.
    pub run: RunOptions,
    /// `--trace FILE`: write the deterministic JSON telemetry trace.
    pub trace: Option<String>,
    /// `--progress`: print the wall-clock phase summary to stderr.
    pub progress: bool,
    /// `--checkpoint FILE`: resumable synthesis snapshots (synth only).
    pub checkpoint: Option<String>,
    /// `--resume FILE`: continue a truncated synth run (synth only).
    pub resume: Option<String>,
}

/// Strips the global options (`--threads N`, `--trace FILE`,
/// `--progress`, budgets, checkpointing) out of `argv`, returning the
/// remaining arguments and the validated globals.
fn extract_globals(argv: &[String]) -> Result<(Vec<String>, Globals), CliError> {
    let mut rest = Vec::new();
    let mut threads: Option<usize> = None;
    let mut reference_kernel = false;
    let mut trace: Option<String> = None;
    let mut progress = false;
    let mut budget = Budget::default();
    let mut checkpoint: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                let v = it.next().ok_or_else(|| usage("--threads needs a value"))?;
                let n: usize = v
                    .parse()
                    .map_err(|_| usage(format!("--threads: cannot parse `{v}`")))?;
                if n == 0 {
                    return Err(usage("--threads must be at least 1"));
                }
                threads = Some(n);
            }
            "--kernel" => {
                let v = it.next().ok_or_else(|| usage("--kernel needs a value"))?;
                reference_kernel = match v.as_str() {
                    "compiled" => false,
                    "reference" => true,
                    other => {
                        return Err(usage(format!(
                            "--kernel: expected `compiled` or `reference`, got `{other}`"
                        )))
                    }
                };
            }
            "--trace" => {
                let v = it.next().ok_or_else(|| usage("--trace needs a path"))?;
                trace = Some(v.clone());
            }
            "--progress" => progress = true,
            "--max-wall-secs" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage("--max-wall-secs needs a value"))?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| usage(format!("--max-wall-secs: cannot parse `{v}`")))?;
                if secs.is_nan() || secs <= 0.0 {
                    return Err(usage("--max-wall-secs must be positive"));
                }
                budget = budget.wall_secs(secs);
            }
            "--max-fault-cycles" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage("--max-fault-cycles needs a value"))?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| usage(format!("--max-fault-cycles: cannot parse `{v}`")))?;
                budget = budget.fault_cycles(n);
            }
            "--max-assignments" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage("--max-assignments needs a value"))?;
                let n: usize = v
                    .parse()
                    .map_err(|_| usage(format!("--max-assignments: cannot parse `{v}`")))?;
                if n == 0 {
                    return Err(usage("--max-assignments must be at least 1"));
                }
                budget = budget.max_assignments(n);
            }
            "--checkpoint" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage("--checkpoint needs a path"))?;
                checkpoint = Some(v.clone());
            }
            "--resume" => {
                let v = it.next().ok_or_else(|| usage("--resume needs a path"))?;
                resume = Some(v.clone());
            }
            _ => rest.push(a.clone()),
        }
    }
    let telemetry = if trace.is_some() || progress {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let cancel = if budget.is_unlimited() {
        CancelToken::unlimited()
    } else {
        CancelToken::for_budget(&budget)
    };
    let run = RunOptions::default().telemetry(telemetry).cancel(cancel);
    let run = RunOptions {
        sim: SimOptions {
            threads,
            reference_kernel,
        },
        ..run
    };
    Ok((
        rest,
        Globals {
            run,
            trace,
            progress,
            checkpoint,
            resume,
        },
    ))
}

/// Writes the trace file and/or the progress summary after a command.
fn finish(g: &Globals) -> Result<(), CliError> {
    if let Some(path) = &g.trace {
        std::fs::write(path, g.run.telemetry.render_trace())?;
        eprintln!("wrote {path}");
    }
    if g.progress {
        eprint!("{}", g.run.telemetry.summary());
    }
    Ok(())
}

/// Dispatches a command line.
pub fn dispatch(argv: &[String]) -> Result<CmdStatus, CliError> {
    // Globals may appear anywhere, including before the command.
    let (rest, g) = extract_globals(argv)?;
    let Some((cmd, rest)) = rest.split_first() else {
        return Err(usage("missing command"));
    };
    if (g.checkpoint.is_some() || g.resume.is_some()) && cmd != "synth" {
        return Err(usage(format!(
            "--checkpoint/--resume only apply to `synth`, not `{cmd}`"
        )));
    }
    let status = match cmd.as_str() {
        "stats" => cmd_stats(rest).map(|()| CmdStatus::Complete),
        "faults" => cmd_faults(rest).map(|()| CmdStatus::Complete),
        "atpg" => cmd_atpg(rest, &g).map(|()| CmdStatus::Complete),
        "sim" => cmd_sim(rest, &g).map(|()| CmdStatus::Complete),
        "synth" => cmd_synth(rest, &g),
        "obs" => cmd_obs(rest, &g).map(|()| CmdStatus::Complete),
        "session" => cmd_session(rest, &g).map(|()| CmdStatus::Complete),
        "podem" => cmd_podem(rest).map(|()| CmdStatus::Complete),
        "vcd" => cmd_vcd(rest).map(|()| CmdStatus::Complete),
        "gen" => cmd_gen(rest).map(|()| CmdStatus::Complete),
        "serve" => cmd_serve(rest, &g),
        "-h" | "--help" | "help" => {
            println!("{USAGE}");
            return Ok(CmdStatus::Complete);
        }
        other => return Err(usage(format!("unknown command `{other}`"))),
    }?;
    finish(&g)?;
    // A budget that tripped inside any phase surfaces as truncation even
    // when the command itself has no dedicated run-control path.
    match (status, g.run.cancel.cancelled()) {
        (CmdStatus::Complete, Some(reason)) => Ok(CmdStatus::Truncated(reason)),
        _ => Ok(status),
    }
}

/// Parses a command's own arguments strictly: `value_keys` take a
/// value, `flags` are the boolean switches the command knows, and at
/// most `max_pos` positional arguments are accepted. Anything else is a
/// usage error, so a misspelled or retired option is refused rather
/// than silently ignored.
fn parse_cmd(
    cmd: &str,
    argv: &[String],
    value_keys: &[&str],
    flags: &[&str],
    max_pos: usize,
) -> Result<Parsed, CliError> {
    let p = parse(argv, value_keys).map_err(usage)?;
    if let Some(f) = p.unknown_flag(flags) {
        return Err(usage(format!("{cmd}: unknown option `--{f}`")));
    }
    if let Some(extra) = p.pos(max_pos) {
        return Err(usage(format!("{cmd}: unexpected argument `{extra}`")));
    }
    Ok(p)
}

fn load_circuit(path: &str) -> Result<Circuit, CliError> {
    let text = std::fs::read_to_string(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    Ok(bench_format::parse(name, &text)?)
}

fn load_sequence(path: &str) -> Result<TestSequence, CliError> {
    let text = std::fs::read_to_string(path)?;
    let rows: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    Ok(TestSequence::parse_rows(&rows)?)
}

fn cmd_stats(argv: &[String]) -> Result<(), CliError> {
    let p = parse_cmd("stats", argv, &[], &[], 1)?;
    let path = p.pos(0).ok_or_else(|| usage("stats needs a .bench file"))?;
    let c = load_circuit(path)?;
    println!("circuit {}", c.name());
    println!("{}", circuit_stats(&c));
    println!(
        "faults: {} checkpoint, {} collapsed, {} uncollapsed",
        FaultList::checkpoints(&c).len(),
        FaultList::collapsed(&c).len(),
        FaultList::all_lines(&c).len()
    );
    Ok(())
}

fn fault_model(name: Option<&str>) -> Result<FaultModel, CliError> {
    match name {
        None => Ok(FaultModel::StuckAt),
        Some(s) => FaultModel::parse(s).ok_or_else(|| {
            usage(format!(
                "unknown fault model `{s}` (expected stuck-at or transition)"
            ))
        }),
    }
}

fn fault_list(
    c: &Circuit,
    universe: Option<&str>,
    model: Option<&str>,
) -> Result<FaultList, CliError> {
    let fm = fault_model(model)?;
    Ok(match universe.unwrap_or("checkpoints") {
        "checkpoints" => FaultUniverse::checkpoints(fm, c),
        "collapsed" => FaultUniverse::collapsed(fm, c),
        "all" => FaultUniverse::enumerate(fm, c),
        other => return Err(usage(format!("unknown fault universe `{other}`"))),
    })
}

fn cmd_faults(argv: &[String]) -> Result<(), CliError> {
    let p = parse_cmd("faults", argv, &["model", "fault-model"], &[], 1)?;
    let path = p
        .pos(0)
        .ok_or_else(|| usage("faults needs a .bench file"))?;
    let c = load_circuit(path)?;
    let fl = fault_list(&c, p.opt("model"), p.opt("fault-model"))?;
    for (i, f) in fl.iter().enumerate() {
        println!("f{i}: {}", f.describe(&c));
    }
    eprintln!("{} faults", fl.len());
    Ok(())
}

fn cmd_atpg(argv: &[String], g: &Globals) -> Result<(), CliError> {
    let p = parse_cmd(
        "atpg",
        argv,
        &["seed", "max-len", "o", "model", "fault-model"],
        &["no-compact"],
        1,
    )?;
    let path = p.pos(0).ok_or_else(|| usage("atpg needs a .bench file"))?;
    let c = load_circuit(path)?;
    let faults = fault_list(&c, p.opt("model"), p.opt("fault-model"))?;
    let mut cfg = AtpgConfig::default();
    if let Some(seed) = p.opt_parse::<u64>("seed").map_err(usage)? {
        cfg.seed = seed;
    }
    if let Some(ml) = p.opt_parse::<usize>("max-len").map_err(usage)? {
        cfg.max_len = ml;
    }
    let tel = &g.run.telemetry;
    let result = {
        let _span = tel.span("atpg.generate");
        SequenceAtpg::new(&c, cfg).run(&faults)
    };
    let seq = if p.flag("no-compact") {
        result.sequence.clone()
    } else {
        let _span = tel.span("atpg.compact");
        compact(&c, &faults, &result.sequence, &CompactionConfig::default())
    };
    eprintln!(
        "{} vectors ({} before compaction), coverage {:.2}% of {} faults",
        seq.len(),
        result.sequence.len(),
        100.0 * result.coverage(),
        faults.len()
    );
    match p.opt("o") {
        Some(out) => std::fs::write(out, format!("{seq}\n"))?,
        None => println!("{seq}"),
    }
    Ok(())
}

fn cmd_sim(argv: &[String], g: &Globals) -> Result<(), CliError> {
    let p = parse_cmd("sim", argv, &["model", "fault-model"], &["times"], 2)?;
    let (path, seq_path) = match (p.pos(0), p.pos(1)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(usage("sim needs a .bench file and a sequence file")),
    };
    let c = load_circuit(path)?;
    let seq = load_sequence(seq_path)?;
    let faults = fault_list(&c, p.opt("model"), p.opt("fault-model"))?;
    let times = FaultSim::with_run_options(&c, &g.run)
        .query(&faults)
        .sequence(&seq)
        .detection_times();
    let det = times.iter().filter(|t| t.is_some()).count();
    println!(
        "{}/{} faults detected ({:.2}%) by {} vectors",
        det,
        faults.len(),
        100.0 * det as f64 / faults.len().max(1) as f64,
        seq.len()
    );
    if p.flag("times") {
        for (i, (f, t)) in faults.iter().zip(&times).enumerate() {
            match t {
                Some(u) => println!("f{i}: u={u}  {}", f.describe(&c)),
                None => println!("f{i}: undetected  {}", f.describe(&c)),
            }
        }
    }
    Ok(())
}

fn cmd_synth(argv: &[String], g: &Globals) -> Result<CmdStatus, CliError> {
    let p = parse_cmd(
        "synth",
        argv,
        &[
            "seq",
            "lg",
            "random",
            "verilog",
            "bench",
            "model",
            "fault-model",
            "seed",
        ],
        &[],
        1,
    )?;
    let path = p.pos(0).ok_or_else(|| usage("synth needs a .bench file"))?;
    let c = load_circuit(path)?;
    let faults = fault_list(&c, p.opt("model"), p.opt("fault-model"))?;

    // Deterministic sequence: from a file or from the built-in ATPG.
    let t = match p.opt("seq") {
        Some(sp) => load_sequence(sp)?,
        None => {
            let mut cfg = AtpgConfig::default();
            if let Some(seed) = p.opt_parse::<u64>("seed").map_err(usage)? {
                cfg.seed = seed;
            }
            let r = SequenceAtpg::new(&c, cfg).run(&faults);
            let t = compact(&c, &faults, &r.sequence, &CompactionConfig::default());
            eprintln!(
                "ATPG produced {} vectors (coverage {:.2}%)",
                t.len(),
                100.0 * r.coverage()
            );
            t
        }
    };

    let l_g = p
        .opt_parse::<usize>("lg")
        .map_err(usage)?
        .unwrap_or_else(|| (2 * t.len()).max(256));
    let random_sessions = p.opt_parse::<usize>("random").map_err(usage)?.unwrap_or(0);
    let syn_cfg = SynthesisConfig {
        sequence_length: l_g,
        run: g.run.clone(),
        ..SynthesisConfig::default()
    };

    let mut truncated: Option<TruncationReason> = None;
    let (omega, guaranteed, subs, random_note) = if random_sessions > 0 {
        if g.checkpoint.is_some() || g.resume.is_some() {
            return Err(usage(
                "--checkpoint/--resume do not support the hybrid (--random) flow",
            ));
        }
        let r = synthesize_hybrid(
            &c,
            &t,
            &faults,
            &HybridConfig {
                random_sessions,
                synthesis: syn_cfg.clone(),
                ..HybridConfig::default()
            },
        );
        let note = format!(
            " (random phase detected {} of {})",
            r.random_count(),
            faults.len()
        );
        (
            r.synthesis.omega.clone(),
            r.coverage_guaranteed(),
            r.synthesis.distinct_subsequences().len(),
            note,
        )
    } else {
        let ctl = RunControl {
            // The globals already armed `run.cancel` with the budget;
            // run_controlled reuses that token.
            budget: Budget::default(),
            checkpoint: g.checkpoint.as_ref().map(PathBuf::from),
        };
        let mut syn = Synthesis::new(&c, &t, &faults).config(syn_cfg.clone());
        if let Some(path) = &g.resume {
            let ckpt = Checkpoint::load(std::path::Path::new(path))?;
            syn = syn.resume_from(ckpt)?;
            eprintln!("resuming from {path}");
        }
        let outcome = syn.run_controlled(&ctl);
        truncated = outcome.truncation();
        let r = outcome.into_result();
        (
            r.omega.clone(),
            r.coverage_guaranteed(),
            r.distinct_subsequences().len(),
            String::new(),
        )
    };
    if let Some(reason) = truncated {
        eprintln!("synthesis truncated: {reason} (partial results below are valid)");
    }

    let pruned = wbist_core::reverse_order_prune(
        &c,
        &faults,
        &omega,
        &PruneOptions::new(l_g).run(g.run.clone()),
    );
    println!(
        "L_G = {l_g}: {} assignments ({} after pruning), {} distinct subsequences{}",
        omega.len(),
        pruned.len(),
        subs,
        random_note
    );
    println!(
        "coverage guarantee: {}",
        if guaranteed { "met" } else { "NOT met" }
    );
    for (k, sel) in pruned.iter().enumerate() {
        println!(
            "  Ω_{k}: {} (u={}, rank {})",
            sel.assignment, sel.detection_time, sel.rank
        );
    }

    let status = match truncated {
        Some(reason) => CmdStatus::Truncated(reason),
        None => CmdStatus::Complete,
    };
    if pruned.is_empty() {
        eprintln!("nothing to synthesize hardware for");
        return Ok(status);
    }
    if random_sessions > 0 {
        let gen = build_hybrid_generator(&pruned, l_g, random_sessions, 24)?;
        print_hw(&gen.circuit, p.opt("verilog"), p.opt("bench"))?;
        println!(
            "hybrid generator: {} random + {} weighted sessions",
            gen.num_random_sessions, gen.num_assignments
        );
    } else {
        let gen = build_generator(&pruned, l_g)?;
        let cost = generator_cost(&gen);
        cost.record(&g.run.telemetry);
        println!("{cost}");
        print_hw(&gen.circuit, p.opt("verilog"), p.opt("bench"))?;
    }
    Ok(status)
}

fn print_hw(circuit: &Circuit, verilog: Option<&str>, bench: Option<&str>) -> Result<(), CliError> {
    if let Some(path) = verilog {
        std::fs::write(path, to_verilog(circuit))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = bench {
        std::fs::write(path, bench_format::write(circuit))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Produces the deterministic sequence for commands that need one: from
/// `--seq`, or from the built-in ATPG.
fn sequence_for(c: &Circuit, faults: &FaultList, p: &Parsed) -> Result<TestSequence, CliError> {
    match p.opt("seq") {
        Some(sp) => load_sequence(sp),
        None => {
            let r = SequenceAtpg::new(c, AtpgConfig::default()).run(faults);
            Ok(compact(
                c,
                faults,
                &r.sequence,
                &CompactionConfig::default(),
            ))
        }
    }
}

fn cmd_obs(argv: &[String], g: &Globals) -> Result<(), CliError> {
    let p = parse_cmd("obs", argv, &["seq", "lg", "model", "fault-model"], &[], 1)?;
    let path = p.pos(0).ok_or_else(|| usage("obs needs a .bench file"))?;
    let c = load_circuit(path)?;
    let faults = fault_list(&c, p.opt("model"), p.opt("fault-model"))?;
    let t = sequence_for(&c, &faults, &p)?;
    let l_g = p
        .opt_parse::<usize>("lg")
        .map_err(usage)?
        .unwrap_or_else(|| (2 * t.len()).max(256));
    let r = synthesize_weighted_bist(
        &c,
        &t,
        &faults,
        &SynthesisConfig {
            sequence_length: l_g,
            run: g.run.clone(),
            ..SynthesisConfig::default()
        },
    );
    let tr = wbist_core::observation_point_tradeoff(
        &c,
        &faults,
        &r.omega,
        &ObsOptions::new(l_g).run(g.run.clone()),
    );
    println!("seq   sub   len    f.e.   obs    f.e.(obs)");
    for row in &tr.rows {
        println!(
            "{:>3} {:>5} {:>5} {:>7.2} {:>5} {:>9.2}",
            row.num_assignments,
            row.num_subsequences,
            row.max_len,
            row.fault_efficiency,
            row.num_obs,
            row.fe_with_obs
        );
    }
    Ok(())
}

fn cmd_session(argv: &[String], g: &Globals) -> Result<(), CliError> {
    let p = parse_cmd(
        "session",
        argv,
        &["seq", "lg", "misr", "capture", "model", "fault-model"],
        &[],
        1,
    )?;
    let path = p
        .pos(0)
        .ok_or_else(|| usage("session needs a .bench file"))?;
    let c = load_circuit(path)?;
    let faults = fault_list(&c, p.opt("model"), p.opt("fault-model"))?;
    let t = sequence_for(&c, &faults, &p)?;
    let l_g = p
        .opt_parse::<usize>("lg")
        .map_err(usage)?
        .unwrap_or_else(|| (2 * t.len()).max(256));
    let r = synthesize_weighted_bist(
        &c,
        &t,
        &faults,
        &SynthesisConfig {
            sequence_length: l_g,
            run: g.run.clone(),
            ..SynthesisConfig::default()
        },
    );
    if r.omega.is_empty() {
        eprintln!("no weight assignments were selected");
        return Ok(());
    }
    let report = wbist_core::run_bist_session(
        &c,
        &faults,
        &r.omega,
        &wbist_core::SessionConfig {
            misr_width: p.opt_parse::<usize>("misr").map_err(usage)?.unwrap_or(16),
            sequence_length: l_g,
            capture_from: p.opt_parse::<usize>("capture").map_err(usage)?.unwrap_or(8),
            run: g.run.clone(),
        },
    );
    println!(
        "observed {} / signature {} of {} faults ({} lost to aliasing/X; golden {})",
        report.observed(),
        report.signed(),
        faults.len(),
        report.lost_in_signature,
        if report.golden_known {
            "clean"
        } else {
            "contains X"
        }
    );
    Ok(())
}

fn cmd_podem(argv: &[String]) -> Result<(), CliError> {
    use wbist_atpg::{Podem, PodemConfig, PodemResult};
    let p = parse_cmd("podem", argv, &["model", "fault-model"], &[], 1)?;
    let path = p.pos(0).ok_or_else(|| usage("podem needs a .bench file"))?;
    let c = load_circuit(path)?;
    let scan = wbist_netlist::transform::full_scan(&c)?;
    if fault_model(p.opt("fault-model"))? != FaultModel::StuckAt {
        return Err(usage(
            "podem generates single-vector stuck-at tests; --fault-model transition is not supported",
        ));
    }
    let faults = fault_list(&scan, p.opt("model"), None)?;
    let podem = Podem::new(&scan, PodemConfig::default());
    let mut tested = 0usize;
    let mut redundant = 0usize;
    let mut aborted = 0usize;
    for (i, &f) in faults.faults().iter().enumerate() {
        match podem.generate(f) {
            PodemResult::Test(_) => tested += 1,
            PodemResult::Redundant => {
                redundant += 1;
                println!("f{i}: redundant  {}", f.describe(&scan));
            }
            PodemResult::Aborted => {
                aborted += 1;
                println!("f{i}: aborted    {}", f.describe(&scan));
            }
        }
    }
    println!(
        "scan view: {} testable, {} redundant, {} aborted of {} faults",
        tested,
        redundant,
        aborted,
        faults.len()
    );
    Ok(())
}

fn cmd_vcd(argv: &[String]) -> Result<(), CliError> {
    let p = parse_cmd("vcd", argv, &["o"], &[], 2)?;
    let (path, seq_path) = match (p.pos(0), p.pos(1)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(usage("vcd needs a .bench file and a sequence file")),
    };
    let c = load_circuit(path)?;
    let seq = load_sequence(seq_path)?;
    let trace = wbist_sim::LogicSim::new(&c).trace(&seq)?;
    let vcd = wbist_sim::vcd::trace_to_vcd(&c, &trace, c.name());
    match p.opt("o") {
        Some(out) => {
            std::fs::write(out, vcd)?;
            eprintln!("wrote {out}");
        }
        None => print!("{vcd}"),
    }
    Ok(())
}

fn cmd_gen(argv: &[String]) -> Result<(), CliError> {
    let p = parse_cmd("gen", argv, &["o"], &[], 1)?;
    let name = p.pos(0).ok_or_else(|| usage("gen needs a circuit name"))?;
    let circuit = build_named(name)?;
    let text = bench_format::write(&circuit);
    match p.opt("o") {
        Some(out) => {
            std::fs::write(out, &text)?;
            eprintln!("wrote {out}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_serve(argv: &[String], g: &Globals) -> Result<CmdStatus, CliError> {
    let p = parse_cmd(
        "serve",
        argv,
        &[
            "socket",
            "workers",
            "job-threads",
            "max-queue",
            "retry-max",
            "retry-backoff-ms",
            "evict-after-ms",
            "ckpt-dir",
        ],
        &[],
        0,
    )?;
    // `--trace`/`--progress` enable telemetry through the globals; the
    // daemon's `serve.*` counters land in the same trace file.
    let mut cfg = ServeConfig {
        handle_signals: true,
        telemetry: g.run.telemetry.clone(),
        ..ServeConfig::default()
    };
    if let Some(n) = p.opt_parse::<usize>("workers").map_err(usage)? {
        if n == 0 {
            return Err(usage("--workers must be at least 1"));
        }
        cfg.workers = n;
    }
    if let Some(n) = p.opt_parse::<usize>("job-threads").map_err(usage)? {
        if n == 0 {
            return Err(usage("--job-threads must be at least 1"));
        }
        cfg.job_threads = n;
    }
    if let Some(n) = p.opt_parse::<usize>("max-queue").map_err(usage)? {
        cfg.max_queue = n;
    }
    if let Some(n) = p.opt_parse::<u32>("retry-max").map_err(usage)? {
        cfg.retry_max = n;
    }
    if let Some(n) = p.opt_parse::<u64>("retry-backoff-ms").map_err(usage)? {
        cfg.retry_backoff_ms = n;
    }
    cfg.evict_after_ms = p.opt_parse::<u64>("evict-after-ms").map_err(usage)?;
    cfg.ckpt_dir = p.opt("ckpt-dir").map(PathBuf::from);
    let summary = match p.opt("socket") {
        #[cfg(unix)]
        Some(path) => wbist_serve::serve_unix_socket(
            cfg,
            std::path::Path::new(path),
            Box::new(std::io::stdout()),
        )?,
        #[cfg(not(unix))]
        Some(_) => return Err(usage("--socket needs a Unix platform")),
        None => wbist_serve::serve(
            cfg,
            std::io::BufReader::new(std::io::stdin()),
            Box::new(std::io::stdout()),
        )?,
    };
    eprintln!(
        "serve: {} attempts, {} evicted to checkpoints, {} left queued",
        summary.attempts, summary.evicted_at_shutdown, summary.left_queued
    );
    if summary.truncated {
        // Resumable work was drained to disk: the documented "valid
        // partial output" condition, same as a tripped budget.
        Ok(CmdStatus::Truncated(TruncationReason::Preempted))
    } else {
        Ok(CmdStatus::Complete)
    }
}

fn build_named(name: &str) -> Result<Circuit, CliError> {
    if let Some(c) = synthetic::by_name(name) {
        return Ok(c);
    }
    let parts: Vec<&str> = name.split(':').collect();
    let parse_n = |s: &str| -> Result<usize, CliError> {
        s.parse::<usize>()
            .map_err(|_| usage(format!("bad size `{s}` in `{name}`")))
    };
    match parts.as_slice() {
        ["shift", n] => Ok(structured::shift_register(parse_n(n)?)),
        ["count", n] => Ok(structured::counter(parse_n(n)?)),
        ["johnson", n] => Ok(structured::johnson_counter(parse_n(n)?)),
        ["lock", w, a] => Ok(structured::sequence_lock(parse_n(w)?, parse_n(a)?)),
        _ => Err(usage(format!("unknown circuit `{name}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_command_is_usage_error() {
        assert!(matches!(
            dispatch(&argv(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(dispatch(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn help_succeeds() {
        dispatch(&argv(&["help"])).expect("help works");
    }

    #[test]
    fn zero_threads_is_rejected_once_for_every_command() {
        for cmd in ["sim", "synth", "obs", "session", "stats"] {
            let e = dispatch(&argv(&[cmd, "x.bench", "--threads", "0"]));
            match e {
                Err(CliError::Usage(msg)) => {
                    assert!(msg.contains("--threads"), "{cmd}: {msg}")
                }
                other => panic!("{cmd}: expected usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn trace_file_is_written_and_thread_invariant() {
        let dir = std::env::temp_dir().join(format!("wbist-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let bench = dir.join("s27.bench");
        let seq = dir.join("seq.txt");
        dispatch(&argv(&["gen", "s27", "-o", bench.to_str().expect("utf8")])).expect("gen");
        dispatch(&argv(&[
            "atpg",
            bench.to_str().expect("utf8"),
            "--max-len",
            "600",
            "-o",
            seq.to_str().expect("utf8"),
        ]))
        .expect("atpg");
        let mut traces = Vec::new();
        for threads in ["1", "4"] {
            let out = dir.join(format!("trace{threads}.json"));
            dispatch(&argv(&[
                "synth",
                bench.to_str().expect("utf8"),
                "--seq",
                seq.to_str().expect("utf8"),
                "--lg",
                "64",
                "--threads",
                threads,
                "--trace",
                out.to_str().expect("utf8"),
            ]))
            .expect("synth with trace");
            traces.push(std::fs::read_to_string(&out).expect("trace written"));
        }
        assert_eq!(
            traces[0], traces[1],
            "trace must be byte-identical across thread counts"
        );
        assert!(traces[0].contains("wbist-trace/v1"));
        assert!(traces[0].contains("fault_drop"));
        assert!(traces[0].contains("\"synthesis\""));
        assert!(traces[0].contains("\"prune\""));
        assert!(traces[0].contains("hw.gates"));
        std::fs::remove_dir_all(&dir).ok();
    }

    // One test per exit-code class: 0 = Ok(Complete), 2 = Ok(Truncated),
    // 1 = Err(Usage | Run). `main` maps these one to one.
    #[test]
    fn complete_runs_report_complete() {
        assert_eq!(
            dispatch(&argv(&["help"])).expect("help works"),
            CmdStatus::Complete
        );
    }

    #[test]
    fn tiny_budget_reports_truncated() {
        let dir = std::env::temp_dir().join(format!("wbist-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let bench = dir.join("s27.bench");
        dispatch(&argv(&["gen", "s27", "-o", bench.to_str().expect("utf8")])).expect("gen");
        let status = dispatch(&argv(&[
            "synth",
            bench.to_str().expect("utf8"),
            "--lg",
            "64",
            "--max-assignments",
            "1",
        ]))
        .expect("truncation is not an error");
        assert!(matches!(status, CmdStatus::Truncated(_)), "{status:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A wall budget beyond any representable deadline never trips: the
    /// run completes instead of panicking while arming the token.
    #[test]
    fn unrepresentable_wall_budget_runs_to_completion() {
        let dir = std::env::temp_dir().join(format!("wbist-wall-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let bench = dir.join("s27.bench");
        let bench = bench.to_str().expect("utf8");
        dispatch(&argv(&["gen", "s27", "-o", bench])).expect("gen");
        for secs in ["inf", "1e19"] {
            let status = dispatch(&argv(&[
                "synth",
                bench,
                "--lg",
                "64",
                "--max-wall-secs",
                secs,
            ]))
            .expect("an unreachable deadline is no error");
            assert_eq!(status, CmdStatus::Complete, "--max-wall-secs {secs}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn usage_and_run_failures_are_errors() {
        // Usage: bad flag value.
        assert!(matches!(
            dispatch(&argv(&["synth", "x.bench", "--max-assignments", "0"])),
            Err(CliError::Usage(_))
        ));
        // Usage: checkpointing outside synth.
        assert!(matches!(
            dispatch(&argv(&["stats", "x.bench", "--checkpoint", "c.ckpt"])),
            Err(CliError::Usage(_))
        ));
        // Run: missing input file.
        assert!(matches!(
            dispatch(&argv(&["stats", "/nonexistent/x.bench"])),
            Err(CliError::Run(_))
        ));
    }

    #[test]
    fn unknown_and_retired_options_are_usage_errors() {
        // Retired flags are refused, not passed through or ignored.
        for bad in [&["--speculation", "4"][..], &["--no-cone-seeding"][..]] {
            for cmd in ["synth", "obs", "session", "sim", "stats"] {
                let mut line = argv(&[cmd, "x.bench"]);
                line.extend(argv(bad));
                match dispatch(&line) {
                    Err(CliError::Usage(msg)) => assert!(msg.contains(&bad[0][2..]), "{msg}"),
                    other => panic!("{cmd} {bad:?}: expected usage error, got {other:?}"),
                }
            }
        }
        // A stray positional is refused too.
        assert!(matches!(
            dispatch(&argv(&["synth", "x.bench", "extra"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn synth_checkpoint_resume_round_trip() {
        let dir = std::env::temp_dir().join(format!("wbist-cli-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let bench = dir.join("s27.bench");
        let seq = dir.join("seq.txt");
        let ckpt = dir.join("synth.ckpt");
        dispatch(&argv(&["gen", "s27", "-o", bench.to_str().expect("utf8")])).expect("gen");
        dispatch(&argv(&[
            "atpg",
            bench.to_str().expect("utf8"),
            "--max-len",
            "600",
            "-o",
            seq.to_str().expect("utf8"),
        ]))
        .expect("atpg");
        let base = [
            "synth",
            bench.to_str().expect("utf8"),
            "--seq",
            seq.to_str().expect("utf8"),
            "--lg",
            "64",
        ];
        let mut cut = argv(&base);
        cut.extend(argv(&[
            "--max-assignments",
            "1",
            "--checkpoint",
            ckpt.to_str().expect("utf8"),
        ]));
        let status = dispatch(&cut).expect("truncated synth runs");
        assert!(matches!(status, CmdStatus::Truncated(_)));
        assert!(ckpt.exists(), "checkpoint written");

        let mut resumed = argv(&base);
        resumed.extend(argv(&["--resume", ckpt.to_str().expect("utf8")]));
        assert_eq!(
            dispatch(&resumed).expect("resume completes"),
            CmdStatus::Complete
        );

        // Resuming against a different configuration is rejected.
        let mut wrong = argv(&base);
        wrong[5] = "48".to_string(); // different --lg
        wrong.extend(argv(&["--resume", ckpt.to_str().expect("utf8")]));
        assert!(matches!(dispatch(&wrong), Err(CliError::Run(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_builds_named_circuits() {
        for n in ["s27", "s298", "shift:4", "count:3", "lock:4:2", "johnson:5"] {
            let c = build_named(n).expect(n);
            assert!(c.is_levelized());
        }
        assert!(build_named("nope").is_err());
        assert!(build_named("shift:x").is_err());
    }

    #[test]
    fn end_to_end_through_tempdir() {
        let dir = std::env::temp_dir().join(format!("wbist-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let bench = dir.join("s27.bench");
        let seq = dir.join("seq.txt");

        // gen → file
        dispatch(&argv(&["gen", "s27", "-o", bench.to_str().expect("utf8")])).expect("gen works");
        // stats
        dispatch(&argv(&["stats", bench.to_str().expect("utf8")])).expect("stats works");
        // atpg → file
        dispatch(&argv(&[
            "atpg",
            bench.to_str().expect("utf8"),
            "--max-len",
            "600",
            "-o",
            seq.to_str().expect("utf8"),
        ]))
        .expect("atpg works");
        // sim
        dispatch(&argv(&[
            "sim",
            bench.to_str().expect("utf8"),
            seq.to_str().expect("utf8"),
        ]))
        .expect("sim works");
        // synth with Verilog output
        let v = dir.join("gen.v");
        dispatch(&argv(&[
            "synth",
            bench.to_str().expect("utf8"),
            "--seq",
            seq.to_str().expect("utf8"),
            "--verilog",
            v.to_str().expect("utf8"),
        ]))
        .expect("synth works");
        assert!(v.exists());
        let text = std::fs::read_to_string(&v).expect("readable");
        assert!(text.contains("module weight_test_generator"));

        // obs / session / podem / vcd also run end to end.
        dispatch(&argv(&[
            "obs",
            bench.to_str().expect("utf8"),
            "--seq",
            seq.to_str().expect("utf8"),
            "--lg",
            "64",
        ]))
        .expect("obs works");
        dispatch(&argv(&[
            "session",
            bench.to_str().expect("utf8"),
            "--seq",
            seq.to_str().expect("utf8"),
            "--lg",
            "64",
        ]))
        .expect("session works");
        dispatch(&argv(&["podem", bench.to_str().expect("utf8")])).expect("podem works");
        let wave = dir.join("trace.vcd");
        dispatch(&argv(&[
            "vcd",
            bench.to_str().expect("utf8"),
            seq.to_str().expect("utf8"),
            "-o",
            wave.to_str().expect("utf8"),
        ]))
        .expect("vcd works");
        assert!(wave.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
