//! Forced-failure resilience suite, compiled only with the
//! `failpoints` feature: each named fault-injection site is armed in
//! turn and the pipeline must recover — never abort the process.
//!
//! ```text
//! cargo test --features failpoints --test failpoints_suite
//! ```
#![cfg(feature = "failpoints")]

mod common;

use common::{benchmark, failpoints_serialized as serialized, lfsr_sequence, scratch_dir};
use wbist::circuits::s27;
use wbist::core::{RunControl, RunOptions, Synthesis, SynthesisConfig, Telemetry};
use wbist::netlist::{bench_format, FaultList, NetlistError};
use wbist::sim::{FaultSim, SimOptions};
use wbist::telemetry::failpoint;

/// A forced panic in the compiled batch kernel is caught, retried on
/// the reference kernel, and the run completes with correct detections
/// — the process never aborts, and the retry is reported as a trace
/// event rather than on stderr.
#[test]
fn batch_kernel_panic_recovers_via_reference_retry() {
    let _guard = serialized();
    let c = benchmark("s1196");
    let faults = FaultList::checkpoints(&c);
    assert!(faults.len() > 63, "needs a multi-batch run");
    let seq = lfsr_sequence(&c, 128);
    let want = FaultSim::with_options(&c, SimOptions::with_threads(1))
        .query(&faults)
        .sequence(&seq)
        .detected();

    failpoint::arm("sim.batch_kernel", 1);
    let tel = Telemetry::enabled();
    let got = FaultSim::with_options(&c, SimOptions::with_threads(1))
        .telemetry(tel.clone())
        .query(&faults)
        .sequence(&seq)
        .detected();
    failpoint::reset();

    assert_eq!(got, want, "retried run must report the same detections");
    assert!(
        tel.counter("sim.batch_panics") >= 1,
        "the forced panic must be recorded"
    );
    assert!(
        tel.render_trace().contains("\"sim.batch_retried\""),
        "the retry must be reported as a telemetry event"
    );
}

/// Repeated panics across a run: every armed firing is isolated to its
/// batch and retried; detections still come out right.
#[test]
fn repeated_batch_panics_still_complete() {
    let _guard = serialized();
    let c = benchmark("s1196");
    let faults = FaultList::checkpoints(&c);
    let seq = lfsr_sequence(&c, 64);
    let want = FaultSim::with_options(&c, SimOptions::with_threads(1))
        .query(&faults)
        .sequence(&seq)
        .count();

    failpoint::arm("sim.batch_kernel", 3);
    let tel = Telemetry::enabled();
    let got = FaultSim::with_options(&c, SimOptions::with_threads(1))
        .telemetry(tel.clone())
        .query(&faults)
        .sequence(&seq)
        .count();
    failpoint::reset();

    assert_eq!(got, want);
    assert!(tel.counter("sim.batch_panics") >= 3);
}

/// A forced checkpoint-write failure is non-fatal: the synthesis run
/// carries on to completion and reports the failure as a telemetry
/// event.
#[test]
fn checkpoint_write_failure_does_not_kill_the_run() {
    let _guard = serialized();
    let c = s27::circuit();
    let t = s27::paper_test_sequence();
    let faults = FaultList::checkpoints(&c);
    let path = scratch_dir("failpoint-ckpt").join("forced-failure.ckpt");

    failpoint::arm("core.checkpoint_write", 1);
    let tel = Telemetry::enabled();
    let outcome = Synthesis::new(&c, &t, &faults)
        .config(SynthesisConfig {
            sequence_length: 100,
            run: RunOptions::default().telemetry(tel.clone()),
            ..SynthesisConfig::default()
        })
        .run_controlled(&RunControl::default().checkpoint(&path));
    failpoint::reset();

    assert!(!outcome.is_truncated());
    let result = outcome.into_result();
    assert!(result.coverage_guaranteed());
    assert!(tel.render_trace().contains("\"runctl.checkpoint_failed\""));
    std::fs::remove_file(&path).ok();
}

/// A forced `.bench` parse failure surfaces as the typed parse error —
/// and the parser works again once the site is spent.
#[test]
fn bench_parse_failpoint_is_a_typed_error() {
    let _guard = serialized();
    let c = s27::circuit();
    let text = bench_format::write(&c);

    failpoint::arm("netlist.bench_parse", 1);
    let err = bench_format::parse("forced", &text).unwrap_err();
    assert!(
        matches!(err, NetlistError::Parse { .. }),
        "expected a parse error, got {err}"
    );
    assert!(err.to_string().contains("failpoint"));

    // The site fired once; parsing recovers immediately after.
    let c2 = bench_format::parse("recovered", &text).expect("parses after the site is spent");
    assert_eq!(c2.num_gates(), c.num_gates());
    failpoint::reset();
}
