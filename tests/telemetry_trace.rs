//! Telemetry traces are deterministic data: running the same pipeline
//! with different simulator thread counts must produce byte-identical
//! trace JSON, because the trace carries only scheduling-independent
//! counters (simulated cycles, kept/dropped assignments, the fault-drop
//! curve) and never wall-clock times.

use wbist::circuits::s27;
use wbist::core::{
    observation_point_tradeoff, reverse_order_prune, ObsOptions, PruneOptions, RunOptions,
    Synthesis, SynthesisConfig, Telemetry,
};
use wbist::netlist::FaultList;

const L_G: usize = 100;

fn traced_pipeline(threads: usize) -> (Telemetry, String) {
    let tel = Telemetry::enabled();
    let run = RunOptions::with_threads(threads).telemetry(tel.clone());
    let c = s27::circuit();
    let t = s27::paper_test_sequence();
    let faults = FaultList::checkpoints(&c);
    let r = Synthesis::new(&c, &t, &faults)
        .config(SynthesisConfig {
            sequence_length: L_G,
            run: run.clone(),
            ..SynthesisConfig::default()
        })
        .run();
    assert!(r.coverage_guaranteed());
    let pruned = reverse_order_prune(
        &c,
        &faults,
        &r.omega,
        &PruneOptions::new(L_G).run(run.clone()),
    );
    assert!(!pruned.is_empty());
    let tr = observation_point_tradeoff(&c, &faults, &r.omega, &ObsOptions::new(L_G).run(run));
    assert!(!tr.rows.is_empty());
    let trace = tel.render_trace();
    (tel, trace)
}

#[test]
fn trace_is_byte_identical_across_thread_counts() {
    let (_, one) = traced_pipeline(1);
    let (_, four) = traced_pipeline(4);
    assert_eq!(one, four, "trace JSON must not depend on worker scheduling");
}

#[test]
fn trace_has_schema_phases_and_fault_drop_curve() {
    let (tel, trace) = traced_pipeline(2);
    assert!(trace.starts_with("{\n  \"schema\": \"wbist-trace/v1\""));
    for phase in ["\"synthesis\"", "\"prune\"", "\"obs\""] {
        assert!(trace.contains(phase), "missing phase {phase}");
    }
    // The fault-drop curve starts at the full target count and ends dry.
    let curve = tel.curve("fault_drop");
    assert!(!curve.is_empty());
    assert_eq!(curve[0], 32, "s27 has 32 checkpoint targets");
    assert_eq!(*curve.last().unwrap(), 0, "synthesis runs until dry");
    assert!(curve.windows(2).all(|w| w[1] <= w[0]), "monotone drop");
    // Simulation totals were attributed.
    assert!(tel.counter("sim.cycles") > 0);
    assert!(tel.counter("sim.batches") > 0);
    assert!(tel.counter("prune.kept") > 0);
    assert!(tel.counter("obs.rows") > 0);
    // Wall-clock only ever appears in the summary, not the trace.
    assert!(!trace.contains("wall"));
    assert!(tel.summary().contains("phase timings"));
}

#[test]
fn disabled_handle_exports_a_schema_stable_empty_trace() {
    let tel = Telemetry::disabled();
    assert!(!tel.is_enabled());
    let trace = tel.render_trace();
    assert!(trace.contains("wbist-trace/v1"));
    assert!(trace.contains("\"phases\""));
    assert!(trace.contains("\"counters\""));
    assert_eq!(tel.counter("sim.cycles"), 0);
}

/// Fault-free sweeps are effort: every layer reports the traces it
/// builds (`sim.good_sweeps`, `sim.good_lanes`), the `--progress`
/// summary lists them, and the deterministic trace never does — how
/// sequences are grouped into sweeps is a scheduling choice.
#[test]
fn good_machine_sweeps_are_effort_not_trace() {
    let (tel, trace) = traced_pipeline(2);
    let (sweeps, lanes) = (tel.effort("sim.good_sweeps"), tel.effort("sim.good_lanes"));
    assert!(
        sweeps > 0 && lanes > sweeps,
        "batched sweeps carry several lanes"
    );
    assert!(tel.effort("select.trace_gates_evaluated") > 0);
    let summary = tel.summary();
    for name in [
        "sim.good_sweeps",
        "sim.good_lanes",
        "select.trace_gates_evaluated",
    ] {
        assert!(summary.contains(name), "summary lists {name}");
        assert!(!trace.contains(name), "trace omits {name}");
    }
}
