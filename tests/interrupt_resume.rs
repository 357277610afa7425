//! Deterministic checkpoint/resume under fault-cycle budgets, end to
//! end on the larger benchmark stand-ins: a synthesis run truncated at
//! an *arbitrary* point (whatever assignment a fault-cycle budget
//! happens to interrupt) and then resumed from its checkpoint must be
//! bit-identical to the uninterrupted run — same `Ω`, same detection
//! flags, same abandonment flags, and the same telemetry counters.

mod common;

use common::{benchmark, lfsr_sequence, scratch_dir, subsampled_targets};
use std::path::Path;
use wbist::core::{
    Budget, CancelToken, Checkpoint, RunControl, RunOptions, Synthesis, SynthesisConfig, Telemetry,
    TruncationReason,
};
use wbist::netlist::FaultList;
use wbist::sim::{FaultSim, SimOptions};

/// Sequence length of the deterministic sequence `T` driving synthesis.
const T_LEN: usize = 48;
/// Generated-sequence length `L_G`.
const L_G: usize = 64;

fn interrupt_resume_roundtrip(name: &str, keep_every: usize) {
    let c = benchmark(name);
    let faults = FaultList::checkpoints(&c);
    let t = lfsr_sequence(&c, T_LEN);
    let pre = subsampled_targets(faults.len(), keep_every);
    let cfg = SynthesisConfig {
        sequence_length: L_G,
        ..SynthesisConfig::default()
    };
    let dir = scratch_dir(&format!("interrupt-resume-{name}"));

    // The uninterrupted reference run, writing checkpoints like the
    // interrupted runs do so the checkpoint counters are comparable.
    let full_tel = Telemetry::enabled();
    let full_ckpt = dir.join("full.ckpt");
    let full = Synthesis::new(&c, &t, &faults)
        .config(SynthesisConfig {
            run: RunOptions::default().telemetry(full_tel.clone()),
            ..cfg.clone()
        })
        .already_detected(&pre)
        .run_controlled(&RunControl::default().checkpoint(&full_ckpt));
    assert!(!full.is_truncated());
    let full = full.into_result();
    assert!(
        full.omega.len() >= 2,
        "{name}: need several assignments to interrupt between, got {}",
        full.omega.len()
    );
    let full_counters = full_tel.counters();

    // A geometric ladder of fault-cycle budgets interrupts the run at
    // arbitrary, budget-dependent points — including before the first
    // kept assignment (checkpoint with no cursor) and mid-stream.
    let mut truncations = 0usize;
    for budget_fc in [1_000u64, 4_000, 16_000, 64_000, 256_000, 1_024_000] {
        let ckpt = dir.join(format!("cut-{budget_fc}.ckpt"));
        let cut = Synthesis::new(&c, &t, &faults)
            .config(SynthesisConfig {
                run: RunOptions::default().telemetry(Telemetry::enabled()),
                ..cfg.clone()
            })
            .already_detected(&pre)
            .run_controlled(
                &RunControl::default()
                    .budget(Budget::default().fault_cycles(budget_fc))
                    .checkpoint(&ckpt),
            );
        if !cut.is_truncated() {
            // The budget outgrew the whole run; larger ones would too.
            break;
        }
        assert_eq!(cut.truncation(), Some(TruncationReason::FaultCycles));
        truncations += 1;
        let cut = cut.into_result();
        // The truncated prefix is consistent with the reference run.
        assert_eq!(cut.omega[..], full.omega[..cut.omega.len()], "{name}");

        let resumed_tel = Telemetry::enabled();
        let resumed = Synthesis::new(&c, &t, &faults)
            .config(SynthesisConfig {
                run: RunOptions::default().telemetry(resumed_tel.clone()),
                ..cfg.clone()
            })
            .already_detected(&pre)
            .resume_from(load_checkpoint(&ckpt))
            .expect("checkpoint matches this configuration")
            .run_controlled(&RunControl::default().checkpoint(&ckpt));
        assert!(!resumed.is_truncated(), "{name}: resume must complete");
        let resumed = resumed.into_result();
        assert_eq!(resumed.omega, full.omega, "{name}: Ω at budget {budget_fc}");
        assert_eq!(resumed.detected, full.detected, "{name}: detection flags");
        assert_eq!(resumed.abandoned, full.abandoned, "{name}: abandonment");
        assert_eq!(
            resumed_tel.counters(),
            full_counters,
            "{name}: trace counters at budget {budget_fc}"
        );
        std::fs::remove_file(&ckpt).ok();
    }
    assert!(
        truncations >= 2,
        "{name}: the budget ladder must interrupt at two points at least, got {truncations}"
    );
    std::fs::remove_file(&full_ckpt).ok();
}

fn load_checkpoint(path: &Path) -> Checkpoint {
    Checkpoint::load(path).expect("checkpoint loads")
}

#[test]
fn s1196_interrupt_resume_is_bit_identical() {
    interrupt_resume_roundtrip("s1196", 20);
}

#[test]
fn s5378_interrupt_resume_is_bit_identical() {
    interrupt_resume_roundtrip("s5378", 120);
}

/// Cooperative cancellation inside the simulation kernel on s5378: a
/// tiny fault-cycle budget stops the run within one batch-cycle of
/// granularity, and the partial detected count is consistent — a subset
/// of the unbudgeted run's detections, and deterministic.
#[test]
fn s5378_tiny_budget_stops_within_batch_granularity() {
    let c = benchmark("s5378");
    let faults = FaultList::checkpoints(&c);
    let seq = lfsr_sequence(&c, 64);
    let full = FaultSim::with_options(&c, SimOptions::with_threads(1))
        .query(&faults)
        .sequence(&seq)
        .detected();

    const LIMIT: u64 = 20_000;
    let token = CancelToken::for_budget(&Budget::default().fault_cycles(LIMIT));
    let partial = FaultSim::with_options(&c, SimOptions::with_threads(1))
        .cancel(token.clone())
        .query(&faults)
        .sequence(&seq)
        .detected();
    assert_eq!(token.cancelled(), Some(TruncationReason::FaultCycles));

    // Everything the truncated run reports detected is genuinely
    // detected, and the budget cut the count short.
    for (i, (&p, &f)) in partial.iter().zip(&full).enumerate() {
        assert!(!p || f, "fault {i} detected only under the budget");
    }
    let partial_count = partial.iter().filter(|&&d| d).count();
    let full_count = full.iter().filter(|&&d| d).count();
    assert!(partial_count < full_count, "budget must truncate this run");

    // Batches poll the token once per cycle, so the overshoot is
    // bounded by one 63-fault cycle per batch.
    let batches = faults.len().div_ceil(63) as u64;
    assert!(
        token.fault_cycles_spent() <= LIMIT + batches * 63,
        "spent {} against limit {LIMIT} with {batches} batches",
        token.fault_cycles_spent()
    );

    // Single-threaded truncation is deterministic.
    let again = FaultSim::with_options(&c, SimOptions::with_threads(1))
        .cancel(CancelToken::for_budget(
            &Budget::default().fault_cycles(LIMIT),
        ))
        .query(&faults)
        .sequence(&seq)
        .detected();
    assert_eq!(partial, again);
}
