//! The synthesis setup pass simulates `T` against the faults that are not
//! already detected only. On random circuits, under both fault models
//! and with random pre-detection flags, the target set must still equal
//! the full-list detection by `T` with the pre-detected faults masked
//! out, and a run cut by a fault-cycle budget must resume to the
//! uninterrupted run bit for bit, telemetry counters included.

mod common;

use common::scratch_dir;
use proptest::prelude::*;
use wbist::atpg::Lfsr;
use wbist::circuits::SyntheticSpec;
use wbist::core::{
    Budget, CancelToken, Checkpoint, RunControl, RunOptions, Synthesis, SynthesisConfig, Telemetry,
};
use wbist::netlist::{FaultModel, FaultUniverse};
use wbist::sim::FaultSim;

/// One splitmix64 output for `x`.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #[test]
    fn targets_are_t_detections_outside_the_pre_detected_faults(
        seed in any::<u64>(),
        inputs in 2usize..7,
        dffs in 1usize..6,
        extra in 8usize..40,
        transition in any::<bool>(),
        t_len in 8usize..24,
        lg in 16usize..40,
        pre_seed in any::<u64>(),
        pre_share in 0u8..4,
        cut_eighths in 1u64..8,
    ) {
        let c = SyntheticSpec::new("setup", inputs, 2, dffs, 2 * dffs + extra, seed).build();
        let model = if transition {
            FaultModel::TransitionDelay
        } else {
            FaultModel::StuckAt
        };
        let faults = FaultUniverse::checkpoints(model, &c);
        let t = Lfsr::new(16, (seed as u32 & 0xFFFF) | 1).sequence(c.num_inputs(), t_len);
        // About `pre_share` in four faults pre-detected, none at 0.
        let pre: Vec<bool> = (0..faults.len() as u64)
            .map(|i| splitmix(pre_seed ^ i) % 4 < u64::from(pre_share))
            .collect();
        let cfg = |tel: &Telemetry| SynthesisConfig {
            sequence_length: lg,
            run: RunOptions::default().telemetry(tel.clone()),
            ..SynthesisConfig::default()
        };

        let full_tel = Telemetry::enabled();
        let dir = scratch_dir("targeted-setup");
        let tag = format!("{seed:x}-{transition}");
        let full_ckpt = dir.join(format!("full-{tag}.ckpt"));
        // The uncut run's budget spend: a fraction of it cuts the run
        // wherever the simulator's cost lands.
        let spend = CancelToken::for_budget(&Budget::default().fault_cycles(u64::MAX / 2));
        let mut full_cfg = cfg(&full_tel);
        full_cfg.run = full_cfg.run.cancel(spend.clone());
        let full = Synthesis::new(&c, &t, &faults)
            .config(full_cfg)
            .already_detected(&pre)
            .run_controlled(&RunControl::default().checkpoint(&full_ckpt))
            .into_result();
        let budget = spend.fault_cycles_spent() * cut_eighths / 8;
        let by_t = FaultSim::new(&c).query(&faults).sequence(&t).detected();
        let want: Vec<bool> = by_t.iter().zip(&pre).map(|(&d, &p)| d && !p).collect();
        prop_assert_eq!(&full.target, &want);
        prop_assert!(full.detected.iter().zip(&pre).all(|(&d, &p)| !(d && p)));

        let ckpt = dir.join(format!("cut-{tag}.ckpt"));
        let cut = Synthesis::new(&c, &t, &faults)
            .config(cfg(&Telemetry::enabled()))
            .already_detected(&pre)
            .run_controlled(
                &RunControl::default()
                    .budget(Budget::default().fault_cycles(budget))
                    .checkpoint(&ckpt),
            );
        if cut.is_truncated() {
            let resumed_tel = Telemetry::enabled();
            let resumed = Synthesis::new(&c, &t, &faults)
                .config(cfg(&resumed_tel))
                .already_detected(&pre)
                .resume_from(Checkpoint::load(&ckpt).expect("checkpoint loads"))
                .expect("checkpoint matches this configuration")
                .run_controlled(&RunControl::default().checkpoint(&ckpt));
            prop_assert!(!resumed.is_truncated());
            let resumed = resumed.into_result();
            prop_assert_eq!(&resumed.omega, &full.omega);
            prop_assert_eq!(&resumed.target, &full.target);
            prop_assert_eq!(&resumed.detected, &full.detected);
            prop_assert_eq!(&resumed.abandoned, &full.abandoned);
            prop_assert_eq!(resumed_tel.counters(), full_tel.counters());
        }
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&full_ckpt).ok();
    }
}
