//! An ATPG round scores its candidate blocks as independent pool
//! tasks. The winner is the first candidate with the largest gain and
//! no simulation draws a random number, so the generated sequence `T`
//! and its detected flags must not depend on the worker count.

use wbist::atpg::{AtpgConfig, SequenceAtpg};
use wbist::circuits::{s27, table6_specs};
use wbist::netlist::{Circuit, FaultModel, FaultUniverse};

fn circuits() -> Vec<Circuit> {
    let mut out = vec![s27::circuit()];
    out.extend(
        table6_specs()
            .into_iter()
            .filter(|s| s.name == "s298" || s.name == "s344")
            .map(|s| s.build()),
    );
    out
}

#[test]
fn sequence_is_identical_at_one_two_and_four_workers() {
    let cfg = AtpgConfig {
        max_len: 320,
        ..AtpgConfig::default()
    };
    for c in circuits() {
        for model in FaultModel::ALL {
            let faults = FaultUniverse::checkpoints(model, &c);
            let atpg = SequenceAtpg::new(&c, cfg.clone());
            let one = atpg.run_with_threads(&faults, 1);
            assert!(one.detected_count() > 0, "{} {model:?}", c.name());
            for threads in [2, 4] {
                let many = atpg.run_with_threads(&faults, threads);
                assert_eq!(
                    many.sequence,
                    one.sequence,
                    "{} {model:?} at {threads} workers",
                    c.name()
                );
                assert_eq!(many.detected, one.detected);
            }
            assert_eq!(atpg.run(&faults).sequence, one.sequence);
        }
    }
}
