//! Runs the benchmark's workload code in-process on the exact s27.

use wbist_benchmark::{declared, make_inputs, run_op, setup_seconds, summarize, unit, SMOKE};

#[test]
fn s27_emits_every_declared_metric_and_passes_every_check() {
    let inputs = make_inputs(&SMOKE, 0);
    let mut ops = Vec::new();
    let mut fingerprints = Vec::new();
    for threads in [1, 2] {
        for _repeat in 0..2 {
            for traced in [true, false] {
                let op = run_op(&SMOKE, &inputs, threads, traced);
                assert!(
                    op.failures().is_empty(),
                    "{threads} thread(s), traced {traced}: {:?}",
                    op.failures()
                );
                if traced {
                    fingerprints.push(op.fingerprint());
                }
                ops.push((traced, op.metrics()));
            }
        }
    }
    // Quality figures and every span's deterministic counter deltas are
    // byte-identical across thread counts and repeats.
    assert!(fingerprints[0].contains("sim.fault_cycles"));
    assert!(fingerprints.iter().all(|f| *f == fingerprints[0]));

    let mut metrics = summarize(&ops);
    metrics.insert("setup_s".into(), setup_seconds(&SMOKE, 0, 1));
    for d in declared() {
        let value = metrics
            .get(&d.name)
            .unwrap_or_else(|| panic!("`{}` is not emitted", d.name));
        assert!(value.is_finite(), "`{}` = {value}", d.name);
        assert_eq!(unit(&d.name), d.unit);
    }
    for time in ["flow_s", "setup_s", "select.s", "prune.s"] {
        assert!(metrics[time] > 0.0, "`{time}` is zero");
    }
}

#[test]
fn renamed_seeds_give_the_same_flow() {
    let base = make_inputs(&SMOKE, 0);
    let renamed = make_inputs(&SMOKE, 7);
    assert_ne!(base.bench, renamed.bench);
    assert_ne!(renamed.bench, make_inputs(&SMOKE, 8).bench);
    assert_eq!(renamed.bench, make_inputs(&SMOKE, 7).bench);
    assert_eq!(
        run_op(&SMOKE, &base, 1, true).fingerprint(),
        run_op(&SMOKE, &renamed, 1, true).fingerprint()
    );
}

#[test]
fn declared_names_and_units_are_well_formed() {
    let declared = declared();
    assert!(declared.iter().any(|d| d.end_to_end && d.name == "setup_s"));
    for (i, d) in declared.iter().enumerate() {
        let name_ok = d.name.len() <= 64
            && d.name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && d.name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        assert!(name_ok, "bad metric name `{}`", d.name);
        let unit_ok = !d.unit.is_empty()
            && d.unit.len() <= 16
            && d.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        assert!(unit_ok, "bad unit `{}` of `{}`", d.unit, d.name);
        assert!(
            declared[..i].iter().all(|e| e.name != d.name),
            "`{}` is declared twice",
            d.name
        );
    }
}
