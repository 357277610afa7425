//! Exactness of the prefix-trace cache.
//!
//! The cache (`SynthesisConfig::prefix_cache`) resumes candidate
//! evaluations from the checkpointed faulty-plane state of the earlier
//! committed evaluation sharing the longest sequence prefix. It is a
//! wall-clock optimization only: `Ω`,
//! the detection/abandonment flags, and every deterministic telemetry
//! counter must be bit-identical with the cache on or off, at every
//! worker count, and across an interrupt/resume boundary (the cache is rebuilt from nothing on
//! resume and is deliberately excluded from the checkpoint
//! configuration hash).

use proptest::prelude::*;
use wbist::atpg::Lfsr;
use wbist::circuits::{s27, synthetic, SyntheticSpec};
use wbist::core::{
    Budget, Checkpoint, RunControl, RunOptions, Synthesis, SynthesisConfig, SynthesisResult,
    Telemetry, TruncationReason,
};
use wbist::netlist::{Circuit, FaultList};
use wbist::sim::{FaultSim, PrefixTraceCache, PreparedOutcome, SimOptions, TestSequence};

type Counters = Vec<(String, u64)>;

/// One synthesis run; returns the result, the deterministic counter
/// snapshot, and the prefix-reuse effort figures.
fn run_once(
    c: &Circuit,
    t: &TestSequence,
    faults: &FaultList,
    pre: Option<&[bool]>,
    base: &SynthesisConfig,
    threads: usize,
    cache: bool,
) -> (SynthesisResult, Counters, u64, u64) {
    let tel = Telemetry::enabled();
    let cfg = SynthesisConfig {
        prefix_cache: cache,
        run: RunOptions::with_threads(threads).telemetry(tel.clone()),
        ..base.clone()
    };
    let mut synth = Synthesis::new(c, t, faults).config(cfg);
    if let Some(pre) = pre {
        synth = synth.already_detected(pre);
    }
    let result = synth.run();
    let counters = tel.counters();
    (
        result,
        counters,
        tel.effort("select.prefix_hits"),
        tel.effort("select.cycles_skipped"),
    )
}

fn assert_identical(
    label: &str,
    reference: &(SynthesisResult, Counters),
    candidate: &(SynthesisResult, Counters),
) {
    assert_eq!(candidate.0.omega, reference.0.omega, "{label}: Ω");
    assert_eq!(
        candidate.0.detected, reference.0.detected,
        "{label}: detection flags"
    );
    assert_eq!(
        candidate.0.abandoned, reference.0.abandoned,
        "{label}: abandonment flags"
    );
    assert_eq!(candidate.1, reference.1, "{label}: deterministic counters");
}

fn s1196_setup() -> (Circuit, TestSequence, FaultList, Vec<bool>, SynthesisConfig) {
    let c = synthetic::by_name("s1196").expect("known benchmark");
    let faults = FaultList::checkpoints(&c);
    let t = Lfsr::new(24, 0xACE1).sequence(c.num_inputs(), 48);
    let pre: Vec<bool> = (0..faults.len()).map(|i| i % 25 != 0).collect();
    let base = SynthesisConfig {
        sequence_length: 64,
        ..SynthesisConfig::default()
    };
    (c, t, faults, pre, base)
}

/// Cache on vs cache off on a real benchmark: bit-identical results and
/// deterministic counters at every worker count, and reuse figures that
/// are thread-invariant — the cache is written in walk order, never by
/// worker scheduling. (This walk's candidates share too few leading
/// rows for a faulty-plane snapshot to apply; the duplicate-heavy walk
/// in `tests/selection_identity.rs` and the direct queries below are
/// where the snapshots demonstrably resume.)
#[test]
fn s1196_cache_is_invisible() {
    let (c, t, faults, pre, base) = s1196_setup();
    let (r0, c0, off_hits, off_skipped) = run_once(&c, &t, &faults, Some(&pre), &base, 1, false);
    assert_eq!((off_hits, off_skipped), (0, 0), "cache off cannot reuse");
    let reference = (r0, c0);
    assert!(reference.0.omega.len() >= 2, "need a non-trivial walk");

    let mut reuse: Option<(u64, u64)> = None;
    for threads in [1usize, 2, 4] {
        let (r, counters, hits, skipped) =
            run_once(&c, &t, &faults, Some(&pre), &base, threads, true);
        assert_identical(
            &format!("cache on, threads={threads}"),
            &reference,
            &(r, counters),
        );
        match reuse {
            None => reuse = Some((hits, skipped)),
            Some(want) => assert_eq!(
                (hits, skipped),
                want,
                "threads={threads}: prefix counters must be thread-invariant"
            ),
        }
    }
}

/// An interrupted run resumed from its checkpoint rebuilds the cache
/// from nothing and still converges to the uninterrupted (and
/// cache-free) reference — and the checkpoint is portable across
/// `prefix_cache` settings in both directions, because the knob is
/// excluded from the configuration hash.
#[test]
fn s1196_interrupted_cache_resumes_bit_identical() {
    let (c, t, faults, pre, base) = s1196_setup();
    let dir = std::env::temp_dir().join("wbist-prefix-cache-resume");
    std::fs::create_dir_all(&dir).unwrap();

    // The cache-free reference writes checkpoints like the interrupted
    // runs do, so the checkpoint counters are comparable.
    let full_ckpt = dir.join("full.ckpt");
    let reference = {
        let tel = Telemetry::enabled();
        let full = Synthesis::new(&c, &t, &faults)
            .config(SynthesisConfig {
                prefix_cache: false,
                run: RunOptions::default().telemetry(tel.clone()),
                ..base.clone()
            })
            .already_detected(&pre)
            .run_controlled(&RunControl::default().checkpoint(&full_ckpt));
        assert!(!full.is_truncated());
        (full.into_result(), tel.counters())
    };
    // Fault-cycle budgets that interrupt this walk at different points
    // (resumed evaluations pre-charge the cycles they skip, so each
    // budget bites at the same point with the cache on or off).
    let ladder = [4_000u64, 8_000, 16_000];
    for ((cut_cache, resume_cache), budget_fc) in [(true, true), (true, false), (false, true)]
        .into_iter()
        .flat_map(|combo| ladder.iter().map(move |&b| (combo, b)))
    {
        let ckpt = dir.join(format!("cut-{cut_cache}-{resume_cache}-{budget_fc}.ckpt"));
        let cut = Synthesis::new(&c, &t, &faults)
            .config(SynthesisConfig {
                prefix_cache: cut_cache,
                run: RunOptions::default().telemetry(Telemetry::enabled()),
                ..base.clone()
            })
            .already_detected(&pre)
            .run_controlled(
                &RunControl::default()
                    .budget(Budget::default().fault_cycles(budget_fc))
                    .checkpoint(&ckpt),
            );
        assert_eq!(cut.truncation(), Some(TruncationReason::FaultCycles));
        let cut = cut.into_result();
        assert_eq!(cut.omega[..], reference.0.omega[..cut.omega.len()]);

        let resumed_tel = Telemetry::enabled();
        let resumed = Synthesis::new(&c, &t, &faults)
            .config(SynthesisConfig {
                prefix_cache: resume_cache,
                run: RunOptions::default().telemetry(resumed_tel.clone()),
                ..base.clone()
            })
            .already_detected(&pre)
            .resume_from(Checkpoint::load(&ckpt).expect("checkpoint loads"))
            .expect("prefix_cache is excluded from the checkpoint config hash")
            .run_controlled(&RunControl::default().checkpoint(&ckpt));
        assert!(!resumed.is_truncated(), "resume must complete");
        let resumed = resumed.into_result();
        let label = format!("cut cache={cut_cache}, resume cache={resume_cache}");
        assert_eq!(resumed.omega, reference.0.omega, "{label}: Ω");
        assert_eq!(resumed.detected, reference.0.detected, "{label}: detected");
        assert_eq!(
            resumed.abandoned, reference.0.abandoned,
            "{label}: abandoned"
        );
        assert_eq!(
            resumed_tel.counters(),
            reference.1,
            "{label}: deterministic counters"
        );
        std::fs::remove_file(&ckpt).ok();
    }
    std::fs::remove_file(&full_ckpt).ok();
}

/// Installs a cached dense query's snapshots.
fn install(cache: &mut PrefixTraceCache, out: PreparedOutcome) {
    cache.install(
        out.install
            .expect("a cached dense query captures snapshots"),
    );
}

/// The owner sequence with input `pi`'s stream inverted from cycle `d`
/// onward: rows `0..d` are shared verbatim, so a prepared evaluation
/// resumes at exactly `d`.
fn diverge_at(owner: &TestSequence, d: usize, pi: usize) -> TestSequence {
    let rows: Vec<Vec<bool>> = (0..owner.len())
        .map(|u| {
            let mut row = owner.row(u).to_vec();
            if u >= d {
                row[pi] = !row[pi];
            }
            row
        })
        .collect();
    TestSequence::from_rows(rows).expect("rows share the owner's arity")
}

/// A resumed evaluation equals a from-scratch one at *every*
/// divergence cycle on s1196: the probes' good traces, prepared in
/// batched sweeps, give the same detection times as raw queries, and the
/// dense query resumed from faulty-plane snapshots gives the same
/// detections.
#[test]
fn s1196_resumed_query_matches_from_scratch_at_every_divergence() {
    let c = synthetic::by_name("s1196").expect("known benchmark");
    let faults = FaultList::checkpoints(&c);
    let owner = Lfsr::new(24, 0xACE1).sequence(c.num_inputs(), 40);
    let sim = FaultSim::with_options(&c, SimOptions::with_threads(2));
    let mut cache = PrefixTraceCache::new();
    let out = sim.query(&faults).sequence(&owner).cache(&cache).outcome();
    install(&mut cache, out);

    let probes: Vec<TestSequence> = (1..owner.len())
        .map(|d| diverge_at(&owner, d, d % c.num_inputs()))
        .collect();
    let mut resumed = 0;
    for (i, prep) in sim.prepare_sequences(&probes).iter().enumerate() {
        let (d, probe) = (i + 1, &probes[i]);
        assert_eq!(prep.sequence(), probe);
        assert_eq!(
            sim.query(&faults).prepared(prep).detection_times(),
            sim.query(&faults).sequence(probe).detection_times(),
            "prepared trace at cut {d}"
        );
        let out = sim.query(&faults).prepared(prep).cache(&cache).outcome();
        resumed += usize::from(out.resumed_cycles > 0);
        assert_eq!(
            out.detected,
            sim.query(&faults).sequence(probe).detected_indices(),
            "resumed dense query at cut {d}"
        );
    }
    assert!(resumed > owner.len() / 2, "most cuts resume: {resumed}");
}

/// Past the raw-capture cap (`batches × flip-flops > 2^16`, the s35932
/// class) snapshots spill to the compressed XOR-delta form — and a
/// prepared evaluation still resumes from them bit-identically.
#[test]
fn spilled_snapshots_resume_bit_identical_past_the_raw_cap() {
    let c = SyntheticSpec::new("spill-tier", 8, 4, 1100, 2400, 7).build();
    let faults = FaultList::all_lines(&c);
    let n_batches = faults.len().div_ceil(63);
    assert!(
        n_batches * c.num_dffs() > 1 << 16,
        "shape must exceed the raw cap: {n_batches} batches x {} flip-flops",
        c.num_dffs(),
    );
    assert!(
        n_batches * c.num_dffs() <= 1 << 24,
        "but stay under the spill cap"
    );

    let owner = Lfsr::new(20, 0xBEEF).sequence(c.num_inputs(), 16);
    let sim = FaultSim::with_options(&c, SimOptions::with_threads(4));
    let mut cache = PrefixTraceCache::new();
    let probe = diverge_at(&owner, 13, 3);
    let preps = sim.prepare_sequences(&[owner, probe.clone()]);
    let out = sim
        .query(&faults)
        .prepared(&preps[0])
        .cache(&cache)
        .outcome();
    assert!(
        out.snapshot_spills > 0,
        "capture must engage the spill tier"
    );
    assert!(out.snapshot_bytes > 0, "spilled snapshots pin bytes");
    assert!(!out.snapshot_capture_denied, "spill fits under the cap");
    install(&mut cache, out);

    let scratch = sim.query(&faults).sequence(&probe).detected_indices();
    let out = sim
        .query(&faults)
        .prepared(&preps[1])
        .cache(&cache)
        .outcome();
    assert!(
        out.resumed_cycles > 0,
        "spilled snapshots must actually resume fault batches"
    );
    assert_eq!(
        out.detected, scratch,
        "spilled resume must be bit-identical to from-scratch"
    );
}

proptest! {
    /// Randomized divergences on s27: the resumed evaluation equals
    /// the from-scratch one at any cut cycle, whichever input stream
    /// diverges — detection times through the prepared trace, and
    /// detections through the resumed dense query.
    #[test]
    fn s27_resume_matches_from_scratch_at_any_cut(
        seed in 1u32..0xFFFF,
        t_len in 4usize..24,
        cut_sel in 0usize..64,
        pi_sel in 0usize..8,
    ) {
        let cut = 1 + cut_sel % (t_len - 1);
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let owner = Lfsr::new(16, seed).sequence(c.num_inputs(), t_len);
        let probe = diverge_at(&owner, cut, pi_sel % c.num_inputs());
        let sim = FaultSim::with_options(&c, SimOptions::with_threads(1));
        let mut cache = PrefixTraceCache::new();
        let preps = sim.prepare_sequences(&[owner, probe.clone()]);
        let out = sim.query(&faults).prepared(&preps[0]).cache(&cache).outcome();
        install(&mut cache, out);
        let prep = &preps[1];
        prop_assert_eq!(
            sim.query(&faults).prepared(prep).detection_times(),
            sim.query(&faults).sequence(&probe).detection_times()
        );
        let out = sim.query(&faults).prepared(prep).cache(&cache).outcome();
        prop_assert_eq!(out.detected, sim.query(&faults).sequence(&probe).detected_indices());
    }

    /// Randomized configurations on s27: a cache-on run at a randomly
    /// drawn worker count is bit-identical to the cache-off
    /// single-threaded walk — detections, abandonments, and the
    /// deterministic counter trace.
    #[test]
    fn random_configs_are_cache_invariant(
        seed in 1u32..0xFFFF,
        t_len in 8usize..32,
        lg in 24usize..80,
        sample_size in 1usize..8,
        sample_sel in 0u8..2,
        threads in 1usize..5,
    ) {
        let c = s27::circuit();
        let faults = FaultList::checkpoints(&c);
        let t = Lfsr::new(16, seed).sequence(c.num_inputs(), t_len);
        let base = SynthesisConfig {
            sequence_length: lg,
            sample_first: sample_sel == 1,
            sample_size,
            ..SynthesisConfig::default()
        };
        let (r0, c0, _, _) = run_once(&c, &t, &faults, None, &base, 1, false);
        let (r1, c1, _, _) = run_once(&c, &t, &faults, None, &base, threads, true);
        prop_assert_eq!(&r1.omega, &r0.omega);
        prop_assert_eq!(&r1.detected, &r0.detected);
        prop_assert_eq!(&r1.abandoned, &r0.abandoned);
        prop_assert_eq!(&c1, &c0);
    }
}
