//! Fault-simulator throughput: parallel-fault simulation cost versus
//! circuit size and sequence length (the dominant cost the paper's §4.2
//! complexity analysis identifies).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wbist_atpg::Lfsr;
use wbist_circuits::synthetic;
use wbist_netlist::FaultList;
use wbist_sim::{FaultSim, SimOptions};

fn bench_fault_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_sim");
    for name in ["s27", "s298", "s526", "s1196"] {
        let circuit = synthetic::by_name(name).expect("known circuit");
        let faults = FaultList::checkpoints(&circuit);
        let seq = Lfsr::new(24, 0xACE1).sequence(circuit.num_inputs(), 256);
        group.bench_with_input(
            BenchmarkId::new("detect_256", name),
            &(&circuit, &faults, &seq),
            |b, (circuit, faults, seq)| {
                let sim = FaultSim::new(circuit);
                b.iter(|| sim.query(faults).sequence(seq).count());
            },
        );
    }
    group.finish();
}

fn bench_detection_times(c: &mut Criterion) {
    let circuit = synthetic::by_name("s298").expect("known circuit");
    let faults = FaultList::checkpoints(&circuit);
    let seq = Lfsr::new(24, 0xACE1).sequence(circuit.num_inputs(), 512);
    c.bench_function("detection_times_s298_512", |b| {
        let sim = FaultSim::new(&circuit);
        b.iter(|| sim.query(&faults).sequence(&seq).detection_times());
    });
}

fn bench_threads(c: &mut Criterion) {
    // Single-threaded vs multi-threaded batch fan-out on circuits with
    // enough faults to fill several 63-fault batches.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for name in ["s1196", "s5378"] {
        let circuit = synthetic::by_name(name).expect("known circuit");
        let faults = FaultList::checkpoints(&circuit);
        let seq = Lfsr::new(24, 0xACE1).sequence(circuit.num_inputs(), 256);
        let mut group = c.benchmark_group(format!("fault_sim_threads_{name}"));
        for threads in [1usize, 2, 4, cores] {
            group.bench_with_input(
                BenchmarkId::from_parameter(threads),
                &threads,
                |b, &threads| {
                    let sim = FaultSim::with_options(&circuit, SimOptions::with_threads(threads));
                    b.iter(|| sim.query(&faults).sequence(&seq).detection_times());
                },
            );
        }
        group.finish();
    }
}

fn bench_good_sim(c: &mut Criterion) {
    // Levelized good-machine simulation on a low-activity stimulus
    // (constant-heavy, like the weighted sequences selection generates).
    let circuit = synthetic::by_name("s526").expect("known circuit");
    let n = circuit.num_inputs();
    let mut rows = Vec::new();
    for u in 0..512usize {
        // Only one input toggles; the rest stay constant.
        rows.push((0..n).map(|i| i == 0 && u % 2 == 0).collect());
    }
    let seq = wbist_sim::TestSequence::from_rows(rows).expect("rectangular");
    let mut group = c.benchmark_group("good_sim_s526_low_activity");
    group.bench_function("levelized", |b| {
        let sim = wbist_sim::LogicSim::new(&circuit);
        b.iter(|| sim.outputs(&seq).expect("width matches"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fault_sim,
    bench_detection_times,
    bench_threads,
    bench_good_sim
);
criterion_main!(benches);
