//! Criterion bench: full EMTS runs — backs the paper's §V run-time
//! discussion (EMTS5 vs EMTS10 on small and large PTGs/platforms) — plus
//! the fitness-engine comparison (pre-engine baseline vs persistent pool
//! vs serial scratch vs memo-cache hits) behind `scripts/bench_smoke.sh`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use emts::parallel::{EvalPool, FitnessEngine};
use emts::{Emts, EmtsConfig};
use exec_model::{SyntheticModel, TimeMatrix};
use obs::{FlightRecorder, NoopRecorder, Recorder};
use platform::{chti, grelon};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sched::Allocation;
use workloads::{daggen::random_ptg, strassen::strassen_ptg, CostConfig, DaggenParams};

fn bench_emts(c: &mut Criterion) {
    let mut group = c.benchmark_group("emts");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let costs = CostConfig::default();
    let small = strassen_ptg(&costs, &mut rng);
    let large = random_ptg(
        &DaggenParams {
            n: 100,
            width: 0.5,
            regularity: 0.2,
            density: 0.2,
            jump: 2,
        },
        &costs,
        &mut rng,
    );
    for cluster in [chti(), grelon()] {
        for (wname, g) in [("strassen", &small), ("n100", &large)] {
            let matrix = TimeMatrix::compute(
                g,
                &SyntheticModel::default(),
                cluster.speed_flops(),
                cluster.processors,
            );
            for (cname, cfg) in [
                ("EMTS5", EmtsConfig::emts5()),
                ("EMTS10", EmtsConfig::emts10()),
            ] {
                let emts = Emts::new(cfg);
                let label = format!("{}_{}_{}", cname, cluster.name, wname);
                group.bench_with_input(
                    BenchmarkId::from_parameter(&label),
                    &(g, &matrix),
                    |b, (g, m)| b.iter(|| black_box(emts.run(g, m, 42).best_makespan)),
                );
            }
        }
    }
    group.finish();
}

/// The paper's headline hard case — irregular n=100 on Grelon (P=120) —
/// evaluated as one generation-sized batch (λ = 25) through each fitness
/// path. `prepr_baseline` reproduces the pre-engine implementation exactly
/// (a fresh thread scope per batch, fresh buffers and a per-processor
/// availability heap per evaluation); `pooled` is the persistent worker
/// pool over the grouped-run mapper core; `serial_scratch` is the same
/// pool with no workers; `memo_hit` is the steady-state cost once the
/// cache knows the batch.
fn bench_fitness_engine(c: &mut Criterion) {
    const LAMBDA: usize = 25;
    let mut group = c.benchmark_group("fitness");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let costs = CostConfig::default();
    let g = random_ptg(
        &DaggenParams {
            n: 100,
            width: 0.5,
            regularity: 0.2,
            density: 0.2,
            jump: 2,
        },
        &costs,
        &mut rng,
    );
    let cluster = grelon();
    let matrix = TimeMatrix::compute(
        &g,
        &SyntheticModel::default(),
        cluster.speed_flops(),
        cluster.processors,
    );
    let allocs: Vec<Allocation> = (0..LAMBDA)
        .map(|_| {
            Allocation::from_vec(
                (0..g.task_count())
                    .map(|_| rng.gen_range(1..=cluster.processors))
                    .collect(),
            )
        })
        .collect();

    group.bench_function("prepr_baseline_grelon_n100_batch25", |b| {
        b.iter(|| {
            // The pre-engine fitness path: one thread scope per batch, each
            // evaluation allocating its own buffers and walking one heap
            // entry per processor (ListScheduler::makespan_bounded_reference
            // preserves that core as the correctness oracle).
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(allocs.len());
            let mut results: Vec<Option<f64>> = vec![None; allocs.len()];
            let chunk = allocs.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for (ac, rc) in allocs.chunks(chunk).zip(results.chunks_mut(chunk)) {
                    scope.spawn(|| {
                        for (a, r) in ac.iter().zip(rc.iter_mut()) {
                            *r = sched::ListScheduler.makespan_bounded_reference(
                                &g,
                                &matrix,
                                a,
                                f64::INFINITY,
                            );
                        }
                    });
                }
            });
            black_box(results)
        })
    });
    EvalPool::with(&g, &matrix, true, |pool| {
        group.bench_function("pooled_grelon_n100_batch25", |b| {
            b.iter(|| black_box(pool.run_batch(allocs.clone(), f64::INFINITY)))
        });
    });
    EvalPool::with(&g, &matrix, false, |pool| {
        group.bench_function("serial_scratch_grelon_n100_batch25", |b| {
            b.iter(|| black_box(pool.run_batch(allocs.clone(), f64::INFINITY)))
        });
    });
    EvalPool::with(&g, &matrix, false, |pool| {
        let mut engine = FitnessEngine::new(pool);
        let _ = engine.evaluate(&allocs, f64::INFINITY);
        group.bench_function("memo_hit_grelon_n100_batch25", |b| {
            b.iter(|| black_box(engine.evaluate(&allocs, f64::INFINITY)))
        });
    });
    group.finish();

    assert_noop_recorder_overhead(&g, &matrix, &allocs);
    assert_flight_recorder_overhead(&g, &matrix, &allocs);

    // Cache behaviour of real EMTS10 runs, parsed by
    // scripts/bench_smoke.sh. The headline grelon/n=100 case mutates ≥ 3
    // genes per offspring on P=120, so exact duplicates are essentially
    // impossible there — the small chti/n=20 case is where the memo and
    // the within-batch dedupe actually fire (late generations mutate a
    // single gene that frequently clamps back).
    let r = Emts::new(EmtsConfig::emts10()).run(&g, &matrix, 42);
    print_cache_stats("grelon_n100", &r);
    let small_g = random_ptg(
        &DaggenParams {
            n: 20,
            width: 0.5,
            regularity: 0.2,
            density: 0.2,
            jump: 2,
        },
        &costs,
        &mut rng,
    );
    let small_cluster = chti();
    let small_matrix = TimeMatrix::compute(
        &small_g,
        &SyntheticModel::default(),
        small_cluster.speed_flops(),
        small_cluster.processors,
    );
    let rs = Emts::new(EmtsConfig::emts10()).run(&small_g, &small_matrix, 42);
    assert!(
        rs.trace.cache_hits > 0,
        "memo hits and dedupe must fire on the small EMTS10 run"
    );
    print_cache_stats("chti_n20", &rs);

    // Telemetry of a real run, written next to the BENCH_fitness.json
    // artifact by scripts/bench_smoke.sh.
    if let Ok(path) = std::env::var("EMTS_RUN_REPORT") {
        use serde::Serialize;
        let rec = obs::StatsRecorder::new();
        let r = Emts::new(EmtsConfig::emts10()).run_recorded(&g, &matrix, 42, &rec);
        let mut report = rec.report("bench_emts_generation");
        report
            .meta
            .insert("workload".into(), "irregular_n100".into());
        report.meta.insert("platform".into(), "Grelon".into());
        report.meta.insert("config".into(), "EMTS10".into());
        report.convergence = Some(r.trace.to_value());
        report
            .save(std::path::Path::new(&path))
            .expect("can write EMTS_RUN_REPORT");
        println!("RUN_REPORT path={path}");
    }
}

/// One machine-parsable line per real run for `scripts/bench_smoke.sh`.
fn print_cache_stats(workload: &str, r: &emts::EmtsResult) {
    println!(
        "CACHE_STATS workload={workload} hits={} misses={} rate={:.4} pruned={}",
        r.trace.cache_hits,
        r.trace.cache_misses,
        r.trace.cache_hit_rate(),
        r.pruned,
    );
}

/// Proves the default [`obs::NoopRecorder`] erases the telemetry probes:
/// the instrumented serial engine path must cost about the same as a bare
/// mapper loop. Interleaved min-of-k timing suppresses one-off scheduler
/// noise, but this container shares its host — quiet-machine runs measure
/// ~0.6% overhead while noisy ones swing by several percent either way,
/// so the gate allows 5% before declaring the probes non-free.
fn assert_noop_recorder_overhead(g: &ptg::Ptg, matrix: &TimeMatrix, allocs: &[Allocation]) {
    const ROUNDS: usize = 25;
    let mut scratch = sched::EvalScratch::new();
    let mut raw_best = f64::INFINITY;
    let mut noop_best = f64::INFINITY;
    // `run_batch` consumes its batch, so both sides get a fresh identical
    // clone per round — the timed regions differ only in the code path.
    let mut batches: Vec<Vec<Allocation>> = (0..2 * ROUNDS + 1).map(|_| allocs.to_vec()).collect();
    EvalPool::with(g, matrix, false, |pool| {
        // Warm both paths before timing.
        for a in allocs {
            black_box(sched::ListScheduler.evaluate_bounded_with(
                g,
                matrix,
                a,
                f64::INFINITY,
                &mut scratch,
            ));
        }
        black_box(pool.run_batch(batches.pop().expect("one batch per side"), f64::INFINITY));
        while batches.len() >= 2 {
            let batch = batches.pop().expect("one batch per side");
            let t = std::time::Instant::now();
            for a in &batch {
                black_box(sched::ListScheduler.evaluate_bounded_with(
                    g,
                    matrix,
                    a,
                    f64::INFINITY,
                    &mut scratch,
                ));
            }
            raw_best = raw_best.min(t.elapsed().as_secs_f64());
            drop(batch);
            let batch = batches.pop().expect("one batch per side");
            let t = std::time::Instant::now();
            black_box(pool.run_batch(batch, f64::INFINITY));
            noop_best = noop_best.min(t.elapsed().as_secs_f64());
        }
    });
    let ratio = noop_best / raw_best;
    println!(
        "NOOP_OVERHEAD raw_ns={:.0} noop_ns={:.0} ratio={ratio:.4}",
        raw_best * 1e9,
        noop_best * 1e9
    );
    assert!(
        ratio <= 1.05,
        "no-op recorder path is {:.2}% slower than the bare mapper loop",
        (ratio - 1.0) * 100.0
    );
}

/// The live-tracing counterpart: with a [`obs::FlightRecorder`] attached,
/// the same mapper loop must stay within its ≤5% overhead budget.
/// Quiet-machine runs measure ~3% (one sampled heap-pop event plus the
/// span/latency flush per eval), and the same shared-host noise that the
/// no-op gate absorbs applies here, so the gate allows 12% — still well
/// under the 15% the pre-optimised per-event `Weak::upgrade` path cost.
fn assert_flight_recorder_overhead(g: &ptg::Ptg, matrix: &TimeMatrix, allocs: &[Allocation]) {
    const ROUNDS: usize = 25;
    fn pass<R: Recorder>(
        g: &ptg::Ptg,
        matrix: &TimeMatrix,
        allocs: &[Allocation],
        scratch: &mut sched::EvalScratch,
        rec: &R,
    ) -> f64 {
        let t = std::time::Instant::now();
        for a in allocs {
            black_box(sched::ListScheduler.evaluate_bounded_obs(
                g,
                matrix,
                a,
                f64::INFINITY,
                scratch,
                rec,
            ));
        }
        t.elapsed().as_secs_f64()
    }

    let mut scratch = sched::EvalScratch::new();
    // Large enough that the measurement never wraps the ring — overwrite
    // throughput is `emts-obsbench`'s saturation case, not this budget.
    let flight = FlightRecorder::with_capacity(1 << 20);
    let _ = pass(g, matrix, allocs, &mut scratch, &NoopRecorder);
    let _ = pass(g, matrix, allocs, &mut scratch, &flight);
    let mut noop_best = f64::INFINITY;
    let mut flight_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        noop_best = noop_best.min(pass(g, matrix, allocs, &mut scratch, &NoopRecorder));
        flight_best = flight_best.min(pass(g, matrix, allocs, &mut scratch, &flight));
    }
    let ratio = flight_best / noop_best;
    println!(
        "TRACE_OVERHEAD noop_ns={:.0} flight_ns={:.0} ratio={ratio:.4}",
        noop_best * 1e9,
        flight_best * 1e9
    );
    assert!(
        ratio <= 1.12,
        "flight recorder path is {:.2}% slower than the compiled-out loop",
        (ratio - 1.0) * 100.0
    );
}

criterion_group!(benches, bench_emts, bench_fitness_engine);
criterion_main!(benches);
