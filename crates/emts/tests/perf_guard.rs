//! Release-mode regression guards for the fitness hot paths.
//!
//! Three guards on the paper's hard case (DAGGEN on Grelon, P=120, Model 2),
//! all relative — they compare two in-tree implementations on the same
//! machine, so they hold on any host:
//!
//! * the flight recorder must stay within its overhead budget over the
//!   compiled-out (`NoopRecorder`) mapper loop,
//! * the SoA grouped core (packed `u128` heaps, CSR adjacency) must beat
//!   the retained pre-refactor oracle core by a clear margin,
//! * the CPA allocation loop behind MCPA and HCPA (one prefix bottom-level
//!   sweep per step) must beat the retained two-pass reference loop.
//!
//! `#[ignore]` because wall clock in a debug build is meaningless —
//! `scripts/ci.sh` runs them with `cargo test --release -- --ignored`.

use exec_model::{SyntheticModel, TimeMatrix};
use heuristics::common::{run_cpa_loop_reference, CpaLoop};
use heuristics::{Allocator, Hcpa, Mcpa};
use obs::{FlightRecorder, NoopRecorder, Recorder};
use platform::grelon;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sched::{Allocation, EvalScratch, ListScheduler};
use std::time::Instant;
use workloads::{daggen::random_ptg, CostConfig, DaggenParams};

#[test]
#[ignore = "wall-clock guard; run in release via scripts/ci.sh"]
fn flight_recorder_overhead_stays_within_budget() {
    const LAMBDA: usize = 25;
    const ROUNDS: usize = 40;
    // Each timed pass repeats the λ-batch this many times — passes in the
    // hundreds of microseconds make the min-of-k far less jittery than a
    // single ~180µs batch on a shared host.
    const REPS: usize = 4;
    // The observability contract is ≤5% overhead with the flight recorder
    // live on the mapper loop. Quiet-machine runs measure ~3%, but this
    // container shares its host and min-of-k still swings several percent
    // either way, so the gate allows 15% — tight enough to catch a
    // wholesale regression of the push fast path (the per-event
    // `Weak::upgrade` it replaced cost that much on a *quiet* machine),
    // loose enough not to flake on a noisy neighbour.
    const MAX_RATIO: f64 = 1.15;

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
    let mut scratch = EvalScratch::with_capacity(g.task_count(), cluster.processors);

    fn pass<R: Recorder>(
        g: &ptg::Ptg,
        matrix: &TimeMatrix,
        allocs: &[Allocation],
        scratch: &mut EvalScratch,
        rec: &R,
    ) -> f64 {
        let t = Instant::now();
        for _ in 0..REPS {
            for a in allocs {
                std::hint::black_box(ListScheduler.evaluate_bounded_obs(
                    g,
                    matrix,
                    a,
                    f64::INFINITY,
                    scratch,
                    rec,
                ));
            }
        }
        t.elapsed().as_secs_f64()
    }

    // Ring big enough that the measured pushes never wrap — wrap cost is
    // the saturation measurement in `emts-obsbench`, not this budget.
    let flight = FlightRecorder::with_capacity(1 << 22);
    let _ = pass(&g, &matrix, &allocs, &mut scratch, &NoopRecorder);
    let _ = pass(&g, &matrix, &allocs, &mut scratch, &flight);

    // Interleaved min-of-k against the compiled-out baseline, same
    // discipline as the other guards.
    let mut best_noop = f64::INFINITY;
    let mut best_flight = f64::INFINITY;
    for _ in 0..ROUNDS {
        best_noop = best_noop.min(pass(&g, &matrix, &allocs, &mut scratch, &NoopRecorder));
        best_flight = best_flight.min(pass(&g, &matrix, &allocs, &mut scratch, &flight));
    }

    let noop_ns = best_noop * 1e9 / (LAMBDA * REPS) as f64;
    let flight_ns = best_flight * 1e9 / (LAMBDA * REPS) as f64;
    println!(
        "PERF_GUARD noop_ns_per_eval={noop_ns:.1} flight_ns_per_eval={flight_ns:.1} \
         overhead_pct={:.2}",
        (best_flight / best_noop - 1.0) * 100.0
    );
    assert!(
        best_flight <= best_noop * MAX_RATIO,
        "flight recorder overhead regressed: {flight_ns:.1} ns/eval vs noop {noop_ns:.1} \
         ns/eval (budget {:.0}%)",
        (MAX_RATIO - 1.0) * 100.0
    );
}

#[test]
#[ignore = "wall-clock guard; run in release via scripts/ci.sh"]
fn soa_core_is_faster_than_the_reference_oracle() {
    const EVALS: usize = 400;
    const ROUNDS: usize = 7;
    // The oracle keeps one heap entry per *processor* (the pre-grouping
    // design), so on P=120 the SoA grouped core measures ~80× faster
    // here; 10× leaves an order of magnitude for noisy CI hosts while
    // still catching any wholesale regression of the packed-heap/CSR
    // core. (Against the grouped-BinaryHeap core it replaced, the SoA
    // core measures ~1.8× — that comparison lives in BENCH_fitness.json's
    // `list_makespan_only/Grelon_n100` history, not here, because the old
    // grouped core no longer exists in-tree.)
    const REQUIRED_SPEEDUP: f64 = 10.0;

    let mut rng = ChaCha8Rng::seed_from_u64(23);
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
    let alloc = Allocation::from_vec(
        (0..g.task_count())
            .map(|_| rng.gen_range(1..=cluster.processors))
            .collect(),
    );
    let mut scratch = EvalScratch::new();

    // Interleaved min-of-k: alternate the two cores so frequency scaling
    // and cache warmth hit both equally; compare the best round of each.
    let mut best_soa = f64::INFINITY;
    let mut best_oracle = f64::INFINITY;
    let mut check = 0u64;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..EVALS {
            let m = ListScheduler
                .makespan_bounded_with(&g, &matrix, &alloc, f64::INFINITY, &mut scratch)
                .expect("infinite cutoff never rejects");
            check ^= m.to_bits();
        }
        best_soa = best_soa.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for _ in 0..EVALS {
            let m = ListScheduler
                .makespan_bounded_reference(&g, &matrix, &alloc, f64::INFINITY)
                .expect("infinite cutoff never rejects");
            check ^= m.to_bits();
        }
        best_oracle = best_oracle.min(t.elapsed().as_secs_f64());
    }
    std::hint::black_box(check);

    let soa_ns = best_soa * 1e9 / EVALS as f64;
    let oracle_ns = best_oracle * 1e9 / EVALS as f64;
    println!(
        "PERF_GUARD soa_ns_per_eval={soa_ns:.1} oracle_ns_per_eval={oracle_ns:.1} \
         speedup={:.2}",
        oracle_ns / soa_ns
    );
    assert!(
        best_soa * REQUIRED_SPEEDUP <= best_oracle,
        "SoA core regressed: {soa_ns:.1} ns/eval vs oracle {oracle_ns:.1} ns/eval \
         (need ≥{REQUIRED_SPEEDUP}×)"
    );
}

#[test]
#[ignore = "wall-clock guard; run in release via scripts/ci.sh"]
fn cpa_loop_is_faster_than_the_reference() {
    const ROUNDS: usize = 5;
    // The prefix sweep measures 2.8–3.2× over the two-pass loop on the
    // whole Grelon corpus; 1.8× is what a single full sweep into a reused
    // buffer reaches, so the guard fails if the loop falls back to that or
    // to anything slower.
    const REQUIRED_SPEEDUP: f64 = 1.8;

    // Every sixth item of one cycle of the paper's DAGGEN grid: 24 graphs
    // covering n = 20, 50 and 100 and every shape.
    let cluster = grelon();
    let costs = CostConfig::default();
    let inputs: Vec<(ptg::Ptg, TimeMatrix)> = (0..144)
        .step_by(6)
        .map(|i| {
            let g = workloads::stream::item(2011, i, &costs).ptg;
            let m = TimeMatrix::compute(
                &g,
                &SyntheticModel::default(),
                cluster.speed_flops(),
                cluster.processors,
            );
            (g, m)
        })
        .collect();

    let fast = |g: &ptg::Ptg, m: &TimeMatrix| (Mcpa.allocate(g, m), Hcpa.allocate(g, m));
    let reference = |g: &ptg::Ptg, m: &TimeMatrix| {
        let rule = Mcpa::growth_rule(g, m.p_max());
        let mcpa = CpaLoop {
            may_grow: &rule,
            stop_on_no_gain: false,
        };
        (
            run_cpa_loop_reference(g, m, &mcpa),
            run_cpa_loop_reference(g, m, &CpaLoop::default()),
        )
    };
    // Same output first: the speed comparison means nothing otherwise.
    for (g, m) in &inputs {
        assert_eq!(fast(g, m), reference(g, m));
    }

    // Interleaved min-of-k, same discipline as the other guards.
    let mut best_fast = f64::INFINITY;
    let mut best_reference = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for (g, m) in &inputs {
            std::hint::black_box(fast(g, m));
        }
        best_fast = best_fast.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for (g, m) in &inputs {
            std::hint::black_box(reference(g, m));
        }
        best_reference = best_reference.min(t.elapsed().as_secs_f64());
    }

    let fast_ms = best_fast * 1e3 / inputs.len() as f64;
    let reference_ms = best_reference * 1e3 / inputs.len() as f64;
    println!(
        "PERF_GUARD cpa_loop_ms_per_item={fast_ms:.3} reference_ms_per_item={reference_ms:.3} \
         speedup={:.2}",
        reference_ms / fast_ms
    );
    assert!(
        best_fast * REQUIRED_SPEEDUP <= best_reference,
        "CPA loop regressed: {fast_ms:.3} ms/item vs reference {reference_ms:.3} ms/item \
         (need ≥{REQUIRED_SPEEDUP}×)"
    );
}
