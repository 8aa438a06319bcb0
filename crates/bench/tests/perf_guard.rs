//! Release-mode regression guards for the fitness hot paths.
//!
//! Four guards on the paper's hard case (DAGGEN on Grelon, P=120, Model 2),
//! all relative — they compare two in-tree implementations on the same
//! machine, so they hold on any host:
//!
//! * the serial pool path, bare and under a live flight recorder, must
//!   stay within its overhead budget over the bare mapper loop, measured
//!   by the same function whose result `emts-ledger` records in
//!   `BENCH_obs.json`,
//! * the SoA grouped core (packed `u128` heaps, flat task columns) must beat
//!   the retained pre-refactor oracle core by a clear margin,
//! * the CPA allocation loop behind MCPA and HCPA (one prefix sweep per
//!   step over the transitive reduction, which also yields the critical
//!   path) must beat the retained two-pass reference loop,
//! * `map`, which takes processors from one sorted array, must beat the
//!   same mapper on the retained per-processor heap.
//!
//! `#[ignore]` because wall clock in a debug build is meaningless —
//! `scripts/ci.sh` runs them with `cargo test --release -- --ignored`.
//! They take turns: run side by side, as the test harness would, each
//! would also time the others. Every guard times its sides one way, with
//! `bench::ledger`'s interleaved rounds (the first side rotating) and the
//! median of the per-round ratios.

use bench::ledger::{interleaved, paired_ratio, recorder_overhead, HardCase};
use exec_model::{SyntheticModel, TimeMatrix};
use heuristics::common::{run_cpa_loop_reference, CpaLoop};
use heuristics::{Allocator, Hcpa, Mcpa};
use platform::grelon;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sched::{Allocation, EvalScratch, ListScheduler, Mapper};
use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use workloads::{daggen::random_ptg, CostConfig, DaggenParams};

static TIMING: Mutex<()> = Mutex::new(());

/// Holds the host for one guard. A guard that failed its assert poisons
/// nothing the next one reads.
fn exclusive() -> MutexGuard<'static, ()> {
    TIMING.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
#[ignore = "wall-clock guard; run in release via scripts/ci.sh"]
fn recorder_overhead_stays_within_budget() {
    let _turn = exclusive();
    // The serial pool path is the bare loop plus a batch hand-off, on the
    // same compiled mapper core: over 70 release runs on a 2-vCPU host it
    // measured −3.4% to +5.3% over it, median 0.6%.
    const NOOP_BUDGET_PCT: f64 = 5.0;
    // The same path under a live flight recorder adds two clock reads and
    // one latency event per evaluation: −1.6% to 14.0% over the bare loop
    // in those runs, median 5.8%, 3 of 70 over budget; the per-event
    // `Weak::upgrade` path it replaced cost 15% on a quiet machine.
    const FLIGHT_BUDGET_PCT: f64 = 12.0;

    let o = recorder_overhead(&HardCase::new());
    println!(
        "PERF_GUARD raw_ns_per_eval={:.1} noop_pct={:.2} stats_pct={:.2} flight_pct={:.2}",
        o.raw_ns_per_eval, o.noop_overhead_pct, o.stats_overhead_pct, o.flight_overhead_pct
    );
    assert!(
        o.noop_overhead_pct <= NOOP_BUDGET_PCT,
        "serial pool path is {:.2}% slower than the bare mapper loop (budget {NOOP_BUDGET_PCT}%)",
        o.noop_overhead_pct
    );
    assert!(
        o.flight_overhead_pct <= FLIGHT_BUDGET_PCT,
        "flight recorder overhead regressed: {:.2}% over the bare mapper loop \
         (budget {FLIGHT_BUDGET_PCT}%)",
        o.flight_overhead_pct
    );
}

#[test]
#[ignore = "wall-clock guard; run in release via scripts/ci.sh"]
fn soa_core_is_faster_than_the_reference_oracle() {
    let _turn = exclusive();
    const EVALS: usize = 400;
    const ROUNDS: usize = 7;
    // The oracle keeps one heap entry per *processor* (the pre-grouping
    // design), so on P=120 the SoA grouped core measures ~80× faster
    // here; 10× leaves an order of magnitude for noisy CI hosts while
    // still catching any wholesale regression of the packed-heap
    // core. (Against the grouped-BinaryHeap core it replaced, the SoA
    // core measures ~1.8× — that comparison lives in BENCH_fitness.json's
    // `list_makespan_only/Grelon_n100` history, not here, because the old
    // grouped core no longer exists in-tree.)
    const REQUIRED_SPEEDUP: f64 = 10.0;

    let (g, matrix, alloc) = grelon_n100_random_widths();
    let mut scratch = EvalScratch::new();
    let inf = f64::INFINITY;
    let mut soa = || ListScheduler.makespan_bounded_with(&g, &matrix, &alloc, inf, &mut scratch);
    let oracle = || ListScheduler.makespan_bounded_reference(&g, &matrix, &alloc, inf);
    let t = interleaved::<&mut dyn FnMut() -> f64>(
        ROUNDS,
        &mut [
            &mut || secs(|| (0..EVALS).for_each(|_| consume(soa()))),
            &mut || secs(|| (0..EVALS).for_each(|_| consume(oracle()))),
        ],
    );
    let speedup = paired_ratio(&t[1], &t[0]);
    println!(
        "PERF_GUARD soa_ns_per_eval={:.1} oracle_ns_per_eval={:.1} speedup={speedup:.2}",
        fastest(&t[0]) * 1e9 / EVALS as f64,
        fastest(&t[1]) * 1e9 / EVALS as f64
    );
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "SoA core regressed: {speedup:.2}× over the oracle (need ≥{REQUIRED_SPEEDUP}×)"
    );
}

#[test]
#[ignore = "wall-clock guard; run in release via scripts/ci.sh"]
fn map_is_faster_than_the_heap_reference() {
    let _turn = exclusive();
    const MAPS: usize = 200;
    const ROUNDS: usize = 7;
    // `map` reads each task's processors off the head of one array sorted
    // by (free time, processor) and merges them back, where the reference
    // pops and pushes every one through a comparator `BinaryHeap`. Both
    // build the same placement lists, so the ratio is the availability
    // container's share of a full mapping: 4.9–6.1× over 22 release runs
    // on a 2-vCPU host (35–39 µs per map against 190–216 µs).
    // 2× still catches a return to per-processor heap traffic.
    const REQUIRED_SPEEDUP: f64 = 2.0;

    let (g, matrix, alloc) = grelon_n100_random_widths();
    let map = || ListScheduler.map(&g, &matrix, &alloc);
    let reference = || ListScheduler.map_reference(&g, &matrix, &alloc);
    // Same output first: the speed comparison means nothing otherwise.
    assert_eq!(map(), reference());
    let t = interleaved::<&mut dyn FnMut() -> f64>(
        ROUNDS,
        &mut [
            &mut || secs(|| (0..MAPS).for_each(|_| consume(map()))),
            &mut || secs(|| (0..MAPS).for_each(|_| consume(reference()))),
        ],
    );
    let speedup = paired_ratio(&t[1], &t[0]);
    println!(
        "PERF_GUARD map_us_per_call={:.2} reference_us_per_call={:.2} speedup={speedup:.2}",
        fastest(&t[0]) * 1e6 / MAPS as f64,
        fastest(&t[1]) * 1e6 / MAPS as f64
    );
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "map regressed: {speedup:.2}× over the heap reference (need ≥{REQUIRED_SPEEDUP}×)"
    );
}

#[test]
#[ignore = "wall-clock guard; run in release via scripts/ci.sh"]
fn cpa_loop_is_faster_than_the_reference() {
    let _turn = exclusive();
    const ROUNDS: usize = 9;
    // One sweep per step that also yields each task's heaviest successor
    // measures 3.2–5.7× over the two-pass loop (two sets of 20
    // back-to-back release runs on a 2-vCPU host, medians 4.25× and
    // 4.0×); the reference gains from the non-NaN bottom-level fold too.
    // Sweeping the transitive reduction's edges only measures 3.95–4.03×
    // (20 runs, 0.94 ms per item), where the loop on every edge measured
    // 3.28–3.33× (1.12 ms) on the same host the same hour. The previous
    // loop, which re-scanned successors to walk the critical path,
    // measured 2.9–3.2×. 3.0× is the highest floor that passed every run.
    const REQUIRED_SPEEDUP: f64 = 3.0;

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
        (
            run_cpa_loop_reference(g, m, &Mcpa::cpa_loop()),
            run_cpa_loop_reference(g, m, &CpaLoop::default()),
        )
    };
    // Same output first: the speed comparison means nothing otherwise.
    for (g, m) in &inputs {
        assert_eq!(fast(g, m), reference(g, m));
    }

    let t = interleaved::<&mut dyn FnMut() -> f64>(
        ROUNDS,
        &mut [
            &mut || secs(|| inputs.iter().for_each(|(g, m)| consume(fast(g, m)))),
            &mut || secs(|| inputs.iter().for_each(|(g, m)| consume(reference(g, m)))),
        ],
    );
    let speedup = paired_ratio(&t[1], &t[0]);
    println!(
        "PERF_GUARD cpa_loop_ms_per_item={:.3} reference_ms_per_item={:.3} speedup={speedup:.2}",
        fastest(&t[0]) * 1e3 / inputs.len() as f64,
        fastest(&t[1]) * 1e3 / inputs.len() as f64
    );
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "CPA loop regressed: {speedup:.2}× over the reference (need ≥{REQUIRED_SPEEDUP}×)"
    );
}

/// A DAGGEN graph with n = 100 on Grelon (P=120) under Model 2, and an
/// allocation with random widths.
fn grelon_n100_random_widths() -> (ptg::Ptg, TimeMatrix, Allocation) {
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
    (g, matrix, alloc)
}

/// Seconds `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Keeps a timed result alive, so the optimizer cannot skip its work.
fn consume<T>(result: T) {
    black_box(result);
}

/// The fastest round of one side, for the printed per-call times.
fn fastest(side: &[f64]) -> f64 {
    side.iter().copied().fold(f64::INFINITY, f64::min)
}
