//! The per-layer performance ledger: every number of `BENCH_fitness.json`,
//! `BENCH_obs.json` and `BENCH_online.json`, and the run report
//! `BENCH_fitness_report.json`, measured once in one process and written
//! through serde by `emts-ledger`.
//!
//! The timings run on one [`HardCase`]. Each interleaves its sides over 40
//! rounds, rotating which side runs first; a side reads as its median
//! round and a ratio between sides as the median of their per-round
//! ratios, so host drift cancels out of the ratios but not out of absolute
//! nanoseconds. The fault and lint measurements read `data/` and
//! `crates/` relative to the working directory, the repository root, and
//! panic if it is not.

use emts::parallel::{EvalPool, FitnessEngine};
use emts::{Emts, EmtsConfig, EmtsResult};
use exec_model::{SyntheticModel, TimeMatrix};
use obs::{FlightRecorder, NoopRecorder, Recorder, StatsRecorder};
use platform::{chti, grelon, Cluster};
use ptg::Ptg;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sched::{Allocation, EvalScratch, InsertionScheduler, ListScheduler, Mapper};
use serde::{Deserialize, Serialize};
use sim::online::{run_online, OnlineConfig, OnlineTotals};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{daggen::random_ptg, CostConfig, DaggenParams};

const ROUNDS: usize = 40;
/// Offspring per EMTS5 generation: the batch every fitness path evaluates.
const LAMBDA: usize = 25;
/// λ-batches per pass of [`recorder_overhead`], so that one preempted time
/// slice does not dominate a round.
const OVERHEAD_REPS: usize = 4;
/// How long every other pass is calibrated to run, in seconds.
const PASS_SECONDS: f64 = 1e-3;
const INF: f64 = f64::INFINITY;
const FAULT_SPEC: &str = "seed=2011,perturb=0.2,straggler_prob=0.05,straggler_factor=4,\
crash=0.05,retries=3,backoff=0.5,procfail=0.02";
const ONLINE_CHURN: &str = "fail_every=200,repair_after=120,spares=1,join_every=500";
const LINT_BUDGET_MS: f64 = 2000.0;

fn daggen(n: usize) -> DaggenParams {
    DaggenParams {
        n,
        width: 0.5,
        regularity: 0.2,
        density: 0.2,
        jump: 2,
    }
}

fn model2(g: &Ptg, cluster: &Cluster) -> TimeMatrix {
    let model = SyntheticModel::default();
    TimeMatrix::compute(g, &model, cluster.speed_flops(), cluster.processors)
}

fn random_alloc(g: &Ptg, cluster: &Cluster, rng: &mut ChaCha8Rng) -> Allocation {
    let widths = (0..g.task_count()).map(|_| rng.gen_range(1..=cluster.processors));
    Allocation::from_vec(widths.collect())
}

/// The paper's hard case: DAGGEN n=100 (width 0.5, regularity 0.2,
/// density 0.2, jump 2) drawn from ChaCha8 seed 17, on Grelon (P=120)
/// under Model 2, with one EMTS5 generation (λ = 25) of random allocations
/// drawn next from the same generator.
pub struct HardCase {
    g: Ptg,
    matrix: TimeMatrix,
    allocs: Vec<Allocation>,
    /// The generator after those draws; the small EMTS10 case comes next.
    rng: ChaCha8Rng,
}

impl HardCase {
    const LABEL: &'static str = "DAGGEN n=100 (width 0.5, regularity 0.2, density 0.2, \
jump 2, seed 17) on Grelon (P=120), Model 2";

    /// Builds the case.
    pub fn new() -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let g = random_ptg(&daggen(100), &CostConfig::default(), &mut rng);
        let matrix = model2(&g, &grelon());
        let allocs = (0..LAMBDA)
            .map(|_| random_alloc(&g, &grelon(), &mut rng))
            .collect();
        HardCase {
            g,
            matrix,
            allocs,
            rng,
        }
    }
}

impl Default for HardCase {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs every side once untimed, then `rounds` rounds of every side, round
/// `r` starting at side `r % sides.len()`. Each side times itself and
/// returns seconds. Returns `seconds[side][round]`.
pub fn interleaved<F: FnMut() -> f64>(rounds: usize, sides: &mut [F]) -> Vec<Vec<f64>> {
    for side in sides.iter_mut() {
        side();
    }
    let n = sides.len();
    let mut out = vec![Vec::with_capacity(rounds); n];
    for s in (0..rounds).flat_map(|r| (r..r + n).map(move |i| i % n)) {
        out[s].push(sides[s]());
    }
    out
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The median over rounds of `a`'s time over `b`'s in the same round.
pub fn paired_ratio(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "paired sides ran different rounds");
    median(&a.iter().zip(b).map(|(x, y)| x / y).collect::<Vec<_>>())
}

fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// A side for [`interleaved`]: as many back-to-back `call`s as fill
/// [`PASS_SECONDS`] (calibrated once, after a warm-up call), returning
/// seconds per call.
fn per_call<'a, T>(mut call: impl FnMut() -> T + 'a) -> Box<dyn FnMut() -> f64 + 'a> {
    call();
    let reps = (PASS_SECONDS / secs(&mut call).max(1e-9)).ceil().min(1e6) as usize;
    Box::new(move || secs(|| (0..reps).map(|_| black_box(call())).count()) / reps as f64)
}

/// Nanoseconds per evaluation of the λ-batch through each fitness path.
#[derive(Serialize, Deserialize)]
struct FitnessPaths {
    /// A thread scope per batch, fresh buffers and a heap entry per
    /// processor: the pre-engine path (`makespan_bounded_reference`).
    prepr_baseline: f64,
    /// The persistent pool: wall time per item across the caller and its
    /// workers, not the latency of one evaluation.
    pooled_wall_per_item: f64,
    /// The same pool with no workers.
    serial_scratch: f64,
    memo_hit: f64,
}

fn prepr_baseline(g: &Ptg, matrix: &TimeMatrix, allocs: &[Allocation]) -> Vec<Option<f64>> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = allocs.len().div_ceil(threads.min(allocs.len()));
    let mut results = vec![None; allocs.len()];
    std::thread::scope(|scope| {
        for (ac, rc) in allocs.chunks(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(|| {
                for (a, r) in ac.iter().zip(rc) {
                    *r = ListScheduler.makespan_bounded_reference(g, matrix, a, INF);
                }
            });
        }
    });
    results
}

/// Times the four fitness paths in the same rounds; returns them and
/// `prepr_baseline`'s paired ratio to `serial_scratch`.
fn fitness_paths(case: &HardCase) -> (FitnessPaths, f64) {
    let (g, matrix, allocs) = (&case.g, &case.matrix, &case.allocs);
    EvalPool::with(g, matrix, true, |pooled| {
        EvalPool::with(g, matrix, false, |serial| {
            EvalPool::with(g, matrix, false, |memo_pool| {
                let mut engine = FitnessEngine::new(memo_pool);
                engine.evaluate(allocs, INF);
                let t = interleaved(
                    ROUNDS,
                    &mut [
                        per_call(|| prepr_baseline(g, matrix, allocs)),
                        per_call(|| pooled.run_batch(allocs.clone(), INF)),
                        per_call(|| serial.run_batch(allocs.clone(), INF)),
                        per_call(|| engine.evaluate(allocs, INF)),
                    ],
                );
                let ns = |s: &[f64]| median(s) * 1e9 / LAMBDA as f64;
                let paths = FitnessPaths {
                    prepr_baseline: ns(&t[0]),
                    pooled_wall_per_item: ns(&t[1]),
                    serial_scratch: ns(&t[2]),
                    memo_hit: ns(&t[3]),
                };
                (paths, paired_ratio(&t[0], &t[2]))
            })
        })
    })
}

/// Nanoseconds per call of each mapper on seed-11 DAGGEN graphs (Chti
/// n=20 and Grelon n=100, Model 2, one random allocation each), keyed
/// `<mapper>/<cluster>_n<n>`.
fn mapper_ns_per_call() -> BTreeMap<String, f64> {
    let cells: Vec<_> = [(chti(), 20), (grelon(), 100)]
        .into_iter()
        .map(|(cluster, n)| {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let g = random_ptg(&daggen(n), &CostConfig::default(), &mut rng);
            let alloc = random_alloc(&g, &cluster, &mut rng);
            (
                format!("{}_n{n}", cluster.name),
                model2(&g, &cluster),
                g,
                alloc,
            )
        })
        .collect();
    let (mut names, mut sides) = (Vec::new(), Vec::new());
    for (label, m, g, a) in &cells {
        names.extend(
            ["list_makespan_only", "list_full_schedule", "insertion"]
                .map(|k| format!("{k}/{label}")),
        );
        sides.push(per_call(move || ListScheduler.makespan(g, m, a)));
        sides.push(per_call(move || ListScheduler.map(g, m, a).makespan()));
        sides.push(per_call(move || InsertionScheduler.map(g, m, a).makespan()));
    }
    let t = interleaved(ROUNDS, &mut sides);
    names
        .into_iter()
        .zip(t.iter().map(|s| median(s) * 1e9))
        .collect()
}

/// `BENCH_obs.json`: what the recorders cost, measured by
/// [`recorder_overhead`].
#[derive(Serialize, Deserialize)]
pub struct ObsBench {
    workload: String,
    rounds: usize,
    batch: usize,
    /// The bare `evaluate_bounded_with` loop: median ns per evaluation.
    pub raw_ns_per_eval: f64,
    /// The serial `EvalPool::run_batch` path, in percent over the bare
    /// loop (the median of the per-round ratios).
    pub noop_overhead_pct: f64,
    /// The same path under a [`StatsRecorder`], likewise.
    pub stats_overhead_pct: f64,
    /// The same path under a live [`FlightRecorder`], likewise.
    pub flight_overhead_pct: f64,
    /// Single-thread flight-recorder events per second into a ring that
    /// never wraps, and into one that wraps on almost every push.
    events_per_sec: f64,
    saturated_events_per_sec: f64,
    /// The share of pushes the wrapping ring dropped, counted exactly.
    drop_rate_at_capacity: f64,
}

/// Seconds [`OVERHEAD_REPS`] λ-batches of `allocs` take through `run`.
/// Each batch is a fresh copy made untimed, so every side of
/// [`recorder_overhead`] reads and frees the same kind of memory.
fn batch_pass<T>(allocs: &[Allocation], mut run: impl FnMut(Vec<Allocation>) -> T) -> f64 {
    let batches = [(); OVERHEAD_REPS].map(|_| allocs.to_vec());
    batches.into_iter().map(|b| secs(|| run(b))).sum()
}

/// Times the bare loop and the serial pool path, bare and under the two
/// live recorders, on `case`, in one set of interleaved rounds of four
/// λ-batches per side, then the flight recorder's event throughput.
/// `emts-ledger` records the result, and the release perf guard gates it.
pub fn recorder_overhead(case: &HardCase) -> ObsBench {
    let (g, matrix, allocs) = (&case.g, &case.matrix, &case.allocs);
    let stats = StatsRecorder::new();
    // Never wraps during the measurement: wrapping is the saturation figure.
    let flight = FlightRecorder::with_capacity(1 << 22);
    // Sized up front, as each pool sizes its own: a scratch grown on first
    // use lands elsewhere in memory and moved the noop ratio by ±4%.
    let mut raw = EvalScratch::with_capacity(g.task_count(), matrix.p_max());
    let t = EvalPool::with(g, matrix, false, |noop| {
        EvalPool::with_recorder(g, matrix, false, &stats, |st| {
            EvalPool::with_recorder(g, matrix, false, &flight, |fl| {
                interleaved::<&mut dyn FnMut() -> f64>(
                    ROUNDS,
                    &mut [
                        &mut || {
                            batch_pass(allocs, |b| {
                                b.iter()
                                    .map(|a| {
                                        let eval = ListScheduler
                                            .evaluate_bounded_with(g, matrix, a, INF, &mut raw);
                                        black_box(eval)
                                    })
                                    .count()
                            })
                        },
                        &mut || batch_pass(allocs, |b| noop.run_batch(b, INF)),
                        &mut || batch_pass(allocs, |b| st.run_batch(b, INF)),
                        &mut || batch_pass(allocs, |b| fl.run_batch(b, INF)),
                    ],
                )
            })
        })
    });
    let pct = |side: &[f64]| (paired_ratio(side, &t[0]) - 1.0) * 100.0;

    const PUSHES: u64 = 1 << 20;
    // Small enough that virtually every push overwrites.
    const SATURATED: usize = 4096;
    let rate = |rec: &FlightRecorder| {
        PUSHES as f64 / secs(|| (0..PUSHES).for_each(|i| rec.event("bench.tick", i)))
    };
    let (big, small) = (
        FlightRecorder::with_capacity(PUSHES as usize + 1),
        FlightRecorder::with_capacity(SATURATED),
    );
    let (events_per_sec, saturated_events_per_sec) = (rate(&big), rate(&small));
    assert_eq!(big.total_dropped(), 0, "oversized ring must not drop");
    let dropped = small.total_dropped();
    assert_eq!(
        dropped,
        PUSHES - SATURATED as u64,
        "drop accounting must be exact"
    );
    ObsBench {
        workload: HardCase::LABEL.into(),
        rounds: ROUNDS,
        batch: LAMBDA,
        raw_ns_per_eval: median(&t[0]) * 1e9 / (OVERHEAD_REPS * LAMBDA) as f64,
        noop_overhead_pct: pct(&t[1]),
        stats_overhead_pct: pct(&t[2]),
        flight_overhead_pct: pct(&t[3]),
        events_per_sec,
        saturated_events_per_sec,
        drop_rate_at_capacity: dropped as f64 / PUSHES as f64,
    }
}

/// Memo-cache statistics of one EMTS10 run; `pruned` counts the
/// offspring the survival screen dropped ([`EmtsResult::pruned`]).
#[derive(Serialize, Deserialize)]
struct RunCache {
    hits: u64,
    misses: u64,
    hit_rate: f64,
    pruned: usize,
}

impl RunCache {
    fn of(r: &EmtsResult) -> Self {
        let c = r.trace.counters();
        RunCache {
            hits: c.hits,
            misses: c.misses,
            hit_rate: c.hit_rate(),
            pruned: r.pruned,
        }
    }
}

/// EMTS10 (seed 42) on the hard case under a [`StatsRecorder`], and on a
/// DAGGEN n=20 Chti case drawn next from the hard case's generator: on
/// P=120 offspring mutate ≥ 3 genes and hardly ever repeat, while on the
/// small case late generations mutate one gene that often clamps back, so
/// the memo and the dedupe fire. Returns the cache statistics by case and
/// the hard-case run's report.
fn emts10_runs(case: &HardCase) -> (BTreeMap<String, RunCache>, obs::RunReport) {
    let emts = Emts::new(EmtsConfig::emts10());
    let rec = StatsRecorder::new();
    let r = emts.run_recorded(&case.g, &case.matrix, 42, &rec);
    let mut report = rec.report("emts-ledger");
    report
        .meta
        .insert("workload".into(), "irregular_n100".into());
    report.meta.insert("platform".into(), "Grelon".into());
    report.meta.insert("config".into(), "EMTS10".into());
    report.convergence = Some(r.trace.to_value());
    let small = random_ptg(&daggen(20), &CostConfig::default(), &mut case.rng.clone());
    let rs = emts.run(&small, &model2(&small, &chti()), 42);
    assert!(
        rs.trace.counters().hits > 0,
        "memo hits and dedupe must fire on the small run"
    );
    let caches = [("grelon_n100", &r), ("chti_n20", &rs)];
    (
        caches.map(|(k, r)| (k.into(), RunCache::of(r))).into(),
        report,
    )
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn chti_platform() -> Cluster {
    platform::file::parse_platform(&read("data/chti.platform")).expect("data/chti.platform parses")
}

/// p95 makespan degradation of MCPA schedules on Chti (Model 2, run seed
/// 2011) over 20 replays under [`FAULT_SPEC`].
#[derive(Serialize, Deserialize)]
struct RobustP95 {
    spec: String,
    trials: usize,
    fft16: f64,
    irregular_n50: f64,
}

fn robust_p95_degradation() -> RobustP95 {
    let (cluster, trials) = (chti_platform(), 20);
    let spec = sim::faults::FaultSpec::parse(FAULT_SPEC).expect("the ledger's spec parses");
    let p95 = |name: &str| {
        let g = sim::formats::parse_ptg(&read(&format!("data/{name}.ptg"))).expect("PTG parses");
        let (model, mcpa) = (SyntheticModel::default(), sim::runner::Algorithm::Mcpa);
        let runs = sim::runner::run_with_faults_workers(
            mcpa,
            &g,
            &cluster,
            &model,
            2011,
            &spec,
            trials,
            None,
            &NoopRecorder,
        );
        let report = runs.expect("the spec never kills every processor").0;
        report.faults.expect("fault runs summarize").p95_degradation
    };
    RobustP95 {
        spec: FAULT_SPEC.into(),
        trials,
        fft16: p95("fft16"),
        irregular_n50: p95("irregular_n50"),
    }
}

/// The analyzer over what CI lints, timed in process, and the distinct
/// rules the negative corpus `data/bad` trips (a fall means corpus entries
/// went blind).
#[derive(Serialize, Deserialize)]
struct LintV2 {
    wall_ms: f64,
    tree_findings: usize,
    corpus_rule_hits: usize,
}

fn lint_v2() -> LintV2 {
    // `crates data/*.ptg data/*.platform BENCH_*.json`, as `scripts/ci.sh`.
    let mut set = vec![PathBuf::from("crates")];
    for (dir, prefix, suffixes) in [
        ("data", "", &["ptg", "platform"][..]),
        (".", "BENCH_", &["json"]),
    ] {
        for entry in std::fs::read_dir(dir).expect("run from the repository root") {
            let path = entry.expect("directory entries read").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
            if path.is_file() && name.starts_with(prefix) && suffixes.contains(&ext) {
                set.push(path);
            }
        }
    }
    let t = Instant::now();
    let tree = lint::lint_paths(&set).expect("the CI lint set reads");
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(wall_ms < LINT_BUDGET_MS, "lint v2 took {wall_ms:.0} ms");
    let corpus = lint::lint_paths(&[PathBuf::from("data/bad")]).expect("data/bad reads");
    let rules: BTreeSet<&str> = corpus.iter().map(|f| f.rule.as_str()).collect();
    LintV2 {
        wall_ms,
        tree_findings: tree.len(),
        corpus_rule_hits: rules.len(),
    }
}

/// Aggregates of one online run; `ring_epochs` counts the decision epochs
/// adopted from rings 0, 1 and 2.
#[derive(Serialize, Deserialize)]
struct OnlineRow {
    makespan: f64,
    queue_wait_mean: f64,
    stretch_mean: f64,
    stretch_p95: f64,
    utilization: f64,
    slo_attainment: f64,
    deadline_overruns: usize,
    watchdog_degraded: usize,
    ring_epochs: Vec<usize>,
    reactive_replans: usize,
    tasks_killed: u64,
}

impl From<OnlineTotals> for OnlineRow {
    /// The totals' fields of the same names, and the three ring counts.
    fn from(t: OnlineTotals) -> Self {
        let mut v = t.to_value();
        let rings = vec![t.ring0_epochs, t.ring1_epochs, t.ring2_epochs];
        if let serde::Value::Object(fields) = &mut v {
            fields.push(("ring_epochs".into(), rings.to_value()));
        }
        OnlineRow::from_value(&v).expect("the totals hold every row field")
    }
}

/// `BENCH_online.json`: six streamed jobs (seed 2011, mean inter-arrival
/// 40 s) on Chti under [`ONLINE_CHURN`], 60 s epochs with a 5 s decision
/// budget, Model 2 and otherwise `emts-sim --online`'s defaults; once with
/// EMTS5 as ring 0, once reactive only. No epoch may overrun its budget.
#[derive(Serialize)]
struct OnlineBench {
    workload: String,
    seed: u64,
    churn: String,
    rolling: OnlineRow,
    reactive: OnlineRow,
}

fn online() -> OnlineBench {
    let cluster = chti();
    let churn = sim::faults::ChurnSpec::parse(ONLINE_CHURN).expect("the ledger's churn parses");
    let run = |emts: Option<EmtsConfig>| -> OnlineRow {
        let cfg = OnlineConfig {
            seed: 2011,
            jobs: 6,
            arrival_mean: 40.0,
            epoch_budget: Some(Duration::from_millis(5000)),
            churn: churn.clone(),
            emts,
            ..OnlineConfig::default()
        };
        let model = SyntheticModel::default();
        let t = run_online(&cluster, &model, &cfg, &NoopRecorder).expect("spares keep it alive");
        assert_eq!(t.totals.deadline_overruns, 0, "an epoch overran its budget");
        t.totals.into()
    };
    OnlineBench {
        workload: "6 streamed DAGGEN jobs on chti (P=20, +1 spare), epoch 60 s, budget 5 s".into(),
        seed: 2011,
        churn: ONLINE_CHURN.into(),
        rolling: run(Some(EmtsConfig::emts5())),
        reactive: run(None),
    }
}

/// `BENCH_fitness.json`.
#[derive(Serialize, Deserialize)]
struct FitnessBench {
    workload: String,
    batch_size: usize,
    paths_ns_per_eval: FitnessPaths,
    mapper_ns_per_call: BTreeMap<String, f64>,
    speedup_vs_prepr_baseline: f64,
    robust_p95_degradation: RobustP95,
    lint_v2: LintV2,
    emts10_run_cache: BTreeMap<String, RunCache>,
}

/// Takes every measurement, the timed ones first, and writes
/// `BENCH_fitness.json`, `BENCH_obs.json`, `BENCH_online.json` and
/// `BENCH_fitness_report.json` under `dir`. Returns the paths written.
pub fn write(dir: &Path) -> std::io::Result<Vec<String>> {
    let case = HardCase::new();
    let (paths, speedup) = fitness_paths(&case);
    let obs = recorder_overhead(&case);
    let mapper = mapper_ns_per_call();
    let (caches, report) = emts10_runs(&case);
    let fitness = FitnessBench {
        workload: HardCase::LABEL.into(),
        batch_size: LAMBDA,
        paths_ns_per_eval: paths,
        mapper_ns_per_call: mapper,
        speedup_vs_prepr_baseline: speedup,
        robust_p95_degradation: robust_p95_degradation(),
        lint_v2: lint_v2(),
        emts10_run_cache: caches,
    };
    let online = online();
    let files: [(&str, &dyn serde::Serialize); 4] = [
        ("BENCH_fitness.json", &fitness),
        ("BENCH_obs.json", &obs),
        ("BENCH_online.json", &online),
        ("BENCH_fitness_report.json", &report),
    ];
    files
        .into_iter()
        .map(|(name, value)| crate::output::write_json(dir, name, &value))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn paired_ratio_reads_a_uniform_slowdown_and_ignores_one_outlier_round() {
        let base: Vec<f64> = (0..ROUNDS).map(|r| 1.0 + 0.05 * (r % 7) as f64).collect();
        let mut slower: Vec<f64> = base.iter().map(|b| b * 1.1).collect();
        assert!((paired_ratio(&slower, &base) - 1.1).abs() < 1e-12);
        // One round preempted for 100× its length moves nothing.
        slower[5] *= 100.0;
        assert!((paired_ratio(&slower, &base) - 1.1).abs() < 1e-12);
    }

    fn numeric_leaves(prefix: &str, v: &Value, out: &mut BTreeSet<String>) {
        match v {
            Value::Object(fields) => {
                for (k, x) in fields {
                    numeric_leaves(&format!("{prefix}.{k}"), x, out);
                }
            }
            Value::Array(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    numeric_leaves(&format!("{prefix}[{i}]"), x, out);
                }
            }
            Value::Int(_) | Value::Float(_) => {
                out.insert(prefix.into());
            }
            _ => {}
        }
    }

    /// A committed file read into its record type and written back keeps
    /// exactly its numeric leaves.
    fn assert_round_trips<T: Serialize + Deserialize>(file: &str) {
        let text = read(&format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR")));
        let committed = serde_json::parse(&text).expect("committed BENCH file is JSON");
        let record = T::from_value(&committed).unwrap_or_else(|e| panic!("{file}: {e}"));
        let (mut before, mut after) = (BTreeSet::new(), BTreeSet::new());
        numeric_leaves("", &committed, &mut before);
        numeric_leaves("", &record.to_value(), &mut after);
        assert_eq!(
            before, after,
            "{file} is stale: regenerate it with `emts-ledger --out .`"
        );
    }

    /// `BENCH_online.json` holds no timings, so a fresh [`online`] record
    /// must equal the committed file field for field.
    #[test]
    fn the_committed_online_bench_is_what_the_code_computes() {
        let fresh = online();
        for (mode, row) in [("rolling", &fresh.rolling), ("reactive", &fresh.reactive)] {
            assert_eq!(
                row.watchdog_degraded, 0,
                "the {mode} run degraded an epoch: the host was too slow to compare it"
            );
        }
        let text = read(&format!(
            "{}/../../BENCH_online.json",
            env!("CARGO_MANIFEST_DIR")
        ));
        let committed = serde_json::parse(&text).expect("committed BENCH file is JSON");
        assert!(
            committed == fresh.to_value(),
            "BENCH_online.json is stale: regenerate it with `emts-ledger --out .`\n{}",
            serde_json::to_string_pretty(&fresh).expect("records serialize")
        );
    }

    #[test]
    fn committed_bench_files_match_the_ledger_records() {
        assert_round_trips::<FitnessBench>("BENCH_fitness.json");
        assert_round_trips::<ObsBench>("BENCH_obs.json");
    }
}
