//! End-to-end telemetry: a recorded EMTS run must produce a coherent,
//! schema-versioned [`obs::RunReport`] whose phase spans account for the
//! evolutionary loop's wall time, and the report tooling must round-trip
//! and diff it.
//!
//! Every test here times or records a run, so they take turns: run side by
//! side, as the test harness would, each would preempt the others' timed
//! loops.

use emts::{Emts, EmtsConfig, FitnessCounters};
use exec_model::{SyntheticModel, TimeMatrix};
use obs::{FlightRecorder, RunReport, StatsRecorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sim::faults::ChurnSpec;
use sim::runner::{run_obs, Algorithm};
use sim::{run_online, OnlineConfig};
use std::sync::{Mutex, MutexGuard, PoisonError};
use workloads::daggen::{random_ptg, DaggenParams};
use workloads::CostConfig;

static TIMING: Mutex<()> = Mutex::new(());

/// Holds the host for one test. A test that failed its assert poisons
/// nothing the next one reads.
fn exclusive() -> MutexGuard<'static, ()> {
    TIMING.lock().unwrap_or_else(PoisonError::into_inner)
}

fn graph(seed: u64) -> ptg::Ptg {
    let params = DaggenParams {
        n: 100,
        width: 0.5,
        regularity: 0.2,
        density: 0.2,
        jump: 2,
    };
    random_ptg(
        &params,
        &CostConfig::default(),
        &mut ChaCha8Rng::seed_from_u64(seed),
    )
}

/// `graph(7)` and its Model 2 time matrix on `cluster`.
fn case(cluster: platform::Cluster) -> (ptg::Ptg, TimeMatrix) {
    let g = graph(7);
    let model = SyntheticModel::default();
    let matrix = TimeMatrix::compute(&g, &model, cluster.speed_flops(), cluster.processors);
    (g, matrix)
}

fn recorded_run(seed: u64) -> RunReport {
    let (g, matrix) = case(platform::grelon());
    let rec = StatsRecorder::new();
    let result = Emts::new(EmtsConfig::emts10()).run_recorded(&g, &matrix, seed, &rec);
    let mut report = rec.report("test");
    report
        .gauges
        .insert("check.best".into(), result.best_makespan);
    report
}

#[test]
fn ea_phase_spans_sum_to_the_ea_wall_time() {
    let _turn = exclusive();
    let report = recorded_run(1);
    let ea = report.phases.get("ea").expect("ea span recorded");
    assert_eq!(ea.count, 1);
    for child in ["ea/seed", "ea/mutate", "ea/evaluate", "ea/select"] {
        assert!(report.phases.contains_key(child), "missing span {child}");
    }
    // The four per-generation phases are the loop body; whatever they do
    // not cover is loop scaffolding, which must stay below 5% of the run.
    let children = report.children_seconds("ea");
    assert!(
        children <= ea.seconds * 1.000001,
        "children {children} exceed parent {}",
        ea.seconds
    );
    assert!(
        children >= ea.seconds * 0.95,
        "phase spans cover only {:.1}% of the ea span",
        100.0 * children / ea.seconds
    );
    // And the ea span itself is bounded by the recorder's wall clock.
    assert!(ea.seconds <= report.wall_seconds * 1.000001);
}

#[test]
fn hot_path_counters_and_histograms_are_populated() {
    let _turn = exclusive();
    let report = recorded_run(1);
    let hits = report.counters["emts.cache.hits"];
    let misses = report.counters["emts.cache.misses"];
    assert!(misses > 0, "a real run must evaluate something");
    // Offspring fitness requests go through the memo cache; the seed
    // population is evaluated up front, outside the engine.
    assert!(
        hits + misses <= report.counters["emts.evaluations"],
        "engine requests cannot exceed total evaluations"
    );
    let rate = report.cache_hit_rate().expect("cache counters present");
    assert!((0.0..=1.0).contains(&rate));
    // Per-evaluation latency histogram: one finite sample per mapper run.
    let lat = &report.histograms["pool.eval_seconds"];
    assert_eq!(lat.total(), misses);
    assert!(lat.mean() > 0.0);
    // Best makespan gauge mirrors the EmtsResult.
    let best = report.best_makespan().expect("gauge recorded");
    assert_eq!(best, report.gauges["check.best"]);
    assert!(best <= report.gauges["emts.seed_makespan"] + 1e-9);
}

#[test]
fn reports_round_trip_and_diff() {
    let _turn = exclusive();
    let a = recorded_run(1);
    let b = recorded_run(2);
    let back = RunReport::from_json(&a.to_json()).expect("round trip");
    assert_eq!(back, a);
    let diff = obs::render::render_diff(&a, &b);
    assert!(diff.contains("ea/evaluate"), "diff lists phases:\n{diff}");
    assert!(
        diff.contains("cache hit rate"),
        "diff shows hit rate:\n{diff}"
    );
    assert!(
        diff.contains("best makespan"),
        "diff shows makespan:\n{diff}"
    );
    let shown = obs::render::render_report(&a);
    assert!(shown.contains("ea/select"));
    assert!(shown.contains("emts.cache.hits"));
}

#[test]
fn flight_recorder_traces_one_lane_per_pool_worker() {
    let _turn = exclusive();
    const WORKERS: usize = 3;
    let (g, matrix) = case(platform::grelon());
    let flight = FlightRecorder::new();
    let result = Emts::new(EmtsConfig::emts10()).run_with_workers(&g, &matrix, 5, WORKERS, &flight);
    assert!(result.best_makespan.is_finite());
    let snapshot = flight.snapshot();
    let lanes: Vec<&str> = snapshot.iter().map(|l| l.name.as_str()).collect();
    // One ring per thread that recorded anything: the driving thread plus
    // every pool worker. A worker opens its `pool.worker` span as it starts,
    // so it has a lane even if it loses every batch item's claim race.
    assert_eq!(
        lanes.len(),
        WORKERS + 1,
        "expected main + {WORKERS} worker lanes, got {lanes:?}"
    );
    for w in 0..WORKERS {
        let name = format!("worker-{w}");
        assert!(lanes.iter().any(|l| l == &name), "missing lane {name}");
    }
    // The MCPA seed job is a `pool.seed` span on the lane of the one
    // worker it was handed to, never on the driving thread's `ea` lane.
    let seed_lanes: Vec<&str> = snapshot
        .iter()
        .filter(|l| l.events.iter().any(|e| e.name == "pool.seed"))
        .map(|l| l.name.as_str())
        .collect();
    assert!(
        seed_lanes.len() == 1 && seed_lanes[0].starts_with("worker-"),
        "expected the seed job on one worker lane, got {seed_lanes:?}"
    );

    // The Chrome trace is loadable JSON with one named thread per lane,
    // and the span pairing produced complete ("X") events.
    let trace = serde_json::parse(&flight.chrome_trace_json()).expect("chrome trace parses");
    let events = match trace.get("traceEvents") {
        Some(serde::Value::Array(evs)) => evs,
        other => panic!("traceEvents is not an array: {other:?}"),
    };
    let ph_count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(serde::Value::as_str) == Some(ph))
            .count()
    };
    let thread_names = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(serde::Value::as_str) == Some("M")
                && e.get("name").and_then(serde::Value::as_str) == Some("thread_name")
        })
        .count();
    assert_eq!(thread_names, lanes.len(), "one thread_name event per lane");
    assert!(ph_count("X") > 0, "trace contains complete span events");
    // The pool batches themselves are on the timeline.
    assert!(
        events
            .iter()
            .any(|e| { e.get("name").and_then(serde::Value::as_str) == Some("pool.batch") }),
        "pool batch spans are traced"
    );
}

#[test]
fn full_pipeline_records_every_stage() {
    let _turn = exclusive();
    let g = graph(3);
    let cluster = platform::chti();
    let model = SyntheticModel::default();
    let rec = StatsRecorder::new();
    let (run_report, _, trace) = run_obs(Algorithm::Emts5, &g, &cluster, &model, 5, &rec);
    let report = rec.report("pipeline");
    for phase in ["matrix", "allocate", "allocate/ea", "map", "validate"] {
        assert!(report.phases.contains_key(phase), "missing span {phase}");
    }
    let trace = trace.expect("EMTS runs surface their convergence trace");
    let counters = trace.counters();
    assert_eq!(counters.hits, report.counters["emts.cache.hits"]);
    assert_eq!(counters.misses, report.counters["emts.cache.misses"]);
    assert_eq!(report.gauges["run.makespan"], run_report.makespan);
    // Replaying through run() (no recorder) must agree exactly: telemetry
    // cannot perturb the computation.
    let (plain, _) = sim::runner::run(Algorithm::Emts5, &g, &cluster, &model, 5);
    assert_eq!(plain.makespan, run_report.makespan);
    assert_eq!(plain.allocation, run_report.allocation);
}

/// The first backticked name of each row of the first table under
/// `heading` in DESIGN.md.
fn documented_names(heading: &str) -> Vec<&'static str> {
    include_str!("../DESIGN.md")
        .split(heading)
        .nth(1)
        .unwrap_or_else(|| panic!("DESIGN.md has no `{heading}`"))
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| l.split('`').nth(1))
        .collect()
}

/// Each fact of a run has one counter name: a recorded EMTS10 run reports
/// exactly the documented counters, so a duplicate name cannot come back
/// unnoticed.
#[test]
fn a_recorded_emts10_run_reports_exactly_the_documented_counters() {
    let _turn = exclusive();
    let (g, matrix) = case(platform::grelon());
    let rec = StatsRecorder::new();
    let result = Emts::new(EmtsConfig::emts10()).run_with_workers(&g, &matrix, 1, 1, &rec);
    let report = rec.report("counters");
    let documented = documented_names("### Counters of a recorded EMTS run");
    assert_eq!(report.counters.keys().collect::<Vec<_>>(), documented);
    // Every count is published from the run's typed result.
    let get = |name: &str| report.counters[name];
    let published = FitnessCounters {
        hits: get("emts.cache.hits"),
        misses: get("emts.cache.misses"),
        worker_panics: get("pool.worker_panics"),
        respawns: get("pool.respawns"),
        serial_fallbacks: get("pool.serial_fallbacks"),
    };
    assert_eq!(published, result.trace.counters());
    let names = ["emts.evaluations", "emts.generations", "emts.pruned"];
    let counts = [result.evaluations, result.generations, result.pruned];
    for (name, count) in names.into_iter().zip(counts) {
        assert_eq!(get(name), count as u64, "{name}");
    }
}

/// `emts-report timeline` on a recorded run: the seed row reads `seed`,
/// and every generation row carries that generation's memo hits and
/// misses.
#[test]
fn the_timeline_shows_the_seed_row_and_per_generation_hits_and_misses() {
    let _turn = exclusive();
    let (g, matrix) = case(platform::chti());
    let rec = StatsRecorder::new();
    let result = Emts::new(EmtsConfig::emts5()).run_recorded(&g, &matrix, 3, &rec);
    let mut report = rec.report("timeline");
    report.convergence = Some(serde::Serialize::to_value(&result.trace));
    let text = obs::render::render_timeline(&RunReport::from_json(&report.to_json()).unwrap());
    let rows: Vec<Vec<&str>> = text
        .lines()
        .skip(1)
        .map(|l| l.split_whitespace().collect())
        .collect();
    let column = |name: &str| {
        rows[0]
            .iter()
            .position(|c| *c == name)
            .unwrap_or_else(|| panic!("no {name} column:\n{text}"))
    };
    let (hits, misses) = (column("hits"), column("misses"));
    assert_eq!(rows.len(), result.trace.len() + 1, "{text}");
    assert_eq!(rows[1][column("generation")], "seed", "{text}");
    for (row, stats) in rows[1..].iter().zip(result.trace.iter()) {
        assert_eq!(row[hits], stats.counters.hits.to_string(), "{text}");
        assert_eq!(row[misses], stats.counters.misses.to_string(), "{text}");
    }
    assert!(result.trace.counters().misses > 0);
}

/// Each decision epoch of an online run is one latency sample under the
/// ring it adopted: a rolling run with ring 0 sabotaged in some epochs and
/// a reactive-only run report exactly the documented `online.*`
/// histograms, one sample per adopted epoch.
#[test]
fn a_recorded_online_run_reports_one_decision_latency_per_epoch_by_ring() {
    let _turn = exclusive();
    let rec = StatsRecorder::new();
    let rolling = OnlineConfig {
        jobs: 6,
        arrival_mean: 40.0,
        churn: ChurnSpec::parse("fail_every=200,repair_after=120,spares=1,join_every=500")
            .expect("valid churn spec"),
        emts: Some(EmtsConfig {
            parallel_evaluation: false,
            ..EmtsConfig::emts5()
        }),
        sabotage_ring0: vec![2, 4],
        ..OnlineConfig::default()
    };
    let reactive = OnlineConfig {
        emts: None,
        ..rolling.clone()
    };
    let model = SyntheticModel::default();
    let mut epochs = [0u64; 3];
    for cfg in [&rolling, &reactive] {
        let t = run_online(&platform::chti(), &model, cfg, &rec)
            .expect("the spare keeps a survivor")
            .totals;
        for (n, ring) in epochs
            .iter_mut()
            .zip([t.ring0_epochs, t.ring1_epochs, t.ring2_epochs])
        {
            *n += ring as u64;
        }
    }
    assert!(
        epochs.iter().all(|&n| n > 0),
        "every ring adopted: {epochs:?}"
    );
    let report = rec.report("online");
    let documented = documented_names("### Decision latencies of an online run");
    let online: Vec<&str> = report
        .histograms
        .keys()
        .map(String::as_str)
        .filter(|k| k.starts_with("online."))
        .collect();
    assert_eq!(online, documented);
    for (name, n) in documented.iter().zip(epochs) {
        assert_eq!(report.histograms[*name].total(), n, "{name}");
    }
}
