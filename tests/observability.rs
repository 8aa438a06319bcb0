//! End-to-end telemetry: a recorded EMTS run must produce a coherent,
//! schema-versioned [`obs::RunReport`] whose phase spans account for the
//! evolutionary loop's wall time, and the report tooling must round-trip
//! and diff it.

use emts::{Emts, EmtsConfig};
use exec_model::{SyntheticModel, TimeMatrix};
use obs::{FlightRecorder, RunReport, StatsRecorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sim::runner::{run_obs, Algorithm};
use workloads::daggen::{random_ptg, DaggenParams};
use workloads::CostConfig;

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

fn recorded_run(seed: u64) -> RunReport {
    let g = graph(7);
    let cluster = platform::grelon();
    let model = SyntheticModel::default();
    let matrix = TimeMatrix::compute(&g, &model, cluster.speed_flops(), cluster.processors);
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
    // Scheduler heap instrumentation propagated up from the mapper: every
    // engine miss runs the mapper, which places at least one task before
    // any rejection cutoff can fire.
    assert!(report.counters["sched.tasks_placed"] >= misses);
    assert!(report.counters["sched.group_pops"] >= report.counters["sched.tasks_placed"]);
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
    const WORKERS: usize = 3;
    let g = graph(7);
    let cluster = platform::grelon();
    let model = SyntheticModel::default();
    let matrix = TimeMatrix::compute(&g, &model, cluster.speed_flops(), cluster.processors);
    let flight = FlightRecorder::new();
    let result = Emts::new(EmtsConfig::emts10()).run_with_workers(&g, &matrix, 5, WORKERS, &flight);
    assert!(result.best_makespan.is_finite());
    let lanes: Vec<String> = flight.snapshot().into_iter().map(|l| l.name).collect();
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
    let g = graph(3);
    let cluster = platform::chti();
    let model = SyntheticModel::default();
    let rec = StatsRecorder::new();
    let (run_report, schedule, trace) = run_obs(Algorithm::Emts5, &g, &cluster, &model, 5, &rec);
    let report = rec.report("pipeline");
    for phase in ["matrix", "allocate", "allocate/ea", "map", "replay"] {
        assert!(report.phases.contains_key(phase), "missing span {phase}");
    }
    let trace = trace.expect("EMTS runs surface their convergence trace");
    assert_eq!(trace.cache_hits as u64, report.counters["emts.cache.hits"]);
    assert_eq!(report.gauges["run.makespan"], run_report.makespan);
    assert_eq!(
        report.counters["sim.events"],
        2 * schedule.task_count() as u64
    );
    // Replaying through run() (no recorder) must agree exactly: telemetry
    // cannot perturb the computation.
    let (plain, _) = sim::runner::run(Algorithm::Emts5, &g, &cluster, &model, 5);
    assert_eq!(plain.makespan, run_report.makespan);
    assert_eq!(plain.allocation, run_report.allocation);
}
