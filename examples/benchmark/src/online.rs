//! The online workload: independent job streams, each one
//! `sim::run_online` call on Chti under node churn. An operation is one
//! decision epoch; its latency is the decision time the simulator reports.

use crate::corpus::lower_bound;
use crate::harness::{self, timed, Failures, Latencies, SetUpTime, MIN_PASSES, SETUP_REPS};
use crate::replay::EA_LAYERS;
use crate::report::Metrics;
use crate::spec::{self, Workload};
use crate::stats;
use emts::EmtsConfig;
use exec_model::TimeMatrix;
use heuristics::{Allocator, Mcpa};
use obs::{NoopRecorder, Recorder, StatsRecorder};
use ptg::Ptg;
use sched::{validate_schedule, ListScheduler, Mapper};
use sim::faults::ChurnSpec;
use sim::{run_online, OnlineConfig, OnlineError, OnlineReport};
use std::time::Instant;
use workloads::{stream, CostConfig};

/// Separates the per-stream seeds from every other use of the run seed.
const STREAM_SALT: u64 = 0x5EED_0F04_11CE_55AA;
/// Backlog size splitting small decisions from large ones.
const SMALL_BACKLOG: usize = 4;

/// One job of a stream, generated exactly as the simulator admits it.
struct Job {
    g: Ptg,
    matrix: TimeMatrix,
}

/// Reference values for checking a stream's report.
struct JobRef {
    tasks: usize,
    /// Solo MCPA makespan on the full platform (the simulator's `ideal`).
    ideal: f64,
    lower_bound: f64,
}

struct Streams {
    configs: Vec<OnlineConfig>,
    jobs: Vec<Vec<Job>>,
}

fn config(seed: u64) -> OnlineConfig {
    OnlineConfig {
        seed,
        jobs: spec::ONLINE_JOBS,
        arrival_mean: spec::ONLINE_ARRIVAL_MEAN,
        epoch: spec::ONLINE_EPOCH,
        churn: ChurnSpec::parse(spec::ONLINE_CHURN).expect("the churn spec is valid"),
        // Pooled evaluation would size its pool from the host's cores;
        // serial evaluation makes ring 0 the same work on every host.
        emts: Some(EmtsConfig {
            parallel_evaluation: false,
            ..EmtsConfig::emts5()
        }),
        ..OnlineConfig::default()
    }
}

/// Builds every job of every stream, handing each to `keep(stream, job)`;
/// returns the set-up's timing.
fn set_up(configs: &[OnlineConfig], mut keep: impl FnMut(usize, Job)) -> SetUpTime {
    let w = Workload::OnlineChti;
    let (cluster, model) = (w.cluster(), w.model().instantiate());
    let costs = CostConfig::default();
    let mut t = SetUpTime::default();
    let start = Instant::now();
    for (s, cfg) in configs.iter().enumerate() {
        let p_total = cluster.processors + cfg.churn.spares;
        for j in 0..cfg.jobs {
            let g = timed(&mut t.daggen, || stream::item(cfg.seed, j, &costs).ptg);
            let matrix = timed(&mut t.matrix, || {
                TimeMatrix::compute(&g, &*model, cluster.speed_flops(), p_total)
            });
            keep(s, Job { g, matrix });
        }
    }
    t.total = start.elapsed().as_secs_f64();
    t
}

/// One more timed set-up that keeps nothing (see `corpus::rehearse`).
fn rehearse(streams: &Streams) -> SetUpTime {
    set_up(&streams.configs, |_, job| drop(job))
}

impl Streams {
    /// The stream configurations and every job graph with its matrix.
    fn generate(seed: u64, count: usize) -> (Self, SetUpTime) {
        let configs: Vec<OnlineConfig> = (0..count as u64)
            .map(|s| config(stream::item_seed(seed ^ STREAM_SALT, s)))
            .collect();
        let mut jobs: Vec<Vec<Job>> = (0..count).map(|_| Vec::new()).collect();
        let t = set_up(&configs, |s, job| jobs[s].push(job));
        (Streams { configs, jobs }, t)
    }

    fn references(&self) -> Vec<Vec<JobRef>> {
        self.jobs
            .iter()
            .map(|jobs| {
                jobs.iter()
                    .map(|job| {
                        let alloc = Mcpa.allocate(&job.g, &job.matrix);
                        JobRef {
                            tasks: job.g.task_count(),
                            ideal: ListScheduler.makespan(&job.g, &job.matrix, &alloc),
                            lower_bound: lower_bound(&job.g, &job.matrix),
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Checks a stream's report against the jobs it was given: every job
/// completed, after it arrived, and was measured against the same solo
/// MCPA makespan the benchmark computes.
fn check(s: usize, refs: &[JobRef], r: &Result<OnlineReport, OnlineError>) -> Result<(), String> {
    let r = r.as_ref().map_err(|e| format!("stream {s}: {e}"))?;
    if r.totals.completed != refs.len() as u64 || r.jobs.len() != refs.len() {
        return Err(format!(
            "stream {s}: {} of {} jobs completed",
            r.totals.completed,
            refs.len()
        ));
    }
    for (j, (o, want)) in r.jobs.iter().zip(refs).enumerate() {
        if o.job != j as u64 || o.tasks != want.tasks || o.ideal.to_bits() != want.ideal.to_bits() {
            return Err(format!(
                "stream {s}: job {j} does not match its generated graph"
            ));
        }
        if !(o.completion.is_finite() && o.completion > o.arrival && o.first_start >= o.arrival) {
            return Err(format!(
                "stream {s}: job {j} arrived at {} but ran {}..{}",
                o.arrival, o.first_start, o.completion
            ));
        }
    }
    Ok(())
}

/// The deterministic content of a report, bit for bit.
fn fingerprint(r: &OnlineReport) -> Vec<u64> {
    let mut f = vec![r.totals.makespan.to_bits(), r.events.len() as u64];
    f.extend(r.jobs.iter().map(|o| o.completion.to_bits()));
    f.extend(
        r.epochs
            .iter()
            .map(|e| ((e.epoch as u64) << 16) | ((e.ring as u64) << 12) | e.backlog as u64),
    );
    f
}

/// Runs every stream once; checks each report and compares it with the
/// first pass's. Returns each stream's wall time and report.
fn pass<R: Recorder>(
    streams: &Streams,
    refs: &[Vec<JobRef>],
    first: &mut [Option<Vec<u64>>],
    fails: &mut Failures,
    rec: impl Fn() -> R,
    mut observe: impl FnMut(usize, &R),
) -> Vec<(f64, Option<OnlineReport>)> {
    let cluster = Workload::OnlineChti.cluster();
    let model = Workload::OnlineChti.model().instantiate();
    let mut out = Vec::with_capacity(streams.configs.len());
    for (s, cfg) in streams.configs.iter().enumerate() {
        let recorder = rec();
        let t = Instant::now();
        let r = run_online(&cluster, &*model, cfg, &recorder);
        let wall = t.elapsed().as_secs_f64();
        observe(s, &recorder);
        let ops = r.as_ref().map_or(1, |r| r.epochs.len().max(1)) as u64;
        let outcome = check(s, &refs[s], &r).and_then(|()| {
            let f = fingerprint(r.as_ref().expect("checked"));
            match &first[s] {
                None => {
                    first[s] = Some(f);
                    Ok(())
                }
                Some(g) if *g == f => Ok(()),
                Some(_) => Err(format!("stream {s}: report differs from the first pass")),
            }
        });
        fails.record(ops, outcome);
        out.push((wall, r.ok()));
    }
    out
}

/// The untraced run: set-up, then passes over the streams, each preceded
/// by one more set-up (as in `corpus::run`).
pub fn run(
    seed: u64,
    scale: f64,
    seconds: f64,
    m: &mut Metrics,
    notes: &mut Vec<String>,
    fails: &mut Failures,
) {
    let w = Workload::OnlineChti;
    let (cluster, model) = (w.cluster(), w.model().instantiate());
    let count = w.inputs(scale);
    let (streams, first_setup) = Streams::generate(seed, count);
    let mut setups = vec![first_setup];
    let refs = streams.references();
    // Warm-up: the first stream, untimed.
    std::hint::black_box(run_online(&cluster, &*model, &streams.configs[0], &NoopRecorder).ok());

    let mut first = vec![None; count];
    let mut walls = Latencies::new(count);
    let mut epochs: Vec<Vec<Vec<f64>>> = vec![Vec::new(); count];
    let mut reports: Vec<Option<OnlineReport>> = vec![None; count];
    let passes = harness::run_passes(seconds, MIN_PASSES, |_| {
        setups.push(rehearse(&streams));
        let results = pass(
            &streams,
            &refs,
            &mut first,
            fails,
            || NoopRecorder,
            |_, _| {},
        );
        for (s, (wall, r)) in results.into_iter().enumerate() {
            walls.push(s, wall);
            let Some(r) = r else { continue };
            if epochs[s].is_empty() {
                epochs[s] = vec![Vec::new(); r.epochs.len()];
            }
            for (samples, e) in epochs[s].iter_mut().zip(&r.epochs) {
                samples.push(e.decision_seconds);
            }
            reports[s].get_or_insert(r);
        }
    });

    m.set("setup_s", SetUpTime::median(&setups).total, setups.len());
    m.set("pass_s", walls.per_op().iter().sum(), passes);
    let mut decisions = Vec::new();
    let (mut small, mut large) = (Vec::new(), Vec::new());
    for (samples, r) in epochs.iter().zip(&reports) {
        let Some(r) = r else { continue };
        for (s, e) in samples.iter().zip(&r.epochs) {
            let seconds = harness::fastest(s);
            decisions.push(seconds);
            let group = if e.backlog <= SMALL_BACKLOG {
                &mut small
            } else {
                &mut large
            };
            group.push(seconds * 1e3);
        }
    }
    harness::latency_metrics(m, notes, &decisions);
    for (name, v) in [
        ("sim.decide_ms_p50.backlog_le4", &small),
        ("sim.decide_ms_p50.backlog_gt4", &large),
    ] {
        match stats::percentile(v, 50.0) {
            Some(p) => m.set(name, p, v.len()),
            None => notes.push(format!("{name} omitted: only {} decisions", v.len())),
        }
    }
    m.set("passes", passes as f64, passes);
    m.set("ops_per_pass", decisions.len() as f64, 1);
    quality(m, &refs, &reports);
}

fn quality(m: &mut Metrics, refs: &[Vec<JobRef>], reports: &[Option<OnlineReport>]) {
    let mut vs_lb = Vec::new();
    let (mut met, mut makespans) = (0usize, Vec::new());
    for (refs, r) in refs.iter().zip(reports) {
        let Some(r) = r else { continue };
        for (o, want) in r.jobs.iter().zip(refs) {
            vs_lb.push((o.completion - o.arrival) / want.lower_bound);
            met += usize::from(o.slo_met);
        }
        makespans.push(r.totals.makespan);
    }
    if vs_lb.is_empty() {
        return; // every stream failed; the run reports incorrect
    }
    m.set("makespan_vs_lb", stats::geo_mean(&vs_lb), vs_lb.len());
    m.set(
        "slo_attainment",
        met as f64 / vs_lb.len() as f64,
        vs_lb.len(),
    );
    m.set(
        "mean_makespan_s",
        makespans.iter().sum::<f64>() / makespans.len() as f64,
        makespans.len(),
    );
}

/// The traced run: in-run spans and counters from a `StatsRecorder` passed
/// to each `run_online` call, plus the admission work (MCPA allocation and
/// solo makespan per job) replayed from outside.
pub fn trace(
    seed: u64,
    scale: f64,
    seconds: f64,
    m: &mut Metrics,
    notes: &mut Vec<String>,
    fails: &mut Failures,
) {
    let start = Instant::now();
    let count = Workload::OnlineChti.inputs(scale);
    let (streams, first_setup) = Streams::generate(seed, count);
    let mut setups = vec![first_setup];
    setups.extend((1..SETUP_REPS).map(|_| rehearse(&streams)));
    let SetUpTime { daggen, matrix, .. } = SetUpTime::median(&setups);
    m.set("workloads.daggen_s", daggen, SETUP_REPS);
    m.set("exec_model.matrix_s", matrix, SETUP_REPS);
    let refs = streams.references();
    let mut first = vec![None; count];
    let untraced: f64 = pass(
        &streams,
        &refs,
        &mut first,
        fails,
        || NoopRecorder,
        |_, _| {},
    )
    .iter()
    .map(|(wall, _)| wall)
    .sum();

    // Admission work, replayed: MCPA, the solo makespan, and probes of the
    // full mapper and the validator on the same allocation.
    let (mut allocate, mut ideal, mut map, mut validate) = (0.0, 0.0, 0.0, 0.0);
    let mut calls = 0usize;
    for job in streams.jobs.iter().flatten() {
        let (g, mx) = (&job.g, &job.matrix);
        let alloc = timed(&mut allocate, || Mcpa.allocate(g, mx));
        std::hint::black_box(timed(&mut ideal, || ListScheduler.makespan(g, mx, &alloc)));
        let schedule = timed(&mut map, || ListScheduler.map(g, mx, &alloc));
        std::hint::black_box(timed(&mut validate, || {
            validate_schedule(g, mx, &alloc, &schedule).is_ok()
        }));
        calls += 1;
    }

    // Per pass: wall, decide, ring-0 EA, then the five EA layers.
    let mut per_pass: Vec<[f64; 8]> = Vec::new();
    let mut counts = [0u64; 7];
    let remaining = (seconds - start.elapsed().as_secs_f64()).max(0.0);
    let passes = harness::run_passes(remaining, 1, |_| {
        let mut t = [0.0; 8];
        let mut c = [0u64; 7];
        let results = pass(
            &streams,
            &refs,
            &mut first,
            fails,
            StatsRecorder::new,
            |_, rec| {
                t[1] += rec.phase_seconds("online.decide");
                t[2] += rec.phase_seconds("online.decide/ea");
                for (k, layer) in EA_LAYERS.iter().enumerate() {
                    t[3 + k] += rec.phase_seconds(&format!("online.decide/ea/{layer}"));
                }
                for (k, name) in ["emts.cache.hits", "emts.cache.misses", "emts.pruned"]
                    .iter()
                    .enumerate()
                {
                    c[k] += rec.counter(name);
                }
            },
        );
        for (wall, r) in &results {
            t[0] += wall;
            if let Some(r) = r {
                c[3] += r.totals.decision_epochs as u64;
                c[4] += r.totals.reactive_replans as u64;
                c[5] += r.totals.tasks_killed;
                c[6] += r.totals.idle_epochs as u64;
            }
        }
        per_pass.push(t);
        counts = c;
    });

    let med = |k: usize| stats::median(&per_pass.iter().map(|t| t[k]).collect::<Vec<_>>());
    let (wall, decide, ea) = (med(0), med(1), med(2));
    let covered = decide + daggen + matrix + allocate + ideal;
    m.set("heuristics.allocate_s", allocate, calls);
    m.set("heuristics.calls", calls as f64, 1);
    m.set("trace.pass_s", wall, passes);
    m.set("trace.coverage", covered / wall, passes);
    m.set("trace.overhead", wall / untraced, passes);
    for (k, layer) in EA_LAYERS.iter().enumerate() {
        let s = med(3 + k);
        m.set(&format!("emts.{layer}_s"), s, passes);
        m.set(&format!("emts.{layer}_share"), s / wall, passes);
    }
    m.set("sched.map_share", 0.0, passes);
    m.set("sched.validate_share", 0.0, passes);
    m.set("sim.decide_share", decide / wall, passes);
    m.set("sim.rings12_share", (decide - ea) / wall, passes);
    m.set("sim.decide_s", decide, passes);
    m.set("sim.ring0_ea_s", ea, passes);
    let [hits, misses, pruned, decisions, reactive, killed, idle] = counts;
    m.set("emts.offspring", (hits + misses) as f64, 1);
    m.set("emts.evals", misses as f64, 1);
    m.set("emts.cache_hits", hits as f64, 1);
    m.set("emts.pruned", pruned as f64, 1);
    m.set("sim.decisions", decisions as f64, 1);
    m.set("sim.reactive_replans", reactive as f64, 1);
    m.set("sim.tasks_killed", killed as f64, 1);
    m.set("sim.idle_epochs", idle as f64, 1);
    m.set(
        "sched.mapper_ns_per_eval",
        ideal * 1e9 / calls as f64,
        calls,
    );
    m.set("sched.map_us_per_call", map * 1e6 / calls as f64, calls);
    m.set("sched.map_vs_makespan", map / ideal, calls);
    m.set(
        "sched.validate_us_per_call",
        validate * 1e6 / calls as f64,
        calls,
    );
    notes.push(format!(
        "{passes} traced pass(es); trace.coverage counts decisions and admission work, the rest of each run is event simulation"
    ));
}
