//! `emts-sim` — the paper's simulator as a command-line tool.
//!
//! Reads a platform file and a PTG file, runs a scheduling algorithm under
//! a chosen execution-time model, checks the schedule with
//! [`sched::validate_schedule`], and prints the run record (and optionally
//! a Gantt chart).
//!
//! ```text
//! usage: emts-sim --platform <file> --ptg <file>
//!                 [--algorithm cpa|hcpa|mcpa|delta|emts5|emts10]
//!                 [--model model1|model2] [--seed <u64>]
//!                 [--faults <spec>] [--trials <n>] [--workers <n>]
//!                 [--gantt] [--json] [--report <out.json>]
//!                 [--trace <out.trace.json>]
//! ```
//!
//! `--report` writes a schema-versioned [`obs::RunReport`] (phase spans,
//! counters, histograms, convergence trace) that `emts-report` can
//! pretty-print or diff.
//!
//! `--faults` replays the produced schedule under seeded fault injection
//! (`--trials` independent realizations, default 20) and reports the
//! makespan-degradation distribution; see [`sim::faults::FaultSpec::parse`]
//! for the spec grammar, e.g. `--faults "seed=7,perturb=0.2,crash=0.05"`.
//!
//! `--online` switches to the continuous-operations simulator
//! ([`sim::online`]): no `--ptg` (jobs are drawn from the seeded streaming
//! corpus), a rolling-horizon controller re-optimizes the backlog every
//! `--epoch` simulated seconds within a wall-clock `--epoch-budget-ms`,
//! and `--churn` makes nodes fail/recover/join mid-run. `--reactive-only`
//! runs the no-optimizer baseline; `--sabotage-ring0` deterministically
//! forces watchdog degradation in the listed epochs.
//!
//! `--trace` attaches an [`obs::FlightRecorder`] to the whole run and
//! writes a Chrome Trace Event JSON file (load it at `ui.perfetto.dev` or
//! `chrome://tracing`) with one lane per thread. Combine with
//! `--workers <n>` — which pins the EMTS evaluation pool to `n` worker
//! threads instead of the machine-derived default — to see each pool
//! worker's batches on its own lane. Neither flag changes any result.

use emts::EmtsConfig;
use exec_model::PaperModel;
use obs::{FlightRecorder, Recorder, StatsRecorder, TeeRecorder};
use platform::file::parse_platform;
use serde::Serialize;
use sim::faults::{ChurnSpec, FaultSpec};
use sim::formats::parse_ptg;
use sim::online::{run_online, OnlineConfig, OnlineReport};
use sim::runner::{run_obs_workers, run_with_faults_workers, Algorithm};
use std::time::Duration;

struct Args {
    platform: String,
    ptg: Option<String>,
    algorithm: Algorithm,
    model: PaperModel,
    seed: u64,
    faults: Option<FaultSpec>,
    trials: usize,
    workers: Option<usize>,
    gantt: bool,
    json: bool,
    report: Option<String>,
    trace: Option<String>,
    online: bool,
    jobs: u64,
    arrival_mean: f64,
    epoch: f64,
    epoch_budget_ms: Option<u64>,
    churn: ChurnSpec,
    slo: f64,
    reactive_only: bool,
    sabotage_ring0: Vec<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut platform = None;
    let mut ptg = None;
    let mut algorithm = Algorithm::Emts5;
    let mut model = PaperModel::Model2;
    let mut seed = 2011u64;
    let mut faults = None;
    let mut trials = 20usize;
    let mut workers = None;
    let mut gantt = false;
    let mut json = false;
    let mut report = None;
    let mut trace = None;
    let mut online = false;
    let mut jobs = 8u64;
    let mut arrival_mean = 30.0f64;
    let mut epoch = 60.0f64;
    let mut epoch_budget_ms = None;
    let mut churn = ChurnSpec::default();
    let mut slo = 4.0f64;
    let mut reactive_only = false;
    let mut sabotage_ring0 = Vec::new();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--platform" => platform = Some(iter.next().ok_or("--platform needs a file")?),
            "--ptg" => ptg = Some(iter.next().ok_or("--ptg needs a file")?),
            "--algorithm" => {
                let v = iter.next().ok_or("--algorithm needs a name")?;
                algorithm =
                    Algorithm::parse(&v).ok_or_else(|| format!("unknown algorithm {v:?}"))?;
            }
            "--model" => {
                let v = iter.next().ok_or("--model needs a name")?;
                model = PaperModel::parse(&v).ok_or_else(|| format!("unknown model {v:?}"))?;
            }
            "--seed" => {
                seed = iter
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "bad --seed value".to_string())?;
            }
            "--faults" => {
                let v = iter.next().ok_or("--faults needs a spec")?;
                faults = Some(FaultSpec::parse(&v).map_err(|e| e.to_string())?);
            }
            "--trials" => {
                trials = iter
                    .next()
                    .ok_or("--trials needs a count")?
                    .parse()
                    .ok()
                    .filter(|&t| t >= 1)
                    .ok_or("bad --trials value (need an integer ≥ 1)")?;
            }
            "--workers" => {
                workers = Some(
                    iter.next()
                        .ok_or("--workers needs a count")?
                        .parse()
                        .map_err(|_| "bad --workers value".to_string())?,
                );
            }
            "--gantt" => gantt = true,
            "--json" => json = true,
            "--report" => report = Some(iter.next().ok_or("--report needs a file")?),
            "--trace" => trace = Some(iter.next().ok_or("--trace needs a file")?),
            "--online" => online = true,
            "--jobs" => {
                jobs = iter
                    .next()
                    .ok_or("--jobs needs a count")?
                    .parse()
                    .map_err(|_| "bad --jobs value".to_string())?;
            }
            "--arrival-mean" => {
                arrival_mean = iter
                    .next()
                    .ok_or("--arrival-mean needs seconds")?
                    .parse()
                    .ok()
                    .filter(|&x: &f64| x.is_finite() && x >= 0.0)
                    .ok_or("bad --arrival-mean value (need seconds ≥ 0)")?;
            }
            "--epoch" => {
                epoch = iter
                    .next()
                    .ok_or("--epoch needs seconds")?
                    .parse()
                    .ok()
                    .filter(|&x: &f64| x.is_finite() && x > 0.0)
                    .ok_or("bad --epoch value (need seconds > 0)")?;
            }
            "--epoch-budget-ms" => {
                epoch_budget_ms = Some(
                    iter.next()
                        .ok_or("--epoch-budget-ms needs milliseconds")?
                        .parse()
                        .ok()
                        .filter(|&ms| ms >= 1u64)
                        .ok_or("bad --epoch-budget-ms value (need an integer ≥ 1)")?,
                );
            }
            "--churn" => {
                let v = iter.next().ok_or("--churn needs a spec")?;
                churn = ChurnSpec::parse(&v).map_err(|e| e.to_string())?;
            }
            "--slo" => {
                slo = iter
                    .next()
                    .ok_or("--slo needs a factor")?
                    .parse()
                    .ok()
                    .filter(|&x: &f64| x.is_finite() && x > 0.0)
                    .ok_or("bad --slo value (need a factor > 0)")?;
            }
            "--reactive-only" => reactive_only = true,
            "--sabotage-ring0" => {
                let v = iter.next().ok_or("--sabotage-ring0 needs epoch indices")?;
                sabotage_ring0 = v
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| "bad --sabotage-ring0 value (comma-separated epochs)")?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if online {
        if ptg.is_some() {
            return Err("--online draws jobs from the streaming corpus; drop --ptg".into());
        }
        if faults.is_some() || gantt {
            return Err("--online is incompatible with --faults and --gantt (use --churn)".into());
        }
    }
    Ok(Args {
        platform: platform.ok_or("--platform is required")?,
        ptg: if online {
            None
        } else {
            Some(ptg.ok_or("--ptg is required")?)
        },
        algorithm,
        model,
        seed,
        faults,
        trials,
        workers,
        gantt,
        json,
        report,
        trace,
        online,
        jobs,
        arrival_mean,
        epoch,
        epoch_budget_ms,
        churn,
        slo,
        reactive_only,
        sabotage_ring0,
    })
}

/// Builds the [`OnlineConfig`] for `--online` from the parsed flags.
fn online_config(args: &Args) -> Result<OnlineConfig, String> {
    let emts = if args.reactive_only {
        None
    } else {
        match args.algorithm {
            Algorithm::Emts5 => Some(EmtsConfig::emts5()),
            Algorithm::Emts10 => Some(EmtsConfig::emts10()),
            other => {
                return Err(format!(
                    "--online needs an EMTS algorithm for ring 0 (got {}); \
                     pass --algorithm emts5|emts10 or --reactive-only",
                    other.name()
                ))
            }
        }
    };
    Ok(OnlineConfig {
        seed: args.seed,
        jobs: args.jobs,
        arrival_mean: args.arrival_mean,
        epoch: args.epoch,
        epoch_budget: args.epoch_budget_ms.map(Duration::from_millis),
        churn: args.churn.clone(),
        slo_factor: args.slo,
        emts,
        sabotage_ring0: args.sabotage_ring0.clone(),
        ..OnlineConfig::default()
    })
}

/// Runs the online control loop under `rec` and prints its report.
fn run_online_mode<R: Recorder>(
    args: &Args,
    cluster: &platform::Cluster,
    model: &dyn exec_model::ExecutionTimeModel,
    cfg: &OnlineConfig,
    rec: &R,
) -> OnlineReport {
    let report = run_online(cluster, model, cfg, rec).unwrap_or_else(|e| {
        // One line, non-zero exit: the cluster died for good mid-run.
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("reports serialize")
        );
    } else {
        let t = &report.totals;
        println!(
            "online {} on {}: {} jobs, makespan {:.3} s",
            report.mode, cluster, t.jobs, t.makespan
        );
        println!(
            "queue wait mean {:.3} s, stretch mean {:.3} (p95 {:.3}), \
             utilization {:.1} %, SLO attainment {:.1} %",
            t.queue_wait_mean,
            t.stretch_mean,
            t.stretch_p95,
            100.0 * t.utilization,
            100.0 * t.slo_attainment
        );
        println!(
            "epochs: {} decisions (ring0 {}, ring1 {}, ring2 {}), {} idle, \
             {} overruns, {} degraded, {} reactive replans",
            t.decision_epochs,
            t.ring0_epochs,
            t.ring1_epochs,
            t.ring2_epochs,
            t.idle_epochs,
            t.deadline_overruns,
            t.watchdog_degraded,
            t.reactive_replans
        );
        println!(
            "churn [{}]: {} failures, {} recoveries, {} joins, {} tasks killed",
            report.churn, t.node_failures, t.node_recoveries, t.node_joins, t.tasks_killed
        );
    }
    report
}

/// Runs the pipeline under `rec` — generic so the same code path serves
/// the plain [`StatsRecorder`] and the `--trace` tee into a
/// [`FlightRecorder`].
fn run_recorded<R: Recorder>(
    args: &Args,
    graph: &ptg::Ptg,
    cluster: &platform::Cluster,
    model: &dyn exec_model::ExecutionTimeModel,
    rec: &R,
) -> (
    sim::RunRecord,
    sched::Schedule,
    Option<emts::ConvergenceTrace>,
) {
    match &args.faults {
        Some(spec) => run_with_faults_workers(
            args.algorithm,
            graph,
            cluster,
            model,
            args.seed,
            spec,
            args.trials,
            args.workers,
            rec,
        )
        .unwrap_or_else(|e| {
            // One line, non-zero exit: a kill_all trial left no platform.
            eprintln!("error: {e}");
            std::process::exit(1);
        }),
        None => run_obs_workers(
            args.algorithm,
            graph,
            cluster,
            model,
            args.seed,
            args.workers,
            rec,
        ),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: emts-sim --platform <file> --ptg <file> \
                 [--algorithm cpa|hcpa|mcpa|delta|emts5|emts10] \
                 [--model model1|model2] [--seed <u64>] \
                 [--faults <spec>] [--trials <n>] [--workers <n>] \
                 [--gantt] [--json] [--report <out.json>] \
                 [--trace <out.trace.json>]\n\
                 \x20      emts-sim --platform <file> --online [--jobs <n>] \
                 [--arrival-mean <s>] [--epoch <s>] [--epoch-budget-ms <ms>] \
                 [--churn <spec>] [--slo <factor>] [--reactive-only] \
                 [--sabotage-ring0 <e,e,...>] [--seed <u64>] [--json] \
                 [--report <out.json>] [--trace <out.trace.json>]"
            );
            std::process::exit(2);
        }
    };
    let platform_text = std::fs::read_to_string(&args.platform).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", args.platform);
        std::process::exit(1);
    });
    let cluster = parse_platform(&platform_text).unwrap_or_else(|e| {
        eprintln!("{}: {e}", args.platform);
        std::process::exit(1);
    });
    let model = args.model.instantiate();
    let rec = StatsRecorder::new();
    let flight = args.trace.as_ref().map(|_| FlightRecorder::new());

    if args.online {
        let cfg = online_config(&args).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2);
        });
        let online_report = match &flight {
            Some(f) => {
                run_online_mode(&args, &cluster, model.as_ref(), &cfg, &TeeRecorder(&rec, f))
            }
            None => run_online_mode(&args, &cluster, model.as_ref(), &cfg, &rec),
        };
        if let (Some(path), Some(f)) = (&args.trace, &flight) {
            if let Err(e) = std::fs::write(path, f.chrome_trace_json()) {
                eprintln!("cannot write trace {path}: {e}");
                std::process::exit(1);
            }
        }
        if let Some(path) = &args.report {
            let mut obs_report = rec.report("emts-sim-online");
            obs_report.meta.insert("mode".into(), online_report.mode);
            obs_report.meta.insert("seed".into(), args.seed.to_string());
            obs_report.meta.insert("jobs".into(), args.jobs.to_string());
            obs_report
                .meta
                .insert("churn".into(), args.churn.canonical());
            if let Err(e) = obs_report.save(std::path::Path::new(path)) {
                eprintln!("cannot write report {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let ptg_path = args.ptg.as_deref().expect("one-shot mode has a PTG");
    let ptg_text = std::fs::read_to_string(ptg_path).unwrap_or_else(|e| {
        eprintln!("cannot read {ptg_path}: {e}");
        std::process::exit(1);
    });
    let graph = parse_ptg(&ptg_text).unwrap_or_else(|e| {
        eprintln!("{ptg_path}: {e}");
        std::process::exit(1);
    });
    let (report, schedule, trace) = match &flight {
        Some(f) => run_recorded(
            &args,
            &graph,
            &cluster,
            model.as_ref(),
            &TeeRecorder(&rec, f),
        ),
        None => run_recorded(&args, &graph, &cluster, model.as_ref(), &rec),
    };

    if let (Some(path), Some(f)) = (&args.trace, &flight) {
        if let Err(e) = std::fs::write(path, f.chrome_trace_json()) {
            eprintln!("cannot write trace {path}: {e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = &args.report {
        let mut obs_report = rec.report("emts-sim");
        obs_report
            .meta
            .insert("algorithm".into(), report.algorithm.clone());
        obs_report
            .meta
            .insert("platform".into(), report.platform.clone());
        obs_report.meta.insert("model".into(), report.model.clone());
        obs_report.meta.insert("seed".into(), args.seed.to_string());
        obs_report
            .meta
            .insert("tasks".into(), report.tasks.to_string());
        if let Some(w) = args.workers {
            obs_report.meta.insert("workers".into(), w.to_string());
        }
        obs_report.convergence = trace.as_ref().map(|t| t.to_value());
        if let Err(e) = obs_report.save(std::path::Path::new(path)) {
            eprintln!("cannot write report {path}: {e}");
            std::process::exit(1);
        }
    }

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("reports serialize")
        );
    } else {
        println!(
            "{} on {} under {}: {} tasks, makespan {:.3} s, utilization {:.1} %",
            report.algorithm,
            cluster,
            report.model,
            report.tasks,
            report.makespan,
            100.0 * report.utilization
        );
        println!("allocation: {:?}", report.allocation);
        println!(
            "allocation step {:.1} ms, mapping step {:.2} ms",
            report.allocation_seconds * 1e3,
            report.mapping_seconds * 1e3
        );
        if let Some(f) = &report.faults {
            println!(
                "faults [{}] over {} trials: degradation mean {:.4}x, p95 {:.4}x, worst {:.4}x \
                 ({} retries, {} kills, {} processor failures, {} reschedules)",
                f.spec,
                f.trials,
                f.mean_degradation,
                f.p95_degradation,
                f.worst_degradation,
                f.kinds.crash.events,
                f.tasks_killed,
                f.kinds.node_failure.events,
                f.reschedules
            );
        }
    }
    if args.gantt {
        println!("\n{}", sched::gantt::ascii_gantt(&schedule, 100));
    }
}
