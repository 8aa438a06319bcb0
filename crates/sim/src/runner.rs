//! End-to-end experiment pipeline: platform + PTG + algorithm → report.

use crate::executor::{execute_obs, SimReport};
use crate::faults::{FaultSpec, FaultSummary};
use emts::{ConvergenceTrace, Emts, EmtsConfig};
use exec_model::{ExecutionTimeModel, TimeMatrix};
use heuristics::{Allocator, Cpa, DeltaCritical, Hcpa, Mcpa, Mcpa2};
use obs::{NoopRecorder, Recorder};
use platform::Cluster;
use ptg::Ptg;
use sched::{Allocation, ListScheduler, Mapper, RescheduleError, Schedule};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Every scheduling algorithm the simulator can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Plain CPA allocation.
    Cpa,
    /// HCPA allocation (single-cluster specialization).
    Hcpa,
    /// MCPA allocation with per-level bounds.
    Mcpa,
    /// MCPA2 allocation with work-proportional per-level bounds.
    Mcpa2,
    /// The Δ-critical sharing heuristic with Δ = 0.9.
    DeltaCritical,
    /// EMTS with the (5+25)-ES, 5 generations.
    Emts5,
    /// EMTS with the (10+100)-ES, 10 generations.
    Emts10,
}

impl Algorithm {
    /// All algorithms, heuristics first.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::Cpa,
        Algorithm::Hcpa,
        Algorithm::Mcpa,
        Algorithm::Mcpa2,
        Algorithm::DeltaCritical,
        Algorithm::Emts5,
        Algorithm::Emts10,
    ];

    /// Canonical name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Cpa => "CPA",
            Algorithm::Hcpa => "HCPA",
            Algorithm::Mcpa => "MCPA",
            Algorithm::Mcpa2 => "MCPA2",
            Algorithm::DeltaCritical => "DeltaCritical",
            Algorithm::Emts5 => "EMTS5",
            Algorithm::Emts10 => "EMTS10",
        }
    }

    /// Parses a (case-insensitive) algorithm name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "cpa" => Some(Algorithm::Cpa),
            "hcpa" => Some(Algorithm::Hcpa),
            "mcpa" => Some(Algorithm::Mcpa),
            "mcpa2" => Some(Algorithm::Mcpa2),
            "delta" | "deltacritical" | "delta-critical" => Some(Algorithm::DeltaCritical),
            "emts5" => Some(Algorithm::Emts5),
            "emts10" => Some(Algorithm::Emts10),
            _ => None,
        }
    }

    /// Computes the allocation for `g`. EMTS variants derive their RNG from
    /// `seed`; heuristics are deterministic and ignore it.
    pub fn allocate(self, g: &Ptg, matrix: &TimeMatrix, seed: u64) -> Allocation {
        self.allocate_obs_workers(g, matrix, seed, None, &NoopRecorder)
            .0
    }

    /// [`Algorithm::allocate`] with telemetry and an explicit EMTS worker
    /// count. EMTS variants thread the recorder through the evolutionary
    /// loop and also return their convergence trace; heuristics return
    /// `None`. `Some(w)` pins the evaluation pool to `w` worker threads (so
    /// a flight-recorder export shows one lane per worker even on a
    /// single-core machine); `None` keeps the machine-derived default.
    /// Heuristics ignore the knob. Results are bit-identical either way.
    pub fn allocate_obs_workers<R: Recorder>(
        self,
        g: &Ptg,
        matrix: &TimeMatrix,
        seed: u64,
        workers: Option<usize>,
        rec: &R,
    ) -> (Allocation, Option<ConvergenceTrace>) {
        let emts = |cfg: EmtsConfig| {
            let emts = Emts::new(cfg);
            let r = match workers {
                Some(w) => emts.run_with_workers(g, matrix, seed, w, rec),
                None => emts.run_recorded(g, matrix, seed, rec),
            };
            (r.best, Some(r.trace))
        };
        match self {
            Algorithm::Cpa => (Cpa.allocate(g, matrix), None),
            Algorithm::Hcpa => (Hcpa.allocate(g, matrix), None),
            Algorithm::Mcpa => (Mcpa.allocate(g, matrix), None),
            Algorithm::Mcpa2 => (Mcpa2.allocate(g, matrix), None),
            Algorithm::DeltaCritical => (DeltaCritical::default().allocate(g, matrix), None),
            Algorithm::Emts5 => emts(EmtsConfig::emts5()),
            Algorithm::Emts10 => emts(EmtsConfig::emts10()),
        }
    }
}

/// A complete run record: the allocation, the schedule's makespan, the
/// replayed simulation report and wall-clock timings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Algorithm that produced the schedule.
    pub algorithm: String,
    /// Platform name.
    pub platform: String,
    /// Execution-time model name.
    pub model: String,
    /// Number of tasks of the PTG.
    pub tasks: usize,
    /// Final per-task allocation.
    pub allocation: Vec<u32>,
    /// Makespan reported by the mapper.
    pub makespan: f64,
    /// Replay report from the discrete-event executor.
    pub sim: SimReport,
    /// Seconds spent computing the allocation (the paper's §V-B timing).
    pub allocation_seconds: f64,
    /// Seconds spent mapping the final allocation.
    pub mapping_seconds: f64,
    /// Makespan-degradation distribution under fault injection (`None` —
    /// serialized as JSON `null` — outside `--faults` runs).
    pub faults: Option<FaultSummary>,
}

/// Runs `algorithm` for `g` on `cluster` under `model`, replays the
/// schedule in the discrete-event executor and cross-checks the makespan.
///
/// # Panics
/// Panics if the replayed makespan disagrees with the mapper's, or the
/// schedule fails dynamic validation — both indicate an internal bug, never
/// bad user input.
pub fn run<M: ExecutionTimeModel + ?Sized>(
    algorithm: Algorithm,
    g: &Ptg,
    cluster: &Cluster,
    model: &M,
    seed: u64,
) -> (RunReport, Schedule) {
    let (report, schedule, _) = run_obs(algorithm, g, cluster, model, seed, &NoopRecorder);
    (report, schedule)
}

/// [`run`] with telemetry: wraps the pipeline stages in `matrix` /
/// `allocate` / `map` / `replay` spans and surfaces the EMTS convergence
/// trace (if the algorithm is an EMTS variant) alongside the report.
pub fn run_obs<M: ExecutionTimeModel + ?Sized, R: Recorder>(
    algorithm: Algorithm,
    g: &Ptg,
    cluster: &Cluster,
    model: &M,
    seed: u64,
    rec: &R,
) -> (RunReport, Schedule, Option<ConvergenceTrace>) {
    run_obs_workers(algorithm, g, cluster, model, seed, None, rec)
}

/// [`run_obs`] with an explicit EMTS worker count (see
/// [`Algorithm::allocate_obs_workers`]); `None` keeps the default.
pub fn run_obs_workers<M: ExecutionTimeModel + ?Sized, R: Recorder>(
    algorithm: Algorithm,
    g: &Ptg,
    cluster: &Cluster,
    model: &M,
    seed: u64,
    workers: Option<usize>,
    rec: &R,
) -> (RunReport, Schedule, Option<ConvergenceTrace>) {
    let (report, schedule, trace, _) = pipeline(algorithm, g, cluster, model, seed, workers, rec);
    (report, schedule, trace)
}

/// [`run_obs_workers`], also returning the time matrix and allocation it
/// built, so the fault trials reuse them.
fn pipeline<M: ExecutionTimeModel + ?Sized, R: Recorder>(
    algorithm: Algorithm,
    g: &Ptg,
    cluster: &Cluster,
    model: &M,
    seed: u64,
    workers: Option<usize>,
    rec: &R,
) -> (
    RunReport,
    Schedule,
    Option<ConvergenceTrace>,
    (TimeMatrix, Allocation),
) {
    let matrix = rec.time("matrix", || {
        TimeMatrix::compute(g, model, cluster.speed_flops(), cluster.processors)
    });
    // lint:allow(src-timing) -- runner reports wall-clock phase timings.
    let t0 = Instant::now();
    let (alloc, trace) = {
        let _span = rec.span("allocate");
        algorithm.allocate_obs_workers(g, &matrix, seed, workers, rec)
    };
    let allocation_seconds = t0.elapsed().as_secs_f64();
    // lint:allow(src-timing)
    let t1 = Instant::now();
    let schedule = rec.time("map", || ListScheduler.map(g, &matrix, &alloc));
    let mapping_seconds = t1.elapsed().as_secs_f64();
    let makespan = schedule.makespan();
    let sim = {
        let _span = rec.span("replay");
        execute_obs(g, &schedule, rec).expect("mapper emits executable schedules")
    };
    if R::ENABLED {
        rec.gauge("run.makespan", makespan);
    }
    assert!(
        (sim.makespan - makespan).abs() <= 1e-9 * makespan.max(1.0),
        "simulator ({}) and mapper ({}) disagree",
        sim.makespan,
        makespan
    );
    (
        RunReport {
            algorithm: algorithm.name().to_string(),
            platform: cluster.name.clone(),
            model: model.name().to_string(),
            tasks: g.task_count(),
            allocation: alloc.as_slice().to_vec(),
            makespan,
            sim,
            allocation_seconds,
            mapping_seconds,
            faults: None,
        },
        schedule,
        trace,
        (matrix, alloc),
    )
}

/// [`run_obs_workers`] followed by `trials` seeded fault-injection replays
/// of the produced schedule; the degradation distribution lands in
/// `report.faults`. Deterministic for a fixed `(algorithm, seed, spec)`.
/// Fails with [`RescheduleError::NoSurvivors`] when a trial kills the
/// whole platform (a `kill_all` spec).
#[allow(clippy::too_many_arguments)] // mirrors run_obs_workers + the fault knobs
pub fn run_with_faults_workers<M: ExecutionTimeModel + ?Sized, R: Recorder>(
    algorithm: Algorithm,
    g: &Ptg,
    cluster: &Cluster,
    model: &M,
    seed: u64,
    spec: &FaultSpec,
    trials: usize,
    workers: Option<usize>,
    rec: &R,
) -> Result<(RunReport, Schedule, Option<ConvergenceTrace>), RescheduleError> {
    let (mut report, schedule, trace, (matrix, alloc)) =
        pipeline(algorithm, g, cluster, model, seed, workers, rec);
    let summary = rec.time("faults", || {
        crate::faults::fault_trials_obs(g, &matrix, &schedule, &alloc, spec, trials, rec)
    })?;
    if R::ENABLED {
        rec.add("faults.trials", summary.trials as u64);
        rec.add("faults.retries", summary.retries as u64);
        rec.add("faults.tasks_killed", summary.tasks_killed as u64);
        rec.add(
            "faults.processor_failures",
            summary.processor_failures as u64,
        );
        rec.add("faults.reschedules", summary.reschedules as u64);
        rec.gauge("faults.mean_degradation", summary.mean_degradation);
        rec.gauge("faults.p95_degradation", summary.p95_degradation);
        rec.gauge("faults.worst_degradation", summary.worst_degradation);
        type KindNames = (&'static str, &'static str, &'static str);
        let kind_rows: [(KindNames, crate::faults::KindStat); 4] = [
            (
                (
                    "faults.kind.crash.trials_affected",
                    "faults.kind.crash.events",
                    "faults.kind.crash.mean_degradation",
                ),
                summary.kinds.crash,
            ),
            (
                (
                    "faults.kind.straggler.trials_affected",
                    "faults.kind.straggler.events",
                    "faults.kind.straggler.mean_degradation",
                ),
                summary.kinds.straggler,
            ),
            (
                (
                    "faults.kind.perturb.trials_affected",
                    "faults.kind.perturb.events",
                    "faults.kind.perturb.mean_degradation",
                ),
                summary.kinds.perturb,
            ),
            (
                (
                    "faults.kind.node_failure.trials_affected",
                    "faults.kind.node_failure.events",
                    "faults.kind.node_failure.mean_degradation",
                ),
                summary.kinds.node_failure,
            ),
        ];
        for ((trials_name, events_name, mean_name), stat) in kind_rows {
            rec.add(trials_name, stat.trials_affected as u64);
            rec.add(events_name, stat.events as u64);
            rec.gauge(mean_name, stat.mean_degradation);
        }
    }
    report.faults = Some(summary);
    Ok((report, schedule, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_model::{PaperModel, SyntheticModel};
    use platform::presets::{chti, grelon};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use workloads::{fft::fft_ptg, CostConfig};

    fn graph() -> Ptg {
        fft_ptg(4, &CostConfig::default(), &mut ChaCha8Rng::seed_from_u64(8))
    }

    #[test]
    fn algorithm_names_round_trip() {
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::parse(alg.name()), Some(alg));
        }
        assert_eq!(Algorithm::parse("emts5"), Some(Algorithm::Emts5));
        assert_eq!(Algorithm::parse("nope"), None);
    }

    #[test]
    fn every_algorithm_produces_a_consistent_report() {
        let g = graph();
        let cluster = chti();
        let model = SyntheticModel::default();
        for alg in Algorithm::ALL {
            let (report, schedule) = run(alg, &g, &cluster, &model, 1);
            assert_eq!(report.algorithm, alg.name());
            assert_eq!(report.tasks, g.task_count());
            assert_eq!(report.allocation.len(), g.task_count());
            assert!((report.sim.makespan - schedule.makespan()).abs() < 1e-9);
            assert!(report.makespan > 0.0);
        }
    }

    #[test]
    fn emts_beats_or_matches_its_seed_heuristics_in_the_pipeline() {
        let g = graph();
        let cluster = grelon();
        let model = SyntheticModel::default();
        let (mcpa, _) = run(Algorithm::Mcpa, &g, &cluster, &model, 1);
        let (hcpa, _) = run(Algorithm::Hcpa, &g, &cluster, &model, 1);
        let (emts, _) = run(Algorithm::Emts5, &g, &cluster, &model, 1);
        assert!(emts.makespan <= mcpa.makespan + 1e-9);
        assert!(emts.makespan <= hcpa.makespan + 1e-9);
    }

    #[test]
    fn report_serializes_to_json() {
        let g = graph();
        let (report, _) = run(
            Algorithm::Mcpa,
            &g,
            &chti(),
            PaperModel::Model1.instantiate().as_ref(),
            1,
        );
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.algorithm, "MCPA");
        assert_eq!(back.makespan, report.makespan);
    }

    #[test]
    fn fault_runs_attach_a_summary_and_are_reproducible() {
        let g = graph();
        let cluster = chti();
        let model = SyntheticModel::default();
        let spec = crate::faults::FaultSpec::parse("seed=5,perturb=0.3,crash=0.1").unwrap();
        let (a, _, _) = run_with_faults_workers(
            Algorithm::Mcpa,
            &g,
            &cluster,
            &model,
            1,
            &spec,
            8,
            None,
            &obs::NoopRecorder,
        )
        .unwrap();
        let fa = a.faults.as_ref().expect("fault summary attached");
        assert_eq!(fa.trials, 8);
        assert!(fa.mean_degradation >= 1.0);
        assert!(fa.worst_degradation >= fa.p95_degradation);
        let (b, _, _) = run_with_faults_workers(
            Algorithm::Mcpa,
            &g,
            &cluster,
            &model,
            1,
            &spec,
            8,
            None,
            &obs::NoopRecorder,
        )
        .unwrap();
        assert_eq!(a.faults, b.faults);
        // JSON round-trip keeps the summary; fault-free reports omit it.
        let json = serde_json::to_string(&a).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.faults, a.faults);
        let (plain, _) = run(Algorithm::Mcpa, &g, &cluster, &model, 1);
        let plain_json = serde_json::to_string(&plain).unwrap();
        assert!(plain_json.contains("\"faults\":null"));
        let back: RunReport = serde_json::from_str(&plain_json).unwrap();
        assert_eq!(back.faults, None);
    }

    #[test]
    fn emts_runs_are_seed_reproducible_end_to_end() {
        let g = graph();
        let model = SyntheticModel::default();
        let (a, _) = run(Algorithm::Emts5, &g, &chti(), &model, 77);
        let (b, _) = run(Algorithm::Emts5, &g, &chti(), &model, 77);
        assert_eq!(a.allocation, b.allocation);
        assert_eq!(a.makespan, b.makespan);
    }
}
