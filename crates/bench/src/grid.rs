//! The component grid: every ablation study and the model and platform
//! sweeps as rows of one harness. A `Study` is a named list of rows whose
//! first row is the baseline; a `Row` is a label plus a closure
//! `(&Ptg, seed) -> Outcome` that picks its own platform and model (Grelon
//! and Model 2 unless the study varies them). Every row runs on every 3rd
//! item of one DAGGEN stream grid cycle (16 PTGs each of n = 20, 50, 100 at
//! full scale) under two EA seeds. The harness times each call; wall time
//! is the only field of a [`GridReport`] that changes between reruns. Every
//! row runs on one thread; EMTS rows evaluate serially.

use emts::{Emts, EmtsConfig};
use exec_model::{
    Amdahl, Downey, ExecutionTimeModel, PerTaskModel, RedistributionCost, SyntheticModel,
    TimeMatrix,
};
use heuristics::{allocate_and_map, Allocator, Mcpa};
use obs::Recorder;
use platform::{grelon, Cluster};
use ptg::Ptg;
use sched::{InsertionScheduler, ListScheduler, Mapper};
use serde::Serialize;
use stats::summary::ratio_summary;
use stats::{Summary, TextTable};
use std::rc::Rc;
use std::time::Instant;
use workloads::CostConfig;

/// What one call of a row reports for one `(PTG, seed)` pair.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    /// Makespan of the row's schedule in seconds.
    makespan: f64,
    /// Fitness evaluations spent (0 for one-shot heuristics).
    evaluations: usize,
    /// Offspring rejected mid-mapping by the §VI strategy.
    rejected: usize,
}

impl Outcome {
    fn new(makespan: f64, evaluations: usize, rejected: usize) -> Self {
        Outcome {
            makespan,
            evaluations,
            rejected,
        }
    }
}

/// A row's computation for one `(PTG, seed)` pair.
type RunFn = Box<dyn Fn(&Ptg, u64) -> Outcome>;

/// One configuration of a study.
struct Row {
    /// Row label.
    label: String,
    run: RunFn,
}

impl Row {
    /// A row running `run` on every `(PTG, seed)` pair.
    fn new(label: impl Into<String>, run: impl Fn(&Ptg, u64) -> Outcome + 'static) -> Self {
        Row {
            label: label.into(),
            run: Box::new(run),
        }
    }
}

/// One question: rows compared with the first (the baseline).
struct Study {
    /// Study name.
    name: String,
    /// The rows; `rows[0]` is the baseline.
    rows: Vec<Row>,
}

impl Study {
    fn new(name: impl Into<String>, rows: impl IntoIterator<Item = Row>) -> Self {
        Study {
            name: name.into(),
            rows: rows.into_iter().collect(),
        }
    }
}

/// A row's aggregate over every `(PTG, seed)` run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RowResult {
    /// Row label.
    pub label: String,
    /// Mean makespan in seconds.
    pub makespan: f64,
    /// Per-run makespan ratio to the baseline row, mean ± 95 % CI
    /// (< 1: this row schedules shorter).
    pub vs_baseline: Summary,
    /// Mean fitness evaluations per run.
    pub evaluations: f64,
    /// Offspring rejected by the §VI strategy, summed over runs.
    pub rejected: usize,
    /// Wall-clock seconds of all the row's calls — the only timing field.
    pub wall_seconds: f64,
}

/// One study's rows.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StudyResult {
    /// Study name.
    pub study: String,
    /// Row aggregates; the first is the baseline.
    pub rows: Vec<RowResult>,
}

/// Everything one grid run produces (the committed `EXPERIMENTS_grid.json`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GridReport {
    /// Stream seed of the corpus; the EA seeds are `seeds`.
    pub seed: u64,
    /// Corpus scale (1.0: all 48 items).
    pub scale: f64,
    /// Stream item indices of the corpus.
    pub items: Vec<u64>,
    /// EA seeds every row runs under.
    pub seeds: Vec<u64>,
    /// One entry per study.
    pub studies: Vec<StudyResult>,
}

/// Every 3rd item of one 144-item DAGGEN grid cycle, thinned evenly to
/// `scale` (at least one item). The cycle is ordered by size, so the
/// thinned corpus still spans n = 20, 50 and 100.
fn corpus_items(scale: f64) -> Vec<u64> {
    const ALL: u64 = 144 / 3;
    let keep = ((ALL as f64 * scale).round() as u64).clamp(1, ALL);
    (0..keep).map(|j| 3 * (j * ALL / keep)).collect()
}

fn matrix(g: &Ptg, cluster: &Cluster, model: &dyn ExecutionTimeModel) -> TimeMatrix {
    TimeMatrix::compute(g, model, cluster.speed_flops(), cluster.processors)
}

fn model2() -> Rc<dyn ExecutionTimeModel> {
    Rc::new(SyntheticModel::default())
}

/// EMTS under `cfg` (serial evaluation) on `cluster` and `model`.
fn emts_on(
    label: impl Into<String>,
    cluster: Cluster,
    model: Rc<dyn ExecutionTimeModel>,
    cfg: EmtsConfig,
) -> Row {
    let emts = Emts::new(with(cfg, |c| c.parallel_evaluation = false));
    Row::new(label, move |g, seed| {
        let r = emts.run(g, &matrix(g, &cluster, &*model), seed);
        Outcome::new(r.best_makespan, r.evaluations, r.rejected)
    })
}

/// EMTS under `cfg` on Grelon, Model 2.
fn emts(label: impl Into<String>, cfg: EmtsConfig) -> Row {
    emts_on(label, grelon(), model2(), cfg)
}

/// `[MCPA, EMTS5]` on `cluster` and `model`: each sweep study's pair.
fn mcpa_vs_emts5(cluster: Cluster, model: Rc<dyn ExecutionTimeModel>) -> Vec<Row> {
    let mcpa = Row::new("MCPA", {
        let (cluster, model) = (cluster.clone(), model.clone());
        move |g, _| {
            let m = matrix(g, &cluster, &*model);
            Outcome::new(allocate_and_map(&Mcpa, g, &m).1, 0, 0)
        }
    });
    vec![mcpa, emts_on("EMTS5", cluster, model, EmtsConfig::emts5())]
}

/// `cfg` with one edit applied.
fn with(mut cfg: EmtsConfig, edit: impl FnOnce(&mut EmtsConfig)) -> EmtsConfig {
    edit(&mut cfg);
    cfg
}

/// Every study, in report order.
fn studies() -> Vec<Study> {
    let (e5, e10) = (EmtsConfig::emts5, EmtsConfig::emts10);
    let cold = |cfg| with(cfg, |c| c.heuristic_seeds = false);
    let reject = |slack| with(e10(), |c| (c.rejection, c.rejection_slack) = (true, slack));
    let seeding = [
        emts("seeded EMTS5 (MCPA + HCPA + Δ-CP)", e5()),
        emts("cold EMTS5 (all ones)", cold(e5())),
        emts("cold EMTS10", cold(e10())),
    ];
    let selection = [
        emts("(5+25) plus", e5()),
        emts("(5,25) comma", with(e5(), |c| c.comma_selection = true)),
        emts("(10+100) plus", e10()),
        emts("(10,100) comma", with(e10(), |c| c.comma_selection = true)),
    ];
    let uniform = with(e5(), |c| c.uniform_mutation = true);
    let mutation = [
        emts("paper operator (folded normal, a = 0.2)", e5()),
        emts("uniform steps U{1..10}", uniform),
        emts("symmetric (a = 0.5)", with(e5(), |c| c.shrink_prob = 0.5)),
        emts("stretch-only (a = 0)", with(e5(), |c| c.shrink_prob = 0.0)),
    ];
    let fm =
        [0.33, 0.1, 0.66, 1.0].map(|fm| emts(format!("f_m = {fm}"), with(e5(), |c| c.fm = fm)));
    let delta = [0.9, 0.5, 0.7, 1.0].map(|d| emts(format!("Δ = {d}"), with(e5(), |c| c.delta = d)));
    let rejection = [
        emts("no rejection (EMTS10)", e10()),
        emts("slack 1.0", reject(1.0)),
        emts("slack 1.5", reject(1.5)),
        emts("slack 3.0", reject(3.0)),
    ];
    let mapper = [false, true].map(|insertion| {
        let label = ["MCPA + list scheduling", "MCPA + insertion"][usize::from(insertion)];
        Row::new(label, move |g, _| {
            let m = matrix(g, &grelon(), &SyntheticModel::default());
            let alloc = Mcpa.allocate(g, &m);
            let makespan = if insertion {
                InsertionScheduler.map(g, &m, &alloc).makespan()
            } else {
                ListScheduler.makespan(g, &m, &alloc)
            };
            Outcome::new(makespan, 0, 0)
        })
    });
    let mut out = vec![
        Study::new("seeding", seeding),
        Study::new("selection", selection),
        Study::new("mutation", mutation),
        Study::new("f_m (paper: 0.33)", fm),
        Study::new("Δ (paper: 0.9)", delta),
        Study::new("§VI rejection", rejection),
        Study::new("mapper", mapper),
    ];

    let models: [(&str, Rc<dyn ExecutionTimeModel>); 5] = [
        ("Amdahl (Model 1)", Rc::new(Amdahl)),
        ("synthetic (Model 2)", model2()),
        ("Downey A = 32, σ = 1", Rc::new(Downey::new(32.0, 1.0))),
        (
            "Model 2 + redistribution",
            Rc::new(RedistributionCost::typical(SyntheticModel::default())),
        ),
        (
            "per-task mix (Amdahl / Model 2)",
            Rc::new(PerTaskModel::new(
                vec![Box::new(Amdahl), Box::new(SyntheticModel::default())],
                |t: &ptg::Task| usize::from(t.flop > 1e11),
            )),
        ),
    ];
    for (name, model) in models {
        let rows = mcpa_vs_emts5(grelon(), model);
        out.push(Study::new(format!("model: {name}"), rows));
    }
    // Grelon's per-processor speed at every size.
    for p in [10u32, 20, 40, 80, 120, 160] {
        let rows = mcpa_vs_emts5(Cluster::new(format!("p{p}"), p, 3.1), model2());
        out.push(Study::new(format!("platform: P = {p}"), rows));
    }
    out
}

/// Runs every study at `scale`: corpus from stream `seed`, EA seeds `seed`
/// and `seed + 1`, each call timed. Ratios pair each run with the
/// baseline's run on the same `(PTG, seed)`.
pub fn run_grid<R: Recorder>(seed: u64, scale: f64, rec: &R) -> GridReport {
    let _span = rec.span("grid");
    let items = corpus_items(scale);
    let costs = CostConfig::default();
    let graphs: Vec<Ptg> = items
        .iter()
        .map(|&i| workloads::stream::item(seed, i, &costs).ptg)
        .collect();
    let seeds = vec![seed, seed + 1];
    let calls: Vec<(&Ptg, u64)> = graphs
        .iter()
        .flat_map(|g| seeds.iter().map(move |&s| (g, s)))
        .collect();
    let studies = studies()
        .into_iter()
        .map(|study| {
            let mut baseline = Vec::new();
            let rows = study.rows.iter().map(|row| {
                let mut wall_seconds = 0.0;
                let outcomes: Vec<Outcome> = calls
                    .iter()
                    .map(|&(g, seed)| {
                        let t = Instant::now();
                        let outcome = (row.run)(g, seed);
                        let secs = t.elapsed().as_secs_f64();
                        rec.latency("grid.call", secs);
                        wall_seconds += secs;
                        outcome
                    })
                    .collect();
                let ms: Vec<f64> = outcomes.iter().map(|o| o.makespan).collect();
                if baseline.is_empty() {
                    baseline.clone_from(&ms);
                }
                let n = outcomes.len() as f64;
                RowResult {
                    label: row.label.clone(),
                    makespan: ms.iter().sum::<f64>() / n,
                    vs_baseline: ratio_summary(&ms, &baseline),
                    evaluations: outcomes.iter().map(|o| o.evaluations as f64).sum::<f64>() / n,
                    rejected: outcomes.iter().map(|o| o.rejected).sum(),
                    wall_seconds,
                }
            });
            StudyResult {
                rows: rows.collect(),
                study: study.name,
            }
        })
        .collect();
    GridReport {
        seed,
        scale,
        items,
        seeds,
        studies,
    }
}

/// One study as a markdown table (the format EXPERIMENTS.md embeds).
pub fn render(study: &StudyResult) -> String {
    let mut table = TextTable::new([
        "configuration",
        "makespan [s]",
        "× baseline (95% CI)",
        "evaluations",
        "rejected",
        "wall [s]",
    ]);
    for r in &study.rows {
        table.push([
            r.label.clone(),
            format!("{:.1}", r.makespan),
            r.vs_baseline.format(3),
            format!("{:.0}", r.evaluations),
            r.rejected.to_string(),
            format!("{:.2}", r.wall_seconds),
        ]);
    }
    table.render_markdown()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::NoopRecorder;

    /// The smallest grid: one PTG, two seeds.
    fn tiny() -> GridReport {
        run_grid(3, 0.01, &NoopRecorder)
    }

    #[test]
    fn corpus_spans_every_size_and_thins_evenly() {
        assert_eq!(corpus_items(1.0), (0..144).step_by(3).collect::<Vec<u64>>());
        for scale in [1.0, 0.1] {
            let mut n: Vec<usize> = corpus_items(scale)
                .iter()
                .map(|&i| workloads::stream::item_params(i).n)
                .collect();
            n.dedup();
            assert_eq!(n, vec![20, 50, 100], "scale {scale}");
        }
    }

    #[test]
    fn every_cell_is_finite_and_every_baseline_ratio_is_one() {
        let report = tiny();
        assert_eq!((report.items.len(), report.seeds.clone()), (1, vec![3, 4]));
        assert_eq!(report.studies.len(), studies().len());
        for study in &report.studies {
            let base = &study.rows[0].vs_baseline;
            assert_eq!((base.mean, base.sd), (1.0, 0.0), "{}", study.study);
            for r in &study.rows {
                for x in [r.makespan, r.vs_baseline.mean, r.vs_baseline.ci95] {
                    assert!(x.is_finite(), "{} / {}", study.study, r.label);
                }
                assert!(r.makespan > 0.0 && r.wall_seconds >= 0.0);
                assert!(render(study).contains(&r.label));
            }
        }
    }

    #[test]
    fn reruns_agree_on_every_non_timing_field() {
        let [a, b] = [tiny(), tiny()].map(|mut report| {
            let rows = report.studies.iter_mut().flat_map(|s| &mut s.rows);
            rows.for_each(|row| row.wall_seconds = 0.0);
            report
        });
        assert_eq!(a, b);
    }
}
