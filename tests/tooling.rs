//! Tooling-level integration: Gantt rendering and lower bounds working
//! together over real generated workloads.

use exec_model::{SyntheticModel, TimeMatrix};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sched::bounds::{gap_factor, lower_bounds};
use sched::gantt::{ascii_gantt, svg_gantt, SvgOptions};
use sched::{ListScheduler, Mapper};
use sim::runner::{run, Algorithm};
use workloads::{Corpus, CostConfig, PtgClass};

fn corpus() -> Corpus {
    Corpus::paper(
        0.01,
        &CostConfig::default(),
        &mut ChaCha8Rng::seed_from_u64(77),
    )
}

#[test]
fn gantt_renderings_cover_all_tasks_and_rows() {
    let corpus = corpus();
    let cluster = platform::chti();
    let model = SyntheticModel::default();
    let entry = corpus.by_class(PtgClass::Strassen).next().unwrap();
    let (_, schedule) = run(Algorithm::Emts5, &entry.ptg, &cluster, &model, 3);
    let ascii = ascii_gantt(&schedule, 60);
    assert_eq!(
        ascii.lines().filter(|l| l.starts_with('P')).count(),
        cluster.processors as usize
    );
    let svg = svg_gantt(&entry.ptg, &schedule, &SvgOptions::default());
    assert!(svg.matches("<rect").count() > entry.ptg.task_count() / 2);
}

#[test]
fn gap_factors_are_sane_across_algorithms() {
    let corpus = corpus();
    let cluster = platform::grelon();
    let model = SyntheticModel::default();
    let entry = corpus
        .by_class_and_size(PtgClass::Layered, 100)
        .next()
        .unwrap();
    let matrix = TimeMatrix::compute(
        &entry.ptg,
        &model,
        cluster.speed_flops(),
        cluster.processors,
    );
    for alg in [Algorithm::Mcpa, Algorithm::Hcpa, Algorithm::Emts5] {
        let alloc = alg.allocate(&entry.ptg, &matrix, 4);
        let ms = ListScheduler.makespan(&entry.ptg, &matrix, &alloc);
        let gap = gap_factor(&entry.ptg, &matrix, &alloc, ms);
        assert!(gap >= 1.0 - 1e-9, "{}: gap {gap}", alg.name());
        assert!(gap < 10.0, "{}: unreasonable gap {gap}", alg.name());
        let bounds = lower_bounds(&entry.ptg, &matrix, &alloc);
        assert!(bounds.universal_bound() <= ms + 1e-9);
    }
}

#[test]
fn emts_gap_is_no_worse_than_mcpa_gap() {
    // EMTS minimizes the same makespan the gap numerator measures, so its
    // gap to the *universal* bound cannot exceed MCPA's.
    let corpus = corpus();
    let cluster = platform::grelon();
    let model = SyntheticModel::default();
    let entry = corpus
        .by_class_and_size(PtgClass::Irregular, 100)
        .next()
        .unwrap();
    let matrix = TimeMatrix::compute(
        &entry.ptg,
        &model,
        cluster.speed_flops(),
        cluster.processors,
    );
    let mcpa_ms = ListScheduler.makespan(
        &entry.ptg,
        &matrix,
        &Algorithm::Mcpa.allocate(&entry.ptg, &matrix, 0),
    );
    let emts_ms = ListScheduler.makespan(
        &entry.ptg,
        &matrix,
        &Algorithm::Emts5.allocate(&entry.ptg, &matrix, 0),
    );
    assert!(emts_ms <= mcpa_ms + 1e-9);
}
