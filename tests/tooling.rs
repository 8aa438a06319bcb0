//! Tooling-level integration: traces, Gantt rendering and lower bounds
//! working together over real generated workloads.

use exec_model::{SyntheticModel, TimeMatrix};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sched::bounds::{gap_factor, lower_bounds};
use sched::gantt::{ascii_gantt, svg_gantt, SvgOptions};
use sched::{ListScheduler, Mapper};
use sim::runner::{run, Algorithm};
use sim::trace::{occupancy_profile, trace_schedule};
use workloads::{Corpus, CostConfig, PtgClass};

fn corpus() -> Corpus {
    Corpus::paper(
        0.01,
        &CostConfig::default(),
        &mut ChaCha8Rng::seed_from_u64(77),
    )
}

#[test]
fn traces_account_for_every_processor_second() {
    let corpus = corpus();
    let cluster = platform::grelon();
    let model = SyntheticModel::default();
    let entry = corpus
        .by_class_and_size(PtgClass::Irregular, 100)
        .next()
        .unwrap();
    let (_, schedule) = run(Algorithm::Mcpa, &entry.ptg, &cluster, &model, 2);
    let trace = trace_schedule(&entry.ptg, &schedule);
    assert_eq!(trace.len(), 2 * entry.ptg.task_count());
    // Integrate the occupancy step function: must equal the busy area.
    let profile = occupancy_profile(&trace);
    let mut area = 0.0;
    for w in profile.windows(2) {
        area += w[0].1 as f64 * (w[1].0 - w[0].0);
    }
    assert!(
        (area - schedule.busy_area()).abs() <= 1e-6 * schedule.busy_area(),
        "occupancy integral {} vs busy area {}",
        area,
        schedule.busy_area()
    );
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
