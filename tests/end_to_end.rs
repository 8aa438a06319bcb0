//! End-to-end integration: corpus generation → allocation → mapping →
//! validation and fault-free replay, across every crate of the workspace.

use exec_model::{PaperModel, TimeMatrix};
use platform::presets::{chti, grelon};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sched::validate::all_violations;
use sim::faults::{execute_with_faults, FaultPlan};
use sim::runner::{run, Algorithm};
use workloads::{Corpus, CostConfig, PtgClass};

/// A small but class-complete corpus.
fn corpus() -> Corpus {
    Corpus::paper(
        0.01,
        &CostConfig::default(),
        &mut ChaCha8Rng::seed_from_u64(1234),
    )
}

#[test]
fn every_algorithm_survives_a_mixed_corpus_on_chti() {
    let corpus = corpus();
    let cluster = chti();
    let model = PaperModel::Model2.instantiate();
    // One instance per class keeps this quick while touching every code path.
    for class in [
        PtgClass::Fft,
        PtgClass::Strassen,
        PtgClass::Layered,
        PtgClass::Irregular,
    ] {
        let entry = corpus.by_class(class).next().expect("class populated");
        for alg in [
            Algorithm::Cpa,
            Algorithm::Mcpa,
            Algorithm::DeltaCritical,
            Algorithm::Emts5,
        ] {
            let (report, schedule) = run(alg, &entry.ptg, &cluster, model.as_ref(), 5);
            assert!(report.makespan > 0.0, "{}/{:?}", alg.name(), class);
            assert_eq!(schedule.task_count(), entry.ptg.task_count());
        }
    }
}

#[test]
fn static_and_dynamic_validation_agree_on_mapper_output() {
    let corpus = corpus();
    let cluster = grelon();
    let model = PaperModel::Model1.instantiate();
    for entry in corpus.entries.iter().take(20) {
        let matrix = TimeMatrix::compute(
            &entry.ptg,
            model.as_ref(),
            cluster.speed_flops(),
            cluster.processors,
        );
        let alloc = Algorithm::Mcpa.allocate(&entry.ptg, &matrix, 0);
        let schedule = {
            use sched::{ListScheduler, Mapper};
            ListScheduler.map(&entry.ptg, &matrix, &alloc)
        };
        // Static validator: no violations.
        let violations = all_violations(&entry.ptg, &matrix, &alloc, &schedule);
        assert!(violations.is_empty(), "{}: {violations:?}", entry.name);
        // Fault-free dynamic replay: the same makespan, bit for bit.
        let plan = FaultPlan::empty(entry.ptg.task_count(), cluster.processors);
        let report =
            execute_with_faults(&entry.ptg, &matrix, &schedule, &alloc, &plan).expect("replayable");
        assert_eq!(
            report.makespan.to_bits(),
            schedule.makespan().to_bits(),
            "{}: replay {} vs mapper {}",
            entry.name,
            report.makespan,
            schedule.makespan()
        );
    }
}

#[test]
fn emts_schedules_replay_with_high_utilization_than_mcpa_on_big_machine() {
    // Fig. 6's qualitative claim: EMTS uses the cluster more efficiently
    // than MCPA on a large platform. Utilization is not *guaranteed* to be
    // higher per instance (shorter makespan shrinks the denominator), so
    // assert the weaker but universal property: EMTS's makespan is never
    // worse, and both schedules validate.
    let corpus = corpus();
    let cluster = grelon();
    let model = PaperModel::Model2.instantiate();
    let entry = corpus
        .by_class_and_size(PtgClass::Irregular, 100)
        .next()
        .expect("irregular n=100 present");
    let (mcpa, _) = run(Algorithm::Mcpa, &entry.ptg, &cluster, model.as_ref(), 9);
    let (emts, _) = run(Algorithm::Emts5, &entry.ptg, &cluster, model.as_ref(), 9);
    assert!(emts.makespan <= mcpa.makespan + 1e-9);
    assert!(emts.utilization > 0.0);
}

#[test]
fn model1_and_model2_rank_algorithms_consistently_with_plus_selection() {
    let corpus = corpus();
    let cluster = chti();
    for model in [PaperModel::Model1, PaperModel::Model2] {
        let m = model.instantiate();
        let entry = corpus.by_class(PtgClass::Fft).next().unwrap();
        let (hcpa, _) = run(Algorithm::Hcpa, &entry.ptg, &cluster, m.as_ref(), 3);
        let (emts, _) = run(Algorithm::Emts5, &entry.ptg, &cluster, m.as_ref(), 3);
        assert!(
            emts.makespan <= hcpa.makespan + 1e-9,
            "{model:?}: EMTS {} vs HCPA {}",
            emts.makespan,
            hcpa.makespan
        );
    }
}

#[test]
fn reports_from_older_builds_still_parse() {
    // An EMTS configuration written while it still carried a wall-clock
    // `time_budget` (deadlines now go to `Emts::run_deadline`): the retired
    // key is ignored.
    let cfg: emts::EmtsConfig = serde_json::from_str(
        r#"{"mu": 10, "lambda": 100, "generations": 10, "fm": 0.33, "delta": 0.9,
            "shrink_prob": 0.2, "sigma_shrink": 5.0, "sigma_stretch": 5.0,
            "heuristic_seeds": true, "parallel_evaluation": true,
            "time_budget": {"secs": 2, "nanos": 0}, "comma_selection": false,
            "rejection": false, "rejection_slack": 1.5, "uniform_mutation": false,
            "crossover_prob": 0.0, "adaptive_sigma": false}"#,
    )
    .expect("the retired key is ignored");
    assert_eq!(cfg, emts::EmtsConfig::emts10());
}
