//! Golden fingerprints: results that must not move between commits.
//!
//! The other bit-identity tests compare two paths of one build (oracle vs
//! SoA core, 0 vs 2 workers). This one compares the build with the
//! committed file `tests/golden_fingerprints.txt`, so a change that moves
//! any allocation, EA trajectory, placement (of the list mapper on the EA's
//! best, of the insertion mapper on MCPA's allocation), fault replay or
//! online event fails here and names what moved.
//!
//! Grid: every 6th item of one DAGGEN stream grid cycle (`0..144`, seed
//! 2011) × Chti/Grelon × Model 1/2 — 96 cases, one line per case and facet:
//! `item platform model facet hex`. Each item's graph gets one more line,
//! `item - - graph hex`, ahead of its cases. Values are folded with FNV-1a
//! over their IEEE-754 bits (`to_bits`), never through std hashers, so the
//! file is stable across toolchains. Three short online runs of one job
//! stream add two lines each: with ring 0, reactive only, and with ring 0
//! sabotaged in every epoch.
//!
//! Regenerate only when results are meant to move, and say why in
//! CHANGES.md:
//!
//! ```text
//! cargo test --test golden -- --ignored regenerate_golden_fingerprints
//! ```

use emts::{Emts, EmtsConfig, GenerationStats};
use exec_model::{PaperModel, TimeMatrix};
use heuristics::{Allocator, DeltaCritical, Hcpa, Mcpa};
use sched::{Allocation, InsertionScheduler, ListScheduler, Mapper, Schedule};
use sim::faults::{execute_with_faults, ChurnSpec, FaultEventKind, FaultPlan, FaultSpec};
use sim::online::OnlineEventKind;
use sim::{fault_trials, run_online, OnlineConfig};
use workloads::CostConfig;

const GOLDEN: &str = "tests/golden_fingerprints.txt";
/// Every fault source armed, `procfail > 0` so the rescheduler runs.
const FAULTS: &str =
    "seed=2011,perturb=0.2,straggler_prob=0.05,straggler_factor=4,crash=0.05,procfail=0.05";
/// The benchmark's online churn.
const CHURN: &str = "fail_every=200,repair_after=120,spares=1,join_every=500";

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn float(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    fn alloc(&mut self, a: &Allocation) -> &mut Self {
        for &p in a.as_slice() {
            self.word(u64::from(p));
        }
        self
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn fault_kind(kind: FaultEventKind) -> u64 {
    match kind {
        FaultEventKind::Start => 0,
        FaultEventKind::Finish => 1,
        FaultEventKind::Crash => 2,
        FaultEventKind::Kill => 3,
    }
}

fn placements(s: &Schedule) -> Fnv {
    let mut h = Fnv::new();
    for p in &s.placements {
        h.word(u64::from(p.task.0)).float(p.start).float(p.finish);
        for &q in &p.processors {
            h.word(u64::from(q));
        }
    }
    h
}

/// The graph itself: task names, costs, both adjacency lists in their
/// order and the topological order. Lists are length-prefixed, so no two
/// graphs fold the same word sequence.
fn graph(g: &ptg::Ptg) -> Fnv {
    let mut h = Fnv::new();
    for t in g.tasks() {
        h.word(t.name.len() as u64);
        for b in t.name.bytes() {
            h.word(u64::from(b));
        }
        h.float(t.flop).float(t.alpha);
    }
    for v in g.task_ids() {
        for list in [g.successors(v), g.predecessors(v)] {
            h.word(list.len() as u64);
            for &w in list {
                h.word(u64::from(w.0));
            }
        }
    }
    for &v in g.topo_order() {
        h.word(u64::from(v.0));
    }
    h
}

/// `(facet, hex)` fingerprints of one grid case.
fn case(g: &ptg::Ptg, matrix: &TimeMatrix, seed: u64) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    let mcpa = Mcpa.allocate(g, matrix);
    out.push(("mcpa", Fnv::new().alloc(&mcpa).hex()));
    out.push(("hcpa", Fnv::new().alloc(&Hcpa.allocate(g, matrix)).hex()));
    let delta = DeltaCritical::default().allocate(g, matrix);
    out.push(("delta", Fnv::new().alloc(&delta).hex()));

    let emts = Emts::new(EmtsConfig {
        parallel_evaluation: false,
        ..EmtsConfig::emts5()
    })
    .run(g, matrix, seed);
    out.push(("emts5.best", Fnv::new().alloc(&emts.best).hex()));
    out.push(("emts5.makespan", Fnv::new().float(emts.best_makespan).hex()));
    // The committed words: `u64::MAX` marks the seed row, and 0 stands for
    // a retired, always-zero `rejected` column.
    let mut trace = Fnv::new();
    for (generation, best, mean, worst, mutated) in
        emts.trace.iter().map(GenerationStats::fitness_key)
    {
        trace
            .word(generation.map_or(u64::MAX, |u| u as u64))
            .word(best)
            .word(mean)
            .word(worst)
            .word(0)
            .word(mutated as u64);
    }
    out.push(("emts5.trace", trace.hex()));

    let schedule = ListScheduler.map(g, matrix, &emts.best);
    out.push(("map", placements(&schedule).hex()));
    // The backfilling mapper on the grid's mapper-study input.
    let inserted = InsertionScheduler.map(g, matrix, &mcpa);
    out.push(("insertion", placements(&inserted).hex()));

    let spec = FaultSpec::parse(FAULTS).expect("valid fault spec");
    let s = fault_trials(g, matrix, &schedule, &emts.best, &spec, 4).expect("a survivor is kept");
    let mut summary = Fnv::new();
    summary
        .float(s.fault_free_makespan)
        .float(s.mean_degradation)
        .float(s.p95_degradation)
        .float(s.worst_degradation)
        .word(s.kinds.crash.events as u64)
        .word(s.tasks_killed as u64)
        .word(s.kinds.node_failure.events as u64)
        .word(s.reschedules as u64);
    for k in [
        s.kinds.crash,
        s.kinds.straggler,
        s.kinds.perturb,
        s.kinds.node_failure,
    ] {
        summary
            .word(k.trials_affected as u64)
            .word(k.events as u64)
            .float(k.mean_degradation);
    }
    out.push(("faults.summary", summary.hex()));

    let plan = FaultPlan::realize(
        &spec,
        0,
        g.task_count(),
        schedule.processors,
        schedule.makespan(),
    );
    let trial =
        execute_with_faults(g, matrix, &schedule, &emts.best, &plan).expect("a survivor is kept");
    let mut log = Fnv::new();
    log.float(trial.makespan).word(trial.reschedules as u64);
    for e in &trial.events {
        log.float(e.time)
            .word(u64::from(e.task.0))
            .word(fault_kind(e.kind));
    }
    out.push(("faults.trial0", log.hex()));
    out
}

fn online_kind(kind: OnlineEventKind) -> [u64; 4] {
    match kind {
        OnlineEventKind::Arrive(j) => [0, j, 0, 0],
        OnlineEventKind::Admit(j) => [1, j, 0, 0],
        OnlineEventKind::Done(j) => [2, j, 0, 0],
        OnlineEventKind::Kill(j, t) => [3, j, u64::from(t), 0],
        OnlineEventKind::Fail(q) => [4, u64::from(q), 0, 0],
        OnlineEventKind::Recover(q) => [5, u64::from(q), 0, 0],
        OnlineEventKind::Join(q) => [6, u64::from(q), 0, 0],
        OnlineEventKind::FailAll => [7, 0, 0, 0],
        OnlineEventKind::Plan(e, r, n) => [8, e as u64, u64::from(r), n as u64],
        OnlineEventKind::Reactive(n) => [9, n as u64, 0, 0],
    }
}

/// The `completions` and `events` lines of one online run on Chti under
/// Model 2 and the benchmark's churn, their facets prefixed by `tag`.
fn online(tag: &str, cfg: &OnlineConfig) -> [String; 2] {
    let report = run_online(
        &platform::chti(),
        &*PaperModel::Model2.instantiate(),
        cfg,
        &obs::NoopRecorder,
    )
    .expect("the churn stream keeps a survivor");
    if !cfg.sabotage_ring0.is_empty() {
        assert_eq!(
            report.totals.ring0_epochs, 0,
            "ring 0 ran in a sabotaged epoch"
        );
    }
    let mut completions = Fnv::new();
    for j in &report.jobs {
        completions.word(j.job).float(j.completion);
    }
    let mut events = Fnv::new();
    for e in &report.events {
        events.float(e.time);
        for w in online_kind(e.kind) {
            events.word(w);
        }
    }
    [
        format!("online chti model2 {tag}completions {}", completions.hex()),
        format!("online chti model2 {tag}events {}", events.hex()),
    ]
}

/// Every fingerprint line, in file order.
fn fingerprints() -> Vec<String> {
    let costs = CostConfig::default();
    let mut lines = Vec::new();
    for i in (0..144).step_by(6) {
        let g = workloads::stream::item(2011, i, &costs).ptg;
        lines.push(format!("{i} - - graph {}", graph(&g).hex()));
        for cluster in [platform::chti(), platform::grelon()] {
            for (model, tag) in [
                (PaperModel::Model1, "model1"),
                (PaperModel::Model2, "model2"),
            ] {
                let matrix = TimeMatrix::compute(
                    &g,
                    &model.instantiate(),
                    cluster.speed_flops(),
                    cluster.processors,
                );
                let platform = cluster.name.to_lowercase();
                for (facet, hex) in case(&g, &matrix, i) {
                    lines.push(format!("{i} {platform} {tag} {facet} {hex}"));
                }
            }
        }
    }

    let rolling = OnlineConfig {
        jobs: 12,
        churn: ChurnSpec::parse(CHURN).expect("valid churn spec"),
        emts: Some(EmtsConfig {
            parallel_evaluation: false,
            ..EmtsConfig::emts5()
        }),
        ..OnlineConfig::default()
    };
    lines.extend(online("", &rolling));
    // The same stream planned by ring 2 alone, and by rings 1 and 2 with
    // ring 0 sabotaged in every epoch: these pin the repair rings apart
    // from the optimizer.
    let reactive = OnlineConfig {
        emts: None,
        ..rolling.clone()
    };
    lines.extend(online("reactive.", &reactive));
    let ring1 = OnlineConfig {
        sabotage_ring0: (0..10_000).collect(),
        ..rolling
    };
    lines.extend(online("ring1.", &ring1));
    lines
}

#[test]
fn results_match_the_committed_golden_fingerprints() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let golden: Vec<&str> = golden.lines().collect();
    let now = fingerprints();
    let moved: Vec<String> = golden
        .iter()
        .zip(&now)
        .filter(|(want, got)| **want != got.as_str())
        .map(|(want, got)| format!("  want {want}\n   got {got}"))
        .collect();
    assert!(
        moved.is_empty() && golden.len() == now.len(),
        "{} of {} fingerprints moved ({} lines committed, {} computed):\n{}",
        moved.len(),
        golden.len(),
        golden.len(),
        now.len(),
        moved.join("\n")
    );
}

/// Rewrites the committed file from the current build. Run it only when a
/// change is meant to move results.
#[test]
#[ignore = "rewrites tests/golden_fingerprints.txt"]
fn regenerate_golden_fingerprints() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let mut text = fingerprints().join("\n");
    text.push('\n');
    std::fs::write(&path, text).expect("golden file is writable");
}
