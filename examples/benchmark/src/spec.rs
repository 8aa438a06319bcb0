//! The benchmark's catalogue: workloads and every metric it reports.
//!
//! `BENCHMARK.json` at the repository root lists the end-to-end and
//! per-layer metrics below with the same names, units, directions and
//! bounds; a test keeps the two in step.

use exec_model::PaperModel;
use platform::Cluster;

/// Corpus items per pass at scale 1: two cycles of the 144-point §IV-C
/// DAGGEN grid, so every shape appears twice and a seed's per-shape luck
/// averages out.
pub const CORPUS_ITEMS: usize = 288;
/// Independent online streams per pass at scale 1. One stream's cost
/// follows its own backlog trajectory (run-to-run CV ≈ 14% at 60 jobs), so
/// a pass sums several; eight keep a pass near 6 s, so a 20 s run repeats
/// each stream three times.
pub const ONLINE_STREAMS: usize = 8;
/// Jobs per online stream: 48 jobs of 20 tasks, then 12 of 50 (the stream
/// walks the DAGGEN grid in index order), so decisions range from one
/// small graph to unions of several.
pub const ONLINE_JOBS: u64 = 60;
/// Online arrival and control parameters (simulated seconds).
pub const ONLINE_ARRIVAL_MEAN: f64 = 450.0;
pub const ONLINE_EPOCH: f64 = 60.0;
pub const ONLINE_CHURN: &str = "fail_every=200,repair_after=120,spares=1,join_every=500";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// EMTS10 on Grelon (P=120), Model 2, pooled batch evaluation with one
    /// worker thread beside the caller.
    Emts10Grelon,
    /// EMTS10 on Chti (P=20), Model 2, no workers: the serial delta path.
    Emts10ChtiSerial,
    /// MCPA and HCPA allocation, full mapping and validation on Grelon,
    /// Model 1 — the one-shot path, bypassing the EA.
    HeuristicsGrelon,
    /// The online control loop on Chti, Model 2, under node churn.
    OnlineChti,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Emts10Grelon,
        Workload::Emts10ChtiSerial,
        Workload::HeuristicsGrelon,
        Workload::OnlineChti,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Emts10Grelon => "emts10-grelon",
            Workload::Emts10ChtiSerial => "emts10-chti-serial",
            Workload::HeuristicsGrelon => "heuristics-grelon",
            Workload::OnlineChti => "online-chti",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn cluster(self) -> Cluster {
        match self {
            Workload::Emts10Grelon | Workload::HeuristicsGrelon => platform::grelon(),
            Workload::Emts10ChtiSerial | Workload::OnlineChti => platform::chti(),
        }
    }

    pub fn model(self) -> PaperModel {
        match self {
            Workload::HeuristicsGrelon => PaperModel::Model1,
            _ => PaperModel::Model2,
        }
    }

    /// EA pool workers for the EMTS workloads (`None` for the others).
    pub fn ea_workers(self) -> Option<usize> {
        match self {
            Workload::Emts10Grelon => Some(1),
            Workload::Emts10ChtiSerial => Some(0),
            _ => None,
        }
    }

    /// Inputs per pass: corpus items, or online streams.
    pub fn inputs(self, scale: f64) -> usize {
        let base = match self {
            Workload::OnlineChti => ONLINE_STREAMS,
            _ => CORPUS_ITEMS,
        };
        ((base as f64 * scale).round() as usize).max(1)
    }

    /// The parameters recorded in every result's provenance.
    pub fn params(self, scale: f64) -> Vec<(String, String)> {
        let cluster = self.cluster();
        let mut p = vec![
            (
                "platform".to_string(),
                format!("{} (P={})", cluster.name, cluster.processors),
            ),
            ("model".to_string(), format!("{:?}", self.model())),
        ];
        match self {
            Workload::OnlineChti => {
                p.push(("streams".into(), self.inputs(scale).to_string()));
                p.push(("jobs_per_stream".into(), ONLINE_JOBS.to_string()));
                p.push(("arrival_mean".into(), ONLINE_ARRIVAL_MEAN.to_string()));
                p.push(("epoch".into(), ONLINE_EPOCH.to_string()));
                p.push(("churn".into(), ONLINE_CHURN.to_string()));
                p.push((
                    "emts".into(),
                    "EMTS5 ring 0, serial evaluation, no epoch budget".into(),
                ));
            }
            _ => {
                p.push(("items".into(), self.inputs(scale).to_string()));
                p.push((
                    "stream".into(),
                    "workloads::stream::item(seed, 0..items)".into(),
                ));
                p.push(match self.ea_workers() {
                    Some(w) => (
                        "operation".into(),
                        format!("EMTS10 run_with_workers(workers={w})"),
                    ),
                    None => (
                        "operation".into(),
                        "MCPA+HCPA allocate, map, validate".into(),
                    ),
                });
            }
        }
        p
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// End to end, from untraced runs; `bound` is the share of the
    /// baseline median by which it may worsen before `compare` calls it a
    /// regression.
    EndToEnd { bound: f64 },
    /// Per layer, from traced runs.
    Layer,
    /// Written to the result file only (workload-specific, or a
    /// cross-check).
    Extra,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// True when the value is a pure function of the inputs (seed and
    /// scale): two runs of one commit must agree on it exactly.
    pub deterministic: bool,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    deterministic: bool,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        kind,
        deterministic,
    }
}

use Better::{Higher, Lower};
use Kind::{EndToEnd, Extra, Layer};

/// Every metric, in report order.
pub const METRICS: &[MetricSpec] = &[
    // End to end: every workload reports all of these.
    m("setup_s", "s", Lower, EndToEnd { bound: 0.25 }, false),
    m("pass_s", "s", Lower, EndToEnd { bound: 0.25 }, false),
    m("op_ms_p50", "ms", Lower, EndToEnd { bound: 0.25 }, false),
    m("op_ms_p90", "ms", Lower, EndToEnd { bound: 0.25 }, false),
    m("peak_rss_mb", "MB", Lower, EndToEnd { bound: 0.1 }, false),
    m(
        "makespan_vs_lb",
        "ratio",
        Lower,
        EndToEnd { bound: 0.15 },
        true,
    ),
    // Per layer: every workload reports all of these in traced runs; a
    // share or count is 0 where the workload bypasses the layer.
    m("workloads.daggen_s", "s", Lower, Layer, false),
    m("exec_model.matrix_s", "s", Lower, Layer, false),
    m("heuristics.allocate_s", "s", Lower, Layer, false),
    m("heuristics.calls", "count", Lower, Layer, true),
    m("trace.pass_s", "s", Lower, Layer, false),
    m("trace.coverage", "ratio", Higher, Layer, false),
    m("trace.overhead", "ratio", Lower, Layer, false),
    m("emts.seed_share", "share", Lower, Layer, false),
    m("emts.record_share", "share", Lower, Layer, false),
    m("emts.mutate_share", "share", Lower, Layer, false),
    m("emts.evaluate_share", "share", Lower, Layer, false),
    m("emts.select_share", "share", Lower, Layer, false),
    m("sched.map_share", "share", Lower, Layer, false),
    m("sched.validate_share", "share", Lower, Layer, false),
    m("sim.decide_share", "share", Lower, Layer, false),
    m("sim.rings12_share", "share", Lower, Layer, false),
    m("emts.offspring", "count", Lower, Layer, true),
    m("emts.evals", "count", Lower, Layer, true),
    m("emts.cache_hits", "count", Higher, Layer, true),
    m("emts.pruned", "count", Higher, Layer, true),
    m("sim.decisions", "count", Lower, Layer, true),
    m("sim.reactive_replans", "count", Lower, Layer, true),
    m("sim.tasks_killed", "count", Lower, Layer, true),
    m("sched.mapper_ns_per_eval", "ns", Lower, Layer, false),
    m("sched.map_us_per_call", "us", Lower, Layer, false),
    m("sched.map_vs_makespan", "ratio", Lower, Layer, false),
    m("sched.validate_us_per_call", "us", Lower, Layer, false),
    // Result file only.
    m("failed_frac", "share", Lower, Extra, false),
    m("passes", "count", Higher, Extra, false),
    m("ops_per_pass", "count", Higher, Extra, true),
    m("op_ms_p99", "ms", Lower, Extra, false),
    m("gain_over_seeds", "ratio", Higher, Extra, true),
    m("mean_makespan_s", "s", Lower, Extra, true),
    m("slo_attainment", "share", Higher, Extra, true),
    m("heuristics.mcpa_s", "s", Lower, Extra, false),
    m("heuristics.hcpa_s", "s", Lower, Extra, false),
    m("heuristics.delta_cp_s", "s", Lower, Extra, false),
    m("emts.seed_s", "s", Lower, Extra, false),
    m("emts.record_s", "s", Lower, Extra, false),
    m("emts.mutate_s", "s", Lower, Extra, false),
    m("emts.evaluate_s", "s", Lower, Extra, false),
    m("emts.select_s", "s", Lower, Extra, false),
    m("emts.pool_s", "s", Lower, Extra, false),
    m("emts.engine_ns_per_offspring", "ns", Lower, Extra, false),
    m("emts.useful_frac", "share", Higher, Extra, true),
    m("emts.pool_retries", "count", Lower, Extra, false),
    m("emts.inrun.seed_s", "s", Lower, Extra, false),
    m("emts.inrun.record_s", "s", Lower, Extra, false),
    m("emts.inrun.mutate_s", "s", Lower, Extra, false),
    m("emts.inrun.evaluate_s", "s", Lower, Extra, false),
    m("emts.inrun.select_s", "s", Lower, Extra, false),
    m("sim.idle_epochs", "count", Lower, Extra, true),
    m("sim.decide_s", "s", Lower, Extra, false),
    m("sim.ring0_ea_s", "s", Lower, Extra, false),
    m("sim.decide_ms_p50.backlog_le4", "ms", Lower, Extra, false),
    m("sim.decide_ms_p50.backlog_gt4", "ms", Lower, Extra, false),
];

pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    METRICS.iter().find(|s| s.name == name)
}

/// The metrics the run's last stdout line must carry, in catalogue order.
pub fn reported(trace: bool) -> impl Iterator<Item = &'static MetricSpec> {
    METRICS.iter().filter(move |s| match s.kind {
        EndToEnd { .. } => !trace,
        Layer => trace,
        Extra => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = METRICS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len(), "duplicate metric name");
        for s in METRICS {
            assert!(s.name.len() <= 64 && s.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            if let EndToEnd { bound } = s.kind {
                assert!(bound > 0.0 && bound <= 0.25, "{}", s.name);
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    /// `BENCHMARK.json` declares exactly the end-to-end and per-layer
    /// metrics of this catalogue, and the workloads above.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(serde::Value::Array(items)) => items.clone(),
            _ => panic!("BENCHMARK.json lacks the {key} list"),
        };
        let s = |v: &serde::Value, k: &str| v.get(k).and_then(|x| x.as_str()).unwrap().to_string();
        let workloads: Vec<String> = list("workloads").iter().map(|w| s(w, "name")).collect();
        let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, expected);
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let declared = list(key);
            let ours: Vec<&MetricSpec> = reported(trace).collect();
            assert_eq!(declared.len(), ours.len(), "{key} length");
            for (d, o) in declared.iter().zip(ours) {
                assert_eq!(s(d, "name"), o.name);
                assert_eq!(s(d, "unit"), o.unit, "{}", o.name);
                assert_eq!(s(d, "better"), o.better.as_str(), "{}", o.name);
                if let EndToEnd { bound } = o.kind {
                    assert_eq!(
                        d.get("bound"),
                        Some(&serde::Value::Float(bound)),
                        "{}",
                        o.name
                    );
                }
            }
        }
    }
}
