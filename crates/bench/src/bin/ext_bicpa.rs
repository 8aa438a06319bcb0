//! Extension — BiCPA's bi-criteria trade-off curve.
//!
//! The paper's related work cites BiCPA (Desprez & Suter, CCGrid 2010) as
//! optimizing both completion time and resource usage. This experiment
//! prints the (makespan, work) Pareto front of the capped-CPA sweep for one
//! irregular 100-task PTG on Grelon, and compares the pure-makespan corner
//! against MCPA and EMTS5.

use bench::{output, Harness};
use emts::{Emts, EmtsConfig};
use exec_model::{SyntheticModel, TimeMatrix};
use heuristics::bicpa::{pareto_front, tradeoff_curve};
use heuristics::{allocate_and_map, Mcpa};
use platform::grelon;
use serde::Serialize;
use stats::TextTable;
use workloads::CostConfig;

#[derive(Serialize)]
struct FrontPoint {
    cap: u32,
    makespan: f64,
    work: f64,
}

fn main() {
    let h = Harness::from_env("ext_bicpa");
    let args = &h.args;
    // Stream item 114: irregular n = 100 (width 0.5, regularity 0.2,
    // density 0.2, jump 2), also in the component grid's corpus.
    let g = &workloads::stream::item(args.seed, 114, &CostConfig::default()).ptg;
    let cluster = grelon();
    let model = SyntheticModel::default();
    let matrix = TimeMatrix::compute(g, &model, cluster.speed_flops(), cluster.processors);

    let curve = tradeoff_curve(g, &matrix);
    let front = pareto_front(&curve);
    let mut table = TextTable::new(["cap", "makespan [s]", "work [proc·s]"]);
    for p in &front {
        table.push([
            p.cap.to_string(),
            format!("{:.2}", p.makespan),
            format!("{:.0}", p.work),
        ]);
    }
    h.say(format_args!(
        "Extension: BiCPA (makespan, work) Pareto front — irregular n=100, Grelon, Model 2\n"
    ));
    h.say(table.render());

    let best_ms = front.first().map(|p| p.makespan).unwrap_or(f64::NAN);
    let (_, mcpa_ms) = allocate_and_map(&Mcpa, g, &matrix);
    let emts_ms = Emts::new(EmtsConfig::emts5())
        .run_recorded(g, &matrix, args.seed, h.recorder())
        .best_makespan;
    h.say(format_args!(
        "pure-makespan corner: {best_ms:.2} s   MCPA: {mcpa_ms:.2} s   EMTS5: {emts_ms:.2} s"
    ));

    let points: Vec<FrontPoint> = front
        .iter()
        .map(|p| FrontPoint {
            cap: p.cap,
            makespan: p.makespan,
            work: p.work,
        })
        .collect();
    match output::write_json(&args.out, "ext_bicpa.json", &points) {
        Ok(path) => h.say(format_args!("\nwrote {path}")),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    h.finish();
}
