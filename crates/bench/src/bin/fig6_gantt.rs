//! Figure 6 — side-by-side Gantt charts of MCPA and EMTS10 schedules for an
//! irregular 100-task PTG on Grelon under Model 2.
//!
//! The paper's point: MCPA's allocations stay tiny (poor utilization), while
//! EMTS stretches the big tasks across many processors. The binary prints
//! ASCII charts and writes SVG files plus utilization numbers.

use bench::{output, Harness};
use exec_model::SyntheticModel;
use platform::grelon;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sched::gantt::{ascii_gantt, svg_gantt, SvgOptions};
use sim::runner::{run_obs, Algorithm};
use workloads::{daggen::random_ptg, CostConfig, DaggenParams};

fn main() {
    let h = Harness::from_env("fig6_gantt");
    let args = &h.args;
    let params = DaggenParams {
        n: 100,
        width: 0.5,
        regularity: 0.2,
        density: 0.2,
        jump: 2,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let g = random_ptg(&params, &CostConfig::default(), &mut rng);
    let cluster = grelon();
    let model = SyntheticModel::default();

    h.say(format_args!(
        "Figure 6 — MCPA vs EMTS10 schedules, irregular n=100 on Grelon, Model 2\n"
    ));
    for alg in [Algorithm::Mcpa, Algorithm::Emts10] {
        let (report, schedule, _) = run_obs(alg, &g, &cluster, &model, args.seed, h.recorder());
        h.say(format_args!(
            "== {} ==  makespan {:.2} s, utilization {:.1} %",
            alg.name(),
            report.makespan,
            100.0 * report.utilization
        ));
        h.say(ascii_gantt(&schedule, 100));
        let svg = svg_gantt(&g, &schedule, &SvgOptions::default());
        match output::write_text(&args.out, &format!("fig6_{}.svg", report.algorithm), &svg) {
            Ok(path) => h.say(format_args!("wrote {path}\n")),
            Err(e) => eprintln!("could not write SVG: {e}"),
        }
    }
    h.finish();
}
