//! The component grid: every ablation study and the model and platform
//! sweeps as rows over one streaming corpus (see `bench::grid`). Prints
//! one markdown table per study and writes `EXPERIMENTS_grid.json`;
//! `--full --out .` regenerates the committed copy.

use bench::{grid, output, Harness};

fn main() {
    let h = Harness::from_env("grid");
    let args = &h.args;
    let report = grid::run_grid(args.seed, args.scale, h.recorder());
    h.say(format_args!(
        "Component grid: {} DAGGEN stream items × EA seeds {:?}\n",
        report.items.len(),
        report.seeds
    ));
    for study in &report.studies {
        h.say(format_args!(
            "### {}\n\n{}",
            study.study,
            grid::render(study)
        ));
    }
    match output::write_json(&args.out, "EXPERIMENTS_grid.json", &report) {
        Ok(path) => h.say(format_args!("wrote {path}")),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    h.finish();
}
