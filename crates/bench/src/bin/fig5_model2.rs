//! Figure 5 — average relative makespan under Model 2 (non-monotonic),
//! EMTS5 (top half) and EMTS10 (bottom half).
//!
//! Expected shape (paper §V-B): EMTS reduces the makespan more on the
//! larger platform (Grelon); EMTS10 is at least as good as EMTS5, with the
//! biggest extra gains on irregular PTGs.

use bench::{output, relative_makespan_grid, EmtsVariant, Harness};
use exec_model::SyntheticModel;

fn main() {
    let h = Harness::from_env("fig5_model2");
    let args = &h.args;
    let model = SyntheticModel::default();
    let mut all = Vec::new();
    for variant in [EmtsVariant::Emts5, EmtsVariant::Emts10] {
        h.note(format_args!(
            "Figure 5 (Model 2, {}) — scale {}, seed {} …",
            variant.label(),
            args.scale,
            args.seed
        ));
        let results = relative_makespan_grid(&model, variant, args.scale, args.seed, h.recorder());
        h.say(format_args!(
            "\nFigure 5 ({}) — relative makespan, Model 2 (synthetic non-monotonic)\n",
            variant.label()
        ));
        h.say(output::panel_table(&results));
        all.extend(results);
    }
    h.say(format_args!(
        "(values > 1.0: EMTS produced the shorter schedule)"
    ));
    match output::write_json(&args.out, "fig5_model2.json", &all) {
        Ok(path) => h.say(format_args!("\nwrote {path}")),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    h.finish();
}
