//! Figure 4 — average relative makespan under Model 1 (Amdahl's law).
//!
//! For each PTG class (FFT, Strassen, layered n=100, irregular n=100) and
//! each platform (Chti, Grelon), reports the mean of
//! `T_MCPA / T_EMTS5` and `T_HCPA / T_EMTS5` with 95 % confidence
//! intervals. Run with `--full` for the paper's instance counts
//! (400/100/108/324); the default `--scale 0.1` finishes in seconds.
//!
//! Expected shape (paper §V-A): values barely above 1.0 against MCPA on
//! regular PTGs, clearly above 1.0 against HCPA and on irregular PTGs, and
//! larger improvements on the bigger platform (Grelon).

use bench::{output, relative_makespan_grid, EmtsVariant, Harness};
use exec_model::Amdahl;

fn main() {
    let h = Harness::from_env("fig4_model1");
    let args = &h.args;
    h.note(format_args!(
        "Figure 4 (Model 1, EMTS5) — scale {}, seed {} …",
        args.scale, args.seed
    ));
    let results = relative_makespan_grid(
        &Amdahl,
        EmtsVariant::Emts5,
        args.scale,
        args.seed,
        h.recorder(),
    );
    h.say(format_args!(
        "Figure 4 — relative makespan vs EMTS5, Model 1 (Amdahl)\n"
    ));
    h.say(output::panel_table(&results));
    h.say(format_args!(
        "(values > 1.0: EMTS5 produced the shorter schedule)"
    ));
    match output::write_json(&args.out, "fig4_model1.json", &results) {
        Ok(path) => h.say(format_args!("\nwrote {path}")),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    h.finish();
}
