//! Figure 3 — probability density of the mutation operator.
//!
//! Samples the allocation-adjustment distribution `C` (σ₁ = σ₂ = 5,
//! a = 0.2) one million times and prints its empirical density over
//! [−25, 25], reproducing the asymmetric two-humped shape of the paper's
//! Figure 3: a small negative (shrink) hump at 20 % of the mass and a large
//! positive (stretch) hump at 80 %.

use bench::Harness;
use emts::MutationOperator;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stats::Histogram;

fn main() {
    let h = Harness::from_env("fig3_mutation_pdf");
    let args = &h.args;
    let op = MutationOperator::paper();
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let mut hist = Histogram::new(-25.0, 26.0, 51); // integer bins −25..=25
    let samples = 1_000_000usize;
    for _ in 0..samples {
        hist.add(op.sample_delta(&mut rng) as f64);
    }
    h.say(format_args!(
        "Figure 3 — mutation operator density, sigma1=sigma2=5, a=0.2, {samples} samples\n"
    ));
    h.say(hist.render(60));

    let density = hist.density();
    let shrink_mass: f64 = density
        .iter()
        .filter(|&&(c, _)| c < 0.0)
        .map(|&(_, d)| d)
        .sum::<f64>();
    let stretch_mass: f64 = density
        .iter()
        .filter(|&&(c, _)| c > 0.0)
        .map(|&(_, d)| d)
        .sum::<f64>();
    h.say(format_args!(
        "shrink mass ≈ {:.3}, stretch mass ≈ {:.3} (paper: 0.2 / 0.8)",
        shrink_mass / (shrink_mass + stretch_mass),
        stretch_mass / (shrink_mass + stretch_mass)
    ));
    match bench::output::write_json(&args.out, "fig3_mutation_pdf.json", &density) {
        Ok(path) => h.say(format_args!("\nwrote {path}")),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    h.finish();
}
