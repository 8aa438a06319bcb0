//! Composing workflows from kernel PTGs.
//!
//! Real pipelines chain kernels: this example builds "Strassen, then an
//! FFT over the result, beside an independent stencil sweep" by composing
//! PTGs serially and in parallel, then schedules the composite with MCPA
//! and with EMTS10.
//!
//! Run with: `cargo run --release --example workflow_composition`

use emts::{Emts, EmtsConfig};
use exec_model::{SyntheticModel, TimeMatrix};
use heuristics::{allocate_and_map, Mcpa};
use platform::Cluster;
use ptg::transform::{compose_parallel, compose_serial, transitive_reduction};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use workloads::families::diamond_mesh;
use workloads::{fft::fft_ptg, strassen::strassen_ptg, CostConfig};

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let costs = CostConfig::default();

    let strassen = strassen_ptg(&costs, &mut rng);
    let fft = fft_ptg(8, &costs, &mut rng);
    let stencil = diamond_mesh(4, 4, &costs, &mut rng);

    // (Strassen ; FFT) ∥ stencil
    let pipeline = compose_serial(&strassen, &fft);
    let workflow = compose_parallel(&pipeline, &stencil);
    let workflow = transitive_reduction(&workflow);
    let stats = ptg::analysis::shape_stats(&workflow);
    println!(
        "composite workflow: {} tasks, {} edges, {} levels, width {}, {:.1} TFLOP total",
        stats.tasks,
        stats.edges,
        stats.levels,
        stats.max_width,
        stats.total_flop / 1e12
    );

    let cluster = Cluster::new("dept-cluster", 48, 3.1);
    let matrix = TimeMatrix::compute(
        &workflow,
        &SyntheticModel::default(),
        cluster.speed_flops(),
        cluster.processors,
    );

    let (_, mcpa) = allocate_and_map(&Mcpa, &workflow, &matrix);
    let emts = Emts::new(EmtsConfig::emts10()).run(&workflow, &matrix, 17);
    println!("\nschedules on {cluster}:");
    println!("  MCPA    makespan {mcpa:>8.2} s");
    println!(
        "  EMTS10  makespan {:>8.2} s  ({} evaluations, {:.0} ms, {}× improvement over its seeds)",
        emts.best_makespan,
        emts.evaluations,
        emts.wall_time.as_secs_f64() * 1e3,
        format_args!("{:.3}", emts.improvement())
    );
}
