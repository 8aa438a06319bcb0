//! Scheduling an FFT scientific workflow on a Grid'5000-class cluster.
//!
//! Generates the paper's FFT PTGs (5 to 95 tasks), schedules each with
//! every algorithm the simulator knows, and prints the resulting makespans
//! plus cluster utilization — the workload class the paper's introduction
//! motivates ("scientific workflows are an important type of parallel task
//! graphs").
//!
//! Run with: `cargo run --release --example fft_workflow`

use exec_model::SyntheticModel;
use platform::chti;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sim::runner::{run, Algorithm};
use stats::TextTable;
use workloads::{fft::fft_ptg, CostConfig};

fn main() {
    let cluster = chti();
    let model = SyntheticModel::default();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let costs = CostConfig::default();

    println!("FFT workflows on {cluster}, Model 2 (non-monotonic)\n");
    let mut table = TextTable::new([
        "tasks",
        "algorithm",
        "makespan [s]",
        "utilization",
        "alloc time [ms]",
    ]);
    for k in [2u32, 4, 8, 16] {
        let g = fft_ptg(k, &costs, &mut rng);
        for alg in [
            Algorithm::Cpa,
            Algorithm::Hcpa,
            Algorithm::Mcpa,
            Algorithm::DeltaCritical,
            Algorithm::Emts5,
            Algorithm::Emts10,
        ] {
            let (report, _) = run(alg, &g, &cluster, &model, 99);
            table.push([
                g.task_count().to_string(),
                report.algorithm.clone(),
                format!("{:.2}", report.makespan),
                format!("{:.1} %", 100.0 * report.utilization),
                format!("{:.2}", report.allocation_seconds * 1e3),
            ]);
        }
    }
    println!("{}", table.render());
    println!("EMTS rows should never exceed the MCPA/HCPA rows of the same PTG —");
    println!("plus-selection starts from those heuristics and only improves.");
}
