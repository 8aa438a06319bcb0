//! Criterion bench: the allocation procedures (CPA family and the
//! Δ-critical seed heuristic) — the O(V(V+E)P) startup cost of EMTS.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use exec_model::{SyntheticModel, TimeMatrix};
use heuristics::{Allocator, Cpa, DeltaCritical, Hcpa, Mcpa};
use platform::grelon;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use workloads::{daggen::random_ptg, CostConfig, DaggenParams};

fn bench_allocators(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocation");
    let cluster = grelon();
    for n in [20usize, 50, 100] {
        let params = DaggenParams {
            n,
            width: 0.5,
            regularity: 0.2,
            density: 0.2,
            jump: 2,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = random_ptg(&params, &CostConfig::default(), &mut rng);
        let matrix = TimeMatrix::compute(
            &g,
            &SyntheticModel::default(),
            cluster.speed_flops(),
            cluster.processors,
        );
        for (name, alloc) in [
            ("CPA", &Cpa as &dyn Allocator),
            ("HCPA", &Hcpa),
            ("MCPA", &Mcpa),
            ("DeltaCritical", &DeltaCritical::default()),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &(&g, &matrix), |b, (g, m)| {
                b.iter(|| black_box(alloc.allocate(g, m)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_allocators);
criterion_main!(benches);
