//! `emts-stream` — streaming PTG scheduling throughput harness.
//!
//! Schedules an unbounded stream of DAGGEN PTGs ([`workloads::stream`])
//! through the list scheduler's fitness core without ever materializing a
//! corpus: each item is generated from `(seed, index)`, costed on the
//! Grelon cluster model, mapped, and discarded. Each item's makespan folds
//! into an order-independent XOR fingerprint, so any change that moves one
//! bit of one item moves it. `scripts/bench_smoke.sh` runs the full
//! 100 000-item stream into `BENCH_throughput.json`, and `scripts/ci.sh`
//! checks the 1k-item fingerprint.
//!
//! The reported throughput is *honest single-core end-to-end*: one thread,
//! and the clock covers every item. The result splits that clock into four
//! layers, each summed over the items: DAGGEN generation
//! (`generate_seconds`), the Grelon time matrix (`matrix_seconds`), the
//! random allocation draw (`allocate_seconds`) and the makespan-only
//! mapping (`map_seconds`); freeing what a layer built counts to that
//! layer. Only the fingerprint fold and the counters fall outside them, so
//! they sum to `elapsed_seconds` within a few per cent. The fitness core
//! on its own is `emts-ledger`'s bare mapper loop (`raw_ns_per_eval` in
//! `BENCH_obs.json`).
//!
//! ```text
//! emts-stream [--count N] [--seed S] [--out FILE] [--quiet]
//! ```

use exec_model::{Amdahl, TimeMatrix};
use platform::grelon;
use rand::Rng;
use sched::{Allocation, EvalScratch, ListScheduler};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;
use workloads::stream::{item, item_seed};
use workloads::CostConfig;

struct Args {
    count: u64,
    seed: u64,
    out: Option<PathBuf>,
    quiet: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            count: 100_000,
            seed: 2011,
            out: None,
            quiet: false,
        }
    }
}

const USAGE: &str = "usage: emts-stream [--count <items>] [--seed <u64>] [--out <file>] [--quiet]";

impl Args {
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = args.into_iter().skip(1);
        fn num<T: std::str::FromStr>(v: Option<String>, flag: &str) -> Result<T, String> {
            let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
        }
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--count" => out.count = num(iter.next(), "--count")?,
                "--seed" => out.seed = num(iter.next(), "--seed")?,
                "--out" => out.out = Some(PathBuf::from(iter.next().ok_or("--out needs a file")?)),
                "--quiet" | "-q" => out.quiet = true,
                "--help" | "-h" => return Err(USAGE.into()),
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
        }
        Ok(out)
    }
}

/// Seconds spent in each layer of the timed loop, summed over the items.
#[derive(Default)]
struct LayerSeconds {
    generate: f64,
    matrix: f64,
    allocate: f64,
    map: f64,
}

/// Runs `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Result JSON written by `--out` (and printed unless `--quiet`).
#[derive(Serialize)]
struct StreamResult {
    seed: u64,
    count: u64,
    platform: String,
    model: String,
    tasks_scheduled: u64,
    mean_makespan: f64,
    fingerprint: String,
    elapsed_seconds: f64,
    generate_seconds: f64,
    matrix_seconds: f64,
    allocate_seconds: f64,
    map_seconds: f64,
    throughput_ptgs_per_sec: f64,
}

fn main() {
    let args = match Args::parse(std::env::args()) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let costs = CostConfig::default();
    let cluster = grelon();
    let scheduler = ListScheduler;
    let mut scratch = EvalScratch::with_capacity(128, cluster.processors);
    let mut layers = LayerSeconds::default();
    let (mut tasks, mut fingerprint, mut makespan_sum) = (0u64, 0u64, 0.0f64);
    let t0 = Instant::now();

    for index in 0..args.count {
        let mut it = timed(&mut layers.generate, || item(args.seed, index, &costs));
        let matrix = timed(&mut layers.matrix, || {
            TimeMatrix::compute(&it.ptg, &Amdahl, cluster.speed_flops(), cluster.processors)
        });
        let alloc = timed(&mut layers.allocate, || {
            Allocation::from_vec(
                (0..it.ptg.task_count())
                    .map(|_| it.rng.gen_range(1..=cluster.processors))
                    .collect(),
            )
        });
        let makespan = timed(&mut layers.map, || {
            scheduler
                .makespan_bounded_with(&it.ptg, &matrix, &alloc, f64::INFINITY, &mut scratch)
                .expect("infinite cutoff never rejects")
        });
        tasks += it.ptg.task_count() as u64;
        // `item_seed(bits, index)` is `splitmix64(splitmix64(index) ^ bits)`:
        // one well-mixed hash per (index, makespan) pair.
        fingerprint ^= item_seed(makespan.to_bits(), index);
        makespan_sum += makespan;
        // Freeing what a layer built is part of that layer's cost.
        timed(&mut layers.generate, || drop(it));
        timed(&mut layers.matrix, || drop(matrix));
        timed(&mut layers.allocate, || drop(alloc));
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let result = StreamResult {
        seed: args.seed,
        count: args.count,
        platform: format!("{} (P={})", cluster.name, cluster.processors),
        model: "amdahl".into(),
        tasks_scheduled: tasks,
        mean_makespan: if args.count > 0 {
            makespan_sum / args.count as f64
        } else {
            0.0
        },
        fingerprint: format!("{fingerprint:016x}"),
        elapsed_seconds: elapsed,
        generate_seconds: layers.generate,
        matrix_seconds: layers.matrix,
        allocate_seconds: layers.allocate,
        map_seconds: layers.map,
        throughput_ptgs_per_sec: if elapsed > 0.0 {
            args.count as f64 / elapsed
        } else {
            0.0
        },
    };

    let json = serde_json::to_string_pretty(&result).expect("results serialize infallibly");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    if !args.quiet {
        println!("{json}");
    }
}
