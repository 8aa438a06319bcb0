//! `emts-stream` — streaming PTG scheduling throughput harness.
//!
//! Schedules an unbounded stream of DAGGEN PTGs ([`workloads::stream`])
//! through the list scheduler's fitness core without ever materializing a
//! corpus: each item is generated from `(seed, index)`, costed on the
//! Grelon cluster model, mapped, and discarded. Progress folds into an
//! order-independent [`StreamCheckpoint`] fingerprint, so an interrupted,
//! sharded, resumed run is checkable bit for bit against an uninterrupted
//! one — `scripts/ci.sh` does exactly that, and `scripts/bench_smoke.sh`
//! runs the full 100 000-item stream into `BENCH_throughput.json`.
//!
//! The reported throughput is *honest single-core end-to-end*: one thread,
//! and the clock covers every item of the current invocation. The result
//! splits that clock into four layers, each summed over the items: DAGGEN
//! generation (`generate_seconds`), the Grelon time matrix
//! (`matrix_seconds`), the random allocation draw (`allocate_seconds`) and
//! the makespan-only mapping (`map_seconds`); freeing what a layer built
//! counts to that layer. Only bookkeeping (fingerprint fold, counters,
//! checkpoints) falls outside them, so they sum to `elapsed_seconds`
//! within a few per cent. The fitness core on its own is `emts-ledger`'s
//! `mapper_probe`.
//!
//! ```text
//! emts-stream [--count N] [--seed S] [--shards M]
//!             [--checkpoint FILE] [--checkpoint-every N] [--stop-after N]
//!             [--out FILE] [--report FILE] [--quiet]
//! ```
//!
//! `--report` writes a schema-versioned [`obs::RunReport`]: the run is
//! wrapped in a `stream` span with one `shard` child per shard processed,
//! and the checkpoint/resume life cycle surfaces as counters
//! (`stream.items`, `stream.resumed_items`, `stream.checkpoints_saved`,
//! `stream.shards_run`) — so a sharded, interrupted, resumed run leaves
//! the same audit trail `emts-sim` runs do.

use exec_model::{Amdahl, TimeMatrix};
use obs::{Recorder, StatsRecorder};
use platform::grelon;
use rand::Rng;
use sched::{Allocation, EvalScratch, ListScheduler};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;
use workloads::stream::{shard_len, PtgStream, StreamCheckpoint};
use workloads::CostConfig;

struct Args {
    count: u64,
    seed: u64,
    shards: u32,
    checkpoint: Option<PathBuf>,
    checkpoint_every: u64,
    stop_after: Option<u64>,
    out: Option<PathBuf>,
    report: Option<PathBuf>,
    quiet: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            count: 100_000,
            seed: 2011,
            shards: 1,
            checkpoint: None,
            checkpoint_every: 4096,
            stop_after: None,
            out: None,
            report: None,
            quiet: false,
        }
    }
}

const USAGE: &str = "usage: emts-stream [--count <items>] [--seed <u64>] [--shards <m>] \
     [--checkpoint <file>] [--checkpoint-every <items>] [--stop-after <items>] \
     [--out <file>] [--report <file>] [--quiet]";

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
                "--shards" => {
                    out.shards = num(iter.next(), "--shards")?;
                    if out.shards == 0 {
                        return Err("--shards must be at least 1".into());
                    }
                }
                "--checkpoint" => {
                    out.checkpoint = Some(PathBuf::from(
                        iter.next().ok_or("--checkpoint needs a file")?,
                    ));
                }
                "--checkpoint-every" => {
                    out.checkpoint_every = num(iter.next(), "--checkpoint-every")?;
                    if out.checkpoint_every == 0 {
                        return Err("--checkpoint-every must be at least 1".into());
                    }
                }
                "--stop-after" => out.stop_after = Some(num(iter.next(), "--stop-after")?),
                "--out" => out.out = Some(PathBuf::from(iter.next().ok_or("--out needs a file")?)),
                "--report" => {
                    out.report = Some(PathBuf::from(iter.next().ok_or("--report needs a file")?));
                }
                "--quiet" | "-q" => out.quiet = true,
                "--help" | "-h" => return Err(USAGE.into()),
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
        }
        Ok(out)
    }
}

/// Seconds spent in each layer of the timed loop, summed over the items of
/// this invocation.
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
    shards: u32,
    platform: String,
    model: String,
    completed: bool,
    items_done: u64,
    items_this_run: u64,
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

fn load_checkpoint(args: &Args) -> Result<StreamCheckpoint, String> {
    if let Some(path) = &args.checkpoint {
        if path.exists() {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let cp: StreamCheckpoint = serde_json::from_str(&text)
                .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
            if !cp.matches(args.seed, args.count, args.shards) {
                return Err(format!(
                    "checkpoint {} belongs to a different run \
                     (seed {} count {} shards {}, asked for seed {} count {} shards {})",
                    path.display(),
                    cp.seed,
                    cp.total,
                    cp.shard_count,
                    args.seed,
                    args.count,
                    args.shards
                ));
            }
            return Ok(cp);
        }
    }
    Ok(StreamCheckpoint::new(args.seed, args.count, args.shards))
}

fn save_checkpoint(args: &Args, cp: &StreamCheckpoint, rec: &StatsRecorder) {
    if let Some(path) = &args.checkpoint {
        let json = serde_json::to_string_pretty(cp).expect("checkpoints serialize infallibly");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write checkpoint {}: {e}", path.display());
            std::process::exit(1);
        }
        rec.add("stream.checkpoints_saved", 1);
    }
}

fn main() {
    let args = match Args::parse(std::env::args()) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let mut cp = match load_checkpoint(&args) {
        Ok(cp) => cp,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let costs = CostConfig::default();
    let cluster = grelon();
    let scheduler = ListScheduler;
    let mut scratch = EvalScratch::with_capacity(128, cluster.processors);
    let budget = args.stop_after.unwrap_or(u64::MAX);
    let mut processed_this_run = 0u64;
    let mut since_checkpoint = 0u64;
    let mut stopped_early = false;
    let mut layers = LayerSeconds::default();
    let rec = StatsRecorder::new();
    // Items already folded by a previous invocation of this checkpointed
    // run: the report distinguishes resumed progress from fresh work.
    rec.add("stream.resumed_items", cp.items_done());
    let stream_span = rec.span("stream");
    let t0 = Instant::now();

    'shards: for shard in 0..args.shards {
        let done = cp.done[shard as usize];
        if done >= shard_len(args.count, shard, args.shards) {
            continue;
        }
        let _shard_span = rec.span("shard");
        rec.add("stream.shards_run", 1);
        let mut stream = PtgStream::shard(args.seed, args.count, shard, args.shards, costs.clone());
        stream.skip_items(done);
        while let Some(mut item) = timed(&mut layers.generate, || stream.next()) {
            let matrix = timed(&mut layers.matrix, || {
                TimeMatrix::compute(
                    &item.ptg,
                    &Amdahl,
                    cluster.speed_flops(),
                    cluster.processors,
                )
            });
            let alloc = timed(&mut layers.allocate, || {
                Allocation::from_vec(
                    (0..item.ptg.task_count())
                        .map(|_| item.rng.gen_range(1..=cluster.processors))
                        .collect(),
                )
            });
            let makespan = timed(&mut layers.map, || {
                scheduler
                    .makespan_bounded_with(&item.ptg, &matrix, &alloc, f64::INFINITY, &mut scratch)
                    .expect("infinite cutoff never rejects")
            });
            cp.fold(shard, item.index, item.ptg.task_count() as u64, makespan);
            rec.add("stream.items", 1);
            rec.add("stream.tasks", item.ptg.task_count() as u64);
            // Freeing what a layer built is part of that layer's cost.
            timed(&mut layers.generate, || drop(item));
            timed(&mut layers.matrix, || drop(matrix));
            timed(&mut layers.allocate, || drop(alloc));
            processed_this_run += 1;
            since_checkpoint += 1;
            if since_checkpoint >= args.checkpoint_every {
                save_checkpoint(&args, &cp, &rec);
                since_checkpoint = 0;
            }
            if processed_this_run >= budget {
                stopped_early = !cp.is_complete();
                break 'shards;
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    drop(stream_span);
    save_checkpoint(&args, &cp, &rec);

    let completed = cp.is_complete();
    let result = StreamResult {
        seed: args.seed,
        count: args.count,
        shards: args.shards,
        platform: format!("{} (P={})", cluster.name, cluster.processors),
        model: "amdahl".into(),
        completed,
        items_done: cp.items_done(),
        items_this_run: processed_this_run,
        tasks_scheduled: cp.tasks,
        mean_makespan: if cp.items_done() > 0 {
            cp.result_sum / cp.items_done() as f64
        } else {
            0.0
        },
        fingerprint: format!("{:016x}", cp.fingerprint),
        elapsed_seconds: elapsed,
        generate_seconds: layers.generate,
        matrix_seconds: layers.matrix,
        allocate_seconds: layers.allocate,
        map_seconds: layers.map,
        throughput_ptgs_per_sec: if elapsed > 0.0 {
            processed_this_run as f64 / elapsed
        } else {
            0.0
        },
    };

    if let Some(path) = &args.report {
        rec.gauge(
            "stream.throughput_ptgs_per_sec",
            result.throughput_ptgs_per_sec,
        );
        rec.gauge("stream.mean_makespan", result.mean_makespan);
        let mut report = rec.report("emts-stream");
        report.meta.insert("seed".into(), args.seed.to_string());
        report.meta.insert("count".into(), args.count.to_string());
        report.meta.insert("shards".into(), args.shards.to_string());
        report
            .meta
            .insert("completed".into(), completed.to_string());
        report
            .meta
            .insert("fingerprint".into(), result.fingerprint.clone());
        if let Err(e) = report.save(path) {
            eprintln!("cannot write report {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    let json = serde_json::to_string_pretty(&result).expect("results serialize infallibly");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    if !args.quiet {
        println!("{json}");
        if stopped_early {
            println!(
                "stopped after {processed_this_run} items ({} of {} done); \
                 rerun with the same --checkpoint to resume",
                cp.items_done(),
                args.count
            );
        }
    }
}
