//! `emts-ledger` — the per-layer performance ledger.
//!
//! Measures every number of `BENCH_fitness.json`, `BENCH_obs.json` and
//! `BENCH_online.json` once, in this process (see [`bench::ledger`]), and
//! writes them with the hard-case EMTS10 run report
//! `BENCH_fitness_report.json` under `<dir>`. Run it from the repository
//! root, which holds the `data/` and `crates/` it reads:
//!
//! ```text
//! emts-ledger --out <dir>
//! ```
//!
//! `--out .` rewrites the committed baselines; `emts-report regress`
//! compares a fresh directory against them.

use std::path::PathBuf;

const USAGE: &str = "usage: emts-ledger --out <dir>";

fn main() {
    let mut args = std::env::args().skip(1);
    let out = match (args.next().as_deref(), args.next(), args.next()) {
        (Some("--out"), Some(dir), None) => PathBuf::from(dir),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    match bench::ledger::write(&out) {
        Ok(paths) => {
            for path in paths {
                println!("wrote {path}");
            }
        }
        Err(msg) => {
            eprintln!("emts-ledger: cannot write under {}: {msg}", out.display());
            std::process::exit(1);
        }
    }
}
