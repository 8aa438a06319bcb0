//! End-to-end self-healing: an EMTS run whose workers misbehave must
//! neither hang nor abort, and must produce the exact result of a healthy
//! (serial) run — the pool's recovery machinery re-evaluates everything a
//! worker failed to deliver.
//!
//! The sabotage hooks are process-global, so every test here serializes on
//! one mutex — before any pool exists, so no other test's workers can take
//! an armed failure — and disarms on exit.

use emts::parallel::sabotage;
use emts::{Emts, EmtsConfig};
use exec_model::{SyntheticModel, TimeMatrix};
use obs::StatsRecorder;
use ptg::Ptg;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Mutex, MutexGuard, PoisonError};
use workloads::{fft::fft_ptg, CostConfig};

fn setup() -> (Ptg, TimeMatrix) {
    let g = fft_ptg(
        8,
        &CostConfig::default(),
        &mut ChaCha8Rng::seed_from_u64(21),
    );
    let m = TimeMatrix::compute(&g, &SyntheticModel::default(), 4.3e9, 20);
    (g, m)
}

/// Serializes the sabotage tests and silences the expected panic spew
/// (every injected failure would otherwise print a backtrace).
fn sabotage_session() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info.payload().downcast_ref::<&str>().copied();
            if msg.is_some_and(|m| m.starts_with("sabotage:")) {
                return;
            }
            default(info);
        }));
    });
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn worker_panics_mid_run_leave_the_ea_result_intact() {
    let _session = sabotage_session();
    let (g, m) = setup();
    let emts = Emts::new(EmtsConfig::emts5());
    let serial = emts.run(&g, &m, 7);

    // Every worker evaluation panics for the whole run, and the caller
    // stays out of the drains, so the workers claim every dispatched item.
    // The run must still finish (no hang, no abort) with the serial path's
    // exact result.
    sabotage::arm_caller_abstains();
    sabotage::arm_eval_panics(u64::MAX);
    let rec = StatsRecorder::new();
    let faulty = emts.run_with_workers(&g, &m, 7, 2, &rec);
    sabotage::disarm();
    let report = rec.report("self-healing");

    assert_eq!(faulty.best, serial.best);
    assert_eq!(
        faulty.best_makespan.to_bits(),
        serial.best_makespan.to_bits(),
        "sabotaged run diverged from the serial path"
    );
    assert_eq!(faulty.generations_run, serial.generations_run);
    assert!(faulty.trace.worker_panics > 0);
    assert_eq!(
        faulty.trace.worker_panics, faulty.trace.serial_fallbacks,
        "every panicked item must be refilled exactly once"
    );
    // The counters surface in the observability report too.
    assert!(report.counters["pool.worker_panics"] > 0);
    assert!(report.counters["pool.serial_fallbacks"] > 0);
}

#[test]
fn worker_death_mid_run_stalls_heals_and_preserves_the_result() {
    let _session = sabotage_session();
    let (g, m) = setup();
    let emts = Emts::new(EmtsConfig::emts5());
    let serial = emts.run(&g, &m, 11);

    // The first claim kills its worker; with the caller out of the drain
    // that claim is always a worker's.
    sabotage::arm_caller_abstains();
    sabotage::arm_worker_deaths(1);
    let healed = emts.run_with_workers(&g, &m, 11, 2, &StatsRecorder::new());
    sabotage::disarm();

    assert_eq!(healed.best, serial.best);
    assert_eq!(
        healed.best_makespan.to_bits(),
        serial.best_makespan.to_bits(),
        "run with a mid-run worker death diverged from the serial path"
    );
    assert_eq!(healed.trace.pool_respawns, 1);
    assert!(
        healed.trace.serial_fallbacks >= 1,
        "the orphaned claim must be refilled by the caller"
    );
}

#[test]
fn forced_worker_counts_are_bit_identical_to_serial() {
    let _session = sabotage_session(); // results are sabotage-sensitive
    let (g, m) = setup();
    let emts = Emts::new(EmtsConfig::emts5());
    let serial = emts.run(&g, &m, 3);
    for workers in [1, 2, 4] {
        let r = emts.run_with_workers(&g, &m, 3, workers, &obs::NoopRecorder);
        assert_eq!(r.best, serial.best, "workers={workers}");
        assert_eq!(
            r.best_makespan.to_bits(),
            serial.best_makespan.to_bits(),
            "workers={workers}"
        );
        assert_eq!(r.trace.worker_panics, 0);
        assert_eq!(r.trace.pool_respawns, 0);
    }
}
