//! `scf_fock`: the Fig 11 application. `nwchem_scf::run_scf` at p = 32
//! (16 per node) with the paper's nbf = 644 and block = 46, a reduced
//! `repeat_factor` and 2 iterations, under D and then AT.
//!
//! The inverse of `rmw_hotspot`: 46×46 f64 strided density gets beside Fock
//! accumulates move real data, plus the shared counter and 300 µs compute
//! timers. Few ranks and few events leave the scheduler and per-rank state
//! idle while the `global-arrays`/`armci` data paths do the work.
//!
//! `run_scf` builds its machine inside one public call, so set-up cannot be
//! timed from outside. `setup_s` here times a replica of that set-up built
//! through the same public calls (`Sim::new`, `Machine::new`, `Armci::new`,
//! two `Ga::create` + `fill`, `SharedCounter::create`); `run_s` times
//! `run_scf` whole, its own internal set-up included.

use std::time::Instant;

use armci::{Armci, ArmciConfig, ProgressMode};
use desim::Sim;
use global_arrays::{Ga, SharedCounter};
use nwchem_scf::{run_scf, ScfConfig, ScfReport};
use pami_sim::{Machine, MachineConfig};

use crate::{secs_since, Checks, Digest, LayerStats, Rep, Size, Tracer};

/// `(p, nbf, block, repeat_factor, iterations)`.
pub fn shape(size: Size) -> (usize, usize, usize, usize, usize) {
    match size {
        Size::Full => (32, 644, 46, 4, 2),
        Size::Small => (8, 64, 16, 2, 2),
    }
}

/// The configuration for one progress mode and workload seed.
pub fn config(size: Size, mode: ProgressMode, seed: u64) -> ScfConfig {
    let (_, nbf, block, repeat_factor, iterations) = shape(size);
    let mut cfg = ScfConfig::paper(mode);
    cfg.nbf = nbf;
    cfg.block = block;
    cfg.repeat_factor = repeat_factor;
    cfg.iterations = iterations;
    cfg.seed = seed;
    cfg
}

/// Intrinsic checks against the configuration: every iteration ran, the
/// task count is the configured one, each rank overdraws the counter
/// exactly once per iteration (rmw = iters · (tasks + p)), and the per-rank
/// task range brackets the mean.
pub fn check(checks: &mut Checks, p: usize, cfg: &ScfConfig, r: &ScfReport) {
    let ntasks = cfg.tasks_per_iter();
    checks.check("scf_fock.iterations", r.iterations == cfg.iterations);
    checks.check("scf_fock.tasks_per_iter", r.tasks_per_iter == ntasks);
    let rmw = (cfg.iterations * (ntasks + p)) as u64;
    checks.check("scf_fock.rmw_count", r.rmw_count == rmw);
    let total = cfg.iterations * ntasks;
    let bracket = r.tasks_min * p <= total && total <= r.tasks_max * p;
    checks.check("scf_fock.task_balance", bracket);
    checks.check(
        "scf_fock.total_time",
        r.total_us.is_finite() && r.total_us > 0.0,
    );
}

/// Replica of `run_scf`'s set-up, torn down again untimed; returns
/// `(setup_s, machine_new_s, armci_new_s)`.
fn setup_replica(p: usize, cfg: &ScfConfig) -> (f64, f64, f64) {
    let t_setup = Instant::now();
    let sim = Sim::new();
    let t = Instant::now();
    let machine = Machine::new(
        sim.clone(),
        MachineConfig::new(p)
            .procs_per_node(cfg.procs_per_node)
            .contexts(cfg.contexts),
    );
    let machine_new_s = secs_since(t);
    let t = Instant::now();
    let armci = Armci::new(machine, ArmciConfig::default().progress(cfg.progress));
    let armci_new_s = secs_since(t);
    let density = Ga::create(&armci, "density", cfg.nbf, cfg.nbf);
    let fock = Ga::create(&armci, "fock", cfg.nbf, cfg.nbf);
    density.fill(0.1);
    fock.fill(0.0);
    let _counter = SharedCounter::create(&armci, 0);
    let setup_s = secs_since(t_setup);
    armci.finalize();
    sim.shutdown();
    (setup_s, machine_new_s, armci_new_s)
}

/// One repetition: D, then AT.
pub fn run(seed: u64, size: Size, tracer: &Tracer) -> Rep {
    let p = shape(size).0;
    let mut checks = Checks::default();
    let mut digest = Digest::default();
    let mut st = LayerStats::default();
    let (mut setup_s, mut run_s) = (0.0, 0.0);
    for mode in [ProgressMode::Default, ProgressMode::AsyncThread] {
        let cfg = config(size, mode, seed);
        let (this_setup, machine_new_s, armci_new_s) = setup_replica(p, &cfg);
        setup_s += this_setup;
        st.machine_new_s += machine_new_s;
        st.armci_new_s += armci_new_s;

        let t_run = Instant::now();
        let report = run_scf(p, &cfg);
        run_s += secs_since(t_run);

        check(&mut checks, p, &cfg, &report);
        for v in [
            report.iterations,
            report.tasks_per_iter,
            report.tasks_min,
            report.tasks_max,
        ] {
            digest.u64(v as u64);
        }
        digest.u64(report.rmw_count);
        for v in [
            report.total_us,
            report.counter_wait_mean_us,
            report.counter_wait_max_us,
            report.get_mean_us,
            report.acc_mean_us,
            report.compute_mean_us,
            report.sync_mean_us,
        ] {
            digest.f64(v);
        }
        st.scf_tasks += (report.iterations * report.tasks_per_iter) as u64;
        st.scf_rmw_count += report.rmw_count;
    }
    let layer = if tracer.is_on() {
        st.emit(tracer)
    } else {
        Default::default()
    };
    Rep {
        setup_s,
        run_s,
        checks,
        digest,
        layer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_flags_tampered_results() {
        let (p, size) = (shape(Size::Small).0, Size::Small);
        let cfg = config(size, ProgressMode::AsyncThread, 5);
        let report = run_scf(p, &cfg);
        let mut c = Checks::default();
        check(&mut c, p, &cfg, &report);
        assert!(c.ok(), "{:?}", c.failed);

        let mut wrong = report.clone();
        wrong.rmw_count += 1;
        let mut c = Checks::default();
        check(&mut c, p, &cfg, &wrong);
        assert_eq!(c.failed, ["scf_fock.rmw_count"]);

        let mut wrong = report;
        wrong.tasks_max = 0;
        let mut c = Checks::default();
        check(&mut c, p, &cfg, &wrong);
        assert_eq!(c.failed, ["scf_fock.task_balance"]);
    }
}
