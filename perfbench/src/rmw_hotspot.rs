//! `rmw_hotspot`: the Fig 9 hot spot. Ranks 1..p each issue `k` blocking
//! `rmw_fetch_add` calls on one counter at rank 0 (a closed loop: p − 1
//! clients, one op outstanding each), first under AT (async progress
//! thread, ρ = 2), then under D with rank 0 computing in 300 µs grains and
//! touching the counter between grains — the only point where default
//! progress runs.
//!
//! The `desim` scheduler, `pami-sim`'s progress/rmw service and lazy rank
//! materialization, and `armci`'s rmw path do the host work; messages are
//! 8-byte control packets and the GA, AM and strided paths are bypassed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use armci::{Armci, ArmciConfig, ProgressMode};
use desim::{Sim, SimDuration, SimRng, SimTime};
use pami_sim::{Machine, MachineConfig};

use crate::{maybe_timed, secs_since, spawn_rank, Checks, Digest, LayerStats, Rep, Size, Tracer};

/// Largest per-rank start stagger (ns), drawn from the seed.
pub const STAGGER_NS: u64 = 1000;

/// `(p, k)`: ranks and fetch-and-adds per client.
pub fn shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (32_768, 1),
        Size::Small => (256, 2),
    }
}

/// Intrinsic checks: the counter ends at (p − 1)·k, every client finished,
/// and the values the clients fetched are a permutation of 0..(p − 1)·k.
pub fn check(
    checks: &mut Checks,
    p: usize,
    k: usize,
    finished: usize,
    total: i64,
    fetched: &[i64],
) {
    let ops = (p - 1) * k;
    checks.check("rmw_hotspot.counter_total", total == ops as i64);
    checks.check("rmw_hotspot.clients_finished", finished == p - 1);
    let mut seen = vec![false; ops];
    let perm = fetched.len() == ops
        && fetched.iter().all(|&v| {
            usize::try_from(v)
                .ok()
                .and_then(|i| seen.get_mut(i))
                .is_some_and(|s| !std::mem::replace(s, true))
        });
    checks.check("rmw_hotspot.fetch_permutation", perm);
}

/// One repetition: AT, then D with a computing rank 0.
pub fn run(seed: u64, size: Size, tracer: &Tracer) -> Rep {
    let (p, k) = shape(size);
    let mut checks = Checks::default();
    let mut digest = Digest::default();
    let mut st = LayerStats::default();
    let (mut setup_s, mut run_s) = (0.0, 0.0);
    let configs = [
        (ProgressMode::AsyncThread, 2, false),
        (ProgressMode::Default, 1, true),
    ];
    for (ci, (mode, contexts, rank0_computes)) in configs.into_iter().enumerate() {
        let t_setup = Instant::now();
        let mut rng = SimRng::new(seed).derive(ci as u64);
        let stagger: Vec<u64> = (0..p).map(|_| rng.next_below(STAGGER_NS)).collect();

        let t = Instant::now();
        let sim = Sim::new();
        let machine = Machine::new(
            sim.clone(),
            MachineConfig::new(p).procs_per_node(16).contexts(contexts),
        );
        st.machine_new_s += secs_since(t);
        let t = Instant::now();
        let armci = Armci::new(machine.clone(), ArmciConfig::default().progress(mode));
        st.armci_new_s += secs_since(t);

        let owner = machine.rank(0);
        let counter = owner.alloc(8);
        owner.write_i64(counter, 0);
        let fetched = Rc::new(RefCell::new(Vec::with_capacity((p - 1) * k)));
        let finished = Rc::new(Cell::new(0usize));
        let task_span = tracer.span();
        let rmw_span = tracer.is_on().then(|| st.rmw.clone());
        for (r, &stagger_ns) in stagger.iter().enumerate() {
            let rk = armci.rank(r);
            let s = sim.clone();
            let fetched = Rc::clone(&fetched);
            let finished = Rc::clone(&finished);
            let rmw_span = rmw_span.clone();
            let delay = SimDuration::from_ns(stagger_ns);
            let prog = async move {
                s.sleep(delay).await;
                if r == 0 {
                    while rank0_computes && finished.get() < p - 1 {
                        s.sleep(SimDuration::from_us(300)).await;
                        maybe_timed(&rmw_span, rk.rmw_fetch_add(0, counter, 0)).await;
                    }
                } else {
                    for _ in 0..k {
                        let v = maybe_timed(&rmw_span, rk.rmw_fetch_add(0, counter, 1)).await;
                        fetched.borrow_mut().push(v);
                    }
                    finished.set(finished.get() + 1);
                }
                rk.barrier().await;
            };
            spawn_rank(&sim, &task_span, prog);
        }
        setup_s += secs_since(t_setup);

        let t_run = Instant::now();
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
        let this_run = secs_since(t_run);
        run_s += this_run;

        let total = owner.read_i64(counter);
        let fetched = fetched.borrow();
        check(&mut checks, p, k, finished.get(), total, &fetched);
        checks.check("rmw_hotspot.no_retries", armci.retry_counts() == (0, 0, 0));
        digest.u64(sim.events_processed());
        digest.u64(sim.now().as_ps());
        digest.u64(total as u64);
        for &v in fetched.iter() {
            digest.u64(v as u64);
        }
        if let Some(span) = &task_span {
            st.residual_s += this_run - span.secs();
            st.absorb_machine(&sim, &armci);
        }
        armci.finalize();
        sim.shutdown();
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
        let (p, k) = (4, 2);
        let good: Vec<i64> = vec![3, 0, 5, 1, 4, 2];
        let mut c = Checks::default();
        check(&mut c, p, k, 3, 6, &good);
        assert!(c.ok(), "{:?}", c.failed);

        let mut c = Checks::default();
        check(&mut c, p, k, 3, 7, &good);
        assert_eq!(c.failed, ["rmw_hotspot.counter_total"]);

        let mut dup = good.clone();
        dup[0] = 0;
        let mut c = Checks::default();
        check(&mut c, p, k, 3, 6, &dup);
        assert_eq!(c.failed, ["rmw_hotspot.fetch_permutation"]);

        let mut c = Checks::default();
        check(&mut c, p, k, 2, 6, &good[..5]);
        assert_eq!(
            c.failed,
            [
                "rmw_hotspot.clients_finished",
                "rmw_hotspot.fetch_permutation"
            ]
        );
    }
}
