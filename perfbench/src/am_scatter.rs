//! `am_scatter`: active-message accumulates. p = 512 ranks at one per node
//! each fire M 8-byte `ArmciRank::acc_am` calls round-robin over 4
//! cross-node destinations, then `am_fence` each destination, with AM
//! batching on (4 KiB threshold, 1 µs window).
//!
//! The only workload through `pami-sim`'s AM dispatch table and
//! per-destination batcher: write-only, small messages. Every other
//! workload bypasses that layer.

use std::rc::Rc;
use std::time::Instant;

use armci::{Armci, ArmciConfig};
use desim::{Sim, SimDuration, SimRng};
use pami_sim::{Machine, MachineConfig};

use crate::{maybe_timed, secs_since, spawn_rank, Checks, Digest, LayerStats, Rep, Size, Tracer};

/// Destinations each rank round-robins over.
pub const FANOUT: usize = 4;

/// Largest per-rank start stagger (ns), drawn from the seed.
pub const STAGGER_NS: u64 = 1000;

/// `(p, acc_am calls per rank)`.
pub fn shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (512, 256),
        Size::Small => (64, 16),
    }
}

/// The `k`-th destination of rank `r`: 16, 32, 48 and 64 ranks (and nodes)
/// away.
pub fn target(r: usize, k: usize, p: usize) -> usize {
    (r + 16 * (1 + k % FANOUT)) % p
}

/// The seeded inputs: each rank's start stagger and the value (a small
/// integer, so every sum is exact in f64) of each of its accumulates.
pub struct Inputs {
    /// Per-rank start stagger (ns).
    pub stagger: Vec<u64>,
    /// `vals[r][k]`: the value rank `r` adds with its `k`-th call.
    pub vals: Vec<Vec<f64>>,
}

impl Inputs {
    /// Generate the inputs for `p` ranks × `m` calls.
    pub fn new(seed: u64, p: usize, m: usize) -> Inputs {
        let mut rng = SimRng::new(seed);
        let stagger = (0..p).map(|_| rng.next_below(STAGGER_NS)).collect();
        let vals = (0..p)
            .map(|_| (0..m).map(|_| (1 + rng.next_below(8)) as f64).collect())
            .collect();
        Inputs { stagger, vals }
    }

    /// What each rank's buffer must hold once every fence returned.
    pub fn expected(&self) -> Vec<f64> {
        let p = self.vals.len();
        let mut sums = vec![0.0; p];
        for (r, vals) in self.vals.iter().enumerate() {
            for (k, v) in vals.iter().enumerate() {
                sums[target(r, k, p)] += v;
            }
        }
        sums
    }
}

/// Intrinsic check: each target buffer equals the sum sent to it.
pub fn check(checks: &mut Checks, expected: &[f64], got: &[f64]) {
    checks.check("am_scatter.buffer_sums", expected == got);
}

/// One repetition.
pub fn run(seed: u64, size: Size, tracer: &Tracer) -> Rep {
    let (p, m) = shape(size);
    let mut st = LayerStats::default();
    let t_setup = Instant::now();
    let inputs = Inputs::new(seed, p, m);
    let t = Instant::now();
    let sim = Sim::new();
    let machine = Machine::new(
        sim.clone(),
        MachineConfig::new(p)
            .procs_per_node(1)
            .contexts(2)
            .contention(true)
            .am_batching(4096, SimDuration::from_us(1)),
    );
    st.machine_new_s = secs_since(t);
    let t = Instant::now();
    let armci = Armci::new(machine.clone(), ArmciConfig::default());
    st.armci_new_s = secs_since(t);
    let bufs: Rc<Vec<usize>> = Rc::new((0..p).map(|r| machine.rank(r).alloc(8)).collect());
    let task_span = tracer.span();
    let acc_span = tracer.is_on().then(|| st.acc_am.clone());
    let fence_span = tracer.is_on().then(|| st.am_fence.clone());
    for (r, vals) in inputs.vals.iter().enumerate() {
        let rk = armci.rank(r);
        let s = sim.clone();
        let bufs = Rc::clone(&bufs);
        let vals = vals.clone();
        let (acc_span, fence_span) = (acc_span.clone(), fence_span.clone());
        let delay = SimDuration::from_ns(inputs.stagger[r]);
        let prog = async move {
            s.sleep(delay).await;
            for (k, v) in vals.iter().enumerate() {
                let t = target(r, k, p);
                maybe_timed(
                    &acc_span,
                    rk.acc_am(t, bufs[t], std::slice::from_ref(v), 1.0),
                )
                .await;
            }
            let mut touched: Vec<usize> = (0..FANOUT.min(vals.len()))
                .map(|k| target(r, k, p))
                .collect();
            touched.sort_unstable();
            for t in touched {
                maybe_timed(&fence_span, rk.am_fence(t)).await;
            }
        };
        spawn_rank(&sim, &task_span, prog);
    }
    let setup_s = secs_since(t_setup);

    let t_run = Instant::now();
    let end = sim.run();
    let run_s = secs_since(t_run);

    let got: Vec<f64> = (0..p)
        .map(|r| machine.rank(r).read_f64s(bufs[r], 1)[0])
        .collect();
    let mut checks = Checks::default();
    check(&mut checks, &inputs.expected(), &got);
    checks.check("am_scatter.no_retries", armci.retry_counts() == (0, 0, 0));
    let stats = machine.stats();
    let mut digest = Digest::default();
    digest.u64(sim.events_processed());
    digest.u64(end.as_ps());
    for key in ["am.sent", "am.wire_msgs", "am.batches"] {
        digest.u64(stats.counter(key));
    }
    for v in &got {
        digest.f64(*v);
    }
    let layer = if let Some(span) = &task_span {
        st.residual_s = run_s - span.secs();
        st.absorb_machine(&sim, &armci);
        st.emit(tracer)
    } else {
        Default::default()
    };
    armci.finalize();
    sim.shutdown();
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
    fn check_flags_a_wrong_sum() {
        let inputs = Inputs::new(3, 64, 8);
        let expected = inputs.expected();
        let mut c = Checks::default();
        check(&mut c, &expected, &expected.clone());
        assert!(c.ok());
        let mut got = expected.clone();
        got[17] += 1.0;
        let mut c = Checks::default();
        check(&mut c, &expected, &got);
        assert_eq!(c.failed, ["am_scatter.buffer_sums"]);
    }
}
