//! `netstorm`: a seeded all-to-all storm sent straight through
//! `torus5d::NetState::try_deliver_op` with contention on, at p = 65536
//! (4096 nodes). Payloads of 16 B–32 KB in a mix of Ordered, Unordered and
//! Control classes, injections staggered by up to 200 ns. An open loop in
//! virtual time: injection times come from the schedule, never from
//! arrivals.
//!
//! `torus5d` routing, link reservation and pair ordering do all of the
//! work, with no kernel; at 4096 nodes the sparse per-pair/per-link state
//! outgrows the caches.

use std::collections::HashMap;
use std::time::Instant;

use desim::{SimDuration, SimRng, SimTime};
use torus5d::{BgqParams, Delivery, MsgClass, NetState, Topology};

use crate::{secs_since, Checks, Digest, LayerStats, Rep, Size, Tracer};

/// `(p, messages)`.
pub fn shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (65_536, 400_000),
        Size::Small => (4_096, 20_000),
    }
}

/// One scheduled message.
#[derive(Debug, Clone, Copy)]
pub struct Msg {
    /// Injection time.
    pub inject: SimTime,
    /// Source rank.
    pub src: u32,
    /// Destination rank (never `src`).
    pub dst: u32,
    /// Payload bytes.
    pub payload: u32,
    /// Ordering class.
    pub class: MsgClass,
}

/// The seeded schedule: uniform random pairs, power-of-two payloads of
/// 16 B–32 KB, one Unordered and two Control per eight messages, the rest
/// Ordered, injections 0–199 ns apart.
pub fn schedule(seed: u64, procs: usize, msgs: usize) -> Vec<Msg> {
    let mut rng = SimRng::new(seed);
    let mut inject = SimTime::ZERO;
    (0..msgs)
        .map(|i| {
            let src = rng.next_below(procs as u64) as u32;
            let mut dst = rng.next_below(procs as u64) as u32;
            if dst == src {
                dst = (dst + 1) % procs as u32;
            }
            let payload = 1u32 << (4 + rng.next_below(12));
            let class = match i % 8 {
                0 => MsgClass::Unordered,
                1 | 2 => MsgClass::Control,
                _ => MsgClass::Ordered,
            };
            inject += SimDuration::from_ns(rng.next_below(200));
            Msg {
                inject,
                src,
                dst,
                payload,
                class,
            }
        })
        .collect()
}

/// The storm's machine: 16 ranks per node, contention on.
pub fn net(procs: usize) -> NetState {
    NetState::new(Topology::for_procs(procs, 16), BgqParams::default(), true)
}

/// Intrinsic checks: every scheduled message was delivered, no arrival
/// beats inject + the analytic (contention-free) time, and Ordered arrivals
/// never decrease per (src, dst) pair. `arrivals[i]` is message `i`'s
/// arrival in ps, or `None` if it was dropped.
pub fn check(checks: &mut Checks, net: &NetState, sched: &[Msg], arrivals: &[Option<u64>]) {
    let delivered = arrivals.iter().filter(|a| a.is_some()).count();
    checks.check(
        "netstorm.delivered_eq_scheduled",
        delivered == sched.len() && net.messages() == sched.len() as u64,
    );
    let causal = sched.iter().zip(arrivals).all(|(m, a)| {
        let floor = m.inject + net.analytic(m.src as usize, m.dst as usize, m.payload as usize);
        a.is_none_or(|a| a >= floor.as_ps())
    });
    checks.check("netstorm.no_arrival_before_analytic", causal);
    let mut front: HashMap<(u32, u32), u64> = HashMap::new();
    let ordered = sched.iter().zip(arrivals).all(|(m, a)| match (m.class, a) {
        (MsgClass::Ordered, Some(a)) => {
            let f = front.entry((m.src, m.dst)).or_insert(0);
            let ok = *a >= *f;
            *f = *a;
            ok
        }
        _ => true,
    });
    checks.check("netstorm.ordered_pairs_monotone", ordered);
}

/// One repetition.
pub fn run(seed: u64, size: Size, tracer: &Tracer) -> Rep {
    let (p, msgs) = shape(size);
    let mut st = LayerStats::default();
    let t_setup = Instant::now();
    let sched = schedule(seed, p, msgs);
    let mut arrivals: Vec<Option<u64>> = Vec::with_capacity(msgs);
    let t = Instant::now();
    let mut net = net(p);
    st.torus_new_s = secs_since(t);
    let setup_s = secs_since(t_setup);

    let t_run = Instant::now();
    if tracer.is_on() {
        st.deliver_ns.reserve_exact(msgs);
        for m in &sched {
            let t = Instant::now();
            let a = deliver(&mut net, m);
            st.deliver_ns
                .push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
            arrivals.push(a);
        }
    } else {
        for m in &sched {
            arrivals.push(deliver(&mut net, m));
        }
    }
    let run_s = secs_since(t_run);

    let mut checks = Checks::default();
    check(&mut checks, &net, &sched, &arrivals);
    let mut digest = Digest::default();
    digest.u64(net.messages());
    digest.u64(net.bytes());
    digest.u64(arrivals.iter().flatten().max().copied().unwrap_or(0));
    for a in &arrivals {
        digest.u64(a.unwrap_or(u64::MAX));
    }
    let layer = if tracer.is_on() {
        st.net_messages = net.messages();
        st.net_bytes = net.bytes();
        st.routes_cached = net.route_table().routes_cached();
        st.route_arena_len = net.route_table().arena_len() as u64;
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

/// Send `m`; its arrival in ps, or `None` if the network dropped it.
fn deliver(net: &mut NetState, m: &Msg) -> Option<u64> {
    let (src, dst, len) = (m.src as usize, m.dst as usize, m.payload as usize);
    match net.try_deliver_op(m.inject, src, dst, len, m.class, None) {
        Delivery::Delivered(at) => Some(at.as_ps()),
        Delivery::Dropped { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_flags_tampered_results() {
        let sched = schedule(7, 512, 4_000);
        let mut n = net(512);
        let arrivals: Vec<_> = sched.iter().map(|m| deliver(&mut n, m)).collect();
        let mut c = Checks::default();
        check(&mut c, &n, &sched, &arrivals);
        assert!(c.ok(), "{:?}", c.failed);

        // Swap the arrivals of two Ordered messages of one pair.
        let mut seen: HashMap<(u32, u32), usize> = HashMap::new();
        let (i, j) = sched
            .iter()
            .enumerate()
            .filter(|(_, m)| m.class == MsgClass::Ordered)
            .find_map(|(j, m)| {
                let i = *seen.entry((m.src, m.dst)).or_insert(j);
                (i != j && arrivals[i] < arrivals[j]).then_some((i, j))
            })
            .expect("some pair carries two Ordered messages");
        let mut swapped = arrivals.clone();
        swapped.swap(i, j);
        let mut c = Checks::default();
        check(&mut c, &n, &sched, &swapped);
        assert!(
            c.failed.contains(&"netstorm.ordered_pairs_monotone"),
            "{:?}",
            c.failed
        );

        let mut early = arrivals.clone();
        early[0] = Some(sched[0].inject.as_ps());
        let mut c = Checks::default();
        check(&mut c, &n, &sched, &early);
        assert!(c.failed.contains(&"netstorm.no_arrival_before_analytic"));

        let mut lost = arrivals;
        lost[1] = None;
        let mut c = Checks::default();
        check(&mut c, &n, &sched, &lost);
        assert!(c.failed.contains(&"netstorm.delivered_eq_scheduled"));
    }
}
