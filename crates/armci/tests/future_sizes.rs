//! Blocking operations stay cheap to park: every rank program blocked in a
//! call holds one of these futures inside its task, so each byte is paid
//! once per rank (at p = 32768, 700 B per future is about 22 MiB). Cold
//! branches (D-mode servicing inside `progress_wait`, the fault-plan retry
//! loop) are boxed out so they are paid for only when taken.

use std::mem::size_of_val;

use armci::{Armci, ArmciConfig};
use desim::{Completion, Sim};
use pami_sim::{Machine, MachineConfig};

/// Ceiling for any one blocking-call future, in bytes.
const MAX_FUTURE_BYTES: usize = 640;

fn check(name: &str, bytes: usize) {
    assert!(
        bytes <= MAX_FUTURE_BYTES,
        "{name} future is {bytes} B, over the {MAX_FUTURE_BYTES} B ceiling"
    );
}

#[test]
fn blocking_call_futures_stay_small() {
    let sim = Sim::new();
    let machine = Machine::new(sim.clone(), MachineConfig::new(4).contexts(2));
    let a = Armci::new(machine, ArmciConfig::default());
    let r = a.rank(1);
    // Futures are inert until polled: building them runs no operation.
    check("rmw_fetch_add", size_of_val(&r.rmw_fetch_add(0, 0, 1)));
    check("barrier", size_of_val(&r.barrier()));
    check("get", size_of_val(&r.get(0, 0, 0, 8)));
    check("put", size_of_val(&r.put(0, 0, 0, 8)));
    check("wait_all", size_of_val(&r.wait_all()));
    let done: Completion<i64> = Completion::new();
    check("progress_wait", size_of_val(&r.pami().progress_wait(&done)));
}
