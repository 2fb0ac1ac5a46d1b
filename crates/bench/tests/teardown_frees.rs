//! A finished simulation frees everything it built: once a benchmark entry
//! point returns (and its result is dropped), no memprof tag holds live
//! bytes. A reference cycle anywhere between the machine, its ranks, their
//! dispatch tables and the kernel shows up here as bytes left behind.

use armci::ProgressMode;
use bgq_bench::am_bench::run_cell;
use bgq_bench::{fault_bench, fig9};
use desim::memprof::{self, MemProf};
use nwchem_scf::{run_scf, ScfConfig};

#[global_allocator]
static ALLOC: MemProf = MemProf;

/// Run `f`, drop its result, and assert that every tag is back where it was.
fn assert_frees_all<T>(what: &str, f: impl FnOnce() -> T) {
    let m = memprof::mark();
    drop(f());
    let leaked: Vec<String> = memprof::since(&m)
        .tags
        .iter()
        .filter(|t| t.live_bytes != 0)
        .map(|t| format!("{} {} B", t.name, t.live_bytes))
        .collect();
    assert!(leaked.is_empty(), "{what} left live bytes: {leaked:?}");
}

// `mark`/`since` count per thread, so these tests may run concurrently.

#[test]
fn fig9_async_thread_run_frees_everything() {
    memprof::enable();
    assert_frees_all("fig9 AT p=64", || {
        fig9::run(
            64,
            ProgressMode::AsyncThread,
            false,
            2,
            None,
            false,
            None,
            None,
        )
    });
}

#[test]
fn fig9_default_mode_computing_run_frees_everything() {
    memprof::enable();
    assert_frees_all("fig9 D + rank 0 computing p=64", || {
        fig9::run(64, ProgressMode::Default, true, 2, None, false, None, None)
    });
}

#[test]
fn am_bench_batched_cell_frees_everything() {
    memprof::enable();
    assert_frees_all("am_bench batched cell", || run_cell(32, 8, 16, 1, 1));
}

#[test]
fn scf_run_frees_everything() {
    memprof::enable();
    assert_frees_all("tiny SCF p=8", || {
        run_scf(8, &ScfConfig::tiny(ProgressMode::AsyncThread))
    });
}

#[test]
fn faulty_put_stream_frees_everything() {
    memprof::enable();
    assert_frees_all("fig_fault cell at 5000 ppm", || {
        let cell = fault_bench::run_cell(32, 4096, 8, 5000, 42);
        assert!(
            cell.retries > 0,
            "the fault plan must exercise the retry loop"
        );
        cell
    });
}
