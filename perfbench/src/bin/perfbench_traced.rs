//! One traced repetition of a workload: `perfbench_traced <workload> <seed>
//! [small]` prints one JSON line with the per-layer metrics. Installs the
//! `memprof` allocator, which only this binary pays for.

#[global_allocator]
static ALLOC: desim::MemProf = desim::MemProf;

fn main() -> std::process::ExitCode {
    perfbench::main_with(true)
}
