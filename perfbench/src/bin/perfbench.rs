//! One untraced repetition of a workload on the system allocator:
//! `perfbench <workload> <seed> [small]` prints one JSON line.

fn main() -> std::process::ExitCode {
    perfbench::main_with(false)
}
