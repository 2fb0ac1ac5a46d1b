//! Bad command-line input gets a usage error (stderr, exit 2), never a
//! panic backtrace or a table of NaNs.

use std::process::Command;

#[test]
fn bad_input_exits_2_without_panicking() {
    let fig9 = env!("CARGO_BIN_EXE_fig9_rmw");
    let fault = env!("CARGO_BIN_EXE_fig_fault");
    let scale = env!("CARGO_BIN_EXE_fig_scale");
    let fig7 = env!("CARGO_BIN_EXE_fig7_rank_latency");
    let fig11 = env!("CARGO_BIN_EXE_fig11_nwchem_scf");
    let mem = env!("CARGO_BIN_EXE_fig_mem");
    let am = env!("CARGO_BIN_EXE_fig_am");
    let cases: [(&str, &[&str], &str); 9] = [
        (fig9, &["--procs", "0"], "out of range"),
        (scale, &["--procs", "0"], "out of range"),
        (fig7, &["--procs", "0"], "out of range"),
        (fig11, &["--procs", "0"], "out of range"),
        (mem, &["--procs", "0"], "out of range"),
        // fig_am's fan-out stride needs more than 16 ranks.
        (am, &["--procs", "16"], "out of range"),
        (fig9, &["--ops", "0", "--procs", "2"], "out of range"),
        (fault, &["--fault-rate", "2000000"], "out of range"),
        // `--workers` is not an option of any bench binary.
        (fig9, &["--workers", "4"], "unknown option"),
    ];
    for (bin, args, expect) in cases {
        let out = Command::new(bin).args(args).output().expect("spawn bench");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}\n{stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}\n{stderr}");
        assert!(stderr.contains(expect), "{bin} {args:?}\n{stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed a table");
    }
}
