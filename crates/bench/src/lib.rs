//! # bgq-bench — benchmark harness regenerating the paper's tables & figures
//!
//! One binary per table/figure (see `src/bin/`), each printing the same
//! rows/series the paper reports, plus ablation binaries for the design
//! choices of §III. Shared measurement helpers live here.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table2_attributes` | Table II — empirical time/space attribute values |
//! | `fig3_latency` | Fig 3 — contiguous get/put latency vs message size |
//! | `fig4_bandwidth` | Fig 4 — get/put bandwidth vs message size |
//! | `fig5_latency_per_byte` | Fig 5 — effective latency/byte |
//! | `fig6_efficiency` | Fig 6 — bandwidth efficiency, N½ |
//! | `fig7_rank_latency` | Fig 7 — get latency vs process rank (ABCDET) |
//! | `fig8_strided` | Fig 8 — strided bandwidth vs contiguous chunk size |
//! | `fig9_rmw` | Fig 9 — fetch-and-add latency vs process count |
//! | `fig11_nwchem_scf` | Fig 11 — NWChem SCF, D vs AT |
//! | `fig_scale` | Million-rank scaling of lazily materialized rank state |
//! | `abl_*` | §III design-choice ablations |

use armci::{Armci, ArmciConfig, ArmciRank};
use desim::{Sim, SimDuration, SimTime};
use pami_sim::{Machine, MachineConfig};

pub mod am_bench;
pub mod fault_bench;
pub mod fig9;
pub mod memscale;
pub mod perfdiff;
pub mod scale;
pub mod simbench;
pub mod simstat;
pub mod sweep;

/// The `--jobs` CLI option shared by every bench binary: parallel sweep
/// workers. Sweep points are whole independent simulations, so worker count
/// never changes results (see [`sweep::run_parallel`]).
pub const JOBS_FLAG: FlagSpec = (
    "--jobs",
    true,
    "parallel sweep workers (default: available cores)",
);

/// Sample width for `--timeline` windowed telemetry: 100 µs windows keep
/// even the large sweeps under the series cap without coarsening.
pub const TIMELINE_WINDOW_PS: u64 = 100_000_000;

/// The `--timeline` CLI option shared by the timeline-capable binaries.
pub const TIMELINE_FLAG: FlagSpec = (
    "--timeline",
    true,
    "write windowed-telemetry JSON (timeline-v1)",
);

/// Parse the `--jobs` option (default: available parallelism).
pub fn arg_jobs() -> usize {
    arg_usize("--jobs", sweep::default_jobs()).max(1)
}

/// One CLI option specification: `(name, takes_value, help)`.
pub type FlagSpec = (&'static str, bool, &'static str);

/// Render the `--help` text for a benchmark binary.
pub fn usage_text(bin: &str, about: &str, flags: &[FlagSpec]) -> String {
    let mut s = format!("{bin} — {about}\n\nusage: {bin}");
    for (name, takes, _) in flags {
        s.push_str(&format!(" [{name}{}]", if *takes { " <v>" } else { "" }));
    }
    s.push_str("\n\noptions:\n");
    for (name, takes, help) in flags {
        let lhs = format!("{name}{}", if *takes { " <v>" } else { "" });
        s.push_str(&format!("  {lhs:<18} {help}\n"));
    }
    s.push_str("  -h, --help         print this help\n");
    s
}

/// Scan an argument slice (program name excluded) against a flag table:
/// `Ok(true)` when help was requested, `Err(token)` on the first unknown
/// option. Value tokens following a value-taking flag are skipped, so
/// negative numbers and file paths never trip the check (testable core).
pub fn scan_args(args: &[String], flags: &[FlagSpec]) -> Result<bool, String> {
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--help" || a == "-h" {
            return Ok(true);
        }
        match flags.iter().find(|(n, _, _)| n == a) {
            Some((_, true, _)) => i += 1, // skip the flag's value token
            Some(_) => {}
            None if a.starts_with('-') => return Err(a.clone()),
            None => {}
        }
        i += 1;
    }
    Ok(false)
}

/// Enforce the CLI contract shared by every bench binary: `--help`/`-h`
/// prints the usage text and exits 0; an unknown option prints an error plus
/// the usage text to stderr and exits 2. The returned [`Usage`] reports
/// later input errors (e.g. [`Usage::check_range`]) the same way.
pub fn check_args(bin: &str, about: &str, flags: &[FlagSpec]) -> Usage {
    let usage = Usage {
        bin: bin.to_string(),
        text: usage_text(bin, about, flags),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    match scan_args(&args, flags) {
        Ok(false) => usage,
        Ok(true) => {
            print!("{}", usage.text);
            std::process::exit(0);
        }
        Err(tok) => usage.fail(&format!("unknown option '{tok}'")),
    }
}

/// A bench binary's name and usage text, returned by [`check_args`].
pub struct Usage {
    bin: String,
    text: String,
}

impl Usage {
    /// Print `msg` and the usage text to stderr, then exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.bin);
        eprint!("{}", self.text);
        std::process::exit(2);
    }

    /// Fail (exit 2) unless every value given for option `name` lies in
    /// `lo..=hi`, so bad input never reaches a panic or a NaN table.
    pub fn check_range(&self, name: &str, values: &[usize], lo: usize, hi: usize) {
        if let Some(v) = values.iter().find(|v| !(lo..=hi).contains(*v)) {
            let range = if hi == usize::MAX {
                format!("minimum {lo}")
            } else {
                format!("{lo}..={hi}")
            };
            self.fail(&format!("{name} {v} is out of range ({range})"));
        }
    }
}

/// A microbenchmark fixture: a simulated machine with an ARMCI runtime.
pub struct Fixture {
    /// The simulation.
    pub sim: Sim,
    /// The ARMCI runtime.
    pub armci: Armci,
}

impl Fixture {
    /// Build a fixture with `nprocs` ranks, `c` per node.
    pub fn new(nprocs: usize, c: usize, acfg: ArmciConfig) -> Fixture {
        Self::with_machine(MachineConfig::new(nprocs).procs_per_node(c), acfg)
    }

    /// Build a fixture from an explicit machine configuration.
    pub fn with_machine(mcfg: MachineConfig, acfg: ArmciConfig) -> Fixture {
        let sim = Sim::new();
        let machine = Machine::new(sim.clone(), mcfg);
        let armci = Armci::new(machine, acfg);
        Fixture { sim, armci }
    }

    /// Rank handle.
    pub fn rank(&self, r: usize) -> ArmciRank {
        self.armci.rank(r)
    }

    /// Run the simulation to completion (bounded) and tear down daemons.
    pub fn finish(&self) {
        self.sim
            .run_until(SimTime::ZERO + SimDuration::from_secs(600));
        self.armci.finalize();
        self.sim.shutdown();
    }
}

/// Measure mean blocking **get** latency from rank 0 to rank `target` for
/// `bytes`, over `reps` repetitions (caches warmed first).
pub fn get_latency(nprocs: usize, c: usize, target: usize, bytes: usize, reps: usize) -> f64 {
    let f = Fixture::new(nprocs, c, ArmciConfig::default());
    let r0 = f.rank(0);
    let rt = f.rank(target);
    let s = f.sim.clone();
    let out = std::rc::Rc::new(std::cell::Cell::new(0.0f64));
    let out2 = out.clone();
    f.sim.spawn(async move {
        let remote = rt.malloc(bytes.max(64)).await;
        let local = r0.malloc(bytes.max(64)).await;
        r0.get(target, local, remote, bytes).await; // warm caches
        let t0 = s.now();
        for _ in 0..reps {
            r0.get(target, local, remote, bytes).await;
        }
        out2.set((s.now() - t0).as_us() / reps as f64);
    });
    f.finish();
    out.get()
}

/// Measure mean blocking **put** latency (local completion) rank 0→`target`.
pub fn put_latency(nprocs: usize, c: usize, target: usize, bytes: usize, reps: usize) -> f64 {
    let f = Fixture::new(nprocs, c, ArmciConfig::default());
    let r0 = f.rank(0);
    let rt = f.rank(target);
    let s = f.sim.clone();
    let out = std::rc::Rc::new(std::cell::Cell::new(0.0f64));
    let out2 = out.clone();
    f.sim.spawn(async move {
        let remote = rt.malloc(bytes.max(64)).await;
        let local = r0.malloc(bytes.max(64)).await;
        r0.put(target, local, remote, bytes).await;
        let t0 = s.now();
        for _ in 0..reps {
            r0.put(target, local, remote, bytes).await;
        }
        out2.set((s.now() - t0).as_us() / reps as f64);
    });
    f.finish();
    out.get()
}

/// Windowed bandwidth (MB/s) with `window` outstanding operations of
/// `bytes` each, `reps` messages total. `is_get` selects get vs put.
pub fn bandwidth(nprocs: usize, bytes: usize, window: usize, reps: usize, is_get: bool) -> f64 {
    let f = Fixture::new(nprocs, 1, ArmciConfig::default());
    let r0 = f.rank(0);
    let r1 = f.rank(1);
    let s = f.sim.clone();
    let out = std::rc::Rc::new(std::cell::Cell::new(0.0f64));
    let out2 = out.clone();
    f.sim.spawn(async move {
        let remote = r1.malloc(bytes * window).await;
        let local = r0.malloc(bytes * window).await;
        // Warm endpoint + region caches.
        r0.get(1, local, remote, bytes.min(64)).await;
        let t0 = s.now();
        let mut inflight = std::collections::VecDeque::new();
        for i in 0..reps {
            if inflight.len() == window {
                let h: armci::NbHandle = inflight.pop_front().unwrap();
                r0.wait(&h).await;
            }
            let slot = (i % window) * bytes;
            let h = if is_get {
                r0.nbget(1, local + slot, remote + slot, bytes).await
            } else {
                r0.nbput(1, local + slot, remote + slot, bytes).await
            };
            inflight.push_back(h);
        }
        while let Some(h) = inflight.pop_front() {
            r0.wait(&h).await;
        }
        let elapsed = s.now() - t0;
        out2.set((bytes * reps) as f64 / elapsed.as_secs() / 1.0e6);
    });
    f.finish();
    out.get()
}

/// Standard message-size sweep used by Figs 3–6 (powers of two).
pub fn size_sweep(lo: usize, hi: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut m = lo;
    while m <= hi {
        sizes.push(m);
        m *= 2;
    }
    sizes
}

/// Parse `--key value` from an argument slice (testable core).
pub fn parse_usize(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parse `--key a,b,c` from an argument slice (testable core).
pub fn parse_list(args: &[String], name: &str, default: &[usize]) -> Vec<usize> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| default.to_vec())
}

/// Parse `--key value` style CLI options with a default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    parse_usize(&args, name, default)
}

/// Parse a `--key a,b,c` list option with a default.
pub fn arg_list(name: &str, default: &[usize]) -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    parse_list(&args, name, default)
}

/// Parse `--key value` for a string-valued option (testable core).
pub fn parse_str(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse a `--key value` string option (e.g. `--json out.json`).
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    parse_str(&args, name)
}

/// True when `--flag` is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Write a text artifact (JSON snapshot, Chrome trace) to `path`, creating
/// parent directories as needed, and report it on stdout.
pub fn write_text(path: &str, contents: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(path, contents) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// Peak resident-set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`); 0 when the platform does not expose it. Reported
/// by the bench binaries as an *ungated* context field — it varies by host
/// and allocator, so CI never compares it.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Splice an extra numeric field into the top level of a JSON document:
/// `,"key":value` is inserted immediately before the document's final `}`
/// (trailing whitespace preserved). Used to attach ungated context fields
/// like `peak_rss_kb` to snapshots whose schema is otherwise fixed —
/// `perfdiff` ignores candidate-only leaves, so goldens stay untouched.
pub fn append_json_field(doc: &str, key: &str, value: u64) -> String {
    match doc.rfind('}') {
        Some(i) => format!("{},\"{}\":{}{}", &doc[..i], key, value, &doc[i..]),
        None => doc.to_string(),
    }
}

/// Human-friendly byte-size label.
pub fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_latency_16b_adjacent_matches_fig3() {
        // 2 procs, 1/node -> adjacent nodes; 16 bytes -> 2.89 us.
        let lat = get_latency(2, 1, 1, 16, 10);
        assert!((lat - 2.89).abs() < 0.05, "{lat}");
    }

    #[test]
    fn put_latency_16b_adjacent_matches_fig3() {
        let lat = put_latency(2, 1, 1, 16, 10);
        assert!((lat - 2.70).abs() < 0.05, "{lat}");
    }

    #[test]
    fn bandwidth_reaches_peak_at_1mb() {
        let bw = bandwidth(2, 1 << 20, 2, 8, false);
        assert!(bw > 1700.0, "peak put bandwidth {bw}");
        let bw = bandwidth(2, 1 << 20, 2, 8, true);
        assert!(bw > 1700.0, "peak get bandwidth {bw}");
    }

    #[test]
    fn cli_parsing() {
        let args: Vec<String> = ["prog", "--procs", "64", "--list", "1,2,3", "--bad", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_usize(&args, "--procs", 8), 64);
        assert_eq!(parse_usize(&args, "--missing", 8), 8);
        assert_eq!(parse_usize(&args, "--bad", 8), 8); // unparsable -> default
        assert_eq!(parse_list(&args, "--list", &[9]), vec![1, 2, 3]);
        assert_eq!(parse_list(&args, "--missing", &[9]), vec![9]);
        assert_eq!(parse_str(&args, "--bad").as_deref(), Some("x"));
        assert_eq!(parse_str(&args, "--missing"), None);
        // value missing after the flag -> default
        let tail: Vec<String> = ["prog", "--procs"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse_usize(&tail, "--procs", 7), 7);
    }

    #[test]
    fn arg_scanning_accepts_known_rejects_unknown() {
        let flags: &[FlagSpec] = &[("--procs", true, "process counts"), ("--quick", false, "")];
        let ok: Vec<String> = ["--procs", "2,8", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(scan_args(&ok, flags), Ok(false));
        // A value token that looks like a flag is skipped, not rejected.
        let neg: Vec<String> = ["--procs", "-3"].iter().map(|s| s.to_string()).collect();
        assert_eq!(scan_args(&neg, flags), Ok(false));
        let help: Vec<String> = ["--quick", "-h"].iter().map(|s| s.to_string()).collect();
        assert_eq!(scan_args(&help, flags), Ok(true));
        let bad: Vec<String> = ["--procz", "2"].iter().map(|s| s.to_string()).collect();
        assert_eq!(scan_args(&bad, flags), Err("--procz".to_string()));
        let usage = usage_text("demo", "a demo", flags);
        assert!(usage.contains("usage: demo [--procs <v>] [--quick]"));
        assert!(usage.contains("--help"));
    }

    #[test]
    fn sweep_and_fmt() {
        assert_eq!(size_sweep(16, 128), vec![16, 32, 64, 128]);
        assert_eq!(fmt_size(16), "16");
        assert_eq!(fmt_size(2048), "2K");
        assert_eq!(fmt_size(1 << 20), "1M");
    }

    #[test]
    fn append_json_field_splices_before_final_brace() {
        assert_eq!(
            append_json_field("{\"a\":1}\n", "rss", 42),
            "{\"a\":1,\"rss\":42}\n"
        );
        // Nested closing braces: only the *last* one is the document end.
        assert_eq!(
            append_json_field("{\"a\":{\"b\":2}\n}\n", "rss", 7),
            "{\"a\":{\"b\":2}\n,\"rss\":7}\n"
        );
        // No brace at all: document returned unchanged.
        assert_eq!(append_json_field("[]", "rss", 1), "[]");
    }

    #[test]
    fn peak_rss_is_nonzero_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }
}
