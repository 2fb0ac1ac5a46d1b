//! Host-time benchmark of the simulated BG/Q PGAS stack.
//!
//! Each workload drives the stack from outside, through the public APIs of
//! `desim`, `torus5d`, `pami-sim`, `armci`, `global-arrays` and
//! `nwchem-scf`, and runs one repetition per process: set up, simulate,
//! check. The simulator is deterministic, so simulated outputs are checked
//! (intrinsic invariants plus a digest compared against recorded goldens by
//! `run.py`), never scored; host time and host memory are the scored
//! metrics.
//!
//! The traced variant ([`Tracer::on`]) wraps every benchmark-owned layer
//! call and rank task in a poll-timing future, times each
//! `NetState::try_deliver_op` call, and reads each layer's public counters
//! and the `memprof` tags. It must produce the same digest as the untraced
//! run.

pub mod am_scatter;
pub mod netstorm;
pub mod rmw_hotspot;
pub mod scf_fock;

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;
use std::time::{Duration, Instant};

use desim::memprof::{self, MemMark};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["rmw_hotspot", "scf_fock", "netstorm", "am_scatter"];

/// Memprof tags whose peak bytes and allocation counts the traced run
/// reports (every layer's tag; untagged allocations are left out).
pub const MEM_TAGS: [&str; 11] = [
    "desim.kernel",
    "desim.wheel",
    "torus5d.fxmap",
    "torus5d.links",
    "torus5d.routes",
    "pami.queues",
    "pami.rankmem",
    "pami.am",
    "armci.handles",
    "ga.arrays",
    "scf",
];

/// Problem size: `Full` is the benchmark; `Small` is for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Seconds-scale sizes with the same structure, for tests.
    Small,
}

/// Named correctness checks of one repetition. `fail_rate` is
/// `failed.len() / attempted`.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checks run.
    pub attempted: u32,
    /// Names of the checks that failed.
    pub failed: Vec<&'static str>,
}

impl Checks {
    /// Record one check.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed.push(name);
        }
    }

    /// True when every check so far passed.
    pub fn ok(&self) -> bool {
        self.failed.is_empty()
    }
}

/// FNV-1a digest of simulated outputs (virtual times, event counts, result
/// values). Host-independent: equal on every host for the same binary
/// inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold a 64-bit value.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold an `f64` by its bit pattern (exact, not rounded).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Accumulated host time and entry count of one traced call site.
#[derive(Clone, Default)]
pub struct Span(Rc<SpanInner>);

#[derive(Default)]
struct SpanInner {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Span {
    /// Host seconds spent inside `poll` of the wrapped futures.
    pub fn secs(&self) -> f64 {
        self.0.ns.get() as f64 * 1e-9
    }

    /// Wrapped futures started.
    pub fn calls(&self) -> u64 {
        self.0.calls.get()
    }

    fn add(&self, d: Duration) {
        self.0.ns.set(self.0.ns.get() + d.as_nanos() as u64);
    }
}

/// Await `fut`, charging the host time of each of its polls to `span`.
/// Nested spans overlap: a rank-task span includes its layer-call spans.
pub async fn timed<F: Future>(span: Span, fut: F) -> F::Output {
    span.0.calls.set(span.0.calls.get() + 1);
    let mut fut = std::pin::pin!(fut);
    std::future::poll_fn(|cx| {
        let t0 = Instant::now();
        let out = fut.as_mut().poll(cx);
        span.add(t0.elapsed());
        out
    })
    .await
}

/// Per-layer metrics: `(name, value, unit)` in emission order.
#[derive(Debug, Default, Clone)]
pub struct Layer(pub Vec<(String, f64, &'static str)>);

impl Layer {
    /// Append one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Per-layer figures of one traced repetition, summed over the workload's
/// configurations. A field stays 0 on a workload that does not cross that
/// layer boundary from the benchmark's own code (see `README.md`).
#[derive(Default)]
pub struct LayerStats {
    /// Kernel events processed.
    pub events: u64,
    /// Kernel task-table high-water mark (max over configurations).
    pub task_slots: usize,
    /// Simulate-phase host seconds not spent polling benchmark-owned rank
    /// tasks: kernel dispatch, the timer wheel, scheduled callbacks and
    /// pami/armci-internal tasks.
    pub residual_s: f64,
    /// Host ns of each `try_deliver_op` call, clock reads included.
    pub deliver_ns: Vec<u32>,
    /// Messages delivered by the network.
    pub net_messages: u64,
    /// Payload bytes delivered by the network.
    pub net_bytes: u64,
    /// Node-pair routes the route table cached.
    pub routes_cached: u64,
    /// Link ids held by the route arena.
    pub route_arena_len: u64,
    /// Host seconds in `NetState::new`.
    pub torus_new_s: f64,
    /// PAMI read-modify-write operations.
    pub pami_rmw: u64,
    /// Work items serviced by async progress threads.
    pub at_serviced: u64,
    /// Endpoints created.
    pub endpoints_created: u64,
    /// Sum and count of the ops-serviced-per-advance histogram.
    pub advance_sum: u128,
    /// See `advance_sum`.
    pub advance_count: u64,
    /// Ranks whose state materialized.
    pub materialized: u64,
    /// Host seconds in `Machine::new`.
    pub machine_new_s: f64,
    /// Active messages handed to the AM layer.
    pub am_sent: u64,
    /// Wire messages those AMs became.
    pub am_wire_msgs: u64,
    /// Flushes that carried more than one AM.
    pub am_batches: u64,
    /// `ArmciRank::rmw_fetch_add` calls.
    pub rmw: Span,
    /// `ArmciRank::acc_am` calls.
    pub acc_am: Span,
    /// `ArmciRank::am_fence` calls.
    pub am_fence: Span,
    /// Host seconds in `Armci::new`.
    pub armci_new_s: f64,
    /// PAMI retries (0 on a fault-free run).
    pub retries: u64,
    /// SCF tasks executed.
    pub scf_tasks: u64,
    /// Counter fetch-and-adds the SCF runs issued.
    pub scf_rmw_count: u64,
}

impl LayerStats {
    /// Fold the end-of-run counters of one simulated machine.
    pub fn absorb_machine(&mut self, sim: &desim::Sim, armci: &armci::Armci) {
        let m = armci.machine();
        let st = m.stats();
        self.events += sim.events_processed();
        self.task_slots = self.task_slots.max(sim.task_slots());
        self.net_messages += m.net_messages();
        self.net_bytes += m.net_bytes();
        self.pami_rmw += st.counter("pami.rmw");
        self.at_serviced += st.counter("pami.at_serviced");
        self.endpoints_created += st.counter("pami.endpoints_created");
        let adv = st.hist("pami.advance_batch");
        self.advance_sum += adv.sum();
        self.advance_count += adv.count();
        self.materialized += m.materialized_count() as u64;
        self.am_sent += st.counter("am.sent");
        self.am_wire_msgs += st.counter("am.wire_msgs");
        self.am_batches += st.counter("am.batches");
        self.retries += armci.retry_counts().0;
    }

    /// Every per-layer metric, in a fixed order, followed by the memprof
    /// tag rows.
    pub fn emit(&self, tracer: &Tracer) -> Layer {
        let mut l = Layer::default();
        let ratio = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
        l.put("desim.events", self.events as f64, "count");
        l.put("desim.task_slots", self.task_slots as f64, "count");
        l.put("desim.residual_s", self.residual_s, "s");
        let mut ns = self.deliver_ns.clone();
        ns.sort_unstable();
        l.put("torus5d.deliver_ns.p50", quantile(&ns, 0.50), "ns");
        l.put("torus5d.deliver_ns.p99", quantile(&ns, 0.99), "ns");
        l.put("torus5d.deliver_ns.samples", ns.len() as f64, "count");
        let deliver_s = ns.iter().map(|&v| u64::from(v)).sum::<u64>() as f64 * 1e-9;
        l.put("torus5d.deliver_s", deliver_s, "s");
        l.put("torus5d.messages", self.net_messages as f64, "count");
        l.put("torus5d.bytes", self.net_bytes as f64, "B");
        l.put("torus5d.routes_cached", self.routes_cached as f64, "count");
        l.put(
            "torus5d.route_arena_len",
            self.route_arena_len as f64,
            "count",
        );
        l.put("torus5d.new_s", self.torus_new_s, "s");
        l.put("pami.rmw", self.pami_rmw as f64, "count");
        l.put("pami.at_serviced", self.at_serviced as f64, "count");
        l.put(
            "pami.endpoints_created",
            self.endpoints_created as f64,
            "count",
        );
        let adv_mean = ratio(self.advance_sum as f64, self.advance_count);
        l.put("pami.advance_batch.mean", adv_mean, "ops/advance");
        l.put("pami.materialized", self.materialized as f64, "count");
        l.put("pami.machine_new_s", self.machine_new_s, "s");
        l.put("pami.am.sent", self.am_sent as f64, "count");
        l.put("pami.am.wire_msgs", self.am_wire_msgs as f64, "count");
        l.put("pami.am.batches", self.am_batches as f64, "count");
        let avg_batch = ratio(self.am_sent as f64, self.am_wire_msgs);
        l.put("pami.am.avg_batch", avg_batch, "AMs/msg");
        for (op, span) in [
            ("rmw_fetch_add", &self.rmw),
            ("acc_am", &self.acc_am),
            ("am_fence", &self.am_fence),
        ] {
            l.put(&format!("armci.{op}.poll_s"), span.secs(), "s");
            l.put(&format!("armci.{op}.calls"), span.calls() as f64, "count");
        }
        l.put("armci.new_s", self.armci_new_s, "s");
        l.put("armci.retries", self.retries as f64, "count");
        l.put("scf.tasks", self.scf_tasks as f64, "count");
        l.put("scf.rmw_count", self.scf_rmw_count as f64, "count");
        tracer.mem_metrics(&mut l);
        l
    }
}

/// Nearest-rank quantile of sorted samples (0 when empty).
fn quantile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    f64::from(sorted[i])
}

/// Tracing switch of one repetition. Off: no wrappers, no clocks beyond the
/// phase timers, `memprof` stays disabled.
pub struct Tracer {
    mark: Option<MemMark>,
}

impl Tracer {
    /// Untraced.
    pub fn off() -> Tracer {
        Tracer { mark: None }
    }

    /// Traced: enables `memprof` (the calling binary must have installed
    /// [`desim::MemProf`] as its global allocator) and marks the baseline.
    pub fn on() -> Tracer {
        memprof::enable();
        Tracer {
            mark: Some(memprof::mark()),
        }
    }

    /// Whether per-layer instrumentation is on.
    pub fn is_on(&self) -> bool {
        self.mark.is_some()
    }

    /// A fresh span when tracing, `None` otherwise.
    pub fn span(&self) -> Option<Span> {
        self.is_on().then(Span::default)
    }

    /// Append the memprof tag rows (peak above the mark, allocations).
    pub fn mem_metrics(&self, layer: &mut Layer) {
        let Some(m) = &self.mark else { return };
        let snap = memprof::since(m);
        for tag in MEM_TAGS {
            let (peak, allocs) = snap
                .get(tag)
                .map_or((0, 0), |t| (t.peak_bytes.max(0) as u64, t.allocs));
            layer.put(&format!("mem.{tag}.peak_bytes"), peak as f64, "B");
            layer.put(&format!("mem.{tag}.allocs"), allocs as f64, "count");
        }
    }
}

/// `fut` wrapped in a poll-timing span when `span` is set.
pub async fn maybe_timed<F: Future>(span: &Option<Span>, fut: F) -> F::Output {
    match span {
        Some(s) => timed(s.clone(), fut).await,
        None => fut.await,
    }
}

/// Spawn a rank program, wrapped in `span` when tracing.
pub fn spawn_rank<F: Future<Output = ()> + 'static>(
    sim: &desim::Sim,
    span: &Option<Span>,
    prog: F,
) {
    match span {
        Some(span) => drop(sim.spawn(timed(span.clone(), prog))),
        None => drop(sim.spawn(prog)),
    }
}

/// Outcome of one repetition of a workload.
pub struct Rep {
    /// Host seconds from the first input byte to the first simulated event.
    pub setup_s: f64,
    /// Host seconds of the simulate phase.
    pub run_s: f64,
    /// Correctness checks.
    pub checks: Checks,
    /// Digest of the simulated outputs.
    pub digest: Digest,
    /// Per-layer metrics (empty when untraced).
    pub layer: Layer,
}

/// Run one repetition of workload `name`.
pub fn run(name: &str, seed: u64, size: Size, tracer: &Tracer) -> Option<Rep> {
    Some(match name {
        "rmw_hotspot" => rmw_hotspot::run(seed, size, tracer),
        "scf_fock" => scf_fock::run(seed, size, tracer),
        "netstorm" => netstorm::run(seed, size, tracer),
        "am_scatter" => am_scatter::run(seed, size, tracer),
        _ => return None,
    })
}

/// Host seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// This process's peak resident set (`VmHWM`) in kB, 0 where `/proc` is
/// unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The repetition as one JSON line (the format `run.py` reads).
/// `calib_s` is the mean [`calibrate`] time around the repetition.
pub fn rep_json(name: &str, seed: u64, traced: bool, calib_s: f64, rep: &Rep) -> String {
    let failed: Vec<String> = rep
        .checks
        .failed
        .iter()
        .map(|n| format!("\"{n}\""))
        .collect();
    let layer: Vec<String> = rep
        .layer
        .0
        .iter()
        .map(|(k, v, u)| format!("\"{k}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect();
    format!(
        "{{\"workload\":\"{name}\",\"seed\":{seed},\"traced\":{traced},\"setup_s\":{},\
         \"run_s\":{},\"calib_s\":{},\"peak_rss_kb\":{},\"attempted\":{},\"failed\":[{}],\
         \"digest\":\"{}\",\"layer\":{{{}}}}}",
        json_num(rep.setup_s),
        json_num(rep.run_s),
        json_num(calib_s),
        peak_rss_kb(),
        rep.checks.attempted,
        failed.join(","),
        rep.digest.hex(),
        layer.join(",")
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Shared `main` of both binaries: `<bin> <workload> <seed> [small]`.
/// Exit codes: 0 ran (checks may still have failed; see the JSON), 2 usage.
pub fn main_with(traced: bool) -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || {
        eprintln!("usage: perfbench <workload> <seed> [small]; workloads: {WORKLOADS:?}");
        std::process::ExitCode::from(2)
    };
    let (Some(name), Some(seed)) = (args.first(), args.get(1).and_then(|s| s.parse().ok())) else {
        return usage();
    };
    let size = match args.get(2).map(String::as_str) {
        None => Size::Full,
        Some("small") => Size::Small,
        Some(_) => return usage(),
    };
    let tracer = if traced { Tracer::on() } else { Tracer::off() };
    let before = calibrate();
    let Some(rep) = run(name, seed, size, &tracer) else {
        return usage();
    };
    let calib_s = (before + calibrate()) / 2.0;
    println!("{}", rep_json(name, seed, traced, calib_s, &rep));
    std::process::ExitCode::SUCCESS
}

/// Host seconds of a fixed reference kernel that uses none of the
/// repository's code: a small discrete-event loop over a binary heap, a hash
/// map and short-lived boxed payloads, the kinds of work the simulator does,
/// run once with state that fits the private caches and once with state
/// that spills them. Its time tracks how fast the shared host runs at the
/// moment, so `run.py` can take that drift out of the workload's times.
pub fn calibrate() -> f64 {
    event_loop(1 << 12) + event_loop(1 << 18)
}

/// 200 000 events of the reference kernel over `keys` hash-map keys.
fn event_loop(keys: u64) -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut state: HashMap<u64, u64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    for id in 0..4096u64 {
        heap.push(Reverse((next() % 1000, id)));
    }
    let mut acc = 0u64;
    for _ in 0..200_000 {
        let Reverse((t, id)) = heap.pop().expect("the heap never empties");
        let key = next() % keys;
        let payload = std::hint::black_box(Box::new([t, id, key, acc]));
        let e = state.entry(key).or_insert(0);
        *e = e.wrapping_add(payload[0] ^ payload[3]);
        acc = acc.wrapping_add(*e);
        heap.push(Reverse((t + 1 + next() % 1000, id)));
    }
    std::hint::black_box(acc);
    secs_since(t0)
}
