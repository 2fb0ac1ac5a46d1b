#!/usr/bin/env python3
"""Run one workload of the host-time benchmark and print its metrics.

    python3 perfbench/run.py --workload rmw_hotspot --seed 1 --seconds 30 --trace 0

Builds the `perfbench` package (release, offline), then runs repetitions of
the workload for `--seconds`, one fresh process per repetition so each
`peak_rss_mb` sample is that workload's own high-water mark. Every
repetition's simulated outputs are checked: the program's intrinsic
invariants, determinism across repetitions, and the digest recorded in
`digests.json` for the seed when one is recorded.

`--trace 0` reports the end-to-end metrics (medians over repetitions), host
times scaled by the run's reference-kernel time (`host_scale`).
`--trace 1` alternates untraced repetitions with traced ones (the
`perfbench_traced` binary: poll-timing spans, per-call delivery clocks,
memprof tags) and reports the per-layer metrics, `trace.overhead_s`, and
checks that traced and untraced digests agree.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A failed build or a
repetition that crashes exits non-zero without printing it.

`--record-digests 0-63,1000003` instead runs one untraced repetition per
listed seed and workload and rewrites `digests.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["rmw_hotspot", "scf_fock", "netstorm", "am_scatter"]
DIGESTS = os.path.join(HERE, "digests.json")
# Per-repetition ceiling; a repetition takes about 2 s at most.
REP_TIMEOUT_S = 60
# Stop starting repetitions this long before the wall-clock cap.
DEADLINE_S = 150
MIN_REPS = 3
# Seconds the reference kernel (`perfbench::calibrate`) takes on an
# unloaded 2-core Xeon (Sapphire Rapids) VM. Host times are reported scaled
# to a host on which it takes this long; see `host_scale`.
CALIB_REF_S = 0.075


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build both binaries; return their directory."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release")


def pin_to_one_cpu():
    """Keep this process and every repetition on one CPU, so a repetition's
    reference-kernel time and workload time are taken on the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def rep(bindir, binary, workload, seed, size=None):
    """One repetition in a fresh process; its JSON record. `size="small"`
    runs the self-test size."""
    argv = [os.path.join(bindir, binary), workload, str(seed)] + ([size] if size else [])
    try:
        done = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{binary} {workload} {seed}: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{binary} {workload} {seed}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)["digests"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read {DIGESTS}: {e}")


class Tally:
    """Correctness checks across repetitions; fail_rate = failed / attempted."""

    def __init__(self, recorded):
        self.recorded = recorded
        self.attempted = 0
        self.failed = []

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def absorb(self, r):
        """The repetition's own invariant checks plus the recorded digest."""
        self.attempted += r["attempted"]
        self.failed += r["failed"]
        if self.recorded is not None:
            self.check("digest_matches_recorded", r["digest"] == self.recorded)

    def same_digest(self, name, reps):
        self.check(name, len({r["digest"] for r in reps}) == 1)


def median(reps, key):
    return statistics.median(r[key] for r in reps)


def measure(bindir, workload, seed, seconds, traced, tally):
    """Run repetitions for `seconds`; return (untraced reps, traced reps)."""
    start = time.monotonic()
    plain, tr = [], []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = len(plain) >= MIN_REPS and (not traced or len(tr) >= MIN_REPS)
        # Start no repetition that would end past `seconds`.
        if (enough and elapsed + longest > seconds) or elapsed >= DEADLINE_S:
            break
        t0 = time.monotonic()
        if traced and len(tr) < len(plain):
            r = rep(bindir, "perfbench_traced", workload, seed)
            tr.append(r)
        else:
            r = rep(bindir, "perfbench", workload, seed)
            plain.append(r)
        tally.absorb(r)
        longest = max(longest, time.monotonic() - t0)
        print(
            f"rep traced={r['traced']} setup_s={r['setup_s']:.4f} run_s={r['run_s']:.4f} "
            f"calib_s={r['calib_s']:.4f} "
            f"peak_rss_kb={r['peak_rss_kb']} failed={r['failed']}",
            file=sys.stderr,
        )
    return plain, tr


def host_scale(plain):
    """Factor that turns this run's host seconds into reference seconds.

    The shared host's speed drifts by tens of percent over minutes, more than
    any bound, and drags every timing with it. Each repetition also times a
    fixed kernel that uses none of the repository's code; the median of
    those times says how fast the host ran during this run, and dividing by
    it cancels the drift while leaving every change in the program's own
    cost in place."""
    return CALIB_REF_S / median(plain, "calib_s")


def end_to_end(plain):
    scale = host_scale(plain)
    print(
        f"raw medians: run_s={median(plain, 'run_s'):.4f} setup_s={median(plain, 'setup_s'):.5f} "
        f"calib_s={median(plain, 'calib_s'):.4f} reps={len(plain)}",
        file=sys.stderr,
    )
    return {
        "run_s": {"value": median(plain, "run_s") * scale, "unit": "s"},
        "setup_s": {"value": median(plain, "setup_s") * scale, "unit": "s"},
        "peak_rss_mb": {"value": median(plain, "peak_rss_kb") / 1024.0, "unit": "MiB"},
    }


def per_layer(plain, tr):
    """Medians of the traced per-layer figures plus the derived ones."""
    names = list(tr[0]["layer"])
    out = {}
    for n in names:
        out[n] = {
            "value": statistics.median(r["layer"][n]["value"] for r in tr),
            "unit": tr[0]["layer"][n]["unit"],
        }
    run_s = median(plain, "run_s")
    events = out["desim.events"]["value"]
    tasks = out["scf.tasks"]["value"]
    out["desim.ns_per_event"] = {"value": run_s / events * 1e9 if events else 0.0, "unit": "ns"}
    out["scf.host_us_per_task"] = {"value": run_s / tasks * 1e6 if tasks else 0.0, "unit": "us"}
    out["trace.overhead_s"] = {"value": median(tr, "run_s") - run_s, "unit": "s"}
    return out


def record(bindir, seeds):
    digests = {w: {} for w in WORKLOADS}
    for w in WORKLOADS:
        for s in seeds:
            r = rep(bindir, "perfbench", w, s)
            if r["failed"]:
                fail(f"{w} seed {s}: checks failed: {r['failed']}")
            digests[w][str(s)] = r["digest"]
            print(f"{w} seed {s}: {r['digest']}", file=sys.stderr)
    doc = {
        "about": "Simulated-output digests of the untraced benchmark, per workload and seed. "
        "Regenerate with run.py --record-digests only when a change moves simulated "
        "results on purpose.",
        "digests": digests,
    }
    with open(DIGESTS, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-digests", metavar="SEEDS")
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")
    if a.record_digests is None and a.workload is None:
        ap.error("--workload is required")
    bindir = build()
    pin_to_one_cpu()
    if a.record_digests is not None:
        record(bindir, parse_seeds(a.record_digests))
        return
    recorded = load_digests().get(a.workload, {}).get(str(a.seed))
    if recorded is None:
        print(f"perfbench: no recorded digest for seed {a.seed}; invariants only", file=sys.stderr)
    tally = Tally(recorded)
    plain, tr = measure(bindir, a.workload, a.seed, a.seconds, a.trace == 1, tally)
    tally.same_digest("digest_deterministic", plain)
    if tr:
        tally.same_digest("digest_traced_eq_untraced", plain + tr)
    metrics = per_layer(plain, tr) if tr else end_to_end(plain)
    if tally.failed:
        print(f"perfbench: failed checks: {sorted(set(tally.failed))}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not tally.failed,
                "attempted": tally.attempted,
                "failed": len(tally.failed),
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
