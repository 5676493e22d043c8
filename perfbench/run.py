#!/usr/bin/env python3
"""Repository benchmark: build, run one workload repeatedly, check, report.

    python3 perfbench/run.py --workload paper-501 [--seed 42] [--seconds 30] [--trace 0|1]

Run from the root of a checkout. Each repetition is one process of
perfbench_main.exe, so peak RSS is the workload's own. Repetitions
continue until --seconds have passed (at least three; with --trace 1
untraced and traced repetitions alternate, at least two of each). The
end-to-end metrics are the medians of the untraced repetitions; the
per-layer metrics are the medians of the traced ones. wall_s and
setup_s are in reference seconds: each repetition scales its host
times by how fast a fixed calibration slice ran beside them (calib.ml),
so the host's drifting speed cancels out.

Correctness checks: every repetition checks conservation; the simulated
digest must be identical across repetitions and between traced and
untraced ones; the first repetition of cluster-8x also runs the cluster
through the library's Cluster.run on a pool and checks that its merged
outcome adds up and that its shards and merge match the sequential
worlds. A failed check prints the result with
"correct": false and exits 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. An operation is one simulated
world (a rate point or a shard) of one repetition.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

EXE = "perfbench_main.exe"
DEFAULT_SEED = 42
MIN_REPS = 3
MIN_TRACED_REPS = 2
# Repetitions start until --seconds have passed; the last one started
# must end within this margin after that. A repetition takes a few
# seconds, so --seconds plus this margin stays well under three minutes.
REP_MARGIN_S = 60.0
BUILD_TIMEOUT_S = 850.0

# Host times as measured, before the calibration scale that turns them
# into the reference seconds of wall_s and setup_s, and the slice time
# that scale comes from. Printed with every run; per-layer metrics
# (prefix "bench.") with --trace 1.
HOST_RAW = ["raw_wall_s", "raw_setup_s", "calib_slice_s"]

# Simulated metrics printed with every run. Those not in BENCHMARK.json's
# end_to_end list are printed only (p50, p99) or reported with the
# per-layer metrics (error share); see README.md.
PRINTED_SIM = [
    "sim_replies_per_s",
    "sim_error_pct",
    "sim_success_pct",
    "sim_p50_ms",
    "sim_p99_ms",
    "sim_cpu_us_per_reply",
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def check_checkout(root):
    for rel in ("dune-project", "lib", os.path.join("perfbench", "dune"), "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, rel)):
            fail("not a checkout of the repository (missing %s)" % rel)


def build(root):
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    target = "./perfbench/" + EXE
    p = subprocess.run(
        [dune, "build", "--root", ".", target],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=BUILD_TIMEOUT_S,
    )
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        fail("build failed")
    return os.path.join(root, "_build", "default", "perfbench", EXE)


def rep(exe, args, deadline):
    """One repetition; returns its parsed JSON object."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before a repetition could start")
    try:
        p = subprocess.run([exe] + args, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("repetition timed out: %s" % " ".join(args))
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        sys.stderr.write(p.stderr[-4000:])
        fail("repetition crashed (exit %d): %s" % (p.returncode, " ".join(args)))
    return json.loads(lines[-1])


def digest_failures(reps):
    """Determinism: every repetition, traced or not, simulated the same."""
    first = reps[0]["digest"]
    return [
        "repetition %d (%s): digest %s <> %s"
        % (i, "traced" if r["traced"] else "untraced", r["digest"], first)
        for i, r in enumerate(reps)
        if r["digest"] != first
    ]


def medians(reps, section):
    names = reps[0][section].keys()
    return {
        n: {
            "value": statistics.median(r[section][n]["value"] for r in reps),
            "unit": reps[0][section][n]["unit"],
        }
        for n in names
    }


def run_reps(exe, workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + seconds + REP_MARGIN_S
    base = ["--workload", workload, "--seed", str(seed)]
    reps = []

    def enough():
        untraced = sum(1 for r in reps if not r["traced"])
        traced = len(reps) - untraced
        if trace:
            return (
                untraced >= MIN_TRACED_REPS
                and traced >= MIN_TRACED_REPS
                and time.monotonic() - start >= seconds
            )
        return untraced >= MIN_REPS and time.monotonic() - start >= seconds

    while not enough():
        traced = trace and len(reps) % 2 == 1
        args = list(base)
        if not reps:
            args.append("--verify")
        if traced:
            args.append("--trace")
        r = rep(exe, args, deadline)
        r["traced"] = traced
        reps.append(r)
    return reps


def print_span_self_times(spans_file):
    """Self time per span name, from the last traced repetition."""
    with open(spans_file) as f:
        spans = json.load(f)
    totals = {}
    for sp in spans:
        key = sp["name"] + (" [%s]" % sp["tag"] if sp["tag"] else "")
        n, t = totals.get(key, (0, 0.0))
        totals[key] = (n + 1, t + sp["self_s"])
    print("  span self time (last traced repetition, %s):" % spans_file)
    for key, (n, t) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        print("    %-44s %6d calls %12.6f s" % (key, n, t))


def report(workload, seed, reps, bench, trace):
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    failures = digest_failures(reps)
    for i, r in enumerate(reps):
        failures += ["repetition %d: %s" % (i, f) for f in r["failures"]]
    host = medians(untraced, "host")
    sim = reps[0]["sim"]
    end_to_end = dict(host, **sim)
    layers = {}
    if trace:
        layers = medians(traced, "layers")
        layers["bench.trace_overhead_s"] = {
            "value": medians(traced, "host")["wall_s"]["value"] - host["wall_s"]["value"],
            "unit": "s",
        }
        for n in HOST_RAW:
            layers["bench." + n] = host[n]
        for n in PRINTED_SIM:
            layers[n] = sim[n]

    print("workload %s  seed %d  repetitions %d untraced, %d traced  digest %s"
          % (workload, seed, len(untraced), len(traced), reps[0]["digest"]))
    for n in ("wall_s", "raw_wall_s"):
        walls = sorted(r["host"][n]["value"] for r in untraced)
        print("  %s per repetition: %s" % (n, " ".join("%.3f" % w for w in walls)))
    for n in ["wall_s", "setup_s", "alloc_mwords", "peak_rss_mb"] + HOST_RAW + PRINTED_SIM:
        v = end_to_end[n]
        extra = "  (n=%d samples)" % reps[0]["latency_samples"] if n == "sim_p99_ms" else ""
        print("  %-24s %16.6f %s%s" % (n, v["value"], v["unit"], extra))
    if trace:
        print("  per-layer (median of traced repetitions):")
        for n in sorted(layers):
            print("    %-40s %18.6f %s" % (n, layers[n]["value"], layers[n]["unit"]))
        print_span_self_times(traced[-1]["spans"])
    for f in failures:
        print("  CHECK FAILED: " + f)

    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    source = layers if trace else end_to_end
    metrics = {}
    for spec in wanted:
        if spec["name"] not in source:
            fail("metric %s was not produced" % spec["name"])
        metrics[spec["name"]] = source[spec["name"]]
    worlds = reps[0]["worlds"]
    failed_reps = sum(1 for r in reps if r["failures"]) or (1 if failures else 0)
    result = {
        "correct": not failures,
        "attempted": worlds * len(reps),
        "failed": worlds * failed_reps,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return not failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["paper-501", "idle-100k", "cluster-8x"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    root = os.getcwd()
    check_checkout(root)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    exe = build(root)
    reps = run_reps(exe, a.workload, a.seed, a.seconds, a.trace == 1)
    ok = report(a.workload, a.seed, reps, bench, a.trace == 1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
