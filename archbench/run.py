#!/usr/bin/env python3
"""archbench: end-to-end and per-layer benchmark of the aegis archive.

    python3 archbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds archbench/ (and the library sources
it compiles from ../src) into .bench_build/, then runs a fixed number of
repetitions of the named workload, each in its own process with one client
thread. The count depends only on the workload and --seconds, and
repetition r uses inputs derived from (seed, r) only, so two builds of the
code measure the same repetitions on the same inputs.

--trace 0 prints the end-to-end metrics, pooled over the repetitions. Their
wall times are scaled to a reference host speed, measured around every
call by a benchmark-owned kernel (reference.h); the table shows how much
the host slowed the run down.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics: the program's own counters from traced repetition 0,
the layer probes (median over traced repetitions), and the cost of the
benchmark's tracing itself. Traced repetition 0 writes a Chrome trace to
.bench_build/archbench/traces/.

Every get is checked against its put-time SHA-256 and every workload ends
with all objects readable; a violation exits non-zero. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# workload -> (least repetitions, seconds). The least count holds at least
# 10 samples beyond each p95. `seconds` is a repetition's typical length on
# a 4-core x86_64 host: an untraced run makes round(--seconds / seconds)
# repetitions, a traced run half as many pairs.
WORKLOADS = {"cloud_rw": (2, 4.3), "lincos_refresh": (4, 4.3),
             "live_migrate": (2, 7.5)}

# name -> (unit, tag). Tags: scaled = wall-clock time scaled to the
# reference host speed, wall = unscaled wall-clock time (and the process's
# memory), virtual = the cluster's simulated clock, exact = deterministic
# count for a seed.
END_TO_END = {
    "setup_s": ("s", "scaled"),
    "put_ms_p50": ("ms", "scaled"),
    "put_ms_p95": ("ms", "scaled"),
    "get_ms_p50": ("ms", "scaled"),
    "get_ms_p95": ("ms", "scaled"),
    "ingest_mb_s": ("MB/s", "scaled"),
    "read_mb_s": ("MB/s", "scaled"),
    "maint_mb_s": ("MB/s", "scaled"),
    "scrub_objects_s": ("1/s", "scaled"),
    "virtual_s_per_gb": ("s/GB", "virtual"),
    "peak_rss_mb": ("MB", "wall"),
}

PER_LAYER = {
    "node.conversations_per_put": ("count", "exact"),
    "node.conversations_per_get": ("count", "exact"),
    "node.wire_bytes_per_user_byte": ("B/B", "exact"),
    "node.wiretap_records": ("count", "exact"),
    "node.transfer.dropped": ("count", "exact"),
    "node.transfer.corrupted": ("count", "exact"),
    "node.breaker.quarantines": ("count", "exact"),
    "node.virtual_ms": ("ms", "virtual"),
    "channel.tls.handshake_us": ("us", "wall"),
    "channel.tls.seal_open_mb_s": ("MB/s", "wall"),
    "channel.qkd.conv_mb_s": ("MB/s", "wall"),
    "crypto.cipher.mb_s": ("MB/s", "wall"),
    "crypto.sha256.mb_s": ("MB/s", "wall"),
    "erasure.rs_encode.mb_s": ("MB/s", "wall"),
    "erasure.rs_decode.mb_s": ("MB/s", "wall"),
    "sharing.shamir_split.mb_s": ("MB/s", "wall"),
    "sharing.shamir_recover.mb_s": ("MB/s", "wall"),
    "sharing.refresh.mb_s": ("MB/s", "wall"),
    "integrity.stamp_us": ("us", "wall"),
    "integrity.merkle_us": ("us", "wall"),
    "util.entropy_mb_s": ("MB/s", "wall"),
    "archive.put.virtual_ms_p50": ("ms", "virtual"),
    "archive.get.virtual_ms_p50": ("ms", "virtual"),
    "archive.io.upload_retries": ("count", "exact"),
    "archive.io.download_retries": ("count", "exact"),
    "archive.io.upload_failures": ("count", "exact"),
    "archive.io.download_failures": ("count", "exact"),
    "archive.storage_overhead": ("x", "exact"),
    "maint.call.wall_ms_p50": ("ms", "scaled"),
    "maint.virtual_share": ("frac", "virtual"),
    "migrate.io_multiple": ("x", "exact"),
    "migrate.step_failures": ("count", "exact"),
    "migrate.stalls": ("count", "exact"),
    "doctor.step.wall_ms_p50": ("ms", "scaled"),
    "doctor.shards_repaired": ("count", "exact"),
    "doctor.unrecoverable": ("count", "exact"),
    "protocol.refresh_messages": ("count", "exact"),
    "protocol.refresh_bytes": ("B", "exact"),
    "obs.spans_per_op": ("count", "exact"),
    "obs.metric_series": ("count", "exact"),
    "obs.ledger_records": ("count", "exact"),
    "bench.trace_overhead_frac": ("frac", "scaled"),
    "failed_ops_frac": ("frac", "exact"),
}

# Per-layer metrics run.py derives from the samples of every workload.
COMPUTED_LAYERS = ("maint.call.wall_ms_p50", "doctor.step.wall_ms_p50",
                   "bench.trace_overhead_frac", "failed_ops_frac")

# Hard ceiling for one run after the build, so every run ends within 180 s.
RUN_LIMIT_S = 170


def fail(msg, code=1):
    print(f"archbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "archbench")


def build():
    """Configures and builds incrementally (under a second when current);
    returns the binary path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "archbench", "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "archbench")


def run_rep(binary, args, rep, traced, trace_out, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--rep", str(rep), "--trace", "1" if traced else "0",
           "--scale", str(args.scale)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"repetition {rep} exceeded the {RUN_LIMIT_S} s run limit")
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        if r.returncode == 3:  # the correctness gate fired
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
        fail(f"repetition {rep} exited with {r.returncode}", 3)
    return json.loads(r.stdout.strip().splitlines()[-1])


def rank(n, q):
    """1-based nearest rank of the q-percentile of n samples, as
    archbench.cpp computes it."""
    return max(1, math.ceil(q * n - 1e-9))


def pct(values, q):
    return sorted(values)[rank(len(values), q) - 1] if values else 0.0


def beyond(n, q):
    """Samples above the q-percentile of n samples."""
    return n - rank(n, q)


def pooled(reps, key):
    return [x for r in reps for x in r[key]]


def ratio(num, den):
    return num / den if den else 0.0


def spread(values):
    """Interquartile range over median, as the regression check takes it."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def phase_values(reps):
    """The scaled wall-time metrics of the pooled repetitions `reps`."""
    total = lambda k: sum(r[k] for r in reps)
    put, get = pooled(reps, "put_ms"), pooled(reps, "get_ms")
    return {
        "put_ms_p50": pct(put, 0.50),
        "put_ms_p95": pct(put, 0.95),
        "get_ms_p50": pct(get, 0.50),
        "get_ms_p95": pct(get, 0.95),
        "ingest_mb_s": ratio(total("put_bytes"), total("put_s")) / 1e6,
        "read_mb_s": ratio(total("get_bytes"), total("get_s")) / 1e6,
        "maint_mb_s": ratio(total("maint_bytes"), total("maint_s")) / 1e6,
        "scrub_objects_s": ratio(total("scrub_objects"), total("scrub_s")),
    }


def end_to_end(reps):
    # Every repetition of the run's fixed set is pooled: latencies are
    # percentiles of the pooled per-call samples and rates are ratios of
    # pooled sums, all on reference-scaled wall times. Set-up time is the
    # median set-up of the repetitions.
    every = lambda k: sum(r[k] for r in reps)
    values = phase_values(reps)
    values.update({
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "virtual_s_per_gb": ratio(every("virtual_ms") / 1e3,
                                  every("logical_bytes") / 1e9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    })
    # Each scaled metric's spread over the single repetitions shows how
    # steady the run was after scaling.
    single = [phase_values([r]) for r in reps]
    notes = {n: f"rep spread {spread([s[n] for s in single]):.3f}"
             for n in single[0]}
    for n in ("setup_s", "peak_rss_mb"):
        notes[n] = f"rep spread {spread([r[n] for r in reps]):.3f}"
    for phase in ("put", "get"):
        n = len(pooled(reps, f"{phase}_ms"))
        failed = sum(r[f"{phase}_failed"] for r in reps)
        notes[f"{phase}_ms_p95"] += (f"; n={n}, {beyond(n, 0.95)} beyond,"
                                     f" {failed} failed")
    return values, notes


def per_layer(untraced, traced):
    # A layer the workload does not run (a probe of a layer its policy does
    # not use, a migration count without a migration) has no figure. The
    # result line must still name every metric, so it reads 0 there, and
    # the table marks it.
    first = traced[0]
    values = {name: 0.0 for name in PER_LAYER}
    values.update(first["layers"])
    for name in first["probes"]:
        values[name] = statistics.median(r["probes"][name] for r in traced)
    notes = {name: "not run on this workload" for name in PER_LAYER
             if name not in first["layers"] and name not in first["probes"]
             and name not in COMPUTED_LAYERS}
    values["maint.call.wall_ms_p50"] = pct(pooled(traced, "maint_ms"), 0.5)
    values["doctor.step.wall_ms_p50"] = pct(pooled(traced, "doctor_ms"), 0.5)
    values["bench.trace_overhead_frac"] = ratio(
        pct(pooled(traced, "put_ms"), 0.5),
        pct(pooled(untraced, "put_ms"), 0.5)) - 1.0
    every = untraced + traced
    values["failed_ops_frac"] = ratio(sum(r["failed"] for r in every),
                                      sum(r["attempted"] for r in every))
    return values, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="object-count multiplier (the smoke test uses a tiny one)")
    args = ap.parse_args()
    # On SIGTERM, exit through an exception: subprocess.run then kills and
    # waits for the child it is running, so no repetition outlives run.py.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    least, rep_seconds = WORKLOADS[args.workload]
    if args.trace:
        # The sample floor matters only for the end-to-end tails.
        reps = max(1, round(args.seconds / (2 * rep_seconds)))
    else:
        reps = max(least, round(args.seconds / rep_seconds))
    trace_out = None
    if args.trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.trace.json")

    untraced, traced = [], []
    for rep in range(reps):
        t0 = time.monotonic()
        untraced.append(run_rep(binary, args, rep, False, None, deadline))
        if args.trace:
            traced.append(run_rep(binary, args, rep, True,
                                  trace_out if rep == 0 else None, deadline))
        # Never start a repetition that cannot finish inside the limit.
        if rep + 1 < reps and time.monotonic() + (time.monotonic() - t0) > deadline:
            print(f"archbench: stopping after {rep + 1} of {reps} repetitions"
                  f" to end within {RUN_LIMIT_S} s", file=sys.stderr)
            break

    if args.trace:
        values, notes = per_layer(untraced, traced)
        table = PER_LAYER
    else:
        values, notes = end_to_end(untraced)
        table = END_TO_END
    every = untraced + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)

    slowdown = statistics.median(r["host_slowdown"] for r in every)
    print(f"archbench {args.workload} seed={args.seed}"
          f" repetitions={len(untraced)} host_slowdown={slowdown:.3f}"
          f" traced={args.trace} elapsed_s={time.monotonic() - start:.1f}")
    for name, (unit, tag) in table.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {values[name]:>16.6g} {unit:6s} [{tag}]{note}")
    if trace_out:
        print(f"  chrome trace: {trace_out}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _tag) in table.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
