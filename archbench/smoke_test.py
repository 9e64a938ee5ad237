#!/usr/bin/env python3
"""Smoke test for archbench (seconds, once the benchmark is built).

    python3 archbench/smoke_test.py

Run from the root of a checkout. For each workload, at a tiny size, makes
an untraced and a traced run through run.py with the fewest repetitions
and checks that the result line names every metric BENCHMARK.json lists,
with its unit, that the run was correct, and that each layer probe has a
figure exactly on the workloads whose policy uses its layer. Then runs the workload binary with a tampered put-time
digest and checks that the correctness gate fires (exit code 3, no result).
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SCALE = "0.05"


def result_line(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace),
           "--scale", SCALE]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    assert r.returncode == 0, f"{workload} trace={trace}: {r.stderr}"
    return json.loads(r.stdout.strip().splitlines()[-1])


# Per-layer metrics of layers a workload does not run: they read 0 there.
NOT_RUN = {
    "cloud_rw": {"channel.qkd.conv_mb_s", "sharing.shamir_split.mb_s",
                 "sharing.shamir_recover.mb_s", "sharing.refresh.mb_s",
                 "migrate.io_multiple", "migrate.step_failures"},
    "lincos_refresh": {"channel.tls.handshake_us", "channel.tls.seal_open_mb_s",
                       "crypto.cipher.mb_s", "erasure.rs_encode.mb_s",
                       "erasure.rs_decode.mb_s", "migrate.io_multiple",
                       "migrate.step_failures"},
    "live_migrate": {"channel.qkd.conv_mb_s", "sharing.shamir_split.mb_s",
                     "sharing.shamir_recover.mb_s", "sharing.refresh.mb_s"},
}


def check_metrics(workload, trace, spec):
    res = result_line(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert res["correct"] is True and res["attempted"] >= 1, res
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metrics {got} != {want}"
    for name, v in res["metrics"].items():
        assert isinstance(v["value"], (int, float)), (name, v)
    if not trace:
        return
    for name, v in res["metrics"].items():
        if name in NOT_RUN[workload]:
            assert v["value"] == 0, f"{workload}: {name} ran, but its layer is unused"
        elif (run.PER_LAYER[name][1] in ("wall", "scaled")
              and name != "bench.trace_overhead_frac"):
            assert v["value"] > 0, f"{workload}: {name} has no figure"


def check_gate_fires(workload):
    binary = os.path.join(run.build_dir(), "archbench")
    r = subprocess.run([binary, "--workload", workload, "--seed", "7",
                        "--scale", SCALE, "--tamper-digest"],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert r.returncode == 3, f"{workload}: gate did not fire ({r.returncode})"
    assert r.stdout == "", f"{workload}: printed a result despite the gate"
    assert "CORRECTNESS GATE" in r.stderr, r.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    assert sorted(workloads) == sorted(run.WORKLOADS), workloads
    assert sorted(workloads) == sorted(NOT_RUN), workloads
    for w in workloads:
        check_metrics(w, 0, bench["end_to_end"])
        check_metrics(w, 1, bench["per_layer"])
        check_gate_fires(w)
        print(f"ok {w}")
    print("archbench smoke test passed")


if __name__ == "__main__":
    main()
