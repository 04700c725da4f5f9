#!/usr/bin/env python3
"""Smoke test of the benchmark, at tiny inputs on a second seed.

    python3 perfbench/smoke_test.py

Run it from the root of a checkout; after the build it takes under a
minute.  It checks that:

  * every workload runs untraced and traced, passes its output checks
    against the pinned tiny-scale outputs, and prints exactly the
    metric names and units BENCHMARK.json lists;
  * the traced run's layer self times and remainder add up to its
    traced wall time;
  * a pass that aborts part-way, or before naming its operations,
    counts its unfinished operations as failed (checked on run.py's
    pass accounting with a stand-in for the measuring program);
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (perfbench/run.py)

SEED = 7  # The second seed; 42 is the default.
LAYERS = ("apps", "traffic", "sim", "pipeline", "mem", "exp", "fault",
          "model_check")

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def run_bench(args, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_result(label, rc, result, spec):
    check(rc == 0, f"{label}: exit status {rc}")
    if result is None:
        check(False, f"{label}: no result line")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and
          result["attempted"] >= 1, f"{label}: attempted")
    check(isinstance(result["failed"], int), f"{label}: failed")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    check(set(metrics) == set(want),
          f"{label}: metric names differ from BENCHMARK.json: "
          f"{sorted(set(metrics) ^ set(want))}")
    for name, m in metrics.items():
        check(set(m) == {"value", "unit"}, f"{label}: {name} keys")
        check(m.get("unit") == want.get(name),
              f"{label}: {name} unit {m.get('unit')!r}")
        v = m.get("value")
        check(isinstance(v, (int, float)) and math.isfinite(v),
              f"{label}: {name} value {v!r}")


def check_layer_sum(label, metrics):
    total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    total += metrics["trace.remainder_s"]["value"]
    wall = metrics["trace.wall_s"]["value"]
    check(abs(total - wall) <= 1e-6 * max(1.0, wall),
          f"{label}: layers add up to {total}, traced wall is {wall}")


# Stands in for ede_perfbench: writes a plan of {planned} operations
# (no plan line when 0), finishes {finished} of them, then aborts.
ABORTING_PASS = """#!{python}
import json, os, sys
out = sys.argv[sys.argv.index("--out") + 1]
names = ["op%d" % i for i in range({planned})]
with open(out, "w") as f:
    if names:
        f.write(json.dumps({{"plan": {{"ops": names}}}}) + "\\n")
    for name in names[:{finished}]:
        op = {{"name": name, "cycles": 1, "digest": "0", "ok": True,
              "problem": ""}}
        f.write(json.dumps({{"op": op}}) + "\\n")
os.abort()
"""


def check_failure_accounting():
    """A pass that aborts counts its unfinished operations failed."""
    d = run.build_root() / "smoke-abort"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    args = argparse.Namespace(workload="crash-check", seed=SEED, tiny=True)
    try:
        # Without a plan line the pass counts the workload's usual 20.
        for planned, finished, attempted in ((20, 10, 20), (0, 0, 20)):
            script = d / f"abort-{planned}-{finished}"
            script.write_text(ABORTING_PASS.format(
                python=sys.executable, planned=planned, finished=finished))
            script.chmod(0o755)
            p = run.run_pass(script, args, False, {})
            label = f"aborting pass ({planned} planned, {finished} done)"
            check(p["finished"] is False, f"{label}: finished")
            check(p["attempted"] == attempted and p["ok"] == finished,
                  f"{label}: {p['attempted']} attempted, {p['ok']} ok")
            print(f"ok: {label}", flush=True)
    finally:
        shutil.rmtree(d, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    check_failure_accounting()

    # Every workload still runs, untraced and traced.
    for name in workloads:
        for trace in ("0", "1"):
            label = f"{name} --trace {trace}"
            rc, result, err = run_bench(
                ["--workload", name, "--seed", str(SEED), "--seconds",
                 "1", "--trace", trace, "--tiny"])
            spec = bench["per_layer" if trace == "1" else "end_to_end"]
            check_result(label, rc, result, spec)
            check("no pinned outputs" not in err,
                  f"{label}: seed {SEED} is not pinned")
            if not result:
                continue
            check(result["correct"] is True and result["failed"] == 0,
                  f"{label}: correct={result['correct']} "
                  f"failed={result['failed']}")
            if trace == "1":
                check_layer_sum(label, result["metrics"])
            print(f"ok: {label}", flush=True)

    # Without the simulator sources the benchmark must refuse to run.
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in bench["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        rc, result, _ = run_bench(["--workload", workloads[0], "--seed",
                                   str(SEED), "--seconds", "1",
                                   "--trace", "0"], cwd=bare, env=env)
        check(rc != 0, "bare directory: exit status 0")
        check(result is None, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
