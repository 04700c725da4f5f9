#!/usr/bin/env python3
"""Host-performance record of the default Fig. 9 sweep (BENCH_host.json).

Runs `fig9_exec_time --jobs 1 --no-cache` several times for each given
binary, alternating between them so that every binary sees the same
machine load, and appends one row per binary to BENCH_host.json:

  * the sweep's wall time (median, min, max and every run);
  * the HostProfile split summed over the 30 cells: mem, wb, issue,
    fetch, skip and the unattributed rest of the cells' wall time;
  * per cell: simulated cycles, host ticks and simulated cycles per
    host second (median over runs);
  * with --micro, the per-layer microbenchmarks of bench_micro (NVM
    tick, write-buffer drain, issue scan): median ns per iteration.

Usage:
  bench/bench_host.py --run parent=/path/to/old/fig9_exec_time \\
                      --run change=build/bench/fig9_exec_time \\
                      [--micro parent=/path/to/old/bench_micro \\
                       --micro change=build/bench/bench_micro] \\
                      [--runs 5] [--note TEXT] [--out BENCH_host.json]

Each perf change appends its rows; compare rows only when their
"host" fields match.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import tempfile
import time

PHASES = ("mem", "wb", "issue", "fetch", "skip")
MICRO = "BM_NvmTickFullBufferWithReject|BM_WriteBufferDrainSameLineChains" \
        "|BM_IssueScanFullIq"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(binary, workdir):
    out = os.path.join(workdir, "fig9.json")
    start = time.perf_counter()
    subprocess.run([binary, "--jobs", "1", "--no-cache", "--json", out],
                   check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    with open(out, encoding="utf-8") as f:
        cells = json.load(f)["cells"]
    return wall, cells


def run_micro(binary, runs):
    # Google Benchmark reports a median only for two or more
    # repetitions.
    out = subprocess.run(
        [binary, "--benchmark_filter=" + MICRO,
         "--benchmark_repetitions=" + str(max(runs, 2)),
         "--benchmark_report_aggregates_only=true",
         "--benchmark_format=json"],
        check=True, capture_output=True, text=True).stdout
    scale = {"ns": 1, "us": 1e3, "ms": 1e6}
    return {b["run_name"]: round(b["real_time"] * scale[b["time_unit"]])
            for b in json.loads(out)["benchmarks"]
            if b.get("aggregate_name") == "median"}


def summarize(label, note, walls, runs):
    med = statistics.median
    split = {}
    for phase in PHASES:
        split[phase] = med(
            sum(c["host_perf"][phase + "_nanos"] for c in cells) / 1e9
            for cells in runs)
    split["cells_wall"] = med(
        sum(c["host_perf"]["wall_nanos"] for c in cells) / 1e9
        for cells in runs)
    split["unattributed"] = med(
        sum(c["host_perf"]["wall_nanos"] -
            sum(c["host_perf"][p + "_nanos"] for p in PHASES)
            for c in cells) / 1e9
        for cells in runs)
    per_cell = []
    for i, cell in enumerate(runs[0]):
        hp = cell["host_perf"]
        per_cell.append({
            "label": cell["label"],
            "cycles": hp["cycles_simulated"],
            "host_ticks": hp["host_ticks"],
            "cycles_per_host_sec": round(med(
                cells[i]["host_perf"]["cycles_per_host_sec"]
                for cells in runs)),
        })
    return {
        "label": label,
        "note": note,
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count()},
        "runs": len(walls),
        "fig9_wall_s": {
            "median": round(med(walls), 3),
            "min": round(min(walls), 3),
            "max": round(max(walls), 3),
            "all": [round(w, 3) for w in walls],
        },
        "host_profile_s": {k: round(v, 3) for k, v in split.items()},
        "cells": per_cell,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--run", action="append", required=True,
                    metavar="LABEL=BINARY")
    ap.add_argument("--micro", action="append", default=[],
                    metavar="LABEL=BENCH_MICRO")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--note", default="")
    ap.add_argument("--out", default="BENCH_host.json")
    args = ap.parse_args()

    def pairs(specs):
        out = []
        for spec in specs:
            label, _, binary = spec.partition("=")
            if not binary:
                ap.error(f"expected LABEL=BINARY, got {spec!r}")
            out.append((label, binary))
        return out

    targets = pairs(args.run)
    micro = dict(pairs(args.micro))

    walls = {label: [] for label, _ in targets}
    cells = {label: [] for label, _ in targets}
    with tempfile.TemporaryDirectory() as workdir:
        for _ in range(args.runs):
            for label, binary in targets:
                wall, run_cells = run_once(binary, workdir)
                walls[label].append(wall)
                cells[label].append(run_cells)
                print(f"{label}: {wall:.2f} s")

    doc = {"bench": "fig9_exec_time --jobs 1 --no-cache", "rows": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            doc = json.load(f)
    for label, _ in targets:
        row = summarize(label, args.note, walls[label], cells[label])
        if label in micro:
            row["micro_ns"] = run_micro(micro[label], args.runs)
        doc["rows"].append(row)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
