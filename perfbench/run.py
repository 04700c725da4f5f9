#!/usr/bin/env python3
"""Benchmark of the EDE simulator: one workload, timed end to end and
layer by layer, with its outputs checked.

    python3 perfbench/run.py --workload fig9-sweep --seed 42 \\
        --seconds 40 --trace 0

Run it from the root of a checkout.  It builds the simulator and the
measuring program (perfbench/ede_perfbench.cc) from this checkout's
sources into $CARGO_TARGET_DIR (default .bench_build), then runs the
workload in child processes, one per measured pass, on one host thread
each.

Workloads (see perfbench/README.md for why each was chosen):
  fig9-sweep     the Fig. 9 grid, cold result cache, then warm
  traffic-sweep  fig_traffic's 5 configs x 6 offered loads
  crash-check    fault campaigns and model checks, 1 and 2 cores

--trace 0 repeats untraced passes while another fits in --seconds and
reports the end-to-end metrics as medians over the passes.  --trace 1
makes one untraced and one traced pass.  It reports the layer times
from the traced pass's spans, and the counters and HostProfile times
from the untraced pass, which runs the program's own entry points.
Metric names and units come from BENCHMARK.json.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An operation is a cell (fig9-sweep, traffic-sweep) or a (tool, config)
run (crash-check).  It fails when its check fails, when its cycles or
statistics digest differ from perfbench/expected/ for the seed, or
when its pass dies before finishing it.  Exit status is 0 whenever a
result line was printed; it is non-zero, with no result line, when the
benchmark could not be built or run at all.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_DIR = HERE / "expected"

BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ("fig9-sweep", "traffic-sweep", "crash-check")

# Operations per pass, used when a pass dies before naming its own.
OPS_PER_PASS = {"fig9-sweep": 30, "traffic-sweep": 30, "crash-check": 20}

# The paper's Fig. 9 figures, the only reference the model has.
PAPER = {"iq_speedup": 18.0, "wb_speedup": 26.0, "u_reduction": 38.0}

# Layers whose self times, with trace.remainder_s, add up to the
# traced pass's wall time.
LAYERS = ("apps", "traffic", "sim", "pipeline", "mem", "exp", "fault",
          "model_check")

# A pass that outlives this is killed and its operations count failed.
PASS_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not be built or started."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure and build ede_perfbench; return its path."""
    bdir = build_root() / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(bdir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(bdir), "--target", "ede_perfbench",
         "-j", jobs],
    ]
    build_log = bdir / "build.log"
    with open(build_log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = build_log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return bdir / "ede_perfbench"


def load_expected(workload):
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def wait_child(proc, deadline):
    """Reap @proc, killing it at @deadline; return (status, rusage)."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return status, usage
            if time.monotonic() > deadline:
                log(f"pass exceeded {PASS_TIMEOUT_S:.0f} s; killing it")
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return status, usage
            time.sleep(0.02)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
        raise


def read_lines(path):
    """ede_perfbench's JSON lines; a torn last line is dropped."""
    plan, ops, summary = None, [], None
    if not path.exists():
        return plan, ops, summary
    for line in path.read_text().splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "plan" in rec:
            plan = rec["plan"]
        elif "op" in rec:
            ops.append(rec["op"])
        elif "summary" in rec:
            summary = rec["summary"]
    return plan, ops, summary


def run_pass(binary, args, traced, expected):
    """One ede_perfbench process; returns the pass record."""
    runs = build_root() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    wd = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=runs))
    out = wd / "out.jsonl"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out),
           "--work-dir", str(wd)]
    if traced:
        cmd.append("--trace")
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.monotonic()
    try:
        with open(wd / "pass.log", "w") as pass_log:
            proc = subprocess.Popen(cmd, stdout=pass_log,
                                    stderr=subprocess.STDOUT, cwd=ROOT)
            status, usage = wait_child(proc, t0 + PASS_TIMEOUT_S)
        elapsed = time.monotonic() - t0
        plan, ops, summary = read_lines(out)
        if proc.returncode != 0 or summary is None:
            tail = (wd / "pass.log").read_text().splitlines()[-5:]
            log(f"{args.workload} pass died (exit {proc.returncode}):")
            for line in tail:
                log("  " + line)
    finally:
        shutil.rmtree(wd, ignore_errors=True)

    planned = plan["ops"] if plan else []
    attempted = len(planned) or OPS_PER_PASS[args.workload]
    ok = 0
    for op in ops:
        problem = op["problem"]
        pin = expected.get(op["name"])
        if not problem and pin and pin != [op["cycles"], op["digest"]]:
            problem = (f"cycles/digest {op['cycles']}/{op['digest']} "
                       f"!= expected {pin[0]}/{pin[1]}")
        if expected and not pin:
            problem = problem or "no expected value for this operation"
        if problem:
            log(f"FAILED {args.workload} {op['name']}: {problem}")
        else:
            ok += 1
    finished = summary is not None and proc.returncode == 0
    return {
        "finished": finished,
        "attempted": attempted,
        "ok": ok,
        "ops": ops,
        "elapsed": elapsed,
        "wall_s": summary["wall_s"] if summary else elapsed,
        "cpu_s": (summary["cpu_s"] if summary
                  else usage.ru_utime + usage.ru_stime),
        "insts": summary["insts"] if summary else 0.0,
        "setup_s": summary["setup_s"] if summary else [],
        "rss_mb": (summary["rss_mb"] if summary
                   else usage.ru_maxrss / 1024.0),
        "counters": summary["counters"] if summary else {},
        "spans": summary["spans"] if summary else [],
    }


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(passes):
    setup = [s for p in passes for s in p["setup_s"]]
    attempted = sum(p["attempted"] for p in passes)
    ok = sum(p["ok"] for p in passes)
    return {
        "wall_s": median([p["wall_s"] for p in passes]),
        "sim_kips": median([p["insts"] / p["cpu_s"] / 1000.0
                            if p["cpu_s"] > 0 else 0.0
                            for p in passes]),
        "setup_s": median(setup),
        "peak_rss_mb": median([p["rss_mb"] for p in passes]),
        "ok_rate": ok / attempted if attempted else 0.0,
    }


def self_times(spans):
    """Each span's duration minus its direct children's."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_layer(traced, untraced):
    """Layer times from @traced's spans; counters and HostProfile
    times from @untraced, whose runPlan may simulate fewer cells than
    the traced split, which simulates every one."""
    spans = traced["spans"]
    k = untraced["counters"]
    dur = {}
    attrs = {}
    for s in spans:
        dur[s["name"]] = dur.get(s["name"], 0.0) + s["end"] - s["start"]
        for key, v in s["attrs"].items():
            name = s["name"] + ":" + key
            attrs[name] = attrs.get(name, 0.0) + v

    def d(name):
        return dur.get(name, 0.0)

    # Layer self times.  A sim.run span's host-profile phases are
    # charged to pipeline and mem; the rest of it stays with sim.
    layer = dict.fromkeys(LAYERS, 0.0)
    remainder = 0.0
    for s, own in zip(spans, self_times(spans)):
        name = s["name"]
        if name == "workload":
            remainder += own
            continue
        if name == "sim.run":
            a = s["attrs"]
            pipe = a["fetch_s"] + a["issue_s"] + a["wb_s"]
            layer["pipeline"] += pipe
            layer["mem"] += a["mem_s"]
            own -= pipe + a["mem_s"]
        layer[name.split(".")[0]] += own

    run_s = k.get("sim.profile_wall_s", 0.0)
    phases = sum(k.get("sim.profile_" + p, 0.0)
                 for p in ("mem_s", "fetch_s", "issue_s", "wb_s",
                           "skip_s"))
    host_ticks = k.get("sim.host_ticks", 0)
    cell_work = (d("apps.generate") + d("sim.run") + d("traffic.build")
                 + d("traffic.replay"))
    plan_s = d("exp.cell") + d("exp.plan")
    machine_runs = k.get("traffic.machine_runs", 0)
    distinct = k.get("traffic.distinct_machine_runs", 0)
    insts = (attrs.get("apps.generate:insts", 0.0)
             + attrs.get("traffic.build:insts", 0.0))

    m = {
        "apps.generate_s": d("apps.generate"),
        "trace.insts": insts or traced["insts"],
        "traffic.build_s": d("traffic.build"),
        "traffic.replay_s": d("traffic.replay"),
        "traffic.machine_runs": machine_runs,
        "traffic.distinct_machine_runs": distinct,
        "traffic.useful_run_ratio":
            distinct / machine_runs if machine_runs else 0.0,
        "sim.run_s": run_s,
        "sim.cycles": k.get("sim.cycles", 0),
        "sim.host_ticks": host_ticks,
        "sim.cycles_skipped": k.get("sim.cycles_skipped", 0),
        "sim.skip_ratio": k.get("sim.skip_ratio", 0.0),
        "sim.skip_s": k.get("sim.profile_skip_s", 0.0),
        "sim.ns_per_live_tick":
            run_s * 1e9 / host_ticks if host_ticks else 0.0,
        "sim.unattributed_s": run_s - phases,
        "pipeline.fetch_s": k.get("sim.profile_fetch_s", 0.0),
        "pipeline.issue_s": k.get("sim.profile_issue_s", 0.0),
        "pipeline.wb_s": k.get("sim.profile_wb_s", 0.0),
        "mem.tick_s": k.get("sim.profile_mem_s", 0.0),
        "exp.plan_s": plan_s,
        "exp.overhead_s": plan_s - cell_work if plan_s else 0.0,
        "exp.cache_hit_s": d("exp.plan"),
        "exp.sink_s": d("exp.sink"),
        "fault.campaign_s": d("fault.campaign"),
        "fault.conc_campaign_s": d("fault.conc_campaign"),
        "model_check.run_s": d("model_check.run"),
        "model_check.conc_run_s": d("model_check.conc_run"),
        "trace.remainder_s": remainder,
        "trace.wall_s": d("workload"),
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.span_cost_s": traced["counters"].get("trace.span_cost_s",
                                                    0.0),
        "trace.spans": len(spans),
    }
    for name in ("pipeline.retired", "pipeline.issued",
                 "pipeline.squashed_insts", "mem.l1d.miss_rate",
                 "mem.l2.miss_rate", "mem.nvm.writes",
                 "mem.nvm.accept_rejects", "mem.nvm.occupancy_mean",
                 "mem.coherence.snoops", "mem.coherence.invalidations",
                 "exp.cache_writes", "exp.cache_hits", "fault.points",
                 "fault.images_per_s", "model_check.durable_sets",
                 "model_check.unique_images"):
        m[name] = k.get(name, 0)
    for key, paper in PAPER.items():
        pct = "model." + key + "_pct"
        value = k.get(pct)
        m[pct] = value if value is not None else 0.0
        m["model." + key + "_err_pts"] = (abs(value - paper)
                                          if value is not None else 0.0)
    for name in LAYERS:
        m[name + ".self_s"] = layer[name]
    return m


def report(workload, passes, layers):
    """Human-readable lines ahead of the result line."""
    for i, p in enumerate(passes):
        print(f"# {workload} pass {i}: wall {p['wall_s']:.3f} s, cpu "
              f"{p['cpu_s']:.3f} s, rss {p['rss_mb']:.0f} MB, "
              f"{p['ok']}/{p['attempted']} ops ok")
    if not layers:
        return
    print("# layer self time (traced pass); these and the remainder "
          "add up to trace.wall_s")
    for name in LAYERS:
        print(f"#   {name:<12} {layers[name + '.self_s']:9.4f} s")
    print(f"#   {'remainder':<12} {layers['trace.remainder_s']:9.4f} s")
    print(f"#   {'wall':<12} {layers['trace.wall_s']:9.4f} s  "
          f"(sim.unattributed_s {layers['sim.unattributed_s']:.4f} s)")
    print(f"# tracing overhead {layers['trace.overhead_s']:+.4f} s "
          "(traced minus untraced wall: mostly host noise and the split "
          "vs runPlan difference); the spans themselves cost "
          f"{layers['trace.span_cost_s']:.6f} s")
    if workload == "fig9-sweep":
        print("# fidelity against the paper's Fig. 9 (the only "
              "reference; no hardware measurement exists):")
        for key, paper in PAPER.items():
            value = layers["model." + key + "_pct"]
            print(f"#   {key:<12} {value:6.2f} %  paper {paper:.0f} %"
                  f"  error {value - paper:+6.2f} pts")


def format_expected(data):
    """JSON with one operation per line, so a re-record diffs cleanly."""
    scales = []
    for scale in sorted(data):
        seeds = []
        for seed in sorted(data[scale], key=int):
            ops = ",\n".join(f"   {json.dumps(op)}: {json.dumps(pin)}"
                             for op, pin in sorted(data[scale][seed].items()))
            seeds.append(f"  {json.dumps(seed)}: {{\n{ops}\n  }}")
        scales.append(f" {json.dumps(scale)}: {{\n" + ",\n".join(seeds)
                      + "\n }")
    return "{\n" + ",\n".join(scales) + "\n}\n"


def record_expected(args, passes):
    """Pin this seed's per-operation cycles and digests."""
    if not all(p["finished"] and all(not op["problem"] for op in p["ops"])
               for p in passes):
        raise BenchError("not recording: a pass died or a check failed")
    path = EXPECTED_DIR / f"{args.workload}.json"
    data = load_expected(args.workload)
    ops = {op["name"]: [op["cycles"], op["digest"]]
           for op in passes[0]["ops"]}
    data.setdefault(scale_name(args), {})[str(args.seed)] = ops
    EXPECTED_DIR.mkdir(exist_ok=True)
    path.write_text(format_expected(data))
    log(f"recorded {len(ops)} operations for seed {args.seed} in {path}")


def scale_name(args):
    return "tiny" if args.tiny else "full"


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42,
                    help="workload seed (default 42)")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measurement budget per run (default 40)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the smoke test")
    ap.add_argument("--record", action="store_true",
                    help="pin this seed's outputs in perfbench/expected/"
                         " (explain the change in CHANGES.md)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except BenchError as e:
        log(f"run.py: {e}")
        return 1

    pins = load_expected(args.workload).get(scale_name(args), {})
    expected = {} if args.record else pins.get(str(args.seed), {})
    if not expected and not args.record:
        log(f"note: seed {args.seed} has no pinned outputs; only the "
            "workload's own checks apply")

    passes = []
    start = time.monotonic()
    passes.append(run_pass(binary, args, False, expected))
    if args.trace:
        passes.append(run_pass(binary, args, True, expected))
    else:
        while passes[-1]["finished"]:
            longest = max(p["elapsed"] for p in passes)
            if time.monotonic() - start + longest > args.seconds:
                break
            passes.append(run_pass(binary, args, False, expected))

    if args.record:
        try:
            record_expected(args, passes)
        except BenchError as e:
            log(f"run.py: {e}")
            return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = attempted - sum(p["ok"] for p in passes)
    layers = None
    if args.trace:
        layers = per_layer(passes[1], passes[0])
        values, kind = layers, "per_layer"
    else:
        values, kind = end_to_end(passes), "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in json.loads(BENCHMARK_JSON.read_text())[kind]}
    report(args.workload, passes, layers)
    print(json.dumps({
        "correct": failed == 0 and all(p["finished"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
