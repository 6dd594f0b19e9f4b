"""Benchmark of singletsim, end to end and per layer.

    python3 perfbench/run.py --workload verify_grid --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout that holds ``src/singletsim`` and
``BENCHMARK.json``.  This process imports nothing of singletsim.  It starts
fresh worker processes (worker.py) one after another, each of which times its
own set-up and then runs one pass of the workload's legs (workloads.py)
in-process, until ``--seconds`` is spent and at least MIN_PASSES passes are
done.  Each pass is a fresh process on the same seed-derived inputs, so set-up
time and peak memory are sampled once per pass.  Times are divided by the
run's machine slowdown, measured with worker.calibrate(), and so read as
seconds at a reference speed (see NOTES.md).  With ``--trace 1``, untraced
and traced passes alternate; the traced ones give the per-layer metrics
(layers.py), and the untraced ones the reference for the tracing overhead.

It prints readable lines, then as the last line one JSON object with the keys
correct, attempted, failed and metrics.  attempted and failed count the timed
legs of every pass.  Known defects of the program (workloads.DefectReport)
run once per run in a worker of their own and are reported apart: in their
own lines, and in the per-layer failed_ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import workloads
from tracer import failed_ratio, median, tail_percentile
from worker import CAL_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

MIN_PASSES = 3          # untraced passes of an untraced run
MIN_TRACED_PASSES = 2   # of each kind in a traced run
PASS_CAP_S = 120.0      # start no pass after this, whatever the minimum
WORKER_TIMEOUT_S = 150.0


class WorkerFailed(RuntimeError):
    pass


def worker(mode, args):
    cmd = [sys.executable, WORKER, mode, args.workload, str(args.seed), OUT]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if r.returncode != 0 or not r.stdout.strip():
        raise WorkerFailed(f"{mode} worker exited {r.returncode}: {r.stderr.strip()[-800:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def measure(args):
    """Pass workers until the time is spent; traced and untraced passes
    alternate when tracing.  Every worker gives one set-up sample.  Returns
    the set-up samples, the untraced and traced passes, and the slowdown."""
    setups, untraced, traced, calib = [], [], [], []
    need = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        mode = "trace" if args.trace and len(traced) < len(untraced) else "pass"
        r = worker(mode, args)
        setups.append(r["setup"])
        calib += r["calib"]
        (traced if mode == "trace" else untraced).append(r)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= need and (not args.trace or len(traced) >= need)
        if enough and elapsed + median(durations) > args.seconds:
            break
        if elapsed > PASS_CAP_S and (not args.trace or traced):
            break
    return setups, untraced, traced, median(calib) / CAL_REF_S


def leg_medians(passes):
    keys = passes[0]["pass"]["leg_s"]
    return {k: median([p["pass"]["leg_s"][k] for p in passes]) for k in keys}


def throughput(passes, single_thread):
    """Trials per second of the median pass's 1-thread legs, or of all its
    other legs; 0 when those legs simulate no trials."""
    legs = [leg for leg in passes[0]["legs"] if (leg["threads"] == 1) == single_thread]
    trials = sum(leg["trials"] for leg in legs)
    if not trials:
        return 0.0
    seconds = leg_medians(passes)
    return trials / sum(seconds[leg["key"]] for leg in legs)


def per_layer(setups, untraced, traced, defects, slowdown):
    m = {k: median([p["layers"][k] for p in traced]) for k in traced[0]["layers"]}
    for name in traced[0]["samples"]:
        samples = [x for p in traced for x in p["samples"][name]]
        pct, tail = tail_percentile(samples)
        m[f"{name}.p50_us"] = median(samples) * 1e6 if samples else 0.0
        m[f"{name}.tail_us"] = tail * 1e6
        m[f"{name}.tail_pct"] = pct
        m[f"{name}.n"] = len(samples)
    for key in setups[0]:
        if key != "setup_s":
            m[key] = median([s[key] for s in setups])
    m["machine.slowdown"] = slowdown
    m["wall_raw_s"] = sum(leg_medians(untraced).values())
    m["setup_raw_s"] = median([s["setup_s"] for s in setups])
    m["trace.overhead_ratio"] = (sum(leg_medians(traced).values())
                                 / sum(leg_medians(untraced).values()))
    m["trials_per_s"] = throughput(untraced, single_thread=False)
    m["trials_per_s_1t"] = throughput(untraced, single_thread=True)
    m.update(defects["metrics"])
    passes = untraced + traced
    failing = set(defects["failing_legs"])
    failed = sum(len(set(p["pass"]["failed"]) | failing) for p in passes) + defects["failed"]
    attempted = len(passes[0]["legs"]) * len(passes) + defects["attempted"]
    m["failed_ratio"] = failed_ratio(failed, attempted)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "singletsim")):
        print(f"no singletsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    try:
        # first, so that its set-up, which is not sampled, warms the bytecode cache
        defects = worker("defects", args)["defects"]
        setups, untraced, traced, slowdown = measure(args)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 3

    print("env:", json.dumps(untraced[0]["env"]))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload}: {why[args.workload]}")
    passes = untraced + traced
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"set-up samples: {len(setups)}; machine slowdown: {slowdown:.4f}")
    for key, seconds in leg_medians(untraced).items():
        line = f"leg {key}: median {seconds:.4f} s"
        fails = [p["pass"]["failed"][key] for p in passes if key in p["pass"]["failed"]]
        if fails:
            line += f", failed in {len(fails)} of {len(passes)} passes: {fails[0]}"
        print(line)
    for line in defects["lines"]:
        print(line)

    if args.trace:
        values = per_layer(setups, untraced, traced, defects, slowdown)
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": sum(leg_medians(untraced).values()) / slowdown,
            "setup_s": median([s["setup_s"] for s in setups]) / slowdown,
            "peak_rss_mb": min(p["peak_rss_mb"] for p in untraced),
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']} = {values[entry['name']]!r} {entry['unit']}")
    attempted = len(passes[0]["legs"]) * len(passes)
    failed = sum(len(p["pass"]["failed"]) for p in passes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
