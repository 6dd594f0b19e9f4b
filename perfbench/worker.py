"""One fresh process of the benchmark.  It times its own set-up, does what
run.py asks of it, and prints one JSON line.

    python3 perfbench/worker.py <mode> <workload> <seed> <out directory>

Modes:
  pass     set-up, then one untraced pass of the workload's legs
  trace    set-up, then one traced pass; also writes that pass's spans to
           <out directory>/trace-<workload>-seed<seed>.json
  defects  set-up, then the workload's known-defect probes

Set-up is the import of NumPy, SciPy and singletsim, then the lazy set-up a
first call pays: the default watch bank with its incommensurability check,
the rejection bound, and the first quadrature, which fills the
Gauss-Legendre cache.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from collections import defaultdict

import layers
import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MODULES = ("cli", "protocol", "models", "metrics", "optimizer", "watches", "geometry")

# A round figure near the median time of calibrate() on a 2-vCPU Intel Xeon
# KVM guest with Python 3.11.7 and NumPy 2.4.6 (0.014 to 0.038 s over a
# minute).  run.py divides times by the run's median calibrate() time over
# this, to report them at that reference speed.
CAL_REF_S = 0.02


def setup():
    clock = time.perf_counter
    t0 = clock()
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import singletsim.cli  # noqa: F401
    from singletsim import geometry, metrics, models, watches

    t1 = clock()
    watches.WatchBank.default()
    t2 = clock()
    models.rejection_bound()
    t3 = clock()
    z = geometry.UnitVector(0.0, 0.0, 1.0)
    metrics.normalization_check(models.SettingsPair(z, geometry.UnitVector(1.0, 0.0, 0.0)))
    t4 = clock()
    return {
        "setup_s": t4 - t0,
        "setup.import_s": t1 - t0,
        "setup.watch_bank_s": t2 - t1,
        "models.rejection_bound.s": t3 - t2,
        "setup.first_quadrature_s": t4 - t3,
    }


def environment(mods):
    import numpy
    import scipy

    protocol = mods["protocol"]
    try:
        bitgen = type(protocol.agent_stream(0, 0, "pitcher").bit_generator).__name__
    except AttributeError:
        bitgen = "unknown"
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        try:
            with open(os.path.join(cache_dir, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, index, "size")) as fh:
                caches[f"l{level}"] = fh.read().strip()
        except OSError:
            continue
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bit_generator": bitgen,
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "chunk_trials": getattr(protocol, "_CHUNK", None),
        "src_lines": src_lines,
    }


def calibrate(reps=3):
    """Times of a fixed kernel that touches nothing of singletsim: a sample
    of the machine's current speed.  Its parts mirror the kinds of work the
    legs do: interpreted arithmetic, NumPy calls on one-element arrays,
    SHA-256 and JSON encoding, and NumPy work on large arrays."""
    import numpy as np

    big = np.arange(200_000, dtype=float)
    one = np.array([0.5])
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(10_000):
            acc += i * i % 7
        for _ in range(1_000):
            f = one - np.floor(one)
            np.column_stack([f, f, f])
        for i in range(3_000):
            hashlib.sha256(b"%d" % i).digest()
        json.dumps([{"i": i, "v": [0.5, 1.5]} for i in range(1_000)])
        for _ in range(2):
            np.sin(big).sum()
            np.sort(big[::-1])
        times.append(time.perf_counter() - t0)
    return times


def run_pass(legs, calib, tracer=None):
    """Run every leg once, in order, checking each one's output.  Returns the
    pass's wall time, per-leg seconds (check included) and failures; when
    traced, also its spans and counts and the busy time per model kind of
    each leg.  Calibration samples, taken before each leg and after the last,
    go to ``calib`` and are not part of any leg's time."""
    result = {"leg_s": {}, "failed": {}}
    spans, counts, by_leg = [], defaultdict(float), {}
    done = {}
    for leg in legs:
        calib += calibrate()
        t0 = time.perf_counter()
        if tracer is not None and leg.span:
            with tracer.region(leg.span):
                o = leg.run()
        else:
            o = leg.run()
        try:
            reason = leg.check(o, done)
        except Exception as exc:  # a check that cannot read its input fails the leg
            reason = f"check raised {exc!r}"
        result["leg_s"][leg.key] = time.perf_counter() - t0
        done[leg.key] = o
        if reason:
            result["failed"][leg.key] = reason
        if tracer is not None:
            leg_spans, leg_counts = tracer.take()
            spans += leg_spans
            for k, v in leg_counts.items():
                counts[k] += v
            by_leg[leg.key] = layers.busy_by_kind(leg_spans)
    result["wall"] = sum(result["leg_s"].values())
    calib += calibrate()
    return result, spans, counts, by_leg


def write_trace(path, doc, spans):
    """The pass's spans, columnar, times in microseconds from its start."""
    names = sorted({sp[2] for sp in spans})
    threads = sorted({sp[5] for sp in spans})
    t0 = min((sp[3] for sp in spans), default=0.0)
    doc["spans"] = {
        "columns": ["id", "parent", "name", "start_us", "end_us", "thread", "tag"],
        "names": names,
        "rows": [[sp[0], sp[1], names.index(sp[2]), round((sp[3] - t0) * 1e6, 1),
                  round((sp[4] - t0) * 1e6, 1), threads.index(sp[5]), sp[6]]
                 for sp in spans],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def defect_metrics(mods, report):
    """Every known-defect metric, 0 where the workload has no such probe."""
    m = {
        "watches.roundtrip_err_max": 0.0,
        "watches.roundtrip_fail_share": 0.0,
        "watches.setting_agreement_tol": mods["protocol"].SETTING_AGREEMENT_TOL,
        "watch_logged.s": 0.0,
        "watch_logged.failed": 0,
    }
    m.update(report.metrics)
    return {"attempted": report.attempted, "failed": report.failed,
            "failing_legs": sorted(report.failing_legs), "metrics": m,
            "lines": report.lines}


def main(argv):
    mode, workload, seed, out = argv
    result = {"setup": setup(), "calib": calibrate()}
    mods = {name: importlib.import_module(f"singletsim.{name}") for name in MODULES}
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out)
    try:
        legs, defects = workloads.WORKLOADS[workload](mods, int(seed), workdir)
        result["legs"] = [{"key": leg.key, "threads": leg.threads, "trials": leg.trials}
                          for leg in legs]
        if mode == "defects":
            result["defects"] = defect_metrics(mods, defects())
        else:
            tracer = Tracer() if mode == "trace" else None
            if tracer is not None:
                layers.instrument(tracer, mods)
            try:
                result["pass"], spans, counts, by_leg = run_pass(legs, result["calib"], tracer)
            finally:
                if tracer is not None:
                    tracer.unwrap()
            if tracer is not None:
                result["layers"], result["samples"] = layers.pass_metrics(spans, counts)
                write_trace(os.path.join(out, f"trace-{workload}-seed{seed}.json"),
                            {"workload": workload, "seed": int(seed),
                             "legs": result["legs"], "pass": result["pass"],
                             "layers": result["layers"], "busy_by_leg": by_leg}, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment(mods)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
