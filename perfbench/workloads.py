"""The four workloads: the legs each one runs, the check on each leg's output,
and the known-defect probes that run once per run.

A leg is one operation: one ``singletsim.cli.main`` invocation, run
in-process, or for normalization one direct call of the public function.  A
workload's legs run in sequence, each after the previous one returns (a
closed loop with one caller).  Every input comes from the run's seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

MODELS = ("A", "B1", "B2", "C", "QM")

# sizes: big enough that a leg is dominated by the layer it is there to load
N_VERIFY = 1 << 17      # trials per angle; one full chunk per angle
GRID = 13
N_WATCH = 1 << 19       # watch-driven trials per model; four chunks
N_LOGGED = 5000         # logged trials per model; the event log sets peak RSS
N_WATCH_LOGGED = 5000   # trials of the known-defect watch-driven logged leg
NORM_THETAS = (1.0, 60.0, 90.0, 179.0)

# output checks
GOF_P_MIN = 1e-6        # flat-law goodness of fit; a false alarm is ~1e-6 per leg
M_B1_GRID8 = 0.27614237491539645  # freewill --model B1 --grid 8 at the seed commit
M_ERROR_BAR = 1e-6      # the quadrature error bar freewill prints
CHSH_QUANTUM = (2.8274, 2.0 * math.sqrt(2.0) + 1e-9)
NORM_TOL = 1e-6


@dataclass
class Outcome:
    rc: Optional[int]   # exit code; None when the leg raised
    out: str = ""
    err: str = ""
    value: object = None


@dataclass
class Leg:
    key: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome, dict], Optional[str]]  # failure reason, or None
    threads: int = 2        # 1 marks the single-thread twin of a 2-thread leg
    trials: int = 0         # simulated trials
    span: Optional[str] = "cli.main"


@dataclass
class DefectReport:
    """Known defects of the program, kept visible apart from the timed legs."""

    attempted: int = 0          # extra operations run once per run
    failed: int = 0
    failing_legs: set = field(default_factory=set)  # timed legs a defect fails
    metrics: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# running

def cli_run(mods, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = mods["cli"].main(argv)
        except Exception:  # a crashing leg is a failed operation, not a crashed benchmark
            return Outcome(None, out.getvalue(), err.getvalue() + traceback.format_exc())
        return Outcome(rc, out.getvalue(), err.getvalue())
    return run


def direct_run(fn):
    def run():
        try:
            return Outcome(0, value=fn())
        except Exception:
            return Outcome(None, err=traceback.format_exc())
    return run


# ---------------------------------------------------------------------------
# checks

def all_of(*checks):
    def check(o, done):
        for c in checks:
            reason = c(o, done)
            if reason:
                return reason
        return None
    return check


def exit_ok(o, done):
    if o.rc == 0:
        return None
    return f"exit {o.rc}: {o.err.strip().splitlines()[-1] if o.err.strip() else ''}"


def same_stdout(twin):
    def check(o, done):
        return None if o.out == done[twin].out else f"output differs from {twin}"
    return check


def same_file(path, twin_path):
    def check(o, done):
        with open(path, "rb") as a, open(twin_path, "rb") as b:
            return None if a.read() == b.read() else f"{path} differs from {twin_path}"
    return check


def read_count_tables(mods, path):
    tables = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            tb = tables.setdefault(row["pair_label"], mods["protocol"].CountTable(
                row["pair_label"], row["model"], None, {}))
            tb.counts[(int(row["sigma"]), int(row["tau"]))] = int(row["count"])
    return list(tables.values())


def flat_law(mods, kind, counts_csv):
    def check(o, done):
        for tb in read_count_tables(mods, counts_csv):
            _, p, _ = mods["metrics"].chi_square_gof(tb, kind)
            if not p > GOF_P_MIN:
                return f"{tb.label}: flat-law p={p:.3g}"
        return None
    return check


def printed_count(pattern, expected):
    def check(o, done):
        m = re.search(pattern, o.out)
        got = int(m.group(1)) if m else None
        return None if got == expected else f"{got} messages, expected {expected}"
    return check


def printed_float(pattern):
    def parse(o):
        m = re.search(pattern, o.out, re.MULTILINE)
        return float(m.group(1)) if m else math.nan
    return parse


M_PRINTED = printed_float(r"^M = (\S+)")
E_PRINTED = printed_float(r"^E = (\S+)")


# ---------------------------------------------------------------------------
# workloads

def verify_grid(mods, seed, workdir):
    argv = ["verify", "--model", ",".join(MODELS), "--grid", str(GRID),
            "--trials", str(N_VERIFY), "--seed", str(seed)]
    trials = len(MODELS) * GRID * N_VERIFY
    legs = [
        Leg("verify@2", cli_run(mods, argv + ["--threads", "2"]), exit_ok,
            threads=2, trials=trials),
        Leg("verify@1", cli_run(mods, argv + ["--threads", "1"]),
            all_of(exit_ok, same_stdout("verify@2")), threads=1, trials=trials),
    ]
    return legs, DefectReport  # no known defect to probe


def watch_free(mods, seed, workdir):
    legs = []
    for kind in MODELS:
        for threads in (2, 1):
            out = os.path.join(workdir, f"{kind}@{threads}")
            counts = os.path.join(out, "counts.csv")
            checks = [exit_ok, flat_law(mods, kind, counts)]
            if threads == 1:
                checks.append(same_file(counts, os.path.join(workdir, f"{kind}@2", "counts.csv")))
            argv = ["simulate", "--model", kind, "--watch-driven", "--trials", str(N_WATCH),
                    "--seed", str(seed), "--threads", str(threads), "--out", out]
            legs.append(Leg(f"{kind}@{threads}", cli_run(mods, argv), all_of(*checks),
                            threads=threads, trials=N_WATCH))

    def defects():
        # every model but B2 reads its settings off the watches
        report = DefectReport()
        roundtrip(mods, seed, N_WATCH, report)
        if report.metrics["watches.roundtrip_fail_share"] > 0.0:
            report.failing_legs = {leg.key for leg in legs if not leg.key.startswith("B2@")}
        return report

    return legs, defects


def logged_audit(mods, seed, workdir):
    legs = []
    for kind in MODELS:
        out = os.path.join(workdir, kind)
        argv = ["simulate", "--model", kind, "--theta-deg", "60", "--trials", str(N_LOGGED),
                "--seed", str(seed), "--log-events", "--threads", "2", "--out", out]
        legs.append(Leg(f"log {kind}", cli_run(mods, argv), exit_ok, trials=N_LOGGED))
        messages = (2 if kind == "QM" else 4) * N_LOGGED
        legs.append(Leg(
            f"audit {kind}",
            cli_run(mods, ["audit", "--log", os.path.join(out, "events.ndjson"),
                           "--model", kind]),
            all_of(exit_ok, printed_count(rf"audit: PASS \((\d+) messages", messages))))

    def defects():
        report = DefectReport(attempted=1)
        argv = ["simulate", "--model", "A", "--watch-driven", "--trials", str(N_WATCH_LOGGED),
                "--seed", str(seed), "--log-events", "--out",
                os.path.join(workdir, "watch-logged")]
        t0 = time.perf_counter()
        o = cli_run(mods, argv)()
        report.metrics["watch_logged.s"] = time.perf_counter() - t0
        reason = exit_ok(o, {})
        report.failed = int(reason is not None)
        report.metrics["watch_logged.failed"] = report.failed
        report.lines.append(f"known defect: {' '.join(argv[:-2])}: "
                            f"{reason or 'exit 0'}")
        roundtrip(mods, seed, N_WATCH_LOGGED, report)
        return report

    return legs, defects


def analytic(mods, seed, workdir):
    legs = []
    for kind in ("B1", "B2"):
        def check(o, done, kind=kind):
            m = M_PRINTED(o)
            if not abs(m - M_B1_GRID8) <= M_ERROR_BAR:
                return f"M={m!r}, seed commit printed {M_B1_GRID8!r}"
            if kind == "B2" and m != M_PRINTED(done["freewill B1"]):
                return f"M for B2 ({m!r}) differs from M for B1"
            return None
        legs.append(Leg(f"freewill {kind}",
                        cli_run(mods, ["freewill", "--model", kind, "--grid", "8"]),
                        all_of(exit_ok, check)))
    for kind in ("A", "B1", "C", "QM"):
        lo, hi = (4.0, 4.0) if kind == "C" else CHSH_QUANTUM

        def check(o, done, lo=lo, hi=hi):
            e = E_PRINTED(o)
            return None if lo <= e <= hi else f"E={e!r} outside [{lo}, {hi}]"
        argv = ["chsh", "--model", kind, "--optimize", "--coarse-deg", "1", "--seed", str(seed)]
        legs.append(Leg(f"chsh {kind}", cli_run(mods, argv), all_of(exit_ok, check)))
    geometry, metrics, models = mods["geometry"], mods["metrics"], mods["models"]
    for deg in NORM_THETAS:
        a = math.radians(deg)
        pair = models.SettingsPair(geometry.UnitVector(0.0, 0.0, 1.0),
                                   geometry.UnitVector.normalized(math.sin(a), 0.0, math.cos(a)))

        def check(o, done):
            v = o.value[0]
            return None if abs(v - 1.0) <= NORM_TOL else f"normalization {v!r}"
        legs.append(Leg(f"normalization {deg:g}",
                        direct_run(lambda pair=pair: metrics.normalization_check(pair, "quadrature")),
                        all_of(exit_ok, check), span=None))
    return legs, DefectReport  # no known defect to probe


WORKLOADS = {
    "verify_grid": verify_grid,
    "watch_free": watch_free,
    "logged_audit": logged_audit,
    "analytic": analytic,
}


# ---------------------------------------------------------------------------
# watch round trip

def roundtrip(mods, seed, n, report, block=1 << 17):
    """Re-derive both views of each watch-driven setting over the pitch times
    that trial ids 0..n-1 span, with the public vectorized watch reads: the
    pitcher's clockwise read at t_pitch, and the batter's mirrored read at
    arrival corrected by the time of flight.  Records the worst disagreement
    and the share of trials beyond SETTING_AGREEMENT_TOL."""
    import numpy as np

    protocol, watches = mods["protocol"], mods["watches"]
    cfg = protocol.ExperimentConfig(trials=n, seed=seed, watch_driven=True)
    tol = protocol.SETTING_AGREEMENT_TOL
    rng = np.random.default_rng(seed)
    worst, beyond = 0.0, 0
    for lo in range(0, n, block):
        ids = np.arange(lo, min(n, lo + block))
        t = cfg.bank.watch_H.epoch + (ids + rng.uniform(size=ids.size)) * cfg.pitch_gap
        err = np.zeros(ids.size)
        for w in (cfg.bank.watch_H, cfg.bank.watch_T):
            pitcher = watches.watch_vectors_array(w, t)
            batter = watches.batter_vectors_array(w.mirrored(), t + cfg.delta_t, cfg.delta_t)
            err = np.maximum(err, np.abs(pitcher - batter).max(axis=1))
        worst = max(worst, float(err.max()))
        beyond += int((err > tol).sum())
    report.metrics.update({
        "watches.roundtrip_err_max": worst,
        "watches.roundtrip_fail_share": beyond / n,
        "watches.setting_agreement_tol": tol,
    })
    report.lines.append(f"known defect check: watch round trip over trial ids 0..{n - 1}: "
                        f"max err {worst:.3e} vs tolerance {tol:g}, "
                        f"{beyond} of {n} trials beyond it")
