"""Command-line front end.

Subcommands: simulate, verify, chsh, freewill, audit.  Exit codes are a
stable contract: 0 success, 1 usage or config error, 2 verification failure,
3 audit violation, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import closing
from functools import cache, partial
from itertools import chain, islice

import numpy as np

from . import __version__
from . import watches as wt
from .geometry import UnitVector, planar_vector
from .metrics import (
    CHSH_LABELS,
    GOF_MIN_TRIALS,
    ChshConfig,
    chi_square_gof,
    chsh_analytic,
    chsh_empirical,
    chsh_standard_error,
    free_will_M,
    normalization_check,
    two_sample_chi_square,
)
from .models import MODEL_KINDS, SettingsPair
from .optimizer import SearchOptions, maximize_chsh
from .protocol import (
    OUTCOMES,
    SETTING_AGREEMENT_TOL,
    ExperimentConfig,
    ProtocolIntegrityError,
    _stream,
    audit_locality,
    chunk_passes,
    count_jobs,
    count_tables,
    f17,
    outcome_cells,
    pool_map,
    run_experiment,
    write_counts_csv,
    write_event_log,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_AUDIT = 3
EXIT_RUNTIME = 4

P_THRESHOLD = 1e-3

_GRID_CANDIDATE_CAP = 256


class UsageError(Exception):
    pass


def _threads(args) -> int:
    """--threads, else SINGLET_SIM_THREADS, else 1; below 1, or a variable
    that is not an integer, is a usage error."""
    n = getattr(args, "threads", None)
    if n is None:
        env = os.environ.get("SINGLET_SIM_THREADS") or "1"
        try:
            n = int(env)
        except ValueError:
            raise UsageError(f"SINGLET_SIM_THREADS must be an integer >= 1, got {env!r}") from None
    _at_least("thread count", n, 1)
    return n


def _at_least(name, value, minimum, why=""):
    """Refuse a value of ``name`` below ``minimum``, saying ``why`` if given."""
    if value < minimum:
        raise UsageError(f"{name} must be >= {minimum}{' ' + why if why else ''}, got {value}")


def _theta_pairs(theta_list):
    """Fixed settings pairs for a list of relative angles: n_L on the z axis,
    n_R rotated by theta in the x-z plane."""
    return [(f"theta={deg:g}", SettingsPair(UnitVector(0.0, 0.0, 1.0), planar_vector(deg)))
            for deg in theta_list]


def _load_json(path, kind):
    """The JSON document in ``path``, whose top level must be of type ``kind``
    (list or dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, kind):
        what = "a list" if kind is list else "an object"
        raise ValueError(f"{path}: top level must be {what}")
    return doc


def _number(v) -> bool:
    """Whether a JSON value is a number (a boolean is not)."""
    return type(v) in (int, float)


def _whole(v) -> bool:
    """Whether a JSON value is a whole number, such as 7 or 1e6."""
    return type(v) is int or (type(v) is float and v.is_integer())


def _periods(v) -> bool:
    """Whether a JSON value is the two hand periods of a watch."""
    return type(v) is list and len(v) == 2 and all(_number(x) and x > 0 for x in v)


# the keys of a simulate run's record, and what each value of a --config
# file must be, checked before use
_CONFIG_KEYS = {
    "model": ("a string", lambda v: type(v) is str),
    "trials": ("a whole number", _whole),
    "seed": ("a whole number", _whole),
    "delta_t": ("a number", _number),
    "epoch": ("a number", _number),
    "watch_driven": ("true or false", lambda v: type(v) is bool),
    "theta_deg": ("a list of numbers", lambda v: type(v) is list and all(map(_number, v))),
    "settings_pairs": ("a list of settings pairs", lambda v: type(v) is list),
    "watch_periods": ("an object whose H and T are each two positive numbers",
                      lambda v: type(v) is dict and all(_periods(v.get(k)) for k in "HT")),
}


def _unit(doc, key, where) -> UnitVector:
    """The direction of the vector ``key`` of a JSON object, three numbers;
    ``where`` names the object's file in errors."""
    if key not in doc:
        raise ValueError(f"{where}: missing vector {key!r}")
    v = doc[key]
    if not (isinstance(v, list) and len(v) == 3 and all(map(_number, v))):
        raise ValueError(f"a vector must be three numbers, got {v!r}")
    return UnitVector.normalized(*v)


def _pair(entry, where) -> SettingsPair:
    """A settings pair from a JSON object with vectors n_L and n_R."""
    if not isinstance(entry, dict):
        raise ValueError(f"a settings pair must be an object, got {entry!r}")
    return SettingsPair(_unit(entry, "n_L", where), _unit(entry, "n_R", where))


def _settings_pairs(entries, where):
    """The labelled settings pairs of a JSON list of settings-pair objects;
    ``where`` names the list's file in errors."""
    pairs = []
    for i, entry in enumerate(entries):
        pair = _pair(entry, where)  # checks that the entry is an object
        label = entry.get("label", f"pair{i}")
        if type(label) is not str:
            raise ValueError(f"{where}: a label must be a string, got {label!r}")
        pairs.append((label, pair))
    if not pairs:
        raise UsageError(f"no settings pairs in {where}")
    return pairs


def _build_experiment_config(args) -> tuple[dict, ExperimentConfig]:
    """The record of a simulate run, and the configuration built from it.
    The record is the --config file's keys, each flag given put over them,
    then the defaults.  It holds a settings file's list as read, not
    normalized, so manifest.json, which holds the record, rebuilds the run."""
    doc = _load_json(args.config, dict) if args.config else {}
    for key, (what, ok) in _CONFIG_KEYS.items():
        if key in doc and not ok(doc[key]):
            raise ValueError(f"{args.config}: {key!r} must be {what}, got {doc[key]!r}")
    record = {k: v for k, v in doc.items() if k in _CONFIG_KEYS}
    sources = [f for f in ("watch_driven", "theta_deg", "settings_file")
               if getattr(args, f) is not None]
    if len(sources) > 1:
        raise UsageError("give only one of --watch-driven, --theta-deg and --settings-file")
    if sources:  # a settings flag replaces every settings source of the file
        for key in ("watch_driven", "theta_deg", "settings_pairs"):
            record.pop(key, None)
    record.update((k, v) for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None)
    if args.settings_file is not None:
        record["settings_pairs"] = _load_json(args.settings_file, list)
    if "model" not in record:
        raise UsageError("--model is required (or 'model' in the config file)")
    if record["model"] not in MODEL_KINDS:
        raise UsageError(f"unknown model {record['model']!r}; choose from {MODEL_KINDS}")
    record = {"trials": 10000, "seed": 0, "delta_t": ExperimentConfig.delta_t,
              "epoch": wt.WatchSpec.epoch, "watch_periods": wt.DEFAULT_PERIODS, **record}
    record.update(trials=int(record["trials"]), seed=int(record["seed"]))
    if "theta_deg" in record and "settings_pairs" in record:
        raise ValueError(f"{args.config}: give one of 'theta_deg' and 'settings_pairs'")
    pairs = []
    if "theta_deg" in record:
        pairs = _theta_pairs(record["theta_deg"])
    elif "settings_pairs" in record:
        pairs = _settings_pairs(record["settings_pairs"], args.settings_file or args.config)
    elif not record.get("watch_driven"):
        raise UsageError("need --theta-deg, --settings-file, or --watch-driven")
    epoch = float(record["epoch"])
    wp = record["watch_periods"]
    return record, ExperimentConfig(
        trials=record["trials"],
        seed=record["seed"],
        settings_pairs=pairs,
        watch_driven=record.get("watch_driven", False),
        delta_t=float(record["delta_t"]),
        bank=wt.WatchBank(*(wt.WatchSpec(*wp[k], wt.CLOCKWISE, epoch) for k in "HT")),
        log_events=args.log_events,
        threads=_threads(args),
    )


def _write_json(path, doc, **dump):
    """Write ``doc`` to ``path`` as JSON, indented by 2, and a line break."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, **dump)
        fh.write("\n")


def _write_manifest(out_dir, args, record):
    manifest = {
        "artifact_version": __version__,
        "command": args.argv,
        "options": {
            k: v for k, v in vars(args).items() if k not in ("func", "argv") and v is not None
        },
        **record,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    record, config = _build_experiment_config(args)
    model = record["model"]
    os.makedirs(args.out, exist_ok=True)
    tables, log = run_experiment(model, config)
    write_counts_csv(tables, os.path.join(args.out, "counts.csv"))
    if log is not None:
        write_event_log(log, os.path.join(args.out, "events.ndjson"))
        record = {**record, "events": len(log)}
    _write_manifest(args.out, args, record)
    for tb in tables:
        print(f"{model} {tb.label}: N={tb.n_total}", end="")
        for (s, t) in OUTCOMES:
            print(f"  P({s:+d},{t:+d})={tb.frequency(s, t):.5f}", end="")
        print()
    return EXIT_OK


def _verify_model(model, tables, inject_bias):
    rows = []
    n_ok = 0
    for tb in tables:
        counts = dict(tb.counts)
        if inject_bias:
            # negative control: shift 2% of the largest cell into the smallest
            hi = max(counts, key=counts.get)
            lo = min(counts, key=counts.get)
            moved = counts[hi] // 50
            counts[hi] -= moved
            counts[lo] += moved
            tb = type(tb)(tb.label, tb.model, tb.settings, counts)
        stat, p, dof = chi_square_gof(tb, model)
        ok = p > P_THRESHOLD
        n_ok += ok
        rows.append((f"chi2 {tb.label}", f"p={p:.4g}", ok))
    # one angle is allowed to fluctuate below the threshold
    overall = n_ok >= len(tables) - 1
    return rows, overall


def _verify_watches(seed):
    # keyed like every stream of a run, so any whole seed draws the times
    rng = _stream(seed, "verify", "watches")
    bank = wt.WatchBank.default()
    n = 10_000
    t = rng.uniform(0.0, 1.0e7, size=n)
    dt = rng.uniform(0.0, 100.0, size=n)
    worst = max(float(wt.round_trip_error(w, t - dt,
                                          wt.batter_vectors_array(w.mirrored(), t, dt)).max())
                for w in (bank.watch_H, bank.watch_T))
    return "watches", "watch round-trip", f"max err={worst:.3e}", worst <= SETTING_AGREEMENT_TOL


def _joint_cells(kind, config, chunk, workspace):
    """Counts of one chunk of a realization's joint samples over the
    (u octant, sigma, tau) cells, a job of :func:`pool_map`."""
    _, sig, tau, t_pitch, u = chunk_passes(kind, config, 0, chunk, workspace)
    del t_pitch  # freed before the binning's temporaries are taken
    oct_idx = (u[:, 0] >= 0) * 4 + (u[:, 1] >= 0) * 2 + (u[:, 2] >= 0)
    return np.bincount(oct_idx * 4 + outcome_cells(sig, tau), minlength=32)


def cmd_verify(args) -> int:
    models = args.model.split(",")
    for i, m in enumerate(models):
        if m not in MODEL_KINDS:
            raise UsageError(f"unknown model {m!r}")
        if m in models[:i]:  # its rows would print twice
            raise UsageError(f"model {m!r} is named twice")
    _at_least("--grid", args.grid, 2, "to span 0..180 degrees")
    _at_least("--trials", args.trials, GOF_MIN_TRIALS, "for the asymptotic test")
    threads = _threads(args)
    config = ExperimentConfig(
        trials=args.trials, seed=args.seed, threads=threads,
        settings_pairs=_theta_pairs([180.0 * k / (args.grid - 1) for k in range(args.grid)]))
    joint_kinds = ("B1", "B2") if "B1" in models and "B2" in models else ()
    joint = ExperimentConfig(trials=min(args.trials, 1_000_000), seed=args.seed, watch_driven=True)
    jobs = chain((partial(_joint_cells, kind, joint, ci)
                  for kind in joint_kinds for ci in range(joint.chunks())),
                 *(count_jobs(m, config) for m in models))
    # one pool runs the B1/B2 joint chunks, B1's first as the longest jobs, then
    # every model's counting chunks; each result is read off it in job order
    with closing(pool_map(jobs, threads)) as results:
        bins = [sum(islice(results, joint.chunks())) for _ in joint_kinds]
        model_tables = [count_tables(m, config, results) for m in models]
    all_rows = []
    overall = True
    for m, tables in zip(models, model_tables):
        rows, ok = _verify_model(m, tables, args.inject_bias)
        all_rows += [(m,) + r for r in rows]
        overall &= ok
        if m in ("B1", "B2"):
            for label, s in _theta_pairs((1.0, 60.0, 90.0, 179.0)):
                v, _ = normalization_check(s, "quadrature")
                ok_n = abs(v - 1.0) <= 1e-12
                overall &= ok_n
                all_rows.append((m, f"norm quad {label}", f"err={abs(v - 1.0):.2e}", ok_n))
    all_rows.append(_verify_watches(args.seed))
    overall &= all_rows[-1][-1]
    if joint_kinds:
        stat, p, dof = two_sample_chi_square(*bins)
        ok = p > P_THRESHOLD
        overall &= ok
        all_rows.append(("B1/B2", "equivalence in law", f"p={p:.4g}", ok))
    for row in all_rows:
        status = "PASS" if row[-1] else "FAIL"
        print(f"[{status}] " + " ".join(str(x) for x in row[:-1]))
    print("overall:", "PASS" if overall else "FAIL")
    return EXIT_OK if overall else EXIT_VERIFY


def cmd_chsh(args) -> int:
    if bool(args.config) == bool(args.optimize):
        raise UsageError("exactly one of --config or --optimize is required")
    if args.mode == "empirical":
        _at_least("--trials", args.trials, GOF_MIN_TRIALS, "for an empirical E")
    threads = _threads(args)
    # where the configuration comes from, then how it is scored; nothing is printed
    # until both are done and the report is written, so a config error leaves stdout empty
    if args.optimize:
        result = maximize_chsh(args.model, SearchOptions(coarse_deg=args.coarse_deg))
        cfg = result.config
    else:
        doc = _load_json(args.config, dict)
        cfg = ChshConfig(*(_unit(doc, k, args.config) for k in ("a", "a_prime", "b", "b_prime")))
    if args.mode == "analytic":
        res = chsh_analytic(args.model, cfg)
    else:
        res = chsh_empirical(args.model, cfg, args.trials, args.seed, threads)
    report = {"metric": "chsh", "model": args.model, "mode": args.mode, "E": res.E}
    if args.mode == "empirical":
        report["SE"] = chsh_standard_error(res.correlators, args.trials)
    if args.out:
        report["config"] = {k: [v.x, v.y, v.z] for k, v in vars(cfg).items()}
        _write_json(args.out, report)
    if args.optimize:
        print(f"angles_deg: {result.angles_deg}  evaluations: {result.evaluations}")
    else:
        for lab in CHSH_LABELS:
            print(f"C({lab}) = {res.correlators[lab]:+.6f}")
    for name, v in (("a", cfg.a), ("a'", cfg.a_prime), ("b", cfg.b), ("b'", cfg.b_prime)):
        print(f"{name:2s} = ({v.x:+.6f}, {v.y:+.6f}, {v.z:+.6f})")
    print(f"E = {f17(res.E)}")
    if "SE" in report:
        print(f"SE(E) = {f17(report['SE'])}")
    print("bounds: Bell 2, Cirel'son 2*sqrt(2) ~ 2.8284271, algebraic 4")
    return EXIT_OK


def _load_pairs_file(path):
    out = []
    for entry in _load_json(path, list):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValueError(f"a candidate must be a list of two settings pairs, got {entry!r}")
        out.append((_pair(entry[0], path), _pair(entry[1], path)))
    return out


def _grid_candidate_pairs(k: int):
    """Candidate pairs of settings pairs from a coplanar grid of k angles in
    [0, 180) degrees.  A settings pair is an ordered pair of distinct grid
    angles; the candidates are all pairs of two different settings pairs,
    thinned by a fixed stride to at most _GRID_CANDIDATE_CAP.  Only the kept
    candidates are built, each from its index, so any k takes about as long."""
    m = k * (k - 1) if k > 1 else 0  # settings pairs, row-major in (a, b)
    n = m * (m - 1) // 2  # their combinations, in lexicographic order
    stride = n // _GRID_CANDIDATE_CAP + 1 if n > _GRID_CANDIDATE_CAP else 1
    # settings pair j is the angles (a, b) = divmod(j, k - 1), b skipping a;
    # each vector and each settings pair is built once
    vector = cache(lambda a: planar_vector(180.0 * a / k))
    setting = cache(lambda a, b: SettingsPair(vector(a), vector(b + (b >= a))))

    def combination(i):
        # combination i is (x, y), x < y: x is the floor of the smaller root
        # of x (2m - x - 1) / 2 = i, the count of combinations that start below x
        x = (2 * m - 2 - math.isqrt((2 * m - 1) ** 2 - 8 * i - 1)) // 2
        y = i - x * (2 * m - x - 1) // 2 + x + 1
        return setting(*divmod(x, k - 1)), setting(*divmod(y, k - 1))

    return [combination(i) for i in range(0, n, stride)]


def cmd_freewill(args) -> int:
    if args.model == "QM":
        raise UsageError("freewill needs a hidden-variable model: A, B1, B2, or C")
    if args.pairs:
        candidates = _load_pairs_file(args.pairs)
    else:
        _at_least("--grid", args.grid, 2, "to give a pair of distinct settings pairs")
        candidates = _grid_candidate_pairs(args.grid)
    m, best_i = free_will_M(args.model, candidates)
    if args.out:  # written first, so a config error leaves stdout empty
        _write_json(args.out, {"metric": "free_will_M", "model": args.model, "M": m})
    sa, sb = candidates[best_i]
    print(f"M = {f17(m)}  (candidate {best_i} of {len(candidates)})")
    for name, s in (("s ", sa), ("s'", sb)):
        print(f"{name} n_L=({s.n_L.x:+.4f},{s.n_L.y:+.4f},{s.n_L.z:+.4f})"
              f" n_R=({s.n_R.x:+.4f},{s.n_R.y:+.4f},{s.n_R.z:+.4f})")
    return EXIT_OK


def cmd_audit(args) -> int:
    try:
        with open(args.log, encoding="utf-8") as fh:
            report = audit_locality(fh, args.model)
    except (OSError, ValueError) as exc:
        print(f"cannot read event log: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if report.passed:
        print(f"audit: PASS ({report.messages} messages, 0 violations)")
        return EXIT_OK
    print(f"audit: FAIL ({len(report.violations)} violations)")
    for seq, rule, desc in report.violations:
        print(f"  rule {rule} (seq {seq}): {desc}")
    return EXIT_AUDIT


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="singletsim",
        description="Monte Carlo simulator for communication-free hidden-variable "
                    "models of singlet correlations",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run trials and write counts CSV "
                         "(columns: model, pair_label, n_L xyz, n_R xyz, sigma, "
                         "tau, count, frequency, analytic)")
    sim.add_argument("--model", choices=MODEL_KINDS)
    sim.add_argument("--theta-deg", dest="theta_deg", type=float, nargs="+")
    sim.add_argument("--settings-file", dest="settings_file")
    sim.add_argument("--trials", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", required=True)
    sim.add_argument("--watch-driven", dest="watch_driven", action="store_const", const=True)
    sim.add_argument("--delta-t", dest="delta_t", type=float)
    sim.add_argument("--log-events", dest="log_events", action="store_true")
    sim.add_argument("--config", help="JSON config file; flags override its values")
    sim.add_argument("--threads", type=int)
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="verification suites: goodness of fit, "
                         "density normalization, watch round trips, B1/B2 equivalence")
    ver.add_argument("--model", required=True,
                     help="model kind or comma list, e.g. B1,B2")
    ver.add_argument("--grid", type=int, default=13)
    ver.add_argument("--trials", type=int, default=100_000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--inject-bias", dest="inject_bias", action="store_true",
                     help="debug: corrupt the counts so the suite must fail")
    ver.add_argument("--threads", type=int)
    ver.set_defaults(func=cmd_verify)

    ch = sub.add_parser("chsh", help="evaluate or optimize the Clauser-Horne parameter")
    ch.add_argument("--model", required=True, choices=MODEL_KINDS)
    ch.add_argument("--config", help="JSON file with vectors a, a_prime, b, b_prime")
    ch.add_argument("--optimize", action="store_true")
    ch.add_argument("--mode", choices=("analytic", "empirical"), default="analytic")
    ch.add_argument("--coarse-deg", dest="coarse_deg", type=float,
                    default=SearchOptions.coarse_deg)
    ch.add_argument("--trials", type=int, default=100_000)
    ch.add_argument("--seed", type=int, default=0)
    ch.add_argument("--out", help="also write a JSON metrics report")
    ch.add_argument("--threads", type=int)
    ch.set_defaults(func=cmd_chsh)

    fw = sub.add_parser("freewill", help="measurement-dependence measure M")
    fw.add_argument("--model", required=True, choices=MODEL_KINDS)
    fw.add_argument("--pairs", help="JSON file with candidate settings-pair pairs")
    fw.add_argument("--grid", type=int, default=8)
    fw.add_argument("--out", help="also write a JSON metrics report")
    fw.set_defaults(func=cmd_freewill)

    au = sub.add_parser("audit", help="check an event log for locality violations")
    au.add_argument("--log", required=True)
    au.add_argument("--model", default="A", choices=MODEL_KINDS,
                    help="model the log came from (QM logs carry no balls)")
    au.set_defaults(func=cmd_audit)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EXIT_USAGE if exc.code not in (0, None) else 0
    args.argv = argv  # the manifest's record of the command
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProtocolIntegrityError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
