import csv
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from singletsim import cli, optimizer, protocol
from singletsim.cli import (
    EXIT_AUDIT,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    EXIT_VERIFY,
    _CONFIG_KEYS,
    _grid_candidate_pairs,
    main,
)
from singletsim.geometry import planar_vector
from singletsim.metrics import chi_square_gof
from singletsim.models import SettingsPair


def run(argv):
    return main(argv)


def test_version_and_help_exit_zero(capsys):
    assert run(["--version"]) == 0
    capsys.readouterr()
    assert run(["--help"]) == 0


def test_missing_subcommand_is_usage_error(capsys):
    assert run([]) == EXIT_USAGE
    capsys.readouterr()


def test_simulate_writes_counts_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["simulate", "--model", "A", "--theta-deg", "60",
                "--trials", "20000", "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    counts = (out / "counts.csv").read_text().splitlines()
    assert counts[0].startswith("model,pair_label")
    assert len(counts) == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["model"] == "A"
    assert manifest["trials"] == 20000
    capsys.readouterr()


def test_manifest_records_the_command_main_parsed(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["simulate", "--model", "QM", "--theta-deg", "60", "--trials", "10",
            "--seed", "2", "--out", str(out)]
    assert run(argv) == EXIT_OK
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == argv
    assert "argv" not in manifest["options"]
    # without an argv, main parses and records the process's arguments
    import singletsim

    src = os.path.dirname(os.path.dirname(os.path.abspath(singletsim.__file__)))
    argv[-1] = str(tmp_path / "proc")
    subprocess.run([sys.executable, "-m", "singletsim.cli", *argv], check=True,
                   env={**os.environ, "PYTHONPATH": src}, capture_output=True)
    assert json.loads((tmp_path / "proc" / "manifest.json").read_text())["command"] == argv


def test_simulate_unknown_model_is_usage_error(tmp_path, capsys):
    code = run(["simulate", "--model", "Z", "--theta-deg", "60",
                "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    capsys.readouterr()


def test_simulate_without_settings_is_usage_error(tmp_path, capsys):
    code = run(["simulate", "--model", "A", "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    capsys.readouterr()


def test_simulate_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "A", "trials": 5000, "seed": 3,
                               "theta_deg": [90.0]}))
    out = tmp_path / "run"
    code = run(["simulate", "--config", str(cfg), "--trials", "1000",
                "--out", str(out)])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["trials"] == 1000  # flag wins over the file
    capsys.readouterr()


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    base = ["simulate", "--model", "B1", "--theta-deg", "45", "120",
            "--trials", "50000", "--seed", "9"]
    assert run(base + ["--out", str(a), "--threads", "1"]) == EXIT_OK
    assert run(base + ["--out", str(b), "--threads", "4"]) == EXIT_OK
    assert (a / "counts.csv").read_bytes() == (b / "counts.csv").read_bytes()
    capsys.readouterr()


def test_simulate_log_events_and_audit(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["simulate", "--model", "A", "--theta-deg", "60",
                "--trials", "50", "--seed", "2", "--log-events",
                "--out", str(out)])
    assert code == EXIT_OK
    log_path = out / "events.ndjson"
    assert log_path.exists()
    assert run(["audit", "--log", str(log_path), "--model", "A"]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("settings", [
    ["--theta-deg", "30", "105", "--trials", "3000"],
    # watch-driven logged runs stop at a watch round-trip mismatch further on
    ["--watch-driven", "--trials", "200"],
], ids=["fixed", "watch-driven"])
@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C", "QM"])
def test_log_events_never_changes_counts(tmp_path, capsys, kind, settings):
    base = ["simulate", "--model", kind, "--seed", "6"] + settings
    plain, logged = tmp_path / "plain", tmp_path / "logged"
    assert run(base + ["--threads", "1", "--out", str(plain)]) == EXIT_OK
    assert run(base + ["--threads", "2", "--log-events", "--out", str(logged)]) == EXIT_OK
    counts_csv = (plain / "counts.csv").read_bytes()
    assert (logged / "counts.csv").read_bytes() == counts_csv

    # the log's result reports tally to the same counts, pair by pair
    trials = int(settings[settings.index("--trials") + 1])
    outcomes = {}
    for line in (logged / "events.ndjson").read_text().splitlines():
        m = json.loads(line)
        if m["kind"] == "result_report":
            outcomes.setdefault(m["payload"]["trial_id"], {})[m["sender"]] = m["payload"]["outcome"]
    tally = Counter((tid // trials, o["batter_L"], o["batter_R"]) for tid, o in outcomes.items())
    with open(plain / "counts.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    labels = list(dict.fromkeys(r["pair_label"] for r in rows))
    expected = {(labels.index(r["pair_label"]), int(r["sigma"]), int(r["tau"])): int(r["count"])
                for r in rows if int(r["count"])}
    assert tally == expected
    capsys.readouterr()


def test_audit_detects_injected_violation(tmp_path, capsys):
    out = tmp_path / "run"
    run(["simulate", "--model", "A", "--theta-deg", "60", "--trials", "20",
         "--seed", "2", "--log-events", "--out", str(out)])
    log_path = out / "events.ndjson"
    lines = log_path.read_text().splitlines()
    forged = json.loads(lines[0])
    forged["sender"] = "batter_L"
    forged["receiver"] = "batter_R"
    lines.append(json.dumps(forged))
    log_path.write_text("\n".join(lines) + "\n")
    code = run(["audit", "--log", str(log_path), "--model", "A"])
    assert code == EXIT_AUDIT
    capsys.readouterr()


def test_audit_unreadable_log_is_usage_error(tmp_path, capsys):
    code = run(["audit", "--log", str(tmp_path / "missing.ndjson")])
    assert code == EXIT_USAGE
    bad = tmp_path / "bad.ndjson"
    bad.write_text("not json at all\n")
    assert run(["audit", "--log", str(bad)]) == EXIT_USAGE
    capsys.readouterr()


def test_verify_passes_small_grid(capsys):
    code = run(["verify", "--model", "A", "--grid", "5",
                "--trials", "20000", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "overall: PASS" in out


@pytest.mark.parametrize("grid", ["1", "0", "-3"])
def test_verify_grid_below_two_is_usage_error(capsys, grid):
    assert run(["verify", "--model", "A", "--grid", grid, "--trials", "1000"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert "overall" not in out
    assert "--grid must be >= 2" in err


@pytest.mark.parametrize("models", ["A,A", "B1,A,B1"])
def test_verify_repeated_model_is_usage_error(capsys, models):
    assert run(["verify", "--model", models, "--grid", "3", "--trials", "100"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"usage error: model {models.split(',')[-1]!r} is named twice"]


@pytest.mark.parametrize("trials", ["50", "99", "0"])
def test_verify_too_few_trials_is_usage_error_before_any_chunk(monkeypatch, capsys, trials):
    # the goodness-of-fit test needs 100 trials per angle: fewer is refused
    # before any chunk runs, not after every chunk has run
    chunks = []
    monkeypatch.setattr(protocol, "run_chunk", lambda *a: chunks.append(a))
    assert run(["verify", "--model", "A", "--grid", "3", "--trials", trials]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and chunks == []
    assert err.splitlines() == [f"usage error: --trials must be >= 100 for the asymptotic "
                                f"test, got {trials}"]


def test_simulate_refuses_a_run_past_the_trial_range(tmp_path):
    # a child process capped in memory and time: a build without the
    # refusal runs out of memory building the run's chunks
    import singletsim

    src = os.path.dirname(os.path.dirname(os.path.abspath(singletsim.__file__)))
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29)); "
            "from singletsim.cli import main; sys.exit(main(sys.argv[1:]))")
    trials = 10**20
    got = subprocess.run(
        [sys.executable, "-c", code, "simulate", "--model", "QM", "--theta-deg", "60",
         "--trials", str(trials), "--out", str(tmp_path / "run")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert got.returncode == EXIT_USAGE and got.stdout == ""
    assert got.stderr.splitlines() == [f"config error: a run has at most 2**61 trials, got {trials}"]
    assert not (tmp_path / "run").exists()


def test_theta_labels_that_print_alike_are_config_error(tmp_path, capsys):
    # both angles print as theta=60 under :g
    assert run(["simulate", "--model", "QM", "--theta-deg", "60", "60.00001",
                "--trials", "200", "--out", str(tmp_path / "run")]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: settings pair label 'theta=60' is used twice"]
    assert not (tmp_path / "run").exists()


def test_verify_inject_bias_fails(capsys):
    code = run(["verify", "--model", "A", "--grid", "5",
                "--trials", "50000", "--seed", "0", "--inject-bias"])
    out = capsys.readouterr().out
    assert code == EXIT_VERIFY
    assert "overall: FAIL" in out


def test_chsh_optimize_model_c(tmp_path, capsys):
    report = tmp_path / "chsh.json"
    code = run(["chsh", "--model", "C", "--optimize", "--coarse-deg", "15",
                "--out", str(report)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["E"] == pytest.approx(4.0)
    assert "E = 4" in out


def test_chsh_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "a": [0.0, 0.0, 1.0],
        "a_prime": [1.0, 0.0, 0.0],
        "b": [-0.7071067811865476, 0.0, -0.7071067811865476],
        "b_prime": [0.7071067811865476, 0.0, -0.7071067811865476],
    }))
    code = run(["chsh", "--model", "QM", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "E = 2.82842712" in out


def test_chsh_requires_exactly_one_source(tmp_path, capsys):
    assert run(["chsh", "--model", "QM"]) == EXIT_USAGE
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert run(["chsh", "--model", "QM", "--config", str(cfg),
                "--optimize"]) == EXIT_USAGE
    capsys.readouterr()


# b and b' at +-45 degrees from a = z: three of the four pairs share |cos|
FOUND_CFG = {"a": [0, 0, 1], "a_prime": [1, 0, 0],
             "b": [0.7071, 0, 0.7071], "b_prime": [-0.7071, 0, 0.7071]}


def test_chsh_empirical_pairs_are_independent(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FOUND_CFG))
    assert run(["chsh", "--model", "QM", "--config", str(cfg), "--mode", "empirical",
                "--trials", "20000", "--seed", "5"]) == EXIT_OK
    c = {ln.split(" = ")[0]: ln.split(" = ")[1]
         for ln in capsys.readouterr().out.splitlines() if ln.startswith("C(")}
    # pair ab keeps the stream it had when each pair ran on its own
    assert c["C(ab)"] == "-0.700100"
    # one stream per pair: equal |cos| no longer gives equal correlators
    assert len({c["C(ab)"], c["C(a'b)"], c["C(ab')"]}) > 1


def test_chsh_standard_error_only_in_empirical_mode(tmp_path, capsys):
    # SE(E) = sqrt(sum_i (1 - C_i^2) / N) follows E in empirical mode only
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FOUND_CFG))
    outs, docs = {}, {}
    for mode in ("analytic", "empirical"):
        report = tmp_path / f"{mode}.json"
        assert run(["chsh", "--model", "QM", "--config", str(cfg), "--mode", mode,
                    "--trials", "20000", "--seed", "5", "--out", str(report)]) == EXIT_OK
        outs[mode] = capsys.readouterr().out.splitlines()
        docs[mode] = json.loads(report.read_text())
    assert not any(ln.startswith("SE") for ln in outs["analytic"])
    assert "SE" not in docs["analytic"]
    lines = outs["empirical"]
    i = next(i for i, ln in enumerate(lines) if ln.startswith("E = "))
    assert lines[i + 1].startswith("SE(E) = ")
    assert float(lines[i + 1].split(" = ")[1]) == docs["empirical"]["SE"]
    c = [float(ln.split(" = ")[1]) for ln in lines if ln.startswith("C(")]
    assert docs["empirical"]["SE"] == pytest.approx(
        math.sqrt(sum(1.0 - x * x for x in c) / 20000), rel=1e-5)


def test_chsh_optimize_empirical_honours_threads(monkeypatch, capsys, recording_pool):
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 4)
    assert run(["chsh", "--model", "QM", "--optimize", "--coarse-deg", "90",
                "--mode", "empirical", "--trials", "2000", "--threads", "2"]) == EXIT_OK
    asked = [p.max_workers for p in recording_pool]
    assert asked == [2]
    out = capsys.readouterr().out
    assert "C(ab)" not in out and "E = " in out


@pytest.mark.parametrize("coarse", ["0", "-5", "inf", "nan"])
def test_chsh_bad_coarse_deg_is_config_error(capsys, coarse):
    assert run(["chsh", "--model", "QM", "--optimize", "--coarse-deg", coarse]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


@pytest.mark.parametrize("coarse", ["1e-9", "0.09", "5e-324"])
def test_chsh_too_fine_coarse_deg_is_config_error_before_any_grid(monkeypatch, capsys, coarse):
    # a divisor of 360 finer than 0.1 degrees is refused before the scan
    # builds its grid, which at 1e-9 degrees would need terabytes
    def no_scan(*args):
        raise AssertionError("the coarse scan ran")

    monkeypatch.setattr(optimizer, "_coarse_scan", no_scan)
    assert run(["chsh", "--model", "A", "--optimize", "--coarse-deg", coarse]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"config error: coarse grid resolution must be at least 0.1 degrees "
        f"(3600 grid angles), got {float(coarse)}"]


@pytest.mark.parametrize("trials", ["50", "99", "0"])
@pytest.mark.parametrize("source", ["optimize", "config"])
def test_chsh_empirical_too_few_trials_is_usage_error_before_any_chunk(
        tmp_path, monkeypatch, capsys, source, trials):
    # an empirical E needs as many trials per settings pair as verify's
    # goodness-of-fit test: fewer is refused before the optimizer or any
    # chunk runs, with nothing printed (50 trials of model A gave E = 3)
    calls = []
    monkeypatch.setattr(protocol, "run_chunk", lambda *a: calls.append(a))
    monkeypatch.setattr(cli, "maximize_chsh", lambda *a: calls.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FOUND_CFG))
    argv = ["--optimize"] if source == "optimize" else ["--config", str(cfg)]
    assert run(["chsh", "--model", "A", *argv, "--mode", "empirical", "--trials", trials,
                "--seed", "0"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and calls == []
    assert err.splitlines() == [f"usage error: --trials must be >= 100 for an empirical E, "
                                f"got {trials}"]


def test_grid_candidate_pairs_match_nested_reference():
    for k in range(26):
        degs = [180.0 * i / k for i in range(k)]
        settings = [SettingsPair(planar_vector(a), planar_vector(b))
                    for a in degs for b in degs if a != b]
        combos = [(settings[i], settings[j])
                  for i in range(len(settings)) for j in range(i + 1, len(settings))]
        if len(combos) > 256:
            combos = combos[::len(combos) // 256 + 1]
        assert _grid_candidate_pairs(k) == combos


def islice_grid_candidate_pairs(k):
    """The candidates as freewill built them before they were built by
    index: every combination of the k(k - 1) settings pairs walked through
    itertools.islice.  Kept as the reference for the index build."""
    degs = [180.0 * i / k for i in range(k)]
    settings = [SettingsPair(planar_vector(a), planar_vector(b))
                for a in degs for b in degs if a != b]
    n = len(settings) * (len(settings) - 1) // 2
    stride = n // 256 + 1 if n > 256 else 1
    return list(itertools.islice(itertools.combinations(settings, 2), 0, None, stride))


def test_grid_candidate_pairs_match_islice_reference():
    for k in range(-3, 61):
        assert _grid_candidate_pairs(k) == islice_grid_candidate_pairs(k)


def test_grid_candidate_pairs_build_only_the_kept_settings_pairs(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return SettingsPair(*args)

    monkeypatch.setattr(cli, "SettingsPair", counted)
    assert len(_grid_candidate_pairs(10**6)) == 256
    assert len(built) <= 512


PAIR = {"n_L": [0, 0, 1], "n_R": [1, 0, 0]}
CONFIG = {"model": "A", "trials": 200, "seed": 1, "theta_deg": [60.0]}
# CONFIG's watch-driven twin: the watches are its only source of settings
WATCH_CONFIG = {"model": "A", "trials": 200, "seed": 1, "watch_driven": True}
# and its twin whose settings come from a settings_pairs list
PAIRS_CONFIG = {"model": "A", "trials": 200, "seed": 1}
VECTORS = {"a": [0, 0, 1], "a_prime": [1, 0, 0], "b": [0, 1, 0], "b_prime": [1, 1, 0]}
MALFORMED = [
    ("settings", PAIR),
    ("settings", [{"n_L": [0, 1], "n_R": [1, 0, 0]}]),
    ("settings", [{"n_L": [0, 0, 1, 0], "n_R": [1, 0, 0]}]),
    ("settings", [{"n_L": "z", "n_R": [1, 0, 0]}]),
    ("settings", [{"n_L": [True, 0, 0], "n_R": [1, 0, 0]}]),
    ("settings", [{"n_L": [0, 0, 0], "n_R": [1, 0, 0]}]),
    ("settings", [{"n_L": [0, 0, 1]}]),
    ("settings", [[0, 0, 1]]),
    ("pairs", {"pairs": [[PAIR, PAIR]]}),
    ("pairs", [PAIR]),
    ("pairs", [[PAIR]]),
    ("pairs", [[PAIR, [0, 0, 1]]]),
    ("pairs", [[PAIR, {"n_L": [0, 1], "n_R": [1, 0, 0]}]]),
    ("chsh", [VECTORS]),
    ("chsh", {**VECTORS, "b": [0, 1]}),
    ("chsh", {**VECTORS, "a": None}),
    ("chsh", {k: v for k, v in VECTORS.items() if k != "b_prime"}),
    ("config", ["model", "A"]),
    ("config", "A"),
    # ill-typed values inside a simulate --config object
    *(("config", {**CONFIG, **v}) for v in (
        {"theta_deg": 60},
        {"theta_deg": ["60"]},
        {"trials": [100]},
        {"trials": 2.9},
        {"trials": True},
        {"seed": "1"},
        {"model": 5},
        {"delta_t": "1.5"},
        {"epoch": None},
        {"watch_driven": "no"},
        {"watch_driven": 0},
        {"watch_periods": {"H": 5, "T": [1, 2]}},
        {"watch_periods": {"H": [100.0, 900.0]}},
        {"watch_periods": {"H": [100.0, -900.0], "T": [130.0, 1700.0]}},
        {"watch_periods": [[100.0, 900.0], [130.0, 1700.0]]},
    )),
    ("settings", [{**PAIR, "label": 5}]),
    # two pairs with one label, which counts.csv readers would merge
    ("settings", [{**PAIR, "label": "x"}, {**PAIR, "label": "x"}]),
    ("settings", [PAIR, {**PAIR, "label": "pair0"}]),
    ("config", {**CONFIG, "theta_deg": [60.0, 60.00001]}),
    # two sources of settings: the run went free-running and dropped the angles
    ("config", {**CONFIG, "watch_driven": True}),
    # ill-typed settings pairs inside a simulate --config object
    *(("config", {**PAIRS_CONFIG, "settings_pairs": v}) for v in (
        PAIR,
        "pairs.json",
        [[0, 0, 1]],
        [{"n_L": [0, 1], "n_R": [1, 0, 0]}],
        [{"n_L": [0, 0, 1]}],
        [{**PAIR, "label": 5}],
        [{**PAIR, "label": "x"}, {**PAIR, "label": "x"}],
    )),
    # two sources of settings in one file
    ("config", {**CONFIG, "settings_pairs": [PAIR]}),
    ("config", {**WATCH_CONFIG, "settings_pairs": [PAIR]}),
]
COMMANDS = {
    "settings": ["simulate", "--model", "A", "--trials", "200", "--settings-file"],
    "pairs": ["freewill", "--model", "A", "--pairs"],
    "chsh": ["chsh", "--model", "QM", "--config"],
    "config": ["simulate", "--config"],
}


@pytest.mark.parametrize("kind,doc", MALFORMED)
def test_malformed_input_file_is_config_error(tmp_path, capsys, kind, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    argv = COMMANDS[kind] + [str(path)]
    if argv[0] == "simulate":
        argv += ["--out", str(tmp_path / "run")]
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert not (tmp_path / "run").exists()


def test_config_whole_number_floats_accepted(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CONFIG, "trials": 2e3, "seed": 4.0, "delta_t": 2,
                                "epoch": 0, "watch_driven": False}))
    out = tmp_path / "run"
    assert run(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["trials"], manifest["seed"]) == (2000, 4)
    assert "N=2000" in capsys.readouterr().out


def test_freewill_grid(capsys):
    code = run(["freewill", "--model", "A", "--grid", "4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "M = 2" in out


# freewill --model B1 --grid 8 before the sign-cell masses replaced quadrature
M_B1_GRID8 = 0.27614237491539645


def test_freewill_hall_grid_8(capsys):
    outs = []
    for kind in ("B1", "B2"):
        assert run(["freewill", "--model", kind, "--grid", "8"]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    first = outs[0].splitlines()[0]
    assert float(first.split()[2]) == pytest.approx(M_B1_GRID8, abs=1e-12)
    # first of the candidates that tie within 1e-12; up to PR 3 the strict
    # maximum picked 13, whose M exceeds candidate 10's by 1 ulp
    assert "candidate 10 of 220" in first
    assert outs[0] == outs[1]


def test_freewill_pairs_file_non_coplanar(tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([
        [{"n_L": [0.3, 0.2, 0.9], "n_R": [-0.5, 0.1, 0.3]},
         {"n_L": [0.2, -0.7, 0.1], "n_R": [0.6, 0.5, -0.4]}],
    ]))
    assert run(["freewill", "--model", "B1", "--pairs", str(pairs)]) == EXIT_OK
    m = float(capsys.readouterr().out.split()[2])
    assert 0.0 < m < 2.0


def test_freewill_rejects_qm(capsys):
    assert run(["freewill", "--model", "QM"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["chsh", "--model", "Z", "--optimize"],
                                  ["freewill", "--model", "Z"]], ids=["chsh", "freewill"])
def test_unknown_model_is_usage_error(capsys, argv):
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["0", "-2"])
def test_thread_count_below_one_rejected(tmp_path, capsys, monkeypatch, value):
    sim = ["simulate", "--model", "A", "--theta-deg", "60", "--trials", "200",
           "--out", str(tmp_path / "run")]
    assert run(sim + ["--threads", value]) == EXIT_USAGE
    assert run(["verify", "--model", "A", "--grid", "2", "--trials", "200",
                "--threads", value]) == EXIT_USAGE
    assert run(["chsh", "--model", "QM", "--optimize", "--coarse-deg", "90",
                "--threads", value]) == EXIT_USAGE
    monkeypatch.setenv("SINGLET_SIM_THREADS", value)
    assert run(sim) == EXIT_USAGE
    assert "thread count must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["two", "1.5", "2x"])
def test_thread_variable_not_an_integer_rejected(tmp_path, capsys, monkeypatch, value):
    # it once ended in a bare "config error: invalid literal for int()"
    # that named neither the variable nor the rule
    monkeypatch.setenv("SINGLET_SIM_THREADS", value)
    err = f"usage error: SINGLET_SIM_THREADS must be an integer >= 1, got {value!r}\n"
    out = tmp_path / "run"
    for argv in (["verify", "--model", "A", "--grid", "3", "--trials", "100"],
                 ["simulate", "--model", "A", "--theta-deg", "60", "--trials", "200",
                  "--out", str(out)],
                 ["chsh", "--model", "QM", "--optimize", "--coarse-deg", "90"]):
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", err)
    assert not out.exists()
    # a --threads flag is read first, and the variable is then not parsed
    assert run(["chsh", "--model", "QM", "--optimize", "--coarse-deg", "90",
                "--threads", "1"]) == EXIT_OK
    capsys.readouterr()


def test_chsh_empirical_independent_of_threads(tmp_path, capsys):
    # more trials than one 2^17-trial chunk, so two threads share the work
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": [0, 0, 1], "a_prime": [1, 0, 0],
                               "b": [0.7071, 0, 0.7071], "b_prime": [-0.7071, 0, 0.7071]}))
    outs = []
    for threads in ("1", "2"):
        assert run(["chsh", "--model", "QM", "--config", str(cfg), "--mode", "empirical",
                    "--trials", "140000", "--seed", "4", "--threads", threads]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert "E = " in outs[0]
    assert outs[0] == outs[1]


def read_counts(out):
    with open(out / "counts.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_settings_file_labels_and_vectors(tmp_path, capsys):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps([{"n_L": [0, 0, 2], "n_R": [1, 0, 0]},
                                {"label": "tilted", "n_L": [1, 0, 0], "n_R": [1, 1, 0]}]))
    out = tmp_path / "run"
    assert run(["simulate", "--model", "A", "--trials", "200", "--settings-file", str(path),
                "--out", str(out)]) == EXIT_OK
    rows = read_counts(out)
    assert [r["pair_label"] for r in rows] == ["pair0"] * 4 + ["tilted"] * 4
    assert [float(rows[0][k]) for k in ("nL_x", "nL_y", "nL_z")] == [0.0, 0.0, 1.0]
    assert float(rows[4]["nR_y"]) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert "A pair0: N=200" in capsys.readouterr().out


def test_settings_label_with_comma_and_quote_round_trips(tmp_path, capsys):
    label = 'a,b "q"\nx'
    path = tmp_path / "settings.json"
    path.write_text(json.dumps([{**PAIR, "label": label}]))
    out = tmp_path / "run"
    assert run(["simulate", "--model", "B1", "--trials", "200", "--settings-file", str(path),
                "--out", str(out)]) == EXIT_OK
    rows = read_counts(out)
    assert len(rows) == 4
    assert all(r["pair_label"] == label and float(r["nL_z"]) == 1.0 for r in rows)
    assert all(None not in r for r in rows)  # no row has extra fields
    capsys.readouterr()


BAD_TIMES = {
    "delta_t=nan": {"delta_t": math.nan},
    "delta_t=-1": {"delta_t": -1.0},
    "delta_t=inf": {"delta_t": math.inf},
    "epoch=nan": {"epoch": math.nan},
    "epoch=-inf": {"epoch": -math.inf},
    "period=inf": {"watch_periods": {"H": [math.inf, 5.0], "T": [130.0, 1700.0]}},
}


@pytest.mark.parametrize("watch_driven", [False, True], ids=["fixed", "watch-driven"])
@pytest.mark.parametrize("bad", BAD_TIMES.values(), ids=BAD_TIMES.keys())
def test_bad_time_in_config_is_config_error(tmp_path, capsys, bad, watch_driven):
    path = tmp_path / "cfg.json"
    base = WATCH_CONFIG if watch_driven else {**CONFIG, "watch_driven": False}
    path.write_text(json.dumps({**base, **bad}))
    out = tmp_path / "run"
    assert run(["simulate", "--config", str(path), "--log-events", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert not out.exists()


@pytest.mark.parametrize("mode", [["--theta-deg", "60"], ["--watch-driven"]],
                         ids=["fixed", "watch-driven"])
@pytest.mark.parametrize("delta_t", ["nan", "-1", "inf"])
def test_bad_delta_t_flag_is_config_error(tmp_path, capsys, mode, delta_t):
    out = tmp_path / "run"
    assert run(["simulate", "--model", "A", "--trials", "200", f"--delta-t={delta_t}",
                "--log-events", "--out", str(out)] + mode) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert not out.exists()


@pytest.mark.parametrize("mode", [["--theta-deg", "60"], ["--watch-driven"]],
                         ids=["fixed", "watch-driven"])
def test_an_overflowing_arrival_time_is_config_error(tmp_path, capsys, mode):
    # epoch 1e308 and a 1e308 s time of flight: the fixed-settings run once
    # wrote result reports at t_send inf, which is no JSON number, and the
    # watch-driven one was refused for its watch periods
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"epoch": 1e308}))
    out = tmp_path / "run"
    assert run(["simulate", "--model", "A", "--trials", "3", "--log-events", "--delta-t",
                "1e308", "--config", str(config), "--out", str(out)] + mode) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [
        "config error: the run's last arrival time, epoch + 3 trials * 100000 s + time of "
        "flight, is inf s: not finite"]


SETTINGS_SOURCES = {
    "watch-driven": ["--watch-driven"],
    "theta": ["--theta-deg", "60"],
    "file": ["--settings-file", "PAIRS"],
}


@pytest.mark.parametrize("first, second", [("watch-driven", "theta"), ("theta", "file"),
                                           ("watch-driven", "file")])
def test_two_settings_sources_are_a_usage_error(tmp_path, capsys, first, second):
    # one run has one source of settings: a second one on the command line
    # was silently dropped
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([PAIR]))
    sources = [str(pairs) if a == "PAIRS" else a
               for a in SETTINGS_SOURCES[first] + SETTINGS_SOURCES[second]]
    out = tmp_path / "run"
    assert run(["simulate", "--model", "A", "--trials", "100", "--out", str(out),
                *sources]) == EXIT_USAGE
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:"), err
    assert captured.out == "" and not out.exists()


def test_settings_flag_overrides_the_config_files_source(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CONFIG, "watch_driven": True}))
    out = tmp_path / "run"
    assert run(["simulate", "--config", str(path), "--theta-deg", "45",
                "--out", str(out)]) == EXIT_OK
    assert {r["pair_label"] for r in read_counts(out)} == {"theta=45"}
    capsys.readouterr()


def test_custom_watch_periods_drive_the_settings(tmp_path, capsys):
    periods = {"H": [61.0 * math.sqrt(11.0), 700.0 * math.sqrt(13.0)],
               "T": [59.0 * math.sqrt(17.0), 710.0 * math.sqrt(19.0)]}
    outs = []
    for extra in ({}, {"watch_periods": periods}):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**WATCH_CONFIG, "trials": 2000, **extra}))
        outs.append(tmp_path / f"run{len(outs)}")
        assert run(["simulate", "--config", str(path), "--out", str(outs[-1])]) == EXIT_OK
    default, custom = (read_counts(o) for o in outs)
    assert sum(int(r["count"]) for r in custom) == 2000
    assert [r["count"] for r in default] != [r["count"] for r in custom]
    capsys.readouterr()


# each source of settings of a run that its manifest.json must replay:
# SETTINGS is 12 random vectors that are not unit length, which a normalized
# record would not replay (a normalized vector moves when normalized again),
# and WATCHES custom watch periods, epoch and time of flight
REPLAY_SOURCES = {
    "theta": ["--theta-deg", "30", "100"],
    "file": ["--settings-file", "SETTINGS"],
    "watch-driven": ["--watch-driven", "--config", "WATCHES"],
}


def replay_argv(tmp_path, kind, source):
    rng = np.random.default_rng(5)
    vec = lambda scale: [float(x) for x in rng.normal(size=3) * scale]
    files = {"SETTINGS": [{"n_L": vec(3.0), "n_R": vec(0.3)} for _ in range(12)],
             "WATCHES": {"watch_periods": {"H": [61.0 * math.sqrt(11.0), 700.0 * math.sqrt(13.0)],
                                           "T": [59.0 * math.sqrt(17.0), 710.0 * math.sqrt(19.0)]},
                         "epoch": 1234.5, "delta_t": 2.25}}
    argv = ["simulate", "--model", kind, "--seed", "7"]
    for a in REPLAY_SOURCES[source]:
        if a in files:
            (tmp_path / a).write_text(json.dumps(files[a]))
            a = str(tmp_path / a)
        argv.append(a)
    return argv


def manifest_record(out):
    manifest = json.loads((out / "manifest.json").read_text())
    return {k: v for k, v in manifest.items() if k in _CONFIG_KEYS}


@pytest.mark.parametrize("source", REPLAY_SOURCES)
@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C", "QM"])
def test_manifest_replays_the_run(tmp_path, capsys, kind, source):
    first, again = tmp_path / "first", tmp_path / "again"
    argv = replay_argv(tmp_path, kind, source) + ["--trials", "3000"]
    assert run(argv + ["--out", str(first)]) == EXIT_OK
    assert run(["simulate", "--config", str(first / "manifest.json"),
                "--out", str(again)]) == EXIT_OK
    assert (again / "counts.csv").read_bytes() == (first / "counts.csv").read_bytes()
    # the record is a fixed point: replaying a replay changes nothing
    assert manifest_record(again) == manifest_record(first)
    capsys.readouterr()


@pytest.mark.parametrize("kind, source", [("A", "theta"), ("B1", "file"),
                                          ("C", "watch-driven")])
def test_manifest_replays_the_event_log(tmp_path, capsys, kind, source):
    first, again = tmp_path / "first", tmp_path / "again"
    argv = replay_argv(tmp_path, kind, source) + ["--trials", "200", "--log-events"]
    assert run(argv + ["--out", str(first)]) == EXIT_OK
    assert run(["simulate", "--config", str(first / "manifest.json"), "--log-events",
                "--out", str(again)]) == EXIT_OK
    for name in ("counts.csv", "events.ndjson"):
        assert (again / name).read_bytes() == (first / name).read_bytes()
    capsys.readouterr()


def test_manifest_as_config_passes_on_only_the_record(tmp_path, capsys):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(replay_argv(tmp_path, "A", "theta")
               + ["--trials", "50", "--log-events", "--out", str(first)]) == EXIT_OK
    argv = ["simulate", "--config", str(first / "manifest.json"), "--out", str(again)]
    assert run(argv) == EXIT_OK
    manifest = json.loads((again / "manifest.json").read_text())
    assert manifest["command"] == argv
    assert manifest["options"] == {"command": "simulate", "config": argv[2],
                                   "log_events": False, "out": argv[4]}
    assert "events" not in manifest
    assert manifest_record(again) == manifest_record(first)
    capsys.readouterr()


def test_settings_file_flag_replaces_the_config_files_pairs(tmp_path, capsys):
    cfg, flag = tmp_path / "cfg.json", tmp_path / "pairs.json"
    cfg.write_text(json.dumps({**PAIRS_CONFIG, "settings_pairs": [{**PAIR, "label": "file"}]}))
    flag.write_text(json.dumps([{**PAIR, "label": "flag"}]))
    out = tmp_path / "run"
    assert run(["simulate", "--config", str(cfg), "--settings-file", str(flag),
                "--out", str(out)]) == EXIT_OK
    assert {r["pair_label"] for r in read_counts(out)} == {"flag"}
    assert manifest_record(out)["settings_pairs"] == [{**PAIR, "label": "flag"}]
    capsys.readouterr()


EXTREME_PERIODS = {
    # a period ratio of inf once raised OverflowError from the check
    "ratio=inf": {"H": [1e308, 1e-308], "T": [130.0, 1700.0]},
    # an inverse ratio of inf once ran, with every small-hand phase NaN
    "inverse=inf": {"H": [5e-324, 1.0], "T": [130.0, 1700.0]},
    # finite ratios, but (last arrival - epoch) / period overflows
    "phase=inf": {k: [p * 1e-306 for p in v] for k, v in protocol.wt.DEFAULT_PERIODS.items()},
}


@pytest.mark.parametrize("periods", EXTREME_PERIODS.values(), ids=EXTREME_PERIODS.keys())
def test_extreme_watch_periods_are_config_error(tmp_path, capsys, periods):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**WATCH_CONFIG, "watch_periods": periods}))
    out = tmp_path / "run"
    assert run(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert captured.out == "" and not out.exists()


def test_watch_mismatch_is_runtime_failure(tmp_path, capsys, monkeypatch):
    # the batters read their hand phases 1e-6 off the pitcher's setting
    read = protocol.wt.batter_phases_array
    monkeypatch.setattr(protocol.wt, "batter_phases_array",
                        lambda *a: tuple(phase + 1e-6 for phase in read(*a)))
    out = tmp_path / "run"
    assert run(["simulate", "--model", "A", "--watch-driven", "--log-events",
                "--trials", "50", "--out", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime failure:"), err
    assert not (out / "counts.csv").exists()


def test_verify_hall_rows(capsys):
    assert run(["verify", "--model", "B1,B2", "--grid", "3", "--trials", "20000",
                "--seed", "0"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    for kind in ("B1", "B2"):
        norms = [ln for ln in lines if ln.startswith(f"[PASS] {kind} norm quad theta=")]
        assert len(norms) == 4
    assert sum(ln.startswith("[PASS] B1/B2 equivalence in law p=") for ln in lines) == 1
    assert lines[-1] == "overall: PASS"


def test_verify_takes_a_negative_seed(capsys):
    # the watch row's times come from a stream keyed like every stream of a
    # run, so verify takes any whole seed, as simulate and chsh do
    assert run(["verify", "--model", "A", "--grid", "3", "--trials", "1000",
                "--seed", "-1"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert sum(ln.startswith("[PASS] watches watch round-trip max err=") for ln in lines) == 1
    assert lines[-1] == "overall: PASS"


def test_verify_joint_row_draws_one_chunk_at_a_time(monkeypatch, capsys):
    # the B1/B2 row draws the kernel's free-running ball pass chunk by chunk,
    # here over three chunks per realization
    rows = Counter()
    passes = protocol.chunk_passes

    def recording(kind, *a):
        got = passes(kind, *a)
        spin = got[4]
        assert len(spin) <= 1 << 17
        rows[kind] += len(spin)
        return got

    monkeypatch.setattr(cli, "chunk_passes", recording)
    assert run(["verify", "--model", "B1,B2", "--grid", "3", "--trials", "300000",
                "--seed", "0"]) == EXIT_OK
    assert rows == {"B1": 300_000, "B2": 300_000}
    capsys.readouterr()


VERIFY_ALL = ["verify", "--model", "A,B1,B2,C,QM", "--grid", "3", "--trials", "131077",
              "--seed", "0"]


@pytest.mark.parametrize("bias", [[], ["--inject-bias"]], ids=["plain", "inject_bias"])
def test_verify_prints_the_same_bytes_at_every_thread_count(monkeypatch, capsys, bias):
    # two chunks per stream and two joint chunks per realization, on up to
    # three worker threads
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 3)
    printed = []
    for threads in ("1", "2", "3"):
        run(VERIFY_ALL + bias + ["--threads", threads])
        printed.append(capsys.readouterr().out)
    assert printed[0].endswith("overall: FAIL\n" if bias else "overall: PASS\n")
    assert printed[1] == printed[0] and printed[2] == printed[0]


def test_verify_maps_every_chunk_through_one_pool(monkeypatch, capsys, recording_pool):
    pools = recording_pool
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 4)
    assert run(VERIFY_ALL + ["--threads", "2"]) == EXIT_OK
    # 5 models x 3 angles x 2 chunks, and 2 joint chunks each for B1 and B2
    assert [(p.max_workers, p.jobs) for p in pools] == [(2, 34)]
    capsys.readouterr()


def test_verify_joint_row_fails_on_a_one_hemisphere_b1_spin(monkeypatch, capsys):
    # negative control: B1's spins folded into z >= 0 no longer share B2's law
    sample = protocol.sample_hidden_B1_array

    def folded(*a):
        u = sample(*a)
        np.abs(u[:, 2], out=u[:, 2])
        return u

    monkeypatch.setattr(protocol, "sample_hidden_B1_array", folded)
    assert run(["verify", "--model", "B1,B2", "--grid", "3", "--trials", "20000",
                "--seed", "0"]) == EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    fails = [ln for ln in lines if ln.startswith("[FAIL]")]
    assert len(fails) == 1 and fails[0].startswith("[FAIL] B1/B2 equivalence in law p="), fails
    assert lines[-1] == "overall: FAIL"


def test_freewill_out_report(tmp_path, capsys):
    report = tmp_path / "fw.json"
    assert run(["freewill", "--model", "B1", "--grid", "4", "--out", str(report)]) == EXIT_OK
    printed = float(capsys.readouterr().out.split()[2])
    assert json.loads(report.read_text()) == {"metric": "free_will_M", "model": "B1",
                                              "M": printed}


@pytest.mark.parametrize("argv", [
    ["chsh", "--model", "QM", "--optimize", "--coarse-deg", "90"],
    ["freewill", "--model", "B1", "--grid", "4"],
], ids=["chsh", "freewill"])
def test_an_unwritable_out_report_prints_nothing(tmp_path, capsys, argv):
    # the report is written before any result line, so a failed write leaves
    # stdout empty
    assert run(argv + ["--out", str(tmp_path / "missing" / "x.json")]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: [Errno 2]"), err


def test_audit_unknown_model_is_usage_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["simulate", "--model", "A", "--theta-deg", "60", "--trials", "20",
                "--log-events", "--out", str(out)]) == EXIT_OK
    assert run(["audit", "--log", str(out / "events.ndjson"), "--model", "Z"]) == EXIT_USAGE
    assert "PASS" not in capsys.readouterr().out


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so no other test's import of SciPy is seen
    import singletsim

    src = os.path.dirname(os.path.dirname(os.path.abspath(singletsim.__file__)))
    code = "import sys, singletsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_audit_loads_no_numpy_ma(tmp_path, capsys):
    # np.unique imports numpy.ma, which every process's first audit would pay
    # for; a fresh interpreter, so no other test's import of it is seen
    import singletsim

    out = tmp_path / "run"
    assert run(["simulate", "--model", "B1", "--theta-deg", "60", "--trials", "20",
                "--log-events", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    src = os.path.dirname(os.path.dirname(os.path.abspath(singletsim.__file__)))
    code = ("import sys; from singletsim import cli; "
            "code = cli.main(['audit', '--log', sys.argv[1], '--model', 'B1']); "
            "print(code, 'numpy.ma' in sys.modules)")
    got = subprocess.run([sys.executable, "-c", code, str(out / "events.ndjson")],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                         check=True)
    assert got.stdout.splitlines() == ["audit: PASS (80 messages, 0 violations)", "0 False"]


def test_audit_of_an_empty_log_passes(tmp_path, capsys):
    log = tmp_path / "events.ndjson"
    log.write_text("")
    assert run(["audit", "--log", str(log), "--model", "A"]) == EXIT_OK
    assert capsys.readouterr().out == "audit: PASS (0 messages, 0 violations)\n"


def test_watch_driven_logged_run_stops_at_the_first_round_trip_mismatch(tmp_path, capsys):
    # the known watch round-trip defect: trial 1369 is the first whose
    # batter-side setting is more than SETTING_AGREEMENT_TOL off the pitcher's
    out = tmp_path / "run"
    assert run(["simulate", "--model", "A", "--watch-driven", "--log-events", "--trials", "1370",
                "--out", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert err == ["runtime failure: watch round-trip mismatch 6.511e-09 at trial 1369"]
    assert not (out / "counts.csv").exists()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1 (exact watch time): the logged run "
                                       "stops at a watch round-trip mismatch at trial 1369")
def test_watch_driven_logged_run_audits_clean_past_trial_1369(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["simulate", "--model", "A", "--watch-driven", "--log-events", "--trials", "1370",
                "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert run(["audit", "--log", str(out / "events.ndjson"), "--model", "A"]) == EXIT_OK
    assert capsys.readouterr().out == "audit: PASS (5480 messages, 0 violations)\n"


def _flat_law_p(out, kind):
    """The p-value of the flat-law chi-square of a free-running run's counts."""
    with open(out / "counts.csv", newline="") as fh:
        counts = {(int(r["sigma"]), int(r["tau"])): int(r["count"]) for r in csv.DictReader(fh)}
    return chi_square_gof(protocol.CountTable("free-running", kind, None, counts), kind)[1]


# watch-driven configs whose settings would not run free: each must be
# refused, or its counts must pass the flat law at the bench's floor; a
# reason marks a config the CLI still accepts
FROZEN_SETTINGS = {
    "epoch 1e300": (
        {"model": "A", "trials": 20000, "seed": 1, "watch_driven": True, "epoch": 1e300},
        "ROADMAP item 1 (exact watch time): at epoch 1e300 every pitch time vanishes below "
        "the epoch's ulp, so every trial reads the same setting"),
    "hand periods of 1e12 s": (
        {"model": "QM", "trials": 20000, "seed": 1, "watch_driven": True,
         "watch_periods": {"H": [1e12, 1.4142135623730951e12],
                           "T": [1.7320508075688772e12, 2.23606797749979e12]}},
        None),  # refused: a hand period above the pitch gap keeps c near 1
}


@pytest.mark.parametrize("config", [
    pytest.param(config, id=name,
                 marks=[pytest.mark.xfail(strict=True, reason=reason)] if reason else [])
    for name, (config, reason) in FROZEN_SETTINGS.items()])
def test_free_running_config_is_refused_or_flat(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    code = run(["simulate", "--config", str(path), "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_USAGE or (code == EXIT_OK and _flat_law_p(out, config["model"]) > 1e-6)


# every flag-minimum refusal, spelled by one helper: (argv, stderr)
FLAG_MINIMUMS = [
    (["verify", "--model", "A", "--grid", "1"],
     "usage error: --grid must be >= 2 to span 0..180 degrees, got 1\n"),
    (["verify", "--model", "A", "--trials", "99"],
     "usage error: --trials must be >= 100 for the asymptotic test, got 99\n"),
    (["chsh", "--model", "A", "--optimize", "--mode", "empirical", "--trials", "99"],
     "usage error: --trials must be >= 100 for an empirical E, got 99\n"),
    (["verify", "--model", "A", "--threads", "0"],
     "usage error: thread count must be >= 1, got 0\n"),
    *((["freewill", "--model", "B1", "--grid", k],
      f"usage error: --grid must be >= 2 to give a pair of distinct settings pairs, got {k}\n")
      for k in ("1", "0", "-1")),
]


@pytest.mark.parametrize("argv,err", FLAG_MINIMUMS, ids=[" ".join(a) for a, _ in FLAG_MINIMUMS])
def test_flag_minimum_refusals_pinned(capsys, argv, err):
    # freewill --grid below 2 once ended in a config error that did not
    # name the flag: no grid of fewer angles gives a candidate
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", err)


def test_freewill_pairs_file_is_scored_whatever_the_grid(tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[PAIR, {"n_L": [0, 1, 0], "n_R": [1, 0, 1]}]]))
    assert run(["freewill", "--model", "B1", "--pairs", str(pairs), "--grid", "1"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("M = ")


# a file whose object lacks a vector: (command, document, the missing key)
MISSING_VECTOR = {
    "chsh": ({k: v for k, v in VECTORS.items() if k != "a_prime"}, "a_prime"),
    "settings": ([PAIR, {"n_L": [0, 1, 0]}], "n_R"),
    "pairs": ([[PAIR, {"n_R": [0, 1, 0]}]], "n_L"),
    "config": ({**PAIRS_CONFIG, "settings_pairs": [{"n_R": [0, 1, 0]}]}, "n_L"),
}


@pytest.mark.parametrize("kind", sorted(MISSING_VECTOR))
def test_missing_vector_is_named_with_its_file(tmp_path, capsys, kind):
    # a bare KeyError once printed only the key, as "config error: 'a_prime'"
    doc, key = MISSING_VECTOR[kind]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    argv = COMMANDS[kind] + [str(path)]
    if argv[0] == "simulate":
        argv += ["--out", str(tmp_path / "run")]
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"config error: {path}: missing vector {key!r}\n")
    assert not (tmp_path / "run").exists()


def test_settings_file_without_pairs_is_usage_error(tmp_path, capsys):
    path = tmp_path / "pairs.json"
    path.write_text("[]")
    assert run(["simulate", "--model", "A", "--settings-file", str(path),
                "--out", str(tmp_path / "run")]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"usage error: no settings pairs in {path}\n")


def test_simulate_without_a_model_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({k: v for k, v in CONFIG.items() if k != "model"}))
    for argv in (["--theta-deg", "60"], ["--config", str(path)]):
        assert run(["simulate", *argv, "--out", str(tmp_path / "run")]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "usage error: --model is required (or 'model' in the config file)\n")


def test_unknown_model_in_a_config_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CONFIG, "model": "Z"}))
    assert run(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: unknown model 'Z'; choose from ")


def test_verify_unknown_model_is_usage_error(capsys):
    assert run(["verify", "--model", "A,Z", "--grid", "3", "--trials", "100"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "usage error: unknown model 'Z'\n")
