import hashlib
import json
import math
import re
import sys
import threading
from functools import partial
from itertools import islice

import numpy as np
import pytest

from singletsim import protocol
from singletsim import watches as wt
from singletsim.cli import EXIT_AUDIT, EXIT_OK, EXIT_USAGE, main
from singletsim.geometry import (
    UnitVector,
    rowdot,
    sample_uniform_sphere_array,
    sign_array,
)
from singletsim.metrics import chi_square_gof
from singletsim.models import (
    SettingsPair,
    outcome_int8,
    sample_hidden_B1_array,
    sample_settings_B2_array,
    skip_words,
)
from singletsim.protocol import (
    BATTER_L,
    BATTER_R,
    COORDINATOR,
    PITCHER,
    ExperimentConfig,
    ProtocolIntegrityError,
    audit_locality,
    chunk_passes,
    run_chunk,
    run_experiment,
    sample_joint_spin_outcomes,
    write_counts_csv,
    write_event_log,
)

Z = UnitVector(0.0, 0.0, 1.0)


def read_event_log(path):
    """The messages of an event-log file, parsed one line at a time by
    protocol._message as they are iterated, blank lines skipped: the
    generic reader that audit_locality's line match is checked against.
    A line that is no message, or is nested too deeply to parse, raises
    ValueError naming its number, with the text audit_locality gives."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line := line.strip():
                try:
                    yield protocol._message(line)
                except (ValueError, RecursionError) as exc:
                    raise ValueError(f"malformed event log at line {lineno}: {exc}") from exc


def messages_of(log):
    """The messages of an event log's lines, each parsed by protocol._message."""
    return [protocol._message(line) for line in log]


def audit_file(path, kind):
    """audit_locality of an event-log file, read as `singletsim audit` reads it."""
    with open(path, encoding="utf-8") as fh:
        return audit_locality(fh, kind)


def planar(deg):
    th = math.radians(deg)
    return UnitVector.normalized(math.sin(th), 0.0, math.cos(th))


def fixed_config(deg=60.0, trials=100, seed=7, **kw):
    pair = SettingsPair(Z, planar(deg))
    return ExperimentConfig(trials=trials, seed=seed,
                            settings_pairs=[(f"theta={deg:g}", pair)], **kw)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0, seed=1, settings_pairs=[("x", SettingsPair(Z, Z))])
    with pytest.raises(ValueError):
        ExperimentConfig(trials=10, seed=1)  # fixed mode needs a pair
    ExperimentConfig(trials=10, seed=1, watch_driven=True)
    pair = SettingsPair(Z, planar(60.0))
    with pytest.raises(ValueError, match="'x' is used twice"):
        ExperimentConfig(trials=10, seed=1, settings_pairs=[("x", pair), ("y", pair), ("x", pair)])
    # a free-running run silently dropped the pairs it was given
    with pytest.raises(ValueError, match="one source of settings"):
        ExperimentConfig(trials=10, seed=1, watch_driven=True, settings_pairs=[("x", pair)])


def test_watch_driven_config_refuses_overflowing_hand_phases():
    # a hand phase is (t - epoch) / period: with 1e-306-scaled periods it
    # overflows by the last arrival (a trial count past the largest float
    # is refused by the trial range first)
    tiny = wt.WatchBank(*(wt.WatchSpec(*(p * 1e-306 for p in wt.DEFAULT_PERIODS[k]))
                          for k in "HT"))
    with pytest.raises(ValueError, match="a hand phase overflows"):
        ExperimentConfig(trials=10, seed=1, watch_driven=True, bank=tiny)
    # fixed settings read no watch
    ExperimentConfig(trials=10, seed=1, settings_pairs=[("x", SettingsPair(Z, Z))], bank=tiny)


def _bank_up_to(longest):
    """A watch bank of pairwise incommensurable periods whose longest is
    ``longest``, the others below the pitch gap."""
    gap = ExperimentConfig.pitch_gap
    return wt.WatchBank(wt.WatchSpec(gap / math.sqrt(3.0), longest),
                        wt.WatchSpec(gap / math.sqrt(5.0), gap / math.sqrt(7.0)))


def test_watch_driven_config_refuses_hand_periods_above_the_pitch_gap():
    gap = ExperimentConfig.pitch_gap
    ExperimentConfig(trials=10, seed=1, watch_driven=True, bank=_bank_up_to(gap))
    above = _bank_up_to(float(np.nextafter(gap, math.inf)))
    with pytest.raises(ValueError, match="too long for free-running settings: a hand period "
                                         "is at most the pitch gap, 100000 s"):
        ExperimentConfig(trials=10, seed=1, watch_driven=True, bank=above)
    # fixed settings read no watch
    ExperimentConfig(trials=10, seed=1, settings_pairs=[("x", SettingsPair(Z, Z))], bank=above)


@pytest.mark.parametrize("turns", [1.0, 1.5, 2.5, 4.2])
def test_hand_phase_density_is_within_the_uniformity_bound(turns):
    # at a fixed trial id, a hand of period pitch_gap / turns reads
    # frac(c + j * turns) over the jitter j, as _pitch_times spaces the
    # pitches: its density is within a factor (m + 1)/m of uniform, with
    # m = floor(turns) >= 1 at every period the config accepts
    gap = ExperimentConfig.pitch_gap
    watch = wt.WatchSpec(gap / turns, gap / math.sqrt(2.0), epoch=123.0)
    jitter = np.random.default_rng(21).random(1 << 19)
    t = watch.epoch + (98_765 + jitter) * gap
    density = np.histogram(wt.read_phases_array(watch, t)[0], bins=16, range=(0.0, 1.0))[0] \
        * 16 / jitter.size
    m = math.floor(turns)
    assert m / (m + 1) <= density.min() and density.max() <= (m + 1) / m


def test_config_refuses_runs_whose_last_seq_overflows_int64():
    # the last message's seq, 4 * trial id + 3, is an int64, so a run holds
    # at most 2**61 trials over all its streams; the refusal allocates
    # nothing, where the run it stops ran out of memory building its chunks
    assert 4 * ((1 << 61) - 1) + 3 == np.iinfo(np.int64).max
    pair = SettingsPair(Z, planar(60.0))
    for streams, kw in ((1, {"settings_pairs": [("x", pair)]}),
                        (2, {"settings_pairs": [("x", pair), ("y", pair)]}),
                        (1, {"watch_driven": True})):
        most = (1 << 61) // streams
        ExperimentConfig(trials=most, seed=1, **kw)
        for trials in (most + 1, 10**20, 10**400):
            with pytest.raises(ValueError) as refused:
                ExperimentConfig(trials=trials, seed=1, **kw)
            assert str(refused.value) == f"a run has at most 2**61 trials, got {streams * trials}"


def test_chunk_deterministic():
    cfg = fixed_config()
    for kind in ("A", "B1", "C", "QM"):
        a = chunk_passes(kind, cfg, 0, 0)[1:]
        b = chunk_passes(kind, cfg, 0, 0)[1:]
        for col_a, col_b in zip(a, b):  # sigma, tau, t_pitch, spin
            assert np.array_equal(col_a, col_b)
    t_pitch = a[2]
    assert (protocol._chunk(kind, cfg, 0, 0)[1], t_pitch.size) == (0, 100)
    assert np.all(np.diff(t_pitch) > 0.0)  # pitch times increase with trial id


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C", "QM"])
def test_integer_components_run(kind):
    def counts(*xs):
        pair = SettingsPair(UnitVector(*xs[:3]), UnitVector(*xs[3:]))
        cfg = ExperimentConfig(trials=500, seed=3, settings_pairs=[("p", pair)])
        return run_experiment(kind, cfg)[0][0].counts

    assert UnitVector(0, 0, 1).as_array().dtype == np.float64
    assert counts(0, 0, 1, 1, 0, 0) == counts(0.0, 0.0, 1.0, 1.0, 0.0, 0.0)


def test_run_experiment_rejects_unknown_kind():
    cfg = fixed_config()
    with pytest.raises(ValueError):
        run_experiment("Z", cfg)
    with pytest.raises(ValueError):
        run_chunk("Z", cfg, 0, 0)


def test_model_a_hidden_state_is_atom():
    # whatever coins the pitcher drew, every logged ball spin must be one of
    # the four atoms +-n_L, +-n_R, and each atom must occur
    cfg = fixed_config(deg=60.0, trials=200, log_events=True)
    pair = cfg.settings_pairs[0][1]
    atoms = [tuple(d * a for a in v.as_array()) for v in (pair.n_L, pair.n_R) for d in (1.0, -1.0)]
    _, log = run_experiment("A", cfg)
    spins = [tuple(m["payload"]["spin"]) for m in messages_of(log) if m["kind"] == "ball"]
    assert len(spins) == 400
    assert set(spins) == set(atoms)


def test_model_c_outcomes_are_signs():
    cfg = fixed_config(deg=60.0, log_events=True)
    pair = cfg.settings_pairs[0][1]
    _, log = run_experiment("C", cfg)
    spin = {}
    for m in messages_of(log):
        if m["kind"] == "ball":
            spin[(m["payload"]["trial_id"], m["receiver"])] = np.array(m["payload"]["spin"])
        else:
            n = pair.n_L if m["sender"] == BATTER_L else pair.n_R
            # each batter sees its own ball, spinning along u (left) or -u (right)
            u = spin[(m["payload"]["trial_id"], m["sender"])]
            assert m["payload"]["outcome"] == (1 if u @ n.as_array() >= 0.0 else -1)
    assert len(spin) == 200


def test_bulk_frequencies_model_a():
    # analytic oracle at theta = 60: P(+,+) = (1 - 0.5)/4 = 0.125
    cfg = fixed_config(deg=60.0, trials=1_000_000, seed=11)
    tables, log = run_experiment("A", cfg)
    assert log is None
    tb = tables[0]
    assert tb.n_total == 1_000_000
    assert abs(tb.frequency(1, 1) - 0.125) < 0.001
    assert abs(tb.frequency(1, -1) - 0.375) < 0.001


def test_bulk_frequencies_model_b1_orthogonal():
    cfg = fixed_config(deg=90.0, trials=1_000_000, seed=12)
    tables, _ = run_experiment("B1", cfg)
    for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        assert abs(tables[0].frequency(s, t) - 0.25) < 0.0013


def test_bulk_model_c_forbidden_cells_empty():
    cfg = fixed_config(deg=60.0, trials=200_000, seed=13)
    tables, _ = run_experiment("C", cfg)
    tb = tables[0]
    assert tb.counts[(1, 1)] == 0
    assert tb.counts[(-1, -1)] == 0
    assert abs(tb.frequency(1, -1) - 0.5) < 0.003


def test_bulk_matches_logged_in_law():
    # one kernel: logging adds a view of the trials and changes no count
    for kind in ("A", "B1", "B2", "C", "QM"):
        bulk, none = run_experiment(kind, fixed_config(deg=60.0, trials=5_000, seed=21))
        logged, log = run_experiment(
            kind, fixed_config(deg=60.0, trials=5_000, seed=21, log_events=True))
        assert none is None and log is not None
        assert bulk[0].counts == logged[0].counts
        tally = {}
        for m in messages_of(log):
            if m["kind"] == "result_report":
                p = m["payload"]
                tally.setdefault(p["trial_id"], {})[m["sender"]] = p["outcome"]
        cells = [(o[BATTER_L], o[BATTER_R]) for o in tally.values()]
        assert {c: cells.count(c) for c in bulk[0].counts} == bulk[0].counts


def test_thread_count_does_not_change_counts():
    cfg1 = fixed_config(deg=45.0, trials=300_000, seed=5, threads=1)
    cfg4 = fixed_config(deg=45.0, trials=300_000, seed=5, threads=4)
    t1, _ = run_experiment("B1", cfg1)
    t4, _ = run_experiment("B1", cfg4)
    assert t1[0].counts == t4[0].counts


def test_counts_build_only_the_columns_they_read(monkeypatch):
    built = []
    pitch_times = protocol._pitch_times
    monkeypatch.setattr(protocol, "_pitch_times",
                        lambda *a: built.append(1) or pitch_times(*a))
    samplers = []
    for name in ("sample_hidden_B1_array", "sample_uniform_sphere_array"):
        monkeypatch.setattr(protocol, name, lambda *a, f=getattr(protocol, name):
                            samplers.append(1) or f(*a))
    vectors = []
    for mod, name in ((protocol, "sphere_points"), (wt, "sphere_points"),
                      (wt, "batter_vectors_array")):
        monkeypatch.setattr(mod, name, lambda *a, f=getattr(mod, name):
                            vectors.append(1) or f(*a))

    def pitch_time_builds(kind, config):
        built.clear()
        samplers.clear()
        vectors.clear()
        _, log = run_experiment(kind, config)
        if log is not None:
            assert len(list(log)) == len(log)
        # B1 and B2 count from the lune draws and build spins only for a log
        assert (len(samplers) > 0) == (kind in ("B1", "B2") and log is not None)
        # the watch-driven counts read the settings' overlap off the hand
        # phases; only a log's round-trip check builds the setting vectors
        assert (len(vectors) > 0) == (config.watch_driven and kind != "B2" and log is not None)
        return len(built)

    for kind in ("A", "B1", "B2", "C", "QM"):
        fixed, logged = fixed_config(trials=300), fixed_config(trials=300, log_events=True)
        watch = ExperimentConfig(trials=300, seed=7, watch_driven=True)
        logged_watch = ExperimentConfig(trials=300, seed=7, watch_driven=True, log_events=True)
        assert pitch_time_builds(kind, fixed) == 0
        assert pitch_time_builds(kind, logged) >= 1
        # every watch-driven model but B2 reads its settings at the pitch times
        assert (pitch_time_builds(kind, watch) >= 1) == (kind != "B2")
        assert pitch_time_builds(kind, logged_watch) >= 1
    for kind in ("A", "B1", "B2", "C", "QM"):
        for trials in (3, 100):
            for config in (fixed_config(trials=trials),
                           ExperimentConfig(trials=trials, seed=7, watch_driven=True)):
                built.clear()
                samplers.clear()
                vectors.clear()
                run_chunk(kind, config, 0, 0)
                # the counting pass draws no spin and, unlogged, builds no
                # setting vector; it builds pitch times only where the
                # settings come off the watches
                assert not samplers and not vectors
                assert (len(built) > 0) == (config.watch_driven and kind != "B2")
                spin = chunk_passes(kind, config, 0, 0)[4]
                if kind == "QM":
                    assert spin is None
                    continue
                assert spin.shape == (trials, 3)
                # the spin of A, B1 and C takes the watches' setting vectors
                assert (len(vectors) > 0) == (config.watch_driven and kind != "B2")
                # the ball pass, drawing the jitter, ends where the skip did
                np.testing.assert_array_equal(spin, _replayed_spin(kind, config))


def _fresh_pitcher(kind, config, chunk):
    """A freshly keyed pitcher stream of chunk ``chunk`` of a config's first
    trial stream."""
    tag = f"{kind}:free" if config.watch_driven else f"{kind}:pair0"
    return protocol._stream(config.seed, tag, chunk, PITCHER)


def _replayed_spin(kind, config, chunk=0):
    """Oracle: the spin of chunk ``chunk`` of a config's first trial stream
    as the kernel once built it on read, from a freshly keyed pitcher stream
    whose jitter draws are skipped by advancing its counter (A and C of a
    fixed pair as the atom that each trial's row looks up)."""
    k = min(protocol._CHUNK, config.trials - chunk * protocol._CHUNK)
    pair = config.streams()[0][1]
    pitcher = skip_words(_fresh_pitcher(kind, config, chunk), k)
    if pair is None and kind == "B2":
        return sample_uniform_sphere_array(pitcher, k)
    if pair is None:
        t_arrival = protocol._pitch_times(_fresh_pitcher(kind, config, chunk),
                                          chunk * protocol._CHUNK, k, config) + config.delta_t
        settings = tuple(wt.batter_vectors_array(w.mirrored(), t_arrival, config.delta_t)
                         for w in (config.bank.watch_T, config.bank.watch_H))
    else:
        settings = pair.n_L.as_array(), pair.n_R.as_array()
    if kind in ("B1", "B2"):
        return sample_hidden_B1_array(settings, pitcher, k)
    if pair is None:
        return protocol._atom_spin(pitcher, k, *settings)
    return _atom_rows(pitcher, k, *settings)[0]


def _atom_rows(pitcher, k, n_L, n_R):
    """Oracle: the four atoms (-n_L, n_L, -n_R, n_R) of a fixed pair's A or
    C spin, looked up by each trial's row 2w + up of the pitcher's coins,
    and the atoms and rows themselves."""
    w, up = pitcher.integers(0, 2, size=k), pitcher.integers(0, 2, size=k)
    atoms, rows = np.stack((-n_L, n_L, -n_R, n_R)), 2 * w + up
    return atoms[rows], atoms, rows


def _sign_responses(u, n_L, n_R):
    """Oracle: the deterministic responses sigma = sgn(u.n_L) and
    tau = sgn(-u.n_R), with sgn(0) = +1."""
    return sign_array(rowdot(u, n_L)), sign_array(-rowdot(u, n_R))


# two chunks of fixed and of watch-driven settings (free-running for B2), and
# a logged watch-driven chunk, whose count stops below the trial-1369
# round-trip failure
PASS_CONFIGS = {
    "fixed": lambda: fixed_config(33.0, trials=(1 << 17) + 3, seed=5),
    "watch-driven": lambda: ExperimentConfig(trials=(1 << 17) + 3, seed=5, watch_driven=True),
    "logged watch-driven": lambda: ExperimentConfig(trials=1000, seed=5, watch_driven=True,
                                                    log_events=True),
}


@pytest.mark.parametrize("settings", sorted(PASS_CONFIGS))
@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C", "QM"])
def test_chunk_passes_are_the_counting_pass_and_a_fresh_pitchers_balls(kind, settings):
    # both passes of a chunk, outside a pool and as a pool job in its
    # worker's workspace: the counting pass's outcomes, the pitch times of a
    # freshly keyed pitcher and the spin it draws after them
    config = PASS_CONFIGS[settings]()
    for ci in range(config.chunks()):
        passes = chunk_passes(kind, config, 0, ci)
        as_job = next(protocol.pool_map([partial(chunk_passes, kind, config, 0, ci)], 1))
        for got, want in zip(as_job, passes):
            np.testing.assert_array_equal(got, want)
        first_id, sigma, tau, t_pitch, spin = passes
        k = min(protocol._CHUNK, config.trials - ci * protocol._CHUNK)
        assert first_id == ci * protocol._CHUNK and t_pitch.shape == (k,)
        want_sigma, want_tau = run_chunk(kind, config, 0, ci)
        np.testing.assert_array_equal(sigma, want_sigma)
        np.testing.assert_array_equal(tau, want_tau)
        np.testing.assert_array_equal(
            t_pitch, protocol._pitch_times(_fresh_pitcher(kind, config, ci), first_id, k, config))
        if kind == "QM":
            assert spin is None
        else:
            np.testing.assert_array_equal(spin, _replayed_spin(kind, config, ci))


# the streams a counting pass keys, by model and by fixed or watch-driven
# settings: only those it draws from
KEYED_ROLES = {
    ("A", False): [BATTER_L, BATTER_R, PITCHER],
    ("B1", False): [PITCHER],
    ("B2", False): [PITCHER],
    ("C", False): [PITCHER],
    ("QM", False): [COORDINATOR],
    ("A", True): [BATTER_L, BATTER_R, PITCHER],
    ("B1", True): [PITCHER],
    ("B2", True): [COORDINATOR],
    ("C", True): [PITCHER],
    ("QM", True): [COORDINATOR, PITCHER],
}


@pytest.mark.parametrize("kind, watch_driven", sorted(KEYED_ROLES))
def test_each_pass_keys_only_the_streams_it_draws(monkeypatch, kind, watch_driven):
    keyed = []
    stream = protocol._stream
    monkeypatch.setattr(protocol, "_stream",
                        lambda seed, *key: keyed.append(key[-1]) or stream(seed, *key))
    config = (ExperimentConfig(trials=100, seed=7, watch_driven=True) if watch_driven
              else fixed_config())
    run_chunk(kind, config, 0, 0)
    assert sorted(keyed) == KEYED_ROLES[kind, watch_driven]
    # both passes key the counting pass's streams, then the pitcher once
    # more for the ball pass
    keyed.clear()
    chunk_passes(kind, config, 0, 0)
    assert sorted(keyed[:-1]) == KEYED_ROLES[kind, watch_driven] and keyed[-1] == PITCHER


def test_logged_watch_chunk_reads_each_batter_watch_once(monkeypatch):
    # the counting pass reads the phases once per watch; the logged run's
    # round-trip check maps those phases, it does not read them again, and
    # where both passes run (a logged chunk's log lines, a joint B1 chunk)
    # the ball pass builds its setting vectors from the same phases
    reads = []
    read = wt.batter_phases_array
    monkeypatch.setattr(wt, "batter_phases_array",
                        lambda mirror, *a: reads.append(mirror) or read(mirror, *a))
    config = ExperimentConfig(trials=100, seed=7, watch_driven=True, log_events=True)
    once = [config.bank.watch_T.mirrored(), config.bank.watch_H.mirrored()]
    run_chunk("A", config, 0, 0)
    assert reads == once
    for kind in ("A", "B1", "C", "QM"):
        reads.clear()
        assert len(list(protocol.EventLog(kind, config).trial_lines())) == 100
        assert reads == once
    config = ExperimentConfig(trials=(1 << 17) + 3, seed=7, watch_driven=True)
    for ci in range(config.chunks()):
        reads.clear()
        protocol.chunk_passes("B1", config, 0, ci)
        assert reads == once


# the most the second counting chunk of a pool worker may allocate, in
# bytes: A and C draw their coins as one fresh array of raw words, and with
# fixed settings A gathers each trial's atom threshold, one float array per
# side; B1, B2 and QM take only boolean masks and the int8 outcomes
SECOND_CHUNK_BYTES = {"A": 1.5e6, "B1": 1e6, "B2": 1e6, "C": 1.5e6, "QM": 1e6}
SECOND_FIXED_CHUNK_BYTES = {**SECOND_CHUNK_BYTES, "A": 2.5e6}


@pytest.mark.parametrize("kind", sorted(SECOND_CHUNK_BYTES))
def test_watch_driven_counting_reuses_the_workers_workspace(kind):
    config = ExperimentConfig(trials=2 << 17, seed=3, watch_driven=True)
    peak = second_chunk_peak(kind, config)
    assert peak <= SECOND_CHUNK_BYTES[kind], f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("kind", sorted(SECOND_FIXED_CHUNK_BYTES))
def test_fixed_settings_counting_reuses_the_workers_workspace(kind):
    peak = second_chunk_peak(kind, fixed_config(33.0, trials=2 << 17, seed=3))
    assert peak <= SECOND_FIXED_CHUNK_BYTES[kind], f"peak {peak / 1e6:.2f} MB"


def test_a_joint_chunks_ball_pass_leaves_the_workspace_unallocated():
    # both passes of a watch-driven B1 chunk take fresh arrays, freed before
    # the spin, and never the worker's workspace (see protocol._buffers)
    config = ExperimentConfig(trials=1000, seed=3, watch_driven=True)

    def job(workspace):
        protocol.chunk_passes("B1", config, 0, 0, workspace)
        return getattr(workspace, "arrays", None)

    assert list(protocol.pool_map([job], 1)) == [None]


def second_chunk_peak(kind, config):
    """The tracemalloc peak of a pool worker's second counting chunk."""
    import tracemalloc

    peaks = []

    def second_chunk(workspace):
        tracemalloc.start()
        try:
            run_chunk(kind, config, 0, 1, workspace)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    list(protocol.pool_map([partial(run_chunk, kind, config, 0, 0), second_chunk], 1))
    return peaks[0]


def test_outcome_cells_index_outcomes():
    sigma, tau = (np.array(col, dtype=np.int8) for col in zip(*protocol.OUTCOMES))
    assert protocol.outcome_cells(sigma, tau).tolist() == [0, 1, 2, 3]


def coin_oracle(words, k):
    """The two coin columns of k trials from their k raw 64-bit words, by
    bit arithmetic: the words' 32-bit halves in order, low half first, the
    top bit of each, split into the first k and the last k."""
    halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()
    coins = (halves >> 31).astype(np.int64)
    return coins[:k], coins[k:]


@pytest.mark.parametrize("k", [*range(1, 40), 1000, 1001, 131071, 131072])
def test_atom_coins_are_the_top_bits_of_raw_words(k):
    # a chunk's pitcher stream, one word in, so the coins start mid-block
    rng, twin = (protocol._stream(3, "A:free", 0, PITCHER) for _ in range(2))
    rng.random()
    twin.random()
    w, up = protocol._atom_coins(rng, k)
    want_w, want_up = coin_oracle(twin.bit_generator.random_raw(k), k)
    assert w.shape == up.shape == (k,)
    assert np.array_equal(w, want_w) and np.array_equal(up, want_up)
    # the stream ends where the k words leave it
    assert rng.random(9).tolist() == twin.random(9).tolist()


def test_generator_floats_are_raw_words_canary():
    # the kernel's uniforms are NumPy's Generator methods over Philox words:
    # random() is (word >> 11) 2^-53 and uniform(-1, 1) is -1 + 2 U.  A
    # NumPy release that changes either fails here, by name, before any of
    # the output digests
    words = np.random.Philox(key=11).random_raw(1001)
    u = (words >> 11) * 2.0 ** -53
    assert np.array_equal(np.random.Generator(np.random.Philox(key=11)).random(1001), u)
    assert np.array_equal(
        np.random.Generator(np.random.Philox(key=11)).uniform(-1.0, 1.0, 1001), -1.0 + 2.0 * u)


def test_workspace_lives_for_one_pool_map_call():
    # one workspace per worker thread and call, passed to each job: a later
    # job of the same worker gets views of the same arrays, a later call new
    # ones, the module keeps no thread state, and outside a call every chunk
    # gets fresh arrays
    def views(k):
        return partial(protocol._buffers, k)

    first, short = list(protocol.pool_map([views(100), views(77)], 1))
    assert all(np.shares_memory(a, b) for a, b in zip(first, short))
    assert [len(a) for a in short] == [77] * 5
    again, = list(protocol.pool_map([views(100)], 1))
    assert not np.shares_memory(again[0], first[0])
    assert not any(isinstance(v, threading.local) for v in vars(protocol).values())
    assert not np.shares_memory(protocol._buffers(100)[0], protocol._buffers(100)[0])


def test_streams_read_alternately_on_one_thread_keep_their_own_workspaces():
    # two pool_map calls read in turn on the calling thread: each job of a
    # stream reuses its stream's arrays, and never shares memory with a job
    # of the other stream
    streams = [protocol.pool_map((partial(protocol._buffers, 100 - i) for i in range(3)), 1)
               for _ in range(2)]
    got = [[], []]
    for _ in range(3):
        for stream, arrays in zip(streams, got):
            arrays.append(next(stream))
    for mine, other in (got, got[::-1]):
        assert all(np.shares_memory(a, b) for job in mine[1:] for a, b in zip(mine[0], job))
        assert not any(np.shares_memory(a, b) for x in mine for y in other
                       for a in x for b in y)


def test_pool_map_streams_jobs_in_order_in_batches(monkeypatch, recording_pool):
    # 2,500 jobs of uneven length on three worker threads that switch often:
    # the results come back in job order, mapped at most a batch at a time
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 3)
    n, batch = 2500, protocol._POOL_BATCH

    def job(i, workspace):
        sum(range(i % 97 * 50))  # uneven work, so jobs finish out of order
        return i

    jobs = (partial(job, i) for i in range(n))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = list(protocol.pool_map(jobs, 3))
    finally:
        sys.setswitchinterval(interval)
    assert got == list(range(n))
    assert [p.max_workers for p in recording_pool] == [3]
    assert recording_pool[0].maps == [min(batch, n - lo) for lo in range(0, n, batch)]
    assert len(recording_pool[0].maps) > 1


@pytest.mark.parametrize("threads", [1, 2])
def test_pool_map_draws_one_batch_before_its_first_result(monkeypatch, threads):
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 2)
    batch, drawn = protocol._POOL_BATCH, []

    def job(i, workspace):
        return i

    def jobs():
        for i in range(3 * batch + 5):
            drawn.append(i)
            yield partial(job, i)

    stream = protocol.pool_map(jobs(), threads)
    assert next(stream) == 0
    assert len(drawn) <= batch
    assert list(islice(stream, batch)) == list(range(1, batch + 1))
    assert len(drawn) <= 2 * batch
    assert list(stream) == list(range(batch + 1, 3 * batch + 5))


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_count_tables_read_each_streams_chunks_off_the_stream(monkeypatch, threads):
    # two streams of 1,500 chunks each, so a stream's chunks cross a batch
    # boundary: each table sums exactly its own stream's chunk counts
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(protocol, "_chunk_counts",
                        lambda kind, config, si, ci, workspace: np.array([1, si, ci, si * ci]))
    pairs = [(f"theta={d:g}", SettingsPair(Z, planar(d))) for d in (0.0, 90.0)]
    chunks = 1500
    cfg = ExperimentConfig(trials=chunks << 17, seed=2, settings_pairs=pairs, threads=threads)
    tables, _ = run_experiment("A", cfg)
    tri = chunks * (chunks - 1) // 2
    assert [list(t.counts.values()) for t in tables] == [[chunks, 0, tri, 0],
                                                         [chunks, chunks, tri, tri]]


@pytest.mark.parametrize("threads", [1, 2])
def test_run_bookkeeping_does_not_grow_with_its_chunk_count(monkeypatch, threads):
    # with each chunk's counting stubbed, what a run holds besides its
    # chunks is the same at 20 and at 20,000 chunks
    import tracemalloc

    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(protocol, "_chunk_counts", lambda *a: np.ones(4, dtype=np.int64))

    def peak(chunks):
        config = fixed_config(trials=chunks << 17, threads=threads)
        tracemalloc.start()
        try:
            tables, _ = run_experiment("QM", config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(tables[0].counts.values()) == [chunks] * 4
        return peak

    small, large = peak(20), peak(20_000)
    assert large - small <= 3e6, f"{small / 1e6:.2f} -> {large / 1e6:.2f} MB"


def test_watch_driven_counts_are_the_same_at_one_two_and_three_threads(monkeypatch):
    # each worker thread computes in its own workspace, and a short last
    # chunk in views of it; three chunks on up to three workers, against
    # chunks run outside any pool, in fresh arrays; threads switch often
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 3)
    trials = 2 * (1 << 17) + 77
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for kind in ("A", "B1", "B2", "C", "QM"):
            config = ExperimentConfig(trials=trials, seed=9, watch_driven=True)
            fresh = sum(protocol._chunk_counts(kind, config, 0, ci)
                        for ci in range(config.chunks()))
            for threads in (1, 2, 3):
                config.threads = threads
                tables, _ = run_experiment(kind, config)
                assert list(tables[0].counts.values()) == fresh.tolist(), (kind, threads)
    finally:
        sys.setswitchinterval(interval)


def _vector_kernel(kind, config, chunk):
    """Oracle: the watch-driven (sigma, tau, spin) of one chunk as computed
    from the built setting vectors, each role's stream keyed and drawn as
    the kernel's two passes draw it: the batters' corrected vectors, then the
    pitcher's coins w and d with u = d * n_w, then rowdot thresholds against
    the batter uniforms (A), the signs of rowdot (C), or clip(rowdot) cell
    widths for the coordinator's uniform (QM)."""
    k = min(protocol._CHUNK, config.trials - chunk * protocol._CHUNK)
    pitcher, batter_l, batter_r, coordinator = (
        protocol._stream(config.seed, f"{kind}:free", chunk, role)
        for role in (PITCHER, BATTER_L, BATTER_R, COORDINATOR))
    t_arrival = protocol._pitch_times(pitcher, chunk * protocol._CHUNK, k, config)
    t_arrival += config.delta_t
    n_L = wt.batter_vectors_array(config.bank.watch_T.mirrored(), t_arrival, config.delta_t)
    n_R = wt.batter_vectors_array(config.bank.watch_H.mirrored(), t_arrival, config.delta_t)
    if kind == "QM":
        c = np.clip(rowdot(n_L, n_R), -1.0, 1.0)
        r = coordinator.uniform(size=k)
        return (outcome_int8(r < 0.5),
                outcome_int8(r < np.where(r < 0.5, 0.25 * (1.0 - c), 0.25 * (3.0 + c))), None)
    w = pitcher.integers(0, 2, size=k)
    d = np.where(pitcher.integers(0, 2, size=k) == 1, 1.0, -1.0)
    u = np.where(w[:, None] == 1, n_R, n_L) * d[:, None]
    if kind == "A":
        return (outcome_int8(batter_l.uniform(size=k) < 0.5 * (1.0 + rowdot(u, n_L))),
                outcome_int8(batter_r.uniform(size=k) < 0.5 * (1.0 - rowdot(u, n_R))), u)
    return (*_sign_responses(u, n_L, n_R), u)


def test_overlap_kernel_matches_the_vector_kernel():
    # remainders 1, 2, 3 and 5 of the Philox block, a chunk boundary and
    # sixteen full chunks: about 6.7e6 trials over the three models
    for kind in ("A", "C", "QM"):
        for trials in (1, 2, 3, 5, (1 << 17) + 1, 1 << 21):
            config = ExperimentConfig(trials=trials, seed=trials, watch_driven=True)
            for ci in range(config.chunks()):
                got = run_chunk(kind, config, 0, ci)
                sigma, tau, u = _vector_kernel(kind, config, ci)
                np.testing.assert_array_equal(got[0], sigma)
                np.testing.assert_array_equal(got[1], tau)
                if trials < 10:
                    np.testing.assert_array_equal(chunk_passes(kind, config, 0, ci)[4], u)


def _atom_vector_kernel(kind, config, stream, chunk):
    """Oracle: a fixed pair's A or C (sigma, tau) of one chunk as computed
    from the built atom vectors: the four atoms +-n_L, +-n_R and each
    trial's row of them, then the thresholds 0.5 (1 +- rowdot) against the
    batter uniforms (A) or the signs of rowdot (C), once per atom."""
    k = min(protocol._CHUNK, config.trials - chunk * protocol._CHUNK)
    pair = config.streams()[stream][1]
    n_L, n_R = pair.n_L.as_array(), pair.n_R.as_array()
    tag = f"{kind}:pair{stream}"
    key = lambda role: protocol._stream(config.seed, tag, chunk, role)  # noqa: E731
    _, atoms, rows = _atom_rows(skip_words(key(PITCHER), k), k, n_L, n_R)
    if kind == "C":
        return tuple(s[rows] for s in _sign_responses(atoms, n_L, n_R))
    p_L, p_R = 0.5 * (1.0 + rowdot(atoms, n_L)), 0.5 * (1.0 - rowdot(atoms, n_R))
    return (outcome_int8(key(BATTER_L).uniform(size=k) < p_L[rows]),
            outcome_int8(key(BATTER_R).uniform(size=k) < p_R[rows]))


def test_fixed_atom_kernel_matches_the_vector_kernel():
    # A and C of a fixed pair respond from the overlap c alone; the atom
    # vectors give the same outcomes.  The 37 angles 0..180 in steps of 5
    # and 20 random pairs given as non-unit vectors, each as a full chunk
    # and a last chunk of 1 or 5 trials: about 3e7 trials
    rng = np.random.default_rng(20)
    pairs = [(f"theta={d}", SettingsPair(Z, planar(d))) for d in range(0, 181, 5)]
    non_unit = lambda: rng.normal(size=3) * rng.uniform(0.1, 10.0)  # noqa: E731
    pairs += [(f"r{i}", SettingsPair(UnitVector.normalized(*non_unit()),
                                     UnitVector.normalized(*non_unit()))) for i in range(20)]
    for kind in ("A", "C"):
        for seed, last in ((1, 1), (2, 5)):
            config = ExperimentConfig(trials=protocol._CHUNK + last, seed=seed,
                                      settings_pairs=pairs)
            for si in range(len(pairs)):
                for ci in range(config.chunks()):
                    sigma, tau = run_chunk(kind, config, si, ci)
                    want = _atom_vector_kernel(kind, config, si, ci)
                    np.testing.assert_array_equal(sigma, want[0])
                    np.testing.assert_array_equal(tau, want[1])


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C", "QM"])
def test_far_fixed_chunk_follows_its_law(kind):
    # chunk index 2^40, whose first trial id is 2^57: the counting pass
    # keys its streams by chunk index alone, so a chunk no run of the test
    # sizes reaches still follows its model's law
    chunk = 1 << 40
    config = fixed_config(deg=60.0, trials=(chunk + 1) * protocol._CHUNK, seed=3)
    assert protocol._chunk(kind, config, 0, chunk)[1] == 1 << 57
    counts = protocol._chunk_counts(kind, config, 0, chunk)
    table = protocol.CountTable("theta=60", kind, config.settings_pairs[0][1],
                                {o: int(n) for o, n in zip(protocol.OUTCOMES, counts)})
    assert table.n_total == protocol._CHUNK
    assert chi_square_gof(table, kind)[1] > 1e-3


def top_of_range_passes(kind):
    """Both passes of the last chunk of the largest run a config accepts, one
    fixed pair of 2^61 trials: chunk 2^44 - 1, with trial ids up to
    2^61 - 1, and the run's config."""
    config = fixed_config(deg=60.0, trials=1 << 61, seed=3)
    assert config.chunks() == 1 << 44
    passes = protocol.chunk_passes(kind, config, 0, (1 << 44) - 1)
    assert passes[0] + passes[1].size == 1 << 61
    return passes, config


@pytest.mark.parametrize("kind", ["B1", "B2", "C"])
def test_top_of_range_spins_reproduce_the_counting_outcomes(kind):
    (_, sigma, tau, _, spin), config = top_of_range_passes(kind)
    pair = config.settings_pairs[0][1]
    want = _sign_responses(spin, pair.n_L.as_array(), pair.n_R.as_array())
    np.testing.assert_array_equal(sigma, want[0])
    np.testing.assert_array_equal(tau, want[1])


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C", "QM"])
def test_top_of_range_log_lines_audit_clean(tmp_path, monkeypatch, kind):
    # the chunk's last 1,000 trials as the log spells them: their trial ids
    # and seqs are integers in range, the last seq 4 * (2^61 - 1) + 3, the
    # largest int64, where a trial has four messages; the audit takes every
    # line, seqs of 19 digits included, without parsing it
    (first_id, sigma, tau, t_pitch, spin), config = top_of_range_passes(kind)
    last = slice(-1000, None)
    path = tmp_path / "events.ndjson"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(protocol._chunk_lines(
            first_id + sigma.size - 1000, sigma[last], tau[last], t_pitch[last],
            None if spin is None else spin[last], config.delta_t))
    per_trial = 2 if kind == "QM" else 4
    parsed = _parsed_lines(monkeypatch)
    report = audit_file(path, kind)
    assert report.passed and report.messages == 1000 * per_trial, report.violations
    assert parsed == []
    messages = [json.loads(line) for line in path.read_text().splitlines()]
    assert messages[-1]["seq"] == per_trial * (1 << 61) - 1
    assert messages[-1]["payload"]["trial_id"] == (1 << 61) - 1
    if kind != "QM":
        assert messages[-1]["seq"] == np.iinfo(np.int64).max


def _settings_of(kind, config, t_pitch, spin, stream, chunk):
    """The settings of a B1 or B2 chunk's trials: the pair, the watches' read
    at the chunk's pitch times, or the coordinator's draw given its spins."""
    pair = config.streams()[stream][1]
    if pair is not None:
        return pair.n_L.as_array(), pair.n_R.as_array()
    if kind == "B1":
        return tuple(wt.batter_vectors_array(w.mirrored(), t_pitch + config.delta_t,
                                             config.delta_t)
                     for w in (config.bank.watch_T, config.bank.watch_H))
    coordinator = protocol._stream(config.seed, "B2:free", chunk, COORDINATOR)
    return sample_settings_B2_array(spin, coordinator, len(spin))


def test_lune_outcomes_are_the_signs_of_the_spin_on_read():
    # run_chunk's B1 and B2 outcomes come from the lune draws alone; the spin
    # of the ball pass, with the settings it was drawn for or with, has the
    # same signs.  Ten fixed pairs (0, 90 and 180 degrees and seven random
    # ones) and the watch-driven stream, at remainders 1, 2, 3 and 5 of the
    # Philox block and across chunk boundaries: about 4.7e6 trials
    rng = np.random.default_rng(4)
    pairs = [(f"theta={d:g}", SettingsPair(Z, planar(d))) for d in (0.0, 90.0, 180.0)]
    pairs += [(f"r{i}", SettingsPair(*(UnitVector.normalized(*rng.normal(size=3))
                                       for _ in range(2)))) for i in range(7)]
    for kind in ("B1", "B2"):
        for trials, big in ((1, 1), (2, 2), (3, 3), (5, 5), ((1 << 17) + 1, (1 << 20) + 1)):
            for config in (ExperimentConfig(trials=trials, seed=trials, settings_pairs=pairs),
                           ExperimentConfig(trials=big, seed=trials, watch_driven=True)):
                for si in range(len(config.streams())):
                    for ci in range(config.chunks()):
                        _, sigma, tau, t_pitch, spin = chunk_passes(kind, config, si, ci)
                        want = _sign_responses(
                            spin, *_settings_of(kind, config, t_pitch, spin, si, ci))
                        np.testing.assert_array_equal(sigma, want[0])
                        np.testing.assert_array_equal(tau, want[1])


def test_watch_driven_settings_agree():
    cfg = ExperimentConfig(trials=50, seed=3, watch_driven=True, log_events=True)
    for kind in ("A", "B1", "C"):
        tables, log = run_experiment(kind, cfg)
        assert tables[0].settings is None
        assert tables[0].n_total == 50


def test_watch_driven_free_running_flat_law():
    # averaged over equidistributed settings every cell carries mass 1/4
    cfg = ExperimentConfig(trials=500_000, seed=8, watch_driven=True)
    for kind in ("A", "B1", "B2", "QM"):
        tables, _ = run_experiment(kind, cfg)
        for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            assert abs(tables[0].frequency(s, t) - 0.25) < 0.003


def test_setting_mismatch_raises(monkeypatch):
    from singletsim import protocol as proto

    read = proto.wt.watch_vectors_array

    def broken(w, t):  # the pitcher's clockwise read, one second late
        return read(w, np.asarray(t) + 1.0)

    monkeypatch.setattr(proto.wt, "watch_vectors_array", broken)
    cfg = ExperimentConfig(trials=1, seed=3, watch_driven=True, log_events=True)
    with pytest.raises(ProtocolIntegrityError):
        run_experiment("A", cfg)
    # unlogged runs take their settings from the batters' reads alone
    tables, _ = run_experiment("A", ExperimentConfig(trials=1, seed=3, watch_driven=True))
    assert tables[0].n_total == 1


def test_audit_passes_on_conforming_log():
    for kind in ("A", "B1", "C", "QM"):
        cfg = fixed_config(trials=40, seed=2, log_events=True)
        _, log = run_experiment(kind, cfg)
        report = audit_locality(log, kind)
        assert report.passed, report.violations


def _logged_log(kind="A", trials=20):
    cfg = fixed_config(trials=trials, seed=2, log_events=True)
    _, log = run_experiment(kind, cfg)
    return messages_of(log)


def _write_messages(messages, path):
    """A hand-forged log: one message per line, as json.dumps spells it."""
    with open(path, "w", encoding="utf-8") as fh:
        for m in messages:
            fh.write(json.dumps(m) + "\n")


def _forged(log, sender, receiver, kind, payload):
    return {"seq": len(log), "t_send": 1.0, "sender": sender, "receiver": receiver,
            "kind": kind, "payload": payload}


def test_audit_flags_batter_to_batter():
    log = _logged_log()
    log.append(_forged(log, BATTER_L, BATTER_R, "gossip", {"outcome": 1}))
    report = audit_locality(map(json.dumps, log), "A")
    assert not report.passed
    assert any(rule == 1 for _, rule, _ in report.violations)


def test_audit_flags_batter_to_pitcher():
    log = _logged_log()
    log.append(_forged(log, BATTER_R, PITCHER, "feedback", {}))
    report = audit_locality(map(json.dumps, log), "A")
    assert any(rule == 2 for _, rule, _ in report.violations)


def test_audit_flags_setting_leak_in_ball():
    log = _logged_log()
    m = next(m for m in log if m["kind"] == "ball")
    m["payload"]["setting"] = [0.0, 0.0, 1.0]
    report = audit_locality(map(json.dumps, log), "A")
    assert any(rule == 3 for _, rule, _ in report.violations)


def test_audit_flags_duplicate_ball():
    log = _logged_log()
    m = next(m for m in log if m["kind"] == "ball")
    log.append(_forged(log, m["sender"], m["receiver"], "ball", dict(m["payload"])))
    report = audit_locality(map(json.dumps, log), "A")
    assert [v for v in report.violations if v[1] == 4] == [
        (-1, 4, f"trial {m['payload']['trial_id']}: 2 balls to {m['receiver']}, expected 1")]


def test_audit_flags_misrouted_report():
    log = _logged_log()
    i = next(i for i, m in enumerate(log) if m["kind"] == "result_report")
    m = log[i]
    log[i] = {**m, "receiver": PITCHER}
    report = audit_locality(map(json.dumps, log), "A")
    assert any(rule in (2, 5) for _, rule, _ in report.violations)


def test_audit_qm_expects_no_balls():
    log = _logged_log("QM")
    assert audit_locality(map(json.dumps, log), "QM").passed
    log.append(_forged(log, PITCHER, BATTER_L, "ball",
                       {"trial_id": 0, "spin": [0, 0, 1], "t_pitch": 0.0, "delta_t": 1.5}))
    assert not audit_locality(map(json.dumps, log), "QM").passed


HINT = {"seq": 100, "t_send": 1.0, "sender": PITCHER, "receiver": BATTER_L, "kind": "hint",
        "payload": {"trial_id": 0, "setting_R": [0.8660254037844386, 0.0, 0.5]}}
INSTALL = {"seq": 102, "t_send": 1.0, "sender": COORDINATOR, "receiver": BATTER_L,
           "kind": "install", "payload": {"n_R": [1, 0, 0]}}
GOSSIP = {"seq": 104, "t_send": 1.0, "sender": BATTER_R, "receiver": BATTER_L, "kind": "hint",
          "payload": {"trial_id": 0, "outcome": 1}}

# edits of a three-trial model A log that send a batter something other than
# the pitcher's ball, and the audit line each must print: the pitcher hands
# batter_L the other station's setting, the coordinator installs one, the
# coordinator pitches trial 0's left ball in the pitcher's place, and a
# batter tells the other one, which is rule 1 alone
ONLY_BALLS = ": a batter receives only the pitcher's balls"
NOT_THE_PITCHERS_BALL = {
    "pitcher's hint": (lambda lines: lines + [json.dumps(HINT)],
                       "rule 3 (seq 100): hint message pitcher->batter_L" + ONLY_BALLS),
    "coordinator's install": (lambda lines: lines + [json.dumps(INSTALL)],
                              "rule 3 (seq 102): install message coordinator->batter_L"
                              + ONLY_BALLS),
    "coordinator's ball": (lambda lines: [lines[0].replace('"pitcher"', '"coordinator"')]
                           + lines[1:],
                           "rule 3 (seq 0): ball message coordinator->batter_L" + ONLY_BALLS),
    "batter's hint": (lambda lines: lines + [json.dumps(GOSSIP)],
                      "rule 1 (seq 104): batter-to-batter message batter_R->batter_L"),
}


@pytest.mark.parametrize("name", NOT_THE_PITCHERS_BALL)
def test_audit_flags_a_batter_sent_anything_but_the_pitchers_ball(tmp_path, capsys, name):
    out = tmp_path / "run"
    assert main(["simulate", "--model", "A", "--theta-deg", "60", "--trials", "3", "--seed", "0",
                 "--log-events", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    edit, want = NOT_THE_PITCHERS_BALL[name]
    path = out / "events.ndjson"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    assert main(["audit", "--log", str(path), "--model", "A"]) == EXIT_AUDIT
    assert capsys.readouterr().out.splitlines() == ["audit: FAIL (1 violations)", "  " + want]


@pytest.mark.parametrize("kind", ["A", "QM"])
def test_event_log_iterates_the_lines_it_writes(tmp_path, monkeypatch, kind):
    # the view and the file hold the same lines, and neither the view nor
    # the audit of a conforming run parses one
    _, log = run_experiment(kind, fixed_config(trials=20, seed=2, log_events=True))
    path = tmp_path / "events.ndjson"
    write_event_log(log, path)
    parsed = _parsed_lines(monkeypatch)
    assert list(log) == path.read_text().splitlines(keepends=True)
    assert audit_locality(log, kind).passed and parsed == []


TRIAL_ONE_IDS = {
    "true": lambda payload: payload.update(trial_id=True),
    "string": lambda payload: payload.update(trial_id="1"),
    "missing": lambda payload: payload.pop("trial_id"),
}


@pytest.mark.parametrize("name", TRIAL_ONE_IDS)
def test_audit_flags_trial_id_not_an_integer(tmp_path, capsys, name):
    # a ball or result report must name its trial by a JSON integer: JSON
    # true is no trial 1, and a message naming no trial is not dropped
    log = _logged_log(trials=2)
    for m in log:
        if m["payload"]["trial_id"] == 1:
            TRIAL_ONE_IDS[name](m["payload"])
    path = tmp_path / "events.ndjson"
    _write_messages(log, path)
    assert main(["audit", "--log", str(path), "--model", "A"]) == EXIT_AUDIT
    got = {"true": "true", "string": '"1"', "missing": "none"}[name]
    assert capsys.readouterr().out.splitlines() == ["audit: FAIL (4 violations)"] + [
        f"  rule 4 (seq {m['seq']}): {m['kind']} has trial id {got}, not a 64-bit integer"
        for m in log[4:]]


def test_log_timestamps_non_decreasing():
    log = _logged_log("A", trials=50)
    ts = [m["t_send"] for m in log]
    assert all(b >= a for a, b in zip(ts, ts[1:]))


def test_event_log_round_trip(tmp_path):
    _, log = run_experiment("A", fixed_config(trials=20, seed=2, log_events=True))
    p = tmp_path / "events.ndjson"
    write_event_log(log, p)
    back = list(read_event_log(p))
    assert len(back) == len(log) == 80
    assert back == messages_of(log)


def test_read_event_log_rejects_malformed(tmp_path):
    p = tmp_path / "bad.ndjson"
    p.write_text('{"seq": 0, "t_send": "not-a-number"}\n')
    with pytest.raises(ValueError, match="line 1"):
        list(read_event_log(p))
    good = (tmp_path / "events.ndjson")
    _write_messages(_logged_log(trials=1), good)
    p.write_text(good.read_text() + "{{{ not json\n")
    with pytest.raises(ValueError, match="line 5"):
        list(read_event_log(p))


@pytest.mark.parametrize("delta_t", [2, 0.0])
@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C", "QM"])
def test_event_log_spelled_as_json_dumps(tmp_path, monkeypatch, kind, delta_t):
    # small chunks and line blocks, so the run spans several of each and the
    # two streams; at 90 degrees the atom spins carry +-0.0
    monkeypatch.setattr(protocol, "_CHUNK", 8)
    monkeypatch.setattr(protocol, "_LOG_ROWS", 3)
    x, y = UnitVector(1.0, 0.0, 0.0), UnitVector(0.0, 1.0, 0.0)
    cfg = ExperimentConfig(trials=19, seed=5, delta_t=delta_t, log_events=True,
                           settings_pairs=[("zx", SettingsPair(Z, x)), ("yz", SettingsPair(y, Z))])
    _, log = run_experiment(kind, cfg)
    path = tmp_path / "events.ndjson"
    write_event_log(log, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(log) == (2 if kind == "QM" else 4) * 38
    assert all(line == json.dumps(json.loads(line)) for line in lines)
    assert [json.loads(line)["seq"] for line in lines] == list(range(len(lines)))
    assert messages_of(log) == list(read_event_log(path))
    # an integer time of flight is spelled as one, as json.dumps spells it
    assert {json.dumps(m["payload"]["delta_t"]) for m in messages_of(log) if m["kind"] == "ball"} \
        <= {json.dumps(delta_t)}


# SHA-256 of events.ndjson from `simulate --theta-deg 60 45 --trials 300 --seed 3
# --log-events`, recorded when each message was still a dataclass (B1 and B2
# re-recorded when the exact lune samplers replaced rejection sampling)
EVENT_LOG_SHA256 = {
    "A": "0ed7b0d0f190a1f220aecb8afd44b957a57f702d2cba013089bfdb702500d687",
    "B1": "c99910ae29f77d4e9a1949bda47c03745b78bf21ae27a3fa69ae722e502334b6",
    "B2": "af590cbe19e2c0a0a0531b6f44a6360c3c0d67150263d4598aecada51b16610c",
    "C": "a34df00eba98f54db725c450e57eede38529158086a28d1f062f51735b7a235e",
    "QM": "fba5b7dc84ec64f77d71a150ef57d74f3c73d8307e59cf94e3eb611dc646457c",
}


@pytest.mark.parametrize("kind", sorted(EVENT_LOG_SHA256))
def test_event_log_bytes_pinned(tmp_path, capsys, kind):
    out = tmp_path / "run"
    assert main(["simulate", "--model", kind, "--theta-deg", "60", "45", "--trials", "300",
                 "--seed", "3", "--log-events", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    digest = hashlib.sha256((out / "events.ndjson").read_bytes()).hexdigest()
    assert digest == EVENT_LOG_SHA256[kind]


# SHA-256 of events.ndjson from `simulate --theta-deg 60 45 --trials 303 --seed 3
# --log-events`: 303 = 4 * 75 + 3 trials end each stream's chunk inside a
# four-word Philox block, so the pitch times of the logged trials are pinned
# at a partial block
PARTIAL_BLOCK_LOG_SHA256 = {
    "A": "38ee8803fb947c4cf1ad8bb9113913978ff68d01b08c1cf0eab8e7200ce6cf89",
    "B1": "08a12daeb7732a115b40cc9cdeb6f85c7e868751dbd8a54fe6a251609bb9e56a",
    "B2": "6271c734e802374cd6205f0e916a80ca660cc8c06d014a1b63335a4ce0b8f956",
}


@pytest.mark.parametrize("kind", sorted(PARTIAL_BLOCK_LOG_SHA256))
def test_partial_block_event_log_bytes_pinned(tmp_path, capsys, kind):
    out = tmp_path / "run"
    assert main(["simulate", "--model", kind, "--theta-deg", "60", "45", "--trials", "303",
                 "--seed", "3", "--log-events", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    digest = hashlib.sha256((out / "events.ndjson").read_bytes()).hexdigest()
    assert digest == PARTIAL_BLOCK_LOG_SHA256[kind]


# SHA-256 of events.ndjson from `simulate --watch-driven --trials 303 --seed 3
# --log-events`: the logged trials of the free-running stream, whose settings
# come off the watches (B2: from the coordinator, given the spin)
WATCH_LOG_SHA256 = {
    "A": "e354072d89b65f0e5296575e26633c8763c44fffeacb26784fa3b3465e611f41",
    "B1": "b4da3bcdb0236877cac53ae42093caa4e05069e804432f9f72e79ad59abb3449",
    "B2": "c4fa894982438a81d22b953d9ed4a3d4254f08ead8f875b5b5c495e6df8bc726",
    "C": "164f90d83ff6e00772a02aafa634511cfdfab76ded729bd50c0e74dcaa3e0a2a",
    "QM": "e39842a69b5c92188c6b214ac17b2c7e0dabc9f1c91f78323198bfd0769081a9",
}


@pytest.mark.parametrize("kind", sorted(WATCH_LOG_SHA256))
def test_watch_driven_event_log_bytes_pinned(tmp_path, capsys, kind):
    out = tmp_path / "run"
    assert main(["simulate", "--model", kind, "--watch-driven", "--trials", "303",
                 "--seed", "3", "--log-events", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    digest = hashlib.sha256((out / "events.ndjson").read_bytes()).hexdigest()
    assert digest == WATCH_LOG_SHA256[kind]


# SHA-256 of the three counts.csv files of `simulate --seed 11 --trials n` with
# `--theta-deg 0 45 90 180`, with one non-coplanar `--settings-file` pair and
# with `--watch-driven`, concatenated in that order.  The trial counts cover
# every remainder mod 4 and a chunk boundary; at 90 degrees the atom spins of
# A and C lie on the other batter's boundary, where sgn(0) = +1
COUNTS_CSV_SHA256 = {
    ("A", 1): "d8b2bb2186b8392c45d23abe6831677b8cd44bb4d72b4a8a06dd7db90b0723ba",
    ("A", 2): "84644e834aa4bd431365086dd4b3b9d0ea9acf87a1d92d24519ce9246d9bf1d4",
    ("A", 3): "6c5770e01a68d168437a171efc2000c47b18cd1b0b9dc0ef759ec3e9d9b415f5",
    ("A", 5): "f1bbe3e0f85afdaced3cb81eaa225a48b2ba773e1b8bbca470e0bfca87192a92",
    ("A", 131073): "09357b17259c232123e422862a723b3944a06e8a86cbd9a848dcda34ca9062ad",
    ("B1", 1): "01e1c75cb71a095867e53def75bbbaa9160c25e0effa789788dcac04d3a09d45",
    ("B1", 2): "3b8575342fe577b25d686559e8cfb13da40e46bd3588be02411a1317389c68d2",
    ("B1", 3): "67b878f1253504a16be75d37321121430259dac221d835c6a98c14e3589881d8",
    ("B1", 5): "de4bf35f9b766add0e8d5c5e5ac0960a8accb21562c52a910c1f9e581481ff2a",
    ("B1", 131073): "7857eaa873dfc2225460782396216530ec842b43f7fa71abc97f3372ba65bd99",
    ("B2", 1): "883eb32657e4e1d6b9bd8b748aa6ad92ad1fccda9348e137bed77fe9df2679e4",
    ("B2", 2): "8bb513b9da16f57a096a447113372480e2c8ec49363f680a26e7457b4c9aa857",
    ("B2", 3): "fad04f6af8dd00b45367732177a034b76f4cb9449de8abf8a13c205fb98909fa",
    ("B2", 5): "8c09ca8eedd2c5eb56d162d408950186c35236f8669b32091fcb6387cec00267",
    ("B2", 131073): "f9336ef07b9f71bc631d9f5a380dc04a31c309faa8b76d8ace56896b18dd3433",
    ("C", 1): "1d118a8a233d5384cd4122336155b372845568f267b44f20851e50d009a645a3",
    ("C", 2): "6b2c60d234876fe711ed68fa10158640b402319f31bad576c15d3015c1cf754c",
    ("C", 3): "3ab1b52d26425d50594d5bb3d13d8391bff55758d05bb36cb0dc1815c3615b6c",
    ("C", 5): "ad052f852fbb53c65cdf2f4616346c894a380f5585a7959527db50e580a19e1e",
    ("C", 131073): "5ec58bffa80da5c86fa3c06cc612d8ed3e80a0d46b466d4794108339b356c93f",
    ("QM", 1): "ae1c35ece374a8415e0e8e8c5399c69b5afee1293829425e6f175ca26cae0eef",
    ("QM", 2): "5c381c0ab7cda23ec213fe5c80da0fac8294e0f036819923630de1f30c0ec80c",
    ("QM", 3): "0473c7b2de7133be2071895dfd259aa5c16cbe394d57967c8f98ae32f5e6b95b",
    ("QM", 5): "30a2b0356b3e8abe3c4f63e27eb415f5c6998567d82f5231d3c5c7f1fbe7e712",
    ("QM", 131073): "74e8cbb15d89b17c35cc0b2d9a5f8c59c9c5735352174638e30f721776a67833",
}


@pytest.mark.parametrize("kind, trials", sorted(COUNTS_CSV_SHA256))
def test_counts_bytes_pinned(tmp_path, capsys, kind, trials):
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps([{"label": "skew", "n_L": [1, 2, 2], "n_R": [2, -1, 3]}]))
    digest = hashlib.sha256()
    for settings in (["--theta-deg", "0", "45", "90", "180"],
                     ["--settings-file", str(pair_file)], ["--watch-driven"]):
        out = tmp_path / "run"
        assert main(["simulate", "--model", kind, "--trials", str(trials), "--seed", "11",
                     *settings, "--out", str(out)]) == EXIT_OK
        digest.update((out / "counts.csv").read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == COUNTS_CSV_SHA256[kind, trials]

REPORT = {"seq": 2, "t_send": 1.5, "sender": BATTER_L, "receiver": "coordinator",
          "kind": "result_report", "payload": {"trial_id": 0, "outcome": 1}}


def _retyped(**fields):
    return {**REPORT, **fields}


ILL_TYPED = {
    "seq string": _retyped(seq="5"),
    "seq bool": _retyped(seq=True),
    "seq float": _retyped(seq=1.5),
    "t_send string": _retyped(t_send="x"),
    # json.dumps spells these NaN, Infinity and -Infinity: no JSON numbers
    "t_send NaN": _retyped(t_send=math.nan),
    "t_send Infinity": _retyped(t_send=math.inf),
    "t_send -Infinity": _retyped(t_send=-math.inf),
    "sender number": _retyped(sender=3),
    "payload list": _retyped(payload=[["trial_id", 0]]),
    "top-level list": [],
    "no kind": {k: v for k, v in REPORT.items() if k != "kind"},
}


@pytest.mark.parametrize("name", ILL_TYPED)
def test_event_log_rejects_ill_typed_line(tmp_path, capsys, name):
    good = tmp_path / "events.ndjson"
    _write_messages(_logged_log(trials=1), good)
    lines = good.read_text().splitlines()
    lines[2] = json.dumps(ILL_TYPED[name])
    bad = tmp_path / "bad.ndjson"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 3"):
        list(read_event_log(bad))
    assert main(["audit", "--log", str(bad), "--model", "A"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("cannot read event log:") and "line 3" in err[0]


def _audit_one_line(tmp_path, capsys, line):
    """Exit code, stdout and stderr lines of `audit --model QM` on a one-line
    log."""
    path = tmp_path / "events.ndjson"
    path.write_text(line + "\n")
    code = main(["audit", "--log", str(path), "--model", "QM"])
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err.splitlines()


NESTED = "[" * 100_000 + "]" * 100_000

# lines json.dumps does not write: a t_send spelled past the largest double,
# which parses to infinity, and lines nested past the parser's recursion limit
UNREADABLE = {
    **{f"t_send {v}": json.dumps(REPORT).replace("1.5", v) for v in ("1e400", "-1e400", "2e308")},
    "nested": NESTED,
    "nested in payload": json.dumps(_retyped(payload={"trial_id": 0, "x": 0})).replace(
        '"x": 0', f'"x": {NESTED}'),
}


@pytest.mark.parametrize("name", UNREADABLE)
def test_audit_refuses_unreadable_line(tmp_path, capsys, name):
    code, out, err = _audit_one_line(tmp_path, capsys, UNREADABLE[name])
    assert code == EXIT_USAGE and out == []
    assert len(err) == 1 and err[0].startswith("cannot read event log:") and "line 1" in err[0]


def test_event_log_takes_an_integer_t_send_of_any_size(tmp_path, capsys):
    line = json.dumps(_retyped(t_send=10 ** 400))
    code, out, err = _audit_one_line(tmp_path, capsys, line)
    assert (code, out, err) == (EXIT_OK, ["audit: PASS (1 messages, 0 violations)"], [])
    (m,) = read_event_log(tmp_path / "events.ndjson")
    assert m["t_send"] == 10 ** 400


REPORT_LINE = json.dumps(REPORT)

NOT_ONE_OBJECT = {
    "two objects": REPORT_LINE + REPORT_LINE,
    "two objects, spaced": REPORT_LINE + " " + REPORT_LINE,
    "trailing garbage": REPORT_LINE + " x",
    "unterminated": REPORT_LINE[:-1],
    "top-level array": f"[{REPORT_LINE}]",
}


@pytest.mark.parametrize("name", NOT_ONE_OBJECT)
def test_read_event_log_needs_one_whole_object_per_line(tmp_path, name):
    path = tmp_path / "events.ndjson"
    _write_messages(_logged_log(trials=1), path)
    lines = path.read_text().splitlines()
    lines[2] = NOT_ONE_OBJECT[name]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 3"):
        list(read_event_log(path))


# the error that protocol._message raises for each malformed line above but
# the nested ones, whose RecursionError text is the interpreter's
MESSAGE_ERRORS = {
    "seq string": "missing or ill-typed fields ['seq']",
    "seq bool": "missing or ill-typed fields ['seq']",
    "seq float": "missing or ill-typed fields ['seq']",
    "t_send string": "missing or ill-typed fields ['t_send']",
    "t_send NaN": "NaN is not a JSON number",
    "t_send Infinity": "Infinity is not a JSON number",
    "t_send -Infinity": "-Infinity is not a JSON number",
    "sender number": "missing or ill-typed fields ['sender']",
    "payload list": "missing or ill-typed fields ['payload']",
    "top-level list": "a message must be a JSON object",
    "no kind": "missing or ill-typed fields ['kind']",
    "t_send 1e400": "t_send is not finite",
    "t_send -1e400": "t_send is not finite",
    "t_send 2e308": "t_send is not finite",
    "two objects": "Extra data: line 1 column 142 (char 141)",
    "two objects, spaced": "Extra data: line 1 column 143 (char 142)",
    "trailing garbage": "Extra data: line 1 column 143 (char 142)",
    "unterminated": "Expecting ',' delimiter: line 1 column 141 (char 140)",
    "top-level array": "a message must be a JSON object",
}


@pytest.mark.parametrize("name", MESSAGE_ERRORS)
def test_message_error_text_pinned(name):
    lines = {**{k: json.dumps(m) for k, m in ILL_TYPED.items()}, **UNREADABLE, **NOT_ONE_OBJECT}
    with pytest.raises(ValueError) as exc:
        protocol._message(lines[name])
    assert str(exc.value) == MESSAGE_ERRORS[name]


def test_read_event_log_skips_blank_lines_and_takes_crlf(tmp_path):
    messages = _logged_log(trials=2)
    lines = [json.dumps(m) for m in messages]
    path = tmp_path / "events.ndjson"
    path.write_bytes(("\r\n".join(lines[:3] + ["", "  "] + lines[3:]) + "\r\n").encode())
    assert list(read_event_log(path)) == messages


def _written_log(tmp_path, kind, trials=3):
    """The bytes of a fixed-settings log as the writer spells it."""
    _, log = run_experiment(kind, fixed_config(trials=trials, seed=2, log_events=True))
    write_event_log(log, tmp_path / "written.ndjson")
    return (tmp_path / "written.ndjson").read_bytes()


def _both_audits(path, kind):
    """The report or error of the audit of ``path`` by audit_locality and
    by the generic reference, protocol._Tally over read_event_log."""
    def outcome(audit):
        try:
            return audit()
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"

    def generic():
        tally = protocol._Tally()
        for m in read_event_log(path):
            tally.check(m)
        return tally.report(kind)
    return outcome(lambda: audit_file(path, kind)), outcome(generic)


def _first_line_replaced(old, new):
    return lambda log: log.replace(old, new, 1)


# edits of a three-trial log of model A: audit_locality must give each
# edited log the report or the error that the generic path gives it
DIFFERENTIAL = {
    "as written": lambda log: log,
    "invalid UTF-8 byte": lambda log: log.replace(b"batter_R", b"batter_\xff", 1),
    "CRLF line ends": lambda log: log.replace(b"\n", b"\r\n"),
    "blank lines and lines of spaces": lambda log: log.replace(b"\n", b"\n\n   \n\t\n", 2),
    "last line without a line break": lambda log: log[:-1],
    "byte order mark": lambda log: b"\xef\xbb\xbf" + log,
    "t_send 1e+99": lambda log: re.sub(rb'"t_send": [^,]*', b'"t_send": 1e+99', log, 1),
    "t_send 1e+100": lambda log: re.sub(rb'"t_send": [^,]*', b'"t_send": 1e+100', log, 1),
    "t_send 1e400": lambda log: re.sub(rb'"t_send": [^,]*', b'"t_send": 1e400', log, 1),
    "19-digit trial id in int64": lambda log: log.replace(
        b'"trial_id": 0,', b'"trial_id": 1000000000000000000,'),
    "19-digit trial id past int64": _first_line_replaced(
        b'"trial_id": 0,', b'"trial_id": 9223372036854775808,'),
    "trial id 2**63 - 1": lambda log: log.replace(
        b'"trial_id": 0,', b'"trial_id": 9223372036854775807,'),
    "trial id 2**63": lambda log: log.replace(
        b'"trial_id": 0,', b'"trial_id": 9223372036854775808,'),
    "seq 10**19 - 1": _first_line_replaced(b'"seq": 0,', b'"seq": 9999999999999999999,'),
    "5000-digit seq": _first_line_replaced(b'"seq": 0,', b'"seq": 1' + b"0" * 4999 + b","),
    "duplicated ball line": lambda log: log.split(b"\n", 1)[0] + b"\n" + log,
    "deleted ball line": lambda log: log.split(b"\n", 1)[1],
    "Arabic-Indic digit in a trial id": _first_line_replaced(
        b'"trial_id": 0,', '"trial_id": \u0663,'.encode()),
    "leading zero in a trial id": _first_line_replaced(b'"trial_id": 0,', b'"trial_id": 00,'),
    "ball to the coordinator": _first_line_replaced(b'"batter_L", "kind": "ball"',
                                                     b'"coordinator", "kind": "ball"'),
}


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_fast_audit_matches_the_generic_audit(tmp_path, name):
    path = tmp_path / "events.ndjson"
    path.write_bytes(DIFFERENTIAL[name](_written_log(tmp_path, "A")))
    fast, generic = _both_audits(path, "A")
    assert fast == generic


# what a random edit inserts or writes over: JSON's punctuation, digits and
# whitespace, line breaks, bytes of no UTF-8 character, and numbers the
# parser refuses or reads as infinite
EDITS = (b'"', b"0", b"1", b"7", b"-", b"+", b".", b"e", b"E", b",", b":", b"{", b"}",
         b"[", b"]", b" ", b"\t", b"\r", b"\n", b"\r\n", b"\x1c", b"\xff", b"\x80",
         "\u2028".encode(), "\u0663".encode(), b"x", b"1e400", b"NaN", b"9" * 5000)


def test_fast_audit_matches_the_generic_audit_on_random_edits(tmp_path):
    rng = np.random.default_rng(21)
    logs = {kind: _written_log(tmp_path, kind) for kind in ("A", "QM")}
    path = tmp_path / "events.ndjson"
    for _ in range(400):
        kind = ("A", "QM")[rng.integers(2)]
        log = logs[kind]
        op, at = rng.integers(4), rng.integers(len(log))
        edit = EDITS[rng.integers(len(EDITS))]
        if op == 0:  # insert
            log = log[:at] + edit + log[at:]
        elif op == 1:  # write over one byte
            log = log[:at] + edit + log[at + 1:]
        else:  # duplicate or delete one whole line
            lines = log.splitlines(keepends=True)
            i = rng.integers(len(lines))
            lines[i:i + 1] = [lines[i]] * (2 if op == 2 else 0)
            log = b"".join(lines)
        path.write_bytes(log)
        fast, generic = _both_audits(path, kind)
        assert fast == generic, log


def _parsed_lines(monkeypatch):
    """The lines that protocol._message parses from now on."""
    parsed = []
    message = protocol._message
    monkeypatch.setattr(protocol, "_message", lambda line: parsed.append(line) or message(line))
    return parsed


@pytest.mark.parametrize("settings", [["--theta-deg", "60", "90"], ["--watch-driven"]],
                         ids=["fixed", "watch-driven"])
@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C", "QM"])
def test_every_written_line_takes_the_fast_path(tmp_path, monkeypatch, capsys, kind, settings):
    out = tmp_path / "run"
    assert main(["simulate", "--model", kind, *settings, "--trials", "300", "--seed", "3",
                 "--log-events", "--out", str(out)]) == EXIT_OK
    parsed = _parsed_lines(monkeypatch)
    report = audit_file(out / "events.ndjson", kind)
    assert report.passed and parsed == []
    assert report.messages == json.loads((out / "manifest.json").read_text())["events"]


@pytest.mark.parametrize("epoch, fast", [(1e17, True), (1e300, False)])
def test_far_epoch_log_audits_on_its_spelling_path(tmp_path, monkeypatch, capsys, epoch, fast):
    # pitch times near 1e17 are spelled 1.0000000000001e+17, which the fast
    # path takes; 1e+300 has a three-digit exponent, which it leaves to the
    # generic path
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epoch": epoch}))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--model", "B1", "--theta-deg", "60",
                 "--trials", "300", "--seed", "3", "--log-events", "--out", str(out)]) == EXIT_OK
    lines = (out / "events.ndjson").read_text().splitlines()
    assert all(json.dumps(json.loads(line)) == line for line in lines)
    parsed = _parsed_lines(monkeypatch)
    report = audit_file(out / "events.ndjson", "B1")
    assert report.passed and report.messages == len(lines) == 1200
    assert parsed == ([] if fast else lines)


def test_counts_csv_format(tmp_path):
    cfg = fixed_config(deg=60.0, trials=1000, seed=4)
    tables, _ = run_experiment("A", cfg)
    p = tmp_path / "counts.csv"
    write_counts_csv(tables, p)
    lines = p.read_text().splitlines()
    assert lines[0].startswith("model,pair_label,nL_x")
    assert len(lines) == 1 + 4
    row = lines[1].split(",")
    assert row[0] == "A"
    assert int(row[10]) >= 0


def test_b1_b2_equivalence_in_law():
    # realization with settings-conditioned spin vs spin-conditioned settings:
    # same joint law of (sign cells of u) x outcomes
    n = 100_000
    u1, s1, t1 = sample_joint_spin_outcomes("B1", n, seed=99)
    u2, s2, t2 = sample_joint_spin_outcomes("B2", n, seed=99)
    assert abs(np.mean(s1 * t1) - np.mean(s2 * t2)) < 0.01
    assert abs(np.mean(s1) - np.mean(s2)) < 0.01
    # octant occupancy of the spin matches too
    occ1 = np.mean(u1[:, 2] > 0)
    occ2 = np.mean(u2[:, 2] > 0)
    assert abs(occ1 - occ2) < 0.01


def test_joint_samples_are_the_free_running_kernels_chunks():
    # the equivalence-in-law samples are the ball pass's spins and the
    # counting pass's outcomes of the free-running run that simulate
    # --watch-driven counts and logs, here over two chunks
    n = (1 << 17) + 3
    config = ExperimentConfig(trials=n, seed=7, watch_driven=True)
    for kind in ("B1", "B2"):
        u, sigma, tau = sample_joint_spin_outcomes(kind, n, seed=7)
        counts = [run_chunk(kind, config, 0, ci) for ci in range(2)]
        np.testing.assert_array_equal(
            u, np.concatenate([_replayed_spin(kind, config, ci) for ci in range(2)]))
        np.testing.assert_array_equal(sigma, np.concatenate([c[0] for c in counts]))
        np.testing.assert_array_equal(tau, np.concatenate([c[1] for c in counts]))


@pytest.mark.parametrize("kind", ["A", "C", "QM"])
def test_joint_samples_are_defined_for_the_hall_realizations_only(kind):
    with pytest.raises(ValueError, match="^joint sampling is defined for the Hall realizations"):
        sample_joint_spin_outcomes(kind, 10, seed=7)


def test_free_running_b1_ball_pass_holds_one_row_block_of_geometry():
    # the setting vectors and spins of a full chunk are built in row blocks,
    # so their (n, 3) temporaries never hold the whole chunk at once
    import tracemalloc

    config = ExperimentConfig(trials=1 << 17, seed=3, watch_driven=True)
    chunk_passes("B1", config, 0, 0)  # first-call allocations out of the count
    tracemalloc.start()
    try:
        chunk_passes("B1", config, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18e6, f"peak {peak / 1e6:.1f} MB"


def test_worker_threads_capped_at_cpu_count(monkeypatch, recording_pool):
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 3)
    pairs = [(f"theta={d:g}", SettingsPair(Z, planar(d))) for d in (0.0, 45.0, 90.0, 135.0)]
    cfg = ExperimentConfig(trials=500, seed=2, settings_pairs=pairs, threads=100_000)
    tables, _ = run_experiment("A", cfg)
    asked = [p.max_workers for p in recording_pool]
    assert asked == [3]
    cfg.threads = 1
    serial, _ = run_experiment("A", cfg)
    assert [t.counts for t in tables] == [t.counts for t in serial]
    asked = [p.max_workers for p in recording_pool]
    assert asked == [3]
