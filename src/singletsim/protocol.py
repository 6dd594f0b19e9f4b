"""Three communication-free agents (pitcher, two batters) composed into
trials, plus the event log and auditor that make the no-communication claim
testable.

One kernel serves every run.  It simulates a chunk of up to 2^17 trials of
one settings pair, or of the free-running watch-driven stream, in two
passes, one for each thing that reads a chunk:

* the counting pass, :func:`run_chunk`, returns the outcomes sigma and tau,
  all that the counts read, and draws only what they need: watch-driven A,
  B1, C and QM need the pitch times and, of the settings, only their
  overlap n_L.n_R, which the hand phases give without building a setting
  vector (see :func:`watches.phases_overlap`); B1 and B2 take their
  outcomes from the lune draws of the Hall spin (see
  :func:`models.lune_outcomes`) and need no spin, and watch-driven B2 no
  settings.  A counting chunk computes in place in its job's workspace, or
  in fresh arrays outside a job of :func:`pool_map` (see :func:`_buffers`);
* the ball pass returns what the pitcher pitches, the pitch times and the
  spins, drawn in order from a freshly keyed pitcher stream: the jitter,
  then the spin.  Only the event log and the B1/B2 joint samples run it,
  through :func:`chunk_passes`, which runs both passes of a chunk, the
  counting pass first, and hands the ball pass that pass's watch read.

The overlap from the phases differs from the rounded dot product of the
built vectors by up to about 1e-15, so a watch-driven outcome can differ
from one computed from the vectors only where a uniform lies within about
5e-16 of its threshold (A, B1, QM) or the overlap within 1e-15 of 0 (C):
about 2^-50 per trial.

Each role draws only from its own counter-based stream, keyed by (seed,
tag, chunk, role), and a pass keys only the streams it draws from:

* the pitcher draws the pitch-time jitter, the coins and the spin;
* each batter draws only its own response uniforms, and sees only the ball
  columns and its own mirrored watch;
* the coordinator draws what no station may: the settings it installs in the
  batters' watches for B2 driven by a free-ticking spin, and the joint
  outcomes of the analytic QM reference.

The pitch-time jitter is the pitcher's first draws, one per trial.  A
counting pass that does not need its pitch times skips them: Philox is
counter-based, so advancing its counter past them leaves the stream exactly
where drawing them would.

Counts are a bincount of the sigma and tau columns.  The event log is a view
that runs both passes of the same chunks when it is iterated and spells each
trial out as its log lines, so logging never changes the counts and a run's
log is never held in memory.  Output is a pure function of (kind, config);
the thread count only affects wall time.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from array import array
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from operator import itemgetter
from typing import Optional

import numpy as np

from . import watches as wt
from .geometry import sample_uniform_sphere_array, sphere_points
from .models import (
    SettingsPair,
    check_kind,
    joint_analytic,
    lune_outcomes,
    outcome_int8,
    sample_hidden_B1_array,
    settings_overlap,
    skip_words,
)

PITCHER = "pitcher"
BATTER_L = "batter_L"
BATTER_R = "batter_R"
COORDINATOR = "coordinator"

OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

SETTING_AGREEMENT_TOL = 1e-9

_CHUNK = 1 << 17
_LOG_ROWS = 1024  # trials turned into Python objects at a time when logging
_POOL_BATCH = 1024  # jobs that pool_map draws and maps at a time


class ProtocolIntegrityError(RuntimeError):
    """Batter-side and pitcher-side setting reconstruction disagreed."""


@dataclass
class ExperimentConfig:
    """Everything a run depends on; together with the model kind this is the
    full reproducibility contract."""

    trials: int
    seed: int
    settings_pairs: list[tuple[str, SettingsPair]] = field(default_factory=list)
    watch_driven: bool = False
    delta_t: float = 1.5
    bank: wt.WatchBank = field(default_factory=wt.WatchBank.default)
    log_events: bool = False
    threads: int = 1
    # a class constant, not a field: the mean spacing between pitches, much
    # larger than any hand period so each trial's hand phases are effectively
    # fresh uniform draws, and increasing in trial id so the log stays ordered
    pitch_gap = 1.0e5

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (np.isfinite(self.delta_t) and self.delta_t >= 0.0):
            raise ValueError(f"time of flight must be finite and >= 0, got {self.delta_t}")
        if not self.watch_driven and not self.settings_pairs:
            raise ValueError("fixed-settings mode needs at least one settings pair")
        if self.watch_driven and self.settings_pairs:
            raise ValueError("give one source of settings: the watches or settings pairs")
        total = len(self.streams()) * self.trials
        if total > 1 << 61:  # the last message's seq, 4 * trial id + 3, is an int64
            raise ValueError(f"a run has at most 2**61 trials, got {total}")
        epoch = self.bank.watch_H.epoch  # no arrival of the run is later than `last`
        last = epoch + total * self.pitch_gap + self.delta_t
        if not np.isfinite(last):
            raise ValueError(f"the run's last arrival time, epoch + {total} trials * "
                             f"{self.pitch_gap:g} s + time of flight, is {last} s: not finite")
        if self.watch_driven:
            # a hand phase is (t - epoch) / period: refuse periods so short
            # that this ratio overflows by the run's last arrival
            shortest = min(p for w in (self.bank.watch_H, self.bank.watch_T)
                           for p in (w.period_small, w.period_large))
            if not np.isfinite((last - epoch) / shortest):
                raise ValueError(f"watch periods down to {shortest!r} s are too short for "
                                 "this run: a hand phase overflows by its last arrival")
        seen = set()
        for label, _ in self.settings_pairs:
            if label in seen:  # counts.csv keys its rows by pair label
                raise ValueError(f"settings pair label {label!r} is used twice")
            seen.add(label)

    def streams(self) -> list[tuple[str, Optional[SettingsPair]]]:
        """The independent trial streams: one per settings pair, or the single
        free-running one, whose settings come off the watches."""
        return [("free-running", None)] if self.watch_driven else self.settings_pairs

    def chunks(self) -> int:
        return -(-self.trials // _CHUNK)


@dataclass(frozen=True)
class EventLog:
    """The messages of a logged run, as a view: iterating runs both passes of
    the run's chunks one at a time and spells each trial out as its balls at
    the pitch time, then its result reports at the arrival time.  Each
    message is the JSON object of its event-log line, parsed from that line
    as :func:`audit_event_log` parses a line it does not match."""

    kind: str
    config: ExperimentConfig

    def __len__(self):
        per_trial = 2 if self.kind == "QM" else 4
        return per_trial * self.config.trials * len(self.config.streams())

    def __iter__(self):
        for text in self.trial_lines():
            for line in text.splitlines():
                yield _message(line)

    def trial_lines(self):
        """The event-log text of each trial in log order: its lines as one
        string, each line ended by a line break."""
        for si in range(len(self.config.streams())):
            for ci in range(self.config.chunks()):
                # the line generator holds the only reference to the chunk's
                # columns, so each chunk is freed before the next one is run
                yield from _chunk_lines(*chunk_passes(self.kind, self.config, si, ci),
                                        self.config.delta_t)


@dataclass
class CountTable:
    """Outcome counts for one settings pair (or one free-running stream)."""

    label: str
    model: str
    settings: Optional[SettingsPair]
    counts: dict

    @property
    def n_total(self) -> int:
        return sum(self.counts.values())

    def frequency(self, sigma: int, tau: int) -> float:
        return self.counts.get((sigma, tau), 0) / self.n_total

    def analytic(self, sigma: int, tau: int) -> float:
        # Free-running settings equidistribute to independent uniforms, whose
        # average law is flat over the four cells.
        if self.settings is None:
            return 0.25
        return joint_analytic(self.model, sigma, tau, self.settings)


@dataclass
class AuditReport:
    passed: bool
    violations: list = field(default_factory=list)
    messages: int = 0


def _stream(seed: int, *key) -> np.random.Generator:
    """Counter-based Philox stream keyed by a SHA-256 digest of (seed, key).
    Every digest also holds the word "bulk", kept so that every kernel
    stream, and with it every run's counts and event log, keeps its bytes."""
    digest = hashlib.sha256(":".join(map(str, (seed, "bulk") + key)).encode()).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest[:16], "little")))


def _watch_phases(config, t_pitch, out):
    """The hand phases (small, large) of the left and the right setting as
    the batters read them: the mirrored watch at arrival, corrected by the
    time of flight, read into ``out``, five float arrays of the pitch times'
    size: the left phases, the right small phase, scratch, and the arrival
    times, which the right large phase then overwrites; the last may be
    ``t_pitch`` itself."""
    bank, dt = config.bank, config.delta_t
    t_arrival = np.add(t_pitch, dt, out=out[4])
    return (wt.batter_phases_array(bank.watch_T.mirrored(), t_arrival, dt,
                                   (out[0], out[1], out[3])),
            wt.batter_phases_array(bank.watch_H.mirrored(), t_arrival, dt,
                                   (out[2], out[4], out[3])))


def _watch_counts(kind, config, first_id, key, t_pitch, pitcher, buffers, vectors=False):
    """The outcomes (sigma, tau) of a chunk whose settings come off the
    watches at the pitch times ``t_pitch``, and the setting vectors (n_L, n_R)
    if ``vectors``, else None.  The phases are read into ``buffers``, five
    float arrays of the chunk's size (see :func:`_buffers`), one read per
    watch; the vectors are built from them, and the overlap c = n_L.n_R
    taken over them.  Clipping c to [-1, 1] changes no A or C outcome: their
    uniforms lie in [0, 1).  ``pitcher`` is the pitcher's stream past its
    jitter draws.  A logged run first stops if the batters' setting vectors
    differ from the pitcher's reads of its clockwise watches by more than
    SETTING_AGREEMENT_TOL."""
    phases = _watch_phases(config, t_pitch, buffers)
    settings = (tuple(sphere_points(*p) for p in phases) if vectors or config.log_events
                else None)
    if config.log_events:
        bank, (n_L, n_R) = config.bank, settings
        err = np.maximum(wt.round_trip_error(bank.watch_T, t_pitch, n_L),
                         wt.round_trip_error(bank.watch_H, t_pitch, n_R))
        bad = np.flatnonzero(err > SETTING_AGREEMENT_TOL)
        if bad.size:
            raise ProtocolIntegrityError(
                f"watch round-trip mismatch {err[bad[0]]:.3e} at trial {first_id + bad[0]}")
    (a_small, a_large), (b_small, b_large) = phases
    c = wt.phases_overlap(*phases, (a_small, b_small, a_large, b_large))
    np.clip(c, -1.0, 1.0, out=c)
    return _outcomes(kind, t_pitch.size, key, c, pitcher, buffers[1:]), settings


_ATOMS = (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))  # the coins (w, up) of each atom


def _atom_coins(rng, k):
    """The pitcher's two fair coins per trial of a model A or C spin
    u = d * n_w, in their draw order: the watch w (1 -> H, the right
    setting; 0 -> T, the left) and the direction (1 -> d = +1, 0 -> -1).
    They are the top bits of the 32-bit halves of the stream's next k raw
    words, low half first, the first k halves w and the last k the
    direction: two uint32 views of one array, and on NumPy 2.4 the coins
    and stream position of two ``integers(0, 2, size=k)`` calls."""
    halves = rng.bit_generator.random_raw(k).astype("<u8", copy=False).view("<u4")
    halves >>= 31
    return halves[:k], halves[k:]


def _atom_spin(rng, k, n_L, n_R):
    """Each trial's model A or C spin u = d * n_w, shape (k, 3), for
    settings of shape (3,) or (k, 3)."""
    w, up = _atom_coins(rng, k)
    u = np.where(w[:, None] == 1, n_R, n_L)
    u *= (2.0 * up - 1.0)[:, None]
    return u


def _atom_overlaps(w, up, c, d, u_n_L):
    """u.n_L and u.n_R of the spins _atom_spin builds from the coins ``w``
    and ``up``, from the settings' overlap c alone: u.n_L = d (w ? c : 1)
    and u.n_R = d (w ? 1 : c), the self-overlap taken as the 1 it is in
    exact arithmetic.  In place: d and u.n_L are written to the float arrays
    ``d`` and ``u_n_L``, and u.n_R over ``c``."""
    np.multiply(up, 2.0, out=d)
    d -= 1.0
    right = w == 1
    c *= d
    np.copyto(u_n_L, d)
    np.copyto(u_n_L, c, where=right)
    np.copyto(c, d, where=right)
    return u_n_L, c


def _pitch_times(pitcher, first_id, k, config, out=None):
    """epoch + (trial id + jitter) * pitch_gap, in place, with the jitter the
    first k draws of the pitcher's stream.  ``out``, if given, is two float
    arrays of k rows: the pitch times are written to the first, and the
    second holds the trial ids."""
    t_pitch, ids = (np.empty(k), np.empty(k)) if out is None else out
    pitcher.random(out=t_pitch)
    # the trial ids first_id + i, by doubling: np.arange has no out=
    ids = ids.view(np.int64)
    ids[0] = first_id
    n = 1
    while n < k:
        m = min(n, k - n)
        np.add(ids[:m], n, out=ids[n:n + m])
        n *= 2
    t_pitch += ids
    t_pitch *= config.pitch_gap
    t_pitch += config.bank.watch_H.epoch
    return t_pitch


def _chunk(kind, config, stream, chunk):
    """The size, first trial id and settings pair (None when free-running)
    of a chunk, and a function that keys the chunk's stream of a role."""
    check_kind(kind)
    pair = config.streams()[stream][1]
    tag = f"{kind}:free" if pair is None else f"{kind}:pair{stream}"
    # trial ids number every stream's trials consecutively, so they are
    # unique across a run
    return (min(_CHUNK, config.trials - chunk * _CHUNK), stream * config.trials + chunk * _CHUNK,
            pair, lambda role: _stream(config.seed, tag, chunk, role))


def run_chunk(kind: str, config: ExperimentConfig, stream: int, chunk: int, workspace=None):
    """The counting pass: the outcomes (sigma, tau), int8 +-1, of trials
    [chunk * 2^17, (chunk + 1) * 2^17) of trial stream ``stream`` (an index
    into ``config.streams()``), from c = n_L.n_R of the settings pair, the
    coordinator or the watches, computed in ``workspace`` (see
    :func:`_buffers`).  It keys and draws only what they need."""
    k, first_id, pair, key = _chunk(kind, config, stream, chunk)
    if pair is not None:
        c = settings_overlap((pair.n_L.as_array(), pair.n_R.as_array()))
        return _outcomes(kind, k, key, c, None, _buffers(k, workspace))
    if kind == "B2":
        # A free-ticking spin watch gives a uniform spin, the pitcher's draws
        # after the jitter; the coordinator realizes the clock coupling by
        # installing settings given that spin into the batters' watches before
        # the trial (shared state, not a message).  Their overlap c is the
        # coordinator's first draw, -1 + 2 U (see sample_settings_B2_array).
        coordinator, buffers = key(COORDINATOR), _buffers(k, workspace)
        c = coordinator.random(out=buffers[0])
        c *= 2.0
        c -= 1.0
        return _outcomes(kind, k, key, c, coordinator, buffers[1:])
    # a logged run's round-trip check reads the pitch times after the
    # phases, so they take the workspace only unlogged
    pitcher, buffers = key(PITCHER), _buffers(k, workspace)
    t_pitch = _pitch_times(pitcher, first_id, k, config,
                           None if config.log_events else (buffers[4], buffers[3]))
    return _watch_counts(kind, config, first_id, key, t_pitch, pitcher, buffers)[0]


def _outcomes(kind, k, key, c, draws, scratch):
    """The outcomes (sigma, tau) of k trials, given the settings' overlap c,
    of shape (1,) for one settings pair shared by every trial or (k,) for
    watch-driven or free-running settings, which the arithmetic overwrites.
    ``draws`` is the stream the coins or the lune come from, past its first
    k words: the pitcher past its jitter, or free-running B2's coordinator
    past its overlaps; None keys the pitcher and skips them.  ``scratch`` is
    float arrays of k rows to compute in (see :func:`_buffers`)."""
    if kind == "QM":
        # one uniform per trial falls in the cells (+,+), (+,-), (-,+), (-,-)
        # laid out in that order on [0, 1) with widths (1 - sigma tau c) / 4:
        # tau = +1 below 0.25 (1 - c) in the lower half, 0.25 (3 + c) above
        r, cut = scratch[:2]
        lower = key(COORDINATOR).random(out=r) < 0.5
        np.add(3.0, c, out=cut)
        cut *= 0.25
        np.subtract(1.0, c, out=c)
        c *= 0.25
        np.copyto(cut, c, where=lower)
        return outcome_int8(lower), outcome_int8(r < cut)
    if draws is None:
        draws = skip_words(key(PITCHER), k)
    if kind in ("B1", "B2"):
        # the lune the spin lies in fixes the outcomes, whether B1 draws the
        # spin given the settings or B2 the settings given the spin (with
        # fixed settings, B2's clock coupling conditioned on them is B1's law)
        return lune_outcomes(c, draws, k, (scratch[0], c))
    rows, (d, u_n_L) = slice(None), scratch[:2]
    if c.size == 1:
        # a c shared by every trial: the rule is evaluated once on the four
        # atoms (w, up) = 00, 01, 10, 11, and each trial looks up its row
        rows, up = _atom_coins(draws, k)
        rows *= 2
        rows += up
        u_n_L, u_n_R = _atom_overlaps(*_ATOMS, np.repeat(c, 4), np.empty(4), np.empty(4))
    else:
        u_n_L, u_n_R = _atom_overlaps(*_atom_coins(draws, k), c, d, u_n_L)
    if kind == "C":
        return (outcome_int8(u_n_L >= 0.0)[rows],
                outcome_int8(np.negative(u_n_R, out=u_n_R) >= 0.0)[rows])
    # the response thresholds (1 + u.n_L) / 2 and (1 - u.n_R) / 2, against
    # the batters' uniforms drawn over d
    u_n_L += 1.0
    u_n_L *= 0.5
    np.subtract(1.0, u_n_R, out=u_n_R)
    u_n_R *= 0.5
    return (outcome_int8(key(BATTER_L).random(out=d) < u_n_L[rows]),
            outcome_int8(key(BATTER_R).random(out=d) < u_n_R[rows]))


def chunk_passes(kind: str, config: ExperimentConfig, stream: int, chunk: int, workspace=None):
    """Both passes of a chunk, for the event log and the joint samples:
    (first_id, sigma, tau, t_pitch, spin), the trial id of the chunk's first
    trial, :func:`run_chunk`'s outcomes, and the ball pass's pitch times and
    spins, drawn in order from a freshly keyed pitcher stream: the jitter,
    then the spin.  The left ball spins along ``spin``, shape (k, 3), the
    right ball along its negation; the QM reference pitches no balls, and
    its spin is None.  Fixed settings and free-running B2 count in
    ``workspace`` before the pitcher is keyed.  Where the settings come off
    the watches, the counting pass draws the pitch times and reads the
    watches once each into fresh arrays, never the workspace (see
    :func:`_buffers`), and the ball pass skips the jitter and draws the spin
    for the setting vectors of that read."""
    k, first_id, pair, key = _chunk(kind, config, stream, chunk)
    if pair is not None or kind == "B2":
        sigma, tau = run_chunk(kind, config, stream, chunk, workspace)
        pitcher = key(PITCHER)
        t_pitch = _pitch_times(pitcher, first_id, k, config)
        settings = None if pair is None else (pair.n_L.as_array(), pair.n_R.as_array())
    else:
        pitcher = key(PITCHER)
        t_pitch = _pitch_times(pitcher, first_id, k, config)
        (sigma, tau), settings = _watch_counts(kind, config, first_id, key, t_pitch, pitcher,
                                               _buffers(k), kind != "QM")
        pitcher = skip_words(key(PITCHER), k)
    if kind == "QM":
        spin = None
    elif settings is None:  # free-running B2 pitches a uniform spin
        spin = sample_uniform_sphere_array(pitcher, k)
    elif kind in ("B1", "B2"):
        spin = sample_hidden_B1_array(settings, pitcher, k)
    else:
        spin = _atom_spin(pitcher, k, *settings)
    return first_id, sigma, tau, t_pitch, spin


def _negated(s):
    """repr(-x) from s = repr(x), for any float x but NaN (-0.0 included)."""
    return s[1:] if s[0] == "-" else "-" + s


def _chunk_lines(first_id, sigma, tau, t_pitch, spin, dt):
    """The event-log text of each trial of a chunk, spelled from one line
    template per message kind exactly as ``json.dumps`` spells the message's
    object (default separators, floats by repr): a trial's balls, if it has
    any, then its two result reports.  Each distinct float of a trial is
    spelled once, the right ball's spin from the left's.  Trial ids are
    consecutive over the run, so a trial's first message has seq = messages
    per trial * trial id.  Only _LOG_ROWS trials at a time become Python
    objects."""
    # float(): the repr of a NumPy float is no JSON number
    dt_json, dt = json.dumps(dt), float(dt)
    per_trial = 2 if spin is None else 4
    for lo in range(0, t_pitch.size, _LOG_ROWS):
        rows = slice(lo, lo + _LOG_ROWS)
        times = t_pitch[rows].tolist()
        spins = [None] * len(times) if spin is None else spin[rows].tolist()
        for tid, t, left, right, u in zip(range(first_id + lo, first_id + lo + len(times)), times,
                                          sigma[rows].tolist(), tau[rows].tolist(), spins):
            s, balls = per_trial * tid, ""
            if u is not None:
                t_json = repr(t)
                x, y, z = map(repr, u)
                balls = (
                    f'{{"seq": {s}, "t_send": {t_json}, "sender": "pitcher", '
                    f'"receiver": "batter_L", "kind": "ball", "payload": {{"trial_id": {tid}, '
                    f'"spin": [{x}, {y}, {z}], "t_pitch": {t_json}, "delta_t": {dt_json}}}}}\n'
                    f'{{"seq": {s + 1}, "t_send": {t_json}, "sender": "pitcher", '
                    f'"receiver": "batter_R", "kind": "ball", "payload": {{"trial_id": {tid}, '
                    f'"spin": [{_negated(x)}, {_negated(y)}, {_negated(z)}], '
                    f'"t_pitch": {t_json}, "delta_t": {dt_json}}}}}\n'
                )
                s += 2
            t_json = repr(t + dt)
            yield balls + (
                f'{{"seq": {s}, "t_send": {t_json}, "sender": "batter_L", '
                f'"receiver": "coordinator", "kind": "result_report", '
                f'"payload": {{"trial_id": {tid}, "outcome": {left}}}}}\n'
                f'{{"seq": {s + 1}, "t_send": {t_json}, "sender": "batter_R", '
                f'"receiver": "coordinator", "kind": "result_report", '
                f'"payload": {{"trial_id": {tid}, "outcome": {right}}}}}\n'
            )


def sample_joint_spin_outcomes(kind: str, n: int, seed: int):
    """B1's or B2's joint (u, sigma, tau) samples with free settings, of n
    free-running trials, as three arrays: the ball pass's spins and the
    counting pass's outcomes of the run that ``simulate --watch-driven``
    counts and logs.  B1 draws the spin given the settings, B2 the settings
    given the spin.  Each chunk's pitch times are dropped as it is read."""
    if kind not in ("B1", "B2"):
        raise ValueError("joint sampling is defined for the Hall realizations only")
    config = ExperimentConfig(trials=n, seed=seed, watch_driven=True)
    chunks = (chunk_passes(kind, config, 0, ci) for ci in range(config.chunks()))
    return tuple(map(np.concatenate, zip(*map(itemgetter(4, 1, 2), chunks))))


def _buffers(k, workspace=None):
    """Five float arrays of k rows for a counting pass: views of the arrays
    of ``workspace``, the worker's workspace that :func:`pool_map` gives a
    job, which its first counting chunk allocates and every later one
    reuses; fresh arrays without one.  Every counting pass computes in them;
    one that keys its stream in :func:`run_chunk` keys it first.
    :func:`chunk_passes`' watch-driven A, B1, C and QM take five fresh
    arrays after the pitch times and free them before the spin: a workspace
    held through the ball pass is real memory, not malloc arena placement
    (``verify``'s peak RSS rises with one arena too)."""
    if workspace is None:
        return [np.empty(k) for _ in range(5)]
    arrays = getattr(workspace, "arrays", None)
    if arrays is None or arrays[0].size < k:
        arrays = workspace.arrays = [np.empty(k) for _ in range(5)]
    return [a[:k] for a in arrays]


def pool_map(jobs, threads: int):
    """job(workspace) for each job of the iterable ``jobs``, yielded in job
    order.  ``workspace`` is one ``threading.local`` made for the call, so
    each worker thread has its own workspace in it (see :func:`_buffers`),
    dropped with the stream.  The jobs are drawn _POOL_BATCH at a time, so a
    call holds at most one batch, and each batch is mapped on one pool of
    min(threads, cpu count) worker threads, or on the calling thread at one
    worker or for one job.  A chunk's job draws only from the chunk's own
    keyed streams, so the results are the same at every thread count."""
    workspace = threading.local()

    def run(job):
        return job(workspace)

    workers = min(threads, os.cpu_count() or 1)
    jobs = iter(jobs)
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        while batch := list(islice(jobs, _POOL_BATCH)):
            yield from pool.map(run, batch) if pool and len(batch) > 1 else map(run, batch)


def outcome_cells(sigma, tau):
    """Each trial's index into OUTCOMES, from its outcomes, int8 +-1."""
    return (1 - sigma) + (1 - tau) // 2


def _chunk_counts(kind, config, stream, chunk, workspace=None):
    """A chunk's counting-pass outcomes, counted in OUTCOMES order."""
    return np.bincount(outcome_cells(*run_chunk(kind, config, stream, chunk, workspace)),
                       minlength=4)


def count_jobs(kind: str, config: ExperimentConfig):
    """A run's counting jobs, one per chunk, stream by stream, each made as
    it is drawn: each takes its worker's workspace (see :func:`pool_map`) and
    returns its chunk's outcome counts."""
    return (partial(_chunk_counts, kind, config, si, ci)
            for si in range(len(config.streams())) for ci in range(config.chunks()))


def count_tables(kind: str, config: ExperimentConfig, counts) -> list:
    """The count table of each stream, its chunks summed as they are read
    off ``counts``, an iterator of the run's :func:`count_jobs` results."""
    return [CountTable(label, kind, pair,
                       dict(zip(OUTCOMES, map(int, sum(islice(counts, config.chunks()))))))
            for label, pair in config.streams()]


def run_experiment(kind: str, config: ExperimentConfig):
    """Run ``config.trials`` trials per settings pair (or one free-running
    stream) and aggregate counts.

    Returns (tables, log) where ``log`` is None unless event logging was
    requested, and otherwise the :class:`EventLog` view of the same trials.
    """
    tables = count_tables(kind, config, pool_map(count_jobs(kind, config), config.threads))
    return tables, EventLog(kind, config) if config.log_events else None


_BATTERS = (BATTER_L, BATTER_R)
_BALL_KEYS = {"trial_id", "spin", "t_pitch", "delta_t"}  # all that a ball may carry


class _Tally:
    """What an audit keeps of the messages it has read: the violations, the
    message and ball counts, and an integer per trial and per ball."""

    def __init__(self):
        self.violations = []
        self.messages = self.balls = 0
        self.trial_ids = array("q")  # each trial id, once per run of messages carrying it
        self.ball_ids = {b: array("q") for b in _BATTERS}

    def check(self, m):
        """Tally one message, and record its breaches of rules 1 to 5."""
        self.messages += 1
        violations = self.violations
        seq, sender, receiver, payload = m["seq"], m["sender"], m["receiver"], m["payload"]
        if sender in _BATTERS and receiver in _BATTERS:
            violations.append((seq, 1, f"batter-to-batter message {sender}->{receiver}"))
        if sender in _BATTERS and receiver == PITCHER:
            violations.append((seq, 2, f"batter-to-pitcher message from {sender}"))
        tid = payload.get("trial_id")
        if not (type(tid) is int and -(1 << 63) <= tid < 1 << 63):
            if m["kind"] in ("ball", "result_report"):
                got = json.dumps(tid) if "trial_id" in payload else "none"
                violations.append(
                    (seq, 4, f"{m['kind']} has trial id {got}, not a 64-bit integer"))
            tid = None
        elif not self.trial_ids or self.trial_ids[-1] != tid:
            self.trial_ids.append(tid)
        if m["kind"] == "ball":
            self.balls += 1
            extra = set(payload) - _BALL_KEYS
            if extra:
                violations.append(
                    (seq, 3, f"ball payload carries forbidden fields {sorted(extra)}")
                )
            if tid is not None and receiver in self.ball_ids:
                self.ball_ids[receiver].append(tid)
        if m["kind"] == "result_report" and receiver != COORDINATOR:
            violations.append((seq, 5, f"result report routed to {receiver}"))

    def report(self, kind) -> AuditReport:
        """The audit of the messages tallied: their violations, then rule
        4's count of each trial's balls to each batter."""
        violations = self.violations
        if kind != "QM":
            # the distinct trial ids, sorted: np.unique would import numpy.ma
            tids = np.sort(np.asarray(self.trial_ids, dtype=np.int64))
            keep = np.ones(tids.size, dtype=bool)
            np.not_equal(tids[1:], tids[:-1], out=keep[1:])
            tids = tids[keep]
            got = np.stack([
                np.bincount(np.searchsorted(tids, np.asarray(self.ball_ids[b], dtype=np.int64)),
                            minlength=tids.size)
                for b in _BATTERS
            ], axis=1)
            for i, j in np.argwhere(got != 1):
                violations.append(
                    (-1, 4, f"trial {tids[i]}: {got[i, j]} balls to {_BATTERS[j]}, expected 1")
                )
        elif self.balls:
            violations.append((-1, 4, "analytic reference run contains ball messages"))
        return AuditReport(passed=not violations, violations=violations, messages=self.messages)


def audit_locality(log, kind: str) -> AuditReport:
    """Check the message-flow discipline that operationalizes 'no communication'.

    Rules: (1) no batter-to-batter traffic; (2) no batter-to-pitcher traffic;
    (3) ball payloads carry only the spin, pitch time, time of flight, and
    trial id, never settings; (4) exactly one ball per batter per trial
    (none for the analytic QM reference), and every ball and result report
    names its trial by a JSON integer; (5) result reports flow only to the
    coordinator.

    ``log`` is any iterable of messages, each the JSON object of its
    event-log line, and is read once.  Besides the violations, the audit
    keeps only an integer per trial and per ball, so a log streamed from disk
    is never held in memory.
    """
    tally = _Tally()
    for m in log:
        tally.check(m)
    return tally.report(kind)


def write_event_log(log: EventLog, path):
    """One message per line, as its JSON object; each trial's lines are
    written as they are spelled, so the log is never held in memory."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(log.trial_lines())


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


# strict JSON: the NaN, Infinity and -Infinity that json.loads accepts are no
# JSON numbers, and an event log holding one is malformed
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)

# the JSON types each field of an event-log line may take (a bool is no int)
_FIELD_TYPES = {"seq": (int,), "t_send": (int, float), "sender": (str,),
                "receiver": (str,), "kind": (str,), "payload": (dict,)}

# a float spelled past the largest double, such as 1e400, parses to infinity;
# an integer of any size compares below it
_INF = float("inf")


def _message(line):
    """The message of one event-log line, given without its line break.
    Raises ValueError unless the line is one strict JSON object holding every
    field of _FIELD_TYPES with its type, and a finite t_send."""
    m = _DECODER.decode(line)
    if type(m) is not dict:
        raise ValueError("a message must be a JSON object")
    bad = [k for k, types in _FIELD_TYPES.items() if type(m.get(k)) not in types]
    if bad:
        raise ValueError(f"missing or ill-typed fields {bad}")
    if not -_INF < m["t_send"] < _INF:
        raise ValueError("t_send is not finite")
    return m


# A ball or a result report as _chunk_lines spells it, with its numbers
# bounded so that the JSON parser takes each without error and to the same
# type: an integer of at most 19 digits, as many as an int64 has and far
# below Python's limit on the digits of an int, and a number of at most 16
# integer and 20 fraction digits (all that repr writes) and a two-digit
# exponent, which is finite.  The groups are a ball's receiver and trial id
# and a report's trial id.
_INT = r"(?:0|[1-9][0-9]{0,18})"
_NUM = r"-?(?:0|[1-9][0-9]{0,15})(?:\.[0-9]{1,20})?(?:e[-+][0-9]{2})?"
_WRITER_LINE = (
    r'\{"seq": INT, "t_send": NUM, "sender": (?:'
    r'"pitcher", "receiver": "(batter_[LR])", "kind": "ball", "payload": \{"trial_id": (INT), '
    r'"spin": \[NUM, NUM, NUM\], "t_pitch": NUM, "delta_t": NUM\}'
    r'|"batter_[LR]", "receiver": "coordinator", "kind": "result_report", '
    r'"payload": \{"trial_id": (INT), "outcome": -?1\})\}\n'
).replace("INT", _INT).replace("NUM", _NUM)


def audit_event_log(path, kind: str) -> AuditReport:
    """:func:`audit_locality` of the messages of an event-log file, one per
    non-blank line, reading a line in the writer's own spelling without
    parsing it.  A line spelled exactly as :func:`_chunk_lines` writes a
    ball or a result report breaks none of rules 1, 2, 3 and 5, so, if its
    trial id is a 64-bit integer, it is tallied from that id and, for a
    ball, its receiver; every other line is stripped and parsed by
    :func:`_message`, and a ValueError names its number."""
    tally = _Tally()
    # compiled on the first audit, not at import; re keeps it for the next
    writer_line = re.compile(_WRITER_LINE, re.ASCII).fullmatch
    trial_ids, ball_ids = tally.trial_ids, tally.ball_ids
    # the trial id of the last line in the writer's spelling, and its value
    last = tid = None
    messages = balls = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            hit = writer_line(line)
            if hit is not None:
                receiver, ball_tid, report_tid = hit.groups()
                spelled = ball_tid or report_tid
                if spelled != last:
                    last, tid = spelled, int(spelled)
                    if tid >> 63:  # past int64: the generic path records rule 4
                        last = hit = None
                    else:
                        trial_ids.append(tid)
            if hit is None:
                if line := line.strip():
                    try:
                        m = _message(line)
                    except (ValueError, RecursionError) as exc:
                        raise ValueError(f"malformed event log at line {lineno}: {exc}") from exc
                    tally.check(m)
                continue
            messages += 1
            if receiver is not None:
                balls += 1
                ball_ids[receiver].append(tid)
    tally.messages += messages
    tally.balls += balls
    return tally.report(kind)


def f17(x) -> str:
    """A float at 17 significant digits, enough to round-trip it exactly."""
    return format(float(x), ".17g")


def write_counts_csv(tables, path):
    """Fixed column order; floats at 17 significant digits for diff-stable
    output; a label holding a comma, quote or line break is quoted."""
    import csv  # only this writer needs it
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow("model,pair_label,nL_x,nL_y,nL_z,nR_x,nR_y,nR_z,"
                     "sigma,tau,count,frequency,analytic".split(","))
        for tb in tables:
            st = tb.settings
            comps = [""] * 6 if st is None else [
                f17(v) for v in (st.n_L.x, st.n_L.y, st.n_L.z, st.n_R.x, st.n_R.y, st.n_R.z)]
            for (s, t) in OUTCOMES:
                out.writerow([tb.model, tb.label, *comps, s, t, tb.counts.get((s, t), 0),
                              f17(tb.frequency(s, t)), f17(tb.analytic(s, t))])
