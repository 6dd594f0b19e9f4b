"""Synchronized-watch substrate: two-hand watches with incommensurable
periods, mirrored counterclockwise twins, their setting vectors and overlaps,
and the time-of-flight correction that lets a receiver reconstruct the sender's
reading without any message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import sphere_points

CLOCKWISE = "clockwise"
COUNTERCLOCKWISE = "counterclockwise"

# sqrt of distinct primes: pairwise irrational period ratios by construction.
DEFAULT_PERIODS = {
    "H": (60.0 * math.sqrt(2.0), 720.0 * math.sqrt(3.0)),
    "T": (60.0 * math.sqrt(5.0), 720.0 * math.sqrt(7.0)),
}

# a period ratio within RATIO_TOL of p/q, with p, q <= MAX_DEN, is commensurable
MAX_DEN = 64
RATIO_TOL = 1e-9


@dataclass(frozen=True)
class WatchSpec:
    """One two-hand watch: hand periods in seconds, rotation direction, and the
    epoch at which both hands sit on the conventional zero."""

    period_small: float
    period_large: float
    direction: str = CLOCKWISE
    epoch: float = 0.0

    def __post_init__(self):
        if not all(0.0 < p < math.inf for p in (self.period_small, self.period_large)):
            raise ValueError("hand periods must be finite and strictly positive")
        if not math.isfinite(self.epoch):
            raise ValueError("the watch epoch must be finite")
        if self.period_small == self.period_large:
            raise ValueError("hand periods must be distinct")
        if self.direction not in (CLOCKWISE, COUNTERCLOCKWISE):
            raise ValueError(f"unknown direction: {self.direction}")

    def mirrored(self) -> "WatchSpec":
        """The counterclockwise twin (or clockwise, if this watch is the twin)."""
        other = COUNTERCLOCKWISE if self.direction == CLOCKWISE else CLOCKWISE
        return WatchSpec(self.period_small, self.period_large, other, self.epoch)


@dataclass(frozen=True)
class WatchBank:
    """The pitcher's clockwise watches H and T, one for each coin-selected
    setting."""

    watch_H: WatchSpec
    watch_T: WatchSpec

    def __post_init__(self):
        periods = [
            self.watch_H.period_small,
            self.watch_H.period_large,
            self.watch_T.period_small,
            self.watch_T.period_large,
        ]
        failures = check_incommensurable(periods)
        if failures:
            raise ValueError("watch periods fail the incommensurability check: "
                             + "; ".join(failures))

    @staticmethod
    def default() -> "WatchBank":
        return WatchBank(*(WatchSpec(*DEFAULT_PERIODS[k]) for k in "HT"))


def _frac_inplace(x, tmp):
    """x - floor(x) written over x, with ``tmp`` as scratch; a tiny negative x,
    whose difference rounds to 1.0, wraps to 0."""
    np.floor(x, out=tmp)
    x -= tmp
    x[x >= 1.0] = 0.0
    return x


def _read_phases(w: WatchSpec, t, tmp, out=(None, None)):
    """The two hand phases of ``w`` at the float array of times ``t``,
    frac(s * (t - epoch) / tau), each written to its array of ``out`` or, for
    None, to a fresh array of the shape of the scratch ``tmp``; the large
    hand's array may be ``t`` itself.  A time that is not finite raises
    ValueError."""
    if not np.all(np.isfinite(t)):
        raise ValueError("time must be finite")
    s = 1.0 if w.direction == CLOCKWISE else -1.0
    phases = []
    for tau, x in zip((w.period_small, w.period_large), out):
        x = np.subtract(t, w.epoch, out=np.empty_like(tmp) if x is None else x)
        x *= s
        x /= tau
        phases.append(_frac_inplace(x, tmp))
    return phases


def read_phases_array(w: WatchSpec, t) -> tuple[np.ndarray, np.ndarray]:
    """Small- and large-hand phases in [0, 1) of watch ``w`` at an array of
    simulation times.

    Counterclockwise watches run backwards, so a mirrored pair conserves
    phase_cw + phase_ccw = 0 (mod 1) for each hand at every instant.
    """
    t = np.asarray(t, dtype=float)
    return tuple(_read_phases(w, t, np.empty_like(t)))


def phases_overlap(a, b, out=None) -> np.ndarray:
    """n_L.n_R of the vectors that :func:`geometry.sphere_points` maps the
    phase pairs ``a`` = (small, large) and ``b`` to, without building them:
    st_a st_b cos(2 pi (small_a - small_b)) + ct_a ct_b, with ct and st
    computed as that map computes them.

    One cosine per row in place of a cosine, a sine and a three-term sum:
    the result differs from the rounded dot product of the built vectors by
    up to about 1e-15.  It is exact where either vector is a pole (st = 0).

    ``out``, if given, is four float arrays (c, st, ct_a, ct_b): the overlap,
    then scratch for st and the two ct.  They may be the phase arrays in the
    order (a small, b small, a large, b large), which then read the phases in
    place and overwrite them.
    """
    c, st, *cts = (None,) * 4 if out is None else out
    c = np.subtract(a[0], b[0], out=c)
    c *= 2.0 * math.pi
    np.cos(c, out=c)
    st = np.empty_like(c) if st is None else st
    ct = []
    for (_, large), x in zip((a, b), cts):
        x = np.multiply(large, 2.0, out=x)
        x -= 1.0
        np.multiply(x, x, out=st)
        np.subtract(1.0, st, out=st)
        np.sqrt(st, out=st)
        c *= st
        ct.append(x)
    ct[0] *= ct[1]
    c += ct[0]
    return c


def watch_vectors_array(w: WatchSpec, t) -> np.ndarray:
    """The setting vectors the pitcher reads off watch ``w`` at an array of
    times, shape (n, 3)."""
    return sphere_points(*read_phases_array(w, t))


def round_trip_error(w: WatchSpec, t_pitch, batter_vectors) -> np.ndarray:
    """Per row, the largest component of |n - n'|: n read off the clockwise
    watch ``w`` at ``t_pitch``, n' the batter's ``batter_vectors``, (n, 3)."""
    return np.abs(watch_vectors_array(w, t_pitch) - batter_vectors).max(axis=1)


def batter_phases_array(mirror: WatchSpec, t_arrival, delta_t,
                        out=None) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct the pitch-time hand phases (small, large) from a mirrored
    watch at an array of arrival times; ``delta_t`` may be scalar or
    per-element, and must be finite and non-negative.

    The mirror reads r_h = frac(-(t_arrival - epoch)/tau_h); negating and
    subtracting the time of flight gives frac((t_arrival - delta_t - epoch)/tau_h),
    the clockwise pitcher phase at t_pitch = t_arrival - delta_t.  No message
    carries any of this: the correction uses only the local watch and delta_t.

    ``out``, if given, is three float arrays of the times' shape: the small
    and the large phase are written to the first two, and the third is
    scratch.  The large phase's array may be ``t_arrival`` itself.
    """
    delta_t = np.asarray(delta_t, dtype=float)
    if not (np.all(np.isfinite(delta_t)) and np.all(delta_t >= 0.0)):
        raise ValueError("time of flight must be finite and non-negative")
    if mirror.direction != COUNTERCLOCKWISE:
        raise ValueError("batter watches must be counterclockwise mirrors")
    t = np.asarray(t_arrival, dtype=float)
    if out is None:
        out = (None, None, np.empty(np.broadcast_shapes(t.shape, delta_t.shape)))
    *phases, tmp = out
    phases = _read_phases(mirror, t, tmp, phases)
    for r, tau in zip(phases, (mirror.period_small, mirror.period_large)):
        r += delta_t / tau
        np.negative(r, out=r)
        _frac_inplace(r, tmp)
    return tuple(phases)


def batter_vectors_array(mirror: WatchSpec, t_arrival, delta_t) -> np.ndarray:
    """The pitch-time setting vectors a batter reconstructs from its mirrored
    watch, shape (n, 3): the vectors of :func:`batter_phases_array`."""
    return sphere_points(*batter_phases_array(mirror, t_arrival, delta_t))


def check_incommensurable(periods) -> list[str]:
    """The pairs of periods whose ratio lies within RATIO_TOL of a rational
    p/q with p, q <= MAX_DEN, or whose ratio or its inverse overflows, one
    line each; an empty list means they pass.

    Failure is a list, not an exception; construction-time validation decides
    what to do with it.
    """
    periods = list(periods)
    if len(periods) < 2:
        raise ValueError("need at least two periods")
    failures = []
    for i in range(len(periods)):
        for j in range(i + 1, len(periods)):
            r = periods[i] / periods[j]
            if not (math.isfinite(r) and math.isfinite(periods[j] / periods[i])):
                failures.append(f"periods[{i}]/periods[{j}] = {r!r} or its inverse is not finite")
                continue
            for q in range(1, MAX_DEN + 1):
                p = round(r * q)
                if 1 <= p <= MAX_DEN and abs(r - p / q) <= RATIO_TOL:
                    failures.append(
                        f"periods[{i}]/periods[{j}] = {r!r} ~ {p}/{q}"
                    )
                    break
    return failures
