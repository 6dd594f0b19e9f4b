"""Synchronized-watch substrate: two-hand watches with incommensurable
periods, mirrored counterclockwise twins, the hand-phase-to-vector map, and
the time-of-flight correction that lets a receiver reconstruct the sender's
reading without any message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CLOCKWISE = "clockwise"
COUNTERCLOCKWISE = "counterclockwise"

# sqrt of distinct primes: pairwise irrational period ratios by construction.
DEFAULT_PERIODS = {
    "H": (60.0 * math.sqrt(2.0), 720.0 * math.sqrt(3.0)),
    "T": (60.0 * math.sqrt(5.0), 720.0 * math.sqrt(7.0)),
}


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
            raise ValueError("watch periods are commensurable: " + "; ".join(failures))

    @staticmethod
    def default(epoch: float = 0.0) -> "WatchBank":
        mk = lambda k: WatchSpec(*DEFAULT_PERIODS[k], CLOCKWISE, epoch)
        return WatchBank(mk("H"), mk("T"))


def _frac_array(x):
    f = x - np.floor(x)
    return np.where(f >= 1.0, 0.0, f)


def read_phases_array(w: WatchSpec, t) -> tuple[np.ndarray, np.ndarray]:
    """Small- and large-hand phases in [0, 1) of watch ``w`` at an array of
    simulation times.

    Counterclockwise watches run backwards, so a mirrored pair conserves
    phase_cw + phase_ccw = 0 (mod 1) for each hand at every instant.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time must be finite")
    s = 1.0 if w.direction == CLOCKWISE else -1.0
    return (_frac_array(s * (t - w.epoch) / w.period_small),
            _frac_array(s * (t - w.epoch) / w.period_large))


def phases_to_vectors_array(phase_small, phase_large) -> np.ndarray:
    """Map hand phases to unit vectors, shape (n, 3): the small hand gives the
    azimuth, the large hand the area-uniform polar coordinate
    cos(theta) = 2*phase - 1.

    This pushes the uniform torus measure to the uniform sphere measure, which
    is what the equidistribution arguments need.
    """
    phi = 2.0 * math.pi * np.asarray(phase_small, dtype=float)
    ct = np.clip(2.0 * np.asarray(phase_large, dtype=float) - 1.0, -1.0, 1.0)
    st = np.sqrt(1.0 - ct * ct)
    return np.column_stack([st * np.cos(phi), st * np.sin(phi), ct])


def watch_vectors_array(w: WatchSpec, t) -> np.ndarray:
    """The setting vectors the pitcher reads off watch ``w`` at an array of
    times, shape (n, 3)."""
    return phases_to_vectors_array(*read_phases_array(w, t))


def batter_vectors_array(mirror: WatchSpec, t_arrival, delta_t) -> np.ndarray:
    """Reconstruct the pitch-time vectors from a mirrored watch at an array of
    arrival times; ``delta_t`` may be scalar or per-element.

    The mirror reads r_h = frac(-(t_arrival - epoch)/tau_h); negating and
    subtracting the time of flight gives frac((t_arrival - delta_t - epoch)/tau_h),
    the clockwise pitcher phase at t_pitch = t_arrival - delta_t.  No message
    carries any of this: the correction uses only the local watch and delta_t.
    """
    delta_t = np.asarray(delta_t, dtype=float)
    if np.any(delta_t < 0.0):
        raise ValueError("time of flight must be non-negative")
    if mirror.direction != COUNTERCLOCKWISE:
        raise ValueError("batter watches must be counterclockwise mirrors")
    raw = read_phases_array(mirror, t_arrival)
    taus = (mirror.period_small, mirror.period_large)
    return phases_to_vectors_array(
        *(_frac_array(-(r + delta_t / tau)) for r, tau in zip(raw, taus)))


def check_incommensurable(periods, max_den: int = 64, tol: float = 1e-9) -> list[str]:
    """The pairs of periods whose ratio lies within ``tol`` of a rational p/q
    with p, q <= ``max_den``, one line each; an empty list means they pass.

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
            for q in range(1, max_den + 1):
                p = round(r * q)
                if 1 <= p <= max_den and abs(r - p / q) <= tol:
                    failures.append(
                        f"periods[{i}]/periods[{j}] = {r!r} ~ {p}/{q}"
                    )
                    break
    return failures
