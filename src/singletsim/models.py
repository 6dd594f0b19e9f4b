"""Hidden-variable models and the quantum reference law.

Model A: the spin pair is pinned to one of four setting-aligned atoms and the
         bats respond linearly in n.u.
Model B: the Hall construction, with a continuous setting-conditioned spin
         density and deterministic responses; realized either with the spin
         conditioned on the settings (B1) or the settings conditioned on a
         free-ticking spin (B2).
Model C: model A's atomic spin density combined with the deterministic
         responses, which pushes the correlator to a pure sign.
QM:      the analytic singlet law, used as reference and as a direct sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import UnitVector, dot, rowdot, sample_uniform_sphere_array, sign_array

MODEL_KINDS = ("A", "B1", "B2", "C", "QM")

FOUR_PI = 4.0 * math.pi


class SamplerFailure(RuntimeError):
    """Rejection sampler exhausted its proposal budget; the bound is broken."""


@dataclass(frozen=True)
class SettingsPair:
    """Bat orientations for the left and right stations."""

    n_L: UnitVector
    n_R: UnitVector

    def cos_angle(self) -> float:
        return dot(self.n_L, self.n_R)


def hall_f_array(u, n_L, n_R) -> np.ndarray:
    """The sign-weighted setting overlap sgn(u.n_L) * sgn(-u.n_R) * n_L.n_R,
    row by row; any argument may be one (3,) vector shared by every row."""
    c = np.clip(rowdot(n_L, n_R), -1.0, 1.0)
    return sign_array(rowdot(u, n_L)) * sign_array(-rowdot(u, n_R)) * c


def hall_g_array(f) -> np.ndarray:
    """Density amplitude (1 - f) / (8 arccos f), elementwise, with the limits
    g(1) = 0 and g(-1) = 1/(4 pi) taken explicitly."""
    f = np.asarray(f, dtype=float)
    out = np.empty_like(f)
    hi = f >= 1.0
    lo = f <= -1.0
    mid = ~(hi | lo)
    out[hi] = 0.0
    out[lo] = 1.0 / FOUR_PI
    out[mid] = (1.0 - f[mid]) / (8.0 * np.arccos(f[mid]))
    return out


@lru_cache(maxsize=1)
def rejection_bound() -> float:
    """Global bound on hall_g_array over [-1, 1], found by golden-section
    search and inflated by 1% so no proposal is ever silently truncated.

    Never hard-code this number: it is derived at runtime.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = -1.0, 1.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = hall_g_array([c, d]).tolist()
    # each step shrinks [a, b] by invphi: 50 steps take it from 2 below 1e-10
    for _ in range(64):
        if b - a <= 1e-10:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = float(hall_g_array(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = float(hall_g_array(d))
    return 1.01 * max(fc, fd)


_MAX_ROUNDS = 64


def _sample_rows(n, parts, rng, propose):
    """Per-row rejection sampling against the Hall density bound.

    ``propose(rows)`` draws one uniform proposal for each pending row index in
    ``rows``: a list of ``parts`` (m, 3) arrays and their Hall overlaps f.
    Returns the accepted proposals as ``parts`` (n, 3) arrays.

    Each round gives every pending row one proposal, which it accepts with
    probability 1/(4 pi U) ~ 0.870, U = rejection_bound(), whatever its
    settings or spin, because the density integrates to 1 against the uniform
    proposal.  A row survives all _MAX_ROUNDS = 64 rounds with chance
    0.1302**64 ~ 2.1e-57.  So even 2**63 sampled rows, the int64 limit on the
    trial count the CLI accepts, raise a false SamplerFailure with chance
    below 2e-38.
    """
    bound = rejection_bound()
    out = [np.empty((n, 3)) for _ in range(parts)]
    pending = np.arange(n)
    for _ in range(_MAX_ROUNDS):
        props, f = propose(pending)
        ok = rng.uniform(0.0, bound, size=pending.size) < hall_g_array(f)
        for o, p in zip(out, props):
            o[pending[ok]] = p[ok]
        pending = pending[~ok]
        if not pending.size:
            return out
    raise SamplerFailure(f"{pending.size} rows rejected {_MAX_ROUNDS} proposals each; "
                         "the density bound is broken")


def _rows(a, rows):
    """The pending rows of a per-row array, copied only once some rows are
    done; a shared (3,) vector as it is."""
    return a if a.ndim == 1 or rows.size == len(a) else a[rows]


def sample_hidden_B1_array(s, rng: np.random.Generator, n: int) -> np.ndarray:
    """n spins from the Hall density given the settings, as an (n, 3) array.

    ``s`` is the pair (n_L, n_R), each of shape (3,) for one settings pair
    shared by every row or (n, 3) for settings per row.
    """
    n_L, n_R = (np.asarray(x, dtype=float) for x in s)

    def propose(rows):
        u = sample_uniform_sphere_array(rng, rows.size)
        return [u], hall_f_array(u, _rows(n_L, rows), _rows(n_R, rows))

    return _sample_rows(n, 1, rng, propose)[0]


def sample_settings_B2_array(
    u, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n settings pairs from the spin-conditioned density
    (1/4 pi) * Pi(u | n_L, n_R) on S2 x S2, as two (n, 3) arrays.

    ``u`` holds the spins, of shape (n, 3), or (3,) for one spin shared by
    every row.  The density differs from the uniform product only through
    hall_g_array, so the B1 bound applies.
    """
    u = np.asarray(u, dtype=float)

    def propose(rows):
        n_L = sample_uniform_sphere_array(rng, rows.size)
        n_R = sample_uniform_sphere_array(rng, rows.size)
        return [n_L, n_R], hall_f_array(_rows(u, rows), n_L, n_R)

    return tuple(_sample_rows(n, 2, rng, propose))


def correlator_law(kind: str, c):
    """The model's correlator E[sigma tau] at setting overlap c = n_L.n_R,
    elementwise: -c for models A, B1, B2 and the quantum reference, -sgn(c)
    for model C."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {kind!r}")
    return -sign_array(c) if kind == "C" else -c


def joint_analytic(kind: str, sigma: int, tau: int, s: SettingsPair) -> float:
    """Analytic joint outcome probability P(sigma, tau | n_L, n_R) =
    (1 + sigma tau C)/4, with C the model's correlator law."""
    return float(0.25 * (1.0 + sigma * tau * correlator_law(kind, s.cos_angle())))
