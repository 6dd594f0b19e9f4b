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

import numpy as np

from .geometry import (
    UnitVector,
    cross_rows,
    row_blocks,
    rowdot,
    sample_uniform_sphere_array,
    sign_array,
)

MODEL_KINDS = ("A", "B1", "B2", "C", "QM")

FOUR_PI = 4.0 * math.pi


def check_kind(kind: str) -> None:
    """Refuse a model kind that is not one of MODEL_KINDS."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {kind!r}")


@dataclass(frozen=True)
class SettingsPair:
    """Bat orientations for the left and right stations."""

    n_L: UnitVector
    n_R: UnitVector

    def cos_angle(self) -> float:
        """n_L.n_R, summed in x, y, z order so that it is symmetric in the
        pair, and clamped to [-1, 1] for downstream arccos calls."""
        a, b = self.n_L, self.n_R
        return min(1.0, max(-1.0, a.x * b.x + a.y * b.y + a.z * b.z))


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


def rejection_bound() -> float:
    """A bound on hall_g_array over [-1, 1]: its largest value on a grid of
    4097 points, inflated by 1%; the test suite's rejection oracle uses it."""
    return 1.01 * float(hall_g_array(np.linspace(-1.0, 1.0, 4097)).max())


def outcome_int8(plus) -> np.ndarray:
    """+1 where the boolean array ``plus`` holds, else -1, one byte per trial."""
    out = plus.view(np.int8) * 2
    out -= 1
    return out


def settings_overlap(s) -> np.ndarray:
    """c = n_L.n_R of the pair ``s`` = (n_L, n_R), each of shape (3,) or
    (n, 3), per row of the (1, 3) or (n, 3) rows and clipped to [-1, 1]."""
    n_L, n_R = (np.atleast_2d(np.asarray(x, dtype=float)) for x in s)
    c = rowdot(n_L, n_R)
    return np.clip(c, -1.0, 1.0, out=c)


def skip_words(rng: np.random.Generator, n: int) -> np.random.Generator:
    """``rng``, a Philox stream, past its next n 64-bit words, left exactly
    where drawing them would leave it, in O(1).  Philox yields four words
    per counter step and buffers the rest of a step: the words left in the
    buffer are drawn, whole steps are skipped by advancing the counter, and
    the rest drawn.  An advance empties the buffer, so it runs only once
    the buffer is spent."""
    bits = rng.bit_generator
    left = min(n, 4 - bits.state["buffer_pos"])
    bits.random_raw(left, output=False)
    if n - left >= 4:
        bits.advance((n - left) // 4)
    bits.random_raw((n - left) % 4, output=False)
    return rng


def _lune_draws(c, rng: np.random.Generator, n: int, azimuth: bool, out=None):
    """The three words per trial of a Hall lune draw, in their only order:
    ``opposite`` (U < (1 - c)/2, the spin in a lune where sgn(u.n_L) and
    sgn(u.n_R) differ), the uniform azimuth within the lune (skipped with
    :func:`skip_words`, and None, unless ``azimuth``), and ``antipodal``
    (U < 1/2).  ``out``, if given, is two float arrays of n rows, for the
    uniforms U and the threshold (1 - c)/2; the threshold's may be ``c``."""
    u, threshold = (np.empty(n), None) if out is None else out
    threshold = np.subtract(1.0, c, out=threshold)
    threshold *= 0.5
    opposite = rng.random(out=u) < threshold
    if azimuth:
        t = rng.uniform(size=n)
    else:
        t = None
        skip_words(rng, n)
    return opposite, t, rng.random(out=u) < 0.5


def _lune_azimuth(c, rng: np.random.Generator, n: int):
    """Azimuths phi of n Hall spins in their settings plane, counted from n_L
    towards n_R, and gamma = arccos c.  The density is constant on the lunes
    cut by the planes orthogonal to n_L and n_R: the two where sgn(u.n_L) and
    sgn(u.n_R) differ lie at (pi/2, pi/2 + gamma) and antipodal, with mass
    4 gamma g(c) = (1 - c)/2, the other two at (gamma - pi/2, pi/2) and
    antipodal.  Area is uniform in azimuth (Archimedes), and so is phi in
    its lune."""
    gamma = np.arccos(c)
    opposite, phi, antipodal = _lune_draws(c, rng, n, azimuth=True)
    phi *= np.where(opposite, gamma, math.pi - gamma)
    phi += np.where(opposite, 0.5 * math.pi, gamma - 0.5 * math.pi)
    phi += math.pi * antipodal
    return phi, gamma


def lune_outcomes(c, rng: np.random.Generator, n: int, out=None):
    """The deterministic Hall outcomes sigma = sgn(u.n_L), tau = sgn(-u.n_R)
    of the n spins that _lune_azimuth would place, as int8 +-1, from the lune
    choice alone; the azimuth words are skipped, so ``rng`` ends where
    _lune_azimuth leaves it.

    The outcomes fix only the lune.  With u.n_L = r cos(phi) and
    u.n_R = r cos(phi - gamma), r > 0 (B1's spins; B2's settings sit at phi
    and phi - gamma from u's projection, the same two cosines), the lune at
    (pi/2, pi/2 + gamma) gives sigma = tau = -1 and its antipode +1, +1; the
    lune at (gamma - pi/2, pi/2) gives (+1, -1) and its antipode (-1, +1).
    So sigma = +1 iff opposite == antipodal, and tau = +1 iff antipodal.

    The lune signs are exact.  The sign of a rounded dot product of a built
    spin can differ from them only for a spin within about 1e-16 of a lune
    boundary, where the azimuth uniform lies within about 1e-16 / (lune
    width) of 0 or 1 (or a height uniform at -1): about 2^-50 per trial.

    ``out``, if given, is the draws' two scratch arrays (see _lune_draws).
    """
    opposite, _, antipodal = _lune_draws(c, rng, n, azimuth=False, out=out)
    return outcome_int8(opposite == antipodal), outcome_int8(antipodal)


def _plane_frame(a, b):
    """Unit rows e, f making (a, e, f) a right-handed orthonormal frame with
    b.f = 0 <= b.e, for (n, 3) or (1, 3) rows a and b.  e is built as
    (a x b) x a, orthogonal to a to rounding however close b is to +-a; rows
    with b = +-a exactly, where any plane through a will do, use a x (the
    axis least aligned with a)."""
    e = cross_rows(cross_rows(a, b), a)
    norm = np.sqrt(rowdot(e, e))
    flat = norm == 0.0
    if flat.any():
        a_flat = np.broadcast_to(a, e.shape)[flat]
        e[flat] = cross_rows(a_flat, np.eye(3)[np.argmin(np.abs(a_flat), axis=1)])
        norm[flat] = np.sqrt(rowdot(e[flat], e[flat]))
    e /= norm[:, None]
    return e, cross_rows(a, e)


def _combine(*terms) -> np.ndarray:
    """Sum of w * v over (w, v) terms, (n,) weights times (n, 3) or (1, 3)
    rows, built one column at a time."""
    out = np.zeros((terms[0][0].size, 3))
    for w, v in terms:
        for j in range(3):
            out[:, j] += w * v[:, j]
    return out


def sample_hidden_B1_array(s, rng: np.random.Generator, n: int) -> np.ndarray:
    """n spins from the Hall density given the settings, as an (n, 3) array.

    ``s`` is the pair (n_L, n_R), each of shape (3,) for one settings pair
    shared by every row or (n, 3) for settings per row.  A spin sits at its
    lune azimuth and a uniform height along n_L x n_R.  The draws are whole
    1-D arrays; the plane frames and spins are built in row blocks, which
    changes no bit and keeps the (n, 3) temporaries to one block.
    """
    n_L, n_R = (np.atleast_2d(np.asarray(x, dtype=float)) for x in s)
    phi, _ = _lune_azimuth(settings_overlap((n_L, n_R)), rng, n)
    h = rng.uniform(-1.0, 1.0, size=n)
    u = np.empty((n, 3))
    for b in row_blocks(n):
        v_L, v_R = (x if len(x) == 1 else x[b] for x in (n_L, n_R))
        e2, e3 = _plane_frame(v_L, v_R)
        r = np.sqrt(1.0 - h[b] * h[b])
        u[b] = _combine((r * np.cos(phi[b]), v_L), (r * np.sin(phi[b]), e2), (h[b], e3))
    return u


def sample_settings_B2_array(
    u, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n settings pairs from the spin-conditioned density
    (1/4 pi) * Pi(u | n_L, n_R) on S2 x S2, as two (n, 3) arrays.

    ``u`` holds the spins, of shape (n, 3), or (3,) for one spin shared by
    every row.  The joint law is rotation invariant, so the settings plane
    has a uniform normal e3 independent of u, and c = n_L.n_R is uniform.
    n_L and n_R sit at azimuths phi and phi - gamma from u's projection on
    the plane, phi from B1's lune law: the mirror image of B1's frame, which
    keeps every dot product and so the law.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    phi, gamma = _lune_azimuth(rng.uniform(-1.0, 1.0, size=n), rng, n)
    e1, e2 = _plane_frame(sample_uniform_sphere_array(rng, n), u)
    n_R = _combine((np.cos(phi - gamma), e1), (np.sin(phi - gamma), e2))
    return _combine((np.cos(phi), e1), (np.sin(phi), e2)), n_R


def correlator_law(kind: str, c):
    """The model's correlator E[sigma tau] at setting overlap c = n_L.n_R,
    elementwise: -c for models A, B1, B2 and the quantum reference, -sgn(c)
    for model C."""
    check_kind(kind)
    return -sign_array(c) if kind == "C" else -c


def joint_analytic(kind: str, sigma: int, tau: int, s: SettingsPair) -> float:
    """Analytic joint outcome probability P(sigma, tau | n_L, n_R) =
    (1 + sigma tau C)/4, with C the model's correlator law."""
    return float(0.25 * (1.0 + sigma * tau * correlator_law(kind, s.cos_angle())))
