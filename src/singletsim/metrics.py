"""Statistics over trial outputs: correlators, the four-correlator CHSH
parameter, the measurement-dependence ("free will") measure, goodness-of-fit,
and density normalization checks.

The sphere integrals all share one structure: the integrand is constant on
the regions cut out by a few great circles (the planes orthogonal to the bat
settings).  The quadrature below exploits that: per latitude ring the circle
crossings are located analytically and the azimuthal integral is exact, so
only the one-dimensional latitude integral is numerical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaincc

from .geometry import UnitVector
from .models import MODEL_KINDS, SettingsPair, hall_g, joint_analytic
from .protocol import OUTCOMES, CountTable

TWO_PI = 2.0 * math.pi

_ATOM_MERGE_TOL = 1e-9


class QuadratureError(RuntimeError):
    """Latitude refinement failed to converge to the requested tolerance."""


@lru_cache(maxsize=16)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True)
class ChshConfig:
    """The four bat orientations of a CHSH run: unprimed and primed settings
    for each side."""

    a: UnitVector
    a_prime: UnitVector
    b: UnitVector
    b_prime: UnitVector

    def pairs(self) -> dict:
        return {
            "ab": SettingsPair(self.a, self.b),
            "a'b": SettingsPair(self.a_prime, self.b),
            "ab'": SettingsPair(self.a, self.b_prime),
            "a'b'": SettingsPair(self.a_prime, self.b_prime),
        }


CHSH_LABELS = ("ab", "a'b", "ab'", "a'b'")


@dataclass
class MetricsResult:
    correlators: dict
    E: float
    M: Optional[float] = None
    chi2: Optional[float] = None
    p_value: Optional[float] = None
    dof: Optional[int] = None


def correlator(table: CountTable) -> float:
    """Empirical expectation of the outcome product sigma*tau."""
    n = table.n_total
    if n < 1:
        raise ValueError("empty count table")
    acc = 0
    for (s, t), c in table.counts.items():
        acc += s * t * c
    return acc / n


def analytic_correlator(kind: str, s: SettingsPair) -> float:
    """Correlator of the analytic joint law: -n_L.n_R for the singlet-law
    models, -sgn(n_L.n_R) for the mixed model."""
    return sum(
        sg * tu * joint_analytic(kind, sg, tu, s) for sg, tu in OUTCOMES
    )


def chsh(tables: dict) -> MetricsResult:
    """E = |C(a,b) + C(a',b) + C(a,b') - C(a',b')| from four labeled tables."""
    if set(tables) != set(CHSH_LABELS):
        raise ValueError(f"need tables labeled {CHSH_LABELS}, got {sorted(tables)}")
    c = {lab: correlator(tables[lab]) for lab in CHSH_LABELS}
    e = abs(c["ab"] + c["a'b"] + c["ab'"] - c["a'b'"])
    return MetricsResult(correlators=c, E=e)


def chsh_analytic(kind: str, config: ChshConfig) -> MetricsResult:
    c = {lab: analytic_correlator(kind, pair) for lab, pair in config.pairs().items()}
    e = abs(c["ab"] + c["a'b"] + c["ab'"] - c["a'b'"])
    return MetricsResult(correlators=c, E=e)


# ---------------------------------------------------------------------------
# sign-region sphere quadrature

def integrate_sign_regions(
    normals,
    value_fn: Callable[[tuple], float],
    tol: float = 1e-9,
    max_doublings: int = 10,
) -> float:
    """Integrate over S2 a function that is constant on the sign regions of
    ``u -> sgn(u . m)`` for the given normals.

    ``value_fn`` receives the tuple of signs (one per normal) of the region.
    Per latitude ring the azimuthal crossings of each great circle are solved
    in closed form, so the phi integral is exact; the latitude integral uses
    panelwise Gauss-Legendre with panel edges at the circle tangencies, doubling
    the node count until two refinements agree within ``tol``.
    """
    normals = [np.asarray(m, dtype=float) for m in normals]
    edges = {-1.0, 1.0}
    for m in normals:
        r = math.sqrt(max(0.0, 1.0 - m[2] * m[2]))
        if 0.0 < r < 1.0:
            edges.add(r)
            edges.add(-r)
        elif r == 0.0:
            edges.add(0.0)
    # circle intersections: the region topology changes where two great
    # circles cross, so those latitudes must be panel edges too
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            w = np.cross(normals[i], normals[j])
            nw = np.linalg.norm(w)
            if nw > 1e-12:
                z = abs(w[2] / nw)
                if z < 1.0:
                    edges.add(z)
                    edges.add(-z)
    edges = sorted(edges)

    def ring(x: float) -> float:
        st = math.sqrt(max(0.0, 1.0 - x * x))
        amps = []
        cross = []
        for m in normals:
            rho = math.hypot(m[0], m[1])
            a = st * rho
            b = x * m[2]
            phi0 = math.atan2(m[1], m[0])
            amps.append((a, b, phi0))
            if a > abs(b):
                delta = math.acos(max(-1.0, min(1.0, -b / a)))
                cross.append((phi0 + delta) % TWO_PI)
                cross.append((phi0 - delta) % TWO_PI)
        cross.sort()
        total = 0.0
        k = len(cross)
        if k == 0:
            arcs = [(0.0, TWO_PI)]
        else:
            arcs = [
                (cross[i], cross[i + 1] if i + 1 < k else cross[0] + TWO_PI)
                for i in range(k)
            ]
        for lo, hi in arcs:
            mid = 0.5 * (lo + hi)
            signs = tuple(
                1 if a * math.cos(mid - phi0) + b >= 0.0 else -1
                for a, b, phi0 in amps
            )
            total += (hi - lo) * value_fn(signs)
        return total

    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= 0.0:
            continue
        mid = 0.5 * (hi + lo)
        half = 0.5 * (hi - lo)
        prev = None
        n = 16
        for _ in range(max_doublings + 1):
            ss, ws = _leggauss(n)
            # sine map: the arc-length terms have sqrt singularities at the
            # tangency edges; x = mid + half*sin(pi s/2) makes them analytic
            xs = mid + half * np.sin(0.5 * math.pi * ss)
            jac = half * 0.5 * math.pi * np.cos(0.5 * math.pi * ss)
            cur = sum(w * j * ring(x) for x, j, w in zip(xs, jac, ws))
            if prev is not None and abs(cur - prev) <= tol:
                break
            prev = cur
            n *= 2
        else:
            raise QuadratureError(
                f"ring quadrature did not converge on panel [{lo}, {hi}]"
            )
        total += cur
    return total


def _hall_value_fn(s: SettingsPair):
    """Hall density as a function of the (sgn(u.n_L), sgn(u.n_R)) region.

    f = sgn(u.n_L) * sgn(-u.n_R) * n_L.n_R = -s1*s2*c almost everywhere.
    """
    c = s.cos_angle()
    return lambda signs: hall_g(-signs[0] * signs[1] * c)


def normalization_check(
    s: SettingsPair,
    method: str = "quadrature",
    mc_samples: int = 1_000_000,
    rng: Optional[np.random.Generator] = None,
):
    """Integral of the Hall density over the sphere; 1 if the density is a
    probability density.  Returns (value, error_estimate)."""
    if method == "quadrature":
        val = integrate_sign_regions(
            [s.n_L.as_array(), s.n_R.as_array()], _hall_value_fn(s), tol=1e-9
        )
        return val, 1e-9
    if method == "monte_carlo":
        from .geometry import sample_uniform_sphere_array
        from .models import hall_f_array, hall_g_array

        rng = rng if rng is not None else np.random.default_rng(0)
        u = sample_uniform_sphere_array(rng, mc_samples)
        f = hall_f_array(u, s.n_L.as_array(), s.n_R.as_array())
        vals = 4.0 * math.pi * hall_g_array(f)
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(mc_samples))
    raise ValueError(f"unknown method: {method!r}")


def joint_from_hall_density(sigma: int, tau: int, s: SettingsPair) -> float:
    """P(sigma, tau) obtained by integrating the deterministic responses
    against the Hall density; should reproduce the singlet law."""
    c = s.cos_angle()

    def value(signs):
        s1, s2 = signs
        if s1 != sigma or -s2 != tau:
            return 0.0
        return hall_g(-s1 * s2 * c)

    return integrate_sign_regions([s.n_L.as_array(), s.n_R.as_array()], value)


# ---------------------------------------------------------------------------
# measurement dependence

def _atoms(s: SettingsPair):
    """Model A spin atoms: +-n_L and +-n_R, weight 1/4 each, with coincident
    directions merged."""
    dirs = []
    weights = []
    for v in (s.n_R.as_array(), -s.n_R.as_array(), s.n_L.as_array(), -s.n_L.as_array()):
        for i, d in enumerate(dirs):
            if np.max(np.abs(d - v)) <= _ATOM_MERGE_TOL:
                weights[i] += 0.25
                break
        else:
            dirs.append(v)
            weights.append(0.25)
    return dirs, weights


def _total_variation_atomic(s: SettingsPair, s2: SettingsPair) -> float:
    d1, w1 = _atoms(s)
    d2, w2 = _atoms(s2)
    merged = []
    for dirs, weights, side in ((d1, w1, 0), (d2, w2, 1)):
        for d, w in zip(dirs, weights):
            for entry in merged:
                if np.max(np.abs(entry[0] - d)) <= _ATOM_MERGE_TOL:
                    entry[1 + side] += w
                    break
            else:
                rec = [d, 0.0, 0.0]
                rec[1 + side] = w
                merged.append(rec)
    return sum(abs(p - q) for _, p, q in merged)


def _total_variation_hall(s: SettingsPair, s2: SettingsPair, tol: float) -> float:
    c1 = s.cos_angle()
    c2 = s2.cos_angle()

    def value(signs):
        s1a, s2a, s1b, s2b = signs
        return abs(hall_g(-s1a * s2a * c1) - hall_g(-s1b * s2b * c2))

    return integrate_sign_regions(
        [s.n_L.as_array(), s.n_R.as_array(), s2.n_L.as_array(), s2.n_R.as_array()],
        value,
        tol=tol,
    )


def free_will_M(
    kind: str,
    candidate_pairs,
    quadrature_tol: float = 1e-8,
):
    """Largest total-variation distance between the spin densities of two
    settings pairs, over the supplied candidates; 0 means settings-independent
    hidden variables, 2 means fully settings-pinned.

    Exact atom algebra for the atomic models (A, C); sign-region quadrature
    for the Hall models.  Returns (M, best_pair_index).
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {kind!r}")
    if kind == "QM":
        raise ValueError("the quantum reference has no hidden-variable density")
    candidates = list(candidate_pairs)
    if not candidates:
        raise ValueError("need at least one candidate pair of settings pairs")
    best = -1.0
    best_i = 0
    for i, (sa, sb) in enumerate(candidates):
        if kind in ("A", "C"):
            m = _total_variation_atomic(sa, sb)
        else:
            m = _total_variation_hall(sa, sb, quadrature_tol)
        if m > best:
            best, best_i = m, i
    return min(2.0, max(0.0, best)), best_i


# ---------------------------------------------------------------------------
# goodness of fit

def chi_square_p(stat: float, dof: int) -> float:
    """Survival function of the chi-square distribution via the regularized
    upper incomplete gamma function."""
    if dof < 1:
        return 1.0
    return float(gammaincc(dof / 2.0, stat / 2.0))


def chi_square_gof(table: CountTable, kind: str):
    """Pearson test of a count table against the model's analytic law.

    Cells with zero analytic mass must be empty; any count there is a hard
    mismatch reported as p = 0.  Returns (statistic, p_value, dof).
    """
    n = table.n_total
    if n < 100:
        raise ValueError("need at least 100 trials for the asymptotic test")
    stat = 0.0
    cells = 0
    for sg, tu in OUTCOMES:
        p = joint_analytic(kind, sg, tu, table.settings) if table.settings else 0.25
        cnt = table.counts.get((sg, tu), 0)
        if p == 0.0:
            if cnt > 0:
                return math.inf, 0.0, 0
            continue
        cells += 1
        exp = n * p
        stat += (cnt - exp) ** 2 / exp
    dof = cells - 1
    return stat, chi_square_p(stat, dof), dof


def two_sample_chi_square(counts1: np.ndarray, counts2: np.ndarray):
    """Two-sample homogeneity test over matched bins; returns (stat, p, dof).

    Bins empty on both sides are dropped; expected counts follow the pooled
    proportions.
    """
    c1 = np.asarray(counts1, dtype=float)
    c2 = np.asarray(counts2, dtype=float)
    if c1.shape != c2.shape:
        raise ValueError("binned counts must have matching shapes")
    keep = (c1 + c2) > 0
    c1, c2 = c1[keep], c2[keep]
    n1, n2 = c1.sum(), c2.sum()
    pooled = (c1 + c2) / (n1 + n2)
    e1, e2 = n1 * pooled, n2 * pooled
    stat = float(((c1 - e1) ** 2 / e1).sum() + ((c2 - e2) ** 2 / e2).sum())
    dof = int(keep.sum()) - 1
    return stat, chi_square_p(stat, dof), dof
