"""Statistics over trial outputs: correlators, the four-correlator CHSH
parameter, the measurement-dependence ("free will") measure, goodness-of-fit,
and density normalization checks.

The sphere integrals all share one structure: the Hall density is constant on
the sign cells cut out by the planes orthogonal to the bat settings (Hall,
PRL 105, 250404, 2010).  Each integral is therefore a finite sum of cell
masses, and those follow exactly from the sign moments of a uniform point on
the sphere: the pair moment 1 - 2 gamma/pi, and the four-normal moment fixed
by the one cell that linear dependence of the normals leaves empty.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import UnitVector, sample_uniform_sphere_array, sign_array
from .models import SettingsPair, check_kind, correlator_law, hall_f_array, hall_g_array
from .protocol import OUTCOMES, CountTable, ExperimentConfig, run_experiment

_ATOM_MERGE_TOL = 1e-9
_TIE_TOL = 1e-12

GOF_MIN_TRIALS = 100  # the fewest trials a chi-square goodness-of-fit test scores


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


def correlator(table: CountTable) -> float:
    """Empirical expectation of the outcome product sigma*tau."""
    n = table.n_total
    if n < 1:
        raise ValueError("empty count table")
    acc = 0
    for (s, t), c in table.counts.items():
        acc += s * t * c
    return acc / n


def chsh_E(ab, a_b, ab_, a_b_):
    """E = |C(a,b) + C(a',b) + C(a,b') - C(a',b')|, for floats or for arrays
    of correlators."""
    return abs(ab + a_b + ab_ - a_b_)


def _chsh_result(c: dict) -> MetricsResult:
    """The CHSH result of the four correlators labeled by CHSH_LABELS."""
    return MetricsResult(correlators=c, E=chsh_E(*(c[lab] for lab in CHSH_LABELS)))


def chsh(tables: dict) -> MetricsResult:
    """CHSH parameter of four count tables labeled by CHSH_LABELS."""
    if set(tables) != set(CHSH_LABELS):
        raise ValueError(f"need tables labeled {CHSH_LABELS}, got {sorted(tables)}")
    return _chsh_result({lab: correlator(tables[lab]) for lab in CHSH_LABELS})


def chsh_analytic(kind: str, config: ChshConfig) -> MetricsResult:
    """CHSH parameter of the model's analytic law at ``config``."""
    return _chsh_result({lab: float(correlator_law(kind, pair.cos_angle()))
                         for lab, pair in config.pairs().items()})


def chsh_empirical(kind: str, config: ChshConfig, trials: int, seed: int,
                   threads: int = 1) -> MetricsResult:
    """CHSH parameter measured end to end: one run of ``trials`` trials at
    each of the four settings pairs, each pair on its own random stream, so
    the four correlators are independent estimates."""
    tables, _ = run_experiment(kind, ExperimentConfig(
        trials=trials, seed=seed, settings_pairs=list(config.pairs().items()),
        threads=threads))
    return chsh({tb.label: tb for tb in tables})


def chsh_standard_error(correlators: dict, trials: int) -> float:
    """Standard error of an empirical E whose four correlators are independent
    means of ``trials`` outcome products each: a product is +-1 with mean C,
    so its variance is 1 - C^2, and SE(E) = sqrt(sum_i (1 - C_i^2) / N)."""
    return math.sqrt(sum(1.0 - c * c for c in correlators.values()) / trials)


# ---------------------------------------------------------------------------
# exact sign-cell masses

def sign_moment2(m1, m2):
    """E[sgn(u.m1) sgn(u.m2)] for u uniform on S2: 1 - 2 gamma/pi, with gamma
    the angle between the normals.  A float for two (3,) normals, an (n,)
    array for two (n, 3) stacks of them.

    gamma comes from atan2(|m1 x m2|, m1.m2), which keeps full precision near
    parallel and antipodal normals, where acos of the dot product does not.
    It is math.atan2, row by row: NumPy's arctan2 picks its kernel, and so its
    last bits, by CPU feature.
    """
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    x = np.cross(m1, m2)
    # a stacked matmul sums each row as the 1-D a @ b of that row alone does,
    # to the last bit; geometry.rowdot's einsum does not
    xx, cos = (np.matmul(a[..., None, :], b[..., :, None]).ravel() for a, b in ((x, x), (m1, m2)))
    gamma = np.array(list(map(math.atan2, np.sqrt(xx).tolist(), cos.tolist())))
    e = 1.0 - 2.0 * gamma / math.pi
    return float(e[0]) if x.ndim == 1 else e


def _sign_moments4(m):
    """The pair moments E_ij, i < j, keyed by (i, j), and the moment
    E4 = E[s1 s2 s3 s4] of s_i = sgn(u.m_i), u uniform on S2, for the four
    normals m[..., i, :].

    Odd moments vanish (u -> -u), so the sign cell sigma has mass
    (1 + sum_{i<j} sigma_i sigma_j E_ij + sigma_1 sigma_2 sigma_3 sigma_4 E4)/16.
    Three-dimensional normals are linearly dependent: for a nonzero lambda
    with sum_i lambda_i m_i = 0, no u has sgn(u.m_i) = sgn(lambda_i) wherever
    lambda_i != 0, so that cell is empty, and its zero mass fixes E4.
    """
    e = {(i, j): sign_moment2(m[..., i, :], m[..., j, :])
         for i in range(4) for j in range(i + 1, 4)}
    lam = np.linalg.svd(np.swapaxes(m, -1, -2))[2][..., -1, :]
    sig = sign_array(lam)
    acc = 1.0
    for (i, j), eij in e.items():
        acc = acc + sig[..., i] * sig[..., j] * eij
    return e, -np.prod(sig, axis=-1) * acc


def normalization_check(
    s: SettingsPair,
    method: str = "quadrature",
    mc_samples: int = 1_000_000,
    rng: Optional[np.random.Generator] = None,
):
    """Integral of the Hall density over the sphere; 1 if the density is a
    probability density.  Returns (value, error_estimate).

    ``"quadrature"`` sums the density over the four exact sign cells of
    (n_L, n_R) and has no error beyond rounding; ``"monte_carlo"`` averages
    it over uniform sphere samples.
    """
    if method == "quadrature":
        c = s.cos_angle()
        e = sign_moment2(s.n_L.as_array(), s.n_R.as_array())
        g = hall_g_array([-c, c]).tolist()  # the density where p = 1, -1
        return sum(2.0 * math.pi * (1.0 + p * e) * gp for p, gp in zip((1, -1), g)), 0.0
    if method == "monte_carlo":
        rng = rng if rng is not None else np.random.default_rng(0)
        u = sample_uniform_sphere_array(rng, mc_samples)
        f = hall_f_array(u, s.n_L.as_array(), s.n_R.as_array())
        vals = 4.0 * math.pi * hall_g_array(f)
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(mc_samples))
    raise ValueError(f"unknown method: {method!r}")


# ---------------------------------------------------------------------------
# measurement dependence

def _total_variation_atomic(candidates) -> list:
    """Total variation between the model A spin atoms of the two settings
    pairs (s, s2) of each candidate, every candidate in one stacked pass.

    Each pair puts weight 1/4 on each of +-n_R and +-n_L, in that slot order;
    the atoms of s enter with +1/4, those of s2 with -1/4.  Each atom joins
    the first earlier group-leading atom within _ATOM_MERGE_TOL of it in every
    component, and M is the sum of the groups' weights' magnitudes.
    """
    atoms = np.array([[(d * v.x, d * v.y, d * v.z) for s in cand for v in (s.n_R, s.n_L)
                       for d in (1.0, -1.0)] for cand in candidates], dtype=float)
    near = np.max(np.abs(atoms[:, :, None] - atoms[:, None]), axis=3) <= _ATOM_MERGE_TOL
    group = np.tile(np.arange(8), (len(atoms), 1))
    for j in range(1, 8):
        # the earlier slots that lead their own group, within reach of slot j
        joins = near[:, j, :j] & (group[:, :j] == np.arange(j))
        group[:, j] = np.where(joins.any(axis=1), joins.argmax(axis=1), j)
    weights = np.zeros(group.shape)
    np.add.at(weights, (np.arange(len(group))[:, None], group), np.repeat([0.25, -0.25], 4))
    # sums of +-1/4 are exact in any order
    return np.abs(weights).sum(axis=1).tolist()


def _total_variation_hall(candidates) -> list:
    """Total variation between the Hall densities of the two settings pairs
    (s, s2) of each candidate, every candidate in one stacked pass.

    Each density is constant where p = sgn(u.n_L) sgn(u.n_R) is, with value
    g(-p n_L.n_R); the cell (p1, p2) covers the area
    pi (1 + p1 E1 + p2 E2 + p1 p2 E4) of the sphere.
    """
    normals = np.array([[(v.x, v.y, v.z) for s in cand for v in (s.n_L, s.n_R)]
                        for cand in candidates], dtype=float)
    c1, c2 = np.array([[s.cos_angle() for s in cand] for cand in candidates]).T
    e, e4 = _sign_moments4(normals)
    e1, e2 = e[0, 1], e[2, 3]
    # g1[p1] = g(-p1 c1) and g2[p2] = g(-p2 c2), from one call
    g = hall_g_array(np.stack([-c1, c1, -c2, c2], axis=1))
    g1, g2 = {1: g[:, 0], -1: g[:, 1]}, {1: g[:, 2], -1: g[:, 3]}
    cells = [math.pi * (1.0 + p1 * e1 + p2 * e2 + p1 * p2 * e4) * np.abs(g1[p1] - g2[p2])
             for p1 in (1, -1) for p2 in (1, -1)]
    # Python's sum, in cell order, as for one candidate alone
    return [sum(row) for row in zip(*(cell.tolist() for cell in cells))]


def free_will_M(kind: str, candidate_pairs):
    """Largest total-variation distance between the spin densities of two
    settings pairs, over the supplied candidates; 0 means settings-independent
    hidden variables, 2 means fully settings-pinned.

    Exact atom algebra for the atomic models (A, C); exact sign-cell masses
    for the Hall models.  Returns (M, best_pair_index), where the index is the
    first candidate within _TIE_TOL of the maximum: on symmetric grids many
    candidates tie up to rounding, and the first of them should not depend on
    the last bits of the arithmetic.
    """
    check_kind(kind)
    if kind == "QM":
        raise ValueError("the quantum reference has no hidden-variable density")
    candidates = list(candidate_pairs)
    if not candidates:
        raise ValueError("need at least one candidate pair of settings pairs")
    ms = (_total_variation_atomic if kind in ("A", "C") else _total_variation_hall)(candidates)
    best = max(ms)
    best_i = next(i for i, m in enumerate(ms) if m >= best - _TIE_TOL)
    return min(2.0, max(0.0, best)), best_i


# ---------------------------------------------------------------------------
# goodness of fit

def chi_square_p(stat: float, dof: int) -> float:
    """Survival function of the chi-square distribution with a whole number
    ``dof`` of degrees of freedom: Q(dof/2, x) at x = stat/2, the regularized
    upper incomplete gamma function, by its finite series (Abramowitz and
    Stegun, Handbook of Mathematical Functions, sections 6.5 and 26.4)

        Q(a, x) = [erfc(sqrt x) if a is a half-integer]
                  + sum over b = a-1, a-2, ... >= 0 of e^-x x^b / Gamma(b+1).

    Each term is one exp, so a large statistic underflows the terms one at a
    time.  NaN stays NaN, as in SciPy's gammaincc, so no threshold test
    passes.  A p below the smallest normal float is 0, where gammaincc gives
    0 or, in a narrow band, a subnormal."""
    if dof < 1:
        return 1.0
    x = stat / 2.0
    if not x > 0.0:
        return 1.0 if x == 0.0 else math.nan
    if x == math.inf:
        return 0.0
    half, lx = dof / 2.0, math.log(x)
    terms = [math.exp((half - k) * lx - x - math.lgamma(half - k + 1.0))
             for k in range(1, dof // 2 + 1)]
    if dof % 2:
        terms.append(math.erfc(math.sqrt(x)))
    p = min(1.0, math.fsum(terms))
    return p if p >= sys.float_info.min else 0.0


def chi_square_gof(table: CountTable, kind: str):
    """Pearson test of a count table against the analytic law of its model,
    which must be ``kind``.

    Cells with zero analytic mass must be empty; any count there is a hard
    mismatch reported as p = 0.  Returns (statistic, p_value, dof).
    """
    if kind != table.model:
        raise ValueError(f"a model {table.model} table scored as model {kind}")
    n = table.n_total
    if n < GOF_MIN_TRIALS:
        raise ValueError(f"need at least {GOF_MIN_TRIALS} trials for the asymptotic test")
    stat = 0.0
    cells = 0
    for sg, tu in OUTCOMES:
        p = table.analytic(sg, tu)
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
