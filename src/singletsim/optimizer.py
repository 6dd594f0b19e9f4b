"""Search over measurement configurations maximizing the four-correlator
CHSH parameter per model.

All model correlators depend only on pairwise dot products, so a common plane
suffices to reach the optimum and one angle can be pinned by a global
rotation: the search space is the three free coplanar angles.  The mixed
model's objective is piecewise constant, so the search is derivative-free:
a coarse grid followed by pattern-search refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import planar_vector
from .metrics import ChshConfig, chsh_analytic, chsh_E
from .models import correlator_law

_EPS = 1e-12
_SLACK = 1e-13  # the coarse scan's rounding allowance; see _coarse_scan


@dataclass(frozen=True)
class SearchOptions:
    coarse_deg: float = 15.0
    refine_iters: int = 40

    def __post_init__(self):
        c = self.coarse_deg
        if not 0.0 < c < math.inf or abs(360.0 / c - round(360.0 / c)) > 1e-9:
            raise ValueError(
                f"coarse grid resolution must be a positive divisor of 360 degrees, got {c}")
        if self.refine_iters < 0:
            raise ValueError("refinement iterations must be >= 0")


@dataclass
class SearchResult:
    config: ChshConfig
    E: float
    angles_deg: tuple
    evaluations: int


def config_from_angles(a, a_p, b, b_p) -> ChshConfig:
    return ChshConfig(
        planar_vector(a), planar_vector(a_p), planar_vector(b), planar_vector(b_p)
    )


def _scores(kind: str, a, a_p, b, b_p):
    """(E, margin) of coplanar configurations at angles in radians, broadcast
    over array arguments.  The margin is the smallest |cos| over the four
    pairs, used to break plateau ties away from the sign boundaries."""
    c = [np.cos(x - y) for x, y in ((a, b), (a_p, b), (a, b_p), (a_p, b_p))]
    e = chsh_E(*(correlator_law(kind, x) for x in c))
    margin = np.minimum(np.minimum(np.abs(c[0]), np.abs(c[1])),
                        np.minimum(np.abs(c[2]), np.abs(c[3])))
    return e, margin


def _coarse_scan(kind: str, step_deg: float):
    """Exhaustive coplanar scan with the first angle pinned at 0; returns the
    best (E, margin, angles) in deterministic lexicographic order.

    Every grid configuration is covered, but only the b rows that can still
    win or tie are scored.  For a fixed a', with r_b = C(a,b) + C(a',b) and
    d_b' = C(a,b') - C(a',b'), the float E[b, b'] = |(r_b + C(a,b')) - C(a',b')|
    and the float |r_b + d_b'| each round twice on values of magnitude <= 4,
    so they differ by at most 2 ulp(4) ~ 2e-15, far below _SLACK.  |r + d| is
    convex in d, so max over b' of |r_b + d_b'| is
    max(r_b + max d, -(r_b + min d)): an O(1) bound per row.  A slice or row
    whose bound falls short of the tie window by more than _SLACK cannot hold
    a winning or tying configuration.  The rows that remain are scored
    exactly, in the same order and with the same tie rules as a full scan."""
    grid = np.arange(0.0, 360.0, step_deg)
    rad = np.radians(grid)
    best = (-1.0, -1.0, (0.0, 0.0, 0.0, 0.0))
    c_a = np.cos(0.0 - rad)
    law_a, abs_a = correlator_law(kind, c_a), np.abs(c_a)
    for ap in rad:
        c_ap = np.cos(ap - rad)
        law_ap = correlator_law(kind, c_ap)
        # the margin of (b, b') is min(pair_m[b], pair_m[b'])
        pair_m = np.minimum(abs_a, np.abs(c_ap))
        r = law_a + law_ap
        d = law_a - law_ap
        bound = np.maximum(r + d.max(), -(r + d.min()))
        top = bound.max()
        if top < best[0] - _EPS - _SLACK:
            continue  # every E in the slice is below the best by more than _EPS
        rows = np.flatnonzero(bound >= top - _EPS - _SLACK)
        if top < best[0] + _EPS - _SLACK:
            # at best a tie: bound the largest margin among each row's columns
            # with |r + d| >= thr, a prefix and a suffix of the columns by d
            thr = max(top, best[0]) - _EPS - _SLACK
            order = np.argsort(d)
            d_sorted, m_sorted = d[order], pair_m[order]
            head = np.concatenate(([-1.0], np.maximum.accumulate(m_sorted)))
            tail = np.concatenate((np.maximum.accumulate(m_sorted[::-1])[::-1], [-1.0]))
            reach = np.maximum(head[np.searchsorted(d_sorted, -thr - r[rows], side="right")],
                               tail[np.searchsorted(d_sorted, thr - r[rows], side="left")])
            if np.minimum(pair_m[rows], reach).max() <= best[1] + _EPS:
                continue
        # b down the rows, b' across the columns
        e = chsh_E(law_a[rows, None], law_ap[rows, None], law_a[None, :], law_ap[None, :])
        m = np.minimum(pair_m[rows, None], pair_m[None, :])
        # scan the plateau of the max for the largest margin, lexicographic first
        ties = np.argwhere(e >= e.max() - _EPS)
        mi = ties[np.argmax(m[ties[:, 0], ties[:, 1]])]
        cand_e = float(e[mi[0], mi[1]])
        cand_m = float(m[mi[0], mi[1]])
        if cand_e > best[0] + _EPS or (
            abs(cand_e - best[0]) <= _EPS and cand_m > best[1] + _EPS
        ):
            best = (cand_e, cand_m,
                    (0.0, math.degrees(ap), float(grid[rows[mi[0]]]), float(grid[mi[1]])))
    return best, grid.size ** 3


def _pattern_search(kind: str, angles, step_deg: float, iters: int):
    """Coordinate pattern search on the three free angles; no derivatives."""
    x = list(angles)
    fe, fm = _scores(kind, *map(math.radians, x))
    evals = 0
    step = step_deg
    for _ in range(iters):
        improved = False
        for i in range(1, 4):
            for delta in (step, -step):
                cand = list(x)
                cand[i] = (cand[i] + delta) % 360.0
                ce, cm = _scores(kind, *map(math.radians, cand))
                evals += 1
                if ce > fe + _EPS or (abs(ce - fe) <= _EPS and cm > fm + _EPS):
                    x, fe, fm = cand, ce, cm
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-7:
                break
    return (fe, fm, tuple(x)), evals


def maximize_chsh(kind: str, opts: SearchOptions = SearchOptions()) -> SearchResult:
    """Best CHSH configuration found for the model, scored on its analytic
    correlators, with its E."""
    best, evals = _coarse_scan(kind, opts.coarse_deg)
    if opts.refine_iters > 0:
        refined, extra = _pattern_search(kind, best[2], opts.coarse_deg / 2.0, opts.refine_iters)
        evals += extra
        # the coarse result wins ties
        best = min(best, refined, key=lambda t: (-t[0], -t[1]))
    angles = best[2]
    cfg = config_from_angles(*angles)
    return SearchResult(cfg, chsh_analytic(kind, cfg).E, angles, evals)
