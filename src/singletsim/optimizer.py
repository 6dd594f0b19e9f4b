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
    best (E, margin, angles) in deterministic lexicographic order."""
    grid = np.arange(0.0, 360.0, step_deg)
    rad = np.radians(grid)
    best = (-1.0, -1.0, (0.0, 0.0, 0.0, 0.0))
    evals = 0
    for ap in rad:
        # b down the rows, b' across the columns
        e, m = _scores(kind, 0.0, ap, rad[:, None], rad[None, :])
        evals += e.size
        # scan the plateau of the max for the largest margin, lexicographic first
        ties = np.argwhere(e >= e.max() - _EPS)
        mi = ties[np.argmax(m[ties[:, 0], ties[:, 1]])]
        cand_e = float(e[mi[0], mi[1]])
        cand_m = float(m[mi[0], mi[1]])
        if cand_e > best[0] + _EPS or (
            abs(cand_e - best[0]) <= _EPS and cand_m > best[1] + _EPS
        ):
            best = (cand_e, cand_m,
                    (0.0, math.degrees(ap), float(grid[mi[0]]), float(grid[mi[1]])))
    return best, evals


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
