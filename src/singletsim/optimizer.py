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
_ROW_BATCH = 64  # the most rows the coarse scan scores at once
_BLOCK_CELLS = 1 << 14  # the coarse scan's block: slices x grid angles
MAX_GRID = 3600  # the most coarse grid angles, so the finest step is 0.1 degrees


@dataclass(frozen=True)
class SearchOptions:
    coarse_deg: float = 5.0
    refine_iters: int = 40

    def __post_init__(self):
        c = self.coarse_deg
        if c > 0.0 and 360.0 / c > MAX_GRID + 0.5:
            raise ValueError(f"coarse grid resolution must be at least {360 / MAX_GRID:g} "
                             f"degrees ({MAX_GRID} grid angles), got {c}")
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


def _beats(e, m, best_e, best_m) -> bool:
    """Whether (E, margin) = (e, m) replaces the best so far: E is larger by
    more than _EPS, or equal within _EPS and the margin larger by more."""
    return e > best_e + _EPS or (abs(e - best_e) <= _EPS and m > best_m + _EPS)


def _best_tie(law_a, law_ap, pair_m, rows, floor=None):
    """(margin, b, b', E) of the configuration of largest margin among those of
    the ascending ``rows`` with E >= floor, the first in row-major order.  The
    floor defaults to the rows' own largest E less _EPS; the margin is -1 if
    no configuration reaches it."""
    # b down the rows, b' across the columns
    e = chsh_E(law_a[rows, None], law_ap[rows, None], law_a[None, :], law_ap[None, :])
    if floor is None:
        floor = e.max() - _EPS
    m = np.where(e >= floor, np.minimum(pair_m[rows, None], pair_m[None, :]), -1.0)
    i, j = np.unravel_index(m.argmax(), m.shape)
    return float(m[i, j]), int(rows[i]), int(j), float(e[i, j])


def _search_rows(law_a, law_ap, pair_m, r, d, rows, thr):
    """_best_tie over a whole slice at its exact tie window, scoring only the
    ``rows`` that can hold the result; see _coarse_scan."""
    # the slice's largest E lies in its row of largest or of smallest r
    ext = [r.argmax(), r.argmin()]
    floor = chsh_E(law_a[ext, None], law_ap[ext, None], law_a, law_ap).max() - _EPS
    # cap[b]: the largest margin among the columns with |r_b + d| >= thr, a
    # prefix and a suffix of the columns by d
    order = np.argsort(d)
    d_sorted, m_sorted = d[order], pair_m[order]
    head = np.concatenate(([-1.0], np.maximum.accumulate(m_sorted)))
    tail = np.concatenate((np.maximum.accumulate(m_sorted[::-1])[::-1], [-1.0]))
    cap = np.minimum(pair_m[rows], np.maximum(
        head[np.searchsorted(d_sorted, -thr - r[rows], side="right")],
        tail[np.searchsorted(d_sorted, thr - r[rows], side="left")]))
    by_cap = np.lexsort((rows, -cap))
    rows, cap = rows[by_cap], cap[by_cap]
    win = (-1.0, -1, -1, -1.0)
    i, k = 0, 1
    # (margin, -b) orders the results: a larger margin, then an earlier row
    while i < rows.size and (cap[i], -rows[i]) > (win[0], -win[1]):
        cand = _best_tie(law_a, law_ap, pair_m, np.sort(rows[i:i + k]), floor)
        if (cand[0], -cand[1]) > (win[0], -win[1]):
            win = cand
        i += k
        k = min(2 * k, _ROW_BATCH)
    return win


def _coarse_scan(kind: str, step_deg: float):
    """Exhaustive coplanar scan with the first angle pinned at 0; returns the
    best (E, margin, angles) in deterministic lexicographic order.

    The result is that of scoring every grid configuration, but only the
    configurations that can decide it are scored.  In the slice of a fixed
    a', b runs down the rows and b' across the columns.  The slice's
    candidate is the configuration of largest margin in its tie window,
    E >= (slice max E) - _EPS, the first in row-major order; it replaces the
    best if it beats it (see _beats).

    Row bounds.  With r_b = C(a,b) + C(a',b) and d_b' = C(a,b') - C(a',b'),
    the float E[b, b'] = |(r_b + C(a,b')) - C(a',b')| and the float
    |r_b + d_b'| each round twice on values of magnitude <= 4, so they differ
    by at most 2 ulp(4) ~ 2e-15, far below _SLACK.  |r + d| is convex in d,
    so bound[b] = max(r_b + max d, -(r_b + min d)) bounds row b in O(1), and
    its maximum, top, is within 2 ulp(4) of the slice's max E.  A slice whose
    top is below the best by more than _EPS + _SLACK cannot win or tie, and
    every configuration of the tie window has |r_b + d_b'| >= thr = top -
    _EPS - _SLACK, so it lies in a row with bound[b] >= thr.

    At best a tie.  If top < best + _EPS - _SLACK, the candidate wins only
    with a margin above the best's by more than _EPS, so both pair_m[b] and
    pair_m[b'] exceed it.  The rows that can hold such a configuration are
    found in O(1) each from the max and min of d over those high columns;
    a slice with none is skipped, and the row search below looks only at
    them.  As the candidate has the slice's largest margin, it can win only
    if it lies in one of these rows, and then it is the best of them.

    Exact tie window.  Rounding is monotone, so on each column the float
    (r_b + C(a,b')) - C(a',b') does not decrease as r_b grows, and the
    largest |.| over the rows is in the row of largest r or of smallest r.
    Those two rows give the slice's max E exactly, and with it the brute
    force's tie window.

    Row selection.  If at most _ROW_BATCH rows reach thr, they are scored
    in one batch, whose max E is the slice's.  Otherwise cap[b] =
    min(pair_m[b], max pair_m[b'] over the columns with |r_b + d_b'| >= thr)
    bounds the margin of any window configuration in row b.  Those columns
    are a prefix and a suffix of the columns sorted by d, so every cap takes
    one sort and two binary searches.  The rows are scored by decreasing cap,
    lower row first among equal caps, in batches of 1, 2, 4, ... up to
    _ROW_BATCH rows, and the search stops at a row whose cap is below the
    largest margin found so far, or equal to it in a later row: no row left
    can hold a larger margin, or an equal one earlier in row-major order.
    For model C, whose E takes only the values 0, 2 and 4, a row's cap is its
    exact largest window margin, so the search scores one row.

    Blocks.  Cosines, laws, r and d are computed for _BLOCK_CELLS cells
    (slices x grid angles) at a time, and each slice's top from its rows of
    largest and smallest r, exactly, as rounding is monotone; row bounds and
    margins only for a slice that is scored.  j, the first slice of the
    block whose top is within _EPS + _SLACK of the block's largest, is
    scored first.  If j has a candidate whose E exceeds by more than _EPS
    both the best's E and every earlier top of the block plus _SLACK, the
    slices before j are not scored.  The skip is exact: any best they could
    leave has E at most the incoming best's or a top of theirs plus 2
    ulp(4), so j's candidate beats it by E alone; and as top[j] is then not
    below best + _EPS - _SLACK, j is not tie-only, so its candidate does not
    depend on the best.  Otherwise the block is scored in order."""
    grid = np.arange(0.0, 360.0, step_deg)
    rad = np.radians(grid)
    best = (-1.0, -1.0, (0.0, 0.0, 0.0, 0.0))
    c_a = np.cos(0.0 - rad)
    law_a, abs_a = correlator_law(kind, c_a), np.abs(c_a)
    size = max(1, _BLOCK_CELLS // rad.size)
    for lo in range(0, rad.size, size):
        # one row per slice, a' = rad[lo + i]
        c_ap = np.cos(rad[lo:lo + size, None] - rad)
        law_ap = correlator_law(kind, c_ap)
        r = law_a + law_ap
        d = law_a - law_ap
        # the largest bound[b] is in the row of largest or of smallest r
        top = np.maximum(r.max(axis=1) + d.max(axis=1), -(r.min(axis=1) + d.min(axis=1)))

        def candidate(i):
            return _slice_candidate(law_a, abs_a, c_ap[i], law_ap[i], r[i], d[i], top[i], best)

        j = int(np.argmax(top >= top.max() - _EPS - _SLACK))
        lead = max(best[0], top[:j].max() + _SLACK) if j else best[0]
        start, cand_j = best, candidate(j)
        skip = cand_j is not None and cand_j[3] > lead + _EPS
        for i in range(j if skip else 0, top.size):
            # j's candidate holds while the best is the one it was scored against
            cand = cand_j if i == j and best is start else candidate(i)
            if cand is not None and _beats(cand[3], cand[0], *best[:2]):
                cand_m, b, b_p, cand_e = cand
                best = (cand_e, cand_m, (0.0, math.degrees(rad[lo + i]), float(grid[b]),
                                         float(grid[b_p])))
    return best, grid.size ** 3


def _slice_candidate(law_a, abs_a, c_ap, law_ap, r, d, top, best):
    """The candidate (margin, b, b', E) of one a' slice, or None if the slice
    cannot beat the best; see _coarse_scan."""
    if top < best[0] - _EPS - _SLACK:
        return None  # every E in the slice is below the best by more than _EPS
    # the margin of (b, b') is min(pair_m[b], pair_m[b'])
    pair_m = np.minimum(abs_a, np.abs(c_ap))
    thr = top - _EPS - _SLACK
    tie_only = top < best[0] + _EPS - _SLACK
    if tie_only:
        # a winning tie has both b and b' of margin above the best's
        high = pair_m > best[1] + _EPS
        d_high = d[high]
        if d_high.size == 0:
            return None
        keep = high & (np.maximum(r + d_high.max(), -(r + d_high.min())) >= thr)
        if not keep.any():
            return None
    rows = np.flatnonzero(np.maximum(r + d.max(), -(r + d.min())) >= thr)
    if rows.size <= _ROW_BATCH:
        return _best_tie(law_a, law_ap, pair_m, rows)
    if tie_only:
        rows = np.flatnonzero(keep)
    return _search_rows(law_a, law_ap, pair_m, r, d, rows, thr)


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
                if _beats(ce, cm, fe, fm):
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
        best = refined if _beats(*refined[:2], *best[:2]) else best
    angles = best[2]
    cfg = config_from_angles(*angles)
    return SearchResult(cfg, chsh_analytic(kind, cfg).E, angles, evals)
