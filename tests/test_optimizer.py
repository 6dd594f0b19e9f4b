import math
import tracemalloc

import numpy as np
import pytest

from singletsim import optimizer
from singletsim.cli import EXIT_OK, main
from singletsim.metrics import chsh_analytic, chsh_empirical
from singletsim.models import correlator_law
from singletsim.optimizer import (
    SearchOptions,
    config_from_angles,
    maximize_chsh,
    planar_vector,
)

TSIRELSON = 2.0 * math.sqrt(2.0)


def test_options_validation():
    with pytest.raises(ValueError):
        SearchOptions(coarse_deg=7.0)  # does not divide 360
    for coarse in (0.0, -5.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SearchOptions(coarse_deg=coarse)
    with pytest.raises(ValueError):
        SearchOptions(refine_iters=-1)


def test_finest_grid_step():
    # MAX_GRID angles per axis at most: a finer divisor of 360 is refused
    # before any grid is built
    assert optimizer.MAX_GRID == 3600
    SearchOptions(coarse_deg=0.1)
    for coarse in (0.09, 0.0999, 1e-9, 5e-324):
        with pytest.raises(ValueError, match="at least 0.1 degrees"):
            SearchOptions(coarse_deg=coarse)


def test_planar_vector_in_plane():
    for deg in (0.0, 45.0, 90.0, 300.0):
        v = planar_vector(deg)
        assert v.y == 0.0
        assert v.x == pytest.approx(math.sin(math.radians(deg)), abs=1e-12)


def test_model_c_reaches_algebraic_maximum():
    res = maximize_chsh("C", SearchOptions(coarse_deg=15.0))
    assert res.E == pytest.approx(4.0)
    # independent re-evaluation from the returned configuration
    assert chsh_analytic("C", res.config).E == pytest.approx(4.0)
    # the winning correlators are pure signs with pattern (+-1)*(1,1,1,-1)
    c = chsh_analytic("C", res.config).correlators
    vals = [c["ab"], c["a'b"], c["ab'"], -c["a'b'"]]
    assert vals in ([1.0] * 4, [-1.0] * 4)


def test_qm_reaches_tsirelson():
    res = maximize_chsh("QM", SearchOptions(coarse_deg=5.0, refine_iters=60))
    assert res.E >= TSIRELSON - 1e-3
    assert res.E <= TSIRELSON + 1e-9


def test_singlet_models_share_optimum():
    ra = maximize_chsh("A", SearchOptions(coarse_deg=15.0))
    rq = maximize_chsh("QM", SearchOptions(coarse_deg=15.0))
    assert ra.E == pytest.approx(rq.E, abs=1e-9)


def test_fine_scan_never_exceeds_tsirelson():
    res = maximize_chsh("QM", SearchOptions(coarse_deg=1.0, refine_iters=0))
    assert res.E <= TSIRELSON + 1e-9


def test_result_reproducible():
    r1 = maximize_chsh("C", SearchOptions(coarse_deg=15.0))
    r2 = maximize_chsh("C", SearchOptions(coarse_deg=15.0))
    assert r1.angles_deg == r2.angles_deg
    assert r1.E == r2.E


def test_empirical_mode_close_to_analytic():
    cfg = maximize_chsh("QM", SearchOptions(coarse_deg=15.0)).config
    e = chsh_empirical("QM", cfg, 20_000, 3).E
    assert abs(e - chsh_analytic("QM", cfg).E) < 0.05


def test_coplanar_matches_general_configs():
    # a general 3-D configuration's E depends only on pairwise angles, so a
    # coplanar configuration with the same angles gives the same E
    rng = np.random.default_rng(44)
    for _ in range(20):
        angs = rng.uniform(0.0, 360.0, size=4)
        cfg = config_from_angles(*angs)
        # rebuild with a common rigid rotation of the plane: same E
        shifted = config_from_angles(*(angs + 37.0))
        for kind in ("QM", "C"):
            e1 = chsh_analytic(kind, cfg).E
            e2 = chsh_analytic(kind, shifted).E
            assert e1 == pytest.approx(e2, abs=1e-9)


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        maximize_chsh("X", SearchOptions())


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C", "QM"])
def test_scores_on_arrays_match_scalar_calls(kind):
    # the pattern search scores a ladder of moves in one broadcast call, and
    # is exact only if each score is the scalar call's to the last bit
    rng = np.random.default_rng(35)
    degrees = np.concatenate((rng.uniform(0.0, 360.0, size=(4, 400)),
                              7.5 * rng.integers(0, 48, size=(4, 400))), axis=1)
    angles = np.array([[math.radians(v) for v in row] for row in degrees])
    e, m = optimizer._scores(kind, *angles)
    scalar = [optimizer._scores(kind, *map(float, col)) for col in angles.T]
    assert np.asarray(e, float).tobytes() == np.array([x for x, _ in scalar], float).tobytes()
    assert np.asarray(m, float).tobytes() == np.array([y for _, y in scalar], float).tobytes()


def sequential_pattern_search(kind, angles, step_deg, iters):
    """Oracle: the pattern search scoring one move at a time."""
    x = list(angles)
    fe, fm = optimizer._scores(kind, *map(math.radians, x))
    evals = 0
    step = step_deg
    for _ in range(iters):
        improved = False
        for i in range(1, 4):
            for delta in (step, -step):
                cand = list(x)
                cand[i] = (cand[i] + delta) % 360.0
                ce, cm = optimizer._scores(kind, *map(math.radians, cand))
                evals += 1
                if optimizer._beats(ce, cm, fe, fm):
                    x, fe, fm = cand, ce, cm
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-7:
                break
    return (fe, fm, tuple(x)), evals


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C", "QM"])
def test_pattern_search_ladder_matches_sequential(kind):
    rng = np.random.default_rng(36)
    moved = 0
    for step in (0.5, 2.5, 7.5, 45.0):
        for iters in (0, 1, 3, 40):
            starts = [(0.0, 90.0, 225.0, 135.0), (0.0, 88.0, 44.0, 314.0),
                      (0.0, *(15.0 * rng.integers(0, 24, size=3))),
                      (0.0, *rng.uniform(0.0, 360.0, size=3))]
            for start in starts:
                got = optimizer._pattern_search(kind, start, step, iters)
                assert got == sequential_pattern_search(kind, start, step, iters)
                moved += got[0][2] != start
    assert moved > 0


# maximize_chsh before the scan and the pattern search shared one scorer:
# (kind, coarse_deg, refine_iters or None for the default, angles_deg, E, evaluations)
PINNED = [
    ('A', 2.0, None, (0.0, 89.9998779296875, 44.9998779296875, 314.9998779296875), 2.8284271247429804, 5832240),
    ('A', 2.0, 0, (0.0, 88.0, 44.0, 314.0), 2.8279963415952967, 5832000),
    ('A', 7.2, None, (0.0, 89.999560546875, 44.999560546875, 314.99956054687505), 2.828427124704593, 125240),
    ('A', 7.2, 0, (0.0, 86.4, 43.2, 309.6), 2.824329872012924, 125000),
    ('A', 15.0, None, (0.0, 90.0, 225.0, 135.0), 2.8284271247461903, 13986),
    ('A', 15.0, 0, (0.0, 90.0, 225.0, 135.0), 2.8284271247461903, 13824),
    ('C', 2.0, None, (0.0, 88.0, 42.0, 314.0), 4.0, 5832144),
    ('C', 2.0, 0, (0.0, 88.0, 42.0, 314.0), 4.0, 5832000),
    ('C', 7.2, None, (0.0, 79.2, 208.8, 129.6), 4.0, 125156),
    ('C', 7.2, 0, (0.0, 79.2, 208.8, 129.6), 4.0, 125000),
    ('C', 15.0, None, (0.0, 90.0, 225.0, 135.0), 4.0, 13986),
    ('C', 15.0, 0, (0.0, 90.0, 225.0, 135.0), 4.0, 13824),
    ('QM', 2.0, None, (0.0, 89.9998779296875, 44.9998779296875, 314.9998779296875), 2.8284271247429804, 5832240),
    ('QM', 2.0, 0, (0.0, 88.0, 44.0, 314.0), 2.8279963415952967, 5832000),
    ('QM', 7.2, None, (0.0, 89.999560546875, 44.999560546875, 314.99956054687505), 2.828427124704593, 125240),
    ('QM', 7.2, 0, (0.0, 86.4, 43.2, 309.6), 2.824329872012924, 125000),
    ('QM', 15.0, None, (0.0, 90.0, 225.0, 135.0), 2.8284271247461903, 13986),
    ('QM', 15.0, 0, (0.0, 90.0, 225.0, 135.0), 2.8284271247461903, 13824),
]


@pytest.mark.parametrize("kind,coarse,refine,angles,e,evals", PINNED)
def test_search_outputs_pinned(kind, coarse, refine, angles, e, evals):
    opts = SearchOptions(coarse_deg=coarse)
    if refine is not None:
        opts = SearchOptions(coarse_deg=coarse, refine_iters=refine)
    res = maximize_chsh(kind, opts)
    assert (res.angles_deg, res.E, res.evaluations) == (angles, e, evals)


def brute_force_scan(kind, step_deg):
    """Oracle: the coarse scan as it was before pruning, scoring every
    configuration of every a' slice."""
    grid = np.arange(0.0, 360.0, step_deg)
    rad = np.radians(grid)
    best = (-1.0, -1.0, (0.0, 0.0, 0.0, 0.0))
    evals = 0
    for ap in rad:
        # b down the rows, b' across the columns
        e, m = optimizer._scores(kind, 0.0, ap, rad[:, None], rad[None, :])
        evals += e.size
        # scan the plateau of the max for the largest margin, lexicographic first
        ties = np.argwhere(e >= e.max() - optimizer._EPS)
        mi = ties[np.argmax(m[ties[:, 0], ties[:, 1]])]
        cand_e = float(e[mi[0], mi[1]])
        cand_m = float(m[mi[0], mi[1]])
        if cand_e > best[0] + optimizer._EPS or (
            abs(cand_e - best[0]) <= optimizer._EPS and cand_m > best[1] + optimizer._EPS
        ):
            best = (cand_e, cand_m,
                    (0.0, math.degrees(ap), float(grid[mi[0]]), float(grid[mi[1]])))
    return best, evals


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C", "QM"])
@pytest.mark.parametrize("step", [1.5, 2.0, 2.4, 3.0, 5.0, 7.2, 15.0, 45.0, 90.0, 120.0, 360.0])
def test_pruned_scan_matches_brute_force(kind, step):
    assert optimizer._coarse_scan(kind, step) == brute_force_scan(kind, step)


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C", "QM"])
def test_pruned_scan_matches_brute_force_at_one_degree(kind):
    assert optimizer._coarse_scan(kind, 1.0) == brute_force_scan(kind, 1.0)


# correlator laws whose E has plateaus split by steps near _EPS, so that
# ties, tie-window edges and rows whose margin bound overstates their tied
# margin are common: at 1.2 degrees they run the row search and its
# fallback to further rows, which the models' own laws rarely reach
PLATEAU_LAWS = {
    "halves+1e-12": lambda c: -np.round(c * 2) / 2 + 1.0e-12 * np.round(c * 5),
    "halves+1.05e-12": lambda c: -np.round(c * 2) / 2 + 1.05e-12 * np.round(c * 3),
    "signs+0.34e-12": lambda c: -np.sign(c) + 0.34e-12 * np.round(c * 4),
    "units+0.52e-12": lambda c: -np.round(c) + 0.52e-12 * np.round(c * 7),
}


@pytest.mark.parametrize("law", sorted(PLATEAU_LAWS))
def test_row_search_matches_brute_force_on_plateau_laws(monkeypatch, law):
    monkeypatch.setattr(optimizer, "correlator_law", lambda kind, c: PLATEAU_LAWS[law](c))
    assert optimizer._coarse_scan("A", 1.2) == brute_force_scan("A", 1.2)


@pytest.mark.parametrize("law", sorted(PLATEAU_LAWS) + ["A", "C"])
def test_row_search_matches_whole_slice(law):
    # slice by slice, the row search over the rows that reach the top bound
    # finds what scoring the whole slice at once finds
    f = PLATEAU_LAWS[law] if law in PLATEAU_LAWS else (lambda c: correlator_law(law, c))
    rad = np.radians(np.arange(0.0, 360.0, 2.4))
    c_a = np.cos(0.0 - rad)
    law_a = f(c_a)
    searched = 0
    for ap in rad:
        c_ap = np.cos(ap - rad)
        law_ap = f(c_ap)
        pair_m = np.minimum(np.abs(c_a), np.abs(c_ap))
        r, d = law_a + law_ap, law_a - law_ap
        bound = np.maximum(r + d.max(), -(r + d.min()))
        top = bound.max()
        thr = top - optimizer._EPS - optimizer._SLACK
        rows = np.flatnonzero(bound >= thr)
        if rows.size > 1:
            searched += 1
            assert (optimizer._search_rows(law_a, law_ap, pair_m, r, d, rows, thr)
                    == optimizer._best_tie(law_a, law_ap, pair_m, np.arange(rad.size)))
    assert searched > 0


def block_scans(monkeypatch, kind, step):
    """_coarse_scan(kind, step) at blocks of one slice, of 3 and 7 slices,
    which leave a remainder on most grids, and at the default block."""
    n, default = round(360.0 / step), optimizer._BLOCK_CELLS
    for slices in (1, 3, 7, None):
        monkeypatch.setattr(optimizer, "_BLOCK_CELLS", slices * n if slices else default)
        yield slices, optimizer._coarse_scan(kind, step)


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C", "QM"])
@pytest.mark.parametrize("step", [1.0, 1.5, 2.4, 5.0, 7.2, 45.0, 90.0, 360.0])
def test_block_scan_matches_brute_force(monkeypatch, kind, step):
    want = brute_force_scan(kind, step)
    for slices, got in block_scans(monkeypatch, kind, step):
        assert got == want, slices


@pytest.mark.parametrize("law", sorted(PLATEAU_LAWS))
@pytest.mark.parametrize("step", [1.2, 2.4, 3.0])
def test_block_scan_matches_brute_force_on_plateau_laws(monkeypatch, law, step):
    # at one slice per block the block's first slice is often tie-only with
    # no candidate, and the block is then scored in order
    monkeypatch.setattr(optimizer, "correlator_law", lambda kind, c: PLATEAU_LAWS[law](c))
    want = brute_force_scan("A", step)
    for slices, got in block_scans(monkeypatch, "A", step):
        assert got == want, slices


# laws, with a step, on which a block start that skipped too much changed
# the result (blocks of 7 slices and the default): taking as ties earlier
# slices whose candidates can sit just over _EPS below j's E, where _beats
# finds neither a larger E nor a tie, or taking j first without comparing
# its margin with the caps of earlier slices that it ties
START_LAWS = {
    "thirds+1e-12": (lambda c: -np.round(c * 3) / 3 + 1.0e-12 * np.round(c * 5), 12.0),
    "thirds+0.5e-12": (lambda c: -np.round(c * 3) / 3 + 0.5e-12 * np.round(c * 7), 12.0),
    "units+1e-12": (lambda c: -np.round(c) + 1.0e-12 * np.round(c * 3), 12.0),
    "quarters+0.3e-12": (lambda c: -np.round(c * 4) / 4 + 0.3e-12 * np.round(c * 8), 5.0),
}


@pytest.mark.parametrize("law", sorted(START_LAWS))
def test_block_scan_matches_brute_force_on_block_start_laws(monkeypatch, law):
    f, step = START_LAWS[law]
    monkeypatch.setattr(optimizer, "correlator_law", lambda kind, c: f(c))
    want = brute_force_scan("A", step)
    for slices, got in block_scans(monkeypatch, "A", step):
        assert got == want, slices


def test_block_scans_take_both_cap_skips(monkeypatch):
    # at blocks of 3 and of 7 slices, the plateau laws and model C leave out
    # tie-only slices by their margin caps, and start blocks at a slice whose
    # candidate ties the candidates of earlier ones
    taken = {3: [0, 0], 7: [0, 0]}  # block slices: [caps skipped, tie starts]
    live, takes_over, n = optimizer._live, optimizer._takes_over, None

    def counting_live(top, cap, best, first=0):
        alive = live(top, cap, best, first)
        tied = (top >= best[0] - optimizer._EPS - optimizer._SLACK) & (
            top < best[0] + optimizer._EPS - optimizer._SLACK)
        if optimizer._BLOCK_CELLS // n in taken:  # the scan's slices per block
            tally = taken[optimizer._BLOCK_CELLS // n]
            tally[0] += np.count_nonzero(tied[first:] & ~alive[first:])
        return alive

    def counting_takes_over(cand_j, before, cap, best, exact):
        took = takes_over(cand_j, before, cap, best, exact)
        if optimizer._BLOCK_CELLS // n in taken and took:
            near = before >= cand_j[3] - optimizer._EPS - optimizer._SLACK
            taken[optimizer._BLOCK_CELLS // n][1] += bool(near.any())
        return took

    monkeypatch.setattr(optimizer, "_live", counting_live)
    monkeypatch.setattr(optimizer, "_takes_over", counting_takes_over)
    scans = [("A", step, law) for law in sorted(PLATEAU_LAWS) for step in (1.2, 2.4)]
    for kind, step, law in scans + [("C", 1.0, None), ("C", 2.4, None)]:
        if law is not None:
            monkeypatch.setattr(optimizer, "correlator_law",
                                lambda kind, c, law=law: PLATEAU_LAWS[law](c))
        else:
            monkeypatch.setattr(optimizer, "correlator_law", correlator_law)
        want, n = brute_force_scan(kind, step), round(360.0 / step)
        for slices, got in block_scans(monkeypatch, kind, step):
            assert got == want, (kind, step, law, slices)
    assert all(skipped > 0 and starts > 0 for skipped, starts in taken.values()), taken


@pytest.mark.parametrize("law", sorted(PLATEAU_LAWS) + ["A", "B1", "B2", "C", "QM"])
@pytest.mark.parametrize("step", [2.4, 5.0, 7.2, 15.0])
def test_margin_cap_bounds_candidate_margin(law, step):
    # every slice's cap is at least the margin of its brute-force candidate
    f = PLATEAU_LAWS[law] if law in PLATEAU_LAWS else (lambda c: correlator_law(law, c))
    rad = np.radians(np.arange(0.0, 360.0, step))
    c_a = np.cos(0.0 - rad)
    c_ap = np.cos(rad[:, None] - rad)
    law_a, law_ap = f(c_a), f(c_ap)
    r, d = law_a + law_ap, law_a - law_ap
    r_ext, d_ext = (r.max(axis=1), r.min(axis=1)), (d.max(axis=1), d.min(axis=1))
    top = np.maximum(r_ext[0] + d_ext[0], -(r_ext[1] + d_ext[1]))
    cap = optimizer._margin_caps(np.abs(c_a), c_ap, r, d, r_ext, d_ext,
                                 top - optimizer._EPS - optimizer._SLACK)
    for i in range(rad.size):
        e = np.abs(law_a[:, None] + law_ap[i][:, None] + law_a[None, :] - law_ap[i][None, :])
        pair_m = np.minimum(np.abs(c_a), np.abs(c_ap[i]))
        m = np.minimum(pair_m[:, None], pair_m[None, :])
        assert cap[i] >= m[e >= e.max() - optimizer._EPS].max(), i


# configurations scored by _coarse_scan(kind, 1.0) at the default 45-slice
# blocks; the brute force scores 46,656,000, the scan before row selection
# scored 4,605,120 for C, the scan slice by slice 97,920 for A, B1, B2 and
# QM and 50,760 for C, and the scan before margin caps 49,680 for C
SCORED_AT_ONE_DEGREE = {"A": 2_880, "B1": 2_880, "B2": 2_880, "C": 3_240, "QM": 2_880}


@pytest.mark.parametrize("kind", sorted(SCORED_AT_ONE_DEGREE))
def test_coarse_scan_work_is_bounded(monkeypatch, kind):
    scored, chsh_E = [], optimizer.chsh_E

    def counting_chsh_E(*args):
        e = chsh_E(*args)
        scored.append(np.size(e))
        return e

    monkeypatch.setattr(optimizer, "chsh_E", counting_chsh_E)
    optimizer._coarse_scan(kind, 1.0)
    assert 0 < sum(scored) <= SCORED_AT_ONE_DEGREE[kind]


def test_model_c_scores_four_slices_at_one_degree(monkeypatch):
    # C's slices tie at E = 4, so before margin caps the scan visited 359 of
    # its 360 a' slices at 1 degree; now it visits a' = 44, 88, 89 and 90,
    # and 89 yields no candidate
    visits, slice_candidate = [], optimizer._slice_candidate

    def counting(*args):
        cand = slice_candidate(*args)
        visits.append(cand is not None)
        return cand

    monkeypatch.setattr(optimizer, "_slice_candidate", counting)
    optimizer._coarse_scan("C", 1.0)
    assert visits == [True, True, False, True]


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C", "QM"])
def test_coarse_scan_memory_is_bounded(kind):
    # one block of 2**14 cells at a time: an n x n table of one array alone
    # takes 1 MB at 1 degree and 104 MB at 0.1 degrees
    for step in (1.0, 0.1):
        tracemalloc.start()
        try:
            optimizer._coarse_scan(kind, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, step


@pytest.mark.parametrize("kind,e", [("C", 4.0), ("QM", 2.8284271247461903)])
def test_quarter_degree_search_pinned(kind, e):
    res = maximize_chsh(kind, SearchOptions(coarse_deg=0.25))
    assert (res.E, res.angles_deg, res.evaluations) == (e, (0.0, 90.0, 225.0, 135.0), 2985984126)


@pytest.mark.xfail(strict=True, reason="the 90-degree grid's first tied maximum is the "
                                       "all-equal configuration, which one-angle moves never improve")
def test_ninety_degree_grid_reaches_tsirelson():
    res = maximize_chsh("A", SearchOptions(coarse_deg=90.0))
    assert res.E == pytest.approx(TSIRELSON, abs=1e-12)


# chsh --model <kind> --optimize --coarse-deg 1, as printed by the brute-force scan
OPTIMIZE_1DEG_STDOUT = """\
angles_deg: (0.0, 90.0, 225.0, 135.0)  evaluations: 46656138
a  = (+0.000000, +0.000000, +1.000000)
a' = (+1.000000, +0.000000, +0.000000)
b  = (-0.707107, +0.000000, -0.707107)
b' = (+0.707107, +0.000000, -0.707107)
E = {E}
bounds: Bell 2, Cirel'son 2*sqrt(2) ~ 2.8284271, algebraic 4
"""


@pytest.mark.parametrize("kind,e", [("A", "2.8284271247461903"), ("B1", "2.8284271247461903"),
                                    ("B2", "2.8284271247461903"), ("C", "4"),
                                    ("QM", "2.8284271247461903")])
def test_optimize_one_degree_stdout_pinned(capsys, kind, e):
    assert main(["chsh", "--model", kind, "--optimize", "--coarse-deg", "1"]) == EXIT_OK
    assert capsys.readouterr().out == OPTIMIZE_1DEG_STDOUT.format(E=e)
