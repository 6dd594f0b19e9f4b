import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singletsim import metrics
from singletsim.cli import _grid_candidate_pairs, _load_pairs_file
from singletsim.geometry import UnitVector, sign_array
from singletsim.metrics import (
    CHSH_LABELS,
    ChshConfig,
    chi_square_gof,
    chi_square_p,
    chsh,
    chsh_analytic,
    chsh_empirical,
    chsh_standard_error,
    correlator,
    free_will_M,
    normalization_check,
    sign_moment2,
    two_sample_chi_square,
)
from singletsim.models import SettingsPair, correlator_law, hall_g_array, joint_analytic
from singletsim.optimizer import config_from_angles
from singletsim.protocol import CountTable

Z = UnitVector(0.0, 0.0, 1.0)


def planar(deg):
    th = math.radians(deg)
    return UnitVector.normalized(math.sin(th), 0.0, math.cos(th))


def pair(deg):
    return SettingsPair(Z, planar(deg))


def table(counts, deg=60.0, model="A"):
    return CountTable("t", model, pair(deg), dict(counts))


def test_correlator_examples():
    t = table({(1, 1): 0, (1, -1): 500_000, (-1, 1): 500_000, (-1, -1): 0})
    assert correlator(t) == -1.0
    t = table({(1, 1): 250, (1, -1): 250, (-1, 1): 250, (-1, -1): 250})
    assert correlator(t) == 0.0
    with pytest.raises(ValueError):
        correlator(table({(1, 1): 0, (1, -1): 0, (-1, 1): 0, (-1, -1): 0}))


def test_analytic_correlator():
    def analytic_correlator(kind, s):
        return correlator_law(kind, s.cos_angle())

    assert analytic_correlator("A", pair(60.0)) == pytest.approx(-0.5)
    assert analytic_correlator("QM", pair(180.0)) == pytest.approx(1.0)
    assert analytic_correlator("C", pair(60.0)) == pytest.approx(-1.0)
    assert analytic_correlator("C", pair(120.0)) == pytest.approx(1.0)


def qm_config():
    # the standard maximal-violation geometry: a=0, a'=90, b=225, b'=135 deg
    return ChshConfig(planar(0.0), planar(90.0), planar(225.0), planar(135.0))


def test_chsh_analytic_tsirelson():
    res = chsh_analytic("QM", qm_config())
    assert res.E == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_chsh_analytic_model_c_reaches_four():
    cfg = ChshConfig(planar(0.0), planar(270.0), planar(135.0), planar(225.0))
    res = chsh_analytic("C", cfg)
    assert res.E == pytest.approx(4.0)
    signs = [res.correlators[lab] for lab in CHSH_LABELS]
    assert signs == [1.0, 1.0, 1.0, -1.0]


def test_chsh_from_tables():
    # identical perfectly-correlated tables: each C = 1, E = |1+1+1-1| = 2
    t = table({(1, 1): 500, (1, -1): 0, (-1, 1): 0, (-1, -1): 500})
    res = chsh({lab: t for lab in CHSH_LABELS})
    assert res.E == pytest.approx(2.0)
    with pytest.raises(ValueError):
        chsh({"ab": t})


def test_chsh_recomputable_from_correlators():
    res = chsh_analytic("QM", qm_config())
    c = res.correlators
    again = abs(c["ab"] + c["a'b"] + c["ab'"] - c["a'b'"])
    assert abs(again - res.E) < 1e-12


def test_chsh_standard_error_matches_spread_over_seeds():
    # four independent correlators of N trials each: SE(E) should be the
    # spread of E from seed to seed; 200 seeds estimate it to about 5%
    trials = 4000
    es, ses = [], []
    for seed in range(200):
        res = chsh_empirical("QM", qm_config(), trials, seed)
        es.append(res.E)
        ses.append(chsh_standard_error(res.correlators, trials))
    assert float(np.mean(ses)) == pytest.approx(float(np.std(es, ddof=1)), rel=0.10)


def cell_mass2(signs, m1, m2):
    """Mass of the sign cell (sgn(u.m1), sgn(u.m2)) for u uniform on S2."""
    return 0.25 * (1.0 + signs[0] * signs[1] * sign_moment2(m1, m2))


def test_sign_region_quadrature_areas():
    # oracle: each hemisphere of a single great circle has area 2 pi; a normal
    # paired with itself leaves only the cells (+,+) and (-,-)
    m = planar(33.0).as_array()
    assert sign_moment2(m, m) == 1.0
    up = 4.0 * math.pi * cell_mass2((1, 1), m, m)
    assert up == pytest.approx(2.0 * math.pi, abs=1e-12)
    total = sum(4.0 * math.pi * cell_mass2(sg, m, m)
                for sg in ((1, 1), (1, -1), (-1, 1), (-1, -1)))
    assert total == pytest.approx(4.0 * math.pi, abs=1e-12)


def test_sign_region_quadrature_lune():
    # oracle: the lune where sgn(u.m1) = sgn(u.m2) = +1 has area 2(pi - gamma)
    # for gamma the angle between the normals
    for deg in (30.0, 60.0, 90.0, 144.0):
        gamma = math.radians(deg)
        m1 = Z.as_array()
        m2 = planar(deg).as_array()
        area = 4.0 * math.pi * cell_mass2((1, 1), m1, m2)
        assert area == pytest.approx(2.0 * (math.pi - gamma), abs=1e-12)


def test_sign_moment2_antipodal_normals():
    # near-antipodal normals: the angle must keep full precision there
    m = planar(33.0).as_array()
    assert sign_moment2(m, -m) == -1.0
    for eps in (1e-6, 1e-9):
        m2 = planar(213.0 + math.degrees(eps)).as_array()
        assert sign_moment2(m, m2) == pytest.approx(-1.0 + 2.0 * eps / math.pi, abs=1e-15)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def sign_moment4(m1, m2, m3, m4):
    """E[s1 s2 s3 s4] for s_i = sgn(u.m_i), u uniform on S2, from the stacked
    metrics._sign_moments4: a float for four (3,) normals, an (n,) array for
    four (n, 3) stacks of them."""
    e4 = metrics._sign_moments4(np.stack([np.asarray(x, dtype=float) for x in (m1, m2, m3, m4)],
                                         axis=-2))[1]
    return float(e4) if np.ndim(e4) == 0 else e4


def test_sign_moment4_exact_reductions():
    a, b, c = unit([0.3, 0.2, 0.9]), unit([-0.5, 0.1, 0.3]), unit([0.2, -0.7, 0.1])
    # a shared vector cancels: s_a s_b s_a s_c = s_b s_c
    assert sign_moment4(a, b, a, c) == pytest.approx(sign_moment2(b, c), abs=1e-12)
    # an antipodal pair cancels with a sign: s_a s_b s_{-a} s_c = -s_b s_c
    assert sign_moment4(a, b, -a, c) == pytest.approx(-sign_moment2(b, c), abs=1e-12)
    assert sign_moment4(a, b, a, b) == pytest.approx(1.0, abs=1e-12)
    # identical settings pairs have identical Hall densities
    s = SettingsPair(UnitVector(*a), UnitVector(*b))
    m, _ = free_will_M("B1", [(s, s)])
    assert m == pytest.approx(0.0, abs=1e-12)


def test_sign_moment4_monte_carlo():
    normals = [unit([0.3, 0.2, 0.9]), unit([-0.5, 0.1, 0.3]),
               unit([0.2, -0.7, 0.1]), unit([0.6, 0.5, -0.4])]
    e4 = sign_moment4(*normals)
    rng = np.random.default_rng(11)
    n, block = 4_000_000, 1_000_000
    acc = 0
    for _ in range(n // block):
        u = rng.normal(size=(block, 3))
        acc += int(np.prod(np.where(u @ np.array(normals).T >= 0.0, 1, -1), axis=1).sum())
    sigma = math.sqrt((1.0 - e4 * e4) / n)
    assert abs(acc / n - e4) <= 5.0 * sigma


SIGN_CELLS4 = [
    (s1, s2, s3, s4) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1) for s4 in (1, -1)
]

normal_vectors = st.lists(
    st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3
).filter(lambda v: math.hypot(*v) >= 1e-3).map(unit)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(normal_vectors, min_size=4, max_size=4), st.permutations(range(4)),
       st.integers(0, 3))
def test_sign_moment4_cell_masses(normals, perm, flip):
    e2 = {(i, j): sign_moment2(normals[i], normals[j])
          for i in range(4) for j in range(i + 1, 4)}
    e4 = sign_moment4(*normals)
    masses = [
        (1.0 + sum(sg[i] * sg[j] * e for (i, j), e in e2.items())
         + sg[0] * sg[1] * sg[2] * sg[3] * e4) / 16.0
        for sg in SIGN_CELLS4
    ]
    assert min(masses) >= -1e-12
    assert sum(masses) == pytest.approx(1.0, abs=1e-12)
    assert sign_moment4(*[normals[k] for k in perm]) == pytest.approx(e4, abs=1e-12)
    flipped = [-m if k == flip else m for k, m in enumerate(normals)]
    assert sign_moment4(*flipped) == pytest.approx(-e4, abs=1e-12)


def test_normalization_quadrature():
    for deg in (1.0, 60.0, 90.0, 179.0):
        val, err = normalization_check(pair(deg), method="quadrature")
        assert abs(val - 1.0) < 1e-12
    with pytest.raises(ValueError):
        normalization_check(pair(60.0), method="bogus")


def test_normalization_monte_carlo():
    rng = np.random.default_rng(2)
    val, err = normalization_check(
        pair(60.0), method="monte_carlo", mc_samples=1_000_000, rng=rng
    )
    assert abs(val - 1.0) < 1e-3
    assert err < 1e-3


def joint_from_hall_density(sigma: int, tau: int, s: SettingsPair) -> float:
    """P(sigma, tau) obtained by integrating the deterministic responses
    sigma = sgn(u.n_L), tau = sgn(-u.n_R) against the Hall density; should
    reproduce the singlet law."""
    e = sign_moment2(s.n_L.as_array(), s.n_R.as_array())
    return math.pi * (1.0 - sigma * tau * e) * float(hall_g_array(sigma * tau * s.cos_angle()))


def test_joint_from_hall_density_matches_singlet_law():
    for deg in (20.0, 60.0, 90.0, 150.0):
        s = pair(deg)
        for sg in (1, -1):
            for tu in (1, -1):
                got = joint_from_hall_density(sg, tu, s)
                assert got == pytest.approx(joint_analytic("B1", sg, tu, s), abs=1e-12)


def test_free_will_M_atomic_values():
    # fully disjoint atoms: M = 2
    generic = (
        SettingsPair(planar(20.0), planar(60.0)),
        SettingsPair(planar(100.0), planar(150.0)),
    )
    m, _ = free_will_M("A", [generic])
    assert m == pytest.approx(2.0, abs=1e-12)
    # identical pairs: M = 0
    m, _ = free_will_M("A", [(pair(60.0), pair(60.0))])
    assert m == pytest.approx(0.0, abs=1e-12)
    # shared left setting (both pairs contain +-n_L = +-z): M = 1
    m, _ = free_will_M("C", [(pair(60.0), pair(10.0))])
    assert m == pytest.approx(1.0, abs=1e-12)


def test_free_will_M_picks_best_candidate():
    cands = [
        (pair(60.0), pair(60.0)),
        (
            SettingsPair(planar(20.0), planar(60.0)),
            SettingsPair(planar(100.0), planar(150.0)),
        ),
    ]
    m, idx = free_will_M("A", cands)
    assert (m, idx) == (2.0, 1)


def test_free_will_M_first_of_tied_candidates():
    # grid-8 candidates 10 and 13 reach the same M up to rounding; the index
    # must not depend on which of them the rounding favours
    cands = _grid_candidate_pairs(8)
    c10, c13 = cands[10], cands[13]
    m10, _ = free_will_M("B1", [c10])
    m13, _ = free_will_M("B1", [c13])
    assert m10 != m13 and abs(m10 - m13) <= 1e-15
    for order in ([c10, c13], [c13, c10]):
        m, idx = free_will_M("B1", order)
        assert (m, idx) == (max(m10, m13), 0)


def test_free_will_M_symmetric():
    a, b = pair(60.0), pair(110.0)
    m1, _ = free_will_M("B1", [(a, b)])
    m2, _ = free_will_M("B1", [(b, a)])
    assert m1 == pytest.approx(m2, abs=1e-12)


def test_free_will_M_hall_realizations_agree():
    a, b = pair(45.0), pair(135.0)
    m1, _ = free_will_M("B1", [(a, b)])
    m2, _ = free_will_M("B2", [(a, b)])
    assert m1 == pytest.approx(m2, abs=1e-10)
    assert 0.0 < m1 < 2.0


def test_free_will_M_rejects_bad_input():
    with pytest.raises(ValueError):
        free_will_M("QM", [(pair(0.0), pair(1.0))])
    with pytest.raises(ValueError):
        free_will_M("A", [])


def test_free_will_M_rejects_an_unknown_model():
    with pytest.raises(ValueError, match="^unknown model kind: 'Z'$"):
        free_will_M("Z", [(pair(0.0), pair(1.0))])


# ---------------------------------------------------------------------------
# the relaxed CHSH bound: with D(rho_p, rho_r) the L1 distance between the
# spin densities of settings pairs p and r, and S_r the CHSH sum of the same
# local mean responses under the one density rho_r (|S_r| <= 2, Bell),
# E = S_r + sum_{p != r} s_p int A_p B_p (rho_p - rho_r), and each term is at
# most D(rho_p, rho_r), so E <= 2 + min_r sum_{p != r} D(rho_p, rho_r)

TSIRELSON_ANGLES = (0.0, 90.0, 225.0, 135.0)


def relaxed_chsh_bound(kind, configs):
    """2 + min_r sum_{p != r} D(rho_p, rho_r) of each CHSH configuration,
    with every D from the stacked scorer that free_will_M uses for ``kind``."""
    score = (metrics._total_variation_atomic if kind in ("A", "C")
             else metrics._total_variation_hall)
    couples = [(p, r) for p in range(4) for r in range(p + 1, 4)]
    cands = []
    for cfg in configs:
        pairs = [cfg.pairs()[lab] for lab in CHSH_LABELS]
        cands += [(pairs[p], pairs[r]) for p, r in couples]
    d = np.reshape(score(cands), (len(configs), len(couples)))
    dist = np.zeros((len(configs), 4, 4))
    for j, (p, r) in enumerate(couples):
        dist[:, p, r] = dist[:, r, p] = d[:, j]
    return 2.0 + dist.sum(axis=2).min(axis=1)


def random_chsh_configs(rng, n):
    """n CHSH configurations: the first half coplanar at uniform angles, the
    rest with four settings uniform on the sphere."""
    half = n // 2
    coplanar = [config_from_angles(*rng.uniform(0.0, 360.0, 4).tolist()) for _ in range(half)]
    spread = [ChshConfig(*(UnitVector.normalized(*v) for v in c.tolist()))
              for c in rng.normal(size=(n - half, 4, 3))]
    return coplanar + spread


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "C"])
def test_chsh_within_relaxed_bound(kind):
    configs = random_chsh_configs(np.random.default_rng(1), 3000)
    e = np.array([chsh_analytic(kind, cfg).E for cfg in configs])
    excess = e - relaxed_chsh_bound(kind, configs)
    assert excess.max() <= 1e-12, configs[int(excess.argmax())]


@pytest.mark.parametrize("kind", ["B1", "B2"])
def test_hall_meets_relaxed_bound_at_tsirelson(kind):
    cfg = config_from_angles(*TSIRELSON_ANGLES)
    e = chsh_analytic(kind, cfg).E
    assert e == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert relaxed_chsh_bound(kind, [cfg])[0] == pytest.approx(e, abs=1e-12)


@pytest.mark.parametrize("name, scale", [("hall_g_array", 0.9), ("correlator_law", 1.01)])
def test_relaxed_bound_breaks_under_a_scaled_law(monkeypatch, name, scale):
    # negative controls: a Hall amplitude scaled down lowers every D, and a
    # correlator law scaled up raises E; either must break the bound
    law = getattr(metrics, name)
    monkeypatch.setattr(metrics, name, lambda *a: scale * law(*a))
    cfg = config_from_angles(*TSIRELSON_ANGLES)
    for kind in ("B1", "B2"):
        assert chsh_analytic(kind, cfg).E > relaxed_chsh_bound(kind, [cfg])[0] + 0.01


# the per-candidate Hall scoring that free_will_M's stacked pass replaced,
# kept as the oracle that every stacked value must equal bit for bit

def oracle_sign_moment2(m1, m2) -> float:
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    gamma = math.atan2(float(np.linalg.norm(np.cross(m1, m2))), float(m1 @ m2))
    return 1.0 - 2.0 * gamma / math.pi


def oracle_sign_moment4(m1, m2, m3, m4) -> float:
    m = np.array([m1, m2, m3, m4], dtype=float)
    lam = np.linalg.svd(m.T)[2][-1]
    sig = sign_array(lam)
    acc = 1.0
    for i in range(4):
        for j in range(i + 1, 4):
            acc += sig[i] * sig[j] * oracle_sign_moment2(m[i], m[j])
    return -float(np.prod(sig)) * acc


def oracle_total_variation_hall(s: SettingsPair, s2: SettingsPair) -> float:
    normals = [s.n_L.as_array(), s.n_R.as_array(), s2.n_L.as_array(), s2.n_R.as_array()]
    c1, c2 = s.cos_angle(), s2.cos_angle()
    e1 = oracle_sign_moment2(normals[0], normals[1])
    e2 = oracle_sign_moment2(normals[2], normals[3])
    e4 = oracle_sign_moment4(*normals)
    g = hall_g_array([-c1, c1, -c2, c2]).tolist()
    g1, g2 = {1: g[0], -1: g[1]}, {1: g[2], -1: g[3]}
    return sum(
        math.pi * (1.0 + p1 * e1 + p2 * e2 + p1 * p2 * e4) * abs(g1[p1] - g2[p2])
        for p1 in (1, -1)
        for p2 in (1, -1)
    )


def assert_hall_scores_equal_oracle(cands):
    want = [oracle_total_variation_hall(s, s2) for s, s2 in cands]
    assert metrics._total_variation_hall(cands) == want
    best = max(want)
    best_i = next(i for i, m in enumerate(want) if m >= best - metrics._TIE_TOL)
    for kind in ("B1", "B2"):
        assert free_will_M(kind, cands) == (min(2.0, max(0.0, best)), best_i)


def random_candidates(rng, n):
    """n candidates of four random unit normals each.  Of every four, the
    first stays generic, the second shares a normal between its two pairs,
    the third repeats its first pair, and the fourth's n_R is antipodal to
    the first pair's."""
    v = rng.normal(size=(n, 4, 3))
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    v[1::4, 2] = v[1::4, 0]
    v[2::4, 2:] = v[2::4, :2]
    v[3::4, 3] = -v[3::4, 1]
    units = [[UnitVector(*map(float, r)) for r in c] for c in v]
    return [(SettingsPair(u[0], u[1]), SettingsPair(u[2], u[3])) for u in units]


def test_free_will_M_stacked_equals_per_candidate_on_grids():
    for k in range(2, 41):
        assert_hall_scores_equal_oracle(_grid_candidate_pairs(k))


def test_free_will_M_stacked_equals_per_candidate_on_random_normals():
    cands = random_candidates(np.random.default_rng(22), 5000)
    assert_hall_scores_equal_oracle(cands)
    assert_hall_scores_equal_oracle(cands[:1])
    normals = np.array([[v.as_array() for s in c for v in (s.n_L, s.n_R)] for c in cands])
    m = normals.transpose(1, 0, 2)
    assert sign_moment2(m[0], m[1]).tolist() == [oracle_sign_moment2(a, b)
                                                 for a, b in zip(m[0], m[1])]
    assert sign_moment4(*m).tolist() == [oracle_sign_moment4(*n) for n in normals]
    # one row stays the scalar API
    assert type(sign_moment2(m[0][0], m[1][0])) is float
    assert type(sign_moment4(*normals[0])) is float


def test_free_will_M_stacked_equals_per_candidate_on_a_pairs_file(tmp_path):
    # the non-unit vectors of the CLI's non-coplanar --pairs test
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps([
        [{"n_L": [0.3, 0.2, 0.9], "n_R": [-0.5, 0.1, 0.3]},
         {"n_L": [0.2, -0.7, 0.1], "n_R": [0.6, 0.5, -0.4]}],
    ]))
    assert_hall_scores_equal_oracle(_load_pairs_file(path))


def test_free_will_M_scores_hall_candidates_in_one_pass(monkeypatch):
    calls = {"hall_g_array": 0, "svd": 0, "cross": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(metrics, "hall_g_array", counted("hall_g_array", metrics.hall_g_array))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np, "cross", counted("cross", np.cross))
    cands = _grid_candidate_pairs(8)
    assert len(cands) == 220
    free_will_M("B1", cands)
    # one cross product per pair of the four normals, whatever the count
    assert calls == {"hall_g_array": 1, "svd": 1, "cross": 6}


# the per-candidate atom merge that free_will_M's stacked pass replaced for A
# and C, kept as the oracle that every stacked value must equal

def oracle_total_variation_atomic(s: SettingsPair, s2: SettingsPair) -> float:
    merged = []  # [direction, signed weight]
    for p, w in ((s, 0.25), (s2, -0.25)):
        n_R, n_L = p.n_R.as_array(), p.n_L.as_array()
        for v in (n_R, -n_R, n_L, -n_L):
            for entry in merged:
                if np.max(np.abs(entry[0] - v)) <= metrics._ATOM_MERGE_TOL:
                    entry[1] += w
                    break
            else:
                merged.append([v, w])
    return sum(abs(w) for _, w in merged)


def assert_atomic_scores_equal_oracle(cands):
    want = [oracle_total_variation_atomic(s, s2) for s, s2 in cands]
    assert metrics._total_variation_atomic(cands) == want
    best = max(want)
    best_i = next(i for i, m in enumerate(want) if m >= best - metrics._TIE_TOL)
    for kind in ("A", "C"):
        assert free_will_M(kind, cands) == (min(2.0, max(0.0, best)), best_i)


def test_free_will_M_atomic_stacked_equals_per_candidate():
    for k in range(2, 41):
        assert_atomic_scores_equal_oracle(_grid_candidate_pairs(k))
    cands = random_candidates(np.random.default_rng(22), 5000)
    assert_atomic_scores_equal_oracle(cands)
    assert_atomic_scores_equal_oracle(cands[:1])


def test_free_will_M_atomic_merges_a_near_chain_as_the_loop_does():
    # three directions 0.8e-9 apart: the middle one lies within the merge
    # tolerance of both ends, the ends do not.  Each atom joins the first
    # group leader within reach, so the middle one joins the first end and
    # the far end leads a group of its own: M = 1
    d = [UnitVector(1.0, i * 0.8e-9, 0.0) for i in range(3)]
    # and two n_R exactly the tolerance apart, which merge: M = 0
    e = UnitVector(1.0, metrics._ATOM_MERGE_TOL, 0.0)
    cands = [(SettingsPair(d[1], d[0]), SettingsPair(d[2], d[1])),
             (SettingsPair(Z, d[0]), SettingsPair(Z, e))]
    assert metrics._total_variation_atomic(cands) == [1.0, 0.0]
    assert_atomic_scores_equal_oracle(cands)


def test_chi_square_p_values():
    assert chi_square_p(0.0, 3) == pytest.approx(1.0)
    # oracle: chi2 survival at dof=2 is exp(-x/2)
    for x in (0.5, 2.0, 10.0):
        assert chi_square_p(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-12)
    # closed forms: e^-x at dof 2 and erfc(sqrt x) at dof 1, x = stat/2
    for stat in (1e-9, 0.3, 1.0, 7.5, 60.0, 900.0):
        x = stat / 2.0
        assert chi_square_p(stat, 2) == pytest.approx(math.exp(-x), rel=1e-14)
        assert chi_square_p(stat, 1) == pytest.approx(math.erfc(math.sqrt(x)), rel=1e-14)
    for dof in (1, 2, 3, 12, 63):
        assert chi_square_p(0.0, dof) == 1.0
        assert chi_square_p(1e-300, dof) <= 1.0
        assert chi_square_p(math.inf, dof) == 0.0
        # NaN stays NaN, so no p > threshold test passes on it
        assert math.isnan(chi_square_p(math.nan, dof))
    assert chi_square_p(5.0, 0) == 1.0


def test_chi_square_p_matches_scipy_gammaincc():
    # SciPy is the oracle only: the package computes the finite series
    from scipy.special import gammaincc

    stats = np.concatenate([np.geomspace(1e-12, 5000.0, 1500), np.linspace(0.0, 5000.0, 1001)[1:]])
    for dof in range(1, 64):
        want = gammaincc(dof / 2.0, stats / 2.0)
        for stat, q in zip(stats.tolist(), want.tolist()):
            p = chi_square_p(stat, dof)
            if q >= 1e-290:
                assert abs(p - q) <= 1e-12 * q, (dof, stat, p, q)
            elif q < sys.float_info.min:
                # SciPy gives 0 or a subnormal there; the series gives 0
                assert p == 0.0, (dof, stat, p, q)


def test_chi_square_gof_exact_proportions():
    n = 800_000
    s = pair(60.0)
    counts = {
        (sg, tu): int(round(n * joint_analytic("A", sg, tu, s)))
        for sg in (1, -1) for tu in (1, -1)
    }
    stat, p, dof = chi_square_gof(table(counts), "A")
    assert stat == pytest.approx(0.0, abs=1e-9)
    assert p == pytest.approx(1.0)
    assert dof == 3


def test_chi_square_gof_forbidden_cell():
    # model C at 60 deg forbids like-sign outcomes; one count there is fatal
    counts = {(1, 1): 1, (1, -1): 500, (-1, 1): 499, (-1, -1): 0}
    stat, p, dof = chi_square_gof(table(counts, model="C"), "C")
    assert p == 0.0
    assert math.isinf(stat)


def test_chi_square_gof_needs_enough_trials():
    with pytest.raises(ValueError):
        chi_square_gof(table({(1, 1): 10, (1, -1): 10, (-1, 1): 10, (-1, -1): 10}), "A")


def test_chi_square_gof_refuses_a_table_of_another_model():
    counts = {(1, 1): 100, (1, -1): 100, (-1, 1): 100, (-1, -1): 100}
    with pytest.raises(ValueError, match="^a model A table scored as model QM$"):
        chi_square_gof(table(counts), "QM")


def test_two_sample_chi_square():
    rng = np.random.default_rng(1)
    c1 = rng.multinomial(100_000, [0.25] * 4)
    c2 = rng.multinomial(100_000, [0.25] * 4)
    stat, p, dof = two_sample_chi_square(c1, c2)
    assert dof == 3
    assert p > 1e-3
    # grossly different proportions must be rejected
    stat, p, dof = two_sample_chi_square([100, 100, 100, 100], [400, 10, 10, 10])
    assert p < 1e-6
    with pytest.raises(ValueError):
        two_sample_chi_square([1, 2], [1, 2, 3])


def test_two_sample_drops_jointly_empty_bins():
    stat, p, dof = two_sample_chi_square([50, 50, 0], [55, 45, 0])
    assert dof == 1
    assert p > 1e-3
