import math

import numpy as np
import pytest

from singletsim import models, protocol
from singletsim.geometry import UnitVector, rowdot, sample_uniform_sphere_array, sign_array
from singletsim.metrics import free_will_M, two_sample_chi_square
from singletsim.models import (
    MODEL_KINDS,
    SettingsPair,
    correlator_law,
    hall_f_array,
    hall_g_array,
    joint_analytic,
    lune_outcomes,
    rejection_bound,
    sample_hidden_B1_array,
    sample_settings_B2_array,
    settings_overlap,
)
from singletsim.protocol import (
    ExperimentConfig,
    chunk_passes,
    run_chunk,
    run_experiment,
)

Z = UnitVector(0.0, 0.0, 1.0)
X = UnitVector(1.0, 0.0, 0.0)


def planar(deg):
    th = math.radians(deg)
    return UnitVector.normalized(math.sin(th), 0.0, math.cos(th))


def pair(deg):
    return SettingsPair(Z, planar(deg))


def hall_g_oracle(f):
    """(1 - f) / (8 arccos f) in scalar arithmetic, with the limits g(1) = 0
    and g(-1) = 1/(4 pi)."""
    if f >= 1.0:
        return 0.0
    if f <= -1.0:
        return 1.0 / (4.0 * math.pi)
    return (1.0 - f) / (8.0 * math.acos(f))


def arrays(s):
    return s.n_L.as_array(), s.n_R.as_array()


def chunk(kind, s, trials=100_000, seed=17):
    """The outcomes (sigma, tau) and the spins of one chunk of the trial
    kernel at fixed settings s."""
    cfg = ExperimentConfig(trials=trials, seed=seed, settings_pairs=[("p", s)])
    _, sigma, tau, _, spin = chunk_passes(kind, cfg, 0, 0)
    return sigma, tau, spin


def test_hidden_state_antialignment():
    # the right ball always spins exactly against the left one
    cfg = ExperimentConfig(trials=50, seed=3, settings_pairs=[("p", pair(37.0))],
                           log_events=True)
    _, log = run_experiment("B1", cfg)
    spins = {}
    for m in map(protocol._message, log):
        if m["kind"] == "ball":
            spins.setdefault(m["payload"]["trial_id"], []).append(np.array(m["payload"]["spin"]))
    assert len(spins) == 50
    for u, v in spins.values():
        assert u @ v == pytest.approx(-1.0, abs=1e-12)
        assert np.array_equal(v, -u)


def test_response_linear_examples():
    # model A responds with P(+1) = (1 + n.u)/2: at theta = 0 the spin is
    # aligned or anti-aligned with both bats, so outcomes are certain; at
    # theta = 90 the atoms +-n_R are orthogonal to n_L, a fair coin on the left
    sigma, tau, spin = chunk("A", SettingsPair(Z, Z))
    assert np.array_equal(sigma, np.where(spin[:, 2] > 0.0, 1, -1))
    assert np.array_equal(tau, -sigma)
    sigma, tau, spin = chunk("A", SettingsPair(Z, X))
    on_r = np.abs(spin[:, 0]) == 1.0
    assert abs(np.mean(sigma[on_r])) < 0.015
    assert np.array_equal(sigma[~on_r], np.where(spin[~on_r, 2] > 0.0, 1, -1))


def test_response_deterministic_convention():
    # model C answers sign(u.n); at theta = 90 the atoms +-n_R lie on the left
    # bat's boundary u.n_L = 0, which resolves to +1
    sigma, tau, spin = chunk("C", SettingsPair(Z, X))
    on_r = np.abs(spin[:, 0]) == 1.0
    assert on_r.any()
    assert np.all(sigma[on_r] == 1)
    assert np.array_equal(sigma[~on_r], np.where(spin[~on_r, 2] > 0.0, 1, -1))
    assert np.array_equal(tau, np.where(-spin[:, 0] >= 0.0, 1, -1))


def test_sample_hidden_A_atoms():
    # every spin of models A and C is exactly one of the atoms +-n_L, +-n_R
    s = pair(60.0)
    atoms = [d * v for v in arrays(s) for d in (1.0, -1.0)]
    for kind in ("A", "C"):
        spin = chunk(kind, s)[2]
        hit = [np.all(spin == a, axis=1) for a in atoms]
        assert np.all(np.sum(hit, axis=0) == 1)


def test_sample_hidden_A_atom_frequencies():
    # fair coins put weight 1/4 on each atom
    s = pair(60.0)
    n = 1_000_000
    cfg = ExperimentConfig(trials=n, seed=17, settings_pairs=[("p", s)])
    hits = np.zeros(4)
    for ci in range(cfg.chunks()):
        spin = chunk_passes("A", cfg, 0, ci)[4]
        hits += [np.sum(np.all(spin == d * v, axis=1)) for v in arrays(s) for d in (1.0, -1.0)]
    assert hits.sum() == n
    assert np.max(np.abs(hits / n - 0.25)) < 0.002


def test_hall_f_examples():
    s = pair(120.0)  # c = -0.5
    assert hall_f_array(s.n_L.as_array(), *arrays(s)) == pytest.approx(-0.5, abs=1e-12)
    s = pair(90.0)
    assert hall_f_array(s.n_L.as_array(), *arrays(s)) == pytest.approx(0.0, abs=1e-12)
    s = SettingsPair(Z, Z)  # c = 1, u = n_L = n_R
    assert hall_f_array(Z.as_array(), *arrays(s)) == pytest.approx(-1.0, abs=1e-12)
    # row by row, with settings per row
    rng = np.random.default_rng(4)
    u, nl, nr = (sample_uniform_sphere_array(rng, 1000) for _ in range(3))
    f = hall_f_array(u, nl, nr)
    sgn = lambda x: 1 if x >= 0.0 else -1  # noqa: E731
    for i in range(0, 1000, 37):
        s = SettingsPair(UnitVector(*nl[i]), UnitVector(*nr[i]))
        expect = sgn(u[i] @ nl[i]) * sgn(-(u[i] @ nr[i])) * s.cos_angle()
        assert f[i] == pytest.approx(expect, abs=1e-12)


def test_hall_g_limits_and_values():
    four_pi = 4.0 * math.pi
    assert hall_g_array(0.0) == pytest.approx(1.0 / four_pi, abs=1e-15)
    assert hall_g_array(-1.0) == pytest.approx(1.0 / four_pi, abs=1e-15)
    assert hall_g_array(1.0) == 0.0
    # series oracle near f = 1: arccos(1 - eps) ~ sqrt(2 eps), so
    # g(1 - eps) ~ sqrt(eps) / (8 sqrt(2))
    eps = 1e-6
    expected = math.sqrt(eps) / (8.0 * math.sqrt(2.0))
    assert hall_g_array(1.0 - eps) == pytest.approx(expected, rel=1e-3)


def test_hall_g_array_matches_scalar():
    f = np.array([-1.0, -0.5, 0.0, 0.5, 1.0 - 1e-9, 1.0])
    assert np.allclose(hall_g_array(f), [hall_g_oracle(x) for x in f], atol=1e-15)


def test_hall_density_reports_f():
    s = pair(120.0)
    f = hall_f_array(s.n_L.as_array(), *arrays(s))
    assert f == pytest.approx(-0.5, abs=1e-12)
    assert hall_g_array(f) == pytest.approx(hall_g_oracle(-0.5), abs=1e-15)


def test_rejection_bound_dominates_density():
    bound = rejection_bound()
    grid = np.linspace(-1.0, 1.0, 100_001)
    gmax = float(hall_g_array(grid).max())
    assert bound >= gmax
    assert bound <= 1.02 * gmax


def test_b1_region_masses_match_singlet_law():
    # oracle: with deterministic responses the Hall density puts mass
    # (1 - sigma tau c) / 4 on each sign cell
    rng = np.random.default_rng(123)
    n = 200_000
    for deg in (60.0, 90.0, 137.0):
        s = pair(deg)
        c = s.cos_angle()
        u = sample_hidden_B1_array(arrays(s), rng, n)
        sig = np.where(u @ s.n_L.as_array() >= 0.0, 1, -1)
        tau = np.where(-(u @ s.n_R.as_array()) >= 0.0, 1, -1)
        for so in (1, -1):
            for to in (1, -1):
                freq = np.mean((sig == so) & (tau == to))
                assert abs(freq - 0.25 * (1.0 - so * to * c)) < 0.004


def test_b1_samples_follow_density_ratio():
    # the density is constant on sign cells, so cell masses relate as
    # g(f_cell) * area(cell); at c = 0.5 the like-sign cells carry f = +0.5
    rng = np.random.default_rng(9)
    s = pair(60.0)
    u = sample_hidden_B1_array(arrays(s), rng, 100_000)
    f = (
        np.where(u @ s.n_L.as_array() >= 0.0, 1, -1)
        * np.where(-(u @ s.n_R.as_array()) >= 0.0, 1, -1)
        * s.cos_angle()
    )
    vals = np.unique(np.round(f, 12))
    assert set(vals) == {-0.5, 0.5}


def test_b2_outcome_marginals_are_fair():
    # the spin-conditioned settings law is even under n -> -n on each side,
    # so each station's deterministic outcome is a fair coin
    rng = np.random.default_rng(31)
    u = planar(23.0)
    nl, nr = sample_settings_B2_array(u.as_array(), rng, 200_000)
    sig = np.where(nl @ u.as_array() >= 0.0, 1, -1)
    tau = np.where(-(nr @ u.as_array()) >= 0.0, 1, -1)
    assert abs(np.mean(sig)) < 0.01
    assert abs(np.mean(tau)) < 0.01


def test_b2_joint_outcome_law_against_analytic():
    # conditioned on the sampled settings, the deterministic outcomes must
    # reproduce the singlet law on average: E[sigma tau] = -E[c], the mean
    # overlap of the settings drawn given the spin
    rng = np.random.default_rng(77)
    u = Z
    nl, nr = sample_settings_B2_array(u.as_array(), rng, 200_000)
    sig = np.where(nl @ u.as_array() >= 0.0, 1, -1)
    tau = np.where(-(nr @ u.as_array()) >= 0.0, 1, -1)
    c = np.einsum("ij,ij->i", nl, nr)
    assert np.mean(sig * tau) == pytest.approx(-np.mean(c), abs=0.01)


def rejection_B1(s, rng, n):
    """Oracle: n spins by per-row rejection against the uniform proposal,
    accepting u with probability hall_g(f(u)) / rejection_bound()."""
    n_L, n_R = s
    out = np.empty((n, 3))
    pending = np.arange(n)
    while pending.size:
        u = sample_uniform_sphere_array(rng, pending.size)
        f = hall_f_array(u, *(a if a.ndim == 1 else a[pending] for a in (n_L, n_R)))
        ok = rng.uniform(0.0, rejection_bound(), size=pending.size) < hall_g_array(f)
        out[pending[ok]] = u[ok]
        pending = pending[~ok]
    return out


def rejection_B2(u, rng, n):
    """Oracle: n settings pairs by per-row rejection against uniform
    independent proposals, with the same acceptance as rejection_B1."""
    n_L, n_R = np.empty((n, 3)), np.empty((n, 3))
    pending = np.arange(n)
    while pending.size:
        pl = sample_uniform_sphere_array(rng, pending.size)
        pr = sample_uniform_sphere_array(rng, pending.size)
        f = hall_f_array(u if u.ndim == 1 else u[pending], pl, pr)
        ok = rng.uniform(0.0, rejection_bound(), size=pending.size) < hall_g_array(f)
        n_L[pending[ok]], n_R[pending[ok]] = pl[ok], pr[ok]
        pending = pending[~ok]
    return n_L, n_R


def octant(v):
    return (v[:, 0] >= 0) * 4 + (v[:, 1] >= 0) * 2 + (v[:, 2] >= 0)


def outcome_cell(u, n_L, n_R):
    """(sigma, tau) of the deterministic responses as a bin index 0..3."""
    return 2 * (rowdot(u, n_L) < 0.0) + (-rowdot(u, n_R) < 0.0)


def assert_same_law(bins_a, bins_b, minlength):
    _, p, _ = two_sample_chi_square(np.bincount(bins_a, minlength=minlength),
                                    np.bincount(bins_b, minlength=minlength))
    assert p > 1e-3, p


SAME_LAW_N = 400_000
ANTIPARALLEL = SettingsPair(Z, UnitVector(0.0, 0.0, -1.0))


@pytest.mark.parametrize("s", [pair(d) for d in (0.0, 1.0, 60.0, 90.0, 179.0, 180.0)]
                         + [ANTIPARALLEL],
                         ids=["0", "1", "60", "90", "179", "180", "antiparallel"])
def test_b1_fixed_settings_match_rejection_oracle(s):
    # binned as criterion 8 does: the octant of u and (sigma, tau)
    s = arrays(s)
    u_exact = sample_hidden_B1_array(s, np.random.default_rng(41), SAME_LAW_N)
    u_oracle = rejection_B1(s, np.random.default_rng(42), SAME_LAW_N)
    assert_same_law(*(4 * octant(u) + outcome_cell(u, *s) for u in (u_exact, u_oracle)), 32)


def test_b1_per_row_settings_match_rejection_oracle():
    def bins(sampler, seed):
        rng = np.random.default_rng(seed)
        s = tuple(sample_uniform_sphere_array(rng, SAME_LAW_N) for _ in range(2))
        u = sampler(s, rng, SAME_LAW_N)
        return 4 * octant(u) + outcome_cell(u, *s)
    assert_same_law(bins(sample_hidden_B1_array, 43), bins(rejection_B1, 44), 32)


@pytest.mark.parametrize("per_row", [False, True], ids=["shared_spin", "per_row_spins"])
def test_b2_matches_rejection_oracle(per_row):
    # binned on the octants of n_L and n_R and (sigma, tau)
    def bins(sampler, seed):
        rng = np.random.default_rng(seed)
        u = sample_uniform_sphere_array(rng, SAME_LAW_N) if per_row else planar(23.0).as_array()
        n_L, n_R = sampler(u, rng, SAME_LAW_N)
        return 32 * octant(n_L) + 4 * octant(n_R) + outcome_cell(u, n_L, n_R)
    assert_same_law(bins(sample_settings_B2_array, 45), bins(rejection_B2, 46), 256)


def test_lune_outcomes_are_the_signs_of_the_lune_spins():
    # per-row settings mixing random rows with axis-aligned, parallel and
    # antiparallel ones, started at every position in Philox's four-word
    # buffer: lune_outcomes gives the signs of the spins that
    # sample_hidden_B1_array draws from the same words, and leaves the stream
    # where the spin's lune draws leave it (about 5.5e6 trials)
    rng = np.random.default_rng(8)
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    for i, n in enumerate([1, 2, 3, 5] + [(1 << 17) + 1] * 42):
        n_L, n_R = (sample_uniform_sphere_array(rng, n) for _ in range(2))
        kind = rng.integers(0, 4, size=n)
        on_axes = kind == 1
        n_L[on_axes] = axes[rng.integers(0, 6, size=on_axes.sum())]
        n_R[on_axes] = axes[rng.integers(0, 6, size=on_axes.sum())]
        n_R[kind == 2] = n_L[kind == 2]
        n_R[kind == 3] = -n_L[kind == 3]
        lune_rng, spin_rng = (np.random.Generator(np.random.Philox(100 + i)) for _ in range(2))
        for g in (lune_rng, spin_rng):
            g.bit_generator.random_raw(i % 4)
        sigma, tau = lune_outcomes(settings_overlap((n_L, n_R)), lune_rng, n)
        u = sample_hidden_B1_array((n_L, n_R), spin_rng, n)
        # oracle: the deterministic responses sgn(u.n_L) and sgn(-u.n_R)
        want_sigma, want_tau = sign_array(rowdot(u, n_L)), sign_array(-rowdot(u, n_R))
        assert sigma.dtype == tau.dtype == np.int8
        np.testing.assert_array_equal(sigma, want_sigma)
        np.testing.assert_array_equal(tau, want_tau)
        lune_rng.uniform(size=n)  # the heights, the sampler's last draws
        assert lune_rng.bit_generator.random_raw() == spin_rng.bit_generator.random_raw()


@pytest.mark.parametrize("prior", range(9))
def test_skip_words_leaves_the_stream_where_drawing_would(prior):
    # after 0-8 prior draws, so from every position in Philox's four-word
    # buffer, skipping n words and drawing them leave the same next words
    for n in [0, 1, 2, 3, 4, 5, 7, 8, 5000, 1 << 17, (1 << 17) + 3]:
        skipped, drawn = (np.random.Generator(np.random.Philox(prior * 100 + n)) for _ in range(2))
        for g in (skipped, drawn):
            g.bit_generator.random_raw(prior)
        assert models.skip_words(skipped, n) is skipped
        drawn.bit_generator.random_raw(n)
        np.testing.assert_array_equal(skipped.bit_generator.random_raw(9),
                                      drawn.bit_generator.random_raw(9))


def _whole_array_hidden_B1(s, rng, n):
    """Oracle: sample_hidden_B1_array as one whole-array formula."""
    n_L, n_R = (np.atleast_2d(np.asarray(x, dtype=float)) for x in s)
    phi, _ = models._lune_azimuth(settings_overlap((n_L, n_R)), rng, n)
    e2, e3 = models._plane_frame(n_L, n_R)
    h = rng.uniform(-1.0, 1.0, size=n)
    r = np.sqrt(1.0 - h * h)
    return models._combine((r * np.cos(phi), n_L), (r * np.sin(phi), e2), (h, e3))


@pytest.mark.parametrize("per_row", [False, True], ids=["shared_pair", "per_row_settings"])
def test_b1_row_blocks_match_the_whole_array_formula(per_row):
    # three full row blocks and a partial one, with parallel and antiparallel
    # rows among the per-row settings
    n = 3 * (1 << 14) + 7
    rng = np.random.default_rng(12)
    if per_row:
        n_L, n_R = (sample_uniform_sphere_array(rng, n) for _ in range(2))
        n_R[::5], n_R[1::5] = n_L[::5], -n_L[1::5]
        s = (n_L, n_R)
    else:
        s = (Z.as_array(), planar(37.0).as_array())
    got, want = (sample_hidden_B1_array(s, np.random.Generator(np.random.Philox(5)), n),
                 _whole_array_hidden_B1(s, np.random.Generator(np.random.Philox(5)), n))
    np.testing.assert_array_equal(got, want)


def assert_unit_rows(*arrays_):
    for a in arrays_:
        assert np.all(np.isfinite(a))
        assert np.max(np.abs(np.sqrt(rowdot(a, a)) - 1.0)) <= 1e-12


def test_b1_degenerate_settings_give_unit_spins():
    # exactly parallel or antiparallel settings have n_L x n_R = 0; shared,
    # and per row mixed with ordinary and nearly parallel rows
    rng = np.random.default_rng(5)
    v = sample_uniform_sphere_array(rng, 6)
    near = v[0] + 1e-9 * v[1]
    near /= np.linalg.norm(near)
    for n_L, n_R in ((v[0], v[0]), (v[0], -v[0]), (Z.as_array(), -Z.as_array())):
        assert_unit_rows(sample_hidden_B1_array((n_L, n_R), rng, 1000))
    n_L = np.stack([v[0], v[1], v[2], v[0], X.as_array()])
    n_R = np.stack([v[0], -v[1], v[3], near, -X.as_array()])
    assert_unit_rows(sample_hidden_B1_array((n_L, n_R), rng, 5))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_b2_spin_on_plane_normal_gives_unit_settings(monkeypatch, sign):
    # a spin equal to +-e3 has no projection on the settings plane
    rng = np.random.default_rng(6)
    v = sample_uniform_sphere_array(rng, 4)
    for u in (v[0], v):
        monkeypatch.setattr(models, "sample_uniform_sphere_array",
                            lambda rng, n, u=u: np.broadcast_to(sign * u, (n, 3)).copy())
        n_L, n_R = sample_settings_B2_array(u, rng, 4)
        assert_unit_rows(n_L, n_R)


def test_joint_analytic_examples():
    s = pair(60.0)
    for kind in ("A", "B1", "B2", "QM"):
        assert joint_analytic(kind, 1, 1, s) == pytest.approx(0.125)
        assert joint_analytic(kind, 1, -1, s) == pytest.approx(0.375)
    assert joint_analytic("C", 1, 1, s) == 0.0
    assert joint_analytic("C", 1, -1, s) == 0.5
    with pytest.raises(ValueError):
        joint_analytic("D", 1, 1, s)


def test_an_unknown_model_kind_has_one_refusal():
    # the kernel's chunks, the correlator law and M refuse it through
    # models.check_kind, with one text
    config = ExperimentConfig(trials=10, seed=0, watch_driven=True)
    for refuse in (lambda: models.check_kind("Z"),
                   lambda: correlator_law("Z", 0.5),
                   lambda: run_chunk("Z", config, 0, 0),
                   lambda: chunk_passes("Z", config, 0, 0),
                   lambda: free_will_M("Z", [(pair(0.0), pair(1.0))])):
        with pytest.raises(ValueError, match="^unknown model kind: 'Z'$"):
            refuse()
    for kind in MODEL_KINDS:
        assert models.check_kind(kind) is None


def test_correlator_law_matches_joint_analytic():
    degs = [0.0, 30.0, 45.0, 60.0, 90.0, 120.0, 137.0, 180.0]
    pairs = [pair(d) for d in degs]
    c = np.array([s.cos_angle() for s in pairs])
    for kind in MODEL_KINDS:
        law = correlator_law(kind, c)
        for s, ci, li in zip(pairs, c, law):
            assert correlator_law(kind, ci) == li  # elementwise
            for sg in (1, -1):
                for tu in (1, -1):
                    assert joint_analytic(kind, sg, tu, s) == 0.25 * (1.0 + sg * tu * li)
    assert list(correlator_law("QM", c)) == list(-c)
    assert list(correlator_law("C", c)) == [-1 if x >= 0.0 else 1 for x in c]


def test_correlator_law_sign_boundary_and_kinds():
    # sign(0) = +1 for either zero, so C at orthogonal settings is -1
    assert correlator_law("C", 0.0) == -1
    assert correlator_law("C", -0.0) == -1
    assert list(correlator_law("C", np.array([0.0, -0.0]))) == [-1, -1]
    with pytest.raises(ValueError):
        correlator_law("D", 0.5)


def test_joint_analytic_normalizes():
    s = pair(137.0)
    for kind in ("A", "C", "QM"):
        total = sum(
            joint_analytic(kind, so, to, s) for so in (1, -1) for to in (1, -1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)
