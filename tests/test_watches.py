import math
from fractions import Fraction

import numpy as np
import pytest

from singletsim import watches as wt
from singletsim.geometry import sphere_points
from singletsim.watches import (
    WatchBank,
    WatchSpec,
    batter_phases_array,
    batter_vectors_array,
    check_incommensurable,
    phases_overlap,
    read_phases_array,
    watch_vectors_array,
)


def cw(ts=60.0, tl=720.0, epoch=0.0):
    return WatchSpec(ts, tl, wt.CLOCKWISE, epoch)


def test_watchspec_validation():
    with pytest.raises(ValueError):
        WatchSpec(-1.0, 2.0)
    with pytest.raises(ValueError):
        WatchSpec(5.0, 5.0)
    with pytest.raises(ValueError):
        WatchSpec(1.0, 2.0, "widdershins")


def test_read_phases_at_epoch_and_quarter():
    w = cw()
    ps, pl = read_phases_array(w, [0.0, 15.0])
    assert (ps[0], pl[0]) == (0.0, 0.0)
    assert ps[1] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        read_phases_array(w, [0.0, math.inf])


def test_mirrored_phase_conservation():
    # each hand of the cw/ccw pair sums to 0 mod 1 at every instant
    rng = np.random.default_rng(11)
    w = cw(60.0 * math.sqrt(2.0), 720.0 * math.sqrt(3.0))
    t = rng.uniform(-1e6, 1e6, size=2000)
    for pa, pb in zip(read_phases_array(w, t), read_phases_array(w.mirrored(), t)):
        s = (pa + pb) % 1.0
        assert np.max(np.minimum(s, 1.0 - s)) < 1e-12


def test_phases_to_vector_map():
    v = sphere_points(np.array([0.0, 0.25, 0.0, 0.0]), np.array([0.5, 0.5, 1.0 - 1e-12, 0.0]))
    assert v[0] == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    assert v[1] == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
    assert v[2, 2] == pytest.approx(1.0, abs=1e-5)
    assert v[3, 2] == pytest.approx(-1.0)


def test_pitcher_vector_epoch_and_determinism():
    bank = WatchBank.default()
    for watch in (bank.watch_H, bank.watch_T):
        v = watch_vectors_array(watch, [0.0])[0]
        assert v == pytest.approx((0.0, 0.0, -1.0), abs=1e-12)
    # generically the two watches disagree
    v1 = watch_vectors_array(bank.watch_H, [1234.5])[0]
    v2 = watch_vectors_array(bank.watch_T, [1234.5])[0]
    assert np.sum(np.abs(v1 - v2)) > 1e-6
    assert np.array_equal(watch_vectors_array(bank.watch_H, [1234.5])[0], v1)


def test_batter_vector_round_trip():
    # oracle: direct pitcher-side evaluation at t_pitch = t_arrival - delta_t
    bank = WatchBank.default()
    rng = np.random.default_rng(5)
    t = rng.uniform(0.0, 1e7, size=500)
    dt = rng.uniform(0.0, 500.0, size=500)
    for watch in (bank.watch_H, bank.watch_T):
        p = watch_vectors_array(watch, t - dt)
        b = batter_vectors_array(watch.mirrored(), t, dt)
        assert np.max(np.abs(p - b)) < 1e-9


def test_batter_vector_trivial_cases():
    w = cw(60.0 * math.sqrt(2.0), 720.0 * math.sqrt(3.0))
    v = batter_vectors_array(w.mirrored(), [0.0], 0.0)[0]
    assert v == pytest.approx((0.0, 0.0, -1.0), abs=1e-12)
    # delta_t of exactly one period leaves that hand's phase unchanged
    t = 777.7
    a = batter_vectors_array(w.mirrored(), [t + w.period_small], w.period_small)[0]
    b = batter_vectors_array(w.mirrored(), [t], 0.0)[0]
    assert a[0] == pytest.approx(b[0], abs=1e-9)
    with pytest.raises(ValueError):
        batter_vectors_array(w.mirrored(), [0.0], -1.0)
    with pytest.raises(ValueError):
        batter_vectors_array(w, [0.0], 1.0)  # not a mirror


@pytest.mark.parametrize("delta_t", [math.nan, math.inf, -math.inf, [1.0, math.nan]])
def test_non_finite_time_of_flight_rejected(delta_t):
    mirror = WatchBank.default().watch_H.mirrored()
    for read in (batter_phases_array, batter_vectors_array):
        with pytest.raises(ValueError, match="time of flight"):
            read(mirror, np.array([10.0, 20.0]), delta_t)


def test_batter_vectors_are_the_vectors_of_the_batter_phases():
    mirror = WatchBank.default().watch_T.mirrored()
    t = np.random.default_rng(2).uniform(0.0, 1e9, size=1000)
    phases = batter_phases_array(mirror, t, 1.5)
    assert all(((p >= 0.0) & (p < 1.0)).all() for p in phases)
    assert np.array_equal(batter_vectors_array(mirror, t, 1.5), sphere_points(*phases))


def test_phases_overlap_is_the_dot_product_of_the_vectors():
    rng = np.random.default_rng(6)
    a, b = rng.uniform(size=(2, 2, 200_000))
    dot = lambda p, q: np.einsum("ij,ij->i", sphere_points(*p), sphere_points(*q))  # noqa: E731
    assert np.max(np.abs(phases_overlap(a, b) - dot(a, b))) < 2e-15
    # a pole (st = 0) leaves only the ct products, exactly
    for pole in (0.0, 1.0):
        p = (a[0], np.full(a[0].size, pole))
        assert np.array_equal(phases_overlap(p, b), dot(p, b))
        assert np.array_equal(phases_overlap(b, p), dot(b, p))
    # equal small-hand phases: the cosine term is exactly st_a * st_b
    same = (a[0], b[1])
    ct = lambda p: 2.0 * p - 1.0  # noqa: E731
    want = np.sqrt(1.0 - ct(a[1]) ** 2) * np.sqrt(1.0 - ct(b[1]) ** 2) + ct(a[1]) * ct(b[1])
    assert np.array_equal(phases_overlap(a, same), want)


def _scalar_read(w, t):
    """Oracle: one pitcher-side read written out with the math module."""
    ps = ((t - w.epoch) / w.period_small) % 1.0
    pl = ((t - w.epoch) / w.period_large) % 1.0
    theta, phi = math.acos(2.0 * pl - 1.0), 2.0 * math.pi * ps
    return [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]


def test_vectorized_watch_reads_match_scalar():
    bank = WatchBank.default()
    ts = np.linspace(0.0, 1e5, 101)
    arr = watch_vectors_array(bank.watch_H, ts)
    for i, t in enumerate(ts):
        assert np.allclose(arr[i], _scalar_read(bank.watch_H, float(t)), atol=1e-12)
    barr = batter_vectors_array(bank.watch_H.mirrored(), ts + 2.5, 2.5)
    assert np.allclose(barr, watch_vectors_array(bank.watch_H, ts), atol=1e-9)


def _cf_convergents(x, max_den):
    """Continued-fraction oracle: best rational approximations of x."""
    out = []
    f = Fraction(x).limit_denominator(max_den)
    out.append(f)
    return out


def test_check_incommensurable_failures():
    assert check_incommensurable([60.0, 30.0]) == ["periods[0]/periods[1] = 2.0 ~ 2/1"]
    assert check_incommensurable([1.0, 1.0 + 1e-12])
    # a ratio or an inverse ratio that overflows fails instead of raising
    assert check_incommensurable([1e308, 1e-308]) == [
        "periods[0]/periods[1] = inf or its inverse is not finite"]
    assert check_incommensurable([5e-324, 1.0]) == [
        "periods[0]/periods[1] = 5e-324 or its inverse is not finite"]


def test_check_incommensurable_passes_prime_roots():
    periods = [s * 13.7 for s in (math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(7))]
    assert check_incommensurable(periods) == []
    # continued-fraction oracle agrees: no convergent with q <= 64 lands
    # within 1e-9 of any pairwise ratio
    for i in range(len(periods)):
        for j in range(len(periods)):
            if i == j:
                continue
            r = periods[i] / periods[j]
            for f in _cf_convergents(r, 64):
                if f.numerator <= 64:
                    assert abs(r - float(f)) > 1e-9


def test_check_incommensurable_needs_two():
    with pytest.raises(ValueError):
        check_incommensurable([60.0])


def test_default_bank_passes_check():
    bank = WatchBank.default()
    assert check_incommensurable([
        bank.watch_H.period_small, bank.watch_H.period_large,
        bank.watch_T.period_small, bank.watch_T.period_large,
    ]) == []


def test_bank_rejects_commensurable_periods():
    with pytest.raises(ValueError):
        WatchBank(cw(60.0, 720.0), cw(30.0, 360.0))


def test_watch_equidistribution():
    # Weyl equidistribution on the torus pushed to the sphere: moments of
    # watch-generated vectors at jittered-stride pitch times match the
    # uniform sphere measure
    bank = WatchBank.default()
    rng = np.random.default_rng(99)
    n = 1_000_000
    t = (np.arange(n) + rng.uniform(size=n)) * 1.0e5
    u = watch_vectors_array(bank.watch_H, t)
    assert np.max(np.abs(u.mean(axis=0))) < 0.01
    second = u.T @ u / n
    assert np.max(np.abs(second - np.eye(3) / 3.0)) < 0.01
