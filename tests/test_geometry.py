import math

import numpy as np
import pytest

from singletsim.geometry import (
    ROW_BLOCK,
    UnitVector,
    sample_uniform_sphere_array,
    sign_array,
    sphere_points,
)
from singletsim.models import SettingsPair


def dot(a, b):
    return SettingsPair(a, b).cos_angle()


def sign_oracle(x):
    return 1 if x >= 0.0 else -1


def test_unit_vector_norm_enforced():
    UnitVector(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        UnitVector(0.0, 0.0, 1.1)
    with pytest.raises(ValueError):
        UnitVector(0.0, 0.0, 0.0)


def test_normalized_constructor():
    v = UnitVector.normalized(3.0, 4.0, 0.0)
    assert v.x == pytest.approx(0.6)
    assert v.y == pytest.approx(0.8)


def test_dot_identity_antipodal_orthogonal():
    rng = np.random.default_rng(42)
    for row in sample_uniform_sphere_array(rng, 50):
        a = UnitVector(*row)
        assert dot(a, a) == pytest.approx(1.0, abs=1e-12)
        assert dot(a, UnitVector(*-row)) == pytest.approx(-1.0, abs=1e-12)
    assert dot(UnitVector(1, 0, 0), UnitVector(0, 1, 0)) == 0.0


def test_dot_symmetric_and_clamped():
    rng = np.random.default_rng(7)
    for ra, rb in zip(sample_uniform_sphere_array(rng, 200), sample_uniform_sphere_array(rng, 200)):
        a, b = UnitVector(*ra), UnitVector(*rb)
        assert dot(a, b) == dot(b, a)
        assert -1.0 <= dot(a, b) <= 1.0


def test_sign_convention():
    assert sign_array(0.5) == 1
    assert sign_array(-0.5) == -1
    assert sign_array(0.0) == 1  # boundary maps to +1
    assert sign_array(-0.0) == 1


def test_sign_idempotent_on_outputs():
    s = sign_array(np.array([-3.0, -1e-300, 0.0, 1e-300, 3.0]))
    assert list(sign_array(s.astype(float))) == list(s)


def test_sign_array_matches_scalar():
    xs = np.array([-2.0, -0.0, 0.0, 1e-9, 5.0])
    assert list(sign_array(xs)) == [sign_oracle(x) for x in xs]


def test_sampled_vectors_are_unit():
    rng = np.random.default_rng(3)
    for row in sample_uniform_sphere_array(rng, 100):
        v = UnitVector(*row)
        assert v.x**2 + v.y**2 + v.z**2 == pytest.approx(1.0, abs=1e-12)
    u = sample_uniform_sphere_array(rng, 1000)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)


def test_uniform_sphere_moments():
    # oracle: analytic moments of the uniform sphere measure,
    # <u_i> = 0 and <u_i u_j> = delta_ij / 3
    rng = np.random.default_rng(2024)
    u = sample_uniform_sphere_array(rng, 1_000_000)
    assert np.max(np.abs(u.mean(axis=0))) < 0.005
    second = u.T @ u / u.shape[0]
    assert np.max(np.abs(second - np.eye(3) / 3.0)) < 0.01


def _unblocked_sphere_points(azimuth, height):
    """Oracle: the phase-to-sphere map over all rows at once."""
    phi = 2.0 * math.pi * azimuth
    ct = 2.0 * height - 1.0
    st = np.sqrt(1.0 - ct * ct)
    return np.column_stack([st * np.cos(phi), st * np.sin(phi), ct])


@pytest.mark.parametrize("n", [0, 1, ROW_BLOCK, ROW_BLOCK + 1, (1 << 17) + 3])
def test_sphere_points_match_the_unblocked_map(n):
    # empty, one row, one whole block, one row past it, and a ragged last block
    rng = np.random.default_rng(n)
    azimuth, height = rng.random(n), rng.random(n)
    got = sphere_points(azimuth, height)
    assert got.shape == (n, 3)
    np.testing.assert_array_equal(got, _unblocked_sphere_points(azimuth, height))


@pytest.mark.parametrize("n", [0, 1, 5, (1 << 17) + 3])
def test_uniform_sphere_samples_are_the_map_of_two_draws(n):
    # the azimuth's draws, then the height's, from the same stream; these
    # are the bits of uniform(0, 2 pi) and uniform(-1, 1) draws
    got = sample_uniform_sphere_array(np.random.default_rng(9), n)
    rng = np.random.default_rng(9)
    np.testing.assert_array_equal(got, sphere_points(rng.random(n), rng.random(n)))
    rng = np.random.default_rng(9)
    phi, ct = rng.uniform(0.0, 2.0 * math.pi, size=n), rng.uniform(-1.0, 1.0, size=n)
    st = np.sqrt(1.0 - ct * ct)
    np.testing.assert_array_equal(got, np.column_stack([st * np.cos(phi), st * np.sin(phi), ct]))
