"""Unit vectors on the 2-sphere: construction, row-wise dot and cross
products, sign convention, and uniform sampling.

Only the S2 operations the simulator needs live here; anything fancier is out
of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12

ROW_BLOCK = 1 << 14  # rows of (n, 3) geometry built at a time


@dataclass(frozen=True)
class UnitVector:
    """A direction on the unit sphere; components must have norm 1 within 1e-12."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not math.isfinite(n2) or abs(n2 - 1.0) > 8.0 * NORM_TOL:
            raise ValueError(f"not a unit vector: ({self.x}, {self.y}, {self.z})")

    @staticmethod
    def normalized(x: float, y: float, z: float) -> "UnitVector":
        n = math.sqrt(x * x + y * y + z * z)
        if n == 0.0 or not math.isfinite(n):
            raise ValueError("cannot normalize a zero or non-finite vector")
        return UnitVector(x / n, y / n, z / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def sphere_points(azimuth, height) -> np.ndarray:
    """The points of S2 at azimuth 2 pi * ``azimuth`` and cos(theta) =
    2 * ``height`` - 1, for float arrays in [0, 1], as an (n, 3) array,
    built in row blocks so that the map's temporaries hold one block.

    This pushes the uniform measure on the unit square to the uniform sphere
    measure (Archimedes), which is what the equidistribution arguments need.
    """
    out = np.empty((len(azimuth), 3))
    for b in row_blocks(len(azimuth)):
        phi = 2.0 * math.pi * azimuth[b]
        ct = 2.0 * height[b] - 1.0
        st = np.sqrt(1.0 - ct * ct)
        out[b] = np.column_stack([st * np.cos(phi), st * np.sin(phi), ct])
    return out


def sample_uniform_sphere_array(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points on S2 as an (n, 3) array: the azimuth's uniform
    draws, then the height's."""
    return sphere_points(rng.random(n), rng.random(n))


def planar_vector(angle_deg: float) -> UnitVector:
    """The unit vector at ``angle_deg`` from the z axis towards the x axis, in
    the x-z plane that holds every coplanar setting."""
    a = math.radians(angle_deg)
    return UnitVector.normalized(math.sin(a), 0.0, math.cos(a))


def rowdot(a, b) -> np.ndarray:
    """Row-wise dot products of (n, 3) arrays; either side may instead be one
    (3,) vector shared by every row."""
    return np.einsum("...j,...j->...", a, b)


def row_blocks(n: int):
    """Slices covering rows [0, n) in blocks of ROW_BLOCK rows."""
    return (slice(lo, lo + ROW_BLOCK) for lo in range(0, n, ROW_BLOCK))


def cross_rows(a, b) -> np.ndarray:
    """Row-wise cross products, shaped as rowdot's arguments; built one
    component at a time, where np.cross allocates (n, 3) temporaries."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[..., j], b[..., k], out=out[..., i])
        out[..., i] -= a[..., k] * b[..., j]
    return out


def sign_array(x) -> np.ndarray:
    """Elementwise sign with the boundary convention sign(0) = +1 (also for
    -0.0).

    The convention is load-bearing: deterministic responses and the mixed-model
    law evaluate it on measure-zero boundaries and must agree everywhere.
    """
    return np.where(np.asarray(x) >= 0.0, 1, -1)
