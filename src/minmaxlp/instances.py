"""Deterministic Gaussian problem generation.

Coefficients are zero-mean Gaussians drawn through a fully pinned-down
pipeline so that a (seed, instance index) pair names the same instance on
every run:

* bit source: Philox4x64 keyed with ``key = (seed mod 2**64, index)``;
  distinct keys give independent streams, so corpus generation can fan out
  by index without coordination,
* uniforms: the generator's standard 53-bit doubles in [0, 1),
* Gaussian transform: Box-Muller on consecutive uniform pairs (u1, u2) with
  r = sqrt(-2*ln(1 - u1)), z0 = r*cos(2*pi*u2), z1 = r*sin(2*pi*u2).

A 2D constraint consumes one pair (a = sigma*z0, b = sigma*z1).  A 3D
constraint consumes two pairs and uses z0, z1, z2, discarding z3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Problem

__all__ = ["GenSpec", "gen2d", "gen3d"]

_MASK64 = (1 << 64) - 1
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GenSpec:
    """Shape of a random instance: size, spread, seed and dimension."""

    n: int
    sigma: float = math.sqrt(10.0)
    seed: int = 0
    dim: int = 2

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")


def _gaussians(seed: int, index: int, pairs: int,
               sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """sigma * (z0, z1) of the first ``pairs`` Box-Muller pairs, as the
    column of every pair's z0 and the column of its z1."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(2 * pairs)
    # The steps of sigma * (r * cos(ang)), sigma * (r * sin(ang)), each on
    # the same operands as written, with the exactly rounded ones in place:
    # at most four columns are held at once, the uniforms counting as two.
    r = np.log1p(np.negative(u[0::2]))
    np.multiply(-2.0, r, out=r)
    np.sqrt(r, out=r)
    ang = np.multiply(_TWO_PI, u[1::2])
    del u
    z0, z1 = np.cos(ang), np.sin(ang)
    for z in (z0, z1):
        np.multiply(r, z, out=z)
        np.multiply(sigma, z, out=z)
    return z0, z1


def gen2d(spec: GenSpec, index: int = 0) -> Problem:
    """Instance ``index`` of the stream named by ``spec`` (dim 2)."""
    if spec.dim != 2:
        raise ValueError("gen2d requires a dim=2 spec")
    return Problem(*_gaussians(spec.seed, index, spec.n, spec.sigma))


def gen3d(spec: GenSpec, index: int = 0) -> Problem:
    """Instance ``index`` of the stream named by ``spec`` (dim 3)."""
    if spec.dim != 3:
        raise ValueError("gen3d requires a dim=3 spec")
    z0, z1 = _gaussians(spec.seed, index, 2 * spec.n, spec.sigma)
    return Problem(z0[0::2], z1[0::2], z0[1::2])
