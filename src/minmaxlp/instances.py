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
constraint consumes two pairs and uses z0, z1, z2; z3 is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Problem

__all__ = ["GenSpec", "gen2d", "gen3d"]

_MASK64 = (1 << 64) - 1
_TWO_PI = 2.0 * math.pi
# Rows formed at a time: the generator's scratch is 4(k - 1) columns of
# this many rows whatever n is, 256 KB for gen2d and 512 KB for gen3d.
# In fresh processes on x86-64 with numpy 2.4, it took 0.67-0.77x the time
# of blocks of 32768 rows for 1e5-row instances and for gen3d(1e6), and no
# longer in a process that had generated before.
_BLOCK = 1 << 13


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


def _gaussians(seed: int, index: int, n: int, sigma: float,
               k: int) -> np.ndarray:
    """The (k, n) array of the Gaussian columns of ``gen2d`` (k = 2) or
    ``gen3d`` (k = 3).

    Row i takes pair i, sigma * (z0, z1), for k = 2, and pairs 2i and
    2i + 1, sigma * (z0, z1, z0'), for k = 3: each pair's two uniforms are
    read as strided views, so each column is formed apart, and z1' is never
    formed.  The rows are formed ``_BLOCK`` at a time, from successive
    draws of the one generator, which continue its stream: every value is
    the one a single draw of all the uniforms would give.
    """
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    step = 2 * (k - 1)  # uniforms a row
    out = np.empty((k, n))
    # The steps of sigma * (r * cos(ang)), sigma * (r * sin(ang)), each on
    # the same operands as written, with the exactly rounded ones in place:
    # besides the output, 4(k - 1) columns of one block are held at once,
    # the uniforms counting as 2(k - 1).
    for s in range(0, n, _BLOCK):
        block = out[:, s:s + _BLOCK]
        u = gen.random(step * block.shape[1])
        rs = [np.log1p(np.negative(u[i::step])) for i in range(0, step, 2)]
        angs = [np.multiply(_TWO_PI, u[i::step]) for i in range(1, step, 2)]
        del u
        for r in rs:
            np.multiply(-2.0, r, out=r)
            np.sqrt(r, out=r)
        for row, (p, f) in zip(block, ((0, np.cos), (0, np.sin), (1, np.cos))):
            f(angs[p], out=row)
            row *= rs[p]
            row *= sigma
    return out


def gen2d(spec: GenSpec, index: int = 0) -> Problem:
    """Instance ``index`` of the stream named by ``spec`` (dim 2)."""
    if spec.dim != 2:
        raise ValueError("gen2d requires a dim=2 spec")
    return Problem(_gaussians(spec.seed, index, spec.n, spec.sigma, 2))


def gen3d(spec: GenSpec, index: int = 0) -> Problem:
    """Instance ``index`` of the stream named by ``spec`` (dim 3)."""
    if spec.dim != 3:
        raise ValueError("gen3d requires a dim=3 spec")
    return Problem(_gaussians(spec.seed, index, spec.n, spec.sigma, 3))
