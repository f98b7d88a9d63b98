import math
import statistics

import numpy as np
import pytest

from minmaxlp import Constraint2, GenSpec, gen2d, gen3d
from minmaxlp.model import columns


class TestGenSpec:
    def test_defaults(self):
        spec = GenSpec(n=5)
        assert spec.sigma == pytest.approx(math.sqrt(10.0))
        assert spec.dim == 2

    @pytest.mark.parametrize("kwargs", [
        {"n": 0}, {"n": 3, "sigma": 0.0}, {"n": 3, "sigma": -1.0},
        {"n": 3, "sigma": float("inf")}, {"n": 3, "dim": 4},
    ])
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            GenSpec(**kwargs)


class TestGen2d:
    def test_deterministic(self):
        spec = GenSpec(n=3, seed=42)
        assert gen2d(spec) == gen2d(spec)

    def test_frozen_stream_values(self):
        # pins the Philox + Box-Muller convention; a change here breaks
        # every recorded corpus
        first = gen2d(GenSpec(n=3, seed=42))[0]
        assert first == Constraint2(2.1823239903153784, 5.436493274078359)

    def test_single_constraint(self):
        (c,) = gen2d(GenSpec(n=1, seed=0))
        assert math.isfinite(c.a) and math.isfinite(c.b)

    def test_indexes_give_distinct_instances(self):
        spec = GenSpec(n=4, seed=9)
        seen = {tuple(map(tuple, gen2d(spec, index=k))) for k in range(20)}
        assert len(seen) == 20

    def test_seeds_give_distinct_instances(self):
        assert gen2d(GenSpec(n=4, seed=1)) != gen2d(GenSpec(n=4, seed=2))

    def test_sample_statistics(self):
        cs = gen2d(GenSpec(n=10_000, seed=3))
        slopes = [c.a for c in cs]
        assert abs(statistics.fmean(slopes)) < 0.1          # 3 sigma of mean
        assert abs(statistics.pvariance(slopes) - 10.0) < 0.5

    def test_requires_dim2(self):
        with pytest.raises(ValueError):
            gen2d(GenSpec(n=3, dim=3))

    def test_unbounded_vanishes_for_wide_instances(self):
        # P(all slopes share a strict sign) = 2^-63 at n=64; none may occur
        spec = GenSpec(n=64, seed=4)
        for k in range(10_000):
            slopes = [c.a for c in gen2d(spec, index=k)]
            assert any(a <= 0 for a in slopes) and any(a >= 0 for a in slopes)


class TestGen3d:
    def test_deterministic(self):
        spec = GenSpec(n=5, seed=7, dim=3)
        assert gen3d(spec) == gen3d(spec)

    def test_two_constraints_finite(self):
        cs = gen3d(GenSpec(n=2, seed=0, dim=3))
        assert len(cs) == 2
        assert all(math.isfinite(v) for c in cs for v in c)

    def test_sample_statistics(self):
        cs = gen3d(GenSpec(n=10_000, seed=8, dim=3))
        for col in range(3):
            vals = [c[col] for c in cs]
            assert abs(statistics.fmean(vals)) < 0.1
            assert abs(statistics.pvariance(vals) - 10.0) < 0.5

    def test_requires_dim3(self):
        with pytest.raises(ValueError):
            gen3d(GenSpec(n=3, dim=2))


def _box_muller(seed, index, pairs, sigma):
    """The generator's columns as first written, one temporary a step."""
    key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(2 * pairs)
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    ang = 2.0 * math.pi * u[1::2]
    return sigma * (r * np.cos(ang)), sigma * (r * np.sin(ang))


def _bits(col):
    return np.ascontiguousarray(col).view(np.uint64).tolist()


@pytest.mark.parametrize("n,seed,index,sigma", [
    (1, 0, 0, math.sqrt(10.0)), (2, 1, 0, math.sqrt(10.0)),
    (7, 42, 3, 0.5), (1001, 2**64 + 5, 17, math.sqrt(10.0)),
    (65_537, 9, 2**63, 3.0), (200_000, 1, 1, math.sqrt(10.0))])
def test_columns_bitwise_as_first_written(n, seed, index, sigma):
    z0, z1 = _box_muller(seed, index, n, sigma)
    got = gen2d(GenSpec(n=n, sigma=sigma, seed=seed), index=index)
    assert list(map(_bits, columns(got, 2))) == [_bits(z0), _bits(z1)]
    z0, z1 = _box_muller(seed, index, 2 * n, sigma)
    got = gen3d(GenSpec(n=n, sigma=sigma, seed=seed, dim=3), index=index)
    assert list(map(_bits, columns(got, 3))) == [
        _bits(z0[0::2]), _bits(z1[0::2]), _bits(z0[1::2])]
