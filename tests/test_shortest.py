"""The writer's text against repr, field by field.

rows_text formats with numpy every field that repr writes in plain decimal
form, save the few it leaves to repr, and must give repr's bytes for all
of them.  The corpora are seeded and hold the cases where a shortcut would
show: every binade, the ulps around powers of 2 and of 10, short decimals
and integers, Gaussians at four scales, and short binary fractions, whose
nearest shortest decimals tie.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from minmaxlp import cli
from minmaxlp.shortest import _interval, rows_text


def _repr_rows(cols: np.ndarray) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in cols.T.tolist())


def _assert_repr(values, k: int = 2):
    values = np.asarray(values, dtype=np.float64)
    values = values[:len(values) // k * k]
    cols = np.ascontiguousarray(values.reshape(-1, k).T)
    for i in range(0, cols.shape[1], cli._BLOCK_ROWS):
        block = cols[:, i:i + cli._BLOCK_ROWS]
        got, want = rows_text(block), _repr_rows(block)
        if got != want:
            bad = [(g, w) for g, w in zip(got.splitlines(), want.splitlines())
                   if g != w]
            pytest.fail(f"{len(bad)} rows differ from repr, first {bad[:3]}")


def _from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _every_binade(rng) -> np.ndarray:
    """24 random significands in each binade, subnormals too, each sign,
    and the extremes."""
    exponent = np.repeat(np.arange(2047, dtype=np.uint64), 48)
    sign = np.tile(np.repeat(np.array([0, 1], dtype=np.uint64), 24), 2047)
    fraction = rng.integers(0, 1 << 52, len(exponent), dtype=np.uint64)
    bits = sign << np.uint64(63) | exponent << np.uint64(52) | fraction
    extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                2.225073858507201e-308, 1.7976931348623157e308,
                -1.7976931348623157e308]
    return np.concatenate([_from_bits(bits), extremes])


def _near_powers() -> np.ndarray:
    """50 ulps each side of every power of 2 and of 10 in 1e-4..1e16."""
    powers = [2.0 ** e for e in range(-14, 54)] + [
        float(f"1e{j}") for j in range(-4, 17)]
    bits = np.array(powers).view(np.int64)
    near = (bits[:, None] + np.arange(-50, 51)).ravel().view(np.float64)
    return np.concatenate([near, -near[::7]])


def _short_decimals(rng) -> np.ndarray:
    digits = rng.integers(-10 ** 7, 10 ** 7, 120_000)
    return digits / 10.0 ** rng.integers(0, 12, len(digits))


def _integers(rng) -> np.ndarray:
    width = rng.integers(1, 17, 120_000)
    return np.floor(rng.random(len(width)) * 10.0 ** width) * rng.choice(
        [-1.0, 1.0], len(width))


def _binary_fractions(rng) -> np.ndarray:
    """m / 2^q, whose exact decimal is short enough for the two nearest
    shortest decimals to tie, as 8 + 2^-16 does."""
    m = rng.integers(1, 1 << 24, 120_000)
    return m / 2.0 ** rng.integers(0, 40, len(m))


class TestSameAsRepr:
    def test_every_binade(self):
        _assert_repr(_every_binade(np.random.default_rng(1)))

    def test_near_powers_of_two_and_ten(self):
        _assert_repr(_near_powers())

    def test_short_decimals(self):
        _assert_repr(_short_decimals(np.random.default_rng(2)))

    def test_integers(self):
        _assert_repr(_integers(np.random.default_rng(3)))

    @pytest.mark.parametrize("sigma", [1e-6, 1.0, 1e8, 1e20])
    def test_gaussians(self, sigma):
        _assert_repr(np.random.default_rng(4).normal(0, sigma, 100_000))

    def test_binary_fractions(self):
        _assert_repr(_binary_fractions(np.random.default_rng(5)))

    def test_ties_go_to_repr(self):
        # 8 + 2^-16 lies halfway between 8.000015258789062 and ...063
        _assert_repr([8 + 2 ** -16, 8 + 3 * 2 ** -16, 1.5, 0.1])

    @pytest.mark.parametrize("k", [1, 3])
    def test_field_counts(self, k):
        _assert_repr(_short_decimals(np.random.default_rng(6))[:3000], k)

    def test_one_block_of_leftovers_alone(self):
        # every field is left to repr: exponent form, zeros, infinities
        _assert_repr([1e-5, 0.0, -0.0, -1e-300, 1e300, math.inf])
        _assert_repr([1e-5, 0.5, 0.1, 1e17])

    def test_every_power_of_two_and_ten(self):
        # the two cases the module docstring proves need no route to repr:
        # the lopsided interval of a power of two, and a decimal that
        # would round up to the next power of ten
        powers = [2.0 ** e for e in range(-13, 54)] + [
            float(f"1e{j}") for j in range(-4, 16)]
        assert min(powers) >= 1e-4 and max(powers) < 1e16
        bits = np.array(powers).view(np.int64)
        near = (bits[:, None] + np.arange(-3, 4)).ravel().view(np.float64)
        _assert_repr(np.concatenate([near, -near]), k=1)


def test_what_is_left_to_repr(monkeypatch):
    """repr writes the fields the exact test does not model: exponent
    form, zeros and ties; numpy writes the rest, powers of two too."""
    from minmaxlp import shortest
    seen = []
    monkeypatch.setattr(shortest, "repr", lambda x: seen.append(x) or repr(x),
                        raising=False)
    left = [1e-5, 0.0, -0.0, 8 + 2 ** -16, 1e16]
    row = left + [2.0, 0.25, 1.5, 2.0 ** 53, 2.0 ** -13, 1e15, 1e-4]
    text = rows_text(np.array([row, [0.1] * 12]))
    assert text == _repr_rows(np.array([row, [0.1] * 12]))
    assert [x.hex() for x in seen] == [x.hex() for x in left]


class TestInterval:
    """_interval's ends against exact rational arithmetic, on values whose
    scaled ends fall on integers (below 2^53 with a half ulp, above it with
    a whole one) and on random ones."""

    def test_exact_ends(self):
        rng = np.random.default_rng(7)
        values = np.concatenate([
            2.0 ** 52 + rng.integers(0, 1 << 52, 400),
            2.0 ** 53 + 2 * rng.integers(0, 4 * 10 ** 14, 400),
            1e15 + rng.integers(0, 10 ** 15, 200) / 8,
            _every_binade(rng)[::150], _short_decimals(rng)[:400]])
        values = np.abs(values[(np.abs(values) >= 1e-4)
                               & (np.abs(values) < 1e16)])
        values = values[values.view(np.int64) & ((1 << 52) - 1) != 0]
        bits = values.view(np.int64)
        d, n, r, lower, upper = _interval(values, bits)
        exclusive = 0
        for i, a in enumerate(values.tolist()):
            exact = Fraction(a)
            assert 10 ** Fraction(int(d[i])) <= exact < 10 ** Fraction(
                int(d[i]) + 1)
            scale = 10 ** Fraction(16 - int(d[i]))
            p = exact * scale
            assert int(n[i]) + Fraction(float(r[i])) == p
            h = Fraction(math.ulp(a)) / 2 * scale
            odd = int(bits[i]) & 1  # the significand's last bit
            low, high = math.ceil(p - h), math.floor(p + h)
            if odd and low == p - h:
                low += 1
                exclusive += 1
            if odd and high == p + h:
                high -= 1
                exclusive += 1
            assert (int(lower[i]), int(upper[i])) == (low, high), a
        assert exclusive > 0


def test_same_bytes_without_the_wide_simd_paths():
    """Without the AVX2 and AVX-512 kernels, the writer still gives repr's
    bytes on a fixed corpus of bit patterns (not gen's output, whose bits
    rest on the CPU)."""
    script = (
        "import numpy as np\n"
        "from minmaxlp.shortest import rows_text\n"
        "rng = np.random.default_rng(11)\n"
        "e = rng.integers(1009, 1077, 200000, dtype=np.uint64)\n"
        "m = rng.integers(0, 1 << 52, 200000, dtype=np.uint64)\n"
        "s = rng.integers(0, 2, 200000, dtype=np.uint64)\n"
        "v = (s << np.uint64(63) | e << np.uint64(52) | m).view(np.float64)\n"
        "cols = np.ascontiguousarray(v.reshape(-1, 2).T)\n"
        "for i in range(0, cols.shape[1], 16384):\n"
        "    b = cols[:, i:i + 16384]\n"
        "    want = ''.join(f'{x!r},{y!r}\\n' for x, y in b.T.tolist())\n"
        "    assert rows_text(b) == want, i\n"
        "print('same')\n")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=(
        "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
        pytest.skip("this numpy cannot switch those kernels off here")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "same\n"


def test_a_process_that_writes_nothing_does_not_load_the_writer():
    script = ("import sys, minmaxlp, minmaxlp.cli\n"
              "print('minmaxlp.shortest' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
