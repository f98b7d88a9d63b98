"""Rows of doubles as text, each field exactly as ``repr`` writes it.

``rows_text(cols)`` formats the rows of a (k, n) float64 array with numpy
for every field that repr writes in plain decimal form, 1e-4 <= |v| <
1e16, and with repr for the rest.  A double's repr is the shortest decimal
that float() reads back as it, and of those the nearest to it (Gay's dtoa,
mode 0).  Per field:

* Exponent.  d = floor(log10 |v|) is floor(e log10 2) for the binary
  exponent e, raised by one where |v| is at least the next power of ten:
  one exact comparison with a tabled double, no log10.
* Scaled value.  P = |v| 10^k, k = 16 - d in 1..20, lies in [1e16, 1e17).
  10^k is an exact double, so TwoProduct (Dekker: both factors split in
  26-bit halves, four exact partial products) gives P = ph + pl exactly,
  ph an even integer, and so P = N + r with N = round(P) an int64 and
  |r| <= 1/2 a double.
* Interval.  The reals float() reads as v are those within H =
  ulp(v)/2 10^k of P, ends included where v's significand is even, as
  float() rounds half to even.  H is an exact double, so comparing r
  with H's fraction places the interval's integer ends L and U exactly.
* Digit count.  The shortest decimal has 17 - j digits for the largest
  j <= 16 with U mod 10^j <= U - L, the interval then holding a multiple
  of 10^j.  U - L is at most 22, so j is 0 or 1 by U's last digit, else 2
  plus the count of trailing zeros of U // 100, which four exact
  divisions of doubles below 2^53 find.  Of the multiples the interval
  holds, the one nearest P is the decimal.
* Digits two at a time from a table of the 100 pairs, by floor division
  by scalars.  A block's fields are laid out in rows of one width: the
  sign, "0.000", the digits, a '.' after each digit that some field's
  point follows, and the separator, only the columns the block needs.
  A mask per (sign, exponent, digit count) zeroes the bytes a field's
  text leaves out, and one pass of ``bytes.translate`` deletes them.

repr writes the rest, one ``%`` format over the block's leftover fields,
padded with blanks that the same pass deletes, spliced in with one
assignment: exponent-form values (zeros and subnormals among them),
non-finite ones, and ties between two nearest multiples.

Two cases need no route of their own.  A power of two has a lopsided
interval, half as wide below it, which the symmetric H overstates; but
each of the 67 in range, 2^-13 to 2^53, has at most 16 significant
digits, so its own decimal lies in the interval, and no shorter one
appears in the overstated part: the exhaustive test of every power of
two in range, and of the ulps around it, gives repr's text.  No decimal
rounds up to 10^(d + 1): that needs 10^(d + 1) within half an ulp above
|v|, and every power of ten from 1e-4 up has its nearest double at or
above it.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

__all__ = ["rows_text"]

_POW10 = np.array([10.0 ** k for k in range(23)])  # exact doubles
_POW10_INT = np.array([10 ** j for j in range(17)], dtype=np.int64)


def _split(x):
    """Dekker's split: x = hi + lo, each with at most 26 significant bits."""
    t = x * 134217729.0  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _ceil_pow10(j: int) -> float:
    """The least double at or above 10^j."""
    if j >= 0:
        return float(10 ** j)
    x = 1 / 10 ** -j  # correctly rounded
    num, den = x.as_integer_ratio()
    return x if num * 10 ** -j >= den else float(np.nextafter(x, 1.0))


_POW10_HI, _POW10_LO = _split(_POW10)
# _CEIL10[d + 4] is the least double at or above 10^d, d = -4..16: |v| is
# at least 10^d exactly when it is at least _CEIL10[d + 4].
_CEIL10 = np.array([_ceil_pow10(d) for d in range(-4, 17)])
# _PAIRS[x] is the two digits of x < 100, and _PAIRS[100 + x] is "0" and
# the digit x, read as uint16.
_PAIRS = np.frombuffer(b"".join([b"%02d" % x for x in range(100)]
                                + [b"0%d" % x for x in range(10)]),
                       dtype=np.uint16)
# The layout a block's columns are chosen from: the sign, "0.000", the 17
# digits with a '.' after each of the first 16, the separator, and a pad
# that no fast field keeps.  _DIGIT[i] is the column of digit i + 1.
_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 16 + b"0\n ", dtype=np.uint8)
_DIGIT = range(6, 39, 2)
_SEP, _PAD = 39, 40


def _masks() -> np.ndarray:
    """Per key (negative, d + 4, digits - 1), d in -4..15 and 1..17
    digits, a row over the layout's columns: 255 where a field's text
    keeps the byte, 0 where it leaves it out."""
    m = np.zeros((2, 20, 17, len(_TEMPLATE)), dtype=bool)
    m[1, ..., 0] = True  # the sign
    m[..., _SEP] = True
    for d in range(-4, 16):
        for n in range(1, 18):
            row = m[:, d + 4, n - 1]
            if d < 0:
                row[:, 1:2 - d] = True  # "0." and -d - 1 zeros
                row[:, _DIGIT[:n]] = True
            else:
                row[:, _DIGIT[:max(n, d + 2)]] = True
                row[:, _DIGIT[d] + 1] = True  # the point
    return m.reshape(-1, len(_TEMPLATE)).view(np.uint8) * np.uint8(255)


_MASKS = _masks()


def _interval(a, bits):
    """For |v| = ``a`` (1e-4 <= a < 1e16, bits ``bits``): d =
    floor(log10 a), and P = a 10^(16 - d) in [1e16, 1e17) as
    N + r, N an int64 and |r| <= 1/2 a double, with the least and the
    greatest integer that float() reads as a when scaled back."""
    e = bits >> 52
    e -= 1023
    d = e * 78913
    d >>= 18  # floor(e log10 2), for |e| < 1100
    d += a >= _CEIL10[d + 5]
    k = 16 - d
    p = _POW10[k]
    # P = a p = ph + pl exactly (TwoProduct), then N + r
    ah, al = _split(a)
    ph = a * p
    pl = ah * _POW10_HI[k]
    pl -= ph
    pl += ah * _POW10_LO[k]
    pl += al * _POW10_HI[k]
    pl += al * _POW10_LO[k]
    del ah, al, k
    lift = np.rint(pl)
    n_int = ph.astype(np.int64)
    n_int += lift.astype(np.int64)
    r = pl
    r -= lift
    del ph, lift
    # H = ulp(a)/2 p, exact; its fraction f places the ends P - H, P + H
    e += 970
    e <<= 52
    f = e.view(np.float64)
    f *= p
    del p
    h_int = np.floor(f)
    f -= h_int
    h_int = h_int.astype(np.int64)
    odd = (bits & 1).astype(bool)  # its interval's ends are excluded
    upper = n_int + h_int
    upper -= 1
    upper += r >= -f
    upper += r >= 1 - f
    upper -= odd & ((r == -f) | (r == 1 - f))
    lower = n_int - h_int
    lower -= 1
    lower += r > f - 1
    lower += r > f
    lower += odd & ((r == f - 1) | (r == f))
    return d, n_int, r, lower, upper


def _decimals(a, bits):
    """For |v| = ``a`` as in _interval: the shortest round-trip decimal
    nearest a as c 10^(d - 16), c in [1e16, 1e17], its digit count, d,
    and whether the nearest multiple was a tie."""
    d, n_int, r, lower, upper = _interval(a, bits)
    # j, the largest with upper mod 10^j <= upper - lower (at most 22):
    # 0 or 1 by the last digit, else 2 and the count of trailing zeros of
    # upper // 100, found by exact divisions of doubles below 2^53
    top = upper // 100
    low = upper - top * 100
    width = upper - lower
    j = (low - low // 10 * 10 <= width).astype(np.int64)
    y = top.astype(np.float64)
    del top
    zeros = np.full(len(a), 2)
    for s in 8, 4, 2, 1:
        z = y / _POW10[s]
        whole = z == np.floor(z)
        np.copyto(y, z, where=whole)
        zeros += s * whole
    del y, z, whole
    np.copyto(j, np.minimum(zeros, 16), where=low <= width)
    del zeros, low, width
    # the multiple of 10^j nearest P, then moved into the interval
    step = _POW10_INT[j]
    c = n_int // step * step
    over = 2 * (n_int - c) - step  # P is nearer c + step where over > -2r
    tie = over == -2 * r
    c += step * (over > -2 * r)
    c -= step * (c > upper)
    c += step * (c < lower)
    return c, 17 - j, d, tie


def _digits(c):
    """The 17 digits of each c in [1e16, 1e17) after a '0', as an
    (len(c), 18) uint8 array: c's top digit, then 8 pairs, each 8-digit
    half of the rest cut in two 4-digit parts and each in two."""
    top = c // 10 ** 8
    first = top // 10 ** 8
    eights = np.empty((2, len(c)), dtype=np.int32)
    eights[0] = top - first * 10 ** 8
    eights[1] = c - top * 10 ** 8
    del top
    fours = np.empty((2, 2, len(c)), dtype=np.int32)
    fours[:, 0] = eights // 10 ** 4
    fours[:, 1] = eights - fours[:, 0] * 10 ** 4
    del eights
    text = np.empty((len(c), 9), dtype=np.uint16)
    text[:, 0] = _PAIRS[first + 100]
    for i, four in enumerate(fours.reshape(4, -1)):
        hundreds = four // 100
        text[:, 1 + 2 * i] = _PAIRS[hundreds]
        text[:, 2 + 2 * i] = _PAIRS[four - hundreds * 100]
    return text.view(np.uint8)


def _columns(lo, hi, most, width):
    """The layout's columns a block keeps for exponents in lo..hi, up to
    ``most`` digits and leftover texts of up to ``width`` bytes."""
    cols = [0] + list(range(1, max(1, 2 - lo)))  # sign, "0." and zeros
    for i in range(max(most, hi + 2)):
        cols.append(_DIGIT[i])
        if max(lo, 0) <= i <= hi:
            cols.append(_DIGIT[i] + 1)
    return cols + [_PAD] * (width - len(cols)) + [_SEP]


def rows_text(cols: np.ndarray) -> str:
    """The rows of the (k, n) float64 array ``cols`` as text: one line a
    row, its fields as repr writes them, comma-separated."""
    k, n = cols.shape
    a = np.abs(cols)
    fast = (a >= _CEIL10[0]) & (a < 1e16)
    a[~fast] = 1.5
    # one column at a time, which halves the scratch a block holds
    c = np.empty((n, k), dtype=np.int64)
    keys = np.empty((n, k), dtype=np.intp)
    slow = ~fast.T
    lo, hi, most = 16, -4, 1
    for f in range(k):
        c[:, f], digits, d, tie = _decimals(a[f], a[f].view(np.int64))
        slow[:, f] |= tie
        keys[:, f] = (np.signbit(cols[f]) * 20 + d + 4) * 17 + digits - 1
        lo, hi = min(lo, int(d.min())), max(hi, int(d.max()))
        most = max(most, int(digits.max()))
    del a, digits, d, tie
    left = list(map(repr, cols.T[slow].tolist()))
    width = max(map(len, left), default=0)
    c[slow] = 10 ** 16
    digits_text = _digits(c.ravel())
    del c
    chosen = _columns(lo, hi, most, width)
    buf = bytearray(n * k * len(chosen))
    lay = np.frombuffer(buf, dtype=np.uint8).reshape(n * k, -1)
    lay[:] = _TEMPLATE[chosen]
    # each run of digit columns with no other column between, in one copy
    at = [(j, (col - 6) // 2) for j, col in enumerate(chosen)
          if col in _DIGIT]
    for _, run in groupby(at, key=lambda ji: ji[0] - ji[1]):
        (j, i), *rest = run
        lay[:, j:j + 1 + len(rest)] = digits_text[:, i + 1:i + 2 + len(rest)]
    del digits_text
    lay.reshape(n, k, -1)[:, :, -1] = np.frombuffer(
        b"," * (k - 1) + b"\n", dtype=np.uint8)
    lay &= np.take(_MASKS[:, chosen], keys.ravel(), axis=0)
    if left:
        text = ("%%-%ds" % (len(chosen) - 1) * len(left) % tuple(left))
        lay[slow.ravel(), :-1] = np.frombuffer(
            text.encode(), dtype=np.uint8).reshape(len(left), -1)
    del lay
    return buf.translate(None, b"\0 ").decode("ascii")
