import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (EDGE_VALUES, orient_oracle, orient_points_oracle,
                      product_compare_oracle)
from minmaxlp import (Line2, NonFiniteInput, Plane3, Point2, Point3, Sign,
                      dual_of_line, dual_of_plane, dual_of_point,
                      dual_of_point2, exact_product_compare,
                      orientation_exact)
from minmaxlp.geometry import (_EPS, _SLOPE_MAX, _ExactPoints, _images,
                               _orient, _orient_sign, _settle,
                               _slope_threshold)

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e150, max_value=1e150)
moderate = st.floats(allow_nan=False, allow_infinity=False,
                     min_value=-1e9, max_value=1e9)


class TestDuality:
    def test_plane_to_point(self):
        assert dual_of_plane(Plane3(2, 3, 4)) == Point3(2, 3, -4)
        assert dual_of_plane(Plane3(0, 0, 0)) == Point3(0, 0, 0)
        assert dual_of_plane(Plane3(-1, 0, 5)) == Point3(-1, 0, -5)

    def test_point_to_plane(self):
        assert dual_of_point(Point3(2, 3, -4)) == Plane3(2, 3, 4)
        assert dual_of_point(Point3(0, 0, 0)) == Plane3(0, 0, 0)
        assert dual_of_point(Point3(1, 1, 1)) == Plane3(1, 1, -1)

    def test_line_to_point(self):
        assert dual_of_line(Line2(5, 7)) == Point2(5, -7)
        assert dual_of_line(Line2(0, 0)) == Point2(0, 0)

    def test_point_to_line(self):
        assert dual_of_point2(Point2(0.5, 0.5)) == Line2(0.5, -0.5)

    @given(finite, finite, finite)
    def test_involution_3d(self, a, b, c):
        plane = Plane3(a, b, c)
        assert dual_of_point(dual_of_plane(plane)) == plane
        point = Point3(a, b, c)
        assert dual_of_plane(dual_of_point(point)) == point

    @given(finite, finite)
    def test_involution_2d(self, x, y):
        p = Point2(x, y)
        assert dual_of_line(dual_of_point2(p)) == p
        l = Line2(x, y)
        assert dual_of_point2(dual_of_line(l)) == l

    @given(moderate, moderate, moderate, moderate, moderate)
    def test_above_below_reversal(self, a, b, c, px, py):
        """A point above a plane has its dual plane below the plane's dual."""
        plane = Plane3(a, b, c)
        margin = 1.0 + abs(plane.value(px, py)) * 1e-6
        for sgn in (1.0, -1.0):
            pz = plane.value(px, py) + sgn * margin
            point = Point3(px, py, pz)
            dplane = dual_of_point(point)
            dpoint = dual_of_plane(plane)
            lhs = dplane.value(dpoint.x, dpoint.y)
            if sgn > 0:   # point above plane -> dual plane below dual point
                assert lhs < dpoint.z
            else:
                assert lhs > dpoint.z

    @given(st.integers(-100, 100), st.integers(-100, 100),
           st.integers(-100, 100), st.integers(-20, 20), st.integers(-20, 20))
    def test_on_plane_maps_to_on_plane(self, a, b, c, px, py):
        # integer data keeps every evaluation exact
        plane = Plane3(float(a), float(b), float(c))
        point = Point3(float(px), float(py), plane.value(px, py))
        dplane = dual_of_point(point)
        dpoint = dual_of_plane(plane)
        assert dplane.value(dpoint.x, dpoint.y) == dpoint.z


class TestOrientation:
    def test_unit_triangle(self):
        assert orientation_exact(Point2(0, 0), Point2(1, 0),
                                 Point2(0, 1)) is Sign.POSITIVE

    def test_collinear(self):
        assert orientation_exact(Point2(0, 0), Point2(1, 1),
                                 Point2(2, 2)) is Sign.ZERO

    def test_large_coordinates_vs_oracle(self):
        p0, p1, p2 = Point2(0, 0), Point2(1e17 + 1, 1), Point2(1e17, 1)
        got = orientation_exact(p0, p1, p2)
        assert int(got) == orient_oracle(p0, p1, p2)

    def test_one_ulp_off_collinear(self):
        base = Point2(1.0, 1.0)
        far = Point2(3.0, 3.0)
        for y in (math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 4.0)):
            mid = Point2(2.0, y)
            got = orientation_exact(base, mid, far)
            assert int(got) == orient_oracle(base, mid, far)

    @given(finite, finite, finite, finite, finite, finite)
    def test_antisymmetry(self, ax, ay, bx, by, cx, cy):
        p0, p1, p2 = Point2(ax, ay), Point2(bx, by), Point2(cx, cy)
        try:
            forward = orientation_exact(p0, p1, p2)
        except NonFiniteInput:
            with pytest.raises(NonFiniteInput):
                orientation_exact(p0, p2, p1)
            return
        assert int(forward) == -int(orientation_exact(p0, p2, p1))

    @settings(max_examples=300)
    @given(finite, finite, finite, finite, finite, finite)
    def test_matches_rational_oracle(self, ax, ay, bx, by, cx, cy):
        p0, p1, p2 = Point2(ax, ay), Point2(bx, by), Point2(cx, cy)
        try:
            got = orientation_exact(p0, p1, p2)
        except NonFiniteInput:
            return
        assert int(got) == orient_oracle(p0, p1, p2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteInput):
            orientation_exact(Point2(bad, 0), Point2(1, 0), Point2(0, 1))

    def test_overflowing_difference_rejected(self):
        big = 1.6e308
        with pytest.raises(NonFiniteInput):
            orientation_exact(Point2(-big, 0), Point2(big, 1), Point2(0, 1))


any_finite = st.floats(allow_nan=False, allow_infinity=False)


# The exact predicate, and the float filter in front of it: every case
# below runs through both.
ORIENTS = (_orient_sign, _orient)


class TestOrientSign:
    """The exact turn of the given points, not of their rounded differences."""

    def test_unit_triangle(self):
        for orient in ORIENTS:
            assert orient(0.0, 0.0, 1.0, 0.0, 0.0, 1.0) == 1
            assert orient(0.0, 0.0, 0.0, 1.0, 1.0, 0.0) == -1
            assert orient(0.0, 0.0, 1.0, 1.0, 2.0, 2.0) == 0

    def test_overflowing_differences_decided(self):
        # orientation_exact rejects this triple; the points turn left
        big = 1.6e308
        for orient in ORIENTS:
            assert orient(-big, 0.0, big, 1.0, 0.0, 1.0) == \
                orient_points_oracle(-big, 0.0, big, 1.0, 0.0, 1.0) == 1
            # three points on the line y = -x, two of them 2e308 apart
            assert orient(-1e308, 1e308, 1e308, -1e308, 1.0, -1.0) == 0

    def test_rounded_differences_disagree(self):
        # Seen from (-1e-17, 0) the differences to (1, 1) and (2, 2) round
        # to (1, 1) and (2, 2), which are collinear; the points turn left.
        args = (-1e-17, 0.0, 1.0, 1.0, 2.0, 2.0)
        assert orientation_exact(Point2(*args[:2]), Point2(*args[2:4]),
                                 Point2(*args[4:])) is Sign.ZERO
        assert orient_points_oracle(*args) == 1
        for orient in ORIENTS:
            assert orient(*args) == 1

    def test_edge_value_triples(self):
        rng = random.Random(20261018)
        for _ in range(20_000):
            args = tuple(rng.choice(EDGE_VALUES) for _ in range(6))
            want = orient_points_oracle(*args)
            for orient in ORIENTS:
                assert orient(*args) == want, (orient.__name__, args)

    def test_signed_zeros_exhaustive(self):
        for args in itertools.product((0.0, -0.0, 5e-324), repeat=6):
            want = orient_points_oracle(*args)
            for orient in ORIENTS:
                assert orient(*args) == want, (orient.__name__, args)

    def test_underflowing_products_reordered(self):
        # Both products are subnormal, so rounding them errs by up to half
        # of 2^-1074 each, far beyond the relative bound; with the rounded
        # differences they come out one unit apart in the wrong order.
        # Only the filter's absolute term sends this case to the exact path.
        h = float.fromhex
        args = (h("-0x1.38792b613f371p-556"), 0.0,
                h("0x1.6a7e3c198c20cp-502"), h("0x1.72d0637cc2346p-529"),
                h("0x1.004f98994958ep-502"), h("0x1.0631c7f99c9c6p-529"))
        ax, ay, bx, by, cx, cy = args
        p = (bx - ax) * (cy - ay)
        q = (by - ay) * (cx - ax)
        assert 0.0 < p < 2.0 ** -1022 and p - q == 5e-324
        assert orient_points_oracle(*args) == -1
        for orient in ORIENTS:
            assert orient(*args) == -1

    @settings(max_examples=2000, deadline=None)
    @given(any_finite, any_finite, any_finite, any_finite, any_finite,
           any_finite)
    def test_matches_rational_oracle(self, ax, ay, bx, by, cx, cy):
        want = orient_points_oracle(ax, ay, bx, by, cx, cy)
        for orient in ORIENTS:
            assert orient(ax, ay, bx, by, cx, cy) == want, orient.__name__

    @settings(max_examples=300, deadline=None)
    @given(any_finite, any_finite, any_finite, any_finite)
    def test_collinear_and_antisymmetric(self, ax, ay, bx, by):
        for orient in ORIENTS:
            assert orient(ax, ay, bx, by, ax, ay) == 0
            assert orient(ax, ay, bx, by, bx, by) == 0
            assert orient(ax, ay, bx, by, 0.5, -0.25) == \
                -orient(bx, by, ax, ay, 0.5, -0.25)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_rejected(self, bad):
        for orient in ORIENTS:
            for k in range(6):
                args = [0.0, 0.0, 1.0, 0.0, 0.0, 1.0]
                args[k] = bad
                with pytest.raises(NonFiniteInput):
                    orient(*args)


def _hard_point_sets():
    """Point sets (xs, ys) whose turns the float filter cannot settle."""
    rng = random.Random(20261018)
    a = [rng.gauss(0.0, 10 ** 0.5) for _ in range(10)]
    big, top = 1e308, 1.7976931348623157e308
    return {
        # exactly collinear through the origin, as in a dyadic exact fit
        "dyadic": (a, [-(0.125 * v) for v in a]),
        # near-collinear: each 0.1 * a rounds, as in an exact fit
        "tenths": (a, [0.1 * v for v in a]),
        "duplicates": ([1.0, 1.0, 0.1, 0.1, -2.5, 1.0, 0.1],
                       [0.1, 0.1, 0.3, 0.3, 0.25, 0.1, 0.3]),
        "zeros-subnormals": (
            [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
             -0.0, 1e-323],
            [-0.0, 0.0, 5e-324, 1e-310, -5e-324, 0.0, 1e-323, -1e-310]),
        # differences overflow; the first four and the last two lie on
        # the line y = -x
        "overflowing": ([big, -big, top, -top, 1.0, 0.0, 5e-324, -1e-310],
                        [-big, big, -top, top, -1.0, -0.0, 1.0, 1e308]),
    }


_HARD = _hard_point_sets()


class TestImages:
    """The integer images of a point set, and the turns ``_settle`` takes
    on them, against Fractions."""

    @pytest.mark.parametrize("name", sorted(_HARD))
    def test_images_are_exact_multiples(self, name):
        for vs in _HARD[name]:
            scale = max(Fraction(v).denominator for v in vs)
            got = _images(vs)
            assert all(type(i) is int for i in got)
            assert got == [Fraction(v) * scale for v in vs]

    @pytest.mark.parametrize("name", sorted(_HARD))
    def test_turns_match_fraction_determinant(self, name):
        xs, ys = _HARD[name]
        pts = _ExactPoints(xs, ys)
        mirrored = _ExactPoints(xs, [-y for y in ys], pts)
        for a, b, c in itertools.product(range(len(xs)), repeat=3):
            want = orient_points_oracle(xs[a], ys[a], xs[b], ys[b],
                                        xs[c], ys[c])
            assert _settle(pts, a, b, c) == want, (a, b, c)
            assert _settle(mirrored, a, b, c) == -want, (a, b, c)
        # one set of images, shared with the mirrored points
        assert pts.ints is not None and mirrored.ints is None

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(NonFiniteInput):
                _images([0.0, bad])


class TestProductCompare:
    def test_equal_fractions(self):
        assert exact_product_compare(1, 2, 1, 2) is Sign.ZERO

    def test_simple_positive(self):
        assert exact_product_compare(3, 1, 2, 1) is Sign.POSITIVE

    def test_last_ulp(self):
        eps = 2.0 ** -52
        got = exact_product_compare(1 + eps, 1, 1, 1 - eps)
        assert got is Sign.NEGATIVE  # (1+e)(1-e) - 1 = -e^2 exactly
        assert int(got) == product_compare_oracle(1 + eps, 1, 1, 1 - eps)

    def test_denormal_products(self):
        tiny = 5e-324
        got = exact_product_compare(tiny, tiny, 2 * tiny, 3 * tiny)
        assert int(got) == product_compare_oracle(tiny, tiny, 2 * tiny, 3 * tiny)

    def test_huge_products(self):
        big = 1e300
        got = exact_product_compare(big, big, big, math.nextafter(big, 0.0))
        assert int(got) == product_compare_oracle(
            big, big, big, math.nextafter(big, 0.0))

    @given(finite, finite, finite, finite)
    def test_swap_antisymmetry(self, u1, v1, u2, v2):
        assert int(exact_product_compare(u1, v1, u2, v2)) == \
            -int(exact_product_compare(u2, v2, u1, v1))

    @settings(max_examples=300)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_matches_rational_oracle(self, u1, v1, u2, v2):
        got = exact_product_compare(u1, v1, u2, v2)
        assert int(got) == product_compare_oracle(u1, v1, u2, v2)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            exact_product_compare(float("inf"), 1, 1, 1)


def _slope_bound(p):
    """The least threshold the proof of ``_slope_threshold`` needs after
    the rounded slope ``p``, in rationals: (p + a) / (1 - 6u) + a where
    p + a >= 0, else (p + a)(1 - 6u) + a, with a = 2^-1075."""
    a = Fraction(1, 2 ** 1075)
    u6 = 6 * Fraction(_EPS)
    r = Fraction(p) + a
    return (r / (1 - u6) if r >= 0 else r * (1 - u6)) + a


class TestSlopeThreshold:
    @pytest.mark.parametrize("p", [0.0, -0.0, 5e-324, -5e-324, 1e-323,
                                   -2.2250738585072014e-308, 1.0, -1.0,
                                   2.0 ** -1040, -(2.0 ** -1040),
                                   _SLOPE_MAX / 2, -_SLOPE_MAX * 0.99])
    def test_covers_the_bound(self, p):
        assert Fraction(_slope_threshold(p)) >= _slope_bound(p)

    @settings(max_examples=3000, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False,
                     min_value=-(2.0 ** 999), max_value=2.0 ** 999))
    def test_covers_the_bound_everywhere(self, p):
        t = _slope_threshold(p)
        assert Fraction(t) >= _slope_bound(p)
        # and it stays within 20u (plus the absolute term) of p
        assert abs(Fraction(t) - Fraction(p)) <= \
            20 * Fraction(_EPS) * abs(Fraction(p)) + Fraction(1, 2 ** 1069)

    @pytest.mark.parametrize("p", [float("inf"), float("-inf"),
                                   float("nan"), 2.0 ** 1000,
                                   -(2.0 ** 1001), 1.7976931348623157e308])
    def test_no_threshold_beyond_the_limit(self, p):
        assert math.isnan(_slope_threshold(p))
