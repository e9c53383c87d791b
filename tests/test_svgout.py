import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import isqrt

from arrlab import svgout
from arrlab.arrangement import LineArrangement
from arrlab.cells import build_complex
from arrlab.scalar import RATIONAL, GoldenScalar
from arrlab.svgout import (_approximation, _bbox, _clip_line, decimal_str,
                           render_svg)

from oracles import decimal_str_reference, random_line_arrangement


def _signed(rng, magnitude, scale):
    return rng.choice((1, -1)) * magnitude * Fraction(10) ** scale


def _rational(rng, digits):
    num = rng.randrange(10 ** (digits - 1), 10 ** digits)
    den = rng.randrange(1, 10 ** rng.randint(1, digits))
    return _signed(rng, Fraction(num, den), 0)


def _rational_samples(rng):
    # rationals of 1-30 digits in numerator, any denominator
    for _ in range(4000):
        yield _rational(rng, rng.randint(1, 30))
    # exact 12-digit ties: 13 significant digits ending in 5, at any scale
    for _ in range(2000):
        tie = rng.randrange(10 ** 11, 10 ** 12) * 10 + 5
        yield _signed(rng, tie, rng.randint(-20, 8))
    # carries: 12 nines then a digit at or past the rounding point
    for _ in range(1000):
        carry = (10 ** 12 - 1) * 10 + rng.randint(5, 9)
        yield _signed(rng, carry, rng.randint(-20, 8))
    yield Fraction(9999999999995, 10 ** 12)
    yield Fraction(0)
    yield Fraction(-1, 3)


def _samples(rng):
    # rational scalars are golden scalars with b = 0
    for x in _rational_samples(rng):
        yield GoldenScalar(x)
    # golden scalars, through the same sqrt5 approximation
    for _ in range(3000):
        yield GoldenScalar(_rational(rng, rng.randint(1, 12)),
                           _rational(rng, rng.randint(1, 12)))
    yield GoldenScalar(0, 0)


def test_golden_to_fraction_is_a_plus_b_times_sqrt5_approximation():
    sqrt5 = Fraction(isqrt(5 * 10 ** 80), 10 ** 40)
    for x in _samples(random.Random(7)):
        assert Fraction(*_approximation(x)) == x.a + x.b * sqrt5


def test_decimal_str_matches_digit_loop():
    rng = random.Random(20261018)
    values = list(_samples(rng))
    assert len(values) >= 10 ** 4
    for x in values:
        assert decimal_str(x) == \
            decimal_str_reference(Fraction(*_approximation(x))), x
    # the samples reach every branch of the reference: carries, ties,
    # large and small exponents, zero
    g = GoldenScalar
    assert decimal_str(g(Fraction(9999999999995, 10 ** 12))) == "10"
    assert decimal_str(g(10 ** 12 + 5)) == "1000000000000"
    assert decimal_str(g(10 ** 12 + 15)) == "1000000000020"
    assert decimal_str(g(Fraction(-1, 3))) == "-0.333333333333"
    assert decimal_str(GoldenScalar(0, 1)) == "2.2360679775"


def _no_vertex_and_pencil_inputs():
    f = Fraction
    parallel = LineArrangement(tuple((f(1), f(2), f(c)) for c in (-1, 0, 3)),
                               RATIONAL)
    pencil = LineArrangement(tuple((f(a), f(b), f(a + b))
                                   for a, b in ((1, 0), (0, 1), (1, 1),
                                                (1, -2))), RATIONAL)
    one = LineArrangement(((f(0), f(3), f(1)),), RATIONAL)
    return [parallel, pencil, one]


def test_every_line_crosses_the_box(lid):
    # the box holds every vertex, or every anchor point when no two lines
    # meet, so each line's clip is a proper chord with ends on the boundary
    rng = random.Random(31)
    arrangements = _no_vertex_and_pencil_inputs() + [lid] + [
        random_line_arrangement(rng, rng.randint(1, 7),
                                coeff_range=rng.choice((1, 3)))
        for _ in range(150)]
    for arr in arrangements:
        box = xmin, xmax, ymin, ymax = _bbox(build_complex(arr), arr)
        for ln in arr.lines:
            a, b = _clip_line(ln, box)
            assert a != b
            for x, y in (a, b):
                assert ln.contains((x, y))
                assert xmin <= x <= xmax and ymin <= y <= ymax
                assert x in (xmin, xmax) or y in (ymin, ymax)


def test_render_draws_every_line_without_vertices():
    for arr in _no_vertex_and_pencil_inputs():
        root = ET.fromstring(render_svg(arr, gamma=True))
        lines = [e for e in root if e.tag.endswith("line")]
        assert len(lines) == len(arr.lines)


def test_render_formats_each_vertex_once(lid, monkeypatch):
    # the icosidodecahedral section with Gamma: every vertex lies on several
    # bounded faces and edges, and its coordinates are formatted once
    formatted = []
    xy = svgout._xy
    monkeypatch.setattr(svgout, "_xy",
                        lambda point: formatted.append(point) or xy(point))
    render_svg(lid, gamma=True)
    assert formatted == [v.point for v in build_complex(lid).vertices]
