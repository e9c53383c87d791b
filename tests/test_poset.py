import random
from fractions import Fraction

import pytest

from arrlab.arrangement import LineArrangement, builtin, cone, decone
from arrlab.poset import (
    IntPolynomial,
    intersection_poset,
    poincare_polynomial,
    splits_over_integers,
)
from arrlab.scalar import RATIONAL

from oracles import (
    essential_random_line_arrangement,
    golden_line_arrangement,
    poly_degree,
    whitney_poincare,
)


def pencil3():
    # x = 0, y = 0, x = y: one triple point
    return LineArrangement(((Fraction(1), Fraction(0), Fraction(0)),
                            (Fraction(0), Fraction(1), Fraction(0)),
                            (Fraction(1), Fraction(-1), Fraction(0))),
                           RATIONAL)


def test_pencil_poset():
    poset = intersection_poset(pencil3())
    sizes = [len(poset.flats_of_rank(r)) for r in range(3)]
    assert sizes == [1, 3, 1]
    point = poset.flats_of_rank(2)[0]
    assert point.hyperplanes == frozenset({0, 1, 2})
    # mu(point) = -(1 + 3 * (-1)) = 2
    assert poset.mobius[point.id] == 2


def test_generic3_poset():
    poset = intersection_poset(builtin("generic3"))
    points = poset.flats_of_rank(2)
    assert len(points) == 3
    assert all(poset.mobius[f.id] == 1 for f in points)


def test_empty_arrangement_poset():
    poset = intersection_poset(LineArrangement((), RATIONAL))
    assert len(poset.flats) == 1
    assert poset.flats[0].rank == 0
    assert poset.poincare_polynomial() == IntPolynomial((1,))


def test_generic3_pi():
    assert str(poincare_polynomial(builtin("generic3"))) == "1 + 3t + 3t^2"


def test_central_poset_of_icosi(icosi):
    poset = intersection_poset(icosi)
    assert len(poset.flats_of_rank(1)) == 16
    assert len(poset.flats_of_rank(3)) == 1
    origin = poset.flats_of_rank(3)[0]
    assert origin.hyperplanes == frozenset(range(16))
    # axis multiplicities: 30 double, 15 quadruple
    mults = sorted(len(f.hyperplanes) for f in poset.flats_of_rank(2))
    assert mults.count(2) == 30 and mults.count(4) == 15


def test_whitney_oracle_on_corpus(icosi, lid):
    corpus = [builtin("boolean2"), builtin("generic3"), pencil3(),
              builtin("boolean3"),
              cone(builtin("generic3"))]
    rng = random.Random(11)
    for _ in range(10):
        corpus.append(essential_random_line_arrangement(
            rng, rng.randint(2, 6)))
    # restricted deconings of L_ID keep it under the oracle size bound
    corpus.append(LineArrangement(lid.lines[:7], lid.field))
    for arr in corpus:
        n = len(getattr(arr, "lines", getattr(arr, "planes", ())))
        assert n <= 7
        assert poincare_polynomial(arr) == whitney_poincare(arr)


def test_line_t2_coefficient_counts_multiplicities(lid):
    rng = random.Random(23)
    for arr in [builtin("generic3"), pencil3(), lid] + [
            essential_random_line_arrangement(rng, rng.randint(2, 6))
            for _ in range(10)]:
        poset = intersection_poset(arr)
        expected = sum(len(f.hyperplanes) - 1
                       for f in poset.flats_of_rank(2))
        assert poset.poincare_polynomial().coeff(2) == expected


def test_coning_identity_random():
    rng = random.Random(5)
    one_plus_t = IntPolynomial((1, 1))
    for _ in range(20):
        arr = essential_random_line_arrangement(rng, rng.randint(2, 6))
        assert poincare_polynomial(cone(arr)) == \
            one_plus_t * poincare_polynomial(arr)


def test_deconing_identity():
    # pi(A, t) = (1 + t) pi(dA, t) at every plane of a central arrangement
    # (Orlik-Terao, Prop. 2.51), which lets analyze build one poset
    rng = random.Random(12)
    one_plus_t = IntPolynomial((1, 1))
    cases = [(builtin(name), range(len(builtin(name))))
             for name in ("icosidodecahedral", "boolean3")]
    for _ in range(20):
        for arr in (essential_random_line_arrangement(rng, rng.randint(2, 6)),
                    golden_line_arrangement(rng, rng.randint(2, 6))):
            coned = cone(arr)
            cases.append((coned, rng.sample(range(len(coned)), 3)))
    for arr, planes in cases:
        pi = poincare_polynomial(arr)
        for i in planes:
            assert pi == one_plus_t * poincare_polynomial(decone(arr, i))


def test_deletion_never_increases_coefficients():
    rng = random.Random(13)
    for _ in range(10):
        arr = essential_random_line_arrangement(rng, rng.randint(3, 6))
        pi = poincare_polynomial(arr)
        for drop in range(len(arr.lines)):
            rest = LineArrangement(
                tuple(ln for i, ln in enumerate(arr.lines) if i != drop),
                arr.field)
            pi_rest = poincare_polynomial(rest)
            assert all(pi_rest.coeff(k) <= pi.coeff(k)
                       for k in range(poly_degree(pi) + 1))


def test_nonnegative_coefficients(icosi, lid):
    for arr in (icosi, lid, builtin("generic3")):
        pi = poincare_polynomial(arr)
        assert all(c >= 0 for c in pi.coeffs)


# -- integer splitting --------------------------------------------------------

def test_split_of_icosi_poly_is_none():
    assert splits_over_integers(IntPolynomial((1, 16, 75, 60))) is None


def test_split_of_cube():
    assert splits_over_integers(IntPolynomial((1, 3, 3, 1))) == (1, 1, 1)


def test_split_simple():
    assert splits_over_integers(IntPolynomial((1, 3, 2))) == (1, 2)


def test_split_positive_control():
    # (1+t)(1+2t)(1+3t) = 1 + 6t + 11t^2 + 6t^3
    p = IntPolynomial((1, 1)) * IntPolynomial((1, 2)) * IntPolynomial((1, 3))
    assert p == IntPolynomial((1, 6, 11, 6))
    assert splits_over_integers(p) == (1, 2, 3)


def test_split_constant_one():
    assert splits_over_integers(IntPolynomial((1,))) == ()


def test_split_rejects_negative_leading_coefficient():
    assert splits_over_integers(IntPolynomial((1, -1))) is None


def test_poset_rejects_non_arrangement():
    with pytest.raises(TypeError, match="not an arrangement: tuple"):
        intersection_poset(((1, 0, 0), (0, 1, 0)))


def test_split_requires_unit_constant_term():
    with pytest.raises(ValueError):
        splits_over_integers(IntPolynomial((2, 1)))


def test_split_matches_product_on_randoms():
    rng = random.Random(3)
    for _ in range(30):
        ds = sorted(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        p = IntPolynomial((1,))
        for d in ds:
            p = p * IntPolynomial((1, d))
        assert splits_over_integers(p) == tuple(ds)


def test_polynomial_str():
    assert str(IntPolynomial((1, 15, 60))) == "1 + 15t + 60t^2"
    assert str(IntPolynomial((1, 1))) == "1 + t"
    assert str(IntPolynomial(())) == "0"
    assert str(IntPolynomial((0, -1, 2))) == "-t + 2t^2"
