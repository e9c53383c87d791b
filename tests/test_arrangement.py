import hashlib
import importlib.util
import operator
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrlab import arrangement, cells
from arrlab.arrangement import (
    AffineLine,
    ArrangementError,
    CentralArrangement,
    CentralPlane,
    LineArrangement,
    ParseError,
    build_icosidodecahedral,
    builtin,
    cone,
    cross3,
    decone,
    default_decone_index,
    intersection_points,
    meet_groups,
    parse_arrangement,
    serialize_arrangement,
)
from arrlab.poset import (_central_flats, intersection_poset,
                          poincare_polynomial)
from arrlab.scalar import (GOLDEN, GoldenScalar, PHI, RATIONAL, ScalarError,
                           _golden)

from oracles import (
    central_axes_reference,
    crossings_reference,
    essential_random_line_arrangement,
    large_seeded_inputs,
    matrix_rank,
    sign,
)


def poset_signature(poset):
    return {(f.rank, f.hyperplanes) for f in poset.flats}


def test_line_normalization():
    ln = AffineLine(Fraction(2), Fraction(4), Fraction(6))
    assert ln.coeffs() == (1, 2, 3)
    ln = AffineLine(Fraction(0), Fraction(-2), Fraction(4))
    assert ln.coeffs() == (0, 1, -2)
    with pytest.raises(ArrangementError):
        AffineLine(Fraction(0), Fraction(0), Fraction(1))


def test_plane_normalization():
    pl = CentralPlane(GoldenScalar(0), PHI, GoldenScalar(1))
    n = pl.normal()
    assert n[0] == 0 and n[1] == 1
    assert n[2] == 1 / PHI


def test_duplicate_lines_rejected():
    with pytest.raises(ArrangementError):
        LineArrangement(((Fraction(1), Fraction(0), Fraction(0)),
                         (Fraction(2), Fraction(0), Fraction(0))), RATIONAL)


def test_central_arrangement_rejects_bad_data():
    x, y = (Fraction(1), Fraction(0), Fraction(0)), (0, Fraction(2), 0)
    with pytest.raises(ArrangementError, match="duplicate plane"):
        CentralArrangement((x, y, (Fraction(3), 0, 0)), RATIONAL)
    with pytest.raises(ArrangementError, match="label count"):
        CentralArrangement((x, y), RATIONAL, ("edge",))


def test_icosidodecahedral_shape(icosi):
    assert len(icosi.planes) == 16
    assert icosi.labels.count("edge") == 6
    assert icosi.labels.count("diagonal") == 10
    assert icosi.field == GOLDEN
    assert len(set(icosi.planes)) == 16
    assert icosi.rank() == 3


def test_icosidodecahedral_deterministic():
    a = serialize_arrangement(build_icosidodecahedral())
    b = serialize_arrangement(build_icosidodecahedral())
    assert a == b


def test_default_decone_is_edge_plane(icosi):
    idx = default_decone_index(icosi)
    assert icosi.labels[idx] == "edge"
    assert all(lab != "edge" for lab in icosi.labels[:idx])


def test_decone_counts(icosi, lid):
    assert len(lid.lines) == 15
    # deconing at any edge plane gives 15 lines
    for i, lab in enumerate(icosi.labels):
        if lab == "edge":
            assert len(decone(icosi, i).lines) == 15


def test_decone_boolean3():
    b3 = builtin("boolean3").canonical()
    # canonical order puts z = 0 first; decone there leaves x = 0, y = 0
    assert b3.planes[0].normal() == (0, 0, 1)
    section = decone(b3, 0)
    assert sorted(ln.coeffs() for ln in section.lines) == [
        (0, 1, 0), (1, 0, 0)]


def test_decone_index_out_of_range(icosi):
    with pytest.raises(ArrangementError):
        decone(icosi, 16)
    with pytest.raises(ArrangementError):
        decone(icosi, -1)


def test_decone_requires_rank3():
    pencil = CentralArrangement(((Fraction(1), Fraction(0), Fraction(0)),
                                 (Fraction(0), Fraction(1), Fraction(0)),
                                 (Fraction(1), Fraction(1), Fraction(0))),
                                RATIONAL)
    assert pencil.rank() == 2
    with pytest.raises(ArrangementError):
        decone(pencil, 0)


def test_intersection_points_sorted_with_incident_lines():
    # x = 0, y = 0 and x + y = 0 meet at the origin; x = 1 crosses two of
    # them and is parallel to the first
    arr = LineArrangement(((Fraction(1), Fraction(0), Fraction(0)),
                           (Fraction(0), Fraction(1), Fraction(0)),
                           (Fraction(1), Fraction(1), Fraction(0)),
                           (Fraction(1), Fraction(0), Fraction(1))),
                          RATIONAL)
    assert list(intersection_points(arr).items()) == [
        ((0, 0), frozenset({0, 1, 2})),
        ((1, -1), frozenset({2, 3})),
        ((1, 0), frozenset({1, 3})),
    ]


def test_cone_appends_infinity_plane():
    g3 = builtin("generic3")
    c = cone(g3)
    assert len(c.planes) == 4
    assert c.planes[-1].normal() == (0, 0, 1)


def test_cone_of_empty():
    empty = LineArrangement((), RATIONAL)
    c = cone(empty)
    assert len(c.planes) == 1
    assert c.planes[0].normal() == (0, 0, 1)


def test_cone_decone_round_trip_posets():
    rng = random.Random(7)
    for _ in range(12):
        arr = essential_random_line_arrangement(rng, rng.randint(2, 5))
        arr = arr.canonical()
        back = decone(cone(arr), len(arr.lines))
        assert poset_signature(intersection_poset(arr)) == \
            poset_signature(intersection_poset(back))


def _decone_plane_map(arr, index):
    """Which decone line each plane becomes (replicates the construction)."""
    from arrlab.arrangement import dot3
    n = arr.planes[index].normal()
    k = next(i for i in range(3) if sign(n[i]) != 0)
    one = GoldenScalar(1) if arr.field == GOLDEN else Fraction(1)
    zero = one - one

    def unit(i):
        return tuple(one if j == i else zero for j in range(3))

    span = [tuple((one if j == i else zero)
                  - (n[i] / n[k]) * (one if j == k else zero)
                  for j in range(3))
            for i in range(3) if i != k]
    basis = [span[0], span[1], unit(k)]
    section = decone(arr, index)
    line_index = {ln.coeffs(): i for i, ln in enumerate(section.lines)}
    mapping = {}
    for j, pl in enumerate(arr.planes):
        if j == index:
            continue
        m = pl.normal()
        ln = AffineLine(dot3(m, basis[0]), dot3(m, basis[1]),
                        -dot3(m, basis[2]))
        mapping[j] = line_index[ln.coeffs()]
    return section, mapping


def test_cone_decone_of_central_is_isomorphic(icosi):
    """cone(decone(A, i)) has the same intersection poset as A, via the
    tracked plane -> line -> plane bijection."""
    index = default_decone_index(icosi)
    section, mapping = _decone_plane_map(icosi, index)
    coned = cone(section)
    # plane j of icosi corresponds to plane mapping[j] of coned; the chosen
    # plane goes to the appended plane at infinity
    mapping = dict(mapping)
    mapping[index] = len(coned.planes) - 1
    sig_a = poset_signature(intersection_poset(icosi))
    sig_b = poset_signature(intersection_poset(coned))
    translated = {(r, frozenset(mapping[i] for i in hset))
                  for r, hset in sig_a}
    assert translated == sig_b


def test_coning_identity_on_lid(icosi, lid):
    from arrlab.poset import IntPolynomial
    pi_l = poincare_polynomial(lid)
    pi_a = poincare_polynomial(icosi)
    assert IntPolynomial((1, 1)) * pi_l == pi_a


def test_every_builtin_plane_is_central(icosi):
    # all planes pass through the origin by construction: n . 0 = 0 always;
    # the real content is that normals are nonzero and distinct
    for pl in icosi.planes:
        assert any(sign(c) != 0 for c in pl.normal())


# -- file format -------------------------------------------------------------

def test_parse_simple_line_file():
    arr = parse_arrangement("field rational\nline 1 0 0\nline 0 1 0\n")
    assert isinstance(arr, LineArrangement)
    assert len(arr.lines) == 2
    assert arr.lines[0].coeffs() == (1, 0, 0)


def test_parse_golden_plane_file():
    arr = parse_arrangement(
        "field golden\nplane 0 1 1/2~1/2\nplane 1 0 0\n")
    assert isinstance(arr, CentralArrangement)
    assert arr.planes[0].normal()[2] == PHI


def test_parse_comments_and_blanks():
    arr = parse_arrangement(
        "# header\nfield rational\n\nline 1 0 0  # the y axis\n")
    assert len(arr.lines) == 1


def test_parse_duplicate_rejected():
    with pytest.raises(ParseError):
        parse_arrangement("field rational\nline 1 0 0\nline 1 0 0\n")
    # equal after normalization, reported on the later line
    with pytest.raises(ParseError) as err:
        parse_arrangement("field golden\nplane 0 1 0\nplane 1 0 0\n"
                          "# a comment\nplane 0 2 0\n")
    assert err.value.lineno == 5
    assert str(err.value) == "line 5: duplicate plane (after normalization)"


@pytest.mark.parametrize("cls, text", [
    (AffineLine, "field golden\nline 2 4 1~1\nline 0 3 1/2\nline 1 1 1\n"),
    (CentralPlane, "field golden\nplane 0 1 1/2~1/2\nplane 2 0 0\n"
                   "plane 1 1 1\n"),
], ids=["lines", "planes"])
def test_parse_builds_each_cell_once(monkeypatch, cls, text):
    built = []
    post_init = cls.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)
    monkeypatch.setattr(cls, "__post_init__", counted)
    arr = parse_arrangement(text)
    cells = arr.planes if cls is CentralPlane else arr.lines
    assert len(built) == 3 and all(map(operator.is_, built, cells))
    # kept cells are still checked against the field
    with pytest.raises(ScalarError):
        type(arr)(cells, RATIONAL)


def test_parse_zero_normal_rejected():
    with pytest.raises(ParseError):
        parse_arrangement("field rational\nline 0 0 1\n")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_arrangement("field rational\nline 1 0\n")
    assert err.value.lineno == 2


def test_parse_mixed_kinds_rejected():
    with pytest.raises(ParseError):
        parse_arrangement("field rational\nline 1 0 0\nplane 1 0 0\n")


def test_parse_bad_field():
    with pytest.raises(ParseError):
        parse_arrangement("field real\nline 1 0 0\n")


@pytest.mark.parametrize("text, lineno", [
    ("field rational\nline \u0661 0 0\n", 2),
    ("field golden\nline 1 0~\u0660 0\n", 2),
    ("line 1 0 0\n", 1),
    ("field rational\npoint 1 0 0\n", 2),
    ("", 1),
    ("# no rows\n\n", 1),
], ids=["arabic-indic-digit", "arabic-indic-golden", "no-field-row",
        "unknown-keyword", "empty", "comments-only"])
def test_parse_errors(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_arrangement(text)
    assert err.value.lineno == lineno


def test_serialize_round_trip(icosi, lid):
    for arr in (icosi, lid, builtin("generic3")):
        text = serialize_arrangement(arr)
        again = parse_arrangement(text)
        assert serialize_arrangement(again) == text


def random_scalar(rng, field, nonzero=False):
    while True:
        x = (Fraction(rng.randint(-3, 3), rng.randint(1, 2))
             if field == RATIONAL
             else GoldenScalar(rng.randint(-2, 2), rng.randint(-1, 1)))
        if not nonzero or sign(x):
            return x


def random_planes(rng, field, count, axis=None):
    """`count` distinct planes over `field`, all through `axis` if given."""
    planes = set()
    while len(planes) < count:
        n = tuple(random_scalar(rng, field) for _ in range(3))
        if axis is not None:
            n = cross3(axis, n)
        if any(sign(c) for c in n):
            planes.add(CentralPlane(*n))
    return CentralArrangement(tuple(sorted(planes, key=CentralPlane.normal)),
                              field)


def test_rank_matches_gaussian_elimination(icosi):
    rng = random.Random(21)
    cases = [CentralArrangement(planes, GOLDEN)
             for planes in combinations(icosi.planes, 3)]
    for field in (RATIONAL, GOLDEN):
        cases += [random_planes(rng, field, count)
                  for count in (0, 1, 2) for _ in range(5)]
        for _ in range(20):
            axis = tuple(random_scalar(rng, field, nonzero=True)
                         for _ in range(3))
            cases.append(random_planes(rng, field, rng.randint(3, 5), axis))
            cases.append(random_planes(rng, field, rng.randint(3, 6)))
    ranks = Counter()
    for arr in cases:
        ranks[arr.rank()] += 1
        assert arr.rank() == matrix_rank([pl.normal() for pl in arr.planes])
    assert sorted(ranks) == [0, 1, 2, 3]
    assert ranks[2] > 40 and ranks[3] > 40


def test_is_parallel_matches_determinant():
    rng = random.Random(22)
    for field in (RATIONAL, GOLDEN):
        family = []
        for _ in range(6):
            a, b = (random_scalar(rng, field) for _ in range(2))
            if not (sign(a) or sign(b)):
                continue
            # scaled copies of one normal with several offsets
            for _ in range(rng.randint(1, 3)):
                k = random_scalar(rng, field, nonzero=True)
                family.append(AffineLine(k * a, k * b,
                                         random_scalar(rng, field)))
        outcomes = Counter()
        for p, q in combinations(family, 2):
            det_zero = sign(p.a * q.b - p.b * q.a) == 0
            assert p.is_parallel(q) == det_zero == q.is_parallel(p)
            outcomes[det_zero] += 1
        assert outcomes[True] and outcomes[False]


# -- crossing points and plane axes ------------------------------------------

def _meet_scalar(rng, field, big):
    """A coefficient: a small fraction, or one with a denominator of up to
    ten digits when ``big``; over Q(sqrt5) most also get a sqrt5 part."""
    def rational():
        if big:
            return Fraction(rng.randint(-10 ** 9, 10 ** 9),
                            rng.randint(1, 10 ** 9))
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if field == GOLDEN and rng.random() < 0.6:
        return GoldenScalar(rational(), rational())
    return GoldenScalar(rational())


def meet_corpus():
    """300 seeded line arrangements of 3-14 lines over Q and Q(sqrt5):
    mixed lines with forced parallel classes, concurrent pencils, vertical
    and horizontal lines, and some with large denominators; every tenth is
    one parallel class, every seventh a pencil through one point."""
    rng = random.Random(26)
    one, zero = GoldenScalar(1), GoldenScalar(0)
    corpus = []
    for k in range(300):
        field = (RATIONAL, GOLDEN)[k % 2]
        big = rng.random() < 0.2

        def s():
            return _meet_scalar(rng, field, big)
        centers = [(s(), s()) for _ in range(rng.randint(1, 2))]
        n = rng.randint(3, 14)
        lines = {}
        while len(lines) < n:
            kind = ("parallel" if k % 10 == 0 else "pencil" if k % 7 == 0
                    else rng.choice(("generic", "vertical", "horizontal",
                                     "parallel", "pencil")))
            a, b = s(), s()
            if kind == "vertical":
                a, b = one, zero
            elif kind == "horizontal":
                a, b = zero, one
            elif kind == "parallel" and lines:
                a, b = rng.choice(list(lines)).coeffs()[:2]
            if not a and not b:
                continue
            x0, y0 = rng.choice(centers)
            c = a * x0 + b * y0 if kind == "pencil" else s()
            lines.setdefault(AffineLine(a, b, c))
        corpus.append(LineArrangement(tuple(lines), field))
    return corpus


def meet_text(arr):
    """The arrangement, its crossing points with the lines through each,
    and the flats of its cone, one per line."""
    out = [serialize_arrangement(arr)]
    for (x, y), on in intersection_points(arr).items():
        out.append(f"point {x._p} {x._q} {x._d} {y._p} {y._q} {y._d} "
                   f"{sorted(on)}\n")
    for f in _central_flats(cone(arr)):
        out.append(f"flat {f.rank} {sorted(f.hyperplanes)}\n")
    return "".join(out)


POINTS_SHA256 = (
    "a76b7a0a9d9f19ed302338d8a8b8d514329ce5cac5eb77d33264a7470280ea76")


def test_points_and_axes_are_pinned():
    digest = hashlib.sha256()
    seen = Counter()
    for arr in meet_corpus():
        digest.update(meet_text(arr).encode())
        points = intersection_points(arr)
        seen[arr.field] += 1
        seen["no point"] += not points
        seen["pencil"] += any(len(on) >= 3 for on in points.values())
        seen["parallel"] += any(p.is_parallel(q) for p, q in
                                combinations(arr.lines, 2))
        seen["vertical"] += any(not ln.b for ln in arr.lines)
        seen["horizontal"] += any(not ln.a for ln in arr.lines)
        seen["large denominator"] += any(
            x._d > 10 ** 6 for ln in arr.lines for x in ln.coeffs())
    # the corpus reaches every shape the kernel separates
    assert len(seen) == 8 and all(seen.values()), seen
    assert digest.hexdigest() == POINTS_SHA256


# rational parts: small ones meet often in pencils and parallel classes,
# large ones clear to big ints
_small_st = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
_large_st = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                      st.integers(1, 10 ** 12))


def _line_arrangement_st(field):
    part = st.one_of(_small_st, _small_st, _large_st)
    scalar = st.builds(GoldenScalar, part,
                       st.just(0) if field == RATIONAL
                       else st.one_of(st.just(0), _small_st))
    line = st.tuples(scalar, scalar, scalar).filter(lambda t: t[0] or t[1])
    return st.lists(line, max_size=9).map(
        lambda rows: LineArrangement(
            tuple(dict.fromkeys(AffineLine(*t) for t in rows)), field))


def check_meets_against_references(arr):
    """Crossing points and cone axes equal the GoldenScalar loops of the
    oracles: items, order, types, canonical triples and hashes."""
    points = intersection_points(arr)
    expected = crossings_reference(arr.lines)
    assert list(points.items()) == list(expected.items())
    for point, ref in zip(points, expected):
        for x, r in zip(point, ref):
            assert type(x) is GoldenScalar
            assert (x._p, x._q, x._d) == (r._p, r._q, r._d)
            assert x._d > 0 and gcd(x._p, x._q, x._d) == 1
            assert hash(x) == hash(r)
    coned = cone(arr)
    axes = central_axes_reference(coned)
    meets = meet_groups([pl.normal() for pl in coned.planes], affine=False)
    # each key stands for its axis scaled to a first nonzero entry of 1
    assert [(tuple(_golden(k[i], k[i + 1], k[6]) for i in (0, 2, 4)), on)
            for k, on in meets] == list(axes.items())
    assert [f.hyperplanes for f in _central_flats(coned) if f.rank == 2] \
        == list(axes.values())


@given(st.sampled_from((RATIONAL, GOLDEN)).flatmap(_line_arrangement_st))
@settings(max_examples=60, deadline=None)
def test_meets_match_the_reference_loops(arr):
    check_meets_against_references(arr)


def test_meets_of_parallel_classes_pencils_and_rank_2(monkeypatch):
    g = GoldenScalar
    parallel = LineArrangement(tuple((1, PHI, g(c, 1)) for c in range(-2, 3)),
                               GOLDEN)
    # every line through (1/3, -phi)
    x0, y0 = g(Fraction(1, 3)), -PHI
    pencil = LineArrangement(tuple((a, b, a * x0 + b * y0) for a, b in (
        (g(1), g(0)), (g(0), g(1)), (g(1), PHI), (g(2, -1), g(1, 3)),
        (PHI, g(-5)))), GOLDEN)
    for arr in (parallel, pencil):
        check_meets_against_references(arr)
    assert not intersection_points(parallel)
    assert list(intersection_points(pencil).values()) == [frozenset(range(5))]
    # no crossing point: the complex is the strips between the lines
    built = []
    strips = cells._parallel_pencil_complex
    monkeypatch.setattr(cells, "_parallel_pencil_complex",
                        lambda arr: built.append(arr) or strips(arr))
    assert len(cells.build_complex(parallel).faces) == 6 and built
    # planes through one axis: one flat of rank 2 holds them all
    axis = (g(0), g(2), g(1, -1))
    planes = random_planes(random.Random(26), GOLDEN, 5, axis)
    assert planes.rank() == 2
    assert [(f.rank, f.hyperplanes) for f in _central_flats(planes)][6:] == \
        [(2, frozenset(range(5)))]


def _meet_inputs():
    """Rows and the ``affine`` flag of meet_groups: the duals of the seeded
    24-line inputs over Q and Q(sqrt5), and the icosidodecahedral planes."""
    inputs = large_seeded_inputs()
    rows = {name: ([(ln.a, ln.b, -ln.c) for ln in inputs[name].lines], True)
            for name in ("rational24", "golden24")}
    rows["icosidodecahedral"] = (
        [pl.normal() for pl in build_icosidodecahedral().planes], False)
    return rows


@pytest.mark.parametrize("name", ("rational24", "golden24",
                                  "icosidodecahedral"))
def test_preorder_cannot_change_the_meet_order(name, monkeypatch):
    rows, affine = _meet_inputs()[name]
    expected = meet_groups(rows, affine)
    rough = arrangement._preorder_key
    # every key equal: the exact sort starts from the order of discovery
    monkeypatch.setattr(arrangement, "_preorder_key", lambda key: 0)
    assert meet_groups(rows, affine) == expected
    # the exact sort starts from the reverse of the real order
    monkeypatch.setattr(arrangement, "_preorder_key",
                        lambda key: tuple(-c for c in rough(key)))
    assert meet_groups(rows, affine) == expected


def _geometry_inputs():
    """The four inputs of group 0 of the benchmark's geometry workload at
    seed 1: the 30-line rational and golden arrangements of
    perfbench/gen.py, each as the rows of its crossings and of its cone's
    axes."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = random.Random("geometry:1")
    for golden in (False, True):
        arr = gen.to_arrangement(gen.random_lines(rng, 30, 4, golden), golden)
        yield [(ln.a, ln.b, -ln.c) for ln in arr.lines], True
        yield [pl.normal() for pl in cone(arr).planes], False


def test_preorder_leaves_one_comparison_per_point(monkeypatch):
    exact = arrangement._key_order
    calls = []

    def counted(u, v):
        calls.append(None)
        return exact(u, v)
    monkeypatch.setattr(arrangement, "_key_order", counted)
    for rows, affine in _geometry_inputs():
        calls.clear()
        points = len(meet_groups(rows, affine))
        # a sort from scratch makes about 7 per point on these inputs
        assert points > 300 and len(calls) <= 2 * points
