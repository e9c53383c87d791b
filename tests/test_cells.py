import hashlib
import random
import warnings
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from itertools import product

import pytest

from arrlab.arrangement import (
    ArrangementError,
    CentralArrangement,
    CentralPlane,
    LineArrangement,
    builtin,
    cone,
    decone,
    default_decone_index,
)
from arrlab.cells import (
    CYCLE,
    MULTIPATH,
    PATH,
    Corner,
    bounded_complex,
    build_complex,
    chamber_walls,
    face_census,
    gamma_of,
    is_simplicial,
)
from arrlab.poset import intersection_poset
from arrlab.scalar import GOLDEN, RATIONAL, GoldenScalar

from oracles import (
    chamber_wall_counts,
    direction_cmp,
    essential_random_line_arrangement,
    golden_line_arrangement,
    line_orders_by_sort,
    poly_value,
    random_line_arrangement,
    sign,
)

F = Fraction


def lines(*rows):
    return LineArrangement(tuple((F(a), F(b), F(c)) for a, b, c in rows),
                           RATIONAL)


def test_generic3_complex_census():
    cx = build_complex(builtin("generic3"))
    assert len(cx.vertices) == 3
    assert sum(1 for e in cx.edges if e.bounded) == 3
    assert sum(1 for e in cx.edges if e.kind == "ray") == 6
    assert len(cx.bounded_faces()) == 1
    assert sum(1 for f in cx.faces if not f.bounded) == 6
    triangle = cx.bounded_faces()[0]
    assert triangle.size == 3
    assert len(triangle.boundary_lines) == 3


def test_single_line_complex():
    cx = build_complex(lines((1, 0, 0)))
    assert len(cx.vertices) == 0
    assert len(cx.bounded_faces()) == 0
    assert sum(1 for f in cx.faces if not f.bounded) == 2
    gam = bounded_complex(cx)
    assert not gam.edges and not gam.faces and not gam.corners


def test_empty_arrangement_rejected():
    with pytest.raises(ArrangementError):
        build_complex(LineArrangement((), RATIONAL))


def test_parallel_strips():
    cx = build_complex(lines((1, 0, 0), (1, 0, 1), (1, 0, 2)))
    assert len(cx.vertices) == 0
    assert len(cx.faces) == 4
    inner = [f for f in cx.faces if len(f.boundary_lines) == 2]
    outer = [f for f in cx.faces if len(f.boundary_lines) == 1]
    assert len(inner) == 2 and len(outer) == 2


def test_pencil_sectors():
    # three concurrent lines: 6 unbounded sector faces, no bounded cells
    cx = build_complex(lines((1, 0, 0), (0, 1, 0), (1, -1, 0)))
    assert len(cx.vertices) == 1
    assert len(cx.faces) == 6
    assert all(not f.bounded for f in cx.faces)
    gam = bounded_complex(cx)
    lk = gam.link(0)
    assert lk.length == 0 and not lk.components


def test_generic3_corners_and_links():
    gam = gamma_of(builtin("generic3"))
    assert len(gam.corners) == 3
    assert sorted((c.vertex, c.face) for c in gam.corners) == [
        (0, 0), (1, 0), (2, 0)]
    for v in (0, 1, 2):
        lk = gam.link(v)
        assert lk.shape == PATH
        assert lk.length == 2
        assert len(lk.components) == 1
        assert len(lk.components[0].corners) == 1


def test_interior_vertex_cycle_link():
    # x=0 and y=0 boxed in by four lines: the center becomes an interior
    # vertex of multiplicity 2 with all four surrounding faces bounded
    arr = lines((1, 0, 0), (0, 1, 0),
                (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1))
    gam = gamma_of(arr)
    center = next(v for v in gam.vertices if v.point == (F(0), F(0)))
    lk = gam.link(center.id)
    assert lk.shape == CYCLE
    assert lk.length == 4  # 2m for m = 2
    assert lk.multiplicity == 2
    comp = lk.components[0]
    assert len(comp.corners) == 4  # cyclic labels


def test_counts_match_poset(lid):
    rng = random.Random(77)
    cases = [builtin("generic3"), lid] + [
        essential_random_line_arrangement(rng, rng.randint(2, 6))
        for _ in range(12)]
    for arr in cases:
        cx = build_complex(arr)
        poset = intersection_poset(arr)
        pi = poset.poincare_polynomial()
        points = poset.flats_of_rank(2)
        assert len(cx.vertices) == len(points)
        # all faces, Zaslavsky-style: pi(1); bounded faces: pi(-1)
        assert len(cx.faces) == poly_value(pi, 1)
        assert len(cx.bounded_faces()) == poly_value(pi, -1)
        # segment edges: sum of (points on line - 1)
        per_line = Counter()
        for v in cx.vertices:
            for i in v.lines:
                per_line[i] += 1
        segments = sum(max(k - 1, 0) for k in per_line.values())
        assert sum(1 for e in cx.edges if e.bounded) == segments
        # vertex multiplicities against the t^2 coefficient
        assert sum(v.multiplicity - 1 for v in cx.vertices) == pi.coeff(2)


def test_euler_relation_gamma(lid):
    gam = bounded_complex(build_complex(lid))
    assert len(gam.vertices) - len(gam.edges) + len(gam.faces) == 1


def test_bounded_faces_are_simple_polygons(lid_complex):
    for f in lid_complex.bounded_faces():
        assert len(set(f.vertex_ids)) == len(f.vertex_ids)
        assert len(f.vertex_ids) == len(f.edge_ids)
        assert f.size >= 3


def test_cycle_links_have_length_2m(gamma_lid):
    for lk in gamma_lid.links():
        if lk.shape == CYCLE:
            assert lk.length == 2 * lk.multiplicity
        for comp in lk.components:
            expected = (len(comp.edges) if lk.shape == CYCLE
                        else len(comp.edges) - 1)
            assert len(comp.corners) == expected


def test_corner_labels_cover_corners_once(gamma_lid):
    """Each corner labels at most 2 link edges; a corner whose face is
    bounded shows up exactly once over all links."""
    label_counts = Counter()
    for lk in gamma_lid.links():
        for comp in lk.components:
            label_counts.update(comp.corners)
    indices = set(range(len(gamma_lid.corners)))
    assert set(label_counts) <= indices
    assert all(k <= 2 for k in label_counts.values())
    assert set(label_counts) == indices
    assert all(k == 1 for k in label_counts.values())


def test_lid_census(gamma_lid, lid_complex):
    assert len(gamma_lid.vertices) == 40
    assert len(gamma_lid.edges) == 85
    assert len(gamma_lid.faces) == 46
    assert len(gamma_lid.corners) == 150
    assert face_census(lid_complex) == {3: 40, 5: 6}


def test_lid_has_pentagons(lid_complex):
    assert 5 in face_census(lid_complex)


def test_multipath_link_warns():
    # the diagonals boxed by x = 1 and x = -1: at the origin the left and
    # right sectors close into bounded triangles while top and bottom stay
    # open, so the link falls into two path components
    arr = lines((1, -1, 0), (1, 1, 0), (1, 0, 1), (1, 0, -1))
    cx = build_complex(arr)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gam = bounded_complex(cx)
    center = next(v for v in gam.vertices if v.point == (F(0), F(0)))
    lk = gam.link(center.id)
    assert lk.shape == MULTIPATH
    assert len(lk.components) == 2
    assert any("disconnected link" in str(w.message) for w in caught)


def test_deterministic_ids(lid):
    a = build_complex(lid)
    b = build_complex(lid)
    assert [v.point for v in a.vertices] == [v.point for v in b.vertices]
    assert [(f.vertex_ids, f.bounded) for f in a.faces] == \
        [(f.vertex_ids, f.bounded) for f in b.faces]
    pts = [v.point for v in a.vertices]
    assert pts == sorted(pts)
    bounded = [f for f in a.faces if f.bounded]
    keys = [tuple(sorted(f.vertex_ids)) for f in bounded]
    assert keys == sorted(keys)
    assert [f.id for f in a.faces] == list(range(len(a.faces)))


# -- simpliciality -----------------------------------------------------------

def section_complex(arr):
    return build_complex(decone(arr, default_decone_index(arr)))


def test_boolean3_simplicial():
    ok, witness = is_simplicial(section_complex(builtin("boolean3")))
    assert ok and witness is None


def test_icosi_not_simplicial_pentagon_witness(icosi):
    ok, witness = is_simplicial(section_complex(icosi))
    assert not ok
    assert witness.bounded and witness.size == 5


def test_cone_generic3_not_simplicial_matches_wall_oracle():
    arr = cone(builtin("generic3"))
    verdict, _ = is_simplicial(build_complex(builtin("generic3")))
    walls = chamber_wall_counts(arr)
    assert verdict == all(w == 3 for w in walls)
    assert verdict is False
    # the deconed picture carries a chamber with more than 3 walls
    assert max(walls) == 4


def test_boolean3_matches_wall_oracle():
    arr = builtin("boolean3")
    walls = chamber_wall_counts(arr)
    assert all(w == 3 for w in walls)
    assert len(walls) == 8
    assert is_simplicial(section_complex(arr))[0]


def test_chamber_walls_of_strips_and_half_planes():
    # x = 0, x = 1, y = 0: the half-strips 0 < x < 1 reach infinity in a
    # point and have 3 walls, the four other faces 2 lines and infinity
    cx = build_complex(lines((1, 0, 0), (1, 0, 1), (0, 1, 0)))
    assert [chamber_walls(cx, f) for f in cx.faces] == [3] * 6
    assert is_simplicial(cx) == (True, None)
    # two parallel lines (a rank-2 cone): strip and half-planes, 2 walls
    cx = build_complex(lines((1, 0, 0), (1, 0, 1)))
    assert [chamber_walls(cx, f) for f in cx.faces] == [2] * 3


SMALL_NORMALS = sorted({CentralPlane(*map(F, n)).normal()
                        for n in product((-1, 0, 1), repeat=3) if any(n)})


def random_central_arrangement(rng):
    """4 to 6 distinct planes with normals in {-1,0,1}^3, of rank 3."""
    while True:
        normals = rng.sample(SMALL_NORMALS, rng.randint(4, 6))
        arr = CentralArrangement(tuple(normals), RATIONAL)
        if arr.rank() == 3:
            return arr


def test_chamber_walls_match_wall_oracle_at_every_decone_plane():
    # each face of a section stands for a pair of antipodal chambers; the
    # small normals give many parallel lines, hence strips and half-strips
    rng = random.Random(4)
    for _ in range(15):
        arr = random_central_arrangement(rng)
        walls = sorted(chamber_wall_counts(arr))
        for i in range(len(arr)):
            cx = build_complex(decone(arr, i))
            doubled = sorted(w for f in cx.faces
                             for w in (chamber_walls(cx, f),) * 2)
            assert doubled == walls
            assert is_simplicial(cx)[0] == all(w == 3 for w in walls)


def check_order_against_cross_products(cx):
    """The vertices along each line and the germs around each vertex come
    in the order that dot and cross products give."""
    lines_ = cx.arrangement.lines
    sorted_orders = line_orders_by_sort(cx.arrangement)
    leaving = {v.id: [] for v in cx.vertices}  # (edge id, direction)
    for i, ln in enumerate(lines_):
        d = ln.direction()
        own = [e for e in cx.edges if e.line == i]
        # edges of a line run lead ray, segments, trail ray
        assert [e.kind for e in own] == ["ray"] + ["segment"] * (
            len(own) - 2) + ["ray"]
        vids = [own[0].v0] + [e.v1 for e in own[1:-1]]
        assert [e.v0 for e in own[1:]] == vids
        assert vids == sorted_orders[i]

        def along(vid):
            x, y = cx.vertices[vid].point
            return x * d[0] + y * d[1]
        assert all(sign(along(u) - along(w)) < 0
                   for u, w in zip(vids, vids[1:]))
        leaving[vids[0]].append((own[0].id, (-d[0], -d[1])))
        for e in own[1:-1]:
            leaving[e.v0].append((e.id, d))
            leaving[e.v1].append((e.id, (-d[0], -d[1])))
        leaving[vids[-1]].append((own[-1].id, d))
    by_angle = cmp_to_key(lambda g, h: direction_cmp(g[1], h[1]))
    for v in cx.vertices:
        ring = [eid for eid, _ in sorted(leaving[v.id], key=by_angle)]
        assert list(cx.germs[v.id]) == ring


def test_germ_and_line_order_match_cross_product_oracle(lid_complex):
    check_order_against_cross_products(lid_complex)
    rng = random.Random(9)
    seen = Counter()
    for field in ("rational", "golden"):
        for _ in range(25):
            n = rng.randint(3, 8)
            arr = (essential_random_line_arrangement(rng, n, coeff_range=2)
                   if field == "rational" else golden_line_arrangement(rng, n))
            # count only lines that carry at least two vertices
            busy = [ln for ln, on in zip(arr.lines,
                                         line_orders_by_sort(arr).values())
                    if len(on) >= 2]
            seen[field, "horizontal"] += any(ln.a == 0 for ln in busy)
            seen[field, "vertical"] += any(ln.b == 0 for ln in busy)
            seen[field, "descending"] += any(
                ln.a != 0 and ln.b > 0 for ln in busy)
            seen[field, "parallel"] += any(
                p.is_parallel(q) for k, p in enumerate(arr.lines)
                for q in arr.lines[k + 1:])
            check_order_against_cross_products(build_complex(arr))
    # every field brings horizontal, vertical, b > 0 and parallel lines
    assert len(seen) == 8 and all(seen.values())


def test_germ_ranks_on_shared_and_close_slopes():
    """Germs sort by the rank of each line's b among the distinct b values.
    Lines that share b (a horizontal line and steep ones with b = 1,
    parallel lines) and golden b values that agree to 12 decimal places
    still get the rings that the cross products give."""
    shared = lines((0, 1, 0), (1, 1, 0), (1, 1, 2), (1, 0, 0), (1, -1, 0),
                   (0, 1, 1), (1, 0, 1))
    g = GoldenScalar
    phi, eps = g(F(1, 2), F(1, 2)), g(F(1, 10 ** 13))
    # 2178309/1346269 is a ratio of Fibonacci numbers, 2.5e-13 below phi
    close = (phi, g(F(2178309, 1346269)), phi + eps, phi - eps)
    assert all(-10 * eps < b - phi < 10 * eps for b in close)
    golden = LineArrangement(
        tuple((1, b, 0) for b in close)
        + ((1, phi, 1), (0, 1, 1), (1, 0, 1), (1, -close[1], 3)), GOLDEN)
    for arr in (shared, golden):
        assert len({ln.b for ln in arr.lines}) < len(arr.lines)
        cx = build_complex(arr)
        # the origin carries four lines, their germs in eight directions
        origin = next(v for v in cx.vertices if not any(v.point))
        assert len(cx.germs[origin.id]) == 8
        check_order_against_cross_products(cx)


# -- face tables ---------------------------------------------------------------

def face_table_corpus():
    """Complexes with cycle, path and multipath links, strips and no
    vertices: the icosidodecahedral, H3 and B3 sections, generic3, the boxed
    diagonals, a parallel pencil and seeded inputs over Q and Q(sqrt5)."""
    arrs = [decone(arr, default_decone_index(arr))
            for arr in map(builtin, ("icosidodecahedral", "H3", "B3"))]
    arrs += [builtin("generic3"),
             lines((1, -1, 0), (1, 1, 0), (1, 0, 1), (1, 0, -1)),
             lines((1, 0, 0), (1, 0, 1), (1, 0, 2))]
    rng = random.Random(24)
    for _ in range(5):
        arrs.append(random_line_arrangement(rng, rng.randint(5, 14)))
        arrs.append(golden_line_arrangement(rng, rng.randint(5, 10)))
    complexes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the boxed diagonals' multipath
        for arr in arrs:
            cx = build_complex(arr)
            complexes.append((cx, bounded_complex(cx)))
    return complexes


def face_tables_text(cx, gam):
    """Every face, every vertex's germ ring and sector faces, and the
    corners, one per line."""
    out = [f"face {f.id} {f.bounded} {f.vertex_ids} {f.edge_ids} "
           f"{sorted(f.boundary_lines)}" for f in cx.faces]
    for v in cx.vertices:
        out.append(f"vertex {v.id} {list(cx.germs[v.id])} "
                   f"{list(cx.sectors[v.id])}")
    out.append(" ".join(f"({c.vertex},{c.face})" for c in gam.corners))
    return "".join(line + "\n" for line in out)


FACE_TABLES_SHA256 = (
    "a56494525054e83cc5f0e20b5c24e444d4cb84fa9bf115e5c585666b91ba9afe")


def test_face_tables_are_pinned():
    digest = hashlib.sha256()
    for cx, gam in face_table_corpus():
        digest.update(face_tables_text(cx, gam).encode())
    assert digest.hexdigest() == FACE_TABLES_SHA256


def test_rotation_and_sector_tables_agree():
    for cx, gam in face_table_corpus():
        index = {c: n for n, c in enumerate(gam.corners)}
        sectors_of = Counter()
        for v in cx.vertices:
            ring = cx.germs[v.id]
            assert len(cx.rotation[v.id]) == len(ring)
            for i, eid in enumerate(ring):
                # the table is an involution on segment germs, None on rays
                step = cx.rotation[v.id][i]
                assert (step is None) == (cx.edges[eid].kind == "ray")
                if step is not None:
                    w, j = step
                    assert cx.germs[w][j] == eid
                    assert cx.rotation[w][j] == (v.id, i)
                face = cx.faces[cx.sectors[v.id][i]]
                assert v.id in face.vertex_ids
                sectors_of[face.id] += 1
                expected = index[Corner(v.id, face.id)] if face.bounded \
                    else None
                assert gam.sector_corners[v.id][i] == expected
        # one sector at each vertex of a face's closure
        assert all(sectors_of[f.id] == f.size for f in cx.faces)
        # links label their edges by corner index: the edge between germs
        # i and i + 1 at v by sector i, each corner exactly once
        labels = []
        for lk in gam.links():
            ring = cx.germs[lk.vertex]
            for comp in lk.components:
                labels.extend(comp.corners)
                for p, n in enumerate(comp.corners):
                    i = ring.index(comp.edges[p])
                    assert comp.edges[(p + 1) % len(comp.edges)] == \
                        ring[(i + 1) % len(ring)]
                    assert n == gam.sector_corners[lk.vertex][i]
        assert sorted(labels) == list(range(len(gam.corners)))
        assert all(f.id == k for k, f in enumerate(gam.faces))
