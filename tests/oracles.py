"""Independent oracles used to pin down expected values.

Everything here recomputes results by brute force or by a different
algorithm than the library path it checks: crossing points by Cramer's
rule and plane axes by scaled cross products, both in GoldenScalars over
every pair, Poincare polynomials by the subset alternating sum,
factorizations by trying every assignment, LP feasibility by
Fourier-Motzkin elimination, circuit multiplicities by literally walking
the circuit, a link's circuits by walking every one, repeats kept,
chamber wall counts by sign-vector enumeration, SVG decimals by a digit
loop over Fractions, LP results by the dense Fraction simplex
tableau, the sparse tableau's reduced costs by Fraction sums, witnesses,
Farkas certificates and weight systems by evaluating each row in
Fractions, the weight LP by solving it over every corner without the
symmetry reduction, ranks by Gaussian elimination and angular order by
cross products, the vertices along each line by sorting on dot products,
symmetries of the bounded complex by line permutations and by point maps
of the plane.  Dense constraint rows exist only here, built from the
library's sparse rows by ``dense_coeffs``.  It also holds the seeded
input generators and the small helpers only tests call: the exact sign,
the three-way comparison, the Galois conjugate, circuit weight sums, the
degree and value of an integer polynomial, and a corner permutation
turned from an index tuple into a ``Corner`` dict and back.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from itertools import combinations

from arrlab.arrangement import (
    AffineLine,
    CentralArrangement,
    LineArrangement,
    cone,
    cross3,
    intersection_points,
    scale_first_nonzero,
)
from arrlab.cells import CYCLE, Corner
from arrlab.factored import Factorization
from arrlab.falk import (
    NONNEGATIVITY,
    TYPE_I,
    TYPE_II,
    TYPE_III,
    TYPE_IV,
    Circuit,
    SolveResult,
    VerifyReport,
    Violation,
    WeightError,
    build_constraints,
)
from arrlab.lpcore import (
    EQ,
    FEASIBLE,
    GE,
    INFEASIBLE,
    LE,
    UNBOUNDED,
    FeasibilityResult,
    LPRow,
    StandardFormLP,
    _ge_form,
    solve_feasibility,
)
from arrlab.poset import IntPolynomial
from arrlab.scalar import GOLDEN, RATIONAL, GoldenScalar


def sign(x) -> int:
    """Exact sign of an int, Fraction or GoldenScalar: -1, 0 or +1."""
    if isinstance(x, GoldenScalar):
        return x.sign()
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def compare(x, y) -> int:
    """Three-way comparison consistent with the embedding into the reals."""
    return sign(x - y)


def golden_conjugate(x: GoldenScalar) -> GoldenScalar:
    """Galois conjugate a - b*sqrt(5)."""
    return GoldenScalar(x.a, -x.b)


def evaluate_circuit(weights, circuit) -> Fraction:
    """Multiplicity-weighted sum of corner labels along the circuit."""
    total = Fraction(0)
    for count, corner in zip(circuit.counts, circuit.corners):
        if count:
            if corner not in weights:
                raise WeightError(f"missing corner {corner}")
            total += count * Fraction(weights[corner])
    return total


def poly_degree(p: IntPolynomial) -> int:
    """Degree of p, taking the zero polynomial's as 0."""
    return len(p.coeffs) - 1 if p.coeffs else 0


def poly_value(p: IntPolynomial, t: int) -> int:
    """p(t) by Horner's rule."""
    val = 0
    for c in reversed(p.coeffs):
        val = val * t + c
    return val


def matrix_rank(rows) -> int:
    """Rank of a small matrix over the exact field, by Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if sign(m[r][col]) != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for r in range(len(m)):
            if r != rank and sign(m[r][col]) != 0:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def direction_cmp(d1, d2) -> int:
    """Counterclockwise angular order of nonzero directions, starting at +x:
    half plane first (y > 0, or y = 0 < x), then the sign of the cross
    product."""
    def half(d):
        s = sign(d[1])
        if s > 0 or (s == 0 and sign(d[0]) > 0):
            return 0
        return 1

    h1, h2 = half(d1), half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    return -sign(cross)


def line_orders_by_sort(arr: LineArrangement) -> dict:
    """{line index: ids of the crossing points on it, sorted along the
    line's direction (-b, a) by the dot product}; a point's id is its
    position in intersection_points(arr), as for the cell complex's
    vertices."""
    points = list(intersection_points(arr).items())
    orders = {}
    for i, ln in enumerate(arr.lines):
        dx, dy = ln.direction()
        orders[i] = sorted(
            (vid for vid, (_, lines) in enumerate(points) if i in lines),
            key=lambda vid: points[vid][0][0] * dx + points[vid][0][1] * dy)
    return orders


def intersect(line, other):
    """Crossing point of two affine lines by Cramer's rule in GoldenScalars,
    or None if they are parallel."""
    det = line.a * other.b - line.b * other.a
    if not det:
        return None
    x = (line.c * other.b - other.c * line.b) / det
    y = (line.a * other.c - other.a * line.c) / det
    return (x, y)


def crossings_reference(lines) -> dict:
    """{point: frozenset of line indices} over every pair of crossing
    lines, each point a pair of GoldenScalars, in sorted point order."""
    points = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            p = intersect(lines[i], lines[j])
            if p is not None:
                points.setdefault(p, set()).update((i, j))
    return {p: frozenset(points[p]) for p in sorted(points)}


def central_axes_reference(arr: CentralArrangement) -> dict:
    """{axis: frozenset of plane indices} over every pair of planes, each
    axis the cross product of two normals scaled to a first nonzero entry
    of 1, in sorted axis order."""
    axes = {}
    for i in range(len(arr.planes)):
        for j in range(i + 1, len(arr.planes)):
            d = cross3(arr.planes[i].normal(), arr.planes[j].normal())
            axes.setdefault(scale_first_nonzero(d), set()).update((i, j))
    return {d: frozenset(axes[d]) for d in sorted(axes)}


def whitney_poincare(arr) -> IntPolynomial:
    """pi(A, t) as the alternating sum over all subsets with nonempty
    intersection: sum (-1)^|B| (-t)^codim(B)."""
    if isinstance(arr, CentralArrangement):
        items = [pl.normal() for pl in arr.planes]

        def codim(subset):
            if not subset:
                return 0
            return matrix_rank([items[i] for i in subset])
    else:
        items = arr.lines

        def codim(subset):
            if not subset:
                return 0
            if len(subset) == 1:
                return 1
            first = items[subset[0]]
            p = None
            for j in subset[1:]:
                q = intersect(first, items[j])
                if q is None:
                    return None
                if p is None:
                    p = q
                elif p != q:
                    return None
            for j in subset:
                if not items[j].contains(p):
                    return None
            return 2

    n = len(items)
    coeffs = [0, 0, 0, 0]
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            r = codim(subset)
            if r is None:
                continue
            coeffs[r] += (-1) ** size * (-1) ** r
    return IntPolynomial(tuple(coeffs))


def find_factorization_bruteforce(arr: LineArrangement):
    """Try every assignment; None iff no factorization exists.

    Bitmask semantics: line k is in part 2 iff bit k of the mask is set.
    """
    n = len(arr.lines)
    if n < 2:
        return None
    points = list(intersection_points(arr).values())
    masks = [sum(1 << i for i in lines) for lines in points]
    sizes = [len(lines) for lines in points]
    parallel = [(i, j) for i, j in combinations(range(n), 2)
                if arr.lines[i].is_parallel(arr.lines[j])]
    for assign in range(1, (1 << n) - 1):
        if any(((assign >> i) & 1) != ((assign >> j) & 1)
               for i, j in parallel):
            continue
        if all((c2 := bin(assign & mask).count("1")) == 1 or size - c2 == 1
               for mask, size in zip(masks, sizes)):
            part2 = frozenset(i for i in range(n) if (assign >> i) & 1)
            return Factorization(frozenset(range(n)) - part2, part2)
    return None


def corner_permutation(corners, perm):
    """A corner permutation in the other form: an index tuple (``perm[n]``
    the index in ``corners`` of the image of corner n, as
    ``corner_automorphisms`` gives it) as a ``Corner -> Corner`` dict, and
    such a dict as an index tuple."""
    if isinstance(perm, dict):
        index = {c: n for n, c in enumerate(corners)}
        return tuple(index[perm[c]] for c in corners)
    return {c: corners[n] for c, n in zip(corners, perm)}


def induced_line_permutation(gamma, perm):
    """A permutation sigma of the lines (line i -> sigma[i]) that maps
    the line set of every intersection point to that of a point, keeps
    parallel classes, and induces the corner index permutation ``perm``
    (corner (v, f) -> (sigma(v), sigma(f)), with faces known by their
    vertex sets); None when there is none.  Backtracking over line images,
    pruned by the line sets of the vertices that carry corners."""
    perm = corner_permutation(gamma.corners, perm)
    lines = gamma.complex.arrangement.lines
    n = len(lines)
    vertex_at = {v.lines: v.id for v in gamma.vertices}
    face_at = {frozenset(f.vertex_ids): f.id for f in gamma.faces}
    faces = {f.id: f for f in gamma.faces}
    options = [set(range(n)) for _ in range(n)]
    for c, d in perm.items():
        for i in gamma.vertices[c.vertex].lines:
            options[i] &= gamma.vertices[d.vertex].lines

    def induces(sigma):
        image = {}
        for v in gamma.vertices:
            w = vertex_at.get(frozenset(sigma[i] for i in v.lines))
            if w is None:
                return False
            image[v.id] = w
        if any(lines[i].is_parallel(lines[j])
               != lines[sigma[i]].is_parallel(lines[sigma[j]])
               for i, j in combinations(range(n), 2)):
            return False
        return all(d == Corner(image[c.vertex], face_at.get(frozenset(
            image[v] for v in faces[c.face].vertex_ids)))
            for c, d in perm.items())

    def extend(sigma):
        if len(sigma) == n:
            return tuple(sigma) if induces(sigma) else None
        for j in sorted(options[len(sigma)] - set(sigma)):
            found = extend(sigma + [j])
            if found is not None:
                return found
        return None

    return extend([])


def point_map_permutation(gamma, move):
    """The corner index permutation induced by a map ``move`` of the plane
    that sends the vertex set of Gamma onto itself, faces known by their
    vertex sets."""
    vertex_at = {v.point: v.id for v in gamma.vertices}
    face_at = {frozenset(f.vertex_ids): f.id for f in gamma.faces}
    vmap = {v.id: vertex_at[move(v.point)] for v in gamma.vertices}
    fmap = {f.id: face_at[frozenset(vmap[v] for v in f.vertex_ids)]
            for f in gamma.faces}
    return corner_permutation(gamma.corners, {
        c: Corner(vmap[c.vertex], fmap[c.face]) for c in gamma.corners})


def interior_square() -> LineArrangement:
    """x = 0, y = 0 and the four lines x +- y = +-1 around the origin,
    invariant under the dihedral group of order 8 of the square."""
    rows = ((1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 1, -1), (1, -1, 1),
            (1, -1, -1))
    return LineArrangement(tuple(tuple(map(Fraction, r)) for r in rows),
                           RATIONAL)


def dense_coeffs(pairs, nvars: int) -> tuple:
    """The dense coefficient tuple of a sparse row's (index, coeff) pairs."""
    dense = [0] * nvars
    for j, c in pairs:
        dense[j] = c
    return tuple(dense)


def sparse_coeffs(coeffs) -> tuple:
    """The (index, coeff) pairs of a dense coefficient sequence."""
    return tuple((j, c) for j, c in enumerate(coeffs) if c)


def _fourier_motzkin_ge(rows, ncols: int, nonnegative) -> list:
    """The (pairs, rel, rhs) ``rows`` as dense >=-form rows over ``ncols``
    columns, plus x_j >= 0 for each j in ``nonnegative``."""
    ge = []
    for pairs, rel, rhs in rows:
        coeffs = tuple(Fraction(c) for c in dense_coeffs(pairs, ncols))
        rhs = Fraction(rhs)
        if rel in (">=", "="):
            ge.append((coeffs, rhs))
        if rel in ("<=", "="):
            ge.append((tuple(-c for c in coeffs), -rhs))
    for j in nonnegative:
        unit = tuple(Fraction(1 if i == j else 0) for i in range(ncols))
        ge.append((unit, Fraction(0)))
    return ge


def _fourier_motzkin_eliminate(ge, variables) -> list:
    """The dense >=-form rows ``ge`` with the ``variables`` eliminated:
    rows over the other columns with the same solutions there.

    Variables leave in the greedy (fewest products) order and redundant
    parallel rows are dropped, which keeps small instances tractable.
    """
    def compact(rows_in):
        # normalize each row and keep only the binding rhs per direction
        best = {}
        for coeffs, rhs in rows_in:
            piv = next((c for c in coeffs if c), None)
            if piv is not None:
                scale = abs(piv)
                coeffs = tuple(c / scale for c in coeffs)
                rhs = rhs / scale
            if coeffs not in best or rhs > best[coeffs]:
                best[coeffs] = rhs
        return [(c, b) for c, b in best.items()]

    ge = compact(ge)
    remaining = set(variables)
    while remaining:
        # Fourier's heuristic: eliminate the variable with the fewest
        # positive x negative combinations
        def cost(v):
            p = sum(1 for c, _ in ge if c[v] > 0)
            n = sum(1 for c, _ in ge if c[v] < 0)
            return p * n

        v = min(sorted(remaining), key=cost)
        remaining.discard(v)
        pos, neg, rest = [], [], []
        for coeffs, rhs in ge:
            c = coeffs[v]
            (pos if c > 0 else neg if c < 0 else rest).append((coeffs, rhs))
        combined = []
        for pc, pb in pos:
            for nc, nb in neg:
                a = -nc[v]
                b = pc[v]
                coeffs = tuple(a * x + b * y for x, y in zip(pc, nc))
                combined.append((coeffs, a * pb + b * nb))
        ge = compact(rest + combined)
    return ge


def fourier_motzkin_feasible(rows, nvars: int) -> bool:
    """Feasibility of {rows, x >= 0} by variable elimination.

    Rows are (pairs, rel, rhs) with sparse LPRow coefficients; they are
    made dense and normalized to >=-form first.
    """
    ge = _fourier_motzkin_ge(rows, nvars, range(nvars))
    return all(rhs <= 0 for _, rhs in
               _fourier_motzkin_eliminate(ge, range(nvars)))


def fourier_motzkin_minimum(rows, nvars: int, objective):
    """The minimum of objective . x over {rows, x >= 0}, as (status,
    value): (INFEASIBLE, None), (UNBOUNDED, None) or (FEASIBLE, the exact
    minimum), with lpcore's status names.  A free column t = objective . x
    is appended and every x eliminated; what is left bounds t alone."""
    tied = [(sparse_coeffs(tuple(objective) + (-1,)), "=", 0)]
    ge = _fourier_motzkin_ge(list(rows) + tied, nvars + 1, range(nvars))
    lower = upper = None
    for coeffs, rhs in _fourier_motzkin_eliminate(ge, range(nvars)):
        a = coeffs[nvars]
        if not a:
            if rhs > 0:
                return INFEASIBLE, None
        elif a > 0:
            lower = rhs / a if lower is None else max(lower, rhs / a)
        else:
            upper = rhs / a if upper is None else min(upper, rhs / a)
    if lower is not None and upper is not None and lower > upper:
        return INFEASIBLE, None
    if lower is None:
        return UNBOUNDED, None
    return FEASIBLE, lower


def simulate_circuit_walk(ctype: str, j: int, m: int, nvertices: int,
                          cyclic: bool):
    """Edge traversal counts of a circuit, from its literal vertex sequence.

    Returns a dict {edge position: count}; for a cycle edge position p joins
    link vertices p and p+1 mod k, for a path position p joins p and p+1.
    """
    k = nvertices

    def up(a, b):
        return list(range(a, b + 1))

    def down(a, b):
        return list(range(a, b - 1, -1))

    if ctype == "i":
        seq = up(0, k - 1) + [0]
    elif ctype == "ii":
        seq = up(j, j + m + 1) + down(j + m, j)
    elif ctype == "iii":
        seq = (up(j, j + m) + down(j + m - 1, j)
               + up(j + 1, j + m) + down(j + m - 1, j))
    elif ctype == "iv":
        seq = up(j, j + m) + [j + m - 1] + down(j + m, j) + [j + 1, j]
    else:
        raise ValueError(ctype)
    counts = {}
    for a, b in zip(seq, seq[1:]):
        if cyclic:
            a %= k
            b %= k
            if b == (a + 1) % k:
                p = a
            elif a == (b + 1) % k:
                p = b
            else:
                raise AssertionError("walk step is not along a link edge")
        else:
            if b == a + 1:
                p = a
            elif a == b + 1:
                p = b
            else:
                raise AssertionError("walk step is not along a link edge")
        counts[p] = counts.get(p, 0) + 1
    return counts


def raw_circuit_walks(link):
    """Every circuit walk of the four types on ``link``, repeats kept, as
    Circuits whose counts come from ``simulate_circuit_walk``.

    Per component: type (i) on a cycle, then types (ii), (iii) and (iv),
    each at every start the side conditions allow.  A run of m+1 link
    vertices for (ii), m for (iii) and (iv), applies when there are more
    link vertices than that; on a cycle every rotation starts one, on a
    path the start j keeps the walk's vertices j .. j+run on the path.
    """
    m = link.multiplicity
    cyclic = link.shape == CYCLE
    out = []
    for ci, comp in enumerate(link.components):
        k = len(comp.edges)  # link vertices
        nedges = len(comp.corners)
        walks = [(TYPE_I, 0)] if cyclic else []
        for ctype, run in ((TYPE_II, m + 1), (TYPE_III, m), (TYPE_IV, m)):
            if k > run:
                walks.extend((ctype, j)
                             for j in range(k if cyclic else k - run))
        for ctype, j in walks:
            walked = simulate_circuit_walk(ctype, j, m, k, cyclic)
            out.append(Circuit(link.vertex, ctype, ci, j,
                               tuple(walked.get(p, 0) for p in range(nedges)),
                               comp.corners))
    return out


def chamber_wall_counts(arr: CentralArrangement):
    """Wall counts of every chamber of a rational central 3-arrangement,
    found by sign-vector enumeration and exact strict-feasibility LPs.

    A sign vector is realizable iff {sigma_i * (n_i . v) >= 1} has a
    solution (strictness is scale-invariant); plane i is a wall of the
    chamber iff the same system with n_i . v = 0 instead is solvable with
    the remaining constraints held at >= 1.
    """
    # the LP takes Fractions: the rational normals' parts a, with b == 0
    assert all(c.b == 0 for pl in arr.planes for c in pl.normal())
    normals = [tuple(c.a for c in pl.normal()) for pl in arr.planes]
    n = len(normals)

    def feasible(constraints):
        # v free: substitute v = p - q with p, q >= 0
        rows = []
        for coeffs, rel, rhs in constraints:
            split = tuple(coeffs) + tuple(-c for c in coeffs)
            rows.append(LPRow(sparse_coeffs(split), rel, rhs))
        lp = StandardFormLP(6, tuple(rows))
        return solve_feasibility(lp).status == "feasible"

    counts = []
    for mask in range(1 << n):
        sigma = [1 if (mask >> i) & 1 else -1 for i in range(n)]
        strict = [(tuple(s * c for c in normals[i]), ">=", 1)
                  for i, s in enumerate(sigma)]
        if not feasible(strict):
            continue
        walls = 0
        for i in range(n):
            wall_sys = [(tuple(sigma[jj] * c for c in normals[jj]), ">=", 1)
                        for jj in range(n) if jj != i]
            wall_sys.append((normals[i], "=", 0))
            if feasible(wall_sys):
                walls += 1
        counts.append(walls)
    return counts


def random_line_arrangement(rng, nlines: int, *, coeff_range=3,
                            allow_parallel=True) -> LineArrangement:
    """Random small-integer line arrangement over the rationals."""
    lines = []
    seen = set()
    guard = 0
    while len(lines) < nlines:
        guard += 1
        if guard > 1000:
            raise RuntimeError("could not build a random arrangement")
        a = Fraction(rng.randint(-coeff_range, coeff_range))
        b = Fraction(rng.randint(-coeff_range, coeff_range))
        c = Fraction(rng.randint(-coeff_range, coeff_range))
        if a == 0 and b == 0:
            continue
        ln = AffineLine(a, b, c)
        if ln.coeffs() in seen:
            continue
        if not allow_parallel and any(
                ln.is_parallel(other) for other in lines):
            continue
        seen.add(ln.coeffs())
        lines.append(ln)
    return LineArrangement(tuple(lines), RATIONAL)


def golden_line_arrangement(rng, nlines):
    """Random small-coefficient line arrangement over Q(sqrt5), with at
    least two non-parallel lines."""
    while True:
        lines = set()
        while len(lines) < nlines:
            a, b, c = (GoldenScalar(rng.randint(-2, 2), rng.randint(-1, 1))
                       for _ in range(3))
            if a.a == a.b == b.a == b.b == 0:
                continue
            lines.add(AffineLine(a, b, c))
        arr = LineArrangement(tuple(sorted(lines, key=AffineLine.coeffs)),
                              GOLDEN)
        if any(not arr.lines[0].is_parallel(ln) for ln in arr.lines[1:]):
            return arr


def essential_random_line_arrangement(rng, nlines: int, **kw):
    while True:
        arr = random_line_arrangement(rng, nlines, **kw)
        if any(not arr.lines[0].is_parallel(ln) for ln in arr.lines[1:]):
            return arr


def large_seeded_inputs():
    """The seeded 24-line inputs, by name: a rational and a golden line
    arrangement, and the cone of the rational one."""
    rational = essential_random_line_arrangement(random.Random(24), 24)
    return {
        "rational24": rational,
        "golden24": golden_line_arrangement(random.Random(24), 24),
        "cone24": cone(rational),
    }


def random_lp(rng, max_vars=12, max_rows=30) -> StandardFormLP:
    # sizes stay small enough for the Fourier-Motzkin oracle (which can
    # blow up doubly exponentially) while honoring the stated caps
    nvars = rng.randint(1, min(max_vars, 5))
    nrows = rng.randint(1, min(max_rows, 8))
    rows = []
    seen = set()
    for _ in range(nrows):
        coeffs = tuple(rng.randint(-2, 2) for _ in range(nvars))
        if not any(coeffs):
            continue
        rel = rng.choice(["<=", ">=", "="])
        rhs = rng.randint(-4, 4)
        if (coeffs, rel, rhs) in seen:
            continue
        seen.add((coeffs, rel, rhs))
        rows.append(LPRow(sparse_coeffs(coeffs), rel, rhs))
    if not rows:
        rows = [LPRow(((0, 1),), ">=", 0)]
    return StandardFormLP(nvars, tuple(rows))


def random_block_lp(rng) -> StandardFormLP:
    """A seeded LP of block-angular shape, small enough for the
    Fourier-Motzkin oracle: 2-4 blocks of 4 variables at most in all,
    each block with 1-3 >= rows of positive rhs over its own variables
    (rows that start with an artificial), tied by 1-3 <= rows over all
    the variables; half of them minimize a seeded objective."""
    nblocks = rng.randint(2, 4)
    sizes = [rng.randint(1, 4 // nblocks) for _ in range(nblocks)]
    nvars = sum(sizes)
    rows = []
    first = 0
    for size in sizes:
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.choice((-1, 0, 1, 2, 2, 3, 3)) for _ in range(size)]
            if any(coeffs):
                rows.append(LPRow(sparse_coeffs([0] * first + coeffs),
                                  ">=", rng.randint(1, 4)))
        first += size
    for _ in range(rng.randint(1, 3)):
        coeffs = [rng.randint(-2, 2) for _ in range(nvars)]
        if any(coeffs):
            rows.append(LPRow(sparse_coeffs(coeffs), "<=",
                              rng.randint(0, 9)))
    objective = None
    if rng.random() < 0.5:
        objective = tuple(rng.randint(-1, 3) for _ in range(nvars))
    return StandardFormLP(nvars, tuple(dict.fromkeys(rows)), objective)


def decimal_str_reference(fr: Fraction, sig: int = 12) -> str:
    """Plain decimal expansion of a Fraction to ``sig`` significant digits,
    ties to even: normalize into [1, 10), round, carry into the exponent."""
    if fr == 0:
        return "0"
    out = "-" if fr < 0 else ""
    fr = abs(fr)
    exp = 0
    while fr >= 10:
        fr /= 10
        exp += 1
    while fr < 1:
        fr *= 10
        exp -= 1
    scaled = round(fr * 10 ** (sig - 1))
    if scaled >= 10 ** sig:
        scaled //= 10
        exp += 1
    digits = str(scaled)
    if exp >= sig - 1:
        return out + digits + "0" * (exp - sig + 1)
    if exp >= 0:
        head, tail = digits[:exp + 1], digits[exp + 1:].rstrip("0")
        return out + head + ("." + tail if tail else "")
    tail = ("0" * (-exp - 1) + digits).rstrip("0")
    return out + "0." + tail


class DenseTableau:
    """Dense simplex tableau over Fractions with Bland's rule: the exact
    rows that ``lpcore._Tableau`` stores sparse and scaled to integers.

    Internal rows arrive in ge-form (sparse pairs . x >= rhs) and are
    stored dense as equalities with a surplus column, so each row has
    ``nvars + m`` entries: x (columns 0 .. nvars-1) then one surplus per
    row.  A row whose rhs is <= 0 is negated so its surplus can start
    basic.  Every other row starts with an artificial variable basic;
    artificials get the ids ``nvars + m + k`` in ``basis`` and ``cost`` but
    no stored column, since none may re-enter the basis once it has left.

    It starts from the same crash basis: with two blocks or more of
    artificial rows that share a column, each block is solved on its own
    dense tableau (equal blocks once), its rows are copied in, each basic
    column of a block is eliminated from the linking rows with Fractions,
    and a linking row whose rhs went negative is negated and gets an
    artificial.

    Farkas multipliers need no artificial columns: at a phase-1 optimum the
    reduced cost of row k's surplus column, -e_k (or +e_k after the rhs
    flip), is the multiplier of ge-form row k.
    """

    def __init__(self, ge_rows, nvars):
        zero = Fraction(0)
        one = Fraction(1)
        m = len(ge_rows)
        self.m = m
        self.ncols = nvars + m
        self.rows = []
        self.rhs = []
        self.basis = []
        self.cost = [zero] * self.ncols
        self.pivots = 0
        self.degenerate_pivots = 0
        self.entry_updates = 0
        for i, (pairs, b) in enumerate(ge_rows):
            row = [Fraction(c) for c in dense_coeffs(pairs, nvars)] \
                + [zero] * m
            row[nvars + i] = -one  # surplus: a.x - s = b
            if b <= 0:
                row = [-c for c in row]
                b = -b
                self.basis.append(nvars + i)
            else:
                self.basis.append(len(self.cost))
                self.cost.append(one)
            self.rows.append(row)
            self.rhs.append(Fraction(b))
        self._crash(ge_rows, nvars)

    def _crash(self, ge_rows, nvars):
        # the blocks of the artificial rows, merged by shared columns
        blocks = []
        for r, b in enumerate(self.basis):
            if b >= self.ncols:
                columns = {j for j, _ in ge_rows[r][0]}
                block = [r]
                for other in [o for o in blocks if o[0] & columns]:
                    blocks.remove(other)
                    columns |= other[0]
                    block += other[1]
                blocks.append((columns, sorted(block)))
        if len(blocks) > 1:
            links = [r for r, b in enumerate(self.basis) if b < self.ncols]
            solved = {}
            for columns, block in blocks:
                xs = sorted(columns)
                local = {j: k for k, j in enumerate(xs)}
                key = tuple((tuple((local[j], c) for j, c in ge_rows[r][0]),
                             ge_rows[r][1]) for r in block)
                if key not in solved:
                    sub = solved[key] = DenseTableau(key, len(xs))
                    sub.run()
                    self.pivots += sub.pivots
                    self.degenerate_pivots += sub.degenerate_pivots
                    self.entry_updates += sub.entry_updates
                sub = solved[key]
                glob = xs + [nvars + r for r in block]
                for k, r in enumerate(block):
                    self.rows[r] = [Fraction(0)] * self.ncols
                    for j, v in enumerate(sub.rows[k]):
                        self.rows[r][glob[j]] = v
                    self.rhs[r] = sub.rhs[k]
                    if sub.basis[k] < sub.ncols:
                        self.basis[r] = glob[sub.basis[k]]
            # eliminate each basic column of the blocks (a 1 in its row)
            # from the linking rows
            block_rows = [r for _, block in blocks for r in block]
            for r in links:
                row = self.rows[r]
                for rr in block_rows:
                    col = self.basis[rr]
                    f = row[col] if col < self.ncols else 0
                    if f:
                        nz = [j for j, v in enumerate(self.rows[rr]) if v]
                        for j in nz:
                            row[j] -= f * self.rows[rr][j]
                        self.rhs[r] -= f * self.rhs[rr]
                        self.entry_updates += len(nz) - 1
                if self.rhs[r] < 0:
                    self.rows[r] = [-v for v in row]
                    self.rhs[r] = -self.rhs[r]
                    self.basis[r] = len(self.cost)
                    self.cost.append(Fraction(1))
        self._rebuild_objective()

    def _rebuild_objective(self):
        # reduced costs z_j = c_j - sum over rows of c_basis * T[r][j]
        self.red = self.cost[:self.ncols]
        for r, b in enumerate(self.basis):
            cb = self.cost[b]
            if cb:
                row = self.rows[r]
                for j in range(self.ncols):
                    if row[j]:
                        self.red[j] -= cb * row[j]

    def objective_value(self):
        return sum((self.cost[b] * self.rhs[r]
                    for r, b in enumerate(self.basis)
                    if self.cost[b]), Fraction(0))

    def _pivot(self, r, col):
        if not self.rhs[r]:
            self.degenerate_pivots += 1
        row = self.rows[r]
        piv = row[col]
        if piv != 1:
            inv = 1 / piv
            for j, v in enumerate(row):
                if v:
                    row[j] = v * inv
            self.rhs[r] *= inv
        nz = [j for j, v in enumerate(row) if v]
        for rr in range(self.m):
            if rr == r:
                continue
            f = self.rows[rr][col]
            if f:
                target = self.rows[rr]
                for j in nz:
                    target[j] -= f * row[j]
                self.rhs[rr] -= f * self.rhs[r]
                self.entry_updates += len(nz) - 1
        f = self.red[col]
        if f:
            red = self.red
            for j in nz:
                red[j] -= f * row[j]
        self.basis[r] = col
        self.pivots += 1

    def run(self):
        """Bland's rule simplex on the current cost; returns 'optimal' or
        'unbounded'."""
        while True:
            col = next((j for j in range(self.ncols) if self.red[j] < 0),
                       None)
            if col is None:
                return "optimal"
            best = None
            for r in range(self.m):
                a = self.rows[r][col]
                if a > 0:
                    ratio = self.rhs[r] / a
                    key = (ratio, self.basis[r])
                    if best is None or key < best[0]:
                        best = (key, r)
            if best is None:
                return "unbounded"
            self._pivot(best[1], col)

    def witness(self, nvars):
        x = [Fraction(0)] * nvars
        for r, b in enumerate(self.basis):
            if b < nvars:
                x[b] = self.rhs[r]
        return tuple(x)


def fraction_reduced_costs(tab) -> tuple:
    """The reduced costs and the objective value of the sparse
    ``lpcore._Tableau`` rebuilt from its cost, basis and scaled constraint
    rows with Fractions, as ``(red, value)``: red maps each column with a
    nonzero reduced cost to it, and value is the cost of the basic
    solution, the two that the tableau's row m keeps up to date."""
    # z_j = c_j - sum over rows of c_basis * T[r][j], and the value is the
    # sum over rows of c_basis * rhs[r]
    red = {j: Fraction(c) for j, c in enumerate(tab.cost[:tab.ncols]) if c}
    value = Fraction(0)
    for r, b in enumerate(tab.basis):
        cb = tab.cost[b]
        if cb:
            f = Fraction(cb, tab.scale[r])
            for j, v in tab.rows[r].items():
                red[j] = red.get(j, 0) - f * v
            value += f * tab.rhs[r]
    return {j: z for j, z in red.items() if z}, value


def dense_simplex_reference(lp: StandardFormLP) -> FeasibilityResult:
    """``lpcore.solve_feasibility`` on the dense Fraction tableau: the same
    Bland pivots, so the same result and pivot counts."""
    ge_rows, back = _ge_form(lp)
    tab = DenseTableau(ge_rows, lp.nvars)

    def result(status, **values):
        return FeasibilityResult(status, **values, pivots=tab.pivots,
                                 degenerate_pivots=tab.degenerate_pivots,
                                 entry_updates=tab.entry_updates)

    tab.run()
    if tab.objective_value() > 0:
        # infeasible: the multiplier of ge-form row k is the reduced cost
        # of its surplus column; '=' rows map back through sigma
        mults = [Fraction(0)] * len(lp.rows)
        for k, (orig, sigma) in enumerate(back):
            u = tab.red[lp.nvars + k]
            mults[orig] += sigma * u if lp.rows[orig].rel == EQ else u
        return result(INFEASIBLE, certificate=tuple(mults))
    if lp.objective is None:
        return result(FEASIBLE, witness=tab.witness(lp.nvars))
    # phase 2: drive out lingering basic artificials, then minimize
    for r in range(tab.m):
        if tab.basis[r] >= tab.ncols:
            col = next((j for j in range(tab.ncols) if tab.rows[r][j] != 0),
                       None)
            if col is not None:
                tab._pivot(r, col)
    tab.cost = ([Fraction(c) for c in lp.objective]
                + [Fraction(0)] * (len(tab.cost) - lp.nvars))
    tab._rebuild_objective()
    if tab.run() == "unbounded":
        return result(UNBOUNDED)
    return result(FEASIBLE, witness=tab.witness(lp.nvars),
                  objective_value=tab.objective_value())


_HOLDS = {LE: operator.le, GE: operator.ge, EQ: operator.eq}


def row_value(row, x) -> Fraction:
    """The left-hand side of the sparse LPRow ``row`` at the point x."""
    return sum((c * x[j] for j, c in row.coeffs), Fraction(0))


def row_holds(row, value) -> bool:
    """Whether a left-hand side of ``value`` satisfies ``row``."""
    return _HOLDS[row.rel](value, row.rhs)


def check_certificate_reference(lp: StandardFormLP,
                                result: FeasibilityResult) -> bool:
    """``lpcore.check_certificate`` in Fractions: each row of the LP is
    evaluated at the witness, or the rows are combined with the Farkas
    multipliers, one Fraction product at a time."""
    if result.status == FEASIBLE:
        x = result.witness
        if x is None or len(x) != lp.nvars or any(v < 0 for v in x):
            return False
        if not all(row_holds(row, row_value(row, x)) for row in lp.rows):
            return False
        return (lp.objective is None
                or (result.objective_value is not None
                    and sum((c * v for c, v in zip(lp.objective, x)),
                            Fraction(0)) == result.objective_value))
    if result.status == INFEASIBLE:
        u = result.certificate
        if u is None or len(u) != len(lp.rows):
            return False
        combined = [Fraction(0)] * lp.nvars
        rhs = Fraction(0)
        for mult, row in zip(u, lp.rows):
            if row.rel == GE:
                if mult < 0:
                    return False
                s = mult
            elif row.rel == LE:
                if mult < 0:
                    return False
                s = -mult
            else:
                s = mult
            if s:
                for j, c in row.coeffs:
                    combined[j] += s * c
                rhs += s * row.rhs
        return all(c <= 0 for c in combined) and rhs > 0
    return False


def check_weights_reference(system, weights) -> VerifyReport:
    """``falk._check_weights`` in Fractions: the nonnegativity conditions,
    then the rows of ``system`` in order, each evaluated at the weights."""
    x = [Fraction(weights[c]) for c in system.variables]
    violations = [Violation(f"{NONNEGATIVITY} corner ({c.vertex},{c.face})",
                            v, GE, 0)
                  for c, v in zip(system.variables, x) if v < 0]
    for row in system.rows:
        lhs = row_value(row, x)
        if not row_holds(row, lhs):
            violations.append(Violation(row.tag, lhs, row.rel, row.rhs))
    return VerifyReport(not violations, tuple(violations))


def solve_system(system, *, minimize_total=False) -> SolveResult:
    """``system``, a falk ConstraintSystem, solved by ``solve_feasibility``
    as it stands, the witness spread over each variable's orbit.  The
    objective weighs a variable by its orbit size, so on an unreduced
    system it is (1,) * n.  Nothing is re-checked."""
    objective = None
    if minimize_total:
        objective = tuple(len(orbit) for orbit in system.orbits)
    lp = StandardFormLP(len(system.variables), system.rows,
                        objective=objective)
    res = solve_feasibility(lp)
    weights = None
    if res.status == FEASIBLE:
        weights = {c: value for value, orbit in zip(res.witness,
                                                     system.orbits)
                   for c in orbit}
    return SolveResult(res.status, weights, system, lp, res)


def unreduced_solve(gamma, *, equality_asphericity=False,
                    minimize_total=False) -> SolveResult:
    """The weight LP of ``gamma`` over every corner, with no symmetry
    reduction: ``build_constraints`` then ``solve_system``."""
    full = build_constraints(gamma, equality_asphericity=equality_asphericity)
    return solve_system(full, minimize_total=minimize_total)
