"""Weight-test machinery: circuits, constraint generation, verify and solve.

A weight system assigns a nonnegative rational to every corner of the
bounded complex.  The test asks for one that satisfies two families of
linear conditions:

* asphericity: on each bounded face, corner weights sum to at most
  (number of face vertices) - 2;
* admissibility: on each vertex link, every circuit of the four generated
  types has weight sum at least 2.

FEASIBLE means only that these conditions have a nonnegative solution; it
does not by itself make the coned arrangement aspherical (``@generic3``
passes with zero weights, yet its cone is not).

Circuits are closed walks on a link; only their edge multiplicities matter
here.  On a link component with edges e_1 .. (a path, or cyclically for a
full cycle) and vertex multiplicity m, the four types contribute:

(i)   full cycle, every edge once (cycles only);
(ii)  a run of m+1 consecutive edges, each twice (needs k > m+1 vertices);
(iii) a run of m consecutive edges, each four times (needs k > m);
(iv)  a run of m consecutive edges, ends four times, interior twice
      (needs k > m).

On paths the start j ranges as in the side conditions above; on cycles it
takes every rotation.  Each distinct circuit is generated once: for m <= 2
a type (iv) run has no interior edge and repeats type (iii)'s at the same
start, so (iv) is generated only for m >= 3.  No other circuits coincide:
(i) is all 1s and (ii) all 2s, (iii) and (iv) differ on the interior, and
windows shorter than the cycle differ for distinct starts.  Type (iii)
dominates type (iv) termwise, which the tests pin down.

Each condition is one sparse lpcore row: ``(index, coeff)`` pairs over
the corner indices of ``gamma.corners``, which the link labels carry too,
and the linear program is solved exactly by lpcore.  ``solve`` reduces it by
the complex's own symmetry (``cells.corner_automorphisms``, permutations
of the corner indices): the variables shrink to corner orbits and rows
that become equal merge, which restricts the search to symmetric weight
systems.  That loses nothing: each permutation must be a bijection on
the indices and map the unreduced rows onto themselves (checked, else
RuntimeError), so averaging a solution over the group gives an
orbit-constant one with the same total weight.  Each permutation is
checked directly or as a product of checked ones: only a kept subset
maps the rows, and every other permutation is a composition of kept
ones.  The orbits are read from the kept subset too, and each stands for
its largest corner index, so the reduced system depends only on the
group, not on the order of its list.  ``solve`` builds the unreduced
system once, reduces it, re-checks the LP's witness or Farkas
certificate, and checks a feasible orbit solution, expanded to every
corner, against the unreduced system; an infeasible one's Farkas
certificate is over the orbit rows.  ``build_constraints`` and
``verify`` stay unreduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cells import BoundedComplex, CYCLE, Link, corner_automorphisms
from .lpcore import (EQ, FEASIBLE, GE, LE, LPRow, StandardFormLP,
                     check_certificate, solve_feasibility, violated_rows)

TYPE_I = "i"
TYPE_II = "ii"
TYPE_III = "iii"
TYPE_IV = "iv"


class WeightError(ValueError):
    """Weight system is not total on the corners, or malformed."""


@dataclass(frozen=True)
class Circuit:
    """A generated circuit: edge multiplicities along one link component.

    ``counts[p]`` is the number of times the walk traverses the component's
    p-th link edge; ``corners[p]`` is the corner labelling that edge, an
    index into ``gamma.corners``; sum(counts) is the walk length.
    """

    vertex: int
    ctype: str
    component: int
    start: int
    counts: tuple
    corners: tuple


# Runs of consecutive link edges behind types (ii)-(iv): the type, the run
# length minus m, and the count on the run's end edges and inside it.
_RUNS = ((TYPE_II, 1, 2, 2), (TYPE_III, 0, 4, 4), (TYPE_IV, 0, 4, 2))


def enumerate_circuits(link: Link):
    """Applicable circuits of the four types, each distinct one once: per
    component (i), then (ii), (iii) and (iv), each by start; (iv) only for
    m >= 3, as for m <= 2 it has the vector of (iii) at the same start."""
    out = []
    m = link.multiplicity
    cyclic = link.shape == CYCLE
    for ci, comp in enumerate(link.components):
        labels = comp.corners
        nedges = len(labels)
        nverts = len(comp.edges)  # link vertices; == nedges on a cycle
        if cyclic:
            out.append(Circuit(link.vertex, TYPE_I, ci, 0,
                               (1,) * nedges, labels))
        for ctype, extra, end, inside in _RUNS:
            run = m + extra
            if nverts <= run or (ctype == TYPE_IV and m <= 2):
                continue
            base = tuple(end if t in (0, run - 1) else inside
                         for t in range(run)) + (0,) * (nedges - run)
            # the run rotated to start j; on a path it never wraps
            for j in range(nverts if cyclic else nverts - run):
                out.append(Circuit(link.vertex, ctype, ci, j,
                                   base[nedges - j:] + base[:nedges - j],
                                   labels))
    return out


ASPHERICITY = "asphericity"
ADMISSIBILITY = "admissibility"
NONNEGATIVITY = "nonnegativity"


@dataclass(frozen=True)
class ConstraintSystem:
    """Falk feasibility instance over corner variables (or symmetry orbits).

    ``variables`` lists one representative corner per variable; ``orbits``
    gives the full corner set behind each variable; ``rows`` are tagged
    sparse LPRows with integer data, indexed by variable.  Nonnegativity
    of all variables is implicit.
    """

    variables: tuple
    orbits: tuple
    rows: tuple


def build_constraints(gamma: BoundedComplex, *,
                      equality_asphericity=False) -> ConstraintSystem:
    """Assemble the full constraint system of the bounded complex.

    One row per bounded face (corner weights sum to d(f) - 2, relation <=
    or = per the flag), one row per circuit of ``enumerate_circuits``
    (weight sum >= 2), each a sparse LPRow over the corners in
    ``gamma.corners`` order.  The rows are distinct as built: two faces
    share no corner, different vertices and link components have disjoint
    corners, face rows are <= or = and circuit rows >=, and one
    component's circuits have distinct vectors.
    """
    corners = gamma.corners
    # bounded face ids are 0 .. F-1, so each face's indices come ascending
    on_face = [[] for _ in gamma.faces]
    for n, c in enumerate(corners):
        on_face[c.face].append((n, 1))
    rel = EQ if equality_asphericity else LE
    rows = [LPRow(tuple(on), rel, f.size - 2, f"{ASPHERICITY} face {f.id}")
            for f, on in zip(gamma.faces, on_face)]
    for lk in gamma.links():
        for c in enumerate_circuits(lk):
            # a corner labels one edge of a link, so the indices are distinct
            rows.append(LPRow(
                tuple(sorted((j, k) for k, j in zip(c.counts, c.corners)
                             if k)), GE, 2,
                f"{ADMISSIBILITY} vertex {c.vertex} type ({c.ctype}) "
                f"component {c.component} start {c.start}"))
    return ConstraintSystem(tuple(corners), tuple((c,) for c in corners),
                            tuple(rows))


def _orbit_system(system, symmetry):
    """The unreduced ``system`` over the orbits of ``symmetry``, a list of
    corner index permutations, rows that become equal kept once, in order.
    Coefficients are accumulated over orbit members; RuntimeError unless
    each permutation is a bijection on the corner indices and they leave
    the unreduced system invariant."""
    corners = system.variables
    indices = list(range(len(corners)))
    for image in symmetry:
        if sorted(image) != indices:
            raise RuntimeError("permutation is not a bijection on corners")
    kept = _kept_permutations(symmetry)
    _check_symmetry_invariance(system.rows, kept)
    orbits, orbit_of = _corner_orbits(len(corners), kept)
    rows = []
    for row in system.rows:
        acc = {}
        for i, k in row.coeffs:
            o = orbit_of[i]
            acc[o] = acc.get(o, 0) + k
        rows.append(LPRow(tuple(sorted(acc.items())), row.rel, row.rhs,
                          row.tag))
    return ConstraintSystem(
        tuple(corners[orbit[-1]] for orbit in orbits),
        tuple(tuple(corners[i] for i in orbit) for orbit in orbits),
        tuple(dict.fromkeys(rows)))


def _corner_orbits(n, perms):
    """(orbits, orbit of each index) of the group the index permutations
    generate on range(n).  Each orbit is listed by ascending index and
    stands for its largest index; orbits are in the order of that index,
    so both depend only on the group, not on how ``perms`` list it."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for image in perms:
        for i, j in enumerate(image):
            ra, rb = find(i), find(j)
            if ra != rb:
                parent[ra] = rb
    members = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    orbits = sorted(members.values(), key=lambda orbit: orbit[-1])
    orbit_of = [0] * n
    for o, orbit in enumerate(orbits):
        for i in orbit:
            orbit_of[i] = o
    return tuple(orbits), orbit_of


def _kept_permutations(perms):
    """The index permutations the invariance check runs on: ``perms`` in
    order, less each one that is already a product of kept ones.

    A permutation counts as such a product when the kept ones reach it
    from the identity by composition without leaving the set of
    ``perms``: every element reached is composed once with every kept
    permutation, so there are at most (len(perms) + 1) * len(kept)
    compositions, and no permutation outside ``perms`` is kept.  A
    product of permutations that preserve the rows preserves them too, so
    checking the kept ones covers every one of ``perms`` (C. Sims,
    "Computational methods in the study of permutation groups", 1970).
    """
    supplied = set(perms)
    kept = []
    # reached element -> how many kept permutations it was composed with
    reached = {tuple(range(len(perms[0]))): 0} if perms else {}
    for perm in perms:
        if perm in reached:
            continue
        kept.append(perm)
        stack = list(reached)
        while stack:
            e = stack.pop()
            for g in kept[reached[e]:]:
                ge = tuple(map(g.__getitem__, e))
                if ge in supplied and ge not in reached:
                    reached[ge] = 0
                    stack.append(ge)
            reached[e] = len(kept)
    return kept


def _check_symmetry_invariance(rows, perms):
    """RuntimeError unless each index permutation maps the set of the
    distinct sparse ``rows`` onto itself.  ``_orbit_system`` passes the
    kept subset of the supplied permutations; the others are products of
    these and so preserve the rows as well."""
    keys = {(r.coeffs, r.rel, r.rhs) for r in rows}
    for image in perms:
        for r in rows:
            moved = tuple(sorted((image[i], k) for i, k in r.coeffs))
            if (moved, r.rel, r.rhs) not in keys:
                raise RuntimeError(
                    "permutation does not preserve the corner incidence "
                    "structure of the constraint system")


@dataclass(frozen=True)
class Violation:
    tag: str
    lhs: Fraction
    rel: str
    rhs: int


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    violations: tuple

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"


def check_corners(corners, weights):
    """Raise WeightError unless the weights are on exactly Gamma's
    ``corners``."""
    missing = [c for c in corners if c not in weights]
    if missing:
        raise WeightError(f"weight system misses {len(missing)} corners, "
                          f"first ({missing[0].vertex},{missing[0].face})")
    unknown = sorted(set(weights) - set(corners))
    if unknown:
        raise WeightError(f"weight system names {len(unknown)} corner(s) "
                          f"outside Gamma, first ({unknown[0].vertex},"
                          f"{unknown[0].face})")


def verify(gamma: BoundedComplex, weights) -> VerifyReport:
    """Check a weight system against every constraint of the full system."""
    check_corners(gamma.corners, weights)
    return _check_weights(build_constraints(gamma), weights)


def _check_weights(system, weights) -> VerifyReport:
    """The nonnegativity conditions and the rows of the unreduced
    ``system`` that ``weights``, total on its corners, violate (checked
    in ints by ``violated_rows``)."""
    x = [Fraction(weights[c]) for c in system.variables]
    violations = [Violation(f"{NONNEGATIVITY} corner ({c.vertex},{c.face})",
                            v, GE, 0)
                  for c, v in zip(system.variables, x) if v < 0]
    violations.extend(Violation(row.tag, lhs, row.rel, row.rhs)
                      for row, lhs in violated_rows(system.rows, x))
    return VerifyReport(not violations, tuple(violations))


@dataclass(frozen=True)
class SolveResult:
    status: str
    weights: dict | None
    system: ConstraintSystem
    lp: StandardFormLP
    lp_result: object

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def solve(gamma: BoundedComplex, *, equality_asphericity=False,
          minimize_total=False) -> SolveResult:
    """Search for a weight system via exact LP feasibility over the corner
    orbits of ``corner_automorphisms(gamma)``; a trivial group leaves the
    unreduced system as it is.

    The LP's witness or Farkas certificate is re-checked by
    ``check_certificate``, and a feasible outcome is a total nonnegative
    weight system, checked against every row of the unreduced system (the
    one ``verify`` checks, with = asphericity rows when asked for).  An
    infeasible outcome carries the lpcore Farkas certificate, which only
    certifies that the conditions have no nonnegative solution (never that
    the arrangement is not aspherical).  A failed check raises
    RuntimeError.  ``minimize_total`` additionally minimizes the sum of
    all corner weights for small reproducible output.
    """
    full = build_constraints(gamma, equality_asphericity=equality_asphericity)
    group = corner_automorphisms(gamma)
    system = _orbit_system(full, group) if group else full
    objective = None
    if minimize_total:
        objective = tuple(len(orbit) for orbit in system.orbits)
    lp = StandardFormLP(len(system.variables), system.rows,
                        objective=objective)
    res = solve_feasibility(lp)
    if not check_certificate(lp, res):
        raise RuntimeError("solver returned a witness or Farkas certificate "
                           "that fails its check")
    if res.status != FEASIBLE:
        return SolveResult(res.status, None, system, lp, res)
    weights = {}
    for value, orbit in zip(res.witness, system.orbits):
        for corner in orbit:
            weights[corner] = value
    if not _check_weights(full, weights).ok:
        raise RuntimeError("solver produced weights that fail verification")
    return SolveResult(FEASIBLE, weights, system, lp, res)
