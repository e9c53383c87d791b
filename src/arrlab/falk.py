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

On paths the start j ranges as in the side conditions above; on cycles all
rotations are generated and duplicates are removed by multiplicity vector.
Type (iii) dominates type (iv) termwise, which the tests pin down.

The linear program over the corner variables is solved exactly by lpcore.
An optional symmetry (corner permutations, such as
``cells.corner_automorphisms``; the CLI always passes that group) shrinks
the variables to orbits and merges rows that become equal, which
restricts the search to symmetric weight systems.  That loses nothing:
each permutation must map the unreduced rows onto themselves (checked,
else SymmetryError), so averaging a solution over the group gives an
orbit-constant one with the same total weight.  A feasible orbit solution
is expanded to every corner and verified against the unreduced system; an
infeasible one's Farkas certificate is over the orbit rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cells import BoundedComplex, CYCLE, Corner, Link
from .lpcore import (EQ, FEASIBLE, GE, LE, LPRow, StandardFormLP,
                     solve_feasibility)

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
    p-th link edge; ``corners[p]`` is the corner labelling that edge.
    ``steps`` is the walk length, which always equals sum(counts).
    """

    vertex: int
    ctype: str
    component: int
    start: int
    counts: tuple
    corners: tuple

    @property
    def steps(self) -> int:
        return sum(self.counts)


# Runs of consecutive link edges behind types (ii)-(iv): the type, the run
# length minus m, and the count on the run's end edges and inside it.
_RUNS = ((TYPE_II, 1, 2, 2), (TYPE_III, 0, 4, 4), (TYPE_IV, 0, 4, 2))


def _raw_circuits(link: Link, m: int):
    """All circuits before deduplication, in deterministic order."""
    out = []
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
            if nverts <= run:
                continue
            for j in range(nverts if cyclic else nverts - run):
                counts = [0] * nedges
                for t in range(run):
                    counts[(j + t) % nedges] = (end if t in (0, run - 1)
                                                else inside)
                out.append(Circuit(link.vertex, ctype, ci, j,
                                   tuple(counts), labels))
    return out


def enumerate_circuits(link: Link):
    """Applicable circuits of the four types, deduplicated by multiplicity
    vector (rotations and mirror walks collapse)."""
    seen = set()
    out = []
    for c in _raw_circuits(link, link.multiplicity):
        key = (c.component, c.counts)
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


ASPHERICITY = "asphericity"
ADMISSIBILITY = "admissibility"
NONNEGATIVITY = "nonnegativity"


@dataclass(frozen=True)
class ConstraintSystem:
    """Falk feasibility instance over corner variables (or symmetry orbits).

    ``variables`` lists one representative corner per variable; ``orbits``
    gives the full corner set behind each variable; ``rows`` are tagged
    LPRows with integer data.  Nonnegativity of all variables is implicit.
    """

    variables: tuple
    orbits: tuple
    rows: tuple


class SymmetryError(ValueError):
    """A supplied corner permutation does not preserve the constraints."""


def _corner_orbits(corners, symmetry):
    parent = {c: c for c in corners}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for perm in symmetry:
        if set(perm) != set(corners) or set(perm.values()) != set(corners):
            raise SymmetryError("permutation is not a bijection on corners")
        for c, d in perm.items():
            ra, rb = find(c), find(d)
            if ra != rb:
                parent[ra] = rb
    orbits = {}
    for c in corners:
        orbits.setdefault(find(c), []).append(c)
    reps = sorted(orbits)
    return tuple(reps), tuple(tuple(sorted(orbits[r])) for r in reps)


def build_constraints(gamma: BoundedComplex, *, equality_asphericity=False,
                      symmetry=None) -> ConstraintSystem:
    """Assemble the full constraint system of the bounded complex.

    One row per bounded face (corner weights sum to d(f) - 2, relation <=
    or = per the flag), one row per deduplicated circuit (weight sum >= 2).
    With a symmetry, variables become corner orbits and coefficients are
    accumulated over orbit members; the permutations must leave the
    unreduced system invariant.
    """
    corners = gamma.corners
    corner_rows = []
    for f in gamma.faces:
        coeffs = {Corner(v, f.id): 1 for v in f.vertex_ids}
        corner_rows.append((coeffs, EQ if equality_asphericity else LE,
                            f.size - 2, f"{ASPHERICITY} face {f.id}"))
    for lk in gamma.links():
        for c in enumerate_circuits(lk):
            coeffs = {}
            for count, corner in zip(c.counts, c.corners):
                if count:
                    coeffs[corner] = coeffs.get(corner, 0) + count
            corner_rows.append(
                (coeffs, GE, 2,
                 f"{ADMISSIBILITY} vertex {c.vertex} type ({c.ctype}) "
                 f"component {c.component} start {c.start}"))

    if symmetry:
        variables, orbits = _corner_orbits(corners, symmetry)
        _check_symmetry_invariance(corner_rows, symmetry)
    else:
        variables = corners
        orbits = tuple((c,) for c in corners)
    var_index = {}
    for idx, orbit in enumerate(orbits):
        for c in orbit:
            var_index[c] = idx

    rows = []
    seen = set()
    for coeffs, rel, rhs, tag in corner_rows:
        dense = [0] * len(variables)
        for corner, k in coeffs.items():
            dense[var_index[corner]] += k
        row = LPRow(tuple(dense), rel, rhs, tag)
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return ConstraintSystem(tuple(variables), orbits, tuple(rows))


def _check_symmetry_invariance(corner_rows, symmetry):
    rows_as_set = {}
    for coeffs, rel, rhs, _ in corner_rows:
        key = (frozenset(coeffs.items()), rel, rhs)
        rows_as_set[key] = rows_as_set.get(key, 0) + 1
    for perm in symmetry:
        permuted = {}
        for coeffs, rel, rhs, _ in corner_rows:
            key = (frozenset((perm[c], k) for c, k in coeffs.items()),
                   rel, rhs)
            permuted[key] = permuted.get(key, 0) + 1
        if permuted != rows_as_set:
            raise SymmetryError(
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
    violations = []
    for c in gamma.corners:
        if Fraction(weights[c]) < 0:
            violations.append(Violation(
                f"{NONNEGATIVITY} corner ({c.vertex},{c.face})",
                Fraction(weights[c]), GE, 0))
    system = build_constraints(gamma)
    x = [Fraction(weights[c]) for c in system.variables]
    for row in system.rows:
        lhs = row.value(x)
        if not row.holds(lhs):
            violations.append(Violation(row.tag, lhs, row.rel, row.rhs))
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
          minimize_total=False, symmetry=None) -> SolveResult:
    """Search for a weight system via exact LP feasibility.

    A feasible outcome is a total nonnegative weight system that passes
    ``verify``; an infeasible one carries the lpcore Farkas certificate,
    which only certifies that the conditions have no nonnegative solution
    (never that the arrangement is not aspherical).  ``minimize_total``
    additionally minimizes the sum of all corner weights for small
    reproducible output.
    """
    system = build_constraints(gamma, equality_asphericity=equality_asphericity,
                               symmetry=symmetry)
    objective = None
    if minimize_total:
        objective = tuple(len(orbit) for orbit in system.orbits)
    lp = StandardFormLP(len(system.variables), system.rows,
                        objective=objective)
    res = solve_feasibility(lp)
    if res.status != FEASIBLE:
        return SolveResult(res.status, None, system, lp, res)
    weights = {}
    for value, orbit in zip(res.witness, system.orbits):
        for corner in orbit:
            weights[corner] = value
    if not verify(gamma, weights).ok:
        raise RuntimeError("solver produced weights that fail verification")
    return SolveResult(FEASIBLE, weights, system, lp, res)
