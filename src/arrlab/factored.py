"""Factorization search for affine line arrangements.

A factorization is a partition of the lines into two nonempty parts such
that every cross-part pair of lines meets, and at every intersection point
one of the two parts contributes exactly one line.  The condition is encoded
literally: at a point whose incident lines split (c1, c2) across the parts,
we require c1 == 1 or c2 == 1.  In particular a double point with both lines
in one part gives counts (2, 0) and is forbidden, which is what drives the
propagation below.

``find_factorization`` runs an exhaustive backtracking search with unit
propagation.  Its result also records what propagation alone derives from
the seed "line 0 in part 1", which explains a NOT FACTORED answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import LineArrangement, intersection_points


@dataclass(frozen=True)
class Factorization:
    """Assignment of each line index to part 1 or part 2 (both nonempty)."""

    part1: frozenset
    part2: frozenset


@dataclass(frozen=True)
class FactorSearch:
    """Outcome of ``find_factorization``.

    ``factorization`` is None iff no factorization exists.  ``steps`` are the
    (line, part, reason) triples that unit propagation derives from 'line 0
    in part 1', and ``contradiction`` is the condition that propagation
    violates (as it does for the icosidodecahedral deconing), or None when
    the search had to go further.
    """

    factorization: Factorization | None
    steps: tuple
    contradiction: str | None


def _incidence_data(arr: LineArrangement):
    """Line sets of all intersection points, plus the parallel line pairs."""
    flats = [sorted(lines) for lines in intersection_points(arr).values()]
    n = len(arr.lines)
    parallel = [(i, j)
                for i in range(n) for j in range(i + 1, n)
                if arr.lines[i].is_parallel(arr.lines[j])]
    return flats, parallel


def is_valid_factorization(arr: LineArrangement, fac: Factorization) -> bool:
    """Re-check both defining conditions from scratch."""
    n = len(arr.lines)
    if fac.part1 | fac.part2 != set(range(n)) or fac.part1 & fac.part2:
        return False
    if not fac.part1 or not fac.part2:
        return False
    for i in fac.part1:
        for j in fac.part2:
            if arr.lines[i].is_parallel(arr.lines[j]):
                return False
    for line_set in intersection_points(arr).values():
        c1 = len(line_set & fac.part1)
        c2 = len(line_set) - c1
        if c1 != 1 and c2 != 1:
            return False
    return True


def _feasible(c1: int, c2: int, u: int) -> bool:
    # can the remaining u free lines still make c1 == 1 or c2 == 1?
    return c1 <= 1 <= c1 + u or c2 <= 1 <= c2 + u


def _point(line_set) -> str:
    return "point " + "&".join(map(str, line_set))


def _assign(part, line, side, reason, flats, parallel, trace):
    """Put an unassigned line on ``side`` and propagate to a fixpoint.

    Each (line, part, reason) set goes to ``trace``.  Returns the violated
    condition, or None when the fixpoint holds.  A pass runs the parallel
    pairs in order, then the points in order, until nothing changes.
    """
    part[line] = side
    trace.append((line, side, reason))
    changed = True
    while changed:
        changed = False
        for i, j in parallel:
            a, b = part[i], part[j]
            if a and b and a != b:
                return (f"parallel lines {i} and {j} lie in different parts "
                        f"but never meet")
            if a != b:  # exactly one of the pair is set
                free, fixed = (j, i) if a else (i, j)
                part[free] = part[fixed]
                trace.append((free, part[fixed], f"parallel to line {fixed}"))
                changed = True
        for line_set in flats:
            sides = [part[i] for i in line_set]
            c1, c2 = sides.count(1), sides.count(2)
            u = len(sides) - c1 - c2
            if not _feasible(c1, c2, u):
                return (f"{_point(line_set)}: part counts ({c1},{c2}) can no "
                        f"longer put a single line on either side")
            # with u >= 1 free lines left, a line that does not fit in part 1
            # fits in part 2; every free line faces the same choice, so the
            # first one is forced or none is
            if not u or (_feasible(c1 + 1, c2, u - 1)
                         and _feasible(c1, c2 + 1, u - 1)):
                continue
            forced = 1 if _feasible(c1 + 1, c2, u - 1) else 2
            free = line_set[sides.index(0)]
            part[free] = forced
            trace.append((free, forced,
                          f"{_point(line_set)} forces it (counts ({c1},{c2}), "
                          f"otherwise no side keeps a single line)"))
            changed = True
    return None


def _search(part, flats, parallel):
    """A propagated assignment completed by branching, or None."""
    if all(part):
        # the fixpoint pass that completed the assignment checked every
        # point and parallel pair, and line 0 seeds part 1
        return part if 2 in part else None
    line = part.index(0)
    for side in (1, 2):
        child = list(part)
        if _assign(child, line, side, "search choice", flats, parallel,
                   []) is None:
            found = _search(child, flats, parallel)
            if found is not None:
                return found
    return None


def find_factorization(arr: LineArrangement) -> FactorSearch:
    """Exhaustive backtracking search from the seeded propagation.

    Ties are broken by putting line 0 into part 1, which loses nothing since
    existence is invariant under swapping the parts.
    """
    n = len(arr.lines)
    if n < 2:
        raise ValueError("factorization needs at least 2 lines")
    flats, parallel = _incidence_data(arr)
    part, steps = [0] * n, []
    contradiction = _assign(part, 0, 1, "seed", flats, parallel, steps)
    found = None if contradiction else _search(part, flats, parallel)
    fac = None
    if found is not None:
        fac = Factorization(
            frozenset(i for i in range(n) if found[i] == 1),
            frozenset(i for i in range(n) if found[i] == 2))
        if not is_valid_factorization(arr, fac):
            raise RuntimeError("search returned an invalid factorization")
    return FactorSearch(fac, tuple(steps), contradiction)
