"""Factorization search for affine line arrangements.

A factorization is a partition of the lines into two nonempty parts such
that every cross-part pair of lines meets, and at every intersection point
one of the two parts contributes exactly one line.  The condition is encoded
literally: at a point whose incident lines split (c1, c2) across the parts,
we require c1 == 1 or c2 == 1.  In particular a double point with both lines
in one part gives counts (2, 0) and is forbidden, which is what drives the
propagation below.

``find_factorization`` runs an exhaustive backtracking search with unit
propagation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import LineArrangement, intersection_points


@dataclass(frozen=True)
class Factorization:
    """Assignment of each line index to part 1 or part 2 (both nonempty)."""

    part1: frozenset
    part2: frozenset


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
    flats, _ = _incidence_data(arr)
    for line_set in flats:
        c1 = sum(1 for i in line_set if i in fac.part1)
        c2 = len(line_set) - c1
        if c1 != 1 and c2 != 1:
            return False
    return True


class _State:
    """Partial part assignment with unit propagation and a step trace."""

    def __init__(self, flats, parallel, n):
        self.flats = flats
        self.parallel = parallel
        self.n = n
        self.part = [0] * n  # 0 = unassigned
        self.trace = []
        self.contradiction = None

    def copy(self) -> "_State":
        dup = _State(self.flats, self.parallel, self.n)
        dup.part = list(self.part)
        dup.trace = list(self.trace)
        return dup

    def _fail(self, message: str) -> bool:
        self.contradiction = message
        return False

    def _set(self, line: int, part: int, reason: str) -> None:
        # callers pass only unassigned lines
        self.part[line] = part
        self.trace.append((line, part, reason))

    def assign(self, line: int, part: int, reason: str) -> bool:
        """Set one line and propagate to a fixpoint; False on contradiction."""
        self._set(line, part, reason)
        changed = True
        while changed:
            changed = False
            for i, j in self.parallel:
                a, b = self.part[i], self.part[j]
                if a and b and a != b:
                    return self._fail(f"parallel lines {i} and {j} lie in "
                                      f"different parts but never meet")
                if a and not b:
                    self._set(j, a, f"parallel to line {i}")
                    changed = True
                elif b and not a:
                    self._set(i, b, f"parallel to line {j}")
                    changed = True
            for line_set in self.flats:
                step = self._propagate_flat(line_set)
                if step is None:
                    return False
                changed = changed or step
        return True

    @staticmethod
    def _feasible(c1: int, c2: int, u: int) -> bool:
        # can the remaining u free lines still make c1 == 1 or c2 == 1?
        return c1 <= 1 <= c1 + u or c2 <= 1 <= c2 + u

    def _propagate_flat(self, line_set):
        """One propagation pass at a point; True if something got forced,
        None on contradiction."""
        c1 = sum(1 for i in line_set if self.part[i] == 1)
        c2 = sum(1 for i in line_set if self.part[i] == 2)
        free = [i for i in line_set if self.part[i] == 0]
        u = len(free)
        where = "point " + "&".join(str(i) for i in line_set)
        if not self._feasible(c1, c2, u):
            self._fail(f"{where}: part counts ({c1},{c2}) can no longer "
                       f"put a single line on either side")
            return None
        # with u >= 1 free lines left, a line that does not fit in part 1
        # fits in part 2; every free line faces the same choice, so the
        # first one is forced or none is
        if not free:
            return False
        if self._feasible(c1 + 1, c2, u - 1):
            if self._feasible(c1, c2 + 1, u - 1):
                return False
            part = 1
        else:
            part = 2
        self._set(free[0], part, f"{where} forces it (counts ({c1},{c2}), "
                                 f"otherwise no side keeps a single line)")
        # counts changed; let the outer fixpoint loop revisit this flat
        return True


def _search(state: _State):
    if all(state.part):
        # the fixpoint pass that completed the assignment checked every
        # point and parallel pair, and line 0 seeds part 1
        return state if 2 in state.part else None
    line = state.part.index(0)
    for part in (1, 2):
        child = state.copy()
        if child.assign(line, part, "search choice"):
            found = _search(child)
            if found is not None:
                return found
    return None


def find_factorization(arr: LineArrangement):
    """Exhaustive backtracking search; None iff no factorization exists.

    Ties are broken by putting line 0 into part 1, which loses nothing since
    existence is invariant under swapping the parts.
    """
    n = len(arr.lines)
    if n < 2:
        raise ValueError("factorization needs at least 2 lines")
    flats, parallel = _incidence_data(arr)
    root = _State(flats, parallel, n)
    if not root.assign(0, 1, "seed"):
        return None
    found = _search(root)
    if found is None:
        return None
    fac = Factorization(frozenset(i for i in range(n) if found.part[i] == 1),
                        frozenset(i for i in range(n) if found.part[i] == 2))
    if not is_valid_factorization(arr, fac):
        raise RuntimeError("search returned an invalid factorization")
    return fac


def propagation_trace(arr: LineArrangement):
    """Seeded unit-propagation record, for explaining a failed search.

    Returns (steps, contradiction): the (line, part, reason) triples derived
    from 'line 0 in part 1', and the failing condition if propagation alone
    already hits one (as it does for the icosidodecahedral deconing).
    """
    flats, parallel = _incidence_data(arr)
    state = _State(flats, parallel, len(arr.lines))
    state.assign(0, 1, "seed")
    return state.trace, state.contradiction
