"""Exact linear feasibility over the rationals, with certificates.

Variables are implicitly nonnegative; rows are linear constraints with
relation <=, >=, or =.  A row is sparse: its coefficients are
``(index, coeff)`` pairs with strictly increasing variable indices and
nonzero coefficients, the one row form from constraint assembly to the
tableau, so equal rows are equal tuples.  Only the objective is a dense
tuple.  ``solve_feasibility`` runs a phase-1 simplex with Bland's
anti-cycling rule (deterministic pivot order, hence bit-identical
reruns).  It starts from a crash basis: the rows that need an artificial
variable split into blocks that share no variable (on the weight LPs,
one per vertex link), each block is solved on its own, and only the
rows that tie the blocks together are left to the global phase 1.  The
tableau stores one column per variable and one surplus column per row;
artificial variables live only in the basis and the cost vector.
It is sparse and fraction-free, as in Bareiss's and Edmonds's
integer elimination and Avis's lrs: each row is a dict of ints with a
positive row scale, and the exact row is the stored one over its scale.
Bland's rule reads only signs and cross-multiplied ratios, so it makes the
same pivots as on exact Fractions.  A feasible outcome carries a rational
witness, each basic value being the row's rhs over its scale.  The
objective is one more row of the tableau, the reduced costs over its
scale, updated by the same elimination as every other row; an infeasible
outcome carries Farkas multipliers, its phase-1 entries on the surplus
columns over its scale.  Both
are checkable by plain arithmetic in ``check_certificate`` without
consulting any solver state: the witness, or the multipliers, go over one
common denominator d, so each row is an integer sum compared with rhs * d.

Certificate convention: one multiplier per original row.  A multiplier u on
a '>=' row scales the row as is, on a '<=' row it scales the negated row
(so u must be nonnegative for both inequality kinds), and on a '=' row it
may have either sign.  Infeasibility means the combined row has every
variable coefficient <= 0 while its right-hand side is positive, which no
nonnegative x can satisfy.

When an objective is present and the system is feasible, a phase-2 simplex
minimizes it; unboundedness is reported as its own outcome.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

LE = "<="
GE = ">="
EQ = "="

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_HOLDS = {LE: operator.le, GE: operator.ge, EQ: operator.eq}


@dataclass(frozen=True)
class LPRow:
    """The constraint ``coeffs . x rel rhs``.

    ``coeffs`` is a tuple of ``(index, coeff)`` pairs, indices strictly
    increasing and every coeff nonzero; a variable that is absent has
    coefficient 0.  ``tag`` names the row in reports; it takes no part in
    equality, so two rows that differ only in their tags are duplicates.
    """

    coeffs: tuple
    rel: str
    rhs: object
    tag: str = field(default="", compare=False)

    def __post_init__(self):
        if self.rel not in _HOLDS:
            raise ValueError(f"bad relation {self.rel!r}")


@dataclass(frozen=True)
class StandardFormLP:
    """min objective . x  subject to rows, x >= 0 (objective optional).

    All data must be exact: ints or Fractions.
    """

    nvars: int
    rows: tuple
    objective: tuple | None = None

    def __post_init__(self):
        data = [r.rhs for r in self.rows]
        for r in self.rows:
            last = -1
            for j, c in r.coeffs:
                if not (isinstance(j, int) and last < j < self.nvars):
                    raise ValueError("row indices must increase strictly "
                                     "and stay below the variable count")
                if not c:
                    raise ValueError("zero coefficient in a sparse row")
                last = j
                data.append(c)
        if self.objective is not None:
            if len(self.objective) != self.nvars:
                raise ValueError("objective length does not match the "
                                 "variable count")
            data.extend(self.objective)
        if len(set(self.rows)) != len(self.rows):
            raise ValueError("duplicate rows")
        if not all(isinstance(c, (int, Fraction)) for c in data):
            raise TypeError("LP data must be ints or Fractions")


@dataclass(frozen=True)
class FeasibilityResult:
    status: str
    witness: tuple | None = None  # rational point, len nvars
    certificate: tuple | None = None  # multipliers, one per original row
    objective_value: object | None = None
    # simplex pivots made, drive-outs included, those of them on a row
    # whose rhs was 0 (the basic values did not move), and the row entries
    # combined with a pivot row entry in the constraint rows it cleared;
    # not part of the result's value
    pivots: int = field(default=0, compare=False)
    degenerate_pivots: int = field(default=0, compare=False)
    entry_updates: int = field(default=0, compare=False)


def _ge_form(lp: StandardFormLP):
    """Rows as (pairs, rhs) meaning pairs . x >= rhs, with a back-map
    [(original_row, sigma)] so '=' rows split into a +/- pair."""
    ge_rows = []
    back = []
    for idx, row in enumerate(lp.rows):
        if row.rel in (GE, EQ):
            ge_rows.append((row.coeffs, row.rhs))
            back.append((idx, 1))
        if row.rel in (LE, EQ):
            ge_rows.append((tuple((j, -c) for j, c in row.coeffs),
                            -row.rhs))
            back.append((idx, -1))
    return ge_rows, back


class _Tableau:
    """Sparse, fraction-free simplex tableau with Bland's rule.

    Internal rows arrive in ge-form (sparse pairs . x >= rhs) and are
    stored as equalities with a surplus column: x (columns 0 .. nvars-1)
    then one surplus per row.  A row whose rhs is <= 0 is negated so its
    surplus can start basic.  Every other row starts with an artificial
    variable basic; artificials get the ids ``nvars + m + k`` in ``basis``
    and ``cost`` but no stored column, since none may re-enter the basis
    once it has left.

    Rows 0 .. m-1 are the constraints and row m the objective (below).
    Row r holds integers only.  ``rows[r]`` maps each column to its nonzero
    entry, and the exact row and rhs are ``rows[r]`` and ``rhs[r]`` divided
    by the positive scale ``scale[r]``, for a constraint row the
    coefficient of the row's basic variable.  The scale is kept beside the
    row because an artificial basic variable has no stored column, and
    row m has none.  A row with Fraction data starts scaled
    by the lcm of its denominators.  A pivot on entry ``piv`` (the pivot
    row's scale) clears column ``col`` from each other row with cofactors,
    as in Bareiss's integer-preserving elimination: with ``f`` the row's
    entry there and ``g = gcd(piv, f)``, the row becomes
    ``(piv/g) * row - (f/g) * pivot row`` and its scale
    ``(piv/g) * scale``; then it is divided by the gcd of its entries, rhs
    and scale, which is looked for only when ``gcd(rhs, scale) > 1``.  The
    exact rows are the same as with the plain products, and ``piv/g`` is
    mostly 1, so most rows are not multiplied at all.  ``cols[j]`` holds
    the rows with a nonzero in column j, so a pivot touches only those
    rows, and one loop in ``_eliminate`` does the whole update of a row.

    As in the textbook tableau (G. Dantzig, "Linear programming and
    extensions", 1963), the objective is one more row: row m over
    ``scale[m]`` holds the reduced costs z_j = c_j - sum over rows of
    c_basis * T[r][j], and ``rhs[m] / scale[m]`` is minus the objective
    value.  ``_rebuild_objective`` builds it from ints alone over the lcm
    of the cost denominators and the costed rows' scales, and each pivot
    updates it in ``_eliminate`` like any other row; its gcd reduction
    takes in its rhs and scale too.  That update multiplies row m by
    ``piv/g > 0`` and changes only the columns of the pivot row, so only
    those can change sign: ``neg``, the set of columns with a negative
    reduced cost, is kept up to date there, and Bland's entering column
    is ``min(neg)``.  Its entry in row m is negative, so the ratio test,
    which takes only rows with a positive entry, never picks row m.
    A pivot on a row whose rhs is 0 moves no basic value and is counted in
    ``degenerate_pivots``; ``entry_updates`` counts the entries of the
    pivot row off column ``col`` once for each constraint row it clears,
    row m aside, a work count that does not depend on the machine.
    Only signs and cross-multiplied ratios are compared, so Bland's rule
    makes the same pivots as it would on the exact rows.

    Phase 1 starts from a crash basis (R. Bixby, "Implementing the simplex
    method: the initial basis", 1992) built from the block-angular shape
    of the rows (G. Dantzig and P. Wolfe, "Decomposition principle for
    linear programs", 1960).  The rows that start with an artificial fall
    into blocks, two rows being in one block when they share a column
    (one union-find).  With two blocks or more:

    * each block's rows are solved on their own, by phase 1 of a block
      tableau over the block's columns in ascending order, so Bland's rule
      sees the same column and tie order as here; blocks whose rows are
      equal over their local columns are solved once;
    * each block's final constraint rows, scales and basis are copied
      in, not replayed;
    * the rows that start with a basic surplus link the blocks: each
      column now basic in a block is cleared from them by one cofactor
      combination, the update a pivot makes (``_eliminate``), which keeps
      them primitive;
    * a linking row whose rhs is then negative is negated and gets an
      artificial, as at the start, and row m is rebuilt.

    The global phase 1 goes on from there.  With fewer than two blocks, as
    when = rows tie all the columns together, the start is the surplus and
    artificial basis alone.  ``pivots``, ``degenerate_pivots`` and
    ``entry_updates`` include the block solves, once for each distinct
    block, and ``entry_updates`` the clearing too.

    Farkas multipliers need no artificial columns, whatever the start.
    Every change of the rows, crash start included, negates or combines
    rows invertibly, so the exact rows are G [A | -I] for an invertible G,
    with A the ge-form rows and -I their surplus columns: for the current
    basis B, G = B^-1 and y = c_B B^-1 is the phase-1 cost of the basic
    artificials times G.  The reduced cost of x column j is then
    -(y A)_j and that of row k's surplus column y_k.  At a phase-1
    optimum they are all >= 0 while the objective y . b is > 0, so
    u_k = y_k, row m's entry on surplus column k over its scale, satisfy
    u >= 0, u A <= 0 and u . b > 0: they are the multipliers of the
    ge-form rows.
    """

    def __init__(self, ge_rows, nvars):
        m = len(ge_rows)
        self.m = m
        self.ncols = nvars + m
        self.rows = []
        self.rhs = []
        self.scale = []
        self.basis = []
        self.cost = [0] * self.ncols
        self.cols = [set() for _ in range(self.ncols)]
        self.pivots = 0
        self.degenerate_pivots = 0
        self.entry_updates = 0
        for i, (pairs, b) in enumerate(ge_rows):
            # scaled by the lcm of its denominators, with -lcm as its
            # surplus entry (a.x - s = b), the row is primitive
            lcm = math.lcm(b.denominator, *(c.denominator for _, c in pairs))
            row = {j: int(c * lcm) for j, c in pairs}
            row[nvars + i] = -lcm
            b = int(b * lcm)
            if b <= 0:
                row = {j: -c for j, c in row.items()}
                b = -b
                self.basis.append(nvars + i)
            else:
                self.basis.append(len(self.cost))
                self.cost.append(1)
            self.rows.append(row)
            self.rhs.append(b)
            self.scale.append(lcm)
            for j in row:
                self.cols[j].add(i)
        self._crash(ge_rows, nvars)

    def _crash(self, ge_rows, nvars):
        """Start from the solved blocks of the artificial rows, when there
        are two or more, then build row m, the objective."""
        art = [r for r, b in enumerate(self.basis) if b >= self.ncols]
        root = list(range(self.m))  # union-find over rows sharing a column

        def find(r):
            while root[r] != r:
                root[r] = root[root[r]]
                r = root[r]
            return r

        owner = {}
        for r in art:
            for j, _ in ge_rows[r][0]:
                root[find(owner.setdefault(j, r))] = find(r)
        blocks = {}
        for r in art:
            blocks.setdefault(find(r), []).append(r)
        if len(blocks) > 1:
            links = [r for r, b in enumerate(self.basis) if b < self.ncols]
            self._clear_links(links,
                              self._solve_blocks(ge_rows, nvars,
                                                 blocks.values()))
        self._rebuild_objective()

    def _solve_blocks(self, ge_rows, nvars, blocks):
        """Solve each block's rows on their own, by phase 1 of a block
        tableau over the block's columns in ascending order (identical
        blocks once), and copy its final rows, basis and counts in.
        Returns {basic column: row} of the copied rows."""
        rows, cols = self.rows, self.cols
        solved = {}
        basic = {}
        for block in blocks:
            xs = sorted({j for r in block for j, _ in ge_rows[r][0]})
            local = {j: k for k, j in enumerate(xs)}
            key = tuple((tuple((local[j], c) for j, c in ge_rows[r][0]),
                         ge_rows[r][1]) for r in block)
            sub = solved.get(key)
            if sub is None:
                sub = solved[key] = _Tableau(key, len(xs))
                sub.run()
                self.pivots += sub.pivots
                self.degenerate_pivots += sub.degenerate_pivots
                self.entry_updates += sub.entry_updates
            glob = xs + [nvars + r for r in block]
            # row k of the block tableau is row r here; its row m, the
            # block's objective, is not copied
            for k, r in enumerate(block):
                for j in rows[r]:
                    cols[j].discard(r)
                rows[r] = {glob[j]: v for j, v in sub.rows[k].items()}
                for j in rows[r]:
                    cols[j].add(r)
                self.rhs[r], self.scale[r] = sub.rhs[k], sub.scale[k]
                b_id = sub.basis[k]
                # a basic artificial has not left, so it is still row r's
                if b_id < sub.ncols:
                    self.basis[r] = glob[b_id]
                    basic[glob[b_id]] = r
        return basic

    def _clear_links(self, links, basic):
        """Clear each ``basic`` column of the blocks, {column: row}, from
        the ``links`` rows, then give each one whose rhs went negative an
        artificial."""
        # only linking rows hold a block's basic column outside its row,
        # and a block row holds no other basic column, so one elimination
        # per column clears them all
        for col, r in basic.items():
            self._eliminate(r, col)
        rows, rhs = self.rows, self.rhs
        for r in links:
            if rhs[r] < 0:
                row = rows[r]
                for j in row:
                    row[j] = -row[j]
                rhs[r] = -rhs[r]
                self.basis[r] = len(self.cost)
                self.cost.append(1)

    def _rebuild_objective(self):
        """Replace row m by the reduced costs z_j = c_j - sum over rows of
        c_basis * T[r][j], with rhs minus the objective value, the sum of
        c_basis * rhs[r], times the common denominator d of every term."""
        m, cost, scale, rhs = self.m, self.cost, self.scale, self.rhs
        for rows in self.cols:
            rows.discard(m)
        del self.rows[m:], rhs[m:], scale[m:]
        costed = [(r, cost[b]) for r, b in enumerate(self.basis) if cost[b]]
        d = math.lcm(*(c.denominator for c in cost if c),
                     *(c.denominator * scale[r] for r, c in costed))
        z = {j: c.numerator * (d // c.denominator)
             for j, c in enumerate(cost[:self.ncols]) if c}
        b = 0
        for r, c in costed:
            k = c.numerator * (d // (c.denominator * scale[r]))
            for j, v in self.rows[r].items():
                z[j] = z.get(j, 0) - k * v
            b -= k * rhs[r]
        g = math.gcd(d, b, *z.values())
        z = {j: v // g for j, v in z.items() if v}
        self.rows.append(z)
        rhs.append(b // g)
        scale.append(d // g)
        for j in z:
            self.cols[j].add(m)
        self.neg = {j for j, v in z.items() if v < 0}

    def objective_value(self):
        return Fraction(-self.rhs[self.m], self.scale[self.m])

    def _eliminate(self, r, col):
        """Clear column col from every other row with row r, whose entry
        there is its scale; returns row r's entries off column col.

        Each other row with an entry f in column col becomes
        p * row - q * row r, with g = gcd(piv, f), p = piv/g and q = f/g,
        and is made primitive again.
        """
        rows, rhs, scale, cols = self.rows, self.rhs, self.scale, self.cols
        b, piv = rhs[r], scale[r]
        # row r's entries off column col; every other row loses its entry
        # in column col outright
        pairs = [(j, v) for j, v in rows[r].items() if j != col]
        others = cols[col]
        cols[col] = {r}
        # constraint rows only: row m, the objective, is not counted
        self.entry_updates += ((len(others) - 1 - (self.m in others))
                               * len(pairs))
        for rr in others:
            if rr == r:
                continue
            target = rows[rr]
            f = target.pop(col)
            g = math.gcd(piv, f)
            q = f // g
            if g == piv:
                b2, s2 = rhs[rr] - q * b, scale[rr]
            else:
                p = piv // g
                for j in target:
                    target[j] *= p
                b2, s2 = p * rhs[rr] - q * b, p * scale[rr]
            for j, v in pairs:
                w = target.get(j)
                if w is None:
                    target[j] = -q * v
                    cols[j].add(rr)
                else:
                    w -= q * v
                    if w:
                        target[j] = w
                    else:
                        del target[j]
                        cols[j].discard(rr)
            g = math.gcd(b2, s2)
            if g > 1:
                g = math.gcd(g, *target.values())
                if g > 1:
                    for j in target:
                        target[j] //= g
                    b2 //= g
                    s2 //= g
            rhs[rr], scale[rr] = b2, s2
        return pairs

    def _pivot(self, r, col):
        rows, rhs, scale = self.rows, self.rhs, self.scale
        row = rows[r]
        b, piv = rhs[r], row[col]
        if piv < 0:  # only when driving out an artificial
            for j in row:
                row[j] = -row[j]
            b, piv = -b, -piv
        if not b:
            self.degenerate_pivots += 1
        # the row stays primitive over its new scale piv: a row's entries
        # and rhs alone have gcd 1, as its scale is one of its entries
        # (that of its basic column, or -scale on the surplus of its basic
        # artificial)
        rhs[r], scale[r] = b, piv
        costed = self.m in self.cols[col]
        pairs = self._eliminate(r, col)
        if costed:
            # row m became a positive multiple of itself minus one of row
            # r, so only the columns of row r can have changed sign
            z, neg = rows[self.m], self.neg
            neg.discard(col)
            for j, _ in pairs:
                if z.get(j, 0) < 0:
                    neg.add(j)
                else:
                    neg.discard(j)
        self.basis[r] = col
        self.pivots += 1

    def run(self):
        """Bland's rule simplex on the current cost; returns 'optimal' or
        'unbounded'."""
        rows, rhs, basis, neg = self.rows, self.rhs, self.basis, self.neg
        while neg:
            col = min(neg)
            # the ratio of row r is rhs[r] / a; ties go to the lower basis id
            best = None
            for r in self.cols[col]:
                a = rows[r][col]
                if a > 0 and (best is None or (rhs[r] * best_a, basis[r])
                              < (rhs[best] * a, basis[best])):
                    best, best_a = r, a
            if best is None:
                return "unbounded"
            self._pivot(best, col)
        return "optimal"

    def witness(self, nvars):
        x = [Fraction(0)] * nvars
        for r, b in enumerate(self.basis):
            if b < nvars:
                x[b] = Fraction(self.rhs[r], self.scale[r])
        return tuple(x)


def solve_feasibility(lp: StandardFormLP) -> FeasibilityResult:
    """Phase-1 simplex (plus phase-2 when an objective is given)."""
    ge_rows, back = _ge_form(lp)
    tab = _Tableau(ge_rows, lp.nvars)

    def result(status, **values):
        return FeasibilityResult(status, **values, pivots=tab.pivots,
                                 degenerate_pivots=tab.degenerate_pivots,
                                 entry_updates=tab.entry_updates)

    tab.run()
    if tab.objective_value() > 0:
        # infeasible: the multiplier of ge-form row k is row m's entry on
        # its surplus column; '=' rows map back through sigma
        mults = [Fraction(0)] * len(lp.rows)
        for k, (orig, sigma) in enumerate(back):
            u = Fraction(tab.rows[tab.m].get(lp.nvars + k, 0),
                         tab.scale[tab.m])
            mults[orig] += sigma * u if lp.rows[orig].rel == EQ else u
        return result(INFEASIBLE, certificate=tuple(mults))
    if lp.objective is None:
        return result(FEASIBLE, witness=tab.witness(lp.nvars))
    # phase 2: drive out lingering basic artificials (on the first nonzero
    # column of their row, which holds at least the artificial's surplus
    # column), then minimize
    for r in range(tab.m):
        if tab.basis[r] >= tab.ncols:
            tab._pivot(r, min(tab.rows[r]))
    tab.cost = list(lp.objective) + [0] * (len(tab.cost) - lp.nvars)
    tab._rebuild_objective()
    if tab.run() == "unbounded":
        return result(UNBOUNDED)
    return result(FEASIBLE, witness=tab.witness(lp.nvars),
                  objective_value=tab.objective_value())


def _scaled(values):
    """(d, the values times d): d is the lcm of the denominators of the
    exact ``values``, so the scaled values are ints."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _exact(values, n) -> bool:
    """Whether ``values`` holds n ints or Fractions."""
    return (values is not None and len(values) == n
            and all(isinstance(v, (int, Fraction)) for v in values))


def violated_rows(rows, x):
    """Yield ``(row, lhs)`` for each of the ``rows`` that the exact point x
    violates, lhs being the row's left-hand side at x as a Fraction.

    x is put over one common denominator d first, so a row is checked as
    one sum against ``rhs * d``, in ints when the row's data are ints; only
    a violated row's lhs is divided back by d.
    """
    d, xs = _scaled(x)
    for row in rows:
        lhs = sum([c * xs[j] for j, c in row.coeffs])
        if not _HOLDS[row.rel](lhs, row.rhs * d):
            yield row, Fraction(lhs, d)


def check_certificate(lp: StandardFormLP, result: FeasibilityResult) -> bool:
    """Independent arithmetic re-check of a witness or Farkas certificate.

    The witness, or the multipliers, and the objective value must be ints
    or Fractions.  The witness, or the multipliers, are scaled by the lcm
    of their denominators, so with integer LP data every sum is an int.
    """
    if result.status == FEASIBLE:
        x = result.witness
        if (not _exact(x, lp.nvars) or any(v < 0 for v in x)
                or next(violated_rows(lp.rows, x), None)):
            return False
        if lp.objective is None:
            return True
        d, xs = _scaled(x)
        return (isinstance(result.objective_value, (int, Fraction))
                and sum(map(operator.mul, lp.objective, xs))
                == result.objective_value * d)
    if result.status == INFEASIBLE:
        u = result.certificate
        if not _exact(u, len(lp.rows)):
            return False
        # the multipliers times d > 0: the same signs, the same verdict
        _, us = _scaled(u)
        combined = [0] * lp.nvars
        rhs = 0
        for s, row in zip(us, lp.rows):
            if row.rel != EQ:
                if s < 0:
                    return False
                if row.rel == LE:
                    s = -s
            if s:
                for j, c in row.coeffs:
                    combined[j] += s * c
                rhs += s * row.rhs
        return all(c <= 0 for c in combined) and rhs > 0
    return False
