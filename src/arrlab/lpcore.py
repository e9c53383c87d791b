"""Exact linear feasibility over the rationals, with certificates.

Variables are implicitly nonnegative; rows are linear constraints with
relation <=, >=, or =.  ``solve_feasibility`` runs a phase-1 simplex with
Bland's anti-cycling rule over exact Fractions (deterministic pivot order,
hence bit-identical reruns).  The tableau stores one column per variable and
one surplus column per row; artificial variables live only in the basis and
the cost vector.  A feasible outcome carries a rational witness; an
infeasible one carries Farkas multipliers, read from the phase-1 reduced
costs of the surplus columns.  Both are checkable by plain arithmetic in
``check_certificate`` without consulting any solver state.

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


def _dot(coeffs, x) -> Fraction:
    return sum((c * v for c, v in zip(coeffs, x) if c), Fraction(0))


@dataclass(frozen=True)
class LPRow:
    """The constraint ``coeffs . x rel rhs``.

    ``tag`` names the row in reports; it takes no part in equality, so two
    rows that differ only in their tags are duplicates.
    """

    coeffs: tuple
    rel: str
    rhs: object
    tag: str = field(default="", compare=False)

    def __post_init__(self):
        if self.rel not in _HOLDS:
            raise ValueError(f"bad relation {self.rel!r}")

    def value(self, x) -> Fraction:
        """The left-hand side at the point x."""
        return _dot(self.coeffs, x)

    def holds(self, value) -> bool:
        """Whether a left-hand side of ``value`` satisfies the row."""
        return _HOLDS[self.rel](value, self.rhs)


@dataclass(frozen=True)
class StandardFormLP:
    """min objective . x  subject to rows, x >= 0 (objective optional).

    All data must be exact: ints or Fractions.
    """

    nvars: int
    rows: tuple
    objective: tuple | None = None

    def __post_init__(self):
        vectors = [r.coeffs for r in self.rows]
        if self.objective is not None:
            vectors.append(self.objective)
        if any(len(v) != self.nvars for v in vectors):
            raise ValueError("row or objective length does not match the "
                             "variable count")
        if len(set(self.rows)) != len(self.rows):
            raise ValueError("duplicate rows")
        data = [c for v in vectors for c in v] + [r.rhs for r in self.rows]
        if not all(isinstance(c, (int, Fraction)) for c in data):
            raise TypeError("LP data must be ints or Fractions")


@dataclass(frozen=True)
class FeasibilityResult:
    status: str
    witness: tuple | None = None  # rational point, len nvars
    certificate: tuple | None = None  # multipliers, one per original row
    objective_value: object | None = None


def _ge_form(lp: StandardFormLP):
    """Rows as (coeffs, rhs) meaning coeffs . x >= rhs, with a back-map
    [(original_row, sigma)] so '=' rows split into a +/- pair."""
    ge_rows = []
    back = []
    for idx, row in enumerate(lp.rows):
        if row.rel in (GE, EQ):
            ge_rows.append((row.coeffs, row.rhs))
            back.append((idx, 1))
        if row.rel in (LE, EQ):
            ge_rows.append((tuple(-c for c in row.coeffs), -row.rhs))
            back.append((idx, -1))
    return ge_rows, back


class _Tableau:
    """Dense simplex tableau over Fractions with Bland's rule.

    Internal rows arrive in ge-form (coeffs . x >= rhs) and are stored as
    equalities with a surplus column, so each row has ``nvars + m`` entries:
    x (columns 0 .. nvars-1) then one surplus per row.  A row whose rhs is
    <= 0 is negated so its surplus can start basic.  Every other row starts
    with an artificial variable basic; artificials get the ids
    ``nvars + m + k`` in ``basis`` and ``cost`` but no stored column, since
    none may re-enter the basis once it has left.

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
        for i, (coeffs, b) in enumerate(ge_rows):
            row = [Fraction(c) for c in coeffs] + [zero] * m
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
        f = self.red[col]
        if f:
            red = self.red
            for j in nz:
                red[j] -= f * row[j]
        self.basis[r] = col

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


def solve_feasibility(lp: StandardFormLP) -> FeasibilityResult:
    """Phase-1 simplex (plus phase-2 when an objective is given)."""
    ge_rows, back = _ge_form(lp)
    tab = _Tableau(ge_rows, lp.nvars)
    tab.run()
    if tab.objective_value() > 0:
        # infeasible: the multiplier of ge-form row k is the reduced cost
        # of its surplus column; '=' rows map back through sigma
        mults = [Fraction(0)] * len(lp.rows)
        for k, (orig, sigma) in enumerate(back):
            u = tab.red[lp.nvars + k]
            mults[orig] += sigma * u if lp.rows[orig].rel == EQ else u
        return FeasibilityResult(INFEASIBLE, certificate=tuple(mults))
    if lp.objective is None:
        return FeasibilityResult(FEASIBLE, witness=tab.witness(lp.nvars))
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
        return FeasibilityResult(UNBOUNDED)
    return FeasibilityResult(FEASIBLE, witness=tab.witness(lp.nvars),
                             objective_value=tab.objective_value())


def check_certificate(lp: StandardFormLP, result: FeasibilityResult) -> bool:
    """Independent arithmetic re-check of a witness or Farkas certificate."""
    if result.status == FEASIBLE:
        x = result.witness
        if x is None or len(x) != lp.nvars or any(v < 0 for v in x):
            return False
        if not all(row.holds(row.value(x)) for row in lp.rows):
            return False
        return (lp.objective is None
                or (result.objective_value is not None
                    and _dot(lp.objective, x) == result.objective_value))
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
                for j, c in enumerate(row.coeffs):
                    combined[j] += s * c
                rhs += s * row.rhs
        return all(c <= 0 for c in combined) and rhs > 0
    return False
