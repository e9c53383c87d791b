import hashlib
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from arrlab.cells import bounded_complex, build_complex
from arrlab.falk import build_constraints, solve
from arrlab.lpcore import (
    FEASIBLE,
    INFEASIBLE,
    FeasibilityResult,
    LPRow,
    StandardFormLP,
    UNBOUNDED,
    _ge_form,
    _Tableau,
    check_certificate,
    solve_feasibility,
)

from oracles import (
    DenseTableau,
    check_certificate_reference,
    dense_coeffs,
    dense_simplex_reference,
    essential_random_line_arrangement,
    fourier_motzkin_feasible,
    fourier_motzkin_minimum,
    fraction_reduced_costs,
    random_block_lp,
    random_lp,
    sparse_coeffs,
)

F = Fraction

# sparse rows: (index, coeff) pairs
X = ((0, 1),)
X_PLUS_Y = ((0, 1), (1, 1))
X_MINUS_Y = ((0, 1), (1, -1))


def test_contradictory_bounds():
    lp = StandardFormLP(1, (LPRow(X, ">=", 2), LPRow(X, "<=", 1)))
    res = solve_feasibility(lp)
    assert res.status == INFEASIBLE
    assert res.certificate == (F(1), F(1))
    assert check_certificate(lp, res)


def test_simple_feasible_at_origin():
    lp = StandardFormLP(2, (LPRow(X_PLUS_Y, "<=", 1),))
    res = solve_feasibility(lp)
    assert res.status == FEASIBLE
    assert res.witness == (0, 0)
    assert check_certificate(lp, res)


def test_corrupted_witness_rejected():
    lp = StandardFormLP(2, (LPRow(X_PLUS_Y, "=", 1),))
    res = solve_feasibility(lp)
    assert res.status == FEASIBLE
    bad = (res.witness[0] + 1,) + res.witness[1:]
    assert not check_certificate(lp, replace(res, witness=bad))
    # each of these satisfies x + y = 1 as far as it goes
    assert not check_certificate(lp, replace(res, witness=(F(1),)))
    assert not check_certificate(lp, replace(res, witness=(F(2), F(-1))))
    assert not check_certificate(lp, replace(res, status=UNBOUNDED))


def test_corrupted_certificate_rejected():
    lp = StandardFormLP(1, (LPRow(X, ">=", 2), LPRow(X, "<=", 1)))
    res = solve_feasibility(lp)
    assert not check_certificate(
        lp, replace(res, certificate=(F(-1), F(1))))
    assert not check_certificate(
        lp, replace(res, certificate=(F(0), F(0))))
    # one multiplier short: the first two rows alone are contradictory
    lp = StandardFormLP(1, lp.rows + (LPRow(X, ">=", 0),))
    res = solve_feasibility(lp)
    assert res.certificate == (F(1), F(1), F(0))
    assert not check_certificate(lp, replace(res, certificate=(F(1), F(1))))
    # -x <= 1 read as -x >= 1 would be contradictory
    lp = StandardFormLP(1, (LPRow(((0, -1),), "<=", 1),))
    assert not check_certificate(
        lp, FeasibilityResult(INFEASIBLE, certificate=(F(-1),)))


def test_phase2_minimization():
    lp = StandardFormLP(2, (LPRow(X_PLUS_Y, ">=", 4),
                            LPRow(X_MINUS_Y, "<=", 2)),
                        objective=(3, 1))
    res = solve_feasibility(lp)
    assert res.status == FEASIBLE
    assert check_certificate(lp, res)
    # optimum at x = 0, y = 4
    assert res.objective_value == 4
    assert res.witness == (0, 4)
    assert not check_certificate(lp, replace(res, objective_value=None))
    assert not check_certificate(lp, replace(res, objective_value=F(5)))


def test_phase2_unbounded():
    lp = StandardFormLP(1, (LPRow(X, ">=", 1),), objective=(-1,))
    assert solve_feasibility(lp).status == UNBOUNDED


def test_phase2_drives_out_artificial_on_negative_entry():
    # phase 1 pivots x in for the surplus of -2x >= -1 (lower basis id on
    # a tied ratio), leaving the artificial of 2x >= 1 basic at 0 on the
    # row -s1 - s2; phase 2 drives it out on the negative entry of s1
    lp = StandardFormLP(1, (LPRow(((0, 2),), "=", 1),), objective=(2,))
    res = solve_feasibility(lp)
    assert res == FeasibilityResult(FEASIBLE, witness=(F(1, 2),),
                                    objective_value=1)
    assert res.pivots == 3
    assert check_certificate(lp, res)


def test_equality_rows():
    lp = StandardFormLP(2, (LPRow(X_PLUS_Y, "=", 3), LPRow(X_MINUS_Y, "=", 1)))
    res = solve_feasibility(lp)
    assert res.status == FEASIBLE
    assert res.witness == (2, 1)


def test_duplicate_rows_rejected():
    with pytest.raises(ValueError):
        StandardFormLP(1, (LPRow(X, ">=", 1), LPRow(X, ">=", 1)))
    # tags name rows for reports; they do not make rows distinct
    with pytest.raises(ValueError):
        StandardFormLP(1, (LPRow(X, ">=", 1, "a"),
                           LPRow(X, ">=", 1, "b")))


@pytest.mark.parametrize("rows, objective", [
    ((LPRow(((0, 0.5),), ">=", 1),), None),
    ((LPRow(X, ">=", 0.5),), None),
    ((LPRow(X, ">=", 1),), (0.5,)),
], ids=["coefficient", "rhs", "objective"])
def test_inexact_data_rejected(rows, objective):
    with pytest.raises(TypeError):
        StandardFormLP(1, rows, objective=objective)


def test_bad_relation_rejected():
    with pytest.raises(ValueError, match="bad relation"):
        LPRow(X, "<", 0)


def test_row_index_out_of_range_rejected():
    with pytest.raises(ValueError, match="variable count"):
        StandardFormLP(2, (LPRow(((2, 1),), ">=", 1),))
    with pytest.raises(ValueError, match="variable count"):
        StandardFormLP(2, (LPRow(((-1, 1),), ">=", 1),))
    StandardFormLP(2, (LPRow(((1, 1),), ">=", 1),))


@pytest.mark.parametrize("pairs", [
    ((1, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (1, 0))],
    ids=["unsorted", "repeated", "zero"])
def test_noncanonical_pairs_rejected(pairs):
    # one form per row, so equal rows are equal tuples
    with pytest.raises(ValueError):
        StandardFormLP(2, (LPRow(pairs, ">=", 1),))


def test_objective_length_checked():
    with pytest.raises(ValueError, match="objective length"):
        StandardFormLP(2, (LPRow(X, ">=", 1),), objective=(1,))


def test_empty_system_feasible():
    lp = StandardFormLP(3, ())
    res = solve_feasibility(lp)
    assert res.status == FEASIBLE and res.witness == (0, 0, 0)


def test_empty_system_with_objective():
    # with no rows, only x >= 0 limits the objective
    lp = StandardFormLP(1, (), objective=(-1,))
    assert solve_feasibility(lp).status == UNBOUNDED
    lp = StandardFormLP(2, (), objective=(0, 1))
    res = solve_feasibility(lp)
    assert res.status == FEASIBLE and res.witness == (0, 0)
    assert res.objective_value == 0
    assert check_certificate(lp, res)


def test_determinism():
    rng = random.Random(4)
    for _ in range(20):
        lp = random_lp(rng)
        a = solve_feasibility(lp)
        b = solve_feasibility(lp)
        assert a == b


def test_fuzz_against_fourier_motzkin():
    rng = random.Random(2024)
    agree_feasible = agree_infeasible = 0
    for _ in range(120):
        lp = random_lp(rng)
        res = solve_feasibility(lp)
        assert check_certificate(lp, res), lp
        rows = [(r.coeffs, r.rel, r.rhs) for r in lp.rows]
        expected = fourier_motzkin_feasible(rows, lp.nvars)
        assert (res.status == FEASIBLE) == expected, lp
        if expected:
            agree_feasible += 1
        else:
            agree_infeasible += 1
    assert agree_feasible > 10 and agree_infeasible > 10


def test_rational_data_survives():
    lp = StandardFormLP(
        1, (LPRow(((0, F(2, 3)),), ">=", F(1, 7)),), objective=(1,))
    res = solve_feasibility(lp)
    assert res.status == FEASIBLE
    assert res.witness == (F(3, 14),)
    assert res.objective_value == F(3, 14)


def _blocks_solved(monkeypatch):
    """The list of the tableaux that go on to start from solved blocks,
    appended to as each one does."""
    calls = []
    solve_blocks = _Tableau._solve_blocks

    def counted(tab, *args):
        calls.append(tab)
        return solve_blocks(tab, *args)
    monkeypatch.setattr(_Tableau, "_solve_blocks", counted)
    return calls


def test_block_infeasible_on_its_own(monkeypatch):
    # x0 >= 1 and -x1 >= 1 are two blocks; the second has no solution, so
    # its artificial stays basic after the crash and phase 1 stops there
    blocks = _blocks_solved(monkeypatch)
    lp = StandardFormLP(2, (LPRow(X, ">=", 1), LPRow(((1, -1),), ">=", 1),
                            LPRow(X_PLUS_Y, "<=", 5)))
    res = solve_feasibility(lp)
    assert len(blocks) == 1
    assert res.status == INFEASIBLE
    assert res.certificate == (0, 1, 0)
    assert check_certificate(lp, res)


def test_linking_row_violated_by_the_crash_gets_an_artificial():
    # the blocks x0 >= 2 and x1 + x2 >= 1 solve to x0 = 2, x1 = 1, x2 = 0,
    # which violates the linking row x0 - x2 <= 1
    lp = StandardFormLP(3, (LPRow(X, ">=", 2),
                            LPRow(((1, 1), (2, 1)), ">=", 1),
                            LPRow(((0, 1), (2, -1)), "<=", 1)))
    ge_rows, _ = _ge_form(lp)
    tab = _Tableau(ge_rows, lp.nvars)
    # the block rows' artificials left; the linking row's is the next id
    assert tab.basis == [0, 1, tab.ncols + 2]
    assert tab.pivots == 2 and tab.objective_value() == 1
    assert tab.rows[2] == {2: 1, 3: -1, 5: -1} and tab.rhs[2] == 1
    res = solve_feasibility(lp)
    assert res.status == FEASIBLE and res.witness == (2, 0, 1)
    assert check_certificate(lp, res)


def test_identical_blocks_are_solved_once(monkeypatch):
    blocks = _blocks_solved(monkeypatch)
    twins = (LPRow(((0, 1), (1, 2)), ">=", 3),
             LPRow(((2, 1), (3, 2)), ">=", 3))
    res = solve_feasibility(StandardFormLP(4, twins))
    assert res.witness == (3, 0, 3, 0)
    # one pivot for both blocks; a different rhs makes them two
    assert res.pivots == 1
    other = (twins[0], LPRow(twins[1].coeffs, ">=", 4))
    res = solve_feasibility(StandardFormLP(4, other))
    assert res.witness == (3, 0, 4, 0) and res.pivots == 2
    assert len(blocks) == 2


def test_block_lps_against_fourier_motzkin(monkeypatch):
    # block-angular LPs, each started from its solved blocks: the status
    # and the optimum are those that elimination finds, and the dense
    # tableau makes the same pivots
    blocks = _blocks_solved(monkeypatch)
    rng = random.Random(21)
    kinds = set()
    for _ in range(40):
        lp = random_block_lp(rng)
        res = solve_feasibility(lp)
        rows = [(r.coeffs, r.rel, r.rhs) for r in lp.rows]
        if lp.objective is None:
            feasible = fourier_motzkin_feasible(rows, lp.nvars)
            expected = (FEASIBLE if feasible else INFEASIBLE, None)
        else:
            expected = fourier_motzkin_minimum(rows, lp.nvars, lp.objective)
        assert (res.status, res.objective_value) == expected, lp
        assert check_certificate(lp, res) or res.status == UNBOUNDED
        ref = dense_simplex_reference(lp)
        assert res == ref
        assert (res.pivots, res.degenerate_pivots, res.entry_updates) == (
            ref.pivots, ref.degenerate_pivots, ref.entry_updates)
        kinds.add((res.status, lp.objective is None))
    assert len(kinds) == 5 and len(blocks) > 30


def test_icosidodecahedral_pivot_counts(
        lid_unreduced, lid_unreduced_equality, lid_unreduced_equality_min):
    # Bland's rule on the exact rows over all 150 corners: the counts of
    # the dense Fraction tableau, drive-outs and block solves included
    # (the plain solve starts from its vertex blocks; the = rows of the
    # other two join every corner into one block)
    unreduced = (lid_unreduced, lid_unreduced_equality,
                 lid_unreduced_equality_min)
    assert [s.lp_result.pivots for s in unreduced] == [458, 1132, 1244]
    assert lid_unreduced_equality_min.lp_result.objective_value == 58
    # of these, the pivots on a row with rhs 0, which move no basic value
    assert [s.lp_result.degenerate_pivots for s in unreduced] == [
        358, 907, 1019]
    assert [s.lp_result.entry_updates for s in unreduced] == [
        79320, 1381421, 1458788]


def test_icosidodecahedral_reduced_pivot_counts(
        lid_solution, lid_solution_equality, lid_solution_equality_min):
    # the same three solves over the 18 corner orbits of the D5 group, as
    # falk.solve runs them
    reduced = (lid_solution, lid_solution_equality,
               lid_solution_equality_min)
    assert [s.lp_result.pivots for s in reduced] == [54, 77, 94]
    assert [s.lp_result.degenerate_pivots for s in reduced] == [32, 47, 64]
    assert [s.lp_result.entry_updates for s in reduced] == [
        1578, 6426, 6560]
    assert lid_solution_equality_min.lp_result.objective_value == 58


def test_pivots_take_no_part_in_equality():
    res = FeasibilityResult(FEASIBLE, witness=(F(1),), pivots=3,
                            degenerate_pivots=1)
    assert res == replace(res, pivots=4)
    assert res == replace(res, degenerate_pivots=2)
    assert res == replace(res, entry_updates=5)


def test_falk_lps_match_dense_reference():
    rng = random.Random(7)
    for _ in range(8):
        arr = essential_random_line_arrangement(rng, rng.randint(6, 9))
        gamma = bounded_complex(build_complex(arr))
        for kw in ({}, {"equality_asphericity": True,
                        "minimize_total": True}):
            res = solve(gamma, **kw)
            ref = dense_simplex_reference(res.lp)
            assert res.lp_result == ref
            assert res.lp_result.pivots == ref.pivots > 0
            assert res.lp_result.degenerate_pivots == ref.degenerate_pivots
            assert res.lp_result.entry_updates == ref.entry_updates


# SHA-256 of the row tags of the icosidodecahedral section's system, one
# per line, as build_constraints emitted them before rows became LPRows
LID_TAGS_SHA256 = \
    "9285c0584ffa7cce6be809cddb9c36079c5e67f1f6628fd60e993ab09e462871"


def test_falk_rows_are_tagged_lprows(gamma_lid):
    rows = build_constraints(gamma_lid).rows
    assert len(rows) == 341
    assert all(type(r) is LPRow for r in rows)
    assert all(type(j) is int and type(c) is int
               for r in rows for j, c in r.coeffs)
    tags = "".join(r.tag + "\n" for r in rows)
    assert hashlib.sha256(tags.encode()).hexdigest() == LID_TAGS_SHA256


def _result_line(res):
    def fmt(values):
        return "-" if values is None else " ".join(str(v) for v in values)
    return (f"{res.status} | {fmt(res.witness)} | {fmt(res.certificate)} | "
            f"{res.objective_value}\n")


# SHA-256 of the results of 300 seeded random LPs, each solved as is and
# with a seeded integer objective; pins every pivot-dependent output
RANDOM_LP_RESULTS_SHA256 = \
    "6de65ab911e94704310baec7b6ecfd637bed3e0a784fc72e49c3f9f0c4eaa243"


def test_random_lp_results_digest():
    rng = random.Random(5)
    digest = hashlib.sha256()
    for _ in range(300):
        lp = random_lp(rng)
        objective = tuple(rng.randint(-3, 3) for _ in range(lp.nvars))
        for case in (lp, replace(lp, objective=objective)):
            res = solve_feasibility(case)
            assert check_certificate(case, res) or res.status == UNBOUNDED
            assert 0 <= res.degenerate_pivots <= res.pivots
            digest.update(_result_line(res).encode())
    assert digest.hexdigest() == RANDOM_LP_RESULTS_SHA256


def _fraction_lp(rng):
    """A seeded random LP whose coefficients and rhs values are Fractions
    with mixed denominators (rows that coincide after scaling are kept
    once).  One denominator is drawn per dense entry, zeros included."""
    lp = random_lp(rng)
    rows = (LPRow(sparse_coeffs(F(c, rng.randint(1, 6)) for c in
                                dense_coeffs(row.coeffs, lp.nvars)),
                  row.rel, F(row.rhs, rng.randint(1, 6)))
            for row in lp.rows)
    return StandardFormLP(lp.nvars, tuple(dict.fromkeys(rows)))


# SHA-256 of the results of 200 seeded random LPs with Fraction data, each
# solved as is and with a seeded Fraction objective
FRACTION_LP_RESULTS_SHA256 = \
    "59cc9ccaedf6afbe37a71ee9135469d88e6340b210cff5c3f95344023592a7eb"


def test_fraction_lp_results_digest():
    rng = random.Random(8)
    digest = hashlib.sha256()
    for _ in range(200):
        lp = _fraction_lp(rng)
        objective = tuple(F(rng.randint(-3, 3), rng.randint(1, 4))
                          for _ in range(lp.nvars))
        for case in (lp, replace(lp, objective=objective)):
            res = solve_feasibility(case)
            assert check_certificate(case, res) or res.status == UNBOUNDED
            assert 0 <= res.degenerate_pivots <= res.pivots
            digest.update(_result_line(res).encode())
    assert digest.hexdigest() == FRACTION_LP_RESULTS_SHA256


def test_sparse_rows_are_primitive_scalings_of_the_dense_rows():
    rng = random.Random(9)
    for _ in range(60):
        lp = _fraction_lp(rng)
        ge_rows, _ = _ge_form(lp)
        tab = _Tableau(ge_rows, lp.nvars)
        dense = DenseTableau(ge_rows, lp.nvars)
        assert tab.run() == dense.run()
        assert tab.basis == dense.basis and tab.pivots == dense.pivots
        assert tab.entry_updates == dense.entry_updates
        # rows 0 .. m-1 are the constraints, row m the objective
        assert len(tab.rows) == tab.m + 1
        for r, row in enumerate(tab.rows[:tab.m]):
            s = tab.scale[r]
            # primitive even without the scale, which is one of the entries
            assert s > 0 and math.gcd(tab.rhs[r], *row.values()) == 1
            assert 0 not in row.values()
            assert [F(row.get(j, 0), s) for j in range(tab.ncols)] \
                == dense.rows[r]
            assert F(tab.rhs[r], s) == dense.rhs[r]
        for j, rows in enumerate(tab.cols):
            assert rows == {r for r, row in enumerate(tab.rows) if j in row}
        # row m: the reduced costs, and minus the objective value as rhs
        z, s = tab.rows[tab.m], tab.scale[tab.m]
        assert s > 0 and math.gcd(tab.rhs[tab.m], s, *z.values()) == 1
        assert 0 not in z.values()
        assert [F(z.get(j, 0), s) for j in range(tab.ncols)] == dense.red
        assert F(-tab.rhs[tab.m], s) == tab.objective_value() \
            == dense.objective_value()


@pytest.fixture(scope="module")
def census_shape_results():
    """The weight LP results of 20 seeded 9-line rational arrangements
    with coefficients in [-6, 6] (the shape of the census benchmark
    inputs), each solved as is and with its total weight minimized."""
    rng = random.Random(13)
    results = []
    for _ in range(20):
        arr = essential_random_line_arrangement(rng, 9, coeff_range=6)
        gamma = bounded_complex(build_complex(arr))
        for minimize_total in (False, True):
            results.append(
                solve(gamma, minimize_total=minimize_total).lp_result)
    return results


# SHA-256 of the 40 census-shape results, pivot counts included
CENSUS_SHAPE_RESULTS_SHA256 = \
    "f7f784a16713db0d0df0d217b11b364fbbc8f8d1a2bfa69b0f4a09dc346e783e"


def test_census_shape_results_digest(census_shape_results):
    digest = hashlib.sha256()
    for res in census_shape_results:
        assert 0 <= res.degenerate_pivots <= res.pivots
        digest.update(f"{res.pivots} {_result_line(res)}".encode())
    totals = [sum(getattr(res, count) for res in census_shape_results)
              for count in ("pivots", "degenerate_pivots", "entry_updates")]
    assert (digest.hexdigest(), totals) == (CENSUS_SHAPE_RESULTS_SHA256,
                                            [5155, 3130, 251110])


def test_census_shape_outcomes(census_shape_results):
    # what any correct solver returns, whatever its pivots and witnesses:
    # each status and each minimum total weight (the icosidodecahedral
    # optima, 50 and 58, are pinned in test_symmetry.py)
    assert [res.status for res in census_shape_results] == [FEASIBLE] * 40
    assert [str(res.objective_value)
            for res in census_shape_results[1::2]] == [
        "75/2", "40", "31", "43", "41", "77/2", "40", "79/2", "77/2",
        "77/2", "42", "75/2", "39", "38", "40", "43", "81/2", "42",
        "69/2", "40"]
    assert all(res.objective_value is None
               for res in census_shape_results[0::2])


def test_reduced_costs_and_bland_candidates_after_every_pivot(monkeypatch):
    # right after each crash start and after each rebuild and each pivot,
    # on random, Fraction, block-angular and weight LPs, phase 2 included:
    # row m, the objective, follows the m constraint rows and is listed
    # in cols exactly where it has entries; neg holds exactly the columns
    # with a negative reduced cost; row m over its scale is the Fraction
    # rebuild of the reduced costs, with minus the objective value as its
    # rhs; and each constraint row is primitive without its scale, so a
    # pivot row needs no division
    checked = []

    def checked_after(method):
        def checked_call(tab, *args):
            method(tab, *args)
            m = tab.m
            z, s = tab.rows[m], tab.scale[m]
            assert len(tab.rows) == len(tab.rhs) == len(tab.scale) == m + 1
            assert {j for j, rows in enumerate(tab.cols) if m in rows} \
                == set(z)
            assert tab.neg == {j for j, v in z.items() if v < 0}
            red, value = fraction_reduced_costs(tab)
            assert ({j: F(v, s) for j, v in z.items()},
                    F(-tab.rhs[m], s)) == (red, value)
            assert all(math.gcd(b, *row.values()) == 1
                       for b, row in zip(tab.rhs[:m], tab.rows[:m]))
            checked.append(method.__name__)
        monkeypatch.setattr(_Tableau, method.__name__, checked_call)
    checked_after(_Tableau._pivot)
    checked_after(_Tableau._rebuild_objective)
    checked_after(_Tableau._crash)
    blocks = _blocks_solved(monkeypatch)
    rng = random.Random(17)
    lps = [make(rng) for make in (random_lp, _fraction_lp, random_block_lp)
           for _ in range(30)]
    for _ in range(3):
        arr = essential_random_line_arrangement(rng, 7, coeff_range=6)
        lps.append(solve(bounded_complex(build_complex(arr))).lp)
    for lp in lps:
        objective = tuple(F(rng.randint(-3, 3), rng.randint(1, 4))
                          for _ in range(lp.nvars))
        for case in (lp, replace(lp, objective=objective)):
            solve_feasibility(case)
    assert checked.count("_pivot") > 1000 and len(blocks) > 50


def _near_misses(res, rng):
    """Copies of a feasible or infeasible result that miss it by the
    smallest step: a witness entry moved by +-1/(2d), d the lcm of the
    witness's denominators, or the objective value moved by 1/(2d); a
    nonzero multiplier negated, set to 0 or dropped from the tuple."""
    if res.status == FEASIBLE:
        x = res.witness
        d = math.lcm(*(v.denominator for v in x))
        j = rng.randrange(len(x))
        for step in (F(1, 2 * d), F(-1, 2 * d)):
            yield replace(res, witness=x[:j] + (x[j] + step,) + x[j + 1:])
        if res.objective_value is not None:
            yield replace(res, objective_value=res.objective_value
                          + F(1, 2 * d))
    elif res.status == INFEASIBLE:
        u = res.certificate
        k = rng.choice([k for k, v in enumerate(u) if v])
        for v in (-u[k], F(0)):
            yield replace(res, certificate=u[:k] + (v,) + u[k + 1:])
        yield replace(res, certificate=u[:k] + u[k + 1:])


@pytest.mark.parametrize("make_lp, seed", [(random_lp, 11),
                                           (_fraction_lp, 12)],
                         ids=["int", "fraction"])
def test_integer_check_agrees_with_fraction_reference(make_lp, seed):
    rng = random.Random(seed)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        lp = make_lp(rng)
        objective = tuple(F(rng.randint(-3, 3), rng.randint(1, 4))
                          for _ in range(lp.nvars))
        for case in (lp, replace(lp, objective=objective)):
            res = solve_feasibility(case)
            for cand in (res, *_near_misses(res, rng)):
                ok = check_certificate(case, cand)
                assert ok == check_certificate_reference(case, cand), cand
                verdicts[ok] += 1
    assert verdicts[True] > 100 and verdicts[False] > 300


def test_inexact_certificates_rejected():
    lp = StandardFormLP(1, (LPRow(X, ">=", 2), LPRow(X, "<=", 1)))
    assert not check_certificate(
        lp, FeasibilityResult(INFEASIBLE, certificate=(1.0, F(1))))
    lp = StandardFormLP(1, (LPRow(X, ">=", 2),))
    assert not check_certificate(lp, FeasibilityResult(FEASIBLE,
                                                        witness=(2.0,)))
    # minimize x on x >= 2: the optimum 2 is exact only as an int or a
    # Fraction, like the witness
    lp = replace(lp, objective=(1,))
    for value, ok in ((2, True), (F(2), True), (2.0, False)):
        res = FeasibilityResult(FEASIBLE, witness=(2,), objective_value=value)
        assert check_certificate(lp, res) is ok
