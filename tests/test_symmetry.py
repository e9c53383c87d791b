"""The symmetry group of the cell complex and the solve over its orbits."""

import random
from fractions import Fraction

import pytest

from arrlab.arrangement import (
    CentralArrangement,
    LineArrangement,
    builtin,
    decone,
    default_decone_index,
)
from arrlab.cells import Corner, corner_automorphisms, gamma_of
from arrlab.falk import _orbit_system, build_constraints, solve, verify
from arrlab.scalar import RATIONAL

from oracles import (
    essential_random_line_arrangement,
    golden_line_arrangement,
    induced_line_permutation,
    interior_square,
    point_map_permutation,
)

F = Fraction


def section(name):
    arr = builtin(name)
    if isinstance(arr, CentralArrangement):
        arr = decone(arr, default_decone_index(arr))
    return arr


def order(gamma):
    return len(corner_automorphisms(gamma)) + 1


def seeded_inputs():
    """Small seeded arrangements over Q and Q(sqrt5); many have a
    nontrivial group."""
    rng = random.Random(7)
    arrs = [essential_random_line_arrangement(rng, rng.randint(3, 6))
            for _ in range(12)]
    rng = random.Random(11)
    arrs += [golden_line_arrangement(rng, rng.randint(3, 5))
             for _ in range(8)]
    return arrs


@pytest.mark.parametrize("name, expected", [
    ("icosidodecahedral", 10), ("generic3", 6), ("A3", 4), ("B3", 4),
    ("H3", 4), ("boolean2", 1), ("boolean3", 1)])
def test_group_orders_of_builtin_sections(name, expected):
    assert order(gamma_of(section(name))) == expected


def test_interior_square_group_and_its_rotation():
    gam = gamma_of(interior_square())
    group = corner_automorphisms(gam)
    assert len(group) + 1 == 8
    assert point_map_permutation(gam, lambda p: (-p[1], p[0])) in group


def test_no_vertices_no_permutations():
    pencil = LineArrangement(((F(1), F(0), F(0)), (F(1), F(0), F(1))),
                             RATIONAL)
    gam = gamma_of(pencil)
    assert not gam.vertices
    assert corner_automorphisms(gam) == []


def test_propagation_that_closes_inconsistently_is_rejected():
    # from one candidate flag every germ check passes along the first
    # path to each vertex, but a second path reaches a vertex with another
    # image: only the consistency check rejects it
    rows = ((2, -2, 3), (2, 2, -1), (1, -1, -2), (2, 3, 3), (1, 2, -3))
    arr = LineArrangement(tuple(tuple(map(F, r)) for r in rows), RATIONAL)
    assert corner_automorphisms(gamma_of(arr)) == []


def test_seeded_nine_line_rational_inputs_have_trivial_groups():
    rng = random.Random(9)
    for _ in range(10):
        arr = essential_random_line_arrangement(rng, 9, coeff_range=6)
        assert order(gamma_of(arr)) == 1


def compose(p, q):
    """p after q."""
    return {c: p[q[c]] for c in q}


def test_group_is_closed_and_induced_by_line_permutations():
    inputs = [section(n) for n in ("icosidodecahedral", "generic3", "A3",
                                   "B3", "H3")]
    inputs += [interior_square()] + seeded_inputs()
    nontrivial = 0
    for arr in inputs:
        gam = gamma_of(arr)
        group = corner_automorphisms(gam)
        nontrivial += bool(group)
        identity = {c: c for c in gam.corners}
        elements = [identity] + group
        assert identity not in group
        for p in elements:
            assert sorted(p.values()) == list(gam.corners)
            assert induced_line_permutation(gam, p) is not None
            for q in elements:
                assert compose(p, q) in elements
    assert nontrivial >= 15


def test_oracle_rejects_a_swap_of_two_corners(gamma_lid):
    perm = {c: c for c in gamma_lid.corners}
    a, b = gamma_lid.corners[:2]
    perm[a], perm[b] = b, a
    assert induced_line_permutation(gamma_lid, perm) is None


SOLVES = ({}, {"minimize_total": True},
          {"equality_asphericity": True, "minimize_total": True})


def test_reduced_and_unreduced_solves_agree():
    inputs = [section(n) for n in ("generic3", "A3", "B3", "H3")]
    inputs += [interior_square()] + seeded_inputs()
    for arr in inputs:
        gam = gamma_of(arr)
        group = corner_automorphisms(gam)
        for kw in SOLVES:
            full = solve(gam, **kw)
            reduced = solve(gam, symmetry=group, **kw)
            assert reduced.status == full.status
            if reduced.feasible:
                assert verify(gam, reduced.weights).ok
                if kw.get("minimize_total"):
                    assert (reduced.lp_result.objective_value
                            == full.lp_result.objective_value)


def test_lid_reduced_solves_keep_the_optima(gamma_lid, lid_group,
                                            lid_solution_equality_min):
    system = _orbit_system(build_constraints(gamma_lid), lid_group)
    assert (len(system.variables), len(system.rows)) == (18, 41)
    full = solve(gamma_lid, minimize_total=True)
    for kw, unreduced, optimum in (
            ({"minimize_total": True}, full, 50),
            ({"equality_asphericity": True, "minimize_total": True},
             lid_solution_equality_min, 58)):
        reduced = solve(gamma_lid, symmetry=lid_group, **kw)
        assert reduced.feasible and unreduced.feasible
        assert verify(gamma_lid, reduced.weights).ok
        assert (reduced.lp_result.objective_value
                == unreduced.lp_result.objective_value == optimum)
    weights = solve(gamma_lid, symmetry=lid_group).weights
    assert verify(gamma_lid, weights).ok
    # the weights are constant on each orbit of the group
    for perm in lid_group:
        assert all(weights[perm[c]] == weights[c] for c in gamma_lid.corners)


def test_generic3_equality_optimum_is_a_third_per_corner():
    # the generic3 triangle: one orbit of three corners, 1/3 each at the
    # equality optimum
    gam = gamma_of(section("generic3"))
    result = solve(gam, equality_asphericity=True, minimize_total=True,
                   symmetry=corner_automorphisms(gam))
    assert result.weights == {Corner(v, 0): F(1, 3) for v in range(3)}
