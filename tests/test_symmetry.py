"""The symmetry group of the cell complex and the solve over its orbits."""

import hashlib
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
from arrlab.arrangement import serialize_arrangement
from arrlab.cells import Corner, corner_automorphisms, gamma_of
from arrlab.cli import main
from arrlab import falk
from arrlab.falk import (
    _kept_permutations,
    _orbit_system,
    build_constraints,
    solve,
    verify,
)
from arrlab.scalar import RATIONAL

from oracles import (
    corner_permutation,
    essential_random_line_arrangement,
    golden_line_arrangement,
    induced_line_permutation,
    interior_square,
    point_map_permutation,
    solve_system,
    unreduced_solve,
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
    return tuple(p[i] for i in q)


def test_group_is_closed_and_induced_by_line_permutations():
    inputs = [section(n) for n in ("icosidodecahedral", "generic3", "A3",
                                   "B3", "H3")]
    inputs += [interior_square()] + seeded_inputs()
    nontrivial = 0
    for arr in inputs:
        gam = gamma_of(arr)
        group = corner_automorphisms(gam)
        nontrivial += bool(group)
        identity = tuple(range(len(gam.corners)))
        elements = [identity] + group
        assert identity not in group
        for p in elements:
            assert sorted(p) == list(identity)
            assert induced_line_permutation(gam, p) is not None
            for q in elements:
                assert compose(p, q) in elements
    assert nontrivial >= 15


def test_oracle_rejects_a_swap_of_two_corners(gamma_lid):
    swap = (1, 0, *range(2, len(gamma_lid.corners)))
    assert induced_line_permutation(gamma_lid, swap) is None


SOLVES = ({}, {"minimize_total": True},
          {"equality_asphericity": True, "minimize_total": True})


def test_reduced_and_unreduced_solves_agree():
    inputs = [section(n) for n in ("generic3", "A3", "B3", "H3")]
    inputs += [interior_square()] + seeded_inputs()
    for arr in inputs:
        gam = gamma_of(arr)
        for kw in SOLVES:
            full = unreduced_solve(gam, **kw)
            reduced = solve(gam, **kw)
            assert reduced.status == full.status
            if reduced.feasible:
                assert verify(gam, reduced.weights).ok
                if kw.get("minimize_total"):
                    assert (reduced.lp_result.objective_value
                            == full.lp_result.objective_value)


def test_lid_reduced_solves_keep_the_optima(
        gamma_lid, lid_group, lid_solution, lid_solution_equality_min,
        lid_unreduced_equality_min):
    system = _orbit_system(build_constraints(gamma_lid), lid_group)
    assert (len(system.variables), len(system.rows)) == (18, 41)
    for reduced, unreduced, optimum in (
            (solve(gamma_lid, minimize_total=True),
             unreduced_solve(gamma_lid, minimize_total=True), 50),
            (lid_solution_equality_min, lid_unreduced_equality_min, 58)):
        assert reduced.feasible and unreduced.feasible
        assert verify(gamma_lid, reduced.weights).ok
        assert (reduced.lp_result.objective_value
                == unreduced.lp_result.objective_value == optimum)
    weights = lid_solution.weights
    assert verify(gamma_lid, weights).ok
    # the weights are constant on each orbit of the group
    for image in lid_group:
        perm = corner_permutation(gamma_lid.corners, image)
        assert all(weights[perm[c]] == weights[c] for c in gamma_lid.corners)


# stdout of `arrlab falk solve` on these inputs, plain, with
# --minimize-total and with --equality-asphericity --minimize-total
SYMMETRIC_SOLVES_SHA256 = (
    "19183de760d1247e6740dda44f20061daab6c68252ea2247b53595b1427fe72a")


def test_symmetric_solve_outputs_are_pinned(tmp_path, capsys):
    square = tmp_path / "square.txt"
    square.write_text(serialize_arrangement(interior_square()))
    digest = hashlib.sha256()
    for ref in ("@A3", "@B3", "@H3", str(square)):
        for flags in ([], ["--minimize-total"],
                      ["--equality-asphericity", "--minimize-total"]):
            assert main(["falk", "solve", ref, *flags]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SYMMETRIC_SOLVES_SHA256


def test_generic3_equality_optimum_is_a_third_per_corner():
    # the generic3 triangle: one orbit of three corners, 1/3 each at the
    # equality optimum
    gam = gamma_of(section("generic3"))
    result = solve(gam, equality_asphericity=True, minimize_total=True)
    assert result.weights == {Corner(v, 0): F(1, 3) for v in range(3)}


def _permutations_text(gamma, group):
    """Each corner permutation as ``(vertex,face)->(vertex,face)`` lines in
    ``gamma.corners`` order, permutations in list order."""
    return "".join(
        f"perm {n}\n" + "".join(
            f"({c.vertex},{c.face})->({d.vertex},{d.face})\n"
            for c, d in corner_permutation(gamma.corners, image).items())
        for n, image in enumerate(group))


def _system_text(system):
    """Variables, orbits and tagged rows of a ConstraintSystem, one per
    line."""
    lines = [f"var ({c.vertex},{c.face})" for c in system.variables]
    lines += ["orbit " + " ".join(f"({c.vertex},{c.face})" for c in orbit)
              for orbit in system.orbits]
    lines += [f"row {r.coeffs} {r.rel} {r.rhs} {r.tag}" for r in system.rows]
    return "".join(line + "\n" for line in lines)


# corner_automorphisms on these sections, with the order of its list
AUTOMORPHISMS_SHA256 = (
    "da76fc39008905260b38073c9cd64466808d358ad0cff0d79b04918f29c3f586")
# _orbit_system of the icosidodecahedral section, plain and with = rows
ORBIT_SYSTEMS_SHA256 = (
    "a2dd007dc1478c0372d7ed75d8abb92441655ef1a23361c8515ce5f0e10f4a0a")


def test_automorphism_lists_are_pinned():
    digest = hashlib.sha256()
    for arr in [section(n) for n in ("icosidodecahedral", "A3", "B3", "H3")
                ] + [interior_square()]:
        gam = gamma_of(arr)
        digest.update(
            _permutations_text(gam, corner_automorphisms(gam)).encode())
    assert digest.hexdigest() == AUTOMORPHISMS_SHA256


def test_icosidodecahedral_orbit_systems_are_pinned(gamma_lid, lid_group):
    digest = hashlib.sha256()
    for eq in (False, True):
        full = build_constraints(gamma_lid, equality_asphericity=eq)
        digest.update(_system_text(_orbit_system(full, lid_group)).encode())
    assert digest.hexdigest() == ORBIT_SYSTEMS_SHA256


# _orbit_system of the interior square under its quarter turn, alone and
# with the half turn in either order
SQUARE_ROTATION_SYSTEMS_SHA256 = (
    "d08c2c327d78b2c09d855bf6a3c882cb460847365529f8433c1b6dc1af946800")


def test_kept_permutations_stay_inside_the_supplied_set():
    gam = gamma_of(interior_square())
    r = point_map_permutation(gam, lambda p: (-p[1], p[0]))
    r2 = point_map_permutation(gam, lambda p: (-p[0], -p[1]))
    r3 = point_map_permutation(gam, lambda p: (p[1], -p[0]))
    # the half turn is the square of a kept quarter turn
    assert _kept_permutations([r, r2]) == [r]
    # the quarter turn is no power of the half turn
    assert _kept_permutations([r2, r]) == [r2, r]
    # r3 = r * r * r, but r * r is not supplied, so r3 is kept
    assert _kept_permutations([r, r3]) == [r, r3]
    # lists that are not closed but generate the same group give one
    # system
    full = build_constraints(gam)
    texts = {_system_text(_orbit_system(full, perms))
             for perms in ([r], [r, r2], [r2, r])}
    assert len(texts) == 1
    assert hashlib.sha256(texts.pop().encode()).hexdigest() == \
        SQUARE_ROTATION_SYSTEMS_SHA256


def test_icosidodecahedral_invariance_check_keeps_two_generators(
        gamma_lid, lid_group, monkeypatch):
    checked = []
    check = falk._check_symmetry_invariance

    def counting(rows, perms):
        checked.append((len(rows), len(perms)))
        return check(rows, perms)

    monkeypatch.setattr(falk, "_check_symmetry_invariance", counting)
    solve(gamma_lid)
    # 9 * 341 = 3069 row images before, 2 * 341 = 682 now
    assert len(lid_group) == 9 and checked == [(341, 2)]
    # the two kept permutations generate all ten elements
    kept = _kept_permutations(lid_group)
    group = {tuple(range(len(gamma_lid.corners)))}
    stack = list(group)
    while stack:
        e = stack.pop()
        for g in kept:
            ge = tuple(g[i] for i in e)
            if ge not in group:
                group.add(ge)
                stack.append(ge)
    assert len(group) == 10


@pytest.mark.parametrize("name", ["icosidodecahedral", "H3"])
def test_permutation_order_changes_nothing(name):
    gam = gamma_of(section(name))
    group = corner_automorphisms(gam)
    full = build_constraints(gam)
    text = _system_text(_orbit_system(full, group))
    pivots = solve(gam, minimize_total=True).lp_result.pivots
    for shuffled in [group[::-1]] + [
            random.Random(seed).sample(group, len(group))
            for seed in range(3)]:
        other = _orbit_system(full, shuffled)
        # each orbit stands for its largest corner index, whatever the
        # order of the list
        assert _system_text(other) == text
        result = solve_system(other, minimize_total=True)
        assert result.lp_result.pivots == pivots
