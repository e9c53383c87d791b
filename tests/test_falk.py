import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import arrlab
import arrlab.falk as falk
from arrlab.arrangement import builtin
from arrlab.cells import CYCLE, Corner, FaceCell, Link, LinkComponent, gamma_of
from arrlab.cli import as_line_arrangement
from arrlab.falk import (
    WeightError,
    build_constraints,
    enumerate_circuits,
    solve,
    verify,
)
from arrlab.falk import _orbit_system
from arrlab.lpcore import check_certificate, solve_feasibility

from oracles import (
    check_weights_reference,
    essential_random_line_arrangement,
    evaluate_circuit,
    interior_square,
    large_seeded_inputs,
    point_map_permutation,
    raw_circuit_walks,
    simulate_circuit_walk,
    solve_system,
)

F = Fraction


def make_cycle_link(nedges, m, vertex=0):
    labels = tuple(Corner(vertex, i) for i in range(nedges))
    return Link(vertex, m, CYCLE,
                (LinkComponent(tuple(range(nedges)), labels),))


def make_path_link(nvertices, m, vertex=0):
    labels = tuple(Corner(vertex, i) for i in range(nvertices - 1))
    return Link(vertex, m, "path",
                (LinkComponent(tuple(range(nvertices)), labels),))


def paper_cycle8_weights():
    link = make_cycle_link(8, 4)
    values = [F(1, 5), F(1, 5), F(2, 5), F(2, 5),
              F(1, 5), F(2, 5), F(2, 5), F(1, 5)]  # d e f h k h f e
    weights = dict(zip(link.components[0].corners, values))
    return link, weights


def test_cycle4_m2_circuit_table_row():
    """Table row 12341: circuits 12341, 1234321, 123212321, 123232121."""
    link = make_cycle_link(4, 2)
    raw = raw_circuit_walks(link)
    i_circ = [c for c in raw if c.ctype == "i"]
    ii_circ = [c for c in raw if c.ctype == "ii"]
    iii_circ = [c for c in raw if c.ctype == "iii"]
    iv_circ = [c for c in raw if c.ctype == "iv"]
    assert len(i_circ) == 1 and i_circ[0].counts == (1, 1, 1, 1)
    # 1234321 translates: three consecutive edges twice
    assert {c.counts for c in ii_circ} == {
        (2, 2, 2, 0), (0, 2, 2, 2), (2, 0, 2, 2), (2, 2, 0, 2)}
    # 123212321: two consecutive edges four times
    assert {c.counts for c in iii_circ} == {
        (4, 4, 0, 0), (0, 4, 4, 0), (0, 0, 4, 4), (4, 0, 0, 4)}
    # 123232121 collapses to the same multiplicity vectors at m = 2: each
    # (iv) walk is the (iii) walk at its start, and no (iv) is generated
    assert {c.counts for c in iv_circ} == {c.counts for c in iii_circ}
    assert [(c.start, c.counts) for c in iv_circ] == \
        [(c.start, c.counts) for c in iii_circ]
    deduped = enumerate_circuits(link)
    assert len(deduped) == 1 + 4 + 4
    assert not any(c.ctype == "iv" for c in deduped)


def test_path2_m2_has_no_circuits():
    """Table row 12: N/A in every column."""
    link = make_path_link(2, 2)
    assert enumerate_circuits(link) == []


def test_path3_m2_only_types_iii_iv():
    """Table row 123: only 123212321 and 123232121, one start each."""
    link = make_path_link(3, 2)
    raw = raw_circuit_walks(link)
    assert {c.ctype for c in raw} == {"iii", "iv"}
    assert all(c.start == 0 for c in raw)
    assert all(c.counts == (4, 4) for c in raw)
    circuits = enumerate_circuits(link)
    assert len(circuits) == 1 and circuits[0].ctype == "iii"


def test_path6_m4_table_row():
    """Table row 123456: type (ii) once, types (iii)/(iv) with two starts."""
    link = make_path_link(6, 4)
    raw = raw_circuit_walks(link)
    ii = [c for c in raw if c.ctype == "ii"]
    iii = [c for c in raw if c.ctype == "iii"]
    iv = [c for c in raw if c.ctype == "iv"]
    assert len(ii) == 1 and ii[0].counts == (2, 2, 2, 2, 2)
    assert [c.counts for c in iii] == [(4, 4, 4, 4, 0), (0, 4, 4, 4, 4)]
    assert [c.counts for c in iv] == [(4, 2, 2, 4, 0), (0, 4, 2, 2, 4)]


def test_cycle8_m4_table_row():
    """Table row 123456781: all four types, translations suppressed."""
    link = make_cycle_link(8, 4)
    raw = raw_circuit_walks(link)
    assert [c.counts for c in raw if c.ctype == "i"] == [(1,) * 8]
    ii = [c.counts for c in raw if c.ctype == "ii" and c.start == 0]
    assert ii == [(2, 2, 2, 2, 2, 0, 0, 0)]
    iii = [c.counts for c in raw if c.ctype == "iii" and c.start == 0]
    assert iii == [(4, 4, 4, 4, 0, 0, 0, 0)]
    iv = [c.counts for c in raw if c.ctype == "iv" and c.start == 0]
    assert iv == [(4, 2, 2, 4, 0, 0, 0, 0)]
    # all rotations present before deduplication
    assert sum(1 for c in raw if c.ctype == "ii") == 8


def test_paper_circuit_sums():
    """The proof's example vertex: type (i) 12/5, best (ii) 14/5, the (iv)
    circuit over (e,f,h,k) 16/5."""
    link, weights = paper_cycle8_weights()
    circuits = enumerate_circuits(link)
    type_i = [c for c in circuits if c.ctype == "i"]
    assert evaluate_circuit(weights, type_i[0]) == F(12, 5)
    type_ii = [c for c in circuits if c.ctype == "ii"]
    assert min(evaluate_circuit(weights, c) for c in type_ii) == F(14, 5)
    type_iv = [c for c in circuits if c.ctype == "iv" and c.start == 1]
    assert evaluate_circuit(weights, type_iv[0]) == F(16, 5)


def test_admissibility_of_paper_weights():
    link, weights = paper_cycle8_weights()
    assert all(evaluate_circuit(weights, c) >= 2
               for c in enumerate_circuits(link))


def test_evaluate_missing_corner():
    link, weights = paper_cycle8_weights()
    del weights[Corner(0, 3)]
    with pytest.raises(WeightError):
        evaluate_circuit(weights, enumerate_circuits(link)[0])


def test_step_counts_match_walk_simulator():
    """sum(counts) equals the literal walk length, edge by edge."""
    cases = [(make_cycle_link(4, 2), True), (make_cycle_link(8, 4), True),
             (make_path_link(6, 4), False), (make_path_link(3, 2), False),
             (make_path_link(5, 2), False)]
    for link, cyclic in cases:
        m = link.multiplicity
        nvert = len(link.components[0].edges)
        for c in enumerate_circuits(link):
            walked = simulate_circuit_walk(c.ctype, c.start, m, nvert, cyclic)
            mine = {p: k for p, k in enumerate(c.counts) if k}
            assert mine == walked, (c.ctype, c.start)
        for c in raw_circuit_walks(link):
            expected_steps = {"i": nvert, "ii": 2 * (m + 1),
                              "iii": 4 * m, "iv": 2 * m + 4}[c.ctype]
            assert sum(c.counts) == expected_steps


def test_type_iii_dominates_type_iv_everywhere(gamma_lid):
    rng = random.Random(17)
    gammas = [gamma_lid]
    for _ in range(50):
        arr = essential_random_line_arrangement(rng, rng.randint(2, 6))
        gammas.append(gamma_of(arr))
    pairs = 0
    for gam in gammas:
        for lk in gam.links():
            raw = raw_circuit_walks(lk)
            by_key = {}
            for c in raw:
                by_key.setdefault((c.ctype, c.component, c.start), c)
            for (ctype, comp, start), c3 in by_key.items():
                if ctype != "iii":
                    continue
                c4 = by_key[("iv", comp, start)]
                assert all(a >= b for a, b in zip(c3.counts, c4.counts))
                pairs += 1
    assert pairs > 100


def test_generic3_constraint_system():
    gam = gamma_of(builtin("generic3"))
    system = build_constraints(gam)
    assert len(system.rows) == 1
    row = system.rows[0]
    assert row.coeffs == ((0, 1), (1, 1), (2, 1))
    assert row.rel == "<=" and row.rhs == 1
    assert row.tag.startswith("asphericity")


def test_generic3_zero_weights_pass():
    gam = gamma_of(builtin("generic3"))
    report = verify(gam, {c: F(0) for c in gam.corners})
    assert report.ok and report.verdict == "PASS"


def test_lid_zero_weights_fail_every_circuit_row(gamma_lid):
    report = verify(gamma_lid, {c: F(0) for c in gamma_lid.corners})
    assert not report.ok
    system = build_constraints(gamma_lid)
    admissibility_rows = [r for r in system.rows if r.rel == ">="]
    assert len(report.violations) == len(admissibility_rows)
    assert all(v.tag.startswith("admissibility") for v in report.violations)
    assert all(v.lhs == 0 and v.rhs == 2 for v in report.violations)


def test_verify_requires_total_weights(gamma_lid):
    weights = {c: F(0) for c in gamma_lid.corners}
    weights.pop(gamma_lid.corners[0])
    with pytest.raises(WeightError):
        verify(gamma_lid, weights)


def test_negative_weights_flagged():
    gam = gamma_of(builtin("generic3"))
    weights = {c: F(0) for c in gam.corners}
    weights[gam.corners[0]] = F(-1)
    report = verify(gam, weights)
    assert not report.ok
    assert any(v.tag.startswith("nonnegativity")
               for v in report.violations)


def test_solve_checks_its_weights_under_python_O():
    # the post-solve re-verification must not be an assert, which -O strips
    # (solve checks the weights against the system it built, through
    # _check_weights, the check behind verify)
    script = ("import arrlab.falk as falk\n"
              "from arrlab import builtin, gamma_of\n"
              "falk._check_weights = lambda system, weights: "
              "falk.VerifyReport(False, ())\n"
              "falk.solve(gamma_of(builtin('generic3')))\n")
    src = str(Path(arrlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "fail verification" in proc.stderr


def test_solve_generic3_zero():
    gam = gamma_of(builtin("generic3"))
    result = solve(gam)
    assert result.feasible
    assert all(v == 0 for v in result.weights.values())


def test_solve_infeasible_carries_checked_certificate(monkeypatch):
    # a hand-made Gamma with no arrangement behind it: the triangle face 0
    # caps its corner weights at 1, and the one-edge cycle at vertex 0
    # (m = 2), labelled by corner index 0, asks for weight 2 on corner
    # (0,0); its empty complex has a trivial group
    corners = (Corner(0, 0), Corner(1, 0), Corner(2, 0))
    link = Link(0, 2, CYCLE, (LinkComponent((0,), (0,)),))
    gam = SimpleNamespace(
        complex=SimpleNamespace(vertices=()), corners=corners,
        faces=(FaceCell(0, True, (0, 1, 2), (), frozenset()),),
        links=lambda: (link,))
    result = solve(gam)
    assert result.status == "infeasible" and result.weights is None
    assert [r.rel for r in result.lp.rows] == ["<=", ">="]
    assert result.lp_result.certificate == (1, 1)
    assert check_certificate(result.lp, result.lp_result)
    # solve itself checks the certificate: a corrupted one raises
    monkeypatch.setattr(falk, "solve_feasibility", lambda lp: replace(
        solve_feasibility(lp), certificate=(F(0), F(1))))
    with pytest.raises(RuntimeError, match="fails its check"):
        solve(gam)


@pytest.fixture(scope="module")
def large_gammas():
    """Gamma of each seeded 24-line input, the cone at its default plane."""
    return [gamma_of(as_line_arrangement(arr))
            for arr in large_seeded_inputs().values()]


def test_circuits_are_the_walks_less_repeats(gamma_lid, large_gammas):
    """enumerate_circuits is the list of every walk, less each walk whose
    multiplicity vector an earlier walk on its component already has."""
    shapes = set()
    for gam in [gamma_lid] + large_gammas:
        for lk in gam.links():
            seen = set()
            first = []
            for c in raw_circuit_walks(lk):
                if (c.component, c.counts) not in seen:
                    seen.add((c.component, c.counts))
                    first.append(c)
            assert enumerate_circuits(lk) == first
            shapes.add((lk.shape, lk.multiplicity))
    assert {(shape, m) for shape in (CYCLE, "path")
            for m in range(2, 6)} <= shapes


def test_constraint_rows_deduplicated(gamma_lid, large_gammas):
    # build_constraints keeps every row it builds, so they must be distinct
    for gam in [gamma_lid] + large_gammas:
        for equality in (False, True):
            system = build_constraints(gam, equality_asphericity=equality)
            keys = {(r.coeffs, r.rel, r.rhs) for r in system.rows}
            assert len(keys) == len(system.rows)
            assert all(any(r.coeffs) for r in system.rows)


def test_constraints_invariant_under_relabeling():
    rng = random.Random(31)
    for _ in range(8):
        arr = essential_random_line_arrangement(rng, rng.randint(3, 5))
        perm = list(arr.lines)
        rng.shuffle(perm)
        from arrlab.arrangement import LineArrangement
        shuffled = LineArrangement(tuple(perm), arr.field)
        rows_a = {(r.coeffs, r.rel, r.rhs)
                  for r in build_constraints(gamma_of(arr)).rows}
        rows_b = {(r.coeffs, r.rel, r.rhs)
                  for r in build_constraints(gamma_of(shuffled)).rows}
        # corner ids are deterministic from geometry, so the sparse rows
        # coincide row for row
        assert rows_a == rows_b


def test_symmetry_orbit_reduction():
    # the interior-square arrangement has an obvious 4-fold rotation;
    # build the permutation from the geometry (rotation by 90 degrees)
    gam = gamma_of(interior_square())
    perm = point_map_permutation(gam, lambda p: (-p[1], p[0]))
    full = build_constraints(gam)
    system = _orbit_system(full, [perm])
    assert len(system.variables) < len(full.variables)
    result = solve_system(system)
    assert result.feasible
    assert verify(gam, result.weights).ok


def test_bad_symmetry_rejected(gamma_lid, lid_group):
    n = len(gamma_lid.corners)
    identity = tuple(range(n))
    # swapping just two corners of one face does not preserve incidences
    swap = (1, 0) + identity[2:]
    full = build_constraints(gamma_lid)
    with pytest.raises(RuntimeError, match="incidence"):
        _orbit_system(full, [swap])
    # it is never a product of checked permutations: before or after the
    # true group it is still rejected
    for perms in ([swap] + lid_group, lid_group + [swap]):
        with pytest.raises(RuntimeError, match="incidence"):
            _orbit_system(full, perms)
    # a tuple that is too short, repeats an index, or names an index
    # outside the corners is no permutation at all
    for bad in (identity[1:], (0,) + identity[:-1], (-1,) + identity[1:],
                identity[1:] + (n,)):
        with pytest.raises(RuntimeError, match="not a bijection"):
            _orbit_system(full, [bad])


def test_solve_verify_roundtrip_on_randoms():
    rng = random.Random(8)
    solved = 0
    for _ in range(12):
        arr = essential_random_line_arrangement(rng, rng.randint(3, 5))
        gam = gamma_of(arr)
        result = solve(gam)
        if result.feasible:
            solved += 1
            assert verify(gam, result.weights).ok
            assert check_certificate(result.lp, result.lp_result)
        else:
            assert check_certificate(result.lp, result.lp_result)
    assert solved > 0


def _perturbed(weights, rng, rounds):
    """Copies of ``weights`` with a few corners moved: by +-1/(2d), d the
    lcm of the denominators, by +-1/2, or to -1/(2d)."""
    corners = sorted(weights)
    d = math.lcm(*(F(v).denominator for v in weights.values()))
    for _ in range(rounds):
        out = dict(weights)
        for c in rng.sample(corners, rng.randint(1, 4)):
            out[c] = rng.choice((out[c] + F(1, 2 * d), out[c] - F(1, 2 * d),
                                 out[c] + F(1, 2), out[c] - F(1, 2),
                                 F(-1, 2 * d)))
        yield out


def test_check_weights_matches_fraction_reference(
        gamma_lid, lid_unreduced, lid_unreduced_equality):
    rng = random.Random(19)
    cases = [(build_constraints(gamma_lid), lid_unreduced.weights),
             (build_constraints(gamma_lid, equality_asphericity=True),
              lid_unreduced_equality.weights)]
    for _ in range(6):
        arr = essential_random_line_arrangement(rng, 9, coeff_range=6)
        gam = gamma_of(arr)
        cases.append((build_constraints(gam), solve(gam).weights))
    failed = 0
    for system, weights in cases:
        for w in (weights, *_perturbed(weights, rng, 15)):
            got = falk._check_weights(system, w)
            assert got == check_weights_reference(system, w)
            assert all(type(v.lhs) is F for v in got.violations)
            failed += not got.ok
    assert failed > 80
