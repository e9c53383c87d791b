"""Acceptance suite: one test per criterion, exact values, no tolerances.

Each test prints a single PASS line on success (run with -s to see them);
pytest failure output identifies any criterion that does not hold.
"""

import random
from fractions import Fraction

from arrlab.arrangement import builtin, cone, decone, default_decone_index
from arrlab.cells import CYCLE, Corner, Link, LinkComponent, build_complex, \
    gamma_of, is_simplicial, link_census
from arrlab.factored import find_factorization
from arrlab.falk import enumerate_circuits, verify
from arrlab.lpcore import check_certificate, solve_feasibility
from arrlab.poset import IntPolynomial, poincare_polynomial, \
    splits_over_integers

from oracles import (
    essential_random_line_arrangement,
    evaluate_circuit,
    find_factorization_bruteforce,
    fourier_motzkin_feasible,
    random_lp,
    raw_circuit_walks,
    whitney_poincare,
)

F = Fraction


def done(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_poincare_polynomials(icosi, lid):
    assert poincare_polynomial(icosi) == IntPolynomial((1, 16, 75, 60))
    assert poincare_polynomial(lid) == IntPolynomial((1, 15, 60))
    done(1, "pi(A_ID) = 1+16t+75t^2+60t^3 and pi(L_ID) = 1+15t+60t^2, "
            "exactly")


def test_criterion_2_integer_split(icosi):
    assert splits_over_integers(poincare_polynomial(icosi)) is None
    control = IntPolynomial((1, 1)) * IntPolynomial((1, 2)) * \
        IntPolynomial((1, 3))
    assert splits_over_integers(control) == (1, 2, 3)
    done(2, "pi(A_ID) admits no integer linear factorization; "
            "(1+t)(1+2t)(1+3t) -> {1,2,3}")


def test_criterion_3_not_factored(lid):
    assert find_factorization(lid).factorization is None
    assert find_factorization_bruteforce(lid) is None
    done(3, "L_ID is not factored, by propagation search and by all 2^15 "
            "assignments")


def test_criterion_4_simpliciality(icosi):
    verdict, witness = is_simplicial(
        build_complex(decone(icosi, default_decone_index(icosi))))
    assert verdict is False
    assert witness is not None and witness.bounded and witness.size == 5
    boolean3 = builtin("boolean3")
    ok, none_witness = is_simplicial(
        build_complex(decone(boolean3, default_decone_index(boolean3))))
    assert ok is True and none_witness is None
    done(4, "A_ID is not simplicial (pentagon chamber witness); the "
            "Boolean 3-arrangement is")


def test_criterion_5_link_census(gamma_lid):
    census = link_census(gamma_lid)
    assert set(census) == {
        ("cycle", 4, 2), ("cycle", 8, 4),
        ("path", 6, 4), ("path", 3, 2), ("path", 2, 2)}
    assert sum(census.values()) == len(gamma_lid.vertices)
    done(5, "link census of Gamma(L_ID) is exactly the paper's five rows: "
            "cycle/4/2, cycle/8/4, path/6/4, path/3/2, path/2/2")


def test_criterion_6_circuit_sums():
    labels = tuple(Corner(0, i) for i in range(8))
    link = Link(0, 4, CYCLE, (LinkComponent(tuple(range(8)), labels),))
    weights = dict(zip(labels, [F(1, 5), F(1, 5), F(2, 5), F(2, 5),
                                F(1, 5), F(2, 5), F(2, 5), F(1, 5)]))
    circuits = enumerate_circuits(link)
    type_i = [c for c in circuits if c.ctype == "i"]
    assert len(type_i) == 1
    assert evaluate_circuit(weights, type_i[0]) == F(12, 5)
    type_ii = [c for c in circuits if c.ctype == "ii"]
    assert min(evaluate_circuit(weights, c) for c in type_ii) == F(14, 5)
    type_iv = [c for c in circuits if c.ctype == "iv" and c.start == 1]
    assert len(type_iv) == 1
    assert evaluate_circuit(weights, type_iv[0]) == F(16, 5)
    done(6, "cycle-8 circuit sums are 12/5 (type i), min 14/5 (type ii), "
            "16/5 (type iv over e,f,h,k), exactly")


def test_criterion_7_falk_feasibility(gamma_lid, lid_solution,
                                      lid_solution_equality):
    assert lid_solution.feasible
    assert verify(gamma_lid, lid_solution.weights).ok
    assert check_certificate(lid_solution.lp, lid_solution.lp_result)
    assert lid_solution_equality.feasible
    assert verify(gamma_lid, lid_solution_equality.weights).ok
    assert check_certificate(lid_solution_equality.lp,
                             lid_solution_equality.lp_result)
    done(7, "Falk system of Gamma(L_ID) is feasible, also with forced "
            "asphericity equalities; witnesses verify and certify")


def test_criterion_8_dominance(gamma_lid):
    rng = random.Random(88)
    gammas = [gamma_lid]
    for _ in range(50):
        arr = essential_random_line_arrangement(rng, rng.randint(2, 6))
        gammas.append(gamma_of(arr))
    checked = 0
    for gam in gammas:
        for lk in gam.links():
            by_key = {}
            for c in raw_circuit_walks(lk):
                by_key[(c.ctype, c.component, c.start)] = c
            for (ctype, comp, start), c3 in by_key.items():
                if ctype != "iii":
                    continue
                c4 = by_key[("iv", comp, start)]
                assert all(a >= b for a, b in zip(c3.counts, c4.counts))
                checked += 1
    assert checked > 0
    done(8, f"type-(iii) rows termwise dominate their type-(iv) partners "
            f"({checked} pairs on Gamma(L_ID) plus 50 random arrangements)")


def test_criterion_9_oracle_equivalence(lid):
    corpus = [builtin("boolean2"), builtin("generic3"), builtin("boolean3"),
              cone(builtin("generic3"))]
    rng = random.Random(909)
    for _ in range(8):
        corpus.append(essential_random_line_arrangement(
            rng, rng.randint(2, 6)))
    for arr in corpus:
        n = len(getattr(arr, "lines", getattr(arr, "planes", ())))
        assert n <= 7
        assert poincare_polynomial(arr) == whitney_poincare(arr)
    lp_cases = 0
    for _ in range(60):
        lp = random_lp(rng, max_vars=12, max_rows=30)
        res = solve_feasibility(lp)
        rows = [(r.coeffs, r.rel, r.rhs) for r in lp.rows]
        assert (res.status == "feasible") == \
            fourier_motzkin_feasible(rows, lp.nvars)
        lp_cases += 1
    done(9, f"Mobius Poincare polynomials match the Whitney subset sum on "
            f"{len(corpus)} arrangements; simplex verdicts match "
            f"Fourier-Motzkin on {lp_cases} random systems")


def test_criterion_10_coning_identity():
    rng = random.Random(1010)
    one_plus_t = IntPolynomial((1, 1))
    for _ in range(20):
        arr = essential_random_line_arrangement(rng, rng.randint(2, 6))
        assert poincare_polynomial(cone(arr)) == \
            one_plus_t * poincare_polynomial(arr)
    done(10, "pi(cone(L), t) = (1+t) pi(L, t) exactly on 20 random line "
             "arrangements")
