import hashlib
import random
from fractions import Fraction

import pytest

import arrlab.arrangement
import arrlab.cells
import arrlab.factored
import arrlab.poset
from arrlab.arrangement import LineArrangement, builtin, serialize_arrangement
from arrlab.cli import as_line_arrangement, main
from arrlab.factored import (
    Factorization,
    find_factorization,
    is_valid_factorization,
)
from arrlab.scalar import RATIONAL

from oracles import (
    find_factorization_bruteforce,
    golden_line_arrangement,
    random_line_arrangement,
)


def test_two_generic_lines():
    arr = builtin("boolean2")
    fac = find_factorization(arr).factorization
    assert fac is not None
    assert is_valid_factorization(arr, fac)
    assert {fac.part1, fac.part2} == {frozenset({0}), frozenset({1})}


def test_two_parallel_lines():
    arr = LineArrangement(((Fraction(1), Fraction(0), Fraction(0)),
                           (Fraction(1), Fraction(0), Fraction(1))),
                          RATIONAL)
    assert find_factorization(arr).factorization is None
    assert find_factorization_bruteforce(arr) is None


def test_lid_not_factored(lid):
    assert find_factorization(lid).factorization is None


def test_lid_propagation_finds_contradiction(lid):
    search = find_factorization(lid)
    assert search.contradiction is not None
    assert search.steps[0] == (0, 1, "seed")


def test_h3_section_needs_the_search():
    # propagation from the seed forces one line and stops short of a
    # contradiction; the search then excludes every assignment
    search = find_factorization(as_line_arrangement(builtin("H3")))
    assert search.factorization is None
    assert search.contradiction is None
    assert search.steps == (
        (0, 1, "seed"),
        (7, 2, "point 0&7 forces it (counts (1,0), otherwise no side keeps "
               "a single line)"))


def _factor_reads(monkeypatch, capsys, name):
    """Output of `arrlab factor name` and the number of point reads."""
    calls = []
    points = arrlab.factored.intersection_points
    monkeypatch.setattr(arrlab.factored, "intersection_points",
                        lambda arr: calls.append(arr) or points(arr))
    assert main(["factor", name]) == 0
    return capsys.readouterr().out, len(calls)


def test_factor_command_finds_intersections_once(monkeypatch, capsys):
    # the seeded propagation ends in a contradiction, so no search runs
    out, reads = _factor_reads(monkeypatch, capsys, "@icosidodecahedral")
    assert out.startswith("NOT FACTORED\n") and "contradiction:" in out
    assert reads == 1


def test_factor_command_searches_after_one_propagation(monkeypatch, capsys):
    # the seeded propagation leaves the question open, so the search runs
    # on from it and reads the intersection points no second time
    out, reads = _factor_reads(monkeypatch, capsys, "@H3")
    assert out.startswith("NOT FACTORED\n") and "exhaustive search" in out
    assert reads == 1


FACTORED_FILE = "field rational\nline 1 0 0\nline 0 1 0\nline 0 1 1\n"


@pytest.mark.parametrize("argv, first_line", [
    (["analyze", "@icosidodecahedral"], "input: @icosidodecahedral"),
    (["factor", "{path}"], "FACTORED"),
])
def test_commands_compute_intersections_once(argv, first_line, tmp_path,
                                             monkeypatch, capsys):
    # analyze reads the points in the poset, the complex and the search;
    # factor on a FACTORED input in the search and its re-check; they are
    # computed once
    nreads = {"analyze": 3, "factor": 2}[argv[0]]
    path = tmp_path / "factored.txt"
    path.write_text(FACTORED_FILE, encoding="utf-8")
    computed, reads = [], []
    crossings = arrlab.arrangement._crossings
    monkeypatch.setattr(arrlab.arrangement, "_crossings",
                        lambda lines: computed.append(lines)
                        or crossings(lines))
    for module in (arrlab.poset, arrlab.cells, arrlab.factored):
        monkeypatch.setattr(module, "intersection_points",
                            lambda arr, read=module.intersection_points:
                            reads.append(arr) or read(arr))
    assert main([a.format(path=path) for a in argv]) == 0
    assert capsys.readouterr().out.splitlines()[0] == first_line
    assert len(reads) == nreads and len(computed) == 1


def test_single_line_rejected():
    arr = LineArrangement(((Fraction(1), Fraction(0), Fraction(0)),),
                          RATIONAL)
    with pytest.raises(ValueError):
        find_factorization(arr)


def test_vertical_plus_horizontals_is_factored():
    # x = 0 against the parallel pair y = 0, y = 1: every double point
    # splits 1-1 and the parallel pair shares a part
    arr = LineArrangement(((Fraction(1), Fraction(0), Fraction(0)),
                           (Fraction(0), Fraction(1), Fraction(0)),
                           (Fraction(0), Fraction(1), Fraction(1))),
                          RATIONAL)
    fac = find_factorization(arr).factorization
    assert fac is not None
    assert is_valid_factorization(arr, fac)
    assert {fac.part1, fac.part2} == {frozenset({0}), frozenset({1, 2})}


def test_generic_triangle_not_factored():
    # double points pairwise force opposite parts: an odd cycle, so none
    arr = builtin("generic3")
    assert find_factorization(arr).factorization is None
    assert find_factorization_bruteforce(arr) is None


def test_validator_rejects_bad_partitions():
    arr = builtin("generic3")
    assert not is_valid_factorization(
        arr, Factorization(frozenset({0, 1, 2}), frozenset()))
    assert not is_valid_factorization(
        arr, Factorization(frozenset({0}), frozenset({1})))
    # x = 0 and x = 1 are parallel but lie in different parts
    assert not is_valid_factorization(
        _lines((1, 0, 0), (1, 0, -1)),
        Factorization(frozenset({0}), frozenset({1})))
    # four lines through the origin, split two and two
    assert not is_valid_factorization(
        _lines((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)),
        Factorization(frozenset({0, 1}), frozenset({2, 3})))


def _lines(*coeffs):
    return LineArrangement(
        tuple(tuple(Fraction(c) for c in abc) for abc in coeffs), RATIONAL)


def test_search_agrees_with_bruteforce(monkeypatch):
    # coefficients in {-1, 0, 1} make concurrent points common, so unit
    # propagation can leave lines free and the search must branch; a
    # 3-line pencil and the 6-line input of the CLI test always do
    branches = []
    search = arrlab.factored._search
    monkeypatch.setattr(arrlab.factored, "_search",
                        lambda part, *rest: branches.append(part.count(0))
                        or search(part, *rest))
    rng = random.Random(99)
    inputs = [_lines((1, 0, 0), (0, 1, 0), (1, 1, 0)),
              _lines((1, 1, -1), (1, -1, 1), (1, 0, -1), (0, 1, -1),
                     (1, -1, -1), (1, 0, 0))]
    inputs += [random_line_arrangement(rng, rng.randint(2, 6),
                                       coeff_range=coeff_range)
               for coeff_range in (3, 1) for _ in range(40)]
    for arr in inputs:
        fast = find_factorization(arr).factorization
        slow = find_factorization_bruteforce(arr)
        assert (fast is None) == (slow is None), arr
        if fast is not None:
            assert is_valid_factorization(arr, fast)
            assert is_valid_factorization(arr, slow)
    # a call with free lines left branches on one of them
    assert any(branches)


def test_relabeling_preserves_existence():
    rng = random.Random(42)
    for _ in range(15):
        arr = random_line_arrangement(rng, rng.randint(3, 6))
        exists = find_factorization(arr).factorization is not None
        perm = list(arr.lines)
        rng.shuffle(perm)
        shuffled = LineArrangement(tuple(perm), arr.field)
        assert (find_factorization(shuffled).factorization is not None) \
            == exists


# lines 1 and 4 are parallel; propagation from the seed puts them in
# different parts
PARALLEL_CONFLICT = ((1, 0, 0), (1, -1, -1), (1, 1, 0), (0, 1, -1),
                     (1, -1, 1))

# SHA-256 over the exit code and stdout of `arrlab factor` on the corpus
FACTOR_CORPUS_SHA256 = \
    "b9cc4698296e51552e16721a5cb1d349e88039aa843c58b552c3a43c155f4594"


def factor_corpus():
    """Seeded `arrlab factor` inputs: rational with parallel lines, with
    coefficients in {-1, 0, 1} (the search branches), over Q(sqrt5), and
    the parallel-conflict input."""
    rng = random.Random(2024)
    corpus = [random_line_arrangement(rng, rng.randint(2, 7),
                                      coeff_range=coeff_range)
              for coeff_range in (3, 1) for _ in range(150)]
    corpus += [golden_line_arrangement(rng, rng.randint(2, 6))
               for _ in range(100)]
    corpus.append(_lines(*PARALLEL_CONFLICT))
    return corpus


def test_factor_outputs_digest(tmp_path, capsys):
    path = tmp_path / "arr.txt"
    digest = hashlib.sha256()
    endings = set()
    for arr in factor_corpus():
        path.write_text(serialize_arrangement(arr), encoding="utf-8")
        code = main(["factor", str(path)])
        out = capsys.readouterr().out
        digest.update(f"exit {code}\n{out}".encode("utf-8"))
        last = out.splitlines()[-1]
        endings.add("factored" if out.startswith("FACTORED")
                    else "search" if "exhaustive search" in last
                    else "parallel" if "parallel lines" in last
                    else "point")
    # the corpus reaches every kind of answer the command gives
    assert endings == {"factored", "search", "parallel", "point"}
    assert digest.hexdigest() == FACTOR_CORPUS_SHA256
