import hashlib
import io
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import arrlab.poset
from arrlab.arrangement import (LineArrangement, builtin, decone,
                                default_decone_index)
from arrlab.cli import main, parse_weights, serialize_weights
from arrlab.cells import Corner, corner_automorphisms, gamma_of
from arrlab.falk import ConstraintSystem, SolveResult, solve
from arrlab.lpcore import (GE, INFEASIBLE, LE, FeasibilityResult, LPRow,
                           StandardFormLP, solve_feasibility)
from arrlab.poset import IntPolynomial

from oracles import whitney_poincare

README = Path(__file__).resolve().parent.parent / "README.md"

# SHA-256 of the icosidodecahedral weights file written from the
# unreduced solve (tests/oracles.py) and by falk.solve over the symmetry
# orbits, as the CLI writes it, and of the figure annotated with the former
ICOSI_WEIGHTS_SHA256 = \
    "32b29b3ac3ba2b661d07a1986ace501c7aea84da42a94ed2c314bce15d0c73ec"
ICOSI_CLI_WEIGHTS_SHA256 = \
    "b5c4112d374fe86593254944112d31f8b84a0b5b0591e75aca85d24b32045fbe"
ICOSI_SVG_SHA256 = \
    "b2232f07001d27fa6ff09f8b90f4707be13ee1e6086177e5212487c79b788550"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_boolean2(capsys):
    code, out, _ = run_cli(["analyze", "@boolean2"], capsys)
    assert code == 0
    assert "pi: 1 + 2t + t^2" in out
    assert "integer_split: {1,1}" in out
    assert "factored: true" in out


def test_analyze_generic3(capsys):
    code, out, _ = run_cli(["analyze", "@generic3"], capsys)
    assert code == 0
    assert "pi: 1 + 3t + 3t^2" in out
    assert "pi_cone: 1 + 4t + 6t^2 + 3t^3" in out
    assert "falk: FEASIBLE" in out


@pytest.mark.parametrize("ref, pis", [
    ("@generic3", ("pi: 1 + 3t + 3t^2", "pi_cone: 1 + 4t + 6t^2 + 3t^3")),
    ("@boolean3", ("pi: 1 + 3t + 3t^2 + t^3", "pi_decone: 1 + 2t + t^2")),
])
def test_analyze_builds_only_the_section_poset(ref, pis, monkeypatch,
                                               capsys):
    # the cone's polynomial is (1 + t) times the section's
    built = []
    poset = arrlab.poset.intersection_poset
    monkeypatch.setattr(arrlab.poset, "intersection_poset",
                        lambda arr: built.append(arr) or poset(arr))
    code, out, _ = run_cli(["analyze", ref], capsys)
    assert code == 0
    assert all(f"\n{pi}\n" in out for pi in pis)
    assert [type(arr) for arr in built] == [LineArrangement]


def test_one_line_factorization_not_applicable(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("field rational\nline 1 0 0\n")
    code, out, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 0
    assert "\nfactored: n/a\n" in out
    code, out, err = run_cli(["factor", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "arrlab: error: factorization needs at least 2 lines\n"


def readme_report():
    """The report block that follows the analyze command in README.md."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("$ arrlab analyze @icosidodecahedral") + 1
    end = lines.index("```", start)
    return "\n".join(lines[start:end]) + "\n"


def test_analyze_icosi(capsys, icosi):
    code, out, _ = run_cli(["analyze", "@icosidodecahedral"], capsys)
    assert code == 0
    assert out == readme_report()
    assert "pi: 1 + 16t + 75t^2 + 60t^3" in out
    assert "pi_decone: 1 + 15t + 60t^2" in out
    assert "integer_split: none" in out
    assert "simplicial: false" in out
    assert "pentagon" in out
    assert "factored: false" in out
    assert "falk: FEASIBLE" in out


def write_planes(path, *normals):
    path.write_text("field rational\n" + "".join(
        f"plane {a} {b} {c}\n" for a, b, c in normals))
    return str(path)


def test_analyze_simplicial_with_parallel_lines(tmp_path, capsys):
    # x = 0, x = z, y = 0, z = 0: all 12 chambers have 3 walls; the decone
    # at z = 0 has two parallel lines bounding half-strips
    ref = write_planes(tmp_path / "a.txt",
                       (1, 0, 0), (1, 0, -1), (0, 1, 0), (0, 0, 1))
    code, out, _ = run_cli(["analyze", ref], capsys)
    assert code == 0
    assert "simplicial: true\n" in out
    assert "simplicial_witness" not in out


def test_analyze_unbounded_witness_counts_infinity(tmp_path, capsys):
    # four generic planes: every chamber that is not a triangle has 4 walls
    ref = write_planes(tmp_path / "a.txt",
                       (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    code, out, _ = run_cli(["analyze", ref], capsys)
    assert code == 0
    assert "simplicial: false\n" in out
    assert "simplicial_witness: quadrilateral chamber\n" in out


def test_analyze_rank2_central_reports_na(tmp_path, capsys):
    # three planes through one line have no plane section to decone to:
    # the report gives pi of the arrangement itself and n/a for the rest
    ref = write_planes(tmp_path / "a.txt", (1, 0, 0), (0, 1, 0), (1, 1, 0))
    code, out, err = run_cli(["analyze", ref], capsys)
    assert code == 0 and err == ""
    assert out == (f"input: {ref}\nkind: central\nfield: rational\n"
                   "hyperplanes: 3\npi: 1 + 3t + 2t^2\n"
                   "integer_split: {1,2}\n"
                   + "".join(f"{key}: n/a\n" for key in (
                       "simplicial", "decone_plane", "pi_decone",
                       "factored", "gamma_vertices", "gamma_edges",
                       "gamma_faces", "gamma_corners", "face_census",
                       "link_census", "falk")))
    assert whitney_poincare(arrlab.parse_arrangement(
        (tmp_path / "a.txt").read_text())) == IntPolynomial((1, 3, 2))
    # so do a single plane and two planes
    for normals, pi in ((((0, 0, 1),), "1 + t"),
                        (((1, 0, 0), (0, 1, 0)), "1 + 2t + t^2")):
        ref = write_planes(tmp_path / "b.txt", *normals)
        code, out, _ = run_cli(["analyze", ref], capsys)
        assert code == 0
        assert f"\npi: {pi}\n" in out and out.endswith("falk: n/a\n")
    # the other commands that need the section still refuse it
    code, out, err = run_cli(["gamma", ref], capsys)
    assert code == 2 and out == ""
    assert err == "arrlab: error: decone requires a rank-3 arrangement\n"


# SHA-256 of the stdout of analyze (after its input line) and gamma on the
# boxed diagonals, whose link at the origin has two components
MULTIPATH_ANALYZE_SHA256 = \
    "8b26fd79e0eeb1aaf5376ded86286b2b8f97fcfcb799d7c08975b4c93896bf49"
MULTIPATH_GAMMA_SHA256 = \
    "b8a2a585098f27a633b8a500846149787fd585299a1e4e7c6802147b22aaed5a"


@pytest.mark.parametrize("command, skip, digest", [
    ("analyze", 1, MULTIPATH_ANALYZE_SHA256),
    ("gamma", 0, MULTIPATH_GAMMA_SHA256),
], ids=["analyze", "gamma"])
def test_disconnected_link_warning_is_one_line(command, skip, digest,
                                               tmp_path, capsys):
    path = tmp_path / "a.txt"
    path.write_text("field rational\nline 1 -1 0\nline 1 1 0\n"
                    "line 1 0 1\nline 1 0 -1\n")
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 0
    assert err == ("arrlab: warning: vertex 2: disconnected link with 2 "
                   "components; circuits are generated per component\n")
    body = "".join(out.splitlines(keepends=True)[skip:])
    assert hashlib.sha256(body.encode()).hexdigest() == digest


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(["analyze", "/nonexistent/arr.txt"], capsys)
    assert code == 2
    assert "error" in err


def test_analyze_is_deterministic(capsys):
    _, first, _ = run_cli(["analyze", "@generic3"], capsys)
    _, second, _ = run_cli(["analyze", "@generic3"], capsys)
    assert first == second


def test_poset_output(capsys):
    code, out, _ = run_cli(["poset", "@generic3", "--mobius"], capsys)
    assert code == 0
    assert "pi: 1 + 3t + 3t^2" in out
    assert "mu=" in out


def test_gamma_output(capsys):
    code, out, _ = run_cli(["gamma", "@generic3"], capsys)
    assert code == 0
    assert "vertices: 3" in out
    assert "faces: 1" in out
    assert "3-gon:1" in out
    assert "12 " in out  # the paper-style path word for the 2-vertex link


def test_factor_output_not_factored(capsys):
    code, out, _ = run_cli(["factor", "@icosidodecahedral"], capsys)
    assert code == 0
    assert "NOT FACTORED" in out
    assert "contradiction" in out


def test_factor_not_factored_by_exhaustive_search(tmp_path, capsys):
    # propagation from the seed forces nothing; every branch fails later
    path = tmp_path / "arr.txt"
    path.write_text("field rational\nline 1 1 -1\nline 1 -1 1\n"
                    "line 1 0 -1\nline 0 1 -1\nline 1 -1 -1\nline 1 0 0\n")
    code, out, _ = run_cli(["factor", str(path)], capsys)
    assert code == 0
    assert out == (
        "NOT FACTORED\n"
        "  line 0 -> part 1   [seed]\n"
        "  (no contradiction by unit propagation alone; exhaustive search "
        "excluded every assignment)\n")


def test_factor_parallel_conflict(tmp_path, capsys):
    # propagation from the seed puts the parallel lines 1 and 4 into
    # different parts, which no factorization allows
    path = tmp_path / "arr.txt"
    path.write_text("field rational\nline 1 0 0\nline 1 -1 -1\n"
                    "line 1 1 0\nline 0 1 -1\nline 1 -1 1\n")
    code, out, _ = run_cli(["factor", str(path)], capsys)
    assert code == 0
    assert out.startswith("NOT FACTORED\n  line 0 -> part 1   [seed]\n")
    assert out.endswith("  contradiction: parallel lines 1 and 4 lie in "
                        "different parts but never meet\n")


def test_factor_output_factored(tmp_path, capsys):
    path = tmp_path / "arr.txt"
    path.write_text("field rational\nline 1 0 0\nline 0 1 0\n")
    code, out, _ = run_cli(["factor", str(path)], capsys)
    assert code == 0
    assert "FACTORED" in out
    assert "Pi1: 0" in out and "Pi2: 1" in out


def test_falk_constraints_dump(capsys):
    code, out, _ = run_cli(["falk", "constraints", "@generic3"], capsys)
    assert code == 0
    assert "1*x0 + 1*x1 + 1*x2 <= 1" in out
    assert "# x0 = corner (vertex 0, face 0)" in out


class _CountingOut(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv", (
    ["poset", "@icosidodecahedral", "--mobius"],
    ["falk", "constraints", "@icosidodecahedral"]))
def test_long_reports_are_written_once(argv, monkeypatch, capsys):
    _, expected, _ = run_cli(argv, capsys)
    out = _CountingOut()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    assert out.getvalue() == expected and expected.count("\n") > 60
    assert out.writes == 1


def test_falk_solve_verify_roundtrip(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    code, out, _ = run_cli(
        ["falk", "solve", "@icosidodecahedral", "-o", str(wfile)], capsys)
    assert code == 0
    assert "FEASIBLE" in out
    assert hashlib.sha256(wfile.read_bytes()).hexdigest() == \
        ICOSI_CLI_WEIGHTS_SHA256
    code, out, _ = run_cli(
        ["falk", "verify", "@icosidodecahedral", str(wfile)], capsys)
    assert code == 0
    assert out.startswith("PASS")


def test_falk_solve_checks_farkas_certificate(monkeypatch, capsys):
    rows = (LPRow(((0, 1),), GE, 2, "row a"),
            LPRow(((0, 1),), LE, 1, "row b"))
    lp = StandardFormLP(1, rows)
    res = solve_feasibility(lp)
    corner = Corner(0, 0)
    result = SolveResult(res.status, None,
                         ConstraintSystem((corner,), ((corner,),), rows),
                         lp, res)
    monkeypatch.setattr("arrlab.cli.solve", lambda gam, **kw: result)
    code, out, _ = run_cli(["falk", "solve", "@generic3"], capsys)
    assert code == 1
    assert out.splitlines()[:4] == [
        "INFEASIBLE", "certificate multipliers (per constraint row):",
        "  1 * [row a]", "  1 * [row b]"]
    # the check is falk.solve's, so analyze's verdict is checked too
    monkeypatch.undo()
    corrupted = FeasibilityResult(INFEASIBLE, certificate=(Fraction(0),))
    monkeypatch.setattr("arrlab.falk.solve_feasibility",
                        lambda lp: corrupted)
    # a failed re-check is a program fault: exit 3 and one stderr line
    for argv in (["falk", "solve", "@generic3"], ["analyze", "@generic3"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert err == ("arrlab: internal error: solver returned a witness "
                       "or Farkas certificate that fails its check\n")


def test_non_preserving_permutation_is_an_internal_error(monkeypatch,
                                                        capsys):
    # a swap of two corners added to the group fails the invariance check
    # inside falk.solve: exit 3 and one stderr line, no traceback
    def with_swap(gam):
        swap = (1, 0, *range(2, len(gam.corners)))
        return corner_automorphisms(gam) + [swap]

    monkeypatch.setattr("arrlab.falk.corner_automorphisms", with_swap)
    code, out, err = run_cli(["falk", "solve", "@icosidodecahedral"],
                             capsys)
    assert (code, out) == (3, "")
    assert err == ("arrlab: internal error: permutation does not preserve "
                   "the corner incidence structure of the constraint "
                   "system\n")


def test_library_and_cli_solve_print_the_same_weights(lid_solution,
                                                      capsys):
    assert hashlib.sha256(serialize_weights(
        lid_solution.weights).encode()).hexdigest() == \
        ICOSI_CLI_WEIGHTS_SHA256
    for name in ("icosidodecahedral", "B3", "H3"):
        arr = builtin(name)
        gam = gamma_of(decone(arr, default_decone_index(arr)))
        for flags, kw in (([], {}),
                          (["--equality-asphericity", "--minimize-total"],
                           {"equality_asphericity": True,
                            "minimize_total": True})):
            code, out, _ = run_cli(["falk", "solve", f"@{name}", *flags],
                                   capsys)
            assert code == 0
            assert out == "FEASIBLE\n" + serialize_weights(
                solve(gam, **kw).weights)


def test_falk_verify_fail_exit_code(tmp_path, capsys):
    # all-ones weights violate the triangle asphericity row: 3 > 1
    weights = {Corner(0, 0): Fraction(1), Corner(1, 0): Fraction(1),
               Corner(2, 0): Fraction(1)}
    wfile = tmp_path / "w.txt"
    wfile.write_text(serialize_weights(weights))
    code, out, _ = run_cli(["falk", "verify", "@generic3", str(wfile)],
                           capsys)
    assert code == 1
    assert out.startswith("FAIL")
    assert "asphericity" in out


def test_falk_verify_rejects_unknown_corner(tmp_path, capsys):
    # zero weights pass on @generic3; a corner outside Gamma must not
    wfile = tmp_path / "w.txt"
    weights = {Corner(v, 0): Fraction(0) for v in range(3)}
    wfile.write_text(serialize_weights(weights) + "corner 99 99 = 1\n")
    code, out, err = run_cli(["falk", "verify", "@generic3", str(wfile)],
                             capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("arrlab: error: ") and err.count("\n") == 1
    assert "(99,99)" in err


@pytest.mark.parametrize("argv", [
    ["render", "@generic3", "-o", "{tmp}/missing/a.svg"],
    ["falk", "solve", "@generic3", "-o", "{tmp}/missing/w.txt"],
    ["analyze", "{tmp}/latin1.txt"],
    ["falk", "verify", "@generic3", "{tmp}/latin1.txt"],
    ["render", "@generic3", "-o", "{tmp}/a.svg", "--weights",
     "{tmp}/latin1.txt"],
], ids=["render-unwritable", "solve-unwritable", "arrangement-not-utf8",
        "verify-weights-not-utf8", "render-weights-not-utf8"])
def test_io_faults_exit_2(argv, tmp_path, capsys):
    (tmp_path / "latin1.txt").write_bytes(
        "field rational  # caf\xe9\n".encode("latin-1"))
    code, _, err = run_cli([a.format(tmp=tmp_path) for a in argv], capsys)
    assert code == 2
    assert err.startswith("arrlab: error: cannot ")
    assert err.count("\n") == 1


def test_weights_round_trip():
    weights = {Corner(3, 1): Fraction(2, 5), Corner(0, 0): Fraction(1)}
    text = serialize_weights(weights)
    assert parse_weights(text) == weights


def test_weights_parse_errors(tmp_path, capsys):
    from arrlab.cli import CliError
    with pytest.raises(CliError):
        parse_weights("corner 0 = 1\n")
    with pytest.raises(CliError):
        parse_weights("corner 0 0 = 1\ncorner 0 0 = 2\n")
    # weights take the arrangement files' rational syntax, p or p/q
    wfile = tmp_path / "w.txt"
    # in ASCII digits only: int() would read U+0660 as 0, U+0661 as 1
    for line in ("corner 0 0 = 1e3", "corner 0 0 = 1.5", "corner 0 0 = 1_000",
                 "corner 0 0 = 1/0", "corner 0 0 = \u0660",
                 "corner \u0661 0 = 1", "corner 0 +0 = 1"):
        wfile.write_text(line + "\n", encoding="utf-8")
        code, out, err = run_cli(["falk", "verify", "@generic3", str(wfile)],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("arrlab: error: weights line 1: ")
        assert err.count("\n") == 1


def test_render_generic3_gamma(tmp_path, capsys):
    out_file = tmp_path / "g3.svg"
    code, _, _ = run_cli(
        ["render", "@generic3", "-o", str(out_file), "--gamma"], capsys)
    assert code == 0
    root = ET.parse(out_file).getroot()
    lines = [e for e in root if e.tag.endswith("line")]
    polygons = [e for e in root if e.tag.endswith("polygon")]
    assert len(lines) == 3
    assert len(polygons) == 1


def test_render_with_weights_annotations(tmp_path, capsys, gamma_lid,
                                        lid_unreduced):
    wfile = tmp_path / "w.txt"
    wfile.write_text(serialize_weights(lid_unreduced.weights),
                     encoding="utf-8")
    assert hashlib.sha256(wfile.read_bytes()).hexdigest() == \
        ICOSI_WEIGHTS_SHA256
    out_file = tmp_path / "lid.svg"
    code, _, _ = run_cli(
        ["render", "@icosidodecahedral", "-o", str(out_file),
         "--weights", str(wfile)], capsys)
    assert code == 0
    root = ET.parse(out_file).getroot()
    texts = [e for e in root if e.tag.endswith("text")]
    assert len(texts) == len(gamma_lid.corners)
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == \
        ICOSI_SVG_SHA256


def test_render_unknown_corner_weights(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    wfile.write_text("corner 99 99 = 1\n")
    out_file = tmp_path / "x.svg"
    code, _, err = run_cli(
        ["render", "@generic3", "-o", str(out_file),
         "--weights", str(wfile)], capsys)
    assert code == 2
    assert "error" in err


def test_render_empty_arrangement(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("field rational\n")
    out_file = tmp_path / "empty.svg"
    code, _, _ = run_cli(["render", str(path), "-o", str(out_file)], capsys)
    assert code == 0
    root = ET.parse(out_file).getroot()
    assert "empty" in "".join(root.itertext())


@pytest.mark.parametrize("weights, code", [
    ("corner 0 0 = 1\n", 2),
    ("", 0),
], ids=["unknown-corner", "no-corners"])
def test_render_empty_arrangement_weights(weights, code, tmp_path, capsys):
    # Gamma of no lines has no corners: weights must name none of them
    path = tmp_path / "empty.txt"
    path.write_text("field rational\n")
    wfile = tmp_path / "w.txt"
    wfile.write_text(weights)
    out_file = tmp_path / "empty.svg"
    got, out, err = run_cli(["render", str(path), "-o", str(out_file),
                             "--weights", str(wfile)], capsys)
    assert got == code
    if code:
        assert out == "" and not out_file.exists()
        assert err == ("arrlab: error: weight system names 1 corner(s) "
                       "outside Gamma, first (0,0)\n")
    else:
        assert "empty" in "".join(ET.parse(out_file).getroot().itertext())


def test_render_deterministic(tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    run_cli(["render", "@generic3", "-o", str(a), "--gamma"], capsys)
    run_cli(["render", "@generic3", "-o", str(b), "--gamma"], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_unknown_builtin(capsys):
    code, _, err = run_cli(["analyze", "@nope"], capsys)
    assert code == 2
    assert "unknown builtin" in err


@pytest.mark.parametrize("text, message", [
    ("field rational\nline \u0661 0 0\nline 0 1 0\n",
     "line 2: bad rational literal '\u0661'"),
    ("line 1 0 0\n", "line 1: expected 'field rational' or 'field golden'"),
    ("field rational\npoint 1 0 0\n",
     "line 2: expected 'line' or 'plane', got 'point'"),
    ("", "line 1: empty arrangement file"),
    ("field rational\nplane 0 0 0\n", "line 2: zero coefficient vector"),
], ids=["arabic-indic-digit", "no-field-row", "unknown-keyword", "empty",
        "zero-plane"])
def test_arrangement_parse_errors_exit_2(text, message, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    for command in ("poset", "analyze", "gamma"):
        code, out, err = run_cli([command, str(path)], capsys)
        assert code == 2 and out == ""
        assert err == f"arrlab: error: {path}: {message}\n"


def test_parse_error_propagates_with_context(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("field rational\nline 0 0 1\n")
    code, _, err = run_cli(["analyze", str(path)], capsys)
    assert code == 2
    assert "line 2" in err
