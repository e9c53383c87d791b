"""arrlab command line: reproducible arrangement analyses and figures.

Subcommands: analyze, poset, gamma, factor, falk {constraints,solve,verify},
render.  Arrangement references are file paths or builtins like
``@icosidodecahedral``.  Exit codes: 0 success / verification PASS,
1 verification FAIL or infeasible system, 2 usage, parse or I/O errors,
3 internal error (a failed re-check of the program's own result).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from fractions import Fraction

from .arrangement import (
    ArrangementError,
    CentralArrangement,
    LineArrangement,
    builtin,
    decone,
    default_decone_index,
    parse_arrangement,
)
from .cells import (
    CYCLE,
    Corner,
    bounded_complex,
    build_complex,
    chamber_walls,
    face_census,
    gamma_of,
    is_simplicial,
    link_census,
)
from .factored import find_factorization
from .falk import WeightError, build_constraints, solve, verify
from .poset import (
    IntPolynomial,
    intersection_poset,
    poincare_polynomial,
    splits_over_integers,
)
from .scalar import RATIONAL, ScalarError, parse_scalar
from .svgout import render_svg


class CliError(Exception):
    """User-facing failure; message printed, exit code 2."""


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 text "
                       f"(byte {exc.start})") from exc


def write_output(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from exc


def load_arrangement(ref: str):
    if ref.startswith("@"):
        try:
            return builtin(ref[1:])
        except ArrangementError as exc:
            raise CliError(str(exc)) from exc
    text = read_text(ref)
    try:
        return parse_arrangement(text)
    except ArrangementError as exc:
        raise CliError(f"{ref}: {exc}") from exc


def as_line_arrangement(arr):
    """Line arrangements pass through; central ones are deconed at the
    default plane."""
    if isinstance(arr, LineArrangement):
        return arr
    return decone(arr, default_decone_index(arr))


def _census_token(shape: str, length: int, mult: int) -> str:
    return f"{shape}/{length}/m{mult}"


def _shape_word(lk_shape: str, length: int) -> str:
    if lk_shape == CYCLE:
        body = "".join(str(i % 10) for i in range(1, length + 1))
        return body + "1"
    return "".join(str(i % 10) for i in range(1, length + 1))


def _polygon_name(k: int) -> str:
    names = {3: "triangle", 4: "quadrilateral", 5: "pentagon", 6: "hexagon"}
    return names.get(k, f"{k}-gon")


# the fields of a central report that need the deconed section
_SECTION_FIELDS = ("simplicial", "decone_plane", "pi_decone", "factored",
                   "gamma_vertices", "gamma_edges", "gamma_faces",
                   "gamma_corners", "face_census", "link_census", "falk")


def _print_report(report, out) -> int:
    for key, value in report:
        print(f"{key}: {value}", file=out)
    return 0


def cmd_analyze(args, out) -> int:
    arr = load_arrangement(args.arrangement)
    central = isinstance(arr, CentralArrangement)
    if central and arr.rank() < 3:
        # no plane section: report pi of arr itself, n/a for the rest
        pi = poincare_polynomial(arr)
        return _print_report(
            _analyze_head(args, arr, pi)
            + [(key, "n/a") for key in _SECTION_FIELDS], out)
    section = as_line_arrangement(arr)
    cx = build_complex(section)
    # pi(cA, t) = (1 + t) pi(A, t) (Orlik-Terao, Prop. 2.51): one poset,
    # the section's, gives the polynomials of both the cone and the section
    pi_section = poincare_polynomial(section)
    pi_cone = IntPolynomial((1, 1)) * pi_section
    report = _analyze_head(args, arr, pi_cone if central else pi_section)
    if central:
        simp, witness = is_simplicial(cx)
        report.append(("simplicial", "true" if simp else "false"))
        if witness is not None:
            walls = chamber_walls(cx, witness)
            report.append(("simplicial_witness",
                           f"{_polygon_name(walls)} chamber"))
        report.append(("decone_plane", str(default_decone_index(arr))))
        report.append(("pi_decone", str(pi_section)))
    else:
        report.append(("pi_cone", str(pi_cone)))
    if len(section.lines) >= 2:
        fac = find_factorization(section).factorization
        report.append(("factored", "true" if fac is not None else "false"))
    else:
        report.append(("factored", "n/a"))
    gam = bounded_complex(cx)
    report.append(("gamma_vertices", str(len(gam.vertices))))
    report.append(("gamma_edges", str(len(gam.edges))))
    report.append(("gamma_faces", str(len(gam.faces))))
    report.append(("gamma_corners", str(len(gam.corners))))
    fc = face_census(cx)
    report.append(("face_census",
                   " ".join(f"{k}:{fc[k]}" for k in sorted(fc)) or "-"))
    lc = link_census(gam)
    report.append(("link_census",
                   " ".join(f"{_census_token(*k)}:{lc[k]}"
                            for k in sorted(lc)) or "-"))
    result = solve(gam)
    report.append(("falk", result.status.upper()))
    return _print_report(report, out)


def _analyze_head(args, arr, pi):
    """The report fields every input has: what it is and its pi."""
    split = splits_over_integers(pi)
    return [
        ("input", args.arrangement),
        ("kind", "central" if isinstance(arr, CentralArrangement)
         else "line"),
        ("field", arr.field),
        ("hyperplanes", str(len(arr))),
        ("pi", str(pi)),
        ("integer_split", "none" if split is None
         else "{" + ",".join(map(str, split)) + "}"),
    ]


def cmd_poset(args, out) -> int:
    arr = load_arrangement(args.arrangement)
    poset = intersection_poset(arr)
    lines = []
    for r in range(poset.rank + 1):
        flats = poset.flats_of_rank(r)
        lines.append(f"rank {r}: {len(flats)} flat(s)\n")
        for f in flats:
            hset = "{" + ",".join(map(str, sorted(f.hyperplanes))) + "}"
            mu = f"  mu={poset.mobius[f.id]}" if args.mobius else ""
            lines.append(f"  flat {f.id}: hyperplanes {hset}{mu}\n")
    lines.append(f"pi: {poset.poincare_polynomial()}\n")
    out.write("".join(lines))
    return 0


def cmd_gamma(args, out) -> int:
    gam = gamma_of(as_line_arrangement(load_arrangement(args.arrangement)))
    print(f"vertices: {len(gam.vertices)}", file=out)
    print(f"edges: {len(gam.edges)}", file=out)
    print(f"faces: {len(gam.faces)}", file=out)
    fc = face_census(gam.complex)
    print("face census: "
          + (" ".join(f"{k}-gon:{fc[k]}" for k in sorted(fc)) or "-"),
          file=out)
    print("links:", file=out)
    lc = link_census(gam)
    for (shape, length, mult), count in sorted(lc.items()):
        word = _shape_word(shape, length)
        print(f"  {word:20s} m={mult}  {shape:9s} x{count}", file=out)
    corners = " ".join(f"({c.vertex},{c.face})" for c in gam.corners)
    print(f"corners ({len(gam.corners)}): {corners}", file=out)
    return 0


def cmd_factor(args, out) -> int:
    arr = as_line_arrangement(load_arrangement(args.arrangement))
    if len(arr.lines) < 2:
        raise CliError("factorization needs at least 2 lines")
    search = find_factorization(arr)
    fac = search.factorization
    if fac is not None:
        print("FACTORED", file=out)
        print("Pi1: " + " ".join(map(str, sorted(fac.part1))), file=out)
        print("Pi2: " + " ".join(map(str, sorted(fac.part2))), file=out)
        return 0
    print("NOT FACTORED", file=out)
    for line, part, reason in search.steps:
        print(f"  line {line} -> part {part}   [{reason}]", file=out)
    if search.contradiction:
        print(f"  contradiction: {search.contradiction}", file=out)
    else:
        print("  (no contradiction by unit propagation alone; exhaustive "
              "search excluded every assignment)", file=out)
    return 0


def cmd_falk_constraints(args, out) -> int:
    gam = gamma_of(as_line_arrangement(load_arrangement(args.arrangement)))
    system = build_constraints(gam)
    lines = [f"# x{i} = corner (vertex {c.vertex}, face {c.face})\n"
             for i, c in enumerate(system.variables)]
    for row in system.rows:
        terms = " + ".join([f"{k}*x{j}" for j, k in row.coeffs])
        lines.append(f"{terms} {row.rel} {row.rhs}   # {row.tag}\n")
    out.write("".join(lines))
    return 0


def cmd_falk_solve(args, out) -> int:
    gam = gamma_of(as_line_arrangement(load_arrangement(args.arrangement)))
    result = solve(gam, equality_asphericity=args.equality_asphericity,
                   minimize_total=args.minimize_total)
    if not result.feasible:
        print("INFEASIBLE", file=out)
        cert = result.lp_result.certificate
        print("certificate multipliers (per constraint row):", file=out)
        for row, mult in zip(result.system.rows, cert):
            if mult:
                print(f"  {mult} * [{row.tag}]", file=out)
        print("note: only this sufficient test failed; no claim about "
              "asphericity itself", file=out)
        return 1
    text = serialize_weights(result.weights)
    if args.output:
        write_output(args.output, text)
        print(f"FEASIBLE ({len(result.weights)} corner weights written to "
              f"{args.output})", file=out)
    else:
        print("FEASIBLE", file=out)
        print(text, end="", file=out)
    return 0


def cmd_falk_verify(args, out) -> int:
    gam = gamma_of(as_line_arrangement(load_arrangement(args.arrangement)))
    weights = read_weights(args.weights)
    report = verify(gam, weights)
    print(report.verdict, file=out)
    for v in report.violations:
        print(f"  {v.tag}: value {v.lhs} violates {v.rel} {v.rhs}", file=out)
    return 0 if report.ok else 1


def cmd_render(args, out) -> int:
    arr = as_line_arrangement(load_arrangement(args.arrangement))
    weights = read_weights(args.weights) if args.weights else None
    doc = render_svg(arr, gamma=args.gamma, weights=weights)
    write_output(args.output, doc)
    print(f"wrote {args.output}", file=out)
    return 0


def serialize_weights(weights) -> str:
    lines = []
    for c in sorted(weights):
        lines.append(f"corner {c.vertex} {c.face} = {Fraction(weights[c])}")
    return "\n".join(lines) + "\n"


def read_weights(path: str) -> dict:
    return parse_weights(read_text(path))


def parse_weights(text: str) -> dict:
    weights = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if (len(tokens) != 5 or tokens[0] != "corner" or tokens[3] != "="
                or not all(t.isascii() and t.isdigit() for t in tokens[1:3])):
            raise CliError(f"weights line {lineno}: expected "
                           f"'corner <vertex> <face> = <rational>'")
        corner = Corner(int(tokens[1]), int(tokens[2]))
        try:
            value = parse_scalar(tokens[4], RATIONAL).a
        except ScalarError as exc:
            raise CliError(f"weights line {lineno}: {exc}") from exc
        if corner in weights:
            raise CliError(f"weights line {lineno}: duplicate corner")
        weights[corner] = value
    return weights


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrlab",
        description="Exact analysis of line/plane arrangements: intersection "
                    "posets, bounded complexes, and a linear feasibility "
                    "test of face and circuit weight conditions (FEASIBLE "
                    "does not by itself show that the cone is K(pi,1)).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report on an arrangement")
    p.add_argument("arrangement")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("poset", help="intersection poset and pi(A,t)")
    p.add_argument("arrangement")
    p.add_argument("--mobius", action="store_true",
                   help="print Mobius values per flat")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("gamma", help="bounded complex census")
    p.add_argument("arrangement")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("factor", help="search for a factorization")
    p.add_argument("arrangement")
    p.set_defaults(func=cmd_factor)

    falk = sub.add_parser("falk", help="weight-test commands")
    falk_sub = falk.add_subparsers(dest="falk_command", required=True)

    p = falk_sub.add_parser("constraints", help="dump the constraint system")
    p.add_argument("arrangement")
    p.set_defaults(func=cmd_falk_constraints)

    p = falk_sub.add_parser("solve", help="search for a weight system")
    p.add_argument("arrangement")
    p.add_argument("--equality-asphericity", action="store_true",
                   help="force equality in every asphericity row")
    p.add_argument("--minimize-total", action="store_true",
                   help="minimize the sum of all corner weights")
    p.add_argument("-o", "--output", help="write weights to this file")
    p.set_defaults(func=cmd_falk_solve)

    p = falk_sub.add_parser("verify", help="check a weight system")
    p.add_argument("arrangement")
    p.add_argument("weights")
    p.set_defaults(func=cmd_falk_verify)

    p = sub.add_parser("render", help="emit an SVG figure")
    p.add_argument("arrangement")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--gamma", action="store_true",
                   help="emphasize the bounded complex")
    p.add_argument("--weights", help="annotate corners from a weights file")
    p.set_defaults(func=cmd_render)
    return parser


def _show_warning(message, *_args, **_kwargs):
    print(f"arrlab: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show_warning
        try:
            return args.func(args, sys.stdout)
        except (CliError, ArrangementError, ScalarError, WeightError) as exc:
            print(f"arrlab: error: {exc}", file=sys.stderr)
            return 2
        except RuntimeError as exc:
            # a failed internal re-check: a fault of the program, not of
            # the input
            print(f"arrlab: internal error: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
