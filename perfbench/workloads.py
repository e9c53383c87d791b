"""The benchmark's workloads: seeded inputs, command lists and output checks.

A workload writes its inputs once per set-up and then hands out cases.  A
case is one input taken through the workload's whole command list, as a
list of Steps; every command carries a check that runs outside the timed
region.  A check
returns None when the output is right, else a one-line reason.

Checks never rely on ``falk verify`` rejecting weights for corners outside
Gamma: a weights file is first compared, corner by corner, with the corners
of Gamma, and only then re-checked with ``falk.verify`` and
``lpcore.check_certificate``.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gen

FLAGSHIP = "@icosidodecahedral"
WARMUP = ["analyze", "@generic3"]


@dataclass
class Step:
    """One command line of a case and its check; it must exit with 0."""

    kind: str  # analyze | solve | verify | geometry
    argv: list
    check: object  # callable(stdout) -> None or reason
    outputs: tuple = ()  # files the command writes
    tag: str = ""  # the input's field, for the golden/rational ratio


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- shared checks ------------------------------------------------------------

def gamma_of_ref(ref):
    """Gamma of a builtin or an arrangement file, deconed at the default
    plane when central (as the CLI does)."""
    from arrlab import (CentralArrangement, bounded_complex, build_complex,
                        builtin, decone, default_decone_index,
                        parse_arrangement)
    if ref.startswith("@"):
        arr = builtin(ref[1:])
    else:
        arr = parse_arrangement(Path(ref).read_text(encoding="utf-8"))
    if isinstance(arr, CentralArrangement):
        arr = decone(arr, default_decone_index(arr))
    return bounded_complex(build_complex(arr))


def read_weights(text):
    from arrlab import Corner
    weights = {}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) != 5 or tokens[0] != "corner" or tokens[3] != "=":
            raise ValueError(f"bad weights line {raw!r}")
        corner = Corner(int(tokens[1]), int(tokens[2]))
        if corner in weights:
            raise ValueError(f"duplicate corner in {raw!r}")
        weights[corner] = Fraction(tokens[4])
    return weights


def recheck_weights(gam, text, equality=False):
    """None if ``text`` is a feasible weight system for Gamma."""
    from arrlab import (FeasibilityResult, LPRow, StandardFormLP,
                        build_constraints, check_certificate, verify)
    try:
        weights = read_weights(text)
    except ValueError as exc:
        return str(exc)
    if set(weights) != set(gam.corners):
        return "weights do not cover exactly the corners of Gamma"
    report = verify(gam, weights)
    if not report.ok:
        return f"falk.verify finds {len(report.violations)} violated rows"
    system = build_constraints(gam, equality_asphericity=equality)
    lp = StandardFormLP(len(system.variables),
                        tuple(LPRow(r.coeffs, r.rel, r.rhs)
                              for r in system.rows))
    witness = FeasibilityResult("feasible",
                                witness=tuple(weights[c]
                                              for c in system.variables))
    if not check_certificate(lp, witness):
        return "lpcore.check_certificate rejects the weights"
    return None


def expect_text(expected, what):
    def check(out):
        return None if out == expected else f"{what}: got {out[:80]!r}"
    return check


def check_solve_file(ref, path, gamma):
    def check(out):
        gam = gamma(ref)
        want = (f"FEASIBLE ({len(gam.corners)} corner weights written to "
                f"{path})\n")
        if out != want:
            return f"solve: got {out[:80]!r}"
        return recheck_weights(gam, Path(path).read_text(encoding="utf-8"))
    return check


def report_fields(out):
    return dict(line.split(": ", 1) for line in out.splitlines())


# -- workloads ----------------------------------------------------------------

class Workload:
    """Inputs for one seed, written under ``workdir``, and the cases."""

    name = ""

    def __init__(self, seed, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.inputs = []  # (file name, sha256 of its bytes)
        self._gammas = {}
        self._points = {}

    def gamma(self, ref):
        if ref not in self._gammas:
            self._gammas[ref] = gamma_of_ref(ref)
        return self._gammas[ref]

    def points(self, lines):
        """Oracle intersection points of generated lines, computed on first
        use by a check (so outside set-up and the timed region)."""
        key = tuple(lines)
        if key not in self._points:
            self._points[key] = gen.intersection_points(lines)
        return self._points[key]

    def forget(self):
        """Drop the Gammas and points the checks built; called between
        cases."""
        self._gammas.clear()
        self._points.clear()

    def write(self, name, text):
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        self.inputs.append((name, sha256(text.encode("utf-8"))))
        return str(path)

    def prepare(self):
        raise NotImplementedError

    def case(self, index):
        raise NotImplementedError


def readme_report(root: Path):
    """The flagship report as printed in README.md."""
    lines = (root / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("$ arrlab analyze @icosidodecahedral") + 1
    end = lines.index("```", start)
    return "\n".join(lines[start:end]) + "\n"


class Flagship(Workload):
    """The README commands on the icosidodecahedral arrangement.  The input
    is a builtin, so it is the same for every seed."""

    name = "flagship"

    def prepare(self):
        from arrlab import builtin, serialize_arrangement
        text = serialize_arrangement(builtin(FLAGSHIP[1:]))
        self.inputs = [(FLAGSHIP, sha256(text.encode("utf-8")))]
        self.report = readme_report(self.root)

    def case(self, index):
        weights = str(self.workdir / "flagship-weights.txt")
        svg = str(self.workdir / "flagship.svg")
        gam = self.gamma(FLAGSHIP)

        def check_equality_solve(out):
            if not out.startswith("FEASIBLE\n"):
                return f"solve: got {out[:80]!r}"
            return recheck_weights(gam, out[len("FEASIBLE\n"):],
                                   equality=True)

        def check_render(out):
            if out != f"wrote {svg}\n":
                return f"render: got {out[:80]!r}"
            doc = Path(svg).read_text(encoding="utf-8")
            if (doc.count("<polygon ") != len(gam.faces)
                    or doc.count("<text ") != len(gam.corners)
                    or not doc.endswith("</svg>\n")):
                return "render: figure does not show Gamma and its weights"
            return None

        return [
            Step("analyze", ["analyze", FLAGSHIP],
                 expect_text(self.report, "analyze differs from README")),
            Step("solve", ["falk", "solve", FLAGSHIP, "-o", weights],
                 check_solve_file(FLAGSHIP, weights, self.gamma),
                 outputs=(weights,)),
            Step("solve", ["falk", "solve", FLAGSHIP,
                           "--equality-asphericity", "--minimize-total"],
                 check_equality_solve),
            Step("verify", ["falk", "verify", FLAGSHIP, weights],
                 expect_text("PASS\n", "verify")),
            Step("geometry", ["render", FLAGSHIP, "-o", svg, "--gamma",
                              "--weights", weights],
                 check_render, outputs=(svg,)),
        ]


class Census(Workload):
    """Random rational line arrangements with small integer coefficients,
    each through analyze, falk solve -o W and falk verify W."""

    name = "census"
    LINES = 9
    BOUND = 6
    CORPUS = 48  # more inputs than one run takes

    def prepare(self):
        from arrlab import serialize_arrangement
        rng = random.Random(f"census:{self.seed}")
        self.corpus = []
        for i in range(self.CORPUS):
            lines = gen.random_lines(rng, self.LINES, self.BOUND, False)
            path = self.write(f"census-{i:03d}.txt", serialize_arrangement(
                gen.to_arrangement(lines, False)))
            self.corpus.append((path, lines))

    def case(self, index):
        path, lines = self.corpus[index % self.CORPUS]
        weights = str(self.workdir / "census-weights.txt")

        def check_analyze(out):
            got = report_fields(out)
            pi = gen.line_poincare(len(lines), self.points(lines))
            want = {"input": path, "kind": "line",
                    "hyperplanes": str(self.LINES),
                    "pi": gen.format_poly(pi),
                    "pi_cone": gen.format_poly(gen.cone_poincare(pi)),
                    "falk": "FEASIBLE",
                    "gamma_corners": str(len(self.gamma(path).corners))}
            bad = sorted(k for k in want if got.get(k) != want[k])
            return f"analyze: wrong {', '.join(bad)}" if bad else None

        return [
            Step("analyze", ["analyze", path], check_analyze),
            Step("solve", ["falk", "solve", path, "-o", weights],
                 check_solve_file(path, weights, self.gamma),
                 outputs=(weights,)),
            Step("verify", ["falk", "verify", path, weights],
                 expect_text("PASS\n", "verify")),
        ]


_CORNERS = re.compile(r"^corners \((\d+)\):(.*)$", re.M)
_CENSUS = re.compile(r"(\d+)-gon:(\d+)")


class Geometry(Workload):
    """Random 30-line arrangements over Q and over Q(sqrt5), each also as
    its cone (a central plane file), through the LP-free commands."""

    name = "geometry"
    LINES = 30
    BOUND = 4
    GROUPS = 12  # more groups than one run takes

    def prepare(self):
        from arrlab import cone, serialize_arrangement
        rng = random.Random(f"geometry:{self.seed}")
        self.groups = []
        for g in range(self.GROUPS):
            group = []
            for golden in (False, True):
                field_name = "golden" if golden else "rational"
                lines = gen.random_lines(rng, self.LINES, self.BOUND, golden)
                arr = gen.to_arrangement(lines, golden)
                stem = f"geometry-{g:02d}-{field_name}"
                path = self.write(f"{stem}-lines.txt",
                                  serialize_arrangement(arr))
                group.append((path, field_name, lines, False))
                group.append((self.write(f"{stem}-cone.txt",
                                         serialize_arrangement(cone(arr))),
                              field_name, lines, True))
            self.groups.append(group)

    def case(self, index):
        svg = str(self.workdir / "geometry.svg")
        steps = []
        for path, field_name, lines, coned in self.groups[index % self.GROUPS]:
            steps += [
                Step("geometry", ["poset", path, "--mobius"],
                     self._check_poset(lines, coned), tag=field_name),
                Step("geometry", ["factor", path],
                     self._check_factor(), tag=field_name),
                Step("geometry", ["gamma", path],
                     self._check_gamma(path, lines, coned), tag=field_name),
                Step("geometry", ["falk", "constraints", path],
                     self._check_constraints(path), tag=field_name),
                Step("geometry", ["render", path, "-o", svg, "--gamma"],
                     self._check_render(path, svg), outputs=(svg,),
                     tag=field_name),
            ]
        return steps

    def _check_poset(self, lines, coned):
        def check(out):
            pi = gen.line_poincare(len(lines), self.points(lines))
            if coned:
                pi = gen.cone_poincare(pi)
            pi = gen.format_poly(pi)
            last = out.rstrip("\n").rsplit("\n", 1)[-1]
            return None if last == f"pi: {pi}" else f"poset: got {last!r}"
        return check

    def _check_factor(self):
        def check(out):
            lines = out.splitlines()
            if lines[:1] == ["NOT FACTORED"]:
                return None
            if lines[:1] != ["FACTORED"] or len(lines) != 3:
                return f"factor: got {out[:80]!r}"
            parts = [line.split()[1:] for line in lines[1:]]
            ids = sorted(int(x) for p in parts for x in p)
            if ids != list(range(self.LINES)):
                return "factor: parts do not partition the lines"
            return None
        return check

    def _check_gamma(self, path, lines, coned):
        def check(out):
            gam = self.gamma(path)
            m = _CORNERS.search(out)
            fields = report_fields(out.split("\nlinks:", 1)[0])
            sizes = sum(int(k) * int(n) for k, n in
                        _CENSUS.findall(fields.get("face census", "")))
            if (m is None or int(m.group(1)) != len(gam.corners)
                    or m.group(2).count("(") != len(gam.corners)
                    or sizes != len(gam.corners)
                    or fields.get("faces") != str(len(gam.faces))):
                return "gamma: corner and face counts disagree"
            if (not coned and fields.get("vertices")
                    != str(len(self.points(lines)))):
                return "gamma: vertex count differs from the oracle"
            return None
        return check

    def _check_constraints(self, path):
        def check(out):
            gam = self.gamma(path)
            variables = out.count("\n# x") + out.startswith("# x")
            faces = out.count("# asphericity face ")
            if variables != len(gam.corners) or faces != len(gam.faces):
                return "falk constraints: variable or face rows missing"
            return None
        return check

    def _check_render(self, path, svg):
        def check(out):
            if out != f"wrote {svg}\n":
                return f"render: got {out[:80]!r}"
            doc = Path(svg).read_text(encoding="utf-8")
            if (doc.count("<polygon ") != len(self.gamma(path).faces)
                    or not doc.endswith("</svg>\n")):
                return "render: figure does not show Gamma"
            return None
        return check


WORKLOADS = {w.name: w for w in (Flagship, Census, Geometry)}
