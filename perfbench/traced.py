"""Spans around arrlab's public functions, for the per-layer metrics.

``installed(tracer)`` replaces each function in SPANS with a wrapper that
records a span around the call, in every arrlab module that holds the
function under its name, and puts the originals back on exit.  The traced
run then calls ``arrlab.cli.main`` itself, so the spans follow the
program's own calls: if a later version of ``cli`` or ``falk`` calls
another sequence, the spans show it.  Spans are recorded from outside the
program; a span is named ``<layer>.<function>`` and its layer is the
module.  The whole command is the root span ``cli.command``; its self time
is what the CLI adds around the library (argument parsing, formatting,
file I/O).

The wrappers keep the results that sizes are counted from.  Sizes are
counted after the command's root span has closed, so counting costs no
traced time.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

ROOT = "cli.command"
LAYERS = ("cli", "arrangement", "poset", "factored", "cells", "falk",
          "lpcore", "svgout")
MODULES = ("arrangement", "poset", "factored", "cells", "falk", "lpcore",
           "svgout", "cli")

# function name -> span name; the span's layer is the defining module
SPANS = {
    "builtin": "arrangement.parse",
    "parse_arrangement": "arrangement.parse",
    "cone": "arrangement.decone",
    "decone": "arrangement.decone",
    "default_decone_index": "arrangement.decone",
    "intersection_poset": "poset.intersection_poset",
    "poincare_polynomial": "poset.poincare_polynomial",
    "splits_over_integers": "poset.splits_over_integers",
    "find_factorization": "factored.find_factorization",
    "propagation_trace": "factored.propagation_trace",
    "build_complex": "cells.build_complex",
    "bounded_complex": "cells.bounded_complex",
    "is_simplicial": "cells.is_simplicial",
    "face_census": "cells.face_census",
    "link_census": "cells.link_census",
    "build_constraints": "falk.build_constraints",
    "solve": "falk.solve",
    "verify": "falk.verify",
    "StandardFormLP": "lpcore.standard_form",
    "solve_feasibility": "lpcore.solve_feasibility",
    "check_certificate": "lpcore.check_certificate",
    "render_svg": "svgout.render_svg",
}
# spans whose arguments and result the sizes are counted from
SIZED = {"arrangement.parse", "poset.intersection_poset",
         "cells.bounded_complex", "falk.build_constraints",
         "lpcore.standard_form", "lpcore.solve_feasibility",
         "svgout.render_svg"}

# per-layer timing metrics: metric name -> span name
SPAN_METRICS = {
    "lpcore.solve_feasibility_s": "lpcore.solve_feasibility",
    "lpcore.standard_form_s": "lpcore.standard_form",
    "lpcore.check_certificate_s": "lpcore.check_certificate",
    "falk.build_constraints_s": "falk.build_constraints",
    "falk.verify_s": "falk.verify",
    "cells.build_complex_s": "cells.build_complex",
    "cells.is_simplicial_s": "cells.is_simplicial",
    "cells.bounded_complex_s": "cells.bounded_complex",
    "poset.intersection_poset_s": "poset.intersection_poset",
    "factored.find_factorization_s": "factored.find_factorization",
    "factored.propagation_trace_s": "factored.propagation_trace",
    "arrangement.parse_s": "arrangement.parse",
    "arrangement.decone_s": "arrangement.decone",
    "svgout.render_svg_s": "svgout.render_svg",
}
COUNT_METRICS = (
    "lpcore.vars", "lpcore.rows", "lpcore.eq_rows", "lpcore.nnz",
    "lpcore.witness_max_bits", "falk.circuits", "falk.rows",
    "falk.row_keep_ratio", "cells.gamma_faces", "cells.gamma_corners",
    "poset.flats", "arrangement.hyperplanes", "svgout.bytes",
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    command: int


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    def __init__(self):
        self.spans = []
        self.results = []  # (span name, args, result) of SIZED spans
        self._stack = []
        self.command = 0

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.command)
        if name in SIZED:
            self.results.append((name, args, result))
        return result

    def take_sizes(self):
        """Sizes of the objects the last command built; forgets them."""
        sizes = _sizes(self.results)
        self.results = []
        return sizes


def _wrap(tracer, name, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return traced


@contextmanager
def installed(tracer):
    """Trace every call to a function of SPANS while the block runs."""
    modules = [importlib.import_module(f"arrlab.{m}") for m in MODULES]
    saved = []
    try:
        for fname, span in SPANS.items():
            home = importlib.import_module(f"arrlab.{span.split('.')[0]}")
            original = getattr(home, fname, None)
            if original is None:  # absent from this version of arrlab
                continue
            wrapper = _wrap(tracer, span, original)
            for module in modules:
                if getattr(module, fname, None) is original:
                    saved.append((module, fname, original))
                    setattr(module, fname, wrapper)
        yield
    finally:
        for module, fname, original in saved:
            setattr(module, fname, original)


def _sizes(results):
    from arrlab.falk import enumerate_circuits
    sizes = {}

    def at_least(name, value):
        sizes[name] = max(sizes.get(name, value), value)

    for name, args, result in results:
        if name == "arrangement.parse":
            at_least("arrangement.hyperplanes", len(result))
        elif name == "poset.intersection_poset":
            at_least("poset.flats", len(result.flats))
        elif name == "cells.bounded_complex":
            at_least("cells.gamma_faces", len(result.faces))
            at_least("cells.gamma_corners", len(result.corners))
        elif name == "falk.build_constraints":
            gam = args[0]
            circuits = sum(len(enumerate_circuits(lk)) for lk in gam.links())
            at_least("falk.circuits", circuits)
            at_least("falk.rows", len(result.rows))
            at_least("falk.row_keep_ratio",
                     len(result.rows) / (len(gam.faces) + circuits))
        elif name == "lpcore.standard_form":
            at_least("lpcore.vars", result.nvars)
            at_least("lpcore.rows", len(result.rows))
            at_least("lpcore.eq_rows",
                     sum(1 for r in result.rows if r.rel == "="))
            at_least("lpcore.nnz",
                     sum(1 for r in result.rows for c in r.coeffs if c))
        elif name == "lpcore.solve_feasibility" and result.witness:
            at_least("lpcore.witness_max_bits", max(
                max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in result.witness))
        elif name == "svgout.render_svg":
            at_least("svgout.bytes", len(result.encode("utf-8")))
    return sizes


# -- aggregation --------------------------------------------------------------

def self_times(spans):
    """Per-command self time by span name and by layer.

    Returns {command: (wall, {span name: self s}, {layer: self s})}.  Spans
    of one thread nest without overlap, so the part of a span covered by
    its children is the sum of the children's durations.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out = {}
    for i, s in enumerate(spans):
        _, by_name, by_layer = out.setdefault(s.command, [0.0, {}, {}])
        own = (s.end - s.start) - child_time[i]
        by_name[s.name] = by_name.get(s.name, 0.0) + own
        layer = s.name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own
        if s.parent is None:
            out[s.command][0] = s.end - s.start
    return {k: tuple(v) for k, v in out.items()}


def layer_metrics(spans, sizes_per_command):
    """Per-layer metrics of one traced run.

    Raises RuntimeError if the spans do not account for a command: its
    layer self times must add up to its wall time and the CLI's own share
    must be nonnegative.  This holds for spans that nest on one stack, so
    a violation is a fault in the tracer, not in the program.
    """
    per_command = self_times(spans)
    for cmd, (wall, _, by_layer) in sorted(per_command.items()):
        total = sum(by_layer.values())
        if (abs(total - wall) > 1e-9 * max(1.0, wall)
                or by_layer.get("cli", 0.0) < 0):
            raise RuntimeError(f"spans of command {cmd} do not account for "
                               f"its wall time {wall!r}: {by_layer!r}")

    def median_over(values):
        return statistics.median(values) if values else 0.0

    metrics = {}
    for metric, span_name in SPAN_METRICS.items():
        metrics[metric] = median_over(
            [by_name[span_name] for _, by_name, _ in per_command.values()
             if span_name in by_name])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = median_over(
            [by_layer[layer] for _, _, by_layer in per_command.values()
             if layer in by_layer])
    builds = [sum(1 for s in spans
                  if s.command == cmd and s.name == "cells.build_complex")
              for cmd in per_command]
    metrics["cells.build_complex.calls"] = (sum(builds) / len(builds)
                                            if builds else 0.0)
    for name in COUNT_METRICS:  # the largest instance of the run
        metrics[name] = max((sizes[name] for sizes in sizes_per_command
                             if name in sizes), default=0)
    return metrics
