"""arrlab benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 30 --trace 0

One Python process runs one workload on a single thread.  The client is a
closed loop: each command starts when the previous one has returned.  A
command is ``arrlab.cli.main(argv)`` called in-process with its output
captured; the program sees only arrangement files (written by the
benchmark from the seed) and builtin references.  Output checks run
outside the timed region.

Set-up (import of arrlab, input generation and file writes, one untimed
warm-up command) is repeated SETUPS times, spread over the run, and
reported as the median.  The timed loop takes whole cases, one input
through the workload's command list, until the timed wall time plus a
typical case would pass --seconds; it always takes at least one case.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every command
twice, through ``arrlab.cli.main`` and again through ``arrlab.cli.main``
with the spans of ``traced.py`` installed, checks that both print and
write the same, and prints the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it list every metric
by name with its unit.  A fuller record (seed, a hash of each input,
failures and, when traced, the spans) goes to .perfbench_results/ in the
checkout.

--workload all runs each workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 21
REF_EVERY = 0.5  # seconds of commands between two samples of the machine
REF_REPEAT = 3  # runs of the reference task per sample
REF_S = 0.015  # the reference task's time at the reference speed
# Commands slow down about as the square root of the reference task's time
# when the machine's speed drifts (fit over 35 runs of census and
# flagship), so cases_per_s is scaled by that square root.
REF_POWER = 0.5

# the end-to-end metrics of BENCHMARK.json, reported on every workload
END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def unit_of(name):
    name = name.removesuffix(".wall")
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ratio") or name == "scalar.golden_over_rational":
        return "ratio"
    if name.endswith("_s") or ".p50" in name or ".tail" in name:
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def fresh_import():
    """Import arrlab from the checkout's src/, discarding earlier imports."""
    for name in [m for m in sys.modules
                 if m == "arrlab" or m.startswith("arrlab.")]:
        del sys.modules[name]
    return importlib.import_module("arrlab.cli")


def invoke(fn, argv):
    """Call fn(argv) with stdout and stderr captured.

    Returns (result, stdout, seconds, error); error is the last line of a
    traceback, or None.
    """
    out, err = io.StringIO(), io.StringIO()
    result, error = None, None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            result = fn(argv)
        except SystemExit as exc:
            result = exc.code
        except Exception:  # a crashing command is a failed command
            error = traceback.format_exc().strip().splitlines()[-1]
        elapsed = perf_counter() - start
    return result, out.getvalue(), elapsed, error


def digest(stdout, outputs):
    h = hashlib.sha256(stdout.encode("utf-8"))
    for path in outputs:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def judge(step, rc, stdout, error):
    """None if the command's exit code and output pass its check."""
    if error is not None:
        return error
    if rc != 0:
        return f"exit code {rc}"
    try:
        return step.check(stdout)
    except Exception:  # a check that cannot parse the output fails it
        return traceback.format_exc().strip().splitlines()[-1]


def summary(values):
    """(median, tail, tail percentile) of timing samples.  The tail is the
    highest percentile with at least ten samples beyond it; it is None
    unless that percentile lies above the median (21 samples or more)."""
    if not values:
        return None, None, None
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), None, None
    return (statistics.median(ordered), ordered[n - 11],
            math.floor(100 * (n - 10) / n))


def reference_task():
    """Median seconds, over REF_REPEAT runs, of a fixed piece of exact
    arithmetic of the kind arrlab does: Gaussian elimination of a 20 x 20
    matrix of small integers over Q.  Its time follows the speed of the
    machine, which on a shared host drifts by tens of percent from minute
    to minute; the program's code cannot change it."""
    times = []
    for _ in range(REF_REPEAT):
        gc.collect()
        start = perf_counter()
        n = 20
        m = [[Fraction((3 * i + 5 * j + i * j) % 7 - 3 + 4 * (i == j))
              for j in range(n)] for i in range(n)]
        for c in range(n):
            for r in range(c + 1, n):
                f = m[r][c] / m[c][c]
                if f:
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        times.append(perf_counter() - start)
    return statistics.median(times)


class Run:
    """Outcome of one timed loop."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.samples = {}  # kind -> seconds of passed commands
        self.tagged = {}  # input field -> seconds of passed commands
        self.case_times = []
        self.passed_cases = 0
        self.timed = 0.0
        self.untraced = []
        self.traced = []
        self.sizes = []
        self.refs = []  # the reference task's time at each sample


class SetUp:
    """The workload's set-up, repeated; the latest one is the one in use.

    One set-up is a fresh import of arrlab, the generation and writing of
    the inputs, and one untimed warm-up command.  ``times`` holds how long
    each took, and ``refs`` the median time of the reference task right
    before it.
    """

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.times, self.refs = [], []
        self.cli = self.workload = None

    def __call__(self):
        from workloads import WARMUP, WORKLOADS
        self.refs.append(reference_task())
        gc.collect()  # do not time collecting an earlier set-up's garbage
        start = perf_counter()
        self.cli = fresh_import()
        self.workload = WORKLOADS[self.name](self.seed, self.workdir, ROOT)
        self.workload.prepare()
        rc, _, _, error = invoke(self.cli.main, WARMUP)
        self.times.append(perf_counter() - start)
        if error is not None or rc != 0:
            raise RuntimeError(f"warm-up command failed: {error or rc}")


def measure(setup, seconds, tracer=None, setups=1):
    """The closed loop, on the latest set-up.

    Further set-ups, up to ``setups`` in all, run between cases in step
    with the timed loop's progress, and the rest after it.  The machine's
    speed drifts over seconds, so set-ups spread over the run see the same
    machine as the cases do.  For the same reason the reference task
    samples the machine's speed before the first command, before each
    command that starts REF_EVERY seconds of command time or more after
    the last sample, and after the loop.

    Untraced, step i of case i runs a second time right after the first,
    outside the timed region, while i is below the number of steps in a
    case; both runs must print and write the same bytes.  With a tracer,
    every command runs a second time traced, with the same requirement.
    """
    if tracer is not None:
        import traced
    run = Run()
    index = 0
    next_ref = 0.0
    while (not run.case_times
           or run.timed + statistics.median(run.case_times) <= seconds):
        main, workload = setup.cli.main, setup.workload
        steps = workload.case(index)
        repeat = steps[index] if index < len(steps) else None
        index += 1
        case_time = 0.0
        passed = True
        for step in steps:
            if run.timed + case_time >= next_ref:
                run.refs.append(reference_task())
                next_ref = run.timed + case_time + REF_EVERY
            rc, stdout, elapsed, error = invoke(main, step.argv)
            case_time += elapsed
            reason = judge(step, rc, stdout, error)
            if reason is None and (tracer is not None or step is repeat):
                value = digest(stdout, step.outputs)
                if tracer is None:
                    again = invoke(main, step.argv)
                else:
                    tracer.command = run.attempted
                    with traced.installed(tracer):
                        again = invoke(lambda argv: tracer.call(
                            traced.ROOT, main, argv), step.argv)
                    case_time += again[2]
                    run.untraced.append(elapsed)
                    run.traced.append(again[2])
                    run.sizes.append(tracer.take_sizes())
                if again[3] is not None:
                    reason = f"second run: {again[3]}"
                elif (again[0], again[1]) != (rc, stdout) or digest(
                        again[1], step.outputs) != value:
                    reason = "a second run of the command printed or wrote " \
                             "other bytes"
            run.attempted += 1
            if reason is not None:
                passed = False
                run.failures.append(f"{' '.join(step.argv)}: {reason}")
                continue
            run.samples.setdefault(step.kind, []).append(elapsed)
            run.samples.setdefault("command", []).append(elapsed)
            run.tagged.setdefault(step.tag, []).append(elapsed)
        run.timed += case_time
        run.case_times.append(case_time)
        run.passed_cases += passed
        # inputs do not repeat within a run: drop what the checks built, so
        # that neither the next case nor peak_rss_mb carries it
        workload.forget()
        progress = min(1.0, run.timed / seconds) if seconds else 1.0
        while len(setup.times) < 1 + (setups - 1) * progress:
            setup()
        gc.collect()
    run.refs.append(reference_task())
    while len(setup.times) < setups:
        setup()
    return run


def end_to_end_metrics(run, setup):
    """Every end-to-end metric of the run: name -> (value, note)."""
    ref_s = statistics.median(run.refs)
    metrics = {
        "ref_s": (ref_s, f"n={len(run.refs)}"),
        "setup_s.wall": (statistics.median(setup.times),
                         f"median of {len(setup.times)}"),
        "setup_s": (statistics.median(
            t * REF_S / r for t, r in zip(setup.times, setup.refs)),
            "at the reference speed"),
    }
    for kind in ("command", "analyze", "solve", "verify", "geometry"):
        p50, tail, pct = summary(run.samples.get(kind, []))
        if p50 is None:
            continue
        n = len(run.samples[kind])
        metrics[f"{kind}_s.p50"] = (p50, f"n={n}")
        if tail is not None and kind != "verify":
            metrics[f"{kind}_s.tail"] = (tail, f"p{pct}, n={n}")
    metrics["case_s.p50"] = (statistics.median(run.case_times),
                             f"n={len(run.case_times)}")
    metrics["cases_per_s.wall"] = (run.passed_cases / run.timed,
                                   f"{run.passed_cases} cases")
    metrics["cases_per_s"] = (
        run.passed_cases / run.timed * (ref_s / REF_S) ** REF_POWER,
        "at the reference speed")
    metrics["failed_ratio"] = (len(run.failures) / run.attempted,
                               f"{len(run.failures)} of {run.attempted}")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss / 1024, "ru_maxrss")
    return metrics


def per_layer_metrics(run, tracer):
    import traced
    values = traced.layer_metrics(tracer.spans, run.sizes)
    golden, rational = run.tagged.get("golden"), run.tagged.get("rational")
    values["scalar.golden_over_rational"] = (
        statistics.median(golden) / statistics.median(rational)
        if golden and rational else 0.0)
    values["trace.overhead_ratio"] = (statistics.median(run.traced)
                                      / statistics.median(run.untraced))
    return {name: (value, "") for name, value in values.items()}


def run_workload(name, seed, seconds, trace, workdir):
    """Set up, measure and check one workload; returns the result record."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    setup = SetUp(name, seed, workdir)
    setup()
    tracer = None
    if trace:
        import traced
        tracer = traced.Tracer()
    run = measure(setup, seconds, tracer, 1 if trace else SETUPS)
    if trace:
        metrics = per_layer_metrics(run, tracer)
    else:
        metrics = end_to_end_metrics(run, setup)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "inputs": setup.workload.inputs,
        "attempted": run.attempted,
        "failures": run.failures,
        "setup_seconds": setup.times,
        "setup_ref_seconds": setup.refs,
        "ref_seconds": run.refs,
        "case_seconds": run.case_times,
        "metrics": {k: {"value": v, "unit": unit_of(k), "note": note}
                    for k, (v, note) in metrics.items()},
        "spans": ([[s.name, s.start, s.end, s.parent, s.command]
                   for s in tracer.spans] if trace else []),
    }


def report(record, gated):
    """Print the metric table, then the one-line JSON result."""
    inputs = hashlib.sha256(json.dumps(record["inputs"]).encode()).hexdigest()
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  inputs {len(record['inputs'])} "
          f"(sha256 of list {inputs[:16]})")
    for name, m in record["metrics"].items():
        print(f"  {name:32s} {m['value']:<14.6g} {m['unit']:6s} {m['note']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    failed = len(record["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {k: {"value": record["metrics"][k]["value"],
                        "unit": record["metrics"][k]["unit"]}
                    for k in gated},
    }))


def run_all(args):
    status = 0
    for name in ("flagship", "census", "geometry"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], check=False)
        status = max(status, proc.returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("flagship", "census", "geometry", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("run.py: refusing to run under python -O (it strips the "
              "program's assert checks)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    if not (ROOT / "src" / "arrlab").is_dir():
        print(f"run.py: no arrlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, workdir)
    except (ImportError, OSError, ValueError, RuntimeError) as exc:
        print(f"run.py: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")
    report(record, list(record["metrics"]) if args.trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
