"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

They run each workload for one case (about a minute in all), check that
BENCHMARK.json and the metrics the runs print agree, and check that a
tampered weights file is counted as one failed command, as is a command
whose output changes when it runs a second time.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import run
from workloads import WORKLOADS, Step, read_weights

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class Tiny(unittest.TestCase):
    """One case of each workload; the traced runs also check that layer
    self times add up to each command's wall time."""

    records = {}

    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(dir=run.ROOT, prefix=".selftest-"))
        runs = [(name, 0) for name in WORKLOADS] + [("census", 1),
                                                    ("geometry", 1)]
        for name, trace in runs:
            workdir = cls.tmp / f"{name}-{trace}"
            workdir.mkdir()
            cls.records[name, trace] = run.run_workload(name, 1, 0.0, trace,
                                                        workdir)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_no_failures(self):
        for key, record in self.records.items():
            with self.subTest(run=key):
                self.assertGreater(record["attempted"], 0)
                self.assertEqual(record["failures"], [])
                if not key[1]:
                    self.assertEqual(
                        record["metrics"]["failed_ratio"]["value"], 0)

    def test_spans_follow_the_program(self):
        # census commands: analyze, falk solve -o W, falk verify W; only
        # the CLI's solve command checks the certificate
        spans = self.records["census", 1]["spans"]
        checked = {command for name, _, _, _, command in spans
                   if name == "lpcore.check_certificate"}
        self.assertEqual(checked, {1})
        # the wrappers are gone once the run has ended (the package
        # namespace itself is never wrapped)
        package, cli = sys.modules["arrlab"], sys.modules["arrlab.cli"]
        self.assertIs(cli.build_complex, package.build_complex)
        self.assertIs(cli.solve, package.solve)

    def test_metric_names_and_units(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"]
                    for m in spec["end_to_end"] + spec["per_layer"]}
        self.assertEqual(len(declared),
                         len(spec["end_to_end"]) + len(spec["per_layer"]))
        for name, unit in declared.items():
            self.assertRegex(name, NAME)
            self.assertTrue(unit)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        per_layer = {m["name"] for m in spec["per_layer"]}
        for (name, trace), record in self.records.items():
            metrics = record["metrics"]
            for metric, m in metrics.items():
                self.assertRegex(metric, NAME)
                self.assertTrue(m["unit"])
            if trace:
                self.assertEqual(set(metrics), per_layer)
            else:
                self.assertLessEqual(set(run.END_TO_END), set(metrics))
                for metric in run.END_TO_END:
                    self.assertGreater(metrics[metric]["value"], 0)


class FailedChecks(unittest.TestCase):

    def test_violated_face_row_is_one_failed_command(self):
        tmp = Path(tempfile.mkdtemp(dir=run.ROOT, prefix=".selftest-"))
        try:
            if str(run.ROOT / "src") not in sys.path:
                sys.path.insert(0, str(run.ROOT / "src"))
            setup = run.SetUp("census", 1, tmp)
            setup()
            census = setup.workload
            analyze, solve, verify = census.case(0)
            self.assertEqual(run.invoke(setup.cli.main, solve.argv)[0], 0)
            path = Path(solve.argv[4])
            weights = read_weights(path.read_text())
            face = census.gamma(analyze.argv[1]).faces[0]
            corner = next(c for c in weights if c.face == face.id)
            # the face row allows a sum of at most size - 2
            weights[corner] = Fraction(face.size - 1)
            path.write_text("".join(f"corner {c.vertex} {c.face} = {w}\n"
                                    for c, w in weights.items()))

            class OneVerify:
                def case(self, index):
                    return [verify]

                def forget(self):
                    pass

            setup.workload = OneVerify()
            outcome = run.measure(setup, 0.0)
            self.assertEqual(outcome.attempted, 1)
            self.assertEqual(len(outcome.failures), 1)
            self.assertEqual(outcome.passed_cases, 0)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_output_that_changes_on_a_second_run_fails(self):
        calls = []

        def main(argv):
            calls.append(argv)
            print(f"run {len(calls)}")
            return 0

        class Fake:
            cli = SimpleNamespace(main=main)
            workload = SimpleNamespace(
                case=lambda index: [Step("geometry", ["poset", "x"],
                                         lambda out: None)],
                forget=lambda: None)
            times = [0.0]

        outcome = run.measure(Fake(), 0.0)
        self.assertEqual(len(calls), 2)
        self.assertEqual(outcome.attempted, 1)
        self.assertEqual(len(outcome.failures), 1)


if __name__ == "__main__":
    unittest.main()
