"""Tests of the benchmark's own machinery (not of kakeyalab).

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import sys
import tempfile
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from layers import METRIC_UNITS, layer_metrics, targets  # noqa: E402
from tracer import Span, Tracer, cli_module, outermost, self_times  # noqa: E402
from workloads import WORKLOADS, Step, Workload, _q3_area  # noqa: E402


class CliModuleTest(unittest.TestCase):
    def test_import_as_binds_the_function(self):
        import kakeyalab.cli.main as shadowed

        self.assertIsInstance(shadowed, types.FunctionType)
        self.assertFalse(hasattr(shadowed, "dispatch"))

    def test_cli_module_is_the_submodule(self):
        cli = cli_module()
        self.assertIsInstance(cli, types.ModuleType)
        self.assertIs(cli, sys.modules["kakeyalab.cli.main"])
        self.assertTrue(callable(cli.dispatch))


class TracerTest(unittest.TestCase):
    def test_installed_wraps_then_restores(self):
        wanted = targets()
        before = [vars(t.owner)[t.attr] for t in wanted]
        with Tracer().installed(wanted):
            during = [vars(t.owner)[t.attr] for t in wanted]
        after = [vars(t.owner)[t.attr] for t in wanted]
        self.assertTrue(all(a is not b for a, b in zip(before, during)))
        self.assertTrue(all(a is b for a, b in zip(before, after)))

    def test_restores_after_an_exception(self):
        cli = cli_module()
        original = cli.dispatch
        with self.assertRaises(RuntimeError):
            with Tracer().installed(targets()):
                raise RuntimeError
        self.assertIs(cli.dispatch, original)

    def test_self_times_subtract_children(self):
        spans = [Span("a", 0.0, 10.0, None, "s"), Span("b", 1.0, 4.0, 0, "s"),
                 Span("c", 2.0, 3.0, 1, "s"), Span("b", 5.0, 6.0, 0, "s")]
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_outermost_skips_nested_same_name(self):
        spans = [Span("e", 0.0, 4.0, None, "s"), Span("e", 1.0, 2.0, 0, "s"),
                 Span("e", 5.0, 6.0, None, "s")]
        self.assertEqual([s.start for s in outermost(spans, "e")], [0.0, 5.0])


class AreaTest(unittest.TestCase):
    def test_rational_triangle(self):
        # (0,0), (1,0), (0,1): area 1/2
        tri = [[0, 1, 0, 1, 0, 1, 0, 1], [1, 1, 0, 1, 0, 1, 0, 1],
               [0, 1, 0, 1, 1, 1, 0, 1]]
        self.assertEqual(_q3_area([tri]), (1, 2, 0, 1))

    def test_sqrt3_triangle(self):
        # base [-1/sqrt3, 1/sqrt3] at y=0, apex (0, 1): area sqrt3/3
        tri = [[0, 1, -1, 3, 0, 1, 0, 1], [0, 1, 1, 3, 0, 1, 0, 1],
               [0, 1, 0, 1, 1, 1, 0, 1]]
        self.assertEqual(_q3_area([tri]), (0, 1, 1, 3))


class TracedPassTest(unittest.TestCase):
    def test_traced_pass_matches_untraced(self):
        small = Workload("small", "", lambda cli, where, seed: {}, (
            Step("perron_s", lambda inp, out, seed: [
                "perron", "--m", "2", "--out", str(out / "t.json"),
                "--svg", str(out / "t.svg"), "--check"],
                lambda inp, out, stdout: []),
        ))
        cli = cli_module()
        with tempfile.TemporaryDirectory() as tmp:
            base = run.run_pass(cli, small, {}, Path(tmp) / "u", 0)
            runs = []
            for k in range(2):
                tracer = Tracer()
                with tracer.installed(targets()):
                    res = run.run_pass(cli, small, {}, Path(tmp) / f"t{k}", 0, tracer)
                runs.append((tracer, res))
        run.check_traced(small, base, runs)
        self.assertEqual([r.problems for _, r in runs], [{}, {}])
        self.assertEqual(base.artifacts, runs[0][1].artifacts)
        metrics = layer_metrics(runs[0][0].spans, runs[0][1].bytes_out)
        self.assertEqual(metrics["perron.directions"], 721)
        self.assertGreater(metrics["exactgeom.overlay_calls"], 0)
        self.assertGreater(metrics["cli.emit_s"], 0.0)
        self.assertEqual(metrics["tubelab.tubes"], 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_lists_what_run_reports(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        steps = {f"step.{s.metric}": "s" for w in WORKLOADS.values() for s in w.steps}
        want = dict(METRIC_UNITS, **{"trace.overhead_s": "s"}, **steps)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, want)


if __name__ == "__main__":
    unittest.main()
