"""Fast checks of the benchmark's own code: span arithmetic, metric names,
and that tracing changes no result of the program it wraps.

    python3 bench/selftest.py
"""
from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import blockfuse  # noqa: E402
from blockfuse import cost, graph, merge  # noqa: E402
from probes import layer_metrics, targets  # noqa: E402
from tracer import Tracer, installed, layer_totals  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")


def valid_name(name: str) -> bool:
    """A metric or workload name: starts with a letter or digit; at most 64
    of letters, digits, '_', '.' and '-'."""
    return bool(NAME_RE.match(name))


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        # root [0,10] > a [1,4] > leaf [2,3]; root > b [5,9]
        tracer = Tracer(ScriptedClock([0, 1, 2, 3, 4, 5, 9, 10]))
        root = tracer.open("root")
        a = tracer.open("a")
        leaf = tracer.open("leaf")
        tracer.close(leaf)
        tracer.close(a)
        b = tracer.open("b")
        tracer.close(b)
        tracer.close(root)
        got = {s.name: s.self_time for s in tracer.spans}
        self.assertEqual(got, {"root": 3, "a": 2, "leaf": 1, "b": 4})
        self.assertEqual(sum(got.values()), tracer.spans[root].duration)
        self.assertEqual([s.parent for s in tracer.spans], [-1, 0, 1, 0])

    def test_hook_time_is_charged_to_no_layer(self):
        tracer = Tracer(ScriptedClock([0, 1, 2, 5]))
        root = tracer.open("root")
        child = tracer.open("child")
        tracer.close(child)
        tracer.exclude(child, 0.5)
        tracer.close(root)
        self.assertEqual(tracer.spans[root].self_time, 5 - 1 - 0.5)

    def test_close_out_of_order_raises(self):
        tracer = Tracer()
        outer = tracer.open("outer")
        tracer.open("inner")
        with self.assertRaises(RuntimeError):
            tracer.close(outer)

    def test_layer_totals_sums_under_every_key(self):
        tracer = Tracer(ScriptedClock([0, 1, 3, 4]))
        root = tracer.open("root", {"n": 2})
        child = tracer.open("child", {"n": 3, "tag": "x", "flag": True})
        tracer.close(child)
        tracer.close(root)
        totals = layer_totals(tracer.spans, lambda s: [s.name, "all"])
        self.assertEqual(totals["all"], {"s": 4, "incl_s": 6, "calls": 2, "n": 5})
        self.assertEqual(totals["child"], {"s": 2, "incl_s": 2, "calls": 1, "n": 3})


class Names(unittest.TestCase):
    def setUp(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            self.spec = json.load(fh)

    def test_valid_name(self):
        for good in ("setup_s", "merge.merge_block.DS-F.b00.s", "9x"):
            self.assertTrue(valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65):
            self.assertFalse(valid_name(bad), bad)

    def test_spec_names_units_and_bounds(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(valid_name(name), name)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))
        self.assertTrue(1 <= spec["run_seconds"] <= 60)


def _toy_run():
    """Shrink, cost, execute and one training step on a toy network."""
    net, _ = blockfuse.generate("toy-irb-3", seed=5)
    mask = [0, 1, 0]
    shrunk, report = merge.shrink_graph(net, mask)
    x = blockfuse.Tensor.of(np.random.default_rng(0).standard_normal(net.input_dims))
    y = graph.execute_graph(shrunk, x).data
    rep = merge.verify_equivalence(graph.apply_mask_vector(net, mask), shrunk, 2, 1e-10, 1)
    data = blockfuse.synthetic_two_class(4, 3, 8, seed=1)
    cfg = blockfuse.TrainConfig(epochs=1, batch_size=4)
    log = []
    params = blockfuse.finetune(net, blockfuse.extract_params(net), data, cfg, log=log)
    return {"y": y, "records": report.to_json(), "verify": rep.to_json(),
            "flops": cost.cost_report(shrunk).total_flops, "log": log,
            "params": {k: v.tolist() for k, v in sorted(params.items())}}


class Wrapping(unittest.TestCase):
    def test_tracing_changes_no_result(self):
        plain = _toy_run()
        tracer = Tracer()
        with installed(tracer, targets({})):
            traced = _toy_run()
        self.assertTrue(np.array_equal(plain.pop("y"), traced.pop("y")))
        self.assertEqual(plain, traced)
        self.assertGreater(len(tracer.spans), 0)

    def test_counts_repeat_and_originals_return(self):
        before = {name: getattr(mod, attr) for name, mod, attr in (
            ("merge.validate_graph", merge, "validate_graph"),
            ("graph.execute_layer", graph, "execute_layer"),
            ("blockfuse.shrink_graph", blockfuse, "shrink_graph"))}
        calls = []
        for _ in range(2):
            tracer = Tracer()
            with installed(tracer, targets({})):
                self.assertIsNot(merge.validate_graph, before["merge.validate_graph"])
                self.assertIsNot(graph.execute_layer, before["graph.execute_layer"])
                root = tracer.open("bench.pass")
                _toy_run()
                tracer.close(root)
            metrics = layer_metrics(tracer, [])
            calls.append({k: v for k, v in metrics.items()
                          if k.endswith((".calls", ".mmac", ".nonzero", ".total"))})
        self.assertEqual(calls[0], calls[1])
        self.assertGreater(calls[0]["merge.merge_block.calls"], 0)
        self.assertGreater(calls[0]["core.execute_layer.conv_dw.calls"], 0)
        self.assertIs(merge.validate_graph, before["merge.validate_graph"])
        self.assertIs(graph.execute_layer, before["graph.execute_layer"])
        self.assertIs(blockfuse.shrink_graph, before["blockfuse.shrink_graph"])


if __name__ == "__main__":
    unittest.main()
