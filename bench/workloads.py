"""The three workloads. Each builds its inputs from the seed in `setup`,
lists one pass of operations in `ops`, keeps what it needs from each pass
in `record`, and checks every output in `check`, outside the timed region.

All calls go through module attributes (`merge.shrink_graph`, not a name
imported from it), so the traced run sees them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import math
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from blockfuse import autodiff, cli, core, cost, fixtures, graph, io, merge, train
from probes import graph_macs

Failure = Tuple[int, str, str]  # (pass index, op label, message)
VERIFY_TOL = 1e-10
LOSS_RTOL = 1e-9
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_train.json"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def _cli(*argv: str) -> None:
    """`blockfuse <argv>` in this process; its console output is dropped."""
    with contextlib.redirect_stdout(stdio.StringIO()):
        code = cli.run(list(argv))
    if code != 0:
        raise RuntimeError(f"blockfuse {argv[0]} exited {code}")


def _load(directory: Path):
    return io.bind_weights(io.load_graph(directory / "graph.json"),
                           io.load_weights(directory / "weights.dswt"))


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _conv_shapes(g) -> List[tuple]:
    return [(n.layer.kernel_h, n.layer.stride, n.layer.groups, n.layer.c_in,
             n.layer.c_out) for n in graph.topological_order(g)
            if isinstance(n.layer, core.ConvLayer)]


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.roles: Dict[int, str] = {}  # id(graph) -> forward_masked role tag

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self, pass_index: int) -> List[Tuple[str, Callable[[], object]]]:
        """One pass: (label, call) pairs, run and timed in order."""
        raise NotImplementedError

    def record(self, pass_index: int, results: Dict[str, object]) -> List[Failure]:
        """Keep what the checks need from one pass's results (label -> value)."""
        raise NotImplementedError

    def check(self) -> List[Failure]:
        """Check every output; runs once, after the timed region."""
        raise NotImplementedError

    def mmac(self) -> float:
        """Multiply-accumulates of one pass, in millions, from `cost_report`
        on the networks the pass writes or runs."""
        raise NotImplementedError

    def summary(self, op_s: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
        """Workload-specific figures (name -> (value, unit)) from the
        median time of each op."""
        raise NotImplementedError


class Compile(Workload):
    """`blockfuse shrink` + `cost` on mbv2-1.4 under each reference mask, then
    `expand` -> `shrink` on mbv2-1.0 merging the new blocks back."""

    name = "compile"
    LABELS = ("DS-A", "DS-B", "DS-C", "DS-D", "DS-E", "DS-F")

    def setup(self) -> None:
        self.src14 = self.workdir / "in" / "mbv2-1.4"
        self.src10 = self.workdir / "in" / "mbv2"
        _cli("gen-fixture", "mbv2-1.4", "--out", str(self.src14), "--seed", str(self.seed))
        _cli("gen-fixture", "mbv2", "--out", str(self.src10), "--seed", str(self.seed))
        self.out = self.workdir / "out"
        self.digests: Dict[str, str] = {}

    def _shrink(self, label: str) -> None:
        out = self.out / label
        _cli("shrink", "--graph", str(self.src14),
             "--mask", str(self.src14 / f"mask_{label}.json"), "--out", str(out))
        _cli("cost", "--graph", str(out), "--out", str(out / "cost.json"))

    def _round_trip(self) -> None:
        expanded = self.out / "expanded"
        _cli("expand", "--graph", str(self.src10), "--out", str(expanded),
             "--seed", str(self.seed))
        with open(expanded / "graph.json", encoding="utf-8") as fh:
            blocks = json.load(fh)["blocks"]
        # the expansion's new blocks are the ones nested inside an original block
        members = [set(b["node_ids"]) for b in blocks]
        mask = [0 if any(m < other for other in members) else 1 for m in members]
        with open(self.out / "roundtrip_mask.json", "w", encoding="utf-8") as fh:
            json.dump(mask, fh)
        _cli("shrink", "--graph", str(expanded), "--mask",
             str(self.out / "roundtrip_mask.json"), "--out", str(self.out / "roundtrip"))

    def ops(self, pass_index):
        return [(label, lambda label=label: self._shrink(label)) for label in self.LABELS] + \
            [("roundtrip", self._round_trip)]

    def record(self, pass_index, results):
        failures = []
        for label in self.LABELS + ("expanded", "roundtrip"):
            digest = _digest(self.out / label)
            first = self.digests.setdefault(label, digest)
            if digest != first:
                failures.append((pass_index, label if label != "expanded" else "roundtrip",
                                 "output differs from the first pass"))
        return failures

    def check(self):
        failures = []
        original = _load(self.src14)
        for label in self.LABELS:
            mask = io.load_mask(self.src14 / f"mask_{label}.json")
            shrunk = _load(self.out / label)
            rep = merge.verify_equivalence(graph.apply_mask_vector(original, mask),
                                           shrunk, 1, VERIFY_TOL, self.seed)
            if not rep.passed:
                failures.append((0, label, f"not equivalent: max abs err {rep.max_abs_err:.3e}"))
            with open(self.out / label / "cost.json", encoding="utf-8") as fh:
                reported = json.load(fh)["total_flops"]
            if reported != graph_macs(shrunk):
                failures.append((0, label, f"cost reports {reported} MACs, "
                                           f"counted {graph_macs(shrunk)}"))
        expanded = _load(self.out / "expanded")
        back = _load(self.out / "roundtrip")
        mask = io.load_mask(self.out / "roundtrip_mask.json")
        if _conv_shapes(back) != _conv_shapes(_load(self.src10)):
            failures.append((0, "roundtrip", "conv shapes not restored"))
        rep = merge.verify_equivalence(graph.apply_mask_vector(expanded, mask), back, 1,
                                       VERIFY_TOL, self.seed)
        if not rep.passed:
            failures.append((0, "roundtrip", f"not equivalent: max abs err {rep.max_abs_err:.3e}"))
        return failures

    def mmac(self):
        total = 0
        for label in self.LABELS:
            with open(self.out / label / "cost.json", encoding="utf-8") as fh:
                total += json.load(fh)["total_flops"]
        return total / 1e6

    def summary(self, op_s):
        weight_bytes = sum((self.out / label / "weights.dswt").stat().st_size
                           for label in self.LABELS)
        return {"compile_s": (sum(op_s.values()), "s"),
                "out_mmac": (self.mmac(), "MMAC"),
                "out_weight_mb": (weight_bytes / 1e6, "MB")}


class Infer(Workload):
    """`execute_graph` on mbv2-1.4 and its DS-F shrink at 224 px, and
    `verify_equivalence` of the DS-A shrink."""

    name = "infer"

    def setup(self) -> None:
        self.net, masks = fixtures.generate("mbv2-1.4", seed=self.seed)
        self.masks = masks
        self.shrunk_a, _ = merge.shrink_graph(self.net, masks["DS-A"])
        self.shrunk_f, _ = merge.shrink_graph(self.net, masks["DS-F"])
        self.masked_a = graph.apply_mask_vector(self.net, masks["DS-A"])
        x = _rng(self.seed, 1).standard_normal((8,) + tuple(self.net.input_dims[1:]))
        self.x8 = core.Tensor.of(x)
        self.x1 = core.Tensor.of(x[:1])
        self.first: Dict[str, np.ndarray] = {}

    def _verify(self):
        rep = merge.verify_equivalence(self.masked_a, self.shrunk_a, 1, VERIFY_TOL, self.seed)
        if not rep.passed:
            raise RuntimeError(f"DS-A verify failed: max abs err {rep.max_abs_err:.3e}")
        return rep

    def ops(self, pass_index):
        return [
            ("orig_n1", lambda: graph.execute_graph(self.net, self.x1).data),
            ("shrunk_n1", lambda: graph.execute_graph(self.shrunk_f, self.x1).data),
            ("orig_n8", lambda: graph.execute_graph(self.net, self.x8).data),
            ("verify", self._verify),
        ]

    def record(self, pass_index, results):
        failures = []
        for label in ("orig_n1", "shrunk_n1", "orig_n8"):
            out = results.get(label)
            if out is None:
                continue
            first = self.first.setdefault(label, out)
            if not np.array_equal(out, first):
                failures.append((pass_index, label, "output differs from the first pass"))
        return failures

    def check(self):
        failures = []
        if "shrunk_n1" in self.first:
            ref = graph.execute_graph(graph.apply_mask_vector(self.net, self.masks["DS-F"]),
                                      self.x1).data
            err = float(np.max(np.abs(self.first["shrunk_n1"] - ref)))
            if not err <= VERIFY_TOL * max(1.0, float(np.max(np.abs(ref)))):
                failures.append((0, "shrunk_n1", f"differs from masked original by {err:.3e}"))
        if "orig_n1" in self.first and "orig_n8" in self.first:
            a, b = self.first["orig_n1"][0], self.first["orig_n8"][0]
            err = float(np.max(np.abs(a - b)))
            if not err <= VERIFY_TOL * max(1.0, float(np.max(np.abs(a)))):
                failures.append((0, "orig_n8", f"sample 0 differs from n=1 run by {err:.3e}"))
        return failures

    def mmac(self):
        orig = cost.cost_report(self.net).total_flops
        return (9 * orig + cost.cost_report(self.shrunk_f).total_flops +
                cost.cost_report(self.masked_a).total_flops +
                cost.cost_report(self.shrunk_a).total_flops) / 1e6

    def summary(self, op_s):
        out = {}
        if "orig_n1" in op_s:
            out["orig_ms"] = (op_s["orig_n1"] * 1e3, "ms")
        if "shrunk_n1" in op_s:
            out["shrunk_ms"] = (op_s["shrunk_n1"] * 1e3, "ms")
        if "orig_n8" in op_s:
            out["batch_ips"] = (8 / op_s["orig_n8"], "1/s")
        if "verify" in op_s:
            out["verify_s"] = (op_s["verify"], "s")
        if "orig_ms" in out and "shrunk_ms" in out:
            out["orig_over_shrunk"] = (out["orig_ms"][0] / out["shrunk_ms"][0], "x")
        return out


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def _kl(student: np.ndarray, teacher: np.ndarray) -> float:
    def logsoftmax(v):
        z = v - v.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    lt, ls = logsoftmax(teacher), logsoftmax(student)
    return float((np.exp(lt) * (lt - ls)).sum() / len(student))


class Train(Workload):
    """One `search_masks` step and one `finetune` step per pass on mbv2-1.0
    at 32 px, batch 16; each step continues from the previous pass's weights."""

    name = "train"
    BATCH = 16
    BATCHES = 4
    K = 8
    DISTILL_ALPHA = 0.5

    def setup(self) -> None:
        self.net = fixtures.mobilenet_v2(1.0, num_classes=2, image_size=32, seed=self.seed)
        self.data = train.synthetic_two_class(self.BATCH * self.BATCHES, 3, 32, seed=self.seed)
        latency = _rng(self.seed, 2).uniform(0.5, 2.0, len(self.net.blocks))
        self.latency = graph.LatencyTable(tuple((i, float(v)) for i, v in enumerate(latency)))
        self.mask = list(fixtures.MBV2_MASKS["DS-A"])
        self.student = merge.insert_free_activations(
            graph.apply_mask_vector(self.net, self.mask), self.mask)
        # a second object for the same network, so the trace can tell teacher calls apart
        self.teacher = replace(self.net)
        self.roles[id(self.teacher)] = "teacher"
        self.teacher_params = autodiff.extract_params(self.teacher)
        self.frozen = train.frozen_shift_params(self.student, self.mask)
        self.search_params = autodiff.extract_params(self.net)
        self.student_params = autodiff.extract_params(self.student)
        self.search_cfg = train.TrainConfig(epochs=1, batch_size=self.BATCH, lr=0.05,
                                            seed=self.seed, decay_strength=1e-3)
        self.finetune_cfg = train.TrainConfig(epochs=1, batch_size=self.BATCH, lr=0.05,
                                              seed=self.seed, distill="on",
                                              distill_alpha=self.DISTILL_ALPHA)
        self.losses: Dict[str, List[float]] = {"search_step": [], "finetune_step": []}

    def _batch(self, pass_index: int):
        i = (pass_index % self.BATCHES) * self.BATCH
        return self.data[0][i:i + self.BATCH], self.data[1][i:i + self.BATCH]

    def _search_step(self, pass_index: int) -> float:
        log: list = []
        _, _, self.search_params = train.search_masks(
            self.net, self.search_params, self._batch(pass_index), self.latency,
            self.search_cfg, self.K, log=log)
        return log[-1]["loss"]

    def _finetune_step(self, pass_index: int) -> float:
        log: list = []
        self.student_params = train.finetune(
            self.student, self.student_params, self._batch(pass_index), self.finetune_cfg,
            teacher=(self.teacher, self.teacher_params), log=log, frozen=self.frozen)
        return log[-1]["loss"]

    def ops(self, pass_index):
        return [("search_step", lambda: self._search_step(pass_index)),
                ("finetune_step", lambda: self._finetune_step(pass_index))]

    def record(self, pass_index, results):
        failures = []
        for label, loss in results.items():
            self.losses[label].append(loss)
            if not math.isfinite(loss):
                failures.append((pass_index, label, f"loss is {loss}"))
        return failures

    def _first_losses(self) -> Dict[str, float]:
        """The first step's losses, recomputed with the reference executor
        (`execute_graph`) and the bench's own loss functions."""
        x, y = self._batch(0)
        state = autodiff.MaskState.fresh(len(self.net.blocks), self.K)
        searched = graph.apply_mask_vector(self.net, [int(v) for v in state.m_hat])

        def logits(g):
            return graph.execute_graph(g, core.Tensor.of(x)).data.reshape(len(x), -1)

        student = logits(self.student)
        return {"search_step": _cross_entropy(logits(searched), y),
                "finetune_step": _cross_entropy(student, y) +
                self.DISTILL_ALPHA * _kl(student, logits(self.net))}

    def check(self):
        failures = []
        reference = {}
        if REFERENCE_FILE.exists():
            with open(REFERENCE_FILE, encoding="utf-8") as fh:
                reference = json.load(fh).get(str(self.seed), {})
        first = self._first_losses()
        for label, losses in self.losses.items():
            if losses and not math.isclose(losses[0], first[label], rel_tol=LOSS_RTOL):
                failures.append((0, label, f"first loss {losses[0]!r} != reference "
                                           f"forward {first[label]!r}"))
            for i, (got, want) in enumerate(zip(losses, reference.get(label, []))):
                if not math.isclose(got, want, rel_tol=LOSS_RTOL):
                    failures.append((i, label, f"loss {got!r} != recorded {want!r}"))
        return failures

    def mmac(self):
        per_sample = 2 * cost.cost_report(self.net).total_flops + \
            cost.cost_report(self.student).total_flops
        return self.BATCH * per_sample / 1e6

    def summary(self, op_s):
        return {f"{label}_s": (op_s[label], "s") for label in op_s}


WORKLOADS = {w.name: w for w in (Compile, Infer, Train)}
