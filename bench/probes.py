"""What the traced run records: the blockfuse functions it wraps, the counts
taken at each, and how spans become per-layer metrics."""
from __future__ import annotations

import os
import statistics
from typing import Dict, List

import numpy as np

from blockfuse import autodiff, cli, core, cost, expand, fixtures, graph, io, merge, train
from tracer import Span, Target, Tracer, layer_totals

CONV_KINDS = ("conv_dw", "conv_pw", "conv_kxk")
_KIND_OF = {core.BatchNormLayer: "bn", core.Activation: "act", core.Add: "add",
            core.AvgPool: "avgpool", core.Linear: "linear", core.Flatten: "flatten"}


def layer_kind(layer) -> str:
    if isinstance(layer, core.ConvLayer):
        if layer.is_depthwise:
            return "conv_dw"
        if layer.kernel_h == layer.kernel_w == 1 and layer.groups == 1:
            return "conv_pw"
        return "conv_kxk"
    return _KIND_OF[type(layer)]


def node_macs(layer, out_dims) -> int:
    """Multiply-accumulates of one layer over a whole batch (the bench's own
    count, kept apart from `cost.node_flops`)."""
    n, _, h, w = out_dims
    if isinstance(layer, core.ConvLayer):
        return n * h * w * layer.c_out * layer.kernel_h * layer.kernel_w * \
            (layer.c_in // layer.groups)
    if isinstance(layer, core.Linear):
        return n * layer.weight.size
    return 0


def graph_macs(g) -> int:
    """Per-sample MACs of a graph."""
    shapes = graph.validate_graph(g)
    total = sum(node_macs(node.layer, shapes[node.node_id]) for node in g.nodes)
    return total // g.input_dims[0]


def _compose_mmac(first, second) -> dict:
    # one (c_out2 x c_in2) @ (c_in2 x c_in1*k1*k1) product per tap of the second kernel
    taps = second.kernel_h * second.kernel_w
    return {"mmac": taps * second.c_out * second.c_in * first.c_in *
            first.kernel_h * first.kernel_w / 1e6}


def _lift_after(result, layer, channels=None) -> dict:
    if isinstance(layer, core.ConvLayer) and layer.groups == 1:
        return {}  # returned as is: nothing was lifted
    return {"nonzero": int(np.count_nonzero(result.weights)),
            "total": int(result.weights.size)}


def _bytes_after(result, obj, path) -> dict:
    return {"bytes": os.path.getsize(path)}


def targets(roles: Dict[int, str]) -> List[Target]:
    """Every traced function. `roles` maps id(graph) to the role tag of
    `forward_masked` calls on that graph (default 'student')."""
    return [
        Target(cli, "run", before=lambda argv=None: {"command": argv[0]}),
        Target(io, "load_graph"),
        Target(io, "load_weights"),
        Target(io, "bind_weights"),
        Target(io, "save_graph", after=_bytes_after),
        Target(io, "save_weights", after=_bytes_after),
        Target(graph, "validate_graph"),
        Target(graph, "apply_mask_vector"),
        Target(graph, "topological_order"),
        Target(graph, "execute_graph"),
        Target(core, "execute_layer",
               before=lambda layer, *ins: {"kind": layer_kind(layer)},
               after=lambda out, layer, *ins: {
                   "mmac": node_macs(layer, out.dims) / 1e6}),
        Target(merge, "shrink_graph"),
        Target(merge, "merge_block",
               before=lambda g, block, *a, **k: {"block": f"b{block.block_id:02d}"}),
        Target(merge, "compose_convs", after=lambda out, first, second:
               _compose_mmac(first, second)),
        Target(merge, "lift_to_dense", after=_lift_after),
        Target(merge, "fold_bn_into_conv"),
        Target(merge, "absorb_residual"),
        Target(merge, "verify_equivalence"),
        Target(autodiff, "forward_masked",
               before=lambda g, *a, **k: {"role": roles.get(id(g), "student")}),
        Target(autodiff, "backward"),
        Target(train, "search_masks"),
        Target(train, "finetune"),
        Target(train.SGD, "step"),
        Target(train, "cross_entropy"),
        Target(train, "distill_divergence"),
        Target(train, "synthetic_two_class"),
        Target(fixtures, "generate"),
        Target(fixtures, "mobilenet_v2"),
        Target(expand, "expand_for_training"),
        Target(cost, "cost_report"),
    ]


def _op_label(tracer: Tracer, span: Span) -> str:
    while span.parent >= 0:
        span = tracer.spans[span.parent]
        if span.name == "bench.op":
            return span.attrs["label"]
    return "setup"


def span_keys(tracer: Tracer, span: Span) -> List[str]:
    """The per-layer keys one span adds its self time and counts to."""
    name = span.name
    if name == "core.execute_layer":
        return [name, f"{name}.{span.attrs['kind']}"]
    if name == "autodiff.forward_masked":
        return [name, f"{name}.{span.attrs['role']}"]
    if name == "merge.merge_block":
        label = _op_label(tracer, span)
        return [name, f"{name}.{label}", f"{name}.{label}.{span.attrs['block']}"]
    return [name]


def _median(values) -> float:
    # the low median is an observed value, so counts stay whole numbers
    return statistics.median_low(values) if values else 0.0


def layer_metrics(tracer: Tracer, untraced_pass_s: List[float]) -> Dict[str, float]:
    """Per-layer numbers: each key's median per traced pass plus its median
    per set-up; '.s' is self time, '.calls' the call count, other suffixes
    are counts summed at the spans."""
    root = []
    for i, span in enumerate(tracer.spans):
        root.append(i if span.parent < 0 else root[span.parent])
    groups: Dict[int, List[Span]] = {}
    for i, span in enumerate(tracer.spans):
        groups.setdefault(root[i], []).append(span)
    passes = [i for i in groups if tracer.spans[i].name == "bench.pass"]
    setups = [i for i in groups if tracer.spans[i].name == "bench.setup"]

    def totals(ids):
        return [layer_totals(groups[i], lambda s: span_keys(tracer, s)) for i in ids]

    pass_totals, setup_totals = totals(passes), totals(setups)
    fields = {(k, f) for t in pass_totals + setup_totals for k, acc in t.items() for f in acc}
    out: Dict[str, float] = {}
    for k, f in sorted(fields):
        out[f"{k}.{f}"] = (_median([t.get(k, {}).get(f, 0) for t in pass_totals]) +
                           _median([t.get(k, {}).get(f, 0) for t in setup_totals]))
    for kind in CONV_KINDS:
        k = f"core.execute_layer.{kind}"
        s = out.get(f"{k}.s", 0.0)
        out[f"{k}.mmac_per_s"] = out.get(f"{k}.mmac", 0.0) / s if s > 0 else 0.0
    total = out.get("merge.lift_to_dense.total", 0)
    out["merge.lift_to_dense.density"] = \
        out.get("merge.lift_to_dense.nonzero", 0) / total if total else 0.0
    io_bytes = [out.get(f"io.{f}.bytes", 0) for f in ("save_graph", "save_weights")]
    out["io.bytes_written"] = sum(io_bytes)

    shares, walls = [], []
    for i in passes:
        wall = tracer.spans[i].duration
        layer_self = sum(s.self_time for s in groups[i] if not s.name.startswith("bench."))
        shares.append(layer_self / wall)
        walls.append(wall)
    out["trace.layer_share"] = _median(shares)
    out["trace.pass_s"] = _median(walls)
    out["trace.overhead_s"] = _median(walls) - _median(untraced_pass_s) \
        if untraced_pass_s else 0.0
    return out
