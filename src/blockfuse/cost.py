"""Analytic accounting: FLOPs (MAC convention), FLOPs-matched dense
replacement, latency decay weights, and per-block memory footprint.

One FLOP == one multiply-accumulate; BN / activation / add / pooling count
as zero. This reproduces the usual "0.33 G for MobileNetV2" magnitude.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .core import ConvLayer, Linear, layer_arrays
from .errors import ConfigError, GraphError
from .graph import BlockAnnotation, LatencyTable, NetGraph, block_geometry, validate_graph


@dataclass(frozen=True)
class BlockCost:
    block_id: int
    flops: int
    weight_bytes: int
    peak_activation_bytes: int
    latency_ms: Optional[float] = None


@dataclass(frozen=True)
class CostReport:
    precision_bits: int
    blocks: List[BlockCost]
    total_flops: int
    total_weight_bytes: int
    total_peak_activation_bytes: int
    latency_ms: Optional[float] = None

    def to_json(self) -> dict:
        return {
            "precision_bits": self.precision_bits,
            "blocks": [vars(b) for b in self.blocks],
            "total_flops": self.total_flops,
            "total_weight_bytes": self.total_weight_bytes,
            "total_peak_activation_bytes": self.total_peak_activation_bytes,
            "latency_ms": self.latency_ms,
        }

    def to_table(self) -> str:
        header = f"{'block':>6} {'flops':>14} {'weight_B':>12} {'peak_act_B':>12} {'lat_ms':>8}"
        rows = [header]
        for b in self.blocks:
            lat = f"{b.latency_ms:.3f}" if b.latency_ms is not None else "-"
            rows.append(f"{b.block_id:>6} {b.flops:>14} {b.weight_bytes:>12} "
                        f"{b.peak_activation_bytes:>12} {lat:>8}")
        lat = f"{self.latency_ms:.3f}" if self.latency_ms is not None else "-"
        rows.append(f"{'total':>6} {self.total_flops:>14} {self.total_weight_bytes:>12} "
                    f"{self.total_peak_activation_bytes:>12} {lat:>8}")
        return "\n".join(rows)


def node_flops(layer, out_dims) -> int:
    """Per-sample MAC count of one layer."""
    if isinstance(layer, ConvLayer):
        _, _, oh, ow = out_dims
        return oh * ow * layer.kernel_h * layer.kernel_w * \
            (layer.c_in // layer.groups) * layer.c_out
    if isinstance(layer, Linear):
        out_f, in_f = layer.weight.shape
        return in_f * out_f
    return 0


def _param_count(layer) -> int:
    return sum(arr.size for _, _, arr in layer_arrays(layer))


def _numel(dims) -> int:
    # per-sample activation element count
    _, c, h, w = dims
    return c * h * w


def cost_report(graph: NetGraph, precision_bits: int = 16,
                latency: Optional[LatencyTable] = None) -> CostReport:
    if precision_bits < 1:
        raise ConfigError(f"precision_bits must be >= 1, got {precision_bits}")
    shapes = validate_graph(graph)
    index = graph.node_index
    in_dims_of: Dict[str, tuple] = {}
    for n in graph.nodes:
        in_dims_of[n.node_id] = shapes[n.input_ids[0]] if n.input_ids else graph.input_dims
    pbytes = precision_bits / 8

    lat = block_latencies(latency, graph) if latency is not None else None
    blocks: List[BlockCost] = []
    for block in graph.blocks:
        flops = 0
        weights = 0
        peak = 0
        residual = _numel(in_dims_of[block.node_ids[0]]) \
            if block_geometry(index, block)[2] else 0
        for nid in block.node_ids:
            layer = index[nid].layer
            flops += node_flops(layer, shapes[nid])
            weights += _param_count(layer)
            if isinstance(layer, ConvLayer):
                live = _numel(in_dims_of[nid]) + _numel(shapes[nid]) + residual
                peak = max(peak, live)
        blocks.append(BlockCost(
            block.block_id, flops, int(weights * pbytes), int(peak * pbytes),
            lat[block.block_id] if lat is not None else None,
        ))

    total_flops = sum(node_flops(n.layer, shapes[n.node_id]) for n in graph.nodes)
    total_weights = sum(_param_count(n.layer) for n in graph.nodes)
    total_peak = max((b.peak_activation_bytes for b in blocks), default=0)
    total_lat = sum(lat) if lat is not None else None
    return CostReport(precision_bits, blocks, total_flops,
                      int(total_weights * pbytes), total_peak, total_lat)


@dataclass(frozen=True)
class DenseReplacement:
    """FLOPs-matched dense stand-in for a block: the kernel/stride the block's
    convs compose to, channels scaled so FLOPs match the whole block."""

    kernel: int
    stride: int
    c_in: int
    c_out: int
    alpha: float
    flops: int
    target_flops: int


def flops_matched_dense(graph: NetGraph, block: BlockAnnotation) -> DenseReplacement:
    shapes = validate_graph(graph)
    index = graph.node_index
    entry = index[block.node_ids[0]]
    in_dims = shapes[entry.input_ids[0]] if entry.input_ids else graph.input_dims
    convs = [index[nid].layer for nid in block.node_ids
             if isinstance(index[nid].layer, ConvLayer)]
    if not convs:
        raise GraphError(f"block {block.block_id} contains no convolution")
    c_in, c_out = convs[0].c_in, convs[-1].c_out
    k, s, _ = block_geometry(index, block)
    _, _, h, w = in_dims
    # output resolution of a same-padded k x k conv at the block stride
    oh = (h + 2 * ((k - 1) // 2) - k) // s + 1
    ow = (w + 2 * ((k - 1) // 2) - k) // s + 1
    target = sum(node_flops(index[nid].layer, shapes[nid]) for nid in block.node_ids)
    if target == 0:
        raise GraphError(f"block {block.block_id} has zero FLOPs")
    base = oh * ow * k * k * c_in * c_out
    alpha = math.sqrt(target / base)
    per_pixel = oh * ow * k * k
    # integer channel pairs: for each candidate input width take the two
    # output widths bracketing the exact match, then prefer the pair closest
    # to proportional (alpha-scaled) channels among those within 2%
    candidates = []
    for ci in range(1, max(2 * c_in, 8) + 1):
        ideal = target / (per_pixel * ci)
        for co in {max(1, math.floor(ideal)), max(1, math.ceil(ideal))}:
            flops = per_pixel * ci * co
            rel = abs(flops - target) / target
            dist = abs(ci - alpha * c_in) + abs(co - alpha * c_out)
            candidates.append((rel, dist, ci, co, flops))
    within = [c for c in candidates if c[0] <= 0.02]
    _, _, ci, co, flops = min(within, key=lambda t: (t[1], t[0])) if within \
        else min(candidates)
    return DenseReplacement(k, s, ci, co, alpha, flops, target)


def block_latencies(table: LatencyTable, graph: NetGraph) -> List[float]:
    """The table's latency of each of the graph's blocks, in block id order."""
    lat = table.as_dict()
    try:
        return [lat[b.block_id] for b in graph.blocks]
    except KeyError as exc:
        raise GraphError(f"latency table missing block_id {exc.args[0]}") from None


def latency_decay_weights(table: LatencyTable, graph: NetGraph) -> np.ndarray:
    """Per-block L1 decay weights: latency normalized by the maximum latency."""
    arr = np.asarray(block_latencies(table, graph), dtype=np.float64)
    return arr / arr.max()
