"""Exact merge algebra: BN folding, dense lifting, kernel composition,
residual absorption, whole-block collapse, and numerical equivalence checks.

Composition of two convs (cross-correlation orientation, stride-aware):
merged kernel size d = (d2 - 1) * s1 + d1, stride s1 * s2, padding
p1 + s1 * p2, with second-kernel taps spaced s1 apart in the merged kernel.
A depthwise second conv composes directly, as a per-output-channel scale of
the first kernel at each tap; the dense lift is only for average pools,
general grouped convs and a chain that opens with a depthwise conv.
Merging a biased conv through a zero-padded successor is interior-exact
only; `boundary_exact` flags exactly that case.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import (
    Activation,
    ActivationKind,
    Add,
    AvgPool,
    BatchNormLayer,
    ConvLayer,
    Tensor,
    execute_layer,
)
from .cost import node_flops
from .errors import MergeError, ShapeError
from .graph import (
    BlockAnnotation,
    NetGraph,
    Node,
    apply_mask_vector,
    execute_graph,
    topological_order,
    validate_graph,
)


def fold_bn_into_conv(conv: ConvLayer, bn: BatchNormLayer) -> ConvLayer:
    """Absorb an inference-mode BN into the preceding conv's kernel and bias."""
    if bn.channels != conv.c_out:
        raise MergeError(f"bn channels {bn.channels} != conv c_out {conv.c_out}")
    scale, shift = bn.scale_shift()
    weights = conv.weights * scale[:, None, None, None]
    bias = shift if conv.bias is None else shift + conv.bias * scale
    return replace(conv, weights=weights, bias=bias)


def bn_to_conv(bn: BatchNormLayer) -> ConvLayer:
    """Express a BN as an equivalent 1x1 dense conv."""
    scale, shift = bn.scale_shift()
    c = bn.channels
    weights = np.zeros((c, c, 1, 1))
    weights[np.arange(c), np.arange(c), 0, 0] = scale
    return ConvLayer(1, 1, 1, 0, 1, c, c, weights, bias=shift.copy())


def lift_to_dense(layer, channels: Optional[int] = None) -> ConvLayer:
    """Rewrite a grouped conv or average pool as a dense (groups=1) conv."""
    if isinstance(layer, AvgPool):
        if channels is None:
            raise MergeError("lifting an AvgPool requires the channel count")
        k = layer.kernel
        weights = np.zeros((channels, channels, k, k))
        weights[np.arange(channels), np.arange(channels)] = 1.0 / (k * k)
        return ConvLayer(k, k, layer.stride, 0, 1, channels, channels, weights)
    if not isinstance(layer, ConvLayer):
        raise MergeError(f"cannot lift {type(layer).__name__} to a dense conv")
    if layer.groups == 1:
        return layer
    cg_in = layer.c_in // layer.groups
    cg_out = layer.c_out // layer.groups
    weights = np.zeros((layer.c_out, layer.c_in, layer.kernel_h, layer.kernel_w))
    for g in range(layer.groups):
        weights[g * cg_out : (g + 1) * cg_out, g * cg_in : (g + 1) * cg_in] = \
            layer.weights[g * cg_out : (g + 1) * cg_out]
    return replace(layer, groups=1, weights=weights)


@dataclass(frozen=True)
class MergedConv:
    conv: ConvLayer
    provenance: Tuple[str, ...] = ()
    boundary_exact: bool = True
    free_activation: Optional[ActivationKind] = None


def _is_depthwise(conv: ConvLayer) -> bool:
    return conv.groups == conv.c_in == conv.c_out


def compose_convs(first: ConvLayer, second: ConvLayer) -> MergedConv:
    """Collapse conv(second) o conv(first) into one conv.

    `first` must be dense; `second` may be dense or depthwise."""
    depthwise = _is_depthwise(second)
    if first.groups != 1 or (second.groups != 1 and not depthwise):
        raise MergeError("compose_convs requires a dense first conv and a dense or "
                         "depthwise second conv; lift grouped convs first")
    if first.c_out != second.c_in:
        raise MergeError(
            f"channel mismatch: first c_out {first.c_out} != second c_in {second.c_in}"
        )
    if first.kernel_h != first.kernel_w or second.kernel_h != second.kernel_w:
        raise MergeError("compose_convs supports square kernels only")
    d1, d2, s1 = first.kernel_h, second.kernel_h, first.stride
    d = (d2 - 1) * s1 + d1
    merged = np.zeros((second.c_out, first.c_in, d, d))
    w1, w2 = first.weights, second.weights
    for p in range(d2):
        for q in range(d2):
            if depthwise:
                tap = w2[:, 0, p, q][:, None, None, None] * w1
            else:
                tap = np.tensordot(w2[:, :, p, q], w1, axes=(1, 0))
            merged[:, :, p * s1 : p * s1 + d1, q * s1 : q * s1 + d1] += tap
    bias = None
    if first.bias is not None or second.bias is not None:
        bias = np.zeros(second.c_out)
        if second.bias is not None:
            bias += second.bias
        if first.bias is not None:
            bias += (w2[:, 0].sum((1, 2)) * first.bias if depthwise
                     else np.einsum("tspq,s->t", w2, first.bias))
    first_biased = first.bias is not None and np.any(first.bias != 0)
    conv = ConvLayer(d, d, s1 * second.stride, first.padding + s1 * second.padding,
                     1, first.c_in, second.c_out, merged, bias)
    # zero-padding the intermediate commutes with the first conv only when it
    # is an unbiased pointwise conv; otherwise a padded successor is
    # interior-exact only
    exact = second.padding == 0 or (first.kernel_h == 1 and not first_biased)
    return MergedConv(conv, boundary_exact=exact)


def absorb_residual(conv: ConvLayer) -> ConvLayer:
    """Fold an identity skip into the conv: +1 on the center diagonal taps."""
    problems = []
    if conv.stride != 1:
        problems.append(f"stride must be 1, got {conv.stride}")
    if conv.c_in != conv.c_out:
        problems.append(f"c_in {conv.c_in} != c_out {conv.c_out}")
    if conv.kernel_h % 2 == 0 or conv.kernel_h != conv.kernel_w:
        problems.append(f"kernel must be square and odd, got "
                        f"{conv.kernel_h}x{conv.kernel_w}")
    elif conv.padding != (conv.kernel_h - 1) // 2:
        problems.append(f"padding {conv.padding} != (kernel-1)/2")
    if problems:
        raise MergeError("cannot absorb residual: " + "; ".join(problems))
    center = (conv.kernel_h - 1) // 2
    weights = conv.weights.copy()
    weights[np.arange(conv.c_in), np.arange(conv.c_in), center, center] += 1.0
    return replace(conv, weights=weights)


def merge_chain(layers: List[Tuple[str, object]], has_residual: bool,
                act_node_ids: Tuple[str, ...] = ()) -> MergedConv:
    """Merge an ordered chain of linear layers (convs/BNs/avgpools, with
    Identity activations interspersed) into one dense conv."""
    live_acts = [nid for nid, layer in layers
                 if isinstance(layer, Activation) and layer.kind != ActivationKind.IDENTITY]
    if live_acts:
        raise MergeError(f"chain is not mergeable: activations still present at {live_acts}")
    acc: Optional[ConvLayer] = None
    boundary_exact = True
    provenance = []
    for nid, layer in layers:
        provenance.append(nid)
        if isinstance(layer, Activation):
            continue
        if isinstance(layer, BatchNormLayer):
            if acc is None:
                nxt = bn_to_conv(layer)
            else:
                acc = fold_bn_into_conv(acc, layer)
                continue
        elif isinstance(layer, AvgPool):
            if acc is None:
                raise MergeError("chain must not start with an average pool")
            nxt = lift_to_dense(layer, channels=acc.c_out)
        elif isinstance(layer, ConvLayer):
            # compose_convs takes a depthwise conv as its second argument only
            nxt = layer if acc is not None and _is_depthwise(layer) \
                else lift_to_dense(layer)
        else:
            raise MergeError(f"layer {type(layer).__name__} at {nid!r} is not linear")
        if acc is None:
            acc = nxt
        else:
            step = compose_convs(acc, nxt)
            acc = step.conv
            boundary_exact = boundary_exact and step.boundary_exact
    if acc is None:
        raise MergeError("empty chain")
    if has_residual:
        acc = absorb_residual(acc)
    return MergedConv(acc, tuple(provenance), boundary_exact)


def block_chain(graph: NetGraph, block: BlockAnnotation) -> List[Tuple[str, object]]:
    index = graph.node_index
    return [(nid, index[nid].layer) for nid in block.node_ids
            if not isinstance(index[nid].layer, Add)]


def merge_block(graph: NetGraph, block: BlockAnnotation,
                free_activation: Optional[ActivationKind] = None) -> MergedConv:
    """Collapse one annotated block: fold BNs, compose the convs, and absorb
    the skip if present."""
    merged = merge_chain(block_chain(graph, block), block.has_residual)
    if block.kind == "inverted_residual":
        if merged.conv.kernel_h != block.dw_kernel:
            raise MergeError(
                f"block {block.block_id}: merged kernel {merged.conv.kernel_h} "
                f"!= depthwise kernel {block.dw_kernel}"
            )
        if merged.conv.stride != block.stride:
            raise MergeError(
                f"block {block.block_id}: merged stride {merged.conv.stride} "
                f"!= block stride {block.stride}"
            )
    return replace(merged, free_activation=free_activation)


@dataclass(frozen=True)
class BlockShrinkRecord:
    block_id: int
    merged: bool
    kernel: int
    stride: int
    c_in: int
    c_out: int
    flops_before: int
    flops_after: int
    boundary_exact: bool


@dataclass(frozen=True)
class ShrinkReport:
    records: Tuple[BlockShrinkRecord, ...]

    @property
    def max_merged_kernel(self) -> int:
        merged = [r.kernel for r in self.records if r.merged]
        return max(merged, default=1)

    @property
    def all_boundary_exact(self) -> bool:
        return all(r.boundary_exact for r in self.records if r.merged)

    def to_json(self) -> list:
        return [vars(r) for r in self.records]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")


def _containment_order(blocks) -> List[BlockAnnotation]:
    # inner (nested) blocks must merge before the blocks that contain them
    def depth(b):
        return sum(1 for other in blocks
                   if other is not b and set(b.node_ids) < set(other.node_ids))
    return sorted(blocks, key=lambda b: (-depth(b), b.block_id))


def shrink_graph(graph: NetGraph, mask,
                 free_activation: Optional[ActivationKind] = None
                 ) -> Tuple[NetGraph, ShrinkReport]:
    """Replace every mask-0 block by its merged dense conv.

    The mask is applied first, so mask-0 block activations are treated as
    Identity whether or not the caller already replaced them."""
    shapes = validate_graph(graph)
    mask = list(mask)
    if len(mask) != len(graph.blocks):
        raise MergeError(f"mask length {len(mask)} != block count {len(graph.blocks)}")
    graph = apply_mask_vector(graph, mask)

    index = {n.node_id: n for n in graph.nodes}
    before_flops = {
        b.block_id: sum(node_flops(index[nid].layer, shapes[nid]) for nid in b.node_ids)
        for b in graph.blocks
    }
    in_dims = {}
    for b in graph.blocks:
        entry = index[b.node_ids[0]]
        in_dims[b.block_id] = shapes[entry.input_ids[0]] if entry.input_ids \
            else graph.input_dims

    work = graph
    records: Dict[int, BlockShrinkRecord] = {}
    for block in _containment_order(graph.blocks):
        bit = mask[block.block_id]
        cur = next(b for b in work.blocks if b.block_id == block.block_id)
        chain_convs = [index[nid].layer for nid in block.node_ids
                       if isinstance(index[nid].layer, ConvLayer)]
        if bit == 1:
            records[block.block_id] = BlockShrinkRecord(
                block.block_id, False, cur.dw_kernel, cur.stride,
                chain_convs[0].c_in, chain_convs[-1].c_out,
                before_flops[block.block_id], before_flops[block.block_id], True,
            )
            continue
        merged = merge_block(work, cur, free_activation)
        work = _splice_merged(work, cur, merged, free_activation)
        conv = merged.conv
        _, _, h, w = in_dims[block.block_id]
        oh = (h + 2 * conv.padding - conv.kernel_h) // conv.stride + 1
        ow = (w + 2 * conv.padding - conv.kernel_w) // conv.stride + 1
        records[block.block_id] = BlockShrinkRecord(
            block.block_id, True, conv.kernel_h, conv.stride, conv.c_in, conv.c_out,
            before_flops[block.block_id],
            oh * ow * conv.kernel_h * conv.kernel_w * conv.c_in * conv.c_out,
            merged.boundary_exact,
        )
    report = ShrinkReport(tuple(records[b.block_id]
                                for b in sorted(graph.blocks, key=lambda b: b.block_id)))
    validate_graph(work)
    return work, report


def _splice_merged(graph: NetGraph, block: BlockAnnotation, merged: MergedConv,
                   free_activation: Optional[ActivationKind]) -> NetGraph:
    index = graph.node_index
    members = set(block.node_ids)
    entry = index[block.node_ids[0]]
    external = tuple(i for i in entry.input_ids if i not in members)
    exit_id = block.node_ids[-1]

    conv_id = f"block{block.block_id}_merged"
    new_nodes: List[Node] = [Node(conv_id, merged.conv, external)]
    tail_id = conv_id
    if free_activation is not None:
        act_id = f"block{block.block_id}_act"
        new_nodes.append(Node(act_id, Activation(free_activation), (conv_id,)))
        tail_id = act_id

    nodes: List[Node] = []
    inserted = False
    for n in graph.nodes:
        if n.node_id in members:
            if not inserted:
                nodes.extend(new_nodes)
                inserted = True
            continue
        inputs = tuple(tail_id if ref == exit_id else ref for ref in n.input_ids)
        nodes.append(replace(n, input_ids=inputs))

    new_ids = tuple(n.node_id for n in new_nodes)
    blocks: List[BlockAnnotation] = []
    for b in graph.blocks:
        if b.block_id == block.block_id:
            blocks.append(BlockAnnotation(
                b.block_id, "plain_conv", new_ids, 1.0, merged.conv.kernel_h,
                merged.conv.stride, False, (),
            ))
        elif members & set(b.node_ids):
            # containing block: replace the merged span with the new nodes
            ids: List[str] = []
            for nid in b.node_ids:
                if nid in members:
                    if not any(i in ids for i in new_ids):
                        ids.extend(new_ids)
                else:
                    ids.append(nid)
            blocks.append(replace(b, node_ids=tuple(ids)))
        else:
            blocks.append(b)
    return replace(graph, nodes=tuple(nodes), blocks=tuple(blocks))


def insert_free_activations(graph: NetGraph, mask,
                            kind: ActivationKind = ActivationKind.RELU6) -> NetGraph:
    """Append a free activation after every mask-0 (to-be-merged) block.

    The new nodes live outside the block annotations, so the blocks stay
    mergeable and the activation survives the merge as a post-conv op.
    """
    mask = list(mask)
    if len(mask) != len(graph.blocks):
        raise MergeError(f"mask length {len(mask)} != block count {len(graph.blocks)}")
    work = graph
    for block in sorted(graph.blocks, key=lambda b: b.block_id):
        if mask[block.block_id] == 1:
            continue
        exit_id = block.node_ids[-1]
        act_id = f"block{block.block_id}_free_act"
        nodes: List[Node] = []
        for n in work.nodes:
            nodes.append(replace(n, input_ids=tuple(
                act_id if ref == exit_id and n.node_id not in block.node_ids else ref
                for ref in n.input_ids)))
            if n.node_id == exit_id:
                nodes.append(Node(act_id, Activation(kind), (exit_id,)))
        work = replace(work, nodes=tuple(nodes))
    validate_graph(work)
    return work


@dataclass(frozen=True)
class EquivalenceReport:
    n_samples: int
    max_abs_err: float
    max_rel_err: float
    interior_max_abs_err: float
    passed: bool
    tol: float
    border: int

    def to_json(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "interior_max_abs_err": self.interior_max_abs_err,
            "pass": self.passed,
            "tol": self.tol,
            "border": self.border,
        }


def verify_equivalence(g_before: NetGraph, g_after: NetGraph, n_samples: int,
                       tol: float, seed: int, border: int = 0,
                       require_full: bool = True,
                       precision: str = "f64") -> EquivalenceReport:
    """Evaluate both graphs on seeded standard-normal inputs and compare.

    `border` output pixels are excluded from the interior error (width
    ceil((d-1)/2) for merged kernel size d). The check passes when the
    interior error is within tol, and additionally the full-tensor error
    when `require_full` (i.e. every merged block was boundary-exact).
    """
    if tuple(g_before.input_dims) != tuple(g_after.input_dims):
        raise ShapeError(
            f"input dims differ: {g_before.input_dims} vs {g_after.input_dims}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    max_abs = 0.0
    max_rel = 0.0
    interior_max = 0.0
    for _ in range(n_samples):
        x = Tensor.of(rng.standard_normal(g_before.input_dims), precision=precision)
        a = execute_graph(g_before, x).data
        b = execute_graph(g_after, x).data
        if a.shape != b.shape:
            raise ShapeError(f"output dims differ: {a.shape} vs {b.shape}")
        diff = np.abs(a - b)
        max_abs = max(max_abs, float(diff.max()))
        denom = np.maximum(np.abs(a), 1e-300)
        max_rel = max(max_rel, float((diff / denom).max()))
        h, w = a.shape[2], a.shape[3]
        bh = min(border, max(0, (h - 1) // 2))
        bw = min(border, max(0, (w - 1) // 2))
        inner = diff[:, :, bh : h - bh or None, bw : w - bw or None]
        interior_max = max(interior_max, float(inner.max()))
    passed = interior_max <= tol and (max_abs <= tol or not require_full)
    return EquivalenceReport(n_samples, max_abs, max_rel, interior_max, passed,
                             tol, border)
