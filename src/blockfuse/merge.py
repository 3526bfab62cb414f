"""Exact merge algebra: BN folding, dense lifting, kernel composition,
residual absorption, whole-block collapse, and numerical equivalence checks.

A mask-0 block is affine, f(x) = L(x) + f(0). Its merged conv has the
kernel-only composition L of the chain and the bias f(0), the chain run on
zeros at the block's input dims: a (c_out,) bias when f(0) is spatially
constant, a (c_out, oh, ow) bias map otherwise (a bias or BN shift ahead of
a zero-padded conv changes the border). Merges are therefore exact at every
output position whatever the biases, BN shifts and running means.

Fold order: each BN folds into the conv before it while that kernel is small,
and only then does the chain compose. Every layer composes as a conv: a BN that
opens the chain as the depthwise 1x1 conv of its scale (`bn_to_conv`), an
average pool as the depthwise conv with every tap 1/k^2 (`core.pool_conv`).

Composition (cross-correlation orientation, stride-aware): tap (p, q) of the
chain's conv i lands at (p, q) * s_0 ... s_{i-1} in the merged kernel, so two
convs merge to size (d2 - 1) * s1 + d1, stride s1 * s2 and padding p1 + s1 * p2.
Merged tap u is the sum, over every way to reach u with one tap per conv, of the
product of those taps: a dense tap multiplies as a matrix, a depthwise tap scales
rows, and only a general grouped conv is lifted to dense. One routine (`_compose`)
builds every kernel this way, path by path through one scratch per inner conv, so
no hidden-width kernel (an IRB's dw o pw1) is ever held. L is inexact only where a
zero-padded conv follows a kernel wider than 1x1, and `merge_chain` raises on such
a chain.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

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
    layer_out_dims,
    pool_conv,
)
from .cost import node_flops
from .errors import BlockfuseError, ConfigError, MergeError, ShapeError
from .graph import (
    BlockAnnotation,
    NetGraph,
    Node,
    apply_mask_vector,
    block_geometry,
    execute_graph,
    merged_blocks,
    reindex_blocks,
    splice,
    validate_graph,
)


def fold_bn_into_conv(conv: ConvLayer, bn: BatchNormLayer) -> ConvLayer:
    """Absorb an inference-mode BN into the preceding conv's kernel and bias."""
    if bn.channels != conv.c_out:
        raise MergeError(f"bn channels {bn.channels} != conv c_out {conv.c_out}")
    scale, shift = bn.scale_shift()
    weights = conv.weights * scale[:, None, None, None]
    if conv.bias is None:
        bias = shift
    else:  # per channel: along the first axis of a (c_out, oh, ow) bias map too
        per_channel = (-1,) + (1,) * (conv.bias.ndim - 1)
        bias = shift.reshape(per_channel) + conv.bias * scale.reshape(per_channel)
    return replace(conv, weights=weights, bias=bias)


def bn_to_conv(bn: BatchNormLayer) -> ConvLayer:
    """Express a BN as the equivalent depthwise 1x1 conv."""
    scale, shift = bn.scale_shift()
    c = bn.channels
    return ConvLayer(1, 1, 1, 0, c, c, c, scale[:, None, None, None], bias=shift)


def lift_to_dense(layer: ConvLayer) -> ConvLayer:
    """Rewrite a grouped conv as a dense (groups=1) conv."""
    if layer.groups == 1:
        return layer
    cg_in = layer.c_in // layer.groups
    cg_out = layer.c_out // layer.groups
    weights = np.zeros((layer.c_out, layer.c_in, layer.kernel_h, layer.kernel_w))
    for g in range(layer.groups):
        weights[g * cg_out : (g + 1) * cg_out, g * cg_in : (g + 1) * cg_in] = \
            layer.weights[g * cg_out : (g + 1) * cg_out]
    return replace(layer, groups=1, weights=weights)


def compose_convs(first: ConvLayer, second: ConvLayer) -> ConvLayer:
    """The bias-free dense conv whose kernel is conv(second) o conv(first), for any
    groups and kernel shapes (`_compose`). Biases are ignored. The result is exact at
    every position unless `second` is padded and `first` is wider than 1x1; then
    only the interior agrees."""
    if first.c_out != second.c_in:
        raise MergeError(
            f"channel mismatch: first c_out {first.c_out} != second c_in {second.c_in}"
        )
    return _compose([first, second])


def _compose(convs: List[ConvLayer]) -> ConvLayer:
    """The bias-free dense conv whose kernel is the chain's. Tap (p, q) of conv i
    lands at (p, q) * s_0 ... s_{i-1}, and merged tap u is the sum, over every way
    to reach u with one tap per conv, of the product of those taps (`_add_paths`)."""
    steps = np.cumprod([1] + [conv.stride for conv in convs]).tolist()
    size = [1 + sum(s * (conv.weights.shape[axis] - 1) for s, conv in zip(steps, convs))
            for axis in (2, 3)]
    levels = []  # per conv, each tap with its offset in the merged kernel
    for s, conv in zip(steps, convs):  # a dense tap contiguous, as BLAS takes it
        taps = conv.weights[:, 0].transpose(1, 2, 0) if conv.is_depthwise else \
            np.ascontiguousarray((conv if conv.groups == 1 else lift_to_dense(conv))
                                 .weights.transpose(2, 3, 0, 1))
        levels.append([((s * p, s * q), taps[p, q]) for p, q in np.ndindex(taps.shape[:2])])
    c_in, c_out = convs[0].c_in, convs[-1].c_out
    merged, written = np.empty((c_out, c_in, *size)), np.zeros(size, bool)
    scratch = [None] + [np.empty((conv.c_out, c_in)) for conv in convs[1:-1]]
    _add_paths(levels, scratch, merged.transpose(2, 3, 0, 1), written)
    merged[:, :, ~written] = 0  # taps that no path reaches
    return ConvLayer(*size, steps[-1], sum(s * conv.padding for s, conv in zip(steps, convs)),
                     1, c_in, c_out, merged)


def _add_paths(levels, scratch, taps, written, i=0, prod=None, at=(0, 0)) -> None:
    """Add into the merged `taps` every path on from conv i, whose earlier taps made
    `prod` (None for none) and reached `at`. Paths share their common prefix's product
    in its conv's scratch, and the first path to a merged tap writes straight into it."""
    for (dp, dq), tap in levels[i]:
        u = (at[0] + dp, at[1] + dq)
        if i + 1 < len(levels):
            _add_paths(levels, scratch, taps, written, i + 1, _times(tap, prod, scratch[i]), u)
        elif written[u]:
            taps[u] += _times(tap, prod)
        else:  # `out=` writes a product there; the first conv's tap is copied in
            taps[u] = _times(tap, prod, taps[u])
            written[u] = True


def _times(tap: np.ndarray, prod: Optional[np.ndarray], out=None) -> np.ndarray:
    """`tap @ prod` for a dense tap (a matrix) or a depthwise one (a diagonal, which
    scales rows); a `prod` of None is the identity, and then `out` is not written."""
    if prod is None:
        return tap if tap.ndim == 2 else np.diag(tap)
    if tap.ndim == 2:
        return np.matmul(tap, prod, out=out)
    return np.multiply(tap[:, None], prod, out=out)


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


def _shifts(layer) -> bool:
    """Whether the layer maps zero to nonzero."""
    if isinstance(layer, BatchNormLayer):
        return bool(np.any(layer.scale_shift()[1]))
    return isinstance(layer, ConvLayer) and layer.bias is not None and \
        bool(np.any(layer.bias))


def _zero_response(layers: List[Tuple[str, object]], in_dims) -> np.ndarray:
    """The chain's output on one zero input of `in_dims`, as (c, oh, ow).

    Layers before the first one with a bias or BN shift map zero to zero,
    so the run starts there."""
    dims = (1,) + tuple(in_dims[1:])
    for i, (_, layer) in enumerate(layers):
        if _shifts(layer):
            out = Tensor(np.zeros(dims))
            for _, later in layers[i:]:
                out = execute_layer(later, out)
            return out.data[0]
        dims = layer_out_dims(layer, dims)
    return np.zeros(dims[1:])


def merge_chain(layers: List[Tuple[str, object]], has_residual: bool,
                in_dims) -> ConvLayer:
    """Merge an ordered chain of linear layers (convs/BNs/avgpools, with
    Identity activations interspersed) that reads `in_dims` into one dense
    conv, exact at every output position."""
    live_acts = [nid for nid, layer in layers
                 if isinstance(layer, Activation) and layer.kind != ActivationKind.IDENTITY]
    if live_acts:
        raise MergeError(f"chain is not mergeable: activations still present at {live_acts}")
    # each BN folds into the conv before it while that kernel is small; a BN that
    # opens the chain and a pool compose as the depthwise convs they are
    convs: List[ConvLayer] = []
    for nid, layer in layers:
        if isinstance(layer, BatchNormLayer) and convs:
            convs[-1] = fold_bn_into_conv(convs[-1], layer)
            continue
        if isinstance(layer, BatchNormLayer):
            conv = bn_to_conv(layer)
        elif isinstance(layer, AvgPool):
            conv = pool_conv(layer, convs[-1].c_out if convs else in_dims[1])
        elif isinstance(layer, ConvLayer):
            conv = layer
        elif isinstance(layer, Activation):
            continue
        else:
            raise MergeError(f"layer {type(layer).__name__} at {nid!r} is not linear")
        if conv.padding and any(max(c.kernel_h, c.kernel_w) > 1 for c in convs):
            raise MergeError(f"padded conv at {nid!r} follows a kernel wider than 1x1: "
                             "no single conv is exact at the border")
        convs.append(conv)
    if not convs:
        raise MergeError("empty chain")
    # the merged kernel is L, and the biases it drops are f(0), added back at the end;
    # the folded convs go before the zero-input run
    acc = _compose(convs)
    del convs
    if has_residual:
        acc = absorb_residual(acc)
    bias = _zero_response(layers, in_dims)
    if np.all(bias == bias[:, :1, :1]):  # spatially constant
        bias = bias[:, 0, 0].copy()
    return replace(acc, bias=bias)


def merge_block(graph: NetGraph, block: BlockAnnotation, in_dims) -> ConvLayer:
    """Collapse one annotated block that reads `in_dims`: fold BNs, compose
    the convs, and absorb the skip if present."""
    index = graph.node_index
    chain = [(nid, index[nid].layer) for nid in block.node_ids
             if not isinstance(index[nid].layer, Add)]
    return merge_chain(chain, block_geometry(index, block)[2], in_dims)


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


@dataclass(frozen=True)
class ShrinkReport:
    records: Tuple[BlockShrinkRecord, ...]

    def to_json(self) -> list:
        return [vars(r) for r in self.records]


def shrink_graph(graph: NetGraph, mask,
                 free_activation: Optional[ActivationKind] = None
                 ) -> Tuple[NetGraph, ShrinkReport]:
    """Replace every mask-0 block by its merged dense conv.

    The mask is applied first, so mask-0 block activations are treated as
    Identity whether or not the caller already replaced them. Blocks merge in
    reverse network order, so a nested block merges before the block that holds
    it; that merge drops the nested block, and the blocks left are renumbered
    0..B'-1. The report keeps the input's block ids, and so do merged node ids
    (`block<id>_merged`)."""
    shapes = validate_graph(graph)
    mask = list(mask)
    graph = apply_mask_vector(graph, mask)

    index = graph.node_index
    records: List[BlockShrinkRecord] = []
    for b in graph.blocks:
        convs = [index[nid].layer for nid in b.node_ids
                 if isinstance(index[nid].layer, ConvLayer)]
        flops = sum(node_flops(index[nid].layer, shapes[nid]) for nid in b.node_ids)
        records.append(BlockShrinkRecord(b.block_id, False, *block_geometry(index, b)[:2],
                                         convs[0].c_in, convs[-1].c_out, flops, flops))
    work = graph
    for block in reversed(merged_blocks(graph, mask)):
        entry = index[block.node_ids[0]]
        in_dims = shapes[entry.input_ids[0]] if entry.input_ids else graph.input_dims
        cur = work.blocks[block.block_id]
        conv = merge_block(work, cur, in_dims)
        work = _splice_merged(work, cur, conv, free_activation)
        records[block.block_id] = BlockShrinkRecord(
            block.block_id, True, conv.kernel_h, conv.stride, conv.c_in, conv.c_out,
            records[block.block_id].flops_before,
            node_flops(conv, layer_out_dims(conv, in_dims)),
        )
    return reindex_blocks(work), ShrinkReport(tuple(records))


def _splice_merged(graph: NetGraph, block: BlockAnnotation, conv: ConvLayer,
                   free_activation: Optional[ActivationKind]) -> NetGraph:
    conv_id = f"block{block.block_id}_merged"
    new_nodes = [Node(conv_id, conv, graph.node(block.node_ids[0]).input_ids)]
    if free_activation is not None:
        new_nodes.append(Node(f"block{block.block_id}_act", Activation(free_activation),
                              (conv_id,)))
    work = splice(graph, block.node_ids, new_nodes)
    merged = BlockAnnotation(block.block_id, "plain_conv",
                             tuple(n.node_id for n in new_nodes), ())
    return _put_block(work, merged)


def _put_block(graph: NetGraph, block: BlockAnnotation) -> NetGraph:
    i = block.block_id
    return replace(graph, blocks=graph.blocks[:i] + (block,) + graph.blocks[i + 1:])


def insert_free_activations(graph: NetGraph, mask) -> NetGraph:
    """Append a free ReLU6 after every mask-0 (to-be-merged) block.

    The new node lies outside the block's own annotation, so the block stays
    mergeable and the activation survives the merge as a post-conv op. A block
    that holds the masked one (an expanded graph's nested block) lists the new
    node after the nested exit, so it can merge only with its activations kept.
    """
    work = graph
    for block in merged_blocks(graph, mask):
        own = work.blocks[block.block_id]
        exit_id = own.node_ids[-1]
        act = Node(f"block{block.block_id}_free_act", Activation(ActivationKind.RELU6),
                   (exit_id,))
        work = _put_block(splice(work, (exit_id,), [work.node(exit_id), act]), own)
    validate_graph(work)
    return work


@dataclass(frozen=True)
class EquivalenceReport:
    n_samples: int
    max_abs_err: float
    max_rel_err: float
    passed: bool
    tol: float
    worst_sample: int  # the sample and flat output index of max_abs_err
    worst_index: int

    def to_json(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "pass": self.passed,
            "tol": self.tol,
            "worst_sample": self.worst_sample,
            "worst_index": self.worst_index,
        }


def verify_equivalence(g_before: NetGraph, g_after: NetGraph, n_samples: int,
                       tol: float, seed: int, precision: str = "f64") -> EquivalenceReport:
    """Evaluate both graphs on seeded standard-normal inputs; the check passes
    when the largest absolute difference over all outputs is within tol. At least
    one sample is required: with none the check would pass on no evidence."""
    if tuple(g_before.input_dims) != tuple(g_after.input_dims):
        raise ShapeError(
            f"input dims differ: {g_before.input_dims} vs {g_after.input_dims}"
        )
    if n_samples < 1:
        raise BlockfuseError(f"n_samples must be >= 1, got {n_samples}")
    if not 0 <= tol < np.inf:  # NaN fails this too, and JSON has no NaN or inf
        raise ConfigError(f"tol must be a finite number >= 0, got {tol}")
    rng = np.random.Generator(np.random.PCG64(seed))
    max_abs = 0.0
    max_rel = 0.0
    worst = (0, 0)
    for sample in range(n_samples):
        x = Tensor.of(rng.standard_normal(g_before.input_dims), precision=precision)
        a = execute_graph(g_before, x).data
        b = execute_graph(g_after, x).data
        if a.shape != b.shape:
            raise ShapeError(f"output dims differ: {a.shape} vs {b.shape}")
        diff = np.abs(a - b)
        index = int(diff.argmax())  # the first NaN, if there is one
        # NaN never passes; neither NaN nor inf reads as a finite number
        err = float(np.nan_to_num(diff.flat[index], nan=np.inf, posinf=np.inf))
        if err > max_abs:
            max_abs, worst = err, (sample, index)
        # relative to the sample's largest output, so an exact 0 stays meaningful
        scale = max(float(np.abs(a).max()), np.finfo(a.dtype).tiny)
        rel = err / scale  # NaN when `a` holds a NaN or inf
        max_rel = max(max_rel, float(np.nan_to_num(rel, nan=np.inf, posinf=np.inf)))
    return EquivalenceReport(n_samples, max_abs, max_rel, max_abs <= tol, tol, *worst)
