"""Expand-then-shrink rewrite: temporarily over-parameterize a network by
turning convolutions into inverted residual blocks that merge back exactly.

Rules:
  * plain 3x3 dense convs become IRB(e=6, k=3) with the conv's stride,
    skipping the first two convs and the last conv of the network;
  * in a network that is already made of inverted residual blocks, the
    first pointwise conv of every other block (even block index) becomes a
    nested IRB(e=6, k=1).

New convs are bias-free and new BNs are identities. With Identity
activations each new block merges (exactly, as every block does) into one
conv with the replaced layer's kernel, stride and channels, so shrinking the
new blocks recovers the original per-layer architecture.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np

from .core import (
    Activation,
    ActivationKind,
    Add,
    BatchNormLayer,
    ConvLayer,
)
from .errors import GraphError
from .graph import BlockAnnotation, NetGraph, Node, topological_order, validate_graph

EXPAND_RATIO = 6


def _init_conv(rng, c_out, c_in_per_group, k) -> np.ndarray:
    # gain-1 init: stable magnitudes even with all new activations masked off
    fan_in = c_in_per_group * k * k
    return rng.standard_normal((c_out, c_in_per_group, k, k)) * np.sqrt(1.0 / fan_in)


def _identity_bn(c: int) -> BatchNormLayer:
    # gamma=1, beta=0, mean=0, var=1: folds into the preceding conv with zero bias
    return BatchNormLayer(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))


def _irb_nodes(prefix: str, inputs: Tuple[str, ...], c_in: int, c_out: int,
               dw_kernel: int, stride: int, residual: bool, rng,
               act=ActivationKind.RELU6) -> Tuple[List[Node], BlockAnnotation]:
    hidden = EXPAND_RATIO * c_in
    ids = [f"{prefix}_pw1", f"{prefix}_bn1", f"{prefix}_act1", f"{prefix}_dw",
           f"{prefix}_bn2", f"{prefix}_act2", f"{prefix}_pw2", f"{prefix}_bn3"]
    pad = (dw_kernel - 1) // 2
    nodes = [
        Node(ids[0], ConvLayer(1, 1, 1, 0, 1, c_in, hidden,
                               _init_conv(rng, hidden, c_in, 1)), inputs),
        Node(ids[1], _identity_bn(hidden), (ids[0],)),
        Node(ids[2], Activation(act), (ids[1],)),
        Node(ids[3], ConvLayer(dw_kernel, dw_kernel, stride, pad, hidden, hidden,
                               hidden, _init_conv(rng, hidden, 1, dw_kernel)), (ids[2],)),
        Node(ids[4], _identity_bn(hidden), (ids[3],)),
        Node(ids[5], Activation(act), (ids[4],)),
        Node(ids[6], ConvLayer(1, 1, 1, 0, 1, hidden, c_out,
                               _init_conv(rng, c_out, hidden, 1)), (ids[5],)),
        Node(ids[7], _identity_bn(c_out), (ids[6],)),
    ]
    if residual:
        add_id = f"{prefix}_add"
        src = inputs[0] if inputs else None
        add_inputs = (ids[7], src) if src is not None else (ids[7],)
        nodes.append(Node(add_id, Add(), add_inputs))
        ids.append(add_id)
    annotation = BlockAnnotation(
        block_id=-1, kind="inverted_residual", node_ids=tuple(ids),
        expand_ratio=float(EXPAND_RATIO), dw_kernel=dw_kernel, stride=stride,
        has_residual=residual, act_node_ids=(ids[2], ids[5]),
    )
    return nodes, annotation


def expand_for_training(graph: NetGraph, seed: int = 0) -> NetGraph:
    """Apply the expansion rules; new blocks get fresh seeded weights and
    their own mask slots; block ids are re-indexed in network order."""
    validate_graph(graph)
    rng = np.random.Generator(np.random.PCG64(seed))
    irb_blocks = [b for b in graph.blocks if b.kind == "inverted_residual"]
    if irb_blocks:
        return _expand_irb_graph(graph, irb_blocks, rng)
    return _expand_plain_graph(graph, rng)


def _expand_plain_graph(graph: NetGraph, rng) -> NetGraph:
    order = topological_order(graph)
    conv_ids = [n.node_id for n in order
                if isinstance(n.layer, ConvLayer) and n.layer.groups == 1
                and n.layer.kernel_h == 3 and n.layer.kernel_w == 3]
    eligible = conv_ids[2:-1]
    if not eligible:
        raise GraphError(
            f"graph has only {len(conv_ids)} eligible 3x3 convs; nothing to "
            "expand after excluding the first two and the last"
        )
    nodes: List[Node] = []
    new_blocks: List[BlockAnnotation] = []
    tail_of: Dict[str, str] = {}  # original conv id -> new block tail id
    for n in graph.nodes:
        inputs = tuple(tail_of.get(ref, ref) for ref in n.input_ids)
        if n.node_id in eligible:
            conv = n.layer
            residual = conv.stride == 1 and conv.c_in == conv.c_out
            irb_nodes, annotation = _irb_nodes(
                f"{n.node_id}_exp", inputs, conv.c_in, conv.c_out,
                3, conv.stride, residual, rng)
            nodes.extend(irb_nodes)
            new_blocks.append(annotation)
            tail_of[n.node_id] = irb_nodes[-1].node_id
        else:
            nodes.append(replace(n, input_ids=inputs))
    out = replace(graph, nodes=tuple(nodes),
                  blocks=tuple(list(graph.blocks) + new_blocks))
    return _reindex_blocks(out)


def _expand_irb_graph(graph: NetGraph, irb_blocks, rng) -> NetGraph:
    targets = [b for b in sorted(irb_blocks, key=lambda b: b.block_id)
               if b.block_id % 2 == 0]
    index = graph.node_index
    nodes = list(graph.nodes)
    blocks = list(graph.blocks)
    new_blocks: List[BlockAnnotation] = []
    for block in targets:
        pw1_id = block.node_ids[0]
        pw1 = index[pw1_id].layer
        if not isinstance(pw1, ConvLayer) or pw1.kernel_h != 1:
            raise GraphError(f"block {block.block_id}: entry is not a pointwise conv")
        entry_inputs = index[pw1_id].input_ids
        irb_nodes, annotation = _irb_nodes(
            f"{pw1_id}_exp", entry_inputs, pw1.c_in, pw1.c_out, 1, pw1.stride,
            False, rng)
        tail = irb_nodes[-1].node_id
        new_ids = tuple(n.node_id for n in irb_nodes)
        rebuilt: List[Node] = []
        for n in nodes:
            if n.node_id == pw1_id:
                rebuilt.extend(irb_nodes)
                continue
            rebuilt.append(replace(n, input_ids=tuple(
                tail if ref == pw1_id else ref for ref in n.input_ids)))
        nodes = rebuilt
        for i, b in enumerate(blocks):
            if pw1_id in b.node_ids:
                ids: List[str] = []
                for nid in b.node_ids:
                    if nid == pw1_id:
                        ids.extend(new_ids)
                    else:
                        ids.append(nid)
                blocks[i] = replace(b, node_ids=tuple(ids))
        new_blocks.append(annotation)
    out = replace(graph, nodes=tuple(nodes), blocks=tuple(blocks + new_blocks))
    return _reindex_blocks(out)


def _reindex_blocks(graph: NetGraph) -> NetGraph:
    order = {n.node_id: i for i, n in enumerate(topological_order(graph))}
    ranked = sorted(graph.blocks,
                    key=lambda b: (order[b.node_ids[0]], -len(b.node_ids)))
    blocks = tuple(replace(b, block_id=i) for i, b in enumerate(ranked))
    out = replace(graph, blocks=blocks)
    validate_graph(out)
    return out
