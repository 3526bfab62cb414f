"""Expand-then-shrink rewrite: temporarily over-parameterize a network by
turning convolutions into inverted residual blocks that merge back exactly.

Rules (each target conv is spliced out for one `graph.irb` block):
  * plain 3x3 dense convs become IRB(e=6, k=3) with the conv's stride and a
    skip wherever the conv keeps its shape, skipping the first two convs and
    the last conv of the network. A conv that is a whole plain_conv block (as
    `shrink_graph` leaves a merged block) is expanded and its block replaced;
    a conv inside any other block is skipped;
  * in a network that is already made of inverted residual blocks, the
    first pointwise conv of every other block (even block index) becomes a
    nested IRB(e=6, k=1) without a skip, which the containing block lists
    in the conv's place.

New convs are bias-free and new BNs are identities. With Identity
activations each new block merges (exactly, as every block does) into one
conv with the replaced layer's kernel, stride and channels, so shrinking the
new blocks recovers the original per-layer architecture. A free activation
after a nested block (`merge.insert_free_activations`) sits inside the
containing block, which must then keep its own activations.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import BatchNormLayer, ConvLayer
from .errors import GraphError
from .graph import (
    NetGraph,
    gain1_conv_init,
    irb,
    reindex_blocks,
    splice,
    validate_graph,
)

EXPAND_RATIO = 6


def _identity_bn(c: int) -> BatchNormLayer:
    # gamma=1, beta=0, mean=0, var=1: folds into the preceding conv with zero bias
    return BatchNormLayer(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))


def expand_for_training(graph: NetGraph, seed: int = 0) -> NetGraph:
    """Apply the expansion rules; new blocks get fresh seeded weights and
    their own mask slots; block ids are re-indexed in network order."""
    validate_graph(graph)
    init_conv = gain1_conv_init(np.random.Generator(np.random.PCG64(seed)))

    irb_blocks = [b for b in graph.blocks if b.kind == "inverted_residual"]
    if irb_blocks:
        targets, kernel = [b.node_ids[0] for b in irb_blocks if b.block_id % 2 == 0], 1
    else:
        conv_ids = [n.node_id for n in graph.nodes
                    if isinstance(n.layer, ConvLayer) and n.layer.groups == 1
                    and n.layer.kernel_h == 3 and n.layer.kernel_w == 3]
        # a conv inside a block is a target only when it is the whole of a
        # plain_conv block (a merged block), which the new block then replaces
        held = {nid for b in graph.blocks if b.kind != "plain_conv" or len(b.node_ids) > 1
                for nid in b.node_ids}
        targets, kernel = [c for c in conv_ids[2:-1] if c not in held], 3
        if not targets:
            raise GraphError(
                f"graph has only {len(conv_ids)} eligible 3x3 convs; nothing to expand "
                "after excluding the first two, the last and those inside a block"
            )
    new_blocks = []
    for conv_id in targets:
        node = graph.node(conv_id)
        conv = node.layer
        if kernel == 1 and (not isinstance(conv, ConvLayer) or conv.kernel_h != 1):
            raise GraphError(f"{conv_id!r}: block entry is not a pointwise conv")
        # a nested pointwise block never takes a skip
        residual = kernel == 3 and conv.stride == 1 and conv.c_in == conv.c_out
        nodes, block = irb(f"{conv_id}_exp", node.input_ids, conv.c_in, conv.c_out,
                           EXPAND_RATIO, kernel, conv.stride, residual, -1,
                           init_conv, _identity_bn)
        graph = splice(replace(graph, blocks=tuple(
            b for b in graph.blocks if b.node_ids != (conv_id,))), (conv_id,), nodes)
        new_blocks.append(block)
    return reindex_blocks(replace(graph, blocks=graph.blocks + tuple(new_blocks)))
