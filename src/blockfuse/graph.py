"""Compiler IR: a DAG of layers with inverted-residual-block annotations."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .core import (
    Activation,
    ActivationKind,
    Add,
    AvgPool,
    BatchNormLayer,
    ConvLayer,
    Layer,
    Tensor,
    execute_layer,
    layer_out_dims,
)
from .errors import GraphError, ShapeError


@dataclass(frozen=True)
class Node:
    node_id: str
    layer: Layer
    input_ids: Tuple[str, ...]


@dataclass(frozen=True)
class BlockAnnotation:
    """One inverted-residual (or plain-conv) block, the unit of masking and merging: its
    nodes and activations. Its kernel, stride and skip are its nodes' (`block_geometry`)."""

    block_id: int
    kind: str  # "inverted_residual" | "plain_conv"
    node_ids: Tuple[str, ...]
    act_node_ids: Tuple[str, ...]  # exactly 0 or 2 ids; the two share one mask slot


@dataclass(frozen=True)
class LatencyTable:
    entries: Tuple[Tuple[int, float], ...]  # (block_id, latency_ms)

    def as_dict(self) -> Dict[int, float]:
        return dict(self.entries)


@dataclass(frozen=True)
class NetGraph:
    """A network: `nodes` lists every node after its inputs, and `blocks[i]` is
    block i, the blocks listed in network order (`validate_graph` checks both)."""

    nodes: Tuple[Node, ...]
    input_dims: Tuple[int, int, int, int]
    blocks: Tuple[BlockAnnotation, ...] = ()
    metadata: Dict[str, str] = field(default_factory=dict)

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise GraphError(f"no node {node_id!r}")

    @property
    def node_index(self) -> Dict[str, Node]:
        return {n.node_id: n for n in self.nodes}


# The canonical op sequence of an inverted residual block (Add optional at the end).
IRB_PATTERN = (ConvLayer, BatchNormLayer, Activation, ConvLayer, BatchNormLayer,
               Activation, ConvLayer, BatchNormLayer)


def gain1_conv_init(rng: np.random.Generator) -> Callable:
    """An `irb` conv_weights maker drawing from `rng` at gain 1, which keeps
    magnitudes O(1) even in a fully linear (all masked off) network."""
    def init(c_out, c_in_per_group, k):
        fan_in = c_in_per_group * k * k
        return rng.standard_normal((c_out, c_in_per_group, k, k)) * np.sqrt(1.0 / fan_in)
    return init


def irb(prefix: str, inputs: Tuple[str, ...], c_in: int, c_out: int,
        expand_ratio: float, dw_kernel: int, stride: int, residual: bool,
        block_id: int, conv_weights: Callable, bn: Callable
        ) -> Tuple[List[Node], BlockAnnotation]:
    """The nodes of one IRB_PATTERN block that reads `inputs` (plus an Add of its
    input when `residual`) and the block's annotation. `conv_weights(c_out,
    c_in_per_group, k)` and `bn(channels)` make the layers, called in node order."""
    hidden = int(round(c_in * expand_ratio))
    pad = (dw_kernel - 1) // 2
    relu6 = Activation(ActivationKind.RELU6)
    layers = {
        "pw1": ConvLayer(1, 1, 1, 0, 1, c_in, hidden, conv_weights(hidden, c_in, 1)),
        "bn1": bn(hidden),
        "act1": relu6,
        "dw": ConvLayer(dw_kernel, dw_kernel, stride, pad, hidden, hidden, hidden,
                        conv_weights(hidden, 1, dw_kernel)),
        "bn2": bn(hidden),
        "act2": relu6,
        "pw2": ConvLayer(1, 1, 1, 0, 1, hidden, c_out, conv_weights(c_out, hidden, 1)),
        "bn3": bn(c_out),
    }
    nodes: List[Node] = []
    for name, layer in layers.items():
        nodes.append(Node(f"{prefix}_{name}", layer,
                          (nodes[-1].node_id,) if nodes else tuple(inputs)))
    if residual:
        nodes.append(Node(f"{prefix}_add", Add(), (nodes[-1].node_id,) + tuple(inputs)))
    return nodes, BlockAnnotation(block_id, "inverted_residual", tuple(n.node_id for n in nodes),
                                  (f"{prefix}_act1", f"{prefix}_act2"))


def block_geometry(index: Dict[str, Node], block: BlockAnnotation) -> Tuple[int, int, bool]:
    """(kernel, stride, has_residual): what the block's convs and pools compose to in
    `merge.merge_chain` (k = (k2 - 1) * s1 + k1, s = s1 * s2), and if it ends in an Add."""
    k, s = 1, 1
    for nid in block.node_ids:
        layer = index[nid].layer
        if isinstance(layer, ConvLayer):
            k, s = (layer.kernel_h - 1) * s + k, s * layer.stride
        elif isinstance(layer, AvgPool):
            k, s = (layer.kernel - 1) * s + k, s * layer.stride
    return k, s, isinstance(index[block.node_ids[-1]].layer, Add)


def splice(graph: NetGraph, span: Tuple[str, ...], new_nodes: List[Node]) -> NetGraph:
    """Replace the nodes of `span` (its exit last) with `new_nodes`, placed where
    the span's first node was. Nodes outside the span that read the exit read the
    new tail instead, every block that holds the span lists the new ids in its
    place, and every block strictly inside the span is dropped."""
    members = set(span)
    new_ids = tuple(n.node_id for n in new_nodes)
    exit_id, tail = span[-1], new_ids[-1]
    nodes: List[Node] = []
    for n in graph.nodes:
        if n.node_id == span[0]:
            nodes.extend(new_nodes)
        elif n.node_id not in members:  # a node that does not read the exit stays as it is
            nodes.append(n if exit_id not in n.input_ids else replace(n, input_ids=tuple(
                tail if ref == exit_id else ref for ref in n.input_ids)))
    blocks = []
    for b in graph.blocks:
        held = set(b.node_ids)
        if held < members:
            continue
        if members <= held:
            ids: List[str] = []
            for nid in b.node_ids:
                if nid == span[0]:
                    ids.extend(new_ids)
                elif nid not in members:
                    ids.append(nid)
            b = replace(b, node_ids=tuple(ids))
        blocks.append(b)
    return replace(graph, nodes=tuple(nodes), blocks=tuple(blocks))


def topological_order(graph: NetGraph) -> List[Node]:
    """`graph.nodes` as a list, after checking that node ids are unique and that
    every input is listed before the node that reads it, the order every graph
    holds (so none has a cycle)."""
    ids = {n.node_id for n in graph.nodes}
    listed = set()
    for n in graph.nodes:
        if n.node_id in listed:
            raise GraphError(f"duplicate node id {n.node_id!r}")
        for ref in n.input_ids:
            if ref not in ids:
                raise GraphError(f"node {n.node_id!r} references unknown input {ref!r}")
            if ref not in listed:
                raise GraphError(f"node {n.node_id!r} is listed before its input {ref!r}: "
                                 f"list nodes after their inputs (a cycle has no such order)")
        listed.add(n.node_id)
    return list(graph.nodes)


def graph_sink(graph: NetGraph) -> Node:
    consumed = {ref for n in graph.nodes for ref in n.input_ids}
    sinks = [n for n in graph.nodes if n.node_id not in consumed]
    if len(sinks) != 1:
        raise GraphError(f"graph must have exactly one sink, found {len(sinks)}")
    return sinks[0]


def network_order(graph: NetGraph) -> List[BlockAnnotation]:
    """The blocks ranked by where their entry is listed; a nested block that shares
    its entry with the containing block ranks after it."""
    position = {n.node_id: i for i, n in enumerate(graph.nodes)}
    return sorted(graph.blocks, key=lambda b: (position[b.node_ids[0]], -len(b.node_ids)))


def reindex_blocks(graph: NetGraph) -> NetGraph:
    """`graph` with its blocks renumbered 0..B-1 in network order, validated."""
    blocks = tuple(replace(b, block_id=i) for i, b in enumerate(network_order(graph)))
    out = replace(graph, blocks=blocks)
    validate_graph(out)
    return out


def _check_block(block: BlockAnnotation, index: Dict[str, Node],
                 consumers: Dict[str, List[str]], nested_ids: set) -> None:
    bid = block.block_id
    members = set(block.node_ids)
    residual = block_geometry(index, block)[2]
    chain = block.node_ids[:-1] if residual else block.node_ids
    if any(isinstance(index[nid].layer, Add) for nid in chain):
        raise GraphError(f"block {bid}: an Add before its last node")
    if not chain:
        raise GraphError(f"block {bid}: no node besides its Add")
    # single-entry single-exit chain; `validate_graph` gave the entry one input or none
    for prev, cur in zip(chain, chain[1:]):
        node = index[cur]
        if tuple(node.input_ids) != (prev,):
            raise GraphError(f"block {bid}: {cur!r} does not chain from {prev!r}")
    entry = index[chain[0]]
    for nid in chain[:-1]:
        if any(c not in members for c in consumers.get(nid, [])):
            raise GraphError(
                f"block {bid}: interior node {nid!r} consumed outside the block"
            )
    if residual:
        src = entry.input_ids[0] if entry.input_ids else None
        if set(index[block.node_ids[-1]].input_ids) != {chain[-1], src}:
            raise GraphError(f"block {bid}: Add must join block entry input and chain exit")
    if len(block.act_node_ids) not in (0, 2):
        raise GraphError(f"block {bid}: act_node_ids must have 0 or 2 entries")
    for aid in block.act_node_ids:
        if aid not in members or not isinstance(index[aid].layer, Activation):
            raise GraphError(f"block {bid}: {aid!r} is not an activation in the block")
    if block.kind == "inverted_residual" and not (members & nested_ids):
        layers = tuple(type(index[nid].layer) for nid in chain)
        if layers != IRB_PATTERN:
            raise GraphError(
                f"block {bid}: node sequence does not match PW-BN-Act-DW-BN-Act-PW-BN"
            )
        pw1, dw, pw2 = (index[chain[i]].layer for i in (0, 3, 6))
        if residual and (dw.stride != 1 or pw1.c_in != pw2.c_out):
            raise GraphError(
                f"block {bid}: residual requires stride 1 and equal in/out channels"
            )


def value_dims(order: List[Node], input_dims: tuple) -> Dict[str, tuple]:
    """node_id -> output dims of each node of `order` (a topological order) on an
    input of `input_dims`; a wrong input count or a shape conflict raises a
    ShapeError that names the node."""
    dims: Dict[str, tuple] = {}
    for node in order:
        in_dims = [dims[ref] for ref in node.input_ids] or [input_dims]
        arity = 2 if isinstance(node.layer, Add) else 1
        if len(in_dims) != arity:
            raise ShapeError(f"node {node.node_id!r}: {type(node.layer).__name__} takes "
                             f"{arity} input(s), got {len(in_dims)}")
        try:
            if isinstance(node.layer, Add):
                a, b = in_dims
                if a != b:
                    raise ShapeError(f"Add inputs differ: {a} vs {b}")
                dims[node.node_id] = a
            else:
                (d,) = in_dims
                dims[node.node_id] = layer_out_dims(node.layer, d)
        except ShapeError as exc:
            raise ShapeError(f"shape conflict at node {node.node_id!r}: {exc}") from exc
    return dims


def validate_graph(graph: NetGraph) -> Dict[str, tuple]:
    """Check all invariants and return node_id -> output dims."""
    if not graph.nodes:
        raise GraphError("empty graph")
    order = topological_order(graph)
    graph_sink(graph)
    index = graph.node_index
    consumers: Dict[str, List[str]] = {}
    for n in graph.nodes:
        for ref in n.input_ids:
            consumers.setdefault(ref, []).append(n.node_id)

    try:
        shapes = value_dims(order, graph.input_dims)
    except ShapeError as exc:
        raise GraphError(str(exc)) from exc

    for block in graph.blocks:
        if not block.node_ids:
            raise GraphError(f"block {block.block_id}: empty node list")
        for nid in block.node_ids:
            if nid not in index:
                raise GraphError(f"block {block.block_id}: unknown node {nid!r}")
    for i, (block, want) in enumerate(zip(graph.blocks, network_order(graph))):
        if block.block_id != i or block is not want:
            raise GraphError(
                f"blocks out of order: blocks[{i}] has block_id {block.block_id} where "
                f"network order puts block_id {want.block_id}; list blocks in network "
                f"order with blocks[i].block_id == i"
            )
    nested_ids = set()
    for a in graph.blocks:
        for b in graph.blocks:
            if a is not b and set(a.node_ids) < set(b.node_ids):
                nested_ids.update(a.node_ids)
    for block in graph.blocks:
        _check_block(block, index, consumers, nested_ids)
    return shapes


# Bytes of the largest value one untaped walk may hold per chunk of samples. On
# an n=8 walk of MobileNetV2-1.4 at 224 px (14.5 MB per sample in b01's pw1
# output; 2 vCPUs), 32 MiB runs chunks of 2: the walk's peak fell 263 -> 139 MB
# and its minor faults per warm walk 3,400-4,800 -> 0, in the same walk time and
# with outputs bit-identical to the whole batch's. Chunks of 4 (64 MiB) kept
# 191 MB and 700-11,000 faults; chunks of 1 (16 MiB) reached 118 MB but walked
# 1-3% slower and changed the classifier GEMM's rounding. No value outgrows
# glibc's largest dynamic mmap threshold (32 MiB on 64-bit), so every buffer
# comes back from the heap instead of being mapped afresh.
_CHUNK_BYTES = 32 << 20


def execute_graph(graph: NetGraph, x: Tensor, tape: Optional[list] = None) -> Tensor:
    """Evaluate the graph in topological order; nodes with no inputs read the graph input.

    With a `tape` list, each node appends (node, inputs, output), so every value is
    kept; without one, each value is freed after its last consumer.

    Without a tape the walker also reuses buffers: a value whose last consumer is this
    node goes to `execute_layer` as a spare buffer when it appears once among the
    node's inputs and its memory overlaps neither `x` nor any other live value.

    Without a tape, a batch whose largest value would exceed `_CHUNK_BYTES` runs as
    chunks of max(1, _CHUNK_BYTES // <largest value per sample>) samples, and the
    chunks' outputs are concatenated. Every kernel treats samples apart except the
    GEMMs, so a chunk's outputs differ from the whole batch's by rounding at most.
    A taped walk and a one-sample batch are always one walk.
    """
    if x.dims[1:] != tuple(graph.input_dims)[1:]:
        raise ShapeError(
            f"input dims {x.dims} incompatible with graph input {graph.input_dims}"
        )
    order = topological_order(graph)
    sink = graph_sink(graph).node_id
    last_use = {ref: i for i, node in enumerate(order) for ref in node.input_ids}
    n = x.dims[0]
    chunk = n
    if tape is None and n > 1:
        per_sample = max(int(np.prod(d[1:])) for d in value_dims(order, x.dims).values())
        chunk = max(1, _CHUNK_BYTES // (per_sample * x.data.itemsize))
    if chunk >= n:
        return _walk(order, last_use, sink, x, tape)
    return Tensor(np.concatenate([
        _walk(order, last_use, sink, Tensor(x.data[s:s + chunk]), None).data
        for s in range(0, n, chunk)]))


def _walk(order: List[Node], last_use: Dict[str, int], sink: str, x: Tensor,
          tape: Optional[list]) -> Tensor:
    """One walk of `execute_graph` over all of x."""
    values: Dict[str, Tensor] = {}

    def unshared(ref: str) -> bool:
        data = values[ref].data
        return not np.may_share_memory(data, x.data) and not any(
            other != ref and np.may_share_memory(data, v.data)
            for other, v in values.items())

    for i, node in enumerate(order):
        refs = node.input_ids
        ins = [Tensor(values[ref].data, spare=tape is None and last_use[ref] == i
                      and refs.count(ref) == 1 and unshared(ref))
               for ref in refs] if refs else [x]
        out = values[node.node_id] = execute_layer(node.layer, *ins)
        if tape is not None:
            tape.append((node, ins, out))  # keeps every value alive
        for ref in {ref for ref in refs if last_use[ref] == i}:
            del values[ref]  # its last consumer has run
    return values[sink]


def merged_blocks(graph: NetGraph, mask) -> List[BlockAnnotation]:
    """The blocks that `mask` (one 0/1 entry per block) marks 0, in id order."""
    mask = list(mask)
    if len(mask) != len(graph.blocks):
        raise GraphError(f"mask length {len(mask)} != block count {len(graph.blocks)}")
    for bit in mask:
        if bit not in (0, 1):
            raise GraphError(f"mask entries must be 0/1, got {bit!r}")
    return [block for block, bit in zip(graph.blocks, mask) if bit == 0]


def apply_mask_vector(graph: NetGraph, mask) -> NetGraph:
    """Replace both activations of every mask-0 block with Identity."""
    off = {aid for block in merged_blocks(graph, mask) for aid in block.act_node_ids}
    nodes = tuple(
        replace(n, layer=Activation(ActivationKind.IDENTITY)) if n.node_id in off else n
        for n in graph.nodes
    )
    return replace(graph, nodes=nodes)
