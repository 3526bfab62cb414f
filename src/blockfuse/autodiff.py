"""Minimal reverse-mode differentiation over the IR.

The forward pass is `graph.execute_graph` itself: `forward_masked` binds the
parameters into the graph, gates every block activation as
m_hat * act(z) + (1 - m_hat) * z with the block's shared binary mask bit,
and has the walker record a tape. Backward passes the gradient of the
binary mask straight through to the real-valued scores (STE), and computes
standard reverse-mode gradients for all layer parameters, reading the
weights from the bound layers on the tape. BN runs in inference mode
(frozen statistics) throughout; its running mean and variance get no
gradients.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import (
    Activation,
    ActivationKind,
    Add,
    AvgPool,
    BatchNormLayer,
    ConvLayer,
    Flatten,
    Linear,
    Tensor,
    conv_backward,
    pool_conv,
)
from .graph import NetGraph, Node, checked_mask, execute_graph, graph_sink
from .io import bind_weights, weights_of_graph


def topk_binarize(m: np.ndarray, k: int) -> np.ndarray:
    """Binary indicator of the k largest entries; ties go to the lower index."""
    m = np.asarray(m, dtype=np.float64)
    n = len(m)
    if not 0 <= k:
        raise ValueError(f"k must be >= 0, got {k}")
    m_hat = np.zeros(n)
    keep = np.argsort(-m, kind="stable")[: min(k, n)]
    m_hat[keep] = 1.0
    return m_hat


@dataclass
class MaskState:
    """Learnable importance scores per block plus the derived binary mask."""

    m: np.ndarray
    k: int
    lam: np.ndarray  # non-negative latency decay weights, one per block

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.float64)
        self.lam = np.asarray(self.lam, dtype=np.float64)
        if self.lam.shape != self.m.shape:
            raise ValueError("lambda and m must have the same length")
        if np.any(self.lam < 0):
            raise ValueError("lambda entries must be >= 0")

    @property
    def m_hat(self) -> np.ndarray:
        return topk_binarize(self.m, self.k)

    @classmethod
    def fresh(cls, n_blocks: int, k: int) -> "MaskState":
        return cls(np.ones(n_blocks), k, np.ones(n_blocks))


def extract_params(graph: NetGraph) -> Dict[str, np.ndarray]:
    """Copy the graph's weight table (`io.weights_of_graph`), keyed '<node_id>.<slot>'."""
    return {name: arr.copy() for name, arr in weights_of_graph(graph).items()}


@dataclass
class TapeEntry:
    node: Node  # carries the layer bound to the forward pass's parameters
    inputs: List[np.ndarray]
    output: np.ndarray
    slot: Optional[int] = None  # mask slot for gated activations
    gate: Optional[float] = None  # the m_hat bit applied at a gated activation


@dataclass
class GradTape:
    graph: NetGraph
    entries: List[TapeEntry]
    n_blocks: int


def _act_grad(kind: ActivationKind, z: np.ndarray) -> Optional[np.ndarray]:
    """d act(z) / dz as a boolean mask; None for the identity, whose slope is 1."""
    if kind is ActivationKind.RELU:
        return z > 0
    if kind is ActivationKind.RELU6:
        return (z > 0) & (z < 6)
    return None


def _slots_and_gates(graph: NetGraph, mask_state: Optional[MaskState]
                     ) -> Tuple[Dict[str, int], Dict[str, float]]:
    """Each block activation's mask slot and its m_hat bit (1 without a mask state)."""
    m_hat = np.ones(len(graph.blocks)) if mask_state is None \
        else checked_mask(graph, mask_state.m_hat)
    slots = {aid: b.block_id for b in graph.blocks for aid in b.act_node_ids}
    return slots, {aid: float(m_hat[slot]) for aid, slot in slots.items()}


def forward_masked(graph: NetGraph, params: Dict[str, np.ndarray],
                   mask_state: Optional[MaskState], x: np.ndarray
                   ) -> Tuple[np.ndarray, GradTape]:
    """Run `execute_graph` with `params` bound and gated block activations,
    recording a tape."""
    slots, gates = _slots_and_gates(graph, mask_state)
    bound = bind_weights(graph, params)
    records: list = []
    out = execute_graph(bound, Tensor.of(x), gates, records)
    entries = [TapeEntry(node, [t.data for t in ins], y.data, slots.get(node.node_id),
                         gates.get(node.node_id)) for node, ins, y in records]
    return out.data, GradTape(bound, entries, len(graph.blocks))


def forward_untaped(graph: NetGraph, params: Dict[str, np.ndarray],
                    mask_state: Optional[MaskState], x: np.ndarray) -> np.ndarray:
    """`forward_masked`'s output without the tape, so the walker can drop values
    it no longer needs and reuse their buffers."""
    _, gates = _slots_and_gates(graph, mask_state)
    return execute_graph(bind_weights(graph, params), Tensor.of(x), gates).data


def backward(tape: GradTape, loss_grad: np.ndarray
             ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Reverse pass: returns (parameter gradients, mask gradients).

    Weights come from the bound layers on the tape. The returned mask
    gradient is both d(loss)/d(m_hat) and, by the straight-through
    identity, d(loss)/d(m). It reads act(z) from the tape at a gate of 1,
    where the walker's output is act(z), and computes it only at a gate of 0.

    Each node's gradient is dropped once read: in reverse tape order all of
    its readers have run. The tape itself is left as it was, so it can be
    read again.
    """
    sink = graph_sink(tape.graph).node_id
    grads: Dict[str, np.ndarray] = {sink: np.asarray(loss_grad)}
    pgrads: Dict[str, np.ndarray] = {}
    m_grad = np.zeros(tape.n_blocks)

    def add_to(table: Dict[str, np.ndarray], key: str, value: np.ndarray):
        table[key] = table[key] + value if key in table else value

    for entry in reversed(tape.entries):
        nid = entry.node.node_id
        dout = grads.pop(nid, None)  # every reader of nid has run: final, read once
        if dout is None:
            continue
        layer = entry.node.layer
        if isinstance(layer, ConvLayer):
            dx, dw, db = conv_backward(dout, entry.inputs[0], layer.weights, layer.stride,
                                       layer.padding, layer.groups, bool(entry.node.input_ids))
            add_to(pgrads, f"{nid}.weight", dw)
            if layer.bias is not None:  # a bias map gets a per-position gradient
                add_to(pgrads, f"{nid}.bias", db if layer.bias.ndim == 1 else dout.sum(axis=0))
            dins = [dx]
        elif isinstance(layer, BatchNormLayer):
            # d gamma = sum(dout * xhat) from per-channel sums, with no xhat tensor
            inv_std = 1.0 / np.sqrt(layer.running_var + layer.epsilon)
            dsum = dout.sum(axis=(0, 2, 3))
            dx_sum = np.einsum("nchw,nchw->c", dout, entry.inputs[0])
            add_to(pgrads, f"{nid}.gamma", (dx_sum - layer.running_mean * dsum) * inv_std)
            add_to(pgrads, f"{nid}.beta", dsum)
            dins = [dout * (layer.gamma * inv_std)[None, :, None, None]]
        elif isinstance(layer, Activation):
            # dout * (g * dact + (1 - g)), which is dout at a gate of 0 and
            # dout * dact at a gate of 1 (or none), bit for bit
            z, g = entry.inputs[0], entry.gate
            if entry.slot is not None:  # at a gate of 1 the output is act(z)
                a = entry.output if g == 1.0 else layer.kind.apply(z)
                m_grad[entry.slot] += float(np.vdot(dout, a) - np.vdot(dout, z))
            dact = None if g == 0.0 else _act_grad(layer.kind, z)
            if g not in (None, 0.0, 1.0):
                dact = np.ones_like(z) if dact is None else dact.astype(z.dtype)
                dins = [dout * (g * dact + (1.0 - g))]
            elif dact is None:
                dins = [dout]
            else:
                dins = [dout * dact]
        elif isinstance(layer, AvgPool):  # the depthwise conv it is, with fixed taps
            pool = pool_conv(layer, dout.shape[1])
            dins = [conv_backward(dout, entry.inputs[0], pool.weights, pool.stride, 0,
                                  pool.groups)[0]]
        elif isinstance(layer, Linear):
            flat = entry.inputs[0].reshape(entry.inputs[0].shape[0], -1)
            dflat = dout.reshape(dout.shape[0], -1)
            add_to(pgrads, f"{nid}.weight", dflat.T @ flat)
            if layer.bias is not None:
                add_to(pgrads, f"{nid}.bias", dflat.sum(axis=0))
            dins = [(dflat @ layer.weight).reshape(entry.inputs[0].shape)]
        elif isinstance(layer, Flatten):
            dins = [dout.reshape(entry.inputs[0].shape)]
        elif isinstance(layer, Add):
            dins = [dout, dout]
        else:
            raise TypeError(f"unknown layer {type(layer)!r}")
        for ref, dval in zip(entry.node.input_ids, dins):
            add_to(grads, ref, dval)
    return pgrads, m_grad
