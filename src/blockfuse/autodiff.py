"""Minimal reverse-mode differentiation over the IR.

The forward pass is `graph.execute_graph` itself: `forward_masked` binds the
parameters into the graph, applies the binary mask m_hat with
`graph.apply_mask_vector` (a block whose bit is 0 runs both of its
activations as Identity, as in `shrink`), and has the walker record a tape.
Backward passes the gradient of the binary mask straight through to the
real-valued scores (STE): it is the derivative, at m_hat, of the relaxation
m_hat * act(z) + (1 - m_hat) * z of each block activation. All layer
parameters get standard reverse-mode gradients, with the weights read from
the bound layers on the tape. BN runs in inference mode (frozen statistics)
throughout; its running mean and variance get no gradients.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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
from .graph import NetGraph, apply_mask_vector, execute_graph, graph_sink
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
class GradTape:
    graph: NetGraph  # as given to `forward_masked`: the mask slots and own kinds
    records: list  # the walker's (node, inputs, output), nodes bound and masked


def _act_grad(kind: ActivationKind, z: np.ndarray) -> Optional[np.ndarray]:
    """d act(z) / dz as a boolean mask; None for the identity, whose slope is 1."""
    if kind is ActivationKind.RELU:
        return z > 0
    if kind is ActivationKind.RELU6:
        return (z > 0) & (z < 6)
    return None


def forward_masked(graph: NetGraph, params: Dict[str, np.ndarray],
                   mask_state: Optional[MaskState], x: np.ndarray
                   ) -> Tuple[np.ndarray, GradTape]:
    """Run `execute_graph` with `params` bound and, given a mask state, its
    m_hat applied, recording a tape."""
    masked = graph if mask_state is None else apply_mask_vector(graph, mask_state.m_hat)
    records: list = []
    out = execute_graph(bind_weights(masked, params), Tensor.of(x), records)
    return out.data, GradTape(graph, records)


def forward_untaped(graph: NetGraph, params: Dict[str, np.ndarray],
                    x: np.ndarray) -> np.ndarray:
    """The output of `forward_masked` without a mask state or the tape, so the
    walker can drop values it no longer needs and reuse their buffers."""
    return execute_graph(bind_weights(graph, params), Tensor.of(x)).data


def backward(tape: GradTape, loss_grad: np.ndarray
             ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Reverse pass: returns (parameter gradients, mask gradients).

    Weights come from the bound layers on the tape. The returned mask
    gradient is both d(loss)/d(m_hat) and, by the straight-through
    identity, d(loss)/d(m): vdot(dout, act(z)) - vdot(dout, z) summed over
    the block's activations, with each activation's own kind read from
    `tape.graph`. act(z) is the tape's output where that kind ran, and is
    computed only where m_hat made the node an Identity.

    Each node's gradient is dropped once read: in reverse tape order all of
    its readers have run. The tape itself is left as it was, so it can be
    read again.
    """
    graph = tape.graph
    index = graph.node_index
    own = {aid: (b.block_id, index[aid].layer.kind) for b in graph.blocks
           for aid in b.act_node_ids}  # block activation -> (mask slot, own kind)
    grads: Dict[str, np.ndarray] = {graph_sink(graph).node_id: np.asarray(loss_grad)}
    pgrads: Dict[str, np.ndarray] = {}
    m_grad = np.zeros(len(graph.blocks))

    def add_to(table: Dict[str, np.ndarray], key: str, value: np.ndarray):
        table[key] = table[key] + value if key in table else value

    for node, ins, out in reversed(tape.records):
        nid, layer = node.node_id, node.layer
        dout = grads.pop(nid, None)  # every reader of nid has run: final, read once
        if dout is None:
            continue
        x = ins[0].data
        if isinstance(layer, ConvLayer):
            dx, dw, db = conv_backward(dout, x, layer.weights, layer.stride,
                                       layer.padding, layer.groups, bool(node.input_ids))
            add_to(pgrads, f"{nid}.weight", dw)
            if layer.bias is not None:  # a bias map gets a per-position gradient
                add_to(pgrads, f"{nid}.bias", db if layer.bias.ndim == 1 else dout.sum(axis=0))
            dins = [dx]
        elif isinstance(layer, BatchNormLayer):
            # d gamma = sum(dout * xhat) from per-channel sums, with no xhat tensor
            inv_std = 1.0 / np.sqrt(layer.running_var + layer.epsilon)
            dsum = dout.sum(axis=(0, 2, 3))
            dx_sum = np.einsum("nchw,nchw->c", dout, x)
            add_to(pgrads, f"{nid}.gamma", (dx_sum - layer.running_mean * dsum) * inv_std)
            add_to(pgrads, f"{nid}.beta", dsum)
            dins = [dout * (layer.gamma * inv_std)[None, :, None, None]]
        elif isinstance(layer, Activation):
            if nid in own:
                slot, kind = own[nid]
                a = out.data if layer.kind is kind else kind.apply(x)
                m_grad[slot] += float(np.vdot(dout, a) - np.vdot(dout, x))
            dact = _act_grad(layer.kind, x)
            dins = [dout if dact is None else dout * dact]
        elif isinstance(layer, AvgPool):  # the depthwise conv it is, with fixed taps
            pool = pool_conv(layer, dout.shape[1])
            dins = [conv_backward(dout, x, pool.weights, pool.stride, 0, pool.groups)[0]]
        elif isinstance(layer, Linear):
            flat = x.reshape(x.shape[0], -1)
            dflat = dout.reshape(dout.shape[0], -1)
            add_to(pgrads, f"{nid}.weight", dflat.T @ flat)
            if layer.bias is not None:
                add_to(pgrads, f"{nid}.bias", dflat.sum(axis=0))
            dins = [(dflat @ layer.weight).reshape(x.shape)]
        elif isinstance(layer, Flatten):
            dins = [dout.reshape(x.shape)]
        elif isinstance(layer, Add):
            dins = [dout, dout]
        else:
            raise TypeError(f"unknown layer {type(layer)!r}")
        for ref, dval in zip(node.input_ids, dins):
            add_to(grads, ref, dval)
    return pgrads, m_grad
