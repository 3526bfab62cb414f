"""Minimal reverse-mode differentiation over the IR.

Forward gates every block activation as  m_hat * act(z) + (1 - m_hat) * z
with the block's shared binary mask bit; backward passes the gradient of
the binary mask straight through to the real-valued scores (STE), and
computes standard reverse-mode gradients for all layer parameters.
BN runs in inference mode (frozen statistics) throughout.
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
    conv_out_size,
)
from .errors import GraphError, ShapeError
from .graph import NetGraph, graph_sink, topological_order


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
    def fresh(cls, n_blocks: int, k: int, lam=None) -> "MaskState":
        lam = np.ones(n_blocks) if lam is None else np.asarray(lam, dtype=np.float64)
        return cls(np.ones(n_blocks), k, lam)


def extract_params(graph: NetGraph) -> Dict[str, np.ndarray]:
    """Copy all trainable arrays out of the graph, keyed '<node_id>.<slot>'."""
    params: Dict[str, np.ndarray] = {}
    for n in graph.nodes:
        layer = n.layer
        if isinstance(layer, ConvLayer):
            params[f"{n.node_id}.weight"] = layer.weights.copy()
            if layer.bias is not None:
                params[f"{n.node_id}.bias"] = layer.bias.copy()
        elif isinstance(layer, Linear):
            params[f"{n.node_id}.weight"] = layer.weight.copy()
            if layer.bias is not None:
                params[f"{n.node_id}.bias"] = layer.bias.copy()
        elif isinstance(layer, BatchNormLayer):
            params[f"{n.node_id}.gamma"] = layer.gamma.copy()
            params[f"{n.node_id}.beta"] = layer.beta.copy()
    return params


def _act_slots(graph: NetGraph) -> Dict[str, int]:
    slots: Dict[str, int] = {}
    for block in graph.blocks:
        for aid in block.act_node_ids:
            slots[aid] = block.block_id
    return slots


@dataclass
class TapeEntry:
    node_id: str
    layer: object
    input_ids: Tuple[str, ...]
    inputs: List[np.ndarray]
    output: np.ndarray
    slot: Optional[int] = None  # mask slot for gated activations
    gate: Optional[float] = None  # the m_hat bit applied at a gated activation


@dataclass
class GradTape:
    graph: NetGraph
    entries: List[TapeEntry]
    n_blocks: int


def _conv_forward(x, w, b, layer):
    n, c, h, w_ = x.shape
    kh, kw, s, p = layer.kernel_h, layer.kernel_w, layer.stride, layer.padding
    oh = conv_out_size(h, kh, s, p)
    ow = conv_out_size(w_, kw, s, p)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    out = np.zeros((n, layer.c_out, oh, ow), dtype=x.dtype)
    cg_in = layer.c_in // layer.groups
    cg_out = layer.c_out // layer.groups
    for g in range(layer.groups):
        xg = xp[:, g * cg_in : (g + 1) * cg_in]
        wg = w[g * cg_out : (g + 1) * cg_out]
        og = out[:, g * cg_out : (g + 1) * cg_out]
        for i in range(kh):
            for j in range(kw):
                patch = xg[:, :, i : i + s * (oh - 1) + 1 : s, j : j + s * (ow - 1) + 1 : s]
                og += np.einsum("ncyx,oc->noyx", patch, wg[:, :, i, j])
    if b is not None:
        out += b[None, :, None, None]
    return out


def _conv_backward(dout, x, w, layer):
    n, c, h, w_ = x.shape
    kh, kw, s, p = layer.kernel_h, layer.kernel_w, layer.stride, layer.padding
    oh, ow = dout.shape[2], dout.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    cg_in = layer.c_in // layer.groups
    cg_out = layer.c_out // layer.groups
    for g in range(layer.groups):
        xg = xp[:, g * cg_in : (g + 1) * cg_in]
        dxg = dxp[:, g * cg_in : (g + 1) * cg_in]
        wg = w[g * cg_out : (g + 1) * cg_out]
        dog = dout[:, g * cg_out : (g + 1) * cg_out]
        for i in range(kh):
            for j in range(kw):
                sl = np.s_[:, :, i : i + s * (oh - 1) + 1 : s, j : j + s * (ow - 1) + 1 : s]
                dw[g * cg_out : (g + 1) * cg_out, :, i, j] += \
                    np.einsum("noyx,ncyx->oc", dog, xg[sl])
                dxg[sl] += np.einsum("noyx,oc->ncyx", dog, wg[:, :, i, j])
    dx = dxp[:, :, p : h + p, p : w_ + p] if p else dxp
    db = dout.sum(axis=(0, 2, 3))
    return dx, dw, db


def _act_grad(kind: ActivationKind, z: np.ndarray) -> np.ndarray:
    if kind is ActivationKind.RELU:
        return (z > 0).astype(z.dtype)
    if kind is ActivationKind.RELU6:
        return ((z > 0) & (z < 6)).astype(z.dtype)
    return np.ones_like(z)


def forward_masked(graph: NetGraph, params: Dict[str, np.ndarray],
                   mask_state: Optional[MaskState], x: np.ndarray
                   ) -> Tuple[np.ndarray, GradTape]:
    """Run the network with gated block activations, recording a tape."""
    slots = _act_slots(graph)
    n_blocks = len(graph.blocks)
    if mask_state is not None and len(mask_state.m) != n_blocks:
        raise GraphError(
            f"mask has {len(mask_state.m)} entries for {n_blocks} blocks"
        )
    m_hat = mask_state.m_hat if mask_state is not None else np.ones(n_blocks)
    order = topological_order(graph)
    sink = graph_sink(graph).node_id
    values: Dict[str, np.ndarray] = {}
    entries: List[TapeEntry] = []
    for node in order:
        ins = [values[ref] for ref in node.input_ids] if node.input_ids else [x]
        layer = node.layer
        nid = node.node_id
        slot = None
        gate = None
        if isinstance(layer, ConvLayer):
            w = params.get(f"{nid}.weight", layer.weights)
            b = params.get(f"{nid}.bias", layer.bias)
            out = _conv_forward(ins[0], w, b, layer)
        elif isinstance(layer, BatchNormLayer):
            gamma = params.get(f"{nid}.gamma", layer.gamma)
            beta = params.get(f"{nid}.beta", layer.beta)
            inv_std = 1.0 / np.sqrt(layer.running_var + layer.epsilon)
            out = (ins[0] - layer.running_mean[None, :, None, None]) * \
                (gamma * inv_std)[None, :, None, None] + beta[None, :, None, None]
        elif isinstance(layer, Activation):
            z = ins[0]
            if nid in slots:
                slot = slots[nid]
                gate = float(m_hat[slot])
                out = gate * layer.kind.apply(z) + (1.0 - gate) * z
            else:
                out = layer.kind.apply(z)
        elif isinstance(layer, AvgPool):
            k, s = layer.kernel, layer.stride
            zin = ins[0]
            oh = conv_out_size(zin.shape[2], k, s, 0)
            ow = conv_out_size(zin.shape[3], k, s, 0)
            out = np.zeros((zin.shape[0], zin.shape[1], oh, ow), dtype=zin.dtype)
            for i in range(k):
                for j in range(k):
                    out += zin[:, :, i : i + s * (oh - 1) + 1 : s,
                               j : j + s * (ow - 1) + 1 : s]
            out /= k * k
        elif isinstance(layer, Linear):
            w = params.get(f"{nid}.weight", layer.weight)
            b = params.get(f"{nid}.bias", layer.bias)
            flat = ins[0].reshape(ins[0].shape[0], -1)
            out = flat @ w.T
            if b is not None:
                out = out + b
            out = out.reshape(out.shape[0], -1, 1, 1)
        elif isinstance(layer, Flatten):
            out = ins[0].reshape(ins[0].shape[0], -1, 1, 1)
        elif isinstance(layer, Add):
            if ins[0].shape != ins[1].shape:
                raise ShapeError(f"Add inputs differ at {nid!r}")
            out = ins[0] + ins[1]
        else:
            raise TypeError(f"unknown layer {type(layer)!r}")
        values[nid] = out
        entries.append(TapeEntry(nid, layer, tuple(node.input_ids), ins, out, slot, gate))
    return values[sink], GradTape(graph, entries, n_blocks)


def backward(tape: GradTape, loss_grad: np.ndarray,
             params: Optional[Dict[str, np.ndarray]] = None
             ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Reverse pass: returns (parameter gradients, mask gradients).

    The returned mask gradient is both d(loss)/d(m_hat) and, by the
    straight-through identity, d(loss)/d(m).
    """
    params = params or {}
    sink = graph_sink(tape.graph).node_id
    grads: Dict[str, np.ndarray] = {sink: np.asarray(loss_grad)}
    pgrads: Dict[str, np.ndarray] = {}
    m_grad = np.zeros(tape.n_blocks)

    def accumulate(key: str, value: np.ndarray):
        if key in pgrads:
            pgrads[key] = pgrads[key] + value
        else:
            pgrads[key] = value

    def send(ref: str, value: np.ndarray):
        if ref in grads:
            grads[ref] = grads[ref] + value
        else:
            grads[ref] = value

    for entry in reversed(tape.entries):
        dout = grads.get(entry.node_id)
        if dout is None:
            continue
        layer = entry.layer
        nid = entry.node_id
        if isinstance(layer, ConvLayer):
            w = params.get(f"{nid}.weight", layer.weights)
            dx, dw, db = _conv_backward(dout, entry.inputs[0], w, layer)
            accumulate(f"{nid}.weight", dw)
            if layer.bias is not None or f"{nid}.bias" in params:
                accumulate(f"{nid}.bias", db)
            dins = [dx]
        elif isinstance(layer, BatchNormLayer):
            inv_std = 1.0 / np.sqrt(layer.running_var + layer.epsilon)
            gamma = params.get(f"{nid}.gamma", layer.gamma)
            xhat = (entry.inputs[0] - layer.running_mean[None, :, None, None]) * \
                inv_std[None, :, None, None]
            accumulate(f"{nid}.gamma", np.einsum("nchw,nchw->c", dout, xhat))
            accumulate(f"{nid}.beta", dout.sum(axis=(0, 2, 3)))
            dins = [dout * (gamma * inv_std)[None, :, None, None]]
        elif isinstance(layer, Activation):
            z = entry.inputs[0]
            dact = _act_grad(layer.kind, z)
            if entry.slot is not None:
                g = entry.gate
                m_grad[entry.slot] += float(np.sum(dout * (layer.kind.apply(z) - z)))
                dins = [dout * (g * dact + (1.0 - g))]
            else:
                dins = [dout * dact]
        elif isinstance(layer, AvgPool):
            k, s = layer.kernel, layer.stride
            zin = entry.inputs[0]
            dx = np.zeros_like(zin)
            oh, ow = dout.shape[2], dout.shape[3]
            for i in range(k):
                for j in range(k):
                    dx[:, :, i : i + s * (oh - 1) + 1 : s,
                       j : j + s * (ow - 1) + 1 : s] += dout
            dins = [dx / (k * k)]
        elif isinstance(layer, Linear):
            w = params.get(f"{nid}.weight", layer.weight)
            flat = entry.inputs[0].reshape(entry.inputs[0].shape[0], -1)
            dflat = dout.reshape(dout.shape[0], -1)
            accumulate(f"{nid}.weight", dflat.T @ flat)
            if layer.bias is not None or f"{nid}.bias" in params:
                accumulate(f"{nid}.bias", dflat.sum(axis=0))
            dins = [(dflat @ w).reshape(entry.inputs[0].shape)]
        elif isinstance(layer, Flatten):
            dins = [dout.reshape(entry.inputs[0].shape)]
        elif isinstance(layer, Add):
            dins = [dout, dout]
        else:
            raise TypeError(f"unknown layer {type(layer)!r}")
        for ref, dval in zip(entry.input_ids, dins):
            send(ref, dval)
    return pgrads, m_grad
