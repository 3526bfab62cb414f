"""Desk-scale training: mask search with latency-aware L1 decay, and
fine-tuning with optional self-distillation against the unmodified network.

Both run one loop, `_train`: cross-entropy (plus distillation with a teacher),
`backward`, SGD on the unfrozen parameters, and with a `MaskState` the
straight-through score step with its latency-weighted L1 decay.
Training draws no random numbers: batches come in dataset order (nothing reads
`TrainConfig.seed`), and the optimizer is SGD with momentum `MOMENTUM` and a cosine
schedule.
`--seed` on `search`/`finetune` seeds only the synthetic dataset (numpy's PCG64).
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from math import cos, inf, pi
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .autodiff import MaskState, backward, forward_masked, forward_untaped
from .core import ActivationKind, BatchNormLayer
from .cost import latency_decay_weights
from .errors import ConfigError, FormatError, GraphError, ShapeError
from .graph import LatencyTable, NetGraph, graph_sink, merged_blocks, validate_graph

MOMENTUM = 0.9


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 16
    lr: float = 0.05
    seed: int = 0
    decay_strength: float = 0.0
    distill: str = "off"  # "off" | "on"
    distill_alpha: float = 0.5
    distill_temperature: float = 1.0
    label_smoothing: float = 0.0

    def __post_init__(self):
        # each range is written so that NaN fails it
        if self.epochs <= 0 or self.batch_size <= 0 or not 0 < self.lr < inf:
            raise ConfigError("epochs, batch_size and lr must be positive, and lr finite")
        if not 0 <= self.decay_strength < inf:
            raise ConfigError("decay_strength must be finite and >= 0")
        if self.distill not in ("off", "on"):
            raise ConfigError("distill must be 'off' or 'on'")
        if not 0.0 <= self.distill_alpha <= 1.0:
            raise ConfigError("distill_alpha must be in [0, 1]")
        if not 0 < self.distill_temperature < inf:
            raise ConfigError("distill_temperature must be finite and > 0")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError("label_smoothing must be in [0, 1)")


Dataset = Tuple[np.ndarray, np.ndarray]  # (images (N,c,h,w) f64, labels (N,) int)


def synthetic_two_class(n: int, channels: int, size: int, seed: int = 0) -> Dataset:
    """Linearly separable toy set: a fixed spatial template added with
    opposite signs for the two classes, plus unit Gaussian noise."""
    if n < 1:
        raise ConfigError(f"a synthetic dataset needs n >= 1 samples, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    template = rng.standard_normal((channels, size, size))
    template *= 2.0 / np.linalg.norm(template)
    y = np.arange(n) % 2
    signs = np.where(y == 0, -1.0, 1.0)
    x = rng.standard_normal((n, channels, size, size)) * 0.3
    x += signs[:, None, None, None] * template[None]
    return x, y.astype(np.int64)


RAW_MAGIC = b"BFDS"


def save_dataset_raw(dataset: Dataset, path) -> None:
    """Raw binary layout: magic 'BFDS' | u32 version=1 | u32 count |
    u32 channels | u32 height | u32 width | count x u8 labels |
    count*channels*height*width x u8 pixels (row-major, value/255)."""
    x, y = dataset
    n, c, h, w = x.shape
    pixels = np.clip(np.round(x * 255), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(RAW_MAGIC)
        fh.write(struct.pack("<IIIII", 1, n, c, h, w))
        fh.write(y.astype(np.uint8).tobytes())
        fh.write(pixels.tobytes())


def load_dataset_raw(path) -> Dataset:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != RAW_MAGIC:
        raise FormatError(f"{path}: bad magic; not a raw dataset")
    if len(buf) < 24:
        raise FormatError(f"{path}: truncated dataset file")
    version, n, c, h, w = struct.unpack("<IIIII", buf[4:24])
    if version != 1:
        raise FormatError(f"{path}: unsupported dataset version {version}")
    need = 24 + n + n * c * h * w
    if len(buf) < need:
        raise FormatError(f"{path}: truncated dataset file")
    if len(buf) > need:
        raise FormatError(f"{path}: {len(buf) - need} trailing bytes after the pixels")
    y = np.frombuffer(buf, dtype=np.uint8, count=n, offset=24).astype(np.int64)
    x = np.frombuffer(buf, dtype=np.uint8, count=n * c * h * w, offset=24 + n)
    return x.reshape(n, c, h, w).astype(np.float64) / 255.0, y


def _batches(dataset: Dataset, batch_size: int) -> Iterator[Dataset]:
    x, y = dataset
    for i in range(0, len(x), batch_size):
        yield x[i : i + batch_size], y[i : i + batch_size]


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray,
                  label_smoothing: float = 0.0) -> Tuple[float, np.ndarray]:
    """Mean CE loss and its gradient w.r.t. the logits."""
    n, n_classes = logits.shape
    p = softmax(logits)
    target = np.full_like(p, label_smoothing / n_classes)
    target[np.arange(n), labels] += 1.0 - label_smoothing
    logp = np.log(np.clip(p, 1e-300, None))
    loss = float(-(target * logp).sum() / n)
    return loss, (p - target) / n


def distill_divergence(student_logits: np.ndarray, teacher_logits: np.ndarray,
                       temperature: float) -> Tuple[float, np.ndarray]:
    """Temperature-scaled KL(teacher || student), times T^2, mean over the
    batch; returns loss and its gradient w.r.t. the student logits."""
    n = student_logits.shape[0]
    t = temperature
    ps = softmax(student_logits / t)
    pt = softmax(teacher_logits / t)
    kl = float((pt * (np.log(np.clip(pt, 1e-300, None)) -
                      np.log(np.clip(ps, 1e-300, None)))).sum() / n)
    loss = t * t * kl
    grad = t * (ps - pt) / n
    return loss, grad


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    if total_steps <= 1:
        return base_lr
    return 0.5 * base_lr * (1.0 + cos(pi * step / (total_steps - 1)))


class SGD:
    """SGD with momentum; velocity buffers keyed by parameter name."""

    def __init__(self, momentum: float):
        self.momentum = momentum
        self.velocity: Dict[str, np.ndarray] = {}

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray],
             lr: float) -> None:
        for name, g in sorted(grads.items()):
            if name not in params:
                continue
            v = self.velocity.get(name)
            v = g if v is None else self.momentum * v + g
            self.velocity[name] = v
            params[name] = params[name] - lr * v


def _logits(out: np.ndarray) -> np.ndarray:
    return out.reshape(out.shape[0], -1)


def accuracy(graph: NetGraph, params: Dict[str, np.ndarray], dataset: Dataset) -> float:
    hits = 0
    for xb, yb in _batches(dataset, 64):
        out = forward_untaped(graph, params, None, xb)
        hits += int((np.argmax(_logits(out), axis=1) == yb).sum())
    return hits / len(dataset[0])


def _train(graph: NetGraph, params: Dict[str, np.ndarray], dataset: Dataset,
           cfg: TrainConfig, state: Optional[MaskState] = None,
           teacher: Optional[Tuple[NetGraph, Dict[str, np.ndarray]]] = None,
           frozen: frozenset = frozenset(), log: Optional[List[dict]] = None
           ) -> Dict[str, np.ndarray]:
    """The training loop of both stages; returns the trained parameters. Scores
    in `state` train in place; a `teacher` adds the distillation term."""
    if len(dataset[0]) == 0:
        raise GraphError("empty dataset")
    classes = int(np.prod(validate_graph(graph)[graph_sink(graph).node_id][1:]))
    if (top := dataset[1].max()) >= classes:
        raise ShapeError(f"dataset label {top} is out of range for {classes} classes")
    params = dict(params)
    opt = SGD(MOMENTUM)
    # each log line's kept_blocks: the blocks whose activations run, read from the
    # mask state's bits during search and from the graph's activations otherwise
    index = graph.node_index
    active = sum(any(index[aid].layer.kind is not ActivationKind.IDENTITY
                     for aid in b.act_node_ids) for b in graph.blocks)
    batches = [b for _ in range(cfg.epochs) for b in _batches(dataset, cfg.batch_size)]
    for step, (xb, yb) in enumerate(batches):
        lr = cosine_lr(cfg.lr, step, len(batches))
        out, tape = forward_masked(graph, params, state, xb)
        logits = _logits(out)
        loss, dlogits = cross_entropy(logits, yb, cfg.label_smoothing)
        if teacher is not None:
            t_out = forward_untaped(*teacher, None, xb)
            kd_loss, kd_grad = distill_divergence(
                logits, _logits(t_out), cfg.distill_temperature)
            loss += cfg.distill_alpha * kd_loss
            dlogits = dlogits + cfg.distill_alpha * kd_grad
        pgrads, m_grad = backward(tape, dlogits.reshape(out.shape))
        if frozen:
            pgrads = {k: v for k, v in pgrads.items() if k not in frozen}
        opt.step(params, pgrads, lr)
        decay_term, kept = 0.0, active
        if state is not None:
            decay_term = float(cfg.decay_strength * np.sum(state.lam * np.abs(state.m)))
            # straight-through update of m plus latency-weighted L1 decay
            state.m = state.m - lr * (m_grad +
                                      cfg.decay_strength * state.lam * np.sign(state.m))
            kept = int(state.m_hat.sum())
        if log is not None:
            log.append({"step": step, "loss": loss, "decay_term": decay_term,
                        "kept_blocks": kept, "lr": lr})
    return params


def search_masks(graph: NetGraph, weights: Dict[str, np.ndarray], dataset: Dataset,
                 latency: Optional[LatencyTable], cfg: TrainConfig, k: int,
                 log: Optional[List[dict]] = None
                 ) -> Tuple[MaskState, List[int], Dict[str, np.ndarray]]:
    """Jointly train weights and per-block importance scores under a top-k
    activation budget; returns the final mask state, blocks ranked by final
    score ascending (first = remove first), and the trained weights."""
    n_blocks = len(graph.blocks)
    if not 0 <= k <= n_blocks:
        raise GraphError(f"k={k} out of range for {n_blocks} blocks")
    lam = latency_decay_weights(latency, graph) if latency is not None \
        else np.ones(n_blocks)
    state = MaskState(np.ones(n_blocks), k, lam)
    params = _train(graph, weights, dataset, cfg, state=state, log=log)
    ranked = [int(i) for i in np.argsort(state.m, kind="stable")]
    return state, ranked, params


def frozen_shift_params(graph: NetGraph, mask) -> frozenset:
    """Names of the BN shift (beta) parameters inside mask-0 blocks, for
    `finetune(frozen=...)`. Merges are exact with any shift, so freezing is a
    training choice only: it keeps the merged blocks' biases where they
    started."""
    index = graph.node_index
    return frozenset(f"{nid}.beta" for block in merged_blocks(graph, mask)
                     for nid in block.node_ids
                     if isinstance(index[nid].layer, BatchNormLayer))


def finetune(graph: NetGraph, weights: Dict[str, np.ndarray], dataset: Dataset,
             cfg: TrainConfig,
             teacher: Optional[Tuple[NetGraph, Dict[str, np.ndarray]]] = None,
             log: Optional[List[dict]] = None,
             frozen: Iterable[str] = ()) -> Dict[str, np.ndarray]:
    """Train the (mask-applied) network; `teacher` is the frozen original
    network used for self-distillation when cfg.distill == 'on'. Parameters
    named in `frozen` are left untouched."""
    if teacher is not None and tuple(teacher[0].input_dims)[1:] != \
            tuple(graph.input_dims)[1:]:
        raise ShapeError("teacher input dims do not match student")
    distill = cfg.distill == "on" and cfg.distill_alpha > 0
    return _train(graph, weights, dataset, cfg, teacher=teacher if distill else None,
                  frozen=frozenset(frozen), log=log)


def write_log(log: List[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in log:
            fh.write(json.dumps(rec) + "\n")
