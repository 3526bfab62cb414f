"""Fixture networks with seeded random weights: the MobileNetV2 family
(topology-faithful), small toy IRB stacks, and a VGG-like conv chain.

Fixture BNs start with beta = mean = 0, as a freshly initialized network's
do, so merged fixture blocks get exactly zero biases; gamma/var exercise the
scaling path. Merges are exact with any shifts, and the tests set nonzero
ones where they need them.
"""
from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import (
    Activation,
    ActivationKind,
    AvgPool,
    BatchNormLayer,
    ConvLayer,
    Flatten,
    Linear,
)
from .errors import GraphError
from .graph import BlockAnnotation, NetGraph, Node, gain1_conv_init, irb, validate_graph

# Reference mask vectors (1 = activations kept) for the MobileNetV2
# fixtures; rows are directly usable as structural fixtures.
MBV2_14_MASKS: Dict[str, List[int]] = {
    "DS-A": [1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1],
    "DS-B": [0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1],
    "DS-C": [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1],
    "DS-D": [0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1],
    "DS-E": [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1],
    "DS-F": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
}
MBV2_MASKS: Dict[str, List[int]] = {
    "DS-A": [0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1],
    "DS-B": [1, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1],
    "DS-C": [1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1],
    "DS-D": [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 1],
}

# (expand_ratio, out_channels, repeats, first_stride) per stage
MBV2_STAGES = [(1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2),
               (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1)]


def make_divisible(value: float, divisor: int = 8) -> int:
    new = max(divisor, int(value + divisor / 2) // divisor * divisor)
    if new < 0.9 * value:
        new += divisor
    return new


class _Builder:
    def __init__(self, input_dims, seed: int):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self._conv_weights = gain1_conv_init(self.rng)
        self.nodes: List[Node] = []
        self.blocks: List[BlockAnnotation] = []
        self.input_dims = tuple(input_dims)
        self.tail: Tuple[str, ...] = ()

    def _bn(self, c):
        gamma = 0.9 + 0.2 * self.rng.random(c)
        var = 0.9 + 0.2 * self.rng.random(c)
        return BatchNormLayer(gamma, np.zeros(c), np.zeros(c), var)

    def add(self, node_id: str, layer, inputs: Optional[Tuple[str, ...]] = None) -> str:
        self.nodes.append(Node(node_id, layer,
                               self.tail if inputs is None else inputs))
        self.tail = (node_id,)
        return node_id

    def conv(self, node_id, c_in, c_out, k, stride):
        return self.add(node_id, ConvLayer(k, k, stride, (k - 1) // 2, 1, c_in, c_out,
                                           self._conv_weights(c_out, c_in, k)))

    def bn(self, node_id, c):
        return self.add(node_id, self._bn(c))

    def act(self, node_id, kind=ActivationKind.RELU6):
        return self.add(node_id, Activation(kind))

    def irb(self, prefix: str, c_in: int, c_out: int, expand_ratio: float,
            dw_kernel: int, stride: int) -> None:
        nodes, block = irb(prefix, self.tail, c_in, c_out, expand_ratio, dw_kernel,
                           stride, stride == 1 and c_in == c_out, len(self.blocks),
                           self._conv_weights, self._bn)
        self.nodes.extend(nodes)
        self.blocks.append(block)
        self.tail = (nodes[-1].node_id,)

    def build(self, metadata: Dict[str, str]) -> NetGraph:
        graph = NetGraph(tuple(self.nodes), self.input_dims, tuple(self.blocks),
                         metadata)
        validate_graph(graph)
        return graph


def mobilenet_v2(width_mult: float = 1.0, num_classes: int = 1000,
                 image_size: int = 224, seed: int = 0) -> NetGraph:
    b = _Builder((1, 3, image_size, image_size), seed)
    c = make_divisible(32 * width_mult)
    b.conv("stem_conv", 3, c, 3, 2)
    b.bn("stem_bn", c)
    b.act("stem_act")
    block = 0
    for t, base_c, n, s in MBV2_STAGES:
        c_out = make_divisible(base_c * width_mult)
        for i in range(n):
            b.irb(f"b{block}", c, c_out, t, 3, s if i == 0 else 1)
            c = c_out
            block += 1
    head = make_divisible(1280 * width_mult) if width_mult > 1.0 else 1280
    b.conv("head_conv", c, head, 1, 1)
    b.bn("head_bn", head)
    b.act("head_act")
    spatial = image_size // 32
    b.add("pool", AvgPool(spatial, spatial))
    b.add("flatten", Flatten())
    b.add("classifier", Linear(
        b.rng.standard_normal((num_classes, head)) * np.sqrt(1.0 / head),
        bias=np.zeros(num_classes)))
    return b.build({"family": "mobilenet_v2", "width_mult": str(width_mult)})


def toy_irb(n_blocks: int, channels: int = 8, image_size: int = 8,
            num_classes: int = 2, expand_ratio: float = 2.0,
            seed: int = 0) -> NetGraph:
    b = _Builder((1, 3, image_size, image_size), seed)
    b.conv("stem_conv", 3, channels, 3, 1)
    b.bn("stem_bn", channels)
    b.act("stem_act")
    for i in range(n_blocks):
        b.irb(f"b{i}", channels, channels, expand_ratio, 3, 1)
    b.add("pool", AvgPool(image_size, image_size))
    b.add("flatten", Flatten())
    b.add("classifier", Linear(
        b.rng.standard_normal((num_classes, channels)) * np.sqrt(1.0 / channels),
        bias=np.zeros(num_classes)))
    return b.build({"family": "toy_irb", "blocks": str(n_blocks)})


def vgg_toy(num_classes: int = 2, image_size: int = 16, seed: int = 0) -> NetGraph:
    """Five plain 3x3 convs; convs 2..3 are eligible for expansion
    (first two and last excluded)."""
    b = _Builder((1, 3, image_size, image_size), seed)
    plan = [(3, 8, 1), (8, 8, 2), (8, 8, 1), (8, 8, 1), (8, 8, 1)]
    for i, (c_in, c_out, s) in enumerate(plan):
        b.conv(f"conv{i}", c_in, c_out, 3, s)
        b.act(f"act{i}", ActivationKind.RELU)
    final = image_size // 2
    b.add("pool", AvgPool(final, final))
    b.add("flatten", Flatten())
    b.add("classifier", Linear(
        b.rng.standard_normal((num_classes, plan[-1][1])) * np.sqrt(1.0 / 8),
        bias=np.zeros(num_classes)))
    return b.build({"family": "vgg_toy"})


def generate(name: str, seed: int = 0) -> Tuple[NetGraph, Dict[str, List[int]]]:
    """Build a named fixture; returns (graph, reference mask vectors)."""
    if name == "mbv2":
        return mobilenet_v2(1.0, seed=seed), dict(MBV2_MASKS)
    if name == "mbv2-1.4":
        return mobilenet_v2(1.4, seed=seed), dict(MBV2_14_MASKS)
    if name == "vgg-toy":
        return vgg_toy(seed=seed), {}
    m = re.fullmatch(r"toy-irb-(\d+)", name)
    if m:
        return toy_irb(int(m.group(1)), seed=seed), {}
    raise GraphError(
        f"unknown fixture {name!r}; expected mbv2, mbv2-1.4, vgg-toy or toy-irb-N"
    )
