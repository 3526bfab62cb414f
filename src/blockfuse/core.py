"""Reference numerical kernels in (n, c, h, w) layout.

Convolution is computed by direct summation (no FFT / Winograd / im2col),
so this module is the ground-truth executor every merge is checked against.
Default precision is f64; f32 exists only to emulate deployment error.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import NumericError, ShapeError

DTYPES = {"f32": np.float32, "f64": np.float64}
_PRECISION_OF = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


@dataclass(frozen=True)
class Tensor:
    """Dense rank-4 array in (batch, channels, height, width) order."""

    data: np.ndarray

    @classmethod
    def of(cls, array, precision: Optional[str] = None, checked: bool = True) -> "Tensor":
        arr = np.asarray(array)
        if precision is not None:
            arr = arr.astype(DTYPES[precision])
        elif arr.dtype not in _PRECISION_OF:
            arr = arr.astype(np.float64)
        if arr.ndim != 4:
            raise ShapeError(f"tensor must be rank 4 (n,c,h,w), got rank {arr.ndim}")
        if checked and not np.all(np.isfinite(arr)):
            raise NumericError("non-finite values in tensor")
        return cls(np.ascontiguousarray(arr))

    @property
    def dims(self) -> tuple:
        return tuple(self.data.shape)

    @property
    def precision(self) -> str:
        return _PRECISION_OF[self.data.dtype]


class ActivationKind(Enum):
    RELU = "relu"
    RELU6 = "relu6"
    IDENTITY = "identity"

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self is ActivationKind.RELU:
            return np.maximum(z, 0)
        if self is ActivationKind.RELU6:
            return np.clip(z, 0, 6)
        return z


@dataclass(frozen=True)
class ConvLayer:
    """2-D convolution; depthwise is the special case groups == c_in == c_out."""

    kernel_h: int
    kernel_w: int
    stride: int
    padding: int
    groups: int
    c_in: int
    c_out: int
    weights: np.ndarray  # (c_out, c_in // groups, kernel_h, kernel_w)
    bias: Optional[np.ndarray] = None  # (c_out,)

    def __post_init__(self):
        if self.c_in % self.groups or self.c_out % self.groups:
            raise ShapeError(
                f"channels ({self.c_in}->{self.c_out}) not divisible by groups={self.groups}"
            )
        expected = (self.c_out, self.c_in // self.groups, self.kernel_h, self.kernel_w)
        if tuple(self.weights.shape) != expected:
            raise ShapeError(f"conv weights shape {self.weights.shape} != {expected}")
        if self.bias is not None and self.bias.shape != (self.c_out,):
            raise ShapeError(f"conv bias shape {self.bias.shape} != ({self.c_out},)")

    @property
    def is_depthwise(self) -> bool:
        return self.groups == self.c_in == self.c_out


@dataclass(frozen=True)
class BatchNormLayer:
    """Inference-mode batch norm: frozen running statistics, affine transform."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5

    def __post_init__(self):
        c = len(self.gamma)
        for name in ("beta", "running_mean", "running_var"):
            if len(getattr(self, name)) != c:
                raise ShapeError(f"bn {name} length != {c}")
        if np.any(self.running_var < 0):
            raise NumericError("bn running_var must be >= 0")
        if self.epsilon <= 0:
            raise NumericError("bn epsilon must be > 0")

    @property
    def channels(self) -> int:
        return len(self.gamma)

    def scale_shift(self):
        """Per-channel (scale, shift) so that bn(x) == scale * x + shift."""
        scale = self.gamma / np.sqrt(self.running_var + self.epsilon)
        return scale, self.beta - self.running_mean * scale


@dataclass(frozen=True)
class Activation:
    kind: ActivationKind = ActivationKind.RELU6


@dataclass(frozen=True)
class AvgPool:
    kernel: int
    stride: int


@dataclass(frozen=True)
class Linear:
    weight: np.ndarray  # (out_features, in_features)
    bias: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Add:
    pass


@dataclass(frozen=True)
class Flatten:
    pass


Layer = Union[ConvLayer, BatchNormLayer, Activation, AvgPool, Linear, Add, Flatten]


def conv_out_size(in_size: int, kernel: int, stride: int, padding: int) -> int:
    out = (in_size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"spatial size {in_size} too small for kernel={kernel} stride={stride} pad={padding}"
        )
    return out


def layer_out_dims(layer: Layer, dims: tuple) -> tuple:
    """Shape inference for a single layer; raises ShapeError on mismatch."""
    n, c, h, w = dims
    if isinstance(layer, ConvLayer):
        if c != layer.c_in:
            raise ShapeError(f"conv expects c_in={layer.c_in}, got {c} channels")
        oh = conv_out_size(h, layer.kernel_h, layer.stride, layer.padding)
        ow = conv_out_size(w, layer.kernel_w, layer.stride, layer.padding)
        return (n, layer.c_out, oh, ow)
    if isinstance(layer, BatchNormLayer):
        if c != layer.channels:
            raise ShapeError(f"bn expects {layer.channels} channels, got {c}")
        return dims
    if isinstance(layer, Activation):
        return dims
    if isinstance(layer, AvgPool):
        oh = conv_out_size(h, layer.kernel, layer.stride, 0)
        ow = conv_out_size(w, layer.kernel, layer.stride, 0)
        return (n, c, oh, ow)
    if isinstance(layer, Linear):
        out_f, in_f = layer.weight.shape
        if c * h * w != in_f:
            raise ShapeError(f"linear expects {in_f} features, got {c * h * w}")
        return (n, out_f, 1, 1)
    if isinstance(layer, Flatten):
        return (n, c * h * w, 1, 1)
    raise TypeError(f"unknown layer {type(layer)!r}")


def conv2d(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Direct-summation grouped convolution (cross-correlation orientation)."""
    n, c, h, w = x.shape
    if c != layer.c_in:
        raise ShapeError(f"conv expects c_in={layer.c_in}, got {c} channels")
    kh, kw, s, p = layer.kernel_h, layer.kernel_w, layer.stride, layer.padding
    oh = conv_out_size(h, kh, s, p)
    ow = conv_out_size(w, kw, s, p)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    weight = layer.weights.astype(x.dtype, copy=False)
    out = np.zeros((n, layer.c_out, oh, ow), dtype=x.dtype)
    cg_in = layer.c_in // layer.groups
    cg_out = layer.c_out // layer.groups
    for g in range(layer.groups):
        xg = xp[:, g * cg_in : (g + 1) * cg_in]
        wg = weight[g * cg_out : (g + 1) * cg_out]
        og = out[:, g * cg_out : (g + 1) * cg_out]
        for i in range(kh):
            for j in range(kw):
                patch = xg[:, :, i : i + s * (oh - 1) + 1 : s, j : j + s * (ow - 1) + 1 : s]
                og += np.einsum("ncyx,oc->noyx", patch, wg[:, :, i, j])
    if layer.bias is not None:
        out += layer.bias.astype(x.dtype, copy=False)[None, :, None, None]
    return out


def batchnorm(x: np.ndarray, layer: BatchNormLayer) -> np.ndarray:
    scale, shift = layer.scale_shift()
    scale = scale.astype(x.dtype, copy=False)
    shift = shift.astype(x.dtype, copy=False)
    return x * scale[None, :, None, None] + shift[None, :, None, None]


def avgpool2d(x: np.ndarray, layer: AvgPool) -> np.ndarray:
    n, c, h, w = x.shape
    k, s = layer.kernel, layer.stride
    oh = conv_out_size(h, k, s, 0)
    ow = conv_out_size(w, k, s, 0)
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            out += x[:, :, i : i + s * (oh - 1) + 1 : s, j : j + s * (ow - 1) + 1 : s]
    return out / (k * k)


def linear(x: np.ndarray, layer: Linear) -> np.ndarray:
    n = x.shape[0]
    flat = x.reshape(n, -1)
    out = flat @ layer.weight.astype(x.dtype, copy=False).T
    if layer.bias is not None:
        out = out + layer.bias.astype(x.dtype, copy=False)
    return out.reshape(n, -1, 1, 1)


def execute_layer(layer: Layer, *inputs: Tensor) -> Tensor:
    """Evaluate one layer on one input (two for Add)."""
    if isinstance(layer, Add):
        if len(inputs) != 2:
            raise ShapeError("Add requires exactly two inputs")
        a, b = inputs
        if a.dims != b.dims:
            raise ShapeError(f"Add input dims differ: {a.dims} vs {b.dims}")
        return Tensor(a.data + b.data)
    if len(inputs) != 1:
        raise ShapeError(f"{type(layer).__name__} requires exactly one input")
    x = inputs[0].data
    if isinstance(layer, ConvLayer):
        return Tensor(conv2d(x, layer))
    if isinstance(layer, BatchNormLayer):
        return Tensor(batchnorm(x, layer))
    if isinstance(layer, Activation):
        return Tensor(layer.kind.apply(x))
    if isinstance(layer, AvgPool):
        return Tensor(avgpool2d(x, layer))
    if isinstance(layer, Linear):
        return Tensor(linear(x, layer))
    if isinstance(layer, Flatten):
        n, c, h, w = x.shape
        return Tensor(x.reshape(n, c * h * w, 1, 1))
    raise TypeError(f"unknown layer {type(layer)!r}")


def identity_conv(channels: int, dtype=np.float64) -> ConvLayer:
    """1x1 conv whose mixing matrix is the identity."""
    weights = np.eye(channels, dtype=dtype).reshape(channels, channels, 1, 1)
    return ConvLayer(1, 1, 1, 0, 1, channels, channels, weights)
