"""Numerical kernels in (n, c, h, w) layout.

Convolution is one shared forward/backward kernel pair, used by both the
executor and autodiff. An average pool runs through it too, as the depthwise
conv with every tap 1/k^2 that it is (`pool_conv`). The forward is one matmul
for a plain 1x1 conv, one multiply-add per tap for a depthwise conv with at
most 16 output positions, kw column-shifted copies of the input and one GEMV
per output row (MEC) for every larger depthwise conv, and im2col plus a batched
matmul over cache-sized blocks of (sample, group) rows for every other conv, a
row too large for one column buffer going band by band over its output rows;
the backward loops over kernel taps, never over groups. The depthwise backward
and that small depthwise forward run channels-last (n, h, w, c) inside and
return C-contiguous (n, c, h, w) arrays: at the 1-16 px sizes of training, each
strided op then loops over all channels instead of a short image row, and no
caller reads a transposed view. The brute-force `conv_oracle` in the tests is
the reference both are checked against. Default precision is f64; f32 exists
only to emulate deployment error.

One (slot, field) table per layer kind (`layer_arrays`) names the arrays of
the weight table, the weight binding and the parameter count.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericError, ShapeError

DTYPES = {"f32": np.float32, "f64": np.float64}
_PRECISION_OF = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


@dataclass(frozen=True)
class Tensor:
    """Dense rank-4 array in (batch, channels, height, width) order.

    `spare` marks a buffer that no one reads after this call, so `execute_layer`
    may write its result into it."""

    data: np.ndarray
    spare: bool = field(default=False, compare=False)

    @classmethod
    def of(cls, array, precision: Optional[str] = None) -> "Tensor":
        arr = np.asarray(array)
        if precision is not None:
            arr = arr.astype(DTYPES[precision])
        elif arr.dtype not in _PRECISION_OF:
            arr = arr.astype(np.float64)
        if arr.ndim != 4:
            raise ShapeError(f"tensor must be rank 4 (n,c,h,w), got rank {arr.ndim}")
        if not np.all(np.isfinite(arr)):
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

    def apply(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """act(z), written into `out` when given; identity returns z itself."""
        if self is ActivationKind.RELU:
            return np.maximum(z, 0, out=out)
        if self is ActivationKind.RELU6:
            return np.clip(z, 0, 6, out=out)
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
    # (c_out,), or (c_out, oh, ow) for a per-position bias map; the map fixes
    # the output size, so `layer_out_dims` checks it
    bias: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.c_in % self.groups or self.c_out % self.groups:
            raise ShapeError(
                f"channels ({self.c_in}->{self.c_out}) not divisible by groups={self.groups}"
            )
        expected = (self.c_out, self.c_in // self.groups, self.kernel_h, self.kernel_w)
        if tuple(self.weights.shape) != expected:
            raise ShapeError(f"conv weights shape {self.weights.shape} != {expected}")
        if self.bias is not None and (self.bias.shape[:1] != (self.c_out,)
                                      or self.bias.ndim not in (1, 3)):
            raise ShapeError(f"conv bias shape {self.bias.shape} is neither "
                             f"({self.c_out},) nor ({self.c_out}, oh, ow)")

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

# (slot, field) of each array a layer kind holds, in weight-table order; the
# table names an array "<node_id>.<slot>"
_ARRAY_SLOTS = {
    ConvLayer: (("weight", "weights"), ("bias", "bias")),
    Linear: (("weight", "weight"), ("bias", "bias")),
    BatchNormLayer: (("gamma", "gamma"), ("beta", "beta"),
                     ("mean", "running_mean"), ("var", "running_var")),
}


def layer_arrays(layer: Layer) -> Iterator[Tuple[str, str, np.ndarray]]:
    """(slot, field, array) of each array the layer holds; an absent bias is skipped."""
    for slot, name in _ARRAY_SLOTS.get(type(layer), ()):
        arr = getattr(layer, name)
        if arr is not None:
            yield slot, name, arr


def pool_conv(layer: AvgPool, channels: int) -> ConvLayer:
    """The depthwise conv an average pool over `channels` channels is: every tap
    1/k^2, as one read-only zero-stride view."""
    k = layer.kernel
    weights = np.broadcast_to(np.float64(1.0 / (k * k)), (channels, 1, k, k))
    return ConvLayer(k, k, layer.stride, 0, channels, channels, channels, weights)


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
        if layer.bias is not None and layer.bias.shape[1:] not in ((), (oh, ow)):
            raise ShapeError(f"conv bias map {layer.bias.shape[1:]} != output {(oh, ow)}")
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


def _taps(kh: int, kw: int, stride: int, oh: int, ow: int):
    """(i, j, index) per kernel tap; the index selects the input positions
    that tap reads for every output position."""
    for i in range(kh):
        for j in range(kw):
            yield i, j, np.s_[:, :, i : i + stride * (oh - 1) + 1 : stride,
                              j : j + stride * (ow - 1) + 1 : stride]


# Scratch bytes per block of rows: padded rows plus their tap columns in
# `_grouped_forward`, shifted rows in `_depthwise_forward`. 1 MiB was the fastest
# budget tried (256 KiB to 4 MiB) over MobileNetV2's depthwise shapes at n=1 and
# n=8, when `_grouped_forward` ran them.
_BLOCK_BYTES = 1 << 20

# Largest im2col column buffer one GEMM of `_grouped_forward` reads; a row whose
# columns exceed it is built and multiplied over bands of output rows that fit
# it. Over the 18 dense 3x3 convs of MobileNetV2-1.4 and its DS-F shrink at
# 224 px, 4 MiB took 31 -> 23 ms at n=1 and 210 -> 186 ms at n=8 (medians of 15)
# against whole-sample columns; 1 MiB bands gained at n=1 only (27 and 218 ms),
# as the 1.2-1.9 MB columns of the 14 px convs then split in two.
_BAND_BYTES = 4 << 20


# Largest oh * ow for which a depthwise forward runs channels-last. On all 17
# depthwise convs of MobileNetV2-1.4 at 224 px it was 2-3x slower than the
# im2col kernel that ran them before `_depthwise_forward`.
_CL_POSITIONS = 16


def _padded_channels_last(x: np.ndarray, padding: int) -> np.ndarray:
    """x (n, c, h, w) copied once into a zeroed (n, h + 2p, w + 2p, c) buffer."""
    n, c, h, wd = x.shape
    xp = np.zeros((n, h + 2 * padding, wd + 2 * padding, c), dtype=x.dtype)
    xp[:, padding:padding + h, padding:padding + wd] = x.transpose(0, 2, 3, 1)
    return xp


def _grouped_forward(x: np.ndarray, w: np.ndarray, stride: int, padding: int,
                     groups: int, oh: int, ow: int) -> np.ndarray:
    """Grouped cross-correlation as im2col plus one batched matmul per block of rows.

    x is viewed as n*groups rows of c_in // groups channels. The rows are walked in
    cache-sized blocks: each block is copied into one zeroed, padded scratch buffer,
    its kh*kw tap windows are gathered into one (m, cg_in*kh*kw, oh*ow) column buffer
    in the order of `w`, and one matmul against each row's group weights writes the
    block's output. Every row is its own product, so the result does not depend on
    the block size. A dense conv whose sample does not fit the budget is then one
    GEMM per sample. A row whose columns exceed `_BAND_BYTES` (a large dense conv's
    sample) builds them over bands of output rows that each fit it, and each band's
    GEMM writes its own slice of the output."""
    n, c, h, wd = x.shape
    c_out, cg_in, kh, kw = w.shape
    rows, k, p = n * groups, cg_in * kh * kw, oh * ow
    hp, wp = h + 2 * padding, wd + 2 * padding
    block = max(1, min(rows, _BLOCK_BYTES // ((cg_in * hp * wp + k * p) * x.itemsize)))
    band = oh if k * p * x.itemsize <= _BAND_BYTES else \
        max(1, _BAND_BYTES // (k * ow * x.itemsize))
    src = x.reshape(rows, cg_in, h, wd)
    wg = w.reshape(groups, c_out // groups, k)
    out = np.empty((rows, c_out // groups, p), dtype=x.dtype)
    xp = np.zeros((block, cg_in, hp, wp), dtype=x.dtype)  # borders stay zero
    cols = np.empty(block * k * band * ow, dtype=x.dtype)
    for r in range(0, rows, block):
        m = min(block, rows - r)
        xb = xp[:m]
        xb[:, :, padding:padding + h, padding:padding + wd] = src[r:r + m]
        wb = wg[0] if groups == 1 else wg[np.arange(r, r + m) % groups]
        for y in range(0, oh, band):
            b = min(band, oh - y)
            xs = xb[:, :, y * stride:(y + b - 1) * stride + kh]  # the band's input rows
            cb = cols[:m * k * b * ow].reshape(m, cg_in, kh, kw, b, ow)
            for i, j, win in _taps(kh, kw, stride, b, ow):
                cb[:, :, i, j] = xs[win]
            np.matmul(wb, cb.reshape(m, k, b * ow), out=out[r:r + m, :, y * ow:(y + b) * ow])
    return out.reshape(n, c_out, oh, ow)


def _depthwise_forward(x: np.ndarray, w: np.ndarray, stride: int, padding: int,
                       oh: int, ow: int) -> np.ndarray:
    """Depthwise cross-correlation from kw column-shifted copies of x (MEC).

    x is viewed as n*c rows of one channel each, walked in blocks of `_BLOCK_BYTES`
    of scratch. Each block is copied into one zeroed (m, h+2p, kw, ow) scratch hs
    by kw strided copies, hs[r, p+y, j, x'] = x[r, y, s*x'+j-p] over each tap's valid
    x' span, so borders written zero once stay zero. Output row y's (kh*kw, ow)
    operand is then the contiguous slice of a row of hs that starts at s*y*kw*ow,
    so one window view covers every operand, and one batched GEMV per output row
    reads them in place. Every row is its own product, so the result does not
    depend on the block size."""
    n, c, h, wd = x.shape
    kh, kw = w.shape[2:]
    s, p, rows, k = stride, padding, n * c, kh * kw
    hp = h + 2 * p
    block = max(1, min(rows, _BLOCK_BYTES // (hp * kw * ow * x.itemsize)))
    src = x.reshape(rows, h, wd)
    wr = w.reshape(c, 1, 1, k)
    out = np.empty((rows, oh, 1, ow), dtype=x.dtype)
    hs = np.zeros((block, hp, kw, ow), dtype=x.dtype)  # borders stay zero
    view = sliding_window_view(hs.reshape(block, hp * kw * ow), k * ow, axis=1)
    view = view[:, ::s * kw * ow].reshape(block, oh, k, ow)
    spans = []  # tap column j fills output columns [lo, hi) from input columns a, a+s, ...
    for j in range(kw):
        lo, hi = max(0, -((j - p) // s)), min(ow, (wd - 1 + p - j) // s + 1)
        if lo < hi:
            spans.append((j, lo, hi, s * lo + j - p))
    for r in range(0, rows, block):
        m = min(block, rows - r)
        for j, lo, hi, a in spans:
            hs[:m, p:p + h, j, lo:hi] = src[r:r + m, :, a:a + s * (hi - lo - 1) + 1:s]
        np.matmul(wr[np.arange(r, r + m) % c], view[:m], out=out[r:r + m])
    return out.reshape(n, c, oh, ow)


def conv_forward(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
                 stride: int, padding: int, groups: int) -> np.ndarray:
    """Grouped cross-correlation, w: (c_out, c_in // groups, kh, kw), plus a (c_out,)
    bias or a (c_out, oh, ow) bias map. Dense 1x1 with stride 1 and no padding is one
    matmul. A depthwise conv with oh * ow <= 16 runs channels-last: one padded
    (n, h+2p, w+2p, c) copy of x, one broadcast multiply-add over the channels per
    tap, one transpose back (the 14 such convs of a MobileNetV2-1.0 forward at 32 px,
    batch 16, on 2 vCPUs: 32 -> 9 ms). A larger depthwise conv reads its taps in
    place from kw column-shifted copies of x (`_depthwise_forward`; the 17 of
    MobileNetV2-1.4 at 224 px on 2 vCPUs: 34 -> 23 ms at n=1, 303 -> 204 ms at
    n=8). Every other conv is im2col plus a batched matmul over cache-sized blocks
    of (sample, group) rows (`_grouped_forward`)."""
    n, c, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    oh, ow = conv_out_size(h, kh, stride, padding), conv_out_size(wd, kw, stride, padding)
    w = w.astype(x.dtype, copy=False)
    if (kh, kw, stride, padding, groups) == (1, 1, 1, 0, 1):
        out = np.matmul(w[:, :, 0, 0], x.reshape(n, c, h * wd)).reshape(n, c_out, oh, ow)
    elif groups == c == c_out and oh * ow > _CL_POSITIONS:
        out = _depthwise_forward(x, w, stride, padding, oh, ow)
    elif groups == c == c_out:
        xp, taps = _padded_channels_last(x, padding), _taps(kh, kw, stride, oh, ow)
        i, j, win = next(taps)  # win[1:] is the tap's (n, y, x) window of xp
        out = xp[win[1:]] * w[:, 0, i, j]
        tmp = np.empty_like(out)
        for i, j, win in taps:
            out += np.multiply(xp[win[1:]], w[:, 0, i, j], out=tmp)
        out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    else:
        out = _grouped_forward(x, w, stride, padding, groups, oh, ow)
    if b is not None:
        b = b.astype(x.dtype, copy=False)
        out += b[None, :, None, None] if b.ndim == 1 else b[None]
    return out


def conv_backward(dout: np.ndarray, x: np.ndarray, w: np.ndarray, stride: int,
                  padding: int, groups: int, input_grad: bool = True
                  ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of `conv_forward(x, w, b, ...)` given d(loss)/d(out);
    dx is None, and not computed, when `input_grad` is false.

    A depthwise conv runs channels-last, with one product buffer for every tap,
    and copies dx back to a C-contiguous (n, c, h, w) array, which the BN,
    activation and 1x1 gradients upstream then read without copies of their own."""
    n, c, h, wd = x.shape
    c_out, cg_in, kh, kw = w.shape
    oh, ow = dout.shape[2], dout.shape[3]
    db = dout.sum(axis=(0, 2, 3))
    if (kh, kw, stride, padding, groups) == (1, 1, 1, 0, 1):
        d = dout.reshape(n, c_out, oh * ow)
        dw = np.tensordot(d, x.reshape(n, c, h * wd), axes=([0, 2], [0, 2]))
        dx = np.matmul(w[:, :, 0, 0].T, d).reshape(x.shape) if input_grad else None
        return dx, dw.reshape(w.shape), db
    dw = np.empty(w.shape, dtype=w.dtype)
    if groups == c == c_out:
        # channels-last: each strided op loops over c contiguous values
        xp = _padded_channels_last(x, padding)
        dl = np.ascontiguousarray(dout.transpose(0, 2, 3, 1))
        dxp, tmp = np.zeros_like(xp), np.empty_like(dl)
        for i, j, win in _taps(kh, kw, stride, oh, ow):
            win = win[1:]  # the tap's (n, y, x) window of a channels-last array
            dw[:, 0, i, j] = np.einsum("nyxc,nyxc->c", dl, xp[win])
            if input_grad:
                dxp[win] += np.multiply(dl, w[:, 0, i, j], out=tmp)
        dx = dxp[:, padding:padding + h, padding:padding + wd].transpose(0, 3, 1, 2)
        return np.ascontiguousarray(dx) if input_grad else None, dw, db
    xp = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2)) if padding else x
    dxp = np.zeros_like(xp)
    d = dout.reshape(n, groups, c_out // groups, oh * ow)
    wg = w.reshape(groups, c_out // groups, cg_in, kh, kw)
    dwg = dw.reshape(wg.shape)
    for i, j, win in _taps(kh, kw, stride, oh, ow):
        patch = xp[win].reshape(n, groups, cg_in, oh * ow)
        dwg[..., i, j] = np.matmul(d, patch.swapaxes(-1, -2)).sum(axis=0)
        if input_grad:
            dxp[win] += np.matmul(wg[..., i, j].swapaxes(-1, -2), d).reshape(n, c, oh, ow)
    dx = dxp[:, :, padding : h + padding, padding : wd + padding] if padding else dxp
    return dx if input_grad else None, dw, db


def conv2d(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Execute one ConvLayer with `conv_forward`."""
    if x.shape[1] != layer.c_in:
        raise ShapeError(f"conv expects c_in={layer.c_in}, got {x.shape[1]} channels")
    return conv_forward(x, layer.weights, layer.bias, layer.stride, layer.padding, layer.groups)


def batchnorm(x: np.ndarray, layer: BatchNormLayer,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """bn(x), written into `out` when given (which may be x itself)."""
    scale, shift = layer.scale_shift()
    scale = scale.astype(x.dtype, copy=False)
    shift = shift.astype(x.dtype, copy=False)
    out = np.multiply(x, scale[None, :, None, None], out=out)
    out += shift[None, :, None, None]
    return out


def linear(x: np.ndarray, layer: Linear) -> np.ndarray:
    n = x.shape[0]
    flat = x.reshape(n, -1)
    out = flat @ layer.weight.astype(x.dtype, copy=False).T
    if layer.bias is not None:
        out = out + layer.bias.astype(x.dtype, copy=False)
    return out.reshape(n, -1, 1, 1)


def execute_layer(layer: Layer, *inputs: Tensor) -> Tensor:
    """Evaluate one layer on one input (two for Add).

    BN, ReLU/ReLU6 and Add write their result into a spare input's buffer, with
    the same ufuncs in the same order as into a fresh one, so the values do not
    depend on which inputs are spare."""
    if isinstance(layer, Add):
        if len(inputs) != 2:
            raise ShapeError("Add requires exactly two inputs")
        a, b = inputs
        if a.dims != b.dims:
            raise ShapeError(f"Add input dims differ: {a.dims} vs {b.dims}")
        spare = a.data if a.spare else b.data if b.spare else None
        return Tensor(np.add(a.data, b.data, out=spare))
    if len(inputs) != 1:
        raise ShapeError(f"{type(layer).__name__} requires exactly one input")
    x = inputs[0].data
    spare = x if inputs[0].spare else None
    if isinstance(layer, AvgPool):
        layer = pool_conv(layer, x.shape[1])
    if isinstance(layer, ConvLayer):
        return Tensor(conv2d(x, layer))
    if isinstance(layer, BatchNormLayer):
        return Tensor(batchnorm(x, layer, out=spare))
    if isinstance(layer, Activation):
        return Tensor(layer.kind.apply(x, out=spare))
    if isinstance(layer, Linear):
        return Tensor(linear(x, layer))
    if isinstance(layer, Flatten):
        n, c, h, w = x.shape
        return Tensor(x.reshape(n, c * h * w, 1, 1))
    raise TypeError(f"unknown layer {type(layer)!r}")
