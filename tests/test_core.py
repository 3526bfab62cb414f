from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockfuse import core
from blockfuse.core import (
    Activation,
    ActivationKind,
    Add,
    AvgPool,
    BatchNormLayer,
    ConvLayer,
    Linear,
    Tensor,
    conv2d,
    conv_out_size,
    execute_layer,
    layer_out_dims,
)
from blockfuse.errors import NumericError, ShapeError

from conftest import CONV_CASES, CONV_TOL, conv_oracle, identity_conv, random_conv


class TestTensor:
    def test_dims_and_precision(self, rng):
        t = Tensor.of(rng.standard_normal((2, 3, 4, 5)))
        assert t.dims == (2, 3, 4, 5)
        assert t.precision == "f64"
        assert Tensor.of(t.data, precision="f32").precision == "f32"

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            Tensor.of(np.zeros((2, 3, 4)))

    def test_rejects_non_finite_in_checked_mode(self):
        bad = np.zeros((1, 1, 2, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError):
            Tensor.of(bad)


class TestConv:
    def test_identity_1x1_conv_passes_input_through(self, rng):
        x = Tensor.of(rng.standard_normal((1, 2, 5, 5)))
        out = execute_layer(identity_conv(2), x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_depthwise_matches_quadruple_loop_oracle(self, rng):
        x = rng.standard_normal((1, 4, 8, 8))
        layer = random_conv(rng, 4, 4, 3, groups=4)
        out = execute_layer(layer, Tensor.of(x))
        expected = conv_oracle(x, layer.weights, stride=1, padding=1, groups=4)
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    @pytest.mark.parametrize("n,c_in,c_out,k,stride,padding,groups,bias,dtype", CONV_CASES)
    def test_general_conv_matches_oracle(self, rng, n, c_in, c_out, k, stride, padding,
                                         groups, bias, dtype):
        x = rng.standard_normal((n, c_in, 7, 7)).astype(dtype)
        layer = random_conv(rng, c_in, c_out, k, stride=stride, padding=padding,
                            groups=groups, bias=bias)
        out = execute_layer(layer, Tensor.of(x))
        assert out.data.dtype == dtype
        expected = conv_oracle(x.astype(np.float64), layer.weights, layer.bias, stride,
                               padding, groups)
        assert np.max(np.abs(out.data - expected)) <= CONV_TOL[dtype]

    def test_grouped_conv_equals_concatenated_dense_convs(self, rng):
        g = 2
        x = rng.standard_normal((1, 6, 6, 6))
        layer = random_conv(rng, 6, 4, 3, groups=g)
        out = execute_layer(layer, Tensor.of(x)).data
        parts = []
        for i in range(g):
            sub = ConvLayer(3, 3, 1, 1, 1, 3, 2, layer.weights[i * 2:(i + 1) * 2])
            parts.append(execute_layer(sub, Tensor.of(x[:, i * 3:(i + 1) * 3])).data)
        assert np.max(np.abs(out - np.concatenate(parts, axis=1))) <= 1e-12

    def test_channel_mismatch_names_axis(self, rng):
        layer = random_conv(rng, 4, 4, 3)
        with pytest.raises(ShapeError, match="c_in"):
            execute_layer(layer, Tensor.of(rng.standard_normal((1, 3, 5, 5))))

    def test_weight_shape_validation(self):
        with pytest.raises(ShapeError):
            ConvLayer(3, 3, 1, 1, 1, 2, 2, np.zeros((2, 2, 3, 4)))
        with pytest.raises(ShapeError):
            ConvLayer(3, 3, 1, 1, 3, 2, 2, np.zeros((2, 1, 3, 3)))

    @pytest.mark.parametrize("n,c_in,c_out,k,stride,padding,groups,bias,dtype", CONV_CASES)
    def test_bias_map_matches_oracle_plus_map(self, rng, n, c_in, c_out, k, stride,
                                              padding, groups, bias, dtype):
        x = rng.standard_normal((n, c_in, 7, 7)).astype(dtype)
        layer = random_conv(rng, c_in, c_out, k, stride=stride, padding=padding,
                            groups=groups)
        oh, ow = layer_out_dims(layer, x.shape)[2:]
        bias_map = rng.standard_normal((c_out, oh, ow))
        mapped = replace(layer, bias=bias_map)
        assert layer_out_dims(mapped, x.shape) == (n, c_out, oh, ow)
        out = execute_layer(mapped, Tensor.of(x)).data
        expected = conv_oracle(x.astype(np.float64), layer.weights, None, stride, padding,
                               groups) + bias_map
        assert np.max(np.abs(out - expected)) <= CONV_TOL[dtype]

    def test_bias_map_shape_checks(self, rng):
        layer = random_conv(rng, 2, 3, 3)
        with pytest.raises(ShapeError, match="bias"):
            replace(layer, bias=np.zeros((3, 5)))
        with pytest.raises(ShapeError, match="bias"):
            replace(layer, bias=np.zeros((2, 5, 5)))
        with pytest.raises(ShapeError, match="bias map"):
            layer_out_dims(replace(layer, bias=np.zeros((3, 4, 5))), (1, 2, 5, 5))

    def test_f32_mode(self, rng):
        x = Tensor.of(rng.standard_normal((1, 2, 4, 4)), precision="f32")
        out = execute_layer(random_conv(rng, 2, 2, 3), x)
        assert out.precision == "f32"


# every case that `conv_forward` sends to the blocked kernel: all but the plain 1x1
BLOCKED_CASES = [p for p in CONV_CASES if p.values[3:7] != (1, 1, 0, 1)]


def _small_blocks(monkeypatch, x, layer):
    """Shrink the block budget so the n*groups rows of x run in several blocks,
    the last one partial."""
    n, c, h, w = x.shape
    rows, cg_in, pad = n * layer.groups, c // layer.groups, layer.padding
    oh, ow = layer_out_dims(layer, x.shape)[2:]
    if layer.is_depthwise:  # `_depthwise_forward`'s (h+2p, kw, ow) shifted rows
        row_bytes = (h + 2 * pad) * layer.kernel_w * ow * x.itemsize
    else:  # `_grouped_forward`'s padded rows plus their tap columns
        taps = layer.kernel_h * layer.kernel_w
        row_bytes = cg_in * ((h + 2 * pad) * (w + 2 * pad) + taps * oh * ow) * x.itemsize
    block = next(b for b in range(2, rows) if rows % b)
    monkeypatch.setattr(core, "_BLOCK_BYTES", block * row_bytes)


def _spy(monkeypatch, kernel: str) -> list:
    """Record each call `conv_forward` makes to the named forward kernel of `core`."""
    calls, real = [], getattr(core, kernel)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(core, kernel, spy)
    return calls


class TestDepthwiseBlocking:
    """The two blocked kernels: `_depthwise_forward` for the depthwise convs with
    more than `_CL_POSITIONS` output positions, and im2col for every other conv
    but the plain 1x1 one."""

    @pytest.mark.parametrize("n,c_in,c_out,k,stride,padding,groups,bias,dtype",
                             BLOCKED_CASES)
    def test_small_blocks_match_default_and_oracle(self, rng, monkeypatch, n, c_in, c_out,
                                                   k, stride, padding, groups, bias, dtype):
        # three samples at least, so a dense conv (one row per sample) has a
        # partial last block too; 9x9, so every depthwise output has more than
        # `_CL_POSITIONS` positions and runs `_depthwise_forward`
        x = rng.standard_normal((max(n, 3), c_in, 9, 9)).astype(dtype)
        x_before = x.copy()
        layer = random_conv(rng, c_in, c_out, k, stride=stride, padding=padding,
                            groups=groups, bias=bias)
        calls = _spy(monkeypatch, "_depthwise_forward" if layer.is_depthwise
                     else "_grouped_forward")
        default = conv2d(x, layer)
        assert len(calls) == 1
        _small_blocks(monkeypatch, x, layer)
        blocked = conv2d(x, layer)
        assert blocked.dtype == dtype
        assert np.array_equal(blocked, default)
        expected = conv_oracle(x.astype(np.float64), layer.weights, layer.bias, stride,
                               padding, groups)
        assert np.max(np.abs(blocked - expected)) <= CONV_TOL[dtype]
        np.testing.assert_array_equal(x, x_before)


def _spy_taps(monkeypatch) -> list:
    """Record the output rows of each band that `_grouped_forward` gathers."""
    rows, real = [], core._taps

    def spy(kh, kw, stride, oh, ow):
        rows.append(oh)
        return real(kh, kw, stride, oh, ow)

    monkeypatch.setattr(core, "_taps", spy)
    return rows


# (k, stride, padding, groups, bias_map) of the banded forward cases; k is an int,
# or (kh, kw)
BAND_CASES = [
    pytest.param(k, stride, padding, groups, bias_map,
                 id=f"k{k}-s{stride}-p{padding}-g{groups}-{'map' if bias_map else 'vec'}"
                 .replace("(3, 1)", "3x1"))
    for k, stride, padding, groups, bias_map in [
        (3, 1, 0, 1, False), (3, 1, 1, 1, True), (3, 2, 1, 1, False), (3, 2, 2, 1, True),
        ((3, 1), 1, 2, 1, False), ((3, 1), 2, 0, 1, True), ((3, 1), 2, 1, 1, False),
        (3, 2, 1, 2, True)]
]


class TestBandedForward:
    """A row whose im2col columns exceed `_BAND_BYTES` is built and multiplied over
    bands of output rows."""

    @staticmethod
    def _case(rng, monkeypatch, k, stride, padding, groups, bias_map, dtype, n=3):
        layer = random_conv(rng, 4, 6, k, stride=stride, padding=padding, groups=groups)
        x = rng.standard_normal((n, 4, 11, 9)).astype(dtype)
        oh, ow = layer_out_dims(layer, x.shape)[2:]
        bias = rng.standard_normal((6, oh, ow) if bias_map else 6)
        # a few output rows per band, the last band partial
        band = next(b for b in range(2, oh) if oh % b)
        k_rows = (4 // groups) * layer.kernel_h * layer.kernel_w
        monkeypatch.setattr(core, "_BAND_BYTES", band * k_rows * ow * x.itemsize)
        return replace(layer, bias=bias), x, band, oh

    @pytest.mark.parametrize("k,stride,padding,groups,bias_map", BAND_CASES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bands_match_oracle(self, rng, monkeypatch, k, stride, padding, groups,
                                bias_map, dtype):
        layer, x, band, oh = self._case(rng, monkeypatch, k, stride, padding, groups,
                                        bias_map, dtype)
        x_before = x.copy()
        bands = _spy_taps(monkeypatch)
        y = conv2d(x, layer)
        assert bands == [band] * (oh // band) + [oh % band]  # the banded path ran
        assert y.dtype == dtype and y.flags.c_contiguous
        np.testing.assert_array_equal(x, x_before)
        bias = layer.bias if bias_map else layer.bias[:, None, None]
        expected = conv_oracle(x.astype(np.float64), layer.weights, None, stride, padding,
                               groups) + bias
        assert np.max(np.abs(y - expected)) <= CONV_TOL[dtype]

    @pytest.mark.parametrize("k,stride,padding,groups,bias_map", BAND_CASES)
    def test_batched_sample_equals_its_single_run(self, rng, monkeypatch, k, stride,
                                                  padding, groups, bias_map):
        layer, x, _, _ = self._case(rng, monkeypatch, k, stride, padding, groups,
                                    bias_map, np.float64)
        y = conv2d(x, layer)
        for i in range(x.shape[0]):
            np.testing.assert_array_equal(y[i:i + 1], conv2d(x[i:i + 1], layer))


def _dw_input_size(out, k, stride, padding):
    """(h, w) whose depthwise output is out x out; at stride 2 the last input row
    and column get no tap. k is an int, or (kh, kw)."""
    kh, kw = (k, k) if isinstance(k, int) else k
    return tuple((out - 1) * stride + kk - 2 * padding + stride - 1 for kk in (kh, kw))


# (out, k, stride, padding) for the depthwise forward tests, with outputs on both
# sides of `core._CL_POSITIONS`; output sizes that no input reaches are left out
DW_CASES = [
    pytest.param(out, k, stride, padding,
                 id=f"out{out}-k{k}-s{stride}-p{padding}".replace("(3, 1)", "3x1"))
    for out in (1, 2, 4, 5, 7)
    for k, stride, padding in [(3, 1, 1), (3, 2, 1), (3, 1, 0), (3, 2, 0), (3, 1, 2),
                               (5, 1, 2), (5, 2, 2), ((3, 1), 1, 0), ((3, 1), 2, 1)]
    if min(_dw_input_size(out, k, stride, padding)) >= 1
]


class TestDepthwiseForward:
    """Both depthwise forward kernels: channels-last up to `_CL_POSITIONS` output
    positions, `_depthwise_forward` above."""

    @staticmethod
    def _case(rng, out, k, stride, padding, n=3, c=5):
        layer = random_conv(rng, c, c, k, stride=stride, padding=padding, groups=c)
        return layer, rng.standard_normal((n, c) + _dw_input_size(out, k, stride, padding))

    @pytest.mark.parametrize("out,k,stride,padding", DW_CASES)
    @pytest.mark.parametrize("dtype,bias_map", [(np.float64, False), (np.float32, True)])
    def test_both_sides_of_the_rule_match_oracle(self, rng, monkeypatch, out, k, stride,
                                                 padding, dtype, bias_map):
        layer, x = self._case(rng, out, k, stride, padding)
        bias = rng.standard_normal((layer.c_out, out, out) if bias_map else layer.c_out)
        layer = replace(layer, bias=bias)
        x = x.astype(dtype)
        x_before = x.copy()
        calls = _spy(monkeypatch, "_depthwise_forward")
        im2col = _spy(monkeypatch, "_grouped_forward")
        y = conv2d(x, layer)
        assert len(calls) == (out * out > 16)  # the documented oh * ow <= 16 rule
        assert not im2col
        assert y.shape == (x.shape[0], layer.c_out, out, out)
        assert y.dtype == dtype and y.flags.c_contiguous
        np.testing.assert_array_equal(x, x_before)
        expected = conv_oracle(x.astype(np.float64), layer.weights, None, stride, padding,
                               layer.groups) + (bias if bias_map else bias[:, None, None])
        assert np.max(np.abs(y - expected)) <= CONV_TOL[dtype]

    @pytest.mark.parametrize("out,k,stride,padding", DW_CASES)
    def test_batched_sample_equals_its_single_run(self, rng, out, k, stride, padding):
        layer, x = self._case(rng, out, k, stride, padding)
        y = conv2d(x, layer)
        for i in range(x.shape[0]):
            np.testing.assert_array_equal(y[i:i + 1], conv2d(x[i:i + 1], layer))

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(h=st.integers(1, 12), w=st.integers(1, 12), kh=st.integers(1, 5),
           kw=st.integers(1, 5), stride=st.integers(1, 3), padding=st.integers(0, 4),
           n=st.integers(1, 3), c=st.integers(1, 6),
           dtype=st.sampled_from([np.float64, np.float32]),
           bias=st.sampled_from([None, "vector", "map"]), block=st.integers(1, 18),
           seed=st.integers(0, 2**16))
    def test_shifted_rows_kernel_matches_oracle(self, h, w, kh, kw, stride, padding, n, c,
                                                dtype, bias, block, seed):
        # padding may reach past the kernel, so some taps read no input column
        assume(h + 2 * padding >= kh and w + 2 * padding >= kw)
        rng = np.random.default_rng(seed)
        layer = random_conv(rng, c, c, (kh, kw), stride=stride, padding=padding, groups=c)
        oh, ow = layer_out_dims(layer, (n, c, h, w))[2:]
        b = None if bias is None else rng.standard_normal((c, oh, ow) if bias == "map" else c)
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        x_before = x.copy()
        row_bytes = (h + 2 * padding) * kw * ow * x.itemsize
        wx = layer.weights.astype(dtype)
        with mock.patch.object(core, "_CL_POSITIONS", 0):  # every size takes the kernel
            y = core.conv_forward(x, wx, b, stride, padding, c)
            with mock.patch.object(core, "_BLOCK_BYTES", block * row_bytes):
                blocked = core.conv_forward(x, wx, b, stride, padding, c)
        assert y.shape == (n, c, oh, ow) and y.dtype == dtype and y.flags.c_contiguous
        assert np.array_equal(blocked, y)  # the block size does not change a bit
        np.testing.assert_array_equal(x, x_before)
        expected = conv_oracle(x.astype(np.float64), layer.weights, b if bias == "vector"
                               else None, stride, padding, c)
        if bias == "map":
            expected += b
        assert np.max(np.abs(y - expected)) <= CONV_TOL[dtype]


class TestOtherLayers:
    def test_relu6_clamps(self):
        x = Tensor.of(np.array([-1.0, 3.0, 9.0]).reshape(1, 1, 1, 3))
        out = execute_layer(Activation(ActivationKind.RELU6), x)
        np.testing.assert_array_equal(out.data.ravel(), [0.0, 3.0, 6.0])

    def test_relu_and_identity(self):
        x = Tensor.of(np.array([-2.0, 5.0]).reshape(1, 1, 1, 2))
        relu = execute_layer(Activation(ActivationKind.RELU), x)
        np.testing.assert_array_equal(relu.data.ravel(), [0.0, 5.0])
        ident = execute_layer(Activation(ActivationKind.IDENTITY), x)
        np.testing.assert_array_equal(ident.data, x.data)

    def test_batchnorm_affine(self, rng):
        eps = 1e-12
        bn = BatchNormLayer(np.array([2.0]), np.array([1.0]), np.array([3.0]),
                            np.array([4.0]), epsilon=eps)
        x = Tensor.of(np.full((1, 1, 1, 1), 5.0))
        out = execute_layer(bn, x)
        assert out.data.ravel()[0] == pytest.approx((5 - 3) / np.sqrt(4 + eps) * 2 + 1)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_batchnorm_equals_scale_shift_bit_for_bit(self, rng, precision):
        c = 5
        bn = BatchNormLayer(0.7 + rng.random(c), rng.standard_normal(c),
                            rng.standard_normal(c), 0.5 + rng.random(c))
        x = Tensor.of(rng.standard_normal((2, c, 4, 3)), precision=precision)
        x_before = x.data.copy()
        scale, shift = (v.astype(x.data.dtype)[None, :, None, None] for v in bn.scale_shift())
        out = execute_layer(bn, x)
        assert out.precision == precision
        assert np.array_equal(out.data, x.data * scale + shift)
        np.testing.assert_array_equal(x.data, x_before)

    def test_batchnorm_invariants(self):
        with pytest.raises(ShapeError):
            BatchNormLayer(np.ones(2), np.zeros(3), np.zeros(2), np.ones(2))
        with pytest.raises(NumericError):
            BatchNormLayer(np.ones(1), np.zeros(1), np.zeros(1), -np.ones(1))

    def test_avgpool(self):
        x = Tensor.of(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        out = execute_layer(AvgPool(2, 2), x)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    # 1/9 is inexact, so the pool, a sum of x/9 terms, is not the rounded mean;
    # 11 px runs the im2col forward, 5 px the channels-last one
    @pytest.mark.parametrize("precision,tol", [("f64", 1e-14), ("f32", 1e-6)])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("size", [11, 5])
    def test_avgpool_is_the_window_mean(self, rng, precision, tol, stride, size):
        x = Tensor.of(rng.standard_normal((2, 3, size, size + 1)), precision)
        out = execute_layer(AvgPool(3, stride), x).data
        oh, ow = (size - 3) // stride + 1, (size - 2) // stride + 1
        expect = np.empty((2, 3, oh, ow))
        for i in range(oh):
            for j in range(ow):
                win = x.data[:, :, i * stride:i * stride + 3, j * stride:j * stride + 3]
                expect[:, :, i, j] = win.astype(np.float64).mean(axis=(2, 3))
        assert out.dtype == x.data.dtype and out.shape == expect.shape
        assert np.max(np.abs(out - expect)) <= tol * np.max(np.abs(expect))

    @pytest.mark.parametrize("make,slots", [
        (lambda rng: random_conv(rng, 2, 3, 3), {"weight": "weights"}),
        (lambda rng: random_conv(rng, 2, 3, 3, bias=True),
         {"weight": "weights", "bias": "bias"}),
        (lambda rng: replace(random_conv(rng, 2, 3, 3),
                             bias=rng.standard_normal((3, 4, 4))),
         {"weight": "weights", "bias": "bias"}),
        (lambda rng: Linear(rng.standard_normal((2, 5)), rng.standard_normal(2)),
         {"weight": "weight", "bias": "bias"}),
        (lambda rng: Linear(rng.standard_normal((2, 5))), {"weight": "weight"}),
        (lambda rng: BatchNormLayer(rng.random(3), rng.random(3), rng.random(3),
                                    rng.random(3)),
         {"gamma": "gamma", "beta": "beta", "mean": "running_mean",
          "var": "running_var"}),
        (lambda rng: AvgPool(2, 2), {}),
        (lambda rng: Activation(), {}),
        (lambda rng: Add(), {}),
        (lambda rng: core.Flatten(), {}),
    ], ids=["conv", "conv-bias", "conv-bias-map", "linear-bias", "linear", "bn",
            "avgpool", "act", "add", "flatten"])
    def test_layer_arrays_lists_exactly_the_layer_arrays(self, rng, make, slots):
        layer = make(rng)
        listed = list(core.layer_arrays(layer))
        assert [(slot, name) for slot, name, _ in listed] == list(slots.items())
        assert all(arr is getattr(layer, name) for _, name, arr in listed)

    def test_linear(self, rng):
        w = rng.standard_normal((3, 8))
        b = rng.standard_normal(3)
        x = rng.standard_normal((2, 2, 2, 2))
        out = execute_layer(Linear(w, b), Tensor.of(x))
        expected = x.reshape(2, 8) @ w.T + b
        np.testing.assert_allclose(out.data.reshape(2, 3), expected)

    def test_add_requires_matching_dims(self, rng):
        a = Tensor.of(rng.standard_normal((1, 2, 3, 3)))
        b = Tensor.of(rng.standard_normal((1, 3, 3, 3)))
        with pytest.raises(ShapeError):
            execute_layer(Add(), a, b)
        out = execute_layer(Add(), a, a)
        np.testing.assert_array_equal(out.data, 2 * a.data)


LAYER_KINDS = [
    pytest.param(lambda rng: random_conv(rng, 3, 3, 3, bias=True), id="conv"),
    pytest.param(lambda rng: BatchNormLayer(0.5 + rng.random(3), rng.standard_normal(3),
                                            rng.standard_normal(3), 0.5 + rng.random(3)),
                 id="bn"),
    pytest.param(lambda rng: Activation(ActivationKind.RELU), id="relu"),
    pytest.param(lambda rng: Activation(ActivationKind.RELU6), id="relu6"),
    pytest.param(lambda rng: Activation(ActivationKind.IDENTITY), id="identity"),
    pytest.param(lambda rng: AvgPool(2, 2), id="avgpool"),
    pytest.param(lambda rng: Linear(rng.standard_normal((2, 48)), rng.standard_normal(2)),
                 id="linear"),
    pytest.param(lambda rng: Add(), id="add"),
    pytest.param(lambda rng: core.Flatten(), id="flatten"),
]


class TestSpareInputs:
    @pytest.mark.parametrize("make", LAYER_KINDS)
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_spare_input_gives_the_same_bits(self, rng, make, precision):
        layer = make(rng)
        xs = [Tensor.of(rng.standard_normal((2, 3, 4, 4)) * 4, precision)
              for _ in range(2 if isinstance(layer, Add) else 1)]
        fresh = execute_layer(layer, *xs).data
        for which in range(len(xs)):  # each input of Add in turn
            ins = [Tensor(x.data.copy(), spare=i == which) for i, x in enumerate(xs)]
            out = execute_layer(layer, *ins).data
            assert np.array_equal(out, fresh) and out.dtype == fresh.dtype
            # BN, ReLU/ReLU6 and Add reuse the spare buffer; identity and Flatten
            # return it; the others allocate
            reused = not isinstance(layer, (ConvLayer, AvgPool, Linear))
            assert np.shares_memory(out, ins[which].data) == reused


class TestProperties:
    @given(in_size=st.integers(3, 20), k=st.integers(1, 5),
           s=st.integers(1, 3), p=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_shape_law(self, in_size, k, s, p):
        if in_size + 2 * p < k:
            return
        rng = np.random.Generator(np.random.PCG64(0))
        layer = random_conv(rng, 1, 1, k, stride=s, padding=p)
        out = execute_layer(layer, Tensor.of(rng.standard_normal((1, 1, in_size, in_size))))
        expect = (in_size + 2 * p - k) // s + 1
        assert out.dims[2] == expect == conv_out_size(in_size, k, s, p)

    @pytest.mark.parametrize("make", [
        lambda rng: random_conv(rng, 3, 4, 3),
        lambda rng: BatchNormLayer(rng.standard_normal(3), np.zeros(3),
                                   np.zeros(3), 1 + rng.random(3)),
        lambda rng: AvgPool(2, 2),
        lambda rng: Linear(rng.standard_normal((2, 48))),
    ])
    def test_linearity_without_bias(self, rng, make):
        layer = make(rng)
        x = rng.standard_normal((1, 3, 4, 4))
        y = rng.standard_normal((1, 3, 4, 4))
        a, b = 1.7, -0.3
        lhs = execute_layer(layer, Tensor.of(a * x + b * y)).data
        rhs = a * execute_layer(layer, Tensor.of(x)).data + \
            b * execute_layer(layer, Tensor.of(y)).data
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_determinism_bit_identical(self, rng):
        layer = random_conv(rng, 3, 5, 3, bias=True)
        x = Tensor.of(rng.standard_normal((2, 3, 6, 6)))
        a = execute_layer(layer, x).data
        b = execute_layer(layer, x).data
        assert np.array_equal(a, b)
