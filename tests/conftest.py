import numpy as np
import pytest

from blockfuse.core import (
    Activation,
    ActivationKind,
    Add,
    BatchNormLayer,
    ConvLayer,
    Tensor,
    execute_layer,
)
from blockfuse.graph import BlockAnnotation, NetGraph, Node


def conv_oracle(x, weights, bias=None, stride=1, padding=0, groups=1):
    """Independent brute-force convolution: explicit quadruple loops."""
    n, c_in, h, w = x.shape
    c_out, cg_in, kh, kw = weights.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    cg_out = c_out // groups
    out = np.zeros((n, c_out, oh, ow), dtype=x.dtype)
    for b in range(n):
        for co in range(c_out):
            g = co // cg_out
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cg_in):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky - padding
                                ix = ox * stride + kx - padding
                                if 0 <= iy < h and 0 <= ix < w:
                                    acc += x[b, g * cg_in + ci, iy, ix] * \
                                        weights[co, ci, ky, kx]
                    if bias is not None:
                        acc += bias[co]
                    out[b, co, oy, ox] = acc
    return out


# (n, c_in, c_out, k, stride, padding, groups, bias, dtype): one case per conv kernel
# path; k is an int, or (kh, kw) for a non-square kernel
CONV_CASES = [
    pytest.param(2, 4, 6, 3, 1, 0, 1, False, np.float64, id="1-0-1-False"),
    pytest.param(2, 4, 6, 3, 2, 1, 1, True, np.float64, id="2-1-1-True"),
    pytest.param(2, 4, 6, 3, 1, 2, 2, True, np.float64, id="1-2-2-True"),
    pytest.param(2, 6, 6, 3, 2, 1, 6, True, np.float64, id="depthwise-s2-p1"),
    pytest.param(3, 5, 5, 5, 1, 2, 5, False, np.float64, id="depthwise-k5-n3"),
    pytest.param(2, 4, 6, 1, 1, 0, 1, True, np.float64, id="pointwise-matmul"),
    pytest.param(2, 4, 6, 1, 2, 0, 1, False, np.float64, id="pointwise-s2-general"),
    pytest.param(2, 4, 6, 1, 1, 1, 1, True, np.float64, id="pointwise-p1-general"),
    pytest.param(2, 6, 9, 3, 2, 1, 3, True, np.float64, id="grouped-cg2-to-cg3"),
    pytest.param(2, 4, 8, 3, 1, 1, 4, False, np.float64, id="depthwise-multiplier-2"),
    pytest.param(2, 6, 6, (3, 1), 2, 1, 6, True, np.float64, id="depthwise-3x1-s2-p1"),
    pytest.param(2, 4, 6, (3, 1), 2, 1, 1, True, np.float64, id="dense-3x1-s2-p1"),
    pytest.param(2, 4, 6, 3, 1, 1, 1, True, np.float32, id="dense-f32"),
    pytest.param(2, 6, 6, 3, 2, 1, 6, True, np.float32, id="depthwise-f32"),
    pytest.param(2, 6, 9, 3, 2, 1, 3, True, np.float32, id="grouped-f32"),
]

# largest error allowed against `conv_oracle` (which sums in f64) per input dtype
CONV_TOL = {np.float64: 1e-12, np.float32: 1e-5}


def identity_conv(channels: int, dtype=np.float64) -> ConvLayer:
    """1x1 conv whose mixing matrix is the identity."""
    weights = np.eye(channels, dtype=dtype).reshape(channels, channels, 1, 1)
    return ConvLayer(1, 1, 1, 0, 1, channels, channels, weights)


def random_conv(rng, c_in, c_out, k, stride=1, padding=None, groups=1,
                bias=False) -> ConvLayer:
    """k is the kernel size, or (kh, kw) for a non-square kernel."""
    kh, kw = (k, k) if isinstance(k, int) else k
    padding = (kh - 1) // 2 if padding is None else padding
    w = rng.standard_normal((c_out, c_in // groups, kh, kw)) / np.sqrt(c_in * kh * kw)
    b = rng.standard_normal(c_out) if bias else None
    return ConvLayer(kh, kw, stride, padding, groups, c_in, c_out, w, b)


def random_bn(rng, c, biased=False) -> BatchNormLayer:
    gamma = 0.7 + 0.6 * rng.random(c)
    var = 0.7 + 0.6 * rng.random(c)
    if biased:
        beta = rng.standard_normal(c) * 0.3
        mean = rng.standard_normal(c) * 0.3
    else:
        beta = np.zeros(c)
        mean = np.zeros(c)
    return BatchNormLayer(gamma, beta, mean, var)


def irb_chain(rng, c_in, c_out, expand_ratio, k, stride, biased=False,
              act=ActivationKind.IDENTITY):
    """(node_id, layer) list for one inverted-residual chain (no Add node)."""
    hidden = int(round(expand_ratio * c_in))
    return [
        ("pw1", random_conv(rng, c_in, hidden, 1, padding=0)),
        ("bn1", random_bn(rng, hidden, biased)),
        ("act1", Activation(act)),
        ("dw", random_conv(rng, hidden, hidden, k, stride=stride, groups=hidden)),
        ("bn2", random_bn(rng, hidden, biased)),
        ("act2", Activation(act)),
        ("pw2", random_conv(rng, hidden, c_out, 1, padding=0)),
        ("bn3", random_bn(rng, c_out, biased)),
    ]


def run_chain(chain, x, residual=False):
    """Sequential reference: execute the chain layer by layer, then add the
    input back if the block has an identity skip."""
    out = x
    for _, layer in chain:
        out = execute_layer(layer, out)
    if residual:
        out = Tensor.of(out.data + x.data, precision=out.precision)
    return out


def irb_graph(rng, c_in, c_out, expand_ratio, k, stride, residual,
              image_size=9, biased=False, act=ActivationKind.IDENTITY) -> NetGraph:
    """A one-block graph: identity stem feeding a single annotated block."""
    chain = irb_chain(rng, c_in, c_out, expand_ratio, k, stride, biased, act)
    nodes = [Node("stem", identity_conv(c_in), ())]
    prev = "stem"
    ids = []
    for nid, layer in chain:
        nodes.append(Node(nid, layer, (prev,)))
        ids.append(nid)
        prev = nid
    if residual:
        nodes.append(Node("add", Add(), (prev, "stem")))
        ids.append("add")
    block = BlockAnnotation(0, "inverted_residual", tuple(ids), ("act1", "act2"))
    return NetGraph(tuple(nodes), (1, c_in, image_size, image_size), (block,), {})


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))
