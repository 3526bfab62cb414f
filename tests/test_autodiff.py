from dataclasses import replace

import numpy as np
import pytest

import blockfuse.autodiff as autodiff_module
from blockfuse.autodiff import (
    MaskState,
    backward,
    extract_params,
    forward_masked,
    forward_untaped,
    topk_binarize,
)
from blockfuse.core import (
    Activation,
    ActivationKind,
    AvgPool,
    BatchNormLayer,
    ConvLayer,
    Tensor,
    conv_backward,
    conv_forward,
    pool_conv,
)
from blockfuse.errors import GraphError, NumericError, ShapeError
from blockfuse.fixtures import mobilenet_v2, toy_irb
from blockfuse.graph import BlockAnnotation, NetGraph, Node, apply_mask_vector, execute_graph
from blockfuse.io import bind_weights
from blockfuse.merge import shrink_graph

from conftest import CONV_CASES, CONV_TOL, conv_oracle, gate_oracle, random_conv


def _scalar_loss_setup(seed=0, n_blocks=2, channels=6, image=6):
    graph = toy_irb(n_blocks, channels=channels, image_size=image, seed=seed)
    params = extract_params(graph)
    rng = np.random.Generator(np.random.PCG64(seed + 100))
    # nonzero shifts move every pre-activation off the kink points
    for name in list(params):
        if name.endswith(".beta"):
            params[name] = params[name] + 0.05 + 0.1 * rng.random(params[name].shape)
    x = rng.standard_normal((2, 3, image, image))
    lw = rng.standard_normal((2, 2, 1, 1))  # fixed loss weights over the logits
    return graph, params, x, lw


def _loss(graph, params, state, x, lw):
    out, tape = forward_masked(graph, params, state, x)
    return float(np.sum(out * lw)), tape


class TestTopkBinarize:
    def test_keeps_k_largest(self):
        np.testing.assert_array_equal(topk_binarize([0.1, 0.9, 0.5, 0.7], 2),
                                      [0, 1, 0, 1])

    def test_ties_go_to_lower_index(self):
        np.testing.assert_array_equal(topk_binarize([0.5, 0.5, 0.5], 2),
                                      [1, 1, 0])

    def test_edge_budgets(self):
        np.testing.assert_array_equal(topk_binarize([1.0, 2.0], 0), [0, 0])
        np.testing.assert_array_equal(topk_binarize([1.0, 2.0], 5), [1, 1])
        with pytest.raises(ValueError):
            topk_binarize([1.0], -1)

    def test_budget_invariant_property(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(50):
            m = rng.standard_normal(7)
            k = int(rng.integers(0, 8))
            assert topk_binarize(m, k).sum() == k


class TestMaskState:
    def test_validation(self):
        with pytest.raises(ValueError):
            MaskState(np.ones(3), 1, np.ones(2))
        with pytest.raises(ValueError):
            MaskState(np.ones(2), 1, np.array([1.0, -1.0]))

    def test_fresh(self):
        state = MaskState.fresh(4, 2)
        assert state.m_hat.sum() == 2
        np.testing.assert_array_equal(state.lam, np.ones(4))


class TestForwardMasked:
    def test_all_ones_mask_matches_plain_execution(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for graph in (toy_irb(2, seed=1), mobilenet_v2(1.0, image_size=32, seed=1)):
            x = rng.standard_normal((2,) + tuple(graph.input_dims[1:]))
            n = len(graph.blocks)
            for state in (MaskState.fresh(n, n), None):
                out, tape = forward_masked(graph, extract_params(graph), state, x)
                assert np.array_equal(out, execute_graph(graph, Tensor.of(x)).data)
                # every block activation ran its own kind, and the tape carries the
                # graph that gives backward each one's mask slot
                assert tape.graph is graph
                ran = {node.node_id: node.layer for node, _, _ in tape.records}
                assert all(ran[aid] == graph.node(aid).layer for b in graph.blocks
                           for aid in b.act_node_ids)

    def test_untaped_forward_matches_taped(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for graph in (toy_irb(2, seed=1), mobilenet_v2(1.0, image_size=32, seed=1)):
            params = {k: v + 0.1 if k.endswith(".beta") else v
                      for k, v in extract_params(graph).items()}
            x = rng.standard_normal((2,) + tuple(graph.input_dims[1:]))
            x_before = x.copy()
            n = len(graph.blocks)
            for state in (None, MaskState.fresh(n, n // 2)):
                taped, _ = forward_masked(graph, params, state, x)
                masked = graph if state is None else apply_mask_vector(graph, state.m_hat)
                assert np.array_equal(forward_untaped(masked, params, x), taped)
            np.testing.assert_array_equal(x, x_before)

    def test_zero_gate_bypasses_activation(self):
        graph = toy_irb(1, seed=1)
        params = extract_params(graph)
        rng = np.random.Generator(np.random.PCG64(0))
        x = rng.standard_normal((1, 3, 8, 8))
        masked_out, _ = forward_masked(graph, params, MaskState.fresh(1, 0), x)
        linear = apply_mask_vector(graph, [0])
        want = execute_graph(linear, Tensor.of(x)).data
        assert np.max(np.abs(masked_out - want.reshape(masked_out.shape))) <= 1e-12

    def test_wrong_channel_input_is_a_shape_error(self):
        graph = toy_irb(1, seed=1)
        with pytest.raises(ShapeError):
            forward_masked(graph, extract_params(graph), None, np.zeros((1, 4, 8, 8)))

    def test_non_finite_input_is_a_numeric_error(self):
        graph = toy_irb(1, seed=1)
        x = np.zeros((1, 3, 8, 8))
        x[0, 1, 2, 3] = np.nan
        with pytest.raises(NumericError):
            forward_masked(graph, extract_params(graph), None, x)

    def test_mask_length_check(self):
        graph = toy_irb(2, seed=1)
        with pytest.raises(GraphError):
            forward_masked(graph, extract_params(graph), MaskState.fresh(3, 1),
                           np.zeros((1, 3, 8, 8)))

    def test_search_step_equals_finetune_step_at_the_same_bits(self):
        # masking in forward_masked is `apply_mask_vector`: output and parameter
        # gradients equal those of the masked graph without a mask state, bit for bit
        graph, params, x, lw = _scalar_loss_setup(n_blocks=4)
        rng = np.random.Generator(np.random.PCG64(11))
        for k in (0, 1, 2, 3, 4, 2):
            state = MaskState(rng.standard_normal(4), k, np.ones(4))
            out, tape = forward_masked(graph, params, state, x)
            masked = apply_mask_vector(graph, state.m_hat)
            want, want_tape = forward_masked(masked, params, None, x)
            assert np.array_equal(out.view(np.uint8), want.view(np.uint8))
            pgrads, _ = backward(tape, lw)
            want_grads, _ = backward(want_tape, lw)
            assert set(pgrads) == set(want_grads)
            for name, grad in pgrads.items():
                assert np.array_equal(grad.view(np.uint8), want_grads[name].view(np.uint8))


# (n, c_in, c_out, k, stride, padding, groups, dtype) at the 1-4 px sizes that
# MobileNetV2's last stages reach at 32 px; at stride 2 on an even size the last
# input row and column get no tap
SMALL_CASES = [
    pytest.param(2, 6, 6, 3, 1, 1, 6, np.float64, id="depthwise-s1"),
    pytest.param(2, 6, 6, 3, 2, 1, 6, np.float64, id="depthwise-s2"),
    pytest.param(3, 5, 5, 5, 1, 2, 5, np.float64, id="depthwise-k5"),
    pytest.param(2, 6, 6, (3, 1), 2, 1, 6, np.float64, id="depthwise-3x1-s2"),
    pytest.param(2, 6, 6, 3, 2, 1, 6, np.float32, id="depthwise-f32"),
    pytest.param(2, 4, 8, 3, 1, 1, 4, np.float64, id="depthwise-multiplier-2"),
]


def _check_adjoint(rng, x, c_out, k, stride, padding, groups):
    """conv is bilinear in (x, w), so <conv(x, w), d> == <x, dx> == <w, dw>; the
    forward is checked against the oracle, and the backward leaves x and d alone."""
    dtype = x.dtype.type
    w = random_conv(rng, x.shape[1], c_out, k, stride, padding,
                    groups).weights.astype(dtype)
    y = conv_forward(x, w, None, stride, padding, groups)
    assert np.max(np.abs(y - conv_oracle(x.astype(np.float64), w, None, stride,
                                         padding, groups))) <= CONV_TOL[dtype]
    d = rng.standard_normal(y.shape).astype(dtype)
    x_before, d_before = x.copy(), d.copy()
    dx, dw, db = conv_backward(d, x, w, stride, padding, groups)
    np.testing.assert_array_equal(x, x_before)
    np.testing.assert_array_equal(d, d_before)
    # without the input gradient: dx is None, and dw and db are the same bits
    no_dx, dw_alone, db_alone = conv_backward(d, x, w, stride, padding, groups,
                                              input_grad=False)
    assert no_dx is None
    assert np.array_equal(dw_alone.view(np.uint8), dw.view(np.uint8))
    assert np.array_equal(db_alone.view(np.uint8), db.view(np.uint8))
    assert dx.shape == x.shape and dw.shape == w.shape
    assert dx.dtype == dw.dtype == dtype
    if groups == x.shape[1] == c_out:  # the depthwise backward hands dx back as (n, c, h, w)
        assert dx.flags.c_contiguous
    inner = np.vdot(y, d)
    tol = CONV_TOL[dtype] * np.linalg.norm(y) * np.linalg.norm(d)
    assert abs(np.vdot(x, dx) - inner) <= tol
    assert abs(np.vdot(w, dw) - inner) <= tol
    np.testing.assert_array_equal(db, d.sum(axis=(0, 2, 3)))


class TestConvBackward:
    @pytest.mark.parametrize("n,c_in,c_out,k,stride,padding,groups,bias,dtype", CONV_CASES)
    def test_backward_is_the_adjoint_of_forward(self, rng, n, c_in, c_out, k, stride,
                                                padding, groups, bias, dtype):
        x = rng.standard_normal((n, c_in, 7, 7)).astype(dtype)
        _check_adjoint(rng, x, c_out, k, stride, padding, groups)

    @pytest.mark.parametrize("h,w", [(1, 1), (2, 2), (4, 4), (1, 4), (4, 2)])
    @pytest.mark.parametrize("n,c_in,c_out,k,stride,padding,groups,dtype", SMALL_CASES)
    def test_adjoint_at_small_spatial_sizes(self, rng, h, w, n, c_in, c_out, k, stride,
                                            padding, groups, dtype):
        x = rng.standard_normal((n, c_in, h, w)).astype(dtype)
        _check_adjoint(rng, x, c_out, k, stride, padding, groups)

    @pytest.mark.parametrize("k,stride,size", [(3, 1, 5), (3, 2, 8), (2, 2, 4), (4, 1, 4)])
    def test_pool_input_gradient_is_a_contiguous_adjoint(self, rng, k, stride, size):
        x = rng.standard_normal((2, 3, size, size))
        pool = pool_conv(AvgPool(k, stride), 3)
        y = conv_forward(x, pool.weights, None, stride, 0, 3)
        d = rng.standard_normal(y.shape)
        dx = conv_backward(d, x, pool.weights, stride, 0, 3)[0]
        assert dx.shape == x.shape and dx.flags.c_contiguous
        assert abs(np.vdot(x, dx) - np.vdot(y, d)) <= 1e-12 * np.linalg.norm(y) * \
            np.linalg.norm(d)


class TestParameterGradients:
    def test_finite_difference_agreement(self):
        graph, params, x, lw = _scalar_loss_setup()
        _, tape = _loss(graph, params, None, x, lw)
        pgrads, _ = backward(tape, lw * np.ones_like(tape.records[-1][2].data))
        h = 1e-6
        rng = np.random.Generator(np.random.PCG64(3))
        for name, grad in pgrads.items():
            flat_idx = rng.integers(0, grad.size, size=min(4, grad.size))
            for i in flat_idx:
                idx = np.unravel_index(int(i), grad.shape)
                p = {k: v.copy() for k, v in params.items()}
                p[name][idx] += h
                up, _ = _loss(graph, p, None, x, lw)
                p[name][idx] -= 2 * h
                down, _ = _loss(graph, p, None, x, lw)
                fd = (up - down) / (2 * h)
                a = float(grad[idx])
                assert abs(a - fd) <= 1e-5 * max(abs(a), abs(fd), 1e-4), \
                    f"{name}{idx}: analytic {a} vs fd {fd}"

    def test_bias_map_gradient_matches_finite_differences(self):
        # BN shifts ahead of the padded depthwise conv give the merged block a
        # (c, h, w) bias map, which finetuning a shrunk graph trains per position
        graph, params, x, lw = _scalar_loss_setup()
        shrunk, _ = shrink_graph(bind_weights(graph, params), [0, 1])
        params = extract_params(shrunk)
        _, tape = _loss(shrunk, params, None, x, lw)
        pgrads, _ = backward(tape, lw * np.ones_like(tape.records[-1][2].data))
        grad = pgrads["block0_merged.bias"]
        assert grad.shape == params["block0_merged.bias"].shape == (6, 6, 6)
        h = 1e-6
        for idx in np.ndindex(grad.shape):
            p = {k: v.copy() for k, v in params.items()}
            p["block0_merged.bias"][idx] += h
            up, _ = _loss(shrunk, p, None, x, lw)
            p["block0_merged.bias"][idx] -= 2 * h
            down, _ = _loss(shrunk, p, None, x, lw)
            fd = (up - down) / (2 * h)
            a = float(grad[idx])
            assert abs(a - fd) <= 1e-5 * max(abs(a), abs(fd), 1e-4), \
                f"bias{idx}: analytic {a} vs fd {fd}"

    @pytest.mark.parametrize("stride", [1, 2])
    def test_avgpool_input_gradient_matches_finite_differences(self, rng, stride):
        # a conv's bias map gradient is the gradient at its output, here the
        # pool's input, summed over the batch; at stride 2 on 8 px the last row
        # and column feed no window
        conv = replace(random_conv(rng, 2, 2, 3), bias=rng.standard_normal((2, 8, 8)))
        graph = NetGraph((Node("conv", conv, ()),
                          Node("pool", AvgPool(3, stride), ("conv",))), (2, 2, 8, 8))
        params = extract_params(graph)
        x = rng.standard_normal((2, 2, 8, 8))
        out, tape = forward_masked(graph, params, None, x)
        lw = rng.standard_normal(out.shape)
        grad = backward(tape, lw)[0]["conv.bias"]
        if stride == 2:
            assert not grad[:, 7].any() and not grad[:, :, 7].any()
        h = 1e-6
        for idx in np.ndindex(grad.shape):
            p = {k: v.copy() for k, v in params.items()}
            p["conv.bias"][idx] += h
            up = np.vdot(forward_untaped(graph, p, x), lw)
            p["conv.bias"][idx] -= 2 * h
            down = np.vdot(forward_untaped(graph, p, x), lw)
            assert abs(grad[idx] - (up - down) / (2 * h)) <= 1e-8 * max(abs(grad[idx]), 1)

    def test_bn_statistics_get_no_gradients(self):
        graph, params, x, lw = _scalar_loss_setup()
        _, tape = _loss(graph, params, None, x, lw)
        pgrads, _ = backward(tape, lw * np.ones_like(tape.records[-1][2].data))
        trainable = {k for k in params if not k.endswith((".mean", ".var"))}
        assert set(pgrads) == trainable != set(params)

    def test_a_conv_that_reads_the_graph_input_computes_no_input_gradient(self,
                                                                          monkeypatch):
        graph, params, x, lw = _scalar_loss_setup(n_blocks=2)
        _, tape = _loss(graph, params, None, x, lw)
        dout = lw * np.ones_like(tape.records[-1][2].data)
        real = autodiff_module.conv_backward
        asked = []

        def recording(*args):
            asked.append(args[6] if len(args) > 6 else True)  # the pool passes 6
            return real(*args)

        monkeypatch.setattr(autodiff_module, "conv_backward", recording)
        pgrads, _ = backward(tape, dout)
        # the stem is the one node that reads the graph input, and the backward
        # reaches it last
        assert asked[-1] is False and asked.count(False) == 1
        monkeypatch.setattr(autodiff_module, "conv_backward",
                            lambda *args: real(*args[:6]))
        with_dx, _ = backward(tape, dout)
        assert set(pgrads) == set(with_dx)
        for name, grad in with_dx.items():
            assert np.array_equal(pgrads[name].view(np.uint8), grad.view(np.uint8)), name

    def test_gradients_accumulate_over_residual_paths(self):
        # the stem output feeds both the block chain and the skip Add
        graph, params, x, lw = _scalar_loss_setup(n_blocks=1)
        _, tape = _loss(graph, params, None, x, lw)
        pgrads, _ = backward(tape, lw * np.ones_like(tape.records[-1][2].data))
        assert "stem_conv.weight" in pgrads
        assert np.all(np.isfinite(pgrads["stem_conv.weight"]))


def _tape(graph, x, bit=None):
    """The tape `forward_masked` records for `graph`, with its weights as they
    are, under the one-block mask [bit] (no mask state when `bit` is None)."""
    state = None if bit is None else MaskState.fresh(1, int(bit))
    return forward_masked(graph, extract_params(graph), state, x)[1]


def _act_block(kind, second=ActivationKind.IDENTITY, head=()):
    """Block 0 as the pair of activations a block masks: "act" of `kind`, which
    reads the last `head` node (the graph input without one), then "act2" of
    `second`. An identity second passes act's gradient through and adds exactly
    0.0 to the mask gradient."""
    nodes = tuple(head) + (Node("act", Activation(kind), (head[-1].node_id,) if head else ()),
                           Node("act2", Activation(second), ("act",)))
    block = BlockAnnotation(0, "plain_conv", tuple(n.node_id for n in nodes), ("act", "act2"))
    return NetGraph(nodes, (1, 4, 5, 5), (block,))


def _planted_z(rng):
    """A (1, 4, 5, 5) input with values planted on both kinks and a -0.0."""
    z = rng.uniform(-3, 9, (1, 4, 5, 5))
    z[0, 0, 0, :3] = [0.0, 6.0, -0.0]
    return z


class TestActivationAndBnBackward:
    @pytest.mark.parametrize("gate", [0.0, 1.0, None])
    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_activation_input_gradient_is_the_gated_formula(self, rng, kind, gate):
        # `gate` is the block's mask bit (None: no mask state); z = bias map exactly
        # (zero weights), with planted values on both kinks
        z = rng.uniform(-3, 9, (4, 5, 5))
        z[0, 0, :3] = [0.0, 6.0, -0.0]
        conv = ConvLayer(1, 1, 1, 0, 1, 4, 4, np.zeros((4, 4, 1, 1)), z)
        graph = _act_block(kind, head=(Node("conv", conv, ()),))
        tape = _tape(graph, rng.standard_normal((1, 4, 5, 5)), gate)
        dout = rng.standard_normal((1, 4, 5, 5))
        pgrads, _ = backward(tape, dout)
        dz = pgrads["conv.bias"]  # dout.sum(axis=0) of the conv, at n = 1 exact
        dact = {ActivationKind.RELU: z > 0, ActivationKind.RELU6: (z > 0) & (z < 6),
                ActivationKind.IDENTITY: np.ones_like(z)}[kind].astype(np.float64)
        g = 1.0 if gate is None else gate
        assert np.array_equal(dz, dout[0] * (g * dact + (1 - g)))

    def test_bn_gamma_gradient_matches_the_normalized_input_formula(self, rng):
        c = 6
        mean = rng.uniform(-20, 20, c)
        var = rng.uniform(0.01, 2.0, c)
        bn = BatchNormLayer(rng.uniform(0.5, 1.5, c), rng.standard_normal(c), mean, var)
        std = np.sqrt(var)[None, :, None, None]
        # the batch mean sits 3-5 running standard deviations off the running mean
        offset = rng.uniform(3, 5, c)[None, :, None, None] * rng.choice([-1, 1], c)[
            None, :, None, None]
        x = mean[None, :, None, None] + std * (offset + rng.standard_normal((4, c, 3, 3)))
        tape = _tape(NetGraph((Node("bn", bn, ()),), x.shape), x)
        dout = rng.standard_normal(x.shape)
        pgrads, _ = backward(tape, dout)
        inv_std = 1.0 / np.sqrt(var + bn.epsilon)
        xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        np.testing.assert_allclose(pgrads["bn.gamma"],
                                   np.einsum("nchw,nchw->c", dout, xhat), rtol=1e-10)
        np.testing.assert_array_equal(pgrads["bn.beta"], dout.sum(axis=(0, 2, 3)))


class TestMaskGradients:
    @pytest.mark.parametrize("k,bits", [(2, [1, 0, 1]), (0, [0, 0, 0]), (3, [1, 1, 1])],
                             ids=["101", "000", "111"])
    def test_mask_gradient_matches_finite_differences(self, k, bits):
        # straight through: the gradient reported at the binary mask is the
        # derivative, at the same bits, of the relaxation g * act(z) + (1 - g) * z
        # that `gate_oracle` builds from plain nodes
        graph, params, x, lw = _scalar_loss_setup(n_blocks=3)
        state = MaskState(np.array([0.8, 0.4, 0.6]), k, np.ones(3))
        assert state.m_hat.tolist() == bits
        loss, tape = _loss(graph, params, state, x, lw)
        _, m_grad = backward(tape, lw * np.ones_like(tape.records[-1][2].data))
        bound = bind_weights(graph, params)

        def relaxed(gates):
            return float(np.sum(execute_graph(gate_oracle(bound, gates), Tensor.of(x)).data * lw))

        assert relaxed(state.m_hat) == pytest.approx(loss, rel=1e-12, abs=0)
        h = 1e-6
        for b in range(3):
            m = state.m_hat.copy()
            m[b] += h
            up = relaxed(m)
            m[b] -= 2 * h
            down = relaxed(m)
            fd = (up - down) / (2 * h)
            assert abs(m_grad[b] - fd) <= 1e-5 * max(abs(fd), 1e-4)

    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_shared_slot_accumulates_both_activations(self, rng, kind):
        # both activations of one block write into its single mask slot, the
        # later one first, bit for bit
        z = _planted_z(rng)
        tape = _tape(_act_block(kind, kind), z, 1)
        dout = rng.standard_normal(z.shape)
        _, m_grad = backward(tape, dout)
        z2 = kind.apply(z.copy())
        dact2 = {ActivationKind.RELU: z2 > 0, ActivationKind.RELU6: (z2 > 0) & (z2 < 6)}
        dz = dout * dact2[kind] if kind in dact2 else dout
        want = 0.0 + float(np.vdot(dout, kind.apply(z2.copy())) - np.vdot(dout, z2))
        want += float(np.vdot(dz, z2) - np.vdot(dz, z))
        assert m_grad.tolist() == [want]

    @pytest.mark.parametrize("gate", [0.0, 1.0])
    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_binary_gate_mask_gradient_is_read_from_the_tape(self, rng, kind, gate):
        # bit for bit the formula on the tape's own z, whether act(z) is the
        # walker's output (bit 1) or computed in the backward (bit 0, Identity ran)
        tape = _tape(_act_block(kind), _planted_z(rng), gate)
        dout = rng.standard_normal((1, 4, 5, 5))
        _, m_grad = backward(tape, dout)
        node, (z,), _ = tape.records[0]
        assert node.layer.kind is (kind if gate else ActivationKind.IDENTITY)
        assert m_grad[0] == float(np.vdot(dout, kind.apply(z.data)) - np.vdot(dout, z.data))

    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_zero_gate_outputs_its_input(self, rng, kind):
        # bit for bit, the planted -0.0 included: a 0 bit runs Identity, which
        # returns z itself, where the blend 0 * act(z) + 1 * z would give +0.0
        _, (z,), out = _tape(_act_block(kind), _planted_z(rng), 0).records[0]
        assert np.signbit(z.data).any()
        assert np.array_equal(out.data.view(np.uint64), z.data.view(np.uint64))

    def test_backward_leaves_the_tape_reusable(self):
        # one block gated 0 and one gated 1: a second backward on the same tape
        # returns the same gradients, bit for bit
        graph, params, x, lw = _scalar_loss_setup(n_blocks=2)
        state = MaskState(np.array([2.0, 1.0]), 1, np.ones(2))
        _, tape = _loss(graph, params, state, x, lw)
        dout = lw * np.ones_like(tape.records[-1][2].data)
        first, second = backward(tape, dout), backward(tape, dout)
        assert set(first[0]) == set(second[0])
        for name, grad in first[0].items():
            assert np.array_equal(grad, second[0][name]), name
        assert np.array_equal(first[1], second[1])
