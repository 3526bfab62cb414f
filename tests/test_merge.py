import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockfuse.merge as merge_module
from blockfuse.core import (
    Activation,
    ActivationKind,
    Add,
    AvgPool,
    ConvLayer,
    Flatten,
    Linear,
    Tensor,
    execute_layer,
    pool_conv,
)
from blockfuse.errors import GraphError, MergeError
from blockfuse.expand import expand_for_training
from blockfuse.graph import (
    NetGraph,
    Node,
    apply_mask_vector,
    block_geometry,
    execute_graph,
    validate_graph,
)
from blockfuse.merge import (
    absorb_residual,
    bn_to_conv,
    compose_convs,
    fold_bn_into_conv,
    insert_free_activations,
    lift_to_dense,
    merge_block,
    merge_chain,
    shrink_graph,
    verify_equivalence,
)
from blockfuse.fixtures import mobilenet_v2, toy_irb, vgg_toy

from conftest import (conv_oracle, irb_chain, irb_graph, random_bn, random_conv,
                      run_chain)


def _max_err(a, b):
    return float(np.max(np.abs(a - b)))


class TestFolding:
    def test_bn_fold_matches_sequential(self, rng):
        conv = random_conv(rng, 3, 5, 3, bias=True)
        bn = random_bn(rng, 5, biased=True)
        x = Tensor.of(rng.standard_normal((1, 3, 6, 6)))
        seq = execute_layer(bn, execute_layer(conv, x)).data
        fused = execute_layer(fold_bn_into_conv(conv, bn), x).data
        assert _max_err(seq, fused) <= 1e-12

    # a bias map once scaled and shifted its last axis: a ValueError, or, with
    # ow == c_out, a silently wrong bias
    @pytest.mark.parametrize("bias_dims,width", [((5,), 6), ((5, 6, 6), 6), ((5, 6, 5), 5)],
                             ids=["vector", "map", "map-ow-is-c_out"])
    def test_bn_fold_scales_a_bias_per_channel(self, rng, bias_dims, width):
        conv = replace(random_conv(rng, 3, 5, 3), bias=rng.standard_normal(bias_dims))
        bn = random_bn(rng, 5, biased=True)
        x = Tensor.of(rng.standard_normal((2, 3, 6, width)))
        seq = execute_layer(bn, execute_layer(conv, x)).data
        fused = fold_bn_into_conv(conv, bn)
        assert fused.bias.shape == bias_dims
        assert _max_err(seq, execute_layer(fused, x).data) <= 1e-12

    def test_a_bias_map_then_bn_chain_merges(self, rng):
        conv = replace(random_conv(rng, 4, 5, 1, padding=0),
                       bias=rng.standard_normal((5, 6, 6)))
        chain = [("c", conv), ("bn", random_bn(rng, 5, biased=True))]
        merged = merge_chain(chain, False, (1, 4, 6, 6))
        x = Tensor.of(rng.standard_normal((1, 4, 6, 6)))
        assert _max_err(run_chain(chain, x).data, execute_layer(merged, x).data) <= 1e-10

    def test_bn_fold_channel_mismatch(self, rng):
        with pytest.raises(MergeError):
            fold_bn_into_conv(random_conv(rng, 3, 5, 3), random_bn(rng, 4))

    def test_bn_to_conv(self, rng):
        bn = random_bn(rng, 4, biased=True)
        x = Tensor.of(rng.standard_normal((1, 4, 5, 5)))
        seq = execute_layer(bn, x).data
        conv = bn_to_conv(bn)
        assert (conv.kernel_h, conv.kernel_w, conv.stride, conv.padding) == (1, 1, 1, 0)
        assert conv.is_depthwise and conv.c_in == 4
        scale, shift = bn.scale_shift()
        np.testing.assert_array_equal(conv.weights[:, 0, 0, 0], scale)
        np.testing.assert_array_equal(conv.bias, shift)
        assert _max_err(seq, execute_layer(conv, x).data) <= 1e-12


class TestLifting:
    def test_depthwise_lift(self, rng):
        dw = random_conv(rng, 6, 6, 3, groups=6)
        dense = lift_to_dense(dw)
        assert dense.groups == 1
        x = Tensor.of(rng.standard_normal((1, 6, 7, 7)))
        assert _max_err(execute_layer(dw, x).data,
                        execute_layer(dense, x).data) <= 1e-12

    def test_grouped_lift(self, rng):
        conv = random_conv(rng, 6, 4, 3, groups=2, bias=True)
        dense = lift_to_dense(conv)
        x = Tensor.of(rng.standard_normal((1, 6, 7, 7)))
        assert _max_err(execute_layer(conv, x).data,
                        execute_layer(dense, x).data) <= 1e-12

    def test_avgpool_lift(self, rng):
        # a pool needs no lift of its own: it is the depthwise conv `pool_conv`,
        # which lifts as every depthwise conv does
        pool = AvgPool(3, 2)
        conv = pool_conv(pool, 3)
        assert (conv.kernel_h, conv.kernel_w, conv.stride, conv.padding) == (3, 3, 2, 0)
        assert conv.is_depthwise and conv.c_in == 3 and conv.bias is None
        np.testing.assert_array_equal(conv.weights, np.full((3, 1, 3, 3), 1 / 9))
        x = Tensor.of(rng.standard_normal((1, 3, 7, 7)))
        expect = execute_layer(pool, x).data
        assert _max_err(expect, execute_layer(conv, x).data) <= 1e-12
        assert _max_err(expect, execute_layer(lift_to_dense(conv), x).data) <= 1e-12


class TestCompose:
    @pytest.mark.parametrize("d1,d2,s1,s2,p2", [
        (1, 3, 1, 1, 1), (3, 3, 1, 1, 0), (3, 1, 2, 1, 0), (3, 3, 2, 2, 0),
        (5, 3, 1, 2, 0), (1, 5, 2, 1, 2),
    ])
    def test_compose_matches_sequential(self, rng, d1, d2, s1, s2, p2):
        first = random_conv(rng, 3, 4, d1, stride=s1, padding=(d1 - 1) // 2)
        second = random_conv(rng, 4, 5, d2, stride=s2, padding=p2)
        merged = compose_convs(first, second)
        x = Tensor.of(rng.standard_normal((1, 3, 12, 12)))
        seq = execute_layer(second, execute_layer(first, x)).data
        assert _max_err(seq, execute_layer(merged, x).data) <= 1e-12

    @pytest.mark.parametrize("d1,k2,s1,s2,p2,biased", [
        (1, 3, 1, 1, 1, False), (1, 3, 1, 1, 1, True), (1, 5, 1, 2, 2, False),
        (1, 3, 2, 2, 0, True), (3, 5, 1, 1, 0, True), (3, 3, 2, 1, 1, False),
        (3, 5, 2, 1, 2, True),
    ])
    def test_compose_depthwise_second_matches_sequential(self, rng, d1, k2, s1, s2,
                                                        p2, biased):
        first = random_conv(rng, 3, 4, d1, stride=s1, padding=(d1 - 1) // 2,
                            bias=biased)
        dw = random_conv(rng, 4, 4, k2, stride=s2, padding=p2, groups=4)
        merged = compose_convs(first, dw)
        lifted = compose_convs(first, lift_to_dense(dw))
        assert merged.kernel_h == lifted.kernel_h
        assert merged.stride == lifted.stride
        assert merged.padding == lifted.padding
        assert _max_err(merged.weights, lifted.weights) <= 1e-12
        assert merged.bias is None and lifted.bias is None
        x = Tensor.of(rng.standard_normal((1, 3, 13, 13)))

        def seq(inp):
            return execute_layer(dw, execute_layer(first, inp)).data

        # the composed kernel is the chain minus its zero-input response; it is
        # exact away from the p2-wide border only when a wide first conv meets a
        # padded depthwise conv (s2 is 1 in those cases)
        linear = seq(x) - seq(Tensor(np.zeros_like(x.data)))
        got = execute_layer(merged, x).data
        b = 0 if p2 == 0 or d1 == 1 else p2
        assert b == 0 or s2 == 1
        h = linear.shape[2]
        inner = (slice(None), slice(None), slice(b, h - b), slice(b, h - b))
        assert _max_err(linear[inner], got[inner]) <= 1e-12

    def test_padded_successor_of_wide_conv_is_interior_exact_only(self, rng):
        first = random_conv(rng, 3, 4, 3, padding=1)
        second = random_conv(rng, 4, 5, 3, padding=1)
        merged = compose_convs(first, second)
        x = Tensor.of(rng.standard_normal((1, 3, 12, 12)))
        seq = execute_layer(second, execute_layer(first, x)).data
        got = execute_layer(merged, x).data
        # border rows differ, interior agrees; merged kernel 5 -> border 2
        assert _max_err(seq[:, :, 2:-2, 2:-2], got[:, :, 2:-2, 2:-2]) <= 1e-12

    # (d1, s1, d2, s2, p2, depthwise): each path of compose_convs; p2 is 0
    # after a wide first kernel, where a padded second conv is not exact
    @pytest.mark.parametrize("d1,s1,d2,s2,p2,depthwise", [
        pytest.param(1, 1, 3, 1, 1, True, id="pw-s1-then-dw3"),
        pytest.param(1, 2, 5, 1, 2, True, id="pw-s2-then-dw5"),
        pytest.param(1, 2, 3, 2, 1, True, id="pw-s2-then-dw3-s2"),
        pytest.param(1, 2, 3, 1, 1, False, id="pw-s2-then-dense3"),
        pytest.param(3, 1, 1, 1, 0, False, id="k3-then-pw"),
        pytest.param(3, 2, 1, 2, 0, False, id="k3-s2-then-pw-s2"),
        pytest.param(3, 1, 3, 1, 0, False, id="overlap-dense"),
        pytest.param(3, 2, 3, 1, 0, True, id="overlap-dw"),
        pytest.param(3, 1, 1, 1, 0, True, id="k3-then-dw1"),
    ])
    def test_compose_matches_the_oracle(self, rng, d1, s1, d2, s2, p2, depthwise):
        c = 4
        first = random_conv(rng, 3, c, d1, stride=s1, padding=(d1 - 1) // 2)
        second = random_conv(rng, c, c if depthwise else 5, d2, stride=s2, padding=p2,
                             groups=c if depthwise else 1)
        merged = compose_convs(first, second)
        x = rng.standard_normal((1, 3, 9, 9))
        hidden = conv_oracle(x, first.weights, stride=s1, padding=first.padding)
        seq = conv_oracle(hidden, second.weights, stride=s2, padding=p2,
                          groups=second.groups)
        got = conv_oracle(x, merged.weights, stride=merged.stride, padding=merged.padding)
        assert got.shape == seq.shape
        assert _max_err(seq, got) <= 1e-12

    def test_kernel_stride_padding_law(self, rng):
        for d1 in (1, 3, 5):
            for d2 in (1, 3, 5):
                for s1 in (1, 2):
                    for s2 in (1, 2):
                        first = random_conv(rng, 2, 2, d1, stride=s1)
                        second = random_conv(rng, 2, 2, d2, stride=s2)
                        m = compose_convs(first, second)
                        assert m.kernel_h == (d2 - 1) * s1 + d1
                        assert m.stride == s1 * s2
                        assert m.padding == first.padding + s1 * second.padding

    def test_bias_composition(self, rng):
        # biases are left out: the composed conv is the chain minus its
        # zero-input response, and merge_chain adds that response back
        first = random_conv(rng, 2, 3, 3, bias=True)
        second = random_conv(rng, 3, 2, 1, padding=0, bias=True)
        merged = compose_convs(first, second)
        assert merged.bias is None
        x = Tensor.of(rng.standard_normal((1, 2, 8, 8)))
        zero = Tensor(np.zeros_like(x.data))
        seq = [execute_layer(second, execute_layer(first, inp)).data for inp in (x, zero)]
        assert _max_err(seq[0] - seq[1], execute_layer(merged, x).data) <= 1e-12

    # (kernel, groups) of each conv, 4 channels: pairs beyond a dense or depthwise
    # second conv after a dense first, which `_compose` takes as they come
    @pytest.mark.parametrize("first,second", [
        pytest.param((3, 4), (1, 1), id="grouped-dw3-then-pw"),
        pytest.param((1, 1), (3, 2), id="general-grouped-second"),
        pytest.param(((3, 1), 1), ((1, 3), 1), id="3x1-then-1x3"),
        pytest.param((1, 2), (3, 4), id="groups2-then-dw3"),
    ])
    def test_compose_any_groups_and_kernel_shape(self, rng, first, second):
        first = random_conv(rng, 4, 4, first[0], groups=first[1], bias=True)
        second = random_conv(rng, 4, 4, second[0], groups=second[1], padding=0, bias=True)
        merged = compose_convs(first, second)
        x = Tensor.of(rng.standard_normal((1, 4, 9, 9)))

        def seq(inp):
            return execute_layer(second, execute_layer(first, inp)).data

        linear = seq(x) - seq(Tensor(np.zeros_like(x.data)))
        assert _max_err(linear, execute_layer(merged, x).data) <= 1e-12

    def test_compose_rejects_channel_mismatch(self, rng):
        with pytest.raises(MergeError):
            compose_convs(random_conv(rng, 2, 3, 3), random_conv(rng, 4, 2, 1))


class TestResidual:
    def test_absorb_matches_skip_add(self, rng):
        conv = random_conv(rng, 4, 4, 3)
        x = Tensor.of(rng.standard_normal((1, 4, 6, 6)))
        skip = execute_layer(conv, x).data + x.data
        assert _max_err(skip, execute_layer(absorb_residual(conv), x).data) <= 1e-12

    @pytest.mark.parametrize("kwargs,msg", [
        ({"stride": 2}, "stride"),
        ({"c_out": 5}, "c_in"),
        ({"k": 4}, "odd"),
        ({"padding": 0}, "padding"),
    ])
    def test_precondition_messages(self, rng, kwargs, msg):
        spec = {"c_in": 4, "c_out": 4, "k": 3, "stride": 1, "padding": 1}
        spec.update(kwargs)
        conv = random_conv(rng, spec["c_in"], spec["c_out"], spec["k"],
                           stride=spec["stride"], padding=spec["padding"])
        with pytest.raises(MergeError, match=msg):
            absorb_residual(conv)


class TestMergeChain:
    @pytest.mark.parametrize("e,k,s,residual", [
        (1, 3, 1, True), (2, 3, 2, False), (4, 5, 1, True), (6, 3, 1, False),
    ])
    def test_chain_matches_sequential(self, rng, e, k, s, residual):
        chain = irb_chain(rng, 4, 4, e, k, s)
        x = Tensor.of(rng.standard_normal((1, 4, 9, 9)))
        seq = run_chain(chain, x, residual=residual).data
        merged = merge_chain(chain, residual, x.dims)
        assert merged.kernel_h == k and merged.stride == s
        assert merged.c_in == 4 and merged.c_out == 4
        assert _max_err(seq, execute_layer(merged, x).data) <= 1e-10

    def test_live_activation_refuses(self, rng):
        chain = irb_chain(rng, 4, 4, 2, 3, 1, act=ActivationKind.RELU6)
        with pytest.raises(MergeError, match="act1"):
            merge_chain(chain, False, (1, 4, 9, 9))

    def test_bn_first_chain(self, rng):
        chain = [("bn", random_bn(rng, 3, biased=True)),
                 ("conv", random_conv(rng, 3, 2, 3, padding=0))]
        x = Tensor.of(rng.standard_normal((1, 3, 6, 6)))
        seq = run_chain(chain, x).data
        merged = merge_chain(chain, False, x.dims)
        assert _max_err(seq, execute_layer(merged, x).data) <= 1e-12

    @pytest.mark.parametrize("make", [
        lambda rng: [("bn0", random_bn(rng, 4, biased=True)),
                     ("pw", random_conv(rng, 4, 6, 1, padding=0, bias=True)),
                     ("bn1", random_bn(rng, 6, biased=True)),
                     ("dw", random_conv(rng, 6, 6, 3, groups=6)),
                     ("bn2", random_bn(rng, 6, biased=True))],
        lambda rng: [("pw", random_conv(rng, 4, 5, 1, padding=0)),
                     ("bn1", random_bn(rng, 5, biased=True)),
                     ("pool", AvgPool(2, 2)),
                     ("bn2", random_bn(rng, 5, biased=True)),
                     ("pw2", random_conv(rng, 5, 4, 1, padding=0)),
                     ("bn3", random_bn(rng, 4, biased=True))],
        lambda rng: [("grouped", random_conv(rng, 4, 6, 3, groups=2, bias=True)),
                     ("bn1", random_bn(rng, 6, biased=True)),
                     ("act1", Activation(ActivationKind.IDENTITY)),
                     ("pw", random_conv(rng, 6, 3, 1, padding=0)),
                     ("bn2", random_bn(rng, 3, biased=True))],
    ], ids=["opens-with-bn", "bn-after-avgpool", "bn-after-grouped-conv"])
    def test_every_bn_position_is_exact_everywhere(self, rng, make):
        chain = make(rng)  # each reads 4 channels
        x = Tensor.of(rng.standard_normal((2, 4, 8, 8)))
        merged = merge_chain(chain, False, x.dims)
        assert _max_err(run_chain(chain, x).data, execute_layer(merged, x).data) <= 1e-10

    def test_each_bn_folds_into_the_small_conv_before_it(self, rng, monkeypatch):
        folded = []
        real_fold = merge_module.fold_bn_into_conv

        def recording_fold(conv, bn):
            folded.append(conv.weights.shape)
            return real_fold(conv, bn)

        monkeypatch.setattr(merge_module, "fold_bn_into_conv", recording_fold)
        merge_chain(irb_chain(rng, 4, 5, 6, 3, 2, biased=True), False, (1, 4, 9, 9))
        assert folded == [(24, 4, 1, 1), (24, 1, 3, 3), (5, 24, 1, 1)]

    @pytest.mark.parametrize("make,lifted_groups", [
        (lambda rng: irb_chain(rng, 4, 4, 6, 3, 2, biased=True), []),
        (lambda rng: [("dw", random_conv(rng, 4, 4, 3, groups=4)),
                      ("pw", random_conv(rng, 4, 3, 1, padding=0))], []),
        (lambda rng: [("pool", AvgPool(2, 2)), ("bn", random_bn(rng, 4, biased=True)),
                      ("dw", random_conv(rng, 4, 4, 3, padding=0, groups=4))], []),
        (lambda rng: [("grouped", random_conv(rng, 4, 6, 3, groups=2)),
                      ("dw", random_conv(rng, 6, 6, 1, padding=0, groups=6))], [2]),
    ], ids=["irb", "dw-first", "pool-bn-dw", "grouped-then-dw"])
    def test_only_a_general_grouped_conv_is_lifted(self, rng, monkeypatch, make,
                                                  lifted_groups):
        lifted = []
        real_lift = merge_module.lift_to_dense
        monkeypatch.setattr(merge_module, "lift_to_dense",
                            lambda layer: lifted.append(layer) or real_lift(layer))
        chain = make(rng)
        x = Tensor.of(rng.standard_normal((2, 4, 9, 9)))
        merged = merge_chain(chain, False, x.dims)
        assert [layer.groups for layer in lifted] == lifted_groups
        assert not any(layer.is_depthwise for layer in lifted)
        assert _max_err(run_chain(chain, x).data, execute_layer(merged, x).data) <= 1e-10

    def test_depthwise_first_chain(self, rng):
        chain = [("dw", random_conv(rng, 4, 4, 3, groups=4)),
                 ("pw", random_conv(rng, 4, 3, 1, padding=0))]
        x = Tensor.of(rng.standard_normal((1, 4, 7, 7)))
        seq = run_chain(chain, x).data
        merged = merge_chain(chain, False, x.dims)
        assert _max_err(seq, execute_layer(merged, x).data) <= 1e-12

    @pytest.mark.parametrize("k,s", [(2, 2), (3, 1), (3, 2)])
    def test_pool_first_chain(self, rng, k, s):
        chain = [("pool", AvgPool(k, s)),
                 ("bn", random_bn(rng, 4, biased=True)),
                 ("pw", random_conv(rng, 4, 3, 1, padding=0, bias=True)),
                 ("bn2", random_bn(rng, 3, biased=True))]
        x = Tensor.of(rng.standard_normal((2, 4, 9, 9)))
        merged = merge_chain(chain, False, x.dims)
        assert (merged.kernel_h, merged.stride, merged.padding) == (k, s, 0)
        assert _max_err(run_chain(chain, x).data, execute_layer(merged, x).data) <= 1e-12

    def test_empty_chain(self):
        with pytest.raises(MergeError):
            merge_chain([], False, (1, 4, 9, 9))

    def test_biased_conv_before_padded_conv_gets_a_bias_map(self, rng):
        # the border sees the bias through fewer taps, so f(0) varies in space
        chain = [("pw", random_conv(rng, 2, 3, 1, padding=0, bias=True)),
                 ("dw", random_conv(rng, 3, 3, 3, groups=3))]
        x = Tensor.of(rng.standard_normal((2, 2, 7, 7)))
        merged = merge_chain(chain, False, x.dims)
        assert merged.bias.shape == (3, 7, 7)
        assert _max_err(run_chain(chain, x).data, execute_layer(merged, x).data) <= 1e-12

    def test_shift_after_the_padded_conv_stays_a_vector_bias(self, rng):
        chain = irb_chain(rng, 3, 3, 2, 3, 1)
        chain[-1] = ("bn3", random_bn(rng, 3, biased=True))
        x = Tensor.of(rng.standard_normal((1, 3, 6, 6)))
        merged = merge_chain(chain, False, x.dims)
        assert merged.bias.shape == (3,)
        assert _max_err(run_chain(chain, x).data, execute_layer(merged, x).data) <= 1e-12

    def test_padded_conv_after_wide_kernel_raises(self, rng):
        # no single conv zero-pads both the input and the hidden map
        chain = [("a", random_conv(rng, 2, 3, 3, padding=1)),
                 ("b", random_conv(rng, 3, 2, 3, padding=1))]
        with pytest.raises(MergeError, match="padded conv at 'b'"):
            merge_chain(chain, False, (1, 2, 8, 8))


class TestMergeBlock:
    def test_block_merge_equivalence(self, rng):
        g = irb_graph(rng, 4, 4, 2, 3, 1, residual=True)
        merged = merge_block(g, g.blocks[0], g.input_dims)  # stem is identity
        x = Tensor.of(rng.standard_normal(g.input_dims))
        before = execute_graph(g, x).data
        after = execute_layer(merged, x).data
        assert _max_err(before, after) <= 1e-10

    def test_a_wide_block_never_holds_its_hidden_width_kernel(self):
        # pw1 -> dw alone is a (384, 64, 3, 3) kernel, 1.77 MB; the merged one is a
        # sixth of that, and the tap-by-tap merge peaks at about 1.0 MB. Unbiased BNs
        # map zero to zero, so no zero-input run of the chain adds to the peak.
        g = irb_graph(np.random.default_rng(0), 64, 64, 6, 3, 1, residual=True)
        dw = g.node("dw").layer
        hidden_kernel = dw.c_out * g.node("pw1").layer.c_in * dw.kernel_h * dw.kernel_w * 8
        tracemalloc.start()
        try:
            merged = merge_block(g, g.blocks[0], g.input_dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert merged.weights.shape == (64, 64, 3, 3)
        assert peak < hidden_kernel


def _pairwise(chain, residual):
    """The kernel of an IRB chain composed a pair at a time: each BN folded into
    its conv, then compose_convs(compose_convs(pw1, dw), pw2)."""
    layers = dict(chain)
    pw1, dw, pw2 = (fold_bn_into_conv(layers[conv], layers[bn])
                    for conv, bn in (("pw1", "bn1"), ("dw", "bn2"), ("pw2", "bn3")))
    merged = compose_convs(compose_convs(pw1, dw), pw2)
    return absorb_residual(merged) if residual else merged


class TestBlockGeometry:
    @pytest.mark.parametrize("make", [
        lambda: toy_irb(3, seed=0), vgg_toy,
        lambda: mobilenet_v2(1.0, image_size=32), lambda: mobilenet_v2(1.4, image_size=32),
        lambda: shrink_graph(toy_irb(3, seed=0), [0, 1, 0])[0],
        lambda: shrink_graph(mobilenet_v2(1.0, image_size=32), [0, 1] * 8 + [0])[0],
    ], ids=["toy", "vgg", "mbv2", "mbv2-1.4", "toy-shrunk", "mbv2-shrunk"])
    def test_is_what_the_merged_conv_and_the_nodes_say(self, make):
        # every block of the fixture and of its expansion (nested blocks included),
        # merged on its own with all activations off
        g = make()
        for net in (g, expand_for_training(g, seed=1)):
            shapes = validate_graph(net)
            masked = apply_mask_vector(net, [0] * len(net.blocks))
            index = masked.node_index
            for block in masked.blocks:
                entry = index[block.node_ids[0]]
                in_dims = shapes[entry.input_ids[0]] if entry.input_ids else net.input_dims
                conv = merge_block(masked, block, in_dims)
                kernel, stride, residual = block_geometry(index, block)
                assert (kernel, stride) == (conv.kernel_h, conv.stride)
                assert residual == isinstance(index[block.node_ids[-1]].layer, Add) == \
                    any(isinstance(index[nid].layer, Add) for nid in block.node_ids)


class TestTapComposition:
    """A depthwise conv between two dense 1x1 convs merges tap by tap, into the
    kernel that composing a pair at a time gives, bit for bit."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(c_in=st.integers(1, 20), c_out=st.integers(1, 20),
           expand_ratio=st.sampled_from([1, 2, 3.5, 6]), k=st.sampled_from([3, 5]),
           stride=st.sampled_from([1, 2]), biased=st.booleans(), residual=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_matches_the_pairwise_composition_bit_for_bit(self, c_in, c_out, expand_ratio,
                                                          k, stride, biased, residual, seed):
        residual = residual and stride == 1
        c_out = c_in if residual else c_out
        chain = irb_chain(np.random.default_rng(seed), c_in, c_out, expand_ratio, k, stride,
                          biased)
        merged = merge_chain(chain, residual, (1, c_in, 11, 11))
        want = _pairwise(chain, residual)
        assert (merged.kernel_h, merged.stride, merged.padding) == \
            (want.kernel_h, want.stride, want.padding) == (k, stride, (k - 1) // 2)
        assert np.array_equal(merged.weights.view(np.uint64), want.weights.view(np.uint64))

    def test_takes_no_pairwise_composition(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(merge_module, "compose_convs",
                            lambda *args: calls.append(args) or compose_convs(*args))
        merge_chain(irb_chain(rng, 4, 5, 6, 3, 2, biased=True), False, (1, 4, 9, 9))
        assert calls == []

    def test_a_pool_between_1x1_convs_merges_tap_by_tap(self, rng):
        chain = [("pw1", random_conv(rng, 4, 6, 1, padding=0)), ("pool", AvgPool(2, 2)),
                 ("pw2", random_conv(rng, 6, 3, 1, padding=0))]
        merged = merge_chain(chain, False, (1, 4, 8, 8))
        pool = pool_conv(AvgPool(2, 2), 6)
        want = compose_convs(compose_convs(chain[0][1], pool), chain[2][1])
        np.testing.assert_array_equal(merged.weights, want.weights)
        x = Tensor.of(rng.standard_normal((2, 4, 8, 8)))
        assert _max_err(run_chain(chain, x).data, execute_layer(merged, x).data) <= 1e-12

    # the first four differ from an IRB's pw1 -> dw -> pw2 in one place
    @pytest.mark.parametrize("make", [
        lambda rng: [("pw1", random_conv(rng, 4, 6, 1, stride=2, padding=0)),
                     ("dw", random_conv(rng, 6, 6, 3, groups=6)),
                     ("pw2", random_conv(rng, 6, 5, 1, padding=0))],
        lambda rng: [("pw1", random_conv(rng, 4, 6, 1, padding=0)),
                     ("dw", random_conv(rng, 6, 6, 3, groups=6)),
                     ("pw2", random_conv(rng, 6, 4, 1, padding=0, groups=2))],
        lambda rng: [("pw1", random_conv(rng, 4, 6, 1, padding=0)),
                     ("dw", random_conv(rng, 6, 6, 3, groups=6)),
                     ("pw2", random_conv(rng, 6, 5, 3, padding=0))],
        lambda rng: [("pw1", random_conv(rng, 4, 6, 1, padding=0)),
                     ("dw", random_conv(rng, 6, 6, 3, groups=6))],
        lambda rng: [("a", random_conv(rng, 4, 5, 3, stride=2, padding=1, bias=True)),
                     ("b", random_conv(rng, 5, 6, 3, padding=0)),
                     ("dw", random_conv(rng, 6, 6, 2, padding=0, groups=6)),
                     ("c", random_conv(rng, 6, 3, 1, padding=0))],
        lambda rng: [("dw", random_conv(rng, 4, 4, 5, stride=2, groups=4)),
                     ("pool", AvgPool(2, 1)), ("bn", random_bn(rng, 4, biased=True))],
        lambda rng: [("a", random_conv(rng, 4, 5, (3, 1), stride=2)),
                     ("b", random_conv(rng, 5, 3, (1, 3), padding=0))],
    ], ids=["strided-pw1", "grouped-pw2", "3x3-after-dw", "no-pw2", "overlapping-taps",
            "depthwise-only", "non-square"])
    def test_every_shape_composes_tap_by_tap(self, rng, monkeypatch, make):
        calls = []
        monkeypatch.setattr(merge_module, "compose_convs",
                            lambda *args: calls.append(args) or compose_convs(*args))
        chain = make(rng)
        x = Tensor.of(rng.standard_normal((2, 4, 10, 10)))
        merged = merge_chain(chain, False, x.dims)
        assert calls == [] and merged.groups == 1
        assert _max_err(run_chain(chain, x).data, execute_layer(merged, x).data) <= 1e-10

    def test_a_strided_chain_never_holds_its_hidden_width_kernel(self):
        # dw o pw1 of a stride-2 pw1 is a (384, 64, 5, 5) kernel; the hidden-width
        # (384, 64, 3, 3) one is 1.77 MB, and the tap-by-tap merge peaks at about 1.1 MB
        rng = np.random.default_rng(0)
        chain = [("pw1", random_conv(rng, 64, 384, 1, stride=2, padding=0)),
                 ("dw", random_conv(rng, 384, 384, 3, groups=384)),
                 ("pw2", random_conv(rng, 384, 64, 1, padding=0))]
        tracemalloc.start()
        try:
            merged = merge_chain(chain, False, (1, 64, 16, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert merged.weights.shape == (64, 64, 5, 5)
        assert peak < 384 * 64 * 3 * 3 * 8


class TestShrinkGraph:
    def test_partial_mask_equivalence(self, rng):
        g = toy_irb(3, seed=5)
        mask = [1, 0, 1]
        shrunk, report = shrink_graph(g, mask)
        validate_graph(shrunk)
        # the masked graph (identity acts on block 1) equals the shrunk graph
        from blockfuse.graph import apply_mask_vector
        masked = apply_mask_vector(g, mask)
        rep = verify_equivalence(masked, shrunk, 4, 1e-10, seed=7)
        assert rep.passed
        assert [r.merged for r in report.records] == [False, True, False]
        merged = next(r for r in report.records if r.merged)
        assert merged.kernel == 3 and merged.c_in == 8 and merged.c_out == 8
        assert merged.flops_before > 0 and merged.flops_after > 0

    def test_full_mask_removes_block_structure(self, rng):
        g = toy_irb(2, seed=3)
        shrunk, report = shrink_graph(g, [0, 0])
        names = {n.node_id for n in shrunk.nodes}
        assert "block0_merged" in names and "block1_merged" in names
        assert all(b.kind == "plain_conv" for b in shrunk.blocks)
        assert max(r.kernel for r in report.records if r.merged) == 3

    def test_mask_length_check(self, rng):
        with pytest.raises(GraphError):
            shrink_graph(toy_irb(2, seed=3), [0])

    # blocks 1 and 4 of the expanded toy_irb(3) are nested in blocks 0 and 3;
    # `merged` is the mask of the expanded graph that the shrinks add up to
    @pytest.mark.parametrize("masks,merged,entries", [
        ([[0, 0, 0, 0, 0]], [0, 0, 0, 0, 0],
         ["block0_merged", "block2_merged", "block3_merged"]),
        ([[1, 0, 1, 1, 0], [0, 1, 1, 1, 1]], [0, 0, 1, 1, 0],
         ["block0_merged", "b1_pw1", "block4_merged", "block4_merged"]),
    ], ids=["at-once", "nested-first"])
    def test_a_nested_block_merges_with_the_block_that_holds_it(self, masks, merged,
                                                                 entries):
        from blockfuse.expand import expand_for_training
        from blockfuse.graph import apply_mask_vector
        g = expand_for_training(toy_irb(3, seed=2), seed=3)
        work = g
        for mask in masks:
            work, report = shrink_graph(work, mask)
            # the report keeps the input graph's block numbering
            assert [r.merged for r in report.records] == [bit == 0 for bit in mask]
        # a merged block drops the block nested in it; the rest are renumbered
        assert [b.block_id for b in work.blocks] == list(range(len(entries)))
        assert [b.node_ids[0] for b in work.blocks] == entries
        masked = apply_mask_vector(g, merged)
        assert verify_equivalence(masked, work, 3, 1e-10, seed=0).passed

    def test_free_activation_appended(self, rng):
        g = toy_irb(2, seed=3)
        shrunk, _ = shrink_graph(g, [0, 1], free_activation=ActivationKind.RELU6)
        node = shrunk.node("block0_act")
        assert isinstance(node.layer, Activation)
        assert node.layer.kind is ActivationKind.RELU6


class TestInsertFreeActivations:
    def test_blocks_stay_mergeable(self, rng):
        g = toy_irb(2, seed=3)
        from blockfuse.graph import apply_mask_vector
        masked = apply_mask_vector(g, [0, 1])
        with_acts = insert_free_activations(masked, [0, 1])
        assert "block0_free_act" in {n.node_id for n in with_acts.nodes}
        # the free activation is outside the annotation, so shrink still works
        shrunk, _ = shrink_graph(with_acts, [0, 1])
        validate_graph(shrunk)

    def test_changes_function_only_after_merged_blocks(self, rng):
        g = toy_irb(2, seed=3)
        from blockfuse.graph import apply_mask_vector
        masked = apply_mask_vector(g, [1, 1])
        same = insert_free_activations(masked, [1, 1])
        assert verify_equivalence(masked, same, 2, 1e-12, seed=0).passed


    def test_free_activation_after_a_nested_block(self):
        from blockfuse.expand import expand_for_training
        from blockfuse.graph import apply_mask_vector
        # block 1 (the expansion of b0_pw1) is nested in block 0
        g = expand_for_training(toy_irb(2, seed=3), seed=1)
        mask = [1, 0, 1]
        with_acts = insert_free_activations(apply_mask_vector(g, mask), mask)
        outer, nested, _ = with_acts.blocks
        assert nested == g.blocks[1]
        at = outer.node_ids.index(nested.node_ids[-1])
        assert outer.node_ids[at + 1] == "block1_free_act"
        assert with_acts.node("b0_bn1").input_ids == ("block1_free_act",)
        shrunk, _ = shrink_graph(with_acts, mask)
        assert verify_equivalence(with_acts, shrunk, 3, 1e-10, seed=0).passed

    def test_free_activation_inside_a_masked_block_refuses_its_merge(self):
        from blockfuse.expand import expand_for_training
        g = expand_for_training(toy_irb(2, seed=3), seed=1)
        with_acts = insert_free_activations(g, [0, 0, 1])
        with pytest.raises(MergeError, match="block1_free_act"):
            shrink_graph(with_acts, [0, 0, 1])


class TestVerifyEquivalence:
    def test_detects_difference(self, rng):
        a = irb_graph(rng, 3, 3, 2, 3, 1, residual=False)
        b = irb_graph(rng, 3, 3, 2, 3, 1, residual=False)  # fresh weights
        rep = verify_equivalence(a, b, 2, 1e-10, seed=0)
        assert not rep.passed and rep.max_abs_err > 1e-3

    def test_relative_error_with_an_exact_zero_output(self, rng):
        # channel 0 is exactly 0 before and about 1e-17 after; the relative
        # error is taken against the largest output, not that element
        w = rng.standard_normal((2, 3, 1, 1))
        w[0] = 0.0
        w_after = w.copy()
        w_after[0] = 1e-17

        def one_conv(weights):
            conv = ConvLayer(1, 1, 1, 0, 1, 3, 2, weights)
            return NetGraph((Node("conv", conv, ()),), (1, 3, 4, 4))

        rep = verify_equivalence(one_conv(w), one_conv(w_after), 2, 1e-12, seed=0)
        assert rep.passed
        assert 0 < rep.max_abs_err <= 1e-15
        assert rep.max_rel_err <= 1e-15

    def test_names_the_worst_sample_and_output_index(self, rng):
        # one planted weight difference: output 3 differs by |x[5]| * 1e-3 in
        # each sample, so the worst sample is the one with the largest |x[5]|
        weight = rng.standard_normal((4, 12))
        planted = weight.copy()
        planted[3, 5] += 1e-3

        def flat_linear(w):
            return NetGraph((Node("flat", Flatten(), ()),
                             Node("fc", Linear(w), ("flat",))), (1, 3, 2, 2))

        rep = verify_equivalence(flat_linear(weight), flat_linear(planted), 4, 1e-10,
                                 seed=0)
        gen = np.random.Generator(np.random.PCG64(0))
        inputs = [gen.standard_normal((1, 3, 2, 2)) for _ in range(4)]
        assert not rep.passed
        assert rep.worst_index == 3
        assert rep.worst_sample == int(np.argmax([abs(x.flat[5]) for x in inputs]))
        assert rep.to_json()["worst_sample"] == rep.worst_sample
        assert rep.to_json()["worst_index"] == 3
        assert rep.max_abs_err == pytest.approx(1e-3 * max(abs(x.flat[5]) for x in inputs),
                                                rel=1e-9)

    def test_a_nan_output_fails(self, rng):
        w = rng.standard_normal((2, 3, 1, 1))
        bad = w.copy()
        bad[1, 0, 0, 0] = np.nan

        def one_conv(weights):
            return NetGraph((Node("conv", ConvLayer(1, 1, 1, 0, 1, 3, 2, weights), ()),),
                            (1, 3, 4, 4))

        rep = verify_equivalence(one_conv(w), one_conv(bad), 2, 1e-10, seed=0)
        assert not rep.passed and rep.max_abs_err == np.inf
        assert (rep.worst_sample, rep.worst_index) == (0, 16)  # channel 1's first output

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("side", ["before", "after"])
    def test_a_non_finite_output_has_infinite_errors(self, rng, side, value):
        w = rng.standard_normal((2, 3, 1, 1))
        bad = w.copy()
        bad[1, 0, 0, 0] = value

        def one_conv(weights):
            return NetGraph((Node("conv", ConvLayer(1, 1, 1, 0, 1, 3, 2, weights), ()),),
                            (1, 3, 4, 4))

        graphs = (one_conv(bad), one_conv(w))
        rep = verify_equivalence(*(graphs if side == "before" else graphs[::-1]),
                                 2, 1e-10, seed=0)
        assert not rep.passed
        assert rep.max_abs_err == np.inf and rep.max_rel_err == np.inf

    def test_biased_block_is_exact_everywhere(self, rng):
        g = irb_graph(rng, 3, 3, 2, 3, 1, residual=False, biased=True)
        shrunk, _ = shrink_graph(g, [0])
        assert shrunk.node("block0_merged").layer.bias.shape == (3, 9, 9)
        rep = verify_equivalence(g, shrunk, 2, 1e-10, seed=1)
        assert rep.passed and rep.max_abs_err <= 1e-12
