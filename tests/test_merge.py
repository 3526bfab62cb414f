import numpy as np
import pytest

import blockfuse.merge as merge_module
from blockfuse.core import (
    Activation,
    ActivationKind,
    AvgPool,
    Tensor,
    execute_layer,
)
from blockfuse.errors import MergeError
from blockfuse.graph import execute_graph, validate_graph
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
from blockfuse.fixtures import toy_irb

from conftest import irb_chain, irb_graph, random_bn, random_conv, run_chain


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

    def test_bn_fold_channel_mismatch(self, rng):
        with pytest.raises(MergeError):
            fold_bn_into_conv(random_conv(rng, 3, 5, 3), random_bn(rng, 4))

    def test_bn_to_conv(self, rng):
        bn = random_bn(rng, 4, biased=True)
        x = Tensor.of(rng.standard_normal((1, 4, 5, 5)))
        seq = execute_layer(bn, x).data
        conv = bn_to_conv(bn)
        assert conv.kernel_h == 1 and conv.groups == 1
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
        pool = AvgPool(2, 2)
        dense = lift_to_dense(pool, channels=3)
        x = Tensor.of(rng.standard_normal((1, 3, 6, 6)))
        assert _max_err(execute_layer(pool, x).data,
                        execute_layer(dense, x).data) <= 1e-12
        with pytest.raises(MergeError):
            lift_to_dense(pool)


class TestCompose:
    @pytest.mark.parametrize("d1,d2,s1,s2,p2", [
        (1, 3, 1, 1, 1), (3, 3, 1, 1, 0), (3, 1, 2, 1, 0), (3, 3, 2, 2, 0),
        (5, 3, 1, 2, 0), (1, 5, 2, 1, 2),
    ])
    def test_compose_matches_sequential(self, rng, d1, d2, s1, s2, p2):
        first = random_conv(rng, 3, 4, d1, stride=s1, padding=(d1 - 1) // 2)
        second = random_conv(rng, 4, 5, d2, stride=s2, padding=p2)
        merged = compose_convs(first, second)
        assert merged.boundary_exact
        x = Tensor.of(rng.standard_normal((1, 3, 12, 12)))
        seq = execute_layer(second, execute_layer(first, x)).data
        assert _max_err(seq, execute_layer(merged.conv, x).data) <= 1e-12

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
        assert merged.conv.kernel_h == lifted.conv.kernel_h
        assert merged.conv.stride == lifted.conv.stride
        assert merged.conv.padding == lifted.conv.padding
        assert merged.boundary_exact == lifted.boundary_exact
        assert _max_err(merged.conv.weights, lifted.conv.weights) <= 1e-12
        if biased:
            assert _max_err(merged.conv.bias, lifted.conv.bias) <= 1e-12
        else:
            assert merged.conv.bias is None and lifted.conv.bias is None
        x = Tensor.of(rng.standard_normal((1, 3, 13, 13)))
        seq = execute_layer(dw, execute_layer(first, x)).data
        got = execute_layer(merged.conv, x).data
        # a biased first conv through a padded depthwise conv is exact away
        # from the p2-wide border only (s2 is 1 in those cases)
        b = 0 if merged.boundary_exact else p2
        assert merged.boundary_exact or s2 == 1
        h = seq.shape[2]
        inner = (slice(None), slice(None), slice(b, h - b), slice(b, h - b))
        assert _max_err(seq[inner], got[inner]) <= 1e-12

    def test_padded_successor_of_wide_conv_is_interior_exact_only(self, rng):
        first = random_conv(rng, 3, 4, 3, padding=1)
        second = random_conv(rng, 4, 5, 3, padding=1)
        merged = compose_convs(first, second)
        assert not merged.boundary_exact
        x = Tensor.of(rng.standard_normal((1, 3, 12, 12)))
        seq = execute_layer(second, execute_layer(first, x)).data
        got = execute_layer(merged.conv, x).data
        # border rows differ, interior agrees; merged kernel 5 -> border 2
        assert _max_err(seq[:, :, 2:-2, 2:-2], got[:, :, 2:-2, 2:-2]) <= 1e-12

    def test_kernel_stride_padding_law(self, rng):
        for d1 in (1, 3, 5):
            for d2 in (1, 3, 5):
                for s1 in (1, 2):
                    for s2 in (1, 2):
                        first = random_conv(rng, 2, 2, d1, stride=s1)
                        second = random_conv(rng, 2, 2, d2, stride=s2)
                        m = compose_convs(first, second).conv
                        assert m.kernel_h == (d2 - 1) * s1 + d1
                        assert m.stride == s1 * s2
                        assert m.padding == first.padding + s1 * second.padding

    def test_bias_composition(self, rng):
        first = random_conv(rng, 2, 3, 3, bias=True)
        second = random_conv(rng, 3, 2, 1, padding=0, bias=True)
        merged = compose_convs(first, second)
        # unpadded second conv keeps the merge exact everywhere
        assert merged.boundary_exact
        x = Tensor.of(rng.standard_normal((1, 2, 8, 8)))
        seq = execute_layer(second, execute_layer(first, x)).data
        assert _max_err(seq, execute_layer(merged.conv, x).data) <= 1e-12

    def test_boundary_exact_flag(self, rng):
        padded = random_conv(rng, 3, 2, 3, padding=1)
        biased_pw = random_conv(rng, 2, 3, 1, padding=0, bias=True)
        assert not compose_convs(biased_pw, padded).boundary_exact
        clean_pw = random_conv(rng, 2, 3, 1, padding=0, bias=False)
        assert compose_convs(clean_pw, padded).boundary_exact

    def test_compose_rejects_grouped(self, rng):
        with pytest.raises(MergeError):
            compose_convs(random_conv(rng, 4, 4, 3, groups=4),
                          random_conv(rng, 4, 4, 1))

    def test_compose_rejects_general_grouped_second(self, rng):
        with pytest.raises(MergeError):
            compose_convs(random_conv(rng, 3, 4, 1),
                          random_conv(rng, 4, 4, 3, groups=2))

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
        merged = merge_chain(chain, residual)
        assert merged.conv.kernel_h == k and merged.conv.stride == s
        assert merged.conv.c_in == 4 and merged.conv.c_out == 4
        assert _max_err(seq, execute_layer(merged.conv, x).data) <= 1e-10

    def test_live_activation_refuses(self, rng):
        chain = irb_chain(rng, 4, 4, 2, 3, 1, act=ActivationKind.RELU6)
        with pytest.raises(MergeError, match="act1"):
            merge_chain(chain, False)

    def test_bn_first_chain(self, rng):
        chain = [("bn", random_bn(rng, 3, biased=True)),
                 ("conv", random_conv(rng, 3, 2, 3, padding=0))]
        x = Tensor.of(rng.standard_normal((1, 3, 6, 6)))
        seq = run_chain(chain, x).data
        merged = merge_chain(chain, False)
        assert _max_err(seq, execute_layer(merged.conv, x).data) <= 1e-12

    def test_depthwise_is_never_lifted_after_a_conv(self, rng, monkeypatch):
        lifted = []
        real_lift = merge_module.lift_to_dense

        def counting_lift(layer, *args, **kwargs):
            lifted.append(layer)
            return real_lift(layer, *args, **kwargs)

        monkeypatch.setattr(merge_module, "lift_to_dense", counting_lift)
        merge_chain(irb_chain(rng, 4, 4, 6, 3, 2), False)
        assert [layer.groups for layer in lifted] == [1, 1]

    def test_depthwise_first_chain(self, rng):
        chain = [("dw", random_conv(rng, 4, 4, 3, groups=4)),
                 ("pw", random_conv(rng, 4, 3, 1, padding=0))]
        x = Tensor.of(rng.standard_normal((1, 4, 7, 7)))
        seq = run_chain(chain, x).data
        merged = merge_chain(chain, False)
        assert _max_err(seq, execute_layer(merged.conv, x).data) <= 1e-12

    def test_empty_chain(self):
        with pytest.raises(MergeError):
            merge_chain([], False)


class TestMergeBlock:
    def test_block_merge_equivalence(self, rng):
        g = irb_graph(rng, 4, 4, 2, 3, 1, residual=True)
        merged = merge_block(g, g.blocks[0])
        x = Tensor.of(rng.standard_normal(g.input_dims))
        before = execute_graph(g, x).data
        after = execute_layer(merged.conv, x).data  # stem is identity
        assert _max_err(before, after) <= 1e-10


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
        assert report.all_boundary_exact

    def test_full_mask_removes_block_structure(self, rng):
        g = toy_irb(2, seed=3)
        shrunk, report = shrink_graph(g, [0, 0])
        names = {n.node_id for n in shrunk.nodes}
        assert "block0_merged" in names and "block1_merged" in names
        assert all(b.kind == "plain_conv" for b in shrunk.blocks)
        assert report.max_merged_kernel == 3

    def test_mask_length_check(self, rng):
        with pytest.raises(MergeError):
            shrink_graph(toy_irb(2, seed=3), [0])

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


class TestVerifyEquivalence:
    def test_detects_difference(self, rng):
        a = irb_graph(rng, 3, 3, 2, 3, 1, residual=False)
        b = irb_graph(rng, 3, 3, 2, 3, 1, residual=False)  # fresh weights
        rep = verify_equivalence(a, b, 2, 1e-10, seed=0)
        assert not rep.passed and rep.max_abs_err > 1e-3

    def test_border_exclusion(self, rng):
        g = irb_graph(rng, 3, 3, 2, 3, 1, residual=False, biased=True)
        merged = merge_block(g, g.blocks[0])
        assert not merged.boundary_exact
        shrunk, _ = shrink_graph(g, [0])
        strict = verify_equivalence(g, shrunk, 2, 1e-10, seed=1)
        assert not strict.passed  # border rows genuinely differ
        interior = verify_equivalence(g, shrunk, 2, 1e-10, seed=1, border=1,
                                      require_full=False)
        assert interior.passed
        assert interior.interior_max_abs_err <= 1e-12
