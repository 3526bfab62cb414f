import numpy as np
import pytest

from blockfuse.core import ActivationKind, ConvLayer
from blockfuse.errors import GraphError
from blockfuse.expand import expand_for_training
from blockfuse.fixtures import toy_irb, vgg_toy
from blockfuse.graph import NetGraph, Node, apply_mask_vector, block_geometry, validate_graph
from blockfuse.merge import shrink_graph, verify_equivalence


class TestPlainGraphExpansion:
    def test_eligible_convs_become_blocks(self):
        g = vgg_toy(seed=0)
        expanded = expand_for_training(g, seed=1)
        validate_graph(expanded)
        # convs 2 and 3 are eligible (first two and last excluded); each
        # replacement adds a 9-node residual block for a removed conv
        assert len(expanded.blocks) == 2
        assert len(expanded.nodes) == len(g.nodes) + 2 * 8
        for b in expanded.blocks:
            assert b.kind == "inverted_residual"
            pw1 = expanded.node(b.node_ids[0]).layer
            assert pw1.c_out == 6 * pw1.c_in

    def test_block_ids_in_network_order(self):
        expanded = expand_for_training(vgg_toy(seed=0), seed=1)
        assert [b.block_id for b in expanded.blocks] == [0, 1]

    def test_too_few_convs_rejected(self):
        from conftest import random_conv
        rng = np.random.Generator(np.random.PCG64(0))
        nodes = (Node("c0", random_conv(rng, 3, 4, 3), ()),
                 Node("c1", random_conv(rng, 4, 4, 3), ("c0",)))
        g = NetGraph(nodes, (1, 3, 8, 8))
        with pytest.raises(GraphError, match="expand"):
            expand_for_training(g)

    def test_deterministic_for_seed(self):
        a = expand_for_training(vgg_toy(seed=0), seed=7)
        b = expand_for_training(vgg_toy(seed=0), seed=7)
        for na, nb in zip(a.nodes, b.nodes):
            assert na.node_id == nb.node_id
            if isinstance(na.layer, ConvLayer):
                assert np.array_equal(na.layer.weights, nb.layer.weights)


class TestIrbGraphExpansion:
    def test_every_other_block_gains_nested_block(self):
        g = toy_irb(4, seed=0)
        expanded = expand_for_training(g, seed=1)
        validate_graph(expanded)
        # blocks 0 and 2 get a nested pointwise block each: 4 + 2 blocks
        assert len(expanded.blocks) == 6
        index = expanded.node_index
        nested = [b for b in expanded.blocks if block_geometry(index, b)[0] == 1]
        assert len(nested) == 2
        # nested blocks replace a single pointwise conv with an 8-node chain
        assert len(expanded.nodes) == len(g.nodes) + 2 * 7

    def test_containing_block_annotation_remapped(self):
        expanded = expand_for_training(toy_irb(2, seed=0), seed=1)
        outer = max(expanded.blocks, key=lambda b: len(b.node_ids))
        ids = set(outer.node_ids)
        nested = [b for b in expanded.blocks if set(b.node_ids) < ids]
        assert nested, "outer block must contain the nested block's nodes"


class TestRoundTrip:
    @pytest.mark.parametrize("make", [lambda: vgg_toy(seed=2),
                                      lambda: toy_irb(2, seed=2)])
    def test_merge_recovers_function_of_expanded_linear_net(self, make):
        g = make()
        expanded = expand_for_training(g, seed=3)
        # merge only the new blocks: in a plain graph every block is new, in
        # an IRB graph the new nested blocks are the pointwise (1x1 kernel) ones
        index = expanded.node_index
        mask = [0 if (not g.blocks or block_geometry(index, b)[0] == 1) else 1
                for b in expanded.blocks]
        shrunk, report = shrink_graph(expanded, mask)
        validate_graph(shrunk)
        merged_count = sum(1 for r in report.records if r.merged)
        assert merged_count == mask.count(0)
        from blockfuse.graph import apply_mask_vector
        rep = verify_equivalence(apply_mask_vector(expanded, mask), shrunk,
                                 3, 1e-10, seed=11)
        assert rep.passed

    def test_plain_round_trip_restores_per_layer_architecture(self):
        g = vgg_toy(seed=2)
        expanded = expand_for_training(g, seed=3)
        shrunk, _ = shrink_graph(expanded, [0] * len(expanded.blocks))
        orig_convs = [(n.layer.kernel_h, n.layer.stride, n.layer.c_in, n.layer.c_out)
                      for n in g.nodes if isinstance(n.layer, ConvLayer)]
        new_convs = [(n.layer.kernel_h, n.layer.stride, n.layer.c_in, n.layer.c_out)
                     for n in shrunk.nodes if isinstance(n.layer, ConvLayer)]
        assert new_convs == orig_convs

    def test_shrunk_graph_expands_and_shrinks_back(self):
        # every block of a fully shrunk toy_irb(3) is one merged 3x3 conv in a
        # plain_conv block; the plain rule picks block1_merged, whose block the
        # new IRB replaces
        shrunk, _ = shrink_graph(toy_irb(3, seed=2), [0, 0, 0])
        expanded = expand_for_training(shrunk, seed=3)
        validate_graph(expanded)
        assert [b.kind for b in expanded.blocks] == \
            ["plain_conv", "inverted_residual", "plain_conv"]
        assert expanded.blocks[1].node_ids[0] == "block1_merged_exp_pw1"
        mask = [1, 0, 1]
        back, _ = shrink_graph(expanded, mask)

        def conv_shapes(g):
            return [(n.layer.kernel_h, n.layer.stride, n.layer.groups, n.layer.c_in,
                     n.layer.c_out) for n in g.nodes if isinstance(n.layer, ConvLayer)]

        assert conv_shapes(back) == conv_shapes(shrunk)
        rep = verify_equivalence(apply_mask_vector(expanded, mask), back, 3, 1e-10, seed=5)
        assert rep.passed, rep

    def test_conv_inside_a_larger_block_is_skipped(self):
        # with a free activation each merged block is (conv, act); no conv is
        # then the whole of its block, so nothing is eligible
        shrunk, _ = shrink_graph(toy_irb(3, seed=2), [0, 0, 0],
                                 free_activation=ActivationKind.RELU)
        with pytest.raises(GraphError, match="inside a block"):
            expand_for_training(shrunk)
