import json
from dataclasses import replace
import os
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from blockfuse import graph as graph_module
from blockfuse import io
from blockfuse.cli import run
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
)
from blockfuse.errors import FormatError, GraphError, ShapeError
from blockfuse.expand import expand_for_training
from blockfuse.fixtures import generate, mobilenet_v2, toy_irb, vgg_toy
from blockfuse.graph import (
    IRB_PATTERN,
    BlockAnnotation,
    LatencyTable,
    NetGraph,
    Node,
    apply_mask_vector,
    block_geometry,
    execute_graph,
    graph_sink,
    irb,
    splice,
    topological_order,
    validate_graph,
    value_dims,
)
from blockfuse.merge import shrink_graph

from conftest import identity_conv, irb_graph, random_bn, random_conv


class TestGraphStructure:
    def test_topological_order_respects_edges(self):
        g = toy_irb(2, seed=0)
        pos = {n.node_id: i for i, n in enumerate(topological_order(g))}
        for n in g.nodes:
            for ref in n.input_ids:
                assert pos[ref] < pos[n.node_id]

    def test_topological_order_is_the_node_list(self):
        g = expand_for_training(toy_irb(2, seed=0), seed=1)
        assert topological_order(g) == list(g.nodes)

    def test_input_listed_after_its_reader(self):
        nodes = (Node("a", identity_conv(2), ()), Node("c", identity_conv(2), ("b",)),
                 Node("b", identity_conv(2), ("a",)))
        with pytest.raises(GraphError, match="'c' is listed before its input 'b'"):
            validate_graph(NetGraph(nodes, (1, 2, 4, 4)))

    def test_duplicate_node_id(self):
        nodes = (Node("a", identity_conv(2), ()), Node("a", identity_conv(2), ("a",)))
        with pytest.raises(GraphError, match="duplicate"):
            topological_order(NetGraph(nodes, (1, 2, 4, 4)))

    def test_unknown_input_reference(self):
        nodes = (Node("a", identity_conv(2), ("ghost",)),)
        with pytest.raises(GraphError, match="ghost"):
            topological_order(NetGraph(nodes, (1, 2, 4, 4)))

    def test_cycle_detection(self):
        nodes = (Node("a", identity_conv(2), ("b",)),
                 Node("b", identity_conv(2), ("a",)))
        with pytest.raises(GraphError, match="cycle"):
            topological_order(NetGraph(nodes, (1, 2, 4, 4)))

    def test_multiple_sinks_rejected(self):
        nodes = (Node("a", identity_conv(2), ()),
                 Node("b", identity_conv(2), ("a",)),
                 Node("c", identity_conv(2), ("a",)))
        with pytest.raises(GraphError, match="sink"):
            graph_sink(NetGraph(nodes, (1, 2, 4, 4)))

    def test_validate_returns_shapes(self):
        g = toy_irb(1, channels=8, image_size=8, seed=0)
        shapes = validate_graph(g)
        assert shapes["stem_conv"] == (1, 8, 8, 8)
        assert shapes["classifier"] == (1, 2, 1, 1)

    def test_block_pattern_enforced(self, rng):
        g = irb_graph(rng, 3, 3, 2, 3, 1, residual=False)
        # swap the annotation order so it no longer matches PW-BN-Act-...
        bad_block = BlockAnnotation(0, "inverted_residual",
                                    tuple(reversed(g.blocks[0].node_ids)), ("act1", "act2"))
        with pytest.raises(GraphError):
            validate_graph(NetGraph(g.nodes, g.input_dims, (bad_block,), {}))

    def test_block_ids_must_follow_network_order(self):
        g = toy_irb(2, seed=0)
        from dataclasses import replace
        swapped = (replace(g.blocks[0], block_id=1), replace(g.blocks[1], block_id=0))
        with pytest.raises(GraphError, match="out of order"):
            validate_graph(NetGraph(g.nodes, g.input_dims, swapped, {}))


def _with(g, nodes=(), **fields):
    """`g` (one block) with `nodes` replacing or adding nodes by id, and `fields`
    replaced in its block."""
    table = {n.node_id: n for n in g.nodes}
    table.update({n.node_id: n for n in nodes})
    return NetGraph(tuple(table.values()), g.input_dims,
                    (replace(g.blocks[0], **fields),), {})


def _one_block(rng, residual):
    return irb_graph(rng, 3, 3, 1, 3, 1, residual=residual)


def _two_adds(rng):
    g = _one_block(rng, True)
    return _with(g, [Node("add2", Add(), ("add", "stem"))],
                 node_ids=g.blocks[0].node_ids + ("add2",))


def _add_not_last(rng):
    g = _one_block(rng, True)
    return _with(g, node_ids=("add",) + g.blocks[0].node_ids[:-1])


def _add_only(rng):
    return _with(_one_block(rng, True), node_ids=("add",), act_node_ids=())


def _entry_reads_two(rng):
    g = _one_block(rng, False)
    return _with(g, [replace(g.node("pw1"), input_ids=("stem", "stem"))])


def _interior_read_outside(rng):
    return _with(_one_block(rng, False), [Node("out", Add(), ("bn3", "bn1"))])


def _add_skips_entry(rng):
    g = _one_block(rng, True)
    return _with(g, [replace(g.node("add"), input_ids=("bn3", "bn3"))])


def _pattern_mismatch(rng):
    # a well-formed chain that stops before bn3, so only the pattern check trips
    g = _one_block(rng, False)
    return _with(g, node_ids=g.blocks[0].node_ids[:-1])


def _add_of_two_shapes(rng):
    return NetGraph((Node("a", random_conv(rng, 3, 3, 1), ()),
                     Node("b", random_conv(rng, 3, 4, 1), ()),
                     Node("add", Add(), ("a", "b"))), (1, 3, 5, 5))


class TestValidationRejects:
    @pytest.mark.parametrize("make, match", [
        pytest.param(_two_adds, "an Add before its last node", id="two-adds"),
        pytest.param(_add_not_last, "an Add before its last node", id="add-not-last"),
        pytest.param(_add_only, "no node besides its Add", id="add-only"),
        pytest.param(_entry_reads_two, "'pw1': ConvLayer takes 1 input", id="two-inputs"),
        pytest.param(_interior_read_outside, "interior node 'bn1' consumed outside",
                     id="interior-read-outside"),
        pytest.param(_add_skips_entry, "Add must join block entry input and chain exit",
                     id="add-skips-entry"),
        pytest.param(lambda rng: _with(_one_block(rng, False), act_node_ids=("act1",)),
                     "act_node_ids must have 0 or 2 entries", id="one-act-id"),
        pytest.param(lambda rng: _with(_one_block(rng, False),
                                       act_node_ids=("act1", "bn1")),
                     "'bn1' is not an activation", id="act-id-not-an-activation"),
        pytest.param(_pattern_mismatch, "does not match PW-BN-Act-DW-BN-Act-PW-BN",
                     id="pattern"),
        # on a 1x1 input a stride-2 dw keeps the shape, so only the rule trips
        pytest.param(lambda rng: irb_graph(rng, 3, 3, 1, 3, 2, True, image_size=1),
                     "residual requires stride 1", id="residual-stride-2"),
        pytest.param(lambda rng: NetGraph((), (1, 3, 5, 5)), "empty graph", id="empty"),
        pytest.param(_add_of_two_shapes, "Add inputs differ", id="add-shapes"),
    ])
    def test_rejection_names_the_fault(self, rng, make, match):
        with pytest.raises(GraphError, match=match):
            validate_graph(make(rng))

    def test_cost_of_a_block_read_from_outside_exits_1(self, tmp_path, rng, capsys):
        io.save_graph(_interior_read_outside(rng), tmp_path / "graph.json")
        assert run(["cost", "--graph", str(tmp_path / "graph.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "GraphError" and "consumed outside" in err["message"]

    @pytest.mark.parametrize("order", [(1, 0, 2), (2, 0, 1)])
    def test_permuted_blocks_are_rejected(self, order):
        g = toy_irb(3, seed=0)
        permuted = tuple(g.blocks[i] for i in order)
        for blocks in (permuted, tuple(replace(b, block_id=i)
                                       for i, b in enumerate(permuted))):
            with pytest.raises(GraphError, match="out of order"):
                validate_graph(replace(g, blocks=blocks))

    def test_permuted_block_records_load_in_id_order(self):
        doc = io.graph_to_json(toy_irb(3, seed=0))
        shuffled = dict(doc, blocks=[doc["blocks"][i] for i in (2, 0, 1)])
        loaded = io.graph_from_json(shuffled)
        assert [b.block_id for b in loaded.blocks] == [0, 1, 2]
        validate_graph(loaded)
        assert io.graph_to_json(loaded) == doc


class TestSpliceAndIrb:
    def test_splice_of_a_nested_block(self, rng):
        # block 1 (the expansion of b0_pw1) is nested in block 0; block 2 is disjoint
        g = expand_for_training(toy_irb(2, seed=0), seed=1)
        outer, nested, other = g.blocks
        span = nested.node_ids
        before = [n.node_id for n in g.nodes]
        entry = g.node(span[0])
        new_nodes = [Node("m", random_conv(rng, 8, 16, 1), entry.input_ids),
                     Node("m_act", Activation(ActivationKind.RELU), ("m",))]
        out = splice(g, span, new_nodes)

        ids = [n.node_id for n in out.nodes]
        at = before.index(span[0])
        assert ids[at:at + 2] == ["m", "m_act"]
        assert ids[:at] == before[:at]
        assert ids[at + 2:] == [nid for nid in before[at:] if nid not in span]
        assert out.node("m").input_ids == entry.input_ids
        # the one outside reader of the nested exit reads the new tail
        readers = [n.node_id for n in g.nodes if span[-1] in n.input_ids]
        assert readers == ["b0_bn1"]
        assert out.node("b0_bn1").input_ids == ("m_act",)
        for n in out.nodes:
            if n.node_id not in ("m", "m_act", "b0_bn1"):
                assert n == g.node(n.node_id)
        # the containing block lists the new ids in place; the disjoint one is as it was
        assert out.blocks[0].node_ids == ("m", "m_act") + outer.node_ids[len(span):]
        assert outer.node_ids[:len(span)] == span
        assert out.blocks[1].node_ids == ("m", "m_act")
        assert out.blocks[2] == other
        merged = replace(out.blocks[1], kind="plain_conv", act_node_ids=())
        validate_graph(replace(out, blocks=(out.blocks[0], merged, out.blocks[2])))

    def test_splice_drops_a_block_strictly_inside_the_span(self, rng):
        g = expand_for_training(toy_irb(2, seed=0), seed=1)
        outer, _, other = g.blocks
        entry = g.node(outer.node_ids[0])
        out = splice(g, outer.node_ids,
                     [Node("m", random_conv(rng, 8, 8, 3), entry.input_ids)])
        assert out.blocks == (replace(outer, node_ids=("m",)), other)

    def test_splice_rebuilds_only_the_nodes_that_read_the_exit(self):
        g = toy_irb(2, seed=0)
        span = g.blocks[0].node_ids
        entry = g.node(span[0])
        out = splice(g, span, [Node("m", entry.layer, entry.input_ids)])
        readers = {n.node_id for n in g.nodes if span[-1] in n.input_ids}
        assert readers == {"b1_pw1", "b1_add"}
        for n in out.nodes[1:]:
            if n.node_id != "m":
                assert (n is g.node(n.node_id)) == (n.node_id not in readers), n.node_id
                assert span[-1] not in n.input_ids

    def test_splice_of_one_node_keeps_it_in_place(self):
        g = toy_irb(2, seed=0)
        act = Node("extra", Activation(ActivationKind.IDENTITY), ("b0_add",))
        out = splice(g, ("b0_add",), [g.node("b0_add"), act])
        ids = [n.node_id for n in out.nodes]
        assert ids[ids.index("b0_add") + 1] == "extra"
        assert out.node("b1_pw1").input_ids == ("extra",)
        assert out.node("b1_add").input_ids == ("b1_bn3", "extra")
        assert out.blocks[0].node_ids == g.blocks[0].node_ids + ("extra",)
        assert out.blocks[1] == g.blocks[1]

    @pytest.mark.parametrize("residual", [False, True])
    def test_irb_follows_the_pattern(self, residual):
        calls = []

        def conv_weights(c_out, c_in_per_group, k):
            calls.append(("conv", c_out, c_in_per_group, k))
            return np.ones((c_out, c_in_per_group, k, k))

        def bn(c):
            calls.append(("bn", c))
            return random_bn(np.random.Generator(np.random.PCG64(0)), c)

        c_out = 4 if residual else 6
        nodes, block = irb("x", ("stem",), 4, c_out, 2.0, 3, 1, residual, 0,
                           conv_weights, bn)
        assert tuple(type(n.layer) for n in nodes[:8]) == IRB_PATTERN
        assert calls == [("conv", 8, 4, 1), ("bn", 8), ("conv", 8, 1, 3), ("bn", 8),
                         ("conv", c_out, 8, 1), ("bn", c_out)]
        assert nodes[3].layer.groups == 8 and nodes[3].layer.padding == 1
        assert nodes[0].input_ids == ("stem",)
        for prev, cur in zip(nodes[:8], nodes[1:8]):
            assert cur.input_ids == (prev.node_id,)
        if residual:
            assert len(nodes) == 9 and isinstance(nodes[8].layer, Add)
            assert nodes[8].input_ids == ("x_bn3", "stem")
        else:
            assert len(nodes) == 8
        assert block.node_ids == tuple(n.node_id for n in nodes)
        assert block.act_node_ids == ("x_act1", "x_act2")
        assert block.kind == "inverted_residual"
        g = NetGraph((Node("stem", identity_conv(4), ()),) + tuple(nodes),
                     (1, 4, 6, 6), (block,), {})
        validate_graph(g)
        assert block_geometry(g.node_index, block) == (3, 1, residual)


class TestExecuteAndMask:
    def test_execute_matches_manual_chain(self, rng):
        c1 = random_conv(rng, 2, 3, 3)
        c2 = random_conv(rng, 3, 2, 3)
        nodes = (Node("c1", c1, ()), Node("c2", c2, ("c1",)))
        g = NetGraph(nodes, (1, 2, 6, 6))
        x = Tensor.of(rng.standard_normal((1, 2, 6, 6)))
        from blockfuse.core import execute_layer
        want = execute_layer(c2, execute_layer(c1, x)).data
        np.testing.assert_array_equal(execute_graph(g, x).data, want)

    def test_apply_mask_replaces_both_block_activations(self):
        g = toy_irb(2, seed=0)
        masked = apply_mask_vector(g, [0, 1])
        for aid in g.blocks[0].act_node_ids:
            assert masked.node(aid).layer.kind is ActivationKind.IDENTITY
        for aid in g.blocks[1].act_node_ids:
            assert masked.node(aid).layer.kind is ActivationKind.RELU6

    def test_mask_validation(self):
        g = toy_irb(2, seed=0)
        with pytest.raises(GraphError):
            apply_mask_vector(g, [0])
        with pytest.raises(GraphError):
            apply_mask_vector(g, [0, 2])


def _untaped_and_taped(g, x, gates=None):
    """Outputs of the walk that reuses buffers and of the taped walk, which
    never writes in place."""
    return execute_graph(g, x, gates).data, execute_graph(g, x, gates, tape=[]).data


def _aliasing_graph(rng, c=3):
    """conv feeds an identity activation and a BN; the Add reads both. The
    identity output is a live view of conv's buffer when conv reaches its last
    consumer, the BN, so that buffer must not be written."""
    nodes = (Node("conv", random_conv(rng, c, c, 3), ()),
             Node("view", Activation(ActivationKind.IDENTITY), ("conv",)),
             Node("bn", random_bn(rng, c, biased=True), ("conv",)),
             Node("add", Add(), ("view", "bn")))
    return NetGraph(nodes, (1, c, 6, 6))


def _bn_feeds_add_graph(rng, c=3):
    """conv -> bn -> relu, and an Add of the bn input (conv) with relu's output."""
    nodes = (Node("conv", random_conv(rng, c, c, 3, bias=True), ()),
             Node("bn", random_bn(rng, c, biased=True), ("conv",)),
             Node("relu", Activation(ActivationKind.RELU), ("bn",)),
             Node("add", Add(), ("conv", "relu")))
    return NetGraph(nodes, (1, c, 6, 6))


def _input_view_graph(rng, c=3):
    """Identity and Flatten views of the caller's input, each fed to layers that
    may write in place."""
    nodes = (Node("view", Activation(ActivationKind.IDENTITY), ()),
             Node("bn", random_bn(rng, c, biased=True), ("view",)),
             Node("relu", Activation(ActivationKind.RELU), ("bn",)),
             Node("flat", Flatten(), ()),
             Node("relu2", Activation(ActivationKind.RELU), ("flat",)),
             Node("pool", AvgPool(6, 1), ("relu",)),
             Node("flat2", Flatten(), ("pool",)),
             Node("add", Add(), ("flat2", "flat2")),
             Node("lin", Linear(rng.standard_normal((c, c * 36))), ("relu2",)),
             Node("sum", Add(), ("add", "lin")))
    return NetGraph(nodes, (1, c, 6, 6))


class TestBufferOwnership:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda rng: toy_irb(2, seed=1), id="toy-irb"),
        pytest.param(lambda rng: mobilenet_v2(1.0, image_size=32, seed=1), id="mbv2-32px"),
        pytest.param(_aliasing_graph, id="view-of-a-live-value"),
        pytest.param(_bn_feeds_add_graph, id="bn-input-feeds-add"),
        pytest.param(_input_view_graph, id="views-of-the-input"),
    ])
    def test_reusing_walk_equals_taped_walk_and_keeps_the_input(self, rng, make):
        g = make(rng)
        x = Tensor.of(rng.standard_normal((2,) + tuple(g.input_dims[1:])) - 0.5)
        x_before = x.data.copy()
        untaped, taped = _untaped_and_taped(g, x)
        assert np.array_equal(untaped, taped)
        np.testing.assert_array_equal(x.data, x_before)

    def test_execute_layer_sees_which_inputs_are_spare(self, rng, monkeypatch):
        seen = {}

        def spy(layer, *ins):
            seen[id(layer)] = [t.spare for t in ins]
            return execute_layer(layer, *ins)

        monkeypatch.setattr(graph_module, "execute_layer", spy)
        chain = NetGraph((Node("conv", random_conv(rng, 3, 3, 3), ()),
                          Node("bn", random_bn(rng, 3, biased=True), ("conv",)),
                          Node("relu", Activation(ActivationKind.RELU), ("bn",))),
                         (1, 3, 6, 6))
        aliasing = _aliasing_graph(rng)
        for g in (chain, aliasing):
            execute_graph(g, Tensor.of(rng.standard_normal(g.input_dims)))
        # the conv reads the caller's x; BN's input in the aliasing graph is the
        # buffer that the live identity view still shows
        assert [seen[id(chain.node(n).layer)] for n in ("conv", "bn", "relu")] == \
            [[False], [True], [True]]
        assert seen[id(aliasing.node("bn").layer)] == [False]

    @pytest.mark.parametrize("make", [
        pytest.param(lambda rng: toy_irb(2, seed=1), id="toy-irb"),
        pytest.param(_aliasing_graph, id="view-of-a-live-value"),
        pytest.param(_bn_feeds_add_graph, id="bn-input-feeds-add"),
        pytest.param(_input_view_graph, id="views-of-the-input"),
    ])
    def test_chunks_of_one_equal_taped_walk_and_keep_the_input(self, rng, monkeypatch,
                                                               make):
        g = make(rng)
        x = Tensor.of(rng.standard_normal((3,) + tuple(g.input_dims[1:])) - 0.5)
        x_before = x.data.copy()
        taped = execute_graph(g, x, tape=[]).data
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", 1)
        walks = _spy_walks(monkeypatch)
        chunked = execute_graph(g, x).data
        assert walks == [1, 1, 1]
        np.testing.assert_allclose(chunked, taped, rtol=0, atol=1e-12 * np.abs(taped).max())
        np.testing.assert_array_equal(x.data, x_before)

    def test_spare_inputs_are_handed_over_inside_chunks(self, rng, monkeypatch):
        seen = []

        def spy(layer, *ins):
            seen.append((type(layer).__name__, [t.spare for t in ins]))
            return execute_layer(layer, *ins)

        monkeypatch.setattr(graph_module, "execute_layer", spy)
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", 1)
        chain = NetGraph((Node("conv", random_conv(rng, 3, 3, 3), ()),
                          Node("bn", random_bn(rng, 3, biased=True), ("conv",)),
                          Node("relu", Activation(ActivationKind.RELU), ("bn",))),
                         (1, 3, 6, 6))
        execute_graph(chain, Tensor.of(rng.standard_normal((2, 3, 6, 6))))
        # each chunk's conv reads its slice of x; BN and ReLU get a dying buffer
        assert seen == [("ConvLayer", [False]), ("BatchNormLayer", [True]),
                        ("Activation", [True])] * 2

    def test_half_gates_equal_taped_result(self, rng):
        g = mobilenet_v2(1.0, image_size=32, seed=1)
        gates = {aid: 0.5 for b in g.blocks for aid in b.act_node_ids}
        x = Tensor.of(rng.standard_normal((2,) + tuple(g.input_dims[1:])))
        untaped, taped = _untaped_and_taped(g, x, gates)
        assert np.array_equal(untaped, taped)
        assert not np.array_equal(untaped, execute_graph(g, x).data)


def _spy_walks(monkeypatch) -> list:
    """Record the sample count of each walk `execute_graph` makes."""
    sizes, real = [], graph_module._walk

    def spy(order, last_use, sink, x, gates, tape):
        sizes.append(x.dims[0])
        return real(order, last_use, sink, x, gates, tape)

    monkeypatch.setattr(graph_module, "_walk", spy)
    return sizes


def _chunk_of(monkeypatch, g, samples, itemsize=8):
    """Set the chunk budget to `samples` samples of g's largest value."""
    dims = value_dims(topological_order(g), tuple(g.input_dims))
    per_sample = max(int(np.prod(d[1:])) for d in dims.values()) * itemsize
    monkeypatch.setattr(graph_module, "_CHUNK_BYTES", samples * per_sample)


class TestWalkerChunks:
    """An untaped walk over more samples than `_CHUNK_BYTES` holds runs in chunks."""

    @staticmethod
    def _net_and_input(rng, n=5):
        g = mobilenet_v2(1.0, image_size=32, seed=1)
        return g, Tensor.of(rng.standard_normal((n,) + tuple(g.input_dims[1:])))

    def test_chunks_match_the_whole_batch(self, rng, monkeypatch):
        g, x = self._net_and_input(rng)
        x_before = x.data.copy()
        whole = execute_graph(g, x).data
        walks = _spy_walks(monkeypatch)
        _chunk_of(monkeypatch, g, 2)
        chunked = execute_graph(g, x).data
        assert walks == [2, 2, 1]
        np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12 * np.abs(whole).max())
        np.testing.assert_array_equal(x.data, x_before)

    def test_chunks_of_one_equal_per_sample_runs(self, rng, monkeypatch):
        g, x = self._net_and_input(rng)
        single = [execute_graph(g, Tensor(x.data[i:i + 1])).data for i in range(5)]
        walks = _spy_walks(monkeypatch)
        _chunk_of(monkeypatch, g, 1)
        chunked = execute_graph(g, x).data
        assert walks == [1] * 5
        np.testing.assert_array_equal(chunked, np.concatenate(single))

    def test_fractional_gates_in_chunks(self, rng, monkeypatch):
        g, x = self._net_and_input(rng)
        gates = {aid: 0.5 for b in g.blocks for aid in b.act_node_ids}
        whole = execute_graph(g, x, gates).data
        _chunk_of(monkeypatch, g, 2)
        chunked = execute_graph(g, x, gates).data
        np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12 * np.abs(whole).max())
        assert not np.allclose(chunked, execute_graph(g, x).data)

    def test_taped_walk_and_one_sample_are_one_walk(self, rng, monkeypatch):
        g, x = self._net_and_input(rng)
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", 1)
        walks = _spy_walks(monkeypatch)
        tape = []
        execute_graph(g, x, tape=tape)
        execute_graph(g, Tensor(x.data[:1]))
        assert walks == [5, 1]
        assert len(tape) == len(g.nodes)

    def test_batch_within_budget_is_one_walk(self, rng, monkeypatch):
        g, x = self._net_and_input(rng)
        walks = _spy_walks(monkeypatch)
        execute_graph(g, x)
        _chunk_of(monkeypatch, g, 5)
        execute_graph(g, x)
        assert walks == [5, 5]

    def test_flatten_only_graph_returns_a_new_array(self, rng, monkeypatch):
        g = NetGraph((Node("flat", Flatten(), ()),), (1, 2, 3, 3))
        x = Tensor.of(rng.standard_normal((3, 2, 3, 3)))
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", 1)
        out = execute_graph(g, x).data
        assert out.shape == (3, 18, 1, 1) and not np.may_share_memory(out, x.data)
        np.testing.assert_array_equal(out, x.data.reshape(3, 18, 1, 1))

    def test_shape_errors_keep_their_type(self, rng):
        g = NetGraph((Node("add", Add(), ()),), (1, 2, 3, 3))
        for n in (1, 2):
            with pytest.raises(ShapeError):
                execute_graph(g, Tensor.of(rng.standard_normal((n, 2, 3, 3))))
        with pytest.raises(GraphError, match="'add': Add takes 2 input"):
            validate_graph(g)


class TestGraphJson:
    @pytest.mark.parametrize("fixture", [lambda: toy_irb(2, seed=1), vgg_toy])
    def test_round_trip_preserves_execution(self, tmp_path, rng, fixture):
        g = fixture()
        path = tmp_path / "graph.json"
        io.save_graph(g, path)
        loaded = io.load_graph(path)
        # topology round-trips; weights travel separately
        loaded = io.bind_weights(loaded, io.weights_of_graph(g))
        x = Tensor.of(rng.standard_normal(g.input_dims))
        np.testing.assert_array_equal(execute_graph(g, x).data,
                                      execute_graph(loaded, x).data)

    def test_version_check(self, tmp_path):
        doc = io.graph_to_json(toy_irb(1, seed=0))
        for version in (1, 2, 4, 99):
            with pytest.raises(FormatError, match=rf"^\$\.version: expected 3, got {version}$"):
                io.graph_from_json(dict(doc, version=version))

    @pytest.mark.parametrize("make", [
        lambda: toy_irb(2, seed=0), vgg_toy,
        lambda: expand_for_training(toy_irb(3, seed=0), seed=1),
        lambda: expand_for_training(vgg_toy(seed=0), seed=1),
        lambda: shrink_graph(toy_irb(3, seed=0), [0, 1, 0])[0],
    ], ids=["toy", "vgg", "toy-expanded", "vgg-expanded", "toy-shrunk"])
    def test_round_trip_ignores_the_block_keys_v3_dropped(self, make):
        doc = io.graph_to_json(make())
        assert all(set(rec) == {"block_id", "kind", "node_ids", "act_node_ids"}
                   for rec in doc["blocks"])
        assert io.graph_to_json(io.graph_from_json(doc)) == doc
        # a v1/v2 file loads once its "version" reads 3; its extra block keys go unread
        old = json.loads(json.dumps(doc))
        for rec in old["blocks"]:
            rec.update(expand_ratio="6", dw_kernel=None, stride=[], has_residual=0)
        assert io.graph_to_json(io.graph_from_json(old)) == doc

    def test_load_allocates_no_weight_placeholders(self, tmp_path):
        g, _ = generate("mbv2-1.4")
        io.save_graph(g, tmp_path / "graph.json")
        tracemalloc.start()
        try:
            io.load_graph(tmp_path / "graph.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6  # full-size zero arrays took 49 MB

    def test_unbound_graph_saves_zero_weights(self, tmp_path, rng):
        g = toy_irb(2, seed=1)
        io.save_graph(g, tmp_path / "graph.json")
        table = io.weights_of_graph(io.load_graph(tmp_path / "graph.json"))
        zeros = {name: np.full(arr.shape, 1.0 if name.endswith((".gamma", ".var")) else 0.0)
                 for name, arr in io.weights_of_graph(g).items()}
        io.save_weights(table, tmp_path / "loaded.dswt")
        io.save_weights(zeros, tmp_path / "zeros.dswt")
        assert (tmp_path / "loaded.dswt").read_bytes() == (tmp_path / "zeros.dswt").read_bytes()

    def test_bias_map_round_trip(self, tmp_path, rng):
        shrunk, _ = shrink_graph(irb_graph(rng, 3, 3, 2, 3, 1, residual=False,
                                           biased=True), [0])
        io.save_graph(shrunk, tmp_path / "graph.json")
        io.save_weights(io.weights_of_graph(shrunk), tmp_path / "weights.dswt")
        doc = json.loads((tmp_path / "graph.json").read_text())
        node = next(n for n in doc["nodes"] if n["id"] == "block0_merged")
        assert node["params"]["bias_hw"] == [9, 9]
        loaded = io.bind_weights(io.load_graph(tmp_path / "graph.json"),
                                 io.load_weights(tmp_path / "weights.dswt"))
        bias = loaded.node("block0_merged").layer.bias
        np.testing.assert_array_equal(bias, shrunk.node("block0_merged").layer.bias)
        assert bias.shape == (3, 9, 9)
        x = Tensor.of(rng.standard_normal(shrunk.input_dims))
        np.testing.assert_array_equal(execute_graph(shrunk, x).data,
                                      execute_graph(loaded, x).data)

    def test_bad_node_reports_json_path(self):
        doc = io.graph_to_json(toy_irb(1, seed=0))
        del doc["nodes"][3]["op"]
        with pytest.raises(FormatError, match=r"\$\.nodes\[3\]"):
            io.graph_from_json(doc)

    def test_unknown_op(self):
        doc = io.graph_to_json(toy_irb(1, seed=0))
        doc["nodes"][0]["op"] = "warp"
        with pytest.raises(FormatError, match="warp"):
            io.graph_from_json(doc)

    def test_load_validates_graph(self, tmp_path):
        doc = io.graph_to_json(toy_irb(1, seed=0))
        doc["nodes"][1]["inputs"] = ["no_such_node"]
        path = tmp_path / "bad.json"
        import json
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphError):
            io.load_graph(path)


class TestWeightsContainer:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        table = {
            "a.weight": rng.standard_normal((2, 3, 3, 3)),
            "b.bias": rng.standard_normal(4).astype(np.float32),
            "c.gamma": rng.standard_normal(5),
        }
        path = tmp_path / "w.dswt"
        io.save_weights(table, path)
        loaded = io.load_weights(path)
        assert set(loaded) == set(table)
        for k in table:
            assert loaded[k].dtype == np.asarray(table[k]).dtype
            assert np.array_equal(loaded[k], table[k])
            flags = loaded[k].flags
            assert flags.writeable and flags.aligned and flags.c_contiguous

    def test_headers_only_load_skips_payloads(self, tmp_path, rng):
        table = {
            "a.weight": rng.standard_normal((2, 3, 3, 3)),
            "b.bias": rng.standard_normal(4).astype(np.float32),
            "c.scalar": np.float64(2.5),
        }
        path = tmp_path / "w.dswt"
        io.save_weights(table, path)
        loaded = io.load_weights(path, payloads=False)
        assert list(loaded) == list(table)
        for k, arr in loaded.items():
            want = np.asarray(table[k])
            assert arr.dtype == want.dtype and arr.shape == want.shape
            # one shared zero per array: nothing of the payload was read
            assert all(s == 0 for s in arr.strides) and not arr.any()

    @pytest.mark.parametrize("keep", [-8, 6], ids=["payload", "header"])
    def test_short_read_is_truncated(self, tmp_path, rng, monkeypatch, keep):
        # fstat claims the full size, so the size check passes and readinto
        # comes back short; unchecked, that left zeros or stale memory
        path = tmp_path / "w.dswt"
        io.save_weights({"a.weight": rng.standard_normal((4, 4))}, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:keep])
        missing = len(raw) - len(raw[:keep])
        real_fstat = io.os.fstat
        with monkeypatch.context() as m:
            m.setattr(io.os, "fstat", lambda fd: SimpleNamespace(
                st_size=real_fstat(fd).st_size + missing))
            with pytest.raises(FormatError, match="truncated"):
                io.load_weights(path)

    def test_golden_bytes(self, tmp_path):
        table = {
            "a": np.array([1.0, 2.0], dtype=np.float32),
            # a non-contiguous f64 view: columns 0 and 2 of [[0,1,2],[3,4,5]]
            "bc": np.arange(6.0).reshape(2, 3)[:, ::2],
        }
        path = tmp_path / "w.dswt"
        io.save_weights(table, path)
        expected = bytes.fromhex(
            "44535754" "01000000" "02000000"          # magic, version 1, 2 arrays
            "0100" "61" "00" "01" "02000000"          # "a": f32, ndim 1, (2,)
            "0000803f" "00000040"                     # 1.0, 2.0
            "0200" "6263" "01" "02" "02000000" "02000000"  # "bc": f64, (2, 2)
            "0000000000000000" "0000000000000040"     # 0.0, 2.0
            "0000000000000840" "0000000000001440"     # 3.0, 5.0
        )
        assert path.read_bytes() == expected

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.dswt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            io.load_weights(path)

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "w.dswt"
        io.save_weights({"a.weight": rng.standard_normal((4, 4))}, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="truncated"):
            io.load_weights(path)

    def test_dims_larger_than_the_file(self, tmp_path):
        # 2**93 elements: rejected as truncated, before any allocation or overflow
        header = io.WEIGHTS_MAGIC + struct.pack("<IIH", 1, 1, 1) + b"a" + \
            struct.pack("<BB3I", 1, 3, 2**31, 2**31, 2**31)
        path = tmp_path / "w.dswt"
        path.write_bytes(header + bytes(16))
        with pytest.raises(FormatError, match="truncated"):
            io.load_weights(path)

    @pytest.mark.parametrize("payloads", [True, False])
    def test_a_zero_beside_huge_dims(self, tmp_path, payloads):
        # 0 elements, so no payload, but numpy has no array of this shape
        huge = 2**32 - 1
        path = tmp_path / "w.dswt"
        path.write_bytes(io.WEIGHTS_MAGIC + struct.pack("<IIH", 1, 1, 1) + b"a" +
                         struct.pack("<BB4I", 1, 4, 0, huge, huge, huge))
        with pytest.raises(FormatError, match=rf"^a: dims \[0, {huge}, {huge}, {huge}\] "):
            io.load_weights(path, payloads)

    def test_trailing_bytes(self, tmp_path, rng):
        path = tmp_path / "w.dswt"
        io.save_weights({"a.weight": rng.standard_normal((4, 4))}, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            io.load_weights(path)

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(FormatError, match="dtype"):
            io.save_weights({"a": np.zeros(3, dtype=np.int32)}, tmp_path / "w.dswt")

    def test_name_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "w.dswt"
        io.save_weights({"a": np.zeros(1), "b": np.zeros(2)}, path)
        raw = path.read_bytes()
        at = raw.rindex(b"\x01\x00b")  # the second record's name length and name
        path.write_bytes(raw[:at + 2] + b"\xff" + raw[at + 3:])
        with pytest.raises(FormatError, match="record 1: name is not UTF-8"):
            io.load_weights(path)

    def test_graph_weights_round_trip(self, tmp_path, rng):
        g = toy_irb(2, seed=4)
        path = tmp_path / "w.dswt"
        io.save_weights(io.weights_of_graph(g), path)
        bound = io.bind_weights(g, io.load_weights(path))
        x = Tensor.of(rng.standard_normal(g.input_dims))
        np.testing.assert_array_equal(execute_graph(g, x).data,
                                      execute_graph(bound, x).data)

    def test_bind_missing_array(self):
        g = toy_irb(1, seed=0)
        table = dict(io.weights_of_graph(g))
        del table["stem_conv.weight"]
        with pytest.raises(GraphError, match="stem_conv.weight"):
            io.bind_weights(g, table)

    def test_bind_shape_mismatch(self):
        g = toy_irb(1, seed=0)
        table = dict(io.weights_of_graph(g))
        table["stem_conv.weight"] = np.zeros((1, 1, 1, 1))
        with pytest.raises(GraphError, match="shape"):
            io.bind_weights(g, table)


class TestWeightsRewrite:
    """`save_weights` writes over an existing file in place, magic last."""

    def test_shorter_table_over_a_longer_file_equals_a_fresh_save(self, tmp_path, rng):
        path, link, fresh = (tmp_path / n for n in ("w.dswt", "link.dswt", "fresh.dswt"))
        io.save_weights({"a.weight": rng.standard_normal((8, 8)),
                         "b.bias": rng.standard_normal(5)}, path)
        os.link(path, link)
        inode = path.stat().st_ino
        short = {"c.weight": rng.standard_normal((2, 3)).astype(np.float32)}
        io.save_weights(short, path)
        io.save_weights(short, fresh)
        assert path.read_bytes() == fresh.read_bytes() == link.read_bytes()
        assert path.stat().st_ino == inode
        assert np.array_equal(io.load_weights(path)["c.weight"], short["c.weight"])

    @pytest.mark.parametrize("existing", [True, False], ids=["over-longer-file", "fresh-path"])
    def test_save_cut_short_leaves_bad_magic(self, tmp_path, rng, monkeypatch, existing):
        path = tmp_path / "w.dswt"
        if existing:
            io.save_weights({f"old{i}": rng.standard_normal(1000) for i in range(6)}, path)
        payloads = []

        def third_payload_fails(arr):
            payloads.append(arr)
            if len(payloads) == 3:
                raise OSError("No space left on device")
            return memoryview(arr)

        # shadows the builtin inside io, where each payload goes through memoryview
        monkeypatch.setattr(io, "memoryview", third_payload_fails, raising=False)
        with pytest.raises(OSError, match="No space"):
            io.save_weights({f"new{i}": rng.standard_normal(10) for i in range(4)}, path)
        monkeypatch.undo()
        assert len(payloads) == 3
        with pytest.raises(FormatError, match="bad magic"):
            io.load_weights(path)

    def test_rejected_table_leaves_the_old_file(self, tmp_path, rng):
        path = tmp_path / "w.dswt"
        io.save_weights({"a.weight": rng.standard_normal((4, 4))}, path)
        before = path.read_bytes()
        with pytest.raises(FormatError, match="dtype"):
            io.save_weights({"b": np.zeros(3), "c": np.zeros(3, dtype=np.int32)}, path)
        assert path.read_bytes() == before

    def test_shrink_onto_a_directory_named_weights_exits_1(self, tmp_path, capsys):
        net = tmp_path / "net"
        assert run(["gen-fixture", "toy-irb-2", "--out", str(net)]) == 0
        mask, out = tmp_path / "mask.json", tmp_path / "shrunk"
        io.save_mask([0, 1], mask)
        (out / "weights.dswt").mkdir(parents=True)
        capsys.readouterr()
        assert run(["shrink", "--graph", str(net), "--mask", str(mask),
                    "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"
        assert (out / "weights.dswt").is_dir()


class TestMaskAndLatencyFiles:
    def test_mask_round_trip(self, tmp_path):
        path = tmp_path / "mask.json"
        io.save_mask([1, 0, 1, 1], path)
        assert io.load_mask(path) == [1, 0, 1, 1]

    def test_mask_rejects_non_binary(self, tmp_path):
        path = tmp_path / "mask.json"
        path.write_text("[1, 2, 0]")
        with pytest.raises(FormatError):
            io.load_mask(path)

    def test_latency_round_trip(self, tmp_path):
        table = LatencyTable(((0, 0.25), (1, 1.5), (2, 0.001)))
        path = tmp_path / "lat.csv"
        io.save_latency_table(table, path)
        assert io.load_latency_table(path).as_dict() == table.as_dict()

    def test_latency_header_required(self, tmp_path):
        path = tmp_path / "lat.csv"
        path.write_text("id,ms\n0,1.0\n")
        with pytest.raises(FormatError, match="header"):
            io.load_latency_table(path)

    def test_mask_rejects_booleans_and_floats(self, tmp_path):
        # JSON true == 1 and 1.0 == 1 in Python; neither is a mask entry
        path = tmp_path / "mask.json"
        path.write_text("[true, false, 1.0]")
        with pytest.raises(FormatError, match="integers 0 and 1"):
            io.load_mask(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_latency_must_be_finite_and_positive(self, tmp_path, value):
        path = tmp_path / "lat.csv"
        path.write_text(f"block_id,latency_ms\n0,{value}\n")
        with pytest.raises(FormatError, match="finite and > 0"):
            io.load_latency_table(path)

    def test_latency_block_ids_are_unique(self, tmp_path):
        path = tmp_path / "lat.csv"
        path.write_text("block_id,latency_ms\n0,1\n1,2\n0,5\n")
        with pytest.raises(FormatError, match="block_id 0 has more than one row"):
            io.load_latency_table(path)

    def test_latency_must_be_positive(self, tmp_path):
        path = tmp_path / "lat.csv"
        path.write_text("block_id,latency_ms\n0,-1.0\n")
        with pytest.raises(FormatError, match="> 0"):
            io.load_latency_table(path)
