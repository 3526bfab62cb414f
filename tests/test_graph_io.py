import numpy as np
import pytest

from blockfuse import io
from blockfuse.core import (
    Activation,
    ActivationKind,
    Add,
    ConvLayer,
    Tensor,
    identity_conv,
)
from blockfuse.errors import FormatError, GraphError
from blockfuse.fixtures import toy_irb, vgg_toy
from blockfuse.graph import (
    BlockAnnotation,
    LatencyTable,
    NetGraph,
    Node,
    apply_mask_vector,
    execute_graph,
    graph_sink,
    topological_order,
    validate_graph,
)

from conftest import irb_graph, random_conv


class TestGraphStructure:
    def test_topological_order_respects_edges(self):
        g = toy_irb(2, seed=0)
        pos = {n.node_id: i for i, n in enumerate(topological_order(g))}
        for n in g.nodes:
            for ref in n.input_ids:
                assert pos[ref] < pos[n.node_id]

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
                                    tuple(reversed(g.blocks[0].node_ids)),
                                    2.0, 3, 1, False, ("act1", "act2"))
        with pytest.raises(GraphError):
            validate_graph(NetGraph(g.nodes, g.input_dims, (bad_block,), {}))

    def test_block_ids_must_follow_network_order(self):
        g = toy_irb(2, seed=0)
        from dataclasses import replace
        swapped = (replace(g.blocks[0], block_id=1), replace(g.blocks[1], block_id=0))
        with pytest.raises(GraphError, match="out of order"):
            validate_graph(NetGraph(g.nodes, g.input_dims, swapped, {}))

    def test_residual_requires_add_flag_consistency(self, rng):
        g = irb_graph(rng, 3, 3, 2, 3, 1, residual=True)
        from dataclasses import replace
        bad = replace(g.blocks[0], has_residual=False)
        with pytest.raises(GraphError, match="has_residual"):
            validate_graph(NetGraph(g.nodes, g.input_dims, (bad,), {}))


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
        doc["version"] = 99
        with pytest.raises(FormatError, match=r"\$\.version"):
            io.graph_from_json(doc)

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

    def test_trailing_bytes(self, tmp_path, rng):
        path = tmp_path / "w.dswt"
        io.save_weights({"a.weight": rng.standard_normal((4, 4))}, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            io.load_weights(path)

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(FormatError, match="dtype"):
            io.save_weights({"a": np.zeros(3, dtype=np.int32)}, tmp_path / "w.dswt")

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

    def test_latency_must_be_positive(self, tmp_path):
        path = tmp_path / "lat.csv"
        path.write_text("block_id,latency_ms\n0,-1.0\n")
        with pytest.raises(FormatError, match="> 0"):
            io.load_latency_table(path)
