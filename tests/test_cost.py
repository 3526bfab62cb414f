import numpy as np
import pytest

from blockfuse.core import AvgPool, Linear
from blockfuse.cost import (
    cost_report,
    flops_matched_dense,
    latency_decay_weights,
    node_flops,
)
from blockfuse.errors import GraphError
from blockfuse.fixtures import toy_irb
from blockfuse.graph import LatencyTable, validate_graph

from conftest import irb_graph, random_conv


class TestNodeFlops:
    def test_dense_conv(self, rng):
        layer = random_conv(rng, 3, 8, 3)
        # oh*ow*k*k*c_in*c_out
        assert node_flops(layer, (1, 8, 10, 10)) == 100 * 9 * 3 * 8

    def test_grouped_conv_divides_by_groups(self, rng):
        layer = random_conv(rng, 8, 8, 3, groups=8)
        assert node_flops(layer, (1, 8, 5, 5)) == 25 * 9 * 1 * 8

    def test_linear(self, rng):
        assert node_flops(Linear(rng.standard_normal((10, 64))), (1, 10, 1, 1)) == 640

    def test_zero_cost_layers(self):
        assert node_flops(AvgPool(2, 2), (1, 4, 2, 2)) == 0


class TestCostReport:
    def test_totals_are_sums(self):
        g = toy_irb(2, seed=0)
        from blockfuse.graph import validate_graph
        shapes = validate_graph(g)
        report = cost_report(g)
        want = sum(node_flops(n.layer, shapes[n.node_id]) for n in g.nodes)
        assert report.total_flops == want
        assert report.total_flops >= sum(b.flops for b in report.blocks)

    def test_block_flops_are_the_sum_over_the_block_nodes(self):
        g = toy_irb(2, seed=0)
        shapes, index = validate_graph(g), g.node_index
        report = cost_report(g)
        for block, cost in zip(g.blocks, report.blocks):
            assert cost.flops == sum(node_flops(index[nid].layer, shapes[nid])
                                     for nid in block.node_ids) > 0

    def test_precision_scales_bytes(self):
        g = toy_irb(1, seed=0)
        r16 = cost_report(g, precision_bits=16)
        r32 = cost_report(g, precision_bits=32)
        assert r32.total_weight_bytes == 2 * r16.total_weight_bytes
        assert r32.blocks[0].peak_activation_bytes == \
            2 * r16.blocks[0].peak_activation_bytes

    def test_residual_counts_toward_peak(self, rng):
        with_skip = irb_graph(rng, 4, 4, 2, 3, 1, residual=True)
        without = irb_graph(rng, 4, 4, 2, 3, 1, residual=False)
        peak_with = cost_report(with_skip).blocks[0].peak_activation_bytes
        peak_without = cost_report(without).blocks[0].peak_activation_bytes
        assert peak_with > peak_without

    def test_latency_attached_and_totaled(self):
        g = toy_irb(2, seed=0)
        table = LatencyTable(((0, 1.5), (1, 2.5)))
        report = cost_report(g, latency=table)
        assert report.blocks[0].latency_ms == 1.5
        assert report.latency_ms == pytest.approx(4.0)

    def test_latency_total_is_over_the_graphs_blocks(self):
        # a row for a block the graph lacks is not part of its total
        table = LatencyTable(((0, 1.0), (1, 2.0), (7, 5.0)))
        report = cost_report(toy_irb(2, seed=0), latency=table)
        assert [b.latency_ms for b in report.blocks] == [1.0, 2.0]
        assert report.latency_ms == 3.0

    def test_latency_missing_block(self):
        g = toy_irb(2, seed=0)
        with pytest.raises(GraphError, match="missing block_id 1"):
            cost_report(g, latency=LatencyTable(((0, 1.0),)))

    def test_table_rendering(self):
        text = cost_report(toy_irb(1, seed=0)).to_table()
        lines = text.splitlines()
        assert lines[0].split() == ["block", "flops", "weight_B", "peak_act_B",
                                    "lat_ms"]
        assert lines[-1].startswith(" total")

    def test_json_round_trip_fields(self):
        doc = cost_report(toy_irb(1, seed=0)).to_json()
        assert doc["precision_bits"] == 16
        assert len(doc["blocks"]) == 1
        assert doc["total_flops"] > 0


class TestFlopsMatchedDense:
    @pytest.mark.parametrize("c_in,c_out,e,k,s", [
        (8, 8, 2, 3, 1), (16, 24, 6, 3, 2), (12, 12, 4, 5, 1), (8, 16, 1, 3, 2),
    ])
    def test_within_two_percent(self, rng, c_in, c_out, e, k, s):
        g = irb_graph(rng, c_in, c_out, e, k, s, residual=False, image_size=14)
        rep = flops_matched_dense(g, g.blocks[0])
        assert rep.kernel == k and rep.stride == s
        assert abs(rep.flops - rep.target_flops) / rep.target_flops <= 0.02

    def test_reports_scale_factor(self, rng):
        g = irb_graph(rng, 8, 8, 6, 3, 1, residual=False, image_size=14)
        rep = flops_matched_dense(g, g.blocks[0])
        assert 0 < rep.alpha
        assert rep.c_in >= 1 and rep.c_out >= 1


class TestLatencyDecay:
    def test_normalized_by_max(self):
        g = toy_irb(3, seed=0)
        table = LatencyTable(((0, 1.0), (1, 4.0), (2, 2.0)))
        lam = latency_decay_weights(table, g)
        np.testing.assert_allclose(lam, [0.25, 1.0, 0.5])

    def test_missing_block_id(self):
        g = toy_irb(2, seed=0)
        with pytest.raises(GraphError):
            latency_decay_weights(LatencyTable(((0, 1.0),)), g)
