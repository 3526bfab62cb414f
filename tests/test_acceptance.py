"""Acceptance suite: one test per criterion, each printing a pass/fail line."""
import numpy as np
import pytest

from blockfuse import io
from blockfuse.autodiff import MaskState, backward, extract_params, forward_masked
from blockfuse.cli import run
from blockfuse.core import ConvLayer, Tensor, execute_layer
from blockfuse.cost import cost_report, flops_matched_dense
from blockfuse.expand import expand_for_training
from blockfuse.fixtures import MBV2_14_MASKS, mobilenet_v2, toy_irb, vgg_toy
from blockfuse.graph import (
    LatencyTable,
    apply_mask_vector,
    block_geometry,
    execute_graph,
    validate_graph,
)
from blockfuse.merge import (
    compose_convs,
    insert_free_activations,
    merge_chain,
    shrink_graph,
    verify_equivalence,
)
from blockfuse.train import (
    TrainConfig,
    accuracy,
    finetune,
    search_masks,
    synthetic_two_class,
)

from conftest import gate_oracle, irb_chain, irb_graph, random_conv, run_chain


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


@pytest.fixture(scope="module")
def mbv2_14():
    return mobilenet_v2(1.4, seed=0)


@pytest.fixture(scope="module")
def mbv2():
    return mobilenet_v2(1.0, seed=0)


def _random_block_spec(rng):
    return dict(
        c_in=int(rng.integers(2, 7)),
        e=int(rng.choice([1, 2, 4, 6])),
        k=int(rng.choice([3, 5])),
        s=int(rng.choice([1, 2])),
    )


def test_criterion_1_merge_exactness_zero_bias():
    rng = np.random.Generator(np.random.PCG64(101))
    worst = 0.0
    for _ in range(100):
        spec = _random_block_spec(rng)
        c = spec["c_in"]
        residual = bool(rng.integers(0, 2)) and spec["s"] == 1
        chain = irb_chain(rng, c, c, spec["e"], spec["k"], spec["s"])
        x = Tensor.of(rng.standard_normal((1, c, 9, 9)))
        seq = run_chain(chain, x, residual=residual).data
        merged = merge_chain(chain, residual, x.dims)
        got = execute_layer(merged, x).data
        worst = max(worst, float(np.max(np.abs(seq - got))))
    _report(1, "zero-bias block merges exact at every position",
            worst <= 1e-10, f"max abs err {worst:.3e} over 100 blocks")


def test_criterion_2_merge_exactness_biased():
    rng = np.random.Generator(np.random.PCG64(102))
    worst = 0.0
    for _ in range(100):
        spec = _random_block_spec(rng)
        c = spec["c_in"]
        residual = bool(rng.integers(0, 2)) and spec["s"] == 1
        chain = irb_chain(rng, c, c, spec["e"], spec["k"], spec["s"], biased=True)
        x = Tensor.of(rng.standard_normal((1, c, 11, 11)))
        seq = run_chain(chain, x, residual=residual).data
        got = execute_layer(merge_chain(chain, residual, x.dims), x).data
        worst = max(worst, float(np.max(np.abs(seq - got))))
    _report(2, "biased block merges exact at every position",
            worst <= 1e-10, f"max abs err {worst:.3e} over 100 blocks")


def test_criterion_3_kernel_and_stride_law():
    rng = np.random.Generator(np.random.PCG64(103))
    ok = True
    for d1 in (1, 3, 5):
        for d2 in (1, 3, 5):
            for s1 in (1, 2):
                for s2 in (1, 2):
                    m = compose_convs(random_conv(rng, 2, 2, d1, stride=s1),
                                      random_conv(rng, 2, 2, d2, stride=s2))
                    ok = ok and m.kernel_h == (d2 - 1) * s1 + d1
                    ok = ok and m.stride == s1 * s2
                    if s1 == 1:
                        ok = ok and m.kernel_h == d1 + d2 - 1
    _report(3, "composed kernel size and stride laws hold exactly", ok)


def test_criterion_4_channel_law():
    rng = np.random.Generator(np.random.PCG64(104))
    ok = True
    for e in (1, 2, 4, 6):
        chain = irb_chain(rng, 5, 3, e, 3, 1)
        conv = merge_chain(chain, False, (1, 5, 9, 9))
        ok = ok and conv.c_in == 5 and conv.c_out == 3
    _report(4, "merged channels equal block (c_in, c_out) for all expand ratios",
            ok)


def test_criterion_5_gradient_correctness():
    graph = toy_irb(4, channels=4, image_size=6, seed=5)
    params = extract_params(graph)
    rng = np.random.Generator(np.random.PCG64(105))
    for name in list(params):  # move pre-activations off the kink points
        if name.endswith(".beta"):
            params[name] = params[name] + 0.05 + 0.1 * rng.random(params[name].shape)
    x = rng.standard_normal((2, 3, 6, 6))
    lw = rng.standard_normal((2, 2, 1, 1))

    def loss(p, state):
        out, tape = forward_masked(graph, p, state, x)
        return float(np.sum(out * lw)), tape

    _, tape = loss(params, None)
    pgrads, _ = backward(tape, np.broadcast_to(lw, tape.records[-1][2].dims))
    h = 1e-6
    worst = 0.0
    for name, grad in pgrads.items():
        for i in range(grad.size):
            idx = np.unravel_index(i, grad.shape)
            p = {k: v.copy() for k, v in params.items()}
            p[name][idx] += h
            up, _ = loss(p, None)
            p[name][idx] -= 2 * h
            down, _ = loss(p, None)
            fd = (up - down) / (2 * h)
            a = float(grad[idx])
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-4))
    # the straight-through mask gradient is the derivative of the relaxation
    # g * act(z) + (1 - g) * z at g = m_hat, built from plain nodes
    binary = MaskState(np.array([3.0, 1.0, 2.0, 0.5]), 2, np.ones(4))
    _, tape_b = loss(params, binary)
    _, grad_b = backward(tape_b, np.broadcast_to(lw, tape_b.records[-1][2].dims))
    bound = io.bind_weights(graph, params)

    def relaxed(g):
        return float(np.sum(execute_graph(gate_oracle(bound, g), Tensor.of(x)).data * lw))

    worst_ste = 0.0
    for b in range(4):
        up, down = binary.m_hat.copy(), binary.m_hat.copy()
        up[b] += h
        down[b] -= h
        fd = (relaxed(up) - relaxed(down)) / (2 * h)
        worst_ste = max(worst_ste, abs(grad_b[b] - fd) / max(abs(fd), 1e-4))
    ok = worst <= 1e-5 and worst_ste <= 1e-5
    _report(5, "all parameter gradients match finite differences; "
               "straight-through mask gradient matches the relaxation's",
            ok, f"worst rel err {worst:.3e}, mask {worst_ste:.3e}")


def test_criterion_6_planted_latency_search():
    graph = toy_irb(4, seed=1)
    data = synthetic_two_class(32, 3, 8, seed=2)
    latency = LatencyTable(((0, 1e-3), (1, 1e-3), (2, 1.0), (3, 1e-3)))
    cfg = TrainConfig(epochs=3, batch_size=16, lr=0.05, seed=0, decay_strength=2.0)
    log = []
    state, ranked, _ = search_masks(graph, extract_params(graph), data, latency,
                                    cfg, 2, log=log)
    budget_ok = all(rec["kept_blocks"] == 2 for rec in log)
    ok = ranked[0] == 2 and state.m[2] == min(state.m) and budget_ok
    _report(6, "high-latency block gets lowest score; top-k budget kept "
               "every step", ok, f"removal ranking {ranked}")


def test_criterion_7_end_to_end_pipeline(tmp_path):
    graph = toy_irb(4, seed=1)
    data = synthetic_two_class(64, 3, 8, seed=2)
    weights = extract_params(graph)
    search_cfg = TrainConfig(epochs=3, batch_size=16, lr=0.05, seed=0,
                             decay_strength=0.5)
    state, _, searched = search_masks(graph, weights, data, None, search_cfg, 2)
    mask = [int(v) for v in state.m_hat]

    student = apply_mask_vector(graph, mask)
    with_acts = insert_free_activations(student, mask)
    ft_cfg = TrainConfig(epochs=60, batch_size=16, lr=0.05, seed=0)
    params = finetune(with_acts, searched, data, ft_cfg)
    acc = accuracy(with_acts, params, data)

    table = dict(io.weights_of_graph(student))
    table.update(params)
    student_bound = io.bind_weights(student, table)
    shrunk, _ = shrink_graph(student_bound, mask)
    rep = verify_equivalence(student_bound, shrunk, 4, 1e-10, seed=3)
    for name, net in (("before", student_bound), ("after", shrunk)):
        (tmp_path / name).mkdir()
        io.save_graph(net, tmp_path / name / "graph.json")
        io.save_weights(io.weights_of_graph(net), tmp_path / name / "weights.dswt")
    cli_ok = run(["verify", "--before", str(tmp_path / "before"),
                  "--after", str(tmp_path / "after"), "--tol", "1e-10"]) == 0
    ok = acc >= 0.95 and rep.passed and cli_ok
    _report(7, "search -> fine-tune -> shrink -> verify on toy data",
            ok, f"accuracy {acc:.3f}, max abs err {rep.max_abs_err:.3e}")


def test_criterion_8_flops_reproduction(mbv2, mbv2_14):
    g1 = cost_report(mbv2).total_flops / 1e9
    g14 = cost_report(mbv2_14).total_flops / 1e6
    fixtures_ok = abs(g1 - 0.33) / 0.33 <= 0.10 and abs(g14 - 630) / 630 <= 0.10
    rng = np.random.Generator(np.random.PCG64(108))
    worst = 0.0
    for _ in range(50):
        spec = _random_block_spec(rng)
        c_in = int(rng.integers(8, 33))
        c_out = int(rng.integers(8, 33))
        g = irb_graph(rng, c_in, c_out, spec["e"], spec["k"], spec["s"],
                      residual=False, image_size=14)
        rep = flops_matched_dense(g, g.blocks[0])
        worst = max(worst, abs(rep.flops - rep.target_flops) / rep.target_flops)
    ok = fixtures_ok and worst <= 0.02
    _report(8, "fixture GFLOPs within 10% of reference totals; matched dense "
               "within 2%", ok,
            f"1.0x {g1:.4f} G, 1.4x {g14:.1f} M, dense worst {worst:.4f}")


def test_criterion_9_reference_mask_replay(mbv2_14):
    ok = True
    details = []
    for label, mask in MBV2_14_MASKS.items():
        shrunk, report = shrink_graph(mbv2_14, mask)
        merged = sum(1 for r in report.records if r.merged)
        ok = ok and merged == mask.count(0)
        details.append(f"{label}:{merged}")
        if label == "DS-F":
            grouped = sum(1 for n in shrunk.nodes
                          if isinstance(n.layer, ConvLayer) and n.layer.groups > 1)
            from blockfuse.core import Add
            adds = sum(1 for n in shrunk.nodes if isinstance(n.layer, Add))
            ok = ok and merged == 17 and grouped == 0 and adds == 0
    _report(9, "reference mask vectors replay to the implied merged "
               "architectures", ok, " ".join(details))


def test_criterion_10_expand_round_trip():
    g = vgg_toy(seed=2)
    expanded = expand_for_training(g, seed=3)
    mask = [0] * len(expanded.blocks)
    shrunk, _ = shrink_graph(expanded, mask)
    orig = [(n.layer.kernel_h, n.layer.stride, n.layer.c_in, n.layer.c_out)
            for n in g.nodes if isinstance(n.layer, ConvLayer)]
    back = [(n.layer.kernel_h, n.layer.stride, n.layer.c_in, n.layer.c_out)
            for n in shrunk.nodes if isinstance(n.layer, ConvLayer)]
    rep = verify_equivalence(apply_mask_vector(expanded, mask), shrunk,
                             3, 1e-10, seed=4)
    ok = back == orig and rep.passed
    _report(10, "expansion then merge restores the per-layer architecture "
                "and function", ok, f"max abs err {rep.max_abs_err:.3e}")


def test_criterion_11_memory_footprint(mbv2_14):
    before = cost_report(mbv2_14, precision_bits=16)
    shrunk, _ = shrink_graph(mbv2_14, MBV2_14_MASKS["DS-F"])
    after = cost_report(shrunk, precision_bits=16)
    after_by_id = {b.block_id: b for b in after.blocks}
    ok = True
    checked = 0
    for block, cost in zip(sorted(mbv2_14.blocks, key=lambda b: b.block_id),
                           before.blocks):
        pw1 = mbv2_14.node(block.node_ids[0]).layer
        if pw1.c_out > pw1.c_in and \
                block_geometry(mbv2_14.node_index, block)[1:] == (1, True):
            checked += 1
            ok = ok and after_by_id[block.block_id].peak_activation_bytes < \
                cost.peak_activation_bytes
    ok = ok and checked > 0
    _report(11, "merged blocks need strictly less peak activation memory",
            ok, f"{checked} qualifying blocks")
