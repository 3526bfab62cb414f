import numpy as np
import pytest

from blockfuse.autodiff import MaskState, extract_params
from blockfuse.errors import FormatError, GraphError
from blockfuse.fixtures import generate, toy_irb
from blockfuse.graph import LatencyTable, apply_mask_vector
from blockfuse.train import (
    SGD,
    TrainConfig,
    accuracy,
    cosine_lr,
    cross_entropy,
    distill_divergence,
    finetune,
    frozen_shift_params,
    load_dataset_raw,
    save_dataset_raw,
    search_masks,
    softmax,
    synthetic_two_class,
)


class TestConfig:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0}, {"batch_size": 0}, {"lr": 0.0}, {"distill": "maybe"},
        {"distill_alpha": 1.5}, {"distill_temperature": 0.0},
        {"label_smoothing": 1.0}, {"decay_strength": -1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestData:
    def test_synthetic_is_linearly_separable(self):
        x, y = synthetic_two_class(64, 3, 8, seed=2)
        assert x.shape == (64, 3, 8, 8) and set(y) == {0, 1}
        # the generating template itself separates the classes
        rng = np.random.Generator(np.random.PCG64(2))
        template = rng.standard_normal((3, 8, 8))
        template *= 2.0 / np.linalg.norm(template)
        scores = (x * template[None]).sum(axis=(1, 2, 3))
        assert np.all((scores > 0) == (y == 1))

    def test_deterministic(self):
        a = synthetic_two_class(16, 3, 8, seed=5)
        b = synthetic_two_class(16, 3, 8, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        square = synthetic_two_class(16, 3, (8, 8), seed=5)  # the same draws as size 8
        assert np.array_equal(a[0], square[0]) and np.array_equal(a[1], square[1])
        assert synthetic_two_class(4, 3, (8, 9))[0].shape == (4, 3, 8, 9)

    def test_raw_round_trip(self, tmp_path):
        x = np.linspace(0, 1, 2 * 3 * 4 * 4).reshape(2, 3, 4, 4)
        y = np.array([0, 1], dtype=np.int64)
        path = tmp_path / "data.bin"
        save_dataset_raw((x, y), path)
        rx, ry = load_dataset_raw(path)
        assert rx.shape == x.shape and np.array_equal(ry, y)
        # u8 quantization: within half a step
        assert np.max(np.abs(rx - x)) <= 0.5 / 255 + 1e-12

    def test_raw_bad_magic(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 24)
        with pytest.raises(FormatError, match="magic"):
            load_dataset_raw(path)

    def test_raw_truncated(self, tmp_path):
        path = tmp_path / "data.bin"
        save_dataset_raw((np.zeros((2, 1, 2, 2)), np.zeros(2, dtype=np.int64)), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_dataset_raw(path)


class TestLossFunctions:
    def test_cross_entropy_gradient_fd(self):
        rng = np.random.Generator(np.random.PCG64(0))
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        _, grad = cross_entropy(logits, labels, label_smoothing=0.1)
        h = 1e-6
        for i in range(4):
            for j in range(3):
                up = logits.copy(); up[i, j] += h
                down = logits.copy(); down[i, j] -= h
                fd = (cross_entropy(up, labels, 0.1)[0] -
                      cross_entropy(down, labels, 0.1)[0]) / (2 * h)
                assert abs(grad[i, j] - fd) <= 1e-8

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[30.0, 0.0], [0.0, 30.0]])
        loss, _ = cross_entropy(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-10)

    def test_distill_gradient_fd(self):
        rng = np.random.Generator(np.random.PCG64(1))
        s = rng.standard_normal((3, 4))
        t = rng.standard_normal((3, 4))
        _, grad = distill_divergence(s, t, temperature=2.0)
        h = 1e-6
        for i in range(3):
            for j in range(4):
                up = s.copy(); up[i, j] += h
                down = s.copy(); down[i, j] -= h
                fd = (distill_divergence(up, t, 2.0)[0] -
                      distill_divergence(down, t, 2.0)[0]) / (2 * h)
                assert abs(grad[i, j] - fd) <= 1e-8

    def test_distill_zero_for_matching_logits(self):
        s = np.array([[1.0, -1.0, 0.5]])
        loss, grad = distill_divergence(s, s.copy(), temperature=3.0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(grad)) <= 1e-12

    def test_softmax_rows_sum_to_one(self):
        p = softmax(np.array([[1000.0, 1001.0], [-5.0, 3.0]]))
        np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0])


class TestOptimizer:
    def test_cosine_schedule_endpoints(self):
        assert cosine_lr(0.1, 0, 10) == pytest.approx(0.1)
        assert cosine_lr(0.1, 9, 10) == pytest.approx(0.0, abs=1e-12)
        assert cosine_lr(0.1, 0, 1) == 0.1

    def test_sgd_momentum_accumulates(self):
        opt = SGD(momentum=0.5)
        params = {"w": np.array([1.0])}
        opt.step(params, {"w": np.array([1.0])}, lr=0.1)
        assert params["w"][0] == pytest.approx(0.9)
        opt.step(params, {"w": np.array([1.0])}, lr=0.1)
        # velocity: 0.5 * 1 + 1 = 1.5
        assert params["w"][0] == pytest.approx(0.9 - 0.15)

    def test_sgd_ignores_grads_without_params(self):
        opt = SGD(momentum=0.0)
        params = {"w": np.array([1.0])}
        opt.step(params, {"ghost": np.array([1.0])}, lr=0.1)
        assert params["w"][0] == 1.0


class TestSearch:
    def test_k_budget_and_determinism(self):
        graph = toy_irb(3, seed=1)
        data = synthetic_two_class(32, 3, 8, seed=2)
        cfg = TrainConfig(epochs=2, batch_size=16, lr=0.02, seed=0)
        log = []
        s1, r1, _ = search_masks(graph, extract_params(graph), data, None, cfg, 2,
                                 log=log)
        s2, r2, _ = search_masks(graph, extract_params(graph), data, None, cfg, 2)
        assert np.array_equal(s1.m, s2.m) and r1 == r2
        assert s1.m_hat.sum() == 2
        assert all(rec["kept_blocks"] == 2 for rec in log)

    def test_k_out_of_range(self):
        graph = toy_irb(2, seed=1)
        data = synthetic_two_class(8, 3, 8, seed=0)
        with pytest.raises(GraphError):
            search_masks(graph, extract_params(graph), data, None, TrainConfig(), 5)

    def test_planted_latency_drives_removal(self):
        graph = toy_irb(4, seed=1)
        data = synthetic_two_class(32, 3, 8, seed=2)
        latency = LatencyTable(((0, 1e-3), (1, 1e-3), (2, 1.0), (3, 1e-3)))
        cfg = TrainConfig(epochs=3, batch_size=16, lr=0.05, seed=0,
                          decay_strength=2.0)
        state, ranked, _ = search_masks(graph, extract_params(graph), data,
                                        latency, cfg, 2)
        assert ranked[0] == 2
        assert state.m[2] == min(state.m)


class TestFinetune:
    def test_log_counts_the_blocks_that_keep_their_activations(self):
        graph, _ = generate("toy-irb-3", seed=7)
        student = apply_mask_vector(graph, [0, 1, 0])
        data = synthetic_two_class(32, 3, 8, seed=2)
        log: list = []
        finetune(student, extract_params(student), data,
                 TrainConfig(epochs=2, batch_size=16), log=log)
        assert len(log) == 4 and all(rec["kept_blocks"] == 1 for rec in log)

    def test_improves_accuracy(self):
        graph = toy_irb(2, seed=1)
        data = synthetic_two_class(64, 3, 8, seed=2)
        params0 = extract_params(graph)
        cfg = TrainConfig(epochs=10, batch_size=16, lr=0.05, seed=0)
        params = finetune(graph, params0, data, cfg)
        assert accuracy(graph, params, data) > accuracy(graph, params0, data)

    def test_frozen_params_untouched(self):
        graph = apply_mask_vector(toy_irb(2, seed=1), [0, 1])
        data = synthetic_two_class(32, 3, 8, seed=2)
        frozen = frozen_shift_params(graph, [0, 1])
        assert frozen == {"b0_bn1.beta", "b0_bn2.beta", "b0_bn3.beta"}
        params0 = extract_params(graph)
        cfg = TrainConfig(epochs=2, batch_size=16, lr=0.05, seed=0)
        params = finetune(graph, params0, data, cfg, frozen=frozen)
        for name in frozen:
            assert np.array_equal(params[name], params0[name])
        assert not np.array_equal(params["b1_bn1.beta"], params0["b1_bn1.beta"])

    def test_distillation_pulls_toward_teacher(self):
        teacher_graph = toy_irb(2, seed=1)
        teacher_params = extract_params(teacher_graph)
        student_graph = apply_mask_vector(teacher_graph, [0, 0])
        data = synthetic_two_class(32, 3, 8, seed=2)
        cfg_kd = TrainConfig(epochs=3, batch_size=16, lr=0.02, seed=0,
                             distill="on", distill_alpha=0.5,
                             distill_temperature=2.0)
        params = finetune(student_graph, extract_params(student_graph), data,
                          cfg_kd, teacher=(teacher_graph, teacher_params))
        assert all(np.all(np.isfinite(v)) for v in params.values())

    def test_distill_alpha_zero_matches_plain_training(self):
        graph = toy_irb(2, seed=1)
        data = synthetic_two_class(32, 3, 8, seed=2)
        cfg_plain = TrainConfig(epochs=2, batch_size=16, lr=0.05, seed=0)
        cfg_kd0 = TrainConfig(epochs=2, batch_size=16, lr=0.05, seed=0,
                              distill="on", distill_alpha=0.0)
        plain = finetune(graph, extract_params(graph), data, cfg_plain)
        kd0 = finetune(graph, extract_params(graph), data, cfg_kd0,
                       teacher=(graph, extract_params(graph)))
        for name in plain:
            assert np.array_equal(plain[name], kd0[name])

    def test_teacher_with_distill_off_matches_plain_training(self):
        teacher = toy_irb(2, seed=1)
        teacher = (teacher, extract_params(teacher))
        student = apply_mask_vector(teacher[0], [0, 1])
        data = synthetic_two_class(32, 3, 8, seed=2)
        runs = {}
        for label, distill, given in [("plain", "off", None), ("off", "off", teacher),
                                      ("on", "on", teacher)]:
            cfg = TrainConfig(epochs=2, batch_size=16, lr=0.05, distill=distill)
            log: list = []
            params = finetune(student, extract_params(student), data, cfg,
                              teacher=given, log=log)
            runs[label] = params, log
        (plain, plain_log), (off, off_log), (on, _) = runs["plain"], runs["off"], runs["on"]
        assert off_log == plain_log
        for name in plain:
            assert np.array_equal(plain[name], off[name])
        # the same teacher with distillation on does change the result
        assert any(not np.array_equal(plain[n], on[n]) for n in plain)
