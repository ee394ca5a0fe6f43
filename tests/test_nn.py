import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kcdistill import nn, ogve
from kcdistill.data import DataFormatError

from kcdistill.nn import (
    PROB_FLOOR,
    MlpModel,
    TrainConfig,
    forward,
    init_mlp,
    load_model,
    loss_and_grads,
    lr_at_epoch,
    save_model,
    sgd_step,
    softmax,
    stack_models,
    train_classifier,
    train_teacher,
)
import oracles
from oracles import finite_difference_check, kd_loss, logits


class TestForwardSoftmax:
    def test_zero_weight_model_is_uniform(self):
        model = init_mlp((4, 8, 3), 0)
        for w in model.weights:
            w[:] = 0.0
        probs = softmax(forward(model, np.random.default_rng(0).normal(size=(5, 4))))
        np.testing.assert_allclose(probs, 1 / 3, rtol=1e-12)

    def test_huge_temperature_flattens(self):
        model = init_mlp((4, 8, 5), 1)
        x = np.random.default_rng(1).normal(size=(6, 4))
        probs = softmax(forward(model, x), temperature=1e6)
        np.testing.assert_allclose(probs, 0.2, atol=1e-4)

    def test_two_class_logits_sigmoid_oracle(self):
        model = init_mlp((2, 2), 2)
        model.weights[0][:] = 0.0
        model.biases[0][:] = [1.0, 0.0]
        probs = softmax(forward(model, np.zeros((1, 2))))
        oracle = 1.0 / (1.0 + math.exp(-1.0))
        assert oracle == pytest.approx(0.731059, abs=1e-6)
        np.testing.assert_allclose(probs[0], [oracle, 1.0 - oracle], rtol=1e-12)

    def test_argmax_temperature_invariant(self):
        model = init_mlp((3, 16, 7), 3)
        x = np.random.default_rng(2).normal(size=(20, 3))
        logits = forward(model, x)
        base = np.argmax(softmax(logits, 1.0), axis=1)
        for temp in (0.25, 2.0, 10.0):
            assert np.array_equal(np.argmax(softmax(logits, temp), axis=1), base)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("dims", [(4, 3), (6, 8, 5, 4)])
    def test_in_place_layers_are_the_fresh_array_expression_bit_for_bit(self, dims, stacked):
        models = [init_mlp(dims, seed) for seed in range(3)]
        model = stack_models(models) if stacked else models[0]
        x = np.random.default_rng(5).normal(size=(50, dims[0]))
        x[0] = 0.0
        got = forward(model, x)
        assert got.shape == ((3, 50, dims[-1]) if stacked else (50, dims[-1]))
        assert got.tobytes() == logits(model, x).tobytes()

    def test_dimension_mismatch_rejected(self):
        model = init_mlp((4, 3), 0)
        with pytest.raises(ValueError, match="dim"):
            forward(model, np.zeros((2, 5)))


class TestKdLoss:
    def test_self_distillation_gives_target_entropy(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(5), size=4)
        entropy = float(np.mean(-np.sum(p * np.log(p), axis=1)))
        assert kd_loss(p, p) == pytest.approx(entropy, rel=1e-12)

    def test_one_hot_target(self):
        t = np.array([[0.0, 1.0, 0.0]])
        s = np.array([[0.2, 0.5, 0.3]])
        assert kd_loss(t, s) == pytest.approx(-math.log(0.5), rel=1e-12)

    def test_term_by_term_oracle(self):
        oracle = -0.5 * (math.log(0.25) + math.log(0.75))
        assert oracle == pytest.approx(0.836988, abs=1e-6)
        got = kd_loss([[0.5, 0.5]], [[0.25, 0.75]])
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            kd_loss(np.full((2, 3), 1 / 3), np.full((2, 4), 0.25))

    def test_gibbs_inequality_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            c = int(rng.integers(2, 9))
            t = rng.dirichlet(np.ones(c))
            s = rng.dirichlet(np.ones(c))
            baseline = kd_loss([t], [t])
            assert kd_loss([t], [s]) >= baseline - 1e-12


class TestGradients:
    def test_single_linear_layer_closed_form(self):
        # for a linear softmax classifier the logit gradient is (p - t)
        model = init_mlp((3, 2), 5)
        x = np.array([[0.5, -1.0, 2.0]])
        t = np.array([[1.0, 0.0]])
        probs = softmax(forward(model, x))
        _, gw, gb, _ = loss_and_grads(model, x, t)
        np.testing.assert_allclose(gw[0], x.T @ (probs - t), rtol=1e-12)
        np.testing.assert_allclose(gb[0], (probs - t)[0], rtol=1e-12)

    @pytest.mark.parametrize("dims", [(16, 64, 64, 10), (16, 16, 10)])
    def test_finite_difference_match(self, dims):
        rng = np.random.default_rng(6)
        model = init_mlp(dims, 7)
        x = rng.normal(size=(8, dims[0]))
        targets = rng.dirichlet(np.ones(dims[-1]), size=8)
        err = finite_difference_check(model, x, targets, n_coords=100, step=1e-5, seed=0)
        assert err < 1e-4

    def test_finite_difference_with_temperature_and_hard_term(self):
        rng = np.random.default_rng(7)
        model = init_mlp((5, 12, 4), 8)
        x = rng.normal(size=(6, 5))
        targets = rng.dirichlet(np.ones(4), size=6)
        hard = rng.integers(0, 4, size=6)

        def wrapped_loss():
            loss, gw, gb, _ = loss_and_grads(model, x, targets, temperature=2.0,
                                             hard_labels=hard, hard_label_weight=0.3)
            return loss, gw, gb

        loss, gw, gb = wrapped_loss()
        step = 1e-5
        coords = [(0, 1, 2), (1, 3, 1)]
        for layer, i, j in coords:
            orig = model.weights[layer][i, j]
            model.weights[layer][i, j] = orig + step
            up, *_ = wrapped_loss()
            model.weights[layer][i, j] = orig - step
            down, *_ = wrapped_loss()
            model.weights[layer][i, j] = orig
            numeric = (up - down) / (2 * step)
            assert numeric == pytest.approx(gw[layer][i, j], rel=1e-4, abs=1e-8)


class TestLossAndGradsOracle:
    @settings(max_examples=150, deadline=None)
    @given(dims=st.sampled_from([(4, 3), (5, 6, 4), (6, 8, 5, 4)]),
           stack=st.sampled_from([0, 1, 3]),
           batch=st.one_of(st.integers(1, 9), st.integers(50, 200)),
           seed=st.integers(0, 2**32 - 1), zero_rows=st.integers(0, 3),
           nan_row=st.booleans(), scale=st.sampled_from([1.0, 40.0, 1e4]),
           terms=st.sampled_from([(1.0, 0.0), (1.0, 0.3), (2.0, 0.0), (2.0, 0.3),
                                  (0.5, 1.0)]))
    def test_in_place_forward_is_the_fresh_array_oracle_bit_for_bit(
            self, dims, stack, batch, seed, zero_rows, nan_row, scale, terms):
        """loss_and_grads on an unstacked model (stack 0) or a stack of K
        equals the oracle's fresh-array forward with its pre-activation
        mask, and the entropies it writes are the masked terms of the
        oracle's temperature-1 probs. Zero input rows meet zero biases in
        exact 0.0 pre-activations, and a NaN input row makes that row's
        pre-activations NaN (in the last model only, so a stack keeps finite
        models beside it). Up to 27 rows the row max is np.maximum.reduce's,
        from 150 to 600 rows the threshold is crossed; scaled inputs give
        probs below PROB_FLOOR (scale 40) and exact zeros (scale 1e4)."""
        rng = np.random.default_rng(seed)
        models = [init_mlp(dims, rng) for _ in range(max(stack, 1))]
        for m in models:
            for b in m.biases:
                b[...] = rng.normal(size=b.shape) * (rng.random(b.shape) < 0.5)
        model = stack_models(models) if stack else models[0]
        lead = (stack,) if stack else ()
        x = rng.normal(size=(*lead, batch, dims[0])) * scale
        x[..., :zero_rows, :] = 0.0
        if nan_row:
            x.reshape(-1, batch, dims[0])[-1, -1, 0] = np.nan
        targets = rng.dirichlet(np.ones(dims[-1]), size=(*lead, batch))
        hard = rng.integers(0, dims[-1], size=(*lead, batch))
        entropies = np.full((*lead, batch), -1.0)
        got = loss_and_grads(model, x, targets, terms[0], hard, terms[1],
                             entropy_out=entropies)
        want = oracles.loss_and_grads(model, x, targets, terms[0], hard, terms[1])
        loss, gw, gb, probs = got
        assert np.shape(loss) == lead
        assert np.asarray(loss).tobytes() == np.asarray(want[0]).tobytes()
        for a, b in zip([*gw, *gb, probs], [*want[1], *want[2], want[3]]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert entropies.tobytes() == oracles.masked_entropy_rows(want[3]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(lead=st.sampled_from([(), (1,), (3,), (2, 2)]), rows=st.integers(0, 70),
           cols=st.one_of(st.just(1), st.integers(2, 12)),
           layout=st.sampled_from(["c", "fortran", "every-other-row", "every-other-column"]),
           seed=st.integers(0, 2**32 - 1))
    def test_bias_grad_is_the_row_reduce_bit_for_bit(self, lead, rows, cols, layout, seed):
        """The einsum path (C-contiguous, two or more columns) and the
        reduce it falls back to give np.add.reduce(axis=-2)'s bits, with
        +-0, +-inf, NaN and magnitudes from 1e-300 to 1e300. Only a NaN's
        sign may differ, where an input NaN meets the NaN of inf - inf."""
        rng = np.random.default_rng(seed)
        shape = (*lead, 2 * rows, 2 * cols) if layout.startswith("every") else (
            *lead, rows, cols)
        delta = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        cells = rng.random(shape)
        delta[cells < 0.1] = 0.0
        delta[(cells >= 0.1) & (cells < 0.2)] = -0.0
        delta[cells > 0.97] = np.inf
        delta[cells > 0.98] = -np.inf
        delta[cells > 0.995] = np.nan
        delta = {"c": delta, "fortran": np.asfortranarray(delta),
                 "every-other-row": delta[..., ::2, :],
                 "every-other-column": delta[..., ::2]}[layout]
        with np.errstate(invalid="ignore"):
            got, want = nn._bias_grad(delta), np.add.reduce(delta, axis=-2)
        assert got.shape == want.shape and got.dtype == want.dtype
        nan = np.isnan(want)
        assert (np.isnan(got) == nan).all()
        assert got[~nan].tobytes() == want[~nan].tobytes()
        if not np.isnan(delta).any():  # every NaN is inf - inf's: the same bits
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("temperature, scale, reads_log", [
        (1.0, 1.0, True), (1.0, 40.0, False), (2.0, 1.0, False)])
    def test_entropy_comes_from_the_loss_log_only_at_t1_above_the_floor(
            self, monkeypatch, temperature, scale, reads_log):
        """At temperature 1 with every prob >= PROB_FLOOR the step calls no
        ogve.entropy_rows; at temperature 2, or with a prob below the floor,
        it calls it once, on the temperature-1 probs."""
        calls = []
        real = ogve.entropy_rows
        monkeypatch.setattr(ogve, "entropy_rows", lambda p: calls.append(p) or real(p))
        model = init_mlp((4, 6, 3), 5)
        x = np.random.default_rng(5).normal(size=(20, 4)) * scale
        t = np.full((20, 3), 1 / 3)
        entropies = np.empty(20)
        *_, probs = loss_and_grads(model, x, t, temperature, entropy_out=entropies)
        assert (probs.min() >= PROB_FLOOR) == (scale == 1.0)
        assert len(calls) == (0 if reads_log else 1)
        assert all(p is probs for p in calls)
        assert entropies.tobytes() == real(probs).tobytes()


class TestSgd:
    def test_zero_lr_leaves_parameters(self):
        model = init_mlp((3, 4, 2), 9)
        before = [w.copy() for w in model.weights]
        cfg = TrainConfig(lr=0.0, weight_decay=0.0)
        x = np.random.default_rng(8).normal(size=(4, 3))
        t = np.full((4, 2), 0.5)
        _, gw, gb, _ = loss_and_grads(model, x, t)
        sgd_step(model, gw, gb, np.zeros_like(model.params), 0.0, cfg)
        for w0, w1 in zip(before, model.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_non_finite_gradient_aborts(self):
        model = init_mlp((2, 2), 10)
        cfg = TrainConfig()
        gw = [np.array([[np.inf, 0.0], [0.0, 0.0]])]
        gb = [np.zeros(2)]
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            sgd_step(model, gw, gb, np.zeros_like(model.params), 0.1, cfg)

    def test_momentum_accumulates(self):
        model = init_mlp((2, 2), 11)
        model.weights[0][:] = 1.0
        cfg = TrainConfig(momentum=0.9, weight_decay=0.0)
        vel = np.zeros_like(model.params)
        g = [np.ones((2, 2))]
        zeros = [np.zeros(2)]
        sgd_step(model, g, zeros, vel, 0.1, cfg)
        first = model.weights[0][0, 0]
        sgd_step(model, g, zeros, vel, 0.1, cfg)
        second = model.weights[0][0, 0]
        assert first == pytest.approx(0.9)
        assert second == pytest.approx(0.9 - 0.1 * 1.9)

    def test_lr_schedule_steps(self):
        cfg = TrainConfig(lr=0.05, lr_decay_epochs=(10, 20), lr_decay_factor=0.1)
        assert lr_at_epoch(cfg, 1) == 0.05
        assert lr_at_epoch(cfg, 10) == 0.05
        assert lr_at_epoch(cfg, 11) == pytest.approx(0.005)
        assert lr_at_epoch(cfg, 21) == pytest.approx(0.0005)


class TestTraining:
    def test_separable_blobs_reach_high_accuracy(self):
        rng = np.random.default_rng(12)
        centers = np.array([[-4.0, 0.0], [4.0, 0.0]])
        x = np.concatenate([c + 0.3 * rng.normal(size=(60, 2)) for c in centers])
        y = np.repeat([0, 1], 60)
        cfg = TrainConfig(lr=0.1, batch_size=16)
        model = train_classifier(x, y, (2, 8, 2), cfg, epochs=40, seed=0)
        preds = np.argmax(forward(model, x), axis=1)
        assert np.mean(preds == y) >= 0.99

    def test_zero_epochs_still_yields_valid_probs(self):
        x = np.random.default_rng(13).normal(size=(10, 3))
        y = np.zeros(10, dtype=int)
        model, probs = train_teacher(x, y, (3, 4, 2), TrainConfig(), 0, seed=0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-9)
        assert np.all(probs >= 0)

    def test_same_seed_reproduces_cached_probs(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, size=30)
        cfg = TrainConfig(batch_size=8)
        _, probs_a = train_teacher(x, y, (4, 6, 3), cfg, 5, seed=42)
        _, probs_b = train_teacher(x, y, (4, 6, 3), cfg, 5, seed=42)
        np.testing.assert_array_equal(probs_a, probs_b)


def fused_and_step_loop(x, y, dims, cfg, epochs, seed):
    """Each trainer's outcome: its parameter bytes, or its error's type and
    message. numpy's warnings are off, as in nn.train_classifier."""
    outcomes = []
    for train in (train_classifier, oracles.train_classifier):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                outcomes.append(train(x, y, dims, cfg, epochs, seed).param_bytes())
        except FloatingPointError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


class TestFusedTraining:
    """nn.train_classifier's fused loop against the loop of library steps
    it replaces (oracles.train_classifier)."""

    @settings(max_examples=120, deadline=None)
    @given(hidden=st.lists(st.integers(1, 12), max_size=2), dim=st.integers(1, 6),
           classes=st.integers(2, 5), n=st.integers(1, 40), batch=st.integers(1, 45),
           epochs=st.integers(0, 3), decay=st.lists(st.integers(0, 3), max_size=3),
           factor=st.sampled_from([0.1, 0.5]), lr=st.sampled_from([0.05, 0.5]),
           momentum=st.sampled_from([0.0, 0.9]), weight_decay=st.sampled_from([0.0, 5e-4, 0.05]),
           scale=st.sampled_from([1.0, 40.0]), zero_rows=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    @example(hidden=[1], dim=3, classes=4, n=7, batch=1, epochs=2, decay=[1], factor=0.1,
             lr=0.05, momentum=0.9, weight_decay=5e-4, scale=1.0, zero_rows=1, seed=0)
    @example(hidden=[8, 1], dim=2, classes=3, n=23, batch=5, epochs=3, decay=[1, 2],
             factor=0.5, lr=0.5, momentum=0.9, weight_decay=0.05, scale=40.0, zero_rows=0,
             seed=1)
    def test_params_are_the_step_loops_bit_for_bit(self, hidden, dim, classes, n, batch,
                                                    epochs, decay, factor, lr, momentum,
                                                    weight_decay, scale, zero_rows, seed):
        """0-2 hidden layers of width 1 or more, batches that do not divide
        N (a tail of 1 included), 0-3 epochs with lr decay. Scaled inputs
        floor probs below PROB_FLOOR; zero rows meet zero biases in exact
        0.0 pre-activations."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, dim)) * scale
        x[:zero_rows] = 0.0
        y = rng.integers(0, classes, size=n)
        cfg = TrainConfig(lr=lr, momentum=momentum, weight_decay=weight_decay,
                          batch_size=batch, lr_decay_epochs=tuple(decay),
                          lr_decay_factor=factor)
        dims = (dim, *hidden, classes)
        fused, loop = fused_and_step_loop(x, y, dims, cfg, epochs, seed % 100)
        assert fused == loop

    @pytest.mark.parametrize("lr, epoch", [(1e12, 4), (1e200, 1)])
    def test_huge_lr_diverges_at_the_step_loops_epoch(self, lr, epoch):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(40, 4)), rng.integers(0, 3, size=40)
        fused, loop = fused_and_step_loop(x, y, (4, 8, 3), TrainConfig(lr=lr, batch_size=8),
                                          6, 1)
        assert fused == loop == (
            FloatingPointError, f"training diverged: non-finite loss at epoch {epoch}")

    def test_non_finite_gradient_is_sgd_steps_error(self):
        """Inputs near 1e150 keep some losses finite while a gradient
        overflows; the fused loop then raises sgd_step's error."""
        messages = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            x, y = rng.normal(size=(6, 2)) * 1e150, rng.integers(0, 2, size=6)
            fused, loop = fused_and_step_loop(x, y, (2, 2, 2, 2),
                                              TrainConfig(batch_size=3), 3, seed)
            assert fused == loop
            if isinstance(fused, tuple):
                messages.append(fused[1])
        assert any(m.startswith("non-finite gradient in layer ") for m in messages)

    def test_teacher_refuses_non_finite_probs_after_the_last_step(self):
        """One finite step at lr 1e300 leaves weights no forward pass can
        take: the teacher raises instead of returning NaN probs."""
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(8, 3)), rng.integers(0, 2, size=8)
        cfg = TrainConfig(lr=1e300, batch_size=8)
        assert np.isfinite(train_classifier(x, y, (3, 4, 2), cfg, 1, 0).params).all()
        with pytest.raises(FloatingPointError, match=r"^training diverged: non-finite "
                                                     r"teacher probs after epoch 1$"):
            train_teacher(x, y, (3, 4, 2), cfg, 1, 0)

    def test_refuses_negative_epochs(self):
        with pytest.raises(ValueError, match=r"^epochs must be >= 0, got -2$"):
            train_classifier(np.zeros((4, 2)), np.zeros(4, int), (2, 2), TrainConfig(), -2, 0)

    @pytest.mark.parametrize("field, value", [("temperature", 2.0),
                                              ("hard_label_weight", 0.5)])
    def test_refuses_soft_target_settings(self, field, value):
        cfg = TrainConfig(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be "):
            train_classifier(np.zeros((4, 2)), np.zeros(4, int), (2, 2), cfg, 1, 0)

    @pytest.mark.parametrize("labels", [[0, 1, 0], [0, -1, 1, 0], [0, 1, 2, 0]])
    def test_refuses_labels_that_are_not_class_ids(self, labels):
        with pytest.raises(ValueError, match=r"^labels must be a \(4,\) array of class ids"):
            train_classifier(np.zeros((4, 2)), np.array(labels), (2, 2), TrainConfig(), 1, 0)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        model = init_mlp((5, 7, 3), 15)
        path = tmp_path / "model.bin"
        save_model(path, model)
        again = load_model(path)
        assert again.layer_dims == model.layer_dims
        for a, b in zip(model.weights + model.biases, again.weights + again.biases):
            np.testing.assert_array_equal(a, b)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_copy_is_deep(self):
        model = init_mlp((2, 2), 16)
        clone = model.copy()
        clone.weights[0][0, 0] += 1.0
        assert model.weights[0][0, 0] != clone.weights[0][0, 0]


class TestTrainConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(temperature=0.0)
        with pytest.raises(ValueError):
            TrainConfig(hard_label_weight=1.5)

    def test_desk_default_decay_epochs(self):
        cfg = TrainConfig.desk_default(60)
        assert cfg.lr_decay_epochs == (37, 45, 52)


class TestFlatParams:
    @staticmethod
    def per_layer_step(weights, biases, vel_w, vel_b, grads_w, grads_b, lr, cfg):
        """The per-layer momentum rule the flat update must reproduce."""
        for i, (gw, gb) in enumerate(zip(grads_w, grads_b)):
            vel_w[i] = cfg.momentum * vel_w[i] + (gw + cfg.weight_decay * weights[i])
            weights[i] = weights[i] - lr * vel_w[i]
            vel_b[i] = cfg.momentum * vel_b[i] + gb
            biases[i] = biases[i] - lr * vel_b[i]

    def test_flat_sgd_matches_per_layer_oracle(self):
        model = init_mlp((5, 7, 6, 3), 17)
        cfg = TrainConfig(momentum=0.9, weight_decay=5e-3)
        vel = np.zeros_like(model.params)
        weights = [w.copy() for w in model.weights]
        biases = [b.copy() for b in model.biases]
        vel_w = [np.zeros_like(w) for w in weights]
        vel_b = [np.zeros_like(b) for b in biases]
        rng = np.random.default_rng(18)
        for step in range(6):
            x = rng.normal(size=(9, 5))
            t = rng.dirichlet(np.ones(3), size=9)
            _, gw, gb, _ = loss_and_grads(model, x, t)
            gb[1][0] = -0.0  # a signed zero must survive on a bias
            lr = 0.05 if step < 3 else 0.005
            self.per_layer_step(weights, biases, vel_w, vel_b, gw, gb, lr, cfg)
            sgd_step(model, gw, gb, vel, lr, cfg)
            for a, b in zip(model.weights + model.biases, weights + biases):
                assert a.tobytes() == b.tobytes()
        assert vel.tobytes() == np.concatenate(
            [v.ravel() for vw, vb in zip(vel_w, vel_b) for v in (vw, vb)]).tobytes()

    def test_non_finite_bias_gradient_names_layer_and_leaves_params(self):
        model = init_mlp((4, 5, 3), 19)
        vel = np.zeros_like(model.params)
        before = model.params.copy()
        gw = [np.ones_like(w) for w in model.weights]
        gb = [np.ones_like(b) for b in model.biases]
        gb[1][2] = np.inf
        with pytest.raises(FloatingPointError, match="non-finite gradient in layer 1"):
            sgd_step(model, gw, gb, vel, 0.1, TrainConfig())
        np.testing.assert_array_equal(model.params, before)
        assert not vel.any()

    def test_layout_is_the_checkpoint_layout(self, tmp_path):
        model = init_mlp((3, 4, 2), 20)
        assert model.params.size == 3 * 4 + 4 * 2 + 4 + 2
        expected = np.concatenate([a.ravel() for w, b in zip(model.weights, model.biases)
                                   for a in (w, b)])
        np.testing.assert_array_equal(model.params, expected)
        assert model.params.tobytes() == model.param_bytes()
        save_model(tmp_path / "m.bin", model)
        assert (tmp_path / "m.bin").read_bytes()[12 + 4 * 3:] == model.param_bytes()

    def test_view_writes_land_in_params(self):
        model = init_mlp((3, 4, 2), 21)
        model.weights[1][2, 1] = 7.5
        model.biases[0][:] = -1.0
        # layer 0 holds 3 * 4 weights, then 4 biases; layer 1's weights follow
        assert model.params[3 * 4 + 4 + 2 * 2 + 1] == 7.5
        np.testing.assert_array_equal(model.params[3 * 4:3 * 4 + 4], -1.0)

    @pytest.mark.parametrize("params", [np.zeros(25), np.zeros(27), np.zeros((2, 25)),
                                        np.float64(0.0)])
    def test_params_of_the_wrong_length_are_refused(self, params):
        with pytest.raises(ValueError, match=r"do not hold the 26 parameters of layer "
                                             r"dims \(3, 4, 2\)$"):
            MlpModel((3, 4, 2), params)

    @pytest.mark.parametrize("dims", [(3,), (3, 0, 2), (3, -1, 2)])
    def test_bad_dims_are_refused(self, dims):
        for build in (lambda: init_mlp(dims, 0), lambda: MlpModel(dims, np.zeros(26))):
            with pytest.raises(ValueError, match="layer_dims must list input, hidden"):
                build()

    def test_models_compare_by_param_bytes_not_eq(self):
        model = init_mlp((3, 4, 2), 22)
        twin = model.copy()
        assert (model == twin) is False and model == model
        assert twin.param_bytes() == model.param_bytes()

    def test_copy_and_checkpoint_are_independent_and_equal(self, tmp_path):
        model = init_mlp((3, 4, 2), 22)
        path = tmp_path / "m.bin"
        save_model(path, model)
        for twin in (model.copy(), load_model(path)):
            np.testing.assert_array_equal(twin.params, model.params)
            assert twin.param_bytes() == model.param_bytes()
            twin.weights[0][0, 0] += 1.0
            twin.biases[1][0] += 1.0
            assert twin.params[0] == model.params[0] + 1.0
            assert twin.param_bytes() != model.param_bytes()


class TestStackedModels:
    """A stack of K models does per model exactly the arithmetic of the
    model alone, with or without temperature and hard-label terms."""

    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("dims", [(16, 16, 10), (6, 8, 5, 4)])
    @pytest.mark.parametrize("temperature, hard_weight", [(1.0, 0.0), (2.0, 0.3)])
    def test_stacked_step_is_bit_identical_to_a_loop(self, dims, batch, temperature,
                                                     hard_weight):
        rng = np.random.default_rng(batch)
        models = [init_mlp(dims, seed) for seed in range(3)]
        stack = stack_models(models)
        x = rng.normal(size=(3, batch, dims[0]))
        t = rng.dirichlet(np.ones(dims[-1]), size=(3, batch))
        hard = rng.integers(0, dims[-1], size=(3, batch))
        cfg = TrainConfig(weight_decay=5e-3)
        for k, model in enumerate(models):
            assert forward(stack, x[k])[k].tobytes() == forward(model, x[k]).tobytes()
        vel = np.zeros_like(stack.params)
        loss, gw, gb, probs = loss_and_grads(stack, x, t, temperature, hard, hard_weight)
        sgd_step(stack, gw, gb, vel, 0.05, cfg)
        assert loss.shape == (3,)
        for k, model in enumerate(models):
            loss_k, gw_k, gb_k, probs_k = loss_and_grads(model, x[k], t[k], temperature,
                                                         hard[k], hard_weight)
            assert loss[k] == loss_k and np.isfinite(loss_k)
            assert probs[k].tobytes() == probs_k.tobytes()
            for stacked, alone in zip(gw + gb, gw_k + gb_k):
                assert stacked[k].tobytes() == alone.tobytes()
            vel_k = np.zeros_like(model.params)
            sgd_step(model, gw_k, gb_k, vel_k, 0.05, cfg)
            assert stack.params[k].tobytes() == model.params.tobytes()
            assert vel[k].tobytes() == vel_k.tobytes()

    @pytest.mark.parametrize("stacked", [False, True])
    def test_unpickled_views_still_write_through(self, stacked):
        model = init_mlp((3, 4, 2), 23)
        if stacked:
            model = stack_models([model, init_mlp((3, 4, 2), 24)])
        again = pickle.loads(pickle.dumps(model))
        assert again.params.tobytes() == model.params.tobytes()
        again.params[...] = 0.0
        assert not any(a.any() for a in again.weights + again.biases)

    def test_views_write_through_to_the_stacked_vector(self):
        models = [init_mlp((3, 4, 2), seed) for seed in range(2)]
        stack = stack_models(models)
        assert stack.params.shape == (2, 3 * 4 + 4 * 2 + 4 + 2)
        for k, model in enumerate(models):
            assert stack.params[k].tobytes() == model.param_bytes()
        stack.weights[1][1, 2, 1] = 7.5
        stack.biases[0][1, :] = -1.0
        assert stack.params[1, 3 * 4 + 4 + 2 * 2 + 1] == 7.5
        np.testing.assert_array_equal(stack.params[1, 3 * 4:3 * 4 + 4], -1.0)

    def test_non_finite_gradient_names_model_and_layer_and_moves_nothing(self):
        stack = stack_models([init_mlp((4, 5, 3), seed) for seed in range(3)])
        vel = np.zeros_like(stack.params)
        before = stack.params.copy()
        gw = [np.ones_like(w) for w in stack.weights]
        gb = [np.ones_like(b) for b in stack.biases]
        gw[1][2, 0, 1] = np.nan
        gb[0][1, 3] = np.inf
        with pytest.raises(FloatingPointError, match="non-finite gradient in layer 0") as caught:
            sgd_step(stack, gw, gb, vel, 0.1, TrainConfig())
        assert caught.value.index == (1,)
        np.testing.assert_array_equal(stack.params, before)
        assert not vel.any()


# a three-layer checkpoint: 12 header bytes, 12 dim bytes, then parameters
FUZZ_MODEL = init_mlp((5, 7, 3), 21)
FUZZ_DIMS_END = 12 + 4 * len(FUZZ_MODEL.layer_dims)
fuzz = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def checkpoint_bytes(tmp_path):
    path = tmp_path / "model.bin"
    save_model(path, FUZZ_MODEL)
    return path, path.read_bytes()


def assert_rejected(path, blob):
    path.write_bytes(blob)
    with pytest.raises(DataFormatError, match="byte offset") as caught:
        load_model(path)
    assert str(path) in str(caught.value)


class TestHostileCheckpoint:
    @fuzz
    @given(cut=st.data())
    def test_truncation(self, tmp_path, cut):
        path, blob = checkpoint_bytes(tmp_path)
        assert_rejected(path, blob[:cut.draw(st.integers(0, len(blob) - 1))])

    @fuzz
    @given(bit=st.integers(0, 8 * FUZZ_DIMS_END - 1))
    def test_header_bit_flip(self, tmp_path, bit):
        path, blob = checkpoint_bytes(tmp_path)
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert_rejected(path, bytes(flipped))

    @fuzz
    @given(bit=st.data())
    def test_parameter_bit_flip_loads_same_shape(self, tmp_path, bit):
        path, blob = checkpoint_bytes(tmp_path)
        i = bit.draw(st.integers(8 * FUZZ_DIMS_END, 8 * len(blob) - 1))
        flipped = bytearray(blob)
        flipped[i // 8] ^= 1 << (i % 8)
        path.write_bytes(bytes(flipped))
        assert load_model(path).layer_dims == FUZZ_MODEL.layer_dims

    @fuzz
    @given(n_dims=st.integers(4, 2**32 - 1))
    def test_huge_n_dims(self, tmp_path, n_dims):
        path, blob = checkpoint_bytes(tmp_path)
        assert_rejected(path, blob[:8] + struct.pack("<I", n_dims) + blob[12:])

    @fuzz
    @given(layer=st.integers(0, 2), dim=st.integers(8, 2**32 - 1))
    def test_huge_dim(self, tmp_path, layer, dim):
        path, blob = checkpoint_bytes(tmp_path)
        at = 12 + 4 * layer
        assert_rejected(path, blob[:at] + struct.pack("<I", dim) + blob[at + 4:])

    @pytest.mark.parametrize("dims", [(), (5,), (5, 0)])
    def test_degenerate_dims(self, tmp_path, dims):
        path = tmp_path / "model.bin"
        assert_rejected(path, struct.pack(f"<4sII{len(dims)}I", b"MLP1", 1, len(dims), *dims))
        with pytest.raises(DataFormatError, match=f"got {len(dims)} dims"):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        path, blob = checkpoint_bytes(tmp_path)
        assert_rejected(path, blob + b"\0")
