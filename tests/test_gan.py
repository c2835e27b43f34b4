import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganevade import gan, nncore
from ganevade.gan import (GanPreset, TrainingConfig, api_preset, build_gan,
                          byte_preset, critic_loss, generate, generator_loss,
                          load_gan, preset_for, sample_noise, save_gan,
                          smooth_union, strings_preset, train)
from ganevade.nncore import build_mlp
import tape
from tape import Tensor, add, mul, power, sub, tmean, tsum


def critic_grads(critic, *args, **kwargs):
    """``critic_loss``'s result and the gradients it writes, as one tuple."""
    grads = [np.empty_like(p) for p in critic.parameters()]
    return (*critic_loss(critic, *args, **kwargs, out=grads), grads)


class TestPresets:
    def test_byte_dims(self):
        p = byte_preset()
        assert (p.input_dim, p.noise_dim) == (256, 8)
        assert p.generator_hidden == (256, 256)
        assert p.critic_hidden == (128, 64)
        assert p.output_activation == "softmax"
        assert not p.is_binary

    def test_api_dims(self):
        p = api_preset()
        assert (p.input_dim, p.noise_dim) == (2000, 128)
        assert p.generator_hidden == (2000, 2000)
        assert p.critic_hidden == (500, 300, 100)
        assert p.output_activation == "sigmoid"
        assert p.is_binary

    def test_strings_dims(self):
        p = strings_preset()
        assert p.generator_hidden == (512, 512)
        assert p.critic_hidden == (500, 300, 100)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            preset_for("registry")


class TestNoise:
    def test_range_half_open(self):
        z = sample_noise(16, 1000, np.random.default_rng(0))
        assert z.min() >= 0.0
        assert z.max() < 1.0

    def test_seed_determinism(self):
        a = sample_noise(4, 5, np.random.default_rng(7))
        b = sample_noise(4, 5, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_mean_near_half(self):
        z = sample_noise(8, 5000, np.random.default_rng(1))
        assert abs(z.mean() - 0.5) < 0.01

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            sample_noise(0, 1, np.random.default_rng(0))


class TestSmoothUnion:
    def test_hand_example(self):
        out = smooth_union(np.array([[1.0, 0.0]]), np.array([[0.3, 0.7]]))
        np.testing.assert_array_equal(out, [[1.0, 0.7]])

    def test_at_least_m_and_fixed_points(self):
        rng = np.random.default_rng(2)
        m = (rng.random((6, 9)) > 0.5).astype(np.float64)
        out = smooth_union(m, rng.random((6, 9)))
        assert np.all(out >= m)
        assert np.all(out[m == 1.0] == 1.0)

    def test_dim_mismatch(self):
        with pytest.raises(nncore.ShapeMismatchError):
            smooth_union(np.zeros((1, 3)), np.zeros((1, 4)))


def tiny_preset(kind="api"):
    act = "softmax" if kind == "byte_histogram" else "sigmoid"
    return GanPreset(kind, 12, 4, (16, 16), (8, 8), act)


class TestGenerate:
    def test_binary_superset_always(self):
        preset = tiny_preset("api")
        model = build_gan(preset, seed=0)
        rng = np.random.default_rng(3)
        m = (rng.random((50, 12)) > 0.6).astype(np.float64)
        z = sample_noise(4, 50, rng)
        out = generate(model, m, z)
        assert out.shape == m.shape
        assert np.all(out >= m)
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_byte_outputs_are_distributions(self):
        preset = tiny_preset("byte_histogram")
        model = build_gan(preset, seed=0)
        rng = np.random.default_rng(4)
        m = rng.dirichlet(np.ones(12), size=20)
        out = generate(model, m, sample_noise(4, 20, rng))
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(20), atol=1e-9)

    def test_single_vector_in_single_out(self):
        model = build_gan(tiny_preset(), seed=0)
        m = np.zeros(12)
        z = np.random.default_rng(5).random(4)
        out = generate(model, m, z)
        assert out.shape == (12,)

    def test_eval_mode_deterministic(self):
        model = build_gan(tiny_preset(), seed=1)
        rng = np.random.default_rng(6)
        m = (rng.random((3, 12)) > 0.5).astype(np.float64)
        z = sample_noise(4, 3, np.random.default_rng(9))
        np.testing.assert_array_equal(generate(model, m, z),
                                      generate(model, m, z))

    def test_dim_check(self):
        model = build_gan(tiny_preset(), seed=0)
        with pytest.raises(nncore.ShapeMismatchError):
            generate(model, np.zeros((1, 5)), np.zeros((1, 4)))


def graph_critic_loss(critic, real, fake, lambda_gp, eps, masks=None):
    """The critic loss as a tape graph, the oracle of the closed form:
    (loss, distance, penalty) tensors and the gradient of the loss w.r.t.
    ``critic.parameters()`` by grad-of-grad."""
    real, fake = Tensor(real), Tensor(fake)
    eps_t = Tensor(np.asarray(eps, dtype=np.float64).reshape(-1, 1))
    x_hat = add(mul(eps_t, real), mul(sub(Tensor(1.0), eps_t), fake))
    f_real, params = tape.forward(critic, real, masks)
    f_fake, _ = tape.forward(critic, fake, masks, params)
    f_hat, _ = tape.forward(critic, x_hat, masks, params)
    gx = tape.grad(tsum(f_hat), x_hat)
    norms = power(tsum(mul(gx, gx), axis=1), 0.5)
    penalty = tmean(power(sub(norms, Tensor(1.0)), 2.0))
    wdist = sub(tmean(f_fake), tmean(f_real))
    loss = add(wdist, mul(Tensor(lambda_gp), penalty))
    return loss, wdist, penalty, tape.grad(loss, params)


def dropout_masks(rng, batch, widths, rates):
    """Inverted-dropout masks that keep at least one unit of every row, so
    no row's input gradient is 0 (where the penalty is not differentiable)."""
    masks = []
    for width, rate in zip(widths, rates):
        keep = rng.random((batch, width)) >= rate
        keep[np.arange(batch), rng.integers(0, width, size=batch)] = True
        masks.append(keep / (1.0 - rate))
    return masks


class TestLosses:
    def test_constant_critic_loss_is_lambda(self):
        # zero-weight critic scores everything 0: wdist 0, penalty (0-1)^2,
        # and at a zero input gradient the penalty contributes no gradient
        critic = build_mlp([6, 4, 1], "leaky_relu", "linear",
                           np.random.default_rng(0))
        for p in critic.parameters():
            p[...] = 0.0
        rng = np.random.default_rng(8)
        loss, wdist, penalty, grads = critic_grads(
            critic, rng.random((5, 6)), rng.random((5, 6)), lambda_gp=10.0,
            eps=rng.random((5, 1)))
        assert loss == pytest.approx(10.0)
        assert (wdist, penalty) == (0.0, 1.0)
        assert [g.shape for g in grads] == \
            [p.shape for p in critic.parameters()]
        for g in grads[:-1]:
            assert not g.any()

    def test_batch_shape_checks(self):
        critic = build_mlp([4, 3, 1], "leaky_relu", "linear",
                           np.random.default_rng(0))
        with pytest.raises(nncore.ShapeMismatchError):
            critic_grads(critic, np.zeros((2, 4)), np.zeros((3, 4)), 10.0,
                         eps=np.zeros((2, 1)))
        with pytest.raises(nncore.ShapeMismatchError):
            critic_grads(critic, np.zeros((2, 5)), np.zeros((2, 5)), 10.0,
                         eps=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            critic_grads(critic, np.zeros((0, 4)), np.zeros((0, 4)), 10.0,
                         eps=np.zeros((0, 1)))
        # a gradient is refused where it is written: one array per
        # parameter, each of its parameter's shape
        grads = [np.empty_like(p) for p in critic.parameters()]
        with pytest.raises(nncore.ShapeMismatchError):
            critic_loss(critic, np.zeros((2, 4)), np.ones((2, 4)), 10.0,
                        eps=np.full((2, 1), 0.5), out=grads[:-1])
        with pytest.raises(ValueError):
            critic_loss(critic, np.zeros((2, 4)), np.ones((2, 4)), 10.0,
                        eps=np.full((2, 1), 0.5), out=grads[::-1])

    @pytest.mark.parametrize("hidden,output", [
        ("relu", "linear"), ("leaky_relu", "sigmoid")])
    def test_other_critic_architecture_rejected(self, hidden, output):
        critic = build_mlp([4, 3, 1], hidden, output, np.random.default_rng(0))
        with pytest.raises(ValueError):
            critic_grads(critic, np.zeros((2, 4)), np.ones((2, 4)), 10.0,
                         eps=np.full((2, 1), 0.5))

    def test_non_finite_output_raises(self):
        critic = build_mlp([4, 3, 1], "leaky_relu", "linear",
                           np.random.default_rng(0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(nncore.NumericError):
                critic_grads(critic, np.full((2, 4), 1e308),
                             np.ones((2, 4)), 10.0, eps=np.full((2, 1), 0.5))

    def test_critic_gradient_matches_fd(self):
        rng = np.random.default_rng(9)
        critic = build_mlp([5, 7, 1], "leaky_relu", "linear", rng)
        real = rng.normal(size=(6, 5))
        fake = rng.normal(size=(6, 5))
        eps = rng.random((6, 1))
        masks = dropout_masks(rng, 6, (5, 7), (0.1, 0.5))
        params = critic.parameters()
        _, _, _, grads = critic_grads(critic, real, fake, 10.0, eps, masks)
        h = 1e-5
        for p, g in zip(params, grads):
            p0 = p.copy()
            fd = np.zeros_like(p0)
            for i in np.ndindex(p0.shape):
                for sign in (1, -1):
                    p[...] = p0
                    p[i] += sign * h
                    fd[i] += sign * critic_grads(critic, real, fake, 10.0,
                                                 eps, masks)[0] / (2 * h)
            p[...] = p0
            rel = np.abs(g - fd).max() / (np.abs(fd).max() + 1e-12)
            assert rel <= 1e-4

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           widths=st.lists(st.integers(1, 12), min_size=2, max_size=4),
           batch=st.integers(1, 16),
           slope=st.floats(0.01, 0.99),
           lambda_gp=st.floats(0.01, 100.0),
           with_masks=st.booleans())
    def test_closed_form_matches_graph_oracle(self, seed, widths, batch, slope,
                                              lambda_gp, with_masks):
        # widths: input, then 1-3 hidden layers; the output is 1 wide
        rng = np.random.default_rng(seed)
        critic = build_mlp([*widths, 1], "leaky_relu", "linear", rng,
                           slope=slope)
        real = rng.random((batch, widths[0]))
        fake = rng.normal(size=(batch, widths[0]))
        eps = rng.random((batch, 1))
        masks = dropout_masks(rng, batch, widths,
                              [0.1] + [0.5] * (len(widths) - 1)) \
            if with_masks else None
        loss, wdist, penalty, grads = critic_grads(critic, real, fake,
                                                   lambda_gp, eps, masks)
        o_loss, o_wdist, o_penalty, o_grads = graph_critic_loss(
            critic, real, fake, lambda_gp, eps, masks)
        for got, want in ((loss, o_loss), (wdist, o_wdist),
                          (penalty, o_penalty)):
            assert got == pytest.approx(float(want.data), rel=1e-10, abs=1e-12)
        assert len(grads) == len(o_grads)
        for got, want in zip(grads, o_grads):
            assert got.shape == want.data.shape
            # relative to the array's scale, with a floor of 1 for arrays
            # whose exact value is 0 (the output bias's)
            scale = max(np.abs(want.data).max(), 1.0)
            assert np.abs(got - want.data).max() <= 1e-10 * scale

    def test_generator_loss_is_mean_score(self):
        rng = np.random.default_rng(10)
        critic = build_mlp([4, 3, 1], "leaky_relu", "linear", rng)
        fake = rng.normal(size=(8, 4))
        expected = nncore.forward(critic, fake)[0].mean()
        assert generator_loss(critic, fake)[0] == pytest.approx(expected)


def tape_generator_grads(model, m, z, gen_masks, critic_masks):
    """The generator step by the tape: the gradient of the negated mean
    critic score w.r.t. the generator's parameters."""
    o, params = tape.forward(model.generator,
                             Tensor(np.concatenate([m, z], axis=1)), gen_masks)
    fake = tape.maximum(Tensor(m), o) if model.preset.is_binary else o
    score, _ = tape.forward(model.critic, fake, critic_masks)
    loss = tmean(score)
    return float(loss.data), tape.grad(mul(Tensor(-1.0), loss), params)


class TestGeneratorStep:
    @pytest.mark.parametrize("kind", ["byte_histogram", "api"])
    def test_matches_tape(self, kind):
        # the step train() takes: masks on both networks, and on a binary
        # preset the gradient routed through smooth_union
        model = build_gan(tiny_preset(kind), seed=4)
        rng = np.random.default_rng(5)
        batch = 16
        if kind == "api":
            m = (rng.random((batch, 12)) > 0.5).astype(np.float64)
        else:
            m = rng.dirichlet(np.ones(12), size=batch)
        z = sample_noise(4, batch, rng)
        gen_masks = model.generator.sample_dropout_masks(rng, batch)
        critic_masks = model.critic.sample_dropout_masks(rng, batch)

        fake, path = gan._generator_path(model, m, z, gen_masks)
        score, g_fake = generator_loss(model.critic, fake, critic_masks)
        grads = [np.empty_like(p) for p in model.generator.parameters()]
        gan._generator_grads(model, path, g_fake, grads)
        want_score, want = tape_generator_grads(model, m, z, gen_masks,
                                                critic_masks)
        assert score == want_score
        assert len(grads) == len(want)
        for got, w in zip(grads, want):
            np.testing.assert_array_equal(got, w.data)
        if kind == "api":
            # some units pass the gradient on, the ones under m = 1 do not
            assert 0 < path[1].sum() < path[1].size


def stacked(benign, malicious):
    """One matrix and each class's row indices, as ``train`` reads them."""
    x = np.vstack([benign, malicious])
    return x, np.arange(len(benign)), np.arange(len(benign), len(x))


def separable_corpora(n=80, dim=12, seed=0):
    """Benign and malicious histograms, stacked (``stacked``)."""
    rng = np.random.default_rng(seed)
    alpha_b = np.full(dim, 0.4)
    alpha_b[:4] = 6.0
    alpha_m = np.full(dim, 0.4)
    alpha_m[-4:] = 6.0
    return stacked(rng.dirichlet(alpha_b, n), rng.dirichlet(alpha_m, n))


class TestTraining:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(max_steps=0)

    @pytest.mark.parametrize("bad", [
        {"max_steps": 20.5}, {"max_steps": True}, {"max_steps": "3"}, {},
        # the rest of the WGAN-GP recipe is fixed: gan's constants
        {"max_steps": 3, "batch_size": 64}, {"max_steps": 3, "lambda_gp": 10.0},
        {"max_steps": 3, "n_generator": 5},
        {"max_steps": 3, "learning_rate": 1e-4}])
    def test_config_types(self, bad):
        with pytest.raises(TypeError):
            TrainingConfig(**bad)
        # integral values of other numeric types are accepted
        TrainingConfig(max_steps=np.int64(3))

    def test_generator_updates_every_fifth_step(self):
        data = separable_corpora()
        preset = tiny_preset("byte_histogram")
        cfg = TrainingConfig(max_steps=4)
        model = train(*data, preset, cfg, seed=3)
        init = build_gan(preset, seed=3)
        # 4 steps < N_GENERATOR: generator untouched, critic moved
        for a, b in zip(model.generator.parameters(), init.generator.parameters()):
            np.testing.assert_array_equal(a, b)
        moved = any(not np.array_equal(a, b) for a, b in
                    zip(model.critic.parameters(), init.critic.parameters()))
        assert moved

        cfg5 = TrainingConfig(max_steps=5)
        model5 = train(*data, preset, cfg5, seed=3)
        changed = any(not np.array_equal(a, b) for a, b in
                      zip(model5.generator.parameters(),
                          init.generator.parameters()))
        assert changed

    def test_overflow_in_the_graph_is_training_diverged(self):
        # finite inputs whose critic scores overflow: the NaN/Inf is made
        # inside the forward, which checks only its output, and must still
        # stop training at the first step
        data = stacked(np.full((8, 256), 1e308), np.full((8, 256), 1.0 / 256))
        cfg = TrainingConfig(max_steps=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(gan.TrainingDivergedError) as err:
                train(*data, gan.byte_preset(), cfg)
        assert err.value.step == 1

    def test_metrics_sink_called_every_step(self):
        data = separable_corpora()
        rows = []
        cfg = TrainingConfig(max_steps=12)
        train(*data, tiny_preset("byte_histogram"), cfg,
              metrics_sink=lambda *a: rows.append(a))
        assert len(rows) == 12
        assert [r[0] for r in rows] == list(range(1, 13))
        # (step, L_D, L_G, penalty, step_ms)
        assert all(len(r) == 5 and r[4] > 0.0 for r in rows)

    def test_runs_max_steps(self):
        rows = []
        model = train(*separable_corpora(), tiny_preset("byte_histogram"),
                      TrainingConfig(max_steps=40), seed=3,
                      metrics_sink=lambda *a: rows.append(a))
        assert model.training_meta == {"steps": 40, "seed": 3}
        assert len(rows) == 40

    def test_seed_reproducibility_bit_exact(self, tmp_path):
        data = separable_corpora()
        cfg = TrainingConfig(max_steps=10)
        m1 = train(*data, tiny_preset("api"), cfg, seed=11)
        m2 = train(*data, tiny_preset("api"), cfg, seed=11)
        p1, p2 = tmp_path / "a.gevd", tmp_path / "b.gevd"
        save_gan(p1, m1)
        save_gan(p2, m2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mismatched_dims_rejected(self):
        with pytest.raises(nncore.ShapeMismatchError):
            train(*stacked(np.zeros((4, 5)), np.zeros((4, 5))), tiny_preset(),
                  TrainingConfig(max_steps=1))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train(*stacked(np.zeros((0, 12)), np.zeros((4, 12))),
                  tiny_preset(), TrainingConfig(max_steps=1))

    @pytest.mark.parametrize("x,benign_rows,malicious_rows", [
        (np.zeros((4, 12)), [0, 1], []),          # no malicious row
        (np.zeros((4, 12)), [[0], [1]], [2]),     # indices not 1-D
        (np.zeros(12), [0], [0]),                 # not a matrix
        (np.zeros((4, 12)), [0, 4], [1]),         # past the last row
        (np.zeros((4, 12)), [0], [-1])])          # would wrap around
    def test_bad_rows_rejected(self, x, benign_rows, malicious_rows):
        with pytest.raises(ValueError):
            train(x, benign_rows, malicious_rows, tiny_preset(),
                  TrainingConfig(max_steps=1))

    def test_batches_are_drawn_without_a_float_copy_of_the_matrix(self):
        # a |u1 indicator matrix, as extract stores Top-K rows: training
        # converts each batch, never the 100000 rows (a 9.6 MB float64
        # copy), and copies no class's rows (0.6 MB each) out of it
        rng = np.random.default_rng(8)
        x = (rng.random((100_000, 12)) < 0.3).astype(np.uint8)
        benign_rows = np.arange(0, len(x), 2)
        malicious_rows = np.arange(1, len(x), 2)
        cfg = TrainingConfig(max_steps=2)
        tracemalloc.start()
        try:
            train(x, benign_rows, malicious_rows, tiny_preset(), cfg, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes // 4


class TestPersistence:
    def test_roundtrip_preserves_generation(self, tmp_path):
        data = separable_corpora()
        cfg = TrainingConfig(max_steps=10)
        model = train(*data, tiny_preset("byte_histogram"), cfg,
                      seed=2)
        path = tmp_path / "gan.gevd"
        save_gan(path, model)
        back = load_gan(path)
        assert back.preset == model.preset
        assert back.training_meta["steps"] == 10
        rng = np.random.default_rng(0)
        m = rng.dirichlet(np.ones(12), size=4)
        z = sample_noise(4, 4, np.random.default_rng(1))
        np.testing.assert_array_equal(generate(model, m, z),
                                      generate(back, m, z))

    def test_wrong_kind_rejected(self, tmp_path):
        from ganevade import checkpoint as ckpt
        path = tmp_path / "x.gevd"
        ckpt.save_container(path, {"kind": "other"}, {})
        with pytest.raises(ckpt.CheckpointError):
            load_gan(path)
