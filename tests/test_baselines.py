import numpy as np
import pytest

import tape
from ganevade import baselines, petk
from ganevade.baselines import benign_injection, train_malgan
from ganevade.detectors import BENIGN, MALICIOUS
from ganevade.features import byte_histogram
from ganevade.gan import GanPreset, build_gan, generate
from ganevade.petk import SectionSpec, SynthSpec, parse, synth_pe


def make_pe(seed=0, size=600):
    spec = SynthSpec(sections=[SectionSpec(".text", size=size)])
    return parse(synth_pe(spec, seed=seed), strict=True)


class TestBenignInjection:
    def test_prefix_preserved_and_parseable(self):
        pe = make_pe(1)
        pool = [synth_pe(SynthSpec(sections=[SectionSpec(".text", size=300)]),
                         seed=s) for s in (10, 11)]
        out = benign_injection(pe, pool, np.random.default_rng(0))
        assert out.data[:len(pe.data)] == pe.data
        assert out.data[len(pe.data):] in [bytes(p) for p in pool]

    def test_histogram_is_convex_mix(self):
        pe = make_pe(2)
        donor = synth_pe(SynthSpec(sections=[SectionSpec(".d", size=500)]),
                         seed=3)
        out = benign_injection(pe, [donor], np.random.default_rng(0))
        h_out = byte_histogram(out.data)
        h_pe = byte_histogram(pe.data)
        h_donor = byte_histogram(donor)
        w = len(pe.data) / (len(pe.data) + len(donor))
        np.testing.assert_allclose(h_out, w * h_pe + (1 - w) * h_donor,
                                   atol=1e-12)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            benign_injection(make_pe(), [], np.random.default_rng(0))

    def test_seeded_choice_deterministic(self):
        pe = make_pe(4)
        pool = [synth_pe(SynthSpec(sections=[SectionSpec(".t", size=100)]),
                         seed=s) for s in range(5)]
        a = benign_injection(pe, pool, np.random.default_rng(42))
        b = benign_injection(pe, pool, np.random.default_rng(42))
        assert a.data == b.data


def tiny_preset():
    return GanPreset("byte_histogram", 10, 4, (16, 16), (8,), "softmax")


def threshold_black_box(threshold_bin=0):
    """Labels malicious when mass in the first bin is below 0.3."""
    def fn(x):
        x = np.atleast_2d(x)
        return np.where(x[:, threshold_bin] < 0.3, MALICIOUS, BENIGN)
    return fn


class TestMalgan:
    def test_queries_counted_and_positive(self):
        rng = np.random.default_rng(0)
        xm = rng.dirichlet([1] * 10, 40)
        xb = rng.dirichlet([5] + [1] * 9, 40)
        model = train_malgan(xm, xb, threshold_black_box(), tiny_preset(),
                             max_queries=500, seed=0)
        assert model.training_meta["queries"] > 0
        assert model.training_meta["queries"] >= 500 or \
            model.training_meta["rounds"] > 0

    def test_query_budget_respected_within_round(self):
        rng = np.random.default_rng(1)
        xm = rng.dirichlet([1] * 10, 20)
        xb = rng.dirichlet([5] + [1] * 9, 20)
        model = train_malgan(xm, xb, threshold_black_box(), tiny_preset(),
                             max_queries=300, seed=1)
        # at most one round of overshoot past the budget
        per_round = 2 * baselines.BATCH_SIZE + baselines.PROBE_SIZE
        assert model.training_meta["queries"] <= 300 + per_round

    def test_evades_simple_threshold_detector(self):
        # black box: first-bin mass must look benign; generator can add it
        rng = np.random.default_rng(2)
        xm = rng.dirichlet([0.2] + [1] * 9, 60)
        xb = rng.dirichlet([8] + [1] * 9, 60)
        bb = threshold_black_box()
        model = train_malgan(xm, xb, bb, tiny_preset(), max_queries=20000,
                             seed=0)
        z = np.random.default_rng(3).random((60, 4))
        adv = generate(model, xm, z)
        adv_rate = np.mean(bb(adv) == MALICIOUS)
        orig_rate = np.mean(bb(xm) == MALICIOUS)
        assert adv_rate <= orig_rate

    def test_generate_superset_for_binary_preset(self):
        preset = GanPreset("api", 10, 4, (16,), (8,), "sigmoid")
        model = build_gan(preset, seed=0)
        rng = np.random.default_rng(4)
        m = (rng.random((20, 10)) > 0.5).astype(np.float64)
        out = generate(model, m, rng.random((20, 4)))
        assert np.all(out >= m)

    def test_training_meta_recorded(self):
        rng = np.random.default_rng(5)
        xm = rng.dirichlet([1] * 10, 10)
        xb = rng.dirichlet([1] * 10, 10)
        model = train_malgan(xm, xb, threshold_black_box(), tiny_preset(),
                             max_queries=200, seed=9)
        assert model.training_meta["seed"] == 9
        assert model.training_meta["queries"] > 0


class TestMalganBackward:
    """MalGAN's two losses against the tape, bit for bit."""

    def test_substitute_grads_match_tape(self):
        model = build_gan(tiny_preset(), seed=6)
        rng = np.random.default_rng(6)
        x = rng.dirichlet(np.ones(10), size=12)
        y = np.repeat([0.0, 1.0], 6)
        grads = [np.empty_like(p) for p in model.critic.parameters()]
        baselines._substitute_grads(model.critic, x, y, grads)
        out, params = tape.forward(model.critic, tape.Tensor(x))
        want = tape.grad(tape.bce(tape.sigmoid(out), y), params)
        for got, w in zip(grads, want, strict=True):
            np.testing.assert_array_equal(got, w.data)

    @pytest.mark.parametrize("preset", [
        tiny_preset(), GanPreset("api", 10, 4, (16,), (8,), "sigmoid")])
    def test_generator_grads_match_tape(self, preset):
        model = build_gan(preset, seed=7)
        rng = np.random.default_rng(7)
        m = (rng.random((12, 10)) > 0.5).astype(np.float64)
        z = rng.random((12, 4))
        grads = [np.empty_like(p) for p in model.generator.parameters()]
        baselines._malgan_generator_grads(model, m, z, grads)
        x = tape.Tensor(np.concatenate([m, z], axis=1))
        o, params = tape.forward(model.generator, x)
        fake = tape.maximum(tape.Tensor(m), o) if preset.is_binary else o
        out, _ = tape.forward(model.critic, fake)
        want = tape.grad(tape.tmean(tape.sigmoid(out)), params)
        for got, w in zip(grads, want, strict=True):
            np.testing.assert_array_equal(got, w.data)
