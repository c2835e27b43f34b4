import tracemalloc

import numpy as np
import pytest

from ganevade import checkpoint as ckpt
from ganevade import nncore
from ganevade.detectors import (BENIGN, MALICIOUS, DetectorModel,
                                detection_rate, load_detector, save_detector,
                                train_detector)
from ganevade.nncore import DenseLayer, Mlp


def gaussian_classes(n=120, dim=10, sep=3.0, seed=0):
    rng = np.random.default_rng(seed)
    xb = rng.normal(loc=0.0, size=(n, dim))
    xm = rng.normal(loc=sep / np.sqrt(dim), size=(n, dim))
    return xb, xm


class TestLogreg:
    def test_separable_classes_learned(self):
        xb, xm = gaussian_classes()
        model = train_detector("logreg", xb, xm)
        assert detection_rate(model, xm) >= 0.9
        assert detection_rate(model, xb) <= 0.1

    def test_scores_are_probabilities(self):
        xb, xm = gaussian_classes(n=30)
        model = train_detector("logreg", xb, xm)
        s = model.score(np.vstack([xb, xm]))
        assert np.all((s >= 0) & (s <= 1))

    def test_standardization_folded_into_raw_weights(self):
        # widely scaled features must not break the raw-space scorer
        xb, xm = gaussian_classes(n=80, dim=4)
        scale = np.array([1e-3, 1.0, 1e3, 5.0])
        model = train_detector("logreg", xb * scale, xm * scale)
        assert detection_rate(model, xm * scale) >= 0.9

    def test_deterministic_under_seed(self):
        xb, xm = gaussian_classes(n=40)
        m1 = train_detector("logreg", xb, xm, seed=5)
        m2 = train_detector("logreg", xb, xm, seed=5)
        for p1, p2 in zip(m1.net.parameters(), m2.net.parameters()):
            np.testing.assert_array_equal(p1, p2)

    def test_is_one_sigmoid_layer(self):
        xb, xm = gaussian_classes(n=30, dim=7)
        model = train_detector("logreg", xb, xm)
        [layer] = model.net.layers
        assert layer.activation == "sigmoid"
        assert layer.weights.shape == (1, 7) and layer.biases.shape == (1,)
        assert model.training_meta["kind"] == "logreg"

    @pytest.mark.parametrize("dim", [1, 7, 256, 2816])
    def test_score_is_the_logistic_of_its_layer(self, dim):
        xb, xm = gaussian_classes(n=30, dim=dim)
        model = train_detector("logreg", xb, xm, hyperparams={"steps": 20})
        w, b = model.net.layers[0].weights[0], model.net.layers[0].biases[0]
        x = np.vstack([xb, xm])
        np.testing.assert_array_equal(model.score(x),
                                      1.0 / (1.0 + np.exp(-(x @ w + b))))

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            train_detector("logreg", np.zeros((0, 3)), np.zeros((5, 3)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(nncore.ShapeMismatchError):
            train_detector("logreg", np.zeros((4, 3)), np.zeros((4, 5)))

    def test_narrow_rows_are_stacked_into_one_float64_copy(self):
        # |u1 rows, as extract stores the Top-K indicator rows: training
        # holds the stacked float64 matrix and one row-sized temporary
        # (x.std), not a float64 copy of each class besides
        rng = np.random.default_rng(3)
        xb = rng.integers(0, 2, size=(400, 1000), dtype=np.uint8)
        xm = rng.integers(0, 2, size=(400, 1000), dtype=np.uint8)
        stacked = (len(xb) + len(xm)) * xb.shape[1] * 8
        tracemalloc.start()
        try:
            train_detector("logreg", xb, xm, hyperparams={"steps": 1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * stacked


class TestMlp:
    def test_separable_classes_learned(self):
        xb, xm = gaussian_classes(n=80, dim=6)
        model = train_detector("mlp", xb, xm,
                               hyperparams={"steps": 300, "hidden": 16})
        assert detection_rate(model, xm) >= 0.9
        assert detection_rate(model, xb) <= 0.1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            train_detector("forest", np.zeros((2, 2)), np.ones((2, 2)))


class TestBlackBoxSurface:
    def test_label_fn_returns_labels_only(self):
        xb, xm = gaussian_classes(n=40)
        model = train_detector("logreg", xb, xm)
        fn = model.label_fn()
        labels = fn(np.vstack([xb[:3], xm[:3]]))
        assert set(labels) <= {BENIGN, MALICIOUS}

    def test_single_vector_label(self):
        xb, xm = gaussian_classes(n=40)
        model = train_detector("logreg", xb, xm)
        assert model.predict_label(xm[0]) in (BENIGN, MALICIOUS)

    def test_score_dim_checked(self):
        xb, xm = gaussian_classes(n=20, dim=4)
        model = train_detector("logreg", xb, xm)
        with pytest.raises(nncore.ShapeMismatchError):
            model.score(np.zeros((1, 7)))


def one_layer_model(weight: float) -> DetectorModel:
    return DetectorModel(Mlp([DenseLayer([[weight]], [0.0], "sigmoid")]))


class TestMetrics:
    def test_rates_by_hand(self):
        model = one_layer_model(10.0)
        # positive features score malicious, negative benign
        assert detection_rate(model, np.array([[1.0], [1.0], [-1.0]])) == \
            pytest.approx(2 / 3)
        assert detection_rate(model, np.array([[-1.0], [1.0]])) == 0.5

    def test_score_at_the_threshold_is_malicious(self):
        assert one_layer_model(10.0).predict_label(np.zeros(1)) == MALICIOUS

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            detection_rate(one_layer_model(1.0), np.zeros((0, 1)))


class TestPersistence:
    @pytest.mark.parametrize("kind,hp", [("logreg", {}),
                                         ("mlp", {"steps": 50, "hidden": 8})])
    def test_roundtrip_preserves_scores(self, tmp_path, kind, hp):
        xb, xm = gaussian_classes(n=40, dim=5)
        model = train_detector(kind, xb, xm, hyperparams=hp)
        path = tmp_path / "d.gevd"
        save_detector(path, model)
        back = load_detector(path)
        assert back.training_meta == model.training_meta
        assert back.training_meta["kind"] == kind
        np.testing.assert_array_equal(back.score(xm), model.score(xm))

    def test_old_logreg_layout_rejected(self, tmp_path):
        # the layout logregs were stored in before they were networks
        path = tmp_path / "d.gevd"
        ckpt.save_container(path, {
            "kind": "detector", "detector_kind": "logreg",
            "families": ["byte"], "threshold": 0.5,
            "training_meta": {"seed": 0, "steps": 400}, "key": "k"},
            {"w": np.ones(4), "b": np.zeros(1)})
        with pytest.raises(ckpt.CheckpointError):
            load_detector(path, "k")

    def test_wrong_container_rejected(self, tmp_path):
        path = tmp_path / "x.gevd"
        ckpt.save_container(path, {"kind": "gan"}, {})
        with pytest.raises(ckpt.CheckpointError):
            load_detector(path)
