import numpy as np
import pytest

from ganevade import detectors, nncore
from ganevade.detectors import (BENIGN, MALICIOUS, DetectorModel, FeatureSpec,
                                detection_rate, false_positive_rate,
                                load_detector, save_detector, train_detector)


def gaussian_classes(n=120, dim=10, sep=3.0, seed=0):
    rng = np.random.default_rng(seed)
    xb = rng.normal(loc=0.0, size=(n, dim))
    xm = rng.normal(loc=sep / np.sqrt(dim), size=(n, dim))
    return xb, xm


class TestFeatureSpec:
    def test_str_joins_families(self):
        assert str(FeatureSpec(("byte", "api_hashed"))) == "byte+api_hashed"


class TestLogreg:
    def test_separable_classes_learned(self):
        xb, xm = gaussian_classes()
        model = train_detector("logreg", FeatureSpec(("byte",)), xb, xm)
        assert detection_rate(model, xm) >= 0.9
        assert false_positive_rate(model, xb) <= 0.1

    def test_scores_are_probabilities(self):
        xb, xm = gaussian_classes(n=30)
        model = train_detector("logreg", FeatureSpec(("byte",)), xb, xm)
        s = model.score(np.vstack([xb, xm]))
        assert np.all((s >= 0) & (s <= 1))

    def test_standardization_folded_into_raw_weights(self):
        # widely scaled features must not break the raw-space scorer
        xb, xm = gaussian_classes(n=80, dim=4)
        scale = np.array([1e-3, 1.0, 1e3, 5.0])
        model = train_detector("logreg", FeatureSpec(("byte",)),
                               xb * scale, xm * scale)
        assert detection_rate(model, xm * scale) >= 0.9

    def test_deterministic_under_seed(self):
        xb, xm = gaussian_classes(n=40)
        m1 = train_detector("logreg", FeatureSpec(("byte",)), xb, xm, seed=5)
        m2 = train_detector("logreg", FeatureSpec(("byte",)), xb, xm, seed=5)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            train_detector("logreg", FeatureSpec(("byte",)),
                           np.zeros((0, 3)), np.zeros((5, 3)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(nncore.ShapeMismatchError):
            train_detector("logreg", FeatureSpec(("byte",)),
                           np.zeros((4, 3)), np.zeros((4, 5)))


class TestMlp:
    def test_separable_classes_learned(self):
        xb, xm = gaussian_classes(n=80, dim=6)
        model = train_detector("mlp", FeatureSpec(("byte",)), xb, xm,
                               hyperparams={"steps": 300, "hidden": 16})
        assert detection_rate(model, xm) >= 0.9
        assert false_positive_rate(model, xb) <= 0.1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            train_detector("forest", FeatureSpec(("byte",)),
                           np.zeros((2, 2)), np.ones((2, 2)))


class TestBlackBoxSurface:
    def test_label_fn_returns_labels_only(self):
        xb, xm = gaussian_classes(n=40)
        model = train_detector("logreg", FeatureSpec(("byte",)), xb, xm)
        fn = model.label_fn()
        labels = fn(np.vstack([xb[:3], xm[:3]]))
        assert set(labels) <= {BENIGN, MALICIOUS}

    def test_single_vector_label(self):
        xb, xm = gaussian_classes(n=40)
        model = train_detector("logreg", FeatureSpec(("byte",)), xb, xm)
        assert model.predict_label(xm[0]) in (BENIGN, MALICIOUS)

    def test_score_dim_checked(self):
        xb, xm = gaussian_classes(n=20, dim=4)
        model = train_detector("logreg", FeatureSpec(("byte",)), xb, xm)
        with pytest.raises(nncore.ShapeMismatchError):
            model.score(np.zeros((1, 7)))


class TestMetrics:
    def test_rates_by_hand(self):
        model = DetectorModel(kind="logreg", feature_spec=FeatureSpec(("byte",)),
                              weights=np.array([10.0]), bias=0.0)
        # positive features score malicious, negative benign
        assert detection_rate(model, np.array([[1.0], [1.0], [-1.0]])) == \
            pytest.approx(2 / 3)
        assert false_positive_rate(model, np.array([[-1.0], [1.0]])) == 0.5

    def test_empty_sets_rejected(self):
        model = DetectorModel(kind="logreg", feature_spec=FeatureSpec(("byte",)),
                              weights=np.array([1.0]))
        with pytest.raises(ValueError):
            detection_rate(model, np.zeros((0, 1)))
        with pytest.raises(ValueError):
            false_positive_rate(model, np.zeros((0, 1)))


class TestPersistence:
    @pytest.mark.parametrize("kind,hp", [("logreg", {}),
                                         ("mlp", {"steps": 50, "hidden": 8})])
    def test_roundtrip_preserves_scores(self, tmp_path, kind, hp):
        xb, xm = gaussian_classes(n=40, dim=5)
        model = train_detector(kind, FeatureSpec(("byte", "api_topk")), xb, xm,
                               hyperparams=hp)
        path = tmp_path / "d.gevd"
        save_detector(path, model)
        back = load_detector(path)
        assert back.kind == kind
        assert back.feature_spec == model.feature_spec
        np.testing.assert_array_equal(back.score(xm), model.score(xm))

    def test_wrong_container_rejected(self, tmp_path):
        from ganevade import checkpoint as ckpt
        path = tmp_path / "x.gevd"
        ckpt.save_container(path, {"kind": "gan"}, {})
        with pytest.raises(ckpt.CheckpointError):
            load_detector(path)
