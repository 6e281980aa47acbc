"""Multiclass MLP classifier and the MI lower bound."""

import json
import math

import numpy as np
import pytest

from cdp_authkit import checks, experiment
from cdp_authkit.errors import DataError, TrainingError
from cdp_authkit.experiment import run_experiment
from cdp_authkit.nn import Dense, Relu
from cdp_authkit.rng import rng_for
from cdp_authkit.supervised import (
    TrainConfig,
    _ce_loss_and_grads,
    estimate_mi_lower_bound,
    images_to_features,
    load_classifier,
    pool_image,
    predict,
    save_classifier,
    train_classifier,
)

from conftest import same_weights


def _blobs(rng, n_per_class, centers, spread=0.4):
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(rng.normal(size=(n_per_class, len(center))) * spread + center)
        ys.append(np.full(n_per_class, label))
    return np.vstack(xs), np.concatenate(ys)


def test_train_separable_blobs():
    rng = rng_for(0, "blobs")
    centers = [(0, 0), (4, 0), (0, 4)]
    x, y = _blobs(rng, 40, centers)
    cfg = TrainConfig(epochs=60, hidden=16, seed=1)
    model = train_classifier(x, y, n_classes=3, config=cfg)
    # trace[0] averages over the first epoch, already below the ln K start
    assert model.loss_trace[0] < math.log(3)
    assert model.final_loss < 0.1
    xt, yt = _blobs(rng, 30, centers)
    pred, logp = predict(model, xt)
    assert float(np.mean(pred == yt)) >= 0.95
    assert logp.shape == (90, 3)
    assert np.allclose(np.exp(logp).sum(axis=1), 1.0, atol=1e-9)


def test_training_determinism():
    rng = rng_for(1, "det")
    x, y = _blobs(rng, 20, [(0, 0), (3, 3)])
    cfg = TrainConfig(epochs=5, hidden=8, seed=4)
    a = train_classifier(x, y, n_classes=2, config=cfg)
    b = train_classifier(x, y, n_classes=2, config=cfg)
    assert a.final_loss == b.final_loss
    assert same_weights(a.layers, b.layers)


def test_train_validation():
    rng = rng_for(2, "val")
    x, y = _blobs(rng, 10, [(0, 0), (3, 3)])
    with pytest.raises(DataError):
        train_classifier(x, y, n_classes=3, config=TrainConfig(epochs=1))  # class 2 empty
    with pytest.raises(DataError):
        train_classifier(x[:1], y[:1], n_classes=2, config=TrainConfig(epochs=1))


def test_zero_init_output_starts_at_uniform_loss():
    rng = rng_for(7, "init")
    x = rng.random((20, 4))
    y = rng.integers(0, 5, 20)
    layers = [
        Dense(rng_for(7, "h"), 4, 16), Relu(), Dense(rng_for(7, "o"), 16, 5, zero_init=True)
    ]
    # zero output weights give uniform class probabilities: CE is exactly ln K
    assert _ce_loss_and_grads(layers, x, y) == pytest.approx(
        math.log(5), abs=1e-12
    )


def test_huge_learning_rate_raises_training_error_with_trace():
    rng = rng_for(3, "diverge")
    x, y = _blobs(rng, 20, [(0, 0), (3, 3), (0, 3)])
    with pytest.raises(TrainingError, match="training diverged") as info:
        train_classifier(x, y, n_classes=3, config=TrainConfig(epochs=5, hidden=8, lr=1e8))
    trace = info.value.trace
    assert len(trace) == 5 and math.isfinite(trace[-1]) and trace[-1] > 2 * math.log(3)


def test_a_run_that_learns_nothing_is_not_a_divergence(small_dataset, monkeypatch):
    # run 0 of root seed 104 trains a binary classifier that ends just above
    # ln 2: a chance-level result the report must carry, not an error
    ratios = []

    def recording(*args, **kwargs):
        model = train_classifier(*args, **kwargs)
        ratios.append(model.final_loss / math.log(model.n_classes))
        return model

    monkeypatch.setattr(experiment, "train_classifier", recording)
    run_experiment(small_dataset, "supervised-binary-per-fake", runs=1, seed=104)
    assert 1.0 < max(ratios) < 2.0


def test_hidden_layer_gradient_matches_finite_differences():
    checks.supervised_gradient((3,), 12)


def test_skipped_input_gradient_changes_no_weight_gradient_or_model_byte(
    tmp_path, monkeypatch
):
    """_ce_loss_and_grads skips the hidden layer's input gradient; forcing it back
    on must leave every gw/gb and the saved classifier bytes unchanged."""
    rng = rng_for(8, "skip")
    x, y = _blobs(rng, 20, [(0, 0, 0), (3, 3, 0), (0, 3, 3)])
    cfg = TrainConfig(epochs=4, hidden=8, seed=5)

    def run():
        layers = [Dense(rng_for(8, "h"), 3, 8), Relu(), Dense(rng_for(8, "o"), 8, 3)]
        loss = _ce_loss_and_grads(layers, x[:16], y[:16])
        save_classifier(train_classifier(x, y, n_classes=3, config=cfg), tmp_path / "clf.json")
        return loss, layers[0], layers[2], (tmp_path / "clf.json").read_bytes()

    skipped = run()
    full_backward = Dense.backward
    monkeypatch.setattr(Dense, "backward", lambda self, dout, input_grad=True: full_backward(self, dout))
    full = run()
    assert skipped[0] == full[0]
    for a, b in zip(skipped[1:3], full[1:3]):
        assert np.array_equal(a.gw, b.gw) and np.array_equal(a.gb, b.gb)
    assert skipped[3] == full[3]


def test_pooling_and_feature_shapes():
    rng = rng_for(4, "pool")
    img = rng.random((64, 64))
    pooled = pool_image(img)
    assert pooled.shape == (32, 32)
    assert pooled[0, 0] == pytest.approx(img[:2, :2].mean())
    small = rng.random((12, 12))
    assert np.array_equal(pool_image(small), small)
    feats = images_to_features([img, rng.random((64, 64))])
    assert feats.shape == (2, 1024)


def test_mi_bound_reference_values():
    y = np.array([0, 1] * 50)
    perfect = np.full((100, 2), -np.inf)
    perfect[np.arange(100), y] = 0.0
    est = estimate_mi_lower_bound(y, perfect)
    assert est.finite
    assert abs(est.lower_bound - math.log(2)) <= 1e-9
    uniform = np.full((100, 2), math.log(0.5))
    assert abs(estimate_mi_lower_bound(y, uniform).lower_bound - 0.0) <= 1e-9


def test_mi_bound_never_exceeds_class_entropy():
    rng = rng_for(5, "mi")
    for _ in range(300):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k, 50))
        labels = rng.integers(0, k, n)
        p = rng.random((n, k)) + 1e-12
        p /= p.sum(axis=1, keepdims=True)
        est = estimate_mi_lower_bound(labels, np.log(p))
        assert est.lower_bound <= est.h_c + 1e-12


def test_mi_bound_flags_zero_probability():
    y = np.array([0, 1])
    logp = np.array([[0.0, -np.inf], [-np.inf, 0.0]])
    logp[1] = [0.0, -np.inf]  # true class 1 assigned probability zero
    est = estimate_mi_lower_bound(y, logp)
    assert not est.finite
    assert est.lower_bound == -np.inf
    assert est.h_c_given_a == np.inf


def test_save_load_roundtrip(tmp_path):
    rng = rng_for(6, "persist")
    x, y = _blobs(rng, 25, [(0, 0), (3, 0), (0, 3)])
    model = train_classifier(
        x, y, n_classes=3, config=TrainConfig(epochs=8, hidden=8, seed=2),
        class_names=("a", "b", "c"),
    )
    save_classifier(model, tmp_path / "clf.json")
    back = load_classifier(tmp_path / "clf.json")
    probes = rng.random((10, 2))
    pa, la = predict(model, probes)
    pb, lb = predict(back, probes)
    assert np.array_equal(pa, pb)
    assert np.array_equal(la, lb)
    assert back.class_names == model.class_names
    assert same_weights(back.layers, model.layers)
    # train and load build the same layer list; a re-save keeps every byte
    assert [type(layer) for layer in back.layers] == [type(layer) for layer in model.layers]
    save_classifier(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "clf.json").read_bytes()
    # weights that do not fit the stored config are rejected
    obj = json.loads((tmp_path / "clf.json").read_text())
    obj["config"]["hidden"] = 9
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    with pytest.raises(DataError, match="w1/b1"):
        load_classifier(tmp_path / "bad.json")
