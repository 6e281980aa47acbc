"""Multiclass MLP classifier and the MI lower bound."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from cdp_authkit import checks, experiment, supervised
from cdp_authkit.errors import DataError, TrainingError
from cdp_authkit.experiment import run_experiment
from cdp_authkit.nn import Dense, Relu, chain_infer, train_epochs
from references import classifier_forward_by_hand, classifier_step_by_hand, train_classifier_by_hand
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


def test_classifier_gradients_match_finite_differences():
    checks.supervised_gradient((3,), 12)


def _layers(seed, d_in=6, hidden=16, n_classes=4):
    """Classifier layers with random output weights and hidden biases, so
    some hidden units are dead and every gradient term is live."""
    layers = [Dense(rng_for(seed, "h"), d_in, hidden), Relu(),
              Dense(rng_for(seed, "o"), hidden, n_classes)]
    layers[0].b[:] = rng_for(seed, "b").normal(size=hidden)
    return layers


def _nan_grads(layers):
    for layer in (layers[0], layers[2]):
        layer.gw[:] = np.nan
        layer.gb[:] = np.nan
    return layers


def _same_bits(a, b) -> bool:
    return a.tobytes() == b.tobytes()


def test_chain_step_matches_the_hand_written_step_bit_for_bit():
    """_ce_loss_and_grads, nn's layer chain with the input gradient off, is the
    hand-derived step bit for bit; gradients pre-filled with NaN show that it
    writes every entry. A full, a short and a one-row batch."""
    rng = rng_for(9, "fused")
    x, y = _blobs(rng, 20, [(0,) * 6, (2,) * 6, (0, 2) * 3, (2, 0) * 3])
    for seed, rows in ((1, slice(0, 32)), (2, slice(32, 39)), (3, slice(39, 40))):
        xb, yb = x[rows], y[rows]
        hand, chain = _layers(seed), _nan_grads(_layers(seed))
        assert classifier_step_by_hand(hand, xb, yb) == _ce_loss_and_grads(chain, xb, yb)
        for a, b in ((hand[0], chain[0]), (hand[2], chain[2])):
            assert _same_bits(a.gw, b.gw) and _same_bits(a.gb, b.gb)


def test_predict_logits_equal_chain_infer():
    rng = rng_for(10, "predict")
    layers = _layers(4)
    x = rng.normal(size=(50, 6))
    assert _same_bits(classifier_forward_by_hand(layers, x)[1], chain_infer(layers, x))
    model = supervised.ClassifierModel(layers, 4, tuple("abcd"), TrainConfig(hidden=16))
    pred, logp = predict(model, x)
    logits = chain_infer(layers, x)
    assert np.array_equal(pred, np.argmax(logits, axis=1))
    shifted = logits - logits.max(axis=1, keepdims=True)
    assert _same_bits(logp, shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))


def _trained_bytes(train, tmp_path, x, y, cfg) -> bytes:
    save_classifier(train(x, y, 3, cfg), tmp_path / "clf.json")
    return (tmp_path / "clf.json").read_bytes()


def test_trained_model_bytes_equal_the_hand_written_sgd(tmp_path):
    # 70 rows in batches of 32 end each epoch with a short batch of 6
    rng = rng_for(11, "sgd")
    x, y = _blobs(rng, 23, [(0, 0, 0), (3, 3, 0), (0, 3, 3)])
    x, y = np.vstack([x, x[:1]]), np.append(y, y[0])
    cfg = TrainConfig(epochs=6, hidden=8, seed=5)
    assert _trained_bytes(train_classifier, tmp_path, x, y, cfg) == _trained_bytes(
        train_classifier_by_hand, tmp_path, x, y, cfg)


def test_skipped_input_gradient_changes_no_weight_gradient_or_model_byte(
    tmp_path, monkeypatch
):
    """The step never forms the hidden layer's input gradient; with that
    gradient forced back on it must still give the hand-derived gw/gb and the
    same saved classifier bytes."""
    rng = rng_for(8, "skip")
    x, y = _blobs(rng, 20, [(0, 0, 0), (3, 3, 0), (0, 3, 3)])
    cfg = TrainConfig(epochs=4, hidden=8, seed=5)
    full_backward = Dense.backward
    monkeypatch.setattr(Dense, "backward",
                        lambda self, dout, input_grad=True: full_backward(self, dout))
    chain, hand = _layers(8, 3, 8, 3), _layers(8, 3, 8, 3)
    xb, yb = x[:16], y[:16]
    assert _ce_loss_and_grads(chain, xb, yb) == classifier_step_by_hand(hand, xb, yb)
    for a, b in ((chain[0], hand[0]), (chain[2], hand[2])):
        assert _same_bits(a.gw, b.gw) and _same_bits(a.gb, b.gb)
    assert _trained_bytes(train_classifier, tmp_path, x, y, cfg) == _trained_bytes(
        train_classifier_by_hand, tmp_path, x, y, cfg)


def test_classifier_steps_allocate_no_weight_sized_array(monkeypatch):
    """Guard against the temporaries of the layer-chain step coming back:
    w -= lr * gw and gw += x.T @ dout each allocate an array the size of the
    hidden weights. tracemalloc sees numpy's allocations; a step's peak above
    what was live before it must stay below one hidden weight matrix."""
    rng = rng_for(12, "alloc")
    x, y = _blobs(rng, 24, [np.zeros(256), np.full(256, 1.0), np.full(256, -1.0)], spread=1.0)
    cfg = TrainConfig(epochs=1, batch_size=16, hidden=32, seed=3)
    peaks = []

    def traced_epochs(n, epochs, batch_size, seed, step, **kwargs):
        def traced_step(idx):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = step(idx)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return result

        return train_epochs(n, epochs, batch_size, seed, traced_step, **kwargs)

    monkeypatch.setattr(supervised, "train_epochs", traced_epochs)
    tracemalloc.start()
    try:
        model = train_classifier(x, y, n_classes=3, config=cfg)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 5  # 72 rows in batches of 16
    assert max(peaks) < model.layers[0].w.nbytes, (peaks, model.layers[0].w.nbytes)


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
    assert math.isfinite(est.lower_bound)
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
    assert not math.isfinite(est.lower_bound)
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
