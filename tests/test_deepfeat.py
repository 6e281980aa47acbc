"""Autoencoder scenarios: training, collapse identities, gradients, features."""

import tracemalloc

import numpy as np
import pytest

from cdp_authkit.checks import gradient_check, toy_batch
from cdp_authkit import deepfeat
from cdp_authkit.deepfeat import (
    SCENARIOS,
    AeConfig,
    _disc_loss_and_grads,
    _generator_loss_and_grads,
    _logistic_term,
    build_ae_model,
    decode,
    encode,
    extract_features_batch,
    load_ae,
    save_ae,
    train_ae,
)
from cdp_authkit.errors import DataError, ParameterError, TrainingError
from cdp_authkit.nn import weighted_layers

from conftest import same_weights

TINY = dict(batch_size=4, channels=2, disc_hidden=4)


def test_config_validation():
    with pytest.raises(ParameterError):
        AeConfig(epochs=0)
    with pytest.raises(ParameterError):
        AeConfig(lr=0.0)
    with pytest.raises(ParameterError):
        AeConfig(lambda1=0.0)
    with pytest.raises(ParameterError):
        AeConfig(beta=-0.01)
    with pytest.raises(ParameterError):
        AeConfig(channels=0)


def test_scenario_weight_groups():
    cfg = AeConfig(**TINY)
    expected = {
        1: {"encoder"},
        2: {"encoder", "disc_t"},
        3: {"encoder", "decoder"},
        4: {"encoder", "decoder", "disc_t", "disc_x"},
    }
    for scenario, groups in expected.items():
        model = build_ae_model(scenario, 4, 3, cfg)
        assert set(model.groups()) == groups
    with pytest.raises(ParameterError):
        build_ae_model(5, 4, 3, cfg)


def test_training_traces_follow_scenario():
    images, symbols = toy_batch((0,), 8)
    for scenario in (1, 2, 3, 4):
        model = train_ae(images, symbols, scenario, AeConfig(epochs=3, seed=1, **TINY))
        trace = model.loss_trace
        assert len(trace["total"]) == 3
        assert all(np.isfinite(trace["total"]))
        assert any(v != 0 for v in trace["template_rms"])
        assert (scenario in (2, 4)) == any(v != 0 for v in trace["adv_t"])
        assert (scenario in (3, 4)) == any(v != 0 for v in trace["recon_rms"])
        assert (scenario == 4) == any(v != 0 for v in trace["adv_x"])


def test_huge_learning_rate_raises_training_error_with_trace():
    images, symbols = toy_batch((0,), 8)
    with pytest.raises(TrainingError, match="training diverged") as info:
        train_ae(images, symbols, 3, AeConfig(epochs=3, seed=1, lr=1e12, **TINY))
    trace = info.value.trace
    assert isinstance(trace, dict) and len(trace["total"]) == 3
    # the untrained total is about 0.5 (the message names it); a blow-up ends far above
    assert np.isfinite(trace["total"][-1]) and trace["total"][-1] > 1e6


def test_training_learns_template_recovery():
    images, symbols = toy_batch((1,), 16)
    model = train_ae(images, symbols, 1, AeConfig(epochs=40, seed=0, **TINY))
    trace = model.loss_trace["template_rms"]
    assert trace[-1] < trace[0] * 0.7
    feats = extract_features_batch(model, images, symbols)
    assert feats["hamming_sym"].mean() <= 2.0  # mostly recovered symbols


def test_training_determinism():
    images, symbols = toy_batch((2,), 8)
    cfg = AeConfig(epochs=2, seed=5, **TINY)
    a = train_ae(images, symbols, 4, cfg)
    b = train_ae(images, symbols, 4, cfg)
    for name in a.groups():
        assert same_weights(a.groups()[name], b.groups()[name])
    assert a.loss_trace == b.loss_trace


def test_shape_validation():
    images, symbols = toy_batch((3,), 8)
    with pytest.raises(ParameterError):
        train_ae(images[:4], symbols[:3], 1, AeConfig(epochs=1, **TINY))
    with pytest.raises(ParameterError):
        train_ae(images[:, :11, :], symbols, 1, AeConfig(epochs=1, **TINY))
    with pytest.raises(ParameterError):
        train_ae(images, symbols, 0, AeConfig(epochs=1, **TINY))


def test_beta_zero_collapses_to_base_scenarios():
    images, symbols = toy_batch((4,), 8)
    for base, extended in ((1, 3), (2, 4)):
        cfg0 = AeConfig(epochs=10, seed=3, beta=0.0, **TINY)
        cfg = AeConfig(epochs=10, seed=3, **TINY)
        plain = train_ae(images, symbols, base, cfg)
        collapsed = train_ae(images, symbols, extended, cfg0)
        rich = train_ae(images, symbols, extended, cfg)
        # bit-identical shared groups when the x-side is weighted to zero
        for name in plain.groups():
            assert same_weights(plain.groups()[name], collapsed.groups()[name])
        assert plain.loss_trace["template_rms"] == collapsed.loss_trace["template_rms"]
        # and genuinely different when beta participates
        assert not same_weights(plain.encoder, rich.encoder)


def test_gradient_check_all_scenarios():
    images, symbols = toy_batch((5,), 4)
    for scenario in (1, 2, 3, 4):
        model = build_ae_model(scenario, 4, 3, AeConfig(seed=scenario, **TINY))
        assert gradient_check(model, images[:4], symbols[:4]) < 1e-4


def _grad_bytes(model):
    return [(layer.gw.tobytes(), layer.gb.tobytes())
            for layers in model.groups().values() for layer in weighted_layers(layers)]


def _cached_layers(model):
    return [layer for layers in model.groups().values() for layer in layers
            if layer._cache is not None]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_forward_only_objectives_match_training_step(scenario):
    """grads=False gives the grads-on losses and leaves no gradient or cache behind."""
    images, symbols = toy_batch((10,), 4)
    x = images[:, None].astype(np.float64)
    t = symbols[:, None].astype(np.float64)
    model = train_ae(images, symbols, scenario, AeConfig(epochs=1, seed=scenario, beta=0.5, **TINY))
    losses, t_hat, x_hat = _generator_loss_and_grads(model, x, t)
    disc_batches = [(d, real, fake) for d, real, fake in
                    ((model.disc_t, t, t_hat), (model.disc_x, x, x_hat)) if d is not None]
    disc_losses = [_disc_loss_and_grads(*batch) for batch in disc_batches]
    grads = _grad_bytes(model)
    assert _cached_layers(model)

    assert _generator_loss_and_grads(model, x, t, grads=False)[0] == losses
    assert [_disc_loss_and_grads(*batch, grads=False) for batch in disc_batches] == disc_losses
    assert _grad_bytes(model) == grads
    assert not _cached_layers(model)


@pytest.mark.parametrize("name", ["disc_t", "disc_x"])
def test_disc_gradients_are_the_real_term_plus_the_fake_term(name):
    """Each backward writes gw/gb, so the discriminator step adds its two
    terms' gradients itself: bit for bit real-term plus fake-term."""
    images, symbols = toy_batch((12,), 4)
    x = images[:, None].astype(np.float64)
    t = symbols[:, None].astype(np.float64)
    model = build_ae_model(4, 4, 3, AeConfig(seed=5, **TINY))
    _, t_hat, x_hat = _generator_loss_and_grads(model, x, t)
    disc, real, fake = (model.disc_t, t, t_hat) if name == "disc_t" else (model.disc_x, x, x_hat)
    terms, grads = [], []
    for batch, is_real in ((real, True), (fake, False)):
        terms.append(_logistic_term(disc, batch, is_real, 1.0, True, input_grad=False)[0])
        grads.append([(layer.gw.copy(), layer.gb.copy()) for layer in weighted_layers(disc)])
    assert _disc_loss_and_grads(disc, real, fake) == terms[0] + terms[1]
    for layer, (real_gw, real_gb), (fake_gw, fake_gb) in zip(weighted_layers(disc), *grads):
        assert layer.gw.tobytes() == (real_gw + fake_gw).tobytes()
        assert layer.gb.tobytes() == (real_gb + fake_gb).tobytes()


def test_encode_decode_shapes_and_ranges():
    images, symbols = toy_batch((6,), 8)
    model = train_ae(images, symbols, 3, AeConfig(epochs=2, seed=0, **TINY))
    t_hat = encode(model, images)
    assert t_hat.shape == (8, 4, 4)
    assert (t_hat > 0).all() and (t_hat < 1).all()  # sigmoid output
    x_hat = decode(model, t_hat)
    assert x_hat.shape == (8, 12, 12)
    assert x_hat.min() >= 0.0 and x_hat.max() <= 1.0
    no_decoder = train_ae(images, symbols, 1, AeConfig(epochs=1, seed=0, **TINY))
    with pytest.raises(ParameterError):
        decode(no_decoder, t_hat)
    with pytest.raises(DataError):
        encode(model, np.zeros((2, 10, 10)))


def test_features_follow_scenario():
    images, symbols = toy_batch((7,), 8)
    for scenario in (1, 2, 3, 4):
        model = train_ae(images, symbols, scenario, AeConfig(epochs=1, seed=2, **TINY))
        feats = extract_features_batch(model, images, symbols)
        assert set(feats) == {"hamming_sym", "recon_l2"}
        assert feats["hamming_sym"].dtype == np.int64
        has_recon = scenario >= 3  # only scenarios 3 and 4 have a decoder
        assert (feats["recon_l2"] is not None) == has_recon
        if has_recon:
            assert (feats["recon_l2"] >= 0).all()


@pytest.mark.parametrize("scenario", (1, 3))
def test_features_do_not_depend_on_chunking(scenario):
    # two full chunks of batch_size probes and a short one of 3
    cfg = AeConfig(epochs=1, seed=scenario, **TINY)
    n = 2 * cfg.batch_size + 3
    images, symbols = toy_batch((11,), n)
    model = train_ae(images, symbols, scenario, cfg)
    feats = extract_features_batch(model, images, symbols)
    assert feats["hamming_sym"].shape == (n,)
    for i in range(n):
        alone = extract_features_batch(model, images[i : i + 1], symbols[i : i + 1])
        assert np.array_equal(feats["hamming_sym"][i : i + 1], alone["hamming_sym"]), i
        if scenario == 1:
            assert feats["recon_l2"] is None and alone["recon_l2"] is None
        else:
            assert np.array_equal(feats["recon_l2"][i : i + 1], alone["recon_l2"]), i


def _extract_peak_bytes(model, images, symbols) -> int:
    """Peak bytes traced during one extraction, above what was live before it.

    The probes are stacked before the call, so only the arrays the call makes
    (layer activations, per-probe results) count.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        extract_features_batch(model, images, symbols)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_extraction_memory_is_bounded_by_the_batch():
    cfg = AeConfig(seed=0)
    model = build_ae_model(3, 4, 3, cfg)
    images, symbols = toy_batch((12,), 4 * cfg.batch_size)
    one_batch = _extract_peak_bytes(model, images[: cfg.batch_size], symbols[: cfg.batch_size])
    four_batches = _extract_peak_bytes(model, images, symbols)
    assert four_batches <= 1.5 * one_batch, (four_batches, one_batch)


def _held_scratch_bytes(model) -> int:
    """Bytes of the Workspace arrays and backward caches that a model's layers keep."""
    held = 0
    for layers in model.groups().values():
        for layer in layers:
            work = getattr(layer, "_work", None)
            held += sum(a.nbytes for a in work._arrays.values()) if work else 0
            held += getattr(layer._cache, "nbytes", 0)
    return held


@pytest.mark.parametrize("scenario", [3, 4])
def test_a_model_handed_back_holds_no_scratch(tmp_path, monkeypatch, scenario):
    """train_ae and extract_features_batch drop their layers' scratch when they
    return; the same calls with the drop switched off give the same bits."""
    images, symbols = toy_batch((13,), 8)
    cfg = AeConfig(epochs=1, seed=2, **TINY)

    def run(tag):
        model = train_ae(images, symbols, scenario, cfg)
        after_train = _held_scratch_bytes(model)
        feats = extract_features_batch(model, images, symbols)
        path = tmp_path / f"{tag}.json"
        save_ae(model, path)
        return after_train, _held_scratch_bytes(model), feats, path.read_bytes()

    dropped = run("dropped")
    monkeypatch.setattr(deepfeat, "drop_scratch", lambda layers: None)
    kept = run("kept")
    assert dropped[:2] == (0, 0) and min(kept[:2]) > 0, (dropped[:2], kept[:2])
    for key, value in dropped[2].items():
        assert np.array_equal(value, kept[2][key]), key
    assert dropped[3] == kept[3]


def test_save_load_roundtrip(tmp_path):
    images, symbols = toy_batch((9,), 8)
    model = train_ae(images, symbols, 4, AeConfig(epochs=2, seed=6, **TINY))
    save_ae(model, tmp_path / "ae.json")
    back = load_ae(tmp_path / "ae.json")
    assert back.scenario == 4 and back.n_sym == 4 and back.symbol_px == 3
    # extract_features_batch reads no discriminator, so compare every group's weights
    groups, back_groups = model.groups(), back.groups()
    assert groups.keys() == back_groups.keys()
    for name, layers in groups.items():
        assert same_weights(layers, back_groups[name]), name
    a = extract_features_batch(model, images, symbols)
    b = extract_features_batch(back, images, symbols)
    for key, value in a.items():
        assert np.array_equal(value, b[key])
