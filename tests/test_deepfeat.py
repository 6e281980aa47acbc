"""Autoencoder scenarios: training, collapse identities, gradients, features."""

import numpy as np
import pytest

from cdp_authkit.checks import toy_batch
from cdp_authkit.deepfeat import (
    SCENARIOS,
    AeConfig,
    _disc_loss_and_grads,
    _generator_loss_and_grads,
    build_ae_model,
    decode,
    encode,
    extract_features_batch,
    gradient_check,
    load_ae,
    save_ae,
    train_ae,
)
from cdp_authkit.errors import DataError, ParameterError
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
    presence = {
        1: (False, False, False),
        2: (False, True, False),
        3: (True, False, False),
        4: (True, True, True),
    }
    for scenario, (has_recon, has_dt, has_dx) in presence.items():
        model = train_ae(images, symbols, scenario, AeConfig(epochs=1, seed=2, **TINY))
        feats = extract_features_batch(model, images, symbols)
        assert feats["hamming_sym"].dtype == np.int64
        assert (feats["recon_l2"] is not None) == has_recon
        assert (feats["disc_t_score"] is not None) == has_dt
        assert (feats["disc_x_score"] is not None) == has_dx
        if has_recon:
            assert (feats["recon_l2"] >= 0).all()
        if has_dt:
            assert ((feats["disc_t_score"] > 0) & (feats["disc_t_score"] < 1)).all()


def test_save_load_roundtrip(tmp_path):
    images, symbols = toy_batch((9,), 8)
    model = train_ae(images, symbols, 4, AeConfig(epochs=2, seed=6, **TINY))
    save_ae(model, tmp_path / "ae.json")
    back = load_ae(tmp_path / "ae.json")
    assert back.scenario == 4 and back.n_sym == 4 and back.symbol_px == 3
    a = extract_features_batch(model, images, symbols)
    b = extract_features_batch(back, images, symbols)
    for key, value in a.items():
        assert np.array_equal(value, b[key])
