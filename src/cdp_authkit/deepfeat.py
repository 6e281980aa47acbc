"""Template-estimating autoencoder features: x -> t_hat -> x_hat.

The encoder maps an acquired pixel image to a symbol-resolution estimate
t_hat in (0,1) via a sigmoid head; the decoder maps t_hat back to a pixel
reconstruction. Four training scenarios share the template term and add
adversarial and reconstruction terms:

    scenario 1: lambda1 * RMS(t - t_hat)
    scenario 2: scenario 1 + adversarial template term (discriminator D_t)
    scenario 3: scenario 1 + beta * lambda2 * RMS(x - x_hat)
    scenario 4: scenario 3 + both adversarial terms (D_t, and D_x scaled by beta)

Discriminators are trained by logistic loss to separate real from estimated
samples (density-ratio estimation); the generator receives the
non-saturating -log D(fake) gradient. Updates alternate one discriminator
step per generator step, the discriminator seeing the pre-update generator
outputs. All RMS norms are per-sample root-mean-square, so loss scales are
resolution independent.

Each objective has one definition, the training step (_generator_loss_and_grads,
_disc_loss_and_grads, both built on _logistic_term); gradient_check probes
the same functions with grads off, which runs the forward pass only, and
probes each discriminator on the batches of one generator pass.

Every beta-weighted computation is skipped outright when beta == 0, so
scenario 3 reproduces scenario 1 (and 4 reproduces 2) bit-for-bit on the
same seed: weight groups draw from independent named RNG streams and the
batch order stream does not depend on the scenario.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError, ParameterError, TrainingError
from .imageio import read_json, require_fields, write_json
from .nn import (
    Adam,
    Conv2d,
    Dense,
    Relu,
    Sigmoid,
    UpsampleNearest,
    chain_backward,
    chain_forward,
    chain_infer,
    sigmoid,
    softplus,
    weighted_layers,
    zero_grads,
)
from .rng import rng_for

SCENARIOS = (1, 2, 3, 4)


@dataclass
class AeConfig:
    """Training hyperparameters. Scenario is passed to train_ae separately."""

    epochs: int = 30
    batch_size: int = 16
    lr: float = 1e-3
    lambda1: float = 1.0
    lambda2: float = 1.0
    beta: float = 0.01
    channels: int = 8
    disc_hidden: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch_size must be positive")
        if self.lr <= 0 or self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ParameterError("lr, lambda1 and lambda2 must be positive")
        if self.beta < 0:
            raise ParameterError("beta must be nonnegative")
        if self.channels < 1 or self.disc_hidden < 1:
            raise ParameterError("channels and disc_hidden must be positive")


@dataclass
class AeModel:
    """Weights for one scenario plus the recorded training trace."""

    scenario: int
    n_sym: int
    symbol_px: int
    config: AeConfig
    encoder: list
    decoder: Optional[list]
    disc_t: Optional[list]
    disc_x: Optional[list]
    loss_trace: dict = field(default_factory=dict)

    @property
    def image_side(self) -> int:
        return self.n_sym * self.symbol_px

    def groups(self) -> dict:
        """Active weight groups, name -> layer list."""
        out = {"encoder": self.encoder}
        if self.decoder is not None:
            out["decoder"] = self.decoder
        if self.disc_t is not None:
            out["disc_t"] = self.disc_t
        if self.disc_x is not None:
            out["disc_x"] = self.disc_x
        return out


def build_ae_model(
    scenario: int, n_sym: int, symbol_px: int, config: AeConfig
) -> AeModel:
    """Initialize the weight groups a scenario needs, each from its own stream."""
    if scenario not in SCENARIOS:
        raise ParameterError(f"scenario must be one of {SCENARIOS}")
    c = config.channels
    spx = symbol_px
    enc_rng = rng_for(config.seed, "init", "encoder")
    encoder = [
        Conv2d(enc_rng, 1, c, k=spx + 2, stride=spx, pad=1),
        Relu(),
        Conv2d(enc_rng, c, c, k=3, stride=1, pad=1),
        Relu(),
        Conv2d(enc_rng, c, 1, k=3, stride=1, pad=1),
        Sigmoid(),
    ]
    decoder = disc_t = disc_x = None
    if scenario >= 3:
        dec_rng = rng_for(config.seed, "init", "decoder")
        decoder = [
            Conv2d(dec_rng, 1, c, k=3, stride=1, pad=1),
            Relu(),
            UpsampleNearest(spx),
            Conv2d(dec_rng, c, c, k=3, stride=1, pad=1),
            Relu(),
            Conv2d(dec_rng, c, 1, k=3, stride=1, pad=1),
        ]
    if scenario in (2, 4):
        dt_rng = rng_for(config.seed, "init", "disc_t")
        disc_t = [
            Dense(dt_rng, n_sym * n_sym, config.disc_hidden),
            Relu(),
            Dense(dt_rng, config.disc_hidden, 1),
        ]
    if scenario == 4:
        dx_rng = rng_for(config.seed, "init", "disc_x")
        side = n_sym * spx
        disc_x = [
            Dense(dx_rng, side * side, config.disc_hidden),
            Relu(),
            Dense(dx_rng, config.disc_hidden, 1),
        ]
    return AeModel(
        scenario=scenario,
        n_sym=n_sym,
        symbol_px=spx,
        config=config,
        encoder=encoder,
        decoder=decoder,
        disc_t=disc_t,
        disc_x=disc_x,
    )


def _rms_per_sample(diff: np.ndarray) -> np.ndarray:
    return np.sqrt((diff * diff).mean(axis=(1, 2, 3)))


def _rms_loss(pred: np.ndarray, target: np.ndarray, weight: float):
    """weight * mean_b RMS(pred_b - target_b) and its gradient w.r.t. pred."""
    diff = pred - target
    r = _rms_per_sample(diff)
    loss = weight * float(r.mean())
    safe = np.where(r > 0.0, r, 1.0)
    dpred = (weight / pred.shape[0]) * diff / (pred[0].size * safe[:, None, None, None])
    dpred[r == 0.0] = 0.0
    return loss, dpred


def _flatten(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1)


def _logistic_term(disc, batch: np.ndarray, real: bool, weight: float, grads: bool):
    """weight * mean softplus(-z) for real, softplus(z) for fake, z = disc(batch).

    Returns (loss, gradient w.r.t. batch); with grads off the discriminator
    keeps no cache, runs no backward and the gradient is None. With grads on,
    the discriminator's gw/gb accumulate the term's weight gradients.
    """
    z = (chain_forward if grads else chain_infer)(disc, _flatten(batch))
    loss = weight * float(softplus(-z if real else z).mean())
    if not grads:
        return loss, None
    dz = weight * (sigmoid(z) - 1.0 if real else sigmoid(z)) / z.shape[0]
    return loss, chain_backward(disc, dz).reshape(batch.shape)


def _x_side(model: AeModel) -> bool:
    """Whether the beta-weighted decoder path is active (skipped outright at beta 0)."""
    return model.decoder is not None and model.config.beta != 0.0


def _generator_loss_and_grads(
    model: AeModel, xi: np.ndarray, ti: np.ndarray, grads: bool = True
) -> tuple:
    """The generator objective; with grads on, its gradients are left in the layers.

    Returns (losses, t_hat, x_hat): the active loss terms and their "total",
    and the generator outputs (x_hat None when the x-side is off). With grads
    off the same arithmetic runs forward only: no layer keeps a cache and no
    gw/gb is touched. The discriminators' gw/gb collect junk from the
    adversarial terms when grads are on; their own step zeroes them first.
    """
    cfg = model.config
    run = chain_forward if grads else chain_infer
    if grads:
        zero_grads(model.encoder)
    t_hat = run(model.encoder, xi)
    loss_t, d_that = _rms_loss(t_hat, ti, cfg.lambda1)
    losses = {"template_rms": loss_t}

    if model.disc_t is not None:
        losses["adv_t"], d_adv = _logistic_term(model.disc_t, t_hat, True, 1.0, grads)
        if grads:
            d_that = d_that + d_adv

    x_hat = None
    if _x_side(model):
        if grads:
            zero_grads(model.decoder)
        x_hat = run(model.decoder, t_hat)
        losses["recon_rms"], d_xhat = _rms_loss(x_hat, xi, cfg.beta * cfg.lambda2)
        if model.disc_x is not None:
            losses["adv_x"], d_adv_x = _logistic_term(model.disc_x, x_hat, True, cfg.beta, grads)
            if grads:
                d_xhat = d_xhat + d_adv_x
        if grads:
            d_that = d_that + chain_backward(model.decoder, d_xhat)

    if grads:
        chain_backward(model.encoder, d_that)
    losses["total"] = sum(losses.values())
    return losses, t_hat, x_hat


def _disc_loss_and_grads(disc, real: np.ndarray, fake: np.ndarray, grads: bool = True) -> float:
    """Logistic discriminator loss on detached real/fake batches.

    With grads on, its gradients are left in disc; with grads off, disc runs
    forward only and its gw/gb are not touched.
    """
    if grads:
        zero_grads(disc)
    return (_logistic_term(disc, real, True, 1.0, grads)[0]
            + _logistic_term(disc, fake, False, 1.0, grads)[0])


def train_ae(
    images: np.ndarray,
    symbols: np.ndarray,
    scenario: int,
    config: Optional[AeConfig] = None,
) -> AeModel:
    """Train an autoencoder on original codes paired with their templates.

    Args:
        images: (N, H, W) acquired originals in [0, 1].
        symbols: (N, n_sym, n_sym) binary template symbol grids, aligned.
        scenario: 1..4, selecting the loss combination.
        config: hyperparameters; defaults are the shipped desk scale.

    Returns:
        AeModel with per-epoch loss_trace.

    Raises:
        ParameterError: bad scenario or inconsistent shapes.
        TrainingError: non-finite loss (trace attached).
    """
    cfg = config if config is not None else AeConfig()
    x = np.asarray(images, dtype=np.float64)
    t = np.asarray(symbols, dtype=np.float64)
    if x.ndim != 3 or t.ndim != 3 or x.shape[0] != t.shape[0] or x.shape[0] == 0:
        raise ParameterError("need aligned nonempty (N,H,W) images and (N,n,n) symbols")
    n_sym = t.shape[1]
    if t.shape[2] != n_sym or x.shape[1] != x.shape[2]:
        raise ParameterError("images and symbol grids must be square")
    if x.shape[1] % n_sym:
        raise ParameterError("image side must be a multiple of the symbol grid side")
    spx = x.shape[1] // n_sym

    model = build_ae_model(scenario, n_sym, spx, cfg)
    n = x.shape[0]
    xb4 = x[:, None, :, :]
    tb4 = t[:, None, :, :]
    use_x_side = _x_side(model)

    opt_enc = Adam(model.encoder, cfg.lr)
    opt_dec = Adam(model.decoder, cfg.lr) if use_x_side else None
    opt_dt = Adam(model.disc_t, cfg.lr) if model.disc_t is not None else None
    opt_dx = Adam(model.disc_x, cfg.lr) if (model.disc_x is not None and use_x_side) else None

    shuffle = rng_for(cfg.seed, "batches")
    trace: dict[str, list] = {key: [] for key in (
        "total", "template_rms", "adv_t", "recon_rms", "adv_x", "disc_t", "disc_x")}

    for _ in range(cfg.epochs):
        order = shuffle.permutation(n)
        sums = dict.fromkeys(trace, 0.0)
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xi, ti = xb4[idx], tb4[idx]
            n_batches += 1

            losses, t_hat, x_hat = _generator_loss_and_grads(model, xi, ti)
            opt_enc.step()
            if opt_dec is not None:
                opt_dec.step()

            # Discriminators train against the pre-update generator outputs.
            if opt_dt is not None:
                losses["disc_t"] = _disc_loss_and_grads(model.disc_t, ti, t_hat)
                opt_dt.step()
            if opt_dx is not None:
                losses["disc_x"] = _disc_loss_and_grads(model.disc_x, xi, x_hat)
                opt_dx.step()

            for key, value in losses.items():
                sums[key] += value

        for key, value in sums.items():
            trace[key].append(value / n_batches)
        if not math.isfinite(trace["total"][-1]):
            model.loss_trace = trace
            raise TrainingError("autoencoder loss became non-finite", trace=trace)

    model.loss_trace = trace
    return model


def encode(model: AeModel, images: np.ndarray) -> np.ndarray:
    """t_hat in (0,1) for a batch of (N, H, W) images."""
    x = np.asarray(images, dtype=np.float64)
    if x.ndim == 2:
        x = x[None]
    if x.shape[1] != model.image_side or x.shape[2] != model.image_side:
        raise DataError(f"expected {model.image_side}x{model.image_side} images")
    return chain_infer(model.encoder, x[:, None, :, :])[:, 0]


def decode(model: AeModel, t_hat: np.ndarray) -> np.ndarray:
    """x_hat clamped to [0,1] for a batch of (N, n, n) template estimates."""
    if model.decoder is None:
        raise ParameterError(f"scenario {model.scenario} has no decoder")
    t = np.asarray(t_hat, dtype=np.float64)
    if t.ndim == 2:
        t = t[None]
    out = chain_infer(model.decoder, t[:, None, :, :])[:, 0]
    return np.clip(out, 0.0, 1.0)


def extract_features_batch(
    model: AeModel, images: np.ndarray, symbols: np.ndarray
) -> dict:
    """Deep features of aligned (N,H,W) probes against their (N,n,n) template grids.

    t_hat is thresholded at 0.5 only for the Hamming count; the decoder
    consumes the continuous t_hat, as during training. x_hat is clamped to
    [0,1] before the reconstruction error. Returns a dict of per-probe
    arrays; entries the model's scenario lacks are None.
    """
    x = np.asarray(images, dtype=np.float64)
    syms = np.asarray(symbols)
    if x.shape[0] != syms.shape[0]:
        raise DataError("images and symbol grids must align")
    if syms.shape[1] != model.n_sym or syms.shape[2] != model.n_sym:
        raise DataError(f"expected {model.n_sym}x{model.n_sym} symbol grids")
    t_hat = encode(model, x)
    t_bin = (t_hat >= 0.5).astype(np.uint8)
    hamming = (t_bin != syms.astype(np.uint8)).sum(axis=(1, 2)).astype(np.int64)
    out = {
        "hamming_sym": hamming,
        "recon_l2": None,
        "disc_t_score": None,
        "disc_x_score": None,
    }
    x_hat = None
    if model.decoder is not None:
        x_hat = decode(model, t_hat)
        diff = x_hat - x
        out["recon_l2"] = np.sqrt((diff * diff).mean(axis=(1, 2)))
    if model.disc_t is not None:
        z = chain_infer(model.disc_t, _flatten(t_hat[:, None]))
        out["disc_t_score"] = sigmoid(z)[:, 0]
    if model.disc_x is not None and x_hat is not None:
        z = chain_infer(model.disc_x, _flatten(x_hat[:, None]))
        out["disc_x_score"] = sigmoid(z)[:, 0]
    return out


def _set_mask_mode(model: AeModel, mode: str) -> None:
    """Set every ReLU's mask mode and rewind its replay; other modes clear the log."""
    for layers in model.groups().values():
        for layer in layers:
            if isinstance(layer, Relu):
                layer.mask_mode = mode
                layer.replay_idx = 0
                if mode != "replay":
                    layer.mask_log = []


def gradient_check(
    model: AeModel, images: np.ndarray, symbols: np.ndarray, h: float = 1e-5
) -> float:
    """Central finite differences vs analytic gradients for every active group.

    Each objective has one definition, the training step. The analytic
    gradients are the ones train_ae hands to Adam, from a grads-on call of
    _generator_loss_and_grads or _disc_loss_and_grads; the finite-difference
    probes call the same function with grads off. Each discriminator is
    probed on the real/fake batches of the generator's analytic pass: only
    that discriminator's weights move during its probes, so the batches
    cannot change. Walks every coordinate of every weight array, so call it
    on small nets only. Returns the maximum per-group relative error
    ||g_analytic - g_fd|| / max(||g_analytic||, ||g_fd||).

    The analytic pass records the ReLU masks per forward call; the
    finite-difference probes replay them. The comparison is then between two
    views of the same smooth branch, so units that happen to sit at or near
    the kink (guaranteed at initialization, where biases are exactly zero)
    cannot flip and fake a mismatch.
    """
    x = np.asarray(images, dtype=np.float64)[:, None, :, :]
    t = np.asarray(symbols, dtype=np.float64)[:, None, :, :]
    groups = model.groups()

    def probe(objective) -> float:
        _set_mask_mode(model, "replay")  # replay from the analytic pass's first mask
        return objective()

    def group_errors(names, objective) -> float:
        # forward-only probes leave gw/gb alone, so they still hold the analytic pass
        worst = 0.0
        for name in names:
            fd_parts, an_parts = [], []
            for layer in weighted_layers(groups[name]):
                for param, grad in ((layer.w, layer.gw), (layer.b, layer.gb)):
                    fd = np.zeros_like(param)
                    flat = param.reshape(-1)
                    fd_flat = fd.reshape(-1)
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + h
                        up = probe(objective)
                        flat[i] = orig - h
                        down = probe(objective)
                        flat[i] = orig
                        fd_flat[i] = (up - down) / (2.0 * h)
                    fd_parts.append(fd.ravel())
                    an_parts.append(grad.ravel())
            fd_vec = np.concatenate(fd_parts)
            an_vec = np.concatenate(an_parts)
            denom = max(np.linalg.norm(an_vec), np.linalg.norm(fd_vec), 1e-12)
            worst = max(worst, float(np.linalg.norm(an_vec - fd_vec) / denom))
        return worst

    _set_mask_mode(model, "record")
    _, t_hat, x_hat = _generator_loss_and_grads(model, x, t)
    worst = group_errors(
        ("encoder", "decoder") if _x_side(model) else ("encoder",),
        lambda: _generator_loss_and_grads(model, x, t, grads=False)[0]["total"],
    )
    for name, real, fake in (("disc_t", t, t_hat), ("disc_x", x, x_hat)):
        if name in groups and fake is not None:
            disc = groups[name]
            _set_mask_mode(model, "record")
            _disc_loss_and_grads(disc, real, fake)
            worst = max(worst, group_errors(
                (name,), lambda: _disc_loss_and_grads(disc, real, fake, grads=False)))
    _set_mask_mode(model, "normal")
    return worst


def save_ae(model: AeModel, path: str | Path) -> None:
    groups = {}
    for name, layers in model.groups().items():
        groups[name] = [
            {"w": layer.w.tolist(), "b": layer.b.tolist()}
            for layer in weighted_layers(layers)
        ]
    write_json(
        path,
        {
            "kind": "ae",
            "scenario": model.scenario,
            "n_sym": model.n_sym,
            "symbol_px": model.symbol_px,
            "config": asdict(model.config),
            "groups": groups,
            "loss_trace": model.loss_trace,
        },
    )


def load_ae(path: str | Path) -> AeModel:
    obj = read_json(path)
    if not isinstance(obj, dict) or obj.get("kind") != "ae":
        raise DataError(f"{path}: not an autoencoder model file")
    require_fields(obj, path, "config", "scenario", "n_sym", "symbol_px", "groups")
    cfg = AeConfig(**obj["config"])
    model = build_ae_model(int(obj["scenario"]), int(obj["n_sym"]), int(obj["symbol_px"]), cfg)
    for name, layers in model.groups().items():
        stored = obj["groups"].get(name, ())
        weighted = weighted_layers(layers)
        if len(stored) != len(weighted):
            raise DataError(f"{path}: group {name} has unexpected layer count")
        for layer, entry in zip(weighted, stored):
            w = np.asarray(entry["w"], dtype=np.float64)
            b = np.asarray(entry["b"], dtype=np.float64)
            if w.shape != layer.w.shape or b.shape != layer.b.shape:
                raise DataError(f"{path}: group {name} has unexpected weight shapes")
            layer.w = w
            layer.b = b
    model.loss_trace = obj.get("loss_trace", {})
    return model
