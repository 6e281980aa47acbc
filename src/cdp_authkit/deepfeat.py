"""Template-estimating autoencoder features: x -> t_hat -> x_hat.

The encoder maps an acquired pixel image to a symbol-resolution estimate
t_hat in (0,1) via a sigmoid head; the decoder maps t_hat back to a pixel
reconstruction: a 3x3 conv to `channels` planes and a ReLU at symbol
resolution, a 3x3 conv applied after a nearest symbol_px-fold upsample
(one nn.Conv2d with upsample=symbol_px, run as a sub-pixel conv at symbol
resolution) and a ReLU, then a 3x3 conv to one plane at pixel resolution.
Four training scenarios share the template term and add
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
_disc_loss_and_grads, both built on _logistic_term). The gradient check,
`checks.gradient_check`, probes the same functions with grads off, which
runs the forward pass only, and probes each discriminator on the batches of
one generator pass.

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

from .errors import DataError, ParameterError
from .imageio import array_field, config_field, int_field, read_json, require_fields, write_json
from .nn import (
    Adam,
    Conv2d,
    Dense,
    Relu,
    Sigmoid,
    chain_backward,
    chain_forward,
    chain_infer,
    drop_scratch,
    sigmoid,
    softplus,
    train_epochs,
    weighted_layers,
)
from .rng import rng_for

SCENARIOS = (1, 2, 3, 4)
TRACE_KEYS = ("total", "template_rms", "adv_t", "recon_rms", "adv_x", "disc_t", "disc_x")


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
        if not all(0 < v < math.inf for v in (self.lr, self.lambda1, self.lambda2)):
            raise ParameterError("lr, lambda1 and lambda2 must be positive and finite")
        if not 0 <= self.beta < math.inf:
            raise ParameterError("beta must be nonnegative and finite")
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
        named = {"encoder": self.encoder, "decoder": self.decoder,
                 "disc_t": self.disc_t, "disc_x": self.disc_x}
        return {name: layers for name, layers in named.items() if layers is not None}


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
            Conv2d(dec_rng, c, c, k=3, stride=1, pad=1, upsample=spx),
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


def _rms_loss(pred: np.ndarray, target: np.ndarray, weight: float, grads: bool):
    """weight * mean_b RMS(pred_b - target_b) and its gradient w.r.t. pred (None with grads off)."""
    diff = pred - target
    r = _rms_per_sample(diff)
    loss = weight * float(r.mean())
    if not grads:
        return loss, None
    safe = np.where(r > 0.0, r, 1.0)
    dpred = (weight / pred.shape[0]) * diff / (pred[0].size * safe[:, None, None, None])
    dpred[r == 0.0] = 0.0
    return loss, dpred


def _flatten(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1)


def _logistic_term(disc, batch: np.ndarray, real: bool, weight: float, grads: bool,
                   input_grad: bool = True):
    """weight * mean softplus(-z) for real, softplus(z) for fake, z = disc(batch).

    Returns (loss, gradient w.r.t. batch); with grads off the discriminator
    keeps no cache, runs no backward and the gradient is None. With grads on,
    the term's weight gradients are written into the discriminator's gw/gb;
    the gradient w.r.t. batch is None when input_grad is off.
    """
    z = (chain_forward if grads else chain_infer)(disc, _flatten(batch))
    loss = weight * float(softplus(-z if real else z).mean())
    if not grads:
        return loss, None
    dz = weight * (sigmoid(z) - 1.0 if real else sigmoid(z)) / z.shape[0]
    dbatch = chain_backward(disc, dz, input_grad)
    return loss, None if dbatch is None else dbatch.reshape(batch.shape)


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
    gw/gb is touched. The adversarial terms leave junk in the discriminators'
    gw/gb when grads are on; their own step overwrites it.
    """
    cfg = model.config
    run = chain_forward if grads else chain_infer
    t_hat = run(model.encoder, xi)
    loss_t, d_that = _rms_loss(t_hat, ti, cfg.lambda1, grads)
    losses = {"template_rms": loss_t}

    if model.disc_t is not None:
        losses["adv_t"], d_adv = _logistic_term(model.disc_t, t_hat, True, 1.0, grads)
        if grads:
            d_that = d_that + d_adv

    x_hat = None
    if _x_side(model):
        x_hat = run(model.decoder, t_hat)
        losses["recon_rms"], d_xhat = _rms_loss(x_hat, xi, cfg.beta * cfg.lambda2, grads)
        if model.disc_x is not None:
            losses["adv_x"], d_adv_x = _logistic_term(model.disc_x, x_hat, True, cfg.beta, grads)
            if grads:
                d_xhat = d_xhat + d_adv_x
        if grads:
            d_that = d_that + chain_backward(model.decoder, d_xhat)

    if grads:  # the encoder's input is data: its gradient is not wanted
        chain_backward(model.encoder, d_that, input_grad=False)
    losses["total"] = sum(losses.values())
    return losses, t_hat, x_hat


def _disc_loss_and_grads(disc, real: np.ndarray, fake: np.ndarray, grads: bool = True) -> float:
    """Logistic discriminator loss on detached real/fake batches.

    With grads on, its weight gradients, the real term's plus the fake
    term's, are left in disc (no input gradient is computed); with grads
    off, disc runs forward only and its gw/gb are not touched.
    """
    weighted = weighted_layers(disc)
    loss = _logistic_term(disc, real, True, 1.0, grads, input_grad=False)[0]
    real_grads = [(layer.gw.copy(), layer.gb.copy()) for layer in weighted] if grads else []
    loss += _logistic_term(disc, fake, False, 1.0, grads, input_grad=False)[0]
    for layer, (gw, gb) in zip(weighted, real_grads):
        layer.gw += gw
        layer.gb += gb
    return loss


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
        TrainingError: a loss term became non-finite, an epoch mean of
            adv_t, disc_t or disc_x went above -ln(eps/2), or template_rms
            + recon_rms ends more than twice its value at the first step,
            on the untrained weights (nn.train_epochs; trace attached).
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
    x4, t4 = x[:, None], t[:, None]
    groups = model.groups()
    gen_opt = Adam(model.encoder + (model.decoder if _x_side(model) else []), cfg.lr)
    disc_opts = {name: Adam(layers, cfg.lr) for name, layers in groups.items() if "disc" in name}

    def step(idx):
        xi, ti = x4[idx], t4[idx]
        losses, t_hat, x_hat = _generator_loss_and_grads(model, xi, ti)
        gen_opt.step()
        # Discriminators train against the pre-update generator outputs.
        for name, real, fake in (("disc_t", ti, t_hat), ("disc_x", xi, x_hat)):
            if name in disc_opts and fake is not None:
                losses[name] = _disc_loss_and_grads(groups[name], real, fake)
                disc_opts[name].step()
        return {key: losses.get(key, 0.0) for key in TRACE_KEYS}, 1

    # No adversarial term in the guard: one rises when the other player wins
    # (a default scenario-2 run ended at 2.4 times its first-step total).
    # Blown-up logits are bounded instead: a softplus(u) mean above
    # -ln(eps/2) ~ 36.74 needs a logit u past the point where nn.sigmoid(u)
    # rounds to exactly 1.0, so a discriminator has saturated. adv_x is left
    # out: at beta 0.01 the decoder barely resists D_x, which can saturate
    # for several epochs at default settings (adv_x / beta peaked at 71.5 in
    # a run on a 25-template 72x72 dataset and ended at 0.7). Default runs
    # kept adv_t, disc_t and disc_x below 15.
    bound = -math.log(np.finfo(np.float64).eps / 2)
    limits = {"adv_t": bound, "disc_t": bound, "disc_x": bound}
    model.loss_trace = train_epochs(x.shape[0], cfg.epochs, cfg.batch_size, cfg.seed, step,
                                    guard=("template_rms", "recon_rms"), limits=limits)
    for layers in model.groups().values():  # only another pass would reuse the scratch
        drop_scratch(layers)
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
    [0,1] before the reconstruction error. Returns the per-probe arrays
    "hamming_sym" and "recon_l2"; recon_l2 is None for scenarios without a
    decoder.

    Probes run through the encoder and decoder in chunks of
    model.config.batch_size, the batch the model was trained with, so the
    layer arrays take memory in proportion to one batch, not to N. Every
    step is per-probe arithmetic, so the output does not depend on the
    chunking: it is bit-identical to extracting each probe alone.
    """
    x = np.asarray(images, dtype=np.float64)
    syms = np.asarray(symbols)
    if x.shape[0] != syms.shape[0]:
        raise DataError("images and symbol grids must align")
    if syms.shape[1] != model.n_sym or syms.shape[2] != model.n_sym:
        raise DataError(f"expected {model.n_sym}x{model.n_sym} symbol grids")
    n = x.shape[0]
    hamming = np.empty(n, dtype=np.int64)
    recon_l2 = np.empty(n) if model.decoder is not None else None
    for start in range(0, n, model.config.batch_size):
        chunk = slice(start, start + model.config.batch_size)
        t_hat = encode(model, x[chunk])
        t_bin = (t_hat >= 0.5).astype(np.uint8)
        hamming[chunk] = (t_bin != syms[chunk].astype(np.uint8)).sum(axis=(1, 2))
        if recon_l2 is not None:
            diff = decode(model, t_hat) - x[chunk]
            recon_l2[chunk] = np.sqrt((diff * diff).mean(axis=(1, 2)))
    for layers in model.groups().values():
        drop_scratch(layers)
    return {"hamming_sym": hamming, "recon_l2": recon_l2}


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
    require_fields(obj, path, "config", "scenario", "n_sym", "symbol_px", groups="dict")
    require_fields(obj["groups"], f"{path}: groups", **dict.fromkeys(obj["groups"], "list"))
    sizes = (int_field(obj, path, name) for name in ("scenario", "n_sym", "symbol_px"))
    model = build_ae_model(*sizes, config_field(obj, path, "config", AeConfig))
    for name, layers in model.groups().items():
        stored = obj["groups"].get(name, [])
        weighted = weighted_layers(layers)
        if len(stored) != len(weighted):
            raise DataError(f"{path}: group {name} has unexpected layer count")
        for i, (layer, entry) in enumerate(zip(weighted, stored)):
            where = f"{path}: groups.{name}[{i}]"
            require_fields(entry, where, "w", "b")
            layer.w = array_field(entry, where, "w", layer.w.shape)
            layer.b = array_field(entry, where, "b", layer.b.shape)
    model.loss_trace = obj.get("loss_trace", {})
    return model
