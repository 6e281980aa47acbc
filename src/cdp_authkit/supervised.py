"""Supervised multi-class / binary classification over acquired codes.

A deliberately small network (block-pooled input, one hidden ReLU layer,
K logits) held as `nn` layers [Dense, Relu, Dense] and trained by mini-batch
SGD on cross-entropy. The output layer is zero-initialized so training starts
from exactly uniform class posteriors. A step (_ce_loss_and_grads) is nn's
layer chain: chain_forward, the log-softmax in place on the logits, and
chain_backward, which writes each Dense's gw/gb and never forms the hidden
layer's input gradient. The update scales gw/gb by lr in place, so after
training they hold lr times the last batch's gradient.
The feature matrix is built in place: images_to_features pools each image,
as it is made, into its row of one preallocated (n, d) matrix, so the
pooled training set is held once, with no list of rows beside it.
Also houses the mutual-information lower-bound estimator
I(A; C) >= H(C) - H(C|A) computed from predicted log-probabilities.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DataError, ParameterError
from .imageio import array_field, config_field, int_field, read_json, require_fields, write_json
from .nn import (
    Dense,
    Relu,
    Workspace,
    chain_backward,
    chain_forward,
    chain_infer,
    train_epochs,
    weighted_layers,
)
from .rng import rng_for

POOL_SIDE = 32  # pooled images are at most this many pixels on a side


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 32
    lr: float = 0.05
    hidden: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.hidden < 1:
            raise ParameterError("epochs, batch_size and hidden must be positive")
        if not 0 < self.lr < math.inf:
            raise ParameterError("lr must be positive and finite")


@dataclass
class ClassifierModel:
    layers: list  # [Dense (hidden), Relu, Dense (output)]
    n_classes: int
    class_names: tuple[str, ...]
    config: TrainConfig
    final_loss: float = math.nan
    loss_trace: list = field(default_factory=list)

    @property
    def input_dim(self) -> int:
        return int(self.layers[0].w.shape[0])


def pool_image(image: np.ndarray) -> np.ndarray:
    """Block-average an image down to at most POOL_SIDE per dimension."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise DataError("pool_image expects a 2-D image")
    side = max(img.shape)
    factor = -(-side // POOL_SIDE)  # ceil
    if factor <= 1:
        return img.copy()
    pad_h = (-img.shape[0]) % factor
    pad_w = (-img.shape[1]) % factor
    if pad_h or pad_w:
        img = np.pad(img, ((0, pad_h), (0, pad_w)), mode="edge")
    h, w = img.shape
    return img.reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))


def images_to_features(images: Iterable[np.ndarray], n: int) -> np.ndarray:
    """Pool and flatten n images into an (n, d) feature matrix, one image at a time.

    Each pooled row is written into one preallocated matrix, so `images` may
    be a generator and no list of rows is held. DataError unless there are n
    images and each pools to as many values as the first.
    """
    x, count = None, 0
    for count, img in enumerate(images, 1):
        row = pool_image(img).ravel()
        x = np.empty((n, row.size)) if x is None else x
        if count > n or row.size != x.shape[1]:
            raise DataError(f"expected {n} images, each pooling to {x.shape[1]} values")
        x[count - 1] = row
    if x is None or count != n:
        raise DataError(f"expected {n} images, got {count}")
    return x


def build_classifier_layers(d_in: int, n_classes: int, config: TrainConfig) -> list:
    """[Dense, Relu, Dense] with each weighted layer drawn from its own stream.

    The output layer is zero-initialized: training starts at uniform posteriors.
    """
    return [
        Dense(rng_for(config.seed, "init", "hidden"), d_in, config.hidden),
        Relu(),
        Dense(rng_for(config.seed, "init", "output"), config.hidden, n_classes, zero_init=True),
    ]


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Overwrite logit rows z with their log-softmax."""
    z -= np.maximum.reduce(z, axis=1, keepdims=True)
    z -= np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))
    return z


def _ce_loss_and_grads(layers: list, xb: np.ndarray, yb: np.ndarray) -> float:
    """Mean cross-entropy of one batch; writes its gradients into each Dense's gw/gb.

    The training step itself, so the gradient checks probe what SGD consumes."""
    n = len(yb)
    logp = _log_softmax(chain_forward(layers, xb))
    picked = np.arange(0, logp.size, logp.shape[1]) + yb  # flat index of each row's label
    loss = -float(np.add.reduce(logp.take(picked)) / n)  # as ndarray.mean: sum, then divide
    dz = np.exp(logp, out=logp)
    dz.reshape(-1)[picked] -= 1.0
    dz /= n
    chain_backward(layers, dz, input_grad=False)
    return loss


def train_classifier(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    config: Optional[TrainConfig] = None,
    class_names: Optional[Sequence[str]] = None,
) -> ClassifierModel:
    """Minimize mean cross-entropy by mini-batch SGD. Deterministic in seed.

    Args:
        features: (N, D) float matrix (e.g. from images_to_features).
        labels: (N,) int class indices in [0, n_classes).
        n_classes: K >= 2.
        config: optimizer settings; defaults are desk-scale.
        class_names: optional K names recorded on the model.

    Raises:
        DataError: fewer than 2 examples in some class, or bad shapes.
        TrainingError: loss became non-finite, or the last epoch's mean loss
            is more than twice ln K, the loss of the untrained network
            (nn.train_epochs; trace attached).
    """
    cfg = config if config is not None else TrainConfig()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise DataError("features must be (N, D) aligned with (N,) labels")
    if n_classes < 2:
        raise ParameterError("need at least two classes")
    if y.min() < 0 or y.max() >= n_classes:
        raise DataError("labels out of range")
    counts = np.bincount(y, minlength=n_classes)
    if counts.min() < 2:
        missing = int(np.argmin(counts))
        raise DataError(f"class {missing} has {counts.min()} examples; need >= 2")
    names = tuple(class_names) if class_names else tuple(str(i) for i in range(n_classes))
    if len(names) != n_classes:
        raise ParameterError("class_names length must equal n_classes")

    n, d = x.shape
    layers = build_classifier_layers(d, n_classes, cfg)
    work = Workspace()

    def step(idx):
        # idx is in range, and mode="raise" would buffer the output
        xb = np.take(x, idx, axis=0, out=work.get("x", (len(idx), d)), mode="clip")
        loss = _ce_loss_and_grads(layers, xb, y[idx])
        for layer in weighted_layers(layers):
            for param, grad in ((layer.w, layer.gw), (layer.b, layer.gb)):
                grad *= cfg.lr  # param -= grad then rounds as param -= lr * grad does
                param -= grad
        return {"loss": loss}, len(idx)

    trace = train_epochs(n, cfg.epochs, cfg.batch_size, cfg.seed, step, guard=("loss",))

    return ClassifierModel(layers=layers, n_classes=n_classes, class_names=names, config=cfg,
                           final_loss=trace[-1], loss_trace=trace)


def predict(model: ClassifierModel, features: np.ndarray):
    """(class indices, log-probability rows); argmax ties go to the lowest index."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != model.input_dim:
        raise DataError(f"expected {model.input_dim}-dimensional features")
    logits = chain_infer(model.layers, x)
    return np.argmax(logits, axis=1), _log_softmax(logits)  # argmax before the overwrite


@dataclass(frozen=True)
class MiEstimate:
    """Plug-in lower bound on I(A; C) in nats.

    h_c_given_a is +inf (and lower_bound -inf) when some true label received
    probability exactly zero; the infinity is the flag, nothing is clipped.
    """

    h_c: float
    h_c_given_a: float
    lower_bound: float


def estimate_mi_lower_bound(labels: np.ndarray, logprobs: np.ndarray) -> MiEstimate:
    """I(A; C) >= H(C) - H(C|A) from true labels and predicted log-probs.

    Args:
        labels: (N,) true class indices.
        logprobs: (N, K) log of predicted class probabilities.
    """
    y = np.asarray(labels, dtype=np.int64)
    lp = np.atleast_2d(np.asarray(logprobs, dtype=np.float64))
    if y.ndim != 1 or lp.shape[0] != y.shape[0]:
        raise DataError("labels and log-probability rows must align")
    if y.min() < 0 or y.max() >= lp.shape[1]:
        raise DataError("labels out of range")
    freq = np.bincount(y, minlength=lp.shape[1]) / y.size
    nonzero = freq > 0
    h_c = float(-(freq[nonzero] * np.log(freq[nonzero])).sum())
    picked = lp[np.arange(y.size), y]
    if np.any(np.isneginf(picked)):
        return MiEstimate(h_c=h_c, h_c_given_a=math.inf, lower_bound=-math.inf)
    h_c_given_a = float(-picked.mean())
    return MiEstimate(h_c=h_c, h_c_given_a=h_c_given_a, lower_bound=h_c - h_c_given_a)


def save_classifier(model: ClassifierModel, path: str | Path) -> None:
    hidden, output = weighted_layers(model.layers)
    write_json(
        path,
        {
            "kind": "classifier",
            "w1": hidden.w.tolist(),
            "b1": hidden.b.tolist(),
            "w2": output.w.tolist(),
            "b2": output.b.tolist(),
            "n_classes": model.n_classes,
            "class_names": list(model.class_names),
            "config": asdict(model.config),
            "final_loss": model.final_loss,
            "loss_trace": list(model.loss_trace),
        },
    )


def load_classifier(path: str | Path) -> ClassifierModel:
    obj = read_json(path)
    if not isinstance(obj, dict) or obj.get("kind") != "classifier":
        raise DataError(f"{path}: not a classifier model file")
    require_fields(obj, path, "w1", "b1", "w2", "b2", "n_classes", "config",
                   class_names="list", final_loss="float", loss_trace="list")
    cfg = config_field(obj, path, "config", TrainConfig)
    n_classes = int_field(obj, path, "n_classes")
    w1 = array_field(obj, f"{path}: layer w1/b1", "w1", (None, cfg.hidden))
    layers = build_classifier_layers(w1.shape[0], n_classes, cfg)
    hidden, output = weighted_layers(layers)
    hidden.w, hidden.b = w1, array_field(obj, f"{path}: layer w1/b1", "b1", hidden.b.shape)
    output.w = array_field(obj, f"{path}: layer w2/b2", "w2", output.w.shape)
    output.b = array_field(obj, f"{path}: layer w2/b2", "b2", output.b.shape)
    return ClassifierModel(
        layers=layers,
        n_classes=n_classes,
        class_names=tuple(obj["class_names"]),
        config=cfg,
        final_loss=float(obj["final_loss"]),
        loss_trace=list(obj["loss_trace"]),
    )
