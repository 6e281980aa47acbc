"""Slow reference implementations that only the tests use.

Each takes a different route from the code it checks: direct loops instead
of patch and tap GEMMs, a hand-derived backward pass instead of the
classifier's step through nn's layer chain. The references that `selftest`
also runs stay in cdp_authkit.oracles.
"""

import numpy as np

from cdp_authkit.nn import train_epochs, weighted_layers
from cdp_authkit.supervised import ClassifierModel, TrainConfig, build_classifier_layers


def conv2d_direct(x: np.ndarray, w: np.ndarray, b: np.ndarray, k: int, stride: int,
                  pad: int) -> np.ndarray:
    """Cross-correlation by direct loops over samples, output channels and positions.

    x is (B, C, H, W); w is (out_ch, C*k*k) in (c, ki, kj) order, the layout
    nn.Conv2d stores; b is (out_ch,). Each output value is the sum of one
    zero-padded input window times the filter, with no patch matrix or GEMM.
    """
    n, c, h, width = x.shape
    xp = np.zeros((n, c, h + 2 * pad, width + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + width] = x
    filters = w.reshape(w.shape[0], c, k, k)
    oh = (h + 2 * pad - k) // stride + 1
    ow = (width + 2 * pad - k) // stride + 1
    out = np.zeros((n, w.shape[0], oh, ow))
    for s in range(n):
        for o in range(w.shape[0]):
            for i in range(oh):
                for j in range(ow):
                    window = xp[s, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[s, o, i, j] = float((window * filters[o]).sum()) + b[o]
    return out


def classifier_forward_by_hand(layers: list, x: np.ndarray) -> tuple:
    """(hidden activations, logits) of rows x: two GEMMs and a ReLU, each a new array."""
    hidden, _, output = layers
    a = x @ hidden.w + hidden.b
    a = np.where(a > 0.0, a, 0.0)
    return a, a @ output.w + output.b


def classifier_step_by_hand(layers: list, xb: np.ndarray, yb: np.ndarray) -> float:
    """Mean cross-entropy of one batch, writing its gradients into each Dense's gw/gb.

    The classifier's step with the gradients derived by hand: the output
    layer's from a.T @ dz, the ReLU's backward as np.where on a > 0, and no
    input gradient for the hidden layer. supervised._ce_loss_and_grads runs
    nn's layer chain instead and must match it bit for bit.
    """
    hidden, _, output = layers
    n = len(yb)
    a, z = classifier_forward_by_hand(layers, xb)
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(n)
    loss = -float(logp[rows, yb].mean())
    dz = np.exp(logp)
    dz[rows, yb] -= 1.0
    dz /= n
    output.gw[...] = a.T @ dz
    output.gb[...] = dz.sum(axis=0)
    dh = np.where(a > 0.0, dz @ output.w.T, 0.0)  # a > 0 exactly where the pre-activation is
    hidden.gw[...] = xb.T @ dh
    hidden.gb[...] = dh.sum(axis=0)
    return loss


def train_classifier_by_hand(features: np.ndarray, labels: np.ndarray, n_classes: int,
                             config: TrainConfig) -> ClassifierModel:
    """supervised.train_classifier on valid input, by classifier_step_by_hand and
    w -= lr * gw, which forms lr * gw as a new array."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    layers = build_classifier_layers(x.shape[1], n_classes, config)

    def step(idx):
        loss = classifier_step_by_hand(layers, x[idx], y[idx])
        for layer in weighted_layers(layers):
            layer.w -= config.lr * layer.gw
            layer.b -= config.lr * layer.gb
        return {"loss": loss}, len(idx)

    trace = train_epochs(len(x), config.epochs, config.batch_size, config.seed, step,
                         guard=("loss",))
    return ClassifierModel(layers=layers, n_classes=n_classes,
                           class_names=tuple(str(i) for i in range(n_classes)), config=config,
                           final_loss=trace[-1], loss_trace=trace)
