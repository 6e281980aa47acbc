"""Minimal float64 neural-network layers with exact backpropagation.

Just enough machinery for the desk-scale models in this package: dense and
convolution layers, ReLU/sigmoid, nearest-neighbor upsampling, stable
logistic losses, a deterministic Adam, and `train_epochs`, the epoch loop of
every trainer. Layers keep what their backward pass needs in `_cache`;
gradients accumulate on the layer (`gw`, `gb`) so a finite difference check
can perturb `w`/`b` in place and re-run the forward pass. `chain_infer` runs
a forward pass that keeps no cache, for callers that never run backward.
`Dense`, `Conv2d` and `chain_backward` take an `input_grad` flag that their
call sites turn off where the gradient with respect to the input would be
thrown away (the input is data, or only the weight gradients are wanted);
gw/gb are the same bits either way.

Convolution takes one of two paths, chosen by the layer's stride.

Strided layers (the first encoder conv, k = symbol_px + 2, stride =
symbol_px) use the channels-first (Caffe) im2col layout: the patch matrix of
a (B, C, H, W) input is (B, C*k*k, oh*ow), row c*k*k + ki*k + kj holding
input channel c shifted by (ki, kj) at every output position. im2col fills
it with k*k slice copies of the padded input and col2im scatters back with
k*k adds, each over whole rows. A layer's weights are (out_ch, C*k*k) in the
same (c, ki, kj) order, so the forward pass is one GEMM per sample,
w @ cols, whose (B, out_ch, oh*ow) result is already in NCHW order; the
weight gradient is dout @ cols^T summed over the batch, and the input
gradient is col2im(w^T @ dout).

Stride-1 layers build no patch matrix at full resolution (kn2row, Vasudevan
et al. 2017). `correlate` views the padded (B, C, Hp, Wp) input as
(B, C, Hp*Wp): for tap (ki, kj) the inputs of all outputs form one
contiguous slice starting at ki*Wp + kj, of length (oh - 1)*Wp + ow, so the
output on an (oh, Wp) grid is the sum of k*k GEMMs w_tap (out_ch x C) @
slice, and the last Wp - ow columns of each grid row are dropped. The layer
caches the padded input, k*k times smaller than the patch matrix. The
weight gradient sums dout_grid @ slice^T per tap, with dout placed on a
zeroed (oh, Wp) grid so the dropped columns contribute exact zeros; the
input gradient is the full correlation of dout with the flipped,
channel-transposed weights, the same `correlate` on dout padded by
k - 1 - pad (so stride-1 layers need pad < k). Where the GEMM's inner dimension is one plane (a one-channel
input, or the input gradient of a one-channel output), each tap would be an
outer product, so `correlate` uses im2col's (B, k*k, oh*ow) patch matrix of
that one plane and a single GEMM instead.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TrainingError
from .rng import rng_for


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) without overflow."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _pad2(x: np.ndarray, pad: int) -> np.ndarray:
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """(B, C, H, W) -> (B, C*k*k, oh*ow) channels-first patch matrix plus (oh, ow)."""
    b, c, h, w = x.shape
    xp = _pad2(x, pad)
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    cols = np.empty((b, c, k, k, oh, ow))
    for ki in range(k):
        for kj in range(k):
            cols[:, :, ki, kj] = xp[:, :, ki : ki + stride * oh : stride,
                                    kj : kj + stride * ow : stride]
    return cols.reshape(b, c * k * k, oh * ow), (oh, ow)


def col2im(dcols: np.ndarray, x_shape, k: int, stride: int, pad: int, oh: int, ow: int):
    """Adjoint of im2col: scatter (B, C*k*k, oh*ow) patch gradients back onto the input grid."""
    b, c, h, w = x_shape
    dxp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    d6 = dcols.reshape(b, c, k, k, oh, ow)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki : ki + stride * oh : stride,
                kj : kj + stride * ow : stride] += d6[:, :, ki, kj]
    return dxp[:, :, pad : pad + h, pad : pad + w].copy()


def correlate(xp: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """Stride-1 valid cross-correlation of a padded (B, C, Hp, Wp) input with (O, C*k*k) weights.

    Returns (B, O, Hp - k + 1, Wp - k + 1), summed tap by tap over the
    flattened input (see the module docstring); a one-plane input goes
    through im2col instead.
    """
    b, c, hp, wp = xp.shape
    o = w.shape[0]
    oh, ow = hp - k + 1, wp - k + 1
    if c == 1:
        cols, _ = im2col(xp, k, 1, 0)
        return (w @ cols).reshape(b, o, oh, ow)
    n = (oh - 1) * wp + ow
    flat = xp.reshape(b, c, hp * wp)
    taps = w.reshape(o, c, k * k).transpose(2, 0, 1).copy()
    out = np.empty((b, o, oh * wp))
    tmp = np.empty((o, n))
    for s in range(b):  # one sample at a time keeps the accumulator in cache
        acc = out[s, :, :n]
        np.matmul(taps[0], flat[s, :, :n], out=acc)
        for t in range(1, k * k):
            off = (t // k) * wp + t % k
            np.matmul(taps[t], flat[s, :, off : off + n], out=tmp)
            acc += tmp
    return out.reshape(b, o, oh, wp)[:, :, :, :ow]


class Conv2d:
    """2-D convolution (cross-correlation) over (B, C, H, W) tensors."""

    def __init__(self, rng: np.random.Generator, in_ch: int, out_ch: int, k: int,
                 stride: int = 1, pad: int = 1):
        fan_in = in_ch * k * k
        self.w = rng.standard_normal((out_ch, fan_in)) * np.sqrt(2.0 / fan_in)
        self.b = np.zeros(out_ch)
        self.k, self.stride, self.pad = k, stride, pad
        self.in_ch, self.out_ch = in_ch, out_ch
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.stride == 1:
            xp = _pad2(x, self.pad)
            self._cache = xp
            return correlate(xp, self.w, self.k) + self.b[:, None, None]
        cols, (oh, ow) = im2col(x, self.k, self.stride, self.pad)
        out = self.w @ cols + self.b[:, None]
        self._cache = (cols, x.shape, oh, ow)
        return out.reshape(x.shape[0], self.out_ch, oh, ow)

    def backward(self, dout: np.ndarray, input_grad: bool = True):
        """Accumulate gw/gb; return the input gradient, or None with input_grad off."""
        self.gb += dout.sum(axis=(0, 2, 3))
        if self.stride == 1:
            return self._backward_stride1(dout, input_grad)
        cols, x_shape, oh, ow = self._cache
        dmat = dout.reshape(x_shape[0], self.out_ch, oh * ow)
        self.gw += (dmat @ cols.transpose(0, 2, 1)).sum(axis=0)
        if not input_grad:
            return None
        return col2im(self.w.T @ dmat, x_shape, self.k, self.stride, self.pad, oh, ow)

    def _backward_stride1(self, dout: np.ndarray, input_grad: bool):
        xp = self._cache
        b, c, hp, wp = xp.shape
        o, k = self.out_ch, self.k
        oh, ow = dout.shape[2:]
        n = (oh - 1) * wp + ow
        grid = np.zeros((b, o, oh, wp))
        grid[:, :, :, :ow] = dout
        dgrid = grid.reshape(b, o, oh * wp)
        flat = xp.reshape(b, c, hp * wp)
        gw = np.zeros((k * k, o, c))
        for s in range(b):
            for t in range(k * k):
                off = (t // k) * wp + t % k
                gw[t] += dgrid[s, :, :n] @ flat[s, :, off : off + n].T
        self.gw += gw.transpose(1, 2, 0).reshape(o, c * k * k)
        if not input_grad:
            return None
        flipped = self.w.reshape(o, c, k, k)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return correlate(_pad2(dout, k - 1 - self.pad), flipped.reshape(c, o * k * k), k)


class Dense:
    """Affine layer over (B, D) matrices."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int,
                 zero_init: bool = False):
        if zero_init:
            self.w = np.zeros((d_in, d_out))
        else:
            self.w = rng.standard_normal((d_in, d_out)) * np.sqrt(2.0 / d_in)
        self.b = np.zeros(d_out)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x
        return x @ self.w + self.b

    def backward(self, dout: np.ndarray, input_grad: bool = True):
        """Accumulate gw/gb; return the input gradient, or None with input_grad off."""
        x = self._cache
        self.gw += x.T @ dout
        self.gb += dout.sum(axis=0)
        return dout @ self.w.T if input_grad else None


class Relu:
    """max(x, 0), with mask record/replay for finite-difference checks.

    In "record" mode every forward appends its active mask to a log; in
    "replay" mode forwards consume the logged masks in call order instead of
    recomputing them, so a finite-difference probe stays on the smooth branch
    chosen at the base point even for units sitting exactly at the kink (the
    case at initialization, where biases are zero). A layer may run several
    times per loss evaluation (e.g. a discriminator on real then fake), hence
    the per-call log; reset `replay_idx` before each evaluation.
    """

    def __init__(self):
        self._cache = None
        self.mask_mode = "normal"
        self.mask_log: list = []
        self.replay_idx = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.mask_mode == "replay":
            mask = self.mask_log[self.replay_idx]
            self.replay_idx += 1
        else:
            mask = x > 0
            if self.mask_mode == "record":
                self.mask_log.append(mask)
        self._cache = mask
        return np.where(mask, x, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return np.where(self._cache, dout, 0.0)


class Sigmoid:
    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = sigmoid(x)
        return self._cache

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * self._cache * (1.0 - self._cache)


class UpsampleNearest:
    """Repeat each pixel factor x factor times; backward sums the block."""

    def __init__(self, factor: int):
        self.factor = factor
        self._cache = None  # backward needs nothing

    def forward(self, x: np.ndarray) -> np.ndarray:
        f = self.factor
        return np.repeat(np.repeat(x, f, axis=2), f, axis=3)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        f = self.factor
        b, c, h, w = dout.shape
        return dout.reshape(b, c, h // f, f, w // f, f).sum(axis=(3, 5))


def chain_forward(layers, x: np.ndarray) -> np.ndarray:
    for layer in layers:
        x = layer.forward(x)
    return x


def chain_infer(layers, x: np.ndarray) -> np.ndarray:
    """chain_forward for passes that never run backward: no layer keeps its cache."""
    for layer in layers:
        x = layer.forward(x)
        layer._cache = None
    return x


def chain_backward(layers, dout: np.ndarray, input_grad: bool = True):
    """Backward through layers in reverse order; returns the input gradient.

    With input_grad off the first layer, a Dense or Conv2d, skips its input
    gradient and None is returned.
    """
    for layer in reversed(layers[1:]):
        dout = layer.backward(dout)
    if input_grad:
        return layers[0].backward(dout)
    return layers[0].backward(dout, input_grad=False)


def weighted_layers(layers):
    return [layer for layer in layers if hasattr(layer, "w")]


def zero_grads(layers) -> None:
    for layer in weighted_layers(layers):
        layer.gw[:] = 0.0
        layer.gb[:] = 0.0


class Adam:
    """Adam over a fixed, ordered list of weighted layers. Deterministic."""

    def __init__(self, layers, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.layers = weighted_layers(layers)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.state = [
            (np.zeros_like(l.w), np.zeros_like(l.w), np.zeros_like(l.b), np.zeros_like(l.b))
            for l in self.layers
        ]

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for layer, (mw, vw, mb, vb) in zip(self.layers, self.state):
            for p, g, m, v in ((layer.w, layer.gw, mw, vw), (layer.b, layer.gb, mb, vb)):
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * g * g
                p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def train_epochs(n: int, epochs: int, batch_size: int, seed: int, step, guard: tuple):
    """Run epochs of step over n rows shuffled by the seed's "batches" stream.

    step(idx) takes one optimizer step on rows idx and returns (losses, weight);
    a term's epoch trace value is sum(weight * loss) / sum(weight). Returns a
    one-term trace as its list, else a dict of lists. Raises TrainingError, with
    the trace, when a term's epoch mean is non-finite, or when the guard terms'
    sum ends above twice its first-step value, on the untrained weights. A run
    that learns nothing ends near that value (a binary classifier on the
    25-template test dataset ended at 1.007 ln 2); a blown-up one far above it.
    """
    shuffle = rng_for(seed, "batches")
    trace: dict[str, list] = {}
    first = None
    for _ in range(epochs):
        order = shuffle.permutation(n)
        sums, total = {}, 0
        for start in range(0, n, batch_size):
            losses, weight = step(order[start : start + batch_size])
            first = sum(losses[key] for key in guard) if first is None else first
            for key, value in losses.items():
                sums[key] = sums.get(key, 0.0) + value * weight
            total += weight
        for key, value in sums.items():
            trace.setdefault(key, []).append(value / total)
        shaped = next(iter(trace.values())) if len(trace) == 1 else trace
        if not all(math.isfinite(values[-1]) for values in trace.values()):
            raise TrainingError("training loss became non-finite", trace=shaped)
    last = sum(trace[key][-1] for key in guard)
    if last > 2.0 * first:
        raise TrainingError(
            f"training diverged: final {' + '.join(guard)} {last:.6g} is more than twice "
            f"its untrained value {first:.6g}",
            trace=shaped,
        )
    return shaped
