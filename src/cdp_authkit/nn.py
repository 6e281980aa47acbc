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

Convolution takes one of three paths, chosen by the layer's stride and
upsample factor.

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

Layers built with upsample=f > 1 (the decoder's symbol-to-pixel conv) are a
nearest f-fold upsample followed by a stride-1 same-padded conv (k = 2*pad +
1), run as one sub-pixel convolution at the input's resolution (Shi et al.
2016). Output pixel (f*i + p, f*j + q) at phase (p, q) reads, through tap
(ki, kj), input pixel (i + (p + ki - pad) // f, j + (q + kj - pad) // f): a
k' x k' window with k' = 2*ceil(pad/f) + 1, so k' = 3 for k = 3 at every f.
`upsample_fold` is the fixed 0/1 (k*k, f*f*k'*k') matrix that maps each tap
to the phase and window offset it lands on. The forward pass folds the
(out_ch, C*k*k) weights through it into phase weights W' of shape
(f*f*out_ch, C*k'*k'), then runs one im2col at input resolution, one GEMM
per sample W' @ cols, a depth-to-space and the bias; the f*f-times larger
upsampled input is never built. Backward does a space-to-depth of dout,
folds the weight gradient sum_b dz_b @ cols_b^T back through the transposed
matrix and returns col2im(W'^T @ dz) at input resolution. The weights keep
the layout and shape of the unfused conv; only the rounding moves (by about
1e-15 relative), because the fold adds the weights of taps that read the
same input pixel before multiplying.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, TrainingError
from .rng import rng_for

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


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


def upsample_fold(k: int, pad: int, f: int) -> np.ndarray:
    """The 0/1 tap -> phase matrix of a same-padded k x k conv after an f-fold upsample.

    Entry [ki*k + kj, ((p*f + q)*k' + di)*k' + dj] is 1 when tap (ki, kj) of
    an output at phase (p, q) reads the input pixel at offset
    (di - pad', dj - pad'), where pad' = ceil(pad / f) and k' = 2*pad' + 1.
    """
    lo = -(-pad // f)
    kk = 2 * lo + 1
    axis = np.zeros((k, f, kk))
    for t in range(k):
        for p in range(f):
            axis[t, p, (p + t - pad) // f + lo] = 1.0
    return np.einsum("ipa,jqb->ijpqab", axis, axis).reshape(k * k, f * f * kk * kk)


class Conv2d:
    """2-D convolution (cross-correlation) over (B, C, H, W) tensors.

    With upsample=f > 1 the layer is a nearest f-fold upsample followed by
    this stride-1 conv, computed at the input's resolution (module docstring).
    """

    def __init__(self, rng: np.random.Generator, in_ch: int, out_ch: int, k: int,
                 stride: int = 1, pad: int = 1, upsample: int = 1):
        if upsample > 1 and (stride != 1 or k != 2 * pad + 1):
            raise ParameterError("an upsampling conv needs stride 1 and k = 2*pad + 1")
        fan_in = in_ch * k * k
        self.w = rng.standard_normal((out_ch, fan_in)) * np.sqrt(2.0 / fan_in)
        self.b = np.zeros(out_ch)
        self.k, self.stride, self.pad, self.upsample = k, stride, pad, upsample
        self.in_ch, self.out_ch = in_ch, out_ch
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._cache = None
        self._fold = upsample_fold(k, pad, upsample) if upsample > 1 else None

    def _phase_geometry(self):
        """(f, k', pad') of the sub-pixel path."""
        lo = -(-self.pad // self.upsample)
        return self.upsample, 2 * lo + 1, lo

    def _phase_weights(self) -> np.ndarray:
        """w folded into (f*f*out_ch, C*k'*k') phase weights, rows in (o, p, q) order."""
        f, kk, _ = self._phase_geometry()
        o, c = self.out_ch, self.in_ch
        folded = self.w.reshape(o * c, self.k * self.k) @ self._fold
        return folded.reshape(o, c, f, f, kk, kk).transpose(0, 2, 3, 1, 4, 5).reshape(
            o * f * f, c * kk * kk)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.upsample > 1:
            return self._forward_upsample(x)
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
        if self.upsample > 1:
            return self._backward_upsample(dout, input_grad)
        if self.stride == 1:
            return self._backward_stride1(dout, input_grad)
        cols, x_shape, oh, ow = self._cache
        dmat = dout.reshape(x_shape[0], self.out_ch, oh * ow)
        self.gw += (dmat @ cols.transpose(0, 2, 1)).sum(axis=0)
        if not input_grad:
            return None
        return col2im(self.w.T @ dmat, x_shape, self.k, self.stride, self.pad, oh, ow)

    def _forward_upsample(self, x: np.ndarray) -> np.ndarray:
        f, kk, lo = self._phase_geometry()
        b, _, h, w = x.shape
        o = self.out_ch
        cols, _ = im2col(x, kk, 1, lo)
        wp = self._phase_weights()
        z = (wp @ cols).reshape(b, o, f, f, h, w)
        out = np.empty((b, o, h, f, w, f))  # depth-to-space: (o, p, q, i, j) -> (o, i, p, j, q)
        np.add(z.transpose(0, 1, 4, 2, 5, 3), self.b[:, None, None, None, None], out=out)
        self._cache = (cols, x.shape, wp)
        return out.reshape(b, o, h * f, w * f)

    def _backward_upsample(self, dout: np.ndarray, input_grad: bool):
        cols, x_shape, wp = self._cache
        f, kk, lo = self._phase_geometry()
        b, c, h, w = x_shape
        o = self.out_ch
        # space-to-depth: (o, i, p, j, q) -> (o, p, q, i, j)
        dz = dout.reshape(b, o, h, f, w, f).transpose(0, 1, 3, 5, 2, 4).reshape(
            b, o * f * f, h * w)
        gwp = (dz @ cols.transpose(0, 2, 1)).sum(axis=0)
        gwp = gwp.reshape(o, f, f, c, kk, kk).transpose(0, 3, 1, 2, 4, 5)
        self.gw += (gwp.reshape(o * c, f * f * kk * kk) @ self._fold.T).reshape(o, -1)
        if not input_grad:
            return None
        return col2im(wp.T @ dz, x_shape, kk, 1, lo, h, w)

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

    def __init__(self, layers, lr: float):
        self.layers = weighted_layers(layers)
        self.lr = lr
        self.t = 0
        self.state = [
            (np.zeros_like(l.w), np.zeros_like(l.w), np.zeros_like(l.b), np.zeros_like(l.b))
            for l in self.layers
        ]

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for layer, (mw, vw, mb, vb) in zip(self.layers, self.state):
            for p, g, m, v in ((layer.w, layer.gw, mw, vw), (layer.b, layer.gb, mb, vb)):
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * g * g
                p -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


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
