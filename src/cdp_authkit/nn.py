"""Minimal float64 neural-network layers with exact backpropagation.

Just enough machinery for the desk-scale models in this package: dense and
convolution layers, ReLU/sigmoid, nearest-neighbor upsampling, stable
logistic losses, a deterministic Adam, and `train_epochs`, the epoch loop of
every trainer. Layers keep what their backward pass needs in `_cache`;
each backward writes the layer's weight gradients (`gw`, `gb`) in place of
the last pass's, so a finite difference check can perturb `w`/`b` in place
and re-run the forward pass, and a caller that wants two passes' gradients
summed adds them itself. `chain_infer` runs a forward pass that keeps no
cache, for callers that never run backward.
`Dense`, `Conv2d` and `chain_backward` take an `input_grad` flag that their
call sites turn off where the gradient with respect to the input would be
thrown away (the input is data, or only the weight gradients are wanted);
gw/gb are the same bits either way.

Convolution runs one of two kernels: taps for a plain stride-1 layer, and
patches for every other layer, strided or built with upsample=f > 1.

Taps (stride 1, f = 1) build no patch matrix at full resolution (kn2row,
Vasudevan et al. 2017). `correlate` views the padded (B, C, Hp, Wp) input as
(B, C, Hp*Wp): for tap (ki, kj) the inputs of all outputs form one
contiguous slice starting at ki*Wp + kj, of length (oh - 1)*Wp + ow, so the
output on an (oh, Wp) grid is the sum of k*k GEMMs w_tap (out_ch x C) @
slice, and the last Wp - ow columns of each grid row are dropped. Each tap
GEMM is one np.matmul over a chunk of samples (see "Chunks" below). A
stride-1 layer has k = 2*pad + 1 (Conv2d refuses any other), so dout padded
by pad has rows Wp wide, and from offset pad*(Wp + 1) its flat plane is
dout on the (oh, Wp) grid, with the zero border in the dropped columns. The
weight gradient is that grid @ slice^T per tap and sample, so the dropped
columns contribute exact zeros; the per-sample products land in one
(B, k*k, out_ch, C) array that is summed once over samples, in sample
order, as a per-sample loop would add them. The input gradient is the full
correlation of dout with the flipped, channel-transposed weights, the same
`correlate` on the same padded dout (k - 1 - pad = pad). Backward pads one
chunk of dout at a time and makes that chunk's weight-gradient products and
then its input gradient, so the padded dout is never full-batch. Where the GEMM's inner
dimension is one plane (a one-channel input, or the input gradient of a
one-channel output), each tap would be an outer product, so `correlate`
uses im2col's (B, k*k, oh*ow) patch matrix of that one plane and one GEMM
per sample instead. Where its outer dimension is one plane (a one-channel
output, such as the decoder's last 8->1 conv at 72x72, or the input
gradient of a one-channel input), each tap would be a matrix-vector product
that reads the whole input again, so `correlate` runs one (k*k, C) @
(C, Hp*Wp) GEMM per sample and adds its k*k rows, each shifted by its tap's
offset, in tap order (kn2row's GEMM-then-shift-add form).

Patches. A layer built with upsample=f > 1 (the decoder's symbol-to-pixel
conv) is a nearest f-fold upsample followed by a stride-1 same-padded conv
(k = 2*pad + 1), run as one sub-pixel convolution at the input's resolution
(Shi et al. 2016). Output pixel (f*i + p, f*j + q) at phase (p, q) reads,
through tap (ki, kj), input pixel
(i + (p + ki - pad) // f, j + (q + kj - pad) // f). Over all taps that is a
k' x k' window around (i, j), with pad' = ceil(pad/f) and
k' = k + 2*(pad' - pad) = 2*pad' + 1, so k' = 3 for k = 3 at every f.
`upsample_fold` is the fixed 0/1 (k*k, f*f*k'*k') matrix that maps each tap
to the phase and window offset it lands on, and the (out_ch, C*k*k) weights
fold through it into patch weights W' of shape (f*f*out_ch, k'*k'*C), rows
phase-major (p, q, o), columns offset-major (di, dj, c). A strided layer
(the first encoder conv, k = symbol_px + 2, stride = symbol_px) is the
f = 1 case: k' = k, pad' = pad and W' is w with its columns reordered.
im2col's offset-major patch matrix of a (B, C, H, W) input is
(B, k'*k'*C, oh*ow), row (ki*k' + kj)*C + c holding input channel c shifted
by (ki, kj) at every output position; it is filled with k'*k' slice copies,
and col2im scatters back with k'*k' adds, each over whole rows.

Row phase p reads only a run [lo, hi) of the window's row offsets
(`phase_blocks`: 2, 1 and 2 of the 3 at k = 3, f = 3; the fold's other
entries of that phase are structural zeros), and in these orders the run is
one contiguous block of W' columns and of patch-matrix rows. Per chunk of
samples the kernel runs im2col of the padded input with the layer's stride;
for each p, the GEMM of the phase-p rows and live columns of W' with the
live rows of cols; the bias, added to the GEMM result as a plane; and the
depth-to-space by f, f strided copies, one per column phase q, each through
a (m, o, i, p, j, q) view of the output's rows, so that it also fits an
output that is the next conv's padded-input interior; the f*f-times larger
upsampled input is never built.
Backward rebuilds each chunk's patch matrix from the cached padded input,
takes W' from the forward's cache, and does a space-to-depth of dout into
dz. The weight gradient is, for each p,
dz_p @ cols_block^T written into phase p's block of the per-sample
products, whose other blocks stay zero; the products are summed over
samples and, at f > 1, folded back through the transposed fold matrix. The
input gradient runs one GEMM per run of row offsets read by the same phases
(at f = 3: offset 0 by phase 0, offset 1 by all three, offset 2 by phase 2),
the transposed block of W' times those phases' dz rows, into dcols, and takes
the chunk's col2im(dcols). So each of the three GEMMs computes 45 of the 81
(phase, offset) slots at f = 3, and at f = 1 one block spans every column,
so every GEMM is the dense one. The weights keep the layout and shape of
the unfused conv (tap-major (c, ki, kj) columns), so model files of any tree
load unchanged. Against the unfused conv only the rounding moves, by about
1e-15 relative: at f > 1 the fold adds the weights of taps that read the
same input pixel before multiplying.

Chunks. A loop over samples takes them max(1, CHUNK_BYTES // s) at a time,
where s is the bytes of one sample of the array the loop streams: the
padded input of a tap GEMM, the patch matrix of a one-plane correlation or
of the patch kernel (a one-output-plane correlation takes one sample per
GEMM), and in the tap backward, which streams the padded input and the
padded dout, the wider of the two. CHUNK_BYTES (350 KiB) is where chunked tap GEMMs
were fastest on a 2-core x86-64 host at one BLAS thread: a 16-sample 24x24
8->8 correlation took 2.27 ms one sample per GEMM, 1.45 ms in chunks of 8
and 2.36 ms in chunks of 16; at 72x72 one sample per GEMM was fastest. So
at the autoencoder's shapes a tap chunk is 8 samples at 24x24 and one at
72x72, a chunk of the strided encoder conv is 3 samples, and the
upsampling conv's 332 KB per-sample phase GEMM result stays in cache
between the GEMM and the depth-to-space. Every GEMM still
multiplies one sample's matrices, and each sum adds in the same order, so
the chunk size never changes a bit of any result.

Workspaces. Each Conv2d owns a `Workspace` (`_work`, apart from `_cache`,
so `chain_infer` still leaves `_cache` None) of scratch arrays it reuses
while their shapes repeat, a [:b] view for a smaller last batch or chunk, a
new array for a new shape. It holds its padded input (zero border written
once, at allocation), which with the patch kernel's W' is the whole of its
backward cache; one chunk's patch matrix; the patch GEMM result, shared
with backward's space-to-depth; one chunk's tap accumulator, which the
forward and the input gradient share when they have one shape (as many
planes in as out; at one plane in or out the input gradient has its own),
and its tmp, or for one output plane the k*k tap product rows; one chunk of
the padded dout; the per-sample weight-gradient products (zeroed at allocation, so the patch kernel's unwritten blocks read
0); dcols and one chunk's col2im target. Only scratch and a layer's own
backward cache are overwritten by its next call, and what a layer or chain
returns never shares memory with any Workspace, with two exceptions inside
the chains.

A Relu holds no mask: `relu` (fmax, then +0.0) maps NaN, -inf and -0.0 to
+0.0, so relu(z) > 0 is z > 0 at every float64, and a Relu holds its output
and reads the mask off it. In `chain_forward`/`chain_infer`, a Relu right
after a Conv2d or a Dense runs inside that layer's forward (its rectify
flag): per chunk (a Dense's output is one chunk), the GEMM result gets its
bias, then `relu` in place, in the result's own layout while it is in
cache, and only then does a conv copy it (depth-to-space in the patch
kernel) to the output; a Dense's GEMM result is its output. When a Conv2d
follows that Relu, the output is written into the interior of the second
conv's padded input (`Conv2d.input_slot`), and its forward, seeing its own
interior, skips the pad copy; the 5.3 MB 72x72 decoder tensor is then never
copied again. The Relu holds that output, the interior or the Dense's
output, without a copy. The same operations run in the same order on the
same values, so outputs, masks and gradients are the bits of running the
layers one by one. Record mode runs the same path and logs output > 0;
replay mode runs the Relu on its own in both directions, applying and
holding the logged mask.

In `chain_backward`, a Relu between two Conv2d layers, A below and B above,
runs inside B's backward. B's weight gradient reads its padded input first
(all of it in the tap kernel, a chunk of samples at a time in the patch
kernel), so those rows are spent; then each chunk of B's input gradient, in
scratch while it is in cache (`correlate`'s done hook, the patch kernel's
col2im target), gets the ReLU backward, with the mask read off those rows
of B's padded input, and is written over them; the zero border is never
touched. A's backward reads that view as its dout, so a training step
allocates no gradient of the 8-plane 72x72 decoder tensor. The one
exception: an A with one output plane runs unfused, since numpy sums a
one-plane dout for gb in another order when it is such a view (with more
planes the sum over a view and over a contiguous array agree bit for bit).

The ReLU backward, fused or `Relu.backward`, is dout times the mask, then
+0.0, in place: a masked write over a random mask is branch-bound, and the
multiply took 1.75 ms against 4.73 ms for np.where on 16x8x72x72 (2-core
x86-64 host, one BLAS thread). It equals
np.where(mask, dout, 0.0) bit for bit except at two kinds of entry: a NaN or
+-inf dout at an inactive unit gives NaN (not 0.0), and a -0.0 dout at an
active unit gives +0.0 (not -0.0). A conv's input gradient is a GEMM sum
that starts from +0.0, so it is never -0.0, and a non-finite one comes from
a non-finite dout or weight of that conv, which makes its gb or w
non-finite too.

At the shapes of a `deep-s3` autoencoder step (batch 16, 72x72 codes, 8
channels) the held arrays of encoder and decoder total about 15.5 MB, 8.5
MB of which is the padded inputs a step holds anyway, with the ReLU outputs
in them; the largest is the last decoder conv's padded 72x72 input
(5.6 MB). `drop_scratch` frees a layer list's workspace arrays and backward
caches; deepfeat calls it when training or feature extraction returns, so a
model handed back holds none.

Dense. The supervised classifier and both autoencoder discriminators are
[Dense, Relu, Dense] stacks run through the layer chain. `Dense.forward`
takes Conv2d's keyword arguments: one GEMM into out, the bias added in
place, then, with rectify on, `relu`. Its backward writes gw and gb with
np.matmul and np.add.reduce into the held arrays, so a step allocates no
weight-sized array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, TrainingError
from .rng import rng_for

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


def relu(z: np.ndarray) -> np.ndarray:
    """max(z, 0) written over z, which is returned.

    np.where(z > 0, z, 0.0) bit for bit without its per-element branch: fmax
    sends NaN and -inf to 0.0, and adding +0.0 turns fmax(-0.0, 0.0) into
    +0.0. So relu(z) > 0 is z > 0 at every float64: a ReLU's output is its
    own mask.
    """
    np.fmax(z, 0.0, out=z)
    z += 0.0
    return z


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: 1/(1 + e) for z >= 0, else e/(1 + e), e = exp(-|z|)."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) without overflow."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


CHUNK_BYTES = 350 * 1024  # per-chunk budget of a sample loop's operand (module docstring)


class Workspace:
    """Scratch arrays held by name across calls.

    get(name, shape) returns the held array while the shape repeats, a [:n]
    view of it when only the first axis shrank (the last batch of an epoch,
    the last chunk of a batch), and a newly allocated array for any other
    shape. A zeroed array is zeroed when it is allocated and never again.
    """

    def __init__(self):
        self._arrays: dict = {}

    def get(self, name: str, shape: tuple, zeroed: bool = False, dtype=np.float64) -> np.ndarray:
        held = self._arrays.get(name)
        if held is None or held.shape[1:] != shape[1:] or held.shape[0] < shape[0]:
            held = np.zeros(shape, dtype) if zeroed else np.empty(shape, dtype)
            self._arrays[name] = held
        return held[: shape[0]]

    def clear(self) -> None:
        """Drop every held array; the next get allocates anew."""
        self._arrays.clear()


def _padded(shape: tuple, pad: int, work: Workspace, name: str = "xp") -> tuple:
    """work's zero-bordered array name for a (B, C, H, W) input padded by pad, and its interior."""
    b, c, h, w = shape
    xp = work.get(name, (b, c, h + 2 * pad, w + 2 * pad), zeroed=True)
    return xp, xp[:, :, pad : pad + h, pad : pad + w]


def _pad2(x: np.ndarray, pad: int, work: Workspace, name: str = "xp") -> np.ndarray:
    """x zero-padded by pad on both spatial axes, in work's zero-bordered array name.

    An x that already is that array's interior (`Conv2d.input_slot`) is not copied.
    """
    xp, inner = _padded(x.shape, pad, work, name)
    if x.strides != inner.strides or x.__array_interface__["data"] != inner.__array_interface__["data"]:
        inner[...] = x
    return xp


def _chunks(shape: tuple) -> list:
    """Sample slices over a float64 batch of this shape.

    Each holds max(1, CHUNK_BYTES // bytes of one sample) samples but the
    last; an empty batch is one empty chunk.
    """
    b, sample_bytes = shape[0], 8 * math.prod(shape[1:])
    step = max(1, CHUNK_BYTES // max(1, sample_bytes))
    return [slice(s, min(s + step, b)) for s in range(0, max(b, 1), step)]


def im2col(xp: np.ndarray, k: int, stride: int, work: Workspace):
    """Already padded (B, C, H, W) -> (B, k*k*C, oh*ow) offset-major patch matrix plus (oh, ow).

    Row (ki*k + kj)*C + c holds input channel c shifted by (ki, kj). The
    patch matrix is work's "cols".
    """
    b, c, h, w = xp.shape
    oh = (h - k) // stride + 1
    ow = (w - k) // stride + 1
    cols = work.get("cols", (b, k, k, c, oh, ow))
    for ki in range(k):
        for kj in range(k):
            cols[:, ki, kj] = xp[:, :, ki : ki + stride * oh : stride,
                                 kj : kj + stride * ow : stride]
    return cols.reshape(b, k * k * c, oh * ow), (oh, ow)


def col2im(dcols: np.ndarray, x_shape, k: int, stride: int, pad: int, oh: int, ow: int,
           work: Workspace) -> np.ndarray:
    """Adjoint of im2col on an input padded by pad: scatter (B, k*k*C, oh*ow)
    patch gradients back onto the input grid.

    Accumulates in work's "dxp" and returns its (B, C, H, W) interior, which
    the next call overwrites.
    """
    b, c, h, w = x_shape
    dxp = work.get("dxp", (b, c, h + 2 * pad, w + 2 * pad))
    dxp.fill(0.0)
    d6 = dcols.reshape(b, k, k, c, oh, ow)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki : ki + stride * oh : stride,
                kj : kj + stride * ow : stride] += d6[:, ki, kj]
    return dxp[:, :, pad : pad + h, pad : pad + w]


def correlate(xp: np.ndarray, w: np.ndarray, k: int, work: Workspace, done,
              name: str = "acc") -> None:
    """Stride-1 valid cross-correlation of a padded (B, C, Hp, Wp) input with (O, C*k*k) weights.

    The (B, O, Hp - k + 1, Wp - k + 1) result is summed tap by tap over the
    flattened input, a chunk of samples per GEMM (see the module docstring);
    a one-plane input goes through im2col instead, and one output plane
    through one GEMM of all taps per sample. Scratch comes from work, and
    each chunk's result from its array name, which the next chunk overwrites.
    done(rows, z, zv) is called with each chunk's finished output while it is
    in cache: zv = result[rows], and z the contiguous accumulator rows that
    hold it; z's other entries (the grid's dropped columns) are junk that no
    result reads.
    """
    b, c, hp, wp = xp.shape
    o = w.shape[0]
    oh, ow = hp - k + 1, wp - k + 1
    n = (oh - 1) * wp + ow
    width = ow if c == 1 else wp
    flat = xp.reshape(b, c, hp * wp)
    if c == 1:
        chunks = _chunks((b, k * k, oh * ow))
    elif o == 1:  # one GEMM of all k*k taps per sample reads the input once
        chunks = [slice(0, b)]  # one plane: the batch is one chunk
        prods = work.get("taps", (k * k, hp * wp))
        taps = w.reshape(c, k * k).T.copy()
    else:  # a chunk of samples keeps the accumulator in cache
        chunks = _chunks(xp.shape)
        tmp = work.get("tmp", (chunks[0].stop, o, n))
        taps = w.reshape(o, c, k * k).transpose(2, 0, 1).copy()
    # zeroed, so the never-written tail of each plane is never uninitialized memory
    out = work.get(name, (chunks[0].stop, o, oh * width), zeroed=True)
    for rows in chunks:
        m = rows.stop - rows.start
        z = out[:m]
        if c == 1:
            cols, _ = im2col(xp[rows], k, 1, work)
            np.matmul(w, cols, out=z)
        elif o == 1:
            for s in range(m):
                np.matmul(taps, flat[rows.start + s], out=prods)
                total = z[s, 0, :n]
                np.copyto(total, prods[0, :n])
                for t in range(1, k * k):
                    off = (t // k) * wp + t % k
                    total += prods[t, off : off + n]
        else:
            total, part = z[:, :, :n], tmp[:m]
            np.matmul(taps[0], flat[rows, :, :n], out=total)
            for t in range(1, k * k):
                off = (t // k) * wp + t % k
                np.matmul(taps[t], flat[rows, :, off : off + n], out=part)
                total += part
        done(rows, z, z.reshape(m, o, oh, width)[:, :, :, :ow])


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


def phase_blocks(k: int, pad: int, f: int) -> list:
    """Per row phase p, the [lo, hi) run of window row offsets its taps read.

    Tap row ki of phase p reads offset (p + ki - pad) // f + pad', so a
    phase reads one contiguous run, and both ends rise with p. At f = 1
    the one phase reads every offset of the k x k window.
    """
    lo = -(-pad // f)
    return [((p - pad) // f + lo, (p + k - 1 - pad) // f + lo + 1) for p in range(f)]


class Conv2d:
    """2-D convolution (cross-correlation) over (B, C, H, W) tensors.

    With upsample=f > 1 the layer is a nearest f-fold upsample followed by
    this stride-1 conv, computed at the input's resolution. A plain stride-1
    layer runs the tap kernel, every other layer the patch kernel (module
    docstring).
    """

    def __init__(self, rng: np.random.Generator, in_ch: int, out_ch: int, k: int,
                 stride: int = 1, pad: int = 1, upsample: int = 1):
        if stride == 1 and k != 2 * pad + 1 or upsample > 1 and stride != 1:
            raise ParameterError("a stride-1 conv needs k = 2*pad + 1, an upsampling conv stride 1")
        fan_in = in_ch * k * k
        self.w = rng.standard_normal((out_ch, fan_in)) * np.sqrt(2.0 / fan_in)
        self.b = np.zeros(out_ch)
        self.k, self.stride, self.pad, self.upsample = k, stride, pad, upsample
        self.in_ch, self.out_ch = in_ch, out_ch
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._cache = None
        self._work = Workspace()
        self._fold = upsample_fold(k, pad, upsample) if upsample > 1 else None
        self._blocks = phase_blocks(k, pad, upsample)
        # the input gradient's blocks: runs [a0, a1) of row offsets read by the
        # same phases [p0, p1), contiguous since both block ends rise with p
        runs: list = []
        for a in range(self._blocks[-1][1]):
            phases = [p for p, (lo, hi) in enumerate(self._blocks) if lo <= a < hi]
            if runs and runs[-1][2:] == [phases[0], phases[-1] + 1]:
                runs[-1][1] = a + 1
            else:
                runs.append([a, a + 1, phases[0], phases[-1] + 1])
        self._runs = runs

    def _patch_geometry(self):
        """(f, k', pad') of the patch kernel: the layer's own k and pad at f = 1."""
        lo = -(-self.pad // self.upsample)
        return self.upsample, self.k + 2 * (lo - self.pad), lo

    def _patch_weights(self) -> np.ndarray:
        """w as (f*f*out_ch, k'*k'*C) patch weights: rows (p, q, o), columns (di, dj, c).

        At f > 1, w folded through upsample_fold; at f = 1, w's columns reordered.
        """
        f, kk, _ = self._patch_geometry()
        o, c = self.out_ch, self.in_ch
        if f == 1:
            return self.w.reshape(o, c, kk, kk).transpose(0, 2, 3, 1).reshape(o, kk * kk * c)
        folded = self.w.reshape(o * c, self.k * self.k) @ self._fold
        return folded.reshape(o, c, f, f, kk, kk).transpose(2, 3, 0, 4, 5, 1).reshape(
            f * f * o, kk * kk * c)

    def out_shape(self, x_shape: tuple) -> tuple:
        """The output shape of a forward of an input of x_shape."""
        f, kk, lo = self._patch_geometry()
        b, _, h, w = x_shape
        s = self.stride
        return (b, self.out_ch, f * ((h + 2 * lo - kk) // s + 1), f * ((w + 2 * lo - kk) // s + 1))

    def input_slot(self, x_shape: tuple) -> np.ndarray:
        """The interior of this layer's padded input for an input of x_shape.

        A forward of this very view skips its pad copy, so a layer that writes
        its output here hands it over without one.
        """
        return _padded(x_shape, self._patch_geometry()[2], self._work)[1]

    def forward(self, x: np.ndarray, *, out: np.ndarray | None = None,
                rectify: bool = False) -> np.ndarray:
        """The output, written into out (default: a new array) and returned.

        Per chunk of samples, the GEMM result gets its bias and then, with
        rectify on, `relu` in place while it is in cache, before it is copied
        to out.
        """
        f, kk, lo = self._patch_geometry()
        y = np.empty(self.out_shape(x.shape)) if out is None else out
        xp = _pad2(x, lo, self._work)
        if self.stride == 1 and f == 1:
            self._cache = (xp, None)

            def done(rows, z, zv):
                z += np.repeat(self.b, z.shape[2]).reshape(self.out_ch, -1)
                if rectify:
                    relu(z)
                np.copyto(y[rows], zv)

            correlate(xp, self.w, self.k, self._work, done)
            return y
        b, c = x.shape[:2]
        o, s = self.out_ch, self.stride
        oh, ow = (xp.shape[2] - kk) // s + 1, (xp.shape[3] - kk) // s + 1
        wp = self._patch_weights()
        self._cache = (xp, wp)
        fo, kc = f * o, kk * c  # rows of one row phase (q, o); columns of one row offset (dj, c)
        chunks = _chunks((b, kk * kk * c, oh * ow))
        z = self._work.get("z", (chunks[0].stop, f * fo, oh * ow))
        # the bias of each (p, q, o) row, as a plane: numpy adds a plane faster than a
        # broadcast column, whose inner loop has a 0 stride
        bias = np.repeat(np.tile(self.b, f * f), oh * ow).reshape(f * fo, oh * ow)
        for rows in chunks:
            m = rows.stop - rows.start
            cols, _ = im2col(xp[rows], kk, s, self._work)
            for p, (a0, a1) in enumerate(self._blocks):
                np.matmul(wp[p * fo : (p + 1) * fo, a0 * kc : a1 * kc], cols[:, a0 * kc : a1 * kc],
                          out=z[:m, p * fo : (p + 1) * fo])
            zm = z[:m]
            zm += bias
            if rectify:
                relu(zm)
            zs = zm.reshape(m, f, f, o, oh, ow)
            # depth-to-space, one column phase q at a time, through a view of y's
            # rows as (m, o, i, p, j, q); copy=False raises where that needs a copy
            y6 = y[rows].reshape(m, o, oh, f, ow, f, copy=False)
            for q in range(f):
                np.copyto(y6[..., q], zs[:, :, q].transpose(0, 2, 3, 1, 4))
        return y

    def backward(self, dout: np.ndarray, input_grad: bool = True, rectified: bool = False):
        """Write gw/gb; return the input gradient, or None with input_grad off.

        The input gradient is a new array, unless rectified says that the
        forward's input is a Relu's output: then each chunk of it gets
        `Relu.backward`'s multiply by that input > 0 while it is in cache and
        is written into the interior of this layer's padded input, once the
        weight gradient and the mask have read those rows, and that view is
        returned. The forward's input is then spent: a next backward needs a
        forward first.
        """
        xp, wp = self._cache
        self.gb[...] = dout.sum(axis=(0, 2, 3))
        f, kk, lo = self._patch_geometry()
        b, c, hp, wpad = xp.shape
        x_shape = (b, c, hp - 2 * lo, wpad - 2 * lo)
        if not input_grad:
            dx = finish = None
        elif not rectified:
            dx = np.empty(x_shape)

            def finish(rows, g):  # g: the input gradient of samples rows, in scratch
                np.copyto(dx[rows], g)
        else:
            dx = xp[:, :, lo : hp - lo, lo : wpad - lo]

            def finish(rows, g):
                g *= dx[rows] > 0
                np.add(g, 0.0, out=dx[rows])

        if self.stride == 1 and f == 1:
            self._backward_taps(xp, dout, finish)
            return dx
        o, s = self.out_ch, self.stride
        oh, ow = dout.shape[2] // f, dout.shape[3] // f
        fo, kc = f * o, kk * c
        chunks = _chunks((b, kk * kk * c, oh * ow))
        n = chunks[0].stop  # samples in a chunk
        dz = self._work.get("z", (n, f * fo, oh * ow))  # the forward's z is spent
        # the weight gradient's blocks outside a phase's offsets are never written
        prods = self._work.get("wgrad", (b, f * fo, kk * kc), zeroed=True)
        dcols = self._work.get("dcols", (n, kk * kc, oh * ow)) if input_grad else None
        for rows in chunks:
            m = rows.stop - rows.start
            cols, _ = im2col(xp[rows], kk, s, self._work)  # the forward's, rebuilt
            # space-to-depth: (o, i, p, j, q) -> (p, q, o, i, j)
            np.copyto(dz[:m].reshape(m, f, f, o, oh, ow),
                      dout[rows].reshape(m, o, oh, f, ow, f).transpose(0, 3, 5, 1, 2, 4))
            for p, (a0, a1) in enumerate(self._blocks):
                np.matmul(dz[:m, p * fo : (p + 1) * fo],
                          cols[:, a0 * kc : a1 * kc].transpose(0, 2, 1),
                          out=prods[rows, p * fo : (p + 1) * fo, a0 * kc : a1 * kc])
            if input_grad:
                for a0, a1, p0, p1 in self._runs:
                    np.matmul(wp[p0 * fo : p1 * fo, a0 * kc : a1 * kc].T, dz[:m, p0 * fo : p1 * fo],
                              out=dcols[:m, a0 * kc : a1 * kc])
                finish(rows, col2im(dcols[:m], (m, *x_shape[1:]), kk, s, lo, oh, ow, self._work))
        gw = prods.sum(axis=0).reshape(f, f, o, kk, kk, c).transpose(2, 5, 0, 1, 3, 4)
        if f > 1:
            gw = gw.reshape(o * c, f * f * kk * kk) @ self._fold.T
        self.gw[...] = gw.reshape(o, -1)
        return dx

    def _backward_taps(self, xp: np.ndarray, dout: np.ndarray, finish) -> None:
        """The tap kernel's gw and, unless finish is None, its input gradient,
        one chunk of samples at a time: each chunk's input gradient goes
        through finish(rows, chunk) once its weight-gradient products are made."""
        b, c, hp, wp = xp.shape
        o, k, pad = self.out_ch, self.k, self.pad
        oh, ow = dout.shape[2:]
        n = (oh - 1) * wp + ow
        flat = xp.reshape(b, c, hp * wp)
        prods = self._work.get("wgrad", (b, k * k, o, c))
        flipped = self.w.reshape(o, c, k, k)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        flipped = flipped.reshape(c, o * k * k)
        # the forward's accumulator where it has this shape; at one plane in or out it
        # has another, and sharing its name would reallocate it every call
        acc = "acc" if c == o else "dacc"
        for rows in _chunks((b, max(c, o), hp, wp)):  # the wider of xp and the padded dout
            # a chunk of dout padded by pad (k = 2*pad + 1) has rows wp wide: from
            # pad*(wp + 1) on, its flat plane is dout on the (oh, wp) grid, zero in
            # the dropped columns
            dp = _pad2(dout[rows], pad, self._work, "dpad")
            dgrid = dp.reshape(len(dp), o, hp * wp)[:, :, pad * (wp + 1) : pad * (wp + 1) + n]
            for t in range(k * k):
                off = (t // k) * wp + t % k
                np.matmul(dgrid, flat[rows, :, off : off + n].transpose(0, 2, 1),
                          out=prods[rows, t])
            if finish is not None:
                start = rows.start
                correlate(dp, flipped, k, self._work,
                          lambda r, z, zv: finish(slice(start + r.start, start + r.stop), zv), acc)
        # one sum over samples, in sample order, as a per-sample loop would add them
        self.gw[...] = prods.sum(axis=0).transpose(1, 2, 0).reshape(o, c * k * k)


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

    def out_shape(self, x_shape: tuple) -> tuple:
        return (x_shape[0], self.w.shape[1])

    def forward(self, x: np.ndarray, *, out: np.ndarray | None = None,
                rectify: bool = False) -> np.ndarray:
        """x @ w + b, written into out (default: a new array), with rectify on
        passed through `relu` in place, and returned."""
        self._cache = x
        y = np.matmul(x, self.w, out=out)
        y += self.b
        if rectify:
            relu(y)
        return y

    def backward(self, dout: np.ndarray, input_grad: bool = True):
        """Write gw/gb; return the input gradient, or None with input_grad off."""
        x = self._cache
        np.matmul(x.T, dout, out=self.gw)
        np.add.reduce(dout, axis=0, out=self.gb)
        return dout @ self.w.T if input_grad else None


class Relu:
    """max(x, 0), with mask record/replay for finite-difference checks.

    Its mask is its output > 0 (`relu`), so it holds its output and nothing
    else: a new array from `forward`, or, in a chain, the output of the
    layer it runs inside, which it does not copy. In "record" mode every
    forward also appends output > 0 to a log; in "replay" mode forwards
    apply the logged masks in call order with np.where, and hold them,
    instead of recomputing them, so a finite-difference probe stays on the
    smooth branch chosen at the base point even for units sitting exactly at
    the kink (the case at initialization, where biases are zero). A layer
    may run several times per loss evaluation (e.g. a discriminator on real
    then fake), hence the per-call log; `set_mask_mode` rewinds it before
    each evaluation.
    """

    def __init__(self):
        self._cache = None
        self.mask_mode = "normal"
        self.mask_log: list = []
        self.replay_idx = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        """max(x, 0) as a new array; in replay mode np.where(the next logged mask, x, 0.0)."""
        if self.mask_mode == "replay":
            self._cache = self.mask_log[self.replay_idx]
            self.replay_idx += 1
            return np.where(self._cache, x, 0.0)
        return self.hold(relu(x.copy()))

    def hold(self, y: np.ndarray) -> np.ndarray:
        """Keep y, this Relu's output, for backward (and log y > 0 in record mode); return y."""
        self._cache = y
        if self.mask_mode == "record":
            self.mask_log.append(y > 0)
        return y

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """dout times the mask (the held output, or logged mask, > 0), plus 0.0,
        written over dout and returned.

        That is np.where(mask, dout, 0.0) but at two kinds of entry (module
        docstring). In a chain, dout is the new input gradient of the layer
        above, or chain_backward's own dout when the Relu is the last layer.
        """
        np.multiply(dout, self._cache > 0, out=dout)
        dout += 0.0
        return dout


def set_mask_mode(layers, mode: str) -> None:
    """Set every Relu's mask mode ("normal", "record" or "replay") and rewind its
    replay; any mode but "replay" clears the log."""
    for layer in layers:
        if isinstance(layer, Relu):
            layer.mask_mode = mode
            layer.replay_idx = 0
            if mode != "replay":
                layer.mask_log = []


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


def _run_chain(layers, x: np.ndarray, keep_cache: bool) -> np.ndarray:
    """The forward chain; without keep_cache no layer keeps a cache.

    A Relu right after a Conv2d or Dense, but in replay mode, runs inside
    that layer's forward (rectify), on each chunk of its output while it is in
    cache, and holds that output; when a Conv2d follows the Relu, the first
    conv writes its output straight into the second's padded input.
    """
    i = 0
    while i < len(layers):
        layer, after = layers[i], layers[i + 1 : i + 3]
        ran = layers[i : i + 1]
        if (isinstance(layer, (Conv2d, Dense)) and after and isinstance(after[0], Relu)
                and after[0].mask_mode != "replay"):
            slot = (after[1].input_slot(layer.out_shape(x.shape))
                    if len(after) == 2 and isinstance(after[1], Conv2d) else None)
            x = after[0].hold(layer.forward(x, out=slot, rectify=True))
            ran = layers[i : i + 2]
        else:
            x = layer.forward(x)
        if not keep_cache:
            for each in ran:
                each._cache = None
        i += len(ran)
    return x


def chain_forward(layers, x: np.ndarray) -> np.ndarray:
    return _run_chain(layers, x, keep_cache=True)


def chain_infer(layers, x: np.ndarray) -> np.ndarray:
    """chain_forward for passes that never run backward: no layer keeps its cache."""
    return _run_chain(layers, x, keep_cache=False)


def chain_backward(layers, dout: np.ndarray, input_grad: bool = True):
    """Backward through layers in reverse order; returns the input gradient.

    With input_grad off the first layer, a Dense or Conv2d, skips its input
    gradient and None is returned. A Relu between two Conv2d layers runs
    inside the upper conv's backward (`Conv2d.backward`'s rectified), unless
    it is in replay mode, whose forward ran it on its own, or the lower conv
    has one output plane: numpy sums a one-plane dout for gb in another order
    when it is a view into a padded array.
    """
    i = len(layers) - 1
    while i > 0:
        layer, middle, lower = layers[i], layers[i - 1], layers[i - 2] if i > 1 else None
        if (isinstance(layer, Conv2d) and isinstance(middle, Relu) and isinstance(lower, Conv2d)
                and lower.out_ch > 1 and middle.mask_mode != "replay"):
            dout = layer.backward(dout, rectified=True)
            i -= 2
        else:
            dout = layer.backward(dout)
            i -= 1
    if input_grad:
        return layers[0].backward(dout)
    return layers[0].backward(dout, input_grad=False)


def drop_scratch(layers) -> None:
    """Free what layers keep between passes, their backward caches and Workspace arrays."""
    for layer in layers:
        layer._cache = None
        if hasattr(layer, "_work"):
            layer._work.clear()


def weighted_layers(layers):
    return [layer for layer in layers if hasattr(layer, "w")]


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


def train_epochs(n: int, epochs: int, batch_size: int, seed: int, step, guard: tuple,
                 limits: dict | None = None):
    """Run epochs of step over n rows shuffled by the seed's "batches" stream.

    step(idx) takes one optimizer step on rows idx and returns (losses, weight);
    a term's epoch trace value is sum(weight * loss) / sum(weight). Returns a
    one-term trace as its list, else a dict of lists. Raises TrainingError, with
    the trace, when a term's epoch mean is non-finite or above its entry in
    limits (term -> bound), both checked after every epoch, or when the guard
    terms' sum ends above twice its first-step value, on the untrained weights.
    A run that learns nothing ends near that value (a binary classifier on the
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
        for key, bound in (limits or {}).items():
            if trace[key][-1] > bound:
                means = ", ".join(f"{value:.6g}" for value in trace[key])
                raise TrainingError(f"training diverged: epoch means of {key} [{means}] went "
                                    f"above {bound:.6g}", trace=shaped)
    last = sum(trace[key][-1] for key in guard)
    if last > 2.0 * first:
        raise TrainingError(
            f"training diverged: final {' + '.join(guard)} {last:.6g} is more than twice "
            f"its untrained value {first:.6g}",
            trace=shaped,
        )
    return shaped
