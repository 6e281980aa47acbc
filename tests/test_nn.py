"""Conv2d against a direct convolution, finite differences and its own adjoint;
the upsampling conv against an explicit upsample and conv, and its row-phase
blocks against the fold; batch passes against per-sample passes, bit for bit,
and returned arrays against the layers' held scratch; backward writing every
gradient entry; Relu's mask log, its output as its own mask, and the chains
that run it inside the conv or dense layer before it (and, backward, inside
the conv after it) against the layers run one by one; the ReLU forward and
backward against np.where; sigmoid's special values; the shared epoch loop."""

import numpy as np
import pytest

from cdp_authkit.checks import fd_gradient
from cdp_authkit.deepfeat import AeConfig, build_ae_model, decode, encode
from cdp_authkit import nn
from cdp_authkit.errors import ParameterError, TrainingError
from cdp_authkit.nn import (
    Conv2d,
    Dense,
    Relu,
    UpsampleNearest,
    Workspace,
    chain_backward,
    chain_forward,
    chain_infer,
    col2im,
    drop_scratch,
    im2col,
    phase_blocks,
    set_mask_mode,
    sigmoid,
    train_epochs,
    upsample_fold,
    weighted_layers,
)
from references import conv2d_direct

# The two geometries deepfeat builds, the strided first encoder layer
# (k = symbol_px + 2, stride = symbol_px, one input plane) and the 3x3
# stride-1 layers, plus non-square stride-1 inputs (Hp != Wp) with several
# planes and with one plane; (in_ch, k, stride, (h, w)).
DEEPFEAT_GEOMETRIES = [(1, 5, 3, (12, 12)), (3, 3, 1, (5, 5))]
GEOMETRIES = DEEPFEAT_GEOMETRIES + [(8, 3, 1, (5, 7)), (1, 3, 1, (6, 4))]


def _sides(hw):
    """(h,) for a square input, so square cases keep their test ids and seeds."""
    return hw[:1] if hw[0] == hw[1] else hw


def _cases(geometries):
    cases = [(*g, out_ch) for g in geometries for out_ch in (1, 8)]
    ids = [f"{c}-{k}-{s}-{'x'.join(map(str, _sides(hw)))}-{o}" for c, k, s, hw, o in cases]
    return pytest.mark.parametrize("in_ch,k,stride,hw,out_ch", cases, ids=ids)


def _layer_and_input(in_ch, k, stride, hw, out_ch):
    rng = np.random.default_rng([in_ch, k, stride, *_sides(hw), out_ch])
    layer = Conv2d(rng, in_ch, out_ch, k=k, stride=stride, pad=1)
    layer.b = rng.standard_normal(out_ch)
    x = rng.standard_normal((2, in_ch, *hw))
    return layer, x, rng


def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b))


@_cases(GEOMETRIES)
def test_forward_matches_direct_convolution(in_ch, k, stride, hw, out_ch):
    layer, x, _ = _layer_and_input(in_ch, k, stride, hw, out_ch)
    got = layer.forward(x)
    want = conv2d_direct(x, layer.w, layer.b, k, stride, 1)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


@_cases(GEOMETRIES)
def test_gradients_match_finite_differences(in_ch, k, stride, hw, out_ch):
    layer, x, rng = _layer_and_input(in_ch, k, stride, hw, out_ch)
    r = rng.standard_normal(layer.forward(x).shape)

    def loss():
        return float((layer.forward(x) * r).sum())

    layer.forward(x)
    dx = layer.backward(r)
    gw, gb = layer.gw.copy(), layer.gb.copy()
    layer.forward(x)
    assert layer.backward(r, input_grad=False) is None  # skips the input gradient only
    assert np.array_equal(layer.gw, gw) and np.array_equal(layer.gb, gb)
    assert _rel_err(dx, fd_gradient(loss, x, step=1e-6)) < 1e-7
    assert _rel_err(layer.gw, fd_gradient(loss, layer.w, step=1e-6)) < 1e-7
    assert _rel_err(layer.gb, fd_gradient(loss, layer.b, step=1e-6)) < 1e-7


@_cases(DEEPFEAT_GEOMETRIES)
def test_col2im_is_adjoint_of_im2col(in_ch, k, stride, hw, out_ch):
    _, x, rng = _layer_and_input(in_ch, k, stride, hw, out_ch)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols, (oh, ow) = im2col(xp, k, stride, Workspace())
    d = rng.standard_normal(cols.shape)
    dx = col2im(d, x.shape, k, stride, 1, oh, ow, Workspace())
    lhs = float((dx * x).sum())
    rhs = float((d * cols).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def _upsampling_pair(f, in_ch, out_ch, hw):
    """(fused, plain, x): Conv2d(upsample=f) and a plain Conv2d on the same weights."""
    rng = np.random.default_rng([f, in_ch, out_ch, *hw])
    plain = Conv2d(rng, in_ch, out_ch, k=3, stride=1, pad=1)
    plain.b = rng.standard_normal(out_ch)
    fused = Conv2d(rng, in_ch, out_ch, k=3, stride=1, pad=1, upsample=f)
    fused.w, fused.b = plain.w.copy(), plain.b.copy()
    return fused, plain, rng.standard_normal((2, in_ch, *hw))


@pytest.mark.parametrize("f", [2, 3, 4])
@pytest.mark.parametrize("in_ch,out_ch", [(1, 1), (1, 8), (8, 1), (8, 8)])
def test_upsampling_conv_matches_upsample_then_conv(f, in_ch, out_ch):
    fused, plain, x = _upsampling_pair(f, in_ch, out_ch, (4, 3))
    up = UpsampleNearest(f)
    got = fused.forward(x)
    want = conv2d_direct(up.forward(x), plain.w, plain.b, 3, 1, 1)
    assert got.shape == want.shape == (2, out_ch, 4 * f, 3 * f)
    assert np.abs(got - want).max() <= 1e-12
    # gradients against the unfused chain, whose layers are checked above
    dout = np.random.default_rng(f).standard_normal(got.shape)
    plain.forward(up.forward(x))
    want_dx = up.backward(plain.backward(dout))
    assert np.abs(fused.backward(dout) - want_dx).max() <= 1e-12
    assert np.abs(fused.gw - plain.gw).max() <= 1e-12
    assert np.abs(fused.gb - plain.gb).max() <= 1e-12
    assert fused.backward(dout, input_grad=False) is None


@pytest.mark.parametrize("chunk", ["one-sample", "whole-batch"])
def test_depth_to_space_writes_through_a_view_of_the_slot(monkeypatch, chunk):
    """The upsampling conv writes its output into the next conv's padded input
    through a (m, o, i, p, j, q) view of the slot's rows, one column phase at a
    time: the same bits as into a new array, and the zero border untouched."""
    monkeypatch.setattr(nn, "CHUNK_BYTES", 1 if chunk == "one-sample" else 1 << 40)
    fused, _, x = _upsampling_pair(3, 8, 8, (4, 3))
    above = Conv2d(np.random.default_rng(1), 8, 1, k=3, stride=1, pad=1)
    want = fused.forward(x)
    slot = above.input_slot(want.shape)
    b, o, h, w = slot.shape
    assert np.shares_memory(slot[:1].reshape(1, o, h // 3, 3, w // 3, 3, copy=False), slot)
    assert fused.forward(x, out=slot) is slot
    assert _same_bits(slot.copy(), want)
    border = above._work._arrays["xp"].copy()
    border[:, :, 1:-1, 1:-1] = 0.0
    assert not border.any()


def test_upsampling_conv_gradients_match_finite_differences():
    fused, _, x = _upsampling_pair(3, 2, 3, (4, 3))
    r = np.random.default_rng(7).standard_normal(fused.forward(x).shape)

    def loss():
        return float((fused.forward(x) * r).sum())

    fused.forward(x)
    dx = fused.backward(r)
    assert _rel_err(dx, fd_gradient(loss, x, step=1e-6)) < 1e-7
    assert _rel_err(fused.gw, fd_gradient(loss, fused.w, step=1e-6)) < 1e-7
    assert _rel_err(fused.gb, fd_gradient(loss, fused.b, step=1e-6)) < 1e-7


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_phase_blocks_are_the_live_row_offsets_of_the_fold(f):
    # fold axes: (tap row, tap column, row phase, column phase, row offset, column offset)
    fold = upsample_fold(3, 1, f).reshape(3, 3, f, f, 3, 3)
    blocks = phase_blocks(3, 1, f)
    for p, (lo, hi) in enumerate(blocks):
        assert np.flatnonzero(fold[:, :, p].any(axis=(0, 1, 2, 4))).tolist() == list(range(lo, hi))
    if f == 1:  # one block spans every column of the patch matrix
        assert blocks == [(0, 3)]
    if f == 3:  # 45 of the 81 (phase, offset) slots are computed
        assert sum((hi - lo) * 3 * f for lo, hi in blocks) == 45
    assert Conv2d(np.random.default_rng(0), 2, 2, k=3, upsample=f)._blocks == blocks
    # the strided encoder conv (k = symbol_px + 2, stride = symbol_px) is one block too
    assert Conv2d(np.random.default_rng(0), 1, 2, k=5, stride=3)._blocks == [(0, 5)]


def test_upsampling_conv_needs_a_same_padded_stride_1_conv():
    rng = np.random.default_rng(0)
    for k, stride, pad in ((3, 2, 1), (3, 1, 0), (4, 1, 1)):
        with pytest.raises(ParameterError):
            Conv2d(rng, 2, 2, k=k, stride=stride, pad=pad, upsample=2)
    with pytest.raises(ParameterError):  # the tap backward reads dout padded by pad
        Conv2d(rng, 2, 2, k=3, stride=1, pad=0)


def test_decode_matches_the_unfused_decoder_on_the_same_weights():
    # the decoder stores the weights an upsample followed by a plain conv would
    # use, so a model file reads the same either way
    model = build_ae_model(3, 5, 3, AeConfig(channels=8, seed=4))
    rng = np.random.default_rng(5)
    first, _, fused, _, last = model.decoder
    for layer in (first, fused, last):
        layer.b = 0.1 * rng.standard_normal(layer.b.shape)
    plain = Conv2d(rng, 8, 8, k=3, stride=1, pad=1)
    plain.w, plain.b = fused.w, fused.b
    t_hat = rng.random((3, 5, 5))
    unfused = [first, Relu(), UpsampleNearest(3), plain, Relu(), last]
    want = np.clip(chain_infer(unfused, t_hat[:, None])[:, 0], 0.0, 1.0)
    got = decode(model, t_hat)
    assert got.shape == (3, 15, 15)
    assert np.abs(got - want).max() <= 1e-12


def test_encode_is_batch_independent_and_inference_keeps_no_cache():
    model = build_ae_model(3, 4, 3, AeConfig(channels=8, seed=1))
    images = np.random.default_rng(2).random((5, 12, 12))
    batched = encode(model, images)
    for i, image in enumerate(images):
        assert np.array_equal(encode(model, image)[0], batched[i])
    decode(model, batched)
    for layers in (model.encoder, model.decoder):
        for layer in layers:
            assert layer._cache is None, type(layer).__name__


def test_epoch_loop_weights_batches_and_guards_the_named_terms():
    # rows 0..4 in batches of 2, 2, 1: the row-weighted mean of each batch's
    # mean row index is the mean index 2.0, whatever the shuffle
    trace = train_epochs(5, 2, 2, 0, lambda idx: ({"loss": float(np.mean(idx))}, len(idx)),
                         ("loss",))
    assert trace == [2.0, 2.0]

    def stepper(later, other=5.0):
        calls = []

        def step(idx):
            calls.append(idx)
            return {"a": 1.0 if len(calls) == 1 else later, "b": 0.0, "other": other}, 1
        return step

    # the guard is twice the first step's sum of the named terms; "other" may rise
    assert train_epochs(4, 3, 2, 0, stepper(2.0, 1e9), ("a", "b"))["a"][-1] == 2.0
    with pytest.raises(TrainingError, match="a \\+ b 2.5 is more than twice") as info:
        train_epochs(4, 3, 2, 0, stepper(2.5), ("a", "b"))
    assert len(info.value.trace["a"]) == 3
    # any non-finite term stops the run after its epoch
    with pytest.raises(TrainingError, match="non-finite") as info:
        train_epochs(4, 3, 2, 0, stepper(1.0, np.inf), ("a", "b"))
    assert set(info.value.trace) == {"a", "b", "other"} and len(info.value.trace["a"]) == 1


def test_epoch_loop_stops_at_the_first_epoch_over_a_limit():
    def stepper():
        means = iter([1.0, 1.0, 50.0, 50.0, 2.0, 2.0])  # epoch means 1, 50, 2 over batches of 2
        return lambda idx: ({"a": 0.5, "adv": next(means)}, 1)

    assert train_epochs(4, 1, 2, 0, stepper(), ("a",), limits={"adv": 1.0})["adv"] == [1.0]
    with pytest.raises(TrainingError, match=r"epoch means of adv \[1, 50\] went above 36") as info:
        train_epochs(4, 3, 2, 0, stepper(), ("a",), limits={"adv": 36.0})
    assert info.value.trace == {"a": [0.5, 0.5], "adv": [1.0, 50.0]}


# Every Conv2d path at sizes that split a batch into several sample chunks,
# the last one short: (in_ch, out_ch, k, stride, upsample, (h, w)).
CHUNKED_PATHS = {
    "strided": (1, 8, 5, 3, 1, (36, 36)),
    "stride1-planes": (8, 8, 3, 1, 1, (41, 43)),
    "one-plane-in": (1, 8, 3, 1, 1, (41, 43)),
    "one-plane-out": (8, 1, 3, 1, 1, (41, 43)),
    "upsample3": (8, 8, 3, 1, 3, (12, 14)),
}


def _chunked_layer(path, batch):
    in_ch, out_ch, k, stride, up, hw = CHUNKED_PATHS[path]
    rng = np.random.default_rng([len(path), batch])
    layer = Conv2d(rng, in_ch, out_ch, k=k, stride=stride, pad=1, upsample=up)
    layer.b = rng.standard_normal(out_ch)
    twin = Conv2d(rng, in_ch, out_ch, k=k, stride=stride, pad=1, upsample=up)
    twin.w, twin.b = layer.w.copy(), layer.b.copy()
    x = rng.standard_normal((batch, in_ch, *hw))
    dout = rng.standard_normal(layer.forward(x).shape)
    return layer, twin, x, dout, rng


@pytest.mark.parametrize("batch", [16, 5])
@pytest.mark.parametrize("path", sorted(CHUNKED_PATHS))
def test_batch_pass_is_the_per_sample_passes_bit_for_bit(path, batch):
    layer, twin, x, dout, _ = _chunked_layer(path, batch)
    y = layer.forward(x)
    dx = layer.backward(dout)
    ys, dxs = [], []
    gw, gb = np.zeros_like(twin.gw), np.zeros_like(twin.gb)
    for s in range(batch):  # add up the per-sample gradients in sample order
        ys.append(twin.forward(x[s : s + 1]))
        dxs.append(twin.backward(dout[s : s + 1]))
        gw += twin.gw
        gb += twin.gb
    assert np.array_equal(y, np.concatenate(ys))
    assert np.array_equal(dx, np.concatenate(dxs))
    if path == "upsample3":
        # the phase gradients add up in sample order too, but the fold back to
        # tap weights runs once on their sum, not once per sample
        assert _rel_err(layer.gw, gw) < 1e-14
    else:
        assert np.array_equal(layer.gw, gw)
    assert _rel_err(layer.gb, gb) < 1e-14  # numpy's own reduction order


@pytest.mark.parametrize("path", sorted(CHUNKED_PATHS) + ["dense"])
def test_backward_writes_every_gradient_entry(path):
    """A backward writes gw/gb in place of the last pass's: NaN-prefilled
    entries are all overwritten, and a second backward of the same pass gives
    the same bits, not their sum."""
    if path == "dense":
        rng = np.random.default_rng(11)
        layer = Dense(rng, 7, 5)
        x, dout = rng.standard_normal((16, 7)), rng.standard_normal((16, 5))
    else:
        layer, _, x, dout, _ = _chunked_layer(path, 16)
    held = layer.gw, layer.gb
    layer.forward(x)
    layer.gw[...], layer.gb[...] = np.nan, np.nan
    layer.backward(dout)
    assert layer.gw is held[0] and layer.gb is held[1]
    assert not np.isnan(layer.gw).any() and not np.isnan(layer.gb).any()
    first = layer.gw.copy(), layer.gb.copy()
    layer.backward(dout)
    assert _same_bits(layer.gw, first[0]) and _same_bits(layer.gb, first[1])


@pytest.mark.parametrize("path", sorted(CHUNKED_PATHS))
def test_returned_arrays_are_never_reused(path):
    layer, _, x, dout, rng = _chunked_layer(path, 16)
    y, dx = layer.forward(x), layer.backward(dout)
    kept = y.copy(), dx.copy()
    for batch in (16, 5, 16):  # same shape, a short batch, then the held size again
        x2 = rng.standard_normal((batch,) + x.shape[1:])
        y2 = layer.forward(x2)
        dx2 = layer.backward(rng.standard_normal(y2.shape))
        assert not np.shares_memory(y2, y) and not np.shares_memory(dx2, dx)
    assert np.array_equal(y, kept[0]) and np.array_equal(dx, kept[1])


def test_relu_records_a_copy_of_each_mask():
    relu = Relu()
    set_mask_mode([relu], "record")
    xs = np.random.default_rng(3).standard_normal((2, 4, 3, 5, 5))
    for x in xs:
        relu.forward(x)
    assert [np.array_equal(mask, x > 0) for mask, x in zip(relu.mask_log, xs)] == [True, True]
    set_mask_mode([relu], "replay")
    probe = np.ones_like(xs[0])
    assert [np.array_equal(relu.forward(probe), x > 0) for x in xs] == [True, True]


def test_relu_forward_is_where_bit_for_bit_on_special_values():
    # and its output is its own mask: relu(x) > 0 is x > 0 at every kind of float64;
    # the lengths put -0.0 both in numpy's vector loops and in their scalar tails
    special = [-0.0, np.nan, -np.inf, -1.0, 0.0, 5e-324, -5e-324, 1.0, np.inf]
    for n in range(1, 21):
        x = np.resize(np.array(special), (1, n))
        got = Relu().forward(x)
        assert np.array_equal(got.view(np.int64), np.where(x > 0, x, 0.0).view(np.int64))
        assert np.array_equal(got > 0, x > 0)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _special_chain(group: str):
    """An AE encoder or decoder, or the [Dense, Relu, Dense] template
    discriminator ("mlp"), whose first layer's output, the first Relu's input,
    holds NaN, +inf and -inf, plus its input batch of 7 samples. (A GEMM sum
    starts from +0.0, so no conv output is -0.0: see the next test.)"""
    model = build_ae_model(4, 4, 3, AeConfig(channels=3, disc_hidden=8, seed=9))
    layers = {"encoder": model.encoder, "decoder": model.decoder, "mlp": model.disc_t}[group]
    rng = np.random.default_rng(9)
    for layer in weighted_layers(layers):
        layer.b = rng.standard_normal(layer.b.shape)
    if group == "mlp":
        x = rng.standard_normal((7, 16))
        x[0, 1], x[1, 2], x[2, 3] = np.inf, -np.inf, np.nan
    else:
        side = 12 if group == "encoder" else 4
        x = rng.standard_normal((7, 1, side, side))
        x[0, 0, 1, 1], x[1, 0, 2, 2], x[2, 0, 0, 3] = np.inf, -np.inf, np.nan
    pre = layers[0].forward(x)
    assert np.isnan(pre).any() and np.isposinf(pre).any() and np.isneginf(pre).any()
    return layers, x


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the GEMMs
def test_relu_act_in_the_patch_kernels_layout_is_where_bit_for_bit():
    """forward(x, rectify=True) runs `relu` on each chunk's GEMM result in its
    own layout, phase layout (m, f, f, o, oh, ow) in the upsampling conv, and
    gives np.where(y > 0, y, 0.0) of the plain forward's y, bit for bit, on
    outputs holding NaN and +-inf: in the upsampling and the strided conv's
    patch kernel, the tap kernel and a Dense."""
    rng = np.random.default_rng(21)
    layers = [(Conv2d(rng, 2, 3, k=3, upsample=3), (4, 2, 6, 6)),
              (Conv2d(rng, 2, 3, k=5, stride=3), (4, 2, 6, 6)),
              (Conv2d(rng, 2, 3, k=3), (4, 2, 6, 6)),
              (Dense(rng, 6, 5), (4, 6))]
    for layer, shape in layers:
        layer.b = rng.standard_normal(layer.b.shape)
        x = rng.standard_normal(shape)
        x.reshape(4, -1)[1:, 0] = np.inf, -np.inf, np.nan  # one special input per sample
        y = layer.forward(x)
        assert np.isnan(y).any() and np.isposinf(y).any() and np.isneginf(y).any()
        assert _same_bits(layer.forward(x, rectify=True), np.where(y > 0, y, 0.0))


def _layer_by_layer(layers, x):
    for layer in layers:
        x = layer.forward(x)
    return x


def _backward_layer_by_layer(layers, dout):
    for layer in reversed(layers):
        dout = layer.backward(dout)
    return dout


def _masks(layers):
    return [layer._cache > 0 for layer in layers if isinstance(layer, Relu)]


def _workspace_arrays(layers):
    return [a for layer in layers if hasattr(layer, "_work") for a in layer._work._arrays.values()]


def _held_arrays(layers):
    """The layers' Workspace arrays and the arrays in their backward caches."""
    cached = [a for layer in layers
              for a in (layer._cache if isinstance(layer._cache, tuple) else (layer._cache,))]
    return _workspace_arrays(layers) + [a for a in cached if isinstance(a, np.ndarray)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the GEMMs
@pytest.mark.parametrize("chunk", ["one-sample", "whole-batch"])
@pytest.mark.parametrize("mode", ["normal", "record", "replay"])
@pytest.mark.parametrize("group", ["encoder", "decoder", "mlp"])
def test_fused_chain_is_the_layer_by_layer_chain_bit_for_bit(group, mode, chunk, monkeypatch):
    """chain_forward runs each Relu inside the Conv2d or Dense before it and
    writes a conv that feeds a Relu and a Conv2d straight into that conv's
    padded input; chain_backward runs a Relu between two Conv2d layers inside
    the upper one's backward. Outputs, masks, gw/gb and dx are the bits of
    running the layers one by one, in every mask mode, at one sample per
    chunk and the whole batch per chunk, for a full batch then a short one on
    the same workspaces, and neither output shares memory with a Workspace.
    In normal mode no layer holds a bool array: a Relu's mask is its held
    output > 0."""
    monkeypatch.setattr(nn, "CHUNK_BYTES", 1 if chunk == "one-sample" else 1 << 40)
    fused, x = _special_chain(group)
    ref, _ = _special_chain(group)
    for layers in (fused, ref):
        set_mask_mode(layers, "record")
    if mode == "replay":  # record on the two batches, then replay the logs on others
        for batch in (x, x[:3]):
            assert _same_bits(chain_forward(fused, batch), _layer_by_layer(ref, batch))
        for layers in (fused, ref):
            set_mask_mode(layers, "replay")
        x = x[::-1].copy()
    else:
        for layers in (fused, ref):
            set_mask_mode(layers, mode)
    for batch in (x, x[:3]):  # a short last batch reuses the held arrays' [:b] views
        got, want = chain_forward(fused, batch), _layer_by_layer(ref, batch)
        assert _same_bits(got, want)
        assert not any(np.shares_memory(got, a) for a in _workspace_arrays(fused))
        assert all(_same_bits(a, b) for a, b in zip(_masks(fused), _masks(ref)))
        if mode == "normal":
            assert not any(a.dtype == bool for a in _held_arrays(fused))
        dout = np.random.default_rng(batch.shape[0]).standard_normal(got.shape)
        dx = chain_backward(fused, dout)
        assert _same_bits(dx, _backward_layer_by_layer(ref, dout))
        assert not any(np.shares_memory(dx, a) for a in _workspace_arrays(fused))
        for a, b in zip(weighted_layers(fused), weighted_layers(ref)):
            assert _same_bits(a.gw, b.gw) and _same_bits(a.gb, b.gb)
    relus = [layer for layer in fused if isinstance(layer, Relu)]
    if mode != "normal":
        assert all(len(relu.mask_log) == 2 for relu in relus)
        assert all(_same_bits(a.mask_log[1], b.mask_log[1])
                   for a, b in zip(relus, [layer for layer in ref if isinstance(layer, Relu)]))
    # forward only, with the caches and scratch dropped first: the same output,
    # no cache kept, and in normal mode no mask made
    for layers in (fused, ref):
        set_mask_mode(layers, mode)
    drop_scratch(fused)
    assert _same_bits(chain_infer(fused, x), _layer_by_layer(ref, x))
    assert all(layer._cache is None for layer in fused)
    if mode == "normal":
        assert not any(a.dtype == bool for a in _held_arrays(fused))


@pytest.mark.parametrize("group", ["encoder", "decoder"])
def test_a_forward_after_a_fused_backward_is_a_fresh_chains_forward(group):
    """A fused backward writes gradients only into the interior of a conv's
    held padded input, so the next forward reads a zero border, as a fresh
    chain with the same weights does."""
    layers, x = _special_chain(group)
    with np.errstate(invalid="ignore"):  # inf - inf in the GEMMs
        y = chain_forward(layers, x)
        chain_backward(layers, np.random.default_rng(1).standard_normal(y.shape))
    fresh, _ = _special_chain(group)
    probe = np.random.default_rng(2).random(x.shape)
    assert _same_bits(chain_forward(layers, probe), chain_forward(fresh, probe))
    assert _same_bits(_layer_by_layer(layers, probe), _layer_by_layer(fresh, probe))


def test_a_one_plane_conv_below_a_relu_keeps_the_layer_by_layer_bits():
    """chain_backward does not fuse a Relu above a one-output-plane conv: numpy
    would sum gb over the view into a padded input in another order than over
    the contiguous array a layer-by-layer pass hands it."""
    rng = np.random.default_rng(13)
    layers = [Conv2d(rng, 1, 1, k=3), Relu(), Conv2d(rng, 1, 2, k=3)]
    x = rng.standard_normal((16, 1, 24, 24))
    dout = rng.standard_normal(chain_forward(layers, x).shape)
    dx = chain_backward(layers, dout)
    grads = [(layer.gw.copy(), layer.gb.copy()) for layer in weighted_layers(layers)]
    _layer_by_layer(layers, x)
    assert _same_bits(dx, _backward_layer_by_layer(layers, dout))
    for layer, (gw, gb) in zip(weighted_layers(layers), grads):
        assert _same_bits(layer.gw, gw) and _same_bits(layer.gb, gb)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0.0
@pytest.mark.parametrize("mode", ["normal", "replay"])
@pytest.mark.parametrize("path", ["relu", "taps", "patches"])
def test_relu_backward_is_where_but_at_two_kinds_of_entry(path, mode, monkeypatch):
    """Relu.backward, with the mask read off its held output or, in replay
    mode, the logged mask, and chain_backward through [conv, Relu, conv] (the
    tap kernel's correlate or the patch kernel's col2im above the Relu, which
    runs inside that conv's backward with the mask read off its padded input,
    or on its own in replay mode) give np.where(mask, dout, 0.0) bit for bit,
    except that a NaN or +-inf dout at an inactive unit gives NaN and a -0.0
    dout at an active unit gives +0.0. The upper conv's own input gradient is
    replaced by dout, since a GEMM sum never ends at -0.0."""
    monkeypatch.setattr(nn, "CHUNK_BYTES", 1 << 40)  # one chunk: the whole batch
    rng = np.random.default_rng(12)
    lower = Conv2d(rng, 1, 2, k=1, pad=0)
    lower.w = np.array([[1.0], [-1.0]])  # exactly one of the two planes is active per pixel
    relu = Relu()
    upper = Conv2d(rng, 2, 3, k=3, upsample=3 if path == "patches" else 1)
    x = rng.standard_normal((2, 1, 4, 4))
    if mode == "replay":  # backward applies the mask recorded on x, not -x's
        set_mask_mode([relu], "record")
        chain_forward([lower, relu], x)
        set_mask_mode([relu], "replay")
    y = chain_forward([lower, relu, upper], -x if mode == "replay" else x)
    mask = relu._cache > 0  # a copy: the fused backward overwrites the held output
    assert _same_bits(mask[:, 0], x[:, 0] > 0) and _same_bits(mask[:, 1], x[:, 0] < 0)
    special = np.resize(np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.0, 2.0]),
                        (2, 1, 4, 4))
    dout = np.concatenate([special, special], axis=1)  # each value active once, inactive once

    if path == "relu":
        got = relu.backward(dout.copy())
    elif path == "taps":
        correlate = nn.correlate

        def injected(xp, w, k, work, done, name="acc"):
            def replaced(rows, z, zv):
                np.copyto(zv, dout[rows])
                done(rows, z, zv)
            correlate(xp, w, k, work, replaced, name)

        monkeypatch.setattr(nn, "correlate", injected)
    else:
        col2im = nn.col2im

        def injected(*args):
            g = col2im(*args)
            np.copyto(g, dout)
            return g

        monkeypatch.setattr(nn, "col2im", injected)
    if path != "relu":  # the gradient that reaches the lower conv
        reached = []
        monkeypatch.setattr(lower, "backward", lambda d: reached.append(d.copy()))
        chain_backward([lower, relu, upper], np.ones_like(y))
        [got] = reached
    want = np.where(mask, dout, 0.0)
    want[~mask & ~np.isfinite(dout)] = np.nan
    want[mask & (dout == 0.0)] = 0.0
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan) and _same_bits(got[~nan], want[~nan])
    assert (~mask & np.isinf(dout)).any() and (mask & np.signbit(dout) & (dout == 0.0)).any()


def test_a_relu_that_follows_no_conv_returns_a_new_array():
    values = np.resize(np.array([np.nan, -np.inf, np.inf, -0.0, 0.0, 5e-324, -1.0, 2.0]), (2, 3, 4))
    kept = values.copy()
    got = chain_forward([Relu()], values)
    assert _same_bits(got, np.where(values > 0, values, 0.0)) and _same_bits(values, kept)


def test_decoder_chain_backward_is_unchanged_by_the_in_place_relu():
    # no Conv2d keeps its output for backward, so overwriting it changes no gradient
    decoder = build_ae_model(3, 4, 3, AeConfig(channels=4, seed=6)).decoder
    rng = np.random.default_rng(6)
    t_hat = rng.random((3, 1, 4, 4))
    dout = rng.standard_normal((3, 1, 12, 12))
    got = chain_forward(decoder, t_hat)
    dx = chain_backward(decoder, dout)
    grads = [(layer.gw.copy(), layer.gb.copy()) for layer in weighted_layers(decoder)]
    x = t_hat
    for layer in decoder:
        x = layer.forward(x)
    assert _same_bits(got, x) and _same_bits(chain_backward(decoder, dout), dx)
    for layer, (gw, gb) in zip(weighted_layers(decoder), grads):
        assert _same_bits(layer.gw, gw) and _same_bits(layer.gb, gb)


def _sigmoid_masked(z):
    """nn.sigmoid before it picked its branch with np.where: two masked gathers."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_the_masked_formula_bit_for_bit():
    z = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 5e-324, -5e-324, 36.7, -36.7])
    z = np.concatenate([z, np.random.default_rng(8).standard_normal(1000) * 40])
    with np.errstate(over="ignore"):
        assert _same_bits(sigmoid(z), _sigmoid_masked(z))
        assert _same_bits(sigmoid(z.reshape(10, 101)), _sigmoid_masked(z).reshape(10, 101))
    assert np.isnan(sigmoid(np.array([np.nan]))).all()


@pytest.mark.parametrize("path", sorted(CHUNKED_PATHS))
def test_empty_batch_passes_through(path):
    layer, _, x, dout, _ = _chunked_layer(path, 5)
    assert layer.forward(x[:0]).shape == (0,) + dout.shape[1:]
    assert layer.backward(dout[:0]).shape == (0,) + x.shape[1:]
