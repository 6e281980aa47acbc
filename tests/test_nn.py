"""Conv2d against a direct convolution, finite differences and its own adjoint;
the shared epoch loop."""

import numpy as np
import pytest

from cdp_authkit.deepfeat import AeConfig, build_ae_model, decode, encode
from cdp_authkit.errors import TrainingError
from cdp_authkit.nn import Conv2d, col2im, im2col, train_epochs
from cdp_authkit.oracles import conv2d_direct

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


def _fd_grad(loss, param, h=1e-6):
    grad = np.zeros_like(param)
    flat, gflat = param.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss()
        flat[i] = orig - h
        down = loss()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


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
    layer.gw[:] = 0.0
    layer.gb[:] = 0.0
    layer.forward(x)
    assert layer.backward(r, input_grad=False) is None  # skips the input gradient only
    assert np.array_equal(layer.gw, gw) and np.array_equal(layer.gb, gb)
    assert _rel_err(dx, _fd_grad(loss, x)) < 1e-7
    assert _rel_err(layer.gw, _fd_grad(loss, layer.w)) < 1e-7
    assert _rel_err(layer.gb, _fd_grad(loss, layer.b)) < 1e-7


@_cases(DEEPFEAT_GEOMETRIES)
def test_col2im_is_adjoint_of_im2col(in_ch, k, stride, hw, out_ch):
    _, x, rng = _layer_and_input(in_ch, k, stride, hw, out_ch)
    cols, (oh, ow) = im2col(x, k, stride, 1)
    d = rng.standard_normal(cols.shape)
    lhs = float((col2im(d, x.shape, k, stride, 1, oh, ow) * x).sum())
    rhs = float((d * cols).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


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
