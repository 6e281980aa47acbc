"""Intensity metrics, Otsu binarization, and spatial feature vectors."""

import numpy as np
import pytest

from cdp_authkit.channel import acquire, default_original_params, print_template
from cdp_authkit.errors import DataError, DegenerateImageError
from cdp_authkit.metrics import (
    FEATURE_NAMES,
    binarize,
    feature_vector,
    hamming_symbols,
    lp_distances,
    otsu_threshold,
    pearson,
)
from cdp_authkit.oracles import hamming_naive, lp_naive, otsu_exhaustive, pearson_naive
from cdp_authkit.rng import rng_for
from cdp_authkit.template import downsample_majority, generate_template, upsample_symbols


def test_otsu_matches_exhaustive_oracle():
    rng = rng_for(0, "otsu")
    for i in range(300):
        side = int(rng.integers(3, 32))
        img = rng.random((side, side))
        if i % 5 == 0:
            img = np.round(img * 8) / 8  # clumped histograms exercise ties
        assert otsu_threshold(img) == otsu_exhaustive(img)


def test_otsu_separates_clear_bimodal():
    rng = rng_for(1, "otsu")
    dark = rng.uniform(0.05, 0.15, 300)
    bright = rng.uniform(0.8, 0.95, 500)
    thr = otsu_threshold(np.concatenate([dark, bright]))
    assert dark.max() < thr <= bright.min()


def test_otsu_validation():
    with pytest.raises(DegenerateImageError):
        otsu_threshold(np.full((4, 4), 0.5))
    with pytest.raises(DataError):
        otsu_threshold(np.array([]))
    with pytest.raises(DataError):
        otsu_threshold(np.array([0.2, np.nan]))
    with pytest.raises(DataError):
        otsu_threshold(np.array([0.2, 1.3]))


def test_binarize_is_strictly_below_threshold():
    img = np.array([0.1, 0.5, 0.9])
    assert np.array_equal(binarize(img, 0.5), np.array([1, 0, 0], dtype=np.uint8))


def test_pearson_and_lp_match_naive():
    rng = rng_for(2, "pairs")
    for _ in range(100):
        a = rng.random((16, 16))
        b = np.clip(a + rng.normal(0, 0.3, a.shape), 0, 1)
        assert abs(pearson(a, b) - pearson_naive(a, b)) <= 1e-12
        l1, l2 = lp_distances(a, b)
        n1, n2 = lp_naive(a, b)
        assert abs(l1 - n1) <= 1e-12 and abs(l2 - n2) <= 1e-12


def test_pearson_validation():
    with pytest.raises(DataError):
        pearson(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(DataError):
        pearson(np.array([1.0]), np.array([1.0]))
    with pytest.raises(DegenerateImageError):
        pearson(np.full((3, 3), 0.7), rng_for(0, "x").random((3, 3)))
    ramp = np.linspace(0.0, 1.0, 9).reshape(3, 3)
    for bad in (np.nan, np.inf, -np.inf):
        spoiled = ramp.copy()
        spoiled[1, 2] = bad
        for a, b in ((spoiled, ramp), (ramp, spoiled)):
            with pytest.raises(DataError, match="non-finite"):
                pearson(a, b)
            with pytest.raises(DataError, match="non-finite"):
                lp_distances(a, b)
    with pytest.raises(DataError, match="empty"):
        lp_distances(np.zeros((0, 3)), np.zeros((0, 3)))


def test_hamming_symbols_counts_planted_flips():
    t = generate_template(10, 3, 0.5, seed=3)
    assert hamming_symbols(t.pixels, t) == 0
    flipped = t.symbols.copy()
    for i, j in ((0, 0), (4, 7), (9, 9)):
        flipped[i, j] ^= 1
    assert hamming_symbols(upsample_symbols(flipped, 3), t) == 3
    assert hamming_naive(flipped, t.symbols) == 3
    with pytest.raises(DataError):
        hamming_symbols(np.zeros((7, 7), dtype=np.uint8), t)


def test_feature_vector_digital_reference():
    t = generate_template(12, 3, 0.5, seed=4)
    p = default_original_params(seed=5, plane_jitter=0.0)
    code = acquire(print_template(t, p), p)
    fv = feature_vector(code, t)
    assert fv.reference_kind == "digital"
    assert fv.as_array().shape == (4,)
    assert FEATURE_NAMES == ("pearson", "hamming_sym", "l1", "l2")
    assert -1.0 <= fv.pearson <= 1.0
    assert 0 <= fv.hamming_sym <= 144
    assert fv.l1 >= 0 and fv.l2 >= 0
    # hamming term equals the independent recomputation
    est = binarize(code.image, otsu_threshold(code.image))
    assert fv.hamming_sym == int((downsample_majority(est, 3) != t.symbols).sum())


def test_feature_vector_physical_reference_self_is_zero():
    t = generate_template(12, 3, 0.5, seed=6)
    p = default_original_params(seed=7, plane_jitter=0.0)
    code = acquire(print_template(t, p), p)
    fv = feature_vector(code, code)
    assert fv.reference_kind == "physical"
    assert fv.hamming_sym == 0 and fv.l1 == 0.0 and fv.l2 == 0.0
    assert fv.pearson == pytest.approx(1.0)


def test_feature_vector_plane_averaging():
    t = generate_template(12, 3, 0.5, seed=8)
    p = default_original_params(seed=9, plane_jitter=0.05)
    code = acquire(print_template(t, p), p)
    gray = feature_vector(code, t, use_planes=False)
    color = feature_vector(code, t, use_planes=True)
    assert gray.hamming_sym == color.hamming_sym  # hamming stays on luminance
    assert gray.l1 != color.l1  # intensity terms average over planes
