"""Print/acquire channel physics, copy attacks, and observed-code persistence.

scipy.ndimage is the oracle for the channel's numpy filters, which must match
it bit for bit; scipy is a test dependency and the package never imports it.
"""

import ast
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import cdp_authkit
from cdp_authkit.channel import (
    AttackParams,
    ChannelParams,
    acquire,
    copy_attack,
    default_attack_params,
    default_original_params,
    estimate_template_binary,
    load_observed,
    majority_filter,
    print_template,
    save_observed,
    spread_ink,
)
from cdp_authkit.channel import _gaussian_blur
from cdp_authkit.errors import AttackError, ParameterError
from cdp_authkit.imageio import from_uint8, to_uint8
from cdp_authkit.metrics import feature_vector, hamming_symbols
from cdp_authkit.rng import rng_for
from cdp_authkit.template import generate_template

_LUMA = np.array([0.299, 0.587, 0.114])


def _clean_params(**kw):
    return ChannelParams(noise_sigma=0.0, plane_jitter=0.0, **kw)


def test_channel_params_validation():
    with pytest.raises(ParameterError):
        ChannelParams(dot_gain=-0.1)
    with pytest.raises(ParameterError):
        ChannelParams(substrate_albedo=0.0)
    with pytest.raises(ParameterError):
        ChannelParams(ink_albedo=0.96)  # above substrate
    with pytest.raises(ParameterError):
        ChannelParams(spread_radius=0)
    for name in ("dot_gain", "blur_sigma", "substrate_albedo", "ink_albedo", "noise_sigma",
                 "spread_radius", "plane_jitter"):
        for value in (math.nan, math.inf):
            with pytest.raises(ParameterError):
                ChannelParams(**{name: value})


def test_spread_ink_identity_monotone_and_padding():
    rng = rng_for(3, "spread")
    binary = (rng.random((20, 20)) < 0.5).astype(np.uint8)
    assert np.array_equal(spread_ink(binary, 0.0), binary.astype(np.float64))
    coverage = [spread_ink(binary, g).mean() for g in (0.0, 0.2, 0.5, 0.9)]
    assert all(a <= b for a, b in zip(coverage, coverage[1:]))
    spread = spread_ink(binary, 0.9, radius=2)
    assert spread.min() >= 0.0 and spread.max() <= 1.0
    # zero padding: a lone corner dot cannot receive ink from outside
    lone = np.zeros((6, 6), dtype=np.uint8)
    lone[0, 0] = 1
    s = spread_ink(lone, 0.8)
    assert s[0, 0] == 1.0
    assert s[5, 5] == 0.0


# (height, width): non-square, one-pixel and shipped-size planes
ORACLE_SHAPES = [(1, 7), (5, 1), (9, 4), (17, 40), (33, 20), (78, 78)]


@pytest.mark.parametrize("seed", range(len(ORACLE_SHAPES)))
def test_gaussian_blur_is_bit_identical_to_ndimage(seed):
    rng = rng_for(seed, "blur-oracle")
    planes = rng.random((3, *ORACLE_SHAPES[seed]))
    # shipped sigmas, a random one, and one below 0.125 (radius 0)
    for sigma in (0.6, 0.7, 1.0, rng.uniform(0.125, 3.0), rng.uniform(0.0, 0.125)):
        want = np.stack([ndimage.gaussian_filter(p, sigma, mode="nearest") for p in planes])
        assert _gaussian_blur(planes, sigma).tobytes() == want.tobytes(), sigma


@pytest.mark.parametrize("seed", range(len(ORACLE_SHAPES)))
def test_spread_ink_and_majority_are_bit_identical_to_ndimage(seed):
    rng = rng_for(seed, "spread-oracle")
    shape = ORACLE_SHAPES[seed]
    for values in ((rng.random(shape) < 0.5).astype(np.uint8), rng.random(shape)):
        as_float = values.astype(np.float64)
        for radius in (1, 2, 3):
            gain = rng.uniform(0.0, 2.0)
            size = 2 * radius + 1
            kernel = np.full((size, size), gain / (size * size - 1))
            kernel[radius, radius] = 1.0
            want = np.clip(ndimage.convolve(as_float, kernel, mode="constant"), 0.0, 1.0)
            assert spread_ink(values, gain, radius).tobytes() == want.tobytes(), (radius, gain)
        counts = ndimage.correlate(as_float, np.ones((3, 3)), mode="nearest")
        want = (counts >= 5.0).astype(np.uint8)
        assert majority_filter(values).tobytes() == want.tobytes()


def test_package_imports_no_scipy():
    # scipy is a test-only dependency: no module of the package may import it,
    # at module level or inside a function
    found = []
    for module in sorted(Path(cdp_authkit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{module.name}:{node.lineno}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def test_cli_import_loads_no_scipy():
    # nor may anything the CLI imports: loading scipy costs ~0.3 s per process
    src = str(Path(cdp_authkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cdp_authkit.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_acquire_polarity_shape_and_determinism():
    t = generate_template(12, 3, 0.5, seed=1)
    p = default_original_params(seed=9, plane_jitter=0.0)
    ink = print_template(t, p, template_id="t0")
    a = acquire(ink, p, "original")
    b = acquire(ink, p, "original")
    assert a.image.shape == (36, 36)
    assert np.array_equal(a.image, b.image)
    assert a.template_id == "t0" and a.symbol_px == 3
    # ink regions reflect less light than substrate regions
    ink_mask = t.pixels.astype(bool)
    assert a.image[ink_mask].mean() < a.image[~ink_mask].mean()


def test_second_acquisition_is_independent_shot():
    from dataclasses import replace

    t = generate_template(12, 3, 0.5, seed=1)
    p = default_original_params(seed=9, plane_jitter=0.0)
    ink = print_template(t, p)
    first = acquire(ink, p, "original")
    second = acquire(ink, replace(p, seed=10), "physical_reference")
    assert second.label == "physical_reference"
    assert not np.array_equal(first.image, second.image)
    # same print though: the two shots are strongly correlated
    from cdp_authkit.metrics import pearson

    assert pearson(first.image, second.image) > 0.9


def test_color_planes_and_luminance_collapse():
    t = generate_template(10, 3, 0.5, seed=2)
    p = default_original_params(seed=4, plane_jitter=0.05)
    code = acquire(print_template(t, p), p, "original")
    assert code.planes is not None and code.planes.shape == (30, 30, 3)
    assert np.allclose(code.image, code.planes @ _LUMA, atol=1e-12)
    # jittered plane albedos: planes must not be identical
    assert not np.array_equal(code.planes[..., 0], code.planes[..., 1])


def test_estimate_template_binary_modes():
    t = generate_template(16, 3, 0.5, seed=5)
    # clamp-free mild channel, no noise: Otsu recovery is near-perfect
    p = _clean_params(dot_gain=0.1, blur_sigma=0.3, seed=0)
    code = acquire(print_template(t, p), p)
    est = estimate_template_binary(code, AttackParams(morph_cleanup=False))
    assert est.shape == t.pixels.shape
    assert hamming_symbols(est, t) <= 2
    # a constant probe has no Otsu threshold, so the attack cannot binarize it
    flat = replace(code, image=np.full_like(code.image, 0.5))
    with pytest.raises(AttackError, match="constant image"):
        estimate_template_binary(flat, AttackParams())


def test_majority_filter_cleans_isolated_pixels():
    grid = np.zeros((9, 9), dtype=np.uint8)
    grid[4, 4] = 1  # lone ink speck
    assert not majority_filter(grid)[4, 4]
    grid = np.ones((9, 9), dtype=np.uint8)
    grid[4, 4] = 0  # lone hole
    assert majority_filter(grid)[4, 4]


def test_default_attack_params_labels():
    for family in ("fake1", "fake2"):
        for substrate in ("white", "gray"):
            a = default_attack_params(family, substrate, seed=0)
            assert a.label() == f"{family}_{substrate}"
    assert default_attack_params("fake1", "white", 0).morph_cleanup
    assert not default_attack_params("fake2", "white", 0).morph_cleanup
    with pytest.raises(ParameterError):
        default_attack_params("fake3", "white", 0)
    with pytest.raises(ParameterError):
        default_attack_params("fake1", "blue", 0)


def test_copy_attack_degrades_and_labels():
    t = generate_template(16, 3, 0.5, seed=6)
    p = default_original_params(seed=3, plane_jitter=0.0)
    original = acquire(print_template(t, p, "t6"), p, "original")
    fake = copy_attack(original, default_attack_params("fake2", "gray", 11, plane_jitter=0.0))
    assert fake.label == "fake2_gray"
    assert fake.template_id == "t6"
    assert fake.image.shape == original.image.shape
    # information loss: the fake's own template estimate is worse
    probe = AttackParams(morph_cleanup=False)
    h_orig = hamming_symbols(estimate_template_binary(original, probe), t)
    h_fake = hamming_symbols(estimate_template_binary(fake, probe), t)
    assert h_fake > h_orig


def test_dot_gain_asymmetry_black_grows_white_shrinks():
    t = generate_template(15, 3, 0.5, seed=7)
    p = replace(default_attack_params("fake2", "white", seed=0, plane_jitter=0.0).reprint,
                noise_sigma=0.0)
    code = acquire(print_template(t, p), p)
    est = estimate_template_binary(code, AttackParams(morph_cleanup=False))
    assert est.sum() > t.pixels.sum()  # net ink growth under strong dot gain


def test_save_load_roundtrip_gray_and_color(tmp_path):
    t = generate_template(8, 3, 0.5, seed=8)
    for jitter, ext in ((0.0, ".pgm"), (0.04, ".ppm")):
        p = default_original_params(seed=2, plane_jitter=jitter)
        code = acquire(print_template(t, p, "t8"), p, "original")
        base = tmp_path / f"code{ext}"
        save_observed(code, tmp_path / "code")
        # the raster is the whole record of a code: no sidecar is written
        assert sorted(tmp_path.iterdir()) == [base]
        back = load_observed(base, "original", "t8", 3)
        assert back.label == code.label
        assert back.template_id == code.template_id
        assert back.symbol_px == code.symbol_px
        if jitter > 0:
            # loaded color planes stay the PPM's levels, one byte per sample
            assert back.planes.dtype == np.uint8 and back.planes.shape == (24, 24, 3)
            assert not back.planes.flags.writeable
            assert np.array_equal(back.planes, to_uint8(code.planes))
            assert np.array_equal(back.image, from_uint8(back.planes) @ _LUMA)
        else:
            assert back.planes is None
        # quantized roundtrip: re-saving is byte identical
        again = tmp_path / f"again{ext}"
        save_observed(back, again)
        assert again.read_bytes() == base.read_bytes()
        for path in (base, again):
            path.unlink()


def test_loaded_uint8_planes_give_the_float_planes_features(tmp_path):
    # feature_vector on uint8 planes must match, bit for bit, the same call
    # on float planes from_uint8(levels), for both reference kinds
    t = generate_template(8, 3, 0.5, seed=8)
    loaded = []
    for seed in (2, 3):
        p = default_original_params(seed=seed, plane_jitter=0.04)
        save_observed(acquire(print_template(t, p, "t8"), p, "original"), tmp_path / f"c{seed}.ppm")
        loaded.append(load_observed(tmp_path / f"c{seed}.ppm", "original", "t8", 3))
    probe, ref = loaded
    as_float = [replace(c, planes=from_uint8(c.planes)) for c in loaded]
    assert all(c.planes.dtype == np.float64 for c in as_float)
    for got, want in (
        (feature_vector(probe, t, use_planes=True), feature_vector(as_float[0], t, use_planes=True)),
        (feature_vector(probe, ref, use_planes=True), feature_vector(*as_float, use_planes=True)),
    ):
        assert got == want
        assert got.as_array().tobytes() == want.as_array().tobytes()
