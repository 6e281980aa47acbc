"""Template generation, marker frames, persistence, and symbol reduction."""

import json
import re

import numpy as np
import pytest
from scipy.stats import binom

from cdp_authkit.errors import DataError, ParameterError
from cdp_authkit.rng import rng_for
from cdp_authkit.template import (
    add_markers,
    downsample_majority,
    generate_template,
    load_template,
    save_template,
    upsample_symbols,
)


def test_generate_shapes_and_values():
    t = generate_template(24, 3, 0.5, seed=0)
    assert t.symbols.shape == (24, 24)
    assert t.symbols.dtype == np.uint8
    assert set(np.unique(t.symbols)) <= {0, 1}
    assert t.pixels.shape == (72, 72)
    assert t.marker_width_px == 0
    assert np.array_equal(t.pixels, upsample_symbols(t.symbols, 3))


def test_generate_deterministic_and_seed_sensitive():
    a = generate_template(16, 2, 0.5, seed=5)
    b = generate_template(16, 2, 0.5, seed=5)
    c = generate_template(16, 2, 0.5, seed=6)
    assert np.array_equal(a.symbols, b.symbols)
    assert not np.array_equal(a.symbols, c.symbols)


def test_black_fraction_within_exact_binomial_interval():
    # central 99.9% equal-tail interval for Binomial(1024, 0.5), per scipy
    lo = int(binom.ppf(0.0005, 1024, 0.5))
    hi = int(binom.isf(0.0005, 1024, 0.5))
    for seed in range(20):
        t = generate_template(32, 1, 0.5, seed=seed)
        assert lo <= int(t.symbols.sum()) <= hi


def test_generate_validation():
    with pytest.raises(ParameterError):
        generate_template(0, 3, 0.5, seed=0)
    with pytest.raises(ParameterError):
        generate_template(8, 0, 0.5, seed=0)
    for bad in (-0.1, 1.5):
        with pytest.raises(ParameterError):
            generate_template(8, 3, bad, seed=0)
    # degenerate but legal endpoints
    assert not generate_template(8, 3, 0.0, seed=0).symbols.any()
    assert generate_template(8, 3, 1.0, seed=0).symbols.all()


def test_upsample_matches_kron():
    rng = rng_for(1, "up")
    sym = (rng.random((7, 7)) < 0.5).astype(np.uint8)
    up = upsample_symbols(sym, 4)
    assert np.array_equal(up, np.kron(sym, np.ones((4, 4), dtype=np.uint8)))


def test_markers_geometry_and_crop_roundtrip():
    t = generate_template(10, 3, 0.5, seed=2)
    m = add_markers(t, 4)
    side = 10 * 3
    assert m.marker_width_px == 4
    assert m.pixels.shape == (side + 8, side + 8)
    # frame corners carry solid ink squares, frame edges elsewhere are white
    assert m.pixels[:4, :4].all() and m.pixels[-4:, -4:].all()
    assert m.pixels[:4, -4:].all() and m.pixels[-4:, :4].all()
    assert not m.pixels[:4, 10:20].any()
    assert np.array_equal(m.pixels[4:-4, 4:-4], t.pixels)
    assert np.array_equal(m.cdp_pixels(), t.pixels)


def test_marker_validation():
    t = generate_template(6, 2, 0.5, seed=3)
    assert add_markers(t, 0) == t
    with pytest.raises(ParameterError):
        add_markers(t, -1)
    with pytest.raises(ParameterError):
        add_markers(t, 7)  # > floor(12 / 2)
    with pytest.raises(ParameterError, match="already carries a marker frame"):
        add_markers(add_markers(t, 2), 2)


def test_load_template_requires_sidecar_fields(tmp_path):
    save_template(generate_template(6, 2, 0.5, seed=3), tmp_path / "t")
    sidecar = tmp_path / "t.json"
    meta = json.loads(sidecar.read_text())
    for name in ("seed", "n_sym", "symbol_px", "marker_width_px"):
        sidecar.write_text(json.dumps({k: v for k, v in meta.items() if k != name}))
        with pytest.raises(DataError, match=re.escape(f"{sidecar}: missing field '{name}'")):
            load_template(tmp_path / "t")
    sidecar.write_text(json.dumps([meta]))
    with pytest.raises(DataError, match=re.escape(f"{sidecar}: expected a JSON object")):
        load_template(tmp_path / "t")
    sidecar.write_text(json.dumps({**meta, "n_sym": 7}))
    with pytest.raises(DataError, match=re.escape(f"{tmp_path / 't.pgm'}: raster shape disagrees")):
        load_template(tmp_path / "t")


def test_save_load_roundtrip(tmp_path):
    t = add_markers(generate_template(9, 3, 0.4, seed=4), 2)
    save_template(t, tmp_path / "t")
    back = load_template(tmp_path / "t")
    assert back == t
    # stored raster is reflectance: ink pixels are 0, substrate 255
    raw = (tmp_path / "t.pgm").read_bytes()
    body = raw.split(b"255\n", 1)[1]
    grid = np.frombuffer(body, dtype=np.uint8).reshape(t.pixels.shape)
    assert np.array_equal(grid, (1 - t.pixels) * 255)


def test_downsample_majority_and_ties():
    block = np.zeros((4, 4), dtype=np.uint8)
    block[:2, :] = 1  # exactly half ink: tie resolves to ink
    assert downsample_majority(block, 4)[0, 0] == 1
    rng = rng_for(2, "down")
    sym = (rng.random((5, 5)) < 0.5).astype(np.uint8)
    assert np.array_equal(downsample_majority(upsample_symbols(sym, 3), 3), sym)
    with pytest.raises(DataError):
        downsample_majority(np.zeros((5, 5), dtype=np.uint8), 2)
