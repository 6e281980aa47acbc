"""Property tests: PGM/PPM round trips, mutated files, non-finite metric input,
and the per-dataset symbol grids and feature rows."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from cdp_authkit.channel import ObservedCode  # noqa: E402
from cdp_authkit.errors import DataError, DegenerateImageError  # noqa: E402
from cdp_authkit.experiment import (  # noqa: E402
    Dataset,
    DatasetConfig,
    DatasetManifest,
    spatial_features,
)
from cdp_authkit.imageio import read_pgm, read_ppm, write_pgm, write_ppm  # noqa: E402
from cdp_authkit.metrics import (  # noqa: E402
    binarize,
    feature_vector,
    lp_distances,
    otsu_threshold,
    pearson,
)
from cdp_authkit.template import downsample_majority, generate_template  # noqa: E402

# Fixed example streams (derandomize) and no example database on disk, so
# every run checks the same cases.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

sides = st.integers(min_value=1, max_value=12)
non_finite = st.sampled_from([np.nan, np.inf, -np.inf])


def _roundtrip(write, read, image):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "image.pnm"
        write(path, image)
        return read(path)


@PROPERTY
@given(st.tuples(sides, sides).flatmap(lambda hw: arrays(np.uint8, hw)))
def test_pgm_write_read_roundtrip(image):
    back = _roundtrip(write_pgm, read_pgm, image)
    assert back.dtype == np.uint8 and np.array_equal(back, image)


@PROPERTY
@given(st.tuples(sides, sides).flatmap(lambda hw: arrays(np.uint8, (*hw, 3))))
def test_ppm_write_read_roundtrip(planes):
    back = _roundtrip(write_ppm, read_ppm, planes)
    assert back.dtype == np.uint8 and np.array_equal(back, planes)


VALID = {
    read_pgm: b"P5\n4 3\n255\n" + bytes(range(12)),
    read_ppm: b"P6\n2 3\n255\n" + bytes(range(18)),
}


@settings(PROPERTY, max_examples=200)
@given(
    st.sampled_from([read_pgm, read_ppm]),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=4),
    st.integers(0, 10**6),
)
def test_mutated_file_reads_or_raises_data_error(reader, edits, cut):
    data = bytearray(VALID[reader])
    for pos, value in edits:
        data[pos % len(data)] = value
    data = bytes(data[: len(data) - cut % 4])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.pnm"
        path.write_bytes(data)
        try:
            image = reader(path)
        except DataError:
            return
    assert image.dtype == np.uint8 and image.size > 0


def _spoiled(shape, index, bad):
    image = np.linspace(0.05, 0.95, int(np.prod(shape))).reshape(shape)
    image.flat[index % image.size] = bad
    return image


@PROPERTY
@given(st.tuples(sides, sides), st.integers(0, 10**6), non_finite)
def test_otsu_rejects_non_finite(shape, index, bad):
    with pytest.raises(DataError):
        otsu_threshold(_spoiled(shape, index, bad))


@PROPERTY
@given(st.tuples(sides, sides).filter(lambda hw: hw[0] * hw[1] >= 2),
       st.integers(0, 10**6), non_finite, st.booleans())
def test_pearson_and_lp_reject_non_finite(shape, index, bad, first):
    spoiled = _spoiled(shape, index, bad)
    clean = np.linspace(0.9, 0.1, spoiled.size).reshape(shape) ** 2
    a, b = (spoiled, clean) if first else (clean, spoiled)
    with pytest.raises(DataError):
        pearson(a, b)
    with pytest.raises(DataError):
        lp_distances(a, b)


def _code(image, label, spx):
    return ObservedCode(image=image, label=label, template_id="t0000", symbol_px=spx)


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 4), st.sampled_from(["digital", "physical"]), st.data())
def test_cached_symbol_grid_and_row_equal_direct_computation(n_sym, spx, reference, data):
    side = n_sym * spx
    images = arrays(np.float64, (side, side), elements=st.floats(0.0, 1.0))
    probe = _code(data.draw(images), "original", spx)
    enrolled = _code(data.draw(images), "physical_reference", spx)
    template = generate_template(n_sym=n_sym, symbol_px=spx, black_fraction=0.5, seed=n_sym)
    dataset = Dataset(
        manifest=DatasetManifest(DatasetConfig(), "", ("t0000",), []),
        templates={"t0000": template},
        codes={("t0000", "original"): probe, ("t0000", "physical_reference"): enrolled},
    )
    try:
        want = feature_vector(probe, template if reference == "digital" else enrolled)
    except DegenerateImageError:
        with pytest.raises(DegenerateImageError, match=f"t0000/original vs {reference} reference"):
            spatial_features(dataset, [probe], reference, False)
        return
    assert spatial_features(dataset, [probe], reference, False) == [want]
    for code in (probe, enrolled) if reference == "physical" else (probe,):
        img = code.image
        grid = downsample_majority(binarize(img, otsu_threshold(img)), spx)
        assert np.array_equal(dataset._symbols[("t0000", code.label)], grid)
