"""Spatial-domain comparison metrics between acquired codes and references.

All images are real matrices in [0, 1] (reflectance: low = ink). Binarization
maps low intensity to 1 so binary outputs share the template convention
(1 = ink). The symbol-wise Hamming distance reduces pixel grids to symbol
grids by block majority vote, exact ties counting as ink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .errors import DataError, DegenerateImageError
from .imageio import from_uint8
from .template import Template, downsample_majority

if TYPE_CHECKING:  # pragma: no cover
    from .channel import ObservedCode

N_BINS = 256  # fixed histogram resolution for Otsu's method


def otsu_threshold(image: np.ndarray) -> float:
    """Otsu's threshold over a fixed 256-bin histogram of [0, 1].

    Maximizes the between-class variance w0*w1*(mu0 - mu1)^2 over all 256
    split points; ties break toward the lower bin. The returned value is the
    upper edge (k+1)/256 of the winning bin, so `image < threshold` selects
    the dark class.

    Args:
        image: array of intensities in [0, 1], any shape.

    Returns:
        Threshold in (0, 1].

    Raises:
        DegenerateImageError: if every value falls into a single bin.
        DataError: on empty, non-finite, or out-of-range input.
    """
    v = np.asarray(image, dtype=np.float64).ravel()
    if v.size == 0:
        raise DataError("empty image")
    if not np.all(np.isfinite(v)):
        raise DataError("non-finite intensities")
    if v.min() < 0.0 or v.max() > 1.0:
        raise DataError("intensities must lie in [0, 1]")
    bins = np.minimum((v * N_BINS).astype(np.int64), N_BINS - 1)
    hist = np.bincount(bins, minlength=N_BINS).astype(np.float64)
    p = hist / v.size
    omega0 = np.cumsum(p)
    omega1 = 1.0 - omega0
    mu_cum = np.cumsum(p * np.arange(N_BINS))
    mu_total = mu_cum[-1]
    valid = (omega0 > 0.0) & (omega1 > 0.0)
    if not np.any(valid):
        raise DegenerateImageError("constant image: histogram occupies one bin")
    sigma_b = np.zeros(N_BINS)
    sigma_b[valid] = (mu_total * omega0[valid] - mu_cum[valid]) ** 2 / (
        omega0[valid] * omega1[valid]
    )
    k = int(np.argmax(sigma_b))  # first maximum = lowest bin on ties
    return (k + 1) / N_BINS


def binarize(image: np.ndarray, threshold: float) -> np.ndarray:
    """1 (ink) where image < threshold, else 0, as uint8."""
    arr = np.asarray(image, dtype=np.float64)
    return (arr < float(threshold)).astype(np.uint8)


def hamming_symbols(binary: np.ndarray, t: Template) -> int:
    """Symbol-wise Hamming distance between a binary pixel grid and a template.

    The pixel grid is reduced to symbols by block majority vote (ties count
    as ink) and compared against the template's symbol grid.
    """
    binary = np.asarray(binary)
    side = t.cdp_side_px
    if binary.shape != (side, side):
        raise DataError(
            f"binary grid shape {binary.shape} does not match template area {side}x{side}"
        )
    reduced = downsample_majority(binary, t.symbol_px)
    return int(np.sum(reduced != t.symbols))


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation between two equally shaped arrays.

    Raises DataError on a shape mismatch, fewer than two samples, or
    non-finite input (checked on the two centred sums of squares, which a
    NaN or inf anywhere makes non-finite).
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DataError("shape mismatch")
    if a.size < 2:
        raise DataError("need at least two samples")
    with np.errstate(invalid="ignore", over="ignore"):
        da = a - a.mean()
        db = b - b.mean()
        var_a = float(da @ da)
        var_b = float(db @ db)
    if not (math.isfinite(var_a) and math.isfinite(var_b)):
        raise DataError("non-finite intensities")
    if var_a == 0.0 or var_b == 0.0:
        raise DegenerateImageError("zero variance input: correlation undefined")
    return float((da @ db) / np.sqrt(var_a * var_b))


def lp_distances(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(mean absolute difference, root mean squared difference).

    Raises DataError on a shape mismatch, empty input, or non-finite input
    (checked on the two means, which a NaN or inf anywhere makes non-finite).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError("shape mismatch")
    if a.size == 0:
        raise DataError("empty input")
    with np.errstate(invalid="ignore", over="ignore"):
        diff = (a - b).ravel()
        l1 = float(np.mean(np.abs(diff)))
        l2 = float(np.sqrt(np.mean(diff * diff)))
    if not (math.isfinite(l1) and math.isfinite(l2)):
        raise DataError("non-finite intensities")
    return l1, l2


@dataclass(frozen=True)
class FeatureVector:
    """Per-probe spatial feature vector against one reference."""

    pearson: float
    hamming_sym: int
    l1: float
    l2: float
    reference_kind: str  # "digital" or "physical"

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.pearson, float(self.hamming_sym), self.l1, self.l2],
            dtype=np.float64,
        )


FEATURE_NAMES = ("pearson", "hamming_sym", "l1", "l2")


def symbol_grid(image: np.ndarray, symbol_px: int) -> np.ndarray:
    """Majority symbol grid of an image binarized at its own Otsu threshold."""
    img = np.asarray(image, dtype=np.float64)
    return downsample_majority(binarize(img, otsu_threshold(img)), symbol_px)


def feature_vector(
    probe: "ObservedCode",
    reference: Union[Template, "ObservedCode"],
    use_planes: bool = False,
    *,
    probe_symbols: Optional[np.ndarray] = None,
    reference_symbols: Optional[np.ndarray] = None,
) -> FeatureVector:
    """Compare a probe against its digital template or a physical reference.

    Digital reference: intensity metrics run against the rendered reflectance
    1 - pixels of the template's pattern area; the Hamming term compares the
    probe's symbol_grid (its own Otsu threshold, majority-reduced) with the
    template's symbols. Physical reference: the Hamming term compares the
    symbol grids of both codes, and intensity metrics run between the two
    acquisitions directly.

    Args:
        probe: acquired code (pattern area only).
        reference: Template or another ObservedCode of the same template.
        use_planes: use color planes for the intensity metrics when both
            sides carry them; the Hamming term always uses luminance.
        probe_symbols, reference_symbols: symbol_grid of the probe and of a
            physical reference, when the caller already holds them; each
            one left out is computed here.
    """
    probe_img = np.asarray(probe.image, dtype=np.float64)
    digital = isinstance(reference, Template)
    if digital:
        ref_img = 1.0 - reference.cdp_pixels().astype(np.float64)
        if probe_img.shape != ref_img.shape:
            raise DataError("probe and template pattern areas differ in size")
        spx = reference.symbol_px
    else:
        ref_img = np.asarray(reference.image, dtype=np.float64)
        if probe_img.shape != ref_img.shape:
            raise DataError("probe and reference images differ in size")
        spx = probe.symbol_px
        if spx != reference.symbol_px:
            raise DataError("probe and reference symbol sizes differ")
    if probe_symbols is None:
        probe_symbols = symbol_grid(probe_img, spx)
    if digital:
        reference_symbols = reference.symbols
    elif reference_symbols is None:
        reference_symbols = symbol_grid(ref_img, spx)
    if probe_symbols.shape != reference_symbols.shape:
        raise DataError("probe and reference symbol grids differ in size")
    ham = int(np.sum(probe_symbols != reference_symbols))
    a, b = _intensity_pair(
        probe, ref_img if digital else reference, use_planes, ref_is_template=digital
    )
    r = pearson(a, b)
    l1, l2 = lp_distances(a, b)
    return FeatureVector(
        pearson=r,
        hamming_sym=ham,
        l1=l1,
        l2=l2,
        reference_kind="digital" if digital else "physical",
    )


def _intensity_pair(probe, reference, use_planes: bool, ref_is_template: bool):
    if not use_planes:
        ref = reference if ref_is_template else np.asarray(reference.image, np.float64)
        return np.asarray(probe.image, np.float64), ref
    if probe.planes is None:
        raise DataError("probe carries no color planes")
    a = _float_planes(probe.planes)
    if ref_is_template:
        b = np.repeat(np.asarray(reference)[..., None], 3, axis=2)
    else:
        if reference.planes is None:
            raise DataError("reference carries no color planes")
        b = _float_planes(reference.planes)
    return a, b


def _float_planes(planes: np.ndarray) -> np.ndarray:
    """Color planes in [0, 1]: uint8 levels (a loaded code) scale by 1/255."""
    if planes.dtype == np.uint8:
        return from_uint8(planes)
    return np.asarray(planes, dtype=np.float64)
