"""Print -> physical -> acquire channel simulation and copy attacks.

The channel models the information loss a pattern suffers on its way to a
sensor: ink spread (dot gain), optical blur, substrate/ink albedos and
sensor noise. A copy attack binarizes an acquired code at its Otsu threshold
(what a copy machine can still see), optionally cleans isolated pixels, and
reprints the estimate through a second channel.

Ink spread is a linear kernel with center weight 1 and every neighbor within
`spread_radius` weighted dot_gain / ((2r+1)^2 - 1), clamped to [0, 1]. The
default radius 1 gives the canonical 3x3 kernel with neighbor weight
dot_gain / 8. Because black can only grow and enclosed white can only shrink,
the model reproduces the asymmetric dot-gain behaviour real presses show:
black elements stay detectable while fine white openings disappear.

On disk a code is its raster alone, a PGM (grayscale) or PPM (color) file;
a dataset's manifest entry and config record its label, template and symbol size.

The filters run on numpy alone and keep ndimage's summation order, so their
results are bit-identical to the ndimage calls they stand for (the tests use
those calls as the oracle):

- `_correlate` (ink spread, majority vote) is `ndimage.correlate`: the sum
  starts at 0.0 and adds weight * sample for each nonzero tap in row-major
  order, over a zero-padded (ink spread) or edge-replicated (majority) border;
  `spread_ink` flips its kernel first, as `ndimage.convolve` does.
- `_gaussian_blur` is `ndimage.gaussian_filter(mode="nearest")`: radius
  int(4 sigma + 0.5), weights exp(-0.5 / sigma^2 * x^2) normalised, axis 0
  then axis 1 (of each plane), each as `correlate1d`'s symmetric branch:
  out = x * w0, then out += (x[i-j] + x[i+j]) * wj for j = r down to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import AttackError, DegenerateImageError, ParameterError
from .imageio import from_uint8, read_pgm, read_ppm, to_uint8, write_pgm, write_ppm
from .metrics import binarize, otsu_threshold
from .rng import rng_for
from .template import Template

LABELS = (
    "original",
    "physical_reference",
    "fake1_white",
    "fake1_gray",
    "fake2_white",
    "fake2_gray",
)

FAKE_LABELS = ("fake1_white", "fake1_gray", "fake2_white", "fake2_gray")

# Rec.601 luma weights for collapsing color planes.
_LUMA = np.array([0.299, 0.587, 0.114])


@dataclass(frozen=True)
class ChannelParams:
    """Print/acquisition model parameters.

    plane_jitter > 0 simulates a color sensor: three planes share geometry
    and blur but get independently jittered albedos and noise, and the
    observed grayscale image is their Rec.601 luminance collapse.
    """

    dot_gain: float = 0.25
    blur_sigma: float = 0.6
    substrate_albedo: float = 0.95
    ink_albedo: float = 0.10
    noise_sigma: float = 0.02
    seed: int = 0
    spread_radius: int = 1
    plane_jitter: float = 0.0

    def __post_init__(self):
        if not 0 <= self.dot_gain < math.inf:
            raise ParameterError("dot_gain must be nonnegative and finite")
        sigmas = (self.blur_sigma, self.noise_sigma, self.plane_jitter)
        if not all(0 <= v < math.inf for v in sigmas):
            raise ParameterError("sigmas must be nonnegative and finite")
        if not 0.0 < self.substrate_albedo <= 1.0:
            raise ParameterError("substrate_albedo must lie in (0, 1]")
        if not 0.0 <= self.ink_albedo < self.substrate_albedo:
            raise ParameterError("ink_albedo must lie in [0, substrate_albedo)")
        if not 1 <= self.spread_radius < math.inf:
            raise ParameterError("spread_radius must be >= 1 and finite")


@dataclass(frozen=True)
class InkMap:
    """Per-pixel ink coverage after printing, still carrying frame geometry."""

    values: np.ndarray  # [0, 1], full grid including any marker frame
    frame_px: int
    cdp_side_px: int
    symbol_px: int
    template_id: str

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class ObservedCode:
    """An acquired code: the pattern area as seen by the sensor.

    `image` is the grayscale view (luminance when color planes exist) and is
    always present; `planes` carries the (H, W, 3) color stack when the
    channel was run with plane_jitter > 0. A freshly acquired code holds
    float planes in [0, 1]; a code read by load_observed holds the PPM's
    uint8 levels k/255, one byte per sample (metrics reads either form).
    """

    image: np.ndarray
    label: str
    template_id: str
    symbol_px: int
    planes: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.label not in LABELS:
            raise ParameterError(f"unknown label {self.label!r}")
        if not self.template_id:
            raise ParameterError("template_id must be set")
        self.image.setflags(write=False)
        if self.planes is not None:
            self.planes.setflags(write=False)


def spread_ink(binary: np.ndarray, dot_gain: float, radius: int = 1) -> np.ndarray:
    """Apply the dot-gain kernel to a black-ink indicator and clamp to [0, 1]."""
    values = np.asarray(binary, dtype=np.float64)
    if dot_gain == 0.0:
        return values.copy()
    size = 2 * int(radius) + 1
    kernel = np.full((size, size), dot_gain / (size * size - 1), dtype=np.float64)
    kernel[radius, radius] = 1.0
    # Zero padding: no ink bleeds in from outside the printed area.
    out = _correlate(values, kernel[::-1, ::-1], "constant")
    return np.clip(out, 0.0, 1.0)


def _correlate(values: np.ndarray, kernel: np.ndarray, border: str) -> np.ndarray:
    """ndimage.correlate of a 2-D image with an odd square kernel.

    border is an np.pad mode: "constant" (zeros) or "edge" (ndimage "nearest").
    """
    r = kernel.shape[0] // 2
    h, w = values.shape
    padded = np.pad(values, r, mode=border)
    out = np.zeros_like(values)
    # weight * sample depends on the sample alone, so each distinct weight
    # scales the padded image once and every tap adds a shifted view of it.
    scaled = {}
    for (a, b), weight in np.ndenumerate(kernel):
        if weight != 0.0:
            if weight not in scaled:
                scaled[weight] = weight * padded
            out += scaled[weight][a : a + h, b : b + w]
    return out


def _gaussian_blur(planes: np.ndarray, sigma: float) -> np.ndarray:
    """ndimage.gaussian_filter(plane, sigma, mode="nearest") of each plane of (n, H, W)."""
    if sigma <= 1e-15:  # ndimage leaves the planes as they are
        return planes
    radius = int(4.0 * float(sigma) + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = (phi / phi.sum())[::-1]
    for axis in (1, 2):
        planes = _correlate1d_symmetric(planes, weights, axis)
    return planes


def _correlate1d_symmetric(x: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """ndimage.correlate1d(mode="nearest") with a symmetric odd-length kernel."""
    r = len(weights) // 2
    n = x.shape[axis]
    # Replicate the edge samples: index -r .. n+r-1 clamped into the axis.
    padded = x.take(np.clip(np.arange(-r, n + r), 0, n - 1), axis=axis)

    def shifted(j):
        return padded[(slice(None),) * axis + (slice(r + j, r + j + n),)]

    out = shifted(0) * weights[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(shifted(-j), shifted(j), out=pair)
        pair *= weights[r - j]
        out += pair
    return out


def print_template(
    t: Template, p: ChannelParams, template_id: Optional[str] = None
) -> InkMap:
    """Print a template: ink spreads by dot gain, clamped to full coverage.

    Args:
        t: template to print (marker frame allowed).
        p: channel parameters; only dot_gain and spread_radius matter here.
        template_id: identifier attached downstream; defaults to the
            template seed rendered in hex.
    """
    ink = spread_ink(t.pixels, p.dot_gain, p.spread_radius)
    return InkMap(
        values=ink,
        frame_px=t.marker_width_px,
        cdp_side_px=t.cdp_side_px,
        symbol_px=t.symbol_px,
        template_id=template_id if template_id is not None else f"t{t.seed:016x}",
    )


def acquire(ink: InkMap, p: ChannelParams, label: str = "original") -> ObservedCode:
    """Acquire an ink map: reflectance, blur, noise, clamp.

    The reflectance substrate_albedo*(1-ink) + ink_albedo*ink is blurred by a
    Gaussian PSF, corrupted with additive Gaussian noise from the params
    seed, cropped to the pattern area via the known frame width, and clamped
    to [0, 1].

    Acquiring the same ink map twice with different seeds yields an
    independent second shot; the "physical_reference" label marks that use.
    """
    planes = _acquire_planes(ink.values, p)
    frame, side = ink.frame_px, ink.cdp_side_px
    planes = planes[:, frame : frame + side, frame : frame + side]
    planes = np.clip(planes, 0.0, 1.0)
    if planes.shape[0] == 1:
        image, stack = planes[0], None
    else:
        stack = np.ascontiguousarray(np.moveaxis(planes, 0, 2))
        image = stack @ _LUMA
    return ObservedCode(
        image=image,
        label=label,
        template_id=ink.template_id,
        symbol_px=ink.symbol_px,
        planes=stack,
    )


def _acquire_planes(ink_values: np.ndarray, p: ChannelParams) -> np.ndarray:
    """Run the optical/sensor pipeline; returns unclamped (n_planes, H, W) pre-crop."""
    albedos = [(p.substrate_albedo, p.ink_albedo)]
    if p.plane_jitter > 0:
        albedos = []
        for idx in range(3):
            jit = rng_for(p.seed, "plane-albedo", idx)
            substrate = float(
                np.clip(p.substrate_albedo + jit.normal(0.0, p.plane_jitter), 0.02, 1.0)
            )
            ink_albedo = float(
                np.clip(p.ink_albedo + jit.normal(0.0, p.plane_jitter), 0.0, substrate - 0.01)
            )
            albedos.append((substrate, ink_albedo))
    paper = 1.0 - ink_values
    v = np.stack([substrate * paper + ink_albedo * ink_values for substrate, ink_albedo in albedos])
    if p.blur_sigma > 0:
        v = _gaussian_blur(v, p.blur_sigma)
    if p.noise_sigma > 0:
        for idx in range(len(v)):
            noise_rng = rng_for(p.seed, "sensor-noise", idx)
            v[idx] += noise_rng.normal(0.0, p.noise_sigma, size=v.shape[1:])
    return v


@dataclass(frozen=True)
class AttackParams:
    """Copy-attack configuration: estimation step plus reprint channel.

    The attack family is implied by the cleanup flag, matching the shipped
    fake conventions: machines that post-process their scan (morph_cleanup
    True) are the fake1 family, machines that do not are fake2. Substrate
    (white/gray) is read off the reprint albedo.
    """

    morph_cleanup: bool = True
    reprint: ChannelParams = ChannelParams()

    def label(self) -> str:
        family = "fake1" if self.morph_cleanup else "fake2"
        substrate = "white" if self.reprint.substrate_albedo >= 0.85 else "gray"
        return f"{family}_{substrate}"


def estimate_template_binary(observed: ObservedCode, a: AttackParams) -> np.ndarray:
    """The attacker's template estimate: binarize at Otsu, optionally clean up."""
    try:
        thr = otsu_threshold(observed.image)
    except DegenerateImageError as exc:
        raise AttackError(f"cannot binarize probe: {exc}") from exc
    est = binarize(observed.image, thr)
    if a.morph_cleanup:
        est = majority_filter(est)
    return est


def majority_filter(binary: np.ndarray) -> np.ndarray:
    """3x3 majority vote with replicated borders; kills isolated pixels."""
    counts = _correlate(np.asarray(binary, dtype=np.float64), np.ones((3, 3)), "edge")
    return (counts >= 5.0).astype(np.uint8)


def copy_attack(observed: ObservedCode, a: AttackParams) -> ObservedCode:
    """Estimate the template from an acquired code and reprint it.

    Returns an ObservedCode labeled by attack family and substrate; the fake
    inherits template_id and symbol size from the attacked code.
    """
    est = estimate_template_binary(observed, a)
    ink = InkMap(
        values=spread_ink(est, a.reprint.dot_gain, a.reprint.spread_radius),
        frame_px=0,
        cdp_side_px=est.shape[0],
        symbol_px=observed.symbol_px,
        template_id=observed.template_id,
    )
    return acquire(ink, a.reprint, label=a.label())


# Shipped defaults. The original press is a mild channel; fake1 is a close
# copy (cleanup on, mild reprint dot gain), fake2 a coarse dark copy
# (cleanup off, strong reprint dot gain over a wider spread).
DEFAULT_PRINT = ChannelParams()


def default_original_params(seed: int, plane_jitter: float = 0.03) -> ChannelParams:
    return replace(DEFAULT_PRINT, seed=seed, plane_jitter=plane_jitter)


# Per family: (morph_cleanup, reprint fields); per substrate: the reprint's albedo.
ATTACK_FAMILIES = {
    "fake1": (True, dict(dot_gain=0.3, blur_sigma=0.7, ink_albedo=0.10, noise_sigma=0.02,
                         spread_radius=1)),
    "fake2": (False, dict(dot_gain=0.9, blur_sigma=1.0, ink_albedo=0.08, noise_sigma=0.025,
                          spread_radius=2)),
}
SUBSTRATE_ALBEDO = {"white": 0.95, "gray": 0.75}


def default_attack_params(
    family: str, substrate: str, seed: int, plane_jitter: float = 0.03
) -> AttackParams:
    """Shipped attack configurations: family in {fake1, fake2}, substrate in {white, gray}."""
    if family not in ATTACK_FAMILIES:
        raise ParameterError("family must be 'fake1' or 'fake2'")
    if substrate not in SUBSTRATE_ALBEDO:
        raise ParameterError("substrate must be 'white' or 'gray'")
    cleanup, fields = ATTACK_FAMILIES[family]
    reprint = ChannelParams(**fields, substrate_albedo=SUBSTRATE_ALBEDO[substrate],
                            seed=seed, plane_jitter=plane_jitter)
    return AttackParams(morph_cleanup=cleanup, reprint=reprint)


def save_observed(code: ObservedCode, path: str | Path) -> None:
    """Write the code's raster at path with suffix .ppm (color) or .pgm (grayscale)."""
    path = Path(path).with_suffix(".pgm" if code.planes is None else ".ppm")
    if code.planes is None:
        write_pgm(path, to_uint8(code.image))
    else:
        write_ppm(path, code.planes if code.planes.dtype == np.uint8 else to_uint8(code.planes))


def load_observed(path: str | Path, label: str, template_id: str, symbol_px: int) -> ObservedCode:
    """The code whose raster save_observed wrote at path (a .ppm path is color,
    any other grayscale); a raster holds no metadata, so the caller supplies
    label, template_id and symbol_px.

    Color codes keep their planes as the PPM's (H, W, 3) uint8 levels, one
    byte per sample, with luminance computed from those levels scaled to
    [0, 1], so a loaded code re-saves byte-identically.
    """
    if Path(path).suffix == ".ppm":
        planes = read_ppm(path)
        image = from_uint8(planes) @ _LUMA
    else:
        planes = None
        image = from_uint8(read_pgm(path))
    return ObservedCode(
        image=image, label=label, template_id=template_id, symbol_px=symbol_px, planes=planes
    )
