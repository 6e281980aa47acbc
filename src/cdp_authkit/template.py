"""Digital templates: random binary symbol grids and their pixel renderings.

A template is the ground-truth object every other stage refers back to. It
is a square grid of binary symbols (1 = ink/black, 0 = substrate/white),
rendered to pixels by block upsampling, optionally framed with solid corner
markers used for synchronization. Files on disk use PGM (0 = black) plus a
JSON sidecar carrying the generation parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError
from .imageio import read_json, read_pgm, require_fields, write_json, write_pgm
from .rng import rng_for


@dataclass(frozen=True, eq=False)
class Template:
    """Binary symbol grid plus its pixel rendering.

    Attributes:
        symbols: (n_sym, n_sym) uint8 array of {0, 1}, 1 meaning ink.
        symbol_px: pixel side length of one symbol.
        pixels: rendered binary pixel grid, including any marker frame.
        seed: seed the symbols were drawn from.
        marker_width_px: width of the marker frame (0 = none).
    """

    symbols: np.ndarray
    symbol_px: int
    pixels: np.ndarray
    seed: int
    marker_width_px: int

    def __post_init__(self):
        self.symbols.setflags(write=False)
        self.pixels.setflags(write=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Template):
            return NotImplemented
        return (
            self.symbol_px == other.symbol_px
            and self.seed == other.seed
            and self.marker_width_px == other.marker_width_px
            and np.array_equal(self.symbols, other.symbols)
            and np.array_equal(self.pixels, other.pixels)
        )

    @property
    def n_sym(self) -> int:
        return int(self.symbols.shape[0])

    @property
    def cdp_side_px(self) -> int:
        """Side length of the marker-free pattern area, in pixels."""
        return self.n_sym * self.symbol_px

    def cdp_pixels(self) -> np.ndarray:
        """Pixel rendering of the pattern area with any marker frame removed."""
        w = self.marker_width_px
        side = self.cdp_side_px
        return self.pixels[w : w + side, w : w + side]


def generate_template(
    n_sym: int, symbol_px: int, black_fraction: float, seed: int
) -> Template:
    """Draw an i.i.d. Bernoulli symbol grid and render it to pixels.

    Args:
        n_sym: symbols per side, >= 1.
        symbol_px: pixels per symbol side, >= 1.
        black_fraction: marginal ink probability, in [0, 1].
        seed: RNG seed; equal seeds and dimensions give equal templates.

    Returns:
        Template with marker_width_px = 0.
    """
    if n_sym < 1 or symbol_px < 1:
        raise ParameterError("n_sym and symbol_px must be positive integers")
    if not 0.0 <= black_fraction <= 1.0:
        raise ParameterError("black_fraction must lie in [0, 1]")
    rng = rng_for(seed, "template-symbols")
    symbols = (rng.random((n_sym, n_sym)) < black_fraction).astype(np.uint8)
    pixels = upsample_symbols(symbols, symbol_px)
    return Template(
        symbols=symbols,
        symbol_px=int(symbol_px),
        pixels=pixels,
        seed=int(seed),
        marker_width_px=0,
    )


def upsample_symbols(symbols: np.ndarray, symbol_px: int) -> np.ndarray:
    """Block-upsample a symbol grid to pixels (each symbol -> symbol_px^2 block)."""
    symbols = np.asarray(symbols, dtype=np.uint8)
    return np.kron(symbols, np.ones((symbol_px, symbol_px), dtype=np.uint8))


def add_markers(t: Template, marker_width_px: int) -> Template:
    """Frame the pattern with four solid black corner squares.

    The pixel grid grows by marker_width_px on every side; the four corners
    of the enlarged grid are solid ink squares of that width and the rest of
    the frame is white. Width 0 returns the input unchanged.
    """
    w = int(marker_width_px)
    if w < 0:
        raise ParameterError("marker width must be nonnegative")
    if w == 0:
        return t
    if t.marker_width_px != 0:
        raise ParameterError("template already carries a marker frame")
    side = t.pixels.shape[0]
    if w > side // 2:
        raise ParameterError(
            f"marker width {w} exceeds half the pattern side {side}"
        )
    framed = np.zeros((side + 2 * w, side + 2 * w), dtype=np.uint8)
    framed[w : w + side, w : w + side] = t.pixels
    framed[:w, :w] = 1
    framed[:w, -w:] = 1
    framed[-w:, :w] = 1
    framed[-w:, -w:] = 1
    return Template(
        symbols=t.symbols,
        symbol_px=t.symbol_px,
        pixels=framed,
        seed=t.seed,
        marker_width_px=w,
    )


def save_template(t: Template, path: str | Path) -> None:
    """Write <path>.pgm (0 = ink) and <path>.json sidecar."""
    base = Path(path)
    base = base.with_suffix("") if base.suffix in (".pgm", ".json") else base
    # Reflectance convention on disk: ink 1 -> 0, white 0 -> 255.
    write_pgm(base.with_suffix(".pgm"), ((1 - t.pixels) * 255).astype(np.uint8))
    write_json(
        base.with_suffix(".json"),
        {
            "seed": t.seed,
            "n_sym": t.n_sym,
            "symbol_px": t.symbol_px,
            "marker_width_px": t.marker_width_px,
        },
    )


def load_template(path: str | Path) -> Template:
    """Load a template written by save_template; DataError naming the bad file."""
    base = Path(path)
    base = base.with_suffix("") if base.suffix in (".pgm", ".json") else base
    sidecar = base.with_suffix(".json")
    raster_path = base.with_suffix(".pgm")
    meta = read_json(sidecar)
    require_fields(meta, sidecar, seed="int", n_sym="int", symbol_px="int", marker_width_px="int")
    seed, n_sym, symbol_px, w = (meta[k] for k in ("seed", "n_sym", "symbol_px", "marker_width_px"))
    pixels = (read_pgm(raster_path) == 0).astype(np.uint8)
    side = n_sym * symbol_px
    if pixels.shape != (side + 2 * w, side + 2 * w):
        raise DataError(f"{raster_path}: raster shape disagrees with {sidecar.name} dimensions")
    core = pixels[w : w + side, w : w + side]
    symbols = downsample_majority(core, symbol_px)
    if not np.array_equal(upsample_symbols(symbols, symbol_px), core):
        raise DataError(f"{raster_path}: raster is not a block upsampling of a symbol grid")
    return Template(
        symbols=symbols,
        symbol_px=symbol_px,
        pixels=pixels,
        seed=seed,
        marker_width_px=w,
    )


def downsample_majority(binary: np.ndarray, block: int) -> np.ndarray:
    """Majority vote over block x block cells; exact ties count as ink."""
    binary = np.asarray(binary)
    h, w = binary.shape
    if h % block or w % block:
        raise DataError("binary grid is not a whole number of blocks")
    sums = binary.reshape(h // block, block, w // block, block).sum(axis=(1, 3))
    return (2 * sums >= block * block).astype(np.uint8)
