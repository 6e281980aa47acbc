"""Plain PGM/PPM image files and canonical JSON sidecars.

Grayscale images go to binary PGM (P5, maxval 255), color stacks to binary
PPM (P6). Intensity convention follows reflectance: 0 is ink/black, 255 is
bare substrate/white. JSON is written with sorted keys and a trailing
newline so repeated writes of equal content are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DataError


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a 2-D uint8 array as binary PGM (P5)."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise DataError("PGM writer expects a 2-D uint8 array")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    (w, h), raster = _parse_header(data, b"P5", path)
    expected = w * h
    if len(raster) < expected:
        raise DataError(f"short PGM raster in {path}")
    return np.frombuffer(raster[:expected], dtype=np.uint8).reshape(h, w).copy()


def write_ppm(path: str | Path, planes: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM (P6)."""
    planes = np.asarray(planes)
    if planes.ndim != 3 or planes.shape[2] != 3 or planes.dtype != np.uint8:
        raise DataError("PPM writer expects an (H, W, 3) uint8 array")
    h, w, _ = planes.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(planes.tobytes())


def read_ppm(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    (w, h), raster = _parse_header(data, b"P6", path)
    expected = w * h * 3
    if len(raster) < expected:
        raise DataError(f"short PPM raster in {path}")
    return np.frombuffer(raster[:expected], dtype=np.uint8).reshape(h, w, 3).copy()


def _parse_header(data: bytes, magic: bytes, path) -> tuple:
    """((width, height), raster) of a binary PGM/PPM file.

    Header: magic, then width, height and maxval as whitespace-separated
    decimal fields ('#' starts a comment running to the end of the line),
    then a single whitespace byte and the raster. A missing, non-numeric or
    non-positive field raises DataError naming the file and the field.
    """
    if not data.startswith(magic):
        raise DataError(f"{path}: not a {magic.decode()} file")
    fields = []
    pos = len(magic)
    for name in ("width", "height", "maxval"):
        while True:
            while data[pos : pos + 1].isspace():
                pos += 1
            if data[pos : pos + 1] != b"#":
                break
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos].decode("latin-1")
        if not token:
            raise DataError(f"{path}: header ends before its {name} field")
        if not (token.isascii() and token.isdigit()) or int(token) == 0:
            raise DataError(f"{path}: {name} must be a positive integer, got {token!r}")
        fields.append(int(token))
    w, h, maxval = fields
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 is supported, got {maxval}")
    return (w, h), data[pos + 1 :]


def to_uint8(image: np.ndarray) -> np.ndarray:
    """Quantize a float image in [0, 1] to uint8 levels k/255."""
    arr = np.asarray(image, dtype=np.float64)
    return np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)


def from_uint8(image: np.ndarray) -> np.ndarray:
    """Inverse of to_uint8 up to quantization: uint8 levels back to [0, 1]."""
    return np.asarray(image, dtype=np.float64) / 255.0


def write_json(path: str | Path, obj) -> None:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline."""
    text = json.dumps(obj, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def require_fields(obj, path: str | Path, *names: str) -> None:
    """DataError naming the file unless obj is a JSON object holding every field in names."""
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object")
    for name in names:
        if name not in obj:
            raise DataError(f"{path}: missing field '{name}'")
