"""Plain PGM/PPM image files and canonical JSON files.

Grayscale images go to binary PGM (P5, maxval 255), color stacks to binary
PPM (P6). Intensity convention follows reflectance: 0 is ink/black, 255 is
bare substrate/white. JSON is written with sorted keys and a trailing
newline so repeated writes of equal content are byte-identical, and through
`replacing`, so a write that fails leaves the old file as it was.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError


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


@contextlib.contextmanager
def replacing(path: str | Path, **open_kwargs):
    """A text file, open for writing, that replaces path whole when the block ends.

    It is a temporary file in path's directory, moved over path by one
    os.replace; if the block raises, path keeps its old bytes (or stays
    absent) and the temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline; all or nothing."""
    text = json.dumps(obj, sort_keys=True, indent=2)
    with replacing(path, encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_json(path: str | Path):
    """The parsed JSON file; DataError naming the file when it is not valid JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from None


def require_fields(obj, where: str | Path, /, *names: str, **kinds: str) -> None:
    """DataError naming where (a file, perhaps with an entry) unless obj is a JSON
    object holding every field in names and kinds, those in kinds of that kind."""
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected a JSON object")
    for name in (*names, *kinds):
        if name not in obj:
            raise DataError(f"{where}: missing field '{name}'")
    for name, kind in kinds.items():
        check_type(obj[name], where, name, kind)


# JSON kind -> (Python types, what the message asks for); bool is only "bool"
_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "bool": (bool, "true or false"), "str": (str, "a string"),
          "list": (list, "a list"), "dict": (dict, "an object")}


def check_type(value, where: str | Path, name: str, kind: str):
    """value; DataError naming where and the field unless it is a JSON value of kind."""
    types, noun = _KINDS[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and kind != "bool"):
        shown = type(value).__name__ if isinstance(value, (list, dict)) else repr(value)
        raise DataError(f"{where}: field '{name}' must be {noun}, got {shown}")
    return value


def int_field(obj: dict, path: str | Path, name: str) -> int:
    """obj[name]; DataError naming the file and the field unless it is a JSON integer."""
    return check_type(obj[name], path, name, "int")


def array_field(obj: dict, where: str | Path, name: str, shape: tuple) -> np.ndarray:
    """obj[name] as a float64 array; DataError naming where and the field unless it
    is a (nested) list of finite JSON numbers of that shape (None: any length)."""
    try:
        arr = np.asarray(obj[name])
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise DataError(f"{where}: field '{name}' must be a list of finite numbers")
    if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        wanted = ", ".join("n" if n is None else str(n) for n in shape) + "," * (len(shape) == 1)
        raise DataError(f"{where}: field '{name}' must have shape ({wanted}), got {arr.shape}")
    return arr.astype(np.float64)


def config_field(obj: dict, path: str | Path, name: str, cls):
    """cls(**obj[name]) for a dataclass of int, float and bool fields (missing keys
    take defaults); DataError naming the field unless each value fits cls."""
    config = check_type(obj[name], path, name, "dict")
    kinds = {f.name: f.type for f in fields(cls)}
    for key, value in config.items():
        if key not in kinds:
            raise DataError(f"{path}: field '{name}' has unknown key '{key}'")
        check_type(value, path, f"{name}.{key}", kinds[key])
    try:
        return cls(**config)
    except ParameterError as exc:
        raise DataError(f"{path}: field '{name}': {exc}") from None
