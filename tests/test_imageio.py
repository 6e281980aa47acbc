"""PGM/PPM headers: malformed fields raise DataError naming the file and the field."""

import shutil

import numpy as np
import pytest

from cdp_authkit.cli import main
from cdp_authkit.errors import DataError
from cdp_authkit.imageio import read_pgm, read_ppm


@pytest.mark.parametrize(
    "header, field",
    [
        (b"P5\n12", "height"),
        (b"P5\nab 4\n255\n", "width"),
        (b"P5\n# comment", "width"),
        (b"P5\n-3 4\n255\n", "width"),
        (b"P5\n0 0\n255\n", "width"),
    ],
)
def test_bad_header_names_file_and_field(tmp_path, header, field):
    for reader, magic in ((read_pgm, b"P5"), (read_ppm, b"P6")):
        path = tmp_path / "bad.pnm"
        path.write_bytes(magic + header[2:])
        with pytest.raises(DataError) as info:
            reader(path)
        where, detail = str(info.value).split(": ", 1)
        assert where == str(path)
        assert field in detail


def test_header_comments_are_skipped(tmp_path):
    image = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n4 3 # w h\n255\n" + image.tobytes())
    assert np.array_equal(read_pgm(path), image)


def test_cli_exits_1_on_bad_header(small_dataset_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(small_dataset_dir, data)
    bad = data / "templates" / "t0003.pgm"
    bad.write_bytes(b"P5\nab 4\n255\n")
    assert main(["metrics", "--dataset", str(data), "--out", str(tmp_path / "f.csv")]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: width must be a positive integer, got 'ab'" in err
