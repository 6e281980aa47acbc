"""PGM/PPM headers and model JSON files: malformed fields raise DataError naming
the file and the field."""

import json
import shutil

import numpy as np
import pytest

from cdp_authkit.checks import toy_batch
from cdp_authkit.cli import main
from cdp_authkit.deepfeat import AeConfig, load_ae, save_ae, train_ae
from cdp_authkit.errors import DataError
from cdp_authkit.imageio import read_pgm, read_ppm
from cdp_authkit.ocsvm import load_model, save_model, train_ocsvm
from cdp_authkit.rng import rng_for
from cdp_authkit.supervised import TrainConfig, load_classifier, save_classifier, train_classifier


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


def _ae():
    images, symbols = toy_batch((13,), 4)
    return train_ae(images, symbols, 1, AeConfig(epochs=1, batch_size=4, channels=2))


def _classifier():
    x = rng_for(13, "loader").random((6, 3))
    return train_classifier(x, np.array([0, 0, 0, 1, 1, 1]), 2, TrainConfig(epochs=1, hidden=2))


def _ocsvm():
    return train_ocsvm(rng_for(13, "loader").normal(size=(10, 2)), nu=0.5)


def _set(**fields):
    return lambda obj: obj.update(fields)


def _set_config(**fields):
    return lambda obj: obj["config"].update(fields)


@pytest.mark.parametrize(
    "make, save, load, field, tampered",
    [
        (_ae, save_ae, load_ae, "config", [
            (_set_config(widgets=3), "field 'config' has unknown key 'widgets'"),
            (_set_config(epochs="3"), "field 'config.epochs' must be an integer, got '3'"),
            (_set_config(lr=None), "field 'config.lr' must be a number, got None"),
            (_set_config(epochs=0), "field 'config': epochs and batch_size must be positive"),
            (_set(scenario=None), "field 'scenario' must be an integer, got None"),
            (_set(n_sym=12.0), "field 'n_sym' must be an integer, got 12.0"),
            (_set(groups=[]), "field 'groups' must be an object, got list"),
            (lambda obj: obj["groups"].update(encoder={}),
             "groups: field 'encoder' must be a list, got dict"),
            (lambda obj: obj["groups"]["encoder"][0].pop("b"),
             "groups.encoder[0]: missing field 'b'"),
            (lambda obj: obj["groups"]["encoder"][0]["b"].__setitem__(0, "x"),
             "groups.encoder[0]: field 'b' must be a list of finite numbers"),
        ]),
        (_classifier, save_classifier, load_classifier, "config", [
            (_set_config(widgets=3), "field 'config' has unknown key 'widgets'"),
            (_set_config(hidden=True), "field 'config.hidden' must be an integer, got True"),
            (_set(n_classes="2"), "field 'n_classes' must be an integer, got '2'"),
            (_set(final_loss=None), "field 'final_loss' must be a number, got None"),
            (_set(class_names="ab"), "field 'class_names' must be a list, got 'ab'"),
        ]),
        (_ocsvm, save_model, load_model, "alphas", [
            (_set(n_train="10"), "field 'n_train' must be an integer, got '10'"),
            (_set(rho=None), "field 'rho' must be a number, got None"),
            (_set(scaler_std=[1.0]), "field 'scaler_std' must have shape (2,), got (1,)"),
            (_set(alphas=None), "field 'alphas' must be a list of finite numbers"),
        ]),
    ],
    ids=["ae", "classifier", "ocsvm"],
)
def test_malformed_model_file_names_file_and_field(tmp_path, make, save, load, field, tampered):
    path = tmp_path / "model.json"
    save(make(), path)
    obj = json.loads(path.read_text())
    for edit, message in tampered:
        bad = json.loads(json.dumps(obj))
        edit(bad)
        path.write_text(json.dumps(bad))
        with pytest.raises(DataError) as info:
            load(path)
        assert str(info.value) == f"{path}: {message}"
    del obj[field]
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError) as info:
        load(path)
    assert str(info.value) == f"{path}: missing field '{field}'"
    path.write_text(json.dumps([obj]))  # a JSON list, not an object
    with pytest.raises(DataError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: not a")
