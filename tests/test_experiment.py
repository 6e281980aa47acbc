"""Dataset synthesis, splits, augmentation, presets, reports, and PCA export."""

import csv
import itertools
import json
import shutil

import numpy as np
import pytest

from cdp_authkit import checks, experiment, metrics
from cdp_authkit.deepfeat import AeConfig, build_ae_model
from cdp_authkit.errors import DataError, ParameterError
from cdp_authkit.experiment import (
    AUGMENT_TAGS,
    CLASS_ORDER,
    PRESETS,
    DatasetConfig,
    _supervised_features,
    ae_training_arrays,
    augment,
    augment_image,
    augment_symbols,
    codes_in_split,
    config_hash,
    deep_features,
    deep_features_per_set,
    fit_spatial_ocsvm,
    load_dataset,
    load_manifest,
    manifest_assignment,
    pca_embed,
    run_experiment,
    spatial_features,
    split_by_template,
    synthesize_dataset,
    write_features_csv,
)
from cdp_authkit.imageio import config_field
from cdp_authkit.metrics import feature_vector
from cdp_authkit.rng import rng_for
from cdp_authkit.supervised import images_to_features

from conftest import SMALL_CONFIG


def test_config_hash_stable_and_sensitive():
    checks.seed_stability()
    base = DatasetConfig()
    for change in (
        dict(n_templates=299),
        dict(seed=1),
        dict(plane_jitter=0.0),
        dict(physical_refs=False),
    ):
        assert config_hash(DatasetConfig(**{**base.to_dict(), **change})) != config_hash(base)


def test_dataset_config_validation_and_roundtrip():
    cfg = DatasetConfig(n_templates=5, n_sym=8, seed=3)
    assert config_field({"config": cfg.to_dict()}, "m.json", "config", DatasetConfig) == cfg
    with pytest.raises(ParameterError):
        DatasetConfig(n_templates=0)
    with pytest.raises(ParameterError):
        DatasetConfig(black_fraction=1.0)
    with pytest.raises(ParameterError):
        DatasetConfig(plane_jitter=-0.1)
    with pytest.raises(DataError, match="m.json: field 'config' has unknown key 'extra'"):
        config_field({"config": {**cfg.to_dict(), "extra": 1}}, "m.json", "config", DatasetConfig)


def test_manifest_contract(small_dataset_dir, small_dataset):
    manifest = small_dataset.manifest
    assert manifest.config == SMALL_CONFIG
    assert manifest.config_hash == config_hash(SMALL_CONFIG)
    labels = [c["label"] for c in manifest.codes]
    assert labels.count("original") == 25
    assert labels.count("physical_reference") == 25
    for fake in CLASS_ORDER[1:]:
        assert labels.count(fake) == 25
    # every referenced raster exists next to the manifest
    for code in manifest.codes:
        assert (small_dataset_dir / code["path"]).exists()
    # the stored split: one entry per template, each code's own split
    assignment = manifest_assignment(small_dataset)
    assert sorted(assignment) == sorted(small_dataset.templates)
    assert all(assignment[c["template_id"]] == c["split"] for c in manifest.codes)
    # tampering with the stored config invalidates the hash
    obj = json.loads((small_dataset_dir / "manifest.json").read_text())
    obj["config"]["seed"] = 99
    bad_dir = small_dataset_dir.parent / "tampered"
    bad_dir.mkdir(exist_ok=True)
    (bad_dir / "manifest.json").write_text(json.dumps(obj))
    with pytest.raises(DataError, match="manifest.json: config hash does not match"):
        load_manifest(bad_dir)


# each edit leaves codes[1] (the first template's second code) as the bad entry,
# named by its path, or by its index where the entry itself is malformed
TAMPERED_ENTRIES = [
    (lambda codes: codes.append(dict(codes[1])), "duplicates"),
    (lambda codes: codes[1].update(template_id="t9999"), "template t9999 is not in template_ids"),
    (lambda codes: codes[1].update(split="val" if codes[1]["split"] != "val" else "test"),
     "but template t0000 is in "),
    (lambda codes: codes[1].update(label="fake3_white"), "unknown label 'fake3_white'"),
    (lambda codes: codes[1].update(split="holdout"), "unknown split 'holdout'"),
    (lambda codes: codes[1].update(path=codes[1]["path"].replace(".ppm", ".pgm")),
     r"this dataset's rasters are \.ppm files"),
    (lambda codes: codes[1].pop("split"), r"codes\[1\]: missing field 'split'"),
    (lambda codes: codes[1].pop("path"), r"codes\[1\]: missing field 'path'"),
    (lambda codes: codes[1].update(template_id=7),
     r"codes\[1\]: field 'template_id' must be a string"),
    (lambda codes: codes.__setitem__(1, [codes[1]]), r"codes\[1\]: expected a JSON object"),
    # a path must be the code's own raster under codes/: none outside the dataset
    # directory, and no fake read from its original's file
    (lambda codes: codes[1].update(path="../outside.ppm"),
     "the physical_reference code of t0000 must be codes/t0000_physical_reference.ppm"),
    (lambda codes: codes[1].update(path="/tmp/t0000_physical_reference.ppm"),
     "the physical_reference code of t0000 must be codes/t0000_physical_reference.ppm"),
    (lambda codes: codes.insert(1, {**codes.pop(2), "path": "codes/t0000_original.ppm"}),
     "the fake1_white code of t0000 must be codes/t0000_fake1_white.ppm"),
]


@pytest.mark.parametrize("edit, message", TAMPERED_ENTRIES,
                         ids=["duplicate", "unknown-template", "split", "unknown-label",
                              "unknown-split", "raster-kind", "no-split", "no-path",
                              "template-id-type", "not-an-object", "escaping-path",
                              "absolute-path", "fake-names-original"])
def test_manifest_rejects_inconsistent_entries(small_dataset_dir, tmp_path, edit, message):
    obj = json.loads((small_dataset_dir / "manifest.json").read_text())
    edit(obj["codes"])
    (tmp_path / "manifest.json").write_text(json.dumps(obj))
    with pytest.raises(DataError, match=message) as info:
        load_manifest(tmp_path)
    where = "codes[1]" if message.startswith("codes") else f"entry {obj['codes'][1]['path']}"
    assert str(info.value).startswith(f"{tmp_path / 'manifest.json'}: {where}: ")


def test_code_sidecars_of_older_datasets_are_ignored(small_dataset_dir, small_dataset, tmp_path):
    # older datasets hold a JSON sidecar beside each code raster;
    # loading and every report ignore them, even a corrupt one
    old = tmp_path / "old"
    shutil.copytree(small_dataset_dir, old)
    for entry in small_dataset.manifest.codes:
        sidecar = (old / entry["path"]).with_suffix(".json")
        sidecar.write_text(json.dumps({
            "label": entry["label"], "template_id": entry["template_id"], "symbol_px": 3,
            "acquisition_seed": 0, "params": {}, "raster": "ppm"}))
    (old / small_dataset.manifest.codes[1]["path"]).with_suffix(".json").write_text("{")
    loaded = load_dataset(old)
    assert loaded.codes.keys() == small_dataset.codes.keys()
    for key, code in small_dataset.codes.items():
        assert loaded.codes[key].planes.tobytes() == code.planes.tobytes()
    for name, data in (("new", small_dataset_dir), ("old", old)):
        run_experiment(data, "ocsvm-spatial", runs=2, seed=3, out_dir=tmp_path / f"r-{name}")
    for name in ("report.json", "runs.csv", "report.md"):
        assert (tmp_path / "r-old" / name).read_bytes() == (tmp_path / "r-new" / name).read_bytes()


def test_synthesis_deterministic_and_parallel_equal(tmp_path):
    cfg = DatasetConfig(n_templates=6, n_sym=8, seed=11)
    for name, jobs in (("a", 1), ("b", 1), ("c", 2)):
        synthesize_dataset(cfg, tmp_path / name, jobs=jobs)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    # the manifest, a raster and a sidecar per template, and one raster per code
    manifest = load_manifest(tmp_path / "a")
    assert [str(f) for f in files] == sorted(
        ["manifest.json", *(c["path"] for c in manifest.codes),
         *(f"templates/{tid}{ext}" for tid in manifest.template_ids for ext in (".json", ".pgm"))])
    assert len(files) == 1 + 2 * 6 + 6 * 6
    for other in ("b", "c"):
        for rel in files:
            assert (tmp_path / other / rel).read_bytes() == (tmp_path / "a" / rel).read_bytes()


def test_loaded_color_planes_hold_one_byte_per_sample(small_dataset):
    # a float64 copy of the planes would hold 8x these bytes
    codes = list(small_dataset.codes.values())
    side = SMALL_CONFIG.n_sym * SMALL_CONFIG.symbol_px
    assert codes and all(c.planes is not None for c in codes)
    assert sum(c.planes.nbytes for c in codes) == len(codes) * side * side * 3


def test_split_proportions_and_determinism():
    ids = [f"t{i:04d}" for i in range(25)]
    a = split_by_template(ids, seed=0)
    b = split_by_template(ids, seed=0)
    c = split_by_template(ids, seed=1)
    assert a == b and a != c
    counts = {s: sum(1 for v in a.values() if v == s) for s in ("train", "val", "test")}
    assert counts == {"train": 10, "val": 2, "test": 13}
    big = split_by_template([str(i) for i in range(300)], seed=0)
    counts = {s: sum(1 for v in big.values() if v == s) for s in ("train", "val", "test")}
    assert counts == {"train": 120, "val": 30, "test": 150}
    with pytest.raises(ParameterError):
        split_by_template(["a", "b"], seed=0)


def test_augment_family(small_dataset):
    code = next(c for c in small_dataset.codes.values() if c.label == "original")
    variants = augment(code.image)
    assert len(variants) == len(AUGMENT_TAGS) == 12
    for tag, variant in zip(AUGMENT_TAGS, variants):
        assert np.array_equal(variant, augment_image(code.image, tag)), tag
    assert np.array_equal(variants[0], code.image)
    assert np.array_equal(augment_image(code.image, "gamma-1.0"), code.image)
    img = code.image
    for _ in range(4):
        img = augment_image(img, "rot90")
    assert np.array_equal(img, code.image)
    # rotations keep probe and template aligned
    t = small_dataset.templates[code.template_id]
    rot_sym = augment_symbols(t.symbols, "rot270")
    assert np.array_equal(
        augment_image(np.repeat(np.repeat(t.symbols, 3, 0), 3, 1), "rot270"),
        np.repeat(np.repeat(rot_sym, 3, 0), 3, 1),
    )
    # gamma variants never touch the symbols
    assert np.array_equal(augment_symbols(t.symbols, "gamma-0.7"), t.symbols)
    with pytest.raises(ParameterError):
        augment_image(code.image, "rot45")
    with pytest.raises(ParameterError):
        augment_image(code.image, "flip-h")


def test_ae_training_arrays_cover_augmented_train_originals(small_dataset):
    assignment = manifest_assignment(small_dataset)
    n_train = sum(
        1
        for c in small_dataset.codes.values()
        if c.label == "original" and assignment[c.template_id] == "train"
    )
    images, symbols = ae_training_arrays(small_dataset, assignment)
    assert images.shape == (n_train * 12, 36, 36)
    assert symbols.shape == (n_train * 12, 12, 12)
    no_train = {tid: "test" for tid in assignment}
    with pytest.raises(ParameterError, match="no train-split originals"):
        ae_training_arrays(small_dataset, no_train)


def test_ae_training_arrays_stack_augment_with_matching_symbols(small_dataset):
    # per train original, in split order: augment(code.image), and the template's
    # symbol grid turned by the same rotation
    assignment = manifest_assignment(small_dataset)
    images, symbols = ae_training_arrays(small_dataset, assignment)
    train = codes_in_split(small_dataset, assignment, "train", ("original",))
    turns = {"rot90": 1, "rot180": 2, "rot270": 3}
    want_images, want_symbols = [], []
    for code in train:
        grid = small_dataset.templates[code.template_id].symbols
        want_images += augment(code.image)
        want_symbols += [np.rot90(grid, k=turns.get(tag, 0)) for tag in AUGMENT_TAGS]
    assert images.dtype == np.float64 and symbols.dtype == np.uint8
    assert np.array_equal(images, np.stack(want_images))
    assert np.array_equal(symbols, np.stack(want_symbols))


def test_supervised_features_equal_pooling_the_full_augmented_list(small_dataset):
    # _supervised_features pools one code's variants at a time; the rows and
    # labels must be those of pooling every variant of every code in one list
    codes = codes_in_split(small_dataset, manifest_assignment(small_dataset), "train", CLASS_ORDER)
    images, labels = [], []
    for code in codes:
        images += augment(code.image)
        labels += [code.label] * len(AUGMENT_TAGS)
    x, names = _supervised_features(codes, augmented=True)
    assert np.array_equal(x, images_to_features(images))
    assert names == labels
    x_plain, plain_names = _supervised_features(codes, augmented=False)
    assert np.array_equal(x_plain, images_to_features([code.image for code in codes]))
    assert plain_names == [code.label for code in codes]


def test_codes_in_split_and_pair_features(small_dataset):
    assignment = manifest_assignment(small_dataset)
    train = codes_in_split(small_dataset, assignment, "train", ("original",))
    assert len(train) == 10
    assert all(c.label == "original" for c in train)
    feats = spatial_features(small_dataset, train, "digital", False)
    assert len(feats) == 10
    physical = spatial_features(small_dataset, train, "physical", True)
    assert len(physical) == 10
    assert not np.array_equal([fv.as_array() for fv in feats], [fv.as_array() for fv in physical])


def test_feature_table_rows_equal_direct_feature_vectors(small_dataset_dir, monkeypatch):
    # each code is thresholded once per loaded dataset, whatever reads its rows
    calls = []
    otsu = metrics.otsu_threshold
    monkeypatch.setattr(metrics, "otsu_threshold", lambda image: calls.append(1) or otsu(image))
    data = load_dataset(small_dataset_dir)
    probes = [c for c in data.codes.values() if c.label != "physical_reference"]
    settings = list(itertools.product(("digital", "physical"), (False, True)))
    tables = {s: spatial_features(data, probes, *s) for s in settings}
    assert len(calls) == len(data.codes) == 150
    assert all(spatial_features(data, probes, *s) == tables[s] for s in settings)
    assert len(calls) == 150
    monkeypatch.undo()

    for (reference, use_planes), rows in tables.items():
        for probe, row in zip(probes, rows, strict=True):
            ref = (data.templates[probe.template_id] if reference == "digital"
                   else data.codes[(probe.template_id, "physical_reference")])
            assert row == feature_vector(probe, ref, use_planes)  # every field, bit for bit


def test_pair_features_need_enrolled_reference(tmp_path):
    cfg = DatasetConfig(n_templates=3, n_sym=8, physical_refs=False, seed=2)
    synthesize_dataset(cfg, tmp_path / "nr")
    data = load_dataset(tmp_path / "nr")
    codes = [c for c in data.codes.values() if c.label == "original"]
    with pytest.raises(DataError):
        spatial_features(data, codes, "physical", False)


def test_spatial_features_reject_unknown_reference_and_color(small_dataset_dir):
    data = load_dataset(small_dataset_dir)
    assignment = manifest_assignment(data)
    codes = codes_in_split(data, assignment, "train", ("original",))
    with pytest.raises(ParameterError, match="reference .*'foo'"):
        spatial_features(data, codes, "foo", False)
    for reference, color, bad in (("foo", "blue", "'foo'"), ("digital", "blue", "color .*'blue'")):
        with pytest.raises(ParameterError, match=bad):
            fit_spatial_ocsvm(data, assignment, reference, color)
    assert not data._features  # rejected before any row is computed


def test_presets_registry():
    expected = {
        "supervised-5class",
        "supervised-binary-per-fake",
        "ocsvm-spatial",
        "ocsvm-spatial-digital-gray",
        "ocsvm-spatial-digital-rgb",
        "ocsvm-spatial-physical-gray",
        "ocsvm-spatial-physical-rgb",
        "deep-scenario-1",
        "deep-scenario-2",
        "deep-scenario-3",
        "deep-scenario-4",
    }
    assert set(PRESETS) == expected
    with pytest.raises(ParameterError):
        run_experiment("unused", "no-such-preset", runs=1)


def test_run_experiment_report_structure_and_determinism(small_dataset, tmp_path):
    report = run_experiment(small_dataset, "ocsvm-spatial-digital-gray", runs=2, seed=5,
                            out_dir=tmp_path / "r1")
    assert report.preset == "ocsvm-spatial-digital-gray"
    assert report.runs == 2
    assert report.dataset_hash == small_dataset.manifest.config_hash
    classes = {row["class_label"] for row in report.rows}
    assert classes == {"originals", "originals-val", *CLASS_ORDER[1:]}
    for row in report.rows:
        assert 0.0 <= row["mean"] <= 1.0
        assert len(row["per_run"]) == 2
        assert row["mean"] == pytest.approx(float(np.mean(row["per_run"])))
        assert row["std"] == pytest.approx(float(np.std(row["per_run"])))
        assert row["metric"] in ("p_miss", "p_fa")
    assert set(report.extras) == {"digital-gray/selected_nu"}
    again = run_experiment(small_dataset, "ocsvm-spatial-digital-gray", runs=2, seed=5,
                           out_dir=tmp_path / "r2")
    for name in ("report.json", "runs.csv", "report.md"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
    assert report.to_dict() == again.to_dict()


@pytest.mark.parametrize("preset", ["ocsvm-spatial", "supervised-5class", "deep-scenario-3"])
def test_report_bytes_independent_of_jobs(small_dataset_dir, tmp_path, preset):
    for jobs in (1, 2):
        run_experiment(small_dataset_dir, preset, runs=2, seed=4, out_dir=tmp_path / f"j{jobs}",
                       ae_config=AeConfig(epochs=1), jobs=jobs)
    for name in ("report.json", "runs.csv", "report.md"):
        assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j2" / name).read_bytes()


def test_runs_csv_recomputes_report_means(small_dataset, tmp_path):
    report = run_experiment(small_dataset, "ocsvm-spatial-physical-gray", runs=2, seed=1,
                            out_dir=tmp_path / "r")
    with open(tmp_path / "r" / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    for row in report.rows:
        values = [
            float(r["value"])
            for r in rows
            if r["setup"] == row["setup"]
            and r["class_label"] == row["class_label"]
            and r["metric"] == row["metric"]
        ]
        assert len(values) == 2
        assert float(np.mean(values)) == pytest.approx(row["mean"], abs=1e-15)


def test_deep_scenario_without_decoder_only_rules_one(small_dataset):
    report = run_experiment(
        small_dataset, "deep-scenario-2", runs=1, seed=3,
        ae_config=AeConfig(epochs=2, batch_size=8, channels=2, disc_hidden=8),
    )
    setups = {row["setup"] for row in report.rows}
    assert setups == {"scenario-2/rule-one"}  # no reconstruction metric to use


def test_rgb_variant_requires_color_dataset(tmp_path):
    cfg = DatasetConfig(n_templates=25, n_sym=8, plane_jitter=0.0, seed=4)
    synthesize_dataset(cfg, tmp_path / "gray")
    with pytest.raises(ParameterError):
        run_experiment(tmp_path / "gray", "ocsvm-spatial-digital-rgb", runs=1)


def test_report_markdown_has_percent_tables_and_extras(small_dataset, tmp_path):
    run_experiment(small_dataset, "ocsvm-spatial-digital-gray", runs=1, seed=0,
                   out_dir=tmp_path / "md")
    text = (tmp_path / "md" / "report.md").read_text()
    assert "## digital-gray" in text
    assert "All rates in percent" in text
    assert "(±" in text
    assert "## extras" in text
    assert "selected_nu" in text


def test_write_features_csv(small_dataset, tmp_path):
    used = write_features_csv(tmp_path / "f.csv", small_dataset, "digital", False)
    with open(tmp_path / "f.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(used) == 125  # physical references are not probes
    sample = rows[0]
    assert set(sample) == {"template_id", "label", "split", "pearson", "hamming_sym", "l1", "l2"}
    assert 0 <= float(sample["hamming_sym"]) <= 144


def test_pca_embed_properties():
    rng = rng_for(0, "pca")
    base = rng.normal(size=(200, 2)) * np.array([3.0, 0.5])
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    x = np.hstack([base @ rot.T, np.zeros((200, 1))]) + 5.0
    emb = pca_embed(x, dims=2)
    assert emb.shape == (200, 2)
    # recovered coordinates match the generating factors up to sign
    # finite-sample factors are nearly but not exactly orthogonal
    for dim in range(2):
        corr = np.corrcoef(emb[:, dim], base[:, dim])[0, 1]
        assert abs(corr) > 0.99
    assert emb[:, 0].var() >= emb[:, 1].var()
    with pytest.warns(UserWarning):
        flat = pca_embed(np.outer(rng.normal(size=50), np.ones(3)), dims=2)
    assert flat.shape == (50, 1)  # rank-deficient input drops trailing dims


def test_one_extraction_call_per_deep_run_gives_the_per_split_features(small_dataset,
                                                                       monkeypatch):
    """_run_deep extracts val, test and train codes in one call; each set's
    features are the bits of its own deep_features call, although the one
    call's batches of 4 straddle the sets."""
    data = small_dataset
    assignment = split_by_template(data.template_ids, 5)
    sets = [codes_in_split(data, assignment, "val", ("original",)),
            codes_in_split(data, assignment, "test", CLASS_ORDER),
            codes_in_split(data, assignment, "train", ("original",))]
    assert any(len(codes) % 4 for codes in sets)
    model = build_ae_model(3, SMALL_CONFIG.n_sym, SMALL_CONFIG.symbol_px,
                           AeConfig(batch_size=4, seed=2))
    for got, codes in zip(deep_features_per_set(data, model, *sets), sets):
        want = deep_features(data, model, codes)
        for key in ("hamming_sym", "recon_l2"):
            assert got[key].tobytes() == want[key].tobytes(), key
    calls = []
    real = experiment.extract_features_batch
    monkeypatch.setattr(experiment, "extract_features_batch",
                        lambda model, images, symbols: calls.append(len(images))
                        or real(model, images, symbols))
    experiment._run_deep(data, assignment, 5, 3, AeConfig(epochs=1, channels=2))
    assert calls == [sum(map(len, sets))]
