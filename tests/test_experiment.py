"""Dataset synthesis, splits, augmentation, presets, reports, and PCA export."""

import csv
import json

import numpy as np
import pytest

from cdp_authkit import checks
from cdp_authkit.deepfeat import AeConfig
from cdp_authkit.errors import DataError, ParameterError
from cdp_authkit.experiment import (
    AUGMENT_TAGS,
    CLASS_ORDER,
    PRESETS,
    DatasetConfig,
    ae_training_arrays,
    augment,
    augment_image,
    augment_symbols,
    codes_in_split,
    config_hash,
    load_dataset,
    load_manifest,
    pca_embed,
    run_experiment,
    spatial_pair_features,
    split_by_template,
    synthesize_dataset,
    write_features_csv,
)
from cdp_authkit.rng import rng_for

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
    assert DatasetConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ParameterError):
        DatasetConfig(n_templates=0)
    with pytest.raises(ParameterError):
        DatasetConfig(black_fraction=1.0)
    with pytest.raises(ParameterError):
        DatasetConfig(plane_jitter=-0.1)
    with pytest.raises(ParameterError):
        DatasetConfig.from_dict({**cfg.to_dict(), "extra": 1})


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
    # tampering with the stored config invalidates the hash
    obj = json.loads((small_dataset_dir / "manifest.json").read_text())
    obj["config"]["seed"] = 99
    bad_dir = small_dataset_dir.parent / "tampered"
    bad_dir.mkdir(exist_ok=True)
    (bad_dir / "manifest.json").write_text(json.dumps(obj))
    with pytest.raises(DataError, match="manifest.json: config hash does not match"):
        load_manifest(bad_dir)


# each edit leaves codes[1] (the first template's second code) as the bad entry
TAMPERED_ENTRIES = [
    (lambda codes: codes.append(dict(codes[1])), "duplicates"),
    (lambda codes: codes[1].update(template_id="t9999"), "template t9999 is not in template_ids"),
    (lambda codes: codes[1].update(split="val" if codes[1]["split"] != "val" else "test"),
     "but template t0000 is in "),
]


@pytest.mark.parametrize("edit, message", TAMPERED_ENTRIES,
                         ids=["duplicate", "unknown-template", "split"])
def test_manifest_rejects_inconsistent_entries(small_dataset_dir, tmp_path, edit, message):
    obj = json.loads((small_dataset_dir / "manifest.json").read_text())
    entry = dict(obj["codes"][1])
    edit(obj["codes"])
    (tmp_path / "manifest.json").write_text(json.dumps(obj))
    with pytest.raises(DataError, match=message) as info:
        load_manifest(tmp_path)
    assert str(info.value).startswith(f"{tmp_path / 'manifest.json'}: entry {entry['path']}: ")


def test_synthesis_deterministic_and_parallel_equal(tmp_path):
    cfg = DatasetConfig(n_templates=6, n_sym=8, seed=11)
    for name, jobs in (("a", 1), ("b", 1), ("c", 2)):
        synthesize_dataset(cfg, tmp_path / name, jobs=jobs)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files
    for other in ("b", "c"):
        for rel in files:
            assert (tmp_path / other / rel).read_bytes() == (tmp_path / "a" / rel).read_bytes()


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
    variants = augment(code)
    assert [v.params["augmentation"] for v in variants] == list(AUGMENT_TAGS)
    assert len(variants) == 12
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
    assignment = {e["template_id"]: e["split"] for e in small_dataset.manifest.codes}
    n_train = sum(
        1
        for c in small_dataset.codes.values()
        if c.label == "original" and assignment[c.template_id] == "train"
    )
    images, symbols = ae_training_arrays(small_dataset, assignment)
    assert images.shape == (n_train * 12, 36, 36)
    assert symbols.shape == (n_train * 12, 12, 12)


def test_codes_in_split_and_pair_features(small_dataset):
    assignment = {e["template_id"]: e["split"] for e in small_dataset.manifest.codes}
    train = codes_in_split(small_dataset, assignment, "train", ("original",))
    assert len(train) == 10
    assert all(c.label == "original" for c in train)
    feats = spatial_pair_features(small_dataset, train, "digital", "gray")
    assert feats.shape == (10, 2)
    physical = spatial_pair_features(small_dataset, train, "physical", "rgb")
    assert physical.shape == (10, 2)
    assert not np.array_equal(feats, physical)


def test_pair_features_need_enrolled_reference(tmp_path):
    cfg = DatasetConfig(n_templates=3, n_sym=8, physical_refs=False, seed=2)
    synthesize_dataset(cfg, tmp_path / "nr")
    data = load_dataset(tmp_path / "nr")
    codes = [c for c in data.codes.values() if c.label == "original"]
    with pytest.raises(DataError):
        spatial_pair_features(data, codes, "physical", "gray")


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
