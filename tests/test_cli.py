"""Command-line interface: exit codes, seed precedence, and the command cycle.

Commands run in-process through main() so stdout/stderr can be captured
cheaply; one test drives the console script (or `python -m cdp_authkit.cli`
when it is not installed) as a subprocess, and one trains in child processes
that differ only in their BLAS thread count.
"""

import csv
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from cdp_authkit import checks, experiment
from cdp_authkit.cli import main
from cdp_authkit.deepfeat import AeConfig
from cdp_authkit.experiment import (
    DatasetConfig,
    config_hash,
    load_dataset,
    pca_embed,
    write_embedding_csv,
)
from cdp_authkit.imageio import write_ppm
from cdp_authkit.metrics import feature_vector
from cdp_authkit.supervised import TrainConfig, load_classifier

from conftest import SMALL_CONFIG


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("CDP_AUTHKIT_SEED", raising=False)


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = int(exc.code)
    out, err = capsys.readouterr()
    return code, out, err


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(["gen", "--bogus"], capsys)
    assert code == 1
    assert "usage" in err
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1
    code, _, err = run_cli([], capsys)
    assert code == 1
    code, _, err = run_cli(["metrics"], capsys)  # missing --dataset
    assert code == 1
    assert "--dataset" in err
    code, _, err = run_cli(["bench"], capsys)  # no such command; perfbench/run.py times it
    assert code == 1
    assert "invalid choice" in err


def test_validation_errors_exit_1(tmp_path, capsys, monkeypatch, small_dataset_dir):
    code, _, err = run_cli(["train", "ae", "--dataset", str(small_dataset_dir)], capsys)
    assert code == 1
    assert "scenario" in err

    code, _, err = run_cli(["eval", "--dataset", str(small_dataset_dir)], capsys)
    assert code == 1
    assert "--preset" in err

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(["gen", "--config", str(cfg)], capsys)
    assert code == 1
    assert "unknown config keys" in err

    cfg.write_text(json.dumps({"template": {"widgets": 3}}))
    code, _, err = run_cli(["gen", "--config", str(cfg)], capsys)
    assert code == 1
    assert "widgets" in err

    cfg.write_text("{")
    code, _, err = run_cli(["gen", "--config", str(cfg)], capsys)
    assert code == 1
    assert "cannot read config file" in err

    code, _, err = run_cli(["gen", "--config", str(tmp_path / "absent.json")], capsys)
    assert code == 1
    assert "cannot read config file" in err

    for argv in (["dataset", "--templates", "3", "--jobs", "0"],
                 ["eval", "--dataset", str(small_dataset_dir),
                  "--preset", "supervised-5class", "--jobs", "-3"]):
        code, _, err = run_cli(argv + ["--out", str(tmp_path / "jobs")], capsys)
        assert code == 1
        assert "jobs must be at least 1" in err
    assert not (tmp_path / "jobs").exists()
    cfg.write_text(json.dumps({"jobs": 0}))
    code, _, err = run_cli(["dataset", "--templates", "3", "--config", str(cfg),
                            "--out", str(tmp_path / "jobs")], capsys)
    assert code == 1
    assert "jobs must be at least 1, got 0" in err

    code, _, err = run_cli(["gen", "--count", "0", "--out", str(tmp_path / "none")], capsys)
    assert code == 1
    assert "count must be at least 1, got 0" in err
    assert not (tmp_path / "none").exists()
    for flags in (["--n-sym", "0"], ["--symbol-px", "0"], ["--marker-width", "-2"],
                  ["--black-fraction", "1.5"]):  # template options are checked before the mkdir
        code, _, err = run_cli(["gen", *flags, "--out", str(tmp_path / "none")], capsys)
        assert code == 1 and err.startswith("error: "), (flags, err)
        assert not (tmp_path / "none").exists(), flags

    monkeypatch.setenv("CDP_AUTHKIT_SEED", "not-a-number")
    code, _, err = run_cli(["gen", "--out", str(tmp_path / "t")], capsys)
    assert code == 1
    assert "CDP_AUTHKIT_SEED" in err

    # tampered manifest: a duplicated (template_id, label) entry
    manifest = json.loads((small_dataset_dir / "manifest.json").read_text())
    manifest["codes"].append(manifest["codes"][0])
    (tmp_path / "dup").mkdir()
    (tmp_path / "dup" / "manifest.json").write_text(json.dumps(manifest))
    code, _, err = run_cli(["metrics", "--dataset", str(tmp_path / "dup")], capsys)
    assert code == 1
    assert f"{tmp_path / 'dup' / 'manifest.json'}: entry {manifest['codes'][0]['path']}" in err
    assert "duplicates" in err

    # JSON files of the wrong kind or with missing fields
    code, _, err = run_cli(["report", "--in", str(small_dataset_dir / "manifest.json"),
                            "--out", str(tmp_path / "r.md")], capsys)
    assert code == 1
    assert f"{small_dataset_dir / 'manifest.json'}: missing field 'preset'" in err
    bare = tmp_path / "bare-ae.json"
    bare.write_text(json.dumps({"kind": "ae"}))
    code, _, err = run_cli(["calibrate", "--dataset", str(small_dataset_dir),
                            "--model", str(bare), "--out", str(tmp_path / "thr.json")], capsys)
    assert code == 1
    assert f"{bare}: missing field 'config'" in err


def test_runtime_errors_exit_2(tmp_path, capsys, monkeypatch):
    code, _, err = run_cli(["metrics", "--dataset", str(tmp_path / "missing")], capsys)
    assert code == 2
    assert "runtime failure" in err

    # exit 1 is kept for the toolkit's own input errors; a ValueError from
    # anywhere else (numpy, a bug) is not bad input
    def broken(*args):
        raise ValueError("not an input error")

    monkeypatch.setattr("cdp_authkit.cli.generate_template", broken)
    code, _, err = run_cli(["gen", "--out", str(tmp_path / "t")], capsys)
    assert code == 2
    assert "runtime failure: ValueError: not an input error" in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_jobs_below_1_exit_1_on_every_command(small_dataset_dir, tmp_path, capsys, source):
    # metrics and gen start no worker pool, yet take --jobs and the config's jobs
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"jobs": 0}))
    out = tmp_path / "out"
    for argv in (["metrics", "--dataset", str(small_dataset_dir)], ["gen"]):
        extra = ["--jobs", "0"] if source == "flag" else ["--config", str(cfg)]
        code, text, err = run_cli(argv + extra + ["--out", str(out)], capsys)
        assert code == 1, argv
        assert "jobs must be at least 1, got 0" in err
        assert text == "" and not out.exists()


def test_gen_writes_templates(tmp_path, capsys):
    out = tmp_path / "t"
    code, text, _ = run_cli(
        ["gen", "--count", "2", "--n-sym", "8", "--symbol-px", "2",
         "--marker-width", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "wrote 2 templates (8x8 symbols at 2px)" in text
    for stem in ("t0000", "t0001"):
        assert (out / f"{stem}.pgm").exists()
        assert (out / f"{stem}.json").exists()
    meta = json.loads((out / "t0000.json").read_text())
    assert meta["marker_width_px"] == 2


def test_dataset_seed_precedence(tmp_path, capsys, monkeypatch):
    def synth(name, argv_extra, env=None):
        if env is not None:
            monkeypatch.setenv("CDP_AUTHKIT_SEED", env)
        else:
            monkeypatch.delenv("CDP_AUTHKIT_SEED", raising=False)
        argv = ["dataset", "--templates", "6", "--n-sym", "8",
                "--out", str(tmp_path / name)] + argv_extra
        code, text, _ = run_cli(argv, capsys)
        assert code == 0
        return re.search(r"manifest (\w+):", text).group(1)

    def expected(seed):
        return config_hash(DatasetConfig(n_templates=6, n_sym=8, seed=seed))

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 3}))

    assert synth("a", ["--seed", "5"]) == expected(5)
    assert synth("b", [], env="9") == expected(9)
    # flag beats env beats config
    assert synth("c", ["--seed", "5"], env="9") == expected(5)
    assert synth("d", ["--config", str(cfg)]) == expected(3)
    assert synth("e", ["--config", str(cfg)], env="9") == expected(9)
    # same seed, fresh run: byte-identical dataset regardless of jobs
    assert synth("f", ["--seed", "5"]) == expected(5)
    assert synth("g", ["--seed", "5", "--jobs", "2"]) == expected(5)
    ref = tmp_path / "a"
    for other in ("f", "g"):
        for p in sorted(ref.rglob("*")):
            if p.is_file():
                rel = p.relative_to(ref)
                assert (tmp_path / other / rel).read_bytes() == p.read_bytes()


def test_metrics_and_embed(small_dataset_dir, tmp_path, capsys):
    code, text, _ = run_cli(
        ["metrics", "--dataset", str(small_dataset_dir), "--out", str(tmp_path / "f.csv")],
        capsys,
    )
    assert code == 0
    assert "wrote 125 metric rows (digital reference)" in text
    assert len((tmp_path / "f.csv").read_text().splitlines()) == 126

    code, text, _ = run_cli(
        ["embed", "--dataset", str(small_dataset_dir), "--dims", "2",
         "--out", str(tmp_path / "e.csv")],
        capsys,
    )
    assert code == 0
    shape = re.search(r"wrote (\d+)x(\d+) embedding", text)
    assert shape.group(1) == "125" and shape.group(2) == "2"
    assert len((tmp_path / "e.csv").read_text().splitlines()) == 126


@pytest.mark.parametrize("reference", ["digital", "physical"])
@pytest.mark.parametrize("use_planes", [False, True])
def test_metrics_and_embed_match_direct_feature_vectors(
    small_dataset_dir, tmp_path, capsys, reference, use_planes
):
    # the CSVs the cached feature table feeds equal those of one feature_vector call per code
    data = load_dataset(small_dataset_dir)
    split = experiment.manifest_assignment(data)
    probes = [c for c in data.codes.values() if c.label != "physical_reference"]
    rows = []
    for probe in probes:
        ref = (data.templates[probe.template_id] if reference == "digital"
               else data.codes[(probe.template_id, "physical_reference")])
        rows.append(feature_vector(probe, ref, use_planes))
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["template_id", "label", "split", "pearson", "hamming_sym", "l1", "l2"])
        for probe, fv in zip(probes, rows):
            writer.writerow([probe.template_id, probe.label, split[probe.template_id],
                             repr(fv.pearson), fv.hamming_sym, repr(fv.l1), repr(fv.l2)])
    embedding = pca_embed(np.array([fv.as_array() for fv in rows]), dims=2)
    write_embedding_csv(tmp_path / "want-e.csv", embedding, probes)

    flags = ["--dataset", str(small_dataset_dir), "--reference", reference]
    flags += ["--use-planes"] if use_planes else []
    assert run_cli(["metrics", *flags, "--out", str(tmp_path / "f.csv")], capsys)[0] == 0
    assert run_cli(["embed", *flags, "--out", str(tmp_path / "e.csv")], capsys)[0] == 0
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "e.csv").read_bytes() == (tmp_path / "want-e.csv").read_bytes()


def test_tampered_rasters_exit_1(small_dataset_dir, tmp_path, capsys):
    data_dir = tmp_path / "data"
    shutil.copytree(small_dataset_dir, data_dir)
    manifest = data_dir / "manifest.json"

    # a constant image has no Otsu threshold: the message names the code and the reference
    write_ppm(data_dir / "codes" / "t0000_original.ppm", np.full((36, 36, 3), 128, np.uint8))
    for argv, reference in ((["metrics"], "digital"),
                            (["metrics", "--reference", "physical"], "physical"),
                            (["eval", "--preset", "ocsvm-spatial", "--runs", "1"], "digital")):
        code, _, err = run_cli(argv + ["--dataset", str(data_dir),
                                       "--out", str(tmp_path / "out")], capsys)
        assert code == 1
        assert f"t0000/original vs {reference} reference: constant image" in err
        assert "Traceback" not in err

    # a raster the manifest lists but the directory lacks
    (data_dir / "codes" / "t0001_fake1_white.ppm").unlink()
    code, _, err = run_cli(["metrics", "--dataset", str(data_dir)], capsys)
    assert code == 1
    assert f"{manifest}: entry codes/t0001_fake1_white.ppm: " in err
    assert "t0001_fake1_white.ppm is missing" in err
    (data_dir / "templates" / "t0002.pgm").unlink()
    code, _, err = run_cli(["metrics", "--dataset", str(data_dir)], capsys)
    assert code == 1
    assert f"{manifest}: template t0002: " in err and "t0002.pgm is missing" in err

    # a code raster whose side is not n_sym * symbol_px (36 here)
    shutil.copytree(small_dataset_dir, tmp_path / "geometry")
    fake = tmp_path / "geometry" / "codes" / "t0003_fake1_white.ppm"
    write_ppm(fake, np.full((33, 33, 3), 128, np.uint8))
    code, _, err = run_cli(["metrics", "--dataset", str(tmp_path / "geometry"),
                            "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert f"error: {fake}: raster shape (33, 33) is not (36, 36), n_sym * symbol_px" in err
    assert "Traceback" not in err


def test_tampered_sidecars_exit_1(small_dataset_dir, tmp_path, capsys):
    data_dir = tmp_path / "data"
    shutil.copytree(small_dataset_dir, data_dir)
    manifest = data_dir / "manifest.json"
    template_json = data_dir / "templates" / "t0001.json"

    def edit(change):
        return lambda text: json.dumps(change(json.loads(text)))

    def drop(name):
        return edit(lambda meta: {k: v for k, v in meta.items() if k != name})

    def setting(name, value):
        return edit(lambda meta: {**meta, name: value})

    cases = (
        (template_json, edit(lambda meta: [meta]), f"{template_json}: expected a JSON object"),
        (template_json, lambda text: "{", f"{template_json}: not valid JSON: "),
        (manifest, lambda text: text[: len(text) // 2], f"{manifest}: not valid JSON: "),
        # a manifest entry without a split or a path, and a codes field that is no list
        (manifest, edit(lambda obj: {**obj, "codes": [
            {k: v for k, v in e.items() if k != "split"} for e in obj["codes"]]}),
         f"{manifest}: codes[0]: missing field 'split'"),
        (manifest, edit(lambda obj: {**obj, "codes": [
            {k: v for k, v in e.items() if k != "path"} for e in obj["codes"]]}),
         f"{manifest}: codes[0]: missing field 'path'"),
        (manifest, setting("codes", {}), f"{manifest}: field 'codes' must be a list, got dict"),
        (manifest, setting("template_ids", "t0000"),
         f"{manifest}: field 'template_ids' must be a list, got 't0000'"),
        (manifest, setting("template_ids", [0]),
         f"{manifest}: field 'template_ids' must hold strings"),
        (manifest, edit(lambda obj: {**obj, "config": {**obj["config"], "n_sym": "12"}}),
         f"{manifest}: field 'config.n_sym' must be an integer, got '12'"),
        (manifest, edit(lambda obj: {**obj, "config": {**obj["config"], "colour": True}}),
         f"{manifest}: field 'config' has unknown key 'colour'"),
        (manifest, edit(lambda obj: {**obj, "config": {**obj["config"], "n_templates": 0}}),
         f"{manifest}: field 'config': n_templates must be positive"),
        (template_json, drop("n_sym"), f"{template_json}: missing field 'n_sym'"),
        (template_json, drop("marker_width_px"), f"{template_json}: missing field 'marker_width_px'"),
        (template_json, setting("n_sym", None),
         f"{template_json}: field 'n_sym' must be an integer, got None"),
        (template_json, setting("n_sym", 11),
         f"{data_dir / 'templates' / 't0001.pgm'}: raster shape disagrees"),
    )
    for path, tamper, message in cases:
        original = path.read_bytes()
        path.write_text(tamper(original.decode()))
        code, _, err = run_cli(["metrics", "--dataset", str(data_dir),
                                "--out", str(tmp_path / "out.csv")], capsys)
        path.write_bytes(original)
        assert code == 1, message
        assert message in err
        assert "Traceback" not in err
    assert run_cli(["metrics", "--dataset", str(data_dir),
                    "--out", str(tmp_path / "out.csv")], capsys)[0] == 0


def test_train_ocsvm_eval_report_cycle(small_dataset_dir, tmp_path, capsys):
    model_path = tmp_path / "ocsvm.json"
    code, text, _ = run_cli(
        ["train", "ocsvm", "--dataset", str(small_dataset_dir), "--out", str(model_path)],
        capsys,
    )
    assert code == 0
    # 10 train originals leave nu=0.1 as the only feasible grid point
    assert "one-class svm (digital-gray): nu=0.1" in text
    assert isinstance(json.loads(model_path.read_text()), dict)

    rep = tmp_path / "rep"
    code, text, _ = run_cli(
        ["eval", "--dataset", str(small_dataset_dir),
         "--preset", "ocsvm-spatial-digital-gray", "--runs", "1", "--out", str(rep)],
        capsys,
    )
    assert code == 0
    assert f"report -> {rep}" in text
    assert "digital-gray originals-val p_miss" in text
    for name in ("report.json", "runs.csv", "report.md"):
        assert (rep / name).exists()

    code, text, _ = run_cli(["report", "--in", str(rep / "report.json")], capsys)
    assert code == 0
    assert "# Report: ocsvm-spatial-digital-gray" in text
    assert "All rates in percent" in text

    obj = json.loads((rep / "report.json").read_text())
    bad = tmp_path / "bad-report.json"
    for change, message in (
        ({"rows": [{k: v for k, v in obj["rows"][0].items() if k != "mean"}]},
         "rows[0]: missing field 'mean'"),
        ({"rows": 5}, "field 'rows' must be a list, got 5"),
        ({"rows": [{**obj["rows"][0], "std": "0"}]}, "rows[0]: field 'std' must be a number"),
        ({"rows": [{**obj["rows"][0], "setup": None}]}, "rows[0]: field 'setup' must be a string"),
        ({"extras": [1]}, "field 'extras' must be an object, got list"),
        ({"extras": {"nu": 1}}, "extras.nu: expected a JSON object"),
    ):
        bad.write_text(json.dumps({**obj, **change}))
        code, _, err = run_cli(["report", "--in", str(bad), "--out", str(tmp_path / "r.md")],
                               capsys)
        assert code == 1, message
        assert f"error: {bad}: {message}" in err
        assert "Traceback" not in err


def test_train_ae_and_calibrate(small_dataset_dir, tmp_path, capsys):
    model_path = tmp_path / "ae.json"
    code, text, _ = run_cli(
        ["train", "ae", "--dataset", str(small_dataset_dir), "--scenario", "1",
         "--epochs", "2", "--batch-size", "8", "--channels", "2",
         "--disc-hidden", "4", "--seed", "0", "--out", str(model_path)],
        capsys,
    )
    assert code == 0
    assert "autoencoder scenario 1: 2 epochs" in text
    assert model_path.exists()

    thr_path = tmp_path / "thr.json"
    code, text, _ = run_cli(
        ["calibrate", "--model", str(model_path), "--dataset", str(small_dataset_dir),
         "--out", str(thr_path)],
        capsys,
    )
    assert code == 0
    assert "calibrated on 2 validation originals" in text
    model = json.loads(model_path.read_text())
    for key, value, message in (
        ("config", {**model["config"], "epochs": "3"},
         "field 'config.epochs' must be an integer, got '3'"),
        ("scenario", None, "field 'scenario' must be an integer, got None"),
    ):
        bad = tmp_path / "bad-ae.json"
        bad.write_text(json.dumps({**model, key: value}))
        code, _, err = run_cli(["calibrate", "--model", str(bad), "--dataset",
                                str(small_dataset_dir), "--out", str(tmp_path / "t.json")], capsys)
        assert code == 1
        assert f"error: {bad}: {message}" in err and "Traceback" not in err
    thr = json.loads(thr_path.read_text())
    assert thr["kind"] == "thresholds"
    assert thr["gamma1"] >= 0
    assert thr["gamma2"] == 0.0  # no decoder, so no reconstruction threshold


def test_train_supervised(small_dataset_dir, tmp_path, capsys):
    out = tmp_path / "clf.json"
    code, text, _ = run_cli(
        ["train", "supervised", "--dataset", str(small_dataset_dir),
         "--epochs", "2", "--hidden", "8", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "classifier: 2 epochs" in text
    assert out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["supervised", "--lr", "1e8", "--epochs", "5"],
        ["ae", "--scenario", "3", "--lr", "1e12", "--epochs", "3"],
    ],
    ids=["supervised", "ae"],
)
def test_train_divergence_exits_2(small_dataset_dir, tmp_path, capsys, args):
    out = tmp_path / "model.json"
    code, _, err = run_cli(
        ["train", *args, "--dataset", str(small_dataset_dir), "--out", str(out)], capsys
    )
    assert code == 2
    assert "TrainingError: training diverged" in err and "twice its untrained value" in err
    if args[0] == "supervised":  # the untrained loss of 5 classes is ln 5
        assert "1.60944" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["train", "supervised", "--lr", "nan"],
        ["train", "supervised", "--lr", "inf"],
        ["train", "ae", "--scenario", "3", "--beta", "nan"],
        ["train", "ae", "--scenario", "3", "--lambda1", "inf"],
        ["train", "ocsvm", "--rbf-gamma", "nan"],
        ["train", "ocsvm", "--rbf-gamma", "inf"],
        ["dataset", "--plane-jitter", "nan"],
        ["dataset", "--plane-jitter", "inf"],
    ],
    ids=lambda args: "-".join(arg.strip("-") for arg in args),
)
def test_non_finite_parameters_exit_1_before_writing(small_dataset_dir, tmp_path, capsys, args):
    # a NaN passes every `<= 0` check, and inf trained to a non-finite loss,
    # ran an OCSVM to its iteration cap or wrote a manifest holding NaN
    out = tmp_path / "out"
    data = [] if args[0] == "dataset" else ["--dataset", str(small_dataset_dir)]
    code, _, err = run_cli([*args, *data, "--out", str(out)], capsys)
    assert code == 1, err
    assert err.startswith("error: ") and "finite" in err and "Traceback" not in err
    assert not out.exists()


def test_adversarial_blow_up_exits_2(small_dataset_dir, tmp_path, capsys):
    # a discriminator whose logits pass the float64 range of a probability
    # stops the run, though template_rms stays bounded
    out = tmp_path / "model.json"
    code, _, err = run_cli(["train", "ae", "--scenario", "2", "--lr", "1e12", "--epochs", "3",
                            "--dataset", str(small_dataset_dir), "--out", str(out)], capsys)
    assert code == 2
    assert re.search(r"TrainingError: training diverged: epoch means of adv_t \[[-+.e\d, ]+\] "
                     r"went above 36\.7368", err), err
    assert not out.exists()


def test_log_file_keeps_stdout_clean(tmp_path, capsys):
    log = tmp_path / "run.log"
    code, text, _ = run_cli(
        ["gen", "--count", "1", "--n-sym", "6", "--symbol-px", "2",
         "--out", str(tmp_path / "t"), "--log", str(log)],
        capsys,
    )
    assert code == 0
    assert "INFO" not in text
    logged = log.read_text()
    assert "command gen starting" in logged
    assert "command gen finished" in logged
    assert re.search(r"\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}", logged)


def test_selftest_all_suites_pass(capsys):
    code, text, _ = run_cli(["selftest"], capsys)
    assert code == 0
    for name, _, _ in checks.SELFTEST_SUITES:
        assert f"{name}: pass" in text
    assert f"all {len(checks.SELFTEST_SUITES)} suites passed" in text


def test_selftest_reports_failing_suite(capsys, monkeypatch):
    fast = checks.otsu_threshold
    monkeypatch.setattr(checks, "otsu_threshold", lambda img: fast(img) + 1 / 256)  # one bin off
    monkeypatch.setattr(checks, "SELFTEST_SUITES", checks.SELFTEST_SUITES[:2])
    code, text, _ = run_cli(["selftest"], capsys)
    assert code == 2
    assert re.search(r"^otsu-oracle: FAIL \(otsu mismatch on image \d+\)$", text, re.M)
    assert "metric-oracles: pass" in text
    assert "1 of 2 suites failed" in text


def test_console_script(tmp_path):
    # the installed entry point, else the module under the inherited PYTHONPATH
    exe = shutil.which("cdp-authkit")
    command = [exe] if exe is not None else [sys.executable, "-m", "cdp_authkit.cli"]
    proc = subprocess.run(
        command + ["gen", "--count", "1", "--n-sym", "6", "--symbol-px", "2",
                   "--out", str(tmp_path / "t")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 1 templates" in proc.stdout


def test_ae_model_bytes_independent_of_blas_thread_count(tmp_path, capsys):
    # OpenBLAS reads its thread count when numpy loads, so each count needs its
    # own process; the variable is set in the child environment only.
    data = tmp_path / "data"
    assert run_cli(["dataset", "--templates", "12", "--seed", "0", "--out", str(data)],
                   capsys)[0] == 0
    for scenario in ("3", "4"):
        models = []
        for threads in ("1", "2"):
            out = tmp_path / f"ae{scenario}-{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "cdp_authkit.cli", "train", "ae", "--dataset", str(data),
                 "--scenario", scenario, "--epochs", "2", "--out", str(out)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            models.append(out.read_bytes())
        assert models[0] == models[1], f"scenario {scenario}"


def test_settings_flag_over_config_over_dataclass_default(
    small_dataset_dir, tmp_path, capsys, monkeypatch
):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": {"templates": 6, "n_sym": 8}}))
    code, text, _ = run_cli(
        ["dataset", "--config", str(cfg), "--seed", "4", "--out", str(tmp_path / "d")], capsys
    )
    assert code == 0
    assert f"manifest {config_hash(DatasetConfig(n_templates=6, n_sym=8, seed=4))}:" in text

    cfg.write_text(json.dumps({"model": {"hidden": 8}}))
    for flags, hidden in (([], 8), (["--hidden", "4"], 4)):
        out = tmp_path / f"clf{hidden}.json"
        code, _, _ = run_cli(
            ["train", "supervised", "--dataset", str(small_dataset_dir), "--epochs", "1",
             "--config", str(cfg), "--out", str(out)] + flags,
            capsys,
        )
        assert code == 0
        saved = load_classifier(out).config
        assert (saved.hidden, saved.epochs) == (hidden, 1)
        assert (saved.batch_size, saved.lr) == (TrainConfig.batch_size, TrainConfig.lr)

    seen = []
    train_ae = experiment.train_ae

    def recording_train_ae(images, symbols, scenario, config):
        seen.append(config)
        return train_ae(images, symbols, scenario, config)

    monkeypatch.setattr(experiment, "train_ae", recording_train_ae)
    cfg.write_text(json.dumps({"model": {"epochs": 2, "channels": 2, "disc_hidden": 4}}))
    for flags, epochs in (([], 2), (["--epochs", "1"], 1)):
        code, _, _ = run_cli(
            ["eval", "--dataset", str(small_dataset_dir), "--preset", "deep-scenario-1",
             "--runs", "1", "--jobs", "1", "--config", str(cfg),
             "--out", str(tmp_path / f"rep{epochs}")] + flags,
            capsys,
        )
        assert code == 0
        assert (seen[-1].epochs, seen[-1].channels) == (epochs, 2)
        assert seen[-1].batch_size == AeConfig.batch_size


SMALL_DATASET = ["dataset", "--templates", "2", "--n-sym", "4"]


# a config value must have the type of the flag it stands for and pass its choices;
# each command here reads the key, so without the check it would run and write
@pytest.mark.parametrize("config, field, argv", [
    ({"template": {"count": 2.5}}, "template.count", ["gen"]),
    ({"dataset": {"templates": "x"}}, "dataset.templates", ["dataset"]),
    ({"dataset": {"physical_refs": "no"}}, "dataset.physical_refs", SMALL_DATASET),
    ({"model": {"reference": "foo"}}, "model.reference", ["train", "ocsvm"]),
    ({"model": {"color": "blue"}}, "model.color", ["train", "ocsvm"]),
    ({"seed": "abc"}, "seed", ["gen"]),
    ({"jobs": True}, "jobs", SMALL_DATASET),
], ids=["count-float", "templates-str", "physical-refs-str", "reference-choice",
        "color-choice", "seed-str", "jobs-bool"])
def test_config_values_pass_their_flags_checks(small_dataset_dir, tmp_path, capsys,
                                                config, field, argv):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    if argv[0] == "train":
        argv = argv + ["--dataset", str(small_dataset_dir)]
    code, text, err = run_cli(argv + ["--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    assert f"error: {cfg}: field '{field}' must be " in err
    assert text == "" and not out.exists()


def test_dataset_matches_conftest_fixture(small_dataset_dir, tmp_path, capsys):
    # the CLI and the library build the same bytes from the same config
    argv = ["dataset", "--templates", str(SMALL_CONFIG.n_templates),
            "--n-sym", str(SMALL_CONFIG.n_sym), "--seed", str(SMALL_CONFIG.seed),
            "--out", str(tmp_path / "cli")]
    code, text, _ = run_cli(argv, capsys)
    assert code == 0
    assert config_hash(SMALL_CONFIG) in text
    lib_manifest = (small_dataset_dir / "manifest.json").read_bytes()
    assert (tmp_path / "cli" / "manifest.json").read_bytes() == lib_manifest
