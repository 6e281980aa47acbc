"""Acceptance checklist: every promised behavior at its stated scale.

One test per criterion, in order. Each prints a single summary line with
capture suspended so a plain pytest run reads as a checklist; failures
surface through the usual pytest report. Wall-clock budgets are asserted
where a criterion states one. The checks themselves live in
cdp_authkit.checks, which `cdp-authkit selftest` runs at reduced size.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

from cdp_authkit import checks
from cdp_authkit.cli import main
from cdp_authkit.deepfeat import AeConfig, train_ae
from cdp_authkit.experiment import DatasetConfig, run_experiment, synthesize_dataset

from conftest import same_weights

GOLDEN = Path(__file__).parent / "golden" / "deep_scenario3_report.json"


def _line(capsys, n, name, detail):
    with capsys.disabled():
        print(f"criterion {n} ({name}): PASS ({detail})", flush=True)


def test_c01_otsu_matches_exhaustive_argmax(capsys):
    t0 = time.monotonic()
    checks.otsu_oracle((1, "acceptance"), 1000)
    dt = time.monotonic() - t0
    assert dt < 10.0
    _line(capsys, 1, "otsu oracle equivalence", f"1000 images exact in {dt:.1f}s")


def test_c02_intensity_and_hamming_match_naive_recomputation(capsys):
    worst = checks.metric_oracles((2, "acceptance"), 1000)
    _line(capsys, 2, "metric oracles", f"1000 pairs, worst gap {worst:.2e}")


def test_c03_ocsvm_constraints_kkt_oracle_and_nu_property(capsys):
    t0 = time.monotonic()
    worst = checks.ocsvm_dual_oracle((3, "acceptance"), 50)
    fractions = checks.ocsvm_nu_property((3, "acceptance"), 200)
    dt = time.monotonic() - t0
    assert dt < 60.0
    _line(capsys, 3, "ocsvm correctness",
          f"50 duals within {worst:.2e} of oracle, nu property {fractions}, {dt:.1f}s")


def test_c04_scenario_loss_gradients_match_finite_differences(capsys):
    t0 = time.monotonic()
    worst = checks.ae_gradients((0, "acceptance"), 10)
    dt = time.monotonic() - t0
    assert dt < 120.0
    _line(capsys, 4, "gradient checks", f"4 scenarios x 10 points, worst {worst:.2e}, {dt:.1f}s")


def test_c05_beta_zero_collapses_to_template_only_scenarios(capsys):
    images, symbols = checks.toy_batch((5, "acceptance"), 8)
    cfg = AeConfig(epochs=50, batch_size=8, channels=2, disc_hidden=4, beta=0.0, seed=3)
    for plain, gated in ((1, 3), (2, 4)):
        m_plain = train_ae(images, symbols, plain, cfg)
        m_gated = train_ae(images, symbols, gated, cfg)
        assert m_plain.loss_trace == m_gated.loss_trace  # all 50 steps, bitwise
        for name, layers in m_plain.groups().items():
            assert same_weights(layers, m_gated.groups()[name]), name
        # beta > 0 genuinely changes the gated scenario
        m_on = train_ae(images, symbols, gated, replace(cfg, beta=0.01))
        assert m_on.loss_trace["template_rms"] != m_gated.loss_trace["template_rms"]
    _line(capsys, 5, "beta collapse", "scenarios 3->1 and 4->2 bit-identical over 50 steps")


def test_c06_mi_bound_reference_values_and_entropy_cap(capsys):
    checks.mi_bounds((6, "acceptance"), 1000)
    _line(capsys, 6, "mi bound sanity", "ln 2 and 0 within 1e-9, cap held on 1000 sets")


def test_c07_decision_boundaries_and_calibration_optimality(capsys):
    checks.decision_rules((7, "acceptance"), 1000)
    _line(capsys, 7, "decision rule fidelity", "1000 boundary and 200 calibration fixtures")


def test_c08_end_to_end_deep_scenario3_regression(tmp_path, capsys):
    t0 = time.monotonic()
    data_dir = tmp_path / "bench50"
    synthesize_dataset(DatasetConfig(n_templates=50), data_dir, jobs=1)
    report = run_experiment(
        data_dir, "deep-scenario-3", runs=3, seed=0, out_dir=tmp_path / "rep", jobs=1
    )
    rows = {(r["setup"], r["class_label"], r["metric"]): r for r in report.rows}
    for label in ("fake2_white", "fake2_gray"):
        assert rows[("scenario-3/rule-two", label, "p_fa")]["per_run"] == [0.0, 0.0, 0.0]
    miss = rows[("scenario-3/rule-two", "originals-val", "p_miss")]
    assert miss["per_run"] == [0.0, 0.0, 0.0]

    if GOLDEN.exists():
        assert report.to_dict() == json.loads(GOLDEN.read_text())
        golden_note = "matches golden"
    else:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        golden_note = "golden frozen"
    dt = time.monotonic() - t0
    assert dt < 600.0
    _line(capsys, 8, "end-to-end regression",
          f"fake2 p_fa 0 and validation p_miss 0 in all 3 runs, {golden_note}, {dt:.0f}s")


def test_c09_dot_gain_grows_black_and_closes_enclosed_white(capsys):
    white_area, black_area = checks.dot_gain_asymmetry()
    _line(capsys, 9, "dot gain asymmetry",
          f"white area {white_area}, black area {black_area} vs template 9")


def test_c10_cli_dataset_train_eval_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CDP_AUTHKIT_SEED", raising=False)
    for rep in ("one", "two"):
        d = tmp_path / rep
        assert main(["dataset", "--templates", "25", "--n-sym", "12",
                     "--seed", "5", "--out", str(d / "data")]) == 0
        assert main(["train", "ocsvm", "--dataset", str(d / "data"),
                     "--seed", "5", "--out", str(d / "ocsvm.json")]) == 0
        assert main(["train", "ae", "--dataset", str(d / "data"), "--scenario", "1",
                     "--epochs", "2", "--batch-size", "8", "--channels", "2",
                     "--disc-hidden", "4", "--seed", "5", "--out", str(d / "ae.json")]) == 0
        assert main(["eval", "--dataset", str(d / "data"),
                     "--preset", "ocsvm-spatial-digital-gray", "--runs", "2",
                     "--seed", "5", "--out", str(d / "rep")]) == 0
    capsys.readouterr()

    ref = tmp_path / "one"
    compared = 0
    for p in sorted(ref.rglob("*")):
        if p.is_file():
            rel = p.relative_to(ref)
            assert (tmp_path / "two" / rel).read_bytes() == p.read_bytes(), rel
            compared += 1
    assert compared > 100  # rasters, manifest, models, report trio
    _line(capsys, 10, "determinism", f"dataset/train/eval outputs byte-identical ({compared} files)")
