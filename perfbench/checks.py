"""Output checks. Each returns a list of (name, ok, detail) tuples.

- digests: for seed 0, manifest.json and every report.json must match the
  sha256 digests in digests.json, recorded from the commit that defined the
  benchmark with one BLAS thread, the count run.py sets. (With two threads
  the ocsvm-spatial report differs: one test decision flips.)
- rates: every rate in every report lies in [0, 1]; on the deep preset the
  rule-one and rule-two validation miss rates are 0 on every split, which
  zero-miss calibration guarantees.
- oracles: for a fixed sample of codes, Otsu, pearson, L1/L2 and symbol
  Hamming recomputed by the independent oracles, with the tolerances of the
  acceptance tests (Otsu and Hamming exact, pearson and L1/L2 within 1e-12).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0
FLOAT_TOL = 1e-12


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_key(workload: str, smoke: bool) -> str:
    return f"{workload}/{'smoke' if smoke else 'full'}"


def output_digests(data_dir: Path, report_dirs: dict) -> dict:
    out = {"manifest.json": sha256(data_dir / "manifest.json")}
    for preset, directory in report_dirs.items():
        out[f"{preset}/report.json"] = sha256(directory / "report.json")
    return out


def check_digests(key: str, seed: int, actual: dict) -> list:
    if seed != DEFAULT_SEED:
        return []
    recorded = json.loads(DIGESTS.read_text()).get(key)
    if recorded is None:
        return [(f"digests {key}", False, "none recorded")]
    results = []
    for name in sorted(set(recorded) | set(actual)):
        want, got = recorded.get(name), actual.get(name)
        results.append((f"digest {name}", want == got, f"recorded {want}, got {got}"))
    return results


def check_rates(preset: str, report: dict) -> list:
    results = []
    bad = [
        (row["setup"], row["class_label"], row["metric"])
        for row in report["rows"]
        if not all(0.0 <= v <= 1.0 for v in row["per_run"] + [row["mean"], row["std"]])
    ]
    results.append((f"{preset} rates in [0, 1]", not bad, f"out of range: {bad}"))
    if preset.startswith("deep-scenario-"):
        for row in report["rows"]:
            rule = row["setup"].rsplit("/", 1)[-1]
            if rule in ("rule-one", "rule-two") and row["class_label"] == "originals-val":
                results.append(
                    (
                        f"{row['setup']} validation p_miss 0",
                        all(v == 0.0 for v in row["per_run"]),
                        f"per run {row['per_run']}",
                    )
                )
    return results


def _majority(binary: np.ndarray, block: int) -> np.ndarray:
    """Independent block majority reduction, ties to ink."""
    h, w = binary.shape
    sums = binary.reshape(h // block, block, w // block, block).sum(axis=(1, 3))
    return (sums * 2 >= block * block).astype(np.uint8)


def check_oracles(data, n_codes: int, seed: int) -> list:
    from cdp_authkit import metrics, oracles

    entries = [e for e in data.manifest.codes if e["label"] != "physical_reference"]
    rng = np.random.default_rng(seed)
    picked = sorted(rng.choice(len(entries), size=min(n_codes, len(entries)), replace=False))
    results = []
    for index in picked:
        entry = entries[index]
        tid = entry["template_id"]
        code = data.codes[(tid, entry["label"])]
        spx = code.symbol_px
        thr = oracles.otsu_exhaustive(code.image)
        probe_sym = _majority((code.image < thr).astype(np.uint8), spx)
        tag = f"{tid}/{entry['label']}"
        results.append(
            (f"otsu {tag}", metrics.otsu_threshold(code.image) == thr, f"oracle {thr}")
        )
        for kind in ("digital", "physical"):
            if kind == "digital":
                ref = data.templates[tid]
                ref_img = 1.0 - ref.cdp_pixels().astype(np.float64)
                ref_sym = ref.symbols
            else:
                ref = data.codes[(tid, "physical_reference")]
                ref_img = ref.image
                ref_sym = _majority(
                    (ref.image < oracles.otsu_exhaustive(ref.image)).astype(np.uint8), spx
                )
            fv = metrics.feature_vector(code, ref)
            r_gap = abs(fv.pearson - oracles.pearson_naive(code.image, ref_img))
            l1, l2 = oracles.lp_naive(code.image, ref_img)
            lp_gap = max(abs(fv.l1 - l1), abs(fv.l2 - l2))
            ham = oracles.hamming_naive(probe_sym, ref_sym)
            results += [
                (f"pearson {tag} vs {kind}", r_gap < FLOAT_TOL, f"gap {r_gap:.3e}"),
                (f"l1/l2 {tag} vs {kind}", lp_gap < FLOAT_TOL, f"gap {lp_gap:.3e}"),
                (f"hamming {tag} vs {kind}", ham == fv.hamming_sym,
                 f"oracle {ham}, feature_vector {fv.hamming_sym}"),
            ]
    return results
