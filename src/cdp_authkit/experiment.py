"""Dataset synthesis, splits, augmentation, repeated runs, and reports.

The harness generates a fully synthetic benchmark: random binary templates
are printed and acquired through the channel model as originals, re-acquired
from the same ink map as physical references, and attacked with the four
shipped copy-attack configurations (two estimation strategies x two
substrates). Everything derives from one root seed, so a dataset directory,
its manifest, and every downstream report are byte-identical across re-runs.

Experiments follow one protocol: per run, templates are split 40/10/50 into
train/val/test (all codes of a template share a split), a preset-specific
model is trained on the train split, thresholds or hyperparameters are
calibrated on the validation split, and miss/false-acceptance rates are
measured on the test split. Runs differ only in the split (and the model
seeds derived from it); rates aggregate as mean and population std.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .channel import (
    FAKE_LABELS,
    LABELS,
    ObservedCode,
    acquire,
    copy_attack,
    default_attack_params,
    default_original_params,
    load_observed,
    print_template,
    save_observed,
)
from .decision import calibrate, rule_ocsvm, rule_one_metric, rule_two_metric
from .deepfeat import AeConfig, extract_features_batch, train_ae
from .errors import DataError, DegenerateImageError, ParameterError
from .imageio import check_type, config_field, read_json, require_fields, write_json
from .metrics import FEATURE_NAMES, feature_vector, symbol_grid
from .ocsvm import select_nu, train_ocsvm
from .rng import derive_seed, rng_for
from .supervised import (
    TrainConfig,
    estimate_mi_lower_bound,
    images_to_features,
    predict,
    train_classifier,
)
from .template import generate_template, load_template, save_template

CLASS_ORDER = ("original",) + FAKE_LABELS

SPLIT_FRACTIONS = {"train": 0.4, "val": 0.1}

GAMMA_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)

AUGMENT_TAGS = ("identity", "rot90", "rot180", "rot270") + tuple(
    f"gamma-{g:.1f}" for g in GAMMA_GRID
)


# ---------------------------------------------------------------------------
# dataset synthesis


@dataclass(frozen=True)
class DatasetConfig:
    """Knobs for one synthetic dataset. Hash of these names the dataset."""

    n_templates: int = 300
    n_sym: int = 24
    symbol_px: int = 3
    black_fraction: float = 0.5
    physical_refs: bool = True
    plane_jitter: float = 0.03
    seed: int = 0

    def __post_init__(self):
        if self.n_templates < 1:
            raise ParameterError("n_templates must be positive")
        if not 0.0 < self.black_fraction < 1.0:
            raise ParameterError("black_fraction must be in (0, 1)")
        if not 0 <= self.plane_jitter < math.inf:
            raise ParameterError("plane_jitter must be nonnegative and finite")

    def to_dict(self) -> dict:
        return asdict(self)


def config_hash(config: DatasetConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class DatasetManifest:
    """Index of one synthesized dataset directory."""

    config: DatasetConfig
    config_hash: str
    template_ids: tuple
    codes: list  # {path, label, template_id, split, augmentation}


def _template_id(index: int) -> str:
    return f"t{index:04d}"


def _code_path(template_id: str, label: str, ext: str) -> str:
    """A code raster's path in its dataset directory, the one name load_manifest accepts."""
    return f"codes/{template_id}_{label}{ext}"


def _synthesize_template(config: DatasetConfig, index: int, out_dir: Path) -> list:
    """Generate and write one template and its codes; returns manifest rows."""
    root = config.seed
    tid = _template_id(index)
    t = generate_template(
        n_sym=config.n_sym,
        symbol_px=config.symbol_px,
        black_fraction=config.black_fraction,
        seed=derive_seed(root, "template", index),
    )
    save_template(t, out_dir / "templates" / tid)

    ext = ".ppm" if config.plane_jitter > 0 else ".pgm"
    rows = []

    def emit(code: ObservedCode) -> None:
        rel = _code_path(tid, code.label, ext)
        save_observed(code, out_dir / rel)
        rows.append(
            {
                "path": rel,
                "label": code.label,
                "template_id": tid,
                "augmentation": "none",
            }
        )

    p_orig = default_original_params(
        seed=derive_seed(root, "acquire", index, "original"),
        plane_jitter=config.plane_jitter,
    )
    ink = print_template(t, p_orig, template_id=tid)
    original = acquire(ink, p_orig, "original")
    emit(original)

    if config.physical_refs:
        # Second independent shot of the same printed item.
        p_ref = replace(p_orig, seed=derive_seed(root, "acquire", index, "physref"))
        emit(acquire(ink, p_ref, "physical_reference"))

    for family in ("fake1", "fake2"):
        for substrate in ("white", "gray"):
            attack = default_attack_params(
                family,
                substrate,
                seed=derive_seed(root, "attack", index, f"{family}_{substrate}"),
                plane_jitter=config.plane_jitter,
            )
            emit(copy_attack(original, attack))
    return rows


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ParameterError(f"jobs must be at least 1, got {jobs}")


def synthesize_dataset(
    config: DatasetConfig, out_dir: Union[str, Path], jobs: int = 1
) -> DatasetManifest:
    """Write templates, codes, and manifest.json under out_dir. Deterministic.

    An old manifest.json is deleted before any raster is written, and the new
    one is written last, so a run stopped midway leaves no loadable dataset.
    """
    _check_jobs(jobs)
    out = Path(out_dir)
    (out / "templates").mkdir(parents=True, exist_ok=True)
    (out / "codes").mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)

    indices = range(config.n_templates)
    if jobs > 1:
        n = config.n_templates
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_template = list(pool.map(_synthesize_template, [config] * n, indices, [out] * n))
    else:
        per_template = [_synthesize_template(config, i, out) for i in indices]

    template_ids = tuple(_template_id(i) for i in indices)
    assignment = split_by_template(template_ids, config.seed)
    codes = []
    for rows in per_template:
        for row in rows:
            codes.append({**row, "split": assignment[row["template_id"]]})

    manifest = DatasetManifest(
        config=config,
        config_hash=config_hash(config),
        template_ids=template_ids,
        codes=codes,
    )
    write_json(
        out / "manifest.json",
        {
            "config": config.to_dict(),
            "config_hash": manifest.config_hash,
            "seed": config.seed,
            "template_ids": list(template_ids),
            "codes": codes,
        },
    )
    return manifest


def load_manifest(dataset_dir: Union[str, Path]) -> DatasetManifest:
    """Read manifest.json; DataError naming the file (and entry) when it is malformed,
    or missing from a directory that exists.

    Each code entry holds string path, label, template_id and split, with a
    known label and split, and its path is codes/<template_id>_<label><ext>
    with ext .ppm (plane_jitter > 0) or .pgm, the one name synthesize_dataset
    writes, so no path leaves the dataset or names another code's raster. Each
    (template_id, label) appears once, of a listed template that has an
    original code, in the split of that template's other codes.
    """
    path = Path(dataset_dir) / "manifest.json"
    if path.parent.is_dir() and not path.exists():
        raise DataError(f"{path}: missing: not a dataset, or its synthesis did not finish")
    obj = read_json(path)
    require_fields(obj, path, "config", "config_hash", template_ids="list", codes="list")
    config = config_field(obj, path, "config", DatasetConfig)
    if not all(isinstance(tid, str) for tid in obj["template_ids"]):
        raise DataError(f"{path}: field 'template_ids' must hold strings")
    manifest = DatasetManifest(config, obj["config_hash"], tuple(obj["template_ids"]), obj["codes"])
    if manifest.config_hash != config_hash(config):
        raise DataError(f"{path}: config hash does not match its config")
    for i, entry in enumerate(manifest.codes):
        require_fields(entry, f"{path}: codes[{i}]",
                       path="str", label="str", template_id="str", split="str")
    ext = ".ppm" if config.plane_jitter > 0 else ".pgm"
    known = set(manifest.template_ids)
    originals = {e["template_id"] for e in manifest.codes if e["label"] == "original"}
    seen, splits = set(), {}
    for entry in manifest.codes:
        tid, label, split = entry["template_id"], entry["label"], entry["split"]
        where = f"{path}: entry {entry['path']}"
        if label not in LABELS:
            raise DataError(f"{where}: unknown label {label!r}")
        if split not in ("train", "val", "test"):
            raise DataError(f"{where}: unknown split {split!r}")
        if not entry["path"].endswith(ext):
            raise DataError(f"{where}: this dataset's rasters are {ext} files")
        if tid not in known:
            raise DataError(f"{where}: template {tid} is not in template_ids")
        if tid not in originals:
            raise DataError(f"{where}: template has no original code")
        if (tid, label) in seen:
            raise DataError(f"{where}: duplicates ({tid}, {label})")
        seen.add((tid, label))
        expected = _code_path(tid, label, ext)
        if entry["path"] != expected:
            raise DataError(f"{where}: the {label} code of {tid} must be {expected}")
        if splits.setdefault(tid, split) != split:
            raise DataError(f"{where}: split {split}, but template {tid} is in {splits[tid]}")
    return manifest


@dataclass
class Dataset:
    """Manifest plus loaded templates and codes, keyed for the protocols."""

    manifest: DatasetManifest
    templates: dict = field(default_factory=dict)  # template_id -> Template
    codes: dict = field(default_factory=dict)  # (template_id, label) -> ObservedCode

    def __post_init__(self):  # filled on first use by spatial_features
        self._symbols = {}  # (template_id, label) -> symbol_grid of the code
        self._features = {}  # (template_id, label, reference, use_planes) -> FeatureVector

    @property
    def template_ids(self) -> tuple:
        return self.manifest.template_ids


def load_dataset(dataset_dir: Union[str, Path]) -> Dataset:
    """Load a dataset; DataError naming the manifest entry whose file is missing,
    or the code raster whose side is not n_sym * symbol_px. A code is read from
    its raster and manifest entry; other files under codes/ are ignored."""
    root = Path(dataset_dir)
    manifest = load_manifest(root)
    config = manifest.config
    side = config.n_sym * config.symbol_px
    data = Dataset(manifest=manifest)
    try:
        for tid in manifest.template_ids:
            where = f"template {tid}"
            data.templates[tid] = load_template(root / "templates" / tid)
        for entry in manifest.codes:
            where = f"entry {entry['path']}"
            raster = root / entry["path"]
            code = load_observed(raster, entry["label"], entry["template_id"], config.symbol_px)
            if code.image.shape != (side, side):
                raise DataError(f"{raster}: raster shape {code.image.shape} is not "
                                f"({side}, {side}), n_sym * symbol_px on a side")
            data.codes[(entry["template_id"], entry["label"])] = code
    except FileNotFoundError as exc:
        raise DataError(f"{root / 'manifest.json'}: {where}: {exc.filename} is missing") from None
    return data


# ---------------------------------------------------------------------------
# splits and augmentation


def split_by_template(template_ids: Sequence[str], seed: int) -> dict:
    """40/10/50 train/val/test assignment; every code of a template follows it."""
    ids = list(template_ids)
    n = len(ids)
    if n < 3:
        raise ParameterError("need at least 3 templates to split")
    n_train = round(SPLIT_FRACTIONS["train"] * n)
    n_val = max(1, round(SPLIT_FRACTIONS["val"] * n))
    order = rng_for(seed, "split").permutation(n)
    assignment = {}
    for rank, idx in enumerate(order):
        if rank < n_train:
            part = "train"
        elif rank < n_train + n_val:
            part = "val"
        else:
            part = "test"
        assignment[ids[idx]] = part
    return assignment


def _rot_k(tag: str) -> int:
    try:
        return {"rot90": 1, "rot180": 2, "rot270": 3}[tag]
    except KeyError:
        raise ParameterError(f"unknown rotation tag {tag!r}") from None


def augment_image(image: np.ndarray, tag: str) -> np.ndarray:
    if tag == "identity":
        return image.copy()
    if tag.startswith("rot"):
        return np.ascontiguousarray(np.rot90(image, k=_rot_k(tag), axes=(0, 1)))
    if tag.startswith("gamma-"):
        return image ** float(tag.split("-", 1)[1])
    raise ParameterError(f"unknown augmentation tag {tag!r}")


def augment_symbols(symbols: np.ndarray, tag: str) -> np.ndarray:
    """Symbol grid matching an augmented image (rotations rotate the grid)."""
    if tag.startswith("rot"):
        return np.ascontiguousarray(np.rot90(symbols, k=_rot_k(tag)))
    return symbols


def augment(image: np.ndarray) -> list:
    """The 12 training variants of an image (identity, 3 rotations, 8 gammas).

    Variants come in AUGMENT_TAGS order and are not composed. Rotations turn
    the image in-plane; pair them with augment_symbols for template-supervised
    models.
    """
    return [augment_image(image, tag) for tag in AUGMENT_TAGS]


# ---------------------------------------------------------------------------
# error reports


@dataclass
class ErrorReport:
    """Per-setup, per-class rate summary over R runs.

    rows hold rates (p_miss / p_fa / p_e, all in [0, 1]); extras hold the
    remaining per-run scalars (selected nu values, MI estimates).
    """

    preset: str
    runs: int
    seed: int
    dataset_hash: str
    rows: list  # {setup, class_label, metric, mean, std, per_run}
    extras: dict = field(default_factory=dict)  # name -> {mean, std, per_run}

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "runs": self.runs,
            "seed": self.seed,
            "dataset_hash": self.dataset_hash,
            "rows": self.rows,
            "extras": self.extras,
        }


def _mean_std(values: Sequence[float]) -> dict:
    arr = np.array(values, dtype=np.float64)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=0)),
        "per_run": [float(v) for v in arr],
    }


def _aggregate_rates(per_run: list) -> list:
    keys = list(per_run[0])
    for rates in per_run[1:]:
        if list(rates) != keys:
            raise DataError("runs produced different row sets")
    rows = []
    for key in keys:
        setup, class_label, metric = key
        rows.append(
            {
                "setup": setup,
                "class_label": class_label,
                "metric": metric,
                **_mean_std([rates[key] for rates in per_run]),
            }
        )
    return rows


def _aggregate_extras(per_run: list) -> dict:
    keys = list(per_run[0])
    for extras in per_run[1:]:
        if list(extras) != keys:
            raise DataError("runs produced different extras sets")
    return {key: _mean_std([extras[key] for extras in per_run]) for key in keys}


def write_report_json(report: ErrorReport, path: Union[str, Path]) -> None:
    write_json(path, report.to_dict())


def load_report(path: Union[str, Path]) -> ErrorReport:
    """Read a report.json; DataError naming the file and the row or field of the wrong kind."""
    obj = read_json(path)
    require_fields(obj, path, "preset", "runs", "seed", "dataset_hash", rows="list")
    extras = check_type(obj.get("extras", {}), path, "extras", "dict")
    for i, row in enumerate(obj["rows"]):
        require_fields(row, f"{path}: rows[{i}]", setup="str", class_label="str", metric="str",
                       mean="float", std="float")
    for name, agg in extras.items():
        require_fields(agg, f"{path}: extras.{name}", mean="float", std="float")
    return ErrorReport(preset=obj["preset"], runs=obj["runs"], seed=obj["seed"],
                       dataset_hash=obj["dataset_hash"], rows=obj["rows"], extras=extras)


def write_runs_csv(report: ErrorReport, path: Union[str, Path]) -> None:
    """Per-run values behind every aggregated number, one value per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "setup", "class_label", "metric", "value"])
        for entry in report.rows:
            for run_idx, value in enumerate(entry["per_run"]):
                writer.writerow(
                    [run_idx, entry["setup"], entry["class_label"], entry["metric"], repr(value)]
                )
        for name, agg in report.extras.items():
            for run_idx, value in enumerate(agg["per_run"]):
                writer.writerow([run_idx, "extras", name, "value", repr(value)])


def write_report_markdown(report: ErrorReport, path: Union[str, Path]) -> None:
    """Rate tables in percent, one table per setup, classes as columns."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    setups = []
    for entry in report.rows:
        if entry["setup"] not in setups:
            setups.append(entry["setup"])
    lines = [f"# Report: {report.preset}", ""]
    lines.append(f"Runs: {report.runs}; seed: {report.seed}; dataset: {report.dataset_hash}")
    lines.append("")
    lines.append("All rates in percent, mean (±std) over runs.")
    lines.append("")
    for setup in setups:
        entries = [e for e in report.rows if e["setup"] == setup]
        header = [f"{e['class_label']} ({e['metric']})" for e in entries]
        cells = [f"{100 * e['mean']:.2f} (±{100 * e['std']:.2f})" for e in entries]
        lines.append(f"## {setup}")
        lines.append("")
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    if report.extras:
        lines.append("## extras")
        lines.append("")
        for name, agg in report.extras.items():
            lines.append(f"- {name}: {agg['mean']:.6g} (±{agg['std']:.6g})")
        lines.append("")
    path.write_text("\n".join(lines))


# ---------------------------------------------------------------------------
# shared evaluation helpers


def manifest_assignment(data: Dataset) -> dict:
    """template_id -> the split stored in the manifest (written at synthesis time)."""
    return {e["template_id"]: e["split"] for e in data.manifest.codes}


def codes_in_split(data: Dataset, assignment: dict, split: str, labels) -> list:
    wanted = set(labels)
    out = []
    for entry in data.manifest.codes:
        if entry["label"] in wanted and assignment[entry["template_id"]] == split:
            out.append(data.codes[(entry["template_id"], entry["label"])])
    return out


def _rates_from_accepts(setup: str, codes: Sequence[ObservedCode], accepted: np.ndarray) -> dict:
    """P_miss over originals and per-fake-class P_fa of one setup from accept decisions."""
    labels = np.array([c.label for c in codes])
    rates = {}
    orig = labels == "original"
    if orig.any():
        rates[(setup, "originals", "p_miss")] = float(1.0 - accepted[orig].mean())
    for fake in FAKE_LABELS:
        mask = labels == fake
        if mask.any():
            rates[(setup, fake, "p_fa")] = float(accepted[mask].mean())
    return rates


# ---------------------------------------------------------------------------
# preset runners; each returns (rates, extras) for one run


def _supervised_features(codes: Sequence[ObservedCode], augmented: bool) -> tuple:
    """Pooled feature rows of the codes (each code's AUGMENT_TAGS variants with
    augmented on) and the label of each row.

    One code's variants are made as its rows are pooled, so no full-resolution
    variant list of all codes is held.
    """
    variants = (image for code in codes
                for image in (augment(code.image) if augmented else (code.image,)))
    per_code = len(AUGMENT_TAGS) if augmented else 1
    names = [code.label for code in codes for _ in range(per_code)]
    return images_to_features(variants), names


def fit_classifier(
    data: Dataset, assignment: dict, config: TrainConfig, classes: Sequence[str] = CLASS_ORDER
):
    """MLP over the augmented train-split codes of `classes`, labeled by their order."""
    train_codes = codes_in_split(data, assignment, "train", classes)
    x, names = _supervised_features(train_codes, augmented=True)
    index = {label: i for i, label in enumerate(classes)}
    y = np.array([index[n] for n in names])
    return train_classifier(x, y, n_classes=len(classes), config=config, class_names=classes)


def _run_supervised_5class(data: Dataset, assignment: dict, run_seed: int) -> tuple:
    test_codes = codes_in_split(data, assignment, "test", CLASS_ORDER)
    index = {label: i for i, label in enumerate(CLASS_ORDER)}
    model = fit_classifier(
        data, assignment, TrainConfig(seed=derive_seed(run_seed, "classifier"))
    )
    x_test, test_names = _supervised_features(test_codes, augmented=False)
    y_test = np.array([index[n] for n in test_names])
    pred, logp = predict(model, x_test)

    groupings = {
        "5-class": (np.arange(5), ("originals",) + FAKE_LABELS),
        "3-class": (np.array([0, 1, 1, 2, 2]), ("originals", "fakes1", "fakes2")),
        "2-class": (np.array([0, 1, 1, 1, 1]), ("originals", "fakes")),
    }
    rates = {}
    for setup, (mapping, names_g) in groupings.items():
        true_g = mapping[y_test]
        pred_g = mapping[pred]
        for class_idx, class_name in enumerate(names_g):
            mask = true_g == class_idx
            metric = "p_miss" if class_name == "originals" else "p_e"
            rates[(setup, class_name, metric)] = float((pred_g[mask] != class_idx).mean())
    mi = estimate_mi_lower_bound(y_test, logp)
    extras = {"mi_lower_bound_nats": mi.lower_bound}
    return rates, extras


def _run_supervised_binary(data: Dataset, assignment: dict, run_seed: int) -> tuple:
    rates = {}
    test_codes = codes_in_split(data, assignment, "test", CLASS_ORDER)
    x_test, _ = _supervised_features(test_codes, augmented=False)
    for fake in FAKE_LABELS:
        model = fit_classifier(
            data,
            assignment,
            TrainConfig(seed=derive_seed(run_seed, "binary", fake)),
            classes=("original", fake),
        )
        pred, _ = predict(model, x_test)
        rates.update(_rates_from_accepts(f"trained-vs-{fake}", test_codes, pred == 0))
    return rates, {}


REFERENCES = ("digital", "physical")  # what a code's spatial features compare against
COLORS = ("gray", "rgb")  # one gray plane, or the average over the color planes
OCSVM_SPATIAL_VARIANTS = tuple((reference, color) for reference in REFERENCES for color in COLORS)


def _check_choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ParameterError(f"{name} must be one of {', '.join(choices)}, got {value!r}")


def spatial_features(
    data: Dataset, codes: Sequence[ObservedCode], reference: str, use_planes: bool
) -> list:
    """The FeatureVector of each code against its digital or physical reference.

    The one feature table: each (template_id, label, reference, use_planes)
    row and each code's symbol grid are computed once per loaded dataset and
    kept on it. DegenerateImageError names the code and the reference kind;
    ParameterError names a reference that is not one of REFERENCES.
    """
    _check_choice("reference", reference, REFERENCES)

    def grid(c: ObservedCode) -> np.ndarray:
        if (c.template_id, c.label) not in data._symbols:
            data._symbols[c.template_id, c.label] = symbol_grid(c.image, c.symbol_px)
        return data._symbols[c.template_id, c.label]

    rows = []
    for code in codes:
        key = (code.template_id, code.label, reference, use_planes)
        if key not in data._features:
            if reference == "digital":
                ref = data.templates[code.template_id]
            elif (ref := data.codes.get((code.template_id, "physical_reference"))) is None:
                raise DataError(f"{code.template_id}: no physical reference enrolled")
            try:
                ref_symbols = None if reference == "digital" else grid(ref)
                data._features[key] = feature_vector(
                    code, ref, use_planes, probe_symbols=grid(code), reference_symbols=ref_symbols
                )
            except DegenerateImageError as exc:
                raise DegenerateImageError(
                    f"{code.template_id}/{code.label} vs {reference} reference: {exc}"
                ) from None
        rows.append(data._features[key])
    return rows


def _pearson_hamming(data: Dataset, codes, reference: str, color: str) -> np.ndarray:
    """The (pearson, hamming) rows the one-class SVM fits and scores."""
    rows = spatial_features(data, codes, reference, color == "rgb")
    return np.array([(fv.pearson, fv.hamming_sym) for fv in rows])


def fit_spatial_ocsvm(
    data: Dataset,
    assignment: dict,
    reference: str,
    color: str,
    nu: Optional[float] = None,
    rbf_gamma: float = 0.1,
) -> tuple:
    """One-class SVM on (pearson, hamming) features of the train-split originals.

    nu None selects it on the validation originals (select_nu). Returns
    (model, nu, validation features). ParameterError names a reference or
    color that is not one of REFERENCES or COLORS.
    """
    _check_choice("reference", reference, REFERENCES)
    _check_choice("color", color, COLORS)
    if color == "rgb" and data.manifest.config.plane_jitter == 0:
        raise ParameterError("rgb variant needs a dataset with color planes")

    def features(split):
        codes = codes_in_split(data, assignment, split, ("original",))
        return _pearson_hamming(data, codes, reference, color)

    train, val = features("train"), features("val")
    if nu is None:
        model, nu, _ = select_nu(train, val, rbf_gamma=rbf_gamma)
    else:
        model = train_ocsvm(train, nu=nu, rbf_gamma=rbf_gamma)
    return model, nu, val


def _run_ocsvm_spatial(
    data: Dataset, assignment: dict, run_seed: int, variants=OCSVM_SPATIAL_VARIANTS
) -> tuple:
    rates = {}
    extras = {}
    test_codes = codes_in_split(data, assignment, "test", CLASS_ORDER)
    for reference, color in variants:
        model, nu, val = fit_spatial_ocsvm(data, assignment, reference, color)
        feats = _pearson_hamming(data, test_codes, reference, color)
        accepted = rule_ocsvm(model, feats)
        setup = f"{reference}-{color}"
        rates.update(_rates_from_accepts(setup, test_codes, accepted))
        val_accept = rule_ocsvm(model, val)
        rates[(setup, "originals-val", "p_miss")] = float(1.0 - val_accept.mean())
        extras[f"{setup}/selected_nu"] = nu
    return rates, extras


def ae_training_arrays(data: Dataset, assignment: dict) -> tuple:
    """Augmented train-split originals with matching (rotated) symbol grids.

    Each code's AUGMENT_TAGS variants are written straight into the two
    preallocated arrays, in augment's order, so no variant list is held.
    """
    codes = codes_in_split(data, assignment, "train", ("original",))
    if not codes:
        raise ParameterError("no train-split originals to augment")
    grids = [data.templates[code.template_id].symbols for code in codes]
    n_var = len(AUGMENT_TAGS)
    images = np.empty((n_var * len(codes),) + codes[0].image.shape, dtype=np.float64)
    symbols = np.empty((n_var * len(codes),) + grids[0].shape, dtype=grids[0].dtype)
    for i, (code, grid) in enumerate(zip(codes, grids)):
        for j, tag in enumerate(AUGMENT_TAGS):
            images[i * n_var + j] = augment_image(code.image, tag)
            symbols[i * n_var + j] = augment_symbols(grid, tag)
    return images, symbols


def deep_features(data: Dataset, model, *code_sets: Sequence[ObservedCode]) -> list:
    """Deep features of each code list, one dict per list, from one extraction call.

    One call builds the layers' scratch once; features are per-probe
    arithmetic, so each list's arrays are the bits of a call with that list alone.
    """
    every = [code for codes in code_sets for code in codes]
    images = np.stack([c.image for c in every])
    symbols = np.stack([data.templates[c.template_id].symbols for c in every])
    feats = extract_features_batch(model, images, symbols)
    out, start = [], 0
    for codes in code_sets:
        stop = start + len(codes)
        out.append({key: None if v is None else v[start:stop] for key, v in feats.items()})
        start = stop
    return out


def _run_deep(
    data: Dataset,
    assignment: dict,
    run_seed: int,
    scenario: int,
    ae_config: Optional[AeConfig] = None,
) -> tuple:
    images, symbols = ae_training_arrays(data, assignment)
    base = ae_config if ae_config is not None else AeConfig()
    model = train_ae(images, symbols, scenario, replace(base, seed=derive_seed(run_seed, "ae")))

    val_codes = codes_in_split(data, assignment, "val", ("original",))
    test_codes = codes_in_split(data, assignment, "test", CLASS_ORDER)
    # the train originals' features feed only the two-metric one-class SVM
    train_codes = (codes_in_split(data, assignment, "train", ("original",))
                   if model.decoder is not None else [])
    val_feats, test_feats, train_feats = deep_features(
        data, model, val_codes, test_codes, train_codes)

    rates = {}
    extras = {}

    def record(rule: str, accepted: np.ndarray, val_accepted: np.ndarray) -> None:
        setup = f"scenario-{scenario}/rule-{rule}"
        rates.update(_rates_from_accepts(setup, test_codes, accepted))
        rates[(setup, "originals-val", "p_miss")] = float(1.0 - val_accepted.mean())

    thr1 = calibrate(val_feats["hamming_sym"])
    record(
        "one",
        rule_one_metric(test_feats["hamming_sym"], thr1.gamma1),
        rule_one_metric(val_feats["hamming_sym"], thr1.gamma1),
    )

    if test_feats["recon_l2"] is not None:
        thr2 = calibrate(val_feats["hamming_sym"], val_feats["recon_l2"])
        record(
            "two",
            rule_two_metric(test_feats["hamming_sym"], test_feats["recon_l2"], thr2),
            rule_two_metric(val_feats["hamming_sym"], val_feats["recon_l2"], thr2),
        )
        record(
            "two-any",
            rule_two_metric(test_feats["hamming_sym"], test_feats["recon_l2"], thr2, mode="any"),
            rule_two_metric(val_feats["hamming_sym"], val_feats["recon_l2"], thr2, mode="any"),
        )
        train_x = np.column_stack([train_feats["hamming_sym"], train_feats["recon_l2"]])
        val_x = np.column_stack([val_feats["hamming_sym"], val_feats["recon_l2"]])
        test_x = np.column_stack([test_feats["hamming_sym"], test_feats["recon_l2"]])
        svm, nu, _ = select_nu(train_x, val_x)
        record("ocsvm", rule_ocsvm(svm, test_x), rule_ocsvm(svm, val_x))
        extras[f"scenario-{scenario}/rule-ocsvm/selected_nu"] = nu
    return rates, extras


# ---------------------------------------------------------------------------
# presets and the runner


# preset -> (runner, fixed keyword arguments); deep runners also get ae_config
PRESETS = {
    "supervised-5class": (_run_supervised_5class, {}),
    "supervised-binary-per-fake": (_run_supervised_binary, {}),
    "ocsvm-spatial": (_run_ocsvm_spatial, {}),
    "ocsvm-spatial-digital-gray": (_run_ocsvm_spatial, {"variants": (("digital", "gray"),)}),
    "ocsvm-spatial-digital-rgb": (_run_ocsvm_spatial, {"variants": (("digital", "rgb"),)}),
    "ocsvm-spatial-physical-gray": (_run_ocsvm_spatial, {"variants": (("physical", "gray"),)}),
    "ocsvm-spatial-physical-rgb": (_run_ocsvm_spatial, {"variants": (("physical", "rgb"),)}),
    "deep-scenario-1": (_run_deep, {"scenario": 1}),
    "deep-scenario-2": (_run_deep, {"scenario": 2}),
    "deep-scenario-3": (_run_deep, {"scenario": 3}),
    "deep-scenario-4": (_run_deep, {"scenario": 4}),
}


def _single_run(data: Dataset, preset: str, run_seed: int, ae_config) -> tuple:
    assignment = split_by_template(data.template_ids, run_seed)
    runner, kwargs = PRESETS[preset]
    if runner is _run_deep:
        kwargs = {**kwargs, "ae_config": ae_config}
    return runner(data, assignment, run_seed, **kwargs)


# A --jobs worker's dataset and preset, set once by _init_run_worker, so the
# runs a worker takes share one load and one spatial feature table.
_worker_run: tuple = ()


def _init_run_worker(data: Dataset, preset: str, ae_config) -> None:
    global _worker_run
    _worker_run = (data, preset, ae_config)


def _run_worker(run_seed: int) -> tuple:
    data, preset, ae_config = _worker_run
    return _single_run(data, preset, run_seed, ae_config)


def run_experiment(
    dataset: Union[Dataset, str, Path],
    preset: str,
    runs: int = 5,
    seed: int = 0,
    out_dir: Optional[Union[str, Path]] = None,
    ae_config: Optional[AeConfig] = None,
    jobs: int = 1,
) -> ErrorReport:
    """Repeat a preset over fresh splits and aggregate the rates.

    Each run r resplits by template with a seed derived from (seed, r); all
    model seeds derive from the run seed, so the report is reproducible byte
    for byte, sequential or parallel. With jobs > 1 each worker process gets
    the loaded dataset once, at start-up, and then takes run seeds, so its
    runs share one spatial feature table. When out_dir is given, writes
    report.json, report.md and runs.csv there.
    """
    if preset not in PRESETS:
        raise ParameterError(
            f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
        )
    if runs < 1:
        raise ParameterError("runs must be positive")
    _check_jobs(jobs)
    data = dataset if isinstance(dataset, Dataset) else load_dataset(dataset)
    run_seeds = [derive_seed(seed, "run", r) for r in range(runs)]

    if jobs > 1 and runs > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, runs),
            initializer=_init_run_worker,
            initargs=(data, preset, ae_config),
        ) as pool:
            results = list(pool.map(_run_worker, run_seeds))
    else:
        results = [_single_run(data, preset, rs, ae_config) for rs in run_seeds]

    report = ErrorReport(
        preset=preset,
        runs=runs,
        seed=seed,
        dataset_hash=data.manifest.config_hash,
        rows=_aggregate_rates([rates for rates, _ in results]),
        extras=_aggregate_extras([extras for _, extras in results]),
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report_json(report, out / "report.json")
        write_report_markdown(report, out / "report.md")
        write_runs_csv(report, out / "runs.csv")
    return report


# ---------------------------------------------------------------------------
# embedding export


def pca_embed(features: np.ndarray, dims: int = 2) -> np.ndarray:
    """Mean-centered projection onto the top principal directions.

    Sign convention: each direction's largest-magnitude loading is positive.
    Degenerate covariance (rank < dims) reduces the output width with a
    warning instead of fabricating directions.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DataError("features must be a 2-D matrix")
    n, d = x.shape
    if dims < 1:
        raise ParameterError("dims must be positive")
    if n < dims:
        raise DataError(f"need at least {dims} samples for {dims} dimensions")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    tol = max(n, d) * np.finfo(np.float64).eps * max(float(eigvals[0]), 1.0)
    rank = int((eigvals > tol).sum())
    keep = min(dims, rank)
    if keep < dims:
        warnings.warn(
            f"covariance rank {rank} < requested dims {dims}; returning {keep} dims",
            stacklevel=2,
        )
    vecs = eigvecs[:, :keep]
    flips = np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(keep)])
    flips[flips == 0] = 1.0
    return centered @ (vecs * flips)


def write_features_csv(
    path: Union[str, Path],
    data: Dataset,
    reference: str = "digital",
    use_planes: bool = False,
) -> list:
    """Per-code spatial metrics vs the chosen reference; returns the codes used."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    used = [code for code in data.codes.values() if code.label != "physical_reference"]
    split = manifest_assignment(data)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["template_id", "label", "split", *FEATURE_NAMES])
        for code, fv in zip(used, spatial_features(data, used, reference, use_planes)):
            values = [repr(fv.pearson), fv.hamming_sym, repr(fv.l1), repr(fv.l2)]
            writer.writerow([code.template_id, code.label, split[code.template_id], *values])
    return used


def write_embedding_csv(
    path: Union[str, Path], embedding: np.ndarray, codes: Sequence[ObservedCode]
) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["template_id", "label"] + [f"dim{i}" for i in range(embedding.shape[1])]
        )
        for code, row in zip(codes, embedding):
            writer.writerow([code.template_id, code.label] + [repr(float(v)) for v in row])
