"""Command-line entry point wiring templates, channel, models, and reports.

One executable with subcommands covering the full workflow: generate
templates, synthesize a benchmark dataset, export spatial metrics, train the
three model families, calibrate decision thresholds, run preset experiments,
render reports, export embeddings, benchmark, and self-test against the
built-in oracles.

Configuration comes from an optional JSON file (--config) overridden by
flags; the seed additionally honors the CDP_AUTHKIT_SEED environment
variable between the two. Unknown config keys are rejected. All outputs are
byte-deterministic for a given seed; wall-clock timestamps appear only in
the optional --log file. Exit codes: 0 success, 1 validation error, 2
runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from .channel import acquire, print_template, strong_dot_gain_params
from .decision import calibrate
from .deepfeat import AeConfig, load_ae, save_ae, train_ae
from .errors import ParameterError
from .imageio import read_json, require_fields, write_json
from .metrics import lp_distances, otsu_threshold, pearson
from .ocsvm import decision_function, save_model, train_ocsvm
from .rng import derive_seed, rng_for
from .supervised import TrainConfig, save_classifier
from .template import add_markers, generate_template, save_template
from .experiment import (
    PRESETS,
    DatasetConfig,
    ErrorReport,
    ae_training_arrays,
    codes_in_split,
    deep_features,
    fit_classifier,
    fit_spatial_ocsvm,
    load_dataset,
    pca_embed,
    run_experiment,
    spatial_feature_table,
    synthesize_dataset,
    write_embedding_csv,
    write_features_csv,
    write_report_markdown,
)

LOG = logging.getLogger("cdp_authkit.cli")

TOP_KEYS = {"seed", "out_dir", "jobs", "template", "dataset", "model", "experiment"}

# Config keys per command; each is also the dest of the command's flag.
TEMPLATE_KEYS = ("count", "n_sym", "symbol_px", "black_fraction", "marker_width")
DATASET_KEYS = ("templates", "n_sym", "symbol_px", "black_fraction", "physical_refs", "plane_jitter")
OCSVM_KEYS = ("nu", "rbf_gamma", "reference", "color")
CLASSIFIER_KEYS = ("epochs", "batch_size", "lr", "hidden")
AE_KEYS = ("epochs", "batch_size", "lr", "lambda1", "lambda2", "beta", "channels", "disc_hidden")
EXPERIMENT_KEYS = ("preset", "runs")

SECTION_KEYS = {
    "template": set(TEMPLATE_KEYS),
    "dataset": set(DATASET_KEYS),
    "model": {*OCSVM_KEYS, *CLASSIFIER_KEYS, *AE_KEYS, "scenario"},
    "experiment": set(EXPERIMENT_KEYS),
}


class CliParser(argparse.ArgumentParser):
    """Parser whose usage errors exit with status 1 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        obj = read_json(path)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParameterError("config file must hold a JSON object")
    unknown = set(obj) - TOP_KEYS
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    for section, allowed in SECTION_KEYS.items():
        sec = obj.get(section, {})
        if not isinstance(sec, dict):
            raise ParameterError(f"config section {section!r} must be an object")
        bad = set(sec) - allowed
        if bad:
            raise ParameterError(f"unknown keys in config section {section!r}: {sorted(bad)}")
    return obj


def _settings(args, config: dict, section: str, keys) -> dict:
    """Flag > config section for each key; keys set by neither are left out.

    Leaving a key out lets the receiving dataclass or function apply its own
    default, so defaults live in one place.
    """
    from_config = config.get(section, {})
    out = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is None:
            value = from_config.get(key)
        if value is not None:
            out[key] = value
    return out


def _seed(args, config: dict) -> int:
    """Flag > CDP_AUTHKIT_SEED > config > 0."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CDP_AUTHKIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ParameterError("CDP_AUTHKIT_SEED must be an integer") from exc
    return int(config.get("seed", 0))


def _jobs(args, config: dict) -> int:
    if args.jobs is not None:
        return args.jobs
    return int(config.get("jobs", os.cpu_count() or 1))


def _out_path(args, config: dict, default_name: str) -> Path:
    if getattr(args, "out", None) is not None:
        return Path(args.out)
    return Path(config.get("out_dir", ".")) / default_name


def _manifest_assignment(data) -> dict:
    """The split stored in the manifest (written at synthesis time)."""
    return {e["template_id"]: e["split"] for e in data.manifest.codes}


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args, config) -> int:
    seed = _seed(args, config)
    opts = _settings(args, config, "template", TEMPLATE_KEYS)
    count = opts.get("count", 1)
    n_sym = opts.get("n_sym", DatasetConfig.n_sym)
    symbol_px = opts.get("symbol_px", DatasetConfig.symbol_px)
    black = opts.get("black_fraction", DatasetConfig.black_fraction)
    marker = opts.get("marker_width", 0)
    out = _out_path(args, config, "templates")
    out.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        t = generate_template(n_sym, symbol_px, black, derive_seed(seed, "template", i))
        if marker:
            t = add_markers(t, marker)
        save_template(t, out / f"t{i:04d}")
    print(f"wrote {count} templates ({n_sym}x{n_sym} symbols at {symbol_px}px) -> {out}")
    return 0


def cmd_dataset(args, config) -> int:
    opts = _settings(args, config, "dataset", DATASET_KEYS)
    if "templates" in opts:
        opts["n_templates"] = opts.pop("templates")
    cfg = DatasetConfig(**opts, seed=_seed(args, config))
    out = _out_path(args, config, "dataset")
    manifest = synthesize_dataset(cfg, out, jobs=_jobs(args, config))
    print(
        f"manifest {manifest.config_hash}: {cfg.n_templates} templates, "
        f"{len(manifest.codes)} codes -> {out}"
    )
    return 0


def cmd_metrics(args, config) -> int:
    data = load_dataset(args.dataset)
    out = Path(args.out) if args.out is not None else Path(args.dataset) / "features.csv"
    used = write_features_csv(out, data, reference=args.reference, use_planes=args.use_planes)
    print(f"wrote {len(used)} metric rows ({args.reference} reference) -> {out}")
    return 0


def cmd_train(args, config) -> int:
    seed = _seed(args, config)
    data = load_dataset(args.dataset)
    assignment = _manifest_assignment(data)

    if args.kind == "ocsvm":
        opts = _settings(args, config, "model", OCSVM_KEYS)
        reference = opts.pop("reference", "digital")
        color = opts.pop("color", "gray")
        model, nu, val = fit_spatial_ocsvm(data, assignment, reference, color, **opts)
        val_miss = float(np.mean(decision_function(model, val) < 0.0))
        out = _out_path(args, config, "model-ocsvm.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        save_model(model, out)
        print(
            f"one-class svm ({reference}-{color}): nu={nu} support={len(model.alphas)} "
            f"val-miss={val_miss:.6f} -> {out}"
        )
        return 0

    if args.kind == "supervised":
        cfg = TrainConfig(**_settings(args, config, "model", CLASSIFIER_KEYS), seed=seed)
        model = fit_classifier(data, assignment, cfg)
        out = _out_path(args, config, "model-supervised.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        save_classifier(model, out)
        print(f"classifier: {cfg.epochs} epochs, final loss {model.final_loss:.6f} -> {out}")
        return 0

    # autoencoder
    opts = _settings(args, config, "model", AE_KEYS + ("scenario",))
    scenario = opts.pop("scenario", None)
    if scenario is None:
        raise ParameterError("train ae requires --scenario (1..4)")
    cfg = AeConfig(**opts, seed=seed)
    images, symbols = ae_training_arrays(data, assignment)
    model = train_ae(images, symbols, scenario, cfg)
    out = _out_path(args, config, f"model-ae-s{scenario}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_ae(model, out)
    print(
        f"autoencoder scenario {scenario}: {cfg.epochs} epochs, "
        f"final loss {model.loss_trace['total'][-1]:.6f} -> {out}"
    )
    return 0


def cmd_calibrate(args, config) -> int:
    data = load_dataset(args.dataset)
    model = load_ae(args.model)
    assignment = _manifest_assignment(data)
    val_codes = codes_in_split(data, assignment, "val", ("original",))
    feats = deep_features(data, model, val_codes)
    # models without a decoder calibrate the hamming threshold alone
    thr = calibrate(feats["hamming_sym"], feats.get("recon_l2"))
    out = _out_path(args, config, "thresholds.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(out, {"kind": "thresholds", **thr.to_dict()})
    print(
        f"calibrated on {len(val_codes)} validation originals: "
        f"gamma1={thr.gamma1} gamma2={thr.gamma2!r} -> {out}"
    )
    return 0


def cmd_eval(args, config) -> int:
    opts = _settings(args, config, "experiment", EXPERIMENT_KEYS)
    if "preset" not in opts:
        raise ParameterError("eval requires --preset")
    out = _out_path(args, config, f"report-{opts['preset']}")
    report = run_experiment(
        args.dataset,
        **opts,
        seed=_seed(args, config),
        out_dir=out,
        ae_config=AeConfig(**_settings(args, config, "model", AE_KEYS)),
        jobs=_jobs(args, config),
    )
    for row in report.rows:
        print(
            f"{row['setup']} {row['class_label']} {row['metric']}: "
            f"mean {row['mean']:.6f} std {row['std']:.6f}"
        )
    for name, agg in report.extras.items():
        print(f"{name}: mean {agg['mean']:.6g} std {agg['std']:.6g}")
    print(f"report -> {out}")
    return 0


def cmd_report(args, config) -> int:
    obj = read_json(args.input)
    require_fields(obj, args.input, "preset", "runs", "seed", "dataset_hash", "rows")
    report = ErrorReport(
        preset=obj["preset"],
        runs=obj["runs"],
        seed=obj["seed"],
        dataset_hash=obj["dataset_hash"],
        rows=obj["rows"],
        extras=obj.get("extras", {}),
    )
    out = Path(args.out) if args.out is not None else Path(args.input).with_suffix(".md")
    write_report_markdown(report, out)
    print(out.read_text())
    return 0


def cmd_embed(args, config) -> int:
    data = load_dataset(args.dataset)
    rows, codes = spatial_feature_table(
        data, reference=args.reference, use_planes=args.use_planes
    )
    features = np.array([row[3:] for row in rows], dtype=np.float64)
    embedding = pca_embed(features, dims=args.dims)
    out = Path(args.out) if args.out is not None else Path(args.dataset) / "embedding.csv"
    write_embedding_csv(out, embedding, codes)
    print(f"wrote {embedding.shape[0]}x{embedding.shape[1]} embedding -> {out}")
    return 0


def cmd_bench(args, config) -> int:
    seed = _seed(args, config)
    rng = rng_for(seed, "bench")

    images = rng.random((200, 64, 64))
    t0 = time.perf_counter()
    for img in images:
        otsu_threshold(img)
    dt = time.perf_counter() - t0
    print(f"otsu 64x64: 200 images in {dt:.3f}s ({200 / dt:.0f}/s)")

    pairs = rng.random((200, 2, 64, 64))
    t0 = time.perf_counter()
    for a, b in pairs:
        pearson(a, b)
        lp_distances(a, b)
    dt = time.perf_counter() - t0
    print(f"intensity metrics 64x64: 200 pairs in {dt:.3f}s ({200 / dt:.0f}/s)")

    points = rng.normal(size=(200, 2))
    t0 = time.perf_counter()
    model = train_ocsvm(points, nu=0.1)
    dt = time.perf_counter() - t0
    print(f"ocsvm n=200: {model.iterations} pair updates in {dt:.3f}s")

    t = generate_template(12, 3, 0.5, derive_seed(seed, "bench-template"))
    imgs = np.stack(
        [
            acquire(print_template(t, strong_dot_gain_params(), "bench"),
                    strong_dot_gain_params(), "original").image
            for _ in range(8)
        ]
    )
    syms = np.stack([t.symbols] * 8)
    t0 = time.perf_counter()
    train_ae(imgs, syms, 1, AeConfig(epochs=1, batch_size=8, channels=4, seed=seed))
    dt = time.perf_counter() - t0
    print(f"ae epoch (8 images 36x36, 4 channels): {dt:.3f}s")
    return 0


def cmd_selftest(args, config) -> int:
    from .checks import SELFTEST_SUITES, CheckFailure

    prefix = (_seed(args, config), "selftest")
    failures = 0
    for name, check, size in SELFTEST_SUITES:
        check_args = () if size is None else (prefix, size)
        t0 = time.perf_counter()
        try:
            check(*check_args)
        except CheckFailure as exc:
            failures += 1
            print(f"{name}: FAIL ({exc})")
        else:
            print(f"{name}: pass")
        LOG.info("selftest %s: %.2fs", name, time.perf_counter() - t0)
    if failures:
        print(f"{failures} of {len(SELFTEST_SUITES)} suites failed")
        return 2
    print(f"all {len(SELFTEST_SUITES)} suites passed")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> CliParser:
    parser = CliParser(prog="cdp-authkit", description=__doc__.splitlines()[0])
    common = CliParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="JSON config file; flags override it")
    common.add_argument("--seed", type=int, help="root seed (default: env, config, then 0)")
    common.add_argument("--jobs", type=int, help="parallel workers (default: config, then cores)")
    common.add_argument("--log", metavar="FILE", help="append timestamped progress to this file")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=CliParser)

    p = sub.add_parser("gen", parents=[common], help="generate digital templates")
    p.add_argument("--count", type=int, help="number of templates (default 1)")
    p.add_argument("--n-sym", type=int, dest="n_sym", help="symbols per side (default 24)")
    p.add_argument("--symbol-px", type=int, dest="symbol_px", help="pixels per symbol (default 3)")
    p.add_argument("--black-fraction", type=float, dest="black_fraction", help="ink probability (default 0.5)")
    p.add_argument("--marker-width", type=int, dest="marker_width", help="corner marker width in px (default 0)")
    p.add_argument("--out", help="output directory (default <out_dir>/templates)")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("dataset", parents=[common], help="synthesize a benchmark dataset")
    p.add_argument("--templates", type=int, help="template count (default 300)")
    p.add_argument("--n-sym", type=int, dest="n_sym", help="symbols per side (default 24)")
    p.add_argument("--symbol-px", type=int, dest="symbol_px", help="pixels per symbol (default 3)")
    p.add_argument("--black-fraction", type=float, dest="black_fraction", help="ink probability (default 0.5)")
    p.add_argument(
        "--physical-refs",
        action=argparse.BooleanOptionalAction,
        dest="physical_refs",
        default=None,
        help="enroll a second acquisition per original (default on)",
    )
    p.add_argument("--plane-jitter", type=float, dest="plane_jitter", help="color plane albedo jitter; 0 = grayscale (default 0.03)")
    p.add_argument("--out", help="dataset directory (default <out_dir>/dataset)")
    p.set_defaults(handler=cmd_dataset)

    p = sub.add_parser("metrics", parents=[common], help="export per-code spatial metrics as CSV")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--reference", choices=("digital", "physical"), default="digital")
    p.add_argument("--use-planes", action="store_true", dest="use_planes", help="average metrics over color planes")
    p.add_argument("--out", help="CSV path (default <dataset>/features.csv)")
    p.set_defaults(handler=cmd_metrics)

    p = sub.add_parser("train", parents=[common], help="train a model on the stored split")
    p.add_argument("kind", choices=("ocsvm", "supervised", "ae"))
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--out", help="model JSON path (default <out_dir>/model-<kind>.json)")
    p.add_argument("--nu", type=float, help="ocsvm: fixed nu (default: validation grid search)")
    p.add_argument("--rbf-gamma", type=float, dest="rbf_gamma", help="ocsvm: kernel width (default 0.1)")
    p.add_argument("--reference", choices=("digital", "physical"), help="ocsvm: feature reference (default digital)")
    p.add_argument("--color", choices=("gray", "rgb"), help="ocsvm: feature channels (default gray)")
    p.add_argument("--scenario", type=int, choices=(1, 2, 3, 4), help="ae: loss scenario (required)")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--batch-size", type=int, dest="batch_size", help="minibatch size")
    p.add_argument("--lr", type=float, help="learning rate")
    p.add_argument("--hidden", type=int, help="supervised: hidden width (default 128)")
    p.add_argument("--channels", type=int, help="ae: conv channels (default 8)")
    p.add_argument("--disc-hidden", type=int, dest="disc_hidden", help="ae: discriminator width (default 64)")
    p.add_argument("--lambda1", type=float, help="ae: template loss weight (default 1)")
    p.add_argument("--lambda2", type=float, help="ae: reconstruction weight (default 1)")
    p.add_argument("--beta", type=float, help="ae: x-side weight (default 0.01)")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("calibrate", parents=[common], help="calibrate decision thresholds on validation originals")
    p.add_argument("--model", required=True, help="autoencoder model JSON")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--out", help="thresholds JSON path (default <out_dir>/thresholds.json)")
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("eval", parents=[common], help="run a preset experiment over repeated splits")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--preset", choices=sorted(PRESETS), help="experiment preset")
    p.add_argument("--runs", type=int, help="repetitions (default 5)")
    p.add_argument("--out", help="report directory (default <out_dir>/report-<preset>)")
    p.add_argument("--epochs", type=int, help="deep presets: override ae epochs")
    p.add_argument("--batch-size", type=int, dest="batch_size", help="deep presets: override batch size")
    p.add_argument("--lr", type=float, help="deep presets: override learning rate")
    p.add_argument("--channels", type=int, help="deep presets: override conv channels")
    p.add_argument("--disc-hidden", type=int, dest="disc_hidden", help="deep presets: override discriminator width")
    p.add_argument("--lambda1", type=float, help="deep presets: override template loss weight")
    p.add_argument("--lambda2", type=float, help="deep presets: override reconstruction weight")
    p.add_argument("--beta", type=float, help="deep presets: override x-side weight")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("report", parents=[common], help="render a report JSON as Markdown")
    p.add_argument("--in", dest="input", required=True, help="report.json path")
    p.add_argument("--out", help="markdown path (default alongside the JSON)")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("embed", parents=[common], help="export a PCA embedding of spatial metrics")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--reference", choices=("digital", "physical"), default="digital")
    p.add_argument("--use-planes", action="store_true", dest="use_planes")
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--out", help="CSV path (default <dataset>/embedding.csv)")
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("bench", parents=[common], help="time the hot paths (writes nothing)")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance checks at reduced size")
    p.set_defaults(handler=cmd_selftest)

    return parser


def _setup_logging(log_path) -> None:
    LOG.setLevel(logging.INFO)
    LOG.handlers.clear()
    if log_path:
        handler = logging.FileHandler(log_path)
        handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
        LOG.addHandler(handler)
    else:
        LOG.addHandler(logging.NullHandler())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _setup_logging(args.log)
    t0 = time.time()
    LOG.info("command %s starting", args.command)
    try:
        config = _load_config(args.config)
        code = args.handler(args, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        LOG.error("validation error: %s", exc)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        LOG.error("runtime failure", exc_info=True)
        return 2
    LOG.info("command %s finished in %.2fs", args.command, time.time() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
