"""Command-line entry point wiring templates, channel, models, and reports.

One executable with subcommands covering the full workflow: generate
templates, synthesize a benchmark dataset, export spatial metrics, train the
three model families, calibrate decision thresholds, run preset experiments,
render reports, export embeddings, and self-test against the built-in
oracles. Timing lives outside the CLI: `perfbench/run.py` benchmarks the
pipeline end to end and layer by layer.

Configuration comes from an optional JSON file (--config) overridden by
flags; the seed additionally honors the CDP_AUTHKIT_SEED environment
variable between the two. A config section's keys are the dests of the flags
declared for that section, and each value must have its flag's type and
pass its choices; anything else is rejected. All outputs are
byte-deterministic for a given seed; wall-clock timestamps appear only in
the optional --log file. Exit codes: 0 success, 1 bad input (a usage error,
or the toolkit's ParameterError, DataError or DegenerateImageError), 2
runtime failure (any other exception).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .decision import calibrate
from .deepfeat import AeConfig, load_ae, save_ae, train_ae
from .errors import DataError, DegenerateImageError, ParameterError
from .imageio import check_type, read_json, write_json
from .ocsvm import decision_function, save_model
from .rng import derive_seed
from .supervised import TrainConfig, save_classifier
from .template import add_markers, generate_template, save_template
from .experiment import (
    COLORS,
    PRESETS,
    REFERENCES,
    DatasetConfig,
    ae_training_arrays,
    codes_in_split,
    deep_features,
    fit_classifier,
    fit_spatial_ocsvm,
    load_dataset,
    load_report,
    manifest_assignment,
    pca_embed,
    run_experiment,
    spatial_features,
    synthesize_dataset,
    write_embedding_csv,
    write_features_csv,
    write_report_markdown,
)

LOG = logging.getLogger("cdp_authkit.cli")

# Top-level config keys with no section, and the JSON kind of each.
TOP_KINDS = {"seed": "int", "jobs": "int", "out_dir": "str"}

# JSON kind a config value must have, by the type of the flag it stands for.
FLAG_KINDS = {int: "int", float: "float", None: "str"}

# Settings of train ocsvm; the other model kinds read their config dataclass's fields.
OCSVM_SETTINGS = ("nu", "rbf_gamma", "reference", "color")


class CliParser(argparse.ArgumentParser):
    """Parser whose usage errors exit with status 1 instead of argparse's 2.

    `option` declares a flag that a --config section may also set, under the
    flag's dest; `options` maps each section to those flags' actions (for the
    top-level parser, the union over its commands).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.options = {}

    def option(self, section: str, *flags, **kwargs) -> None:
        action = self.add_argument(*flags, **kwargs)
        self.options.setdefault(section, {})[action.dest] = action

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _check_option(value, action, path, name: str) -> None:
    """DataError naming the config file and the field unless value has the
    flag's type and passes its choices (a JSON integer passes as a float)."""
    bool_flag = isinstance(action, argparse.BooleanOptionalAction)
    check_type(value, path, name, "bool" if bool_flag else FLAG_KINDS[action.type])
    if action.choices is not None and value not in action.choices:
        allowed = ", ".join(str(choice) for choice in action.choices)
        raise DataError(f"{path}: field '{name}' must be one of {allowed}, got {value!r}")


def _load_config(path, options: dict) -> dict:
    """The --config file's object; DataError naming the file unless every key is
    a top-level key or a flag's dest in its section, and every value that is
    not null (null means not set) has that key's type and choices."""
    if path is None:
        return {}
    try:
        obj = read_json(path)
    except (OSError, DataError) as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: config file must hold a JSON object")
    unknown = set(obj) - set(TOP_KINDS) - set(options)
    if unknown:
        raise DataError(f"{path}: unknown config keys: {sorted(unknown)}")
    for key, kind in TOP_KINDS.items():
        if obj.get(key) is not None:
            check_type(obj[key], path, key, kind)
    for section, actions in options.items():
        sec = obj.get(section, {})
        if not isinstance(sec, dict):
            raise DataError(f"{path}: config section {section!r} must be an object")
        bad = set(sec) - set(actions)
        if bad:
            raise DataError(f"{path}: unknown keys in config section {section!r}: {sorted(bad)}")
        for key, value in sec.items():
            if value is not None:
                _check_option(value, actions[key], path, f"{section}.{key}")
    return obj


def _settings(args, config: dict, section: str, only=None) -> dict:
    """Flag > config section for each of the command's options in section (those
    named in only, when given); keys set by neither are left out.

    Leaving a key out lets the receiving dataclass or function apply its own
    default, so defaults live in one place.
    """
    from_config = config.get(section, {})
    out = {}
    for key in args.options.get(section, ()):
        if only is not None and key not in only:
            continue
        value = getattr(args, key)
        if value is None:
            value = from_config.get(key)
        if value is not None:
            out[key] = value
    return out


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


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
    return config.get("seed") or 0


def _jobs(args, config: dict) -> int:
    """Flag > config > core count; ParameterError below 1, whatever the command."""
    jobs = args.jobs if args.jobs is not None else config.get("jobs")
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ParameterError(f"jobs must be at least 1, got {jobs}")
    return jobs


def _out_path(args, config: dict, default_name: str) -> Path:
    if getattr(args, "out", None) is not None:
        return Path(args.out)
    return Path(config.get("out_dir") or ".") / default_name


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args, config) -> int:
    seed = _seed(args, config)
    opts = _settings(args, config, "template")
    count = opts.get("count", 1)
    if count < 1:
        raise ParameterError(f"count must be at least 1, got {count}")
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
    opts = _settings(args, config, "dataset")
    if "templates" in opts:
        opts["n_templates"] = opts.pop("templates")
    cfg = DatasetConfig(**opts, seed=_seed(args, config))
    out = _out_path(args, config, "dataset")
    manifest = synthesize_dataset(cfg, out, jobs=args.jobs)
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
    assignment = manifest_assignment(data)

    if args.kind == "ocsvm":
        opts = _settings(args, config, "model", OCSVM_SETTINGS)
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
        cfg = TrainConfig(**_settings(args, config, "model", _field_names(TrainConfig)), seed=seed)
        model = fit_classifier(data, assignment, cfg)
        out = _out_path(args, config, "model-supervised.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        save_classifier(model, out)
        print(f"classifier: {cfg.epochs} epochs, final loss {model.final_loss:.6f} -> {out}")
        return 0

    # autoencoder
    opts = _settings(args, config, "model", _field_names(AeConfig) | {"scenario"})
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
    assignment = manifest_assignment(data)
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
    opts = _settings(args, config, "experiment")
    if "preset" not in opts:
        raise ParameterError("eval requires --preset")
    out = _out_path(args, config, f"report-{opts['preset']}")
    report = run_experiment(
        args.dataset,
        **opts,
        seed=_seed(args, config),
        out_dir=out,
        ae_config=AeConfig(**_settings(args, config, "model")),
        jobs=args.jobs,
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
    report = load_report(args.input)
    out = Path(args.out) if args.out is not None else Path(args.input).with_suffix(".md")
    write_report_markdown(report, out)
    print(out.read_text())
    return 0


def cmd_embed(args, config) -> int:
    data = load_dataset(args.dataset)
    codes = [code for code in data.codes.values() if code.label != "physical_reference"]
    rows = spatial_features(data, codes, args.reference, args.use_planes)
    features = np.array([fv.as_array() for fv in rows])
    embedding = pca_embed(features, dims=args.dims)
    out = Path(args.out) if args.out is not None else Path(args.dataset) / "embedding.csv"
    write_embedding_csv(out, embedding, codes)
    print(f"wrote {embedding.shape[0]}x{embedding.shape[1]} embedding -> {out}")
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


def _symbol_options(p: CliParser, section: str) -> None:
    """The symbol-grid flags gen and dataset share."""
    p.option(section, "--n-sym", type=int, help="symbols per side (default 24)")
    p.option(section, "--symbol-px", type=int, help="pixels per symbol (default 3)")
    p.option(section, "--black-fraction", type=float, help="ink probability (default 0.5)")


def _ae_options(p: CliParser) -> None:
    """The AeConfig flags train and eval share (the deep presets of eval train an autoencoder)."""
    p.option("model", "--epochs", type=int, help="training epochs")
    p.option("model", "--batch-size", type=int, help="minibatch size")
    p.option("model", "--lr", type=float, help="learning rate")
    p.option("model", "--channels", type=int, help="ae: conv channels (default 8)")
    p.option("model", "--disc-hidden", type=int, help="ae: discriminator width (default 64)")
    p.option("model", "--lambda1", type=float, help="ae: template loss weight (default 1)")
    p.option("model", "--lambda2", type=float, help="ae: reconstruction weight (default 1)")
    p.option("model", "--beta", type=float, help="ae: x-side weight (default 0.01)")


def build_parser() -> CliParser:
    parser = CliParser(prog="cdp-authkit", description=__doc__.splitlines()[0])
    common = CliParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="JSON config file; flags override it")
    common.add_argument("--seed", type=int, help="root seed (default: env, config, then 0)")
    common.add_argument("--jobs", type=int, help="parallel workers (default: config, then cores)")
    common.add_argument("--log", metavar="FILE", help="append timestamped progress to this file")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=CliParser)

    p = sub.add_parser("gen", parents=[common], help="generate digital templates")
    p.option("template", "--count", type=int, help="number of templates (default 1)")
    _symbol_options(p, "template")
    p.option("template", "--marker-width", type=int, help="corner marker width in px (default 0)")
    p.add_argument("--out", help="output directory (default <out_dir>/templates)")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("dataset", parents=[common], help="synthesize a benchmark dataset")
    p.option("dataset", "--templates", type=int, help="template count (default 300)")
    _symbol_options(p, "dataset")
    p.option(
        "dataset",
        "--physical-refs",
        action=argparse.BooleanOptionalAction,
        help="enroll a second acquisition per original (default on)",
    )
    p.option("dataset", "--plane-jitter", type=float, help="color plane albedo jitter; 0 = grayscale (default 0.03)")
    p.add_argument("--out", help="dataset directory (default <out_dir>/dataset)")
    p.set_defaults(handler=cmd_dataset)

    p = sub.add_parser("metrics", parents=[common], help="export per-code spatial metrics as CSV")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--reference", choices=REFERENCES, default="digital")
    p.add_argument("--use-planes", action="store_true", help="average metrics over color planes")
    p.add_argument("--out", help="CSV path (default <dataset>/features.csv)")
    p.set_defaults(handler=cmd_metrics)

    p = sub.add_parser("train", parents=[common], help="train a model on the stored split")
    p.add_argument("kind", choices=("ocsvm", "supervised", "ae"))
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--out", help="model JSON path (default <out_dir>/model-<kind>.json)")
    p.option("model", "--nu", type=float, help="ocsvm: fixed nu (default: validation grid search)")
    p.option("model", "--rbf-gamma", type=float, help="ocsvm: kernel width (default 0.1)")
    p.option("model", "--reference", choices=REFERENCES, help="ocsvm: feature reference (default digital)")
    p.option("model", "--color", choices=COLORS, help="ocsvm: feature channels (default gray)")
    p.option("model", "--scenario", type=int, choices=(1, 2, 3, 4), help="ae: loss scenario (required)")
    p.option("model", "--hidden", type=int, help="supervised: hidden width (default 128)")
    _ae_options(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("calibrate", parents=[common], help="calibrate decision thresholds on validation originals")
    p.add_argument("--model", required=True, help="autoencoder model JSON")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--out", help="thresholds JSON path (default <out_dir>/thresholds.json)")
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser(
        "eval",
        parents=[common],
        help="run a preset experiment over repeated splits",
        description="Run a preset experiment over repeated splits. The training flags "
        "set the autoencoder of the deep presets.",
    )
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.option("experiment", "--preset", choices=sorted(PRESETS), help="experiment preset")
    p.option("experiment", "--runs", type=int, help="repetitions (default 5)")
    p.add_argument("--out", help="report directory (default <out_dir>/report-<preset>)")
    _ae_options(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("report", parents=[common], help="render a report JSON as Markdown")
    p.add_argument("--in", dest="input", required=True, help="report.json path")
    p.add_argument("--out", help="markdown path (default alongside the JSON)")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("embed", parents=[common], help="export a PCA embedding of spatial metrics")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--reference", choices=REFERENCES, default="digital")
    p.add_argument("--use-planes", action="store_true")
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--out", help="CSV path (default <dataset>/embedding.csv)")
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance checks at reduced size")
    p.set_defaults(handler=cmd_selftest)

    for p in sub.choices.values():
        p.set_defaults(options=p.options)
        for section, actions in p.options.items():
            parser.options.setdefault(section, {}).update(actions)
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
        config = _load_config(args.config, parser.options)
        args.jobs = _jobs(args, config)
        code = args.handler(args, config)
    except (ParameterError, DataError, DegenerateImageError) as exc:
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
