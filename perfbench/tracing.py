"""Span tracing of the cdp_authkit layers from outside the package.

A Tracer wraps the public functions and class methods listed in TARGETS.
Every call records a span [name, start, end, parent index, run id]; spans
stay in memory until the run ends. Wrappers are installed on every name a
caller looks up: module-level functions on the defining module and on each
module that imported them by name (experiment does `from .channel import
acquire`), methods on their class. Functions not listed here (private
helpers, small public helpers such as pearson or downsample_majority) are
not wrapped, so their time is the self time of the nearest wrapped caller.

Counts are recorded at the same boundaries. Convolution flops and im2col
buffer sizes are computed from the call shapes, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict


def _conv_fwd(tr, args, kwargs, result):
    layer, x = args[0], args[1]
    b, c, h, w = x.shape
    k, s, p = layer.k, layer.stride, layer.pad
    positions = ((h + 2 * p - k) // s + 1) * ((w + 2 * p - k) // s + 1)
    patch = c * k * k
    # forward GEMM: (B, oh*ow, C*k*k) @ (C*k*k, C_out)
    tr.counts["conv_flop"] += 2 * b * positions * patch * layer.out_ch
    tr.counts["im2col_bytes"] += b * positions * patch * x.itemsize


def _conv_bwd(tr, args, kwargs, result):
    layer, dout = args[0], args[1]
    b, o, oh, ow = dout.shape
    patch = layer.in_ch * layer.k * layer.k
    # weight-gradient GEMM plus input-gradient GEMM, each 2*B*oh*ow*C_out*C*k*k
    tr.counts["conv_flop"] += 2 * (2 * b * oh * ow * o * patch)


def _ae_steps(tr, args, kwargs, result):
    n = len(args[0])
    cfg = result.config
    tr.counts["ae_steps"] += cfg.epochs * -(-n // cfg.batch_size)


def _sgd_steps(tr, args, kwargs, result):
    n = len(args[0])
    cfg = result.config
    tr.counts["sgd_steps"] += cfg.epochs * -(-n // cfg.batch_size)


def _feature_key(tr, args, kwargs, result):
    probe, ref = args[0], args[1]
    planes = bool(args[2] if len(args) > 2 else kwargs.get("use_planes", False))
    if hasattr(ref, "template_id"):
        ref_key = (ref.template_id, ref.label)
    else:
        ref_key = ("template", ref.seed)
    tr.distinct_features.add((probe.template_id, probe.label, ref_key, planes))


def _pair_updates(tr, args, kwargs, result):
    tr.counts["pair_updates"] += result.iterations


def _runs(tr, args, kwargs, result):
    tr.counts["runs"] += result.runs


def _bytes_written(tr, args, kwargs, result):
    tr.counts["bytes_written"] += os.stat(args[0]).st_size


def _bytes_read(tr, args, kwargs, result):
    tr.counts["bytes_read"] += os.stat(args[0]).st_size


# (module, attribute, span name, count hook)
TARGETS = (
    ("nn", "Conv2d.forward", "nn.conv.fwd", _conv_fwd),
    ("nn", "Conv2d.backward", "nn.conv.bwd", _conv_bwd),
    ("nn", "im2col", "nn.im2col", None),
    ("nn", "col2im", "nn.col2im", None),
    ("nn", "Dense.forward", "nn.dense", None),
    ("nn", "Dense.backward", "nn.dense", None),
    ("nn", "Adam.step", "nn.adam", None),
    ("nn", "Relu.forward", "nn.pointwise", None),
    ("nn", "Relu.backward", "nn.pointwise", None),
    ("nn", "Sigmoid.forward", "nn.pointwise", None),
    ("nn", "Sigmoid.backward", "nn.pointwise", None),
    ("nn", "UpsampleNearest.forward", "nn.pointwise", None),
    ("nn", "UpsampleNearest.backward", "nn.pointwise", None),
    ("nn", "relu", "nn.pointwise", None),
    ("nn", "sigmoid", "nn.pointwise", None),
    ("nn", "softplus", "nn.pointwise", None),
    ("deepfeat", "train_ae", "deepfeat.train", _ae_steps),
    ("deepfeat", "extract_features_batch", "deepfeat.extract", None),
    ("deepfeat", "encode", "deepfeat.extract", None),
    ("deepfeat", "decode", "deepfeat.extract", None),
    ("metrics", "feature_vector", "metrics.feature_vector", _feature_key),
    ("metrics", "otsu_threshold", "metrics.otsu", None),
    ("ocsvm", "train_ocsvm", "ocsvm.train", _pair_updates),
    ("ocsvm", "decision_function", "ocsvm.decision", None),
    ("channel", "acquire", "channel.acquire", None),
    ("channel", "copy_attack", "channel.copy_attack", None),
    ("channel", "save_observed", "channel.io", None),
    ("channel", "load_observed", "channel.io", None),
    ("imageio", "write_pgm", "imageio.write", _bytes_written),
    ("imageio", "write_ppm", "imageio.write", _bytes_written),
    ("imageio", "write_json", "imageio.write", _bytes_written),
    ("imageio", "read_pgm", "imageio.read", _bytes_read),
    ("imageio", "read_ppm", "imageio.read", _bytes_read),
    ("imageio", "read_json", "imageio.read", _bytes_read),
    ("template", "generate_template", "template", None),
    ("template", "save_template", "template", None),
    ("template", "load_template", "template", None),
    ("supervised", "train_classifier", "supervised.train", _sgd_steps),
    ("supervised", "images_to_features", "supervised.features", None),
    ("supervised", "predict", "supervised.predict", None),
    ("decision", "calibrate", "decision", None),
    ("decision", "rule_one_metric", "decision", None),
    ("decision", "rule_two_metric", "decision", None),
    ("decision", "rule_ocsvm", "decision", None),
    ("experiment", "synthesize_dataset", "experiment.synthesize", None),
    ("experiment", "load_dataset", "experiment.load", None),
    ("experiment", "augment", "experiment.augment", None),
    ("experiment", "ae_training_arrays", "experiment.augment", None),
    ("experiment", "write_report_json", "experiment.report_write", None),
    ("experiment", "write_report_markdown", "experiment.report_write", None),
    ("experiment", "write_runs_csv", "experiment.report_write", None),
    ("experiment", "run_experiment", "experiment.run", _runs),
)

PACKAGE = "cdp_authkit"


class Tracer:
    """Spans and counts of one traced pass; wrappers are live inside `with`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.current = -1
        self.counts: Counter = Counter()
        self.distinct_features: set = set()
        self._restore: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span opened by the benchmark itself."""
        parent = self.current
        record = [name, 0.0, 0.0, parent, self.run_id]
        self.current = len(self.spans)
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.current = parent

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith(f"{PACKAGE}.")]
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrap(name, original, hook))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def __exit__(self, *exc):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)
        return False

    def _patch(self, owner, key, original, wrapped) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapped)

    def _wrap(self, name: str, fn, hook):
        spans = self.spans
        run_id = self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            record = [name, 0.0, 0.0, parent, run_id]
            self.current = len(spans)
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self.current = parent
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def totals(self) -> tuple:
        """Self seconds, total seconds and calls by span name; root-span wall."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: defaultdict = defaultdict(float)
        total: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        wall = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own[name] += (end - start) - child[i]
            total[name] += end - start
            calls[name] += 1
            if parent < 0:
                wall += end - start
        return own, total, calls, wall


# Per-layer metric table: name -> (unit, better, source). Sources: ("self", span
# names) sums self seconds, ("total", span names) sums whole span seconds,
# children included, ("calls", span names) counts spans, ("count", key,
# scale) reads a hook count, ("distinct",) is the feature-vector ratio.
PER_LAYER = {
    "nn.conv.fwd.calls": ("count", "lower", ("calls", ("nn.conv.fwd",))),
    "nn.conv.fwd.s": ("s", "lower", ("self", ("nn.conv.fwd",))),
    "nn.conv.bwd.s": ("s", "lower", ("self", ("nn.conv.bwd",))),
    "nn.im2col.s": ("s", "lower", ("self", ("nn.im2col",))),
    "nn.col2im.s": ("s", "lower", ("self", ("nn.col2im",))),
    "nn.conv.gflop": ("GFLOP", "lower", ("count", "conv_flop", 1e-9)),
    "nn.conv.im2col_mb": ("MB", "lower", ("count", "im2col_bytes", 1e-6)),
    "nn.dense.s": ("s", "lower", ("self", ("nn.dense",))),
    "nn.adam.s": ("s", "lower", ("self", ("nn.adam",))),
    "nn.pointwise.s": ("s", "lower", ("self", ("nn.pointwise",))),
    "deepfeat.train.s": ("s", "lower", ("self", ("deepfeat.train",))),
    "deepfeat.steps": ("count", "lower", ("count", "ae_steps", 1)),
    "deepfeat.extract.s": ("s", "lower", ("self", ("deepfeat.extract",))),
    "metrics.feature_vector.calls": ("count", "lower", ("calls", ("metrics.feature_vector",))),
    # total time: Otsu runs inside feature_vector and is reported on its own
    "metrics.feature_vector.s": ("s", "lower", ("total", ("metrics.feature_vector",))),
    "metrics.feature_vector.distinct_ratio": ("ratio", "higher", ("distinct",)),
    "metrics.otsu.calls": ("count", "lower", ("calls", ("metrics.otsu",))),
    "metrics.otsu.s": ("s", "lower", ("self", ("metrics.otsu",))),
    "ocsvm.train.calls": ("count", "lower", ("calls", ("ocsvm.train",))),
    "ocsvm.train.s": ("s", "lower", ("self", ("ocsvm.train",))),
    "ocsvm.pair_updates": ("count", "lower", ("count", "pair_updates", 1)),
    "ocsvm.decision.s": ("s", "lower", ("self", ("ocsvm.decision",))),
    "channel.acquire.calls": ("count", "lower", ("calls", ("channel.acquire",))),
    "channel.acquire.s": ("s", "lower", ("self", ("channel.acquire",))),
    "channel.copy_attack.s": ("s", "lower", ("self", ("channel.copy_attack",))),
    "channel.io.s": ("s", "lower", ("self", ("channel.io",))),
    "imageio.write.s": ("s", "lower", ("self", ("imageio.write",))),
    "imageio.read.s": ("s", "lower", ("self", ("imageio.read",))),
    "imageio.bytes_written": ("B", "lower", ("count", "bytes_written", 1)),
    "imageio.bytes_read": ("B", "lower", ("count", "bytes_read", 1)),
    "template.calls": ("count", "lower", ("calls", ("template",))),
    "template.s": ("s", "lower", ("self", ("template",))),
    "supervised.train.s": ("s", "lower", ("self", ("supervised.train",))),
    "supervised.sgd_steps": ("count", "lower", ("count", "sgd_steps", 1)),
    "supervised.features.s": ("s", "lower", ("self", ("supervised.features",))),
    "supervised.predict.s": ("s", "lower", ("self", ("supervised.predict",))),
    "decision.s": ("s", "lower", ("self", ("decision",))),
    "experiment.synthesize.s": ("s", "lower", ("self", ("experiment.synthesize",))),
    "experiment.load.s": ("s", "lower", ("self", ("experiment.load",))),
    "experiment.augment.s": ("s", "lower", ("self", ("experiment.augment",))),
    "experiment.report_write.s": ("s", "lower", ("self", ("experiment.report_write",))),
    "experiment.self.s": ("s", "lower", ("self", ("experiment.run",))),
    "experiment.runs": ("count", "higher", ("count", "runs", 1)),
}


def layer_metrics(tracer: Tracer) -> tuple:
    """(per-layer metric values of one traced pass, traced wall seconds)."""
    own, total, calls, wall = tracer.totals()
    out = {}
    for metric, (_, _, source) in PER_LAYER.items():
        kind = source[0]
        if kind == "self":
            out[metric] = sum(own.get(n, 0.0) for n in source[1])
        elif kind == "total":
            out[metric] = sum(total.get(n, 0.0) for n in source[1])
        elif kind == "calls":
            out[metric] = sum(calls.get(n, 0) for n in source[1])
        elif kind == "count":
            out[metric] = tracer.counts.get(source[1], 0) * source[2]
        else:  # distinct feature-vector inputs over calls: 1 means no repeats
            n = calls.get("metrics.feature_vector", 0)
            out[metric] = len(tracer.distinct_features) / n if n else 1.0
    return out, wall
