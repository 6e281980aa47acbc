"""One workload in one fresh process: set up, run timed passes, check outputs.

Started by run.py, which passes the monotonic time at which it spawned this
process, so set-up time runs from a fresh process to the first timed call.
Prints one JSON object on its last stdout line.

A pass is one synthesis (when timed) plus one evaluation: load_dataset,
run_experiment for each preset with jobs=1, and the report files written.
Untraced, passes repeat while the next one is expected to end within the
measuring budget. Traced, each step is an untraced pass followed by a
traced one, and the difference of their evaluation times is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from cdp_authkit import experiment  # noqa: E402
from cdp_authkit.deepfeat import AeConfig  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, dataset_kwargs, evals  # noqa: E402

JOBS = 1


class StageFailed(Exception):
    pass


class Worker:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.config = experiment.DatasetConfig(
            **dataset_kwargs(self.spec, args.seed, args.smoke)
        )
        self.work = Path(args.work)
        self.attempted = 0
        self.failures: list = []

    def stage(self, fn, *args, **kwargs):
        """Call one timed stage; returns (result, seconds)."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{fn.__name__}: {exc!r}")
            raise StageFailed from exc
        return result, time.perf_counter() - t

    def record(self, results: list) -> None:
        for name, ok, detail in results:
            self.attempted += 1
            if not ok:
                self.failures.append(f"{name}: {detail}")

    def synthesize(self, out: Path) -> float:
        _, seconds = self.stage(experiment.synthesize_dataset, self.config, out, jobs=JOBS)
        return seconds

    def run_pass(self, data_dir: Path, tag: str, tracer=None) -> dict:
        """One timed pass; outputs under work/tag. Returns timings and data."""
        out = self.work / tag
        timed = {}
        if self.spec.synth_timed:
            data_dir = out / "data"
            with _maybe_span(tracer, "stage.synth"):
                timed["synth_s"] = self.synthesize(data_dir)
        report_dirs = {}
        with _maybe_span(tracer, "stage.eval"):
            t = time.perf_counter()
            data, _ = self.stage(experiment.load_dataset, data_dir)
            for preset, runs, ae in evals(self.spec, self.args.smoke):
                report_dirs[preset] = out / preset
                self.stage(
                    experiment.run_experiment,
                    data,
                    preset,
                    runs=runs,
                    seed=self.args.seed,
                    out_dir=report_dirs[preset],
                    ae_config=None if ae is None else AeConfig(**ae),
                    jobs=JOBS,
                )
            timed["eval_s"] = time.perf_counter() - t
        self.check_pass(data_dir, report_dirs)
        timed["data"] = data
        return timed

    def check_pass(self, data_dir: Path, report_dirs: dict) -> None:
        key = checks.digest_key(self.args.workload, self.args.smoke)
        digests = checks.output_digests(data_dir, report_dirs)
        self.record(checks.check_digests(key, self.args.seed, digests))
        for preset, directory in report_dirs.items():
            report = json.loads((directory / "report.json").read_text())
            self.record(checks.check_rates(preset, report))

    def run(self) -> dict:
        result: dict = {"synth_s": [], "eval_s": [], "traced": []}
        data_dir = self.work / "data"
        if not self.spec.synth_timed:
            result["synth_s"].append(self.synthesize(data_dir))
        result["setup_s"] = time.monotonic() - self.args.t0
        if self.args.setup_only:
            return result

        traced = result["traced"]
        budget = self.args.seconds
        start = time.perf_counter()
        step = 0
        while True:
            t = time.perf_counter()
            gc.collect()
            timed = self.run_pass(data_dir, f"pass{step}")
            result["synth_s"] += [timed["synth_s"]] if "synth_s" in timed else []
            result["eval_s"].append(timed["eval_s"])
            if self.spec.oracle_codes:
                self.record(
                    checks.check_oracles(timed["data"], self.spec.oracle_codes, self.args.seed)
                )
            del timed
            if self.args.trace:
                traced.append(self.traced_pass(data_dir, step))
            if self.spec.synth_timed:
                shutil.rmtree(self.work / f"pass{step}", ignore_errors=True)
            step += 1
            took = time.perf_counter() - t
            if time.perf_counter() - start + took > budget:
                break
        result["passes"] = step
        return result

    def traced_pass(self, data_dir: Path, step: int) -> dict:
        gc.collect()
        run_id = f"{self.args.workload}/seed{self.args.seed}/pass{step}"
        with tracing.Tracer(run_id) as tracer:
            timed = self.run_pass(data_dir, f"traced{step}", tracer)
        layers, wall = tracing.layer_metrics(tracer)
        if self.spec.synth_timed:
            shutil.rmtree(self.work / f"traced{step}", ignore_errors=True)
        return {
            "run_id": run_id,
            "layers": layers,
            "wall_s": wall,
            "eval_s": timed["eval_s"],
            "span_count": len(tracer.spans),
            "spans": tracer.spans,
        }


def _maybe_span(tracer, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "jobs": JOBS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans-out", help="write the traced spans to this JSON file")
    args = parser.parse_args(argv)

    worker = Worker(args)
    try:
        result = worker.run()
    except StageFailed:
        result = {}
    traced = result.get("traced", [])
    spans = [{"run_id": p["run_id"], "spans": p.pop("spans")} for p in traced]
    if args.spans_out and spans:
        Path(args.spans_out).write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "run_id"], "passes": spans})
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = worker.attempted
    result["failures"] = worker.failures
    result["machine"] = machine_facts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
