"""cdp-authkit benchmark: two pipeline workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deep-s3 --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every workload
    python3 perfbench/run.py --workload all --smoke --seconds 1

Each workload runs in fresh worker processes (worker.py) that drive the
public library API serially (jobs=1) with one BLAS thread.
With --trace 0 the end-to-end metrics are printed; set-up is repeated in
several fresh processes and its median reported, and eval_s is the median
of the untraced passes that fit in the budget. With --trace 1 the
per-layer metrics of a traced pass are printed, with the tracing overhead
against an untraced pass of the same run. Every metric line carries its
unit; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Outputs are checked (see checks.py) and any
failed check makes the exit code 1. Results and spans go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
# One BLAS thread: on a shared 2-vCPU machine two OpenBLAS threads made the
# deep pass slower (5.5 s against 4.5 s, epochs=1) and let a stall on either
# vCPU hold up every GEMM. It also fixes the outputs whose bits depend on
# the thread count (the ocsvm-spatial report at seed 0).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Reported by traced runs next to the per-layer metrics. synth_s is measured
# untraced; it is not an end-to-end metric because its run-to-run spread on
# a shared 2-vCPU machine (22 to 41 % over 10 runs) exceeds the largest bound.
TRACE = {
    "synth_s": ("s", "lower"),
    "trace.untraced_eval_s": ("s", "lower"),
    "trace.traced_eval_s": ("s", "lower"),
    "trace.eval_overhead_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}
UNITS = {k: v[0] for table in (END_TO_END, TRACE, PER_LAYER) for k, v in table.items()}


def spawn(args, workload: str, work: Path, deadline: float, setup_only: bool,
          spans_out: Path = None) -> dict:
    """Run worker.py in a fresh process; returns its JSON result."""
    work.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work),
    ]
    cmd += ["--smoke"] if args.smoke else []
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--spans-out", str(spans_out)] if spans_out else []
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)],
        cwd=ROOT, env={**os.environ, **BLAS_ENV}, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - t0, 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, workload: str) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    prefix = f"{workload}-seed{args.seed}{'-smoke' if args.smoke else ''}-trace{args.trace}"
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench-work"))
    workers, failures = [], []
    main = None
    try:
        samples = 1 if args.trace else SETUP_SAMPLES
        for i in range(samples - 1):
            workers.append(spawn(args, workload, work / f"setup{i}", deadline, True))
        main = spawn(args, workload, work / "main", deadline,
                     False, out_dir / f"{prefix}-spans.json")
        workers.append(main)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        failures.append(f"{workload}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(w.get("attempted", 0) for w in workers) + len(failures)
    failures += [f for w in workers for f in w.get("failures", [])]
    ok = main is not None and "eval_s" in main and not failures
    metrics = {}
    if ok and args.trace:
        metrics = traced_metrics(main)
    elif ok:
        metrics = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "eval_s": statistics.median(main["eval_s"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    result = {
        "correct": ok,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(f"# {workload}: seed {args.seed}, trace {args.trace}, "
          f"{'smoke' if args.smoke else 'full'} scale, {args.seconds:g} s budget")
    if main is not None:
        print(f"# machine {json.dumps(main['machine'], sort_keys=True)}")
        print(f"# samples: {len(workers)} set-ups, {main.get('passes', 0)} passes")
        if main.get("eval_s"):
            print(f"# untraced eval_s per pass: {', '.join(f'{t:.3f}' for t in main['eval_s'])}")
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload} failed_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for failure in failures:
        print(f"# FAILED {failure}", file=sys.stderr)
    (out_dir / f"{prefix}-result.json").write_text(
        json.dumps({**result, "machine": main and main["machine"], "failures": failures,
                    "raw": main}, indent=1)
    )
    return result


def traced_metrics(main: dict) -> dict:
    """Per-layer metrics: medians over the traced passes of the run."""
    passes = main["traced"]
    out = {name: statistics.median(p["layers"][name] for p in passes) for name in PER_LAYER}
    out["synth_s"] = statistics.median(main["synth_s"])
    untraced = statistics.median(main["eval_s"])
    traced = statistics.median(p["eval_s"] for p in passes)
    out["trace.untraced_eval_s"] = untraced
    out["trace.traced_eval_s"] = traced
    out["trace.eval_overhead_s"] = statistics.median(
        p["eval_s"] - u for p, u in zip(passes, main["eval_s"])
    )
    out["trace.wall_s"] = statistics.median(p["wall_s"] for p in passes)
    out["trace.spans"] = statistics.median(p["span_count"] for p in passes)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measuring budget per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale: few templates, 1 epoch, 1 split")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cdp_authkit" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a cdp-authkit checkout (no src/cdp_authkit); "
              "run from the repository root", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(args, name) for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
