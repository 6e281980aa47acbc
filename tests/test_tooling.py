"""The benchmark harness's view of the package.

perfbench/tracing.py wraps package functions and methods by name (its
TARGETS); a renamed or removed target breaks the benchmark's traced mode
(`perfbench/run.py --trace 1`), which the tier-1 suite does not run. The
module is loaded by path, as the harness itself loads it, and left unedited.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_trace_targets_exist_in_the_package():
    tracing = _tracing()
    assert tracing.TARGETS
    missing = []
    for module_name, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        owner, _, name = attr.rpartition(".")
        # methods are wrapped through the class __dict__, functions by module attribute
        scope = vars(getattr(module, owner)) if owner else vars(module)
        if name not in scope:
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"perfbench/tracing.py TARGETS not in the package: {missing}"
    with tracing.Tracer("guard"):  # installs and removes every wrapper
        pass
