"""The benchmark harness's view of the package.

perfbench/tracing.py wraps package functions and methods by name (its
TARGETS); a renamed or removed target breaks the benchmark's traced mode
(`perfbench/run.py --trace 1`), which the tier-1 suite does not run. The
module is loaded by path, as the harness itself loads it, and left unedited.

The package's own sources are also scanned with `ast` for imports that no
code reads.
"""

import ast
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


SRC = Path(__file__).resolve().parents[1] / "src"


def _unused_imports(path: Path) -> list:
    """Names a module imports and never reads (__future__ imports excepted)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # a quoted annotation ("ObservedCode") reads the names inside the string
        hint = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(hint) if hint is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [f"{path.relative_to(SRC)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_src_has_no_unused_import():
    unused = [entry for path in sorted(SRC.rglob("*.py")) for entry in _unused_imports(path)]
    assert not unused, f"imported and never used: {unused}"
