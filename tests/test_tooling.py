"""The benchmark harness's view of the package.

perfbench/tracing.py wraps package functions and methods by name (its
TARGETS); a renamed or removed target breaks the benchmark's traced mode
(`perfbench/run.py --trace 1`), which the tier-1 suite does not run. The
module is loaded by path, as the harness itself loads it, and left unedited.

The package's own sources are also scanned with `ast` for imports that no
code reads, and for top-level functions and classes, and methods of top-level
classes, that no code in the package refers to.
"""

import ast
from collections import Counter
import importlib
import importlib.util
from pathlib import Path

from cdp_authkit import nn
from cdp_authkit.deepfeat import AeConfig
from cdp_authkit.experiment import run_experiment

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


# Top-level names kept without a caller in src/: the loaders the README keeps
# as library API, and UpsampleNearest, which perfbench/tracing.py wraps by name.
UNREFERENCED_OK = {
    ("ocsvm", "load_model"),
    ("supervised", "load_classifier"),
    ("nn", "UpsampleNearest"),
}


def _references(node) -> Counter:
    """Names read (Name), attributes read (Attribute) and names imported under node."""
    refs = Counter()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            refs[part.id] += 1
        elif isinstance(part, ast.Attribute):
            refs[part.attr] += 1
        elif isinstance(part, ast.ImportFrom):
            refs.update(alias.name for alias in part.names)
    return refs


def _definitions(tree):
    """(qualified name, node) of each top-level def or class, and of each method
    of a top-level class but its dunder methods."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def _unreferenced_definitions(src: Path) -> list:
    """(module, qualified name) of each definition `_definitions` lists that is
    referred to nowhere in src but inside its own body; a method counts as
    referred to wherever an attribute of its name is read."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(src.rglob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    return [(path.stem, name)
            for path, tree in trees.items() for name, node in _definitions(tree)
            if everywhere[node.name] == _references(node)[node.name]]


def test_src_defines_no_unreferenced_function_or_class():
    dead = [entry for entry in _unreferenced_definitions(SRC) if entry not in UNREFERENCED_OK]
    assert not dead, f"defined in src/ and referred to nowhere there: {dead}"
    # the allowlist holds only names that exist and still need it
    assert sorted(_unreferenced_definitions(SRC)) == sorted(UNREFERENCED_OK)


def test_traced_deep_run_writes_the_same_report_and_records_every_conv_forward(
        small_dataset, tmp_path):
    """A Tracer-wrapped deep-scenario-3 run writes report.json byte for byte as an
    untraced one, and every Conv2d.forward the layer chains run is a span: the
    chains call it, whatever they fuse into it."""
    chained = []
    run_chain = nn._run_chain

    def counting(layers, x, keep_cache):  # the Conv2d layers each chain pass runs
        chained.append(sum(isinstance(layer, nn.Conv2d) for layer in layers))
        return run_chain(layers, x, keep_cache)

    def run(name):
        run_experiment(small_dataset, "deep-scenario-3", runs=1, seed=2, out_dir=tmp_path / name,
                       ae_config=AeConfig(epochs=1), jobs=1)
        return (tmp_path / name / "report.json").read_bytes()

    plain = run("plain")
    nn._run_chain = counting
    try:
        with _tracing().Tracer("guard") as tracer:
            traced = run("traced")
    finally:
        nn._run_chain = run_chain
    assert traced == plain
    forwards = [span for span in tracer.spans if span[0] == "nn.conv.fwd"]
    assert sum(chained) > 0 and len(forwards) == sum(chained)
    assert tracer.counts["conv_flop"] > 0


def test_traced_classifier_run_writes_the_same_report_and_records_every_dense_pass(
        small_dataset, tmp_path):
    """A Tracer-wrapped supervised-5class run writes report.json byte for byte as an
    untraced one, and the classifier runs through Dense: each SGD step is a
    forward and a backward of both Dense layers, each predict a forward of both."""

    def run(name):
        run_experiment(small_dataset, "supervised-5class", runs=1, seed=2,
                       out_dir=tmp_path / name, jobs=1)
        return (tmp_path / name / "report.json").read_bytes()

    plain = run("plain")
    with _tracing().Tracer("guard") as tracer:
        traced = run("traced")
    assert traced == plain
    names = Counter(span[0] for span in tracer.spans)
    steps, predicts = tracer.counts["sgd_steps"], names["supervised.predict"]
    assert steps > 0 and predicts > 0
    assert names["nn.dense"] == 4 * steps + 2 * predicts
