import ast
import importlib
import pathlib
import pkgutil

import pytest

import neighbornorm

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(neighbornorm.__path__))
BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
# Exported for readers outside src/ that the benchmark does not cover: the checked per-layer kernel the
# tests compare the network against, and the per-batch predictions acceptance criterion 8 reads.
OUTSIDE_READERS = {"normalization.apply_normalizer", "harness.predictions_at"}


def benchmark_package_names() -> set:
    """Every `<module>.<name>` the benchmark scripts read from the package:
    attribute accesses on a module bound by `from neighbornorm import ...`,
    and names bound by `from neighbornorm.<module> import ...`."""
    found = set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "neighbornorm":
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").startswith("neighbornorm."):
                found.update(f"{node.module.removeprefix('neighbornorm.')}.{alias.name}" for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                found.add(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_package_exports_resolve():
    missing = [name for name in neighbornorm.__all__ if not hasattr(neighbornorm, name)]
    assert not missing, f"neighbornorm.__all__ names that do not resolve: {missing}"


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(f"neighbornorm.{module_name}")
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"neighbornorm.{module_name}.__all__ names that do not resolve: {missing}"
    assert len(set(exported)) == len(exported), f"neighbornorm.{module_name}.__all__ repeats a name"


def test_benchmark_package_names_resolve():
    names = benchmark_package_names()
    assert {"grouping.first_neighbor_partition", "model.conv2d_3x3", "harness.write_metrics"} <= names
    missing = []
    for dotted in sorted(names):
        module_name, _, attribute = dotted.rpartition(".")
        if not hasattr(importlib.import_module(f"neighbornorm.{module_name}"), attribute):
            missing.append(dotted)
    assert not missing, f"names the benchmark reads from neighbornorm that do not resolve: {missing}"


def src_reads() -> set:
    """(module, enclosing top-level def or class, name) for every `Name` load and attribute access in src/.
    The `__all__` lists hold strings and imports hold aliases, so neither counts as a read."""
    reads = set()
    for path in sorted(pathlib.Path(neighbornorm.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((path.stem, getattr(top, "name", None), node.id))
                elif isinstance(node, ast.Attribute):
                    reads.add((path.stem, getattr(top, "name", None), node.attr))
    return reads


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_has_a_reader(module_name):
    # an export that src/ reads only inside its own def, and the benchmark not at all, is a test-only helper
    module = importlib.import_module(f"neighbornorm.{module_name}")
    outside = benchmark_package_names() | OUTSIDE_READERS
    read = {name for where, owner, name in src_reads() if (where, owner) != (module_name, name)}
    unread = [name for name in getattr(module, "__all__", []) if name not in read and f"{module_name}.{name}" not in outside]
    assert not unread, f"neighbornorm.{module_name}.__all__ names only tests read: {unread}"
