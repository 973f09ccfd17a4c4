import ast
import importlib
import pathlib
import pkgutil

import pytest

import neighbornorm

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(neighbornorm.__path__))
BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


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
