"""Layout rules: the package runs on the standard library alone, the
test oracles stay independent of it, every exported name and every
function the benchmark traces exists, and starting the CLI imports no
heavy standard-library module it does not use."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import k3pi1

PACKAGE = Path(k3pi1.__file__).parent
ORACLES = Path(__file__).parent / "oracles.py"
PERFBENCH_WORKER = Path(__file__).parent.parent / "perfbench" / "worker.py"


def _imported_modules(path):
    """(relative level, module) for every import statement in a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.level, node.module or ""))
    return found


def test_package_imports_only_stdlib_and_itself():
    for path in sorted(PACKAGE.glob("*.py")):
        for level, module in _imported_modules(path):
            top = module.split(".")[0]
            assert level > 0 or top == "k3pi1" or top in sys.stdlib_module_names, (
                path.name, module,
            )


def test_oracles_import_nothing_from_the_package():
    for level, module in _imported_modules(ORACLES):
        assert level == 0 and module.split(".")[0] != "k3pi1", module


def test_exported_names_resolve():
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"k3pi1.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (path.stem, name)
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert exports
    for name in exports:
        assert hasattr(k3pi1, name), name


def test_perfbench_hooks_resolve():
    # a traced benchmark run wraps each (module, attr) of HOOKS; read it
    # with ast, since importing the worker brings in perfbench's own
    # `oracles` module under the name the test oracles use
    tree = ast.parse(PERFBENCH_WORKER.read_text(), str(PERFBENCH_WORKER))
    modules = {
        alias.asname or alias.name: alias.name
        for node in tree.body
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    (hooks,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets)
    ]
    assert hooks.elts
    for hook in hooks.elts:
        module = modules[hook.elts[0].id]
        attr = ast.literal_eval(hook.elts[1])
        assert module.startswith("k3pi1."), module
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # `python -S` leaves out site and the .pth files that may import
    # typing themselves; what is left is the import cost of the package
    # and its standard-library dependencies on every CLI start
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import k3pi1.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]", out.stdout + out.stderr


def test_package_stays_within_its_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py"))
    assert lines <= 2810, lines


def test_cli_import_builds_no_count_table():
    # the outcome counts are built on the first sweep, never at import, so
    # a CLI start that does not sweep pays nothing for them
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import k3pi1.cli; "
        "from k3pi1 import kodaira; "
        "print([f.cache_info().currsize for f in (kodaira._arc_counts, kodaira._outcome_counts)])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[0, 0]", out.stdout + out.stderr
