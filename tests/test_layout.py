"""Layout rules: the package runs on the standard library alone, the
test oracles stay independent of it, every exported name and every
function the benchmark traces exists, the package root exports exactly
what the README example and the benchmark import from it, starting
the CLI imports no heavy standard-library module it does not use, only
the `lattice` commands load the lattice module, and the lattice module
diagonalises without `fractions`.  Every private
name one module of the package imports from another is listed, so a
new coupling is added on purpose."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import k3pi1

PACKAGE = Path(k3pi1.__file__).parent
ORACLES = Path(__file__).parent / "oracles.py"
PERFBENCH_WORKER = Path(__file__).parent.parent / "perfbench" / "worker.py"
README = Path(__file__).parent.parent / "README.md"
FIXTURES = Path(__file__).parent / "fixtures"


def _readme_library_example():
    """The Python block of the README's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _root_exports():
    """The names of the package root's literal `__all__`, which it resolves
    from their modules on first use."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    (exports,) = [
        node.value
        for node in init.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    return set(ast.literal_eval(exports))


def _root_imports(source, name):
    """The names that a source text imports from the package root."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source, name))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "k3pi1"
        for alias in node.names
    }


def _fresh(script, *args):
    """The last output line of `script` run in a fresh `python -S` process
    (no site and no .pth files that may import modules themselves), with the
    package on its path and `sys` imported, from the fixtures directory."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import sys; sys.path.insert(0, sys.argv[1]); " + script,
         str(PACKAGE.parent), *args],
        capture_output=True, text=True, check=True, timeout=60, cwd=FIXTURES,
    )
    return out.stdout.splitlines()[-1]


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


def test_lattice_eliminates_without_fractions():
    # the diagonaliser works on integer leading minors; Fraction stays in
    # the test oracle
    modules = {module for _, module in _imported_modules(PACKAGE / "lattice.py")}
    assert "fractions" not in modules, modules


def test_oracles_import_nothing_from_the_package():
    for level, module in _imported_modules(ORACLES):
        assert level == 0 and module.split(".")[0] != "k3pi1", module


def test_exported_names_resolve():
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"k3pi1.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (path.stem, name)
    exports = _root_exports()
    assert exports
    for name in exports:
        assert hasattr(k3pi1, name), name


def test_readme_library_example_runs():
    exec(compile(_readme_library_example(), str(README), "exec"), {})


def test_perfbench_worker_imports_from_the_root_resolve():
    # read with ast, as in test_perfbench_hooks_resolve below
    names = _root_imports(PERFBENCH_WORKER.read_text(), str(PERFBENCH_WORKER))
    assert names
    for name in names:
        assert hasattr(k3pi1, name), name


def test_package_root_exports_what_its_callers_import():
    callers = _root_imports(_readme_library_example(), str(README))
    callers |= _root_imports(PERFBENCH_WORKER.read_text(), str(PERFBENCH_WORKER))
    assert _root_exports() == callers


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
    # what a fresh `python -S` loads is the import cost of the package and
    # its standard-library dependencies on every CLI start
    script = "import k3pi1.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    assert _fresh(script) == "[]"


def test_package_root_loads_its_modules_on_first_use():
    script = (
        "import k3pi1; loaded = sorted(m for m in sys.modules if m.startswith('k3pi1.')); "
        "from k3pi1 import analyze; print(loaded, 'k3pi1.lattice' in sys.modules)"
    )
    assert _fresh(script) == "[] False"
    with pytest.raises(AttributeError, match="^module 'k3pi1' has no attribute 'lattice_k3'$"):
        k3pi1.lattice_k3
    from k3pi1 import lattice, pi1

    # the name perfbench traces resolves to the lattice module's function
    assert pi1.smith_normal_form is lattice.smith_normal_form
    with pytest.raises(AttributeError, match="^module 'k3pi1.pi1' has no attribute 'signature'$"):
        pi1.signature


@pytest.mark.parametrize("argv, loads_lattice", [
    ("analyze kummer.json", False),
    ("analyze fixture_532.json --json", False),
    ("euler kummer.json", False),
    ("orbifold --signature 2,3,5", False),
    ("kodaira info II*", False),
    ("enumerate --euler-sum 12", False),
    ("pi1 quotient rep_four_istar0.json", False),
    ("lattice k3 --info", True),
])
def test_only_the_lattice_commands_load_the_lattice_module(argv, loads_lattice):
    script = "from k3pi1.cli import main; code = main(sys.argv[2:]); print(code, 'k3pi1.lattice' in sys.modules)"
    assert _fresh(script, *argv.split()) == f"0 {loads_lattice}"


def test_package_stays_within_its_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py"))
    assert lines <= 2723, lines


# (importer, source module, private name) for every private name that
# one module of the package imports from another
PRIVATE_IMPORTS = {
    ("cli", "lattice", "_inertia"),
    ("cli", "lattice", "_pivots"),
    ("cli", "surface", "_frac_str"),
    ("kodaira", "dynkin", "_int_text"),
    ("kodaira", "dynkin", "_multisets"),
    ("orbifold", "dynkin", "_int_text"),
    ("pi1", "dynkin", "_int_text"),
    ("surface", "dynkin", "_multisets"),
    ("surface", "kodaira", "_outcome_counts"),
}


def test_private_imports_between_modules_are_listed():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found |= {
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                }
    assert found == PRIVATE_IMPORTS


def test_cli_import_builds_no_count_table():
    # the outcome counts are built on the first sweep, never at import, so
    # a CLI start that does not sweep pays nothing for them
    script = (
        "import k3pi1.cli; from k3pi1 import kodaira, surface; "
        "print([f.cache_info().currsize for f in "
        "(kodaira._arc_counts, kodaira._outcome_counts, kodaira._validated, "
        "surface._checked_euler, surface._classified)])"
    )
    assert _fresh(script) == "[0, 0, 0, 0, 0]"
