"""Every name perfbench imports from opasim resolves, so no change to the
public surface can remove one of them unnoticed."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def opasim_imports(tree):
    """(module, name or None) of each import from opasim or one of its
    modules in a syntax tree, and in each string of it that parses as code
    with an import, such as the command of a child process."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "opasim":
            found.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update((alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "opasim")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "import" in node.value:
            try:
                found |= opasim_imports(ast.parse(node.value))
            except SyntaxError:
                pass
    return found


def test_perfbench_imports_resolve():
    imports = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        imports |= opasim_imports(ast.parse(path.read_text(), str(path)))
    assert {("opasim", "fit_pump_sweep"), ("opasim.cli", "main"), ("opasim", None)} <= imports
    missing = []
    for module, name in sorted(imports, key=str):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{module}.{name}")
    assert not missing, missing
