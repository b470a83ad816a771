import ast
import sys
from pathlib import Path

import digraphon

MODULES = sorted(p for p in Path(digraphon.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(name, line) for every name an import statement binds, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name read in the module, also inside quoted annotations like "StepDigraphon"."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg | ast.FunctionDef | ast.AnnAssign):
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


def test_no_module_imports_a_name_it_never_uses():
    assert len(MODULES) >= 7
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = used_names(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == []


def imported_modules(tree):
    """(top-level module, line) for every absolute import, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
            yield node.module.split(".")[0], node.lineno


def test_every_import_is_stdlib_numpy_scipy_or_the_package():
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "digraphon"}
    modules = sorted(Path(digraphon.__file__).parent.glob("*.py"))
    foreign = [f"{path.name}:{line} {name}" for path in modules
               for name, line in imported_modules(ast.parse(path.read_text()))
               if name not in allowed]
    assert len(modules) >= 8
    assert foreign == []
