"""Import hygiene of the package modules, read from their source with ast.

Every module under halfjac except __init__.py uses each name it imports,
and takes no underscore name from another halfjac module: a helper that
two modules need is public in one of them.
"""

import ast
from pathlib import Path

import pytest

import halfjac

MODULES = sorted(p for p in Path(halfjac.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imports(tree):
    """(bound name, imported name, from-module or None, level) per alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0], alias.name,
                       None, 0)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield (alias.asname or alias.name, alias.name, node.module,
                       node.level)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [bound for bound, _, _, _ in _imports(tree) if bound not in used]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_names_from_other_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [name for _, name, module, level in _imports(tree)
               if (level > 0 or (module or "").startswith("halfjac"))
               and name.startswith("_")]
    assert private == []
