"""The error contract: every documented failure is a HalfjacError.

Read from the package sources with ast: no module under halfjac raises a
bare built-in ValueError or TypeError. Malformed input raises
errors.InvalidInput and an operand of the wrong type errors.InvalidType;
they subclass those built-ins, so callers that catch them keep working.
"""

import ast
from pathlib import Path

import pytest

import halfjac
from halfjac import errors

SOURCES = sorted(Path(halfjac.__file__).parent.glob("*.py"))


def _raised_names(tree):
    """The name of every class or instance a raise statement raises."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_bare_value_or_type_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bare = [name for name in _raised_names(tree)
            if name in ("ValueError", "TypeError")]
    assert bare == []


def test_invalid_input_is_a_halfjac_value_error():
    assert issubclass(errors.InvalidInput, errors.HalfjacError)
    assert issubclass(errors.InvalidInput, ValueError)


def test_invalid_type_is_a_halfjac_type_error():
    assert issubclass(errors.InvalidType, errors.HalfjacError)
    assert issubclass(errors.InvalidType, TypeError)


def test_shared_root_with_f_is_not_a_half():
    assert issubclass(errors.SharedRootWithF, errors.NotAHalf)
