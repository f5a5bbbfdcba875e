"""Every name a module exports exists, so deleting a function without its
`__all__` entry fails here instead of at a user's import; and every exported
name has a caller outside the unit tests, so a surface only tests use fails
here instead of staying to be maintained."""

import ast
import importlib
from pathlib import Path

import pytest

import slicemix

ROOT = Path(__file__).resolve().parents[1]
# the library itself, the benchmark, the demos and the acceptance criteria
CALLERS = [*sorted((ROOT / "src" / "slicemix").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def _referenced(paths) -> set[str]:
    """The names the code at `paths` reads, as a name or an attribute; the
    strings of an `__all__` list, the names a definition binds and the
    names an import binds are not reads."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


@pytest.fixture(scope="module")
def referenced():
    return _referenced(CALLERS)


@pytest.mark.parametrize("module", slicemix.__all__)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"slicemix.{module}")
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", slicemix.__all__)
def test_every_exported_name_has_a_caller_outside_the_unit_tests(module, referenced):
    mod = importlib.import_module(f"slicemix.{module}")
    unused = [f"{module}.{name}" for name in mod.__all__ if name not in referenced]
    assert unused == []
