"""Every name a module exports exists, so deleting a function without its
`__all__` entry fails here instead of at a user's import; every exported
name has a caller outside the unit tests, so a surface only tests use fails
here instead of staying to be maintained; so does every option, unless KEPT
names the reason it stays; and so does every dataclass field that no caller
reads."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import slicemix

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slicemix"
# the library itself, the benchmark, the demos and the acceptance criteria
CALLERS = [*sorted(PACKAGE.glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
# options no caller sets, each with the reason it stays
KEPT = {
    "cli.main.argv": "the entry point's test seam: tests run the CLI in-process through it",
}

_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


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


def _setters(paths):
    """What the code at `paths` does that can set an option: per callee name,
    each call's positional count before any `*`, whether it passes `*` or
    `**`, and its keywords; and the attribute names it stores to."""
    calls, stored = {}, set()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee == "cls" and cls is not None:   # a classmethod's own constructor
                callee = cls
            star = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(callee, []).append(
                (star[0] if star else len(node.args), bool(star) or None in keywords, keywords))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            stored.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), None)
    return calls, stored


def _options() -> list[str]:
    """Every option tools/src_lines.py counts, as module.qualified_name."""
    return [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in src_lines.option_names(path)]


def _declarers(option: str):
    """The object that declares the option (its function, or its dataclass)
    and the object that holds that one."""
    module, *path, _ = option.split(".")
    owner, obj = None, importlib.import_module(f"slicemix.{module}")
    for part in path:
        owner, obj = obj, getattr(obj, part)
    return owner, obj


def _is_set(option: str, setters) -> bool:
    """Whether a call passes the option by keyword, by position or through
    `*` or `**`, or, for a dataclass field, whether an attribute store sets
    it after construction."""
    calls, stored = setters
    *_, callee, name = option.split(".")
    owner, obj = _declarers(option)
    if dataclasses.is_dataclass(obj):
        if name in stored:
            return True
        params = [f.name for f in dataclasses.fields(obj) if f.init]
    else:
        raw = inspect.getattr_static(owner, callee) if inspect.isclass(owner) else obj
        params = list(inspect.signature(getattr(raw, "__func__", raw)).parameters.values())
        if inspect.isclass(owner) and not isinstance(raw, staticmethod):
            params = params[1:]   # a method's self or cls comes from the call's object
        params = [p.name for p in params if p.kind != p.KEYWORD_ONLY]
    at = params.index(name) if name in params else len(params)
    return any(name in keywords or star or at < n_args
               for n_args, star, keywords in calls.get(callee, []))


@pytest.fixture(scope="module")
def setters():
    return _setters(CALLERS)


def test_every_option_has_a_caller_outside_the_unit_tests(setters):
    unset = [o for o in _options() if o not in KEPT and not _is_set(o, setters)]
    assert unset == []


def test_every_kept_option_exists_and_has_no_caller(setters):
    options = _options()
    stale = [o for o in KEPT if o not in options or _is_set(o, setters)]
    assert stale == []


@pytest.mark.parametrize("source, option, sets", [
    ("default_schedule('e2e', lr=1.0)", "pipeline.default_schedule.lr", True),
    ("pl.default_schedule('e2e', 0, 240, 1.0)", "pipeline.default_schedule.lr", True),
    ("default_schedule('e2e', *rest)", "pipeline.default_schedule.lr", True),
    ("default_schedule('e2e', **kwargs)", "pipeline.default_schedule.lr", True),
    ("default_schedule('e2e', 0, 240)", "pipeline.default_schedule.lr", False),
    ("class BilinearState:\n    def f(cls):\n        return cls(1, 2, 3, 4, 5)\n",
     "bilinear.BilinearState.eta", True),
    ("def f(cls):\n    return cls(1, 2, 3, 4, 5)\n", "bilinear.BilinearState.eta", False),
    ("BilinearState(1, 2, 3, 4)", "bilinear.BilinearState.eta", False),
    ("sample.mlp, sample.qformer = m, q", "adapters.GateSample.qformer", True),
    ("qformer = q", "adapters.GateSample.qformer", False),
], ids=["keyword", "position", "star", "double-star", "too-few", "own-cls", "other-cls",
        "short", "store", "bare-name"])
def test_what_sets_an_option(source, option, sets, tmp_path):
    path = tmp_path / "caller.py"
    path.write_text(source)
    assert _is_set(option, _setters([path])) == sets


def _readers(paths):
    """The attribute names the code at `paths` loads: per class, those a
    `self.x` inside that class's own body loads; and under None, those any
    other receiver loads."""
    loads = {None: set()}

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            own = cls is not None and getattr(node.value, "id", None) == "self"
            loads.setdefault(cls if own else None, set()).add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), None)
    return loads


def _is_read(field: str, readers) -> bool:
    """Whether a caller loads the field: through any receiver but `self`, or
    through `self` inside its own class's body."""
    *_, cls, name = field.split(".")
    return name in readers[None] or name in readers.get(cls, set())


def test_every_field_has_a_reader_outside_the_unit_tests():
    readers = _readers(CALLERS)
    unread = [o for o in _options()
              if dataclasses.is_dataclass(_declarers(o)[1]) and not _is_read(o, readers)]
    assert unread == []


@pytest.mark.parametrize("source, field, reads", [
    ("class BilinearState:\n    def f(self):\n        return self.tau\n",
     "bilinear.BilinearState.tau", True),
    ("class Trace:\n    def f(self):\n        return self.tau\n",
     "bilinear.BilinearState.tau", False),
    ("class Trace:\n    def f(self):\n        return self.state.tau\n",
     "bilinear.BilinearState.tau", True),
    ("def f(state):\n    return state.nu\n", "bilinear.BilinearState.tau", False),
    ("tau = state.tau", "bilinear.BilinearState.tau", True),
    ("state.tau = tau", "bilinear.BilinearState.tau", False),
    ("tau = 1.0\nprint(tau)", "bilinear.BilinearState.tau", False),
], ids=["own-self", "other-class-self", "other-receiver", "other-field", "load", "store",
        "bare-name"])
def test_what_reads_a_field(source, field, reads, tmp_path):
    path = tmp_path / "caller.py"
    path.write_text(source)
    assert _is_read(field, _readers([path])) == reads
