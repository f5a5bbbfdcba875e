"""Every name a module exports exists, so deleting a function without its
`__all__` entry fails here instead of at a user's import; every exported
name has a caller outside the unit tests, so a surface only tests use fails
here instead of staying to be maintained; so does every option, unless KEPT
names the reason it stays; and so does every dataclass field that no caller
reads. Every public int, float, bool or tuple-of-int parameter is checked at
its door: a bad value raises a ValueError that names it, a bad count or
number in the words of numerics' checks alone, unless UNCHECKED names the
reason the door checks nothing."""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicemix
from slicemix import bilinear as bl
from slicemix import pipeline as pl
from slicemix.numerics import make_rng

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
    door = option.rsplit(".", 1)[0]
    return _door(door.rpartition(".")[0]), _door(door)


def _door(door: str):
    """The module, function, method or dataclass a name like `pipeline.train` names."""
    module, *path = door.split(".")
    obj = importlib.import_module(f"slicemix.{module}")
    for part in path:
        obj = getattr(obj, part)
    return obj


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


# bad values for a parameter of each kind, the kind read off its annotation
# or else its default
BAD = {"int": [2.5, "x", True], "float": [math.nan, math.inf, -math.inf, 10**400, "x", True],
       "bool": ["no", 1], "tuple[int, ...]": [96, "x", (2.5,), ()]}
# values past a door's upper bound, by door and parameter
PAST_BOUND = {**{f"pipeline.PipelineConfig.{name}": [pl.MAX_WIDTH + 1, 10**40]
                 for name in ("feat_dim", "model_dim", "out_dim", "local_queries")},
              "bilinear.check_instance.d": [4097], "bilinear.make_instance.d": [4097]}
# doors that check none of their numeric parameters, each with the reason
UNCHECKED = {
    "adapters.GateParams": "a record: _on_buffer builds one on every call, and init_gate "
                           "checks the flag",
    "adapters.gate_sample": "core; its checked door is gate_weights",
    "bilinear.BilinearInstance": "a record: make_instance builds it and checks c",
    "bilinear.BilinearState": "an iterate: gd_step checks its step size before stepping",
    "bilinear.BilinearState.from_vectors": "builds an iterate: gd_step checks its step size",
    "bilinear.Trace": "a record: run_experiment returns it",
    "bilinear.classify": "labels where a run landed, on run_experiment's own values",
    "bilinear.eigen_coords": "arithmetic, elementwise on floats or arrays",
    "bilinear.energy": "arithmetic, elementwise on floats or arrays",
    "bilinear.gd_coord_step": "one step of the coordinate recurrence, elementwise",
    "bilinear.loss_from_coords": "arithmetic, elementwise on floats or arrays",
    "bilinear.vector_from_coords": "arithmetic on floats or arrays",
    "numerics.check_count": "a check itself: its bounds are the library's constants",
    "numerics.check_finite": "a check itself: its bounds are the library's constants",
    "pipeline.PipelineParams": "a record: _on_buffer builds one on every call",
    "pipeline.RunReport": "a record: train returns it",
    "pipeline.Sample": "a record: make_toy_task builds it",
    "pipeline.ToyTask": "a record: make_toy_task builds it",
    "routing.RouterSelection": "a record: route_tokens returns it",
    "routing.image_selection": "core: reads an image's record off route_batch's cut; its "
                               "checked door is route_tokens",
    "routing.route_batch": "core; its checked door is route_tokens",
    "slicing.PartitionPlan": "a record: plan_partition builds it",
}


@functools.cache
def _task():
    return pl.make_toy_task(0, pl.PipelineConfig(n_train=1, n_eval=0, sizes=(96,)))


# a valid call of every other door with a numeric parameter, by its arguments' names
CALLS = {
    "adapters.init_gate": lambda: dict(rng=make_rng(0), d_in=4, noise_enabled=True),
    "adapters.init_mlp": lambda: dict(rng=make_rng(0), d_in=4, d_out=3),
    "adapters.init_qformer": lambda: dict(rng=make_rng(0), n_queries=2, d_in=4, d_out=3),
    "bilinear.check_instance": lambda: dict(d=4, c=0.5),
    # descent reads the step size, which alternating minimization ignores
    "bilinear.check_run": lambda: dict(method="gd", steps=2, eta=0.1),
    "bilinear.make_instance": lambda: dict(d=4, c=0.5, seed=0),
    "bilinear.run_experiment": lambda: dict(inst=bl.make_instance(d=4), method="gd", steps=2,
                                            eta=0.1, stop_tol=1e-6),
    "numerics.make_rng": lambda: dict(seed=0),
    "pipeline.PipelineConfig": dict,
    "pipeline.StageSchedule": lambda: dict(mode="e2e", steps=(2,), lr=0.1, seed=0),
    "pipeline.default_schedule": lambda: dict(mode="e2e", seed=0, total_steps=2, lr=0.1),
    "pipeline.init_params": lambda: dict(task=_task(), seed=0),
    "pipeline.make_toy_task": lambda: dict(seed=0, cfg=_task().cfg),
    "routing.RouterConfig": dict,
    "routing.select_prefix": lambda: dict(scores=[0.5, 0.5], gamma=0.5),
    "slicing.make_global_view": lambda: dict(pixels=np.ones((4, 4)), base=8),
    "slicing.plan_partition": lambda: dict(width=100, height=100, base=336, max_grid=6),
    "slicing.resize_bilinear": lambda: dict(pixels=np.ones((4, 4)), out_h=2, out_w=3),
}


def _numeric_parameters() -> list[tuple[str, str, str]]:
    """(door, parameter, kind) for every parameter tools/src_lines.py lists whose
    annotation, or else its default, is an int, a float, a bool or a tuple of ints."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, annotation, option in src_lines.parameters(path):
            door, name = f"{path.stem}.{qualified}".rsplit(".", 1)
            if annotation not in BAD and option:
                annotation = type(_default(door, name)).__name__
            if annotation in BAD:
                found.append((door, name, annotation))
    return found


def _default(door: str, name: str):
    """An option's default value, or a marker that is no number if a field has none."""
    obj = _door(door)
    if dataclasses.is_dataclass(obj):
        return {f.name: f.default for f in dataclasses.fields(obj)}[name]
    return inspect.signature(obj).parameters[name].default


NUMERIC = _numeric_parameters()
WALKED = [p for p in NUMERIC if p[0] not in UNCHECKED]


# the sentence numerics.check_count or check_finite makes of a count's or a
# number's name and bounds, after "<name> "
CHECK_RULE = (r"must (be (in \[\d+, \d+\]|non-negative|at least \d+) and an integer"
              r"|be (positive|non-negative) and finite|lie in [(\[]\S+, \S+[)\]])")


@pytest.mark.parametrize("door, name, kind", WALKED, ids=[f"{d}.{n}" for d, n, _ in WALKED])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_a_bad_number_fails_at_its_door_by_name(door, name, kind, data):
    # a count or a number fails in the checks' own words; a flag or a tuple
    # of sizes in any words that name it
    args = CALLS[door]()
    bad = BAD[kind] + PAST_BOUND.get(f"{door}.{name}", [])
    args[name] = data.draw(st.sampled_from(bad), label=name)
    with pytest.raises(ValueError) as err:
        _door(door)(**args)
    if kind in ("int", "float"):
        assert re.fullmatch(rf"{re.escape(name)} {CHECK_RULE}", str(err.value)), err.value
    else:
        assert re.search(rf"\b{re.escape(name)}\b", str(err.value)), err.value


def test_every_door_the_property_walks_has_a_valid_call():
    walked = {door for door, _, _ in WALKED}
    assert sorted(walked ^ set(CALLS)) == []
    for door, args in CALLS.items():
        _door(door)(**args())


def test_every_unchecked_door_exists_and_has_a_reason():
    doors = {f"{path.stem}.{qualified}".rsplit(".", 1)[0] for path in PACKAGE.glob("*.py")
             for qualified, _, _ in src_lines.parameters(path)}
    assert [door for door, reason in UNCHECKED.items() if door not in doors or not reason] == []
