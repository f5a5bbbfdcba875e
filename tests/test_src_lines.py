"""tools/src_lines.py: each line of a fixture module falls in the kind its
tokens give it, the kinds add up to the file, a fixture module's options are
named and counted, and bad paths exit 2."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
sl = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sl)

# code: 4, 9, 11, 12, 13, 16; docstring: 1, 2, 10; comment: 6, 14; blank: 3, 5, 7, 8, 15
FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment leaves the line code

# a comment line


def f(x):
    """A function docstring."""
    s = """a string that is
    not a docstring"""
    return (x, os.sep,
            # a comment inside brackets

            s)
'''

# options: f's y and z; Cfg's fields b and a and Cfg.m's k; Plain.m's k and j.
# Not: inner (nested), _g and _Hidden (private), Cfg's _c, d (not annotated)
# and e (a ClassVar), and Plain's p (not a dataclass)
OPTIONS_FIXTURE = '''import dataclasses
from dataclasses import dataclass


def f(x, y=1, *args, z=2, w, **kwargs):
    def inner(q=3):
        return q
    return inner


def _g(a=1):
    return a


@dataclass(frozen=True)
class Cfg:
    b: float
    a: int = 1
    _c: int = 0
    d = 5
    e: "ClassVar[int]" = 3

    def m(self, k=None):
        return k


@dataclasses.dataclass
class _Hidden:
    h: int = 0

    def m(self, k=1):
        return k


class Plain:
    p: int = 0

    def m(self, k=1, j=2):
        return k + j
'''


def test_fixture_lines_by_kind(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert sl.file_counts(path) == {"code": 6, "docstring": 3, "comment": 2, "blank": 5,
                                    "total": 16}


def test_cli_prints_strict_json_totals(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    for name in ("a.py", "b.py"):
        (tmp_path / "pkg" / name).write_text(FIXTURE)
    assert sl.main([str(tmp_path / "pkg")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {k: out[k] for k in ("code", "docstring", "comment", "blank", "total")} == {
        "code": 12, "docstring": 6, "comment": 4, "blank": 10, "total": 32}
    assert sorted(out["files"]) == ["pkg/a.py", "pkg/b.py"]


def test_fixture_options(tmp_path, capsys):
    path = tmp_path / "options.py"
    path.write_text(OPTIONS_FIXTURE)
    assert sl.option_names(path) == ["f.y", "f.z", "Cfg.b", "Cfg.a", "Cfg.m.k",
                                     "Plain.m.k", "Plain.m.j"]
    assert sl.file_options(path) == 7
    assert sl.main([str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["options"] == out["files"]["options.py"]["options"] == 7
    # a file that tokenizes but does not parse
    path.write_text("x = = 1\n")
    assert sl.main([str(path)]) == 2
    assert capsys.readouterr().err.startswith("src_lines: ")


def test_fixture_parameters(tmp_path):
    # every parameter of the options' functions, a default or not, and its
    # annotation; *args and **kwargs are none
    path = tmp_path / "options.py"
    path.write_text(OPTIONS_FIXTURE)
    params = sl.parameters(path)
    assert [(name, option) for name, _, option in params] == [
        ("f.x", False), ("f.y", True), ("f.z", True), ("f.w", False), ("Cfg.b", True),
        ("Cfg.a", True), ("Cfg.m.self", False), ("Cfg.m.k", True), ("Plain.m.self", False),
        ("Plain.m.k", True), ("Plain.m.j", True)]
    assert [annotation for _, annotation, _ in params][4:6] == ["float", "int"]
    assert {annotation for _, annotation, _ in params[:4] + params[6:]} == {None}


def test_kinds_add_up_to_every_line_of_the_package():
    package = ROOT / "src" / "slicemix"
    out = sl.tree_counts([package])
    n_lines = sum(len(p.read_bytes().splitlines()) for p in package.rglob("*.py"))
    assert sum(out[k] for k in sl.KINDS) == out["total"] == n_lines


def test_bad_paths_exit_2_with_one_line(tmp_path, capsys):
    assert sl.main([str(tmp_path / "missing")]) == 2
    bad = tmp_path / "bad.py"
    bad.write_text("def f(:\n    (\n")
    assert sl.main([str(bad)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2 and all(line.startswith("src_lines: ") for line in err)
