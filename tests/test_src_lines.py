"""tools/src_lines.py: each line of a fixture module falls in the kind its
tokens give it, the kinds add up to the file, and bad paths exit 2."""

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
