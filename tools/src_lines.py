"""Count a Python source tree's lines by kind: code, docstring, comment, blank.

    python3 tools/src_lines.py              # src/slicemix
    python3 tools/src_lines.py PATH ...     # .py files, or directories of them

Prints one strict-JSON object: the totals over every file, then each file's
counts. Each line counts as one kind, read off `tokenize`: code if any token
on it is code, else docstring if a docstring spans it, else comment if it
holds a comment, else blank. A docstring is any string literal that stands
alone as a statement. The split shows where a change in the total comes
from: fewer code lines, or fewer docstring, comment or blank lines.

`options` counts what a caller can set, read off `ast`: each parameter with
a default of a public function or method, plus each public field of a
public dataclass. A name is public when neither it nor a class around it
starts with `_`; functions nested in functions are not counted.
`option_names` lists them, each by its qualified name (`func.param`,
`Class.method.param` or `Class.field`); `parameters` lists every parameter
of those functions, a default or not, with its annotation. A path that does
not exist or does not parse exits 2 with a one-line message.
"""

from __future__ import annotations

import ast
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")   # a line takes the first kind it holds
# tokens that can come just before a statement, and tokens that are not code
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
_LAYOUT = _STATEMENT_START | {tokenize.NL, tokenize.COMMENT, tokenize.ENDMARKER}


def file_counts(path: Path) -> dict[str, int]:
    """The line counts of one source file, by kind, plus their total."""
    with open(path, "rb") as f:
        n_lines = len(f.read().splitlines())
        f.seek(0)
        tokens = list(tokenize.tokenize(f.readline))
    kind = ["blank"] * (n_lines + 1)   # 1-based

    def mark(tok, k):
        for line in range(tok.start[0], min(tok.end[0], n_lines) + 1):
            if KINDS.index(k) < KINDS.index(kind[line]):
                kind[line] = k

    # a docstring is a string between two statement breaks, skipping the
    # comments and blank lines around it
    sig = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    for i, tok in enumerate(sig):
        if tok.type == tokenize.STRING and sig[i - 1].type in _STATEMENT_START and (
                sig[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            mark(tok, "docstring")
        elif tok.type not in _LAYOUT:
            mark(tok, "code")
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            mark(tok, "comment")
    return {**{k: kind[1:].count(k) for k in KINDS}, "total": n_lines}


def file_options(path: Path) -> int:
    """How many options one source file offers (see the module docstring)."""
    return len(option_names(path))


def option_names(path: Path) -> list[str]:
    """The options one source file offers, by qualified name, in source order."""
    return [name for name, _, option in parameters(path) if option]


def parameters(path: Path) -> list[tuple[str, str | None, bool]]:
    """Every parameter of one source file's public functions and methods, and
    every field of its public dataclasses, in source order: the qualified
    name, the annotation as source text (None if there is none), and whether
    it is an option."""
    return _parameters(ast.parse(path.read_bytes(), str(path)).body, "")


def _parameters(body, prefix: str) -> list[tuple[str, str | None, bool]]:
    found = []
    for node in body:
        if getattr(node, "name", "_").startswith("_"):   # private, or not a definition
            continue
        at = f"{prefix}{node.name}."
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.posonlyargs + a.args
            first_default = len(positional) - len(a.defaults)
            found += [(at + p.arg, _source(p.annotation), i >= first_default)
                      for i, p in enumerate(positional)]
            found += [(at + p.arg, _source(p.annotation), d is not None)
                      for p, d in zip(a.kwonlyargs, a.kw_defaults)]
        elif isinstance(node, ast.ClassDef):
            if any(_names_dataclass(d) for d in node.decorator_list):
                found += [(at + f.target.id, _source(f.annotation), True) for f in node.body
                          if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                          and not f.target.id.startswith("_")
                          and "ClassVar" not in ast.unparse(f.annotation)]
            found += _parameters(node.body, at)
    return found


def _source(node) -> str | None:
    return None if node is None else ast.unparse(node)


def _names_dataclass(decorator) -> bool:
    """`@dataclass`, `@dataclasses.dataclass`, or either called with arguments."""
    d = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(d, "id", getattr(d, "attr", None)) == "dataclass"


def tree_counts(paths) -> dict:
    """Totals over every .py file under `paths`, and each file's counts."""
    files = {}
    for root in map(Path, paths):
        if not root.exists():
            raise OSError(f"{root}: no such file or directory")
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            files[str(path.relative_to(root.parent))] = {**file_counts(path),
                                                         "options": file_options(path)}
    totals = {k: sum(c[k] for c in files.values()) for k in (*KINDS, "total", "options")}
    return {**totals, "files": files}


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or [str(ROOT / "src" / "slicemix")]
    try:
        out = tree_counts(paths)
    except (OSError, SyntaxError, tokenize.TokenError, UnicodeDecodeError) as e:
        print(f"src_lines: {e}".splitlines()[0], file=sys.stderr)
        return 2
    print(json.dumps(out, indent=1, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
