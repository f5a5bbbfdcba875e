"""Command-line front end.

Subcommands: `plan` (partition planning), `route` (token selection on matrix
fixtures), `bilinear` (one factorization trace), `sweep` (a grid of
factorization runs), and `train` (toy training runs). stdout carries
strict JSON only, with non-finite numbers as null; human diagnostics go to
stderr. Exit codes: 0 success; 2 any failure the command can name (bad
arguments, config, matrix fixtures or SLIME_KIT_SEED, an unwritable output
path, an allocation the machine refuses), as one `<command>: <reason>`
stderr line; 3 a run was flagged as diverged. A config asking for memory
the kernel grants but cannot back may still meet the OOM killer.

Matrix fixtures are whitespace-separated text with a single `rows cols`
header line. The environment variable SLIME_KIT_SEED supplies a fallback
seed when a seeded command (`bilinear`, `sweep`, `train`) runs without
--seed; other commands never read it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import bilinear, pipeline
from .numerics import check_count
from .routing import DEFAULT_GAMMA, RouterConfig, route_tokens
from .slicing import BASE_RESOLUTION, plan_partition

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
SEED_ENV_VAR = "SLIME_KIT_SEED"

BILINEAR_STEPS = 20000   # the default --steps of `bilinear` and `sweep`
# the CLI's one method alias on top of the library's method names
METHODS = {"alt": "alternating", **{name: name for name in bilinear.METHODS}}

# The config `train` reads, as section: keys; any other key is rejected. Each
# key sets the PipelineConfig field of its name, but total_steps and lr set
# the schedule.
TRAIN_KEYS = {
    "adapter": ("feat_dim", "model_dim", "gate_noise"),
    "router": ("gamma", "local_queries", "train_noise_sigma"),
    "training": ("out_dim", "base", "grid", "sizes", "n_train", "n_eval", "total_steps", "lr"),
}
_LIBRARY_DEFAULTS = {**vars(pipeline.PipelineConfig()),
                     "total_steps": pipeline.DEFAULT_TOTAL_STEPS, "lr": pipeline.DEFAULT_LR}
TRAIN_CONFIG = {section: {key: _LIBRARY_DEFAULTS[key] for key in keys}
                for section, keys in TRAIN_KEYS.items()}


@contextmanager
def _writing(what: str):
    """Name what was being written in the message of a failed write."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"cannot write the {what}: {exc}") from None


def default_seed() -> int:
    """The fallback seed from SLIME_KIT_SEED, or 0 when it is unset."""
    value = os.environ.get(SEED_ENV_VAR)
    if not value:
        return 0
    try:
        seed = int(value)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {value!r}") from None
    if seed < 0:
        raise ValueError(f"{SEED_ENV_VAR} must be non-negative, got {value!r}")
    return seed


def read_matrix(path: str) -> np.ndarray:
    """Load a `rows cols` headed whitespace-separated matrix file."""
    text = Path(path).read_text().split()
    if len(text) < 2:
        raise ValueError(f"{path}: missing 'rows cols' header")
    try:
        rows, cols = int(text[0]), int(text[1])
    except ValueError:
        raise ValueError(f"{path}: header '{text[0]} {text[1]}' must give two integers") from None
    if rows < 0 or cols < 0:
        raise ValueError(f"{path}: header '{rows} {cols}' must give non-negative sizes")
    values = text[2:]
    if len(values) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, found {len(values)}")
    data = []
    for i, x in enumerate(values):   # a value exists, so cols >= 1
        try:
            data.append(float(x))
        except ValueError:
            raise ValueError(f"{path}: row {i // cols + 1}, column {i % cols + 1}: "
                             f"'{x}' is not a number") from None
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: values must be finite")
    return np.array(data, dtype=np.float64).reshape(rows, cols)


def write_matrix(path: str, arr: np.ndarray) -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    lines = [f"{arr.shape[0]} {arr.shape[1]}"]
    lines.extend(" ".join(repr(float(x)) for x in row) for row in arr)
    Path(path).write_text("\n".join(lines) + "\n")


def merge_config(user) -> dict:
    """Overlay a user config onto TRAIN_CONFIG. Only its shape is checked here: the
    config and each section must be objects, with no unknown key. The values go on
    as given, and the library's doors reject a bad one by its key's name."""
    if not isinstance(user, dict):
        raise ValueError("config section '(top level)' must be an object")
    merged = {}
    for section, defaults in TRAIN_CONFIG.items():
        given = user.get(section, {})
        if not isinstance(given, dict):
            raise ValueError(f"config section '{section}' must be an object")
        for key in given:
            if key not in defaults:
                raise ValueError(f"unknown config key '{section}.{key}'")
        merged[section] = {**defaults, **given}
    for key in user:
        if key not in TRAIN_CONFIG:
            raise ValueError(f"unknown config key '{key}'")
    return merged


def _strict_json(obj, sort_keys: bool = False) -> str:
    """Strict JSON text for `obj`, with every NaN or infinity written as null."""
    loose = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(loose, allow_nan=False, sort_keys=sort_keys)


def _emit(obj) -> None:
    print(_strict_json(obj))


# -- subcommands -------------------------------------------------------------

def cmd_plan(args) -> int:
    plan = plan_partition(args.width, args.height, base=args.base)
    _emit({"w": args.width, "h": args.height, "m": plan.m, "n": plan.n,
           "s": plan.scale, "utilized": plan.utilized, "wasted": plan.wasted})
    return EXIT_OK


def cmd_route(args) -> int:
    router = RouterConfig(gamma=args.gamma)
    sel = route_tokens(read_matrix(args.tokens), read_matrix(args.text), router)
    _emit(sel.to_json())
    return EXIT_OK


def _parse_init(text: str):
    return bilinear.resolve_init(tuple(float(x) for x in text.split(",")) if "," in text else text)


def cmd_bilinear(args) -> int:
    if args.method not in METHODS:
        raise ValueError(f"unknown --method '{args.method}'")
    init = _parse_init(args.init)
    inst = bilinear.make_instance(d=args.d, c=args.c, seed=args.seed)
    trace = bilinear.run_experiment(inst, init=init, method=METHODS[args.method],
                                    steps=args.steps, eta=args.eta)
    if args.out:
        with _writing("trace"):
            Path(args.out).write_text(trace.to_csv())
    _emit(trace.summary())
    return EXIT_DIVERGED if trace.diverged else EXIT_OK


def cmd_sweep(args) -> int:
    cs = [float(x) for x in args.c.split(",") if x]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not cs or not methods:
        raise ValueError("--c and --methods each need at least one value")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method '{m}'")
    init = _parse_init(args.init)
    # every instance and run is checked first, so a bad later one writes no trace
    for c in cs:
        bilinear.check_instance(args.d, c)
    for m in methods:
        bilinear.check_run(METHODS[m], args.steps, args.eta)
    results = []
    for c in cs:
        inst = bilinear.make_instance(d=args.d, c=c, seed=args.seed)
        for method in methods:
            trace = bilinear.run_experiment(inst, init=init, method=METHODS[method],
                                            steps=args.steps, eta=args.eta)
            results.append(trace.summary())
            if args.outdir:   # written and freed at once, so traces never pile up
                with _writing("traces"):
                    Path(args.outdir).mkdir(parents=True, exist_ok=True)
                    (Path(args.outdir) / f"trace_{method}_c{inst.c}.csv").write_text(
                        trace.to_csv())
            del trace
        del inst   # free this dense d x d target before the next one is built
    _emit(results)
    return EXIT_DIVERGED if any(r["classification"] == "diverged" for r in results) else EXIT_OK


def cmd_train(args) -> int:
    user_cfg = {}
    if args.config:
        try:
            user_cfg = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read config: {exc}") from None
    cfg = merge_config(user_cfg)
    values = {key: value for section in cfg.values() for key, value in section.items()}
    for key in ("n_eval", "total_steps"):
        check_count(f"training.{key}", values[key], 1)
    schedule = pipeline.default_schedule(args.mode, seed=args.seed,
                                         total_steps=values.pop("total_steps"),
                                         lr=values.pop("lr"))
    if isinstance(values["sizes"], list):
        values["sizes"] = tuple(values["sizes"])
    pcfg = pipeline.PipelineConfig(**values)
    report = pipeline.train(schedule, pipeline.make_toy_task(args.seed, pcfg))
    if args.out:
        out = Path(args.out)
        with _writing("report"):
            out.mkdir(parents=True, exist_ok=True)
            (out / f"report_{args.mode}_seed{args.seed}.csv").write_text(report.to_csv())
            (out / f"summary_{args.mode}_seed{args.seed}.json").write_text(
                _strict_json(report.summary(), sort_keys=True) + "\n")
    _emit(report.summary())
    return EXIT_DIVERGED if report.diverged else EXIT_OK


_SEED_HELP = f"default: ${SEED_ENV_VAR}, else 0"


def _add_rank_one_flags(p: argparse.ArgumentParser) -> None:
    """The flags `bilinear` and `sweep` share, defaulting to the library's values."""
    p.add_argument("--eta", type=float, default=bilinear.DEFAULT_ETA)
    p.add_argument("--steps", type=int, default=BILINEAR_STEPS)
    p.add_argument("--init", default=bilinear.DEFAULT_INIT,
                   help=" | ".join([*bilinear.INITS, "'alpha0,beta0'"]))
    p.add_argument("--d", type=int, default=bilinear.DEFAULT_D)
    p.add_argument("--seed", type=int, help=_SEED_HELP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicemix",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="print the partition plan for a geometry")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--base", type=int, default=BASE_RESOLUTION)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("route", help="select tokens from matrix fixtures")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--tokens", required=True, help="token matrix file (header: rows cols)")
    p.add_argument("--text", required=True, help="text embedding matrix file")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("bilinear", help="run one factorization trace")
    p.add_argument("--method", default="alt",
                   help="gd | alt (also gd_vector for the raw-vector cross-check)")
    p.add_argument("--c", type=float, required=True, help="target alignment a.b")
    _add_rank_one_flags(p)
    p.add_argument("--out", help="write the per-step CSV trace here")
    p.set_defaults(func=cmd_bilinear)

    p = sub.add_parser("sweep", help="grid of factorization runs, JSON summary")
    p.add_argument("--c", required=True, help="comma-separated alignment values")
    p.add_argument("--methods", default="gd,alt")
    _add_rank_one_flags(p)
    p.add_argument("--outdir", help="optional directory for per-run traces")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "train", help="train the toy pipeline",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="config defaults (unknown keys are rejected):\n"
               + json.dumps(TRAIN_CONFIG, indent=2))
    p.add_argument("--mode", required=True, choices=pipeline.STAGE_PLANS)
    p.add_argument("--seed", type=int, help=_SEED_HELP)
    p.add_argument("--config", help="JSON config; unknown keys are rejected")
    p.add_argument("--out", help="directory for the report CSV and summary JSON")
    p.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "seed" in args and args.seed is None:
            args.seed = default_seed()
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
