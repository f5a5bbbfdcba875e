"""Command-line front end.

Subcommands: `plan` (partition planning), `route` (token selection on matrix
fixtures), `bilinear` (one factorization trace), `sweep` (a grid of
factorization runs), and `train` (toy training runs). stdout carries
strict JSON only, with non-finite numbers as null; human diagnostics go to
stderr. Exit codes:
0 success, 2 usage or config error, 3 a run was flagged as diverged.

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
from pathlib import Path

import numpy as np

from . import bilinear, pipeline
from .routing import RouterConfig, route_tokens
from .slicing import plan_partition

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
SEED_ENV_VAR = "SLIME_KIT_SEED"

DEFAULT_CONFIG: dict = {
    "slicing": {"base": 336},
    "adapter": {"feat_dim": 8, "model_dim": 8, "gate_noise": True},
    "router": {"gamma": 0.75, "local_queries": 4, "train_noise_sigma": 0.1},
    "bilinear": {"d": 16, "eta": 0.01, "steps": 20000},
    "training": {
        "out_dim": 4,
        "base": 96,
        "grid": 3,
        "sizes": [96, 128, 160, 192, 224, 256, 288],
        "n_train": 20,
        "n_eval": 10,
        "total_steps": 240,
        "lr": 0.25,
    },
}


# The sections `train` reads; the others only set command-line defaults.
TRAIN_CONFIG: dict = {key: DEFAULT_CONFIG[key] for key in ("adapter", "router", "training")}


class ConfigError(ValueError):
    pass


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


def default_seed() -> int:
    """The fallback seed from SLIME_KIT_SEED, or 0 when it is unset."""
    value = os.environ.get(SEED_ENV_VAR)
    if not value:
        return 0
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {value!r}") from None


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
    data = [float(x) for x in text[2:]]
    if len(data) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, found {len(data)}")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: values must be finite")
    return np.array(data, dtype=np.float64).reshape(rows, cols)


def write_matrix(path: str, arr: np.ndarray) -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    lines = [f"{arr.shape[0]} {arr.shape[1]}"]
    lines.extend(" ".join(repr(float(x)) for x in row) for row in arr)
    Path(path).write_text("\n".join(lines) + "\n")


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               list: "a non-empty list of positive integers"}


def _check_type(name: str, value, default) -> None:
    """Reject a value whose JSON type differs from its default's (an int may be a float)."""
    if isinstance(default, list):
        ok = isinstance(value, list) and value and all(type(v) is int and v > 0 for v in value)
    else:
        ok = type(value) is type(default) or (type(value), type(default)) == (int, float)
    if not ok:
        raise ConfigError(f"config value '{name}' must be {_TYPE_NAMES[type(default)]}, "
                          f"got {json.dumps(value)}")


def merge_config(user: dict, defaults: dict = DEFAULT_CONFIG, path: str = "") -> dict:
    """Overlay a user config onto the defaults, rejecting unknown keys and
    values whose type differs from the default's."""
    if not isinstance(user, dict):
        raise ConfigError(f"config section '{path[:-1] or '(top level)'}' must be an object")
    merged = {}
    for key, default_value in defaults.items():
        if key in user and isinstance(default_value, dict):
            merged[key] = merge_config(user[key], default_value, f"{path}{key}.")
        elif key in user:
            _check_type(f"{path}{key}", user[key], default_value)
            merged[key] = user[key]
        else:
            merged[key] = default_value
    for key in user:
        if key not in defaults:
            raise ConfigError(f"unknown config key '{path}{key}'")
    return merged


def _strict_json(obj, sort_keys: bool = False) -> str:
    """Strict JSON text for `obj`, with every NaN or infinity written as null."""
    loose = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(loose, allow_nan=False, sort_keys=sort_keys)


def _emit(obj) -> None:
    print(_strict_json(obj))


# -- subcommands -------------------------------------------------------------

def cmd_plan(args) -> int:
    try:
        plan = plan_partition(args.width, args.height, base=args.base)
    except ValueError as exc:
        return _fail(f"plan: {exc}")
    _emit({"w": args.width, "h": args.height, "m": plan.m, "n": plan.n,
           "s": plan.scale, "utilized": plan.utilized, "wasted": plan.wasted})
    return EXIT_OK


def cmd_route(args) -> int:
    try:
        router = RouterConfig(gamma=args.gamma)
        with np.errstate(over="ignore", invalid="ignore"):
            sel = route_tokens(read_matrix(args.tokens), read_matrix(args.text), router)
        if not np.isfinite(sel.scores).all():
            raise ValueError("token-text similarities overflow, so the scores are not finite")
    except (OSError, ValueError) as exc:
        return _fail(f"route: {exc}")
    _emit(sel.to_json())
    return EXIT_OK


_METHOD_ALIASES = {"gd": "gd", "alt": "alternating", "alternating": "alternating",
                   "gd_vector": "gd_vector"}


def _parse_init(text: str):
    if "," in text:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError("--init expects a name or 'alpha0,beta0'")
        return float(parts[0]), float(parts[1])
    return text


def cmd_bilinear(args) -> int:
    if args.method not in _METHOD_ALIASES:
        return _fail(f"bilinear: unknown --method '{args.method}'")
    try:
        init = _parse_init(args.init)
        inst = bilinear.make_instance(d=args.d, c=args.c, seed=args.seed)
        trace = bilinear.run_experiment(inst, init=init,
                                        method=_METHOD_ALIASES[args.method],
                                        steps=args.steps, eta=args.eta)
    except ValueError as exc:
        return _fail(f"bilinear: {exc}")
    if args.out:
        try:
            Path(args.out).write_text(trace.to_csv())
        except OSError as exc:
            return _fail(f"bilinear: cannot write the trace: {exc}")
    _emit(trace.summary())
    return EXIT_DIVERGED if trace.diverged else EXIT_OK


def cmd_sweep(args) -> int:
    try:
        cs = [float(x) for x in args.c.split(",") if x]
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        init = _parse_init(args.init)
        insts = [bilinear.make_instance(d=args.d, c=c, seed=args.seed) for c in cs]
    except ValueError as exc:
        return _fail(f"sweep: {exc}")
    if not cs or not methods:
        return _fail("sweep: --c and --methods each need at least one value")
    for m in methods:
        if m not in _METHOD_ALIASES:
            return _fail(f"sweep: unknown method '{m}'")

    results = []
    for inst in insts:
        for method in methods:
            try:
                trace = bilinear.run_experiment(inst, init=init,
                                                method=_METHOD_ALIASES[method],
                                                steps=args.steps, eta=args.eta)
            except ValueError as exc:
                return _fail(f"sweep: {exc}")
            if args.outdir:
                out = Path(args.outdir)
                try:
                    out.mkdir(parents=True, exist_ok=True)
                    (out / f"trace_{method}_c{inst.c}.csv").write_text(trace.to_csv())
                except OSError as exc:
                    return _fail(f"sweep: cannot write the traces: {exc}")
            results.append(trace.summary())
    _emit(results)
    return EXIT_DIVERGED if any(r["classification"] == "diverged" for r in results) else EXIT_OK


def cmd_train(args) -> int:
    user_cfg = {}
    if args.config:
        try:
            user_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return _fail(f"train: cannot read config: {exc}")
    try:
        cfg = merge_config(user_cfg, TRAIN_CONFIG)
    except ConfigError as exc:
        return _fail(f"train: {exc}")
    tc, ac, rc = cfg["training"], cfg["adapter"], cfg["router"]
    for key in ("n_eval", "total_steps"):
        if tc[key] < 1:
            return _fail(f"train: training.{key} must be at least 1")
    try:
        schedule = pipeline.default_schedule(args.mode, seed=args.seed,
                                             total_steps=tc["total_steps"],
                                             lr=tc["lr"])
        pcfg = pipeline.PipelineConfig(
            feat_dim=ac["feat_dim"], model_dim=ac["model_dim"],
            out_dim=tc["out_dim"], local_queries=rc["local_queries"],
            gamma=rc["gamma"], router_noise_sigma=rc["train_noise_sigma"],
            gate_noise=ac["gate_noise"], base=tc["base"], grid=tc["grid"],
            sizes=tuple(tc["sizes"]), n_train=tc["n_train"], n_eval=tc["n_eval"])
        task = pipeline.make_toy_task(args.seed, pcfg)
    except ValueError as exc:
        return _fail(f"train: {exc}")
    report = pipeline.train(schedule, task)
    if args.out:
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / f"report_{args.mode}_seed{args.seed}.csv").write_text(report.to_csv())
            (out / f"summary_{args.mode}_seed{args.seed}.json").write_text(
                _strict_json(report.summary(), sort_keys=True) + "\n")
        except OSError as exc:
            return _fail(f"train: cannot write the report: {exc}")
    _emit(report.summary())
    return EXIT_DIVERGED if report.diverged else EXIT_OK


_SEED_HELP = f"default: ${SEED_ENV_VAR}, else 0"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicemix",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="print the partition plan for a geometry")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--base", type=int, default=DEFAULT_CONFIG["slicing"]["base"])
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("route", help="select tokens from matrix fixtures")
    p.add_argument("--gamma", type=float, default=DEFAULT_CONFIG["router"]["gamma"])
    p.add_argument("--tokens", required=True, help="token matrix file (header: rows cols)")
    p.add_argument("--text", required=True, help="text embedding matrix file")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("bilinear", help="run one factorization trace")
    p.add_argument("--method", default="alt",
                   help="gd | alt (also gd_vector for the raw-vector cross-check)")
    p.add_argument("--c", type=float, required=True, help="target alignment a.b")
    p.add_argument("--eta", type=float, default=DEFAULT_CONFIG["bilinear"]["eta"])
    p.add_argument("--steps", type=int, default=DEFAULT_CONFIG["bilinear"]["steps"])
    p.add_argument("--init", default="generic",
                   help="generic | antisym | sym | 'alpha0,beta0'")
    p.add_argument("--d", type=int, default=DEFAULT_CONFIG["bilinear"]["d"])
    p.add_argument("--seed", type=int, help=_SEED_HELP)
    p.add_argument("--out", help="write the per-step CSV trace here")
    p.set_defaults(func=cmd_bilinear)

    p = sub.add_parser("sweep", help="grid of factorization runs, JSON summary")
    p.add_argument("--c", required=True, help="comma-separated alignment values")
    p.add_argument("--methods", default="gd,alt")
    p.add_argument("--eta", type=float, default=DEFAULT_CONFIG["bilinear"]["eta"])
    p.add_argument("--steps", type=int, default=DEFAULT_CONFIG["bilinear"]["steps"])
    p.add_argument("--init", default="generic")
    p.add_argument("--d", type=int, default=DEFAULT_CONFIG["bilinear"]["d"])
    p.add_argument("--seed", type=int, help=_SEED_HELP)
    p.add_argument("--outdir", help="optional directory for per-run traces")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "train", help="train the toy pipeline",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="config defaults (unknown keys are rejected):\n"
               + json.dumps(TRAIN_CONFIG, indent=2))
    p.add_argument("--mode", required=True,
                   choices=["alternating", "e2e", "only_global", "only_local"])
    p.add_argument("--seed", type=int, help=_SEED_HELP)
    p.add_argument("--config", help="JSON config; unknown keys are rejected")
    p.add_argument("--out", help="directory for the report CSV and summary JSON")
    p.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "seed" in args and args.seed is None:
        try:
            args.seed = default_seed()
        except ConfigError as exc:
            return _fail(f"{args.command}: {exc}")
    return args.func(args)


def entry() -> None:
    sys.exit(main())
