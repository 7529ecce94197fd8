"""Command-line front end.

``setflow run <scenario.json | builtin-name> [...]`` executes scenarios and
writes their CSV/JSON artifacts (exit 0 on success, 1 on failed checks,
2 on schema problems, 3 when the main trajectory of a scenario blows up;
a check that blows up fails).  ``setflow geom`` gives
one-shot access to the body calculus from the shell, and ``setflow list``
prints the bundled experiments.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import bodies, scenarios
from .scenarios import SchemaError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2
EXIT_BLOWUP = 3


# ---------------------------------------------------------------------------
# body expressions for `geom`


def parse_body_expr(expr: str, grid_size: int = bodies.DEFAULT_GRID_SIZE):
    """Parse a shell body expression.

    Grammar: ``ball:R[@cx,cy]``, ``seg:L[@deg]``, ``poly:x,y;x,y;...``,
    ``point:x,y``, and ``rot90( EXPR )`` which rotates any expression a
    quarter turn.
    """
    expr = expr.strip()
    if expr.startswith("rot90(") and expr.endswith(")"):
        inner = parse_body_expr(expr[len("rot90("):-1], grid_size)
        return bodies.linear_image(inner, [[0.0, -1.0], [1.0, 0.0]])
    kind, _, arg = expr.partition(":")
    try:
        if kind == "ball":
            radius, _, center = arg.partition("@")
            c = [float(x) for x in center.split(",")] if center else (0.0, 0.0)
            return bodies.make_ball(float(radius), center=c, grid_size=grid_size)
        if kind == "seg":
            length, _, angle = arg.partition("@")
            a = np.deg2rad(float(angle)) if angle else 0.0
            return bodies.make_segment(float(length), angle=a, grid_size=grid_size)
        if kind == "poly":
            pts = [[float(x) for x in p.split(",")] for p in arg.split(";") if p]
            return bodies.make_polygon(pts, grid_size=grid_size)
        if kind == "point":
            x, y = (float(v) for v in arg.split(","))
            return bodies.make_polygon([[x, y]], grid_size=grid_size)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad body expression {expr!r}: {exc}") from None
    raise SchemaError(f"bad body expression {expr!r} (expected ball:, seg:, "
                      "poly:, point:, or rot90(...))")


def _hukuhara(k, l):
    diff = bodies.hukuhara_difference(k, l)
    if diff is None:
        return "no difference"
    return f"area {bodies.area(diff):.12g} perimeter {bodies.perimeter(diff):.12g}"


# the ``geom`` operations: the number of bodies each takes, and its output line
_GEOM_OPS = {
    "area": (1, lambda k: f"{bodies.area(k):.12g}"),
    "perimeter": (1, lambda k: f"{bodies.perimeter(k):.12g}"),
    "mixed": (2, lambda k, l: f"{bodies.mixed_area(k, l):.12g}"),
    "hausdorff": (2, lambda k, l: f"{bodies.hausdorff_distance(k, l):.12g}"),
    "hukuhara": (2, _hukuhara),
}


def _cmd_geom(args) -> int:
    try:
        if not (args.grid % 2 == 0
                and bodies.MIN_GRID_SIZE <= args.grid <= scenarios.MAX_GRID_SIZE):
            raise SchemaError(f"--grid must be an even integer from {bodies.MIN_GRID_SIZE} "
                              f"to {scenarios.MAX_GRID_SIZE}")
        parsed = [parse_body_expr(e, args.grid) for e in args.bodies]
        arity, op = _GEOM_OPS[args.op]
        if len(parsed) != arity:
            raise SchemaError(f"{args.op} takes exactly {arity} body argument(s)")
        print(op(*parsed))
    except ValueError as exc:          # SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    return EXIT_OK


# ---------------------------------------------------------------------------
# run / list


def _load(target: str) -> scenarios.Scenario:
    # os.path.exists, unlike Path.exists, is False for a name too long for a path
    if os.path.exists(target):
        return scenarios.load_scenario(target)
    return scenarios.get_builtin(target)


def _cmd_run(args) -> int:
    try:
        loaded = [_load(t) for t in args.scenario]
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:        # once every document has parsed, and before any flow runs
        os.makedirs(args.out or ".", exist_ok=True)
    except OSError as exc:
        print(f"error: --out: cannot create the output directory: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    if args.jobs > 1 and len(loaded) > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(scenarios.run_scenario, s, args.out) for s in loaded]
            results = [f.result() for f in futures]
    else:
        results = [scenarios.run_scenario(s, out_dir=args.out) for s in loaded]

    code = EXIT_OK
    for result in results:
        status = "pass" if result.passed else ("blow-up" if result.blew_up else "FAIL")
        print(f"{result.name}: {status}")
        for check in result.checks:
            mark = "ok" if check["passed"] else "FAILED"
            print(f"  {check['kind']}: {mark}")
        print(f"  wrote {result.csv_path}")
        print(f"  wrote {result.report_path}")
        if result.blew_up:
            code = EXIT_BLOWUP
        elif not result.passed and code == EXIT_OK:
            code = EXIT_CHECK_FAILED
    return code


def _cmd_list(_args) -> int:
    for name, description in scenarios.list_builtins():
        print(f"{name:20s} {description}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on the first call and shared by every
    later one; parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="setflow",
        description="Flows of planar convex bodies: run scenarios, query geometry.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenario files or builtin scenarios")
    p_run.add_argument("scenario", nargs="+",
                       help="path to a scenario JSON file or a builtin name")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="run independent scenarios in parallel")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_geom = sub.add_parser("geom", help="one-shot geometry operations")
    p_geom.add_argument("op", choices=list(_GEOM_OPS))
    p_geom.add_argument("bodies", nargs="+", help="body expressions")
    p_geom.add_argument("--grid", type=int, default=bodies.DEFAULT_GRID_SIZE)
    p_geom.set_defaults(func=_cmd_geom)

    p_list = sub.add_parser("list", help="list builtin scenarios")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
