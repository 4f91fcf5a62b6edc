"""Command-line front end.

Subcommands: ``partitions``, ``csp``, ``gencum``, ``gmc``, ``estimate``,
``bench``.  Exit codes: 0 success, 1 usage error, 2 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench as bench_mod
from .algebra import (
    _generalized_cumulant_json,
    generalized_cumulant,
    generalized_multivariate_cumulant,
)
from .csp import ALGORITHM_NAMES, CSP_ALGORITHMS
from .errors import CumulantError
from .estimation import (
    evaluate,
    generalized_multivariate_cumulant_estimator,
    load_csv,
)
from .partitions import IntegerPartition, MultiIndexPartition, SetPartition
from .partitions import _render_key, enumerate_partitions


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _block_types(text: str) -> list[IntegerPartition]:
    try:
        return [
            IntegerPartition(int(x) for x in chunk.split(","))
            for chunk in text.split(";")
            if chunk.strip()
        ]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad block types {text!r}: {exc}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="cumulants", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("partitions", help="enumerate set partitions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="restrict to m blocks")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("csp", help="complementary set partitions")
    p.add_argument("--partition", required=True, help='e.g. "1|2,3,4" or "1|234"')
    p.add_argument("--algo", default="twoblock", choices=ALGORITHM_NAMES)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gencum", help="generalized cumulant of a partition")
    p.add_argument("--partition", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gmc", help="generalized multivariate cumulant")
    p.add_argument("--lambda", dest="mip", required=True, help='e.g. "1,0|0,2"')
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("estimate", help="evaluate an unbiased estimator on CSV data")
    p.add_argument("--data", required=True, help="path to a numeric CSV file")
    p.add_argument("--lambda", dest="mip", required=True)
    p.add_argument("--header", action="store_true", help="CSV has a header row")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bench", help="algorithm comparison benchmark")
    p.add_argument("--types", type=_block_types, default=None, help='e.g. "2,2,3;3,4"')
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None, help="write the JSON report to a file")

    return parser


def _cmd_partitions(args) -> int:
    parts = enumerate_partitions(args.n, args.m)
    texts = list(map(_render_key(args.n), (p.blocks for p in parts)))
    if args.json:
        print(json.dumps({
            "n": args.n,
            "m": args.m,
            "count": len(parts),
            "partitions": texts,
        }))
    else:
        print("\n".join(texts))
    return 0


def _cmd_csp(args) -> int:
    p = SetPartition.parse(args.partition)
    result = CSP_ALGORITHMS[args.algo](p)
    texts = list(map(_render_key(p.n), result.keys))
    if args.json:
        print(json.dumps({
            "input": p.render(),
            "n": p.n,
            "algorithm": result.algorithm,
            "count": len(texts),
            "complementary": texts,
            "elapsed_ms": result.elapsed * 1000.0,
        }))
    else:
        print("\n".join(texts))
    return 0


def _print_polynomial(poly, as_json: bool) -> int:
    print(poly.to_json() if as_json else poly.pretty())
    return 0


def _cmd_gencum(args) -> int:
    p = SetPartition.parse(args.partition)
    if not args.json:
        return _print_polynomial(generalized_cumulant(p), False)
    sys.stdout.writelines(_generalized_cumulant_json(p))
    print()
    return 0


def _cmd_gmc(args) -> int:
    mip = MultiIndexPartition.parse(args.mip)
    return _print_polynomial(generalized_multivariate_cumulant(mip), args.json)


def _cmd_estimate(args) -> int:
    mip = MultiIndexPartition.parse(args.mip)
    # built first, so a refused lambda never waits for the data to load
    expr = generalized_multivariate_cumulant_estimator(mip)
    data = load_csv(args.data, has_header=args.header)
    value = evaluate(expr, data)
    if args.json:
        print(json.dumps({
            "estimate": value,
            "expression": expr.pretty(),
            "N": data.num_rows,
            "n": data.num_cols,
        }))
    else:
        print(value)
        print(f"expression: {expr.pretty()}")
        if data.names:
            print(f"variables: {', '.join(data.names)}")
    return 0


def _cmd_bench(args) -> int:
    types = args.types
    if not types:
        types = [IntegerPartition(t) for t in bench_mod.DEFAULT_TYPES]
    report = bench_mod.run_bench(types, args.reps)
    doc = report.to_json_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
    if args.json:
        print(json.dumps(doc))
    else:
        header = ["type"] + [name for name in ALGORITHM_NAMES] + ["count"]
        print("  ".join(f"{h:>12}" for h in header))
        for row in doc["rows"]:
            cells = ["(" + ",".join(str(x) for x in row["type"]) + ")"]
            cells += [f"{row['median_ms'][name]:.3f}ms" for name in ALGORITHM_NAMES]
            cells.append(str(row["counts"]["complementary"]))
            print("  ".join(f"{c:>12}" for c in cells))
    return 0


_COMMANDS = {
    "partitions": _cmd_partitions,
    "csp": _cmd_csp,
    "gencum": _cmd_gencum,
    "gmc": _cmd_gmc,
    "estimate": _cmd_estimate,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if not args.command:
        parser.print_help(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (CumulantError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
