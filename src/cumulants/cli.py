"""Command-line front end.

Subcommands: ``partitions``, ``csp``, ``gencum``, ``gmc``, ``estimate``,
``bench``.  Exit codes: 0 success, 1 usage error, 2 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from time import perf_counter

from . import bench as bench_mod
from .algebra import _SYMBOL_CHARS, _factor_text, generalized_multivariate_cumulant
from .csp import ALGORITHM_NAMES, CSP_ALGORITHMS, _twoblock_runs
from .errors import BoundsError, CumulantError
from .estimation import (
    evaluate,
    generalized_multivariate_cumulant_estimator,
    load_csv,
)
from .indicator import _block_indicator
from .partitions import IntegerPartition, MultiIndexPartition, SetPartition
from .partitions import _block_text, _check_ground_set, _render_key

#: A listing is written in pieces of at least this many keys.  Written run by
#: run, or in one piece, the benchmark's ``listing`` workload peaked at
#: 84 MB, against 68-71 MB.
_JSON_CHUNK = 4096


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


def _write_listing(runs, key_sep: str, head: str, tail: str) -> None:
    """Write ``head``, the keys of ``runs`` joined by ``key_sep``, then
    ``tail``.  A run is a (prefix, suffixes) pair of ``csp._twoblock_runs``,
    whose keys are ``prefix + suffix``.  A piece is one ``str.join`` of the
    runs' own strings, ``key_sep + prefix`` between a run's suffixes, so the
    only text made is the piece itself: texts made between pieces split
    them in memory, and a caller that holds the pieces (``io.StringIO``
    does) then peaks higher by what ran before it, 68-84 MB instead of
    67-71 MB on the benchmark's ``listing`` workload.  No listing or run is
    empty, as the one-block partition is complementary to every input."""
    write = sys.stdout.write
    lead, parts = head, []
    for prefix, suffixes in runs:
        run = [key_sep + prefix] * (2 * len(suffixes))
        run[0] = lead + prefix
        run[1::2] = suffixes
        parts += run
        lead = key_sep
        if len(parts) >= 2 * _JSON_CHUNK:  # two strings a key
            write("".join(parts))
            parts = []
    parts.append(tail)
    write("".join(parts))


def _write_keys(runs: list, as_json: bool, fields: dict, name: str, tail: str) -> None:
    """Write the keys of ``runs`` one a line, or as JSON: ``fields``, then
    ``"count"``, then the keys as the list ``name``, then ``tail``."""
    if not as_json:
        _write_listing(runs, "\n", "", "\n")
        return
    head = json.dumps({**fields, "count": sum(len(suffixes) for _, suffixes in runs)})
    _write_listing(runs, '", "', f'{head[:-1]}, "{name}": ["', '"]' + tail)


def _cmd_partitions(args) -> int:
    """The lattice is the listing of the one-block partition, to which every
    partition is complementary; ``--m`` keeps the keys with m - 1 ``|``."""
    n, m = args.n, args.m
    _check_ground_set(n)  # before SetPartition(n, ...), which raises a ValueError at 0
    if m is not None and not 1 <= m <= n:
        raise BoundsError(f"m must be in 1..{n}, got {m}")
    runs = _twoblock_runs(SetPartition(n, [range(1, n + 1)]), _block_text(n), "|")
    if m is not None:
        runs = (
            (prefix, [s for s in suffixes if s.count("|") == want])
            for prefix, suffixes in runs
            for want in [m - 1 - prefix.count("|")]
        )
    runs = [run for run in runs if run[1]]  # the writer takes no empty run
    _write_keys(runs, args.json, {"n": n, "m": m}, "partitions", "}\n")
    return 0


def _cmd_csp(args) -> int:
    p = SetPartition.parse(args.partition)
    if args.algo == "twoblock":
        # the whole walk runs first: the count leads the JSON, and a refused
        # input prints nothing
        t0 = perf_counter()
        runs = list(_twoblock_runs(p, _block_text(p.n), "|"))
        elapsed = perf_counter() - t0
    else:
        result = CSP_ALGORITHMS[args.algo](p)
        runs = [("", list(map(_render_key(p.n), result.keys)))]
        elapsed = result.elapsed
    fields = {"input": p.render(), "n": p.n, "algorithm": args.algo}
    tail = f', "elapsed_ms": {json.dumps(elapsed * 1000.0)}}}\n'
    _write_keys(runs, args.json, fields, "complementary", tail)
    return 0


def _cmd_gencum(args) -> int:
    """The terms of ``generalized_cumulant`` written from the walk: each has
    coefficient 1 and one factor per block, and the numeric walk lists them
    in the rendered order.  The walk ends before the first piece, so a
    refused input prints nothing and no memo entry splits two pieces (see
    ``_write_listing``)."""
    p = SetPartition.parse(args.partition)
    if args.json:
        text, sep = (lambda mi: json.dumps(list(mi))), ", "
        key_sep = ']}, {"coeff": 1, "factors": ['
        head, tail = '{"terms": [{"coeff": 1, "factors": [', "]}]}\n"
    else:
        text = partial(_factor_text, _SYMBOL_CHARS["kappa"])
        sep, key_sep, head, tail = " ", " + ", "", "\n"
    runs = list(_twoblock_runs(p, lambda b: text(_block_indicator(b, p.n)), sep, numeric=True))
    _write_listing(runs, key_sep, head, tail)
    return 0


def _cmd_gmc(args) -> int:
    poly = generalized_multivariate_cumulant(MultiIndexPartition.parse(args.mip))
    print(poly.to_json() if args.json else poly.pretty())
    return 0


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
