"""Span tracer for the worker: wraps the package's public functions.

Each wrapped call records a span (name, start, end, index of the span that
caused it, and a few counts read off its arguments and result).  A function
called once per listed item gets one folded span per caller instead: a call
count and a total time.  Spans stay in memory and go back to the runner with
the operation's result.

A wrapped function is replaced in every ``cumulants`` module that holds it by
name, and in the ``CSP_ALGORITHMS`` dict, so calls through any import path
are seen.
"""

from __future__ import annotations

import sys


def _n(args, result):
    return {"n": args[0].n, "listed": len(result.complementary)}


def _terms(args, result):
    return {"terms": len(result)}


def _rows(args, result):
    return {"rows": result.num_rows}


def _monomials(args, result):
    return {"monomials": len(args[0].terms)}


#: (span name, module, function, note on arguments and result, folded)
TARGETS = (
    ("cli", "cumulants.cli", "main", None, False),
    ("csp.twoblock", "cumulants.csp", "csp_twoblock", _n, False),
    ("csp.graph", "cumulants.csp", "csp_graph", None, False),
    ("csp.laplacian", "cumulants.csp", "csp_laplacian", None, False),
    ("csp.nullspace", "cumulants.csp", "csp_nullspace", None, False),
    ("csp.stafford", "cumulants.csp", "csp_stafford", None, False),
    ("csp.count", "cumulants.csp", "count_not_complementary", None, False),
    ("csp.onevec", "cumulants.csp", "csp_twoblock_onevec", None, False),
    ("algebra.gencum", "cumulants.algebra", "generalized_cumulant", _terms, False),
    ("algebra.gmc", "cumulants.algebra", "generalized_multivariate_cumulant", _terms, False),
    ("algebra.c2m", "cumulants.algebra", "cumulants_to_moments", None, False),
    ("partitions.mip_enum", "cumulants.partitions", "enumerate_multiindex_partitions", None, False),
    ("indicator.dummy", "cumulants.indicator", "to_dummy_indicator", None, False),
    ("indicator.collapse", "cumulants.indicator", "collapse_indicator", None, True),
    ("estimation.load_csv", "cumulants.estimation", "load_csv", _rows, False),
    ("estimation.build", "cumulants.estimation",
     "generalized_multivariate_cumulant_estimator", None, False),
    ("estimation.power_sum", "cumulants.estimation", "power_sum", None, False),
    ("estimation.evaluate", "cumulants.estimation", "evaluate", _monomials, False),
)


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.folds: dict[tuple[str, int], list] = {}
        self.stack: list[int] = []

    def take(self) -> tuple[list, list]:
        """Spans and folded spans recorded since the last call."""
        spans, folds = self.spans, [[k[0], k[1], v[0], v[1]] for k, v in self.folds.items()]
        self.spans, self.folds = [], {}
        return spans, folds

    def wrap(self, name: str, fn, note=None, folded: bool = False):
        stack = self.stack
        clock = self.clock

        if folded:
            def traced(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    key = (name, stack[-1] if stack else -1)
                    entry = self.folds.setdefault(key, [0, 0.0])
                    entry[0] += 1
                    entry[1] += clock() - t0
            return traced

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            self.spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target in each loaded ``cumulants`` module and dict."""
        import cumulants.cli  # noqa: F401  (main must be loaded to be wrapped)
        modules = [m for k, m in sys.modules.items()
                   if k == "cumulants" or k.startswith("cumulants.")]
        algorithms = sys.modules["cumulants.csp"].CSP_ALGORITHMS
        for name, module, attr, note, folded in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapped = self.wrap(name, original, note, folded)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
            for key, value in list(algorithms.items()):
                if value is original:
                    algorithms[key] = wrapped
