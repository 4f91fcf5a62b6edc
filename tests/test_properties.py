"""Property tests: column groupings, the set-partition text round trip and
CSV loading."""

import math
import os
import tempfile
from fractions import Fraction
from itertools import permutations
from unittest.mock import patch

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cumulants import (  # noqa: E402
    SampleMatrix,
    SetPartition,
    distinct_index_expansion,
    evaluate,
    load_csv,
)
from cumulants import estimation  # noqa: E402
from cumulants.partitions import _column_groupings  # noqa: E402

SETTINGS = settings(deadline=None, derandomize=True, max_examples=60)


def bell_oracle(n):
    """Bell numbers by the binomial recurrence."""
    b = [1]
    for m in range(n):
        b.append(sum(math.comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


def set_partitions(items):
    """Every set partition of a list, by placing the first item in a block
    of its own or into a block of a partition of the rest."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]


@st.composite
def column_multisets(draw):
    arity = draw(st.integers(1, 3))
    column = st.tuples(*[st.integers(0, 2)] * arity).filter(any)
    columns = draw(st.lists(column, min_size=1, max_size=4, unique=True))
    multiplicities = draw(
        st.lists(st.integers(1, 4), min_size=len(columns), max_size=len(columns))
        .filter(lambda ms: sum(ms) <= 7)
    )
    return columns, multiplicities


@SETTINGS
@given(column_multisets())
def test_groupings_count_every_set_partition_of_the_columns(case):
    columns, multiplicities = case
    m = sum(multiplicities)
    written = [col for col, r in zip(columns, multiplicities) for _ in range(r)]
    # oracle: the merged blocks of every set partition of the written-out columns
    want = {}
    for part in set_partitions(list(range(m))):
        key = tuple(sorted(
            (tuple(map(sum, zip(*(written[q] for q in block)))), len(block))
            for block in part
        ))
        want[key] = want.get(key, 0) + 1
    got = {}
    for merged, blocks, count in _column_groupings(columns, multiplicities):
        assert blocks == sum(rep for _, rep, _ in merged)
        key = tuple(sorted((col, d) for col, rep, d in merged for _ in range(rep)))
        got[key] = got.get(key, 0) + count
    assert sum(got.values()) == bell_oracle(m)
    assert got == want


@st.composite
def set_partitions_up_to_12(draw):
    n = draw(st.integers(1, 12))
    # permutations give the all-singleton partitions, whose text has no comma
    labels = draw(st.one_of(
        st.permutations(range(n)),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    ))
    blocks = {}
    for e, label in enumerate(labels, start=1):
        blocks.setdefault(label, []).append(e)
    return SetPartition(n, blocks.values())


@SETTINGS
@given(set_partitions_up_to_12())
def test_parse_inverts_render(p):
    assert SetPartition.parse(p.render()) == p
    assert SetPartition.parse(p.canonical("cr1").render()) == p


@st.composite
def csv_files(draw):
    """A CSV text of finite floats with its rows, header and reading chunk."""
    width = draw(st.integers(1, 4))
    value = st.floats(-1e6, 1e6) | st.integers(-1000, 1000).map(float)
    rows = draw(st.lists(st.lists(value, min_size=width, max_size=width),
                         min_size=2, max_size=30))
    fmt = draw(st.sampled_from([repr, "{:.17g}".format, " {!r} ".format]))
    lines = [",".join(map(fmt, row)) for row in rows]
    for at in sorted(draw(st.sets(st.integers(0, len(lines)), max_size=3)), reverse=True):
        lines.insert(at, "")
    names = draw(st.none() | st.lists(st.sampled_from("xyz"), min_size=width, max_size=width))
    if names is not None:
        quote = draw(st.sampled_from(["", '"']))
        lines.insert(0, ",".join(f"{quote}{name}{quote}" for name in names))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    chunk = draw(st.sampled_from([1, 10, 100, 1 << 16]))
    factors = draw(st.lists(st.tuples(*[st.integers(0, 2)] * width), min_size=1, max_size=2))
    return text, rows, names, chunk, factors


def distinct_average(rows, factors):
    """Exact average over pairwise-distinct rows l_1..l_r of
    prod_k prod_j x[l_k][j] ** a_k[j]."""
    picks = list(permutations(rows, len(factors)))
    total = Fraction(0)
    for pick in picks:
        prod = Fraction(1)
        for row, a in zip(pick, factors):
            for x, e in zip(row, a):
                prod *= Fraction(x) ** e
        total += prod
    return total / len(picks)


@SETTINGS
@given(csv_files())
def test_load_csv_reads_columns_like_the_cell_reader(case):
    text, rows, names, chunk, factors = case
    has_header = names is not None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        with patch.object(estimation, "_CHUNK", chunk):
            data = load_csv(path, has_header=has_header)
            # these files are plain, so load_csv returned the chunked reading
            plain = estimation._load_csv_columns(path, has_header)
        cells = estimation._load_csv_cells(path, has_header)
    assert [c.tobytes() for c in plain.columns] == [c.tobytes() for c in data.columns]
    assert [c.tobytes() for c in data.columns] == [c.tobytes() for c in cells.columns]
    assert data.names == cells.names == (tuple(names) if has_header else None)
    assert data.num_rows == cells.num_rows == len(rows)
    expr = distinct_index_expansion(factors)
    value = evaluate(expr, data)
    assert value.hex() == evaluate(expr, SampleMatrix.from_rows(rows)).hex()
    assert value == float(distinct_average(rows, factors))
