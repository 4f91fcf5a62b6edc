"""Property tests: column groupings and the set-partition text round trip."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cumulants import SetPartition  # noqa: E402
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
