"""Indicator matrices, span intersections and the dummy-variable transforms."""

import gc
import time
from fractions import Fraction
from itertools import product

import pytest

from cumulants import (
    DimensionError,
    IndicatorMatrix,
    MalformedMatrixError,
    MultiIndexPartition,
    ParseError,
    SetPartition,
    collapse_indicator,
    enumerate_multiindex_partitions,
    enumerate_partitions,
    from_indicator,
    indicator_preimages,
    intersection_matrix,
    is_complementary,
    is_complementary_indicator,
    join,
    labeling_rule,
    same_equivalence_class,
    span_intersection,
    subdivision_coefficient,
    to_dummy_indicator,
    to_indicator,
)
from cumulants.csp import _twoblock_keys, _twoblock_runs
from cumulants.partitions import _block_text, _iter_partition_keys, _mip_walk


def positive_targets(max_order):
    """All positive-entry multi-indexes with order between 1 and max_order."""
    out = []

    def rec(rem, acc):
        if acc:
            out.append(tuple(acc))
        for k in range(1, rem + 1):
            acc.append(k)
            rec(rem - k, acc)
            acc.pop()

    rec(max_order, [])
    return sorted(set(out))


# --- encoding ---------------------------------------------------------------


def test_to_indicator_examples():
    assert to_indicator(SetPartition.parse("1|234")).render() == "1000|0111"
    assert to_indicator(SetPartition.parse("13|25|4")).render() == "10100|01001|00010"
    singletons = to_indicator(SetPartition.parse("1|2|3"))
    assert singletons.render() == "100|010|001"
    top = to_indicator(SetPartition.parse("123"))
    assert top.render() == "111"


def test_from_indicator_examples():
    assert from_indicator(IndicatorMatrix.parse("1100|0011")) == SetPartition.parse("12|34")
    assert from_indicator(IndicatorMatrix.parse("100|010|001")) == SetPartition.parse("1|2|3")
    assert from_indicator(IndicatorMatrix.parse("10100|01001|00010")) == SetPartition.parse("13|25|4")


def test_round_trip_exhaustive():
    for n in range(1, 7):
        for p in enumerate_partitions(n):
            mat = to_indicator(p)
            assert all(sum(col[t] for col in mat.columns) == 1 for t in range(n))
            assert from_indicator(mat) == p


def test_malformed_matrices_rejected():
    with pytest.raises(MalformedMatrixError):
        IndicatorMatrix(2, ((1, 1), (1, 0)))
    with pytest.raises(MalformedMatrixError):
        IndicatorMatrix(2, ((1, 0),))
    with pytest.raises(MalformedMatrixError):
        IndicatorMatrix(2, ((1, 1), (0, 0)))
    with pytest.raises(MalformedMatrixError):
        IndicatorMatrix(2, ((0, 1), (1, 0)))  # columns not decreasing
    with pytest.raises(ParseError):
        IndicatorMatrix.parse("10|0")
    with pytest.raises(ParseError):
        IndicatorMatrix.parse("12|01")


# --- spans ---------------------------------------------------------------------


def test_span_intersection_top_example():
    a = to_indicator(SetPartition.parse("123|4"))
    b = to_indicator(SetPartition.parse("12|34"))
    basis = span_intersection(a, b)
    assert len(basis) == 1
    (v,) = basis
    assert len(set(v)) == 1 and v[0] != 0  # a multiple of the all-ones vector


def test_span_intersection_nested_example():
    a = to_indicator(SetPartition.parse("12|34"))
    b = to_indicator(SetPartition.parse("12|3|4"))
    basis = span_intersection(a, b)
    assert len(basis) == 2
    for v in basis:
        assert v[0] == v[1] and v[2] == v[3]  # inside the span of 12|34


def test_span_intersection_self():
    a = to_indicator(SetPartition.parse("1|23|45"))
    assert len(span_intersection(a, a)) == a.m


def test_span_intersection_dimension_mismatch():
    with pytest.raises(DimensionError):
        span_intersection(
            to_indicator(SetPartition.parse("1|2")),
            to_indicator(SetPartition.parse("1|2|3")),
        )


def test_span_meets_encode_joins_exhaustively():
    """The span intersection is the span of the join's indicator matrix, and the
    complementary test agrees with the join-based one (ground sets up to 6)."""
    for n in range(2, 7):
        parts = enumerate_partitions(n)
        mats = [to_indicator(p) for p in parts]
        for i, p in enumerate(parts):
            for j, q in enumerate(parts):
                jn = join(p, q)
                basis = span_intersection(mats[i], mats[j])
                assert len(basis) == jn.num_blocks
                for v in basis:
                    for block in jn.blocks:
                        first = v[block[0] - 1]
                        assert all(v[e - 1] == first for e in block)
                flag = is_complementary_indicator(mats[i], mats[j])
                assert flag == (jn.num_blocks == 1) == is_complementary(p, q)


def test_complementary_indicator_examples():
    a = to_indicator(SetPartition.parse("123|4"))
    b = to_indicator(SetPartition.parse("12|34"))
    c = to_indicator(SetPartition.parse("12|3|4"))
    assert is_complementary_indicator(a, b)
    assert not is_complementary_indicator(b, c)
    top = to_indicator(SetPartition.parse("1234"))
    for q in enumerate_partitions(4):
        assert is_complementary_indicator(top, to_indicator(q))


# --- intersection matrices -------------------------------------------------------


def test_intersection_matrix_example():
    m = intersection_matrix(SetPartition.parse("134|2"), SetPartition.parse("124|3"))
    assert m == ((2, 1), (1, 0))


def test_intersection_matrix_with_top_gives_block_sizes():
    p = SetPartition.parse("1|23|456")
    m = intersection_matrix(p, SetPartition.parse("123456"))
    assert m == ((1,), (2,), (3,))


def test_intersection_matrix_row_and_column_sums():
    parts = enumerate_partitions(5)
    for p in parts[::3]:
        for q in parts[::4]:
            m = intersection_matrix(p, q)
            assert [sum(row) for row in m] == [len(b) for b in p.blocks]
            assert [sum(col) for col in zip(*m)] == [len(b) for b in q.blocks]
            assert sum(sum(row) for row in m) == 5


def test_intersection_matrix_dimension_mismatch():
    with pytest.raises(DimensionError):
        intersection_matrix(SetPartition.parse("1|2"), SetPartition.parse("1|2|3"))


def test_same_equivalence_class_example():
    base = SetPartition.parse("124|3")
    assert same_equivalence_class(base, SetPartition.parse("134|2"), SetPartition.parse("234|1"))
    assert same_equivalence_class(base, SetPartition.parse("134|2"), SetPartition.parse("134|2"))
    assert not same_equivalence_class(base, SetPartition.parse("134|2"), SetPartition.parse("1234"))


# --- labeling and dummy-variable transforms -----------------------------------------


def test_labeling_rule_intervals():
    lab = labeling_rule((1, 2, 2))
    assert lab.positions == 5
    assert list(lab.interval(1)) == [1]
    assert list(lab.interval(2)) == [2, 3]
    assert list(lab.interval(3)) == [4, 5]
    for k in (0, 4):
        with pytest.raises(DimensionError):
            lab.interval(k)


def test_labeling_rule_empty_interval():
    lab = labeling_rule((2, 0, 1))
    assert list(lab.interval(2)) == []
    assert lab.positions == 3


def test_to_dummy_indicator_example():
    mip = MultiIndexPartition.parse("1,0,0|0,1,0^2|0,0,2")
    assert to_dummy_indicator(mip).render() == "10000|01000|00100|00011"


def test_to_dummy_indicator_single_column():
    mip = MultiIndexPartition.from_columns([(1, 2)])
    assert to_dummy_indicator(mip).render() == "111"


def test_to_dummy_indicator_standard_basis_is_identity():
    mip = MultiIndexPartition.from_columns([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert to_dummy_indicator(mip).render() == "100|010|001"


def test_collapse_example_and_merging():
    lab = labeling_rule((1, 2, 2))
    want = MultiIndexPartition.from_columns([(1, 1, 0), (0, 1, 1), (0, 0, 1)])
    for text in ("10100|01001|00010", "11000|00110|00001", "11000|00101|00010"):
        assert collapse_indicator(IndicatorMatrix.parse(text), lab) == want


def test_collapse_identity_gives_standard_basis():
    lab = labeling_rule((1, 1, 1))
    got = collapse_indicator(IndicatorMatrix.parse("100|010|001"), lab)
    assert got.columns == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_collapse_dimension_mismatch():
    with pytest.raises(DimensionError):
        collapse_indicator(IndicatorMatrix.parse("10|01"), labeling_rule((1, 2)))


def test_collapse_inverts_expansion():
    for i in positive_targets(5):
        for mip in enumerate_multiindex_partitions(i):
            assert collapse_indicator(to_dummy_indicator(mip), labeling_rule(i)) == mip


def test_preimages_example():
    mip = MultiIndexPartition.parse("1,0,0|0,1,1^2")
    got = indicator_preimages(mip, labeling_rule((1, 2, 2)))
    names = {from_indicator(m).render() for m in got}
    assert names == {"1|24|35", "1|25|34"}
    assert len(got) == subdivision_coefficient(mip) == 2


def test_preimage_single_column():
    mip = MultiIndexPartition.from_columns([(2, 1)])
    got = indicator_preimages(mip, labeling_rule((2, 1)))
    assert len(got) == 1
    assert got[0].render() == "111"


def test_preimage_counts_match_subdivision_coefficient():
    """Every positive target with |i| <= 5, and every target with |i| <= 6 and arity <= 3."""
    small = {i for a in range(1, 4) for i in product(range(7), repeat=a) if 1 <= sum(i) <= 6}
    targets = sorted(small | set(positive_targets(5)))
    for i in targets:
        lab = labeling_rule(i)
        for mip in enumerate_multiindex_partitions(i):
            pre = indicator_preimages(mip, lab)
            assert all(a.columns > b.columns for a, b in zip(pre, pre[1:])), mip
            assert len(pre) == subdivision_coefficient(mip), mip
            for mat in pre:
                assert collapse_indicator(mat, lab) == mip


_P8 = SetPartition.parse("1,4,7|2,5,8|3,6")
_MIP = MultiIndexPartition.parse("2,1|1,2|1,1")
_WALKS = {
    "partition-keys": lambda: list(_iter_partition_keys(range(1, 8))),
    "mip-walk": lambda: list(_mip_walk((3, 3))),
    "twoblock-runs": lambda: list(_twoblock_runs(_P8, _block_text(8), "|")),
    "twoblock-keys": lambda: list(_twoblock_keys(_P8)),
    "preimages": lambda: indicator_preimages(_MIP, labeling_rule(_MIP.target)),
}


@pytest.mark.parametrize("walk", _WALKS)
def test_walks_leave_no_cyclic_garbage(walk):
    # with the collector off, whatever a walk leaves in a reference cycle
    # outlives it; the first call warms any cache the walk fills
    _WALKS[walk]()
    gc.collect()
    gc.disable()
    try:
        _WALKS[walk]()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_preimages_of_repeated_columns_are_fast():
    for text, count in (("1^12", 1), ("1,0^6|0,1^6", 1), ("2^6", 10395)):
        mip = MultiIndexPartition.parse(text)
        start = time.perf_counter()
        got = indicator_preimages(mip, labeling_rule(mip.target))
        assert time.perf_counter() - start < 2.0, text
        assert len(got) == count, text


def test_preimage_distinct_unit_columns_is_singleton():
    for n in range(2, 6):
        lab = labeling_rule((1,) * n)
        for mip in enumerate_multiindex_partitions((1,) * n):
            assert len(indicator_preimages(mip, lab)) == 1
