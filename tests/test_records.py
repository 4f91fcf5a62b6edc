"""The package's record classes: equality, hashing, repr, immutability and
construction checks, as callers (sets, dict keys, pickles, tests) rely on them."""

import copy
import pickle

import pytest

from cumulants import (
    BenchReport,
    BenchRow,
    CspResult,
    DimensionError,
    IndicatorMatrix,
    IntegerPartition,
    MalformedMatrixError,
    MultiIndexPartition,
    SetPartition,
    VariableLabeling,
    csp_twoblock,
)


def _frozen():
    return [
        (IntegerPartition((2, 3)), "IntegerPartition(parts=(3, 2))"),
        (
            MultiIndexPartition.parse("0,1^2|1,0"),
            "MultiIndexPartition(columns=((1, 0), (0, 1)), multiplicities=(1, 2))",
        ),
        (
            IndicatorMatrix.parse("0011|1100"),
            "IndicatorMatrix(n=4, columns=((1, 1, 0, 0), (0, 0, 1, 1)))",
        ),
        (VariableLabeling([2, 0, 1]), "VariableLabeling(target=(2, 0, 1))"),
    ]


def _mutable():
    p = SetPartition(3, [(1, 2), (3,)])
    row = BenchRow(IntegerPartition((2, 1)), {"twoblock": 0.25}, 2, 3)
    return [
        (
            CspResult(p, "twoblock", (((1, 3), (2,)),), 0.5),
            "CspResult(input=SetPartition('12|3'), algorithm='twoblock', "
            "keys=(((1, 3), (2,)),), elapsed=0.5)",
        ),
        (
            row,
            "BenchRow(block_type=IntegerPartition(parts=(2, 1)), "
            "median_seconds={'twoblock': 0.25}, complementary_count=2, "
            "not_complementary_count=3)",
        ),
        (
            BenchReport([row], reps=3, clock_resolution=1e-09),
            f"BenchReport(rows=[{row!r}], reps=3, warmup=1, clock_resolution=1e-09)",
        ),
    ]


@pytest.mark.parametrize("value,text", _frozen() + _mutable())
def test_repr_names_every_field(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value,text", _frozen() + _mutable())
def test_equality_goes_by_fields_and_class(value, text):
    twin = copy.deepcopy(value)
    assert twin is not value and twin == value and not twin != value
    assert value != text and not value == text
    assert value != tuple(vars(value).values())
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("value,text", _frozen())
def test_frozen_hash_is_the_hash_of_the_fields(value, text):
    # the same hash as before keeps the iteration order of sets of records
    assert hash(value) == hash(tuple(vars(value).values()))
    assert len({value, copy.deepcopy(value)}) == 1
    assert {value: 1}[copy.deepcopy(value)] == 1


def test_indicator_matrices_as_set_members_and_dict_keys():
    a = IndicatorMatrix.parse("1100|0011")
    b = IndicatorMatrix(n=4, columns=((1, 1, 0, 0), (0, 0, 1, 1)))
    c = IndicatorMatrix.parse("1000|0111")
    assert a == b and a != c
    assert {a, b, c} == {a, c}
    assert {a: "x", c: "y"}[b] == "x"


@pytest.mark.parametrize("value,text", _frozen())
def test_frozen_fields_refuse_assignment_and_deletion(value, text):
    name = next(iter(vars(value)))
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) == before and not hasattr(value, "extra")


@pytest.mark.parametrize("value,text", _mutable())
def test_mutable_records_are_unhashable_and_assignable(value, text):
    with pytest.raises(TypeError):
        hash(value)
    name = next(iter(vars(value)))
    setattr(value, name, None)
    assert getattr(value, name) is None


def test_keyword_construction():
    assert IntegerPartition(parts=[1, 2]).parts == (2, 1)
    mip = MultiIndexPartition(columns=((1, 0), (0, 1)), multiplicities=(1, 2))
    assert mip == MultiIndexPartition.parse("1,0|0,1^2")
    assert VariableLabeling(target=(1, 1)).positions == 2
    p = SetPartition(2, [(1, 2)])
    res = CspResult(input=p, algorithm="graph", keys=(), elapsed=0.0)
    assert (res.input, res.algorithm, res.keys, res.elapsed) == (p, "graph", (), 0.0)
    row = BenchRow(
        block_type=IntegerPartition((1,)),
        median_seconds={},
        complementary_count=1,
        not_complementary_count=0,
    )
    assert row.complementary_count == 1
    report = BenchReport()
    assert (report.rows, report.reps, report.warmup, report.clock_resolution) == ([], 0, 1, 0.0)
    assert BenchReport().rows is not report.rows


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: IntegerPartition(()), ValueError, "parts must be positive"),
        (lambda: IntegerPartition((2, 0)), ValueError, "parts must be positive"),
        (lambda: MultiIndexPartition((), ()), ValueError, "at least one column required"),
        (lambda: MultiIndexPartition(((1,),), (1, 1)), ValueError, "lengths differ"),
        (lambda: MultiIndexPartition(((1, 0), (1,)), (1, 1)), DimensionError, "mixed arities"),
        (lambda: MultiIndexPartition(((0, 0),), (1,)), ValueError, "zero column"),
        (lambda: MultiIndexPartition(((0, 1), (1, 0)), (1, 1)), ValueError, "strictly decreasing"),
        (lambda: MultiIndexPartition(((1,),), (0,)), ValueError, "multiplicities must be >= 1"),
        (lambda: IndicatorMatrix(0, ((),)), MalformedMatrixError, "at least one row"),
        (lambda: IndicatorMatrix(2, ()), MalformedMatrixError, "at least one column"),
        (lambda: IndicatorMatrix(2, ((1,),)), MalformedMatrixError, "column length"),
        (lambda: IndicatorMatrix(2, ((1, 2),)), MalformedMatrixError, "0 or 1"),
        (lambda: IndicatorMatrix(2, ((1, 0), (1, 1))), MalformedMatrixError, "row 1 has 2 ones"),
        (lambda: IndicatorMatrix(2, ((0, 1), (1, 0))), MalformedMatrixError, "strictly decreasing"),
        (lambda: VariableLabeling((0, 0)), ValueError, "positive order"),
        (lambda: VariableLabeling((1, -1)), ValueError, "negative entry"),
        (lambda: VariableLabeling((1.5,)), ValueError, "must be integers"),
    ],
)
def test_construction_checks(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_csp_result_builds_complementary_once():
    res = csp_twoblock(SetPartition(3, [(1, 2), (3,)]))
    first = res.complementary
    assert [str(q) for q in first] == ["123", "13|2", "1|23"]
    assert res.complementary is first
    assert vars(res)["complementary"] is first
