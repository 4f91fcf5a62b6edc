"""Power sums, distinct-index statistics, polykays and estimator evaluation."""

import csv
import io
import json
import math
import random
import time
import tracemalloc
from array import array
from fractions import Fraction
from itertools import permutations, product
from unittest.mock import patch

import pytest

from cumulants import (
    BoundsError,
    DimensionError,
    InsufficientSampleError,
    MultiIndexPartition,
    ParseError,
    Polynomial,
    PowerSumPolynomial,
    SampleMatrix,
    SetPartition,
    cumulants_to_moments,
    distinct_index_expansion,
    evaluate,
    generalized_cumulant_estimator,
    generalized_multivariate_cumulant,
    generalized_multivariate_cumulant_estimator,
    load_csv,
    polykay,
    power_sum,
    to_indicator,
)
from cumulants import estimation
from cumulants.cli import main
from cumulants.estimation import _integer_column


def mono(*labels):
    """Canonical power-sum monomial key from labels (with optional multiplicity)."""
    counts = {}
    for lab in labels:
        if isinstance(lab[0], tuple):
            lab, mult = lab
        else:
            mult = 1
        counts[tuple(lab)] = counts.get(tuple(lab), 0) + mult
    return tuple(sorted(counts.items(), reverse=True))


def iter_index_partitions(items):
    """All partitions of a list of positions (local, independent of the package)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in iter_index_partitions(rest):
        for k in range(len(smaller)):
            yield smaller[:k] + [[first] + smaller[k]] + smaller[k + 1:]
        yield [[first]] + smaller


# local integer polynomials in N, ascending coefficients
def padd(a, b):
    out = list(a) + [0] * (len(b) - len(a)) if len(a) < len(b) else list(a)
    for k, c in enumerate(b):
        out[k] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def falling_poly(r):
    out = (1,)
    for j in range(r):
        out = pmul(out, (-j, 1))
    return out


DATA_2X2 = SampleMatrix.from_rows([[1.0, 2.0], [3.0, 4.0]])


# --- power sums ---------------------------------------------------------------


def test_power_sum_examples():
    assert power_sum(DATA_2X2, (1, 0)) == 4.0
    assert power_sum(DATA_2X2, (1, 2)) == 52.0
    assert power_sum(DATA_2X2, (0, 0)) == 2.0


def test_power_sum_is_exact_on_decimal_values():
    values = [0.1, 0.2, 0.3, -0.7, 1e-3]
    data = SampleMatrix.from_rows([[x, 1.0 - x] for x in values])
    for t in [(1, 0), (2, 0), (3, 1), (0, 4)]:
        want = sum(Fraction(x) ** t[0] * Fraction(1.0 - x) ** t[1] for x in values)
        assert power_sum(data, t) == want, t


def test_power_sum_wide_range_column_stays_exact():
    # scaling 1e300 by the 2**1074 that 5e-324 needs overflows a float
    rows = [[5e-324, 2.0], [1e300, -0.5], [-3.25, 1e-10]]
    data = SampleMatrix.from_rows(rows)
    for t in [(1, 0), (2, 0), (3, 0), (1, 1), (2, 3)]:
        want = sum(Fraction(a) ** t[0] * Fraction(b) ** t[1] for a, b in rows)
        assert power_sum(data, t) == want, t


def test_power_sum_cached_integer_columns_stay_exact():
    # 1e300 scaled by the 2**1074 that 5e-324 needs is beyond the float range,
    # so the first column is converted through the exact ratios
    rows = [[1e300, 3.0], [-1e300, -0.5], [5e-324, 1e-10], [-0.0, 7.25]]
    data = SampleMatrix.from_rows(rows)
    labels = [(e, f) for e in (1, 2, 3) for f in (0, 1, 2)]
    first = [power_sum(data, t) for t in labels]
    for t, got in zip(labels, first):
        want = sum(Fraction(a) ** t[0] * Fraction(b) ** t[1] for a, b in rows)
        assert got == want, t
    assert [power_sum(data, t) for t in labels] == first


def _assert_exact_integer_column(column):
    k, ints = _integer_column([array("d", column)], 0)
    assert k == max(Fraction(x).denominator.bit_length() - 1 for x in column)
    assert [Fraction(v, 1 << k) for v in ints] == [Fraction(x) for x in column]


def test_integer_column_finds_a_late_larger_shift():
    # the first thousand entries need shift 1; only row 5000 needs 40
    column = [(i % 9) - 3.5 for i in range(6000)]
    column[5000] = 0.5 + 2.0 ** -40
    _assert_exact_integer_column(column)


@pytest.mark.parametrize("late", [False, True])
def test_integer_column_overflowing_scale(late):
    # 1e300 times the 2**1074 that 5e-324 needs is beyond the float range,
    # whether 5e-324 is among the leading entries or not
    column = [0.25 * i for i in range(3000)]
    column[2500 if late else 10] = 5e-324
    column[20] = 1e300
    _assert_exact_integer_column(column)


def test_integer_column_check_overflows_before_a_late_shift():
    # the leading entries need shift 2, which already takes 1.7e308 past the
    # float range, so the larger shift of row 2500 is never seen by the check
    column = [0.25 * i for i in range(3000)]
    column[20] = 1.7e308
    column[2500] = 2.0 ** -30
    _assert_exact_integer_column(column)


def test_integer_column_subnormals():
    column = [5e-324, -2.5e-320, 1e-310, 0.0, -0.0, 3.0, 2.0 ** -1022]
    _assert_exact_integer_column(column * 300)
    _assert_exact_integer_column([1.5] * 1500 + column)


def test_power_sum_matches_fractions_past_the_shift_probe():
    rng = random.Random(5000)
    rows = [[rng.randrange(-512, 512) / 8, rng.random()] for _ in range(5000)]
    rows[4321][0] = 3 + 2.0 ** -40
    data = SampleMatrix.from_rows(rows)
    for t in [(1, 0), (2, 0), (3, 1), (0, 2)]:
        want = sum(Fraction(a) ** t[0] * Fraction(b) ** t[1] for a, b in rows)
        assert power_sum(data, t) == want, t


def test_power_sum_arity_mismatch():
    with pytest.raises(DimensionError):
        power_sum(DATA_2X2, (1, 0, 0))


# --- distinct-index expansions ----------------------------------------------------


def test_distinct_index_pair():
    got = distinct_index_expansion([(1, 0), (0, 1)])
    assert got.order == 2
    assert got.terms == {mono((1, 0), (0, 1)): (1,), mono((1, 1)): (-1,)}


def test_distinct_index_single_factor():
    got = distinct_index_expansion([(2, 1)])
    assert got.order == 1
    assert got.terms == {mono((2, 1)): (1,)}


def test_distinct_index_triple():
    got = distinct_index_expansion([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert got.order == 3
    assert got.terms == {
        mono((1, 0, 0), (0, 1, 0), (0, 0, 1)): (1,),
        mono((1, 1, 0), (0, 0, 1)): (-1,),
        mono((1, 0, 1), (0, 1, 0)): (-1,),
        mono((0, 1, 1), (1, 0, 0)): (-1,),
        mono((1, 1, 1)): (2,),
    }


def brute_distinct_average(data, factors):
    r = len(factors)
    n_obs = data.num_rows
    data_rows = data.rows
    total = 0.0
    for rows in permutations(range(n_obs), r):
        prod = 1.0
        for a, l in zip(factors, rows):
            for j, e in enumerate(a):
                if e:
                    prod *= data_rows[l][j] ** e
        total += prod
    den = 1
    for j in range(r):
        den *= n_obs - j
    return total / den


def test_distinct_index_matches_brute_force():
    rng = random.Random(1234)
    data5 = SampleMatrix.from_rows(
        [[rng.uniform(-2, 2) for _ in range(2)] for _ in range(5)]
    )
    data6 = SampleMatrix.from_rows(
        [[rng.uniform(-2, 2) for _ in range(3)] for _ in range(6)]
    )
    cases2 = [
        [(1, 0), (0, 1)],
        [(2, 0), (0, 1)],
        [(1, 1), (1, 0)],
    ]
    cases3 = [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(1, 1, 0), (0, 0, 1), (1, 0, 0)],
        [(2, 0, 0), (0, 1, 1)],
    ]
    for factors in cases2:
        got = evaluate(distinct_index_expansion(factors), data5)
        want = brute_distinct_average(data5, factors)
        assert got == pytest.approx(want, rel=1e-9), factors
    for factors in cases3:
        got = evaluate(distinct_index_expansion(factors), data6)
        want = brute_distinct_average(data6, factors)
        assert got == pytest.approx(want, rel=1e-9), factors


# --- polykays -------------------------------------------------------------------------


def test_polykay_displayed_trivariate_formula():
    got = polykay(MultiIndexPartition.parse("1,1,0|0,0,1"))
    want = PowerSumPolynomial(
        3,
        3,
        {
            mono((0, 0, 1), (1, 0, 0), (0, 1, 0)): (-1,),
            mono((0, 0, 1), (1, 1, 0)): (-1, 1),
            mono((0, 1, 0), (1, 0, 1)): (1,),
            mono((0, 1, 1), (1, 0, 0)): (1,),
            mono((1, 1, 1)): (0, -1),
        },
    )
    assert got == want


def test_polykay_bivariate_covariance():
    got = polykay(MultiIndexPartition.parse("1,1"))
    want = PowerSumPolynomial(
        2, 2, {mono((1, 1)): (0, 1), mono((1, 0), (0, 1)): (-1,)}
    )
    assert got == want


def test_polykay_mean():
    got = polykay(MultiIndexPartition.parse("1"))
    assert got.order == 1
    assert got.terms == {mono((1,)): (1,)}


def expectation_in_moments(expr):
    """E[expr] * N^(expr.order) as a map from moment monomials to N-polynomials.

    Uses E[S_{a_1} ... S_{a_r}] = sum over coincidence patterns of the row
    indexes of N^(parts) times the product of merged moments; rows are i.i.d.
    """
    out = {}
    for key, cpoly in expr.terms.items():
        factors = []
        for lab, mult in key:
            factors.extend([lab] * mult)
        for pattern in iter_index_partitions(range(len(factors))):
            labels = []
            for block in pattern:
                labels.append(
                    tuple(
                        sum(factors[j][k] for j in block)
                        for k in range(expr.arity)
                    )
                )
            mkey = mono(*labels)
            contrib = pmul(cpoly, falling_poly(len(pattern)))
            out[mkey] = padd(out.get(mkey, ()), contrib)
    return {k: v for k, v in out.items() if v}


def test_polykay_symbolic_unbiasedness():
    """E[polykay] equals the target cumulant product, checked exactly as
    rational functions of N for every multi-index partition of small targets."""
    from cumulants import Polynomial, enumerate_multiindex_partitions

    targets = [(2,), (3,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (1, 1, 2)]
    for i in targets:
        for mip in enumerate_multiindex_partitions(i):
            if mip.length > 3:
                continue
            pk = polykay(mip)
            got = expectation_in_moments(pk)
            target_poly = Polynomial.one(mip.arity, "mu")
            for col, rep in zip(mip.columns, mip.multiplicities):
                target_poly = target_poly * (cumulants_to_moments(col) ** rep)
            want = {
                key: pmul((coeff,), falling_poly(pk.order))
                for key, coeff in target_poly.terms.items()
            }
            assert got == want, mip


# --- estimators of generalized cumulants -------------------------------------------------


def test_estimator_generalized_cumulant_1_23():
    got = generalized_cumulant_estimator(to_indicator(SetPartition.parse("1|23")))
    want = PowerSumPolynomial(
        3, 2, {mono((1, 1, 1)): (0, 1), mono((1, 0, 0), (0, 1, 1)): (-1,)}
    )
    assert got == want
    assert got.pretty() == "(N S[1,1,1] - S[1,0,0] S[0,1,1]) / N(N-1)"


def test_estimator_generalized_cumulant_pair():
    got = generalized_cumulant_estimator(to_indicator(SetPartition.parse("1|2")))
    want = PowerSumPolynomial(
        2, 2, {mono((1, 1)): (0, 1), mono((1, 0), (0, 1)): (-1,)}
    )
    assert got == want


def test_estimator_top_reduces_to_sample_mean_of_product():
    for n in (2, 3, 4):
        top = SetPartition(n, [tuple(range(1, n + 1))])
        got = generalized_cumulant_estimator(to_indicator(top))
        assert got.order == 1
        assert got.terms == {mono((1,) * n): (1,)}


def test_estimator_gmc_cov_x1_x2sq():
    got = generalized_multivariate_cumulant_estimator(MultiIndexPartition.parse("1,0|0,2"))
    want = PowerSumPolynomial(
        2, 2, {mono((1, 2)): (0, 1), mono((1, 0), (0, 2)): (-1,)}
    )
    assert got == want
    assert got.pretty() == "(N S[1,2] - S[1,0] S[0,2]) / N(N-1)"


def test_pretty_of_a_term_without_factors_is_its_coefficient():
    for c in (1, 2, -1, -2):
        want = Polynomial(1, {(): c}).pretty()
        assert PowerSumPolynomial(1, 0, {(): (c,)}).pretty() == want == str(c)
    assert PowerSumPolynomial(1, 0, {(): (-1, 2)}).pretty() == "(2 N - 1)"
    got = PowerSumPolynomial(1, 1, {(): (0, 2), mono((1,)): (3,)})
    assert got.pretty() == "(3 S[1] + 2 N) / N"


def test_estimator_gmc_single_column_is_moment_estimator():
    for i in [(2, 1), (3,), (1, 1, 1)]:
        mip = MultiIndexPartition.from_columns([i])
        got = generalized_multivariate_cumulant_estimator(mip)
        assert got.order == 1
        assert got.terms == {mono(i): (1,)}


def test_estimator_gmc_repeated_variable_labels():
    mip = MultiIndexPartition.from_columns([(1, 1, 1), (0, 1, 1)])
    got = generalized_multivariate_cumulant_estimator(mip)
    want = PowerSumPolynomial(
        3, 2, {mono((1, 2, 2)): (0, 1), mono((1, 1, 1), (0, 1, 1)): (-1,)}
    )
    assert got == want


def test_estimator_gmc_matches_weighted_polykay_sum():
    """The closed-form builder equals replacing every cumulant product in the
    dummy-variable expansion by its polykay, on every multi-index partition
    with |i| <= 6 and at most three variables."""
    from cumulants import enumerate_multiindex_partitions

    targets = [
        i
        for arity in range(1, 4)
        for i in product(range(7), repeat=arity)
        if 1 <= sum(i) <= 6
    ]
    cache = {}

    def pk(mip):
        if mip not in cache:
            cache[mip] = polykay(mip)
        return cache[mip]

    for i in targets:
        for mip in enumerate_multiindex_partitions(i):
            est = generalized_multivariate_cumulant_estimator(mip)
            expansion = generalized_multivariate_cumulant(mip)
            total = PowerSumPolynomial.zero(mip.arity)
            for key, coeff in expansion.terms.items():
                grouped = MultiIndexPartition(
                    tuple(mi for mi, _ in key), tuple(m for _, m in key)
                )
                total = total + pk(grouped).scale(coeff)
            assert est == total, mip


def test_estimator_of_ones_is_the_k_statistic():
    """1^m is the joint cumulant of m copies of one variable, so its
    estimator is Fisher's k-statistic k_m, the polykay of the single column m."""
    for m in range(1, 8):
        got = generalized_multivariate_cumulant_estimator(MultiIndexPartition.parse(f"1^{m}"))
        assert got == polykay(MultiIndexPartition.parse(str(m))), m


def test_estimator_gmc_degree_bookkeeping():
    for text in ("1,0|0,2", "1,1,1|0,1,1", "2,1", "1,0,0|0,1,0|0,0,1"):
        mip = MultiIndexPartition.parse(text)
        est = generalized_multivariate_cumulant_estimator(mip)
        for key in est.terms:
            total = [0] * mip.arity
            for lab, mult in key:
                for k, e in enumerate(lab):
                    total[k] += mult * e
            assert tuple(total) == mip.target, (text, key)


# --- evaluation ------------------------------------------------------------------------


def test_evaluate_covariance_example():
    expr = generalized_cumulant_estimator(to_indicator(SetPartition.parse("1|2")))
    assert evaluate(expr, DATA_2X2) == pytest.approx(2.0)


def test_evaluate_sample_mean():
    expr = polykay(MultiIndexPartition.parse("1"))
    data = SampleMatrix.from_rows([[5.0], [7.0], [9.0]])
    assert evaluate(expr, data) == pytest.approx(7.0)
    single = SampleMatrix.from_rows([[4.0]])
    assert evaluate(expr, single) == pytest.approx(4.0)


def _centred_k_statistics(xs):
    """k2 and k3 of a sample from central sums, in exact rationals."""
    xs = [Fraction(x) for x in xs]
    n = len(xs)
    mean = sum(xs) / n
    m2 = sum((x - mean) ** 2 for x in xs)
    m3 = sum((x - mean) ** 3 for x in xs)
    return m2 / (n - 1), n * m3 / ((n - 1) * (n - 2))


def test_evaluate_is_exact_on_offset_data():
    rng = random.Random(20240805)
    xs = [1e8 + round(rng.gammavariate(2.0, 1.0) * 1024) / 1024 for _ in range(1000)]
    data = SampleMatrix.from_rows([[x] for x in xs])
    k2, k3 = _centred_k_statistics(xs)
    for text, want in (("1^2", k2), ("1^3", k3)):
        est = generalized_multivariate_cumulant_estimator(MultiIndexPartition.parse(text))
        assert evaluate(est, data) == float(want), text


def test_evaluate_outside_float_range():
    data = SampleMatrix.from_rows([[1e300], [-1e300], [0.0]])
    with pytest.raises(BoundsError):
        evaluate(polykay(MultiIndexPartition.parse("2")), data)


def test_distinct_index_expansion_enforces_ground_set_bound():
    t0 = time.perf_counter()
    with pytest.raises(BoundsError):
        distinct_index_expansion([(1,)] * 13)  # Bell(13) partitions of the factors
    assert time.perf_counter() - t0 < 1.0


def test_estimator_builders_enforce_ground_set_bound():
    mip = MultiIndexPartition.parse("1,1^7")  # |i| = 14 dummy elements
    with pytest.raises(BoundsError):
        polykay(mip)
    with pytest.raises(BoundsError):
        generalized_multivariate_cumulant_estimator(mip)
    with pytest.raises(BoundsError):
        generalized_cumulant_estimator(to_indicator(SetPartition.parse(
            "1,2|3,4|5,6|7,8|9,10|11,12|13")))


def test_evaluate_insufficient_sample():
    expr = polykay(MultiIndexPartition.parse("1,1,0|0,0,1"))
    data = SampleMatrix.from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(InsufficientSampleError) as err:
        evaluate(expr, data)
    assert "3" in str(err.value)


def test_evaluate_arity_mismatch():
    expr = polykay(MultiIndexPartition.parse("1,1"))
    with pytest.raises(DimensionError):
        evaluate(expr, SampleMatrix.from_rows([[1.0], [2.0], [3.0]]))


def test_power_sum_polynomial_equality_is_canonical():
    a = distinct_index_expansion([(1, 0), (0, 1)])
    b = distinct_index_expansion([(0, 1), (1, 0)])
    assert a == b


# --- data ingestion -----------------------------------------------------------------------


def test_load_csv_plain(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,4\n")
    data = load_csv(path)
    assert data.num_rows == 2 and data.num_cols == 2
    assert data.rows == ((1.0, 2.0), (3.0, 4.0))
    assert data.names is None


def test_load_csv_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2\n1,2\n3,4\n")
    data = load_csv(path, has_header=True)
    assert data.names == ("x1", "x2")
    assert data.num_rows == 2


def test_load_csv_ragged(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert "row 2" in str(err.value)


def test_load_csv_non_numeric(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert "row 2" in str(err.value) and "column 2" in str(err.value)


@pytest.mark.parametrize("bad, where", [
    ("3,oops", "row 5000, column 2"),
    ("nan,4", "row 5000, column 1"),
    ("3,-inf", "row 5000, column 2"),
    ("3", "row 5000 has 1 fields"),
])
def test_load_csv_locates_late_errors(tmp_path, bad, where):
    path = tmp_path / "d.csv"
    lines = [f"{r}.5,{r}" for r in range(1, 10_001)]
    lines[4999] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert where in str(err.value)


def test_load_csv_quoted_numbers(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('"x1","x2"\n"1","2.5"\n3,4\n')
    data = load_csv(path, has_header=True)
    assert data.names == ("x1", "x2")
    assert data.rows == ((1.0, 2.5), (3.0, 4.0))


@pytest.mark.parametrize("content, has_header, rows, names", [
    (b"1,2\r\n3,4\r\n", False, ((1.0, 2.0), (3.0, 4.0)), None),
    (b"1,2\n\n3,4\n", False, ((1.0, 2.0), (3.0, 4.0)), None),
    (b"1,2\n3,4", False, ((1.0, 2.0), (3.0, 4.0)), None),
    (b'"x1","x2"\n1,2\n3,4\n', True, ((1.0, 2.0), (3.0, 4.0)), ("x1", "x2")),
    (b"\xef\xbb\xbf1,2\n3,4\n", False, ((1.0, 2.0), (3.0, 4.0)), None),
    (b"\xef\xbb\xbfx1,x2\n1,2\n3,4\n", True, ((1.0, 2.0), (3.0, 4.0)), ("x1", "x2")),
    (b'\xef\xbb\xbf"x1","x2"\n"1",2\n', True, ((1.0, 2.0),), ("x1", "x2")),
], ids=["crlf", "blank-line", "no-final-newline", "quoted-header",
        "byte-order-mark", "byte-order-mark-header", "byte-order-mark-quoted"])
def test_load_csv_accepts(tmp_path, content, has_header, rows, names):
    path = tmp_path / "d.csv"
    path.write_bytes(content)
    data = load_csv(path, has_header=has_header)
    assert data.rows == rows and data.names == names


@pytest.mark.parametrize("content, has_header, message", [
    (b"1,2\n3,\x004\n", False, "row 2, column 2"),
    (b"1,2\n3,0." + b"0" * 200_000 + b"1\n", False, "field larger than field limit"),
    (b"x1,x2\n", True, "no data rows"),
    (b"1,2\n  \n3,4\n", False, "row 2 has 1 fields"),
    (b"3,4\n1_0,2\n", False, "non-numeric value '1_0' at row 2, column 1"),
    (b"1,2\n3,0." + b"0" * 131_080 + b"1\n", False, "field larger than field limit"),
], ids=["nul", "oversized-finite-field", "header-only", "whitespace-line", "underscore",
        "oversized-field-in-one-piece"])
def test_load_csv_rejects(tmp_path, content, has_header, message):
    path = tmp_path / "d.csv"
    path.write_bytes(content)
    with pytest.raises(ParseError) as err:
        load_csv(path, has_header=has_header)
    assert message in str(err.value)


def test_load_csv_empty(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_csv(path)


def _sample_or_error(read, path, has_header):
    """What a reader makes of a file: its column bytes and names, or the text
    of the ``ParseError`` it raises."""
    try:
        data = read(path, has_header)
    except ParseError as exc:
        return str(exc)
    return [c.tobytes() for c in data.columns], data.names


def test_load_csv_plain_path_reads_like_the_cell_reader(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    numeral = st.builds(
        "{}{}{}{}{}".format,
        st.sampled_from(["", " "]),
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(["0", "7", "12", "3.5", ".25", "4."]),
        st.sampled_from(["", "e3", "E-2", "e+1"]),
        st.sampled_from(["", " ", "  "]),
    )
    odd = st.sampled_from(["", "x", "nan", "-inf", "1e999", "1_0", '"3"', '" 2.5"', "\x00"])

    @st.composite
    def files(draw):
        width = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(numeral, min_size=width, max_size=width),
                             min_size=1, max_size=6))
        plain = not draw(st.booleans())
        if not plain:  # one cell that is not a plain numeral
            rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, width - 1))] = draw(odd)
        lines = [",".join(row) for row in rows]
        for at in draw(st.lists(st.integers(0, len(lines)), max_size=2)):
            lines.insert(at, draw(st.sampled_from(["", "", "  "])))
            plain = plain and lines[at] == ""
        if draw(st.integers(0, 3)) == 0:  # a ragged row
            at = draw(st.integers(0, len(lines) - 1))
            lines[at] = draw(st.sampled_from([lines[at] + ",1", lines[at].rpartition(",")[0]]))
            plain = False
        has_header = draw(st.booleans())
        if has_header:
            quote = draw(st.sampled_from(["", '"']))
            lines.insert(0, ",".join(f"{quote}x{j}{quote}" for j in range(width)))
        ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                             min_size=len(lines), max_size=len(lines)))
        if not draw(st.booleans()):  # no final line end
            ends[-1] = ""
        text = "".join(map(str.__add__, lines, ends))
        bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
        chunk = draw(st.sampled_from([1, 2, 5, 1 << 16]))
        return bom + text.encode(), has_header, chunk, plain

    path = tmp_path / "d.csv"

    @hypothesis.settings(deadline=None, derandomize=True, max_examples=400)
    @hypothesis.given(files())
    def check(case):
        content, has_header, chunk, plain = case
        path.write_bytes(content)
        want = _sample_or_error(estimation._load_csv_cells, path, has_header)
        with patch.object(estimation, "_CHUNK", chunk):
            assert _sample_or_error(load_csv, path, has_header) == want
            try:
                read = _sample_or_error(estimation._load_csv_columns, path, has_header)
            except (ValueError, csv.Error):
                assert not plain  # every file of plain numerals takes the plain path
                return
        assert read == want

    check()


def _rows_ending_at(end, eol):
    """About 150 KiB of rows "r.25,-r", each followed by ``eol``; the row that
    ends near character ``end`` has leading zeros, so that it ends exactly there."""
    text, padded, r = "", False, 0
    while len(text) < 150 * 1024:
        r += 1
        row = f"{r}.25,-{r}"
        if not padded and end - len(text) < 40 + len(row):
            row, padded = row.rjust(end - len(text), "0"), True
        text += row + eol
    return text, r


@pytest.mark.parametrize("end, eol", [
    (estimation._CHUNK - 1, "\r\n"),
    (estimation._CHUNK + 5, "\n"),
    (estimation._CHUNK + 5, "\r"),
], ids=["crlf-pair-across-the-chunk", "row-across-the-chunk", "lone-cr"])
def test_load_csv_reads_rows_across_chunk_boundaries(tmp_path, end, eol):
    text, rows = _rows_ending_at(end, eol)
    assert text[end:end + len(eol)] == eol
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    with open(path, newline="", encoding="utf-8") as fh:  # at most a chunk and a row a piece
        pieces = estimation._line_chunks(fh, csv.field_size_limit())
        assert max(map(len, pieces)) < estimation._CHUNK + 40
    plain = estimation._load_csv_columns(path, False)
    assert plain.columns == (array("d", (r + 0.25 for r in range(1, rows + 1))),
                             array("d", (-r for r in range(1, rows + 1))))
    want = _sample_or_error(estimation._load_csv_cells, path, False)
    assert _sample_or_error(load_csv, path, False) == want == (
        [c.tobytes() for c in plain.columns], None)


def test_line_chunks_refuse_a_line_longer_than_the_limit():
    with patch.object(estimation, "_CHUNK", 64):
        pieces = estimation._line_chunks(io.StringIO("1,2\n" + "0" * 300), 100)
        assert next(pieces) == "1,2"
        with pytest.raises(ValueError):  # before the line is read to its end
            next(pieces)


def test_load_csv_accepts_finite_columns_whose_sum_overflows(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("1e308,1\n1e308,2\n")
    data = estimation._load_csv_columns(path, False)
    assert data.rows == load_csv(path).rows == ((1e308, 1.0), (1e308, 2.0))
    assert sum(data.columns[0]) == math.inf
    assert main(["estimate", "--data", str(path), "--lambda", "1,0|0,1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["estimate"] == 0.0
    with pytest.raises(ValueError, match="row 3, column 1"):
        SampleMatrix.from_rows([[1e308, 1.0], [1e308, 2.0], [-math.inf, 3.0]])


def test_load_csv_peak_memory_is_below_twice_the_columns(tmp_path):
    rng = random.Random(11)
    path = tmp_path / "d.csv"
    path.write_text("".join(
        f"{rng.random():.12f},{rng.gauss(0.0, 1.0):.12f},{r}\n" for r in range(100_000)
    ))
    tracemalloc.start()
    try:
        data = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(len(c) * c.itemsize for c in data.columns)
    assert data.num_rows == 100_000 and held == 2_400_000
    assert peak < 2 * held


def test_sample_matrix_validation():
    with pytest.raises(ValueError):
        SampleMatrix.from_rows([[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError):
        SampleMatrix.from_rows([[float("nan"), 1.0]])
    with pytest.raises(ValueError):
        SampleMatrix.from_rows([])
    with pytest.raises(ValueError):
        SampleMatrix.from_rows([[1.0, 2.0]], names=["x1"])


# --- seeded simulation smoke (the full run lives in the acceptance suite) ------------------


def test_estimator_is_unbiased_in_simulation_smoke():
    rng = random.Random(7)
    expr = generalized_multivariate_cumulant_estimator(MultiIndexPartition.parse("1,0|0,2"))
    reps, n_obs = 400, 30
    root = math.sqrt(0.75)
    values = []
    for _ in range(reps):
        rows = []
        for _ in range(n_obs):
            z1 = rng.gauss(0.0, 1.0)
            z2 = rng.gauss(0.0, 1.0)
            rows.append((1.0 + z1, 2.0 + 0.5 * z1 + root * z2))
        values.append(evaluate(expr, SampleMatrix.from_rows(rows)))
    mean = sum(values) / reps
    var = sum((v - mean) ** 2 for v in values) / (reps - 1)
    se = math.sqrt(var / reps)
    assert abs(mean - 2.0) < 6 * se
