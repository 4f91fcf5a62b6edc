"""Moment/cumulant conversions, generalized cumulants and the sign identities."""

import json
import time
from itertools import product

import pytest

from cumulants import (
    CSP_ALGORITHMS,
    BoundsError,
    DimensionError,
    MultiIndexPartition,
    Polynomial,
    SetPartition,
    alternating_coarsening_sum,
    csp_twoblock_onevec,
    cumulants_to_moments,
    enumerate_multiindex_partitions,
    enumerate_partitions,
    generalized_cumulant,
    generalized_cumulant_in_moments,
    generalized_cumulant_subtractive,
    generalized_multivariate_cumulant,
    generalized_multivariate_cumulant_subtractive,
    indicator_preimages,
    labeling_rule,
    moment_product_expansion,
    moments_to_cumulants,
    subdivision_coefficient,
    to_dummy_indicator,
    to_indicator,
)
from cumulants.partitions import MAX_GROUND_SET


def term(*factors):
    """Canonical factor key from (multi-index, multiplicity) pairs or bare indexes."""
    counts = {}
    for f in factors:
        if isinstance(f[0], tuple):
            mi, mult = f
        else:
            mi, mult = f, 1
        counts[tuple(mi)] = counts.get(tuple(mi), 0) + mult
    return tuple(sorted(counts.items(), reverse=True))


def targets_up_to(max_order, max_arity):
    for arity in range(1, max_arity + 1):
        for i in product(*(range(max_order + 1) for _ in range(arity))):
            if 1 <= sum(i) <= max_order:
                yield i


# --- moment/cumulant conversions ------------------------------------------------


def test_moments_to_cumulants_111():
    got = moments_to_cumulants((1, 1, 1))
    want = {
        term((1, 1, 1)): 1,
        term((1, 1, 0), (0, 0, 1)): 1,
        term((1, 0, 1), (0, 1, 0)): 1,
        term((1, 0, 0), (0, 1, 1)): 1,
        term((1, 0, 0), (0, 1, 0), (0, 0, 1)): 1,
    }
    assert got.terms == want
    assert got.symbol == "kappa"


def test_moments_to_cumulants_small():
    assert moments_to_cumulants((1,)).terms == {term((1,)): 1}
    assert moments_to_cumulants((2,)).terms == {term((2,)): 1, term(((1,), 2)): 1}


def test_cumulants_to_moments_small():
    assert cumulants_to_moments((1,)).terms == {term((1,)): 1}
    got = cumulants_to_moments((1, 1))
    assert got.terms == {term((1, 1)): 1, term((1, 0), (0, 1)): -1}
    assert got.symbol == "mu"


def test_conversions_return_polynomials_the_caller_owns():
    # the expansions are cached; a caller that changes its result must not
    # change what a later call returns
    for convert in (moments_to_cumulants, cumulants_to_moments):
        first = convert((1, 1))
        want = dict(first.terms)
        first.terms.clear()
        again = convert([1, 1])
        assert again.terms == want and len(want) == 2, convert.__name__
        assert again is not convert((1, 1)), convert.__name__


def test_cumulants_to_moments_111():
    got = cumulants_to_moments((1, 1, 1))
    want = {
        term((1, 1, 1)): 1,
        term((1, 1, 0), (0, 0, 1)): -1,
        term((1, 0, 1), (0, 1, 0)): -1,
        term((1, 0, 0), (0, 1, 1)): -1,
        term((1, 0, 0), (0, 1, 0), (0, 0, 1)): 2,
    }
    assert got.terms == want


def test_conversions_are_formally_inverse():
    for i in targets_up_to(5, 3):
        via_k = moments_to_cumulants(i).substitute(cumulants_to_moments, "mu")
        assert via_k == Polynomial.single(i, "mu"), i
        via_m = cumulants_to_moments(i).substitute(moments_to_cumulants, "kappa")
        assert via_m == Polynomial.single(i, "kappa"), i


# --- generalized cumulants ---------------------------------------------------------


def test_generalized_cumulant_1_23():
    got = generalized_cumulant(SetPartition.parse("1|23"))
    want = {
        term((1, 1, 1)): 1,
        term((0, 1, 0), (1, 0, 1)): 1,
        term((0, 0, 1), (1, 1, 0)): 1,
    }
    assert got.terms == want


def test_generalized_cumulant_top_is_moment_expansion():
    p = SetPartition.parse("1234")
    assert generalized_cumulant(p) == moments_to_cumulants((1, 1, 1, 1))


def test_generalized_cumulant_of_singletons_is_joint_cumulant():
    p = SetPartition.parse("1|2|3|4")
    assert generalized_cumulant(p).terms == {term((1, 1, 1, 1)): 1}


def test_generalized_cumulant_matches_every_listing():
    # one term of coefficient 1 per listed partition: the product of the
    # indicators of its blocks, whichever of the five algorithms lists it
    for n in range(1, 6):
        for p in enumerate_partitions(n):
            got = generalized_cumulant(p).terms
            for name, algo in CSP_ALGORITHMS.items():
                want = {
                    term(*(tuple(int(e in b) for e in range(1, n + 1)) for b in q.blocks)): 1
                    for q in algo(p).complementary
                }
                assert got == want, (name, p.render())


def test_coefficient_one_law():
    for n in range(2, 7):
        for p in enumerate_partitions(n):
            poly = generalized_cumulant(p)
            assert all(c == 1 for c in poly.terms.values()), p.render()


def test_subtractive_route_agrees():
    for n in range(2, 7):
        for p in enumerate_partitions(n):
            assert generalized_cumulant_subtractive(p) == generalized_cumulant(p), p.render()


def test_subtractive_route_1_234_has_ten_terms():
    poly = generalized_cumulant_subtractive(SetPartition.parse("1|234"))
    assert len(poly.terms) == 10
    assert all(c == 1 for c in poly.terms.values())


# --- generalized multivariate cumulants ----------------------------------------------


def test_gmc_cov_x1_x2sq():
    got = generalized_multivariate_cumulant(MultiIndexPartition.parse("1,0|0,2"))
    assert got.terms == {term((1, 2)): 1, term((1, 1), (0, 1)): 2}
    assert got.pretty() == "κ[1,2] + 2 κ[1,1] κ[0,1]"


def test_gmc_single_column_is_moment_expansion():
    for i in [(1, 2), (2, 2), (3,), (1, 1, 1)]:
        mip = MultiIndexPartition.from_columns([i])
        assert generalized_multivariate_cumulant(mip) == moments_to_cumulants(i)


def test_gmc_standard_basis_is_single_cumulant():
    mip = MultiIndexPartition.from_columns([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    got = generalized_multivariate_cumulant(mip)
    assert got.terms == {term((1, 1, 1)): 1}


def test_gmc_distinct_variables_matches_set_partition_case():
    mip = MultiIndexPartition.from_columns([(1, 0, 0), (0, 1, 1)])
    got = generalized_multivariate_cumulant(mip)
    assert got == generalized_cumulant(SetPartition.parse("1|23"))


def test_gmc_two_paths_agree():
    # |i| = 7 and 8 lie beyond criterion 05's range
    beyond = ("2,1,1|1,1,2", "2,2|2,2", "1,1|1,1|1,1|1,1")
    mips = [mip for i in targets_up_to(4, 3) for mip in enumerate_multiindex_partitions(i)]
    for mip in mips + [MultiIndexPartition.parse(text) for text in beyond]:
        direct = generalized_multivariate_cumulant(mip)
        subtractive = generalized_multivariate_cumulant_subtractive(mip)
        assert direct == subtractive, mip


def test_gmc_subtractive_many_equal_columns_is_bounded():
    t0 = time.perf_counter()
    poly = generalized_multivariate_cumulant_subtractive(MultiIndexPartition.parse("3,3|3,3"))
    assert time.perf_counter() - t0 < 5.0
    assert len(poly) == 1042
    # coefficients count the partitions of [12] complementary to the dummy
    # partition of two 6-blocks: Bell(12) - Bell(6)^2 = 4213597 - 203^2
    assert sum(poly.terms.values()) == 4172388


def test_gmc_coefficient_bounds_and_sum_rule():
    for i in targets_up_to(4, 3):
        for mip in enumerate_multiindex_partitions(i):
            poly = generalized_multivariate_cumulant(mip)
            total = 0
            for key, coeff in poly.terms.items():
                grouped = MultiIndexPartition(
                    tuple(mi for mi, _ in key), tuple(m for _, m in key)
                )
                assert 1 <= coeff <= subdivision_coefficient(grouped), (mip, grouped)
                total += coeff
            n_comp = len(csp_twoblock_onevec(to_dummy_indicator(mip)))
            assert total == n_comp, mip


def test_gmc_degree_conservation():
    for i in [(1, 2), (2, 2), (1, 2, 2), (4,)]:
        for mip in enumerate_multiindex_partitions(i):
            poly = generalized_multivariate_cumulant(mip)
            for key in poly.terms:
                total = [0] * len(i)
                for mi, mult in key:
                    for k, e in enumerate(mi):
                        total[k] += mult * e
                assert tuple(total) == i, (mip, key)


# --- appendix identities ---------------------------------------------------------------


def test_gcim_example():
    got = generalized_cumulant_in_moments(to_indicator(SetPartition.parse("1|23")))
    assert got.terms == {term((1, 1, 1)): 1, term((1, 0, 0), (0, 1, 1)): -1}
    assert got.symbol == "mu"


def test_gcim_top_is_single_moment():
    got = generalized_cumulant_in_moments(to_indicator(SetPartition.parse("1234")))
    assert got.terms == {term((1, 1, 1, 1)): 1}


def test_gcim_singletons_is_cumulant_expansion():
    got = generalized_cumulant_in_moments(to_indicator(SetPartition.parse("1|2|3")))
    assert got == cumulants_to_moments((1, 1, 1))


def test_gcim_substitution_reproduces_generalized_cumulant():
    for n in range(2, 6):
        for p in enumerate_partitions(n):
            in_moments = generalized_cumulant_in_moments(to_indicator(p))
            collected = in_moments.substitute(moments_to_cumulants, "kappa")
            assert collected == generalized_cumulant(p), p.render()


def test_moment_product_expansion_examples():
    top = moment_product_expansion(to_indicator(SetPartition.parse("123")))
    assert top == moments_to_cumulants((1, 1, 1))
    bottom = moment_product_expansion(to_indicator(SetPartition.parse("1|2|3")))
    assert bottom.terms == {term((1, 0, 0), (0, 1, 0), (0, 0, 1)): 1}
    mid = moment_product_expansion(to_indicator(SetPartition.parse("12|3")))
    assert mid.terms == {
        term((1, 1, 0), (0, 0, 1)): 1,
        term((1, 0, 0), (0, 1, 0), (0, 0, 1)): 1,
    }


def test_alternating_sum_examples():
    assert alternating_coarsening_sum(to_indicator(SetPartition.parse("1|2"))) == 0
    assert alternating_coarsening_sum(to_indicator(SetPartition.parse("123"))) == 1
    assert alternating_coarsening_sum(to_indicator(SetPartition.parse("1|2|3"))) == 0


def test_alternating_sum_sweep():
    for n in range(1, 7):
        for p in enumerate_partitions(n):
            expected = 1 if p.num_blocks == 1 else 0
            assert alternating_coarsening_sum(to_indicator(p)) == expected, p.render()


# --- polynomial mechanics ----------------------------------------------------------------


def test_polynomial_pretty_and_json():
    poly = generalized_multivariate_cumulant(MultiIndexPartition.parse("1,0|0,2"))
    assert json.loads(poly.to_json())["terms"] == [
        {"coeff": 1, "factors": [[1, 2]]},
        {"coeff": 2, "factors": [[1, 1], [0, 1]]},
    ]
    assert moments_to_cumulants((2,)).pretty() == "κ[2] + κ[1]^2"
    assert cumulants_to_moments((1, 1)).pretty() == "μ[1,1] - μ[1,0] μ[0,1]"
    assert Polynomial.zero(2).pretty() == "0"


def test_polynomial_arithmetic():
    a = Polynomial.single((1, 0))
    b = Polynomial.single((0, 1))
    prod = a * b
    assert prod.terms == {term((1, 0), (0, 1)): 1}
    sq = (a + b) * (a + b)
    assert sq.terms == {
        term(((1, 0), 2)): 1,
        term((1, 0), (0, 1)): 2,
        term(((0, 1), 2)): 1,
    }
    assert (a - a).terms == {}
    assert (a.scale(3) + a.scale(-3)).terms == {}
    assert a ** 0 == Polynomial.one(2)


def test_polynomial_mismatches():
    with pytest.raises(DimensionError):
        Polynomial.single((1, 0)) + Polynomial.single((1, 0, 0))
    with pytest.raises(ValueError):
        Polynomial.single((1, 0), "kappa") + Polynomial.single((1, 0), "mu")


def _preimages(mip):
    return indicator_preimages(mip, labeling_rule(mip.target))


_ABOVE_BOUND = range(1, MAX_GROUND_SET + 2)

#: Inputs over the size bound: the two indicator matrices would walk Bell(13)
#: partitions, "3000000" would build a 3-million-row dummy column, and "13"
#: has a single preimage, so a missing check shows at once, not as a hang.
_OVER_BOUND = {
    "singletons": to_indicator(SetPartition(len(_ABOVE_BOUND), [(e,) for e in _ABOVE_BOUND])),
    "one block": to_indicator(SetPartition(len(_ABOVE_BOUND), [_ABOVE_BOUND])),
    "3000000": MultiIndexPartition.parse("3000000"),
    "13": MultiIndexPartition.parse("13"),
}


@pytest.mark.parametrize("fn, blocks", [
    (alternating_coarsening_sum, "singletons"),
    (generalized_cumulant_in_moments, "singletons"),
    (moment_product_expansion, "one block"),
    (to_dummy_indicator, "3000000"),
    (_preimages, "13"),
])
def test_indicator_routes_enforce_ground_set_bound(fn, blocks):
    t0 = time.perf_counter()
    with pytest.raises(BoundsError):
        fn(_OVER_BOUND[blocks])
    assert time.perf_counter() - t0 < 1.0
