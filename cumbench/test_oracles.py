"""The benchmark's oracles against brute force on small cases (seconds)."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
import samples
import workloads


def _brute_join_is_one(p, q, n) -> bool:
    groups = [{e} for e in range(1, n + 1)]
    for block in list(p) + list(q):
        merged = set(block)
        rest = []
        for g in groups:
            if g & merged:
                merged |= g
            else:
                rest.append(g)
        groups = rest + [merged]
    return len(groups) == 1


def _all_partitions(n):
    return [tuple(sorted(tuple(sorted(b)) for b in part))
            for part in oracles.set_partitions(range(1, n + 1))]


def _brute_listing(p, n):
    keys = [q for q in _all_partitions(n) if _brute_join_is_one(p, q, n)]
    return sorted(keys, key=oracles.cr2_text)


def _text(blocks):
    return oracles.cr2_text(blocks)


def test_bell_numbers():
    assert [oracles.bell(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    assert all(len(_all_partitions(n)) == oracles.bell(n) for n in range(1, 7))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_moebius_count_matches_brute_force(n):
    for sizes in workloads.integer_partitions(n):
        p = oracles.parse_partition(workloads.relabelled(sizes, random.Random(n)))
        assert oracles.complementary_count(p) == len(_brute_listing(p, n)), sizes


def test_listing_check_accepts_truth_and_rejects_faults():
    n = 5
    p = oracles.parse_partition("1,4|2,3|5")
    listing = [_text(q) for q in _brute_listing(p, n)]
    assert oracles.check_listing(p, n, listing) is None
    compact = ["|".join("".join(map(str, b)) for b in oracles.parse_partition(t))
               for t in listing]
    assert oracles.check_listing(p, n, compact) is None
    assert "Moebius" in oracles.check_listing(p, n, listing[:-1])
    assert "order" in oracles.check_listing(p, n, listing[:2] + listing[1:])
    assert "order" in oracles.check_listing(p, n, [listing[1], listing[0]] + listing[2:])
    assert "not a partition" in oracles.check_listing(p, n, ["1,2|3"] + listing[1:])
    wrong = "1,4|2,3|5"  # p itself is never complementary to p
    assert "complementary" in oracles.check_listing(p, n, [wrong])


def _terms(listing, n):
    return [(1, [[1 if e in b else 0 for e in range(1, n + 1)] for b in q])
            for q in listing]


def test_gencum_and_count_checks():
    n = 5
    p = oracles.parse_partition("1,2|3,4,5")
    listing = _brute_listing(p, n)
    terms = _terms(listing, n)
    assert oracles.check_gencum(p, n, terms) is None
    assert oracles.check_gencum(p, n, terms[::-1]) is None
    assert "coefficient" in oracles.check_gencum(p, n, [(2, terms[0][1])] + terms[1:])
    assert "repeated" in oracles.check_gencum(p, n, terms + terms[:1])
    assert "Moebius" in oracles.check_gencum(p, n, terms[1:])
    assert "complementary" in oracles.check_gencum(p, n, _terms([p], n))
    assert oracles.check_count(p, n, oracles.bell(n) - len(listing)) is None
    assert oracles.check_count(p, n, oracles.bell(n) - len(listing) + 1) is not None


def test_poisson_moments_and_cumulants():
    for r in (2, 3, 5):
        assert oracles.poisson_moment(1, r) == r
        assert oracles.poisson_moment(2, r) == r * r + r
        assert oracles.poisson_moment(3, r) == r ** 3 + 3 * r * r + r
    # The Moebius sum over unit columns is the joint cumulant, known in closed form.
    for order in (1, 2, 3):
        for i in itertools.product(range(order + 1), repeat=3):
            if sum(i) != order:
                continue
            cols = [tuple(int(k == j) for k in range(3)) for j in range(3) for _ in range(i[j])]
            assert oracles.poisson_generalized_cumulant(cols) == oracles.poisson_cumulant(i)


def test_gmc_check():
    # cov(X1, X2^2) = k[1,2] + 2 k[1,1] k[0,1]
    terms = [(1, [[1, 2, 0]]), (2, [[1, 1, 0], [0, 1, 0]])]
    assert oracles.check_gmc("1,0,0|0,2,0", terms) is None
    terms[1] = (3, terms[1][1])
    assert oracles.check_gmc("1,0,0|0,2,0", terms) is not None


def _distinct_average(rows_of_values):
    """Average over pairwise-distinct row tuples of the product of the factors."""
    n = len(rows_of_values[0])
    total, count = Fraction(0), 0
    for idx in itertools.permutations(range(n), len(rows_of_values)):
        total += math.prod(Fraction(vals[i]) for vals, i in zip(rows_of_values, idx))
        count += 1
    return total / count


def _brute_k(ys):
    """Joint cumulant of up to three products, each product of expectations
    estimated without bias by averaging over distinct rows."""
    m = len(ys)
    total = Fraction(0)
    for pi in oracles.set_partitions(range(m)):
        k = len(pi)
        blocks = [[math.prod(ys[j][r] for j in b) for r in range(len(ys[0]))] for b in pi]
        total += (-1) ** (k - 1) * math.factorial(k - 1) * _distinct_average(blocks)
    return total


@pytest.mark.parametrize("lam", ["2,0,1", "1,0,0|0,1,1", "1,1,0|1,1,0",
                                 "1,0,0|0,1,0|0,0,1", "2,0,0|1,0,0|0,0,1"])
def test_exact_estimate_matches_distinct_index_average(lam):
    rng = random.Random(lam)
    cols = [[rng.randint(-40, 90) / 16 for _ in range(6)] for _ in range(3)]
    ys = [[math.prod(Fraction(cols[k][r]) ** e for k, e in enumerate(c)) for r in range(6)]
          for c in oracles.parse_lambda(lam)]
    assert oracles.exact_estimate(lam, cols) == _brute_k(ys)


def test_estimate_check_and_relabelling():
    rng = random.Random(3)
    cols = [[rng.randint(1, 400) / 64 for _ in range(20)] for _ in range(3)]
    lam = "1,1,0|0,0,1"
    ref = oracles.exact_estimate(lam, cols)
    assert oracles.check_estimate(float(ref), ref) is None
    assert oracles.check_estimate(float(ref) * (1 + 1e-6), ref) is not None
    perm = [2, 0, 1]
    moved = [None] * 3
    for k in range(3):
        moved[perm[k]] = cols[k]
    assert oracles.exact_estimate(samples.relabel_lambda(lam, perm), moved) == ref


def test_seeds_ask_for_the_same_work():
    for name in ("listing", "sweep"):
        a = sorted(op["name"] for op in workloads.build(name, 1))
        b = sorted(op["name"] for op in workloads.build(name, 2))
        assert a == b
