"""Partition enumeration, joins, canonical forms and multi-index partitions."""

import math
from itertools import product

import pytest

from cumulants import (
    BoundsError,
    DimensionError,
    EmptyTargetError,
    IntegerPartition,
    MultiIndexPartition,
    ParseError,
    SampleMatrix,
    SetPartition,
    VariableLabeling,
    bell_number,
    block_type,
    enumerate_multiindex_partitions,
    enumerate_partitions,
    is_complementary,
    join,
    labeling_rule,
    moments_to_cumulants,
    power_sum,
    subdivision_coefficient,
)
from cumulants.partitions import _iter_partition_keys, _mip_walk, _render_key


# --- independent oracles ---------------------------------------------------


def bell_oracle(n):
    """Bell numbers by the binomial recurrence (independent of the triangle)."""
    b = [1]
    for m in range(n):
        b.append(sum(math.comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


def stirling2_oracle(n, m):
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][m]


def join_oracle(p, q):
    """Join by repeatedly merging overlapping sets until stable."""
    sets = [set(b) for b in p.blocks] + [set(b) for b in q.blocks]
    merged = True
    while merged:
        merged = False
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                if sets[i] & sets[j]:
                    sets[i] |= sets.pop(j)
                    merged = True
                    break
            if merged:
                break
    return sorted(tuple(sorted(s)) for s in sets)


def refines(p, q):
    """True when every block of p lies inside a block of q."""
    owner = {}
    for idx, b in enumerate(q.blocks):
        for e in b:
            owner[e] = idx
    return all(len({owner[e] for e in b}) == 1 for b in p.blocks)


def count_compositions_oracle(i):
    """Ordered sequences of nonzero multi-indexes summing to i, by brute force."""
    memo = {}

    def rec(rem):
        if not any(rem):
            return 1
        if rem in memo:
            return memo[rem]
        total = 0
        for col in product(*(range(e + 1) for e in rem)):
            if any(col):
                total += rec(tuple(r - c for r, c in zip(rem, col)))
        memo[rem] = total
        return total

    return rec(tuple(i))


# --- bell numbers ------------------------------------------------------------


def test_bell_small_values():
    assert bell_number(0) == 1
    assert bell_number(1) == 1
    assert bell_number(3) == 5
    assert bell_number(10) == 115975


def test_bell_matches_binomial_recurrence():
    for n in range(16):
        assert bell_number(n) == bell_oracle(n)


def test_bell_negative_rejected():
    with pytest.raises(BoundsError):
        bell_number(-1)


# --- enumeration -------------------------------------------------------------


def test_enumerate_n3_exact_set():
    got = {p.render() for p in enumerate_partitions(3)}
    assert got == {"123", "1|23", "13|2", "12|3", "1|2|3"}
    assert len(got) == 5 == bell_number(3)


def test_enumerate_n1():
    (only,) = enumerate_partitions(1)
    assert only.render() == "1"


def test_enumerate_counts_match_bell_and_stirling():
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        assert len(parts) == bell_number(n) == bell_oracle(n)
        assert len(set(parts)) == len(parts)
        total = 0
        for m in range(1, n + 1):
            by_m = enumerate_partitions(n, m)
            assert len(by_m) == stirling2_oracle(n, m)
            total += len(by_m)
        assert total == bell_number(n)


def test_enumerate_n4_m2():
    assert len(enumerate_partitions(4, 2)) == 7


def test_enumerate_returns_cr2_in_text_order():
    parts = enumerate_partitions(4)
    assert all(p.form == "cr2" for p in parts)
    keys = [p.sort_key() for p in parts]
    assert keys == sorted(keys)


def _comma_text(key):
    return "|".join(",".join(map(str, b)) for b in key)


def test_rendered_text_sorts_as_the_comma_text():
    # listings sort by the rendered text: up to n = 9 it is compact and must
    # order keys as the comma text does; from n = 10 the two are one text
    for n in range(1, 10):
        keys = list(_iter_partition_keys(range(1, n + 1)))
        assert sorted(keys, key=_render_key(n)) == sorted(keys, key=_comma_text), n
    for n in (10, 11):
        render = _render_key(n)
        assert all(render(k) == _comma_text(k) for k in _iter_partition_keys(range(1, n + 1)))


def test_partition_walk_counts_are_the_bell_numbers():
    bell = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147)
    for n, want in enumerate(bell):
        assert sum(1 for _ in _iter_partition_keys(range(1, n + 1))) == want, n


@pytest.mark.parametrize(
    "elements",
    [range(1, 8), ((3, 4), (1,), (2, 5), (6,), (0,), (7, 8))],
    ids=["range", "tuple-of-tuples"],
)
def test_partition_walk_is_in_restricted_growth_order(elements):
    # each key read back as its restricted growth string (the block index of
    # each element, in input order): the strings strictly increase, and the
    # blocks come in first-occurrence order, each in input order
    pos = {e: j for j, e in enumerate(elements)}
    strings = []
    for key in _iter_partition_keys(elements):
        rgs = [None] * len(pos)
        for g, block in enumerate(key):
            at = [pos[e] for e in block]
            assert at == sorted(at), key
            for j in at:
                assert rgs[j] is None, key
                rgs[j] = g
        assert None not in rgs, key
        firsts = [rgs.index(g) for g in range(len(key))]
        assert firsts == sorted(firsts), key
        strings.append(rgs)
    assert all(a < b for a, b in zip(strings, strings[1:]))
    assert len(strings) == bell_oracle(len(pos))


def test_enumerate_bounds():
    with pytest.raises(BoundsError):
        enumerate_partitions(0)
    with pytest.raises(BoundsError):
        enumerate_partitions(13)
    with pytest.raises(BoundsError):
        enumerate_partitions(4, 0)
    with pytest.raises(BoundsError):
        enumerate_partitions(4, 5)


# --- join and complementarity ------------------------------------------------


def test_join_paper_example():
    assert join(SetPartition.parse("1|234"), SetPartition.parse("12|3|4")) == SetPartition.parse("1234")


def test_join_idempotent_and_absorbing():
    p = SetPartition.parse("12|34")
    assert join(p, p) == p
    assert join(p, SetPartition.parse("12|3|4")) == p


def test_join_matches_merge_closure_oracle_exhaustively():
    for n in range(2, 7):
        parts = enumerate_partitions(n)
        for p in parts:
            for q in parts:
                assert list(join(p, q).blocks) == join_oracle(p, q), (p, q)


def test_join_is_least_upper_bound_n4():
    parts = enumerate_partitions(4)
    for p in parts:
        for q in parts:
            j = join(p, q)
            assert refines(p, j) and refines(q, j)
            for r in parts:
                if refines(p, r) and refines(q, r):
                    assert refines(j, r)


def test_join_commutative_and_associative_n4():
    parts = enumerate_partitions(4)
    for p in parts:
        for q in parts:
            assert join(p, q) == join(q, p)
    for p, q, r in product(parts[::2], parts[::3], parts[::2]):
        assert join(join(p, q), r) == join(p, join(q, r))


def test_join_dimension_mismatch():
    with pytest.raises(DimensionError):
        join(SetPartition.parse("1|2"), SetPartition.parse("1|2|3"))


def test_is_complementary_examples():
    assert is_complementary(SetPartition.parse("1|23"), SetPartition.parse("12|3"))
    assert not is_complementary(SetPartition.parse("1|23"), SetPartition.parse("1|2|3"))
    top = SetPartition.parse("1234")
    for q in enumerate_partitions(4):
        assert is_complementary(top, q)


# --- canonical forms -----------------------------------------------------------


def test_cr1_orders_by_decreasing_cardinality():
    p = SetPartition(4, [(4,), (1, 2, 3)], form="cr1")
    assert p.blocks == ((1, 2, 3), (4,))
    assert p.render() == "123|4"


def test_cr2_orders_lexicographically():
    p = SetPartition(4, [(2, 3, 4), (1,)], form="cr2")
    assert p.blocks == ((1,), (2, 3, 4))
    assert p.render() == "1|234"


def test_cr1_equal_cardinality_tiebreak():
    p = SetPartition(4, [(3, 4), (1, 2)], form="cr1")
    assert p.blocks == ((1, 2), (3, 4))


def test_canonicalize_idempotent_and_preserves_blocks():
    for n in range(1, 7):
        for p in enumerate_partitions(n):
            for form in ("cr1", "cr2"):
                q = p.canonical(form)
                assert q.form == form
                assert q.canonical(form).blocks == q.blocks
                assert sorted(q.blocks) == sorted(p.blocks)
                assert q == p


def test_equality_ignores_form():
    p = SetPartition(5, [(1,), (2, 3), (4, 5)], form="cr1")
    q = SetPartition(5, [(4, 5), (1,), (2, 3)], form="cr2")
    assert p == q
    assert hash(p) == hash(q)


# --- block type ----------------------------------------------------------------


def test_block_type_examples():
    assert block_type(SetPartition.parse("1|234")).parts == (3, 1)
    assert block_type(SetPartition.parse("1|2|3")).parts == (1, 1, 1)
    assert block_type(SetPartition.parse("12|34|5")).parts == (2, 2, 1)


def test_integer_partition_normalizes():
    assert IntegerPartition([1, 3, 2]).parts == (3, 2, 1)
    assert IntegerPartition([2, 2]).n == 4
    with pytest.raises(ValueError):
        IntegerPartition([0, 1])
    with pytest.raises(ValueError):
        IntegerPartition([])


# --- parsing and rendering --------------------------------------------------------


def test_parse_comma_and_compact_agree():
    assert SetPartition.parse("1|2,3,4") == SetPartition.parse("1|234")


def test_render_round_trip():
    for n in range(1, 7):
        for p in enumerate_partitions(n):
            assert SetPartition.parse(p.render()) == p


def test_render_uses_commas_beyond_nine():
    p = SetPartition(11, [tuple(range(1, 11)), (11,)])
    assert "," in p.render()
    assert SetPartition.parse(p.render()) == p


def test_render_round_trip_of_ten_or_more_singletons():
    # the rendered text has no comma, and its compact reading needs more
    # than nine elements
    for n in range(10, 13):
        p = SetPartition(n, [(e,) for e in range(1, n + 1)])
        assert p.render() == "|".join(map(str, range(1, n + 1)))
        assert SetPartition.parse(p.render()) == p


@pytest.mark.parametrize("bad", ["", "1|", "1|1", "1|3", "a|b", "1,x|2", "12|3|"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        SetPartition.parse(bad)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SetPartition(3, [(1, 2)])
    with pytest.raises(ValueError):
        SetPartition(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        SetPartition(3, [(1, 2), ()])


def test_constructor_rejects_bool_elements():
    with pytest.raises(ValueError):
        SetPartition(2, [(True,), (2,)])
    with pytest.raises(ValueError):
        SetPartition(2, [(1, False)])


def test_multi_index_entries_must_be_integers():
    data = SampleMatrix.from_rows([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    for bad in ((0.5, 0), (True, 0), (1, False)):
        with pytest.raises(ValueError, match="integers"):
            power_sum(data, bad)
    with pytest.raises(ValueError, match="integers"):
        MultiIndexPartition.from_columns([(1.5, 0), (0, 1)])
    with pytest.raises(ValueError, match="integers"):
        moments_to_cumulants((1.5,))
    with pytest.raises(ValueError, match="integers"):
        labeling_rule((1.5, 2))
    with pytest.raises(ValueError, match="integers"):
        VariableLabeling((2, 0.5))
    with pytest.raises(ValueError, match="negative entry"):
        moments_to_cumulants((2, -1))
    assert power_sum(data, (1, 0)) == 9


# --- multi-index partitions --------------------------------------------------------


def test_mip_target_11():
    got = enumerate_multiindex_partitions((1, 1))
    assert len(got) == 2
    reprs = {str(m) for m in got}
    assert reprs == {"1,1", "1,0|0,1"}


def test_mip_target_2():
    got = enumerate_multiindex_partitions((2,))
    reprs = {str(m) for m in got}
    assert reprs == {"2", "1^2"}


def test_mip_contains_paper_subdivision():
    got = enumerate_multiindex_partitions((1, 2, 2))
    want = MultiIndexPartition.from_columns([(1, 1, 1), (0, 1, 1)])
    assert want in got


def test_mip_all_ones_count_is_bell():
    for n in range(1, 7):
        got = enumerate_multiindex_partitions((1,) * n)
        assert len(got) == bell_number(n)
        assert len(set(got)) == len(got)


def test_mip_invariants():
    for i in [(2, 1), (1, 2, 2), (3, 1), (2, 2)]:
        for mip in enumerate_multiindex_partitions(i):
            assert mip.target == i
            assert all(a > b for a, b in zip(mip.columns, mip.columns[1:]))
            assert all(r >= 1 for r in mip.multiplicities)
            assert mip.length == sum(mip.multiplicities)


def test_mip_empty_target_rejected():
    with pytest.raises(EmptyTargetError):
        enumerate_multiindex_partitions((0, 0))


def test_mip_order_cap():
    with pytest.raises(BoundsError):
        enumerate_multiindex_partitions((13,))


def test_mip_arrangement_counts_match_composition_oracle():
    targets = [(4,), (3, 1), (2, 2), (1, 1, 2), (1, 1, 1, 1), (2, 0, 2), (1, 2, 2)]
    for i in targets:
        total = 0
        for mip in enumerate_multiindex_partitions(i):
            arrangements = math.factorial(mip.length)
            for r in mip.multiplicities:
                arrangements //= math.factorial(r)
            total += arrangements
        assert total == count_compositions_oracle(i), i


def _small_targets():
    """Every target with |i| <= 7 and arity <= 3."""
    for arity in range(1, 4):
        for i in product(range(8), repeat=arity):
            if 1 <= sum(i) <= 7:
                yield i


def test_mip_order_is_strictly_decreasing():
    for i in _small_targets():
        seqs = [m.expanded() for m in enumerate_multiindex_partitions(i)]
        assert all(a > b for a, b in zip(seqs, seqs[1:])), i


def test_mip_walk_coefficient_is_subdivision_coefficient():
    for i in _small_targets():
        for cols, mults, coef in _mip_walk(i):
            assert coef == subdivision_coefficient(MultiIndexPartition(cols, mults)), (i, cols)


def test_subdivision_coefficient_examples():
    assert subdivision_coefficient(
        MultiIndexPartition.from_columns([(1, 0, 0), (0, 1, 1), (0, 1, 1)])
    ) == 2
    assert subdivision_coefficient(MultiIndexPartition.from_columns([(2,)])) == 1


def test_subdivision_coefficient_one_on_all_ones_targets():
    for n in range(1, 6):
        for mip in enumerate_multiindex_partitions((1,) * n):
            assert subdivision_coefficient(mip) == 1


def test_mip_parse():
    mip = MultiIndexPartition.parse("1,0,0|0,1,1^2")
    assert mip.columns == ((1, 0, 0), (0, 1, 1))
    assert mip.multiplicities == (1, 2)
    assert mip.target == (1, 2, 2)
    assert MultiIndexPartition.parse("1,0|1,0") == MultiIndexPartition.parse("1,0^2")
    with pytest.raises(ParseError):
        MultiIndexPartition.parse("1,0|0,x")
    with pytest.raises(ParseError):
        MultiIndexPartition.parse("1,0|0")
    with pytest.raises(ParseError):
        MultiIndexPartition.parse("1,0^0")


def test_mip_rejects_zero_column_and_mixed_arity():
    with pytest.raises(ValueError):
        MultiIndexPartition.from_columns([(1, 0), (0, 0)])
    with pytest.raises(DimensionError):
        MultiIndexPartition.from_columns([(1, 0), (1,)])
