"""The five complementary-partition algorithms against the join oracle."""

import gc
import random
import time
import tracemalloc
from collections import deque
from itertools import islice

import pytest

from cumulants import (
    ALGORITHM_NAMES,
    CSP_ALGORITHMS,
    AlgebraConsistencyError,
    BoundsError,
    IncompatibleTypeError,
    SetPartition,
    bell_number,
    block_type,
    count_not_complementary,
    csp_twoblock,
    csp_twoblock_onevec,
    enumerate_partitions,
    from_indicator,
    generalized_cumulant,
    generalized_cumulant_subtractive,
    is_complementary,
    swap_transfer,
    to_indicator,
)
from cumulants.csp import _twoblock_keys, _twoblock_runs
from cumulants.partitions import MAX_GROUND_SET, _block_text, _iter_partition_keys

CSP_1_234 = {
    "12|3|4", "13|2|4", "14|2|3", "123|4", "124|3",
    "12|34", "134|2", "13|24", "14|23", "1234",
}
CSP_123_4 = {
    "1|24|3", "1|2|34", "14|2|3", "1|234", "124|3",
    "13|24", "134|2", "12|34", "14|23", "1234",
}


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_known_lists(name):
    algo = CSP_ALGORITHMS[name]
    assert {q.render() for q in algo(SetPartition.parse("1|234")).complementary} == CSP_1_234
    assert {q.render() for q in algo(SetPartition.parse("123|4")).complementary} == CSP_123_4
    assert {q.render() for q in algo(SetPartition.parse("1|23")).complementary} == {"123", "13|2", "12|3"}


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_singletons_n2(name):
    got = CSP_ALGORITHMS[name](SetPartition.parse("1|2")).complementary
    assert [q.render() for q in got] == ["12"]


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_12_3(name):
    got = {q.render() for q in CSP_ALGORITHMS[name](SetPartition.parse("12|3")).complementary}
    assert got == {"123", "13|2", "1|23"}


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_one_block_input_is_complementary_to_everything(name):
    p = SetPartition.parse("1234")
    got = CSP_ALGORITHMS[name](p).complementary
    assert set(got) == set(enumerate_partitions(4))


def _comma_text(key):
    """The comma text ``1,2|3`` of a cr2 key, the documented listing order."""
    return "|".join(",".join(map(str, b)) for b in key)


def test_result_fields_and_order():
    p = SetPartition.parse("1|234")
    for name in ALGORITHM_NAMES:
        r = CSP_ALGORITHMS[name](p)
        assert r.input == p
        assert r.algorithm == name
        assert r.elapsed >= 0.0
        assert r.keys == tuple(q.blocks for q in r.complementary), name
        texts = [_comma_text(key) for key in r.keys]
        assert all(a < b for a, b in zip(texts, texts[1:])), name
        assert r.complementary is r.complementary, name


def test_five_way_agreement_exhaustive_small():
    for n in range(2, 6):
        parts = enumerate_partitions(n)
        for p in parts:
            oracle = {q for q in parts if is_complementary(p, q)}
            for name in ALGORITHM_NAMES:
                got = set(CSP_ALGORITHMS[name](p).complementary)
                assert got == oracle, (name, p.render())


def test_complementarity_is_symmetric():
    parts = enumerate_partitions(5)
    table = {p: set(csp_twoblock(p).complementary) for p in parts}
    for p in parts:
        for q in parts:
            assert (q in table[p]) == (p in table[q])


# --- the two-block walk -------------------------------------------------------


def _graph_keys(p):
    return [q.cr2_key() for q in CSP_ALGORITHMS["graph"](p).complementary]


def _relabelled_per_type(seed):
    """One randomly relabelled partition per block type of [n], n <= 8."""
    rng = random.Random(seed)
    for n in range(1, 9):
        one_per_type = {block_type(q): q for q in enumerate_partitions(n)}
        for q in one_per_type.values():
            label = rng.sample(range(1, n + 1), n)
            yield SetPartition(n, [[label[e - 1] for e in b] for b in q.blocks])


def test_twoblock_walk_lists_in_text_order_up_to_n8():
    for p in _relabelled_per_type(14):
        assert list(_twoblock_keys(p)) == _graph_keys(p), p.render()


#: Partitions of [10] and [11] with two-digit elements in several blocks, on
#: which cr2 text order and indicator order differ.
TWO_DIGIT_PARTITIONS = (
    "1,4,10|2,5|3,6,8|7,9",
    "1,10|2,3,4|5,6,7|8,9",
    "1,5,9|2,6,10|3,7,11|4,8",
    "2,10,11|1,3|4,5,6|7,8,9",
)


@pytest.mark.parametrize("text", TWO_DIGIT_PARTITIONS)
def test_twoblock_walk_orders_two_digit_elements_as_text(text):
    p = SetPartition.parse(text)
    assert list(_twoblock_keys(p)) == _graph_keys(p)


def _indicator_terms(n, keys):
    factors = {}
    for key in keys:
        for b in key:
            if b not in factors:
                factors[b] = (tuple(int(e in b) for e in range(1, n + 1)), 1)
    return [tuple(map(factors.__getitem__, key)) for key in keys]


def test_twoblock_numeric_walk_lists_in_term_order():
    two_digit = map(SetPartition.parse, TWO_DIGIT_PARTITIONS)
    for p in [*_relabelled_per_type(15), *two_digit]:
        runs = _twoblock_runs(p, lambda b: (b,), (), numeric=True)
        keys = [prefix + suffix for prefix, suffixes in runs for suffix in suffixes]
        walked = _indicator_terms(p.n, keys)
        assert walked == sorted(generalized_cumulant(p).terms, reverse=True), p.render()
        if p.n >= 10:
            assert walked != _indicator_terms(p.n, list(_twoblock_keys(p))), p.render()


def test_twoblock_walk_token_order_holds_up_to_the_bound():
    # the walk orders a set's blocks by visiting elements in token order,
    # which is the cr2 order only while no token but "1" is a prefix of
    # another: raising MAX_GROUND_SET to 20 ("2" before "20") breaks it
    tokens = [str(e) for e in range(2, MAX_GROUND_SET + 1)]
    assert not [(a, b) for a in tokens for b in tokens if a != b and b.startswith(a)]


@pytest.mark.parametrize("n", [10, 11])
def test_twoblock_walk_on_one_block_and_singletons(n):
    one_block = SetPartition(n, [range(1, n + 1)])
    lattice = sorted(_iter_partition_keys(range(1, n + 1)), key=_comma_text)
    assert list(_twoblock_keys(one_block)) == lattice
    singletons = SetPartition(n, [(e,) for e in range(1, n + 1)])
    assert list(_twoblock_keys(singletons)) == [(tuple(range(1, n + 1)),)]


#: Partitions of [12] with many blocks, where the walk drops nearly every
#: subtree: 0.5% and 14% of the lattice survive.
MANY_BLOCK_PARTITIONS = ("1,2,3|4|5|6|7|8|9|10|11|12", "1,2|3,4|5,6|7,8|9|10|11|12")


def test_twoblock_walk_on_many_blocks_at_the_bound():
    singletons = SetPartition(12, [(e,) for e in range(1, 13)])
    assert list(_twoblock_keys(singletons)) == [(tuple(range(1, 13)),)]
    for text in MANY_BLOCK_PARTITIONS:
        p = SetPartition.parse(text)
        keys = list(_twoblock_keys(p))
        assert len(keys) == bell_number(12) - count_not_complementary(p)
        texts = list(map(_comma_text, keys))
        assert all(a < b for a, b in zip(texts, texts[1:])), text
        assert all(is_complementary(p, SetPartition(12, key)) for key in keys[::997])


def test_twoblock_walk_frees_its_memo():
    # with the collector off, a reference cycle would keep the memo alive;
    # an untraced first walk fills the interpreter's tuple free lists, whose
    # entries tracemalloc would count as still allocated.  Both the key walk
    # and the text runs the CLI writes are checked, after a full walk and
    # after one dropped part way.
    p = SetPartition.parse("1,4,7,10|2,5,8,11|3,6,9")
    walks = {
        "keys": lambda: _twoblock_keys(p),
        "text": lambda: _twoblock_runs(p, _block_text(p.n), "|"),
    }
    for mode, walk in walks.items():
        gc.disable()
        deque(walk(), 0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            deque(walk(), 0)
            after_full = tracemalloc.get_traced_memory()[0] - base
            partial = walk()
            deque(islice(partial, 1000), 0)
            del partial
            after_close = tracemalloc.get_traced_memory()[0] - base
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        # the floor shows that a memo was measured at all
        assert peak > 4 << 20, mode
        assert after_full < 1 << 20, mode
        assert after_close < 1 << 20, mode


@pytest.mark.parametrize(
    "fn",
    [*CSP_ALGORITHMS.values(), count_not_complementary, generalized_cumulant_subtractive],
)
def test_ground_set_bound(fn):
    n = MAX_GROUND_SET + 1
    with pytest.raises(BoundsError):
        fn(SetPartition(n, [(e,) for e in range(1, n + 1)]))


# --- counting --------------------------------------------------------------


def test_count_not_complementary_examples():
    assert count_not_complementary(SetPartition.parse("1|234")) == 5
    assert count_not_complementary(SetPartition.parse("1|23")) == 2
    assert count_not_complementary(SetPartition.parse("1|2")) == 1
    assert count_not_complementary(SetPartition.parse("123")) == 0


def test_counting_identity_up_to_n6():
    for n in range(2, 7):
        for p in enumerate_partitions(n):
            direct = len(csp_twoblock(p).complementary)
            assert count_not_complementary(p) + direct == bell_number(n), p.render()


def test_count_matches_grouped_formula():
    """The grouped inclusion-exclusion count equals the number of partitions
    whose join with ``p`` is not the one-block partition."""
    for n in range(2, 7):
        every = enumerate_partitions(n)
        for p in every:
            expected = sum(not is_complementary(p, q) for q in every)
            assert count_not_complementary(p) == expected, p.render()


def test_count_on_twelve_singletons_is_bounded():
    # every partition of [12] but the one-block one is not complementary to
    # the singletons; twelve equal blocks make 77 groupings, not Bell(12)
    p = SetPartition(12, [(e,) for e in range(1, 13)])
    t0 = time.perf_counter()
    assert count_not_complementary(p) == bell_number(12) - 1
    assert time.perf_counter() - t0 < 1.0


# --- relabeling transfer ------------------------------------------------------


def test_swap_transfer_paper_example():
    source = SetPartition.parse("1|234")
    target = SetPartition.parse("123|4")
    moved = swap_transfer(source, csp_twoblock(source).complementary, target)
    assert {q.render() for q in moved} == CSP_123_4


def test_swap_transfer_identity():
    p = SetPartition.parse("12|34|5")
    own = csp_twoblock(p).complementary
    assert swap_transfer(p, own, p) == list(own)


def test_swap_transfer_small_oracle():
    source = SetPartition.parse("12|3")
    target = SetPartition.parse("13|2")
    moved = swap_transfer(source, csp_twoblock(source).complementary, target)
    assert set(moved) == set(csp_twoblock(target).complementary)


def test_swap_transfer_exhaustive_same_type_pairs():
    parts = enumerate_partitions(5)
    table = {p: csp_twoblock(p).complementary for p in parts}
    by_type = {}
    for p in parts:
        by_type.setdefault(block_type(p).parts, []).append(p)
    for group in by_type.values():
        for p in group:
            for q in group:
                assert set(swap_transfer(p, table[p], q)) == set(table[q]), (p, q)


def test_swap_transfer_type_mismatch():
    with pytest.raises(IncompatibleTypeError):
        swap_transfer(
            SetPartition.parse("1|23"),
            csp_twoblock(SetPartition.parse("1|23")).complementary,
            SetPartition.parse("1|2|3"),
        )


# --- indicator-level two-block variant ---------------------------------------------


def test_twoblock_onevec_example():
    mats = csp_twoblock_onevec(to_indicator(SetPartition.parse("1|23")))
    assert {from_indicator(m).render() for m in mats} == {"123", "13|2", "12|3"}


def test_twoblock_onevec_matches_transport():
    for n in range(2, 6):
        for p in enumerate_partitions(n):
            via_mat = csp_twoblock_onevec(to_indicator(p))
            via_sets = [to_indicator(q) for q in csp_twoblock(p).complementary]
            assert via_mat == via_sets, p.render()


def test_twoblock_onevec_two_column_count():
    # single split: the excluded family is the direct product of the two sides
    p = SetPartition.parse("12|345")
    got = csp_twoblock_onevec(to_indicator(p))
    assert len(got) == bell_number(5) - bell_number(2) * bell_number(3)


def test_stafford_consistency_check_runs_clean():
    # the coefficient-one assertion is exercised on every partition of [5]
    for p in enumerate_partitions(5):
        CSP_ALGORITHMS["stafford"](p)
