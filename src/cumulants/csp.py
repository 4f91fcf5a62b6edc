"""Five interchangeable algorithms listing complementary set partitions.

Two partitions are complementary when their join is the one-block partition.
Every algorithm returns the same set, ordered by the cr2 text key:

* ``twoblock``   builds the non-complementary partitions from two-block splits
                 of the input's blocks and subtracts them from the full lattice;
* ``graph``      tests connectivity of the union of the two clique covers with
                 union-find;
* ``laplacian``  tests the same connectivity through the integer rank of the
                 graph Laplacian;
* ``nullspace``  works on block-indicator matrices and checks that the column
                 spans meet only in the all-ones line, after cheap pruning;
* ``stafford``   expands the joint cumulant of block products symbolically and
                 reads the complementary partitions off the surviving terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from time import perf_counter
from typing import Iterator

from .errors import AlgebraConsistencyError, IncompatibleTypeError
from .indicator import IndicatorMatrix, from_indicator, to_indicator
from .linalg import integer_rank
from .partitions import (
    Blocks,
    MultiIndexPartition,
    SetPartition,
    _Memo,
    _check_ground_set,
    _column_groupings,
    _iter_partition_keys,
    _moebius_weight,
    _text_key,
    bell_number,
    block_type,
)

ALGORITHM_NAMES = ("twoblock", "graph", "laplacian", "nullspace", "stafford")


@dataclass
class CspResult:
    """Output container: the input, the algorithm used, the sorted list, the wall time."""

    input: SetPartition
    algorithm: str
    complementary: tuple[SetPartition, ...]
    elapsed: float


def _finish(p: SetPartition, name: str, keys, t0: float) -> CspResult:
    keys = sorted(keys, key=_text_key())
    parts = tuple(SetPartition._from_key(p.n, k) for k in keys)
    return CspResult(p, name, parts, perf_counter() - t0)


def _set_bits(x: int) -> tuple[int, ...]:
    """Positions of the set bits of ``x``, increasing."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return tuple(out)


def _iter_block_masks(elements):
    """Block masks (bit e set for element e) of every partition of ``elements``.

    Knuth's restricted-growth walk (TAOCP 4A, 7.2.1.5, Algorithm H) with the
    masks maintained incrementally: a step only touches the changed suffix,
    amortized O(1) positions.  Blocks come in order of first occurrence, which
    is cr2 order when ``elements`` is sorted.
    """
    bits = [1 << e for e in elements]
    n = len(bits)
    rgs = [0] * n
    maxi = [0] * n
    masks = [0] * (n + 1)
    masks[0] = sum(bits)
    last = n - 1
    while True:
        yield masks[: maxi[last] + 1]
        j = last
        while j > 0 and rgs[j] == maxi[j - 1] + 1:
            j -= 1
        if j == 0:
            return
        gj = rgs[j]
        bj = bits[j]
        masks[gj] ^= bj
        masks[gj + 1] |= bj
        rgs[j] = gj + 1
        for t in range(j + 1, n):
            gt = rgs[t]
            if gt:
                bt = bits[t]
                masks[gt] ^= bt
                masks[0] |= bt
                rgs[t] = 0
        mj = maxi[j - 1] if maxi[j - 1] >= gj + 1 else gj + 1
        for t in range(j, n):
            maxi[t] = mj


def _code(masks) -> int:
    """Partition code: 1 << mask summed over the blocks.  Distinct partitions
    get distinct codes, and partitions of disjoint sets glue by addition."""
    code = 0
    for mask in masks:
        code += 1 << mask
    return code


def _two_block_excluded_codes(blocks: Blocks) -> set[int]:
    """Code-keyed set of the partitions built from every two-block split: each
    side of a split is partitioned independently and the two halves are glued.
    A glued partition's code is the sum of the side codes, so every pair costs
    one integer addition.  Overlapping splits produce the same partition,
    hence the set."""
    m = len(blocks)
    excluded: set[int] = set()
    add = excluded.add
    for s in range(1, 1 << (m - 1)):
        side2 = []
        side1 = [blocks[0]]
        for j in range(1, m):
            (side2 if (s >> (j - 1)) & 1 else side1).append(blocks[j])
        a1 = [e for b in side1 for e in b]
        a2 = [e for b in side2 for e in b]
        if len(a1) < len(a2):
            a1, a2 = a2, a1
        inner = [_code(masks) for masks in _iter_block_masks(a2)]
        for masks in _iter_block_masks(a1):
            c1 = _code(masks)
            for c2 in inner:
                add(c1 + c2)
    return excluded


def _twoblock_keys(p: SetPartition) -> Iterator[Blocks]:
    """Yield the cr2 keys of the partitions complementary to ``p``, in walk
    order: the full lattice minus the partitions generated from two-block
    splits.  The bound check runs at the first ``next()``."""
    _check_ground_set(p.n)
    excluded = _two_block_excluded_codes(p.cr2_key())
    block_of: dict[int, tuple[int, ...]] = {}
    for masks in _iter_block_masks(range(1, p.n + 1)):
        if _code(masks) in excluded:
            continue
        key = []
        for mask in masks:
            block = block_of.get(mask)
            if block is None:
                block = block_of[mask] = _set_bits(mask)
            key.append(block)
        yield tuple(key)


def csp_twoblock(p: SetPartition) -> CspResult:
    """Full lattice minus the partitions generated from two-block splits."""
    t0 = perf_counter()
    return _finish(p, "twoblock", _twoblock_keys(p), t0)


def _path_edges(blocks: Blocks) -> list[tuple[int, int]]:
    """A spanning path per block; connectivity-equivalent to the full cliques."""
    edges = []
    for b in blocks:
        for i in range(len(b) - 1):
            edges.append((b[i], b[i + 1]))
    return edges


def csp_graph(p: SetPartition) -> CspResult:
    """Union-find connectivity of the combined clique covers."""
    _check_ground_set(p.n)
    t0 = perf_counter()
    n = p.n
    p_edges = _path_edges(p.cr2_key())
    out = []
    for key in _iter_partition_keys(range(1, n + 1)):
        parent = list(range(n + 1))
        comps = n
        for a, b in p_edges:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                parent[b] = a
                comps -= 1
        for block in key:
            a = block[0]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            for b in block[1:]:
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if a != b:
                    parent[b] = a
                    comps -= 1
        if comps == 1:
            out.append(key)
    return _finish(p, "graph", out, t0)


def _clique_edges(blocks: Blocks) -> set[tuple[int, int]]:
    edges = set()
    for b in blocks:
        for i in range(len(b)):
            for j in range(i + 1, len(b)):
                edges.add((b[i], b[j]))
    return edges


def _laplacian_connected(n: int, edges: set[tuple[int, int]]) -> bool:
    lap = [[0] * n for _ in range(n)]
    for a, b in edges:
        lap[a - 1][a - 1] += 1
        lap[b - 1][b - 1] += 1
        lap[a - 1][b - 1] -= 1
        lap[b - 1][a - 1] -= 1
    return integer_rank(lap) == n - 1


def csp_laplacian(p: SetPartition) -> CspResult:
    """Rank test on the Laplacian of the combined clique covers: rank n-1 means connected."""
    _check_ground_set(p.n)
    t0 = perf_counter()
    n = p.n
    p_cliques = _clique_edges(p.cr2_key())
    out = []
    for key in _iter_partition_keys(range(1, n + 1)):
        edges = p_cliques | _clique_edges(key)
        if _laplacian_connected(n, edges):
            out.append(key)
    return _finish(p, "laplacian", out, t0)


def csp_nullspace(p: SetPartition) -> CspResult:
    """Span-intersection test on indicator matrices with three pruning filters.

    A candidate is discarded without linear algebra when (a) it shares a block
    with the input, (b) one side has a block that is a union of the other
    side's blocks, or (c) the block counts force the span intersection to have
    dimension at least 2.  Filters (a) and (b) never apply to the all-ones
    column, which would be a false positive.
    """
    _check_ground_set(p.n)
    t0 = perf_counter()
    n = p.n
    blocks = p.cr2_key()
    m = len(blocks)
    if m == 1:
        keys = list(_iter_partition_keys(range(1, n + 1)))
        return _finish(p, "nullspace", keys, t0)
    block_id = [0] * (n + 1)
    for j, b in enumerate(blocks):
        for e in b:
            block_id[e] = j
    sizes = [len(b) for b in blocks]
    p_blocks = set(blocks)
    out = []
    for key in _iter_partition_keys(range(1, n + 1)):
        mt = len(key)
        if m + mt >= n + 2:
            continue
        shared = False
        for b in key:
            if b in p_blocks:
                shared = True
                break
        if shared:
            continue
        cand_id = [0] * (n + 1)
        for j, b in enumerate(key):
            for e in b:
                cand_id[e] = j
        cand_sizes = [len(b) for b in key]
        skip = False
        for b in key:
            if len(b) == n:
                continue
            touched = {block_id[e] for e in b}
            if sum(sizes[j] for j in touched) == len(b):
                skip = True
                break
        if not skip:
            for b in blocks:
                touched = {cand_id[e] for e in b}
                if sum(cand_sizes[j] for j in touched) == len(b):
                    skip = True
                    break
        if skip:
            continue
        rows = []
        for t in range(1, n + 1):
            row = [0] * (m + mt)
            row[block_id[t]] = 1
            row[m + cand_id[t]] = -1
            rows.append(row)
        if m + mt - integer_rank(rows) == 1:
            out.append(key)
    return _finish(p, "nullspace", out, t0)


def csp_stafford(p: SetPartition) -> CspResult:
    """Symbolic route: write the joint cumulant of the block products as a signed
    sum of joint moments, expand every joint moment back into cumulant products,
    and collect.  Surviving terms are indexed by the complementary partitions
    and must all carry coefficient one; anything else signals a bug."""
    _check_ground_set(p.n)
    t0 = perf_counter()
    blocks = p.cr2_key()
    m = len(blocks)
    parts = _Memo(lambda elems: list(_iter_partition_keys(elems)))
    coeffs: dict[Blocks, int] = {}
    for sigma in _iter_partition_keys(range(m)):
        sign = _moebius_weight(len(sigma))
        merged = [tuple(sorted(e for j in c for e in blocks[j])) for c in sigma]
        lists = [parts[a] for a in merged]
        for combo in product(*lists):
            allb: list[tuple[int, ...]] = []
            for part in combo:
                allb.extend(part)
            key = tuple(sorted(allb))
            coeffs[key] = coeffs.get(key, 0) + sign
    out = []
    for key, c in coeffs.items():
        if c == 0:
            continue
        if c != 1:
            raise AlgebraConsistencyError(
                f"coefficient {c} for {_text_key()(key)}; expected 1"
            )
        out.append(key)
    return _finish(p, "stafford", out, t0)


CSP_ALGORITHMS = {
    "twoblock": csp_twoblock,
    "graph": csp_graph,
    "laplacian": csp_laplacian,
    "nullspace": csp_nullspace,
    "stafford": csp_stafford,
}


def count_not_complementary(p: SetPartition) -> int:
    """Number of partitions not complementary to ``p`` by inclusion-exclusion
    over the two-block splits of its blocks.

    Each split contributes the partitions refining its two-set coarsening, and
    an intersection of splits contributes the partitions refining the common
    coarsening, whose count is a product of Bell numbers.  Grouping the subsets
    of splits by their common coarsening turns the sum into one over the
    groupings of the blocks into at least two parts, weighted by
    (-1)^parts * (parts-1)!.  Blocks of equal size give equal terms, so the
    sum runs over groupings of the block sizes as a multiset; the one-part
    grouping counts all Bell(n) partitions.
    """
    _check_ground_set(p.n)
    sizes = MultiIndexPartition.from_columns((len(b),) for b in p.blocks)
    total = 0
    for merged, parts, count in _column_groupings(sizes.columns, sizes.multiplicities):
        term = _moebius_weight(parts) * count
        for (size,), rep, _ in merged:
            term *= bell_number(size) ** rep
        total += term
    return bell_number(p.n) - total


def swap_transfer(
    source: SetPartition, source_csp, target: SetPartition
) -> list[SetPartition]:
    """Transport a complementary list along the element relabeling that carries
    ``source`` onto ``target``; both must have the same block-size type."""
    if block_type(source) != block_type(target):
        raise IncompatibleTypeError(
            f"block types differ: {block_type(source)} vs {block_type(target)}"
        )
    src_blocks = source.canonical("cr1").blocks
    tgt_blocks = target.canonical("cr1").blocks
    relabel = [0] * (source.n + 1)
    for bs, bt in zip(src_blocks, tgt_blocks):
        for es, et in zip(bs, bt):
            relabel[es] = et
    keys = []
    for q in source_csp:
        mapped = [tuple(sorted(relabel[e] for e in b)) for b in q.cr2_key()]
        keys.append(tuple(sorted(mapped)))
    keys.sort(key=_text_key())
    return [SetPartition._from_key(target.n, k) for k in keys]


def csp_twoblock_onevec(mat: IndicatorMatrix) -> list[IndicatorMatrix]:
    """Two-block algorithm phrased on indicator matrices: the complementary
    family of the encoded partition, in the same order, each encoded back."""
    return [to_indicator(q) for q in csp_twoblock(from_indicator(mat)).complementary]
