"""Five interchangeable algorithms listing complementary set partitions.

Two partitions are complementary when their join is the one-block partition.
Every algorithm returns the same set, ordered by the cr2 text key:

* ``twoblock``   walks the lattice a block at a time and drops each subtree
                 that refines a two-block coarsening of the input's blocks;
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
from functools import cached_property
from itertools import chain
from time import perf_counter
from typing import Callable, Iterator

from .errors import AlgebraConsistencyError, IncompatibleTypeError
from .indicator import IndicatorMatrix, _block_indicator, from_indicator
from .linalg import integer_rank
from .partitions import (
    Blocks,
    MultiIndexPartition,
    SetPartition,
    _Memo,
    _check_ground_set,
    _coarsening_keys,
    _column_groupings,
    _iter_partition_keys,
    _moebius_weight,
    _refinement_keys,
    _render_key,
    bell_number,
    block_type,
)

ALGORITHM_NAMES = ("twoblock", "graph", "laplacian", "nullspace", "stafford")


@dataclass
class CspResult:
    """Output container: the input, the algorithm used, the listing and the
    wall time.  The listing is ``keys``, the cr2 block tuples in cr2 text
    order; ``complementary`` is the same listing as ``SetPartition``s, built
    on first access and kept, so ``elapsed`` covers no per-entry object."""

    input: SetPartition
    algorithm: str
    keys: tuple[Blocks, ...]
    elapsed: float

    @cached_property
    def complementary(self) -> tuple[SetPartition, ...]:
        n = self.input.n
        return tuple(SetPartition._from_key(n, k) for k in self.keys)


def _result(p: SetPartition, name: str, keys, t0: float) -> CspResult:
    return CspResult(p, name, tuple(keys), perf_counter() - t0)


def _finish(p: SetPartition, name: str, keys, t0: float) -> CspResult:
    return _result(p, name, sorted(keys, key=_render_key(p.n)), t0)


#: The two-block walk memoizes the survivors of a remainder of at most this
#: many elements and walks a larger one a block further down.  A remainder's
#: open components group the input's blocks restricted to it, so the memo
#: holds one list per such grouping of each small remainder.  At n = 12 a
#: bound of 8 raised the walk's peak on (3,3,3,3) from 45 to 118 MB, and a
#: bound of 4 ran slower on every input measured.
_MEMO_MAX = 6


class _Lattice:
    """The two-block walk's memos over element sets held as bitmasks (bit e
    for element e), for the length of one listing.

    A node of the walk is a set of placed blocks.  Joined with the input's
    blocks they make components; a node keeps its *open components*, the
    masks of each component's unplaced elements, as a sorted tuple.  A child
    places a block holding the least unplaced element; the components it
    touches merge.  A component left with no unplaced element stays apart
    from every other in each completion, so the child is pruned unless that
    component is the only one, which finishes a complementary partition.  An
    unpruned node has a complementary completion: one block of every
    unplaced element.

    The children come in one of two orders:

    * token order (``10`` before ``2``) gives cr2 text order: ``,`` sorts
      before ``|``, 1 leads every comparison in which it occurs, and up to
      ``MAX_GROUND_SET`` = 12 no other token is a prefix of another;
    * numeric order (``numeric=True``) gives decreasing order of the 0/1
      block indicators, the term order of ``Polynomial.to_json``.

    The two agree up to n = 9.  ``lead`` gives the text of a block that
    follows another in a key, separator first; the memoized survivors are
    concatenations of those.
    """

    __slots__ = ("order", "lead", "blocks", "survivors")

    def __init__(self, n: int, numeric: bool, lead: Callable):
        self.order = range(2, n + 1) if numeric else sorted(range(2, n + 1), key=str)
        self.lead = lead
        self.blocks: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        self.survivors: dict[tuple[int, ...], list] = {}

    def first_blocks(self, s: int) -> list[tuple[int, tuple[int, ...]]]:
        """(mask, block) of each block of ``s`` holding its least element, in
        the walk's order: a post-order walk of the extensions (a block after
        those extending it).  The walk's top sets, which hold 1, are not
        kept."""
        out = self.blocks.get(s)
        if out is None:
            low = s & -s
            e = low.bit_length() - 1
            rest = s ^ low
            out = []
            for f in self.order:
                if rest >> f & 1:
                    out.extend(
                        (mask | low, (e,) + block)
                        for mask, block in self.first_blocks(rest & -(1 << f))
                    )
            out.append((low, (e,)))
            if e != 1:
                self.blocks[s] = out
        return out

    def children(self, comps: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(block, open components) of each unpruned child, in the walk's
        order; a finished partition has no open component."""
        out = []
        for mask, block in self.first_blocks(sum(comps)):
            merged = 0
            rest = []
            for c in comps:
                if c & mask:
                    merged |= c
                else:
                    rest.append(c)
            if merged != mask:
                rest.append(merged ^ mask)
                rest.sort()
            elif rest:
                continue
            out.append((block, tuple(rest)))
        return out

    def survivor_keys(self, comps: tuple[int, ...]) -> list:
        """The completions of a node with open components ``comps``, each the
        ``lead`` of its blocks concatenated."""
        out = self.survivors.get(comps)
        if out is None:
            out = []
            lead = self.lead
            for block, rest in self.children(comps):
                head = lead(block)
                if rest:
                    out.extend(map(head.__add__, self.survivor_keys(rest)))
                else:
                    out.append(head)
            self.survivors[comps] = out
        return out


def _twoblock_runs(p: SetPartition, frag, sep, *, numeric: bool = False) -> Iterator[tuple]:
    """Yield the partitions complementary to ``p`` as *runs*: (prefix,
    suffixes) pairs whose keys are ``prefix + suffix`` for each suffix, in
    cr2 text order, or with ``numeric`` in decreasing indicator order (see
    ``_Lattice``).  A key is the ``frag`` of each of its blocks joined by
    ``sep``: ``(lambda b: (b,), ())`` gives cr2 key tuples, a text fragment
    and separator give the key's text.  Each suffix starts with ``sep``.
    The bound check runs at the first ``next()``.

    A partition is not complementary exactly when it refines a two-block
    coarsening of ``p``; the walk drops each subtree inside one of those as
    soon as a component closes, so no excluded partition is made.  It
    places blocks from the top while more than min(n - 2, ``_MEMO_MAX``)
    elements are unplaced, then yields the placed blocks' prefix with the
    memoized survivors of its open components, the memo's own list, so a
    consumer must not change it.  A text ``frag`` is called once per
    distinct block, the key tuple's once per use."""
    n = p.n
    _check_ground_set(n)
    # making a key tuple costs less than a memo lookup
    lat = _Lattice(n, numeric, _Memo(lambda b: sep + frag(b)).__getitem__ if sep else frag)
    small = min(max(n - 2, 0), _MEMO_MAX)
    comps = tuple(sorted(sum(1 << e for e in b) for b in p.blocks))
    lat.survivors[()] = [sep[:0]]  # a finished node's one, empty, completion
    yield from _twoblock_walk(lat, small, sep[:0], comps, frag)


def _twoblock_walk(lat: _Lattice, small: int, prefix, comps, lead) -> Iterator[tuple]:
    """The runs below a node: open components ``comps``, text ``prefix``.
    ``lead`` renders each child's block (``frag`` the one holding 1, which no
    separator precedes); at most ``small`` unplaced elements yield the memo."""
    for block, rest in lat.children(comps):
        key = prefix + lead(block)
        if sum(rest).bit_count() > small:
            yield from _twoblock_walk(lat, small, key, rest, lat.lead)
        else:
            yield key, lat.survivor_keys(rest)


def _twoblock_keys(p: SetPartition) -> Iterator[Blocks]:
    """The cr2 keys of ``_twoblock_runs``, one by one, in cr2 text order."""
    runs = _twoblock_runs(p, lambda b: (b,), ())
    return chain.from_iterable(map(prefix.__add__, suffixes) for prefix, suffixes in runs)


def csp_twoblock(p: SetPartition) -> CspResult:
    """The lattice walk that drops each subtree refining a two-block
    coarsening of ``p``; the walk lists the survivors in order, so there is no
    sort."""
    t0 = perf_counter()
    return _result(p, "twoblock", _twoblock_keys(p), t0)


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
    parts = _Memo(lambda b: list(_iter_partition_keys(b)))
    coeffs: dict[Blocks, int] = {}
    for coarse in _coarsening_keys(p.cr2_key()):
        sign = _moebius_weight(len(coarse))
        for key in _refinement_keys(coarse, parts):
            coeffs[key] = coeffs.get(key, 0) + sign
    out = []
    for key, c in coeffs.items():
        if c == 0:
            continue
        if c != 1:
            raise AlgebraConsistencyError(
                f"coefficient {c} for {_render_key(p.n)(key)}; expected 1"
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
    keys.sort(key=_render_key(target.n))
    return [SetPartition._from_key(target.n, k) for k in keys]


def csp_twoblock_onevec(mat: IndicatorMatrix) -> list[IndicatorMatrix]:
    """Two-block algorithm phrased on indicator matrices: the complementary
    family of the encoded partition, in the same order, each encoded back.
    A cr2 key's blocks are its columns in decreasing order."""
    n = mat.n
    column = _Memo(lambda b: _block_indicator(b, n))
    return [
        IndicatorMatrix(n, tuple(map(column.__getitem__, key)))
        for key in csp_twoblock(from_indicator(mat)).keys
    ]
