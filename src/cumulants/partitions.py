"""Set partitions, integer partitions, multi-indexes and multi-index partitions.

All values are immutable and all operations are pure functions, so everything
here is safe to use concurrently.  Enumeration orders are deterministic.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from itertools import chain, dropwhile, product, repeat, takewhile
from operator import index, mul, sub

from .errors import (
    AlgebraConsistencyError,
    BoundsError,
    DimensionError,
    EmptyTargetError,
    ParseError,
)

#: Largest ground set accepted by the enumeration routines.  Bell(12) is about
#: 4.2 million partitions, which is the practical ceiling for in-memory lists.
MAX_GROUND_SET = 12

MultiIndex = tuple[int, ...]
Blocks = tuple[tuple[int, ...], ...]

CANONICAL_FORMS = ("cr1", "cr2")


class _Memo(dict):
    """A dict that fills a missing key with ``fn(key)``.  Listings repeat few
    distinct blocks (at most 2^n) across many partitions (Bell(n)), so one
    memo per listing renders each block once."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Record:
    """Attributes named in ``_fields``, shown as ``Name(field=value, ...)`` and equal
    by field to a record of the same class; unhashable, as they may change."""

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """An immutable record, hashed by its fields.  ``__init__`` sets them with
    ``object.__setattr__``; any later assignment or deletion raises."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _block_text(n: int) -> Callable[[tuple[int, ...]], str]:
    """The rendered text of a block over [n]: compact digits when n <= 9,
    comma-separated otherwise."""
    sep = "" if n <= 9 else ","
    return lambda b: sep.join(map(str, b))


def _render_key(n: int) -> Callable[[Blocks], str]:
    """The text of a block key rendered over [n] (see ``_block_text``); on
    cr2 keys it orders every listing as the comma text would (``,`` and every
    digit sort before ``|``).  It memoizes block texts, which repeat across
    the keys of one listing, so make one per sort or rendering."""
    frag = _Memo(_block_text(n))
    return lambda key: "|".join(map(frag.__getitem__, key))


def _check_ground_set(n: int) -> None:
    """Raise ``BoundsError`` unless 1 <= n <= ``MAX_GROUND_SET``; lattice walks
    call this before they start, because a walk over [n] visits Bell(n) points."""
    if not 1 <= n <= MAX_GROUND_SET:
        raise BoundsError(f"n must be in 1..{MAX_GROUND_SET}, got {n}")


def _moebius_weight(k: int) -> int:
    """(-1)^(k-1) (k-1)!: the Moebius function of the partition lattice between
    a k-block partition and the one-block partition."""
    w = math.factorial(k - 1)
    return -w if k % 2 == 0 else w


def _cr2_sort(blocks) -> Blocks:
    """Blocks in lexicographic order (equals min-element order for disjoint blocks)."""
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def _cr1_sort(blocks) -> Blocks:
    """Blocks by decreasing cardinality, ties broken lexicographically."""
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: (-len(b), b)))


class SetPartition:
    """A partition of {1, ..., n} into disjoint nonempty blocks.

    Instances are stored in one of two canonical layouts and remember which:

    * ``cr1``: elements increasing inside each block; blocks ordered by
      decreasing cardinality, equal sizes broken lexicographically.
    * ``cr2``: elements increasing inside each block; blocks in lexicographic
      order (the default).

    Equality and hashing ignore the layout: two instances are equal when they
    describe the same partition of the same ground set.
    """

    __slots__ = ("n", "blocks", "form")

    def __init__(self, n: int, blocks, form: str = "cr2"):
        if form not in CANONICAL_FORMS:
            raise ValueError(f"unknown canonical form {form!r}")
        blocks = [tuple(sorted(b)) for b in blocks]
        seen = [False] * (n + 1)
        count = 0
        for block in blocks:
            if not block:
                raise ValueError("empty block")
            for e in block:
                if isinstance(e, bool) or not isinstance(e, int) or e < 1 or e > n:
                    raise ValueError(f"element {e!r} outside 1..{n}")
                if seen[e]:
                    raise ValueError(f"element {e} appears twice")
                seen[e] = True
                count += 1
        if count != n:
            missing = [e for e in range(1, n + 1) if not seen[e]]
            raise ValueError(f"elements {missing} not covered")
        self.n = n
        self.blocks = _cr1_sort(blocks) if form == "cr1" else _cr2_sort(blocks)
        self.form = form

    @classmethod
    def _from_key(cls, n: int, key: Blocks, form: str = "cr2") -> "SetPartition":
        """Trusted constructor: ``key`` must already be canonical for ``form``."""
        self = object.__new__(cls)
        self.n = n
        self.blocks = key
        self.form = form
        return self

    @classmethod
    def parse(cls, text: str) -> "SetPartition":
        """Parse ``1|2,3,4`` (comma form) or ``1|234`` (compact digit form).

        A comma anywhere selects comma form for the whole string, so
        single-element blocks of two-digit elements stay unambiguous; the
        compact form is only usable while every element is a single digit.
        Text without commas whose compact reading would need more than 9
        elements, such as the rendered singletons ``1|2|...|10``, is read in
        comma form too.
        """
        tokens = [t.strip() for t in text.strip().split("|")]
        comma_form = "," in text or sum(map(len, tokens)) > 9
        blocks: list[tuple[int, ...]] = []
        for tok in tokens:
            if not tok:
                raise ParseError(f"empty block in {text!r}")
            if comma_form:
                try:
                    block = tuple(int(e) for e in tok.split(","))
                except ValueError:
                    raise ParseError(f"bad element in block {tok!r}") from None
            elif tok.isdecimal():  # isdigit also takes '²' and '①', which int refuses
                block = tuple(int(ch) for ch in tok)
            else:
                raise ParseError(f"bad block {tok!r}")
            blocks.append(block)
        n = sum(len(b) for b in blocks)
        try:
            return cls(n, blocks)
        except ValueError as exc:
            raise ParseError(f"{text!r} is not a partition of [{n}]: {exc}") from None

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def canonical(self, form: str = "cr2") -> "SetPartition":
        """Return this partition in the requested canonical layout (idempotent)."""
        if form not in CANONICAL_FORMS:
            raise ValueError(f"unknown canonical form {form!r}")
        if form == self.form:
            return self
        key = _cr1_sort(self.blocks) if form == "cr1" else _cr2_sort(self.blocks)
        return SetPartition._from_key(self.n, key, form)

    def cr2_key(self) -> Blocks:
        return self.blocks if self.form == "cr2" else _cr2_sort(self.blocks)

    def sort_key(self) -> str:
        """Deterministic total-order key: the comma-rendered cr2 text."""
        return "|".join(",".join(map(str, b)) for b in self.cr2_key())

    def render(self) -> str:
        """Text form; compact digits when n <= 9, comma-separated otherwise.
        A listing renders faster through one shared ``_render_key(n)``."""
        return _render_key(self.n)(self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.n == other.n and self.cr2_key() == other.cr2_key()

    def __hash__(self) -> int:
        return hash((self.n, self.cr2_key()))

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"SetPartition({self.render()!r})"


class IntegerPartition(_Frozen):
    """Weakly decreasing positive integers; the block-size type of a set partition."""

    _fields = ("parts",)

    def __init__(self, parts):
        parts = tuple(sorted((int(p) for p in parts), reverse=True))
        if not parts or any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def _iter_partition_keys(elements: Sequence[int]) -> Iterator[Blocks]:
    """Yield every partition of ``elements`` as a tuple of blocks.

    Blocks are ordered by first occurrence, which is min-element (cr2) order
    when the input is sorted.  The partitions come in restricted-growth
    order: each element joins each open block in turn, then opens its own.
    """
    return _grow(tuple(elements), [], 0)


def _grow(els: tuple, blocks: list[list[int]], j: int) -> Iterator[Blocks]:
    """The partitions of ``els`` that extend ``blocks``, a placement of its
    first ``j`` elements: element j joins each block in turn, then opens a
    block of its own.  Exhausted, it leaves ``blocks`` as it found it."""
    if j == len(els):
        yield tuple(map(tuple, blocks))
        return
    e = els[j]
    for b in blocks:
        b.append(e)
        yield from _grow(els, blocks, j + 1)
        b.pop()
    blocks.append([e])
    yield from _grow(els, blocks, j + 1)
    blocks.pop()


def _refinement_keys(blocks: Blocks, lattices: _Memo) -> Iterator[Blocks]:
    """cr2 keys of the partitions refining ``blocks``: one partition of each
    block, glued.  ``lattices`` maps a block to the keys of its partitions;
    make one with ``_iter_partition_keys`` per listing, so each block's
    lattice is built once."""
    combos = product(*map(lattices.__getitem__, blocks))
    return map(tuple, map(sorted, map(sum, combos, repeat(()))))


def _coarsening_keys(blocks: Blocks) -> Iterator[Blocks]:
    """cr2 keys of the partitions that the cr2 key ``blocks`` refines: the
    groupings of whole blocks.  Each grouping lists its groups by least
    block, so the merged blocks come out in cr2 order."""
    for grouping in _iter_partition_keys(range(len(blocks))):
        yield tuple(
            tuple(sorted(chain.from_iterable(map(blocks.__getitem__, g)))) for g in grouping
        )


def enumerate_partitions(n: int, m: int | None = None) -> list[SetPartition]:
    """All partitions of [n] (restricted to m blocks when given), in cr2 text order.

    The result has Bell(n) entries, or Stirling2(n, m) with the restriction.
    """
    _check_ground_set(n)
    if m is not None and not 1 <= m <= n:
        raise BoundsError(f"m must be in 1..{n}, got {m}")
    keys = _iter_partition_keys(range(1, n + 1))
    if m is not None:
        keys = (k for k in keys if len(k) == m)
    return [SetPartition._from_key(n, k) for k in sorted(keys, key=_render_key(n))]


def _join_key(n: int, a: Blocks, b: Blocks) -> Blocks:
    """cr2 block key of the finest partition coarser than both block families."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for blocks in (a, b):
        for block in blocks:
            r0 = find(block[0])
            for e in block[1:]:
                r = find(e)
                if r != r0:
                    parent[r] = r0
    groups: dict[int, list[int]] = {}
    for e in range(1, n + 1):
        groups.setdefault(find(e), []).append(e)
    return tuple(sorted(tuple(g) for g in groups.values()))


def join(p: SetPartition, q: SetPartition) -> SetPartition:
    """Least upper bound in the refinement order: the finest common coarsening."""
    if p.n != q.n:
        raise DimensionError(f"ground sets differ: {p.n} vs {q.n}")
    return SetPartition._from_key(p.n, _join_key(p.n, p.blocks, q.blocks))


def is_complementary(p: SetPartition, q: SetPartition) -> bool:
    """True when the join of the two partitions is the one-block partition.

    This is the ground-truth test against which all listing algorithms are
    validated.
    """
    if p.n != q.n:
        raise DimensionError(f"ground sets differ: {p.n} vs {q.n}")
    return len(_join_key(p.n, p.blocks, q.blocks)) == 1


def block_type(p: SetPartition) -> IntegerPartition:
    """Decreasing list of block cardinalities, an integer partition of n."""
    return IntegerPartition(len(b) for b in p.blocks)


_BELL_CACHE: list[int] = [1]
_BELL_ROW: list[int] = [1]


def bell_number(n: int) -> int:
    """n-th Bell number by the triangle recurrence, exact."""
    if n < 0:
        raise BoundsError("n must be >= 0")
    global _BELL_ROW
    while len(_BELL_CACHE) <= n:
        row = [_BELL_ROW[-1]]
        for x in _BELL_ROW:
            row.append(row[-1] + x)
        _BELL_ROW = row
        _BELL_CACHE.append(row[0])
    return _BELL_CACHE[n]


def multi_index_factorial(i: MultiIndex) -> int:
    """Product of the entrywise factorials."""
    out = 1
    for e in i:
        out *= math.factorial(e)
    return out


def _check_multi_index(i) -> MultiIndex:
    i = tuple(i)
    if any(isinstance(e, bool) for e in i):
        raise ValueError(f"multi-index entries must be integers, got {i}")
    try:
        i = tuple(map(index, i))
    except TypeError as exc:
        raise ValueError(f"multi-index entries must be integers, got {i}") from exc
    if any(e < 0 for e in i):
        raise ValueError(f"negative entry in multi-index {i}")
    return i


class MultiIndexPartition(_Frozen):
    """An unordered collection of nonzero multi-index columns summing to a target.

    ``columns`` holds the distinct columns in strictly decreasing lexicographic
    order and ``multiplicities`` the matching repeat counts, so the encoded
    matrix has ``length`` columns in total.
    """

    _fields = ("columns", "multiplicities")

    def __init__(self, columns: tuple[MultiIndex, ...], multiplicities: tuple[int, ...]):
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "multiplicities", multiplicities)
        if not columns:
            raise ValueError("at least one column required")
        if len(columns) != len(multiplicities):
            raise ValueError("columns and multiplicities lengths differ")
        arity = len(columns[0])
        for col in columns:
            if len(col) != arity:
                raise DimensionError("columns have mixed arities")
            if any(e < 0 for e in col):
                raise ValueError("negative entry")
            if not any(col):
                raise ValueError("zero column")
        for a, b in zip(columns, columns[1:]):
            if not a > b:
                raise ValueError("columns must be strictly decreasing")
        if any(r < 1 for r in multiplicities):
            raise ValueError("multiplicities must be >= 1")

    @classmethod
    def from_columns(cls, cols) -> "MultiIndexPartition":
        """Build from an iterable of columns, merging repeats."""
        return cls._from_counts(Counter(map(_check_multi_index, cols)))

    @classmethod
    def _from_counts(cls, counts: dict[MultiIndex, int]) -> "MultiIndexPartition":
        ordered = sorted(counts, reverse=True)
        return cls(tuple(ordered), tuple(counts[c] for c in ordered))

    @classmethod
    def parse(cls, text: str) -> "MultiIndexPartition":
        """Parse ``1,0,0|0,1,1^2``: columns split by ``|``, optional ``^r``
        repeats, which are counted, never written out."""
        counts: Counter[MultiIndex] = Counter()
        for tok in text.strip().split("|"):
            tok = tok.strip()
            mult = 1
            if "^" in tok:
                tok, _, m = tok.partition("^")
                try:
                    mult = int(m)
                except ValueError:
                    raise ParseError(f"bad multiplicity {m!r}") from None
                if mult < 1:
                    raise ParseError(f"multiplicity must be >= 1, got {mult}")
            try:
                col = tuple(int(e) for e in tok.split(","))
            except ValueError:
                raise ParseError(f"bad column {tok!r}") from None
            counts[col] += mult
        try:
            return cls._from_counts(counts)
        except (ValueError, DimensionError) as exc:
            raise ParseError(f"{text!r}: {exc}") from None

    @property
    def arity(self) -> int:
        return len(self.columns[0])

    @property
    def target(self) -> MultiIndex:
        total = [0] * self.arity
        for col, r in zip(self.columns, self.multiplicities):
            for k, e in enumerate(col):
                total[k] += r * e
        return tuple(total)

    @property
    def length(self) -> int:
        return sum(self.multiplicities)

    def expanded(self) -> list[MultiIndex]:
        """Columns with multiplicities written out, in canonical order."""
        out = []
        for col, r in zip(self.columns, self.multiplicities):
            out.extend([col] * r)
        return out

    def __str__(self) -> str:
        return "|".join(
            ",".join(str(e) for e in col) + (f"^{r}" if r > 1 else "")
            for col, r in zip(self.columns, self.multiplicities)
        )


def _mip_walk(i) -> Iterator[tuple[tuple[MultiIndex, ...], tuple[int, ...], int]]:
    """Every multi-index partition of the target ``i`` as (columns,
    multiplicities, subdivision coefficient), largest column sequences first.

    Columns are pushed in weakly decreasing order, each counted down from the
    previous one among the nonzero columns entrywise <= what remains.  Each
    push multiplies the coefficient by the ways to pick the column from what
    remains, over its repeat so far (exact: it counts placements of the
    pushed columns).  The target is checked at the first ``next()``.
    """
    i = _check_multi_index(i)
    if not any(i):
        raise EmptyTargetError("target multi-index has no nonzero entry")
    if sum(i) > MAX_GROUND_SET:
        raise BoundsError(f"|i| must be <= {MAX_GROUND_SET}, got {sum(i)}")

    yield from _mip_grow(i, i, (), (), 1)


def _mip_grow(remaining, bound, cols, mults, coef):
    """The completions of the pushed ``cols`` (repeated ``mults`` times, of
    coefficient ``coef``): each nonzero column entrywise <= ``remaining`` and
    at most ``bound``, counted down, is pushed in turn."""
    cands = product(*[range(r, -1, -1) for r in remaining])
    for col in takewhile(any, dropwhile(bound.__lt__, cands)):
        if cols and cols[-1] == col:
            cols_, mults_ = cols, mults[:-1] + (mults[-1] + 1,)
        else:
            cols_, mults_ = cols + (col,), mults + (1,)
        coef_ = coef * math.prod(map(math.comb, remaining, col)) // mults_[-1]
        rest = tuple(map(sub, remaining, col))
        if any(rest):
            yield from _mip_grow(rest, col, cols_, mults_, coef_)
        else:
            yield cols_, mults_, coef_


def enumerate_multiindex_partitions(i) -> list[MultiIndexPartition]:
    """All multi-index partitions of the target ``i``, in deterministic order.

    Columns within each partition are weakly decreasing; partitions are emitted
    with the lexicographically largest column sequences first.  For the all-ones
    target of length n the count equals Bell(n).
    """
    return [MultiIndexPartition(cols, mults) for cols, mults, _ in _mip_walk(i)]


def subdivision_coefficient(mip: MultiIndexPartition) -> int:
    """Multinomial weight of a multi-index partition.

    Equals target! divided by the product over distinct columns of
    (column!)^multiplicity * multiplicity!.  Always a positive integer; it
    counts the distinct ways to realize the partition on labeled positions.
    """
    num = multi_index_factorial(mip.target)
    den = 1
    for col, r in zip(mip.columns, mip.multiplicities):
        den *= multi_index_factorial(col) ** r * math.factorial(r)
    q, rem = divmod(num, den)
    if rem:
        raise AlgebraConsistencyError(f"non-integer coefficient for {mip}")
    return q


def _column_groupings(columns, multiplicities):
    """Every grouping of a column multiset into blocks, as (merged, blocks, count).

    ``columns[k]`` appears ``multiplicities[k]`` times.  A grouping is a
    multi-index partition of the multiplicities; it stands for ``count`` (its
    subdivision coefficient) set partitions of the written-out columns, all
    with the same merged blocks.  ``merged`` lists each distinct block as
    (summed column, repeat, number of columns in the block).
    """
    rows = list(zip(*columns))
    block = _Memo(lambda beta: (tuple(sum(map(mul, beta, row)) for row in rows), sum(beta)))
    for betas, reps, count in _mip_walk(multiplicities):
        merged = [(col, rep, size) for (col, size), rep in zip(map(block.__getitem__, betas), reps)]
        yield merged, sum(reps), count
