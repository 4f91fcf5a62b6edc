"""Binary block-indicator matrices and the dummy-variable calculus.

A partition of [n] is encoded as an n-row binary matrix with one column per
block: entry (t, j) is 1 exactly when t lies in block j.  Column spans of
these matrices turn the partition lattice into subspace arithmetic: the join
of two partitions corresponds to the intersection of their column spans, and
a pair is complementary exactly when that intersection is the line spanned by
the all-ones vector.

The second half of the module handles repeated variables: a multi-index
partition is expanded into an indicator matrix over distinct dummy variables
(one dummy per unit of the target), and collapsed back by aggregating dummy
rows variable by variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .errors import DimensionError, MalformedMatrixError, ParseError
from .linalg import integer_rank, nullspace_basis
from .partitions import MultiIndex, MultiIndexPartition, SetPartition, _check_ground_set
from .partitions import _check_multi_index

Column = tuple[int, ...]


@dataclass(frozen=True)
class IndicatorMatrix:
    """Binary matrix whose columns are the block indicators of a partition.

    Every row carries exactly one 1, columns are nonzero and stored in
    decreasing lexicographic order (the order induced by the cr2 layout of
    the encoded partition).
    """

    n: int
    columns: tuple[Column, ...]

    def __post_init__(self):
        if self.n < 1:
            raise MalformedMatrixError("need at least one row")
        if not self.columns:
            raise MalformedMatrixError("need at least one column")
        for col in self.columns:
            if len(col) != self.n:
                raise MalformedMatrixError("column length differs from row count")
            if any(e not in (0, 1) for e in col):
                raise MalformedMatrixError("entries must be 0 or 1")
            if not any(col):
                raise MalformedMatrixError("zero column")
        for t in range(self.n):
            ones = sum(col[t] for col in self.columns)
            if ones != 1:
                raise MalformedMatrixError(f"row {t + 1} has {ones} ones, expected 1")
        for a, b in zip(self.columns, self.columns[1:]):
            if not a > b:
                raise MalformedMatrixError("columns must be strictly decreasing")

    @classmethod
    def from_columns(cls, n: int, cols) -> "IndicatorMatrix":
        return cls(n, tuple(sorted((tuple(c) for c in cols), reverse=True)))

    @classmethod
    def parse(cls, text: str) -> "IndicatorMatrix":
        """Parse ``1000|0111``: one 0/1 digit string per column, rows top to bottom."""
        tokens = [t.strip() for t in text.strip().split("|")]
        if not tokens or any(not t for t in tokens):
            raise ParseError(f"empty column in {text!r}")
        n = len(tokens[0])
        cols = []
        for tok in tokens:
            if len(tok) != n or any(ch not in "01" for ch in tok):
                raise ParseError(f"bad column {tok!r}")
            cols.append(tuple(int(ch) for ch in tok))
        return cls.from_columns(n, cols)

    @property
    def m(self) -> int:
        return len(self.columns)

    def render(self) -> str:
        return "|".join("".join(str(e) for e in col) for col in self.columns)

    def __str__(self) -> str:
        return self.render()


def _block_indicator(block, n: int) -> Column:
    """0/1 indicator over [n] of a block of elements of [n]."""
    col = [0] * n
    for e in block:
        col[e - 1] = 1
    return tuple(col)


def to_indicator(p: SetPartition) -> IndicatorMatrix:
    """Indicator matrix of a partition; column j encodes block j of the cr2 layout."""
    return IndicatorMatrix(p.n, tuple(_block_indicator(b, p.n) for b in p.cr2_key()))


def from_indicator(mat: IndicatorMatrix) -> SetPartition:
    """Partition whose blocks are the column supports; inverse of ``to_indicator``."""
    blocks = [tuple(t + 1 for t in range(mat.n) if col[t]) for col in mat.columns]
    return SetPartition(mat.n, blocks)


def _stacked_rows(a: IndicatorMatrix, b: IndicatorMatrix) -> list[list[int]]:
    """Rows of the block matrix [A | -B]."""
    if a.n != b.n:
        raise DimensionError(f"row counts differ: {a.n} vs {b.n}")
    return [
        [col[t] for col in a.columns] + [-col[t] for col in b.columns]
        for t in range(a.n)
    ]


def span_intersection(a: IndicatorMatrix, b: IndicatorMatrix) -> list[tuple[Fraction, ...]]:
    """Rational basis of the intersection of the two column spans.

    Computed from the nullspace of the block matrix [A | -B]: each nullspace
    vector (x, y) satisfies A x = B y, and A x is the intersection vector.
    The basis spans the indicator matrix of the join of the two partitions.
    """
    basis = []
    for v in nullspace_basis(_stacked_rows(a, b)):
        x = v[: a.m]
        vec = tuple(
            sum((x[j] for j in range(a.m) if a.columns[j][t]), Fraction(0))
            for t in range(a.n)
        )
        basis.append(vec)
    return basis


def is_complementary_indicator(a: IndicatorMatrix, b: IndicatorMatrix) -> bool:
    """True when the column spans meet only in the all-ones line.

    The intersection dimension equals m_a + m_b - rank[A | -B] because both
    matrices have full column rank, so a rank computation suffices.
    """
    return a.m + b.m - integer_rank(_stacked_rows(a, b)) == 1


IntersectionMatrix = tuple[tuple[int, ...], ...]


def intersection_matrix(p: SetPartition, q: SetPartition) -> IntersectionMatrix:
    """Matrix of block-overlap cardinalities |B_i ∩ C_j| in the stored block orders.

    Row sums give the block sizes of ``p`` and column sums those of ``q``.
    """
    if p.n != q.n:
        raise DimensionError(f"ground sets differ: {p.n} vs {q.n}")
    q_sets = [set(c) for c in q.blocks]
    return tuple(
        tuple(sum(1 for e in b if e in c) for c in q_sets) for b in p.blocks
    )


def _canonical_matrix(mat: IntersectionMatrix) -> IntersectionMatrix:
    rows = sorted(mat, reverse=True)
    cols = sorted(zip(*rows), reverse=True)
    return tuple(zip(*cols))


def same_equivalence_class(base: SetPartition, p: SetPartition, q: SetPartition) -> bool:
    """True when p and q have the same intersection matrix with ``base`` up to
    row/column permutation (rows then columns sorted decreasingly)."""
    m1 = intersection_matrix(p, base)
    m2 = intersection_matrix(q, base)
    if len(m1) != len(m2) or len(m1[0]) != len(m2[0]):
        return False
    return _canonical_matrix(m1) == _canonical_matrix(m2)


@dataclass(frozen=True)
class VariableLabeling:
    """Interval map sending dummy positions 1..p back onto variables 1..n.

    Variable k owns the ``target[k-1]`` consecutive positions that follow the
    positions of variables 1..k-1, so the preimages are contiguous, disjoint
    intervals covering 1..p.
    """

    target: MultiIndex

    def __post_init__(self):
        object.__setattr__(self, "target", _check_multi_index(self.target))
        if sum(self.target) < 1:
            raise ValueError("target must have positive order")

    @property
    def arity(self) -> int:
        return len(self.target)

    @property
    def positions(self) -> int:
        return sum(self.target)

    def bounds(self) -> list[int]:
        """Cumulative sums t_0=0, t_1, ..., t_n."""
        out = [0]
        for e in self.target:
            out.append(out[-1] + e)
        return out

    def interval(self, k: int) -> range:
        """Positions mapped to variable k (1-based, possibly empty)."""
        if not 1 <= k <= self.arity:
            raise DimensionError(f"variable {k} outside 1..{self.arity}")
        b = self.bounds()
        return range(b[k - 1] + 1, b[k] + 1)


def labeling_rule(i) -> VariableLabeling:
    return VariableLabeling(tuple(i))


def to_dummy_indicator(mip: MultiIndexPartition) -> IndicatorMatrix:
    """Expand a multi-index partition into a dummy-variable indicator matrix.

    Each variable k contributes target[k] dummy rows; within that interval the
    expanded columns take their entry's worth of consecutive rows, in canonical
    column order.  Collapsing the result under ``labeling_rule(target)``
    returns the original multi-index partition, and the column supports stay
    in decreasing order.
    """
    _check_ground_set(sum(mip.target))
    cols = mip.expanded()
    labeling = labeling_rule(mip.target)
    supports: list[list[int]] = [[] for _ in cols]
    for k, pos in enumerate(labeling.bounds()[:-1]):
        for support, col in zip(supports, cols):
            support.extend(range(pos + 1, pos + 1 + col[k]))
            pos += col[k]
    p = labeling.positions
    return IndicatorMatrix.from_columns(p, (_block_indicator(s, p) for s in supports))


def _interval_sums(col: Column, bounds: list[int]) -> MultiIndex:
    """A dummy column collapsed onto the variables: its entries summed over
    each interval ``bounds[k]:bounds[k + 1]`` of a labeling."""
    return tuple(sum(col[a:b]) for a, b in zip(bounds, bounds[1:]))


def collapse_indicator(mat: IndicatorMatrix, labeling: VariableLabeling) -> MultiIndexPartition:
    """Aggregate the dummy rows of each column over the labeling intervals."""
    if mat.n != labeling.positions:
        raise DimensionError(
            f"matrix has {mat.n} rows but labeling covers {labeling.positions} positions"
        )
    bounds = labeling.bounds()
    return MultiIndexPartition.from_columns(_interval_sums(col, bounds) for col in mat.columns)


def indicator_preimages(
    mip: MultiIndexPartition, labeling: VariableLabeling
) -> list[IndicatorMatrix]:
    """All indicator matrices that collapse to ``mip`` under ``labeling``.

    Blocks are opened in order of their least position: the least free
    position takes one remaining column of ``mip`` that has its variable, and
    the column's other entries are chosen among the free positions of each
    variable.  So each matrix is built once, and the count is the
    subdivision coefficient of ``mip``.
    """
    if mip.target != labeling.target:
        raise DimensionError("labeling target differs from partition target")
    _check_ground_set(labeling.positions)
    p = labeling.positions
    var = {t: k for k in range(labeling.arity) for t in labeling.interval(k + 1)}
    walk = _preimage_walk(mip.columns, list(mip.multiplicities), var, p, tuple(range(1, p + 1)), ())
    return [IndicatorMatrix(p, key) for key in sorted(walk, reverse=True)]


def _preimage_walk(columns, left, var, p, free, blocks):
    """The column tuples that complete ``blocks`` on the ``free`` positions:
    the least free position t opens a block with a column j of ``columns``
    that has t's variable ``var[t]`` and is not used up (``left[j]`` > 0)."""
    if not free:
        yield blocks
        return
    t, rest = free[0], free[1:]
    for j, col in enumerate(columns):
        if not left[j] or not col[var[t]]:
            continue
        need = [e - (k == var[t]) for k, e in enumerate(col)]
        picks = [combinations([s for s in rest if var[s] == k], e) for k, e in enumerate(need)]
        left[j] -= 1
        for chosen in product(*picks):
            block = {t}.union(*chosen)
            column = _block_indicator(block, p)
            free_ = tuple(s for s in rest if s not in block)
            yield from _preimage_walk(columns, left, var, p, free_, blocks + (column,))
        left[j] += 1
