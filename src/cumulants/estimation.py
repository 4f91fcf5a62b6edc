"""Unbiased estimation of generalized multivariate cumulants from sample data.

Estimators are symbolic rational expressions in the sample size N and in power
sums S_t = sum_l prod_j X_{j,l}^{t_j}.  Coefficients are integer polynomials
in N over a falling-factorial denominator N(N-1)...(N-r+1), where r is the
largest number of power-sum factors in any monomial.

A sample is stored by column, one ``array('d')`` per variable.  ``load_csv``
parses plain CSV text in chunks of about 64 KiB straight into those arrays:
one shape check per chunk (its commas and line feeds against the same comma
row repeated), one split and one ``float`` pass.  Entries are proved finite by
the column sums, since a non-finite entry makes its column's sum non-finite;
they are scanned one by one only when a sum is not finite.  Anything else goes
to a cell-by-cell reader, which appends each cell to its column and locates
errors.

Evaluation is exact as well: every finite float is an integer times a power
of two, so each column is converted to integers once per sample, the power
sums are exact rationals, and the estimate is the exact rational value of the
expression on the sample, rounded to a float once at the end.  No digits are
lost to cancellation, even on data with a large offset.
"""

from __future__ import annotations

import csv
import math
from array import array
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import repeat
from operator import itemgetter, mul

from .errors import (
    AlgebraConsistencyError,
    BoundsError,
    DimensionError,
    InsufficientSampleError,
    ParseError,
)
from .indicator import IndicatorMatrix
from .algebra import (
    Polynomial,
    Term,
    _factors_text,
    _join_signed,
    _term,
    cumulants_to_moments,
)
from .partitions import (
    MultiIndex,
    MultiIndexPartition,
    _Memo,
    _check_ground_set,
    _check_multi_index,
    _column_groupings,
    _iter_partition_keys,
    _moebius_weight,
)

# ---------------------------------------------------------------------------
# Integer polynomials in the symbol N, stored as ascending coefficient tuples.

NPoly = tuple[int, ...]


def _npoly_trim(p) -> NPoly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _npoly_add(a: NPoly, b: NPoly) -> NPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return _npoly_trim(out)


def _npoly_mul(a: NPoly, b: NPoly) -> NPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _npoly_trim(out)


def _npoly_scale(a: NPoly, k: int) -> NPoly:
    if k == 0:
        return ()
    return tuple(k * c for c in a)


def _npoly_div_linear(p: NPoly, root: int) -> NPoly:
    """Exact division by (N - root); raises when the remainder is nonzero."""
    if not p:
        return ()
    acc = 0
    down = []
    for a in reversed(p):
        acc = a + root * acc
        down.append(acc)
    if down[-1] != 0:
        raise AlgebraConsistencyError(f"polynomial not divisible by (N - {root})")
    return _npoly_trim(reversed(down[:-1]))


def _npoly_eval(p: NPoly, value: int) -> int:
    out = 0
    for c in reversed(p):
        out = out * value + c
    return out


def _npoly_render(p: NPoly) -> tuple[int, str]:
    """Sign and body for display; the body has a positive leading coefficient."""
    deg = len(p) - 1
    sign = 1 if p[-1] > 0 else -1
    q = [sign * c for c in p]

    def frag(c: int, k: int) -> str:
        if k == 0:
            return str(c)
        n_part = "N" if k == 1 else f"N^{k}"
        return n_part if c == 1 else f"{c} {n_part}"

    nonzero = [(k, q[k]) for k in range(deg, -1, -1) if q[k]]
    if len(nonzero) == 1:
        k, c = nonzero[0]
        return sign, frag(c, k)
    body = _join_signed([(c < 0, frag(abs(c), k)) for k, c in nonzero])
    return sign, f"({body})"


# ---------------------------------------------------------------------------


class PowerSumPolynomial:
    """Rational-in-N combination of power-sum monomials, in canonical form.

    ``terms`` maps a power-sum monomial (multiset of labels) to an integer
    polynomial in N; the shared denominator is the falling factorial of
    ``order``.  On construction the order is lowered to the largest factor
    count actually present, cancelling (N - j) factors exactly.
    """

    __slots__ = ("arity", "order", "terms")

    def __init__(self, arity: int, order: int, terms: dict[Term, NPoly]):
        clean: dict[Term, NPoly] = {}
        for mono, poly in terms.items():
            poly = _npoly_trim(poly)
            if poly:
                clean[mono] = poly
        need = max((sum(m for _, m in mono) for mono in clean), default=0)
        while order > need:
            order -= 1
            clean = {m: _npoly_div_linear(p, order) for m, p in clean.items()}
        self.arity = arity
        self.order = order
        self.terms = clean

    @classmethod
    def zero(cls, arity: int) -> "PowerSumPolynomial":
        return cls(arity, 0, {})

    def _raised_terms(self, target_order: int) -> dict[Term, NPoly]:
        """Numerators rewritten over the falling factorial of ``target_order``."""
        factor: NPoly = (1,)
        for j in range(self.order, target_order):
            factor = _npoly_mul(factor, (-j, 1))
        return {m: _npoly_mul(p, factor) for m, p in self.terms.items()}

    def __add__(self, other: "PowerSumPolynomial") -> "PowerSumPolynomial":
        if self.arity != other.arity:
            raise DimensionError(f"arities differ: {self.arity} vs {other.arity}")
        order = max(self.order, other.order)
        out = self._raised_terms(order)
        for mono, poly in other._raised_terms(order).items():
            out[mono] = _npoly_add(out.get(mono, ()), poly)
        return PowerSumPolynomial(self.arity, order, out)

    def __sub__(self, other: "PowerSumPolynomial") -> "PowerSumPolynomial":
        return self + other.scale(-1)

    def scale(self, k: int) -> "PowerSumPolynomial":
        return PowerSumPolynomial(
            self.arity, self.order, {m: _npoly_scale(p, k) for m, p in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSumPolynomial):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.order == other.order
            and self.terms == other.terms
        )

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        factors_text = _factors_text("S")
        bits = []
        for mono in sorted(self.terms, reverse=True):
            sign, coeff = _npoly_render(self.terms[mono])
            factors = factors_text(mono)
            body = factors if coeff == "1" and factors else f"{coeff} {factors}".rstrip()
            bits.append((sign < 0, body))
        num = _join_signed(bits)
        if self.order == 0:
            return num
        den = "N" + "".join(f"(N-{j})" for j in range(1, self.order))
        if len(bits) > 1 or bits[0][0]:
            num = f"({num})"
        return f"{num} / {den}"

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"PowerSumPolynomial({self.pretty()!r})"


# ---------------------------------------------------------------------------


class SampleMatrix:
    """N observations (rows) of n real variables (columns); entries are finite
    floats (``from_rows`` converts).  The sample is stored by column, one
    ``array('d')`` per variable, and ``rows`` is a view built on demand; each
    column is converted to exact integers once, on first use by ``power_sum``."""

    __slots__ = ("columns", "names", "_ints")

    def __init__(self, rows, names=None):
        if not rows or not rows[0]:
            raise ValueError("need at least one row and one column")
        width = len(rows[0])
        if set(map(len, rows)) != {width}:
            r, row = next(
                (r, row) for r, row in enumerate(rows, start=1) if len(row) != width
            )
            raise ValueError(f"row {r} has {len(row)} columns, expected {width}")
        self._adopt(tuple(array("d", column) for column in zip(*rows)), names)

    @classmethod
    def _from_columns(cls, columns, names) -> "SampleMatrix":
        data = cls.__new__(cls)
        data._adopt(columns, names)
        return data

    def _adopt(self, columns: tuple[array, ...], names) -> None:
        if not columns or not columns[0]:
            raise ValueError("need at least one row and one column")
        # A non-finite partial sum never becomes finite again, so a finite column
        # sum proves every entry finite.  Entries are scanned only when a sum is
        # not finite: on a bad entry, or on finite entries whose sum overflows.
        if not all(map(math.isfinite, map(sum, columns))):
            for r, row in enumerate(zip(*columns), start=1):
                for c, x in enumerate(row, start=1):
                    if not math.isfinite(x):
                        raise ValueError(f"non-finite entry at row {r}, column {c}")
        if names is not None and len(names) != len(columns):
            raise ValueError(f"{len(names)} names for {len(columns)} columns")
        self.columns = columns
        self.names = names
        self._ints = _Memo(partial(_integer_column, columns))

    @classmethod
    def from_rows(cls, rows, names=None) -> "SampleMatrix":
        return cls(tuple(tuple(map(float, row)) for row in rows),
                   tuple(names) if names else None)

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(zip(*self.columns))

    @property
    def num_rows(self) -> int:
        return len(self.columns[0])

    @property
    def num_cols(self) -> int:
        return len(self.columns)


#: ``_integer_column`` guesses a column's shift from this many leading entries.
_SHIFT_PROBE = 1000


def _least_shift(values) -> int:
    """The least k >= 0 such that every value times 2**k is an integer.  A
    finite float's denominator is a power of two, so k is the bit length of
    the largest one, less one."""
    return max(map(itemgetter(1), map(float.as_integer_ratio, values))).bit_length() - 1


def _integer_column(columns, j: int) -> tuple[int, list[int]]:
    """The least shift k of column j and its integers x * 2**k.

    k is guessed from the first ``_SHIFT_PROBE`` entries and confirmed on the
    scaled column: when every scaled entry is an integer, no entry needs a
    larger shift.  Otherwise k comes from every entry.  The scaled floats are
    streamed twice rather than held, which would add a second list of the
    column's length to the peak memory."""
    column = columns[j]
    k = probe = _least_shift(column[:_SHIFT_PROBE])
    try:
        if not all(map(float.is_integer, map(math.ldexp, column, repeat(k)))):
            k = _least_shift(column)
        return k, list(map(int, map(math.ldexp, column, repeat(k))))
    except OverflowError:  # some scaled entry is beyond the float range
        if k == probe:  # the check overflowed before k was taken from every entry
            k = _least_shift(column)
        ratios = map(float.as_integer_ratio, column)
        return k, [n << (k + 1 - d.bit_length()) for n, d in ratios]


#: ``load_csv`` reads its data lines in chunks of about this many characters.
_CHUNK = 1 << 16

#: Every byte but the comma and the line feed, which a chunk's shape check deletes.
_NOT_SEP = bytes(sorted(set(range(256)) - set(b",\n")))


def load_csv(path, has_header: bool = False) -> SampleMatrix:
    """Read a rectangular CSV of finite numbers in UTF-8, with or without a
    byte-order mark; parse errors carry row/column coordinates.

    The data lines are read in chunks of about 64 KiB, each cut at its last
    line break.  In each chunk CRLF and lone CR line ends become ``\\n`` and
    blank lines are dropped.  Its shape is checked once: every byte but the
    commas and line feeds is deleted, and what is left must be the first
    row's commas repeated, one line feed between rows.  Then all its cells
    are parsed by one ``float`` pass straight into the column arrays, so
    neither row tuples nor the whole text are held.  Finiteness is decided
    from the column sums, as for every ``SampleMatrix``.  A file that has
    quotes, ragged or over-long lines, an underscore, a cell that is not a
    finite number, or any decoding error is read again by the cell-by-cell
    reader, which reports where the error is.
    """
    try:
        return _load_csv_columns(path, has_header)
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        return _load_csv_cells(path, has_header)


def _line_chunks(fh, limit: int):
    """The rest of ``fh`` in pieces of about ``_CHUNK`` characters, each but
    the last cut at its last line break (``\\n`` or ``\\r``), which is dropped.
    Raises ``ValueError`` once the partial line carried to the next piece is
    longer than ``limit``.  No more than the chunk and its piece are held."""
    carry = ""
    while chunk := fh.read(_CHUNK):
        cut = max(chunk.rfind("\n"), chunk.rfind("\r"))
        if cut < 0:
            carry += chunk
            if len(carry) > limit:
                raise ValueError("a line longer than the field size limit")
            continue
        yield carry + chunk[:cut]
        carry = chunk[cut + 1:]
    yield carry


def _load_csv_columns(path, has_header: bool) -> SampleMatrix:
    """``load_csv``'s plain path; raises ``ValueError`` on what it cannot read."""
    names = None
    columns: list[array] = []
    limit = csv.field_size_limit()
    with open(path, newline="", encoding="utf-8-sig") as fh:
        if has_header:
            header = next(filter(None, csv.reader(fh)), ())
            names = tuple(cell.strip() for cell in header)
            columns = [array("d") for _ in names]
        for text in _line_chunks(fh, limit):
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            text = text.strip("\n")  # a CRLF cut between chunks leaves a leading "\n"
            if not text:
                continue
            if "_" in text:  # float takes PEP 515 digit separators; a cell may not
                raise ValueError("an underscore in a cell")
            # The commas and line feeds, one byte a cell: a blank line leaves
            # "\n\n" here too, and here is much shorter to search.
            sep = text.encode().translate(None, _NOT_SEP)
            if b"\n\n" in sep and "\n\n" in text:
                while "\n\n" in text:
                    text = text.replace("\n\n", "\n")
                sep = text.encode().translate(None, _NOT_SEP)
            if not columns:
                columns = [array("d") for _ in range(text.partition("\n")[0].count(",") + 1)]
            width = len(columns)
            row = b"," * (width - 1)
            if (sep != (row + b"\n") * sep.count(b"\n") + row
                    or len(text) > limit and max(map(len, text.split("\n"))) > limit):
                raise ValueError("not a plain CSV chunk")
            cells = array("d", map(float, text.replace("\n", ",").split(",")))  # refuses quotes
            for j, column in enumerate(columns):
                column.extend(cells[j::width])
    return SampleMatrix._from_columns(tuple(columns), names)


def _load_csv_cells(path, has_header: bool) -> SampleMatrix:
    """``load_csv`` one cell at a time, each appended to its column array,
    raising the ``ParseError`` of the first ragged row, non-numeric cell,
    non-finite cell or CSV error."""
    names = None
    columns: list[array] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for lineno, record in enumerate(csv.reader(fh), start=1):
                if not record:
                    continue
                if not columns:
                    columns = [array("d") for _ in record]
                    if has_header:
                        names = tuple(cell.strip() for cell in record)
                        continue
                if len(record) != len(columns):
                    raise ParseError(
                        f"row {lineno} has {len(record)} fields, expected {len(columns)}"
                    )
                for col, (column, cell) in enumerate(zip(columns, record), start=1):
                    try:
                        if "_" in cell:  # float takes PEP 515 digit separators
                            raise ValueError(cell)
                        x = float(cell)
                    except ValueError:
                        raise ParseError(
                            f"non-numeric value {cell.strip()!r} at row {lineno}, column {col}"
                        ) from None
                    if not math.isfinite(x):
                        raise ParseError(
                            f"non-finite value {cell.strip()!r} at row {lineno}, column {col}"
                        )
                    column.append(x)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise ParseError(f"{path} is not a valid CSV file: {exc}") from None
    if not columns or not columns[0]:
        raise ParseError("no data rows")
    return SampleMatrix._from_columns(tuple(columns), names)


def power_sum(data: SampleMatrix, t) -> Fraction:
    """S_t = sum over rows of the product of entries raised to t, with 0^0 = 1.

    The sum is exact: each active column j is held as the integers x * 2**k_j
    (converted once per sample), their powers and products are summed as
    integers, and the total is divided by 2**(sum_j k_j t_j).
    """
    t = _check_multi_index(t)
    if len(t) != data.num_cols:
        raise DimensionError(f"label arity {len(t)} != {data.num_cols} columns")
    active = [(data._ints[j], e) for j, e in enumerate(t) if e]
    if not active:
        return Fraction(data.num_rows)
    streams = [ints if e == 1 else map(pow, ints, repeat(e)) for (_, ints), e in active]
    total = sum(reduce(partial(map, mul), streams))
    return Fraction(total, 1 << sum(k * e for (k, _), e in active))


def distinct_index_expansion(factors) -> PowerSumPolynomial:
    """Unbiased estimator of a product of raw moments, in power sums.

    For factors a_1..a_r this represents the average of
    prod_j X_{.,l_j}^{a_j} over pairwise-distinct row indexes l_1..l_r: the
    sum over the partitions of the factor positions, each block contributing
    the power sum of its summed labels and a (-1)^(size-1) (size-1)! weight,
    all over the falling factorial of order r.
    """
    factors = [_check_multi_index(a) for a in factors]
    if not factors:
        raise ValueError("need at least one factor")
    _check_ground_set(len(factors))
    arity = len(factors[0])
    for a in factors:
        if len(a) != arity:
            raise DimensionError("factors have mixed arities")
    r = len(factors)
    terms: dict[Term, NPoly] = {}
    for key in _iter_partition_keys(range(r)):
        coeff = 1
        labels = []
        for block in key:
            coeff *= _moebius_weight(len(block))
            labels.append(
                (tuple(sum(factors[j][k] for j in block) for k in range(arity)), 1)
            )
        mono = _term(labels)
        terms[mono] = _npoly_add(terms.get(mono, ()), (coeff,))
    return PowerSumPolynomial(arity, r, terms)


def polykay(mip: MultiIndexPartition) -> PowerSumPolynomial:
    """Unbiased estimator of a product of cumulants (a multivariate polykay).

    Each cumulant factor is expanded into moments, the expansions are
    multiplied formally, and every moment monomial is replaced by its
    distinct-index estimator; collecting gives the unique symmetric unbiased
    estimator in power sums.
    """
    _check_ground_set(sum(mip.target))
    arity = mip.arity
    kappas = Polynomial(arity, {_term(zip(mip.columns, mip.multiplicities)): 1})
    mp = kappas.substitute(cumulants_to_moments, "mu")
    total = PowerSumPolynomial.zero(arity)
    for key, coeff in mp.terms.items():
        factor_list: list[MultiIndex] = []
        for mi, mult in key:
            factor_list.extend([mi] * mult)
        total = total + distinct_index_expansion(factor_list).scale(coeff)
    return total


def generalized_cumulant_estimator(mat: IndicatorMatrix) -> PowerSumPolynomial:
    """Unbiased estimator of the generalized cumulant encoded by ``mat``: the
    multivariate one whose columns are the block indicators."""
    return generalized_multivariate_cumulant_estimator(
        MultiIndexPartition.from_columns(mat.columns)
    )


@lru_cache(maxsize=None)
def _k_statistic_coefficient(sizes: tuple[int, ...]) -> NPoly:
    """Numerator over N(N-1)...(N-m+1), m = sum(sizes), of the power-sum
    monomial whose factors merge ``sizes`` columns each: the sum over b of
    prod_j S(d_j, b_j) mu(b_j) * mu(B) / N(N-1)...(N-B+1), with B = sum_j b_j.
    The groupings of d columns into b parts give the row S(d, b) mu(b)."""
    by_parts: NPoly = (1,)
    for d in sizes:
        row = [0] * (d + 1)
        for _, parts, count in _column_groupings(((1,),), (d,)):
            row[parts] += count * _moebius_weight(parts)
        by_parts = _npoly_mul(by_parts, row)
    out: NPoly = ()
    for parts in range(1, len(by_parts)):  # Horner's rule in the (N - parts + 1)
        out = _npoly_mul(out, (1 - parts, 1))
        out = _npoly_add(out, (by_parts[parts] * _moebius_weight(parts),))
    return out


def generalized_multivariate_cumulant_estimator(
    mip: MultiIndexPartition,
) -> PowerSumPolynomial:
    """Unbiased estimator of a generalized multivariate cumulant.

    This is the joint k-statistic of the columns, each read as one variable
    (McCullagh, *Tensor Methods in Statistics*, ch. 4): the sum over the
    groupings of the columns of the power-sum monomial of the merged columns,
    weighted by the number of column partitions the grouping stands for and by
    a coefficient that depends only on the block sizes.
    """
    _check_ground_set(sum(mip.target))
    terms: dict[Term, NPoly] = {}
    for merged, _, count in _column_groupings(mip.columns, mip.multiplicities):
        mono = _term((col, rep) for col, rep, _ in merged)
        sizes = tuple(sorted(d for _, rep, d in merged for _ in range(rep)))
        coeff = _npoly_scale(_k_statistic_coefficient(sizes), count)
        terms[mono] = _npoly_add(terms.get(mono, ()), coeff)
    return PowerSumPolynomial(mip.arity, mip.length, terms)


def evaluate(expr: PowerSumPolynomial, data: SampleMatrix) -> float:
    """Evaluate on a sample: the exact rational value of the expression, from
    exact power sums and integer coefficients, rounded to a float once."""
    if expr.arity != data.num_cols:
        raise DimensionError(
            f"expression arity {expr.arity} != {data.num_cols} data columns"
        )
    n_obs = data.num_rows
    if n_obs < expr.order:
        raise InsufficientSampleError(
            f"need at least {expr.order} observations, got {n_obs}"
        )
    den = 1
    for j in range(expr.order):
        den *= n_obs - j
    ps = _Memo(partial(power_sum, data))
    total = Fraction(0)
    for mono, poly in expr.terms.items():
        val = Fraction(_npoly_eval(poly, n_obs))
        for lab, mult in mono:
            val *= ps[lab] ** mult
        total += val
    try:
        return float(total / den)
    except OverflowError:
        raise BoundsError("the estimate is outside the float range") from None
