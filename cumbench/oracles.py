"""Independent oracles for every output the benchmark checks.

Nothing here imports ``cumulants``: each check rests on a definition or a
textbook identity, not on the code under test.

* Listing count: the Moebius sum over the coarsenings sigma of p,
  sum (-1)^(k-1) (k-1)! prod_{C in sigma} Bell(|C|).
* Listing entries: distinct partitions of [n] in cr2 text order whose join
  with p, found by union-find over p's blocks, is one block.
* Non-complementary count: Bell(n) minus the size of the checked listing.
* Generalized cumulant terms: coefficient 1, factors the 0/1 indicators of a
  partition complementary to p, one term per checked listing entry.
* Generalized multivariate cumulant: the polynomial evaluated at the joint
  cumulants of sums of independent Poisson variables equals the Moebius sum
  of their raw moments, computed from Touchard polynomials.
* Estimates: the exact k-statistic of the column products on the same
  sample, from exactly centred integer sums (every float is a dyadic
  rational, so nothing is rounded).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# Set partitions


def bell(n: int) -> int:
    """Bell number by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def set_partitions(items):
    """Every partition of ``items`` as a list of lists, by restricted growth."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


@lru_cache(maxsize=None)
def _complementary_count_sorted(sizes: tuple[int, ...]) -> int:
    total = 0
    for sigma in set_partitions(range(len(sizes))):
        k = len(sigma)
        term = (-1) ** (k - 1) * math.factorial(k - 1)
        for group in sigma:
            term *= bell(sum(sizes[j] for j in group))
        total += term
    return total


def complementary_count(blocks) -> int:
    """Number of partitions of [n] whose join with ``blocks`` is one block."""
    return _complementary_count_sorted(tuple(sorted(len(b) for b in blocks)))


def parse_partition(text: str) -> tuple[tuple[int, ...], ...]:
    """``1|234`` (compact digits) or ``1,2|3`` (commas) to sorted cr2 blocks."""
    if "," in text:
        blocks = [tuple(int(e) for e in tok.split(",")) for tok in text.split("|")]
    else:
        blocks = [tuple(int(ch) for ch in tok) for tok in text.split("|")]
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def cr2_text(blocks) -> str:
    """The cr2 text key: comma-joined elements, ``|``-joined sorted blocks."""
    return "|".join(",".join(map(str, b)) for b in blocks)


def _is_partition_of(blocks, n: int) -> bool:
    seen = sorted(e for b in blocks for e in b)
    return seen == list(range(1, n + 1)) and all(blocks)


def _joins_to_one(block_of: list[int], m: int, blocks) -> bool:
    """Union-find over the m blocks of p, merged along each block of q."""
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = m
    for block in blocks:
        root = find(block_of[block[0]])
        for e in block[1:]:
            r = find(block_of[e])
            if r != root:
                parent[r] = root
                comps -= 1
    return comps == 1


def _block_index(p_blocks, n: int) -> list[int]:
    block_of = [0] * (n + 1)
    for j, b in enumerate(p_blocks):
        for e in b:
            block_of[e] = j
    return block_of


def check_listing(p_blocks, n: int, entries: list[str]) -> str | None:
    """None when ``entries`` is exactly the complementary list of p in cr2 text
    order; otherwise the first fault found."""
    block_of = _block_index(p_blocks, n)
    m = len(p_blocks)
    prev = None
    for text in entries:
        blocks = parse_partition(text)
        if not _is_partition_of(blocks, n):
            return f"{text!r} is not a partition of [{n}]"
        key = cr2_text(blocks)
        if prev is not None and not key > prev:
            return f"{text!r} out of cr2 text order or repeated"
        prev = key
        if not _joins_to_one(block_of, m, blocks):
            return f"{text!r} is not complementary"
    want = complementary_count(p_blocks)
    if len(entries) != want:
        return f"{len(entries)} listed, the Moebius count is {want}"
    return None


def check_gencum(p_blocks, n: int, terms) -> str | None:
    """None when the (coefficient, factors) terms are exactly one
    coefficient-1 indicator product per partition complementary to p."""
    block_of = _block_index(p_blocks, n)
    m = len(p_blocks)
    seen = set()
    for coeff, factors in terms:
        if coeff != 1:
            return f"coefficient {coeff}"
        blocks = []
        for factor in factors:
            if len(factor) != n or not set(factor) <= {0, 1}:
                return f"factor {factor} is not a 0/1 indicator of length {n}"
            blocks.append(tuple(i for i, v in enumerate(factor, 1) if v))
        blocks = tuple(sorted(blocks))
        if not _is_partition_of(blocks, n):
            return f"factors {factors} are not a partition of [{n}]"
        if blocks in seen:
            return f"term {cr2_text(blocks)} repeated"
        seen.add(blocks)
        if not _joins_to_one(block_of, m, blocks):
            return f"term {cr2_text(blocks)} is not complementary"
    want = complementary_count(p_blocks)
    if len(terms) != want:
        return f"{len(terms)} terms, the Moebius count is {want}"
    return None


def check_count(p_blocks, n: int, value: int) -> str | None:
    """The non-complementary count is Bell(n) minus the checked listing size."""
    want = bell(n) - complementary_count(p_blocks)
    return None if value == want else f"count {value}, expected {want}"


# ---------------------------------------------------------------------------
# Generalized multivariate cumulants at sums of independent Poisson variables
#
# X_k = sum_j A[k][j] P_j with P_j ~ Poisson(RATES[j]) independent.  Every
# cumulant of a Poisson variable equals its rate, so the joint cumulant of
# order i is sum_j RATES[j] over the j with A[k][j] = 1 wherever i_k > 0.
# Raw moments expand the product of linear forms and use E[P^e] = T_e(rate),
# the Touchard polynomial sum_s S(e, s) rate^s.

RATES = (2, 3, 5, 7, 11, 13, 17)
MIXING = (
    (1, 0, 1, 1, 1, 0, 0),
    (1, 1, 0, 1, 0, 1, 0),
    (0, 1, 1, 1, 0, 0, 1),
)


@lru_cache(maxsize=None)
def _stirling2(e: int, s: int) -> int:
    if e == s:
        return 1
    if s == 0 or s > e:
        return 0
    return s * _stirling2(e - 1, s) + _stirling2(e - 1, s - 1)


def poisson_moment(e: int, rate: int) -> int:
    """E[P^e] for P ~ Poisson(rate)."""
    return sum(_stirling2(e, s) * rate ** s for s in range(e + 1))


def poisson_cumulant(i) -> int:
    return sum(
        r for j, r in enumerate(RATES)
        if all(MIXING[k][j] for k, ik in enumerate(i) if ik)
    )


@lru_cache(maxsize=None)
def poisson_raw_moment(i: tuple[int, ...]) -> int:
    """E[prod_k X_k^{i_k}] by expanding the linear forms."""
    poly = {(0,) * len(RATES): 1}
    for k, ik in enumerate(i):
        for _ in range(ik):
            nxt: dict[tuple[int, ...], int] = {}
            for mono, c in poly.items():
                for j, a in enumerate(MIXING[k]):
                    if a:
                        key = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                        nxt[key] = nxt.get(key, 0) + c
            poly = nxt
    return sum(
        c * math.prod(poisson_moment(e, r) for e, r in zip(mono, RATES))
        for mono, c in poly.items()
    )


def poisson_generalized_cumulant(columns) -> int:
    """Joint cumulant of the column products, as the Moebius sum of moments."""
    total = 0
    for pi in set_partitions(range(len(columns))):
        k = len(pi)
        term = (-1) ** (k - 1) * math.factorial(k - 1)
        for block in pi:
            term *= poisson_raw_moment(
                tuple(sum(columns[j][t] for j in block) for t in range(len(columns[0])))
            )
        total += term
    return total


def parse_lambda(text: str) -> list[tuple[int, ...]]:
    """``1,0|0,2^2`` to its columns, repeats written out."""
    cols = []
    for tok in text.split("|"):
        tok, _, rep = tok.partition("^")
        cols.extend([tuple(int(e) for e in tok.split(","))] * (int(rep) if rep else 1))
    return cols


def check_gmc(lam: str, terms) -> str | None:
    """The (coefficient, factors) terms evaluated at the Poisson point."""
    columns = parse_lambda(lam)
    got = sum(
        coeff * math.prod(poisson_cumulant(f) for f in factors)
        for coeff, factors in terms
    )
    want = poisson_generalized_cumulant(columns)
    return None if got == want else f"value {got} at the Poisson point, expected {want}"


# ---------------------------------------------------------------------------
# Exact estimates


def exact_estimate(lam: str, columns_data: list[list[float]]) -> Fraction:
    """The k-statistic of the column products Y_j = prod_k X_k^{c_jk}, exact.

    Uses the textbook centred forms: the mean for one product,
    sum (y1 - m1)(y2 - m2) / (N - 1) for two, and
    N sum (y1 - m1)(y2 - m2)(y3 - m3) / ((N - 1)(N - 2)) for three.
    """
    cols = parse_lambda(lam)
    if not 1 <= len(cols) <= 3:
        raise ValueError(f"{lam}: only 1 to 3 columns have a closed form here")
    n_obs = len(columns_data[0])
    ints, scales = [], []
    for data in columns_data:
        ratios = [x.as_integer_ratio() for x in data]
        den = max(d for _, d in ratios)
        ints.append([num * (den // d) for num, d in ratios])
        scales.append(den)
    ys, yscale = [], []
    for c in cols:
        active = [(k, e) for k, e in enumerate(c) if e]
        ys.append([math.prod(ints[k][r] ** e for k, e in active) for r in range(n_obs)])
        yscale.append(math.prod(scales[k] ** e for k, e in active))
    scale = math.prod(yscale)
    if len(cols) == 1:
        return Fraction(sum(ys[0]), n_obs * scale)
    # d = N (y - mean), an exact integer.
    ds = [[n_obs * v - s for v in y] for y, s in ((y, sum(y)) for y in ys)]
    if len(cols) == 2:
        central = sum(a * b for a, b in zip(*ds))
        return Fraction(central, n_obs * n_obs * (n_obs - 1) * scale)
    central = sum(a * b * c for a, b, c in zip(*ds))
    return Fraction(central, n_obs * n_obs * (n_obs - 1) * (n_obs - 2) * scale)


#: Largest relative error an estimate may have against the exact value.  A
#: float evaluation that keeps its digits is within about 1e-13 here.
ESTIMATE_RTOL = 1e-9


def check_estimate(value: float, ref: Fraction) -> str | None:
    err = abs(Fraction(value) - ref)
    if err <= ESTIMATE_RTOL * abs(ref):
        return None
    return f"estimate {value!r}, exact {float(ref)!r} (relative error {float(err / abs(ref)):.3g})"
