"""Exact symbolic algebra of moments and cumulants.

Expressions are integer-coefficient linear combinations of products of indexed
symbols (kappa for cumulants, mu for moments).  A product is stored as a
multiset of multi-indexes, so ``2 κ[1,1] κ[0,1]`` is the term with coefficient
2 and factor key (((1,1),1), ((0,1),1)).  Everything is exact; there is no
floating point in this module.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .csp import _twoblock_keys
from .errors import DimensionError
from .indicator import (
    IndicatorMatrix,
    _block_indicator,
    _interval_sums,
    from_indicator,
    labeling_rule,
    to_dummy_indicator,
)
from .partitions import (
    Blocks,
    MultiIndex,
    MultiIndexPartition,
    SetPartition,
    _Memo,
    _check_ground_set,
    _check_multi_index,
    _coarsening_keys,
    _column_groupings,
    _iter_partition_keys,
    _mip_walk,
    _moebius_weight,
    _refinement_keys,
)

Term = tuple[tuple[MultiIndex, int], ...]

_SYMBOL_CHARS = {"kappa": "κ", "mu": "μ"}


def _term(factors) -> Term:
    """Canonical factor key: (multi-index, multiplicity) pairs, decreasing."""
    counts: dict[MultiIndex, int] = {}
    for mi, mult in factors:
        counts[mi] = counts.get(mi, 0) + mult
    return tuple(sorted(counts.items(), reverse=True))


def _factor_text(sym: str, mi: MultiIndex, power: int = 1) -> str:
    """``κ[1,0]^2``: the symbol, the index and a power above one."""
    return f"{sym}[{','.join(map(str, mi))}]" + (f"^{power}" if power > 1 else "")


def _factors_text(sym: str):
    """A function giving ``κ[1,0]^2 κ[0,1]`` for a factor key, factors joined
    by a space.  It memoizes factor texts, so make one per rendering."""
    frag = _Memo(lambda f: _factor_text(sym, *f))
    return lambda key: " ".join(map(frag.__getitem__, key))


def _join_signed(bits) -> str:
    """``a - b + c`` from (negative, body) pairs; a leading minus is unspaced."""
    (negative, out), *rest = bits
    if negative:
        out = "-" + out
    for negative, body in rest:
        out += f" {'-' if negative else '+'} {body}"
    return out


class Polynomial:
    """Integer-coefficient combination of products of indexed symbols."""

    __slots__ = ("arity", "symbol", "terms")

    def __init__(self, arity: int, terms: dict[Term, int] | None = None, symbol: str = "kappa"):
        if symbol not in _SYMBOL_CHARS:
            raise ValueError(f"unknown symbol {symbol!r}")
        self.arity = arity
        self.symbol = symbol
        self.terms = {key: c for key, c in terms.items() if c} if terms else {}

    @classmethod
    def _from_terms(cls, arity: int, terms: dict[Term, int]) -> "Polynomial":
        """Trusted constructor of a ``kappa`` polynomial: takes ``terms`` as it
        is, so it must be a fresh dict without a zero coefficient."""
        self = object.__new__(cls)
        self.arity = arity
        self.symbol = "kappa"
        self.terms = terms
        return self

    @classmethod
    def zero(cls, arity: int, symbol: str = "kappa") -> "Polynomial":
        return cls(arity, {}, symbol)

    @classmethod
    def one(cls, arity: int, symbol: str = "kappa") -> "Polynomial":
        return cls(arity, {(): 1}, symbol)

    @classmethod
    def single(cls, mi: MultiIndex, symbol: str = "kappa") -> "Polynomial":
        mi = tuple(mi)
        return cls(len(mi), {_term([(mi, 1)]): 1}, symbol)

    def _check_compatible(self, other: "Polynomial"):
        if self.arity != other.arity:
            raise DimensionError(f"arities differ: {self.arity} vs {other.arity}")
        if self.symbol != other.symbol:
            raise ValueError(f"symbols differ: {self.symbol} vs {other.symbol}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return Polynomial(self.arity, out, self.symbol)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.arity, {k: -c for k, c in self.terms.items()}, self.symbol)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, k: int) -> "Polynomial":
        return Polynomial(self.arity, {key: k * c for key, c in self.terms.items()}, self.symbol)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out: dict[Term, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = _term(list(k1) + list(k2))
                out[key] = out.get(key, 0) + c1 * c2
        return Polynomial(self.arity, out, self.symbol)

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power")
        out = Polynomial.one(self.arity, self.symbol)
        for _ in range(e):
            out = out * self
        return out

    def substitute(self, fn, symbol: str) -> "Polynomial":
        """Replace every factor by ``fn(multi_index)`` (a polynomial in the new
        symbol), expand and collect."""
        out: dict[Term, int] = {}
        for key, coeff in self.terms.items():
            term_poly = Polynomial.one(self.arity, symbol)
            for mi, mult in key:
                term_poly = term_poly * (fn(mi) ** mult)
            for k, c in term_poly.terms.items():
                out[k] = out.get(k, 0) + coeff * c
        return Polynomial(self.arity, out, symbol)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.symbol == other.symbol
            and self.terms == other.terms
        )

    def __len__(self) -> int:
        return len(self.terms)

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        factors_text = _factors_text(_SYMBOL_CHARS[self.symbol])
        bits = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            factors = factors_text(key)
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = factors
            else:
                body = f"{mag} {factors}"
            bits.append((c < 0, body))
        return _join_signed(bits)

    def to_json(self) -> str:
        """``{"terms": [{"coeff": c, "factors": [[1, 0], ...]}, ...]}``, terms in
        decreasing key order, each factor written out as often as its power.
        The text equals ``json.dumps`` of that structure; each factor's
        fragment is dumped once, and the text is copied out of its items once:
        the header and footer ride on the first and last item."""
        frag = _Memo(lambda f: ", ".join([json.dumps(list(f[0]))] * f[1]))
        terms = self.terms
        items = [
            f'{{"coeff": {terms[key]}, "factors": [{", ".join(map(frag.__getitem__, key))}]}}'
            for key in sorted(terms, reverse=True)
        ]
        if not items:
            return '{"terms": []}'
        items[0] = '{"terms": [' + items[0]
        items[-1] += "]}"
        return ", ".join(items)

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"Polynomial({self.pretty()!r})"


def _partition_key_term(n: int):
    """A function giving the factor key of a cr2 block key over [n]: one
    (indicator, 1) factor per block.  cr2 order is decreasing indicator order,
    so the factors need no sort.  Blocks repeat across a listing's keys, so
    the function memoizes their factors; make one per listing."""
    factor = _Memo(lambda b: (_block_indicator(b, n), 1))
    return lambda key: tuple(map(factor.__getitem__, key))


@lru_cache(maxsize=None)
def _expansion(i: MultiIndex, symbol: str) -> tuple[tuple[Term, int], ...]:
    """The (factor key, coefficient) items of the sum over the multi-index
    partitions of ``i`` of their column products weighted by subdivision
    coefficients (the moment in cumulants), or in ``mu`` with the alternating
    factorial signs (the cumulant in moments); each caller owns its polynomial."""
    return tuple(
        (tuple(zip(cols, mults)), (_moebius_weight(sum(mults)) if symbol == "mu" else 1) * coef)
        for cols, mults, coef in _mip_walk(i)
    )


def moments_to_cumulants(i) -> Polynomial:
    """The moment of order ``i`` written in cumulants: the sum over all
    multi-index partitions of ``i`` weighted by their subdivision coefficients."""
    i = _check_multi_index(i)
    return Polynomial(len(i), dict(_expansion(i, "kappa")), "kappa")


def cumulants_to_moments(i) -> Polynomial:
    """The cumulant of order ``i`` written in moments, with the alternating
    factorial signs; formally inverse to ``moments_to_cumulants``."""
    i = _check_multi_index(i)
    return Polynomial(len(i), dict(_expansion(i, "mu")), "mu")


def generalized_cumulant(p: SetPartition) -> Polynomial:
    """Joint cumulant of the blockwise products, as a cumulant polynomial.

    One term per complementary partition, listed by the two-block algorithm:
    the product of the joint cumulants of its blocks, each encoded by the
    block's 0/1 indicator multi-index.  All coefficients are 1.
    """
    term = _partition_key_term(p.n)
    return Polynomial._from_terms(p.n, dict.fromkeys(map(term, _twoblock_keys(p)), 1))


def generalized_cumulant_subtractive(p: SetPartition) -> Polynomial:
    """Same output as ``generalized_cumulant``, computed as the sum over the
    whole partition lattice minus the sum over the non-complementary family.

    A partition is not complementary to ``p`` exactly when its join with
    ``p`` has at least two blocks, that is when it refines a two-block
    coarsening of ``p``; the family is built from those lattice maps, not
    from the two-block listing."""
    n = p.n
    _check_ground_set(n)
    term = _partition_key_term(n)
    lattices = _Memo(lambda b: list(_iter_partition_keys(b)))
    excluded = {
        key
        for coarse in _coarsening_keys(p.cr2_key())
        if len(coarse) == 2
        for key in _refinement_keys(coarse, lattices)
    }
    lattice = _iter_partition_keys(range(1, n + 1))
    full = Polynomial(n, dict.fromkeys(map(term, lattice), 1))
    return full - Polynomial(n, dict.fromkeys(map(term, excluded), 1))


def generalized_multivariate_cumulant(mip: MultiIndexPartition) -> Polynomial:
    """Generalized cumulant with repeated variables, in multivariate cumulants.

    This is the collapsed dummy cumulant: the multi-index partition is
    expanded into a partition of distinct dummy variables, the partitions
    complementary to it are streamed from the two-block walk, and each of
    their blocks is collapsed back onto the original variables by counting
    its elements in each variable's dummy interval.  Terms that collapse
    alike add up, so a coefficient counts complementary dummy partitions.
    """
    dummy = from_indicator(to_dummy_indicator(mip))
    bounds = labeling_rule(mip.target).bounds()
    collapse = _Memo(lambda b: (_interval_sums(_block_indicator(b, dummy.n), bounds), 1))
    terms: dict[Term, int] = {}
    for key in _twoblock_keys(dummy):
        collapsed = _term(map(collapse.__getitem__, key))
        terms[collapsed] = terms.get(collapsed, 0) + 1
    return Polynomial._from_terms(mip.arity, terms)


def generalized_multivariate_cumulant_subtractive(mip: MultiIndexPartition) -> Polynomial:
    """Same output as ``generalized_multivariate_cumulant`` by the subtractive
    route: the full moment expansion minus the non-complementary side.

    The non-complementary side is an inclusion-exclusion over the two-block
    splits of the expanded columns.  Subsets of splits with the same common
    coarsening contribute identical products, so both sides are one sum over
    the groupings of the columns (the one-part grouping is the full
    expansion), weighted by (-1)^(parts-1) (parts-1)! and by the number of
    column partitions the grouping stands for.  The sum is collected in the
    moments of the merged columns, then each moment is expanded in cumulants.
    """
    _check_ground_set(sum(mip.target))
    moments: dict[Term, int] = {}
    for merged, parts, count in _column_groupings(mip.columns, mip.multiplicities):
        key = _term((col, rep) for col, rep, _ in merged)
        moments[key] = moments.get(key, 0) + _moebius_weight(parts) * count
    return Polynomial(mip.arity, moments, "mu").substitute(moments_to_cumulants, "kappa")


def generalized_cumulant_in_moments(mat: IndicatorMatrix) -> Polynomial:
    """The generalized cumulant as a signed sum of joint-moment products.

    The sum runs over the coarsenings of the encoded partition (exactly the
    matrices whose column span sits inside the input's span: their columns are
    0/1-combinations of the input's columns), with coefficient
    (-1)^(blocks-1) (blocks-1)!.  Substituting the cumulant expansion of each
    moment factor and collecting reproduces ``generalized_cumulant``.
    """
    _check_ground_set(mat.n)
    term = _partition_key_term(mat.n)
    terms = {
        term(key): _moebius_weight(len(key))
        for key in _coarsening_keys(from_indicator(mat).blocks)
    }
    return Polynomial(mat.n, terms, "mu")


def moment_product_expansion(mat: IndicatorMatrix) -> Polynomial:
    """Product of the blockwise joint moments written in cumulants: one term of
    coefficient 1 per partition refining the encoded partition."""
    _check_ground_set(mat.n)
    term = _partition_key_term(mat.n)
    lattices = _Memo(lambda b: list(_iter_partition_keys(b)))
    keys = _refinement_keys(from_indicator(mat).blocks, lattices)
    return Polynomial(mat.n, dict.fromkeys(map(term, keys), 1))


def alternating_coarsening_sum(mat: IndicatorMatrix) -> int:
    """Sum of (-1)^(blocks-1) (blocks-1)! over the coarsenings of the encoded
    partition: 1 for the one-block partition, 0 for everything else."""
    _check_ground_set(mat.n)
    return sum(_moebius_weight(len(g)) for g in _iter_partition_keys(range(mat.m)))
