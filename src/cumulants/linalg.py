"""Exact linear algebra over the integers and rationals.

Both rest on one elimination: rank is fraction-free (Bareiss) elimination on
integers, and a nullspace basis is back-substituted in rationals from the
echelon rows that elimination leaves.  No floating point is used anywhere:
rank decisions feed discrete predicates and must be exact.
"""

from __future__ import annotations

from fractions import Fraction


def integer_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss elimination (entries stay integral).

    Eliminates in place: ``rows`` is overwritten, so callers pass a fresh matrix.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    rank = 0
    prev = 1
    for col in range(nc):
        piv = None
        for r in range(rank, nr):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        p = pr[col]
        for r in range(rank + 1, nr):
            row = rows[r]
            f = row[col]
            for c in range(col + 1, nc):
                row[c] = (p * row[c] - f * pr[c]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == nr:
            break
    return rank


def nullspace_basis(rows: list[list[int]]) -> list[tuple[Fraction, ...]]:
    """Basis of the rational nullspace, one vector per free column: that
    column is 1, the other free columns are 0, and the pivot columns are
    solved from the echelon rows ``integer_rank`` leaves, bottom row first.
    Every echelon form has the same pivot columns and each such vector is
    unique, so the basis is the one a reduced row echelon form gives.
    ``rows`` is left unchanged."""
    m = [list(row) for row in rows]
    echelon = m[:integer_rank(m)]
    pivots = [next(c for c, x in enumerate(row) if x) for row in echelon]
    nc = len(m[0]) if m else 0
    basis = []
    for fc in (c for c in range(nc) if c not in pivots):
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for pc, row in zip(reversed(pivots), reversed(echelon)):
            v[pc] = -sum((row[c] * v[c] for c in range(pc + 1, nc)), Fraction(0)) / row[pc]
        basis.append(tuple(v))
    return basis
