"""Exact linear algebra over the integers and rationals.

Rank uses fraction-free (Bareiss) elimination on integers; nullspace bases are
extracted from a rational reduced row echelon form.  No floating point is used
anywhere: rank decisions feed discrete predicates and must be exact.
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
    """Basis of the rational nullspace, one vector per free column of the RREF."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(nc) if c not in pivot_set):
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(tuple(v))
    return basis
