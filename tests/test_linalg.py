"""Exact rank and nullspace against sympy, an independent exact oracle."""

import random
from fractions import Fraction

import pytest

from cumulants.linalg import integer_rank, nullspace_basis

sympy = pytest.importorskip("sympy")


def _matrices():
    """About 300 seeded integer matrices, 1-6 x 1-7 with entries in -3..3;
    a third of them have zero rows, and a few are all zero."""
    rng = random.Random(21)
    out = []
    for k in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        if k % 3 == 0:
            rows[rng.randrange(nr)] = [0] * nc
        if k % 50 == 0:
            rows = [[0] * nc for _ in range(nr)]
        out.append(rows)
    return out


MATRICES = _matrices()


def test_integer_rank_matches_sympy():
    for rows in MATRICES:
        assert integer_rank([list(row) for row in rows]) == sympy.Matrix(rows).rank(), rows


def test_nullspace_basis_matches_sympy_exactly():
    for rows in MATRICES:
        want = [
            tuple(Fraction(int(x.p), int(x.q)) for x in vec)
            for vec in sympy.Matrix(rows).nullspace()
        ]
        got = nullspace_basis(rows)
        assert got == want, rows
        assert all(type(x) is Fraction for vec in got for x in vec), rows


def test_nullspace_basis_leaves_its_argument_unchanged():
    for rows in MATRICES:
        before = [list(row) for row in rows]
        nullspace_basis(rows)
        assert rows == before
