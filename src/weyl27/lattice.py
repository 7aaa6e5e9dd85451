"""Exact integer linear algebra over lattices with a fixed Gram matrix.

Everything here works with plain Python integers, so results are exact at any
size. Matrices are sequences of equal-length integer rows; functions return
tuples of tuples so results are hashable and safe to freeze in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def _to_rows(a: Iterable[Sequence[int]]) -> list[list[int]]:
    rows = [list(map(int, row)) for row in a]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
    return rows


def _freeze(rows: Iterable[Sequence[int]]) -> Matrix:
    return tuple(map(tuple, rows))


def _identity(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


@dataclass(frozen=True)
class GramLattice:
    """A free Z-module of finite rank with a symmetric integer pairing."""

    rank: int
    gram: Matrix

    def __post_init__(self) -> None:
        if len(self.gram) != self.rank or any(len(r) != self.rank for r in self.gram):
            raise ValueError("gram matrix must be rank x rank")
        for i in range(self.rank):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")


def inner_product(x: Sequence[int], y: Sequence[int], lat: GramLattice) -> int:
    """Pairing <x, y> = x * G * y^T in the given lattice."""
    if len(x) != lat.rank or len(y) != lat.rank:
        raise ValueError("vector length must equal lattice rank")
    return sum(xi * sum(map(mul, row, y)) for xi, row in zip(x, lat.gram) if xi)


def gram_of(vectors: Sequence[Sequence[int]], lat: GramLattice) -> Matrix:
    """Pairwise inner products of the given vectors."""
    return tuple(
        tuple(inner_product(v, w, lat) for w in vectors) for v in vectors
    )


@dataclass(frozen=True)
class SNFResult:
    """Smith decomposition u * a * v == d with u, v unimodular."""

    d: Matrix
    u: Matrix
    v: Matrix

    def divisors(self) -> tuple[int, ...]:
        """Nonzero diagonal entries of d, in chain order."""
        out = []
        for i, row in enumerate(self.d):
            if i < len(row) and row[i]:
                out.append(row[i])
        return tuple(out)

    def rank(self) -> int:
        return len(self.divisors())


def smith_normal_form(a: Iterable[Sequence[int]]) -> SNFResult:
    """Smith normal form with tracked unimodular transforms.

    One elimination loop works on the rows [a | u] and on n appended rows
    holding v, with u and v starting as identities. A row operation acts on
    a whole [a | u] row; a column operation acts on the first n columns of
    every row, v's included. So each operation is written once and both
    transforms follow it.

    Each pass moves the entry of smallest nonzero absolute value in the
    trailing block to the pivot position (ties go to the lowest (row, col)),
    makes it positive and reduces its row and column by it. The pivot is
    final once it divides every entry of the block it heads. Otherwise the
    first row of that block with an entry the pivot does not divide, if it
    is not the pivot row, is added to the pivot row, and the pass repeats:
    the next pivot is a remainder smaller than this one, or this one again,
    which then leaves such a remainder. The chain d[i] | d[i+1] therefore
    holds when the loop ends, with no repair afterwards, and the diagonal of
    d is nonnegative. Empty input is allowed and yields empty factors.
    """
    rows = _to_rows(a)
    m = len(rows)
    n = len(rows[0]) if m else 0
    work = [row + unit for row, unit in zip(rows, _identity(m))]
    v = _identity(n)
    t = 0
    while t < min(m, n):
        best, size = None, 0
        for i in range(t, m):
            row = work[i]
            for j in range(t, n):
                w = abs(row[j])
                if w and (best is None or w < size):
                    best, size = (i, j), w
            if size == 1:
                break  # nothing later can be strictly smaller
        if best is None:
            break
        i, j = best
        work[t], work[i] = work[i], work[t]
        if work[t][j] < 0:
            work[t] = [-x for x in work[t]]
        # column operations act in place on one list of all rows, built once
        # per pass; they change only columns past t, so the row operations
        # after them read the same multipliers and the two commute
        every_row = work + v
        for row in every_row:
            row[t], row[j] = row[j], row[t]
        pivot = work[t]
        p = pivot[t]
        for j in range(t + 1, n):
            q = pivot[j] // p
            if q:
                for row in every_row:
                    row[j] -= q * row[t]
        for i in range(t + 1, m):
            q = work[i][t] // p
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], pivot)]
        # the first row of the block with an entry p does not divide;
        # 1 divides everything
        bad = p > 1 and next((row for row in work[t:] if any(x % p for x in row[t:n])), None)
        if not bad:
            t += 1
        elif bad is not pivot:
            work[t] = [x + y for x, y in zip(pivot, bad)]
    return SNFResult(
        d=_freeze(row[:n] for row in work),
        u=_freeze(row[n:] for row in work),
        v=_freeze(v),
    )


def matrix_rank(a: Iterable[Sequence[int]]) -> int:
    return smith_normal_form(a).rank()


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s * a + t * b == g, where g is gcd(a, b) up to sign."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def hermite_normal_form(a: Iterable[Sequence[int]]) -> Matrix:
    """Row-style Hermite normal form with zero rows dropped.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), and rows are ordered by pivot column. Rows enter an echelon
    basis one at a time; when a row meets the pivot of its leading column,
    a unimodular extended-gcd step puts the gcd in the basis. Once every
    column has a pivot of 1 or -1 the basis spans all of Z^n and the rows
    not yet read cannot change it.
    """
    work = _to_rows(a)
    n = len(work[0]) if work else 0
    echelon: list[list[int] | None] = [None] * n  # by leading column
    units = 0
    for row in work:
        for j in range(n):
            x = row[j]
            if not x:
                continue
            pivot = echelon[j]
            if pivot is None:
                echelon[j] = row
                units += abs(x) == 1
                break
            p = pivot[j]
            if x % p == 0:
                q = x // p
                row = [c - q * d for c, d in zip(row, pivot)]
            else:
                # [[s, t], [-x/g, p/g]] has determinant 1
                g, s, t = _xgcd(p, x)
                echelon[j] = [s * d + t * c for c, d in zip(row, pivot)]
                units += abs(p) != 1 and abs(g) == 1
                pg, xg = p // g, x // g
                row = [pg * c - xg * d for c, d in zip(row, pivot)]
        if units == n:
            break
    out: list[list[int]] = []
    for j, row in enumerate(echelon):
        if row is None:
            continue
        if row[j] < 0:
            row = [-c for c in row]
        p = row[j]
        for i, above in enumerate(out):
            q = above[j] // p
            if q:
                out[i] = [c - q * d for c, d in zip(above, row)]
        out.append(row)
    return _freeze(out)


def kernel_basis(a: Iterable[Sequence[int]], ncols: int) -> Matrix:
    """Basis of the integer kernel {x in Z^ncols : a * x^T = 0}, in HNF.

    The basis spans the full kernel sublattice (it is saturated), because it
    comes from columns of a unimodular transform.
    """
    rows = _to_rows(a)
    if any(len(r) != ncols for r in rows):
        raise ValueError("ncols does not match matrix width")
    if not rows:
        return _freeze(_identity(ncols))
    res = smith_normal_form(rows)
    r = res.rank()
    vecs = [[res.v[i][j] for i in range(ncols)] for j in range(r, ncols)]
    return hermite_normal_form(vecs)


def orthogonal_complement(
    gens: Sequence[Sequence[int]], lat: GramLattice
) -> tuple[Matrix, Matrix]:
    """Basis of {x : <x, g> = 0 for all gens g} and its restricted Gram matrix."""
    pairing = [
        [
            sum(lat.gram[i][j] * g[j] for j in range(lat.rank))
            for i in range(lat.rank)
        ]
        for g in gens
    ]
    basis = kernel_basis(pairing, lat.rank)
    return basis, gram_of(basis, lat)


def is_even(vectors: Iterable[Sequence[int]], lat: GramLattice) -> bool:
    """Whether every vector of the lattice the vectors span has even
    self-pairing.

    The pairing is bilinear and symmetric, so <x + y, x + y> = <x, x> +
    2<x, y> + <y, y>: an integer combination's self-pairing has the parity
    of the sum of its terms' self-pairings, and it is even everywhere
    exactly when it is even on each given vector. No vectors span the zero
    lattice, which counts as even.
    """
    return all(inner_product(x, x, lat) % 2 == 0 for x in vectors)


def cokernel_invariants(
    a: Iterable[Sequence[int]], target_rank: int
) -> tuple[tuple[int, ...], int]:
    """Torsion invariant factors (> 1) and free rank of coker(a).

    The matrix a describes a map into Z^target_rank; the cokernel is
    Z^target_rank / image. Torsion comes from the elementary divisors, the
    free rank is target_rank - rank(a).
    """
    divisors = smith_normal_form(a).divisors()
    if target_rank < len(divisors):
        raise ValueError("target_rank smaller than matrix rank")
    torsion = tuple(d for d in divisors if d > 1)
    return torsion, target_rank - len(divisors)


def det(a: Iterable[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    work = _to_rows(a)
    n = len(work)
    if any(len(r) != n for r in work):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            for i in range(k + 1, n):
                if work[i][k]:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return sign * work[n - 1][n - 1]

