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
    return tuple(tuple(map(int, row)) for row in rows)


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

    Pivot choice is deterministic: the entry of smallest nonzero absolute
    value in the trailing submatrix, ties broken by lowest (row, col). The
    diagonal of d is nonnegative and satisfies d[i] | d[i+1]. Empty input is
    allowed and yields empty factors.
    """
    work = _to_rows(a)
    m = len(work)
    n = len(work[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def row_sub(i: int, j: int, q: int) -> None:
        if q:
            wi, wj = work[i], work[j]
            for k in range(n):
                wi[k] -= q * wj[k]
            ui, uj = u[i], u[j]
            for k in range(m):
                ui[k] -= q * uj[k]

    def col_sub(j: int, i: int, q: int) -> None:
        if q:
            for row in work:
                row[j] -= q * row[i]
            for row in v:
                row[j] -= q * row[i]

    def swap_rows(i: int, j: int) -> None:
        if i != j:
            work[i], work[j] = work[j], work[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        if i != j:
            for row in work:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def negate_row(i: int) -> None:
        work[i] = [-x for x in work[i]]
        u[i] = [-x for x in u[i]]

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
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            if work[t][t] < 0:
                negate_row(t)
            p = work[t][t]
            restart = False
            for i in range(t + 1, m):
                if work[i][t]:
                    row_sub(i, t, work[i][t] // p)
                    if work[i][t]:
                        # remainder is a strictly smaller pivot
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if work[t][j]:
                    col_sub(j, t, work[t][j] // p)
                    if work[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if not restart:
                break
        t += 1

    # enforce the divisibility chain d[k] | d[k+1]: each fix-up replaces a
    # pair by (gcd, lcm), which can break the pair before it, so sweep until
    # a whole pass changes nothing
    r = t
    changed = True
    while changed:
        changed = False
        for k in range(r - 1):
            a_, b_ = work[k][k], work[k + 1][k + 1]
            if b_ % a_ == 0:
                continue
            changed = True
            col_sub(k, k + 1, -1)  # puts b below a in column k
            while work[k + 1][k]:
                q = work[k][k] // work[k + 1][k]
                row_sub(k, k + 1, q)
                swap_rows(k, k + 1)
            # gcd now at (k, k); the leftover in row k is a multiple of it
            col_sub(k + 1, k, work[k][k + 1] // work[k][k])
            if work[k + 1][k + 1] < 0:
                negate_row(k + 1)

    return SNFResult(d=_freeze(work), u=_freeze(u), v=_freeze(v))


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


def is_even(gram: Iterable[Sequence[int]]) -> bool:
    """Whether every vector of the form x has even self-pairing x * G * x^T.

    By bilinearity this holds iff every diagonal entry of the symmetric Gram
    matrix is even. The empty Gram matrix counts as even.
    """
    rows = _to_rows(gram)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("gram matrix must be square")
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise ValueError("gram matrix must be symmetric")
    return all(rows[i][i] % 2 == 0 for i in range(n))


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

