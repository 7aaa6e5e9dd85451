"""Exact integer linear algebra: Smith/Hermite forms, kernels, parity."""

import math
import random
from itertools import combinations

import pytest

from weyl27.lattice import (
    GramLattice,
    cokernel_invariants,
    det,
    gram_of,
    hermite_normal_form,
    inner_product,
    is_even,
    kernel_basis,
    matrix_rank,
    orthogonal_complement,
    smith_normal_form,
)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(row) == k for row in a)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def det_cofactor(a):
    """Textbook cofactor expansion, used as an oracle for det()."""
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * a[0][j] * det_cofactor(minor)
    return total


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


# ---------------------------------------------------------------- Gram basics


def test_gram_lattice_validates_symmetry():
    GramLattice(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        GramLattice(2, ((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        GramLattice(2, ((0, 1),))


def test_inner_product_hyperbolic_plane():
    lat = GramLattice(2, ((0, 1), (1, 0)))
    assert inner_product((1, 0), (0, 1), lat) == 1
    assert inner_product((1, 1), (1, 1), lat) == 2
    assert inner_product((1, -1), (1, -1), lat) == -2


def test_gram_of_recovers_restriction():
    lat = GramLattice(3, ((1, 0, 0), (0, -1, 0), (0, 0, -1)))
    vecs = ((1, 1, 0), (0, 1, -1))
    assert gram_of(vecs, lat) == ((0, -1), (-1, -2))


# ------------------------------------------------------------- Smith form


def test_smith_form_diagonal_2x2():
    res = smith_normal_form([[2, 4], [6, 8]])
    assert res.divisors() == (2, 4)
    assert res.rank() == 2


def test_smith_form_known_3x3():
    # built as U * diag(1, 2, 12) * V for unimodular U, V, so the
    # divisor chain is known in advance
    a = [[1, 1, 0], [1, 3, 2], [0, 2, 14]]
    res = smith_normal_form(a)
    assert res.divisors() == (1, 2, 12)
    assert det_cofactor(a) == 24


def test_smith_form_identity_and_zero():
    assert smith_normal_form([[1, 0], [0, 1]]).divisors() == (1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]).divisors() == ()
    assert smith_normal_form([]).divisors() == ()
    assert smith_normal_form([[]]).divisors() == ()


def test_smith_form_single_entries():
    assert smith_normal_form([[7]]).divisors() == (7,)
    assert smith_normal_form([[-7]]).divisors() == (7,)
    assert smith_normal_form([[0, 5]]).divisors() == (5,)


def test_smith_form_transforms_multiply_out():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    res = smith_normal_form(a)
    prod = mat_mul(mat_mul(res.u, a), res.v)
    assert prod == [list(row) for row in res.d]


def check_smith_structure(a, rows, cols):
    res = smith_normal_form(a)
    d = [list(row) for row in res.d]
    # u and v are unimodular
    assert det_cofactor([list(r) for r in res.u]) in (1, -1)
    assert det_cofactor([list(r) for r in res.v]) in (1, -1)
    # u * a * v lands exactly on d
    if rows and cols:
        assert mat_mul(mat_mul(res.u, a), res.v) == d
    # d is diagonal, nonnegative, with a divisibility chain
    divs = res.divisors()
    for i in range(rows):
        for j in range(cols):
            expected = divs[i] if i == j and i < len(divs) else 0
            assert d[i][j] == expected
    for x, y in zip(divs, divs[1:]):
        assert x > 0 and y % x == 0
    # first divisor is the gcd of all entries
    entries = [e for row in a for e in row if e]
    if entries:
        assert divs[0] == math.gcd(*entries)
    else:
        assert divs == ()


def test_smith_form_random_structure():
    rng = random.Random(411)
    for _ in range(300):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = random_matrix(rng, rows, cols)
        check_smith_structure(a, rows, cols)


def determinantal_divisors(a):
    """Invariant factors as D_k / D_(k-1), D_k the gcd of all k x k minors."""
    rows, cols = len(a), len(a[0]) if a else 0
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        dk = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                dk = math.gcd(dk, det([[a[i][j] for j in ci] for i in ri]))
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return tuple(out)


def diagonal(*entries):
    return [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]


def test_smith_divisors_match_determinantal_divisors():
    # a single fix-up sweep over the chain left (2, 3, 36) and (2, 15, 30)
    for a, want in ((diagonal(4, 6, 9), (1, 6, 36)), (diagonal(6, 10, 15), (1, 30, 30))):
        assert determinantal_divisors(a) == want
        assert smith_normal_form(a).divisors() == want
        check_smith_structure(a, 3, 3)
    rng = random.Random(412)
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, rows, cols)
        assert smith_normal_form(a).divisors() == determinantal_divisors(a)
    # diagonal inputs are where the chain needs the most repair; padded
    # with a zero row or a zero column they are not square
    for _ in range(200):
        a = diagonal(*(rng.randint(0, 36) for _ in range(rng.randint(1, 4))))
        for padded in (a, a + [[0] * len(a)], [row + [0] for row in a]):
            assert smith_normal_form(padded).divisors() == determinantal_divisors(padded)
            check_smith_structure(padded, len(padded), len(padded[0]))


def test_elementary_divisors_and_rank():
    assert smith_normal_form([[4, 0], [0, 6]]).divisors() == (2, 12)
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 2], [2, 5]]) == 2
    assert matrix_rank([]) == 0


# ------------------------------------------------------------ Hermite form


def test_hermite_form_frozen():
    assert hermite_normal_form([[2, 0], [1, 1]]) == ((1, 1), (0, 2))
    assert hermite_normal_form([[0, 0], [0, 0]]) == ()
    assert hermite_normal_form([[3, 6], [0, 0]]) == ((3, 6),)


def test_hermite_form_pivots_positive_and_reduced():
    rng = random.Random(412)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        h = hermite_normal_form(a)
        pivots = []
        for idx, row in enumerate(h):
            j = next(k for k, e in enumerate(row) if e)
            assert row[j] > 0
            pivots.append(j)
            # entries above each pivot lie in [0, pivot)
            for above in h[:idx]:
                assert 0 <= above[j] < row[j]
        assert pivots == sorted(set(pivots))
        # row span is unchanged: each original row reduces to zero against h
        for row in a:
            r = list(row)
            for hrow in h:
                j = next(k for k, e in enumerate(hrow) if e)
                if r[j] % hrow[j] == 0:
                    q = r[j] // hrow[j]
                    r = [x - q * y for x, y in zip(r, hrow)]
            # reduction may fail only if the row is not in the span,
            # which cannot happen for rows of a itself
            assert all(x == 0 for x in r)


def test_hermite_form_spans_the_same_lattice():
    # rows of a lie in the span of h (test above); equal rank and equal gcd
    # of maximal minors then leave index 1, so h spans exactly the rows of a
    rng = random.Random(414)
    for trial in range(300):
        cols = rng.randint(1, 4)
        rows = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols, lo=-3, hi=3)
        if trial % 3 == 0:
            # unit pivots in every column first, arbitrary rows after them
            a = [[int(i == j) or rng.randint(-2, 2) * (j > i) for j in range(cols)]
                 for i in range(cols)] + a
        h = hermite_normal_form(a)
        dd_a, dd_h = determinantal_divisors(a), determinantal_divisors([list(r) for r in h])
        assert len(dd_a) == len(dd_h) == len(h)
        assert math.prod(dd_a) == math.prod(dd_h)
    unimodular = [[1, 2, 0], [0, 1, 5], [0, 0, -1]]
    assert hermite_normal_form(unimodular + [[7, 8, 9], [0, 0, 4]]) == (
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
    )
    # gcd steps in column 0: 4 and 6 leave 2, and a 9 then leaves 1
    assert hermite_normal_form([[4, 0], [6, 1], [0, 1]]) == ((2, 0), (0, 1))
    assert hermite_normal_form([[4, 0], [6, 1], [9, 0]]) == ((1, 0), (0, 1))


def test_hermite_form_idempotent():
    rng = random.Random(413)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h = hermite_normal_form(a)
        assert hermite_normal_form([list(r) for r in h]) == h


# ----------------------------------------------------------------- kernels


def test_kernel_basis_frozen():
    assert kernel_basis([], 2) == ((1, 0), (0, 1))
    assert kernel_basis([[2]], 1) == ()
    assert kernel_basis([[0, 0]], 2) == ((1, 0), (0, 1))


def test_kernel_basis_annihilates_and_saturates():
    rng = random.Random(414)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols, -5, 5)
        basis = kernel_basis(a, cols)
        assert len(basis) == cols - matrix_rank(a)
        for v in basis:
            assert all(sum(r[j] * v[j] for j in range(cols)) == 0 for r in a)
        if basis:
            # a kernel computed via Smith form is saturated: the basis
            # matrix has all elementary divisors equal to 1
            assert smith_normal_form(basis).divisors() == (1,) * len(basis)


# ---------------------------------------------------- complements and parity


def test_orthogonal_complement_small():
    lat = GramLattice(2, ((1, 0), (0, -1)))
    basis, gram = orthogonal_complement([(0, 1)], lat)
    assert basis == ((1, 0),)
    assert gram == ((1,),)
    basis, gram = orthogonal_complement([(1, 1)], lat)
    assert basis == ((1, 1),)
    assert gram == ((0,),)


def test_orthogonal_complement_of_nothing_is_everything():
    lat = GramLattice(2, ((1, 0), (0, -1)))
    basis, gram = orthogonal_complement([], lat)
    assert basis == ((1, 0), (0, 1))
    assert gram == ((1, 0), (0, -1))


def test_is_even():
    hyperbolic = GramLattice(2, ((0, 1), (1, 0)))
    assert is_even((), hyperbolic) is True
    assert is_even([(1, 0), (0, 1)], hyperbolic) is True
    assert is_even([(1, 1)], hyperbolic) is True
    assert is_even([(2,)], GramLattice(1, ((1,),))) is True
    assert is_even([(1,)], GramLattice(1, ((1,),))) is False
    assert is_even([(1, 0), (0, 1)], GramLattice(2, ((2, 1), (1, 4)))) is True
    with pytest.raises(ValueError):
        is_even([(1, 0, 0)], hyperbolic)


def test_is_even_matches_exhaustive_norms():
    # a lattice is even iff every vector in it has even norm; checking a box
    # around the origin is enough since parity of x.G.x is determined by the
    # residues of x mod 2
    rng = random.Random(415)
    for _ in range(50):
        n = rng.randint(1, 3)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = rng.randint(-3, 3)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        lat = GramLattice(n, tuple(tuple(r) for r in g))
        box = [[]]
        for _ in range(n):
            box = [v + [c] for v in box for c in range(-2, 3)]
        norms_even = all(inner_product(tuple(v), tuple(v), lat) % 2 == 0 for v in box)
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        assert is_even(units, lat) == norms_even


# ----------------------------------------------------------------- cokernel


def test_cokernel_invariants_frozen():
    assert cokernel_invariants([[2, 0], [0, 3]], 2) == ((6,), 0)
    assert cokernel_invariants([[2, 4], [6, 8]], 2) == ((2, 4), 0)
    assert cokernel_invariants([[2]], 1) == ((2,), 0)
    assert cokernel_invariants([[0]], 1) == ((), 1)
    assert cokernel_invariants([[1]], 1) == ((), 0)
    assert cokernel_invariants([], 3) == ((), 3)


# -------------------------------------------------------------- determinant


def test_det_known_values():
    assert det([]) == 1
    assert det([[5]]) == 5
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1


def test_det_matches_cofactor_expansion():
    rng = random.Random(416)
    for _ in range(150):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n, -6, 6)
        assert det(a) == det_cofactor(a)
