"""Finite-field oracle for the lattice invariants.

Nothing here comes from weyl27.lattice: ranks are taken over F_p by plain
elimination, and over F_2 the rows are 7-bit masks. Let A be the |S| x 7
restriction matrix of an arrangement (row of line l: its class times the
Gram matrix diag(1, -1, ..., -1)) and r its rational rank.

- Torsion: the number of invariant factors of coker A divisible by p is
  r - rank_{F_p}(A).
- Rank: a nonzero r x r minor of A is at most 3**7 in absolute value
  (Hadamard; every row has norm at most 3), so over F_p with p > 3**7 the
  rank is r itself.
- Parity: the canonical class has all coordinates odd, so it is
  characteristic in I_{1,6}: x.x = K.x (mod 2), and K's pairing row is the
  all-ones mask. With no 2-torsion, ker A reduces onto the F_2 kernel, so
  the complement is even exactly when that mask lies in the F_2 row space
  of A (Milnor-Husemoller, Symmetric Bilinear Forms, ch. II). With
  2-torsion the rational kernel is 2-saturated first (Cohen, GTM 138,
  2.4) and the parity read from its basis' self-pairings.
"""

from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from weyl27.invariants import invariant_report
from weyl27.lines import LINE_COUNT, RANK, build_line_system
from weyl27.orbits import orbit_masks

PRIMES = (2, 3, 5, 7)
BIG_PRIME = 10007  # > 3**7
ALL_ONES = (1 << RANK) - 1


def _pairing_rows():
    return np.array(
        [[c[0]] + [-x for x in c[1:]] for c in build_line_system().classes], dtype=np.int64
    )


def _line_numbers(mask):
    return [i for i in range(LINE_COUNT) if mask >> i & 1]


def _ranks_mod(p, masks):
    """Rank over F_p of the restriction matrix of each mask.

    The matrices are one (masks, 27, 7) array with a zero row for each
    absent line, reduced together one column at a time. A matrix with no
    pivot in a column gets a zero pivot row, which changes nothing.
    """
    bits = (np.array(masks, dtype=np.int64)[:, None] >> np.arange(LINE_COUNT)) & 1
    # int32 holds the products below p**2 for every p used here
    a = (bits[:, :, None] * _pairing_rows()[None] % p).astype(np.int32)
    inverse = np.array([pow(x, -1, p) if x else 0 for x in range(p)], dtype=np.int32)
    every = np.arange(len(a))
    free = np.ones(a.shape[:2], dtype=bool)  # rows not yet a pivot
    rank = np.zeros(len(a), dtype=np.int64)
    for c in range(RANK):
        cand = free & (a[:, :, c] != 0)
        piv = cand.argmax(axis=1)
        hit = cand[every, piv]
        prow = a[every, piv] * (inverse[a[every, piv, c]] * hit)[:, None] % p
        a -= a[:, :, c, None] * prow[:, None, :]
        a %= p
        free[every[hit], piv[hit]] = False
        rank += hit
    return rank.tolist()


def _f2_basis(mask, row_masks):
    """Echelon basis of the F_2 row space, each row a 7-bit mask.

    Each basis mask is reduced by those before it, so reducing by them in
    order clears each one's top bit for good.
    """
    basis = []
    for i in _line_numbers(mask):
        x = row_masks[i]
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
            if len(basis) == RANK:
                break
    return basis


def _in_span(x, basis):
    for b in basis:
        x = min(x, x ^ b)
    return x == 0


def _f2_dependency(vectors):
    """Indices of a nonempty subset summing to 0 mod 2, or None."""
    pivots = {}  # top bit -> (mask, subset as a bitmask of indices)
    for i, v in enumerate(vectors):
        x, subset = sum(1 << k for k, c in enumerate(v) if c % 2), 1 << i
        while x:
            top = x.bit_length() - 1
            if top not in pivots:
                pivots[top] = (x, subset)
                break
            x ^= pivots[top][0]
            subset ^= pivots[top][1]
        else:
            return [j for j in range(len(vectors)) if subset >> j & 1]
    return None


def _saturated_parity(mask):
    """Parity of ker A from a 2-saturated basis of its rational kernel."""
    rows = _pairing_rows()
    m = [[Fraction(int(x)) for x in rows[i]] for i in _line_numbers(mask)]
    pivots = []
    for c in range(RANK):
        k = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if k is None:
            continue
        t = len(pivots)
        m[t], m[k] = m[k], m[t]
        m[t] = [x / m[t][c] for x in m[t]]
        for i in range(len(m)):
            if i != t and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[t])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(RANK) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(RANK)]
        for i, c in enumerate(pivots):
            v[c] = -m[i][f]
        scale = lcm(*(x.denominator for x in v))
        basis.append([int(x * scale) for x in v])
    # halving a sum that is 0 mod 2 doubles the lattice; stop when none is
    while (subset := _f2_dependency(basis)) is not None:
        basis[subset[0]] = [sum(basis[i][k] for i in subset) // 2 for k in range(RANK)]
    even = all((v[0] ** 2 - sum(x * x for x in v[1:])) % 2 == 0 for v in basis)
    return "even" if even else "odd"


@pytest.fixture(scope="module")
def cases(ctx):
    """(mask, report) for the 5486 records and the 3304 members of the
    orbits with at most 3 lines, whose reports come from invariant_report."""
    members = [m for r in ctx.records if r.n <= 3 for m in orbit_masks(r.mask, ctx.group)]
    assert len(members) == 3304
    return [(r.mask, rep) for r, rep in zip(ctx.records, ctx.reports)] + [
        (m, invariant_report(m)) for m in members
    ]


def test_finite_field_ranks_give_span_rank_and_torsion(cases):
    masks = [mask for mask, _ in cases]
    ranks = {p: _ranks_mod(p, masks) for p in PRIMES + (BIG_PRIME,)}
    for k, (mask, rep) in enumerate(cases):
        r = ranks[BIG_PRIME][k]
        assert (rep.span_rank, rep.perp_rank, rep.h1_free_rank) == (
            r,
            RANK - r,
            mask.bit_count() - r,
        ), mask
        for p in PRIMES:
            assert r - ranks[p][k] == sum(d % p == 0 for d in rep.h1_torsion), (mask, p)


def test_parity_from_the_f2_row_space_of_the_restriction_matrix(cases):
    classes = build_line_system().classes
    row_masks = [sum(1 << k for k, c in enumerate(cls) if c % 2) for cls in classes]
    two_torsion = 0
    for mask, rep in cases:
        basis = _f2_basis(mask, row_masks)
        if len(basis) == rep.span_rank:
            parity = "even" if _in_span(ALL_ONES, basis) else "odd"
        else:
            parity = _saturated_parity(mask)
            two_torsion += 1
        assert rep.perp_parity == parity, mask
    # the 19 orbits whose cokernel has 2-torsion, among them one member of
    # the six-line pair; no orbit with at most 3 lines has any
    assert two_torsion == 19
