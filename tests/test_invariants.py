"""Lattice invariants of arrangements: complement parity and h1."""

import dataclasses
import random

from oracles import apply_perm, class_vectors
from weyl27 import invariants
from weyl27.invariants import invariant_report, restriction_matrix
from weyl27.lattice import (
    GramLattice,
    cokernel_invariants,
    inner_product,
    is_even,
    matrix_rank,
    orthogonal_complement,
)
from weyl27.lines import AMBIENT, RANK, weyl_group
from weyl27.orbits import FULL_MASK, mask_from_lines

S1 = mask_from_lines([1, 2, 3, 4, 5])
S2 = mask_from_lines([1, 2, 3, 4, 21])
T1 = mask_from_lines([1, 2, 3, 4, 5, 27])
T2 = mask_from_lines([1, 2, 3, 4, 21, 26])


def test_class_vectors():
    assert class_vectors(0) == ()
    assert class_vectors(mask_from_lines([1])) == ((0, 1, 0, 0, 0, 0, 0),)
    assert class_vectors(mask_from_lines([7, 1])) == (
        (0, 1, 0, 0, 0, 0, 0),
        (1, -1, -1, 0, 0, 0, 0),
    )


def test_restriction_matrix_pairs_against_classes():
    # row for e1 is its class times the Gram matrix
    assert restriction_matrix(mask_from_lines([1])) == ((0, -1, 0, 0, 0, 0, 0),)
    m = restriction_matrix(mask_from_lines([1, 7]))
    assert len(m) == 2 and all(len(r) == 7 for r in m)
    assert m[1] == (1, 1, 1, 0, 0, 0, 0)


def test_five_skew_lines_parities():
    # complement of <e1..e5> is spanned by h and e6, so diag(1, -1): odd
    basis, gram = orthogonal_complement(class_vectors(S1), AMBIENT)
    assert basis == ((1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1))
    assert gram == ((1, 0), (0, -1))
    assert invariant_report(S1).perp_parity == "odd"
    # the other five-skew orbit has an even complement of the same rank
    basis2, gram2 = orthogonal_complement(class_vectors(S2), AMBIENT)
    assert len(basis2) == 2
    assert all(gram2[i][i] % 2 == 0 for i in range(2))
    assert invariant_report(S2).perp_parity == "even"


def test_six_line_star_parities():
    # solving the orthogonality conditions by hand gives one generator each:
    # (0,...,0,1) of norm -1 for T1, (1,0,0,0,0,1,-2) of norm -4 for T2
    basis, gram = orthogonal_complement(class_vectors(T1), AMBIENT)
    assert basis == ((0, 0, 0, 0, 0, 0, 1),)
    assert gram == ((-1,),)
    assert invariant_report(T1).perp_parity == "odd"
    basis, gram = orthogonal_complement(class_vectors(T2), AMBIENT)
    assert basis == ((1, 0, 0, 0, 0, 1, -2),)
    assert gram == ((-4,),)
    assert invariant_report(T2).perp_parity == "even"


def test_six_line_star_h1():
    for mask, h1 in ((T1, ((2,), 0)), (T2, ((), 0))):
        report = invariant_report(mask)
        assert (report.h1_torsion, report.h1_free_rank) == h1


def test_boundary_arrangements():
    empty = invariant_report(0)
    assert empty.span_rank == 0
    assert empty.perp_rank == 7
    assert empty.perp_parity == "odd"  # the ambient lattice contains h, h^2 = 1
    assert empty.h1_torsion == () and empty.h1_free_rank == 0
    full = invariant_report(FULL_MASK)
    assert full.span_rank == 7
    assert full.perp_rank == 0
    assert full.perp_parity == "even"  # rank-0 convention
    assert full.h1_free_rank == 27 - 7


def test_report_fields_are_consistent():
    rng = random.Random(425)
    for _ in range(25):
        mask = mask_from_lines(rng.sample(range(1, 28), rng.randint(0, 27)))
        rep = invariant_report(mask)
        assert rep.lines == tuple(sorted(rep.lines))
        assert rep.span_rank + rep.perp_rank == 7
        assert rep.h1_free_rank == len(rep.lines) - rep.span_rank
        assert all(t > 1 for t in rep.h1_torsion)
        for a, b in zip(rep.h1_torsion, rep.h1_torsion[1:]):
            assert b % a == 0
        assert rep.perp_parity in ("even", "odd")


def test_span_rank_matches_rank_of_classes(ctx):
    # the report derives span_rank from the complement; check it directly
    assert len(ctx.reports) == len(ctx.records) == 5486
    for r, rep in zip(ctx.records, ctx.reports):
        assert rep.span_rank == matrix_rank(class_vectors(r.mask))


def test_invariant_report_matches_two_pass_reference(ctx):
    # the two separate passes the report replaces: complement with its Gram
    # matrix, and the cokernel of the pairings against the unit vectors
    units = [tuple(int(i == j) for j in range(RANK)) for i in range(RANK)]
    for r, rep in zip(ctx.records, ctx.reports):
        classes = class_vectors(r.mask)
        basis, gram = orthogonal_complement(classes, AMBIENT)
        k = len(basis)
        assert rep.perp_rank == k
        # the complement as a lattice of its own, on its unit basis
        own_units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        even = is_even(own_units, GramLattice(k, gram))
        assert rep.perp_parity == ("even" if even else "odd")
        pairing = [[inner_product(e, c, AMBIENT) for e in units] for c in classes]
        assert (rep.h1_torsion, rep.h1_free_rank) == cokernel_invariants(
            pairing, target_rank=len(classes)
        )


def test_inherited_reports_equal_full_reports(ctx, monkeypatch):
    # below a full-span parent the reports skip the normal forms
    for r, rep in zip(ctx.records, ctx.reports):
        assert rep == invariant_report(r.mask)
    calls = []

    def counted(mask):
        calls.append(mask)
        return invariant_report(mask)

    monkeypatch.setattr(invariants, "invariant_report", counted)
    assert invariants.invariant_reports(ctx.records) == ctx.reports
    assert 0 < len(calls) <= 600


def test_invariant_report_constant_under_a_random_element_at_every_n(ctx):
    rng = random.Random(428)
    seen = set()
    for r, rep in zip(ctx.records, ctx.reports):
        row = ctx.group.elements[rng.randrange(ctx.group.order)]
        moved = invariant_report(apply_perm(r.mask, tuple(int(x) for x in row)))
        # every field but the lines themselves
        assert dataclasses.replace(moved, lines=rep.lines) == rep, r.min_rep
        seen.add(r.n)
    assert seen == set(range(28))


def test_invariants_constant_on_orbits():
    group = weyl_group()
    rng = random.Random(426)
    for mask in (S1, S2, T1, T2):
        base = invariant_report(mask)
        for _ in range(10):
            row = group.elements[rng.randrange(group.order)]
            image = apply_perm(mask, tuple(int(x) for x in row))
            moved = invariant_report(image)
            assert moved.span_rank == base.span_rank
            assert moved.perp_parity == base.perp_parity
            assert moved.h1_torsion == base.h1_torsion
            assert moved.h1_free_rank == base.h1_free_rank


def test_parity_stable_under_change_of_basis():
    # parity is a property of the complement lattice, not the chosen basis:
    # transform the basis by random unimodular row operations and recompare
    rng = random.Random(427)
    for mask in (S1, S2, T1, T2, mask_from_lines([1, 2, 7])):
        basis, _ = orthogonal_complement(class_vectors(mask), AMBIENT)
        k = len(basis)
        vecs = [list(v) for v in basis]
        for _ in range(30):
            i, j = rng.randrange(k), rng.randrange(k)
            if i == j:
                continue
            c = rng.choice([-2, -1, 1, 2])
            vecs[i] = [a + c * b for a, b in zip(vecs[i], vecs[j])]
        assert is_even(vecs, AMBIENT) == is_even(basis, AMBIENT)


def test_as_dict_round_trip():
    rep = invariant_report(T1)
    d = rep.as_dict()
    assert d == {
        "lines": [1, 2, 3, 4, 5, 27],
        "span_rank": 6,
        "perp_rank": 1,
        "perp_parity": "odd",
        "h1_torsion": [2],
        "h1_free_rank": 0,
    }
