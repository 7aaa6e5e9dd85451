"""Line classes, root reflections, and the permutation group they generate."""

import random

import numpy as np
import pytest

from weyl27.lattice import inner_product
from weyl27.lines import (
    AMBIENT,
    ANTICANONICAL,
    LINE_COUNT,
    SIMPLE_ROOTS,
    Isometry,
    build_line_system,
    compose,
    cycle_notation,
    generate_group,
    invert,
    isometry_to_permutation,
    reflection,
    standard_generators,
    verify_dynkin,
    weyl_group,
)

EXPECTED_CYCLES = (
    "(4,21)(5,20)(6,19)(7,24)(8,23)(12,22)",
    "(1,2)(8,12)(9,13)(10,14)(11,15)(22,23)",
    "(2,3)(7,8)(13,16)(14,17)(15,18)(23,24)",
    "(3,4)(8,9)(12,13)(17,19)(18,20)(24,25)",
    "(4,5)(9,10)(13,14)(16,17)(20,21)(25,26)",
    "(5,6)(10,11)(14,15)(17,18)(19,20)(26,27)",
)


# ------------------------------------------------------------- line classes


def test_line_classes_frozen_samples():
    ls = build_line_system()
    assert ls.line_class(1) == (0, 1, 0, 0, 0, 0, 0)
    assert ls.line_class(6) == (0, 0, 0, 0, 0, 0, 1)
    assert ls.line_class(7) == (1, -1, -1, 0, 0, 0, 0)
    assert ls.line_class(21) == (1, 0, 0, 0, 0, -1, -1)
    assert ls.line_class(22) == (2, 0, -1, -1, -1, -1, -1)
    assert ls.line_class(27) == (2, -1, -1, -1, -1, -1, 0)


def test_line_classes_are_lines():
    # every class has self-intersection -1 and degree 1
    ls = build_line_system()
    assert len(ls.classes) == LINE_COUNT
    assert len(set(ls.classes)) == LINE_COUNT
    for cls in ls.classes:
        assert inner_product(cls, cls, AMBIENT) == -1
        assert inner_product(cls, ANTICANONICAL, AMBIENT) == 1


def test_intersection_table():
    ls = build_line_system()
    assert ls.meet(1, 7) == 1
    assert ls.meet(1, 2) == 0
    assert ls.meet(1, 22) == 0
    assert ls.meet(1, 23) == 1
    assert ls.meet(7, 21) == 1  # index pairs {1,2} and {5,6} are disjoint
    assert ls.meet(7, 8) == 0   # {1,2} and {1,3} share an index
    for a in range(LINE_COUNT):
        assert ls.inter[a][a] == -1
        # each line meets exactly ten others
        assert sum(ls.inter[a][b] for b in range(LINE_COUNT) if b != a) == 10
        for b in range(LINE_COUNT):
            assert ls.inter[a][b] == ls.inter[b][a]
            if a != b:
                assert ls.inter[a][b] in (0, 1)


def test_line_lookup_errors():
    ls = build_line_system()
    with pytest.raises(ValueError):
        ls.line_class(0)
    with pytest.raises(ValueError):
        ls.line_class(28)
    with pytest.raises(ValueError):
        ls.meet(5, 5)
    with pytest.raises(ValueError):
        ls.index_of((1, 1, 1, 1, 1, 1, 1))
    assert ls.index_of((0, 1, 0, 0, 0, 0, 0)) == 0


# -------------------------------------------------------------- reflections


def test_reflection_fixes_pairing_and_squares_to_identity():
    n = AMBIENT.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    for root in SIMPLE_ROOTS:
        iso = reflection(root)
        assert iso.preserves_pairing()
        assert iso.apply(root) == tuple(-x for x in root)
        assert iso.apply(ANTICANONICAL) == ANTICANONICAL
        square = tuple(iso.apply(row) for row in iso.matrix)
        assert square == ident


def test_reflection_rejects_non_roots():
    with pytest.raises(ValueError):
        reflection((0, 1, 0, 0, 0, 0, 0))  # norm -1
    with pytest.raises(ValueError):
        reflection((1, 0, 0, 0, 0, 0, 0))  # norm +1
    with pytest.raises(ValueError):
        reflection((0, 0, 0, 0, 0, 0, 0))


def test_reflection_swaps_adjacent_basis_vectors():
    # the root e1 - e2 exchanges e1 and e2
    iso = reflection((0, 1, -1, 0, 0, 0, 0))
    assert iso.apply((0, 1, 0, 0, 0, 0, 0)) == (0, 0, 1, 0, 0, 0, 0)
    assert iso.apply((0, 0, 1, 0, 0, 0, 0)) == (0, 1, 0, 0, 0, 0, 0)


def test_verify_dynkin():
    assert verify_dynkin() is True
    assert verify_dynkin(SIMPLE_ROOTS) is True
    swapped = list(SIMPLE_ROOTS)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert verify_dynkin(swapped) is False
    assert verify_dynkin(SIMPLE_ROOTS[:5]) is False
    assert verify_dynkin([(0,) * 7] * 6) is False


# ------------------------------------------------------------- permutations


def test_isometry_to_permutation_identity():
    ident = Isometry(tuple(tuple(1 if i == j else 0 for j in range(7)) for i in range(7)))
    assert isometry_to_permutation(ident) == tuple(range(27))


def test_isometry_to_permutation_rejects_negation():
    neg = Isometry(tuple(tuple(-1 if i == j else 0 for j in range(7)) for i in range(7)))
    with pytest.raises(ValueError):
        isometry_to_permutation(neg)


def test_standard_generator_cycles():
    gens = standard_generators()
    assert len(gens) == 6
    assert tuple(cycle_notation(g) for g in gens) == EXPECTED_CYCLES
    for g in gens:
        assert compose(g, g) == tuple(range(27))


def test_generators_preserve_intersections():
    ls = build_line_system()
    for g in standard_generators(ls):
        for a in range(LINE_COUNT):
            for b in range(LINE_COUNT):
                assert ls.inter[g[a]][g[b]] == ls.inter[a][b]


def test_compose_and_invert():
    p = (1, 2, 0)
    q = (0, 2, 1)
    # apply p first, then q
    assert compose(p, q) == (2, 1, 0)
    assert compose(q, p) == (1, 0, 2)
    assert invert(p) == (2, 0, 1)
    assert compose(p, invert(p)) == (0, 1, 2)


def test_cycle_notation():
    assert cycle_notation((0, 1, 2)) == "()"
    assert cycle_notation((1, 0, 2)) == "(1,2)"
    assert cycle_notation((1, 2, 0)) == "(1,2,3)"
    assert cycle_notation((1, 0, 3, 2)) == "(1,2)(3,4)"


# -------------------------------------------------------------------- group


def test_tiny_closures():
    ident = tuple(range(27))
    assert generate_group([ident]).order == 1
    gens = standard_generators()
    assert generate_group([gens[0]]).order == 2


def test_closure_matches_tuple_closure_with_compose():
    gens = standard_generators()[:3]
    seen = {tuple(range(27))}
    frontier = list(seen)
    while frontier:
        frontier = [q for q in {compose(p, g) for p in frontier for g in gens} if q not in seen]
        seen.update(frontier)
    group = generate_group(gens)
    assert [tuple(int(x) for x in row) for row in group.elements] == sorted(seen)


def test_generate_group_rejects_non_permutations():
    with pytest.raises(ValueError):
        generate_group([(0, 0, 1)])
    with pytest.raises(ValueError):
        generate_group([(0, 1, 3)])
    with pytest.raises(ValueError):
        generate_group([tuple(range(257))])


def test_group_order():
    group = weyl_group()
    assert group.order == 51840
    assert group.degree == 27
    assert len(group.elements) == 51840


def test_group_membership_and_closure():
    group = weyl_group()
    members = {tuple(int(x) for x in row) for row in group.elements}
    ident = tuple(range(27))
    assert ident in members
    assert tuple(group.elements[0]) == ident  # identity sorts first
    rng = random.Random(417)
    elems = group.elements
    for _ in range(50):
        p = tuple(int(x) for x in elems[rng.randrange(group.order)])
        q = tuple(int(x) for x in elems[rng.randrange(group.order)])
        assert compose(p, q) in members
        assert invert(p) in members
    assert (1, 0) + tuple(range(2, 27)) not in members  # a stray transposition


def test_group_is_transitive_on_lines():
    gens = standard_generators()
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    assert seen == set(range(27))


def test_rev_table_is_blocked_by_the_point_sent_to_line_1():
    group = weyl_group()
    tbl = group.rev_table
    block = group.order // group.degree
    assert tbl.dtype == np.int32
    assert tbl.shape == (group.order, group.degree) == (27 * block, 27)
    images = group.degree - 1 - np.log2(tbl).astype(np.int64)
    assert (images[0] == np.arange(27)).all()  # the identity is row 0
    for p in range(27):
        rows = images[p * block : (p + 1) * block]
        assert (rows[:, p] == 0).all()
        # each block keeps the lex order of the element table
        assert (np.lexsort(rows.T[::-1]) == np.arange(block)).all()
    # the rows are the element table, reordered
    assert (images[np.lexsort(images.T[::-1])] == group.elements).all()


def test_rev_table_rejects_an_intransitive_group():
    one_reflection = generate_group([standard_generators()[0]])
    with pytest.raises(ValueError, match="transitive"):
        one_reflection.rev_table


def test_every_element_pulls_back_to_an_isometry_fixing_the_canonical_class():
    # line 7 has class h - e1 - e2, so h is the sum of classes 7, 1, 2 and
    # the basis image of any permutation can be assembled from line classes
    ls = build_line_system()
    group = weyl_group()
    t = group.elements.astype(np.int64)
    c = np.array(ls.classes, dtype=np.int64)
    h_img = c[t[:, 6]] + c[t[:, 0]] + c[t[:, 1]]
    e_sum = np.zeros_like(h_img)
    for i in range(6):
        e_sum += c[t[:, i]]
    k_img = 3 * h_img - e_sum
    assert (k_img == np.array(ANTICANONICAL, dtype=np.int64)).all()


def test_sampled_elements_pull_back_to_isometries():
    ls = build_line_system()
    group = weyl_group()
    rng = random.Random(418)
    for _ in range(20):
        perm = tuple(int(x) for x in group.elements[rng.randrange(group.order)])
        c7 = ls.line_class(perm[6] + 1)
        c1 = ls.line_class(perm[0] + 1)
        c2 = ls.line_class(perm[1] + 1)
        h_img = tuple(a + b + d for a, b, d in zip(c7, c1, c2))
        rows = [h_img] + [ls.line_class(perm[i] + 1) for i in range(6)]
        iso = Isometry(tuple(rows))
        assert iso.preserves_pairing()
        assert isometry_to_permutation(iso, ls) == perm
