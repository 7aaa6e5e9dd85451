"""Line classes, root reflections, and the permutation group they generate."""

import hashlib
import random

import numpy as np
import pytest

from oracles import compose, group_table, invert, line_class, preserves_pairing
from weyl27.lattice import inner_product
from weyl27.lines import (
    AMBIENT,
    ANTICANONICAL,
    LINE_COUNT,
    SIMPLE_ROOTS,
    PermutationGroup,
    build_line_system,
    cycle_notation,
    generate_group,
    reflection_permutation,
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
    assert line_class(1) == (0, 1, 0, 0, 0, 0, 0)
    assert line_class(6) == (0, 0, 0, 0, 0, 0, 1)
    assert line_class(7) == (1, -1, -1, 0, 0, 0, 0)
    assert line_class(21) == (1, 0, 0, 0, 0, -1, -1)
    assert line_class(22) == (2, 0, -1, -1, -1, -1, -1)
    assert line_class(27) == (2, -1, -1, -1, -1, -1, 0)


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
        line_class(0)
    with pytest.raises(ValueError):
        line_class(28)
    with pytest.raises(ValueError):
        ls.meet(5, 5)


# -------------------------------------------------------------- reflections


def reflection_matrix(root):
    """The 7x7 matrix of x -> x + <x, root> * root acting on row vectors."""
    gram = np.array(AMBIENT.gram)
    r = np.array(root)
    return np.eye(AMBIENT.rank, dtype=np.int64) + np.outer(gram @ r, r)


def test_reflection_fixes_pairing_and_squares_to_identity():
    classes = np.array(build_line_system().classes)
    for root in SIMPLE_ROOTS:
        m = reflection_matrix(root)
        assert preserves_pairing(m.tolist())
        assert (np.array(root) @ m == -np.array(root)).all()
        assert (np.array(ANTICANONICAL) @ m == ANTICANONICAL).all()
        assert (m @ m == np.eye(AMBIENT.rank)).all()
        # the permutation is the matrix's action on the line classes
        perm = reflection_permutation(root)
        assert (classes @ m == classes[list(perm)]).all()
        assert compose(perm, perm) == tuple(range(LINE_COUNT))


def test_reflection_rejects_non_roots():
    with pytest.raises(ValueError, match="-2"):
        reflection_permutation((0, 1, 0, 0, 0, 0, 0))  # norm -1
    with pytest.raises(ValueError, match="-2"):
        reflection_permutation((1, 0, 0, 0, 0, 0, 0))  # norm +1
    with pytest.raises(ValueError, match="-2"):
        reflection_permutation((0, 0, 0, 0, 0, 0, 0))


def test_reflection_swaps_adjacent_basis_vectors():
    # the root e1 - e2 exchanges e1 and e2, which are lines 1 and 2
    perm = reflection_permutation((0, 1, -1, 0, 0, 0, 0))
    assert perm[0] == 1 and perm[1] == 0


def test_verify_dynkin():
    assert verify_dynkin() is True
    assert verify_dynkin(SIMPLE_ROOTS) is True
    swapped = list(SIMPLE_ROOTS)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert verify_dynkin(swapped) is False
    assert verify_dynkin(SIMPLE_ROOTS[:5]) is False
    assert verify_dynkin([(0,) * 7] * 6) is False


# ------------------------------------------------------------- permutations


def test_reflection_permutation_rejects_roots_moving_the_canonical_class():
    # e1 + e2 has norm -2 but pairs to 2 with K, so its reflection moves K
    # and sends line 1 to -e2, which is no line class
    with pytest.raises(ValueError, match="anticanonical"):
        reflection_permutation((0, 1, 1, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="anticanonical"):
        reflection_permutation((1, 1, 1, 1, 0, 0, 0))


def test_standard_generator_cycles():
    gens = standard_generators()
    assert len(gens) == 6
    assert tuple(cycle_notation(g) for g in gens) == EXPECTED_CYCLES
    for g in gens:
        assert compose(g, g) == tuple(range(27))


def test_generators_preserve_intersections():
    ls = build_line_system()
    for g in standard_generators():
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


def _closure_cases():
    g = standard_generators()
    ident = tuple(range(27))
    return {
        "first-three": g[:3],
        "first-three-reversed": g[:3][::-1],
        "repeated": (g[1], g[1], g[2]),
        "identity-first": (ident, g[0], g[3]),
        "already-generated": (g[1], g[2], compose(g[1], g[2]), g[4]),
        "intransitive-pair": (g[0], g[5]),
    }


@pytest.mark.parametrize("case", list(_closure_cases()))
def test_closure_matches_tuple_closure_with_compose(case):
    gens = _closure_cases()[case]
    seen = {tuple(range(27))}
    frontier = list(seen)
    while frontier:
        frontier = [q for q in {compose(p, g) for p in frontier for g in gens} if q not in seen]
        seen.update(frontier)
    group = generate_group(gens)
    assert group.elements.dtype == np.uint8
    assert group.order == len(seen)
    assert [tuple(int(x) for x in row) for row in group.elements] == sorted(seen)


def test_weyl_group_table_is_pinned():
    # every row in order: the orbit scans and pool workers read this table
    table = weyl_group().elements
    assert table.dtype == np.uint8 and table.flags["C_CONTIGUOUS"]
    assert hashlib.sha256(table.tobytes()).hexdigest() == (
        "1de53eef0efae5a88a04aab2784e2a08e93e9b9200612673992e29ba6361377d"
    )


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


def row_set(rows):
    """The rows of a 2-d table as a set of bytes."""
    return {bytes(row) for row in rows}


def test_coset_tables_lay_out_the_group_table_row_for_row():
    group = weyl_group()
    stab, coset = group.coset_tables
    block = group.order // group.degree
    assert stab.dtype == np.int32 and stab.shape == (27, block) == (27, 1920)
    assert coset.dtype == np.intp and coset.shape == (27, 27)
    assert stab.nbytes + coset.nbytes == 213_192
    table = group_table(group)
    assert table.shape == (group.order, 27)
    # row p * B + h holds in column c the bit stab[coset[c, p], h]
    keys = stab[coset.T].transpose(0, 2, 1).reshape(group.order, 27)
    assert np.array_equal(keys, np.left_shift(1, 26 - table.astype(np.int64)))
    assert (table[0] == np.arange(27)).all()  # row 0 is the identity
    el = group.elements
    for p in range(27):
        # block p is exactly the elements that send line p + 1 to line 1
        rows = table[p * block : (p + 1) * block]
        assert row_set(rows) == row_set(el[el[:, p] == 0])


def test_coset_tables_reject_an_intransitive_group():
    one_reflection = generate_group([standard_generators()[0]])
    with pytest.raises(ValueError, match="transitive"):
        one_reflection.coset_tables


def test_coset_tables_need_the_identity_first():
    group = weyl_group()
    shuffled = PermutationGroup(group.degree, group.generators, group.elements[::-1])
    with pytest.raises(ValueError, match="identity"):
        shuffled.coset_tables


def test_coset_tables_need_int32_keys():
    rotation = tuple(range(1, 32)) + (0,)
    with pytest.raises(ValueError, match="degree <= 31"):
        generate_group([rotation]).coset_tables


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
        c7 = line_class(perm[6] + 1)
        c1 = line_class(perm[0] + 1)
        c2 = line_class(perm[1] + 1)
        h_img = tuple(a + b + d for a, b, d in zip(c7, c1, c2))
        rows = [h_img] + [line_class(perm[i] + 1) for i in range(6)]
        assert preserves_pairing(rows)
        # the isometry with these basis images moves every line as perm does
        images = np.array(ls.classes) @ np.array(rows)
        assert (images == np.array(ls.classes)[list(perm)]).all()
