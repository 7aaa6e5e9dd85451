"""Orbit enumeration under the line permutation group."""

import itertools
import multiprocessing
import random
from collections import Counter

import numpy as np
import pytest

from oracles import (
    apply_perm,
    image_rows,
    indices,
    is_minimal,
    lex_less,
    minimal_representative,
    rev_key,
)
from weyl27.expectations import load_expectations
from weyl27.lines import standard_generators, weyl_group
from weyl27.orbits import (
    FULL_MASK,
    OrbitRecord,
    _extend_batch,
    enumerate_all,
    lines_of_mask,
    mask_from_lines,
    orbit_masks,
    orbit_size,
)


def brute_minimum(mask, group):
    """Smallest orbit member by direct scan over all group elements."""
    return sum(1 << i for i in min(image_rows(mask, group)))


def children(parents, group):
    """The next level's masks from lex-sorted minimal parents."""
    return [mask for mask, _ in _extend_batch(parents, group.rev_table, group.degree)]


# -------------------------------------------------------------------- masks


def test_mask_roundtrip():
    assert mask_from_lines([]) == 0
    assert mask_from_lines([1]) == 1
    assert mask_from_lines([1, 27]) == 1 | (1 << 26)
    assert lines_of_mask(0) == ()
    assert lines_of_mask(0b101) == (1, 3)
    for lines in ([2, 9, 14], [27], list(range(1, 28))):
        assert lines_of_mask(mask_from_lines(lines)) == tuple(lines)
    assert mask_from_lines(range(1, 28)) == FULL_MASK


def test_mask_from_lines_rejects_bad_input():
    with pytest.raises(ValueError):
        mask_from_lines([0])
    with pytest.raises(ValueError):
        mask_from_lines([28])
    with pytest.raises(ValueError):
        mask_from_lines([3, 3])


def test_apply_perm():
    gens = standard_generators()
    # the first generator swaps lines 4<->21 and 5<->20
    assert lines_of_mask(apply_perm(mask_from_lines([4, 5]), gens[0])) == (20, 21)
    # lines 1 and 2 trade places under the second generator
    assert lines_of_mask(apply_perm(mask_from_lines([1, 2]), gens[1])) == (1, 2)
    assert apply_perm(0, gens[0]) == 0
    ident = tuple(range(27))
    assert apply_perm(FULL_MASK, ident) == FULL_MASK


def test_image_rows_are_the_images_under_apply_perm():
    group = weyl_group()
    rng = random.Random(431)
    for mask in (0, mask_from_lines([3]), mask_from_lines([1, 2, 3, 4, 21, 26])):
        rows = image_rows(mask, group)
        assert len(rows) == group.order
        for k in rng.sample(range(group.order), 20):
            image = apply_perm(mask, tuple(int(x) for x in group.elements[k]))
            assert rows[k] == indices(image)


# ----------------------------------------------------------------- ordering


def test_lex_less():
    a = mask_from_lines([1, 2, 3])
    b = mask_from_lines([1, 2, 4])
    assert lex_less(a, b)
    assert not lex_less(b, a)
    assert not lex_less(a, a)
    assert lex_less(mask_from_lines([1, 2, 3, 4, 5]), mask_from_lines([1, 2, 3, 4, 21]))


def test_lex_less_rejects_different_sizes():
    with pytest.raises(ValueError):
        lex_less(mask_from_lines([1]), mask_from_lines([1, 2]))


def test_rev_key_orders_like_lex():
    rng = random.Random(419)
    for _ in range(300):
        n = rng.randint(1, 8)
        a = mask_from_lines(rng.sample(range(1, 28), n))
        b = mask_from_lines(rng.sample(range(1, 28), n))
        if a == b:
            continue
        assert lex_less(a, b) == (rev_key(a) > rev_key(b))


# -------------------------------------------------------------- minimality


def test_is_minimal_singletons():
    group = weyl_group()
    assert is_minimal(mask_from_lines([1]), group)
    for k in range(2, 28):
        assert not is_minimal(mask_from_lines([k]), group)


def test_is_minimal_matches_brute_force():
    group = weyl_group()
    rng = random.Random(420)
    for _ in range(8):
        mask = mask_from_lines(rng.sample(range(1, 28), rng.randint(2, 3)))
        best = brute_minimum(mask, group)
        assert is_minimal(mask, group) == (best == mask)
        assert minimal_representative(mask, group) == best


def test_known_minimal_representatives():
    group = weyl_group()
    assert is_minimal(mask_from_lines([1, 2, 3, 4, 5]), group)
    assert is_minimal(mask_from_lines([1, 2, 3, 4, 21]), group)
    assert is_minimal(mask_from_lines([1, 2, 3, 4, 5, 27]), group)
    assert is_minimal(mask_from_lines([1, 2, 3, 4, 21, 26]), group)
    assert is_minimal(0, group)
    assert is_minimal(FULL_MASK, group)


# ---------------------------------------------------------------- extension


def test_extend_from_empty_set():
    # level 1 is seeded, not scanned: the group is transitive
    group = weyl_group()
    records = enumerate_all(group, max_n=1)
    assert records == [OrbitRecord(mask=0, orbit_size=1), OrbitRecord(mask=1, orbit_size=27)]
    assert enumerate_all(group, max_n=0) == records[:1]


def test_extend_from_single_line():
    group = weyl_group()
    reps = children([mask_from_lines([1])], group)
    assert [lines_of_mask(m) for m in reps] == [(1, 2), (1, 7)]
    # agree with a direct scan over all candidate extensions
    expected = []
    for c in range(2, 28):
        mask = mask_from_lines([1, c])
        if is_minimal(mask, group):
            expected.append(mask)
    assert reps == expected


def test_extension_output_is_sorted_and_duplicate_free():
    group = weyl_group()
    reps = [1]
    for _ in range(3):
        reps = children(reps, group)
    assert len(set(reps)) == len(reps)
    for a, b in zip(reps, reps[1:]):
        assert lex_less(a, b)
    for m in reps:
        assert is_minimal(m, group)


def test_extend_minimal_matches_full_table_scan(ctx):
    # the block-pruned scan keeps exactly the children the full scan keeps
    rng = random.Random(428)
    sample = [r.mask for r in ctx.records if 1 <= r.n <= 5]
    for n in (13, 14):
        sample += rng.sample([r.mask for r in ctx.records if r.n == n], 20)
    for parent in sample:
        expected = [
            parent | (1 << c)
            for c in range(parent.bit_length(), 27)
            if is_minimal(parent | (1 << c), ctx.group)
        ]
        assert children([parent], ctx.group) == expected


def test_extend_minimal_rejects_a_parent_without_line_1():
    group = weyl_group()
    with pytest.raises(ValueError, match="line 1"):
        children([mask_from_lines([2, 5])], group)
    with pytest.raises(ValueError, match="line 1"):
        children([0], group)


# -------------------------------------------------------------- orbit sizes


def test_orbit_size_small_cases():
    group = weyl_group()
    assert orbit_size(0, group) == 1
    assert orbit_size(FULL_MASK, group) == 1
    assert orbit_size(mask_from_lines([1]), group) == 27


def test_orbit_size_matches_direct_orbit():
    group = weyl_group()
    for lines in ([1], [1, 2], [1, 7], [1, 2, 3, 4, 5], [1, 2, 3, 4, 21]):
        mask = mask_from_lines(lines)
        orbit = {tuple(row) for row in image_rows(mask, group)}
        assert orbit_size(mask, group) == len(orbit)


def test_known_orbit_sizes():
    group = weyl_group()
    assert orbit_size(mask_from_lines([1, 2]), group) == 216
    assert orbit_size(mask_from_lines([1, 7]), group) == 135
    assert orbit_size(mask_from_lines([1, 2, 3, 4, 5]), group) == 432
    assert orbit_size(mask_from_lines([1, 2, 3, 4, 21]), group) == 216
    assert orbit_size(mask_from_lines([1, 2, 3, 4, 5, 27]), group) == 432
    assert orbit_size(mask_from_lines([1, 2, 3, 4, 21, 26]), group) == 432


def test_orbit_masks():
    group = weyl_group()
    singles = orbit_masks(mask_from_lines([1]), group)
    assert singles == [1 << i for i in range(27)]
    mask = mask_from_lines([1, 7])
    members = orbit_masks(mask, group)
    assert len(members) == orbit_size(mask, group)
    assert members == sorted(members, key=lambda m: lines_of_mask(m))
    assert members[0] == mask
    for m in members[:20]:
        assert minimal_representative(m, group) == mask


# -------------------------------------------------------------- enumeration


def test_enumerate_all_level_counts():
    group = weyl_group()
    records = enumerate_all(group, max_n=6)
    counts = [sum(1 for r in records if r.n == n) for n in range(7)]
    assert counts == [1, 1, 2, 4, 8, 18, 39]
    assert records[0] == OrbitRecord(mask=0, orbit_size=1)


def test_enumerate_all_capped():
    group = weyl_group()
    records = enumerate_all(group, max_n=3)
    # the four triples were confirmed minimal by scanning the whole group
    assert [r.min_rep for r in records] == [
        (),
        (1,),
        (1, 2),
        (1, 7),
        (1, 2, 3),
        (1, 2, 7),
        (1, 2, 8),
        (1, 7, 23),
    ]
    assert records[0].orbit_size == 1
    by_rep = {r.min_rep: r.orbit_size for r in records}
    assert by_rep[(1, 2)] == 216
    assert by_rep[(1, 7)] == 135


def test_enumerate_all_worker_determinism():
    group = weyl_group()
    # past five lines the levels have dozens of parents to split across the pool
    serial = enumerate_all(group, max_n=8, workers=1)
    forked = enumerate_all(group, max_n=8, workers=2)
    assert [(r.mask, r.orbit_size) for r in serial] == [
        (r.mask, r.orbit_size) for r in forked
    ]


def test_enumerate_all_warns_without_fork(monkeypatch):
    group = weyl_group()
    serial = enumerate_all(group, max_n=5, workers=1)

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    with pytest.warns(RuntimeWarning, match="serially"):
        fallback = enumerate_all(group, max_n=5, workers=2)
    assert fallback == serial


def test_enumerated_orbit_sizes_match_rescan(ctx):
    # the sizes come from the enumeration scan; orbit_size is the reference
    rng = random.Random(427)
    sample = [r for r in ctx.records if r.n <= 4]
    sample += rng.sample(ctx.records, 100)
    for r in sample:
        assert r.orbit_size == orbit_size(r.mask, ctx.group)


def test_level_counts_match_burnside(ctx):
    # Burnside: the number of orbits of k-subsets is the mean over the group
    # of the x**k coefficient of prod over cycles (1 + x**len); read off the
    # element table alone, apart from the enumeration
    el = ctx.group.elements.astype(np.intp)
    points = np.arange(el.shape[1])
    step = el.copy()  # g**k applied to each point, for k = 1, 2, ...
    length = np.zeros_like(el)
    for k in range(1, el.shape[1] + 1):
        length[(step == points) & (length == 0)] = k
        step = np.take_along_axis(el, step, axis=1)
    types, counts = np.unique(np.sort(length, axis=1), axis=0, return_counts=True)
    total = [0] * 28
    for lengths, count in zip(types.tolist(), counts.tolist()):
        poly = [1]
        for cycle, points_on in Counter(lengths).items():
            for _ in range(points_on // cycle):
                poly = [a + b for a, b in zip(poly + [0] * cycle, [0] * cycle + poly)]
        total = [t + count * c for t, c in zip(total, poly)]
    assert len(types) == 20
    assert all(t % ctx.group.order == 0 for t in total)
    burnside = [t // ctx.group.order for t in total]
    assert sum(burnside) == 5486
    by_n = [0] * 28
    for r in ctx.records:
        by_n[r.n] += 1
    assert by_n == burnside


def test_returned_reps_are_fixed_by_no_smaller_image(ctx):
    # definitional check, exhaustive over the group for the smallest levels
    group = ctx.group
    small = [r.mask for r in ctx.records if r.n <= 3]
    for mask in small:
        assert min(image_rows(mask, group)) == indices(mask)


def test_full_table_shape(ctx):
    counts = {}
    for r in ctx.records:
        counts[r.n] = counts.get(r.n, 0) + 1
    assert sum(counts.values()) == 5486
    assert counts[0] == 1 and counts[27] == 1
    # the table is symmetric under complement
    for n in range(28):
        assert counts[n] == counts[27 - n]


def test_complements_of_reps_are_reps(ctx):
    # complement is a bijection between the levels n and 27 - n that
    # commutes with the group, so it maps orbits onto orbits of equal size;
    # the lower half of the table reaches every record of the upper half
    size_of = {r.mask: r.orbit_size for r in ctx.records}
    lower = [r for r in ctx.records if r.n <= 13]
    assert len(lower) == 2743
    upper = set()
    for r in lower:
        comp = minimal_representative(FULL_MASK ^ r.mask, ctx.group)
        assert comp.bit_count() == 27 - r.n
        assert size_of.get(comp) == r.orbit_size, r.min_rep
        upper.add(comp)
    assert upper == {r.mask for r in ctx.records if r.n >= 14}


def test_expected_fibers_have_explicit_isomorphisms(ctx):
    # each expected fiber holds two orbits whose lines correspond under a
    # bijection preserving every intersection number, found by brute force
    # over the orders of the second member's lines
    ls = ctx.ls
    records = {r.min_rep: r for r in ctx.records}
    for pair in load_expectations().zariski_pairs:
        first, second = pair.members
        assert first != second and first in records and second in records
        pairs = list(itertools.combinations(range(len(first)), 2))
        witness = next(
            (
                order
                for order in itertools.permutations(second)
                if all(ls.meet(first[i], first[j]) == ls.meet(order[i], order[j]) for i, j in pairs)
            ),
            None,
        )
        assert witness is not None, pair.members
        assert sorted(witness) == list(second)
        for i, j in pairs:
            assert ls.meet(first[i], first[j]) == ls.meet(witness[i], witness[j])


def test_orbit_record_shape():
    rec = OrbitRecord(mask=mask_from_lines([1, 7]), orbit_size=135)
    assert rec.n == 2
    assert rec.min_rep == (1, 7)
    assert rec.as_dict() == {"n": 2, "min_rep": [1, 7], "orbit_size": 135}
