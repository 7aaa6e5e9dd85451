"""Orbit enumeration under the line permutation group."""

import multiprocessing
import random

import pytest

from weyl27.lines import standard_generators, weyl_group
from weyl27.orbits import (
    FULL_MASK,
    OrbitRecord,
    apply_perm,
    enumerate_all,
    extend_minimal,
    is_minimal,
    lex_less,
    lines_of_mask,
    mask_from_lines,
    minimal_representative,
    orbit_masks,
    orbit_size,
    rev_key,
)


def brute_minimum(mask, group):
    """Smallest orbit member by direct scan over all group elements."""
    best = None
    for row in group.elements:
        img = apply_perm(mask, tuple(int(x) for x in row))
        if best is None or lex_less(img, best):
            best = img
    return best


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
    group = weyl_group()
    assert [lines_of_mask(m) for m in extend_minimal([0], group)] == [(1,)]


def test_extend_from_single_line():
    group = weyl_group()
    reps = extend_minimal([mask_from_lines([1])], group)
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
    reps = [0]
    for _ in range(4):
        reps = extend_minimal(reps, group)
    assert len(set(reps)) == len(reps)
    for a, b in zip(reps, reps[1:]):
        assert lex_less(a, b)
    for m in reps:
        assert is_minimal(m, group)


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
        orbit = {apply_perm(mask, tuple(int(x) for x in row)) for row in group.elements}
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


def test_returned_reps_are_fixed_by_no_smaller_image(ctx):
    # definitional check, exhaustive over the group for the smallest levels
    group = ctx.group
    small = [r.mask for r in ctx.records if r.n <= 3]
    for mask in small:
        for row in group.elements:
            img = apply_perm(mask, tuple(int(x) for x in row))
            assert img == mask or not lex_less(img, mask)


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
    group = ctx.group
    by_n = {}
    for r in ctx.records:
        by_n.setdefault(r.n, set()).add(r.mask)
    rng = random.Random(421)
    sample = [r for r in ctx.records if r.n <= 4]
    sample += rng.sample(ctx.records, 60)
    for r in sample:
        comp = minimal_representative(FULL_MASK ^ r.mask, group)
        assert comp in by_n[27 - r.n]


def test_orbit_record_shape():
    rec = OrbitRecord(mask=mask_from_lines([1, 7]), orbit_size=135)
    assert rec.n == 2
    assert rec.min_rep == (1, 7)
    assert rec.as_dict() == {"n": 2, "min_rep": [1, 7], "orbit_size": 135}
