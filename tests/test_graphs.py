"""Canonical labeling of intersection graphs and type classification."""

import hashlib
import itertools
import random

import numpy as np
import pytest

from oracles import apply_perm, graph_from_edges, group_table, indices, is_simple_graph, relabel
from weyl27 import checks, graphs
from weyl27.graphs import (
    canonical_certificate,
    classify_types,
    find_zariski_pairs,
    intersection_graph,
    record_certificates,
    stabilizer_automorphisms,
)
from weyl27.lines import build_line_system, weyl_group
from weyl27.orbits import OrbitRecord, enumerate_all, mask_from_lines

# sha256 of the 5486 certificates in record order, joined by newlines
CERTIFICATES_SHA256 = "4983e8884efe2857462a2832f70825c2330a612ff032d109db68c6f38d3dec2f"


def packed_hex(adj, order):
    """Upper-triangular adjacency bits in column-major order, packed MSB-first."""
    n = len(order)
    buf = bytearray((n * (n - 1) // 2 + 7) // 8)
    pos = 0
    for k in range(1, n):
        for i in range(k):
            if (adj[order[i]] >> order[k]) & 1:
                buf[pos >> 3] |= 0x80 >> (pos & 7)
            pos += 1
    return buf.hex()


def brute_certificate(g):
    """Minimum packed form over every vertex ordering."""
    best = min(packed_hex(g, perm) for perm in itertools.permutations(range(len(g))))
    return f"{len(g)}:{best}"


def canonical_order(g):
    """Vertex order of the leaf whose adjacency string is the certificate."""
    cells, _ = graphs._canonical_leaf(g)
    return [c.bit_length() - 1 for c in cells]


def random_graph(rng, n, p=0.5):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return graph_from_edges(n, edges)


# ------------------------------------------------------------- construction


def test_graph_validation():
    g = graph_from_edges(3, [(0, 1)])
    assert g == (0b010, 0b001, 0b000) and is_simple_graph(g)
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 0)])  # loop
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 2)])  # vertex out of range
    assert not is_simple_graph((0b10, 0b00))  # not symmetric
    assert not is_simple_graph((0b110, 0b001))  # bit 2 is no vertex
    assert not is_simple_graph((0b01, 0b00))  # loop
    assert not is_simple_graph((-2, 0b01))


def test_intersection_graph_matches_meet(ctx):
    rng = random.Random(425)
    for rec in [*ctx.records[:40], *rng.sample(ctx.records, 200), ctx.records[-1]]:
        lines = rec.min_rep
        g = intersection_graph(rec.mask)
        n = len(g)
        assert n == len(lines)
        for a in range(n):
            for b in range(n):
                meets = a != b and ctx.ls.meet(lines[a], lines[b]) == 1
                assert (g[a] >> b & 1) == meets


def test_intersection_graph_vertices_follow_line_order():
    g = intersection_graph(mask_from_lines([1, 2, 7]))
    # vertex i is the i-th smallest line; 1 and 2 are skew, both meet 7
    assert len(g) == 3
    assert g == (0b100, 0b100, 0b011)


def test_intersection_graph_star():
    g = intersection_graph(mask_from_lines([1, 2, 3, 4, 5, 27]))
    # line 27 meets each of 1..5 and the rest are pairwise skew
    assert g[5] == 0b011111
    for i in range(5):
        assert g[i] == 1 << 5


def test_relabel():
    g = graph_from_edges(3, [(0, 1)])
    # old vertex i becomes perm[i], so the edge lands on {2, 0}
    h = relabel(g, (2, 0, 1))
    assert h == (0b100, 0b000, 0b001)
    with pytest.raises(ValueError):
        relabel(g, (0, 0, 1))


# -------------------------------------------------------- canonical labeling


def test_canonical_order_is_a_permutation():
    rng = random.Random(422)
    for n in range(1, 8):
        g = random_graph(rng, n)
        order = canonical_order(g)
        assert sorted(order) == list(range(n))


def test_certificate_distinguishes_path_from_triangle():
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    tri = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert canonical_certificate(path) != canonical_certificate(tri)


def test_certificate_invariant_under_relabeling_exhaustive():
    star = graph_from_edges(6, [(0, i) for i in range(1, 6)])
    cert = canonical_certificate(star)
    for perm in itertools.permutations(range(6)):
        assert canonical_certificate(relabel(star, perm)) == cert


def test_certificate_invariant_under_relabeling_random():
    rng = random.Random(423)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, p=rng.choice([0.2, 0.5, 0.8]))
        cert = canonical_certificate(g)
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_certificate(relabel(g, perm)) == cert


def test_certificate_matches_brute_force_up_to_four_vertices():
    # every labeled graph on at most 4 vertices
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [e for k, e in enumerate(pairs) if bits >> k & 1]
            g = graph_from_edges(n, edges)
            assert canonical_certificate(g) == brute_certificate(g)


def test_certificate_format():
    g = graph_from_edges(5, [])
    assert canonical_certificate(g) == "5:0000"  # 10 zero bits in 2 bytes
    assert canonical_certificate(graph_from_edges(0, [])) == "0:"
    assert canonical_certificate(graph_from_edges(1, [])) == "1:"


def test_star_certificate_matches_brute_force():
    star = graph_from_edges(6, [(5, i) for i in range(5)])
    assert canonical_certificate(star) == brute_certificate(star)


def test_regular_graph_needs_individualization():
    # vertex-transitive graphs defeat pure refinement, so the search
    # must branch: a 6-cycle vs two triangles are both 2-regular
    c6 = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    kk = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_certificate(c6) == brute_certificate(c6)
    assert canonical_certificate(kk) == brute_certificate(kk)
    assert canonical_certificate(c6) != canonical_certificate(kk)


def test_full_arrangement_certificate_is_stable():
    g = intersection_graph((1 << 27) - 1)
    assert canonical_certificate(g) == canonical_certificate(
        relabel(g, tuple(reversed(range(27))))
    )


def test_pipeline_graphs_pass_the_graph_checks(ctx):
    # the package checks no graph it builds; every graph of the pipeline
    # is a simple graph by the definition
    for rec in ctx.records:
        assert is_simple_graph(intersection_graph(rec.mask)), rec


def is_automorphism(adj, perm):
    return all(apply_perm(adj[v], perm) == adj[perm[v]] for v in range(len(adj)))


def test_stabilizer_automorphisms_are_automorphisms(ctx):
    seeds = list(stabilizer_automorphisms(ctx.records, ctx.group))
    assert len(seeds) == len(ctx.records)
    count = 0
    for rec, perms in zip(ctx.records, seeds):
        adj = intersection_graph(rec.mask)
        identity = list(range(len(adj)))
        assert len(perms) <= len(rec.stabilizer)
        for perm in perms:
            assert sorted(perm) == identity and perm != identity
            assert is_automorphism(adj, perm), rec
        count += len(perms)
    assert count > len(ctx.records)


def test_rows_that_move_the_set_are_no_seeds():
    # row 5 * B of the table sends line 6 to line 1, so it moves {1, 2}:
    # a record made over another table could carry it
    group = weyl_group()
    block = group.order // group.degree
    assert group_table(group)[5 * block, 5] == 0
    rec = OrbitRecord(mask_from_lines([1, 2]), 216, (5 * block,))
    assert list(stabilizer_automorphisms([rec], group)) == [[]]


def oracle_automorphisms(record, table):
    """The record's stabilizer rows of a group_table that map its set onto
    itself and move one of its lines, each as a permutation of the vertices
    of its intersection graph."""
    lines = indices(record.mask)
    vertex = {line: k for k, line in enumerate(lines)}
    perms = []
    for row in record.stabilizer:
        image = [int(table[row, i]) for i in lines]
        if sorted(image) == lines and image != lines:
            perms.append([vertex[j] for j in image])
    return perms


def test_stabilizer_automorphisms_decode_the_oracle_table_rows(ctx):
    table = group_table(ctx.group)
    decoded = list(stabilizer_automorphisms(ctx.records, ctx.group))
    assert len(decoded) == len(ctx.records) == 5486
    assert decoded == [oracle_automorphisms(r, table) for r in ctx.records]


# Searches that stop pruning blow up: with leaf ties ignored the edgeless
# graph on 10 vertices needs more than 200 000 refinements.
REFINE_CAP = 10_000


def count_refinements(monkeypatch, cap=REFINE_CAP):
    """A list that grows by one per _refine call; a call past cap raises."""
    refine = graphs._refine
    calls = []

    def counted(*args):
        calls.append(None)
        if len(calls) > cap:
            raise RuntimeError(f"more than {cap} refinements")
        return refine(*args)

    monkeypatch.setattr(graphs, "_refine", counted)
    return calls


PRUNED_SEARCHES = {
    "petersen": (
        graph_from_edges(
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
        ),
        10,
    ),
    "3-cube": (
        graph_from_edges(8, [(v, v | 1 << b) for v in range(8) for b in range(3) if not v >> b & 1]),
        10,
    ),
    "C12": (graph_from_edges(12, [(i, (i + 1) % 12) for i in range(12)]), 6),
    "edgeless-10": (graph_from_edges(10, []), 55),
    "27-lines": (intersection_graph((1 << 27) - 1), 23),
}


@pytest.mark.parametrize("name", PRUNED_SEARCHES)
def test_symmetric_graphs_take_few_refinements(name, monkeypatch):
    # each bound is today's count: a leaf that ties the best string prunes
    # back to where the two paths part, and without that the counts grow
    # (191 for the Petersen graph, 82540 for the 27 lines)
    g, most = PRUNED_SEARCHES[name]
    calls = count_refinements(monkeypatch)
    canonical_certificate(g)
    assert len(calls) <= most


def test_seeded_and_unseeded_certificates_agree(ctx, certificates, monkeypatch):
    calls = count_refinements(monkeypatch, cap=14710 + 24533)
    seeded = record_certificates(ctx.records, ctx.group)
    seeded_calls = len(calls)
    unseeded = [canonical_certificate(intersection_graph(r.mask)) for r in ctx.records]
    assert seeded == unseeded == certificates
    digest = hashlib.sha256("\n".join(seeded).encode()).hexdigest()
    assert digest == CERTIFICATES_SHA256
    # the seeds spare refinements: 24533 unseeded, 14710 with four rows each
    assert seeded_calls <= 14710
    assert 16000 < len(calls) - seeded_calls <= 24533


def test_a_false_seed_changes_some_certificate(ctx, certificates):
    # the seeded search trusts its seeds, so the equality above can fail: a
    # swap of two vertices of the root's first non-singleton cell that is no
    # automorphism prunes a subtree it must not. (A swap of two vertices of
    # different degree never lies within one cell, so it prunes nothing.)
    for rec, cert in zip(ctx.records[2:], certificates[2:]):  # past the empty set and one line
        adj = intersection_graph(rec.mask)
        full = (1 << len(adj)) - 1
        cell = next((c for c in graphs._refine(adj, [full], full) if c & (c - 1)), 0)
        if not cell:
            continue
        u, w = [v for v in range(len(adj)) if cell >> v & 1][:2]
        swap = list(range(len(adj)))
        swap[u], swap[w] = w, u
        if is_automorphism(adj, swap):
            continue
        if canonical_certificate(intersection_graph(rec.mask), [swap]) != cert:
            return
    pytest.fail("no certificate changed under a false seed")


# ----------------------------------------------------------- classification


def test_classify_types_small():
    group = weyl_group()
    records = enumerate_all(group, max_n=2)
    fibers = classify_types(records)
    # empty, point, two skew, two meeting: all distinct types
    assert len(fibers) == 4
    for members in fibers.values():
        assert len(members) == 1


def test_classify_types_accepts_precomputed_certificates():
    group = weyl_group()
    records = enumerate_all(group, max_n=2)
    certs = [canonical_certificate(intersection_graph(r.mask)) for r in records]
    assert classify_types(records, certs) == classify_types(records)


def test_certificates_of_another_length_raise():
    # one certificate per record: a short or long list is refused, never
    # cut to the shorter of the two
    group = weyl_group()
    records = enumerate_all(group, max_n=2)
    certs = record_certificates(records, group)
    for wrong in (certs[:-1], certs + certs[:1]):
        with pytest.raises(ValueError):
            classify_types(records, wrong)
        with pytest.raises(ValueError):
            find_zariski_pairs(records, wrong)


def test_find_zariski_pairs_on_full_table(ctx):
    fibers = find_zariski_pairs(ctx.records, ctx.types)
    assert len(fibers) == 2
    fibers = sorted(fibers, key=lambda f: f.members[0].n)
    first, second = fibers
    assert [r.min_rep for r in first.members] == [
        (1, 2, 3, 4, 5),
        (1, 2, 3, 4, 21),
    ]
    assert [r.min_rep for r in second.members] == [
        (1, 2, 3, 4, 5, 27),
        (1, 2, 3, 4, 21, 26),
    ]
    # five pairwise-skew lines: parity splits the fiber
    assert "perp_parity" in first.distinguished_by
    # the six-line fiber is split by parity and by torsion
    assert "perp_parity" in second.distinguished_by
    assert "h1_torsion" in second.distinguished_by
    for fiber in fibers:
        d = fiber.as_dict()
        assert d["is_zariski_tuple"] is True
        assert d["orbit_sizes"] == [r.orbit_size for r in fiber.members]


def test_members_of_one_orbit_share_a_certificate(ctx):
    # spot check: the certificate is a function of the orbit
    from weyl27.orbits import orbit_masks

    rng = random.Random(424)
    sample = rng.sample([r for r in ctx.records if 2 <= r.n <= 4], 5)
    for rec in sample:
        cert = canonical_certificate(intersection_graph(rec.mask))
        members = orbit_masks(rec.mask, ctx.group)
        for m in rng.sample(members, min(10, len(members))):
            assert canonical_certificate(intersection_graph(m)) == cert


# ------------------------------------------------- refinement and invariance


def test_canonical_order_realizes_the_certificate(ctx):
    rng = random.Random(426)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 12), p=rng.choice([0.2, 0.5, 0.8]))
        assert canonical_certificate(g) == f"{len(g)}:{packed_hex(g, canonical_order(g))}"
    # the string the search keeps for its leaf is the one that leaf spells
    for rec in ctx.records:
        adj = intersection_graph(rec.mask)
        cells, string = graphs._canonical_leaf(adj)
        assert string == graphs._adjacency_string(adj, cells)


def _is_equitable(adj, cells):
    for cell in cells:
        if cell & (cell - 1):
            members = [v for v in range(len(adj)) if cell >> v & 1]
            for other in cells:
                if len({(adj[v] & other).bit_count() for v in members}) > 1:
                    return False
    return True


def test_refined_partitions_are_equitable(ctx, certificates, monkeypatch):
    # _refine has no final sweep: every partition it hands the search, on
    # every arrangement's graph, must already be equitable
    refine = graphs._refine
    seen = []

    def checked(adj, cells, splitter):
        out = refine(adj, cells, splitter)
        assert sorted(out) == sorted(set(out)) and sum(out) == (1 << len(adj)) - 1
        if len(out) < len(adj):
            assert _is_equitable(adj, out), (adj, out)
        seen.append(len(out))
        return out

    monkeypatch.setattr(graphs, "_refine", checked)
    for rec, cert in zip(ctx.records, certificates):
        assert canonical_certificate(intersection_graph(rec.mask)) == cert
    assert len(seen) > len(ctx.records)


def test_certificate_invariant_at_every_n(ctx, certificates):
    # for every n, a relabeled graph and the graph of a moved arrangement
    # get the arrangement's certificate
    rng = random.Random(427)
    by_n = {}
    for rec, cert in zip(ctx.records, certificates):
        by_n.setdefault(rec.n, []).append((rec, cert))
    assert sorted(by_n) == list(range(28))
    elements = ctx.group.elements
    for n, pairs in sorted(by_n.items()):
        for rec, cert in rng.sample(pairs, min(20, len(pairs))):
            g = intersection_graph(rec.mask)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_certificate(relabel(g, perm)) == cert
            element = [int(x) for x in elements[rng.randrange(len(elements))]]
            moved = apply_perm(rec.mask, element)
            assert canonical_certificate(intersection_graph(moved)) == cert


# ---------------------------------------------------------------- type keys


def adjacency_matrix(adj):
    """The 0/1 int64 adjacency matrix of a graph given by neighbour masks."""
    return np.array([[row >> w & 1 for w in range(len(adj))] for row in adj], dtype=np.int64)


def line_keys(masks):
    """The type key of each arrangement, over the 27 lines' adjacency."""
    members = np.array([[m >> i & 1 for i in range(27)] for m in masks], dtype=np.int64)
    lines = adjacency_matrix(build_line_system().neighbour_masks)
    return graphs._type_keys(members, lines).tolist()


def test_type_key_invariant_at_every_n(ctx):
    # for every n, the graph cut to its vertices in a random order, and the
    # arrangement moved by a random group element, get the record's key
    rng = random.Random(428)
    by_n = {}
    for rec in ctx.records:
        by_n.setdefault(rec.n, []).append(rec)
    assert sorted(by_n) == list(range(28))
    elements = ctx.group.elements
    for n, recs in sorted(by_n.items()):
        sample = rng.sample(recs, min(20, len(recs)))
        keys = line_keys([rec.mask for rec in sample])
        for rec, key in zip(sample, keys):
            g = intersection_graph(rec.mask)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                h = adjacency_matrix(relabel(g, perm))
                assert graphs._type_keys(np.ones((1, n), np.int64), h).tolist() == [key]
        moved = [
            apply_perm(rec.mask, [int(x) for x in elements[rng.randrange(len(elements))]])
            for rec in sample
        ]
        assert line_keys(moved) == keys


def test_type_partition_equals_the_certificate_partition(ctx, certificates):
    by_type = classify_types(ctx.records, ctx.types)
    assert list(by_type.values()) == list(classify_types(ctx.records, certificates).values())
    assert len(by_type) == 5484
    # a type string is the record's certificate, or "<n>~<hex>" beside it
    for rec, name, cert in zip(ctx.records, ctx.types, certificates):
        lone = f"{rec.n}~"
        assert name == cert or (name.startswith(lone) and len(name) == len(lone) + 16)


def test_fibers_of_type_keys_carry_their_members_certificates(ctx):
    fibers = find_zariski_pairs(ctx.records, ctx.types)
    assert len(fibers) == 2
    for fiber in fibers:
        for rec in fiber.members:
            assert canonical_certificate(intersection_graph(rec.mask)) == fiber.certificate


def test_build_context_searches_only_records_of_shared_keys(ctx, monkeypatch):
    searched = []
    certify = graphs.canonical_certificate

    def counted(adj, automorphisms=()):
        searched.append(len(adj))
        return certify(adj, automorphisms)

    monkeypatch.setattr(graphs, "canonical_certificate", counted)
    monkeypatch.setattr(checks, "enumerate_all", lambda group, workers=1: ctx.records)
    rebuilt = checks.build_context(workers=1)
    assert rebuilt.types == ctx.types
    # 266 records share their key with another record; 4 of them make up
    # the 2 types of two records
    assert len(searched) == sum(":" in name for name in ctx.types) <= 266
