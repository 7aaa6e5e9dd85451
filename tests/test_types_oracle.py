"""An oracle for the type partition that shares no code with graphs.

The headline result is that the 5486 orbits have 5484 combinatorial types:
exactly two types hold two orbits each. graphs reaches it through canonical
certificates. Here the intersection graphs are built from the intersection
numbers alone and split by 1-dimensional Weisfeiler-Leman colour
refinement; inside each colour bucket a plain backtracking search (in the
manner of VF2: Cordella, Foggia, Sansone and Vento, IEEE TPAMI 26, 2004)
either finds an isomorphism or proves there is none.
"""

from collections import defaultdict

from oracles import find_isomorphism, stable_colours

EXPECTED_FIBERS = {
    frozenset({(1, 2, 3, 4, 5), (1, 2, 3, 4, 21)}),
    frozenset({(1, 2, 3, 4, 5, 27), (1, 2, 3, 4, 21, 26)}),
}


def adjacency(lines, inter):
    """Neighbour masks of the graph on the given 1-based lines, edge iff
    they meet; vertex k is the k-th line."""
    return [
        sum(1 << k for k, b in enumerate(lines) if b != a and inter[a - 1][b - 1] == 1)
        for a in lines
    ]


def test_type_partition_by_colour_refinement_and_search(ctx, certificates):
    inter = ctx.ls.inter
    names = {}
    graphs, colours = [], []
    buckets = defaultdict(list)
    for i, record in enumerate(ctx.records):
        adj = adjacency(record.min_rep, inter)
        c = stable_colours(adj, names)
        graphs.append(adj)
        colours.append(c)
        buckets[tuple(sorted(c))].append(i)

    classes = []
    searched = 0
    for bucket in buckets.values():
        found = []  # each class's first member stands for it
        for i in bucket:
            for members in found:
                j = members[0]
                searched += 1
                image = find_isomorphism(graphs[j], colours[j], graphs[i], colours[i])
                if image is not None:
                    a, b = graphs[j], graphs[i]
                    assert sorted(image) == list(range(len(a)))
                    assert all(
                        (a[u] >> v & 1) == (b[image[u]] >> image[v] & 1)
                        for u in range(len(a))
                        for v in range(len(a))
                    )
                    members.append(i)
                    break
            else:
                found.append([i])
        classes += found

    assert len(ctx.records) == 5486
    assert searched > 200  # colour refinement alone leaves many buckets to search
    assert len(classes) == 5484
    fibers = {frozenset(ctx.records[i].min_rep for i in c) for c in classes if len(c) > 1}
    assert fibers == EXPECTED_FIBERS
    # the same partition as the certificates'
    by_certificate = defaultdict(set)
    for i, cert in enumerate(certificates):
        by_certificate[cert].add(i)
    assert sorted(map(sorted, by_certificate.values())) == sorted(map(sorted, classes))
